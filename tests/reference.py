"""Independent references for the tests' differentials.

Each function is written from the definitions with the standard library
alone.  The module imports nothing from wallkit (tests/test_source.py
keeps it so), so a defect in a package primitive cannot pass both sides
of a comparison.  Values are ints, tuples and Fractions.  A witness is
the tuple (coords, q, b, branch), and the package's `Witness`, a named
tuple, compares equal to it; lists of witnesses are sorted by
(branch, b, q, coords), the reversed tuple.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, isqrt


# ------------------------------------------------------ the rank-3 model

def euclid(a, b):
    """(g, x, y) with a*x + b*y = g = gcd(a, b) >= 0: the extended
    Euclidean algorithm."""
    x0, y0, x1, y1 = 1, 0, 0, 1
    while b:
        quot, a, b = a // b, b, a % b
        x0, y0, x1, y1 = x1, y1, x0 - quot * x1, y0 - quot * y1
    return (a, x0, y0) if a >= 0 else (-a, -x0, -y0)


def cross(x, y):
    return (x[1] * y[2] - x[2] * y[1], x[2] * y[0] - x[0] * y[2],
            x[0] * y[1] - x[1] * y[0])


def dot(x, y):
    return sum(a * b for a, b in zip(x, y))


def mukai_pairing(x, y, p):
    """<(r1, m1, s1), (r2, m2, s2)> = m1*m2*(2p - 2) - r1*s2 - s1*r2."""
    return x[1] * y[1] * (2 * p - 2) - x[0] * y[2] - x[2] * y[0]


def divisibility(l, e, h):
    """div(l*L + e*e_k) = gcd(l, 2h*e): L is primitive in a unimodular
    lattice, and div(e_k) = 2h."""
    return gcd(l, 2 * h * e)


def primitive_dual_divisor(l, r, ek_div):
    """The dual divisor l*L + (r/ek_div)*e of the curve l*L + r*r_k,
    scaled to a primitive integral class with Fraction arithmetic."""
    a, b = Fraction(l), Fraction(r, ek_div)
    m = a.denominator * b.denominator // gcd(a.denominator, b.denominator)
    x, y = int(a * m), int(b * m)
    g = gcd(x, y)
    return Fraction(x, g), Fraction(y, g)


# ------------------------------------------ Brill-Noether data and squares

def bn_rho(p, r, d):
    """The Brill-Noether number rho(p, r, d) = p - (r + 1)(p - d + r)."""
    return p - (r + 1) * (p - d + r)


def _bn_form(p, delta, k, epsilon, l):
    return bn_rho(p, l, (k + epsilon) * l + delta) + epsilon * l * (l + 2)


def pencil_scan(p, delta, k, epsilon, l_max):
    """Whether rho(p, l, (k + epsilon)*l + delta) + epsilon*l*(l + 2) >= 0
    at every l = 0..l_max: the Brill-Noether condition for a pencil of
    degree k + epsilon, scanned."""
    return all(_bn_form(p, delta, k, epsilon, l) >= 0
               for l in range(l_max + 1))


def pencil(p, delta, k, epsilon):
    """The condition of `pencil_scan` at every l >= 0, in O(1).  It is a
    quadratic in l with leading coefficient A = k - 1 + 2*epsilon >= 1, read
    off its values at 0, 1 and 2 as half their second difference.  Over
    the integers l >= 0 it is least at 0 or next to its vertex
    (f(0) - f(1) + A)/2A."""
    f0, f1, f2 = (_bn_form(p, delta, k, epsilon, l) for l in range(3))
    a = (f2 - 2 * f1 + f0) // 2
    low = max(0, (f0 - f1 + a) // (2 * a))
    return all(_bn_form(p, delta, k, epsilon, l) >= 0
               for l in (0, low, low + 1))


def curve_square(p, delta, k, epsilon):
    """q(R) = 2(p - 1) - n^2/2h of the rational curves' class, with
    n = p - delta + k - 1 + epsilon and h = k - 1 + 2*epsilon."""
    return 2 * (p - 1) - Fraction((p - delta + k - 1 + epsilon) ** 2,
                                  2 * (k - 1 + 2 * epsilon))


def minimal_square_bound(k, epsilon):
    """-(k + 3 - 2*epsilon)/2, the least q(R) where a pencil exists."""
    return Fraction(-(k + 3 - 2 * epsilon), 2)


def fraction_text(x):
    """Reduced "num/den" text of a value with a numerator and a
    denominator, through Fraction: the reference for `model.ratio_str`."""
    f = Fraction(x.numerator, x.denominator)
    return f"{f.numerator}/{f.denominator}"


# ------------------------------------------------------ the catalog's moves

def seed(k, epsilon):
    """The seed state (gram, p, delta): p = 2k - 2 + 5*epsilon, delta = 0
    and gram [[-2 + 2*epsilon, h], [h, 2h]], h = k - 1 + 2*epsilon."""
    h = k - 1 + 2 * epsilon
    return ((2 * epsilon - 2, h), (h, 2 * h)), 2 * k - 2 + 5 * epsilon, 0


def delta_move(gram, p, delta):
    """One extra node: top-left + 2, off-diagonal - 1, same p."""
    (a, b), (_, c) = gram
    return ((a + 2, b - 1), (b - 1, c)), p, delta + 1


def genus_move(gram, p, delta):
    """One genus lower: off-diagonal - 1, same delta."""
    (a, b), (_, c) = gram
    return ((a, b - 1), (b - 1, c)), p - 1, delta


# ------------------------------------------------ classes of 2x2 grams

def rho_cycle(a, b, c):
    """The cycle of reduced forms of the indefinite form a x^2 + b xy + c y^2
    of nonsquare discriminant d = b^2 - 4ac, walked with the reduction
    operator rho (Buchmann-Vollmer, Binary Quadratic Forms, ch. 6): a form
    is reduced when 0 < b < sqrt(d) and |sqrt(d) - 2|a|| < b, and rho
    maps a reduced form to the next one of its proper class's single cycle.
    The reference for the continued-fraction walk of `_canonical`."""
    d = b * b - 4 * a * c
    s = isqrt(d)

    def rho(a, b, c):
        m = 2 * abs(c)
        r = (-b) % m
        if abs(c) > s:
            if r > abs(c):
                r -= m
        else:
            r = s - (s - r) % m
        return c, r, (r * r - d) // (4 * c)

    while not (0 < b <= s and b >= s + 1 - 2 * abs(a)
               and b >= 2 * abs(a) - s):
        a, b, c = rho(a, b, c)
    cycle = [(a, b, c)]
    while (form := rho(*cycle[-1])) != cycle[0]:
        cycle.append(form)
    return cycle


def isotropic_residues(a, b, c, sigma):
    """The residues q(w) mod 2*sigma, sorted, of the two isotropic lines of
    a x^2 + 2b xy + c y^2 with b^2 - ac = sigma^2 > 0: the line's primitive
    u is completed to a basis (u, w) by `euclid`.  Another completion
    w + t*u, or -u, changes q(w) by a multiple of 2*b(u, w) = +-2*sigma."""
    lines = (((1, 0), (-c, 2 * b)) if a == 0
             else ((sigma - b, a), (-sigma - b, a)))
    residues = []
    for x, y in lines:
        g = gcd(x, y)
        _, s, t = euclid(x // g, y // g)
        residues.append((a * t * t - 2 * b * t * s + c * s * s) % (2 * sigma))
    return sorted(residues)


def doubled_middle_reduction(a, b, c):
    """Gauss reduction of the positive definite form a x^2 + b xy + c y^2,
    b = twice the Gram's off-diagonal, recomputing the discriminant at each
    step: the reference for `_reduce_definite`."""
    while True:
        if c < a:
            a, b, c = c, -b, a
        elif abs(b) > a:
            d = b * b - 4 * a * c
            r = b % (2 * a)
            if r > a:
                r -= 2 * a
            c = (r * r - d) // (4 * a)
            b = r
        else:
            return a, abs(b), c


def canonical_form(g):
    """The package's canonical form of a nondegenerate gram: the
    `doubled_middle_reduction` of a definite form (negated when negative
    definite), sigma and `isotropic_residues` of an isotropic one, and the
    least of the `rho_cycle`s of an anisotropic indefinite form and of its
    middle-sign flip."""
    (a, b), (_, c) = g
    det = a * c - b * b
    if det > 0:
        if a > 0:
            return ("posdef", *doubled_middle_reduction(a, 2 * b, c))
        return ("negdef", *doubled_middle_reduction(-a, -2 * b, -c))
    sigma = isqrt(-det)
    if sigma * sigma == -det:
        return ("isotropic", sigma, *isotropic_residues(a, b, c, sigma))
    return ("indef",) + min(min(rho_cycle(a, 2 * b, c)),
                            min(rho_cycle(a, -2 * b, c)))


def class_id(gram):
    """The catalog's class id: the fields of `canonical_form` joined by
    colons, None for a degenerate gram."""
    (a, b), (_, c) = gram
    return ":".join(map(str, canonical_form(gram))) if a * c != b * b else None


def isometric(g, h):
    """Whether two nondegenerate grams are isometric over Z."""
    return canonical_form(g) == canonical_form(h)


# ------------------------------------------------------------- witnesses

def _q(gram, s):
    return (gram[0][0] * s[0] + 2 * gram[0][1] * s[1]) * s[0] \
        + gram[1][1] * s[1] * s[1]


def window(qs, n, qv, epsilon):
    """The branch of a vector s with q(s) = qs and b(s, v) = n: "case_i"
    where 0 <= q(s) < n and 2n <= q(v) + q(s), "case_ii" where epsilon = 0,
    q(s) = -2 and 0 <= 2n <= q(v), else None."""
    if 0 <= qs < n and 2 * n <= qv + qs:
        return "case_i"
    if epsilon == 0 and qs == -2 and 0 <= 2 * n <= qv:
        return "case_ii"
    return None


def box(gram, v, epsilon, radius):
    """The witnesses in [-radius, radius]^2, sorted, by a plain double
    loop: the reference for the box oracle."""
    qv = _q(gram, v)
    c = (gram[0][0] * v[0] + gram[0][1] * v[1],
         gram[1][0] * v[0] + gram[1][1] * v[1])
    found = []
    for x in range(-radius, radius + 1):
        for y in range(-radius, radius + 1):
            qs, n = _q(gram, (x, y)), c[0] * x + c[1] * y
            if (kind := window(qs, n, qv, epsilon)) is not None:
                found.append(((x, y), qs, n, kind))
    return sorted(found, key=lambda w: w[::-1])


def walk(gram, v, epsilon):
    """The sorted witnesses, from an independent frame: every line
    b(s, v) = n, 0 < n < q(v) for case (i) and 0 <= n <= q(v)/2 for case
    (ii), walked along the primitive u spanning v-perp from one particular
    solution per line.  q on a line is a downward parabola in t, whose
    padded range of t with q >= the window's lower end is scanned, and the
    witnesses get one global sort.  It shares no step with the package's
    least walk or x-scan."""
    def ts_with_q_at_least(qu, b0, q0, lo):
        disc = b0 * b0 - qu * (q0 - lo)
        if disc < 0:
            return range(0)
        r = isqrt(disc)
        return range((-b0 + r) // qu - 2, (-b0 - r) // qu + 3)

    qv = _q(gram, v)
    c = (gram[0][0] * v[0] + gram[0][1] * v[1],
         gram[1][0] * v[0] + gram[1][1] * v[1])
    d, x0, y0 = euclid(c[0], c[1])
    u = (-(c[1] // d), c[0] // d)
    qu = _q(gram, u)
    found = []
    # Only the multiples n of d are values of b(-, v).
    windows = [(n, max(0, 2 * n - qv), n - 1, "case_i")
               for n in range(d, qv, d)]
    if epsilon == 0:
        windows += [(n, -2, -2, "case_ii") for n in range(0, qv // 2 + 1, d)]
    for n, lo, hi, branch in windows:
        s0 = (x0 * (n // d), y0 * (n // d))
        b0 = sum(s0[i] * gram[i][j] * u[j] for i in range(2) for j in range(2))
        q0 = _q(gram, s0)
        for t in ts_with_q_at_least(qu, b0, q0, lo):
            qs = qu * t * t + 2 * b0 * t + q0
            if lo <= qs <= hi:
                s = (s0[0] + t * u[0], s0[1] + t * u[1])
                found.append((s, qs, n, branch))
    return sorted(found, key=lambda w: w[::-1])
