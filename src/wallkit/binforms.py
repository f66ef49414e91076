"""GL2(Z) classification of nondegenerate rank-2 integer Gram matrices.

A Gram matrix [[A, B], [B, C]] corresponds to the quadratic form
A x^2 + 2B xy + C y^2 (even middle coefficient), and two Gram matrices are
isometric iff the forms are equivalent under GL2(Z).  Three regimes:

* definite (det > 0): classical Gauss reduction, unique reduced triple;
* indefinite anisotropic (det < 0, -det not a square): reduced-cycle method,
  canonical representative = lexicographic minimum over the cycles of the
  form and its middle-sign flip, both read off one walk of the regular
  continued fraction of the form's root, whose purely periodic part is the
  cycle (Buchmann-Vollmer, Binary Quadratic Forms, ch. 6);
* indefinite isotropic (-det a perfect square sigma^2): classified by the
  pair of residues q(w) mod 2*sigma attached to the two isotropic lines;
  one line is completed to a basis (u, w), and the other line's residue
  follows from the first in closed form.

`canonical_form`, `class_id` and `rank2_isometric` check a Gram by the
package's one gram rule (`_gram_entries`): anything but a symmetric 2x2
matrix of ints, a float entry or an object with no length among them, is
a DomainError, and a singular Gram a `DegenerateFormError`.  The checked
integers go to an unchecked integer core, `_canonical`, which the catalog
calls directly.  A canonical form is a 4-tuple, the regime's name and
three integers, and a class id joins its fields through the one template
`_ID`, so the id format and the regime names are spelled only in this
module (a source test checks that no other module spells a regime name).
"""

from __future__ import annotations

from collections.abc import Sequence
from math import gcd, isqrt

from .model import DomainError, _require_ints, _shown

# A 2x2 Gram matrix, read only as g[i][j]: rows may be tuples or lists.
Gram = Sequence[Sequence[int]]

_MAX_REDUCTION_STEPS = 100000

# A class id is its canonical form's four fields joined by colons: the
# regime's name and three integers.  A positive definite class's id is
# `_POSDEF_ID` filled with `_reduce_definite`'s triple.
_ID = "%s:%s:%s:%s"
_POSDEF = "posdef"
_POSDEF_ID = _ID % (_POSDEF, "%s", "%s", "%s")


class DegenerateFormError(DomainError):
    """The Gram matrix is singular; no isometry class is defined.  A
    DomainError (CLI exit 2), so also a ValueError."""


class ReductionBudgetError(DomainError, RuntimeError):
    """An indefinite form needs more than _MAX_REDUCTION_STEPS
    continued-fraction steps to reach its cycle of reduced forms and walk it
    once, so no canonical form is computed.

    One budget counts the steps before the cycle and those around it.  The
    cycle's length can grow like sqrt(|disc|); at |disc| near 1e10 the cap
    is reached.  The message gives the discriminant's bit length, since its
    digits may be too many to print.  It is a DomainError (CLI exit 2) and
    also a RuntimeError, so callers that catch RuntimeError still catch it.

    The budget bounds steps, not time.  `canonical_form`, `class_id` and
    `rank2_isometric` take grams of any size, and each step costs about
    the square of the entries' digits:
    `canonical_form(((10**1000 + 1, 7), (7, -10**1000)))` raises this
    after 2.6 to 3.5 s of CPU time, and at 10**2000 after 9.4 to 12.1 s
    (Python 3.11 on a shared 2-vCPU VM).
    """


def _is_pair(x) -> bool:
    """Whether x is a tuple or a list of length 2: the package's one pair
    rule.  A dict, a set, a str or bytes of length 2 is no pair."""
    return isinstance(x, (tuple, list)) and len(x) == 2


def _gram_entries(g: Gram) -> tuple[int, int, int]:
    """(a, b, c) of [[a, b], [b, c]]: a DomainError unless g is a symmetric
    2x2 matrix of ints (a bool is one, as in `_require_ints`).  The one
    gram rule of the package."""
    if (not (_is_pair(g) and _is_pair(g[0]) and _is_pair(g[1]))
            or g[0][1] != g[1][0]):
        raise DomainError("gram must be a symmetric 2x2 matrix")
    (a, b), (b2, c) = g
    _require_ints(**{"gram[0][0]": a, "gram[0][1]": b, "gram[1][0]": b2,
                     "gram[1][1]": c})
    return a, b, c


def _check_gram(g: Gram) -> tuple[int, int, int, int]:
    """(a, b, c, det) of a symmetric nondegenerate [[a, b], [b, c]] of
    ints (`_gram_entries`)."""
    a, b, c = _gram_entries(g)
    det = a * c - b * b
    if det == 0:
        raise DegenerateFormError("Gram matrix is degenerate")
    return a, b, c, det


def _reduce_definite(a: int, b: int, c: int,
                     det: int) -> tuple[int, int, int]:
    # Positive definite Gram [[a, b], [b, c]] with det = ac - b^2; returns
    # the GL2-reduced form triple (a, 2|b|, c) with 0 <= 2|b| <= a <= c.
    # A centred step x -> x - t*y with t the integer nearest b/a leaves
    # |b| <= a/2, and c follows from det without the discriminant.
    while True:
        if c < a:
            a, b, c = c, -b, a
        elif 2 * abs(b) > a:
            b -= (2 * b + a) // (2 * a) * a
            c = (b * b + det) // a
        else:
            return a, 2 * abs(b), c


def _indef_canonical(a: int, b: int, c: int, d: int,
                     s: int) -> tuple[int, int, int]:
    # The least triple (A, B, C) with A < 0 < B over the reduced forms
    # GL2-equivalent to (a, 2b, c), a form of discriminant 4d with
    # d = b^2 - ac not a square and s = isqrt(d).  It walks the regular
    # continued fraction of the root (P + sqrt(d))/Q from P = -b, Q = a,
    # R = -c (so QR = d - P^2): t is the root's floor, then P' = tQ - P,
    # Q' = (d - P'^2)/Q and R' = Q.  The step X = tX' + Y', Y = X' has
    # determinant -1 and maps (Q, -2P, -R) to minus (Q', -2P', -R'), so step
    # i's form (-1)^i (Q, -2P, -R) is equivalent to (a, 2b, c).  From the
    # first P <= s with s - P < Q <= s + P the root is reduced and the walk
    # purely periodic; it closes when (P, Q, parity) repeats, so an odd
    # period, whose forms change sign, is walked twice.  GL2 adds each
    # form's middle-sign flip, which is properly equivalent to its reverse
    # (C, B, A); a reduced form has AC < 0, so of a form and its reverse
    # only the one that starts negative can be least: (-Q, 2P, R) at odd
    # steps and (-R, 2P, Q) at even steps.  One budget bounds the walk.
    p, q, r = -b, a, -c
    odd, start, best = False, None, None
    for _ in range(_MAX_REDUCTION_STEPS):
        p = ((p + s) // q if q > 0 else (p + s + 1) // q) * q - p
        q, r = (d - p * p) // q, q
        odd = not odd
        if start is None:
            if not (p <= s and s - p < q <= s + p):
                continue
            start = (p, q, odd)
        elif p == start[0] and q == start[1] and odd == start[2]:
            return best
        form = (-q, 2 * p, r) if odd else (-r, 2 * p, q)
        if best is None or form < best:
            best = form
    raise ReductionBudgetError(
        f"the continued fraction of an indefinite form of "
        f"{_shown((4 * d).bit_length())}-bit discriminant needs more than "
        f"{_MAX_REDUCTION_STEPS} steps to close its cycle")


def _isotropic_residues(a: int, b: int, c: int,
                        sigma: int) -> tuple[int, int]:
    # The residues q(w) mod 2*sigma, sorted, of the two isotropic lines of
    # q(x, y) = a x^2 + 2b xy + c y^2 with b^2 - ac = sigma^2 > 0.  One
    # primitive isotropic u, (1, 0) when a = 0 and else (sigma - b, a) over
    # its gcd, is completed to a basis (u, w); another completion w + t*u,
    # or -w, changes q(w) by a multiple of 2*sigma.  In the basis (u, +-w)
    # the form is 2 sigma xy + r y^2, r = q(w) mod 2*sigma, whose other
    # isotropic line is (r, -2 sigma)/g with g = gcd(r, 2 sigma).  A
    # completion (gamma, delta) of that line has
    # q = delta (r delta + 2 sigma gamma) = +-g delta, where
    # (r/g) delta = +-1 mod 2 sigma/g, so its residue is
    # r' = g (r/g)^-1 mod 2 sigma.  pow(0, -1, 1) is 0, so r = 0 (the
    # modulus 2 sigma/g is 1, and r' = 0) needs no branch.
    u0, u1 = (1, 0) if a == 0 else (sigma - b, a)
    n = gcd(u0, u1)
    _g, x, y = xgcd(u0 // n, u1 // n)
    w0, w1 = -y, x
    bw = ((u0 * a + u1 * b) * w0 + (u0 * b + u1 * c) * w1) // n
    if abs(bw) != sigma:
        raise AssertionError(f"b(u, w) = {bw}, expected +-{sigma}")
    r = (a * w0 * w0 + 2 * b * w0 * w1 + c * w1 * w1) % (2 * sigma)
    g = gcd(r, 2 * sigma)
    other = g * pow(r // g, -1, 2 * sigma // g)
    return (r, other) if r <= other else (other, r)


def xgcd(a: int, b: int) -> tuple[int, int, int]:
    """Return (g, x, y) with g = gcd(a, b) >= 0 and x*a + y*b == g."""
    x, next_x = 1, 0
    y, next_y = 0, 1
    g, next_g = a, b
    while next_g:
        q = g // next_g
        x, next_x = next_x, x - q * next_x
        y, next_y = next_y, y - q * next_y
        g, next_g = next_g, g - q * next_g
    if g < 0:
        x, y, g = -x, -y, -g
    return g, x, y


def canonical_form(g: Gram) -> tuple:
    """Canonical invariant of the GL2(Z) isometry class of a Gram matrix:
    a 4-tuple, the regime's name and three integers.

    Two nondegenerate symmetric 2x2 integer matrices are isometric iff their
    canonical forms are equal.
    """
    return _canonical(*_check_gram(g))


def _canonical(a: int, b: int, c: int, det: int) -> tuple:
    """`canonical_form` of [[a, b], [b, c]] with det = ac - b^2 != 0,
    computed on the integers without checking them: for callers that build
    a symmetric Gram and test det themselves."""
    if det > 0:
        if a > 0:
            return (_POSDEF, *_reduce_definite(a, b, c, det))
        return ("negdef", *_reduce_definite(-a, -b, -c, det))
    sigma = isqrt(-det)
    if sigma * sigma == -det:
        return ("isotropic", sigma, *_isotropic_residues(a, b, c, sigma))
    return ("indef", *_indef_canonical(a, b, c, -det, sigma))


def rank2_isometric(g1: Gram, g2: Gram) -> bool:
    """Decide whether two nondegenerate 2x2 Gram matrices are isometric."""
    ints1, ints2 = _check_gram(g1), _check_gram(g2)
    if ints1[3] != ints2[3]:
        return False
    return _canonical(*ints1) == _canonical(*ints2)


def form_id(form: tuple) -> str:
    """String identifier of a canonical form, as returned by class_id: its
    four fields joined by colons."""
    return _ID % form


def class_id(g: Gram) -> str:
    """Stable string identifier for the isometry class of a Gram matrix."""
    return form_id(canonical_form(g))

