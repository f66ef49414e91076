"""Wall decisions for divisor classes with negative square.

A divisor D with q(D) < 0 is a wall divisor exactly when the saturation T
of span{v, D} inside the ambient rank-3 lattice contains a vector s with

  (i)   0 <= q(s) < b(s, v) <= (q(v) + q(s)) / 2, or
  (ii)  epsilon = 0,  q(s) = -2,  0 <= b(s, v) <= q(v) / 2.

Both searches rest on one identity.  In a basis (w, v) with Gram
[[A, B], [B, C]], C = q(v) and D = B^2 - AC > 0, the vector s = x*w + y*v
has n = b(s, v) = B*x + C*y and C*q(s) = n^2 - D*x^2.  `_witness_walk`
finds the least witness line by line in n, each line's residue one
addition from the last; `enumerate_witnesses` finds them all by a scan
over x.  Everything is exact integer arithmetic; the brute-force box
oracle re-derives witness sets independently of both.

The walk stops at the least witness's line, so it walks every case (i)
line, linear in q(v), on non-walls and on walls with only case (ii)
witnesses.  A verdict holds only the least witness, and no CLI call runs
`enumerate_witnesses`: the box-oracle comparison in `wallkit.checks` takes
the full set from the box scan, and acceptance gate 7 compares the
x-scan's set with the box's.
"""

from __future__ import annotations

from math import gcd, isqrt
from typing import NamedTuple

from .binforms import Gram, _gram_entries, _is_pair, xgcd
from .model import (
    CurveClass,
    DivisorClass,
    DomainError,
    SurfaceContext,
    Triple,
    _require_epsilon,
    _require_ints,
    _shown,
    divisor_divisibility,
)


class Witness(NamedTuple):
    coords: tuple[int, int]  # in the basis carried by the span lattice
    q: int
    b: int                   # pairing with the distinguished vector v
    branch: str              # "case_i" or "case_ii"

    def sort_key(self) -> tuple:
        return (self.branch, self.b, self.q, self.coords)


class SpanLattice(NamedTuple):
    """Saturation of span{v, D}, presented in its normal basis (w, v): the
    Gram [[q(w), b(w, v)], [b(w, v), q(v)]] and the ambient triple w.  v
    is the second basis vector, so its coordinates are the constant
    `v_coords`, and its ambient triple is `model.moduli_vector`."""

    gram: Gram
    w: Triple

    v_coords = (0, 1)


class WallVerdict(NamedTuple):
    divisor: DivisorClass    # primitive integral representative
    divisor_div: int
    q_divisor: int
    span: SpanLattice | None  # None when q(D) >= 0
    witness: Witness | None  # the least witness
    witness_ambient: tuple[int, int, int] | None

    @property
    def is_wall(self) -> bool:
        return self.witness is not None

    @property
    def branch(self) -> str | None:
        """Witness branch; "nonnegative-square" when q(D) >= 0."""
        if self.span is None:
            return "nonnegative-square"
        return self.witness.branch if self.witness is not None else None

    @property
    def t_gram(self) -> Gram | None:
        return self.span.gram if self.span is not None else None


def primitive_dual_divisor(curve: CurveClass,
                           ctx: SurfaceContext) -> tuple[DivisorClass, int]:
    """Primitive integral divisor class D proportional to the curve class,
    together with div(D) from `divisor_divisibility`; D / div(D) is q-dual
    to the curve.  The curve l*L + r*r_k is the integral divisor
    div(e)*l*L + r*e over div(e), so D is `primitive_integral_divisor` of
    that divisor's pair (div(e)*l, r), which builds no class for it: the
    divisor and div(D) of `span_stage` on the curve.  It takes a
    `CurveClass` and a `SurfaceContext`."""
    divisor = primitive_integral_divisor((ctx.ek_div * curve.l, curve.r))
    return divisor, divisor_divisibility(divisor, ctx)


def saturated_span(divisor: DivisorClass | tuple[int, int],
                   ctx: SurfaceContext) -> SpanLattice:
    """Saturation T of span{v, D} with D embedded in the rank-3 model: the
    span of `span_stage`, which first replaces D by the primitive integral
    class on its ray, so every positive integral multiple of D gives the
    same T.  It takes a `SurfaceContext`, and D as
    `primitive_integral_divisor` takes it: a `DivisorClass` or its pair of
    ints.  A DomainError when q(D) >= 0.

    The result is presented in a basis (w, v) with 0 <= b(w, v) <= q(v)/2,
    which pins the Gram matrix [[q(w), b], [b, q(v)]] uniquely; `span_stage`
    gives the closed form and `_normal_basis` the tie rules.
    """
    stage = span_stage(divisor, ctx)
    if stage.span is None:
        raise DomainError(f"wall test needs q(D) < 0, "
                          f"got q(D) = {_shown(stage.q_divisor)}")
    return stage.span


def _normal_basis(w: Triple, q_w: int, h: int) -> tuple[int, int, Triple]:
    """(q(w'), b(w', v), w') for the lattice Z*w + Z*v with q(w) = q_w,
    v = (1, 0, -h) and q(v) = 2h: w' = +-w + t*v is the basis vector that
    `span_stage` returns, with 0 <= b(w', v) <= q(v)/2, and at the two
    ties, b(w', v) = 0 (candidates w', -w') and 2*b(w', v) = q(v)
    (candidates w', v - w'), the candidate with the lexicographically
    smaller (w'[1], w'[0]).  w is an ambient triple with (w, v) a basis of
    the lattice, so every s*w + t*v with s = +-1 gives the same result.
    q(w') follows from q(w) and b = b(w, v) alone:
    q(w + t*v) = q(w) + 2t*b + t^2*q(v), q(v - w) = q(v) - 2b + q(w) and
    q(-w) = q(w), so neither tie changes it."""
    qv = 2 * h
    # b(w, v) = w[0]*h - w[2]; shift by t*v into 0 <= b(w, v) < q(v).
    b_w = w[0] * h - w[2]
    b_red = b_w % qv
    t = (b_red - b_w) // qv
    q_w += t * (2 * b_w + t * qv)
    w = (w[0] + t, w[1], w[2] - t * h)
    v_minus_w = (1 - w[0], -w[1], -h - w[2])
    if 2 * b_red > qv:
        w, q_w, b_red = v_minus_w, qv - 2 * b_red + q_w, qv - b_red
    elif b_red == 0 or 2 * b_red == qv:
        alt = v_minus_w if b_red else (-w[0], -w[1], -w[2])
        if (alt[1], alt[0]) < (w[1], w[0]):
            w = alt
    return q_w, b_red, w


def _pairing_with(gram: Gram, v: tuple[int, int]) -> tuple[int, int]:
    return (gram[0][0] * v[0] + gram[0][1] * v[1],
            gram[1][0] * v[0] + gram[1][1] * v[1])


def _check_span_signature(gram: Gram, v: tuple[int, int]) -> int:
    """q(v), after the one input rule of the witness functions: a
    DomainError unless the gram passes the package's gram rule
    (`binforms._gram_entries`: a symmetric 2x2 matrix of ints) with
    negative determinant and v is a primitive pair of ints with q(v) > 0
    (a bool is an int, as in `_require_ints`)."""
    a, b, c = _gram_entries(gram)
    if not _is_pair(v):
        raise DomainError(
            f"distinguished vector must be a pair, got {_shown(v)}")
    x, y = v
    _require_ints(**{"v[0]": x, "v[1]": y})
    if gcd(x, y) != 1:
        raise DomainError(
            f"distinguished vector must be primitive, got {_shown(v)}")
    det = a * c - b * b
    if det >= 0:
        raise DomainError(
            f"span lattice must be hyperbolic, det = {_shown(det)}")
    qv = _q_of(gram, v)
    if qv <= 0:
        raise DomainError(
            f"distinguished vector must have q > 0, got {_shown(qv)}")
    return qv


def _q_of(gram: Gram, s: tuple[int, int]) -> int:
    return (gram[0][0] * s[0] + 2 * gram[0][1] * s[1]) * s[0] + gram[1][1] * s[1] * s[1]


def _walk_lines(qv: int, d: int, epsilon: int) -> tuple[range, range]:
    """The walk's lines, each as the m of its value n = m*d of b(s, v): the
    case (i) lines 0 < n <= q(v)/2, then the case (ii) lines
    0 <= n <= q(v)/2 (none when epsilon = 1).  The walk reads each range's
    first m from its `start` and takes one item per line it visits."""
    half = qv // 2 // d
    return range(1, half + 1), range(half + 1 if epsilon == 0 else 0)


def _witness_walk(a: int, b: int, c: int, epsilon: int) -> Witness | None:
    """The least witness, by `Witness.sort_key`, of the lattice with Gram
    [[a, b], [b, c]] and v = (0, 1), or None; a DomainError unless
    det = ac - b^2 < 0 < c = q(v).

    With D = -det, s = (x, y) has n = b(s, v) = b*x + c*y and
    c*q(s) = n^2 - D*x^2.
      - s -> v - s maps a case (i) witness on line n to one on line c - n,
        so the least one has n <= c/2.  There the case (i) window is just
        q(s) >= 0, that is D*x^2 <= n^2: then q(s) <= n^2/c <= n/2 < n and
        2n <= c <= c + q(s).  Case (ii) is D*x^2 = n^2 + 2c.
      - The lines n = m*d, d = gcd(b, c), are walked by ascending n, case
        (i) first (`_walk_lines`, whose ranges give each first m).  With
        (d, x1, _) = xgcd(b, c), line m holds the x = m*x1 (mod c/d).
        The walk carries r = m*x1 mod c/d and n from line to line: a step
        adds x1 mod c/d to r, less c/d when r reaches it, and d to n.
      - One O(1) test per line, D*rho^2 <= top with rho = min(r, c/d - r)
        the distance from 0 to the nearest such x, tells whether the line
        has a point with D*x^2 <= top, top = n^2 (case (i)) or n^2 + 2c
        (case (ii)).
      - On a line that passes, the least point has the least q, so the
        largest |x|: the end of its points in [-X, X], X = isqrt(top // D),
        with the larger |x|, the negative end on a tie.  A case (ii) line
        has a witness only if that end has D*x^2 = top.
    """
    disc = b * b - a * c
    if disc <= 0 or c <= 0:
        raise DomainError(
            f"walk needs det < 0 < q(v), got det = {_shown(-disc)}, "
            f"q(v) = {_shown(c)}")
    d, x1, _ = xgcd(b, c)
    period = c // d
    x1 %= period
    lines_i, lines_ii = _walk_lines(c, d, epsilon)
    for lines, lift, branch in ((lines_i, 0, "case_i"),
                                (lines_ii, 2 * c, "case_ii")):
        # r = m*x1 mod period and n = m*d on the line before the first.
        m = lines.start - 1
        r, n = m * x1 % period, m * d
        for _ in lines:
            r += x1
            if r >= period:
                r -= period
            n += d
            rho, top = period - r if r + r > period else r, n * n + lift
            if disc * rho * rho <= top:
                # The line's least and greatest x in [-big, big].
                big = isqrt(top // disc)
                low, high = (r + big) % period - big, big - (big - r) % period
                x = low if -low >= high else high
                if not lift or disc * x * x == top:
                    return Witness((x, (n - b * x) // c),
                                   (n * n - disc * x * x) // c, n, branch)
    return None


def enumerate_witnesses(gram: Gram, v: tuple[int, int],
                        epsilon: int) -> list[Witness]:
    """All witnesses in the rank-2 lattice (complete, exact), sorted by
    `Witness.sort_key`.  A DomainError unless the gram is a symmetric 2x2
    integer matrix of negative determinant, v a primitive integer pair
    with q(v) > 0 and epsilon 0 or 1 (`model._require_epsilon`).

    The primitive v is completed to a basis (w, v) of Z^2 with
    w[0]*v[1] - w[1]*v[0] = 1 (w = (1, 0) when v = (0, 1)), whose Gram is
    [[A, B], [B, C]] with C = q(v) and D = B^2 - AC > 0.  A witness
    s = x*w + y*v has n = b(s, v) = B*x + C*y with 0 <= n < C, and
    C*q(s) = n^2 - D*x^2, so D*x^2 <= C^2/4 in case (i) (from
    q(s) < n <= (C + q(s))/2) and D*x^2 = n^2 + 2C <= C^2/4 + 2C in case
    (ii).  So the scan runs over |x| <= isqrt((C^2 + 8C) // 4D), with one
    candidate n = B*x mod C for each x: O(1 + q(v)/sqrt(D)) points.
    `witness_stage` reads only the least witness, from `_witness_walk`.
    """
    _require_epsilon(epsilon)
    qv = _check_span_signature(gram, v)
    _, w0, w1 = xgcd(v[1], -v[0])
    c0, c1 = _pairing_with(gram, v)
    b = c0 * w0 + c1 * w1
    disc = b * b - _q_of(gram, (w0, w1)) * qv
    radius = isqrt((qv * qv + 8 * qv) // (4 * disc))
    found = []
    for x in range(-radius, radius + 1):
        n = b * x % qv
        qs, y = (n * n - disc * x * x) // qv, (n - b * x) // qv
        if (0 <= qs < n and 2 * n <= qv + qs
                or qs == -2 and epsilon == 0 and 2 * n <= qv):
            found.append(Witness((x * w0 + y * v[0], x * w1 + y * v[1]), qs,
                                 n, "case_i" if qs >= 0 else "case_ii"))
    found.sort(key=Witness.sort_key)
    return found


def box_radius(gram: Gram, v: tuple[int, int]) -> int:
    """Half-width of a box around 0 that provably contains every witness.

    Let u span v-perp, so q(u) < 0, and write a witness as
    s = (n/q(v))*v + lam*u with n = b(s, v), so that
    lam^2*|q(u)| = n^2/q(v) - q(s).
      (i)  0 <= q(s) < n <= (q(v) + q(s))/2, so q(s) < q(v) and
           lam^2*|q(u)| <= (q(v) + q(s))^2/(4*q(v)) - q(s)
                         = (q(v) - q(s))^2/(4*q(v)) <= q(v)/4.
      (ii) q(s) = -2 and 0 <= n <= q(v)/2, so
           lam^2*|q(u)| = n^2/q(v) + 2 <= q(v)/4 + 2.
    So lam^2*|q(u)| <= (q(v) + 8)/4, and 0 <= n <= q(v) in both cases.
    Hence |s_i| <= |v_i| + |lam*u_i|, and as s_i is an integer,
    |s_i| <= |v_i| + isqrt((q(v) + 8)*u_i^2 // (4*|q(u)|)).
    """
    qv = _check_span_signature(gram, v)
    c = _pairing_with(gram, v)
    d = gcd(c[0], c[1])
    u = (-(c[1] // d), c[0] // d)
    qu = _q_of(gram, u)
    return max(abs(v[i]) + isqrt((qv + 8) * u[i] * u[i] // (-4 * qu))
               for i in range(2))


def box_witnesses(gram: Gram, v: tuple[int, int],
                  epsilon: int) -> list[Witness]:
    """Brute-force witness search over the box [-r, r]^2 with
    r = box_radius, which provably contains all witnesses; serves as an
    independent oracle for enumerate_witnesses.  Its input rule is that of
    `enumerate_witnesses`."""
    _require_epsilon(epsilon)
    return _box_scan(gram, v, epsilon, box_radius(gram, v))


def _box_scan(gram: Gram, v: tuple[int, int], epsilon: int,
              radius: int) -> list[Witness]:
    # The body of `box_witnesses` over [-radius, radius]^2, for a caller
    # that has the gram's `box_radius` (which checks the gram) already.
    qv = _q_of(gram, v)
    c0, c1 = _pairing_with(gram, v)
    (a, b), (_, c) = gram
    found = []
    coords = range(-radius, radius + 1)
    for x in coords:
        # q(x, y) = a*x^2 + (2*b*x + c*y)*y and b((x, y), v) = c0*x + c1*y.
        qx, bx, nx = a * x * x, 2 * b * x, c0 * x
        for y in coords:
            qs = qx + (bx + c * y) * y
            n = nx + c1 * y
            if 0 <= qs < n and 2 * n <= qv + qs:
                found.append(Witness((x, y), qs, n, "case_i"))
            elif qs == -2 and epsilon == 0 and 0 <= 2 * n <= qv:
                found.append(Witness((x, y), qs, n, "case_ii"))
    found.sort(key=Witness.sort_key)
    return found


def primitive_integral_divisor(divisor: tuple[int, int]) -> DivisorClass:
    """Primitive integral class positively proportional to a*L + b*e, given
    as a `DivisorClass` or as its integer pair (a, b); a DomainError unless
    it is a nonzero pair of ints."""
    # The inline test is the fast path, as in `DivisorClass.__new__`: most
    # pairs are tuples of two ints.
    if not (isinstance(divisor, tuple) and len(divisor) == 2
            and isinstance(divisor[0], int) and isinstance(divisor[1], int)):
        if not _is_pair(divisor):
            raise DomainError(
                f"divisor class must be a pair, got {_shown(divisor)}")
        x, y = divisor
        _require_ints(**{"divisor[0]": x, "divisor[1]": y})
    x, y = divisor
    if x == 0 and y == 0:
        raise DomainError("divisor class must be nonzero")
    g = gcd(x, y)
    return DivisorClass(x // g, y // g)


class SpanStage(NamedTuple):
    """What the wall decision knows before its witness search: the
    primitive integral divisor D, div(D), q(D) and the saturation T of
    span{v, D} (None when q(D) >= 0)."""

    divisor: DivisorClass
    divisor_div: int
    q_divisor: int
    span: SpanLattice | None

    @property
    def t_gram(self) -> Gram | None:
        return self.span.gram if self.span is not None else None


def span_stage(obj: CurveClass | DivisorClass,
               ctx: SurfaceContext) -> SpanStage:
    """The span stage of the wall decision (dual divisor, div(D), q(D) and
    the saturation T): no witness search.  `witness_stage` on it decides
    whether the class spans a wall.  A curve class is taken as its integral
    divisor's pair, as in `primitive_dual_divisor`, so both kinds of class
    reach D through `primitive_integral_divisor`.

    Closed form of T: v = (1, 0, -h) with h = k - 1 + 2*epsilon, and the
    primitive D = a*L + b*e embeds as d = (b, a, b*h), so
    d - b*v = (0, a, b*q(v)).  With m = gcd(a, b*q(v)) = div(D) the
    saturation is Z*v + Z*w0 for the primitive w0 = (0, a/m, b*q(v)/m), and
    m is the index of span{v, D} in T.  `_normal_basis` reduces (w0, v),
    with q(w0) = (2p - 2)*(a/m)^2, to the basis that `saturated_span`
    returns.  The catalog hands `_normal_basis` its state's own basis
    vector (`catalog.state_vector`) and its q(w), the state gram's top
    left entry, in place of w0, so it builds no divisor and no span; that
    this vector and v span T is the `dual-lattice` check of
    `wallkit.checks`.
    """
    if isinstance(obj, CurveClass):
        obj = (ctx.ek_div * obj.l, obj.r)
    divisor = primitive_integral_divisor(obj)
    div = divisor_divisibility(divisor, ctx)
    q_d, qv = divisor.square(ctx), ctx.ek_div
    if q_d >= 0:
        return SpanStage(divisor, div, q_d, None)
    l0 = divisor.l // div
    q_w, b, w = _normal_basis((0, l0, divisor.e * qv // div),
                              (2 * ctx.p - 2) * l0 * l0, qv // 2)
    return SpanStage(divisor, div, q_d, SpanLattice(((q_w, b), (b, qv)), w))


def _least_witness_of(a: int, b: int, c: int, w: Triple,
                      epsilon: int) -> tuple[Witness | None, Triple | None]:
    """The least witness of the lattice with Gram [[a, b], [b, c]] and
    v = (0, 1), which walks its lines up to that witness, and the
    witness's ambient coordinates x*w + y*(1, 0, -c/2), as the normal
    basis (w, v) has the ambient v = (1, 0, -h) with q(v) = c = 2h;
    (None, None) when it has no witness."""
    witness = _witness_walk(a, b, c, epsilon)
    if witness is None:
        return None, None
    x, y = witness.coords
    return witness, (x * w[0] + y, x * w[1], x * w[2] - y * (c // 2))


def witness_stage(stage: SpanStage, epsilon: int) -> WallVerdict:
    """The witness stage of the wall decision: the verdict on a span stage,
    with the least witness of `_least_witness_of` on the span's gram."""
    if stage.span is None:
        return WallVerdict(*stage, None, None)
    ((a, b), (_, c)), w = stage.span
    return WallVerdict(*stage, *_least_witness_of(a, b, c, w, epsilon))
