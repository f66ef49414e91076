"""Wall decisions for divisor classes with negative square.

A divisor D with q(D) < 0 is a wall divisor exactly when the saturation T
of span{v, D} inside the ambient rank-3 lattice contains a vector s with

  (i)   0 <= q(s) < b(s, v) <= (q(v) + q(s)) / 2, or
  (ii)  epsilon = 0,  q(s) = -2,  0 <= b(s, v) <= q(v) / 2.

Everything below is exact integer arithmetic; the brute-force box oracle
re-derives witness sets independently of the line-by-line enumeration.
"""

from __future__ import annotations

from collections.abc import Iterator
from math import gcd, isqrt
from typing import NamedTuple

from .binforms import Gram, xgcd
from .model import (
    CurveClass,
    DivisorClass,
    DomainError,
    SurfaceContext,
    Triple,
    _require_ints,
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
    """Saturation of span{v, D}, presented in a basis (w, v)."""

    gram: Gram
    v_coords: tuple[int, int]
    basis: tuple[tuple[int, int, int], tuple[int, int, int]]


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
    divisor and div(D) of `span_stage` on the curve."""
    divisor = primitive_integral_divisor((ctx.ek_div * curve.l, curve.r))
    return divisor, divisor_divisibility(divisor, ctx)


def saturated_span(divisor: DivisorClass, ctx: SurfaceContext) -> SpanLattice:
    """Saturation T of span{v, D} with D embedded in the rank-3 model: the
    span of `span_stage`, which first replaces D by the primitive integral
    class on its ray, so every positive integral multiple of D gives the
    same T.  A DomainError when q(D) >= 0.

    The result is presented in a basis (w, v) with 0 <= b(w, v) <= q(v)/2,
    which pins the Gram matrix [[q(w), b], [b, q(v)]] uniquely; `span_stage`
    gives the closed form and `_normal_basis` the tie rules.
    """
    stage = span_stage(divisor, ctx)
    if stage.span is None:
        raise DomainError(
            f"wall test needs q(D) < 0, got q(D) = {stage.q_divisor}")
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
    DomainError unless the gram is a symmetric 2x2 integer matrix of
    negative determinant and v a primitive integer pair with q(v) > 0 (a
    bool is an int, as in `_require_ints`)."""
    if (len(gram) != 2 or len(gram[0]) != 2 or len(gram[1]) != 2
            or gram[0][1] != gram[1][0]):
        raise DomainError(f"span gram must be a symmetric 2x2 matrix: {gram}")
    if len(v) != 2:
        raise DomainError(f"distinguished vector must be a pair, got {v}")
    ((a, b), (b2, c)), (x, y) = gram, v
    if not all(isinstance(z, int) for z in (a, b, b2, c, x, y)):
        # `_require_ints` names the first value that is not an int.
        _require_ints(**{"gram[0][0]": a, "gram[0][1]": b, "gram[1][0]": b2,
                         "gram[1][1]": c, "v[0]": x, "v[1]": y})
    if gcd(x, y) != 1:
        raise DomainError(f"distinguished vector must be primitive, got {v}")
    det = a * c - b * b2
    if det >= 0:
        raise DomainError(f"span lattice must be hyperbolic, det = {det}")
    qv = _q_of(gram, v)
    if qv <= 0:
        raise DomainError(f"distinguished vector must have q > 0, got {qv}")
    return qv


def _q_of(gram: Gram, s: tuple[int, int]) -> int:
    return (gram[0][0] * s[0] + 2 * gram[0][1] * s[1]) * s[0] + gram[1][1] * s[1] * s[1]


def _ts_with_q_at_least(qu: int, b0: int, q0: int, lo: int) -> range:
    """Exactly the integers t with q(s0 + t*u) >= lo; qu < 0 so this is a
    bounded range.

    With A = -qu > 0, q(s0 + t*u) = qu*t^2 + 2*b0*t + q0 >= lo is
    (A*t - b0)^2 <= disc = b0^2 - qu*(q0 - lo).  A*t - b0 is an integer, so
    this holds iff |A*t - b0| <= r = isqrt(disc), that is iff
    ceil((b0 - r)/A) <= t <= floor((b0 + r)/A).
    """
    disc = b0 * b0 - qu * (q0 - lo)
    if disc < 0:
        return range(0)
    r, a = isqrt(disc), -qu
    return range(-((r - b0) // a), (b0 + r) // a + 1)


def _walk_lines(qv: int, d: int, epsilon: int) -> tuple[range, range, range]:
    """The walk's lines, each as the m of its value n = m*d of b(s, v): the
    case (i) lines 0 < n <= q(v)/2, whose window starts at q = 0, and
    q(v)/2 < n < q(v), whose window starts at q = 2n - q(v); then the case
    (ii) lines 0 <= n <= q(v)/2 (none when epsilon = 1)."""
    half = qv // 2 // d
    return (range(1, half + 1), range(half + 1, (qv - 1) // d + 1),
            range(half + 1 if epsilon == 0 else 0))


def _walk_frame(a: int, b: int,
                c: int) -> tuple[int, tuple[int, int], tuple[int, int],
                                 int, int, int]:
    """(d, s1, u, q(u), b(s1, u), q(s1)) of the lattice with Gram
    [[a, b], [b, c]] and v = (0, 1), in closed form; a DomainError unless
    det = ac - b^2 < 0 < c = q(v).

    With (d, x1, y1) = xgcd(b, c), b(s, v) = d at s1 = (x1, y1), and every
    solution line of b(s, v) = n runs along the primitive u = (-c/d, b/d)
    spanning v-perp.  G*u = (-det/d, 0), so q(u) = (c/d)*(det/d), negative
    as det < 0 < c, and b(s1, u) = -x1*det/d: integers, as d divides b and
    c and so det."""
    det = a * c - b * b
    if det >= 0 or c <= 0:
        raise DomainError(
            f"walk needs det < 0 < q(v), got det = {det}, q(v) = {c}")
    d, x1, y1 = xgcd(b, c)
    c_d, det_d = c // d, det // d
    return (d, (x1, y1), (-c_d, b // d), c_d * det_d, -x1 * det_d,
            a * x1 * x1 + 2 * b * x1 * y1 + c * y1 * y1)


def _witness_walk(a: int, b: int, c: int,
                  epsilon: int) -> Iterator[Witness]:
    """Witnesses of the lattice with Gram [[a, b], [b, c]] and v = (0, 1),
    in `Witness.sort_key` order, one line b(s, v) = n at a time: case (i)
    lines by ascending n, then case (ii) lines, each line sorted.  Each
    line costs an O(1) integer test; only a line with a candidate point
    computes its exact t-range.  The lines come from `_walk_frame`, which
    raises a DomainError unless det = ac - b^2 < 0 < c = q(v)."""
    d, (x1, y1), (u0, u1), qu, b1, q1 = _walk_frame(a, b, c)
    # Line n = m*d starts at s0 = m*s1, so b(s0, u) = m*b1 and
    # q(s0) = m^2*q1.  With A = -q(u), line m has a t with q >= lo iff the
    # multiple A*t nearest b0 = m*b1, at distance rho, lies within
    # isqrt(disc) of b0 (see `_ts_with_q_at_least`), that is iff
    # rho^2 <= disc.  Here disc = m^2*e - A*lo with e = b1^2 - q(u)*q1,
    # written m*(m*e - f) + g for the lo of each group of lines.  Only a
    # line that passes computes its exact t-range; on the large spans
    # almost none do.
    abs_qu, e = -qu, b1 * b1 - qu * q1
    near, far, lines_ii = _walk_lines(c, d, epsilon)
    for lines, f, g, branch in ((near, 0, 0, "case_i"),
                                (far, 2 * abs_qu * d, abs_qu * c, "case_i"),
                                (lines_ii, 0, 2 * abs_qu, "case_ii")):
        for m in lines:
            rho = m * b1 % abs_qu
            if rho + rho > abs_qu:
                rho = abs_qu - rho
            if rho * rho <= m * (m * e - f) + g:
                # Line m's witnesses, sorted: the points s0 + t*u in the
                # window.
                b0, q0, n = m * b1, m * m * q1, m * d
                if branch == "case_i":
                    lo, hi = max(0, 2 * n - c), n - 1
                else:
                    lo = hi = -2
                found = []
                for t in _ts_with_q_at_least(qu, b0, q0, lo):
                    qs = qu * t * t + 2 * b0 * t + q0
                    if qs <= hi:
                        s = (m * x1 + t * u0, m * y1 + t * u1)
                        found.append(Witness(s, qs, n, branch))
                found.sort(key=Witness.sort_key)
                yield from found


def enumerate_witnesses(gram: Gram, v: tuple[int, int],
                        epsilon: int) -> list[Witness]:
    """All witnesses in the rank-2 lattice (complete, exact), sorted by
    `Witness.sort_key`.  A DomainError unless the gram is a symmetric 2x2
    integer matrix of negative determinant and v a primitive integer pair
    with q(v) > 0.

    The primitive v is completed to a basis (w, v) of Z^2 with
    w[0]*v[1] - w[1]*v[0] = 1 (w = (1, 0) when v = (0, 1)), the lattice is
    walked by `_witness_walk` in that basis, whose Gram is
    [[q(w), b(w, v)], [b(w, v), q(v)]], and each witness x*w + y*v is
    mapped back to the given coordinates.

    The walk works line by line: for each admissible value n of b(s, v),
    the set {s : b(s, v) = n} is s0 + Z*u with q negative on u, so q
    restricted to the line is a downward parabola and each q-window cuts
    out finitely many integer points.  Every line starts at a multiple of
    one particular solution, so the walk costs O(1) per line: an integer
    test, one residue mod |q(u)| and one comparison of squares, tells
    whether the line has a t with q >= the window's lower end, and only a
    line that has one computes its exact t-range and builds and sorts a
    list.  That is still O(q(v)/d) lines in all, with d = gcd(b(-, v)).
    `witness_stage` reads the same walk lazily, on the span's own normal
    basis, and stops at the least witness's line; non-walls and walls with
    only case (ii) witnesses still walk all O(q(v)/d) lines.
    """
    qv = _check_span_signature(gram, v)
    _, w0, w1 = xgcd(v[1], -v[0])
    c0, c1 = _pairing_with(gram, v)
    found = [Witness((x * w0 + y * v[0], x * w1 + y * v[1]), qs, n, branch)
             for (x, y), qs, n, branch in _witness_walk(
                 _q_of(gram, (w0, w1)), c0 * w0 + c1 * w1, qv, epsilon)]
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
    independent oracle for enumerate_witnesses."""
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
    as a `DivisorClass` or as its integer pair (a, b)."""
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
    h, l0 = qv // 2, divisor.l // div
    q_w, b_w, w = _normal_basis((0, l0, divisor.e * qv // div),
                                (2 * ctx.p - 2) * l0 * l0, h)
    return SpanStage(divisor, div, q_d, SpanLattice(
        ((q_w, b_w), (b_w, qv)), (0, 1), (w, (1, 0, -h))))


def _least_witness(span: SpanLattice,
                   epsilon: int) -> tuple[Witness | None, Triple | None]:
    """`_least_witness_of` the span's gram and basis; the span is in its
    normal basis (w, v), a DomainError if v is not (0, 1)."""
    if span.v_coords != (0, 1):
        raise DomainError(
            f"span must carry v as (0, 1), got {span.v_coords}")
    (a, b), (_, c) = span.gram
    return _least_witness_of(a, b, c, *span.basis, epsilon)


def _least_witness_of(a: int, b: int, c: int, w: Triple, v: Triple,
                      epsilon: int) -> tuple[Witness | None, Triple | None]:
    """The least witness of the lattice with Gram [[a, b], [b, c]] and
    v = (0, 1), which walks its lines up to that witness, and the
    witness's ambient coordinates in the basis (w, v) of ambient triples;
    (None, None) when it has no witness."""
    witness = next(_witness_walk(a, b, c, epsilon), None)
    if witness is None:
        return None, None
    x, y = witness.coords
    return witness, (x * w[0] + y * v[0], x * w[1] + y * v[1],
                     x * w[2] + y * v[2])


def witness_stage(stage: SpanStage, epsilon: int) -> WallVerdict:
    """The witness stage of the wall decision: the verdict on a span stage,
    with the least witness of `_least_witness`."""
    if stage.span is None:
        return WallVerdict(*stage, None, None)
    return WallVerdict(*stage, *_least_witness(stage.span, epsilon))
