"""Consistency checks shared by `wallkit scan` and the acceptance gates.

A `Point` wraps one parameter set, a delta on an (epsilon, k, p) `Row`,
and computes, at most once each and on first use, the stages curve ->
square -> span -> verdict (and pencil existence beside them), so a check
(or a CLI subcommand) costs only the stages it reads.  `span` is the wall
test's span stage: the dual divisor, div(D), q(D) and the saturated span
T, without the witness search.  `verdict` is the witness stage on that same
span, which walks T's lines up to the least witness.  Which check reads
which stage:

  wall-square     pencil, square, verdict
  exists-routes   pencil
  square-forms    square
  dual-lattice    square, span
  min-square      pencil, square, verdict
  witness-oracle  pencil, square, verdict and its full witness set
  moduli-dim      none (the parameters and the row only)

The square is a `model.Ratio`, an integer numerator over 2h
(h = k - 1 + 2*epsilon), and the span's divisor and q(D) are integers, so
every check compares ints.  Whether a point is the characteristic point of
the minimal-square bound is a predicate on its parameters
(`curves._minimal_point`), which only `min-square` reads.

A `Row` builds the validated context of its (epsilon, k, p) row and
computes, on first read, what `dual-lattice` and `moduli-dim` read of the
context alone: v, q(v) and the divisibility of v + e and v - e.  Its
points build their parameters on that context (`BNParams.on`), so the
delta points of one row share both.  `scan` builds one `Row` per row; the
point subcommands build one per point and read none of its lazy fields.

The checks own every comparison of two routes to one number: each computes
its second route itself and reports a disagreement as a failed check, not
as an exception.  The two `AssertionError`s left in the library (both in
`binforms`) guard invariants that no check repeats.

`_oracle` is the one comparison of a verdict's witnesses with the box
oracle, and its one rule for where the oracle runs: on a span whose box
radius is at most `ORACLE_RADIUS_LIMIT`.  `wall-test --oracle` reads it
through `oracle_agrees`, and the `witness-oracle` check reads it directly,
for the witness count too, at every point with a pencil and q(R) < 0.  A
verdict holds only the least witness, from the least walk, and `_oracle`
takes the full set from the box scan, once per call on every span it runs
on, walls or not, and checks the verdict's witness against the set's
first.  Acceptance gate 7 checks the x-scan (`enumerate_witnesses`)
against the box on the same spans.

`CHECKS` maps each check name to a function `point -> None | (ok, members)`:
`None` means the check does not apply at the point, and `members` is the
JSON text of the check's fields, as `json.dumps` writes the members of an
object (`'"q_R": "-5/2", "is_wall": true'`), or "" when it has none.  `scan`
writes it into its record as it is.  The text needs no escaping: q(R) is
"num/den" digits and every other value is an int or a bool.
"""

from __future__ import annotations

from .catalog import state_gram, state_vector
from .curves import (
    BNParams,
    _bound_num,
    _minimal_point,
    _rewritten,
    _square,
    curve_class,
    exists_pencil,
    exists_pencil_via_rho,
)
from .model import (
    CurveClass,
    DomainError,
    Ratio,
    SurfaceContext,
    Triple,
    exceptional_vector,
    moduli_dim,
    moduli_vector,
    mukai_pairing,
    mukai_square,
    ratio_str,
    sheaf_vector,
)
from .walls import (
    SpanStage,
    WallVerdict,
    Witness,
    _box_scan,
    box_radius,
    span_stage,
    witness_stage,
)

# The box oracle only runs on boxes of at most this radius: its cost grows
# with the radius squared, and radius 200 takes about 0.03 s (Python 3.11,
# 2-vCPU Xeon VM).
ORACLE_RADIUS_LIMIT = 200

Result = tuple[bool, str] | None

# A bool as JSON text: _JSON_BOOL[flag].
_JSON_BOOL = ("false", "true")


class _computed_once:
    """`functools.cached_property` without its lock, as in Python 3.12: the
    first read computes the value and stores it in the instance's __dict__,
    which later reads find before this (non-data) descriptor.  Python 3.11's
    version takes an RLock on every first read, and a scan point makes five."""

    def __init__(self, func) -> None:
        self.func = func
        self.name = func.__name__

    def __get__(self, obj, owner=None):
        if obj is None:
            return self
        value = obj.__dict__[self.name] = self.func(obj)
        return value


class Row:
    """One (epsilon, k, p) row: its validated context, and what the checks
    read of the context alone, computed lazily: the moduli vector v, its
    Mukai square q(v), and whether v + e and v - e are divisible by 2 and
    by q(v) in the rank-3 model."""

    def __init__(self, epsilon: int, k: int, p: int) -> None:
        self.ctx = SurfaceContext(epsilon, p, k)

    @_computed_once
    def v(self) -> Triple:
        return moduli_vector(self.ctx)

    @_computed_once
    def qv(self) -> int:
        return mukai_square(self.v, self.ctx.p)

    @_computed_once
    def v_e_divisible(self) -> bool:
        return all((a + b) % 2 == 0 and (a - b) % self.ctx.ek_div == 0
                   for a, b in zip(self.v, exceptional_vector(self.ctx)))


class Point:
    """One parameter set, the point delta of a row; everything derived from
    it is computed lazily."""

    def __init__(self, row: Row, delta: int) -> None:
        self.row = row
        self.params = BNParams.on(row.ctx, delta)

    @_computed_once
    def curve(self) -> CurveClass:
        return curve_class(self.params)

    @_computed_once
    def pencil(self) -> bool:
        return exists_pencil(self.params)

    @_computed_once
    def square(self) -> Ratio:
        """q(R) as (numerator, denominator = 2h), not reduced."""
        prm = self.params
        return _square(prm.p, prm.delta, prm.k, prm.epsilon)

    @_computed_once
    def q_r(self) -> str:
        """q(R) as reduced "num/den" text, as every record prints it."""
        return ratio_str(self.square)

    @_computed_once
    def span(self) -> SpanStage:
        """The dual divisor, div(D), q(D) and the saturated span T."""
        return span_stage(self.curve, self.params.context())

    @_computed_once
    def verdict(self) -> WallVerdict:
        """The wall verdict on `span`: the least-witness search."""
        return witness_stage(self.span, self.params.epsilon)


def _oracle(verdict: WallVerdict,
            epsilon: int) -> tuple[bool, tuple[Witness, ...]] | None:
    """Whether the verdict's least witness is the first of the box
    oracle's witnesses (None when there are none), and those witnesses;
    None when there is no span (q(D) >= 0) or its box radius exceeds
    ORACLE_RADIUS_LIMIT."""
    if verdict.span is None:
        return None
    gram, v = verdict.span.gram, verdict.span.v_coords
    radius = box_radius(gram, v)
    if radius > ORACLE_RADIUS_LIMIT:
        return None
    witnesses = tuple(_box_scan(gram, v, epsilon, radius))
    return verdict.witness == (witnesses[0] if witnesses else None), witnesses


def oracle_agrees(verdict: WallVerdict, epsilon: int) -> bool | None:
    """The first half of `_oracle`: whether the box oracle agrees, or None
    where it does not run."""
    result = _oracle(verdict, epsilon)
    return None if result is None else result[0]


def _wall_square(pt: Point) -> Result:
    """Wall verdict == (q(R) < 0) wherever the pencil exists."""
    if not pt.pencil:
        return None
    is_wall = pt.verdict.is_wall
    return (is_wall == (pt.square.numerator < 0),
            '"q_R": "%s", "is_wall": %s' % (pt.q_r, _JSON_BOOL[is_wall]))


def _exists_routes(pt: Point) -> Result:
    """Direct existence bound == Brill-Noether route."""
    exists = pt.pencil
    return (exists == exists_pencil_via_rho(pt.params),
            '"exists": %s' % _JSON_BOOL[exists])


def _square_forms(pt: Point) -> Result:
    """Square formula == rho/beta rewrite, compared as integer numerators
    over 2h, and beta lies in (-h, h]."""
    prm = pt.params
    ok = (pt.square.numerator == _rewritten(prm)
          and -prm.half_div < prm.beta <= prm.half_div)
    return ok, '"q_R": "%s"' % pt.q_r


def _dual_lattice(pt: Point) -> Result:
    """q(w) and b(w, v) are the catalog's `state_gram` entries, and
    disc<v, w> matches the saturation, where q(R) < 0: so (w, v), the basis
    the catalog searches on, spans T.

    w is the catalog's `state_vector`, the closed-form complement
    (b/c)(v - e) + L - v in ambient coordinates.  With
    h = k - 1 + 2*epsilon and n = g + k - 1 + epsilon, b/c = n/(2h),
    v - e = (0, 0, -2h) and L - v = (-1, 1, h), so w = (-1, 1, h - n).
    The disc<w, v> it compares is 2h*q(R), which the catalog reads as the
    wall's square.
    """
    if pt.square.numerator >= 0:
        return None
    prm, row = pt.params, pt.row
    w = state_vector(prm.p, prm.delta, prm.k, prm.epsilon)
    qw, bwv = mukai_square(w, prm.p), mukai_pairing(w, row.v, prm.p)
    (q_stated, b_stated), _ = state_gram(prm.p, prm.delta, prm.k, prm.epsilon)
    t = pt.span.t_gram
    ok = (qw == q_stated and bwv == b_stated
          and t[0][0] * t[1][1] - t[0][1] * t[1][0]
          == qw * row.qv - bwv * bwv)
    return ok, ""


def _min_square(pt: Point) -> Result:
    """Wherever the pencil exists, q(R) equals -(k+3-2e)/2 exactly at the
    point p = a(a+1)h + e, delta = a(a-1)h (`curves._minimal_point`); on
    walls q(R) is at least that bound."""
    if not pt.pencil:
        return None
    prm, num = pt.params, pt.square.numerator
    # The bound -(k+3-2e)/2 over the square's denominator 2h.
    bound = _bound_num(prm.k, prm.epsilon) * prm.half_div
    ok = (num == bound) == _minimal_point(prm)
    if not pt.verdict.is_wall:
        return ok, '"is_wall": false'
    return ok and num >= bound, '"is_wall": true, "q_R": "%s"' % pt.q_r


def _witness_oracle(pt: Point) -> Result:
    """Least witness == box oracle's first wherever the pencil exists,
    q(R) < 0 and `_oracle` runs, the rule `wall-test --oracle` uses: the
    box radius is at most ORACLE_RADIUS_LIMIT, whatever |disc| is."""
    if not pt.pencil or pt.square.numerator >= 0:
        return None
    verdict = pt.verdict
    result = _oracle(verdict, pt.params.epsilon)
    if result is None:
        return None
    agrees, witnesses = result
    g = verdict.t_gram
    disc = g[0][0] * g[1][1] - g[0][1] * g[1][0]
    return agrees, '"disc": %d, "n_witnesses": %d' % (disc, len(witnesses))


def _moduli_dim(pt: Point) -> Result:
    """moduli_dim == q(v) + 2 where that is >= 0 (DomainError otherwise),
    and v + e, v - e are divisible by 2 and by q(v) in the rank-3 model."""
    prm = pt.params
    chi, vec = sheaf_vector(prm.p, prm.delta, prm.k, prm.epsilon)
    expected = mukai_square(vec, prm.p) + 2
    try:
        ok = moduli_dim(prm.p, prm.delta, prm.k, prm.epsilon) == expected
    except DomainError:
        ok = expected < 0
    return ok and pt.row.v_e_divisible, '"chi": %d' % chi


CHECKS = {
    "wall-square": _wall_square,
    "exists-routes": _exists_routes,
    "square-forms": _square_forms,
    "dual-lattice": _dual_lattice,
    "min-square": _min_square,
    "witness-oracle": _witness_oracle,
    "moduli-dim": _moduli_dim,
}
