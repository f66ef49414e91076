"""Acceptance gates: thirteen cross-module consistency criteria.

Each criterion sweeps its full parameter grid with exact arithmetic,
prints one PASS/FAIL gate line, and the wrapping test asserts the
expected verdict and the exact detail text of that line.  Criteria 1, 3-8
and 10 run the consistency checks of `wallkit.checks`, the same ones
`wallkit scan` runs, and keep only their own counts and pins.  Three gates
are expected to FAIL, and their failure patterns are pinned down exactly
so any drift is caught:

* Criterion 2: the delta-shifted lattice family [[2d-2+2e, h], [h, 2h]]
  taken at fixed p = 2k-2+5e matches the computed saturation only at
  d = 0; for d >= 1 the true off-diagonal is h-d.  The fixed-genus
  variant (p = 2k-2+5e+d, valid while 4d < k+3-2e) does match.
* Criterion 11: the Lagrangian-plane parameters at (k, epsilon) = (2, 1)
  give chi = 3 < 4 = 4*epsilon, so the bundle-existence bound fails at
  exactly that point and nowhere else for k <= 10.
* Criterion 13: the catalog stops at the seed p = 2k-2+5e, so for k <= 20
  it lists no wall for 65 of the isometry classes of wall lattices T that
  criterion 12 enumerates; every wall class it lists is one of them.
  A plain test, not a gate, pins per (k, epsilon) the wall pairs that the
  catalog leaves out: those beyond the seed p, and those hidden by its
  one entry per class of T.

Criterion 12 checks the paper's main claim in finite form: every wall
pair (T, v) for k <= 20, found by the box oracle, is the saturation of a
Brill-Noether curve with a pencil and q(R) < 0.

Run standalone (python3 tests/test_acceptance.py) to print all gate
lines; exit status 0 means every gate matched its expected verdict.
"""

from __future__ import annotations

import os
import random
import subprocess
import sys
from fractions import Fraction
from functools import cache
from pathlib import Path

if __name__ == "__main__":
    # Run as a script from a checkout: import the package from its source.
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from wallkit import (
    BNParams,
    DomainError,
    SurfaceContext,
    bundle_locus,
    class_id,
    curve_class,
    curve_square,
    exists_pencil,
    generate_catalog,
    lagrangian_plane,
    nodal_family_loci,
    primitive_dual_divisor,
    rank2_isometric,
    saturated_span,
    seed_lattice,
)
from wallkit.checks import CHECKS, Point, Row
from wallkit.catalog import state_gram, state_vector
from wallkit.model import moduli_dim
from wallkit.subvarieties import bundle_bound_holds, chi_value
from wallkit.walls import (
    _normal_basis,
    box_witnesses,
    enumerate_witnesses,
    span_stage,
)

EPS_RANGE = (0, 1)
K_RANGE = range(2, 9)
P_MAX = 40

GATE_LINES: list[str] = []

_EXPECTED = {
    1: (True, "wall verdict == (q(R) < 0) at all 7750 admissible grid points "
              "(446 walls), no exceptions"),
    2: (False, "fixed-p delta-shifted family matches saturation only at "
               "delta=0 (96/96 delta>=1 points differ, true off-diagonal "
               "h-delta); fixed-genus variant matches 16/16"),
    3: (True, "q(R) >= -(k+3-2e)/2 on all 446 walls; equality exactly at the "
              "31 points p=a(a+1)h+e, delta=a(a-1)h"),
    4: (True, "direct bound == Brill-Noether route at all 11466 grid points"),
    5: (True, "square formula == rho/beta rewrite and beta in (-h, h] at all "
              "11466 grid points"),
    6: (True, "q(w), b(w,v) and disc<v,w> match the saturation at all 446 "
              "negative-square points"),
    7: (True, "witness enumeration == box oracle (bit and full set) on all "
              "122 lattices with |disc| <= 200"),
    8: (True, "all 338 entries verify (56 walls, 282 flagged nonnegative); "
              "realize_gram inverts 100 samples"),
    9: (True, "all 327 nodal loci map via k' = p-5e-3d+2-r to a bundle locus "
              "with the same r and line coefficient"),
    10: (True, "moduli_dim == q(v)+2 (8232 defined of 11466 points, "
               "DomainError otherwise); half-sum integrality holds; "
               "dim M == 2e at p=2(k-1)+5e"),
    11: (False, "chi == delta+k+1 and q(R) == -(k+3-2e)/2 at all 18 points, "
                "but the bundle-existence bound fails at exactly "
                "(k, epsilon) = (2, 1) where chi = 3 < 4"),
    12: (True, "all 992 wall pairs (T, v) for k <= 20 (63 and 52 at k = 20 "
               "for epsilon = 0, 1) are the saturation of a curve with a "
               "pencil and q(R) < 0, at p <= seed p + 5"),
    13: (False, "the catalog lists no wall for 65 isometry classes of wall "
                "lattices T for k <= 20 (20 for epsilon = 0, 45 for "
                "epsilon = 1), as it stops at the seed p; every wall class "
                "it lists is one of theirs"),
}


def _line(n: int, ok: bool, detail: str) -> str:
    return f"CRITERION {n}: {'PASS' if ok else 'FAIL'} — {detail}"


def _gate(n: int, ok: bool, detail: str) -> None:
    line = _line(n, ok, detail)
    GATE_LINES.append(line)
    print(line)


def _raises_domain_error(fn) -> bool:
    try:
        fn()
    except DomainError:
        return True
    return False


@cache
def _points() -> list[Point]:
    """Every grid point, each computing its pencil, square and verdict once;
    the points of one (eps, k, p) row share its `Row`."""
    rows = [Row(eps, k, p) for eps in EPS_RANGE for k in K_RANGE
            for p in range(2, P_MAX + 1)]
    return [Point(row, delta) for row in rows
            for delta in range(0, row.ctx.p - 2 * row.ctx.epsilon + 1)]


@cache
def _grid() -> list[Point]:
    """The admissible grid points: those where the pencil exists."""
    return [pt for pt in _points() if pt.pencil]


def _applies(name: str, pt: Point) -> bool:
    """Run one shared check; it must hold wherever it applies."""
    result = CHECKS[name](pt)
    if result is not None:
        assert result[0], (name, pt.params)
    return result is not None


def _span_gram(p: int, delta: int, k: int, eps: int):
    ctx = SurfaceContext(eps, p, k)
    params = BNParams(p, delta, k, eps)
    d, _ = primitive_dual_divisor(curve_class(params), ctx)
    return saturated_span(d, ctx).gram


def _criterion_1() -> tuple[bool, str]:
    rows = _grid()
    assert all(_applies("wall-square", pt) for pt in rows)
    walls = sum(pt.verdict.is_wall for pt in rows)
    assert len(rows) == 7750 and walls == 446
    return True, (f"wall verdict == (q(R) < 0) at all {len(rows)} admissible "
                  f"grid points ({walls} walls), no exceptions")


def _criterion_2() -> tuple[bool, str]:
    # Family 1: seed at p = 2k-2+5e, delta = 0.
    for eps in EPS_RANGE:
        for k in K_RANGE:
            h = k - 1 + 2 * eps
            p0 = 2 * k - 2 + 5 * eps
            want = ((-2 + 2 * eps, h), (h, 2 * h))
            gram, p_s, d_s = seed_lattice(k, eps)
            assert tuple(map(tuple, gram)) == want and (p_s, d_s) == (p0, 0)
            assert _span_gram(p0, 0, k, eps) == want
            assert Fraction(*curve_square(BNParams(p0, 0, k, eps)).value) \
                == -Fraction(k + 3 - 2 * eps, 2)

    # Family 2: genus shifted down by a, 1 <= a <= h.
    domain_edges, degenerate_edges, f2_matched = [], [], 0
    for eps in EPS_RANGE:
        for k in K_RANGE:
            h = k - 1 + 2 * eps
            p0 = 2 * k - 2 + 5 * eps
            for a in range(1, h + 1):
                p = p0 - a
                want = ((-2 + 2 * eps, h - a), (h - a, 2 * h))
                if p < 2:
                    domain_edges.append((eps, k, a))
                    assert _raises_domain_error(lambda: BNParams(p, 0, k, eps))
                    continue
                sq = Fraction(*curve_square(BNParams(p, 0, k, eps)).value)
                if sq >= 0:
                    degenerate_edges.append((eps, k, a))
                    assert sq == 0 and (eps, a) == (1, h)
                    assert _raises_domain_error(
                        lambda: _span_gram(p, 0, k, eps))
                    continue
                assert _span_gram(p, 0, k, eps) == want, (eps, k, a)
                f2_matched += 1
    assert domain_edges == [(0, 2, 1)]
    assert degenerate_edges == [(1, k, k + 1) for k in K_RANGE]
    assert f2_matched == 62

    # Family 3, literal reading: delta shifted up at fixed p = 2k-2+5e.
    lit_zero, lit_diff, lit_same = 0, 0, []
    for eps in EPS_RANGE:
        for k in K_RANGE:
            h = k - 1 + 2 * eps
            p0 = 2 * k - 2 + 5 * eps
            for delta in range(0, min(p0 - 2 * eps, 8) + 1):
                stated = ((2 * delta - 2 + 2 * eps, h), (h, 2 * h))
                sq = Fraction(*curve_square(BNParams(p0, delta, k, eps)).value)
                actual = None if sq >= 0 else _span_gram(p0, delta, k, eps)
                if delta == 0:
                    assert actual == stated, (eps, k)
                    lit_zero += 1
                elif actual == stated:
                    lit_same.append((eps, k, delta))
                else:
                    lit_diff += 1
    assert lit_zero == 14 and lit_diff == 96 and lit_same == []
    # pinned counterexample: true saturation has off-diagonal h - delta
    assert _span_gram(6, 1, 4, 0) == ((0, 2), (2, 6))

    # Family 3, fixed-genus variant: p = 2k-2+5e+delta reproduces the
    # stated matrices while 4*delta < k+3-2e.
    corr = 0
    for eps in EPS_RANGE:
        for k in K_RANGE:
            h = k - 1 + 2 * eps
            p0 = 2 * k - 2 + 5 * eps
            delta = 1
            while 4 * delta < k + 3 - 2 * eps:
                stated = ((2 * delta - 2 + 2 * eps, h), (h, 2 * h))
                sq = curve_square(BNParams(p0 + delta, delta, k, eps)).value
                assert sq.numerator < 0
                assert _span_gram(p0 + delta, delta, k, eps) == stated
                corr += 1
                delta += 1
    assert corr == 16

    return False, ("fixed-p delta-shifted family matches saturation only at "
                   "delta=0 (96/96 delta>=1 points differ, true off-diagonal "
                   "h-delta); fixed-genus variant matches 16/16")


def _criterion_3() -> tuple[bool, str]:
    assert all(_applies("min-square", pt) for pt in _grid())
    # The check holds at every point, so q(R) meets the bound exactly at
    # the characteristic points.
    equality = sum(Fraction(*pt.square)
                   == -Fraction(pt.params.k + 3 - 2 * pt.params.epsilon, 2)
                   for pt in _grid())
    return True, (f"q(R) >= -(k+3-2e)/2 on all 446 walls; equality exactly "
                  f"at the {equality} points p=a(a+1)h+e, delta=a(a-1)h")


def _criterion_4() -> tuple[bool, str]:
    n = sum(_applies("exists-routes", pt) for pt in _points())
    return True, f"direct bound == Brill-Noether route at all {n} grid points"


def _criterion_5() -> tuple[bool, str]:
    n = sum(_applies("square-forms", pt) for pt in _points())
    return True, (f"square formula == rho/beta rewrite and beta in (-h, h] "
                  f"at all {n} grid points")


def _criterion_6() -> tuple[bool, str]:
    n = sum(_applies("dual-lattice", pt) for pt in _grid())
    assert n == 446
    return True, (f"q(w), b(w,v) and disc<v,w> match the saturation at all "
                  f"{n} negative-square points")


def _criterion_7() -> tuple[bool, str]:
    # One grid point per distinct span lattice.
    spans = {}
    for pt in _grid():
        if pt.verdict.span is not None:
            spans.setdefault((pt.params.epsilon, pt.verdict.t_gram), pt)
    pts = [pt for pt in spans.values() if _applies("witness-oracle", pt)]
    n = len(pts)
    assert n == 122
    # The check compares the least walk with the box; the x-scan's full set
    # is compared with the box here.
    for pt in pts:
        gram, v = pt.verdict.span.gram, pt.verdict.span.v_coords
        eps = pt.params.epsilon
        assert enumerate_witnesses(gram, v, eps) == box_witnesses(gram, v, eps)
    grams = [pt.verdict.t_gram for pt in pts]
    # The check has no |disc| limit of its own; the line's "|disc| <= 200"
    # is checked here (the largest on the grid is 81).
    assert max(abs(a * c - b * b) for (a, b), (_, c) in grams) == 81
    return True, (f"witness enumeration == box oracle (bit and full set) on "
                  f"all {n} lattices with |disc| <= 200")


def realize_gram(target, k: int, epsilon: int) -> tuple[int, int] | None:
    """Invert the catalog's `state_gram` [[2d - 2 + 2e, b], [b, 2h]]: the
    (p, delta) of the wall whose saturation is isometric to the target,
    verified by reconstruction; None when there is none.  Only the
    saturation is read, so no witness search runs."""
    (a, b), _ = target
    delta = (a + 2 - 2 * epsilon) // 2
    p = b + delta + k - 1 + 3 * epsilon
    if delta < 0 or p < 2 or delta > p - 2 * epsilon:
        return None
    params = BNParams(p, delta, k, epsilon)
    if not exists_pencil(params) or curve_square(params).value.numerator >= 0:
        return None
    gram = span_stage(curve_class(params), params.context()).t_gram
    return (p, delta) if rank2_isometric(gram, target) else None


def _criterion_8() -> tuple[bool, str]:
    pool, flagged, total = [], 0, 0
    for eps in EPS_RANGE:
        for k in range(2, 7):
            for e in generate_catalog(k, eps):
                total += 1
                if e.q_curve.numerator < 0:
                    assert e.is_wall and e.witness is not None
                    assert _applies("dual-lattice",
                                    Point(Row(eps, k, e.p), e.delta))
                    assert realize_gram(e.gram, k, eps) == (e.p, e.delta)
                    pool.append(e)
                else:
                    flagged += 1
                    assert not e.is_wall and e.witness is None
    assert (total, len(pool), flagged) == (338, 56, 282)
    rng = random.Random(20260825)
    for e in (rng.choice(pool) for _ in range(100)):
        assert realize_gram(e.gram, e.k, e.epsilon) == (e.p, e.delta)
    return True, (f"all {total} entries verify ({len(pool)} walls, {flagged} "
                  f"flagged nonnegative); realize_gram inverts 100 samples")


def _criterion_9() -> tuple[bool, str]:
    n = 0
    for eps in EPS_RANGE:
        for k in K_RANGE:
            for p in range(2, P_MAX + 1):
                for r, delta, desc in nodal_family_loci(p, k, eps):
                    kp = p - 5 * eps - 3 * delta + 2 - r
                    assert desc.k_prime == kp
                    target = bundle_locus(p, delta, kp, eps)
                    assert target is not None, (eps, k, p, r, delta)
                    assert chi_value(p, delta, kp, eps) - 2 * delta - 1 == r
                    assert target.codim == r
                    coeff = -desc.line_class.r
                    assert -target.line_class.r == coeff
                    assert coeff == p - delta + kp - 1 + eps
                    assert coeff == 2 * (p - 2 * delta - 2 * eps) - r + 1
                    n += 1
    assert n == 327
    return True, (f"all {n} nodal loci map via k' = p-5e-3d+2-r to a bundle "
                  f"locus with the same r and line coefficient")


def _criterion_10() -> tuple[bool, str]:
    points = _points()
    assert all(_applies("moduli-dim", pt) for pt in points)
    defined = 0
    for pt in points:
        prm = pt.params
        defined += not _raises_domain_error(
            lambda: moduli_dim(prm.p, prm.delta, prm.k, prm.epsilon))
    for eps in EPS_RANGE:
        for k in K_RANGE:
            assert moduli_dim(2 * (k - 1) + 5 * eps, 0, k, eps) == 2 * eps
    return True, (f"moduli_dim == q(v)+2 ({defined} defined of {len(points)} "
                  f"points, DomainError otherwise); half-sum integrality "
                  f"holds; dim M == 2e at p=2(k-1)+5e")


def _criterion_11() -> tuple[bool, str]:
    failures = []
    for eps in EPS_RANGE:
        for k in range(2, 11):
            p, delta, desc = lagrangian_plane(k, eps)
            chi = chi_value(p, delta, k, eps)
            assert chi == delta + k + 1, (k, eps)
            assert (Fraction(*desc.line_square)
                    == Fraction(-(k + 3 - 2 * eps), 2))
            assert (desc.codim, desc.total_dim) == (k, k)
            if not bundle_bound_holds(p, delta, k, eps):
                failures.append((k, eps))
    assert failures == [(2, 1)]
    assert chi_value(*lagrangian_plane(2, 1)[:2], 2, 1) == 3  # < 4 = 4*eps
    return False, ("chi == delta+k+1 and q(R) == -(k+3-2e)/2 at all 18 "
                   "points, but the bundle-existence bound fails at exactly "
                   "(k, epsilon) = (2, 1) where chi = 3 < 4")


@cache
def _wall_pairs(k: int, eps: int) -> frozenset:
    """Every wall pair (T, v) at (k, epsilon) in its normal form: the even
    grams [[a, b], [b, 2h]] with 0 <= b <= h and det < 0 that have a
    witness, as the box oracle finds it.  A witness s spans with v a
    sublattice of T, so |det T| <= n^2 - q(s)*q(v) with n = b(s, v); case
    (i) bounds this by ((q(v) - q(s))/2)^2 <= h^2, case (ii) by h^2 + 4h."""
    h = k - 1 + 2 * eps
    pairs = set()
    for b in range(h + 1):
        # a*2h - b^2 = det lies in [-(h^2 + 4h), -1], and a is even.
        lo = -((h * h + 4 * h - b * b) // (2 * h))
        for a in range(lo + lo % 2, (b * b - 1) // (2 * h) + 1, 2):
            gram = ((a, b), (b, 2 * h))
            if box_witnesses(gram, (0, 1), eps):
                pairs.add(gram)
    return frozenset(pairs)


def _criterion_12() -> tuple[bool, str]:
    # Each (p, delta) with a pencil and q(R) < 0 realises its saturation;
    # p runs up from 2 until every pair is realised, or past seed p + 10.
    counts, missing, reach = {}, 0, 0
    for eps in EPS_RANGE:
        for k in range(2, 21):
            todo = set(_wall_pairs(k, eps))
            counts[eps, k] = len(todo)
            seed_p = 2 * k - 2 + 5 * eps
            for p in range(2, seed_p + 11):
                row = Row(eps, k, p)
                for delta in range(p - 2 * eps + 1):
                    pt = Point(row, delta)
                    if pt.pencil and pt.square.numerator < 0:
                        todo.discard(pt.span.t_gram)
                if not todo:
                    reach = max(reach, p - seed_p)
                    break
            missing += len(todo)
    total = sum(counts.values())
    assert (total, counts[0, 20], counts[1, 20]) == (992, 63, 52)
    if missing:
        return False, (f"{missing} of {total} wall pairs (T, v) for k <= 20 "
                       f"are the saturation of no curve with a pencil and "
                       f"q(R) < 0 at p <= seed p + 10")
    return True, (f"all {total} wall pairs (T, v) for k <= 20 (63 and 52 at "
                  f"k = 20 for epsilon = 0, 1) are the saturation of a curve "
                  f"with a pencil and q(R) < 0, at p <= seed p + {reach}")


def _criterion_13() -> tuple[bool, str]:
    # The classes of T among criterion 12's wall pairs, which the box
    # oracle finds, against the classes the catalog lists a wall for.
    missing, extra = {}, 0
    for eps in EPS_RANGE:
        for k in range(2, 21):
            pairs = {class_id(gram) for gram in _wall_pairs(k, eps)}
            listed = {e.class_id for e in generate_catalog(k, eps)
                      if e.is_wall}
            missing[eps, k] = len(pairs - listed)
            extra += len(listed - pairs)
    by_eps = [[missing[eps, k] for k in range(2, 21)] for eps in EPS_RANGE]
    assert extra == 0
    assert by_eps == [[2] + [1] * 18,
                      [0, 0] + [1] * 4 + [2] * 4 + [3] * 4 + [4] * 4 + [5]]
    if not any(missing.values()):
        return True, ("the catalog lists a wall for every isometry class of "
                      "wall lattices T for k <= 20")
    return False, (f"the catalog lists no wall for {sum(map(sum, by_eps))} "
                   f"isometry classes of wall lattices T for k <= 20 "
                   f"({sum(by_eps[0])} for epsilon = 0, {sum(by_eps[1])} for "
                   f"epsilon = 1), as it stops at the seed p; every wall "
                   f"class it lists is one of theirs")


# The wall pairs (T, v) per k = 2..20 (criterion 12's) that the catalog
# lists no entry for, by epsilon: hidden, those that a state with
# p <= seed p realises, but whose class of T the catalog lists at another
# pair; beyond, those that no such state realises (criterion 13 counts
# their classes).
_CATALOG_GAPS = {
    0: ([0, 0, 0, 0, 0, 1, 0, 0, 0, 3, 0, 5, 0, 4, 7, 0, 0, 5, 0],
        [2] + [1] * 18),
    1: ([0, 0, 0, 1, 0, 0, 0, 2, 0, 3, 0, 2, 3, 0, 0, 3, 0, 5, 5],
        [0, 0] + [1] * 4 + [2] * 4 + [3] * 4 + [4] * 4 + [5]),
}


def _state_pair(p: int, delta: int, k: int, eps: int):
    """The normal form of the pair (T, v) that the catalog state at
    (p, delta) realises, where q(R) < 0, or None: the state's basis
    reduced by `_normal_basis`."""
    (a, b), (_, c) = state_gram(p, delta, k, eps)
    if a * c - b * b >= 0:
        return None
    q_w, b_w, _ = _normal_basis(state_vector(p, delta, k, eps), a, c // 2)
    return (q_w, b_w), (b_w, c)


def test_catalog_leaves_out_hidden_and_beyond_seed_wall_pairs():
    # The catalog lists the states reachable from the seed (p <= seed p),
    # one per isometry class of T.
    for eps in EPS_RANGE:
        hidden, beyond = [], []
        for k in range(2, 21):
            seed_p = 2 * k - 2 + 5 * eps
            reached = {_state_pair(p, delta, k, eps)
                       for p in range(2, seed_p + 1)
                       for delta in range(p - 2 * eps + 1)} - {None}
            listed = {_state_pair(e.p, e.delta, k, eps)
                      for e in generate_catalog(k, eps) if e.is_wall}
            pairs = _wall_pairs(k, eps)
            assert listed <= reached <= pairs
            ids = {class_id(gram) for gram in listed}
            assert len(ids) == len(listed)
            assert {class_id(gram) for gram in reached - listed} <= ids
            # Each pair beyond the seed p is a class of T of its own that
            # the catalog does not list.
            far = {class_id(gram) for gram in pairs - reached}
            assert len(far) == len(pairs - reached) and not far & ids
            hidden.append(len(reached - listed))
            beyond.append(len(far))
        assert (hidden, beyond) == _CATALOG_GAPS[eps]


def _verdict(n: int) -> tuple[bool, str]:
    ok, detail = globals()[f"_criterion_{n}"]()
    _gate(n, ok, detail)
    return ok, detail


def test_criterion_01_flagship_equivalence():
    assert _verdict(1) == _EXPECTED[1]


def test_criterion_02_lattice_families():
    assert _verdict(2) == _EXPECTED[2]


def test_criterion_03_minimal_square_bound():
    assert _verdict(3) == _EXPECTED[3]


def test_criterion_04_existence_routes():
    assert _verdict(4) == _EXPECTED[4]


def test_criterion_05_square_rewrite():
    assert _verdict(5) == _EXPECTED[5]


def test_criterion_06_span_basis_identities():
    assert _verdict(6) == _EXPECTED[6]


def test_criterion_07_witness_oracle():
    assert _verdict(7) == _EXPECTED[7]


def test_criterion_08_catalog_round_trip():
    assert _verdict(8) == _EXPECTED[8]


def test_criterion_09_nodal_bundle_mapping():
    assert _verdict(9) == _EXPECTED[9]


def test_criterion_10_moduli_consistency():
    assert _verdict(10) == _EXPECTED[10]


def test_criterion_11_lagrangian_detection():
    assert _verdict(11) == _EXPECTED[11]


def test_criterion_12_wall_pairs_realised():
    assert _verdict(12) == _EXPECTED[12]


def test_criterion_13_catalog_wall_classes():
    assert _verdict(13) == _EXPECTED[13]


def test_standalone_run_prints_the_gate_lines():
    # As the README documents it: from the repo root, with no PYTHONPATH.
    root = Path(__file__).resolve().parent.parent
    env = {name: value for name, value in os.environ.items()
           if name != "PYTHONPATH"}
    env.update(PYTHONDONTWRITEBYTECODE="1", PYTHONIOENCODING="utf-8")
    run = subprocess.run([sys.executable, "tests/test_acceptance.py"],
                         cwd=root, env=env, capture_output=True,
                         encoding="utf-8", timeout=120)
    assert run.returncode == 0, run.stderr
    assert run.stdout == "".join(f"{_line(n, *_EXPECTED[n])}\n"
                                 for n in sorted(_EXPECTED))


def _run_all() -> int:
    status = 0
    for n in sorted(_EXPECTED):
        try:
            result = _verdict(n)
        except Exception as exc:
            result = False, f"internal error: {exc!r}"
            _gate(n, *result)
        status |= result != _EXPECTED[n]
    return status


if __name__ == "__main__":
    raise SystemExit(_run_all())
