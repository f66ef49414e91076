"""Unit tests for saturation, witness enumeration, and wall verdicts."""

from __future__ import annotations

import math
import random
from fractions import Fraction
from itertools import product
from math import gcd, isqrt
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from wallkit import walls
from wallkit.binforms import canonical_form
from wallkit.checks import _oracle, oracle_agrees
from wallkit.curves import BNParams, curve_class
from wallkit.model import (
    CurveClass,
    DivisorClass,
    DomainError,
    SurfaceContext,
    divisor_divisibility,
    moduli_vector,
    mukai_pairing,
)
from wallkit.walls import (
    SpanLattice,
    Witness,
    box_radius,
    box_witnesses,
    enumerate_witnesses,
    primitive_dual_divisor,
    primitive_integral_divisor,
    saturated_span,
    span_stage,
    witness_stage,
)


def wall_test(obj, ctx):
    """The wall decision as the CLI runs it: span stage, then witness stage."""
    return witness_stage(span_stage(obj, ctx), ctx.epsilon)


def _coords(ws):
    return {w.coords for w in ws}


def test_witnesses_fixed_case_ii_lattice():
    gram = [[2, 1], [1, -2]]
    ws = enumerate_witnesses(gram, (1, 0), 0)
    assert _coords(ws) == {(0, 1), (1, -1)}
    assert all(w.branch == "case_ii" and w.q == -2 and w.b == 1 for w in ws)
    assert ws[0].coords == (0, 1)
    # the same lattice carries no witnesses on an abelian-type surface
    assert enumerate_witnesses(gram, (1, 0), 1) == []


def test_witnesses_fixed_case_i_lattice():
    gram = [[0, 3], [3, 6]]
    ws = enumerate_witnesses(gram, (0, 1), 1)
    assert _coords(ws) == {(1, 0), (-1, 1)}
    assert all(w.branch == "case_i" and w.q == 0 and w.b == 3 for w in ws)
    assert ws[0].coords == (-1, 1)


def test_witnesses_fixed_empty_lattice():
    gram = [[2, 0], [0, -2]]
    assert enumerate_witnesses(gram, (1, 0), 1) == []
    ws = enumerate_witnesses(gram, (1, 0), 0)
    assert _coords(ws) == {(0, 1), (0, -1)}
    assert all(w.branch == "case_ii" and w.b == 0 for w in ws)


def test_witness_enumeration_requires_hyperbolic_lattice():
    with pytest.raises(DomainError):
        enumerate_witnesses([[2, 0], [0, 2]], (1, 0), 0)
    with pytest.raises(DomainError):
        enumerate_witnesses([[-2, 0], [0, -2]], (1, 0), 0)
    with pytest.raises(DomainError):
        enumerate_witnesses([[-2, 0], [0, 2]], (1, 0), 0)  # q(v) < 0


def test_witness_functions_reject_malformed_grams():
    # A gram is a symmetric 2x2 matrix: an asymmetric one would give
    # "witnesses" of no lattice, and extra entries would be ignored.
    for gram in ([[2, 1], [0, -2]], [[2, 1, 9], [1, -2, 9]],
                 [[2, 1], [1, -2], [0, 0]], [[2], [1, -2]]):
        for search in (enumerate_witnesses, box_witnesses):
            with pytest.raises(DomainError, match="symmetric 2x2"):
                search(gram, (1, 0), 0)
        with pytest.raises(DomainError, match="symmetric 2x2"):
            box_radius(gram, (1, 0))
    # The symmetric gram next to the first one has its two witnesses.
    assert len(enumerate_witnesses([[2, 1], [1, -2]], (1, 0), 0)) == 2


# One input rule for the three witness functions: gram entries and v are
# ints (a bool is one), v is a pair, and v is primitive, which the basis
# completion (w, v) of `enumerate_witnesses` needs.  The two searches also
# take epsilon by the package's one epsilon rule (`SurfaceContext`'s): an
# int, 0 or 1, so no epsilon is searched as another.  A row whose epsilon
# is at fault gives (epsilon, message) as its match; the others search
# with epsilon = 0.  `box_radius` takes no epsilon, so it refuses only the
# others.
_EPSILON_GRAM, _EPSILON_V = [[-2, 0], [0, 2]], (0, 1)
_MALFORMED = (
    ([[2.0, 1], [1, -2]], (1, 0), r"gram\[0\]\[0\] must be an integer"),
    ([[2, 1], [1, -2]], (1.0, 0), r"v\[0\] must be an integer"),
    ([[2, 1], [1, -2]], (1, 0, 0), "must be a pair"),
    ([[2, 1], [1, -2]], (2, 0), "must be primitive"),
    # A dict, a set, a str or bytes of length 2 is no pair.
    ([[2, 1], [1, -2]], {0, 1},
     "^distinguished vector must be a pair, got set$"),
    ([[2, 1], [1, -2]], {0: "a", 1: "b"}, "must be a pair, got dict$"),
    ([[2, 1], [1, -2]], "01", "must be a pair, got str$"),
    ({0: (1, 2), 1: (2, 3)}, (0, 1), "^gram must be a symmetric 2x2 matrix$"),
    ([b"\x02\x01", b"\x01\x02"], (0, 1), "symmetric 2x2"),
    *(pytest.param(_EPSILON_GRAM, _EPSILON_V, (epsilon, f"^epsilon {rule}$"),
                   id=f"epsilon={epsilon!r}")
      for epsilon, rule in ((2, r"must be 0 or 1 \(got 2\)"),
                            (-1, r"must be 0 or 1 \(got -1\)"),
                            ("x", r"must be an integer \(got str\)"),
                            (None, r"must be an integer \(got NoneType\)"),
                            (0.0, r"must be an integer \(got float\)"))),
)


@pytest.mark.parametrize("gram, v, match", _MALFORMED)
def test_witness_functions_reject_malformed_inputs(gram, v, match):
    bad_epsilon = isinstance(match, tuple)
    epsilon, match = match if bad_epsilon else (0, match)
    for search in (enumerate_witnesses, box_witnesses):
        with pytest.raises(DomainError, match=match) as info:
            search(gram, v, epsilon)
        assert len(str(info.value)) < 200
    if not bad_epsilon:
        with pytest.raises(DomainError, match=match):
            box_radius(gram, v)


def test_epsilon_rows_search_a_case_ii_lattice():
    # The gram and v of the epsilon rows above have the case (ii)
    # witnesses (+-1, 0) at epsilon = 0 and no witness at epsilon = 1.
    case_ii = [Witness((-1, 0), -2, 0, "case_ii"),
               Witness((1, 0), -2, 0, "case_ii")]
    for search in (enumerate_witnesses, box_witnesses):
        assert search(_EPSILON_GRAM, _EPSILON_V, 0) == case_ii
        assert search(_EPSILON_GRAM, _EPSILON_V, 1) == []
        assert search(_EPSILON_GRAM, _EPSILON_V, True) == []


def test_witness_functions_take_bools_as_ints():
    gram = [[2, 1], [1, -2]]
    assert (enumerate_witnesses([[2, True], [True, -2]], (True, False), 0)
            == enumerate_witnesses(gram, (1, 0), 0)
            == box_witnesses(gram, (True, 0), 0))


def test_box_witnesses_checks_its_gram_once():
    calls = []
    check = walls._check_span_signature

    def recording(gram, v):
        calls.append((gram, v))
        return check(gram, v)

    with mock.patch.object(walls, "_check_span_signature", recording):
        for gram, v in (([[2, 1], [1, -2]], (1, 0)),
                        ([[0, 3], [3, 6]], (0, 1))):
            calls.clear()
            assert box_witnesses(gram, v, 0)
            assert calls == [(gram, v)]


def test_witness_search_set_up_is_pinned():
    # The least-witness search takes the span's three integers: one xgcd
    # (the lines' residues) and no gram check.  enumerate_witnesses checks
    # its input once and takes one xgcd, the basis completion; its x-scan
    # needs none.
    counted = {"xgcd": 0, "_check_span_signature": 0}

    def counting(name):
        fn = getattr(walls, name)

        def wrapper(*args):
            counted[name] += 1
            return fn(*args)
        return wrapper

    span = span_stage(DivisorClass(2, -3), SurfaceContext(0, 2, 2)).span
    with mock.patch.object(walls, "xgcd", counting("xgcd")), \
            mock.patch.object(walls, "_check_span_signature",
                              counting("_check_span_signature")):
        (a, b), (_, c) = span.gram
        witness, _ = walls._least_witness_of(a, b, c, span.w, 0)
        assert witness is not None
        assert counted == {"xgcd": 1, "_check_span_signature": 0}
        counted.update(xgcd=0)
        assert enumerate_witnesses(span.gram, (0, 1), 0)[0] == witness
        assert counted == {"xgcd": 1, "_check_span_signature": 1}


def test_span_lattice_is_its_gram_and_w():
    # A span is its normal basis (w, v): v is always (0, 1), a constant of
    # the class, not a field a caller could move.
    assert SpanLattice._fields == ("gram", "w")
    span = saturated_span(DivisorClass(2, -3), SurfaceContext(0, 2, 2))
    assert span.v_coords == SpanLattice.v_coords == (0, 1)
    with pytest.raises(ValueError):
        span._replace(v_coords=(1, 0))


def test_witness_walk_rejects_what_it_cannot_search():
    for a, b, c in ((2, 0, 2), (2, 2, 2), (-2, 0, -2), (2, 1, -2)):
        with pytest.raises(DomainError, match="det < 0 < q\\(v\\)"):
            walls._witness_walk(a, b, c, 0)


def test_witness_order_is_sorted():
    grams = ([[2, 1], [1, -2]], [[0, 3], [3, 6]], [[-2, 1], [1, 2]],
             [[-4, 1], [1, 6]], [[0, 2], [2, 6]])
    for gram in grams:
        for eps in (0, 1):
            for v in ((0, 1), (1, 0), (1, 1)):
                qv = sum(v[i] * gram[i][j] * v[j]
                         for i in range(2) for j in range(2))
                if qv <= 0:
                    continue
                ws = enumerate_witnesses(gram, v, eps)
                assert ws == sorted(ws, key=Witness.sort_key)


def test_box_oracle_agrees_on_small_lattices():
    # every hyperbolic gram with small entries and every admissible v
    count = 0
    for a in range(-6, 3, 2):
        for b in range(0, 5):
            for c in range(2, 9, 2):
                gram = [[a, b], [b, c]]
                if a * c - b * b >= 0:
                    continue
                for v in ((0, 1), (1, 1), (1, 2)):
                    qv = a * v[0] * v[0] + 2 * b * v[0] * v[1] + c * v[1] * v[1]
                    if qv <= 0:
                        continue
                    for eps in (0, 1):
                        fast = enumerate_witnesses(gram, v, eps)
                        slow = box_witnesses(gram, v, eps)
                        assert fast == slow, (gram, v, eps)
                        count += 1
    assert count >= 150


def test_box_radius_is_saturating():
    # a box larger than box_radius finds nothing new
    for gram, v in (([[2, 1], [1, -2]], (1, 0)),
                    ([[0, 3], [3, 6]], (0, 1)),
                    ([[-2, 1], [1, 2]], (0, 1))):
        assert box_radius(gram, v) < 25
        for eps in (0, 1):
            base = box_witnesses(gram, v, eps)
            assert _reference_box(gram, v, eps, 25) == base


# (gram, v, largest max-norm of a witness); epsilon = 0 throughout.  In all
# but the fourth a case (ii) witness lies exactly on box_radius.  The first
# two need the |v_i| term, at coordinate 0 and 1 respectively, and the third
# the + 8 of (q(v) + 8)/4.  The fourth lies inside the bound but needs the
# u_i^2 term.  The last two need (q(v) + 8)/4 exactly, with u_i^2 = 4, at
# coordinate 0 and 1: with q(v) + 7 or a divisor 5 the radius falls to 2.
# A smaller radius misses a witness on one of them; a larger one changes
# nothing, so no test can tell it apart.
_RADIUS_PINS = (
    ([[2, -3], [-3, 2]], (1, 0), 2),
    ([[2, -3], [-3, 2]], (0, 1), 2),
    ([[0, 1], [1, 2]], (0, 1), 2),
    ([[1, -4], [-4, 14]], (1, 0), 4),
    ([[2, -5], [-5, 10]], (0, 1), 3),
    ([[10, -5], [-5, 2]], (1, 0), 3),
)


@pytest.mark.parametrize("gram, v, reach", _RADIUS_PINS)
def test_box_radius_holds_the_witnesses_that_reach_it(gram, v, reach):
    full = enumerate_witnesses(gram, v, 0)
    assert max(max(map(abs, w.coords)) for w in full) == reach
    assert box_witnesses(gram, v, 0) == full


@st.composite
def _hyperbolic_normal_forms(draw):
    """Even grams [[a, b], [b, 2h]] with h <= 30, 0 <= b <= h and det < 0,
    with |det| up to about twice h^2 + 4h."""
    h = draw(st.integers(1, 30))
    b = draw(st.integers(0, h))
    # a = 2j with det = 4hj - b^2 in [-(2h^2 + 8h) - 4h, -1].
    j_lo = -((2 * h * h + 8 * h - b * b) // (4 * h)) - 1
    j = draw(st.integers(j_lo, (b * b - 1) // (4 * h)))
    return ((2 * j, b), (b, 2 * h))


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(_hyperbolic_normal_forms(), st.integers(0, 1))
@example(((-2, 2), (2, 4)), 0)  # |det| = 12 = h^2 + 4h, a case (ii) wall
@example(((-4, 2), (2, 4)), 0)  # one step of a past it: |det| = 20
def test_a_witness_bounds_the_determinant(gram, epsilon):
    # A witness s spans with v a sublattice of T, so
    # |det T| <= n^2 - q(s)*q(v) with n = b(s, v): at most h^2 in case (i)
    # and h^2 + 4h in case (ii).  Gate 12's `_wall_pairs` enumerates the
    # wall pairs up to this bound, so it is complete only if this holds.
    (a, b), (_, c) = gram
    h, det = c // 2, a * c - b * b
    assert det < 0 and 0 <= b <= h
    if box_witnesses(gram, (0, 1), epsilon):
        assert -det <= h * h + 4 * h, (gram, epsilon)


def test_the_determinant_bound_is_sharp():
    # The bound h^2 + 4h is reached by a case (ii) wall at h = 2; the next a
    # below it gives no wall.
    assert {w.branch for w in box_witnesses(((-2, 2), (2, 4)), (0, 1), 0)} \
        == {"case_ii"}
    assert box_witnesses(((-4, 2), (2, 4)), (0, 1), 0) == []


def _reference_box(gram, v, epsilon, radius):
    """The box oracle as a plain double loop over [-radius, radius]^2, kept
    only as the reference for box_witnesses."""
    def q(s):
        return (gram[0][0] * s[0] + 2 * gram[0][1] * s[1]) * s[0] \
            + gram[1][1] * s[1] * s[1]

    def branch(qs, n, qv):
        if 0 <= qs < n and 2 * n <= qv + qs:
            return "case_i"
        if epsilon == 0 and qs == -2 and 0 <= 2 * n <= qv:
            return "case_ii"
        return None

    qv = q(v)
    c = (gram[0][0] * v[0] + gram[0][1] * v[1],
         gram[1][0] * v[0] + gram[1][1] * v[1])
    found = []
    for x in range(-radius, radius + 1):
        for y in range(-radius, radius + 1):
            qs, n = q((x, y)), c[0] * x + c[1] * y
            if (kind := branch(qs, n, qv)) is not None:
                found.append(Witness((x, y), qs, n, kind))
    found.sort(key=Witness.sort_key)
    return found


@st.composite
def _hyperbolic_spans(draw):
    """A hyperbolic gram with v = (0, 1) or (1, 0) of positive square."""
    v = draw(st.sampled_from([(0, 1), (1, 0)]))
    qv = draw(st.integers(1, 60))
    b = draw(st.integers(-qv, qv))
    # q(w) >= -2 and small is where w, or v - w, tends to be a witness.
    qw = draw((st.integers(-2, qv) | st.integers(-qv * qv, qv))
              .filter(lambda q: q * qv < b * b))
    a, c = (qw, qv) if v == (0, 1) else (qv, qw)
    return [[a, b], [b, c]], v


@settings(derandomize=True, database=None, deadline=None, max_examples=150)
@given(_hyperbolic_spans(), st.integers(0, 40), st.integers(0, 1))
def test_box_witnesses_match_the_reference_loop(span, radius, eps):
    gram, v = span
    full = enumerate_witnesses(gram, v, eps)
    # The drawn radius, and every radius that puts a witness on the border.
    radii = {radius} | {max(map(abs, w.coords)) for w in full}
    for r in sorted(r for r in radii if r <= 40):
        assert (_reference_box(gram, v, eps, r)
                == [w for w in full if max(map(abs, w.coords)) <= r])
    r = box_radius(gram, v)
    if r <= 40:
        assert box_witnesses(gram, v, eps) == _reference_box(
            gram, v, eps, r) == full


def _euclid(a, b):
    """(g, x, y) with a*x + b*y = g = gcd(a, b) >= 0: the extended
    Euclidean algorithm, kept here so the reference walk takes no step
    from the package."""
    x0, y0, x1, y1 = 1, 0, 0, 1
    while b:
        quot, a, b = a // b, b, a % b
        x0, y0, x1, y1 = x1, y1, x0 - quot * x1, y0 - quot * y1
    return (a, x0, y0) if a >= 0 else (-a, -x0, -y0)


def _reference_walk(gram, v, epsilon):
    """The sorted witnesses, from an independent frame: every line
    b(s, v) = n, 0 < n < q(v) for case (i) and 0 <= n <= q(v)/2 for case
    (ii), walked along the primitive u spanning v-perp from one particular
    solution per line.  q on a line is a downward parabola in t, whose
    padded range of t with q >= the window's lower end is scanned, and the
    witnesses get one global sort.  It shares no step with the package's
    least walk or x-scan, and is kept only as their reference."""
    def q(s):
        return (gram[0][0] * s[0] + 2 * gram[0][1] * s[1]) * s[0] \
            + gram[1][1] * s[1] * s[1]

    def ts_with_q_at_least(qu, b0, q0, lo):
        disc = b0 * b0 - qu * (q0 - lo)
        if disc < 0:
            return range(0)
        r = isqrt(disc)
        return range((-b0 + r) // qu - 2, (-b0 - r) // qu + 3)

    qv = q(v)
    c = (gram[0][0] * v[0] + gram[0][1] * v[1],
         gram[1][0] * v[0] + gram[1][1] * v[1])
    d, x0, y0 = _euclid(c[0], c[1])
    u = (-(c[1] // d), c[0] // d)
    qu = q(u)
    found = []
    # Only the multiples n of d are values of b(-, v).
    windows = [(n, max(0, 2 * n - qv), n - 1, "case_i")
               for n in range(d, qv, d)]
    if epsilon == 0:
        windows += [(n, -2, -2, "case_ii") for n in range(0, qv // 2 + 1, d)]
    for n, lo, hi, branch in windows:
        s0 = (x0 * (n // d), y0 * (n // d))
        b0 = sum(s0[i] * gram[i][j] * u[j] for i in range(2) for j in range(2))
        q0 = q(s0)
        for t in ts_with_q_at_least(qu, b0, q0, lo):
            qs = qu * t * t + 2 * b0 * t + q0
            if lo <= qs <= hi:
                s = (s0[0] + t * u[0], s0[1] + t * u[1])
                found.append(Witness(s, qs, n, branch))
    found.sort(key=Witness.sort_key)
    return found


# For each v, a unimodular Q with Q*v = (0, 1): the gram Q^T G0 Q in the new
# coordinates carries the (w, v)-basis gram G0 with v at the given coords.
_TO_V = {(0, 1): ((1, 0), (0, 1)), (1, 0): ((0, 1), (1, 0)),
         (1, 1): ((1, -1), (0, 1)), (1, 2): ((2, -1), (1, 0))}


@st.composite
def _large_spans(draw):
    """A hyperbolic gram with q(v) <= 1e4 and v in (0,1)/(1,0)/(1,1)/(1,2);
    a factor of d = gcd(b(-, v)) is drawn first, so that d > 1 is common."""
    v = draw(st.sampled_from(sorted(_TO_V)))
    d = draw(st.sampled_from([1, 2, 3, 4, 6, 12]) | st.integers(2, 100))
    qv = d * draw(st.integers(1, 10**4 // d))
    b = d * draw(st.integers(-(qv // d), qv // d))
    qw = draw((st.integers(-2, 2 * qv) | st.integers(-qv * qv, qv))
              .filter(lambda q: q * qv < b * b))
    g0, q = ((qw, b), (b, qv)), _TO_V[v]
    gram = [[sum(q[a][i] * g0[a][c] * q[c][j] for a in range(2)
                 for c in range(2)) for j in range(2)] for i in range(2)]
    return gram, v


@st.composite
def _normal_spans(draw):
    """A normal-form gram [[a, b], [b, c]] with v = (0, 1), det < 0 and
    c = q(v) up to 1e12.  A factor d <= 1e9 of b and c is drawn first,
    with at most 1000 lines c/d, so the reference walks few lines.
    D = b^2 - ac is at least (c/1000)^2, so a witness's
    |x| <= sqrt((c^2 + 8c)/4D) leaves few of them; D is drawn either near
    that floor or anywhere up to c^2/4 + 2c, past which no witness
    exists."""
    lines = draw(st.integers(1, 1000))
    d = draw(st.integers(1, 12) | st.integers(1, 10**9)
             | st.integers(1, 10).map(lambda f: f * 10**8))
    c = d * lines
    b = d * draw(st.integers(-lines, lines))
    least = max(1, (c // 1000) ** 2)
    disc = draw(st.integers(least, least + 4 * c)
                | st.integers(least, max(least, c * c // 4 + 2 * c)))
    a = (b * b - disc) // c
    return ((a, b), (b, c)), (0, 1)


# The walk's per-line test is D*rho^2 <= n^2 (case (i)) or <= n^2 + 2c
# (case (ii)), with rho the distance from 0 to the nearest x on line n.
@settings(derandomize=True, database=None, deadline=None, max_examples=150)
@given(_normal_spans(), st.integers(0, 1))
# D*rho^2 = n^2 on line 1: one point, at q = 0, the window's lower end.
@example((((2, -3), (-3, 4)), (0, 1)), 0)    # D = 1
# D*rho^2 = n^2 + 2c on line 1: a case (ii) point, D = 9.
@example((((0, -3), (-3, 4)), (0, 1)), 0)
# Line n = 1 just misses: D*rho^2 = 3 > 1 in case (i), and D*rho^2 = 7 > 5
# in case (ii).
@example((((-1, -1), (-1, 2)), (0, 1)), 1)
@example((((-3, -1), (-1, 2)), (0, 1)), 0)
# b < 0: the least point is x = -1 on line 1.
@example((((0, -1), (-1, 4)), (0, 1)), 1)    # case (i), D = 1
@example((((-2, -1), (-1, 4)), (0, 1)), 0)   # case (ii), D = 9
# rho = 0 on line n = 0 only, where q = 0 is no witness; x1 = -5.
@example((((2, -5), (-5, 12)), (0, 1)), 0)
# D = 9, a square; the least point, x = 1 on line 5, has q = 1 > 0.
@example((((1, 5), (5, 16)), (0, 1)), 0)
# A tie at both ends of line 5: x = -1 and x = 1 have q = 0; -1 is least.
@example((((0, -5), (-5, 10)), (0, 1)), 0)
# D = 1 <= 16 at q(v) = 40.
@example((((0, 1), (1, 40)), (0, 1)), 0)
# Only case (ii) witnesses, the least on the last line n = q(v)/2 = 15.
@example((((-2, 15), (15, 30)), (0, 1)), 0)
# A near wall: D = 7 < q(v) = 9, so -1 < q(R) = -D/q(v) < 0.
@example((((1, 4), (4, 9)), (0, 1)), 1)
# d = gcd(b, q(v)) = 2: the lines n = 2, 4, 6; the least is on n = 4.
@example((((6, -10), (-10, 14)), (0, 1)), 0)
# The walk's residue r = m*x1 mod q(v)/d, stepped by one addition per line.
# b = q(v): the period q(v)/d is 1, so r stays 0; no case (i) line, and the
# case (ii) line n = 0 holds the least witness, x = -1.
@example((((4, 6), (6, 6)), (0, 1)), 0)
# b = 0, epsilon = 0: the least witness is the case (ii) one on line n = 0.
@example((((-2, 0), (0, 6)), (0, 1)), 0)
# x1 = -1 (mod 10): r wraps on every line but the first; a non-wall, so
# both ranges are walked to their ends.
@example((((-3, 9), (9, 10)), (0, 1)), 0)
# The period is 2 and r = 1 on line n = 5: r + r = period, the fold's tie,
# on the line of the least witness, x = -1 with q = 0.
@example((((0, 5), (5, 10)), (0, 1)), 1)
# 10,001 lines: the least witness, (1, 0) with q = 1, is on n = 10001,
# near q(v)/2 = 10005, where most large-parameter walls have theirs.
@example((((1, 10001), (10001, 20010)), (0, 1)), 1)
def test_witness_walk_matches_the_reference_walk(span, eps):
    # The least walk and the x-scan against the reference's t-frame walk
    # over all lines.
    gram, v = span
    want = _reference_walk(gram, v, eps)
    assert enumerate_witnesses(gram, v, eps) == want
    (a, b), (_, c) = gram
    witness = walls._witness_walk(a, b, c, eps)
    assert witness == (want[0] if want else None)
    _assert_ambient_map(a, b, c, eps, witness)


def _assert_ambient_map(a, b, c, eps, witness):
    # `_least_witness_of` maps the walk's witness (x, y) to x*w + y*v in
    # the ambient model, v = (1, 0, -c/2) the moduli vector.
    w = (2, -1, 3)
    got = walls._least_witness_of(a, b, c, w, eps)
    if witness is None:
        assert got == (None, None)
        return
    x, y = witness.coords
    assert got == (witness, (2 * x + y, -x, 3 * x - y * (c // 2)))


@settings(derandomize=True, database=None, deadline=None, max_examples=100)
@given(_large_spans(), st.integers(0, 1))
def test_witness_search_matches_the_reference_walk_at_any_v(span, eps):
    # v need not be (0, 1): the x-scan completes v to a basis itself, and
    # the least walk runs on the gram of a basis (w, v) found here, its
    # least witness (x, y) read back as x*w + y*v.
    # Ties in (branch, b, q) may order differently in the two coordinate
    # systems, so the walk's witness need only be one of the least.
    gram, v = span
    want = _reference_walk(gram, v, eps)
    assert enumerate_witnesses(gram, v, eps) == want
    w = next((x, y) for x in range(-2, 3) for y in range(-2, 3)
             if x * v[1] - y * v[0] == 1)
    b = sum(w[i] * gram[i][j] * v[j] for i in range(2) for j in range(2))
    a, c = walls._q_of(gram, w), walls._q_of(gram, v)
    witness = walls._witness_walk(a, b, c, eps)
    _assert_ambient_map(a, b, c, eps, witness)
    if not want:
        assert witness is None
        return
    x, y = witness.coords
    assert witness[1:] == want[0][1:]
    assert Witness((x * w[0] + y * v[0], x * w[1] + y * v[1]),
                   *witness[1:]) in want


@settings(derandomize=True, database=None, deadline=None, max_examples=100)
@given(_normal_spans(), st.integers(0, 1))
@example((((0, -5), (-5, 10)), (0, 1)), 0)
def test_case_i_witnesses_are_symmetric_under_v_minus_s(span, eps):
    # s -> v - s maps a case (i) witness on line n to one on line q(v) - n
    # (with q(v - s) = q(v) - 2n + q(s)), which is why the least walk needs
    # only the lines n <= q(v)/2.  With v = (0, 1) the map is
    # (x, y) -> (-x, 1 - y).
    gram, v = span
    case_i = {w.coords for w in enumerate_witnesses(gram, v, eps)
              if w.branch == "case_i"}
    assert case_i == {(-x, 1 - y) for x, y in case_i}


@st.composite
def _primitive_v_spans(draw):
    """A hyperbolic gram and a primitive v with |v_i| <= 5 and q(v) > 0: a
    gram g0 = [[q(w), b], [b, q(v)]] drawn as `_hyperbolic_spans` draws
    one, carried to the coordinates in which v and a w with
    w[0]*v[1] - w[1]*v[0] = 1 are the given pairs.  w is found by search
    and shifted by a drawn multiple of v, so it is not the completion that
    `enumerate_witnesses` picks."""
    v = draw(st.tuples(st.integers(-5, 5), st.integers(-5, 5))
             .filter(lambda v: gcd(*v) == 1))
    w = next((x, y) for x in range(-5, 6) for y in range(-5, 6)
             if x * v[1] - y * v[0] == 1)
    t = draw(st.integers(-3, 3))
    w = (w[0] + t * v[0], w[1] + t * v[1])
    qv = draw(st.integers(1, 60))
    b = draw(st.integers(-qv, qv))
    qw = draw((st.integers(-2, qv) | st.integers(-qv * qv, qv))
              .filter(lambda q: q * qv < b * b))
    # The basis matrix P = [w v] has determinant 1, so M = P^-1 is integral
    # and G = M^T g0 M has P^T G P = g0.
    g0, m = ((qw, b), (b, qv)), ((v[1], -v[0]), (-w[1], w[0]))
    gram = [[sum(m[i][r] * g0[i][j] * m[j][col] for i in range(2)
                 for j in range(2)) for col in range(2)] for r in range(2)]
    return gram, v


@settings(derandomize=True, database=None, deadline=None, max_examples=150)
@given(_primitive_v_spans(), st.integers(0, 1))
@example(([[2, 1], [1, -2]], (1, 0)), 0)   # v = (1, 0); all case (ii)
@example(([[0, 3], [3, 6]], (1, 1)), 1)    # v = (1, 1)
@example(([[0, 1], [1, -2]], (2, 1)), 0)   # v = (2, 1)
@example(([[1, 0], [0, -1]], (2, 1)), 0)   # det = -1
def test_general_v_reduction_matches_the_reference_and_the_box(span, eps):
    gram, v = span
    got = enumerate_witnesses(gram, v, eps)
    assert got == _reference_walk(gram, v, eps)
    if box_radius(gram, v) <= 60:
        assert got == box_witnesses(gram, v, eps)


def test_general_v_examples_have_witnesses():
    # The examples above are not vacuous: all case (ii) for v = (1, 0),
    # and witnesses at v = (1, 1), (2, 1) and det = -1.
    ws = enumerate_witnesses([[2, 1], [1, -2]], (1, 0), 0)
    assert ws and {w.branch for w in ws} == {"case_ii"}
    for gram, v, eps in (([[0, 3], [3, 6]], (1, 1), 1),
                         ([[0, 1], [1, -2]], (2, 1), 0),
                         ([[1, 0], [0, -1]], (2, 1), 0)):
        assert enumerate_witnesses(gram, v, eps), (gram, v)


@st.composite
def _wall_test_params(draw):
    """Parameters with q(v) = 2(k - 1 + 2*epsilon) <= 1e4; p up to the seed
    p = 2k - 2 + 5*epsilon is where the walls are."""
    eps = draw(st.integers(0, 1))
    k = draw(st.integers(2, 60) | st.integers(2, 5000 - 2 * eps))
    p = draw(st.integers(2, 2 * k - 2 + 5 * eps) | st.integers(2, 10**6))
    delta = draw(st.integers(0, p - 2 * eps))
    return BNParams(p, delta, k, eps)


@settings(derandomize=True, database=None, deadline=None, max_examples=100)
@given(_wall_test_params())
def test_wall_test_reads_the_least_witness_of_the_walk(params):
    ctx = params.context()
    verdict = wall_test(curve_class(params), ctx)
    witness = verdict.witness
    if verdict.span is None:
        assert witness is None and _oracle(verdict, ctx.epsilon) is None
        return
    gram, v = verdict.span.gram, verdict.span.v_coords
    full = enumerate_witnesses(gram, v, ctx.epsilon)
    assert witness == (full[0] if full else None)
    assert verdict.is_wall == bool(full)
    assert verdict.branch == (full[0].branch if full else None)
    # The oracle enumerates the full set itself, on walls and non-walls.
    result = _oracle(verdict, ctx.epsilon)
    assert result is None or result[1] == tuple(full)


def _lines_to_the_least_witness(verdict, epsilon: int) -> int:
    """The lines the walk visits: with d = gcd(b(-, v)), the q(v)/(2d)
    case (i) lines by ascending n and then, when epsilon = 0, the
    q(v)/(2d) + 1 case (ii) lines, up to the least witness's line."""
    (_, b), (_, qv) = verdict.t_gram  # v = (0, 1), so b(-, v) = (b, q(v))
    d = gcd(b, qv)
    half, witness = qv // 2 // d, verdict.witness
    if witness is None:
        return half + (half + 1 if epsilon == 0 else 0)
    if witness.branch == "case_i":
        return witness.b // d
    return half + witness.b // d + 1


# Lines walked by wall_test on two families of walls, (epsilon, p, delta) =
# (0, 5, 0), T = [[-2, h - 5], [h - 5, 2h]], whose only witnesses are case
# (ii), and (1, 7, 0), T = [[0, h - 6], [h - 6, 2h]], whose least witness is
# (1, 0) on line h - 6; h = k - 1 + 2*epsilon.  Both grow linearly in k.
_FAMILY_LINES = {
    (0, 30): 27, (0, 300): 297, (0, 3000): 2997,
    (1, 30): 25, (1, 300): 295, (1, 3000): 2995,
}


def test_witness_walk_lines_on_two_wall_families(walked):
    lines = {}
    for eps, k in _FAMILY_LINES:
        params = BNParams(5 + 2 * eps, 0, k, eps)
        ctx = params.context()
        stage = span_stage(curve_class(params), ctx)
        assert walked == [0]  # the span stage walks no line
        verdict = witness_stage(stage, eps)
        assert verdict.is_wall
        assert walked[0] == _lines_to_the_least_witness(verdict, eps)
        lines[eps, k] = walked[0]
        walked[0] = 0
    assert lines == _FAMILY_LINES


def _tail_spans(n: int, k_max: int):
    """Seeded large-parameter points: epsilon uniform, k log-uniform in
    [2, k_max] with one draw per stratum of log k, p log-uniform in
    [2, 1e10], delta uniform in [0, p - 2*epsilon]."""
    rng = random.Random(2015)
    log_k = math.log(k_max / 2)
    for i in range(n):
        eps = rng.randint(0, 1)
        k = max(2, round(2 * math.exp((i + rng.random()) / n * log_k)))
        p = max(2, round(math.exp(rng.uniform(math.log(2), math.log(1e10)))))
        yield BNParams(p, rng.randint(0, p - 2 * eps), k, eps)


def test_witness_walk_visits_every_line_on_non_walls(walked):
    # On a non-wall the walk visits all q(v)/(2d) case (i) lines, plus the
    # q(v)/(2d) + 1 case (ii) lines when epsilon = 0.  The pinned total of
    # lines is the search's cost on these spans, free of machine noise.
    spans = non_walls = 0
    for params in _tail_spans(60, 10**4):
        ctx = params.context()
        stage = span_stage(curve_class(params), ctx)
        if stage.span is None:
            continue
        lines = walked[0]
        verdict = witness_stage(stage, params.epsilon)
        assert walked[0] - lines == _lines_to_the_least_witness(
            verdict, params.epsilon), params
        spans, non_walls = spans + 1, non_walls + (not verdict.is_wall)
    assert (spans, non_walls, *walked) == (50, 46, 51998)


def test_list_and_tuple_grams_agree():
    # Gram matrices are only read as g[i][j], so rows may be lists or tuples.
    count = 0
    for a, b, c in product(range(-6, 3, 2), range(0, 5), range(2, 9, 2)):
        if a * c - b * b >= 0:
            continue
        as_list, as_tuple = [[a, b], [b, c]], ((a, b), (b, c))
        assert canonical_form(as_list) == canonical_form(as_tuple)
        for eps in (0, 1):
            assert (enumerate_witnesses(as_list, (0, 1), eps)
                    == enumerate_witnesses(as_tuple, (0, 1), eps))
            assert (box_witnesses(as_list, (0, 1), eps)
                    == box_witnesses(as_tuple, (0, 1), eps))
            count += 1
    assert count >= 50


def test_primitive_dual_divisor_examples():
    k2 = SurfaceContext(0, 2, 2)
    d, div = primitive_dual_divisor(CurveClass(1, -3), k2)
    assert (d.l, d.e) == (2, -3) and div == 2

    k3 = SurfaceContext(0, 4, 3)
    d, div = primitive_dual_divisor(CurveClass(1, -6), k3)
    assert (d.l, d.e) == (2, -3) and div == 2

    d, div = primitive_dual_divisor(CurveClass(0, 1), k3)
    assert (d.l, d.e) == (0, 1) and div == k3.ek_div

    d, div = primitive_dual_divisor(CurveClass(1, -4), k3)
    assert (d.l, d.e) == (1, -1) and div == 1

    with pytest.raises(DomainError):
        primitive_dual_divisor(CurveClass(0, 0), k3)


def test_primitive_integral_divisor():
    d = primitive_integral_divisor(DivisorClass(6, -9))
    assert (d.l, d.e) == (2, -3)
    d = primitive_integral_divisor(DivisorClass(4, -6))
    assert (d.l, d.e) == (2, -3)
    d = primitive_integral_divisor(DivisorClass(-4, 6))
    assert (d.l, d.e) == (-2, 3)  # direction is preserved, not flipped
    with pytest.raises(DomainError):
        primitive_integral_divisor(DivisorClass(0, 0))
    assert primitive_integral_divisor([4, -6]) == (2, -3)


@pytest.mark.parametrize("divisor, message", [
    ((1.5, 2), "divisor[0] must be an integer (got float)"),
    (("1", 2), "divisor[0] must be an integer (got str)"),
    ((1, 2, 3), "divisor class must be a pair, got (1, 2, 3)"),
    (5, "divisor class must be a pair, got 5"),
    (list(range(10**5)),
     "divisor class must be a pair, got list of length 100000"),
    ({3: 1, 4: 2}, "divisor class must be a pair, got dict"),
    ({1: "x", -5: "y"}, "divisor class must be a pair, got dict"),
    ({1, -5}, "divisor class must be a pair, got set"),
    ("15", "divisor class must be a pair, got str"),
    (b"\x01\x05", "divisor class must be a pair, got bytes"),
])
def test_primitive_integral_divisor_rejects_a_malformed_pair(divisor,
                                                            message):
    # A DomainError printed through `_shown`, not a TypeError from
    # math.gcd or from unpacking; saturated_span reaches D through this
    # function.
    for call in (lambda: primitive_integral_divisor(divisor),
                 lambda: saturated_span(divisor, SurfaceContext(0, 2, 2))):
        with pytest.raises(DomainError) as info:
            call()
        assert str(info.value) == message and len(message) < 200


def _span_for(p, delta, k, epsilon):
    params = BNParams(p, delta, k, epsilon)
    ctx = params.context()
    divisor, _ = primitive_dual_divisor(curve_class(params), ctx)
    return saturated_span(divisor, ctx), ctx


def test_saturated_span_fixed_grams():
    span, ctx = _span_for(2, 0, 2, 0)
    assert span.gram == ((-2, 1), (1, 2))
    assert divisor_divisibility(DivisorClass(2, -3), ctx) == 2

    span, _ = _span_for(7, 0, 2, 1)
    assert span.gram == ((0, 3), (3, 6))

    span, _ = _span_for(6, 0, 4, 0)
    assert span.gram == ((-2, 3), (3, 6))

    span, _ = _span_for(6, 1, 4, 0)
    assert span.gram == ((0, 2), (2, 6))

    # tie orientation: at b(w, v) = 0 and at 2*b(w, v) = q(v) the basis vector
    # is the candidate with the lexicographically smaller (w[1], w[0])
    span, _ = _span_for(2, 0, 2, 0)
    assert span.w == (2, -1, 1)

    span, _ = _span_for(3, 0, 2, 0)
    assert span.w == (2, -1, 2)
    assert span.gram == ((-4, 0), (0, 2))

    ctx = SurfaceContext(0, 5, 2)
    stage = span_stage(DivisorClass(0, 1), ctx)
    assert stage.span == saturated_span(DivisorClass(0, 1), ctx)
    assert stage.span.w == (0, 0, -1) and stage.divisor_div == 2

    # D = (2, -6) is imprimitive: span{v, D} has index div(D) = 2 in T.
    ctx = SurfaceContext(0, 6, 4)
    span = saturated_span(DivisorClass(2, -6), ctx)
    assert span.w == (3, -1, 9)
    assert divisor_divisibility(DivisorClass(2, -6), ctx) == 2


def test_saturated_span_invariants():
    for (p, delta, k, eps) in ((2, 0, 2, 0), (7, 0, 2, 1), (6, 0, 4, 0),
                               (6, 1, 4, 0), (3, 1, 2, 0), (8, 1, 4, 0),
                               (12, 2, 5, 0), (9, 1, 3, 1),
                               (5, 0, 300, 0), (2, 0, 5, 0)):
        params = BNParams(p, delta, k, eps)
        if curve_class(params).square(params.context()).numerator >= 0:
            continue
        span, ctx = _span_for(p, delta, k, eps)
        (qw, b), (b2, qv) = span.gram
        assert b == b2
        assert qv == ctx.ek_div
        assert 0 <= 2 * b <= qv
        assert span.v_coords == (0, 1)
        # the recorded basis really has this Gram matrix in the ambient model
        w3, v3 = span.w, moduli_vector(ctx)
        got = [[mukai_pairing(x, y, ctx.p) for y in (w3, v3)] for x in (w3, v3)]
        assert got == [[qw, b], [b, qv]]
        stage = span_stage(curve_class(params), ctx)
        assert stage.span == span == saturated_span(stage.divisor, ctx)
        assert stage.t_gram == span.gram and stage.divisor_div >= 1


def _cross(x, y):
    return (x[1] * y[2] - x[2] * y[1], x[2] * y[0] - x[0] * y[2],
            x[0] * y[1] - x[1] * y[0])


def _dot(x, y):
    return sum(a * b for a, b in zip(x, y))


def _check_saturation(divisor, ctx, box=0):
    """Independent oracle for saturated_span: T = Z*w + Z*v is the
    saturation of span{v, d} in Z^3 iff w, v lie in span_Q{v, d} and the
    2x2 minors of (w, v) are coprime; the index is gcd of the minors of
    (v, d).  With box > 0 every integer point of [-box, box]^3 in span_Q{v, d}
    is also checked to be an integer combination of w and v."""
    span = saturated_span(divisor, ctx)
    w, v = span.w, moduli_vector(ctx)
    # a*L + b*e embeds as (b, a, b*h) with h = k - 1 + 2*epsilon.
    h = ctx.k - 1 + 2 * ctx.epsilon
    d = (int(divisor.e), int(divisor.l), int(divisor.e) * h)
    assert span.v_coords == (0, 1)
    normal = _cross(v, d)
    assert _dot(w, normal) == 0
    wv = _cross(w, v)
    assert gcd(*wv) == 1
    assert gcd(*normal) == divisor_divisibility(divisor, ctx)
    gram = tuple(tuple(mukai_pairing(x, y, ctx.p) for y in (w, v))
                 for x in (w, v))
    assert span.gram == gram
    b, qv = gram[0][1], gram[1][1]
    assert 0 <= 2 * b <= qv
    if box:
        # Cramer's rule on a coordinate plane where (w, v) has a nonzero minor.
        (i, j), minor = next(((i, j), m) for (i, j), m
                             in zip(((1, 2), (2, 0), (0, 1)), wv) if m)
        for x in product(range(-box, box + 1), repeat=3):
            if _dot(x, normal):
                continue
            alpha, ra = divmod(x[i] * v[j] - x[j] * v[i], minor)
            beta, rb = divmod(w[i] * x[j] - w[j] * x[i], minor)
            assert ra == rb == 0, (x, span)
            assert all(alpha * w[t] + beta * v[t] == x[t] for t in range(3))
    return 2 * b == qv, b == 0


def test_saturated_span_oracle_on_grid():
    spans = boxed = 0
    for eps in (0, 1):
        for k in range(2, 9):
            for p in range(2, 41):
                for delta in range(p - 2 * eps + 1):
                    params = BNParams(p, delta, k, eps)
                    ctx = params.context()
                    curve = curve_class(params)
                    if curve.square(ctx).numerator >= 0:
                        continue
                    divisor, _ = primitive_dual_divisor(curve, ctx)
                    box = 4 if k <= 4 and p <= 12 else 0
                    _check_saturation(divisor, ctx, box)
                    spans += 1
                    boxed += bool(box)
    assert spans == 4162 and boxed > 50


def test_saturated_span_oracle_random_large():
    rng = random.Random(1507)
    seen = {"half": 0, "zero": 0, "a=0": 0, "imprimitive": 0}
    checked = 0
    while checked < 2000:
        eps = rng.randint(0, 1)
        k = rng.choice((2, 3, rng.randint(2, 100), rng.randint(2, 10**5)))
        p = rng.choice((2, rng.randint(2, 50), rng.randint(2, 10**10)))
        a = rng.choice((0, rng.randint(-30, 30), rng.randint(-10**6, 10**6)))
        b = rng.randint(-10**6, 10**6)
        f = rng.choice((1, 1, 2, 3, 12))
        ctx = SurfaceContext(eps, p, k)
        divisor = DivisorClass(f * a, f * b)
        if divisor.square(ctx) >= 0:
            continue
        half, zero = _check_saturation(divisor, ctx)
        checked += 1
        seen["half"] += half
        seen["zero"] += zero
        seen["a=0"] += a == 0
        seen["imprimitive"] += gcd(f * a, f * b) > 1
    assert min(seen.values()) >= 50, seen

    # the brute-force box check on small contexts, imprimitive classes too
    for eps, k, p in product((0, 1), range(2, 5), range(2, 13, 5)):
        ctx = SurfaceContext(eps, p, k)
        for a, b in product(range(-4, 5), range(1, 5)):
            divisor = DivisorClass(a, b)
            if divisor.square(ctx) < 0:
                _check_saturation(divisor, ctx, box=4)


def test_saturated_span_rejects_nonnegative_square():
    ctx = SurfaceContext(0, 6, 2)
    with pytest.raises(DomainError):
        saturated_span(DivisorClass(1, 0), ctx)  # q = 10 > 0


def test_saturated_span_is_one_per_ray():
    # saturated_span is the span of span_stage, which takes the primitive
    # integral class on the ray of D: D, 2*D, 3*D and 6*D share one
    # saturation and one verdict.  A rational class such as D/2 is given as
    # one of these integral multiples; as a coefficient it is a DomainError.
    ctx = SurfaceContext(0, 2, 2)
    d = DivisorClass(1, -2)
    assert d.square(ctx) < 0
    scaled = [DivisorClass(m * d.l, m * d.e) for m in (1, 2, 3, 6)]
    spans = {saturated_span(c, ctx) for c in scaled}
    assert spans == {span_stage(d, ctx).span}
    assert len({wall_test(c, ctx) for c in scaled}) == 1
    with pytest.raises(DomainError):
        saturated_span(DivisorClass(2, 0), ctx)  # q > 0
    with pytest.raises(DomainError):
        saturated_span(DivisorClass(Fraction(1, 2), -1), ctx)


def test_wall_test_fixed_verdicts():
    params = BNParams(2, 0, 2, 0)
    verdict = wall_test(curve_class(params), params.context())
    assert verdict.is_wall
    assert verdict.branch == "case_ii"
    assert (verdict.divisor.l, verdict.divisor.e) == (2, -3)
    assert verdict.divisor_div == 2
    assert verdict.q_divisor == -10
    assert verdict.t_gram == ((-2, 1), (1, 2))
    assert verdict.witness is not None and verdict.witness.q == -2
    assert oracle_agrees(verdict, 0) is True
    # ambient witness must have the recorded square and pairing with v
    amb = verdict.witness_ambient
    assert mukai_pairing(amb, amb, 2) == verdict.witness.q
    # Equality and hash are those of the tuple of fields, nested or not.
    span = SpanLattice(gram=((-2, 1), (1, 2)), w=(2, -1, 1))
    assert verdict.span == span and hash(verdict.span) == hash(
        (((-2, 1), (1, 2)), (2, -1, 1)))
    assert verdict.witness == Witness((-1, 1), -2, 1, "case_ii")
    assert hash(verdict.witness) == hash(((-1, 1), -2, 1, "case_ii"))
    again = wall_test(curve_class(params), params.context())
    assert again == verdict and hash(again) == hash(
        (DivisorClass(2, -3), 2, -10, span, verdict.witness, amb))
    assert again != witness_stage(span_stage(curve_class(params),
                                             params.context()), 1)

    params = BNParams(7, 0, 2, 1)
    verdict = wall_test(curve_class(params), params.context())
    assert verdict.is_wall and verdict.branch == "case_i"
    assert verdict.t_gram == ((0, 3), (3, 6))
    assert oracle_agrees(verdict, 1) is True

    # positive square: immediate negative verdict, no span
    ctx = SurfaceContext(0, 5, 2)
    verdict = wall_test(CurveClass(1, -1), ctx)
    assert not verdict.is_wall
    assert verdict.branch == "nonnegative-square"
    assert verdict.span is None and verdict.t_gram is None
    assert verdict.witness is None and oracle_agrees(verdict, 0) is None


def test_wall_test_on_divisor_inputs_and_scaling():
    ctx = SurfaceContext(0, 2, 2)
    for d in (DivisorClass(2, -3), DivisorClass(4, -6),
              DivisorClass(6, -9), DivisorClass(-2, 3)):
        verdict = wall_test(d, ctx)
        assert verdict.is_wall
        assert abs(verdict.divisor.l) == 2 and abs(verdict.divisor.e) == 3
        assert verdict.q_divisor == -10
    # (1/2)*L - (3/4)*e is given as 4 times itself, (2, -3), not as Fractions.
    with pytest.raises(DomainError):
        wall_test(DivisorClass(Fraction(1, 2), Fraction(-3, 4)), ctx)


def test_wall_test_negation_invariance():
    for (p, delta, k, eps) in ((2, 0, 2, 0), (7, 0, 2, 1), (6, 1, 4, 0),
                               (4, 0, 3, 0), (8, 1, 4, 0)):
        params = BNParams(p, delta, k, eps)
        ctx = params.context()
        d, _ = primitive_dual_divisor(curve_class(params), ctx)
        neg = DivisorClass(-d.l, -d.e)
        a, b = wall_test(d, ctx), wall_test(neg, ctx)
        assert a.is_wall == b.is_wall
        assert a.t_gram == b.t_gram


def test_wall_verdict_agrees_with_square_sign_on_sample():
    rng = random.Random(424)
    for _ in range(120):
        epsilon = rng.randint(0, 1)
        k = rng.randint(2, 6)
        p = rng.randint(2, 20)
        delta = rng.randint(0, p - 2 * epsilon)
        params = BNParams(p, delta, k, epsilon)
        from wallkit.curves import exists_pencil
        if not exists_pencil(params):
            continue
        ctx = params.context()
        q_r = curve_class(params).square(ctx)
        verdict = wall_test(curve_class(params), ctx)
        assert verdict.is_wall == (q_r.numerator < 0), (p, delta, k, epsilon)


def test_mbm_bound_check():
    ctx = SurfaceContext(0, 2, 2)
    bound = Fraction(-(2 + 3 - 2 * 0), 2)
    # q(C) over div(e) = 2, not reduced.
    assert CurveClass(1, -3).square(ctx) == (-5, 2)
    assert Fraction(*CurveClass(1, -3).square(ctx)) == bound == Fraction(-5, 2)
    assert Fraction(*CurveClass(1, -50).square(ctx)) < bound
    kum = SurfaceContext(1, 7, 2)
    assert (Fraction(*CurveClass(1, -9).square(kum))
            == Fraction(-(2 + 3 - 2 * 1), 2))
