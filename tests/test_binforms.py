"""Unit tests for GL2(Z) classification of rank-2 Gram matrices."""

from __future__ import annotations

import random
from collections import Counter
from math import gcd, isqrt

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from wallkit import binforms
from wallkit.binforms import (
    DegenerateFormError,
    ReductionBudgetError,
    _canonical,
    _reduce_definite,
    canonical_form,
    class_id,
    rank2_isometric,
    xgcd,
)
from wallkit.catalog import state_gram
from wallkit.model import DomainError

_settings = settings(derandomize=True, database=None, deadline=None,
                     max_examples=100)


def _conjugate(g, u):
    # u^T g u for 2x2 integer matrices
    a, b, c, d = u[0][0], u[0][1], u[1][0], u[1][1]
    g00, g01, g11 = g[0][0], g[0][1], g[1][1]
    n00 = a * (g00 * a + g01 * c) + c * (g01 * a + g11 * c)
    n01 = a * (g00 * b + g01 * d) + c * (g01 * b + g11 * d)
    n11 = b * (g00 * b + g01 * d) + d * (g01 * b + g11 * d)
    return [[n00, n01], [n01, n11]]


def _random_unimodular2(rng: random.Random, ops: int = 10):
    m = [[1, 0], [0, 1]]
    for _ in range(ops):
        q = rng.randint(-3, 3)
        if rng.randrange(2):
            m = [[m[0][0] + q * m[1][0], m[0][1] + q * m[1][1]], m[1]]
        else:
            m = [m[0], [m[1][0] + q * m[0][0], m[1][1] + q * m[0][1]]]
        if rng.randrange(3) == 0:
            m = [m[1], m[0]]
    return m


def test_fixed_equivalent_pairs():
    assert rank2_isometric([[2, 1], [1, -2]], [[-2, 1], [1, 2]])
    assert rank2_isometric([[2, 3], [3, 2]], [[-2, 1], [1, 2]])
    assert rank2_isometric([[0, 3], [3, 6]], [[6, 3], [3, 0]])
    assert rank2_isometric([[2, 0], [0, 2]], [[2, 2], [2, 4]])


def test_fixed_inequivalent_pairs():
    assert not rank2_isometric([[-2, 3], [3, 6]], [[-2, 2], [2, 6]])
    # same determinant, classically inequivalent (2 is not represented
    # by x^2 - 10 y^2 since 2 is a nonresidue mod 5)
    assert not rank2_isometric([[1, 0], [0, -10]], [[2, 0], [0, -5]])
    assert not rank2_isometric([[2, 0], [0, 2]], [[-2, 0], [0, -2]])
    assert not rank2_isometric([[0, 3], [3, 6]], [[0, 3], [3, 2]])


def test_degenerate_raises():
    with pytest.raises(DegenerateFormError):
        canonical_form([[2, 2], [2, 2]])
    with pytest.raises(DegenerateFormError):
        class_id([[0, 0], [0, 5]])
    # Every refusal of the package is a DomainError (CLI exit 2), and so
    # still a ValueError.
    with pytest.raises(DomainError, match="^Gram matrix is degenerate$"):
        canonical_form([[1, 1], [1, 1]])
    assert issubclass(DegenerateFormError, ValueError)


@pytest.mark.parametrize("gram, match", [
    ([[1.5, 0], [0, 1]], r"gram\[0\]\[0\] must be an integer"),
    ([[1, 0], [0.0, 1]], r"gram\[1\]\[0\] must be an integer"),
    ([[1, 2], [0, 1]], "symmetric 2x2"),
    ([[1, 0, 0], [0, 1, 0]], "symmetric 2x2"),
])
def test_one_gram_rule(gram, match):
    # The classifiers and the witness functions share one gram rule
    # (`binforms._gram_entries`): a symmetric 2x2 matrix of ints, else a
    # DomainError.  A float entry once gave the class id "posdef:1:0:1.5".
    for classify in (canonical_form, class_id,
                     lambda g: rank2_isometric(g, [[1, 0], [0, 1]])):
        with pytest.raises(DomainError, match=match):
            classify(gram)


def test_reduction_budget_is_a_typed_domain_error():
    # The saturated span at (epsilon, k, p, delta) = (1, 685, 10029960,
    # 7683196) has a reduced cycle longer than the step cap.
    with pytest.raises(ReductionBudgetError) as info:
        class_id(((-3996351748, 43), (43, 1372)))
    assert isinstance(info.value, DomainError)
    assert isinstance(info.value, RuntimeError)


def test_reduction_budget_error_names_the_bit_length(monkeypatch):
    # Near k = 10^2200 the discriminant has about 4,400 digits, more than
    # int-to-text conversion allows, so the message gives its bit length.
    monkeypatch.setattr(binforms, "_MAX_REDUCTION_STEPS", 3)
    with pytest.raises(ReductionBudgetError, match=r"\d+-bit discriminant"):
        class_id(state_gram(3, 0, 10**2200 + 7, 0))


def test_canonical_form_is_conjugation_invariant():
    rng = random.Random(808)
    trials = 0
    while trials < 600:
        g = [[rng.randint(-8, 8), 0], [0, rng.randint(-8, 8)]]
        b = rng.randint(-8, 8)
        g[0][1] = g[1][0] = b
        if g[0][0] * g[1][1] - b * b == 0:
            continue
        trials += 1
        u = _random_unimodular2(rng)
        h = _conjugate(g, u)
        assert canonical_form(g) == canonical_form(h)
        assert rank2_isometric(g, h)
        assert class_id(g) == class_id(h)


def _small_unimodulars(bound: int):
    mats = []
    for a in range(-bound, bound + 1):
        for b in range(-bound, bound + 1):
            for c in range(-bound, bound + 1):
                for d in range(-bound, bound + 1):
                    if a * d - b * c in (1, -1):
                        mats.append([[a, b], [c, d]])
    return mats


def test_no_false_negatives_against_certificates():
    # whenever an explicit small conjugation certificate exists, the
    # classifier must agree; box-truncated value-set comparisons are NOT
    # a sound oracle for indefinite forms, so nothing is asserted when no
    # small certificate exists
    rng = random.Random(909)
    mats = _small_unimodulars(3)
    negatives = 0
    for _ in range(120):
        b1, b2 = rng.randint(-4, 4), rng.randint(-4, 4)
        g1 = [[rng.randint(-4, 4), b1], [b1, rng.randint(-4, 4)]]
        g2 = [[rng.randint(-4, 4), b2], [b2, rng.randint(-4, 4)]]
        if g1[0][0] * g1[1][1] - b1 * b1 == 0:
            continue
        if g2[0][0] * g2[1][1] - b2 * b2 == 0:
            continue
        u = rng.choice(mats)
        assert rank2_isometric(g1, _conjugate(g1, u))
        if not rank2_isometric(g1, g2):
            negatives += 1
            assert all(_conjugate(g1, u) != g2 for u in mats)
    assert negatives >= 50


def test_brute_force_found_pairs_are_isometric():
    rng = random.Random(111)
    checked = 0
    for _ in range(400):
        b = rng.randint(-5, 5)
        g = [[rng.randint(-5, 5), b], [b, rng.randint(-5, 5)]]
        if g[0][0] * g[1][1] - b * b == 0:
            continue
        u = _random_unimodular2(rng, ops=4)
        h = _conjugate(g, u)
        # brute-force certificate exists by construction
        assert rank2_isometric(g, h)
        checked += 1
    assert checked >= 300


def test_class_id_on_fixed_catalog_grams():
    ids = [class_id(g) for g in (
        [[-2, 1], [1, 2]],
        [[-2, 3], [3, 6]],
        [[-2, 2], [2, 6]],
        [[0, 2], [2, 6]],
        [[0, 3], [3, 6]],
    )]
    assert len(set(ids)) == 5
    # a genuine cross-corner coincidence: x -> x, y -> x + y twice maps
    # diag(-2, 2) onto [[0, 2], [2, 6]]
    assert rank2_isometric([[-2, 0], [0, 2]], [[0, 2], [2, 6]])
    assert class_id([[-2, 0], [0, 2]]) == class_id([[0, 2], [2, 6]])


def test_isotropic_same_disc_separated():
    # three isotropic forms of discriminant -36 that represent different
    # value sets: 12xy, 12xy + 2y^2, 12xy + 4y^2
    g0 = [[0, 6], [6, 0]]
    g2 = [[0, 6], [6, 2]]
    g4 = [[0, 6], [6, 4]]
    assert not rank2_isometric(g0, g2)  # g2 represents 2, g0 only 12Z
    assert not rank2_isometric(g2, g4)  # neither represents the other's 2/4
    assert not rank2_isometric(g0, g4)
    rng = random.Random(121)
    for g in (g0, g2, g4):
        for _ in range(50):
            u = _random_unimodular2(rng)
            assert canonical_form(g) == canonical_form(_conjugate(g, u))


def test_xgcd_identity():
    cases = [(0, 0), (0, 7), (7, 0), (-4, 6), (12, 18), (7, -3), (-5, -15)]
    for a, b in cases:
        g, x, y = xgcd(a, b)
        assert g == gcd(a, b)
        assert x * a + y * b == g


def test_xgcd_random():
    rng = random.Random(101)
    for _ in range(500):
        a, b = rng.randint(-10**6, 10**6), rng.randint(-10**6, 10**6)
        g, x, y = xgcd(a, b)
        assert g == gcd(a, b) and x * a + y * b == g


def _rho_cycle(a, b, c):
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


def _euclid(a, b):
    """(g, x, y) with a*x + b*y = g = gcd(a, b) >= 0: the extended
    Euclidean algorithm, kept here so the reference takes no step from the
    package."""
    x0, y0, x1, y1 = 1, 0, 0, 1
    while b:
        quot, a, b = a // b, b, a % b
        x0, y0, x1, y1 = x1, y1, x0 - quot * x1, y0 - quot * y1
    return (a, x0, y0) if a >= 0 else (-a, -x0, -y0)


def _isotropic_residues(a, b, c, sigma):
    """The residues q(w) mod 2*sigma, sorted, of the two isotropic lines of
    a x^2 + 2b xy + c y^2 with b^2 - ac = sigma^2 > 0: the line's primitive
    u is completed to a basis (u, w) by `_euclid`.  Another completion
    w + t*u, or -u, changes q(w) by a multiple of 2*b(u, w) = +-2*sigma."""
    lines = (((1, 0), (-c, 2 * b)) if a == 0
             else ((sigma - b, a), (-sigma - b, a)))
    residues = []
    for x, y in lines:
        g = gcd(x, y)
        _, s, t = _euclid(x // g, y // g)
        residues.append((a * t * t - 2 * b * t * s + c * s * s) % (2 * sigma))
    return sorted(residues)


def _reference_canonical_form(g):
    """canonical_form from test-local steps only: the Gauss reduction
    `_doubled_middle_reduction` of a definite form (negated when negative
    definite), sigma and `_isotropic_residues` of an isotropic one, and the
    rho cycles of an anisotropic indefinite form and of its middle-sign
    flip, walked one after the other."""
    (a, b), (_, c) = g
    det = a * c - b * b
    if det > 0:
        if a > 0:
            return ("posdef", *_doubled_middle_reduction(a, 2 * b, c))
        return ("negdef", *_doubled_middle_reduction(-a, -2 * b, -c))
    sigma = isqrt(-det)
    if sigma * sigma == -det:
        return ("isotropic", sigma, *_isotropic_residues(a, b, c, sigma))
    return ("indef",) + min(min(_rho_cycle(a, 2 * b, c)),
                            min(_rho_cycle(a, -2 * b, c)))


@st.composite
def _anisotropic_grams(draw):
    a = draw(st.integers(-1000, 1000))
    b = draw(st.integers(-1000, 1000))
    c = draw(st.integers(-1000, 1000))
    minus_det = b * b - a * c
    assume(0 < minus_det <= 10**6 and isqrt(minus_det) ** 2 != minus_det)
    return ((a, b), (b, c))


@st.composite
def _indefinite_walk_grams(draw):
    """Anisotropic indefinite (a, b, c): drawn directly, or a small form
    moved far from reduced by a word in S and T^q, so that the entries
    reach 1e30 and the walk's pre-period is long."""
    if draw(st.booleans()):
        return draw(_anisotropic_grams())
    a, b, c = (draw(st.integers(-30, 30)) for _ in range(3))
    assume(b * b > a * c and isqrt(b * b - a * c) ** 2 != b * b - a * c)
    g = ((a, b), (b, c))
    for q in draw(st.lists(st.integers(-1000, 1000), max_size=40)):
        moved = _conjugate(g, ((q, -1), (1, 0)))
        if max(abs(moved[0][0]), abs(moved[0][1]), abs(moved[1][1])) > 10**30:
            break
        g = moved
    return g


@_settings
@given(_indefinite_walk_grams())
@example(((1, 0), (0, -2)))     # x^2 - 2y^2: period 1, so walked twice
@example(((1, 0), (0, -3)))     # x^2 - 3y^2: period 2
@example(((-3, 1), (1, 4)))     # a < 0 < c
@example(((1, -1), (-1, -2)))   # root 1 + sqrt(3): reduced at the start
@example(((229, 150), (150, 98)))  # four steps before the cycle
def test_one_cycle_walk_matches_the_two_walk_reference(g):
    # The continued-fraction walk against the two rho walks.
    assert canonical_form(g) == _reference_canonical_form(g)


def test_one_cycle_walk_matches_on_every_catalog_state():
    # Every regime is checked against the test-local reference.
    regimes = Counter()
    for epsilon in (0, 1):
        for k in range(2, 31):
            for p in range(2, 2 * k - 1 + 5 * epsilon):
                for delta in range(p - 2 * epsilon + 1):
                    g = state_gram(p, delta, k, epsilon)
                    try:
                        form = canonical_form(g)
                    except DegenerateFormError:
                        regimes["degenerate"] += 1
                        continue
                    assert form == _reference_canonical_form(g), g
                    regimes[form[0]] += 1
    assert regimes == {"posdef": 34950, "isotropic": 2157, "indef": 2476,
                       "degenerate": 89}


# Generators of GL2(Z): S, T and the reflection diag(1, -1).
_MOVES = (((0, -1), (1, 0)), ((1, 1), (0, 1)), ((1, 0), (0, -1)))


@st.composite
def _regime_grams(draw):
    regime = draw(st.sampled_from(("definite", "isotropic", "anisotropic")))
    if regime == "definite":
        a = draw(st.integers(1, 500))
        c = draw(st.integers(1, 500))
        b = draw(st.integers(-isqrt(a * c - 1), isqrt(a * c - 1)))
        sign = draw(st.sampled_from((1, -1)))
        return ((sign * a, sign * b), (sign * b, sign * c))
    if regime == "isotropic":
        # (r x + s y)(t x + u y) with rt + su even is a form with even
        # middle coefficient; it is nondegenerate when ru != st.
        r, s, t, u = (draw(st.integers(-30, 30)) for _ in range(4))
        assume((r * u + s * t) % 2 == 0 and r * u != s * t)
        b = (r * u + s * t) // 2
        return ((r * t, b), (b, s * u))
    return draw(_anisotropic_grams())


@_settings
@given(_regime_grams())
@example(((-3, -1), (-1, -2)))  # negative definite
@example(((0, 3), (3, 5)))      # isotropic with a = 0
def test_canonical_form_matches_the_reference_in_every_regime(g):
    assert canonical_form(g) == _reference_canonical_form(g)


@_settings
@given(_regime_grams(), st.lists(st.integers(0, 2), min_size=1, max_size=20))
def test_class_id_is_invariant_under_gl2z_words(g, word):
    m = [[1, 0], [0, 1]]
    for move in word:
        x = _MOVES[move]
        m = [[m[0][0] * x[0][0] + m[0][1] * x[1][0],
              m[0][0] * x[0][1] + m[0][1] * x[1][1]],
             [m[1][0] * x[0][0] + m[1][1] * x[1][0],
              m[1][0] * x[0][1] + m[1][1] * x[1][1]]]
    # _conjugate(g, m) is m^T g m.
    assert class_id(_conjugate(g, m)) == class_id(g)


def _doubled_middle_reduction(a, b, c):
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


@st.composite
def _definite_grams(draw):
    """Positive definite (a, b, c) with entries up to 1e30: drawn directly,
    or a small form moved far from reduced by a word in S and T^q."""
    if draw(st.booleans()):
        a = draw(st.integers(1, 10**30))
        c = draw(st.integers(1, 10**30))
        b = draw(st.integers(-isqrt(a * c - 1), isqrt(a * c - 1)))
        return a, b, c
    a = draw(st.integers(1, 1000))
    c = draw(st.integers(1, 1000))
    b = draw(st.integers(-isqrt(a * c - 1), isqrt(a * c - 1)))
    g = [[a, b], [b, c]]
    for q in draw(st.lists(st.integers(-1000, 1000), max_size=4)):
        g = _conjugate(g, ((q, -1), (1, 0)))
    assume(max(abs(g[0][0]), abs(g[0][1]), abs(g[1][1])) <= 10**30)
    return g[0][0], g[0][1], g[1][1]


@_settings
@given(_definite_grams(), st.sampled_from((1, -1)))
@example((4, 2, 5), 1)    # 2|b| = a
@example((4, -2, 5), -1)  # 2|b| = a with b < 0
@example((3, 1, 3), 1)    # a = c
@example((5, 0, 7), -1)   # b = 0
@example((5, -4, 9), 1)   # b < 0
@example((9, 2, 3), 1)    # a > c
def test_reduction_matches_the_doubled_middle_reference(form, sign):
    # The reduction on the Gram's own (a, b, c, det) gives the triple of
    # the doubled-middle reduction, for either sign of a definite gram.
    a, b, c = form
    det = a * c - b * b
    assert det > 0
    expected = _doubled_middle_reduction(a, 2 * b, c)
    assert _reduce_definite(a, b, c, det) == expected
    regime = "posdef" if sign == 1 else "negdef"
    assert (_canonical(sign * a, sign * b, sign * c, det)
            == (regime, *expected))
