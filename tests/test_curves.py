"""Unit tests for pencil existence, curve classes, and square formulas."""

from __future__ import annotations

from fractions import Fraction
from math import isqrt

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wallkit import curves
from wallkit.checks import CHECKS, Point, Row
from wallkit.curves import (
    BNParams,
    bn_dims,
    bn_rho,
    curve_class,
    curve_square,
    exists_pencil,
    exists_pencil_via_rho,
)
from wallkit.model import (
    CurveClass,
    DivisorClass,
    DomainError,
    Ratio,
    SurfaceContext,
    ratio_str,
)

import reference


def test_bn_rho():
    assert bn_rho(4, 1, 4) == 4 - 2 * (4 - 4 + 1)
    assert bn_rho(2, 1, 2) == 0
    assert bn_rho(6, 3, 9) == 6 - 4 * (6 - 9 + 3)
    assert bn_rho(10, 1, 5) == 10 - 2 * 6


def test_params_validation():
    # The context (epsilon, k, p) is checked before delta.
    for args, text in (
            ((4, -1, 3, 0), "constraint violated: 0 <= delta <= p - 2*epsilon "
                            "(got delta=-1, p=4, epsilon=0)"),
            ((4, 5, 3, 0), "constraint violated: 0 <= delta <= p - 2*epsilon "
                           "(got delta=5, p=4, epsilon=0)"),
            # delta > p - 2
            ((4, 3, 3, 1), "constraint violated: 0 <= delta <= p - 2*epsilon "
                           "(got delta=3, p=4, epsilon=1)"),
            ((1, 0, 3, 0), "constraint violated: p >= 2 (got p=1)"),
            ((4, 0, 1, 0), "constraint violated: k >= 2 (got k=1)"),
            ((1, 9, 1, 2), "epsilon must be 0 or 1 (got 2)")):
        with pytest.raises(DomainError) as exc:
            BNParams(*args)
        assert str(exc.value) == text
    BNParams(4, 2, 3, 1)  # boundary delta = p - 2*epsilon is allowed


def test_params_are_the_tuple_of_their_four_arguments():
    params = BNParams(8, 1, 4, 0)
    assert params == BNParams(p=8, delta=1, k=4, epsilon=0)
    assert params == BNParams(8, 1, epsilon=0, k=4) == (8, 1, 4, 0)
    assert params != BNParams(8, 2, 4, 0)
    assert hash(params) == hash(BNParams(p=8, delta=1, k=4, epsilon=0))
    assert hash(params) == hash((8, 1, 4, 0))
    assert repr(params) == "BNParams(p=8, delta=1, k=4, epsilon=0)"
    # The derived quantities are attributes only, computed at construction.
    assert (params.half_div, params.g, params.alpha) == (3, 7, 1)
    assert (params.beta, params.rho) == (2, 0)
    assert params.context() == SurfaceContext(0, 8, 4)
    for name in ("p", "alpha", "rho"):
        with pytest.raises(AttributeError):
            setattr(params, name, 0)


def test_replace_and_make_go_through_new():
    # namedtuple's own `_replace` and `_make` skip `__new__`: they would
    # build an out-of-domain parameter set without its derived values.
    params = BNParams(9, 0, 3, 0)
    for bad in ({"delta": 100}, {"delta": -1}, {"k": 1}, {"epsilon": 2}):
        with pytest.raises(DomainError):
            params._replace(**bad)
    with pytest.raises(DomainError):
        BNParams._make((9, 10, 3, 0))
    built = BNParams(9, 1, 3, 0)
    for other in (params._replace(delta=1), BNParams._make((9, 1, 3, 0))):
        assert other == built and other.__dict__ == built.__dict__
        assert (other.alpha, other.beta, other.rho) == (2, 2, -3)
        assert other.context() == SurfaceContext(0, 9, 3)


def test_parameter_sets_of_one_row_share_their_context():
    ctx = SurfaceContext(0, 9, 3)
    first, second = BNParams.on(ctx, 0), BNParams.on(ctx, 4)
    assert first.context() is ctx and second.context() is ctx
    # The same parameter set, with the same derived values, as __new__.
    built = BNParams(9, 0, 3, 0)
    assert first == built and first.__dict__ == built.__dict__
    # Parameter sets built separately have equal contexts, not one.
    assert built.context() == ctx and built.context() is not ctx
    assert BNParams(9, 4, 3, 0).context() is not built.context()
    for delta in (-1, 10):
        with pytest.raises(DomainError, match="0 <= delta <= p - 2"):
            BNParams.on(ctx, delta)
    with pytest.raises(DomainError, match="0 <= delta <= p - 2"):
        BNParams.on(SurfaceContext(1, 9, 3), 8)
    # A bool is an int, and is kept as given.
    assert BNParams(9, 0, 3, True).context().epsilon is True


_VALID = {"p": 9, "delta": 4, "k": 3, "epsilon": 1}


@pytest.mark.parametrize("kind", [float, Fraction, str])
@pytest.mark.parametrize("name", list(_VALID))
def test_non_integer_parameters_are_domain_errors(name, kind):
    # An in-range value of the wrong type, e.g. p = 9.0: rejected before
    # it can reach gcd or range as a bare TypeError.
    args = {**_VALID, name: kind(_VALID[name])}
    message = f"^{name} must be an integer"
    with pytest.raises(DomainError, match=message):
        BNParams(**args)
    with pytest.raises(DomainError, match=message):
        if name == "delta":
            BNParams.on(SurfaceContext(1, 9, 3), args["delta"])
        else:
            SurfaceContext(args["epsilon"], args["p"], args["k"])


def test_alpha_beta_identities():
    for epsilon in (0, 1):
        for k in range(2, 8):
            h = k - 1 + 2 * epsilon
            for p in range(2, 30):
                for delta in range(0, p - 2 * epsilon + 1):
                    params = BNParams(p, delta, k, epsilon)
                    a, b = params.alpha, params.beta
                    assert a >= 0
                    assert -h < b <= h
                    # definition: p - delta - epsilon = (2a + 1)h - b
                    assert p - delta - epsilon == (2 * a + 1) * h - b


def test_exists_examples():
    assert not exists_pencil(BNParams(6, 0, 2, 0))
    assert BNParams(6, 0, 2, 0).alpha == 3
    assert exists_pencil(BNParams(4, 0, 3, 0))
    assert exists_pencil(BNParams(2, 0, 2, 0))
    assert exists_pencil(BNParams(6, 6, 2, 0))
    assert exists_pencil(BNParams(7, 0, 2, 1))
    assert not exists_pencil(BNParams(11, 0, 2, 1))


def test_exists_routes_agree_on_grid():
    for epsilon in (0, 1):
        for k in range(2, 7):
            for p in range(2, 31):
                for delta in range(0, p - 2 * epsilon + 1):
                    params = BNParams(p, delta, k, epsilon)
                    assert exists_pencil(params) == exists_pencil_via_rho(params)


def test_exists_via_rho_matches_a_longer_scan():
    for epsilon in (0, 1):
        for k in (2, 4):
            for p in range(2, 25):
                for delta in (0, 1, p // 2, p):
                    if delta > p - 2 * epsilon:
                        continue
                    params = BNParams(p, delta, k, epsilon)
                    scan = reference.pencil_scan(*params, params.alpha + 10)
                    assert (exists_pencil_via_rho(params) == scan
                            == reference.pencil(*params)), params


@st.composite
def _near_wall_params(draw) -> BNParams:
    """k <= 1e5 and p <= 1e12, with the genus g = p - delta drawn near
    2*sqrt(h*p), where pencils start to exist."""
    epsilon = draw(st.integers(0, 1))
    k = draw(st.integers(2, 10**5))
    p = draw(st.integers(2, 10**12))
    h = k - 1 + 2 * epsilon
    g = isqrt(4 * h * p) + draw(st.integers(-3 * h, 3 * h))
    return BNParams(p, p - min(max(g, 2 * epsilon), p), k, epsilon)


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(_near_wall_params())
def test_exists_via_rho_closed_form_at_large_parameters(params):
    exists = exists_pencil_via_rho(params)
    assert exists == exists_pencil(params)
    if params.alpha <= 10**4:
        assert exists == reference.pencil_scan(*params, params.alpha + 10)
    assert exists == reference.pencil(*params)


def test_exists_via_rho_is_constant_work(monkeypatch):
    # At most two Brill-Noether numbers per point, at any p; a scan over
    # l = 0..alpha + 2 makes alpha + 3 ~ sqrt(p) where the pencil exists.
    calls = [0]

    def counted(*args):
        calls[0] += 1
        return bn_rho(*args)

    with_pencil = 0
    for p in (10**2, 10**4, 10**6):
        for j in range(-3, 4):
            # BNParams computes rho at construction, outside the count.
            params = BNParams(p, p - isqrt(4 * p) - j, 2, 0)
            with monkeypatch.context() as mp:
                mp.setattr(curves, "bn_rho", counted)
                calls[0] = 0
                exists = exists_pencil_via_rho(params)
            assert exists == exists_pencil(params)
            assert calls[0] <= 2, (params, calls[0])
            with_pencil += exists
    assert with_pencil >= 9


def test_bn_dims_examples():
    assert bn_dims(BNParams(4, 0, 3, 0)) == (4, 0)
    assert bn_dims(BNParams(2, 0, 2, 0)) == (2, 0)
    assert bn_dims(BNParams(6, 6, 2, 0)) == (0, 2)
    with pytest.raises(DomainError):
        bn_dims(BNParams(6, 0, 2, 0))


def test_curve_class_and_dual_divisor():
    # The dual of l*L + r*r_k is l*L + (r/div(e))*e: here L - (3/2)*e.
    params = BNParams(4, 0, 3, 0)
    ctx = params.context()
    curve = curve_class(params)
    assert curve == CurveClass(1, -6) and ctx.ek_div == 4
    assert ratio_str(Ratio(curve.r, ctx.ek_div)) == "-3/2"
    # div(e) times the dual is integral, with div(e)^2 times its square,
    # and the dual has the same square as the curve class.
    dual = DivisorClass(ctx.ek_div * curve.l, curve.r)
    assert (Fraction(dual.square(ctx), ctx.ek_div ** 2)
            == Fraction(*curve.square(ctx)) == -3)

    params = BNParams(2, 0, 2, 0)
    curve = curve_class(params)
    assert curve == CurveClass(1, -3)
    assert ratio_str(Ratio(curve.r, params.context().ek_div)) == "-3/2"


def test_square_examples():
    rep = curve_square(BNParams(2, 0, 2, 0))
    assert Fraction(*rep.value) == Fraction(-5, 2)
    assert rep.minimal
    assert (rep.alpha, rep.beta, rep.rho) == (1, 1, 0)

    rep = curve_square(BNParams(4, 0, 3, 0))
    # Both forms over 2h = 4, not reduced.
    assert rep.value == rep.rewritten == Ratio(-12, 4)
    assert type(rep.value) is Ratio and type(rep.rewritten) is Ratio
    assert Fraction(*rep.value) == -3
    assert rep.minimal

    rep = curve_square(BNParams(6, 6, 2, 0))
    assert Fraction(*rep.value) == Fraction(19, 2)
    assert not rep.minimal

    rep = curve_square(BNParams(8, 1, 4, 0))
    assert Fraction(*rep.value) == Fraction(-8, 3)
    assert not rep.minimal

    rep = curve_square(BNParams(7, 0, 2, 1))
    assert Fraction(*rep.value) == Fraction(-3, 2)
    assert rep.minimal


def test_minimal_square_bound_values():
    # q(R) at the characteristic point alpha = 1 (p = 2h + epsilon,
    # delta = 0), which attains the bound.
    for k, epsilon, value in ((2, 0, Fraction(-5, 2)), (3, 0, -3),
                              (2, 1, Fraction(-3, 2)),
                              (10, 0, Fraction(-13, 2))):
        h = k - 1 + 2 * epsilon
        rep = curve_square(BNParams(2 * h + epsilon, 0, k, epsilon))
        assert rep.minimal
        assert (Fraction(*rep.value) == value
                == reference.minimal_square_bound(k, epsilon))


def test_square_forms_agree_and_bound_holds_on_grid():
    for epsilon in (0, 1):
        for k in range(2, 7):
            bound = reference.minimal_square_bound(k, epsilon)
            for p in range(2, 31):
                for delta in range(0, p - 2 * epsilon + 1):
                    params = BNParams(p, delta, k, epsilon)
                    rep = curve_square(params)  # two independent formulas
                    assert Fraction(*rep.value) == Fraction(*rep.rewritten)
                    if exists_pencil(params):
                        assert Fraction(*rep.value) >= bound
                        assert rep.minimal == (Fraction(*rep.value) == bound)


def test_minimal_characterization_parameters():
    # p = a(a+1)h + epsilon, delta = a(a-1)h attains the bound for a >= 1
    for epsilon in (0, 1):
        for k in range(2, 7):
            h = k - 1 + 2 * epsilon
            for a in range(1, 4):
                p = a * (a + 1) * h + epsilon
                delta = a * (a - 1) * h
                if p < 2 or delta > p - 2 * epsilon:
                    continue
                params = BNParams(p, delta, k, epsilon)
                assert exists_pencil(params)
                rep = curve_square(params)
                assert rep.minimal
                assert (Fraction(*rep.value)
                        == reference.minimal_square_bound(k, epsilon))


def test_is_wall_by_square():
    wall_square = CHECKS["wall-square"]
    assert wall_square(Point(Row(0, 2, 2), 0)) == (
        True, '"q_R": "-5/2", "is_wall": true')
    assert wall_square(Point(Row(0, 2, 6), 6)) == (
        True, '"q_R": "19/2", "is_wall": false')
    assert wall_square(Point(Row(0, 2, 6), 0)) is None  # no pencil


def test_square_value_is_genus_formula():
    # q(R) = 2p - 2 - (g + k - 1 + epsilon)^2 / (2(k - 1 + 2 epsilon))
    for epsilon in (0, 1):
        for k in (2, 3, 5):
            for p in range(2, 20):
                for delta in (0, 1, 2):
                    if delta > p - 2 * epsilon:
                        continue
                    params = BNParams(p, delta, k, epsilon)
                    assert (Fraction(*curve_square(params).value)
                            == reference.curve_square(p, delta, k, epsilon))
