"""Property tests at large parameters (k <= 1e5, p <= 1e10): the integer
square path, the scan path's integer square and divisor, and the `class`
record's dual divisor, against Fraction references, and pencil existence
on every catalog state."""

from __future__ import annotations

import contextlib
import io
import json
from fractions import Fraction
from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

from wallkit.checks import Point, Row
from wallkit.cli import main
from wallkit.curves import BNParams, curve_class, curve_square, exists_pencil
from wallkit.model import DivisorClass, Ratio, divisor_divisibility
from wallkit.walls import (primitive_dual_divisor, primitive_integral_divisor,
                           span_stage, witness_stage)

import reference

K_MAX, P_MAX = 10**5, 10**10

_settings = settings(derandomize=True, database=None, deadline=None,
                     max_examples=300)


@st.composite
def _random_params(draw):
    eps = draw(st.integers(0, 1))
    k = draw(st.integers(2, K_MAX))
    p = draw(st.integers(2, P_MAX))
    delta = draw(st.integers(0, p - 2 * eps))
    return BNParams(p, delta, k, eps)


@st.composite
def _minimal_params(draw):
    """The points p = a(a+1)h + eps, delta = a(a-1)h where the square
    attains -(k + 3 - 2*eps)/2 (a <= 300 keeps p below 1e10)."""
    eps = draw(st.integers(0, 1))
    k = draw(st.integers(2, K_MAX))
    a = draw(st.integers(1, 300))
    h = k - 1 + 2 * eps
    return BNParams(a * (a + 1) * h + eps, a * (a - 1) * h, k, eps)


_params = st.one_of(_random_params(), _minimal_params())


@_settings
@given(_params)
def test_curve_square_matches_fraction_reference(params):
    p, delta, k, eps = params.p, params.delta, params.k, params.epsilon
    h = k - 1 + 2 * eps
    alpha = (p - delta - eps) // (2 * h)
    beta = (2 * alpha + 1) * h - p + delta + eps
    rho = reference.bn_rho(p, alpha, (k + eps) * alpha + delta)
    value = reference.curve_square(p, delta, k, eps)
    rewritten = (2 * (rho + eps * alpha * (alpha + 2) + eps - 1)
                 - Fraction(beta * beta, 2 * h))
    minimal = (p == alpha * (alpha + 1) * h + eps
               and delta == alpha * (alpha - 1) * h)

    report = curve_square(params)
    assert type(report.value) is Ratio and type(report.rewritten) is Ratio
    assert report.value.denominator == report.rewritten.denominator == 2 * h
    assert (Fraction(*report.value), Fraction(*report.rewritten),
            *report[2:]) == (value, rewritten, minimal, alpha, beta, rho)
    assert value == Fraction(*curve_class(params).square(params.context()))
    if reference.pencil(p, delta, k, eps):
        assert minimal == (value == reference.minimal_square_bound(k, eps))


@_settings
@given(_params)
def test_wall_test_q_divisor_is_divisor_square(params):
    ctx = params.context()
    curve = curve_class(params)
    # q(D) does not depend on the witnesses; skipping the O(q(v)) line walk
    # (a patched walk that finds no witness) keeps each example O(1) at k up
    # to 1e5.
    with mock.patch("wallkit.walls._witness_walk", return_value=None):
        verdict = witness_stage(span_stage(curve, ctx), ctx.epsilon)
    assert type(verdict.q_divisor) is int
    assert verdict.q_divisor == verdict.divisor.square(ctx)
    assert (verdict.divisor, verdict.divisor_div) == \
        primitive_dual_divisor(curve, ctx)
    assert (verdict.span is None) == (verdict.q_divisor >= 0)


@_settings
@given(_params)
def test_scan_path_integers_match_fraction_reference(params):
    ctx = params.context()
    pt = Point(Row(params.epsilon, params.k, params.p), params.delta)
    report = curve_square(params)
    num, den = pt.square
    assert type(num) is int and den == 2 * params.half_div
    q_r = Fraction(*report.value)
    assert Fraction(num, den) == q_r
    assert pt.q_r == f"{q_r.numerator}/{q_r.denominator}"
    if pt.pencil:
        assert report.minimal == (
            q_r == reference.minimal_square_bound(params.k, params.epsilon))
    # As in the test above, the witness walk is skipped: it does not touch
    # the divisor or q(D).
    with mock.patch("wallkit.walls._witness_walk", return_value=None):
        verdict = pt.verdict
    divisor = verdict.divisor
    assert type(divisor.l) is int and type(divisor.e) is int
    assert type(verdict.q_divisor) is int
    assert verdict.q_divisor == divisor.square(ctx)
    assert verdict.divisor_div == divisor_divisibility(divisor, ctx)
    assert (divisor.l, divisor.e) == reference.primitive_dual_divisor(
        pt.curve.l, pt.curve.r, ctx.ek_div)
    # The dual divisor l*L + (r/2h)*e, given as 2h times itself.
    curve = pt.curve
    dual = DivisorClass(2 * params.half_div * curve.l, curve.r)
    assert primitive_integral_divisor(dual) == divisor


@_settings
@given(_params)
def test_class_record_dual_divisor_matches_fraction_reference(params):
    # The `class` record writes the dual of l*L + r*r_k, l*L + (r/2h)*e,
    # from the curve class; the reference is the Fraction r/2h.
    p, delta, k, eps = params
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = main(["class", "--epsilon", str(eps), "--k", str(k),
                   "--p", str(p), "--delta", str(delta)])
    assert rc == 0
    record = json.loads(out.getvalue())
    curve = curve_class(params)
    e = Fraction(curve.r, 2 * params.half_div)
    assert record["dual_divisor"] == {
        "l": f"{curve.l}/1", "e": f"{e.numerator}/{e.denominator}"}


@st.composite
def _catalog_params(draw):
    """A state the catalog can reach: 2 <= p <= 2k - 2 + 5*eps (the seed p)
    and 0 <= delta <= p - 2*eps."""
    eps = draw(st.integers(0, 1))
    k = draw(st.integers(2, K_MAX))
    p = draw(st.integers(2, 2 * k - 2 + 5 * eps))
    delta = draw(st.integers(0, p - 2 * eps))
    return BNParams(p, delta, k, eps)


@_settings
@given(_catalog_params())
def test_every_catalog_state_has_a_pencil(params):
    # Why generate_catalog needs no existence filter: alpha <= 1 here.
    assert params.alpha <= 1
    assert exists_pencil(params)
