"""Brill-Noether data for delta-nodal curves in the polarization system.

Parameters are (p, delta, k, epsilon): genus p of the polarization, number
of nodes delta, number of points k, surface type epsilon.  The normalized
curves have genus g = p - delta and carry pencils of degree k + epsilon.
"""

from __future__ import annotations

from typing import NamedTuple

from .model import (
    CurveClass,
    DomainError,
    Ratio,
    SurfaceContext,
    _make_through_new,
    _require_ints,
    _shown,
)


def bn_rho(p: int, r: int, d: int) -> int:
    """Brill-Noether number rho(p, r, d) = p - (r+1)(p - d + r)."""
    return p - (r + 1) * (p - d + r)


def _bound_num(k: int, epsilon: int) -> int:
    """-(k + 3 - 2*epsilon): the minimal-square bound is this over 2, or
    this times half_div over 2*half_div."""
    return -(k + 3 - 2 * epsilon)


def _square(p: int, delta: int, k: int, epsilon: int) -> Ratio:
    """q(R) = 2(p - 1) - n^2/(2*half_div) of the parameter set, with
    n = p - delta + k - 1 + epsilon, over 2*half_div and not reduced.  The
    parameters are not validated; `wallkit.checks` compares the value with
    `_rewritten`.
    """
    h = k - 1 + 2 * epsilon
    n = p - delta + k - 1 + epsilon
    return Ratio(4 * (p - 1) * h - n * n, 2 * h)


def _rewritten(params: BNParams) -> int:
    """The Brill-Noether form 2*(rho + epsilon*alpha*(alpha+2) + epsilon - 1)
    - beta^2/(2*half_div) of q(R), as its numerator over 2*half_div."""
    a, e = params.alpha, params.epsilon
    return (4 * (params.rho + e * a * (a + 2) + e - 1) * params.half_div
            - params.beta * params.beta)


class _BNFields(NamedTuple):
    p: int
    delta: int
    k: int
    epsilon: int


class BNParams(_BNFields):
    """One parameter set (p, delta, k, epsilon), validated.  The values
    derived from it (half_div, the geometric genus g, alpha, beta, rho and
    the context) are computed once, at construction, and kept as
    attributes outside the tuple, so equality, hash and repr see only the
    four parameters.  beta lies in (-half_div, half_div] for every
    admissible parameter set."""

    def __new__(cls, p: int, delta: int, k: int, epsilon: int) -> BNParams:
        return cls.on(SurfaceContext(epsilon, p, k), delta)

    @classmethod
    def on(cls, ctx: SurfaceContext, delta: int) -> BNParams:
        """The parameter set of delta on a validated context, which it
        keeps: the delta points of one (epsilon, k, p) row can share one."""
        epsilon, p, k = ctx
        _require_ints(delta=delta)
        if not 0 <= delta <= p - 2 * epsilon:
            raise DomainError(
                "constraint violated: 0 <= delta <= p - 2*epsilon "
                f"(got delta={_shown(delta)}, p={_shown(p)}, epsilon={_shown(epsilon)})")
        self = super().__new__(cls, p, delta, k, epsilon)
        h, g = k - 1 + 2 * epsilon, p - delta
        a = (g - epsilon) // (2 * h)
        self.__dict__.update(
            half_div=h, g=g, alpha=a, beta=(2 * a + 1) * h - g + epsilon,
            rho=bn_rho(p, a, (k + epsilon) * a + delta), _context=ctx)
        return self

    _make = classmethod(_make_through_new)

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"BNParams is immutable: cannot set {name!r}")

    def context(self) -> SurfaceContext:
        return self._context


def _minimal_point(params: BNParams) -> bool:
    """Whether the parameters are the characteristic point
    p = alpha*(alpha+1)*half_div + epsilon, delta = alpha*(alpha-1)*half_div,
    where q(R) attains the minimal-square bound if the pencil exists."""
    a, h, epsilon = params.alpha, params.half_div, params.epsilon
    return (params.p == a * (a + 1) * h + epsilon
            and params.delta == a * (a - 1) * h)


def exists_pencil(params: BNParams) -> bool:
    """Existence of delta-nodal curves whose normalizations carry a pencil
    of degree k + epsilon: delta >= alpha*(p - delta - epsilon - (alpha+1)*half_div).
    It takes a `BNParams`."""
    a = params.alpha
    return params.delta >= a * (params.p - params.delta - params.epsilon
                                - (a + 1) * params.half_div)


def exists_pencil_via_rho(params: BNParams) -> bool:
    """Same decision through the Brill-Noether inequality
    f(l) = rho(p, l, (k+epsilon)*l + delta) + epsilon*l*(l+2) >= 0 for all
    integers l >= 0.  It takes a `BNParams`.

    With g = p - delta and h = k - 1 + 2*epsilon, expanding `bn_rho` gives
    f(l) = h*l^2 + (h + epsilon - g)*l + (p - g), a convex quadratic
    (h >= 1) with its vertex at l* = (g - h - epsilon)/(2h).  Over the
    integers a convex function is least at floor(l*) or floor(l*) + 1, and
    over l >= 0 at 0 when l* < 0.  As g >= 2*epsilon, l* >= -1/2, so
    floor(l*) >= -1, and the values of f at the integers from
    max(floor(l*), 0) to floor(l*) + 1 (one or two) decide the inequality
    for every l >= 0.
    """
    p, delta, k, epsilon = params
    l0 = (params.g - params.half_div - epsilon) // (2 * params.half_div)
    return all(bn_rho(p, l, (k + epsilon) * l + delta) + epsilon * l * (l + 2)
               >= 0 for l in range(max(l0, 0), l0 + 2))


def bn_dims(params: BNParams) -> tuple[int, int]:
    """(dimension of the nodal locus, dimension of the pencil variety).  It
    takes a `BNParams`, and raises a DomainError where no pencil exists."""
    if not exists_pencil(params):
        raise DomainError(
            f"no pencil exists for (p, delta, k, epsilon)="
            f"{_shown(params)}")
    locus = min(params.p - params.delta, 2 * (params.k - 1 + params.epsilon))
    pencils = max(0, 2 * (params.k - 1 + params.epsilon) - params.g)
    return locus, pencils


def curve_class(params: BNParams) -> CurveClass:
    """Class L - (p - delta + k - 1 + epsilon) * r of the rational curves;
    it takes a `BNParams`."""
    return CurveClass(1, -(params.g + params.k - 1 + params.epsilon))


class SquareReport(NamedTuple):
    value: Ratio         # q(R) over 2*half_div, not reduced
    rewritten: Ratio     # Brill-Noether form of the same number
    minimal: bool        # q equals the lower bound -(k + 3 - 2*epsilon)/2
    alpha: int
    beta: int
    rho: int


def curve_square(params: BNParams) -> SquareReport:
    """Exact square of curve_class(params) in its two equivalent forms,
    each computed by its own formula (`_square` and `_rewritten`), both
    over 2*half_div.  It takes a `BNParams`."""
    value = _square(params.p, params.delta, params.k, params.epsilon)
    return SquareReport(value, Ratio(_rewritten(params), value.denominator),
                        _minimal_point(params), params.alpha, params.beta,
                        params.rho)
