"""Dimension bookkeeping for coisotropic subvariety constructions.

Three families of codimension-r subvarieties covered by rational curves:
projective-bundle loci over sheaf moduli ("proj_bundle"), pushforwards of
nodal-curve families ("severi_family"), and relative symmetric products of
curve families ("sym_prod").  Descriptors record dimensions and line
classes only; no geometry is constructed.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .curves import BNParams, curve_class, curve_square, minimal_square_bound
from .model import CurveClass, SurfaceContext, moduli_dim, sheaf_vector


@dataclass(frozen=True)
class SubvarietyDescriptor:
    source: str           # "proj_bundle" | "severi_family" | "sym_prod"
    codim: int
    fiber_dim: int
    base_dim: int
    total_dim: int
    line_class: CurveClass
    line_square: Fraction
    p: int
    k: int
    epsilon: int
    delta: int | None = None
    k_prime: int | None = None
    moduli_space_dim: int | None = None

    def __post_init__(self) -> None:
        if (self.total_dim != self.fiber_dim + self.base_dim
                or self.total_dim + self.codim != 2 * self.k):
            raise AssertionError(f"inconsistent dimensions in {self}")


def chi_value(p: int, delta: int, k: int, epsilon: int) -> int:
    chi, _ = sheaf_vector(p, delta, k, epsilon)
    return chi


def bundle_bound_holds(p: int, delta: int, k: int, epsilon: int) -> bool:
    """max{2*delta+2, 4*epsilon} <= chi <= delta + k + 1."""
    chi = chi_value(p, delta, k, epsilon)
    return max(2 * delta + 2, 4 * epsilon) <= chi <= delta + k + 1


def bundle_locus(p: int, delta: int, k: int,
                 epsilon: int) -> SubvarietyDescriptor | None:
    """Projective-bundle locus covered by curves of class R: a P^{chi-2*delta-1}
    bundle over a symplectic base of dimension 2(k+1+2*delta-chi); None when
    the chi window fails."""
    params = BNParams(p, delta, k, epsilon)  # validates every argument
    if not bundle_bound_holds(p, delta, k, epsilon):
        return None
    chi = chi_value(p, delta, k, epsilon)
    r = chi - 2 * delta - 1
    base = 2 * (k + 1 + 2 * delta - chi)
    dim_m = moduli_dim(p, delta, k, epsilon)
    # base accounts for the nodes and (epsilon=1) the Albanese correction
    if base != dim_m + 2 * delta - 2 * epsilon:
        raise AssertionError(f"bundle base dimension {base} disagrees with "
                             f"the moduli dimension at {params}")
    return SubvarietyDescriptor(
        source="proj_bundle", codim=r, fiber_dim=r, base_dim=base,
        total_dim=2 * k - r, line_class=curve_class(params),
        line_square=curve_square(params).value,
        p=p, k=k, epsilon=epsilon, delta=delta, moduli_space_dim=dim_m)


def _ceil_div(a: int, b: int) -> int:
    return -((-a) // b)


def nodal_family_loci(p: int, k: int,
                      epsilon: int) -> list[tuple[int, int, SubvarietyDescriptor]]:
    """All (r, delta) supporting a codimension-r subvariety covered by nodal
    curves pushed forward from a smaller Hilbert scheme; lines have class
    L - [2(p-2*delta-2*epsilon)-r+1]*r_k."""
    ctx = SurfaceContext(epsilon, p, k)
    m = p - 5 * epsilon
    # r <= min{2k-5-m/2, m/2+1}, resolved by exact halving
    r_top = min(2 * k - 5 - _ceil_div(m, 2), m // 2 + 1)
    out = []
    for r in range(1, r_top + 1):
        if epsilon == 1 and r == 1 and p < 9:
            continue
        if epsilon == 1 and r == 2 and p < 11:
            continue
        d_lo = max(0, _ceil_div(m + 2 - r - k, 3))
        if epsilon == 1 and r <= 2:
            d_lo = max(d_lo, 1)
        d_hi = (m + 2 - 2 * r) // 4
        for delta in range(d_lo, d_hi + 1):
            coeff = 2 * (p - 2 * delta - 2 * epsilon) - r + 1
            line = CurveClass(1, -coeff)
            desc = SubvarietyDescriptor(
                source="severi_family", codim=r, fiber_dim=r,
                base_dim=2 * (k - r), total_dim=2 * k - r,
                line_class=line,
                line_square=line.square(ctx),
                p=p, k=k, epsilon=epsilon, delta=delta,
                k_prime=m - 3 * delta + 2 - r)
            out.append((r, delta, desc))
    return out


def series_family_loci(p: int, k: int,
                       epsilon: int) -> list[tuple[int, int, SubvarietyDescriptor]]:
    """All (r, k') supporting a codimension-r subvariety from relative
    symmetric products; lines have class L - [2(k'+epsilon)-r-1]*r_k and the
    rational quotient of the subvariety has dimension 2(k-r)."""
    ctx = SurfaceContext(epsilon, p, k)
    out = []
    for r in range(1, k - epsilon + 1):
        for k_prime in range(r + epsilon, min(k, p + r - epsilon) + 1):
            coeff = 2 * (k_prime + epsilon) - r - 1
            line = CurveClass(1, -coeff)
            desc = SubvarietyDescriptor(
                source="sym_prod", codim=r, fiber_dim=r,
                base_dim=2 * (k - r), total_dim=2 * k - r,
                line_class=line,
                line_square=line.square(ctx),
                p=p, k=k, epsilon=epsilon,
                delta=p - (k_prime - r + epsilon), k_prime=k_prime)
            out.append((r, k_prime, desc))
    return out


def lagrangian_plane(k: int, epsilon: int) -> tuple[int, int, SubvarietyDescriptor]:
    """Parameters (p, delta) = (2(k-1)+5*epsilon, 0) where the curve class
    attains the minimal square and moves as a line in an embedded P^k."""
    p = 2 * (k - 1) + 5 * epsilon
    delta = 0
    params = BNParams(p, delta, k, epsilon)
    report = curve_square(params)
    if report.value != minimal_square_bound(k, epsilon) or not report.minimal:
        raise AssertionError(f"curve square is not minimal at {params}")
    dim_m = moduli_dim(p, delta, k, epsilon)
    if dim_m != 2 * epsilon:
        raise AssertionError(f"moduli dimension {dim_m} != {2 * epsilon}")
    desc = SubvarietyDescriptor(
        source="proj_bundle", codim=k, fiber_dim=k, base_dim=0,
        total_dim=k, line_class=curve_class(params),
        line_square=report.value,
        p=p, k=k, epsilon=epsilon, delta=delta, moduli_space_dim=dim_m)
    return p, delta, desc
