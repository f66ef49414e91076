"""Dimension bookkeeping for coisotropic subvariety constructions.

Three families of codimension-r subvarieties covered by rational curves:
projective-bundle loci over sheaf moduli ("proj_bundle"), pushforwards of
nodal-curve families ("severi_family"), and relative symmetric products of
curve families ("sym_prod").  Descriptors store the codimension and the
line class and derive the dimensions and q(line); no geometry is
constructed.
"""

from __future__ import annotations

from typing import Iterator, NamedTuple

from .catalog import seed_lattice
from .curves import BNParams, curve_class
from .model import CurveClass, Ratio, SurfaceContext, moduli_dim, sheaf_vector


class SubvarietyDescriptor(NamedTuple):
    """A codimension-r locus in the 2k-dimensional manifold, fibred in
    r-dimensional fibres over a base of dimension 2(k - r)."""

    source: str           # "proj_bundle" | "severi_family" | "sym_prod"
    codim: int
    line_class: CurveClass
    p: int
    k: int
    epsilon: int
    delta: int | None = None
    k_prime: int | None = None
    moduli_space_dim: int | None = None

    @property
    def fiber_dim(self) -> int:
        return self.codim

    @property
    def base_dim(self) -> int:
        return 2 * (self.k - self.codim)

    @property
    def total_dim(self) -> int:
        return 2 * self.k - self.codim

    @property
    def line_square(self) -> Ratio:
        """q(line) over div(e), not reduced."""
        return self.line_class.square(
            SurfaceContext(self.epsilon, self.p, self.k))


def chi_value(p: int, delta: int, k: int, epsilon: int) -> int:
    chi, _ = sheaf_vector(p, delta, k, epsilon)
    return chi


def bundle_bound_holds(p: int, delta: int, k: int, epsilon: int) -> bool:
    """max{2*delta+2, 4*epsilon} <= chi <= delta + k + 1."""
    return _chi_window(chi_value(p, delta, k, epsilon), delta, k, epsilon)


def _chi_window(chi: int, delta: int, k: int, epsilon: int) -> bool:
    return max(2 * delta + 2, 4 * epsilon) <= chi <= delta + k + 1


def bundle_locus(p: int, delta: int, k: int,
                 epsilon: int) -> SubvarietyDescriptor | None:
    """Projective-bundle locus covered by curves of class R: a P^{chi-2*delta-1}
    bundle over a symplectic base of dimension 2(k+1+2*delta-chi), which is
    dim M + 2*delta - 2*epsilon; None when the chi window fails."""
    params = BNParams(p, delta, k, epsilon)  # validates every argument
    chi = chi_value(p, delta, k, epsilon)
    if not _chi_window(chi, delta, k, epsilon):
        return None
    return _proj_bundle(params, chi - 2 * delta - 1)


def _proj_bundle(params: BNParams, codim: int) -> SubvarietyDescriptor:
    """The projective-bundle descriptor of codimension codim at params."""
    p, delta, k, epsilon = params
    return SubvarietyDescriptor(
        source="proj_bundle", codim=codim, line_class=curve_class(params),
        p=p, k=k, epsilon=epsilon, delta=delta,
        moduli_space_dim=moduli_dim(p, delta, k, epsilon))


def _ceil_div(a: int, b: int) -> int:
    return -((-a) // b)


def nodal_family_loci(p: int, k: int, epsilon: int
                      ) -> Iterator[tuple[int, int, SubvarietyDescriptor]]:
    """All (r, delta) supporting a codimension-r subvariety covered by nodal
    curves pushed forward from a smaller Hilbert scheme, each yielded with
    its descriptor as soon as it is built, by r and then delta ascending;
    lines have class L - [2(p-2*delta-2*epsilon)-r+1]*r_k.  The arguments
    are checked now, by `SurfaceContext`; the loci follow lazily."""
    SurfaceContext(epsilon, p, k)
    return _nodal_loci(p, k, epsilon)


def _nodal_loci(p: int, k: int, epsilon: int
                ) -> Iterator[tuple[int, int, SubvarietyDescriptor]]:
    m = p - 5 * epsilon
    # r <= min{2k-5-m/2, m/2+1}, resolved by exact halving
    r_top = min(2 * k - 5 - _ceil_div(m, 2), m // 2 + 1)
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
            yield r, delta, SubvarietyDescriptor(
                source="severi_family", codim=r,
                line_class=CurveClass(1, -coeff),
                p=p, k=k, epsilon=epsilon, delta=delta,
                k_prime=m - 3 * delta + 2 - r)


def series_family_loci(p: int, k: int, epsilon: int
                       ) -> Iterator[tuple[int, int, SubvarietyDescriptor]]:
    """All (r, k') supporting a codimension-r subvariety from relative
    symmetric products, each yielded with its descriptor as soon as it is
    built, by r and then k' ascending; lines have class
    L - [2(k'+epsilon)-r-1]*r_k and the rational quotient of the
    subvariety is the base, of dimension 2(k-r).  The arguments are
    checked now, by `SurfaceContext`; the loci follow lazily."""
    SurfaceContext(epsilon, p, k)
    return _series_loci(p, k, epsilon)


def _series_loci(p: int, k: int, epsilon: int
                 ) -> Iterator[tuple[int, int, SubvarietyDescriptor]]:
    for r in range(1, k - epsilon + 1):
        for k_prime in range(r + epsilon, min(k, p + r - epsilon) + 1):
            coeff = 2 * (k_prime + epsilon) - r - 1
            yield r, k_prime, SubvarietyDescriptor(
                source="sym_prod", codim=r,
                line_class=CurveClass(1, -coeff),
                p=p, k=k, epsilon=epsilon,
                delta=p - (k_prime - r + epsilon), k_prime=k_prime)


def lagrangian_plane(k: int, epsilon: int) -> tuple[int, int, SubvarietyDescriptor]:
    """Parameters (p, delta) = (2(k-1)+5*epsilon, 0), the catalog's seed
    (`seed_lattice`, which checks k and epsilon first), where the curve class
    attains the minimal square -(k+3-2*epsilon)/2 and moves as a line in an
    embedded P^k; the moduli space there has dimension 2*epsilon.  It is
    `bundle_locus`'s descriptor without the chi window (which fails at
    (k, epsilon) = (2, 1)): chi = k + 1 there, so the codimension
    chi - 2*delta - 1 is k."""
    _, p, delta = seed_lattice(k, epsilon)
    return p, delta, _proj_bundle(BNParams(p, delta, k, epsilon), k)
