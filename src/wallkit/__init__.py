"""Exact-arithmetic wall-divisor decisions for Hilbert schemes of points
on K3 surfaces and for generalised Kummer manifolds.

Everything is computed with integers: a rational is an integer numerator
over a known denominator (`Ratio`), and no floating point is used
anywhere.
"""

from __future__ import annotations

from .binforms import (
    DegenerateFormError,
    ReductionBudgetError,
    canonical_form,
    class_id,
    rank2_isometric,
)
from .catalog import (
    CatalogEntry,
    entry_line,
    export_catalog,
    generate_catalog,
    iter_catalog,
    seed_lattice,
)
from .curves import (
    BNParams,
    SquareReport,
    bn_dims,
    curve_class,
    curve_square,
    exists_pencil,
    exists_pencil_via_rho,
)
from .model import (
    CurveClass,
    DivisorClass,
    DomainError,
    Ratio,
    SurfaceContext,
    divisor_divisibility,
    moduli_vector,
)
from .subvarieties import (
    SubvarietyDescriptor,
    bundle_locus,
    lagrangian_plane,
    nodal_family_loci,
    series_family_loci,
)
from .walls import (
    SpanLattice,
    WallVerdict,
    Witness,
    box_witnesses,
    enumerate_witnesses,
    primitive_dual_divisor,
    primitive_integral_divisor,
    saturated_span,
)

__version__ = "0.1.0"

__all__ = [
    "BNParams",
    "CatalogEntry",
    "CurveClass",
    "DegenerateFormError",
    "DivisorClass",
    "DomainError",
    "Ratio",
    "ReductionBudgetError",
    "SpanLattice",
    "SquareReport",
    "SubvarietyDescriptor",
    "SurfaceContext",
    "WallVerdict",
    "Witness",
    "bn_dims",
    "box_witnesses",
    "bundle_locus",
    "canonical_form",
    "class_id",
    "curve_class",
    "curve_square",
    "divisor_divisibility",
    "entry_line",
    "enumerate_witnesses",
    "exists_pencil",
    "exists_pencil_via_rho",
    "export_catalog",
    "generate_catalog",
    "iter_catalog",
    "lagrangian_plane",
    "moduli_vector",
    "nodal_family_loci",
    "primitive_dual_divisor",
    "primitive_integral_divisor",
    "rank2_isometric",
    "saturated_span",
    "seed_lattice",
    "series_family_loci",
]
