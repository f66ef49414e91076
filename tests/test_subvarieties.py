"""Unit tests for coisotropic subvariety descriptors."""

from __future__ import annotations

from fractions import Fraction

import pytest

from wallkit.curves import BNParams, curve_square
from wallkit.model import (
    CurveClass,
    DomainError,
    Ratio,
    SurfaceContext,
    moduli_dim,
)
from wallkit.subvarieties import (
    SubvarietyDescriptor,
    bundle_bound_holds,
    bundle_locus,
    chi_value,
    lagrangian_plane,
    nodal_family_loci,
    series_family_loci,
)


def test_chi_examples():
    assert chi_value(8, 1, 4, 0) == 6
    assert chi_value(7, 0, 2, 1) == 3
    assert chi_value(4, 0, 3, 0) == 4


def test_bundle_bound():
    assert bundle_bound_holds(8, 1, 4, 0)
    assert bundle_bound_holds(4, 0, 3, 0)
    assert not bundle_bound_holds(6, 0, 2, 0)   # chi = 7 > k + 1 + delta
    assert not bundle_bound_holds(7, 0, 2, 1)   # chi = 3 < 4*epsilon
    assert bundle_bound_holds(11, 0, 5, 1)


def test_bundle_locus_examples():
    desc = bundle_locus(8, 1, 4, 0)
    assert desc is not None
    assert (desc.codim, desc.fiber_dim, desc.base_dim, desc.total_dim) == (3, 3, 2, 5)
    assert desc.line_class == CurveClass(1, -10)
    # q(line) over div(e) = 6, not reduced.
    assert desc.line_square == Ratio(-16, 6)
    assert Fraction(*desc.line_square) == Fraction(-8, 3)
    assert desc.moduli_space_dim == 0
    assert desc.source == "proj_bundle"
    fields = ("proj_bundle", 3, CurveClass(1, -10), 8, 4, 0, 1, None, 0)
    assert desc == bundle_locus(8, 1, 4, 0)
    assert desc == SubvarietyDescriptor(
        source="proj_bundle", codim=3, line_class=CurveClass(1, -10), p=8,
        k=4, epsilon=0, delta=1, moduli_space_dim=0)
    assert hash(desc) == hash(fields)
    assert desc != SubvarietyDescriptor(*fields[:7], 0, 0)

    desc = bundle_locus(4, 0, 3, 0)
    assert desc is not None
    assert (desc.codim, desc.base_dim, desc.total_dim) == (3, 0, 3)

    assert bundle_locus(6, 0, 2, 0) is None

    desc = bundle_locus(11, 0, 5, 1)
    assert desc is not None
    assert (desc.codim, desc.base_dim, desc.total_dim) == (3, 4, 7)
    assert desc.moduli_space_dim == moduli_dim(11, 0, 5, 1) == 6

    with pytest.raises(DomainError):
        bundle_locus(4, 9, 3, 0)


def test_bundle_base_matches_moduli_dimension():
    for eps in (0, 1):
        for k in range(2, 8):
            for p in range(2, 31):
                for delta in range(0, p - 2 * eps + 1):
                    desc = bundle_locus(p, delta, k, eps)
                    if desc is None:
                        continue
                    # chi window forces a nonempty moduli space; the base is
                    # its dimension shifted by the nodes and (eps=1) the
                    # Albanese factor
                    assert desc.base_dim == (moduli_dim(p, delta, k, eps)
                                             + 2 * delta - 2 * eps)
                    assert desc.base_dim >= 0
                    assert desc.codim >= 1


def _nodal_pairs_oracle(p, k, eps):
    # re-derive the admissible (r, delta) set with Fraction arithmetic
    m = p - 5 * eps
    out = set()
    r = 1
    while True:
        if Fraction(r) > min(Fraction(2 * k - 5) - Fraction(m, 2),
                             Fraction(m, 2) + 1):
            break
        skip = (eps == 1 and r == 1 and p < 9) or \
               (eps == 1 and r == 2 and p < 11)
        if not skip:
            delta = 0
            while Fraction(delta) <= Fraction(m + 2 - 2 * r, 4):
                ok = Fraction(delta) >= Fraction(m + 2 - r - k, 3)
                if eps == 1 and r <= 2:
                    ok = ok and delta >= 1
                if ok:
                    out.add((r, delta))
                delta += 1
        r += 1
    return out


def test_nodal_family_fixed_example():
    loci = list(nodal_family_loci(14, 8, 0))
    pairs = {(r, d) for r, d, _ in loci}
    assert pairs == {(1, 3), (2, 2), (2, 3), (3, 2), (4, 2)}
    top = [(r, d, desc) for r, d, desc in loci if r == 4]
    assert len(top) == 1
    r, d, desc = top[0]
    assert d == 2
    assert desc.line_class == CurveClass(1, -17)
    assert desc.k_prime == 6
    assert (desc.codim, desc.base_dim, desc.total_dim) == (4, 8, 12)
    assert desc.source == "severi_family"


def test_nodal_family_empty_cases():
    assert list(nodal_family_loci(2, 2, 0)) == []
    assert list(nodal_family_loci(2, 3, 0)) == []


def test_nodal_family_matches_oracle():
    for eps in (0, 1):
        for k in range(2, 9):
            for p in range(2, 36):
                got = {(r, d) for r, d, _ in nodal_family_loci(p, k, eps)}
                assert got == _nodal_pairs_oracle(p, k, eps), (p, k, eps)


def test_nodal_descriptor_coefficients():
    for eps in (0, 1):
        for k in (5, 8):
            for p in range(2, 30):
                for r, delta, desc in nodal_family_loci(p, k, eps):
                    coeff = 2 * (p - 2 * delta - 2 * eps) - r + 1
                    assert desc.line_class == CurveClass(1, -coeff)
                    assert desc.k_prime == p - 5 * eps - 3 * delta + 2 - r
                    assert desc.delta == delta


def test_series_family_fixed_examples():
    loci = series_family_loci(2, 3, 0)
    by_pair = {(r, kp): desc for r, kp, desc in loci}
    assert (1, 2) in by_pair
    desc = by_pair[(1, 2)]
    assert desc.line_class == CurveClass(1, -2)
    assert desc.total_dim == 5
    assert desc.base_dim == 4  # rational quotient of the subvariety
    assert desc.source == "sym_prod"

    loci = series_family_loci(2, 3, 1)
    by_pair = {(r, kp): desc for r, kp, desc in loci}
    assert (2, 3) in by_pair
    assert by_pair[(2, 3)].line_class == CurveClass(1, -5)


def test_series_family_ranges():
    for eps in (0, 1):
        for k in range(2, 8):
            for p in range(2, 20):
                loci = list(series_family_loci(p, k, eps))
                expected = 0
                for r in range(1, k - eps + 1):
                    hi = min(k, p + r - eps)
                    expected += max(0, hi - (r + eps) + 1)
                assert len(loci) == expected
                for r, kp, desc in loci:
                    assert 1 <= r <= k - eps
                    assert r + eps <= kp <= min(k, p + r - eps)
                    assert desc.delta == p - (kp - r + eps)
                    assert desc.delta >= 0
                    assert desc.base_dim == 2 * (k - r)
                    coeff = 2 * (kp + eps) - r - 1
                    assert desc.line_class == CurveClass(1, -coeff)
                if eps == 1:
                    assert all(r < k for r, _, _ in loci)


def test_lagrangian_plane_examples():
    p, delta, desc = lagrangian_plane(3, 0)
    assert (p, delta) == (4, 0)
    assert Fraction(*desc.line_square) == -3
    assert (desc.codim, desc.fiber_dim, desc.base_dim, desc.total_dim) == (3, 3, 0, 3)
    assert desc.moduli_space_dim == 0

    p, delta, desc = lagrangian_plane(2, 1)
    assert (p, delta) == (7, 0)
    assert Fraction(*desc.line_square) == Fraction(-3, 2)
    assert desc.moduli_space_dim == 2

    p, delta, desc = lagrangian_plane(4, 0)
    assert (p, delta) == (6, 0)
    assert Fraction(*desc.line_square) == Fraction(-7, 2)


def test_lagrangian_plane_structure():
    for eps in (0, 1):
        for k in range(2, 11):
            p, delta, desc = lagrangian_plane(k, eps)
            assert p == 2 * (k - 1) + 5 * eps and delta == 0
            assert desc.total_dim == k and desc.codim == k
            assert desc.base_dim == 0
            assert desc.moduli_space_dim == 2 * eps
            h = k - 1 + 2 * eps
            assert desc.line_class == CurveClass(1, -3 * h)
            assert Fraction(*desc.line_square) == Fraction(-(k + 3 - 2 * eps), 2)
            assert curve_square(BNParams(p, delta, k, eps)).minimal
            # chi sits at the very top of the bundle window
            assert chi_value(p, delta, k, eps) == delta + k + 1
