"""Exact models for divisor and curve classes on punctual Hilbert schemes of
K3 surfaces and on generalised Kummer manifolds.

A context fixes the surface type (epsilon = 0 for K3, 1 for abelian), the
genus p of the primitive polarization (so L^2 = 2p - 2) and the number of
points k (the manifold has dimension 2k).  Divisors live in the rank-2
lattice Z*L + Z*e, where e is the exceptional class with
q(e) = -2(k - 1 + 2*epsilon) and div(e) = 2(k - 1 + 2*epsilon); curves live
in the dual lattice Z*L + Z*r with e = 2(k - 1 + 2*epsilon) * r.

For saturation computations everything is embedded into a rank-3 slice of
the even cohomology of the surface, with Mukai pairing
    <(r1, m1, s1), (r2, m2, s2)> = m1*m2*(2p - 2) - r1*s2 - s1*r2,
where the middle coordinate counts multiples of L.  The moduli vector is
v = (1, 0, 1 - 2*epsilon - k) and e corresponds to (1, 0, k - 1 + 2*epsilon);
both are orthogonal to L, q(v) = 2k - 2 + 4*epsilon = -q(e) and <v, e> = 0.
"""

from __future__ import annotations

import json
from collections.abc import Iterable
from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from typing import IO

Triple = tuple[int, int, int]


class DomainError(ValueError):
    """Input violates an operation's contract (maps to CLI exit code 2)."""


def fraction_str(x) -> str:
    """Exact "num/den" text of an int or Fraction, as written in every JSON
    record; anything without a numerator and denominator (a float, a str)
    raises TypeError."""
    try:
        return f"{x.numerator}/{x.denominator}"
    except AttributeError:
        raise TypeError(
            f"fraction_str needs an int or Fraction, got {x!r}") from None


def write_records(records: Iterable[dict], stream: IO[str]) -> int:
    """Write each record as one JSON line, as it comes; return the count."""
    count = 0
    for count, record in enumerate(records, 1):
        stream.write(json.dumps(record) + "\n")
    return count


@dataclass(frozen=True)
class SurfaceContext:
    epsilon: int
    p: int
    k: int

    def __post_init__(self) -> None:
        if self.epsilon not in (0, 1):
            raise DomainError(f"epsilon must be 0 or 1 (got {self.epsilon})")
        if self.p < 2:
            raise DomainError(f"constraint violated: p >= 2 (got p={self.p})")
        if self.k < 2:
            raise DomainError(f"constraint violated: k >= 2 (got k={self.k})")

    @property
    def l_square(self) -> int:
        return 2 * self.p - 2

    @property
    def ek_div(self) -> int:
        # div(e) = -q(e) = q(v) = 2(k - 1 + 2*epsilon)
        return 2 * (self.k - 1 + 2 * self.epsilon)


def _exact(x) -> int | Fraction:
    """An integral value as int, any other rational as Fraction."""
    f = Fraction(x)
    return f.numerator if f.denominator == 1 else f


@dataclass(frozen=True)
class DivisorClass:
    """a*L + b*e with exact rational coefficients: an integral coefficient
    is stored as int, any other as Fraction."""

    l: int | Fraction
    e: int | Fraction

    def __post_init__(self) -> None:
        if type(self.l) is not int or type(self.e) is not int:
            object.__setattr__(self, "l", _exact(self.l))
            object.__setattr__(self, "e", _exact(self.e))

    @property
    def is_integral(self) -> bool:
        return type(self.l) is int and type(self.e) is int

    def square(self, ctx: SurfaceContext) -> int | Fraction:
        """q(D); an int for an integral class."""
        return self.l * self.l * ctx.l_square - self.e * self.e * ctx.ek_div


@dataclass(frozen=True)
class CurveClass:
    """a*L + b*r with integer coefficients (r is the exceptional curve class)."""

    l: int
    r: int

    def square(self, ctx: SurfaceContext) -> Fraction:
        # q extends to the curve lattice through e = ek_div * r.
        return Fraction(self.l * self.l * ctx.l_square * ctx.ek_div
                        - self.r * self.r, ctx.ek_div)

    def as_divisor(self, ctx: SurfaceContext) -> DivisorClass:
        return DivisorClass(self.l, Fraction(self.r, ctx.ek_div))


def mukai_pairing(x: Triple, y: Triple, p: int):
    """Pairing of rank-3 triples; exact (int or Fraction)."""
    return x[1] * y[1] * (2 * p - 2) - x[0] * y[2] - x[2] * y[0]


def mukai_square(x: Triple, p: int):
    return mukai_pairing(x, x, p)


def moduli_vector(ctx: SurfaceContext) -> Triple:
    """The vector v cutting out H^2 of the moduli space; q(v) = ek_div."""
    return (1, 0, 1 - 2 * ctx.epsilon - ctx.k)


def exceptional_vector(ctx: SurfaceContext) -> Triple:
    """Image of the exceptional divisor class e in the rank-3 model."""
    return (1, 0, ctx.k - 1 + 2 * ctx.epsilon)


def divisor_divisibility(d: DivisorClass, ctx: SurfaceContext) -> int:
    """div(D) in the full integral H^2 of the manifold.

    The surface lattice is unimodular and L is primitive there, so the
    pairing ideal of a*L + b*e is generated by gcd(a, ek_div * b).
    """
    if not d.is_integral:
        raise DomainError(f"divisibility requires an integral class (got {d})")
    return gcd(d.l, ctx.ek_div * d.e)


def sheaf_vector(p: int, delta: int, k: int, epsilon: int) -> tuple[int, Triple]:
    """Rank-2 moduli datum attached to (p, delta, k): (chi, (2, 1, s)).

    The middle entry 1 means one copy of L; chi = p - delta - k + 3 - 5*epsilon.
    """
    chi = p - delta - k + 3 - 5 * epsilon
    return chi, (2, 1, chi + 2 * (epsilon - 1))


def moduli_dim(p: int, delta: int, k: int, epsilon: int) -> int:
    """Dimension 2p - 4*chi + 8*(1 - epsilon) of the sheaf moduli space."""
    chi, _ = sheaf_vector(p, delta, k, epsilon)
    dim = 2 * p - 4 * chi + 8 * (1 - epsilon)
    if dim < 0:
        raise DomainError(
            f"moduli space is empty: 2p - 4*chi + 8(1 - epsilon) = {dim} < 0")
    return dim
