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

from collections.abc import Iterable
from math import gcd
from typing import IO, NamedTuple

Triple = tuple[int, int, int]


class DomainError(ValueError):
    """Input violates an operation's contract (maps to CLI exit code 2)."""


class Ratio(NamedTuple):
    """The rational numerator/denominator as two ints, not reduced; the
    denominator is positive.  A tuple: `==` and `<` compare the pairs, not
    the values."""

    numerator: int
    denominator: int


def ratio_str(x) -> str:
    """Reduced "num/den" text of an int or a `Ratio`, as written in every
    JSON record; anything without a numerator and denominator (a float, a
    str, None) raises TypeError."""
    try:
        num, den = x.numerator, x.denominator
    except AttributeError:
        raise TypeError(f"ratio_str needs an int or a Ratio, "
                        f"got {x!r}") from None
    g = gcd(num, den)
    return f"{num // g}/{den // g}"


def write_records(records: Iterable[str], stream: IO[str]) -> int:
    """Write each record, a line of JSON text without its newline, as it
    comes; return the count.  The records are rendered by their makers
    (`catalog.entry_line` and the `wallkit.cli` templates), so the package
    holds no JSON encoder."""
    count = 0
    for count, record in enumerate(records, 1):
        stream.write(record + "\n")
    return count


def _make_through_new(cls, iterable):
    """namedtuple's `_make`, and `_replace`, which calls it, build through
    `tuple.__new__`; as a class's `_make`, this sends both through the
    class's own `__new__`, which validates."""
    return cls(*iterable)


# Every integer k, p and scan range end lies strictly between -10^1000 and
# 10^1000.  A printed integer has at most about three times the digits of
# the inputs (q(D) of `wall-test` is of order k^2*p; q(R), class ids and
# the rest are at most quadratic), so it stays below Python's default
# limit of 4,300 digits on int <-> str conversion, which the package
# leaves as it is.
INPUT_DIGITS = 1000
_INPUT_BOUND = 10 ** INPUT_DIGITS


# A message prints an int of at most this many bits (20 digits) in digits
# and a longer one by its bit length, and a tuple or list item by item only
# when it has at most _SHOWN_ITEMS items and lies at most _SHOWN_DEPTH deep
# (a gram's rows do), so no message grows with its values, meets the
# 4,300-digit limit or recurses without end.
_SHOWN_BITS, _SHOWN_ITEMS, _SHOWN_DEPTH = 64, 4, 2


def _shown(value, depth: int = _SHOWN_DEPTH) -> str:
    """`value` as a DomainError message prints it, the only way a message
    prints a caller's value: an int in digits, or as "a <n>-bit value" past
    _SHOWN_BITS bits; a tuple or list within the item and depth caps item
    by item, in its brackets, and any other as "<type name> of length
    <n>"; any other object by its type name, as its str or repr may be
    long, fail or run the caller's code."""
    if isinstance(value, int):
        bits = value.bit_length()
        return str(value) if bits <= _SHOWN_BITS else f"a {bits}-bit value"
    if not isinstance(value, (tuple, list)):
        return type(value).__name__
    if len(value) > _SHOWN_ITEMS or not depth:
        return f"{type(value).__name__} of length {len(value)}"
    items = ", ".join([_shown(item, depth - 1) for item in value])
    if isinstance(value, list):
        return f"[{items}]"
    return f"({items},)" if len(value) == 1 else f"({items})"


def _require_ints(**values) -> None:
    """Raise a DomainError naming the first value that is not an int (a
    bool is one): the package computes with no floats."""
    for name, value in values.items():
        if not isinstance(value, int):
            raise DomainError(f"{name} must be an integer (got {_shown(value)})")


def _require_epsilon(epsilon) -> None:
    """Raise a DomainError unless epsilon is 0 or 1 (an int, by
    `_require_ints`): the package's one epsilon rule."""
    _require_ints(epsilon=epsilon)
    if epsilon not in (0, 1):
        raise DomainError(f"epsilon must be 0 or 1 (got {_shown(epsilon)})")


def _require_bounded(**values) -> None:
    """Raise a DomainError naming the first value that lies outside the
    input domain, and the bound."""
    for name, value in values.items():
        if not -_INPUT_BOUND < value < _INPUT_BOUND:
            raise DomainError(
                f"{name} must lie strictly between -10^{INPUT_DIGITS} and "
                f"10^{INPUT_DIGITS} (got {_shown(value)})")


class _ContextFields(NamedTuple):
    epsilon: int
    p: int
    k: int


class SurfaceContext(_ContextFields):
    """The surface type epsilon, the genus p and the number of points k,
    validated at construction.  l_square = L^2 = 2p - 2 and
    ek_div = div(e) = -q(e) = q(v) = 2(k - 1 + 2*epsilon) are computed once,
    at construction, and kept as attributes outside the tuple, so equality,
    hash and repr see only the three parameters."""

    def __new__(cls, epsilon: int, p: int, k: int) -> SurfaceContext:
        _require_epsilon(epsilon)
        _require_ints(k=k, p=p)
        # k before p: `scan` names a bad k range before a bad p range.
        if k < 2:
            raise DomainError(f"constraint violated: k >= 2 (got k={_shown(k)})")
        if p < 2:
            raise DomainError(f"constraint violated: p >= 2 (got p={_shown(p)})")
        _require_bounded(k=k, p=p)
        self = super().__new__(cls, epsilon, p, k)
        self.__dict__.update(l_square=2 * p - 2,
                             ek_div=2 * (k - 1 + 2 * epsilon))
        return self

    _make = classmethod(_make_through_new)

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(
            f"SurfaceContext is immutable: cannot set {name!r}")


class _DivisorFields(NamedTuple):
    l: int
    e: int


class DivisorClass(_DivisorFields):
    """a*L + b*e with integer coefficients; any other coefficient is a
    DomainError (`_require_ints`).  A rational class is given as a positive
    integral multiple of it."""

    __slots__ = ()

    def __new__(cls, l: int, e: int) -> DivisorClass:
        # The inline test is the fast path: most classes are valid.
        if not (isinstance(l, int) and isinstance(e, int)):
            _require_ints(l=l, e=e)
        return super().__new__(cls, l, e)

    _make = classmethod(_make_through_new)

    def square(self, ctx: SurfaceContext) -> int:
        """q(D)."""
        return self.l * self.l * ctx.l_square - self.e * self.e * ctx.ek_div


class CurveClass(NamedTuple):
    """a*L + b*r with integer coefficients (r is the exceptional curve class)."""

    l: int
    r: int

    def square(self, ctx: SurfaceContext) -> Ratio:
        """q(C) over div(e): q extends to the curve lattice through
        e = ek_div * r."""
        return Ratio(self.l * self.l * ctx.l_square * ctx.ek_div
                     - self.r * self.r, ctx.ek_div)


def mukai_pairing(x: Triple, y: Triple, p: int) -> int:
    """Pairing of rank-3 integer triples."""
    return x[1] * y[1] * (2 * p - 2) - x[0] * y[2] - x[2] * y[0]


def mukai_square(x: Triple, p: int) -> int:
    return mukai_pairing(x, x, p)


def moduli_vector(ctx: SurfaceContext) -> Triple:
    """The vector v cutting out H^2 of the moduli space; q(v) = ek_div.  It
    takes a `SurfaceContext`."""
    return (1, 0, 1 - 2 * ctx.epsilon - ctx.k)


def exceptional_vector(ctx: SurfaceContext) -> Triple:
    """Image of the exceptional divisor class e in the rank-3 model."""
    return (1, 0, ctx.k - 1 + 2 * ctx.epsilon)


def divisor_divisibility(d: DivisorClass, ctx: SurfaceContext) -> int:
    """div(D) in the full integral H^2 of the manifold; it takes a
    `DivisorClass` and a `SurfaceContext`.

    The surface lattice is unimodular and L is primitive there, so the
    pairing ideal of a*L + b*e is generated by gcd(a, ek_div * b).
    """
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
            f"moduli space is empty: 2p - 4*chi + 8(1 - epsilon) = {_shown(dim)} < 0")
    return dim
