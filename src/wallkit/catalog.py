"""Catalog of rank-2 wall lattices reachable from the minimal-square seeds.

Each entry records a Gram matrix [[q(w), b], [b, q(v)]] together with the
parameters (p, delta) realizing it, the least witness of a wall and the
isometry class id.  It stores nothing it can derive: the curve square is
read off the Gram, q(R) = det/2h with 2h = q(v), so every wall is an
indefinite or isotropic state, and an entry is a wall exactly when it has
a witness.
Two moves reach the catalog from the seed: adding a node (delta + 1,
top-left + 2, off-diagonal - 1) and dropping the genus (p - 1,
off-diagonal - 1).  The state they reach at (p, delta) has the closed form
`state_gram`, the Gram of the basis (`state_vector`, v) of the ambient
rank-3 model.
"""

from __future__ import annotations

from math import gcd
from typing import IO, Iterable, Iterator, NamedTuple

from . import binforms
from .binforms import Gram
from .model import (DomainError, Ratio, SurfaceContext, _require_bounded,
                    _require_ints, _shown, write_records)
from .walls import _least_witness_of, _normal_basis


class CatalogEntry(NamedTuple):
    """One catalog state: its parameters, its Gram [[a, b], [b, 2h]], the
    ambient coordinates of its least witness (None for no wall) and its
    class id (None when the gram is degenerate).  q(R) and the verdict are
    derived, not stored."""

    epsilon: int
    k: int
    p: int
    delta: int
    gram: Gram
    witness: tuple[int, int, int] | None
    class_id: str | None

    @property
    def q_curve(self) -> Ratio:
        """q(R) over 2h, not reduced: det/2h (`state_gram`)."""
        (a, b), (_, c) = self.gram
        return Ratio(a * c - b * b, c)

    @property
    def is_wall(self) -> bool:
        return self.witness is not None


def seed_lattice(k: int, epsilon: int) -> tuple[Gram, int, int]:
    """Seed Gram with its realizing (p, delta) = (2k-2+5*epsilon, 0).  k
    and epsilon are checked by `SurfaceContext`, at p = 2: the derived seed
    p may lie past the input bound."""
    SurfaceContext(epsilon, 2, k)
    p = 2 * k - 2 + 5 * epsilon
    return state_gram(p, 0, k, epsilon), p, 0


def generate_catalog(k: int, epsilon: int, p_min: int = 2,
                     p_max: int | None = None,
                     delta_max: int | None = None) -> list[CatalogEntry]:
    """The entries of `iter_catalog`, as a list."""
    return list(iter_catalog(k, epsilon, p_min, p_max, delta_max))


def iter_catalog(k: int, epsilon: int, p_min: int = 2,
                 p_max: int | None = None,
                 delta_max: int | None = None) -> Iterator[CatalogEntry]:
    """All move-reachable entries within the ranges, one per isometry
    class, each yielded as soon as it is built.  The arguments are checked
    now: k and epsilon by `seed_lattice`; p_min, and p_max and delta_max
    where given, must be ints in the input domain, as k is; and an empty range
    is a DomainError: p runs over [max(p_min, 2), min(p_max, seed p)], and
    delta_max must be at least 0.

    The moves reach every (p, delta) with 2 <= p <= seed p and
    0 <= delta <= p - 2*epsilon; the states in range are taken by delta
    ascending, then p descending.  These bounds are all that `BNParams`
    checks, so no parameters are built, and q(R) is read off the state's
    gram as det/2h (`state_gram`): a state with det >= 0 is no wall.  No
    state needs the pencil-existence check: p is at most the seed's
    2h + epsilon (h = k - 1 + 2*epsilon), so alpha <= 1 and the bound
    alpha*(p - delta - epsilon - (alpha+1)*h) is <= 0 <= delta.

    A wall (q(R) < 0) is searched on its state's own basis: `state_vector`
    and v, reduced to the saturation's normal basis by `walls._normal_basis`
    from q(w) and h alone and searched by `walls._least_witness_of`, so no
    context, curve class, dual divisor, span or verdict is built.  That
    this basis spans the saturation T of span{v, D} is the `dual-lattice`
    check of `wallkit.checks`, which the catalog does not repeat.
    """
    _, seed_p, _ = seed_lattice(k, epsilon)
    # Checked before any message below formats them.
    bounds = {"p_min": p_min, **{name: value for name, value in (
        ("p_max", p_max), ("delta_max", delta_max)) if value is not None}}
    _require_ints(**bounds)
    _require_bounded(**bounds)
    p_low = max(p_min, 2)
    p_top = seed_p if p_max is None else min(p_max, seed_p)
    if p_top < p_low:
        raise DomainError(
            f"empty p range: max(p_min, 2) = {_shown(p_low)} > min(p_max, seed p) "
            f"= {_shown(p_top)}, where the seed p is {_shown(seed_p)}")
    if delta_max is not None and delta_max < 0:
        raise DomainError(f"delta_max must be at least 0 (got {_shown(delta_max)})")
    d_top = p_top - 2 * epsilon
    if delta_max is not None:
        d_top = min(delta_max, d_top)
    return _entries(k, epsilon, p_low, p_top, d_top)


def _entries(k: int, epsilon: int, p_low: int, p_top: int,
             d_top: int) -> Iterator[CatalogEntry]:
    # The state at (p, delta) has the `state_gram` [[a, b], [b, c]].  It is
    # classified from these integers first, so a state whose class is
    # listed costs no Gram and no wall search.  det > 0: c = 2h > 0 forces
    # a > 0, so the state is positive definite and its id is the
    # Gauss-reduced triple's, with no dispatch and no form tuple.  det < 0:
    # `_canonical` classifies it, and as q(R) is det/2h (`state_gram`) it
    # is searched on (`state_vector`, v), reduced from q(w) = a with no
    # span built.  A degenerate state (det = 0) has no class and is always
    # listed: no two states share both a (one per delta) and b (one per p
    # in a delta row).  A nondegenerate state with b_mirror <= b < 0, where
    # b_mirror is minus the row's first b, is not classified at all:
    # x -> -x maps it onto (a, -b, c), the state at p - 2b, which this row
    # took earlier, so its class is listed.
    canonical, form_id = binforms._canonical, binforms.form_id
    reduce_definite, posdef_id = (binforms._reduce_definite,
                                  binforms._POSDEF_ID)
    h = k - 1 + 2 * epsilon
    c = 2 * h
    seen: set[str] = set()
    for delta in range(d_top + 1):
        a = 2 * delta - 2 + 2 * epsilon
        ac, b_off = a * c, delta + k - 1 + 3 * epsilon
        b_mirror = b_off - p_top
        for p in range(p_top, max(p_low, delta + 2 * epsilon) - 1, -1):
            b = p - b_off
            det = ac - b * b
            if det:
                if b_mirror <= b < 0:
                    continue
                class_id = (posdef_id % reduce_definite(a, b, c, det)
                            if det > 0 else form_id(canonical(a, b, c, det)))
                if class_id in seen:
                    continue
                seen.add(class_id)
            else:
                class_id = None
            ambient = None
            if det < 0:
                q_w, b_w, w = _normal_basis(
                    state_vector(p, delta, k, epsilon), a, h)
                ambient = _least_witness_of(q_w, b_w, c, w, epsilon)[1]
            yield CatalogEntry(epsilon, k, p, delta, ((a, b), (b, c)),
                               ambient, class_id)


def state_gram(p: int, delta: int, k: int, epsilon: int) -> Gram:
    """Gram [[2*delta - 2 + 2*epsilon, b], [b, 2h]] of the catalog state at
    (p, delta), with b = p - delta - k + 1 - 3*epsilon, h = k - 1 + 2*epsilon.

    Its determinant is 2h*q(R): with n = p - delta + k - 1 + epsilon,
    det = 4(p - 1)h - n^2, the numerator of q(R) = 2(p - 1) - n^2/2h over
    2h.  (Put x = p - delta: for epsilon = 0 and m = k - 1 both sides are
    4*delta*m - 4m - x^2 + 2xm - m^2; for epsilon = 1 and m = k + 1 both
    are 4*delta*m + 4xm - 4m - (x + m - 1)^2.)"""
    b = p - delta - k + 1 - 3 * epsilon
    return ((2 * delta - 2 + 2 * epsilon, b), (b, 2 * (k - 1 + 2 * epsilon)))


def state_vector(p: int, delta: int, k: int,
                 epsilon: int) -> tuple[int, int, int]:
    """The state's basis vector w = (-1, 1, h - n) of the ambient rank-3
    model, n = p - delta + k - 1 + epsilon: q(w) and b(w, v) are the
    `state_gram` entries, and where q(R) < 0, (w, v) is a basis of the
    saturation of span{v, D}."""
    return (-1, 1, delta + epsilon - p)


# A record has a fixed shape, so each line is one template filled from the
# entry: the bytes of `json.dumps` of the field dict, in field order.  A
# class id is a regime name and three integers joined by colons, so it
# needs no JSON escaping.  Most entries are no wall, and their is_wall and
# witness members are one constant.
_LINE = ('{"epsilon": %d, "k": %d, "p": %d, "delta": %d, '
         '"gram": [%d, %d, %d, %d], "q_R": "%d/%d", %s, '
         '"isometry_class_id": %s}')
_NO_WALL = '"is_wall": false, "witness": null'


def entry_line(entry: CatalogEntry) -> str:
    """The entry's JSON record as one line of text, without the newline:
    epsilon, k, p, delta, the gram's four entries in row order, q(R) as
    reduced "num/den" text, is_wall, the witness's ambient coordinates and
    the class id (null when absent).  q(R) is det/2h, read off the gram.
    It takes a `CatalogEntry`."""
    epsilon, k, p, delta, ((a, b), (b2, c)), witness, class_id = entry
    num = a * c - b * b
    g = gcd(num, c)
    return _LINE % (
        epsilon, k, p, delta, a, b, b2, c, num // g, c // g,
        _NO_WALL if witness is None
        else '"is_wall": true, "witness": [%d, %d, %d]' % witness,
        "null" if class_id is None else '"%s"' % class_id)


def export_catalog(entries: Iterable[CatalogEntry], stream: IO[str]) -> int:
    """Write each entry's `entry_line` to the stream; return the count.  It
    takes an iterable of `CatalogEntry` records and a text stream."""
    return write_records(map(entry_line, entries), stream)
