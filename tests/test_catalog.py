"""Unit tests for the wall-lattice catalog: seeds, moves, generation,
inversion, and export format."""

from __future__ import annotations

import io
import json
import random
import re
from fractions import Fraction
from math import isqrt

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from wallkit import binforms, catalog
from wallkit.binforms import canonical_form, form_id, rank2_isometric
from wallkit.catalog import (
    CatalogEntry,
    entry_line,
    export_catalog,
    generate_catalog,
    iter_catalog,
    seed_lattice,
    state_gram,
    state_vector,
)
from wallkit.checks import CHECKS, Point, Row
from wallkit.curves import BNParams, _square, curve_class, curve_square
from wallkit.model import (DomainError, Ratio, SurfaceContext, moduli_vector,
                           mukai_square)
from wallkit.walls import _normal_basis, span_stage, witness_stage

import reference


def entry_record(entry):
    """The entry's record as a dict, in field order: the reference whose
    `json.dumps` `entry_line` must equal byte for byte."""
    return {
        "epsilon": entry.epsilon,
        "k": entry.k,
        "p": entry.p,
        "delta": entry.delta,
        "gram": [*entry.gram[0], *entry.gram[1]],
        "q_R": reference.fraction_text(entry.q_curve),
        "is_wall": entry.is_wall,
        "witness": list(entry.witness) if entry.witness is not None else None,
        "isometry_class_id": entry.class_id,
    }


def _dual_lattice(entry):
    """The shared `dual-lattice` check at the entry's parameters: None where
    q(R) >= 0, else whether the wall's saturation is the state's gram."""
    result = CHECKS["dual-lattice"](
        Point(Row(entry.epsilon, entry.k, entry.p), entry.delta))
    return None if result is None else result[0]


def test_seed_examples():
    assert seed_lattice(2, 0) == (((-2, 1), (1, 2)), 2, 0)
    assert seed_lattice(4, 0) == (((-2, 3), (3, 6)), 6, 0)
    assert seed_lattice(2, 1) == (((0, 3), (3, 6)), 7, 0)
    assert seed_lattice(3, 1) == (((0, 4), (4, 8)), 9, 0)
    with pytest.raises(DomainError):
        seed_lattice(1, 0)
    with pytest.raises(DomainError):
        seed_lattice(3, 2)


def test_k_and_epsilon_must_be_ints():
    # As in SurfaceContext: a float is a DomainError, not a float gram or a
    # TypeError from range, and a bool is an int.
    for call in (lambda: seed_lattice(3, 1.0),
                 lambda: generate_catalog(3, 1.0),
                 lambda: generate_catalog(3.0, 0)):
        with pytest.raises(DomainError, match="must be an integer"):
            call()
    assert seed_lattice(3, True) == seed_lattice(3, 1)


def test_moves():
    gram, p, delta = seed_lattice(2, 0)
    assert reference.delta_move(gram, p, delta) == (((0, 0), (0, 2)), 2, 1)
    gram, p, delta = seed_lattice(4, 0)
    assert reference.genus_move(gram, p, delta) == (((-2, 2), (2, 6)), 5, 0)
    # the two moves commute on every component
    state = seed_lattice(5, 1)
    a = reference.delta_move(*reference.genus_move(*state))
    b = reference.genus_move(*reference.delta_move(*state))
    assert a[0] == b[0] and a[1] == b[1] and a[2] == b[2]


def test_moves_track_parameters():
    # after i delta-moves and j genus-moves from the seed the Gram matrix
    # is [[2i - 2 + 2 eps, h - i - j], [h - i - j, 2h]] at (p0 - j, i)
    rng = random.Random(535)
    for _ in range(200):
        k = rng.randint(2, 7)
        eps = rng.randint(0, 1)
        h = k - 1 + 2 * eps
        state = seed_lattice(k, eps)
        p0 = state[1]
        i = j = 0
        for _ in range(rng.randint(0, 8)):
            if rng.randrange(2):
                state = reference.delta_move(*state)
                i += 1
            else:
                state = reference.genus_move(*state)
                j += 1
        gram, p, delta = state
        assert p == p0 - j and delta == i
        assert gram == ((2 * i - 2 + 2 * eps, h - i - j), (h - i - j, 2 * h))
        assert state_gram(p, delta, k, eps) == gram


def test_generate_contains_verified_seed():
    for k, eps in ((2, 0), (3, 0), (2, 1)):
        seed_gram, seed_p, _ = seed_lattice(k, eps)
        entries = generate_catalog(k, eps)
        match = [e for e in entries if e.gram == seed_gram]
        assert len(match) == 1
        e = match[0]
        assert e.p == seed_p and e.delta == 0
        assert e.is_wall and _dual_lattice(e)
        assert e.witness is not None


def test_generate_wall_entries_all_verified():
    for k, eps in ((2, 0), (3, 0), (4, 0), (2, 1), (3, 1)):
        entries = generate_catalog(k, eps)
        assert entries
        for e in entries:
            if e.q_curve.numerator < 0:
                assert e.is_wall and _dual_lattice(e), (k, eps, e)
                assert e.witness is not None
            else:
                assert not e.is_wall
                assert _dual_lattice(e) is None
                assert e.witness is None


def test_generate_deduplicates_isometry_classes():
    for k, eps in ((2, 0), (4, 0), (2, 1)):
        entries = generate_catalog(k, eps)
        keys = [e.class_id if e.class_id is not None else ("deg", e.gram)
                for e in entries]
        assert len(keys) == len(set(keys))


def test_generate_respects_ranges():
    entries = generate_catalog(4, 0, p_min=4, p_max=5, delta_max=1)
    assert entries
    for e in entries:
        assert 4 <= e.p <= 5 and e.delta <= 1


def test_generate_contains_flagged_positive_square_entry():
    entries = generate_catalog(4, 0)
    flagged = [e for e in entries if e.gram == ((2, 1), (1, 6))]
    assert len(flagged) == 1
    e = flagged[0]
    assert (e.p, e.delta) == (6, 2)
    assert not e.is_wall and e.witness is None
    assert e.q_curve.numerator >= 0 and _dual_lattice(e) is None


def test_export_format_and_field_order():
    entries = generate_catalog(2, 0)
    buf = io.StringIO()
    count = export_catalog(entries, buf)
    lines = buf.getvalue().splitlines()
    assert count == len(entries) == len(lines)
    for line, entry in zip(lines, entries):
        rec = json.loads(line)
        assert list(rec.keys()) == ["epsilon", "k", "p", "delta", "gram",
                                    "q_R", "is_wall", "witness",
                                    "isometry_class_id"]
        assert rec["epsilon"] == 0 and rec["k"] == 2
        assert len(rec["gram"]) == 4
        num, den = rec["q_R"].split("/")
        assert int(den) > 0
        g = entry.gram
        assert rec["gram"] == [g[0][0], g[0][1], g[1][0], g[1][1]]


def test_entry_record_fraction_strings():
    entries = generate_catalog(2, 0)
    rec = entry_record(entries[0])
    assert rec["q_R"] == "-5/2"
    assert json.loads(entry_line(entries[0]))["q_R"] == "-5/2"


# A class id is a regime name and three integers joined by colons: no
# character that JSON escapes, so `entry_line` quotes it as it is.
_CLASS_ID = re.compile(r"^(posdef|negdef|indef|isotropic)(:-?\d+){3}$")


def test_entry_line_is_json_dumps_of_its_record():
    # Over the benchmark's range, 2 <= k <= 30 and both epsilon: walls and
    # non-walls, null and present witnesses and class ids.
    lines = ids = 0
    regimes, nulls = set(), [0, 0]
    for epsilon in (0, 1):
        for k in range(2, 31):
            for e in generate_catalog(k, epsilon):
                assert entry_line(e) == json.dumps(entry_record(e)), e
                lines += 1
                nulls[0] += e.witness is None
                if e.class_id is None:
                    nulls[1] += 1
                    continue
                assert _CLASS_ID.match(e.class_id), e.class_id
                regimes.add(e.class_id.split(":")[0])
                ids += 1
    assert (lines, ids) == (29659, 29659 - 89)
    assert 0 < nulls[0] < lines and nulls[1] == 89
    # The corner q(v) = 2h is positive, so no gram is negative definite.
    assert regimes == {"posdef", "indef", "isotropic"}


def test_catalog_grams_are_pairwise_distinct_up_to_isometry():
    entries = generate_catalog(4, 0)
    nondeg = [e for e in entries if e.class_id is not None]
    for i, a in enumerate(nondeg):
        for b in nondeg[i + 1:]:
            assert not rank2_isometric(
                [list(r) for r in a.gram], [list(r) for r in b.gram])


def _reference_entry(gram, p, delta, k, epsilon):
    """The entry of the state (p, delta) with this gram, from
    tests/reference.py: q(R), the class id and the verdict, a non-empty
    reference witness set of the gram on v = (0, 1).  One value comes from
    the package: a wall's ambient witness is that of the span path, which
    the catalog's `_normal_basis` route must reproduce, so comparing it is
    a path-agreement check.  Beside it, the ambient is checked on its own:
    it lies in its case window with the reference's least (branch, b, q)."""
    q_r, c = reference.curve_square(p, delta, k, epsilon), gram[1][1]
    witnesses, ambient = [], None
    if q_r < 0:
        params = BNParams(p, delta, k, epsilon)
        verdict = witness_stage(
            span_stage(curve_class(params), params.context()), epsilon)
        assert reference.isometric(verdict.t_gram, gram), params
        witnesses = reference.walk(gram, (0, 1), epsilon)
        ambient = verdict.witness_ambient
    entry = CatalogEntry(epsilon, k, p, delta, gram, ambient,
                         reference.class_id(gram))
    assert entry.is_wall == bool(witnesses), entry
    if witnesses:
        q, n = (reference.mukai_pairing(ambient, y, p)
                for y in (ambient, (1, 0, -(c // 2))))
        assert (reference.window(q, n, c, epsilon), n, q) \
            == witnesses[0][:0:-1], entry
    # The entry derives q(R) from its gram, over c = 2h: the curve square.
    assert entry.q_curve == (q_r * c, c), entry
    return entry


def _reference_catalog(k, epsilon, p_min=2, p_max=None, delta_max=None):
    """Reference catalog: every move-generated state with a pencil gets its
    `_reference_entry`, and only then are repeated isometry classes
    dropped."""
    seed_gram, seed_p, _ = reference.seed(k, epsilon)
    if p_max is None or p_max > seed_p:
        p_max = seed_p
    states = []
    gram, p = seed_gram, seed_p
    while p >= max(p_min, 2):
        if p <= p_max:
            top = p - 2 * epsilon if delta_max is None \
                else min(delta_max, p - 2 * epsilon)
            state = (gram, p, 0)
            while state[2] <= top:
                states.append(state)
                state = reference.delta_move(*state)
        gram, p, _ = reference.genus_move(gram, p, 0)
    states.sort(key=lambda s: (s[2], -s[1]))
    entries, seen = [], set()
    for g, pp, d in states:
        if not reference.pencil(pp, d, k, epsilon):
            continue
        entry = _reference_entry(g, pp, d, k, epsilon)
        key = entry.class_id if entry.class_id is not None \
            else ("degenerate", entry.gram)
        if key not in seen:
            seen.add(key)
            entries.append(entry)
    return entries


# The slices of the catalog that the differential tests compare.
_SLICES = ({"p_min": 5}, {"p_max": 12}, {"delta_max": 3},
           {"p_min": 4, "p_max": 30, "delta_max": 10})


@pytest.mark.parametrize("epsilon", (0, 1))
def test_generate_matches_reference_catalog(epsilon):
    ranges = ({}, {"p_min": 4}, {"p_max": 9}, {"delta_max": 2},
              {"p_min": 3, "p_max": 14, "delta_max": 5},
              {"p_min": 12}, {"delta_max": 0}, {"p_max": 2},
              {"p_min": 10**6}, {"delta_max": 10**6}, *_SLICES)
    kept = degenerate = walls = empty = 0
    for k in range(2, 13):
        for kwargs in ranges:
            expected = _reference_catalog(k, epsilon, **kwargs)
            if not expected:
                # The clipped p range is empty exactly where the reference
                # lists nothing, and there the catalog refuses the slice.
                with pytest.raises(DomainError, match="empty p range"):
                    iter_catalog(k, epsilon, **kwargs)
                empty += 1
                continue
            got = generate_catalog(k, epsilon, **kwargs)
            assert got == expected \
                == list(iter_catalog(k, epsilon, **kwargs)), (k, kwargs)
            assert ([entry_line(e) for e in got]
                    == [json.dumps(entry_record(e)) for e in got]), (k, kwargs)
            kept += len(got)
            degenerate += sum(e.class_id is None for e in got)
            walls += sum(e.is_wall for e in got)
    # walls (saturation checked) and non-walls and degenerate grams all
    # take part in the comparison, and so do the empty slices: p_min 10**6
    # at every k, p_min 12 wherever the seed p is below 12 (k <= 6 for
    # epsilon = 0, k <= 4 for epsilon = 1), and p_min 3 to 5 above the seed
    # p = 2 or 4 at k = 2 and 3 for epsilon = 0
    assert kept > 1000 and walls > 500 and degenerate > 50
    assert empty == (21, 14)[epsilon]


def test_integer_square_matches_the_object_path():
    # generate_catalog validates once and takes q(R) from integers; every
    # entry's parameters must still pass BNParams and give the same square
    # and record text through curve_square.
    runs = [(k, epsilon, {}) for epsilon in (0, 1) for k in range(2, 31)]
    runs += [(k, epsilon, kwargs) for epsilon in (0, 1) for k in (7, 20)
             for kwargs in _SLICES]
    checked = 0
    for k, epsilon, kwargs in runs:
        for e in generate_catalog(k, epsilon, **kwargs):
            params = BNParams(e.p, e.delta, k, epsilon)
            report = curve_square(params)
            num, denom = e.q_curve
            assert type(num) is int and denom == 2 * params.half_div
            assert Fraction(num, denom) == Fraction(*report.value), \
                (k, kwargs, e)
            assert (json.loads(entry_line(e))["q_R"]
                    == reference.fraction_text(report.value))
            checked += 1
    assert checked > 29659


def test_form_id_joins_the_four_fields():
    # Every canonical form up to k = 30 is a 4-tuple, and its id is the
    # fields joined by colons; the catalog's class ids are those of the
    # checked canonical_form of its grams.
    forms = 0
    for epsilon in (0, 1):
        for k in range(2, 31):
            for e in generate_catalog(k, epsilon):
                if e.class_id is None:
                    continue
                form = canonical_form(e.gram)
                assert len(form) == 4
                assert form_id(form) == ":".join(map(str, form)) == e.class_id
                forms += 1
    assert forms == 29659 - 89


def test_generate_catalog_returns_a_list():
    # The list of what iter_catalog streams: callers may take its length
    # and iterate it more than once.
    entries = generate_catalog(5, 1, delta_max=4)
    assert type(entries) is list
    assert entries == list(iter_catalog(5, 1, delta_max=4))


@pytest.mark.parametrize("args, kwargs", [
    ((1, 0), {}), ((4, 2), {}), ((4, 0), {"p_max": 1}),
    ((4, 0), {"p_max": -5}), ((4, 0), {"p_min": 0, "p_max": 1}),
    ((4, 0), {"delta_max": -1}), ((4, 0), {"p_min": 5, "p_max": 3}),
    ((4, 0), {"p_min": 10**5000}), ((4, 0), {"p_max": -10**5000}),
    ((4, 0), {"delta_max": -10**5000}), ((4, 0), {"p_max": 3.5}),
    ((4, 0), {"p_min": None})])
def test_bad_arguments_raise_before_the_first_entry(args, kwargs):
    # iter_catalog checks its arguments when called, not when the first
    # entry is asked for, so the CLI exits 2 before it opens --output.  A
    # slice bound outside the input domain is refused before a message
    # formats it: its digits are past Python's int-to-str limit.
    with pytest.raises(DomainError) as caught:
        iter_catalog(*args, **kwargs)
    assert len(str(caught.value)) < 200


def test_first_entry_needs_constant_work(monkeypatch):
    # iter_catalog streams: written as it comes, its first record follows
    # one classified state, at any k, not the ~1.49*k^2 entries of the
    # whole catalog.
    core, calls, first = binforms._canonical, [], []

    class Stop(Exception):
        pass

    class FirstLine:
        def write(self, text):
            first.append((len(calls), json.loads(text)))
            raise Stop

    def counting(*args):
        calls.append(args)
        return core(*args)

    monkeypatch.setattr(binforms, "_canonical", counting)
    for k in (10, 1000):
        calls.clear()
        with pytest.raises(Stop):
            export_catalog(iter_catalog(k, 0), FirstLine())
    assert [(n, rec["k"], rec["p"], rec["delta"]) for n, rec in first] == [
        (1, 10, 18, 0), (1, 1000, 1998, 0)]


def test_generate_builds_no_params_and_no_context(monkeypatch):
    # No parameters and no context are built for a state: a wall is
    # searched on its state's basis, reduced from p and h alone.  The one
    # context is `seed_lattice`'s check of (k, epsilon), at p = 2.  Every
    # BNParams is built through `BNParams.on`.
    contexts, built = [], []
    new_context, on = SurfaceContext.__new__, BNParams.on.__func__

    def counting_contexts(cls, *args):
        contexts.append(args)
        return new_context(cls, *args)

    def counting_on(cls, ctx, delta):
        built.append((ctx.p, delta))
        return on(cls, ctx, delta)

    monkeypatch.setattr(SurfaceContext, "__new__",
                        staticmethod(counting_contexts))
    monkeypatch.setattr(BNParams, "on", classmethod(counting_on))
    entries = generate_catalog(12, 0)
    walls = [(e.p, e.delta) for e in entries if e.q_curve.numerator < 0]
    assert walls and len(walls) < len(entries)
    assert built == [] and contexts == [(0, 2, 12)]


def test_catalog_entry_shape_is_pinned():
    # An entry stores what it cannot derive; q(R) (det/2h, not reduced)
    # and the verdict (a witness exists) are read off the stored fields.
    assert CatalogEntry._fields == (
        "epsilon", "k", "p", "delta", "gram", "witness", "class_id")
    assert CatalogEntry._field_defaults == {}
    entries = generate_catalog(4, 0)
    wall = entries[0]
    flat = next(e for e in entries if not e.is_wall)
    assert repr(wall) == (
        "CatalogEntry(epsilon=0, k=4, p=6, delta=0, gram=((-2, 3), (3, 6)), "
        "witness=(-1, 1, -6), class_id='indef:-2:6:6')")
    assert (wall.q_curve, wall.is_wall) == (Ratio(-21, 6), True)
    assert repr(flat) == (
        "CatalogEntry(epsilon=0, k=4, p=4, delta=1, gram=((0, 0), (0, 6)), "
        "witness=None, class_id=None)")
    assert (flat.q_curve, flat.is_wall) == (Ratio(0, 6), False)
    # A NamedTuple: iterable, and equal to the plain tuple of its fields.
    assert wall == tuple(wall) and list(flat)[-1] == flat.class_id
    # The derived values are no fields: they cannot be replaced.
    with pytest.raises(ValueError):
        wall._replace(q_curve=Ratio(0, 6))


def test_dual_lattice_check_holds_on_every_catalog_wall():
    # The catalog does not compare a wall's saturation with its state's
    # gram; the shared check does, here on every wall for k <= 30.
    walls = 0
    for epsilon in (0, 1):
        for k in range(2, 31):
            for e in generate_catalog(k, epsilon):
                if e.is_wall:
                    assert _dual_lattice(e), e
                    walls += 1
    assert walls == 2423


def _counting_cores(monkeypatch):
    """The arguments of every call of the two classifiers the catalog calls
    on a nondegenerate state's (a, b, c, det): `_reduce_definite` where
    det > 0 and the integer canonical form `_canonical` where det < 0."""
    calls = {"_reduce_definite": [], "_canonical": []}

    def counting(name):
        core = getattr(binforms, name)

        def spy(*args):
            calls[name].append(args)
            return core(*args)
        return spy

    for name in calls:
        monkeypatch.setattr(binforms, name, counting(name))
    return calls


@pytest.mark.parametrize("epsilon", (0, 1))
def test_generate_classifies_each_state_once(monkeypatch, epsilon):
    # One classification per nondegenerate state, except the mirrors: a
    # positive definite state (det > 0) goes through the Gauss reduction
    # alone, any other through the integer canonical form.  A state whose b
    # is negative while -b is a b of its delta row is never classified, and
    # its class is that of (a, -b, c), which the row classified earlier.  A
    # degenerate state (det = 0) is never classified.
    calls = _counting_cores(monkeypatch)
    k = 12
    seed_p = seed_lattice(k, epsilon)[1]
    generate_catalog(k, epsilon)
    states, mirrors = [], []
    for delta in range(seed_p - 2 * epsilon + 1):
        row = [state_gram(p, delta, k, epsilon)
               for p in range(max(2, delta + 2 * epsilon), seed_p + 1)]
        row_bs = {b for (_, b), _ in row}
        for (a, b), (_, c) in row:
            state = (a, b, c, a * c - b * b)
            if state[3]:
                (mirrors if b < 0 and -b in row_bs else states).append(state)
    assert sorted(calls["_reduce_definite"]) == sorted(
        s for s in states if s[3] > 0)
    assert sorted(calls["_canonical"]) == sorted(s for s in states if s[3] < 0)
    assert all(calls.values())
    assert mirrors and (sum(map(len, calls.values()))
                        < len(states) + len(mirrors))
    for a, b, c, _ in mirrors:
        assert (canonical_form(((a, b), (b, c)))
                == canonical_form(((a, -b), (-b, c))))


def test_catalog_work_is_pinned(monkeypatch):
    # Work counters, counted by patching the callees from the test, so the
    # library holds no counter: one classification per nondegenerate state
    # in range that is not a mirror (39,672 states, 89 of them degenerate,
    # 9,849 mirrors; 27,165 positive definite through the Gauss reduction,
    # 2,569 through the canonical form), and one least-witness search per
    # listed entry with q(R) < 0.
    calls = _counting_cores(monkeypatch)
    walls = []
    least_witness = catalog._least_witness_of

    def counting(*args):
        walls.append(args)
        return least_witness(*args)

    monkeypatch.setattr(catalog, "_least_witness_of", counting)
    for epsilon in (0, 1):
        for k in range(2, 31):
            generate_catalog(k, epsilon)
    definite, indefinite = calls["_reduce_definite"], calls["_canonical"]
    assert len(definite) + len(indefinite) == 39672 - 89 - 9849
    assert (len(definite), len(indefinite), len(walls)) == (27165, 2569, 2423)


@st.composite
def _wall_points(draw):
    """(epsilon, k, p, delta) with q(R) < 0, at k up to 1e6 and p up to
    1e12: with h = k - 1 + 2*epsilon and n = p - delta + k - 1 + epsilon,
    q(R) < 0 iff n^2 > 4(p - 1)h, that is iff n > isqrt(4(p - 1)h)."""
    eps = draw(st.integers(0, 1))
    k = draw(st.integers(2, 60) | st.integers(2, 10**6))
    p = draw(st.integers(2, 2 * k - 2 + 5 * eps) | st.integers(2, 10**12))
    h = k - 1 + 2 * eps
    d_max = min(p - 2 * eps, p + k - 2 + eps - isqrt(4 * (p - 1) * h))
    assume(d_max >= 0)
    return eps, k, p, draw(st.integers(0, d_max))


@settings(derandomize=True, database=None, deadline=None, max_examples=200)
@given(_wall_points(), st.integers(-10**6, 10**6))
@example((0, 3, 2, 0), 5)   # b(w, v) = 0: the tie w, -w
@example((0, 2, 2, 0), -3)  # 2*b(w, v) = q(v): the tie w, v - w
def test_state_vector_gives_the_saturation_basis(point, t):
    # The catalog searches a wall on (state_vector, v).  That vector lies
    # in span_Q{v, D}, and reduced to the normal basis it gives exactly the
    # span stage's saturation, gram and basis, from any s*w + t*v, s = +-1.
    eps, k, p, delta = point
    assert _square(p, delta, k, eps).numerator < 0
    ctx = SurfaceContext(eps, p, k)
    h = k - 1 + 2 * eps
    w, v = state_vector(p, delta, k, eps), moduli_vector(ctx)
    assert v == (1, 0, -h)
    stage = span_stage(curve_class(BNParams.on(ctx, delta)), ctx)
    d = (stage.divisor.e, stage.divisor.l, stage.divisor.e * h)
    assert (w[0] * (v[1] * d[2] - v[2] * d[1])
            - w[1] * (v[0] * d[2] - v[2] * d[0])
            + w[2] * (v[0] * d[1] - v[1] * d[0])) == 0
    # The kernel takes q(w) and returns (q(w'), b(w', v), w'), which
    # `span_stage` packs as its gram and w; v is moduli_vector, (0, 1).
    reduced = _normal_basis(w, mukai_square(w, p), h)
    assert reduced == (*stage.span.gram[0], stage.span.w)
    assert stage.span.v_coords == (0, 1)
    for s in (1, -1):
        for shift in (0, 1, -1, t):
            moved = tuple(s * wi + shift * vi for wi, vi in zip(w, v))
            assert _normal_basis(moved, mukai_square(moved, p), h) \
                == reduced, (s, shift)


@st.composite
def _states(draw):
    """(epsilon, k, p, delta) with k up to 1e6 or 1e30, p up to 1e12 or
    1e40 and any delta >= 0: the identity holds off the catalog's ranges
    too."""
    eps = draw(st.integers(0, 1))
    k = draw(st.integers(2, 10**6) | st.integers(2, 10**30))
    p = draw(st.integers(2, 10**12) | st.integers(2, 10**40))
    return eps, k, p, draw(st.integers(0, p) | st.integers(min_value=0))


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(_states())
@example((0, 4, 6, 0))   # a wall: det = -21
@example((0, 4, 4, 1))   # degenerate: det = 0
@example((1, 3, 9, 6))   # definite: det > 0
def test_state_gram_determinant_is_2h_times_the_square(state):
    # det [[a, b], [b, c]] = 4(p - 1)h - n^2, the numerator of q(R) over
    # c = 2h: the catalog reads q(R) off its gram, and a state is a wall
    # candidate (q(R) < 0) exactly when det < 0.
    eps, k, p, delta = state
    (a, b), (_, c) = state_gram(p, delta, k, eps)
    det = a * c - b * b
    square = _square(p, delta, k, eps)
    assert square == Ratio(det, c)
    assert (det < 0) == (Fraction(*square) < 0)
