"""The public API's one contract (README, "Public API"): for any value of
a parameter that takes no package record, every callable in
`wallkit.__all__` returns a result or raises a `DomainError` of under 200
characters."""

from __future__ import annotations

import importlib
import inspect
import io
import itertools
import re
from collections.abc import Iterator
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import wallkit
from wallkit import (BNParams, CurveClass, DivisorClass, DomainError,
                     SurfaceContext, generate_catalog)

_NEAR_BOUND = 10 ** 1000
_SMALL_INTS = st.integers(-6, 12)
# Ints near the input bound, and near 2**64 and 2**200: a message prints
# an int past 64 bits by its bit length.
_INTS = st.one_of(_SMALL_INTS,
                  *(st.integers(sign * edge - 2, sign * edge + 2)
                    for edge in (2 ** 64, 2 ** 200, _NEAR_BOUND)
                    for sign in (1, -1)))


def _values(ints) -> dict[str, st.SearchStrategy]:
    """The values of a parameter by its annotation: any value, that is,
    ints, bools, floats, str, None and bytes, and tuples, lists, dicts and
    sets of them nested two deep, with as much weight again on the values
    that pass the type rule of an int, an optional int, a pair or a
    symmetric gram, so that the checks after that rule are reached too."""
    scalars = st.one_of(ints, st.booleans(), st.floats(),
                        st.text(max_size=3), st.none(), st.binary(max_size=3))

    def containers(inner):
        return st.one_of(
            st.tuples(inner, inner), st.lists(inner, max_size=3).map(tuple),
            st.lists(inner, max_size=3),
            st.dictionaries(st.integers(-2, 2), inner, max_size=2),
            st.sets(st.one_of(st.integers(-2, 2), st.text(max_size=1)),
                    max_size=3))

    nested = st.one_of(scalars, containers(scalars))
    anything = st.one_of(scalars, containers(scalars), containers(nested))
    pairs = st.tuples(ints, ints)
    grams = st.tuples(ints, ints, ints).map(
        lambda t: ((t[0], t[1]), (t[1], t[2])))
    typed = {"int": ints, "int | None": st.one_of(ints, st.none()),
             "tuple[int, int]": st.one_of(pairs, pairs.map(list)),
             "Gram": st.one_of(grams, grams.map(lambda g: [list(g[0]),
                                                          list(g[1])]))}
    return {"": anything, **{annotation: st.one_of(strategy, anything)
                             for annotation, strategy in typed.items()}}


_VALUES, _SMALL_VALUES = _values(_INTS), _values(_SMALL_INTS)
# Callables whose valid work grows with their ints (a catalog or a family
# has more entries, a witness search a longer range, an indefinite form a
# longer cycle, up to its step budget) get small ints: bounding that work
# is not this contract.
_GROWING = {"generate_catalog", "iter_catalog", "nodal_family_loci",
            "series_family_loci", "enumerate_witnesses", "box_witnesses",
            "canonical_form", "class_id", "rank2_isometric"}


@st.composite
def _params(draw):
    ctx = draw(_contexts)
    return BNParams.on(ctx, draw(st.integers(0, ctx.p - 2 * ctx.epsilon)))


_RECORD_INTS = st.one_of(st.integers(2, 40),
                         st.integers(_NEAR_BOUND - 9, _NEAR_BOUND - 1))
_contexts = st.builds(SurfaceContext, st.integers(0, 1), _RECORD_INTS,
                      _RECORD_INTS)
_ENTRIES = generate_catalog(4, 0) + generate_catalog(4, 1)
# The values of a function's parameter that takes a package record, by its
# annotation: records only.
_RECORDS = {
    "BNParams": _params(),
    "SurfaceContext": _contexts,
    "CurveClass": st.builds(CurveClass, _INTS, _INTS),
    "DivisorClass": st.builds(DivisorClass, _INTS, _INTS),
    "CatalogEntry": st.sampled_from(_ENTRIES),
    "Iterable[CatalogEntry]": st.lists(st.sampled_from(_ENTRIES), max_size=3),
    "IO[str]": st.builds(io.StringIO),
}


def _annotations(obj) -> list[str]:
    """The annotation text of each parameter (a record type's fields are
    forward references)."""
    return [getattr(param.annotation, "__forward_arg__", param.annotation)
            for param in inspect.signature(obj).parameters.values()]


def _arguments(name: str):
    """The strategy of one call's positional arguments."""
    obj = getattr(wallkit, name)
    values = _SMALL_VALUES if name in _GROWING else _VALUES
    if isinstance(obj, type) and issubclass(obj, Exception):
        return st.tuples(values[""])
    # A record type's own fields take any value; a function's record
    # parameters take records only.
    records = {} if isinstance(obj, type) else _RECORDS
    return st.tuples(*(records[annotation] if annotation in records
                       else values.get(annotation, values[""])
                       for annotation in _annotations(obj)))


@pytest.mark.parametrize("name", sorted(wallkit.__all__))
def test_every_public_callable_returns_or_refuses(name):
    call = getattr(wallkit, name)

    # A record type's fields are many, and most record types keep no rule.
    @settings(derandomize=True, database=None, deadline=None,
              max_examples=10 if isinstance(call, type) else 25)
    @given(_arguments(name))
    def check(args):
        try:
            result = call(*args)
            if isinstance(result, Iterator):
                list(itertools.islice(result, 3))
        except DomainError as exc:
            assert len(str(exc)) < 200, str(exc)[:400]

    check()


def test_record_parameters_are_stated_in_the_docstring():
    # A function's parameter that takes a package record says so, as in
    # "takes a `BNParams`".
    unstated = []
    for name in wallkit.__all__:
        obj = getattr(wallkit, name)
        if isinstance(obj, type):
            continue
        doc = inspect.getdoc(obj)
        for annotation in _annotations(obj):
            record = re.sub(r"^Iterable\[(.*)\]$", r"\1", annotation)
            if record in _RECORDS and record != "IO[str]" and (
                    "takes" not in doc or f"`{record}`" not in doc):
                unstated.append(f"{name}: {annotation}")
    assert unstated == []


def _readme_api_table() -> list[tuple[str, list[str], list[str]]]:
    """(module, names in `__all__`, names only from the module) for each
    row of the table in the README's "Public API" section."""
    readme = Path(__file__).resolve().parents[1] / "README.md"
    section = readme.read_text(encoding="utf-8").split(
        "\n## Public API\n", 1)[1].split("\n## ", 1)[0]
    rows = []
    for line in section.splitlines():
        cells = [cell.strip() for cell in line.strip("|").split("|")]
        if cells[0].startswith("`wallkit."):
            module, exported, left = (re.findall(r"`([\w.]+)`", cell)
                                      for cell in cells)
            rows.append((module[0], exported, left))
    return rows


def test_readme_lists_the_public_api():
    rows = _readme_api_table()
    exported = [name for _, names, _ in rows for name in names]
    assert sorted(exported) == sorted(wallkit.__all__)
    for module, names, left in rows:
        assert [getattr(wallkit, name).__module__ for name in names] == (
            [module] * len(names))
        # A name that left `__all__` is imported from its module.
        assert all(callable(getattr(importlib.import_module(module), name))
                   and name not in wallkit.__all__ for name in left)
