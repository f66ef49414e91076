"""Rules the package source keeps."""

from __future__ import annotations

import ast
import importlib.util
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import wallkit

SRC = Path(wallkit.__file__).resolve().parent


def _statements(kind: type[ast.stmt]) -> list[str]:
    """`file:line` of every `kind` statement in the package source."""
    files = sorted(SRC.rglob("*.py"))
    assert files
    return [f"{path.name}:{node.lineno}"
            for path in files
            for node in ast.walk(ast.parse(path.read_text(), str(path)))
            if isinstance(node, kind)]


def test_package_parses_at_the_requires_python_floor():
    # pyproject.toml declares requires-python >= 3.10, so no module uses
    # syntax of a later Python, such as Python 3.11's `except*`.
    pyproject = (SRC.parent.parent / "pyproject.toml").read_text()
    assert 'requires-python = ">=3.10"' in pyproject
    files = sorted(SRC.rglob("*.py"))
    assert len(files) >= 9
    for path in files:
        ast.parse(path.read_text(), str(path), feature_version=(3, 10))
    with pytest.raises(SyntaxError):
        ast.parse("try:\n    pass\nexcept* ValueError:\n    pass\n",
                  feature_version=(3, 10))


def test_no_bare_assert_in_package():
    # `python -O` strips assert statements, so invariants raise explicitly.
    assert _statements(ast.Assert) == []


def test_no_global_statement_in_package():
    # No hidden module state: what one call leaves behind cannot change
    # what a later call computes.
    assert _statements(ast.Global) == []


def _loaded_by_cli_import(names: set[str]) -> str:
    """Which of the named modules `import wallkit.cli` loads in a fresh
    interpreter without the site module, as the printed sorted list."""
    env = {**os.environ, "PYTHONPATH": str(SRC.parent)}
    run = subprocess.run(
        [sys.executable, "-S", "-c",
         f"import sys, wallkit.cli; print(sorted({names!r} & set(sys.modules)))"],
        capture_output=True, text=True, env=env, timeout=60)
    assert run.returncode == 0, run.stderr
    return run.stdout


def test_cli_import_loads_no_dataclass_machinery():
    # Every wallkit process imports the CLI; its value types are named
    # tuples, so start-up builds no dataclass and loads neither
    # `dataclasses` nor `inspect` (which `dataclasses` imports).
    assert _loaded_by_cli_import({"dataclasses", "inspect"}) == "[]\n"


def test_cli_import_loads_no_rational_machinery():
    # A rational is an integer pair (`model.Ratio`), so start-up loads
    # neither `fractions` nor what it imports: `decimal` (and its C
    # module `_decimal`) and `numbers`.
    assert _loaded_by_cli_import(
        {"fractions", "decimal", "_decimal", "numbers"}) == "[]\n"


_ARGPARSE_INTERNALS = {"_actions", "_subparsers", "_name_parser_map"}


def _private_argparse_reads(tree: ast.Module) -> list[str]:
    """`line:name` of each private argparse name a module reads: an
    `argparse._*` attribute or import, or a parser's internal tables."""
    reads = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "argparse":
            reads += [f"{node.lineno}:{alias.name}" for alias in node.names
                      if alias.name.startswith("_")]
        elif isinstance(node, ast.Attribute) and (
                node.attr in _ARGPARSE_INTERNALS
                or isinstance(node.value, ast.Name)
                and node.value.id == "argparse"
                and node.attr.startswith("_")):
            reads.append(f"{node.lineno}:{node.attr}")
    return sorted(reads)


def test_cli_reads_no_private_argparse_name():
    # requires-python is >= 3.10, and argparse's internals differ from one
    # Python version to the next, so the CLI routes argv with public names
    # only (a subparsers action's `choices`).
    tree = ast.parse((SRC / "cli.py").read_text())
    assert _private_argparse_reads(tree) == []
    assert _private_argparse_reads(ast.parse(
        "import argparse\nfrom argparse import _SubParsersAction\n"
        "argparse._sys\nparser._subparsers._actions\nsub._name_parser_map\n"
    )) == ["2:_SubParsersAction", "3:_sys", "4:_actions", "4:_subparsers",
           "5:_name_parser_map"]


def _bench_names() -> set[str]:
    """The wallkit names the benchmark binds: the values of `LAYERS` in
    bench/run.py and every `lib.get("...")` in bench/workloads.py."""
    bench = Path(__file__).resolve().parent.parent / "bench"
    run = ast.parse((bench / "run.py").read_text())
    layers = next(node.value for node in ast.walk(run)
                  if isinstance(node, ast.Assign)
                  and any(isinstance(t, ast.Name) and t.id == "LAYERS"
                          for t in node.targets))
    names = {ast.literal_eval(value) for value in layers.values}
    workloads = ast.parse((bench / "workloads.py").read_text())
    names |= {node.args[0].value for node in ast.walk(workloads)
              if isinstance(node, ast.Call)
              and isinstance(node.func, ast.Attribute)
              and node.func.attr == "get"
              and isinstance(node.func.value, ast.Name)
              and node.func.value.id == "lib"}
    return names


def test_benchmark_binds_only_exported_names():
    # A name missing from __all__ shows up in the benchmark as an "absent"
    # layer with zero counts, not as an error.
    names = _bench_names()
    assert len(names) >= 12
    assert sorted(names - set(wallkit.__all__)) == []


def test_benchmark_reads_only_span_lattice_attributes():
    # The traced replay reads a saturated span's attributes off `span`,
    # and bench/test_bench.py is not among these tests: an attribute the
    # span record lost would fail only the traced benchmark run.
    bench = Path(__file__).resolve().parent.parent / "bench"
    workloads = ast.parse((bench / "workloads.py").read_text())
    reads = {node.attr for node in ast.walk(workloads)
             if isinstance(node, ast.Attribute)
             and isinstance(node.value, ast.Name) and node.value.id == "span"}
    assert reads >= {"gram", "v_coords"}
    assert sorted(name for name in reads
                  if not hasattr(wallkit.SpanLattice, name)) == []


def _uses(tree: ast.Module) -> set[str]:
    """The names a module uses in code: the names it imports, the names it
    calls, and the attributes it reads off a package module it imports
    (`binforms.canonical_form`).  A field or a local variable that only
    shares a name is no use, and docstrings are not code."""
    modules = {alias.asname or alias.name for node in ast.walk(tree)
               if isinstance(node, ast.ImportFrom) and node.module is None
               for alias in node.names}
    used = _called_names(tree)
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            used |= {alias.name for alias in node.names}
        elif (isinstance(node, ast.Attribute)
              and isinstance(node.value, ast.Name)
              and node.value.id in modules):
            used.add(node.attr)
    return used


def test_every_export_is_used_in_the_package_or_the_benchmark():
    # An export that only the tests call is API to delete.
    used = set().union(*(_uses(ast.parse(path.read_text(), str(path)))
                         for path in SRC.rglob("*.py")
                         if path.name != "__init__.py"))
    unused = set(wallkit.__all__) - used
    assert "class_id" in unused  # catalog's field and variable are no use
    assert sorted(unused - _bench_names()) == []


def test_ratio_is_the_one_rational_class():
    # One integer rational: no class but `model.Ratio` declares both a
    # numerator and a denominator field.
    rationals = []
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        for node in ast.walk(tree):
            if not isinstance(node, ast.ClassDef):
                continue
            fields = {item.target.id for item in node.body
                      if isinstance(item, ast.AnnAssign)
                      and isinstance(item.target, ast.Name)}
            if {"numerator", "denominator"} <= fields:
                rationals.append((path.name, node.name))
    assert rationals == [("model.py", "Ratio")]


def test_all_is_unique_and_resolves():
    assert len(wallkit.__all__) == len(set(wallkit.__all__))
    assert [n for n in wallkit.__all__ if not hasattr(wallkit, n)] == []


def _called_names(node: ast.AST) -> set[str]:
    return {call.func.id if isinstance(call.func, ast.Name) else call.func.attr
            for call in ast.walk(node) if isinstance(call, ast.Call)
            and isinstance(call.func, (ast.Name, ast.Attribute))}


def test_box_oracle_shares_no_code_with_the_enumerator():
    # box_witnesses is the independent oracle for enumerate_witnesses, so
    # neither it nor any walls.py function it reaches may use the least walk
    # or the x-scan.
    tree = ast.parse((SRC / "walls.py").read_text())
    functions = {node.name: node for node in tree.body
                 if isinstance(node, ast.FunctionDef)}
    reached, todo = set(), ["box_witnesses"]
    while todo:
        name = todo.pop()
        reached.add(name)
        todo += [n for n in _called_names(functions[name])
                 if n in functions and n not in reached]
    assert "box_radius" in reached
    banned = {"enumerate_witnesses", "_witness_walk", "_walk_lines"}
    # A renamed walk helper must not slip past the guard.
    assert banned <= functions.keys()
    assert sorted(reached & banned) == []


_REGIME = re.compile(r"\b(posdef|negdef|isotropic|indef)\b")


def _regime_names(tree: ast.Module) -> set[str]:
    """The regime names of class ids spelled in a module's string constants
    other than docstrings."""
    docstrings = {id(node.body[0].value) for node in ast.walk(tree)
                  if isinstance(node, (ast.Module, ast.ClassDef,
                                       ast.FunctionDef, ast.AsyncFunctionDef))
                  and node.body and isinstance(node.body[0], ast.Expr)}
    return {name for node in ast.walk(tree)
            if isinstance(node, ast.Constant) and isinstance(node.value, str)
            and id(node) not in docstrings
            for name in _REGIME.findall(node.value)}


def test_class_id_regimes_are_spelled_only_in_binforms():
    # A class id starts with its regime's name.  Only binforms spells one,
    # so a fast path that formats an id cannot fork the id format.
    spelled = {path.name: names for path in sorted(SRC.rglob("*.py"))
               if (names := _regime_names(ast.parse(path.read_text())))}
    assert spelled == {
        "binforms.py": {"posdef", "negdef", "isotropic", "indef"}}
    assert _regime_names(ast.parse(
        '"""posdef in a docstring"""\nID = "indef:%s"\n'
        'f"{x}:isotropic"\n')) == {"indef", "isotropic"}


# DomainError and its subclasses: every refusal of the package.
_REFUSALS = {"DomainError", "DegenerateFormError", "ReductionBudgetError"}

# What a refusal's message may print other than through `model._shown`:
# the CLI's argv text (a range, the option's name, --check), the output
# path and the system's reason, and constants.
_UNSHOWN = {
    ("binforms.py", "_MAX_REDUCTION_STEPS"),
    ("cli.py", "', '.join([*CHECKS, 'all'])"),
    ("cli.py", "args.check"),
    ("cli.py", "exc.strerror"),
    ("cli.py", "name"),
    ("cli.py", "path"),
    ("cli.py", "text"),
    ("model.py", "INPUT_DIGITS"),
    ("model.py", "name"),
}


def _unshown(tree: ast.AST) -> set[str]:
    """The source of every value a refusal's message formats other than
    through a `_shown(...)` call, and of every message that is no text."""
    found = set()
    for node in ast.walk(tree):
        if not (isinstance(node, ast.Call) and _REFUSALS & {
                getattr(node.func, "id", None),
                getattr(node.func, "attr", None)}):
            continue
        for arg in [*node.args, *(kw.value for kw in node.keywords)]:
            if isinstance(arg, ast.Constant) and isinstance(arg.value, str):
                continue
            if not isinstance(arg, ast.JoinedStr):
                found.add(ast.unparse(arg))
                continue
            for part in arg.values:
                if not isinstance(part, ast.FormattedValue):
                    continue
                value = part.value
                if not (isinstance(value, ast.Call)
                        and getattr(value.func, "id", None) == "_shown"
                        and part.conversion == -1
                        and part.format_spec is None):
                    found.add(ast.unparse(value))
    return found


def test_refusals_print_values_only_through_shown():
    # A refusal prints a caller's value through `model._shown`, which
    # keeps every message short and takes no object's str or repr.
    files = sorted(SRC.rglob("*.py"))
    assert len(files) >= 9
    assert {(path.name, text) for path in files
            for text in _unshown(ast.parse(path.read_text()))} == _UNSHOWN
    assert _unshown(ast.parse(
        'raise DomainError(f"{_shown(x)} {y!r} {_shown(z)!r}")\n'
        'raise binforms.DegenerateFormError(message)\n'
        'raise ReductionBudgetError("fixed")\n'
        'raise TypeError(f"{w}")\n')) == {"y", "_shown(z)", "message"}


def _imported_modules(tree: ast.Module) -> set[str]:
    """The package modules a module imports, by bare name, whether as
    `from .curves import x`, `from . import curves` or `import
    wallkit.curves`."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names |= {alias.name.removeprefix("wallkit.")
                      for alias in node.names}
        elif isinstance(node, ast.ImportFrom):
            module = (node.module or "").removeprefix("wallkit.")
            if module in ("", "wallkit"):
                names |= {alias.name for alias in node.names}
            else:
                names.add(module)
    return names


def test_catalog_imports_nothing_from_curves():
    # The catalog builds no parameters and reads q(R) off its own gram
    # (det/2h), so it needs nothing of the Brill-Noether module.
    tree = ast.parse((SRC / "catalog.py").read_text())
    imported = _imported_modules(tree)
    assert {"binforms", "model", "walls"} <= imported
    assert "curves" not in imported
    assert _imported_modules(ast.parse(
        "from . import curves\nimport wallkit.walls\n"
        "from wallkit.model import Ratio\n")) == {"curves", "walls", "model"}


def test_package_imports_nothing_from_fractions():
    # Every rational is an integer numerator over a known denominator
    # (`model.Ratio`), so no module imports `fractions` or names from it.
    files = sorted(SRC.rglob("*.py"))
    assert len(files) >= 9
    imported = []
    for path in files:
        tree = ast.parse(path.read_text(), str(path))
        imported += [(path.name, alias.name) for node in ast.walk(tree)
                     if isinstance(node, ast.Import) for alias in node.names]
        imported += [(path.name, node.module) for node in ast.walk(tree)
                     if isinstance(node, ast.ImportFrom)]
    assert {name for name, _ in imported} == {path.name for path in files}
    assert [(name, module) for name, module in imported
            if module and module.split(".")[0] == "fractions"] == []


def _unused_imports(source: str) -> list[str]:
    """The names a module imports (`from __future__` aside) and never
    references in code; a name in a docstring or a comment is no
    reference."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    referenced = {node.id for node in ast.walk(tree)
                  if isinstance(node, ast.Name)}
    return sorted(f"{name}:{line}" for name, line in imported.items()
                  if name not in referenced)


def test_no_module_imports_a_name_it_never_references():
    # `__init__.py` imports to re-export through `__all__`; every other
    # module imports only what its code reads, so a name left behind by a
    # deletion shows up here.
    modules = sorted(path for path in SRC.rglob("*.py")
                     if path.name != "__init__.py")
    assert len(modules) >= 8
    assert [(path.name, name) for path in modules
            for name in _unused_imports(path.read_text())] == []
    assert _unused_imports("from .model import Triple, moduli_vector\n"
                           "x: Triple\n") == ["moduli_vector:1"]


_HEX_DIGEST = re.compile(r"[0-9a-fA-F]{64}")


def test_only_the_golden_corpus_test_spells_a_digest():
    # tests/golden_cli.jsonl pins the CLI's bytes, and tests/golden_cli.py
    # rewrites it for a named byte change; test_golden_cli.py holds the
    # benchmark workloads' digests beside it.  A sha256 spelled in any other
    # test file would be a second pin to edit by hand.
    tests = Path(__file__).resolve().parent
    digests = [f"{path.name}:{node.lineno}"
               for path in sorted(tests.glob("*.py"))
               for node in ast.walk(ast.parse(path.read_text(), str(path)))
               if isinstance(node, ast.Constant)
               and isinstance(node.value, str)
               and _HEX_DIGEST.fullmatch(node.value)]
    assert [d for d in digests if not d.startswith("test_golden_cli.py:")] == []
    assert digests


def _code_lines_script():
    path = Path(__file__).resolve().parent / "code_lines.py"
    spec = importlib.util.spec_from_file_location("code_lines", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# Eight code lines: blank lines, comments and the three docstrings do not
# count; a string that is not a docstring and a bracketed continuation do,
# line by line.
_SNIPPET = '''"""Module docstring,
over two lines."""

import os  # a trailing comment


def f(x):
    """Function docstring."""
    # a comment line
    y = (x +
         1)
    return """not a
docstring"""


class C:
    """Class docstring."""

    z = 1
'''


def test_code_lines_counts_a_fixed_snippet(tmp_path, capsys):
    script = _code_lines_script()
    assert script.code_lines(_SNIPPET) == 8
    assert script.code_lines('"""Only a docstring."""\n') == 0
    (tmp_path / "b.py").write_text(_SNIPPET)
    (tmp_path / "a.py").write_text("x = 1\n\n# note\n")
    (tmp_path / "notes.txt").write_text("x = 1\n")
    assert script.main([str(tmp_path)]) == 0
    assert capsys.readouterr().out == "1 a.py\n8 b.py\n9 total\n"
