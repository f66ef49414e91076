"""Write the golden corpus of CLI calls, tests/golden_cli.jsonl.

Each line of the corpus is one argv and what `wallkit.cli.main` does with
it, run in process: the exit code and the sha256 of its stdout, of its
stderr and of the file that its `--output` names (null when it writes
none).  A line whose argv is one of the benchmark's operations also names
its workload.  tests/test_golden_cli.py runs every argv and compares, so a
change that moves a byte of the CLI's output fails there; a change that
names a byte change rewrites the corpus, and the diff lists exactly the
argvs that moved.  It is the one place that pins the CLI's bytes: a test
that checks the bytes of a call reads the corpus's record of it
(`recorded`, `agrees`).

Run it from the repository root:

    PYTHONPATH=src python3 tests/golden_cli.py

The calls run in a fresh temporary directory with COLUMNS=80.  It uses
only the standard library and wallkit; pytest does not collect it (the
name does not start with "test_").
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import importlib.util
import io
import json
import os
import sys
import tempfile
from pathlib import Path

from wallkit.cli import main

ROOT = Path(__file__).resolve().parent.parent
CORPUS = ROOT / "tests" / "golden_cli.jsonl"
# The name every `--output` of the corpus writes to, in the directory the
# calls run in.
OUTPUT = "out.json"

POINT = ("--epsilon", "0", "--k", "2", "--p", "2", "--delta", "0")
# A full option set of each subcommand, in usage order (tests/test_cli.py
# checks that each is parsed once, by its subcommand's parser).
FULL_OPTIONS = {
    "wall-test": (*POINT, "--output", OUTPUT, "--oracle"),
    "class": (*POINT, "--output", OUTPUT),
    "exists": (*POINT, "--output", OUTPUT),
    "square": (*POINT, "--output", OUTPUT),
    "catalog": ("--epsilon", "0", "--k", "2", "--p-min", "2", "--p-max", "6",
                "--delta-max", "2", "--output", OUTPUT),
    "coisotropic": (*POINT, "--family", "nodal", "--output", OUTPUT),
    "lagrangian": ("--epsilon", "0", "--k", "2", "--output", OUTPUT),
    "scan": ("--epsilon", "0..1", *POINT[2:], "--check", "all",
             "--output", OUTPUT),
}
_CHECKS = ("wall-square", "exists-routes", "square-forms", "dual-lattice",
           "min-square", "witness-oracle", "moduli-dim")
_BOUND = "1" + "0" * 1000


def _points(command: str, *extra: str):
    for epsilon, k, p, delta in ((0, 2, 2, 0), (0, 3, 4, 0), (0, 5, 11, 3),
                                 (1, 2, 7, 0), (1, 4, 9, 1), (1, 3, 20, 18),
                                 (0, 2000, 552, 452)):
        yield (command, "--epsilon", str(epsilon), "--k", str(k),
               "--p", str(p), "--delta", str(delta), *extra)


def point_argvs(command: str, *extra: str):
    """Every call of a point subcommand over the small box: epsilon in
    {0, 1}, 2 <= k <= 4, 2 <= p <= 12 and 0 <= delta <= p - 2*epsilon."""
    for epsilon in (0, 1):
        for k in (2, 3, 4):
            for p in range(2, 13):
                for delta in range(p - 2 * epsilon + 1):
                    yield (command, "--epsilon", str(epsilon), "--k", str(k),
                           "--p", str(p), "--delta", str(delta), *extra)


def _family_argvs(family: str):
    for epsilon in (0, 1):
        for k in (2, 3, 4):
            for p in range(2, 13):
                yield ("coisotropic", "--epsilon", str(epsilon), "--k", str(k),
                       "--p", str(p), "--family", family)


# Each point subcommand, each family and `lagrangian` over the small box,
# by the subcommand and option they exercise, in corpus order.
SMALL_BOX = {
    "wall-test": lambda: point_argvs("wall-test"),
    "class": lambda: point_argvs("class"),
    "exists": lambda: point_argvs("exists"),
    "square": lambda: point_argvs("square"),
    "coisotropic --delta": lambda: point_argvs("coisotropic"),
    "wall-test --oracle": lambda: point_argvs("wall-test", "--oracle"),
    "coisotropic --family nodal": lambda: _family_argvs("nodal"),
    "coisotropic --family series": lambda: _family_argvs("series"),
    "lagrangian": lambda: (("lagrangian", "--epsilon", epsilon, "--k", k)
                           for epsilon in ("0", "1") for k in ("2", "3", "4")),
}


def _argvs():
    """The corpus's argvs other than the benchmark's, in corpus order, each
    once."""
    return dict.fromkeys(_calls())


def _calls():
    # Every subcommand with every option it takes, then the argument
    # parser's own routes: help, usage, a call parsed by the full parser.
    for name, options in FULL_OPTIONS.items():
        yield (name, *options)
    yield ()
    yield ("-h",)
    yield ("--help",)
    for name, options in FULL_OPTIONS.items():
        yield (name, "--help")
        yield (name,)
        yield (name, "stray")
        yield (name, *options, "--bogus")
        yield (name, *options[:2], "-h")
    yield ("frobnicate",)
    yield ("wall", *POINT)
    yield ("sqaure", *POINT)
    yield (" square", *POINT)
    yield ("--k", "2", "scan")
    yield ("--", "square", *POINT)
    yield ("square", "--", *POINT)
    yield ("square", *POINT, "--")
    yield ("square", *POINT, "-")
    yield ("square", "--epsilon=0", "--k=2", "--p=2", "--delta=0")
    yield ("square", *POINT, "--epsilon", "1")
    yield ("wall-test", *POINT, "--ora")
    yield ("square", "--epsilon", "3", *POINT[2:])
    yield ("class", "--epsilon", "0", "--k", "two", "--p", "2", "--delta", "0")
    yield ("coisotropic", *POINT[:6], "--family", "cusp")
    # The point subcommands on walls and non-walls of both surface types,
    # out to a box beyond the oracle's limit.
    for command in ("wall-test", "class", "exists", "square", "coisotropic"):
        yield from _points(command)
    yield from _points("wall-test", "--oracle")
    for family in ("nodal", "series"):
        for epsilon, k, p in ((0, 2, 2), (0, 8, 14), (1, 3, 2), (1, 6, 30)):
            yield ("coisotropic", "--epsilon", str(epsilon), "--k", str(k),
                   "--p", str(p), "--family", family)
        yield ("coisotropic", *POINT[:6], "--family", family,
               "--output", OUTPUT)
    for epsilon in ("0", "1"):
        for k in ("2", "3", "9"):
            yield ("lagrangian", "--epsilon", epsilon, "--k", k)
        yield ("catalog", "--epsilon", epsilon, "--k", "5")
        yield ("catalog", "--epsilon", epsilon, "--k", "6", "--p-min", "4",
               "--p-max", "9", "--delta-max", "3")
    for check in _CHECKS:
        yield ("scan", "--k", "2..3", "--p", "2..9", "--check", check)
    yield ("scan", "--epsilon", "1", "--k", "2..4", "--p", "5..12",
           "--delta", "2..4", "--check", "all")
    # Each refusal.
    yield ("wall-test", "--epsilon", "0", "--k", _BOUND, "--p", "2",
           "--delta", "0")
    yield ("wall-test", "--epsilon", "0", "--k", "2", "--p", "-" + _BOUND,
           "--delta", "0")
    yield ("square", "--epsilon", "0", "--k", "1", "--p", "2", "--delta", "0")
    yield ("square", "--epsilon", "0", "--k", "2", "--p", "1", "--delta", "0")
    yield ("class", "--epsilon", "0", "--k", "2", "--p", "4", "--delta", "5")
    yield ("exists", "--epsilon", "1", "--k", "2", "--p", "2", "--delta", "1")
    yield ("lagrangian", "--epsilon", "0", "--k", "1")
    yield ("catalog", "--epsilon", "0", "--k", _BOUND)
    yield ("catalog", "--epsilon", "0", "--k", "3", "--p-min", "100")
    yield ("catalog", "--epsilon", "1", "--k", "3", "--p-max", "1")
    yield ("catalog", "--epsilon", "0", "--k", "3", "--delta-max", "-1")
    yield ("coisotropic", *POINT[:6])
    yield ("coisotropic", *POINT, "--family", "series")
    yield ("coisotropic", "--epsilon", "0", "--k", "2", "--p", "1",
           "--family", "nodal")
    for flag in ("--epsilon", "--k", "--p", "--delta"):
        for text in ("2..x", "5..3", ""):
            yield ("scan", "--k", "2", "--p", "2..4", "--check", "all",
                   flag, text)
    yield ("scan", "--k", "1..3", "--p", "2", "--check", "all")
    yield ("scan", "--k", "2", "--p", "2..1" + "0" * 1000, "--check", "all")
    yield ("scan", "--epsilon", "0..2", "--k", "2", "--p", "2",
           "--check", "all")
    yield ("scan", "--k", "2", "--p", "2", "--check", "nope")
    yield ("square", *POINT, "--output", "absent/" + OUTPUT)
    yield ("square", *POINT, "--output", ".")
    # The small box (the calls above that lie in it are not listed again).
    for argvs in SMALL_BOX.values():
        yield from argvs()
    # A scan of every check over many rows, a dual-lattice scan at k = 3000
    # (the q(v) = 5998 lines of each span are never walked) and a command
    # abbreviated before its options are complete.
    yield ("scan", "--k", "2..4", "--p", "2..20", "--check", "all")
    yield ("scan", "--epsilon", "0", "--k", "3000", "--p", "6100..6101",
           "--delta", "0..200", "--check", "dual-lattice")
    yield ("wall", "--epsilon", "0", "--k", "2")


def benchmark_ops() -> dict[str, list[tuple[str, ...]]]:
    """The argvs of each benchmark workload, in the order of its ops
    (bench/workloads.py, which imports nothing but the standard library)."""
    spec = importlib.util.spec_from_file_location(
        "bench_workloads", ROOT / "bench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    # Its dataclasses look their module up by name.
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return {name: [op.argv for op in workload.ops(False)]
            for name, workload in module.WORKLOADS.items()}


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def outcome(argv) -> tuple[dict, str]:
    """Run `main(argv)` in the current directory: the corpus fields of the
    call (exit code and sha256s) and its stdout.  The `--output` file, if
    the call writes one, is read and deleted."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(list(argv))
        except SystemExit as exc:
            code = exc.code
    written = None
    if os.path.isfile(OUTPUT):
        written = _sha256(Path(OUTPUT).read_bytes())
        os.remove(OUTPUT)
    return {"exit": code, "stdout": _sha256(out.getvalue().encode()),
            "stderr": _sha256(err.getvalue().encode()),
            "output": written}, out.getvalue()


@functools.cache
def corpus() -> tuple[dict, ...]:
    """The lines of the corpus as written, in order."""
    return tuple(json.loads(line) for line in
                 CORPUS.read_text(encoding="utf-8").splitlines())


@functools.cache
def _lines_by_argv() -> dict[tuple[str, ...], dict]:
    lines = {}
    for line in corpus():
        lines.setdefault(tuple(line["argv"]), line)
    return lines


def recorded(argv) -> dict:
    """The corpus line of `argv`: its exit code and sha256s."""
    return _lines_by_argv()[tuple(argv)]


def agrees(argv) -> bool:
    """Whether `main(argv)`, run in the current directory, gives the exit
    code and the bytes that the corpus records for `argv`."""
    fields, _ = outcome(argv)
    line = recorded(argv)
    return all(line[key] == value for key, value in fields.items())


def corpus_lines():
    """(workload or None, argv) for every line of the corpus, in order."""
    for argv in _argvs():
        yield None, argv
    for name, argvs in benchmark_ops().items():
        for argv in argvs:
            yield name, argv


def write_corpus() -> int:
    os.environ["COLUMNS"] = "80"
    lines = []
    with tempfile.TemporaryDirectory() as directory:
        os.chdir(directory)
        try:
            for workload, argv in corpus_lines():
                fields, _ = outcome(argv)
                line = {"argv": list(argv), **fields}
                if workload is not None:
                    line["workload"] = workload
                lines.append(json.dumps(line) + "\n")
        finally:
            os.chdir(ROOT)
    CORPUS.write_text("".join(lines), encoding="utf-8")
    print(f"{len(lines)} calls written to {CORPUS.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(write_corpus())
