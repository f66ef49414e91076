"""Command-line front end: single queries, catalog export, and grid scans.

Every subcommand has one handler that checks its arguments and returns its
records (`scan` and `coisotropic --family` return generators, so their
records stream).  Every record is already its JSON text, one line without
its newline: the point subcommands fill this module's templates,
`catalog` writes one `catalog.entry_line` per entry and `scan` one
`_scan_records` line per point.  So no command builds a dict for its
output or runs a JSON encoder, and no wallkit process imports `json`.
`main` owns the output: it alone opens `--output` (or uses stdout) and
writes the lines through `model.write_records`.

`main` builds the argument parser, every subcommand with its options, once
per process and keeps it with its subcommands' parsers by name; each parse
gets a fresh namespace.  A well-formed call is parsed once, by its
subcommand's parser, and `command` is set as the full parser sets it.  The
full parser parses only an argv that does not start with a subcommand's
name (none, `-h`, an unknown or abbreviated command, an option before the
command) and one with arguments that the subcommand's parser leaves over,
which it reports with its own usage.  A subcommand's help and errors come
from the same parser object on either route.

All numeric output is exact: a rational is kept as an integer numerator
over a known denominator and written as reduced "num/den" text
(`model.ratio_str`).
Exit codes: 0 success, 2 domain/validation error (an `--output` file that
cannot be opened, written or closed, or a closed or full stdout, included),
1 internal error.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
import traceback
from typing import Iterable, Iterator

from . import catalog as catalog_mod
from . import subvarieties as sub_mod
from .checks import _JSON_BOOL, CHECKS, Point, Row, oracle_agrees
from .curves import bn_dims, curve_square
from .model import (DomainError, Ratio, SurfaceContext, _require_bounded,
                    ratio_str, write_records)
from .walls import WallVerdict, primitive_dual_divisor


# Every record is one template filled from its values: the bytes of
# `json.dumps` of the record's dict, in key order.  No value needs JSON
# escaping: each is an int, a bool, null or fixed ASCII (a branch or
# source name, or "num/den" digits).  A divisor's coefficients and q(D)
# are ints, whose reduced "num/den" text (`model.ratio_str`) is "<n>/1".
_CURVE = '{"l": %d, "r": %d}'
_DIVISOR = '{"l": "%d/1", "e": "%d/1"}'
_WITNESS = ('{"coords": [%d, %d], "ambient": [%d, %d, %d], "q": %d, "b": %d, '
            '"branch": "%s"}')
_DESCRIPTOR = ('{"source": "%s", "codim": %d, "fiber_dim": %d, '
               '"base_dim": %d, "total_dim": %d, "line": {"l": %d, "r": %d}, '
               '"q_line": "%s", "p": %d, "k": %d, "epsilon": %d, '
               '"delta": %s, "k_prime": %s, "moduli_space_dim": %s}')


def _int_or_null(value: int | None) -> str:
    return "null" if value is None else "%d" % value


def _witness_json(verdict: WallVerdict) -> str:
    w = verdict.witness
    if w is None:
        return "null"
    return _WITNESS % (*w.coords, *verdict.witness_ambient, w.q, w.b,
                       w.branch)


def _descriptor_json(desc: sub_mod.SubvarietyDescriptor) -> str:
    return _DESCRIPTOR % (
        desc.source, desc.codim, desc.fiber_dim, desc.base_dim,
        desc.total_dim, *desc.line_class, ratio_str(desc.line_square),
        desc.p, desc.k, desc.epsilon, _int_or_null(desc.delta),
        _int_or_null(desc.k_prime), _int_or_null(desc.moduli_space_dim))


def _parse_range(text: str, name: str) -> tuple[int, int]:
    try:
        if ".." in text:
            lo_s, hi_s = text.split("..", 1)
            lo, hi = int(lo_s), int(hi_s)
        else:
            lo = hi = int(text)
    except ValueError:
        raise DomainError(f"malformed range for {name}: {text!r} "
                          "(expected N or LO..HI)") from None
    _require_bounded(**{f"low end of {name}": lo, f"high end of {name}": hi})
    if lo > hi:
        raise DomainError(f"empty range for {name}: {text!r}")
    return lo, hi


def _write_output(records: Iterable[str], path: str | None) -> None:
    """Write the records to stdout, or to the --output file; a file that
    cannot be opened, written or closed, or a closed or full stdout, is a
    user error."""
    if path is None:
        try:
            write_records(records, sys.stdout)
            sys.stdout.flush()
        except OSError as exc:
            # Else the flush at exit fails again on what is still buffered.
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())
            os.close(devnull)
            raise DomainError(f"cannot write stdout: {exc.strerror}") from None
        return
    try:
        with open(path, "w", encoding="utf-8") as out:
            write_records(records, out)
    except OSError as exc:
        raise DomainError(f"cannot write {path}: {exc.strerror}") from None


# ---------------------------------------------------------------- commands

def _point(args) -> Point:
    return Point(Row(args.epsilon, args.k, args.p), args.delta)


_WALL_TEST = ('{"epsilon": %d, "k": %d, "p": %d, "delta": %d, "curve": %s, '
              '"q_R": "%s", "is_wall": %s, "branch": %s, "divisor": %s, '
              '"divisor_div": %d, "q_D": "%d/1", "t_gram": %s, "witness": %s')


def _cmd_wall_test(args) -> list[str]:
    pt = _point(args)
    verdict = pt.verdict
    branch, gram = verdict.branch, verdict.t_gram
    line = _WALL_TEST % (
        args.epsilon, args.k, args.p, args.delta, _CURVE % pt.curve, pt.q_r,
        _JSON_BOOL[verdict.is_wall],
        "null" if branch is None else '"%s"' % branch,
        _DIVISOR % verdict.divisor, verdict.divisor_div, verdict.q_divisor,
        "null" if gram is None else "[%d, %d, %d, %d]" % (*gram[0], *gram[1]),
        _witness_json(verdict))
    if args.oracle:
        agrees = oracle_agrees(verdict, args.epsilon)
        line += ', "oracle_agrees": %s' % (
            "null" if agrees is None else _JSON_BOOL[agrees])
    return [line + "}"]


# The dual of l*L + r*r_k is l*L + (r/div(e))*e.
_CLASS = ('{"epsilon": %d, "k": %d, "p": %d, "delta": %d, "curve": %s, '
          '"dual_divisor": {"l": "%d/1", "e": "%s"}, '
          '"primitive_divisor": %s, "divisor_div": %d, "q_R": "%s"}')


def _cmd_class(args) -> list[str]:
    pt = _point(args)
    ctx, curve = pt.row.ctx, pt.curve
    divisor, divisor_div = primitive_dual_divisor(curve, ctx)
    return [_CLASS % (
        args.epsilon, args.k, args.p, args.delta, _CURVE % curve,
        curve.l, ratio_str(Ratio(curve.r, ctx.ek_div)), _DIVISOR % divisor,
        divisor_div, pt.q_r)]


def _cmd_exists(args) -> list[str]:
    pt = _point(args)
    line = '{"exists": %s, "alpha": %d' % (_JSON_BOOL[pt.pencil],
                                           pt.params.alpha)
    if pt.pencil:
        line += ', "locus_dim": %d, "pencil_dim": %d' % bn_dims(pt.params)
    return [line + "}"]


def _cmd_square(args) -> list[str]:
    report = curve_square(_point(args).params)
    return ['{"q_R": "%s", "rewritten": "%s", "minimal": %s, "alpha": %d, '
            '"beta": %d, "rho": %d}' % (
                ratio_str(report.value), ratio_str(report.rewritten),
                _JSON_BOOL[report.minimal], report.alpha, report.beta,
                report.rho)]


def _cmd_catalog(args) -> Iterable[str]:
    entries = catalog_mod.generate_catalog(
        args.k, args.epsilon, p_min=args.p_min,
        p_max=args.p_max, delta_max=args.delta_max)
    return map(catalog_mod.entry_line, entries)


def _cmd_coisotropic(args) -> Iterable[str]:
    if args.family is None and args.delta is None:
        raise DomainError("coisotropic needs either --delta or --family")
    if args.family is not None and args.delta is not None:
        raise DomainError("coisotropic takes --delta or --family, not both")
    if args.delta is not None:
        desc = sub_mod.bundle_locus(args.p, args.delta, args.k, args.epsilon)
        # bundle_locus is None exactly when the chi window fails, so
        # "found" is "bound_satisfied".
        found = _JSON_BOOL[desc is not None]
        return ['{"found": %s, "chi": %d, "bound_satisfied": %s, '
                '"descriptor": %s}' % (
                    found,
                    sub_mod.chi_value(args.p, args.delta, args.k,
                                      args.epsilon),
                    found,
                    "null" if desc is None else _descriptor_json(desc))]
    # The family's arguments are checked here; its records follow lazily.
    if args.family == "nodal":
        line, loci = ('{"r": %d, "delta": %d, "descriptor": %s}',
                      sub_mod.nodal_family_loci)
    else:
        line, loci = ('{"r": %d, "k_prime": %d, "descriptor": %s}',
                      sub_mod.series_family_loci)
    return (line % (r, n, _descriptor_json(desc))
            for r, n, desc in loci(args.p, args.k, args.epsilon))


def _cmd_lagrangian(args) -> list[str]:
    p, delta, desc = sub_mod.lagrangian_plane(args.k, args.epsilon)
    return ['{"p": %d, "delta": %d, "q_R": "%s", "moduli_dim": %s, '
            '"bound_satisfied": %s, "descriptor": %s}' % (
                p, delta, ratio_str(desc.line_square),
                _int_or_null(desc.moduli_space_dim),
                _JSON_BOOL[sub_mod.bundle_bound_holds(p, delta, args.k,
                                                      args.epsilon)],
                _descriptor_json(desc))]


# ---------------------------------------------------------------- scans

def _scan_points(args) -> Iterator[Point]:
    """Check the scan ranges now; the grid points follow lazily, row by
    row, and the points of an (epsilon, k, p) row share its `Row`."""
    e_lo, e_hi = _parse_range(args.epsilon, "epsilon")
    k_lo, k_hi = _parse_range(args.k, "k")
    p_lo, p_hi = _parse_range(args.p, "p")
    # The ranges lie in the domain when both of their corners do.
    SurfaceContext(e_lo, p_lo, k_lo)
    SurfaceContext(e_hi, p_hi, k_hi)
    # Without --delta every delta up to p - 2*epsilon <= p_hi is scanned.
    d_lo, d_hi = (_parse_range(args.delta, "delta")
                  if args.delta is not None else (0, p_hi))
    d_lo = max(0, d_lo)
    # Only rows with a delta in range, d_lo <= min(d_hi, p - 2*epsilon),
    # build a Row.
    rows = ((Row(epsilon, k, p), range(d_lo, min(d_hi, p - 2 * epsilon) + 1))
            for epsilon in range(e_lo, e_hi + 1) if d_lo <= d_hi
            for k in range(k_lo, k_hi + 1)
            for p in range(max(p_lo, d_lo + 2 * epsilon), p_hi + 1))
    return (Point(row, delta) for row, deltas in rows for delta in deltas)


# The head of a scan record's JSON line.  The lines are rendered as text,
# in the bytes `json.dumps` gives: no escaping is needed, as the check names
# are fixed ASCII and the checks' members text needs none (see
# `wallkit.checks`).
_SCAN_HEAD = '{"epsilon": %d, "k": %d, "p": %d, "delta": %d'


def _scan_records(points, names: list[str]) -> Iterator[str]:
    """One JSON line per point where some check applies.  Under several
    checks each applied one is a member named after it: an object holding
    its members text, or true when that is empty.  A single check's members
    join the record's own.  An optional "failed" list and "consistent"
    end the line."""
    single = len(names) == 1
    checks = [(name, ', "%s": ' % name, CHECKS[name]) for name in names]
    for point in points:
        p, delta, k, epsilon = point.params
        line = _SCAN_HEAD % (epsilon, k, p, delta)
        applied, failed = False, []
        for name, key, check in checks:
            result = check(point)
            if result is None:
                continue
            applied = True
            ok, members = result
            if not ok:
                failed.append(name)
            if single:
                if members:
                    line += ", " + members
            else:
                line += key + ("{%s}" % members if members else "true")
        if not applied:
            continue
        if failed:
            line += ', "failed": ["%s"]' % '", "'.join(failed)
        yield line + (', "consistent": false}' if failed
                      else ', "consistent": true}')


def _cmd_scan(args) -> Iterator[str]:
    if args.check == "all":
        names = list(CHECKS)
    elif args.check in CHECKS:
        names = [args.check]
    else:
        raise DomainError(
            f"unknown check {args.check!r}; choose from "
            f"{', '.join([*CHECKS, 'all'])}")
    return _scan_records(_scan_points(args), names)


# ---------------------------------------------------------------- parser

# Every option, declared once; a subcommand lists the ones it takes.
_OPTIONS = {
    "--epsilon": dict(type=int, required=True, choices=(0, 1)),
    "--k": dict(type=int, required=True),
    "--p": dict(type=int, required=True),
    "--delta": dict(type=int, required=True),
    "--oracle": dict(action="store_true",
                     help="cross-check witnesses against box enumeration"),
    "--p-min": dict(type=int, default=2),
    "--p-max": dict(type=int, default=None),
    "--delta-max": dict(type=int, default=None),
    "--family": dict(choices=("nodal", "series"), default=None),
    "--check": dict(required=True),
    "--output": dict(default=None),
}
_POINT_OPTIONS = ("--epsilon", "--k", "--p", "--delta", "--output")

# (name, help, handler, options in usage order); a (flag, kwargs) pair
# replaces the shared declaration of that flag for one subcommand.
_COMMANDS = (
    ("wall-test", "decide whether a curve class spans a wall",
     _cmd_wall_test, (*_POINT_OPTIONS, "--oracle")),
    ("class", "curve class and its dual divisors",
     _cmd_class, _POINT_OPTIONS),
    ("exists", "pencil existence and dimensions",
     _cmd_exists, _POINT_OPTIONS),
    ("square", "curve square in both printed forms",
     _cmd_square, _POINT_OPTIONS),
    ("catalog", "wall-lattice catalog (JSON lines)", _cmd_catalog,
     ("--epsilon", "--k", "--p-min", "--p-max", "--delta-max", "--output")),
    ("coisotropic", "coisotropic subvariety numerics", _cmd_coisotropic,
     ("--epsilon", "--k", "--p", ("--delta", dict(type=int, default=None)),
      "--family", "--output")),
    ("lagrangian", "Lagrangian plane parameters", _cmd_lagrangian,
     ("--epsilon", "--k", "--output")),
    # scan takes N or LO..HI ranges, parsed by _parse_range.
    ("scan", "stream per-point consistency records", _cmd_scan,
     (("--epsilon", dict(default="0..1")), ("--k", dict(required=True)),
      ("--p", dict(required=True)), ("--delta", dict(default=None)),
      "--check", "--output")),
)


@functools.cache
def _parsers() -> tuple[argparse.ArgumentParser,
                        dict[str, argparse.ArgumentParser]]:
    """The argument parser, every subcommand and its options, kept with
    its subcommands' parsers by name (the `choices` of its subparsers
    action)."""
    parser = argparse.ArgumentParser(
        prog="wallkit",
        description="Exact wall-divisor decisions on Hilbert schemes of "
                    "points and generalised Kummer manifolds.")
    subs = parser.add_subparsers(dest="command", required=True)
    for name, help_text, handler, options in _COMMANDS:
        sub = subs.add_parser(name, help=help_text)
        for option in options:
            flag, kwargs = (option if isinstance(option, tuple)
                            else (option, _OPTIONS[option]))
            sub.add_argument(flag, **kwargs)
        sub.set_defaults(func=handler)
    return parser, subs.choices


def main(argv: list[str] | None = None) -> int:
    """Run one subcommand and write its records to --output or stdout."""
    parser, commands = _parsers()
    if argv is None:
        argv = sys.argv[1:]
    sub = commands.get(argv[0]) if argv else None
    if sub is None:
        args = parser.parse_args(argv)
    else:
        args, rest = sub.parse_known_args(
            argv[1:], argparse.Namespace(command=argv[0]))
        if rest:
            # The full parser reports the arguments left over, with the
            # top-level usage.
            args = parser.parse_args(argv)
    try:
        _write_output(args.func(args), args.output)
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception:
        traceback.print_exc()
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
