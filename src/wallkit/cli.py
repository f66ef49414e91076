"""Command-line front end: single queries, catalog export, and grid scans.

Every subcommand has one handler that checks its arguments and returns its
records (`scan` and `coisotropic --family` return generators, so their
records stream).  The point subcommands return dicts, which
`model.write_records` JSON-encodes; `catalog` and `scan` return their
records already rendered as JSON text, one `catalog.entry_line` per entry
and one `_scan_records` line per point, so they build no dict and run no
JSON encoder.  `main` owns the output: it alone opens `--output` (or uses
stdout) and writes the records as JSON lines through `model.write_records`.

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
from .binforms import flat_gram
from .checks import CHECKS, Point, Row, oracle_agrees
from .curves import bn_dims, curve_square
from .model import (DomainError, Ratio, SurfaceContext, _require_bounded,
                    ratio_str, write_records)
from .walls import WallVerdict, primitive_dual_divisor


def _divisor_json(d) -> dict:
    return {"l": ratio_str(d.l), "e": ratio_str(d.e)}


def _curve_json(c) -> dict:
    return {"l": c.l, "r": c.r}


def _witness_json(verdict: WallVerdict) -> dict | None:
    w = verdict.witness
    if w is None:
        return None
    return {
        "coords": list(w.coords),
        "ambient": list(verdict.witness_ambient),
        "q": w.q,
        "b": w.b,
        "branch": w.branch,
    }


def _descriptor_json(desc: sub_mod.SubvarietyDescriptor) -> dict:
    return {
        "source": desc.source,
        "codim": desc.codim,
        "fiber_dim": desc.fiber_dim,
        "base_dim": desc.base_dim,
        "total_dim": desc.total_dim,
        "line": _curve_json(desc.line_class),
        "q_line": ratio_str(desc.line_square),
        "p": desc.p,
        "k": desc.k,
        "epsilon": desc.epsilon,
        "delta": desc.delta,
        "k_prime": desc.k_prime,
        "moduli_space_dim": desc.moduli_space_dim,
    }


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


def _write_output(records: Iterable[dict | str], path: str | None) -> None:
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


def _cmd_wall_test(args) -> list[dict]:
    pt = _point(args)
    verdict = pt.verdict
    record = {
        "epsilon": args.epsilon, "k": args.k, "p": args.p, "delta": args.delta,
        "curve": _curve_json(pt.curve),
        "q_R": pt.q_r,
        "is_wall": verdict.is_wall,
        "branch": verdict.branch,
        "divisor": _divisor_json(verdict.divisor),
        "divisor_div": verdict.divisor_div,
        "q_D": ratio_str(verdict.q_divisor),
        "t_gram": flat_gram(verdict.t_gram) if verdict.t_gram else None,
        "witness": _witness_json(verdict),
    }
    if args.oracle:
        record["oracle_agrees"] = oracle_agrees(verdict, args.epsilon)
    return [record]


def _cmd_class(args) -> list[dict]:
    pt = _point(args)
    ctx, curve = pt.row.ctx, pt.curve
    divisor, divisor_div = primitive_dual_divisor(curve, ctx)
    return [{
        "epsilon": args.epsilon, "k": args.k, "p": args.p, "delta": args.delta,
        "curve": _curve_json(curve),
        # The dual of l*L + r*r_k is l*L + (r/div(e))*e.
        "dual_divisor": {"l": ratio_str(curve.l),
                         "e": ratio_str(Ratio(curve.r, ctx.ek_div))},
        "primitive_divisor": _divisor_json(divisor),
        "divisor_div": divisor_div,
        "q_R": pt.q_r,
    }]


def _cmd_exists(args) -> list[dict]:
    pt = _point(args)
    record = {"exists": pt.pencil, "alpha": pt.params.alpha}
    if pt.pencil:
        record["locus_dim"], record["pencil_dim"] = bn_dims(pt.params)
    return [record]


def _cmd_square(args) -> list[dict]:
    report = curve_square(_point(args).params)
    return [{
        "q_R": ratio_str(report.value),
        "rewritten": ratio_str(report.rewritten),
        "minimal": report.minimal,
        "alpha": report.alpha,
        "beta": report.beta,
        "rho": report.rho,
    }]


def _cmd_catalog(args) -> Iterable[str]:
    entries = catalog_mod.generate_catalog(
        args.k, args.epsilon, p_min=args.p_min,
        p_max=args.p_max, delta_max=args.delta_max)
    return map(catalog_mod.entry_line, entries)


def _cmd_coisotropic(args) -> Iterable[dict]:
    if args.family is None and args.delta is None:
        raise DomainError("coisotropic needs either --delta or --family")
    if args.family is not None and args.delta is not None:
        raise DomainError("coisotropic takes --delta or --family, not both")
    if args.delta is not None:
        desc = sub_mod.bundle_locus(args.p, args.delta, args.k, args.epsilon)
        return [{
            "found": desc is not None,
            "chi": sub_mod.chi_value(args.p, args.delta, args.k, args.epsilon),
            # bundle_locus is None exactly when the chi window fails
            "bound_satisfied": desc is not None,
            "descriptor": _descriptor_json(desc) if desc else None,
        }]
    # The family's arguments are checked here; its records follow lazily.
    if args.family == "nodal":
        return ({"r": r, "delta": delta, "descriptor": _descriptor_json(desc)}
                for r, delta, desc in sub_mod.nodal_family_loci(
                    args.p, args.k, args.epsilon))
    return ({"r": r, "k_prime": k_prime, "descriptor": _descriptor_json(desc)}
            for r, k_prime, desc in sub_mod.series_family_loci(
                args.p, args.k, args.epsilon))


def _cmd_lagrangian(args) -> list[dict]:
    p, delta, desc = sub_mod.lagrangian_plane(args.k, args.epsilon)
    return [{
        "p": p,
        "delta": delta,
        "q_R": ratio_str(desc.line_square),
        "moduli_dim": desc.moduli_space_dim,
        "bound_satisfied": sub_mod.bundle_bound_holds(p, delta, args.k,
                                                      args.epsilon),
        "descriptor": _descriptor_json(desc),
    }]


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
