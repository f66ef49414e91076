"""Command-line front end: single queries, catalog export, and grid scans.

All numeric output is exact; rationals are serialized as "num/den" strings.
Exit codes: 0 success, 2 domain/validation error, 1 internal error.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys
import traceback
from typing import IO, Iterator

from . import catalog as catalog_mod
from . import subvarieties as sub_mod
from .checks import CHECKS, Point
from .curves import (
    BNParams,
    bn_dims,
    curve_class,
    curve_square,
    dual_divisor,
    exists_pencil,
)
from .model import DomainError, fraction_str
from .walls import WallVerdict, primitive_dual_divisor, wall_test


def _divisor_json(d) -> dict:
    return {"l": fraction_str(d.l), "e": fraction_str(d.e)}


def _curve_json(c) -> dict:
    return {"l": c.l, "r": c.r}


def _flat_gram(gram) -> list[int]:
    return [gram[0][0], gram[0][1], gram[1][0], gram[1][1]]


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
        "q_line": fraction_str(desc.line_square),
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
    if lo > hi:
        raise DomainError(f"empty range for {name}: {text!r}")
    return lo, hi


def _open_output(path: str | None) -> contextlib.AbstractContextManager[IO[str]]:
    if path is None:
        return contextlib.nullcontext(sys.stdout)
    if not os.path.isabs(path):
        base = os.environ.get("WALLKIT_OUTPUT_DIR")
        if base:
            path = os.path.join(base, path)
    return open(path, "w", encoding="utf-8")


def _emit(record: dict, out: IO[str]) -> None:
    out.write(json.dumps(record) + "\n")


# ---------------------------------------------------------------- commands

def _cmd_wall_test(args) -> int:
    params = BNParams(args.p, args.delta, args.k, args.epsilon)
    ctx = params.context()
    verdict = wall_test(curve_class(params), ctx, with_oracle=args.oracle)
    record = {
        "epsilon": args.epsilon, "k": args.k, "p": args.p, "delta": args.delta,
        "curve": _curve_json(curve_class(params)),
        "q_R": fraction_str(curve_square(params).value),
        "is_wall": verdict.is_wall,
        "branch": verdict.branch,
        "divisor": _divisor_json(verdict.divisor),
        "divisor_div": verdict.divisor_div,
        "q_D": fraction_str(verdict.q_divisor),
        "t_gram": _flat_gram(verdict.t_gram) if verdict.t_gram else None,
        "witness": _witness_json(verdict),
    }
    if args.oracle:
        record["oracle_agrees"] = verdict.oracle_agrees
    with _open_output(args.output) as out:
        _emit(record, out)
    return 0


def _cmd_class(args) -> int:
    params = BNParams(args.p, args.delta, args.k, args.epsilon)
    ctx = params.context()
    curve = curve_class(params)
    primitive, div = primitive_dual_divisor(curve, ctx)
    record = {
        "epsilon": args.epsilon, "k": args.k, "p": args.p, "delta": args.delta,
        "curve": _curve_json(curve),
        "dual_divisor": _divisor_json(dual_divisor(params)),
        "primitive_divisor": _divisor_json(primitive),
        "divisor_div": div,
        "q_R": fraction_str(curve_square(params).value),
    }
    with _open_output(args.output) as out:
        _emit(record, out)
    return 0


def _cmd_exists(args) -> int:
    params = BNParams(args.p, args.delta, args.k, args.epsilon)
    ok = exists_pencil(params)
    record = {"exists": ok, "alpha": params.alpha}
    if ok:
        locus, pencils = bn_dims(params)
        record["locus_dim"] = locus
        record["pencil_dim"] = pencils
    with _open_output(args.output) as out:
        _emit(record, out)
    return 0


def _cmd_square(args) -> int:
    params = BNParams(args.p, args.delta, args.k, args.epsilon)
    report = curve_square(params)
    record = {
        "q_R": fraction_str(report.value),
        "rewritten": fraction_str(report.rewritten),
        "minimal": report.minimal,
        "alpha": report.alpha,
        "beta": report.beta,
        "rho": report.rho,
    }
    with _open_output(args.output) as out:
        _emit(record, out)
    return 0


def _cmd_catalog(args) -> int:
    entries = catalog_mod.generate_catalog(
        args.k, args.epsilon, p_min=args.p_min,
        p_max=args.p_max, delta_max=args.delta_max)
    with _open_output(args.output) as out:
        catalog_mod.export_catalog(entries, out)
    return 0


def _cmd_coisotropic(args) -> int:
    if args.family is None and args.delta is None:
        raise DomainError("coisotropic needs either --delta or --family")
    with _open_output(args.output) as out:
        if args.delta is not None:
            desc = sub_mod.bundle_locus(args.p, args.delta, args.k,
                                        args.epsilon)
            record = {
                "found": desc is not None,
                "chi": sub_mod.chi_value(args.p, args.delta, args.k,
                                         args.epsilon),
                "bound_satisfied": sub_mod.bundle_bound_holds(
                    args.p, args.delta, args.k, args.epsilon),
                "descriptor": _descriptor_json(desc) if desc else None,
            }
            _emit(record, out)
        elif args.family == "nodal":
            for r, delta, desc in sub_mod.nodal_family_loci(
                    args.p, args.k, args.epsilon):
                _emit({"r": r, "delta": delta,
                       "descriptor": _descriptor_json(desc)}, out)
        else:
            for r, k_prime, desc in sub_mod.series_family_loci(
                    args.p, args.k, args.epsilon):
                _emit({"r": r, "k_prime": k_prime,
                       "descriptor": _descriptor_json(desc)}, out)
    return 0


def _cmd_lagrangian(args) -> int:
    p, delta, desc = sub_mod.lagrangian_plane(args.k, args.epsilon)
    record = {
        "p": p,
        "delta": delta,
        "q_R": fraction_str(desc.line_square),
        "moduli_dim": desc.moduli_space_dim,
        "bound_satisfied": sub_mod.bundle_bound_holds(p, delta, args.k,
                                                      args.epsilon),
        "descriptor": _descriptor_json(desc),
    }
    with _open_output(args.output) as out:
        _emit(record, out)
    return 0


# ---------------------------------------------------------------- scans

def _scan_points(args) -> Iterator[tuple[int, int, int, int]]:
    e_lo, e_hi = _parse_range(args.epsilon, "epsilon")
    k_lo, k_hi = _parse_range(args.k, "k")
    p_lo, p_hi = _parse_range(args.p, "p")
    if not 0 <= e_lo <= e_hi <= 1:
        raise DomainError(f"epsilon must lie in 0..1, got {args.epsilon!r}")
    if k_lo < 2:
        raise DomainError(f"k must satisfy k >= 2, got {args.k!r}")
    if p_lo < 2:
        raise DomainError(f"p must satisfy p >= 2, got {args.p!r}")
    d_bounds = _parse_range(args.delta, "delta") if args.delta else None
    for epsilon in range(e_lo, e_hi + 1):
        for k in range(k_lo, k_hi + 1):
            for p in range(p_lo, p_hi + 1):
                d_lo, d_hi = 0, p - 2 * epsilon
                if d_bounds:
                    d_lo = max(d_lo, d_bounds[0])
                    d_hi = min(d_hi, d_bounds[1])
                for delta in range(d_lo, d_hi + 1):
                    yield epsilon, k, p, delta


def _cmd_scan(args) -> int:
    if args.check == "all":
        names = list(CHECKS)
    elif args.check in CHECKS:
        names = [args.check]
    else:
        raise DomainError(
            f"unknown check {args.check!r}; choose from "
            f"{', '.join([*CHECKS, 'all'])}")
    with _open_output(args.output) as out:
        for epsilon, k, p, delta in _scan_points(args):
            point = Point(epsilon, k, p, delta)
            record: dict = {"epsilon": epsilon, "k": k, "p": p, "delta": delta}
            applied, failed = False, []
            for name in names:
                result = CHECKS[name](point)
                if result is None:
                    continue
                applied = True
                ok, payload = result
                if not ok:
                    failed.append(name)
                if len(names) == 1:
                    record.update(payload)
                else:
                    record[name] = payload or True
            if not applied:
                continue
            if failed:
                record["failed"] = failed
            record["consistent"] = not failed
            _emit(record, out)
    return 0


# ---------------------------------------------------------------- parser

def _add_point_args(sub, with_delta=True) -> None:
    sub.add_argument("--epsilon", type=int, required=True, choices=(0, 1))
    sub.add_argument("--k", type=int, required=True)
    sub.add_argument("--p", type=int, required=True)
    if with_delta:
        sub.add_argument("--delta", type=int, required=True)
    sub.add_argument("--output", default=None)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wallkit",
        description="Exact wall-divisor decisions on Hilbert schemes of "
                    "points and generalised Kummer manifolds.")
    subs = parser.add_subparsers(dest="command", required=True)

    s = subs.add_parser("wall-test", help="decide whether a curve class "
                                          "spans a wall")
    _add_point_args(s)
    s.add_argument("--oracle", action="store_true",
                   help="cross-check witnesses against box enumeration")
    s.set_defaults(func=_cmd_wall_test)

    s = subs.add_parser("class", help="curve class and its dual divisors")
    _add_point_args(s)
    s.set_defaults(func=_cmd_class)

    s = subs.add_parser("exists", help="pencil existence and dimensions")
    _add_point_args(s)
    s.set_defaults(func=_cmd_exists)

    s = subs.add_parser("square", help="curve square in both printed forms")
    _add_point_args(s)
    s.set_defaults(func=_cmd_square)

    s = subs.add_parser("catalog", help="wall-lattice catalog (JSON lines)")
    s.add_argument("--epsilon", type=int, required=True, choices=(0, 1))
    s.add_argument("--k", type=int, required=True)
    s.add_argument("--p-min", type=int, default=2)
    s.add_argument("--p-max", type=int, default=None)
    s.add_argument("--delta-max", type=int, default=None)
    s.add_argument("--output", default=None)
    s.set_defaults(func=_cmd_catalog)

    s = subs.add_parser("coisotropic", help="coisotropic subvariety numerics")
    s.add_argument("--epsilon", type=int, required=True, choices=(0, 1))
    s.add_argument("--k", type=int, required=True)
    s.add_argument("--p", type=int, required=True)
    s.add_argument("--delta", type=int, default=None)
    s.add_argument("--family", choices=("nodal", "series"), default=None)
    s.add_argument("--output", default=None)
    s.set_defaults(func=_cmd_coisotropic)

    s = subs.add_parser("lagrangian", help="Lagrangian plane parameters")
    s.add_argument("--epsilon", type=int, required=True, choices=(0, 1))
    s.add_argument("--k", type=int, required=True)
    s.add_argument("--output", default=None)
    s.set_defaults(func=_cmd_lagrangian)

    s = subs.add_parser("scan", help="stream per-point consistency records")
    s.add_argument("--epsilon", default="0..1")
    s.add_argument("--k", required=True)
    s.add_argument("--p", required=True)
    s.add_argument("--delta", default=None)
    s.add_argument("--check", required=True)
    s.add_argument("--output", default=None)
    s.set_defaults(func=_cmd_scan)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception:
        traceback.print_exc()
        return 1


if __name__ == "__main__":
    sys.exit(main())
