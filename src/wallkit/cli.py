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
from fractions import Fraction
from typing import IO, Iterator

from . import catalog as catalog_mod
from . import subvarieties as sub_mod
from .curves import (
    BNParams,
    bn_dims,
    curve_class,
    curve_square,
    dual_divisor,
    exists_pencil,
    exists_pencil_via_rho,
    minimal_square_bound,
)
from .model import (
    DomainError,
    SurfaceContext,
    ambient_gram,
    exceptional_vector,
    moduli_dim,
    moduli_vector,
    mukai_pairing,
    mukai_square,
    sheaf_vector,
)
from .walls import (
    WallVerdict,
    box_witnesses,
    enumerate_witnesses,
    primitive_dual_divisor,
    saturated_span,
    wall_test,
)


def _frac(x) -> str:
    f = Fraction(x)
    return f"{f.numerator}/{f.denominator}"


def _divisor_json(d) -> dict:
    return {"l": _frac(d.l), "e": _frac(d.e)}


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
        "q_line": _frac(desc.line_square),
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
        "q_R": _frac(curve_square(params).value),
        "is_wall": verdict.is_wall,
        "branch": verdict.branch,
        "divisor": _divisor_json(verdict.divisor),
        "divisor_div": verdict.divisor_div,
        "q_D": _frac(verdict.q_divisor),
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
        "q_R": _frac(curve_square(params).value),
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
        "q_R": _frac(report.value),
        "rewritten": _frac(report.rewritten),
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
        "q_R": _frac(desc.line_square),
        "moduli_dim": desc.moduli_space_dim,
        "bound_satisfied": sub_mod.bundle_bound_holds(p, delta, args.k,
                                                      args.epsilon),
        "descriptor": _descriptor_json(desc),
    }
    with _open_output(args.output) as out:
        _emit(record, out)
    return 0


# ---------------------------------------------------------------- scans

def _check_wall_square(epsilon, k, p, delta) -> dict | None:
    params = BNParams(p, delta, k, epsilon)
    if not exists_pencil(params):
        return None
    q_r = curve_square(params).value
    verdict = wall_test(curve_class(params), params.context())
    return {"q_R": _frac(q_r), "is_wall": verdict.is_wall,
            "consistent": verdict.is_wall == (q_r < 0)}


def _check_exists_routes(epsilon, k, p, delta) -> dict | None:
    params = BNParams(p, delta, k, epsilon)
    a, b = exists_pencil(params), exists_pencil_via_rho(params)
    return {"exists": a, "consistent": a == b}


def _check_square_forms(epsilon, k, p, delta) -> dict | None:
    params = BNParams(p, delta, k, epsilon)
    report = curve_square(params)
    h = k - 1 + 2 * epsilon
    ok = report.value == report.rewritten and -h < report.beta <= h
    return {"q_R": _frac(report.value), "consistent": ok}


def _span_basis_w(params: BNParams) -> tuple[tuple[int, int, int], int, int]:
    """The closed-form complement w = (b/c)(v - e) + L - v with its square
    and pairing against v, all in ambient coordinates.  With
    h = k - 1 + 2*epsilon and n = g + k - 1 + epsilon, b/c = n/(2h),
    v - e = (0, 0, -2h) and L - v = (-1, 1, h), so w = (-1, 1, h - n)."""
    v = moduli_vector(params.context())
    h = params.k - 1 + 2 * params.epsilon
    w = (-1, 1, h - (params.g + params.k - 1 + params.epsilon))
    return w, mukai_square(w, params.p), mukai_pairing(w, v, params.p)


def _check_dual_lattice(epsilon, k, p, delta) -> dict | None:
    params = BNParams(p, delta, k, epsilon)
    if curve_square(params).value >= 0:
        return None
    ctx = params.context()
    w, qw, bwv = _span_basis_w(params)
    ok = (qw == 2 * delta - 2 + 2 * epsilon
          and bwv == params.g - k + 1 - 3 * epsilon)
    primitive, _ = primitive_dual_divisor(curve_class(params), ctx)
    span = saturated_span(primitive, ctx)
    g = span.gram
    disc_span = g[0][0] * g[1][1] - g[0][1] * g[1][0]
    qv = mukai_square(moduli_vector(ctx), p)
    disc_w = qw * qv - bwv * bwv
    ok = ok and disc_span == disc_w
    return {"consistent": ok}


def _check_min_square(epsilon, k, p, delta) -> dict | None:
    params = BNParams(p, delta, k, epsilon)
    if not exists_pencil(params):
        return None
    q_r = curve_square(params).value
    verdict = wall_test(curve_class(params), params.context())
    if not verdict.is_wall:
        return {"is_wall": False, "consistent": True}
    bound = minimal_square_bound(k, epsilon)
    h = k - 1 + 2 * epsilon
    alpha = params.alpha
    at_char = (p == alpha * (alpha + 1) * h + epsilon
               and delta == alpha * (alpha - 1) * h)
    ok = q_r >= bound and (q_r == bound) == at_char
    return {"is_wall": True, "q_R": _frac(q_r), "consistent": ok}


def _check_witness_oracle(epsilon, k, p, delta, disc_limit=200) -> dict | None:
    params = BNParams(p, delta, k, epsilon)
    if not exists_pencil(params):
        return None
    if curve_square(params).value >= 0:
        return None
    ctx = params.context()
    primitive, _ = primitive_dual_divisor(curve_class(params), ctx)
    span = saturated_span(primitive, ctx)
    g = span.gram
    disc = g[0][0] * g[1][1] - g[0][1] * g[1][0]
    if abs(disc) > disc_limit:
        return None
    gram = [list(r) for r in g]
    fast = enumerate_witnesses(gram, span.v_coords, epsilon)
    slow = box_witnesses(gram, span.v_coords, epsilon)
    ok = fast == slow
    return {"disc": disc, "n_witnesses": len(fast), "consistent": ok}


def _check_moduli_dim(epsilon, k, p, delta) -> dict | None:
    chi, vec = sheaf_vector(p, delta, k, epsilon)
    expected = mukai_square(vec, p) + 2
    if expected >= 0:
        ok = moduli_dim(p, delta, k, epsilon) == expected
    else:
        try:
            moduli_dim(p, delta, k, epsilon)
            ok = False
        except DomainError:
            ok = True
    ctx = SurfaceContext(epsilon, p, k)
    v, e = moduli_vector(ctx), exceptional_vector(ctx)
    half = tuple((v[i] + e[i]) % 2 for i in range(3))
    frac = tuple((v[i] - e[i]) % ctx.ek_div for i in range(3))
    ok = ok and not any(half) and not any(frac)
    return {"chi": chi, "consistent": ok}


_CHECKS = {
    "wall-square": _check_wall_square,
    "exists-routes": _check_exists_routes,
    "square-forms": _check_square_forms,
    "dual-lattice": _check_dual_lattice,
    "min-square": _check_min_square,
    "witness-oracle": _check_witness_oracle,
    "moduli-dim": _check_moduli_dim,
}


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
        names = list(_CHECKS)
    elif args.check in _CHECKS:
        names = [args.check]
    else:
        raise DomainError(
            f"unknown check {args.check!r}; choose from "
            f"{', '.join([*_CHECKS, 'all'])}")
    with _open_output(args.output) as out:
        for epsilon, k, p, delta in _scan_points(args):
            merged: dict = {}
            consistent = True
            applied = False
            for name in names:
                result = _CHECKS[name](epsilon, k, p, delta)
                if result is None:
                    continue
                applied = True
                consistent = consistent and result.pop("consistent")
                if len(names) == 1:
                    merged.update(result)
                else:
                    merged[name] = result or True
            if not applied:
                continue
            record = {"epsilon": epsilon, "k": k, "p": p, "delta": delta,
                      **merged, "consistent": consistent}
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
