"""The benchmark's three workloads: inputs, output checks and traced replay.

An operation is one in-process call of the command-line entry point
``wallkit.cli.main(argv)``.  Each workload

* builds its list of operations (``ops``); the run seed only shuffles it,
  so every seed measures the same work (see ``tail_ops`` for why);
* checks each operation's output with arithmetic of its own, never with the
  code under test (``check`` returns a list of problems, empty when fine);
* replays an operation through the library's public functions in pipeline
  order for the traced run (``replay``): curve class -> primitive dual
  divisor -> saturated span -> witness enumeration -> isometry class id ->
  JSON, with the box oracle recorded as a span of its own.

Library functions are looked up by name in ``wallkit.__all__`` through
``lib.get``; a stage whose function is missing is skipped, together with
the stages that need its result.
"""

from __future__ import annotations

import io
import json
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, isqrt
from typing import Callable


@dataclass(frozen=True)
class Op:
    index: int                  # position in the unshuffled list
    params: tuple[int, ...]
    argv: tuple[str, ...]
    size: int                   # cost proxy; warm-up uses the smallest ops


def _frac(x: Fraction) -> str:
    return f"{x.numerator}/{x.denominator}"


def _parse_frac(text: str) -> Fraction:
    num, den = text.split("/")
    return Fraction(int(num), int(den))


def _records(out: str) -> list[dict]:
    return [json.loads(line) for line in out.splitlines()]


def _mukai(x, y, p: int) -> int:
    return x[1] * y[1] * (2 * p - 2) - x[0] * y[2] - x[2] * y[0]


def _qv(gram, v) -> int:
    return ((v[0] * gram[0][0] + v[1] * gram[1][0]) * v[0]
            + (v[0] * gram[0][1] + v[1] * gram[1][1]) * v[1])


# ------------------------------------------------------------------ replay

def replay_point(lib, tr, eps: int, k: int, p: int, delta: int,
                 oracle: bool = False, target_gram=None) -> None:
    """One (epsilon, k, p, delta) point through the layer pipeline."""
    bn_params, curve_class = lib.get("BNParams"), lib.get("curve_class")
    if bn_params is None or curve_class is None:
        return
    params = bn_params(p, delta, k, eps)
    ctx = params.context()
    record: dict = {"epsilon": eps, "k": k, "p": p, "delta": delta}
    curve = tr.call("curves.curve_class", curve_class, params)
    fn = lib.get("exists_pencil")
    pencil = fn is not None and tr.call("curves.exists_pencil", fn, params)
    fn = lib.get("curve_square")
    if fn is not None:
        record["q_R"] = _frac(tr.call("curves.curve_square", fn, params).value)
    span = None
    fn, saturate = lib.get("primitive_dual_divisor"), lib.get("saturated_span")
    if fn is not None:
        divisor, _ = tr.call("walls.primitive_dual_divisor", fn, curve, ctx)
        if saturate is not None and divisor.square(ctx) < 0:
            span = tr.call("walls.saturated_span", saturate, divisor, ctx)
    if span is not None:
        gram = [list(row) for row in span.gram]
        v = span.v_coords
        record["t_gram"] = gram[0] + gram[1]
        fn = lib.get("enumerate_witnesses")
        if fn is not None:
            found = tr.call("walls.enumerate_witnesses", fn, gram, v, eps)
            tr.count("walls.enumerate_witnesses.qv_sum", _qv(gram, v))
            tr.count("walls.enumerate_witnesses.witnesses", len(found))
            record["is_wall"] = bool(found)
        disc = gram[0][0] * gram[1][1] - gram[0][1] * gram[1][0]
        fn = lib.get("box_witnesses")
        # Same condition as the CLI's witness-oracle check.
        if oracle and pencil and abs(disc) <= 200 and fn is not None:
            tr.call("walls.box_witnesses", fn, gram, v, eps)
        fn = lib.get("class_id")
        if fn is not None:
            try:
                record["class_id"] = tr.call("binforms.class_id", fn, gram)
            except RuntimeError:
                # Known defect at large |disc|: the cycle cap is hit.
                tr.count("binforms.class_id.failed")
        fn = lib.get("rank2_isometric")
        if fn is not None and target_gram is not None:
            record["verified"] = tr.call("binforms.rank2_isometric", fn,
                                         gram, target_gram)
    tr.call("json.dumps", json.dumps, record)


# ------------------------------------------------------------------ grid-scan

def grid_ops(smoke: bool) -> list[Op]:
    """One ``scan --check all`` per (epsilon, k, p) row of the acceptance grid."""
    k_max, p_max = (3, 6) if smoke else (8, 40)
    rows = [(e, k, p) for e in (0, 1) for k in range(2, k_max + 1)
            for p in range(2, p_max + 1)]
    return [Op(i, row, ("scan", "--epsilon", str(row[0]), "--k", str(row[1]),
                        "--p", str(row[2]), "--check", "all"), row[2])
            for i, row in enumerate(rows)]


def grid_check(op: Op, out: str) -> list[str]:
    eps, k, p = op.params
    records = _records(out)
    expected = [(eps, k, p, d) for d in range(p - 2 * eps + 1)]
    got = [(r["epsilon"], r["k"], r["p"], r["delta"]) for r in records]
    problems = []
    if got != expected:
        problems.append(f"scan points {got[:3]}... != {expected[:3]}...")
    problems += [f"inconsistent record at delta={r['delta']}"
                 for r in records if r["consistent"] is not True]
    return problems


def grid_replay(op: Op, lib, tr) -> None:
    eps, k, p = op.params
    for delta in range(p - 2 * eps + 1):
        replay_point(lib, tr, eps, k, p, delta, oracle=True)


# ------------------------------------------------------------------ tail-query

TAIL_DESIGN_SEED = 0


def tail_ops(smoke: bool) -> list[Op]:
    """Large-parameter ``wall-test`` queries, one per operation.

    epsilon uniform, k log-uniform in [2, 1e5] (one draw per equal-width
    stratum of log k, so the whole range is covered), p log-uniform in
    [2, 1e10], delta uniform in [0, p - 2*epsilon].

    The set is drawn once from a fixed design seed.  Latency is close to
    linear in q(v) / gcd(b, q(v)) and drops to ~3 ms when q(R) >= 0, so a
    fresh draw of about a hundred queries moves p50 and p90 by tens of
    percent; with a fixed set only the run's noise is left.  Eighty queries
    take about ten seconds, so a run holds several passes.
    """
    n, k_max, p_max = (8, 1000, 10**6) if smoke else (80, 10**5, 10**10)
    rng = random.Random(TAIL_DESIGN_SEED)
    log_k = math.log(k_max / 2)
    ops = []
    for i in range(n):
        eps = rng.randint(0, 1)
        k = min(k_max, max(2, round(2 * math.exp((i + rng.random()) / n * log_k))))
        p = max(2, round(math.exp(rng.uniform(math.log(2), math.log(p_max)))))
        delta = rng.randint(0, p - 2 * eps)
        ops.append(Op(i, (eps, k, p, delta),
                      ("wall-test", "--epsilon", str(eps), "--k", str(k),
                       "--p", str(p), "--delta", str(delta)), k))
    return ops


def _local_witness(gram: list[int], eps: int):
    """Least witness (branch, b, q, coords) in the lattice with Gram
    [[A, B], [B, C]] over the basis (w, v), or None.

    With n = b(s, v) = B x + C y one has C q(s) = n^2 + det x^2, and every
    witness has 0 <= n < C and q(s) >= -2, so |x| <= sqrt((C^2 + 2C)/|det|);
    each x fixes n = B x mod C.
    """
    a, b, _, c = gram
    det = a * c - b * b
    best = None
    x_max = isqrt((c * c + 2 * c) // -det) + 1
    for x in range(-x_max, x_max + 1):
        n = (b * x) % c
        y = (n - b * x) // c
        q = a * x * x + 2 * b * x * y + c * y * y
        if 0 <= q < n and 2 * n <= c + q:
            cand = ("case_i", n, q, (x, y))
        elif eps == 0 and q == -2 and 2 * n <= c:
            cand = ("case_ii", n, q, (x, y))
        else:
            continue
        if best is None or cand < best:
            best = cand
    return best


def tail_check(op: Op, out: str) -> list[str]:
    eps, k, p, delta = op.params
    (rec,) = _records(out)
    problems = []
    h = k - 1 + 2 * eps
    n = p - delta + k - 1 + eps
    q_r = 2 * (p - 1) - Fraction(n * n, 2 * h)
    g = gcd(2 * h, n)
    d_l, d_e = 2 * h // g, -n // g
    q_d = d_l * d_l * (2 * p - 2) - d_e * d_e * 2 * h
    qv = 2 * k - 2 + 4 * eps
    if rec["q_R"] != _frac(q_r):
        problems.append(f"q_R {rec['q_R']} != {_frac(q_r)}")
    if (rec["divisor"] != {"l": f"{d_l}/1", "e": f"{d_e}/1"}
            or rec["divisor_div"] != d_l or rec["q_D"] != f"{q_d}/1"):
        problems.append("primitive dual divisor differs")
    alpha = (p - delta - eps) // (2 * h)
    pencil = delta >= alpha * (p - delta - eps - h * (alpha + 1))
    if pencil and rec["is_wall"] != (q_r < 0):
        problems.append(f"is_wall={rec['is_wall']} but q_R={_frac(q_r)}")
    if (rec["t_gram"] is None) != (q_d >= 0):
        problems.append("span present iff q(D) < 0 fails")
    wit = rec["witness"]
    if rec["is_wall"] != (wit is not None):
        problems.append("is_wall disagrees with the witness")
    if rec["t_gram"] is not None:
        t = rec["t_gram"]
        det = t[0] * t[3] - t[1] * t[2]
        index_sq, rem = divmod(qv * q_d, det) if det else (0, 1)
        if t[1] != t[2] or t[3] != qv or rem or isqrt(index_sq) ** 2 != index_sq:
            problems.append(f"span Gram {t} is not a saturation of span(v, D)")
        else:
            best = _local_witness(t, eps)
            got = None if wit is None else (
                wit["branch"], wit["b"], wit["q"], tuple(wit["coords"]))
            if got != best:
                problems.append(f"least witness {got} != oracle {best}")
    if wit is not None:
        s = wit["ambient"]
        v = (1, 0, 1 - 2 * eps - k)
        dvec = (d_e, d_l, d_e * h)
        qs, bs = _mukai(s, s, p), _mukai(s, v, p)
        if (qs, bs) != (wit["q"], wit["b"]) or wit["branch"] != rec["branch"]:
            problems.append("witness q(s), b(s, v) or branch differ")
        window = (0 <= qs < bs and 2 * bs <= qv + qs if wit["branch"] == "case_i"
                  else eps == 0 and qs == -2 and 0 <= 2 * bs <= qv)
        if not window:
            problems.append(f"witness outside the {wit['branch']} window")
        det3 = (s[0] * (v[1] * dvec[2] - v[2] * dvec[1])
                - s[1] * (v[0] * dvec[2] - v[2] * dvec[0])
                + s[2] * (v[0] * dvec[1] - v[1] * dvec[0]))
        if det3:
            problems.append("witness not in span_Q{v, D}")
    return problems


def tail_replay(op: Op, lib, tr) -> None:
    replay_point(lib, tr, *op.params)


# ------------------------------------------------------------------ catalog-build

def catalog_ops(smoke: bool) -> list[Op]:
    """One ``catalog`` (generation plus JSON-lines export) per (epsilon, k)."""
    k_max = 4 if smoke else 30
    pairs = [(e, k) for e in (0, 1) for k in range(2, k_max + 1)]
    return [Op(i, pair, ("catalog", "--epsilon", str(pair[0]), "--k", str(pair[1])),
               pair[1]) for i, pair in enumerate(pairs)]


def catalog_check(op: Op, out: str) -> list[str]:
    eps, k = op.params
    records = _records(out)
    problems = [] if records else ["empty catalog"]
    ids = [r["isometry_class_id"] for r in records
           if r["isometry_class_id"] is not None]
    if len(set(ids)) != len(ids):
        problems.append("isometry_class_id repeats")
    for r in records:
        gram = r["gram"]
        if (r["epsilon"], r["k"]) != (eps, k) or gram[1] != gram[2]:
            problems.append(f"bad entry {r}")
        if gram[3] != 2 * k - 2 + 4 * eps:
            problems.append(f"corner {gram[3]} != 2k-2+4e at p={r['p']}")
        if r["is_wall"] and _parse_frac(r["q_R"]) >= 0:
            problems.append(f"wall with q_R={r['q_R']} at p={r['p']}")
    return problems


def catalog_replay(op: Op, lib, tr) -> None:
    eps, k = op.params
    generate = lib.get("generate_catalog")
    if generate is None:
        return
    entries = tr.call("catalog.generate_catalog", generate, k, eps)
    tr.count("catalog.generate_catalog.entries", len(entries))
    tr.count("catalog.generate_catalog.walls", sum(e.is_wall for e in entries))
    export = lib.get("export_catalog")
    if export is not None:
        buf = io.StringIO()
        tr.call("catalog.export_catalog", export, entries, buf)
        tr.count("catalog.export_catalog.bytes", len(buf.getvalue()))
    # generate_catalog runs these layers internally; re-running them per
    # entry gives their cost on exactly the catalog's lattices.
    for e in entries:
        replay_point(lib, tr, eps, k, e.p, e.delta,
                     target_gram=[list(row) for row in e.gram])


@dataclass(frozen=True)
class Workload:
    name: str
    ops: Callable[[bool], list[Op]]             # smoke -> unshuffled ops
    check: Callable[[Op, str], list[str]]       # op, stdout -> problems
    replay: Callable[[Op, object, object], None]  # op, library, tracer


WORKLOADS = {w.name: w for w in (
    Workload("grid-scan", grid_ops, grid_check, grid_replay),
    Workload("tail-query", tail_ops, tail_check, tail_replay),
    Workload("catalog-build", catalog_ops, catalog_check, catalog_replay),
)}
