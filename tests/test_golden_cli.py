"""The golden corpus: each CLI call in tests/golden_cli.jsonl gives the
exit code and the bytes it records.  tests/golden_cli.py writes it."""

from __future__ import annotations

import hashlib

import golden_cli as golden

# Each workload's output digest, as bench/run.py reports it: the sha256 of
# its ops' stdouts joined in input order.  The only other sha256 pins of
# the tests are the corpus's own lines.
WORKLOAD_DIGESTS = {
    "grid-scan":
        "19233f762feda9b1c378c6061b08d873e2ec912fef84cd5ea50d1faa6077e4df",
    "tail-query":
        "dcfa93e488bc96386806ed69d1e62911f975d344975696a57d2185056cd5614a",
    "catalog-build":
        "b56f50b1f6fb5ad8e1ef3075560e055971fc6fa485685cb45b13843dbc01407f",
}


def test_every_call_gives_its_recorded_bytes(in_tmp):
    moved = []
    workloads = {name: hashlib.sha256() for name in WORKLOAD_DIGESTS}
    for line in golden.corpus():
        fields, out = golden.outcome(line["argv"])
        if any(line[key] != value for key, value in fields.items()):
            moved.append(line["argv"])
        if "workload" in line:
            workloads[line["workload"]].update(out.encode())
    assert moved == []
    assert {name: digest.hexdigest()
            for name, digest in workloads.items()} == WORKLOAD_DIGESTS


def test_the_corpus_holds_the_generators_argvs():
    # The benchmark's operations among them, so a changed workload shows
    # here, not as a stale digest.
    assert [(line.get("workload"), line["argv"])
            for line in golden.corpus()] == [
        (workload, list(argv)) for workload, argv in golden.corpus_lines()]
