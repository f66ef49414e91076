"""The shared consistency checks at large parameters.

The acceptance gates run every check over the small grid k <= 8, p <= 40.
Here the same checks run at random points with k up to 500 and p up to
1e8.  Most of delta is drawn near the genus g = p - delta ~ 2*sqrt(h*p),
where pencils exist and q(R) changes sign, so the checks that need a
pencil or a negative square apply often.

Each check must also be able to fail: a one-expression defect in a copy of
the package shows up as that check's "failed" entry in a small scan.
"""

from __future__ import annotations

import json
import os
import random
import shutil
import subprocess
import sys
from collections import Counter
from math import isqrt
from pathlib import Path

import pytest

import wallkit
from wallkit import checks
from wallkit.checks import CHECKS, Point, Row


def _random_point(rng: random.Random) -> Point:
    eps = rng.randint(0, 1)
    k = rng.randint(2, 500)
    p = rng.choice((rng.randint(2, 10**4), rng.randint(2, 10**8)))
    h = k - 1 + 2 * eps
    if rng.random() < 0.1:
        # Anywhere: the Brill-Noether route is two steps at any g.
        g = rng.randint(2 * eps, p)
    else:
        g = isqrt(4 * h * p) + rng.randint(-3 * h, 3 * h)
    g = min(max(g, 2 * eps), p)
    return Point(Row(eps, k, p), p - g)


def test_checks_hold_at_large_parameters():
    rng = random.Random(20261017)
    applied: Counter = Counter()
    for _ in range(400):
        pt = _random_point(rng)
        for name, check in CHECKS.items():
            result = check(pt)
            if result is None:
                continue
            ok, payload = result
            assert ok, (name, pt.params, payload)
            applied[name] += 1
    for name in CHECKS:
        if name != "witness-oracle":
            assert applied[name] >= 20, (name, applied)


def test_point_computes_each_field_once(monkeypatch):
    calls: Counter = Counter()
    for name in ("curve_class", "exists_pencil", "_square", "span_stage",
                 "witness_stage"):
        def counted(*args, _name=name, _fn=getattr(checks, name)):
            calls[_name] += 1
            return _fn(*args)
        monkeypatch.setattr(checks, name, counted)
    row = Row(0, 4, 6)
    first, second = Point(row, 0), Point(row, 1)
    for pt in (first, second, first, second):
        for check in CHECKS.values():
            check(pt)
    assert calls == {"curve_class": 2, "exists_pencil": 2,
                     "_square": 2, "span_stage": 2, "witness_stage": 2}
    assert first.square is first.square
    assert first.square != second.square


def test_context_work_is_once_per_row(monkeypatch):
    # v, q(v) and the v +- e divisibility depend on the context alone, and
    # the points of one (epsilon, k, p) row share their Row and context.
    calls: Counter = Counter()
    for name in ("moduli_vector", "exceptional_vector"):
        def counted(*args, _name=name, _fn=getattr(checks, name)):
            calls[_name] += 1
            return _fn(*args)
        monkeypatch.setattr(checks, name, counted)
    for eps in (0, 1):
        row = Row(eps, 4, 6)
        points = [Point(row, delta) for delta in range(6 - 2 * eps + 1)]
        assert all(pt.params.context() is row.ctx for pt in points)
        for pt in points:
            for check in CHECKS.values():
                check(pt)
    assert calls == {"moduli_vector": 2, "exceptional_vector": 2}


# One single-expression defect per check: (file, pattern, replacement).
# Each defect must surface as that check's "failed" entry in a small scan,
# never as an exception, since the checks own every two-route comparison.
_MUTATIONS = {
    "wall-square": ("walls.py", "if disc * rho * rho <= top:",
                    "if disc * rho * rho < top:"),
    "exists-routes": ("curves.py", "return params.delta >= a * (",
                      "return params.delta > a * ("),
    "dual-lattice": ("catalog.py", "b = p - delta - k + 1 - 3 * epsilon",
                     "b = p - delta - k + 2 - 3 * epsilon"),
    # The least walk's tie rule: only the oracle's least-witness comparison
    # sees it, as the witness set and the verdicts do not change.
    "witness-oracle": ("walls.py", "x = low if -low >= high else high",
                       "x = low if -low > high else high"),
    "square-forms": ("curves.py", "- params.beta * params.beta)",
                     "- params.beta * params.beta + 2)"),
    "min-square": ("curves.py", "params.p == a * (a + 1) * h + epsilon",
                   "params.p == a * (a + 1) * h + epsilon + 1"),
    "moduli-dim": ("model.py", "dim = 2 * p - 4 * chi + 8 * (1 - epsilon)",
                   "dim = 2 * p - 4 * chi + 8 * (1 - epsilon) + 2"),
}


@pytest.mark.parametrize("name", list(CHECKS))
def test_each_check_reports_its_defect(tmp_path, name):
    filename, pattern, replacement = _MUTATIONS[name]
    package = tmp_path / "wallkit"
    shutil.copytree(Path(wallkit.__file__).resolve().parent, package,
                    ignore=shutil.ignore_patterns("__pycache__"))
    target = package / filename
    source = target.read_text()
    assert source.count(pattern) == 1, (filename, pattern)
    target.write_text(source.replace(pattern, replacement))
    env = {**os.environ, "PYTHONPATH": str(tmp_path),
           "PYTHONDONTWRITEBYTECODE": "1"}
    run = subprocess.run(
        [sys.executable, "-m", "wallkit.cli", "scan", "--epsilon", "0..1",
         "--k", "2..5", "--p", "2..12", "--check", "all"],
        capture_output=True, text=True, env=env, timeout=60)
    assert run.returncode == 0, run.stderr
    failed = {check for line in run.stdout.splitlines()
              for check in json.loads(line).get("failed", ())}
    assert name in failed, failed
