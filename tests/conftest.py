from __future__ import annotations

import sys

import pytest

from wallkit import walls


@pytest.fixture
def walked(monkeypatch):
    """[lines, t values]: the lines b(s, v) = n the witness walk visits and
    the candidate points t it is handed on them.  The walk calls
    `walls._ts_with_q_at_least` once per line and tests only the t in the
    range it returns, so the counts need no counter in the walk itself."""
    counts = [0, 0]
    original = walls._ts_with_q_at_least

    def counting(*args):
        ts = original(*args)
        counts[0] += 1
        counts[1] += len(ts)
        return ts

    monkeypatch.setattr(walls, "_ts_with_q_at_least", counting)
    return counts


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    for name, mod in list(sys.modules.items()):
        if name.rpartition(".")[2] != "test_acceptance":
            continue
        lines = getattr(mod, "GATE_LINES", None)
        if lines:
            terminalreporter.section("acceptance gates")
            for line in lines:
                terminalreporter.write_line(line)
        break
