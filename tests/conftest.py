from __future__ import annotations

import sys

import pytest

from wallkit import walls


@pytest.fixture
def walked(monkeypatch):
    """Counts the lines b(s, v) = n the witness walk visits: it calls
    `walls._ts_with_q_at_least` once per line, so the count needs no counter
    in the walk itself."""
    lines = [0]
    original = walls._ts_with_q_at_least

    def counting(*args):
        lines[0] += 1
        return original(*args)

    monkeypatch.setattr(walls, "_ts_with_q_at_least", counting)
    return lines


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
