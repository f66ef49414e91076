from __future__ import annotations

import sys

import pytest

from wallkit import walls


def count_walk(mp: pytest.MonkeyPatch) -> list[int]:
    """Patch, on `mp`, counters into the witness walk and return them:
    [lines, t values, exact ranges], the lines b(s, v) = n the walk visits,
    the candidate points t it is handed on them, and the lines that compute
    their exact t-range.  The walk takes its lines from one
    `walls._walk_lines` call, here wrapped in counting iterators, and calls
    `walls._ts_with_q_at_least` only on the lines that pass its per-line
    test, so the counts need no counter in the walk itself."""
    counts = [0, 0, 0]
    walk_lines, exact = walls._walk_lines, walls._ts_with_q_at_least

    def counted(lines):
        for m in lines:
            counts[0] += 1
            yield m

    def counting_lines(*args):
        return tuple(map(counted, walk_lines(*args)))

    def counting_ranges(*args):
        ts = exact(*args)
        counts[1] += len(ts)
        counts[2] += 1
        return ts

    mp.setattr(walls, "_walk_lines", counting_lines)
    mp.setattr(walls, "_ts_with_q_at_least", counting_ranges)
    return counts


@pytest.fixture
def walked(monkeypatch):
    """The walk's [lines, t values, exact ranges] counters (`count_walk`)."""
    return count_walk(monkeypatch)


@pytest.fixture(scope="session")
def walk_counter():
    """`count_walk`, for fixtures wider than one test."""
    return count_walk


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
