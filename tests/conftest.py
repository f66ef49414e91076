from __future__ import annotations

import sys

import pytest

from wallkit import walls


class _CountedLines:
    """One of the walk's ranges of lines, which adds 1 to `counts[0]` for
    each line it yields; it keeps the range's `start`, from which the walk
    reads the first line."""

    def __init__(self, lines: range, counts: list[int]):
        self.start, self._lines, self._counts = lines.start, lines, counts

    def __iter__(self):
        for m in self._lines:
            self._counts[0] += 1
            yield m


def count_walk(mp: pytest.MonkeyPatch) -> list[int]:
    """Patch, on `mp`, a counter into the witness walk and return it:
    [lines], the lines b(s, v) = n the walk visits.  The walk takes its
    lines from one `walls._walk_lines` call, here wrapped in counting
    ranges, so the count needs no counter in the walk itself."""
    counts = [0]
    walk_lines = walls._walk_lines

    def counting_lines(*args):
        return tuple(_CountedLines(lines, counts)
                     for lines in walk_lines(*args))

    mp.setattr(walls, "_walk_lines", counting_lines)
    return counts


@pytest.fixture
def walked(monkeypatch):
    """The walk's [lines] counter (`count_walk`)."""
    return count_walk(monkeypatch)


@pytest.fixture(scope="session")
def walk_counter():
    """`count_walk`, for fixtures wider than one test."""
    return count_walk


@pytest.fixture
def in_tmp(tmp_path, monkeypatch):
    """The setting of tests/golden_cli.py: a fresh directory and
    COLUMNS=80."""
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("COLUMNS", "80")


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
