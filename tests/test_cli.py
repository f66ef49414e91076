"""End-to-end tests for the command-line interface."""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import shlex
import signal
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import wallkit
from wallkit import binforms, checks, cli, model, subvarieties, walls
from wallkit.cli import _COMMANDS, _parsers, main
from wallkit.model import SurfaceContext
from wallkit.walls import box_radius

import golden_cli as golden
from golden_cli import FULL_OPTIONS as _FULL_OPTIONS
from golden_cli import POINT as _POINT
from test_golden_cli import WORKLOAD_DIGESTS


def _run(capsys, *argv):
    rc = main(list(argv))
    out, err = capsys.readouterr()
    return rc, out, err


def _records(out: str):
    return [json.loads(line) for line in out.splitlines() if line]


def _frac(s: str) -> Fraction:
    num, den = s.split("/")
    return Fraction(int(num), int(den))


def test_wall_test_record(capsys):
    rc, out, err = _run(capsys, "wall-test", "--epsilon", "0", "--k", "2",
                        "--p", "2", "--delta", "0", "--oracle")
    assert rc == 0 and err == ""
    (rec,) = _records(out)
    assert rec["is_wall"] is True
    assert rec["q_R"] == "-5/2"
    assert rec["t_gram"] == [-2, 1, 1, 2]
    assert rec["branch"] == "case_ii"
    assert rec["divisor"] == {"l": "2/1", "e": "-3/1"}
    assert rec["divisor_div"] == 2
    assert rec["q_D"] == "-10/1"
    assert rec["oracle_agrees"] is True
    w = rec["witness"]
    assert set(w) == {"coords", "ambient", "q", "b", "branch"}
    assert w["q"] == -2 and w["branch"] == "case_ii"
    assert w["coords"] == [-1, 1] and w["ambient"] == [-1, 1, -2]
    assert _frac(rec["q_R"]) == Fraction(-5, 2)


def test_wall_test_nonnegative_square(capsys):
    rc, out, _ = _run(capsys, "wall-test", "--epsilon", "0", "--k", "2",
                      "--p", "6", "--delta", "6")
    assert rc == 0
    (rec,) = _records(out)
    assert rec["is_wall"] is False
    assert rec["branch"] == "nonnegative-square"
    assert rec["t_gram"] is None and rec["witness"] is None


def test_class_record(capsys, monkeypatch):
    # The record prints no span, so `class` builds no saturation T.
    reduced = []
    normal_basis = walls._normal_basis

    def spy(*args):
        reduced.append(args)
        return normal_basis(*args)

    monkeypatch.setattr(walls, "_normal_basis", spy)
    rc, out, _ = _run(capsys, "class", "--epsilon", "0", "--k", "3",
                      "--p", "4", "--delta", "0")
    assert rc == 0 and reduced == []
    (rec,) = _records(out)
    assert rec["curve"] == {"l": 1, "r": -6}
    assert rec["dual_divisor"] == {"l": "1/1", "e": "-3/2"}
    assert rec["primitive_divisor"] == {"l": "2/1", "e": "-3/1"}
    assert rec["divisor_div"] == 2
    assert rec["q_R"] == "-3/1"


def test_exists_records(capsys):
    rc, out, _ = _run(capsys, "exists", "--epsilon", "0", "--k", "2",
                      "--p", "6", "--delta", "0")
    assert rc == 0
    (rec,) = _records(out)
    assert rec == {"exists": False, "alpha": 3}

    rc, out, _ = _run(capsys, "exists", "--epsilon", "0", "--k", "3",
                      "--p", "4", "--delta", "0")
    (rec,) = _records(out)
    assert rec["exists"] is True
    assert rec["locus_dim"] == 4 and rec["pencil_dim"] == 0


def test_square_record(capsys):
    rc, out, _ = _run(capsys, "square", "--epsilon", "0", "--k", "2",
                      "--p", "2", "--delta", "0")
    assert rc == 0
    (rec,) = _records(out)
    assert rec == {"q_R": "-5/2", "rewritten": "-5/2", "minimal": True,
                   "alpha": 1, "beta": 1, "rho": 0}


def test_catalog_stream_and_output_file(capsys, tmp_path):
    rc, out, _ = _run(capsys, "catalog", "--epsilon", "0", "--k", "2")
    assert rc == 0
    recs = _records(out)
    assert recs
    assert list(recs[0].keys()) == ["epsilon", "k", "p", "delta", "gram",
                                    "q_R", "is_wall", "witness",
                                    "isometry_class_id"]

    target = tmp_path / "cat.jsonl"
    rc, out, _ = _run(capsys, "catalog", "--epsilon", "0", "--k", "2",
                      "--output", str(target))
    assert rc == 0 and out == ""
    assert [json.loads(l) for l in target.read_text().splitlines()] == recs


def test_coisotropic_bundle_record(capsys):
    rc, out, _ = _run(capsys, "coisotropic", "--epsilon", "0", "--k", "4",
                      "--p", "8", "--delta", "1")
    assert rc == 0
    (rec,) = _records(out)
    assert rec["found"] is True and rec["chi"] == 6
    assert rec["descriptor"]["codim"] == 3
    assert rec["descriptor"]["q_line"] == "-8/3"

    rc, out, _ = _run(capsys, "coisotropic", "--epsilon", "0", "--k", "2",
                      "--p", "6", "--delta", "0")
    (rec,) = _records(out)
    assert rec["found"] is False and rec["descriptor"] is None


class _Stop(BaseException):
    """Raised through `main`, which turns an `Exception` into exit 1."""


def test_coisotropic_family_streams(monkeypatch):
    # Each family record is written as it is built: the first line of a
    # family with billions of loci follows one descriptor, at any k.  A
    # writer stops at the first line, and a descriptor count stops the call
    # past 100, so a family built in full fails at once.
    built, lines = [], []
    descriptor = subvarieties.SubvarietyDescriptor

    def counting(*args, **kwargs):
        built.append(kwargs)
        if len(built) > 100:
            raise _Stop
        return descriptor(*args, **kwargs)

    class FirstLine:
        def write(self, text):
            lines.append((len(built), json.loads(text)))
            raise _Stop

    monkeypatch.setattr(subvarieties, "SubvarietyDescriptor", counting)
    monkeypatch.setattr(sys, "stdout", FirstLine())
    for family in ("nodal", "series"):
        built.clear()
        with pytest.raises(_Stop):
            main(["coisotropic", "--epsilon", "0", "--k", "100000",
                  "--p", "200000", "--family", family])
    assert [(n, record["r"], record["descriptor"]["source"],
             record.get("delta"), record.get("k_prime"))
            for n, record in lines] == [
        (1, 1, "severi_family", 33334, None), (1, 1, "sym_prod", None, 1)]


def test_coisotropic_family_records(capsys, tmp_path):
    rc, out, _ = _run(capsys, "coisotropic", "--epsilon", "0", "--k", "8",
                      "--p", "14", "--family", "nodal")
    assert rc == 0
    recs = _records(out)
    assert {(r["r"], r["delta"]) for r in recs} == {
        (1, 3), (2, 2), (2, 3), (3, 2), (4, 2)}

    rc, out, _ = _run(capsys, "coisotropic", "--epsilon", "1", "--k", "3",
                      "--p", "2", "--family", "series")
    recs = _records(out)
    assert all(rec["descriptor"]["source"] == "sym_prod" for rec in recs)
    assert {(r["r"], r["k_prime"]) for r in recs} >= {(2, 3)}

    rc, _, err = _run(capsys, "coisotropic", "--epsilon", "0", "--k", "3",
                      "--p", "4")
    assert rc == 2 and "coisotropic" in err
    # --delta or --family, not both.
    rc, out, err = _run(capsys, "coisotropic", "--epsilon", "0", "--k", "4",
                        "--p", "8", "--delta", "1", "--family", "nodal")
    assert (rc, out) == (2, "")
    assert err == "error: coisotropic takes --delta or --family, not both\n"
    # A family's arguments are checked before --output is opened.
    target = tmp_path / "family.jsonl"
    for family in ("nodal", "series"):
        rc, out, err = _run(capsys, "coisotropic", "--epsilon", "0", "--k",
                            "1", "--p", "4", "--family", family,
                            "--output", str(target))
        assert (rc, out) == (2, "") and "k >= 2" in err
        assert not target.exists()


def test_lagrangian_record(capsys):
    rc, out, _ = _run(capsys, "lagrangian", "--epsilon", "1", "--k", "2")
    assert rc == 0
    (rec,) = _records(out)
    assert rec["p"] == 7 and rec["delta"] == 0
    assert rec["q_R"] == "-3/2"
    assert rec["moduli_dim"] == 2
    assert rec["bound_satisfied"] is False  # chi = 3 < 4 at (k, eps) = (2, 1)

    rc, out, _ = _run(capsys, "lagrangian", "--epsilon", "0", "--k", "3")
    (rec,) = _records(out)
    assert rec["p"] == 4 and rec["bound_satisfied"] is True
    assert rec["q_R"] == "-3/1"


@pytest.mark.parametrize("epsilon, k", [("0", "1"), ("1", "-1")])
def test_lagrangian_names_k_not_the_derived_p(capsys, epsilon, k):
    # p = 2(k-1) + 5*epsilon is derived from k, so a bad k is named as k.
    rc, out, err = _run(capsys, "lagrangian", "--epsilon", epsilon, "--k", k)
    assert (rc, out) == (2, "")
    assert err == f"error: constraint violated: k >= 2 (got k={k})\n"


def test_scan_streaming_order_and_consistency(capsys):
    rc, out, _ = _run(capsys, "scan", "--epsilon", "0..1", "--k", "2..3",
                      "--p", "2..8", "--check", "exists-routes")
    assert rc == 0
    recs = _records(out)
    assert recs
    keys = [(r["epsilon"], r["k"], r["p"], r["delta"]) for r in recs]
    assert keys == sorted(keys)
    assert all(r["consistent"] for r in recs)


def test_scan_single_point_all_checks(capsys, monkeypatch):
    argv = ("scan", "--epsilon", "1", "--k", "2", "--p", "7", "--delta", "0",
            "--check", "all")
    rc, out, _ = _run(capsys, *argv)
    assert rc == 0
    (rec,) = _records(out)
    assert rec["consistent"] is True and "failed" not in rec
    for name in ("wall-square", "exists-routes", "square-forms",
                 "dual-lattice", "min-square", "witness-oracle", "moduli-dim"):
        assert name in rec

    monkeypatch.setitem(checks.CHECKS, "dual-lattice", lambda pt: (False, ""))
    rc, out, _ = _run(capsys, *argv)
    assert rc == 0
    (rec,) = _records(out)
    assert rec["failed"] == ["dual-lattice"] and rec["consistent"] is False
    assert list(rec)[-2:] == ["failed", "consistent"]


def test_scan_computes_only_what_the_check_needs(capsys, monkeypatch, walked,
                                                grid_scan):
    def no_witness_search(*args, **kwargs):
        raise RuntimeError("witness search called")

    argv = ("scan", "--epsilon", "0..1", "--k", "2..3", "--p", "2..8")
    with monkeypatch.context() as mp:
        mp.setattr(checks, "witness_stage", no_witness_search)
        for check in ("exists-routes", "dual-lattice"):
            rc, out, err = _run(capsys, *argv, "--check", check)
            assert rc == 0 and err == "" and _records(out)
        rc, _, err = _run(capsys, *argv, "--check", "wall-square")
        assert rc == 1 and "witness search called" in err

    # Over the grid, only the checks that read a verdict walk lines, at
    # points with a pencil; the oracle's full witness sets come from the
    # box, which walks none.
    rc, _, lines, _ = grid_scan
    assert rc == 0 and lines == (1303,)
    rc, _, err = _run(capsys, "scan", "--epsilon", "0..1", "--k", "2..8",
                      "--p", "2..40", "--check", "dual-lattice")
    assert rc == 0 and err == "" and walked[0] == 0
    # dual-lattice reads only the saturated span, so at k = 3000 it costs
    # no walk over the q(v) = 5998 lines of each span, and it writes the
    # bytes the corpus records (first computed while the check still ran
    # the witness search).
    argv = ("scan", "--epsilon", "0", "--k", "3000", "--p", "6100..6101",
            "--delta", "0..200", "--check", "dual-lattice")
    rc, out, err = _run(capsys, *argv)
    assert rc == 0 and err == "" and walked[0] == 0
    assert (hashlib.sha256(out.encode()).hexdigest()
            == golden.recorded(argv)["stdout"])


def test_verdicts_stop_at_the_least_witness(capsys, monkeypatch):
    # No CLI call runs the x-scan: verdicts and catalog entries stop at the
    # least witness, and the oracle (`checks._oracle`) takes the full set
    # from the box.  A verdict that reached the full set through `walls`
    # would fail.
    def no_full_walk(*args, **kwargs):
        raise RuntimeError("full witness walk")

    monkeypatch.setattr(walls, "enumerate_witnesses", no_full_walk)
    for p, delta in ((2, 0), (6, 6), (40, 3)):
        rc, out, err = _run(capsys, "wall-test", "--epsilon", "0", "--k", "2",
                            "--p", str(p), "--delta", str(delta))
        assert rc == 0 and err == "" and _records(out)
    rc, out, err = _run(capsys, "catalog", "--epsilon", "0", "--k", "12")
    assert rc == 0 and err == "" and _records(out)
    rc, out, err = _run(capsys, "wall-test", "--oracle", "--epsilon", "0",
                        "--k", "2", "--p", "2", "--delta", "0")
    assert rc == 0 and err == ""
    assert _records(out)[0]["oracle_agrees"] is True


def test_scan_skips_points_without_pencils(capsys):
    rc, out, _ = _run(capsys, "scan", "--epsilon", "0", "--k", "2",
                      "--p", "6..6", "--delta", "0..0", "--check", "wall-square")
    assert rc == 0
    assert _records(out) == []  # no pencil at (p, delta) = (6, 0), k = 2


def test_error_exit_codes(capsys):
    rc, _, err = _run(capsys, "wall-test", "--epsilon", "0", "--k", "2",
                      "--p", "2", "--delta", "9")
    assert rc == 2
    assert "delta" in err

    rc, _, err = _run(capsys, "scan", "--epsilon", "0", "--k", "5..2",
                      "--p", "2..4", "--check", "all")
    assert rc == 2 and "range" in err

    rc, _, err = _run(capsys, "scan", "--epsilon", "0", "--k", "2",
                      "--p", "2..4", "--check", "bogus")
    assert rc == 2 and "unknown check" in err

    rc, _, err = _run(capsys, "scan", "--epsilon", "0", "--k", "abc",
                      "--p", "2..4", "--check", "all")
    assert rc == 2 and "malformed" in err


def test_catalog_past_the_reduction_budget_exits_two(capsys, monkeypatch):
    # Near the top of the input domain the first state's discriminant has
    # about 2,000 digits: the budget error names its bit length, and the
    # command exits 2.
    monkeypatch.setattr(binforms, "_MAX_REDUCTION_STEPS", 3)
    rc, out, err = _run(capsys, "catalog", "--epsilon", "0",
                        "--k", str(10**999 + 7), "--p-max", "3",
                        "--delta-max", "0")
    assert rc == 2 and out == ""
    assert err.startswith("error: ") and "-bit discriminant" in err


@pytest.mark.parametrize("flag", ["--epsilon", "--k", "--p", "--delta"])
def test_scan_empty_range_is_a_user_error(capsys, flag):
    # An empty --delta used to scan every delta; like any empty range it
    # is malformed.
    argv = {"--epsilon": "0", "--k": "2", "--p": "2..4", "--delta": "0..2"}
    argv[flag] = ""
    rc, out, err = _run(capsys, "scan", *(f"{f}={v}" for f, v in argv.items()),
                        "--check", "all")
    assert rc == 2 and out == ""
    assert err == (f"error: malformed range for {flag[2:]}: '' "
                   "(expected N or LO..HI)\n")


@pytest.mark.parametrize("flag, text, message", [
    ("--epsilon", "0..2", "epsilon must be 0 or 1 (got 2)"),
    ("--epsilon", "-1..0", "epsilon must be 0 or 1 (got -1)"),
    ("--k", "1..3", "constraint violated: k >= 2 (got k=1)"),
    ("--p", "0..3", "constraint violated: p >= 2 (got p=0)"),
])
def test_scan_range_outside_the_domain_is_a_user_error(capsys, monkeypatch,
                                                       flag, text, message):
    # The ranges are checked as the contexts of their two corners, with
    # `SurfaceContext`'s own message, before any row is built.
    built = []
    monkeypatch.setattr(checks.Row, "__init__",
                        lambda row, *args: built.append(args))
    argv = {"--epsilon": "0..1", "--k": "2..3", "--p": "2..4", flag: text}
    rc, out, err = _run(capsys, "scan", *(f"{f}={v}" for f, v in argv.items()),
                        "--check", "all")
    assert (rc, out, err) == (2, "", f"error: {message}\n")
    assert built == []


@pytest.mark.parametrize("bounds", [
    ("--p-max", "-5"), ("--p-max", "1"), ("--delta-max", "-1"),
    ("--p-min", "5", "--p-max", "3")])
def test_catalog_empty_range_is_a_user_error(capsys, tmp_path, bounds):
    # As for scan: an impossible slice exits 2, and no --output file is
    # created, because the catalog checks its ranges before it streams.
    argv = ("catalog", "--epsilon", "0", "--k", "4", *bounds)
    rc, out, err = _run(capsys, *argv)
    assert rc == 2 and out == "" and err.startswith("error: ")
    target = tmp_path / "cat.jsonl"
    assert _run(capsys, *argv, "--output", str(target)) == (2, "", err)
    assert not target.exists()


def test_argparse_errors_exit_two(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["wall-test", "--epsilon", "0", "--k", "2"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["nonsense-command"])
    assert exc.value.code == 2


def test_rational_strings_roundtrip(capsys):
    for args in (("square", "--epsilon", "1", "--k", "4", "--p", "9",
                  "--delta", "1"),
                 ("square", "--epsilon", "0", "--k", "5", "--p", "17",
                  "--delta", "3")):
        rc, out, _ = _run(capsys, *args)
        assert rc == 0
        (rec,) = _records(out)
        value = _frac(rec["q_R"])
        assert _frac(rec["rewritten"]) == value
        assert rec["q_R"].count("/") == 1


# A pinned call gives the exit code and the bytes that the corpus records
# for it (`golden.agrees`), so that a speed-up cannot change a byte of
# output; tests/golden_cli.py rewrites the corpus for a named change.
@pytest.mark.parametrize("epsilon, k", [(epsilon, k) for epsilon in (0, 1)
                                        for k in range(2, 13)])
def test_catalog_stdout_is_pinned(in_tmp, epsilon, k):
    argv = ("catalog", "--epsilon", str(epsilon), "--k", str(k))
    assert golden.recorded(argv)["exit"] == 0 and golden.agrees(argv)


def test_scan_stdout_is_pinned(in_tmp):
    argv = ("scan", "--k", "2..4", "--p", "2..20", "--check", "all")
    assert golden.recorded(argv)["exit"] == 0 and golden.agrees(argv)


@pytest.fixture(scope="module")
def grid_scan(walk_counter):
    """(exit code, stdout, the witness walk's [lines] count, surface
    contexts) of one `scan --check all` over the
    acceptance grid, run with the walk (`conftest.count_walk`) and
    `SurfaceContext.__new__` counting.  The scan builds one `checks.Row`,
    and so one context, per (epsilon, k, p) row; the counts need no state
    reset, as wallkit keeps none."""
    contexts = [0]
    new_context = SurfaceContext.__new__

    def counting_contexts(cls, *args):
        contexts[0] += 1
        return new_context(cls, *args)

    out = io.StringIO()
    with pytest.MonkeyPatch.context() as mp:
        lines = walk_counter(mp)
        mp.setattr(SurfaceContext, "__new__", staticmethod(counting_contexts))
        with contextlib.redirect_stdout(out):
            rc = main(["scan", "--epsilon", "0..1", "--k", "2..8",
                       "--p", "2..40", "--check", "all"])
    return rc, out.getvalue(), tuple(lines), contexts[0]


def test_grid_scan_stdout_is_pinned(grid_scan):
    # One scan over the grid writes the bytes of the grid-scan workload's
    # one scan per row, in order.
    rc, out, _, _ = grid_scan
    assert rc == 0
    assert (hashlib.sha256(out.encode()).hexdigest()
            == WORKLOAD_DIGESTS["grid-scan"])


def test_grid_scan_builds_one_context_per_row(grid_scan):
    # The 11,466 points lie on 2 * 7 * 39 = 546 (epsilon, k, p) rows, and
    # the points of a row share the validated context of its `checks.Row`;
    # the two more contexts check the ranges' low and high corners.
    rc, _, _, contexts = grid_scan
    assert rc == 0 and contexts == 546 + 2


def test_point_subcommands_read_no_row_field(monkeypatch, capsys):
    # v, q(v) and the v +- e divisibility serve the scan checks only: a
    # point subcommand builds a `checks.Row` for its context and reads none
    # of its lazy fields.
    reads = []

    def counted(name):
        compute = checks.Row.__dict__[name].func

        def read(row):
            reads.append(name)
            return compute(row)
        return property(read)

    for name in ("v", "qv", "v_e_divisible"):
        monkeypatch.setattr(checks.Row, name, counted(name))
    for command in (("wall-test",), ("wall-test", "--oracle"), ("class",),
                    ("exists",), ("square",)):
        for argv in golden.point_argvs(*command):
            assert _run(capsys, *argv)[0] == 0
    assert reads == []
    # The counter does see the reads of a scan.
    assert _run(capsys, "scan", "--epsilon", "0", "--k", "2", "--p", "2",
                "--check", "all")[0] == 0
    assert set(reads) == {"v", "qv", "v_e_divisible"}


def test_scan_builds_no_row_for_an_empty_delta_range(monkeypatch, capsys):
    built = []
    init = checks.Row.__init__

    def counting(row, *args):
        built.append(args)
        init(row, *args)

    monkeypatch.setattr(checks.Row, "__init__", counting)
    rc, out, _ = _run(capsys, "scan", "--epsilon", "0..1", "--k", "2",
                      "--p", "2..9", "--delta", "6..20", "--check",
                      "moduli-dim")
    assert rc == 0 and len(_records(out)) == (1 + 2 + 3 + 4) + (1 + 2)
    # delta >= 6 needs p - 2*epsilon >= 6.
    assert built == [(0, 2, p) for p in (6, 7, 8, 9)] + [(1, 2, 8), (1, 2, 9)]


@pytest.mark.parametrize("command", list(golden.SMALL_BOX))
def test_subcommand_stdout_is_pinned(in_tmp, command):
    moved = [argv for argv in golden.SMALL_BOX[command]()
             if not golden.agrees(argv)]
    assert moved == []


def test_scan_witness_oracle_skips_a_box_beyond_the_limit(capsys):
    # |disc| = 8, but the box radius is 894, beyond ORACLE_RADIUS_LIMIT;
    # the check does not apply, so the scan finishes and prints nothing.
    span = checks.Point(checks.Row(0, 2000, 552), 452).verdict.span
    assert box_radius(span.gram, span.v_coords) > checks.ORACLE_RADIUS_LIMIT
    argv = ("scan", "--epsilon", "0", "--k", "2000", "--p", "552",
            "--delta", "452", "--check")
    assert _run(capsys, *argv, "witness-oracle") == (0, "", "")
    rc, out, _ = _run(capsys, *argv, "wall-square")
    assert rc == 0 and _records(out)[0]["consistent"] is True


def test_witness_oracle_has_one_rule_in_scan_and_wall_test(capsys):
    # Box radius 1 and |disc| = 221: the radius is the only limit, so both
    # oracle entries run the box here.
    span = checks.Point(checks.Row(0, 14, 26), 0).verdict.span
    assert box_radius(span.gram, span.v_coords) == 1
    point = ("--epsilon", "0", "--k", "14", "--p", "26", "--delta", "0")
    assert _run(capsys, "scan", *point, "--check", "witness-oracle") == (
        0, '{"epsilon": 0, "k": 14, "p": 26, "delta": 0, "disc": -221, '
           '"n_witnesses": 2, "consistent": true}\n', "")
    rc, out, err = _run(capsys, "wall-test", *point, "--oracle")
    assert rc == 0 and err == ""
    assert _records(out)[0]["oracle_agrees"] is True


def test_witness_oracle_checks_the_least_walk(capsys, monkeypatch):
    # The least witness comes from `_witness_walk` and the set from the
    # box, so the oracle compares the two: a walk that misses the wall at
    # one grid point, or returns a witness that is not the least, fails the
    # check there although the witness count is still right.
    (a, b), (_, c) = checks.Point(checks.Row(0, 14, 26), 0).verdict.t_gram
    witnesses = walls.enumerate_witnesses(((a, b), (b, c)), (0, 1), 0)
    assert len(witnesses) == 2
    walk = walls._witness_walk
    point = ("--epsilon", "0", "--k", "14", "--p", "26", "--delta", "0")
    for wrong in (None, witnesses[1]):
        def broken(*args, _wrong=wrong):
            return _wrong if args[:3] == (a, b, c) else walk(*args)

        monkeypatch.setattr(walls, "_witness_walk", broken)
        rc, out, err = _run(capsys, "scan", *point, "--check",
                            "witness-oracle")
        assert rc == 0 and err == ""
        (rec,) = _records(out)
        assert rec["n_witnesses"] == 2 and rec["consistent"] is False


def test_wall_test_oracle_takes_one_box_radius(capsys, monkeypatch):
    # The oracle computes the box radius once: it applies the limit and
    # bounds the box scan.  Both module bindings are counted, so a second
    # call through `box_witnesses` would show.
    calls, radius = [], walls.box_radius

    def counting(*args):
        calls.append(args)
        return radius(*args)

    monkeypatch.setattr(walls, "box_radius", counting)
    monkeypatch.setattr(checks, "box_radius", counting)
    rc, out, err = _run(capsys, "wall-test", "--oracle", "--epsilon", "0",
                        "--k", "2", "--p", "2", "--delta", "0")
    assert rc == 0 and err == ""
    assert _records(out)[0]["oracle_agrees"] is True
    assert len(calls) == 1


def test_wall_test_oracle_beyond_the_limit_is_null(capsys):
    # Box radius 1164: the record is the plain wall-test record followed
    # by "oracle_agrees": null.
    rc, out, err = _run(capsys, "wall-test", "--epsilon", "0", "--k", "100000",
                        "--p", "198148", "--delta", "16619", "--oracle")
    assert rc == 0 and err == ""
    (rec,) = _records(out)
    assert list(rec)[-2:] == ["witness", "oracle_agrees"]
    assert rec["oracle_agrees"] is None
    assert rec["is_wall"] is True and rec["t_gram"] == [33236, 81530,
                                                        81530, 199998]
    assert rec["witness"] == {"coords": [-49, 20], "ambient": [69, -49, 6894941],
                              "q": 36, "b": 4990, "branch": "case_i"}


@pytest.mark.parametrize("argv", [
    pytest.param(("wall-test", "--epsilon", "0", "--k", "2", "--p", "2",
                  "--delta", "0", "--oracle"), id="wall-test"),
    pytest.param(("class", "--epsilon", "0", "--k", "3", "--p", "4",
                  "--delta", "0"), id="class"),
    pytest.param(("exists", "--epsilon", "0", "--k", "3", "--p", "4",
                  "--delta", "0"), id="exists"),
    pytest.param(("square", "--epsilon", "1", "--k", "4", "--p", "9",
                  "--delta", "1"), id="square"),
    pytest.param(("catalog", "--epsilon", "1", "--k", "3"), id="catalog"),
    pytest.param(("coisotropic", "--epsilon", "0", "--k", "4", "--p", "8",
                  "--delta", "1"), id="coisotropic-delta"),
    pytest.param(("coisotropic", "--epsilon", "0", "--k", "8", "--p", "14",
                  "--family", "nodal"), id="coisotropic-family"),
    pytest.param(("lagrangian", "--epsilon", "1", "--k", "2"),
                 id="lagrangian"),
    pytest.param(("scan", "--k", "2..3", "--p", "2..8", "--check", "all"),
                 id="scan"),
])
def test_output_file_holds_the_stdout_bytes(capsys, tmp_path, argv):
    rc, expected, _ = _run(capsys, *argv)
    assert rc == 0 and expected
    target = tmp_path / "out.jsonl"
    assert _run(capsys, *argv, "--output", str(target)) == (0, "", "")
    assert target.read_bytes() == expected.encode()


def _readme_cli_examples() -> list[str]:
    """The `wallkit ...` lines of the fenced bash block under `## CLI`."""
    readme = Path(__file__).resolve().parents[1] / "README.md"
    section = readme.read_text(encoding="utf-8").split("\n## CLI\n", 1)[1]
    block = section.split("```bash\n", 1)[1].split("```", 1)[0]
    return [line for line in block.splitlines() if line.startswith("wallkit ")]


@pytest.mark.parametrize("line", _readme_cli_examples())
def test_readme_cli_example_runs(capsys, tmp_path, monkeypatch, line):
    monkeypatch.chdir(tmp_path)
    argv = shlex.split(line)[1:]
    rc, out, err = _run(capsys, *argv)
    assert rc == 0 and err == ""
    if "--output" in argv:
        assert out == ""
        out = (tmp_path / argv[argv.index("--output") + 1]).read_text()
    lines = out.splitlines()
    assert lines and all(isinstance(json.loads(x), dict) for x in lines)


def test_readme_lists_every_subcommand():
    listed = {shlex.split(line)[1] for line in _readme_cli_examples()}
    assert listed == {"wall-test", "class", "exists", "square", "catalog",
                      "coisotropic", "lagrangian", "scan"}


_SQUARE_ARGV = ("square", *_POINT)

# Help, usage and error paths of the argument parser.
_ARGPARSE_CASES = {
    "no-argv": (),
    "-h": ("-h",),
    "--help": ("--help",),
    "unknown-command": ("frobnicate",),
    "abbreviated-command": ("wall", "--epsilon", "0", "--k", "2"),
    "option-before-command": ("--k", "2", "scan"),
    **{f"{name} --help": (name, "--help") for name in _FULL_OPTIONS},
    **{f"{name} bare": (name,) for name in _FULL_OPTIONS},
    **{f"{name} stray": (name, "stray") for name in _FULL_OPTIONS},
    **{f"{name} --bogus": (name, *options, "--bogus")
       for name, options in _FULL_OPTIONS.items()},
    "abbreviated-option": ("wall-test", *_POINT, "--ora"),
    "bad-epsilon-choice": ("square", "--epsilon", "3", "--k", "2", "--p", "2",
                           "--delta", "0"),
    "bad-family": ("coisotropic", "--epsilon", "0", "--k", "2", "--p", "2",
                   "--family", "cusp"),
    "non-integer-k": ("class", "--epsilon", "0", "--k", "two", "--p", "2",
                      "--delta", "0"),
}


@pytest.mark.parametrize("case", list(_ARGPARSE_CASES))
def test_argparse_surface_is_pinned(in_tmp, case):
    assert golden.agrees(_ARGPARSE_CASES[case])


@pytest.mark.parametrize("case", ["missing-directory", "directory",
                                  "full-device"])
def test_unwritable_output_is_a_user_error(capsys, tmp_path, case):
    # A failed open, and a failed write or close (/dev/full), exit 2.
    target, reason = {
        "missing-directory": (tmp_path / "absent" / "x.json",
                              "No such file or directory"),
        "directory": (tmp_path, "Is a directory"),
        "full-device": (Path("/dev/full"), "No space left on device"),
    }[case]
    if case == "full-device" and not target.exists():
        pytest.skip("no /dev/full on this system")
    rc, out, err = _run(capsys, *_SQUARE_ARGV, "--output", str(target))
    assert (rc, out) == (2, "")
    assert err == f"error: cannot write {target}: {reason}\n"


def test_main_reads_sys_argv_without_argv(capsys, monkeypatch):
    expected = _run(capsys, *_SQUARE_ARGV)
    monkeypatch.setattr(sys, "argv", ["wallkit", *_SQUARE_ARGV])
    rc = main()
    assert (rc, *capsys.readouterr()) == expected


def test_main_reuses_the_kept_parser(capsys, monkeypatch):
    # A second call declares no option.
    assert _run(capsys, "wall-test", *_POINT)[0] == 0
    declared = []
    add_argument = argparse.ArgumentParser.add_argument

    def spy(self, *flags, **kwargs):
        declared.append(flags)
        return add_argument(self, *flags, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "add_argument", spy)
    assert _run(capsys, "wall-test", *_POINT)[0] == 0
    assert declared == []


def test_parser_cache_is_bounded(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    _parsers.cache_clear()
    for i in range(50):
        golden.outcome((f"command-{i}",))
    for name, *_ in _COMMANDS:
        golden.outcome((name, "--bogus"))
    # One kept object, the full parser with its subcommands' parsers by
    # name, for every argv.
    assert _parsers.cache_info().currsize == 1
    assert list(_parsers()[1]) == [name for name, *_ in _COMMANDS]


@pytest.fixture
def recorded(monkeypatch):
    """The namespaces that the subcommand handlers receive: the parsers
    are rebuilt with each handler replaced by a recorder that returns no
    records, and cleared again afterwards."""
    namespaces = []

    def record(args):
        namespaces.append(args)
        return []

    monkeypatch.setattr(cli, "_COMMANDS", tuple(
        (name, help_text, record, options)
        for name, help_text, _, options in _COMMANDS))
    _parsers.cache_clear()
    yield namespaces
    _parsers.cache_clear()


@pytest.mark.parametrize("name", list(_FULL_OPTIONS))
def test_a_well_formed_call_is_parsed_once(tmp_path, monkeypatch, recorded,
                                           name):
    # The subcommand's parser parses the argv once and the top-level
    # parser not at all; the handler gets the namespace that the full
    # parser gives, `command` included.
    monkeypatch.chdir(tmp_path)
    argv = [name, *_FULL_OPTIONS[name]]
    parser = _parsers()[0]
    parsed = []
    parse_known_args = argparse.ArgumentParser.parse_known_args

    def spy(self, *args, **kwargs):
        parsed.append(self.prog)
        return parse_known_args(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "parse_known_args", spy)
    assert main(argv) == 0
    assert parsed == [f"wallkit {name}"]
    (args,) = recorded
    full = parser.parse_args(argv)
    assert vars(args) == vars(full) and full.command == name


def test_kept_parsers_hold_no_state(tmp_path, monkeypatch):
    # The same argv sequence gives the same bytes on a warm cache as on a
    # cleared one.
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("COLUMNS", "80")
    sequence = [
        ("scan", "--k", "2", "--p", "2..4", "--check", "all", "--bogus"),
        ("--help",),
        ("scan", "--k", "2", "--p", "2..6", "--check", "all"),
        ("scan", "--epsilon", "2", "--k", "2", "--p", "2", "--check", "all"),
    ]
    _parsers.cache_clear()
    cold = [golden.outcome(argv)[0] for argv in sequence]
    warm = [golden.outcome(argv)[0] for argv in sequence]
    assert warm == cold
    assert len({str(fields) for fields in cold}) == len(sequence)


def test_closed_stdout_is_a_user_error():
    # As with `wallkit catalog ... | head -c 100`: the reader leaves after
    # 100 bytes of the ~220 KB output, which exceeds the pipe's buffer.
    env = {**os.environ,
           "PYTHONPATH": str(Path(wallkit.__file__).resolve().parents[1])}
    argv = [sys.executable, "-m", "wallkit.cli", "catalog", "--epsilon", "0",
            "--k", "30"]
    with subprocess.Popen(argv, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, env=env) as proc:
        assert len(proc.stdout.read(100)) == 100
        proc.stdout.close()
        err = proc.stderr.read()
        assert proc.wait(timeout=60) == 2
    assert err == b"error: cannot write stdout: Broken pipe\n"


@st.composite
def _point_argv(draw):
    """One point subcommand with arguments in and just outside its domain:
    k <= 60 keeps the witness line walk short."""
    command = draw(st.sampled_from(
        ("wall-test", "class", "exists", "square", "lagrangian",
         "coisotropic")))
    eps, k = draw(st.integers(0, 1)), draw(st.integers(-1, 60))
    argv = [command, "--epsilon", str(eps), "--k", str(k)]
    if command == "lagrangian":
        return argv
    p = draw(st.integers(-1, 10**4))
    argv += ["--p", str(p)]
    if command == "coisotropic" and draw(st.booleans()):
        return argv + ["--family", draw(st.sampled_from(("nodal", "series")))]
    return argv + ["--delta", str(draw(st.integers(-2, p + 2)))]


@settings(derandomize=True, database=None, deadline=None, max_examples=200)
@given(_point_argv())
def test_point_subcommands_exit_0_or_2(argv):
    # Out-of-domain input is a user error (2), never an internal one (1).
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main(argv)
    assert rc in (0, 2), (argv, err.getvalue())
    if rc == 0:
        _assert_canonical_lines(out.getvalue())


@st.composite
def _range_text(draw, lo, hi, broken):
    """N or LO..HI inside lo..hi; if broken, a range that is malformed,
    empty or reaches below lo."""
    a, b = sorted((draw(st.integers(lo, hi)), draw(st.integers(lo, hi))))
    if not broken:
        return draw(st.sampled_from((str(a), f"{a}..{b}")))
    c = lo - draw(st.integers(1, 3))
    return draw(st.sampled_from((f"{b + 1}..{a}", str(c), f"{c}..{a}", "x",
                                 f"{a}..", f"..{b}", f"{a}..{b}..", "")))


@st.composite
def _catalog_or_scan_argv(draw):
    """`catalog` with k <= 12 and free slice bounds, or `scan` over small
    ranges with at most one option malformed or out of its domain."""
    if draw(st.booleans()):
        argv = ["catalog", "--epsilon", str(draw(st.integers(0, 1))),
                "--k", str(draw(st.integers(-1, 12)))]
        for flag in ("--p-min", "--p-max", "--delta-max"):
            if draw(st.booleans()):
                argv += [flag, str(draw(st.integers(-5, 40)))]
        return argv
    broken = draw(st.sampled_from(
        (None, "--epsilon", "--k", "--p", "--delta", "--check")))
    argv = ["scan"]
    for flag, lo, hi in (("--epsilon", 0, 1), ("--k", 2, 4), ("--p", 2, 9),
                         ("--delta", 0, 9)):
        if flag != "--delta" or broken == flag or draw(st.booleans()):
            # The = form lets a value start with "-", as in --delta=-3..-1.
            argv.append(f"{flag}={draw(_range_text(lo, hi, broken == flag))}")
    names = ("none", "") if broken == "--check" else (*checks.CHECKS, "all")
    return argv + [f"--check={draw(st.sampled_from(names))}"]


@settings(derandomize=True, database=None, deadline=None, max_examples=200)
@given(_catalog_or_scan_argv())
def test_catalog_and_scan_exit_0_or_2(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main(argv)
    assert rc in (0, 2), (argv, err.getvalue())


_BOUND = 10 ** model.INPUT_DIGITS


@pytest.mark.parametrize("argv", [
    ("square", "--epsilon", "0", "--k", str(10**2160), "--p", "5",
     "--delta", "0"),
    ("class", "--epsilon", "0", "--k", str(10**2200), "--p", "5",
     "--delta", "0"),
    ("scan", "--epsilon", "0", "--k", str(10**2200), "--p", "2..3",
     "--check", "square-forms"),
    ("catalog", "--epsilon", "0", "--k", str(_BOUND), "--p-max", "3"),
    ("exists", "--epsilon", "1", "--k", "3", "--p", str(_BOUND),
     "--delta", "0"),
    ("scan", "--epsilon", "0", "--k", "2", "--p", "2",
     f"--delta=-{_BOUND}..0", "--check", "square-forms"),
    ("catalog", "--epsilon", "0", "--k", "4", "--p-min", str(10 * _BOUND)),
    ("catalog", "--epsilon", "0", "--k", "4", f"--p-max=-{_BOUND}"),
    ("catalog", "--epsilon", "1", "--k", "4", f"--delta-max=-{_BOUND}"),
])
def test_an_integer_past_the_input_bound_exits_two(capsys, argv):
    # These printed more than 4,300 digits, which Python refuses to
    # convert, and exited 1, or echoed a 1,002-digit bound back (catalog's
    # slice bounds); now the input is refused and the error names the
    # bound, not the value's digits.
    rc, out, err = _run(capsys, *argv)
    assert (rc, out) == (2, "")
    assert err.startswith("error: ") and "10^1000" in err, err
    assert len(err) < 200


@st.composite
def _edge_argv(draw):
    """A subcommand with one or two integers just below or just above the
    input bound and the others small, and whether the input leaves the
    domain.  Each draw stays cheap at any k or p: the witness line walk
    takes O(k) lines, so `wall-test` and `scan` get points with p about k
    or above and delta near p, where q(R) >= 0, `catalog` only its seed
    state, and each family the loop that stays short (nodal over a small
    p, series over a small k)."""
    def edge():
        return _BOUND + draw(st.sampled_from((-1000, -7, -2, -1, 0, 1, 7)))

    command = draw(st.sampled_from(
        ("wall-test", "class", "exists", "square", "coisotropic", "nodal",
         "series", "lagrangian", "scan", "catalog")))
    eps = draw(st.integers(0, 1))
    small = draw(st.integers(2, 9))
    if command == "catalog":
        # --p-min is a p of the input domain: at k about half the bound the
        # seed p = 2k - 2 + 5*epsilon, the one state listed, straddles it.
        k = edge() // 2
        p_min = 2 * k - 2 + 5 * eps
        return [command, "--epsilon", str(eps), "--k", str(k), "--p-min",
                str(p_min), "--delta-max", "0"], p_min >= _BOUND
    if command == "lagrangian":
        k = edge()
        # The derived p = 2k - 2 + 5*epsilon must lie in the domain too.
        return ([command, "--epsilon", str(eps), "--k", str(k)],
                2 * k - 2 + 5 * eps >= _BOUND)
    if command in ("nodal", "series"):
        k, p = (edge(), small) if command == "nodal" else (small, edge())
        return ["coisotropic", "--epsilon", str(eps), "--k", str(k),
                "--p", str(p), "--family", command], max(k, p) >= _BOUND
    pairs = [(edge(), edge()), (small, edge())]
    if command not in ("wall-test", "scan"):
        pairs.append((edge(), small + 2))
    k, p = draw(st.sampled_from(pairs))
    argv = [command, "--epsilon", str(eps), "--k", str(k)]
    if command == "scan":
        argv += ["--p", f"{p - 1}..{p}", "--delta", f"{p - 3}..{p}",
                 "--check", draw(st.sampled_from((*checks.CHECKS, "all")))]
    else:
        argv += ["--p", str(p), "--delta", str(p - 2 * eps)]
    return argv, max(k, p) >= _BOUND


class _OutOfTime(BaseException):
    """Raised by `_cpu_bound`'s timer; no `except Exception` catches it."""


@contextlib.contextmanager
def _cpu_bound(seconds: float, what):
    """Fail the test once the block has run `seconds` of the process's CPU
    time.  Hypothesis's deadline cannot catch a draw that never returns,
    as it times a draw only when the draw ends.  The failure is raised
    here, outside the interrupted frames, whose line numbers pytest may
    not be able to read."""
    def expire(signum, frame):
        raise _OutOfTime

    old = signal.signal(signal.SIGPROF, expire)
    signal.setitimer(signal.ITIMER_PROF, seconds)
    try:
        yield
    except _OutOfTime:
        pytest.fail(f"{what} ran past {seconds} s of CPU time", pytrace=False)
    finally:
        signal.setitimer(signal.ITIMER_PROF, 0)
        signal.signal(signal.SIGPROF, old)


@settings(derandomize=True, database=None, deadline=None, max_examples=120)
@given(_edge_argv())
def test_every_subcommand_at_the_input_bound_exits_0_or_2(case):
    # Just below the bound every printed integer converts to text, and the
    # command succeeds; just above it the input is refused with an error
    # that names the bound.  Never an internal error (1).  The slowest
    # draw takes a few ms of CPU time; one that walks O(k) lines at k near
    # the bound would run without end, so each draw is bounded at 2 s.
    argv, beyond = case
    out, err = io.StringIO(), io.StringIO()
    with (_cpu_bound(2, argv), contextlib.redirect_stdout(out),
          contextlib.redirect_stderr(err)):
        rc = main(argv)
    if beyond:
        assert (rc, out.getvalue()) == (2, ""), argv
        assert "10^1000" in err.getvalue(), argv
    else:
        assert (rc, err.getvalue()) == (0, ""), argv
        _assert_canonical_lines(out.getvalue())


@st.composite
def _scan_argv(draw):
    """`scan` over small ranges inside the domain, with or without
    --delta, under any of the eight --check values."""
    argv = ["scan"]
    for flag, lo, hi in (("--epsilon", 0, 1), ("--k", 2, 12), ("--p", 2, 30),
                         ("--delta", 0, 30)):
        if flag != "--delta" or draw(st.booleans()):
            a = draw(st.integers(lo, hi))
            b = min(hi, a + draw(st.integers(0, 3)))
            argv += [flag, draw(st.sampled_from((str(a), f"{a}..{b}")))]
    return argv + ["--check", draw(st.sampled_from((*checks.CHECKS, "all")))]


def _assert_canonical_lines(out: str) -> list[dict]:
    """Each line is the bytes `json.dumps` gives for the record it holds."""
    records = []
    for line in out.splitlines():
        record = json.loads(line)
        assert json.dumps(record) == line, line
        records.append(record)
    return records


@settings(derandomize=True, database=None, deadline=None, max_examples=150)
@given(_scan_argv())
def test_scan_lines_are_their_records_json(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main(argv)
    assert rc == 0, (argv, err.getvalue())
    for record in _assert_canonical_lines(out.getvalue()):
        assert record["consistent"] is True and "failed" not in record


@pytest.mark.parametrize("check", ["all", "exists-routes", "dual-lattice"])
def test_scan_failed_list_is_its_records_json(capsys, monkeypatch, check):
    # Two failing checks, one with members text and one without; a single
    # check names only itself.
    monkeypatch.setitem(checks.CHECKS, "exists-routes",
                        lambda pt: (False, '"exists": true'))
    monkeypatch.setitem(checks.CHECKS, "dual-lattice", lambda pt: (False, ""))
    rc, out, err = _run(capsys, "scan", "--epsilon", "0..1", "--k", "2..3",
                        "--p", "2..6", "--check", check)
    assert rc == 0 and err == ""
    records = _assert_canonical_lines(out)
    expected = (["exists-routes", "dual-lattice"] if check == "all"
                else [check])
    assert records and all(r["failed"] == expected for r in records)
    assert all(r["consistent"] is False for r in records)
    assert all(list(r)[-2:] == ["failed", "consistent"] for r in records)
    if check == "all":
        assert all(r["exists-routes"] == {"exists": True}
                   and r["dual-lattice"] is True for r in records)
    elif check == "exists-routes":
        assert all(r["exists"] is True for r in records)
    else:
        assert all(len(r) == 6 for r in records)
