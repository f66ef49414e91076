"""End-to-end tests for the command-line interface."""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import shlex
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

from golden_cli import FULL_OPTIONS as _FULL_OPTIONS
from golden_cli import POINT as _POINT


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


def test_output_dir_env_var(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv("WALLKIT_OUTPUT_DIR", str(tmp_path))
    rc, out, _ = _run(capsys, "square", "--epsilon", "0", "--k", "2",
                      "--p", "2", "--delta", "0", "--output", "sq.json")
    assert rc == 0
    assert (tmp_path / "sq.json").exists()
    rec = json.loads((tmp_path / "sq.json").read_text())
    assert rec["q_R"] == "-5/2"


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
    # x-scan, which walks none.
    rc, _, lines, _ = grid_scan
    assert rc == 0 and lines == (1303,)
    rc, _, err = _run(capsys, "scan", "--epsilon", "0..1", "--k", "2..8",
                      "--p", "2..40", "--check", "dual-lattice")
    assert rc == 0 and err == "" and walked[0] == 0
    # dual-lattice reads only the saturated span, so at k = 3000 it costs
    # no walk over the q(v) = 5998 lines of each span.
    rc, out, err = _run(capsys, "scan", "--epsilon", "0", "--k", "3000",
                        "--p", "6100..6101", "--delta", "0..200",
                        "--check", "dual-lattice")
    assert rc == 0 and err == "" and walked[0] == 0
    assert hashlib.sha256(out.encode()).hexdigest() == _K3000_DUAL_SHA256


def test_verdicts_stop_at_the_least_witness(capsys, monkeypatch):
    # Only the oracle reads the full witness set (`checks._oracle` calls
    # enumerate_witnesses); verdicts and catalog entries stop at the least
    # witness.  Both names are patched, so a verdict that reached the full
    # set through `walls` would fail too.
    def no_full_walk(*args, **kwargs):
        raise RuntimeError("full witness walk")

    monkeypatch.setattr(walls, "enumerate_witnesses", no_full_walk)
    monkeypatch.setattr(checks, "enumerate_witnesses", no_full_walk)
    for p, delta in ((2, 0), (6, 6), (40, 3)):
        rc, out, err = _run(capsys, "wall-test", "--epsilon", "0", "--k", "2",
                            "--p", str(p), "--delta", str(delta))
        assert rc == 0 and err == "" and _records(out)
    rc, out, err = _run(capsys, "catalog", "--epsilon", "0", "--k", "12")
    assert rc == 0 and err == "" and _records(out)
    rc, _, err = _run(capsys, "wall-test", "--oracle", "--epsilon", "0",
                      "--k", "2", "--p", "2", "--delta", "0")
    assert rc == 1 and "full witness walk" in err


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


# sha256 of stdout, pinned so that a speed-up cannot change a byte of output.
_CATALOG_SHA256 = {
    (0, 2): "7322682b8d5fb61602da1b108064e3ea8e2e4b965ae0ff0febc9a1b09e64a0d7",
    (0, 3): "737089ab9060dbe5bff08524d7f10d3b1f6fc82f08d16f347da740dbe91f7263",
    (0, 4): "459e918f615e7ab8cc4658870d2f55a11aafbe0a536a6f2b3a9e4cbcca5139f1",
    (0, 5): "587f3e6f8e335875f99c47791fe72941824e3292a5990bc67b7056ef1c6758dc",
    (0, 6): "3e0cfc30d941f63bda2e3681012e87b86897e6bf36ebf0f37a939242f5191032",
    (0, 7): "31d7274f9f384f49fd25c51beaaff42efd2d5a6556f1d8885cd45aa1c3ca5894",
    (0, 8): "2ea14677f8e009f448250f6959e18ed1bf7162de44b7d777875ec0ccd057c117",
    (0, 9): "5b8e741893347724753b9930575353f7ae9653327b4ba01ff7d65a15b5477ade",
    (0, 10): "2d79aa5ce7de3ec2d2a0d4ba38eb6653a633980de9963bca37b086a3e00d4599",
    (0, 11): "030e82ac9cab76344c48a15926bd35f735dec7719779fc5718f2bc7b44262705",
    (0, 12): "93231c7a5ccb0d5cda3c793448256cd704875c18df3e5e81da0f1ebc0c82a7ee",
    (1, 2): "0efcdefde8c8626774292915900c13d97e46a4803d2fe9d6e9a8482865daac54",
    (1, 3): "cab87dda387f45518fd5e549a07c21eca4317d2174c17dd5c550a813d47d1260",
    (1, 4): "f5f848fe535e85d6e4a8c4897eecae65dc47671059bcd97f85532fdb8d0c288f",
    (1, 5): "552f44436ef3f5d1841b09fd104059dd606a505ecec9854a5c585e5ba6bf632b",
    (1, 6): "2e30bbc6e389d64738447bc9803ba2dc278112d1a228000efec3fd8a32cf23db",
    (1, 7): "024a0ebca6f59a4bf757575c5e6cda73d6c691a7a2e72d3bb2e9a69c9bbdf118",
    (1, 8): "6585625647e48eac5a6bf222d928cba2a4fa6d1aaf2593803a8b3b6fd6c9d7f8",
    (1, 9): "1fa3399c8d7f6e91e5a544819cb9c17ae5dca3d96e84c1f823206b2a286ad71f",
    (1, 10): "9eaf343acd9ae0dbda9dbeed3e01f66f31bc9fed76880aacbcae56e0582c5f44",
    (1, 11): "58c93054f2d0ab73e9464cc546ae5709ee2afb1fda066649457561154349177e",
    (1, 12): "1b4b7f5e686e30d19fcb7e4573b9c4beb254dd3b8226f93ebc428e77ac5470d2",
}
_SCAN_SHA256 = "200d46c5adca8dbb34022238fb5e888e906ccdc027c4c12f32f735a2e24e3df8"
# The whole acceptance grid, k <= 8 and p <= 40, both epsilon.
_GRID_SCAN_SHA256 = \
    "19233f762feda9b1c378c6061b08d873e2ec912fef84cd5ea50d1faa6077e4df"
# `scan --check dual-lattice` at k = 3000, computed while that check still
# ran the witness search.
_K3000_DUAL_SHA256 = \
    "3d692018e89b5fecec97ecf3aac1ff9e59c218488496c20c0a5ef5e1fde2e075"


@pytest.mark.parametrize("epsilon, k", sorted(_CATALOG_SHA256))
def test_catalog_stdout_is_pinned(capsys, epsilon, k):
    rc, out, err = _run(capsys, "catalog", "--epsilon", str(epsilon),
                        "--k", str(k))
    assert rc == 0 and err == ""
    digest = hashlib.sha256(out.encode()).hexdigest()
    assert digest == _CATALOG_SHA256[epsilon, k]


def test_scan_stdout_is_pinned(capsys):
    rc, out, err = _run(capsys, "scan", "--k", "2..4", "--p", "2..20",
                        "--check", "all")
    assert rc == 0 and err == ""
    assert hashlib.sha256(out.encode()).hexdigest() == _SCAN_SHA256


def test_catalog_lines_bypass_the_json_encoder(capsys, monkeypatch):
    # `catalog` hands `write_records` lines already rendered by
    # `catalog.entry_line`, and `scan` lines rendered by `_scan_records`
    # from the checks' members text, so nothing is JSON-encoded.  The bytes
    # are the pinned ones.
    encoder, encoded = model._ENCODER, [0]

    class Counting:
        def encode(self, record):
            encoded[0] += 1
            return encoder.encode(record)

    monkeypatch.setattr(model, "_ENCODER", Counting())
    rc, out, err = _run(capsys, "catalog", "--epsilon", "1", "--k", "12")
    assert rc == 0 and err == "" and len(out.splitlines()) > 100
    assert hashlib.sha256(out.encode()).hexdigest() == _CATALOG_SHA256[1, 12]
    assert encoded[0] == 0
    rc, out, err = _run(capsys, "scan", "--k", "2..4", "--p", "2..20",
                        "--check", "all")
    assert rc == 0 and err == ""
    assert hashlib.sha256(out.encode()).hexdigest() == _SCAN_SHA256
    assert encoded[0] == 0


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
    rc, out, _, _ = grid_scan
    assert rc == 0
    assert hashlib.sha256(out.encode()).hexdigest() == _GRID_SCAN_SHA256


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
    for command in ("wall-test", "wall-test --oracle", "class", "exists",
                    "square"):
        for argv in _PIN_ARGVS[command]():
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


def _point_argvs(*command):
    for epsilon in (0, 1):
        for k in (2, 3, 4):
            for p in range(2, 13):
                for delta in range(p - 2 * epsilon + 1):
                    yield (*command[:1], "--epsilon", str(epsilon),
                           "--k", str(k), "--p", str(p),
                           "--delta", str(delta), *command[1:])


def _family_argvs(family):
    for epsilon in (0, 1):
        for k in (2, 3, 4):
            for p in range(2, 13):
                yield ("coisotropic", "--epsilon", str(epsilon), "--k", str(k),
                       "--p", str(p), "--family", family)


# Every argv of a pinned subcommand over e in {0, 1}, 2 <= k <= 4,
# 2 <= p <= 12 and 0 <= delta <= p - 2e.
_PIN_ARGVS = {
    "wall-test": lambda: _point_argvs("wall-test"),
    "wall-test --oracle": lambda: _point_argvs("wall-test", "--oracle"),
    "class": lambda: _point_argvs("class"),
    "exists": lambda: _point_argvs("exists"),
    "square": lambda: _point_argvs("square"),
    "coisotropic --delta": lambda: _point_argvs("coisotropic"),
    "coisotropic --family nodal": lambda: _family_argvs("nodal"),
    "coisotropic --family series": lambda: _family_argvs("series"),
    "lagrangian": lambda: (("lagrangian", "--epsilon", str(epsilon),
                            "--k", str(k))
                           for epsilon in (0, 1) for k in (2, 3, 4)),
}


def _pin_digest(capsys, argvs) -> str:
    """sha256 over the exit code and stdout of each argv in turn."""
    digest = hashlib.sha256()
    for argv in argvs:
        rc = main(list(argv))
        out, _ = capsys.readouterr()
        digest.update(f"{rc}\n{out}".encode())
    return digest.hexdigest()


# Computed before the handlers were routed through one output path.
_PIN_SHA256 = {
    "wall-test": "9e4d83db9d5c8ac389af83abde36c64a60b1468d12dd41d8c06dbf3ce0e39c38",
    "wall-test --oracle": "fd4fa2f51d95f3c6bd4767f3df180ac1a5f90dce78561af8bd46ed98b7c448d3",
    "class": "2c4206c87ece066de7568b45f5895f6eb7ea2fc53ade3c6424eb0687a3204f0f",
    "exists": "65758736352ea5ce5327a1c947b07ba13344113d0d0fb2eff7a4ec216c9b48bc",
    "square": "5a4092ca897ec8093decebd27a691ed63d1932c712f99a6d3ba947cd4033c69f",
    "coisotropic --delta": "c5199e78bc255400c003aaafa27ef3bd2ed1d4521ad469f7e545bd6a409798df",
    "coisotropic --family nodal": "0c9a68f00ed57229efd4fbc593ba6c9fb03f146413a14906caa5740ce33c2d78",
    "coisotropic --family series": "8f8c0c3abc4513e6099cc567e1305f3d9fe532b49aef80075219eca0ccc52a14",
    "lagrangian": "6fcb3190d42412db312e31cdacf5c29794a8cad1d4b963adc0f5271619e9842e",
}


@pytest.mark.parametrize("command", list(_PIN_SHA256))
def test_subcommand_stdout_is_pinned(capsys, command):
    assert _pin_digest(capsys, _PIN_ARGVS[command]()) == _PIN_SHA256[command]


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
    # x-scan, so the oracle compares the two: a walk that misses the wall
    # at one grid point, or returns a witness that is not the least, fails
    # the check there although the set still equals the box oracle's.
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
    monkeypatch.setenv("WALLKIT_OUTPUT_DIR", str(tmp_path))
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


def _outcome_digest(capsys, argv) -> str:
    """sha256 over the exit code, stdout and stderr of main(argv)."""
    try:
        rc = main(list(argv))
    except SystemExit as exc:
        rc = exc.code
    out, err = capsys.readouterr()
    return hashlib.sha256(f"{rc}\0{out}\0{err}".encode()).hexdigest()


# Computed with COLUMNS=80.
_ARGPARSE_SHA256 = {
    "no-argv": "fbf5ff4f289bc7917f21684c5a6b60bc59455696c05b2b6eddd01992fadc343a",
    "-h": "5b3d0952c0d8edf9c9bf944f922ac2b7288b9978ce2b8111f57297aee6053470",
    "--help": "5b3d0952c0d8edf9c9bf944f922ac2b7288b9978ce2b8111f57297aee6053470",
    "unknown-command": "997de77b5c6a7c63bd72a6eff009c429fb27ab4375f3a332a6572fd560b960bb",
    "abbreviated-command": "48935a992177f6e108be4f86f168af6829e850b87a02defb34e4b28e9d3b8629",
    "option-before-command": "8036081d75055535f365bce8b6dbaba7b5282424c9f2d417d0ef55735a4f150d",
    "wall-test --help": "359197184d7c6203972a752ddaba3e228ee1553094eb55488d9cf2f161626588",
    "class --help": "ccb159100a7cefa60fe3f082be0913feca3e5d525016d10d325786414e0dc3fb",
    "exists --help": "64025abbc8964074622c6adc25400bac1c0e948c9ad37413ba493262ca74b3f2",
    "square --help": "c08dce6b35fcb238f5d842852fb93e17a39482e01915825e7688aee798950ddb",
    "catalog --help": "6ed7c948cdfdc4d00f9320981d82e5ed81c400ee9eb69c3200cfe3ea1c61fcea",
    "coisotropic --help": "a5ec65544470b263bd11e9b5ccc789559bda81b63a4e88cb6153fcc6621a35c3",
    "lagrangian --help": "3b01abd24f3e29318ae9fad53107fee747c95a03631445d14551435cd002c4d7",
    "scan --help": "7d98501a32bb8dfc567419ed150b67d75d60a40e0f860af91099a18b61a7816e",
    "wall-test bare": "3849461e909a3d85efb887d95621dcebec74530fa16e73520523f5d5d3a51e64",
    "class bare": "2ee2113cd978ac6628356ab790d15649815ae254d9e92071f22c14452870af3c",
    "exists bare": "be5c4e6a8cbbba3622f6bc63aa39dc92a472f16212ad908c202ff1c1b63bcf7d",
    "square bare": "6ea4f52b717521bd8c7ada0013bcb03e37b4937a2ca16f1a2e3d2a7765ddadac",
    "catalog bare": "49e0304899e43e5ffe47747472ee195657d168d5eb1a1838ebec7fbc2b3e250f",
    "coisotropic bare": "bc2b35ccdc7af3fcb71cf2ee320e3b4fd58bcc81eba75534ad53164f793902ff",
    "lagrangian bare": "00a0beee75cf13ed7baeea07ba251b18f5fbc53f725919ecbfdafd1101bd4c58",
    "scan bare": "21fa2bbbc91f56be08cea5b47e2e2506d3312ef286bd0a457794b1a763586853",
    "wall-test stray": "3849461e909a3d85efb887d95621dcebec74530fa16e73520523f5d5d3a51e64",
    "class stray": "2ee2113cd978ac6628356ab790d15649815ae254d9e92071f22c14452870af3c",
    "exists stray": "be5c4e6a8cbbba3622f6bc63aa39dc92a472f16212ad908c202ff1c1b63bcf7d",
    "square stray": "6ea4f52b717521bd8c7ada0013bcb03e37b4937a2ca16f1a2e3d2a7765ddadac",
    "catalog stray": "49e0304899e43e5ffe47747472ee195657d168d5eb1a1838ebec7fbc2b3e250f",
    "coisotropic stray": "bc2b35ccdc7af3fcb71cf2ee320e3b4fd58bcc81eba75534ad53164f793902ff",
    "lagrangian stray": "00a0beee75cf13ed7baeea07ba251b18f5fbc53f725919ecbfdafd1101bd4c58",
    "scan stray": "21fa2bbbc91f56be08cea5b47e2e2506d3312ef286bd0a457794b1a763586853",
    "wall-test --bogus": "2a69b22236819720b79f2b0913ad029fa3fe3b80e52461e5f192efd2d62eecc1",
    "class --bogus": "2a69b22236819720b79f2b0913ad029fa3fe3b80e52461e5f192efd2d62eecc1",
    "exists --bogus": "2a69b22236819720b79f2b0913ad029fa3fe3b80e52461e5f192efd2d62eecc1",
    "square --bogus": "2a69b22236819720b79f2b0913ad029fa3fe3b80e52461e5f192efd2d62eecc1",
    "catalog --bogus": "2a69b22236819720b79f2b0913ad029fa3fe3b80e52461e5f192efd2d62eecc1",
    "coisotropic --bogus": "2a69b22236819720b79f2b0913ad029fa3fe3b80e52461e5f192efd2d62eecc1",
    "lagrangian --bogus": "2a69b22236819720b79f2b0913ad029fa3fe3b80e52461e5f192efd2d62eecc1",
    "scan --bogus": "2a69b22236819720b79f2b0913ad029fa3fe3b80e52461e5f192efd2d62eecc1",
    "abbreviated-option": "e185edb2d70ef3c4174373ae2f3508d910a205bee1fe24030ca7dd4fab5de3b6",
    "bad-epsilon-choice": "eabfcbf6c656d68afc77dd4f416596206bb443d7963fa0886a118a5717298d96",
    "bad-family": "adef0da3bef01592030c6b6f424b87565e7652abaada9c9d53c2ca061f04d56a",
    "non-integer-k": "ec783ddfa6bb0d5f3dcd7ee17c05e2390286b43958d379879863b1917400bdd1",
}


@pytest.mark.parametrize("case", list(_ARGPARSE_CASES))
def test_argparse_surface_is_pinned(capsys, tmp_path, monkeypatch, case):
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("COLUMNS", "80")
    digest = _outcome_digest(capsys, _ARGPARSE_CASES[case])
    assert digest == _ARGPARSE_SHA256[case]


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


def test_parser_cache_is_bounded(capsys):
    _parsers.cache_clear()
    for i in range(50):
        _outcome_digest(capsys, (f"command-{i}",))
    for name, *_ in _COMMANDS:
        _outcome_digest(capsys, (name, "--bogus"))
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


def test_kept_parsers_hold_no_state(capsys, tmp_path, monkeypatch):
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
    cold = [_outcome_digest(capsys, argv) for argv in sequence]
    warm = [_outcome_digest(capsys, argv) for argv in sequence]
    assert warm == cold
    assert len(set(cold)) == len(sequence)


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


@settings(derandomize=True, database=None, deadline=None, max_examples=120)
@given(_edge_argv())
def test_every_subcommand_at_the_input_bound_exits_0_or_2(case):
    # Just below the bound every printed integer converts to text, and the
    # command succeeds; just above it the input is refused with an error
    # that names the bound.  Never an internal error (1).
    argv, beyond = case
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main(argv)
    if beyond:
        assert (rc, out.getvalue()) == (2, ""), argv
        assert "10^1000" in err.getvalue(), argv
    else:
        assert (rc, err.getvalue()) == (0, ""), argv


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
