"""End-to-end tests for the command-line interface."""

from __future__ import annotations

import json
from fractions import Fraction

import pytest

from wallkit import checks
from wallkit.cli import main


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


def test_class_record(capsys):
    rc, out, _ = _run(capsys, "class", "--epsilon", "0", "--k", "3",
                      "--p", "4", "--delta", "0")
    assert rc == 0
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


def test_coisotropic_family_streams(capsys):
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

    monkeypatch.setitem(checks.CHECKS, "dual-lattice", lambda pt: (False, {}))
    rc, out, _ = _run(capsys, *argv)
    assert rc == 0
    (rec,) = _records(out)
    assert rec["failed"] == ["dual-lattice"] and rec["consistent"] is False
    assert list(rec)[-2:] == ["failed", "consistent"]


def test_scan_computes_only_what_the_check_needs(capsys, monkeypatch):
    def no_wall_test(*args, **kwargs):
        raise RuntimeError("wall_test called")

    monkeypatch.setattr(checks, "wall_test", no_wall_test)
    argv = ("scan", "--epsilon", "0..1", "--k", "2..3", "--p", "2..8")
    rc, out, err = _run(capsys, *argv, "--check", "exists-routes")
    assert rc == 0 and err == "" and _records(out)
    rc, _, err = _run(capsys, *argv, "--check", "wall-square")
    assert rc == 1 and "wall_test called" in err


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
