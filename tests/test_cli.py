"""CLI contract: schema validation, exit codes, determinism, output formats."""

import cmath
import json
import math
import subprocess
import sys

import numpy as np
import pytest

BASE = [sys.executable, "-m", "wkit.cli"]


def run_cli(*args):
    return subprocess.run(BASE + list(args), capture_output=True, text=True)


@pytest.fixture
def small_config(tmp_path):
    cfg = {
        "params": {"N": 2, "q": 0.55, "p": 0.3, "c": 0},
        "policy": {"tail_eps": 1e-16, "max_terms": 512},
        "suites": ["theta-identities", "n0", "alpha-identity"],
        "seed": 3,
    }
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    return path


def test_check_passes_and_report_schema(small_config, tmp_path):
    out = tmp_path / "report.json"
    res = run_cli("check", "--config", str(small_config), "--out", str(out))
    assert res.returncode == 0
    reports = json.loads(out.read_text())
    assert isinstance(reports, list) and reports
    keys = {"suite", "check", "identity", "inputs", "residual",
            "tolerance", "passed", "wall_ms"}
    for r in reports:
        assert set(r) == keys
        assert r["passed"] == (r["residual"] <= r["tolerance"])


def test_check_determinism_byte_identical(small_config, tmp_path):
    outs = []
    for i in range(2):
        out = tmp_path / f"report{i}.json"
        res = run_cli("check", "--config", str(small_config), "--out", str(out))
        assert res.returncode == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]


def test_check_exit_1_on_failed_check(tmp_path):
    cfg = {
        "params": {"N": 2, "q": 0.55, "p": 0.3},
        "suites": ["theta-identities"],
        "tolerances": {"theta-identities": 1e-30},
        "seed": 3,
    }
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    res = run_cli("check", "--config", str(path))
    assert res.returncode == 1


def test_raising_suite_becomes_failing_report(tmp_path, monkeypatch):
    # fusion-identities exceeds an 8-dimensional guard at N = 2 in the
    # (2,2) blocks of two of its checks; each of them fails alone, naming
    # the error, and every other check of both suites, the admitted blocks
    # too, still reports and passes
    from wkit.cli import main

    monkeypatch.setenv("WKIT_MAX_DIM", "8")
    cfg = {"params": {"N": 2}, "suites": ["theta-identities", "fusion-identities"]}
    path, out = tmp_path / "cfg.json", tmp_path / "report.json"
    path.write_text(json.dumps(cfg))
    assert main(["check", "--config", str(path), "--out", str(out)]) == 1
    reports = json.loads(out.read_text())
    theta = [r for r in reports if r["suite"] == "theta-identities"]
    fusion = [r for r in reports if r["suite"] == "fusion-identities"]
    assert len(theta) == 6 and all(r["passed"] for r in theta)
    assert len(fusion) == 16 and "suite-error" not in {r["check"] for r in fusion}
    failed = [r for r in fusion if not r["passed"]]
    assert {r["check"] for r in failed} == {"fused-crossing-unitarity(k=2,k'=2)", "M_derivative(k=2,k'=2)"}
    admitted = {f"fused-crossing-unitarity(k={k},k'={kp})" for k, kp in [(1, 1), (1, 2), (2, 1)]}
    assert admitted <= {r["check"] for r in fusion if r["passed"]}
    for err in failed:
        assert err["inputs"]["error"] == "DimensionGuardExceeded"
        assert "guard 8" in err["inputs"]["message"]
        assert not math.isfinite(err["residual"])


def test_charge_violation_becomes_failing_report(tmp_path, monkeypatch):
    # an R-hat with one entry outside its Z_N charge pattern is refused as
    # it enters the graded operator type: through `wkit check` every
    # fusion-identities check built on R-hat fails alone with the
    # ChargeViolation, the one that is not (antisymmetrizer-projectors)
    # still passes, and the run exits 1
    from wkit.cli import main
    from wkit.rmatrix import RMatrixFactory

    build = RMatrixFactory.build

    def off_charge(self, xis, hat):
        mats = build(self, xis, hat).copy()
        mats[:, 0, 1] = 1e-3  # (0, 0) <- (0, 1) changes the charge
        return mats

    monkeypatch.setattr(RMatrixFactory, "build", off_charge)
    path, out = tmp_path / "cfg.json", tmp_path / "report.json"
    path.write_text(json.dumps({"params": {"N": 3}, "suites": ["fusion-identities"]}))
    assert main(["check", "--config", str(path), "--out", str(out)]) == 1
    reports = json.loads(out.read_text())
    assert len(reports) == 23 and "suite-error" not in {r["check"] for r in reports}
    assert [r["check"] for r in reports if r["passed"]] == ["antisymmetrizer-projectors"]
    for r in reports:
        if r["passed"]:
            continue
        assert r["inputs"]["error"] == "ChargeViolation"
        assert "does not conserve the Z_3 charge" in r["inputs"]["message"]
        assert not math.isfinite(r["residual"])


def test_off_charge_build_fails_zn_sparsity_and_the_graded_checks(tmp_path, monkeypatch, capsys):
    # one entry outside the Z_N charge pattern, 1e-11 of the largest, in
    # every R and Rhat build: zn-sparsity (tolerance 1e-12) fails on its
    # measure, the checks on graded operators, which refuse the build, fail
    # alone with NaN and the ChargeViolation, and every other check still
    # reports and passes; through
    # `wkit check` that is exit 1 and no traceback
    from wkit.cli import main
    from wkit.rmatrix import RMatrixFactory

    build = RMatrixFactory.build

    def off_charge(self, xis, hat):
        mats = build(self, xis, hat).copy()
        mats[:, 0, 1] = 1e-11 * abs(mats).max(axis=(1, 2))  # (0, 0) <- (0, 1) changes the charge
        return mats

    monkeypatch.setattr(RMatrixFactory, "build", off_charge)
    path, out = tmp_path / "cfg.json", tmp_path / "report.json"
    path.write_text(json.dumps({"params": {"N": 3}, "suites": ["rmatrix-properties"]}))
    assert main(["check", "--config", str(path), "--out", str(out)]) == 1
    assert "Traceback" not in capsys.readouterr().err
    reports = json.loads(out.read_text())
    assert len(reports) == 35 and "suite-error" not in {r["check"] for r in reports}
    failed = {r["check"] for r in reports if not r["passed"]}
    graded = {"crossing", "yang-baxter", "yang-baxter-hat", "control-perturbed-ybe",
              "control-perturbed-crossing"}
    assert failed == graded | {"zn-sparsity"}
    for r in reports:
        if r["check"] == "zn-sparsity":
            assert 0.9e-11 < r["residual"] < 1.1e-11
        elif r["check"] in graded:
            assert r["residual"] != r["residual"]  # NaN
            assert r["inputs"]["error"] == "ChargeViolation"


def test_linalg_error_in_a_suite_becomes_failing_report(tmp_path, monkeypatch):
    # a numpy LinAlgError raised outside every check fails its own suite
    # only, as its one suite-error report; every other suite still reports
    import numpy as np

    from wkit.cli import main
    from wkit.suites import SUITES

    def singular(ctx):
        raise np.linalg.LinAlgError("Singular matrix")

    monkeypatch.setitem(SUITES, "qdet", singular)
    names = ["theta-identities", "qdet", "n0"]
    path, out = tmp_path / "cfg.json", tmp_path / "report.json"
    path.write_text(json.dumps({"params": {"N": 2}, "suites": names}))
    assert main(["check", "--config", str(path), "--out", str(out)]) == 1
    reports = json.loads(out.read_text())
    qdet = [r for r in reports if r["suite"] == "qdet"]
    assert len(qdet) == 1 and qdet[0]["check"] == "suite-error" and not qdet[0]["passed"]
    assert qdet[0]["inputs"] == {"error": "LinAlgError", "message": "Singular matrix"}
    rest = [r for r in reports if r["suite"] != "qdet"]
    assert {r["suite"] for r in rest} == {"theta-identities", "n0"}
    assert all(r["passed"] for r in rest)


def test_check_exit_2_on_malformed_json(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    res = run_cli("check", "--config", str(path))
    assert res.returncode == 2
    assert res.stdout == ""  # no partial output


@pytest.mark.parametrize("bad", [
    {"params": {"N": 2, "unknown_key": 1}},
    {"params": {"N": 1}},
    {"suites": ["no-such-suite"]},
    {"typo_block": {}},
    {"params": {"N": 2, "s": 0.5, "p": 0.3}},
    {"seed": "seven"},
    {"grid": {"points": 0}},
    {"grid": {"from": 0}},
    {"grid": {"points": "x"}},
    {"grid": {"points": None}},
    {"grid": {"points": 2.7}},
    {"grid": {"from": None}},
    {"grid": {"log": "no"}},
    {"policy": {"max_terms": None}},
    {"seed": True},
    {"tolerances": {"n0": True}},
    {"params": {"N": 2, "q": math.nan}},  # Python's json reads NaN and Infinity
    {"params": {"N": 2, "p": math.nan}, "suites": ["qdet"]},
    {"params": {"N": 2, "s": math.inf}, "suites": ["n0"]},
    {"grid": {"from": math.nan}},
    {"tolerances": {"n0": math.inf}},
    {"params": {"N": 2}, "suites": ["n0"], "tolerances": {"nO": 1e-30}},  # misspelt suite
    {"params": {"N": 2}, "suites": ["theta-identities"], "seed": -3},
])
def test_check_exit_2_on_schema_violations(tmp_path, bad):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(bad))
    res = run_cli("check", "--config", str(path))
    assert res.returncode == 2, res.stderr
    assert res.stdout == ""


def test_check_exit_2_on_unwritable_output(small_config, tmp_path, monkeypatch, capsys):
    out = tmp_path / "no-such-dir" / "report.json"
    res = run_cli("check", "--config", str(small_config), "--out", str(out))
    assert res.returncode == 2 and res.stdout == ""
    assert res.stderr.startswith("output error: ") and len(res.stderr.splitlines()) == 1
    # the file is tried once the config parses, before any suite runs
    from wkit import cli
    called = []
    for name in list(cli.SUITES):
        monkeypatch.setitem(cli.SUITES, name, lambda ctx, name=name: called.append(name) or [])
    assert cli.main(["check", "--config", str(small_config), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("output error: ") and len(err.splitlines()) == 1
    assert called == []
    # the same config with a writable file runs its three suites
    assert cli.main(["check", "--config", str(small_config), "--out", str(tmp_path / "r.json")]) == 0
    assert sorted(called) == ["alpha-identity", "n0", "theta-identities"]


def test_scan_exit_2_on_unwritable_csv(tmp_path):
    out = tmp_path / "no-such-dir" / "scan.csv"
    res = run_cli("scan", "U", "--from", "0.5", "--to", "2.0", "--points", "3",
                  "--csv", str(out), "--N", "2", "--q", "0.6", "--s", "0.5")
    assert res.returncode == 2 and res.stdout == ""
    assert res.stderr.startswith("output error: ") and len(res.stderr.splitlines()) == 1


def test_eval_known_values():
    res = run_cli("eval", "theta_big", "--at", "1", "--N", "2", "--q", "0.5", "--p", "0.3")
    assert res.returncode == 0
    re_, im_ = map(float, res.stdout.split())
    assert re_ == 0.0 and im_ == 0.0

    res = run_cli("eval", "f_cr_series", "--at", "1", "--N", "2", "--q", "0.5",
                  "--p", "0.3", "--k", "1", "--kprime", "1")
    re_, im_ = map(float, res.stdout.split())
    assert abs(re_) < 1e-13 and abs(im_) < 1e-13

    # U recomputes as the tau_N pair (x = 1 itself is a double pole of U:
    # tau_N(q^{1/2}) already divides by Theta(1) = 0, so a regular point is
    # used for the recomputation identity)
    res = run_cli("eval", "U", "--at", "1.3", "--N", "2", "--q", "0.5", "--p", "0.3")
    re_, im_ = map(float, res.stdout.split())
    import math

    from wkit import EllipticParams, tau_N
    pr = EllipticParams(2, 0.5, 0.5**0.5)
    want = tau_N(math.sqrt(0.5) * 1.3, pr) * tau_N(math.sqrt(0.5) / 1.3, pr)
    assert abs(complex(re_, im_) - want) < 1e-12 * abs(want)
    # the pole itself reports a clean failure
    res = run_cli("eval", "U", "--at", "1", "--N", "2", "--q", "0.5", "--p", "0.3")
    assert res.returncode == 1 and "PoleHit" in res.stderr


def test_eval_bad_function_exits_2():
    res = run_cli("eval", "nope", "--at", "1")
    assert res.returncode == 2


def test_eval_non_finite_parameter_exits_2():
    res = run_cli("eval", "U", "--at", "1.1", "--q", "nan")
    assert res.returncode == 2 and res.stdout == ""
    assert "q must be finite" in res.stderr


def test_eval_non_finite_value_exits_1():
    # theta_big's products overflow to NaN at x = 1e160 (N = 2, q = 0.55, p = 0.3)
    res = run_cli("eval", "theta_big", "--at", "1e160")
    assert res.returncode == 1 and res.stdout == ""
    assert "evaluation failed: non-finite value at x = (1e+160+0j)" in res.stderr


def test_scan_non_finite_value_writes_no_rows(tmp_path):
    # U (N = 2, q = 0.6, s = 0.5) is NaN from x ~ 1.94e8 on; the scan must
    # fail on the first such point and write nothing
    out = tmp_path / "scan.csv"
    res = run_cli("scan", "U", "--from", "1.93e8", "--to", "1.95e8", "--points", "21",
                  "--csv", str(out), "--N", "2", "--q", "0.6", "--s", "0.5")
    assert res.returncode == 1 and res.stdout == "" and not out.exists()
    head = "evaluation failed: non-finite value at x = "
    assert res.stderr.startswith(head)
    from wkit import EllipticParams, U
    pr = EllipticParams(2, 0.6, 0.5)
    bad = complex(res.stderr[len(head):].strip())
    xs = [complex(x) for x in np.linspace(1.93e8, 1.95e8, 21)]
    assert bad in xs and not cmath.isfinite(U(bad, pr))
    assert all(cmath.isfinite(U(x, pr)) for x in xs[:xs.index(bad)])


def test_scan_csv_and_determinism(tmp_path):
    args = ["scan", "Y_mn", "--from", "0.5", "--to", "2.0", "--points", "40",
            "--log", "--N", "2", "--q", "0.6", "--s", "0.36", "--c", "0.666666666666",
            "--m", "-3", "--n", "3"]
    a = run_cli(*args)
    b = run_cli(*args)
    assert a.returncode == 0 and a.stdout == b.stdout
    lines = a.stdout.strip().splitlines()
    assert lines[0] == "x_re,x_im,f_re,f_im"
    assert len(lines) == 41


def test_scan_abelian_branch_flat(tmp_path):
    # on the abel4 branch the scanned Y must sit at 1 across the whole grid
    from wkit import resolve_abelian_branch
    params = resolve_abelian_branch("abel4", 2, 0.6, -3, 3)
    out = tmp_path / "scan.csv"
    res = run_cli("scan", "Y_mn", "--from", "0.5", "--to", "2.0", "--points", "80",
                  "--log", "--csv", str(out), "--N", "2", "--q", "0.6",
                  "--s", repr(params.s.real), "--c", repr(params.c.real),
                  "--m", "-3", "--n", "3")
    assert res.returncode == 0
    rows = out.read_text().strip().splitlines()[1:]
    for row in rows:
        _, _, fr, fi = map(float, row.split(","))
        assert abs(complex(fr, fi) - 1) < 1e-9


def test_scan_antisymmetric_column():
    # log grid from x0 to 1/x0 is symmetric under x -> 1/x: the scanned
    # f_cr column must be antisymmetric row-for-row
    res = run_cli("scan", "f_cr_series", "--from", "0.8", "--to", "1.25",
                  "--points", "9", "--log", "--N", "2", "--q", "0.6", "--p", "0.3",
                  "--k", "1", "--kprime", "1")
    assert res.returncode == 0
    rows = [list(map(float, r.split(","))) for r in res.stdout.strip().splitlines()[1:]]
    assert len(rows) == 9
    vals = [complex(r[2], r[3]) for r in rows]
    for i in range(9):
        assert abs(vals[i] + vals[8 - i]) < 1e-9


@pytest.mark.parametrize("fn", ["theta_big", "U", "F_a", "Y_mn"])
def test_scan_grid_rows_equal_eval(fn, tmp_path):
    # scan evaluates these four on the grid; every row must be == eval's value
    from wkit.cli import _function, _params_from_flags, build_parser, main

    out = tmp_path / "scan.csv"
    argv = ["scan", fn, "--from", "0.3", "--to", "2.5", "--points", "60", "--log",
            "--csv", str(out), "--N", "3", "--q", "0.7", "--p", "0.4", "--c", "0.3",
            "--m", "2", "--n", "-3"]
    assert main(argv) == 0
    args = build_parser().parse_args(argv)
    params = _params_from_flags(args)
    rows = [list(map(float, r.split(","))) for r in out.read_text().splitlines()[1:]]
    assert len(rows) == 60
    for x_re, x_im, f_re, f_im in rows:
        assert x_im == 0.0
        assert complex(f_re, f_im) == _function(fn, params, args)(complex(x_re))
