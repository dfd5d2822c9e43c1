"""CLI contract: schema validation, exit codes, determinism, output formats."""

import cmath
import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

BASE = [sys.executable, "-m", "wkit"]


def run_cli(*args):
    return subprocess.run(BASE + list(args), capture_output=True, text=True)


@pytest.fixture
def small_config(tmp_path):
    cfg = {
        "params": {"N": 2, "q": 0.55, "p": 0.3},
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
    {"suites": []},  # no check at all would pass vacuously
    {"params": {"N": 2}, "suites": ["n0", "theta-identities", "n0"]},  # n0 reported twice
    {"params": {"N": 2}, "suites": ["n0"], "tolerances": {"n0": -1e-12}},  # every check fails
    {"params": {"N": 2, "c": 2000}},  # c is no config key: every suite fixes its own central charge
    {"params": {"N": 2, "c": -2000}},
    {"params": {"N": 2, "c": 0}},
])
def test_check_exit_2_on_schema_violations(tmp_path, bad):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(bad))
    res = run_cli("check", "--config", str(path))
    assert res.returncode == 2 and res.stderr.startswith("config error: "), res.stderr
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



def test_check_opens_its_output_once_before_any_suite(small_config, tmp_path, monkeypatch):
    # the report file is opened, and so emptied, once the config parses and
    # before the first suite runs, and written when the last one ends
    from wkit import cli
    out = tmp_path / "r.json"
    out.write_text("stale")
    opened, seen = [], []

    def counting_open(file, *args, **kwargs):
        opened.append(str(file))
        return open(file, *args, **kwargs)

    monkeypatch.setattr(cli, "open", counting_open, raising=False)
    for name in list(cli.SUITES):
        suite = cli.SUITES[name]
        monkeypatch.setitem(cli.SUITES, name, lambda ctx, suite=suite: seen.append(out.read_text()) or suite(ctx))
    assert cli.main(["check", "--config", str(small_config), "--out", str(out)]) == 0
    assert opened == [str(small_config), str(out)]
    assert seen == ["", "", ""]  # emptied before the first suite, written after the last
    assert len(json.loads(out.read_text())) > 0


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
def test_check_exit_2_when_the_report_cannot_be_written(small_config):
    # /dev/full opens but refuses every write: the suites run, and the write
    # of their report fails with exit 2 and one line on stderr
    res = run_cli("check", "--config", str(small_config), "--out", "/dev/full")
    assert res.returncode == 2 and res.stdout == ""
    assert res.stderr.startswith("output error: ") and len(res.stderr.splitlines()) == 1

@pytest.fixture
def cli():
    """wkit.cli with its OpenBLAS lookup emptied before and after the test."""
    from wkit import cli

    cli._openblas_threads.cache_clear()
    yield cli
    cli._openblas_threads.cache_clear()


def write_config(tmp_path, cfg):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    return str(path)


def test_check_runs_its_suites_on_one_blas_thread_and_restores_the_count(cli, tmp_path, monkeypatch):
    # the count is 1 inside the suite loop and back to what it was after a
    # run that passes, one with failing reports, one with a suite-error and
    # one whose programming error propagates
    from wkit.reports import CheckReport

    fns = cli._openblas_threads()
    if fns is None:
        pytest.skip("numpy bundles no OpenBLAS with a thread-count symbol here")
    get, set_ = fns
    outcomes = {
        "passes": (0, lambda: [CheckReport("s", "c", "i", {}, 0.0, 1.0)]),
        "fails": (1, lambda: [CheckReport("s", "c", "i", {}, 2.0, 1.0)]),
        "suite-error": (1, lambda: np.linalg.inv(np.zeros((2, 2)))),
        "programming-error": (KeyError, lambda: {}["missing"]),
    }
    original = get()
    try:
        set_(2)
        before = get()
        for name, (want, body) in outcomes.items():
            seen = []
            monkeypatch.setitem(cli.SUITES, "n0", lambda ctx, body=body: seen.append(get()) or body())
            argv = ["check", "--config", write_config(tmp_path, {"suites": ["n0"]}),
                    "--out", str(tmp_path / "r.json")]
            if isinstance(want, int):
                assert cli.main(argv) == want, name
            else:
                with pytest.raises(want):
                    cli.main(argv)
            assert seen == [1] and get() == before, name
    finally:
        set_(original)


@pytest.mark.parametrize("lookup", ["no-library", "load-raises", "no-symbols"])
def test_check_without_openblas_keeps_its_exit_contract(cli, lookup, tmp_path, monkeypatch):
    # a lookup that finds no library, a library that cannot be loaded and
    # one without the thread-count symbols each leave the count alone
    import types

    if lookup == "no-library":
        monkeypatch.setattr(cli, "_openblas_paths", lambda: [])
    else:
        def cdll(path):
            if lookup == "load-raises":
                raise OSError(f"cannot load {path}")
            return types.SimpleNamespace()

        monkeypatch.setattr(cli, "_openblas_paths", lambda: ["libopenblas.so"])
        monkeypatch.setattr(cli.ctypes, "CDLL", cdll)
    assert cli._openblas_threads() is None
    theta = {"params": {"N": 2, "q": 0.55, "p": 0.3}, "suites": ["theta-identities"], "seed": 3}
    for cfg, rc in ((theta, 0), (dict(theta, tolerances={"theta-identities": 1e-30}), 1),
                    ({"suites": []}, 2)):
        assert cli.main(["check", "--config", write_config(tmp_path, cfg),
                         "--out", str(tmp_path / "r.json")]) == rc


def test_only_check_sets_the_blas_count_and_overlapping_runs_restore_it_once(cli, tmp_path, monkeypatch):
    calls, count = [], [4]

    def set_(n):
        calls.append(n)
        count[0] = n

    monkeypatch.setattr(cli, "_openblas_threads", lambda: (lambda: count[0], set_))
    assert cli.main(["eval", "U", "--at", "1.3", "--N", "2"]) == 0
    assert cli.main(["scan", "U", "--from", "0.5", "--to", "2.0", "--points", "5",
                     "--N", "2", "--csv", str(tmp_path / "scan.csv")]) == 0
    assert calls == []
    with cli._ONE_BLAS_THREAD:
        with cli._ONE_BLAS_THREAD:
            assert count == [1]
        assert count == [1]
    assert calls == [1, 4] and count == [4]
    # a suite run inside another's block leaves the count to the outer one
    cfg = write_config(tmp_path, {"params": {"N": 2}, "suites": ["n0"]})
    with cli._ONE_BLAS_THREAD:
        assert cli.main(["check", "--config", cfg, "--out", str(tmp_path / "r.json")]) == 0
        assert count == [1]
    assert calls == [1, 4, 1, 4]


@pytest.mark.parametrize("cfg", [{"params": {"N": 3}},
                                 {"params": {"N": 4}, "suites": ["fusion-identities"]}])
def test_check_output_does_not_depend_on_finding_openblas(cli, cfg, tmp_path, monkeypatch):
    path = write_config(tmp_path, cfg)
    assert cli.main(["check", "--config", path, "--out", str(tmp_path / "found.json")]) == 0
    monkeypatch.setattr(cli, "_openblas_paths", lambda: [])
    cli._openblas_threads.cache_clear()
    assert cli.main(["check", "--config", path, "--out", str(tmp_path / "none.json")]) == 0
    assert (tmp_path / "found.json").read_bytes() == (tmp_path / "none.json").read_bytes()


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


@pytest.mark.parametrize("fn", ["f_cr_series", "f_cr_modes"])
@pytest.mark.parametrize("flag,level", [("--k", "0"), ("--k", "3"), ("--kprime", "-2")])
def test_fusion_level_outside_1_to_N_exits_2(cli, fn, flag, level, capsys):
    # N = 2 has the fusion levels 1 and 2 only; eval and scan write nothing
    for argv in (["eval", fn, "--at", "1.1"], ["scan", fn, "--from", "0.9", "--to", "1.1", "--points", "3"]):
        assert cli.main(argv + ["--N", "2", flag, level]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: need 1 <= k, k' <= N, got ") and len(err.splitlines()) == 1


@pytest.mark.parametrize("points", ["0", "-3"])
def test_scan_exit_2_on_fewer_than_one_point(cli, points, capsys):
    argv = ["scan", "U", "--from", "0.5", "--to", "2.0", "--points", points]
    assert cli.main(argv) == 2
    out, err = capsys.readouterr()
    assert out == "" and err == f"error: --points must be >= 1, got {points}\n"


def test_eval_bad_function_exits_2():
    res = run_cli("eval", "nope", "--at", "1")
    assert res.returncode == 2


def test_eval_non_finite_parameter_exits_2():
    res = run_cli("eval", "U", "--at", "1.1", "--q", "nan")
    assert res.returncode == 2 and res.stdout == ""
    assert "q must be finite" in res.stderr


@pytest.mark.parametrize("c, code, head", [
    ("2000", 2, "error: s* = s q^(-c) and s*^2 must be finite and nonzero"),  # s* overflows
    ("-2000", 2, "error: s* = s q^(-c) and s*^2 must be finite and nonzero"),  # s* = 0
    ("-600", 1, "evaluation failed: OverflowError: "),  # Y_FF's cmath.exp overflows
])
def test_eval_and_scan_at_extreme_central_charges(c, code, head):
    for args in (["eval", "Y_FF", "--at", "1.1"], ["scan", "Y_FF", "--from", "0.9", "--to", "1.1", "--points", "3"]):
        res = run_cli(*args, "--c", c)
        assert res.returncode == code and res.stdout == "" and res.stderr.startswith(head), res.stderr


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


SCAN_FUNCTIONS = ["theta_big", "tau_N", "U", "F_a", "Y_mn", "Y_FF", "I", "f_cr_series", "f_cr_modes"]
SCAN_FLAGS = ["--N", "3", "--q", "0.7", "--p", "0.4", "--c", "0.3", "--m", "2", "--n", "-3",
              "--k", "1", "--kprime", "2"]


def per_point_scan(argv) -> str:
    """What `wkit scan argv` wrote as one call per point: its CSV, or its
    error line once a point fails."""
    from wkit.cli import _function, _params_from_flags, build_parser
    from wkit.errors import WkitError

    args = build_parser().parse_args(argv)
    f = _function(args.fn, _params_from_flags(args), args)
    xs = [complex(x) for x in (np.geomspace if args.log else np.linspace)(args.start, args.stop, args.points)]
    try:
        vals = [f(x) for x in xs]
    except WkitError as exc:
        return f"evaluation failed: {type(exc).__name__}: {exc}\n"
    return "".join(f"{x.real:.17g},{x.imag:.17g},{v.real:.17g},{v.imag:.17g}\n"
                   for x, v in zip(xs, vals))


@pytest.mark.parametrize("fn", SCAN_FUNCTIONS)
@pytest.mark.parametrize("grid", [["--from", "0.75", "--to", "1.35", "--points", "25", "--log"],
                                  ["--from", "0.75", "--to", "2.0", "--points", "25"],
                                  ["--from", "0.25", "--to", repr(0.7**3), "--points", "7"]])
def test_scan_is_one_array_call_equal_to_per_point_calls(fn, grid, tmp_path, monkeypatch, capsys):
    # the grid is one call of the formula on an array; its CSV bytes are those
    # of one call per point, and a failure names the first failing point as
    # they do: f_cr_modes leaves its annulus (0.7, 1/0.7) on the second grid
    # and starts outside it on the third, whose last point is a pole of I,
    # U, F_a, Y_mn and Y_FF
    from wkit import cli

    argv = ["scan", fn, *grid, *SCAN_FLAGS, "--csv", str(tmp_path / "scan.csv")]
    want = per_point_scan(argv)
    shapes = []
    function = cli._function

    def counted(*args):
        f = function(*args)
        return lambda x: shapes.append(np.shape(x)) or f(x)

    monkeypatch.setattr(cli, "_function", counted)
    rc = cli.main(argv)
    assert shapes == [(int(grid[grid.index("--points") + 1]),)]
    pole = repr(0.7**3)  # x^2 = q^(2N), and a pole of U
    failing = {("U", pole), ("F_a", pole), ("Y_mn", pole), ("Y_FF", pole), ("I", pole),
               ("f_cr_modes", "2.0"), ("f_cr_modes", pole)}
    assert want.startswith("evaluation failed") == ((fn, grid[3]) in failing)
    if want.startswith("evaluation failed"):
        assert rc == 1 and capsys.readouterr().err == want
    else:
        assert rc == 0
        assert (tmp_path / "scan.csv").read_bytes() == ("x_re,x_im,f_re,f_im\n" + want).encode()
