"""Report serialization and parameter-bundle invariants."""

import json
import math

import numpy as np
import pytest

from wkit import CheckReport, EllipticParams, TruncationPolicy, run_check, sort_reports
from wkit.reports import Check
from wkit.errors import ModulusOutOfRange, ZeroArgument
from wkit.params import _store
from wkit.qseries import tau_N


def test_report_pass_flag_derived():
    r = CheckReport(suite="s", check="c", identity="i", inputs={},
                    residual=1e-9, tolerance=1e-8)
    assert r.passed
    r = CheckReport(suite="s", check="c", identity="i", inputs={},
                    residual=1e-7, tolerance=1e-8)
    assert not r.passed


@pytest.mark.parametrize("observed,residual,passed", [
    (0.0, math.inf, False),       # a control that saw nothing must fail
    (math.nan, math.nan, False),  # so must one that saw nothing finite
    (5e-4, 2.0, False),           # below the threshold
    (4e-3, 0.25, True),           # above it
])
def test_control_report_encoding(observed, residual, passed):
    r = run_check(Check("s", "control-x", "i", {"N": 2}, lambda: observed, threshold=1e-3))
    assert r.passed is passed
    assert r.tolerance == 1.0
    assert r.residual == residual or (math.isnan(residual) and math.isnan(r.residual))
    assert list(r.inputs) == ["N", "observed_violation", "threshold"]
    assert r.inputs["threshold"] == 1e-3 and r.inputs["observed_violation"] is observed


def test_report_json_round_trip():
    r = CheckReport(suite="s", check="c", identity="i",
                    inputs={"z": 1.2 + 0.3j, "nested": {"w": [1j, 2]}},
                    residual=0.5, tolerance=1.0, wall_ms=3.25)
    d = r.to_dict()
    # complex values serialize as [re, im]; the canonical form is stable
    assert d["inputs"]["z"] == [1.2, 0.3]
    again = json.loads(json.dumps(d))
    assert again == d
    assert again["passed"] is r.passed


def test_run_check_reports_are_deterministic():
    # no timing rides on a report: two runs of one check give equal dicts
    from wkit.rmatrix import RMatrixFactory
    from wkit.suites import check_crossing

    check = check_crossing(1.1 + 0.2j, RMatrixFactory(EllipticParams(3, 0.5, 0.6 ** 0.5)))
    first, second = run_check(check).to_dict(), run_check(check).to_dict()
    assert first == second and first["wall_ms"] == 0.0 and first["passed"]


def test_sort_reports_canonical():
    a = CheckReport("b", "x", "i", {"p": 2}, 0, 1)
    b = CheckReport("a", "y", "i", {"p": 1}, 0, 1)
    c = CheckReport("a", "x", "i", {"p": 1}, 0, 1)
    assert [r.suite + r.check for r in sort_reports([a, b, c])] == ["ax", "ay", "bx"]


def test_sort_reports_ignores_computed_inputs():
    # critical-poisson lists its sampled x before the derivative it
    # computes; where f_cr = 0 that derivative is rounding noise, and moving
    # it by 1e-12 must not swap two reports in the canonical order
    import cmath

    import numpy as np

    from wkit.suites import SuiteContext, suite_critical_poisson

    reports = suite_critical_poisson(SuiteContext(params=EllipticParams(2, 0.55, cmath.sqrt(0.3))))
    order = [id(r) for r in sort_reports(reports)]
    rng = np.random.default_rng(5)
    f_cr = [r for r in reports if r.check.startswith("f_cr(")]
    assert len(f_cr) > len({r.check for r in f_cr})  # some checks at several points
    for r in f_cr:
        assert list(r.inputs)[:7] == ["N", "q", "k", "kprime", "x", "step", "derivative"]
        r.inputs["derivative"] += 1e-12 * complex(*rng.normal(size=2))
    assert [id(r) for r in sort_reports(reports)] == order
    a = CheckReport("s", "c", "i", {"x": 1.0, "derivative": 2e-12}, 0, 1)
    b = CheckReport("s", "c", "i", {"x": 2.0, "derivative": 1e-12}, 0, 1)
    assert sort_reports([b, a]) == [a, b]


def test_elliptic_params_derived_exact():
    pr = EllipticParams(N=3, q=0.5, s=0.7, c=0.25)
    assert abs(pr.p - 0.49) < 1e-15
    assert abs(pr.s_star - 0.7 * 0.5 ** -0.25) < 1e-15
    assert abs(pr.s_star**2 - pr.p * 0.5 ** (-2 * 0.25)) < 1e-15
    assert abs(pr.zeta - 1j * math.log(2) / math.pi) < 1e-15  # q = e^{i pi zeta}
    assert not hasattr(pr, "omega")  # the R-matrix's omega is ZnMatrices.omega


def test_elliptic_params_validation():
    with pytest.raises(ValueError):
        EllipticParams(N=1, q=0.5, s=0.5)
    with pytest.raises(ValueError):
        EllipticParams(N=2, q=1.1, s=0.5)
    with pytest.raises(ValueError):
        EllipticParams(N=2, q=0.5, s=0.0)
    with pytest.raises(ValueError):
        EllipticParams(N=2, q=1 - 1e-9, s=0.5)  # q^(2N) too close to 1
    for c in (2000, -2000, 600):  # s* = s q^(-c) overflows, is 0, or is finite with s*^2 overflowing
        with pytest.raises(ValueError, match="must be finite and nonzero"):
            EllipticParams(N=2, q=0.55, s=0.5, c=c)


def test_truncation_policy_validation():
    with pytest.raises(ValueError):
        TruncationPolicy(tail_eps=1e-6)
    with pytest.raises(ValueError):
        TruncationPolicy(max_terms=10)


def test_require_elliptic_gate():
    pr = EllipticParams(N=2, q=0.5, s=2.0)  # |p| = 4
    with pytest.raises(ModulusOutOfRange):
        pr.require_elliptic()


def test_store_freezes_what_it_keeps_and_empties_a_full_cache():
    # every process-wide cache shares what it keeps, so each array of a kept
    # value is read-only, however deep; a cache at its bound is emptied
    # before the next entry goes in
    cache = {}
    kept = _store(cache, "a", (np.zeros(2), [np.ones(3), (np.arange(4), 1.5)]), limit=2)
    for a in (kept[0], kept[1][0], kept[1][1][0]):
        assert not a.flags.writeable
        with pytest.raises(ValueError):
            a[0] = 7
    assert cache["a"] is kept and _store(cache, "b", 2.5, limit=2) == 2.5
    assert set(cache) == {"a", "b"}
    _store(cache, "c", 3.5, limit=2)
    assert cache == {"c": 3.5}


def test_scalar_error_paths():
    pr = EllipticParams(N=2, q=0.5, s=0.5)
    with pytest.raises(ZeroArgument):
        tau_N(0.0, pr)


def test_report_dicts_are_the_sorted_reports_converted_once(monkeypatch):
    # `wkit check` writes report_dicts: the dicts of sort_reports' order, each
    # report's inputs made JSON-ready once
    import cmath

    import wkit.reports as reports
    from wkit.suites import SuiteContext, suite_critical_poisson

    got = suite_critical_poisson(SuiteContext(params=EllipticParams(2, 0.55, cmath.sqrt(0.3))))[::-1]
    want = [r.to_dict() for r in sort_reports(got)]
    converted, jsonable = [], reports._jsonable
    monkeypatch.setattr(reports, "_jsonable", lambda obj: converted.append(id(obj)) or jsonable(obj))
    assert reports.report_dicts(got) == want
    inputs = {id(r.inputs) for r in got}  # the calls on nested values are not counted
    assert sorted(i for i in converted if i in inputs) == sorted(inputs)
