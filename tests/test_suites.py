"""The one check runner: suites that draw every point, build once per
factory, then check, and a check that raises fails alone."""

import cmath
import json
import math

import pytest

import wkit.suites as suites
from wkit.cli import main
from wkit.errors import PoleHit
from wkit.params import EllipticParams
from wkit.suites import SuiteContext

BATCHED = ("rmatrix-properties", "theorem1-exchange", "corollary2-exchange", "qdet")


def ctx_for(N, seed):
    return SuiteContext(EllipticParams(N, 0.55, cmath.sqrt(0.6)), seed=seed)


def assert_close(a, b, where):
    """Equal structure; floats within 1e-12 relative to 1 + |value|."""
    if isinstance(a, dict):
        assert a.keys() == b.keys(), where
        for k in a:
            assert_close(a[k], b[k], f"{where}/{k}")
    elif isinstance(a, (list, tuple)):
        assert len(a) == len(b), where
        for i, (u, v) in enumerate(zip(a, b)):
            assert_close(u, v, f"{where}[{i}]")
    elif isinstance(a, float) and not isinstance(a, bool):
        assert (math.isnan(a) and math.isnan(b)) or abs(a - b) <= 1e-12 * (1 + abs(a)), (where, a, b)
    else:
        assert a == b, (where, a, b)


def dicts(reports):
    out = [r.to_dict() for r in reports]
    assert all(d["wall_ms"] == 0.0 for d in out)
    return out


@pytest.mark.parametrize("N", [2, 3, 4], ids=["N2-child-nome-limit", "N3", "N4"])
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_batched_suites_equal_their_replay(monkeypatch, N, seed):
    # the replay runs every check when it is added, as the checks run one
    # by one; a batched pass must give the same reports, in the same order.
    # Every suite at N = 2 and 3, the batched ones at N = 4; a passing run
    # is one pass
    ctx = ctx_for(N, seed)
    names = sorted(suites.SUITES) if N < 4 else BATCHED
    passes, reports = [], suites._Checks.reports

    def counted(self):
        passes.append(self.batched)
        return reports(self)

    monkeypatch.setattr(suites._Checks, "reports", counted)
    batched = {name: dicts(suites.SUITES[name](ctx)) for name in names}
    assert passes == [True] * len(names)

    def raising(self):
        if self.batched:
            raise PoleHit("forced")
        return reports(self)

    monkeypatch.setattr(suites._Checks, "reports", raising)
    for name in names:
        replayed = dicts(suites.SUITES[name](ctx))
        assert [(r["check"], r["passed"]) for r in replayed] == \
            [(r["check"], r["passed"]) for r in batched[name]]
        for a, b in zip(batched[name], replayed):
            assert_close(a, b, f"{name}:{a['check']}")
            assert a["inputs"].get("prefactor") == b["inputs"].get("prefactor")


# The points each suite drew before the suites were batched, at N = 3,
# seed 1, with the first draw of every fresh generator forced to z = 1: the
# unitarity z of rmatrix-properties (its first draw resampled) and the z
# of every corollary2-exchange report (its first tt check at z = 1)
FORCED_Z = {
    "rmatrix-properties": [
        (0.8642758329902103, -0.3558739351756723), (0.7871230413249768, 0.29602178768714577),
        (0.7553448642221007, 0.759923376455523), (0.7515725876010869, -0.5898843261549842),
        (0.6738520073145932, 0.47897088417933625)],
    "corollary2-exchange": [
        (1.0, 0.0), (0.7235546596175223, 0.6925174128838518),
        (0.7816495690716507, 0.2568594329953305), (0.3803365926844683, -0.6725462379997429),
        (1.0305472518427583, -0.919993704752032), (1.0292534107783577, 0.9102920793242654),
        (0.8328747503839967, -0.6062004308349133), (0.963055323479907, 0.9894324796889592),
        (0.4441135164933527, -0.8333455696068783), (0.4023570571129091, 0.7285858925485954),
        (0.2179038141186479, -0.7490617635519718), (0.6590645274501058, -0.3674868884194901),
        (0.5306283439805425, -0.6244731341023388)],
}


def force_poles(monkeypatch, draws):
    """Make the first `draws` points of every fresh generator z = 1, a pole
    of Rhat; each still takes its draw from the generator."""
    draw, seen = suites._safe_point, []  # a generator per draw, kept alive so none shares an id

    def first_draws_one(rng, *radii):
        z = draw(rng, *radii)
        seen.append(rng)
        return 1 + 0j if sum(r is rng for r in seen) <= draws else z

    monkeypatch.setattr(suites, "_safe_point", first_draws_one)


@pytest.mark.parametrize("name", sorted(FORCED_Z))
def test_forced_pole_resamples_as_before(monkeypatch, name):
    # z = 1 is a pole of Rhat: the batch that holds it raises, and the
    # replay from a fresh generator resamples the check that drew it
    force_poles(monkeypatch, 1)
    reports = suites.SUITES[name](ctx_for(3, 1))
    assert all(r.passed for r in reports) and "suite-error" not in {r.check for r in reports}
    got = [r.inputs["z"] for r in reports if r.check == "unitarity" or name == "corollary2-exchange"]
    assert [(z.real, z.imag) for z in got] == FORCED_Z[name]


def test_a_check_whose_every_draw_is_a_pole_fails_alone(monkeypatch):
    # the first unitarity check of the replay draws z = 1 on all six tries:
    # it fails with its PoleHit, and the suite's 34 other reports pass
    force_poles(monkeypatch, 6)
    made, check_unitarity = [], suites.check_unitarity
    monkeypatch.setattr(suites, "check_unitarity", lambda z, *args: made.append(z) or check_unitarity(z, *args))
    reports = suites.SUITES["rmatrix-properties"](ctx_for(3, 1))
    # five unitarity checks made in the batched pass, the first at z = 1;
    # then the replay tries the first one six times
    assert made[0] == 1 and made[5:11] == [1] * 6 and made.count(1) == 7
    assert len(reports) == 35 and "suite-error" not in {r.check for r in reports}
    failed = [r for r in reports if not r.passed]
    assert [(r.check, r.inputs["z"], r.inputs["error"]) for r in failed] == [("unitarity", 1, "PoleHit")]
    assert math.isnan(failed[0].residual) and "pole" in failed[0].inputs["message"]


def test_a_raising_check_fails_alone(monkeypatch):
    # Y_FF raises: Y-unitary-inversion fails, naming the error, the other
    # five theta-identities reports pass, and the suite runs once
    def raising(*args):
        raise ArithmeticError("forced")

    passes, reports = [], suites._Checks.reports
    monkeypatch.setattr(suites._Checks, "reports", lambda self: passes.append(1) or reports(self))
    monkeypatch.setattr(suites, "Y_FF", raising)
    out = suites.SUITES["theta-identities"](ctx_for(3, 1))
    assert len(out) == 6 and len(passes) == 1
    assert [r.check for r in out if not r.passed] == ["Y-unitary-inversion"]
    failed = out[-1]
    assert failed.inputs == {"N": 3, "q": 0.55, "c": 0.25, "error": "ArithmeticError", "message": "forced"}
    assert math.isnan(failed.residual)


def test_refused_fusion_checks_fail_alone(monkeypatch):
    # a guard of 32 at N = 3 refuses the k = 3 fused residuals, the (2,2)
    # block of M_derivative and of fused-crossing-unitarity, and admits the
    # chains and the other blocks: every report of the unguarded run is
    # there, the refused ones fail with DimensionGuardExceeded and the
    # others are unchanged
    monkeypatch.delenv("WKIT_MAX_DIM", raising=False)
    free = dicts(suites.SUITES["fusion-identities"](ctx_for(3, 1)))
    monkeypatch.setenv("WKIT_MAX_DIM", "32")
    guarded = dicts(suites.SUITES["fusion-identities"](ctx_for(3, 1)))
    assert len(free) == 23 and all(r["passed"] for r in free)
    assert [r["check"] for r in guarded] == [r["check"] for r in free]
    refused = {(r["check"], r["inputs"].get("k")) for r in guarded if not r["passed"]}
    assert refused == {("fused_rows", 3), ("fused_cols", 3), ("fused_inv_rows", 3), ("fused_inv_cols", 3),
                       ("fused-crossing-unitarity(k=2,k'=2)", 2), ("M_derivative(k=2,k'=2)", 2)}
    for a, b in zip(free, guarded):
        if b["passed"]:
            assert a == b
        else:
            assert b["inputs"]["error"] == "DimensionGuardExceeded" and "exceeds guard 32^2" in b["inputs"]["message"]
            assert math.isnan(b["residual"])


def test_abelianity_pole_fails_its_branches_only(tmp_path):
    # 801 log points over [0.5, 2] hold x = 1, a pole of U: each branch that
    # meets a pole fails on its own, naming the PoleHit, and the control
    # (on the first 50 points) still reports and passes
    cfg = {"params": {"N": 2, "q": 0.8}, "suites": ["abelianity"],
           "grid": {"from": 0.5, "to": 2.0, "points": 801, "log": True}}
    path, out = tmp_path / "cfg.json", tmp_path / "report.json"
    path.write_text(json.dumps(cfg))
    assert main(["check", "--config", str(path), "--out", str(out)]) == 1
    reports = {r["check"]: r for r in json.loads(out.read_text())}
    assert "suite-error" not in reports and len(reports) == 5
    assert reports["control-perturbed"]["passed"]
    failed = [r for r in reports.values() if not r["passed"]]
    assert failed
    for r in failed:
        assert r["inputs"]["error"] == "PoleHit" and "pole at z" in r["inputs"]["message"]
        assert math.isnan(r["residual"])
