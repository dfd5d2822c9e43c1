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

BATCHED = ("rmatrix-properties", "theorem1-exchange", "corollary2-exchange", "qdet", "critical-poisson")


def ctx_for(N, seed):
    return SuiteContext(EllipticParams(N, 0.55, cmath.sqrt(0.6)), seed=seed)


def dicts(reports):
    out = [r.to_dict() for r in reports]
    assert all(d["wall_ms"] == 0.0 for d in out)
    return out


def wrap_wants(monkeypatch, wrap):
    """Give every check a suite adds the wants (wrap(fn), xs, *args), one
    wrapper per fn; return the list of the checks added."""
    added, wrapped, add = [], {}, suites._Checks.add

    def wrapping(self, check, redraw=None):
        check.wants = [(wrapped.setdefault(fn, wrap(fn)), *rest) for fn, *rest in check.wants]
        added.append(check)
        add(self, check, redraw)

    monkeypatch.setattr(suites._Checks, "add", wrapping)
    return added


@pytest.mark.parametrize("N", [2, 3, 4], ids=["N2-child-nome-limit", "N3", "N4"])
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_batched_suites_equal_their_replay(monkeypatch, N, seed):
    # the one pass of a suite, its wants batched, gives the reports of its
    # checks each replayed alone through run_check, in the order added, bit
    # for bit.
    # Then every batch call is made to raise: each check evaluates its
    # wants alone, so its report is run_check's bit for bit, and the body
    # still runs once.  Every suite at N = 2 and 3, the batched ones at N = 4
    ctx = ctx_for(N, seed)
    names = sorted(suites.SUITES) if N < 4 else BATCHED
    added = wrap_wants(monkeypatch, lambda fn: fn)
    for name in names:
        added.clear()
        batched = dicts(suites.SUITES[name](ctx))
        alone = dicts(map(suites.run_check, added))
        assert [r["check"] for r in batched] == [r["check"] for r in alone]
        for a, b in zip(batched, alone):
            assert a == b, f"{name}:{a['check']}"

    called, runs = set(), []

    def raising_first(fn):
        def once(xs, *args):
            if fn not in called:
                called.add(fn)
                raise PoleHit("forced")
            return fn(xs, *args)
        return once

    added = wrap_wants(monkeypatch, raising_first)
    for name in names:
        added.clear()
        called.clear()
        body = suites.SUITES[name].__wrapped__
        suite = suites._suite(lambda ctx, checks: runs.append(name) or body(ctx, checks))
        assert dicts(suite(ctx)) == dicts(map(suites.run_check, added))
        assert len(called) >= (name in BATCHED)
    assert runs == list(names)


def record_draws(monkeypatch, forced=()):
    """The points `_safe_point` draws, in order, as it draws them; the
    draws at the indices `forced` are made z = 1, a pole of Rhat (each still
    takes its draw from the generator)."""
    seen, draw = [], suites._safe_point

    def recorded(rng, *radii):
        seen.append(draw(rng, *radii))
        return 1 + 0j if len(seen) - 1 in forced else seen[-1]

    monkeypatch.setattr(suites, "_safe_point", recorded)
    return seen


def first_resampled_draw(monkeypatch, name):
    """(the number of points the body of suite `name` draws at N = 3, seed
    1, the index of the first point drawn by `_Checks.resampled`, the
    suite's reports as dicts)."""
    seen, firsts, resampled = record_draws(monkeypatch), [], suites._Checks.resampled
    monkeypatch.setattr(suites._Checks, "resampled", lambda self, *a: firsts.append(len(seen)) or resampled(self, *a))
    reports = dicts(suites.SUITES[name](ctx_for(3, 1)))
    return len(seen), firsts[0], reports


# per suite, its first resampled check and the input that names its point
FIRST_RESAMPLED = {"corollary2-exchange": ("prefactor-consistency", "z"), "rmatrix-properties": ("unitarity", "z"),
                   "critical-poisson": ("f_cr(k=1,k'=1)", "x")}


@pytest.mark.parametrize("name", sorted(FIRST_RESAMPLED))
def test_forced_pole_resamples_as_before(monkeypatch, name):
    # z = 1 on the first draw of the suite's first resampled check (the
    # unitarity z, the z of prefactor-consistency, the suite's last draw,
    # and the x of f_cr(k=1,k'=1), a pole of its U points, which makes the
    # suite's one U call raise): that check alone is drawn again, at the
    # first point drawn after the body's last draw, and passes; every other
    # report is as before, bit for bit
    body_draws, forced, before = first_resampled_draw(monkeypatch, name)
    seen = record_draws(monkeypatch, {forced})
    after = dicts(suites.SUITES[name](ctx_for(3, 1)))
    assert len(seen) == body_draws + 1 and all(r["passed"] for r in after)
    check, key = FIRST_RESAMPLED[name]
    moved = [(a["check"], b["inputs"][key]) for a, b in zip(before, after) if a != b]
    z = seen[body_draws]
    assert moved == [(check, [z.real, z.imag])]


def test_a_list_whose_checks_raise_is_made_again_once(monkeypatch):
    # x = 1 on fusion-identities' first draw, its k = 2 list: all 7 checks
    # of the list raise PoleHit, so it is made again once, at the first
    # point drawn after the body's last draw, and all 7 pass there; the
    # k = 3 list and every other report are as before, bit for bit
    body_draws, forced, before = first_resampled_draw(monkeypatch, "fusion-identities")
    seen = record_draws(monkeypatch, {forced})
    made, make = [], suites.check_fusion_identities
    monkeypatch.setattr(suites, "check_fusion_identities",
                        lambda k, fac, x, **kw: made.append((k, x)) or make(k, fac, x, **kw))
    after = dicts(suites.SUITES["fusion-identities"](ctx_for(3, 1)))
    x = seen[body_draws]
    assert made == [(2, 1), (3, seen[forced + 1]), (2, x)]
    assert len(seen) == body_draws + 1 and all(r["passed"] for r in after)
    moved = [(a["check"], b["inputs"]["k"], b["inputs"]["x"]) for a, b in zip(before, after) if a != b]
    assert moved == [(name, 2, [x.real, x.imag]) for name in (
        "chain", "chain_t0_inv", "chain_inv", "fused_rows", "fused_cols", "fused_inv_rows", "fused_inv_cols")]


def test_a_check_whose_every_draw_is_a_pole_fails_alone(monkeypatch):
    # the first unitarity check draws z = 1 on all six tries, its first
    # draw and five more after the body's last: it fails with its PoleHit,
    # and the suite's 34 other reports are as before
    body_draws, forced, before = first_resampled_draw(monkeypatch, "rmatrix-properties")
    record_draws(monkeypatch, {forced, *range(body_draws, body_draws + 5)})
    made, check_unitarity = [], suites.check_unitarity
    monkeypatch.setattr(suites, "check_unitarity", lambda z, *args: made.append(z) or check_unitarity(z, *args))
    reports = dicts(suites.SUITES["rmatrix-properties"](ctx_for(3, 1)))
    # five unitarity checks made in the body, the first at z = 1; then five
    # more tries of the first one
    assert made[0] == 1 and made[5:] == [1] * 5
    assert len(reports) == 35 and [a for a, b in zip(before, reports) if a != b] == [before[1]]
    failed = [r for r in reports if not r["passed"]]
    assert [(r["check"], r["inputs"]["z"], r["inputs"]["error"]) for r in failed] == [("unitarity", [1.0, 0.0], "PoleHit")]
    assert math.isnan(failed[0]["residual"]) and "pole" in failed[0]["inputs"]["message"]


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
