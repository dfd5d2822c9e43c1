"""wkit benchmark: `wkit check` over named suites, one client, closed loop.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a wkit checkout; it imports wkit from ./src.  The
seed only derives the configs' `seed` values; wkit sees nothing but the
generated configs.  Each workload run is a fresh child process
(perfbench/child.py) that imports wkit and calls `wkit.cli.main` once per
(config seed, suite).  With --trace 0 the run starts a few set-up probes,
then a fixed number of workload runs, about S seconds' worth at the
workload's nominal run time (at least two, whose outputs must be
byte-identical), and reports medians of the end-to-end metrics.  With
--trace 1 it makes one untraced and one traced workload run on the same
configs and reports the per-layer metrics.

Every report is parsed and checked again here (finite residual <= tolerance,
agreeing with `passed` and with the exit code); any mismatch makes the
result incorrect and the exit code 1.  The last line of stdout is the JSON
result; the run's files go to .perfbench_out/ in the checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import random
import shutil
import signal
import statistics
import sys
import time
from dataclasses import dataclass, field

HERE = os.path.dirname(os.path.abspath(__file__))
CHILD = os.path.join(HERE, "child.py")
sys.path.insert(0, HERE)
from tracer import SUITE_NAMES  # noqa: E402

BUDGET_S = 170.0     # hard limit for one benchmark run, children included
MIN_RUNS = 2         # workload runs per measurement: byte-identity needs two
PROBES = 8           # extra set-up-only children per run, for the setup_s median
RESIDUAL_FLOOR = 2.2e-16


@dataclass(frozen=True)
class Workload:
    params: dict
    suites: dict                  # suite -> number of config seeds it runs with
    run_s: float                  # nominal seconds of one workload run; sets the run count
    grid: dict | None = None
    tiny: dict = field(default_factory=dict)  # overrides for the smoke test


# Why each workload exists is in perfbench/README.md and BENCHMARK.json.
WORKLOADS = {
    # q-series does ~95% of the work: abelianity over a dense single-modulus
    # grid (seed-independent, so one seed), plus theta-identities at
    # scattered points.  critical-poisson raises TruncationBudgetExceeded
    # on about half of all seeds at q = 0.8, losing that call's 14 reports;
    # it runs on few seeds among many theta-identities reports so that
    # checks_total stays steady from seed to seed while the failure shows.
    "scalar-grid": Workload(
        params={"N": 3, "q": 0.8},
        suites={"abelianity": 1, "theta-identities": 80, "critical-poisson": 3},
        grid={"from": 0.5, "to": 2.0, "points": 800, "log": True},
        run_s=12.0,
        tiny={"suites": {"abelianity": 1, "theta-identities": 2, "critical-poisson": 2},
              "grid": {"from": 0.5, "to": 2.0, "points": 24, "log": True}},
    ),
    # q-series at scattered points with two moduli (rhat_matrix_xi, kappa_inv)
    # and ~1,000 small tensor products bound by per-call overhead.
    "generator-n3": Workload(
        params={"N": 3, "p": 0.6},
        suites={s: 8 for s in ("rmatrix-properties", "theorem1-exchange",
                               "corollary2-exchange", "qdet", "n0")},
        run_s=4.5,
        tiny={"suites": {s: 1 for s in ("rmatrix-properties", "theorem1-exchange",
                                        "corollary2-exchange", "qdet", "n0")}},
    ),
    # the tensor layer: 4096-dim operators in fusion, build_Q/build_t products
    # in the generator suites; memory- and bandwidth-bound.
    "dense-n4": Workload(
        params={"N": 4},
        suites={s: 1 for s in ("fusion-identities", "theorem1-exchange",
                               "corollary2-exchange", "qdet")},
        run_s=18.0,
        tiny={"params": {"N": 3}},
    ),
}


class BenchError(Exception):
    """The benchmark cannot produce a result (not a wkit check failure)."""


# -- inputs -------------------------------------------------------------------

def make_calls(name: str, wl: Workload, seed: int, tiny: bool, outdir: str) -> list[dict]:
    """Write one config per (config seed, suite); return the call list."""
    params = wl.tiny.get("params", wl.params) if tiny else wl.params
    suites = wl.tiny.get("suites", wl.suites) if tiny else wl.suites
    grid = wl.tiny.get("grid", wl.grid) if tiny else wl.grid
    rng = random.Random(f"{name}:{seed}")
    config_seeds = [rng.randrange(2**31) for _ in range(max(suites.values()))]
    calls = []
    for i, cseed in enumerate(config_seeds):
        for suite, n in suites.items():
            if i >= n:
                continue
            cfg = {"params": params, "suites": [suite], "seed": cseed}
            if grid is not None:
                cfg["grid"] = grid
            path = os.path.join(outdir, f"config-{cseed}-{suite}.json")
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(cfg, fh, sort_keys=True)
            calls.append({"config": path, "suite": suite, "seed": cseed,
                          "name": f"{cseed}-{suite}"})
    return calls


# -- children -----------------------------------------------------------------

@dataclass
class Child:
    tag: str
    ok: bool = False
    why: str = ""
    result: dict = field(default_factory=dict)
    maxrss_mb: float = 0.0
    outs: list = field(default_factory=list)


def run_child(tag: str, outdir: str, calls: list, deadline: float,
              probe: bool = False, trace: bool = False) -> Child:
    cdir = os.path.join(outdir, tag)
    os.makedirs(cdir, exist_ok=True)
    child = Child(tag=tag)
    child.outs = [os.path.join(cdir, c["name"] + ".json") for c in calls]
    spec = {
        "src": os.path.abspath("src"),
        "probe": probe,
        "trace": trace,
        "calls": [{"config": c["config"], "out": o} for c, o in zip(calls, child.outs)],
        "result": os.path.join(cdir, "result.json"),
        "spans": os.path.join(cdir, "spans.json"),
    }
    spec_path = os.path.join(cdir, "spec.json")
    with open(spec_path, "w", encoding="utf-8") as fh:
        json.dump(spec, fh)
    log = os.path.join(cdir, "log.txt")
    actions = [
        (os.POSIX_SPAWN_OPEN, 0, os.devnull, os.O_RDONLY, 0),
        (os.POSIX_SPAWN_OPEN, 1, log, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644),
        (os.POSIX_SPAWN_DUP2, 1, 2),
    ]
    t0 = time.monotonic()
    pid = os.posix_spawn(sys.executable, [sys.executable, CHILD, spec_path, repr(t0)],
                         os.environ, file_actions=actions)
    reaped = False
    try:
        while True:
            wpid, status, rusage = os.wait4(pid, os.WNOHANG)
            if wpid:
                reaped = True
                break
            if time.monotonic() > deadline:
                os.kill(pid, signal.SIGKILL)
                _, status, rusage = os.wait4(pid, 0)
                reaped = True
                child.why = "killed at the run's time limit"
                break
            time.sleep(0.02)
    finally:
        if not reaped:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
    child.maxrss_mb = rusage.ru_maxrss / 1024.0
    code = os.waitstatus_to_exitcode(status)
    if code != 0:
        with open(log, encoding="utf-8", errors="replace") as fh:
            tail = fh.read()[-2000:]
        child.why = child.why or (f"killed by signal {-code}" if code < 0 else f"exit {code}")
        print(f"[{tag}] child died ({child.why}); log tail:\n{tail}", file=sys.stderr)
        return child
    with open(spec["result"], encoding="utf-8") as fh:
        child.result = json.load(fh)
    child.ok = True
    return child


# -- output checks ------------------------------------------------------------

_REPORT_KEYS = {"suite", "check", "identity", "inputs", "residual", "tolerance",
                "wall_ms", "passed"}


@dataclass
class Outcome:
    """What one completed workload run emitted, re-derived from its JSON."""
    reports: int = 0
    failed_reports: int = 0
    raised: dict = field(default_factory=dict)   # exception type -> count
    headroom: dict = field(default_factory=dict)  # (suite, check) -> [decades]
    worst_ratio: dict = field(default_factory=dict)
    digests: list = field(default_factory=list)
    errors: list = field(default_factory=list)

    @property
    def n_raised(self) -> int:
        return sum(self.raised.values())

    @property
    def min_headroom(self) -> float:
        """Smallest, over checks, of a check's first-quartile headroom in decades.

        A check is one identity of one suite, whatever its parameters.  The
        first quartile over its samples (parameters, points and seeds; the
        minimum below four) sees an accuracy loss on a quarter of them, while
        one ill-conditioned random point cannot set the value.
        """
        return min((sorted(v)[len(v) // 4] for v in self.headroom.values()), default=math.nan)

    @property
    def failed_frac(self) -> float:
        return (self.failed_reports + self.n_raised) / max(1, self.reports + self.n_raised)


def check_outputs(child: Child, calls: list) -> Outcome:
    out = Outcome(worst_ratio={s: 0.0 for s in SUITE_NAMES})
    for call, path, entry in zip(calls, child.outs, child.result["calls"]):
        where = f"{child.tag}/{call['name']}"
        if "raised" in entry:
            out.raised[entry["raised"]] = out.raised.get(entry["raised"], 0) + 1
            out.digests.append("raised:" + entry["raised"])
            continue
        rc = entry["rc"]
        try:
            with open(path, "rb") as fh:
                raw = fh.read()
            reports = json.loads(raw)
        except (OSError, ValueError) as exc:
            out.errors.append(f"{where}: unreadable output ({exc})")
            out.digests.append("missing")
            continue
        out.digests.append(hashlib.sha256(raw).hexdigest())
        if not isinstance(reports, list) or not reports:
            out.errors.append(f"{where}: output is not a non-empty JSON array")
            continue
        all_ok = True
        for r in reports:
            if not isinstance(r, dict) or set(r) != _REPORT_KEYS:
                out.errors.append(f"{where}: malformed report {str(r)[:120]}")
                all_ok = False
                continue
            res, tol = r["residual"], r["tolerance"]
            if r["suite"] != call["suite"] or r["wall_ms"] != 0.0:
                out.errors.append(f"{where}: report {r['check']} breaks the output contract")
            finite = isinstance(res, (int, float)) and math.isfinite(res)
            ok = finite and res <= tol
            if ok != r["passed"]:
                out.errors.append(f"{where}: {r['check']} passed={r['passed']} but "
                                  f"residual {res!r} vs tolerance {tol!r}")
            out.reports += 1
            out.failed_reports += not ok
            all_ok = all_ok and ok
            if finite and not r["check"].startswith("control-"):
                check = r["check"].split("(")[0]  # one identity, any parameters
                out.headroom.setdefault((r["suite"], check), []).append(
                    math.log10(tol / max(res, RESIDUAL_FLOOR * tol)))
                if r["suite"] in out.worst_ratio:
                    out.worst_ratio[r["suite"]] = max(out.worst_ratio[r["suite"]], res / tol)
        if rc != (0 if all_ok else 1):
            out.errors.append(f"{where}: exit code {rc} disagrees with its reports")
    return out


# -- environment ----------------------------------------------------------------

def git_commit(root: str):
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if os.path.isfile(os.path.join(git, ref)):
            with open(os.path.join(git, ref), encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def source_digest(src: str) -> str:
    h = hashlib.sha256()
    for dirpath, dirnames, filenames in sorted(os.walk(os.path.join(src, "wkit"))):
        dirnames.sort()
        for fn in sorted(filenames):
            if fn.endswith(".py"):
                path = os.path.join(dirpath, fn)
                h.update(os.path.relpath(path, src).encode())
                with open(path, "rb") as fh:
                    h.update(fh.read())
    return h.hexdigest()


# -- the run ----------------------------------------------------------------------

def measure(args, wl, calls, outdir, deadline):
    """Untraced workload runs for about --seconds; end-to-end metrics.

    The number of runs follows from --seconds and the workload's nominal
    run time, not from the clock, so that the work done, and with it the
    operations attempted and failed, depend only on the seed.
    """
    work, died = [], []
    for i in range(max(MIN_RUNS, int(args.seconds / wl.run_s + 0.5))):
        child = run_child(f"run{i}", outdir, calls, deadline)
        (work if child.ok else died).append(child)
    return work, died


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true",
                    help="smallest inputs; for the smoke test only")
    args = ap.parse_args(argv)
    deadline = time.monotonic() + BUDGET_S

    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "wkit", "cli.py")):
        raise BenchError("no wkit source tree at ./src/wkit; run from the root of a checkout")
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    wanted = bench["per_layer" if args.trace else "end_to_end"]

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}" + ("-tiny" if args.tiny else "")
    outdir = os.path.join(root, ".perfbench_out", tag)
    shutil.rmtree(outdir, ignore_errors=True)
    os.makedirs(outdir)
    calls = make_calls(args.workload, WORKLOADS[args.workload], args.seed, args.tiny, outdir)

    probes = [run_child(f"probe{i}", outdir, [], deadline, probe=True) for i in range(PROBES)]
    probes = [p for p in probes if p.ok]
    if not probes:
        raise BenchError("no child could import wkit")
    env = dict(probes[0].result["env"], commit=git_commit(root),
               source_sha256=source_digest(src), workload=args.workload, seed=args.seed,
               config_seeds=sorted({c["seed"] for c in calls}))

    if args.trace:
        work = [run_child("untraced", outdir, calls, deadline)]
        work.append(run_child("traced", outdir, calls, deadline, trace=True))
        died = [c for c in work if not c.ok]
        work = [c for c in work if c.ok]
    else:
        work, died = measure(args, WORKLOADS[args.workload], calls, outdir, deadline)
    if not work:
        raise BenchError("every workload run died")

    outcomes = [check_outputs(c, calls) for c in work]
    errors = [e for o in outcomes for e in o.errors]
    for c, o in zip(work[1:], outcomes[1:]):
        if o.digests != outcomes[0].digests:
            errors.append(f"{c.tag}: output differs from {work[0].tag} for the same configs")
    attempted = sum(o.reports + o.n_raised for o in outcomes) + len(died) * len(calls)
    failed = sum(o.failed_reports + o.n_raised for o in outcomes) + len(died) * len(calls)
    first = outcomes[0]
    digest = hashlib.sha256("\n".join(first.digests).encode()).hexdigest()

    if args.trace:
        if len(work) != 2:
            raise BenchError("the traced pair did not complete")
        untraced, traced = work
        metrics = dict(traced.result["layers"])
        metrics["suites.raised"] = outcomes[1].n_raised
        for suite in SUITE_NAMES:
            metrics[f"suites.{suite}.worst_ratio"] = outcomes[1].worst_ratio[suite]
        metrics["trace.overhead_frac"] = (traced.result["wall_s"] / untraced.result["wall_s"]
                                          - 1.0)
    else:
        med = statistics.median
        setups = [c.result["setup_s"] for c in probes + work]
        metrics = {
            "wall_s": med(c.result["wall_s"] for c in work),
            "cpu_s": med(c.result["cpu_s"] for c in work),
            "setup_s": med(setups),
            "peak_rss_mb": med(c.maxrss_mb for c in work),
            "checks_total": med(o.reports for o in outcomes),
            "ok_frac": med(1.0 - o.failed_frac for o in outcomes),
            "min_headroom_dec": med(o.min_headroom for o in outcomes),
        }
    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    extra = sorted(set(metrics) - {m["name"] for m in wanted})
    if missing or extra:
        raise BenchError(f"metrics out of step with BENCHMARK.json: "
                         f"missing {missing}, unknown {extra}")
    if any(not math.isfinite(v) for v in metrics.values()):
        raise BenchError(f"a metric could not be measured: {metrics}; {errors[:5]}")

    correct = not errors
    summary = {
        "env": env,
        "runs": len(work), "died": [c.why for c in died],
        "wall_s_each": [round(c.result["wall_s"], 4) for c in work],
        "reports": first.reports, "failed_reports": first.failed_reports,
        "raised": first.raised, "failed_frac": first.failed_frac,
        "output_sha256": digest, "errors": errors[:20],
    }
    with open(os.path.join(outdir, "summary.json"), "w", encoding="utf-8") as fh:
        json.dump(dict(summary, metrics=metrics), fh, indent=2, sort_keys=True)

    print("env " + json.dumps(env, sort_keys=True))
    print(f"{args.workload}: {len(work)} run(s), {len(died)} died; "
          f"per run {first.reports} reports, {first.failed_reports} failed, "
          f"raised {first.raised or 'none'}, failed_frac {first.failed_frac:.4f}; "
          f"output sha256 {digest}")
    for e in errors[:20]:
        print("MISMATCH " + e)
    units = {m["name"]: m["unit"] for m in wanted}
    for m in wanted:
        print(f"  {m['name']:<40} {metrics[m['name']]:.6g} {m['unit']}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }))
    return 0 if correct else 1


def _terminate(signum, frame):
    raise SystemExit(128 + signum)


if __name__ == "__main__":
    signal.signal(signal.SIGTERM, _terminate)
    try:
        sys.exit(main())
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        sys.exit(2)
