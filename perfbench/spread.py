"""Run-to-run spread of the end-to-end metrics.

    python3 perfbench/spread.py [--first-seed 1]

Runs perfbench/run.py (untraced, with BENCHMARK.json's run_seconds) from
the current directory, which must be a checkout root, on every workload of
BENCHMARK.json with 10 seeds, twice: two sets whose runs are interleaved,
so that drift of the host falls on both.  For each workload and metric it
prints each set's median and its inter-quartile range as a share of the
median (the spread), the shift between the two medians as a share of the
first, in either direction, and whether both stay within the metric's
bound.  All results go to .perfbench_out/spread.json.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
SEEDS = 10


def run_once(workload: str, seed: int, seconds: int) -> dict:
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        capture_output=True, text=True, timeout=200)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
    result = json.loads(lines[-1])
    if not result["correct"]:
        raise SystemExit(f"{workload} seed {seed}: output mismatch\n{proc.stdout[-2000:]}")
    return result


def spread(values) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / abs(statistics.median(values))


def main() -> int:
    with open("BENCHMARK.json", encoding="utf-8") as fh:
        bench = json.load(fh)
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--first-seed", type=int, default=1)
    args = ap.parse_args()
    workloads = [w["name"] for w in bench["workloads"]]

    runs = {(s, w): [] for s in (0, 1) for w in workloads}
    for seed in range(args.first_seed, args.first_seed + SEEDS):
        # alternate which set goes first, so neither always runs warm
        for set_id in ((0, 1) if seed % 2 else (1, 0)):
            for w in workloads:
                res = run_once(w, seed, bench["run_seconds"])
                runs[(set_id, w)].append(res)
                print(f"set {set_id} seed {seed} {w}: " + " ".join(
                    f"{m}={v['value']:.5g}" for m, v in res["metrics"].items()), flush=True)

    ok = True
    for w in workloads:
        print(f"\n{w}")
        for m in bench["end_to_end"]:
            name, bound = m["name"], m["bound"]
            sets = [[r["metrics"][name]["value"] for r in runs[(s, w)]] for s in (0, 1)]
            meds = [statistics.median(v) for v in sets]
            spreads = [spread(v) for v in sets]
            shift = abs(meds[1] - meds[0]) / abs(meds[0])
            within = shift <= bound and max(spreads) <= bound
            ok = ok and within
            print(f"  {name:<18} bound {bound:<5} medians {meds[0]:.5g} {meds[1]:.5g}"
                  f"  spreads {spreads[0]:.4f} {spreads[1]:.4f}  shift {shift:.4f}"
                  f"  {'ok' if within else 'OUT'}"
                  + ("" if max(spreads) < bound / 3 else "  (spread >= bound/3)"))
    os.makedirs(".perfbench_out", exist_ok=True)
    with open(os.path.join(".perfbench_out", "spread.json"), "w", encoding="utf-8") as fh:
        json.dump({f"set{s}:{w}": v for (s, w), v in runs.items()}, fh, indent=1)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
