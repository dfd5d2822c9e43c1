"""Smoke test of the benchmark itself.

    python3 perfbench/smoke.py        (from the root of a wkit checkout)

Runs every workload of BENCHMARK.json at its tiny size, untraced and traced,
and checks that each run exits 0 with a correct result whose metrics are
exactly the ones BENCHMARK.json declares for that mode, with the same
units.  Then runs the benchmark from a directory holding only
BENCHMARK.json and perfbench/, where it must fail without a result.
Takes about half a minute.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def bench_run(cwd: str, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "1", "--trace", str(trace), "--tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=170)


def main() -> int:
    with open("BENCHMARK.json", encoding="utf-8") as fh:
        bench = json.load(fh)
    problems = []
    for w in bench["workloads"]:
        for trace, declared in ((0, bench["end_to_end"]), (1, bench["per_layer"])):
            where = f"{w['name']} --trace {trace}"
            proc = bench_run(".", w["name"], trace)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                problems.append(f"{where}: exit {proc.returncode}: {proc.stderr[-500:]}")
                continue
            result = json.loads(lines[-1])
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"{where}: result keys {sorted(result)}")
            if result["correct"] is not True or result["attempted"] < 1:
                problems.append(f"{where}: correct={result['correct']} "
                                f"attempted={result['attempted']}")
            units = {m["name"]: m["unit"] for m in declared}
            printed = result["metrics"]
            for name, value in printed.items():
                if name not in units:
                    problems.append(f"{where}: printed metric {name!r} is not in BENCHMARK.json")
                elif value["unit"] != units[name]:
                    problems.append(f"{where}: {name} unit {value['unit']!r} != {units[name]!r}")
            for name in units.keys() - printed.keys():
                problems.append(f"{where}: BENCHMARK.json metric {name!r} was not printed")
            print(f"{where}: {len(printed)} metrics, exit 0", flush=True)

    bare = os.path.join(".perfbench_out", "smoke-bare")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy("BENCHMARK.json", bare)
    proc = bench_run(bare, bench["workloads"][0]["name"], 0)
    last = (proc.stdout.strip().splitlines() or [""])[-1]
    if proc.returncode == 0 or last.startswith("{"):
        problems.append(f"without a source tree: exit {proc.returncode}, last line {last!r}")
    else:
        print(f"without a source tree: exit {proc.returncode}, no result")
    shutil.rmtree(bare, ignore_errors=True)

    for p in problems:
        print("FAIL " + p)
    print("smoke: " + ("ok" if not problems else f"{len(problems)} problem(s)"))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
