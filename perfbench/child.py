"""One workload run of wkit in a fresh process, started by run.py.

    python3 child.py SPEC T0

SPEC is a JSON file naming the source tree, the (config, out) pairs to run
and where to write the result; T0 is the parent's monotonic clock just
before it started this process, so set-up time counts interpreter start.
The run imports wkit, then calls `wkit.cli.main(["check", ...])` in-process
once per config, so a suite that raises loses only its own reports.
"""

from __future__ import annotations

import json
import os
import platform
import resource
import sys
import time
import traceback


def _cpu_s() -> float:
    ru = resource.getrusage(resource.RUSAGE_SELF)  # every thread of this process
    return ru.ru_utime + ru.ru_stime


def _blas_threads():
    """OpenBLAS's own thread count, read from the loaded library."""
    import ctypes

    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return None
    for lib in sorted(libs):
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return fn()
    return None


def environment() -> dict:
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas = "unknown"
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas,
        "blas_threads": _blas_threads(),
        "blas_thread_env": {k: os.environ[k] for k in
                            ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
                            if k in os.environ},
    }


def main() -> int:
    spec_path, t0 = sys.argv[1], float(sys.argv[2])
    with open(spec_path, encoding="utf-8") as fh:
        spec = json.load(fh)
    sys.path.insert(0, spec["src"])
    import wkit.cli

    if not os.path.abspath(wkit.__file__).startswith(spec["src"] + os.sep):
        print(f"imported wkit from {wkit.__file__}, not from {spec['src']}", file=sys.stderr)
        return 3
    result = {"setup_s": time.monotonic() - t0}

    tracer = None
    if spec.get("probe"):
        result["env"] = environment()
    else:
        if spec.get("trace"):
            from tracer import Tracer

            tracer = Tracer()
            tracer.install()
        calls = []
        cpu0, wall0 = _cpu_s(), time.perf_counter()
        for i, call in enumerate(spec["calls"]):
            if tracer is not None:
                tracer.run_id = i
            entry = {}
            try:
                entry["rc"] = wkit.cli.main(["check", "--config", call["config"],
                                             "--out", call["out"]])
            except Exception as exc:  # a raising suite is one failed operation
                traceback.print_exc()
                entry["raised"] = type(exc).__name__
            calls.append(entry)
        result["wall_s"] = time.perf_counter() - wall0
        result["cpu_s"] = _cpu_s() - cpu0
        result["calls"] = calls
        if tracer is not None:
            tracer.uninstall()
            result["layers"] = tracer.metrics()
            with open(spec["spans"], "w", encoding="utf-8") as fh:
                json.dump({"fields": ["name", "start", "end", "parent", "run"],
                           "spans": tracer.spans}, fh)

    tmp = spec["result"] + ".tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    os.replace(tmp, spec["result"])
    return 0


if __name__ == "__main__":
    sys.exit(main())
