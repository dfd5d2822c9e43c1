"""Batch front-end.

    wkit check --config FILE [--out FILE]
    wkit eval FN --at RE[,IM] [--N --q --s --p --c --m --n --k --kprime]
    wkit scan FN --from A --to B --points P [--log] [--csv FILE] [param flags]

`check` runs named verification suites from a JSON configuration and emits
a JSON array of check reports (exit 0 iff every check passed, 2 on a
malformed configuration or an output file that cannot be written).  A
check that raises an error a report names (`errors.REPORTED`: a WkitError,
a numpy LinAlgError or an ArithmeticError) becomes its own failing report,
and the suite's other checks still report.  Such an error raised outside
every check, or a MemoryError, becomes the suite's one failing
`suite-error` report, and the remaining suites still run; any other
exception is a programming error and ends the run.  `eval` prints one
"re imag" pair per call at full double precision; `scan` writes a CSV
"x_re,x_im,f_re,f_im" (exit 2 if its file cannot be written).

`check` runs its suites with numpy's bundled OpenBLAS on one thread and
restores the previous count when they end.  The small complex products of
the dense layer gain little from a second thread and spend about as much
CPU again on it; one thread also fixes BLAS's summation order, so identical
configuration and seed produce byte-identical output whatever the host's
BLAS thread setting.  Library callers (`run_check`, suites and formulas
called directly) keep their own thread count.
"""

from __future__ import annotations

import argparse
import cmath
import contextlib
import ctypes
import functools
import glob
import json
import math
import os
import sys
import threading

import numpy as np

from .errors import REPORTED, ConfigError
from .params import DEFAULT_POLICY, EllipticParams, TruncationPolicy
from .reports import CheckReport, report_dicts
from .suites import SUITES, SuiteContext

_CONFIG_KEYS = {"params", "policy", "suites", "grid", "seed", "tolerances"}
_PARAM_KEYS = {"N", "q", "s", "p"}
_POLICY_KEYS = {"tail_eps", "max_terms"}
_GRID_KEYS = {"from", "to", "points", "log"}


def _as_complex(v, what: str) -> complex:
    if isinstance(v, (int, float)):
        return complex(v)
    if isinstance(v, list) and len(v) == 2 and all(isinstance(x, (int, float)) for x in v):
        return complex(v[0], v[1])
    raise ConfigError(f"{what} must be a number or a [re, im] pair, got {v!r}")


_INT = ((int,), "an integer")
_REAL = ((int, float), "a finite real number")
_BOOL = ((bool,), "true or false")


def _typed(block: dict, where: str, key: str, default, kind):
    """block[key], or default if absent, checked against kind (a bool is
    not a number here, nor are the NaN and infinity Python's json reads)."""
    v = block.get(key, default)
    types, what = kind
    if (not isinstance(v, types) or (isinstance(v, bool) and kind is not _BOOL)
            or (kind is _REAL and not math.isfinite(v))):
        raise ConfigError(f"{where} {key} must be {what}, got {v!r}")
    return v


def _reject_unknown(d: dict, allowed: set, where: str):
    unknown = set(d) - allowed
    if unknown:
        raise ConfigError(f"unknown key(s) {sorted(unknown)} in {where}")


def parse_config(cfg: dict) -> tuple[SuiteContext, list[str]]:
    if not isinstance(cfg, dict):
        raise ConfigError("top-level configuration must be an object")
    _reject_unknown(cfg, _CONFIG_KEYS, "configuration")

    pblock = cfg.get("params", {})
    if not isinstance(pblock, dict):
        raise ConfigError("params must be an object")
    _reject_unknown(pblock, _PARAM_KEYS, "params")
    N = pblock.get("N", 2)
    if not isinstance(N, int) or N < 2:
        raise ConfigError(f"N must be an integer >= 2, got {N!r}")
    q = _as_complex(pblock.get("q", 0.55), "q")
    s = _root_value(_as_complex(pblock["s"], "s") if "s" in pblock else None,
                    _as_complex(pblock["p"], "p") if "p" in pblock else None)
    try:
        params = EllipticParams(N=N, q=q, s=s)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc

    pol = cfg.get("policy", {})
    if not isinstance(pol, dict):
        raise ConfigError("policy must be an object")
    _reject_unknown(pol, _POLICY_KEYS, "policy")
    try:
        policy = TruncationPolicy(
            tail_eps=float(_typed(pol, "policy", "tail_eps", DEFAULT_POLICY.tail_eps, _REAL)),
            max_terms=_typed(pol, "policy", "max_terms", DEFAULT_POLICY.max_terms, _INT),
        )
    except (ValueError, OverflowError) as exc:
        raise ConfigError(str(exc)) from exc

    suites = cfg.get("suites", sorted(SUITES))
    if not isinstance(suites, list) or not all(isinstance(s_, str) for s_ in suites):
        raise ConfigError("suites must be a list of suite names")
    if not suites:  # a run of no checks would pass vacuously
        raise ConfigError("suites must name at least one suite")
    for name in suites:
        if name not in SUITES:
            raise ConfigError(f"unknown suite {name!r}; available: {sorted(SUITES)}")
    if len(set(suites)) < len(suites):  # a suite run twice would report each check twice
        raise ConfigError(f"suites names a suite more than once: {suites}")

    grid = cfg.get("grid", {})
    if not isinstance(grid, dict):
        raise ConfigError("grid must be an object")
    _reject_unknown(grid, _GRID_KEYS, "grid")
    points = _typed(grid, "grid", "points", 200, _INT)
    if points < 1:  # a check over no samples would pass vacuously
        raise ConfigError(f"grid points must be >= 1, got {points}")
    space = np.geomspace if _typed(grid, "grid", "log", True, _BOOL) else np.linspace
    try:  # a log grid cannot reach 0
        samples = space(float(_typed(grid, "grid", "from", 0.5, _REAL)),
                        float(_typed(grid, "grid", "to", 2.0, _REAL)), points)
    except (ValueError, OverflowError) as exc:
        raise ConfigError(f"grid: {exc}") from exc

    seed = _typed(cfg, "configuration", "seed", 7, _INT)
    if seed < 0:  # numpy's generators take no negative seed
        raise ConfigError(f"seed must be >= 0, got {seed}")

    tols = cfg.get("tolerances", {})
    if not isinstance(tols, dict):
        raise ConfigError("tolerances must map suite names to numbers")
    _reject_unknown(tols, set(SUITES), "tolerances")
    for name in tols:  # JSON object keys are strings
        if _typed(tols, "tolerances", name, None, _REAL) < 0:  # no residual is below it
            raise ConfigError(f"tolerances {name} must be >= 0, got {tols[name]}")

    ctx = SuiteContext(
        params=params,
        policy=policy,
        seed=seed,
        tolerances=dict(tols),
        grid=samples,
    )
    return ctx, suites


_BLAS_SYMBOLS = ("scipy_openblas_{}_num_threads64_", "scipy_openblas_{}_num_threads",
                 "openblas_{}_num_threads64_", "openblas_{}_num_threads")


def _openblas_paths() -> list[str]:
    """The OpenBLAS libraries bundled with numpy's wheel (Linux, macOS)."""
    root = os.path.dirname(np.__file__)
    return sorted(glob.glob(os.path.join(root + ".libs", "*openblas*"))
                  + glob.glob(os.path.join(root, ".dylibs", "*openblas*")))


@functools.cache
def _openblas_threads():
    """(get, set) of the bundled OpenBLAS's thread count, or None if no
    library or symbol pair is found; looked up once per process."""
    for path in _openblas_paths():
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for name in _BLAS_SYMBOLS:
            get, set_ = (getattr(lib, name.format(op), None) for op in ("get", "set"))
            if get is not None and set_ is not None:
                get.argtypes, get.restype = [], ctypes.c_int
                set_.argtypes, set_.restype = [ctypes.c_int], None
                return get, set_
    return None


class _OneBlasThread:
    """A block run with the bundled OpenBLAS on one thread.  Overlapping
    blocks share one saved count, restored when the last of them exits."""

    def __init__(self):
        self._lock = threading.Lock()
        self._depth = 0
        self._restore = None

    def __enter__(self):
        fns = _openblas_threads()
        with self._lock:
            if self._depth == 0 and fns is not None:
                get, set_ = fns
                self._restore = functools.partial(set_, get())
                set_(1)
            self._depth += 1

    def __exit__(self, *exc):
        with self._lock:
            self._depth -= 1
            if self._depth == 0 and self._restore is not None:
                self._restore()
                self._restore = None


_ONE_BLAS_THREAD = _OneBlasThread()


def cmd_check(args) -> int:
    try:
        with open(args.config, "r", encoding="utf-8") as fh:
            cfg = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    try:
        ctx, suites = parse_config(cfg)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    try:  # an unwritable file fails before any suite runs
        out = open(args.out, "w", encoding="utf-8") if args.out else None
    except OSError as exc:
        print(f"output error: {exc}", file=sys.stderr)
        return 2

    with out or contextlib.nullcontext():
        reports = []
        with _ONE_BLAS_THREAD:
            for name in suites:
                try:
                    reports.extend(SUITES[name](ctx))
                except (*REPORTED, MemoryError) as exc:
                    reports.append(CheckReport(
                        name, "suite-error", "the suite runs to completion",
                        {"error": type(exc).__name__, "message": str(exc)}, math.nan, 0.0))
        if not _emit(json.dumps(report_dicts(reports), indent=2, sort_keys=True) + "\n", out):
            return 2
    n_fail = sum(1 for r in reports if not r.passed)
    print(f"{len(reports) - n_fail}/{len(reports)} checks passed", file=sys.stderr)
    return 0 if n_fail == 0 else 1


def _emit(text: str, dest) -> bool:
    """Write `text` to `dest`, a file path or a text file open for writing
    (closed once written, since closing flushes it), or to stdout if there
    is none.  False, after one `output error` line on stderr, if the file
    cannot be written."""
    if not dest:
        sys.stdout.write(text)
        return True
    try:
        with open(dest, "w", encoding="utf-8") if isinstance(dest, str) else dest as fh:
            fh.write(text)
    except OSError as exc:
        print(f"output error: {exc}", file=sys.stderr)
        return False
    return True


def _root_value(s, p) -> complex:
    """The designated root value: s itself, or sqrt(p); p = 0.3 if neither is given."""
    if s is not None and p is not None:
        raise ConfigError("give either s or p, not both")
    return s if s is not None else cmath.sqrt(0.3 if p is None else p)


def _params_from_flags(args) -> EllipticParams:
    s = _root_value(None if args.s is None else _parse_complex(args.s),
                    None if args.p is None else _parse_complex(args.p))
    return EllipticParams(N=args.N, q=_parse_complex(args.q), s=s,
                          c=_parse_complex(args.c))


def _parse_complex(text) -> complex:
    if isinstance(text, (int, float, complex)):
        return complex(text)
    parts = str(text).split(",")
    if len(parts) == 1:
        return complex(float(parts[0]))
    if len(parts) == 2:
        return complex(float(parts[0]), float(parts[1]))
    raise ConfigError(f"cannot parse complex number from {text!r}")


def _function(name: str, params: EllipticParams, args):
    """The named function as f(x), for a scalar x or an array of points."""
    from . import qseries as qs

    m, n, k, kp = args.m, args.n, args.k, args.kprime
    functions = {
        "theta_big": lambda x: qs.theta_big(x, params.p, DEFAULT_POLICY),
        "tau_N": lambda x: qs.tau_N(x, params),
        "U": lambda x: qs.U(x, params),
        "F_a": lambda x: qs.F_a(x, m, params.s, params),
        "Y_mn": lambda x: qs.Y_mn(x, m, n, params),
        "Y_FF": lambda x: qs.Y_FF(x, params),
        "I": lambda x: qs.I_series(x, params),
        "f_cr_series": lambda x: qs.f_cr_series(x, k, kp, params),
        "f_cr_modes": lambda x: qs.f_cr_modes(x, k, kp, params),
    }
    if name not in functions:
        raise ConfigError(f"unknown function {name!r}; available: {' '.join(functions)}")
    return functions[name]


def _evaluate(args, points):
    """The named function at each of points(args) as (xs, values), or the
    exit code once a failure, or a value that is not finite, is reported: one
    array call, whose failure names the first failing point (`_on_grid`)."""
    try:
        f = _function(args.fn, _params_from_flags(args), args)
        xs = [complex(x) for x in points(args)]
        vals = f(np.array(xs)).tolist()
    except (ConfigError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except REPORTED as exc:
        print(f"evaluation failed: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    bad = [x for x, val in zip(xs, vals) if not cmath.isfinite(val)]
    if bad:
        print(f"evaluation failed: non-finite value at x = {bad[0]}", file=sys.stderr)
        return 1
    return xs, vals


def cmd_eval(args) -> int:
    res = _evaluate(args, lambda a: [_parse_complex(a.at)])
    if isinstance(res, int):
        return res
    val = res[1][0]
    print(f"{val.real:.17g} {val.imag:.17g}")
    return 0


def cmd_scan(args) -> int:
    if args.points < 1:  # a table of no points says nothing
        print(f"error: --points must be >= 1, got {args.points}", file=sys.stderr)
        return 2
    res = _evaluate(args, lambda a: (np.geomspace if a.log else np.linspace)(a.start, a.stop, a.points))
    if isinstance(res, int):
        return res
    lines = ["x_re,x_im,f_re,f_im"]
    lines += [f"{x.real:.17g},{x.imag:.17g},{v.real:.17g},{v.imag:.17g}" for x, v in zip(*res)]
    return 0 if _emit("\n".join(lines) + "\n", args.csv) else 2


def _add_param_flags(p: argparse.ArgumentParser):
    p.add_argument("--N", type=int, default=2)
    p.add_argument("--q", default="0.55")
    p.add_argument("--s", default=None)
    p.add_argument("--p", default=None)
    p.add_argument("--c", default="0")
    p.add_argument("--m", type=int, default=1)
    p.add_argument("--n", type=int, default=-1)
    p.add_argument("--k", type=int, default=1)
    p.add_argument("--kprime", type=int, default=1)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built once per process (building it costs about
    0.75 ms, more than parsing a `wkit check` call)."""
    ap = argparse.ArgumentParser(prog="wkit",
                                 description="verification toolkit CLI")
    sub = ap.add_subparsers(dest="command", required=True)

    p_check = sub.add_parser("check", help="run verification suites from a config")
    p_check.add_argument("--config", required=True)
    p_check.add_argument("--out", default=None)
    p_check.set_defaults(run=cmd_check)

    p_eval = sub.add_parser("eval", help="evaluate one scalar function at a point")
    p_eval.add_argument("fn")
    p_eval.add_argument("--at", required=True, help="RE or RE,IM")
    p_eval.set_defaults(run=cmd_eval)
    _add_param_flags(p_eval)

    p_scan = sub.add_parser("scan", help="tabulate a scalar function over a grid")
    p_scan.add_argument("fn")
    p_scan.add_argument("--from", dest="start", type=float, required=True)
    p_scan.add_argument("--to", dest="stop", type=float, required=True)
    p_scan.add_argument("--points", type=int, default=100)
    p_scan.add_argument("--log", action="store_true")
    p_scan.add_argument("--csv", default=None)
    p_scan.set_defaults(run=cmd_scan)
    _add_param_flags(p_scan)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.run(args)
