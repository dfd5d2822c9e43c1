"""Check-report record shared by all verification suites."""

from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass, field, fields


@dataclass
class CheckReport:
    """One verification outcome.

    pass/fail is derived: passed <=> residual <= tolerance.  `identity`
    names the mathematical relation being tested so a failure is traceable
    without reading the suite code.  `inputs` echoes the parameter point:
    the sampled inputs (parameters, points, seeds) first, then any value
    the check computed, which `sort_reports` relies on.
    """

    suite: str
    check: str
    identity: str
    inputs: dict
    residual: float
    tolerance: float
    wall_ms: float = 0.0
    passed: bool = field(init=False)

    def __post_init__(self):
        self.residual = float(self.residual)
        self.tolerance = float(self.tolerance)
        self.passed = bool(self.residual <= self.tolerance)

    def to_dict(self) -> dict:
        """The fields in order, inputs made JSON-ready (no deep copy)."""
        d = {f.name: getattr(self, f.name) for f in fields(self)}
        d["inputs"] = _jsonable(self.inputs)
        return d


class Stopwatch:
    """Builds the CheckReports of one check, timed from construction.

    This is the one place a report gets its wall_ms: programmatic callers
    see real timings, while the CLI normalizes them for byte-identical output.
    """

    def __init__(self):
        self._t0 = time.perf_counter()

    def report(self, suite: str, check: str, identity: str, inputs: dict,
               residual: float, tolerance: float) -> CheckReport:
        return CheckReport(suite, check, identity, inputs, residual, tolerance,
                           wall_ms=(time.perf_counter() - self._t0) * 1e3)

    def control(self, suite: str, check: str, identity: str, inputs: dict,
                observed: float, threshold: float) -> CheckReport:
        """Test-power control: passes iff the observed violation reaches the
        threshold (residual = threshold / observed against tolerance 1), so
        an observation of 0 or NaN fails."""
        observed_f = float(observed)
        residual = threshold / observed_f if observed_f != 0 else float("inf")
        return self.report(suite, check, identity,
                           {**inputs, "observed_violation": observed,
                            "threshold": threshold},
                           residual, 1.0)


def worst(values) -> float:
    """Largest of the residuals `values`: NaN if any of them is NaN, 0.0 if
    there are none.  (A running max() keeps its first argument when the
    second is NaN, so one NaN sample among finite ones would pass.)"""
    out = 0.0
    for v in values:
        if math.isnan(v):
            return math.nan
        out = max(out, v)
    return out


def _jsonable(obj):
    """Convert complex numbers to [re, im] pairs, recursively."""
    if isinstance(obj, complex):
        return [obj.real, obj.imag]
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    return obj


def sort_reports(reports: list[CheckReport]) -> list[CheckReport]:
    """Canonical order: (suite, check, inputs) — independent of execution
    order so concurrent suites emit identical bytes.  The inputs are
    compared in the order the check lists them, sampled inputs first, so
    two reports at different points are ordered by their sampled inputs
    alone: a computed value, which can move at rounding level, never
    decides between them."""
    return sorted(reports, key=lambda r: (r.suite, r.check, json.dumps(_jsonable(r.inputs))))
