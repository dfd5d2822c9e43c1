"""The check, as data, and the report it gives: shared by all verification
suites."""

from __future__ import annotations

import json
import math
from collections.abc import Callable
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
    # Always 0.0: the benchmark's output contract needs the key until ROADMAP items 5-6 drop it
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


@dataclass
class Check:
    """One check as data: a suite's runner measures it and writes its report.

    `inputs` are the sampled inputs (parameters, points, seeds).  `wants`
    are the values the check needs, each (fn, xs, *args) for the value
    fn(xs, *args) at the complex points xs; `body(*values)` returns the
    residual, or (residual, the inputs it computed).  A control sets
    `threshold`: its body returns the violation it observed, and the check
    passes iff that reaches the threshold (residual threshold / observed
    against tolerance 1), so an observation of 0 or NaN fails.
    """

    suite: str
    name: str
    identity: str
    inputs: dict
    body: Callable
    tolerance: float = 1.0
    wants: list = field(default_factory=list)
    threshold: float | None = None

    def report(self, measured) -> CheckReport:
        """The report of `measured`, what the body returned."""
        residual, computed = measured if isinstance(measured, tuple) else (measured, {})
        inputs = {**self.inputs, **computed}
        if self.threshold is not None:
            observed = float(residual)
            inputs.update(observed_violation=residual, threshold=self.threshold)
            residual = self.threshold / observed if observed != 0 else math.inf
        return CheckReport(self.suite, self.name, self.identity, inputs, residual, self.tolerance)

    def failed(self, exc: Exception) -> CheckReport:
        """The failing report of a measurement that raised exc: residual
        NaN, and the error's type and message in `error`/`message`."""
        inputs = {**self.inputs, "error": type(exc).__name__, "message": str(exc)}
        return CheckReport(self.suite, self.name, self.identity, inputs, math.nan, self.tolerance)


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
    return sorted(reports, key=lambda r: _order(r.suite, r.check, _jsonable(r.inputs)))


def report_dicts(reports: list[CheckReport]) -> list[dict]:
    """The `to_dict` of each report, in the order of `sort_reports`: each
    report's inputs are made JSON-ready once, for the key and the output."""
    return sorted((r.to_dict() for r in reports), key=lambda d: _order(d["suite"], d["check"], d["inputs"]))


def _order(suite: str, check: str, inputs: dict):
    """The canonical sort key of a report, its inputs JSON-ready."""
    return suite, check, json.dumps(inputs)
