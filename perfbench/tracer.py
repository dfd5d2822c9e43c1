"""Per-layer tracing of wkit, applied from outside its source tree.

`Tracer.install()` wraps every public function of the layer modules in
every `wkit` module that bound it (`suites`, `wgen`, `tensor` and
`rmatrix` bind q-series names with `from .qseries import ...`, so
patching `wkit.qseries` alone would miss their calls), and the public
methods of the layer classes on the class itself.  `uninstall()` puts
every original back.

Within a layer only per-function counters are kept (calls, inclusive and
self seconds), so hundreds of thousands of `pochhammer` calls stay bounded
in memory.  A span (name, start, end, parent span, run id) is recorded
only when a call crosses from one layer into another.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time

LAYERS = ("cli", "suites", "wgen", "tensor", "rmatrix", "qseries")

# Classes whose methods are wrapped on the class, by layer.
CLASSES = {
    "rmatrix": ("RMatrixFactory",),
    "tensor": ("LabeledTensor", "Antisymmetrizer"),
    "wgen": ("EvalRep",),
}
# Operator and constructor methods wrapped besides the public ones.
DUNDERS = ("__init__", "__matmul__", "__add__", "__sub__", "__mul__", "__rmul__")

# Calls counted once per outermost entry into a group of functions, so a
# build that delegates to another build is one build.
GROUPS = {
    ("rmatrix", "RMatrixFactory.z_matrix_xi"): "rmatrix.build",
    ("rmatrix", "RMatrixFactory.r_matrix_xi"): "rmatrix.build",
    ("rmatrix", "RMatrixFactory.rhat_matrix_xi"): "rmatrix.build",
    ("wgen", "qdet_extract"): "wgen.qdet",
    ("wgen", "qdet_tqdet_check"): "wgen.qdet",
}

# Every suite a workload runs; per-suite metrics are reported for all of
# them on every workload (zero where a workload does not run the suite).
SUITE_NAMES = (
    "theta-identities", "abelianity", "critical-poisson", "rmatrix-properties",
    "theorem1-exchange", "corollary2-exchange", "qdet", "n0", "fusion-identities",
)

_MARK = "__perfbench_wrapped__"


class Tracer:
    def __init__(self):
        self.stats = {}          # (layer, key) -> [calls, incl_s, self_s]
        self.depth = {}          # (layer, key) -> active call depth
        self.group_calls = {}    # group -> outermost calls
        self.group_incl = {}     # group -> outermost inclusive seconds
        self.group_depth = {}
        self.stack = []          # frames: [layer, child_s, span_id]
        self.spans = []          # (name, start, end, parent span id, run id)
        self.run_id = None
        self.max_dim = 0
        self.bytes_computed = 0
        self.retries = 0
        self._undo = []
        self._tensor_cls = None

    # -- installation ---------------------------------------------------------

    def install(self):
        import wkit.cli  # noqa: F401  (imports every layer module)
        from wkit.errors import OutsideConvergenceAnnulus, PoleHit
        from wkit.tensor import LabeledTensor

        self._tensor_cls = LabeledTensor
        mods = [m for name, m in sorted(sys.modules.items())
                if m is not None and (name == "wkit" or name.startswith("wkit."))]
        originals = {}  # id(original function) -> wrapper
        for layer in LAYERS:
            mod = sys.modules["wkit." + layer]
            for name, obj in vars(mod).items():
                if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                        and not name.startswith("_")):
                    originals[id(obj)] = self._wrap(obj, layer, name)
            for cls_name in CLASSES.get(layer, ()):
                self._wrap_class(getattr(mod, cls_name), layer)
        # the CLI's canonical sort is part of emitting, so it counts as cli
        from wkit.reports import sort_reports
        originals[id(sort_reports)] = self._wrap(sort_reports, "cli", "sort_reports")

        for mod in mods:
            for name, obj in list(vars(mod).items()):
                wrapper = originals.get(id(obj))
                if wrapper is not None:
                    self._set(mod, name, wrapper)

        # the CLI dispatches through the SUITES table, not the module names
        suites = sys.modules["wkit.suites"]
        for name, fn in list(suites.SUITES.items()):
            self._undo.append((suites.SUITES, name, fn))
            suites.SUITES[name] = originals[id(fn)]

        resample = suites._with_resample
        tracer = self

        @functools.wraps(resample)
        def counted_resample(fn, rng, *args, **kwargs):
            def counted(point):
                try:
                    return fn(point)
                except (PoleHit, OutsideConvergenceAnnulus):
                    tracer.retries += 1
                    raise
            return resample(counted, rng, *args, **kwargs)

        setattr(counted_resample, _MARK, True)
        self._set(suites, "_with_resample", counted_resample)

    def _wrap_class(self, cls, layer):
        for name, raw in list(vars(cls).items()):
            if name.startswith("_") and name not in DUNDERS:
                continue
            key = f"{cls.__name__}.{name}"
            if isinstance(raw, (classmethod, staticmethod)):
                self._set(cls, name, type(raw)(self._wrap(raw.__func__, layer, key)))
            elif inspect.isfunction(raw):
                self._set(cls, name, self._wrap(raw, layer, key))

    def _set(self, owner, name, value):
        self._undo.append((owner, name, vars(owner)[name]))
        setattr(owner, name, value)

    def uninstall(self):
        """Restore every original and check that no wrapper is left."""
        while self._undo:
            owner, name, raw = self._undo.pop()
            if isinstance(owner, dict):
                owner[name] = raw
            else:
                setattr(owner, name, raw)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "wkit" or mod_name.startswith("wkit.")):
                continue
            owners = [vars(mod)] + [vars(v) for v in vars(mod).values() if inspect.isclass(v)]
            owners += [v for v in vars(mod).values() if isinstance(v, dict)]
            for owner in owners:
                for name, obj in owner.items():
                    fn = getattr(obj, "__func__", obj)
                    if getattr(fn, _MARK, False):
                        raise RuntimeError(f"wrapper left on {mod_name}.{name}")

    # -- the wrapper ------------------------------------------------------------

    def _wrap(self, fn, layer, name):
        tracer = self
        clock = time.perf_counter
        stack = self.stack
        stats, depth = self.stats, self.depth
        is_tensor = layer == "tensor"
        is_poch = layer == "qseries" and name == "pochhammer"
        fixed_key = (layer, name)
        group = GROUPS.get(fixed_key)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if is_poch:
                moduli = args[1] if len(args) > 1 else kwargs["moduli"]
                key = (layer, f"pochhammer{len(moduli)}")
            else:
                key = fixed_key
            parent = stack[-1] if stack else None
            if parent is None or parent[0] != layer:
                span = len(tracer.spans)
                tracer.spans.append(None)
            else:
                span = parent[2]
            frame = [layer, 0.0, span]
            stack.append(frame)
            depth[key] = depth.get(key, 0) + 1
            if group is not None:
                tracer.group_depth[group] = tracer.group_depth.get(group, 0) + 1
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                dur = t1 - t0
                st = stats.get(key)
                if st is None:
                    st = stats[key] = [0, 0.0, 0.0]
                st[0] += 1
                st[2] += dur - frame[1]
                depth[key] -= 1
                if depth[key] == 0:
                    st[1] += dur
                if group is not None:
                    tracer.group_depth[group] -= 1
                    if tracer.group_depth[group] == 0:
                        tracer.group_calls[group] = tracer.group_calls.get(group, 0) + 1
                        tracer.group_incl[group] = tracer.group_incl.get(group, 0.0) + dur
                if parent is not None:
                    parent[1] += dur
                if parent is None or parent[0] != layer:
                    tracer.spans[span] = (f"{layer}.{name}", t0, t1,
                                          parent[2] if parent else None, tracer.run_id)
            if is_tensor and isinstance(result, tracer._tensor_cls):
                tracer.max_dim = max(tracer.max_dim, result.data.shape[0])
                tracer.bytes_computed += result.data.nbytes
            return result

        setattr(wrapper, _MARK, True)
        return wrapper

    # -- results ----------------------------------------------------------------

    def _get(self, layer, key, field):
        st = self.stats.get((layer, key), (0, 0.0, 0.0))
        return st[("calls", "incl", "self").index(field)]

    def layer_self(self, layer) -> float:
        return sum(st[2] for (lay, _), st in self.stats.items() if lay == layer)

    def metrics(self) -> dict:
        """Per-layer values, named as in BENCHMARK.json (without units)."""
        g = self._get
        total = sum(self.layer_self(layer) for layer in LAYERS)
        builds = self.group_calls.get("rmatrix.build", 0)
        inits = g("rmatrix", "RMatrixFactory.__init__", "calls")
        m = {
            "qseries.pochhammer1.calls": g("qseries", "pochhammer1", "calls"),
            "qseries.pochhammer1.self_s": g("qseries", "pochhammer1", "self"),
            "qseries.pochhammer2.calls": g("qseries", "pochhammer2", "calls"),
            "qseries.pochhammer2.self_s": g("qseries", "pochhammer2", "self"),
            "qseries.theta_big.calls": g("qseries", "theta_big", "calls"),
            "qseries.theta_big.self_s": g("qseries", "theta_big", "self"),
            "qseries.theta_char_series.calls": g("qseries", "theta_char_series", "calls"),
            "qseries.theta_char_series.self_s": g("qseries", "theta_char_series", "self"),
            "qseries.U.calls": g("qseries", "U", "calls"),
            "qseries.F_a.calls": g("qseries", "F_a", "calls"),
            "qseries.Y_mn.calls": g("qseries", "Y_mn", "calls"),
            "qseries.Y_mn.incl_s": g("qseries", "Y_mn", "incl"),
            "qseries.self_s": self.layer_self("qseries"),
            "qseries.share": self.layer_self("qseries") / total if total else 0.0,
            "rmatrix.factory_init.calls": inits,
            "rmatrix.factory_init.self_s": g("rmatrix", "RMatrixFactory.__init__", "self"),
            "rmatrix.build.calls": builds,
            "rmatrix.rhat.incl_s": g("rmatrix", "RMatrixFactory.rhat_matrix_xi", "incl"),
            "rmatrix.rhat.self_s": g("rmatrix", "RMatrixFactory.rhat_matrix_xi", "self"),
            "rmatrix.inits_per_build": inits / builds if builds else 0.0,
            "rmatrix.self_s": self.layer_self("rmatrix"),
            "tensor.matmul.calls": g("tensor", "LabeledTensor.__matmul__", "calls"),
            "tensor.matmul.self_s": g("tensor", "LabeledTensor.__matmul__", "self"),
            "tensor.max_dim": self.max_dim,
            "tensor.bytes_computed": self.bytes_computed,
            "tensor.inv.self_s": g("tensor", "LabeledTensor.inv", "self"),
            "tensor.fused_R.incl_s": g("tensor", "fused_R", "incl"),
            "tensor.antisymmetrizer.self_s": g("tensor", "antisymmetrizer", "self"),
            "tensor.self_s": self.layer_self("tensor"),
            "wgen.build_t.calls": g("wgen", "build_t", "calls"),
            "wgen.build_t.incl_s": g("wgen", "build_t", "incl"),
            "wgen.qdet.incl_s": self.group_incl.get("wgen.qdet", 0.0),
            "wgen.self_s": self.layer_self("wgen"),
            "suites.retries": self.retries,
            "cli.parse_s": g("cli", "parse_config", "incl"),
            # cmd_check's own time is reading the config, serialising and
            # writing; sort_reports is the canonical sort before that
            "cli.emit_s": g("cli", "cmd_check", "self") + g("cli", "sort_reports", "incl"),
        }
        for suite in SUITE_NAMES:
            m[f"suites.{suite}.wall_s"] = g("suites", "suite_" + suite.replace("-", "_"), "incl")
        return m
