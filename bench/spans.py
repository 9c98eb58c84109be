"""Span recorder for the traced benchmark run.

The recorder wraps public functions and methods of hambea from outside: no
file under src/ is edited.  Every wrapped call records a span (name, start,
end, parent) into flat in-memory arrays; nothing is written until the worker
calls ``dump`` after the study has finished.  A layer's self time is its span
duration minus the time covered by its direct child spans.

Python binds ``from .x import f`` at import time, so wrapping ``hambea.x.f``
alone would miss every module that imported the name.  ``install`` therefore
replaces each binding of a wrapped function in every loaded hambea module
(and in the CLI's study table), and patches methods on the classes that
define them.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array

import numpy as np

# Every per-layer metric the traced run reports, in output order, with its
# unit and direction.  BENCHMARK.json lists the same names.
LAYER_METRICS = [
    ("spectral.fft.calls", "count", "lower"),
    ("spectral.fft.self_s", "s", "lower"),
    ("spectral.norm.calls", "count", "lower"),
    ("spectral.norm.self_s", "s", "lower"),
    ("spectral.project.calls", "count", "lower"),
    ("spectral.project.self_s", "s", "lower"),
    ("models.apply_B.calls", "count", "lower"),
    ("models.apply_B.self_s", "s", "lower"),
    ("models.force_series.calls", "count", "lower"),
    ("models.force_series.self_s", "s", "lower"),
    ("models.force_series.order_mean", "order", "lower"),
    ("models.hamiltonian.calls", "count", "lower"),
    ("models.hamiltonian.self_s", "s", "lower"),
    ("models.chart.calls", "count", "lower"),
    ("models.chart.self_s", "s", "lower"),
    ("rk.stepper_init.calls", "count", "lower"),
    ("rk.stepper_init.self_s", "s", "lower"),
    ("rk.step.calls", "count", "lower"),
    ("rk.step.self_s", "s", "lower"),
    ("rk.step.us_per_call", "us", "lower"),
    ("rk.solve_stages.calls", "count", "lower"),
    ("rk.solve_stages.self_s", "s", "lower"),
    ("rk.stage_iters_per_step", "iters", "lower"),
    ("rk.stage_residual.max", "ratio", "lower"),
    ("rk.stagnation_exits", "count", "lower"),
    ("hjet.expand.calls", "count", "lower"),
    ("hjet.expand.self_s", "s", "lower"),
    ("hjet.expand.order_mean", "order", "lower"),
    ("hjet.fd_directional.calls", "count", "lower"),
    ("hjet.fd_directional.self_s", "s", "lower"),
    ("bea.coefficient.calls", "count", "lower"),
    ("bea.coefficient.self_s", "s", "lower"),
    ("bea.coefficient.hit_ratio", "ratio", "higher"),
    ("bea.series_eval.calls", "count", "lower"),
    ("bea.modified_flow.calls", "count", "lower"),
    ("bea.modified_flow.self_s", "s", "lower"),
    ("bea.modified_flow.nfev", "count", "lower"),
    ("bea.htilde.calls", "count", "lower"),
    ("bea.htilde.self_s", "s", "lower"),
    ("bea.gradcons.self_s", "s", "lower"),
    ("bea.expfit.fit_points", "count", "higher"),
    ("harness.config.self_s", "s", "lower"),
    ("harness.initial.self_s", "s", "lower"),
    ("harness.study.self_s", "s", "lower"),
    ("setup.import_s", "s", "lower"),
    ("setup.scipy_integrate_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
    ("trace.spans", "count", "lower"),
]


class Recorder:
    """Flat, append-only span store plus named counters."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_of = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self.sums: dict[str, float] = {}
        self.maxima: dict[str, float] = {}

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def add(self, key: str, value: float) -> None:
        self.sums[key] = self.sums.get(key, 0.0) + value

    def maximum(self, key: str, value: float) -> None:
        self.maxima[key] = max(self.maxima.get(key, 0.0), value)

    def wrap(self, fn, name: str, observe=None, merge: bool = False):
        """Span-recording wrapper around fn.

        merge=True folds a call into an enclosing span of the same name, for
        layers whose public entry points call each other (y_norm ->
        gevrey_norm); the call then counts once.  observe(args, kwargs,
        result) feeds counters after a successful call.
        """
        nid = self._name_id(name)
        stack, name_of, parent, start, end = (
            self._stack, self.name_of, self.parent, self.start, self.end,
        )
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if merge and stack[-1] >= 0 and name_of[stack[-1]] == nid:
                return fn(*args, **kwargs)
            sid = len(start)
            name_of.append(nid)
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(sid)
            start.append(clock())
            try:
                out = fn(*args, **kwargs)
            finally:
                end[sid] = clock()
                stack.pop()
            if observe is not None:
                observe(args, kwargs, out)
            return out

        return wrapper

    def counter(self, fn, observe):
        """Wrapper that only feeds counters and records no span."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            out = fn(*args, **kwargs)
            observe(args, kwargs, out)
            return out

        return wrapper

    # -- derived figures ----------------------------------------------------

    def _arrays(self):
        name_of = np.frombuffer(self.name_of, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        dur = np.frombuffer(self.end, dtype=float) - np.frombuffer(self.start, dtype=float)
        return name_of, parent, dur

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer calls, self time and ratios from the recorded spans."""
        name_of, parent, dur = self._arrays()
        n = len(dur)
        has_parent = parent >= 0
        child_time = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=n)
        child_count = np.bincount(parent[has_parent], minlength=n)
        self_time = dur - child_time[:n]
        stats = {}
        for nid, name in enumerate(self.names):
            sel = name_of == nid
            stats[name] = (
                int(sel.sum()),
                float(self_time[sel].sum()),
                float(dur[sel].sum()),
                int((child_count[:n][sel] == 0).sum()),
            )

        def ratio(num: float, den: float) -> float:
            return num / den if den else 0.0

        out: dict[str, float] = {}
        for name, (calls, self_s, _incl, _leaf) in stats.items():
            out[f"{name}.calls"] = calls
            out[f"{name}.self_s"] = self_s
        out["models.force_series.order_mean"] = ratio(
            self.sums.get("force_series.order", 0.0), stats["models.force_series"][0]
        )
        out["rk.step.us_per_call"] = 1e6 * ratio(stats["rk.step"][2], stats["rk.step"][0])
        out["rk.stage_iters_per_step"] = ratio(
            self.sums.get("solve_stages.iterations", 0.0), stats["rk.solve_stages"][0]
        )
        out["rk.stage_residual.max"] = self.maxima.get("solve_stages.residual", 0.0)
        out["rk.stagnation_exits"] = self.sums.get("solve_stages.stagnation", 0.0)
        out["hjet.expand.order_mean"] = ratio(
            self.sums.get("expand.order", 0.0), stats["hjet.expand"][0]
        )
        calls, _s, _i, leaves = stats["bea.coefficient"]
        out["bea.coefficient.hit_ratio"] = ratio(leaves, calls)
        out["bea.modified_flow.nfev"] = self.sums.get("modified_flow.nfev", 0.0)
        out["trace.spans"] = n
        return out

    def dump(self, path) -> None:
        """Write every span as one structured array (.npy) next to its names."""
        name_of, parent, dur = self._arrays()
        spans = np.zeros(
            len(dur),
            dtype=[("name", "i4"), ("parent", "i4"), ("start", "f8"), ("end", "f8")],
        )
        spans["name"] = name_of
        spans["parent"] = parent
        spans["start"] = np.frombuffer(self.start, dtype=float)
        spans["end"] = np.frombuffer(self.end, dtype=float)
        np.save(path, spans)
        with open(str(path) + ".names", "w", encoding="utf-8") as f:
            f.write("\n".join(self.names) + "\n")


def _replace_bindings(old, new) -> None:
    """Point every hambea module attribute bound to ``old`` at ``new``."""
    for modname, mod in list(sys.modules.items()):
        if mod is None or not (modname == "hambea" or modname.startswith("hambea.")):
            continue
        for attr, value in list(vars(mod).items()):
            if value is old:
                setattr(mod, attr, new)


def _subclasses(cls) -> list[type]:
    out = [cls]
    for sub in cls.__subclasses__():
        out.extend(_subclasses(sub))
    return out


def install() -> Recorder:
    """Wrap the layer entry points of an imported hambea and return the recorder."""
    import hambea.bea as bea
    import hambea.harness.cli as cli
    import hambea.harness.config as hconfig
    import hambea.hjet as hjet
    import hambea.models as models
    import hambea.rk as rk
    import hambea.spectral as spectral

    rec = Recorder()

    def function(fn, name, **kw):
        _replace_bindings(fn, rec.wrap(fn, name, **kw))

    def method(classes, attr, name, **kw):
        for cls in classes:
            if attr in cls.__dict__:
                setattr(cls, attr, rec.wrap(cls.__dict__[attr], name, **kw))

    def stage_result(args, _kw, res):
        rec.add("solve_stages.iterations", res.iterations)
        rec.maximum("solve_stages.residual", res.residual)
        if res.residual > args[0].config.tol:
            rec.add("solve_stages.stagnation", 1)

    method([spectral.FourierGrid], "to_phys", "spectral.fft")
    method([spectral.FourierGrid], "to_coeffs", "spectral.fft")
    function(spectral.y_norm, "spectral.norm", merge=True)
    function(spectral.gevrey_norm, "spectral.norm", merge=True)
    function(spectral.project, "spectral.project")

    model_classes = _subclasses(models.PdeModel)
    method(model_classes, "apply_B", "models.apply_B")
    method(
        model_classes, "force_series_coeffs", "models.force_series",
        observe=lambda a, _k, _r: rec.add("force_series.order", a[2].shape[0] - 1),
    )
    method(model_classes, "hamiltonian", "models.hamiltonian")
    method([models.RealChart], "to_real", "models.chart")
    method([models.RealChart], "from_real", "models.chart")

    method([rk.Stepper], "__init__", "rk.stepper_init")
    method([rk.Stepper], "step", "rk.step")
    method([rk.Stepper], "solve_stages", "rk.solve_stages", observe=stage_result)

    function(
        hjet.expand_step_map, "hjet.expand",
        observe=lambda _a, _k, jet: rec.add("expand.order", jet.order),
    )
    function(hjet.fd_directional, "hjet.fd_directional")

    method([bea.ModifiedField], "coefficient", "bea.coefficient")
    method([bea.ModifiedField], "series_eval", "bea.series_eval")
    function(bea.modified_flow, "bea.modified_flow")
    bea.solve_ivp = rec.counter(
        bea.solve_ivp, lambda _a, _k, sol: rec.add("modified_flow.nfev", sol.nfev)
    )
    function(bea.modified_hamiltonian_eval, "bea.htilde", merge=True)
    function(bea.modified_hamiltonian_terms, "bea.htilde", merge=True)
    function(bea.gradient_consistency, "bea.gradcons")

    function(hconfig.load_config, "harness.config", merge=True)
    for attr in ("resolve_model", "make_grid", "make_tableau"):
        method([hconfig.ExperimentConfig], attr, "harness.config", merge=True)
    function(hconfig.build_initial_state, "harness.initial")
    for key, study in list(cli._STUDIES.items()):
        wrapped = rec.wrap(study, "harness.study")
        _replace_bindings(study, wrapped)
        cli._STUDIES[key] = wrapped
    return rec
