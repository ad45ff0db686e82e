"""Span tracer for the benchmark's traced run.

The package has no tracing of its own, so the traced run wraps its public
functions and methods from the outside. Modules import each other by name
(`from .linop import resolvent`), so every `nonauto.*` namespace that binds a
wrapped function gets the wrapper, not only the defining module; methods are
patched on the classes that define them.

Spans live in memory as parallel lists (name, start, end, parent) and are
written once, when the run ends. A layer's self time is its span minus the
spans directly under it. A call into a layer from inside the same layer (a
scaled family delegating to its base, say) joins the open span instead of
opening a new one, so calls and self time count the outer call once.
"""
from __future__ import annotations

import functools
import json
import math
import os
import sys
import time
from collections import defaultdict

import numpy as np

SOLVE = "bench.solve"
COUNT = "trace.count"
CRITERIA = tuple(f"criterion_{i:02d}" for i in range(1, 14))

# expm_stack histogram edges: stack sizes {1, 2-64, 65-4096, >4096} and
# dimensions {1-4, 5-32, 33-256, >256}.
SIZE_BUCKETS = ((1, "k1"), (64, "k2_64"), (4096, "k65_4096"), (math.inf, "k4097up"))
DIM_BUCKETS = ((4, "d1_4"), (32, "d5_32"), (256, "d33_256"), (math.inf, "d257up"))
# Order-13 Pade threshold of semigroup.expm_stack; the counter recomputes the
# squaring count from it.
PADE13_THETA = 5.371920351148152
# Computed traffic model for one matrix of an expm_stack call: the Pade
# stage streams 24 stack-sized arrays (six products, the polynomial sums
# and the solve), and each squaring reads two and writes one.
PADE_PASSES = 24
SQUARING_PASSES = 3


def _bucket(value, buckets) -> str:
    return next(label for edge, label in buckets if value <= edge)


class Tracer:
    """In-memory spans plus per-layer counters, filled by wrapped callables."""

    def __init__(self):
        self.names: list = []
        self.starts: list = []
        self.ends: list = []
        self.parents: list = []
        self._open: list = []
        self.counts = defaultdict(float)
        self.hist = defaultdict(int)
        self._patched: list = []

    # -- recording ---------------------------------------------------------

    def _enter(self, name: str) -> int:
        idx = len(self.names)
        self.names.append(name)
        self.parents.append(self._open[-1] if self._open else -1)
        self.ends.append(0)
        self._open.append(idx)
        self.starts.append(time.perf_counter_ns())
        return idx

    def _exit(self, idx: int) -> None:
        self.ends[idx] = time.perf_counter_ns()
        self._open.pop()

    def run(self, name: str, fn, *args, **kwargs):
        """Call fn inside a span called name."""
        idx = self._enter(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self._exit(idx)

    def wrap(self, name: str, fn, count=None, enter=None):
        """fn wrapped in a span; count(tracer, args, kwargs, result, exc, state) runs after it.

        enter(tracer, args, kwargs) may return state for count. Both run in
        their own spans beside the wrapped one, so they add to tracing
        overhead and not to any layer's self time.
        """
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer._open and tracer.names[tracer._open[-1]] == name:
                return fn(*args, **kwargs)
            state = tracer.run(COUNT, enter, tracer, args, kwargs) if enter else None
            idx = tracer._enter(name)
            result, error = None, None
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as exc:
                error = exc
                raise
            finally:
                tracer._exit(idx)
                if count is not None:
                    tracer.run(COUNT, count, tracer, args, kwargs, result, error, state)

        return wrapper

    # -- patching ----------------------------------------------------------

    def patch_function(self, module_name: str, attr: str, name: str, count=None, enter=None) -> None:
        """Rebind module_name.attr to a wrapper in every nonauto namespace bound to it."""
        original = getattr(sys.modules[module_name], attr)
        wrapper = self.wrap(name, original, count, enter)
        for mod_name, mod in sorted(sys.modules.items()):
            if mod is None or not (mod_name == "nonauto" or mod_name.startswith("nonauto.")):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._set(mod, key, wrapper)
                elif isinstance(value, tuple) and any(v is original for v in value):
                    self._set(mod, key, tuple(wrapper if v is original else v for v in value))

    def patch_method(self, cls, attr: str, name: str, count=None, enter=None) -> None:
        self._set(cls, attr, self.wrap(name, cls.__dict__[attr], count, enter))

    def _set(self, owner, key, value) -> None:
        self._patched.append((owner, key, vars(owner)[key]))
        setattr(owner, key, value)

    def uninstall(self) -> None:
        for owner, key, value in reversed(self._patched):
            setattr(owner, key, value)
        self._patched.clear()

    # -- results -----------------------------------------------------------

    def self_times(self) -> dict:
        """Seconds of self time per span name."""
        starts = np.asarray(self.starts, dtype=np.int64)
        ends = np.asarray(self.ends, dtype=np.int64)
        parents = np.asarray(self.parents, dtype=np.int64)
        dur = ends - starts
        child = np.zeros(len(dur), dtype=np.int64)
        has_parent = parents >= 0
        np.add.at(child, parents[has_parent], dur[has_parent])
        out = defaultdict(float)
        for name, own in zip(self.names, (dur - child).tolist()):
            out[name] += own * 1e-9
        return out

    def inclusive_times(self) -> dict:
        out = defaultdict(float)
        for name, start, end in zip(self.names, self.starts, self.ends):
            out[name] += (end - start) * 1e-9
        return out

    def calls(self) -> dict:
        out = defaultdict(int)
        for name in self.names:
            out[name] += 1
        return out

    def write(self, path: str) -> None:
        """All spans as JSON Lines: name, start_ns, end_ns, parent index."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as fh:
            for i, name in enumerate(self.names):
                fh.write(json.dumps({"i": i, "name": name, "start_ns": self.starts[i],
                                     "end_ns": self.ends[i], "parent": self.parents[i]}) + "\n")


# -- counters -------------------------------------------------------------


def _count_expm_stack(tr, args, kwargs, result, exc, state):
    mats = np.asarray(args[0] if args else kwargs["mats"])
    if mats.ndim != 3 or mats.shape[0] == 0:
        return
    k, d = mats.shape[0], mats.shape[-1]
    c = tr.counts
    c["semigroup.expm_stack.mats"] += k
    c["semigroup.expm_stack.single_calls"] += k == 1
    c[f"semigroup.expm_stack.calls.{_bucket(k, SIZE_BUCKETS)}"] += 1
    c[f"semigroup.expm_stack.mats.{_bucket(d, DIM_BUCKETS)}"] += k
    tr.hist[(_bucket(k, SIZE_BUCKETS), _bucket(d, DIM_BUCKETS))] += k
    if not np.all(np.isfinite(mats)):
        return
    squarings = 0.0
    for lo in range(0, k, 1024):
        norms = np.abs(mats[lo : lo + 1024]).sum(axis=1).max(axis=1)
        squarings += float(np.ceil(np.log2(np.maximum(norms, PADE13_THETA) / PADE13_THETA)).sum())
    # Six products, an LU solve with d right-hand sides, then the squarings.
    flops = (12.0 + 8.0 / 3.0) * k * d**3 + 2.0 * d**3 * squarings
    c["semigroup.expm_stack.gflop_computed"] += flops * 1e-9
    c["semigroup.expm_stack.mb_computed"] += 8.0 * d * d * (PADE_PASSES * k + SQUARING_PASSES * squarings) * 1e-6


def _count_resolvent(tr, args, kwargs, result, exc, state):
    from nonauto.errors import SingularResolvent

    if isinstance(exc, SingularResolvent):
        tr.counts["linop.resolvent.rejected"] += 1


def _count_anorm_build(tr, args, kwargs, result, exc, state):
    evaluator = args[0]
    if exc is None:
        tr.counts["metrics.anorm_build.mu_kept"] += evaluator.total - evaluator.skipped
        tr.counts["metrics.anorm_build.mu_grid"] += evaluator.total


def _count_norm_of(tr, args, kwargs, result, exc, state):
    kind = args[1] if len(args) > 1 else kwargs.get("norm_kind")
    if getattr(kind, "value", None) == "2":
        tr.counts["linop.norm_of.two_calls"] += 1


def _length_of_arg(key: str, index: int):
    """Counter adding len(args[index]); the stacks and grids below are passed positionally."""

    def count(tr, args, kwargs, result, exc, state):
        tr.counts[key] += len(args[index])

    return count


def _count_sweep_point(tr, args, kwargs, result, exc, state):
    tr.counts["metrics.anorm_eval.mats"] += 1


def _count_polygon(tr, args, kwargs, result, exc, state):
    partition = args[3] if len(args) > 3 else kwargs["partition"]
    tr.counts["evofam.polygon_build.cells"] += partition.cells


def _refine_enter(tr, args, kwargs):
    return tr.counts["evofam.polygon_build.cells"]


def _count_refine(tr, args, kwargs, result, exc, state):
    if exc is None:
        tr.counts["evofam.refine.levels"] += len(result.levels)
        tr.counts["evofam.refine.final_cells"] += result.approx.partition.cells
        tr.counts["evofam.refine.built_cells"] += tr.counts["evofam.polygon_build.cells"] - state


def _io_count(path_of, before: bool):
    def enter(tr, args, kwargs):
        path = path_of(args, kwargs)
        return path, (os.path.getsize(path) if before and os.path.exists(path) else 0)

    def count(tr, args, kwargs, result, exc, state):
        path, size = state
        tr.counts["cli.io.files"] += 1
        tr.counts["cli.io.bytes"] += size if before else (os.path.getsize(path) if os.path.exists(path) else 0)

    return enter, count


def install(tracer: Tracer) -> None:
    """Wrap every traced layer of the imported nonauto package."""
    # Every module must be loaded before patching, so that each namespace
    # that binds a traced function is rebound.
    import nonauto.acceptance
    import nonauto.cli  # noqa: F401
    from nonauto import evofam, metrics

    fn = tracer.patch_function
    fn("nonauto.semigroup", "expm_stack", "semigroup.expm_stack", _count_expm_stack)
    fn("nonauto.semigroup", "expm", "semigroup.expm")
    fn("nonauto.semigroup", "fit_growth_bound", "semigroup.fit_growth_bound")
    fn("nonauto.linop", "resolvent", "linop.resolvent", _count_resolvent)
    fn("nonauto.linop", "norm_of", "linop.norm_of", _count_norm_of)
    fn("nonauto.linop", "two_norm_stack", "linop.two_norm_stack", _length_of_arg("linop.two_norm_stack.mats", 0))
    fn("nonauto.evofam", "refine_to_tolerance", "evofam.refine", _count_refine, _refine_enter)
    fn("nonauto.dichotomy", "check_hyperbolic", "dichotomy.check_hyperbolic")
    fn("nonauto.dichotomy", "roughness_sweep", "dichotomy.roughness_sweep")
    fn("nonauto.metrics", "yosida_distance", "metrics.yosida_distance")
    fn("nonauto.metrics", "check_assumptions", "metrics.check_assumptions")
    fn("nonauto.examples", "scaled_resolvent_sweep", "examples.scaled_resolvent_sweep",
       _length_of_arg("examples.scaled_resolvent_sweep.mus", 3))
    fn("nonauto.examples", "verify_example_bounds", "examples.verify_example_bounds")
    for name in CRITERIA:
        fn("nonauto.acceptance", name, f"acceptance.{name}")

    tracer.patch_method(metrics.ANormEvaluator, "__init__", "metrics.anorm_build", _count_anorm_build)
    tracer.patch_method(metrics.ANormEvaluator, "value_stack", "metrics.anorm_eval",
                        _length_of_arg("metrics.anorm_eval.mats", 1))
    tracer.patch_method(metrics.ANormEvaluator, "sweep", "metrics.anorm_eval", _count_sweep_point)
    for cls in (evofam.PerturbationFamily, *_subclasses(evofam.PerturbationFamily)):
        if "values_stack" in cls.__dict__:
            tracer.patch_method(cls, "values_stack", "evofam.values_stack",
                                _length_of_arg("evofam.values_stack.points", 1))
    tracer.patch_method(evofam.EvolutionFamilyApprox, "__init__", "evofam.polygon_build", _count_polygon)
    tracer.patch_method(evofam.EvolutionFamilyApprox, "evaluate", "evofam.evaluate")

    first = lambda args, kwargs: args[0]  # noqa: E731
    for module, attr, path_of, before in (
        ("nonauto.cli", "_write_csv", first, False),
        ("nonauto.cli", "_write_json", first, False),
        ("nonauto.linop", "write_matrix", first, False),
        ("nonauto.linop", "read_matrix", first, True),
        ("nonauto.cli", "_load_config", lambda args, kwargs: args[0].config, True),
    ):
        enter, count = _io_count(path_of, before)
        fn(module, attr, "cli.io", count, enter)


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


def layer_metrics(tracer: Tracer, rounds: int) -> dict:
    """Per-layer figures of one traced pass, keyed by metric name.

    Counts and seconds are per round of the batch: every round runs the same
    jobs, so they compare across versions however many rounds fit in the
    run. Each layer's self time is also given as a share of the traced
    solves, `<layer>.self_share`, which stays a measured number when a
    workload never enters the layer (share 0) and needs no run length to
    compare. A layer the pass never entered has no key here.
    """
    self_s = tracer.self_times()
    incl = tracer.inclusive_times()
    out = dict(tracer.counts)
    out.update({f"{name}.calls": n for name, n in tracer.calls().items()})
    out.update({f"{name}.self_s": t for name, t in self_s.items()})
    out.update({f"{name}.s": t for name, t in incl.items() if name.startswith("acceptance.")})
    out["trace.unattributed_s"] = self_s.get(SOLVE, 0.0)
    out["trace.count_s"] = incl.get(COUNT, 0.0)
    out = {k: v / rounds for k, v in out.items()}
    solves = incl[SOLVE]
    out.update({f"{name}.self_share": t / solves for name, t in self_s.items()})
    out.update({f"{name}.share": t / solves for name, t in incl.items() if name.startswith("acceptance.")})
    out["trace.unattributed_share"] = self_s.get(SOLVE, 0.0) / solves
    grid = tracer.counts["metrics.anorm_build.mu_grid"]
    out["metrics.anorm_build.mu_kept_share"] = tracer.counts["metrics.anorm_build.mu_kept"] / grid if grid else 1.0
    built = tracer.counts["evofam.refine.built_cells"]
    out["evofam.refine.final_cell_share"] = tracer.counts["evofam.refine.final_cells"] / built if built else 0.0
    return out


def histogram(tracer: Tracer) -> dict:
    """expm_stack matrices by stack-size and dimension bucket."""
    return {f"{k}.{d}": n for (k, d), n in sorted(tracer.hist.items())}
