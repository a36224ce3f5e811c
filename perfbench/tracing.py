"""Span tracing of mixlab from outside the program.

:func:`install` replaces every public function of the package's modules
(and the public methods of its classes) with a wrapper that records a
span (name, start, end, parent) in memory.  A wrapper is bound under
every name that bound the original: the defining module, modules that
imported the name directly (``coupling.build_kernel``,
``cli.parse_config``, ...), the package namespace, and the runner table
``experiments._RUNNERS``.  Nothing is wrapped unless :func:`install` is
called, so untraced runs execute the program unchanged.

Counters are computed from call arguments and return values by the
hooks in ``_HOOKS``; they are not measured inside the program.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import time

import numpy as np

#: The package's modules, i.e. the layers of the benchmark.
LAYERS = (
    "cli", "config", "experiments", "lumped", "coupling",
    "walk", "bounds", "exclusion", "records", "rng",
)

#: Public functions that are not wrapped.  ``records.render`` is the
#: serialization boundary and these run inside it, once per cell or per
#: record; wrapping them would move render's work out of its self time.
#: ``check_distribution`` is evolve's argument validation, run on every
#: one of its calls.
_UNWRAPPED = {
    "records.format_cell", "records.to_csv_text", "records.to_json_text",
    "lumped.check_distribution",
}


def _arg(args, kwargs, index, name, default=None):
    if len(args) > index:
        return args[index]
    return kwargs.get(name, default)


def _add(counters, key, value):
    counters[key] = counters.get(key, 0) + value


def _evolve(counters, args, kwargs, result, defaults):
    steps = int(_arg(args, kwargs, 2, "steps"))
    _add(counters, "lumped.evolve.state_steps", steps * _arg(args, kwargs, 1, "kernel").size)


def _merge(counters, args, kwargs, result, defaults):
    _add(counters, "coupling.merge_time_samples.replica_steps",
         int(np.minimum(result.tau, result.t_cap).sum()))
    _add(counters, "coupling.merge_time_samples.merged", int(result.merged.sum()))
    _add(counters, "coupling.merge_time_samples.replicas", int(result.tau.size))


def _hitting(counters, args, kwargs, result, defaults):
    times, hit = result
    t_cap = int(_arg(args, kwargs, 1, "t_cap"))
    _add(counters, "walk.hitting_time_samples.replica_steps", int(np.minimum(times, t_cap).sum()))
    _add(counters, "walk.hitting_time_samples.hits", int(hit.sum()))
    _add(counters, "walk.hitting_time_samples.replicas", int(times.size))


def _survival(counters, args, kwargs, result, defaults):
    _add(counters, "walk.survival_exact.steps", int(_arg(args, kwargs, 1, "steps")))


def _collector(counters, args, kwargs, result, defaults):
    block = int(_arg(args, kwargs, 3, "block", defaults["block"]))
    tau = np.asarray(result, dtype=np.int64)
    _add(counters, "bounds.single_draw_collection_samples.draws_useful", int(tau.sum()))
    _add(counters, "bounds.single_draw_collection_samples.draws_issued",
         int((-(-tau // block) * block).sum()))


def _render(counters, args, kwargs, result, defaults):
    _add(counters, "records.render.bytes", len(result.encode("utf-8")))


#: Counts derived from arguments and return values, not measured.
COMPUTED = {
    "lumped.evolve.state_steps",
    "coupling.merge_time_samples.replica_steps",
    "walk.hitting_time_samples.replica_steps",
    "walk.survival_exact.steps",
    "bounds.single_draw_collection_samples.draws_useful",
    "bounds.single_draw_collection_samples.draws_issued",
    "records.render.bytes",
}

_HOOKS = {
    "lumped.evolve": _evolve,
    "coupling.merge_time_samples": _merge,
    "walk.hitting_time_samples": _hitting,
    "walk.survival_exact": _survival,
    "bounds.single_draw_collection_samples": _collector,
    "records.render": _render,
}


class SpanLog:
    """In-memory span store; one entry per traced call, in call order."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.ids: list[int] = []
        self.starts: list[int] = []
        self.ends: list[int] = []
        self.parents: list[int] = []
        self.stack: list[int] = [-1]
        self.counters: dict[str, int] = {}
        self.pass_counters: list[dict[str, int]] = []
        self.pass_bounds: list[int] = [0]

    def wrap(self, name: str, fn):
        """Return ``fn`` wrapped so that each call records a span."""
        name_id = len(self.names)
        self.names.append(name)
        ids, starts, ends, parents, stack = (
            self.ids, self.starts, self.ends, self.parents, self.stack
        )
        counters = self.counters
        hook = _HOOKS.get(name)
        defaults = {
            p.name: p.default
            for p in inspect.signature(fn).parameters.values()
            if p.default is not inspect.Parameter.empty
        }
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(starts)
            ids.append(name_id)
            parents.append(stack[-1])
            starts.append(0)
            ends.append(0)
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                starts[index] = start
                ends[index] = end
            if hook is not None:
                hook(counters, args, kwargs, result, defaults)
            return result

        return traced

    def mark(self) -> int:
        """Index of the next span (to delimit one operation's spans)."""
        return len(self.starts)

    def end_pass(self) -> None:
        self.pass_bounds.append(len(self.starts))
        self.pass_counters.append(dict(self.counters))
        self.counters.clear()

    def save(self, path: str) -> None:
        """Write every span and the per-pass counters (npz plus JSON header)."""
        header = json.dumps({
            "names": self.names,
            "pass_bounds": self.pass_bounds,
            "pass_counters": self.pass_counters,
        })
        np.savez(
            path,
            header=np.array(header),
            ids=np.asarray(self.ids, dtype=np.int32),
            starts=np.asarray(self.starts, dtype=np.int64),
            ends=np.asarray(self.ends, dtype=np.int64),
            parents=np.asarray(self.parents, dtype=np.int64),
        )


def install(package) -> SpanLog:
    """Wrap the public functions and methods of every layer of ``package``.

    Returns the :class:`SpanLog` the wrappers write to.
    """
    log = SpanLog()
    modules = {
        layer: importlib.import_module(f"{package.__name__}.{layer}") for layer in LAYERS
    }
    namespaces = [package, *modules.values()]
    experiments = modules["experiments"]
    runner_kind = {fn: kind for kind, fn in experiments._RUNNERS.items()}
    replaced = {}
    for layer, module in modules.items():
        for attr, obj in list(vars(module).items()):
            if attr.startswith("_"):
                continue
            if inspect.isfunction(obj) and obj.__module__ == module.__name__:
                kind = runner_kind.get(obj)
                name = f"experiments.{kind}" if kind else f"{layer}.{attr}"
                if name not in _UNWRAPPED:
                    replaced[obj] = log.wrap(name, obj)
            elif inspect.isclass(obj) and obj.__module__ == module.__name__:
                for meth, fn in list(vars(obj).items()):
                    if not meth.startswith("_") and inspect.isfunction(fn):
                        setattr(obj, meth, log.wrap(f"{layer}.{attr}.{meth}", fn))
    for namespace in namespaces:
        for attr, obj in list(vars(namespace).items()):
            if inspect.isfunction(obj) and obj in replaced:
                setattr(namespace, attr, replaced[obj])
    for kind, fn in experiments._RUNNERS.items():
        experiments._RUNNERS[kind] = replaced[fn]
    return log


def self_times(starts: np.ndarray, ends: np.ndarray, parents: np.ndarray) -> np.ndarray:
    """Self time of each span: its duration minus its direct children's.

    Spans of one thread nest, so the children of a span cover disjoint
    parts of it and their durations add up to the part they cover.
    ``parents`` holds the index of each span's parent, -1 for a root.
    """
    durations = (ends - starts).astype(np.float64)
    nested = parents >= 0
    covered = np.bincount(parents[nested], weights=durations[nested], minlength=durations.size)
    return durations - covered


def load(path: str) -> dict:
    with np.load(path) as data:
        header = json.loads(str(data["header"]))
        header.update({key: data[key] for key in ("ids", "starts", "ends", "parents")})
    return header


def pass_tables(spans: dict) -> list[dict[str, dict[str, float]]]:
    """Per pass: for each span name, its call count and self time in seconds."""
    names = spans["names"]
    own = self_times(spans["starts"], spans["ends"], spans["parents"])
    bounds = spans["pass_bounds"]
    tables = []
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        ids = spans["ids"][lo:hi]
        calls = np.bincount(ids, minlength=len(names))
        seconds = np.bincount(ids, weights=own[lo:hi], minlength=len(names)) * 1e-9
        tables.append({
            name: {"calls": int(calls[i]), "self_s": float(seconds[i])}
            for i, name in enumerate(names)
        })
    return tables


def root_coverage(spans: dict, lo: int, hi: int, seconds: float) -> float:
    """Share of an operation's measured time covered by its root spans."""
    roots = spans["parents"][lo:hi] < 0
    covered = (spans["ends"][lo:hi][roots] - spans["starts"][lo:hi][roots]).sum() * 1e-9
    return float(covered / seconds) if seconds > 0 else 0.0


def layer_metrics(table: dict[str, dict[str, float]], counters: dict[str, int]) -> dict[str, float]:
    """The per-layer metrics of one traced pass.

    Every function's self time and call count appear as
    ``<name>.self_s`` and ``<name>.calls``; derived rates and ratios are
    added for the samplers and the exact engine.  A rate or ratio whose
    denominator is zero (the layer is idle in this workload) reads 0.
    """
    out: dict[str, float] = {}
    for name, row in table.items():
        out[f"{name}.self_s"] = row["self_s"]
        out[f"{name}.calls"] = row["calls"]
    for key in COMPUTED:
        out[key] = counters.get(key, 0)

    def ratio(num, den, scale=1.0):
        return scale * num / den if den else 0.0

    def c(key):
        return counters.get(key, 0)

    def s(name):
        return table.get(name, {}).get("self_s", 0.0)

    out["lumped.evolve.ns_per_state_step"] = ratio(
        s("lumped.evolve"), c("lumped.evolve.state_steps"), 1e9)
    merge = "coupling.merge_time_samples"
    out[f"{merge}.ns_per_replica_step"] = ratio(s(merge), c(f"{merge}.replica_steps"), 1e9)
    out[f"{merge}.merged_ratio"] = ratio(c(f"{merge}.merged"), c(f"{merge}.replicas"))
    hitting = "walk.hitting_time_samples"
    out[f"{hitting}.hit_ratio"] = ratio(c(f"{hitting}.hits"), c(f"{hitting}.replicas"))
    coll = "bounds.single_draw_collection_samples"
    out[f"{coll}.draw_efficiency"] = ratio(c(f"{coll}.draws_useful"), c(f"{coll}.draws_issued"))
    out[f"{coll}.ns_per_draw_issued"] = ratio(s(coll), c(f"{coll}.draws_issued"), 1e9)
    return out
