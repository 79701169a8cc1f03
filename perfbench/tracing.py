"""Span tracing of the comb_ranger layers, installed from outside the package.

`install` replaces every public function of each layer module, and every
public method of the classes a layer defines, by a wrapper that records a
span.  A function is replaced at every name its callers bind: a function
imported with `from .mode_algebra import inner_product` into `detection` is
wrapped as `detection.inner_product` too, and the span is credited to the
layer that defines the function (`mode_algebra`).

Spans live in memory as lists [name, start, end, parent, op, error] and are
written out once, when the run ends.  A span's self time is its duration
minus the durations of its direct children; the interpreter runs one call
at a time, so children never overlap each other.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import statistics
import time
from collections import Counter

LAYERS = (
    "air_model",
    "mode_algebra",
    "dispersion",
    "detection",
    "multicolor",
    "simulator",
    "config",
    "cli",
)

NAME, START, END, PARENT, OP, ERROR = range(6)

# bytes of the float64 arrays simulator.run builds per sample: the (n, 4)
# draw matrix, the (n, 3) perturbations, the signal, the regression design
# (intercept plus one column per fluctuating parameter) and its residual.
# keep_samples adds the (n, 5) sample table.  Computed from the shapes, not
# measured.
_F8 = 8


def simulator_bytes_computed(config, keep_samples: bool) -> int:
    n = config.sample_count
    per_sample = 4 + 3 + 1 + (1 + len(config.fluctuating_labels)) + 1
    if keep_samples:
        per_sample += 5
    return _F8 * n * per_sample


def _count_simulator_run(counters: Counter, args, kwargs) -> None:
    config = args[0] if args else kwargs["config"]
    keep = args[1] if len(args) > 1 else kwargs.get("keep_samples", False)
    counters["simulator.samples"] += config.sample_count
    counters["simulator.bytes_computed"] += simulator_bytes_computed(config, keep)


# counters recorded at the boundary of the named span
_ANNOTATE = {"simulator.run": _count_simulator_run}


class Recorder:
    """In-memory span store for one process."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counters: Counter = Counter()
        self.op: int | None = None

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": self.spans, "counters": dict(self.counters)}, fh)


def _wrap(fn, name: str, rec: Recorder):
    annotate = _ANNOTATE.get(name)
    clock = time.perf_counter

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        stack = rec.stack
        span = [name, 0.0, 0.0, stack[-1] if stack else -1, rec.op, None]
        stack.append(len(rec.spans))
        rec.spans.append(span)
        if annotate is not None:
            annotate(rec.counters, args, kwargs)
        span[START] = clock()
        try:
            return fn(*args, **kwargs)
        except BaseException as exc:
            span[ERROR] = type(exc).__name__
            raise
        finally:
            span[END] = clock()
            stack.pop()

    return wrapper


class Installation:
    """Wrappers installed into the comb_ranger modules; `remove` undoes them."""

    def __init__(self) -> None:
        self._patches: list[tuple[object, str, object]] = []

    def set(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def remove(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()


def install(rec: Recorder) -> Installation:
    """Wrap the public functions and methods of every layer module."""
    package = importlib.import_module("comb_ranger")
    modules = {layer: importlib.import_module(f"comb_ranger.{layer}") for layer in LAYERS}
    binders = list(modules.values()) + [package]
    inst = Installation()
    for layer, mod in modules.items():
        for attr, obj in list(vars(mod).items()):
            if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                continue
            if inspect.isfunction(obj):
                wrapper = _wrap(obj, f"{layer}.{attr}", rec)
                for binder in binders:
                    for bound_name, bound in list(vars(binder).items()):
                        if bound is obj:
                            inst.set(binder, bound_name, wrapper)
            elif inspect.isclass(obj):
                _wrap_methods(obj, f"{layer}.{attr}", rec, inst)
    return inst


def _wrap_methods(cls, prefix: str, rec: Recorder, inst: Installation) -> None:
    for attr, member in list(vars(cls).items()):
        if attr.startswith("_"):
            continue
        name = f"{prefix}.{attr}"
        if isinstance(member, classmethod):
            inst.set(cls, attr, classmethod(_wrap(member.__func__, name, rec)))
        elif isinstance(member, staticmethod):
            inst.set(cls, attr, staticmethod(_wrap(member.__func__, name, rec)))
        elif inspect.isfunction(member):
            inst.set(cls, attr, _wrap(member, name, rec))


def layer_of(span_name: str) -> str:
    return span_name.split(".", 1)[0]


def self_times(spans: list[list]) -> list[float]:
    """Duration of each span minus the durations of its direct children."""
    child = [0.0] * len(spans)
    for s in spans:
        if s[PARENT] >= 0:
            child[s[PARENT]] += s[END] - s[START]
    return [s[END] - s[START] - c for s, c in zip(spans, child)]


def layer_metrics(
    spans: list[list],
    counters: dict,
    ops: int,
    traced_wall_s: float,
    untraced_wall_s: float,
    import_times_s: list[float],
    rows_written: int,
    bytes_written: int,
) -> tuple[dict[str, tuple[float, str]], list[str]]:
    """Per-layer metrics, per traced operation, and the accounting errors.

    The benchmark's own time is the traced wall time not covered by any
    top-level span; the layer self times plus it add up to the wall time,
    which is checked here together with the nesting of every span.
    """
    selfs = self_times(spans)
    problems = []
    if any(t < -1e-9 for t in selfs):
        problems.append("a span is shorter than its children")

    calls: Counter = Counter()
    layer_self: Counter = Counter()
    incl: Counter = Counter()
    span_self: Counter = Counter()
    purify_attempts = purify_ok = refusals = 0
    top_total = 0.0
    for s, t in zip(spans, selfs):
        name, layer = s[NAME], layer_of(s[NAME])
        dur = s[END] - s[START]
        calls[layer] += 1
        layer_self[layer] += t
        incl[name] += dur
        span_self[name] += t
        if s[PARENT] < 0:
            top_total += dur
        if name == "detection.purify":
            purify_attempts += 1
            purify_ok += s[ERROR] is None
            refusals += s[ERROR] == "SeparabilityError"

    bench_self = traced_wall_s - top_total
    accounted = sum(layer_self.values()) + bench_self
    if bench_self < 0 or abs(accounted - traced_wall_s) > 1e-6 * max(1.0, traced_wall_s):
        problems.append(
            f"layer self times {sum(layer_self.values()):.6f} s plus benchmark "
            f"{bench_self:.6f} s do not account for traced wall {traced_wall_s:.6f} s"
        )

    per_op = 1.0 / ops
    m: dict[str, tuple[float, str]] = {}
    for layer in LAYERS:
        m[f"{layer}.calls"] = (calls[layer] * per_op, "calls/op")
        m[f"{layer}.self_s"] = (layer_self[layer] * per_op, "s/op")
    m["detection.oracle_s"] = (incl["detection.numeric_detection_mode"] * per_op, "s/op")
    m["detection.gram_ratio_s"] = (incl["detection.PurifiedSensitivity.build"] * per_op, "s/op")
    m["detection.refusals"] = (refusals * per_op, "refusals/op")
    m["detection.purify_ok_ratio"] = (
        purify_ok / purify_attempts if purify_attempts else 1.0,
        "ratio",
    )
    m["simulator.draws_s"] = (incl["simulator.perturbation_draws"] * per_op, "s/op")
    m["simulator.select_lo_s"] = (incl["simulator.select_lo"] * per_op, "s/op")
    m["simulator.run_self_s"] = (span_self["simulator.run"] * per_op, "s/op")
    m["simulator.samples"] = (counters.get("simulator.samples", 0) * per_op, "samples/op")
    m["simulator.bytes_computed"] = (
        counters.get("simulator.bytes_computed", 0) * per_op,
        "B/op",
    )
    m["config.load_s"] = (incl["config.load_config"] * per_op, "s/op")
    m["cli.import_s"] = (statistics.median(import_times_s), "s")
    m["cli.write_s"] = (span_self["cli.cmd_simulate"] * per_op, "s/op")
    m["cli.rows_written"] = (rows_written * per_op, "rows/op")
    m["cli.bytes_written"] = (bytes_written * per_op, "B/op")
    m["bench.self_s"] = (bench_self * per_op, "s/op")
    m["trace.ops"] = (float(ops), "count")
    m["trace.wall_s"] = (traced_wall_s, "s")
    m["trace.untraced_wall_s"] = (untraced_wall_s, "s")
    m["trace.overhead_s"] = (traced_wall_s - untraced_wall_s, "s")
    m["trace.overhead_pct"] = (100.0 * (traced_wall_s / untraced_wall_s - 1.0), "%")
    return m, problems
