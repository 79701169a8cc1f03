"""One benchmark process: set up a workload, then measure it.

    worker.py WORKLOAD SEED SECONDS TRACE SIZE ROOT SCRATCH FIRST

Set-up is the import of the package, input generation and one warm-up
operation; the worker prints READY when it is done, so the parent can time
set-up from process start.  It then measures for SECONDS, starting at
operation FIRST of the workload's sequence, and prints its result as one
JSON line:

TRACE 0  every operation untraced, each followed by the workload's
         reference computation (yardstick.py); latencies and throughput.
TRACE 1  every input runs twice, untraced and traced; the spans give the
         per-layer metrics, and the difference in wall time is the
         tracing overhead.
"""

from __future__ import annotations

import ctypes
import glob
import json
import os
import platform
import subprocess
import sys
import time

import tracing
import workloads
import yardstick

_IMPORT_PROBES = 3
_MAX_ERRORS_SHOWN = 5


def _import_time(env: dict) -> float:
    code = (
        "import time; t = time.perf_counter(); import comb_ranger.cli; "
        "print(time.perf_counter() - t)"
    )
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         check=True, text=True)
    return float(out.stdout)


def blas_threads() -> int | str:
    """Threads of numpy's bundled OpenBLAS, asked of the library itself."""
    import numpy

    libs = os.path.join(os.path.dirname(os.path.dirname(numpy.__file__)), "numpy.libs")
    for path in glob.glob(os.path.join(libs, "*openblas*")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            if hasattr(lib, symbol):
                return int(getattr(lib, symbol)())
    return f"unknown (OPENBLAS_NUM_THREADS={os.environ.get('OPENBLAS_NUM_THREADS')})"


def provenance(seed: int) -> dict:
    import numpy

    try:
        llc = subprocess.run(["getconf", "LEVEL3_CACHE_SIZE"], capture_output=True,
                             text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        llc = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas_threads": blas_threads(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "llc_bytes": llc,
        "workload_seed": seed,
    }


class Tally:
    """Attempted and failed operations, with the first few failure reasons."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def run(self, wl, inp):
        """Run one operation; (output or None on an exception, latency in s)."""
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            out = wl.op(inp)
        except Exception as exc:  # any exception other than a refusal is a failure
            latency = time.perf_counter() - t0
            self.fail(f"{type(exc).__name__}: {exc}")
            return None, latency
        return out, time.perf_counter() - t0

    def check(self, wl, out) -> None:
        problems = wl.check(out) if out is not None else []
        if problems:
            self.fail("; ".join(problems))

    def fail(self, reason: str) -> None:
        self.failed += 1
        if len(self.errors) < _MAX_ERRORS_SHOWN:
            self.errors.append(reason)


def measure(wl, seconds: float, first: int, reference) -> dict:
    """Time each operation, then the reference computation beside it."""
    tally = Tally()
    latencies, ref_s, items, rss_kb, false_alarms = [], [], 0, [], 0
    deadline = time.perf_counter() + seconds
    i = first
    while time.perf_counter() < deadline:
        out, latency = tally.run(wl, wl.inputs(i))
        latencies.append(latency)
        t0 = time.perf_counter()
        reference()
        ref_s.append(time.perf_counter() - t0)
        if out is not None:
            items += wl.items(out)
            if isinstance(out, workloads.Export):
                rss_kb.append(out.maxrss_kb)
            elif isinstance(wl, workloads.McStream):
                false_alarms += workloads.false_alarm(*out)
        tally.check(wl, out)
        i += 1
    return {
        "attempted": tally.attempted,
        "failed": tally.failed,
        "errors": tally.errors,
        "latencies_s": latencies,
        "reference_s": ref_s,
        "items": items,
        "child_maxrss_kb": rss_kb,
        "refusals": getattr(wl, "refusals", 0),
        "purify_attempts": getattr(wl, "purify_attempts", 0),
        "false_alarms": false_alarms,
    }


def measure_traced(wl, seconds: float, first: int, env: dict, spans_path: str) -> dict:
    """Run each input twice, untraced and traced, alternating which goes first,
    so that drift in the host's speed cancels out of the overhead."""
    tally = Tally()
    rec = tracing.Recorder()
    cli = isinstance(wl, workloads.CliExport)
    walls = {False: 0.0, True: 0.0}
    rows = nbytes = 0
    import_times = []
    ops = 0
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline:
        inp = wl.inputs(first + ops)
        for traced in (False, True) if ops % 2 == 0 else (True, False):
            inst = tracing.install(rec) if traced and not cli else None
            wl.traced = traced
            rec.op = ops if traced else None
            try:
                out, latency = tally.run(wl, inp)
            finally:
                rec.op = None
                wl.traced = False
                if inst is not None:
                    inst.remove()
            walls[traced] += latency
            spans = out.path + ".spans.json" if cli and out is not None else None
            if spans and os.path.exists(spans):
                import_times.append(_merge_child_spans(rec, spans, ops))
            rows0, bytes0 = getattr(wl, "rows_written", 0), getattr(wl, "bytes_written", 0)
            tally.check(wl, out)
            if traced:
                rows += getattr(wl, "rows_written", 0) - rows0
                nbytes += getattr(wl, "bytes_written", 0) - bytes0
        ops += 1
    traced_wall, untraced_wall = walls[True], walls[False]

    if not cli:
        import_times = [_import_time(env) for _ in range(_IMPORT_PROBES)]
    metrics, problems = tracing.layer_metrics(
        rec.spans, rec.counters, ops, traced_wall, untraced_wall, import_times, rows, nbytes
    )
    for p in problems:
        tally.fail(f"trace accounting: {p}")
    rec.dump(spans_path)
    return {
        "attempted": tally.attempted,
        "failed": tally.failed,
        "errors": tally.errors,
        "per_layer": metrics,
    }


def _merge_child_spans(rec: tracing.Recorder, path: str, op: int) -> float:
    """Append one launcher's spans to `rec`; returns its import time."""
    with open(path, encoding="utf-8") as fh:
        child = json.load(fh)
    os.remove(path)
    offset = len(rec.spans)
    import_s = 0.0
    for s in child["spans"]:
        if s[tracing.PARENT] >= 0:
            s[tracing.PARENT] += offset
        s[tracing.OP] = op
        if s[tracing.NAME] == "cli.import":
            import_s = s[tracing.END] - s[tracing.START]
        rec.spans.append(s)
    rec.counters.update(child["counters"])
    return import_s


def main() -> int:
    workload, seed, seconds, trace, size, root, scratch, first = sys.argv[1:9]
    seed, seconds, trace, first = int(seed), float(seconds), int(trace), int(first)
    import comb_ranger.cli  # noqa: F401  (the whole package, as the CLI loads it)

    warm = workloads.make(workload, seed, size, root, scratch)
    warm.check(warm.op(warm.warmup_input()))
    wl = workloads.make(workload, seed, size, root, scratch)
    print("READY", flush=True)
    env = workloads.child_env(root)
    if trace:
        spans_path = os.path.join(scratch, f"spans-{workload}.json")
        result = measure_traced(wl, seconds, first, env, spans_path)
    else:
        reference = yardstick.reference(workload, size, scratch, env)
        reference()  # warm-up, after set-up is timed: it is the benchmark's own cost
        result = measure(wl, seconds, first, reference)
    result["provenance"] = provenance(seed)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
