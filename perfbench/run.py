"""comb-ranger benchmark: one workload, one run.

    python3 perfbench/run.py --workload {design_scan,mc_stream,cli_export}
                             --seed N --seconds S --trace {0,1}

Run from the root of a checkout; the package is imported from its `src/`.
The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics: the end-to-end metrics with
--trace 0, the per-layer metrics of a separate traced run with --trace 1.
The lines before it print every metric with its unit, the workload's own
names for them, and the provenance of the run; the full record goes to
.perfbench_out/.  See perfbench/NOTES.md for why each workload exists.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

import workloads

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SCRATCH = os.path.join(ROOT, ".perfbench_out")
WORKER = os.path.join(os.path.dirname(os.path.abspath(__file__)), "worker.py")

# An untraced run is split over this many worker processes, one after the
# other, each measuring for seconds / WORKERS.  Each pays its own set-up, so
# set-up is a median of WORKERS samples; and the pooled latencies average
# over per-process states (such as whether large arrays got huge pages)
# that otherwise shift a whole run.
WORKERS = 4
# worker k starts at operation k * WORKER_STRIDE, so no two workers of a run
# repeat an input
WORKER_STRIDE = 1_000_000


class BenchError(RuntimeError):
    pass


def spawn_worker(args, seconds: float, first: int, env: dict) -> tuple[float, dict, int]:
    """Run one worker from operation `first` on; (set-up s, result, peak RSS KiB)."""
    argv = [sys.executable, WORKER, args.workload, str(args.seed), str(seconds),
            str(args.trace), args.size, ROOT, SCRATCH, str(first)]
    t0 = time.perf_counter()
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, env=env, text=True)
    ready = proc.stdout.readline()
    setup_s = time.perf_counter() - t0
    rest = proc.stdout.read()
    proc.stdout.close()
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0 or ready.strip() != "READY":
        raise BenchError(f"worker for {args.workload} exited with {proc.returncode}")
    return setup_s, json.loads(rest.strip().splitlines()[-1]), usage.ru_maxrss


def end_to_end(args, env: dict) -> tuple[dict, dict]:
    runs = [spawn_worker(args, args.seconds / WORKERS, k * WORKER_STRIDE, env)
            for k in range(WORKERS)]
    setups = [setup_s for setup_s, _, _ in runs]
    results = [res for _, res, _ in runs]
    lat = [x for res in results for x in res["latencies_s"]]
    ref = [x for res in results for x in res["reference_s"]]
    rel = [x / r for x, r in zip(lat, ref)]
    total = {key: sum(res[key] for res in results)
             for key in ("attempted", "failed", "items", "refusals", "purify_attempts",
                         "false_alarms")}
    if args.workload == "cli_export":
        rss_kb = [kb for res in results for kb in res["child_maxrss_kb"]]
    else:
        rss_kb = [kb for _, _, kb in runs]
    rss_mb = statistics.median(rss_kb) / 1024.0
    deciles = statistics.quantiles(lat, n=10) if len(lat) > 1 else lat * 9
    p10, p50, p90 = deciles[0], statistics.median(lat), deciles[8]
    items_per_s = total["items"] / sum(lat)
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "op_p50_rel": (statistics.median(rel), "ref"),
        "op_mean_rel": (sum(lat) / sum(ref), "ref"),
        "peak_rss_mb": (rss_mb, "MB"),
    }
    named = {
        "design_scan": {
            "designs_per_s": (items_per_s, "1/s"),
            "design_p50_ms": (1e3 * p50, "ms"),
            "design_p90_ms": (1e3 * p90, "ms"),
            "detection.refusals": (total["refusals"], "count"),
            "purify_attempts": (total["purify_attempts"], "count"),
        },
        "mc_stream": {
            "samples_per_s": (items_per_s, "1/s"),
            "purified_3sigma_false_alarms": (total["false_alarms"], "count"),
        },
        "cli_export": {
            "export_p50_s": (p50, "s"),
            "csv_rows_per_s": (items_per_s, "1/s"),
        },
    }[args.workload]
    named.update(metrics)
    named["op_p10_ms"] = (1e3 * p10, "ms")
    named["op_p50_ms"] = (1e3 * p50, "ms")
    named["op_p90_ms"] = (1e3 * p90, "ms")
    named["reference_p50_ms"] = (1e3 * statistics.median(ref), "ms")
    named["error_rate"] = (total["failed"] / total["attempted"], "ratio")
    record = {
        "attempted": total["attempted"],
        "failed": total["failed"],
        "errors": [e for res in results for e in res["errors"]][:5],
        "provenance": results[0]["provenance"],
        "operations": len(lat),
        "setup_s_each": setups,
        "named": named,
        "latencies_s": lat,
        "reference_s": ref,
    }
    return metrics, record


def traced(args, env: dict) -> tuple[dict, dict]:
    _, res, _ = spawn_worker(args, args.seconds, 0, env)
    return {k: tuple(v) for k, v in res.pop("per_layer").items()}, res


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    parser.add_argument("--size", default="full", choices=tuple(workloads.SIZES),
                        help="tiny shrinks the operations, for the self-test")
    args = parser.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "src", "comb_ranger", "__init__.py")):
        print(f"error: no comb_ranger package under {ROOT}/src", file=sys.stderr)
        return 2
    os.makedirs(SCRATCH, exist_ok=True)
    env = workloads.child_env(ROOT)
    # compile the package's bytecode once, so no set-up pays for it
    subprocess.run([sys.executable, "-c", "import comb_ranger.cli"], env=env, check=True)

    try:
        metrics, record = (traced if args.trace else end_to_end)(args, env)
    except (BenchError, subprocess.CalledProcessError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    record["provenance"]["git_commit"] = git_commit()
    for name, (value, unit) in sorted(record.get("named", metrics).items()):
        print(f"{args.workload} {name} = {value:.6g} {unit}")
    if args.trace:
        print(f"{args.workload} trace overhead = {metrics['trace.overhead_s'][0]:.4f} s "
              f"({metrics['trace.overhead_pct'][0]:.1f} %)")
    for reason in record["errors"]:
        print(f"{args.workload} failure: {reason}")
    print(f"# provenance: {json.dumps(record['provenance'], sort_keys=True)}")
    name = f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_path = os.path.join(SCRATCH, name)
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump({"args": vars(args), "metrics": metrics, **record}, fh, indent=1)

    print(json.dumps({
        "correct": record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


def git_commit() -> str:
    """HEAD of the checkout, or "unknown" when it is not a git work tree."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                             capture_output=True, text=True, check=True)
    except (OSError, subprocess.CalledProcessError):
        return "unknown"
    return out.stdout.strip()


if __name__ == "__main__":
    sys.exit(main())
