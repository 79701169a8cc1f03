#!/usr/bin/env python3
"""Time the CSV exports and write the figures to BENCH_export.json.

Two measurements, each best of REPEATS (5):

  * in-process: `cli._export_csv` on the tables that `simulate --samples
    100000 --out` and `modes --out` export, beside a printf-style `%` row
    loop (the writer's previous form) on the same tables; the script checks
    that both write the same bytes;
  * whole process: `python -m comb_ranger.cli simulate --samples 100000
    --out`, wall time and the child's peak RSS from os.wait4.

The CLI children are launched first, while this process is still small:
a child's ru_maxrss also counts its parent's resident set at the fork, so
launching them after the tables are built would report this script's peak.

Usage: python scripts/bench_export.py
"""

import json
import os
import platform
import resource
import subprocess
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
SAMPLES = 100_000
SEED = 3
REPEATS = 5


def cli_runs(scratch: str) -> list[dict]:
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env.pop("COMB_RANGER_SEED", None)
    path = os.path.join(scratch, "cli.csv")
    argv = [sys.executable, "-m", "comb_ranger.cli", "simulate", "--seed", str(SEED),
            "--samples", str(SAMPLES), "--out", path]
    runs = []
    for _ in range(REPEATS):
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=subprocess.DEVNULL, env=env)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
        if os.waitstatus_to_exitcode(status) != 0:
            raise SystemExit(f"{' '.join(argv[1:])} failed with status {status}")
        runs.append({"wall_s": wall, "peak_rss_mb": usage.ru_maxrss / 1024})
        os.remove(path)
    return runs


def captured_exports(scratch: str) -> dict:
    """The (header, precisions, table) each CLI export passes to _export_csv."""
    from comb_ranger import cli

    captured = {}
    real = cli._export_csv

    def capture(path, header, precisions, table):
        captured[os.path.basename(path)] = (header, precisions, table)
        real(path, header, precisions, table)

    cli._export_csv = capture
    try:
        for argv in (["simulate", "--seed", str(SEED), "--samples", str(SAMPLES)], ["modes"]):
            out = os.path.join(scratch, f"{argv[0]}.csv")
            with open(os.devnull, "w") as devnull:
                if cli.main(argv + ["--out", out], out=devnull) != cli.EXIT_OK:
                    raise SystemExit(f"{argv[0]} --out failed")
    finally:
        cli._export_csv = real
    return {name[: -len(".csv")]: args for name, args in captured.items()}


def percent_export(path: str, header, precisions, table) -> None:
    """The row-by-row `%` writer the vectorised one replaced."""
    row_format = ",".join("%d" if p is None else f"%.{p}e" for p in precisions) + "\n"
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(header) + "\n")
        for start in range(0, len(table), 8192):
            fh.write("".join([row_format % tuple(row) for row in table[start : start + 8192].tolist()]))


def best_of(fn) -> float:
    best = float("inf")
    for _ in range(REPEATS):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def main() -> None:
    os.environ.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")

    with tempfile.TemporaryDirectory() as scratch:
        parent_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        runs = cli_runs(scratch)

        sys.path.insert(0, SRC)
        import numpy as np

        from comb_ranger import cli

        in_process = {}
        for name, (header, precisions, table) in captured_exports(scratch).items():
            new, old = os.path.join(scratch, "new.csv"), os.path.join(scratch, "old.csv")
            vectorised = best_of(lambda: cli._export_csv(new, header, precisions, table))
            percent = best_of(lambda: percent_export(old, header, precisions, table))
            with open(new, "rb") as a, open(old, "rb") as b:
                if a.read() != b.read():
                    raise SystemExit(f"{name}: _export_csv and % wrote different bytes")
            in_process[name] = {
                "rows": len(table),
                "bytes": os.path.getsize(new),
                "export_csv_s": vectorised,
                "percent_rows_s": percent,
                "speedup": percent / vectorised,
            }

    report = {
        "what": "CSV export timings, best of repeats; in-process _export_csv against a % row loop "
                "on the same table, and the whole `simulate --out` CLI process",
        "repeats": REPEATS,
        "in_process": in_process,
        "cli_simulate_out": {
            "argv": f"simulate --seed {SEED} --samples {SAMPLES} --out <tmp>",
            "best_wall_s": min(r["wall_s"] for r in runs),
            "best_peak_rss_mb": min(r["peak_rss_mb"] for r in runs),
            "launcher_peak_rss_mb": parent_rss_mb,
            "runs": runs,
        },
        "host": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "machine": platform.machine(),
            "cpus": os.cpu_count(),
            "blas_threads": 1,
        },
    }
    with open(os.path.join(ROOT, "BENCH_export.json"), "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=2)
        fh.write("\n")
    print(json.dumps(report, indent=2))


if __name__ == "__main__":
    main()
