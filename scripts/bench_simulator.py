#!/usr/bin/env python3
"""Time simulator.run with and without its draw-ahead thread; write BENCH_simulator.json.

For each sample count in SAMPLES and each LO choice, best of REPEATS (5):

  * draws: the run's standard-normal blocks alone, drawn into one buffer
    with `perturbation_draws(gen, m, out=buf)`;
  * sequential: `simulator.run` with each block drawn in the calling
    thread before it is folded, the schedule the simulator had before the
    draw-ahead thread (the helper class is swapped for one that draws at
    once, into the same two buffers);
  * draw_ahead: `simulator.run` as it is, the next block drawn in a helper
    thread while the current one is folded.

The script checks that both schedules return equal results.  Peak RSS is
measured per schedule and sample count in child processes (purified LO, one
run each, best of REPEATS); they are launched first, while this process is
still small, because a child's ru_maxrss also counts its parent's resident
set at the fork.

Usage: python scripts/bench_simulator.py
"""

import json
import os
import platform
import resource
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
SCRIPTS = os.path.join(ROOT, "scripts")
SAMPLES = (1_000_000, 4_000_000)
LOS = ("raw", "purified", "purified_x_only")
SCHEDULES = ("sequential", "draw_ahead")
SEED = 7
REPEATS = 5
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


class DrawNow:
    """Stand-in for simulator._DrawAhead that draws in the calling thread."""

    def __init__(self, gen, out) -> None:
        from comb_ranger import simulator

        simulator.perturbation_draws(gen, len(out), out=out)

    def join(self) -> None:
        pass

    def check(self) -> None:
        pass


def sim_config(samples: int, lo: str):
    from comb_ranger import config

    return config.build_config({"samples": samples, "lo": lo, "seed": SEED}).to_sim_config()


def run_with(schedule: str, cfg):
    from comb_ranger import simulator

    if schedule == "draw_ahead":
        return simulator.run(cfg)
    real = simulator._DrawAhead
    simulator._DrawAhead = DrawNow
    try:
        return simulator.run(cfg)
    finally:
        simulator._DrawAhead = real


def draws_only(samples: int) -> None:
    import numpy as np

    from comb_ranger import simulator

    gen = simulator.draw_generator(SEED)
    buf = np.empty((min(simulator.CHUNK_ROWS, samples), 4))
    for start in range(0, samples, simulator.CHUNK_ROWS):
        m = min(simulator.CHUNK_ROWS, samples - start)
        simulator.perturbation_draws(gen, m, out=buf[:m])


def child_main(schedule: str, samples: int) -> None:
    """One run in a child process, whose peak RSS the parent reads."""
    run_with(schedule, sim_config(samples, "purified"))


def peak_rss_runs() -> dict:
    env = dict(os.environ, **BLAS_ENV)
    code = (
        f"import sys; sys.path[:0] = [{SCRIPTS!r}, {SRC!r}]; import bench_simulator; "
        "bench_simulator.child_main(sys.argv[1], int(sys.argv[2]))"
    )
    peaks = {}
    for samples in SAMPLES:
        for schedule in SCHEDULES:
            mb = []
            for _ in range(REPEATS):
                proc = subprocess.Popen([sys.executable, "-c", code, schedule, str(samples)], env=env)
                _, status, usage = os.wait4(proc.pid, 0)
                if os.waitstatus_to_exitcode(status) != 0:
                    raise SystemExit(f"{schedule} run of {samples} samples failed: {status}")
                mb.append(usage.ru_maxrss / 1024)
            peaks[f"{schedule}_{samples}"] = {"best_peak_rss_mb": min(mb), "runs_mb": mb}
    return peaks


def best_of(fn) -> float:
    best = float("inf")
    for _ in range(REPEATS):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def main() -> None:
    os.environ.update(BLAS_ENV)
    launcher_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    peaks = peak_rss_runs()

    sys.path.insert(0, SRC)
    import numpy as np

    timings = {}
    for samples in SAMPLES:
        row = {"draws_s": best_of(lambda: draws_only(samples))}
        for lo in LOS:
            cfg = sim_config(samples, lo)
            if run_with("sequential", cfg) != run_with("draw_ahead", cfg):
                raise SystemExit(f"{lo}, {samples} samples: the two schedules differ")
            seq = best_of(lambda: run_with("sequential", cfg))
            ahead = best_of(lambda: run_with("draw_ahead", cfg))
            row[lo] = {"sequential_s": seq, "draw_ahead_s": ahead, "speedup": seq / ahead}
        timings[str(samples)] = row

    report = {
        "what": "simulator.run timings, best of repeats: the draws alone, the run with each "
                "block drawn in the calling thread (sequential) and with the next block drawn "
                "in a helper thread (draw_ahead); peak RSS of one purified run per child process",
        "seed": SEED,
        "repeats": REPEATS,
        "timings": timings,
        "peak_rss": peaks,
        "launcher_peak_rss_mb": launcher_rss_mb,
        "host": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "machine": platform.machine(),
            "cpus": os.cpu_count(),
            "blas_threads": 1,
        },
    }
    with open(os.path.join(ROOT, "BENCH_simulator.json"), "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=2)
        fh.write("\n")
    print(json.dumps(report, indent=2))


if __name__ == "__main__":
    main()
