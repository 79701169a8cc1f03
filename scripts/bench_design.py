#!/usr/bin/env python3
"""Time the designer's path and write the figures to BENCH_design.json.

Each figure is the time of one warm call, best of REPEATS (5) loops, taken
in a fresh interpreter with one BLAS thread, on this tree and on PARENT
(the commit before spectral modes became real coefficient vectors and
lost their global-phase stripping):

  * `air_model._check_sigma_domain` on a float;
  * `detection.ranging_modes`;
  * `detection.purify`, full (against w_X and w_Pw) and X-only;
  * `detection.numeric_detection_mode` for L, the exact oracle;
  * `detection.contamination_report`;
  * one whole `design_scan` design (`perfbench.workloads.DesignScan.op`),
    after a first epoch has visited every shared pulse.

The two trees run ROUNDS times each, alternating, each tree first in every
other round, and each figure keeps the best round.  Every run also hashes
`contamination_report(...).to_text()` over the designs it timed; the script
writes nothing unless all runs of both trees give the same bytes.  PARENT
is read from git with `git archive`, so the script runs from a git checkout.
A call of the script with a `src` directory as its one argument times that
tree and prints the figures as JSON.

Usage: python scripts/bench_design.py
"""

import hashlib
import io
import json
import os
import platform
import subprocess
import sys
import tarfile
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PARENT = "5f24df2"
SEED = 7
REPEATS = 5
ROUNDS = 2
# calls per timed loop
LOOPS = {
    "check_sigma_domain": 20_000,
    "ranging_modes": 2_000,
    "purify_full": 2_000,
    "purify_x_only": 2_000,
    "oracle_l": 2_000,
    "contamination_report": 200,
    "design": 512,
}
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def best_per_call(fn, calls: int) -> float:
    fn()
    best = float("inf")
    for _ in range(REPEATS):
        start = time.perf_counter()
        for _ in range(calls):
            fn()
        best = min(best, (time.perf_counter() - start) / calls)
    return best


def time_tree(src: str) -> dict:
    """Per-call seconds of each timed call on the package in `src`, and the
    SHA-256 of the report text over the timed designs."""
    sys.path[:0] = [src, ROOT]
    from comb_ranger import air_model, detection, mode_algebra
    from perfbench.workloads import EPOCH, DesignScan

    pulse = mode_algebra.GaussianPulse.from_wavelength(800e-9, 1.0 / 6.0)
    state = air_model.AirState.standard()
    w_l, w_x, w_pw = detection.ranging_modes(pulse, state, 1.0)
    scan = DesignScan(SEED, "full")
    for i in range(EPOCH):
        scan.op(scan.inputs(i))
    designs = iter(range(EPOCH, 10**9))
    calls = {
        "check_sigma_domain": lambda: air_model._check_sigma_domain(1.25),
        "ranging_modes": lambda: detection.ranging_modes(pulse, state, 1.0),
        "purify_full": lambda: detection.purify(w_l, [w_x, w_pw]),
        "purify_x_only": lambda: detection.purify(w_l, [w_x]),
        "oracle_l": lambda: detection.numeric_detection_mode("L", pulse, state, 1.0),
        "contamination_report": lambda: detection.contamination_report(pulse, state, 1.0, 8e16),
        "design": lambda: scan.op(scan.inputs(next(designs))),
    }
    per_call = {name: best_per_call(fn, LOOPS[name]) for name, fn in calls.items()}
    digest = hashlib.sha256()
    for i in range(EPOCH, next(designs)):
        report = scan.op(scan.inputs(i))[0]
        digest.update(report.to_text().encode())
    return {"per_call_s": per_call, "report_sha256": digest.hexdigest()}


def run_tree(src: str) -> dict:
    env = dict(os.environ, **BLAS_ENV)
    env.pop("PYTHONPATH", None)
    out = subprocess.run([sys.executable, os.path.abspath(__file__), src], env=env,
                         check=True, capture_output=True, text=True).stdout
    return json.loads(out)


def main() -> None:
    with tempfile.TemporaryDirectory() as scratch:
        archive = subprocess.run(["git", "-C", ROOT, "archive", "--format=tar", PARENT, "src"],
                                 check=True, capture_output=True).stdout
        with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
            tar.extractall(scratch, filter="data")
        trees = {"change": os.path.join(ROOT, "src"), "parent": os.path.join(scratch, "src")}
        rounds = {side: [] for side in trees}
        for i in range(ROUNDS):
            # each tree runs first in every other round
            for side, src in list(trees.items())[:: 1 if i % 2 == 0 else -1]:
                rounds[side].append(run_tree(src))

    digests = {r["report_sha256"] for runs in rounds.values() for r in runs}
    if len(digests) != 1:
        sys.exit(f"report text differs between the trees ({len(digests)} digests); nothing written")
    per_call = {
        name: {side: min(r["per_call_s"][name] for r in rounds[side]) for side in trees}
        for name in LOOPS
    }
    for figures in per_call.values():
        figures["speedup"] = figures["parent"] / figures["change"]
    import numpy as np

    report = {
        "what": "designer path, seconds per warm call, best of repeats and rounds, on this tree "
                f"(change) and on commit {PARENT} (parent)",
        "repeats": REPEATS,
        "rounds": ROUNDS,
        "calls_per_loop": LOOPS,
        "inputs": "800 nm, bandwidth 1/6, standard air, 1 m, 8e16 photons; design_scan seed "
                  f"{SEED}, designs after the first epoch",
        "per_call_s": per_call,
        "report_text_sha256": digests.pop(),
        "host": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "machine": platform.machine(),
            "cpus": os.cpu_count(),
            "blas_threads": 1,
        },
    }
    with open(os.path.join(ROOT, "BENCH_design.json"), "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=2)
        fh.write("\n")
    print(json.dumps(report, indent=2))


if __name__ == "__main__":
    if len(sys.argv) == 2:
        print(json.dumps(time_tree(sys.argv[1])))
    else:
        main()
