"""Self-test of the benchmark at a tiny size: python3 perfbench/selftest.py

Checks that
  * every run prints each metric BENCHMARK.json names, with its unit, and
    passes its own output checks;
  * the same seed gives identical inputs and another seed different ones;
  * in a directory holding only BENCHMARK.json and perfbench/, the
    benchmark fails with a non-zero exit code and prints no result.
Exits 0 when every check passes.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import workloads  # noqa: E402


def run_bench(cwd: str, workload: str, seed: int, trace: int) -> subprocess.CompletedProcess:
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", "1", "--trace", str(trace), "--size", "tiny"]
    return subprocess.run(argv, cwd=cwd, capture_output=True, text=True, timeout=180)


def check_metrics(spec: dict) -> list[str]:
    problems = []
    for workload in workloads.WORKLOADS:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            proc = run_bench(ROOT, workload, 7, trace)
            if proc.returncode != 0:
                problems.append(f"{workload} trace {trace}: exit {proc.returncode}: "
                                f"{proc.stderr[-500:]}")
                continue
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"{workload} trace {trace}: result keys {sorted(result)}")
            if not result["correct"] or result["failed"] or result["attempted"] < 1:
                problems.append(f"{workload} trace {trace}: {proc.stdout[-800:]}")
            want = {m["name"]: m["unit"] for m in spec[key]}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if got != want:
                problems.append(f"{workload} trace {trace}: metrics {got} != {want}")
    return problems


def sample_inputs(workload: str, seed: int) -> list:
    wl = workloads.make(workload, seed, "tiny", ROOT, HERE)
    inputs = [wl.inputs(i) for i in range(5)] + [wl.warmup_input()]
    if workload == "design_scan":
        inputs.append(workloads.design_pulses(seed))
    return inputs


def check_inputs() -> list[str]:
    problems = []
    for workload in workloads.WORKLOADS:
        if sample_inputs(workload, 3) != sample_inputs(workload, 3):
            problems.append(f"{workload}: seed 3 gave different inputs on two calls")
        if sample_inputs(workload, 3) == sample_inputs(workload, 4):
            problems.append(f"{workload}: seeds 3 and 4 gave identical inputs")
    return problems


def check_bare_directory() -> list[str]:
    bare = os.path.join(ROOT, ".perfbench_out", "selftest-bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    try:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = run_bench(bare, "design_scan", 7, 0)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0 or '"correct"' in proc.stdout:
        return [f"bare directory: exit {proc.returncode}, stdout {proc.stdout[-300:]!r}"]
    return []


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    problems = check_inputs() + check_bare_directory() + check_metrics(spec)
    for p in problems:
        print(f"FAIL {p}")
    print("selftest " + ("FAILED" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
