"""Reference computations that the gated latencies are measured against.

The host is a shared virtual machine whose speed moves by tens of percent
for seconds to minutes at a time, as neighbours' load comes and goes.  A
wall-clock latency carries all of that.  So each operation is followed by a
fixed computation that uses the same kind of resources as the operation but
no code of the package: interpreter-bound scalar work and small arrays for
`design_scan`, large freshly allocated arrays for `mc_stream`, and a fresh
interpreter that imports numpy and writes a CSV for `cli_export`.  An
operation's latency divided by the time of the reference run right after it
is its cost in units of the reference, which the host's slow phases change
far less than either time alone.  A change to the package moves the
operation and not the reference, so it shows in full.
"""

from __future__ import annotations

import math
import os
import subprocess
import sys
from fractions import Fraction

import numpy as np

import workloads

_GRID = np.linspace(-8.0, 8.0, 2049)

_CHILD = """\
import csv, sys
import numpy as np
rows, path = int(sys.argv[1]), sys.argv[2]
z = np.random.Generator(np.random.Philox(key=1)).standard_normal((rows, 4))
with open(path, "w", newline="") as fh:
    w = csv.writer(fh)
    w.writerow(["index", "a", "b", "c", "d"])
    for i, row in enumerate(z.tolist()):
        w.writerow([i, *row])
"""


def _scalar_and_small_arrays() -> float:
    """About a third of a design's cost: complex projections on a 2049-point
    grid, exact rational sums and a loop of scalar float calls."""
    acc = 0.0
    env = np.exp(-0.5 * _GRID**2)
    for n in range(9):
        phase = np.exp(1j * 1e-3 * (n + 1) * _GRID)
        acc += abs(np.trapezoid(np.conj(env * phase) * env, _GRID))
    f = Fraction(0)
    for k in range(1, 40):
        f += Fraction(k, k + 7) * Fraction(3, k + 1)
    acc += float(f)
    for k in range(400):
        x = 280.0 + 0.05 * k
        if not math.isfinite(x) or x <= 0.0:
            raise ValueError(x)
        acc += math.sqrt(x) * math.exp(-x / 300.0) / (1.0 + math.log(x))
    return acc


def _large_arrays(samples: int) -> float:
    """About a quarter of a 4e6-sample run: normal draws, column arithmetic,
    a projection and a least-squares fit on arrays allocated afresh."""
    n = max(samples // 4, 1000)
    z = np.random.Generator(np.random.Philox(key=7)).standard_normal((n, 4))
    x = np.empty((n, 3))
    x[:, 0] = 1e-6 + 1e-7 * z[:, 0]
    x[:, 1] = 4e-4 + 1e-5 * z[:, 1]
    x[:, 2] = 1e3 + 50.0 * z[:, 2]
    y = x @ np.array([1.0, 2e-3, 3e-9]) + 1e-9 * z[:, 3]
    design = np.column_stack([np.ones(n), x[:, 1:]])
    coef = np.linalg.lstsq(design, y, rcond=None)[0]
    return float(np.std(y, ddof=1)) + float(coef[0])


def reference(workload: str, size: str, scratch: str, env: dict):
    """The workload's reference computation, as a function of no arguments."""
    if workload == "design_scan":
        return _scalar_and_small_arrays
    if workload == "mc_stream":
        samples = workloads.SIZES[size][0]
        return lambda: _large_arrays(samples)
    rows = workloads.SIZES[size][1] // 4
    path = os.path.join(scratch, f"reference-{os.getpid()}.csv")

    def child() -> None:
        try:
            subprocess.run([sys.executable, "-c", _CHILD, str(rows), path], env=env,
                           check=True)
        finally:
            if os.path.exists(path):
                os.remove(path)

    return child

