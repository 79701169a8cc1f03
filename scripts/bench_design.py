#!/usr/bin/env python3
"""Time the designer's path against HEAD and write BENCH_design.json.

The working tree's package is the change and HEAD's, read with `git
archive`, is the parent, so the script is run on an uncommitted change.  One
process with one BLAS thread imports three trees side by side: the parent
under the package name `comb_ranger_parent` (the package imports itself only
relatively), the change as `comb_ranger`, and a copy of the change as
`comb_ranger_aa`.  Each sample times one warm call on every tree, back to
back, in the next of the six orders, so a drift in the host's speed cancels
out of the sample's ratio change / parent.  The copy's ratio to the change
is the harness's own floor (A/A): identical code placed elsewhere in memory
can run a sub-microsecond call 20 % faster, so a ratio is resolved only
where it stands clear of that floor.

Timed calls, on inputs drawn as the benchmark's design scan draws them:
  * `air_model._check_sigma_domain` on a float (CALLS_PER_SAMPLE calls);
  * `detection.ranging_modes`;
  * `detection.purify`, full (against w_X and w_Pw) and X-only;
  * `detection.numeric_detection_mode` for L, the exact oracle;
  * `detection.contamination_report`;
  * one whole design, as `perfbench.workloads.DesignScan.op` makes it.
Every memo is warm: a first epoch of designs visits every shared pulse
before any timing.

For each call the JSON holds the median time of each side, the median
paired ratio with a bootstrap 95 % interval, and the A/A ratio with its
interval.  Every tree also hashes `contamination_report(...).to_text()`
over the timed designs; the script writes nothing unless all three give the
same bytes.

Usage: python scripts/bench_design.py
"""

import hashlib
import importlib
import io
import itertools
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SEED = 7
SAMPLES = 9000
BOOTSTRAP = 1000
# calls per sample of the calls too short to time one at a time
CALLS_PER_SAMPLE = {"check_sigma_domain": 20}
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
TREES = ("parent", "change", "aa")
PACKAGES = {"parent": "comb_ranger_parent", "change": "comb_ranger", "aa": "comb_ranger_aa"}


def stage_packages(staging: str) -> None:
    """HEAD's package, the working tree's, and a copy of it, in `staging`
    under the names in PACKAGES."""
    archive = subprocess.run(["git", "-C", ROOT, "archive", "--format=tar", "HEAD", "src/comb_ranger"],
                             check=True, capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(staging, filter="data")
    os.rename(os.path.join(staging, "src", "comb_ranger"), os.path.join(staging, PACKAGES["parent"]))
    for side in ("change", "aa"):
        shutil.copytree(os.path.join(ROOT, "src", "comb_ranger"), os.path.join(staging, PACKAGES[side]),
                        ignore=shutil.ignore_patterns("__pycache__"))


def tree_calls(package: str, pulse_shapes) -> dict:
    """The timed calls of one tree; "design" returns the design's report."""
    air_model = importlib.import_module(f"{package}.air_model")
    detection = importlib.import_module(f"{package}.detection")
    errors = importlib.import_module(f"{package}.errors")
    mode_algebra = importlib.import_module(f"{package}.mode_algebra")

    pulses = [mode_algebra.GaussianPulse.from_wavelength(lam, rel) for lam, rel in pulse_shapes]
    pulse = mode_algebra.GaussianPulse.from_wavelength(800e-9, 1.0 / 6.0)
    state = air_model.AirState.standard()
    w_l, w_x, w_pw = detection.ranging_modes(pulse, state, 1.0)

    def design(d):
        # perfbench.workloads.DesignScan.op
        p = pulses[d.pulse]
        s = air_model.AirState(d.temperature_c, d.pressure_pa, d.co2_percent, d.water_vapor_pa)
        report = detection.contamination_report(p, s, d.length_m, d.photons)
        wl, wx, wpw = detection.ranging_modes(p, s, d.length_m)
        try:
            detection.purify(wl, [wx, wpw])
        except errors.SeparabilityError:
            pass
        detection.purify(wl, [wx])
        return report

    def check_sigma_domain(_):
        for _ in range(CALLS_PER_SAMPLE["check_sigma_domain"]):
            air_model._check_sigma_domain(1.25)

    calls = {
        "check_sigma_domain": check_sigma_domain,
        "ranging_modes": lambda _: detection.ranging_modes(pulse, state, 1.0),
        "purify_full": lambda _: detection.purify(w_l, [w_x, w_pw]),
        "purify_x_only": lambda _: detection.purify(w_l, [w_x]),
        "oracle_l": lambda _: detection.numeric_detection_mode("L", pulse, state, 1.0),
        "contamination_report": lambda _: detection.contamination_report(pulse, state, 1.0, 8e16),
        "design": design,
    }
    return calls


def time_trees(staging: str) -> tuple[dict, set]:
    """Per call, the seconds of every tree in each sample; and the digests of
    the trees' report text."""
    sys.path[:0] = [staging, ROOT]
    from perfbench.workloads import EPOCH, design_epoch, design_pulses

    trees = {side: tree_calls(PACKAGES[side], design_pulses(SEED)) for side in TREES}
    designs = design_epoch(SEED, 1)
    for d in design_epoch(SEED, 0):
        for calls in trees.values():
            calls["design"](d)

    clock = time.perf_counter
    orders = list(itertools.permutations(TREES))
    times = {name: [] for name in trees["change"]}
    for name, samples in times.items():
        fns = {side: trees[side][name] for side in TREES}
        for fn in fns.values():
            fn(designs[0])
        for i in range(SAMPLES):
            d = designs[i % EPOCH]
            t = {}
            for side in orders[i % len(orders)]:
                t0 = clock()
                fns[side](d)
                t[side] = clock() - t0
            samples.append(t)

    digests = set()
    for calls in trees.values():
        digest = hashlib.sha256()
        for d in designs:
            digest.update(calls["design"](d).to_text().encode())
        digests.add(digest.hexdigest())
    return times, digests


def bootstrap_ci(ratios, rng) -> list[float]:
    """95 % bootstrap interval of the median of `ratios`."""
    import numpy as np

    values = np.asarray(ratios)
    medians = [np.median(rng.choice(values, values.size)) for _ in range(BOOTSTRAP)]
    return [float(x) for x in np.percentile(medians, [2.5, 97.5])]


def main() -> None:
    os.environ.update(BLAS_ENV)
    import numpy as np

    with tempfile.TemporaryDirectory() as staging:
        stage_packages(staging)
        times, digests = time_trees(staging)
    if len(digests) != 1:
        sys.exit(f"report text differs between the trees ({len(digests)} digests); nothing written")

    rng = np.random.default_rng(SEED)
    per_call = {}
    for name, samples in times.items():
        scale = CALLS_PER_SAMPLE.get(name, 1)
        ratio = [t["change"] / t["parent"] for t in samples]
        aa = [t["aa"] / t["change"] for t in samples]
        per_call[name] = {
            "parent_s": statistics.median(t["parent"] for t in samples) / scale,
            "change_s": statistics.median(t["change"] for t in samples) / scale,
            "ratio": statistics.median(ratio),
            "ratio_ci95": bootstrap_ci(ratio, rng),
            "aa_ratio": statistics.median(aa),
            "aa_ci95": bootstrap_ci(aa, rng),
        }
    parent = subprocess.run(["git", "-C", ROOT, "rev-parse", "--short", "HEAD"],
                            check=True, capture_output=True, text=True).stdout.strip()
    report = {
        "what": "designer path, seconds per warm call (median) on the working tree (change) and "
                f"on commit {parent} (parent), timed side by side in every order of the trees; "
                "ratio is the median of change/parent per sample, aa_ratio that of a copy of the "
                "change against the change",
        "parent": parent,
        "samples": SAMPLES,
        "calls_per_sample": {name: CALLS_PER_SAMPLE.get(name, 1) for name in per_call},
        "inputs": "800 nm, bandwidth 1/6, standard air, 1 m, 8e16 photons; design_scan seed "
                  f"{SEED}, designs of its second epoch",
        "per_call": per_call,
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
    main()
