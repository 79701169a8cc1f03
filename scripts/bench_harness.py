"""Paired A/B timing of HEAD against the working tree, for scripts/bench_*.py.

HEAD's package (`git archive`) is staged as `comb_ranger_parent`, beside the
working tree's as `comb_ranger` and an A/A copy as `comb_ranger_aa`.  Each
sample times every tree back to back, in the next of the six orders, so host
drift cancels out of its ratio change / parent.  The A/A ratio is the floor:
identical code elsewhere in memory can run a short call 20 % faster.  Child rows
(`time_cli`) run before numpy or a tree is imported, and are summarised
(`cli_summary`, which imports numpy) only after the last child, because a
child's ru_maxrss also counts its launcher's peak resident set at the fork.
"""

import contextlib
import hashlib
import importlib
import io
import itertools
import json
import os
import platform
import shutil
import subprocess
import sys
import tarfile
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BOOTSTRAP = 1000
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
TREES = ("parent", "change", "aa")
PACKAGES = {"parent": "comb_ranger_parent", "change": "comb_ranger", "aa": "comb_ranger_aa"}
ORDERS = list(itertools.permutations(TREES))


def git(*args: str) -> bytes:
    return subprocess.run(["git", "-C", ROOT, *args], check=True, capture_output=True).stdout


@contextlib.contextmanager
def staged_trees():
    """Stage and compile the trees in a temporary directory, put it and ROOT first
    on sys.path; yields it, HEAD's short hash and a SHA-256 per tree of what
    must agree."""
    os.environ.update(BLAS_ENV)
    parent = git("rev-parse", "--short", "HEAD").decode().strip()
    with tempfile.TemporaryDirectory() as staging:
        archive = git("archive", "--format=tar", parent, "src/comb_ranger")
        with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
            tar.extractall(staging, filter="data")
        os.rename(os.path.join(staging, "src", "comb_ranger"), os.path.join(staging, PACKAGES["parent"]))
        for side in ("change", "aa"):
            shutil.copytree(os.path.join(ROOT, "src", "comb_ranger"), os.path.join(staging, PACKAGES[side]),
                            ignore=shutil.ignore_patterns("__pycache__"))
        # compileall writes bytecode even under PYTHONDONTWRITEBYTECODE, which
        # would otherwise make every child compile its tree from source
        subprocess.run([sys.executable, "-m", "compileall", "-q", staging], check=True)
        sys.path[:0] = [staging, ROOT]
        yield staging, parent, {side: hashlib.sha256() for side in TREES}


def modules(name: str) -> dict:
    """Module `name` of each tree, by tree."""
    return {side: importlib.import_module(f"{PACKAGES[side]}.{name}") for side in TREES}


def time_calls(calls: dict, samples: int, inputs=(None,), scale: int = 1) -> dict:
    """Summary of `samples` paired samples of calls[tree](inputs[i % len(inputs)]),
    after an untimed call of each; a call makes `scale` calls of what it times."""
    for fn in calls.values():
        fn(inputs[0])
    clock = time.perf_counter
    times = []
    for i in range(samples):
        arg, t = inputs[i % len(inputs)], {}
        for side in ORDERS[i % len(ORDERS)]:
            t0 = clock()
            calls[side](arg)
            t[side] = clock() - t0
        times.append(t)
    return summary(times, scale=scale)


def time_cli(staging: str, argv: list[str], samples: int, digest: dict) -> dict:
    """The wall time and peak RSS of `python -m <package>.cli *argv` in
    `staging`, per tree and sample, unsummarised; each child's stdout goes to
    digest[tree]."""
    env = dict(os.environ, PYTHONPATH=staging)
    wall, rss = [], []
    for i in range(samples):
        wall.append({})
        rss.append({})
        for side in ORDERS[i % len(ORDERS)]:
            start = time.perf_counter()
            with subprocess.Popen([sys.executable, "-m", f"{PACKAGES[side]}.cli", *argv],
                                  cwd=staging, env=env, stdout=subprocess.PIPE) as proc:
                digest[side].update(proc.stdout.read())
                _, status, usage = os.wait4(proc.pid, 0)
                proc.returncode = os.waitstatus_to_exitcode(status)
            wall[-1][side] = time.perf_counter() - start
            rss[-1][side] = usage.ru_maxrss / 1024
            if proc.returncode != 0:
                sys.exit(f"{PACKAGES[side]}.cli {' '.join(argv)} exited with {proc.returncode}")
    return {"argv": " ".join(argv), "wall": wall, "peak_rss": rss}


def cli_summary(row: dict) -> dict:
    """The summaries of a `time_cli` row, once no child is left to run."""
    return {"argv": row["argv"], "wall": summary(row["wall"]), "peak_rss": summary(row["peak_rss"], unit="mb")}


def summary(samples: list[dict], unit: str = "s", scale: int = 1) -> dict:
    """Median parent and change figures of paired samples (over `scale`), and the
    median ratios change/parent and aa/change with bootstrap 95 % intervals."""
    import numpy as np

    rng = np.random.default_rng(0)
    row = {f"{side}_{unit}": float(np.median([t[side] for t in samples])) / scale
           for side in ("parent", "change")}
    for key, ci_key, side, base in (("ratio", "ratio_ci95", "change", "parent"),
                                    ("aa_ratio", "aa_ci95", "aa", "change")):
        ratios = np.array([t[side] / t[base] for t in samples])
        medians = [np.median(rng.choice(ratios, ratios.size)) for _ in range(BOOTSTRAP)]
        row[key] = float(np.median(ratios))
        row[ci_key] = [float(x) for x in np.percentile(medians, [2.5, 97.5])]
    return row


def write_report(name: str, parent: str, what: str, fields: dict, digest: dict, digest_key: str) -> None:
    """Write `fields`, the trees' one digest and the host to ROOT/name, and
    print them; exit with nothing written if the trees' digests differ."""
    hexes = {h.hexdigest() for h in digest.values()}
    if len(hexes) != 1:
        sys.exit(f"output differs between the trees ({len(hexes)} digests); {name} not written")
    import numpy as np

    report = {
        "what": f"{what}; change: the working tree, parent: commit {parent}, aa: a copy of the "
                "change; medians per side, and median paired ratios with bootstrap 95 % intervals",
        "parent": parent,
        **fields,
        digest_key: hexes.pop(),
        "host": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "machine": platform.machine(),
            "cpus": os.cpu_count(),
            "blas_threads": 1,
        },
    }
    with open(os.path.join(ROOT, name), "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=2)
        fh.write("\n")
    print(json.dumps(report, indent=2))
