"""Time the CSV exports against HEAD and write BENCH_export.json.

Rows paired by bench_harness.py: `cli.main` in process for each tree's
`simulate --seed 3 --samples 100000 --out` and `modes --out`, and the wall
time and peak RSS of that `simulate` in a child, at 1e5 and 4e6 samples.
Gate: CSVs and stdout.

Usage: python scripts/bench_export.py
"""

import io
import os
import sys

import bench_harness as harness

SEED = 3
COMMANDS = {"simulate": ["simulate", "--seed", str(SEED), "--samples", "100000"], "modes": ["modes"]}
# sample counts of the `simulate --out` child rows
CHILD_SAMPLES = (100_000, 4_000_000)
# paired samples per in-process row and per child row
SAMPLES = 60
CLI_SAMPLES = 12


def export(cli, argv: list[str], path: str) -> bytes:
    """stdout and CSV of `cli.main([*argv, "--out", path])`."""
    out = io.StringIO()
    if cli.main([*argv, "--out", path], out=out) != cli.EXIT_OK:
        sys.exit(f"{' '.join(argv)} --out failed")
    with open(path, "rb") as fh:
        return out.getvalue().encode() + fh.read()


def main() -> None:
    with harness.staged_trees() as (staging, parent, digest):
        children = {}
        for n in CHILD_SAMPLES:
            argv = ["simulate", "--seed", str(SEED), "--samples", str(n), "--out", "samples.csv"]
            children[str(n)] = harness.time_cli(staging, argv, CLI_SAMPLES, digest)
        cli = harness.modules("cli")
        path = os.path.join(staging, "export.csv")
        per_call = {}
        for cmd, argv in COMMANDS.items():
            for side in harness.TREES:
                digest[side].update(export(cli[side], argv, path))
            with open(path, "rb") as fh:
                rows = sum(1 for _ in fh) - 1
            calls = {side: lambda _, s=side: cli[s].main([*argv, "--out", path], out=io.StringIO())
                     for side in cli}
            per_call[cmd] = {"rows": rows, **harness.time_calls(calls, SAMPLES)}

    harness.write_report("BENCH_export.json", parent, "whole `simulate --out` and `modes --out` runs "
                         "of cli.main in process, seconds per call; the whole `simulate --out` CLI "
                         "process, by sample count", {
        "samples": SAMPLES,
        "per_call": per_call,
        "cli_samples": CLI_SAMPLES,
        "cli_simulate_out": children,
    }, digest, "output_sha256")


if __name__ == "__main__":
    main()
