"""Time the CSV exports against HEAD and write BENCH_export.json.

Rows paired by bench_harness.py: `cli.main` in process for each tree's
`simulate --seed 3 --samples 100000 --out` and `modes --out`; the CSV engine,
`cli._format_block`, per row of the first block each of those exports
formats, on the arguments each tree's own export hands it; and the wall
time and peak RSS of that `simulate` in a child, at 1e5 and 4e6 samples.
Gate: CSVs and stdout, which hold the engine's bytes.

Usage: python scripts/bench_export.py
"""

import contextlib
import copy
import io
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


def first_block(cli, argv: list[str], path: str) -> tuple:
    """The arguments of the first `_format_block` call that
    `cli.main([*argv, "--out", path])` makes, in `cli`'s own signature, with
    their arrays copied (so a strided column comes back contiguous)."""
    blocks = []
    format_block = cli._format_block

    def record(*args):
        blocks.append(copy.deepcopy(args))
        return format_block(*args)

    cli._format_block = record
    try:
        export(cli, argv, path)
    finally:
        cli._format_block = format_block
    return blocks[0]


def main() -> None:
    # in-process exports write to a path relative to the staging directory,
    # so that their stdout, and the digest, name no temporary directory
    with harness.staged_trees() as (staging, parent, digest), contextlib.chdir(staging):
        children = {}
        for n in CHILD_SAMPLES:
            argv = ["simulate", "--seed", str(SEED), "--samples", str(n), "--out", "samples.csv"]
            children[str(n)] = harness.time_cli(staging, argv, CLI_SAMPLES, digest)
        cli = harness.modules("cli")
        path = "export.csv"
        per_call = {}
        for cmd, argv in COMMANDS.items():
            for side in harness.TREES:
                digest[side].update(export(cli[side], argv, path))
            with open(path, "rb") as fh:
                rows = sum(1 for _ in fh) - 1
            calls = {side: lambda _, s=side: cli[s].main([*argv, "--out", path], out=io.StringIO())
                     for side in cli}
            per_call[cmd] = {"rows": rows, **harness.time_calls(calls, SAMPLES)}
        per_row = {}
        for cmd, argv in COMMANDS.items():
            args = {side: first_block(cli[side], argv, path) for side in cli}
            rows = cli["change"]._format_block(*args["change"]).count(b"\n")
            calls = {side: lambda _, s=side: cli[s]._format_block(*args[s]) for side in cli}
            per_row[cmd] = {"rows": rows, **harness.time_calls(calls, SAMPLES, scale=rows)}

    harness.write_report("BENCH_export.json", parent, "whole `simulate --out` and `modes --out` runs "
                         "of cli.main in process, seconds per call; cli._format_block on the first "
                         "block of each, seconds per row; the whole `simulate --out` CLI process, by "
                         "sample count", {
        "samples": SAMPLES,
        "per_call": per_call,
        "per_row": per_row,
        "cli_samples": CLI_SAMPLES,
        "cli_simulate_out": {n: harness.cli_summary(row) for n, row in children.items()},
    }, digest, "output_sha256")


if __name__ == "__main__":
    main()
