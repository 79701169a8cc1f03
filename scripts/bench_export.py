"""Time the CSV exports against HEAD and write BENCH_export.json.

Rows paired by bench_harness.py: `cli._export_csv` on each tree's tables of
`simulate --seed 3 --samples 100000 --out` and `modes --out`, and the wall
time and peak RSS of that `simulate` in a child.  Gate: CSVs and stdout.

Usage: python scripts/bench_export.py
"""

import io
import os
import sys

import bench_harness as harness

SEED = 3
COMMANDS = {"simulate": ["simulate", "--seed", str(SEED), "--samples", "100000"], "modes": ["modes"]}
# paired samples per in-process row and per child row
SAMPLES = 60
CLI_SAMPLES = 12


def exports(cli, path: str, digest) -> dict:
    """The arguments after the path that each of COMMANDS passes to
    `cli._export_csv`, by command; its stdout and CSV go into `digest`."""
    captured, export_csv = {}, cli._export_csv

    def capture(path, *args):
        captured[command] = args
        export_csv(path, *args)

    cli._export_csv = capture
    for command, argv in COMMANDS.items():
        out = io.StringIO()
        if cli.main([*argv, "--out", path], out=out) != cli.EXIT_OK:
            sys.exit(f"{command} --out failed")
        with open(path, "rb") as fh:
            digest.update(out.getvalue().encode() + fh.read())
    cli._export_csv = export_csv
    return captured


def main() -> None:
    with harness.staged_trees() as (staging, parent, digest):
        argv = [*COMMANDS["simulate"], "--out", "samples.csv"]
        child = harness.time_cli(staging, argv, CLI_SAMPLES, digest)
        cli = harness.modules("cli")
        path = os.path.join(staging, "export.csv")
        tables = {side: exports(cli[side], path, digest[side]) for side in harness.TREES}
        per_call = {}
        for cmd in COMMANDS:
            calls = {side: lambda _, s=side: cli[s]._export_csv(path, *tables[s][cmd]) for side in cli}
            per_call[cmd] = {"rows": len(tables["change"][cmd][-1]), **harness.time_calls(calls, SAMPLES)}

    harness.write_report("BENCH_export.json", parent, "cli._export_csv in process, seconds per call; "
                         "the whole `simulate --out` CLI process", {
        "samples": SAMPLES,
        "per_call": per_call,
        "cli_samples": CLI_SAMPLES,
        "cli_simulate_out": child,
    }, digest, "output_sha256")


if __name__ == "__main__":
    main()
