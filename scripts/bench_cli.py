"""Time each subcommand's whole CLI process against HEAD and write BENCH_cli.json.

Rows paired by bench_harness.py: the wall time and peak RSS of a
`python -m <package>.cli` child per subcommand, import, run, output and exit
included (north-star layer 5).  The `--out` files go to the staging
directory.  Gate: every child's stdout.

Usage: python scripts/bench_cli.py
"""

import bench_harness as harness

SEED = 3
COMMANDS = {
    "air-index": ["air-index"],
    "sensitivity": ["sensitivity"],
    "multicolor": ["multicolor", "--scheme", "3wi"],
    "modes": ["modes", "--out", "modes.csv"],
    "simulate": ["simulate", "--seed", str(SEED), "--samples", "100000", "--out", "samples.csv"],
}
# paired samples per child row: six in each order of the trees
SAMPLES = 36


def main() -> None:
    with harness.staged_trees() as (staging, parent, digest):
        children = {cmd: harness.time_cli(staging, argv, SAMPLES, digest) for cmd, argv in COMMANDS.items()}
    children = {cmd: harness.cli_summary(row) for cmd, row in children.items()}

    harness.write_report("BENCH_cli.json", parent, "the whole CLI process of each subcommand, "
                         "seconds and peak RSS per child", {
        "samples": SAMPLES,
        "cli": children,
    }, digest, "stdout_sha256")


if __name__ == "__main__":
    main()
