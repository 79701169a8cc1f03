"""Time simulator.run against HEAD and write BENCH_simulator.json.

Rows paired by bench_harness.py: `simulator.run` for each LO and sample
count; the run's draws alone, one column per fluctuating label of the
default config and one for the noise; and the wall time and peak RSS of a
purified `simulate --samples 4000000` child.  Gate: `SimResult.to_text()`,
stdout.

Usage: python scripts/bench_simulator.py
"""

import bench_harness as harness

SAMPLE_COUNTS = (1_000_000, 4_000_000)
SEED = 7
# paired samples per row: two in each order of the trees
SAMPLES = 12


def draws(simulator, n: int, width: int) -> None:
    import numpy as np

    gen = simulator.draw_generator(SEED)
    buf = np.empty((min(simulator.CHUNK_ROWS, n), width))
    for start in range(0, n, simulator.CHUNK_ROWS):
        m = min(simulator.CHUNK_ROWS, n - start)
        simulator.perturbation_draws(gen, m, out=buf[:m])


def main() -> None:
    with harness.staged_trees() as (staging, parent, digest):
        argv = ["simulate", "--seed", str(SEED), "--samples", str(SAMPLE_COUNTS[-1])]
        child = harness.time_cli(staging, argv, SAMPLES, digest)
        config, simulator = harness.modules("config"), harness.modules("simulator")
        lo_choices = harness.modules("detection")["change"].LO_TABLE
        width = 1 + len(config["change"].build_config({}).sim.fluctuating_labels)
        per_call = {}
        for n in SAMPLE_COUNTS:
            per_call[f"draws_{n}"] = harness.time_calls(
                {side: lambda _, sim=sim: draws(sim, n, width) for side, sim in simulator.items()}, SAMPLES)
            for lo in lo_choices:
                runs = {}
                for side in harness.TREES:
                    cfg = config[side].build_config({"samples": n, "lo": lo, "seed": SEED}).to_sim_config()
                    runs[side] = lambda _, run=simulator[side].run, cfg=cfg: run(cfg)
                    digest[side].update(runs[side](None).to_text().encode())
                per_call[f"run_{lo}_{n}"] = harness.time_calls(runs, SAMPLES)

    harness.write_report("BENCH_simulator.json", parent, "simulator.run and the draws alone, seconds "
                         "per call; a purified CLI run per child process", {
        "seed": SEED,
        "samples": SAMPLES,
        "per_call": per_call,
        "cli_simulate": harness.cli_summary(child),
    }, digest, "result_text_sha256")


if __name__ == "__main__":
    main()
