#!/usr/bin/env python3
"""Monte Carlo demonstration of environmental immunity.

Runs the default configuration's fluctuating-environment scenario (density
factor sigma 1e-6, water vapor sigma 10 Pa, see `comb_ranger.config`)
against the three LO choices and tabulates the leakage slopes recovered by
regression.  The raw length mode picks up both parameters at the analytic
contamination level; the X-only purified mode still leaks water vapor; the
fully purified mode is statistically immune.

Usage: python scripts/immunity_demo.py [--samples 100000] [--seed 20260808]
"""

import argparse

from comb_ranger.config import SCHEMA, build_config
from comb_ranger.detection import LO_TABLE
from comb_ranger.simulator import run


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    for key in ("samples", "seed"):
        parser.add_argument(f"--{key}", type=int, default=SCHEMA[key][1])
    args = parser.parse_args()

    header = f"{'LO':18s} {'sigma (m)':>12s} {'X slope':>12s} {'t(X)':>8s} {'Pw slope':>12s} {'t(Pw)':>8s}  immune"
    print(header)
    print("-" * len(header))
    for lo in LO_TABLE:
        config = build_config({**vars(args), "lo": lo})
        res = run(config.sim)
        sx, spw = res.slopes["X"], res.slopes["Pw"]
        print(
            f"{lo:18s} {res.std_estimate_m:12.3e} {sx.value:12.3e} {sx.t_stat:8.1f} "
            f"{spw.value:12.3e} {spw.t_stat:8.1f}  {res.immune}"
        )


if __name__ == "__main__":
    main()
