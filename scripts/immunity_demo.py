#!/usr/bin/env python3
"""Monte Carlo demonstration of environmental immunity.

Runs the same fluctuating-environment scenario (density factor sigma 1e-6,
water vapor sigma 10 Pa) against the three LO choices and tabulates the
leakage slopes recovered by regression.  The raw length mode picks up both
parameters at the analytic contamination level; the X-only purified mode
still leaks water vapor; the fully purified mode is statistically immune.

Usage: python scripts/immunity_demo.py [--samples 100000] [--seed 20260808]
"""

import argparse

from comb_ranger import AirState, GaussianPulse, SimConfig, run
from comb_ranger.config import DEFAULT_SEED


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--samples", type=int, default=100_000)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    args = parser.parse_args()

    pulse = GaussianPulse.from_wavelength(800e-9)
    state = AirState.standard()

    header = f"{'LO':18s} {'sigma (m)':>12s} {'X slope':>12s} {'t(X)':>8s} {'Pw slope':>12s} {'t(Pw)':>8s}  immune"
    print(header)
    print("-" * len(header))
    for lo in ("raw", "purified_x_only", "purified"):
        config = SimConfig(
            pulse=pulse,
            state=state,
            length_m=1.0,
            n_photons=8e16,
            lo_choice=lo,
            sample_count=args.samples,
            rng_seed=args.seed,
            sigma_p_x=1e-6,
            sigma_p_pw_pa=10.0,
        )
        res = run(config)
        sx, spw = res.slopes["X"], res.slopes["Pw"]
        print(
            f"{lo:18s} {res.std_estimate_m:12.3e} {sx.value:12.3e} {sx.t_stat:8.1f} "
            f"{spw.value:12.3e} {spw.t_stat:8.1f}  {res.immune}"
        )


if __name__ == "__main__":
    main()
