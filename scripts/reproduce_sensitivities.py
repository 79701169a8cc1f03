#!/usr/bin/env python3
"""Reproduce the headline sensitivity numbers of the ranging scheme.

Prints, for the default configuration of `comb_ranger.config` (800 nm
carrier, relative bandwidth 1/6, standard air, L = 1 m, N = 8e16 photons):

  * shot-noise displacement sensitivity of the raw length mode,
  * contamination prefactors of the density factor and water vapor,
  * purified-LO sensitivities (full and X-only purification),
  * two- and three-color interferometry baselines at the same photon budget.

Usage: python scripts/reproduce_sensitivities.py [--wavelength-nm 800]
"""

import argparse

from comb_ranger import contamination_report
from comb_ranger.config import SCHEMA, build_config

# command-line option -> configuration key, whose SCHEMA default it takes
OPTIONS = {
    "--wavelength-nm": "pulse.wavelength_nm",
    "--relative-bandwidth": "pulse.relative_bandwidth",
    "--length-m": "length_m",
    "--photons": "photons",
}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    for option, key in OPTIONS.items():
        parser.add_argument(option, dest=key, type=float, default=SCHEMA[key][1])
    config = build_config(vars(parser.parse_args()))
    report = contamination_report(config.pulse, config.state, config.length_m, config.photons)
    print(report.to_text())

    sens = report.purified
    print("# summary")
    print(f"raw displacement sensitivity : {sens.raw_m:.3e} m")
    print(f"fully purified (X and Pw)    : {sens.full_m:.3e} m  (x{sens.full_m / sens.raw_m:.0f})")
    print(f"X-only purified              : {sens.x_only_m:.3e} m  (x{sens.x_only_m / sens.raw_m:.0f})")
    print(f"two-color baseline           : {report.baselines['two_color_shot_noise_m']:.3e} m")
    print(f"three-color baseline         : {report.baselines['three_color_shot_noise_m']:.3e} m")


if __name__ == "__main__":
    main()
