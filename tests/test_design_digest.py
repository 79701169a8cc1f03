"""Bit-identity guard on the designer's path.

One SHA-256 over 64 seeded designs pins every byte of the sensitivity
report and every bit of both purifications of w_L: a speed-up of the mode
objects, the memos or the norms that moves a last bit changes the digest.
The designs share 16 pulses, four each, so the digest covers the memos'
first calls and their hits.  The ranges are those of the benchmark's design
scan: carrier 700-1600 nm, relative bandwidth 0.05-0.25, T 0-40 C,
P 90-105 kPa, CO2 0.03-0.06 %, P_w 0-2000 Pa, L 0.1-100 m, N 1e14-1e18.
"""

import hashlib

import numpy as np

from comb_ranger import AirState, GaussianPulse
from comb_ranger.detection import contamination_report, purify, ranging_modes
from comb_ranger.errors import SeparabilityError

SEED = 1604
PULSES = 16
DESIGNS_PER_PULSE = 4

# taken on the code before the mode objects lost their numpy checks and norms
DIGEST = "a43df162f75d9f2c49eddab1dd0f541cb6a9b4547b5182c7916833ed939b75d3"


def design_digest() -> str:
    rng = np.random.default_rng(SEED)
    lam = rng.uniform(700e-9, 1600e-9, PULSES)
    rel = rng.uniform(0.05, 0.25, PULSES)
    n = PULSES * DESIGNS_PER_PULSE
    pulse = rng.permutation(np.repeat(np.arange(PULSES), DESIGNS_PER_PULSE))
    t = rng.uniform(0.0, 40.0, n)
    p = rng.uniform(90e3, 105e3, n)
    co2 = rng.uniform(0.03, 0.06, n)
    pw = rng.uniform(0.0, 2000.0, n)
    length = 10.0 ** rng.uniform(-1.0, 2.0, n)
    photons = 10.0 ** rng.uniform(14.0, 18.0, n)
    pulses = [GaussianPulse.from_wavelength(float(a), float(b)) for a, b in zip(lam, rel)]
    digest = hashlib.sha256()
    for i in range(n):
        state = AirState(float(t[i]), float(p[i]), float(co2[i]), float(pw[i]))
        args = pulses[pulse[i]], state, float(length[i])
        digest.update(contamination_report(*args, float(photons[i])).to_text().encode())
        w_l, w_x, w_pw = ranging_modes(*args)
        for against in ([w_x, w_pw], [w_x]):
            try:
                pure = purify(w_l, against)
            except SeparabilityError:
                digest.update(b"refused\n")
            else:
                digest.update(repr((pure.k_const, pure.mode.coefficients)).encode())
    return digest.hexdigest()


def test_design_digest_pinned():
    assert design_digest() == DIGEST
