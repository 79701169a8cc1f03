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
from pathlib import Path

import numpy as np

from comb_ranger.air_model import AirState
from comb_ranger.detection import contamination_report, purify, ranging_modes
from comb_ranger.errors import SeparabilityError
from comb_ranger.mode_algebra import GaussianPulse

SEED = 1604
PULSES = 16
DESIGNS_PER_PULSE = 4

# the digest's pin, beside the CLI goldens' (`scripts/regen_goldens.py` writes it)
SHA256SUMS = Path(__file__).resolve().parent / "golden" / "SHA256SUMS"


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


def pinned_digest() -> str:
    for line in SHA256SUMS.read_text().splitlines():
        digest, name = line.split("  ", 1)
        if name == "design_digest":
            return digest
    raise AssertionError("SHA256SUMS pins no design_digest")


def test_design_digest_pinned():
    assert design_digest() == pinned_digest()
