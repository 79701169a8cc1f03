"""Run configuration: a flat key/value text document with dotted keys.

Example (every value shown is also the default):

    pulse.wavelength_nm     = 800
    pulse.relative_bandwidth = 0.166666666666666667
    air.temperature_c       = 20
    air.pressure_pa         = 101325
    air.co2_percent         = 0.04
    air.water_vapor_pa      = 0
    length_m                = 1
    photons                 = 8e16
    lo                      = purified
    samples                 = 100000
    seed                    = 20260808
    perturb.length_m        = 0
    perturb.density_factor  = 0
    perturb.water_vapor_pa  = 0
    fluct.length_m          = 0
    fluct.density_factor    = 1e-6
    fluct.water_vapor_pa    = 10

Dimensioned keys carry their unit as a suffix; `perturb.*` are fixed
offsets, `fluct.*` are standard deviations of per-sample zero-mean
fluctuations.  Lines starting with # are comments.  Unknown keys are
rejected, with the offending key named.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

from . import detection
from .air_model import AirState, check_length
from .dispersion import RANGING_LABELS
from .errors import ValidationError
from .mode_algebra import GaussianPulse

DEFAULT_SEED = 20260808
# largest sample count a run accepts: about two minutes of streaming at
# 0.12 s per 1e6 samples, and 250x the largest benchmarked run; a count far
# beyond streams without output for years
MAX_SAMPLES = 10**9

# key -> (type, default); _run_fields names each key's SimConfig field, and
# the perturb.* and fluct.* keys, in RANGING_LABELS order, give the offsets
# and sigmas triples
SCHEMA: dict[str, tuple[type, object]] = {
    "pulse.wavelength_nm": (float, 800.0),
    "pulse.relative_bandwidth": (float, 1.0 / 6.0),
    "air.temperature_c": (float, 20.0),
    "air.pressure_pa": (float, 101325.0),
    "air.co2_percent": (float, 0.04),
    "air.water_vapor_pa": (float, 0.0),
    "length_m": (float, 1.0),
    "photons": (float, 8e16),
    "lo": (str, "purified"),
    "samples": (int, 100_000),
    "seed": (int, DEFAULT_SEED),
    "perturb.length_m": (float, 0.0),
    "perturb.density_factor": (float, 0.0),
    "perturb.water_vapor_pa": (float, 0.0),
    "fluct.length_m": (float, 0.0),
    "fluct.density_factor": (float, 1e-6),
    "fluct.water_vapor_pa": (float, 10.0),
}


def _run_fields(values: dict[str, object]) -> dict[str, object]:
    """SimConfig's fields but pulse and state, from the typed SCHEMA values."""
    return dict(
        lo_choice=values["lo"],
        sample_count=values["samples"],
        rng_seed=values["seed"],
        length_m=values["length_m"],
        n_photons=values["photons"],
        offsets=tuple(v for key, v in values.items() if key.startswith("perturb.")),
        sigmas=tuple(v for key, v in values.items() if key.startswith("fluct.")),
    )


def _is_integer(value) -> bool:
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


@dataclass(frozen=True)
class SimConfig:
    """Full specification of a simulation run, checked when built; `simulator.run` adds the linearity guard.

    `offsets` are the fixed perturbations (p_L [m], p_X, p_Pw [Pa]) and
    `sigmas` the standard deviations of additional zero-mean per-sample
    fluctuations, both in RANGING_LABELS order.  The seed fixes the complete
    sample sequence.
    """

    pulse: GaussianPulse
    state: AirState
    length_m: float
    n_photons: float
    lo_choice: str
    sample_count: int
    rng_seed: int
    offsets: tuple[float, float, float] = (0.0, 0.0, 0.0)
    sigmas: tuple[float, float, float] = (0.0, 0.0, 0.0)

    def __post_init__(self) -> None:
        if self.lo_choice not in detection.LO_TABLE:
            raise ValidationError(f"lo_choice (config key 'lo') = {self.lo_choice!r}"
                                  f" must be one of {tuple(detection.LO_TABLE)}")
        if not (_is_integer(self.sample_count) and 1 <= self.sample_count <= MAX_SAMPLES):
            raise ValidationError(f"sample_count (config key 'samples') = {self.sample_count!r}"
                                  f" must be an integer in [1, {MAX_SAMPLES:.0e}]")
        # the seed is the key of a 128-bit Philox generator
        if not (_is_integer(self.rng_seed) and 0 <= self.rng_seed < 2**128):
            raise ValidationError(f"rng_seed={self.rng_seed!r} must be an integer in [0, 2**128)")
        check_length(self.length_m)
        if not 1.0 <= self.n_photons < math.inf:
            raise ValidationError(f"n_photons={self.n_photons} must be finite and >= 1")
        for name, triple in (("offsets", self.offsets), ("sigmas", self.sigmas)):
            if len(triple) != len(RANGING_LABELS):
                raise ValidationError(f"{name} must hold one value per label {RANGING_LABELS}, got {len(triple)}")
            for label, value in zip(RANGING_LABELS, triple):
                if not math.isfinite(value):
                    raise ValidationError(f"{name}[{label}]={value} must be finite")
        for label, sigma in zip(RANGING_LABELS, self.sigmas):
            if sigma < 0.0:
                raise ValidationError(f"sigmas[{label}]={sigma} must be >= 0")

    @property
    def fluctuating_labels(self) -> tuple[str, ...]:
        return tuple(lab for lab, s in zip(RANGING_LABELS, self.sigmas) if s > 0.0)


@dataclass(frozen=True)
class RunConfig:
    """Validated configuration shared by the CLI subcommands.

    `values` holds every SCHEMA key with its typed value; `sim` is the
    SimConfig that `build_config` built from them, and validated, its pulse
    and air state from the pulse.* and air.* keys.
    """

    sim: SimConfig
    values: dict[str, object]

    def to_sim_config(self) -> SimConfig:
        return self.sim


def _parse_lines(text: str) -> dict[str, str]:
    raw: dict[str, str] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ValidationError(f"line {lineno}: expected 'key = value', got {line!r}")
        key, _, value = stripped.partition("=")
        key = key.strip()
        value = value.split("#", 1)[0].strip()
        if key in raw:
            raise ValidationError(f"line {lineno}: duplicate key {key!r}")
        raw[key] = value
    return raw


def _integer(value: object) -> int:
    """The exact integer `value` names: "7", "1e6", 7.0 and any integral number
    qualify; 7.5 and a boolean of any kind do not."""
    if isinstance(value, str):
        try:
            return int(value)
        except ValueError:
            value = float(value)
    if isinstance(value, bool) or not isinstance(value, numbers.Real) or value != int(value):
        raise ValueError(f"{value!r} is not integral")
    return int(value)


def _typed(key: str, value: object) -> object:
    """`value`, text or a number, as the SCHEMA type of `key`."""
    kind = SCHEMA[key][0]
    if kind is str:
        return str(value)
    try:
        return _integer(value) if kind is int else float(value)
    except (ValueError, TypeError, OverflowError) as exc:
        expected = "an integer" if kind is int else "a number"
        raise ValidationError(f"key {key!r}: {value!r} is not {expected}") from exc


def parse_config(text: str, overrides: dict[str, object] | None = None) -> RunConfig:
    """Parse and validate a configuration document; `overrides` win over its keys."""
    return build_config({**_parse_lines(text), **(overrides or {})})


def build_config(overrides: dict[str, object] | None = None) -> RunConfig:
    """RunConfig from the SCHEMA defaults plus explicit key overrides.

    Overrides may be text or numbers; keys outside SCHEMA are rejected.
    """
    values = {key: default for key, (_, default) in SCHEMA.items()}
    for key, value in (overrides or {}).items():
        if key not in SCHEMA:
            raise ValidationError(f"unknown configuration key {key!r}")
        values[key] = value
    values = {key: _typed(key, value) for key, value in values.items()}
    pulse = GaussianPulse.from_wavelength(
        values["pulse.wavelength_nm"] * 1e-9, values["pulse.relative_bandwidth"]
    )
    state = AirState(
        temperature_c=values["air.temperature_c"],
        pressure_pa=values["air.pressure_pa"],
        co2_percent=values["air.co2_percent"],
        water_vapor_pa=values["air.water_vapor_pa"],
    )
    # every command refuses what a run's config refuses
    return RunConfig(SimConfig(pulse, state, **_run_fields(values)), values)


def load_config(path: str | None, overrides: dict[str, object] | None = None) -> RunConfig:
    """RunConfig from a file path, or all defaults when path is None, with
    explicit key `overrides` winning over both."""
    if path is None:
        return build_config(overrides)
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ValidationError(f"cannot read config {path!r}: {exc}") from exc
    return parse_config(text, overrides)
