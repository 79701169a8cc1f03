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

from dataclasses import dataclass

from .air_model import AirState
from .errors import ValidationError
from .mode_algebra import GaussianPulse
from .simulator import LO_CHOICES, SimConfig

DEFAULT_SEED = 20260808

# key -> (type, default, SimConfig field); the pulse.* and air.* keys build
# the GaussianPulse and AirState of the `pulse` and `state` fields
SCHEMA: dict[str, tuple[type, object, str]] = {
    "pulse.wavelength_nm": (float, 800.0, "pulse"),
    "pulse.relative_bandwidth": (float, 1.0 / 6.0, "pulse"),
    "air.temperature_c": (float, 20.0, "state"),
    "air.pressure_pa": (float, 101325.0, "state"),
    "air.co2_percent": (float, 0.04, "state"),
    "air.water_vapor_pa": (float, 0.0, "state"),
    "length_m": (float, 1.0, "length_m"),
    "photons": (float, 8e16, "n_photons"),
    "lo": (str, "purified", "lo_choice"),
    "samples": (int, 100_000, "sample_count"),
    "seed": (int, DEFAULT_SEED, "rng_seed"),
    "perturb.length_m": (float, 0.0, "p_l_m"),
    "perturb.density_factor": (float, 0.0, "p_x"),
    "perturb.water_vapor_pa": (float, 0.0, "p_pw_pa"),
    "fluct.length_m": (float, 0.0, "sigma_p_l_m"),
    "fluct.density_factor": (float, 1e-6, "sigma_p_x"),
    "fluct.water_vapor_pa": (float, 10.0, "sigma_p_pw_pa"),
}


@dataclass(frozen=True)
class RunConfig:
    """Validated configuration shared by the CLI subcommands.

    `values` holds every SCHEMA key with its typed value; `pulse` and
    `state` are built from the pulse.* and air.* keys.
    """

    pulse: GaussianPulse
    state: AirState
    values: dict[str, object]

    @property
    def length_m(self) -> float:
        return self.values["length_m"]

    @property
    def photons(self) -> float:
        return self.values["photons"]

    def to_sim_config(self) -> SimConfig:
        scalars = {
            field: self.values[key]
            for key, (_, _, field) in SCHEMA.items()
            if field not in ("pulse", "state")
        }
        return SimConfig(pulse=self.pulse, state=self.state, **scalars)

    def with_overrides(self, seed: int | None = None, samples: int | None = None) -> "RunConfig":
        overrides = {key: v for key, v in (("seed", seed), ("samples", samples)) if v is not None}
        return build_config({**self.values, **overrides})


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
    """The exact integer `value` names: "7", "1e6" and 7.0 qualify, 7.5 does not."""
    if isinstance(value, str):
        try:
            return int(value)
        except ValueError:
            value = float(value)
    if value != int(value):
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


def parse_config(text: str) -> RunConfig:
    """Parse and validate a configuration document."""
    return build_config(_parse_lines(text))


def build_config(overrides: dict[str, object] | None = None) -> RunConfig:
    """RunConfig from the SCHEMA defaults plus explicit key overrides.

    Overrides may be text or numbers; keys outside SCHEMA are rejected.
    """
    values = {key: default for key, (_, default, _) in SCHEMA.items()}
    for key, value in (overrides or {}).items():
        if key not in SCHEMA:
            raise ValidationError(f"unknown configuration key {key!r}")
        values[key] = value
    values = {key: _typed(key, value) for key, value in values.items()}
    if values["lo"] not in LO_CHOICES:
        raise ValidationError(f"key 'lo': {values['lo']!r} not in {LO_CHOICES}")
    if values["samples"] < 1:
        raise ValidationError(f"key 'samples': {values['samples']} must be >= 1")
    pulse = GaussianPulse.from_wavelength(
        values["pulse.wavelength_nm"] * 1e-9, values["pulse.relative_bandwidth"]
    )
    state = AirState(
        temperature_c=values["air.temperature_c"],
        pressure_pa=values["air.pressure_pa"],
        co2_percent=values["air.co2_percent"],
        water_vapor_pa=values["air.water_vapor_pa"],
    )
    return RunConfig(pulse, state, values)


def load_config(path: str | None) -> RunConfig:
    """RunConfig from a file path, or all defaults when path is None."""
    if path is None:
        return build_config()
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ValidationError(f"cannot read config {path!r}: {exc}") from exc
    return parse_config(text)
