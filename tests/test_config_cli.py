"""Configuration parsing and the command-line front end."""

import argparse
import contextlib
import csv
import errno
import gc
import io
import math
import os
import re
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import comb_ranger
from comb_ranger.cli import EXIT_DOMAIN, EXIT_OK, EXIT_VALIDATION, main
from comb_ranger import cli, config
from comb_ranger.config import SCHEMA, build_config, load_config, parse_config
from comb_ranger.errors import DomainError, ValidationError
from comb_ranger.mode_algebra import GaussianPulse, real_profile
from comb_ranger import detection
from comb_ranger.air_model import WAVELENGTH_MAX_M, WAVELENGTH_MIN_M, AirState
from comb_ranger.dispersion import RANGING_LABELS
from comb_ranger import simulator

README = Path(__file__).resolve().parent.parent / "README.md"


def run_cli(argv):
    out = io.StringIO()
    code = main(argv, out=out)
    return code, out.getvalue()


class TestConfigParsing:
    def test_defaults(self):
        cfg = build_config()
        assert cfg.sim.pulse.delta_omega == pytest.approx(cfg.sim.pulse.omega0 / 6.0, rel=1e-15)
        assert cfg.sim.length_m == 1.0
        assert cfg.sim.n_photons == 8e16
        assert cfg.sim.state.pressure_pa == 101325.0
        assert cfg.values["lo"] == "purified"

    def test_file_overrides(self):
        cfg = parse_config(
            """
            # comment
            pulse.wavelength_nm = 1064
            length_m = 12.0   # trailing comment
            lo = raw
            seed = 7
            """
        )
        assert cfg.sim.length_m == 12.0
        assert cfg.values["seed"] == 7
        assert cfg.values["lo"] == "raw"
        assert cfg.sim.pulse.omega0 == pytest.approx(
            GaussianPulse.from_wavelength(1064e-9).omega0, rel=1e-15
        )

    def test_unknown_key_named(self):
        with pytest.raises(ValidationError, match="pulse.bandwidth_hz"):
            parse_config("pulse.bandwidth_hz = 3")

    def test_duplicate_key(self):
        with pytest.raises(ValidationError, match="duplicate"):
            parse_config("length_m = 1\nlength_m = 2")

    def test_bad_number(self):
        with pytest.raises(ValidationError, match="length_m"):
            parse_config("length_m = tall")

    def test_bad_lo(self):
        with pytest.raises(ValidationError, match="lo"):
            parse_config("lo = maximal")

    def test_bad_samples(self):
        with pytest.raises(ValidationError, match="samples"):
            parse_config("samples = 0")

    @pytest.mark.parametrize("text", ["samples = inf", "seed = 1e400", "samples = nan"])
    def test_integer_key_not_finite(self, text):
        key = text.split()[0]
        with pytest.raises(ValidationError, match=f"key '{key}'.* is not an integer"):
            parse_config(text)

    def test_integer_key_not_integral(self):
        with pytest.raises(ValidationError, match="key 'seed'.* is not an integer"):
            parse_config("seed = 1.7")

    def test_integer_key_forms(self):
        cfg = parse_config(f"samples = 1e3\nseed = {2**128 - 1}")
        assert cfg.values["samples"] == 1000
        assert cfg.values["seed"] == 2**128 - 1

    @pytest.mark.parametrize("key", ["samples", "seed"])
    def test_integer_key_takes_numpy_integers(self, key):
        for value in (np.int64(4321), np.uint32(4321)):
            cfg = build_config({key: value})
            assert cfg.values[key] == 4321 and type(cfg.values[key]) is int

    @pytest.mark.parametrize("key", ["samples", "seed"])
    @pytest.mark.parametrize("value", [True, np.True_], ids=["True", "np.True_"])
    def test_integer_key_refuses_booleans(self, key, value):
        with pytest.raises(ValidationError, match=re.escape(f"key '{key}': {value!r} is not an integer")):
            build_config({key: value})

    def test_unknown_override_key_named(self):
        with pytest.raises(ValidationError, match="unknown configuration key 'sample'"):
            build_config({"sample": 5, "lo": "raw"})

    def test_missing_file(self):
        with pytest.raises(ValidationError, match="no_such_file"):
            load_config("no_such_file.cfg")

    def test_non_utf8_file(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_bytes(b"length_m = 1\xff\n")
        code, text = run_cli(["sensitivity", "--config", str(cfg)])
        assert code == EXIT_VALIDATION
        assert text == ""
        assert f"cannot read config {str(cfg)!r}" in capsys.readouterr().err

    def test_sim_config_mapping(self):
        cfg = parse_config("fluct.water_vapor_pa = 5\nperturb.length_m = 1e-13")
        sim = cfg.to_sim_config()
        assert sim.sigmas == (0.0, 1e-6, 5.0)
        assert sim.offsets == (1e-13, 0.0, 0.0)

    def test_sim_config_is_the_one_validated(self, monkeypatch):
        # build_config validates by building the SimConfig; to_sim_config
        # hands back that one and runs no value rule again
        built = []
        real = config.SimConfig.__post_init__

        def counting(self):
            built.append(self)
            real(self)

        monkeypatch.setattr(config.SimConfig, "__post_init__", counting)
        cfg = build_config({"samples": 5000})
        assert cfg.to_sim_config() is cfg.to_sim_config() is built[0]
        assert len(built) == 1
        assert cfg.sim is built[0]

    # each perturb.* and fluct.* key lands at its label's index of its triple
    @pytest.mark.parametrize("prefix, triple", [("perturb", "offsets"), ("fluct", "sigmas")])
    @pytest.mark.parametrize("name, label", [("length_m", "L"), ("density_factor", "X"), ("water_vapor_pa", "Pw")])
    def test_triple_keys_in_label_order(self, prefix, triple, name, label):
        quiet = {"fluct.density_factor": 0, "fluct.water_vapor_pa": 0}
        sim = build_config({**quiet, f"{prefix}.{name}": 1e-13}).to_sim_config()
        offsets, sigmas = [0.0] * 3, [0.0] * 3
        {"offsets": offsets, "sigmas": sigmas}[triple][RANGING_LABELS.index(label)] = 1e-13
        assert (sim.offsets, sim.sigmas) == (tuple(offsets), tuple(sigmas))


def documented_keys(block: str) -> list[str]:
    return [line.split("=")[0].strip() for line in block.splitlines() if "=" in line]


class TestDocumentedDefaults:
    """The config blocks in README and the config docstring list every key at its default."""

    def check(self, block: str) -> None:
        assert sorted(documented_keys(block)) == sorted(SCHEMA)
        assert parse_config(block) == build_config()

    def test_readme_block(self):
        block = README.read_text(encoding="utf-8").split("```ini\n", 1)[1].split("```", 1)[0]
        self.check(block)

    def test_module_docstring_block(self):
        block = config.__doc__.split("is also the default):\n\n", 1)[1].split("\n\n", 1)[0]
        self.check(block)


class TestAirIndexCommand:
    def test_standard_air_633(self):
        code, text = run_cli(["air-index", "--wavelength", "633"])
        assert code == EXIT_OK
        values = dict(line.split(" = ") for line in text.strip().splitlines())
        assert float(values["n_phi"]) - 1.0 == pytest.approx(2.717831642265818e-04, rel=1e-9)
        assert float(values["n_g"]) > float(values["n_phi"])

    def test_vacuum_flags(self):
        code, text = run_cli(
            ["air-index", "--wavelength", "633", "--pressure", "0", "--humidity-pa", "0"]
        )
        assert code == EXIT_OK
        values = dict(line.split(" = ") for line in text.strip().splitlines())
        assert float(values["n_phi"]) == 1.0
        assert float(values["n_g"]) == 1.0

    def test_out_of_range_temperature(self, capsys):
        code, _ = run_cli(["air-index", "--temperature", "250"])
        assert code == EXIT_VALIDATION
        assert "temperature_c" in capsys.readouterr().err

    def test_wavelength_beyond_pole(self, capsys):
        code, _ = run_cli(["air-index", "--wavelength", "150"])
        assert code == EXIT_DOMAIN

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("wavelength_nm", ["1e-300", "99", "100001", "1e300", "nan"])
    def test_wavelength_outside_window(self, capsys, wavelength_nm):
        code, text = run_cli(["air-index", "--wavelength", wavelength_nm])
        assert code == EXIT_VALIDATION
        assert text == ""
        assert "wavelength_m=" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flag, value, key",
        [("--pressure", "nan", "pressure_pa"), ("--pressure", "inf", "pressure_pa"),
         ("--co2", "-1000", "co2_percent")],
    )
    def test_non_finite_or_negative_air_state(self, flag, value, key, capsys):
        code, text = run_cli(["air-index", flag, value])
        assert code == EXIT_VALIDATION
        assert text == ""
        assert key in capsys.readouterr().err

    # a huge but finite pressure is refused before the index overflows
    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize(
        "flag, value, key", [("--pressure", "1e300", "pressure_pa"), ("--co2", "1e300", "co2_percent")]
    )
    def test_huge_air_state(self, flag, value, key, capsys):
        code, text = run_cli(["air-index", flag, value])
        assert code == EXIT_VALIDATION
        assert text == ""
        assert f"{key}=1e+300 must be finite" in capsys.readouterr().err


class TestModesCommand:
    def test_table_and_profiles(self, tmp_path):
        out_csv = tmp_path / "profiles.csv"
        code, text = run_cli(["modes", "--out", str(out_csv)])
        assert code == EXIT_OK
        table = {row["mode"]: row for row in csv.DictReader(io.StringIO(text.split("#")[0]))}
        assert float(table["w_L"]["c2"]) == 0.0
        assert float(table["u"]["c0"]) == 1.0
        assert float(table["w_L_p"]["k_const"]) < float(table["w_L"]["k_const"])

        with open(out_csv) as fh:
            rows = list(csv.DictReader(fh))
        x = np.array([float(r["x"]) for r in rows])
        for label in ("u", "v0", "v1", "v2", "w_L", "w_L_p"):
            amp = np.array([float(r[label]) for r in rows])
            assert np.trapezoid(amp**2, x) == pytest.approx(1.0, abs=1e-6)

    def test_purified_profile_orthogonal_to_interferers(self, tmp_path):
        out_csv = tmp_path / "profiles.csv"
        code, _ = run_cli(["modes", "--out", str(out_csv)])
        assert code == EXIT_OK
        with open(out_csv) as fh:
            rows = list(csv.DictReader(fh))
        x = np.array([float(r["x"]) for r in rows])
        wlp = np.array([float(r["w_L_p"]) for r in rows])

        cfg = build_config().sim
        pulse = cfg.pulse
        omega = pulse.omega0 + x * pulse.delta_omega
        _, w_x, w_pw = detection.ranging_modes(pulse, cfg.state, cfg.length_m)
        for interferer in (w_x, w_pw):
            prof = real_profile(interferer.mode, omega) * np.sqrt(pulse.delta_omega)
            assert abs(np.trapezoid(wlp * prof, x)) < 1e-6

    def test_unwritable_out(self, tmp_path, capsys):
        path = tmp_path / "missing" / "profiles.csv"
        code, text = run_cli(["modes", "--out", str(path)])
        assert code == EXIT_VALIDATION
        assert text == ""
        assert capsys.readouterr().err.startswith(f"error: cannot write {path}")


class TestSensitivityCommand:
    def test_report_values(self):
        code, text = run_cli(["sensitivity"])
        assert code == EXIT_OK
        values = dict(
            line.split(" = ")
            for line in text.splitlines()
            if " = " in line and not line.startswith("M[")
        )
        assert float(values["shot_noise_raw_m"]) == pytest.approx(2.22e-16, rel=0.01)
        assert float(values["x_contamination_per_m"]) == pytest.approx(2.671e-4, rel=0.01)
        assert float(values["pw_contamination_per_m_pa"]) == pytest.approx(-3.734e-10, rel=0.01)
        assert float(values["two_color_shot_noise_m"]) == pytest.approx(3.11e-14, rel=0.01)

    @pytest.mark.parametrize("line, key", [("length_m = inf", "length_m"), ("photons = inf", "n_photons")])
    def test_infinite_length_or_photons_in_config(self, tmp_path, capsys, line, key):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(line + "\n")
        code, text = run_cli(["sensitivity", "--config", str(cfg)])
        assert code == EXIT_VALIDATION
        assert text == ""
        assert f"{key}=inf must be finite" in capsys.readouterr().err

    # one sample-count rule and message for every command that reads the
    # config: `sensitivity` ignored the bound that `simulate` refused
    @pytest.mark.parametrize("command", ["sensitivity", "simulate"])
    def test_samples_beyond_bound_in_config(self, tmp_path, capsys, command):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("samples = 2e9\n")
        code, text = run_cli([command, "--config", str(cfg)])
        assert code == EXIT_VALIDATION
        assert text == ""
        bound = f"[1, {config.MAX_SAMPLES:.0e}]"
        assert f"(config key 'samples') = 2000000000 must be an integer in {bound}" in capsys.readouterr().err

    # every value rule of a run holds for every command that reads the config:
    # `sensitivity` and `modes` ran on these, which `simulate` refused
    @pytest.mark.parametrize("command", ["simulate", "sensitivity", "modes"])
    @pytest.mark.parametrize(
        "line, message",
        [
            ("seed = -5", "rng_seed=-5 must be an integer"),
            ("fluct.water_vapor_pa = -3", "sigmas[Pw]=-3.0 must be >= 0"),
            ("perturb.length_m = nan", "offsets[L]=nan must be finite"),
            ("photons = 0.5", "n_photons=0.5 must be finite and >= 1"),
        ],
    )
    def test_run_values_refused_by_every_command(self, tmp_path, capsys, command, line, message):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(line + "\n")
        out = ["--out", str(tmp_path / "profiles.csv")] if command == "modes" else []
        code, text = run_cli([command, "--config", str(cfg), *out])
        assert code == EXIT_VALIDATION
        assert text == ""
        assert message in capsys.readouterr().err

    # refused before K_X or K_L / K_Pw leaves the double range: 1e300 printed
    # min_X = 0 and 1e-300 an infinite M[Pw], each after an overflow warning
    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("command", ["sensitivity", "simulate", "modes"])
    @pytest.mark.parametrize("length", ["1e300", "1e-300"])
    def test_extreme_length_in_config(self, tmp_path, capsys, command, length):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"length_m = {length}\nsamples = 2000\n")
        code, text = run_cli([command, "--config", str(cfg)])
        assert code == EXIT_VALIDATION
        assert text == ""
        assert f"length_m={float(length)!r} must be finite" in capsys.readouterr().err

    # the carrier is bounded at input: both exited 2 or 3 only after an
    # overflow or divide-by-zero warning
    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("command", ["sensitivity", "simulate", "modes"])
    @pytest.mark.parametrize("wavelength_nm", ["1e300", "1e-300"])
    def test_extreme_wavelength_in_config(self, tmp_path, capsys, command, wavelength_nm):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"pulse.wavelength_nm = {wavelength_nm}\nsamples = 2000\n")
        code, text = run_cli([command, "--config", str(cfg)])
        assert code == EXIT_VALIDATION
        assert text == ""
        assert "wavelength_m=" in capsys.readouterr().err

    # the refusal names the photon count the user gave, not a per-channel share
    @pytest.mark.parametrize("photons", ["2", "1", "2.999"])
    def test_too_few_photons_for_baselines(self, tmp_path, capsys, photons):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"photons = {photons}\n")
        code, text = run_cli(["sensitivity", "--config", str(cfg)])
        assert code == EXIT_VALIDATION
        assert text == ""
        err = capsys.readouterr().err
        assert f"photons={float(photons)!r} must be >= 3" in err
        assert "three channels" in err

    def test_three_photons_accepted(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("photons = 3\n")
        assert run_cli(["sensitivity", "--config", str(cfg)])[0] == EXIT_OK

    # the oracle's outer node, omega0 (1 + 8.51 * 0.3), lies at 141 nm, past the
    # 160 nm pole; the ranging modes need the air model at the carrier only
    @pytest.mark.filterwarnings("error")
    def test_near_pole_oracle_not_available(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("pulse.wavelength_nm = 500\npulse.relative_bandwidth = 0.3\nsamples = 2000\n")
        runs = [run_cli([c, "--config", str(cfg)]) for c in ("sensitivity", "simulate")]
        assert [code for code, _ in runs] == [EXIT_OK, EXIT_OK]
        values = dict(line.split(" = ", 1) for _, out in runs for line in out.splitlines() if " = " in line)
        assert values["numeric_mode_deviation"].startswith("n/a (oracle refused: sigma^2 within")
        assert "resonance pole" in values["numeric_mode_deviation"]
        assert values["shot_noise_purified_m"] == values["predicted_sigma_m"]


@pytest.mark.parametrize("omega0, delta_omega", [(float("inf"), 1.0), (2e15, float("inf"))])
def test_gaussian_pulse_refuses_non_finite(omega0, delta_omega):
    with pytest.raises(ValidationError, match="must be finite"):
        GaussianPulse(omega0, delta_omega)


# a pulse built directly, not from a wavelength, meets the same carrier
# window: 1e-280 rad/s reached a divide by zero before any refusal
@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("omega0", [1e-280, 1e13, 1.9e16, 1e300])
def test_gaussian_pulse_refuses_carrier_outside_window(omega0):
    with pytest.raises(ValidationError, match="omega0="):
        detection.contamination_report(
            GaussianPulse(omega0, omega0 / 10), AirState.standard(), 1.0, 8e16
        )


# the window's edges are the carriers of its edge wavelengths, to the bit
@pytest.mark.parametrize("wavelength_m, outward", [(WAVELENGTH_MIN_M, math.inf), (WAVELENGTH_MAX_M, 0.0)])
def test_gaussian_pulse_at_window_edges(wavelength_m, outward):
    omega0 = GaussianPulse.from_wavelength(wavelength_m, 0.1).omega0
    with pytest.raises(ValidationError, match="omega0="):
        GaussianPulse(math.nextafter(omega0, outward), omega0 / 10)


class TestMulticolorCommand:
    def test_two_color_row(self):
        code, text = run_cli(
            ["multicolor", "--scheme", "2wi", "--wavelengths", "1064,532", "--photons", "4e16"]
        )
        assert code == EXIT_OK
        row = next(csv.DictReader(io.StringIO(text)))
        assert float(row["alpha"]) == pytest.approx(64.92173071777036, rel=1e-8)
        assert float(row["shot_noise_m"]) == pytest.approx(3.1108123179538604e-14, rel=1e-8)
        assert row["beta"] == ""

    def test_three_color_row(self):
        code, text = run_cli(
            [
                "multicolor",
                "--scheme",
                "3wi",
                "--wavelengths",
                "1064,532,355",
                "--photons",
                "2.6666666666666668e16",
            ]
        )
        assert code == EXIT_OK
        row = next(csv.DictReader(io.StringIO(text)))
        assert float(row["beta"]) == pytest.approx(2354.827131837581, rel=1e-8)
        assert float(row["gamma"]) == pytest.approx(-871.0133174070978, rel=1e-8)

    def test_wavelength_count_mismatch(self, capsys):
        code, _ = run_cli(["multicolor", "--scheme", "3wi", "--wavelengths", "1064,532"])
        assert code == EXIT_VALIDATION

    def test_pole_refused_before_distinctness(self, capsys):
        # each carrier meets the pole check as it is converted, before the
        # pair is compared
        code, text = run_cli(["multicolor", "--scheme", "2wi", "--wavelengths", "150,150"])
        assert code == EXIT_DOMAIN
        assert text == ""
        assert "resonance pole" in capsys.readouterr().err

    def test_near_colinear_triple(self, capsys):
        code, _ = run_cli(
            ["multicolor", "--scheme", "3wi", "--wavelengths", "1064,1064.001,1064.002"]
        )
        assert code == EXIT_DOMAIN

    @pytest.mark.parametrize("length", ["inf", "1e300", "1e-9"])
    def test_length_outside_window(self, length, capsys):
        code, text = run_cli(["multicolor", "--scheme", "2wi", "--length", length])
        assert code == EXIT_VALIDATION
        assert text == ""
        assert "length_m=" in capsys.readouterr().err

    # an empty entry was once skipped: the first line printed the 1064/532
    # row, and the second broadcast its one value to both wavelengths
    @pytest.mark.parametrize("flag, value", [("--wavelengths", "1064,,532"), ("--photons", "4e16,,")])
    def test_empty_list_entry_refused(self, flag, value, capsys):
        code, text = run_cli(["multicolor", "--scheme", "2wi", flag, value])
        assert code == EXIT_VALIDATION
        assert text == ""
        assert f"{flag}: {value!r}" in capsys.readouterr().err

    @pytest.mark.parametrize("photons", ["inf", "1,inf,1"])
    def test_infinite_photons(self, photons, capsys):
        code, text = run_cli(
            ["multicolor", "--scheme", "3wi", "--wavelengths", "1064,532,355", "--photons", photons]
        )
        assert code == EXIT_VALIDATION
        assert text == ""
        assert "must be finite and >= 1" in capsys.readouterr().err


# every float64 class: +-0, subnormals, +-inf, NaN, 1e+-300, and the rest
ANY_FLOAT = st.one_of(
    st.floats(),
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, math.inf, -math.inf, math.nan, 1e300, -1e300, 1e-300]),
)


@st.composite
def multicolor_argv(draw):
    """A `multicolor` command line whose values lie where the command succeeds,
    except those of one field, or of all, drawn from all of float64."""
    wild = draw(st.sampled_from([None, None, None, "wavelengths", "photons", "humidity", "length", "all"]))

    def number(field, low, high):
        return repr(draw(ANY_FLOAT if wild in (field, "all") else st.floats(low, high)))

    def numbers(field, low, high, count):
        if wild in (field, "all"):
            count = draw(st.integers(1, 4))
        return ",".join(number(field, low, high) for _ in range(count))

    scheme = draw(st.sampled_from(["2wi", "3wi"]))
    count = 2 if scheme == "2wi" else 3
    # --flag=value keeps argparse from reading "-1e300" or "-inf" as a flag
    return [
        "multicolor",
        f"--scheme={scheme}",
        f"--wavelengths={numbers('wavelengths', 200.0, 3000.0, count)}",
        f"--photons={numbers('photons', 1.0, 1e20, draw(st.sampled_from([1, count])))}",
        f"--humidity-pa={number('humidity', 0.0, 5000.0)}",
        f"--length={number('length', 1e-6, 1e6)}",
    ]


@settings(max_examples=150, deadline=None)
@given(argv=multicolor_argv())
@example(argv=["multicolor", "--scheme=2wi", "--length=inf"])
@example(argv=["multicolor", "--scheme=3wi", "--wavelengths=1064,532,355", "--photons=1,inf,1"])
def test_multicolor_ends_in_finite_row_or_refusal(argv):
    out = io.StringIO()
    with warnings.catch_warnings(), contextlib.redirect_stderr(io.StringIO()):
        warnings.simplefilter("error")
        code = main(argv, out=out)
    assert code in (EXIT_OK, EXIT_VALIDATION, EXIT_DOMAIN)
    if code != EXIT_OK:
        assert out.getvalue() == ""
        return
    row = next(csv.DictReader(io.StringIO(out.getvalue())))
    numbers = [float(v) for key, v in row.items() if key != "scheme" and v != ""]
    assert all(math.isfinite(v) for v in numbers)


AIR_INDEX_RANGES = {
    # flag: (low, high) where `air-index` succeeds
    "wavelength": (200.0, 3000.0),
    "temperature": (0.0, 40.0),
    "pressure": (5e4, 1.1e5),
    "co2": (0.0, 0.1),
    "humidity-pa": (0.0, 4000.0),
}


@st.composite
def air_index_argv(draw):
    """An `air-index` command line whose five float flags lie where the command
    succeeds, except one of them, or all, drawn from all of float64."""
    wild = draw(st.sampled_from([None, *AIR_INDEX_RANGES, "all", "all"]))
    return ["air-index"] + [
        f"--{flag}={draw(ANY_FLOAT if wild in (flag, 'all') else st.floats(low, high))!r}"
        for flag, (low, high) in AIR_INDEX_RANGES.items()
    ]


@settings(max_examples=150, deadline=None)
@given(argv=air_index_argv())
@example(argv=["air-index", "--wavelength=1e-300"])
@example(argv=["air-index", "--pressure=1e300"])
@example(argv=["air-index", "--wavelength=nan", "--co2=inf"])
def test_air_index_ends_in_finite_output_or_refusal(argv):
    out = io.StringIO()
    with warnings.catch_warnings(), contextlib.redirect_stderr(io.StringIO()):
        warnings.simplefilter("error")
        code = main(argv, out=out)
    assert code in (EXIT_OK, EXIT_VALIDATION, EXIT_DOMAIN)
    if code != EXIT_OK:
        assert out.getvalue() == ""
        return
    assert_finite_text(out.getvalue())


# (config document, regressor named by the refusal): a fluctuation, or the
# shot noise, too small for the regression, which once printed a vacuous or
# non-finite verdict, or overflowed
DEGENERATE_REGRESSIONS = [
    ("perturb.density_factor = 1e-6\nfluct.density_factor = 1e-300\n", "X"),
    ("fluct.density_factor = 1e-300\n", "X"),
    ("fluct.density_factor = 5e-324\nfluct.water_vapor_pa = 0\n", "X"),
    ("fluct.length_m = 4.6e-208\n", "L"),
    ("photons = 2.5530551641815646e+73\n", "X"),
]

FLOAT_KEYS = sorted(key for key, (kind, _) in SCHEMA.items() if kind is float)
CONFIG_COMMANDS = (("simulate", "--samples", "200"), ("sensitivity",), ("modes",))


@st.composite
def config_documents(draw):
    """1-4 float SCHEMA keys, each with a value from all of float64."""
    keys = draw(st.lists(st.sampled_from(FLOAT_KEYS), min_size=1, max_size=4, unique=True))
    return "".join(f"{key} = {draw(ANY_FLOAT)!r}\n" for key in keys)


def assert_finite_text(text):
    assert not re.search(r"\b(nan|inf)\b", text, re.IGNORECASE), text


@settings(max_examples=100, deadline=None)
@given(command=st.sampled_from(CONFIG_COMMANDS), doc=config_documents())
@example(command=CONFIG_COMMANDS[0], doc=DEGENERATE_REGRESSIONS[0][0])
@example(command=CONFIG_COMMANDS[0], doc=DEGENERATE_REGRESSIONS[1][0])
@example(command=CONFIG_COMMANDS[0], doc=DEGENERATE_REGRESSIONS[2][0])
@example(command=CONFIG_COMMANDS[0], doc=DEGENERATE_REGRESSIONS[3][0])
@example(command=CONFIG_COMMANDS[0], doc=DEGENERATE_REGRESSIONS[4][0])
@example(command=CONFIG_COMMANDS[0], doc="perturb.length_m = 1.716203292635907e+301\n")
def test_config_ends_in_finite_output_or_refusal(command, doc):
    assert_config_run_holds_contract(command, doc.encode())


@st.composite
def config_bytes(draw):
    """1-5 SCHEMA keys of every type, each with its default, arbitrary text or
    the text of a number, encoded as UTF-8; up to 4 arbitrary bytes may be
    spliced in, so the document need not be valid UTF-8."""
    keys = draw(st.lists(st.sampled_from(sorted(SCHEMA)), min_size=1, max_size=5, unique=True))
    other = st.one_of(st.text(), ANY_FLOAT.map(repr), st.integers().map(str), st.sampled_from(tuple(detection.LO_TABLE)))
    doc = "".join(f"{key} = {draw(st.just(str(SCHEMA[key][1])) | other)}\n" for key in keys).encode()
    cut = draw(st.integers(0, len(doc)))
    return doc[:cut] + draw(st.one_of(st.just(b""), st.binary(max_size=4))) + doc[cut:]


# `simulate --samples 200` wins over the document's `samples`, so no run is huge
@settings(max_examples=100, deadline=None)
@given(command=st.sampled_from(CONFIG_COMMANDS), doc=config_bytes())
@example(command=CONFIG_COMMANDS[1], doc=b"length_m = 1\xff\n")
@example(command=CONFIG_COMMANDS[0], doc=b"samples = 1e300\nseed = -1\nlo = \xc3\xa9\n")
def test_any_config_bytes_end_in_finite_output_or_refusal(command, doc):
    assert_config_run_holds_contract(command, doc)


def assert_config_run_holds_contract(command, doc: bytes):
    """Run `command` on the config document `doc`: exit 0, 2 or 3, no warning
    under "error", and finite output (a refusal prints nothing)."""
    with tempfile.TemporaryDirectory() as tmp:
        cfg, csv_path = os.path.join(tmp, "run.cfg"), os.path.join(tmp, "profiles.csv")
        with open(cfg, "wb") as f:
            f.write(doc)
        argv = [*command, "--config", cfg] + (["--out", csv_path] if command[0] == "modes" else [])
        out = io.StringIO()
        with warnings.catch_warnings(), contextlib.redirect_stderr(io.StringIO()):
            warnings.simplefilter("error")
            code = main(argv, out=out)
        assert code in (EXIT_OK, EXIT_VALIDATION, EXIT_DOMAIN)
        if code != EXIT_OK:
            assert out.getvalue() == ""
            return
        assert_finite_text(out.getvalue())
        if command[0] == "modes":
            assert_finite_text(Path(csv_path).read_text())


class TestSimulateCommand:
    def test_deterministic_reports(self):
        argv = ["simulate", "--seed", "5", "--samples", "5000"]
        code1, text1 = run_cli(argv)
        code2, text2 = run_cli(argv)
        assert code1 == code2 == EXIT_OK
        assert text1 == text2

    def test_default_scenario_immune(self):
        code, text = run_cli(["simulate", "--samples", "20000"])
        assert code == EXIT_OK
        assert "immune = true" in text

    def test_zero_samples_rejected(self, capsys):
        code, _ = run_cli(["simulate", "--samples", "0"])
        assert code == EXIT_VALIDATION

    @pytest.mark.parametrize("seed", ["-5", str(2**128)])
    def test_seed_outside_philox_keys(self, seed, capsys):
        code, text = run_cli(["simulate", "--samples", "100", "--seed", seed])
        assert code == EXIT_VALIDATION
        assert text == ""
        assert "rng_seed" in capsys.readouterr().err

    def test_too_few_samples_for_the_mean(self, tmp_path, capsys):
        # with no fluctuating parameter only the mean is fitted, and one
        # sample leaves no spread for its standard error
        cfg = tmp_path / "run.cfg"
        cfg.write_text("fluct.density_factor = 0\nfluct.water_vapor_pa = 0\n")
        code, text = run_cli(["simulate", "--config", str(cfg), "--samples", "1"])
        assert code == EXIT_VALIDATION
        assert text == ""
        assert "1 samples cannot fit 1 coefficients" in capsys.readouterr().err

    def test_infinite_samples_in_config(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("samples = inf\n")
        code, _ = run_cli(["simulate", "--config", str(cfg)])
        assert code == EXIT_VALIDATION
        assert "key 'samples'" in capsys.readouterr().err

    def test_nan_pressure_in_config(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("air.pressure_pa = nan\nsamples = 2000\n")
        code, text = run_cli(["simulate", "--config", str(cfg)])
        assert code == EXIT_VALIDATION
        assert text == ""
        assert "pressure_pa" in capsys.readouterr().err

    def test_sample_csv(self, tmp_path):
        path = tmp_path / "samples.csv"
        code, _ = run_cli(["simulate", "--samples", "100", "--seed", "3", "--out", str(path)])
        assert code == EXIT_OK
        with open(path) as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 100
        assert set(rows[0]) == {"index", "p_L_m", "p_X", "p_Pw_pa", "signal_m"}

    def test_sample_count_bounded(self, monkeypatch, capsys):
        # refused before the run starts, which would otherwise stream for years
        monkeypatch.setattr(simulator, "run", lambda *args, **kwargs: pytest.fail("the run started"))
        code, text = run_cli(["simulate", "--samples", str(10**15)])
        assert code == EXIT_VALIDATION
        assert text == ""
        assert f"must be an integer in [1, {config.MAX_SAMPLES:.0e}]" in capsys.readouterr().err

    def test_unwritable_out(self, tmp_path, monkeypatch, capsys):
        # refused before the run starts, as the CSV is opened first
        monkeypatch.setattr(simulator, "run", lambda *args, **kwargs: pytest.fail("the run started"))
        path = tmp_path / "missing" / "samples.csv"
        code, text = run_cli(["simulate", "--samples", "100", "--out", str(path)])
        assert code == EXIT_VALIDATION
        assert text == ""
        assert capsys.readouterr().err.startswith(f"error: cannot write {path}")

    def test_directory_out_refused_before_the_run(self, tmp_path, monkeypatch, capsys):
        # the final rename would refuse either path only after the whole
        # export: a directory, or the empty path, which names no file
        monkeypatch.setattr(simulator, "run", lambda *args, **kwargs: pytest.fail("the run started"))
        monkeypatch.chdir(tmp_path)
        for out, reason in ((str(tmp_path), f"{tmp_path}: it is a directory"), ("", "'': it names no file")):
            code, text = run_cli(["simulate", "--samples", "100", "--out", out])
            assert code == EXIT_VALIDATION
            assert text == ""
            assert capsys.readouterr().err.startswith(f"error: cannot write {reason}")
            assert list(tmp_path.iterdir()) == []
            assert list(tmp_path.parent.glob(f".{tmp_path.name}.*.tmp")) == []

    def test_failed_run_leaves_no_partial_csv(self, tmp_path, monkeypatch, capsys):
        # the run fails after its samples reached the open CSV
        def degenerate(*args):
            raise DomainError("degenerate regression")

        monkeypatch.setattr(simulator, "_leakage_slopes", degenerate)
        path = tmp_path / "samples.csv"
        code, text = run_cli(["simulate", "--samples", "1000", "--out", str(path)])
        assert code == EXIT_DOMAIN
        assert text == ""
        assert "degenerate regression" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_failed_write_leaves_no_partial_csv(self, tmp_path, monkeypatch, capsys):
        class FullDisk:
            """File whose writes fail after the header and the first block."""

            def __init__(self, fh):
                self.fh, self.writes = fh, 0

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self.fh.close()

            def write(self, text):
                self.writes += 1
                if self.writes > 2:
                    raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
                return self.fh.write(text)

        monkeypatch.setattr(cli, "EXPORT_BLOCK_ROWS", 100)
        monkeypatch.setattr(cli, "open", lambda *a, **k: FullDisk(open(*a, **k)), raising=False)
        path = tmp_path / "samples.csv"
        code, text = run_cli(["simulate", "--samples", "1000", "--out", str(path)])
        assert code == EXIT_VALIDATION
        assert text == ""
        assert os.strerror(errno.ENOSPC) in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_export_beside_stale_temporary_file(self, tmp_path, monkeypatch):
        # runs killed mid-export leave their temporary files, whose names a
        # later run with the same pid would try first and second
        monkeypatch.chdir(tmp_path)
        stale = [tmp_path / f".s.csv.{os.getpid()}{suffix}.tmp" for suffix in ("", ".1")]
        for path in stale:
            path.write_bytes(b"left by a killed run")
        code, _ = run_cli(["simulate", "--samples", "10", "--out", "s.csv"])
        assert code == EXIT_OK
        assert [path.read_bytes() for path in stale] == [b"left by a killed run"] * 2
        assert sorted(p.name for p in tmp_path.iterdir()) == sorted([p.name for p in stale] + ["s.csv"])
        assert (tmp_path / "s.csv").read_text().startswith("index,p_L_m,p_X,p_Pw_pa,signal_m\n0,")

    def test_env_seed_and_flag_priority(self, tmp_path, monkeypatch):
        # the config's seed holds unless --seed is given; the environment
        # is not a seed source
        monkeypatch.setenv("COMB_RANGER_SEED", "41")
        cfg = tmp_path / "run.cfg"
        cfg.write_text("seed = 9\nsamples = 2000\n")
        _, via_file = run_cli(["simulate", "--config", str(cfg)])
        assert "seed = 9" in via_file.splitlines()
        _, via_flag = run_cli(["simulate", "--config", str(cfg), "--seed", "42"])
        assert "seed = 42" in via_flag.splitlines()

    def test_purified_sigma_matches_sensitivity_at_1550(self, tmp_path):
        # 1 - s is ~7e-13 there; both subcommands take it from one purify
        cfg = tmp_path / "run.cfg"
        cfg.write_text("pulse.wavelength_nm = 1550\n")
        code, sim = run_cli(["simulate", "--config", str(cfg), "--samples", "2000"])
        assert code == EXIT_OK
        code, sens = run_cli(["sensitivity", "--config", str(cfg)])
        assert code == EXIT_OK
        assert "predicted_sigma_m = 5.026990380472e-10" in sim.splitlines()
        assert "shot_noise_purified_m = 5.026990380472e-10" in sens.splitlines()

    def test_config_file_roundtrip(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("samples = 1500\nseed = 9\nlo = raw\nfluct.density_factor = 0\nfluct.water_vapor_pa = 0\n")
        code, text = run_cli(["simulate", "--config", str(cfg)])
        assert code == EXIT_OK
        assert "samples = 1500" in text
        assert "seed = 9" in text
        assert "immune = n/a" in text

    @pytest.mark.parametrize("doc, label", DEGENERATE_REGRESSIONS)
    def test_degenerate_regression_refused(self, doc, label, tmp_path, capsys):
        cfg, csv_path = tmp_path / "run.cfg", tmp_path / "samples.csv"
        cfg.write_text(doc)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, text = run_cli(["simulate", "--config", str(cfg), "--samples", "200", "--out", str(csv_path)])
        assert code == EXIT_DOMAIN
        assert text == ""
        assert not csv_path.exists()
        assert f"{label!r}" in capsys.readouterr().err


def log_uniform(low, high):
    return st.floats(math.log10(low), math.log10(high)).map(lambda e: 10.0**e)


# the pulse and photon draws of `agreement_documents`, by regime: one where
# every command runs, and three whose documented endings the property checks
AGREEMENT_REGIMES = {
    "ordinary": {
        "pulse.wavelength_nm": st.floats(400.0, 2000.0),
        "pulse.relative_bandwidth": st.floats(0.02, 0.3),
        "photons": log_uniform(3.0, 1e20),
    },
    # `sensitivity` exits 2: its three-colour baseline needs 3 photons
    "few_photons": {
        "pulse.wavelength_nm": st.floats(400.0, 2000.0),
        "pulse.relative_bandwidth": st.floats(0.02, 0.3),
        "photons": st.floats(1.0, 3.0, exclude_max=True),
    },
    # the oracle's outer node, sigma0 (1 + 8.51 bandwidth), crosses the
    # pole's 6.24 um^-1: `sensitivity` prints n/a for the oracle line
    "near_pole": {
        "pulse.wavelength_nm": st.floats(400.0, 450.0),
        "pulse.relative_bandwidth": st.floats(0.26, 0.3),
        "photons": log_uniform(3.0, 1e20),
    },
    # 1 - s of the full purification is below PURIFY_FLOOR (1.3e-21 at
    # 1500 nm and 0.001): its `sensitivity` line is n/a and `modes` exits 3
    "below_floor": {
        "pulse.wavelength_nm": st.floats(1500.0, 2000.0),
        "pulse.relative_bandwidth": st.floats(5e-4, 1e-3),
        "photons": log_uniform(3.0, 1e20),
    },
}


@st.composite
def agreement_documents(draw):
    """(regime, document): a config document of every key the three commands
    share, its pulse and photon count drawn from one of AGREEMENT_REGIMES;
    the fluctuations may break `simulate`'s linearity guard."""
    regime = draw(st.sampled_from(sorted(AGREEMENT_REGIMES)))
    keys = {
        "lo": st.sampled_from(tuple(detection.LO_TABLE)),
        **AGREEMENT_REGIMES[regime],
        "length_m": log_uniform(1e-3, 1e3),
        "air.temperature_c": st.floats(-10.0, 40.0),
        "air.pressure_pa": st.floats(5e4, 1.1e5),
        "air.co2_percent": st.floats(0.0, 0.1),
        "air.water_vapor_pa": st.floats(0.0, 4000.0),
        "fluct.length_m": st.just(0.0) | log_uniform(1e-12, 1e-6),
        "fluct.density_factor": st.just(0.0) | log_uniform(1e-9, 1e-4),
        "fluct.water_vapor_pa": st.just(0.0) | log_uniform(1e-2, 1e2),
        "seed": st.integers(0, 2**32 - 1),
        "samples": st.integers(5, 300),
    }
    return regime, "".join(f"{key} = {draw(value)}\n" for key, value in keys.items())


def stdout_values(text):
    """The `name = value` lines of a report, value text by name."""
    return dict(line.split(" = ", 1) for line in text.splitlines() if " = " in line)


def run_lo_commands(doc):
    """(exit code, stdout, stderr) of `simulate`, `sensitivity` and `modes` on
    the config document `doc`, by command."""
    ends = {}
    with tempfile.TemporaryDirectory() as tmp:
        cfg = os.path.join(tmp, "run.cfg")
        Path(cfg).write_text(doc)
        for command, extra in (("simulate", []), ("sensitivity", []),
                               ("modes", ["--out", os.path.join(tmp, "profiles.csv")])):
            err = io.StringIO()
            with contextlib.redirect_stderr(err):
                code, out = run_cli([command, "--config", cfg, *extra])
            ends[command] = code, out, err.getvalue()
    return ends


@settings(max_examples=50, deadline=None)
@given(drawn=agreement_documents())
def test_commands_agree_on_the_lo(drawn):
    # each LO_TABLE entry names the `sensitivity` line and the `modes` row
    # that must state the K of the LO `simulate` runs, or its refusal
    regime, doc = drawn
    choice = stdout_values(doc)["lo"]
    lo = detection.LO_TABLE[choice]
    ends = run_lo_commands(doc)
    (sim_code, sim, sim_err), (sens_code, sens, sens_err), (modes_code, table, modes_err) = (
        ends["simulate"], ends["sensitivity"], ends["modes"])

    if regime == "few_photons":
        assert (sens_code, sens) == (EXIT_VALIDATION, "")
        assert "three channels of at least one photon each" in sens_err
    else:
        assert sens_code == EXIT_OK, sens_err
    sens = stdout_values(sens)
    refusals = {key: value for key, value in sens.items() if value.startswith("n/a (purification refused: ")}
    if regime == "near_pole":
        assert sens["numeric_mode_deviation"].startswith("n/a (oracle refused: ")
    if regime == "below_floor":
        assert set(refusals) == {detection.LO_TABLE["purified"].report_key}
    else:
        assert refusals == {}
    if refusals:
        # `modes` always prints the fully purified row
        assert (modes_code, table) == (EXIT_DOMAIN, "")
        assert "not separable" in modes_err
    else:
        assert modes_code == EXIT_OK, modes_err

    if sim_code != EXIT_OK:
        # the linearity guard comes before the LO is built
        assert (sim_code, sim) == (EXIT_DOMAIN, "")
        message = sim_err.removeprefix("error: ").strip()
        assert ("drives the spectral phase" in message
                or refusals.get(lo.report_key) == f"n/a (purification refused: {message})")
        return
    assert lo.report_key not in refusals
    sim = stdout_values(sim)
    if sens_code == EXIT_OK:
        assert sim["predicted_sigma_m"] == sens[lo.report_key]
    if lo.mode_row is not None and modes_code == EXIT_OK:
        k_const = {row["mode"]: row["k_const"] for row in csv.DictReader(io.StringIO(table.split("#")[0]))}
        assert sim["k_lo_per_m"] == k_const[lo.mode_row]


@pytest.mark.parametrize("choice", tuple(detection.LO_TABLE))
def test_lo_choices_below_the_purification_floor(choice):
    # 1600 nm at bandwidth 0.001: only the full purification is refused, so
    # `simulate` runs the other LOs and `sensitivity` prints every line but
    # that LO's; `modes` always prints the fully purified row and refuses
    doc = f"pulse.wavelength_nm = 1600\npulse.relative_bandwidth = 0.001\nlo = {choice}\n"
    ends = run_lo_commands(doc)
    refusal = "parameter 'L' not separable: its detection mode lies in the span of the interfering modes"
    sim_code, sim, sim_err = ends["simulate"]
    sens_code, sens, _ = ends["sensitivity"]
    assert sens_code == EXIT_OK
    sens = stdout_values(sens)
    assert sens["shot_noise_purified_m"] == f"n/a (purification refused: {refusal})"
    assert float(sens["shot_noise_raw_m"]) < float(sens["shot_noise_x_only_purified_m"])
    assert ends["modes"][:2] == (EXIT_DOMAIN, "")
    assert refusal in ends["modes"][2]
    if choice == "purified":
        assert (sim_code, sim) == (EXIT_DOMAIN, "")
        assert refusal in sim_err
    else:
        assert sim_code == EXIT_OK
        assert stdout_values(sim)["predicted_sigma_m"] == sens[detection.LO_TABLE[choice].report_key]


def run_child(argv):
    """Run a Python child that imports the package from where this process found it."""
    package_root = str(Path(comb_ranger.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [package_root, os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *argv],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
    )


def test_console_entry_point():
    proc = run_child(["-m", "comb_ranger.cli", "air-index", "--wavelength", "633"])
    assert proc.returncode == 0
    assert "n_phi" in proc.stdout
    # a refusal's code survives `entry` and the interpreter's exit
    for argv, code in ((["simulate", "--samples", "2"], EXIT_VALIDATION),
                       (["air-index", "--wavelength", "100"], EXIT_DOMAIN)):
        proc = run_child(["-m", "comb_ranger.cli", *argv])
        assert (proc.returncode, proc.stdout) == (code, ""), argv
        assert proc.stderr.startswith("error: "), argv


def test_entry_freezes_the_heap_before_main():
    stub = ("import gc, sys\n"
            "from comb_ranger import cli\n"
            "cli.main = lambda: print(gc.get_freeze_count()) or 0\n"
            "sys.exit(cli.entry())\n")
    proc = run_child(["-c", stub])
    assert proc.returncode == 0, proc.stderr
    assert int(proc.stdout) > 0


@pytest.mark.parametrize("argv", [
    ["air-index"],
    ["sensitivity"],
    ["multicolor", "--scheme", "3wi"],
    ["modes", "--out", "modes.csv"],
    ["simulate", "--samples", "2000", "--out", "samples.csv"],
], ids=lambda argv: argv[0])
def test_main_leaves_the_collector_as_it_was(argv, tmp_path, monkeypatch):
    # only `entry`, a process's own, freezes: `main` is the in-process call;
    # each state is set here, so a test before this one that changed it
    # cannot hide a change
    monkeypatch.chdir(tmp_path)
    was = gc.isenabled()
    try:
        for enabled in (True, False):
            (gc.enable if enabled else gc.disable)()
            before = enabled, gc.get_freeze_count()
            assert run_cli(argv)[0] == EXIT_OK
            assert (gc.isenabled(), gc.get_freeze_count()) == before
    finally:
        (gc.enable if was else gc.disable)()


def test_console_script_is_the_entry():
    tomllib = pytest.importorskip("tomllib")
    with open(README.parent / "pyproject.toml", "rb") as fh:
        scripts = tomllib.load(fh)["project"]["scripts"]
    assert scripts == {"comb-ranger": "comb_ranger.cli:entry"}


COMMANDS = ("air-index", "modes", "sensitivity", "multicolor", "simulate")
# dests of the options that are a command's own inputs, not config quantities
COMMAND_INPUTS = {"config", "out", "scheme", "wavelengths", "photon_list"}


def subcommands() -> dict[str, argparse.ArgumentParser]:
    (action,) = [a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    assert tuple(action.choices) == COMMANDS
    return action.choices


def test_every_option_sets_a_config_key_or_a_command_input():
    """An option that sets a config quantity has the SCHEMA key as its dest
    and SCHEMA's type as its type, so `cli._config` reads it by name; the
    rest are the command's own inputs.  `multicolor --photons` is a list,
    and as the `photons` key it would be refused as "not a number"."""
    for name, parser in subcommands().items():
        for action in parser._actions:
            if isinstance(action, argparse._HelpAction):
                continue
            where = (name, action.option_strings, action.dest)
            if action.dest in SCHEMA:
                assert action.type is SCHEMA[action.dest][0], where
            else:
                assert action.dest in COMMAND_INPUTS, where


def test_stock_argparse_negative_number_matcher():
    # the private pattern `cli._Parser` widens: an argparse that changes it
    # fails here, and the subclass is then rechecked or dropped
    assert argparse.ArgumentParser()._negative_number_matcher.pattern == r"^-\d+$|^-\d*\.\d+$"


def test_no_option_string_looks_like_a_negative_number():
    # so the wider matcher shadows no option
    for parser in (cli.build_parser(), *subcommands().values()):
        assert isinstance(parser, cli._Parser)
        for action in parser._actions:
            for flag in action.option_strings:
                assert not parser._negative_number_matcher.match(flag), flag


@pytest.mark.parametrize("argv", [["--temperature=-1e1"], ["--temperature", "-10"]])
def test_negative_value_with_exponent_is_a_number(argv):
    code, text = run_cli(["air-index", "--temperature", "-1e1"])
    assert code == EXIT_OK
    assert run_cli(["air-index", *argv]) == (code, text)


@pytest.mark.parametrize(
    "argv, message",
    [
        (["multicolor", "--scheme", "2wi", "--length", "-1e1"], "length_m=-10.0 must be finite and in"),
        (["air-index", "--humidity-pa", "-inf"], "water_vapor_pa=-inf must be finite and in"),
    ],
)
def test_negative_value_with_exponent_refused_by_its_rule(argv, message, capsys):
    code, text = run_cli(argv)
    assert code == EXIT_VALIDATION
    assert text == ""
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("command", COMMANDS)
def test_help_names_every_flag_and_config_key(command, capsys):
    with pytest.raises(SystemExit) as exc:
        main([command, "--help"])
    assert exc.value.code == 0
    text = capsys.readouterr().out
    for action in subcommands()[command]._actions:
        for flag in action.option_strings:
            assert re.search(rf"{flag}\b", text), flag
        if action.dest in SCHEMA:
            # argparse's metavar: the dest, upper-cased
            assert action.dest.upper() in text, action.dest


SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


@pytest.mark.parametrize(
    "argv",
    [["reproduce_sensitivities.py"], ["immunity_demo.py", "--samples", "2000"]],
    ids=lambda argv: argv[0],
)
def test_script_prints_finite_numbers(argv):
    proc = run_child([str(SCRIPTS / argv[0]), *argv[1:]])
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
    assert not re.search(r"\b(nan|inf)", proc.stdout, re.IGNORECASE)
    numbers = re.findall(r"[-+]?\d+\.\d*(?:e[-+]?\d+)?", proc.stdout)
    assert numbers and all(math.isfinite(float(x)) for x in numbers)
