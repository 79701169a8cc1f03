"""Byte-exact golden outputs of every CLI subcommand.

Each pin is the SHA-256 of the bytes a command writes, so any change to
the bytes on disk or on stdout fails here.  The output paths are relative
(run from a temporary directory) because stdout names them.  All runs use
the default configuration, except the `--config` pins, which change one
key of it.
"""

import hashlib
import io
from pathlib import Path

import pytest

from comb_ranger import cli
from comb_ranger.cli import EXIT_OK, main

SIMULATE_STDOUT_SHA256 = "57c0dcc62bf54f6d322f0d615a1dad6f31d147df1738642162481dc5f13e805f"
SIMULATE_CSV_SHA256 = "a1c476cf1a3f412df9c9db42e312e87e8b0374ba42e85694bf2b0be37a2f297d"
MODES_STDOUT_SHA256 = "5ea4477cda44fc2b175bc638d6913c7c8ec7de7dc60c3180c34686d851500e2d"
MODES_CSV_SHA256 = "7297d620a0d436d29588df6816bfbbfaeab3be44fa593602229479e2fcf1b5fe"

# stdout of the subcommands that write no file
STDOUT_SHA256 = {
    ("air-index",): "657a606be2c4c911176080d3d09509593bd2c37be9d41e197cf326d2ccf0deaf",
    ("air-index", "--wavelength", "1550", "--humidity-pa", "1000"):
        "44708a315b6b725f6493e9f20eae4b9a86bef679f421deff98a3b055e2206726",
    ("sensitivity",): "b2bacbde143d44e870ce6b5e6a74b71a6b0e204427f44c074c368c1d5863fe42",
    ("multicolor", "--scheme", "2wi"):
        "d9eaa60a4c7f5e796a1469e459d5cd2411e2e9617be0daa74d7ed8fb93d63fa4",
    ("multicolor", "--scheme", "3wi", "--wavelengths", "1064,532,355"):
        "a12207800d016946bd92acc4736b78ad84ce07a16a00fa02d9ff561f8ef2c712",
}

# runs with a `--config` file holding one line; no purified mode enters them
# and their purified K come from the exact 1 - s, so a change to how the
# purified mode is built must leave their bytes as they are
CONFIG_STDOUT_SHA256 = {
    ("sensitivity", "pulse.wavelength_nm = 1550"): "d777cd123cd39ae8edc405228a9f6b19e1a46b1235cdaf3fde652aa6d70c2b40",
    ("sensitivity", "pulse.relative_bandwidth = 0.02"): "0d1644b4598b54d826386b754ab35eb8d3055164a00da8a9bd37b8d5bf901e05",
}
# runs whose stdout holds an `n/a` line: no leakage slope at all (nothing
# fluctuates), none for P_w alone, and no oracle deviation (its nodes
# cross the resonance pole)
NA_STDOUT_SHA256 = {
    ("simulate --seed 3 --samples 2000", "fluct.density_factor = 0\nfluct.water_vapor_pa = 0"):
        "5b781ba633141a4ff0d4c728858ccac73fa62a5b8085f9862cd69ce5de1fa1e6",
    ("simulate --seed 3 --samples 2000", "fluct.water_vapor_pa = 0"):
        "e5c942465d818e206d349616fc4e289ca108efed6d8a45a40351494ce992b75f",
    ("sensitivity", "pulse.wavelength_nm = 500\npulse.relative_bandwidth = 0.3"):
        "1ea6e5dc77334ce679a2f2ceeb3a62d0e80751cdd2ea4f1bf5c06259af8e4781",
}
RAW_SIMULATE_STDOUT_SHA256 = "f44a1a55e6d09ea33e7281044705e89748cb2d67b1284e3115a0f8cdcbb5de33"
RAW_SIMULATE_CSV_SHA256 = "b73f21efeb02932373942cc848818bfd26f8143115db3aba4f90c0a774cca6fb"


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@pytest.fixture
def in_tmp(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    return tmp_path


def run_cli(argv) -> bytes:
    out = io.StringIO()
    assert main(argv, out=out) == EXIT_OK
    return out.getvalue().encode("utf-8")


def check_simulate_export(tmp: Path) -> None:
    stdout = run_cli(["simulate", "--seed", "3", "--samples", "2000", "--out", "samples.csv"])
    assert sha256(stdout) == SIMULATE_STDOUT_SHA256
    assert sha256((tmp / "samples.csv").read_bytes()) == SIMULATE_CSV_SHA256


def check_modes_export(tmp: Path) -> None:
    stdout = run_cli(["modes", "--out", "profiles.csv"])
    assert sha256(stdout) == MODES_STDOUT_SHA256
    assert sha256((tmp / "profiles.csv").read_bytes()) == MODES_CSV_SHA256


def test_simulate_export_golden(in_tmp):
    check_simulate_export(in_tmp)


def test_modes_export_golden(in_tmp):
    check_modes_export(in_tmp)


@pytest.mark.parametrize("argv", list(STDOUT_SHA256), ids=" ".join)
def test_stdout_golden(in_tmp, argv):
    assert sha256(run_cli(list(argv))) == STDOUT_SHA256[argv]


# each scheme's default wavelengths are the pinned set of that scheme
def test_multicolor_3wi_default_wavelengths(in_tmp):
    stdout = run_cli(["multicolor", "--scheme", "3wi"])
    assert sha256(stdout) == STDOUT_SHA256["multicolor", "--scheme", "3wi", "--wavelengths", "1064,532,355"]


# The default block holds every row of both exports (2000 and 2049 rows);
# these sizes cut them into many blocks, with a short last block.
@pytest.mark.parametrize("block_rows", [1, 7, 1000])
def test_exports_golden_across_blocks(in_tmp, monkeypatch, block_rows):
    monkeypatch.setattr(cli, "EXPORT_BLOCK_ROWS", block_rows)
    check_simulate_export(in_tmp)
    check_modes_export(in_tmp)


@pytest.mark.parametrize("argv, line", list(CONFIG_STDOUT_SHA256), ids=" ".join)
def test_config_stdout_golden(in_tmp, argv, line):
    (in_tmp / "run.cfg").write_text(line + "\n")
    stdout = run_cli([argv, "--config", "run.cfg"])
    assert sha256(stdout) == CONFIG_STDOUT_SHA256[argv, line]


@pytest.mark.parametrize(
    "argv, doc", list(NA_STDOUT_SHA256), ids=["nothing-fluctuating", "pw-fixed", "oracle-refused"]
)
def test_na_stdout_golden(in_tmp, argv, doc):
    (in_tmp / "run.cfg").write_text(doc + "\n")
    stdout = run_cli(argv.split() + ["--config", "run.cfg"])
    assert sha256(stdout) == NA_STDOUT_SHA256[argv, doc]


def test_raw_lo_simulate_export_golden(in_tmp):
    (in_tmp / "run.cfg").write_text("lo = raw\n")
    stdout = run_cli(
        ["simulate", "--config", "run.cfg", "--seed", "3", "--samples", "2000", "--out", "samples.csv"]
    )
    assert sha256(stdout) == RAW_SIMULATE_STDOUT_SHA256
    assert sha256((in_tmp / "samples.csv").read_bytes()) == RAW_SIMULATE_CSV_SHA256
