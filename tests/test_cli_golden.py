"""Byte-exact golden outputs of every CLI subcommand.

Each pin is the SHA-256 of the bytes a command writes, so any change to
the bytes on disk or on stdout fails here.  The output paths are relative
(run from a temporary directory) because stdout names them.  All runs use
the default configuration with COMB_RANGER_SEED unset.
"""

import hashlib
import io
from pathlib import Path

import pytest

from comb_ranger import cli
from comb_ranger.cli import EXIT_OK, main

SIMULATE_STDOUT_SHA256 = "88cb4be1fb00d8c17255675f95e09fe7a5cebe6b1aca799712489b660a1303c3"
SIMULATE_CSV_SHA256 = "f29ebe39c4d7f3f145a4b465ae2300b75714d66ab43de5875fa03f44ae9e0259"
MODES_STDOUT_SHA256 = "8bc571cc96aa72252fe99517952037598e2488cf7e69e922cd87c40110dac5a6"
MODES_CSV_SHA256 = "28fc3a34a29bb38926317f03d222679344dbe3448cf935de322b9bef9198ba50"

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


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@pytest.fixture
def in_tmp(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("COMB_RANGER_SEED", raising=False)
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


# The default block holds every row of both exports (2000 and 2049 rows);
# these sizes cut them into many blocks, with a short last block.
@pytest.mark.parametrize("block_rows", [1, 7, 1000])
def test_exports_golden_across_blocks(in_tmp, monkeypatch, block_rows):
    monkeypatch.setattr(cli, "EXPORT_BLOCK_ROWS", block_rows)
    check_simulate_export(in_tmp)
    check_modes_export(in_tmp)
