"""Byte-exact golden outputs of the CLI exports.

Each pin is the SHA-256 of the bytes a command writes, so any change to
the bytes on disk or on stdout fails here.  The output paths are relative
(run from a temporary directory) because stdout names them.
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


# The default block holds every row of both exports (2000 and 2049 rows);
# these sizes cut them into many blocks, with a short last block.
@pytest.mark.parametrize("block_rows", [1, 7, 1000])
def test_exports_golden_across_blocks(in_tmp, monkeypatch, block_rows):
    monkeypatch.setattr(cli, "EXPORT_BLOCK_ROWS", block_rows)
    check_simulate_export(in_tmp)
    check_modes_export(in_tmp)
