"""Byte-exact golden outputs of every CLI subcommand.

Each stdout is compared byte for byte with a text file under
`tests/golden/`, and a mismatch prints a unified diff of the two.  The
exported CSVs are megabytes, so each is pinned by its SHA-256 in
`tests/golden/SHA256SUMS`.  `scripts/regen_goldens.py` rewrites every
golden from the working tree; no test writes one.  The output paths are
relative (run from a temporary directory) because stdout names them.  All
runs use the default configuration, except the `--config` pins, which
change one key of it.
"""

import difflib
import hashlib
import io
from pathlib import Path

import pytest

from comb_ranger import cli
from comb_ranger.cli import EXIT_OK, main

GOLDEN = Path(__file__).resolve().parent / "golden"

SIMULATE_ARGV = ("simulate", "--seed", "3", "--samples", "2000", "--out", "samples.csv")
MODES_ARGV = ("modes", "--out", "profiles.csv")

# stdout of the subcommands that write no file
STDOUT_GOLDEN = {
    ("air-index",): "air-index.txt",
    ("air-index", "--wavelength", "1550", "--humidity-pa", "1000"): "air-index_1550nm_1000pa.txt",
    ("sensitivity",): "sensitivity.txt",
    ("multicolor", "--scheme", "2wi"): "multicolor_2wi.txt",
    ("multicolor", "--scheme", "3wi", "--wavelengths", "1064,532,355"): "multicolor_3wi.txt",
}

# runs with a `--config` file holding one line; no purified mode enters them
# and their purified K come from the exact 1 - s, so a change to how the
# purified mode is built must leave their bytes as they are
CONFIG_GOLDEN = {
    ("sensitivity", "pulse.wavelength_nm = 1550"): "sensitivity_1550nm.txt",
    ("sensitivity", "pulse.relative_bandwidth = 0.02"): "sensitivity_bandwidth_0.02.txt",
}
# runs whose stdout holds an `n/a` line: no leakage slope at all (nothing
# fluctuates), none for P_w alone, and no oracle deviation (its nodes
# cross the resonance pole)
NA_GOLDEN = {
    ("simulate --seed 3 --samples 2000", "fluct.density_factor = 0\nfluct.water_vapor_pa = 0"):
        "simulate_nothing_fluctuating.txt",
    ("simulate --seed 3 --samples 2000", "fluct.water_vapor_pa = 0"): "simulate_pw_fixed.txt",
    ("sensitivity", "pulse.wavelength_nm = 500\npulse.relative_bandwidth = 0.3"):
        "sensitivity_oracle_refused.txt",
}
RAW_CONFIG = "lo = raw"

# each golden: its argv, the `--config` text (None for none), the stdout
# file and the CSV the run writes, pinned in SHA256SUMS under `csv_key`
GOLDEN_RUNS = [
    (SIMULATE_ARGV, None, "simulate.txt", ("samples.csv", "simulate.csv")),
    (MODES_ARGV, None, "modes.txt", ("profiles.csv", "modes.csv")),
    *[(argv, None, name, None) for argv, name in STDOUT_GOLDEN.items()],
    *[((argv,), line, name, None) for (argv, line), name in CONFIG_GOLDEN.items()],
    *[(tuple(argv.split()), doc, name, None) for (argv, doc), name in NA_GOLDEN.items()],
    (SIMULATE_ARGV, RAW_CONFIG, "simulate_raw.txt", ("samples.csv", "simulate_raw.csv")),
]


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def pinned_sha256() -> dict[str, str]:
    """The SHA-256 pins of SHA256SUMS, by name (`sha256sum`'s line format)."""
    lines = (GOLDEN / "SHA256SUMS").read_text().splitlines()
    return {name: digest for digest, name in (line.split("  ", 1) for line in lines)}


def assert_golden(name: str, got: bytes) -> None:
    """Fail with a unified diff unless `got` equals tests/golden/<name> byte for byte."""
    want = (GOLDEN / name).read_bytes()
    if got != want:
        diff = difflib.unified_diff(
            want.decode().splitlines(keepends=True), got.decode().splitlines(keepends=True),
            f"tests/golden/{name}", "output",
        )
        pytest.fail("output differs from its golden:\n" + "".join(diff), pytrace=False)


def assert_pinned(key: str, data: bytes) -> None:
    assert sha256(data) == pinned_sha256()[key], f"{key} differs from its SHA256SUMS pin"


@pytest.fixture
def in_tmp(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    return tmp_path


def run_cli(argv, config: str | None = None) -> bytes:
    """stdout of `argv`, with `--config run.cfg` holding `config` if given,
    run in process from the working directory."""
    argv = list(argv)
    if config is not None:
        Path("run.cfg").write_text(config + "\n")
        argv[1:1] = ["--config", "run.cfg"]
    out = io.StringIO()
    assert main(argv, out=out) == EXIT_OK
    return out.getvalue().encode("utf-8")


def check_run(tmp: Path, argv, config, name, csv) -> None:
    assert_golden(name, run_cli(argv, config))
    if csv is not None:
        path, key = csv
        assert_pinned(key, (tmp / path).read_bytes())


def test_simulate_export_golden(in_tmp):
    check_run(in_tmp, *GOLDEN_RUNS[0])


def test_modes_export_golden(in_tmp):
    check_run(in_tmp, *GOLDEN_RUNS[1])


@pytest.mark.parametrize("argv", list(STDOUT_GOLDEN), ids=" ".join)
def test_stdout_golden(in_tmp, argv):
    assert_golden(STDOUT_GOLDEN[argv], run_cli(argv))


# each scheme's default wavelengths are the pinned set of that scheme
def test_multicolor_3wi_default_wavelengths(in_tmp):
    stdout = run_cli(["multicolor", "--scheme", "3wi"])
    assert_golden(STDOUT_GOLDEN["multicolor", "--scheme", "3wi", "--wavelengths", "1064,532,355"], stdout)


# The default block holds every row of both exports (2000 and 2049 rows);
# these sizes cut them into many blocks, with a short last block.
@pytest.mark.parametrize("block_rows", [1, 7, 1000])
def test_exports_golden_across_blocks(in_tmp, monkeypatch, block_rows):
    monkeypatch.setattr(cli, "EXPORT_BLOCK_ROWS", block_rows)
    check_run(in_tmp, *GOLDEN_RUNS[0])
    check_run(in_tmp, *GOLDEN_RUNS[1])


@pytest.mark.parametrize("argv, line", list(CONFIG_GOLDEN), ids=" ".join)
def test_config_stdout_golden(in_tmp, argv, line):
    assert_golden(CONFIG_GOLDEN[argv, line], run_cli([argv], line))


@pytest.mark.parametrize(
    "argv, doc", list(NA_GOLDEN), ids=["nothing-fluctuating", "pw-fixed", "oracle-refused"]
)
def test_na_stdout_golden(in_tmp, argv, doc):
    assert_golden(NA_GOLDEN[argv, doc], run_cli(argv.split(), doc))


def test_raw_lo_simulate_export_golden(in_tmp):
    check_run(in_tmp, *GOLDEN_RUNS[-1])


def test_every_golden_file_is_pinned_by_a_run():
    # a golden left behind by a removed run would pass unnoticed
    names = {name for _, _, name, _ in GOLDEN_RUNS}
    keys = {csv[1] for *_, csv in GOLDEN_RUNS if csv is not None} | {"design_digest"}
    assert {p.name for p in GOLDEN.iterdir()} == names | {"SHA256SUMS"}
    assert set(pinned_sha256()) == keys
