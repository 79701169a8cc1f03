"""Rewrite tests/golden/ from the working tree: every golden stdout of
tests/test_cli_golden.py as text, and SHA256SUMS, the SHA-256 of each
exported CSV and of tests/test_design_digest.py's design digest.

Run it only to re-pin on purpose, then read `git diff tests/golden` to see
what moved.  Usage: python scripts/regen_goldens.py
"""

import os
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "tests"), str(ROOT / "src")]

import test_cli_golden as golden  # noqa: E402
import test_design_digest  # noqa: E402


def main() -> None:
    sums = {}
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            for argv, config, name, csv in golden.GOLDEN_RUNS:
                (golden.GOLDEN / name).write_bytes(golden.run_cli(argv, config))
                if csv is not None:
                    path, key = csv
                    sums[key] = golden.sha256(Path(path).read_bytes())
        finally:
            os.chdir(cwd)
    sums["design_digest"] = test_design_digest.design_digest()
    lines = "".join(f"{digest}  {key}\n" for key, digest in sums.items())
    (golden.GOLDEN / "SHA256SUMS").write_text(lines)


if __name__ == "__main__":
    main()
