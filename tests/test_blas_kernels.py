"""The goldens hold under every OpenBLAS kernel, not only the host's.

No output takes a bit from BLAS or LAPACK, so the golden and digest tests
pass whichever kernel OpenBLAS picks at run time.  Each case reruns them in
a child process with OPENBLAS_CORETYPE forcing another kernel; the variable
is set in the child's environment only.  OPENBLAS_VERBOSE=2 makes the child
name the kernel it ran (`Zen` runs the `Haswell` kernels) in a failure's
output.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent
GOLDEN_TESTS = ["tests/test_cli_golden.py", "tests/test_design_digest.py"]


@pytest.mark.parametrize("core", ["Haswell", "Sandybridge", "Zen"])
def test_goldens_hold_under_blas_kernel(core):
    env = dict(os.environ, OPENBLAS_CORETYPE=core, OPENBLAS_VERBOSE="2")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(REPO / "src"), env.get("PYTHONPATH")]))
    child = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-s", "-p", "no:cacheprovider", *GOLDEN_TESTS],
        cwd=REPO, env=env, capture_output=True, text=True, timeout=300,
    )
    assert child.returncode == 0, child.stdout + child.stderr
