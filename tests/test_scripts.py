import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("argv", [
    ["two_shell_spectrum.py"],
    ["benchmark_kernels.py", "--orbitals", "8", "--particles", "3", "--repeats", "1"],
])
def test_script_runs(argv):
    # the scripts use only the public API; each must run to the end
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, str(ROOT / "scripts" / argv[0]), *argv[1:]],
                         env={**os.environ, "PYTHONPATH": path}, capture_output=True,
                         text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    assert out.stdout and "Traceback" not in out.stderr
