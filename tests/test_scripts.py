import importlib.util
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from amproj.spectrum import JEntry

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


def test_two_shell_script_fails_on_a_wrong_row(monkeypatch, capsys):
    # a row whose norm or either energy misses the coupled answer by more than TOL exits 1
    spec = importlib.util.spec_from_file_location("two_shell_spectrum",
                                                  ROOT / "scripts" / "two_shell_spectrum.py")
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    norm, energy = script.exact_row(4)
    exact = JEntry(4, norm, energy, energy)
    assert script.row_miss(exact) == 0.0
    for wrong in (exact._replace(norm=norm + 2 * script.TOL),
                  exact._replace(energy_brillouin=energy - 2 * script.TOL),
                  exact._replace(energy_lowdin=math.nan)):
        assert script.row_miss(wrong) > script.TOL
    monkeypatch.setattr("sys.argv", ["two_shell_spectrum.py"])
    assert script.main() == 0
    real = script.exact_row
    monkeypatch.setattr(script, "exact_row",
                        lambda two_j: (real(two_j)[0], real(two_j)[1] + 2 * script.TOL))
    assert script.main() == 1
    assert "largest miss of the exact answers: 2.00e-10" in capsys.readouterr().out
