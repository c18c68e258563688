import importlib.util
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from amproj.bench import kernel_speedup_benchmark
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


def load_script(name: str):
    """The module of scripts/<name>, loaded without running its main."""
    spec = importlib.util.spec_from_file_location(name.removesuffix(".py"),
                                                  ROOT / "scripts" / name)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    return script


@pytest.mark.parametrize("argv", [
    ["two_shell_spectrum.py", "--points", "2"],
    ["two_shell_spectrum.py", "--points", "300"],
    ["benchmark_kernels.py", "--orbitals", "8", "--particles", "7"],
    ["benchmark_kernels.py", "--particles", "1"],
    ["benchmark_kernels.py", "--repeats", "0"],
    ["benchmark_kernels.py", "--orbitals", "92", "--particles", "4"],
])
def test_script_usage_error_exits_2(argv, monkeypatch, capsys):
    # a bad argument is a usage error: exit 2 and a one-line message, no traceback,
    # and never the two-shell script's exit 1, which means a row missed its answer
    script = load_script(argv[0])
    monkeypatch.setattr("sys.argv", argv)
    with pytest.raises(SystemExit) as stop:
        script.main()
    assert stop.value.code == 2
    err = capsys.readouterr().err
    assert err.splitlines()[-1].startswith(f"{argv[0]}: error: ") and "Traceback" not in err


@pytest.mark.parametrize("kwargs", [
    {"n_orbitals": 8, "n_particles": 7},  # one particle slot: no pair of particles
    {"n_particles": 1},  # no pair of holes
    {"repeats": 0},  # nothing timed
])
def test_kernel_benchmark_refuses_an_empty_timing(kwargs):
    with pytest.raises(ValueError):
        kernel_speedup_benchmark(**kwargs)


def test_kernel_benchmark_smallest_model():
    # two holes and two particles: one kernel, timed once
    assert kernel_speedup_benchmark(n_orbitals=4, n_particles=2, repeats=1).n_kernels == 1


def test_two_shell_script_fails_on_a_wrong_row(monkeypatch, capsys):
    # a row whose norm or either energy misses the coupled answer by more than TOL exits 1
    script = load_script("two_shell_spectrum.py")
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
