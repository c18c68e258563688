import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def test_import_leaves_scipy_out():
    # the library is NumPy-only; scipy.linalg alone would add some 28 MB of RSS
    code = ("import sys; import amproj, amproj.bench, amproj.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    out = subprocess.run([sys.executable, "-c", code], cwd=SRC, capture_output=True,
                         text=True, check=True)
    assert out.stdout.strip() == "[]"
