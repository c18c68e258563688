import importlib
import pkgutil
import subprocess
import sys
from pathlib import Path

import amproj

SRC = Path(__file__).resolve().parent.parent / "src"


def test_import_leaves_scipy_out():
    # the library is NumPy-only; scipy.linalg alone would add some 28 MB of RSS
    code = ("import sys; import amproj, amproj.bench, amproj.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    out = subprocess.run([sys.executable, "-c", code], cwd=SRC, capture_output=True,
                         text=True, check=True)
    assert out.stdout.strip() == "[]"


def test_every_all_entry_resolves():
    # a star-import fails on a stale entry, such as a name removed but still exported
    stale = {}
    for info in pkgutil.iter_modules(amproj.__path__):
        module = importlib.import_module(f"amproj.{info.name}")
        missing = [name for name in getattr(module, "__all__", ()) if not hasattr(module, name)]
        if missing:
            stale[info.name] = missing
    assert not stale
