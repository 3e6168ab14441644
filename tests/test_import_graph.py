"""What each import loads, seen from a fresh interpreter.

The package exports its modules, not their names: ``import nhsym`` loads
no submodule, and only ``spectra`` (with ``cli``, which imports it) pulls
in scipy.  Checking, discovery and model building stay numpy-only.
"""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _loaded_after(statement: str) -> set[str]:
    """The names in ``sys.modules`` after ``statement`` runs in a fresh
    interpreter with the package's source on its path."""
    src = os.path.join(ROOT, "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH")))))
    code = f"{statement}\nimport sys\nprint('\\n'.join(sys.modules))"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=env, timeout=120, check=True)
    return set(proc.stdout.split())


def test_numpy_only_modules_load_no_scipy():
    loaded = _loaded_after(
        "from nhsym import clifford, linalg, model, symmetry")
    assert {"nhsym.clifford", "nhsym.linalg", "nhsym.model",
            "nhsym.symmetry"} <= loaded
    assert "nhsym.spectra" not in loaded
    assert "scipy.optimize" not in loaded
    assert "scipy.linalg" not in loaded


def test_package_import_loads_no_submodule():
    loaded = _loaded_after("import nhsym")
    assert "nhsym" in loaded
    assert sorted(name for name in loaded if name.startswith("nhsym.")) == []
