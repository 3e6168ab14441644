"""What the benchmark's traced runs need from the package.

``perfbench/tracing.py`` wraps public functions at the names their callers
resolve, and reads the import time of named modules from a cold
``import nhsym.cli``.  A rename in ``nhsym``, or a module that the CLI no
longer imports, makes a traced benchmark run fail; these tests catch that
here.  They import the benchmark's modules and change none of them.
"""

import importlib
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "perfbench"))

import tracing  # noqa: E402


def test_tracer_resolves_every_boundary_and_restores_it():
    names = [(module, attr) for module, attr, _, _ in tracing.BOUNDARIES]
    originals = [getattr(importlib.import_module(m), a) for m, a in names]
    tracer = tracing.Tracer()
    try:
        tracer.install()
        for (module, attr), original in zip(names, originals):
            wrapped = getattr(importlib.import_module(module), attr)
            assert wrapped is not original
            assert wrapped.__wrapped__ is original
    finally:
        tracer.uninstall()
    for (module, attr), original in zip(names, originals):
        assert getattr(importlib.import_module(module), attr) is original


def test_import_times_of_a_cold_cli_import_parse():
    src = os.path.join(ROOT, "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH")))))
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-c", "import nhsym.cli"],
        capture_output=True, text=True, env=env, timeout=120, check=True)
    metrics = tracing.median_imports([tracing.parse_importtime(proc.stderr)])
    assert set(metrics) == set(tracing.IMPORT_MODULES.values())
    for value, unit in metrics.values():
        assert unit == "s" and value >= 0
