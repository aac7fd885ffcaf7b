"""The benchmark scripts still find every name they use in the package.

``bench/traced.py`` wraps package functions at the module attributes listed
in its ``WRAPPED`` table, and ``bench/run.py`` times a set-up probe that
builds a ``MeasureConfig()`` with its defaults. A change that renames or
removes one of those names breaks the benchmark, not the package's own
tests; these tests catch that. The scripts are loaded by path and only read.
"""

from __future__ import annotations

import importlib.util
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "bench"


def load_script(name: str):
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    # ``dataclass`` looks the defining module up in sys.modules.
    sys.modules[spec.name] = module
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module


def test_traced_attributes_exist():
    missing = [
        f"{span}: {module.__name__}.{attr}"
        for span, module, attr, _ in load_script("traced").WRAPPED
        if not callable(getattr(module, attr, None))
    ]
    assert missing == []


def test_setup_probe_runs():
    probe = load_script("run").SETUP_PROBE
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stderr
    assert Path(done.stdout.strip()).resolve().is_relative_to(ROOT / "src")
