"""The package's public surface: export lists and the demo scripts."""

import importlib
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import platcube

ROOT = Path(__file__).resolve().parents[1]
MODULES = sorted(m.name for m in pkgutil.iter_modules(platcube.__path__))
DEMOS = sorted((ROOT / "demos").glob("*.py"))


@pytest.mark.parametrize("module", ("", *MODULES))
def test_all_names_resolve(module):
    mod = importlib.import_module(f"platcube.{module}" if module else "platcube")
    exported = getattr(mod, "__all__", [])
    assert len(exported) == len(set(exported))
    missing = [name for name in exported if not hasattr(mod, name)]
    assert not missing, f"{mod.__name__}.__all__ names missing attributes: {missing}"


def test_demos_found():
    assert DEMOS, "no demo scripts found"


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_runs(demo):
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, str(demo)], env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
