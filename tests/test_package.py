"""The package's public names and import graph."""

import os
import subprocess
import sys
from pathlib import Path

import eigenflow


def test_every_public_name_resolves():
    missing = [name for name in eigenflow.__all__ if not hasattr(eigenflow, name)]
    assert missing == []


def test_cli_import_does_not_load_scipy_integrate():
    # the limit law needs no quadrature, and scipy.integrate dominates start-up
    src = str(Path(eigenflow.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    code = "import sys, eigenflow.cli; print('scipy.integrate' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True)
    assert out.stdout.strip() == "False"
