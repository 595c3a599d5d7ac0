"""The package's public names and import graph."""

import importlib.util
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


def test_one_random_generator():
    # every draw goes through eigenflow.rng, keyed by (seed, stream id, position)
    src = Path(eigenflow.__file__).resolve().parent
    offenders = [p.name for p in sorted(src.rglob("*.py"))
                 if "np.random" in p.read_text() or "numpy.random" in p.read_text()]
    assert offenders == []


def test_benchmark_traced_names_resolve():
    # the benchmark's tracer wraps these names; moving one breaks its --trace runs
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    missing = [f"{owner}.{attr}" for owner, attr, _, _ in tracer.SPANS
               if not callable(getattr(tracer._resolve(owner), attr, None))]
    assert missing == []
