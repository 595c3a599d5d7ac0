"""The package's public names and import graph."""

import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import eigenflow
from eigenflow.config import parse_config
from eigenflow.runner import READS

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up here
    spec.loader.exec_module(module)
    return module


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
    tracer = _load("tracer")
    missing = [f"{owner}.{attr}" for owner, attr, _, _ in tracer.SPANS
               if not callable(getattr(tracer._resolve(owner), attr, None))]
    assert missing == []


def test_benchmark_configs_set_only_keys_their_subcommand_reads():
    # a key a subcommand does not read, set away from its default, fails the run
    unread = {}
    for name, workload in _load("workloads").WORKLOADS.items():
        cfg = parse_config(workload.config_path.read_text())
        keys = cfg.away_from_default(("sampler", "observables", "experiment"))
        unread[name] = sorted(set(keys) - set(READS[workload.subcommand]))
    assert unread == {name: [] for name in unread}
