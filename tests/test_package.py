"""The package's public names and import graph."""

import ast
import collections
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

import eigenflow
from eigenflow.config import parse_config
from eigenflow.diagnostics import dyson_crosscheck
from eigenflow.grids import TimeGrid
from eigenflow.kernels import BrownianKernel
from eigenflow.runner import READS
from eigenflow.sampling import path_sampler

ROOT = Path(__file__).resolve().parents[1]
PERFBENCH = ROOT / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up here
    spec.loader.exec_module(module)
    return module


def test_every_public_name_resolves():
    missing = [name for name in eigenflow.__all__ if not hasattr(eigenflow, name)]
    assert missing == []


def test_readme_library_quick_start_runs():
    readme = (ROOT / "README.md").read_text()
    start = readme.index("```python\n", readme.index("## Library quick start")) + len("```python\n")
    code = readme[start:readme.index("```", start)]
    namespace = {}
    exec(compile(code, "README.md", "exec"), namespace)
    assert namespace["d"].shape == (20,)
    assert np.all((namespace["d"] > 0.0) & (namespace["d"] < 1.0))


def _cli_import_loads(module):
    src = str(Path(eigenflow.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    code = f"import sys, eigenflow.cli; print({module!r} in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True)
    return out.stdout.strip() == "True"


def test_cli_import_does_not_load_scipy_integrate():
    # the limit law needs no quadrature, and scipy.integrate dominates start-up
    assert not _cli_import_loads("scipy.integrate")


def test_cli_import_does_not_load_scipy():
    # scipy is a test-only dependency: no run uses it
    assert not _cli_import_loads("scipy")


def test_cli_import_does_not_load_hashlib():
    # hashlib loads OpenSSL, 3.6 MB of resident memory; only a run that
    # reads an input file hashes it for the manifest
    assert not _cli_import_loads("hashlib")


def test_one_random_generator():
    # every draw goes through eigenflow.rng, keyed by (seed, stream id, position)
    src = Path(eigenflow.__file__).resolve().parent
    offenders = [p.name for p in sorted(src.rglob("*.py"))
                 if "np.random" in p.read_text() or "numpy.random" in p.read_text()]
    assert offenders == []


def test_one_working_set_policy():
    # every batch loop sizes its rows through eigenflow.budget.row_slices;
    # _GEMM_TILE fixes the height of each BLAS call for bit identity and is
    # not a budget
    src = Path(eigenflow.__file__).resolve().parent
    offenders = [f"{p.name}: {node.id}" for p in sorted(src.glob("*.py")) if p.name != "budget.py"
                 for node in ast.walk(ast.parse(p.read_text()))
                 if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store)
                 and (node.id in ("CHUNK_BYTES", "TILE_BYTES") or node.id.endswith("_TILE"))
                 and node.id != "_GEMM_TILE"]
    assert offenders == []
    # one batching level for ensembles: path tiles are the pool's tasks, and
    # only the Dyson SDE side reads the chunk budget
    readers = {(p.name, getattr(scope, "name", "<module>"))
               for p in sorted(src.glob("*.py")) if p.name != "budget.py"
               for scope in ast.parse(p.read_text()).body
               for node in ast.walk(scope)
               if getattr(node, "attr", getattr(node, "id", None)) == "CHUNK_BYTES"}
    assert readers == {("diagnostics.py", "_sde_paths"), ("diagnostics.py", "dyson_crosscheck")}
    body = ast.parse((src / "budget.py").read_text()).body
    assert [node.targets[0].id for node in body if isinstance(node, ast.Assign)] == \
        ["CHUNK_BYTES", "TILE_BYTES"]
    # one slicing rule: the time blocks pass their GIL floor to row_slices,
    # and no module names another slicing function
    assert [node.name for node in body if isinstance(node, ast.FunctionDef)] == ["row_slices"]
    names = {getattr(node, "name", getattr(node, "attr", getattr(node, "id", None)))
             for p in sorted(src.rglob("*.py")) for node in ast.walk(ast.parse(p.read_text()))}
    assert {name for name in names if str(name).endswith("_slices")} == {"row_slices"}


def test_sizes_come_from_the_arrays():
    # a size an array argument carries is read from it: a function that also
    # takes the size can be handed two that disagree.  make_shift(spec, n)
    # and diagonal_scale(n) hold no array to read n from
    derivable = {"n": {"shift", "lam", "lambdas"}, "paths": {"lambdas", "gaps"}}
    src = Path(eigenflow.__file__).resolve().parent
    offenders = []
    for p in sorted(src.glob("*.py")):
        for node in ast.walk(ast.parse(p.read_text())):
            if isinstance(node, ast.FunctionDef):
                names = {a.arg for a in node.args.args + node.args.kwonlyargs}
                offenders += [f"{p.name}: {node.name}({size})"
                              for size, arrays in derivable.items()
                              if size in names and names & arrays]
    assert offenders == []


def test_benchmark_traced_names_resolve():
    # the benchmark's tracer wraps these names; moving one breaks its --trace runs
    tracer = _load("tracer")
    missing = [f"{owner}.{attr}" for owner, attr, _, _ in tracer.SPANS
               if not callable(getattr(tracer._resolve(owner), attr, None))]
    assert missing == []


def test_benchmark_counts_forced_sorts_of_a_dyson_run():
    # the traced dyson-sde run counts forced sorts on dyson_crosscheck's
    # result, one call for both step sizes
    sampler = path_sampler(BrownianKernel(), TimeGrid.uniform(0.25, 1))
    result = dyson_crosscheck(sampler, np.zeros((2, 2)), (1e-2, 5e-3), 50, seed=3)
    total = _load("tracer")._forced_sorts(result)
    assert total == sum(row.forced_sorts for row in result.rows) > 0


def _names(node):
    """Every name and attribute a syntax tree reads or binds."""
    return collections.Counter(
        sub.id if isinstance(sub, ast.Name) else sub.attr
        for sub in ast.walk(node) if isinstance(sub, (ast.Name, ast.Attribute)))


# each public name that no package code uses, kept for library callers,
# and why
LIBRARY_ONLY = {
    "eigh": "exported; criterion 4 checks it and criterion 11 takes eigenvectors from it",
    "eigenvalue_derivatives": "exported; criterion 4 checks it",
    "EigenvalueDerivatives.grad_square_sum": "criterion 4's gradient identity",
    "EigenvalueDerivatives.hess_sum": "criterion 4's curvature identity",
    "TimeGrid.power_graded": "the README's grid for rough kernels",
}


def _public_definitions(tree):
    """(name, node) of each public function or class at the top of a module,
    and of each public method or property of its classes as ``Class.name``."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
            yield node.name, node
        if isinstance(node, ast.ClassDef):
            yield from ((f"{node.name}.{sub.name}", sub) for sub in node.body
                        if isinstance(sub, ast.FunctionDef) and not sub.name.startswith("_"))


def _traced_names():
    """The names the benchmark's tracer wraps, a method as ``Class.name``."""
    tracer = _load("tracer")
    owners = ((tracer._resolve(owner), attr) for owner, attr, _, _ in tracer.SPANS)
    return {f"{owner.__name__}.{attr}" if isinstance(owner, type) else attr
            for owner, attr in owners}


def test_every_public_src_function_is_used():
    # a public function, class, method or property that no other package
    # code names and that the benchmark does not wrap serves only the tests,
    # and belongs with them in tests/oracles.py; exporting it is not a use
    src = Path(eigenflow.__file__).resolve().parent
    trees = {p.name: ast.parse(p.read_text()) for p in sorted(src.glob("*.py"))}
    everywhere = sum((_names(tree) for tree in trees.values()), collections.Counter())
    defined, unused = set(), set()
    for file, tree in trees.items():
        for name, node in _public_definitions(tree):
            short = name.rpartition(".")[2]
            defined.add(name)
            if everywhere[short] == _names(node)[short]:
                unused.add((file, name))
    kept = LIBRARY_ONLY.keys() | _traced_names()
    assert sorted(f"{file}: {name}" for file, name in unused if name not in kept) == []
    # an exemption goes stale once package code uses its name or the name goes
    unused_names = {name for _, name in unused}
    stale = {name: "used by package code" if name in defined else "not defined"
             for name in LIBRARY_ONLY if name not in unused_names}
    assert stale == {}


def _passes_through(node):
    """Whether a function's body, after its docstring, is one ``return f(...)``
    of its own parameters in order, with no keywords."""
    body = node.body
    if body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant) \
            and isinstance(body[0].value.value, str):
        body = body[1:]
    if len(body) != 1 or not isinstance(body[0], ast.Return) \
            or not isinstance(body[0].value, ast.Call):
        return False
    call = body[0].value
    params = [a.arg for a in node.args.posonlyargs + node.args.args]
    owner = getattr(call.func, "value", None)
    if params and isinstance(owner, ast.Name) and owner.id == params[0]:
        params = params[1:]  # self.f(x) in a method f(self, x)
    return not call.keywords and [getattr(a, "id", None) for a in call.args] == params


def test_no_pass_through_wrappers():
    # a function that only hands its parameters on to another adds a name
    # and no behaviour: its callers call the other function
    src = Path(eigenflow.__file__).resolve().parent
    wrappers = [f"{p.name}: {node.name}" for p in sorted(src.glob("*.py"))
                for node in ast.walk(ast.parse(p.read_text()))
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                and _passes_through(node)]
    assert wrappers == []


def test_benchmark_configs_set_only_keys_their_subcommand_reads():
    # a key a subcommand does not read, set away from its default, fails the run
    unread = {}
    for name, workload in _load("workloads").WORKLOADS.items():
        cfg = parse_config(workload.config_path.read_text())
        keys = cfg.away_from_default(("sampler", "observables", "experiment"))
        unread[name] = sorted(set(keys) - set(READS[workload.subcommand]))
    assert unread == {name: [] for name in unread}


def test_every_bench_record_names_its_claim():
    # a BENCH_*.json records one change: what it was, its parent, the layers
    # it touched, and a claim on a metric and workload the benchmark defines
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = {m["name"] for m in bench["end_to_end"] + bench["per_layer"]}
    workloads = {w["name"] for w in bench["workloads"]}
    records = sorted(ROOT.glob("BENCH_*.json"))
    assert records
    for path in records:
        record = json.loads(path.read_text())
        assert {"change", "parent", "layers_changed", "claim"} <= record.keys(), path.name
        assert record["layers_changed"], path.name
        claim = record["claim"]
        assert claim["metric"] in metrics and claim["workload"] in workloads, path.name
