"""Tests of the benchmark itself.

    python3 -m pytest perfbench/tests -q
"""

import contextlib
import io
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
from tracer import SPANS, Tracer, layer_metrics  # noqa: E402
from workloads import WORKLOADS, check_output, output_rows  # noqa: E402

SMALL = {
    "residual": """
[kernel]
kind = fbm
hurst = 0.75
[grid]
t_max = 1.0
steps = 4
[matrix]
n = 4, 8
[sampler]
seed = 0
[experiment]
m = 8
""",
    "converge": """
[kernel]
kind = brownian
[grid]
t_max = 0.25
steps = 1
[matrix]
n = 4
shift = diag:1,1,-1,-1
[sampler]
seed = 0
[experiment]
m = 2
""",
    "dyson": """
[kernel]
kind = brownian
[grid]
t_max = 0.05
steps = 1
[matrix]
n = 2
[sampler]
seed = 0
[experiment]
m = 40
dt = 0.01
""",
    "collisions": """
[kernel]
kind = fbm
hurst = 0.3
[grid]
t_max = 1.0
steps = 4
[matrix]
n = 6
[sampler]
method = circulant
seed = 0
[experiment]
m = 4
""",
}


def launch(tmp_path, subcommand, threads, traced):
    cfg = tmp_path / f"{subcommand}.cfg"
    cfg.write_text(SMALL[subcommand])
    tag = f"{subcommand}-{threads}-{int(traced)}"
    out, mark, spans = tmp_path / tag, tmp_path / f"{tag}.mark", tmp_path / f"{tag}.json"
    cmd = [sys.executable, str(run.LAUNCHER), "--mark", str(mark)]
    if traced:
        cmd += ["--trace", str(spans)]
    cmd += ["--", subcommand, "--config", str(cfg), "--out", str(out),
            "--seed", "5", "--threads", str(threads)]
    subprocess.run(cmd, check=True, capture_output=True, timeout=120)
    assert mark.exists()
    return output_rows(out), json.loads(spans.read_text()) if traced else None


@pytest.mark.parametrize("subcommand", sorted(SMALL))
def test_tracing_and_threads_leave_data_rows_unchanged(tmp_path, subcommand):
    plain, _ = launch(tmp_path, subcommand, threads=2, traced=False)
    traced, spans = launch(tmp_path, subcommand, threads=1, traced=True)
    assert plain and traced == plain
    assert set(spans) == {name for _, _, name, _ in SPANS}
    assert spans["config.parse_config"]["calls"] == 1


def test_tracer_self_times_add_up():
    class Module:
        @staticmethod
        def leaf(k):
            return sum(range(k))

        @staticmethod
        def outer(k):
            return Module.leaf(k) + Module.leaf(k)

    tracer = Tracer()
    tracer.wrap(Module, "leaf", "leaf", count=lambda r: 1)
    tracer.wrap(Module, "outer", "outer")
    assert Module.outer(20000) == 2 * sum(range(20000))
    t = tracer.totals
    assert t["leaf"]["calls"] == 2 and t["leaf"]["count"] == 2
    assert t["outer"]["self_s"] == pytest.approx(t["outer"]["busy_s"] - t["leaf"]["busy_s"])
    assert t["leaf"]["self_s"] == pytest.approx(t["leaf"]["busy_s"])


def test_layer_metrics_add_up_to_the_wall_time():
    totals = {name: {"calls": 1, "busy_s": 0.5, "self_s": 0.01 * k, "count": 3}
              for k, (_, _, name, _) in enumerate(SPANS)}
    metrics = layer_metrics(totals, wall_s=10.0)
    layers = sum(v for k, v in metrics.items() if k.endswith("_s") and k != "trace.wall_s")
    assert layers == pytest.approx(10.0)
    assert set(metrics) | {"runner.speedup_2t", "trace.overhead_frac"} == set(run.PER_LAYER_UNITS)


def _cli(workload, out_dir, seed=7):
    from eigenflow.cli import main
    with contextlib.redirect_stdout(io.StringIO()):
        code = main([workload.subcommand, "--config", str(workload.config_path),
                     "--out", str(out_dir), "--seed", str(seed), "--threads", "2"])
    assert code == 0


def _replace_value(path, column, old_row_pred, value):
    lines = path.read_text().splitlines()
    header = lines[1].split(",")
    col = header.index(column)
    for k in range(2, len(lines)):
        cells = lines[k].split(",")
        if old_row_pred(dict(zip(header, cells))):
            cells[col] = value
            lines[k] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n")


CORRUPTIONS = {
    "residual-fbm": [
        ("residual_fit.csv", "slope", lambda r: True, "-0.5"),
        ("residual_n64.csv", "mean_square", lambda r: True, "1.0"),
    ],
    "converge-shift": [
        ("converge_n20.csv", "mean_distance", lambda r: r["t"] == "0.0", "0.01"),
        ("converge_n20.csv", "mean_distance", lambda r: r["t"] == "0.25", "0.3"),
    ],
    "dyson-sde": [
        ("dyson_n2.csv", "w1_distance", lambda r: r["dt"] == "0.001", "0.06"),
        ("dyson_n2.csv", "w1_distance", lambda r: r["dt"] == "0.0005", "1.0"),
    ],
    "collisions-circulant": [
        ("collisions_n100.csv", "value", lambda r: r["stat"] == "degenerate_fraction", "0.1"),
        ("collisions_n100.csv", "value", lambda r: r["stat"] == "q75", "0.0"),
        ("collisions_n100.csv", "value", lambda r: r["stat"].startswith("q"), "0.0"),
    ],
}


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_every_checker_fails_on_a_corrupted_csv(tmp_path, name):
    workload = WORKLOADS[name]
    good = tmp_path / "good"
    _cli(workload, good)
    assert check_output(workload, good) == []
    for k, (fname, column, pred, value) in enumerate(CORRUPTIONS[name]):
        bad = tmp_path / f"bad{k}"
        shutil.copytree(good, bad)
        _replace_value(bad / fname, column, pred, value)
        assert check_output(workload, bad), (fname, column, value)
    truncated = tmp_path / "truncated"
    shutil.copytree(good, truncated)
    for csv_path in truncated.glob("*.csv"):
        csv_path.write_text("\n".join(csv_path.read_text().splitlines()[:2]) + "\n")
    assert check_output(workload, truncated)


def test_the_seed_reaches_the_cli_only_through_seed(tmp_path):
    workload = WORKLOADS["residual-fbm"]
    config = workload.config_path.read_text()
    a = run.cli_args(workload, run.cli_seeds(11)[0], 2, tmp_path)
    b = run.cli_args(workload, run.cli_seeds(12)[0], 2, tmp_path)
    differ = [k for k in range(len(a)) if a[k] != b[k]]
    assert len(a) == len(b) and len(differ) == 1 and a[differ[0] - 1] == "--seed"
    assert workload.config_path.read_text() == config
    seen = set()
    for seed in range(50):
        derived = set(run.cli_seeds(seed))
        assert len(derived) == run.SUBSEEDS and not derived & seen
        seen |= derived


def test_without_the_program_it_fails_without_a_result(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "tests"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "dyson-sde",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0 and proc.stdout == ""
