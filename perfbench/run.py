"""The eigenflow benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each invocation runs the real CLI (``eigenflow <subcommand> --config ...
--seed ... --threads ...``) in a fresh child process, one at a time, and
checks its CSVs.  The seed reaches the CLI only through ``--seed``: each
invocation uses one of ``SUBSEEDS`` seeds derived from ``--seed``, and
repeats of the same derived seed must write identical data rows.

``--trace 0`` measures end-to-end metrics (closed loop, one client) with
``--threads 2`` for about ``--seconds`` seconds and reports medians.
``--trace 1`` repeats a cycle of an untraced 2-thread run, a traced
1-thread run and an untraced 1-thread run of one seed; every data row must
match across the cycle (thread invariance, tracing on and off), and the
per-layer metrics come from the traced run whose wall time is the median.

The last line of standard output is the result as one JSON object; the line
before it holds details: every invocation, each timing's median, minimum,
maximum and sample count, ``paths_per_s``, ``error_rate`` and the
environment.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import asdict, dataclass, field
from importlib import metadata
from pathlib import Path
from typing import Dict, List, Optional

from tracer import layer_metrics
from workloads import WORKLOADS, Workload, check_output, digest, output_rows

ROOT = Path(__file__).resolve().parent.parent
LAUNCHER = Path(__file__).resolve().parent / "launch.py"
WORK_DIR = ROOT / ".perfbench_work"

THREADS = 2          # the machine the benchmark was defined on has 2 cores
SUBSEEDS = 3         # CLI seeds per benchmark seed, cycled through in a run
MIN_INVOCATIONS = 3
HARD_LIMIT_S = 170   # every run ends within this, whatever --seconds says

SAMPLE_UNITS = {"wall_s": "s", "setup_s": "s", "paths_per_s": "paths/s", "peak_rss_mb": "MB"}
# paths_per_s is reported on the details line only: it times the work part
# alone, whose run-to-run spread on a shared host exceeds any allowed bound
END_TO_END_UNITS = {k: SAMPLE_UNITS[k] for k in ("wall_s", "setup_s", "peak_rss_mb")}
PER_LAYER_UNITS = {
    "config.parse_s": "s",
    "rng.normals_s": "s", "rng.normals_count": "count", "rng.ns_per_normal": "ns",
    "sampling.factor_s": "s", "sampling.cholesky_s": "s", "sampling.circulant_s": "s",
    "matrixflow.assemble_s": "s", "matrixflow.matrices": "count",
    "eigensolvers.eigvalsh_s": "s", "eigensolvers.us_per_matrix": "us",
    "measures.divdiff_s": "s", "measures.kolmogorov_s": "s",
    "measures.kolmogorov_calls": "count",
    "limitlaw.law_s": "s", "limitlaw.cdf_s": "s", "limitlaw.pdf_s": "s",
    "limitlaw.pdf_evals": "count", "limitlaw.burgers_solve_s": "s",
    "limitlaw.burgers_solves": "count", "limitlaw.us_per_solve": "us",
    "diagnostics.reduce_s": "s", "diagnostics.sde_s": "s",
    "diagnostics.forced_sorts": "count",
    "runner.other_s": "s", "runner.speedup_2t": "x",
    "trace.wall_s": "s", "trace.overhead_frac": "ratio",
}


class BenchmarkError(RuntimeError):
    """The benchmark cannot measure this checkout at all."""


@dataclass
class Invocation:
    cli_seed: int
    threads: int
    traced: bool
    exit_code: int
    wall_s: float
    setup_s: Optional[float]
    peak_rss_mb: float
    digest: str = ""
    problems: List[str] = field(default_factory=list)
    spans: Optional[dict] = field(default=None, repr=False)

    @property
    def ok(self) -> bool:
        return self.exit_code == 0 and self.setup_s is not None and not self.problems

    @property
    def work_s(self) -> float:
        return self.wall_s - self.setup_s


def cli_seeds(seed: int) -> List[int]:
    """The CLI seeds one benchmark seed stands for."""
    return [seed * SUBSEEDS + j for j in range(SUBSEEDS)]


def cli_args(workload: Workload, cli_seed: int, threads: int, out_dir: Path) -> List[str]:
    return [workload.subcommand, "--config", str(workload.config_path),
            "--out", str(out_dir), "--seed", str(cli_seed), "--threads", str(threads)]


class Runner:
    """Spawns one CLI child at a time and checks what it wrote."""

    def __init__(self, workload: Workload, deadline: float):
        self.workload = workload
        self.deadline = deadline
        self.count = 0
        self.reference: Dict[int, Dict[str, List[str]]] = {}

    def invoke(self, cli_seed: int, threads: int, traced: bool = False) -> Invocation:
        k = self.count
        self.count += 1
        out_dir, mark = WORK_DIR / f"out{k}", WORK_DIR / f"mark{k}"
        spans_path = WORK_DIR / f"spans{k}.json"
        cmd = [sys.executable, str(LAUNCHER), "--mark", str(mark)]
        if traced:
            cmd += ["--trace", str(spans_path)]
        cmd += ["--"] + cli_args(self.workload, cli_seed, threads, out_dir)

        with open(WORK_DIR / f"log{k}", "w") as log:
            start = time.perf_counter()
            proc = subprocess.Popen(cmd, cwd=ROOT, stdout=log, stderr=subprocess.STDOUT)
            killer = threading.Timer(max(1.0, self.deadline - start), proc.kill)
            killer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                killer.cancel()
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)

        setup = float(mark.read_text()) - start if mark.exists() else None
        inv = Invocation(cli_seed=cli_seed, threads=threads, traced=traced,
                         exit_code=proc.returncode, wall_s=wall, setup_s=setup,
                         peak_rss_mb=usage.ru_maxrss / 1024.0)
        if proc.returncode != 0:
            tail = (WORK_DIR / f"log{k}").read_text().strip().splitlines()[-3:]
            inv.problems.append(f"exit code {proc.returncode}: {' | '.join(tail)}")
        else:
            inv.problems += check_output(self.workload, out_dir)
            rows = output_rows(out_dir)
            inv.digest = digest(rows)
            if rows != self.reference.setdefault(cli_seed, rows):
                inv.problems.append(f"data rows differ from an earlier run of seed {cli_seed}")
            if traced:
                inv.spans = json.loads(spans_path.read_text())
        shutil.rmtree(out_dir, ignore_errors=True)
        return inv


def completed(invs: List[Invocation]) -> List[Invocation]:
    """Invocations that ran to the end; a failed check does not void a timing."""
    return [i for i in invs if i.exit_code == 0 and i.setup_s is not None]


def median_of(invs: List[Invocation], attr: str) -> float:
    return statistics.median(getattr(i, attr) for i in invs)


def measure_end_to_end(runner: Runner, seed: int, seconds: float, start: float):
    """Closed loop, one client: back-to-back invocations for ``seconds``."""
    seeds = cli_seeds(seed)
    invs: List[Invocation] = []
    while True:
        invs.append(runner.invoke(seeds[len(invs) % SUBSEEDS], THREADS))
        now = time.perf_counter()
        typical = statistics.median(i.wall_s for i in invs)
        if now + typical > runner.deadline:
            break
        if len(invs) >= MIN_INVOCATIONS and now + typical > start + seconds:
            break
    timed = completed(invs)
    if not timed:
        raise BenchmarkError("no invocation completed: " + "; ".join(
            p for i in invs for p in i.problems))
    paths = runner.workload.paths()
    samples = {
        "wall_s": [i.wall_s for i in timed],
        "setup_s": [i.setup_s for i in timed],
        "paths_per_s": [paths / i.work_s for i in timed],
        "peak_rss_mb": [i.peak_rss_mb for i in timed],
    }
    metrics = {k: statistics.median(v) for k, v in samples.items()}
    summary = {k: {"median": metrics[k], "min": min(v), "max": max(v), "n": len(v),
                   "unit": SAMPLE_UNITS[k]} for k, v in samples.items()}
    return invs, metrics, summary


def measure_layers(runner: Runner, seed: int, seconds: float, start: float):
    """Cycles of (untraced 2 threads, traced 1 thread, untraced 1 thread)."""
    cli_seed = cli_seeds(seed)[0]
    invs: List[Invocation] = []
    while True:
        cycle_start = time.perf_counter()
        invs += [runner.invoke(cli_seed, THREADS),
                 runner.invoke(cli_seed, 1, traced=True),
                 runner.invoke(cli_seed, 1)]
        now = time.perf_counter()
        cycle = now - cycle_start
        if now + cycle > min(runner.deadline, start + seconds):
            break
    ran = completed(invs)
    traced = sorted((i for i in ran if i.traced), key=lambda i: i.wall_s)
    one = [i for i in ran if i.threads == 1 and not i.traced]
    two = [i for i in ran if i.threads == THREADS]
    if not (traced and one and two):
        raise BenchmarkError("no complete cycle: " + "; ".join(
            p for i in invs for p in i.problems))
    chosen = traced[(len(traced) - 1) // 2]
    metrics = layer_metrics(chosen.spans, chosen.wall_s)
    metrics["runner.speedup_2t"] = median_of(one, "work_s") / median_of(two, "work_s")
    metrics["trace.overhead_frac"] = median_of(traced, "wall_s") / median_of(one, "wall_s") - 1.0
    summary = {"traced_walls_s": [i.wall_s for i in traced],
               "untraced_1t_walls_s": [i.wall_s for i in one],
               "untraced_2t_walls_s": [i.wall_s for i in two]}
    return invs, metrics, summary


def environment() -> dict:
    import numpy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"].get("blas", {})
    cpu = ""
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), "")
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": metadata.version("scipy"),
        "blas": f"{blas.get('name', '?')} {blas.get('version', '')}".strip(),
        "num_threads_env": {k: v for k, v in sorted(os.environ.items())
                            if k.endswith("_NUM_THREADS")},
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "mem_total_mb": os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES") / 2 ** 20,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not 0 <= args.seed < 2 ** 64 // SUBSEEDS:
        parser.error(f"--seed must lie in [0, {2 ** 64 // SUBSEEDS})")
    if not (ROOT / "src" / "eigenflow" / "cli.py").is_file():
        print(f"perfbench: no eigenflow source under {ROOT / 'src'}", file=sys.stderr)
        return 2

    start = time.perf_counter()
    runner = Runner(WORKLOADS[args.workload], deadline=start + HARD_LIMIT_S)
    shutil.rmtree(WORK_DIR, ignore_errors=True)
    WORK_DIR.mkdir()
    try:
        # untimed, but checked: the first process after a pause runs slow
        warmup = runner.invoke(cli_seeds(args.seed)[0], THREADS)
        measure = measure_layers if args.trace else measure_end_to_end
        invs, metrics, summary = measure(runner, args.seed, args.seconds, start)
        invs.insert(0, warmup)
    except BenchmarkError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(WORK_DIR, ignore_errors=True)

    failed = sum(not i.ok for i in invs)
    units = PER_LAYER_UNITS if args.trace else END_TO_END_UNITS
    details = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "error_rate": {"value": failed / len(invs), "unit": "ratio"},
        "summary": summary,
        "invocations": [{k: v for k, v in asdict(i).items() if k != "spans"} for i in invs],
        "environment": environment(),
    }
    print(json.dumps(details, sort_keys=True))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(invs),
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
