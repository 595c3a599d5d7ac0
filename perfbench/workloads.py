"""The benchmark's workloads: a CLI subcommand, a fixed config, and a checker.

Each checker reads the CSVs one invocation wrote and returns a list of
problems (empty when the output is correct).  The thresholds are the frozen
acceptance thresholds of the test suite; they are never retuned here.
"""

from __future__ import annotations

import csv
import hashlib
import math
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, List

CONFIG_DIR = Path(__file__).resolve().parent / "configs"


def data_rows(path: Path) -> List[str]:
    """Lines of a CSV from the column header on.

    The first line is a ``#`` comment that embeds the output directory, so
    it differs between two runs of the same inputs and is left out.
    """
    return path.read_text().splitlines()[1:]


def output_rows(out_dir: Path) -> Dict[str, List[str]]:
    """Data rows of every CSV in an output directory, by file name."""
    return {p.name: data_rows(p) for p in sorted(out_dir.glob("*.csv"))}


def digest(rows: Dict[str, List[str]]) -> str:
    """A short hash of the data rows, recorded for information only."""
    h = hashlib.sha256()
    for name in sorted(rows):
        h.update(name.encode() + b"\n" + "\n".join(rows[name]).encode() + b"\n")
    return h.hexdigest()[:16]


def _records(out_dir: Path, name: str) -> List[dict]:
    path = out_dir / name
    if not path.exists():
        raise ValueError(f"missing output {name}")
    return list(csv.DictReader(data_rows(path)))


def _num(text: str) -> float:
    value = float(text)
    if math.isnan(value):
        raise ValueError("NaN in output")
    return value


def check_residual(out_dir: Path, config: str) -> List[str]:
    problems = []
    (fit,) = _records(out_dir, "residual_fit.csv")
    slope = _num(fit["slope"])
    if not slope <= -0.7:
        problems.append(f"residual_fit slope {slope} > -0.7")
    n_values = [int(n) for n in fit["n_values"].split(";")]
    stats = []
    for n in n_values:
        (row,) = _records(out_dir, f"residual_n{n}.csv")
        stats.append((_num(row["mean_square"]), _num(row["mean_square_se"])))
    for (a, sa), (b, sb) in zip(stats, stats[1:]):
        if not b <= a + 2.0 * math.hypot(sa, sb):
            problems.append(f"E[G^2] rose from {a} to {b}, beyond 2 se")
    return problems


def check_converge(out_dir: Path, config: str) -> List[str]:
    problems = []
    (path,) = sorted(out_dir.glob("converge_n*.csv"))
    rows = {row["t"]: row for row in _records(out_dir, path.name)}
    t_max = config_value(config, "t_max")
    if set(rows) != {"0.0", t_max, "sup"}:
        return [f"unexpected time rows {sorted(rows)}"]
    at_0 = _num(rows["0.0"]["mean_distance"])
    at_end = _num(rows[t_max]["mean_distance"])
    if at_0 != 0.0:
        problems.append(f"t=0 mean_distance {at_0} != 0")
    if not at_end < 0.25:
        problems.append(f"t={t_max} mean_distance {at_end} >= 0.25")
    return problems


def check_dyson(out_dir: Path, config: str) -> List[str]:
    problems = []
    (path,) = sorted(out_dir.glob("dyson_n*.csv"))
    rows = _records(out_dir, path.name)
    if len(rows) != 2:
        return [f"expected 2 rows, got {len(rows)}"]
    full, half = rows
    w1, w1_half = _num(full["w1_distance"]), _num(half["w1_distance"])
    if not w1 <= 0.05:
        problems.append(f"w1_distance {w1} > 0.05")
    budget = 2.0 * math.hypot(_num(full["w1_mc_error"]), _num(half["w1_mc_error"]))
    if not w1_half <= w1 + budget:
        problems.append(f"w1 at dt/2 {w1_half} exceeds {w1} + MC budget {budget}")
    return problems


def check_collisions(out_dir: Path, config: str) -> List[str]:
    problems = []
    steps = int(config_value(config, "steps"))
    (path,) = sorted(out_dir.glob("collisions_n*.csv"))
    stats = {row["stat"]: _num(row["value"]) for row in _records(out_dir, path.name)}
    frac = stats.pop("degenerate_fraction", None)
    # only the t = 0 zero matrix has coincident eigenvalues
    if frac != 1.0 / (steps + 1):
        problems.append(f"degenerate_fraction {frac} != 1/{steps + 1}")
    quantiles = list(stats.values())  # in file order, q00 to q100
    if len(quantiles) < 2 or any(b < a for a, b in zip(quantiles, quantiles[1:])):
        problems.append(f"gap quantiles not non-decreasing: {quantiles}")
    if not stats.get("q25", 0.0) > 0.0:
        problems.append(f"q25 {stats.get('q25')} is not positive")
    return problems


def config_value(text: str, key: str) -> str:
    """The value of ``key = value`` in a config text (first occurrence)."""
    match = re.search(rf"^\s*{re.escape(key)}\s*=\s*(.+?)\s*$", text, re.MULTILINE)
    if match is None:
        raise KeyError(key)
    return match.group(1)


@dataclass(frozen=True)
class Workload:
    name: str
    subcommand: str
    check: Callable[[Path, str], List[str]]

    @property
    def config_path(self) -> Path:
        return CONFIG_DIR / f"{self.name}.cfg"

    def paths(self) -> int:
        """Monte Carlo paths one invocation finishes.

        m per matrix size, except dyson, which runs m paths at two step
        sizes.
        """
        text = self.config_path.read_text()
        m = int(config_value(text, "m"))
        if self.subcommand == "dyson":
            return 2 * m
        return m * len(config_value(text, "n").split(","))


WORKLOADS: Dict[str, Workload] = {w.name: w for w in (
    Workload("residual-fbm", "residual", check_residual),
    Workload("converge-shift", "converge", check_converge),
    Workload("dyson-sde", "dyson", check_dyson),
    Workload("collisions-circulant", "collisions", check_collisions),
)}


def check_output(workload: Workload, out_dir: Path) -> List[str]:
    """Run a workload's checker; a malformed output is a problem, not a crash."""
    try:
        return workload.check(out_dir, workload.config_path.read_text())
    except (ValueError, KeyError, TypeError) as exc:
        return [f"malformed output: {exc!r}"]
