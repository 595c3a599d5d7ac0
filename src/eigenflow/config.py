"""Experiment configuration: strict parsing and canonicalisation.

The format is flat INI-style sections of ``key = value`` lines::

    [kernel]
    kind = fbm
    hurst = 0.75

    [grid]
    t_max = 1.0
    steps = 8

    [matrix]
    n = 25, 200
    shift = zero

    [sampler]
    method = cholesky
    seed = 12345

Each key's schema entry holds its type, its default and its value checks,
and every value is checked on the line it is read from.  The few rules that
tie keys together (required keys, ``hurst`` and ``table_path`` against
``kernel.kind``, ``grid.times`` against ``t_max`` / ``steps``) run after the
last line.  Every problem is collected and reported together, and each one
a value causes names its line.  Optional keys have documented defaults that
are materialised into the resolved configuration (and echoed in every
output), so two configs with the same canonical form produce identical runs.
"""

from __future__ import annotations

import cmath
import math
import re
from dataclasses import dataclass, replace
from typing import Dict, Iterable, List, Optional, Tuple

from .testfunctions import BUILTINS


class ConfigError(ValueError):
    """Carries every problem found in a config, not just the first."""

    def __init__(self, problems: List[str]):
        super().__init__("invalid configuration:\n  " + "\n  ".join(problems))
        self.problems = problems


def parse_complex(text: str) -> complex:
    """Parse ``re+im i`` style complex literals like ``1+2i``, ``2i`` or
    ``0+1e-05i``."""
    s = text.strip().replace(" ", "")
    if not s:
        raise ValueError("empty complex literal")
    if s.endswith("i"):
        body = s[:-1]
        if body in ("", "+", "-"):
            return complex(0.0, float(body + "1"))
        number = r"(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?"
        m = re.fullmatch(rf"([+-]?{number})([+-]{number})", body)
        if m:
            return complex(float(m.group(1)), float(m.group(2)))
        return complex(0.0, float(body))
    return complex(float(s), 0.0)


def _one_of(*choices):
    return (lambda v: v in choices, f"must be one of {choices}, got {{!r}}")


_POSITIVE = (lambda v: v > 0, "must be positive, got {}")
_AT_LEAST_1 = (lambda v: v >= 1, "must be at least 1, got {}")
_DISTINCT = (lambda v: len(set(v)) == len(v), "entries must be distinct, got {}")

# (section, key) -> type tag, required, default (optional keys) and the value
# checks: (test, message) pairs, where the message follows "section.key " and
# its {} takes the value as canonical text.
_SCHEMA: Dict[Tuple[str, str], dict] = {
    ("kernel", "kind"): dict(kind="str", required=True,
                             checks=[_one_of("brownian", "fbm", "table")]),
    ("kernel", "hurst"): dict(kind="float", required=False, default=None,
                              checks=[(lambda h: 0.0 < h < 1.0, "must lie in (0,1), got {}")]),
    ("kernel", "table_path"): dict(kind="str", required=False, default=None),
    ("grid", "t_max"): dict(kind="float", required=False, default=None, checks=[_POSITIVE]),
    ("grid", "steps"): dict(kind="int", required=False, default=None, checks=[_AT_LEAST_1]),
    ("grid", "times"): dict(kind="float_list", required=False, default=None, checks=[(
        lambda ts: len(ts) >= 2 and ts[0] == 0.0 and all(a < b for a, b in zip(ts, ts[1:])),
        "must be strictly increasing and start at 0")]),
    ("matrix", "n"): dict(kind="int_list", required=True, checks=[
        (lambda ns: all(1 <= n <= 4095 for n in ns), "entries must lie in [1, 4095], got {}"),
        _DISTINCT]),
    ("matrix", "shift"): dict(kind="str", required=False, default="zero"),
    ("sampler", "method"): dict(kind="str", required=False, default="cholesky",
                                checks=[_one_of("cholesky", "circulant")]),
    ("sampler", "seed"): dict(kind="int", required=True, checks=[
        (lambda s: 0 <= s < 2 ** 64, "must be an unsigned 64-bit integer, got {}")]),
    ("observables", "test_functions"): dict(kind="str", required=False,
                                            default="gaussian_bump", checks=[_one_of(*BUILTINS)]),
    ("observables", "z_points"): dict(kind="complex_list", required=False,
                                      default=(complex(0.0, 1.0),), checks=[
        (lambda zs: all(cmath.isfinite(z) and z.imag > 0 for z in zs),
         "must be finite with positive imaginary parts, got {}")]),
    ("experiment", "m"): dict(kind="int", required=False, default=20, checks=[
        (lambda m: m >= 2, "must be at least 2, got {}: a standard error needs two paths")]),
    ("experiment", "p"): dict(kind="float", required=False, default=4.0, checks=[_POSITIVE]),
    ("experiment", "t_base"): dict(kind="float", required=False, default=0.5,
                                   checks=[(lambda t: t >= 0, "must be nonnegative, got {}")]),
    ("experiment", "separations"): dict(kind="float_list", required=False,
                                        default=(0.001, 0.0031623, 0.01, 0.031623, 0.1), checks=[
        (lambda ds: all(d > 0 for d in ds), "must be positive, got {}"), _DISTINCT]),
    ("experiment", "dt"): dict(kind="float", required=False, default=0.001),
    ("experiment", "x_min"): dict(kind="float", required=False, default=-3.0),
    ("experiment", "x_max"): dict(kind="float", required=False, default=3.0),
    ("experiment", "x_points"): dict(kind="int", required=False, default=61,
                                     checks=[_AT_LEAST_1]),
    ("output", "directory"): dict(kind="str", required=False, default="runs"),
    ("output", "format"): dict(kind="str", required=False, default="csv",
                               checks=[_one_of("csv")]),
}

_SECTIONS = ("kernel", "grid", "matrix", "sampler", "observables", "experiment", "output")


@dataclass(frozen=True)
class ExperimentConfig:
    """Fully resolved configuration; every field is normalised."""

    kernel_kind: str
    kernel_hurst: Optional[float]
    kernel_table_path: Optional[str]
    grid_t_max: Optional[float]
    grid_steps: Optional[int]
    grid_times: Optional[Tuple[float, ...]]
    matrix_n: Tuple[int, ...]
    matrix_shift: str
    sampler_method: str
    sampler_seed: int
    observables_test_functions: str
    observables_z_points: Tuple[complex, ...]
    experiment_m: int
    experiment_p: float
    experiment_t_base: float
    experiment_separations: Tuple[float, ...]
    experiment_dt: float
    experiment_x_min: float
    experiment_x_max: float
    experiment_x_points: int
    output_directory: str
    output_format: str

    def canonical_text(self) -> str:
        """A normal form: same resolved values -> byte-identical text."""
        lines = []
        for section in _SECTIONS:
            lines.append(f"[{section}]")
            for sec, key in _SCHEMA:
                if sec == section and (val := getattr(self, f"{sec}_{key}")) is not None:
                    lines.append(f"{key} = {_format_value(val)}")
            lines.append("")
        return "\n".join(lines)

    def away_from_default(self, sections: Iterable[str]) -> Dict[str, str]:
        """``section.key`` -> canonical default text, for every optional key
        of ``sections`` whose value differs from its default."""
        return {f"{sec}.{key}": _format_value(spec["default"])
                for (sec, key), spec in _SCHEMA.items()
                if sec in sections and not spec["required"]
                and getattr(self, f"{sec}_{key}") != spec["default"]}

    def with_seed(self, seed: int) -> "ExperimentConfig":
        """This config with another seed, which passes the schema's seed
        checks as a parsed one does."""
        seed = int(seed)
        if problems := _value_problems("sampler", "seed", seed):
            raise ConfigError([f"seed override: {problem}" for problem in problems])
        return replace(self, sampler_seed=seed)

    def with_output_directory(self, directory: str) -> "ExperimentConfig":
        return replace(self, output_directory=str(directory))


def _format_value(val) -> str:
    if isinstance(val, tuple):
        return ", ".join(_format_value(v) for v in val)
    if isinstance(val, complex):
        return f"{_format_part(val.real).lstrip('+')}{_format_part(val.imag)}i"
    if isinstance(val, float):
        return repr(val)
    return str(val)


def _format_part(x: float) -> str:
    """Signed ``x`` in the fewest significant digits, six or more, that read
    back as ``x``; six is what ``{:g}`` writes."""
    return next((text for digits in range(6, 17) if float(text := f"{x:+.{digits}g}") == x),
                f"{x:+.17g}")


def _convert(raw: str, kind: str):
    if kind == "str":
        return raw
    if kind == "int":
        if not re.fullmatch(r"[+-]?\d+", raw):
            raise ValueError(f"expected an integer, got {raw!r}")
        return int(raw)
    if kind == "float":
        value = float(raw)
        if not math.isfinite(value):
            raise ValueError(f"expected a finite number, got {raw!r}")
        return value
    if kind == "int_list":
        return tuple(_convert(part.strip(), "int") for part in raw.split(","))
    if kind == "float_list":
        return tuple(_convert(part.strip(), "float") for part in raw.split(","))
    if kind == "complex_list":
        return tuple(parse_complex(part) for part in raw.split(","))
    raise AssertionError(kind)


def _value_problems(section: str, key: str, val) -> List[str]:
    """The checks of ``section.key`` that ``val`` fails, each as a problem
    that names the key."""
    return [f"{section}.{key} {message.format(_format_value(val))}"
            for test, message in _SCHEMA[(section, key)].get("checks", ()) if not test(val)]


def parse_config(text: str) -> ExperimentConfig:
    """Parse and validate; raises ConfigError listing every problem."""
    problems: List[str] = []
    seen: Dict[Tuple[str, str], int] = {}
    values: Dict[Tuple[str, str], object] = {}
    section = None

    for lineno, rawline in enumerate(text.splitlines(), start=1):
        line = rawline.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            section = line[1:-1].strip()
            if section not in _SECTIONS:
                problems.append(f"line {lineno}: unknown section [{section}]")
                section = None
            continue
        if "=" not in line:
            problems.append(f"line {lineno}: expected 'key = value', got {rawline.strip()!r}")
            continue
        if section is None:
            problems.append(f"line {lineno}: key outside any known section")
            continue
        key, _, raw = line.partition("=")
        key = key.strip()
        raw = raw.strip()
        spec = _SCHEMA.get((section, key))
        if spec is None:
            problems.append(f"line {lineno}: unknown key {section}.{key}")
            continue
        if (section, key) in seen:
            problems.append(
                f"line {lineno}: duplicate key {section}.{key} "
                f"(first set on line {seen[(section, key)]})")
            continue
        seen[(section, key)] = lineno
        try:
            val = _convert(raw, spec["kind"])
        except ValueError as exc:
            problems.append(f"line {lineno}: {section}.{key}: {exc}")
            continue
        if bad := _value_problems(section, key, val):
            problems.extend(f"line {lineno}: {problem}" for problem in bad)
        else:
            values[(section, key)] = val

    # the rules that tie keys together; a key counts as set once it is seen
    for (section, key), spec in _SCHEMA.items():
        if (section, key) in seen:
            continue
        if spec["required"]:
            problems.append(f"missing required key {section}.{key}")
        else:
            values[(section, key)] = spec["default"]
    kind = values.get(("kernel", "kind"))
    for key, owner in (("hurst", "fbm"), ("table_path", "table")):
        if kind == owner and ("kernel", key) not in seen:
            problems.append(f"kernel.{key} is required when kernel.kind = {owner}")
        elif kind not in (None, owner) and ("kernel", key) in seen:
            problems.append(f"line {seen[('kernel', key)]}: kernel.{key} applies to "
                            f"kernel.kind = {owner} only, not {kind}")
    uniform = [key for key in ("t_max", "steps") if ("grid", key) in seen]
    if ("grid", "times") in seen:
        if uniform:
            problems.append("grid.times excludes grid.t_max / grid.steps")
    elif len(uniform) < 2:
        problems.append("grid needs either grid.times or both grid.t_max and grid.steps")

    if problems:
        raise ConfigError(problems)

    return ExperimentConfig(**{f"{section}_{key}": val
                               for (section, key), val in values.items()})


def config_to_grid(cfg: ExperimentConfig):
    from .grids import TimeGrid
    if cfg.grid_times is not None:
        return TimeGrid(cfg.grid_times)
    return TimeGrid.uniform(cfg.grid_t_max, cfg.grid_steps)


def config_to_kernel(cfg: ExperimentConfig):
    from .kernels import make_kernel
    return make_kernel(cfg.kernel_kind, hurst=cfg.kernel_hurst,
                       table_path=cfg.kernel_table_path)
