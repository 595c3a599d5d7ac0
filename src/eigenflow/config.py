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

The fields of ``ExperimentConfig`` are the schema: field ``section_key``
declares key ``key`` of ``[section]``, and its metadata holds the key's type,
its default (or that it is required) and its value checks.  Every value is
checked on the line it is read from.  The few rules that tie keys together
(required keys, ``hurst`` and ``table_path`` against ``kernel.kind``,
``grid.times`` against ``t_max`` / ``steps``) run after the last line.
Every problem is collected and reported together, and each one a value
causes names its line.  Optional keys have documented defaults that are
materialised into the resolved configuration (and echoed in every output),
so two configs with the same canonical form produce identical runs.
"""

from __future__ import annotations

import cmath
import math
import os
import re
from dataclasses import dataclass, field, fields, replace
from typing import Dict, Iterable, List, Mapping, Optional, Tuple

from .grids import TimeGrid
from .kernels import make_kernel
from .testfunctions import BUILTINS


class ConfigError(ValueError):
    """Carries every problem found in a config, not just the first."""

    def __init__(self, problems: List[str]):
        super().__init__("invalid configuration:\n  " + "\n  ".join(problems))
        self.problems = problems


def parse_complex(text: str) -> complex:
    """Parse a complex literal with ``i`` for the imaginary unit, such as
    ``1+2i``, ``2i``, ``1-i`` or ``0+1e-05i``: Python's own complex literal,
    spaces aside, with ``i`` in place of ``j``."""
    s = text.replace(" ", "")
    if not set(s) & set("jJ()"):
        try:
            return complex(s[:-1] + "j" if s.endswith("i") else s)
        except ValueError:
            pass
    raise ValueError(f"expected a complex literal such as 1+2i, got {text.strip()!r}")


def _one_of(*choices):
    return (lambda v: v in choices, f"must be one of {choices}, got {{!r}}")


_POSITIVE = (lambda v: v > 0, "must be positive, got {}")
_AT_LEAST_1 = (lambda v: v >= 1, "must be at least 1, got {}")
_DISTINCT = (lambda v: len(set(v)) == len(v), "entries must be distinct, got {}")


def _key(kind: str, default=None, checks=()):
    """The field of one key, its schema entry as metadata: type tag, default
    (``...`` for a required key) and value checks, (test, message) pairs
    whose message follows "section.key " and whose {} takes the value as
    canonical text."""
    required = default is ...
    return field(metadata=dict(kind=kind, required=required,
                               default=None if required else default, checks=list(checks)))


@dataclass(frozen=True)
class ExperimentConfig:
    """Fully resolved configuration; every field is normalised.  The fields
    are the schema, in canonical order."""

    kernel_kind: str = _key("str", ..., [_one_of("brownian", "fbm", "table")])
    kernel_hurst: Optional[float] = _key(
        "float", checks=[(lambda h: 0.0 < h < 1.0, "must lie in (0,1), got {}")])
    kernel_table_path: Optional[str] = _key("str")
    grid_t_max: Optional[float] = _key("float", checks=[_POSITIVE])
    grid_steps: Optional[int] = _key("int", checks=[_AT_LEAST_1])
    grid_times: Optional[Tuple[float, ...]] = _key("float_list", checks=[(
        lambda ts: len(ts) >= 2 and ts[0] == 0.0 and all(a < b for a, b in zip(ts, ts[1:])),
        "must be strictly increasing and start at 0")])
    matrix_n: Tuple[int, ...] = _key("int_list", ..., [
        (lambda ns: all(1 <= n <= 4095 for n in ns), "entries must lie in [1, 4095], got {}"),
        _DISTINCT])
    matrix_shift: str = _key("str", "zero")
    sampler_method: str = _key("str", "cholesky", [_one_of("cholesky", "circulant")])
    sampler_seed: int = _key("int", ..., [
        (lambda s: 0 <= s < 2 ** 64, "must be an unsigned 64-bit integer, got {}")])
    observables_test_functions: str = _key("str", "gaussian_bump", [_one_of(*BUILTINS)])
    observables_z_points: Tuple[complex, ...] = _key("complex_list", (complex(0.0, 1.0),), [
        (lambda zs: all(cmath.isfinite(z) and z.imag > 0 for z in zs),
         "must be finite with positive imaginary parts, got {}")])
    experiment_m: int = _key("int", 20, [
        (lambda m: m >= 2, "must be at least 2, got {}: a standard error needs two paths")])
    experiment_p: float = _key("float", 4.0, [_POSITIVE])
    experiment_t_base: float = _key(
        "float", 0.5, [(lambda t: t >= 0, "must be nonnegative, got {}")])
    experiment_separations: Tuple[float, ...] = _key(
        "float_list", (0.001, 0.0031623, 0.01, 0.031623, 0.1),
        [(lambda ds: all(d > 0 for d in ds), "must be positive, got {}"), _DISTINCT])
    experiment_dt: float = _key("float", 0.001, [_POSITIVE])
    experiment_x_min: float = _key("float", -3.0)
    experiment_x_max: float = _key("float", 3.0)
    experiment_x_points: int = _key("int", 61, [_AT_LEAST_1])
    output_directory: str = _key("str", "runs")
    output_format: str = _key("str", "csv", [_one_of("csv")])

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


# (section, key) -> schema entry, and the sections, in canonical order
_SCHEMA: Dict[Tuple[str, str], Mapping] = {
    tuple(f.name.split("_", 1)): f.metadata for f in fields(ExperimentConfig)}
_SECTIONS = tuple(dict.fromkeys(section for section, _ in _SCHEMA))


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


def config_to_grid(cfg: ExperimentConfig) -> TimeGrid:
    if cfg.grid_times is not None:
        return TimeGrid(cfg.grid_times)
    return TimeGrid.uniform(cfg.grid_t_max, cfg.grid_steps)


def config_to_kernel(cfg: ExperimentConfig, root: str = ""):
    """The kernel of ``cfg``; a relative ``table_path`` resolves against ``root``."""
    table = cfg.kernel_table_path
    return make_kernel(cfg.kernel_kind, hurst=cfg.kernel_hurst,
                       table_path=None if table is None else os.path.join(root, table))
