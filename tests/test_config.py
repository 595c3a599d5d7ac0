"""Config parsing: strictness, typed errors, canonicalisation."""

import re

import pytest

from eigenflow.config import (_SCHEMA, ConfigError, _value_problems, config_to_grid,
                              config_to_kernel, parse_config, parse_complex)
from eigenflow.kernels import BrownianKernel, FractionalBrownianKernel

MINIMAL = """
[kernel]
kind = brownian

[grid]
t_max = 1.0
steps = 8

[matrix]
n = 10

[sampler]
seed = 1
"""


class TestParse:
    def test_minimal_config_parses(self):
        cfg = parse_config(MINIMAL)
        assert cfg.kernel_kind == "brownian"
        assert cfg.matrix_n == (10,)
        assert cfg.sampler_seed == 1
        assert cfg.matrix_shift == "zero"          # documented default
        assert cfg.experiment_m == 20

    def test_fbm_requires_hurst(self):
        text = MINIMAL.replace("kind = brownian", "kind = fbm")
        with pytest.raises(ConfigError, match="hurst is required"):
            parse_config(text)

    def test_hurst_domain(self):
        text = MINIMAL.replace("kind = brownian", "kind = fbm\nhurst = 1.5")
        with pytest.raises(ConfigError, match=r"must lie in \(0,1\)"):
            parse_config(text)

    def test_duplicate_key_reports_both_lines(self):
        text = MINIMAL + "\n[sampler]\nseed = 2\n"
        with pytest.raises(ConfigError) as err:
            parse_config(text)
        assert "duplicate key sampler.seed" in str(err.value)
        assert "first set on line" in str(err.value)

    def test_unknown_key_with_line_number(self):
        text = MINIMAL.replace("steps = 8", "steps = 8\nstride = 2")
        with pytest.raises(ConfigError, match=r"line \d+: unknown key grid.stride"):
            parse_config(text)

    def test_all_errors_reported_together(self):
        text = """
[kernel]
kind = fbm
hurst = 2.0

[grid]
steps = 8

[matrix]
n = 0

[sampler]
method = quantum
seed = 1
"""
        with pytest.raises(ConfigError) as err:
            parse_config(text)
        msg = str(err.value)
        assert "hurst" in msg
        assert "t_max" in msg
        assert "matrix.n" in msg
        assert "method" in msg

    def test_type_mismatch(self):
        with pytest.raises(ConfigError, match="expected an integer"):
            parse_config(MINIMAL.replace("n = 10", "n = ten"))

    @pytest.mark.parametrize("old, new", [
        ("t_max = 1.0", "t_max = nan"), ("seed = 1", "seed = 1\n[experiment]\nt_base = inf"),
        ("seed = 1", "seed = 1\n[experiment]\nseparations = 0.1, nan"),
    ], ids=["t_max", "t_base", "separations"])
    def test_float_must_be_finite(self, old, new):
        # nan slipped past every sign check: a grid traceback, or exit 2 from sampling
        with pytest.raises(ConfigError, match=r"line \d+: .*expected a finite number"):
            parse_config(MINIMAL.replace(old, new))

    def test_times_exclusive_with_steps(self):
        text = MINIMAL.replace("steps = 8", "steps = 8\ntimes = 0, 0.5, 1")
        with pytest.raises(ConfigError, match="excludes"):
            parse_config(text)

    def test_explicit_times(self):
        text = MINIMAL.replace("t_max = 1.0\nsteps = 8", "times = 0, 0.25, 1.0")
        cfg = parse_config(text)
        assert cfg.grid_times == (0.0, 0.25, 1.0)
        assert list(config_to_grid(cfg).times) == [0.0, 0.25, 1.0]

    def test_n_list(self):
        cfg = parse_config(MINIMAL.replace("n = 10", "n = 25, 200"))
        assert cfg.matrix_n == (25, 200)

    def test_comments_ignored(self):
        cfg = parse_config(MINIMAL.replace("seed = 1", "seed = 1  # master seed"))
        assert cfg.sampler_seed == 1

    def test_repeated_n_is_rejected(self):
        text = MINIMAL.replace("n = 10", "n = 6, 4, 6\nkind = x")
        with pytest.raises(ConfigError) as err:
            parse_config(text)
        problems = err.value.problems
        assert "line 10: matrix.n entries must be distinct, got 6, 4, 6" in problems
        assert any("unknown key matrix.kind" in p for p in problems)

    def test_shift_spec_is_left_to_make_shift(self):
        # the run builds the shift of each n and reports its problems
        cfg = parse_config(MINIMAL.replace("n = 10", "n = 2\nshift = diag:1,x"))
        assert cfg.matrix_shift == "diag:1,x"

    def test_z_points_must_be_upper_half(self):
        text = MINIMAL + "\n[observables]\nz_points = 1-1i\n"
        with pytest.raises(ConfigError, match="positive imaginary"):
            parse_config(text)


    def test_z_points_must_be_finite(self):
        with pytest.raises(ConfigError, match="finite"):
            parse_config(MINIMAL + "\n[observables]\nz_points = nani\n")

    @pytest.mark.parametrize("m", [0, 1])
    def test_standard_errors_need_two_paths(self, m):
        with pytest.raises(ConfigError, match="experiment.m must be at least 2.*two paths"):
            parse_config(MINIMAL + f"\n[experiment]\nm = {m}\n")

    @pytest.mark.parametrize("names", ["gaussian_bump, smooth_bump", "resolvent(1+2i)"])
    def test_test_functions_name_one_builtin(self, names):
        text = MINIMAL + f"\n[observables]\ntest_functions = {names}\n"
        lineno = len(text.splitlines())
        with pytest.raises(ConfigError, match=rf"line {lineno}: observables.test_functions "
                                              r"must be one of \('gaussian_bump', "):
            parse_config(text)

    @pytest.mark.parametrize("kind, key, owner", [
        ("brownian", "hurst = 0.3", "fbm"),
        ("brownian", "table_path = R.csv", "table"),
        ("fbm\nhurst = 0.3", "table_path = R.csv", "table"),
        ("table\ntable_path = R.csv", "hurst = 0.3", "fbm"),
    ], ids=["hurst-brownian", "table_path-brownian", "table_path-fbm", "hurst-table"])
    def test_kernel_keys_of_another_kind(self, kind, key, owner):
        text = MINIMAL.replace("kind = brownian", f"kind = {kind}\n{key}")
        name = key.split(" =")[0]
        with pytest.raises(ConfigError, match=rf"line \d+: kernel.{name} applies to "
                                              rf"kernel.kind = {owner} only"):
            parse_config(text)

    @pytest.mark.parametrize("setting, message", [
        ("t_base = -0.5", "experiment.t_base must be nonnegative"),
        ("x_points = 0", "experiment.x_points must be at least 1"),
        ("x_points = -3", "experiment.x_points must be at least 1"),
        ("p = -1.0", r"experiment.p must be positive, got -1.0"),
        ("p = 0.0", r"experiment.p must be positive, got 0.0"),
        ("separations = 0.01, 0.01, 0.1",
         r"experiment.separations entries must be distinct, got 0.01, 0.01, 0.1"),
        ("separations = 0.1, -0.2", r"experiment.separations must be positive, got 0.1, -0.2"),
        ("separations = 0.0, 0.1", r"experiment.separations must be positive, got 0.0, 0.1"),
    ], ids=["negative-t-base", "zero-x-points", "negative-x-points", "negative-p", "zero-p",
            "repeated-separation", "negative-separation", "zero-separation"])
    def test_experiment_domains(self, setting, message):
        with pytest.raises(ConfigError, match=message):
            parse_config(MINIMAL + f"\n[experiment]\n{setting}\n")

    @pytest.mark.parametrize("text, problem", [
        ("[plot]\n" + MINIMAL, "line 1: unknown section [plot]"),
        ("width = 3\n" + MINIMAL, "line 1: key outside any known section"),
        (MINIMAL.replace("kind = brownian", "kind = brownian\nverbose"),
         "line 4: expected 'key = value', got 'verbose'"),
        (MINIMAL.replace("t_max = 1.0", "t_max = 0.0"), "line 6: grid.t_max must be positive, got 0.0"),
        (MINIMAL.replace("steps = 8", "steps = 0"), "line 7: grid.steps must be at least 1, got 0"),
        (MINIMAL.replace("t_max = 1.0\nsteps = 8", "times = 0.5, 1.0"),
         "line 6: grid.times must be strictly increasing and start at 0"),
        (MINIMAL.replace("t_max = 1.0\nsteps = 8", "times = 0.0, 1.0, 0.5"),
         "line 6: grid.times must be strictly increasing and start at 0"),
        (MINIMAL.replace("seed = 1", "seed = -1"),
         "line 13: sampler.seed must be an unsigned 64-bit integer, got -1"),
        (MINIMAL.replace("seed = 1", f"seed = {2 ** 64}"),
         f"line 13: sampler.seed must be an unsigned 64-bit integer, got {2 ** 64}"),
        (MINIMAL.replace("kind = brownian", "kind = table"),
         "kernel.table_path is required when kernel.kind = table"),
        (MINIMAL + "\n[experiment]\ndt = 0\n", "line 16: experiment.dt must be positive, got 0.0"),
        (MINIMAL + "\n[experiment]\ndt = -0.05\n",
         "line 16: experiment.dt must be positive, got -0.05"),
        (MINIMAL + "\n[observables]\nz_points = 1i, 1+2ji\n",
         "line 16: observables.z_points: expected a complex literal such as 1+2i, got '1+2ji'"),
    ], ids=["unknown-section", "key-outside-section", "no-equals", "t_max-zero", "steps-zero",
            "times-start", "times-order", "seed-negative", "seed-too-big", "table-no-path",
            "dt-zero", "dt-negative", "malformed-z-point"])
    def test_rejected_with_one_problem(self, text, problem):
        with pytest.raises(ConfigError) as err:
            parse_config(text)
        assert err.value.problems == [problem]

    # one value per check of every checked key, each failing that check only
    BAD_VALUES = [
        ("kernel", "kind", "quantum"), ("kernel", "hurst", "1.5"), ("grid", "t_max", "0.0"),
        ("grid", "steps", "0"), ("grid", "times", "0.5, 1.0"), ("matrix", "n", "0"),
        ("matrix", "n", "4, 4"), ("sampler", "method", "quantum"), ("sampler", "seed", "-1"),
        ("observables", "test_functions", "nope"), ("observables", "z_points", "1-1i"),
        ("experiment", "m", "1"), ("experiment", "p", "0.0"), ("experiment", "t_base", "-0.5"),
        ("experiment", "separations", "-0.1"), ("experiment", "separations", "0.1, 0.1"),
        ("experiment", "dt", "0.0"), ("experiment", "x_points", "0"), ("output", "format", "json"),
    ]

    @pytest.mark.parametrize("section, key, value", BAD_VALUES,
                             ids=[f"{s}.{k}={v}" for s, k, v in BAD_VALUES])
    def test_value_problem_names_its_line(self, section, key, value):
        fbm = MINIMAL.replace("kind = brownian", "kind = fbm\nhurst = 0.75")
        text = "\n".join(line for line in fbm.splitlines() if not line.startswith(f"{key} ="))
        text += f"\n[{section}]\n{key} = {value}\n"
        lineno = len(text.splitlines())
        with pytest.raises(ConfigError) as err:
            parse_config(text)
        prefix = f"line {lineno}: {section}.{key} "
        assert len([p for p in err.value.problems if p.startswith(prefix)]) == 1

    def test_every_check_has_a_bad_value(self):
        checks = sum(len(spec.get("checks", ())) for spec in _SCHEMA.values())
        assert checks == len(self.BAD_VALUES)
        assert {(s, k) for s, k, _ in self.BAD_VALUES} == {
            key for key, spec in _SCHEMA.items() if spec.get("checks")}

    @pytest.mark.parametrize("section, key", [key for key, spec in _SCHEMA.items()
                                              if spec.get("default") is not None])
    def test_default_passes_its_own_checks(self, section, key):
        # defaults are materialised without a check at parse time
        assert _value_problems(section, key, _SCHEMA[(section, key)]["default"]) == []


class TestComplexLiterals:
    @pytest.mark.parametrize("text,expected", [
        ("1+2i", 1 + 2j),
        ("2i", 2j),
        ("-0.5+1i", -0.5 + 1j),
        ("i", 1j),
        ("3", 3 + 0j),
        ("1.5e-1+2e0i", 0.15 + 2j),
        ("0+1e-05i", 1e-05j),
        ("-2500+3e-07i", -2500 + 3e-07j),
        ("1e-5i", 1e-05j),
        ("1+i", 1 + 1j),
        ("1-i", 1 - 1j),
    ])
    def test_parse(self, text, expected):
        assert parse_complex(text) == expected

    def test_invalid(self):
        with pytest.raises(ValueError):
            parse_complex("")

    @pytest.mark.parametrize("text", ["1+", "1j", "(1+2i)", "1e+i", "1i+2i"])
    def test_malformed_literal_is_named(self, text):
        with pytest.raises(ValueError, match=re.escape(f"got {text!r}")):
            parse_complex(text)


class TestCanonical:
    def test_canonical_roundtrip_is_fixed_point(self):
        cfg = parse_config(MINIMAL)
        canon = cfg.canonical_text()
        again = parse_config(canon)
        assert again == cfg
        assert again.canonical_text() == canon

    @pytest.mark.parametrize("z", ["0.1234567+1i", "0+1e-05i", "-2500+3e-07i"])
    def test_complex_z_points_survive_replay(self, z):
        cfg = parse_config(MINIMAL + f"\n[observables]\nz_points = {z}\n")
        assert parse_config(cfg.canonical_text()) == cfg

    def test_default_z_point_text_unchanged(self):
        assert "z_points = 0+1i\n" in parse_config(MINIMAL).canonical_text()

    def test_default_test_function_text_unchanged(self):
        # one name prints as the one-element list it used to be
        assert "test_functions = gaussian_bump\n" in parse_config(MINIMAL).canonical_text()

    def test_away_from_default(self):
        # a key written at its default value is not away from it
        cfg = parse_config(MINIMAL.replace("seed = 1", "seed = 1\nmethod = cholesky")
                           + "\n[experiment]\nm = 20\np = 3.0\ndt = 0.001\n")
        assert cfg.away_from_default(("sampler", "observables", "experiment")) == {
            "experiment.p": "4.0"}
        assert cfg.away_from_default(("sampler",)) == {}

    def test_equivalent_configs_same_canonical_form(self):
        a = parse_config(MINIMAL)
        reordered = MINIMAL.replace(
            "[kernel]\nkind = brownian",
            "[matrix]\nn = 10\n\n[kernel]\nkind = brownian").replace(
            "\n[matrix]\nn = 10\n\n[sampler]", "\n[sampler]")
        b = parse_config(reordered)
        assert a.canonical_text() == b.canonical_text()

    def test_seed_override(self):
        cfg = parse_config(MINIMAL).with_seed(777)
        assert cfg.sampler_seed == 777
        assert "seed = 777" in cfg.canonical_text()

    def test_kernel_construction(self):
        assert isinstance(config_to_kernel(parse_config(MINIMAL)), BrownianKernel)
        cfg = parse_config(MINIMAL.replace("kind = brownian", "kind = fbm\nhurst = 0.3"))
        k = config_to_kernel(cfg)
        assert isinstance(k, FractionalBrownianKernel)
        assert k.hurst == 0.3
