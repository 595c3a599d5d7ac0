"""Config parsing: strictness, typed errors, canonicalisation."""

import pytest

from eigenflow.config import (ConfigError, config_to_grid, config_to_kernel,
                              parse_config, parse_complex)

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

    def test_diag_shift_checked_against_every_n(self):
        text = MINIMAL.replace("n = 10", "n = 2, 4, 10\nshift = diag:1,-1\nkind = x")
        with pytest.raises(ConfigError) as err:
            parse_config(text)
        problems = err.value.problems
        assert sum("diagonal entries, but matrix.n" in p for p in problems) == 2
        assert any("unknown key matrix.kind" in p for p in problems)

    @pytest.mark.parametrize("shift", ["diag:1,x", "diag:", "diag:nan,1", "diag:1,inf"])
    def test_diag_shift_entries_must_be_finite_numbers(self, shift):
        text = MINIMAL.replace("n = 10", f"n = 2\nshift = {shift}")
        with pytest.raises(ConfigError, match="entries must be finite numbers"):
            parse_config(text)

    def test_z_points_must_be_upper_half(self):
        text = MINIMAL + "\n[observables]\nz_points = 1-1i\n"
        with pytest.raises(ConfigError, match="positive imaginary"):
            parse_config(text)


class TestComplexLiterals:
    @pytest.mark.parametrize("text,expected", [
        ("1+2i", 1 + 2j),
        ("2i", 2j),
        ("-0.5+1i", -0.5 + 1j),
        ("i", 1j),
        ("3", 3 + 0j),
        ("1.5e-1+2e0i", 0.15 + 2j),
    ])
    def test_parse(self, text, expected):
        assert parse_complex(text) == expected

    def test_invalid(self):
        with pytest.raises(ValueError):
            parse_complex("")


class TestCanonical:
    def test_canonical_roundtrip_is_fixed_point(self):
        cfg = parse_config(MINIMAL)
        canon = cfg.canonical_text()
        again = parse_config(canon)
        assert again == cfg
        assert again.canonical_text() == canon

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
        cfg = parse_config(MINIMAL.replace("kind = brownian", "kind = fbm\nhurst = 0.3"))
        k = config_to_kernel(cfg)
        assert k.kind == "fbm"
        assert k.hurst == 0.3
