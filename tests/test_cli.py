"""CLI and runner: outputs, manifests, determinism, exit codes."""

import contextlib
import csv
import hashlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import eigenflow
from eigenflow.cli import main

MINIMAL = """
[kernel]
kind = brownian

[grid]
t_max = 1.0
steps = 4

[matrix]
n = 8

[sampler]
seed = 11

[experiment]
m = 6
"""
# A run rejects any key it does not read that is set away from its default:
# only dyson reads experiment.dt, and limit samples nothing, so it leaves
# experiment.m at its default.
DYSON = MINIMAL + "dt = 0.05\n"
LIMIT = MINIMAL.replace("\n[experiment]\nm = 6\n", "")


def config_for(subcommand):
    return {"dyson": DYSON, "limit": LIMIT}.get(subcommand, MINIMAL)


FBM = MINIMAL.replace("kind = brownian", "kind = fbm\nhurst = 0.75")
BROWNIAN_TABLE = [(s, t, min(s, t)) for s in (0.0, 0.5, 1.0) for t in (0.0, 0.5, 1.0)]


@pytest.fixture
def cfg_file(tmp_path):
    p = tmp_path / "exp.cfg"
    p.write_text(MINIMAL)
    return p


def run_cli(args, cwd=None):
    """The CLI in a fresh interpreter, as a user runs it, in directory ``cwd``."""
    src = str(Path(eigenflow.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    return subprocess.run([sys.executable, "-m", "eigenflow.cli", *args], env=env,
                          capture_output=True, text=True, cwd=cwd)


def read_rows(path):
    lines = Path(path).read_text().splitlines()
    assert lines[0].startswith("# {")
    header = lines[1].split(",")
    rows = [line.split(",") for line in lines[2:]]
    return header, rows


def dict_rows(path):
    """Data rows as dicts, read the way ``csv`` reads them."""
    with open(path, newline="") as fh:
        next(fh)  # the JSON comment
        return list(csv.DictReader(fh))


def record_tasks(monkeypatch, module, name, paths_arg):
    """The path count of each call of ``module.name``, whose positional
    argument ``paths_arg`` holds the paths of its task."""
    sizes = []
    real = getattr(module, name)

    def recorded(*args):
        sizes.append(len(args[paths_arg]))
        return real(*args)

    monkeypatch.setattr(module, name, recorded)
    return sizes


class TestConverge:
    def test_outputs_and_columns(self, cfg_file, tmp_path):
        out = tmp_path / "run"
        assert main(["converge", "--config", str(cfg_file), "--out", str(out)]) == 0
        header, rows = read_rows(out / "converge_n8.csv")
        assert header == ["n", "t", "mean_distance", "stderr", "M"]
        assert len(rows) == 6  # 5 grid times + sup row
        assert rows[-1][1] == "sup"
        assert (out / "run_manifest.json").exists()

    def test_embedded_config_comment(self, cfg_file, tmp_path):
        out = tmp_path / "run"
        main(["converge", "--config", str(cfg_file), "--out", str(out)])
        first = (out / "converge_n8.csv").read_text().splitlines()[0]
        blob = json.loads(first[2:])
        assert blob["seed"] == 11
        assert blob["subcommand"] == "converge"
        assert "[kernel]" in blob["config"]

    def test_rerun_byte_identical(self, cfg_file, tmp_path):
        out = tmp_path / "run"
        main(["converge", "--config", str(cfg_file), "--out", str(out)])
        first = (out / "converge_n8.csv").read_bytes()
        main(["converge", "--config", str(cfg_file), "--out", str(out)])
        assert (out / "converge_n8.csv").read_bytes() == first

    def test_thread_count_invariance(self, cfg_file, tmp_path):
        out = tmp_path / "run"
        main(["converge", "--config", str(cfg_file), "--out", str(out), "--threads", "1"])
        serial = (out / "converge_n8.csv").read_bytes()
        main(["converge", "--config", str(cfg_file), "--out", str(out), "--threads", "4"])
        assert (out / "converge_n8.csv").read_bytes() == serial
        # a count below one runs one worker
        main(["converge", "--config", str(cfg_file), "--out", str(out), "--threads", "0"])
        assert (out / "converge_n8.csv").read_bytes() == serial
        assert json.loads((out / "run_manifest.json").read_text())["threads"] == 1

    def test_seed_override_changes_output(self, cfg_file, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        main(["converge", "--config", str(cfg_file), "--out", str(out1)])
        main(["converge", "--config", str(cfg_file), "--out", str(out2), "--seed", "99"])
        a = (out1 / "converge_n8.csv").read_text().splitlines()[2:]
        b = (out2 / "converge_n8.csv").read_text().splitlines()[2:]
        assert a != b


class TestThreadInvariance:
    CASES = {
        "residual": MINIMAL.replace("n = 8", "n = 4, 8"),
        "holder": MINIMAL,
        "collisions": MINIMAL,
        "collisions-circulant": FBM.replace("seed = 11", "seed = 11\nmethod = circulant"),
        "dyson": DYSON,
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    @pytest.mark.parametrize("budget", [None, 1])
    def test_csvs_identical_at_one_and_two_threads(self, tmp_path, monkeypatch, case, budget):
        from eigenflow import diagnostics
        if budget is not None:  # one path per task, so two threads share the work
            monkeypatch.setattr("eigenflow.budget.TILE_BYTES", budget)
            monkeypatch.setattr("eigenflow.budget.CHUNK_BYTES", budget)  # dyson's SDE side
        tasks = record_tasks(monkeypatch, diagnostics, "sample_triangle", 3)
        sde_tasks = record_tasks(monkeypatch, diagnostics, "_sde_paths", 4)
        p = tmp_path / "exp.cfg"
        p.write_text(self.CASES[case])
        out = tmp_path / "run"
        csvs = []
        for threads in ("1", "2"):
            tasks.clear()
            sde_tasks.clear()
            assert main([case.split("-")[0], "--config", str(p), "--out", str(out),
                         "--threads", threads]) == 0
            csvs.append({f.name: f.read_bytes() for f in sorted(out.glob("*.csv"))})
            # 6 paths: one tile or chunk of 6, or 6 of one path
            split = [6] if budget is None else [1] * 6
            assert sorted(tasks) == split
            assert sorted(sde_tasks) == (split if case == "dyson" else [])
        assert csvs[0] and csvs[0] == csvs[1]


class TestManifest:
    def test_manifest_contents(self, cfg_file, tmp_path):
        out = tmp_path / "run"
        main(["residual", "--config", str(cfg_file), "--out", str(out)])
        manifest = json.loads((out / "run_manifest.json").read_text())
        assert manifest["subcommand"] == "residual"
        assert manifest["seed"] == 11
        assert "numpy" in manifest["versions"]
        assert manifest["wall_time_s"] > 0
        assert any("residual_n8.csv" in o for o in manifest["outputs"])

    def test_rerun_from_manifest_reproduces(self, cfg_file, tmp_path):
        out1 = tmp_path / "one"
        main(["converge", "--config", str(cfg_file), "--out", str(out1)])
        bytes1 = (out1 / "converge_n8.csv").read_bytes()

        out2 = tmp_path / "two"
        assert main(["converge", "--config", str(out1 / "run_manifest.json"),
                     "--out", str(out2)]) == 0
        bytes2 = (out2 / "converge_n8.csv").read_bytes()
        # identical apart from the embedded output-directory line
        strip = lambda b: b"\n".join(
            ln for ln in b.split(b"\n") if not ln.startswith(b"# {"))
        assert strip(bytes1) == strip(bytes2)

    def test_manifest_replays_from_any_directory(self, tmp_path):
        # the run's relative table_path and file: shift resolve against the
        # working directory its manifest records, not the replay's
        golden = Path(__file__).resolve().parent / "golden"
        one, two = tmp_path / "one", tmp_path / "two"
        proc = run_cli(["collisions", "--config", "collisions-table-file.cfg", "--out", str(one)],
                       cwd=golden)
        assert proc.returncode == 0, proc.stderr
        proc = run_cli(["collisions", "--config", str(one / "run_manifest.json"),
                        "--out", str(two)], cwd="/")
        assert proc.returncode == 0, proc.stderr
        rows = [(out / "collisions_n3.csv").read_bytes().split(b"\n", 1)[1] for out in (one, two)]
        assert rows[0] == rows[1]
        manifests = [json.loads((out / "run_manifest.json").read_text()) for out in (one, two)]
        assert [m["working_directory"] for m in manifests] == [str(golden)] * 2
        assert "table_path = table.csv" in manifests[1]["canonical_config"]
        # both manifests record the files the run read, by key
        for m in manifests:
            assert {key: record["path"] for key, record in m["inputs"].items()} == {
                "kernel.table_path": str(golden / "table.csv"),
                "matrix.shift": str(golden / "shift.csv")}
        assert manifests[0]["inputs"] == manifests[1]["inputs"]

    def test_replay_after_an_input_changed_exits_1_with_both_digests(self, tmp_path):
        golden = Path(__file__).resolve().parent / "golden"
        work = tmp_path / "work"
        work.mkdir()
        for name in ("collisions-table-file.cfg", "table.csv", "shift.csv"):
            shutil.copy(golden / name, work / name)
        proc = run_cli(["collisions", "--config", "collisions-table-file.cfg",
                        "--out", str(tmp_path / "one")], cwd=work)
        assert proc.returncode == 0, proc.stderr
        manifest = tmp_path / "one" / "run_manifest.json"
        before = json.loads(manifest.read_text())["inputs"]["kernel.table_path"]["sha256"]
        table = work / "table.csv"
        table.write_text(table.read_text() + "\n")  # a blank line: the same kernel
        after = hashlib.sha256(table.read_bytes()).hexdigest()
        assert after != before
        proc = run_cli(["collisions", "--config", str(manifest), "--out", str(tmp_path / "two")],
                       cwd="/")
        assert proc.returncode == 1
        assert "kernel.table_path" in proc.stderr
        assert before in proc.stderr and after in proc.stderr
        assert not (tmp_path / "two").exists()
        # the unchanged shift file alone passes, and a manifest without the
        # record replays as before
        table.write_bytes((golden / "table.csv").read_bytes())
        record = json.loads(manifest.read_text())
        assert run_cli(["collisions", "--config", str(manifest), "--out",
                        str(tmp_path / "three")], cwd="/").returncode == 0
        del record["inputs"]
        manifest.write_text(json.dumps(record))
        table.write_text(table.read_text() + "\n")
        assert run_cli(["collisions", "--config", str(manifest), "--out",
                        str(tmp_path / "four")], cwd="/").returncode == 0


class TestSubcommands:
    def test_residual_files(self, tmp_path):
        p = tmp_path / "exp.cfg"
        p.write_text(MINIMAL.replace("n = 8", "n = 4, 8"))
        out = tmp_path / "run"
        assert main(["residual", "--config", str(p), "--out", str(out)]) == 0
        header, rows = read_rows(out / "residual_n4.csv")
        assert header[:3] == ["n", "test_function", "M"]
        header, rows = read_rows(out / "residual_fit.csv")
        assert header == ["test_function", "n_values", "slope"]

    def test_test_function_name_is_one_csv_field(self, tmp_path):
        # the poly_quadratic name holds commas; unquoted, it split into columns
        p = tmp_path / "exp.cfg"
        p.write_text(MINIMAL.replace("n = 8", "n = 4, 8")
                     + "\n[observables]\ntest_functions = poly_quadratic\n")
        out = tmp_path / "run"
        assert main(["residual", "--config", str(p), "--out", str(out)]) == 0
        for name, number in (("residual_n4.csv", "mean_square"), ("residual_fit.csv", "slope")):
            (row,) = dict_rows(out / name)
            assert None not in row  # no field past the header's columns
            assert row["test_function"] == "poly([0,0,1],w=10)"
            float(row[number])

    def test_holder_files(self, cfg_file, tmp_path):
        out = tmp_path / "run"
        assert main(["holder", "--config", str(cfg_file), "--out", str(out)]) == 0
        header, rows = read_rows(out / "holder_n8.csv")
        assert header == ["t1", "t2", "p", "moment", "stderr"]
        header, rows = read_rows(out / "holder_fit_n8.csv")
        assert header == ["p", "qhat", "M", "test_function"]

    def test_collisions_files(self, cfg_file, tmp_path):
        out = tmp_path / "run"
        assert main(["collisions", "--config", str(cfg_file), "--out", str(out)]) == 0
        header, rows = read_rows(out / "collisions_n8.csv")
        assert header == ["n", "stat", "value"]
        stats = {r[1] for r in rows}
        assert "degenerate_fraction" in stats

    def test_dyson_files(self, tmp_path):
        p = tmp_path / "exp.cfg"
        p.write_text(DYSON)
        out = tmp_path / "run"
        assert main(["dyson", "--config", str(p), "--out", str(out)]) == 0
        header, rows = read_rows(out / "dyson_n8.csv")
        assert header == ["n", "t", "dt", "M", "w1_distance", "w1_mc_error",
                          "forced_sorts"]
        assert len(rows) == 2  # dt and dt/2

    def test_dyson_requires_brownian(self, tmp_path):
        p = tmp_path / "exp.cfg"
        p.write_text(DYSON.replace("kind = brownian", "kind = fbm\nhurst = 0.75"))
        assert main(["dyson", "--config", str(p), "--out", str(tmp_path / "x")]) == 1

    def test_circulant_requires_fbm(self, tmp_path):
        # brownian kernel + circulant sampler is a usage error
        p = tmp_path / "exp.cfg"
        p.write_text(MINIMAL.replace("seed = 11", "seed = 11\nmethod = circulant"))
        assert main(["converge", "--config", str(p), "--out", str(tmp_path / "y")]) == 1

    def test_circulant_requires_a_uniform_grid(self, tmp_path, capsys):
        p = tmp_path / "exp.cfg"
        p.write_text(FBM.replace("seed = 11", "seed = 11\nmethod = circulant")
                     .replace("t_max = 1.0\nsteps = 4", "times = 0, 0.3, 1"))
        out = tmp_path / "run"
        assert main(["converge", "--config", str(p), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("eigenflow: configuration error:")
        assert "sampler.method" in err
        assert not out.exists()

    @pytest.mark.parametrize("subcommand", ["holder", "limit"])
    def test_rejects_circulant(self, tmp_path, capsys, subcommand):
        # holder samples on the non-uniform grid {0, t_base, t_base + separations};
        # limit samples nothing, so the key would only be echoed into its CSVs
        p = tmp_path / "exp.cfg"
        p.write_text(config_for(subcommand).replace("kind = brownian", "kind = fbm\nhurst = 0.75")
                     .replace("seed = 11", "seed = 11\nmethod = circulant"))
        out = tmp_path / "run"
        assert main([subcommand, "--config", str(p), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("eigenflow: configuration error:")
        assert "sampler.method" in err
        assert not list(out.glob("*.csv"))

    @pytest.mark.parametrize("subcommand", ["holder", "dyson", "limit"])
    def test_single_dimension_subcommands_reject_a_list(self, tmp_path, capsys, subcommand):
        p = tmp_path / "exp.cfg"
        p.write_text(config_for(subcommand).replace("n = 8", "n = 4, 8"))
        assert main([subcommand, "--config", str(p), "--out", str(tmp_path / "o")]) == 1
        assert "matrix.n lists 2" in capsys.readouterr().err

    @pytest.mark.parametrize("subcommand", ["residual", "holder"])
    def test_single_test_function_subcommands_reject_a_list(self, tmp_path, subcommand):
        p = tmp_path / "exp.cfg"
        p.write_text(MINIMAL + "\n[observables]\ntest_functions = gaussian_bump, smooth_bump\n")
        assert main([subcommand, "--config", str(p), "--out", str(tmp_path / "o")]) == 1

    def test_circulant_fbm_runs(self, tmp_path):
        p = tmp_path / "exp.cfg"
        p.write_text(FBM.replace("seed = 11", "seed = 11\nmethod = circulant"))
        out = tmp_path / "run"
        assert main(["converge", "--config", str(p), "--out", str(out)]) == 0
        assert (out / "converge_n8.csv").exists()

    def test_table_kernel_config_runs(self, tmp_path):
        import numpy as np
        ts = np.linspace(0.0, 1.0, 9)
        lines = ["s,t,value"] + [f"{s},{t},{min(s, t)}" for s in ts for t in ts]
        table = tmp_path / "table.csv"
        table.write_text("\n".join(lines) + "\n")
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(MINIMAL.replace(
            "kind = brownian", f"kind = table\ntable_path = {table}"))
        out = tmp_path / "run"
        assert main(["collisions", "--config", str(cfg), "--out", str(out)]) == 0
        assert (out / "collisions_n8.csv").exists()

    def test_limit_files(self, tmp_path):
        p = tmp_path / "exp.cfg"
        p.write_text(LIMIT)
        out = tmp_path / "run"
        assert main(["limit", "--config", str(p), "--out", str(out)]) == 0
        header, rows = read_rows(out / "limit_density_t4.csv")
        assert header == ["x", "pdf", "cdf"]
        # the x = 0 row of the variance-1 semicircle carries pdf 1/pi
        mid = [r for r in rows if abs(float(r[0])) < 1e-12][0]
        assert float(mid[1]) == pytest.approx(1 / np.pi, rel=1e-10)
        header, rows = read_rows(out / "limit_stieltjes.csv")
        assert header == ["t", "re_z", "im_z", "re_F", "im_F"]

    def test_limit_time_zero_stieltjes_is_closed_form(self, tmp_path):
        # every F_tau(z) comes from limit_stieltjes; at t = 0 of the zero
        # shift that is the point mass's own transform 1/(0 - z), to the
        # last digit
        from eigenflow.limitlaw import AtomicMeasure
        p = tmp_path / "exp.cfg"
        p.write_text(LIMIT + "\n[observables]\nz_points = 0.5+0.1i\n")
        out = tmp_path / "run"
        assert main(["limit", "--config", str(p), "--out", str(out)]) == 0
        _, rows = read_rows(out / "limit_stieltjes.csv")
        f = AtomicMeasure.from_eigenvalues([0.0]).stieltjes(0.5 + 0.1j)
        assert rows[0] == ["0.0", "0.5", "0.1", repr(f.real), repr(f.imag)]


class TestReads:
    def test_table_covers_the_optional_keys(self):
        from eigenflow.config import _SCHEMA
        from eigenflow.runner import READS, SUBCOMMANDS
        optional = {f"{sec}.{key}" for (sec, key), spec in _SCHEMA.items()
                    if sec in ("sampler", "observables", "experiment") and not spec["required"]}
        read = {name for names in READS.values() for name in names}
        assert read == optional
        assert SUBCOMMANDS == ("converge", "residual", "holder", "collisions", "dyson", "limit")

    @pytest.mark.parametrize("subcommand, setting, key", [
        ("converge", "[experiment]\np = 3.0", "experiment.p"),
        ("residual", "[experiment]\ndt = 0.01", "experiment.dt"),
        ("holder", "[experiment]\nx_points = 5", "experiment.x_points"),
        ("collisions", "[observables]\ntest_functions = smooth_bump",
         "observables.test_functions"),
        ("dyson", "[experiment]\nt_base = 0.25", "experiment.t_base"),
        ("limit", "[experiment]\np = 3.0", "experiment.p"),
        ("limit", "[observables]\ntest_functions = gaussian_bump, smooth_bump\n"
                  "[experiment]\np = 3.0", "observables.test_functions"),
        ("converge", "[observables]\ntest_functions = gaussian_bump, smooth_bump\n"
                     "[experiment]\np = 3.0", "observables.test_functions"),
    ], ids=["converge", "residual", "holder", "collisions", "dyson", "limit",
            "limit-two-test-functions", "converge-two-test-functions"])
    def test_unread_key_is_config_error(self, tmp_path, subcommand, setting, key):
        # a setting the subcommand never reads used to exit 0 and be echoed into its CSVs
        p = tmp_path / "exp.cfg"
        p.write_text(config_for(subcommand) + "\n" + setting + "\n")
        proc = run_cli([subcommand, "--config", str(p), "--out", str(tmp_path / "o")])
        assert proc.returncode == 1
        assert proc.stderr.startswith("eigenflow: configuration error:")
        assert key in proc.stderr
        assert "Traceback" not in proc.stderr
        assert list(tmp_path.rglob("*.csv")) == []

    @pytest.mark.parametrize("subcommand", ["residual", "holder", "collisions", "dyson", "limit"])
    def test_manifest_replays(self, tmp_path, subcommand):
        # the canonical config in a manifest prints every default
        p = tmp_path / "exp.cfg"
        p.write_text(config_for(subcommand))
        out = tmp_path / "one"
        assert main([subcommand, "--config", str(p), "--out", str(out)]) == 0
        assert main([subcommand, "--config", str(out / "run_manifest.json"),
                     "--out", str(tmp_path / "two")]) == 0


class TestExitCodes:
    def test_config_error(self, tmp_path):
        p = tmp_path / "bad.cfg"
        p.write_text(MINIMAL.replace("kind = brownian", "kind = fbm\nhurst = 2"))
        assert main(["converge", "--config", str(p), "--out", str(tmp_path / "o")]) == 1

    @pytest.mark.parametrize("n, shift", [("2, 4", "diag:1,-1"), ("2", "diag:1,x"),
                                          ("2", "diag:nan,1")],
                             ids=["count", "entry", "nonfinite"])
    def test_malformed_diag_shift_is_config_error(self, tmp_path, n, shift):
        p = tmp_path / "bad.cfg"
        p.write_text(MINIMAL.replace("n = 8", f"n = {n}\nshift = {shift}"))
        proc = run_cli(["converge", "--config", str(p), "--out", str(tmp_path / "o")])
        assert proc.returncode == 1
        assert proc.stderr.startswith("eigenflow: configuration error:")
        assert "Traceback" not in proc.stderr
        assert list(tmp_path.rglob("*.csv")) == []

    def test_diag_shift_checked_against_every_n(self, tmp_path):
        p = tmp_path / "bad.cfg"
        p.write_text(MINIMAL.replace("n = 8", "n = 2, 4, 10\nshift = diag:1,-1"))
        proc = run_cli(["converge", "--config", str(p), "--out", str(tmp_path / "o")])
        assert proc.returncode == 1
        assert proc.stderr.startswith("eigenflow: configuration error: matrix.shift:")
        assert "expected 4" in proc.stderr and "expected 10" in proc.stderr
        assert "expected 2" not in proc.stderr
        assert list(tmp_path.rglob("*.csv")) == []

    @pytest.mark.parametrize("subcommand", ["converge", "residual"])
    def test_repeated_n_is_config_error(self, tmp_path, subcommand):
        # a repeated n used to write, and fit, the same matrix size twice
        p = tmp_path / "twice.cfg"
        p.write_text(MINIMAL.replace("n = 8", "n = 6, 6"))
        proc = run_cli([subcommand, "--config", str(p), "--out", str(tmp_path / "o")])
        assert proc.returncode == 1
        assert "matrix.n entries must be distinct" in proc.stderr
        assert "Traceback" not in proc.stderr
        assert list(tmp_path.rglob("*.csv")) == []

    @pytest.mark.parametrize("content", ["1,2\n3,4\n", "1,0,0\n0,1,0\n0,0,1\n",
                                         "nan,0\n0,1\n"],
                             ids=["asymmetric", "shape", "nonfinite"])
    def test_bad_shift_file_is_config_error(self, tmp_path, content):
        shift = tmp_path / "shift.csv"
        shift.write_text(content)
        p = tmp_path / "bad.cfg"
        p.write_text(MINIMAL.replace("n = 8", f"n = 2\nshift = file:{shift}"))
        proc = run_cli(["converge", "--config", str(p), "--out", str(tmp_path / "o")])
        assert proc.returncode == 1
        assert proc.stderr.startswith("eigenflow: configuration error: matrix.shift:")
        assert "Traceback" not in proc.stderr
        assert list(tmp_path.rglob("*.csv")) == [shift]

    @staticmethod
    def _run_on_table(tmp_path, rows, header="s,t,value", subcommand="collisions",
                      config=MINIMAL):
        """``subcommand`` on a table file of ``rows``, as a fresh process."""
        table = tmp_path / "R.csv"
        table.write_text(header + "\n" + "".join(f"{s},{t},{v}\n" for s, t, v in rows))
        p = tmp_path / "table.cfg"
        p.write_text(config.replace("kind = brownian", f"kind = table\ntable_path = {table}"))
        proc = run_cli([subcommand, "--config", str(p), "--out", str(tmp_path / "o")])
        assert proc.returncode == 1, proc.stderr
        # numpy's warning about an empty file comes first
        assert proc.stderr.splitlines()[-1].startswith(f"eigenflow: configuration error: "
                                                       f"kernel.table_path = {table}: ")
        assert "Traceback" not in proc.stderr
        assert not (tmp_path / "o").exists()
        return proc.stderr

    @pytest.mark.parametrize("header, rows, expect", [
        ("a,b,c", BROWNIAN_TABLE, "expected CSV header 's,t,value'"),
        ("s,t,value", [r for r in BROWNIAN_TABLE if r[0] != 0.5],
         "table must sample a square s x t grid"),
        ("s,t,value", BROWNIAN_TABLE[:-1], "table grid has missing (s,t) combinations"),
        ("s,t,value", [(s, t, s) for s, t, _ in BROWNIAN_TABLE], "table is not symmetric"),
        ("", [], "expected CSV header 's,t,value'"),
        ("s,t,value", BROWNIAN_TABLE + [(1.0, 1.0, 5.0)],
         "table repeats the pair (s,t) = (1.0, 1.0)"),
    ], ids=["header", "not-square", "missing-pair", "asymmetric", "empty", "repeated-pair"])
    def test_bad_table_file_is_config_error(self, tmp_path, header, rows, expect):
        # the loader's ValueError used to escape as a traceback
        assert expect in self._run_on_table(tmp_path, rows, header)

    @pytest.mark.parametrize("value", ["inf", "nan"])
    def test_nonfinite_table_value_is_config_error(self, tmp_path, value):
        # inf passed the symmetry check and failed the Cholesky factor with
        # exit 2; nan was reported as a missing (s,t) pair
        rows = [(s, t, value if s == t == 1.0 else v) for s, t, v in BROWNIAN_TABLE]
        assert "every table entry must be a finite number" in self._run_on_table(tmp_path, rows)

    @pytest.mark.parametrize("subcommand", ["limit", "converge"])
    def test_negative_table_variance_is_config_error(self, tmp_path, subcommand):
        # limit died with a traceback (tau must be positive) and converge
        # exited 2, unable to factor the Gram matrix
        rows = [(0, 0, 0), (0, 1, 0), (1, 0, 0), (1, 1, -0.5)]
        config = config_for(subcommand).replace("steps = 4", "steps = 2").replace(
            "n = 8", "n = 4\nshift = diag:1,1,-1,-1")
        stderr = self._run_on_table(tmp_path, rows, subcommand=subcommand, config=config)
        assert "the variance R(t,t) at t = 0.5 is -0.125" in stderr

    @pytest.mark.parametrize("seed", ["-1", str(2 ** 64)])
    def test_seed_override_outside_the_seed_domain_is_config_error(self, cfg_file, tmp_path,
                                                                   seed):
        # 2**64 ran as seed 0, and -1 ran but its manifest did not replay
        proc = run_cli(["converge", "--config", str(cfg_file), f"--seed={seed}",
                        "--out", str(tmp_path / "o")])
        assert proc.returncode == 1
        assert proc.stderr.startswith("eigenflow: configuration error:")
        assert f"sampler.seed must be an unsigned 64-bit integer, got {seed}" in proc.stderr
        assert "Traceback" not in proc.stderr
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("subcommand", ["converge", "residual", "dyson"])
    def test_single_path_is_config_error(self, tmp_path, subcommand):
        # one path has no standard error; it used to be written as nan
        p = tmp_path / "one.cfg"
        p.write_text(config_for(subcommand).replace("m = 6", "m = 1"))
        proc = run_cli([subcommand, "--config", str(p), "--out", str(tmp_path / "o")])
        assert proc.returncode == 1
        assert "experiment.m must be at least 2" in proc.stderr
        assert list(tmp_path.rglob("*.csv")) == []

    @pytest.mark.parametrize("subcommand, edits, expect", [
        ("dyson", [("t_max = 1.0", "t_max = 0.25"), ("dt = 0.05", "dt = 0.003")],
         "experiment.dt"),
        ("dyson", [("dt = 0.05", "dt = -0.05")], "experiment.dt"),
        ("holder", [("m = 6", "m = 6\nseparations = 0.1, -0.2")], "experiment.separations"),
        ("holder", [("m = 6", "m = 6\nt_base = -0.5")], "experiment.t_base"),
        ("holder", [("m = 6", "m = 6\nt_base = 0.5\nseparations = 1e-17, 1e-16, 0.1")],
         "experiment.separations: t_base = 0.5 does not resolve separations 1e-17:"),
        ("holder", [("m = 6", "m = 6\nt_base = 0.5\nseparations = 0.1, 0.10000000000000002")],
         "does not resolve separations 0.1, 0.10000000000000002:"),
        ("limit", [("seed = 11", "seed = 11\n\n[experiment]\nx_points = -3")],
         "experiment.x_points"),
        ("limit", [("seed = 11", "seed = 11\n\n[experiment]\nx_points = 0")],
         "experiment.x_points"),
        ("converge", [("kind = brownian", "kind = table\ntable_path = TABLE")],
         "time 0.75 outside tabulated domain [0.0, 0.5]"),
        ("limit", [("kind = brownian", "kind = table\ntable_path = TABLE")],
         "time 0.75 outside tabulated domain [0.0, 0.5]"),
    ], ids=["dt-does-not-divide", "negative-dt", "negative-separation", "negative-t-base",
            "separation-below-resolution", "coincident-separation-times",
            "negative-x-points", "zero-x-points", "short-table-converge", "short-table-limit"])
    def test_unusable_experiment_value_is_config_error(self, tmp_path, subcommand, edits,
                                                       expect):
        # checked before any sampling, so these exit at once
        table = tmp_path / "half_table.txt"  # Brownian, tabulated on [0, 0.5] only
        ts = np.linspace(0.0, 0.5, 5)
        table.write_text("s,t,value\n" + "".join(f"{s},{t},{min(s, t)}\n"
                                                 for s in ts for t in ts))
        text = config_for(subcommand)
        for old, new in edits:
            text = text.replace(old, new.replace("TABLE", str(table)))
        p = tmp_path / "bad.cfg"
        p.write_text(text)
        proc = run_cli([subcommand, "--config", str(p), "--out", str(tmp_path / "o")])
        assert proc.returncode == 1
        assert proc.stderr.startswith("eigenflow: configuration error:")
        assert expect in proc.stderr
        assert "Traceback" not in proc.stderr
        assert list(tmp_path.rglob("*.csv")) == []

    @pytest.mark.parametrize("subcommand", ["converge", "residual", "collisions", "dyson",
                                            "limit"])
    def test_nonfinite_numbers_are_numerical_failure(self, tmp_path, subcommand):
        # the shift's scale overflows: the outputs would hold nan or the
        # Burgers boundary table overflows; holder is absent because its
        # increments are exactly 0 at this scale, which is finite and honest
        p = tmp_path / "huge.cfg"
        p.write_text(config_for(subcommand).replace("steps = 4", "steps = 2")
                     .replace("m = 6", "m = 4").replace("n = 8", "n = 2\nshift = diag:1e308,-1e308"))
        proc = run_cli([subcommand, "--config", str(p), "--out", str(tmp_path / "o")])
        assert proc.returncode == 2
        # numpy's overflow warnings come first and say where the overflow happened
        assert proc.stderr.splitlines()[-1].startswith("eigenflow: numerical failure:")
        assert "Traceback" not in proc.stderr
        assert list(tmp_path.rglob("*.csv")) == []

    @pytest.mark.parametrize("subcommand, n, name, cell", [
        ("collisions", 1, "collisions_n1.csv", "inf"), ("residual", 8, "residual_fit.csv", "nan")])
    def test_expected_nonfinite_cells_are_written(self, tmp_path, subcommand, n, name, cell):
        # one eigenvalue has no gap, and one matrix size fits no slope
        p = tmp_path / "one.cfg"
        p.write_text(MINIMAL.replace("n = 8", f"n = {n}"))
        proc = run_cli([subcommand, "--config", str(p), "--out", str(tmp_path / "o")])
        assert proc.returncode == 0, proc.stderr
        _, rows = read_rows(tmp_path / "o" / name)
        assert cell in [v for row in rows for v in row]

    @pytest.mark.parametrize("content", ['{"seed": 1}', "[1, 2]"], ids=["object", "list"])
    def test_json_that_is_no_manifest_is_config_error(self, tmp_path, content, capsys):
        p = tmp_path / "other.json"
        p.write_text(content)
        assert main(["converge", "--config", str(p), "--out", str(tmp_path / "o")]) == 1
        assert "is not a run manifest" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("name, content", [
        ("latin.cfg", b"\xff\xfe\x00bad"), ("run_manifest.json", b'{"canonical_config": 5}'),
        ("run_manifest.json", b'{"canonical_config": "", "working_directory": 5}'),
        ("run_manifest.json",
         b'{"canonical_config": "", "inputs": {"matrix.shift": {"sha256": 5}}}')],
        ids=["not-utf8", "config-not-a-string", "directory-not-a-string", "inputs-not-digests"])
    def test_unreadable_config_text_is_config_error(self, tmp_path, name, content):
        # a UnicodeDecodeError and an AttributeError used to escape as tracebacks
        p = tmp_path / name
        p.write_bytes(content)
        proc = run_cli(["converge", "--config", str(p), "--out", str(tmp_path / "o")])
        assert proc.returncode == 1
        assert proc.stderr.startswith("eigenflow: configuration error:")
        assert str(p) in proc.stderr
        assert "Traceback" not in proc.stderr
        assert not (tmp_path / "o").exists()

    def test_missing_config_file_is_io_error(self, tmp_path):
        assert main(["converge", "--config", str(tmp_path / "nope.cfg")]) == 3

    def test_unwritable_output_is_io_error(self, cfg_file):
        assert main(["converge", "--config", str(cfg_file),
                     "--out", "/proc/definitely/not/writable"]) == 3

    def test_unknown_subcommand_rejected(self, cfg_file):
        assert main(["frobnicate", "--config", str(cfg_file)]) == 1

    @pytest.mark.parametrize("subcommand, text", [
        ("converge", MINIMAL.replace("n = 8", "n = 2, 4\nshift = diag:1,-1")),
        ("dyson", DYSON.replace("kind = brownian", "kind = fbm\nhurst = 0.75"))],
        ids=["converge-shift-count", "dyson-fbm"])
    def test_failed_input_check_makes_no_output_directory(self, tmp_path, subcommand, text):
        p = tmp_path / "bad.cfg"
        p.write_text(text)
        out = tmp_path / "o"
        proc = run_cli([subcommand, "--config", str(p), "--out", str(out)])
        assert proc.returncode == 1
        assert proc.stderr.startswith("eigenflow: configuration error:")
        assert not out.exists()

    def test_lapack_failure_maps_to_exit_2(self, cfg_file, tmp_path, monkeypatch, capsys):
        def fails(*args, **kwargs):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(np.linalg, "eigvalsh", fails)
        out = tmp_path / "run"
        assert main(["converge", "--config", str(cfg_file), "--out", str(out)]) == 2
        assert "numerical failure" in capsys.readouterr().err
        assert list(tmp_path.rglob("*.csv")) == []

    def test_numerical_failure_maps_to_exit_2(self, cfg_file, monkeypatch):
        from eigenflow import cli
        from eigenflow.sampling import FactorizationError

        def boom(*args, **kwargs):
            raise FactorizationError("could not factor the Gram matrix")

        monkeypatch.setattr(cli, "run", boom)
        assert main(["converge", "--config", str(cfg_file)]) == 2


class TestShiftBuiltOnce:
    @pytest.mark.parametrize("subcommand, n, shift, calls", [
        ("dyson", "2", "diag:1,-1", [2]), ("converge", "4, 8", "zero", [4, 8])])
    def test_make_shift_runs_once_per_n(self, tmp_path, monkeypatch, subcommand, n, shift,
                                        calls):
        from eigenflow.matrixflow import make_shift
        seen = []

        def counting(spec, n, *root):
            seen.append(n)
            return make_shift(spec, n, *root)

        # every module that bound the name, so a call from any layer counts
        for name, module in list(sys.modules.items()):
            if name.startswith("eigenflow") and hasattr(module, "make_shift"):
                monkeypatch.setattr(module, "make_shift", counting)
        p = tmp_path / "exp.cfg"
        p.write_text(config_for(subcommand).replace("n = 8", f"n = {n}\nshift = {shift}"))
        assert main([subcommand, "--config", str(p), "--out", str(tmp_path / "o")]) == 0
        assert seen == calls


class TestSamplerBuiltOnce:
    @pytest.mark.parametrize("method", ["cholesky", "circulant"])
    @pytest.mark.parametrize("subcommand", ["converge", "residual", "collisions"])
    def test_one_factor_per_run(self, tmp_path, monkeypatch, subcommand, method):
        from eigenflow import budget, diagnostics, sampling
        calls = {"factor_grid": 0, "circulant_sqrt_spectrum": 0}

        def counting(name):
            original = getattr(sampling, name)

            def counted(*args):
                calls[name] += 1
                return original(*args)
            return counted

        # every module that bound a name, so a call from any layer counts
        for name in calls:
            wrapper = counting(name)
            for module_name, module in list(sys.modules.items()):
                if module_name.startswith("eigenflow") and hasattr(module, name):
                    monkeypatch.setattr(module, name, wrapper)
        monkeypatch.setattr(budget, "TILE_BYTES", 1)  # one path per task
        tasks = record_tasks(monkeypatch, diagnostics, "sample_triangle", 3)
        p = tmp_path / "exp.cfg"
        p.write_text(FBM.replace("n = 8", "n = 4, 8")
                     .replace("seed = 11", f"seed = 11\nmethod = {method}"))
        assert main([subcommand, "--config", str(p), "--out", str(tmp_path / "o")]) == 0
        assert tasks == [1] * 6
        assert calls == {"factor_grid": int(method == "cholesky"),
                         "circulant_sqrt_spectrum": int(method == "circulant")}

    @pytest.mark.parametrize("subcommand", ["holder", "dyson"])
    def test_one_factor_for_an_experiment_grid(self, tmp_path, monkeypatch, subcommand):
        # holder samples on {0, t_base, t_base + separations} and dyson at t_max
        # alone, for both of its dt values; the runner factors that grid once
        from eigenflow import budget, diagnostics, sampling
        calls = []
        factor_grid = sampling.factor_grid
        monkeypatch.setattr(sampling, "factor_grid",
                            lambda *args: calls.append(args) or factor_grid(*args))
        monkeypatch.setattr(budget, "TILE_BYTES", 1)  # one path per task
        monkeypatch.setattr(budget, "CHUNK_BYTES", 1)  # one path per dyson SDE chunk
        tasks = record_tasks(monkeypatch, diagnostics, "sample_triangle", 3)
        sde_tasks = record_tasks(monkeypatch, diagnostics, "_sde_paths", 4)
        p = tmp_path / "exp.cfg"
        p.write_text(config_for(subcommand))
        assert main([subcommand, "--config", str(p), "--out", str(tmp_path / "o")]) == 0
        assert len(calls) == 1
        assert tasks == [1] * 6
        assert sde_tasks == ([1] * 6 if subcommand == "dyson" else [])


class TestEnvOverride:
    def test_env_var_sets_output_dir(self, cfg_file, tmp_path, monkeypatch):
        target = tmp_path / "env_out"
        monkeypatch.setenv("EIGENFLOW_OUT", str(target))
        assert main(["collisions", "--config", str(cfg_file)]) == 0
        assert (target / "collisions_n8.csv").exists()

    def test_cli_out_beats_env(self, cfg_file, tmp_path, monkeypatch):
        monkeypatch.setenv("EIGENFLOW_OUT", str(tmp_path / "env_out"))
        explicit = tmp_path / "explicit"
        main(["collisions", "--config", str(cfg_file), "--out", str(explicit)])
        assert (explicit / "collisions_n8.csv").exists()
        assert not (tmp_path / "env_out").exists()


@pytest.fixture
def blas_control():
    """(path, setter, getter) of the process's OpenBLAS; the caller's count
    is put back after the test."""
    from eigenflow.eigensolvers import _openblas_controls
    controls = _openblas_controls()
    if not controls:
        pytest.skip("no OpenBLAS thread control in this process")
    _, setter, getter = controls[0]
    before = getter()
    yield controls[0]
    setter(before)


class TestBlasThreads:
    def test_pool_tasks_run_with_one_blas_thread(self, tmp_path, monkeypatch, blas_control):
        import threading
        from eigenflow import budget, eigensolvers
        _, setter, getter = blas_control
        setter(2)
        seen = []
        eigvalsh_stack = eigensolvers.eigvalsh_stack

        def recording(matrices):
            seen.append((threading.current_thread() is threading.main_thread(), getter()))
            return eigvalsh_stack(matrices)

        monkeypatch.setattr(eigensolvers, "eigvalsh_stack", recording)
        monkeypatch.setattr(budget, "TILE_BYTES", 1)  # one path per pool task
        p = tmp_path / "exp.cfg"
        p.write_text(MINIMAL)
        assert main(["collisions", "--config", str(p), "--out", str(tmp_path / "o"),
                     "--threads", "2"]) == 0
        # six pool tasks of one path each, one eigvalsh call apiece
        assert len(seen) == 6 and not any(main_thread for main_thread, _ in seen)
        assert [count for _, count in seen] == [1] * 6
        manifest = json.loads((tmp_path / "o" / "run_manifest.json").read_text())
        assert manifest["blas_threads"] == 1

    @pytest.mark.parametrize("fails", [False, True], ids=["passes", "raises"])
    def test_run_puts_the_callers_count_back(self, tmp_path, monkeypatch, blas_control, fails):
        from eigenflow import eigensolvers
        from eigenflow.config import parse_config
        from eigenflow.runner import run
        _, setter, getter = blas_control
        setter(2)
        if getter() != 2:
            pytest.skip("this OpenBLAS cannot run two threads")
        if fails:
            def failing(matrices):
                raise np.linalg.LinAlgError("Eigenvalues did not converge")
            monkeypatch.setattr(eigensolvers, "eigvalsh_stack", failing)
        with pytest.raises(np.linalg.LinAlgError) if fails else contextlib.nullcontext():
            run(parse_config(MINIMAL), "collisions", out_dir=str(tmp_path / "o"), threads=2)
        assert getter() == 2


class TestLogLevel:
    def test_info_prints_the_blas_line_and_keeps_every_csv_byte(self, tmp_path):
        p = tmp_path / "exp.cfg"
        p.write_text(MINIMAL)
        args = ["collisions", "--config", str(p), "--out", str(tmp_path / "o")]
        csv_path = tmp_path / "o" / "collisions_n8.csv"
        quiet = run_cli(args)
        quiet_bytes = csv_path.read_bytes()
        loud = run_cli(args + ["--log-level", "info"])
        assert quiet.returncode == loud.returncode == 0
        assert quiet.stderr == ""
        (line,) = [ln for ln in loud.stderr.splitlines() if "BLAS" in ln]
        assert line.startswith("eigenflow.runner: INFO: ")
        assert csv_path.read_bytes() == quiet_bytes

    def test_jitter_notice_is_logged_once_per_run(self, tmp_path):
        # a holder grid with separations of 1e-12 and 1e-10 factors only
        # with jitter; three paths at one path per tile make three pool tasks
        p = tmp_path / "exp.cfg"
        p.write_text(FBM.replace("n = 8", "n = 4").replace(
            "m = 6", "m = 3\nseparations = 1e-12, 1e-10"))
        code = ("import sys; from eigenflow import budget, cli, diagnostics\n"
                "budget.TILE_BYTES = 1\n"
                "draw = diagnostics.sample_triangle\n"
                "def task(*args):\n"
                "    print('task of', len(args[3]), 'paths', file=sys.stderr)\n"
                "    return draw(*args)\n"
                "diagnostics.sample_triangle = task\n"
                "sys.exit(cli.main(sys.argv[1:]))")
        src = str(Path(eigenflow.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p))
        proc = subprocess.run([sys.executable, "-c", code, "holder", "--config", str(p),
                               "--out", str(tmp_path / "o"), "--log-level", "INFO"],
                              env=env, capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stderr.count("task of 1 paths") == 3
        assert proc.stderr.count("gram factorization used jitter") == 1

    def test_unknown_level_is_config_error(self, tmp_path):
        p = tmp_path / "exp.cfg"
        p.write_text(MINIMAL)
        proc = run_cli(["collisions", "--config", str(p), "--out", str(tmp_path / "o"),
                        "--log-level", "bogus"])
        assert proc.returncode == 1
        assert not (tmp_path / "o").exists()
