"""Command line interface tests: exit codes, output files, round trips."""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import qgalton
from qgalton.cli import (
    EXIT_CONFIG,
    EXIT_DECODE,
    EXIT_OK,
    EXIT_RESOURCE,
    main,
)
from qgalton.detector import DetectionRecords
from qgalton.readout import LineConfig, encode
from qgalton.walk import bin_probabilities


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    report = json.loads(out.out) if out.out else None
    return code, report, out.err


class TestSimulateWalk:
    def test_default_is_sixteen_bins(self, capsys):
        code, rep, _ = run_cli(capsys, "simulate-walk")
        assert code == EXIT_OK
        assert rep["n_bins"] == 16
        assert rep["t_squared"] == pytest.approx(0.763, abs=1e-12)
        assert sum(rep["probabilities"]) == pytest.approx(1.0, abs=1e-12)

    def test_oracle_check(self, capsys):
        code, rep, _ = run_cli(capsys, "simulate-walk", "--stages", "6",
                               "--t-squared", "0.42", "--check-oracle")
        assert code == EXIT_OK
        assert rep["oracle_max_abs_diff"] < 1e-12

    def test_matches_library(self, capsys):
        _, rep, _ = run_cli(capsys, "simulate-walk", "--stages", "5",
                            "--t-squared", "0.3", "--input-port", "right")
        expect = bin_probabilities(5, 0.3, "right")
        np.testing.assert_allclose(rep["probabilities"], expect, atol=1e-14)

    def test_conflicting_settings_exit_config(self, capsys):
        code, _, err = run_cli(capsys, "simulate-walk", "--t-squared", "0.5",
                               "--wavelength-nm", "1550")
        assert code == EXIT_CONFIG
        assert "not both" in err

    def test_oracle_size_limit_exit_resource(self, capsys):
        code, _, err = run_cli(capsys, "simulate-walk", "--stages", "25",
                               "--check-oracle")
        assert code == EXIT_RESOURCE
        assert err.startswith("error:")

    def test_out_of_range_t2_exit_config(self, capsys):
        code, _, _ = run_cli(capsys, "simulate-walk", "--t-squared", "1.5")
        assert code == EXIT_CONFIG


class TestRun:
    def config(self, tmp_path, **kw):
        data = {"windows": 300, "n_bootstrap": 10}
        data.update(kw)
        p = tmp_path / "config.json"
        p.write_text(json.dumps(data))
        return str(p)

    def test_counting_smoke(self, tmp_path, capsys):
        code, rep, _ = run_cli(capsys, "run", "counting",
                               "--config", self.config(tmp_path))
        assert code == EXIT_OK
        assert rep["experiment"] == "counting"
        assert rep["config"]["windows"] == 300

    def test_out_dir_json(self, tmp_path, capsys):
        out = tmp_path / "results"
        code, rep, _ = run_cli(capsys, "run", "counting",
                               "--config", self.config(tmp_path),
                               "--out", str(out))
        assert code == EXIT_OK
        on_disk = (out / "report.json").read_text()
        assert json.loads(on_disk) == rep
        assert list(p.name for p in out.iterdir()) == ["report.json"]

    def test_out_dir_csv_tables(self, tmp_path, capsys):
        out = tmp_path / "results"
        code, _, _ = run_cli(capsys, "run", "counting",
                             "--config", self.config(tmp_path),
                             "--out", str(out), "--format", "csv")
        assert code == EXIT_OK
        names = sorted(p.name for p in out.iterdir())
        assert names == ["count_histogram.csv", "events.csv",
                         "report.json", "window_counts.csv"]
        header = (out / "window_counts.csv").read_text().splitlines()[0]
        assert header == "window_index,decoded_count,truth_count"

    def test_seed_flag_overrides_config(self, tmp_path, capsys):
        cfg = self.config(tmp_path, seed=7)
        _, rep_a, _ = run_cli(capsys, "run", "counting", "--config", cfg,
                              "--seed", "1")
        assert rep_a["config"]["seed"] == 1
        _, rep_b, _ = run_cli(capsys, "run", "counting", "--config", cfg)
        assert rep_b["config"]["seed"] == 7
        assert rep_a["count_histogram"] != rep_b["count_histogram"]

    def test_repeat_run_byte_identical(self, tmp_path, capsys):
        cfg = self.config(tmp_path)
        texts = []
        for d in ("o1", "o2"):
            run_cli(capsys, "run", "intervals", "--config", cfg,
                    "--out", str(tmp_path / d))
            texts.append((tmp_path / d / "report.json").read_bytes())
        assert texts[0] == texts[1]

    def test_unknown_config_key_exit_config(self, tmp_path, capsys):
        code, _, err = run_cli(capsys, "run", "counting",
                               "--config", self.config(tmp_path, windoes=1))
        assert code == EXIT_CONFIG
        assert "windoes" in err

    @pytest.mark.parametrize("field, value", [
        ("windows", 10.5), ("stages", "8"), ("windows", "100"),
        ("n_bootstrap", 1e9), ("windows", True), ("efficiency", False),
        ("min_cluster", 2.0), ("trigger_polarity", 1),
    ])
    def test_wrong_typed_field_exit_config(self, tmp_path, capsys, field,
                                           value):
        # an uncaught TypeError would escape main() and fail this test
        code, _, err = run_cli(capsys, "run", "interference", "--config",
                               self.config(tmp_path, **{field: value}))
        assert code == EXIT_CONFIG
        assert field in err
        assert "Traceback" not in err

    def test_missing_config_file_exit_config(self, capsys):
        code, _, _ = run_cli(capsys, "run", "counting",
                             "--config", "/nonexistent/config.json")
        assert code == EXIT_CONFIG

    def test_malformed_json_exit_config(self, tmp_path, capsys):
        p = tmp_path / "bad.json"
        p.write_text("{oops")
        code, _, _ = run_cli(capsys, "run", "counting", "--config", str(p))
        assert code == EXIT_CONFIG

    def test_defaults_without_config(self, tmp_path, capsys):
        # no --config runs the experiment defaults; persistence at modest
        # size through the seed override only
        cfg = self.config(tmp_path, t_squared=0.5)
        code, rep, _ = run_cli(capsys, "run", "persistence",
                               "--config", cfg, "--seed", "3")
        assert code == EXIT_OK
        assert rep["config"]["t_squared"] == 0.5


class TestFitCommands:
    def test_fit_t2_recovers_model(self, tmp_path, capsys):
        probs = bin_probabilities(8, 0.763)
        counts = np.round(probs * 2_000_000).astype(int)
        p = tmp_path / "hist.json"
        p.write_text(json.dumps(counts.tolist()))
        code, rep, _ = run_cli(capsys, "fit-t2", "--input", str(p),
                               "--bootstrap", "20")
        assert code == EXIT_OK
        assert rep["fit"]["estimate"] == pytest.approx(0.763, abs=1e-3)

    def test_fit_t2_plain_text_input(self, tmp_path, capsys):
        probs = bin_probabilities(8, 0.5)
        counts = np.round(probs * 1_000_000).astype(int)
        p = tmp_path / "hist.txt"
        p.write_text(" ".join(str(c) for c in counts))
        code, rep, _ = run_cli(capsys, "fit-t2", "--input", str(p),
                               "--bootstrap", "20")
        assert code == EXIT_OK
        assert rep["fit"]["estimate"] == pytest.approx(0.5, abs=1e-3)

    def test_fit_t2_rejects_fractional_counts(self, tmp_path, capsys):
        p = tmp_path / "hist.json"
        p.write_text("[1.5, 2, 3, 4]")
        code, _, err = run_cli(capsys, "fit-t2", "--input", str(p))
        assert code == EXIT_CONFIG
        assert "integer" in err

    def test_fit_t2_too_many_bins_exit_resource(self, tmp_path, capsys):
        # 142 bins imply 71 stages, past the int64 path-count limit
        p = tmp_path / "hist.json"
        p.write_text(json.dumps([1] * 142))
        code, rep, err = run_cli(capsys, "fit-t2", "--input", str(p))
        assert code == EXIT_RESOURCE
        assert rep is None
        assert "stages=71" in err

    def test_fit_poisson(self, tmp_path, capsys):
        rng = np.random.default_rng(0)
        counts = rng.poisson(4.0, size=3000)
        p = tmp_path / "counts.txt"
        p.write_text(",".join(str(c) for c in counts))
        code, rep, _ = run_cli(capsys, "fit-poisson", "--input", str(p),
                               "--bootstrap", "20")
        assert code == EXIT_OK
        assert rep["fit"]["estimate"] == pytest.approx(4.0, abs=0.15)

    def test_fit_exponential(self, tmp_path, capsys):
        rng = np.random.default_rng(1)
        gaps = rng.exponential(500.0, size=4000)
        p = tmp_path / "gaps.json"
        p.write_text(json.dumps(gaps.tolist()))
        code, rep, _ = run_cli(capsys, "fit-exponential", "--input", str(p),
                               "--bootstrap", "20")
        assert code == EXIT_OK
        assert rep["fit"]["estimate"] == pytest.approx(500.0, rel=0.05)

    def test_fit_input_missing_exit_config(self, capsys):
        code, _, _ = run_cli(capsys, "fit-poisson", "--input", "/no/file")
        assert code == EXIT_CONFIG


class TestDecodeTrace:
    def write_trace(self, tmp_path, pixels, times):
        records = DetectionRecords(
            pixels=np.asarray(pixels, dtype=np.int64),
            times=np.asarray(times, dtype=float),
            is_dark=np.zeros(len(pixels), dtype=bool),
        )
        trace = encode(records, LineConfig())
        p = tmp_path / "trace.csv"
        lines = ["time_ns,amplitude"]
        lines += [f"{repr(float(t * 1e9))},{repr(float(a))}"
                  for t, a in zip(trace.times, trace.amplitudes)]
        p.write_text("\n".join(lines) + "\n")
        return str(p)

    def test_round_trip(self, tmp_path, capsys):
        path = self.write_trace(tmp_path, [0, 5, 15],
                                [0.0, 100e-9, 250e-9])
        code, rep, _ = run_cli(capsys, "decode-trace", "--input", path)
        assert code == EXIT_OK
        assert rep["n_pulses"] == 6
        assert rep["n_ok"] == 3
        got = sorted((e["pixel"], e["origin_time_ns"]) for e in rep["events"])
        assert [g[0] for g in got] == [0, 5, 15]
        np.testing.assert_allclose([g[1] for g in got], [0.0, 100.0, 250.0],
                                   atol=1e-3)

    def test_csv_output(self, tmp_path, capsys):
        path = self.write_trace(tmp_path, [3], [10e-9])
        out = tmp_path / "dec"
        code, _, _ = run_cli(capsys, "decode-trace", "--input", path,
                             "--out", str(out), "--format", "csv")
        assert code == EXIT_OK
        text = (out / "events.csv").read_text().splitlines()
        assert text[0] == "pixel,origin_time_ns,flag"
        assert text[1].startswith("3,")

    def test_garbage_trace_exit_decode(self, tmp_path, capsys):
        p = tmp_path / "bad.csv"
        p.write_text("time_ns,amplitude\nnot,a,number\n")
        code, _, err = run_cli(capsys, "decode-trace", "--input", str(p))
        assert code == EXIT_DECODE
        assert err.startswith("error:")

    def test_empty_trace_exit_decode(self, tmp_path, capsys):
        p = tmp_path / "empty.csv"
        p.write_text("time_ns,amplitude\n")
        code, _, _ = run_cli(capsys, "decode-trace", "--input", str(p))
        assert code == EXIT_DECODE

    def test_unpairable_pulses_exit_decode(self, tmp_path, capsys):
        # two negative pulses with no positive partners anywhere
        p = tmp_path / "orphans.csv"
        p.write_text("0.0,-1.0\n500.0,-0.5\n")
        code, _, _ = run_cli(capsys, "decode-trace", "--input", str(p))
        assert code == EXIT_DECODE

    def test_missing_file_exit_decode_is_config(self, capsys):
        # unreadable input is a configuration problem, not a decode failure
        code, _, _ = run_cli(capsys, "decode-trace", "--input", "/no/trace")
        assert code == EXIT_CONFIG


class TestConsoleScript:
    """The `qgalton` console script declared in pyproject.toml."""

    ARGV = ["simulate-walk", "--stages", "2", "--t-squared", "0.5"]

    def check_report(self, proc):
        assert proc.returncode == 0, proc.stderr
        rep = json.loads(proc.stdout)
        np.testing.assert_allclose(
            rep["probabilities"], [0.25, 0.25, 0.25, 0.25], atol=1e-14)

    def test_entry_point_runs(self, tmp_path):
        # Run the declared target the way the generated wrapper does, in a
        # fresh interpreter that imports the same source as this suite.
        tomllib = pytest.importorskip("tomllib")
        pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
        with pyproject.open("rb") as fh:
            target = tomllib.load(fh)["project"]["scripts"]["qgalton"]
        module, attr = target.split(":")
        code = (f"import sys; from {module} import {attr}; "
                f"sys.exit({attr}())")
        src = str(Path(qgalton.__file__).resolve().parents[1])
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [src, env.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-c", code, *self.ARGV],
            capture_output=True, text=True, check=False, cwd=tmp_path,
            env=env,
        )
        self.check_report(proc)

    @pytest.mark.skipif(shutil.which("qgalton") is None,
                        reason="qgalton console script not installed")
    def test_installed_script_runs(self):
        proc = subprocess.run(
            ["qgalton", *self.ARGV],
            capture_output=True, text=True, check=False,
        )
        self.check_report(proc)
