"""Command line interface tests: exit codes, output files, round trips."""

import contextlib
import hashlib
import io
import json
import os
import shutil
import subprocess
import sys
import tempfile
import textwrap
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import qgalton
from qgalton.cli import (
    EXIT_CONFIG,
    EXIT_DECODE,
    EXIT_OK,
    EXIT_RESOURCE,
    main,
)
from qgalton.detector import DetectionRecords
from qgalton.experiments import EXPERIMENTS, MAX_WINDOWS
from qgalton.readout import LineConfig, encode
from qgalton.stats import MAX_BOOTSTRAP_CELLS, T2_GRID_POINTS
from qgalton.walk import bin_probabilities


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    report = json.loads(out.out) if out.out else None
    return code, report, out.err


def csv_sha256(out_dir):
    """sha256 of every CSV in a directory, by file name."""
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(Path(out_dir).glob("*.csv"))}


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

    def test_out_of_choice_input_port_exit_config(self, capsys):
        code, rep, err = run_cli(capsys, "simulate-walk", "--input-port",
                                 "mid")
        assert code == EXIT_CONFIG
        assert rep is None
        assert err == ("error: input_port must be 'left' or 'right', "
                       "got 'mid'\n")

    def test_nan_t2_exit_config(self, capsys):
        code, rep, err = run_cli(capsys, "simulate-walk", "--t-squared", "nan")
        assert code == EXIT_CONFIG
        assert rep is None
        assert "t_squared" in err

    def test_stage_limit_exit_resource(self, capsys):
        code, rep, err = run_cli(capsys, "simulate-walk", "--stages", "63")
        assert code == EXIT_RESOURCE
        assert rep is None
        assert "stages=63" in err and "stages <= 62" in err

    def test_largest_mesh_is_normalized(self, capsys):
        code, rep, _ = run_cli(capsys, "simulate-walk", "--stages", "62")
        assert code == EXIT_OK
        assert rep["n_bins"] == 124
        assert sum(rep["probabilities"]) == pytest.approx(1.0, abs=1e-12)

    def test_csv_bytes_unchanged(self, tmp_path, capsys):
        # pinned from the per-row table builder
        code, _, _ = run_cli(capsys, "simulate-walk", "--out", str(tmp_path),
                             "--format", "csv")
        assert code == EXIT_OK
        assert csv_sha256(tmp_path) == {"distribution.csv": (
            "84191fb3d249a547ddf5cee178dd3f71a6c4fba90d9516b34bf4672d3a7b2754")}


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

    @pytest.mark.parametrize("out", [None, "results"])
    def test_report_rendered_once(self, tmp_path, capsys, monkeypatch, out):
        # with --out, stdout carries report.json's text, not a second render
        import qgalton.cli
        import qgalton.experiments

        calls = []

        def counted(report):
            calls.append(report)
            return real(report)

        real = qgalton.experiments.render_report
        for module in (qgalton.cli, qgalton.experiments):
            monkeypatch.setattr(module, "render_report", counted)
        argv = ["run", "counting", "--config", self.config(tmp_path)]
        if out:
            argv += ["--out", str(tmp_path / out), "--format", "csv"]
        assert main(argv) == EXIT_OK
        text = capsys.readouterr().out
        assert len(calls) == 1
        assert text == real(calls[0])
        if out:
            assert (tmp_path / out / "report.json").read_text() == text

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

    @pytest.mark.parametrize("experiment, seed", [
        ("interference", 2**64), ("persistence", -1), ("counting", -1),
    ])
    def test_seed_out_of_range_exit_config(self, tmp_path, capsys,
                                           experiment, seed):
        # numpy would raise OverflowError for 2**64 and wrap -1 silently
        for in_file in (True, False):
            args = (["--config", self.config(tmp_path, seed=seed)] if in_file
                    else ["--config", self.config(tmp_path), "--seed", str(seed)])
            code, _, err = run_cli(capsys, "run", experiment, *args)
            assert code == EXIT_CONFIG
            assert "seed" in err

    def test_largest_mesh_runs(self, tmp_path, capsys):
        code, rep, _ = run_cli(capsys, "run", "interference", "--config",
                               self.config(tmp_path, stages=62,
                                           pixel_count=124))
        assert code == EXIT_OK
        assert len(rep["decoded_histogram"]) == 124
        assert sum(rep["model_at_reference"]) == pytest.approx(1.0, abs=1e-12)

    def test_largest_seed_runs(self, tmp_path, capsys):
        code, rep, _ = run_cli(capsys, "run", "counting", "--config",
                               self.config(tmp_path), "--seed", str(2**64 - 1))
        assert code == EXIT_OK
        assert rep["config"]["seed"] == 2**64 - 1

    @pytest.mark.parametrize("experiment, field, value", [
        ("persistence", "min_cluster", -3), ("persistence", "min_cluster", 0),
        ("persistence", "bin_width_ns", 0), ("counting", "bin_width_ns", 0),
        ("persistence", "bin_width_ns", -0.1),
        ("interference", "t_squared", float("nan")),
        ("counting", "dead_time_ns", float("nan")),
        ("counting", "dead_time_ns", float("inf")),
        ("counting", "jitter_sigma_ns", float("nan")),
        ("counting", "dark_count_rate_hz", float("nan")),
        # JSON integers too large for a float
        pytest.param("counting", "window_ns", 10**400, id="window_ns-401-digits"),
        pytest.param("counting", "mean_photon_number", 10**400,
                     id="mean_photon_number-401-digits"),
    ])
    def test_out_of_range_field_exit_config(self, tmp_path, capsys,
                                            experiment, field, value):
        code, _, err = run_cli(capsys, "run", experiment, "--config",
                               self.config(tmp_path, **{field: value}))
        assert code == EXIT_CONFIG
        assert field in err

    @pytest.mark.parametrize("field, value", [
        ("windows", 10**12), ("mean_photon_number", 1e12),
        ("dark_count_rate_hz", 1e15), ("n_bootstrap", 10**9),
    ])
    def test_oversized_request_exit_resource(self, tmp_path, capsys, field,
                                             value):
        # refused while the config is checked, before any array is built
        code, rep, err = run_cli(capsys, "run", "counting", "--config",
                                 self.config(tmp_path, **{field: value}))
        assert code == EXIT_RESOURCE
        assert rep is None
        assert field in err and "limit" in err

    def test_dense_pair_walk_exit_resource(self, tmp_path, capsys):
        # a valid config whose 4,000 clicks all fall within one line reach:
        # decode would test about 1.6e7 pairs, and refuses the count
        # before building any
        start = time.perf_counter()
        code, rep, err = run_cli(capsys, "run", "counting", "--config",
                                 self.config(tmp_path, windows=2,
                                             window_ns=1.0, dead_time_ns=0.0,
                                             mean_photon_number=2000.0))
        assert time.perf_counter() - start < 1.0
        assert code == EXIT_RESOURCE
        assert rep is None
        assert "pairs" in err and "limit is 8388608" in err

    @pytest.mark.parametrize("experiment, overrides, reason", [
        ("counting", {"windows": 10}, "pooled categories"),
        ("interference", {"windows": 10}, "pooled categories"),
        ("interference", {"efficiency": 0.0}, "empty histogram"),
        ("intervals", {"mean_photon_number": 0.0}, "two inter-arrival gaps"),
    ])
    def test_too_few_events_for_statistics_exit_config(
            self, tmp_path, capsys, experiment, overrides, reason):
        # the config is valid, but the run leaves the fits or the
        # chi-square test too little to work on
        code, rep, err = run_cli(capsys, "run", experiment, "--config",
                                 self.config(tmp_path, **overrides))
        assert code == EXIT_CONFIG
        assert rep is None
        assert reason in err
        assert "windows" in err and "Traceback" not in err
        for field in overrides:
            assert field in err

    @pytest.mark.parametrize("experiment, windows", [
        ("intervals", 10), ("persistence", 10), ("interference", 20),
        ("counting", 20), ("intervals", 20), ("persistence", 20),
    ])
    def test_small_runs_exit_ok(self, tmp_path, capsys, experiment, windows):
        code, rep, _ = run_cli(capsys, "run", experiment, "--config",
                               self.config(tmp_path, windows=windows))
        assert code == EXIT_OK
        assert rep["config"]["windows"] == windows

    # sha256 of every CSV written for the export config (intervals,
    # efficiency 0.8, dark counts 2e4 Hz) at seed 1, events.csv as the
    # per-row builder of reference_impl writes it; the full 10,000 windows
    # include orphan and out-of-range rows
    EXPORT_CSV_SHA256 = {
        300: {
            "events.csv": "1c8884dda8c5fdd7f6531b43e5a0a000f543ca10cc0d5f5ed74fcd2bf9455a1d",
            "gap_histogram.csv": "9c0080ea1832e928e344d8d13fe368bb77cd1b9666eee3bf65bc2bad6f67506a",
        },
        10_000: {
            "events.csv": "704c22ed8f3d6f22bf6d2edb8ea251015b22c44b494c4286fb1d52e3ccc12747",
            "gap_histogram.csv": "958585f5075f942888bdccfaeca1c5d2a9f494bf09ea27d3d28c13384ad4eb0e",
        },
    }

    @pytest.mark.parametrize("windows", sorted(EXPORT_CSV_SHA256))
    def test_export_csv_bytes_unchanged(self, tmp_path, capsys, windows):
        cfg = self.config(tmp_path, windows=windows, efficiency=0.8,
                          dark_count_rate_hz=2e4)
        out = tmp_path / "results"
        code, _, _ = run_cli(capsys, "run", "intervals", "--config", cfg,
                             "--seed", "1", "--out", str(out),
                             "--format", "csv")
        assert code == EXIT_OK
        assert csv_sha256(out) == self.EXPORT_CSV_SHA256[windows]

    def test_missing_config_file_exit_config(self, capsys):
        code, _, _ = run_cli(capsys, "run", "counting",
                             "--config", "/nonexistent/config.json")
        assert code == EXIT_CONFIG

    def test_malformed_json_exit_config(self, tmp_path, capsys):
        p = tmp_path / "bad.json"
        p.write_text("{oops")
        code, _, err = run_cli(capsys, "run", "counting", "--config", str(p))
        assert code == EXIT_CONFIG
        assert f"{p}: config is not valid JSON: Expecting property name" in err

    def test_config_not_an_object_names_file(self, tmp_path, capsys):
        p = tmp_path / "config.json"
        p.write_text("[1, 2]")
        code, rep, err = run_cli(capsys, "run", "counting", "--config", str(p))
        assert code == EXIT_CONFIG
        assert rep is None
        assert f"{p}: config file must hold a JSON object" in err

    def test_config_not_utf8_names_file(self, tmp_path, capsys):
        p = tmp_path / "config.json"
        p.write_bytes(b'{"seed": 1}\xff')
        code, rep, err = run_cli(capsys, "run", "counting", "--config", str(p))
        assert code == EXIT_CONFIG
        assert rep is None
        assert f"{p}: 'utf-8' codec can't decode byte 0xff" in err

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

    @pytest.mark.parametrize("command", ["fit-t2", "fit-poisson",
                                         "fit-exponential"])
    def test_fit_text_parse_error_names_file_and_item(self, tmp_path,
                                                      capsys, command):
        p = tmp_path / "bad.txt"
        p.write_text("1 2 x")
        code, rep, err = run_cli(capsys, command, "--input", str(p))
        assert code == EXIT_CONFIG
        assert rep is None
        assert f"{p}: item 3, 'x', is not a number" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("command", ["fit-t2", "fit-poisson",
                                         "fit-exponential"])
    def test_fit_json_parse_error_names_file_and_place(self, tmp_path,
                                                       capsys, command):
        p = tmp_path / "bad.json"
        p.write_text("[1, 2, x]")
        code, rep, err = run_cli(capsys, command, "--input", str(p))
        assert code == EXIT_CONFIG
        assert rep is None
        assert f"{p}: Expecting value: line 1 column 8 (char 7)" in err
        assert "Traceback" not in err

    def test_fit_t2_rejects_fractional_counts(self, tmp_path, capsys):
        p = tmp_path / "hist.json"
        p.write_text("[1.5, 2, 3, 4]")
        code, _, err = run_cli(capsys, "fit-t2", "--input", str(p))
        assert code == EXIT_CONFIG
        assert "integer" in err

    @pytest.mark.parametrize("counts", [[2**62] * 4 + [3, 7], [2**62] * 2])
    def test_fit_t2_total_past_int64_exit_config(self, tmp_path, capsys,
                                                 counts):
        # JSON integers are read as floats; powers of two stay exact
        p = tmp_path / "hist.json"
        p.write_text(json.dumps(counts))
        code, rep, err = run_cli(capsys, "fit-t2", "--input", str(p),
                                 "--bootstrap", "10")
        assert code == EXIT_CONFIG
        assert rep is None
        assert "histogram counts sum to" in err
        assert "Traceback" not in err

    def test_fit_t2_too_many_bins_exit_resource(self, tmp_path, capsys):
        # 142 bins imply 71 stages, past the 62-stage walk limit
        p = tmp_path / "hist.json"
        p.write_text(json.dumps([1] * 142))
        code, rep, err = run_cli(capsys, "fit-t2", "--input", str(p))
        assert code == EXIT_RESOURCE
        assert rep is None
        assert "stages=71" in err

    def test_fit_oversized_bootstrap_exit_resource(self, tmp_path, capsys):
        p = tmp_path / "counts.json"
        p.write_text(json.dumps([3, 4, 5, 4]))
        code, rep, err = run_cli(capsys, "fit-poisson", "--input", str(p),
                                 "--bootstrap", str(10**9))
        assert code == EXIT_RESOURCE
        assert rep is None
        assert "n_bootstrap" in err
        assert "largest count" not in err  # a smaller bootstrap fits

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

    @staticmethod
    def fresh_cli(tmp_path, *argv):
        """Run the CLI in a fresh interpreter, whose stderr shows any numpy
        warning."""
        src = str(Path(qgalton.__file__).resolve().parents[1])
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [src, env.get("PYTHONPATH")]))
        return subprocess.run(
            [sys.executable, "-m", "qgalton.cli", *argv],
            capture_output=True, text=True, check=False, cwd=tmp_path,
            env=env, timeout=120,
        )

    def test_fit_exponential_huge_gaps_exit_config(self, tmp_path):
        # the sum of the gaps overflows but their mean, 1e308, does not; it
        # is refused as past the fit's top edge, without a numpy warning
        p = tmp_path / "gaps.json"
        p.write_text("[1e308, 1e308]")
        proc = self.fresh_cli(tmp_path, "fit-exponential", "--input", str(p))
        assert proc.returncode == EXIT_CONFIG
        assert proc.stdout == ""
        assert proc.stderr.startswith("error: gaps: mean gap 1e+308 lies")
        assert "Warning" not in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_fit_exponential_sum_past_float_max(self, tmp_path):
        # 50 gaps of mean 0.999 * 8.99e306 sum past the float maximum, but
        # their mean lies inside the fitting range, as it does for 20
        mean = 0.999 * float(np.finfo(float).max) / 20.0
        p = tmp_path / "gaps.json"
        p.write_text(json.dumps([0.5 * mean, 1.5 * mean] * 25))
        proc = self.fresh_cli(tmp_path, "fit-exponential", "--input", str(p),
                              "--bootstrap", "20")
        assert proc.returncode == EXIT_OK
        assert proc.stderr == ""
        fit = json.loads(proc.stdout)["fit"]
        assert fit["mle"] == pytest.approx(mean, rel=1e-12)
        assert fit["ci_low"] <= fit["estimate"] <= fit["ci_high"]

    @pytest.mark.parametrize("gaps, code", [
        ("[5e-324, 1e-323]", EXIT_CONFIG),  # subnormal: mean / 20 is not normal
        ("[9e306, 9e306]", EXIT_CONFIG),  # 20 * mean overflows
        ("[1e-306, 2e-306]", EXIT_OK),
        ("[1e306, 3e306]", EXIT_OK),
    ])
    def test_fit_exponential_gap_edges(self, tmp_path, gaps, code):
        p = tmp_path / "gaps.json"
        p.write_text(gaps)
        proc = self.fresh_cli(tmp_path, "fit-exponential", "--input", str(p),
                              "--bootstrap", "20")
        assert proc.returncode == code
        if code == EXIT_CONFIG:
            assert proc.stderr.startswith("error: gaps: mean gap")
        else:
            assert proc.stderr == ""
            fit = json.loads(proc.stdout)["fit"]
            assert fit["ci_low"] <= fit["estimate"] <= fit["ci_high"]
        assert "Warning" not in proc.stderr
        assert "Traceback" not in proc.stderr

    @pytest.mark.parametrize("count", [2**40, 2**62])
    def test_fit_poisson_huge_count_exit_resource(self, tmp_path, capsys,
                                                  count):
        # the kmax + 2 column table is sized before the count histogram
        p = tmp_path / "counts.json"
        p.write_text(json.dumps([count, 3, 4]))
        code, rep, err = run_cli(capsys, "fit-poisson", "--input", str(p))
        assert code == EXIT_RESOURCE
        assert rep is None
        assert err.startswith(f"error: n_bootstrap=500 with {count + 2} "
                              "columns")
        assert f"the largest count, {count}," in err

    def test_fit_poisson_count_alone_too_large_names_it(self, tmp_path,
                                                        capsys):
        # 10, the smallest --bootstrap, times 100000002 columns passes the
        # table limit: the refusal names the count, which is what to change
        p = tmp_path / "c.json"
        p.write_text(json.dumps([100000000, 3]))
        code, rep, err = run_cli(capsys, "fit-poisson", "--input", str(p),
                                 "--bootstrap", "10")
        assert code == EXIT_RESOURCE
        assert rep is None
        assert err == (
            "error: n_bootstrap=10 with 100000002 columns per resample: "
            f"limit is n_bootstrap * columns <= {MAX_BOOTSTRAP_CELLS}; the "
            "largest count, 100000000, passes it at any n_bootstrap >= 10\n")

    @pytest.mark.parametrize("command", ["fit-t2", "fit-poisson"])
    @pytest.mark.parametrize("value", ["1e400", "NaN", "-Infinity", "1e19"])
    def test_non_finite_count_exit_config(self, tmp_path, capsys, command,
                                          value):
        # refused before the integer cast, so no numpy warning reaches stderr
        p = tmp_path / "values.json"
        p.write_text(f"[{value}, 3, 4, 5]")
        code, rep, err = run_cli(capsys, command, "--input", str(p))
        assert code == EXIT_CONFIG
        assert rep is None
        assert err.startswith("error:")
        assert err.count("\n") == 1
        assert "finite integers" in err

    @pytest.mark.parametrize("command", ["fit-t2", "fit-poisson",
                                         "fit-exponential"])
    @pytest.mark.parametrize("value", ['"2"', "true", "[2]"])
    def test_non_number_entry_exit_config(self, tmp_path, capsys, command,
                                          value):
        # a string or a boolean once read as a number, a list as a row
        p = tmp_path / "values.json"
        p.write_text(f"[{value}, 3, 4, 5]")
        code, rep, err = run_cli(capsys, command, "--input", str(p))
        assert code == EXIT_CONFIG
        assert rep is None
        assert f"{p}: expected a flat array of numbers" in err

    @pytest.mark.parametrize("command", ["fit-t2", "fit-poisson",
                                         "fit-exponential"])
    def test_fit_input_not_utf8_names_file(self, tmp_path, capsys, command):
        p = tmp_path / "values.txt"
        p.write_bytes(b"\xff 1 2")
        code, rep, err = run_cli(capsys, command, "--input", str(p))
        assert code == EXIT_CONFIG
        assert rep is None
        assert f"{p}: 'utf-8' codec can't decode byte 0xff" in err

    def test_fit_input_missing_exit_config(self, capsys):
        code, _, _ = run_cli(capsys, "fit-poisson", "--input", "/no/file")
        assert code == EXIT_CONFIG

    @pytest.mark.parametrize("command", ["fit-t2", "fit-poisson",
                                         "fit-exponential"])
    @pytest.mark.parametrize("option, value", [
        ("--seed", "-1"), ("--seed", str(2**64)), ("--bootstrap", "5"),
    ])
    def test_fit_option_out_of_range_exit_config(self, tmp_path, capsys,
                                                 command, option, value):
        # the bounds of a run config's seed and n_bootstrap
        p = tmp_path / "values.json"
        p.write_text(json.dumps([3, 5, 4, 6, 2, 4, 1, 0, 2, 5, 3, 1, 4, 2,
                                 3, 4]))
        code, rep, err = run_cli(capsys, command, "--input", str(p),
                                 option, value)
        assert code == EXIT_CONFIG
        assert rep is None
        assert option in err

    def test_fit_options_checked_in_order_before_input(self, capsys):
        # each option alone exits 2, 2 or 4; the first in order is refused,
        # and the missing input is never read
        code, rep, err = run_cli(capsys, "fit-t2", "--input", "/no/file",
                                 "--bootstrap", str(10**9), "--seed", "-1",
                                 "--input-port", "up")
        assert code == EXIT_CONFIG
        assert rep is None
        assert err == "error: input_port must be 'left' or 'right', got 'up'\n"
        code, _, err = run_cli(capsys, "fit-poisson", "--input", "/no/file",
                               "--bootstrap", str(10**9), "--seed", "-1")
        assert code == EXIT_CONFIG
        assert err.startswith("error: --seed (seed) must be")

    def test_fit_largest_seed_and_least_bootstrap_run(self, tmp_path, capsys):
        p = tmp_path / "counts.json"
        p.write_text(json.dumps([3, 5, 4, 6, 2, 4]))
        code, rep, _ = run_cli(capsys, "fit-poisson", "--input", str(p),
                               "--seed", str(2**64 - 1), "--bootstrap", "10")
        assert code == EXIT_OK
        assert rep["fit"]["n_bootstrap"] == 10


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

    def test_csv_bytes_unchanged(self, tmp_path, capsys):
        # pinned from the per-row table builder; the lone negative pulse
        # decodes as an orphan, whose origin time prints nan
        path = self.write_trace(tmp_path, [0, 5, 15], [0.0, 100e-9, 250e-9])
        with open(path, "a") as fh:
            fh.write("400.0,-0.5\n")
        out = tmp_path / "dec"
        code, rep, _ = run_cli(capsys, "decode-trace", "--input", path,
                               "--out", str(out), "--format", "csv")
        assert code == EXIT_OK
        assert rep["flags"]["orphan_negative"] == 1
        assert csv_sha256(out) == {"events.csv": (
            "8242499edd07664558afda1f93a5d58644ddf59010c00bdd592ece2277ccd5ca")}

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

    def test_non_finite_pulse_exit_decode(self, tmp_path, capsys):
        # a NaN amplitude is no polarity; it once paired as an ok event
        path = self.write_trace(tmp_path, [3], [10e-9])
        lines = Path(path).read_text().splitlines()
        time_ns, amplitude = lines[2].split(",")
        assert float(amplitude) > 0.0
        lines[2] = f"{time_ns},nan"
        Path(path).write_text("\n".join(lines) + "\n")
        code, rep, err = run_cli(capsys, "decode-trace", "--input", path)
        assert code == EXIT_DECODE
        assert rep is None
        assert f"{path}:3:" in err and "finite" in err

    def test_time_past_the_bound_exit_decode(self, tmp_path, capsys):
        # 1.41e12 ns is past the 1,407 s decode holds trace times to
        path = self.write_trace(tmp_path, [3], [10e-9])
        with open(path, "a") as fh:
            fh.write("1.41e12,-1.0\n")
        code, rep, err = run_cli(capsys, "decode-trace", "--input", path)
        assert code == EXIT_DECODE
        assert rep is None
        assert "1407" in err

    @pytest.mark.parametrize("value", ["0.015", "nan", "inf"])
    def test_segment_delay_under_tolerance_exit_config(self, tmp_path, capsys,
                                                        value):
        # a bad option is a configuration problem, not a decode failure
        path = self.write_trace(tmp_path, [3], [10e-9])
        code, rep, err = run_cli(capsys, "decode-trace", "--input", path,
                                 "--segment-delay-ns", value)
        assert code == EXIT_CONFIG
        assert rep is None
        assert "segment_delay" in err

    def test_oversized_pixel_count_exit_resource(self, tmp_path, capsys):
        path = self.write_trace(tmp_path, [3], [10e-9])
        code, rep, err = run_cli(capsys, "decode-trace", "--input", path,
                                 "--pixel-count", "100000000000")
        assert code == EXIT_RESOURCE
        assert rep is None
        assert "pixel_count" in err and "124" in err

    def test_dense_trace_exit_resource(self, tmp_path, capsys):
        # 3000 pulses of each polarity inside 1 ns give 9e6 pairs within
        # the line's reach: a resource limit, not a decode failure
        p = tmp_path / "dense.csv"
        p.write_text("".join(f"{t!r},{a}\n" for t, a in zip(
            np.linspace(0.0, 1.0, 6000).tolist(), [-1.0, 1.0] * 3000)))
        code, rep, err = run_cli(capsys, "decode-trace", "--input", str(p))
        assert code == EXIT_RESOURCE
        assert rep is None
        assert "pairs" in err and "limit is 8388608" in err

    def test_header_after_blank_lines(self, tmp_path, capsys):
        # the first non-blank line may be the header, wherever it sits
        path = self.write_trace(tmp_path, [0, 5], [0.0, 100e-9])
        _, want, _ = run_cli(capsys, "decode-trace", "--input", path)
        text = Path(path).read_text()
        Path(path).write_text("\n  \n" + text)
        code, rep, err = run_cli(capsys, "decode-trace", "--input", path)
        assert code == EXIT_OK, err
        assert rep == want and rep["n_ok"] == 2

    def test_out_of_choice_polarity_exit_config(self, tmp_path, capsys):
        # refused before the trace is read, like the other line options
        code, rep, err = run_cli(capsys, "decode-trace", "--input",
                                 "/no/trace", "--trigger-polarity", "up")
        assert code == EXIT_CONFIG
        assert rep is None
        assert "--trigger-polarity (trigger_polarity)" in err

    def test_missing_file_exit_decode_is_config(self, capsys):
        # unreadable input is a configuration problem, not a decode failure
        code, _, _ = run_cli(capsys, "decode-trace", "--input", "/no/trace")
        assert code == EXIT_CONFIG

    def test_trace_not_utf8_names_file(self, tmp_path, capsys):
        p = tmp_path / "trace.csv"
        p.write_bytes(b"time_ns,amplitude\n1.0,\xff\n")
        code, rep, err = run_cli(capsys, "decode-trace", "--input", str(p))
        assert code == EXIT_CONFIG
        assert rep is None
        assert f"{p}: 'utf-8' codec can't decode byte 0xff" in err


class TestFormatNeedsOut:
    """--format csv writes tables into the --out directory; without --out
    the command is refused before any input is read or any run starts."""

    @pytest.mark.parametrize("argv", [
        ["simulate-walk"],
        ["run", "counting"],
        ["run", "counting", "--config", "/no/config.json"],
        ["fit-t2", "--input", "/no/file"],
        ["fit-poisson", "--input", "/no/file"],
        ["fit-exponential", "--input", "/no/file"],
        ["decode-trace", "--input", "/no/trace"],
    ])
    def test_csv_without_out_exit_config(self, capsys, monkeypatch, argv):
        monkeypatch.setattr(qgalton.cli, "run_experiment", None)
        code, rep, err = run_cli(capsys, *argv, "--format", "csv")
        assert code == EXIT_CONFIG
        assert rep is None
        assert "--format csv" in err and "--out" in err
        assert "/no/" not in err


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


class TestStartup:
    """No scipy module is loaded at run time, scipy being a test oracle
    only: importing scipy.special alone would double the start-up of every
    command.  interference takes the chi-square path, intervals both
    Poisson paths (fit and pmf) and counting all three."""

    PROBE = textwrap.dedent("""\
        import contextlib, io, json, sys
        loaded = lambda: sorted(m for m in sys.modules
                                if m.split(".")[0] == "scipy")
        from qgalton.cli import main
        after_import = loaded()
        codes = []
        with contextlib.redirect_stdout(io.StringIO()):
            for experiment in ("interference", "intervals", "counting"):
                codes.append(main(["run", experiment,
                                   "--config", sys.argv[1]]))
        print(json.dumps([after_import, codes, loaded()]))
    """)

    def test_run_loads_neither(self, tmp_path):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"windows": 200, "n_bootstrap": 10}))
        src = str(Path(qgalton.__file__).resolve().parents[1])
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [src, env.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-c", self.PROBE, str(config)],
            capture_output=True, text=True, check=False, cwd=tmp_path,
            env=env, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        after_import, codes, after_run = json.loads(proc.stdout)
        assert after_import == []
        assert codes == [EXIT_OK] * 3
        assert after_run == []


def _refuse_constant(name):
    raise AssertionError(f"stdout holds {name}, which strict JSON forbids")


HUGE = 10**400  # too large for a float
MAX = float(np.finfo(float).max)
# values no bound admits, drawn for every key and option: non-finite,
# negative, of the wrong type, and too large for any number field
WRONG = [float("nan"), float("inf"), float("-inf"), -1, "x", True, [1], None,
         HUGE]
# run-config keys: (values inside the declared bound, edges among them;
# values outside it).  windows stays small so valid runs stay cheap.
RUN_KEYS = {
    "stages": ([1, 8, 62], [0, 63]),
    "windows": ([1, 20, 200], [0, MAX_WINDOWS + 1]),
    "mean_photon_number": ([0.0, 0.5, 4.0, 30.0], [1e12]),
    # 200 windows, 64 sigma of jitter and a line span stay inside the
    # trace time bound, 1,407 s, at 7.0e9 ns and 1e8 ns; one window of
    # 1.41e12 ns or jitter of 2.2e10 ns passes it
    "window_ns": ([1e-300, 1.0, 2000.0, 7.0e9],
                  [0.0, 5e-324, 1.41e12, 1e300, MAX]),
    "input_port": (["left", "right"], ["mid"]),
    "seed": ([0, 2**64 - 1], [2**64]),
    "efficiency": ([0.0, 0.5, 1.0], [1.5]),
    "dead_time_ns": ([0.0, 20.0, MAX], []),
    "jitter_sigma_ns": ([0.0, 0.05, 1e8], [2.2e10, 1e300, MAX]),
    "dark_count_rate_hz": ([0.0, 1e4], [1e300]),
    "segment_delay_ns": ([0.021, 0.9, 1e3], [0.02, MAX]),
    "attenuation_per_segment": ([1e-20, 0.97, 1.0], [0.0, 1.5]),
    "base_amplitude": ([1e-300, 1.0, 1e300], [0.0, MAX]),
    "trigger_polarity": (["negative", "positive"], ["up"]),
    "n_bootstrap": ([10, 50], [9, MAX_BOOTSTRAP_CELLS // T2_GRID_POINTS + 1]),
    "bin_width_ns": ([1e-3, 0.1, MAX], [0.0]),
    "min_cluster": ([None, 1, 5, HUGE], [0]),
    "wavelength_nm": ([None, 1520.0, MAX], [0.0]),
    "t_squared": ([None, 0.0, 0.5, 1.0], [1.0 + 2**-52]),
}


def drawn(name, good, bad):
    """(name, value, whether the bound admits it), good three times in
    four; the wrong values a bound admits, None where a key is optional,
    count as good."""
    wrong = [v for v in WRONG if not any(v is g for g in good)]
    bad = [(name, v, False) for v in bad + wrong]
    return st.sampled_from([(name, v, True) for v in good]
                           * (3 * len(bad) // len(good) + 1) + bad)


def option(name, good, bad):
    """A command-line option; a value of None leaves it out."""
    return drawn(name, [None, *good], bad)


def one_of_two(items, first, second):
    """Flag giving both of two settings that exclude each other."""
    present = {name for name, value, _ in items if value is not None}
    return [(second, None, False)] if {first, second} <= present else []


@st.composite
def run_argv(draw, tmp):
    keys = draw(st.lists(st.sampled_from(sorted(set(RUN_KEYS) - {"windows"})),
                         max_size=4, unique=True))
    items = [draw(drawn(key, *RUN_KEYS[key])) for key in ["windows", *keys]]
    data = {key: value for key, value, _ in items}
    stages = data.get("stages")
    if isinstance(stages, int) and not isinstance(stages, bool):
        data["pixel_count"] = 2 * stages
    items += one_of_two(items, "wavelength_nm", "t_squared")
    path = os.path.join(tmp, "config.json")
    with open(path, "w") as fh:
        json.dump(data, fh)
    experiment = draw(drawn("experiment", list(EXPERIMENTS), ["diffraction"]))
    seed = draw(option("--seed", [0, 2**64 - 1], [2**64]))
    argv = ["run", str(experiment[1]), "--config", path]
    if seed[1] is not None:
        argv += ["--seed", str(seed[1])]
    return argv, items + [experiment, seed]


def options_argv(draw, command, options, argv=()):
    items = [draw(opt) for opt in options]
    argv = [command, *argv]
    for name, value, _ in items:
        if value is not None:
            argv += [name, str(value)]
    return argv, items


@st.composite
def simulate_walk_argv(draw, tmp):
    oracle = draw(st.booleans())
    # path enumeration is exponential: stages stay small when it runs
    stages = ([1, 8, 12], [0, 21, 63]) if oracle else ([1, 8, 62], [0, 63])
    argv, items = options_argv(draw, "simulate-walk", [
        option("--stages", *stages),
        option("--t-squared", [0.0, 0.5, 1.0], [1.5]),
        option("--wavelength-nm", [1520.0, MAX], [0.0]),
        option("--input-port", ["left", "right"], ["mid"])])
    items += one_of_two(items, "--wavelength-nm", "--t-squared")
    return argv + ["--check-oracle"] * oracle, items


@st.composite
def fit_argv(draw, tmp, command):
    values = draw(st.lists(st.sampled_from(
        [0, 1, 3, 17, 2.5, 1e300, -2, float("nan"), float("inf"), HUGE,
         "x"]), max_size=20))
    path = os.path.join(tmp, "values.json")
    with open(path, "w") as fh:
        if draw(st.booleans()):
            json.dump(values, fh)
        else:
            fh.write(" ".join(map(str, values)))
    return options_argv(draw, command, [
        option("--seed", [0, 2**64 - 1], [2**64]),
        # each fit bounds the bootstrap by its own table width
        option("--bootstrap", [10, 60], [9])],
        ["--input", path])


@st.composite
def decode_trace_argv(draw, tmp):
    pixels = np.array(draw(st.lists(st.integers(0, 15), max_size=8)),
                      dtype=np.int64)
    trace = encode(DetectionRecords(pixels, np.arange(pixels.size) * 50e-9,
                                    np.zeros(pixels.size, bool)),
                   LineConfig())
    lines = [f"{t * 1e9!r},{a!r}"
             for t, a in zip(trace.times.tolist(), trace.amplitudes.tolist())]
    lines += draw(st.lists(st.sampled_from(
        ["nan,1.0", "5.0,inf", "1e300,-1.0", "1.41e12,1.0", "x,y", "1,2,3",
         "3.0,0.0"]),
        max_size=2))
    path = os.path.join(tmp, "trace.csv")
    with open(path, "w") as fh:
        fh.write("time_ns,amplitude\n" + "\n".join(lines) + "\n")
    return options_argv(draw, "decode-trace", [
        option("--segment-delay-ns", [0.021, 0.9, 1e300], [0.02, MAX]),
        option("--pixel-count", [1, 16, 124], [0, 125]),
        option("--trigger-polarity", ["negative", "positive"], ["up"])],
        ["--input", path])


ARGV = {"run": run_argv, "simulate-walk": simulate_walk_argv,
        "decode-trace": decode_trace_argv,
        **{command: lambda tmp, command=command: fit_argv(tmp, command)
           for command in ("fit-t2", "fit-poisson", "fit-exponential")}}


def spellings(name):
    """A key or option as a refusal may name it."""
    key = name.lstrip("-").replace("-", "_")
    return {name, key, "n_bootstrap" if key == "bootstrap" else key}


class TestInputContract:
    """Every subcommand, fed values from each declared bound, its edges and
    values no bound admits, exits 0, 2, 3 or 4 and lets no exception out.
    It refuses every value out of bound, naming a key or option it was
    given, and prints only strict JSON."""

    @pytest.mark.parametrize("command", sorted(ARGV))
    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_every_subcommand(self, command, data):
        out, err = io.StringIO(), io.StringIO()
        with tempfile.TemporaryDirectory() as tmp:
            argv, items = data.draw(ARGV[command](tmp))
            with contextlib.redirect_stdout(out), \
                    contextlib.redirect_stderr(err):
                try:
                    code = main(argv)
                except SystemExit as exc:  # argparse refusing an option
                    code = exc.code
        out, err = out.getvalue(), err.getvalue()
        assert code in (EXIT_OK, EXIT_CONFIG, EXIT_DECODE, EXIT_RESOURCE)
        if not all(ok for *_, ok in items):
            assert code in (EXIT_CONFIG, EXIT_RESOURCE), (argv, out)
            named = set().union(*(spellings(name) for name, *_ in items))
            assert any(name in err for name in named), (argv, err)
        if out:
            json.loads(out, parse_constant=_refuse_constant)
