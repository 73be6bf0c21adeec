"""Tests for the experiment harness."""

import hashlib
import json
import os
from pathlib import Path
from types import SimpleNamespace
from typing import get_type_hints

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import reference_impl
from qgalton import cli, experiments
from qgalton.errors import ConfigError, ResourceLimitError
from qgalton.experiments import (
    EXPERIMENTS,
    MAX_EXPECTED_COUNTS,
    MAX_WINDOWS,
    SimulatedStream,
    _CSV_BLOCK_ROWS,
    _csv_blocks,
    _events_table,
    _truth_table,
    config_from_dict,
    load_config,
    render_report,
    run_experiment,
    simulate_stream,
    write_outputs,
)
from qgalton.readout import DecodedEvents, TraceEvents
from qgalton.stats import MAX_BOOTSTRAP_CELLS, T2_GRID_POINTS
from qgalton.walk import bin_probabilities


def _no_run(config):
    raise AssertionError("a refused config reached simulate_stream")


def small(exp, extra=None, seed=0, windows=2000):
    data = {"windows": windows, "n_bootstrap": 50}
    data.update(extra or {})
    return config_from_dict(exp, data, seed=seed)


class TestConfig:
    def test_experiment_defaults(self):
        cfg = config_from_dict("interference")
        assert cfg.windows == 10_000
        assert cfg.mean_photon_number == 1.0
        assert cfg.wavelength_nm == 1550.0
        assert cfg.resolved_t2() == pytest.approx(0.763, abs=1e-12)

    def test_counting_default_rate(self):
        assert config_from_dict("counting").mean_photon_number == 4.0

    def test_persistence_uses_balanced_coupler(self):
        cfg = config_from_dict("persistence")
        assert cfg.t_squared == 0.5
        assert cfg.wavelength_nm is None

    def test_wavelength_override_displaces_default_t2(self):
        cfg = config_from_dict("persistence", {"wavelength_nm": 1520.0})
        assert cfg.t_squared is None
        assert cfg.resolved_t2() == pytest.approx(0.816, abs=1e-12)

    def test_both_settings_rejected(self):
        with pytest.raises(ConfigError):
            config_from_dict("interference",
                             {"wavelength_nm": 1550.0, "t_squared": 0.5})

    @pytest.mark.parametrize("t2", [float("nan"), -0.25, 1.0 + 1e-9])
    def test_t2_outside_unit_interval_rejected(self, t2):
        with pytest.raises(ConfigError, match="t_squared"):
            config_from_dict("interference", {"t_squared": t2})

    @pytest.mark.parametrize("t2", [0.0, 1.0])
    def test_t2_bounds_accepted(self, t2):
        assert config_from_dict("interference", {"t_squared": t2}) \
            .resolved_t2() == t2

    def test_unknown_keys_rejected(self):
        with pytest.raises(ConfigError, match="windoes"):
            config_from_dict("interference", {"windoes": 10})

    def test_pixel_stage_mismatch(self):
        with pytest.raises(ConfigError, match="pixel_count"):
            config_from_dict("interference", {"stages": 4})

    def test_matching_pixends_ok(self):
        cfg = config_from_dict("interference",
                               {"stages": 4, "pixel_count": 8})
        assert cfg.pixel_count == 8

    def test_seed_override(self):
        cfg = config_from_dict("interference", {"seed": 5}, seed=9)
        assert cfg.seed == 9

    def test_unknown_experiment(self):
        with pytest.raises(ConfigError):
            config_from_dict("diffraction", {})

    @pytest.mark.parametrize("field, largest, too_large", [
        ("windows", {"windows": MAX_WINDOWS, "mean_photon_number": 0.0},
         {"windows": MAX_WINDOWS + 1, "mean_photon_number": 0.0}),
        ("mean_photon_number",
         {"windows": 1000, "mean_photon_number": MAX_EXPECTED_COUNTS / 1000},
         {"windows": 1000, "mean_photon_number": MAX_EXPECTED_COUNTS / 999}),
        # 1000 windows of 2 us on 16 pixels: 0.032 s of pixel time
        ("dark_count_rate_hz",
         {"windows": 1000, "dark_count_rate_hz": MAX_EXPECTED_COUNTS / 0.0321},
         {"windows": 1000, "dark_count_rate_hz": MAX_EXPECTED_COUNTS / 0.0319}),
        ("n_bootstrap", {"n_bootstrap": MAX_BOOTSTRAP_CELLS // T2_GRID_POINTS},
         {"n_bootstrap": MAX_BOOTSTRAP_CELLS // T2_GRID_POINTS + 1}),
    ])
    def test_size_limits(self, field, largest, too_large):
        # configs are built, never run: the limits hold before any work
        assert config_from_dict("counting", largest)
        with pytest.raises(ResourceLimitError, match=field):
            config_from_dict("counting", too_large)

    @pytest.mark.parametrize("field", ["mean_photon_number", "dead_time_ns",
                                       "jitter_sigma_ns", "dark_count_rate_hz",
                                       "window_ns", "segment_delay_ns"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -1.0])
    def test_non_finite_or_negative_rejected(self, field, value):
        with pytest.raises(ConfigError, match=field):
            config_from_dict("counting", {field: value})

    @pytest.mark.parametrize("field", [
        "mean_photon_number", "window_ns", "efficiency", "dead_time_ns",
        "jitter_sigma_ns", "dark_count_rate_hz", "segment_delay_ns",
        "attenuation_per_segment", "base_amplitude", "bin_width_ns",
        "wavelength_nm", "t_squared"])
    @pytest.mark.parametrize("value", [float("inf"), float("-inf"),
                                       float("nan")])
    def test_non_finite_float_fields_rejected(self, field, value):
        # a non-finite value would reach report.json as Infinity or NaN
        with pytest.raises(ConfigError, match=field):
            config_from_dict("counting", {field: value})

    @pytest.mark.parametrize("extra", [
        {"attenuation_per_segment": 1e-30},
        {"base_amplitude": 1e-320, "attenuation_per_segment": 0.5}])
    def test_underflowing_far_pulse_rejected(self, extra):
        # 16 pixels: the far pulse is base_amplitude * attenuation ** 15
        with pytest.raises(ConfigError,
                           match="base_amplitude.*attenuation_per_segment"):
            config_from_dict("counting", extra)

    def test_tiny_far_pulse_accepted(self):
        cfg = config_from_dict("counting", {"attenuation_per_segment": 1e-20})
        assert cfg.attenuation_per_segment == 1e-20

    @pytest.mark.parametrize("value", [0.015, 0.02, -1, 0.0])
    def test_segment_delay_at_or_under_decode_tolerance_rejected(self, value):
        # decode pairs pulses within 10 ps, under half a segment delay;
        # refused here, before the run is simulated
        with pytest.raises(ConfigError, match="segment_delay_ns"):
            config_from_dict("counting", {"segment_delay_ns": value})

    def test_segment_delay_above_decode_tolerance_accepted(self):
        cfg = config_from_dict("counting", {"segment_delay_ns": 0.021})
        assert cfg.line_config().segment_delay == pytest.approx(0.021e-9)

    @pytest.mark.parametrize("field, value, error", [
        ("efficiency", 1.5, ConfigError),
        ("attenuation_per_segment", 1.5, ConfigError),
        ("base_amplitude", -1.0, ConfigError),
        ("trigger_polarity", "up", ConfigError),
        ("input_port", "mid", ConfigError),
        ("wavelength_nm", -5.0, ConfigError),
        ("stages", 63, ResourceLimitError),
        # 200 windows of 7.1e9 ns end past the 1,407 s trace time bound
        ("window_ns", 7.1e9, ConfigError),
    ])
    def test_refused_before_the_run(self, monkeypatch, capsys, tmp_path,
                                    field, value, error):
        # once refused only by the component that met them mid-run
        data = {field: value, "windows": 200}
        if field == "stages":
            data["pixel_count"] = 2 * value
        with pytest.raises(error, match=field):
            config_from_dict("counting", data)
        monkeypatch.setattr(experiments, "simulate_stream", _no_run)
        path = tmp_path / "c.json"
        path.write_text(json.dumps(data))
        code = cli.main(["run", "counting", "--config", str(path)])
        assert code == (cli.EXIT_RESOURCE if error is ResourceLimitError
                        else cli.EXIT_CONFIG)
        assert field in capsys.readouterr().err

    def test_timeline_up_to_the_trace_time_bound(self, capsys, tmp_path):
        # 200 windows of 7.0e9 ns end at 1,400 s, inside the 1,407 s bound
        # decode holds trace times to; 7.1e9 ns would pass it
        data = {"windows": 200, "window_ns": 7.1e9}
        with pytest.raises(ConfigError, match=r"windows \* window_ns"):
            config_from_dict("interference", data)
        data["window_ns"] = 7.0e9
        path = tmp_path / "c.json"
        path.write_text(json.dumps(data))
        assert cli.main(["run", "interference", "--config", str(path)]) == 0
        capsys.readouterr()
        # every click decodes to its own pixel, with both its pulses
        stream = simulate_stream(config_from_dict(
            "interference", {**data, "mean_photon_number": 4.0}, seed=1))
        dec, ids = stream.decoded, stream.trace.origin_ids
        assert dec.ok.sum() == len(stream.records) > 500
        clicks = ids[dec.trigger_index[dec.ok]]
        assert np.array_equal(ids[dec.partner_index[dec.ok]], clicks)
        assert np.array_equal(stream.records.pixels[clicks],
                              dec.pixels[dec.ok])

    @pytest.mark.parametrize("field, value", [
        ("bin_width_ns", 1e-9), ("bin_width_ns", 1e-6),
        ("segment_delay_ns", 1e7)])
    def test_persistence_bins_bounded(self, field, value):
        # the overlay histogram has 2 (pixel_count + 1) segment_delay_ns /
        # bin_width_ns bins, 306 at the defaults
        with pytest.raises(ResourceLimitError,
                           match="segment_delay_ns.*bin_width_ns"):
            config_from_dict("persistence", {field: value})
        finest = 2 * 17 * 0.9 / MAX_EXPECTED_COUNTS
        assert config_from_dict("persistence", {"bin_width_ns": 1.001 * finest})
        with pytest.raises(ResourceLimitError):
            config_from_dict("persistence", {"bin_width_ns": 0.999 * finest})
        # only persistence builds the histogram
        assert config_from_dict("counting", {field: value})

    def test_load_config_rejects_bad_json(self, tmp_path):
        p = tmp_path / "c.json"
        p.write_text("{not json")
        with pytest.raises(ConfigError):
            load_config(str(p), "interference")

    def test_load_config_rejects_non_object(self, tmp_path):
        p = tmp_path / "c.json"
        p.write_text("[1, 2]")
        with pytest.raises(ConfigError):
            load_config(str(p), "interference")

    def test_load_config_roundtrip(self, tmp_path):
        p = tmp_path / "c.json"
        p.write_text(json.dumps({"windows": 123, "t_squared": 0.4}))
        cfg = load_config(str(p), "counting", seed=3)
        assert cfg.windows == 123
        assert cfg.resolved_t2() == 0.4
        assert cfg.seed == 3


class TestSimulateStream:
    def test_deterministic(self):
        a = simulate_stream(small("interference"))
        b = simulate_stream(small("interference"))
        np.testing.assert_array_equal(a.decoded.pixels, b.decoded.pixels)
        np.testing.assert_array_equal(a.decoded.origin_times,
                                      b.decoded.origin_times)
        np.testing.assert_array_equal(a.truth_times, b.truth_times)

    def test_seed_changes_stream(self):
        a = simulate_stream(small("interference", seed=0))
        b = simulate_stream(small("interference", seed=1))
        assert a.truth_times.size != b.truth_times.size or not np.array_equal(
            a.truth_times, b.truth_times)

    def test_clicks_no_more_than_photons(self):
        stream = simulate_stream(small("interference"))
        assert len(stream.records) <= stream.truth_pixels.size

    def test_trace_and_decoded_types(self):
        hints = get_type_hints(SimulatedStream)
        assert hints["trace"] is TraceEvents
        assert hints["decoded"] is DecodedEvents
        stream = simulate_stream(small("counting", windows=20))
        assert isinstance(stream.trace, TraceEvents)
        assert isinstance(stream.decoded, DecodedEvents)

    def test_emission_rate(self):
        stream = simulate_stream(small("counting"))
        # 2000 windows at mean 4: sd of the total is ~90
        assert stream.truth_pixels.size == pytest.approx(8000, abs=400)

    def test_absolute_times_ordered_by_window(self):
        stream = simulate_stream(small("interference", windows=500))
        w = (stream.truth_times // 2e-6).astype(int)
        np.testing.assert_array_equal(w, np.sort(w))
        assert w.max() < 500


def stream_digest(stream) -> str:
    h = hashlib.sha256()
    for a in (stream.truth_pixels, stream.truth_times, stream.truth_windows,
              stream.records.pixels, stream.records.times,
              stream.records.is_dark):
        h.update(a.tobytes())
    return h.hexdigest()


def assert_same_stream(got, want):
    for name in ("truth_pixels", "truth_times", "truth_windows"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype, name
        np.testing.assert_array_equal(a, b, err_msg=name)
    for name in ("pixels", "times", "is_dark"):
        a, b = getattr(got.records, name), getattr(want.records, name)
        assert a.dtype == b.dtype, name
        np.testing.assert_array_equal(a, b, err_msg=name)


class TestStreamParity:
    """The whole-run simulation equals the one-record reference loop."""

    # counting runs of 300 windows: (overrides, seed, sha256 of the truth
    # and record arrays as the one-record reference loop produced them)
    CASES = [
        ({"efficiency": 0.7}, 3,
         "82b1c8a810f947a91aee811cd46dc2508981003444abf607f9183a15539b7eb0"),
        ({"dark_count_rate_hz": 1e5}, 4,
         "0640d463a46f9d8597c5f24afb4cb7a7e384b4ecdb62314d0f1cfd95c01f3f9f"),
        ({"efficiency": 0.5, "dark_count_rate_hz": 1e5}, 5,
         "5fd0f5a09b1c808e38f9fc1721b8b6bc3de6d3ca0e5e5307a2e242f5d1e2e675"),
        ({"dead_time_ns": 0.0}, 6,
         "30b43288f4d42868a51ce3a8a76be4b7945d13b7d528b6ad6160ccae46ec8f5a"),
        ({"jitter_sigma_ns": 0.0}, 7,
         "929855f957292b960818c55cfa919bf6751daaa77de3abd4d6a594b9cf9cadeb"),
        ({"dead_time_ns": 0.0, "jitter_sigma_ns": 0.0,
          "dark_count_rate_hz": 1e5}, 7,
         "337a8df9320e6566bb8adb0ba7b5f78763b9cab048ac2a10b8485a1822c70bf3"),
        ({"mean_photon_number": 0.0}, 8,
         "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
        ({"mean_photon_number": 0.0, "dark_count_rate_hz": 2e5}, 8,
         "b0c1aff4c0d37e8ffa18131c0546f1fe8f85a00751e2efb865788d161db7e813"),
        ({"windows": 1, "mean_photon_number": 30.0}, 9,
         "f24aa8b2d4da71c4475cc19b82b8655520d7ca9ca2b07a3dc25b8bc8d40736c9"),
        ({"mean_photon_number": 30.0}, 2**64 - 1,
         "7274356af9323121b8de7e322a31c1be78c48b2b2674bec4a3fe43c40b2132bf"),
        ({"mean_photon_number": 4.0, "dead_time_ns": 200.0,
          "efficiency": 0.9}, 2**63 + 5,
         "9937dbd929aea206be276b850339fd1647cc706837e1c638ffce00a9bf36043c"),
    ]

    @pytest.mark.parametrize(
        "overrides, seed, sha256", CASES,
        ids=[f"{'-'.join(map(str, o.values()))}-seed{s}" for o, s, _ in CASES])
    def test_matches_reference_loop(self, overrides, seed, sha256):
        cfg = config_from_dict("counting", {"windows": 300, **overrides},
                               seed=seed)
        stream = simulate_stream(cfg)
        assert_same_stream(stream, reference_impl.simulate_stream(cfg))
        assert stream_digest(stream) == sha256

    # dark rates from none through windows with and without dark counts
    # (2e4 Hz is about 0.04 per pixel and window) to about 6 per pixel; a
    # stage count other than 1, 2, 4 or 8 gives a pixel count that is no
    # power of two, whose dark pixels take the rejection path of integers
    @settings(deadline=None, max_examples=60)
    @given(windows=st.integers(1, 12),
           stages=st.integers(1, 12),
           mean=st.sampled_from([0.0, 0.5, 4.0, 40.0]),
           efficiency=st.sampled_from([1.0, 0.6, 0.0]),
           dark=st.sampled_from([0.0, 2e4, 1e5, 3e6]),
           dead_time=st.sampled_from([0.0, 20.0, 500.0]),
           jitter=st.sampled_from([0.0, 0.05, 30.0]),
           seed=st.integers(0, 2**64 - 1))
    def test_random_configs(self, windows, stages, mean, efficiency, dark,
                            dead_time, jitter, seed):
        cfg = config_from_dict("counting", {
            "windows": windows, "stages": stages, "pixel_count": 2 * stages,
            "mean_photon_number": mean, "efficiency": efficiency,
            "dark_count_rate_hz": dark, "dead_time_ns": dead_time,
            "jitter_sigma_ns": jitter}, seed=seed)
        assert_same_stream(simulate_stream(cfg),
                           reference_impl.simulate_stream(cfg))

    @settings(deadline=None, max_examples=40)
    @given(windows=st.integers(1, 12),
           mean=st.sampled_from([0.0, 0.5, 4.0, 40.0]),
           efficiency=st.sampled_from([1.0, 0.6]),
           dark=st.sampled_from([0.0, 1e5, 3e6]),
           dead_time=st.sampled_from([0.0, 20.0, 500.0]),
           jitter=st.sampled_from([0.05, 30.0]),
           seed=st.integers(0, 2**64 - 1))
    def test_noise_leaves_photons_and_registered_clicks(
            self, windows, mean, efficiency, dark, dead_time, jitter, seed):
        # the truth arrays are each window's photon draws on its own
        # stream, whatever the efficiency and the noise; the registered
        # clicks are those of the same run without jitter, each moved by
        # its normal: the noise stream's draws after the efficiency
        # uniforms and the dark counts, one per click in record order
        overrides = {"windows": windows, "mean_photon_number": mean,
                     "efficiency": efficiency, "dark_count_rate_hz": dark,
                     "dead_time_ns": dead_time}
        cfg = config_from_dict(
            "counting", {**overrides, "jitter_sigma_ns": jitter}, seed=seed)
        still = simulate_stream(config_from_dict(
            "counting", {**overrides, "jitter_sigma_ns": 0.0}, seed=seed))
        stream = simulate_stream(cfg)

        probs = bin_probabilities(8, cfg.resolved_t2())
        truth = [[], [], []]
        for w in range(windows):
            rng = reference_impl.window_rng(seed, w)
            times = reference_impl.sample_arrivals(mean, cfg.window, rng)
            truth[0].append(reference_impl.assign_bins(times.size, probs, rng))
            truth[1].append(times + w * cfg.window)
            truth[2].append(np.full(times.size, w))
        for name, want in zip(("truth_pixels", "truth_times", "truth_windows"),
                              truth):
            np.testing.assert_array_equal(getattr(stream, name),
                                          np.concatenate(want), err_msg=name)
            np.testing.assert_array_equal(getattr(still, name),
                                          np.concatenate(want), err_msg=name)

        det = cfg.detector_config()
        noise = reference_impl.noise_rng(seed)
        reference_impl.survivors(det, noise, stream.truth_times.size)
        reference_impl.dark_counts(det, noise, windows * cfg.window)
        clicks = still.records
        moved = clicks.times + noise.normal(0.0, det.jitter_sigma,
                                            clicks.times.size)
        rec = stream.records
        assert (sorted(zip(rec.pixels.tolist(), rec.is_dark.tolist(),
                           rec.times.tolist()))
                == sorted(zip(clicks.pixels.tolist(), clicks.is_dark.tolist(),
                              moved.tolist())))

    def test_export_report_pinned(self):
        # efficiency and dark counts in every window, as the export
        # benchmark runs them; pinned from the one-record reference loop
        cfg = config_from_dict(
            "intervals", {"efficiency": 0.8, "dark_count_rate_hz": 2e4},
            seed=0)
        text = render_report(run_experiment(cfg).report)
        assert hashlib.sha256(text.encode()).hexdigest() == (
            "50f72b3f2c2c2f8cde0b1a8c47f9f2e8b931eaf081c5e43f1be66ba93d823df9")

    # the other parity reports: (experiment, overrides, seed, sha256 of
    # render_report); with the export case above these are all eleven
    EXPORT = {"efficiency": 0.8, "dark_count_rate_hz": 2e4}
    REPORTS = [
        ("interference", {}, 0,
         "4834271872ccaccd76c6f0b6316e5f8c297d423c552cef3f4b0e7ed8d6f219ec"),
        ("interference", {}, 1,
         "d75634ab525271969350713eb6e60eca2ae6fd7ce9ceb27db043e25f8f1257d5"),
        ("counting", {}, 0,
         "c563c6b851a1784dcf313941713c1c4292a7a450b991cbb6b73d53b7eb6fd01c"),
        ("counting", {}, 1,
         "52c88500c838c3a3df72293c23bea09c583c357a480c9699d952fb3df94f0ca0"),
        ("intervals", {}, 0,
         "567ca2b3888f455bb4421505867ffad2c469b9f80949105deed0ed62377879c5"),
        ("intervals", {}, 1,
         "31c27e028a4f4dac326c89b1325e6003b528801019c7fe459b3a6f11fd9c4f69"),
        ("persistence", {}, 0,
         "a02f3c981cb6e82bc6e93b9f06615d686e8dd81cb46a324a9084a8aeb5c05e84"),
        ("persistence", {}, 1,
         "0f401541d12d7a6708ae742c4c83ee4e150423fc6dc3c2ed0feb57a83b93286c"),
        ("counting", {"mean_photon_number": 30.0}, 0,
         "f5e392d1361d4bb84aed5f6efc36e2098813fa91962715b799a2c6eda48552f6"),
        ("intervals", EXPORT, 1,
         "8e96da8524db8da9eac6bc0bae4fe6b431b3c1c7786bdac495f5d11fe67d30f7"),
    ]

    @pytest.mark.parametrize(
        "experiment, overrides, seed, sha256", REPORTS,
        ids=[f"{e}-{'-'.join(map(str, o.values())) or 'default'}-seed{s}"
             for e, o, s, _ in REPORTS])
    def test_report_pinned(self, experiment, overrides, seed, sha256):
        cfg = config_from_dict(experiment, overrides, seed=seed)
        text = render_report(run_experiment(cfg).report)
        assert hashlib.sha256(text.encode()).hexdigest() == sha256


class TestInterferenceRun:
    def test_fit_near_reference(self):
        out = run_experiment(small("interference", windows=4000))
        r = out.report
        # about 4000 photons: estimator sd is near 0.002
        assert r["fit"]["estimate"] == pytest.approx(0.763, abs=0.02)
        assert r["reference_t_squared"] == pytest.approx(0.763, abs=1e-12)
        assert sum(r["decoded_histogram"]) == r["n_decoded_ok"]
        assert r["decode_flags"]["ok"] == r["n_decoded_ok"]
        assert len(r["model_at_reference"]) == 16

    def test_decode_losses_are_rare(self):
        r = run_experiment(small("interference", windows=4000)).report
        lost = r["n_clicks"] - r["n_decoded_ok"]
        assert lost <= 0.01 * r["n_clicks"]

    def test_tables_shaped(self):
        out = run_experiment(small("interference", windows=300))
        header, columns = out.tables["histogram"]
        assert header[0] == "bin"
        assert [len(col) for col in columns] == [16] * 4
        header, columns = out.tables["events"]
        assert header == ["window_index", "pixel", "origin_time_ns", "flag"]
        assert len({len(col) for col in columns}) == 1


class TestCountingRun:
    def test_mean_recovered(self):
        r = run_experiment(small("counting")).report
        assert r["fit"]["estimate"] == pytest.approx(4.0, abs=0.2)
        assert r["sample_mean"] == pytest.approx(4.0, abs=0.2)
        assert r["gof"]["p_value"] > 1e-4

    def test_saturation_suppresses_mean(self):
        r = run_experiment(
            small("counting", {"mean_photon_number": 30.0}, windows=1500)
        ).report
        # dead time clips bursts: decoded counts sit below the emission
        # rate and are underdispersed relative to Poisson
        assert r["sample_mean"] < 29.0
        assert r["sample_variance"] < 0.95 * r["sample_mean"]
        assert r["truth_mean"] == pytest.approx(30.0, abs=0.6)


class TestIntervalsRun:
    def test_consistency(self):
        r = run_experiment(small("intervals")).report
        cons = r["consistency"]
        assert cons["implied_mean"] == pytest.approx(4.0, abs=0.3)
        assert cons["ci_overlap"] is True
        assert 0.9 < cons["ratio"] < 1.1

    def test_gaps_span_window_boundaries(self):
        r = run_experiment(small("intervals")).report
        assert r["n_gaps"] == r["n_decoded_ok"] - 1

    def test_mean_gap_matches_rate(self):
        r = run_experiment(small("intervals")).report
        # 4 photons per 2000 ns window: mean gap near 500 ns
        assert r["mean_gap_ns"] == pytest.approx(500.0, rel=0.1)


class TestPersistenceRun:
    def test_full_comb(self):
        r = run_experiment(small("persistence", windows=5000)).report
        assert r["n_peaks"] == 16
        assert r["amplitudes_strictly_decreasing"] is True
        np.testing.assert_allclose(r["peak_spacings_ns"], 1.8, atol=0.1)
        assert r["peak_pixels"] == list(range(15, -1, -1))

    def test_weights_track_model(self):
        r = run_experiment(small("persistence", windows=5000)).report
        weights = np.array(r["peak_weights"])
        model = np.array(r["model_probabilities"])
        # peaks are delay-ordered: pixel 15 first
        np.testing.assert_allclose(weights, model[::-1], atol=0.03)

    def test_trace_table_present(self):
        out = run_experiment(small("persistence", windows=300))
        assert "trace" in out.tables
        assert "peaks" in out.tables


class TestOutputs:
    def test_json_writes_report_only(self, tmp_path):
        out = run_experiment(small("interference", windows=200))
        files = write_outputs(out, str(tmp_path / "a"), "json")
        assert [os.path.basename(f) for f in files] == ["report.json"]

    def test_csv_adds_tables(self, tmp_path):
        out = run_experiment(small("interference", windows=200))
        files = write_outputs(out, str(tmp_path / "b"), "csv")
        names = sorted(os.path.basename(f) for f in files)
        assert "report.json" in names
        assert "histogram.csv" in names
        assert "events.csv" in names

    def test_none_out_dir_writes_nothing(self):
        out = run_experiment(small("interference", windows=200))
        assert write_outputs(out, None, "json") == []

    def test_reports_byte_identical(self, tmp_path):
        text = []
        for d in ("r1", "r2"):
            out = run_experiment(small("counting", windows=400))
            write_outputs(out, str(tmp_path / d), "csv")
            text.append((tmp_path / d / "report.json").read_bytes())
        assert text[0] == text[1]

    def test_different_seed_changes_report(self):
        a = render_report(run_experiment(small("counting", windows=400,
                                               seed=0)).report)
        b = render_report(run_experiment(small("counting", windows=400,
                                               seed=1)).report)
        assert a != b

    def test_csv_tables_byte_identical(self, tmp_path):
        blobs = []
        for d in ("c1", "c2"):
            out = run_experiment(small("persistence", windows=400))
            write_outputs(out, str(tmp_path / d), "csv")
            blob = b"".join(
                (tmp_path / d / n).read_bytes()
                for n in sorted(os.listdir(tmp_path / d)))
            blobs.append(blob)
        assert blobs[0] == blobs[1]

    def test_bad_format_rejected(self, tmp_path):
        out = run_experiment(small("interference", windows=200))
        with pytest.raises(ConfigError):
            write_outputs(out, str(tmp_path), "yaml")


def csv_lines(table):
    """The lines of the blocks a table writes."""
    return "".join(_csv_blocks(*table)).splitlines(keepends=True)


class TestTableParity:
    """Column tables write the CSV lines of the per-row builders they
    replaced."""

    @pytest.mark.parametrize("experiment", EXPERIMENTS)
    def test_tables_are_columns(self, experiment):
        out = run_experiment(small(experiment, seed=1, windows=300))
        for name, table in out.tables.items():
            header, columns = table
            assert len(header) == len(columns), name
            assert all(isinstance(col, np.ndarray) and col.ndim == 1
                       for col in columns), name
            assert len({col.size for col in columns}) == 1, name

    def test_tables_of_a_saturated_run(self):
        cfg = small("counting", {"mean_photon_number": 30.0}, seed=1,
                    windows=300)
        stream = simulate_stream(cfg)
        assert csv_lines(_events_table(stream, cfg.window, cfg.windows)) == \
            reference_impl.csv_lines(
                reference_impl.events_table(stream, cfg.window, cfg.windows))
        assert csv_lines(_truth_table(stream)) == \
            reference_impl.csv_lines(reference_impl.truth_table(stream))

    def test_trace_table(self):
        cfg = small("persistence", windows=300)
        out = run_experiment(cfg)
        stream = simulate_stream(cfg)
        assert csv_lines(out.tables["trace"]) == reference_impl.csv_lines(
            reference_impl.trace_table(stream.trace))

    def test_orphans_and_clipped_windows(self):
        window, n_windows = 2e-6, 3
        # NaN for orphans, a time before the first window, one on a window
        # edge, and times at and past the end of the last window
        times = np.array([np.nan, -1e-9, 0.0, 2e-6, 5.9e-6, 6e-6, 1e-3,
                          np.nan])
        decoded = DecodedEvents(
            pixels=[-1, 3, 0, 15, 7, 2, 9, -1],
            origin_times=times,
            flags=[1, 0, 0, 3, 0, 0, 0, 2],
            trigger_index=np.zeros(times.size),
            partner_index=np.zeros(times.size))
        stream = SimpleNamespace(
            decoded=decoded,
            truth_windows=np.array([0, 0, 2, 2]),
            truth_pixels=np.array([4, 5, 6, 7]),
            truth_times=np.array([-1e-9, 1.5e-7, 4.25e-6, 7e-6]))
        got = _events_table(stream, window, n_windows)
        lines = csv_lines(got)
        assert lines == reference_impl.csv_lines(
            reference_impl.events_table(stream, window, n_windows))
        assert got[1][0].tolist() == [-1, 0, 0, 1, 2, 2, 2, -1]
        assert lines[1] == "-1,-1,nan,orphan_negative\n"
        assert csv_lines(_truth_table(stream)) == \
            reference_impl.csv_lines(reference_impl.truth_table(stream))

    def test_empty_stream(self):
        empty = np.empty(0)
        stream = SimpleNamespace(
            decoded=DecodedEvents(empty, empty, empty, empty, empty),
            truth_windows=empty.astype(np.int64),
            truth_pixels=empty.astype(np.int64), truth_times=empty)
        assert csv_lines(_events_table(stream, 2e-6, 5)) == \
            reference_impl.csv_lines(
                reference_impl.events_table(stream, 2e-6, 5))
        assert csv_lines(_truth_table(stream)) == \
            reference_impl.csv_lines(reference_impl.truth_table(stream))

    def test_blocks_of_a_long_and_an_empty_table(self):
        # more than two blocks, the last one short, and a table with no rows
        n = 2 * _CSV_BLOCK_ROWS + 5
        rng = np.random.default_rng(0)
        header = ["index", "value", "flag"]
        columns = [np.arange(n), rng.normal(size=n),
                   rng.choice(np.array(["ok", "orphan_negative"]), n)]
        blocks = list(_csv_blocks(header, columns))
        assert [b.count("\n") for b in blocks] == [
            1, _CSV_BLOCK_ROWS, _CSV_BLOCK_ROWS, 5]
        rows = list(zip(*(col.tolist() for col in columns)))
        assert csv_lines((header, columns)) == reference_impl.csv_lines(
            (header, rows))
        empty = [col[:0] for col in columns]
        assert list(_csv_blocks(header, empty)) == ["index,value,flag\n"]
        assert csv_lines((header, empty)) == reference_impl.csv_lines(
            (header, []))

    # sha256 of every CSV the per-row table builders wrote for these runs
    # (300 windows, 50 resamples, seed 1); re-pin only with a deliberate
    # change of the simulated numbers
    CSV_SHA256 = {
        "interference": {
            "events.csv": "a4a6ff7e3684bd5a14d5ea95b89dcde8653370d00a2fde2dbc4f657111593fb8",
            "histogram.csv": "8d66dd7401eb9fe3c2680d7d2199c5ca0b0ef7095beb3f5d470885518f65ad79",
            "truth_events.csv": "423b388d863906f14cf1b22a3b2c769b642f39d082a833c0a252f220e8bcad89",
        },
        "counting": {
            "count_histogram.csv": "b1d5216c48d9339c81f4ca826fe9c6e3ac33efb60c4a15eb80fb1f51dab838cf",
            "events.csv": "803e1340d79d797ab23c8690b6578bc2301962e6bc67a9b540ded6c4d988abe6",
            "window_counts.csv": "e6de12a57dc600d363aec78a217cfe03aab692dd8f6da519bf2a93b8765e6f2e",
        },
        "intervals": {
            "events.csv": "803e1340d79d797ab23c8690b6578bc2301962e6bc67a9b540ded6c4d988abe6",
            "gap_histogram.csv": "1a5a0d1fbba1aa97566d6535ecf1d924ebe6fa7dbc61db4b46dffd578822bd12",
        },
        "persistence": {
            "peaks.csv": "681b06fb73f7931a4879c2d8817dd9572bbfb14859471d3246361998106c201a",
            "persistence.csv": "3a047517a462bdb85bcd918ea8af4304bf160c2c9799b906c59bedffafd7a2cf",
            "trace.csv": "ed97cac275e2f471d895c121759b66c0367939297ea4562dacd5f972034d1cde",
        },
    }

    @pytest.mark.parametrize("experiment", sorted(CSV_SHA256))
    def test_csv_bytes_unchanged(self, experiment, tmp_path):
        out = run_experiment(small(experiment, seed=1, windows=300))
        written = write_outputs(out, str(tmp_path), "csv")
        got = {os.path.basename(p): hashlib.sha256(
                   Path(p).read_bytes()).hexdigest()
               for p in written if p.endswith(".csv")}
        assert got == self.CSV_SHA256[experiment]
