"""End-to-end acceptance checks for the instrument model.

Each test prints one PASS/FAIL line with the measured numbers so the whole
gate can be read off a single run:

    pytest tests/test_acceptance.py -v -s

The statistical checks run the full pipeline (source, mesh, detector,
readout decode, fits) over fixed seed sets, so every tally below is
reproducible bit for bit.
"""

import numpy as np

import reference_impl
from qgalton.detector import DetectionRecords
from qgalton.experiments import (
    config_from_dict,
    render_report,
    run_experiment,
    simulate_stream,
)
from qgalton.readout import LineConfig, decode, encode
from qgalton.walk import bin_probabilities, path_sum_oracle


def verdict(tag: str, ok: bool, detail: str) -> None:
    line = f"[{tag}] {'PASS' if ok else 'FAIL'} {detail}"
    print("\n" + line, flush=True)
    assert ok, line


def same_rows(a, b):
    """Every DecodedEvents field equal, dtype included (nan equals nan)."""
    return all(
        x.dtype == y.dtype
        and np.array_equal(x, y, equal_nan=x.dtype.kind == "f")
        for x, y in zip(vars(a).values(), vars(b).values()))


def test_1_oracle_equivalence():
    """The walk the experiments run matches explicit path enumeration bin
    by bin."""
    rng = np.random.default_rng(2026)
    worst = 0.0
    for stages in range(1, 11):
        t2s = rng.uniform(0.0, 1.0, 20)
        table = bin_probabilities(stages, t2s)
        for t2, a in zip(t2s, table):
            b = path_sum_oracle(stages, t2)
            worst = max(worst, float(np.abs(a - b).max()))
    verdict("1/9 oracle equivalence", worst < 1e-10,
            f"stages 1..10, 20 random couplings each, "
            f"max bin deviation {worst:.2e} (< 1e-10)")


def test_2_unitarity():
    """Every walk distribution carries unit total probability."""
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(1000):
        stages = int(rng.integers(1, 13))
        t2 = float(rng.uniform(0.0, 1.0))
        port = "left" if rng.random() < 0.5 else "right"
        probs = bin_probabilities(stages, t2, port)
        worst = max(worst, abs(float(probs.sum()) - 1.0))
    verdict("2/9 unitarity", worst < 1e-12,
            f"1000 random cases, max |sum - 1| = {worst:.2e} (< 1e-12)")


def test_3_transmission_closure():
    """Fitted coupler transmission recovers the configured value through
    the full pipeline at both calibration wavelengths."""
    ok_all = True
    details = []
    for wl, ref in ((1550.0, 0.763), (1520.0, 0.816)):
        cover = 0
        max_hw = 0.0
        for seed in range(50):
            cfg = config_from_dict("interference", {"wavelength_nm": wl},
                                   seed=seed)
            fit = run_experiment(cfg).report["fit"]
            cover += fit["ci_low"] <= ref <= fit["ci_high"]
            max_hw = max(max_hw, 0.5 * (fit["ci_high"] - fit["ci_low"]))
        ok = cover >= 45 and max_hw <= 0.01
        ok_all = ok_all and ok
        details.append(f"t2={ref}: CI covers in {cover}/50 (need >= 45), "
                       f"max half-width {max_hw:.4f} (<= 0.01)")
    verdict("3/9 transmission closure", ok_all, "; ".join(details))


def test_4_readout_round_trip():
    """Encode then decode returns every event, and the pixel-to-pixel
    arrival-time step is the designed 1.8 ns.  Every decode also returns
    the slot-by-slot reference loop's rows."""
    line = LineConfig()
    sigma = 50e-12  # detector timing jitter the decoder must stay within

    # one event on every pixel
    pixels = np.arange(16, dtype=np.int64)
    times = np.arange(16, dtype=float) * 1e-6
    rec = DetectionRecords(pixels=pixels, times=times,
                           is_dark=np.zeros(16, dtype=bool))
    trace = encode(rec, line)
    dec = decode(trace, line)
    same = int(same_rows(dec, reference_impl.decode(trace, line)))
    ok_pixels = bool(dec.ok.all()) and np.array_equal(
        np.sort(dec.pixels), pixels)
    order = np.argsort(dec.origin_times)
    max_err = float(np.abs(dec.origin_times[order] - times).max())

    # arrival-time differential per pixel, from the decoded pairs
    diff = (trace.times[dec.partner_index[order]]
            - trace.times[dec.trigger_index[order]])
    steps = -np.diff(diff)
    step_err = float(np.abs(steps - 1.8e-9).max())

    # random sparse event sets
    rng = np.random.default_rng(99)
    sets_ok = 0
    n_sets = 10_000
    for _ in range(n_sets):
        n = int(rng.integers(1, 9))
        t = np.sort(rng.uniform(0.0, 5e-5, n))
        px = rng.integers(0, 16, n).astype(np.int64)
        r = DetectionRecords(pixels=px, times=t,
                             is_dark=np.zeros(n, dtype=bool))
        trace = encode(r, line)
        d = decode(trace, line)
        same += same_rows(d, reference_impl.decode(trace, line))
        if not d.ok.all():
            continue
        got = sorted(zip(d.origin_times, d.pixels))
        want = sorted(zip(t, px))
        if all(gp == wp and abs(gt - wt) <= 2 * sigma
               for (gt, gp), (wt, wp) in zip(got, want)):
            sets_ok += 1
    ok = (ok_pixels and max_err <= 2 * sigma and step_err < 1e-15
          and sets_ok == n_sets and same == n_sets + 1)
    verdict("4/9 readout round trip", ok,
            f"16/16 pixels exact, origin error {max_err:.1e} s "
            f"(<= {2 * sigma:.1e}), pixel step within {step_err:.1e} s of "
            f"1.8 ns, {sets_ok}/{n_sets} random sparse sets exact, "
            f"{same}/{n_sets + 1} decodes equal the slot loop's")


def test_5_poisson_counting():
    """At four photons per window the decoded counts stay Poisson."""
    within = 0
    gof_pass = 0
    for seed in range(100):
        # confidence intervals are not inspected here, so a minimal
        # bootstrap keeps the loop fast without changing the estimate
        cfg = config_from_dict("counting", {"n_bootstrap": 10}, seed=seed)
        r = run_experiment(cfg).report
        within += abs(r["fit"]["estimate"] - 4.0) <= 0.06
        gof_pass += r["gof"]["p_value"] >= 0.05
    ok = within >= 90 and gof_pass >= 90
    verdict("5/9 poisson counting", ok,
            f"fitted mean within 4 +/- 0.06 in {within}/100 runs, "
            f"chi-square accepts at 5% in {gof_pass}/100 runs (need >= 90)")


def test_6_saturation():
    """At thirty photons per window dead time bends the counts away from
    Poisson and suppresses the registered mean."""
    rejected = 0
    below = 0
    for seed in range(100):
        cfg = config_from_dict(
            "counting", {"n_bootstrap": 10, "mean_photon_number": 30.0},
            seed=seed)
        r = run_experiment(cfg).report
        rejected += r["gof"]["p_value"] < 0.05
        below += r["sample_mean"] < 30.0
    ok = rejected >= 95 and below == 100
    verdict("6/9 saturation", ok,
            f"chi-square rejects at 5% in {rejected}/100 runs (need >= 95), "
            f"registered mean below 30 in {below}/100 runs")


def test_7_interval_consistency():
    """Window counts and inter-arrival times agree on the photon rate."""
    ok_all = True
    details = []
    for seed in (0, 1, 2):
        cfg = config_from_dict("intervals", {}, seed=seed)
        c = run_experiment(cfg).report["consistency"]
        ok = abs(c["implied_mean"] - 4.0) <= 0.15 and c["ci_overlap"]
        ok_all = ok_all and ok
        details.append(f"seed {seed}: window/tau = {c['implied_mean']:.3f}, "
                       f"CIs overlap: {c['ci_overlap']}")
    verdict("7/9 interval consistency", ok_all,
            "within 4 +/- 0.15 at each seed; " + "; ".join(details))


def test_8_persistence_structure():
    """The overlaid readout trace shows one peak per pixel with the
    designed spacing and attenuation ladder."""
    cfg = config_from_dict("persistence", {})
    r = run_experiment(cfg).report
    spacings = np.asarray(r["peak_spacings_ns"])
    bin_width = cfg.bin_width_ns
    ok = (r["n_peaks"] == 16
          and np.all(np.abs(spacings - 1.8) <= bin_width)
          and r["amplitudes_strictly_decreasing"])
    verdict("8/9 persistence structure", ok,
            f"{r['n_peaks']} peaks (need exactly 16), spacing "
            f"{spacings.min():.3f}..{spacings.max():.3f} ns "
            f"(1.8 +/- {bin_width}), amplitudes strictly decreasing: "
            f"{r['amplitudes_strictly_decreasing']}")


def test_9_determinism():
    """Identical config and seed reproduce every report byte for byte."""
    all_same = True
    details = []
    for experiment in ("interference", "counting", "intervals",
                       "persistence"):
        texts = []
        for _ in range(2):
            cfg = config_from_dict(experiment, {"n_bootstrap": 50}, seed=11)
            texts.append(render_report(run_experiment(cfg).report))
        same = texts[0] == texts[1]
        all_same = all_same and same
        details.append(f"{experiment}: {'identical' if same else 'DIFFERS'}")
    # the simulated streams themselves must agree as well, not only the
    # serialized summaries
    a = simulate_stream(config_from_dict("counting", {}, seed=4))
    b = simulate_stream(config_from_dict("counting", {}, seed=4))
    streams_same = (np.array_equal(a.decoded.pixels, b.decoded.pixels)
                    and (a.decoded.origin_times.tobytes()
                         == b.decoded.origin_times.tobytes())
                    and np.array_equal(a.trace.times, b.trace.times))
    all_same = all_same and streams_same
    verdict("9/9 determinism", all_same,
            "; ".join(details) + f"; raw streams identical: {streams_same}")
