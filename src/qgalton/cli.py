"""Command line interface.

Subcommands cover the walk solver, the four canned experiments, the three
fitters, and a standalone trace decoder.  Every command prints a JSON
report to stdout; --out writes report.json (and tables with --format csv)
into a directory.

Exit codes: 0 success, 2 configuration or validation problems, 3 trace
decoding failures, 4 resource limits.
"""

from __future__ import annotations

import argparse
import json
import math
import re
import sys
from dataclasses import asdict, fields
from pathlib import Path

import numpy as np

from .errors import QGaltonError, ResourceLimitError
from .experiments import (
    _EXPERIMENT_DEFAULTS,
    EXPERIMENTS,
    ExperimentConfig,
    ExperimentOutput,
    check_value,
    config_from_dict,
    key_type,
    load_config,
    render_report,
    run_experiment,
    write_outputs,
)
from .readout import (FLAG_NAMES, FLAG_TEXT, LineConfig, TraceEvents, decode,
                      flag_summary)
from .source import t2_of_wavelength
from .stats import fit_exponential, fit_poisson, fit_t2
from .walk import bin_probabilities, path_sum_oracle

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DECODE = 3
EXIT_RESOURCE = 4


class DecodeFailure(Exception):
    """Raised by decode-trace when no usable events come out."""


def _read_numbers(path: str) -> np.ndarray:
    """Numbers from a JSON array file or whitespace/comma separated text."""
    text = Path(path).read_text()
    stripped = text.lstrip()
    if stripped.startswith("["):
        # an integer past the float range reads as inf, which is refused
        try:
            values = json.loads(text, parse_int=float)
        except json.JSONDecodeError as exc:
            raise QGaltonError(f"{path}: {exc}") from None
        if not all(type(v) is float for v in values):
            raise QGaltonError(f"{path}: expected a flat array of numbers")
        return np.asarray(values, dtype=float)
    tokens = [t for t in re.split(r"[,\s]+", text.strip()) if t]
    values = []
    for place, token in enumerate(tokens, 1):
        try:
            values.append(float(token))
        except ValueError:
            raise QGaltonError(
                f"{path}: item {place}, {token!r}, is not a number") from None
    return np.asarray(values, dtype=float)


def _read_trace(path: str) -> TraceEvents:
    """Trace from a two-column CSV (time_ns, amplitude), header optional:
    the first non-blank line may be one."""
    times = []
    amps = []
    lines = [line.strip() for line in Path(path).read_text().splitlines()]
    first = next((n for n, line in enumerate(lines) if line), None)
    for line_no, line in enumerate(lines):
        if not line:
            continue
        parts = line.split(",")
        if len(parts) != 2:
            raise DecodeFailure(
                f"{path}:{line_no + 1}: expected two comma-separated columns"
            )
        try:
            t, a = float(parts[0]), float(parts[1])
        except ValueError:
            if line_no == first:
                continue  # header row
            raise DecodeFailure(
                f"{path}:{line_no + 1}: could not parse {line!r}"
            ) from None
        if not (math.isfinite(t) and math.isfinite(a)):
            raise DecodeFailure(
                f"{path}:{line_no + 1}: time and amplitude must be finite, "
                f"got {line!r}")
        times.append(t * 1e-9)
        amps.append(a)
    if not times:
        raise DecodeFailure(f"{path}: no pulses found")
    return TraceEvents(np.asarray(times), np.asarray(amps))


def _emit(report: dict, tables: dict, args) -> None:
    """Write the outputs, then the report text to stdout: with --out, the
    text of the report.json just written, rendered once."""
    written = write_outputs(ExperimentOutput(report, tables), args.out,
                            args.format)
    if written:
        with open(written[0]) as fh:
            text = fh.read()
    else:
        text = render_report(report)
    sys.stdout.write(text)


def cmd_simulate_walk(args) -> int:
    if args.t_squared is not None and args.wavelength_nm is not None:
        raise QGaltonError("give --t-squared or --wavelength-nm, not both")
    t2 = args.t_squared
    if t2 is None:
        t2 = t2_of_wavelength(
            _EXPERIMENT_DEFAULTS["interference"]["wavelength_nm"]
            if args.wavelength_nm is None else args.wavelength_nm)
    probs = bin_probabilities(args.stages, t2, args.input_port)
    report = {
        "stages": args.stages,
        "t_squared": t2,
        "input_port": args.input_port,
        "n_bins": probs.size,
        "probabilities": probs.tolist(),
    }
    if args.check_oracle:
        oracle = path_sum_oracle(args.stages, t2, args.input_port)
        report["oracle_max_abs_diff"] = float(np.abs(probs - oracle).max())
    tables = {"distribution": (["bin", "probability"],
                               [np.arange(probs.size), probs])}
    _emit(report, tables, args)
    return EXIT_OK


def cmd_run(args) -> int:
    if args.config:
        config = load_config(args.config, args.experiment, seed=args.seed)
    else:
        config = config_from_dict(args.experiment, {}, seed=args.seed)
    output = run_experiment(config)
    _emit(output.report, output.tables, args)
    return EXIT_OK


def _read_counts(path: str, what: str) -> np.ndarray:
    """Integer counts from a `_read_numbers` file, refused unless exact."""
    values = _read_numbers(path)
    # NaN fails the comparison too; checked before the cast, which warns
    if not np.all(np.abs(values) < 2.0**63):
        raise QGaltonError(f"{what} must be finite integers below 2**63")
    counts = values.astype(np.int64)
    if np.any(values != counts):
        raise QGaltonError(f"{what} must be integers")
    return counts


def cmd_fit_t2(args) -> int:
    counts = _read_counts(args.input, "histogram entries")
    fit = fit_t2(counts, n_bootstrap=args.bootstrap, seed=args.seed,
                 input_port=args.input_port)
    _emit({"fit": asdict(fit)}, {}, args)
    return EXIT_OK


def cmd_fit_poisson(args) -> int:
    counts = _read_counts(args.input, "window counts")
    fit = fit_poisson(counts, n_bootstrap=args.bootstrap, seed=args.seed)
    _emit({"fit": asdict(fit)}, {}, args)
    return EXIT_OK


def cmd_fit_exponential(args) -> int:
    gaps = _read_numbers(args.input)
    fit = fit_exponential(gaps, n_bootstrap=args.bootstrap, seed=args.seed)
    report = {"fit": asdict(fit), "units": "same as input (ns expected)"}
    _emit(report, {}, args)
    return EXIT_OK


def cmd_decode_trace(args) -> int:
    line = LineConfig(
        segment_delay=args.segment_delay_ns * 1e-9,
        pixel_count=args.pixel_count,
        trigger_polarity=args.trigger_polarity,
    )
    trace = _read_trace(args.input)
    try:
        dec = decode(trace, line)
    except ResourceLimitError:
        raise
    except QGaltonError as exc:
        raise DecodeFailure(str(exc)) from exc
    if len(dec) == 0 or not dec.ok.any():
        raise DecodeFailure("no pulse pairs decoded from the trace")
    report = {
        "n_pulses": len(trace),
        "n_events": len(dec),
        "n_ok": int(dec.ok.sum()),
        "flags": flag_summary(dec.flags),
        "events": [
            {"pixel": int(px), "origin_time_ns": None if np.isnan(t) else t * 1e9,
             "flag": FLAG_NAMES[fl]}
            for px, t, fl in zip(dec.pixels, dec.origin_times, dec.flags)
        ],
    }
    # orphans have no origin time: their cells print nan
    tables = {"events": (["pixel", "origin_time_ns", "flag"],
                         [dec.pixels, dec.origin_times * 1e9,
                          FLAG_TEXT[dec.flags]])}
    _emit(report, tables, args)
    return EXIT_OK


def _add_common_output(p: argparse.ArgumentParser) -> None:
    p.add_argument("--out", default=None, help="directory for output files")
    p.add_argument("--format", default="json", choices=("json", "csv"),
                   help="output layout: json writes report.json only, csv "
                        "adds the tables")


def _add_settings(p: argparse.ArgumentParser, *flags: str) -> None:
    """One option per flag for the config key it names (``--bootstrap``
    sets ``n_bootstrap``), with that key's type and default.  `main` holds
    each to the key's bound in the order given, so with two bad options
    the first given here is the one refused."""
    defaults = {f.name: f.default for f in fields(ExperimentConfig)}
    settings = []
    for flag in flags:
        key = ("n_bootstrap" if flag == "--bootstrap"
               else flag[2:].replace("-", "_"))
        action = p.add_argument(flag, type=key_type(key),
                                default=defaults[key])
        settings.append((key, flag, action.dest))
    p.set_defaults(settings=settings)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qgalton",
        description="Photonic Galton board simulator and analysis tools",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate-walk",
                       help="bin distribution out of the coupler mesh")
    _add_settings(p, "--input-port", "--wavelength-nm", "--stages",
                  "--t-squared")
    p.add_argument("--check-oracle", action="store_true",
                   help="cross-check against explicit path enumeration")
    _add_common_output(p)
    p.set_defaults(func=cmd_simulate_walk)

    p = sub.add_parser("run", help="run a full experiment")
    p.add_argument("experiment", choices=EXPERIMENTS)
    p.add_argument("--config", default=None, help="JSON config file")
    p.add_argument("--seed", type=key_type("seed"),
                   help="override the config seed")
    _add_common_output(p)
    p.set_defaults(func=cmd_run)

    for command, func, summary, input_help, flags in (
            ("fit-t2", cmd_fit_t2,
             "fit coupler transmission to a bin histogram",
             "JSON array or whitespace separated counts", ["--input-port"]),
            ("fit-poisson", cmd_fit_poisson,
             "fit a Poisson mean to per-window counts", None, []),
            ("fit-exponential", cmd_fit_exponential,
             "fit an exponential mean to inter-arrival gaps",
             "gaps in nanoseconds", [])):
        p = sub.add_parser(command, help=summary)
        p.add_argument("--input", required=True, help=input_help)
        _add_settings(p, *flags, "--seed", "--bootstrap")
        _add_common_output(p)
        p.set_defaults(func=func)

    p = sub.add_parser("decode-trace",
                       help="recover events from a pulse-train CSV")
    p.add_argument("--input", required=True,
                   help="CSV with time_ns,amplitude columns")
    _add_settings(p, "--trigger-polarity", "--segment-delay-ns",
                  "--pixel-count")
    _add_common_output(p)
    p.set_defaults(func=cmd_decode_trace)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        # every option that sets a config key, before any input is read
        for key, flag, dest in getattr(args, "settings", ()):
            check_value(key, getattr(args, dest), flag)
        return args.func(args)
    except ResourceLimitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except DecodeFailure as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DECODE
    except (QGaltonError, OSError, json.JSONDecodeError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
