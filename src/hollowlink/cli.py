"""Command-line front end.

Subcommands: ``presets``, ``car-scan``, ``max-distance``, ``simulate``,
``twtt``, ``stability``. All outputs are plot-ready CSV/JSON; idempotent
given identical configuration and seed (pass ``--no-timestamp`` to drop
the one non-deterministic comment line from file outputs).

Exit codes: 0 success, 1 configuration error, 2 numerical or statistical
failure.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import replace
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import coexistence, coincidence, config, event_sim, stability, twtt
from .coexistence import car, max_distance, scan_csv, with_power
from .errors import ConfigError, HollowlinkError
from .event_sim import run_scenario, write_timetags_binary, write_timetags_csv
from .twtt import run_session

SEED_ENV_VAR = "HOLLOWLINK_SEED"

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_NUMERICAL = 2


class _Parser(argparse.ArgumentParser):
    # usage problems are configuration errors under the exit-code contract
    def error(self, message):
        self.print_usage(sys.stderr)
        raise ConfigError(message)


def _parse_range(text: str, name: str):
    """``x`` -> [x]; ``min:max:n`` -> n evenly spaced values."""
    parts = text.split(":")
    try:
        if len(parts) == 1:
            return [float(parts[0])]
        if len(parts) == 3:
            lo, hi, n = float(parts[0]), float(parts[1]), int(parts[2])
            if n < 2 or not lo < hi:
                raise ValueError
            return list(np.linspace(lo, hi, n))
    except ValueError:
        pass
    raise ConfigError(f"bad {name} spec {text!r}; expected VALUE or MIN:MAX:N")


def _load(args) -> config.LoadedConfig:
    if getattr(args, "config", None):
        return config.load_config(args.config)
    name = getattr(args, "preset", None) or "paper-122km"
    return config.load_preset(name)


def _seed(args, cfg) -> int:
    if getattr(args, "seed", None) is not None:
        return args.seed
    env = os.environ.get(SEED_ENV_VAR)
    if env is not None:
        try:
            return int(env)
        except ValueError as exc:
            raise ConfigError(f"{SEED_ENV_VAR} must be an integer") from exc
    return int(cfg.values.get("seed", 0))


def _write_or_stdout(text: str, path: str | None):
    if path:
        Path(path).write_text(text)
    else:
        sys.stdout.write(text)


def _add_source_args(p):
    p.add_argument("--preset", choices=config.PRESET_NAMES, help="shipped preset name")
    p.add_argument("--config", help="config file path (overrides --preset)")


def cmd_presets(args) -> int:
    if args.name:
        sys.stdout.write(config.preset_text(args.name))
        return EXIT_OK
    for name in config.list_presets():
        cfg = config.load_preset(name)
        markers = {}
        for key, marker in cfg.provenance.items():
            if isinstance(marker, str):
                markers[marker] = markers.get(marker, 0) + 1
        tally = ", ".join(f"{k}: {v}" for k, v in sorted(markers.items()))
        print(f"{name:18s} length {cfg.values['length_km']:g} km  ({tally})")
    return EXIT_OK


def cmd_car_scan(args) -> int:
    cfg = _load(args)
    scenario = config.build_scenario(cfg)
    lengths = (
        _parse_range(args.length, "--length")
        if args.length
        else [cfg.values["length_km"]]
    )
    powers = (
        _parse_range(args.power, "--power")
        if args.power
        else [cfg.values["power_fwd_mw"]]
    )
    cars = coexistence.grid(scenario, lengths, powers)
    rows = [
        (length, power, cars[i, j])
        for i, length in enumerate(lengths)
        for j, power in enumerate(powers)
    ]
    text = scan_csv(rows)
    _write_or_stdout(text, args.output)
    if args.gnuplot:
        _write_gnuplot_scan(args.gnuplot, args.output or "scan.csv", lengths, powers)
    return EXIT_OK


def _write_gnuplot_scan(path, csv_path, lengths, powers):
    x_col, x_label = (2, "power_mw") if len(powers) > 1 else (1, "length_km")
    Path(path).write_text(
        "set datafile separator ','\n"
        "set logscale y\n"
        f"set xlabel '{x_label}'\n"
        "set ylabel 'CAR'\n"
        f"plot '{csv_path}' skip 1 using {x_col}:3 with linespoints title 'CAR'\n"
    )


def cmd_max_distance(args) -> int:
    cfg = _load(args)
    scenario = config.build_scenario(cfg)
    if args.power is not None:
        scenario = with_power(scenario, args.power)
    result = max_distance(scenario, args.car_threshold, args.l_hi)
    payload = {
        "distance_km": round(result.distance_km, 3),
        "not_reachable": result.not_reachable,
        "car_threshold": args.car_threshold,
        "power_fwd_mw": scenario.carrier.power_fwd_mw,
    }
    print(json.dumps(payload, sort_keys=True))
    return EXIT_OK


def cmd_simulate(args) -> int:
    cfg = _load(args)
    run = config.build_sim_run(
        cfg, duration_s=args.duration, seed=_seed(args, cfg)
    )
    streams = run_scenario(run)
    outdir = Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    if args.format == "binary":
        for st in streams:
            write_timetags_binary(outdir / f"ch{st.channel_id}.qtags", st)
    else:
        write_timetags_csv(outdir / "timetags.csv", streams)

    scenario = run.scenario
    summary = {
        "scenario_hash": twtt.scenario_hash(run),
        "seed": run.seed,
        "duration_s": run.duration_s,
        "channels": {},
        "car": {},
    }
    for direction, (loc_ch, rem_ch) in event_sim.CHANNELS.items():
        local, remote = streams[loc_ch], streams[rem_ch]
        ds = event_sim.direction_scenario(scenario, direction)
        ana_local, ana_remote = coexistence.singles_rates(ds)
        summary["channels"][direction] = {
            "local_cps_empirical": round(local.rate_cps, 3),
            "local_cps_analytic": round(ana_local, 3),
            "remote_cps_empirical": round(remote.rate_cps, 3),
            "remote_cps_analytic": round(ana_remote, 3),
        }
        entry = {}
        if coexistence.accidental_rate(ds) <= 0.0:
            entry["analytic"] = "unbounded"
            entry["empirical"] = "unbounded"
        else:
            cc_cfg = coincidence.DelayExtractionConfig(
                expected_sigma_ps=max(coexistence.effective_peak_sigma(ds), 1.0)
            )
            value, window_eff, hist, _fit = coincidence.empirical_car(
                local, remote, scenario.window_ps, cc_cfg
            )
            if direction == "ab" and args.histogram:
                Path(args.histogram).write_text(coincidence.histogram_csv(hist))
            if math.isinf(value):
                entry["empirical"] = "unbounded"
            else:
                entry["empirical"] = round(value, 3)
                entry["window_eff_ps"] = window_eff
                entry["analytic"] = round(car(replace(ds, window_ps=window_eff)), 3)
        summary["car"][direction] = entry
    if not args.no_timestamp:
        summary["generated"] = datetime.now(timezone.utc).isoformat(
            timespec="seconds"
        )
    (outdir / "summary.json").write_text(
        json.dumps(summary, indent=2, sort_keys=True) + "\n"
    )
    print(json.dumps(summary, indent=2, sort_keys=True))
    return EXIT_OK


def cmd_twtt(args) -> int:
    cfg = _load(args)
    run = config.build_sim_run(
        cfg,
        duration_s=args.duration,
        seed=_seed(args, cfg),
        clock_offset_ps=args.offset_ps,
        clock_drift_ps_per_s=args.drift_ps_per_s,
        clock_white_pm_sigma_ps=args.wpm_sigma_ps,
    )
    interval = args.interval
    if interval is None:
        interval = cfg.values.get("interval_s", config.SIM_DEFAULTS["interval_s"])
    series = run_session(run, interval)
    text = twtt.offsets_csv(
        series,
        scenario_hash_hex=twtt.scenario_hash(run),
        seed=run.seed,
        timestamp=not args.no_timestamp,
    )
    _write_or_stdout(text, args.out)
    return EXIT_OK


def cmd_stability(args) -> int:
    if args.synth:
        if args.level is None:
            raise ConfigError("--synth needs --level")
        series = stability.synthesize_noise(
            args.synth, args.level, args.tau0, args.n, args.seed or 0
        )
    elif args.input:
        series = stability.PhaseSeries.from_offset_series(
            twtt.read_offsets_csv(args.input)
        )
    else:
        raise ConfigError("stability needs --input or --synth")
    metric = {"tdev": stability.tdev, "adev": stability.adev, "mdev": stability.mdev}[
        args.metric
    ]
    curve = metric(series)
    _write_or_stdout(stability.stability_csv(curve), args.out)
    if args.fit_slope:
        slope, stderr = stability.fit_slope(curve)
        print(f"# fit_slope: {slope:.4f} +- {stderr:.4f}", file=sys.stderr)
    return EXIT_OK


def build_parser() -> _Parser:
    parser = _Parser(prog="hollowlink", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("presets", help="list shipped presets or print one")
    p.add_argument("--name", choices=config.PRESET_NAMES)
    p.set_defaults(func=cmd_presets)

    p = sub.add_parser("car-scan", help="CAR over power/length ranges (CSV)")
    _add_source_args(p)
    p.add_argument("--power", help="mW value or MIN:MAX:N")
    p.add_argument("--length", help="km value or MIN:MAX:N")
    p.add_argument("--output", help="CSV file (default stdout)")
    p.add_argument("--gnuplot", help="also emit a gnuplot script here")
    p.set_defaults(func=cmd_car_scan)

    p = sub.add_parser("max-distance", help="longest span holding a CAR threshold")
    _add_source_args(p)
    p.add_argument("--car-threshold", type=float, required=True)
    p.add_argument("--l-hi", type=float, default=1000.0, help="search ceiling, km")
    p.add_argument("--power", type=float, help="override forward power, mW")
    p.set_defaults(func=cmd_max_distance)

    p = sub.add_parser("simulate", help="Monte Carlo timetag streams + summary")
    _add_source_args(p)
    p.add_argument("--duration", type=float, help="simulated seconds")
    p.add_argument("--seed", type=int)
    p.add_argument("--outdir", default="simout")
    p.add_argument("--format", choices=("binary", "csv"), default="binary")
    p.add_argument("--histogram", help="write the A->B coincidence histogram CSV here")
    p.add_argument("--no-timestamp", action="store_true")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("twtt", help="two-way session -> offset series CSV")
    _add_source_args(p)
    p.add_argument("--duration", type=float, help="simulated seconds")
    p.add_argument("--seed", type=int)
    p.add_argument("--interval", type=float, help="measurement interval, s")
    p.add_argument("--offset-ps", type=float, default=None, dest="offset_ps")
    p.add_argument(
        "--drift-ps-per-s", type=float, default=None, dest="drift_ps_per_s"
    )
    p.add_argument("--wpm-sigma-ps", type=float, default=None, dest="wpm_sigma_ps")
    p.add_argument("--out", help="CSV file (default stdout)")
    p.add_argument("--no-timestamp", action="store_true")
    p.set_defaults(func=cmd_twtt)

    p = sub.add_parser("stability", help="TDEV/ADEV of an offset series")
    p.add_argument("--input", help="offset series CSV")
    p.add_argument("--synth", choices=("white-pm", "white-fm"))
    p.add_argument("--level", type=float, help="synth noise level")
    p.add_argument("--tau0", type=float, default=1.0, help="synth sample interval, s")
    p.add_argument("--n", type=int, default=100_000, help="synth sample count")
    p.add_argument("--seed", type=int)
    p.add_argument("--metric", choices=("tdev", "adev", "mdev"), default="tdev")
    p.add_argument("--fit-slope", action="store_true", dest="fit_slope")
    p.add_argument("--out", help="CSV file (default stdout)")
    p.set_defaults(func=cmd_stability)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except (ConfigError, OSError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (HollowlinkError, ValueError) as exc:
        detail = getattr(exc, "interval_index", None)
        where = f" (interval {detail})" if detail is not None else ""
        print(f"numerical failure{where}: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
