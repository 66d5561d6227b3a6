"""Command-line entry points.

    leochan simulate --config sim.cfg [--out DIR] [--steps-only]
                     [--dump-paths] [--jobs N]
    leochan pass --tle file.tle --site LAT,LON,ALT_KM [--min-elev DEG]
    leochan trace-once --config sim.cfg --at-minute M

Exit codes: 0 success, 2 configuration error, 3 no pass found,
4 simulation runtime error.
"""

from __future__ import annotations

import argparse
import dataclasses
import math
import sys
from datetime import timedelta

from .config import ConfigError, parse_config
from .passes import SCAN_STEP_S, NoPassFound, find_pass
from .simulate import (dump_debug_paths, emit_outputs, first_element_set,
                       prepare_pass, run_pass_simulation)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NO_PASS = 3
EXIT_RUNTIME = 4


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="leochan",
        description="LEO satellite-to-ground multipath channel simulator")
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser("simulate", help="simulate a full pass")
    p_sim.add_argument("--config", required=True)
    p_sim.add_argument("--out", default=None,
                       help="output directory (default: config output_dir)")
    p_sim.add_argument("--steps-only", action="store_true",
                       help="emit only the summary and timeseries tables")
    p_sim.add_argument("--dump-paths", action="store_true",
                       help="also write the tracer debug dump")
    p_sim.add_argument("--jobs", type=int, default=None,
                       help="processes for the time steps: this one and "
                            "N - 1 forked workers (Linux; elsewhere this "
                            "one alone); the output is identical at any N")
    p_sim.set_defaults(run=_cmd_simulate)

    p_pass = sub.add_parser("pass", help="print the next visibility window")
    p_pass.add_argument("--tle", required=True)
    p_pass.add_argument("--site", required=True,
                        help="lat_deg,lon_deg,alt_km")
    p_pass.add_argument("--min-elev", type=float, default=0.0)
    p_pass.add_argument("--step", type=float, default=SCAN_STEP_S,
                        help="scan step, seconds")
    p_pass.set_defaults(run=_cmd_pass)

    p_once = sub.add_parser("trace-once",
                            help="trace a single instant of the pass")
    p_once.add_argument("--config", required=True)
    p_once.add_argument("--at-minute", type=float, required=True,
                        help="minutes after the window start")
    p_once.set_defaults(run=_cmd_trace_once)
    return parser


def _cmd_simulate(args) -> int:
    config = parse_config(args.config)
    if args.jobs is not None:
        config = dataclasses.replace(config, jobs=args.jobs)
    out_dir = args.out if args.out is not None else config.output_dir
    report = run_pass_simulation(config)
    files = emit_outputs(report, out_dir, steps_only=args.steps_only)
    if args.dump_paths:
        files.append(dump_debug_paths(report, out_dir))
    for fp in files:
        print(fp)
    return EXIT_OK


def _cmd_pass(args) -> int:
    parts = args.site.split(",")
    if len(parts) != 3:
        raise ConfigError("--site expects lat_deg,lon_deg,alt_km")
    try:
        site = (float(parts[0]), float(parts[1]), float(parts[2]))
    except ValueError:
        raise ConfigError(f"bad --site value: {args.site!r}") from None
    if not all(map(math.isfinite, site)) or not -90.0 <= site[0] <= 90.0:
        raise ConfigError(f"bad --site value: {args.site!r}")
    if not 0.0 <= args.min_elev < 90.0:
        raise ConfigError("--min-elev must be in [0, 90)")
    if not 0.0 < args.step < math.inf:
        raise ConfigError("--step must be positive and finite")
    tle = first_element_set(args.tle)
    window = find_pass(tle, site, theta_min=math.radians(args.min_elev),
                       step_s=args.step)
    print(f"satellite      {tle.name or tle.satnum}")
    print(f"rise           {window.t_start.isoformat()}")
    print(f"culminate      {window.t0.isoformat()}")
    print(f"set            {window.t_end.isoformat()}")
    print(f"max elevation  {math.degrees(window.theta_max):.3f} deg")
    print(f"duration       {window.t_du_min:.3f} min "
          f"(closed form {window.t_du_analytic_min:.3f} min)")
    return EXIT_OK


def _cmd_trace_once(args) -> int:
    if not 0.0 <= args.at_minute < math.inf:
        raise ConfigError("--at-minute must be non-negative and finite")
    config = parse_config(args.config)
    window, snapshot = prepare_pass(config)
    # compared in minutes, so that no value past the window reaches
    # timedelta, which overflows
    if args.at_minute > window.t_du_min:
        raise ConfigError(
            f"--at-minute {args.at_minute} falls outside the "
            f"{window.t_du_min:.2f} min window")
    snap = snapshot(window.t_start + timedelta(minutes=args.at_minute))
    print(f"t              {snap.t.isoformat()}")
    print(f"elevation      {snap.elevation_deg:.4f} deg")
    print(f"paths          {len(snap.paths)}")
    if snap.paths:
        print(f"total power    {snap.total_power_dbm:.4f} dBm")
        print(f"rms ds         {snap.rms_delay_spread_ns:.4f} ns")
        print("bounces  delay_us      power_dbm    doppler_hz")
        for p in snap.paths:
            print(f"{p.record.bounce_count:7d}  {p.delay_us:12.6f} "
                  f"{p.power_dbm:12.4f} {p.doppler_hz:13.4f}")
    return EXIT_OK


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.run(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except NoPassFound as exc:
        print(f"no pass: {exc}", file=sys.stderr)
        return EXIT_NO_PASS
    except Exception as exc:  # simulation failure with context
        print(f"simulation error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
