"""End-to-end pass simulation and table emission.

One snapshot per time step inside the visibility window: propagate,
transform into the scene frame, trace the planar wavefront, score the
captured paths, attach per-path Doppler.  Steps are independent, so they
can run on a thread pool, whose ``map`` returns them in time order,
keeping the output byte-identical at any worker count.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from datetime import datetime, timedelta
from pathlib import Path

import numpy as np

from . import frames, link, passes, scene as scene_mod, tracer
from .config import ConfigError, SimConfig
from .link import ChannelSnapshot
from .passes import Ephemeris, PassWindow
from .sgp4 import RE, DecayedOrbit, DeepSpaceUnsupported, sgp4_init
from .tle import Tle, TleError, read_tle_file, read_utf8
from .tracer import SatelliteBelowHorizon


@dataclass(frozen=True)
class PassReport:
    window: PassWindow
    snapshots: tuple[ChannelSnapshot, ...]


def _fmt(x: float) -> str:
    """Fixed nine-significant-digit record format (bit-exact goldens)."""
    return f"{x:.8e}"


def _build_scene(config: SimConfig) -> scene_mod.Scene:
    """The configured scene.  A scene file that cannot be read, is not
    UTF-8 text or holds a bad line is a config error that names the file
    once; the city keys were checked with the rest of the config."""
    if config.scene_file:
        try:
            text = read_utf8(config.scene_file)
        except (OSError, ValueError) as exc:
            # both messages already name the file
            raise ConfigError(f"cannot read scene_file: {exc}") from None
        try:
            return scene_mod.scene_from_text(text)
        except ValueError as exc:
            raise ConfigError(f"scene_file {config.scene_file}: {exc}") \
                from None
    return scene_mod.generate_city(config)


def _empty_snapshot(t: datetime, elevation_rad: float) -> ChannelSnapshot:
    return ChannelSnapshot(t=t, elevation_deg=math.degrees(elevation_rad),
                           paths=(), total_power_dbm=float("nan"),
                           rms_delay_spread_ns=float("nan"))


def simulate_snapshot(t: datetime, ephem: Ephemeris,
                      local_frame: frames.LocalFrame, city: scene_mod.Scene,
                      receiver: np.ndarray,
                      config: SimConfig) -> ChannelSnapshot:
    """One fully scored channel snapshot (empty if the satellite is not
    usable at this instant: below horizon or totally blocked).

    The elevation is taken at the local frame's origin, the site; the
    tracer, Doppler and link budget read their settings from ``config``.
    """
    ecef = ephem.ecef_at(t)
    elevation = passes.elevation(local_frame.origin_ecef, ecef.position)
    if elevation <= 0.0:
        return _empty_snapshot(t, elevation)
    local = frames.global_to_local(ecef, local_frame)
    try:
        plane = tracer.build_launch_plane(local, city, config.spacing_m)
    except SatelliteBelowHorizon:
        return _empty_snapshot(t, elevation)
    paths = tracer.trace(plane, city, receiver,
                         rx_radius_m=config.effective_rx_radius_m,
                         max_bounces=config.max_bounces)
    if not paths:
        return _empty_snapshot(t, elevation)
    dopplers = [passes.per_path_doppler(p, local.velocity,
                                        config.fc_mhz * 1e6)
                for p in paths]
    return link.build_snapshot(t, elevation, paths, config, dopplers)


def first_element_set(path) -> Tle:
    """The first element set in a TLE file.  A file that cannot be read,
    holds a damaged set or holds none is a config error, and so is a set
    that SGP4 refuses from its elements alone, before any propagation: a
    deep-space period or a perigee at or below the surface."""
    try:
        tles = read_tle_file(path)
    except (OSError, TleError) as exc:
        raise ConfigError(f"cannot read element sets: {exc}") from None
    if not tles:
        raise ConfigError(f"no element sets in {path}")
    try:
        sgp4_init(tles[0])
    except (DeepSpaceUnsupported, DecayedOrbit) as exc:
        raise ConfigError(f"{path}: element set {tles[0].satnum} cannot "
                          f"be propagated: {exc}") from None
    return tles[0]


def _check_plane_wave(config: SimConfig, city: scene_mod.Scene,
                      ephem: Ephemeris,
                      local_frame: frames.LocalFrame) -> None:
    """Refuse, before any propagation, a scene too tall for the
    plane-wave launch at the element set's mean perigee.  Its radius,
    less the site's geocentric radius, bounds the satellite's distance
    from the site from below, up to SGP4's short-period terms, so
    ``tracer.build_launch_plane`` keeps its own check."""
    height = float(city.bounds[1, 2] - city.bounds[0, 2])
    need = tracer.plane_wave_min_distance(height)
    perigee = (ephem.state.ao * (1.0 - ephem.state.ecco) * RE
               - float(np.linalg.norm(local_frame.origin_ecef)))
    if perigee < need:
        source = _scene_source(
            config, "scene_h_max_m" if config.scene_height_law == "uniform"
            else "scene_h_const_m")
        raise ConfigError(
            f"{source}: a scene {height:.6g} km tall needs the satellite "
            f"at least {need:.6g} km away for the plane-wave launch, but "
            f"element set {ephem.tle.satnum} has its mean perigee "
            f"{perigee:.6g} km above the site")


def _scene_source(config: SimConfig, city_keys: str) -> str:
    """The config's scene, for a message: its file, or else the keys of
    the generated city that the message is about."""
    return (f"scene_file {config.scene_file}" if config.scene_file
            else city_keys)


def _check_launch_grid(config: SimConfig, city: scene_mod.Scene) -> None:
    """Refuse, before any propagation, a launch grid that could exceed
    ``tracer.MAX_LAUNCH_RAYS`` rays from some direction."""
    rays = tracer.launch_grid_bound(city, config.spacing_m)
    if rays > tracer.MAX_LAUNCH_RAYS:
        source = _scene_source(config, "the generated city (scene_grid_nx, "
                               "scene_grid_ny, scene_block_w_m, "
                               "scene_street_w_m)")
        raise ConfigError(
            f"spacing_m = {config.spacing_m:g} over {source}: the launch "
            f"grid can reach {rays:.3g} rays, more than the "
            f"{tracer.MAX_LAUNCH_RAYS} a run allows; raise spacing_m or "
            f"shrink the scene")


def prepare_pass(config: SimConfig) -> tuple[
        PassWindow, Callable[[datetime], ChannelSnapshot]]:
    """Turn a config into its first pass window and a call that
    simulates one instant.

    The ephemeris, scene, local frame (whose origin is the site) and
    receiver are built once here; they and the frozen config are only
    read by the call, so it may run on several threads at once.  A scene
    too tall for the element set's perigee, or whose launch grid could
    be too large, fails before the pass search.
    """
    tle = first_element_set(config.tle_path)
    city = _build_scene(config)
    ephem = Ephemeris(tle)
    local_frame = frames.build_local_frame(config.site_geodetic)
    _check_plane_wave(config, city, ephem, local_frame)
    _check_launch_grid(config, city)
    window = passes.find_pass(tle, config.site_geodetic,
                              theta_min=math.radians(config.theta_min_deg),
                              ephemeris=ephem)
    receiver = np.array([config.rx_x_m, config.rx_y_m, config.rx_z_m]) / 1e3

    def snapshot(t: datetime) -> ChannelSnapshot:
        return simulate_snapshot(t, ephem, local_frame, city, receiver,
                                 config)

    return window, snapshot


def run_pass_simulation(config: SimConfig) -> PassReport:
    """Find the first pass and simulate every time step inside it."""
    window, job = prepare_pass(config)
    n_steps = int(math.floor(
        (window.t_end - window.t_start).total_seconds() / config.time_step_s))
    times = [window.t_start + timedelta(seconds=config.time_step_s * k)
             for k in range(n_steps + 1)]

    # One worker runs inline: a one-thread pool raised the demo's peak RSS
    # from 40.5 to 41.2-41.4 MB in 3 of 3 runs (2 vCPU Xeon, numpy
    # 2.4.6), likely because the worker thread gets its own malloc arena.
    if config.jobs > 1:
        with ThreadPoolExecutor(max_workers=config.jobs) as pool:
            result = tuple(pool.map(job, times))
    else:
        result = tuple(job(t) for t in times)

    return PassReport(window=window, snapshots=result)


def _utc_str(t: datetime) -> str:
    return t.strftime("%Y-%m-%dT%H:%M:%S.%f")


def emit_outputs(report: PassReport, out_dir,
                 steps_only: bool) -> list[Path]:
    """Write the analysis tables; returns the created file paths.

    pass_summary.csv   window geometry, one key,value row per line
    timeseries.csv     per-step aggregates (7 columns)
    paths.csv          per-path records
    delay_spread_cdf.csv  empirical CDF of snapshot RMS delay spreads
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    w = report.window
    created = []

    summary = out / "pass_summary.csv"
    with summary.open("w", newline="") as fh:
        fh.write("key,value\n")
        fh.write(f"t_start_utc,{_utc_str(w.t_start)}\n")
        fh.write(f"t_end_utc,{_utc_str(w.t_end)}\n")
        fh.write(f"t0_utc,{_utc_str(w.t0)}\n")
        fh.write(f"theta_max_deg,{_fmt(math.degrees(w.theta_max))}\n")
        fh.write(f"theta_min_deg,{_fmt(math.degrees(w.theta_min))}\n")
        fh.write(f"gamma_t0_deg,{_fmt(math.degrees(w.gamma_t0))}\n")
        fh.write(f"t_du_scan_min,{_fmt(w.t_du_min)}\n")
        fh.write(f"t_du_analytic_min,{_fmt(w.t_du_analytic_min)}\n")
        fh.write(f"n_snapshots,{len(report.snapshots)}\n")
    created.append(summary)

    timeseries = out / "timeseries.csv"
    with timeseries.open("w", newline="") as fh:
        fh.write("t_s,elevation_deg,n_paths,total_power_dbm,rms_ds_ns,"
                 "doppler_min_hz,doppler_max_hz\n")
        for snap in report.snapshots:
            t_s = (snap.t - w.t_start).total_seconds()
            if snap.paths:
                dmin = min(p.doppler_hz for p in snap.paths)
                dmax = max(p.doppler_hz for p in snap.paths)
            else:
                dmin = dmax = float("nan")
            fh.write(",".join([
                _fmt(t_s), _fmt(snap.elevation_deg), str(len(snap.paths)),
                _fmt(snap.total_power_dbm), _fmt(snap.rms_delay_spread_ns),
                _fmt(dmin), _fmt(dmax)]) + "\n")
    created.append(timeseries)

    if steps_only:
        return created

    paths_file = out / "paths.csv"
    with paths_file.open("w", newline="") as fh:
        fh.write("t_s,path_id,bounce_count,delay_us,power_dbm,doppler_hz\n")
        for snap in report.snapshots:
            t_s = (snap.t - w.t_start).total_seconds()
            for pid, p in enumerate(snap.paths):
                fh.write(",".join([
                    _fmt(t_s), str(pid), str(p.record.bounce_count),
                    _fmt(p.delay_us), _fmt(p.power_dbm),
                    _fmt(p.doppler_hz)]) + "\n")
    created.append(paths_file)

    cdf_file = out / "delay_spread_cdf.csv"
    spreads = sorted(s.rms_delay_spread_ns for s in report.snapshots
                     if s.paths)
    with cdf_file.open("w", newline="") as fh:
        fh.write("rms_ds_ns,cdf\n")
        n = len(spreads)
        for i, v in enumerate(spreads):
            fh.write(f"{_fmt(v)},{_fmt((i + 1) / n)}\n")
    created.append(cdf_file)
    return created


def dump_debug_paths(report: PassReport, out_dir) -> Path:
    """Tracer-level debug dump: launch index, bounces, interaction
    points and near-ground length for every kept path."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    fp = out / "paths_debug.txt"
    with fp.open("w", newline="") as fh:
        for snap in report.snapshots:
            t_s = (snap.t - report.window.t_start).total_seconds()
            fh.write(f"# t_s={_fmt(t_s)}\n")
            fh.write(tracer.dump_paths([p.record for p in snap.paths]))
    return fp
