"""Workload inputs, one timed iteration, and the per-op output check.

Inputs come from the benchmark seed alone; the program only receives the
config and element-set text written here.  An op is one snapshot
(``demo_pass``, ``dense_city``) or one pass search (``pass_search``).
Each op's output bytes are compared with the golden reference for its
seed when one is recorded, and otherwise with the first iteration of the
same run.
"""

from __future__ import annotations

import contextlib
import io
import math
import random
import shutil
from dataclasses import dataclass
from datetime import datetime, timedelta, timezone
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
GOLDEN_DIR = HERE / "golden"
INPUTS_DIR = HERE / "inputs"

SIM_TABLES = ("pass_summary.csv", "timeseries.csv", "paths.csv",
              "delay_spread_cdf.csv")

NAMES = ("demo_pass", "dense_city", "pass_search")


@dataclass(frozen=True)
class Simulate:
    """A ``leochan simulate`` run of one config."""

    name: str
    config_text: str
    tle_text: str
    jobs: int
    golden_key: str


@dataclass(frozen=True)
class PassSearch:
    """``find_pass`` (the ``leochan pass`` path) over several element
    sets; each search is (lat_deg, lon_deg, alt_km, min_elev_deg)."""

    name: str
    tle_text: str
    searches: tuple[tuple[float, float, float, float], ...]
    golden_key: str


@dataclass
class Outputs:
    ops: list[str]               # output bytes of each op, in op order
    tables: dict[str, str]       # tables that belong to the whole run
    bad: set[int]                # ops that fail a self-consistency check


# -- input generation -------------------------------------------------------

def _sub_rng(name: str, seed: int) -> random.Random:
    return random.Random(f"{name}/{seed}")


def demo_pass() -> Simulate:
    return Simulate("demo_pass",
                    (INPUTS_DIR / "demo_sim.cfg").read_text(),
                    (INPUTS_DIR / "demo.tle").read_text(),
                    jobs=1, golden_key="fixed")


def dense_city(seed: int, nproc: int, grid: int = 20, spacing_m: int = 56,
               step_s: int = 60, bounces: int = 3) -> Simulate:
    city_seed = _sub_rng("dense_city", seed).randrange(1 << 31)
    config = (
        "# dense_city: the demo pass over a larger seeded city\n"
        "tle_path = demo.tle\n"
        "site_lat_deg = 1.9\n"
        "site_lon_deg = 0.7791238226849033\n"
        f"scene_grid_nx = {grid}\nscene_grid_ny = {grid}\n"
        f"time_step_s = {step_s}\nspacing_m = {spacing_m}\n"
        f"max_bounces = {bounces}\nseed = {city_seed}\n")
    return Simulate("dense_city", config,
                    (INPUTS_DIR / "demo.tle").read_text(),
                    jobs=nproc,
                    golden_key=f"seed-{seed}")


# WGS-72 two-body constants, as the element sets' mean motion assumes.
_MU_KM3_S2 = 398600.8
_RE_KM = 6378.135
_EPOCH = datetime(2023, 6, 1, tzinfo=timezone.utc)


def _tle_checksum(line: str) -> int:
    return sum(int(c) if c.isdigit() else c == "-" for c in line) % 10


def _circular_tle(satnum: int, incl: float, raan: float, ma: float,
                  mean_motion: float) -> str:
    day = (_EPOCH - _EPOCH.replace(month=1, day=1)).days + 1.0
    line1 = (f"1 {satnum:05d}U 00001A   {_EPOCH.year % 100:02d}{day:012.8f}"
             "  .00000000  00000+0  00000+0 0  999")
    line2 = (f"2 {satnum:05d} {incl:8.4f} {raan:8.4f} 0000000   0.0000"
             f" {ma:8.4f} {mean_motion:11.8f}    1")
    return (f"PS-{satnum}\n{line1}{_tle_checksum(line1)}\n"
            f"{line2}{_tle_checksum(line2)}\n")


def _ground_point(incl: float, raan: float, ma: float, mean_motion: float,
                  minutes: float) -> tuple[float, float]:
    """Two-body sub-satellite point (deg) of a circular orbit, close
    enough to the propagated track to put a site under the pass."""
    t = _EPOCH + timedelta(minutes=minutes)
    u = math.radians(ma) + mean_motion * 2.0 * math.pi / 1440.0 * minutes
    i = math.radians(incl)
    lat = math.asin(math.sin(i) * math.sin(u))
    ra = math.radians(raan) + math.atan2(math.cos(i) * math.sin(u),
                                         math.cos(u))
    jd = 2440587.5 + t.timestamp() / 86400.0
    gmst = math.radians(280.46061837 + 360.98564736629 * (jd - 2451545.0))
    lon = (math.degrees(ra - gmst) + 180.0) % 360.0 - 180.0
    return math.degrees(lat), lon


def pass_search(seed: int, searches: int = 4) -> PassSearch:
    rng = _sub_rng("pass_search", seed)
    tles, sites = [], []
    for k in range(searches):
        alt = rng.uniform(400.0, 1200.0)
        incl = round(rng.uniform(0.0, 98.0), 4)
        raan = round(rng.uniform(0.0, 360.0), 4) % 360.0
        ma = round(rng.uniform(0.0, 360.0), 4) % 360.0
        n = (math.sqrt(_MU_KM3_S2 / (_RE_KM + alt) ** 3)
             * 86400.0 / (2.0 * math.pi))
        n = round(n, 8)
        tles.append(_circular_tle(91000 + k, incl, raan, ma, n))
        lat, lon = _ground_point(incl, raan, ma, n, minutes=25.0)
        lat = max(-89.0, min(89.0, lat + rng.uniform(-1.0, 1.0)))
        sites.append((round(lat, 6), round(lon, 6), 0.0,
                      float(rng.choice((0, 5, 10)))))
    return PassSearch("pass_search", "".join(tles), tuple(sites),
                      golden_key=f"seed-{seed}")


def build(name: str, seed: int, nproc: int):
    if name == "demo_pass":
        return demo_pass()
    if name == "dense_city":
        return dense_city(seed, nproc)
    if name == "pass_search":
        return pass_search(seed)
    raise ValueError(f"unknown workload {name!r}; choose from {NAMES}")


def write_inputs(wl, work: Path) -> None:
    if isinstance(wl, PassSearch):
        (work / "sets.tle").write_text(wl.tle_text)
        return
    (work / "sim.cfg").write_text(wl.config_text)
    (work / "demo.tle").write_text(wl.tle_text)


# -- set-up and one iteration -------------------------------------------------

def setup_once(wl, work: Path) -> None:
    """Config parse, element-set read, ``sgp4_init`` and the program's
    own scene build (``simulate._build_scene``)."""
    from leochan import config as config_mod, passes, simulate, tle

    if isinstance(wl, PassSearch):
        for t in tle.read_tle_file(work / "sets.tle"):
            passes.Ephemeris(t)
        return
    cfg = config_mod.parse_config(work / "sim.cfg")
    passes.Ephemeris(tle.read_tle_file(cfg.tle_path)[0])
    simulate._build_scene(cfg)


def run_once(wl, work: Path) -> tuple[float, Outputs | None]:
    """One workload run, timed from input parse to the last output."""
    if isinstance(wl, PassSearch):
        return _run_pass_search(wl, work)
    from leochan import cli

    out = work / "out"
    shutil.rmtree(out, ignore_errors=True)
    argv = ["simulate", "--config", str(work / "sim.cfg"), "--out", str(out),
            "--jobs", str(wl.jobs)]
    start = perf_counter()
    with contextlib.redirect_stdout(io.StringIO()):
        rc = cli.main(argv)
    wall = perf_counter() - start
    if rc != 0:
        return wall, None
    try:
        return wall, read_simulate(out)
    except (OSError, ValueError, IndexError):  # a table missing or malformed
        return wall, None


def _run_pass_search(wl: PassSearch, work: Path):
    from leochan import passes, tle

    rows = []
    start = perf_counter()
    sets = tle.read_tle_file(work / "sets.tle")
    for t, (lat, lon, alt, min_elev) in zip(sets, wl.searches):
        try:
            w = passes.find_pass(t, (lat, lon, alt),
                                 theta_min=math.radians(min_elev),
                                 step_s=30.0)
        except Exception as exc:  # a failed search is a failed op
            rows.append(f"error,{type(exc).__name__}")
            continue
        rows.append(",".join(
            [w.t_start.isoformat(), w.t_end.isoformat(), w.t0.isoformat()]
            + [repr(float(x)) for x in (w.theta_max, w.theta_min, w.gamma_t0,
                                        w.t_du_min, w.t_du_analytic_min)]))
    wall = perf_counter() - start
    rows += ["error,missing"] * (len(wl.searches) - len(rows))
    return wall, Outputs(rows, {}, _bad_windows(rows))


# -- output parsing and checks ------------------------------------------------

WINDOW_HEADER = ("t_start,t_end,t0,theta_max,theta_min,gamma_t0,t_du_min,"
                 "t_du_analytic_min")
C04_LIMIT = 0.05  # closed-form vs scanned duration, as acceptance C04


def _bad_windows(rows: list[str]) -> set[int]:
    bad = set()
    for k, row in enumerate(rows):
        f = row.split(",")
        if f[0] == "error":
            bad.add(k)
            continue
        t_du, t_an = float(f[6]), float(f[7])
        if not (f[0] < f[2] < f[1] and t_du > 0.0
                and abs(t_du - t_an) / t_du < C04_LIMIT):
            bad.add(k)
    return bad


def read_windows(directory: Path) -> Outputs:
    rows = (directory / "windows.csv").read_text().splitlines()[1:]
    return Outputs(rows, {}, _bad_windows(rows))


def write_windows(out: Outputs, directory: Path) -> None:
    directory.mkdir(parents=True, exist_ok=True)
    (directory / "windows.csv").write_text(
        "\n".join([WINDOW_HEADER] + out.ops) + "\n")


def read_simulate(directory: Path) -> Outputs:
    """Split the four tables into per-snapshot ops: a snapshot's
    ``timeseries.csv`` row plus its ``paths.csv`` rows."""
    text = {f: (directory / f).read_text() for f in SIM_TABLES}
    steps = text["timeseries.csv"].splitlines()[1:]
    by_t: dict[str, list[str]] = {}
    for row in text["paths.csv"].splitlines()[1:]:
        by_t.setdefault(row.split(",", 1)[0], []).append(row)
    ops, bad = [], set()
    for k, row in enumerate(steps):
        fields = row.split(",")
        paths = by_t.pop(fields[0], [])
        ids = [p.split(",")[1] for p in paths]
        if ids != [str(i) for i in range(int(fields[2]))]:
            bad.add(k)
        ops.append("\n".join([row] + paths))
    if by_t:  # path rows whose instant has no timeseries row
        bad.update(range(len(ops)))
    tables = {f: text[f] for f in ("pass_summary.csv", "delay_spread_cdf.csv")}
    tables["headers"] = "".join(text[f].split("\n", 1)[0] + "\n"
                                for f in SIM_TABLES)
    return Outputs(ops, tables, bad)


def load_golden(wl, root: Path = GOLDEN_DIR) -> Outputs | None:
    directory = root / wl.name / wl.golden_key
    if not directory.is_dir():
        return None
    if isinstance(wl, PassSearch):
        return read_windows(directory)
    return read_simulate(directory)


def failed_ops(out: Outputs | None, ref: Outputs | None,
               expected: int) -> tuple[int, int]:
    """(attempted, failed) for one iteration.  An op fails when it breaks
    a self-consistency check or its bytes differ from the reference; a
    run-level table that differs fails every op of the iteration."""
    if out is None:
        return expected, expected
    attempted = max(len(out.ops), len(ref.ops) if ref else 0)
    if ref is not None and out.tables != ref.tables:
        return attempted, attempted
    bad = set(out.bad)
    if ref is not None:
        bad |= {k for k in range(attempted)
                if k >= len(out.ops) or k >= len(ref.ops)
                or out.ops[k] != ref.ops[k]}
    return attempted, len(bad)
