"""Flat key = value simulation configuration.

Every numeric key carries its unit in the name (fc_mhz, spacing_m, ...)
so a config file can never be unit-ambiguous.  Unknown keys are errors:
a typo should fail, not silently fall back to a default.

``SimConfig.__post_init__`` is the one place that checks config values,
and each message starts with the key it refuses.  The record is frozen:
the record that passed its checks is the record every stage of a run
reads (scene, tracer, frames and the link budget), and those stages do
not check its values again.  Its defaults are the only ones: the scene
takes the city keys from the record (``scene.generate_city(config)``),
as the link budget takes the link keys, not as parameters with defaults
of their own.  A changed copy (``dataclasses.replace``) runs the checks
again.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from pathlib import Path

from .link import POLARIZATIONS, RAIN_PATH_MODES
from .scene import HEIGHT_LAWS
from .tle import read_utf8


class ConfigError(ValueError):
    pass


@dataclass(frozen=True)
class SimConfig:
    # inputs
    tle_path: str = ""
    site_lat_deg: float = 0.0
    site_lon_deg: float = 0.0
    site_alt_km: float = 0.0
    # scene: either an external triangle file or the procedural city
    scene_file: str = ""
    scene_grid_nx: int = 6
    scene_grid_ny: int = 6
    scene_block_w_m: float = 80.0
    scene_street_w_m: float = 20.0
    scene_height_law: str = "uniform"
    scene_h_min_m: float = 20.0
    scene_h_max_m: float = 120.0
    scene_h_const_m: float = 30.0
    # receiver point, local frame meters
    rx_x_m: float = 0.0
    rx_y_m: float = 0.0
    rx_z_m: float = 1.5
    # link
    fc_mhz: float = 2000.0
    pt_dbm: float = 30.0
    rain_rate_mm_h: float = 0.0
    rain_k: float = 0.0000847
    rain_alpha: float = 1.0664
    polarization: str = "V"
    rain_path_mode: str = "verbatim"
    # pass and stepping
    theta_min_deg: float = 0.0
    time_step_s: float = 30.0
    # tracer
    spacing_m: float = 8.0
    rx_radius_m: float = 0.0   # 0 -> 1.5 * spacing_m
    max_bounces: int = 2
    # misc
    seed: int = 0
    output_dir: str = "out"
    jobs: int = 1

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, float) and not math.isfinite(value):
                raise ConfigError(f"{f.name} must be finite, got {value}")
        # keys that must be positive: the city's widths and heights are
        # checked whatever scene_file and scene_height_law say
        for key in ("time_step_s", "spacing_m", "fc_mhz", "rain_k",
                    "rain_alpha", "scene_block_w_m", "scene_street_w_m",
                    "scene_h_min_m", "scene_h_const_m"):
            if getattr(self, key) <= 0.0:
                raise ConfigError(f"{key} must be positive")
        for key in ("jobs", "scene_grid_nx", "scene_grid_ny"):
            if getattr(self, key) < 1:
                raise ConfigError(f"{key} must be >= 1")
        if self.scene_grid_nx * self.scene_grid_ny > 10_000:
            raise ConfigError(
                "scene_grid_nx * scene_grid_ny must be at most 10000")
        if self.scene_h_max_m < self.scene_h_min_m:
            raise ConfigError("scene_h_max_m must be >= scene_h_min_m")
        if self.max_bounces < 0:
            raise ConfigError("max_bounces must be >= 0")
        if not -90.0 <= self.site_lat_deg <= 90.0:
            raise ConfigError("site_lat_deg must be in [-90, 90]")
        if self.rx_radius_m < 0.0:
            raise ConfigError("rx_radius_m must be >= 0 (0 = auto)")
        if not 0.0 <= self.theta_min_deg < 90.0:
            raise ConfigError("theta_min_deg must be in [0, 90)")
        if self.rain_rate_mm_h < 0.0:
            raise ConfigError("rain_rate_mm_h must be >= 0")
        if self.polarization not in POLARIZATIONS:
            raise ConfigError(f"polarization must be one of {POLARIZATIONS}")
        if self.rain_path_mode not in RAIN_PATH_MODES:
            raise ConfigError(
                f"rain_path_mode must be one of {RAIN_PATH_MODES}")
        if self.scene_height_law not in HEIGHT_LAWS:
            raise ConfigError(
                f"scene_height_law must be one of {HEIGHT_LAWS}")

    @property
    def effective_rx_radius_m(self) -> float:
        if self.rx_radius_m > 0.0:
            return self.rx_radius_m
        return 1.5 * self.spacing_m

    @property
    def site_geodetic(self) -> tuple[float, float, float]:
        return self.site_lat_deg, self.site_lon_deg, self.site_alt_km


def parse_config_text(text: str, base_dir: Path) -> SimConfig:
    # each key's parser from its field's annotation, a string here (the
    # module postpones annotations): int, str, and float otherwise
    parsers = {f.name: {"int": int, "str": str}.get(f.type, float)
               for f in fields(SimConfig)}
    values: dict = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value'")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if key not in parsers:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        if key in values:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        try:
            values[key] = parsers[key](value)
        except ValueError:
            raise ConfigError(
                f"line {lineno}: bad value for {key!r}: {value!r}") from None
    for key in ("tle_path", "scene_file"):
        val = values.get(key)
        if val and not Path(val).is_absolute():
            values[key] = str(base_dir / val)

    cfg = SimConfig(**values)
    if not cfg.tle_path:
        raise ConfigError("tle_path is required")
    if not Path(cfg.tle_path).exists():
        raise ConfigError(f"tle_path does not exist: {cfg.tle_path}")
    if cfg.scene_file and not Path(cfg.scene_file).exists():
        raise ConfigError(f"scene_file does not exist: {cfg.scene_file}")
    return cfg


def parse_config(path) -> SimConfig:
    path = Path(path)
    try:
        text = read_utf8(path)
    except (OSError, ValueError) as exc:
        raise ConfigError(f"cannot read config: {exc}") from None
    return parse_config_text(text, base_dir=path.parent)
