import math
import multiprocessing
import os
import re
import signal
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from conftest import city_config, one_line_mutant
from leochan import frames, passes, simulate, tracer
from leochan.cli import main
from leochan.config import (ConfigError, SimConfig, parse_config,
                            parse_config_text)
from leochan.link import total_power_dbm
from leochan.scene import scene_from_text
from leochan.simulate import PassReport, emit_outputs, run_pass_simulation
from leochan.tle import tle_checksum

DEMO = Path(__file__).resolve().parent.parent / "demo"
DEMO_TLE = DEMO / "demo.tle"

LIGHT_CONFIG = f"""
tle_path = {DEMO_TLE}
site_lat_deg = 1.9
site_lon_deg = 0.7791238226849033
site_alt_km = 0.0
scene_grid_nx = 4
scene_grid_ny = 4
scene_height_law = constant
scene_h_const_m = 25
rx_x_m = 0.0
rx_y_m = 0.0
rx_z_m = 1.5
fc_mhz = 2000
pt_dbm = 30
theta_min_deg = 5.0
time_step_s = 60
spacing_m = 12
max_bounces = 2
seed = 3
"""


@pytest.fixture(scope="module")
def light_config(tmp_path_factory):
    path = tmp_path_factory.mktemp("cfg") / "sim.cfg"
    path.write_text(LIGHT_CONFIG)
    return path


@pytest.fixture(scope="module")
def light_report(light_config):
    return run_pass_simulation(parse_config(light_config))


@pytest.fixture()
def no_pass_search(monkeypatch):
    """Fail the test if a pass search runs."""
    def no_search(*args, **kwargs):
        raise AssertionError("pass search ran")

    monkeypatch.setattr(passes, "find_pass", no_search)
    monkeypatch.setattr("leochan.cli.find_pass", no_search)


_FLOAT_KEYS = sorted(f.name for f in fields(SimConfig) if f.type == "float")
_OUT_OF_RANGE = {
    "fc_mhz": st.floats(max_value=0.0),
    "rain_rate_mm_h": st.floats(max_value=0.0, exclude_max=True),
    "rain_k": st.floats(max_value=0.0),
    "rain_alpha": st.floats(max_value=0.0),
    "time_step_s": st.floats(max_value=0.0),
    "spacing_m": st.floats(max_value=0.0),
    "rx_radius_m": st.floats(max_value=0.0, exclude_max=True),
    "site_lat_deg": st.floats(min_value=90.0, exclude_min=True)
    | st.floats(max_value=-90.0, exclude_max=True),
    "theta_min_deg": st.floats(min_value=90.0)
    | st.floats(max_value=0.0, exclude_max=True),
    "scene_block_w_m": st.floats(max_value=0.0),
    "scene_street_w_m": st.floats(max_value=0.0),
    "scene_h_min_m": st.floats(max_value=0.0),
    # below the default scene_h_min_m of 20
    "scene_h_max_m": st.floats(max_value=20.0, exclude_max=True),
    "scene_h_const_m": st.floats(max_value=0.0),
}


def _bad_float_entry():
    non_finite = st.tuples(st.sampled_from(_FLOAT_KEYS),
                           st.sampled_from([math.nan, math.inf, -math.inf]))
    out_of_range = st.sampled_from(sorted(_OUT_OF_RANGE)).flatmap(
        lambda key: st.tuples(st.just(key), _OUT_OF_RANGE[key]))
    return non_finite | out_of_range


class TestConfig:
    @settings(derandomize=True, deadline=None, database=None,
              max_examples=200)
    @given(_bad_float_entry())
    def test_bad_float_value_names_key(self, entry):
        key, value = entry
        with pytest.raises(ConfigError, match=key):
            parse_config_text(f"{key} = {value!r}\n", Path())

    @pytest.mark.parametrize("key", ["scene_grid_nx", "scene_grid_ny"])
    @pytest.mark.parametrize("value", ["0", "-3", "1700"])
    def test_bad_city_grid_names_key(self, key, value):
        # 1700 blocks by the other key's default 6: over 10,000
        with pytest.raises(ConfigError, match=key):
            parse_config_text(f"{key} = {value}\n", Path())

    @pytest.mark.parametrize("text,key", [
        ("scene_file = city.txt\nscene_h_const_m = -1\n", "scene_h_const_m"),
        ("scene_file = city.txt\nscene_block_w_m = -1\n", "scene_block_w_m"),
        ("scene_height_law = constant\nscene_h_max_m = 10\n",
         "scene_h_max_m"),
    ])
    def test_city_key_checked_whatever_scene_file_and_law(self, text, key):
        # a city key that the run does not read is still refused
        with pytest.raises(ConfigError, match=f"^{key} "):
            parse_config_text(text, Path())

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError):
            parse_config_text("volume_db = 11\n", Path())

    def test_duplicate_key_rejected(self):
        with pytest.raises(ConfigError):
            parse_config_text("fc_mhz = 1\nfc_mhz = 2\n", Path())

    def test_bad_value_rejected(self):
        with pytest.raises(ConfigError):
            parse_config_text("fc_mhz = not-a-number\n", Path())

    def test_missing_tle_rejected(self):
        with pytest.raises(ConfigError):
            parse_config_text("fc_mhz = 2000\n", Path())

    def test_missing_tle_file_rejected(self):
        with pytest.raises(ConfigError):
            parse_config_text("tle_path = /no/such/file.tle\n", Path())

    def test_comments_and_defaults(self, light_config):
        cfg = parse_config(light_config)
        assert cfg.rain_rate_mm_h == 0.0
        assert cfg.effective_rx_radius_m == pytest.approx(18.0)

    def test_default_texts_parse_to_the_defaults(self):
        # Each key's parser comes from its field's annotation: the text
        # of every default parses back to it, of the same type.  The
        # element-set path is required, so it is the one non-default.
        defaults = SimConfig(tle_path=str(DEMO_TLE))
        text = "".join(f"{f.name} = {getattr(defaults, f.name)}\n"
                       for f in fields(SimConfig))
        cfg = parse_config_text(text, Path())
        for f in fields(SimConfig):
            got, want = getattr(cfg, f.name), getattr(defaults, f.name)
            assert type(got) is type(want), f.name
            assert got == want, f.name

    @settings(derandomize=True, deadline=None, database=None,
              max_examples=300)
    @given(one_line_mutant((DEMO / "sim.cfg").read_text(),
                           "0123456789.,-+eE_=# abfinxy"))
    def test_mutated_config_parses_or_names_line_or_key(self, mutant):
        # A damaged line is refused by its number, or a bad value by its
        # key, and nothing else happens.
        text, lineno = mutant
        try:
            parse_config_text(text, base_dir=DEMO)
        except ConfigError as exc:
            msg = str(exc)
            assert msg.startswith(f"line {lineno}: ") or any(
                re.search(rf"\b{f.name}\b", msg) for f in fields(SimConfig))

    def test_relative_paths_resolve_against_config_dir(self, tmp_path):
        tle = tmp_path / "a.tle"
        tle.write_text(DEMO_TLE.read_text())
        cfg_file = tmp_path / "c.cfg"
        cfg_file.write_text("tle_path = a.tle\n")
        assert parse_config(cfg_file).tle_path == str(tle)


class TestRunPassSimulation:
    def test_snapshot_count_floor_arithmetic(self, light_report,
                                             light_config):
        cfg = parse_config(light_config)
        w = light_report.window
        expected = int(math.floor(
            (w.t_end - w.t_start).total_seconds() / cfg.time_step_s)) + 1
        assert len(light_report.snapshots) == expected

    def test_snapshots_inside_window_and_ordered(self, light_report):
        w = light_report.window
        times = [s.t for s in light_report.snapshots]
        assert times == sorted(times)
        for t in times:
            assert w.t_start <= t <= w.t_end

    def test_paths_scored_consistently(self, light_report):
        for snap in light_report.snapshots:
            if not snap.paths:
                continue
            manual = total_power_dbm([p.power_dbm for p in snap.paths])
            assert snap.total_power_dbm == pytest.approx(manual, abs=1e-9)


class TestEmitOutputs:
    def test_files_and_headers(self, light_report, tmp_path):
        files = emit_outputs(light_report, tmp_path, steps_only=False)
        names = [f.name for f in files]
        assert names == ["pass_summary.csv", "timeseries.csv", "paths.csv",
                         "delay_spread_cdf.csv"]
        header = (tmp_path / "timeseries.csv").read_text().splitlines()[0]
        assert header.split(",") == [
            "t_s", "elevation_deg", "n_paths", "total_power_dbm",
            "rms_ds_ns", "doppler_min_hz", "doppler_max_hz"]
        rows = (tmp_path / "timeseries.csv").read_text().splitlines()[1:]
        assert all(len(r.split(",")) == 7 for r in rows)

    def test_cdf_monotone_and_complete(self, light_report, tmp_path):
        emit_outputs(light_report, tmp_path, steps_only=False)
        rows = [line.split(",") for line in
                (tmp_path / "delay_spread_cdf.csv")
                .read_text().splitlines()[1:]]
        values = [float(v) for v, _ in rows]
        cdf = [float(c) for _, c in rows]
        assert values == sorted(values)
        assert all(b >= a for a, b in zip(cdf, cdf[1:]))
        assert cdf[-1] == pytest.approx(1.0, abs=1e-12)
        # oracle: recompute the CDF from the per-path table
        n_with_paths = sum(1 for s in light_report.snapshots if s.paths)
        assert len(rows) == n_with_paths

    def test_per_path_table_reaggregates(self, light_report, tmp_path):
        emit_outputs(light_report, tmp_path, steps_only=False)
        per_t: dict[str, list[float]] = {}
        for line in (tmp_path / "paths.csv").read_text().splitlines()[1:]:
            parts = line.split(",")
            per_t.setdefault(parts[0], []).append(float(parts[4]))
        for line in (tmp_path / "timeseries.csv").read_text().splitlines()[1:]:
            parts = line.split(",")
            if parts[2] == "0":
                assert parts[3] == "nan"
                continue
            total = total_power_dbm(per_t[parts[0]])
            assert abs(total - float(parts[3])) < 1e-6

    def test_empty_snapshot_list_headers_only(self, light_report, tmp_path):
        empty = PassReport(window=light_report.window, snapshots=())
        emit_outputs(empty, tmp_path, steps_only=False)
        assert (tmp_path / "timeseries.csv").read_text().count("\n") == 1
        assert (tmp_path / "paths.csv").read_text().count("\n") == 1
        assert (tmp_path / "delay_spread_cdf.csv").read_text().count("\n") == 1
        summary = (tmp_path / "pass_summary.csv").read_text()
        assert "t_du_scan_min" in summary

    def test_steps_only(self, light_report, tmp_path):
        files = emit_outputs(light_report, tmp_path, steps_only=True)
        assert [f.name for f in files] == ["pass_summary.csv",
                                           "timeseries.csv"]


class TestCli:
    def test_simulate_exit_zero_and_outputs(self, light_config, tmp_path):
        out = tmp_path / "run"
        code = main(["simulate", "--config", str(light_config),
                     "--out", str(out)])
        assert code == 0
        assert (out / "timeseries.csv").exists()

    def test_bad_config_exit_two(self, tmp_path):
        bad = tmp_path / "bad.cfg"
        bad.write_text("nonsense_key = 1\n")
        assert main(["simulate", "--config", str(bad)]) == 2

    @pytest.mark.parametrize("key,value", [
        ("fc_mhz", "-5"), ("polarization", "X"), ("rain_rate_mm_h", "-1"),
        ("rain_path_mode", "foo"), ("scene_height_law", "foo"),
        ("time_step_s", "nan"), ("spacing_m", "inf"),
        ("site_lon_deg", "nan"), ("theta_min_deg", "-5"),
    ])
    def test_bad_value_exit_two_before_pass_search(self, tmp_path, capsys,
                                                   no_pass_search, key,
                                                   value):
        cfg = tmp_path / "sim.cfg"
        cfg.write_text(f"tle_path = {DEMO_TLE}\n{key} = {value}\n")
        assert main(["simulate", "--config", str(cfg)]) == 2
        assert key in capsys.readouterr().err

    @pytest.mark.parametrize("line,expected", [
        ("0,0,0, 0.1,0,0, 0,0.1,0, 3", "line 2: material id 3"),
        ("x-0.09,0,0, 0.1,0,0, 0,0.1,0, 0", "line 2: could not convert"),
        ("0,0,0, 0.1,0,0, 0.2,0,0, 0", "line 2: degenerate triangle"),
        # its cross product overflows: once an infinite area, a NaN
        # normal and a run that exited 0 with empty snapshots
        ("0,0,0, 1e200,0,0, 0,1e200,0, 0", "line 2: degenerate triangle"),
    ])
    def test_bad_scene_file_exit_two_names_file_and_line(
            self, tmp_path, capsys, no_pass_search, line, expected):
        scene_file = tmp_path / "city.txt"
        scene_file.write_text("0,0,0, 0.1,0,0, 0,0.1,0, 0\n" + line + "\n")
        cfg = tmp_path / "sim.cfg"
        cfg.write_text(f"tle_path = {DEMO_TLE}\nscene_file = {scene_file}\n")
        assert main(["simulate", "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert err.count(str(scene_file)) == 1 and expected in err

    def test_zero_jobs_exit_two_names_jobs(self, light_config, capsys,
                                           no_pass_search):
        assert main(["simulate", "--config", str(light_config),
                     "--jobs", "0"]) == 2
        assert "jobs" in capsys.readouterr().err

    def test_bad_city_size_exit_two(self, tmp_path, capsys, no_pass_search):
        cfg = tmp_path / "sim.cfg"
        cfg.write_text(f"tle_path = {DEMO_TLE}\nscene_grid_nx = 0\n")
        assert main(["simulate", "--config", str(cfg)]) == 2
        assert "scene_grid_nx" in capsys.readouterr().err

    def test_non_utf8_scene_file_exit_two_names_file_and_line(
            self, tmp_path, capsys, no_pass_search):
        scene_file = tmp_path / "bad.scene"
        scene_file.write_bytes(b"0,0,0, 0.1,0,0, 0,0.1,0, 0\n"
                               b"0,0,0, \xff\n")
        cfg = tmp_path / "sim.cfg"
        cfg.write_text(f"tle_path = {DEMO_TLE}\nscene_file = {scene_file}\n")
        assert main(["simulate", "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert f"{scene_file}:2: not UTF-8 text" in err
        assert err.count(str(scene_file)) == 1

    def test_scene_file_directory_exit_two_names_it_once(
            self, tmp_path, capsys, no_pass_search):
        scene_dir = tmp_path / "dir.scene"
        scene_dir.mkdir()
        cfg = tmp_path / "sim.cfg"
        cfg.write_text(f"tle_path = {DEMO_TLE}\nscene_file = {scene_dir}\n")
        assert main(["simulate", "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert "scene_file" in err and err.count(str(scene_dir)) == 1

    @pytest.mark.parametrize("z_km", ["1e300", "8"])
    def test_scene_too_tall_for_perigee_exit_two_before_pass_search(
            self, tmp_path, capsys, no_pass_search, z_km):
        # 100 times the height is more than the demo set's 548 km perigee
        # over the site; once exit 4 from the launch plane, after the
        # pass search
        scene_file = tmp_path / "tall.scene"
        scene_file.write_text("0,0,0, 1,0,0, 0,1,0, 0\n"
                              f"0,0,{z_km}, 1,0,{z_km}, 0,1,{z_km}, 0\n")
        cfg = tmp_path / "sim.cfg"
        cfg.write_text(f"tle_path = {DEMO_TLE}\nscene_file = {scene_file}\n")
        assert main(["simulate", "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert err.count(str(scene_file)) == 1 and "plane-wave" in err

    def test_city_too_tall_for_perigee_names_height_key(
            self, tmp_path, capsys, no_pass_search):
        cfg = tmp_path / "sim.cfg"
        cfg.write_text(f"tle_path = {DEMO_TLE}\n"
                       "scene_height_law = constant\nscene_h_const_m = 8000\n")
        assert main(["simulate", "--config", str(cfg)]) == 2
        assert "scene_h_const_m" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["simulate", "trace-once"])
    def test_launch_grid_too_large_exit_two_before_pass_search(
            self, tmp_path, capsys, monkeypatch, no_pass_search, command):
        # One triangle with 100 km legs: at 8 m its launch grid would hold
        # about 1.6e8 rays, and 3.75 GB of launch points alone.  Nothing
        # may place, let alone fill, that grid.
        def no_plane(*args, **kwargs):
            raise AssertionError("launch plane built")

        monkeypatch.setattr(tracer, "build_launch_plane", no_plane)
        scene_file = tmp_path / "wide.scene"
        scene_file.write_text("0,0,0, 100,0,0, 0,100,0, 0\n")
        cfg = tmp_path / "sim.cfg"
        cfg.write_text(f"tle_path = {DEMO_TLE}\nscene_file = {scene_file}\n")
        argv = [command, "--config", str(cfg)]
        if command == "trace-once":
            argv += ["--at-minute", "1"]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert "spacing_m = 8" in err and err.count(str(scene_file)) == 1

    def test_city_launch_grid_too_large_names_city_keys(
            self, tmp_path, capsys, no_pass_search):
        cfg = tmp_path / "sim.cfg"
        cfg.write_text(f"tle_path = {DEMO_TLE}\nscene_grid_nx = 20\n"
                       "scene_grid_ny = 20\nscene_block_w_m = 5000\n")
        assert main(["simulate", "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert "spacing_m" in err and "scene_block_w_m" in err

    def test_receiver_far_outside_scene_exit_two_before_pass_search(
            self, tmp_path, capsys, no_pass_search):
        # One 1 km triangle about 1,400 km from the receiver: once exit 0
        # with no path at any step, as the launch grid covered the
        # triangle only; a grid that reaches the receiver is too large.
        scene_file = tmp_path / "far.scene"
        scene_file.write_text("1000,1000,0, 1001,1000,0, 1000,1001,0, 0\n")
        cfg = tmp_path / "sim.cfg"
        cfg.write_text(f"tle_path = {DEMO_TLE}\nscene_file = {scene_file}\n")
        assert main(["simulate", "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert "spacing_m = 8" in err and "rx_x_m" in err
        assert err.count(str(scene_file)) == 1

    def test_missing_pass_exit_three(self, tmp_path):
        cfg = tmp_path / "polar.cfg"
        cfg.write_text(f"tle_path = {DEMO_TLE}\nsite_lat_deg = 80.0\n"
                       "site_lon_deg = 0.0\n")
        assert main(["simulate", "--config", str(cfg)]) == 3

    def test_empty_tle_file_exit_two(self, tmp_path, capsys):
        empty = tmp_path / "empty.tle"
        empty.write_text("")
        cfg = tmp_path / "sim.cfg"
        cfg.write_text(f"tle_path = {empty}\n")
        assert main(["simulate", "--config", str(cfg)]) == 2
        assert main(["trace-once", "--config", str(cfg),
                     "--at-minute", "1"]) == 2
        assert main(["pass", "--tle", str(empty), "--site", "0,0,0"]) == 2
        assert "no element sets" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["simulate", "trace-once", "pass"])
    def test_damaged_tle_file_exit_two_names_file_and_line(
            self, tmp_path, capsys, no_pass_search, command):
        name, line1, line2 = DEMO_TLE.read_text().splitlines()
        damaged = tmp_path / "damaged.tle"
        damaged.write_text(
            f"{name}\n{line1[:68]}{(int(line1[68]) + 1) % 10}\n{line2}\n")
        cfg = tmp_path / "sim.cfg"
        cfg.write_text(f"tle_path = {damaged}\n")
        argv = {"simulate": ["--config", str(cfg)],
                "trace-once": ["--config", str(cfg), "--at-minute", "1"],
                "pass": ["--tle", str(damaged), "--site", "0,0,0"]}[command]
        assert main([command, *argv]) == 2
        assert f"{damaged}:2-3: line 1 checksum" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["simulate", "trace-once", "pass"])
    def test_non_utf8_tle_file_exit_two_names_file_and_line(
            self, tmp_path, capsys, no_pass_search, command):
        bad = tmp_path / "bad.tle"
        bad.write_bytes(b"\xff\xfe\n")
        cfg = tmp_path / "sim.cfg"
        cfg.write_text(f"tle_path = {bad}\n")
        argv = {"simulate": ["--config", str(cfg)],
                "trace-once": ["--config", str(cfg), "--at-minute", "1"],
                "pass": ["--tle", str(bad), "--site", "0,0,0"]}[command]
        assert main([command, *argv]) == 2
        assert f"{bad}:1: not UTF-8 text" in capsys.readouterr().err

    @pytest.mark.parametrize("field", ["inf", "nan"])
    def test_non_finite_mean_motion_exit_two_names_file_and_line(
            self, tmp_path, capsys, field):
        # once exit 4, "float division by zero" (inf) or "Kepler iteration
        # did not reach 1e-12" (nan), with no file or line
        name, line1, line2 = DEMO_TLE.read_text().splitlines()
        line2 = line2[:52] + f"{field:>11}" + line2[63:68]
        bad = tmp_path / "bad.tle"
        bad.write_text(f"{name}\n{line1}\n{line2}{tle_checksum(line2)}\n")
        assert main(["pass", "--tle", str(bad), "--site", "0,0,0"]) == 2
        assert (f"{bad}:2-3: mean motion: not a decimal number"
                in capsys.readouterr().err)

    @pytest.mark.parametrize("command", ["simulate", "trace-once", "pass"])
    @pytest.mark.parametrize("revs,expected", [
        ("2.00000000", "period 720.1 min exceeds the near-Earth regime"),
        ("18.00000000",
         "perigee radius 6157.3 km is at or below the surface"),
    ])
    def test_element_set_sgp4_refuses_exit_two_names_file(
            self, tmp_path, capsys, no_pass_search, command, revs,
            expected):
        # once exit 4 from Ephemeris or the pass search, naming no file
        name, line1, line2 = DEMO_TLE.read_text().splitlines()
        line2 = line2[:52] + f"{revs:>11}" + line2[63:68]
        bad = tmp_path / "bad.tle"
        bad.write_text(f"{name}\n{line1}\n{line2}{tle_checksum(line2)}\n")
        cfg = tmp_path / "sim.cfg"
        cfg.write_text(f"tle_path = {bad}\n")
        argv = {"simulate": ["--config", str(cfg)],
                "trace-once": ["--config", str(cfg), "--at-minute", "1"],
                "pass": ["--tle", str(bad), "--site", "0,0,0"]}[command]
        assert main([command, *argv]) == 2
        err = capsys.readouterr().err
        assert f"config error: {bad}: element set 90000 " in err
        assert expected in err

    def test_non_utf8_config_exit_two_names_file_and_line(
            self, tmp_path, capsys, no_pass_search):
        cfg = tmp_path / "sim.cfg"
        cfg.write_bytes(b"# demo\ntle_path = \xff\n")
        assert main(["simulate", "--config", str(cfg)]) == 2
        assert f"{cfg}:2: not UTF-8 text" in capsys.readouterr().err

    def test_pass_missing_tle_file_exit_two(self, tmp_path, capsys,
                                            no_pass_search):
        missing = tmp_path / "missing.tle"
        assert main(["pass", "--tle", str(missing), "--site", "0,0,0"]) == 2
        assert str(missing) in capsys.readouterr().err

    def test_pass_subcommand_prints_window(self, capsys):
        code = main(["pass", "--tle", str(DEMO_TLE),
                     "--site", "1.9,0.7791238226849033,0.0"])
        assert code == 0
        out = capsys.readouterr().out
        assert "rise" in out and "culminate" in out and "duration" in out

    def test_pass_subcommand_bad_site(self):
        assert main(["pass", "--tle", str(DEMO_TLE), "--site", "1,2"]) == 2

    @pytest.mark.parametrize("args", [
        ["--site", "nan,0,0"], ["--site", "91,0,0"],
        ["--min-elev", "-5"], ["--min-elev", "90"], ["--step", "0"],
        ["--step", "nan"],
    ])
    def test_pass_subcommand_bad_argument_exit_two(self, no_pass_search,
                                                   args):
        argv = ["pass", "--tle", str(DEMO_TLE), "--site", "1.9,0.8,0"]
        assert main(argv + args) == 2

    def test_trace_once(self, light_config, capsys):
        code = main(["trace-once", "--config", str(light_config),
                     "--at-minute", "6.0"])
        assert code == 0
        out = capsys.readouterr().out
        assert "elevation" in out
        assert "paths" in out

    def test_trace_once_outside_window(self, light_config, capsys):
        assert main(["trace-once", "--config", str(light_config),
                     "--at-minute", "500.0"]) == 2

    @pytest.mark.parametrize("minute", ["nan", "inf", "-inf", "-5"])
    def test_trace_once_bad_minute_exit_two_before_search(
            self, light_config, capsys, no_pass_search, minute):
        assert main(["trace-once", "--config", str(light_config),
                     f"--at-minute={minute}"]) == 2
        assert "--at-minute" in capsys.readouterr().err

    def test_trace_once_far_past_window_exit_two(self, light_config, capsys):
        # past the window by more than timedelta can hold
        assert main(["trace-once", "--config", str(light_config),
                     "--at-minute", "1e300"]) == 2
        assert "--at-minute" in capsys.readouterr().err


class TestDeterminism:
    def test_two_runs_byte_identical(self, light_config, tmp_path):
        outs = []
        for name in ("a", "b"):
            out = tmp_path / name
            assert main(["simulate", "--config", str(light_config),
                         "--out", str(out)]) == 0
            outs.append(out)
        for fname in ("pass_summary.csv", "timeseries.csv", "paths.csv",
                      "delay_spread_cdf.csv"):
            assert (outs[0] / fname).read_bytes() == \
                (outs[1] / fname).read_bytes()

    def test_parallel_equals_serial(self, light_config, tmp_path):
        # 11 instants over 2, 3 and 4 processes
        serial = tmp_path / "serial"
        assert main(["simulate", "--config", str(light_config),
                     "--out", str(serial), "--jobs", "1"]) == 0
        for jobs in ("2", "3", "4"):
            parallel = tmp_path / f"jobs{jobs}"
            assert main(["simulate", "--config", str(light_config),
                         "--out", str(parallel), "--jobs", jobs]) == 0
            for fname in ("pass_summary.csv", "timeseries.csv", "paths.csv",
                          "delay_spread_cdf.csv"):
                assert (serial / fname).read_bytes() == \
                    (parallel / fname).read_bytes(), (jobs, fname)
        assert multiprocessing.active_children() == []


# A wall 100 m wide and 60 m tall, as a one-triangle scene file.
_WALL = "0.1,-0.05,0, 0.1,0.05,0, 0.1,0,0.06, 0\n"
# The launch-grid cap for the test below, scaled down from
# tracer.MAX_LAUNCH_RAYS so that each example stays small: at 8 m it
# admits receivers up to about 2 km from the scene.
_TEST_CAP = 2 ** 18


@settings(derandomize=True, deadline=None, database=None, max_examples=100)
@given(st.floats(-1.6, 1.6), st.floats(-1.6, 1.6), st.floats(0.0, 0.1),
       st.sampled_from([0, 1]), st.floats(0.05, 0.95))
def test_receiver_anywhere_within_the_cap_sees_the_sky(equatorial_pass, x,
                                                       y, z, bounces, at):
    # Wherever the receiver is, inside the scene box or not, and before
    # or beyond the launch plane the scene alone would get, it gets the
    # line-of-sight path unless the wall shadows it.  Once only a
    # receiver over the scene's footprint saw anything.
    city = scene_from_text(_WALL)
    config = city_config(1, 1, spacing_m=8.0, max_bounces=bounces)
    rx = np.array([x, y, z])
    radius_m = config.effective_rx_radius_m
    assume(tracer.launch_grid_bound(city, config.spacing_m, rx, radius_m)
           <= _TEST_CAP)
    ephem, window = equatorial_pass["ephem"], equatorial_pass["window"]
    local_frame = frames.build_local_frame(equatorial_pass["site"])
    t = window.t_start + at * (window.t_end - window.t_start)
    sat = frames.global_to_local(ephem.ecef_at(t), local_frame).position
    # off the wall's shadow by the capture radius: no ray toward the
    # satellite from the receiver, or from 16 points around it at the
    # capture radius, meets the wall
    bmin, bmax = city.bounds
    d = np.array([(bmin[0] + bmax[0]) / 2.0, (bmin[1] + bmax[1]) / 2.0,
                  bmin[2]]) - sat
    d /= np.linalg.norm(d)
    e1 = np.cross(d, [0.0, 0.0, 1.0])
    e1 /= np.linalg.norm(e1)
    e2 = np.cross(d, e1)
    a = np.linspace(0.0, 2.0 * math.pi, 16, endpoint=False)[:, None]
    ring = np.vstack([rx, rx + radius_m / 1e3 * (np.cos(a) * e1
                                                  + np.sin(a) * e2)])
    hits = city.intersect_batch(ring, np.tile(-d, (len(ring), 1)), 0.0)[1]
    assume((hits < 0).all())
    snap = simulate.simulate_snapshot(t, ephem, local_frame, city, rx,
                                      config)
    assert [p.record.bounce_count for p in snap.paths][:1] == [0]


class TestForkedJobs:
    """``--jobs N`` runs the caller and N - 1 forked workers, each of
    which claims the next unclaimed instant whenever it is free.  A
    failure must exit as it does at one job, and no run may leave a
    process behind.  The light pass has 11 instants."""

    @pytest.fixture(autouse=True)
    def time_bound(self):
        """Fail, not hang, when a run waits on a worker for good: the
        alarm interrupts the wait (forked workers inherit no alarm)."""
        def expire(signum, frame):
            raise TimeoutError("the run took over 60 s")

        previous = signal.signal(signal.SIGALRM, expire)
        signal.alarm(60)
        yield
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)

    @pytest.fixture()
    def on_snapshot(self, light_report, monkeypatch):
        """Install ``act(i)``, called before the snapshot of instant i
        in the caller and in the workers, which inherit the patch."""
        real = simulate.simulate_snapshot
        t_start = light_report.window.t_start
        assert len(light_report.snapshots) == 11

        def install(act):
            def patched(t, *args):
                act(round((t - t_start).total_seconds() / 60.0))
                return real(t, *args)

            monkeypatch.setattr(simulate, "simulate_snapshot", patched)
        return install

    @pytest.fixture()
    def at_first_instants(self, on_snapshot):
        """Install ``in_worker(i)`` and ``in_caller(i)``, called at the
        first instant i that each worker and the caller compute, for one
        run.  There the caller and a worker first wait for each other,
        so both compute one instant at least whatever the scheduling:
        each holds its claim while it waits, and nothing has failed yet.
        Returns ``install`` and the dict of the instants that the caller
        and the first worker to arrive reached first."""
        caller = os.getpid()
        started_r, started_w = os.pipe()
        go_r, go_w = os.pipe()
        first = {}

        def install(in_worker=lambda i: None, in_caller=lambda i: None):
            started = set()

            def act(i):
                if os.getpid() in started:
                    return
                started.add(os.getpid())
                if os.getpid() == caller:
                    first["worker"] = os.read(started_r, 1)[0]
                    first["caller"] = i
                    os.write(go_w, bytes(16))  # one for every worker
                    in_caller(i)
                else:
                    os.write(started_w, bytes([i]))
                    os.read(go_r, 1)
                    in_worker(i)

            on_snapshot(act)
        yield install, first
        for fd in (started_r, started_w, go_r, go_w):
            os.close(fd)

    @staticmethod
    def _run(light_config, tmp_path, capsys, jobs):
        code = main(["simulate", "--config", str(light_config),
                     "--out", str(tmp_path / f"out{jobs}"),
                     "--jobs", str(jobs)])
        return code, capsys.readouterr().err

    # one failure, then two; whichever process claims a failing instant
    # computes it
    @pytest.mark.parametrize("failing", [(3,), (4,), (1, 2), (4, 5)])
    def test_failure_exits_as_at_one_job(self, light_config, tmp_path,
                                         capsys, on_snapshot, failing):
        def act(i):
            if i in failing:
                raise RuntimeError(f"instant {i} failed")

        on_snapshot(act)
        want = (4, f"simulation error: instant {min(failing)} failed\n")
        for jobs in (1, 2, 3):
            assert self._run(light_config, tmp_path, capsys, jobs) == want
            assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("where", ["worker", "caller"])
    def test_failure_in_one_process_exits_four_naming_its_instant(
            self, light_config, tmp_path, capsys, at_first_instants, where):
        # every instant the other process claims before it succeeds
        install, first = at_first_instants

        def fail(i):
            raise RuntimeError(f"instant {i} failed")

        install(**{f"in_{where}": fail})
        code, err = self._run(light_config, tmp_path, capsys, 2)
        assert (code, err) == (
            4, f"simulation error: instant {first[where]} failed\n")
        assert multiprocessing.active_children() == []

    def test_unpicklable_failure_keeps_its_message(
            self, light_config, tmp_path, capsys, at_first_instants):
        class TwoPartError(Exception):
            def __init__(self, what, where):
                super().__init__(f"{what} at instant {where}")

        install, first = at_first_instants

        def fail(i):
            raise TwoPartError("no path", i)

        install(in_worker=fail)
        code, err = self._run(light_config, tmp_path, capsys, 2)
        assert (code, err) == (
            4, f"simulation error: no path at instant {first['worker']}\n")
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("jobs", [2, 3])
    def test_killed_worker_exits_four_naming_time_steps(
            self, light_config, tmp_path, capsys, at_first_instants, jobs):
        install, _ = at_first_instants
        install(in_worker=lambda i: os._exit(3))
        code, err = self._run(light_config, tmp_path, capsys, jobs)
        assert code == 4
        assert err.startswith("simulation error: time steps: worker process")
        assert "exited with code 3" in err
        assert multiprocessing.active_children() == []

    def test_interrupted_caller_terminates_workers(
            self, light_config, tmp_path, capsys, at_first_instants):
        install, _ = at_first_instants

        def interrupt(i):
            raise KeyboardInterrupt

        install(in_caller=interrupt)
        with pytest.raises(KeyboardInterrupt):
            self._run(light_config, tmp_path, capsys, 3)
        assert multiprocessing.active_children() == []

    def test_each_instant_is_computed_once(self, light_config, tmp_path,
                                           capsys, on_snapshot):
        # more processes than this host has CPUs, over several runs: a
        # lost update of the claimed count would compute an instant twice
        read_end, write_end = os.pipe()
        on_snapshot(lambda i: os.write(write_end, bytes([i])))
        try:
            for _ in range(5):
                assert self._run(light_config, tmp_path, capsys, 4)[0] == 0
                computed = os.read(read_end, 4096)
                assert sorted(computed) == list(range(11))
        finally:
            os.close(read_end)
            os.close(write_end)
        assert multiprocessing.active_children() == []

    def test_stalled_worker_leaves_the_other_instants_to_the_caller(
            self, light_config, tmp_path, capsys, on_snapshot):
        # The worker's first instant waits until the caller has computed
        # ten, which it can only do by claiming every other instant.
        caller = os.getpid()
        started_r, started_w = os.pipe()
        go_r, go_w = os.pipe()
        in_caller = []

        def act(i):
            if os.getpid() != caller:
                os.write(started_w, bytes([i]))
                os.read(go_r, 1)
                return
            if not in_caller:  # so that the worker claims one instant
                os.read(started_r, 1)
            in_caller.append(i)
            if len(in_caller) == 10:
                os.write(go_w, b"x")

        on_snapshot(act)
        try:
            assert self._run(light_config, tmp_path, capsys, 2) == (0, "")
        finally:
            for fd in (started_r, started_w, go_r, go_w):
                os.close(fd)
        assert len(set(in_caller)) == 10
        assert multiprocessing.active_children() == []

    def test_jobs_above_instants_start_one_worker_per_other_instant(
            self, light_config, tmp_path, capsys, monkeypatch):
        # No process starts: each worker reads as one that exited
        # without replying, which also shows that this cannot hang.
        started = []

        class NotStarted:
            pid = exitcode = None

            def __init__(self, target, args, daemon):
                pass

            def start(self):
                started.append(self)

            def join(self):
                pass

            def terminate(self):
                pass

        monkeypatch.setattr(multiprocessing.get_context("fork"), "Process",
                            NotStarted)
        code, err = self._run(light_config, tmp_path, capsys, 1000)
        assert len(started) == 10
        assert code == 4 and "time steps" in err


def test_cli_dump_paths_writes_debug_file(light_config, tmp_path):
    out = tmp_path / "dump"
    code = main(["simulate", "--config", str(light_config),
                 "--out", str(out), "--dump-paths", "--steps-only"])
    assert code == 0
    text = (out / "paths_debug.txt").read_text()
    assert text.startswith("# t_s=")
