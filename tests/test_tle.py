import math
import re
from datetime import timedelta
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import format_tle, synthetic_tle, utc
from leochan.passes import Ephemeris
from leochan.sgp4 import PropagationError
from leochan.tle import (ChecksumMismatch, LineLengthError, MalformedField,
                         Tle, TleError, parse_tle, read_tle_file,
                         tle_checksum)

DEMO_TLE = Path(__file__).resolve().parent.parent / "demo" / "demo.tle"

# Real element sets (checksums verified by hand-summing digits mod 10).
ISS_2020 = (
    "1 25544U 98067A   20151.61686127  .00000168  00000-0  11087-4 0  9992",
    "2 25544  51.6444  75.4313 0002297  11.5525  50.1151 15.49398617229298",
)
COSMOS_1408 = (
    "1 13552U 82092A   21319.03826954  .00002024  00000-0  69413-4 0  9995",
    "2 13552  82.5637 123.6906 0018570 108.1104 252.2161 15.29390138142807",
)


def test_checksum_all_zero_payload():
    assert tle_checksum("0" * 68) == 0


def test_checksum_counts_minus_as_one():
    assert tle_checksum("1-" + " " * 66) == 2


def test_checksum_matches_printed_digit_of_real_lines():
    for line in (*ISS_2020, *COSMOS_1408):
        assert tle_checksum(line) == int(line[68])


def test_parse_real_tle_fields():
    tle = parse_tle(*ISS_2020, name="ISS (ZARYA)")
    assert tle.name == "ISS (ZARYA)"
    assert tle.satnum == 25544
    assert tle.inclination_deg == 51.6444
    assert tle.raan_deg == 75.4313
    assert tle.eccentricity == pytest.approx(0.0002297, abs=1e-12)
    assert tle.mean_motion_revs_per_day == 15.49398617
    assert tle.bstar == pytest.approx(0.11087e-4, rel=1e-12)
    assert tle.epoch_year == 2020
    assert tle.epoch.year == 2020


def test_synthetic_542km_tle_round_numbers():
    # n for a 542 km circular orbit is ~15.08 rev/day
    mu, re = 398600.8, 6378.135
    n = math.sqrt(mu / (re + 542.0) ** 3) * 86400.0 / (2 * math.pi)
    tle = synthetic_tle(epoch=utc(2023, 6, 1, 12), inclination_deg=31.0,
                        raan_deg=0.0, eccentricity=0.0, arg_perigee_deg=0.0,
                        mean_anomaly_deg=0.0, mean_motion_revs_per_day=n)
    assert tle.mean_motion_revs_per_day == pytest.approx(15.08, abs=0.01)
    # checksum recomputed independently: digit sum mod 10
    line1, line2 = format_tle(tle)
    for line in (line1, line2):
        total = sum(int(c) for c in line[:68] if c.isdigit())
        total += line[:68].count("-")
        assert total % 10 == int(line[68])


def test_perturbed_last_digit_raises_checksum():
    line1, line2 = ISS_2020
    bad = line2[:67] + ("0" if line2[67] != "0" else "1") + line2[68]
    with pytest.raises(ChecksumMismatch):
        parse_tle(line1, bad, name="")


def test_implied_decimal_eccentricity():
    # eccentricity field "0001234" means 0.0001234
    line2 = COSMOS_1408[1]
    patched = line2[:26] + "0001234" + line2[33:68]
    patched += str(tle_checksum(patched))
    tle = parse_tle(COSMOS_1408[0], patched, name="")
    assert tle.eccentricity == pytest.approx(0.0001234, abs=1e-15)


def test_wrong_length_raises():
    with pytest.raises(LineLengthError):
        parse_tle(ISS_2020[0][:-1], ISS_2020[1], name="")


def test_non_numeric_field_raises_malformed():
    line1, line2 = ISS_2020
    bad = line2[:8] + "xx.yyyy " + line2[16:68]
    bad += str(tle_checksum(bad))
    with pytest.raises(MalformedField):
        parse_tle(line1, bad, name="")


def test_wrong_line_number_raises():
    line1, line2 = ISS_2020
    swapped = "3" + line1[1:68]
    swapped += str(tle_checksum(swapped))
    with pytest.raises(MalformedField):
        parse_tle(swapped, line2, name="")


def test_satnum_mismatch_raises():
    with pytest.raises(MalformedField):
        parse_tle(ISS_2020[0], COSMOS_1408[1], name="")


def test_roundtrip_parse_format_parse_is_field_equal():
    for lines in (ISS_2020, COSMOS_1408):
        first = parse_tle(*lines, name="X")
        second = parse_tle(*format_tle(first), name="X")
        assert first == second


def test_roundtrip_random_synthetic(rng):
    for _ in range(50):
        tle = synthetic_tle(
            epoch=utc(2022, 3, 4, 5, 6, 7),
            inclination_deg=round(rng.uniform(0, 180), 4),
            raan_deg=round(rng.uniform(0, 360) % 360, 4),
            eccentricity=round(rng.uniform(0, 0.3), 7),
            arg_perigee_deg=round(rng.uniform(0, 360) % 360, 4),
            mean_anomaly_deg=round(rng.uniform(0, 360) % 360, 4),
            mean_motion_revs_per_day=round(rng.uniform(10, 16), 8),
            bstar=round(rng.uniform(-1e-3, 1e-3), 9),
        )
        again = parse_tle(*format_tle(tle), name=tle.name)
        assert again == tle


def test_epoch_year_pivot():
    base = parse_tle(*ISS_2020, name="")
    for yy, year in ((57, 1957), (99, 1999), (0, 2000), (56, 2056)):
        line1 = ISS_2020[0][:18] + f"{yy:02d}" + ISS_2020[0][20:68]
        line1 += str(tle_checksum(line1))
        assert parse_tle(line1, ISS_2020[1], name="").epoch_year == year
    assert base.epoch_year == 2020


def test_read_tle_file_mixed_layouts(tmp_path):
    content = "\n".join([
        "ISS (ZARYA)", *ISS_2020,
        "", *COSMOS_1408,
    ]) + "\n"
    path = tmp_path / "sats.tle"
    path.write_text(content)
    tles = read_tle_file(path)
    assert [t.satnum for t in tles] == [25544, 13552]
    assert tles[0].name == "ISS (ZARYA)"
    assert tles[1].name == ""


def _corrupt_checksum(line):
    return line[:68] + str((int(line[68]) + 1) % 10)


@pytest.mark.parametrize("lines,error,lineno", [
    # a line 1 one column short would read as a name: SAT-B would be
    # returned alone, and SAT-A's elements lost without a word
    (["SAT-A", ISS_2020[0][:68], ISS_2020[1], "SAT-B", *COSMOS_1408],
     LineLengthError, "2-3"),
    (["SAT-A", ISS_2020[1], *COSMOS_1408], MalformedField, "2"),
    ([*ISS_2020, ISS_2020[1]], MalformedField, "3"),
    (["SAT-A", "SAT-B", *COSMOS_1408], MalformedField, "1"),
    ([*ISS_2020, "", "SAT-C", ""], MalformedField, "4"),
    ([*ISS_2020, COSMOS_1408[0]], MalformedField, "3"),
    (["SAT-A", _corrupt_checksum(ISS_2020[0]), ISS_2020[1]],
     ChecksumMismatch, "2-3"),
    (["", ISS_2020[0], _corrupt_checksum(ISS_2020[1])], ChecksumMismatch,
     "2-3"),
    ([ISS_2020[0], COSMOS_1408[1]], MalformedField, "1-2"),
])
def test_read_tle_file_damage_names_file_line(tmp_path, lines, error,
                                              lineno):
    path = tmp_path / "sats.tle"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(error, match=f"^{re.escape(str(path))}:{lineno}: "):
        read_tle_file(path)


def _with_mean_motion(field):
    """ISS_2020's line 2 with its mean-motion columns replaced."""
    line2 = ISS_2020[1][:52] + f"{field:>11}" + ISS_2020[1][63:68]
    return line2 + str(tle_checksum(line2))


@pytest.mark.parametrize("field", ["inf", "-inf", "nan", "infinity",
                                   "715.E8103", "1e999", "1.5e1", "15_49"])
def test_read_tle_file_non_decimal_mean_motion_names_file_line(tmp_path,
                                                               field):
    # float() reads all of these, and "inf" or "nan" once reached SGP4
    path = tmp_path / "sats.tle"
    path.write_text("\n".join(["SAT-A", ISS_2020[0],
                               _with_mean_motion(field)]) + "\n")
    with pytest.raises(MalformedField,
                       match=f"^{re.escape(str(path))}:2-3: mean motion: "
                             f"not a decimal number"):
        read_tle_file(path)


@pytest.mark.parametrize("field", ["15.49398617", "+15.4939862", "15.",
                                   "  .5", "15"])
def test_decimal_fields_keep_their_column_forms(field):
    tle = parse_tle(ISS_2020[0], _with_mean_motion(field), name="")
    assert tle.mean_motion_revs_per_day == float(field)


# minutes after the epoch at which a parsed mutant is propagated
_PROBE_MINUTES = (0.0, 90.0, 720.0, 2880.0)


@st.composite
def _mutant_lines(draw):
    """The demo set's two element lines with one to three columns
    changed, and both checksums repaired."""
    name, *lines = DEMO_TLE.read_text().splitlines()
    for _ in range(draw(st.integers(1, 3))):
        k = draw(st.integers(0, 1))
        col = draw(st.integers(0, 67))
        char = draw(st.sampled_from("0123456789 .+-eEUA"))
        lines[k] = lines[k][:col] + char + lines[k][col + 1:]
    return [name] + [line[:68] + str(tle_checksum(line[:68]))
                     for line in lines]


@settings(derandomize=True, deadline=None, database=None, max_examples=300)
@given(_mutant_lines())
def test_mutated_element_set_fails_by_name_or_propagates(tmp_path_factory,
                                                          lines):
    # A damaged set is refused naming its file line; a set that parses
    # either propagates to finite Earth-fixed states over two days or
    # raises one of SGP4's named errors, and nothing else happens.
    path = tmp_path_factory.mktemp("mutant") / "sat.tle"
    path.write_text("\n".join(lines) + "\n")
    try:
        (tle,) = read_tle_file(path)
    except TleError as exc:
        assert re.match(rf"{re.escape(str(path))}:\d+(-\d+)?: ", str(exc))
        return
    try:
        ephem = Ephemeris(tle)
        states = [ephem.ecef_at(tle.epoch + timedelta(minutes=m))
                  for m in _PROBE_MINUTES]
    except PropagationError as exc:
        assert type(exc) is not PropagationError and str(exc)
        return
    for state in states:
        assert np.isfinite(state.position).all()
        assert np.isfinite(state.velocity).all()
