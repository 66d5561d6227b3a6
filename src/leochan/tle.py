"""Two-line element (TLE) parsing, validation and formatting.

Parsing is strict fixed-column: no token splitting, no whitespace
recovery.  A corrupted line should fail loudly (checksum or field error),
never produce a silently shifted element.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from datetime import datetime
from pathlib import Path

from .timebase import epoch_from_year_day

LINE_LENGTH = 69


class TleError(ValueError):
    """Base class for element-set parsing failures."""


class LineLengthError(TleError):
    pass


class ChecksumMismatch(TleError):
    pass


class MalformedField(TleError):
    pass


@dataclass(frozen=True)
class Tle:
    """One parsed element set.

    Angles are degrees as printed in the source lines; ``epoch`` is the
    UTC instant of the elements; ``bstar`` is the drag term in inverse
    earth radii; ``ndot``/``nddot`` are the mean-motion derivative fields
    (rev/day^2 over 2 and rev/day^3 over 6, as conventionally encoded).
    """

    name: str
    satnum: int
    classification: str
    intl_designator: str
    epoch_year: int
    epoch_day: float
    epoch: datetime
    ndot: float
    nddot: float
    bstar: float
    element_number: int
    inclination_deg: float
    raan_deg: float
    eccentricity: float
    arg_perigee_deg: float
    mean_anomaly_deg: float
    mean_motion_revs_per_day: float
    rev_number: int


def tle_checksum(payload: str) -> int:
    """Modulo-10 checksum of the first 68 columns.

    Digits count their value, '-' counts 1, everything else 0.
    """
    total = 0
    for ch in payload[:68]:
        if ch.isdigit():
            total += int(ch)
        elif ch == "-":
            total += 1
    return total % 10


def _check_line(line: str, expected_number: str) -> None:
    if len(line) != LINE_LENGTH:
        raise LineLengthError(
            f"line must be {LINE_LENGTH} characters, got {len(line)}")
    if line[0] != expected_number:
        raise MalformedField(
            f"expected line number {expected_number!r}, got {line[0]!r}")
    if not line[68].isdigit():
        raise ChecksumMismatch(f"checksum column is not a digit: {line[68]!r}")
    expected = int(line[68])
    actual = tle_checksum(line)
    if actual != expected:
        raise ChecksumMismatch(
            f"line {expected_number} checksum {actual} != printed {expected}")


def _parse_float(field: str, what: str) -> float:
    try:
        return float(field)
    except ValueError:
        raise MalformedField(f"{what}: not a number: {field!r}") from None


def _parse_int(field: str, what: str) -> int:
    text = field.strip()
    if text == "":
        return 0
    try:
        return int(text)
    except ValueError:
        raise MalformedField(f"{what}: not an integer: {field!r}") from None


def _parse_implied_decimal(field: str, what: str) -> float:
    # Format: sign, 5 mantissa digits (implied leading "0."), signed
    # single-digit power of ten, e.g. " 13252-3" = 0.13252e-3.
    if field.strip() == "":
        return 0.0
    sign = -1.0 if field[0] == "-" else 1.0
    mantissa = field[1:6]
    exponent = field[6:8]
    if not mantissa.strip("0123456789") == "":
        raise MalformedField(f"{what}: bad mantissa: {field!r}")
    try:
        exp = int(exponent)
    except ValueError:
        raise MalformedField(f"{what}: bad exponent: {field!r}") from None
    return sign * int(mantissa) * 1e-5 * 10.0 ** exp


def _epoch_year(two_digit: int) -> int:
    # Standard pivot: 57-99 -> 1957-1999, 00-56 -> 2000-2056.
    return two_digit + (1900 if two_digit >= 57 else 2000)


def parse_tle(line1: str, line2: str, name: str = "") -> Tle:
    """Decode a line-1/line-2 pair into a :class:`Tle`.

    Raises :class:`LineLengthError`, :class:`ChecksumMismatch` or
    :class:`MalformedField`; never returns a partially filled record.
    """
    _check_line(line1, "1")
    _check_line(line2, "2")

    satnum1 = _parse_int(line1[2:7], "satellite number (line 1)")
    satnum2 = _parse_int(line2[2:7], "satellite number (line 2)")
    if satnum1 != satnum2:
        raise MalformedField(
            f"satellite numbers disagree: {satnum1} vs {satnum2}")

    yy = _parse_int(line1[18:20], "epoch year")
    epoch_day = _parse_float(line1[20:32], "epoch day")
    if not 1.0 <= epoch_day < 367.0:
        raise MalformedField(f"epoch day out of range: {epoch_day}")
    year = _epoch_year(yy)

    inclination = _parse_float(line2[8:16], "inclination")
    raan = _parse_float(line2[17:25], "RAAN")
    ecc_field = line2[26:33]
    if ecc_field.strip("0123456789") != "":
        raise MalformedField(f"eccentricity: not 7 digits: {ecc_field!r}")
    eccentricity = int(ecc_field) * 1e-7
    arg_perigee = _parse_float(line2[34:42], "argument of perigee")
    mean_anomaly = _parse_float(line2[43:51], "mean anomaly")
    mean_motion = _parse_float(line2[52:63], "mean motion")

    if not 0.0 <= inclination <= 180.0:
        raise MalformedField(f"inclination out of range: {inclination}")
    for label, value in (("RAAN", raan), ("argument of perigee", arg_perigee),
                         ("mean anomaly", mean_anomaly)):
        if not 0.0 <= value < 360.0:
            raise MalformedField(f"{label} out of range: {value}")
    if not 0.0 <= eccentricity < 1.0:
        raise MalformedField(f"eccentricity out of range: {eccentricity}")
    if mean_motion <= 0.0:
        raise MalformedField(f"mean motion must be positive: {mean_motion}")

    return Tle(
        name=name.strip(),
        satnum=satnum1,
        classification=line1[7],
        intl_designator=line1[9:17].rstrip(),
        epoch_year=year,
        epoch_day=epoch_day,
        epoch=epoch_from_year_day(year, epoch_day),
        ndot=_parse_float(line1[33:43], "mean motion first derivative"),
        nddot=_parse_implied_decimal(line1[44:52],
                                     "mean motion second derivative"),
        bstar=_parse_implied_decimal(line1[53:61], "bstar"),
        element_number=_parse_int(line1[64:68], "element set number"),
        inclination_deg=inclination,
        raan_deg=raan,
        eccentricity=eccentricity,
        arg_perigee_deg=arg_perigee,
        mean_anomaly_deg=mean_anomaly,
        mean_motion_revs_per_day=mean_motion,
        rev_number=_parse_int(line2[63:68], "revolution number"),
    )


def _format_implied_decimal(value: float) -> str:
    if value == 0.0:
        return " 00000+0"
    sign = "-" if value < 0.0 else " "
    v = abs(value)
    exp = math.floor(math.log10(v)) + 1
    mant = round(v / 10.0 ** exp * 1e5)
    if mant == 100000:  # rounding bumped into the next decade
        mant = 10000
        exp += 1
    if not -9 <= exp <= 9:
        raise ValueError(f"value out of TLE exponent range: {value}")
    return f"{sign}{mant:05d}{exp:+d}"


def _format_ndot(value: float) -> str:
    sign = "-" if value < 0.0 else " "
    body = f"{abs(value):.8f}"  # 0.xxxxxxxx
    return sign + body[1:]      # drop the leading zero


def format_tle(tle: Tle) -> tuple[str, str]:
    """Render a Tle back to its two fixed-column lines (checksummed)."""
    line1 = (f"1 {tle.satnum:05d}{tle.classification}"
             f" {tle.intl_designator:<8}"
             f" {tle.epoch_year % 100:02d}{tle.epoch_day:012.8f}"
             f" {_format_ndot(tle.ndot)}"
             f" {_format_implied_decimal(tle.nddot)}"
             f" {_format_implied_decimal(tle.bstar)}"
             f" 0 {tle.element_number:4d}")
    ecc_digits = f"{tle.eccentricity:.7f}"[2:]
    line2 = (f"2 {tle.satnum:05d}"
             f" {tle.inclination_deg:8.4f}"
             f" {tle.raan_deg:8.4f}"
             f" {ecc_digits}"
             f" {tle.arg_perigee_deg:8.4f}"
             f" {tle.mean_anomaly_deg:8.4f}"
             f" {tle.mean_motion_revs_per_day:11.8f}"
             f"{tle.rev_number:5d}")
    line1 += str(tle_checksum(line1))
    line2 += str(tle_checksum(line2))
    return line1, line2


def synthetic_tle(*, epoch: datetime, inclination_deg: float, raan_deg: float,
                  eccentricity: float, arg_perigee_deg: float,
                  mean_anomaly_deg: float, mean_motion_revs_per_day: float,
                  bstar: float = 0.0, name: str = "SYNTHETIC",
                  satnum: int = 90000) -> Tle:
    """Build a valid synthetic element set from orbital elements.

    The elements go through the fixed-column formatter and back through
    the parser, so the returned Tle carries exactly the precision a real
    file would.
    """
    day_of_year = (epoch - epoch.replace(month=1, day=1, hour=0, minute=0,
                                         second=0, microsecond=0))
    draft = Tle(
        name=name, satnum=satnum, classification="U",
        intl_designator="00001A", epoch_year=epoch.year,
        epoch_day=1.0 + day_of_year.total_seconds() / 86400.0,
        epoch=epoch, ndot=0.0, nddot=0.0, bstar=bstar, element_number=999,
        inclination_deg=inclination_deg, raan_deg=raan_deg,
        eccentricity=eccentricity, arg_perigee_deg=arg_perigee_deg,
        mean_anomaly_deg=mean_anomaly_deg,
        mean_motion_revs_per_day=mean_motion_revs_per_day, rev_number=1,
    )
    line1, line2 = format_tle(draft)
    return parse_tle(line1, line2, name=name)


def read_tle_file(path) -> list[Tle]:
    """Read all element sets from a file.

    Accepts both the bare 2-line and the named 3-line layouts, mixed
    freely; blank lines are ignored.
    """
    lines = [ln.rstrip("\r\n") for ln in
             Path(path).read_text().splitlines()]
    out: list[Tle] = []
    pending_name = ""
    i = 0
    while i < len(lines):
        line = lines[i]
        if line.strip() == "":
            i += 1
            continue
        if line.startswith("1 ") and len(line) == LINE_LENGTH:
            if i + 1 >= len(lines):
                raise MalformedField("file ends after a line 1")
            out.append(parse_tle(line, lines[i + 1], name=pending_name))
            pending_name = ""
            i += 2
        else:
            pending_name = line
            i += 1
    return out
