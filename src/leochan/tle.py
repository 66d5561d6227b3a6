"""Two-line element (TLE) parsing and validation.

Parsing is strict fixed-column: no token splitting, no whitespace
recovery.  A corrupted line should fail loudly (checksum or field error),
never produce a silently shifted element.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from datetime import datetime
from pathlib import Path

from .timebase import epoch_from_year_day

LINE_LENGTH = 69

# A fixed-column decimal field: optional sign, digits and at most one
# point, padded with spaces.  No exponent, no "inf" or "nan".
_DECIMAL = re.compile(r" *[+-]?([0-9]+\.?[0-9]*|\.[0-9]+) *")


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
        raise LineLengthError(f"line {expected_number} must be "
                              f"{LINE_LENGTH} characters, got {len(line)}")
    if line[0] != expected_number:
        raise MalformedField(
            f"expected line number {expected_number!r}, got {line[0]!r}")
    if not line[68].isdigit():
        raise ChecksumMismatch(f"line {expected_number} checksum column is "
                               f"not a digit: {line[68]!r}")
    expected = int(line[68])
    actual = tle_checksum(line)
    if actual != expected:
        raise ChecksumMismatch(
            f"line {expected_number} checksum {actual} != printed {expected}")


def _parse_float(field: str, what: str) -> float:
    if _DECIMAL.fullmatch(field) is None:
        raise MalformedField(f"{what}: not a decimal number: {field!r}")
    return float(field)


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


def parse_tle(line1: str, line2: str, name: str) -> Tle:
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


def read_utf8(path) -> str:
    """The text of file ``path``, decoded as UTF-8 whatever the locale.

    Bytes that are not UTF-8 text raise ``ValueError`` that starts
    ``path:line:``, the line of the first bad byte counted from 1 as
    ``str.splitlines`` counts them.
    """
    data = Path(path).read_bytes()
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = len((data[:exc.start].decode("utf-8") + ".").splitlines())
        raise ValueError(f"{path}:{line}: not UTF-8 text: {exc.reason} "
                         f"at byte {exc.start}") from None


def read_tle_file(path) -> list[Tle]:
    """Read all element sets from a file.

    Accepts both the bare 2-line and the named 3-line layouts, mixed
    freely; blank lines are ignored.  Any damage fails the whole file
    with a :class:`TleError` that starts ``path:line:``: a line 2 that
    does not follow a line 1, a name that is not followed by a line 1,
    or a set that does not parse (``path:line1-line2:``), such as a line
    1 of the wrong length, or bytes that are not UTF-8 text.
    """
    try:
        lines = read_utf8(path).splitlines()
    except ValueError as exc:
        raise TleError(str(exc)) from None
    out: list[Tle] = []
    name_at = None  # index of a name line still waiting for its line 1
    try:
        i = 0
        while i < len(lines):
            line = lines[i]
            at = str(i + 1)  # the file line(s) under check
            if not line.strip():
                i += 1
            elif line.startswith("2 "):
                raise MalformedField("line 2 does not follow a line 1")
            elif not line.startswith("1 "):
                if name_at is not None:
                    break  # the earlier name has no line 1: reported below
                name_at, i = i, i + 1
            elif i + 1 == len(lines):
                raise MalformedField("file ends after a line 1")
            else:
                at = f"{i + 1}-{i + 2}"
                name = "" if name_at is None else lines[name_at]
                out.append(parse_tle(line, lines[i + 1], name=name))
                name_at, i = None, i + 2
        if name_at is not None:
            at = str(name_at + 1)
            raise MalformedField(f"name {lines[name_at].strip()!r} is not "
                                 f"followed by a line 1")
    except TleError as exc:
        raise type(exc)(f"{path}:{at}: {exc}") from None
    return out
