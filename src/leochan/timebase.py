"""UTC instants and Julian-date arithmetic.

All timestamps in the package are timezone-aware UTC datetimes: an
element-set epoch from ``epoch_from_year_day``, plus timedeltas.  So
these functions read an instant's fields as they stand and convert no
time zone.  Julian dates are carried as (day, fraction) pairs so that
sidereal angles keep sub-microsecond precision; collapsing to a single
float would cost ~50 us near the current epoch.
"""

from __future__ import annotations

import math
from datetime import datetime, timedelta, timezone

# Julian date of the J2000 reference epoch (2000-01-01 12:00 TT).
JD_J2000 = 2451545.0

# Fixed UTC -> Terrestrial Time offset: 32.184 s + 37 leap seconds.
# Valid for the 2017+ leap-second regime; no leap table is ingested.
TT_MINUS_UTC_S = 69.184

SECONDS_PER_DAY = 86400.0


def jd_midnight(year: int, month: int, day: int) -> float:
    """Julian date of 00:00 on a Gregorian calendar date (half-integer)."""
    return (367.0 * year
            - math.floor(7 * (year + math.floor((month + 9) / 12.0)) * 0.25)
            + math.floor(275 * month / 9.0)
            + day + 1721013.5)


def jd_pair(t: datetime) -> tuple[float, float]:
    """Split an instant into (Julian date at midnight, fraction of day)."""
    jd = jd_midnight(t.year, t.month, t.day)
    frac = (t.hour * 3600.0 + t.minute * 60.0 + t.second
            + t.microsecond * 1e-6) / SECONDS_PER_DAY
    return jd, frac


def julian_centuries_tt(t: datetime) -> float:
    """Julian centuries of Terrestrial Time since J2000 for a UTC instant."""
    tt = t + timedelta(seconds=TT_MINUS_UTC_S)
    jd, frac = jd_pair(tt)
    return ((jd - JD_J2000) + frac) / 36525.0


def gmst_rad(t: datetime) -> float:
    """Greenwich mean sidereal time, radians in [0, 2pi).

    IAU 1982 polynomial; UT1 is approximated by UTC (sub-second DUT1 is
    below the geometric tolerances used here).

    The 876600h whole-rotation term is reduced modulo one day in closed
    form before any multiplication: evaluating the raw polynomial costs
    ~1e-7 s of double-precision jitter, which would alias into spurious
    mm/s velocities under millisecond finite differencing.
    """
    jd, frac = jd_pair(t)
    days = jd - JD_J2000          # half-integer (midnight JD)
    tut1 = (days + frac) / 36525.0
    # 876600 h * 3600 = 3155760000 s = 86400 s/day * 36525 days/century,
    # so that term contributes exactly one extra rotation per day:
    # 86400*days mod 86400 = 43200 (days is a half-integer).
    sec = (67310.54841 + 43200.0 + 86400.0 * frac
           + tut1 * (8640184.812866 + tut1 * (0.093104 - 6.2e-6 * tut1)))
    gmst = math.fmod(sec * (math.pi / 180.0) / 240.0, 2.0 * math.pi)
    if gmst < 0.0:
        gmst += 2.0 * math.pi
    return gmst


def epoch_from_year_day(year: int, day_of_year: float) -> datetime:
    """UTC instant from a year and fractional day of year (1.0 = Jan 1 00:00).

    Resolution is truncated to whole microseconds, which exceeds the
    8-decimal day fraction used by element sets.
    """
    base = datetime(year, 1, 1, tzinfo=timezone.utc)
    return base + timedelta(microseconds=round((day_of_year - 1.0) * 86400e6))


def minutes_between(t0: datetime, t1: datetime) -> float:
    """Exact (t1 - t0) in minutes via timedelta arithmetic."""
    return (t1 - t0).total_seconds() / 60.0
