"""Span tracing from outside the program, and the per-layer metrics.

A traced run replaces public functions at the module attribute each
caller looks up (``leochan.passes.sgp4_propagate``,
``leochan.frames.teme_to_eci``, ``Scene.intersect_batch``, ...) with a
wrapper that records one span per call: name, start, end, parent span
and thread.  Spans stay in memory and are written out when the run
ends.  Nothing inside ``src/leochan`` changes.  A wrapped attribute that
the program no longer has is an error that names it, so a renamed
function cannot turn its metrics into a false zero: update ``WRAPPED``.

A span's self time is its duration minus the time its child spans cover
(children run on the caller's thread, nested inside the parent).
"""

from __future__ import annotations

import functools
import importlib
import itertools
import statistics
import threading
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

# (module, attribute[.method], span name).  The layer is the span name
# up to the first dot.  Module attributes are patched where the caller
# looks them up: ``passes`` imports ``sgp4_propagate`` and
# ``earth_orientation`` by name, ``simulate`` and ``passes`` reach
# ``frames``, ``tracer`` and ``link`` through the module object.
WRAPPED = (
    ("leochan.cli", "parse_config", "config.parse"),
    ("leochan.cli", "run_pass_simulation", "simulate.run"),
    ("leochan.cli", "emit_outputs", "simulate.emit"),
    ("leochan.simulate", "read_tle_file", "tle.read"),
    ("leochan.tle", "read_tle_file", "tle.read"),
    ("leochan.simulate", "simulate_snapshot", "simulate.snapshot"),
    ("leochan.passes", "find_pass", "passes.find_pass"),
    ("leochan.passes", "Ephemeris.ecef_at", "passes.ecef_at"),
    ("leochan.passes", "sgp4_init", "sgp4.init"),
    ("leochan.passes", "sgp4_propagate", "sgp4.propagate"),
    ("leochan.passes", "minutes_between", "frames.minutes_between"),
    ("leochan.passes", "earth_orientation", "frames.earth_orientation"),
    ("leochan.passes", "geodetic_to_ecef", "frames.geodetic_to_ecef"),
    ("leochan.frames", "geodetic_to_ecef", "frames.geodetic_to_ecef"),
    ("leochan.frames", "teme_to_eci", "frames.teme_to_eci"),
    ("leochan.frames", "eci_to_ecef", "frames.eci_to_ecef"),
    ("leochan.frames", "global_to_local", "frames.global_to_local"),
    ("leochan.frames", "build_local_frame", "frames.build_local_frame"),
    ("leochan.scene", "generate_city", "scene.build"),
    ("leochan.scene", "Scene.intersect_batch", "scene.intersect"),
    ("leochan.tracer", "build_launch_plane", "tracer.launch_plane"),
    ("leochan.tracer", "trace", "tracer.trace"),
    ("leochan.link", "build_snapshot", "link.score"),
)

# Bounce segments reported one by one: dense_city traces 3 bounces.
SEGMENTS = 4


def _intersect_counts(args, kwargs, result):
    origins = args[1] if len(args) > 1 else kwargs["origins"]
    return {"rays_in": len(origins), "rays_hit": int((result[1] >= 0).sum())}


def _trace_counts(args, kwargs, result):
    plane = args[0] if args else kwargs["plane"]
    nu, nv = plane.grid_shape()
    return {"launch_rays": nu * nv, "paths": len(result)}


def _score_counts(args, kwargs, result):
    return {"paths": len(result.paths)}


def _emit_counts(args, kwargs, result):
    return {"bytes": sum(Path(p).stat().st_size for p in result)}


COUNTERS = {
    "scene.intersect": _intersect_counts,
    "tracer.trace": _trace_counts,
    "link.score": _score_counts,
    "simulate.emit": _emit_counts,
}


@dataclass
class Span:
    id: int
    parent: int | None
    name: str
    thread: int
    start: float
    end: float
    counts: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Records spans while installed; restores every attribute on exit."""

    def __init__(self, names=None):
        """``names`` limits the wrapped functions to these span names."""
        self.names = names
        self.spans: list[Span] = []
        self._ids = itertools.count()
        self._local = threading.local()
        self._restore: list[tuple[object, str, object]] = []

    def _wrap(self, fn, name: str):
        counter = COUNTERS.get(name)
        local = self._local
        spans = self.spans
        ids = self._ids

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            sid = next(ids)
            parent = stack[-1] if stack else None
            stack.append(sid)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
            span = Span(sid, parent, name, threading.get_ident(), start, end)
            if counter is not None:
                span.counts = counter(args, kwargs, result)
            spans.append(span)
            return result

        return wrapper

    def __enter__(self):
        for module_name, attr, name in WRAPPED:
            if self.names is not None and name not in self.names:
                continue
            owner = importlib.import_module(module_name)
            *path, leaf = attr.split(".")
            try:
                for part in path:
                    owner = getattr(owner, part)
                original = getattr(owner, leaf)
            except AttributeError:
                self.__exit__()
                raise AttributeError(
                    f"tracing: {module_name}.{attr} is gone; update "
                    f"WRAPPED for span {name!r}") from None
            self._restore.append((owner, leaf, original))
            setattr(owner, leaf, self._wrap(original, name))
        return self

    def __exit__(self, *exc):
        for owner, leaf, original in reversed(self._restore):
            setattr(owner, leaf, original)
        self._restore.clear()
        return False

    def write_tsv(self, path: Path, tag: str) -> None:
        """Append the spans as tab-separated rows, tagged with a run id."""
        new = not path.exists()
        with path.open("a") as fh:
            if new:
                fh.write("run\tid\tparent\tname\tthread\tstart\tend\tcounts\n")
            for s in self.spans:
                counts = ",".join(f"{k}={v}" for k, v in s.counts.items())
                fh.write(f"{tag}\t{s.id}\t{'' if s.parent is None else s.parent}"
                         f"\t{s.name}\t{s.thread}\t{s.start!r}\t{s.end!r}"
                         f"\t{counts}\n")


def layer_metrics(spans: list[Span], jobs: int) -> dict[str, float]:
    """Per-layer metrics of one traced workload iteration."""
    by_id = {s.id: s for s in spans}
    by_name: dict[str, list[Span]] = {}
    child_time: dict[int, float] = {}
    for s in spans:
        by_name.setdefault(s.name, []).append(s)
        if s.parent is not None:
            child_time[s.parent] = child_time.get(s.parent, 0.0) + s.duration

    def named(name):
        return by_name.get(name, [])

    def total(name):
        return sum(s.duration for s in named(name))

    def self_time(pred):
        return sum(s.duration - child_time.get(s.id, 0.0)
                   for s in spans if pred(s))

    def count(name, key):
        return sum(s.counts.get(key, 0) for s in named(name))

    m: dict[str, float] = {}
    m["config.parse_s"] = total("config.parse")
    m["tle.read_s"] = total("tle.read")

    ecef = named("passes.ecef_at")
    m["passes.find_pass_s"] = total("passes.find_pass")
    m["passes.ecef_at_calls"] = len(ecef)
    m["passes.ecef_at_us"] = (1e6 * sum(s.duration for s in ecef) / len(ecef)
                              if ecef else 0.0)
    m["sgp4.propagate_s"] = total("sgp4.propagate")
    m["sgp4.propagate_calls"] = len(named("sgp4.propagate"))
    m["frames.s"] = self_time(lambda s: s.name.startswith("frames."))
    m["frames.calls"] = sum(1 for s in spans if s.name.startswith("frames."))

    m["scene.build_s"] = total("scene.build")
    intersects = named("scene.intersect")
    m["scene.intersect_s"] = sum(s.duration for s in intersects)
    # The k-th intersect call under one trace span is bounce segment k.
    segment_of: dict[int, int] = {}
    seen: dict[int, int] = {}
    for s in sorted(intersects, key=lambda s: s.start):
        parent = by_id.get(s.parent)
        if parent is not None and parent.name == "tracer.trace":
            segment_of[s.id] = seen.get(parent.id, 0)
            seen[parent.id] = segment_of[s.id] + 1
    for k in range(SEGMENTS):
        seg = [s for s in intersects if segment_of.get(s.id) == k]
        m[f"scene.intersect_s.seg{k}"] = sum(s.duration for s in seg)
        m[f"scene.rays_in.seg{k}"] = sum(s.counts["rays_in"] for s in seg)
        m[f"scene.rays_hit.seg{k}"] = sum(s.counts["rays_hit"] for s in seg)
    rays_in = count("scene.intersect", "rays_in")
    rays_hit = count("scene.intersect", "rays_hit")
    m["scene.hit_ratio"] = rays_hit / rays_in if rays_in else 0.0
    m["scene.rays_per_s"] = (rays_in / m["scene.intersect_s"]
                             if m["scene.intersect_s"] > 0.0 else 0.0)

    m["tracer.launch_plane_s"] = total("tracer.launch_plane")
    m["tracer.trace_s"] = total("tracer.trace")
    m["tracer.self_s"] = self_time(lambda s: s.name == "tracer.trace")
    m["tracer.launch_rays"] = count("tracer.trace", "launch_rays")
    m["tracer.paths"] = count("tracer.trace", "paths")

    m["link.score_s"] = total("link.score")
    m["link.paths_scored"] = count("link.score", "paths")

    steps = named("simulate.snapshot")
    busy = [s.duration for s in steps]
    m["simulate.step_s.p50"] = statistics.median(busy) if busy else 0.0
    m["simulate.step_s.max"] = max(busy) if busy else 0.0
    if steps:
        phase = max(s.end for s in steps) - min(s.start for s in steps)
        m["simulate.pool_efficiency"] = sum(busy) / (jobs * phase)
    else:
        m["simulate.pool_efficiency"] = 0.0
    m["simulate.emit_s"] = total("simulate.emit")
    m["simulate.bytes_written"] = count("simulate.emit", "bytes")
    return m
