"""leochan benchmark: one workload per process, end to end or traced.

    python3 perfbench/run.py --workload demo_pass --seed 1 --seconds 40 --trace 0

Run from the root of a checkout; the program is imported from ``src``.
Workloads: ``demo_pass``, ``dense_city``, ``pass_search`` (the ``why`` of
each is in ``BENCHMARK.json``).  The run repeats whole workload runs
while another one fits in ``--seconds`` (at least one), checks every
op's output, and reports medians over those runs.

``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json``.
First, in the fresh process and before any workload run, the set-up
alone is repeated for a fixed time; the median of those samples is
``setup_s``.  Only ``simulate_snapshot`` is wrapped, to time the step
phase.
``--trace 1`` alternates untraced and traced runs, checks that both give
the same bytes, and reports the per-layer metrics from the spans
(``tracing.py``), with ``trace.overhead_s`` = traced minus untraced wall.

Human-readable lines (medians, quartiles, sample counts, environment)
come first; the last line of standard output is the JSON result.  The
result record and, when traced, the spans are written under
``.perfbench_out/`` in the checkout.  ``--record-golden`` stores this
seed's outputs as the golden reference instead of measuring.
"""

from __future__ import annotations

import os

# Pin native thread pools before numpy is imported anywhere.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import gc
import json
import platform
import resource
import shutil
import statistics
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import tracing  # noqa: E402
import workloads  # noqa: E402

# Before the first workload run, set-up is repeated at least
# SETUP_MIN_REPS times and until it has taken SETUP_PHASE_S, at most
# SETUP_MAX_REPS times, after one untimed call; setup_s is the median.
SETUP_MIN_REPS = 5
SETUP_PHASE_S = 2.0
SETUP_MAX_REPS = 2000


def import_program():
    sys.path.insert(0, str(ROOT / "src"))
    try:
        import numpy
        import leochan.cli  # noqa: F401
    except ImportError as exc:
        sys.exit(f"perfbench: cannot import the program from "
                 f"{ROOT / 'src'}: {exc}")
    return numpy


def _git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            name = ref[5:]
            loose = ROOT / ".git" / name
            if loose.exists():
                return loose.read_text().strip()
            for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
                if line.endswith(" " + name):
                    return line.split()[0]
            return "unknown"
        return ref
    except OSError:
        return "unknown"


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def environment(numpy, nproc: int) -> dict:
    return {"nproc": nproc, "cpu": _cpu_model(),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "commit": _git_commit()}


def summary(values: list[float]) -> dict:
    """Median, quartiles and sample count of one metric's samples."""
    if len(values) > 1:
        q1, med, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = med = q3 = values[0]
    return {"median": med, "q1": q1, "q3": q3, "n": len(values)}


def ops_per_s(wl, out, wall: float, spans) -> float:
    """Searches per second of the run, or snapshots per second of the
    step phase; 0 for a run that failed."""
    if isinstance(wl, workloads.PassSearch):
        return len(wl.searches) / wall
    steps = [s for s in spans if s.name == "simulate.snapshot"]
    if out is None or not steps:
        return 0.0
    return len(out.ops) / (max(s.end for s in steps)
                           - min(s.start for s in steps))


def measure_setup(wl, work: Path) -> list[float]:
    """Set-up samples taken in the state a user's run starts from: a
    fresh process that has run no workload yet."""
    workloads.setup_once(wl, work)  # warm the file cache
    samples: list[float] = []
    begin = perf_counter()
    while len(samples) < SETUP_MAX_REPS and (
            len(samples) < SETUP_MIN_REPS
            or perf_counter() - begin < SETUP_PHASE_S):
        # A full collection first, so every sample starts from the same
        # garbage-collector state (left alone, collections triggered by
        # earlier repetitions add up to 70% to some runs' median).
        gc.collect()
        start = perf_counter()
        workloads.setup_once(wl, work)
        samples.append(perf_counter() - start)
    return samples


def iterate(seconds: float, body) -> None:
    """Call ``body()`` while another call is expected to fit in
    ``seconds``; at least once."""
    begin = perf_counter()
    took: list[float] = []
    while True:
        gc.collect()
        start = perf_counter()
        body()
        took.append(perf_counter() - start)
        if perf_counter() - begin + statistics.median(took) > seconds:
            return


class Checker:
    """Counts attempted and failed ops against the golden reference, or,
    for a seed without one, against the first outputs of this run."""

    def __init__(self, golden):
        self.ref = golden
        self.attempted = 0
        self.failed = 0

    def check(self, out) -> None:
        expected = len(self.ref.ops) if self.ref else 1
        attempted, failed = workloads.failed_ops(out, self.ref, expected)
        self.attempted += attempted
        self.failed += failed
        if self.ref is None and out is not None:
            self.ref = out


def run_untraced(wl, work: Path, seconds: float, checker: Checker) -> dict:
    samples: dict[str, list[float]] = {"setup_s": measure_setup(wl, work),
                                       "wall_s": [], "ops_per_s": []}

    def body():
        with tracing.Tracer(names={"simulate.snapshot"}) as clock:
            wall, out = workloads.run_once(wl, work)
        checker.check(out)
        samples["wall_s"].append(wall)
        samples["ops_per_s"].append(ops_per_s(wl, out, wall, clock.spans))

    iterate(seconds, body)
    return samples


def run_traced(wl, work: Path, seconds: float, checker: Checker,
               spans_path: Path):
    """Alternate untraced and traced runs; per-layer metrics are medians
    over the traced runs."""
    per_run: list[dict] = []
    overheads: list[float] = []

    def body():
        wall_plain, plain = workloads.run_once(wl, work)
        with tracing.Tracer() as tracer:
            wall_traced, traced = workloads.run_once(wl, work)
        # Without a golden the first untraced outputs become the
        # reference, so traced outputs are checked against untraced ones.
        checker.check(plain)
        checker.check(traced)
        tracer.write_tsv(spans_path, tag=str(len(per_run)))
        m = tracing.layer_metrics(tracer.spans, getattr(wl, "jobs", 1))
        m["trace.wall_s"] = wall_traced
        per_run.append(m)
        overheads.append(wall_traced - wall_plain)

    iterate(seconds, body)
    metrics = {k: statistics.median(m[k] for m in per_run) for k in per_run[0]}
    metrics["trace.overhead_s"] = statistics.median(overheads)
    return metrics, len(per_run)


def record_golden(wl, work: Path, root: Path = workloads.GOLDEN_DIR) -> Path:
    _, out = workloads.run_once(wl, work)
    if out is None or out.bad:
        sys.exit("perfbench: the run failed; no golden recorded")
    target = root / wl.name / wl.golden_key
    shutil.rmtree(target, ignore_errors=True)
    if isinstance(wl, workloads.PassSearch):
        workloads.write_windows(out, target)
    else:
        target.mkdir(parents=True)
        for name in workloads.SIM_TABLES:
            shutil.copy(work / "out" / name, target / name)
    return target


def measure(wl, work: Path, seconds: float, trace: int, bench: dict,
            golden) -> tuple[dict, dict]:
    """Set up, run and check one workload; returns the result line and
    the samples behind it."""
    checker = Checker(golden)
    if trace:
        section = "per_layer"
        samples: dict[str, list[float]] = {}
        values, runs = run_traced(wl, work, seconds, checker,
                                  work / "spans.tsv")
    else:
        section = "end_to_end"
        samples = run_untraced(wl, work, seconds, checker)
        values = {k: statistics.median(v) for k, v in samples.items()}
        values["peak_rss_mb"] = (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
        runs = len(samples["wall_s"])
    metrics = {m["name"]: {"value": float(values[m["name"]]), "unit": m["unit"]}
               for m in bench[section]}
    result = {"correct": checker.failed == 0 and checker.attempted > 0,
              "attempted": checker.attempted, "failed": checker.failed,
              "metrics": metrics}
    return result, {"runs": runs, "samples": samples}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-golden", action="store_true")
    args = parser.parse_args(argv)

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    numpy = import_program()
    nproc = len(os.sched_getaffinity(0))
    wl = workloads.build(args.workload, args.seed, nproc)
    work = ROOT / ".perfbench_out" / f"{wl.name}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    workloads.write_inputs(wl, work)

    if args.record_golden:
        print(f"golden recorded in {record_golden(wl, work)}")
        return 0

    golden = workloads.load_golden(wl)
    result, detail = measure(wl, work, args.seconds, args.trace, bench, golden)
    env = environment(numpy, nproc)
    record = {"workload": wl.name, "seed": args.seed, "trace": args.trace,
              "seconds": args.seconds, "jobs": getattr(wl, "jobs", 1),
              "runs": detail["runs"], "golden_checked": golden is not None,
              "env": env, "samples": detail["samples"], "result": result}
    (work / "result.json").write_text(json.dumps(record, indent=1) + "\n")

    units = {m["name"]: m["unit"]
             for m in bench["end_to_end"] + bench["per_layer"]}
    print(f"# workload={wl.name} seed={args.seed} trace={args.trace} "
          f"runs={detail['runs']} jobs={record['jobs']} "
          f"golden={golden is not None}")
    print("# env " + " ".join(f"{k}={v!r}" for k, v in env.items()))
    for name, values in detail["samples"].items():
        s = summary(values)
        print(f"# {name:<12} median={s['median']:.6g} q1={s['q1']:.6g} "
              f"q3={s['q3']:.6g} n={s['n']} {units[name]}")
    for name, m in result["metrics"].items():
        print(f"# {name} = {m['value']:.6g} {m['unit']}")
    print(f"# ops={result['attempted']} ops_failed={result['failed']} count")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
