"""Run the benchmark over several seeds and summarise the spread.

    python3 perfbench/collect.py --seeds 1-10
    python3 perfbench/collect.py --workloads pass_search --seeds 1-5 --trace 1
    python3 perfbench/collect.py --seeds 1-10 --trajectory perfbench/trajectory.json \
        --label "after change X"

Each (workload, seed) runs ``run.py`` in its own process, one after the
other, so that ``peak_rss_mb`` belongs to that workload alone.  For every
metric it prints the median, the quartiles (``statistics.quantiles``,
n=4), the sample count and the spread (q3 - q1) / median next to the
metric's bound.  ``--trajectory`` appends the summary, with the
environment, to a JSON list.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

import run

HERE = run.HERE
ROOT = run.ROOT
RUN_TIMEOUT_S = 300


def parse_seeds(text: str) -> list[int]:
    seeds: list[int] = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    return seeds


def run_one(workload: str, seed: int, trace: int, seconds: float) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=RUN_TIMEOUT_S)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}:\n"
                         f"{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    record = json.loads((ROOT / ".perfbench_out"
                         / f"{workload}-seed{seed}-trace{trace}"
                         / "result.json").read_text())
    result["env"] = record["env"]
    return result


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workloads",
                        default=",".join(w["name"] for w in bench["workloads"]))
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--seconds", type=float, default=bench["run_seconds"])
    parser.add_argument("--trajectory", type=Path)
    parser.add_argument("--label", default="")
    args = parser.parse_args(argv)

    section = "per_layer" if args.trace else "end_to_end"
    bounds = {m["name"]: m.get("bound") for m in bench[section]}
    entry = {"label": args.label, "trace": args.trace,
             "seconds": args.seconds, "seeds": parse_seeds(args.seeds),
             "workloads": {}}
    for workload in args.workloads.split(","):
        results = []
        for seed in entry["seeds"]:
            results.append(run_one(workload, seed, args.trace, args.seconds))
            r = results[-1]
            print(f"{workload} seed={seed} correct={r['correct']} "
                  f"attempted={r['attempted']} failed={r['failed']} "
                  + " ".join(f"{k}={v['value']:.6g}"
                             for k, v in r["metrics"].items()
                             if k in bounds and not args.trace),
                  flush=True)
        entry["env"] = results[0]["env"]
        summary = {"correct": all(r["correct"] for r in results),
                   "attempted": sum(r["attempted"] for r in results),
                   "failed": sum(r["failed"] for r in results),
                   "metrics": {}}
        for name, bound in bounds.items():
            s = run.summary([r["metrics"][name]["value"] for r in results])
            s["spread"] = ((s["q3"] - s["q1"]) / s["median"] if s["median"]
                           else 0.0)
            s["unit"] = results[0]["metrics"][name]["unit"]
            if bound is not None:
                s["bound"] = bound
            summary["metrics"][name] = s
            print(f"  {name:<28} median={s['median']:<12.6g} "
                  f"q1={s['q1']:<12.6g} q3={s['q3']:<12.6g} n={s['n']} "
                  f"spread={s['spread']:.4f}"
                  + (f" bound={bound}" if bound is not None else "")
                  + f" {s['unit']}")
        entry["workloads"][workload] = summary

    if args.trajectory:
        history = (json.loads(args.trajectory.read_text())
                   if args.trajectory.exists() else [])
        history.append(entry)
        args.trajectory.write_text(json.dumps(history, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
