"""Fast self-test of the benchmark harness at tiny sizes.

    python3 perfbench/selftest.py

Checks that every metric named in ``BENCHMARK.json`` is emitted with its
unit, untraced and traced, that traced and untraced runs agree, that a
corrupted golden reference counts as a failed op, that a snapshot that
raises fails every op, and that tracing a function the program no
longer has is an error.
"""

from __future__ import annotations

import json
import shutil
import sys
import unittest
from pathlib import Path
from unittest import mock

import run  # pins thread pools and puts the harness on sys.path
import tracing
import workloads

BENCH = json.loads((run.ROOT / "BENCHMARK.json").read_text())
WORK = run.ROOT / ".perfbench_out" / "selftest"


def tiny_simulate():
    return workloads.dense_city(seed=0, nproc=2, grid=2, spacing_m=40,
                                step_s=120, bounces=1)


def tiny_pass_search():
    return workloads.pass_search(seed=0, searches=1)


def measure(wl, trace: int, golden=None):
    work = WORK / f"{wl.name}-trace{trace}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    workloads.write_inputs(wl, work)
    result, _ = run.measure(wl, work, seconds=0.0, trace=trace, bench=BENCH,
                            golden=golden)
    return result


def corrupt_second_op(golden_dir: Path, table: str) -> None:
    """Flip the last digit of the second op's row in ``table``."""
    path = golden_dir / table
    lines = path.read_text().splitlines()
    row = lines[2]
    lines[2] = row[:-1] + ("1" if row[-1] != "1" else "2")
    path.write_text("\n".join(lines) + "\n")


class HarnessTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        run.import_program()

    def assert_metrics(self, result, section):
        want = {m["name"]: m["unit"] for m in BENCH[section]}
        got = {k: v["unit"] for k, v in result["metrics"].items()}
        self.assertEqual(got, want)
        for v in result["metrics"].values():
            self.assertIsInstance(v["value"], float)
        self.assertEqual(set(result),
                         {"correct", "attempted", "failed", "metrics"})

    def test_simulate_metrics_and_traced_identity(self):
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            result = measure(tiny_simulate(), trace)
            self.assert_metrics(result, section)
            self.assertTrue(result["correct"], result)
            self.assertGreater(result["attempted"], 0)
            self.assertEqual(result["failed"], 0)

    def test_pass_search_metrics(self):
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            result = measure(tiny_pass_search(), trace)
            self.assert_metrics(result, section)
            self.assertTrue(result["correct"], result)
            self.assertEqual(result["failed"], 0)

    def test_corrupted_golden_fails_one_snapshot(self):
        wl = tiny_simulate()
        out = WORK / "golden" / wl.name / wl.golden_key
        shutil.rmtree(out, ignore_errors=True)
        work = WORK / "record"
        shutil.rmtree(work, ignore_errors=True)
        work.mkdir(parents=True)
        workloads.write_inputs(wl, work)
        run.record_golden(wl, work, root=WORK / "golden")
        good = workloads.load_golden(wl, WORK / "golden")
        self.assertEqual(measure(wl, 0, good)["failed"], 0)
        corrupt_second_op(out, "timeseries.csv")
        result = measure(wl, 0, workloads.load_golden(wl, WORK / "golden"))
        self.assertFalse(result["correct"])
        self.assertEqual(result["failed"], 1)
        self.assertEqual(result["attempted"], len(good.ops))

    def test_corrupted_golden_fails_one_search(self):
        wl = workloads.pass_search(seed=0, searches=2)
        out = WORK / "golden" / wl.name / wl.golden_key
        work = WORK / "record"
        shutil.rmtree(work, ignore_errors=True)
        work.mkdir(parents=True)
        workloads.write_inputs(wl, work)
        run.record_golden(wl, work, root=WORK / "golden")
        corrupt_second_op(out, "windows.csv")
        result = measure(wl, 0, workloads.load_golden(wl, WORK / "golden"))
        self.assertFalse(result["correct"])
        self.assertEqual((result["attempted"], result["failed"]), (2, 1))

    def test_raising_snapshot_fails_every_op(self):
        from leochan import simulate

        wl = tiny_simulate()
        root = WORK / "golden-raise"
        shutil.rmtree(root, ignore_errors=True)
        work = WORK / "record"
        shutil.rmtree(work, ignore_errors=True)
        work.mkdir(parents=True)
        workloads.write_inputs(wl, work)
        run.record_golden(wl, work, root=root)
        golden = workloads.load_golden(wl, root)

        def broken(*args, **kwargs):
            raise RuntimeError("snapshot failed")

        with mock.patch.object(simulate, "simulate_snapshot", broken):
            for trace, section in ((0, "end_to_end"), (1, "per_layer")):
                result = measure(wl, trace, golden)
                self.assert_metrics(result, section)
                self.assertFalse(result["correct"])
                self.assertGreater(result["attempted"], 0)
                self.assertEqual(result["failed"], result["attempted"])

    def test_missing_wrapped_function_is_an_error(self):
        from leochan import cli

        original = cli.parse_config
        gone = (("leochan.scene", "Scene.no_such_method", "scene.gone"),)
        with mock.patch.object(tracing, "WRAPPED", tracing.WRAPPED + gone):
            with self.assertRaisesRegex(AttributeError, "no_such_method"):
                with tracing.Tracer():
                    pass
        self.assertIs(cli.parse_config, original)


if __name__ == "__main__":
    sys.exit(unittest.main(verbosity=2))
