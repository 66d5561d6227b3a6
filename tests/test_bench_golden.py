"""The benchmark checks every op against its recorded golden output
(``perfbench/golden/``).  Its seed-0 workloads are cheap enough to run
here, so a change that moves a window's or a snapshot's bytes fails the
test suite and not only the benchmark."""

from conftest import load_perfbench


def test_pass_search_matches_golden(tmp_path):
    workloads = load_perfbench("workloads")
    wl = workloads.pass_search(0)
    workloads.write_inputs(wl, tmp_path)
    _, out = workloads._run_pass_search(wl, tmp_path)
    golden = workloads.load_golden(wl)
    assert golden is not None
    assert out.ops == golden.ops
    assert not out.bad


def test_demo_pass_matches_golden(tmp_path):
    workloads = load_perfbench("workloads")
    wl = workloads.demo_pass()
    workloads.write_inputs(wl, tmp_path)
    _, out = workloads.run_once(wl, tmp_path)
    golden = workloads.load_golden(wl)
    assert golden is not None
    attempted, failed = workloads.failed_ops(out, golden, len(golden.ops))
    assert attempted == len(golden.ops)
    assert failed == 0


def test_dense_city_matches_golden(tmp_path):
    # the only workload that traces a third bounce; output bytes do not
    # depend on the worker count
    workloads = load_perfbench("workloads")
    wl = workloads.dense_city(0, nproc=1)
    workloads.write_inputs(wl, tmp_path)
    _, out = workloads.run_once(wl, tmp_path)
    golden = workloads.load_golden(wl)
    assert golden is not None
    attempted, failed = workloads.failed_ops(out, golden, len(golden.ops))
    assert attempted == len(golden.ops)
    assert failed == 0
