"""The benchmark checks every op against its recorded golden output
(``perfbench/golden/``).  Its seed-0 workloads are cheap enough to run
here, so a change that moves a window's or a snapshot's bytes fails the
test suite and not only the benchmark.  So does a change in the work
the benchmark's tracer counts on them (calls per layer, rays in and hits
per bounce segment)."""

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


def _traced_metrics(build, work):
    """The benchmark's per-layer metrics of one traced run of the
    workload that ``build`` makes from the benchmark's workloads module
    (each load of it defines its workload classes anew)."""
    workloads = load_perfbench("workloads")
    tracing = load_perfbench("tracing")
    wl = build(workloads)
    workloads.write_inputs(wl, work)
    with tracing.Tracer() as tracer:
        _, out = workloads.run_once(wl, work)
    assert out is not None and not out.bad
    return tracing.layer_metrics(tracer.spans, getattr(wl, "jobs", 1))


def test_pass_search_work_counts(tmp_path):
    # Work that does not depend on the host's speed: a change that
    # claims a faster frame chain must not make it by calling it less.
    m = _traced_metrics(lambda w: w.pass_search(0), tmp_path)
    assert (m["passes.ecef_at_calls"], m["frames.calls"],
            m["sgp4.propagate_calls"]) == (232, 960, 240)


def test_demo_pass_work_counts(tmp_path):
    m = _traced_metrics(lambda w: w.demo_pass(), tmp_path)
    assert [m[f"scene.rays_in.seg{k}"] for k in range(3)] == \
        [402_291, 2_049, 111]
    assert [m[f"scene.rays_hit.seg{k}"] for k in range(3)] == \
        [4_910, 1_181, 108]
