import pytest

from trace_memory import BOUNCES, main, trace_peak

# Bytes per launch ray that one trace of C06's flat ground at 1 m may
# hold at its peak, per bounce count, as stated beside
# ``tracer.MAX_LAUNCH_RAYS``: 2.7 measured at one and two bounces, and
# 283 at three.
LIMIT_BYTES_PER_RAY = {1: 4.0, 2: 4.0, 3: 300.0}


@pytest.mark.parametrize("bounces", BOUNCES)
def test_trace_memory_per_launch_ray(bounces):
    peak, rays = trace_peak(bounces)
    assert rays == 785_547
    assert peak <= LIMIT_BYTES_PER_RAY[bounces] * rays


def test_trace_memory_prints_a_row_per_bounce_count(capsys, monkeypatch):
    monkeypatch.setattr("trace_memory.trace_peak", lambda b: (2 ** 20 * b, 2))
    assert main([]) == 0
    assert capsys.readouterr().out == (
        "      1       1.0  524288.0\n"
        "      2       2.0  1048576.0\n"
        "      3       3.0  1572864.0\n")
