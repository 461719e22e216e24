"""The noise controls: a frozen kernel and exact normalisation arithmetic."""

import pytest

import timing


def test_reference_kernel_is_frozen():
    # Changing the kernel re-bases every timing metric ever recorded.
    assert timing.KERNEL_ITERATIONS == 10000
    assert timing.REF_NOMINAL_MS == 2.5
    assert timing.reference_kernel() == timing.KERNEL_RESULT


def test_reference_kernel_never_wakes_the_collector():
    import gc

    gc.collect()
    before = [generation["collections"] for generation in gc.get_stats()]
    for _ in range(5):
        timing.reference_kernel()
    assert [generation["collections"] for generation in gc.get_stats()] == before


def _trace(samples):
    """A speed trace with hand-placed samples: [(position, kernel seconds)]."""
    trace = timing.SpeedTrace()
    trace._at = [at for at, _ in samples]
    trace._ref = [ref for _, ref in samples]
    return trace


def test_nominal_scales_by_core_speed():
    nominal = _trace([(0.0, 0.0025), (1.0, 0.0025)]).nominal
    # 10 ms of work beside a kernel running at nominal speed is 10 ms.
    assert nominal(0.100, 0.110) == pytest.approx(0.010)
    fast = _trace([(0.0, 0.00125), (1.0, 0.00125)]).nominal
    # The same work on a core that runs the kernel twice as fast.
    assert fast(0.100, 0.105) == pytest.approx(0.010)
    assert fast(0.5, 0.5) == 0.0


def test_device_wait_is_taken_out_before_scaling():
    from runner import Meter, Timed

    meter = Meter(_trace([(0.0, 0.00125), (1.0, 0.00125)]))
    # A 9 ms write, 4 ms of it inside fsync, on a core twice as fast as
    # nominal: the 5 ms of program time count double, the wait not at all.
    write = Timed("write", 0.100, 0.109, wait=0.004)
    assert meter.nominal(write) == pytest.approx(0.010)
    assert meter.factor(write) == pytest.approx(2.0)


def test_nominal_integrates_over_a_speed_change():
    # The core halves its speed at t=1: kernel 2.5 ms before, 5 ms after.
    trace = _trace([(0.0, 0.0025), (1.0, 0.0025), (1.0, 0.005), (2.0, 0.005)])
    # One second at nominal speed, one at half speed = 1.5 nominal seconds.
    assert trace.nominal(0.0, 2.0) == pytest.approx(1.5)
    # An interval between two samples is scaled by the mean of the two.
    ramp = _trace([(0.0, 0.002), (1.0, 0.003)])
    assert ramp.nominal(0.25, 0.75) == pytest.approx(0.5)
    # Before the first and after the last sample the nearest one stands in.
    assert ramp.nominal(-1.0, -0.5) == pytest.approx(0.5 * 2.5 / 2.0)
    assert ramp.nominal(1.5, 2.0) == pytest.approx(0.5 * 2.5 / 3.0)


def test_speed_trace_samples_on_a_timer_and_hides_its_own_cost():
    import time

    trace = timing.SpeedTrace()
    trace.start()
    try:
        started_wall, started = time.perf_counter(), trace.now()
        while time.perf_counter() - started_wall < 0.3:
            pass
        wall, seen = time.perf_counter() - started_wall, trace.now() - started
    finally:
        trace.stop()
    assert len(trace._at) >= 4  # first, last, and the timer's in between
    assert trace._at == sorted(trace._at)
    assert 0.0 < trace.sampling_seconds
    assert seen == pytest.approx(wall - (trace.sampling_seconds - trace._ref[0]), abs=0.01)
    assert seen < wall


def test_percentile_interpolates():
    samples = [5.0, 1.0, 3.0, 2.0, 4.0]
    assert timing.percentile(samples, 0.0) == 1.0
    assert timing.percentile(samples, 0.5) == 3.0
    assert timing.percentile(samples, 0.9) == pytest.approx(4.6)
    assert timing.percentile(samples, 1.0) == 5.0
    with pytest.raises(ValueError):
        timing.percentile([], 0.5)


def test_spread_is_interquartile_distance_over_median():
    values = [10.0, 11.0, 12.0, 13.0, 14.0, 15.0, 16.0, 17.0, 18.0, 19.0]
    # statistics.quantiles(n=4) on these: 11.75, 14.5, 17.25
    assert timing.spread(values) == pytest.approx((17.25 - 11.75) / 14.5)
    assert timing.spread([3.0] * 5) == 0.0
