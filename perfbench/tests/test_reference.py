"""Tests of the host gauge that states timings on the nominal host.

    python3 -m pytest perfbench/tests
"""
import signal
import sys
from pathlib import Path
from time import perf_counter

import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

from reference import HostGauge, host_factor  # noqa: E402


def busy(seconds):
    end = perf_counter() + seconds
    while perf_counter() < end:
        pass


def test_host_factor_runs_one_chunk_for_a_zero_window():
    assert host_factor(0.0) > 0.0


def test_gauge_ticks_during_the_call_and_restores_the_handler():
    previous = signal.getsignal(signal.SIGALRM)
    with HostGauge(0.01) as gauge:
        t0 = perf_counter()
        busy(0.2)
        t1 = perf_counter()
    assert signal.getsignal(signal.SIGALRM) is previous
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert gauge.count >= 5
    assert gauge.factor_sum / gauge.count > 0.0
    assert 0.0 < gauge.paused(t1) < t1 - t0


def test_paused_leaves_out_a_tick_begun_after_the_call():
    gauge = HostGauge(0.1)
    gauge.seconds, gauge.last = 0.006, (5.0, 0.002)
    assert gauge.paused(6.0) == pytest.approx(0.006)
    assert gauge.paused(5.0) == pytest.approx(0.004)
