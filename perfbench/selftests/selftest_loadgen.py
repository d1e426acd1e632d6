"""Open-loop lateness and closed-loop depth against a stub engine."""

import benchpath  # noqa: F401  (sets sys.path first)

import threading
import time

import pytest

from loadgen import closed_loop, open_loop


class Done:
    def __init__(self, value=None, error=None):
        self.value, self.error = value, error

    def result(self):
        if self.error is not None:
            raise self.error
        return self.value


def test_stalled_send_makes_later_batches_late():
    """A 60 ms stall in one send delays the batches due behind it, and
    their latency is charged from their due time."""
    rate, stall_at, stall = 200.0, 3, 0.06

    def submit(batch):
        if batch == stall_at:
            time.sleep(stall)
        return Done(batch)

    result = open_loop(submit, list(range(20)), rate, 20)
    assert result.failed == 0
    assert max(result.lateness[:stall_at + 1]) < 0.02
    # Batch 4 was due 5 ms after batch 3 but could only go out after the
    # stall: ~55 ms late.
    assert result.lateness[stall_at + 1] > stall - 1.5 / rate
    for late, latency in zip(result.lateness, result.latencies):
        assert latency >= late
    # The generator catches up: the schedule does not drift forever.
    assert result.lateness[-1] < result.lateness[stall_at + 1]


def test_failed_batch_counts_as_missing():
    def submit(batch):
        if batch == 2:
            return Done(error=RuntimeError("worker died"))
        if batch == 4:
            raise RuntimeError("pool broken")
        return Done(batch)

    result = open_loop(submit, list(range(8)), 400.0, 8)
    assert result.failed == 2
    assert len(result.latencies) == 8
    assert len(result.intervals) == 6
    # Missing batches read as late as the end of the phase.
    assert result.latencies[2] >= max(result.latencies[5:])
    assert result.latencies[4] >= max(result.latencies[5:])


def test_closed_loop_keeps_depth_in_flight():
    lock = threading.Lock()
    state = {"open": 0, "peak": 0}

    class Handle:
        def result(self):
            with lock:
                state["open"] -= 1
            return "ok"

    def submit(batch):
        with lock:
            state["open"] += 1
            state["peak"] = max(state["peak"], state["open"])
        return Handle()

    result = closed_loop(submit, [[1, 2]] * 5, depth=3, seconds=0.05,
                         keep=4)
    assert state["peak"] == 3
    assert state["open"] == 0
    assert result.failed == 0
    assert result.queries == 2 * result.batches
    assert result.answers == ["ok"] * 4
    assert result.qps == pytest.approx(result.queries / result.seconds)


def test_closed_loop_sends_every_kept_batch_past_the_deadline():
    batches = [[i] for i in range(50)]
    result = closed_loop(lambda batch: Done(batch), batches, depth=2,
                         seconds=0.0, keep=7)
    assert result.answers == batches[:7]
