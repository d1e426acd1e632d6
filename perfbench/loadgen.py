"""Closed- and open-loop load generation from one client process.

``submit(batch)`` returns a handle whose ``result()`` blocks for the
answer -- :meth:`repro.serving.QueryEngine.submit` is the real one, the
self-tests pass a stub.

* Closed loop: ``depth`` batches in flight; the next batch is sent only
  when the oldest one has been answered.  This measures throughput.
* Open loop: batch ``i`` is due at ``t0 + i / rate`` whatever the engine
  does.  Latency is timed from the due time, so a stall also charges the
  batches queued behind it, and the generator's own lateness (send time
  minus due time) is reported.  A failed batch counts as missing: its
  latency is the time from its due time to the end of the phase.
"""

from __future__ import annotations

import collections
import queue
import threading
import time
from dataclasses import dataclass, field
from typing import Callable, List, Optional


@dataclass
class ClosedLoop:
    batches: int
    queries: int
    failed: int
    seconds: float
    #: Answers of the first ``keep`` batches, in send order (None = failed).
    answers: List[object] = field(default_factory=list)

    @property
    def qps(self) -> float:
        return self.queries / self.seconds


@dataclass
class OpenLoop:
    #: Per-batch latency from due time to answer (seconds), send order.
    latencies: List[float]
    #: Per-batch send time minus due time (seconds), send order.
    lateness: List[float]
    failed: int
    #: (due, answered) clock readings of every answered batch.
    intervals: List[tuple]


def closed_loop(submit: Callable, batches: List, depth: int,
                seconds: float, keep: int = 0,
                clock: Callable[[], float] = time.perf_counter
                ) -> ClosedLoop:
    """Keep ``depth`` batches in flight for ``seconds``, then drain.

    At least ``keep`` batches are sent however long they take, so the
    kept answers always cover the same batches.
    """
    in_flight = collections.deque()
    sent = done = queries = failed = 0
    answers: List[object] = []
    start = clock()
    deadline = start + seconds
    while True:
        while len(in_flight) < depth and (clock() < deadline
                                          or sent < keep):
            batch = batches[sent % len(batches)]
            in_flight.append((sent, len(batch), submit(batch)))
            sent += 1
        if not in_flight:
            break
        index, size, handle = in_flight.popleft()
        try:
            answer = handle.result()
        except Exception:  # a failed batch is counted, the run goes on
            answer = None
            failed += 1
        else:
            queries += size
        done += 1
        if index < keep:
            answers.append(answer)
    return ClosedLoop(batches=done, queries=queries, failed=failed,
                      seconds=clock() - start, answers=answers)


def open_loop(submit: Callable, batches: List, rate: float, count: int,
              clock: Callable[[], float] = time.perf_counter,
              sleep: Callable[[float], None] = time.sleep) -> OpenLoop:
    """Send ``count`` batches on a fixed schedule of ``rate`` per second.

    A collector thread waits for answers in send order while this thread
    keeps the schedule, so a slow answer never delays a send.
    """
    pending: "queue.Queue[Optional[tuple]]" = queue.Queue()
    done_at: List[Optional[float]] = [None] * count
    due_at = [0.0] * count
    lateness = [0.0] * count

    def collect() -> None:
        while True:
            item = pending.get()
            if item is None:
                return
            index, handle = item
            if handle is None:
                continue
            try:
                handle.result()
            except Exception:  # counted as missing below
                continue
            done_at[index] = clock()

    collector = threading.Thread(target=collect, daemon=True)
    collector.start()
    try:
        t0 = clock()
        for index in range(count):
            due = t0 + index / rate
            now = clock()
            if now < due:
                sleep(due - now)
            sent = clock()
            due_at[index] = due
            lateness[index] = sent - due
            try:
                handle = submit(batches[index % len(batches)])
            except Exception:  # counted as missing below
                handle = None
            pending.put((index, handle))
    finally:
        pending.put(None)
        collector.join()
    end = clock()
    latencies = []
    intervals = []
    failed = 0
    for due, answered in zip(due_at, done_at):
        if answered is None:
            failed += 1
            latencies.append(end - due)
        else:
            latencies.append(answered - due)
            intervals.append((due, answered))
    return OpenLoop(latencies=latencies, lateness=lateness, failed=failed,
                    intervals=intervals)
