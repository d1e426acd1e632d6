"""Span nesting and self-time arithmetic."""

import benchpath  # noqa: F401  (sets sys.path first)

import pytest

from spans import Span, Tracer, self_times


def test_self_time_subtracts_children_once():
    spans = [
        Span(1, "embed", 1, None, 0.0, 10.0),
        Span(2, "partition", 1, 1, 1.0, 2.0),
        Span(3, "walks", 1, 1, 2.0, 5.0),
        # Overlaps "walks": the covered union is [2, 6], counted once.
        Span(4, "embedding", 1, 1, 4.0, 6.0),
        # Sticks out of its parent: only [9, 10] is subtracted.
        Span(5, "tail", 1, 1, 9.0, 12.0),
    ]
    own = self_times(spans)
    assert own["embed"] == pytest.approx(10.0 - 1.0 - 4.0 - 1.0)
    assert own["partition"] == pytest.approx(1.0)
    assert own["walks"] == pytest.approx(3.0)
    assert own["tail"] == pytest.approx(3.0)


def test_self_times_sum_over_operations():
    spans = [
        Span(1, "update", 1, None, 0.0, 4.0),
        Span(2, "dynamic.apply", 1, 1, 1.0, 3.0),
        Span(3, "update", 2, None, 10.0, 13.0),
        Span(4, "dynamic.apply", 2, 3, 10.0, 13.0),
    ]
    own = self_times(spans)
    assert own["update"] == pytest.approx(2.0)
    assert own["dynamic.apply"] == pytest.approx(5.0)


def test_tracer_records_parents_and_operations():
    ticks = iter(range(100))
    tracer = Tracer(clock=lambda: float(next(ticks)))
    op = tracer.new_op()
    with tracer.span("embed", op):
        with tracer.span("partition", op):
            pass
        with tracer.span("walks", op):
            pass
    tracer.add("serve.batch", 50.0, 52.5)
    by_name = {span.name: span for span in tracer.spans}
    root = by_name["embed"]
    assert root.parent is None
    assert by_name["partition"].parent == root.id
    assert by_name["walks"].parent == root.id
    assert {by_name[n].op for n in ("embed", "partition", "walks")} == {op}
    batch = by_name["serve.batch"]
    assert batch.op != op and batch.parent is None
    assert batch.seconds == 2.5
    assert self_times(tracer.spans)["embed"] == pytest.approx(
        root.seconds - 2.0)
