"""Generated inputs are pure functions of the workload seed."""

import json
import os

import pytest

from benchpath import ROOT
from inputs import WORKLOADS, make_inputs, tiny


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_same_seed_same_inputs(name):
    workload = tiny(WORKLOADS[name])
    first = make_inputs(workload, 11)
    assert make_inputs(workload, 11).digest() == first.digest()
    assert make_inputs(workload, 12).digest() != first.digest()


def test_streams_chain_and_trace_covers_served_rows():
    workload = tiny(WORKLOADS["serve"])
    inputs = make_inputs(workload, 5)
    assert len(inputs.streams) == workload.update_steps
    assert all(len(stream) > 0 for stream in inputs.streams)
    assert inputs.catalogue.shape == (workload.catalogue_rows,
                                      workload.dim)
    top = max(int(batch.max()) for batch in inputs.batches)
    assert top < workload.catalogue_rows
    assert len(inputs.batches) == workload.trace_batches


def test_benchmark_json_names_these_workloads():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
