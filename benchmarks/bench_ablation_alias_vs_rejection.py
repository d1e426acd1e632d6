"""Ablation: node2vec alias tables vs KnightKing's rejection sampling.

Paper §2.2 motivates KnightKing's rejection sampling by the cost of the
original node2vec design: one alias table per directed edge, totalling
``Σ_{(t,u)} deg(u)`` entries of setup time and memory.  This bench builds
both samplers on the dataset stand-ins and reports

* table memory vs the CSR graph itself (the blow-up factor),
* setup time vs the rejection kernel's (zero-setup) construction,
* per-step sampling cost, where rejection pays an acceptance-rate penalty
  (more trials per accepted hop) while alias pays the setup upfront.

The expected shape: alias memory/setup grows superlinearly with density
while per-step costs stay comparable -- the trade KnightKing chose.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from common import bench_suite, print_table, run_once
from repro.walks import (
    Node2VecKernel,
    SecondOrderAliasSampler,
    second_order_table_entries,
)

P, Q = 0.5, 2.0
STEPS = 2_000
_rows = []


def _rejection_steps(graph, rng) -> int:
    """Run STEPS accepted hops with rejection sampling; count trials."""
    kernel = Node2VecKernel(graph, p=P, q=Q)
    current = int(np.flatnonzero(graph.degrees > 0)[0])
    previous = -1
    trials = 0
    accepted = 0
    while accepted < STEPS:
        nxt = kernel.step_with_uniforms(current, previous, rng.random(),
                                        rng.random(), False)
        trials += 1
        if nxt is not None:
            previous, current = current, int(nxt)
            accepted += 1
    return trials


def _alias_steps(sampler, graph, rng) -> None:
    current = int(np.flatnonzero(graph.degrees > 0)[0])
    previous = -1
    for _ in range(STEPS):
        nxt = sampler.sample_step(current, previous, rng)
        previous, current = current, nxt


@pytest.mark.parametrize("dataset", bench_suite(("FL", "YT", "LJ")),
                         ids=lambda d: d.name)
def test_alias_vs_rejection(benchmark, dataset):
    graph = dataset.graph
    rng = np.random.default_rng(7)

    def run():
        t0 = time.perf_counter()
        sampler = SecondOrderAliasSampler(graph, p=P, q=Q)
        setup = time.perf_counter() - t0

        t0 = time.perf_counter()
        _alias_steps(sampler, graph, rng)
        alias_step = time.perf_counter() - t0

        t0 = time.perf_counter()
        trials = _rejection_steps(graph, rng)
        rejection_step = time.perf_counter() - t0
        return sampler, setup, alias_step, rejection_step, trials

    sampler, setup, alias_step, rejection_step, trials = run_once(benchmark, run)
    graph_mb = graph.memory_bytes() / 1e6
    table_mb = sampler.memory_bytes() / 1e6
    _rows.append([
        dataset.name,
        graph.num_nodes,
        graph.num_edges,
        second_order_table_entries(graph),
        f"{table_mb / graph_mb:.1f}x",
        setup,
        alias_step / STEPS * 1e6,
        rejection_step / STEPS * 1e6,
        trials / STEPS,
    ])
    # The paper's motivation: edge tables dwarf the graph itself.
    assert sampler.memory_bytes() > graph.memory_bytes()
    # Rejection sampling needs no setup but >= 1 trial per accepted hop.
    assert trials >= STEPS


def test_alias_vs_rejection_report(benchmark):
    if not _rows:
        pytest.skip("run the parametrised benches first")
    run_once(benchmark, lambda: None)
    print_table(
        "Ablation: alias tables (original node2vec) vs rejection sampling "
        "(KnightKing)",
        ["graph", "|V|", "|E|", "table entries", "table/graph mem",
         "setup s", "alias us/step", "reject us/step", "trials/step"],
        _rows,
    )
