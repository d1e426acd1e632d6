"""The three workloads and their seeded inputs.

Every workload runs the same user journey -- embed a graph, keep the
embedding fresh under edge churn, serve top-k queries -- so that every run
reports every end-to-end metric.  The workloads differ in which part of
that journey carries the load:

* ``embed-update`` -- DistGER, serial, on R-MAT 2^12, then four 1%-churn
  update steps; the live embedding is what gets served.  The trainer is
  80-88% of the embed and ~65% of an update step.
* ``embed-process`` -- the same graph and configuration on
  ``execution="process", workers=2``: the only workload through the
  runtime fan-out (shared CSR, slice descriptors, worker pools).
* ``serve`` -- a seeded 20,000 x 64 Gaussian catalogue served through a
  2-worker query engine; its graph is R-MAT 2^11, so training is a small
  share of the run and the per-row top-k select dominates.

All inputs are pure functions of the workload seed; the program only ever
sees the generated graph, split, edge streams, catalogue and query trace.
"""

from __future__ import annotations

import dataclasses
import hashlib
from dataclasses import dataclass
from typing import Dict, List, Optional

import numpy as np

from repro.dynamic import DeltaCSR, EdgeStream, random_churn
from repro.graph.generators import rmat
from repro.serving.trace import zipf_query_trace
from repro.tasks.split import LinkPredictionSplit, split_edges

#: A seed not used while the benchmark or a change was written; later
#: claims are re-checked on it.
HOLDOUT_SEED = 7919


@dataclass(frozen=True)
class Workload:
    """Sizes and knobs of one workload (one traffic mix)."""

    name: str
    #: R-MAT scale of the embedded graph (2**scale nodes, 10 edges/node
    #: sampled with the Graph500 probabilities).
    scale: int
    #: ``embed_graph`` executor and its worker count.
    execution: str = "serial"
    workers: int = 0
    #: Rows of the Gaussian serving catalogue; 0 serves the live embedding.
    catalogue_rows: int = 0
    update_steps: int = 4
    churn: float = 0.01
    holdout: float = 0.1
    machines: int = 4
    dim: int = 64
    epochs: int = 1
    #: Embeds per untraced pass; ``embed_s`` is their median.
    embed_repeats: int = 2
    #: Walk rounds, pinned: the KL walk-count rule stops R-MAT 2^12 at 4
    #: or 5 rounds depending on the seed, a 28% jump in corpus tokens
    #: that would swamp every timing spread across seeds.
    walk_rounds: int = 4
    #: Query batches: size, k, Zipf exponent, trace length in batches.
    batch: int = 16
    k: int = 10
    zipf: float = 1.1
    trace_batches: int = 4096
    serve_workers: int = 2
    #: Closed-loop batches in flight; open-loop batches per second.  At
    #: 50 batches/s the workers are ~25% busy: at 100/s (~half of the
    #: closed-loop capacity) host contention on a 2-core VM queued batches
    #: behind each other and the p50 spread across runs reached 34%.
    depth: int = 4
    rate: float = 50.0
    #: Leading closed-loop batches whose pool answers are checked
    #: byte-for-byte, and how many of those get the brute-force check.
    check_batches: int = 32
    brute_batches: int = 4


#: The embed workloads serve their 4,096-row embedding in batches of 64,
#: which cost about what a batch of 16 costs on the 20,000-row catalogue
#: (~8 ms): their latency is then service time, not scheduler jitter.
#: With batches of 16 (~2.4 ms) the open-loop p99 swung 2x between runs.
WORKLOADS: Dict[str, Workload] = {
    "embed-update": Workload("embed-update", scale=12, batch=64),
    "embed-process": Workload("embed-process", scale=12, batch=64,
                              execution="process", workers=2),
    "serve": Workload("serve", scale=11, catalogue_rows=20_000,
                      embed_repeats=3),
}


def tiny(workload: Workload) -> Workload:
    """A seconds-long version of ``workload`` for the self-tests."""
    return dataclasses.replace(
        workload, scale=7, churn=0.05, update_steps=2, dim=16,
        embed_repeats=2,
        catalogue_rows=min(workload.catalogue_rows, 2_000),
        trace_batches=256, rate=200.0, check_batches=8, brute_batches=2)


@dataclass
class Inputs:
    """Everything a run feeds the program, generated from one seed."""

    split: LinkPredictionSplit
    #: Chained churn steps: ``streams[i]`` applies to the graph left by
    #: ``streams[:i]``.
    streams: List[EdgeStream]
    catalogue: Optional[np.ndarray]
    batches: List[np.ndarray]
    embed_seed: int

    @property
    def graph(self):
        """The residual training graph that gets embedded."""
        return self.split.train_graph

    def digest(self) -> str:
        """SHA-256 over every generated array (determinism probe)."""
        h = hashlib.sha256()
        graph = self.graph
        for array in (graph.indptr, graph.indices, self.split.test_positive,
                      self.split.test_negative):
            h.update(np.ascontiguousarray(array).tobytes())
        for stream in self.streams:
            h.update(stream.to_text().encode())
        if self.catalogue is not None:
            h.update(self.catalogue.tobytes())
        for batch in self.batches:
            h.update(batch.tobytes())
        h.update(str(self.embed_seed).encode())
        return h.hexdigest()


def make_inputs(workload: Workload, seed: int) -> Inputs:
    """Generate ``workload``'s inputs; a pure function of ``seed``."""
    (graph_seed, split_seed, churn_seed, catalogue_seed, trace_seed,
     embed_seed) = (int(s) for s in np.random.SeedSequence(
         [seed, workload.scale]).generate_state(6))
    split = split_edges(rmat(workload.scale, seed=graph_seed),
                        test_fraction=workload.holdout, seed=split_seed)
    streams = []
    graph = split.train_graph
    for step in range(workload.update_steps):
        stream = random_churn(graph, workload.churn, seed=churn_seed + step)
        streams.append(stream)
        graph = DeltaCSR(graph).apply(stream).compact()
    catalogue = None
    served_rows = split.train_graph.num_nodes
    if workload.catalogue_rows:
        catalogue = np.random.default_rng(catalogue_seed).standard_normal(
            (workload.catalogue_rows, workload.dim)).astype(np.float32)
        served_rows = workload.catalogue_rows
    batches = zipf_query_trace(
        workload.trace_batches * workload.batch, served_rows,
        batch_size=workload.batch, exponent=workload.zipf, seed=trace_seed)
    return Inputs(split=split, streams=streams, catalogue=catalogue,
                  batches=batches, embed_seed=embed_seed % (2 ** 31))
