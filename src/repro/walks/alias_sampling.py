"""Precomputed alias-table walk sampling (the node2vec original scheme).

The original node2vec implementation precomputes one alias table per node
(first-order) and one per *directed edge* (second-order), so that every
walk step is a guaranteed O(1) draw with no rejection loop.  KnightKing
(paper §2.2) replaces the edge tables with rejection sampling precisely
because their memory is ``Σ_{(t,u)∈arcs} deg(u)`` entries -- quadratic in
degree for dense neighbourhoods -- and the setup cost is the same again in
time.  This module implements the table approach faithfully so the
trade-off is measurable: ``benchmarks/bench_ablation_alias_vs_rejection.py``
reports table memory/setup time against the rejection kernel's trial
counts, reproducing the motivation for KnightKing's design.

Both samplers are vectorised: the per-slice alias tables live in flat
arrays parallel to the CSR ``indices`` (first-order) or to the
arc-expanded table layout (second-order), so a *batch* of walkers can be
advanced with one fancy-indexing round-trip.
"""

from __future__ import annotations

import time
from typing import Optional, Tuple

import numpy as np

from repro.graph.csr import CSRGraph
from repro.utils.rng import SeedLike, default_rng
from repro.utils.validation import check_positive


def _build_alias_rows(
    prob: np.ndarray, starts: np.ndarray, ends: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Build alias tables for many contiguous slices of ``prob`` at once.

    ``prob[starts[i]:ends[i]]`` holds the unnormalised weights of slice
    ``i``.  Returns flat ``(accept, alias_local)`` arrays parallel to
    ``prob`` where ``alias_local`` is the within-slice alias index.  The
    two-stack construction runs per slice; everything else is vectorised.
    """
    accept = np.ones(prob.size, dtype=np.float64)
    alias_local = np.zeros(prob.size, dtype=np.int64)
    for start, end in zip(starts, ends):
        size = end - start
        if size <= 0:
            continue
        w = prob[start:end]
        total = float(w.sum())
        if total <= 0:
            # Degenerate slice: treat as uniform.
            scaled = np.ones(size, dtype=np.float64)
        else:
            scale = int(size) / total
            # Subnormal totals overflow ``size / total``; normalise first
            # instead (same guard as repro.utils.alias.AliasTable).
            scaled = w * scale if np.isfinite(scale) else (w / total) * size
        small = [i for i in range(size) if scaled[i] < 1.0]
        large = [i for i in range(size) if scaled[i] >= 1.0]
        acc = np.ones(size, dtype=np.float64)
        ali = np.arange(size, dtype=np.int64)
        while small and large:
            s = small.pop()
            l = large.pop()
            acc[s] = scaled[s]
            ali[s] = l
            scaled[l] -= 1.0 - scaled[s]
            if scaled[l] < 1.0:
                small.append(l)
            else:
                large.append(l)
        accept[start:end] = acc
        alias_local[start:end] = ali
    return accept, alias_local


class FirstOrderAliasSampler:
    """One alias table per node over its (weighted) neighbours.

    O(1) per draw after O(|E|) setup; this is what DeepWalk-style
    first-order walks use when edges are weighted.  For unweighted graphs
    the table degenerates to a plain uniform draw (accept ≡ 1), kept in the
    same layout so the batch sampling path is identical.
    """

    def __init__(self, graph: CSRGraph) -> None:
        self.graph = graph
        start = time.perf_counter()
        indptr = graph.indptr
        if graph.is_weighted:
            prob = graph.weights.astype(np.float64)
            self._accept, self._alias_local = _build_alias_rows(
                prob, indptr[:-1], indptr[1:]
            )
        else:
            self._accept = np.ones(graph.indices.size, dtype=np.float64)
            self._alias_local = np.zeros(graph.indices.size, dtype=np.int64)
            # alias-to-self within each slice keeps draws valid.
            for u in range(graph.num_nodes):
                s, e = indptr[u], indptr[u + 1]
                self._alias_local[s:e] = np.arange(e - s)
        self.build_seconds = time.perf_counter() - start

    @classmethod
    def from_tables(cls, graph: CSRGraph, accept: np.ndarray,
                    alias_local: np.ndarray) -> "FirstOrderAliasSampler":
        """Wrap prebuilt flat tables (e.g. shared-memory views) without
        paying the O(|E|) construction again."""
        sampler = cls.__new__(cls)
        sampler.graph = graph
        sampler._accept = accept
        sampler._alias_local = alias_local
        sampler.build_seconds = 0.0
        return sampler

    def sample(self, nodes: np.ndarray, rng: SeedLike = None) -> np.ndarray:
        """Draw one neighbour for every node in ``nodes`` (vectorised).

        Every node must have at least one neighbour; dead ends are the
        caller's responsibility (the batch walkers mask them out first).
        """
        gen = default_rng(rng)
        nodes = np.asarray(nodes, dtype=np.int64)
        starts = self.graph.indptr[nodes]
        degs = self.graph.degrees[nodes]
        if np.any(degs == 0):
            raise ValueError("cannot sample a neighbour of a degree-0 node")
        local = (gen.random(nodes.size) * degs).astype(np.int64)
        flat = starts + local
        use_alias = gen.random(nodes.size) >= self._accept[flat]
        local = np.where(use_alias, self._alias_local[flat], local)
        return self.graph.indices[starts + local]

    def sample_one(self, node: int, rng: SeedLike = None) -> int:
        return int(self.sample(np.array([node]), rng)[0])

    def sample_one_with_uniforms(self, node: int, u1: float, u2: float) -> int:
        """One draw from two walker-protocol uniforms (slot, alias flip).

        Mirrors :meth:`sample` exactly -- ``u1`` picks the slot, ``u2``
        takes the alias when ``u2 >= accept`` -- so the loop and batch
        backends reading the same tables produce the same neighbour.
        """
        deg = self.graph.degree(node)
        if deg == 0:
            raise ValueError("cannot sample a neighbour of a degree-0 node")
        start = int(self.graph.indptr[node])
        slot = min(int(u1 * deg), deg - 1)
        flat = start + slot
        if u2 >= self._accept[flat]:
            slot = int(self._alias_local[flat])
        return int(self.graph.indices[start + slot])

    def memory_bytes(self) -> int:
        """Bytes held by the flat alias arrays."""
        return int(self._accept.nbytes + self._alias_local.nbytes)


class SecondOrderAliasSampler:
    """node2vec's per-edge alias tables (the pre-KnightKing design).

    For every stored arc ``(t, u)`` a table over ``N(u)`` encodes the
    second-order transition ``π(v | t, u)`` with the node2vec weights
    ``1/p`` (v == t), ``1`` (v adjacent to t) or ``1/q`` (otherwise),
    scaled by the edge weight for weighted graphs.  Table entries total
    ``Σ_{(t,u)} deg(u)`` -- the memory blow-up that motivates rejection
    sampling (paper §2.2).
    """

    def __init__(self, graph: CSRGraph, p: float = 1.0, q: float = 1.0) -> None:
        check_positive("p", p)
        check_positive("q", q)
        self.graph = graph
        self.p = p
        self.q = q
        start = time.perf_counter()
        indptr = graph.indptr
        indices = graph.indices
        # Arc (t, u) at flat position a owns a table of size deg(u).
        table_sizes = graph.degrees[indices]
        self._table_offsets = np.zeros(indices.size + 1, dtype=np.int64)
        np.cumsum(table_sizes, out=self._table_offsets[1:])
        total = int(self._table_offsets[-1])
        prob = np.empty(total, dtype=np.float64)
        for t in range(graph.num_nodes):
            t_nbrs = indices[indptr[t]:indptr[t + 1]]
            for k, u in enumerate(t_nbrs):
                arc = indptr[t] + k
                u_nbrs = graph.neighbors(u)
                # v adjacent to t <=> v in N(t), via one searchsorted pass.
                pos = np.searchsorted(t_nbrs, u_nbrs)
                in_range = pos < t_nbrs.size
                adjacent = np.zeros(u_nbrs.size, dtype=bool)
                adjacent[in_range] = t_nbrs[pos[in_range]] == u_nbrs[in_range]
                pi = np.where(adjacent, 1.0, 1.0 / q)
                pi[u_nbrs == t] = 1.0 / p
                if graph.is_weighted:
                    pi = pi * graph.neighbor_weights(int(u))
                prob[self._table_offsets[arc]:self._table_offsets[arc + 1]] = pi
        self._accept, self._alias_local = _build_alias_rows(
            prob, self._table_offsets[:-1], self._table_offsets[1:]
        )
        self._first_order = FirstOrderAliasSampler(graph)
        self.build_seconds = time.perf_counter() - start

    # ------------------------------------------------------------------ #
    # Flat-table export (shared-memory reuse across walk workers)
    # ------------------------------------------------------------------ #

    #: Keys of :meth:`export_tables` / :meth:`from_tables`.
    TABLE_KEYS = ("so_offsets", "so_accept", "so_alias",
                  "fo_accept", "fo_alias")

    def export_tables(self) -> dict:
        """The sampler's five flat arrays, keyed for :meth:`from_tables`.

        Everything the sampler computes lives in these arrays (offsets
        plus second- and first-order accept/alias tables), so a process
        executor can copy them into shared memory once and hand every walk
        worker zero-copy views instead of re-running the
        ``Σ_{(t,u)} deg(u)`` table build per worker.
        """
        return {
            "so_offsets": self._table_offsets,
            "so_accept": self._accept,
            "so_alias": self._alias_local,
            "fo_accept": self._first_order._accept,
            "fo_alias": self._first_order._alias_local,
        }

    @classmethod
    def from_tables(cls, graph: CSRGraph, p: float, q: float,
                    tables: dict) -> "SecondOrderAliasSampler":
        """Rebuild a sampler over prebuilt flat tables (zero build cost).

        ``tables`` is an :meth:`export_tables` dict; the arrays are used
        as-is (typically shared-memory views), so draws match the
        exporting sampler bit for bit.
        """
        sampler = cls.__new__(cls)
        sampler.graph = graph
        sampler.p = p
        sampler.q = q
        sampler._table_offsets = tables["so_offsets"]
        sampler._accept = tables["so_accept"]
        sampler._alias_local = tables["so_alias"]
        sampler._first_order = FirstOrderAliasSampler.from_tables(
            graph, tables["fo_accept"], tables["fo_alias"])
        sampler.build_seconds = 0.0
        return sampler

    # ------------------------------------------------------------------ #

    def arc_index(self, t: int, u: int) -> int:
        """Flat index of stored arc ``(t, u)``; raises when absent."""
        nbrs = self.graph.neighbors(t)
        i = int(np.searchsorted(nbrs, u))
        if i >= nbrs.size or nbrs[i] != u:
            raise KeyError(f"arc ({t}, {u}) not in graph")
        return int(self.graph.indptr[t]) + i

    def sample_step(self, current: int, previous: int,
                    rng: SeedLike = None) -> int:
        """Draw the next node for a walker at ``current`` from ``previous``.

        ``previous < 0`` means the walk's first step, which is first-order.
        """
        gen = default_rng(rng)
        if previous < 0:
            return self._first_order.sample_one(current, gen)
        arc = self.arc_index(previous, current)
        start = self._table_offsets[arc]
        size = int(self._table_offsets[arc + 1] - start)
        if size == 0:
            raise ValueError(f"node {current} has no neighbours to walk to")
        local = int(gen.integers(0, size))
        if gen.random() >= self._accept[start + local]:
            local = int(self._alias_local[start + local])
        return int(self.graph.neighbors(current)[local])

    def sample_step_with_uniforms(self, current: int, previous: int,
                                  u1: float, u2: float) -> int:
        """Walker-protocol draw: ``u1`` picks the table slot, ``u2`` the
        alias flip; first steps (``previous < 0``) fall back to the
        first-order tables with the same two uniforms."""
        if previous < 0:
            return self._first_order.sample_one_with_uniforms(current, u1, u2)
        arc = self.arc_index(previous, current)
        start = int(self._table_offsets[arc])
        size = int(self._table_offsets[arc + 1] - start)
        if size == 0:
            raise ValueError(f"node {current} has no neighbours to walk to")
        local = min(int(u1 * size), size - 1)
        if u2 >= self._accept[start + local]:
            local = int(self._alias_local[start + local])
        return int(self.graph.neighbors(current)[local])

    # ------------------------------------------------------------------ #

    @property
    def num_table_entries(self) -> int:
        """``Σ_{(t,u)} deg(u)`` -- the quantity KnightKing avoids storing."""
        return int(self._table_offsets[-1])

    def memory_bytes(self) -> int:
        """Bytes held by the edge tables (plus offsets and the first-order
        fallback) -- compare against :meth:`CSRGraph.memory_bytes`."""
        return int(
            self._accept.nbytes
            + self._alias_local.nbytes
            + self._table_offsets.nbytes
            + self._first_order.memory_bytes()
        )


def second_order_table_entries(graph: CSRGraph) -> int:
    """Predicted alias-table entry count ``Σ_{(t,u)} deg(u)`` without
    building the tables (for memory planning / the ablation bench)."""
    return int(graph.degrees[graph.indices].sum())


class Node2VecAliasKernel:
    """Kernel-interface adapter over :class:`SecondOrderAliasSampler`.

    Drop-in alternative to the rejection-sampling
    :class:`repro.walks.kernels.Node2VecKernel`: same walk distribution,
    never rejects, but pays the table setup/memory documented above.
    Registered as ``"node2vec-alias"`` in :data:`repro.walks.KERNELS`.
    """

    name = "node2vec-alias"
    message_fields = 4  # [walk_id, steps, node_id, prev_node_id]

    def __init__(self, graph: CSRGraph, p: float = 1.0, q: float = 1.0) -> None:
        self.graph = graph
        self.p = p
        self.q = q
        self.sampler = SecondOrderAliasSampler(graph, p=p, q=q)

    @classmethod
    def from_tables(cls, graph: CSRGraph, p: float, q: float,
                    tables: dict) -> "Node2VecAliasKernel":
        """Kernel over prebuilt (shared) sampler tables -- how the process
        executor's walk workers skip the per-worker table rebuild."""
        kernel = cls.__new__(cls)
        kernel.graph = graph
        kernel.p = p
        kernel.q = q
        kernel.sampler = SecondOrderAliasSampler.from_tables(graph, p, q,
                                                             tables)
        return kernel

    def step_with_uniforms(self, current: int, previous: int,
                           u1: float, u2: float, forced: bool) -> Optional[int]:
        # Alias tables never reject, so ``forced`` can never arise.
        return self.sampler.sample_step_with_uniforms(current, previous, u1, u2)
