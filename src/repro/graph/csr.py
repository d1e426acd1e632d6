"""Compressed Sparse Row graph storage (paper §2, Table 1).

DistGER stores graphs in CSR [41]: per-node adjacency offsets (``indptr``)
plus a flat destination array (``indices``), with a parallel weight array for
weighted graphs.  Undirected edges are stored twice (once per direction),
exactly as the paper describes, so ``degree`` and neighbour iteration are
uniform for both directed and undirected graphs.

Adjacency lists are kept **sorted by destination id**; this is what makes
galloping set intersection (:mod:`repro.partition.galloping`) and O(log n)
edge lookups possible, both of which MPGP and the HuGE transition kernel
rely on.
"""

from __future__ import annotations

from typing import Iterable, Optional, Sequence, Tuple

import numpy as np


class CSRGraph:
    """An immutable graph in CSR form.

    Parameters
    ----------
    indptr:
        ``int64[num_nodes + 1]`` adjacency offsets.
    indices:
        ``int64[num_edges_stored]`` destination node ids, sorted within each
        node's slice.
    weights:
        Optional ``float64`` array parallel to ``indices``.  ``None`` means
        the graph is unweighted (all weights treated as 1.0).
    directed:
        Whether the stored arcs are one-directional.  Undirected graphs
        store each edge in both directions.

    Notes
    -----
    Use :meth:`from_edges` rather than the raw constructor in application
    code; it validates, deduplicates, sorts and (for undirected graphs)
    symmetrises the input.
    """

    def __init__(
        self,
        indptr: np.ndarray,
        indices: np.ndarray,
        weights: Optional[np.ndarray] = None,
        directed: bool = False,
    ) -> None:
        self.indptr = np.asarray(indptr, dtype=np.int64)
        self.indices = np.asarray(indices, dtype=np.int64)
        self.weights = None if weights is None else np.asarray(weights, dtype=np.float64)
        self.directed = bool(directed)
        self._validate()
        self._degrees = np.diff(self.indptr)

    # ------------------------------------------------------------------ #
    # Construction
    # ------------------------------------------------------------------ #

    @classmethod
    def from_edges(
        cls,
        edges: Sequence[Tuple[int, int]] | np.ndarray,
        num_nodes: Optional[int] = None,
        weights: Optional[Sequence[float]] = None,
        directed: bool = False,
    ) -> "CSRGraph":
        """Build a graph from an edge list.

        Self-loops are dropped and duplicate edges are merged (weights of
        duplicates are summed).  For undirected graphs every edge is stored
        in both directions, as in the paper's CSR description.  Weights
        must be finite and non-negative.
        """
        arr = np.asarray(edges, dtype=np.int64)
        if arr.size == 0:
            arr = arr.reshape(0, 2)
        if arr.ndim != 2 or arr.shape[1] != 2:
            raise ValueError(f"edges must have shape (m, 2), got {arr.shape}")
        if arr.size and arr.min() < 0:
            raise ValueError("node ids must be non-negative")

        w = (
            np.ones(len(arr), dtype=np.float64)
            if weights is None
            else np.asarray(weights, dtype=np.float64)
        )
        if w.shape[0] != arr.shape[0]:
            raise ValueError(
                f"weights length {w.shape[0]} does not match edge count {arr.shape[0]}"
            )
        bad = np.flatnonzero(~(np.isfinite(w) & (w >= 0)))
        if bad.size:
            i = int(bad[0])
            raise ValueError(
                f"edge {i} has weight {float(w[i])!r}; weights must be finite "
                "and non-negative"
            )

        # A node mentioned only by dropped self-loops still exists, so the
        # node-count inference and validation use the pre-drop ids.
        max_id = int(arr.max()) if len(arr) else -1

        # Drop self loops.
        keep = arr[:, 0] != arr[:, 1]
        arr, w = arr[keep], w[keep]

        n = int(num_nodes) if num_nodes is not None else max_id + 1
        if max_id >= n:
            raise ValueError(
                f"num_nodes={n} too small for max node id {max_id}"
            )

        if len(arr) == 0:
            return cls(np.zeros(n + 1, dtype=np.int64), np.empty(0, dtype=np.int64),
                       None if weights is None else np.empty(0, dtype=np.float64),
                       directed=directed)

        # Merge duplicates on canonical pairs *before* mirroring: both
        # stored arcs of a duplicated undirected edge must receive a
        # byte-identical weight sum, so the summation order cannot depend
        # on the direction each duplicate was listed in.
        if not directed:
            arr = np.sort(arr, axis=1)
        order = np.lexsort((arr[:, 1], arr[:, 0]))
        arr, w = arr[order], w[order]
        dup = np.concatenate([[False], np.all(arr[1:] == arr[:-1], axis=1)])
        if dup.any():
            group = np.cumsum(~dup) - 1
            merged_w = np.zeros(group[-1] + 1, dtype=np.float64)
            np.add.at(merged_w, group, w)
            arr, w = arr[~dup], merged_w

        if not directed:
            arr = np.concatenate([arr, arr[:, ::-1]])
            w = np.concatenate([w, w])
            order = np.lexsort((arr[:, 1], arr[:, 0]))
            arr, w = arr[order], w[order]

        indptr = np.zeros(n + 1, dtype=np.int64)
        counts = np.bincount(arr[:, 0], minlength=n)
        indptr[1:] = np.cumsum(counts)
        return cls(indptr, arr[:, 1].copy(), w if weights is not None else None,
                   directed=directed)

    def _validate(self) -> None:
        if self.indptr.ndim != 1 or self.indptr.size < 1:
            raise ValueError("indptr must be 1-D with at least one entry")
        if self.indptr[0] != 0 or self.indptr[-1] != self.indices.size:
            raise ValueError("indptr must start at 0 and end at len(indices)")
        if np.any(np.diff(self.indptr) < 0):
            raise ValueError("indptr must be non-decreasing")
        if self.weights is not None and self.weights.shape != self.indices.shape:
            raise ValueError("weights must parallel indices")
        if self.indices.size and (self.indices.min() < 0 or self.indices.max() >= self.num_nodes):
            raise ValueError("indices contain out-of-range node ids")

    # ------------------------------------------------------------------ #
    # Basic accessors
    # ------------------------------------------------------------------ #

    @property
    def num_nodes(self) -> int:
        return self.indptr.size - 1

    @property
    def num_stored_edges(self) -> int:
        """Number of stored arcs (undirected edges count twice)."""
        return self.indices.size

    @property
    def num_edges(self) -> int:
        """Logical edge count (undirected edges counted once)."""
        return self.indices.size if self.directed else self.indices.size // 2

    @property
    def is_weighted(self) -> bool:
        return self.weights is not None

    @property
    def degrees(self) -> np.ndarray:
        """Out-degree of every node (``int64[num_nodes]``)."""
        return self._degrees

    def degree(self, node: int) -> int:
        return int(self._degrees[node])

    def neighbors(self, node: int) -> np.ndarray:
        """Sorted destination ids adjacent to ``node`` (zero-copy view)."""
        return self.indices[self.indptr[node]:self.indptr[node + 1]]

    def neighbor_weights(self, node: int) -> np.ndarray:
        """Weights parallel to :meth:`neighbors` (ones when unweighted)."""
        if self.weights is None:
            return np.ones(self.degree(node), dtype=np.float64)
        return self.weights[self.indptr[node]:self.indptr[node + 1]]

    def has_edge(self, u: int, v: int) -> bool:
        """O(log deg(u)) membership test using the sorted adjacency."""
        nbrs = self.neighbors(u)
        i = np.searchsorted(nbrs, v)
        return bool(i < nbrs.size and nbrs[i] == v)

    def edge_weight(self, u: int, v: int) -> float:
        """Weight of arc (u, v); raises ``KeyError`` when absent."""
        nbrs = self.neighbors(u)
        i = int(np.searchsorted(nbrs, v))
        if i >= nbrs.size or nbrs[i] != v:
            raise KeyError(f"edge ({u}, {v}) not in graph")
        if self.weights is None:
            return 1.0
        return float(self.weights[self.indptr[u] + i])

    def common_neighbor_count(self, u: int, v: int) -> int:
        """``|N(u) ∩ N(v)|`` via sorted-array intersection."""
        return int(np.intersect1d(self.neighbors(u), self.neighbors(v),
                                  assume_unique=True).size)

    # ------------------------------------------------------------------ #
    # Transformations
    # ------------------------------------------------------------------ #

    def edge_array(self) -> np.ndarray:
        """Return stored arcs as an ``(m, 2)`` array (src, dst)."""
        src = np.repeat(np.arange(self.num_nodes, dtype=np.int64), self._degrees)
        return np.stack([src, self.indices], axis=1)

    def unique_edges(self) -> np.ndarray:
        """Logical edges: all arcs if directed, else the ``u < v`` half."""
        arcs = self.edge_array()
        if self.directed:
            return arcs
        return arcs[arcs[:, 0] < arcs[:, 1]]

    def with_weights(self, weights: np.ndarray) -> "CSRGraph":
        """Return a weighted copy sharing the topology arrays."""
        return CSRGraph(self.indptr, self.indices, weights, directed=self.directed)

    def with_random_weights(
        self, rng: np.random.Generator, low: float = 1.0, high: float = 5.0
    ) -> "CSRGraph":
        """Weighted version with symmetric U[low, high) weights (paper §8.1)."""
        if self.directed:
            w = rng.uniform(low, high, size=self.num_stored_edges)
            return self.with_weights(w)
        # Draw one weight per logical edge and mirror it on both arcs.
        edges = self.unique_edges()
        w_edge = rng.uniform(low, high, size=len(edges))
        both = np.concatenate([edges, edges[:, ::-1]])
        w_both = np.concatenate([w_edge, w_edge])
        order = np.lexsort((both[:, 1], both[:, 0]))
        return CSRGraph(self.indptr, self.indices, w_both[order], directed=False)

    def as_directed(self) -> "CSRGraph":
        """Reinterpret stored arcs as a directed graph (paper §8.1)."""
        return CSRGraph(self.indptr, self.indices, self.weights, directed=True)

    def as_undirected(self) -> "CSRGraph":
        """Symmetrise a directed graph into its undirected version."""
        if not self.directed:
            return self
        arcs = self.edge_array()
        return CSRGraph.from_edges(arcs, num_nodes=self.num_nodes, directed=False)

    def subgraph_without_edges(self, removed: Iterable[Tuple[int, int]]) -> "CSRGraph":
        """Copy of the graph with the given logical edges removed.

        Used by link-prediction splits; for undirected graphs both arcs of
        each removed edge are dropped.
        """
        removed_set = set()
        for u, v in removed:
            removed_set.add((int(u), int(v)))
            if not self.directed:
                removed_set.add((int(v), int(u)))
        arcs = self.edge_array()
        keep = np.fromiter(
            ((int(s), int(d)) not in removed_set for s, d in arcs),
            dtype=bool,
            count=len(arcs),
        )
        kept = arcs[keep]
        kept_w = None if self.weights is None else self.weights[keep]
        # Arcs are already both-direction for undirected graphs, so build
        # directly without re-symmetrising.
        n = self.num_nodes
        indptr = np.zeros(n + 1, dtype=np.int64)
        indptr[1:] = np.cumsum(np.bincount(kept[:, 0], minlength=n))
        return CSRGraph(indptr, kept[:, 1].copy(), kept_w, directed=self.directed)

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #

    def memory_bytes(self) -> int:
        """Bytes held by the CSR arrays (used by the memory benchmarks)."""
        total = self.indptr.nbytes + self.indices.nbytes
        if self.weights is not None:
            total += self.weights.nbytes
        return int(total)

    def storage_bytes(self) -> dict:
        """CSR bytes split into resident heap vs file-backed mappings.

        A graph attached from a ``backing="mmap"`` handle holds
        ``np.memmap`` arrays whose pages live in the page cache, not the
        process heap; the out-of-core memory gates
        (``bench_ooc_memory_ceiling.py``) need the two pools reported
        separately.  ``resident + mapped == memory_bytes()``.
        """
        resident = 0
        mapped = 0
        arrays = [self.indptr, self.indices]
        if self.weights is not None:
            arrays.append(self.weights)
        for arr in arrays:
            if isinstance(arr, np.memmap):
                mapped += int(arr.nbytes)
            else:
                resident += int(arr.nbytes)
        return {"resident": resident, "mapped": mapped}

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        kind = "directed" if self.directed else "undirected"
        w = "weighted" if self.is_weighted else "unweighted"
        return (
            f"CSRGraph(|V|={self.num_nodes}, |E|={self.num_edges}, {kind}, {w})"
        )
