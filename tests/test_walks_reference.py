"""Oracle-vs-implementation tests: samplers must match the exact
distributions computed by repro.walks.reference."""

from __future__ import annotations

import numpy as np
import pytest

from repro.graph import CSRGraph, ring_of_cliques, star
from repro.walks import Node2VecKernel, SecondOrderAliasSampler
from repro.walks.reference import (
    expected_walk_entropy,
    first_order_stationary_distribution,
    huge_acceptance_matrix,
    huge_effective_transition_matrix,
    node2vec_transition_distribution,
    stationary_distribution_power_iteration,
)


class TestNode2VecOracle:
    def test_sums_to_one(self, medium_graph):
        current = 0
        previous = int(medium_graph.neighbors(0)[0])
        dist = node2vec_transition_distribution(medium_graph, previous,
                                                current, p=0.5, q=2.0)
        assert sum(dist.values()) == pytest.approx(1.0)

    def test_first_step_is_uniform(self, triangle):
        dist = node2vec_transition_distribution(triangle, -1, 0)
        assert dist == {1: pytest.approx(0.5), 2: pytest.approx(0.5)}

    def test_p_controls_return_mass(self):
        g = ring_of_cliques(2, 5)
        low_p = node2vec_transition_distribution(g, 0, 1, p=0.1, q=1.0)
        high_p = node2vec_transition_distribution(g, 0, 1, p=10.0, q=1.0)
        assert low_p[0] > high_p[0]

    def test_dead_end_raises(self):
        g = CSRGraph.from_edges([(0, 1)], num_nodes=3)
        with pytest.raises(ValueError, match="walkable"):
            node2vec_transition_distribution(g, 0, 2)

    def test_rejection_kernel_matches_oracle(self, rng):
        g = ring_of_cliques(3, 4)
        p, q = 0.5, 2.0
        kernel = Node2VecKernel(g, p=p, q=q)
        previous, current = 0, 1
        oracle = node2vec_transition_distribution(g, previous, current,
                                                  p=p, q=q)
        draws = []
        while len(draws) < 4000:
            out = kernel.step_with_uniforms(current, previous, rng.random(),
                                            rng.random(), False)
            if out is not None:
                draws.append(int(out))
        draws = np.array(draws)
        for v, prob in oracle.items():
            assert np.mean(draws == v) == pytest.approx(prob, abs=0.04)

    def test_alias_sampler_matches_oracle(self, rng):
        g = ring_of_cliques(3, 4)
        p, q = 4.0, 0.25
        sampler = SecondOrderAliasSampler(g, p=p, q=q)
        previous, current = 0, 1
        oracle = node2vec_transition_distribution(g, previous, current,
                                                  p=p, q=q)
        draws = np.array([sampler.sample_step(current, previous, rng)
                          for _ in range(4000)])
        for v, prob in oracle.items():
            assert np.mean(draws == v) == pytest.approx(prob, abs=0.04)


class TestHuGEOracles:
    def test_acceptance_matrix_bounds(self, medium_graph):
        accept = huge_acceptance_matrix(medium_graph)
        assert accept.min() >= 0.0
        assert accept.max() <= 1.0
        # Non-zero exactly on arcs.
        arcs = medium_graph.edge_array()
        assert np.all(accept[arcs[:, 0], arcs[:, 1]] > 0)

    def test_effective_transition_rows_stochastic(self, medium_graph):
        t = huge_effective_transition_matrix(medium_graph)
        sums = t.sum(axis=1)
        walkable = medium_graph.degrees > 0
        assert np.allclose(sums[walkable], 1.0)
        assert np.allclose(sums[~walkable], 0.0)

    def test_huge_kernel_matches_effective_matrix(self, rng):
        g = ring_of_cliques(2, 6)
        from repro.walks import HuGEKernel

        kernel = HuGEKernel(g)
        t = huge_effective_transition_matrix(g)
        u = 0
        draws = []
        while len(draws) < 4000:
            out = kernel.step_with_uniforms(u, -1, rng.random(),
                                            rng.random(), False)
            if out is not None:
                draws.append(int(out))
        draws = np.array(draws)
        for v in np.unique(draws):
            assert np.mean(draws == v) == pytest.approx(t[u, v], abs=0.04)


class TestStationaryDistributions:
    def test_closed_form_degree_proportional(self, medium_graph):
        pi = first_order_stationary_distribution(medium_graph)
        assert pi.sum() == pytest.approx(1.0)
        deg = medium_graph.degrees
        assert pi[np.argmax(deg)] == pytest.approx(deg.max() / deg.sum())

    def test_directed_rejected(self):
        g = CSRGraph.from_edges([(0, 1)], directed=True)
        with pytest.raises(ValueError, match="undirected"):
            first_order_stationary_distribution(g)

    def test_power_iteration_agrees_with_closed_form(self, small_graph):
        from repro.walks import empirical_transition_matrix

        # Build the exact uniform-walk transition matrix.
        n = small_graph.num_nodes
        t = np.zeros((n, n))
        for u in range(n):
            nbrs = small_graph.neighbors(u)
            if nbrs.size:
                t[u, nbrs] = 1.0 / nbrs.size
        pi = stationary_distribution_power_iteration(t)
        closed = first_order_stationary_distribution(small_graph)
        assert np.allclose(pi, closed, atol=1e-8)

    def test_power_iteration_handles_dead_ends(self):
        t = np.array([[0.0, 1.0], [0.0, 0.0]])  # 1 is absorbing
        pi = stationary_distribution_power_iteration(t)
        assert pi[1] == pytest.approx(1.0)

    def test_power_iteration_rejects_non_square(self):
        with pytest.raises(ValueError, match="square"):
            stationary_distribution_power_iteration(np.zeros((2, 3)))

    def test_corpus_occupancy_converges_to_stationary(self, medium_graph):
        """Long uniform walks visit nodes ∝ degree (Eq. 6's premise)."""
        from repro.walks import vectorized_routine_corpus

        corpus = vectorized_routine_corpus(medium_graph, walk_length=80,
                                           walks_per_node=10, seed=0)
        occupancy = corpus.occurrences / corpus.total_tokens
        pi = first_order_stationary_distribution(medium_graph)
        # L1 distance small; start-node bias keeps it from vanishing.
        assert np.abs(occupancy - pi).sum() < 0.15


class TestExpectedWalkEntropy:
    def test_uniform_occupancy(self):
        assert expected_walk_entropy(np.ones(8)) == pytest.approx(3.0)

    def test_point_mass(self):
        assert expected_walk_entropy(np.array([0, 5, 0])) == pytest.approx(0.0)

    def test_zero_mass_rejected(self):
        with pytest.raises(ValueError, match="positive mass"):
            expected_walk_entropy(np.zeros(3))

    def test_star_walk_entropy_below_uniform(self, star_graph):
        """Walks on a star revisit the hub: entropy far below log2(n)."""
        from repro.walks import vectorized_routine_corpus

        corpus = vectorized_routine_corpus(star_graph, walk_length=40,
                                           walks_per_node=3, seed=0)
        h = expected_walk_entropy(corpus.occurrences)
        assert h < np.log2(star_graph.num_nodes) - 0.5
