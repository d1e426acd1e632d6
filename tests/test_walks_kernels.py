"""Tests for the transition kernels (DeepWalk, node2vec, HuGE, HuGE+)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.graph import CSRGraph, ring_of_cliques, star
from repro.walks import (
    DeepWalkKernel,
    HuGEKernel,
    HuGEPlusKernel,
    Node2VecKernel,
    make_kernel,
)


class TestDeepWalk:
    def test_uniform_choice(self, small_graph, rng):
        k = DeepWalkKernel(small_graph)
        nbrs = set(int(x) for x in small_graph.neighbors(0))
        for _ in range(50):
            nxt = k.step_with_uniforms(0, -1, rng.random(),
                                       rng.random(), False)
            assert nxt in nbrs

    def test_weighted_choice_respects_weights(self, rng):
        g = CSRGraph.from_edges([(0, 1), (0, 2)], weights=[100.0, 1.0])
        k = DeepWalkKernel(g)
        picks = [k.step_with_uniforms(0, -1, rng.random(), rng.random(), False)
                 for _ in range(300)]
        assert picks.count(1) > picks.count(2) * 5

    def test_isolated_node_raises(self):
        g = CSRGraph.from_edges([(0, 1)], num_nodes=3)
        with pytest.raises(ValueError, match="no neighbours"):
            DeepWalkKernel(g).step_with_uniforms(2, -1, 0.5, 0.5, False)


class TestNode2Vec:
    def test_accepts_valid_params(self, small_graph):
        k = Node2VecKernel(small_graph, p=0.5, q=2.0)
        assert k._envelope == pytest.approx(2.0)

    def test_rejects_bad_params(self, small_graph):
        with pytest.raises(ValueError):
            Node2VecKernel(small_graph, p=0.0)

    def test_pi_classification(self, triangle):
        k = Node2VecKernel(triangle, p=4.0, q=0.25)
        # Return to previous node: 1/p.
        assert k._pi(1, 1) == pytest.approx(0.25)
        # Distance-1 (candidate adjacent to previous): 1.
        assert k._pi(1, 2) == pytest.approx(1.0)
        # First step (no previous): first-order.
        assert k._pi(-1, 2) == pytest.approx(1.0)

    def test_pi_distance_two(self):
        g = CSRGraph.from_edges([(0, 1), (1, 2)])  # path: 0-1-2
        k = Node2VecKernel(g, p=1.0, q=0.5)
        # Walker at 1 came from 0; candidate 2 is not adjacent to 0: 1/q.
        assert k._pi(0, 2) == pytest.approx(2.0)

    def test_p1_q1_never_rejects(self, small_graph, rng):
        k = Node2VecKernel(small_graph, p=1.0, q=1.0)
        for _ in range(50):
            assert k.step_with_uniforms(0, 1, rng.random(),
                                        rng.random(), False) is not None

    def test_small_q_prefers_outward(self, rng):
        # Star-of-paths: from center, q << 1 favours DFS-like moves.
        k_dfs = Node2VecKernel(ring_of_cliques(4, 6), p=1.0, q=0.25)
        accepted = sum(
            k_dfs.step_with_uniforms(0, 1, rng.random(), rng.random(), False)
            is not None for _ in range(200))
        assert 0 < accepted <= 200


class TestHuGE:
    def test_acceptance_probability_bounds(self, medium_graph):
        k = HuGEKernel(medium_graph)
        for u in range(0, medium_graph.num_nodes, 29):
            for v in medium_graph.neighbors(u)[:3]:
                p = k.acceptance_probability(u, int(v))
                assert 0.0 <= p <= 1.0

    def test_eq3_manual_example(self):
        # Path 0-1-2 plus edge 0-2 makes a triangle: deg all 2, Cm(0,1)=1
        # (node 2).  alpha = max(1,1)/(2-1) = 1; P = tanh(1).
        g = CSRGraph.from_edges([(0, 1), (1, 2), (0, 2)])
        k = HuGEKernel(g)
        assert k.acceptance_probability(0, 1) == pytest.approx(np.tanh(1.0))

    def test_full_overlap_accepts(self):
        # Star: hub 0 adjacent to all leaves; leaf-leaf edges absent.
        # For (leaf u, hub v): deg u =1, Cm=0, ratio=deg v -> alpha=deg v.
        g = star(5)
        k = HuGEKernel(g)
        p = k.acceptance_probability(1, 0)
        assert p == pytest.approx(np.tanh(5.0))

    def test_denominator_zero_guard(self):
        # K4: deg 3 each, Cm(u,v)=2: denominator 1; now a clique where
        # deg(u) == Cm would need overlap == degree -- build explicitly:
        # nodes 0,1 adjacent; both also adjacent to 2,3; 0 additionally
        # has no other edges: deg(0)=3, Cm(0,1)=2 -> fine.  Use the
        # analytic guard directly instead:
        g = CSRGraph.from_edges([(0, 1), (0, 2), (1, 2), (0, 3), (1, 3)])
        k = HuGEKernel(g)
        # deg(0)=3, N(0)={1,2,3}; N(1)={0,2,3}; Cm=2 -> denom 1.
        assert k.acceptance_probability(0, 1) <= 1.0

    def test_weighted_graph_scales_alpha(self):
        g_unw = CSRGraph.from_edges([(0, 1), (1, 2), (0, 2)])
        g_w = CSRGraph.from_edges([(0, 1), (1, 2), (0, 2)],
                                  weights=[3.0, 1.0, 1.0])
        p_unw = HuGEKernel(g_unw).acceptance_probability(0, 1)
        p_w = HuGEKernel(g_w).acceptance_probability(0, 1)
        assert p_w > p_unw

    def test_step_returns_neighbor_or_none(self, medium_graph, rng):
        k = HuGEKernel(medium_graph)
        nbrs = set(int(x) for x in medium_graph.neighbors(5))
        outcomes = {k.step_with_uniforms(5, -1, rng.random(), rng.random(),
                                         False) for _ in range(100)}
        outcomes.discard(None)
        assert outcomes <= nbrs


class TestHuGEPlus:
    def test_boosts_high_degree_candidates(self, medium_graph):
        base = HuGEKernel(medium_graph)
        plus = HuGEPlusKernel(medium_graph)
        hub = int(np.argmax(medium_graph.degrees))
        for u in medium_graph.neighbors(hub)[:5]:
            assert plus.acceptance_probability(int(u), hub) >= \
                base.acceptance_probability(int(u), hub) - 1e-12


class TestFactory:
    def test_known_kernels(self, small_graph):
        for name in ("deepwalk", "node2vec", "huge", "huge+"):
            k = make_kernel(name, small_graph)
            assert k.name == name

    def test_node2vec_kwargs(self, small_graph):
        k = make_kernel("node2vec", small_graph, p=0.5, q=4.0)
        assert k.p == 0.5

    def test_unknown_kernel(self, small_graph):
        with pytest.raises(KeyError):
            make_kernel("pagerank", small_graph)
