"""Reference parity: the batched trainer backends vs the loop learners.

Under the shared RNG protocol (counter-based per-machine negative streams
from :mod:`repro.utils.rng`), ``TrainConfig.backend="vectorized"`` must
reproduce ``backend="loop"`` exactly: identical negative draws, identical
token accounting, and embeddings equal to far below float32 resolution
(the contract is ``atol=1e-10``; in practice the backends are bit-equal
because every gather, matrix product and scatter runs on identical
operands in the same order).  The suite covers every batched learner on
undirected, weighted and directed graphs across 1/2/4 simulated machines,
plus the backend/protocol resolution rules.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.embedding import (
    LEARNERS,
    VECTORIZED_LEARNERS,
    DistributedTrainer,
    EmbeddingModel,
    NegativeSampler,
    TrainConfig,
    Vocabulary,
)
from repro.graph import powerlaw_cluster
from repro.partition import MPGPPartitioner, WorkloadBalancePartitioner
from repro.runtime import Cluster
from repro.utils.rng import CounterStream
from repro.walks import Corpus, DistributedWalkEngine, WalkConfig

PARITY_LEARNERS = sorted(VECTORIZED_LEARNERS)
ATOL = 1e-10


def make_corpus(num_nodes=40, num_walks=30, seed=3, min_len=1, max_len=18):
    """Mixed-length corpus, including length-1 walks (no windows)."""
    rng = np.random.default_rng(seed)
    corpus = Corpus(num_nodes)
    for _ in range(num_walks):
        corpus.add_walk(rng.integers(0, num_nodes,
                                     size=rng.integers(min_len, max_len)))
    return corpus


def walk_corpus(graph, machines=2, seed=9):
    """A corpus actually sampled by the (vectorized) walk engine."""
    part = WorkloadBalancePartitioner().partition(graph, machines)
    cluster = Cluster(machines, part.assignment, seed=seed)
    cfg = WalkConfig.distger(max_rounds=2, min_rounds=1)
    return DistributedWalkEngine(graph, cluster, cfg).run()


def train_embeddings(corpus, backend, machines=2, walk_machines=None,
                     learner="dsgl", **overrides):
    assignment = np.zeros(corpus.occurrences.size, dtype=np.int64)
    cluster = Cluster(machines, assignment, seed=0)
    cfg = TrainConfig(dim=16, window=4, negatives=3, epochs=2,
                      backend=backend, **overrides)
    trainer = DistributedTrainer(corpus, cluster, cfg, learner=learner,
                                 walk_machines=walk_machines)
    return trainer.train()


class TestLearnerParity:
    """Direct learner-level parity: same model, sampler and stream."""

    @pytest.mark.parametrize("learner", PARITY_LEARNERS)
    def test_loop_equals_vectorized(self, learner):
        corpus = make_corpus()
        vocab = Vocabulary.from_corpus(corpus)
        sampler = NegativeSampler(vocab)
        cfg = TrainConfig(dim=16, window=3, negatives=4, multi_windows=2)
        results = {}
        for kind, registry in (("loop", LEARNERS),
                               ("vectorized", VECTORIZED_LEARNERS)):
            model = EmbeddingModel(vocab, cfg.dim, seed=1)
            inst = registry[learner](model, sampler, cfg,
                                     neg_stream=CounterStream(12345))
            tokens = inst.train_walks(corpus.walks, lr=0.05)
            results[kind] = (model.phi_in.copy(), model.phi_out.copy(),
                             tokens)
        assert results["loop"][2] == results["vectorized"][2] \
            == corpus.total_tokens
        np.testing.assert_allclose(results["loop"][0],
                                   results["vectorized"][0], atol=ATOL)
        np.testing.assert_allclose(results["loop"][1],
                                   results["vectorized"][1], atol=ATOL)

    @pytest.mark.parametrize("learner", PARITY_LEARNERS)
    def test_identical_negative_draws(self, learner):
        """Both backends consume the very same negative rows.

        A recording sampler captures every draw; the concatenated streams
        must be identical because draws are a pure function of the
        counter stream, not of how either backend batches them.
        """
        corpus = make_corpus(seed=5)
        vocab = Vocabulary.from_corpus(corpus)

        class RecordingSampler(NegativeSampler):
            def __init__(self, vocab):
                super().__init__(vocab)
                self.drawn = []

            def sample_rows_stream(self, count, stream):
                rows = super().sample_rows_stream(count, stream)
                self.drawn.append(rows)
                return rows

        cfg = TrainConfig(dim=8, window=3, negatives=3)
        draws = {}
        for kind, registry in (("loop", LEARNERS),
                               ("vectorized", VECTORIZED_LEARNERS)):
            sampler = RecordingSampler(vocab)
            model = EmbeddingModel(vocab, cfg.dim, seed=1)
            inst = registry[learner](model, sampler, cfg,
                                     neg_stream=CounterStream(777))
            inst.train_walks(corpus.walks, lr=0.05)
            draws[kind] = np.concatenate(sampler.drawn)
        np.testing.assert_array_equal(draws["loop"], draws["vectorized"])

    def test_dsgl_multi_window_sizes(self):
        corpus = make_corpus(seed=11)
        vocab = Vocabulary.from_corpus(corpus)
        sampler = NegativeSampler(vocab)
        for mw in (1, 2, 4):
            cfg = TrainConfig(dim=8, window=2, negatives=2, multi_windows=mw)
            outs = {}
            for kind, registry in (("loop", LEARNERS),
                                   ("vectorized", VECTORIZED_LEARNERS)):
                model = EmbeddingModel(vocab, cfg.dim, seed=1)
                registry["dsgl"](model, sampler, cfg,
                                 neg_stream=CounterStream(5)).train_walks(
                                     corpus.walks, lr=0.05)
                outs[kind] = model.phi_in.copy()
            np.testing.assert_allclose(outs["loop"], outs["vectorized"],
                                       atol=ATOL)


class TestTrainerParity:
    """End-to-end DistributedTrainer parity across machine counts."""

    @pytest.mark.parametrize("machines", (1, 2, 4))
    @pytest.mark.parametrize("learner", PARITY_LEARNERS)
    def test_machine_counts(self, learner, machines):
        corpus = make_corpus(num_nodes=50, num_walks=40, seed=7)
        results = {
            backend: train_embeddings(corpus, backend, machines=machines,
                                      learner=learner)
            for backend in ("loop", "vectorized")
        }
        assert results["loop"].tokens_processed == \
            results["vectorized"].tokens_processed
        np.testing.assert_allclose(results["loop"].embeddings,
                                   results["vectorized"].embeddings,
                                   atol=ATOL)

    @pytest.mark.parametrize("kind", ("undirected", "weighted", "directed"))
    def test_graph_families(self, kind):
        graph = powerlaw_cluster(120, attach=3, triangle_prob=0.4, seed=2)
        if kind == "weighted":
            graph = graph.with_random_weights(np.random.default_rng(3))
        elif kind == "directed":
            graph = graph.as_directed()
        walk_result = walk_corpus(graph)
        results = {}
        for backend in ("loop", "vectorized"):
            part = WorkloadBalancePartitioner().partition(graph, 2)
            cluster = Cluster(2, part.assignment, seed=0)
            cfg = TrainConfig(dim=16, epochs=1, backend=backend)
            results[backend] = DistributedTrainer(
                walk_result.corpus, cluster, cfg, learner="dsgl",
                walk_machines=walk_result.walk_machines).train()
        np.testing.assert_allclose(results["loop"].embeddings,
                                   results["vectorized"].embeddings,
                                   atol=ATOL)

    def test_sync_and_compute_accounting_identical(self):
        """Simulated cluster metrics stay comparable across backends."""
        corpus = make_corpus(num_nodes=50, num_walks=40, seed=7)
        metrics = {}
        for backend in ("loop", "vectorized"):
            assignment = np.zeros(50, dtype=np.int64)
            cluster = Cluster(2, assignment, seed=0)
            cfg = TrainConfig(dim=8, window=3, negatives=2, epochs=1,
                              backend=backend, sync_mode="full",
                              sync_period_tokens=100)
            DistributedTrainer(corpus, cluster, cfg).train()
            metrics[backend] = cluster.metrics
        a, b = metrics["loop"], metrics["vectorized"]
        assert a.compute_units == b.compute_units
        assert a.sync_bytes == b.sync_bytes

    def test_dsgl_threads_change_results_not_validity(self):
        corpus = make_corpus(num_nodes=50, num_walks=40, seed=7)
        outs = []
        for threads in (1, 4, 16):
            res = train_embeddings(corpus, "vectorized",
                                   dsgl_threads=threads)
            assert np.all(np.isfinite(res.embeddings))
            outs.append(res.embeddings)
        # Concurrency width is a semantic knob: widths differ ...
        assert not np.allclose(outs[0], outs[2], atol=1e-6)
        # ... but loop and vectorized agree at every width.
        for threads, emb in zip((1, 4, 16), outs):
            loop = train_embeddings(corpus, "loop", dsgl_threads=threads)
            np.testing.assert_allclose(loop.embeddings, emb, atol=ATOL)


class TestBackendResolution:
    def test_auto_resolves_vectorized_for_batched_learners(self):
        cfg = TrainConfig()
        for learner in PARITY_LEARNERS:
            assert cfg.resolved_backend(learner) == "vectorized"

    def test_auto_resolves_loop_for_psgnscc(self):
        assert TrainConfig().resolved_backend("psgnscc") == "loop"

    def test_explicit_vectorized_psgnscc_rejected(self):
        with pytest.raises(ValueError, match="psgnscc"):
            TrainConfig(backend="vectorized").resolved_backend("psgnscc")

    def test_invalid_names(self):
        with pytest.raises(ValueError, match="backend"):
            TrainConfig(backend="gpu")
        with pytest.raises(ValueError, match="dsgl_threads"):
            TrainConfig(dsgl_threads=0)

    def test_trainer_exposes_resolution(self):
        corpus = make_corpus()
        cluster = Cluster(1, np.zeros(40, dtype=np.int64), seed=0)
        trainer = DistributedTrainer(corpus, cluster, TrainConfig(dim=4))
        assert trainer.backend == "vectorized"


class TestSharedDrawPrimitives:
    def test_counter_stream_batch_invariant(self):
        a = CounterStream(42)
        b = CounterStream(42)
        chunks = np.concatenate([a.uniforms(3), a.uniforms(5), a.uniforms(2)])
        whole = b.uniforms(10)
        np.testing.assert_array_equal(chunks, whole)

    def test_sampler_stream_batch_invariant(self):
        corpus = make_corpus()
        sampler = NegativeSampler(Vocabulary.from_corpus(corpus))
        a, b = CounterStream(9), CounterStream(9)
        chunked = np.concatenate([sampler.sample_rows_stream(4, a),
                                  sampler.sample_rows_stream(6, a)])
        whole = sampler.sample_rows_stream(10, b)
        np.testing.assert_array_equal(chunked, whole)

    def test_stream_draw_distribution(self):
        corpus = make_corpus(num_walks=60, seed=21)
        sampler = NegativeSampler(Vocabulary.from_corpus(corpus))
        draws = sampler.sample_rows_stream(120_000, CounterStream(3))
        empirical = np.bincount(draws, minlength=len(sampler.probabilities))
        np.testing.assert_allclose(empirical / 120_000,
                                   sampler.probabilities, atol=5e-3)
