"""One benchmark run: set up, run the journey, check it, report metrics.

The journey is embed -> update steps -> serve.  With tracing off it calls
the user-facing entry points (``embed_graph``, ``apply_edge_stream``,
``QueryEngine``) and yields the end-to-end metrics.  A traced run executes
the journey twice on the same inputs: once untraced, once with spans
around the public calls of each layer.  For the embed it composes the
calls ``RandomWalkSystem.embed`` makes (partition -> ``Cluster`` -> walk
engine -> trainer) from the configs of the ``DistGER`` object
``embed_graph`` builds; for each update step it adds read-only
``DeltaCSR`` and ``audit_walks`` probes on the step's inputs.  Both
passes must produce the same output digest; the difference of their
fixed-work times is the tracing overhead.
"""

from __future__ import annotations

import hashlib
import os
import resource
import statistics
import time
from dataclasses import dataclass, field, replace
from types import SimpleNamespace
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.api import apply_edge_stream, embed_graph
from repro.dynamic import DeltaCSR
from repro.dynamic.invalidate import audit_walks
from repro.embedding.trainer import DistributedTrainer
from repro.partition.quality import edge_cut
from repro.runtime.cluster import Cluster
from repro.runtime.executor import ProcessExecutor
from repro.serving import BatchTopKScorer, EmbeddingStore, QueryEngine
from repro.systems.walk_systems import DistGER
from repro.tasks.link_prediction import auc_from_split
from repro.utils.rng import derive_seed
from repro.walks.engine import DistributedWalkEngine

from inputs import Inputs, Workload, make_inputs
from loadgen import ClosedLoop, OpenLoop, closed_loop, open_loop
from spans import Tracer, self_times

#: Set-ups per run; ``setup_s`` is their median.
SETUP_REPEATS = 9
#: Batches timed by the depth-1 and in-process serving probes.
PROBE_BATCHES = 64
#: Shares of ``--seconds`` spent in the closed and the open loop.
CLOSED_SHARE = 0.25
OPEN_SHARE = 0.75
MB = 1024.0 * 1024.0

#: End-to-end metrics (tracing off): name -> unit.
END_TO_END = {
    "setup_s": "s", "embed_s": "s", "auc": "auc", "update_s": "s",
    "update_auc": "auc", "serve_qps": "q/s", "serve_p50_ms": "ms",
    "peak_rss_mb": "MB", "ok_frac": "frac",
}

#: Per-layer metrics (traced run): name -> unit.
PER_LAYER = {
    "partition.s": "s", "partition.edge_cut_frac": "frac",
    "walks.s": "s", "walks.tokens_per_s": "tokens/s",
    "walks.rounds": "count", "walks.tokens": "count",
    "walks.cross_messages": "count", "walks.cross_bytes": "B",
    "embedding.train_s": "s", "embedding.tokens_per_s": "tokens/s",
    "embedding.ms_per_sync_round": "ms", "embedding.sync_rounds": "count",
    "embedding.sync_bytes": "B",
    "runtime.ipc_task_bytes": "B", "runtime.parent_cpu_s": "s",
    "runtime.worker_cpu_s": "s", "runtime.busy_frac": "frac",
    "runtime.pool_start_s": "s", "runtime.pool_rtt_ms": "ms",
    "dynamic.delta_s": "s", "dynamic.audit_s": "s",
    "dynamic.refresh_s": "s", "dynamic.stale_frac": "frac",
    "dynamic.resampled_tokens": "count",
    "serving.top_k_ms": "ms", "serving.gemm_ref_ms": "ms",
    "serving.select_share": "frac", "serving.worker_p50_ms": "ms",
    "loadgen.late_p99_ms": "ms", "serve_p99_ms": "ms",
    "embed.self_s": "s", "update.self_s": "s",
    "trace.overhead_s": "s", "trace.spans": "count",
}


@dataclass
class OpLog:
    """Operations attempted and failed; a failed check is a failure."""

    attempted: int = 0
    failed: int = 0
    problems: List[str] = field(default_factory=list)

    def op(self, ok: bool, problem: str) -> None:
        self.attempted += 1
        self.fail(0 if ok else 1, problem)

    def fail(self, count: int, problem: str) -> None:
        if count:
            self.failed += count
            self.problems.append(f"{problem} (x{count})")


class Serving:
    """The query side: a shared store plus a multi-worker engine.

    Embed workloads serve their own embedding: the store starts zeroed,
    the embed publishes into it and every update step refreshes it in
    place.  The serve workload serves its Gaussian catalogue.
    """

    def __init__(self, workload: Workload, inputs: Inputs) -> None:
        self.live = inputs.catalogue is None
        matrix = inputs.catalogue if not self.live else np.zeros(
            (inputs.graph.num_nodes, workload.dim), dtype=np.float32)
        self.store = EmbeddingStore.from_array(matrix, mode="shared")
        try:
            self.engine = QueryEngine(self.store,
                                      workers=workload.serve_workers)
            # Start every worker before anything is timed.
            warm = [self.engine.submit(batch, k=workload.k)
                    for batch in inputs.batches[:workload.serve_workers]]
            for handle in warm:
                handle.result()
        except BaseException:
            self.store.close()
            raise

    def close(self) -> None:
        self.engine.close()
        self.store.close()


def set_up(workload: Workload, seed: int) -> Tuple[Inputs, Serving, float]:
    """Generate inputs and start serving ``SETUP_REPEATS`` times.

    Returns the last set-up's objects and the median set-up time.
    """
    times = []
    serving = None
    for _ in range(SETUP_REPEATS):
        if serving is not None:
            serving.close()
        start = time.perf_counter()
        inputs = make_inputs(workload, seed)
        serving = Serving(workload, inputs)
        times.append(time.perf_counter() - start)
    return inputs, serving, statistics.median(times)


def _walk_overrides(workload: Workload) -> Dict[str, object]:
    overrides = {"min_rounds": workload.walk_rounds,
                 "max_rounds": workload.walk_rounds}
    if workload.execution != "serial":
        overrides.update(execution=workload.execution,
                         workers=workload.workers)
    return overrides


def _system_kwargs(workload: Workload, seed: int) -> Dict[str, object]:
    return dict(method="distger", num_machines=workload.machines,
                dim=workload.dim, epochs=workload.epochs, seed=seed,
                **_walk_overrides(workload))


def _cpu() -> Tuple[float, float]:
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime, kids.ru_utime + kids.ru_stime


def _traced_embed(workload: Workload, graph, seed: int, tracer: Tracer,
                  op: int, layers: Dict[str, float]):
    """``RandomWalkSystem.embed``'s calls, one span per layer."""
    walk = _walk_overrides(workload)
    executor = {key: walk[key] for key in ("execution", "workers")
                if key in walk}
    system = DistGER(num_machines=workload.machines, dim=workload.dim,
                     epochs=workload.epochs, seed=seed,
                     walk_overrides=walk, train_overrides=executor,
                     partition_overrides=executor)
    with tracer.span("partition", op):
        partition = system.partitioner.partition(graph, workload.machines)
    cluster = Cluster(workload.machines, partition.assignment,
                      seed=derive_seed(seed, 1))
    metrics = cluster.metrics
    messages, message_bytes = metrics.messages_sent, metrics.message_bytes
    with tracer.span("walks", op):
        walks = DistributedWalkEngine(graph, cluster,
                                      system.walk_config).run()
    layers["walks.cross_messages"] = float(metrics.messages_sent - messages)
    layers["walks.cross_bytes"] = float(metrics.message_bytes
                                        - message_bytes)
    sync_bytes = metrics.sync_bytes
    with tracer.span("embedding", op):
        trained = DistributedTrainer(
            walks.corpus, cluster, system.train_config,
            learner=system.learner,
            walk_machines=walks.walk_machines).train()
    layers["embedding.sync_bytes"] = float(metrics.sync_bytes - sync_bytes)
    layers["embedding.sync_rounds"] = float(trained.sync_rounds)
    layers["embedding.tokens"] = float(trained.tokens_processed)
    layers["walks.rounds"] = float(walks.stats.rounds)
    layers["walks.tokens"] = float(walks.corpus.total_tokens)
    layers["partition.edge_cut_frac"] = \
        edge_cut(graph, partition.assignment) / graph.num_edges
    return system, SimpleNamespace(
        embeddings=trained.embeddings, corpus=walks.corpus,
        model=trained.model,
        walk_machines=np.asarray(walks.walk_machines, dtype=np.int64),
        assignment=partition.assignment)


def brute_force_ok(matrix: np.ndarray, nodes: np.ndarray, answer,
                   k: int, tol: float = 1e-5) -> bool:
    """Check a cosine top-k answer against a float64 full scan.

    Every returned score must match the reference, results must be in
    ``(-score, id)`` order, and no omitted node may beat the last result.
    """
    full = np.asarray(matrix, dtype=np.float64)
    norms = np.linalg.norm(full, axis=1)
    norms[norms == 0.0] = 1.0
    for row, node in enumerate(nodes):
        ref = full @ full[node] / (norms * norms[node])
        ref[node] = -np.inf
        ids, scores = answer.ids[row], answer.scores[row]
        if ids.size != k or np.any(ids < 0):
            return False
        if not np.allclose(ref[ids], scores, rtol=0.0, atol=tol):
            return False
        ordered = (scores[:-1] > scores[1:]) | \
            ((scores[:-1] == scores[1:]) & (ids[:-1] < ids[1:]))
        if not ordered.all():
            return False
        rest = ref.copy()
        rest[ids] = -np.inf
        if rest.max() > scores[-1] + tol:
            return False
    return True


@dataclass
class Round:
    """One serving round: a closed loop, then an open loop."""

    closed: ClosedLoop
    open: OpenLoop

    def latency_ms(self, percentile: float) -> float:
        return float(np.percentile(self.open.latencies, percentile)) * 1e3


def serve_round(workload: Workload, inputs: Inputs, serving: Serving,
                seconds: float, index: int, log: OpLog, digest,
                tracer: Optional[Tracer]) -> Round:
    """Closed loop, checks on its first answers, then the open loop.

    Rounds follow the embed and every update step, so a run's serving
    samples are spread over the whole run; each round starts at its own
    offset in the query trace.
    """
    engine, k = serving.engine, workload.k
    offset = index * len(inputs.batches) // (workload.update_steps + 1)
    batches = inputs.batches[offset:] + inputs.batches[:offset]

    def submit(batch):
        return engine.submit(batch, k=k)

    closed = closed_loop(submit, batches, workload.depth,
                         seconds * CLOSED_SHARE, keep=workload.check_batches)
    log.attempted += closed.batches
    log.fail(closed.failed, "serve: closed-loop batch failed")
    matrix = serving.store.embeddings
    scorer = BatchTopKScorer(matrix, norms=serving.store.norms)
    mismatches = 0
    for position, answer in enumerate(closed.answers):
        if answer is None:
            continue  # already counted as failed
        nodes = batches[position]
        ref = scorer.top_k(nodes, k=k)
        same = (answer.ids.tobytes() == ref.ids.tobytes()
                and answer.scores.tobytes() == ref.scores.tobytes())
        if position < workload.brute_batches:
            same = same and brute_force_ok(matrix, nodes, answer, k)
        mismatches += int(not same)
        digest.update(answer.ids.tobytes())
        digest.update(answer.scores.tobytes())
    log.fail(mismatches, "serve: pool answer differs from the reference")
    opened = open_loop(submit, batches, workload.rate,
                       max(1, int(workload.rate * seconds * OPEN_SHARE)))
    log.attempted += len(opened.latencies)
    log.fail(opened.failed, "serve: open-loop batch failed")
    if tracer is not None:
        for due, answered in opened.intervals:
            tracer.add("serve.batch", due, answered)
    return Round(closed, opened)


@dataclass
class PassResult:
    digest: str
    embed_digest: str
    embed_s: float
    auc: float
    update_s: List[float]
    update_auc: float
    rounds: List[Round]
    #: ``SystemResult.stats["ipc_task_bytes"]`` (0 when not recorded).
    ipc_task_bytes: float
    layers: Dict[str, float] = field(default_factory=dict)


def run_pass(workload: Workload, inputs: Inputs, serving: Serving,
             seconds: float, log: OpLog, tracer: Optional[Tracer] = None,
             embeds: int = 1) -> PassResult:
    """Embed, apply every update step, serve; check outputs as they come.

    ``embeds`` > 1 repeats the embed at the end of the pass and runs the
    update steps again after the first repeat.
    """
    kwargs = _system_kwargs(workload, inputs.embed_seed)
    serving.engine.latencies.clear()
    digest = hashlib.sha256()
    layers: Dict[str, float] = {}
    ipc_task_bytes = 0.0
    clock = time.perf_counter

    # --- embed ------------------------------------------------------- #
    if tracer is None:
        start = clock()
        prev = embed_graph(inputs.graph, **kwargs)
        embed_s = clock() - start
        ipc_task_bytes = prev.stats.get("ipc_task_bytes", 0.0)
        kernel = None
    else:
        op = tracer.new_op()
        cpu0, start = _cpu(), clock()
        with tracer.span("embed", op):
            system, prev = _traced_embed(workload, inputs.graph,
                                         inputs.embed_seed, tracer, op,
                                         layers)
        embed_s = clock() - start
        cpu1 = _cpu()
        layers["runtime.parent_cpu_s"] = cpu1[0] - cpu0[0]
        layers["runtime.worker_cpu_s"] = cpu1[1] - cpu0[1]
        layers["runtime.busy_frac"] = (
            (cpu1[0] - cpu0[0] + cpu1[1] - cpu0[1])
            / (embed_s * (os.cpu_count() or 1)))
        kernel = system.walk_config.kernel
    embeddings = prev.embeddings
    log.op(bool(np.isfinite(embeddings).all()), "embed: non-finite values")
    embed_digest = hashlib.sha256(embeddings.tobytes()).hexdigest()
    digest.update(embeddings.tobytes())
    if serving.live:
        serving.store.update(embeddings)
    auc = auc_from_split(embeddings, inputs.split)
    round_s = seconds / (len(inputs.streams) + 1)
    rounds = [serve_round(workload, inputs, serving, round_s, 0, log,
                          digest, tracer)]

    # --- update steps ------------------------------------------------ #
    update_s, stale_frac, resampled = [], [], []
    step_digests = []
    graph = inputs.graph
    store = serving.store if serving.live else None
    for stream in inputs.streams:
        if tracer is None:
            start = clock()
            update = apply_edge_stream(graph, stream, prev, audit="arc",
                                       store=store, **kwargs)
            update_s.append(clock() - start)
        else:
            op = tracer.new_op()
            with tracer.span("update", op):
                with tracer.span("dynamic.delta", op):
                    delta = DeltaCSR(graph).apply(stream)
                    changed = delta.changed_arcs()
                    new_graph = delta.compact()
                with tracer.span("dynamic.audit", op):
                    stale = audit_walks(prev.corpus, changed, kernel=kernel,
                                        old_graph=graph, new_graph=new_graph,
                                        audit="arc")
                with tracer.span("dynamic.apply", op):
                    update = apply_edge_stream(graph, stream, prev,
                                               audit="arc", store=store,
                                               **kwargs)
            update_s.append(tracer.durations("dynamic.apply")[-1])
            log.fail(int(stale.size != update.stats["stale_walks"]),
                     "update: audit probe disagrees with the update step")
        stale_walks = update.stats["stale_walks"]
        total = update.stats["total_walks"]
        log.op(bool(np.isfinite(update.embeddings).all())
               and 0 < stale_walks < total,
               f"update: non-finite values or {stale_walks:.0f} of "
               f"{total:.0f} walks stale")
        stale_frac.append(stale_walks / total)
        resampled.append(update.stats["resampled_tokens"])
        digest.update(update.embeddings.tobytes())
        step_digests.append(
            hashlib.sha256(update.embeddings.tobytes()).hexdigest())
        prev, graph = update, update.graph
        rounds.append(serve_round(workload, inputs, serving, round_s,
                                  len(rounds), log, digest, tracer))
    update_auc = auc_from_split(prev.embeddings, inputs.split)
    # Free the chain before the repeats so they do not add to peak RSS.
    prev = update = None

    if embeds > 1:
        # Embed again at the end of the pass, tens of seconds after the
        # first: on a shared host the two often fall in different host
        # states, and the median damps that.  Same seed, same bytes.
        times = [embed_s]
        for repeat in range(1, embeds):
            start = clock()
            again = embed_graph(inputs.graph, **kwargs)
            times.append(clock() - start)
            same = hashlib.sha256(
                again.embeddings.tobytes()).hexdigest() == embed_digest
            log.op(same, "embed: a repeat gave other bytes")
            if repeat == 1:
                update_s.extend(_update_chain(inputs, again, store, kwargs,
                                              step_digests, log))
            again = None
        embed_s = statistics.median(times)

    if tracer is not None:
        layers["dynamic.stale_frac"] = statistics.median(stale_frac)
        layers["dynamic.resampled_tokens"] = statistics.median(resampled)
        layers.update(_serving_probes(workload, inputs, serving))
        late = [x for r in rounds for x in r.open.lateness]
        layers["loadgen.late_p99_ms"] = float(np.percentile(late, 99)) * 1e3
    return PassResult(
        digest=digest.hexdigest(), embed_digest=embed_digest,
        embed_s=embed_s, auc=auc, update_s=update_s,
        update_auc=update_auc, rounds=rounds, ipc_task_bytes=ipc_task_bytes,
        layers=layers)


def _update_chain(inputs: Inputs, prev, store, kwargs,
                  step_digests: List[str], log: OpLog) -> List[float]:
    """The update steps again, from a repeated embed; their wall times.

    An update step refreshes its input's corpus in place, so a second
    chain needs an embed of its own.  Same inputs, same bytes.
    """
    times = []
    graph = inputs.graph
    for stream, step_digest in zip(inputs.streams, step_digests):
        start = time.perf_counter()
        prev = apply_edge_stream(graph, stream, prev, audit="arc",
                                 store=store, **kwargs)
        times.append(time.perf_counter() - start)
        same = hashlib.sha256(
            prev.embeddings.tobytes()).hexdigest() == step_digest
        log.op(same, "update: a repeated step gave other bytes")
        graph = prev.graph
    return times


def _serving_probes(workload: Workload, inputs: Inputs,
                    serving: Serving) -> Dict[str, float]:
    """Per-batch in-process select, reference GEMM, depth-1 round trip."""
    matrix, k = serving.store.embeddings, workload.k
    scorer = BatchTopKScorer(matrix, norms=serving.store.norms)
    probe = inputs.batches[:PROBE_BATCHES]
    worker_p50 = serving.engine.latency_summary()["overall"]["p50"]
    top_k, gemm, rtt = [], [], []
    for nodes in probe:
        queries = matrix[nodes]
        start = time.perf_counter()
        scorer.top_k(nodes, k=k)
        top_k.append(time.perf_counter() - start)
        start = time.perf_counter()
        matrix @ queries.T
        gemm.append(time.perf_counter() - start)
        start = time.perf_counter()
        serving.engine.query(nodes, k=k)
        rtt.append(time.perf_counter() - start)
    start = time.perf_counter()
    with ProcessExecutor(workload.serve_workers) as pool:
        pool.run(os.getpid, [()] * workload.serve_workers)
    pool_start = time.perf_counter() - start
    top_k_ms = statistics.median(top_k) * 1e3
    gemm_ms = statistics.median(gemm) * 1e3
    return {
        "serving.top_k_ms": top_k_ms,
        "serving.gemm_ref_ms": gemm_ms,
        "serving.select_share": 1.0 - gemm_ms / top_k_ms,
        "serving.worker_p50_ms": worker_p50 * 1e3,
        "runtime.pool_rtt_ms": statistics.median(rtt) * 1e3,
        "runtime.pool_start_s": pool_start,
    }


def _peak_rss_mb() -> float:
    """Client peak RSS plus the largest reaped worker's peak RSS.

    ``getrusage`` reports the largest child, not a sum; forked workers
    also share the client's pages, so the two parts overlap.
    """
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + kids) * 1024.0 / MB


def run(workload: Workload, seed: int, seconds: float, trace: bool,
        trace_path: Optional[str] = None
        ) -> Tuple[Dict[str, object], List[str]]:
    """One run: the result object the benchmark prints, and the problems
    behind any failed operation."""
    log = OpLog()
    inputs, serving, setup_s = set_up(workload, seed)
    tracer = Tracer() if trace else None
    try:
        plain = run_pass(workload, inputs, serving, seconds, log,
                         embeds=1 if trace else workload.embed_repeats)
        traced = None
        if tracer is not None:
            traced = run_pass(workload, inputs, serving, seconds, log,
                              tracer)
            log.fail(int(traced.digest != plain.digest),
                     "trace: traced output digest differs from untraced")
        if workload.execution != "serial":
            reference = embed_graph(inputs.graph, **_system_kwargs(
                replace(workload, execution="serial", workers=0),
                inputs.embed_seed))
            log.fail(int(hashlib.sha256(reference.embeddings.tobytes())
                         .hexdigest() != plain.embed_digest),
                     f"embed: {workload.execution} bytes differ from serial")
    finally:
        serving.close()

    if tracer is None:
        values = {
            "setup_s": setup_s,
            "embed_s": plain.embed_s,
            "auc": plain.auc,
            "update_s": statistics.median(plain.update_s),
            "update_auc": plain.update_auc,
            "serve_qps": statistics.median(r.closed.qps
                                           for r in plain.rounds),
            "serve_p50_ms": statistics.median(r.latency_ms(50)
                                              for r in plain.rounds),
            "peak_rss_mb": _peak_rss_mb(),
            "ok_frac": (log.attempted - log.failed) / log.attempted,
        }
        units = END_TO_END
    else:
        values = _layer_values(plain, traced, tracer)
        units = PER_LAYER
        if trace_path:
            tracer.write(trace_path, {"workload": workload.name,
                                      "seed": seed, "seconds": seconds})
    return {
        "correct": log.failed == 0,
        "attempted": log.attempted,
        "failed": log.failed,
        "metrics": {name: {"value": float(values[name]), "unit": unit}
                    for name, unit in units.items()},
    }, log.problems


def _layer_values(plain: PassResult, traced: PassResult,
                  tracer: Tracer) -> Dict[str, float]:
    layers = dict(traced.layers)
    own = self_times(tracer.spans)
    steps = max(1, len(traced.update_s))
    walks_s = own["walks"]
    train_s = own["embedding"]
    delta = tracer.durations("dynamic.delta")
    audit = tracer.durations("dynamic.audit")
    layers.update({
        "partition.s": own["partition"],
        "walks.s": walks_s,
        "walks.tokens_per_s": layers["walks.tokens"] / walks_s,
        "embedding.train_s": train_s,
        "embedding.tokens_per_s": layers.pop("embedding.tokens") / train_s,
        "embedding.ms_per_sync_round":
            train_s * 1e3 / max(1.0, layers["embedding.sync_rounds"]),
        "runtime.ipc_task_bytes": plain.ipc_task_bytes,
        # End-to-end in kind, but too noisy to gate on a 2-core VM (see
        # METRICS.md); taken from the untraced pass.
        "serve_p99_ms": statistics.median(r.latency_ms(99)
                                          for r in plain.rounds),
        "dynamic.delta_s": statistics.median(delta),
        "dynamic.audit_s": statistics.median(audit),
        "dynamic.refresh_s": statistics.median(
            u - d - a for u, d, a in zip(plain.update_s, delta, audit)),
        "embed.self_s": own["embed"],
        "update.self_s": own.get("update", 0.0) / steps,
        "trace.overhead_s": (traced.embed_s + sum(traced.update_s))
        - (plain.embed_s + sum(plain.update_s)),
        "trace.spans": float(len(tracer.spans)),
    })
    return layers
