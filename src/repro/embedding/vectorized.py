"""Batched Skip-Gram learners: the trainer's ``vectorized`` backend.

The loop learners in :mod:`repro.embedding.sgns` / :mod:`~.dsgl` spend most
of their time *around* the update math: ``iter_windows`` concatenates two
walk slices per window, every window re-runs ``searchsorted`` over the
lifetime buffers, negatives are drawn a handful at a time, and DSGL's
lock-step batching advances Python generators.  The learners here hoist all
of that bookkeeping out of the inner loop -- window layouts, buffer
indices, label coordinates and the whole negative pool are precomputed as
flat NumPy arrays per walk (SGNS/Pword2vec) or per lifetime chunk (DSGL) --
while the update math itself is kept operation-for-operation identical.

That identity is the backend contract (the trainer analogue of the walk
engine's loop/vectorized parity): both backends feed the same
counter-based negative streams through
:meth:`repro.embedding.negative.NegativeSampler.sample_rows_stream`, and
every gather, matmul, ``sigmoid`` and scatter runs on bit-identical
operands in the same order, so the final embeddings agree to the last bit
-- ``tests/test_embedding_vectorized_parity.py`` pins this down at
``atol=1e-10`` (far below float32 resolution).

SGD is order-sensitive, so SGNS stays a per-pair update (its level-1
structure is the baseline being measured) and Pword2vec a per-window
update: their speedup is pure bookkeeping elimination.

DSGL goes further.  In the real system (§4.2, Fig. 4) the lifetimes --
``multi_windows``-walk chunks with private local buffers -- are processed
by *parallel threads* whose lock-free updates race on the global matrices.
Both backends execute that concurrency model deterministically:
``TrainConfig.dsgl_threads`` lifetimes form a *cohort* (the simulated
thread pool), every lifetime of a cohort gathers its buffers from the
cohort-start matrices, lifetimes are mutually independent while they run
(their batches stay strictly sequential *within* each lifetime --
Improvement-II is untouched), and at cohort end
each row receives the **sum of the per-lifetime deltas** (the same
delta-sum rule :mod:`repro.embedding.sync` applies across machines, here
applied across threads); cohorts are sequential, bounding staleness the
way a bounded thread count does on real hardware.  Independence is what
the vectorized backend exploits: all lifetimes of a cohort advance in
lock-step, so one step processes every lifetime's current multi-window
batch as a single stacked ``(chunks, ctx, dim) @ (chunks, dim, outs)``
matrix multiplication.  The loop backend executes the *same* plans one
lifetime at a time through the same step kernel, which keeps the two
backends bit-identical while leaving the per-lifetime reference honestly
sequential.

Every array primitive in this module flows through the
:mod:`repro.embedding.ops` seam: :class:`~repro.embedding.ops.NumpyOps`
(the default) wraps the original calls one-for-one, so the float32 NumPy
path is byte-identical to the pre-seam trainer, while
:class:`~repro.embedding.ops.TorchOps` runs the same plans on torch
tensors (``TrainConfig.backend="torch"``) -- byte-equal on CPU, golden
AUC-gated on CUDA.  Plans themselves stay NumPy (device-agnostic slice
descriptors); only the gathered buffers and plan constants are adopted
per device via :meth:`DSGLSlicePlan.bind`.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple, Type

import numpy as np

from repro.embedding.ops import NUMPY_OPS, ArrayOps, sum_duplicate_rows
from repro.embedding.sgns import BaseLearner

__all__ = [
    "VECTORIZED_LEARNERS",
    "VectorizedDSGLLearner",
    "VectorizedPword2vecLearner",
    "VectorizedSGNSLearner",
    "window_context_layout",
]


def window_context_layout(length: int, window: int) -> Tuple[np.ndarray, np.ndarray]:
    """Flat context layout of every window of a length-``length`` walk.

    Returns ``(positions, sizes)``: ``sizes[t]`` is the context size of the
    window at position ``t`` and ``positions`` indexes into the walk,
    concatenating every window's contexts in walk order -- left neighbours
    then right, exactly the order ``iter_windows`` materialises them in.
    """
    t = np.arange(length, dtype=np.int64)
    lo = np.maximum(0, t - window)
    hi = np.minimum(length, t + window + 1)
    left = t - lo
    right = hi - t - 1
    # Two segments per window (left of the target, right of the target).
    starts = np.empty(2 * length, dtype=np.int64)
    lengths = np.empty(2 * length, dtype=np.int64)
    starts[0::2] = lo
    lengths[0::2] = left
    starts[1::2] = t + 1
    lengths[1::2] = right
    total = int(lengths.sum())
    offsets = np.zeros(2 * length, dtype=np.int64)
    np.cumsum(lengths[:-1], out=offsets[1:])
    positions = (np.arange(total, dtype=np.int64)
                 - np.repeat(offsets, lengths) + np.repeat(starts, lengths))
    return positions, left + right


class VectorizedSGNSLearner(BaseLearner):
    """Per-pair SGNS with precomputed windows and pooled negative draws."""

    name = "sgns"

    def train_walks(self, walks: Sequence[np.ndarray], lr: float) -> int:
        ops = self.ops
        phi_in, phi_out = self._adopt()
        k = self.config.negatives
        tokens = 0
        out_rows = np.empty(k + 1, dtype=np.int64)
        for walk in walks:
            tokens += int(walk.size)
            if walk.size <= 1:
                continue
            rows = self._rows(walk)
            positions, sizes = window_context_layout(rows.size, self.config.window)
            pair_ctx = rows[positions]                    # (P,) pair order
            pair_tgt = np.repeat(rows, sizes)             # (P,)
            # One pooled draw; the p-th pair's negatives equal the loop
            # backend's p-th per-pair draw.
            negs = self._negatives(k * pair_ctx.size).reshape(-1, k)
            for p in range(pair_ctx.size):
                c_row = int(pair_ctx[p])
                out_rows[0] = pair_tgt[p]
                out_rows[1:] = negs[p]
                x = phi_in[c_row]
                outs = ops.gather(phi_out, out_rows)
                scores = ops.sigmoid(ops.matmul(outs, x))
                grad = ops.zeros(k + 1)
                grad[0] = 1.0
                grad -= scores
                grad *= lr
                phi_in[c_row] = x + ops.matmul(grad, outs)
                ops.scatter_rows(phi_out, out_rows,
                                 outs + ops.outer(grad, x))
        self._publish(phi_in, phi_out)
        return tokens


class VectorizedPword2vecLearner(BaseLearner):
    """Per-window Pword2vec with precomputed windows and pooled negatives."""

    name = "pword2vec"

    def train_walks(self, walks: Sequence[np.ndarray], lr: float) -> int:
        ops = self.ops
        phi_in, phi_out = self._adopt()
        k = self.config.negatives
        tokens = 0
        out_rows = np.empty(k + 1, dtype=np.int64)
        for walk in walks:
            tokens += int(walk.size)
            if walk.size <= 1:
                continue
            rows = self._rows(walk)
            positions, sizes = window_context_layout(rows.size, self.config.window)
            ctx_flat = rows[positions]
            offs = np.zeros(rows.size + 1, dtype=np.int64)
            np.cumsum(sizes, out=offs[1:])
            negs = self._negatives(k * rows.size).reshape(-1, k)
            for t in range(rows.size):
                contexts = ctx_flat[offs[t]:offs[t + 1]]
                out_rows[0] = rows[t]
                out_rows[1:] = negs[t]
                ctx = ops.gather(phi_in, contexts)         # (m, d)
                outs = ops.gather(phi_out, out_rows)       # (k+1, d)
                scores = ops.sigmoid(ops.matmul_nt(ctx, outs))  # (m, k+1)
                labels = ops.zeros_like(scores)
                labels[:, 0] = 1.0
                grad = labels - scores                     # (m, k+1)
                grad *= lr
                ops.scatter_rows(phi_in, contexts,
                                 ctx + ops.matmul(grad, outs))
                ops.scatter_rows(phi_out, out_rows,
                                 outs + ops.matmul_tn(grad, ctx))
        self._publish(phi_in, phi_out)
        return tokens


# --------------------------------------------------------------------- #
# DSGL: concurrent-lifetime slice plan shared by both backends
# --------------------------------------------------------------------- #


class DSGLSlicePlan:
    """Precomputed schedule of one training slice's DSGL lifetimes.

    Built once per ``train_walks`` call (the deterministic stand-in for one
    sync period's worth of parallel thread work, §4.2/Fig. 4).  The plan
    owns everything both executors need:

    * per-lifetime local-buffer row sets, negative pools and lock-step
      batch schedules (batches within a lifetime stay strictly
      sequential);
    * rectangular gather/scatter index tensors ``cidx``/``oidx`` of shape
      ``(steps, lifetimes, Mmax)`` / ``(steps, lifetimes, Bmax)``, padded
      with a scratch row that is kept at zero by the gradient masks;
    * label coordinates grouped by ``(step, lifetime)`` and validity
      masks, so a step's labels/gradients are pure slicing.

    Lifetimes are ordered by descending step count so the lock-step
    executor's active set is always a prefix; negative pools are drawn and
    deltas merged (:func:`merge_deltas`) in *original* lifetime order,
    keeping the stream consumption and the writeback arithmetic
    backend-independent.  Step tensors are padded to the *structural*
    maxima ``(multi_windows·2·window, multi_windows+negatives)``, so a
    plan covering a single lifetime runs the exact same matrix shapes as
    a whole-slice plan -- the loop reference exploits this by planning one
    lifetime at a time and still matching the lock-step executor bit for
    bit.
    """

    __slots__ = (
        "tokens", "num_chunks", "num_steps", "m_max", "b_max",
        "ctx_size", "out_size", "ctx_gather", "out_gather",
        "cidx", "oidx", "row_mask", "col_mask",
        "label_flat", "label_offsets", "active_counts", "steps_per_chunk",
        "_buffers", "_bound",
    )

    # ------------------------------------------------------------------ #

    def bind(self, ops: ArrayOps = NUMPY_OPS) -> None:
        """Adopt the plan's constant tensors on ``ops``'s device.

        The index tensors, gradient masks and label coordinates never
        depend on the model matrices, so a device backend can stage their
        uploads (on the CUDA copy stream, via ``ops.staged_upload``-style
        transfer inside ``const``/``mask``) while the *previous* cohort's
        kernels are still queued -- the double-buffered half of the slice
        upload.  On the NumPy backend every call is an identity.
        """
        self._bound = (
            ops.const(self.cidx),
            ops.const(self.oidx),
            ops.mask(self.row_mask),
            ops.mask(self.col_mask),
            ops.const(self.label_flat),
        )

    def gather(self, phi_in: np.ndarray, phi_out: np.ndarray,
               ops: ArrayOps = NUMPY_OPS):
        """Slice-start local buffers of every lifetime, plus a zero scratch
        row at the end (index ``ctx_size``/``out_size``).

        The host-side gather reads the global float32 matrices; ``ops``
        then adopts the blocks (identity on NumPy, upload on a device
        backend -- the phi-dependent half of the slice upload, which
        cannot start before the previous cohort's writeback).
        """
        d = phi_in.shape[1]
        ctx_host = np.empty((self.ctx_size + 1, d), dtype=phi_in.dtype)
        ctx_host[:-1] = phi_in[self.ctx_gather]
        ctx_host[-1] = 0.0
        out_host = np.empty((self.out_size + 1, d), dtype=phi_out.dtype)
        out_host[:-1] = phi_out[self.out_gather]
        out_host[-1] = 0.0
        if self._bound is None:
            self.bind(ops)
        ctx_mega = ops.upload(ctx_host)
        out_mega = ops.upload(out_host)
        # Reusable step workspaces, sized for the widest step: the step
        # kernel writes into views of these instead of allocating.
        c_top = int(self.active_counts[0])
        self._buffers = (
            ops.empty((c_top, self.m_max, d)),
            ops.empty((c_top, self.b_max, d)),
            ops.empty((c_top, self.m_max, self.b_max)),
            ops.empty((c_top, self.m_max, self.b_max)),
            ops.empty((c_top, self.m_max, d)),
            ops.empty((c_top, self.b_max, d)),
        )
        ops.join()  # compute must see the staged constant uploads
        return ctx_mega, ops.clone(ctx_mega), out_mega, ops.clone(out_mega)

    def run_step(self, t: int, c: int,
                 ctx_mega, out_mega,
                 lr: float, ops: ArrayOps = NUMPY_OPS) -> None:
        """One lock-step batch update for the first ``c`` lifetime slots.

        The shared step kernel: the loop backend calls it on one-lifetime
        plans (``c=1``), the vectorized backend with the whole active
        prefix.  Per-slice matmul results are identical either way (the
        stacked form loops the same GEMM over slices), which is what makes
        the two executors bit-equal.  Every primitive flows through
        ``ops``; the learning rate stays a float64 Python scalar and only
        meets the buffer dtype at the final scalar multiply.
        """
        buf_ctx, buf_out, buf_sc, buf_gr, buf_cd, buf_od = self._buffers
        b_cidx, b_oidx, b_row_mask, b_col_mask, b_label_flat = self._bound
        cidx = b_cidx[t, :c]                             # (C, Mmax)
        oidx = b_oidx[t, :c]                             # (C, Bmax)
        ctx_vecs = buf_ctx[:c]                           # (C, Mmax, d)
        ops.take(ctx_mega, cidx, out=ctx_vecs)
        out_vecs = buf_out[:c]                           # (C, Bmax, d)
        ops.take(out_mega, oidx, out=out_vecs)
        # In-place sigmoid (same elementwise ops as model.sigmoid).
        scores = buf_sc[:c]                              # (C, Mmax, Bmax)
        ops.bmm_nt(ctx_vecs, out_vecs, out=scores)
        ops.sigmoid_(scores)
        grad = buf_gr[:c]                                # (C, Mmax, Bmax)
        ops.fill_(grad, 0.0)
        positions = b_label_flat[self.label_offsets[t, 0]:
                                 self.label_offsets[t, c]]
        ops.put_flat(grad, positions, 1.0)
        grad -= scores                                   # labels - scores
        grad *= lr
        # Zero the padding lanes so scratch-row garbage never leaks into a
        # valid row (and the scratch row itself stays zero: its updates
        # reduce to scratch + 0).  Valid lanes multiply by 1.0 -- exact.
        grad *= b_row_mask[t, :c, :, None]
        grad *= b_col_mask[t, :c, None, :]
        ctx_delta = buf_cd[:c]
        ops.bmm(grad, out_vecs, out=ctx_delta)
        out_delta = buf_od[:c]
        ops.bmm_tn(grad, ctx_vecs, out=out_delta)
        ctx_vecs += ctx_delta
        out_vecs += out_delta
        ops.scatter_rows(ctx_mega, cidx, ctx_vecs)
        ops.scatter_rows(out_mega, oidx, out_vecs)

    def apply_writeback(self, phi_in: np.ndarray, phi_out: np.ndarray,
                        ctx_mega, ctx_start,
                        out_mega, out_start,
                        ops: ArrayOps = NUMPY_OPS) -> None:
        """Delta-sum every lifetime's buffer back into the global matrices.

        Deltas are downloaded to the host first (a view on CPU backends,
        the device→host sync point on CUDA) and merged through the shared
        :func:`merge_deltas`, so reconciliation arithmetic -- including
        duplicate-row accumulation order -- is identical across backends.
        """
        ctx_mega -= ctx_start        # buffers are dead after the writeback
        out_mega -= out_start
        merge_deltas(phi_in, self.ctx_gather, ops.download(ctx_mega)[:-1])
        merge_deltas(phi_out, self.out_gather, ops.download(out_mega)[:-1])


def merge_deltas(phi: np.ndarray, rows: np.ndarray,
                 deltas: np.ndarray) -> None:
    """``phi[row] += Σ_lifetimes delta`` for concatenated lifetime deltas.

    ``rows``/``deltas`` concatenate every lifetime's buffer rows in
    original lifetime order; per-row deltas are summed in that order
    (``reduceat`` over the row-sorted layout) -- the thread-level analogue
    of the cross-machine delta reconciliation in
    :mod:`repro.embedding.sync`.  Shared by both executors, which makes
    the reconciliation arithmetic backend-independent.

    The accumulation order for rows contested by several lifetimes is
    pinned by :func:`repro.embedding.ops.sum_duplicate_rows` (stable sort
    gathering each row's deltas in original lifetime order, one
    ``reduceat`` segment per row, one ``+=`` per row) -- the same routine
    every CPU backend's ``index_add`` calls, so ties reconcile
    identically on numpy and torch.
    """
    if not rows.size:
        return
    urows, merged = sum_duplicate_rows(rows, deltas)
    phi[urows] += merged


def _chunk_ranks(values: np.ndarray, segment_of: np.ndarray,
                 num_segments: int):
    """Per-segment sorted-unique values and each element's global slot.

    One ``lexsort`` over the whole slice replaces a per-chunk
    ``np.unique`` + ``searchsorted`` pair: ``uniques`` concatenates every
    segment's sorted unique values (the lifetime buffer layout) and
    ``slots[i]`` is element ``i``'s row in that concatenation.
    """
    order = np.lexsort((values, segment_of))
    sv = values[order]
    sc = segment_of[order]
    new = np.empty(values.size, dtype=bool)
    new[0] = True
    new[1:] = (sv[1:] != sv[:-1]) | (sc[1:] != sc[:-1])
    gid = np.cumsum(new) - 1
    slots = np.empty(values.size, dtype=np.int64)
    slots[order] = gid
    return sv[new], np.bincount(sc[new], minlength=num_segments), slots


def plan_dsgl_slice(learner: BaseLearner,
                    walks: Sequence[np.ndarray]) -> Tuple[int, "DSGLSlicePlan"]:
    """Build the concurrent-lifetime plan for one cohort of walks.

    Negative pools are drawn from ``learner``'s stream in original chunk
    order, so loop and vectorized backends consume identical randomness.
    Construction is itself vectorized over the whole cohort -- window
    grids, buffer slots, batch offsets and label coordinates are all
    slice-global array computations; no per-chunk schedule objects exist.
    Returns ``(tokens, plan)``; ``plan`` is ``None`` when the cohort holds
    no trainable window.
    """
    cfg = learner.config
    k, group, window = cfg.negatives, cfg.multi_windows, cfg.window
    layout_cache = learner.__dict__.setdefault("_window_layout_cache", {})

    # Row-map walks, split into lifetime chunks, index eligible walks.
    chunks: List[List[np.ndarray]] = []
    chunk_tokens: List[int] = []
    tokens = 0
    for start in range(0, len(walks), group):
        chunk = [learner._rows(w) for w in walks[start:start + group]]
        n_tokens = int(sum(w.size for w in chunk))
        if n_tokens == 0:
            continue
        tokens += n_tokens
        chunks.append(chunk)
        chunk_tokens.append(n_tokens)
    if not chunks:
        return tokens, None
    # One pooled negative draw (counter-based draws are invariant to
    # batching, so the per-chunk split equals per-chunk draws).
    pool_all = learner._negatives(k * tokens)
    chunk_sizes = np.asarray(chunk_tokens, dtype=np.int64)
    n_chunks = len(chunks)
    toff = np.zeros(n_chunks + 1, dtype=np.int64)
    np.cumsum(chunk_sizes, out=toff[1:])
    poff = np.zeros(n_chunks + 1, dtype=np.int64)
    np.cumsum(chunk_sizes * k, out=poff[1:])

    # Slice-global buffer layout: one lexsort pass assigns every token (and
    # pool entry) its slot in the concatenation of per-lifetime sorted
    # unique row sets -- replacing a per-chunk unique+searchsorted pair.
    tok = np.concatenate([rows for chunk in chunks for rows in chunk])
    tok_chunk = np.repeat(np.arange(n_chunks), chunk_sizes)
    ctx_gather, _ctx_counts, ctx_slots = _chunk_ranks(tok, tok_chunk,
                                                      n_chunks)
    ext = np.concatenate([tok, pool_all])
    ext_chunk = np.concatenate(
        [tok_chunk, np.repeat(np.arange(n_chunks), chunk_sizes * k)])
    out_gather, _out_counts, ext_slots = _chunk_ranks(ext, ext_chunk,
                                                      n_chunks)
    tgt_slots = ext_slots[:tok.size]
    neg_slots = ext_slots[tok.size:]

    # Eligible walks (>= 2 tokens), in (chunk, within-chunk) order.
    wl_len: List[int] = []         # walk length
    wl_chunk: List[int] = []       # owning lifetime
    wl_base: List[int] = []        # first token's global index
    wl_layout: List[Tuple[np.ndarray, np.ndarray, np.ndarray]] = []
    for ci, chunk in enumerate(chunks):
        base = int(toff[ci])
        for rows in chunk:
            if rows.size > 1:
                layout = layout_cache.get(rows.size)
                if layout is None:
                    positions, sizes = window_context_layout(rows.size,
                                                             window)
                    offs = np.zeros(rows.size, dtype=np.int64)
                    np.cumsum(sizes[:-1], out=offs[1:])
                    layout = (positions, sizes, offs)
                    layout_cache[rows.size] = layout
                wl_len.append(rows.size)
                wl_chunk.append(ci)
                wl_base.append(base)
                wl_layout.append(layout)
            base += rows.size
    if not wl_len:
        return tokens, None
    n_walks = len(wl_len)
    wl_len_arr = np.asarray(wl_len, dtype=np.int64)
    wl_chunk_arr = np.asarray(wl_chunk, dtype=np.int64)
    wl_base_arr = np.asarray(wl_base, dtype=np.int64)

    plan = DSGLSlicePlan()
    plan._bound = None
    plan.tokens = tokens
    plan.ctx_gather = ctx_gather
    plan.out_gather = out_gather
    plan.ctx_size = int(ctx_gather.size)
    plan.out_size = int(out_gather.size)

    # Execution order: descending step count, so the lock-step executor's
    # active lifetimes are always the prefix [0, active_counts[t]).
    chunk_steps = np.zeros(n_chunks, dtype=np.int64)
    np.maximum.at(chunk_steps, wl_chunk_arr, wl_len_arr)
    exec_order = np.argsort(-chunk_steps, kind="stable")
    cpos_of_chunk = np.empty(n_chunks, dtype=np.int64)
    cpos_of_chunk[exec_order] = np.arange(n_chunks)
    steps_sorted = chunk_steps[exec_order]
    num_steps = int(steps_sorted[0])
    plan.num_chunks = n_chunks
    plan.num_steps = num_steps
    plan.steps_per_chunk = steps_sorted
    plan.active_counts = (steps_sorted[None, :]
                          > np.arange(num_steps)[:, None]).sum(axis=1)
    m_max = group * 2 * window
    b_max = group + k
    plan.m_max, plan.b_max = m_max, b_max

    # Window grids: one column per eligible walk (chunk-major), one row
    # per lock-step batch.  Grouped cumsums along the walk axis give each
    # window its within-batch row offset and label column.
    wl_cpos = cpos_of_chunk[wl_chunk_arr]
    t_rows = np.arange(num_steps, dtype=np.int64)[:, None]
    valid = t_rows < wl_len_arr[None, :]                   # (T, W)
    size_grid = np.zeros((num_steps, n_walks), dtype=np.int64)
    for j in range(n_walks):
        size_grid[:wl_len[j], j] = wl_layout[j][1]
    first_col = np.full(n_chunks, n_walks, dtype=np.int64)
    np.minimum.at(first_col, wl_chunk_arr,
                  np.arange(n_walks, dtype=np.int64))
    padded = np.zeros((num_steps, n_walks + 1), dtype=np.int64)
    np.cumsum(size_grid, axis=1, out=padded[:, 1:])
    woff_grid = padded[:, :-1] - padded[:, first_col[wl_chunk_arr]]
    padded_v = np.zeros((num_steps, n_walks + 1), dtype=np.int64)
    np.cumsum(valid, axis=1, out=padded_v[:, 1:])
    ord_grid = padded_v[:, :-1] - padded_v[:, first_col[wl_chunk_arr]]

    # Per-window flat arrays in walk-major order.
    vm = valid.T.ravel()                                    # walk-major
    win_t = np.tile(np.arange(num_steps, dtype=np.int64), n_walks)[vm]
    win_walk = np.repeat(np.arange(n_walks, dtype=np.int64), num_steps)[vm]
    win_size = size_grid.T.ravel()[vm]
    win_woff = woff_grid.T.ravel()[vm]
    win_ord = ord_grid.T.ravel()[vm]
    win_cpos = wl_cpos[win_walk]

    # Gather/scatter index tensors, padded with the scratch row.
    cidx = np.full((num_steps, n_chunks, m_max), plan.ctx_size,
                   dtype=np.int64)
    oidx = np.full((num_steps, n_chunks, b_max), plan.out_size,
                   dtype=np.int64)

    # Context elements: every window's contexts, walk-major; the element's
    # global buffer slot comes straight from the token ranks.
    elem_positions = np.concatenate(
        [wl_layout[j][0] + wl_base[j] for j in range(n_walks)])
    ctx_elems = ctx_slots[elem_positions]
    elem_t = np.repeat(win_t, win_size)
    elem_cpos = np.repeat(win_cpos, win_size)
    excl = np.zeros(win_size.size, dtype=np.int64)
    np.cumsum(win_size[:-1], out=excl[1:])
    elem_row = (np.repeat(win_woff, win_size)
                + np.arange(int(ctx_elems.size), dtype=np.int64)
                - np.repeat(excl, win_size))
    cidx.reshape(-1)[(elem_t * n_chunks + elem_cpos) * m_max + elem_row] = \
        ctx_elems

    # Output rows: each batch's targets (walk order) then its k negatives.
    win_tgt = tgt_slots[wl_base_arr[win_walk] + win_t]
    oidx.reshape(-1)[(win_t * n_chunks + win_cpos) * b_max + win_ord] = \
        win_tgt
    wins_grid = np.zeros((num_steps, n_chunks), dtype=np.int64)
    np.add.at(wins_grid, (win_t, win_cpos), 1)
    pair_c = np.repeat(np.arange(n_chunks, dtype=np.int64), chunk_steps)
    steps_excl = np.zeros(n_chunks, dtype=np.int64)
    np.cumsum(chunk_steps[:-1], out=steps_excl[1:])
    pair_t = (np.arange(int(chunk_steps.sum()), dtype=np.int64)
              - np.repeat(steps_excl, chunk_steps))
    neg_src = (np.repeat(poff[pair_c] + pair_t * k, k)
               + np.tile(np.arange(k, dtype=np.int64), pair_t.size))
    pair_cpos = cpos_of_chunk[pair_c]
    neg_dest = (np.repeat((pair_t * n_chunks + pair_cpos) * b_max
                          + wins_grid[pair_t, pair_cpos], k)
                + np.tile(np.arange(k, dtype=np.int64), pair_t.size))
    oidx.reshape(-1)[neg_dest] = neg_slots[neg_src]
    plan.cidx, plan.oidx = cidx, oidx

    # Validity masks (padding lanes multiply gradients by zero).
    m_counts = np.zeros((num_steps, n_chunks), dtype=np.int64)
    np.add.at(m_counts, (win_t, win_cpos), win_size)
    o_counts = wins_grid + np.where(
        np.arange(num_steps)[:, None] < chunk_steps[exec_order][None, :],
        k, 0)
    plan.row_mask = (np.arange(m_max)[None, None, :]
                     < m_counts[:, :, None]).astype(np.float32)
    plan.col_mask = (np.arange(b_max)[None, None, :]
                     < o_counts[:, :, None]).astype(np.float32)

    # Label positions grouped by (step, lifetime slot): within a group the
    # elements keep their batch row order, so a direct scatter places them.
    lab_vals = (elem_cpos * m_max + elem_row) * b_max \
        + np.repeat(win_ord, win_size)
    off_flat = np.zeros(num_steps * n_chunks + 1, dtype=np.int64)
    np.cumsum(m_counts.reshape(-1), out=off_flat[1:])
    label_flat = np.empty(lab_vals.size, dtype=np.int64)
    label_flat[off_flat[elem_t * n_chunks + elem_cpos] + elem_row] = lab_vals
    plan.label_flat = label_flat
    plan.label_offsets = off_flat[
        np.arange(num_steps)[:, None] * n_chunks
        + np.arange(n_chunks + 1)[None, :]]
    return tokens, plan


class VectorizedDSGLLearner(BaseLearner):
    """Lock-step DSGL: all lifetimes of a slice advance together.

    Executes the :class:`DSGLSlicePlan` breadth-first -- step ``t``
    processes the ``t``-th multi-window batch of every still-active
    lifetime as one stacked matrix multiplication -- which amortises the
    per-batch dispatch cost over every concurrent lifetime, exactly like
    the walk engine's lock-step supersteps.  Bit-identical to the loop
    backend's depth-first execution of the same plan (lifetimes are
    independent until the shared delta-merge writeback).
    """

    name = "dsgl"

    def train_walks(self, walks: Sequence[np.ndarray], lr: float) -> int:
        ops = self.ops
        phi_in, phi_out = self.model.phi_in, self.model.phi_out
        cohort = self._cohort_walks()
        spans = list(range(0, len(walks), cohort))
        tokens = 0

        def plan_span(i: int):
            # Planning never reads the matrices (negatives come from the
            # counter stream, layouts from walk lengths), so cohort i+1
            # can be planned -- and its constant tensors staged onto the
            # device copy stream via bind() -- while cohort i's kernels
            # are still queued.  Plans are built strictly in cohort
            # order, which keeps negative-stream consumption, and hence
            # backend parity, unchanged.
            cohort_tokens, plan = plan_dsgl_slice(
                self, walks[spans[i]:spans[i] + cohort])
            if plan is not None:
                plan.bind(ops)
            return cohort_tokens, plan

        current = plan_span(0) if spans else (0, None)
        for i in range(len(spans)):
            cohort_tokens, plan = current
            tokens += cohort_tokens
            if plan is None:
                current = plan_span(i + 1) if i + 1 < len(spans) else (0, None)
                continue
            ctx_mega, ctx_start, out_mega, out_start = plan.gather(
                phi_in, phi_out, ops)
            for t in range(plan.num_steps):
                plan.run_step(t, int(plan.active_counts[t]),
                              ctx_mega, out_mega, lr, ops)
            # Double buffering: stage the next cohort before this one's
            # delta download forces a device sync.
            current = plan_span(i + 1) if i + 1 < len(spans) else (0, None)
            plan.apply_writeback(phi_in, phi_out, ctx_mega, ctx_start,
                                 out_mega, out_start, ops)
        return tokens

    def _cohort_walks(self) -> int:
        """Walks per thread cohort (``dsgl_threads`` lifetimes)."""
        return self.config.dsgl_threads * self.config.multi_windows


#: Batched counterpart of :data:`repro.embedding.trainer.LEARNERS`.
#: ``psgnscc`` is deliberately absent -- see
#: :data:`repro.embedding.model.LOOP_ONLY_LEARNERS`.
VECTORIZED_LEARNERS: Dict[str, Type[BaseLearner]] = {
    "sgns": VectorizedSGNSLearner,
    "pword2vec": VectorizedPword2vecLearner,
    "dsgl": VectorizedDSGLLearner,
}
