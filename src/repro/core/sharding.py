"""Sharded χ-table execution: a persistent worker pool behind the kernels.

The oblivious kernels are embarrassingly parallel sweeps over the χ
length ``b`` (Exp 1, Fig. 3): every output cell depends only on the same
cell of each input vector.  This module partitions those sweeps into
``num_shards`` contiguous shards and runs them on a *persistent* pool of
worker processes, one pool per deployment:

* :func:`shard_bounds` / :class:`ShardPlan` — the shard decomposition.
  A plan is what the batched server kernels
  (:meth:`~repro.entities.server.PrismServer.psi_round_batch` and
  friends) accept; it names the shard count and the runtime that owns
  the worker pool.
* :class:`ShardRuntime` — the worker pool.  Workers are **forked**, so
  they read the server stores' share vectors directly out of
  copy-on-write memory (the χ table is never pickled or copied), and
  they exchange per-call inputs/outputs through anonymous ``MAP_SHARED``
  int64 buffers (:class:`_Scratch`) created before the fork.  The pool
  is re-forked whenever a :class:`~repro.data.storage.ServerStore`
  changes (version counters), so workers never compute over a stale
  snapshot.
* :func:`attach_sharding` — wires one runtime + default plan onto a
  deployment's servers (what ``PrismSystem(num_shards=...)`` calls).

Fallback ladder (in the server kernels, not here): ``num_shards <= 1``
or no runtime → the persistent per-server thread pool; fork unavailable,
the pool broke, or an overridden fetch layer (instrumented servers) →
threads with ``num_shards`` chunks.  Malicious servers need no rung of
their own: the parent applies the server's
:meth:`~repro.entities.server.PrismServer.tamper` seam to the rows a
dispatch returns, so fault injection works at every shard count.

Bit-identity: a shard computes exactly the per-element int64 operations
of the unsharded kernel over its span (same share-summation order, same
single reduction, same table lookup), so concatenated shard outputs are
bit-identical to the unsharded sweep for every shard count.
"""

from __future__ import annotations

import dataclasses
import mmap
import multiprocessing
import os
import threading
import weakref
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool

import numpy as np

from repro import kernels
from repro.exceptions import ProtocolError


def shard_bounds(n: int, num_shards: int) -> list[tuple[int, int]]:
    """Split ``range(n)`` into at most ``num_shards`` contiguous spans."""
    num_shards = max(1, min(num_shards, n)) if n else 1
    step = (n + num_shards - 1) // num_shards if n else 1
    return [(lo, min(lo + step, n)) for lo in range(0, n, step)] or [(0, 0)]


def processes_available() -> bool:
    """Whether fork-based worker processes are supported on this host.

    The runtime relies on ``fork`` semantics twice over: workers inherit
    the share vectors copy-on-write, and they inherit the pre-created
    ``MAP_SHARED`` scratch buffers.  ``spawn``-only platforms fall back
    to the threaded sweep.
    """
    return "fork" in multiprocessing.get_all_start_methods()


@dataclasses.dataclass(frozen=True)
class ShardPlan:
    """A shard decomposition handed to the batched server kernels.

    Attributes:
        num_shards: contiguous χ shards per sweep (``<= 1`` disables
            sharding — useful as an explicit per-call override).
        runtime: the :class:`ShardRuntime` owning the worker pool, or
            ``None`` for a thread-only plan.
    """

    num_shards: int
    runtime: "ShardRuntime | None" = None

    def bounds(self, n: int) -> list[tuple[int, int]]:
        """The shard spans of a length-``n`` sweep."""
        return shard_bounds(n, self.num_shards)


class _Scratch:
    """Anonymous ``MAP_SHARED`` int64 buffers shared with forked workers.

    ``in_buf`` carries per-call parent-side matrices (the querier-dealt
    Eq. 11 indicator-share rows) into the workers; ``out_buf`` carries
    each shard's output rows back.  Both are plain
    shared memory: writes on either side of the fork are visible to the
    other without copies or pickling.
    """

    def __init__(self, rows: int, cols: int):
        self.rows = max(1, rows)
        self.cols = max(1, cols)
        nbytes = self.rows * self.cols * 8
        self._in_mm = mmap.mmap(-1, nbytes)
        self._out_mm = mmap.mmap(-1, nbytes)
        self.in_buf = np.frombuffer(self._in_mm, dtype=np.int64).reshape(
            self.rows, self.cols)
        self.out_buf = np.frombuffer(self._out_mm, dtype=np.int64).reshape(
            self.rows, self.cols)


#: Per-worker state installed by :func:`_worker_init` (after the fork).
_WORKER: dict | None = None


def _worker_init(servers: dict, scratch: _Scratch) -> None:
    """Process-pool initializer: runs in each forked worker.

    ``servers`` and ``scratch`` are inherited through the fork (the
    initargs tuple is an object reference, not a pickle), so the worker
    sees the submitting deployment's stores and shared buffers.
    """
    global _WORKER
    _WORKER = {"servers": servers, "scratch": scratch}


def compute_sweep_span(server, family: str, spec: dict, lo: int, hi: int,
                       z_span: np.ndarray | None = None) -> np.ndarray:
    """One contiguous χ span ``[lo, hi)`` of one fused sweep.

    Mirrors the corresponding in-process kernel *exactly* (operation
    order, reduction points, dtypes) so shard outputs concatenate
    bit-identically to the unsharded sweep for every span decomposition.
    Reads share vectors through the server's fetch layer and returns the
    span *before* the :meth:`~repro.entities.server.PrismServer.tamper`
    seam, which its caller applies.  Two callers:
    the forked shard workers (:func:`_run_span`, which writes the result
    into the shared scratch) and the entity host
    (:mod:`repro.network.host`), which serves span-scoped RPC requests
    with it — the hook for sharding one sweep across deployment channels.

    Args:
        server: the server whose store backs the sweep.
        family: ``"psi"`` (Eq. 3 / Eq. 7), ``"psi_cells"`` (Eq. 3 over a
            cell subset — the bucketized per-level sweep, where the span
            indexes the *cells array*), ``"psu"`` (Eq. 18), or ``"agg"``
            (Eq. 11).
        spec: the sweep description (columns, per-column owner lists,
            and per-family extras — ``m_rows``, ``cells``,
            ``row_map``/``nonces``).
        z_span: for ``"agg"``, this span of the indicator-share matrix.

    Returns:
        The ``(rows, hi - lo)`` output block of the sweep.
    """
    columns = spec["columns"]
    owners = spec["owners"]

    if family == "psi":
        # Eq. 3 / Eq. 7 span: sum, ⊖ A(m), mod δ, power-table lookup.
        delta = server.params.delta
        table = server.params.group.power_table
        m_rows = np.asarray(spec["m_rows"], dtype=np.int64)[:, None]
        share_lists = [
            [s[lo:hi] for s in server.fetch_additive(column, col_owners)]
            for column, col_owners in zip(columns, owners)
        ]
        out = np.empty((len(columns), hi - lo), dtype=np.int64)
        native = kernels.psi_sweep(share_lists, m_rows, delta, table, out)
        if native is not None:
            native(0, hi - lo)
            return out
        acc = np.zeros((len(columns), hi - lo), dtype=np.int64)
        for q, row_shares in enumerate(share_lists):
            row = acc[q]
            for s in row_shares:
                row += s
        acc -= m_rows
        np.mod(acc, delta, out=acc)
        return table[acc]

    if family == "psi_cells":
        # Eq. 3 over a cell subset: the kernel is cell-local, so the
        # span indexes the cells array (not χ) and the gathered cells
        # compute bit-identically to slicing the full sweep.
        delta = server.params.delta
        table = server.params.group.power_table
        span = np.asarray(spec["cells"][lo:hi], dtype=np.int64)
        m_rows = np.asarray(spec["m_rows"], dtype=np.int64)[:, None]
        share_lists = [server.fetch_additive(column, col_owners)
                       for column, col_owners in zip(columns, owners)]
        out = np.empty((len(columns), hi - lo), dtype=np.int64)
        native = kernels.psi_sweep(share_lists, m_rows, delta, table, out,
                                   cells=span)
        if native is not None:
            native(0, hi - lo)
            return out
        acc = np.zeros((len(columns), hi - lo), dtype=np.int64)
        for q, row_shares in enumerate(share_lists):
            row = acc[q]
            for s in row_shares:
                row += s[span]
        acc -= m_rows
        np.mod(acc, delta, out=acc)
        return table[acc]

    if family == "psu":
        # Eq. 18 span: per-unique-column sums, broadcast by row_map,
        # multiplied with this span of each row's mask stream.  The
        # counter-mode PRG is seekable (``integers_at``), so the worker
        # derives bits identical to slicing the full-length stream — and
        # mask generation, PSU's dominant cost, shards with the sweep.
        from repro.crypto.prg import SeededPRG
        delta = server.params.delta
        row_map = np.asarray(spec["row_map"], dtype=np.int64)
        share_lists = [
            [s[lo:hi] for s in server.fetch_additive(column, col_owners)]
            for column, col_owners in zip(columns, owners)
        ]
        prgs = [SeededPRG(server.params.prg_seed, f"psu-{nonce}")
                for nonce in spec["nonces"]]
        acc = np.zeros((len(columns), hi - lo), dtype=np.int64)
        out = np.empty((len(row_map), hi - lo), dtype=np.int64)
        native = kernels.psu_sweep(share_lists, acc, row_map,
                                   [prg.key_bytes for prg in prgs], delta,
                                   out, draw_base=lo)
        if native is not None:
            native(0, hi - lo)
            return out
        for u, col_shares in enumerate(share_lists):
            row = acc[u]
            for s in col_shares:
                row += s
        np.mod(acc, delta, out=acc)
        rand = np.stack([prg.integers_at(lo, hi - lo, 1, delta)
                         for prg in prgs])
        return np.mod(acc[row_map] * rand, delta)

    if family == "agg":
        # Eq. 11 span: Σ_j S(x_i2)_j × S(z_i) with per-term reduction.
        if z_span is None:
            raise ProtocolError("aggregation span needs its z matrix span")
        p = server.params.field_prime
        share_lists = [
            [s[lo:hi] for s in server.fetch_shamir(column, col_owners)]
            for column, col_owners in zip(columns, owners)
        ]
        acc = np.zeros((len(columns), hi - lo), dtype=np.int64)
        native = kernels.agg_sweep(share_lists, np.asarray(z_span), p, acc)
        if native is not None:
            native(0, hi - lo)
            return acc
        for q, row_shares in enumerate(share_lists):
            z = z_span[q]
            row = acc[q]
            for s in row_shares:
                row += np.mod(s * z, p)
                np.mod(row, p, out=row)
        return acc

    raise ProtocolError(f"unknown shard kernel family {family!r}")


def _run_span(family: str, spec: dict, lo: int, hi: int) -> None:
    """Compute one shard span in a worker process, into the scratch."""
    state = _WORKER
    if state is None:  # pragma: no cover - initializer always runs first
        raise ProtocolError("shard worker used before initialisation")
    server = state["servers"][spec["server"]]
    scratch = state["scratch"]
    z_span = (scratch.in_buf[:len(spec["columns"]), lo:hi]
              if family == "agg" else None)
    out = compute_sweep_span(server, family, spec, lo, hi, z_span=z_span)
    scratch.out_buf[:out.shape[0], lo:hi] = out


def _shutdown_pool(pool: ProcessPoolExecutor) -> None:
    """GC/finalizer hook: tear a pool down without waiting."""
    pool.shutdown(wait=False, cancel_futures=True)


def _warm_worker() -> bool:
    """No-op task: forces the executor to actually fork a worker now."""
    return True


#: Scratch rows a prewarmed pool provisions.  Anonymous mmap pages are
#: allocated on first write, so provisioning generously costs only
#: virtual address space; batches fusing more rows than this trigger one
#: re-fork at dispatch time (re-binding a bigger scratch in the parent
#: would not reach the children — they hold a copy-on-write snapshot of
#: the scratch object, so growth genuinely requires a re-fork).
PREWARM_ROWS = 64


class ShardRuntime:
    """A persistent forked worker pool serving one deployment's servers.

    One runtime is shared by all of a system's servers (a task names its
    server by index), so a deployment pays for at most
    ``min(num_shards, cpu_count)`` worker processes regardless of how
    many servers dispatch sharded sweeps.

    The pool is created lazily on first dispatch and re-created when:

    * any server's store changed (version fingerprint) — forked workers
      hold a copy-on-write snapshot and must never compute over stale
      shares;
    * a call needs more scratch rows, a different χ length, or more
      workers than the current pool provides.

    Dispatch returns ``None`` — and the kernels fall back to threads —
    when fork is unavailable or the pool broke (e.g. a worker was
    killed); ``available`` stays false afterwards so later calls skip
    straight to the thread path.
    """

    def __init__(self, servers, max_workers: int | None = None):
        self._servers = {server.index: server for server in servers}
        self._max_workers = max_workers
        self._pool: ProcessPoolExecutor | None = None
        self._scratch: _Scratch | None = None
        self._fingerprint: tuple | None = None
        self._workers = 0
        self._broken = False
        self._finalizer = None
        # The scratch buffers and pool are shared by every caller of the
        # deployment (several clients, several servers): one dispatch at
        # a time, or concurrent calls would overwrite each other's
        # in/out rows.  RLock: the except path calls close() re-entrantly.
        self._lock = threading.RLock()
        #: Completed sharded dispatches (for tests / introspection).
        self.dispatches = 0

    @property
    def available(self) -> bool:
        """Whether sharded process execution can currently be attempted."""
        return processes_available() and not self._broken

    def close(self) -> None:
        """Shut the worker pool down (idempotent; a later dispatch re-forks)."""
        with self._lock:
            if self._finalizer is not None:
                self._finalizer.detach()
                self._finalizer = None
            if self._pool is not None:
                self._pool.shutdown(wait=True, cancel_futures=True)
                self._pool = None
            # The scratch mmaps stay alive as long as numpy views
            # reference them; dropping the reference is the safe teardown.
            self._scratch = None
            self._fingerprint = None
            self._workers = 0

    # -- pool lifecycle -------------------------------------------------------

    def _store_fingerprint(self) -> tuple:
        return tuple(server.store.version
                     for server in self._servers.values())

    def _ensure(self, rows: int, cols: int, num_shards: int) -> None:
        """Fork (or re-fork) the pool so it matches the pending dispatch."""
        workers = min(num_shards, os.cpu_count() or 1)
        if self._max_workers is not None:
            workers = min(workers, self._max_workers)
        workers = max(1, workers)
        fingerprint = self._store_fingerprint()
        if (self._pool is not None
                and fingerprint == self._fingerprint
                and self._scratch is not None
                and self._scratch.rows >= rows
                and self._scratch.cols >= cols
                and self._workers >= workers):
            # A wider scratch serves narrower sweeps (cell-restricted
            # bucketized levels vary per round): spans index columns
            # ``[0, cols)`` of the shared buffers either way.
            return
        self.close()
        capacity = 1
        while capacity < rows:
            capacity *= 2
        self._scratch = _Scratch(capacity, cols)
        context = multiprocessing.get_context("fork")
        # initargs travel through the fork as object references: each
        # worker inherits THIS runtime's servers and scratch, so several
        # sharded deployments in one process never cross wires.
        self._pool = ProcessPoolExecutor(
            max_workers=workers, mp_context=context,
            initializer=_worker_init,
            initargs=(self._servers, self._scratch))
        self._workers = workers
        self._fingerprint = fingerprint
        self._finalizer = weakref.finalize(self, _shutdown_pool, self._pool)

    def prewarm(self, cols: int, num_shards: int,
                rows: int = PREWARM_ROWS) -> None:
        """Fork the pool (and its workers) now, from the calling thread.

        Forking a multi-threaded process is hazardous (and warns on
        Python ≥ 3.12): a child can inherit a lock some other thread
        held at fork time.  Deployments therefore prewarm right after
        outsourcing — while the process is still effectively
        single-threaded — so serving-time dispatches (which may come
        from the client's scheduler thread) find a fresh pool and never
        need to fork.  Only a store mutation or an oversized batch
        re-forks later.  Best-effort: failures just leave the thread
        fallback in charge.
        """
        if not self.available:
            return
        with self._lock:
            try:
                self._ensure(rows, cols, num_shards)
                # Submitting one trivial task per worker forces the
                # executor to spawn them all here and now.
                futures = [self._pool.submit(_warm_worker)
                           for _ in range(self._workers)]
                for future in futures:
                    future.result()
            except (BrokenProcessPool, OSError):
                self._broken = True
                self.close()

    # -- dispatch -------------------------------------------------------------

    def _dispatch(self, family: str, spec: dict, rows: int, n: int,
                  num_shards: int, in_matrix=None):
        """Run one fused sweep shard-parallel; ``None`` → caller falls back."""
        if not self.available:
            return None
        with self._lock:
            try:
                self._ensure(rows, n, num_shards)
                if in_matrix is not None:
                    self._scratch.in_buf[:rows, :n] = in_matrix
                futures = [
                    self._pool.submit(_run_span, family, spec, lo, hi)
                    for lo, hi in shard_bounds(n, num_shards)
                ]
                for future in futures:
                    future.result()
            except (BrokenProcessPool, OSError):
                # A worker died or the fork failed: disable process
                # execution for this runtime and let the kernel run its
                # thread fallback.
                self._broken = True
                self.close()
                return None
            self.dispatches += 1
            return self._scratch.out_buf[:rows, :n].copy()

    def sweep_psi(self, server, columns, owners_by_col, m_rows, n: int,
                  num_shards: int):
        """Sharded fused Eq. 3 / Eq. 7 sweep (see ``psi_round_batch``)."""
        spec = {
            "server": server.index,
            "columns": list(columns),
            "owners": [list(owners) for owners in owners_by_col],
            "m_rows": [int(v) for v in np.ravel(m_rows)],
            "rows": len(columns),
        }
        return self._dispatch("psi", spec, len(columns), n, num_shards)

    def sweep_psi_cells(self, server, columns, owners_by_col, m_rows, cells,
                        num_shards: int):
        """Sharded cell-restricted Eq. 3 sweep (``psi_cells_round_batch``).

        Shards partition the *cells array*; each worker gathers its span
        of active cells straight from the copy-on-write store, so the
        bucketized per-level sweeps parallelise without ever
        materialising the pruned χ slices in the parent.
        """
        spec = {
            "server": server.index,
            "columns": list(columns),
            "owners": [list(owners) for owners in owners_by_col],
            "m_rows": [int(v) for v in np.ravel(m_rows)],
            "cells": [int(c) for c in cells],
            "rows": len(columns),
        }
        return self._dispatch("psi_cells", spec, len(columns), len(spec["cells"]),
                              num_shards)

    def sweep_psu(self, server, uniq_columns, owners_by_col, row_map,
                  query_nonces, n: int, num_shards: int):
        """Sharded fused Eq. 18 sweep (see ``psu_round_batch``).

        Ships the query nonces, not the mask streams: each worker seeks
        the common PRG to its span (``integers_at``), exactly as the two
        non-communicating servers themselves derive the masks.
        """
        rows = len(query_nonces)
        spec = {
            "server": server.index,
            "columns": list(uniq_columns),
            "owners": [list(owners) for owners in owners_by_col],
            "row_map": [int(v) for v in row_map],
            "nonces": [int(nonce) for nonce in query_nonces],
            "rows": rows,
        }
        return self._dispatch("psu", spec, rows, n, num_shards)

    def sweep_agg(self, server, columns, owners_by_col, z_matrix, n: int,
                  num_shards: int):
        """Sharded fused Eq. 11 sweep (see ``aggregate_round_batch``)."""
        spec = {
            "server": server.index,
            "columns": list(columns),
            "owners": [list(owners) for owners in owners_by_col],
            "rows": len(columns),
        }
        return self._dispatch("agg", spec, len(columns), n, num_shards,
                              in_matrix=z_matrix)


#: Minimum χ rows per shard before splitting pays for itself.  Below
#: this, ``benchmarks/bench_sharding.py`` measures the per-shard
#: dispatch overhead (task submission, result collection) eating the
#: parallel win for every kernel family, so ``num_shards="auto"`` keeps
#: such sweeps unsharded.
AUTO_ROWS_PER_SHARD = 16_384

#: χ length above which the forked worker pool beats the thread
#: fallback.  ``bench_sharding.py``'s crossover: the heavy kernels (the
#: PSU mask streams, Eq. 11's per-term reductions) amortise worker
#: dispatch from roughly this size, while the light Eq. 3 sweep favours
#: threads (free dispatch) below it.
AUTO_WORKER_MIN_ROWS = 65_536

#: Crossover scaling when the compiled kernel tier is active.  The C
#: sweeps cut the per-row cost ~2-9x (``benchmarks/bench_kernels.py``),
#: so each shard must carry proportionally more rows before the same
#: dispatch overhead amortises; re-measuring ``bench_sharding.py`` with
#: ``REPRO_KERNELS=c`` shows the single-shard compiled sweep beating
#: sharded numpy until roughly this multiple of the plain thresholds.
AUTO_NATIVE_ROWS_FACTOR = 4


def auto_shard_plan(rows: int, cpu_count: int | None = None
                    ) -> tuple[int, bool]:
    """Pick ``(num_shards, use_worker_pool)`` for a χ length.

    The ``num_shards="auto"`` heuristic: shard so every shard keeps at
    least :data:`AUTO_ROWS_PER_SHARD` rows, capped at the core count;
    run shards on the forked worker pool only past
    :data:`AUTO_WORKER_MIN_ROWS` (and only where fork exists), else on
    the zero-dispatch thread fallback.  Both thresholds come from the
    threads-vs-workers crossover measured by
    ``benchmarks/bench_sharding.py``, and scale by
    :data:`AUTO_NATIVE_ROWS_FACTOR` when the compiled kernel tier is
    active (cheaper rows push the crossover out).
    """
    rows_per_shard = AUTO_ROWS_PER_SHARD
    worker_min = AUTO_WORKER_MIN_ROWS
    if kernels.enabled():
        rows_per_shard *= AUTO_NATIVE_ROWS_FACTOR
        worker_min *= AUTO_NATIVE_ROWS_FACTOR
    cpus = cpu_count if cpu_count is not None else (os.cpu_count() or 1)
    shards = min(max(1, cpus), max(1, rows // rows_per_shard))
    if shards <= 1:
        return 1, False
    use_workers = processes_available() and rows >= worker_min
    return shards, use_workers


def attach_sharding(servers, num_shards: int,
                    max_workers: int | None = None) -> ShardPlan:
    """Wire one shared :class:`ShardRuntime` onto a set of servers.

    Sets each server's default shard plan and marks its store
    shard-aware (contiguous partition bookkeeping).  Returns the plan,
    whose ``runtime`` the caller should :meth:`~ShardRuntime.close` when
    the deployment is torn down.
    """
    runtime = ShardRuntime(servers, max_workers=max_workers)
    plan = ShardPlan(num_shards, runtime)
    for server in servers:
        server.shard_plan = plan
        server.store.configure_sharding(num_shards)
    return plan
