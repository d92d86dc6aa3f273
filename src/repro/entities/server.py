"""The Prism server (§3.2 entity 2).

A server stores secret shares and runs the query kernels.  It never
sees cleartext, never addresses another server, and executes identical
instruction sequences regardless of the data (access-pattern hiding): all
kernels are branch-free sweeps over the full χ length ``b``.

Every query runs through one kernel surface, the fused 2-D sweeps — one
chunked pass serves every row of a batch:

* :meth:`psi_round_batch` — Eq. 3 rows (``⊖ A(m)``) and Eq. 7
  verification rows over the complement table.
* :meth:`psi_cells_round_batch` — the same, restricted to a cell subset
  (bucketized PSI, §6.6).
* :meth:`count_round_batch` — Eq. 3/7 rows permuted with
  ``PF_s1``/``PF_s2`` (§6.5).
* :meth:`psu_round_batch` — Eq. 18: masked additive sums with common PRG.
* :meth:`aggregate_round_batch` — Eq. 11: Σ_j Shamir(x2)·Shamir(z) per cell.
* :meth:`extrema_collect` / :meth:`fpos_round` — the §6.3 max machinery.

A sweep runs on the persistent per-server thread pool (numpy and the
compiled tier release the GIL), on the deployment's forked worker pool
(:class:`~repro.core.sharding.ShardRuntime`) when a
:class:`~repro.core.sharding.ShardPlan` names more than one shard, or —
behind an entity host — as span-scoped requests.  Whatever the path,
every output row then passes through :meth:`PrismServer.tamper`, the
identity for an honest server and the one seam the §5.2 adversaries
(:mod:`repro.entities.adversary`) override.
"""

from __future__ import annotations

import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from repro import kernels
from repro.core.params import ServerParams
from repro.crypto.prg import SeededPRG
from repro.data.storage import ServerStore, ShareKind
from repro.exceptions import ProtocolError
from repro.network.message import Endpoint, Role


def _chunk_bounds(n: int, num_chunks: int) -> list[tuple[int, int]]:
    """Split ``range(n)`` into at most ``num_chunks`` contiguous slices."""
    num_chunks = max(1, min(num_chunks, n)) if n else 1
    step = (n + num_chunks - 1) // num_chunks if n else 1
    return [(lo, min(lo + step, n)) for lo in range(0, n, step)] or [(0, 0)]


class PrismServer:
    """An honest Prism server.

    Args:
        index: server id (0 and 1 hold additive shares; 2 joins for Shamir).
        params: the knowledge view dealt by the initiator.
    """

    def __init__(self, index: int, params: ServerParams):
        self.index = index
        self.params = params
        self.store = ServerStore()
        self.endpoint = Endpoint(Role.SERVER, index)
        #: Default :class:`~repro.core.sharding.ShardPlan` for the batched
        #: kernels (set by ``attach_sharding``; ``None`` = thread sweeps).
        self.shard_plan = None
        self._pool: ThreadPoolExecutor | None = None
        self._pool_workers = 0
        self._pool_cond = threading.Condition()
        self._retired_pools: list[ThreadPoolExecutor] = []
        self._active_sweeps = 0

    # -- execution machinery --------------------------------------------------

    def _thread_pool(self, num_workers: int) -> ThreadPoolExecutor:
        """The persistent chunk pool, grown (never shrunk) on demand.

        One pool lives for the server's lifetime instead of being rebuilt
        inside every chunked kernel call — pool construction/teardown was
        pure per-call overhead on the serving path.  Growth *retires* the
        old pool rather than shutting it down: a concurrent kernel call
        may still be submitting to it, and retired pools (bounded by the
        handful of growth events) are reaped in :meth:`close`.

        Called under ``_pool_cond``.
        """
        if self._pool is None or self._pool_workers < num_workers:
            if self._pool is not None:
                self._retired_pools.append(self._pool)
            self._pool = ThreadPoolExecutor(
                max_workers=num_workers,
                thread_name_prefix=f"prism-server{self.index}")
            self._pool_workers = num_workers
        return self._pool

    def _run_chunked(self, kernel, n: int, num_threads: int) -> None:
        """Run ``kernel(lo, hi)`` over chunks, threaded when requested."""
        bounds = _chunk_bounds(n, num_threads)
        if num_threads <= 1 or len(bounds) == 1:
            for lo, hi in bounds:
                kernel(lo, hi)
            return
        with self._pool_cond:
            pool = self._thread_pool(min(num_threads, len(bounds)))
            self._active_sweeps += 1
        try:
            list(pool.map(lambda span: kernel(*span), bounds))
        finally:
            with self._pool_cond:
                self._active_sweeps -= 1
                self._pool_cond.notify_all()

    def close(self) -> None:
        """Quiesce and release the persistent thread pools (idempotent).

        Waits for in-flight chunked sweeps to finish rather than pulling
        their pool out from under them; the server stays usable
        afterwards (a later kernel call builds a fresh pool).
        """
        with self._pool_cond:
            while self._active_sweeps:
                self._pool_cond.wait()
            pools = list(self._retired_pools)
            if self._pool is not None:
                pools.append(self._pool)
            self._pool = None
            self._pool_workers = 0
            self._retired_pools = []
        for pool in pools:
            pool.shutdown(wait=True)

    def _active_shard_plan(self, shard_plan):
        """The effective plan for a batched call (``None`` = unsharded)."""
        plan = shard_plan if shard_plan is not None else self.shard_plan
        if plan is None or plan.num_shards <= 1:
            return None
        return plan

    def _process_plan(self, plan):
        """``plan`` if its worker pool may execute this server's sweeps.

        Forked workers fetch shares in their own address space, so an
        overridden fetch layer (instrumented servers tracing access
        patterns) keeps the sweep in-process, where the override's side
        effects stay visible.
        """
        if plan is None or plan.runtime is None or not plan.runtime.available:
            return None
        if any(getattr(type(self), name) is not getattr(PrismServer, name)
               or name in vars(self)  # instance-level monkeypatch
               for name in ("fetch_additive", "fetch_shamir")):
            return None
        if type(self.store) is not ServerStore:
            return None
        return plan

    def _sweep_chunks(self, num_threads: int, plan) -> int:
        """Thread-fallback chunk count: honour the shard plan via threads."""
        return max(num_threads, plan.num_shards if plan is not None else 1)

    def _owners_by_column(self, columns, owner_ids) -> list[list[int]]:
        """Resolved per-column owner lists, mirroring ``fetch_column``."""
        if owner_ids is not None:
            owners = list(owner_ids)
            return [owners for _ in columns]
        return [self.store.owners_with(column) for column in columns]

    # -- storage ------------------------------------------------------------

    def receive_shares(self, owner_id: int, column: str, values: np.ndarray,
                       kind: ShareKind) -> None:
        """Accept an outsourced share vector from an owner (Phase 1)."""
        self.store.put(owner_id, column, values, kind)

    def owners_with(self, column: str) -> list[int]:
        """Owner ids that have outsourced ``column``.

        Part of the deployment-facing surface (mirrored by
        :class:`~repro.entities.remote.RemoteServer`), so orchestration
        code never reaches into :attr:`store` directly — a remote
        server's store lives in another process.
        """
        return self.store.owners_with(column)

    def fetch_additive(self, column: str,
                       owner_ids: list[int] | None = None) -> list[np.ndarray]:
        """Data-fetch step: all owners' additive shares of a column."""
        return self.store.fetch_column(column, ShareKind.ADDITIVE, owner_ids)

    def fetch_shamir(self, column: str,
                     owner_ids: list[int] | None = None) -> list[np.ndarray]:
        """Data-fetch step: all owners' Shamir shares of a column."""
        return self.store.fetch_column(column, ShareKind.SHAMIR, owner_ids)

    # -- the tamper seam ------------------------------------------------------

    def tamper(self, kind: str, column: str, row: np.ndarray, lo: int) -> None:
        """Hook run once on every fused output row; honest servers pass.

        This is the one place a server subclass may misbehave (the §5.2
        adversaries of :mod:`repro.entities.adversary`, fault-injection
        tests).  It runs in the process that owns the server object, on
        every execution path — local thread and compiled sweeps, after a
        :class:`~repro.core.sharding.ShardRuntime` dispatch returns, and
        on an entity host for whole-sweep and span-scoped requests — so
        an adversary fires at every shard count, deployment, pool size
        and kernel tier.

        Args:
            kind: ``"psi"`` (an Eq. 3 row, with ``⊖ A(m)``), ``"verify"``
                (an Eq. 7 complement row), ``"psu"`` (an Eq. 18 row,
                before any ``PF_s1``) or ``"agg"`` (an Eq. 11 row).
                §6.5 count rows run as ``"psi"``/``"verify"`` rows before
                their ``PF_s1``/``PF_s2`` permutation.
            column: the stored column the row swept.
            row: writable view of the row's output; modify it in place.
            lo: offset of ``row[0]`` in the sweep's output — ``0`` for
                whole sweeps, the span start for a span-scoped request
                (whose sweep, for cell-restricted frames, is the frame's
                own slice of the cells array).
        """

    def _tampered(self, kinds, columns, out: np.ndarray,
                  lo: int = 0) -> np.ndarray:
        """Apply :meth:`tamper` to every row of a fused output."""
        for kind, column, row in zip(kinds, columns, out):
            self.tamper(kind, column, row, lo)
        return out

    # -- fused kernels --------------------------------------------------------

    def _subset_m_share(self, subset_size: int) -> int:
        """Additive share of a subset owner count, derived like A(m).

        Both servers derive their share from the common PRG seed so the
        shares still sum to ``subset_size`` without any coordination.
        """
        prg = SeededPRG(self.params.prg_seed, f"m-share-{subset_size}")
        first = prg.integer(0, self.params.delta)
        if self.index == 0:
            return first
        return (subset_size - first) % self.params.delta

    @staticmethod
    def _check_uniform(columns, share_lists) -> tuple[int, int]:
        """Validate a fused sweep's inputs; returns (num_owners, b).

        Every column must be held by the same owner set and have the same
        χ length — a fused sweep sums a fixed set of share vectors per
        row, so mixed shapes are a planner bug.  The kernels slice the
        stored 1-D vectors chunk by chunk rather than stacking them into
        per-owner matrices: no copies of the χ table are materialised.
        """
        counts = {len(s) for s in share_lists}
        if len(counts) != 1:
            raise ProtocolError(
                f"batched sweep needs a uniform owner set across columns "
                f"{list(columns)!r}; got share counts {sorted(counts)}"
            )
        lengths = {s[0].shape[0] for s in share_lists}
        if len(lengths) != 1:
            raise ProtocolError(
                f"batched sweep needs equal-length columns; got {sorted(lengths)}"
            )
        return counts.pop(), lengths.pop()

    def _batch_m_shares(self, subtract_m, num_owners, owner_ids) -> np.ndarray:
        """Per-row ``A(m)`` column vector for a fused Eq. 3/Eq. 7 sweep.

        When a query spans a subset of owners, m is that subset's size;
        its shares derive from the common PRG like ``A(m)``.
        """
        m_share = self.params.m_share
        if owner_ids is not None and num_owners != self.params.num_owners:
            m_share = self._subset_m_share(num_owners)
        rows = np.fromiter((m_share if flag else 0 for flag in subtract_m),
                           dtype=np.int64, count=len(subtract_m))
        return rows[:, None]

    def psi_round_batch(self, columns, num_threads: int = 1,
                        owner_ids: list[int] | None = None,
                        subtract_m=None, shard_plan=None) -> np.ndarray:
        """Fused multi-query Eq. 3 / Eq. 7 sweep.

        Row ``q`` of the returned ``(Q, b)`` matrix is the Eq. 3 output
        ``g^((Σ_j A(x_i)_j ⊖ A(m)) mod δ) mod η'`` over ``columns[q]`` when
        ``subtract_m[q]`` is true (the default), and the Eq. 7
        verification output (no ``⊖ A(m)`` term, same sweep shape, so a
        server cannot tell the two apart) otherwise.  All rows come from
        a *single* chunked pass over the χ length: every row's per-owner
        share vectors are summed into one 2-D accumulator, then reduced
        and exponentiated together.  The sweep stays branch-free over the
        full table, so access-pattern hiding is preserved — the
        instruction sequence depends only on the batch shape, never on
        the data.

        ``shard_plan`` (default: the server's own plan) runs the sweep
        shard-parallel on the deployment's worker pool; outputs stay
        bit-identical to the unsharded sweep for every shard count.
        """
        return self._psi_sweep(columns, None, num_threads, owner_ids,
                               subtract_m, shard_plan)

    def psi_cells_round_batch(self, columns, cells, num_threads: int = 1,
                              owner_ids: list[int] | None = None,
                              subtract_m=None, shard_plan=None) -> np.ndarray:
        """Fused Eq. 3 / Eq. 7 sweep restricted to a subset of χ cells.

        Row ``q`` of the returned ``(Q, len(cells))`` matrix equals
        ``psi_round_batch(columns)[q][cells]`` — the kernel is
        cell-local, so restricting the sweep to the named cells is
        bit-identical to slicing the full sweep.  This is the per-level
        sweep of bucketized PSI (§6.6): only the active bucket nodes are
        computed, which is the whole point of the bucket tree.

        ``cells`` is a 1-D array of χ cell indices, in output order.
        ``shard_plan`` decomposes the *cells array* into contiguous
        shards and runs them on the deployment's worker pool.
        """
        cells = np.asarray(cells, dtype=np.int64)
        if cells.ndim != 1:
            raise ProtocolError(
                f"cell index array must be 1-D, got shape {cells.shape}")
        return self._psi_sweep(columns, cells, num_threads, owner_ids,
                               subtract_m, shard_plan)

    def _psi_sweep(self, columns, cells, num_threads, owner_ids, subtract_m,
                   shard_plan) -> np.ndarray:
        """The Eq. 3 / Eq. 7 family over χ (``cells=None``) or a cell subset."""
        if not len(columns):
            raise ProtocolError("batched PSI sweep needs at least one column")
        if subtract_m is None:
            subtract_m = [True] * len(columns)
        if len(subtract_m) != len(columns):
            raise ProtocolError("subtract_m flags must match the column count")
        share_lists = [self.fetch_additive(c, owner_ids) for c in columns]
        num_owners, b = self._check_uniform(columns, share_lists)
        if cells is not None and cells.size and (
                int(cells.min()) < 0 or int(cells.max()) >= b):
            raise ProtocolError(f"cell indices out of range for χ length {b}")
        n = b if cells is None else cells.shape[0]
        if n == 0:
            return np.empty((len(columns), 0), dtype=np.int64)
        delta = self.params.delta
        table = self.params.group.power_table
        m_rows = self._batch_m_shares(subtract_m, num_owners, owner_ids)
        plan = self._active_shard_plan(shard_plan)
        out = None
        if self._process_plan(plan) is not None:
            owners = self._owners_by_column(columns, owner_ids)
            if cells is None:
                out = plan.runtime.sweep_psi(self, columns, owners, m_rows,
                                             n, plan.num_shards)
            else:
                out = plan.runtime.sweep_psi_cells(self, columns, owners,
                                                   m_rows, cells,
                                                   plan.num_shards)
        if out is None:
            out = np.empty((len(columns), n), dtype=np.int64)
            kernel = kernels.psi_sweep(share_lists, m_rows, delta, table, out,
                                       cells=cells)
            if kernel is None:
                acc = np.zeros_like(out)

                def kernel(lo: int, hi: int) -> None:
                    span = slice(lo, hi) if cells is None else cells[lo:hi]
                    local = acc[:, lo:hi]
                    for q, row_shares in enumerate(share_lists):
                        row = local[q]
                        for s in row_shares:
                            row += s[span]
                    local -= m_rows
                    np.mod(local, delta, out=local)
                    out[:, lo:hi] = table[local]

            self._run_chunked(kernel, n, self._sweep_chunks(num_threads, plan))
        kinds = ["psi" if flag else "verify" for flag in subtract_m]
        return self._tampered(kinds, columns, out)

    def count_round_batch(self, columns, num_threads: int = 1,
                          owner_ids: list[int] | None = None,
                          subtract_m=None, use_pf_s2=None,
                          shard_plan=None) -> np.ndarray:
        """Fused multi-query §6.5 sweep: PSI output permuted server-side.

        Owners can still count the ones (the cardinality) but can no
        longer map positions back to domain values, because ``PF_s1`` is
        unknown to them.  Data-stream rows (``subtract_m`` true, the
        default) leave permuted by ``PF_s1``; complement-proof rows
        (``subtract_m`` false with ``use_pf_s2`` true) by ``PF_s2``.  The
        data stream runs over χ pre-permuted with ``PF_db1`` and the
        proof over χ̄ pre-permuted with ``PF_db2``, so by Eq. (1) both
        arrive permuted by the same unknown ``PF_i`` and the owner can
        pair cells without learning positions.
        """
        if not len(columns):
            raise ProtocolError("batched count sweep needs at least one column")
        if use_pf_s2 is None:
            use_pf_s2 = [False] * len(columns)
        if len(use_pf_s2) != len(columns):
            raise ProtocolError("use_pf_s2 flags must match the column count")
        out = self.psi_round_batch(columns, num_threads, owner_ids, subtract_m,
                                   shard_plan=shard_plan)
        for row, flag in enumerate(use_pf_s2):
            pf = self.params.pf_s2 if flag else self.params.pf_s1
            out[row] = pf.apply(out[row])
        return out

    def psu_round_batch(self, columns, query_nonces, num_threads: int = 1,
                        owner_ids: list[int] | None = None,
                        permute=None, shard_plan=None) -> np.ndarray:
        """Fused multi-query Eq. 18 sweep.

        Both servers derive the same mask vector ``rand[i] ∈ [1, δ)``
        from the common PRG seed and each row's query nonce, multiply the
        summed shares by it and reduce modulo δ.  Owners adding the two
        outputs get ``(Σ_j x_ij) * rand[i] mod δ`` — zero iff no owner
        holds the value.  Each row keeps its own fresh mask stream, but
        the owner-share sums are computed once per *distinct* column and
        broadcast across the rows that reference it.  ``permute[q]``
        additionally applies ``PF_s1`` to row ``q`` (the PSU-Count path).

        Under a ``shard_plan``, each worker seeks the common counter-mode
        PRG to its own span of every row's Eq. 18 mask stream
        (:meth:`~repro.crypto.prg.SeededPRG.integers_at`), so mask
        generation — the dominant PSU cost — shards along with the
        sweep, bit-identically to slicing the full-length stream.
        """
        if not len(columns):
            raise ProtocolError("batched PSU sweep needs at least one column")
        if len(query_nonces) != len(columns):
            raise ProtocolError("query_nonces must match the column count")
        if permute is not None and len(permute) != len(columns):
            raise ProtocolError("permute flags must match the column count")
        uniq = list(dict.fromkeys(columns))
        row_map = np.fromiter((uniq.index(c) for c in columns),
                              dtype=np.int64, count=len(columns))
        share_lists = [self.fetch_additive(c, owner_ids) for c in uniq]
        _, n = self._check_uniform(uniq, share_lists)
        delta = self.params.delta
        plan = self._active_shard_plan(shard_plan)
        out = None
        if self._process_plan(plan) is not None:
            out = plan.runtime.sweep_psu(
                self, uniq, self._owners_by_column(uniq, owner_ids),
                row_map, list(query_nonces), n, plan.num_shards)
        if out is None:
            acc = np.zeros((len(uniq), n), dtype=np.int64)
            out = np.empty((len(columns), n), dtype=np.int64)
            keys = [SeededPRG(self.params.prg_seed, f"psu-{nonce}").key_bytes
                    for nonce in query_nonces]
            kernel = kernels.psu_sweep(share_lists, acc, row_map, keys, delta,
                                       out)
            if kernel is None:
                rand = np.stack([
                    SeededPRG(self.params.prg_seed,
                              f"psu-{nonce}").integers(n, 1, delta)
                    for nonce in query_nonces
                ])

                def kernel(lo: int, hi: int) -> None:
                    local = acc[:, lo:hi]
                    for u, col_shares in enumerate(share_lists):
                        row = local[u]
                        for s in col_shares:
                            row += s[lo:hi]
                    np.mod(local, delta, out=local)
                    out[:, lo:hi] = np.mod(local[row_map] * rand[:, lo:hi],
                                           delta)

            self._run_chunked(kernel, n, self._sweep_chunks(num_threads, plan))
        self._tampered(["psu"] * len(columns), columns, out)
        if permute is not None:
            for row, flag in enumerate(permute):
                if flag:
                    out[row] = self.params.pf_s1.apply(out[row])
        return out

    def aggregate_round_batch(self, columns, z_matrix: np.ndarray,
                              num_threads: int = 1,
                              owner_ids: list[int] | None = None,
                              shard_plan=None) -> np.ndarray:
        """Fused multi-query Eq. 11 sweep: ``Σ_j S(x_i2)_j × S(z_i)`` per cell.

        ``z_matrix`` stacks one indicator-share vector per query row —
        this server's Shamir share of the querier's 0/1 indicator;
        ``columns[q]`` names the Shamir aggregation column row ``q``
        multiplies into.  The product of two degree-1 shares is a
        degree-2 share; owners reconstruct with all three servers.  Under
        a ``shard_plan`` the querier-dealt ``z_matrix`` reaches the
        workers through the shared scratch and the sweep runs
        shard-parallel.
        """
        if not len(columns):
            raise ProtocolError("batched aggregation needs at least one column")
        # ALIGNED matters for wire-decoded z matrices: the codec hands
        # out zero-copy frame views, which the compiled sweeps (and fast
        # numpy paths) want re-packed once, here.
        z_matrix = np.require(z_matrix, dtype=np.int64,
                              requirements=["ALIGNED", "C_CONTIGUOUS"])
        if z_matrix.ndim != 2 or z_matrix.shape[0] != len(columns):
            raise ProtocolError(
                f"z matrix of shape {z_matrix.shape} does not stack one row "
                f"per column ({len(columns)} expected)"
            )
        share_lists = [self.fetch_shamir(c, owner_ids) for c in columns]
        _, n = self._check_uniform(columns, share_lists)
        if z_matrix.shape[1] != n:
            raise ProtocolError(
                f"z vector length {z_matrix.shape[1]} does not match column "
                f"length {n}"
            )
        plan = self._active_shard_plan(shard_plan)
        out = None
        if self._process_plan(plan) is not None:
            out = plan.runtime.sweep_agg(
                self, columns, self._owners_by_column(columns, owner_ids),
                z_matrix, n, plan.num_shards)
        if out is None:
            p = self.params.field_prime
            out = np.zeros((len(columns), n), dtype=np.int64)
            kernel = kernels.agg_sweep(share_lists, z_matrix, p, out)
            if kernel is None:
                def kernel(lo: int, hi: int) -> None:
                    local = out[:, lo:hi]
                    for q, row_shares in enumerate(share_lists):
                        z = z_matrix[q, lo:hi]
                        row = local[q]
                        for s in row_shares:
                            # p < 2**31 keeps each product below 2**62;
                            # reduce per term.
                            row += np.mod(s[lo:hi] * z, p)
                            np.mod(row, p, out=row)

            self._run_chunked(kernel, n, self._sweep_chunks(num_threads, plan))
        return self._tampered(["agg"] * len(columns), columns, out)

    # -- extrema machinery (§6.3) ---------------------------------------------

    def extrema_collect(self, owner_shares: dict[int, int]) -> list[int]:
        """Step 4: place owners' blinded shares in an array and permute.

        Args:
            owner_shares: owner id → this server's additive share (big int)
                of that owner's blinded value ``v = F(M) + r``.

        Returns the ``PF``-permuted share array destined for the announcer.
        """
        m = self.params.num_owners
        if sorted(owner_shares) != list(range(m)):
            raise ProtocolError(
                f"extrema round expected shares from all {m} owners, got "
                f"{sorted(owner_shares)}"
            )
        array = np.empty(m, dtype=object)
        for owner, share in owner_shares.items():
            array[owner] = share
        permuted = self.params.pf_owners.apply(array)
        return [int(v) for v in permuted]

    def fpos_round(self, alpha_shares: dict[int, int]) -> list[int]:
        """Step 6: assemble the fpos vector of α shares, ordered by owner."""
        m = self.params.num_owners
        if sorted(alpha_shares) != list(range(m)):
            raise ProtocolError(
                f"fpos round expected shares from all {m} owners, got "
                f"{sorted(alpha_shares)}"
            )
        return [int(alpha_shares[i]) for i in range(m)]

    def forward(self, payload):
        """Relay a payload unchanged (announcer→owner hops go via servers)."""
        return payload
