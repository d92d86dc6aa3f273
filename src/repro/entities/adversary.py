"""Malicious server behaviours for fault injection (§5.2 threat list).

The paper's verification method must detect servers that (i) skip
processing shares, (ii) replace the result of cell *i* with the result of
cell *j*, (iii) inject fake values, or (iv) tamper with the verification
stream itself.  Each behaviour is a :class:`PrismServer` subclass that
misbehaves in exactly one way, so tests (and the failure-injection bench)
can assert that :meth:`DBOwner.verify_psi` catches each one.

Every adversary overrides only :meth:`PrismServer.tamper`, the seam each
fused output row passes through on every execution path.  Cell indices
are absolute positions in the sweep; a row handed over as a span
(``lo`` > 0 on an entity host) is tampered on the cells it covers.
"""

from __future__ import annotations

import numpy as np

from repro.entities.server import PrismServer


def _local(cells, lo: int, length: int):
    """The absolute ``cells`` that fall in ``[lo, lo + length)``, rebased."""
    return [c - lo for c in cells if lo <= c < lo + length]


class SkipCellsServer(PrismServer):
    """Attack (i): process only the first cell and replicate its result.

    The lazy-server attack the paper motivates the χ̄ permutation with: if
    the complement table were not permuted, replicating cell 0 everywhere
    would still produce a "legal" proof.
    """

    def tamper(self, kind, column, row, lo):
        if kind in ("psi", "verify"):
            row[:] = row[0]


class ReplaySwapServer(PrismServer):
    """Attack (ii): swap the results of two cells in the PSI output.

    Args:
        swap: pair of cell indices whose results are exchanged.
    """

    def __init__(self, index, params, swap=(0, 1)):
        super().__init__(index, params)
        self.swap = swap

    def tamper(self, kind, column, row, lo):
        cells = _local(self.swap, lo, row.shape[0])
        if kind == "psi" and len(cells) == 2:
            i, j = cells
            row[i], row[j] = row[j], row[i]


class InjectFakeServer(PrismServer):
    """Attack (iii): overwrite output cells with forged group elements.

    Writing ``1`` (= ``g^0``) into its own output is the strongest move a
    single server has toward forging membership; verification still fails
    because the complement stream no longer pairs up.

    Args:
        cells: which output cells to overwrite.
        forged_value: the injected value (default ``1``).
    """

    def __init__(self, index, params, cells=(0,), forged_value=1):
        super().__init__(index, params)
        self.cells = tuple(cells)
        self.forged_value = int(forged_value)

    def tamper(self, kind, column, row, lo):
        if kind == "psi":
            row[_local(self.cells, lo, row.shape[0])] = self.forged_value


class FalsifyVerificationServer(PrismServer):
    """Attack (iv): tamper with PSI output *and* the verification stream.

    The server tries to mask a forged PSI cell by also patching cells of
    the complement output — but it does not know ``PF_db1``, so it cannot
    find which complement position corresponds to the forged cell (success
    probability 1/b² per the paper); it patches a pseudorandom guess.

    Args:
        cell: the PSI output cell to forge.
        guess_seed: seed for the (wrong, with high probability) guess.
    """

    def __init__(self, index, params, cell=0, guess_seed=1234):
        super().__init__(index, params)
        self.cell = int(cell)
        self.guess_seed = guess_seed

    def tamper(self, kind, column, row, lo):
        if kind == "psi":
            row[_local([self.cell], lo, row.shape[0])] = 1
        elif kind == "verify":
            # PF permutes the χ table, so its size is the sweep length b.
            rng = np.random.default_rng(self.guess_seed)
            guess = int(rng.integers(0, self.params.pf.size))
            row[_local([guess], lo, row.shape[0])] = 1


class TamperPsuServer(PrismServer):
    """PSU attack: shift every Eq. 18 output cell by 1 mod δ.

    A single server cannot *erase* a union member (it would need the other
    server's share to zero the sum), but shifting fabricates membership
    for every absent cell — the realistic single-server PSU attack, which
    the complement-stream check of verified PSU catches.
    """

    def tamper(self, kind, column, row, lo):
        if kind == "psu":
            row[:] = np.mod(row + 1, self.params.delta)


class DropAggregateServer(PrismServer):
    """Aggregation attack: zero out cells of the Eq. 11 sum output.

    Used to show the replicated (permuted-copy) aggregation verification
    detecting dropped contributions.
    """

    def __init__(self, index, params, cells=(0,)):
        super().__init__(index, params)
        self.cells = tuple(cells)

    def tamper(self, kind, column, row, lo):
        if kind == "agg" and not column.startswith("v"):
            row[_local(self.cells, lo, row.shape[0])] = 0
