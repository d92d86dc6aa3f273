"""Summary aggregations over PSI/PSU: sum, average, and their verification
(§6.1–6.2) — the querier's indicator dealing and the plaintext oracle.

The protocol itself runs through the batch engine
(:mod:`repro.core.batch`) and the fused server kernels.  Two rounds:

1. The PSI (or PSU) round establishes which cells are in the result set.
   Servers send the Eq. 3 output to one randomly selected owner — the
   *querier* — who rebuilds the 0/1 indicator ``z`` (replacing the random
   non-members with 0) and deals degree-1 Shamir shares of ``z`` to the
   three servers.
2. Each server computes ``Σ_j S(x_i2)_j × S(z_i)`` per cell (Eq. 11) and
   broadcasts; owners reconstruct the degree-2 result by Lagrange
   interpolation at the three points.

Average additionally aggregates the per-owner tuple-count column ``aA``
(the paper's ``aOK``) and divides.

Verification (interpretation of the full version's Table 11 ``v`` columns):
owners also outsourced ``PF_db1``-permuted copies of each aggregation
column.  The querier sends a second indicator vector — ``z`` permuted by
``PF_db1`` — and the owner checks that the un-permuted verified totals
match the primary totals cell-by-cell.  A server dropping or replaying
Eq. 11 cells cannot fake the pair without knowing ``PF_db1``.
"""

from __future__ import annotations

import numpy as np


def indicator_shares(system, owner, column: str, owner_ids, member,
                     permuted: bool = False) -> list:
    """Dealt Shamir shares of a 0/1 indicator, via the initiator's cache.

    The querier's Phase-2 share generation (§6.1 Step 3) is memoised in
    :class:`~repro.entities.initiator.IndicatorShareCache` so repeated or
    overlapping queries — the batch engine's bread and butter — skip the
    dealing round entirely.  ``permuted`` selects the verification stream
    (the ``PF_db1``-permuted copy of the indicator).

    Systems without an initiator cache (bare orchestration objects in
    tests) fall back to dealing fresh shares every time.
    """
    vector = member.astype(np.int64)
    stream = "z"
    if permuted:
        vector = owner.params.pf_db1.apply(vector)
        stream = "vz"
    cache = getattr(getattr(system, "initiator", None), "indicator_cache", None)
    if cache is None:
        return owner.shamir_shares_of(vector)
    key = cache.key(stream, owner.owner_id, column, owner_ids, vector)
    shares = cache.get(key)
    if shares is None:
        shares = owner.shamir_shares_of(vector)
        cache.put(key, shares)
    return shares


def aggregate_reference(relations, attribute: str, agg_attribute: str,
                        values, op: str = "sum") -> dict:
    """Plaintext oracle for sum/avg over a given result-set of values."""
    out = {}
    for value in values:
        total = 0
        count = 0
        for rel in relations:
            for k, v in zip(rel.column(attribute), rel.column(agg_attribute)):
                if k == value:
                    total += v
                    count += 1
        out[value] = total if op == "sum" else (total / count if count else 0.0)
    return out
