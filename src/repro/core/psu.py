"""PSU (§7) and its verification: the plaintext oracle.

The protocol itself runs through the batch engine
(:mod:`repro.core.batch`) and the fused server kernels.  One
communication round: each server sums all owners' χ shares per cell,
multiplies by a pseudorandom mask derived from the common PRG seed and a
query nonce (Eq. 18), and broadcasts.  Owners add the two vectors modulo
``delta`` (Eq. 19): zero means no owner holds the value; any nonzero
(masked) value means at least one does — without revealing *how many*,
which is the PSU privacy requirement of §2.

**Verification** (reconstructed from the full version's per-operation
verification promise): in the same round the servers also run the Eq. 3
kernel — *with* the ``⊖ A(m)`` term — over the ``PF_db1``-permuted
complement table ``vA``.  That stream's cell equals 1 **iff every owner
holds the complement**, i.e. iff *no* owner holds the value.  The owner
un-permutes it and checks, cell by cell, that union membership is the
exact negation.  A server tampering with the PSU stream cannot patch the
complement stream consistently because the complement's cell positions
are hidden by ``PF_db1`` (the same 1/b² argument as §5.2).
"""

from __future__ import annotations

from repro.exceptions import ProtocolError


def psu_reference(relations, attribute: str | tuple) -> set:
    """Plaintext oracle: the true union, for tests and benches."""
    out: set = set()
    if not relations:
        raise ProtocolError("no relations supplied")
    for rel in relations:
        if isinstance(attribute, str):
            out |= set(rel.distinct(attribute))
        else:
            columns = [rel.column(a) for a in attribute]
            out |= set(zip(*columns))
    return out
