"""PSI (§5.1) and its verification (§5.2): column naming and oracles.

The protocol itself runs through the batch engine
(:mod:`repro.core.batch`) and the fused server kernels.  One
communication round: the two additive-share servers sweep all owners'
χ shares through the Eq. 3 kernel and broadcast their length-``b`` output
vectors to the owners; each owner multiplies pointwise modulo ``eta``
(Eq. 4) and reads off the cells equal to 1.

With ``verify=True`` the servers additionally sweep the complement table
(Eq. 7) in the same round; owners un-permute with ``PF_db1`` and check
``r1 * r2 == 1 (mod eta)`` per cell (Eq. 8–10), which detects skipped
cells, replayed cells and injected values (§5.2).
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import ProtocolError


def psi_column_name(attribute: str | tuple, prefix: str = "") -> str:
    """Canonical stored-column name for a PSI attribute (or tuple)."""
    if isinstance(attribute, str):
        return prefix + attribute
    return prefix + "*".join(attribute)


def psi_reference(relations, attribute: str | tuple) -> set:
    """Plaintext oracle: the true intersection, for tests and benches."""
    sets = []
    for rel in relations:
        if isinstance(attribute, str):
            sets.append(set(rel.distinct(attribute)))
        else:
            columns = [rel.column(a) for a in attribute]
            sets.append(set(zip(*columns)))
    if not sets:
        raise ProtocolError("no relations supplied")
    out = sets[0]
    for s in sets[1:]:
        out &= s
    return out


def membership_vector(values, domain) -> np.ndarray:
    """Boolean membership vector of a value collection over a domain."""
    member = np.zeros(domain.size, dtype=bool)
    for v in values:
        member[domain.cell_of(v)] = True
    return member
