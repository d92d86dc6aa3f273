"""Benchmark queries and their plaintext reference results.

Every completed operation is checked against the program's own
plaintext oracles (``psi_reference``, ``psu_reference``,
``aggregate_reference``, ``extrema_reference``, ``median_reference``),
never against a second run of the protocol.  References are computed
once per fleet, before the timed phase.
"""

from __future__ import annotations

import math
import random

from repro import Q
from repro.core.aggregate import aggregate_reference
from repro.core.extrema import extrema_reference, median_reference
from repro.core.psi import psi_reference
from repro.core.psu import psu_reference
from repro.data.relation import Relation

ATTRIBUTE = "OK"
AGG = "DT"

#: The six batchable kinds (set, count and aggregate over PSI/PSU).
BATCHABLE = ("psi", "psu", "psi_count", "psu_count", "psi_sum", "psi_avg")


class BenchQuery:
    """One query as the program receives it, plus what it asks for."""

    def __init__(self, form, kind: str, owners: tuple | None = None,
                 verify: bool = False):
        self.form = form
        self.kind = kind
        self.owners = owners
        self.verify = verify

    @property
    def interactive(self) -> bool:
        return self.kind in ("psi_max", "psi_median")


def builder(kind: str, owners: tuple | None = None,
            verify: bool = False) -> BenchQuery:
    """The query in the fluent ``Q`` form."""
    query = Q.psu(ATTRIBUTE) if kind.startswith("psu") else Q.psi(ATTRIBUTE)
    if kind.endswith("_count"):
        query = query.count()
    elif kind == "psi_sum":
        query = query.sum(AGG)
    elif kind == "psi_avg":
        query = query.avg(AGG)
    elif kind == "psi_max":
        query = query.max(AGG)
    elif kind == "psi_median":
        query = query.median(AGG)
    if owners is not None:
        query = query.owners(owners)
    if verify:
        query = query.verify()
    return BenchQuery(query, kind, owners, verify)


def sql(kind: str, num_owners: int, verify: bool = False) -> BenchQuery:
    """The query as Table-4 SQL over every owner."""
    projection = {"psi": ATTRIBUTE, "psu": ATTRIBUTE,
                  "psi_count": f"COUNT({ATTRIBUTE})",
                  "psu_count": f"COUNT({ATTRIBUTE})",
                  "psi_sum": f"{ATTRIBUTE}, SUM({AGG})",
                  "psi_avg": f"{ATTRIBUTE}, AVG({AGG})"}[kind]
    operator = " UNION " if kind.startswith("psu") else " INTERSECT "
    text = operator.join(f"SELECT {projection} FROM lineitem{i}"
                         for i in range(num_owners))
    return BenchQuery(text + (" VERIFY" if verify else ""), kind, None,
                      verify)


def keyword(kind: str, owners: tuple | None = None,
            verify: bool = False) -> BenchQuery:
    """The query as a ``kind=`` keyword dict."""
    form = {"kind": "psi_average" if kind == "psi_avg" else kind,
            "attribute": ATTRIBUTE}
    if kind in ("psi_sum", "psi_avg"):
        form["agg_attributes"] = (AGG,)
    if verify:
        form["verify"] = True
    if owners is not None:
        form["owner_ids"] = owners
    return BenchQuery(form, kind, owners, verify)


def dashboard() -> list[BenchQuery]:
    """The six-query dashboard of ``local-bulk``."""
    return [builder("psi", verify=True), builder("psu"),
            builder("psi_count", verify=True), builder("psu_count"),
            builder("psi_sum"), builder("psi_avg", verify=True)]


def read_batch() -> list[BenchQuery]:
    """The five-query read batch of ``pooled-refresh``."""
    return [builder("psi", verify=True), builder("psu"),
            builder("psi_count"), builder("psi_sum"),
            builder("psi_avg", verify=True)]


def mixed_cycle(seed: int, num_owners: int) -> list[BenchQuery | None]:
    """The 25-query cycle of ``gateway-mixed``.

    24 batchable queries — each of the six kinds four times, eight each
    in SQL, builder and dict form; the first two of each kind verified
    where the kind has a verification stream; one of each kind (never
    an SQL one) restricted to 3 owners (PSI, PSI-COUNT, PSI-SUM) or 2
    (PSU, PSU-COUNT, PSI-AVG) — and one interactive slot, returned as
    ``None``, which the caller fills with MAX or MEDIAN in turn.  The mix
    is the same for every seed, so every seed asks for the same work;
    the seed orders the cycle and picks the owners of each subset.
    """
    rng = random.Random(seed)
    forms = ("sql", "builder", "dict")
    cycle: list[BenchQuery | None] = []
    for k, kind in enumerate(BATCHABLE):
        kind_forms = [forms[(k + j) % 3] for j in range(4)]
        restricted = max(j for j in range(4) if kind_forms[j] != "sql")
        for j, form in enumerate(kind_forms):
            verify = j < 2 and kind != "psu_count"
            owners = None
            if j == restricted:
                size = 3 if k % 2 == 0 else 2
                owners = tuple(sorted(rng.sample(range(num_owners), size)))
            if form == "sql":
                cycle.append(sql(kind, num_owners, verify))
            elif form == "builder":
                cycle.append(builder(kind, owners, verify))
            else:
                cycle.append(keyword(kind, owners, verify))
    rng.shuffle(cycle)
    cycle.insert(rng.randrange(len(cycle) + 1), None)
    return cycle


def _rows_with(relations, values: set) -> list[Relation]:
    """Each relation cut down to the rows whose key is in ``values``.

    The aggregate oracles scan every row once per value; rows of other
    keys add nothing to any of their results, so dropping them first
    leaves the references unchanged and makes them cheap at b = 10^5.
    """
    out = []
    for relation in relations:
        keep = [i for i, key in enumerate(relation.column(ATTRIBUTE))
                if key in values]
        out.append(Relation(relation.name, {
            name: [relation.column(name)[i] for i in keep]
            for name in (ATTRIBUTE, AGG)}))
    return out


class Reference:
    """Plaintext results for one fleet, computed once per (kind, owners)."""

    def __init__(self, relations):
        self.relations = list(relations)
        self._expected: dict = {}

    def expected(self, kind: str, owners: tuple | None):
        key = (kind, owners)
        if key not in self._expected:
            self._expected[key] = self._compute(kind, owners)
        return self._expected[key]

    def _compute(self, kind: str, owners: tuple | None):
        relations = (self.relations if owners is None
                     else [self.relations[i] for i in owners])
        if kind == "psu":
            return psu_reference(relations, ATTRIBUTE)
        if kind == "psu_count":
            return len(psu_reference(relations, ATTRIBUTE))
        common = psi_reference(relations, ATTRIBUTE)
        if kind == "psi":
            return common
        if kind == "psi_count":
            return len(common)
        rows = _rows_with(relations, common)
        if kind == "psi_sum":
            return aggregate_reference(rows, ATTRIBUTE, AGG, common, "sum")
        if kind == "psi_avg":
            return aggregate_reference(rows, ATTRIBUTE, AGG, common, "avg")
        if kind == "psi_max":
            return extrema_reference(rows, ATTRIBUTE, AGG, common, "max")
        if kind == "psi_median":
            return median_reference(rows, ATTRIBUTE, AGG, common)
        raise ValueError(f"no reference for {kind!r}")

    def prepare(self, queries) -> None:
        """Compute the references of ``queries`` now (before timing)."""
        for query in queries:
            if query is not None:
                self.expected(query.kind, query.owners)

    def matches(self, query: BenchQuery, result) -> bool:
        """Whether ``result`` equals the plaintext reference of ``query``.

        A verified query must also report ``verified`` where its result
        type carries the flag.  Averages are compared to 1e-9 relative
        error, because the protocol and the oracle divide in different
        orders; everything else must be equal.
        """
        expected = self.expected(query.kind, query.owners)
        kind = query.kind
        if kind in ("psi", "psu"):
            ok = set(result.values) == expected
        elif kind.endswith("_count"):
            ok = result.count == expected
        elif kind == "psi_avg":
            got = result.per_value
            ok = set(got) == set(expected) and all(
                math.isclose(got[k], expected[k], rel_tol=1e-9)
                for k in expected)
        else:
            ok = dict(result.per_value) == expected
        if query.verify and hasattr(result, "verified"):
            ok = ok and result.verified is True
        return ok
