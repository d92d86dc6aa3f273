"""Batched multi-query execution: per-query latency amortisation.

Not a paper artefact — this benchmark supports the serving-engine
extension (:meth:`PrismSystem.run_batch`): N concurrent queries fused
into one server sweep per kernel family instead of N independent sweeps.

Expected shape: batches dominated by indicator sweeps (PSI / counts) and
by overlapping aggregations amortise ~3-4x per query, because fused rows
deduplicate and dealt indicator shares come out of the cache; PSU-heavy
batches amortise least, because each PSU query must derive a fresh
per-nonce mask stream (Eq. 18 freshness) regardless of batching.

The domain floor here is 10^4 cells (override upward with
``REPRO_BENCH_DOMAIN``), the scale at which the amortisation claim is
checked.
"""

from __future__ import annotations

import os
import time

import pytest

from repro.bench.harness import build_system
from repro.core.batch import BatchQuery, QueryBatch


def batch_domain() -> int:
    return max(10_000, int(os.environ.get("REPRO_BENCH_DOMAIN", "0") or 0))


@pytest.fixture(scope="module")
def system():
    """10 owners over >= 10^4 cells with two aggregation columns."""
    return build_system(num_owners=10, domain_size=batch_domain(), seed=7,
                       agg_attributes=("DT", "PK"))


MIXED_QUERIES = [
    BatchQuery("psi", "OK"),
    BatchQuery("psi_count", "OK"),
    BatchQuery("psi", "OK"),
    BatchQuery("psi_count", "OK"),
    BatchQuery("psu", "OK"),
    BatchQuery("psu_count", "OK"),
    BatchQuery("psi_sum", "OK", agg_attributes=("DT",)),
    BatchQuery("psi_average", "OK", agg_attributes=("PK",)),
    BatchQuery("psi_sum", "OK", agg_attributes=("PK",)),
    BatchQuery("psi", "OK"),
]

SET_QUERIES = [
    BatchQuery("psi", "OK"),
    BatchQuery("psi_count", "OK"),
] * 5

AGG_QUERIES = [
    BatchQuery("psi_sum", "OK", agg_attributes=("DT",)),
    BatchQuery("psi_sum", "OK", agg_attributes=("PK",)),
    BatchQuery("psi_average", "OK", agg_attributes=("DT",)),
    BatchQuery("psi_average", "OK", agg_attributes=("PK",)),
] * 2


def one_at_a_time(system, queries):
    """The unbatched baseline: every query alone, as a batch of one."""
    return [system.run_batch([q])[0] for q in queries]


def test_one_at_a_time_mixed(benchmark, system):
    benchmark.group = "batch-mixed"
    benchmark(one_at_a_time, system, MIXED_QUERIES)


def test_fused_batch_mixed(benchmark, system):
    benchmark.group = "batch-mixed"
    benchmark(system.run_batch, MIXED_QUERIES)


def test_one_at_a_time_set_queries(benchmark, system):
    benchmark.group = "batch-set"
    benchmark(one_at_a_time, system, SET_QUERIES)


def test_fused_batch_set_queries(benchmark, system):
    benchmark.group = "batch-set"
    benchmark(system.run_batch, SET_QUERIES)


def test_one_at_a_time_aggregations(benchmark, system):
    benchmark.group = "batch-agg"
    benchmark(one_at_a_time, system, AGG_QUERIES)


def test_fused_batch_aggregations(benchmark, system):
    benchmark.group = "batch-agg"
    benchmark(system.run_batch, AGG_QUERIES)


def test_batch_amortization_report(system, capsys):
    """Results identical; fused batches amortise per-query latency.

    Prints a small per-mix table (visible with ``pytest -s``) and asserts
    the headline claim: at b >= 10^4 the fused path is not slower than
    running each query alone on any mix, and strictly faster on the
    sweep-dominated mixes.
    """

    def best_of(fn, repeats=3):
        times = []
        for _ in range(repeats):
            system.transport.reset()
            start = time.perf_counter()
            fn()
            times.append(time.perf_counter() - start)
        return min(times)

    speedups = {}
    with capsys.disabled():
        print(f"\nbatch amortisation at b={batch_domain()} "
              f"(best of 3, {len(MIXED_QUERIES)} queries/mix)")
        for name, queries in (("mixed", MIXED_QUERIES),
                              ("set-heavy", SET_QUERIES),
                              ("agg-heavy", AGG_QUERIES)):
            seq = best_of(lambda: one_at_a_time(system, queries))
            fused = best_of(lambda: system.run_batch(queries))
            speedups[name] = seq / fused
            print(f"  {name:10s} one-by-one {seq / len(queries) * 1e3:7.2f} "
                  f"ms/query   fused {fused / len(queries) * 1e3:7.2f} "
                  f"ms/query   speedup {seq / fused:5.2f}x")

    batch = QueryBatch(system, MIXED_QUERIES)
    batch.execute()
    assert batch.stats["plan"]["rows_deduplicated"] > 0
    # Sweep-dominated mixes must show clear per-query amortisation; the
    # mixed bound stays loose because PSU mask streams are per-query.
    assert speedups["set-heavy"] > 1.5
    assert speedups["agg-heavy"] > 1.5
    assert speedups["mixed"] > 0.9
