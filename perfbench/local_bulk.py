"""Workload ``local-bulk``: the paper's owner × domain scaling case.

In-process ``PrismClient`` over ``deployment="local"``: b = 10^5, 10
owners, verification columns, aggregation attribute DT.  One client in
a closed loop; each operation is one ``execute_many`` of the six-query
dashboard (PSI VERIFY, PSU, PSI-COUNT VERIFY, PSU-COUNT, PSI-SUM(DT),
PSI-AVG(DT) VERIFY).  The same queries repeat, so the indicator cache
and the fetch memo stay warm.  No bytes cross a wire.
"""

from __future__ import annotations

import gc
import time

import procs
import reference as ref
from common import KEY_SEED, make_fleet, probe
from repro import PrismClient, PrismSystem, kernels
from repro.data.tpch import lineitem_domain

SIZES = {"full": (100_000, 10), "tiny": (2_000, 3)}

#: Set-ups per run; each one's outsourcing is a refresh_p50_ms sample.
SETUP_REPS = 3


def _close(run, client, system) -> None:
    start = time.perf_counter()
    client.close()
    system.close()
    run.teardown_sample(time.perf_counter() - start)


def run(run) -> None:
    b, num_owners = SIZES["tiny" if run.tiny else "full"]
    domain = lineitem_domain(b)
    fleet = make_fleet(num_owners, domain, KEY_SEED, run.seed)
    reference = ref.Reference(fleet)
    batch = ref.dashboard()
    forms = [query.form for query in batch]
    # The traced run also times one interactive query alone before the
    # timed phase and one after it, for the core-layer metrics.
    first, last = ref.builder("psi_max"), ref.builder("psi_median")
    reference.prepare(batch + [first, last])

    client = system = None
    for _ in range(run.setup_reps(SETUP_REPS)):
        if system is not None:
            _close(run, client, system)
            client = system = None
            gc.collect()
        start = time.perf_counter()
        system = PrismSystem(fleet, domain, seed=run.seed)
        outsourced = time.perf_counter()
        system.outsource(ref.ATTRIBUTE, (ref.AGG,), with_verification=True)
        run.sample("refresh", time.perf_counter() - outsourced)
        client = PrismClient(system)
        warm = client.execute_many(forms)
        for query, result in zip(batch, warm):
            run.judge(reference, query, result, 0.0, None)
        run.sample("setup", time.perf_counter() - start)
    run.env["kernel_tier"] = kernels.active_backend()

    if run.trace:
        probe(run, client, reference, first)
    run.start_timed()
    while run.running():
        start = time.perf_counter()
        try:
            results = client.execute_many(forms)
        except Exception as exc:
            run.fail("batch", exc, len(batch))
            continue
        latency = time.perf_counter() - start
        correct = [run.judge(reference, query, result, latency, "query")
                   for query, result in zip(batch, results)]
        if all(correct):
            run.sample("batch", latency)
    run.stop_timed()

    run.peak_rss_mb = procs.peak_rss_mb()
    if run.trace:
        probe(run, client, reference, last)
        stats = client.stats
        run.layer.update({
            "interactive_queries": 2,
            "interactive_rounds": sum(1 for span in run.recorder.spans
                                      if span[0] == "core.round"),
            "fusion": stats["fusion"],
            "indicator_cache": [stats["cache"]],
            "fetch": [server.store.fetch_cache_info()
                      for server in system.servers],
        })
    _close(run, client, system)
