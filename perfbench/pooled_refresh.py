"""Workload ``pooled-refresh``: writes beside reads on pooled TCP.

In-process ``PrismSystem`` and ``PrismClient`` over pooled TCP: two
replica entity hosts per server role, each started by exec of the
entity-host entry point and found through its ``LISTENING <port>``
line.  b = 2·10^4, 5 owners, verification, DT.  The loop repeats one
cycle: one refresh — every owner's relation swaps to the other of two
seeded fleets and ``PrismSystem.outsource`` re-runs Phase 1 — then four
read batches of five queries (PSI VERIFY, PSU, PSI-COUNT, PSI-SUM(DT),
PSI-AVG(DT) VERIFY).  Reads run cold after every refresh, and a cache
that goes stale fails the plaintext check against the new fleet.
"""

from __future__ import annotations

import time

import procs
import reference as ref
from layers import CHANNEL_TOTALS, channel_counters
from common import (HOST_TEARDOWN_TIMEOUT, KEY_SEED, make_fleet, probe,
                    read_trace)
from repro import PrismClient, PrismSystem, kernels
from repro.data.tpch import lineitem_domain

SIZES = {"full": (20_000, 5), "tiny": (1_000, 5)}

#: Set-ups per run.
SETUP_REPS = 3

#: Replica hosts per server role.
POOL = 2

#: Read batches after each refresh.
READS_PER_REFRESH = 4

def _launch(run, traced: bool):
    """Start 3 × POOL entity hosts; returns (hosts, deployment spec)."""
    hosts = []
    for index in range(3 * POOL):
        trace_file = (run.out_dir / f"host{index}.json" if traced else None)
        hosts.append(run.children.launch("host", ["--port", "0"],
                                         f"entity host {index}", trace_file))
    for host in hosts:
        host.read_port("LISTENING", 60)
    roles = [hosts[role * POOL:(role + 1) * POOL] for role in range(3)]
    spec = "tcp://" + "/".join(
        ",".join(f"127.0.0.1:{host.port}" for host in role)
        for role in roles)
    return hosts, spec


def _close(run, client, system, hosts) -> None:
    start = time.perf_counter()
    try:
        client.close()
        system.close()
    finally:
        times = run.children.stop(hosts, HOST_TEARDOWN_TIMEOUT)
    elapsed = time.perf_counter() - start
    run.teardown_sample(elapsed if max(times) != float("inf")
                        else float("inf"), HOST_TEARDOWN_TIMEOUT)


def run(run) -> None:
    b, num_owners = SIZES["tiny" if run.tiny else "full"]
    domain = lineitem_domain(b)
    # Two fleets with different keys; the loop alternates between them.
    fleets = [make_fleet(num_owners, domain, KEY_SEED, 2 * run.seed),
              make_fleet(num_owners, domain, KEY_SEED + 1, 2 * run.seed + 1)]
    references = [ref.Reference(fleet) for fleet in fleets]
    batch = ref.read_batch()
    forms = [query.form for query in batch]
    # The traced run also times one interactive query alone before the
    # timed phase and one after it, for the core-layer metrics.
    first, last = ref.builder("psi_max"), ref.builder("psi_median")
    for reference in references:
        reference.prepare(batch + [first, last])

    client = system = hosts = None
    reps = run.setup_reps(SETUP_REPS)
    for rep in range(reps):
        if system is not None:
            _close(run, client, system, hosts)
        traced = run.trace and rep == reps - 1
        start = time.perf_counter()
        hosts, spec = _launch(run, traced)
        system = PrismSystem(fleets[0], domain, seed=run.seed,
                             deployment=spec)
        system.outsource(ref.ATTRIBUTE, (ref.AGG,), with_verification=True)
        client = PrismClient(system)
        for query, result in zip(batch, client.execute_many(forms)):
            run.judge(references[0], query, result, 0.0, None)
        run.sample("setup", time.perf_counter() - start)
    run.env["kernel_tier"] = kernels.active_backend()

    if run.trace:
        probe(run, client, references[0], first)
    current = 0
    wire = {"query_bytes": 0, "query_requests": 0, "queries": 0,
            "upload_bytes": 0, "refreshes": 0}
    run.start_timed()
    while run.running():
        current = 1 - current
        for owner, relation in zip(system.owners, fleets[current]):
            owner.relation = relation
        sent_before = channel_counters(system)["bytes_sent"]
        start = time.perf_counter()
        try:
            system.outsource(ref.ATTRIBUTE, (ref.AGG,),
                             with_verification=True)
        except Exception as exc:
            run.fail("refresh", exc)
        else:
            run.sample("refresh", time.perf_counter() - start)
            run.succeed()
            wire["upload_bytes"] += (channel_counters(system)["bytes_sent"]
                                     - sent_before)
            wire["refreshes"] += 1
        for _ in range(READS_PER_REFRESH):
            if not run.running():
                break
            before = channel_counters(system)
            start = time.perf_counter()
            try:
                results = client.execute_many(forms)
            except Exception as exc:
                run.fail("batch", exc, len(batch))
                continue
            latency = time.perf_counter() - start
            after = channel_counters(system)
            wire["query_bytes"] += sum(
                after[key] - before[key]
                for key in ("bytes_sent", "bytes_received"))
            wire["query_requests"] += after["requests"] - before["requests"]
            wire["queries"] += len(batch)
            correct = [run.judge(references[current], query, result,
                                 latency, "query")
                       for query, result in zip(batch, results)]
            if all(correct):
                run.sample("batch", latency)
    run.stop_timed()

    run.peak_rss_mb = procs.peak_rss_mb() + sum(
        host.peak_rss_mb() for host in hosts)
    if run.trace:
        probe(run, client, references[current], last)
        stats = client.stats
        totals = channel_counters(system)
        wire.update({key: totals[key] for key in CHANNEL_TOTALS})
        run.layer.update({
            "interactive_queries": 2,
            "interactive_rounds": sum(1 for span in run.recorder.spans
                                      if span[0] == "core.round"),
            "fusion": stats["fusion"],
            "indicator_cache": [stats["cache"]],
            "channels": wire,
        })
    _close(run, client, system, hosts)
    if run.trace:
        traces = [read_trace(run.out_dir / f"host{index}.json")
                  for index in range(3 * POOL)]
        run.layer["fetch"] = [counters for trace in traces if trace
                              for counters in trace["extra"]["fetch"]]
