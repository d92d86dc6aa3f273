"""Workload ``gateway-mixed``: the serving path.

The gateway runs as its own process with ``--deployment forked-tcp``,
so it forks three entity hosts.  The load generator registers one
dataset over the wire (b = 4·10^3, 5 owners, verification, DT) and then
holds 16 queries outstanding over 2 ``GatewayClient`` connections — one
load thread per connection — in a closed loop on ``submit`` futures.
Queries come from a seeded cycle of 25 (``reference.mixed_cycle``): 24
batchable queries in SQL, builder and dict forms, some verified, some
restricted to owner subsets, and one interactive query that alternates
between MAX and MEDIAN, whose rounds hold up the shared scheduler.
"""

from __future__ import annotations

import itertools
import threading
import time
from concurrent.futures import FIRST_COMPLETED, wait

import procs
import reference as ref
from layers import CHANNEL_TOTALS
from common import (GATEWAY_TEARDOWN_TIMEOUT, KEY_SEED, QUERY_TIMEOUT,
                    make_fleet, read_trace)
from repro import GatewayClient, kernels
from repro.data.tpch import lineitem_domain

SIZES = {"full": (4_000, 5), "tiny": (1_000, 5)}

#: Set-ups per run; each one's registration is a refresh_p50_ms sample.
SETUP_REPS = 5
TOKEN = "bench-token"
TENANT = "bench"
DATASET = "lineitem"
CONNECTIONS = 2
OUTSTANDING = 16

#: Closed-loop ``execute_many`` calls of the dashboard in one group.
#: Every set-up gateway runs one group after its warm-up and the
#: measured one a second group after the timed phase: 120 batches in
#: six groups taken at different times (see ``common.WINDOWS``).
BATCH_GROUP = 20


class GatewayProcess:
    """One gateway process with its two client sessions."""

    def __init__(self, child, clients):
        self.child = child
        self.clients = clients


def _launch(run, fleet, domain, reference, warm,
            traced: bool) -> GatewayProcess:
    """Start a gateway, register the dataset and warm it up (one setup)."""
    trace_file = run.out_dir / "gateway.json" if traced else None
    start = time.perf_counter()
    child = run.children.launch(
        "gateway", ["--port", "0", "--deployment", "forked-tcp",
                    "--tenant", f"{TOKEN}={TENANT}"],
        "gateway", trace_file)
    if traced:
        run.traced_children.append(child)
    port = child.read_port("GATEWAY LISTENING", 60)
    clients = [GatewayClient("127.0.0.1", port, TOKEN, dataset=DATASET,
                             request_timeout=QUERY_TIMEOUT)
               for _ in range(CONNECTIONS)]
    registered = time.perf_counter()
    clients[0].register(DATASET, fleet, domain, ref.ATTRIBUTE,
                        agg_attributes=(ref.AGG,), with_verification=True,
                        seed=run.seed)
    # No gateway query re-outsources, so a refresh here is what a
    # gateway user does to load data: one dataset registration.
    run.sample("refresh", time.perf_counter() - registered)
    results = clients[0].execute_many([query.form for query in warm])
    for query, result in zip(warm, results):
        run.judge(reference, query, result, 0.0, None)
    run.sample("setup", time.perf_counter() - start)
    return GatewayProcess(child, clients)


def _stop(run, gateways) -> None:
    """Close the sessions, SIGTERM every gateway, wait for each group."""
    start = time.perf_counter()
    for gateway in gateways:
        for client in gateway.clients:
            client.close()
    closed = time.perf_counter() - start
    for seconds in run.children.stop([g.child for g in gateways],
                                     GATEWAY_TEARDOWN_TIMEOUT):
        run.teardown_sample(closed + seconds, GATEWAY_TEARDOWN_TIMEOUT)


def _batches(run, client, reference, batch, label: str) -> None:
    """One group of closed-loop ``execute_many`` calls of ``batch``."""
    forms = [query.form for query in batch]
    run.label = label
    for _ in range(BATCH_GROUP):
        start = time.perf_counter()
        try:
            results = client.execute_many(forms)
        except Exception as exc:
            run.fail("batch", exc, len(batch))
            continue
        latency = time.perf_counter() - start
        correct = [run.judge(reference, query, result, latency, None)
                   for query, result in zip(batch, results)]
        if all(correct):
            run.sample("batch", latency)


def _reply_future(future):
    """The ``concurrent.futures.Future`` behind a ``GatewayFuture``.

    The public handle only blocks on one result; holding 16 queries
    outstanding on one thread needs a wait on whichever finishes first.
    """
    return future._pending._future


class Load:
    """The shared query cycle and the two load threads' bookkeeping."""

    def __init__(self, run, reference, cycle):
        self.run = run
        self.reference = reference
        self.cycle = cycle
        self._positions = itertools.count()
        self._lock = threading.Lock()

    def next_query(self) -> ref.BenchQuery:
        with self._lock:
            position = next(self._positions)
        query = self.cycle[position % len(self.cycle)]
        if query is None:
            turn = (position // len(self.cycle)) % 2
            query = ref.builder("psi_max" if turn == 0 else "psi_median")
        return query

    def thread(self, client, outstanding: int) -> None:
        run = self.run
        pending: dict = {}
        submitting = True
        while True:
            submitting = submitting and run.running()
            while submitting and len(pending) < outstanding:
                query = self.next_query()
                start = time.perf_counter()
                try:
                    future = client.submit(query.form)
                except Exception as exc:
                    run.fail("submit", exc)
                    submitting = False
                    break
                pending[_reply_future(future)] = (start, query, future)
            if not pending:
                return
            done, _ = wait(list(pending), timeout=QUERY_TIMEOUT,
                           return_when=FIRST_COMPLETED)
            if not done:
                run.fail("timeout", TimeoutError(), len(pending))
                return
            finished = time.perf_counter()
            for raw in done:
                start, query, future = pending.pop(raw)
                try:
                    result = future.result()
                except Exception as exc:
                    run.fail(query.kind, exc)
                    continue
                sample = "interactive" if query.interactive else "query"
                run.judge(self.reference, query, result, finished - start,
                          sample)


def run(run) -> None:
    b, num_owners = SIZES["tiny" if run.tiny else "full"]
    domain = lineitem_domain(b)
    fleet = make_fleet(num_owners, domain, KEY_SEED, run.seed)
    reference = ref.Reference(fleet)
    cycle = ref.mixed_cycle(run.seed, num_owners)
    warm = [query for query in cycle if query is not None]
    batch = ref.dashboard()
    reference.prepare(cycle + batch + [ref.builder("psi_max"),
                                       ref.builder("psi_median")])

    # Setup repetitions: each gateway is set up from scratch.  Each extra
    # one stops while the next starts, since its teardown is mostly
    # waiting (see README.md on Gateway.shutdown).
    stoppers = []
    run.record(False)  # only the measured gateway is traced
    for rep in range(run.setup_reps(SETUP_REPS) - 1):
        extra = _launch(run, fleet, domain, reference, warm, False)
        _batches(run, extra.clients[0], reference, batch, f"setup{rep}")
        stoppers.append(threading.Thread(target=_stop, args=(run, [extra])))
        stoppers[-1].start()
    run.record(True)
    gateway = _launch(run, fleet, domain, reference, warm, run.trace)
    for stopper in stoppers:
        stopper.join()
    run.env["kernel_tier"] = kernels.active_backend()
    clients = gateway.clients
    load = Load(run, reference, cycle)
    threads = [threading.Thread(target=load.thread,
                                args=(client, OUTSTANDING // CONNECTIONS),
                                name=f"load-{index}")
               for index, client in enumerate(clients)]
    _batches(run, clients[0], reference, batch, "before")
    run.start_timed()
    for thread in threads:
        thread.start()
    run.wait_timed()
    for thread in threads:
        thread.join()
    run.stop_timed()

    _batches(run, clients[0], reference, batch, "after")

    stats = clients[0].gateway_stats()
    run.peak_rss_mb = procs.peak_rss_mb() + gateway.child.peak_rss_mb()
    if run.trace:
        dataset = stats["datasets"][f"{TENANT}/{DATASET}"]
        admission = stats["admission"]
        scheduler = dataset["scheduler"]
        run.layer.update({
            "gateway_queries": run.recorded_queries,
            "gateway_queries_total": sum(
                client.stats["queries"] for client in clients),
            "reply_bytes": sum(client.stats["transport"]["bytes_received"]
                               for client in clients),
            "interactive_queries": scheduler["interactive_jobs"],
            "interactive_rounds": scheduler["interactive_rounds"],
            "fusion": dataset["fusion"],
            "rejected": (sum(count for key, count in run.errors.items()
                             if key.endswith(":AdmissionError"))
                         + admission["rejected_rate_limit"]
                         + admission["rejected_queue_full"]),
        })
    _stop(run, [gateway])
    if run.trace:
        trace = read_trace(run.out_dir / "gateway.json")
        if trace is not None:
            run.child_spans = trace["spans"]
            extra = trace["extra"]
            registered = extra.get("registered", [{}])[0]
            closed = extra.get("closed", [{}])[0]
            counters = closed.get("channels", {})
            served = closed.get("client", {}).get("queries", 0)
            run.layer["indicator_cache"] = [closed.get("indicator_cache",
                                                       {})]
            run.layer["channels"] = {
                "query_bytes": (
                    counters.get("bytes_sent", 0)
                    + counters.get("bytes_received", 0)
                    - registered.get("bytes_sent", 0)
                    - registered.get("bytes_received", 0)),
                "query_requests": (counters.get("requests", 0)
                                   - registered.get("requests", 0)),
                "queries": served,
                "upload_bytes": registered.get("bytes_sent", 0),
                "refreshes": 1 if registered else 0,
                **{key: counters.get(key, 0) for key in CHANNEL_TOTALS},
            }
