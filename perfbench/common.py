"""State shared by the workloads: operation accounting, samples, phases."""

from __future__ import annotations

import collections
import signal
import statistics
import threading
import time

import numpy as np

import spans
from repro.data.relation import Relation
from repro.data.tpch import LINEITEM_COLUMNS, generate_fleet

#: Rows each owner generates, as a share of the domain size b.
ROWS_FRACTION = 0.25

#: Seconds a stopped deployment gets to exit before it is killed.  A
#: healthy entity host exits within a second of SIGTERM; a gateway may
#: wait out two 5 s thread joins (drain, then its accept thread).
HOST_TEARDOWN_TIMEOUT = 5.0
GATEWAY_TEARDOWN_TIMEOUT = 20.0

#: Seconds one query may take before the run counts it as failed.
QUERY_TIMEOUT = 30.0

#: Equal time windows the timed phase is cut into.  A latency
#: percentile is taken in each window (and in each labelled group of
#: samples outside the timed phase) and the median over windows is
#: reported: a stall of the shared machine that lasts a few seconds
#: then moves one or two windows, not the figure.
WINDOWS = 8


#: Seed of every fleet's key column (OK).  The keys decide how much work
#: a query asks for — MAX and MEDIAN take one round per common value, and
#: the intersection size of a fleet varies by a factor of 1.5 between
#: seeds at b = 4·10^3 — so they are the same for every run seed.  The
#: run seed draws the other columns, the share randomness and the order
#: of the queries.
KEY_SEED = 7


def rows_per_owner(b: int) -> int:
    return max(64, int(b * ROWS_FRACTION))


def make_fleet(num_owners: int, domain, key_seed: int,
               value_seed: int) -> list:
    """``generate_fleet`` keys from ``key_seed``, other columns from
    ``value_seed``."""
    rows = rows_per_owner(domain.size)
    keys = generate_fleet(num_owners, domain, rows, seed=key_seed)
    values = generate_fleet(num_owners, domain, rows, seed=value_seed)
    return [Relation(value.name, {
        name: key.column(name) if name == "OK" else value.column(name)
        for name in LINEITEM_COLUMNS}) for key, value in zip(keys, values)]


def percentile(samples, q: float) -> float:
    return float(np.percentile(samples, q)) if samples else 0.0


def median(samples) -> float:
    return float(statistics.median(samples)) if samples else 0.0


def windowed(samples, groups, q: float) -> float:
    """Median over groups of the ``q``-th percentile within each group."""
    buckets: dict = collections.defaultdict(list)
    for value, group in zip(samples, groups):
        buckets[group].append(value)
    return median([percentile(values, q) for values in buckets.values()])


def probe(run, client, reference, query) -> None:
    """Run one query alone on an in-process client; keep its latency."""
    start = time.perf_counter()
    try:
        result = client.execute(query.form)
    except Exception as exc:
        run.fail(query.kind, exc)
        return
    run.judge(reference, query, result, time.perf_counter() - start,
              "interactive")


def read_trace(path) -> dict | None:
    """A traced child's span file, or None when the child never wrote it."""
    try:
        return spans.load(str(path))
    except (OSError, ValueError):
        return None


class Run:
    """One benchmark run: settings, counters, samples and the timed phase.

    Every query or refresh the run issues is one *operation*: it is
    attempted, and it fails when it raises, is refused, times out or
    returns a result that differs from the plaintext reference.
    """

    def __init__(self, seed: int, seconds: float, trace: bool, tiny: bool,
                 recorder, children):
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.tiny = tiny
        self.recorder = recorder
        self.children = children
        #: Where span files of traced children go (set by run.py).
        self.out_dir = None
        self.traced_children: list = []
        #: Spans read back from traced children.
        self.child_spans: list = []
        self.lock = threading.Lock()
        self.attempted = 0
        self.failed = 0
        #: Teardowns that passed their deadline and processes left behind.
        self.lifecycle_failures = 0
        self.errors: collections.Counter = collections.Counter()
        self.samples: dict[str, list[float]] = collections.defaultdict(list)
        #: The window (timed phase) or label (otherwise) of each sample.
        self.groups: dict[str, list] = collections.defaultdict(list)
        #: Whether spans were being recorded when each sample was taken.
        self.traced: dict[str, list] = collections.defaultdict(list)
        #: Label of samples taken outside the timed phase.
        self.label = None
        self.recorded_queries = 0
        self.recorded_latency: list[float] = []
        self.peak_rss_mb = 0.0
        self.layer: dict = {}
        self.env: dict = {}
        self._t0 = self._t_end = self._t_mid = self._t_stop = 0.0
        self._mid_ok: int | None = None
        self._timed_ok = 0
        self._in_timed = False

    # -- recording --------------------------------------------------------

    @property
    def recording(self) -> bool:
        return self.recorder is not None and self.recorder.on

    def record(self, on: bool) -> None:
        """Turn span recording on or off here and in traced children."""
        if self.recorder is None:
            return
        self.recorder.on = on
        for child in self.traced_children:
            child.signal(signal.SIGUSR2 if on else signal.SIGUSR1)

    # -- operations -------------------------------------------------------

    def judge(self, reference, query, result, latency: float,
              sample: str | None) -> bool:
        """Check one completed query; keep its latency when correct."""
        ok = reference.matches(query, result)
        with self.lock:
            self.attempted += 1
            if self.recording:
                self.recorded_queries += 1
            if not ok:
                self.failed += 1
                self.errors[f"mismatch:{query.kind}"] += 1
                return False
            if self._in_timed:
                self._timed_ok += 1
            if sample is not None:
                self._keep(sample, latency)
                if sample == "query" and self._in_timed and self.recording:
                    self.recorded_latency.append(latency)
        return True

    def setup_reps(self, full: int) -> int:
        """How many times to set up: ``full``, or once in a tiny run."""
        return 1 if self.tiny else full

    def succeed(self) -> None:
        """Count one operation that completed and needs no result check."""
        with self.lock:
            self.attempted += 1

    def fail(self, what: str, exc: BaseException, count: int = 1) -> None:
        with self.lock:
            self.attempted += count
            self.failed += count
            self.errors[f"{what}:{type(exc).__name__}"] += count

    def sample(self, name: str, value: float) -> None:
        with self.lock:
            self._keep(name, value)

    def _keep(self, name: str, value: float) -> None:
        if self._in_timed:
            window = int((time.perf_counter() - self._t0) / self.seconds
                         * WINDOWS)
            group = min(window, WINDOWS - 1)
        else:
            group = self.label
        self.samples[name].append(value)
        self.groups[name].append(group)
        self.traced[name].append(self.recording)

    def teardown_sample(self, seconds: float,
                        timeout: float | None = None) -> None:
        """Record a teardown; one that passed its deadline was killed.

        A killed teardown counts in ``teardown_s`` (as the deadline) and
        in ``failed_frac``, not in ``failed``: the correctness gate
        covers what the program answers, and every query has answered.
        """
        if seconds == float("inf"):
            self.lifecycle_failure("teardown")
            seconds = timeout
        self.sample("teardown", seconds)

    def lifecycle_failure(self, what: str, count: int = 1) -> None:
        with self.lock:
            self.lifecycle_failures += count
            self.errors[f"lifecycle:{what}"] += count

    # -- the timed phase --------------------------------------------------

    def start_timed(self) -> None:
        """Start the clock.  A traced run records its second half only."""
        now = time.perf_counter()
        self._t0 = now
        self._t_end = now + self.seconds
        self._t_mid = now + self.seconds / 2
        self._in_timed = True
        if self.trace:
            self.record(False)

    def running(self) -> bool:
        """Whether the timed phase goes on (switches tracing on at half)."""
        now = time.perf_counter()
        if self.trace and self._mid_ok is None and now >= self._t_mid:
            with self.lock:
                switch = self._mid_ok is None
                if switch:
                    self._t_mid = now
                    self._mid_ok = self._timed_ok
            if switch:
                self.record(True)
        return now < self._t_end

    def wait_timed(self) -> None:
        """Sleep through the timed phase (for threaded load generators)."""
        while self.running():
            time.sleep(min(0.05, max(0.0, self._t_end - time.perf_counter())))

    def stop_timed(self) -> None:
        with self.lock:
            self._t_stop = time.perf_counter()
            self._in_timed = False
        if self.trace:
            self.record(True)

    def qps(self) -> float:
        wall = self._t_stop - self._t0
        return self._timed_ok / wall if wall > 0 else 0.0

    def split_qps(self) -> tuple[float, float]:
        """(untraced, traced) qps of the two halves of a traced run."""
        if self._mid_ok is None:
            return 0.0, 0.0
        first = self._t_mid - self._t0
        second = self._t_stop - self._t_mid
        return (self._mid_ok / first if first > 0 else 0.0,
                (self._timed_ok - self._mid_ok) / second
                if second > 0 else 0.0)

    # -- results ----------------------------------------------------------

    def end_to_end(self) -> dict[str, float]:
        s = self.samples
        return {
            "setup_s": median(s["setup"]),
            "qps": self.qps(),
            "query_p50_ms": self.latency_ms("query", 50),
            "batch_p50_ms": self.latency_ms("batch", 50),
            "refresh_p50_ms": median(s["refresh"]) * 1e3,
            "peak_rss_mb": self.peak_rss_mb,
        }

    def latency_ms(self, name: str, q: float, untraced: bool = False) -> float:
        """Windowed ``q``-th percentile of samples ``name``, in ms.

        With ``untraced``, only samples taken while no span was being
        recorded count (in a traced run: the first half of the timed
        phase and the set-ups before the traced one).
        """
        kept = [(value, group) for value, group, traced in zip(
            self.samples[name], self.groups[name], self.traced[name])
            if not (untraced and traced)]
        return windowed([value for value, _ in kept],
                        [group for _, group in kept], q) * 1e3

    def layer_inputs(self) -> dict:
        untraced, traced = self.split_qps()
        inputs = dict(self.layer)
        inputs.setdefault("queries", self.recorded_queries)
        inputs["query_latency_ms"] = (
            sum(self.recorded_latency) / len(self.recorded_latency) * 1e3
            if self.recorded_latency else 0.0)
        inputs["interactive_p50_ms"] = median(self.samples["interactive"]) * 1e3
        inputs["query_p99_ms"] = self.latency_ms("query", 99, untraced=True)
        inputs["batch_p90_ms"] = self.latency_ms("batch", 90, untraced=True)
        inputs["teardown_s"] = median(self.samples["teardown"])
        lifecycle = len(self.samples["teardown"])
        inputs["failed_frac"] = (
            (self.failed + self.lifecycle_failures)
            / (self.attempted + lifecycle)
            if self.attempted + lifecycle else 1.0)
        inputs["qps_untraced"] = untraced
        inputs["qps_traced"] = traced
        return inputs

    def sample_summary(self) -> dict[str, dict]:
        """Count, median and extremes of every sample list, for the report."""
        return {name: {"n": len(values), "median": median(values),
                       "min": min(values), "max": max(values)}
                for name, values in self.samples.items() if values}
