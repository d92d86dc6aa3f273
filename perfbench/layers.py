"""Per-layer metrics of a traced run, from spans and counters.

Span metrics read only the outermost span of each group on a thread
(``spans.TARGETS``), so a sweep nested in another sweep is not counted
twice.  Counters come from the program's own stats (client, channels,
caches) and from the load generator.  A layer that does no work on a
workload reports 0, and so does a counter the benchmark cannot observe
on it (see README.md).
"""

from __future__ import annotations

#: (name, unit) of every per-layer metric, in report order.
PER_LAYER = (
    ("api.plan_ms", "ms"),
    ("api.queries_per_tick", "count"),
    ("api.rows_dedup_frac", "fraction"),
    ("serving.wire_ms", "ms"),
    ("serving.reply_bytes", "bytes"),
    ("serving.queue_wait_ms", "ms"),
    ("serving.rejected", "count"),
    ("core.batch_ms", "ms"),
    ("core.interactive_rounds", "count"),
    ("interactive_p50_ms", "ms"),
    ("query_p99_ms", "ms"),
    ("batch_p90_ms", "ms"),
    ("core.round_ms", "ms"),
    ("server.sweep_ms.psi", "ms"),
    ("server.sweep_ms.count", "ms"),
    ("server.sweep_ms.psu", "ms"),
    ("server.sweep_ms.agg", "ms"),
    ("server.sweep_cpu_ms.psi", "ms"),
    ("server.sweep_cpu_ms.count", "ms"),
    ("server.sweep_cpu_ms.psu", "ms"),
    ("server.sweep_cpu_ms.agg", "ms"),
    ("server.cells_per_s.psi", "1/s"),
    ("server.cells_per_s.psu", "1/s"),
    ("server.cells_per_s.agg", "1/s"),
    ("kernels.native_frac", "fraction"),
    ("owner.decode_ms", "ms"),
    ("owner.decoded_cells", "count"),
    ("owner.finalize_ms", "ms"),
    ("owner.outsource_ms", "ms"),
    ("crypto.share_ms", "ms"),
    ("initiator.indicator_ms", "ms"),
    ("initiator.cache_hit_frac", "fraction"),
    ("storage.fetch_hit_frac", "fraction"),
    ("network.remote_sweep_ms", "ms"),
    ("network.codec_ms", "ms"),
    ("network.codec_cpu_ms", "ms"),
    ("network.bytes_per_query", "bytes"),
    ("network.rpcs_per_query", "count"),
    ("network.upload_bytes_per_refresh", "bytes"),
    ("network.scattered_frames", "count"),
    ("network.journal_frames", "count"),
    ("network.retransmits", "count"),
    ("network.ejections", "count"),
    ("teardown_s", "s"),
    ("failed_frac", "fraction"),
    ("trace.qps", "queries/s"),
    ("trace.overhead_frac", "fraction"),
)


#: Channel counters summed over a deployment's server-role channels.
CHANNEL_TOTALS = ("scattered_frames", "journal_frames", "retransmits",
                  "ejections")


def channel_counters(system) -> dict:
    """Wire totals of a deployment's channels (all 0 in-process)."""
    stats = system.channel_stats()
    counters = {key: stats[key]
                for key in ("requests", "bytes_sent", "bytes_received")}
    for key in CHANNEL_TOTALS:
        counters[key] = sum(channel.get(key, 0)
                            for channel in stats["channels"])
    return counters


class SpanTotals:
    """Sums over the outermost spans of each span name."""

    def __init__(self, spans):
        self._totals: dict[str, list[float]] = {}
        for name, _group, _start, wall, cpu, count, outermost in spans:
            if not outermost:
                continue
            total = self._totals.setdefault(name, [0, 0.0, 0.0, 0])
            total[0] += 1
            total[1] += wall
            total[2] += cpu
            total[3] += count

    def names(self):
        return self._totals.keys()

    def _get(self, name: str):
        return self._totals.get(name, (0, 0.0, 0.0, 0))

    def calls(self, name: str) -> int:
        return self._get(name)[0]

    def wall(self, name: str) -> float:
        return self._get(name)[1]

    def cpu(self, name: str) -> float:
        return self._get(name)[2]

    def count(self, name: str) -> int:
        return self._get(name)[3]

    def mean_ms(self, name: str) -> float:
        return _ratio(self.wall(name) * 1e3, self.calls(name))

    def mean_cpu_ms(self, name: str) -> float:
        return _ratio(self.cpu(name) * 1e3, self.calls(name))

    def mean_count(self, name: str) -> float:
        return _ratio(self.count(name), self.calls(name))


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def _hit_frac(stats: list[dict]) -> float:
    hits = sum(s.get("hits", 0) for s in stats)
    misses = sum(s.get("misses", 0) for s in stats)
    return _ratio(hits, hits + misses)


def bases(spans, inputs: dict) -> dict:
    """The counts the per-layer means and ratios rest on, for the report."""
    totals = SpanTotals(spans)
    fusion = inputs.get("fusion", {})
    channels = inputs.get("channels", {})

    def lookups(stats):
        return sum(s.get("hits", 0) + s.get("misses", 0) for s in stats)

    return {
        "span_calls": {name: totals.calls(name)
                       for name in sorted(totals.names())},
        "queries": inputs.get("queries", 0),
        "gateway_queries": inputs.get("gateway_queries", 0),
        "interactive_queries": inputs.get("interactive_queries", 0),
        "requested_rows": (fusion.get("fused_rows", 0)
                           + fusion.get("rows_deduplicated", 0)),
        "indicator_lookups": lookups(inputs.get("indicator_cache", [])),
        "fetch_lookups": lookups(inputs.get("fetch", [])),
        "channel_queries": channels.get("queries", 0),
        "refreshes": channels.get("refreshes", 0),
    }


def compute(spans, inputs: dict) -> dict[str, float]:
    """Every :data:`PER_LAYER` metric of one traced run.

    ``inputs`` holds the counters the workload gathered: ``queries``
    (queries completed while recording), ``gateway_queries`` (the part
    that crossed the gateway) and ``gateway_queries_total``,
    ``interactive_queries`` and ``interactive_rounds``, ``fusion``,
    ``indicator_cache``, ``fetch``, ``channels`` (``query_bytes``,
    ``query_requests``, ``queries``, ``upload_bytes``, ``refreshes`` and
    the :data:`CHANNEL_TOTALS`), ``reply_bytes``, ``query_latency_ms``,
    ``rejected``, ``interactive_p50_ms``, ``query_p99_ms``,
    ``batch_p90_ms``, ``teardown_s``, ``failed_frac``, ``qps_traced`` and
    ``qps_untraced``.
    """
    totals = SpanTotals(spans)
    queries = inputs.get("queries", 0)
    gateway_queries = inputs.get("gateway_queries", 0)
    fusion = inputs.get("fusion", {})
    fused = fusion.get("fused_rows", 0)
    deduplicated = fusion.get("rows_deduplicated", 0)
    channels = inputs.get("channels", {})
    channel_queries = channels.get("queries", 0)
    out = {
        "api.plan_ms": totals.mean_ms("api.lower"),
        "api.queries_per_tick": totals.mean_count("api.execute_many"),
        "api.rows_dedup_frac": _ratio(deduplicated, fused + deduplicated),
        "serving.wire_ms": _ratio(
            sum(totals.wall(name) for name in (
                "serving.query_to_wire", "serving.query_from_wire",
                "serving.result_to_wire", "serving.result_from_wire")) * 1e3,
            gateway_queries),
        "serving.reply_bytes": _ratio(inputs.get("reply_bytes", 0),
                                      inputs.get("gateway_queries_total", 0)),
        "serving.queue_wait_ms": (
            inputs["query_latency_ms"] - totals.mean_ms("api.tick")
            if gateway_queries else 0.0),
        "serving.rejected": inputs.get("rejected", 0),
        "core.batch_ms": totals.mean_ms("core.batch"),
        "core.interactive_rounds": _ratio(
            inputs.get("interactive_rounds", 0),
            inputs.get("interactive_queries", 0)),
        "core.round_ms": totals.mean_ms("core.round"),
        "interactive_p50_ms": inputs.get("interactive_p50_ms", 0.0),
        "query_p99_ms": inputs.get("query_p99_ms", 0.0),
        "batch_p90_ms": inputs.get("batch_p90_ms", 0.0),
        "kernels.native_frac": totals.mean_count("kernels.sweep"),
        "owner.decode_ms": totals.mean_ms("owner.decode"),
        "owner.decoded_cells": totals.mean_count("owner.decode"),
        "owner.finalize_ms": totals.mean_ms("owner.finalize"),
        "owner.outsource_ms": totals.mean_ms("owner.outsource"),
        "crypto.share_ms": totals.mean_ms("crypto.share"),
        "initiator.indicator_ms": totals.mean_ms("initiator.indicator"),
        "initiator.cache_hit_frac": _hit_frac(
            inputs.get("indicator_cache", [])),
        "storage.fetch_hit_frac": _hit_frac(inputs.get("fetch", [])),
        "network.remote_sweep_ms": totals.mean_ms("network.remote_sweep"),
        "network.codec_ms": _ratio(totals.wall("network.codec") * 1e3,
                                   queries),
        "network.codec_cpu_ms": _ratio(totals.cpu("network.codec") * 1e3,
                                       queries),
        "network.bytes_per_query": _ratio(channels.get("query_bytes", 0),
                                          channel_queries),
        "network.rpcs_per_query": _ratio(channels.get("query_requests", 0),
                                         channel_queries),
        "network.upload_bytes_per_refresh": _ratio(
            channels.get("upload_bytes", 0), channels.get("refreshes", 0)),
        "network.scattered_frames": channels.get("scattered_frames", 0),
        "network.journal_frames": channels.get("journal_frames", 0),
        "network.retransmits": channels.get("retransmits", 0),
        "network.ejections": channels.get("ejections", 0),
        "teardown_s": inputs.get("teardown_s", 0.0),
        "failed_frac": inputs.get("failed_frac", 0.0),
        "trace.qps": inputs.get("qps_traced", 0.0),
        "trace.overhead_frac": (
            1.0 - _ratio(inputs.get("qps_traced", 0.0),
                         inputs.get("qps_untraced", 0.0))
            if inputs.get("qps_untraced") else 0.0),
    }
    for family in ("psi", "count", "psu", "agg"):
        out[f"server.sweep_ms.{family}"] = totals.mean_ms(f"server.{family}")
        out[f"server.sweep_cpu_ms.{family}"] = totals.mean_cpu_ms(
            f"server.{family}")
    for family in ("psi", "psu", "agg"):
        out[f"server.cells_per_s.{family}"] = _ratio(
            totals.count(f"server.{family}"),
            totals.wall(f"server.{family}"))
    return {name: float(out[name]) for name, _unit in PER_LAYER}
