"""Start a gateway or an entity host in a fresh interpreter.

Usage::

    python3 perfbench/launch.py [--trace FILE] gateway -- <repro-gateway args>
    python3 perfbench/launch.py [--trace FILE] host -- <repro-entity-host args>

Without ``--trace`` this is the program's own CLI entry point
(``repro.serving.gateway.main`` or ``repro.network.host.main``), imported
as a module rather than run through ``python -m``, which would import
the module twice.  With ``--trace`` it first installs the span wrappers
of ``spans.py`` in a gateway, with recording on; SIGUSR1 turns
recording off and SIGUSR2 back on.  A traced host records no spans (its
kernel time is read client-side) and keeps only its fetch-memo
counters.  When the entry point returns after SIGTERM, the spans and
counters are written to FILE.  A gateway's entity hosts are forked from
it; the benchmark reads nothing from them.
"""

from __future__ import annotations

import argparse
import os
import signal
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import spans  # noqa: E402  (after the path set-up above)
from layers import channel_counters  # noqa: E402


def _watch_gateway(extra: dict) -> None:
    """Snapshot each dataset's counters after register and before close."""
    from repro.serving.gateway import Gateway
    from repro.serving.tenancy import Dataset

    register = Gateway.register_dataset
    close = Dataset.close

    def register_dataset(self, *args, **kwargs):
        dataset = register(self, *args, **kwargs)
        extra.setdefault("registered", []).append(
            channel_counters(dataset.system))
        return dataset

    def close_dataset(self):
        cache = self.system.initiator.indicator_cache.stats
        extra.setdefault("closed", []).append({
            "channels": channel_counters(self.system),
            "indicator_cache": dict(cache),
            "client": self.client.stats,
        })
        return close(self)

    Gateway.register_dataset = register_dataset
    Dataset.close = close_dataset


def _watch_host() -> list:
    """The hosted servers' adapters, so their fetch memo can be read."""
    from repro.network import host

    build = host.build_adapter
    adapters = []

    def build_adapter(payload):
        adapter = build(payload)
        adapters.append(adapter)
        return adapter

    host.build_adapter = build_adapter
    return adapters


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("entity", choices=("gateway", "host"))
    parser.add_argument("--trace", default=None,
                        help="write spans and counters here on exit")
    parser.add_argument("args", nargs=argparse.REMAINDER)
    options = parser.parse_args(argv)
    args = options.args[1:] if options.args[:1] == ["--"] else options.args

    recorder = None
    extra: dict = {}
    adapters: list = []
    if options.trace and options.entity == "gateway":
        recorder = spans.install(spans.Recorder())
        recorder.on = True
        # Forked entity hosts inherit the wrappers; they must not record.
        os.register_at_fork(
            after_in_child=lambda: setattr(recorder, "on", False))
        signal.signal(signal.SIGUSR1, lambda *_: setattr(recorder, "on",
                                                         False))
        signal.signal(signal.SIGUSR2, lambda *_: setattr(recorder, "on",
                                                         True))
        _watch_gateway(extra)
    elif options.trace:
        # Host-side time is read client-side (network.remote_sweep_ms);
        # a host reports only its fetch-memo counters.
        recorder = spans.Recorder()
        adapters = _watch_host()

    if options.entity == "gateway":
        from repro.serving.gateway import main as entry
    else:
        from repro.network.host import main as entry
    try:
        return entry(args)
    finally:
        if recorder is not None:
            extra["fetch"] = [adapter.server.store.fetch_cache_info()
                              for adapter in adapters]
            recorder.dump(options.trace, extra)


if __name__ == "__main__":
    sys.exit(main())
