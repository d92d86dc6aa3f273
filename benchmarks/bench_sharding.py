"""Sharded kernel throughput: rows/s vs. χ shard count.

Not a paper artefact — this benchmark supports the sharded execution
layer (:mod:`repro.core.sharding`).  It times the three fused server
kernels (PSI / Eq. 3, PSU / Eq. 18, aggregation / Eq. 11) as
*single-query* sweeps at each shard count and reports throughput in χ
rows (cells) per second, plus the speedup over the unsharded sweep.

Run as a script (the CI smoke invocation uses a tiny domain)::

    PYTHONPATH=src python benchmarks/bench_sharding.py \
        --domain 100000 --shards 1,2,4 --out BENCH_sharding.json

The default b = 10^5 is the scale at which the sharding claim is
checked; shard counts beyond the machine's core count mostly measure
dispatch overhead.  Both execution modes of the sharded layer are
timed: ``workers`` (the forked process pool) and ``threads`` (the
thread fallback, zero dispatch overhead).  Output is machine-readable
JSON::

    {"b": ..., "num_owners": ..., "cpu_count": ...,
     "rows_per_sec": {"workers": {"psi": {"1": ..., "4": ...}, ...},
                      "threads": {...}},
     "speedup_vs_unsharded": {"workers": {...}, "threads": {...},
                              "best": {"psi": {"4": ...}, ...}}}

Expected shape: on an N-core runner the kernels approach Nx throughput
at N shards (the sweeps are embarrassingly parallel, and the PSU mask
streams are derived shard-locally via the seekable PRG); at 4 shards on
a 4-core runner the best mode per family should clear 2x.  Heavier
kernels (PSU's SHA mask streams, Eq. 11's double reduction) favour
workers; the very light Eq. 3 sweep favours threads, whose dispatch is
free.  On a single core both modes measure pure overhead.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

import numpy as np

from repro.bench.harness import build_system
from repro.core.sharding import ShardPlan
from repro.crypto.prg import SeededPRG


def best_of(fn, repeats: int) -> float:
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return min(times)


def measure_kernels(system, plan, repeats: int) -> dict[str, float]:
    """Single-query wall time per kernel family under one shard plan."""
    server = system.servers[0]
    shamir_server = system.servers[2]
    b = system.domain.size
    z = SeededPRG(123, "bench-z").integers(b, 0, system.initiator.field_prime)
    z_matrix = np.asarray([z], dtype=np.int64)

    def sweep_psi():
        server.psi_round_batch(["OK"], shard_plan=plan)

    def sweep_psu():
        server.psu_round_batch(["OK"], [system.next_nonce()], shard_plan=plan)

    def sweep_agg():
        shamir_server.aggregate_round_batch(["DT"], z_matrix, shard_plan=plan)

    for warmup in (sweep_psi, sweep_psu, sweep_agg):  # fork + fill caches
        warmup()
    return {
        "psi": best_of(sweep_psi, repeats),
        "psu": best_of(sweep_psu, repeats),
        "agg": best_of(sweep_agg, repeats),
    }


def speedups(series_by_family: dict[str, dict[str, float]]) -> dict:
    return {
        family: {
            shards: value / series["1"]
            for shards, value in series.items() if shards != "1"
        }
        for family, series in series_by_family.items() if "1" in series
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--domain", type=int, default=100_000,
                        help="χ length b (default: 10^5)")
    parser.add_argument("--owners", type=int, default=10)
    parser.add_argument("--shards", default="1,2,4",
                        help="comma-separated shard counts (default 1,2,4)")
    parser.add_argument("--mode", choices=("workers", "threads", "both"),
                        default="both")
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument("--out", default="BENCH_sharding.json")
    args = parser.parse_args(argv)
    shard_counts = [int(s) for s in args.shards.split(",")]
    modes = (("workers", "threads") if args.mode == "both" else (args.mode,))

    system = build_system(num_owners=args.owners, domain_size=args.domain,
                          agg_attributes=("DT",), seed=7)
    b = system.domain.size
    print(f"sharding throughput at b={b}, {args.owners} owners, "
          f"{os.cpu_count()} cores (best of {args.repeats})")

    rows_per_sec: dict[str, dict[str, dict[str, float]]] = {}
    for mode in modes:
        rows_per_sec[mode] = {}
        for num_shards in shard_counts:
            # A runtime-less plan routes through the thread fallback
            # with ``num_shards`` chunks; the system plan uses workers.
            plan = (ShardPlan(num_shards)
                    if mode == "threads" or num_shards <= 1
                    else system.shard_plan_for(num_shards))
            timings = measure_kernels(system, plan, args.repeats)
            for family, seconds in timings.items():
                rows_per_sec[mode].setdefault(
                    family, {})[str(num_shards)] = b / seconds
            line = "  ".join(f"{family} {b / s:12.0f} rows/s"
                             for family, s in timings.items())
            print(f"  {mode:7s} shards={num_shards:<3d} {line}")
    system.close()

    speedup = {mode: speedups(series) for mode, series in rows_per_sec.items()}
    speedup["best"] = {
        family: {
            str(shards): max(
                speedup[mode].get(family, {}).get(str(shards), 0.0)
                for mode in modes
            )
            for shards in shard_counts if shards != 1
        }
        for family in ("psi", "psu", "agg")
    }
    report = {
        "b": b,
        "num_owners": args.owners,
        "cpu_count": os.cpu_count(),
        "shard_counts": shard_counts,
        "modes": list(modes),
        "repeats": args.repeats,
        "rows_per_sec": rows_per_sec,
        "speedup_vs_unsharded": speedup,
    }
    with open(args.out, "w") as handle:
        json.dump(report, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
