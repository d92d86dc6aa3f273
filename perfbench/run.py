#!/usr/bin/env python3
"""The Prism benchmark: one run of one workload, checked against plaintext.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload local-bulk --seed 1 --seconds 32 --trace 0

Workloads: ``local-bulk``, ``gateway-mixed`` and ``pooled-refresh``
(see README.md).  The run builds its inputs from ``--seed``, sets the
deployment up several times, measures for ``--seconds`` seconds, checks
every result against the program's plaintext references and tears
everything down.  It prints an environment record (``# env {...}``) and,
as the last line of standard output, one JSON object::

    {"correct": true, "attempted": N, "failed": 0,
     "metrics": {"qps": {"value": 23.1, "unit": "queries/s"}, ...}}

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` reports the
per-layer metrics of a traced run instead.  The exit code is 0 only
when every operation was correct.  A copy of the report, with sample
counts and span files, is written under ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import threading
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

#: Inherited settings that would move the program off its default
#: configuration; cleared for the run and every process it starts.
SCRUBBED = ("REPRO_KERNELS", "REPRO_SCALE", "REPRO_BENCH_DOMAIN")

#: Seconds after start when a run that is still going is stopped.
DEADLINE = 170.0

WORKLOADS = ("local-bulk", "gateway-mixed", "pooled-refresh")

#: (name, unit) of every end-to-end metric.
END_TO_END = (
    ("setup_s", "s"),
    ("qps", "queries/s"),
    ("query_p50_ms", "ms"),
    ("batch_p50_ms", "ms"),
    ("refresh_p50_ms", "ms"),
    ("peak_rss_mb", "MB"),
)


def _git_commit() -> str | None:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
    except OSError:
        return None
    if not head.startswith("ref: "):
        return head
    ref = head[len("ref: "):]
    try:
        return (git / ref).read_text().strip()
    except OSError:
        pass
    try:
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="small inputs and one setup (self-test only)")
    return parser.parse_args(argv)


class Emitter:
    """Prints the result line exactly once (main thread or watchdog)."""

    def __init__(self, run, out_dir: Path):
        self.run = run
        self.out_dir = out_dir
        self._lock = threading.Lock()
        self._done = False

    def emit(self, metrics: dict, units: dict,
             bases: dict | None = None) -> int:
        with self._lock:
            if self._done:
                return 1
            self._done = True
        run = self.run
        attempted, failed = run.attempted, run.failed
        if attempted == 0:
            attempted = failed = 1
        result = {
            "correct": failed == 0,
            "attempted": attempted,
            "failed": failed,
            "metrics": {name: {"value": value, "unit": units[name]}
                        for name, value in metrics.items()},
        }
        report = dict(result, env=run.env, samples=run.sample_summary(),
                      errors=dict(run.errors), bases=bases or {})
        try:
            (self.out_dir / "report.json").write_text(
                json.dumps(report, indent=2) + "\n")
        except OSError:
            pass
        for name, value in metrics.items():
            print(f"  {name:34s} {value:16.6g} {units[name]}",
                  file=sys.stderr)
        if run.errors:
            print(f"perfbench: failures {dict(run.errors)}", file=sys.stderr)
        print("# env " + json.dumps(run.env, sort_keys=True), flush=True)
        print(json.dumps(result), flush=True)
        return 0 if result["correct"] else 1


def main(argv=None) -> int:
    started = time.perf_counter()
    args = _parse(argv)
    for name in SCRUBBED:
        os.environ.pop(name, None)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    inherited = os.environ.get("PYTHONPATH")
    os.environ["PYTHONPATH"] = str(SRC) + (
        os.pathsep + inherited if inherited else "")

    import numpy
    import repro
    if Path(repro.__file__).resolve().parent != (SRC / "repro").resolve():
        print(f"perfbench: imported repro from {repro.__file__}, not from "
              f"{SRC}", file=sys.stderr)
        return 2

    import common
    import gateway_mixed
    import layers
    import local_bulk
    import pooled_refresh
    import procs
    import spans

    entry = {"local-bulk": local_bulk.run, "gateway-mixed": gateway_mixed.run,
             "pooled-refresh": pooled_refresh.run}[args.workload]
    out_dir = HERE / "out" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    out_dir.mkdir(parents=True, exist_ok=True)
    recorder = None
    if args.trace:
        recorder = spans.install(spans.Recorder())
        recorder.on = True
    children = procs.Children(dict(os.environ))
    run = common.Run(args.seed, args.seconds, bool(args.trace), args.tiny,
                     recorder, children)
    run.out_dir = out_dir
    run.env.update({
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace, "tiny": args.tiny,
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(), "numpy": numpy.__version__,
        "commit": _git_commit(),
    })
    if recorder is not None and recorder.missing:
        print(f"perfbench: span targets missing: {recorder.missing}",
              file=sys.stderr)

    if args.trace:
        units = dict(layers.PER_LAYER)
    else:
        units = dict(END_TO_END)
    emitter = Emitter(run, out_dir)
    finished = threading.Event()

    def expire() -> None:
        print(f"perfbench: run passed its {DEADLINE:.0f}s deadline; "
              f"stopping it", file=sys.stderr)
        run.fail("deadline", TimeoutError())
        children.kill_all()
        if finished.wait(10):
            return
        metrics = (run.end_to_end() if not args.trace
                   else dict.fromkeys(units, 0.0))
        emitter.emit(metrics, units)
        os._exit(1)

    watchdog = threading.Timer(
        max(1.0, DEADLINE - (time.perf_counter() - started)), expire)
    watchdog.daemon = True
    watchdog.start()
    try:
        entry(run)
    except Exception as exc:
        traceback.print_exc(file=sys.stderr)
        run.fail("run", exc)
    finally:
        left = children.left_behind()
        if left:
            print(f"perfbench: processes left behind: {left}",
                  file=sys.stderr)
            run.lifecycle_failure("left-behind", len(left))
        children.kill_all()
        finished.set()
        watchdog.cancel()

    if args.trace:
        recorder.on = False
        recorder.dump(str(out_dir / "load.json"))
        inputs = run.layer_inputs()
        all_spans = recorder.spans + run.child_spans
        return emitter.emit(layers.compute(all_spans, inputs), units,
                            layers.bases(all_spans, inputs))
    return emitter.emit(run.end_to_end(), units)


if __name__ == "__main__":
    sys.exit(main())
