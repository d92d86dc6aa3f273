#!/usr/bin/env python3
"""Self-test of the benchmark at tiny size.

    python3 perfbench/smoke.py

Runs every workload of ``BENCHMARK.json`` once untraced and once traced
with ``--tiny``, and checks that each run is correct and that its result
line names exactly the metrics ``BENCHMARK.json`` defines, with their
units.  Then checks that the benchmark fails, without printing a
result, when the program's source is missing.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
TIMEOUT = 180


def _run(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "1", "--seconds", "2", "--trace", str(trace), "--tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=TIMEOUT)


def check_spec(spec: dict) -> None:
    sys.path.insert(0, str(HERE))
    import layers
    import run
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(
        run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(
        layers.PER_LAYER)


def check_run(spec: dict, workload: str, trace: int) -> None:
    done = _run(ROOT, workload, trace)
    lines = done.stdout.strip().splitlines()
    assert done.returncode == 0 and lines, (workload, trace, done.stderr)
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0, result
    assert result["attempted"] >= 1
    expected = spec["per_layer" if trace else "end_to_end"]
    got = {name: metric["unit"] for name, metric in result["metrics"].items()}
    assert got == {m["name"]: m["unit"] for m in expected}, (workload, got)
    if not trace:
        zero = [name for name, metric in result["metrics"].items()
                if not metric["value"] > 0]
        assert not zero, (workload, zero)
    print(f"smoke: {workload} trace={trace} ok "
          f"({result['attempted']} operations)")


def check_bare() -> None:
    """Without ``src/`` the benchmark must fail and print no result."""
    bare = HERE / "out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    try:
        done = _run(bare, "local-bulk", 0)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert done.returncode != 0, done.stdout
    assert '"correct"' not in done.stdout, done.stdout
    print("smoke: run without the program fails ok")


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    check_spec(spec)
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            check_run(spec, workload, trace)
    check_bare()
    print("smoke: all ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
