"""Child processes of a benchmark run: start, measure, stop, reap.

Every child starts in a session of its own, so it and everything it
forks share one process group that can be signalled and searched as a
unit.  :class:`Children` remembers every group it started, so the run
can stop them all — also when it fails or passes its deadline — and
report any process left behind.
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
LAUNCHER = str(Path(__file__).resolve().parent / "launch.py")


def _stat_fields(pid: int) -> list[str] | None:
    try:
        text = Path(f"/proc/{pid}/stat").read_text()
    except OSError:
        return None
    # The command name sits in parentheses and may contain spaces.
    return text[text.rindex(")") + 2:].split()


def group_members(pgid: int) -> list[int]:
    """Live (non-zombie) processes of one process group."""
    members = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        fields = _stat_fields(int(entry))
        if fields and fields[0] != "Z" and int(fields[2]) == pgid:
            members.append(int(entry))
    return members


def peak_rss_mb(pid: int | str = "self") -> float:
    """``VmHWM`` of one process in MB (0 when it is gone)."""
    try:
        for line in Path(f"/proc/{pid}/status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return 0.0


class Child:
    """One launched process (and the process group it leads)."""

    def __init__(self, popen: subprocess.Popen, label: str):
        self.popen = popen
        self.label = label
        self.pgid = popen.pid
        self.port: int | None = None

    def read_port(self, marker: str, timeout: float) -> int:
        """Wait for ``<marker> <port>`` on the child's stdout."""
        result: list = []

        def reader() -> None:
            for line in self.popen.stdout:
                if line.startswith(marker):
                    result.append(int(line.split()[-1]))
                    return

        thread = threading.Thread(target=reader, daemon=True)
        thread.start()
        thread.join(timeout)
        if not result:
            raise RuntimeError(f"{self.label} did not announce its port "
                               f"(exit code {self.popen.poll()})")
        self.port = result[0]
        # Keep draining stdout so the child never blocks on a full pipe.
        threading.Thread(target=self._drain, daemon=True).start()
        return self.port

    def _drain(self) -> None:
        for _ in self.popen.stdout:
            pass

    def peak_rss_mb(self) -> float:
        """Summed ``VmHWM`` of every live process in this child's group."""
        return sum(peak_rss_mb(pid) for pid in group_members(self.pgid))

    def signal(self, signum: int) -> None:
        try:
            os.kill(self.popen.pid, signum)
        except ProcessLookupError:
            pass

    def exited(self) -> bool:
        """Whether the child and every process of its group have ended."""
        # The group is searched only once its leader is gone.
        return self.popen.poll() is not None and not group_members(self.pgid)

    def kill_group(self) -> None:
        try:
            os.killpg(self.pgid, signal.SIGKILL)
        except (ProcessLookupError, PermissionError):
            pass
        try:
            self.popen.wait(timeout=10)
        except subprocess.TimeoutExpired:
            pass


class Children:
    """Every process group a run started."""

    def __init__(self, env: dict):
        self.env = env
        self.started: list[Child] = []
        self._lock = threading.Lock()

    def launch(self, entity: str, args: list[str], label: str,
               trace_file: Path | None = None) -> Child:
        """Exec ``launch.py <entity>`` in a new session."""
        command = [sys.executable, LAUNCHER]
        if trace_file is not None:
            command += ["--trace", str(trace_file)]
        command += [entity, "--", *args]
        popen = subprocess.Popen(
            command, cwd=str(ROOT), env=self.env, stdin=subprocess.DEVNULL,
            stdout=subprocess.PIPE, text=True, start_new_session=True)
        child = Child(popen, label)
        with self._lock:
            self.started.append(child)
        return child

    def stop(self, children: list[Child], timeout: float) -> list[float]:
        """SIGTERM ``children`` together; seconds until each group exited.

        A group still alive at ``timeout`` is killed and reported as
        infinity (the caller counts it as a failure).
        """
        start = time.perf_counter()
        for child in children:
            child.signal(signal.SIGTERM)
        times = [float("inf")] * len(children)
        pending = dict(enumerate(children))
        while pending and time.perf_counter() - start < timeout:
            for index, child in list(pending.items()):
                if child.exited():
                    times[index] = time.perf_counter() - start
                    del pending[index]
            time.sleep(0.005)
        for child in pending.values():
            child.kill_group()
        return times

    def left_behind(self) -> list[int]:
        """Processes of any started group that are still alive."""
        alive = []
        for child in self.started:
            if child.popen.poll() is None:
                alive.append(child.popen.pid)
            alive.extend(pid for pid in group_members(child.pgid)
                         if pid not in alive)
        return alive

    def kill_all(self) -> None:
        for child in list(self.started):
            child.kill_group()
