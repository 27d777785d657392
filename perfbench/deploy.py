"""Child processes the benchmark deploys, and their lifecycle.

Every deployment runs in its own process so that its set-up time, peak
memory and shutdown are its own: ``repro serve`` (plain, or through
``traced_serve.py``) for the HTTP workloads, and ``drain.py`` for the
FireWorks workload.  Each child is stopped and waited for before the
benchmark moves on.
"""

from __future__ import annotations

import os
import queue
import shutil
import signal
import subprocess
import sys
import threading
import time
from typing import List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    env["PYTHONUNBUFFERED"] = "1"
    env.pop("PYTHONOPTIMIZE", None)
    return env


def fresh_copy(source: str, dest: str) -> str:
    """A private copy of a prebuilt data dir, so every run starts alike."""
    if os.path.exists(dest):
        shutil.rmtree(dest)
    shutil.copytree(source, dest)
    return dest


def _status_mb(pid: str, field: str) -> float:
    with open(f"/proc/{pid}/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith(field + ":"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"{field} not reported")


def peak_rss_mb(pid: str = "self") -> float:
    """VmHWM of a process: its peak resident set so far, in MB."""
    return _status_mb(pid, "VmHWM")


def rss_mb(pid: str = "self") -> float:
    """VmRSS of a process: its resident set now, in MB."""
    return _status_mb(pid, "VmRSS")


class Child:
    """A deployment process whose stdout lines are read on a thread."""

    def __init__(self, argv: List[str], log_path: str):
        self._log = open(log_path, "w", encoding="utf-8")
        self.proc = subprocess.Popen(
            argv, cwd=ROOT, env=child_env(), stdin=subprocess.PIPE,
            stdout=subprocess.PIPE, stderr=self._log, text=True, bufsize=1,
        )
        self._lines: "queue.Queue[Optional[str]]" = queue.Queue()
        self._reader = threading.Thread(target=self._read, daemon=True)
        self._reader.start()

    def _read(self) -> None:
        for line in self.proc.stdout:
            self._lines.put(line.rstrip("\n"))
        self._lines.put(None)

    def wait_for(self, prefix: str, timeout: float) -> str:
        """The first stdout line starting with ``prefix``."""
        deadline = time.monotonic() + timeout
        while True:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise TimeoutError(f"no {prefix!r} line from the child")
            try:
                line = self._lines.get(timeout=remaining)
            except queue.Empty:
                continue
            if line is None:
                raise RuntimeError(
                    f"child exited ({self.proc.wait()}) before {prefix!r}")
            if line.startswith(prefix):
                return line

    def send(self, line: str) -> None:
        self.proc.stdin.write(line + "\n")
        self.proc.stdin.flush()

    def stop(self, timeout: float = 60.0, interrupt: bool = True) -> int:
        """Wait for the child to exit, first interrupting it (Ctrl-C, the
        CLI's clean shutdown) unless it is exiting by itself; kill it if
        it has not exited within ``timeout``."""
        if interrupt and self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
        try:
            code = self.proc.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            code = self.proc.wait()
        self._reader.join(timeout=10)
        for stream in (self.proc.stdin, self.proc.stdout):
            try:
                stream.close()
            except OSError:
                pass
        self._log.close()
        return code


def serve_argv(data_dir: str, spans_path: Optional[str]) -> List[str]:
    """``repro serve`` as deployed: warehouse, flight recorder and journal
    on, fsync policy ``interval``; traced through the launcher if asked."""
    cli = ["--data-dir", data_dir, "--fsync", "interval",
           "serve", "--port", "0"]
    if spans_path is None:
        return [sys.executable, "-m", "repro.cli"] + cli
    return [sys.executable, os.path.join(HERE, "traced_serve.py"),
            spans_path, "--"] + cli
