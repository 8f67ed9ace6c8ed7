"""``repro serve`` as a subprocess, and an asyncio JSONL client for it.

The server runs with its shipped defaults (one worker, a 2 ms batch window,
64-entry session and kernel caches); only ``--port 0`` (an ephemeral port,
read back from the server's banner) and, for the durable configuration,
``--checkpoint-dir`` are passed.
"""

from __future__ import annotations

import asyncio
import itertools
import json
import os
import re
import signal
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence

from pbench.inputs import ROOT, SRC

_BANNER = re.compile(r"listening on \('127\.0\.0\.1', (\d+)\)")


def child_env() -> Dict[str, str]:
    """The environment of every process the benchmark starts."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = "0"
    return env


def vm_hwm_mb(pid: int) -> float:
    """Peak resident set size (``VmHWM``) of a live process, in MB."""
    with open(f"/proc/{pid}/status", "r", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


class ServerProcess:
    """One fresh ``repro serve`` process on an ephemeral loopback port."""

    def __init__(self, log_path: Path, extra_args: Sequence[str] = ()):
        self.log_path = log_path
        self.extra_args = list(extra_args)
        self.proc: Optional[subprocess.Popen] = None
        self.port: Optional[int] = None
        self.launched_at = 0.0

    def start(self, timeout_s: float = 60.0) -> None:
        """Launch the server and block until its banner names the port."""
        self.log_path.parent.mkdir(parents=True, exist_ok=True)
        self._log = open(self.log_path, "ab")
        self.launched_at = time.monotonic()
        self.proc = subprocess.Popen(
            [sys.executable, "-u", "-m", "repro.cli", "serve", "--port", "0", *self.extra_args],
            stdout=subprocess.PIPE,
            stderr=self._log,
            cwd=str(ROOT),
            env=child_env(),
        )
        deadline = self.launched_at + timeout_s
        while time.monotonic() < deadline:
            line = self.proc.stdout.readline().decode("utf-8", "replace")
            if not line:
                break
            match = _BANNER.search(line)
            if match:
                self.port = int(match.group(1))
                return
        self.stop()
        log = self.log_path.read_text(encoding="utf-8", errors="replace")
        raise RuntimeError(f"repro serve did not start:\n{log[-2000:]}")

    def peak_rss_mb(self) -> float:
        return vm_hwm_mb(self.proc.pid)

    def stop(self) -> None:
        """Interrupt the server (graceful stop), then reap it."""
        if self.proc is None:
            return
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(timeout=20)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait(timeout=20)
        self.proc.stdout.close()
        self._log.close()
        self.proc = None


class Connection:
    """One pipelined JSONL connection; answers are matched by ``id``."""

    def __init__(self) -> None:
        self._ids = itertools.count()
        self._pending: Dict[object, asyncio.Future] = {}
        self._reader_task: Optional[asyncio.Task] = None
        self.tag = ""

    @classmethod
    async def open(cls, port: int, tag: str = "c") -> "Connection":
        conn = cls()
        conn.tag = tag
        conn.reader, conn.writer = await asyncio.open_connection(
            "127.0.0.1", port, limit=1 << 24
        )
        conn._reader_task = asyncio.create_task(conn._read_loop())
        return conn

    def next_id(self) -> str:
        return f"{self.tag}{next(self._ids)}"

    def send(self, payload: dict) -> "asyncio.Future":
        """Write one request now; the future resolves to ``(received_at, response)``."""
        future = asyncio.get_running_loop().create_future()
        self._pending[payload["id"]] = future
        self.writer.write(json.dumps(payload).encode("utf-8") + b"\n")
        return future

    async def request(self, payload: dict):
        """Send and await one request: ``(sent_at, received_at, response)``."""
        sent = time.monotonic()
        received, response = await self.send(payload)
        return sent, received, response

    async def _read_loop(self) -> None:
        while True:
            line = await self.reader.readline()
            received = time.monotonic()
            if not line:
                break
            response = json.loads(line)
            future = self._pending.pop(response.get("id"), None)
            if future is not None and not future.done():
                future.set_result((received, response))
        for future in self._pending.values():
            if not future.done():
                future.set_exception(ConnectionError("server closed the connection"))

    async def close(self) -> None:
        self.writer.close()
        try:
            await self.writer.wait_closed()
        except (ConnectionError, OSError):
            pass
        if self._reader_task is not None:
            self._reader_task.cancel()
            try:
                await self._reader_task
            except (asyncio.CancelledError, ConnectionError):
                pass


async def open_connections(port: int, count: int = 2) -> List[Connection]:
    return [await Connection.open(port, tag=f"c{i}-") for i in range(count)]


async def close_all(conns: Sequence[Connection]) -> None:
    for conn in conns:
        await conn.close()


async def control(conn: Connection, op: str) -> dict:
    """One ``op: stats`` / ``op: metrics`` exchange."""
    _, _, response = await conn.request({"id": conn.next_id(), "op": op})
    return response


async def closed_loop(conns: Sequence[Connection], payloads: List[dict], depth: int) -> List[tuple]:
    """Send ``payloads`` with ``depth`` requests in flight per connection.

    Returns ``(payload, sent_at, received_at, response)`` per request, in
    completion order.
    """
    queue = list(reversed(payloads))
    out: List[tuple] = []

    async def worker(conn: Connection) -> None:
        while queue:
            payload = queue.pop()
            payload["id"] = conn.next_id()
            sent, received, response = await conn.request(payload)
            out.append((payload, sent, received, response))

    await asyncio.gather(*(worker(conn) for conn in conns for _ in range(depth)))
    return out
