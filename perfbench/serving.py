"""Driving a real ``python -m repro serve`` process from outside.

:class:`ServerProcess` spawns the server, parses its announce line and
stops it (SIGINT, then SIGKILL after a grace period) — every spawned
process is owned by a :class:`Children` registry that kills whatever is
still alive on any exit path.  :func:`closed_loop` is the load: N
threads, one SDK connection each, each sending its next request only
after the previous reply.
"""

from __future__ import annotations

import gc
import os
import random
import selectors
import signal
import subprocess
import sys
import threading
import time
from array import array
from dataclasses import dataclass, field
from pathlib import Path

from repro.client import QueryError, SpotLightClient, ThrottledError, TransportError

ANNOUNCE = "serving on http://"
START_TIMEOUT_S = 120.0
STOP_TIMEOUT_S = 15.0
CLK_TCK = os.sysconf("SC_CLK_TCK")
FAILURES = (QueryError, ThrottledError, TransportError)


class Children:
    """Every subprocess the benchmark starts; :meth:`kill_all` (also run
    by ``with``) leaves none behind."""

    def __init__(self) -> None:
        self._procs: list[subprocess.Popen] = []

    def spawn(self, argv: list[str], **kwargs) -> subprocess.Popen:
        proc = subprocess.Popen(argv, start_new_session=True, **kwargs)
        self._procs.append(proc)
        return proc

    def kill_all(self) -> None:
        for proc in self._procs:
            if proc.poll() is None:
                try:
                    os.killpg(proc.pid, signal.SIGKILL)
                except ProcessLookupError:
                    pass
            try:
                proc.wait(timeout=STOP_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                pass
            for stream in (proc.stdout, proc.stderr):
                if stream is not None:
                    stream.close()
        self._procs.clear()

    def __enter__(self) -> "Children":
        return self

    def __exit__(self, *exc_info) -> None:
        self.kill_all()


class ServerProcess:
    """One ``serve`` subprocess over a snapshot directory."""

    def __init__(
        self, children: Children, src: Path, snapshot: Path, log: Path,
        follow: bool = False,
    ) -> None:
        argv = [
            sys.executable, "-m", "repro", "serve", "--snapshot", str(snapshot),
            "--port", "0",
            # Deployment settings: admission far above the offered load.
            "--rate", "1000000", "--burst", "1000000",
        ]
        if follow:
            # A short poll interval so the visible lag measures the
            # apply path more than the tailer's sleep.
            argv += ["--follow", "--poll-interval", "0.02"]
        env = {**os.environ, "PYTHONPATH": str(src)}
        self.started = time.perf_counter()
        self._log = open(log, "ab")
        self.proc = children.spawn(
            argv, stdout=subprocess.PIPE, stderr=self._log, env=env,
        )
        self.address = self._await_announce()

    def _await_announce(self) -> tuple[str, int]:
        deadline = time.monotonic() + START_TIMEOUT_S
        line = b""
        with selectors.DefaultSelector() as selector:
            selector.register(self.proc.stdout, selectors.EVENT_READ)
            while not line.endswith(b"\n"):
                remaining = deadline - time.monotonic()
                if remaining <= 0 or not selector.select(remaining):
                    raise RuntimeError("serve did not announce in time")
                chunk = os.read(self.proc.stdout.fileno(), 1)
                if not chunk:
                    raise RuntimeError(
                        f"serve exited with {self.proc.wait()} before announcing"
                    )
                line += chunk
        text = line.decode()
        if ANNOUNCE not in text:
            raise RuntimeError(f"unexpected serve output: {text!r}")
        host, port = text.split(ANNOUNCE, 1)[1].split()[0].rsplit(":", 1)
        return host, int(port)

    def client(self) -> SpotLightClient:
        return SpotLightClient(*self.address, timeout=30.0)

    def _proc_file(self, name: str) -> str:
        return Path(f"/proc/{self.proc.pid}/{name}").read_text()

    def peak_rss_mb(self) -> float:
        for line in self._proc_file("status").splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
        raise RuntimeError("no VmHWM in /proc status")

    def cpu_seconds(self) -> float:
        fields = self._proc_file("stat").rsplit(")", 1)[1].split()
        return (int(fields[11]) + int(fields[12])) / CLK_TCK

    def stop(self) -> None:
        """Graceful stop; a server that will not drain is killed."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(timeout=STOP_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                os.killpg(self.proc.pid, signal.SIGKILL)
                self.proc.wait(timeout=STOP_TIMEOUT_S)
        self.proc.stdout.close()
        self._log.close()


def send(client: SpotLightClient, mode: str, name: str, params: dict):
    """One SDK round trip; returns the ``result``."""
    if mode == "poll":
        return client.poll(name, params)
    return client.query_response(name, params)["result"]


@dataclass
class LoopResult:
    latencies: array = field(default_factory=lambda: array("d"))
    completed: int = 0
    failed: int = 0
    sent: int = 0  # including warm-up
    errors: list[str] = field(default_factory=list)
    crash: Exception | None = None  # what stopped a worker, if anything

    def merge(self, other: "LoopResult") -> None:
        self.latencies.extend(other.latencies)
        self.completed += other.completed
        self.failed += other.failed
        self.sent += other.sent
        self.errors.extend(other.errors[:5])


def closed_loop(
    server: ServerProcess,
    streams: list,
    warmup_s: float,
    seconds: float,
    tracer=None,
    request_ids: "object | None" = None,
    rate: float = 0.0,
) -> LoopResult:
    """Run one closed-loop thread per stream (an iterator of requests)
    for ``warmup_s`` unrecorded seconds, then ``seconds`` recorded.

    Every request sent is counted, a failure when it raises (4xx, 5xx,
    429, transport error, or an answer the SDK cannot decode); each
    success in the recorded window is a latency sample.  A thread
    finishes its in-flight request before it stops, so nothing is left
    pending; an error outside a request is raised here after join.  With ``rate`` each thread
    also waits for its next slot (``rate`` per second) before sending:
    still one request in flight at a time, but a fixed offered load."""
    # The benchmark process holds the reference snapshot (millions of
    # objects); a full collection mid-loop would stall the load
    # generator, not the server, so move what exists out of the
    # collector's reach first.
    gc.collect()
    gc.freeze()
    results = [LoopResult() for _ in streams]
    barrier = threading.Barrier(len(streams))

    def worker(stream, result: LoopResult) -> None:
        client = server.client()
        try:
            barrier.wait()
            started = time.perf_counter()
            measure_from = started + warmup_s
            deadline = measure_from + seconds
            latencies = result.latencies
            for mode, name, params in stream:
                if rate:
                    slot = started + result.sent / rate
                    pause = slot - time.perf_counter()
                    if pause > 0:
                        time.sleep(pause)
                t0 = time.perf_counter()
                if t0 >= deadline:
                    break
                result.sent += 1
                span = None
                if tracer is not None and t0 >= measure_from:
                    span = tracer.begin("sdk.roundtrip", next(request_ids))
                try:
                    send(client, mode, name, params)
                except Exception as exc:  # noqa: BLE001 - any error fails the request
                    result.failed += 1
                    result.errors.append(f"{name}: {exc!r}")
                    continue
                finally:
                    if span is not None:
                        tracer.end(span)
                if t0 >= measure_from:
                    latencies.append(time.perf_counter() - t0)
            result.completed = len(latencies)
        except Exception as exc:  # noqa: BLE001 - re-raised after join
            result.crash = exc
        finally:
            client.close()

    threads = [
        threading.Thread(target=worker, args=(stream, result), daemon=True)
        for stream, result in zip(streams, results)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=warmup_s + seconds + 60.0)
        if thread.is_alive():
            raise RuntimeError("closed-loop thread did not finish")
    for result in results:
        if result.crash is not None:
            raise RuntimeError("closed-loop thread failed") from result.crash
    merged = LoopResult()
    for result in results:
        merged.merge(result)
    return merged


def request_stream(rng: random.Random, make):
    """An endless iterator of ``make(rng)`` requests."""
    while True:
        yield make(rng)
