"""Pull-based dist worker: lease, simulate, upload, repeat.

``python -m repro.sim.dist.worker --connect HOST:PORT`` (or ``etrain
worker --connect ...``) attaches to a running coordinator, completes
the versioned hello handshake, then drives a blocking lease loop.  Each
leased job is rebuilt from its canonical wire dict, checked against the
leased content key (a coordinator/worker version skew fails loudly, not
silently under a stale key), and executed through the *same*
``_execute`` entry point in-process runs use — identical metrics,
identical fault injection (the coordinator ships its
:class:`~repro.faults.FaultPlan` in the hello response, so an injected
crash kills this whole process mid-chunk, which is exactly the host
failure the lease machinery is built for).

Each connection keeps one daemon heartbeat thread that shares the
socket under a write lock and, while a job runs, beats its lease at the
coordinator-advertised cadence; the main thread is the only reader and
discards heartbeat acks while waiting for lease/result responses.
Connection loss triggers bounded-backoff reconnection (work keeps
running; the finished result is uploaded on the new connection and
deduplicated coordinator-side by content hash).

Exit codes: 0 — run complete (``done`` lease); 1 — coordinator
unreachable/lost for good; 2 — protocol rejection (version skew).
"""

from __future__ import annotations

import argparse
import os
import socket
import sys
import threading
import time
from typing import Dict, Optional

from repro.faults import FaultPlan
from repro.sim.dist.protocol import (
    DIST_PROTOCOL_VERSION,
    encode_frame,
    job_from_wire,
    result_hash,
)
from repro.sim.parallel.executor import _execute
from repro.workload.trace_io import NdjsonDecoder

__all__ = ["run_worker", "main"]

#: Give up on the coordinator after this many seconds without a
#: successful connection (covers both startup and mid-run loss).
CONNECT_PATIENCE_S = 30.0

#: A coordinator silent this long counts as lost (the coordinator
#: answers a parked lease request well within it).
SOCKET_TIMEOUT_S = 10.0


class _CoordinatorLost(Exception):
    """The TCP connection died; reconnect and resume the lease loop."""


class _Connection:
    """Blocking request/response channel with heartbeat-ack filtering.

    Its heartbeat thread sends ``beat`` (the encoded heartbeat of the
    lease in hand, None between jobs) every ``period`` seconds.
    """

    def __init__(self, sock: socket.socket) -> None:
        self.sock = sock
        self.lock = threading.Lock()
        self.beat: Optional[bytes] = None
        self._closed = threading.Event()
        self._decoder = NdjsonDecoder()
        self._ready: list = []

    def start_heartbeat(self, period: float) -> None:
        threading.Thread(target=self._heartbeat, args=(period,), daemon=True).start()

    def _heartbeat(self, period: float) -> None:
        while not self._closed.wait(period):
            payload = self.beat
            if payload is None:
                continue
            try:
                with self.lock:
                    self.sock.sendall(payload)
            except OSError:
                return  # main thread handles the dead socket

    def request(self, frame: Dict) -> Dict:
        """Send one frame; return the next non-heartbeat response."""
        try:
            with self.lock:
                self.sock.sendall(encode_frame(frame))
        except OSError as exc:
            raise _CoordinatorLost(str(exc)) from exc
        while True:
            resp = self._next_frame()
            if resp.get("op") == "heartbeat":
                continue  # ack for the heartbeat thread; drop it
            return resp

    def _next_frame(self) -> Dict:
        while True:
            while self._ready:
                frame = self._ready.pop(0)
                if frame.obj is not None:
                    return frame.obj
            try:
                data = self.sock.recv(65536)
            except OSError as exc:
                raise _CoordinatorLost(str(exc)) from exc
            if not data:
                raise _CoordinatorLost("connection closed by coordinator")
            self._ready.extend(self._decoder.feed(data))

    def close(self) -> None:
        self._closed.set()
        try:
            self.sock.close()
        except OSError:  # pragma: no cover - racing close
            pass


def _connect(host: str, port: int, patience: float) -> Optional[_Connection]:
    """Dial with bounded exponential backoff; None when patience runs out."""
    deadline = time.monotonic() + patience
    delay = 0.05
    while True:
        try:
            sock = socket.create_connection((host, port), timeout=SOCKET_TIMEOUT_S)
            return _Connection(sock)
        except OSError:
            if time.monotonic() + delay > deadline:
                return None
            time.sleep(delay)
            delay = min(delay * 2.0, 1.0)


def _run_lease(conn: _Connection, lease: Dict, faults: Optional[FaultPlan],
               worker: str) -> Dict:
    """Execute one leased job and build its result (or fail) frame."""
    index, key, attempt = lease["index"], lease["key"], lease["attempt"]
    try:
        spec = job_from_wire(lease["job"])
        if spec.content_hash() != key:
            raise ValueError(
                f"rebuilt spec hashes to {spec.content_hash()[:16]}, "
                f"lease says {key[:16]} (version skew?)"
            )
    except (KeyError, ValueError, TypeError) as exc:
        return {"op": "fail", "worker": worker, "index": index, "key": key,
                "attempt": attempt, "error": str(exc)}
    conn.beat = encode_frame(
        {"op": "heartbeat", "worker": worker, "index": index, "key": key}
    )
    try:
        # Same entry point as in-process runs: injects faults (a crash
        # exits this process), runs under a metrics scope, times the
        # job.  Heartbeats keep beating through an injected hang —
        # only the coordinator's hard deadline bounds that.
        summary, elapsed, pid, metrics = _execute(spec, faults, attempt)
    except Exception as exc:  # simulation failure: NACK, don't die
        return {"op": "fail", "worker": worker, "index": index, "key": key,
                "attempt": attempt, "error": f"{type(exc).__name__}: {exc}"}
    finally:
        conn.beat = None
    return {
        "op": "result",
        "worker": worker,
        "index": index,
        "key": key,
        "attempt": attempt,
        "summary": summary,
        "wall_time": elapsed,
        "pid": pid,
        "metrics": metrics,
        "hash": result_hash(key, summary, metrics),
    }


def run_worker(host: str, port: int, *, name: Optional[str] = None,
               patience: float = CONNECT_PATIENCE_S) -> int:
    """Serve one coordinator until its run completes.  Returns exit code."""
    worker = name or f"{socket.gethostname()}-{os.getpid()}"
    outbox: Optional[Dict] = None  # finished frame surviving a reconnect
    while True:
        conn = _connect(host, port, patience)
        if conn is None:
            print(f"worker {worker}: coordinator {host}:{port} unreachable",
                  file=sys.stderr)
            return 1
        try:
            hello = conn.request({
                "op": "hello",
                "proto": DIST_PROTOCOL_VERSION,
                "worker": worker,
                "pid": os.getpid(),
            })
            if not hello.get("ok"):
                err = hello.get("error", {})
                print(f"worker {worker}: rejected: {err.get('code')}: "
                      f"{err.get('message')}", file=sys.stderr)
                return 2
            faults = (FaultPlan.from_dict(hello["faults"])
                      if hello.get("faults") else None)
            conn.start_heartbeat(float(hello.get("heartbeat_s", 10.0)))
            while True:
                if outbox is not None:
                    conn.request(outbox)  # stale duplicates are dropped
                    outbox = None
                resp = conn.request({"op": "lease", "worker": worker})
                if resp.get("done"):
                    return 0
                if not resp.get("ok"):
                    err = resp.get("error", {})
                    print(f"worker {worker}: lease rejected: {err.get('code')}",
                          file=sys.stderr)
                    return 2
                if resp.get("idle"):
                    time.sleep(float(resp.get("retry_after", 0.05)))
                    continue
                outbox = _run_lease(conn, resp, faults, worker)
                conn.request(outbox)
                outbox = None
        except _CoordinatorLost:
            continue  # redial; an unsent result frame rides along in outbox
        finally:
            conn.close()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="etrain worker",
        description="Attach to an etrain coordinator and execute leased jobs.",
    )
    parser.add_argument("--connect", required=True, metavar="HOST:PORT",
                        help="coordinator address")
    parser.add_argument("--name", default=None,
                        help="worker name (default: host-pid)")
    args = parser.parse_args(argv)
    host, sep, port = args.connect.rpartition(":")
    if not sep or not port.isdigit():
        parser.error(f"--connect wants HOST:PORT, got {args.connect!r}")
    return run_worker(host, int(port), name=args.name)


if __name__ == "__main__":
    sys.exit(main())
