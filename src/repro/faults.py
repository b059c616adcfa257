"""Deterministic fault injection for the execution layer.

eTrain's premise is that a mobile system keeps working under hostile
conditions — missed heartbeats, dead radios, flaky links (Sec. V).  This
module turns the same philosophy on our own execution layer: it injects
the failures the fault-tolerant executor must survive — worker crashes,
worker hangs, torn files — and it does so
*deterministically*, from a seed, so CI can replay any failure
bit-for-bit and tests can compute the exact set of injected faults.

Injection sites
---------------
* **Worker crash / hang** — :class:`ExperimentExecutor
  <repro.sim.parallel.executor.ExperimentExecutor>` forwards its
  :class:`FaultPlan` to its lease workers in the hello handshake, and
  the worker entry point calls :meth:`FaultPlan.inject` before running the job.  A crash
  is ``os._exit`` (the worker dies without cleanup, exactly like an OOM
  kill or SIGKILL); a hang is a sleep past the executor's per-job
  timeout.  Decisions are pure functions of ``(seed, job key,
  attempt)``, so :meth:`crashes_for` / :meth:`hangs_for` predict them
  exactly.  By default only the first attempt is faulted
  (``max_attempt=1``), so a retrying executor always converges.
* **Torn files** — :func:`truncate_tail` chops bytes off a JSONL trace,
  a journal, or a cache entry, reproducing a process killed mid-write.

Plans cross process boundaries two ways: as a dict in the lease
coordinator's hello response (the normal path), or serialised into the ``ETRAIN_FAULTS``
environment variable (``FaultPlan.to_env`` / ``from_env``) so an entire
CLI invocation — including its lease workers — can be faulted from the
outside, which is how the CI fault lane drives ``etrain sweep``.
"""

from __future__ import annotations

import hashlib
import json
import os
import time
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Dict, Iterable, List, Optional

__all__ = [
    "FAULTS_ENV_VAR",
    "CRASH_EXIT_CODE",
    "FaultPlan",
    "truncate_tail",
]

#: Environment variable a CLI run reads a serialised plan from.
FAULTS_ENV_VAR = "ETRAIN_FAULTS"

#: Exit status an injected crash dies with (distinct from Python's 1).
CRASH_EXIT_CODE = 87


@dataclass(frozen=True)
class FaultPlan:
    """Seeded, replayable selection of worker faults.

    ``crash_prob`` / ``hang_prob`` are per-job probabilities; whether a
    given job is faulted is decided by hashing ``(seed, kind, key,
    attempt)``, never by live RNG state, so the same plan applied to the
    same job grid injects the same faults in any process, on any run.
    Crash wins over hang when both fire.  Attempts above ``max_attempt``
    are never faulted — a retry budget of one therefore always clears an
    injected fault (raise ``max_attempt`` to exercise budget exhaustion).
    """

    seed: int = 0
    crash_prob: float = 0.0
    hang_prob: float = 0.0
    hang_seconds: float = 30.0
    max_attempt: int = 1

    def __post_init__(self) -> None:
        for name in ("crash_prob", "hang_prob"):
            p = getattr(self, name)
            if not 0.0 <= p <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {p}")
        if self.hang_seconds < 0:
            raise ValueError(f"hang_seconds must be >= 0, got {self.hang_seconds}")
        if self.max_attempt < 0:
            raise ValueError(f"max_attempt must be >= 0, got {self.max_attempt}")

    # -- deterministic decisions ------------------------------------------

    def _draw(self, kind: str, key: str, attempt: int) -> float:
        """Uniform [0, 1) from a SHA-256 of the decision coordinates."""
        payload = f"{self.seed}|{kind}|{key}|{attempt}".encode("utf-8")
        digest = hashlib.sha256(payload).digest()
        return int.from_bytes(digest[:8], "big") / 2**64

    def action(self, key: str, attempt: int = 1) -> Optional[str]:
        """``"crash"``, ``"hang"`` or None for this (job, attempt)."""
        if attempt > self.max_attempt:
            return None
        if self.crash_prob and self._draw("crash", key, attempt) < self.crash_prob:
            return "crash"
        if self.hang_prob and self._draw("hang", key, attempt) < self.hang_prob:
            return "hang"
        return None

    def crashes_for(self, keys: Iterable[str], attempt: int = 1) -> List[str]:
        """Exactly the keys that will crash on ``attempt`` (replayable)."""
        return [k for k in keys if self.action(k, attempt) == "crash"]

    def hangs_for(self, keys: Iterable[str], attempt: int = 1) -> List[str]:
        """Exactly the keys that will hang on ``attempt`` (replayable)."""
        return [k for k in keys if self.action(k, attempt) == "hang"]

    def inject(self, key: str, attempt: int = 1) -> None:
        """Execute this plan's decision for (job, attempt), if any.

        Called inside lease workers only — a crash takes the whole worker
        process down via ``os._exit`` (bypassing atexit handlers and
        ``finally`` blocks, like a kill -9 would), and a hang sleeps
        past any reasonable per-job timeout.
        """
        act = self.action(key, attempt)
        if act == "crash":
            os._exit(CRASH_EXIT_CODE)
        elif act == "hang":
            time.sleep(self.hang_seconds)

    # -- serialisation -----------------------------------------------------

    def to_dict(self) -> Dict:
        return {
            "seed": self.seed,
            "crash_prob": self.crash_prob,
            "hang_prob": self.hang_prob,
            "hang_seconds": self.hang_seconds,
            "max_attempt": self.max_attempt,
        }

    @classmethod
    def from_dict(cls, d: Dict) -> "FaultPlan":
        return cls(**d)

    def to_env(self) -> str:
        """Canonical JSON for the ``ETRAIN_FAULTS`` environment variable."""
        return json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))

    @classmethod
    def from_env(cls, environ: Optional[Dict[str, str]] = None) -> Optional["FaultPlan"]:
        """The plan named by ``ETRAIN_FAULTS``, or None when unset/empty."""
        env = os.environ if environ is None else environ
        raw = env.get(FAULTS_ENV_VAR, "").strip()
        if not raw:
            return None
        return cls.from_dict(json.loads(raw))

    @classmethod
    def parse(cls, text: str) -> "FaultPlan":
        """Build a plan from CLI shorthand, e.g. ``crash=0.2,hang=0.1,seed=3``.

        Accepted keys: ``crash`` (crash_prob), ``hang`` (hang_prob),
        ``seed``, ``hang_seconds``, ``max_attempt``.
        """
        aliases = {"crash": "crash_prob", "hang": "hang_prob"}
        plan = cls()
        for item in text.split(","):
            item = item.strip()
            if not item:
                continue
            name, sep, value = item.partition("=")
            if not sep:
                raise ValueError(f"fault spec needs KEY=VALUE, got {item!r}")
            field = aliases.get(name.strip(), name.strip())
            if field in ("seed", "max_attempt"):
                plan = replace(plan, **{field: int(value)})
            elif field in ("crash_prob", "hang_prob", "hang_seconds"):
                plan = replace(plan, **{field: float(value)})
            else:
                raise ValueError(f"unknown fault spec key {name.strip()!r}")
        return plan


def truncate_tail(path, nbytes: int = 16) -> int:
    """Chop ``nbytes`` off the end of ``path``; returns the new size.

    Reproduces a crash mid-write: the file ends in a torn partial record
    (a JSONL line without its closing newline, half a JSON document, …).
    Truncating to zero or beyond simply empties the file.
    """
    if nbytes < 0:
        raise ValueError(f"nbytes must be >= 0, got {nbytes}")
    path = Path(path)
    size = path.stat().st_size
    new_size = max(0, size - nbytes)
    with open(path, "r+b") as fh:
        fh.truncate(new_size)
    return new_size

