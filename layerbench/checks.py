"""Output checks: compare what the program returned with its own oracles.

Pure functions over plain data so the benchmark's tests can feed them a
deliberately wrong answer and see it refused.  Each returns a list of
problems; an empty list means the output passed.
"""

from __future__ import annotations

import bisect
import hashlib
import json
from typing import Dict, List, Sequence

__all__ = [
    "COUNT_FIELDS",
    "FLOAT_FIELDS",
    "digest",
    "summaries_match",
    "summary_sane",
    "same_json",
    "open_loop_problems",
]

#: FleetChunkSummary fields that must agree exactly / within rtol.
COUNT_FIELDS = ("devices", "packets", "bursts", "heartbeats", "piggyback_hits", "violations")
FLOAT_FIELDS = ("delay_sum", "delay_cost_sum", "energy_total_j", "energy_tail_j", "energy_tx_j")


def digest(payload) -> str:
    """SHA-256 of canonical JSON (floats as repr, so bit-exact)."""
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def summaries_match(got: Dict, want: Dict, rtol: float) -> List[str]:
    """Two ``FleetChunkSummary.to_dict()`` payloads, harness tolerance.

    Counts and histograms must be equal; float sums may differ by
    re-association, up to ``rtol`` relative (floored at 1.0 absolute
    scale, as the conformance harness does).
    """
    problems = []
    for key in COUNT_FIELDS:
        if got[key] != want[key]:
            problems.append(f"{key}: {got[key]!r} != {want[key]!r}")
    for key in FLOAT_FIELDS:
        a, b = float(got[key]), float(want[key])
        if not abs(a - b) <= rtol * max(abs(a), abs(b), 1.0):
            problems.append(f"{key}: {a!r} vs {b!r} beyond rtol {rtol:g}")
    for key in ("energy_hist", "delay_hist"):
        if list(got[key]) != list(want[key]):
            problems.append(f"{key} differs")
    return problems


def summary_sane(summary: Dict, devices: int) -> List[str]:
    """Internal consistency of one merged fleet summary."""
    problems = []
    if summary["devices"] != devices:
        problems.append(f"devices {summary['devices']} != {devices}")
    if sum(summary["energy_hist"]) != summary["devices"]:
        problems.append("energy histogram does not count every device")
    if sum(summary["delay_hist"]) != summary["packets"]:
        problems.append("delay histogram does not count every packet")
    if summary["packets"] <= 0 or not summary["energy_total_j"] > 0:
        problems.append("no packets or no energy simulated")
    return problems


def same_json(got: Dict, want: Dict, label: str) -> List[str]:
    """Bit-for-bit equality of two summary dicts (NaN-safe via repr)."""
    if json.dumps(got, sort_keys=True) == json.dumps(want, sort_keys=True):
        return []
    return [f"{label}: pooled summary differs from in-process run_job"]


def open_loop_problems(
    late_ms_p99: float,
    late_limit_ms: float,
    bulk_due: Sequence[float],
    idle_times: Sequence[float],
) -> List[str]:
    """Did the generator keep its schedule and the backlog drain?

    ``idle_times`` are the instants the stream connection had nothing
    outstanding (sorted).  Between two consecutive bulk frames there
    must be at least one such instant, or the stall of one bulk request
    was never worked off before the next arrived.
    """
    problems = []
    if late_ms_p99 > late_limit_ms:
        problems.append(
            f"generator fell behind: late p99 {late_ms_p99:.1f} ms > {late_limit_ms} ms"
        )
    for lo, hi in zip(bulk_due, bulk_due[1:]):
        k = bisect.bisect_left(idle_times, lo)
        if k >= len(idle_times) or idle_times[k] >= hi:
            problems.append(f"stream backlog never drained between bulk frames at {lo:.2f}s")
            break
    return problems
