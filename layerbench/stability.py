#!/usr/bin/env python3
"""Repeat the benchmark and record how steady each end-to-end metric is.

Usage, from the repository root::

    python3 layerbench/stability.py

Each of ``SETS`` sets makes ``RUNS`` interleaved rounds (one run of every
workload per round, ``run_seconds`` from ``BENCHMARK.json``, seed = round
number + ``SEED_BASE``); sets run one after the other, so the second set
sees the host at a later time, as a second measurement of the same code
would.  For every workload x metric the record holds each set's median
and quartiles (``statistics.quantiles``, n=4), the spread (interquartile
distance over the median), the bound from ``BENCHMARK.json`` and the
shift between the two sets' medians.  It is written to ``STABILITY.md``
beside this file, with the raw values in ``STABILITY.json``.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from run import SPEC, WORKLOADS  # noqa: E402

RUNS = 10
SETS = 2
SEED_BASE = 100
RECORD = HERE / "STABILITY.md"


def one_run(workload: str, seed: int, seconds: float) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} failed:\n{proc.stdout}\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    result["digest"] = next(l.split(":", 1)[1] for l in lines if l.startswith("digest sha256:"))
    probe = next(l for l in lines if l.startswith("host.probe_ms "))
    result["probe_ms"] = [float(x.split("=")[1]) for x in probe.split()[1:]]
    return result


def summarize(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med}


def main() -> int:
    seconds = SPEC["run_seconds"]
    raw = {w: [[] for _ in range(SETS)] for w in WORKLOADS}
    started = time.time()
    for s in range(SETS):
        for r in range(RUNS):
            for w in WORKLOADS:
                res = one_run(w, SEED_BASE + r, seconds)
                raw[w][s].append(res)
                vals = {k: round(v["value"], 4) for k, v in res["metrics"].items()}
                print(f"set {s} run {r} {w} correct={res['correct']} {vals}", flush=True)
    lines = [
        "# layerbench stability record",
        "",
        f"{SETS} sets x {RUNS} interleaved runs per workload, {seconds:g} s each, "
        f"seeds {SEED_BASE}..{SEED_BASE + RUNS - 1}; "
        f"{(time.time() - started) / 60:.0f} min in all.",
        "Spread = (q3 - q1) / median of one set; shift = set 2 median / set 1 median - 1, "
        "signed so that positive is worse. host.probe_ms is a fixed pure-Python loop timed "
        "before and after every run (about 70 ms on an idle host): where it rises, the host "
        "was slow, not the code. setup_s is the median of six fresh-process set-ups per run "
        "(three before the case, three after it): one sub-second set-up jitters by more "
        "than its bound.",
        "",
    ]
    ok = True
    for w in WORKLOADS:
        lines += [f"## {w}", "", WORKLOADS[w], ""]
        runs = [r for one in raw[w] for r in one]
        bad = sum(not r["correct"] for r in runs)
        ok &= bad == 0
        same = all(len({one[i]["digest"] for one in raw[w]}) == 1 for i in range(RUNS))
        ok &= same
        lines.append(f"Runs with a failed check: {bad} of {len(runs)}. "
                     f"Digests identical across sets for every seed: {same}.")
        probes = ", ".join(
            f"set {s + 1} {statistics.median(p for r in one for p in r['probe_ms']):.1f}"
            f" [{min(p for r in one for p in r['probe_ms']):.1f}, "
            f"{max(p for r in one for p in r['probe_ms']):.1f}]"
            for s, one in enumerate(raw[w])
        )
        lines.append(f"host.probe_ms median [min, max] around these runs: {probes}.")
        lines += ["", "| metric | bound | set 1 median [q1, q3] | spread "
                  "| set 2 median [q1, q3] | spread | shift |", "|---" * 7 + "|"]
        for metric in SPEC["end_to_end"]:
            stats = [summarize([r["metrics"][metric["name"]]["value"] for r in one])
                     for one in raw[w]]
            cells = " | ".join(
                f"{st['median']:.4g} [{st['q1']:.4g}, {st['q3']:.4g}] | {st['spread']:.1%}"
                for st in stats
            )
            shift = stats[1]["median"] / stats[0]["median"] - 1
            if metric["better"] == "higher":
                shift = -shift
            lines.append(f"| {metric['name']} | {metric['bound']:.0%} | {cells} | {shift:+.1%} |")
        lines.append("")
    text = "\n".join(lines)
    print(text)
    RECORD.write_text(text, encoding="utf-8")
    RECORD.with_suffix(".json").write_text(json.dumps(raw, indent=1), encoding="utf-8")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
