"""Online scheduling service: the paper's system as a long-running daemon.

The batch simulator answers "what would eTrain have done over this 2 h
trace"; this package answers it *online* — per-device event streams
(heartbeat observations, cargo arrivals) arrive over newline-delimited
JSON TCP and piggyback decisions stream back in real time, produced by
the exact decision kernel the simulator runs (:mod:`repro.sim.decision`).
Because the kernel is shared, the dense/event/fleet equivalence oracles
transitively certify the server: replaying a fleet workload through
``etrain serve`` is bit-identical to the batch run.

Modules
-------
protocol   frame schema, canonical encoding, versioned field contract
sessions   per-device session machine + O(1) session store with
           pending-cargo-safe LRU eviction
batcher    bounded admission inbox (watermark shedding) + micro-batching
server     asyncio NDJSON TCP server (``etrain serve``)
loadgen    workload-replay load generator (``etrain loadgen``)
"""
