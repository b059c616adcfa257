"""Online scheduling service: the paper's system as a long-running daemon.

The batch simulator answers "what would eTrain have done over this 2 h
trace"; this package answers it *online* — per-device event streams
(heartbeat observations, cargo arrivals) arrive over newline-delimited
JSON TCP and piggyback decisions stream back in real time.  Each
device session drives one resumable :class:`repro.sim.engine.Simulation`
— the batch engine itself, fed event by event — so replaying a fleet
workload through ``etrain serve`` is bit-identical to the batch run, and
the dense/event/fleet equivalence oracles certify the server.

Modules
-------
protocol   frame schema, canonical encoding, versioned field contract
sessions   per-device session machine + O(1) session store with
           pending-cargo-safe LRU eviction
batcher    bounded admission inbox (watermark shedding) + micro-batching
server     asyncio NDJSON TCP server (``etrain serve``)
loadgen    workload-replay load generator (``etrain loadgen``)
"""
