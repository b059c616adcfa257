"""Vectorized channel state for fleet simulations.

The scalar path answers "how long does a burst of S bytes starting at t
take?" one burst at a time through
:meth:`repro.bandwidth.models.TraceBandwidth.transfer_duration`.  A fleet
chunk asks the same question for thousands of devices per slot, so this
module flattens the trace into two plain float64 arrays —

* ``samples[k]`` — the uplink rate over whole second ``[k, k+1)``,
  extended past the trace end by the model's wrap/clamp semantics, and
* ``prefix[k]`` — cumulative bytes carried by the first ``k`` whole
  seconds (``prefix[0] == 0``),

so a batch of burst-end solves becomes one ``searchsorted`` against the
prefix array.  Durations agree with the scalar integrator to float-
summation rounding (~1e-11 relative; the scalar path itself only claims
that much across its fast/generic variants).

For a 2-hour trace extended by the 86 400 s transfer guard the arrays
are ~1.5 MB: cheap once per process, pointless once per chunk.
:func:`channel_table` is the one per-process memo every fleet path
reads (``run_fleet`` chunks, lease workers, the serve daemon's ``batch``
op).  ``run_fleet`` warms it before it forks its lease workers, so they
inherit the table instead of rebuilding it (see ``docs/parallelism.md``).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.bandwidth.models import ConstantBandwidth, TraceBandwidth

__all__ = [
    "ChannelTable",
    "SharedChannel",
    "SharedChannelHandle",
    "bandwidth_model",
    "channel_table",
]


#: Seconds of rate samples kept past the horizon: the scalar integrator's
#: transfer guard plus slack for a burst that begins exactly at the
#: horizon.
TRANSFER_GUARD_S = 86_400


class ChannelTable:
    """Prefix-sum view of a piecewise-constant (1 Hz) uplink rate.

    Uplink only: fleet workloads are sends (``direction="up"``), which is
    the only direction the reference scenario exercises.
    """

    __slots__ = ("samples", "prefix")

    def __init__(self, samples: np.ndarray, prefix: Optional[np.ndarray] = None):
        samples = np.ascontiguousarray(samples, dtype=np.float64)
        if samples.ndim != 1 or samples.size == 0:
            raise ValueError("samples must be a non-empty 1-D array")
        if prefix is None:
            prefix = np.empty(samples.size + 1, dtype=np.float64)
            prefix[0] = 0.0
            # np.cumsum accumulates sequentially, matching the running
            # sum the scalar TraceBandwidth prefix uses.
            np.cumsum(samples, out=prefix[1:])
        self.samples = samples
        self.prefix = np.ascontiguousarray(prefix, dtype=np.float64)

    @classmethod
    def from_model(cls, model, horizon: float) -> "ChannelTable":
        """Flatten a bandwidth model over ``[0, horizon + guard)``.

        Supports :class:`TraceBandwidth` (with ``start_time == 0``) and
        :class:`ConstantBandwidth`; anything else would need a scalar
        fallback and is rejected here.
        """
        n_ext = int(math.ceil(horizon)) + TRANSFER_GUARD_S + 2
        if isinstance(model, ConstantBandwidth):
            if model.rate <= 0:
                raise ValueError("fleet channel requires a positive rate")
            return cls(np.full(n_ext, model.rate, dtype=np.float64))
        if isinstance(model, TraceBandwidth):
            if model.start_time != 0.0:
                raise ValueError("fleet channel requires trace start_time == 0")
            base = np.asarray(model.samples, dtype=np.float64)
            idx = np.arange(n_ext, dtype=np.int64)
            if model.wrap:
                idx %= base.size
            else:
                np.minimum(idx, base.size - 1, out=idx)
            return cls(base[idx])
        raise TypeError(
            f"fleet channel cannot flatten {type(model).__name__}; "
            "use the scalar per-device fallback"
        )

    @property
    def n_seconds(self) -> int:
        return int(self.samples.size)

    def durations(self, starts: np.ndarray, sizes: np.ndarray) -> np.ndarray:
        """Vectorized ``transfer_duration``: seconds to move ``sizes`` bytes.

        ``starts`` may be fractional; each burst consumes the remainder
        of its starting second at that second's rate, then whole seconds
        until the cumulative bytes cross its size, finishing fractionally
        inside the crossing second (which necessarily has positive rate).
        """
        starts = np.asarray(starts, dtype=np.float64)
        sizes = np.asarray(sizes, dtype=np.float64)
        if np.any(starts < 0.0):
            raise ValueError("burst starts must be >= 0")
        i = np.floor(starts).astype(np.int64)
        if np.any(i >= self.samples.size):
            raise RuntimeError("burst starts past the channel table")
        prefix = self.prefix
        # F(start): cumulative bytes from trace time 0 to the start instant.
        base = prefix[i] + (starts - i) * self.samples[i]
        target = base + sizes
        j = np.searchsorted(prefix, target, side="left")
        if np.any(j >= prefix.size):
            raise RuntimeError(
                "transfer would not finish within the channel table "
                f"({TRANSFER_GUARD_S} s guard); all-zero trace region?"
            )
        # prefix[j-1] < target <= prefix[j], so second j-1 carries bytes.
        j1 = j - 1
        with np.errstate(invalid="ignore", divide="ignore"):
            end = j1 + (target - prefix[j1]) / self.samples[j1]
        dur = end - starts
        # Zero-size bursts never advance the clock.
        zero = sizes <= 0.0
        if np.any(zero):
            dur = np.where(zero, 0.0, dur)
        return dur


def bandwidth_model(kind: str, rate: Optional[float] = None):
    """The model a fleet bandwidth names: ``"wuhan"`` (the paper's 2 h
    3G uplink trace, one shared instance per process) or ``"constant"``
    at ``rate`` bytes/s."""
    if kind == "constant":
        return ConstantBandwidth(rate=float(rate))
    from repro.bandwidth.synth import wuhan_bandwidth_model

    return wuhan_bandwidth_model()


@functools.lru_cache(maxsize=8)
def channel_table(
    bandwidth: str, bandwidth_rate: Optional[float], horizon: float
) -> ChannelTable:
    """This process's read-only table for a fleet bandwidth and horizon.

    Built on a miss through :meth:`ChannelTable.from_model` (looked up at
    call time, so a patched builder sees every real build); at most 8
    tables are kept, least recently used evicted first.  The cache keys
    by value, so ``2000`` and ``2000.0`` name the same entry.
    """
    model = bandwidth_model(bandwidth, bandwidth_rate)
    table = ChannelTable.from_model(model, horizon)
    table.samples.flags.writeable = False
    table.prefix.flags.writeable = False
    return table


@dataclass(frozen=True)
class SharedChannelHandle:
    """Names and geometry needed to attach a published channel table.

    Runtime-only: excluded from job-spec content hashes (the table is a
    pure function of the bandwidth spec, not an input in its own right).
    """

    samples_name: str
    prefix_name: str
    n_seconds: int


class SharedChannel:
    """A channel table living in ``multiprocessing.shared_memory``.

    No production path publishes one any more: every process reads
    :func:`channel_table` instead.  This class, its handle and
    ``FleetChunkSpec.channel`` stay only because ``layerbench/`` (the
    benchmark harness, changed only alongside the benchmark itself)
    imports them.

    Lifecycle::

        with SharedChannel.publish(table) as shared:   # publisher
            handle = shared.handle            # picklable plain data
            with SharedChannel.attach(handle) as view: # reader
                view.table.durations(...)
        # publisher __exit__ closes AND unlinks; attacher __exit__ only
        # closes.
    """

    def __init__(self, blocks, table: ChannelTable, handle: SharedChannelHandle, owner: bool):
        self._blocks = list(blocks)
        self.table = table
        self.handle = handle
        self._owner = owner

    @classmethod
    def publish(cls, table: ChannelTable) -> "SharedChannel":
        from multiprocessing import shared_memory

        blocks = []
        arrays = []
        try:
            for src in (table.samples, table.prefix):
                block = shared_memory.SharedMemory(create=True, size=src.nbytes)
                dst = np.ndarray(src.shape, dtype=np.float64, buffer=block.buf)
                dst[:] = src
                blocks.append(block)
                arrays.append(dst)
        except BaseException:
            # Publishing the second block failed: free the first.
            for block in blocks:
                try:
                    block.close()
                    block.unlink()
                except OSError:  # pragma: no cover - already gone
                    pass
            raise
        handle = SharedChannelHandle(
            samples_name=blocks[0].name,
            prefix_name=blocks[1].name,
            n_seconds=table.n_seconds,
        )
        shared_table = ChannelTable.__new__(ChannelTable)
        shared_table.samples = arrays[0]
        shared_table.prefix = arrays[1]
        return cls(blocks, shared_table, handle, owner=True)

    @classmethod
    def attach(cls, handle: SharedChannelHandle) -> "SharedChannel":
        from multiprocessing import shared_memory

        samples_block = shared_memory.SharedMemory(name=handle.samples_name)
        prefix_block = shared_memory.SharedMemory(name=handle.prefix_name)
        n = handle.n_seconds
        table = ChannelTable.__new__(ChannelTable)
        table.samples = np.ndarray((n,), dtype=np.float64, buffer=samples_block.buf)
        table.prefix = np.ndarray((n + 1,), dtype=np.float64, buffer=prefix_block.buf)
        return cls([samples_block, prefix_block], table, handle, owner=False)

    def close(self) -> None:
        """Release this process's mapping (safe to call twice)."""
        # Drop array views first: closing a block with live buffer views
        # raises BufferError on CPython.
        self.table.samples = np.empty(0, dtype=np.float64)
        self.table.prefix = np.empty(0, dtype=np.float64)
        for block in self._blocks:
            try:
                block.close()
            except BufferError:  # pragma: no cover - view still alive
                pass

    def unlink(self) -> None:
        """Free the underlying blocks (publisher only, after close)."""
        if not self._owner:
            raise RuntimeError("only the publishing process may unlink")
        for block in self._blocks:
            try:
                block.unlink()
            except FileNotFoundError:  # pragma: no cover - already gone
                pass

    def __enter__(self) -> "SharedChannel":
        return self

    def __exit__(self, *exc) -> None:
        """Close; publishers additionally unlink (even if close raises)."""
        try:
            self.close()
        finally:
            if self._owner:
                self.unlink()
