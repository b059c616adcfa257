"""Pinned digests of the decision-loop kernels' raw chunk output.

These are the kernels with a per-device decision state: the eTrain
family (eTrain, channel-aware, adaptive) and PerES.

The fleet-vs-scalar suite checks aggregates to rtol 1e-6; these pins
hold the raw ``FleetChunkRaw`` arrays themselves — every burst row, in
order, and every packet's burst — to SHA-256 digests recorded from the
per-slot implementation of each kernel loop.  Any change to the loop
that moves one float, reorders one row or re-points one packet fails
here, which is what lets the loop be restructured for speed and still
be called bit-identical.
"""

import hashlib

import numpy as np
import pytest

from repro.bandwidth.synth import wuhan_bandwidth_model
from repro.sim.fleet.channel import ChannelTable
from repro.sim.fleet.engine import simulate_fleet_chunk
from repro.sim.fleet.workload import synthesize_fleet

HORIZON = 7200.0
SEED = 7
FIELDS = ("burst_dev", "burst_start", "burst_dur", "burst_size", "burst_kind", "pk_burst")

#: (devices, phase_mode, strategy, params[, horizon]) -> digest; the
#: horizon defaults to ``HORIZON``
PINS = [
    (1, "fixed", "etrain", None,
     "1e1e1c0cf323ad57bcfa824d50bbce6652405e562b08db24228bd3b954b79bfb"),
    (1, "fixed", "channel_aware", None,
     "6f41a30106a7e2c954fc7002622b5e1b3c5ff58ff2ab9028cf5378bd32d66c6b"),
    (1, "fixed", "adaptive", None,
     "177341bd9867ddfc021de4fe296b0e6049c2c61e6eb44a1b150129d1bd2ee4f3"),
    (4, "random", "etrain", None,
     "21355e2c572ba0b6007ab4998df781d7ba4e437b16c1f884c3d35e9f388bec7a"),
    (4, "random", "channel_aware", None,
     "f359dfc72ee50287a55c47002ab944f6d47e00734c0f6d2e5e16683ac28223e5"),
    (4, "random", "adaptive", None,
     "60d6f511f8dac025af11c612c7efefb4a245d6ea2f72a5ba557570b0ab180eff"),
    (37, "random", "etrain", None,
     "fefbbd1e185dd80ab64b1a7ca1601bcf77317bd251e1afc680ec9b8a5cdb0115"),
    (37, "random", "channel_aware", None,
     "27bb050317b83da5ac405923daf5308a0555fdd82d4d7352f1b5835aafd761a8"),
    (37, "random", "adaptive", None,
     "62af503397925717045c61953f4fba08af19b28e198fbcf6b29b5e7b21169bfc"),
    (37, "random", "etrain", {"theta": 0.5, "warm_gate": False},
     "804deac18980374d73f74f74d6c23d94d369378e467b76581d9eaf3bb9036017"),
    (37, "random", "channel_aware", {"quality_threshold": 1.2, "max_defer": 10.0},
     "b15f898ad7b73559ebd560e5ff0913248f47fca0bd3ff259be9b1e594dac577f"),
    (37, "random", "adaptive", {"target_delay": 20.0, "warm_gate": False},
     "e82667a356a2aea6ae483480e058456d49d6bb5c6401f17fa964b91e5186bd74"),
    (1, "fixed", "peres", None,
     "071966804c005a472cb011dbfead70ba7be10fc8ad93ef4919147405d66c2f08"),
    (4, "random", "peres", None,
     "f3a46609bdf3c268fafa60872ca1379d7da3dc4ec9032b95898eeb68d414623f"),
    (37, "random", "peres", None,
     "03f06471ad99842f8278c9446ee0e3f3182d26863a42976d7594f4cd55e958cf"),
    (37, "random", "peres", {"omega": 0.1},
     "04f4d5dde688ece256308436c3a8f86631559e173729bd604cd36d187b9fc604"),
    (37, "random", "peres", {"omega": 2.0, "v_init": 5.0},
     "341fb057ff8a187ebddea84d74f85081e76944d00b050d7e7fc407cffd581f71"),
    (37, "random", "peres", {"lag": 0.0, "noise": 0.0},
     "8f33eeddabc0ad1f5240727479ca363f04fa487987a65058bc266c94d85d842a"),
    # A Θ no queue reaches: only heartbeats release, so the gaps between
    # a device's stops run longer than the kernel's lookahead window.
    (16, "random", "etrain", {"theta": 1e9},
     "6cfa34d64ef7ac0616693b5f733654b107fa7f31a4f4c7844fecb1323ec12f02"),
    (16, "fixed", "adaptive", None,
     "3680d3a5b287f01b320a66e8190ceb65a8968c36b1353278bda5228fd34cf458"),
    (16, "fixed", "channel_aware", None,
     "f03092427024eb3dafaa0cc38c964eca31b678f91e50c2d2c97ede08a59e7652"),
    (1, "random", "etrain", None, 300.0,
     "a2289c42656443ead765d79fcff7d9ce64987c1f00b2db97d2fd89022d8a68f7"),
]

_TABLE = {}


def _pin_id(pin) -> str:
    devices, _, strategy, params = pin[:4]
    pid = f"{strategy}-{devices}dev-{'custom' if params else 'default'}"
    return pid if len(pin) == 5 else f"{pid}-{pin[4]:g}s"


def raw_digest(raw) -> str:
    h = hashlib.sha256()
    for name in FIELDS:
        a = np.ascontiguousarray(getattr(raw, name))
        h.update(name.encode())
        h.update(str(a.dtype).encode())
        h.update(a.tobytes())
    return h.hexdigest()


@pytest.mark.parametrize("pin", PINS, ids=[_pin_id(p) for p in PINS])
def test_raw_chunk_matches_pinned_digest(pin):
    devices, phase_mode, strategy, params = pin[:4]
    horizon = pin[4] if len(pin) == 6 else HORIZON
    if horizon not in _TABLE:
        _TABLE[horizon] = ChannelTable.from_model(wuhan_bandwidth_model(), horizon)
    workload = synthesize_fleet(devices, horizon, SEED, phase_mode=phase_mode)
    raw = simulate_fleet_chunk(workload, _TABLE[horizon], strategy=strategy, params=params)
    assert raw_digest(raw) == pin[-1]
