"""The network between clients and server (Table 3 NETTHRU).

Client-Server system classes exchange messages: object/page requests
upstream, objects/pages/results downstream.  The model is a single
shared medium of NETTHRU MB/s — a despy Resource of capacity 1, so
concurrent transfers serialize (half-duplex LAN, 1999-appropriate).

Table 4 sets NETTHRU = +∞ for the O2 experiments (server and bench
client on one workstation), which this model honors by skipping the
resource entirely: zero time, but messages and bytes still counted, so
I/O-oriented results are unaffected while the ablation benches can dial
real throughputs.

Requests cross a network only through :meth:`Network.transfer_nowait`,
so the medium's acquire → hold → release lives in this module alone.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING

from repro.despy.process import PARK, Hold, Request
from repro.despy.resource import Resource
from repro.despy.timebase import MS_PER_TICK, ms_to_ticks
from repro.core.parameters import VOODBConfig

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.despy.engine import Simulation


class Network:
    """Throughput-limited message transport with counters."""

    __slots__ = (
        "sim",
        "config",
        "infinite",
        "medium",
        "_ms_per_byte",
        "_request_medium",
        "_holds",
        "messages",
        "bytes_sent",
        "busy_ticks",
    )

    def __init__(self, sim: "Simulation", config: VOODBConfig) -> None:
        self.sim = sim
        self.config = config
        self.infinite = math.isinf(config.netthru)
        self.medium = None if self.infinite else Resource(sim, "network", 1)
        self._ms_per_byte = config.network_ms_per_byte
        if not self.infinite:
            self._request_medium = Request(self.medium)
            #: message sizes repeat (MESSAGE_BYTES, PGSIZE, object sizes),
            #: so the Hold for each distinct size is built once.
            self._holds: dict = {}
        # Counters
        self.messages = 0
        self.bytes_sent = 0
        self.busy_ticks = 0

    @property
    def busy_time_ms(self) -> float:
        """Accumulated medium occupancy, reported in milliseconds."""
        return self.busy_ticks * MS_PER_TICK

    def transfer_time(self, nbytes: int) -> float:
        """Unquantized transfer time in ms (reporting/estimation only)."""
        return nbytes * self._ms_per_byte

    def transfer_ticks(self, nbytes: int) -> int:
        """Tick cost of one message — the quantity the hot path holds."""
        return ms_to_ticks(nbytes * self._ms_per_byte)

    def transfer_nowait(self, nbytes: int):
        """Count one message; return the timed-transfer generator to
        ``yield from``, or ``None`` when the medium is free (infinite
        NETTHRU) and no simulated time passes."""
        self.messages += 1
        self.bytes_sent += nbytes
        if self.infinite:
            return None
        return self._timed_transfer(nbytes)

    def _timed_transfer(self, nbytes: int):
        # One Hold per distinct size, carrying the tick-rounded cost;
        # the busy counter accrues the identical quantized ticks.
        hold = self._holds.get(nbytes)
        if hold is None:
            ticks = ms_to_ticks(nbytes * self._ms_per_byte)
            hold = self._holds[nbytes] = Hold(ticks)
        self.busy_ticks += hold.duration
        medium = self.medium
        if not medium.try_acquire_inline():
            yield self._request_medium
        yield hold
        if not medium.release_inline():
            yield PARK

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        throughput = "inf" if self.infinite else f"{self.config.netthru}MB/s"
        return f"<Network {throughput} messages={self.messages}>"
