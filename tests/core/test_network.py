"""Unit tests for the network model (Table 3 NETTHRU)."""

import math

import pytest

from repro.despy import Simulation
from repro.core import Network, VOODBConfig


def make_network(netthru=1.0):
    sim = Simulation()
    return sim, Network(sim, VOODBConfig(netthru=netthru))


class TestTransferTime:
    def test_one_megabyte_at_one_mbps_takes_one_second(self):
        sim, net = make_network(netthru=1.0)
        assert net.transfer_time(2**20) == pytest.approx(1000.0)

    def test_infinite_throughput_is_instant(self):
        sim, net = make_network(netthru=math.inf)
        assert net.transfer_time(10**9) == 0.0
        assert net.infinite

    def test_faster_network_scales_linearly(self):
        __, slow = make_network(netthru=1.0)
        __, fast = make_network(netthru=10.0)
        nbytes = 4096
        assert slow.transfer_time(nbytes) == pytest.approx(
            10.0 * fast.transfer_time(nbytes)
        )


class TestTransfers:
    def test_transfer_advances_clock(self):
        sim, net = make_network(netthru=1.0)
        sim.process(net.transfer_nowait(2**20))
        sim.run()
        assert sim.now_ms == pytest.approx(1000.0)
        assert net.messages == 1
        assert net.bytes_sent == 2**20

    def test_infinite_network_still_counts_messages(self):
        sim, net = make_network(netthru=math.inf)
        assert net.transfer_nowait(4096) is None
        assert net.transfer_nowait(128) is None
        assert sim.now == 0
        assert net.messages == 2
        assert net.bytes_sent == 4096 + 128

    def test_round_trip_counts_two_messages(self):
        sim, net = make_network(netthru=1.0)

        def round_trip():
            yield from net.transfer_nowait(128)
            yield from net.transfer_nowait(4096)

        sim.process(round_trip())
        sim.run()
        assert net.messages == 2
        assert net.bytes_sent == 128 + 4096
        assert net.busy_ticks == net.transfer_ticks(128) + net.transfer_ticks(4096)

    def test_medium_serializes_transfers(self):
        sim, net = make_network(netthru=1.0)
        finished = []

        def sender(tag):
            yield from net.transfer_nowait(2**20)
            finished.append((tag, sim.now_ms))

        sim.process(sender(0))
        sim.process(sender(1))
        sim.run()
        assert finished[0][1] == pytest.approx(1000.0)
        assert finished[1][1] == pytest.approx(2000.0)
