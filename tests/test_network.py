"""Tests for the multi-cell network layer: backbone, routing, handoff.

The multi-cell model is :class:`repro.shard.shard.ShardSim`; these tests
drive it the way ``repro network`` does, as one shard running a 1xN
city for a single epoch with scripted handoffs.
"""

import pytest

from repro.core.cell import finalize_run
from repro.core.config import CellConfig
from repro.network import Backbone, BackboneLink
from repro.phy import timing
from repro.shard.config import CityConfig, MobilityConfig
from repro.shard.shard import ShardSim
from repro.sim import Simulator
from repro.traffic.messages import Message


class TestBackboneLink:
    def test_latency_and_serialization(self):
        sim = Simulator()
        link = BackboneLink(sim, latency=0.010,
                            bandwidth_bytes_per_s=1000.0)
        arrivals = []
        link.send("a", 100, lambda item: arrivals.append((item, sim.now)))
        sim.run()
        # 100 bytes at 1000 B/s = 0.1 s serialization + 0.01 s latency.
        assert arrivals == [("a", pytest.approx(0.11))]

    def test_fifo_queueing(self):
        sim = Simulator()
        link = BackboneLink(sim, latency=0.0,
                            bandwidth_bytes_per_s=1000.0)
        arrivals = []
        link.send("a", 100, lambda item: arrivals.append((item, sim.now)))
        link.send("b", 100, lambda item: arrivals.append((item, sim.now)))
        sim.run()
        assert arrivals[0] == ("a", pytest.approx(0.1))
        assert arrivals[1] == ("b", pytest.approx(0.2))
        assert link.items_carried == 2
        assert link.bytes_carried == 200
        assert link.total_queueing_delay == pytest.approx(0.1)

    def test_validation(self):
        sim = Simulator()
        with pytest.raises(ValueError):
            BackboneLink(sim, latency=-1, bandwidth_bytes_per_s=1)
        with pytest.raises(ValueError):
            BackboneLink(sim, latency=0, bandwidth_bytes_per_s=0)


class TestBackbone:
    def test_links_created_on_demand(self):
        sim = Simulator()
        backbone = Backbone(sim)
        first = backbone.link(0, 1)
        assert backbone.link(0, 1) is first
        assert backbone.link(1, 0) is not first  # directed

    def test_no_self_links(self):
        backbone = Backbone(Simulator())
        with pytest.raises(ValueError):
            backbone.link(2, 2)

    def test_send_and_totals(self):
        sim = Simulator()
        backbone = Backbone(sim, latency=0.001,
                            bandwidth_bytes_per_s=10000)
        got = []
        backbone.send(0, 1, "x", 50, got.append)
        sim.run()
        assert got == ["x"]
        assert backbone.total_items == 1
        assert backbone.total_bytes == 50


def network_shard(**overrides):
    """A one-shard, one-epoch 1xN city (two cells by default)."""
    defaults = dict(
        rows=1, cols=2, num_shards=1,
        cell=CellConfig(num_data_users=5, num_gps_users=1,
                        load_index=0.0),
        load_index=0.4, inter_cell_fraction=0.6,
        epochs=1, cycles_per_epoch=100, warmup_cycles=15,
        mobility=MobilityConfig(movers_per_cell=0), seed=3)
    defaults.update(overrides)
    return ShardSim(CityConfig(**defaults), 0)


def run_to_end(net):
    """Run the whole epoch, fold the radio audits in, return counters."""
    report = net.run_epoch(0)
    for cell in net.runs.values():
        finalize_run(cell)
    return report["counters"]


def mean_delay(counters):
    return counters["end_to_end_delay_total"] / counters["messages_received"]


class TestMultiCellRouting:
    def test_messages_cross_the_backbone(self):
        net = network_shard(cols=3)
        counters = run_to_end(net)
        assert counters["messages_forwarded"] > 10
        assert counters["messages_received"] > 20
        assert net.backbone.total_items == counters["messages_forwarded"]

    def test_intra_cell_messages_stay_local(self):
        net = network_shard(inter_cell_fraction=0.0)
        counters = run_to_end(net)
        assert counters["messages_forwarded"] == 0
        assert net.backbone.total_items == 0
        # The uplink still carries traffic (terminating at the BS).
        assert counters["messages_routed"] > 10

    def test_every_cell_operates_cleanly(self):
        net = network_shard(cols=3)
        run_to_end(net)
        for cell in net.runs.values():
            assert cell.stats.radio_violations == 0
            assert cell.stats.registrations_completed \
                == cell.config.num_data_users + cell.config.num_gps_users

    def test_end_to_end_delay_exceeds_single_hop(self):
        """An inter-cell message pays uplink + backbone + downlink."""
        counters = run_to_end(network_shard())
        # Uplink alone takes ~3 cycles at this load; end-to-end adds the
        # downlink scheduling, so the mean must exceed one cycle time.
        assert mean_delay(counters) > timing.CYCLE_LENGTH


class TestHandoff:
    def test_subscriber_moves_and_reregisters(self):
        net = network_shard()
        mover = net.runs[0].data_users[0]
        net.handoff(mover.ein, 1, at_cycle=40)
        counters = run_to_end(net)
        assert counters["handoffs_local"] == 1
        assert net.directory[mover.ein] == 1
        assert mover.state == "active"
        assert mover.uid is not None
        # The new cell approved one extra registration.
        assert net.runs[1].stats.registrations_completed \
            == net.runs[1].config.num_data_users \
            + net.runs[1].config.num_gps_users + 1

    def test_round_trip_handoff(self):
        net = network_shard()
        mover = net.runs[0].data_users[1]
        net.handoff(mover.ein, 1, at_cycle=30)
        net.handoff(mover.ein, 0, at_cycle=70)
        counters = run_to_end(net)
        assert counters["handoffs_local"] == 2
        assert net.directory[mover.ein] == 0
        assert mover.state == "active"

    def test_no_radio_violations_across_handoff(self):
        net = network_shard()
        mover = net.runs[0].data_users[0]
        net.handoff(mover.ein, 1, at_cycle=40)
        run_to_end(net)
        assert len(mover.radio.violations) == 0

    def test_messages_buffered_during_handoff_are_delivered(self):
        """Traffic addressed to a subscriber that is mid-handoff waits at
        the destination base station and flushes on registration."""
        net = network_shard(inter_cell_fraction=0.0)
        mover = net.runs[0].data_users[0]
        move_at = 40 * timing.CYCLE_LENGTH
        net.handoff(mover.ein, 1, at_cycle=40)

        # Inject a message addressed to the mover right after it leaves,
        # while it has not yet registered in cell 1.
        def inject():
            message = Message(message_id=999999, size_bytes=100,
                              created_at=net.sim.now,
                              destination_ein=mover.ein)
            net._route(1, message)

        net.sim.call_at(move_at + 0.5, inject)
        received = []
        previous_hook = mover.on_message_received

        def on_received(packet):
            if packet.message_id == 999999:
                received.append(net.sim.now)
            if previous_hook:
                previous_hook(packet)

        mover.on_message_received = on_received
        counters = run_to_end(net)
        assert counters["messages_buffered_for_registration"] >= 1
        assert received, "buffered message never reached the mover"

    def test_buffered_messages_flush_exactly_once_on_registration(self):
        """The paging path end to end: messages for a mid-handoff
        destination land in ``_waiting``, are counted, and the
        registration handler flushes each exactly once -- never again on
        later re-registrations."""
        net = network_shard(load_index=0.0, inter_cell_fraction=0.0)
        mover = net.runs[0].data_users[0]
        move_at = 40 * timing.CYCLE_LENGTH
        net.handoff(mover.ein, 1, at_cycle=40)

        def inject():
            # Two distinct messages while the mover is unregistered:
            # both must wait in _waiting, then flush together.
            for message_id in (777001, 777002):
                net._route(1, Message(
                    message_id=message_id, size_bytes=120,
                    created_at=net.sim.now,
                    destination_ein=mover.ein))
            assert len(net._waiting[mover.ein]) == 2

        net.sim.call_at(move_at + 0.5, inject)
        deliveries = []
        previous_hook = mover.on_message_received

        def on_received(packet):
            if packet.message_id in (777001, 777002):
                deliveries.append((packet.message_id, net.sim.now))
            if previous_hook:
                previous_hook(packet)

        mover.on_message_received = on_received
        # A second handoff after the flush: re-registering in cell 0
        # must not replay the already-delivered messages.
        net.handoff(mover.ein, 0, at_cycle=70)
        counters = run_to_end(net)
        assert counters["messages_buffered_for_registration"] == 2
        received_ids = sorted(message_id
                              for message_id, _time in deliveries)
        assert received_ids == [777001, 777002], deliveries
        assert all(at > move_at for _mid, at in deliveries)
        assert net._waiting == {}

    def test_uplink_queue_travels_with_subscriber(self):
        net = network_shard(load_index=0.3, inter_cell_fraction=0.0)
        mover = net.runs[0].data_users[0]

        # Fill the mover's queue right before the handoff...
        move_at = 40 * timing.CYCLE_LENGTH

        def fill():
            mover.submit_message(Message(message_id=888888,
                                         size_bytes=200,
                                         created_at=net.sim.now))

        net.sim.call_at(move_at - 0.1, fill)
        net.handoff(mover.ein, 1, at_cycle=40)
        run_to_end(net)
        # ...and the packets drain through the *new* cell.
        assert mover.state == "active"
        assert not mover.queue
        # Anything still in flight belongs to the very last cycle (its
        # ACK cycle lies beyond the end of the run).
        last_cycle = net.runs[1].base_station.cycle
        assert all(cycle >= last_cycle - 1
                   for cycle, _slot in mover.inflight)

    def test_handoff_validation(self):
        net = network_shard()
        ein = net.runs[0].data_users[0].ein
        with pytest.raises(ValueError):
            net.handoff(0xDEAD, 1, at_cycle=10)
        with pytest.raises(ValueError):
            net.handoff(ein, 7, at_cycle=10)
        with pytest.raises(ValueError):
            net.handoff(ein, 1, at_cycle=-1)
        with pytest.raises(ValueError):
            net.handoff(ein, 1, at_cycle=100)  # the run has 100 cycles


class TestGpsHandoff:
    def test_gps_unit_moves_between_cells(self):
        """A bus crossing a cell boundary: its GPS unit signs off, re-
        registers in the new cell, gets a GPS slot there (R2), and the
        old cell consolidates (R3/format switch)."""
        net = network_shard()
        unit = net.runs[0].gps_units[0]
        net.handoff(unit.ein, 1, at_cycle=40)
        counters = run_to_end(net)
        assert counters["handoffs_by_cell"] == {"1/gps": 1}
        assert unit.state == "active"
        new_bs = net.runs[1].base_station
        old_bs = net.runs[0].base_station
        assert new_bs.gps_mgr.slot_of(unit.uid) is not None
        assert old_bs.gps_mgr.active_count \
            == net.city.cell.num_gps_users - 1
        old_bs.gps_mgr.check_invariants()
        new_bs.gps_mgr.check_invariants()
        # The unit keeps reporting in its new cell with zero deadline
        # misses (the QoS clock restarts at activation).
        assert len(unit.radio.violations) == 0
