#!/usr/bin/env python3
"""Roaming: a three-cell wireless WAN with inter-cell e-mail and handoff.

Builds the paper's full system model (Section 2.2): three cells whose
base stations are joined by a wired point-to-point backbone.  Data
subscribers exchange e-mails across cells -- uplink at the source cell,
backbone hop, downlink at the destination cell -- and one subscriber
roams across all three cells mid-run, re-registering through each new
cell's contention slots while its uplink queue travels along.

The network is a 1x3 city run as one shard for one epoch, with the
random mobility model switched off and the roamer's handoffs scripted.

Run::

    python examples/roaming.py
"""

from repro.core.cell import finalize_run
from repro.core.config import CellConfig
from repro.shard.config import CityConfig, MobilityConfig
from repro.shard.shard import ShardSim


def main() -> None:
    city = CityConfig(
        rows=1, cols=3, num_shards=1,
        cell=CellConfig(num_data_users=6, num_gps_users=2,
                        load_index=0.0),  # the network generates traffic
        load_index=0.4,
        inter_cell_fraction=0.6,
        backbone_latency=0.005,  # 5 ms wired hop
        epochs=1, cycles_per_epoch=220, warmup_cycles=20,
        mobility=MobilityConfig(movers_per_cell=0),
        seed=6)
    net = ShardSim(city, shard_id=0)

    roamer = net.runs[0].data_users[0]
    print(f"roamer: {roamer.name} (EIN {roamer.ein:#06x})")
    itinerary = [(1, 60), (2, 120), (0, 180)]
    for cell_index, cycle in itinerary:
        net.handoff(roamer.ein, cell_index, at_cycle=cycle)

    counters = net.run_epoch(0)["counters"]
    cells = [net.runs[cell_id] for cell_id in net.cell_ids]
    for cell in cells:
        finalize_run(cell)

    routed = counters["messages_routed"]
    local = counters["messages_delivered_local"]
    forwarded = counters["messages_forwarded"]
    received = counters["messages_received"]
    delay = counters["end_to_end_delay_total"] / max(received, 1)
    print()
    print("network-level results")
    print("---------------------")
    print(f"messages routed            : {routed}")
    print(f"  terminated at local BS   : {routed - local - forwarded}")
    print(f"  delivered within cell    : {local}")
    print(f"  forwarded over backbone  : {forwarded}")
    print(f"buffered awaiting handoff  : "
          f"{counters['messages_buffered_for_registration']}")
    print(f"end-to-end delay           : mean {delay:.1f} s "
          f"({received} messages)")
    print(f"handoffs completed         : {counters['handoffs_local']}")
    print(f"backbone                   : "
          f"{net.backbone.total_items} messages, "
          f"{net.backbone.total_bytes} bytes")
    print()
    print("per-cell results")
    print("----------------")
    for index, cell in enumerate(cells):
        s = cell.stats
        print(f"cell {index}: uplink packets {s.data_packets_delivered:4d}, "
              f"registrations {s.registrations_completed}, "
              f"GPS misses {s.gps_deadline_misses}, "
              f"radio violations {int(s.radio_violations)}")
    print()
    print(f"roamer finished in cell {net.directory[roamer.ein]} with "
          f"state {roamer.state!r} (uid {roamer.uid})")


if __name__ == "__main__":
    main()
