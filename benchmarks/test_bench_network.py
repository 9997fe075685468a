"""Bench N1: multi-cell network with inter-cell traffic and handoffs.

Not a paper artifact (the paper evaluates one cell); this benchmarks the
wide-area layer the paper's system model describes -- backbone
forwarding, end-to-end delivery, handoff -- at a fixed scenario so its
cost and behaviour are tracked.  The network is a 1x3 city run as one
shard for one epoch, the way ``repro network`` runs it.
"""

from repro.core.cell import finalize_run
from repro.core.config import CellConfig
from repro.shard.config import CityConfig, MobilityConfig
from repro.shard.shard import ShardSim


def test_three_cell_network_with_handoffs(benchmark):
    def scenario():
        city = CityConfig(
            rows=1, cols=3, num_shards=1,
            cell=CellConfig(num_data_users=5, num_gps_users=2,
                            load_index=0.0),
            load_index=0.4, inter_cell_fraction=0.6,
            epochs=1, cycles_per_epoch=100, warmup_cycles=15,
            mobility=MobilityConfig(movers_per_cell=0), seed=4)
        network = ShardSim(city, shard_id=0)
        roamer = network.runs[0].data_users[0]
        network.handoff(roamer.ein, 1, at_cycle=40)
        network.handoff(roamer.ein, 2, at_cycle=70)
        counters = network.run_epoch(0)["counters"]
        for cell in network.runs.values():
            finalize_run(cell)
        return network, counters

    network, counters = benchmark.pedantic(scenario, rounds=1,
                                           iterations=1)
    received = counters["messages_received"]
    print()
    print(f"messages routed    : {counters['messages_routed']}")
    print(f"over the backbone  : {counters['messages_forwarded']}")
    print(f"end-to-end delay   : "
          f"{counters['end_to_end_delay_total'] / received:.1f} s "
          f"mean ({received} delivered)")
    print(f"handoffs completed : {counters['handoffs_local']}")
    assert counters["handoffs_local"] == 2
    assert counters["messages_forwarded"] > 20
    assert received > 30
    for cell in network.runs.values():
        assert cell.stats.radio_violations == 0
        assert cell.stats.gps_deadline_misses == 0
