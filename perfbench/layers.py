"""The traced run: the per-layer table of one workload.

A traced run does up to four units of the workload:

1. one untraced unit, the reference wall time;
2. one unit with the layer probes installed (call counts and per-call
   timings at each layer's entry points; for ``city`` also inside the
   pool workers);
3. one unit under cProfile, for self time per layer (``city`` runs this
   unit at ``--jobs 1`` so the shard work is in this process: the
   serial and pool paths simulate the same cells bit-identically);
4. for ``serve``, one unit under tracemalloc, for live-heap growth per
   layer.

``--counters`` does only unit 2 and reports the deterministic counts.
Counts are normalised per *simulated* cell-cycle; for ``city`` that
includes the epochs the pool replays, which ``engine.replay_ratio``
reports on its own.
"""

from __future__ import annotations

import statistics
import time
import tracemalloc
from dataclasses import dataclass, field
from typing import Any, Dict, List

from probes import (
    Probe,
    heap_growth_by_layer,
    install_city_relay,
    install_layer_probes,
    layer_shares,
    profile_by_layer,
)

#: The probe count every workload must show, for the layer it was
#: chosen to exercise (the self-check of the layer x workload matrix).
EXERCISES = {
    "sweep": ("core.cf_deliveries", "core.radio.claims",
              "phy.channel.transmit"),
    "fidelity": ("phy.rs.full_decodes", "phy.rs.fast_decodes",
                 "core.fields.decode", "phy.gf256.calls"),
    "city": ("shard.envelopes", "shard.run_epoch", "engine.execute",
             "shard.journal_append"),
    "serve": ("serve.journal_append", "faults.invariant_check",
              "obs.timeline_sample", "obs.registry_updates"),
}

#: Heap-growth window of the serve episode: rounds before it are warm-up.
HEAP_FROM_ROUND = 250

#: Per-layer metric -> unit, in the order they are printed.
UNITS = {
    "sim.self_share": "share",
    "sim.events_per_cell_cycle": "count",
    "sim.rng_draws_per_cell_cycle": "count",
    "core.self_share": "share",
    "core.calls_per_cell_cycle": "count",
    "core.build_cycle_us_p50": "us",
    "core.cf_deliveries_per_cell_cycle": "count",
    "core.cf_useful_ratio": "ratio",
    "core.radio.claims_per_cell_cycle": "count",
    "core.radio.self_share": "share",
    "core.bits.self_share": "share",
    "core.fields.encode_us_p50": "us",
    "core.fields.decode_us_p50": "us",
    "phy.self_share": "share",
    "phy.gf256.calls_per_cell_cycle": "count",
    "phy.rs.full_decodes_per_cell_cycle": "count",
    "phy.rs.fast_decodes_per_cell_cycle": "count",
    "phy.rs.fast_path_ratio": "ratio",
    "phy.channel.deliveries_per_cell_cycle": "count",
    "traffic.self_share": "share",
    "metrics.self_share": "share",
    "metrics.samples_retained_per_kcycle": "count",
    "metrics.live_kb_per_kcycle": "KB",
    "engine.replay_ratio": "ratio",
    "engine.busy_ratio": "ratio",
    "engine.dispatch_s_per_epoch": "s",
    "engine.pool_start_s": "s",
    "shard.merge_s_per_epoch": "s",
    "shard.barrier_lag_s_p50": "s",
    "shard.envelopes_per_epoch": "count",
    "shard.journal_append_s_per_epoch": "s",
    "shard.handoffs_per_epoch": "count",
    "serve.sim_share_of_step": "share",
    "serve.journal_append_us_p50": "us",
    "serve.journal_bytes_per_cycle": "bytes",
    "faults.invariant_check_us_p50": "us",
    "faults.injected_total": "count",
    "obs.timeline_sample_us_p50": "us",
    "obs.registry_updates_per_cycle": "count",
    "obs.live_kb_per_kcycle": "KB",
    "core.live_kb_per_kcycle": "KB",
    "tracing.overhead_ratio": "ratio",
}


@dataclass
class TracedReport:
    units: List[Any] = field(default_factory=list)
    counters: Dict[str, float] = field(default_factory=dict)
    #: Raw call counts of every probed entry point (``--counters``).
    calls: Dict[str, int] = field(default_factory=dict)
    metrics: Dict[str, Dict[str, Any]] = field(default_factory=dict)
    missing_layers: List[str] = field(default_factory=list)


def _per(value: float, base: float) -> float:
    return value / base if base else 0.0


def _simulated_cell_cycles(workload: Any, unit: Any,
                           probe: Probe) -> float:
    """Cell-cycles simulated, counting the epochs the pool replays."""
    if workload.name != "city":
        return unit.cell_cycles
    extra = unit.extra
    return (probe.counts["shard.run_epoch"] * extra["cells_per_shard"]
            * extra["cycles_per_epoch"])


def work_counters(workload: Any, unit: Any,
                  probe: Probe) -> Dict[str, float]:
    """The deterministic counts, per simulated cell-cycle (or epoch)."""
    counts = probe.counts
    cc = _simulated_cell_cycles(workload, unit, probe)
    out = {
        "sim.events_per_cell_cycle": _per(counts["sim.events"], cc),
        "sim.rng_draws_per_cell_cycle": _per(counts["sim.rng_draws"], cc),
        "core.cf_deliveries_per_cell_cycle":
            _per(counts["core.cf_deliveries"], cc),
        "core.cf_useful_ratio": _per(counts["core.cf_useful"],
                                     counts["core.cf_deliveries"]),
        "core.radio.claims_per_cell_cycle":
            _per(counts["core.radio.claims"], cc),
        "phy.gf256.calls_per_cell_cycle":
            _per(counts["phy.gf256.calls"], cc),
        "phy.rs.full_decodes_per_cell_cycle":
            _per(counts["phy.rs.full_decodes"], cc),
        "phy.rs.fast_decodes_per_cell_cycle":
            _per(counts["phy.rs.fast_decodes"], cc),
        "phy.channel.deliveries_per_cell_cycle":
            _per(counts["phy.channel.survives"]
                 + counts["phy.channel.deliver_codewords"], cc),
        "metrics.samples_retained_per_kcycle":
            _per(counts["metrics.samples_retained"] * 1000.0, cc),
        "obs.registry_updates_per_cycle":
            _per(counts["obs.registry_updates"], unit.cell_cycles),
        "shard.envelopes_per_epoch": 0.0,
        "shard.handoffs_per_epoch": 0.0,
        "engine.replay_ratio": 0.0,
    }
    if workload.name == "city":
        extra = unit.extra
        committed = extra["epochs"] * extra["shards"]
        out["shard.envelopes_per_epoch"] = _per(
            counts["shard.envelopes"], extra["epochs"])
        out["shard.handoffs_per_epoch"] = _per(extra["handoffs"],
                                               extra["epochs"])
        out["engine.replay_ratio"] = _per(counts["shard.run_epoch"],
                                          committed)
    return out


def _probed_unit(workload: Any) -> "tuple[Any, Probe, float]":
    probe = Probe()
    install_layer_probes(probe)
    if workload.name == "city":
        install_city_relay(probe)
    try:
        started = time.perf_counter()
        unit = workload.unit()
        wall = time.perf_counter() - started
    finally:
        probe.close()
    return unit, probe, wall


def _heap_unit(workload: Any) -> "tuple[Any, Dict[str, float], int]":
    """A serve episode under tracemalloc; growth after the warm-up."""
    marks: Dict[str, Any] = {}

    def on_round(round_: int, services: List[Any]) -> None:
        if round_ == HEAP_FROM_ROUND:
            marks["before"] = tracemalloc.take_snapshot()
        elif round_ == workload.ROUNDS:
            marks["after"] = tracemalloc.take_snapshot()

    tracemalloc.start(1)
    try:
        unit = workload.unit(on_round=on_round)
    finally:
        tracemalloc.stop()
    growth = heap_growth_by_layer(marks["before"], marks["after"])
    cycles = (workload.ROUNDS - HEAP_FROM_ROUND) * workload.CELLS
    return unit, growth, cycles


def traced_run(workload: Any, counters_only: bool = False
               ) -> TracedReport:
    report = TracedReport()
    if counters_only:
        unit, probe, _ = _probed_unit(workload)
        report.units = [unit]
        report.counters = work_counters(workload, unit, probe)
        report.calls = dict(probe.counts)
        report.missing_layers = _missing(workload, probe)
        return report

    started = time.perf_counter()
    base = workload.unit()
    base_wall = time.perf_counter() - started
    unit, probe, probed_wall = _probed_unit(workload)
    report.units = [base, unit]

    profiled: List[Any] = []
    if workload.name == "city":
        table = profile_by_layer(lambda: profiled.append(workload.unit(1)))
    else:
        table = profile_by_layer(lambda: profiled.append(workload.unit()))
    report.units.append(profiled[0])
    shares = layer_shares(table)
    profiled_cycles = profiled[0].cell_cycles

    heap: Dict[str, float] = {}
    heap_cycles = 0
    if workload.name == "serve":
        heap_unit, heap, heap_cycles = _heap_unit(workload)
        report.units.append(heap_unit)

    metrics = work_counters(workload, unit, probe)

    def share(layer: str) -> float:
        return shares.get(layer, 0.0)
    calls = {layer: entry["calls"] for layer, entry in table.items()}
    metrics.update({
        "sim.self_share": share("sim"),
        "core.self_share": share("core") + share("core.radio"),
        "core.calls_per_cell_cycle": _per(
            calls.get("core", 0) + calls.get("core.radio", 0),
            profiled_cycles),
        "core.build_cycle_us_p50": probe.p50_us("core.build_cycle"),
        "core.radio.self_share": share("core.radio"),
        "core.bits.self_share": share("core.bits"),
        "core.fields.encode_us_p50": probe.p50_us("core.fields.encode"),
        "core.fields.decode_us_p50": probe.p50_us("core.fields.decode"),
        "phy.self_share": share("phy") + share("phy.gf256"),
        "phy.rs.fast_path_ratio": _per(
            probe.counts["phy.rs.fast_decodes"],
            probe.counts["phy.rs.reference_decodes"]),
        "traffic.self_share": share("traffic"),
        "metrics.self_share": share("metrics"),
        "serve.sim_share_of_step": _per(probe.total("sim.run"),
                                        probe.total("serve.step_cycle"))
        if workload.name == "serve" else 0.0,
        "serve.journal_append_us_p50":
            probe.p50_us("serve.journal_append"),
        "serve.journal_bytes_per_cycle": _per(
            unit.extra.get("journal_bytes", 0), unit.cell_cycles),
        "faults.invariant_check_us_p50":
            probe.p50_us("faults.invariant_check"),
        "faults.injected_total": float(
            unit.extra.get("faults_injected", 0)),
        "obs.timeline_sample_us_p50": probe.p50_us("obs.timeline_sample"),
        "metrics.live_kb_per_kcycle": _per(
            heap.get("metrics", 0.0) / 1024 * 1000, heap_cycles),
        "obs.live_kb_per_kcycle": _per(
            heap.get("obs", 0.0) / 1024 * 1000, heap_cycles),
        "core.live_kb_per_kcycle": _per(
            heap.get("core", 0.0) / 1024 * 1000, heap_cycles),
        "tracing.overhead_ratio": _per(probed_wall, base_wall),
        "engine.busy_ratio": 0.0,
        "engine.dispatch_s_per_epoch": 0.0,
        "engine.pool_start_s": 0.0,
        "shard.merge_s_per_epoch": 0.0,
        "shard.barrier_lag_s_p50": 0.0,
        "shard.journal_append_s_per_epoch": 0.0,
    })
    if workload.name == "city":
        epochs = unit.extra["epochs"]
        jobs = workload.JOBS
        pool_wall = probe.total("engine.execute")
        busy = probe.total("engine.point_seconds")
        lags = [max(s) - min(s) for s in probe.epoch_points if s]
        metrics.update({
            "engine.busy_ratio": _per(busy, jobs * pool_wall),
            "engine.dispatch_s_per_epoch":
                _per(pool_wall - busy / jobs, epochs),
            "engine.pool_start_s": workload.pool_start_s,
            "shard.merge_s_per_epoch": _per(probe.total("shard.merge"),
                                            epochs),
            "shard.barrier_lag_s_p50":
                statistics.median(lags) if lags else 0.0,
            "shard.journal_append_s_per_epoch":
                _per(probe.total("shard.journal_append"), epochs),
        })
    report.metrics = {name: {"value": float(metrics[name]), "unit": unit_}
                      for name, unit_ in UNITS.items()}
    report.missing_layers = _missing(workload, probe)
    _print_layer_table(workload.name, table, heap, heap_cycles)
    return report


def _missing(workload: Any, probe: Probe) -> List[str]:
    return [f"{workload.name}: no calls recorded for {name}"
            for name in EXERCISES[workload.name]
            if not probe.counts[name]]


def _print_layer_table(name: str, table: Dict[str, Dict[str, float]],
                       heap: Dict[str, float], heap_cycles: int) -> None:
    shares = layer_shares(table)
    print(f"self time by layer ({name}, cProfile; builtins charged to "
          f"their caller):")
    for layer, entry in sorted(table.items(),
                               key=lambda item: -item[1]["self_s"]):
        print(f"  {layer:12s} {shares[layer] * 100:6.2f}%  "
              f"{entry['self_s']:8.3f} s  {int(entry['calls']):>10d} calls")
    if heap:
        print(f"live-heap growth by layer over {heap_cycles} cell-cycles "
              f"(tracemalloc):")
        for layer, size in sorted(heap.items(), key=lambda kv: -kv[1]):
            print(f"  {layer:12s} {size / 1024:10.1f} KB  "
                  f"{size / 1024 * 1000 / heap_cycles:8.2f} KB/kcycle")
