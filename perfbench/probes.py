"""Per-layer probes, installed from outside the program.

Everything here measures the ``repro`` layers without editing them: a
:class:`Probe` swaps a class or module attribute for a counting (and
optionally timing) wrapper and puts the original back on ``close()``.
:func:`profile_by_layer` runs a callable under cProfile and folds self
time into layers, charging C builtins to the module that called them.
:func:`heap_growth_by_layer` attributes tracemalloc growth to layers.

Layer names are the ``src/repro`` package names.  Four modules are
split out because a workload was chosen for each of them: ``core.bits``,
``core.fields`` and ``phy.gf256`` (the wire codec) and ``core.radio``
(the half-duplex audit).
"""

from __future__ import annotations

import cProfile
import os
import pstats
import time
import tracemalloc
from collections import Counter, defaultdict
from typing import Any, Callable, Dict, List, Optional, Tuple

#: Modules reported as their own layer rather than as their package.
SPLIT_MODULES = ("core.bits", "core.fields", "core.radio", "phy.gf256")

_SEP = os.sep

#: Marks a wrapped attribute that the class only inherited.
_INHERITED = object()


def layer_of_file(filename: str) -> str:
    """The layer a source file belongs to (``other`` outside repro)."""
    marker = f"{_SEP}repro{_SEP}"
    index = filename.rfind(marker)
    if index < 0:
        return "other"
    rel = filename[index + len(marker):]
    if rel.endswith(".py"):
        rel = rel[:-3]
    parts = rel.split(_SEP)
    if len(parts) == 1:
        return "repro"
    module = f"{parts[0]}.{parts[1]}"
    if module in SPLIT_MODULES:
        return module
    return parts[0]


class Probe:
    """Counting/timing wrappers over named entry points.

    ``counts[name]`` is the number of calls; ``samples[name]`` holds the
    duration in seconds of every call of a timed entry point.
    """

    def __init__(self) -> None:
        self.counts: Counter = Counter()
        self.samples: Dict[str, List[float]] = defaultdict(list)
        #: Per pool epoch, the compute seconds of each point.
        self.epoch_points: List[List[float]] = []
        self._undo: List[Tuple[Any, str, Any]] = []

    # -- installing -------------------------------------------------------

    @staticmethod
    def _raw(owner: Any, attr: str) -> Any:
        """The attribute as stored (no descriptor binding)."""
        if isinstance(owner, type):
            for klass in owner.__mro__:
                if attr in klass.__dict__:
                    return klass.__dict__[attr]
            raise AttributeError(attr)
        return getattr(owner, attr)

    def _swap(self, owner: Any, attr: str, replacement: Any) -> None:
        own = not isinstance(owner, type) or attr in owner.__dict__
        self._undo.append((owner, attr,
                           self._raw(owner, attr) if own else _INHERITED))
        setattr(owner, attr, replacement)

    def wrap(self, owner: Any, attr: str, name: str,
             timed: bool = False,
             before: Optional[Callable[..., None]] = None) -> None:
        """Count (and with ``timed`` time) calls of ``owner.attr``.

        ``owner`` is a class or a module.  Static and class methods keep
        their kind.  ``before(*args)`` runs ahead of each call and may
        record extra counts from the arguments.
        """
        raw = self._raw(owner, attr)
        kind = type(raw) if isinstance(raw, (staticmethod, classmethod)) \
            else None
        fn = raw.__func__ if kind is not None else raw
        wrapper = self._wrapper(fn, name, timed, before)
        self._swap(owner, attr, kind(wrapper) if kind else wrapper)

    def _wrapper(self, fn: Callable, name: str, timed: bool,
                 before: Optional[Callable[..., None]]) -> Callable:
        counts = self.counts
        if timed:
            samples = self.samples[name]
            clock = time.perf_counter

            def timed_call(*args, **kwargs):
                counts[name] += 1
                if before is not None:
                    before(*args)
                started = clock()
                try:
                    return fn(*args, **kwargs)
                finally:
                    samples.append(clock() - started)
            return timed_call

        def counted_call(*args, **kwargs):
            counts[name] += 1
            if before is not None:
                before(*args)
            return fn(*args, **kwargs)
        return counted_call

    def close(self) -> None:
        """Put every original attribute back, newest first."""
        while self._undo:
            owner, attr, original = self._undo.pop()
            if original is _INHERITED:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)

    # -- reading ------------------------------------------------------------

    def total(self, name: str) -> float:
        return sum(self.samples.get(name, ()))

    def p50_us(self, name: str) -> float:
        values = self.samples.get(name)
        if not values:
            return 0.0
        ordered = sorted(values)
        return ordered[len(ordered) // 2] * 1e6

    def snapshot(self) -> Dict[str, Any]:
        return {"counts": dict(self.counts),
                "samples": {k: list(v) for k, v in self.samples.items()}}

    def reset(self) -> None:
        self.counts.clear()
        for values in self.samples.values():
            del values[:]

    def merge(self, data: Dict[str, Any]) -> None:
        """Fold a worker's :meth:`snapshot` into this probe."""
        self.counts.update(data["counts"])
        for name, values in data["samples"].items():
            self.samples[name].extend(values)


def _cf_names_receiver(subscriber: Any, cf: Any) -> bool:
    """Does this control-field set carry anything for ``subscriber``?"""
    from repro.core.fields import EIN_EMPTY

    uid = subscriber.uid
    for ack in cf.reverse_acks:
        if ack.ein == subscriber.ein:
            return True
        if uid is not None and ack.uid == uid and ack.ein == EIN_EMPTY:
            return True
    if uid is None:
        return False
    return (uid in cf.reverse_schedule or uid in cf.forward_schedule
            or uid in cf.gps_schedule or uid in cf.paging)


def install_layer_probes(probe: Probe) -> None:
    """Wrap the public entry point of every layer the benchmark names."""
    import random

    from repro.core.base_station import BaseStation
    from repro.core.fields import ControlFields
    from repro.core.radio import HalfDuplexRadio
    from repro.core.subscriber import SubscriberBase
    from repro.faults.invariants import InvariantMonitor
    from repro.metrics.stats import SummaryStats
    from repro.obs import registry as obs_registry
    from repro.obs.timeline import TimelineRecorder
    from repro.phy.channel import ForwardChannel, Link, ReverseChannel
    from repro.phy.gf256 import GF256
    from repro.phy.rs import ReedSolomon
    from repro.serve.journal import ServiceJournal
    from repro.serve.service import CellService
    from repro.shard import coordinator, shard
    from repro.shard.journal import CityJournal
    from repro.sim.core import Simulator
    from repro.sim.events import CallbackEvent, Event

    wrap = probe.wrap
    counts = probe.counts
    # sim: events processed, run() calls, RNG draws.
    wrap(Event, "_process", "sim.events")
    wrap(CallbackEvent, "_process", "sim.events")
    wrap(Simulator, "run", "sim.run", timed=True)
    wrap(random.Random, "random", "sim.rng_draws")
    wrap(random.Random, "getrandbits", "sim.rng_draws")
    # core: schedule build, CF deliveries, radio claims, the codec.
    wrap(BaseStation, "_build_cycle", "core.build_cycle", timed=True)

    def cf_useful(subscriber, cf, ok):
        if _cf_names_receiver(subscriber, cf):
            counts["core.cf_useful"] += 1
    wrap(SubscriberBase, "_on_cf", "core.cf_deliveries", before=cf_useful)
    wrap(HalfDuplexRadio, "claim", "core.radio.claims")
    wrap(ControlFields, "encode", "core.fields.encode", timed=True)
    wrap(ControlFields, "decode", "core.fields.decode", timed=True)
    # phy: channel entry points, RS full vs reference (fast) decodes.
    wrap(ReverseChannel, "transmit", "phy.channel.transmit")
    wrap(ForwardChannel, "broadcast", "phy.channel.broadcast")
    wrap(Link, "deliver_codewords", "phy.channel.deliver_codewords")
    wrap(Link, "survives", "phy.channel.survives")
    wrap(ReedSolomon, "encode", "phy.rs.encode")
    wrap(ReedSolomon, "decode", "phy.rs.full_decodes")
    reference = ReedSolomon.decode_reference

    def reference_decode(codec, received, sent):
        # Fast path = a reference decode that never reached decode().
        counts["phy.rs.reference_decodes"] += 1
        full = counts["phy.rs.full_decodes"]
        try:
            return reference(codec, received, sent)
        finally:
            if counts["phy.rs.full_decodes"] == full:
                counts["phy.rs.fast_decodes"] += 1
    probe._swap(ReedSolomon, "decode_reference", reference_decode)
    for name in ("mul", "div", "inv", "pow", "poly_scale", "poly_add",
                 "poly_mul", "poly_eval", "poly_divmod", "poly_strip"):
        wrap(GF256, name, "phy.gf256.calls")
    # engine / shard: epochs, dispatch, merge, journal, envelopes.
    wrap(coordinator, "execute", "engine.execute", timed=True)
    wrap(coordinator.CityCoordinator, "_run_epoch_pool",
         "shard.epoch_pool", timed=True)
    wrap(coordinator.CityCoordinator, "_run_epoch_live",
         "shard.epoch_live", timed=True)
    wrap(coordinator.CityCoordinator, "_merge", "shard.merge", timed=True,
         before=lambda coord, reports: counts.update(
             {"shard.envelopes": sum(len(r["outbound"])
                                     for r in reports)}))
    wrap(coordinator, "canonical_order", "shard.canonical_order")
    wrap(shard, "canonical_order", "shard.canonical_order")
    wrap(shard.ShardSim, "run_epoch", "shard.run_epoch", timed=True)
    wrap(shard.ShardSim, "apply_inbound", "shard.apply_inbound",
         timed=True, before=lambda sim, epoch, envs:
         counts.update({"shard.envelopes_in": len(envs)}))
    wrap(CityJournal, "append_epoch", "shard.journal_append", timed=True)
    # metrics: samples the streaming summaries retain.
    wrap(SummaryStats, "push", "metrics.pushes",
         before=lambda summary, value: counts.update(
             {"metrics.samples_retained": summary.samples is not None}))
    # serve / faults / obs.
    wrap(CellService, "step_cycle", "serve.step_cycle", timed=True)
    for name in ("append_snapshot", "append_control", "append_event"):
        wrap(ServiceJournal, name, "serve.journal_append", timed=True)
    wrap(InvariantMonitor, "check_now", "faults.invariant_check",
         timed=True)
    wrap(TimelineRecorder, "_sample", "obs.timeline_sample", timed=True)
    for cls, names in ((obs_registry.CounterChild, ("inc",)),
                       (obs_registry.GaugeChild, ("set", "inc", "dec")),
                       (obs_registry.HistogramChild, ("observe",))):
        for name in names:
            wrap(cls, name, "obs.registry_updates")


def probed_shard_epoch_task(task: Dict[str, Any]) -> Dict[str, Any]:
    """Engine point run in a pool worker with the parent's probes.

    The worker inherits the probe wrappers (and their totals so far)
    through ``fork``; the counts of this one point are sent back under
    ``_probe``, which :func:`install_city_relay` strips again before the
    coordinator sees the report.
    """
    from repro.shard.shard import shard_epoch_task

    probe = _WORKER_PROBE[0]
    probe.reset()
    report = shard_epoch_task(task)
    report["_probe"] = probe.snapshot()
    return report


#: The probe a forked pool worker writes into.  Module state on purpose:
#: a pool task is pickled by reference, so this is the only place the
#: forked worker can find the parent's probe.
_WORKER_PROBE: List[Probe] = []


def install_city_relay(probe: Probe) -> None:
    """Route pool-mode city epochs through :func:`probed_shard_epoch_task`.

    Call after :func:`install_layer_probes`: it also wraps the (already
    timed) ``coordinator.execute`` to strip and merge worker counts.
    """
    from repro.shard import coordinator

    _WORKER_PROBE[:] = [probe]
    timed_execute = coordinator.execute

    def relay_execute(spec, *args, **kwargs):
        result = timed_execute(spec, *args, **kwargs)
        seconds = list(result.stats.point_seconds)
        probe.samples["engine.point_seconds"].append(sum(seconds))
        probe.epoch_points.append(seconds)
        for value in result.values:
            if isinstance(value, dict) and "_probe" in value:
                probe.merge(value.pop("_probe"))
        return result

    probe._swap(coordinator, "execute", relay_execute)
    probe._swap(coordinator, "shard_epoch_task", probed_shard_epoch_task)


def profile_by_layer(fn: Callable[[], Any]) -> Dict[str, Dict[str, float]]:
    """Run ``fn`` under cProfile; self seconds and calls per layer.

    A C builtin has no module of its own: its self time is charged to
    the layers of its callers, edge by edge.
    """
    profiler = cProfile.Profile()
    profiler.enable()
    try:
        fn()
    finally:
        profiler.disable()
    stats = pstats.Stats(profiler).stats  # type: ignore[attr-defined]
    seconds: Dict[str, float] = defaultdict(float)
    calls: Dict[str, float] = defaultdict(float)
    for (filename, _line, _name), entry in stats.items():
        _cc, ncalls, tottime, _ct, callers = entry
        if filename == "~":
            for (caller_file, _l, _n), edge in callers.items():
                layer = layer_of_file(caller_file)
                seconds[layer] += edge[2]
            continue
        layer = layer_of_file(filename)
        seconds[layer] += tottime
        calls[layer] += ncalls
    return {layer: {"self_s": seconds[layer], "calls": calls.get(layer, 0)}
            for layer in seconds}


def layer_shares(table: Dict[str, Dict[str, float]]) -> Dict[str, float]:
    total = sum(entry["self_s"] for entry in table.values()) or 1.0
    return {layer: entry["self_s"] / total
            for layer, entry in table.items()}


def heap_growth_by_layer(before: "tracemalloc.Snapshot",
                         after: "tracemalloc.Snapshot"
                         ) -> Dict[str, float]:
    """Live-heap growth in bytes between two snapshots, per layer."""
    growth: Dict[str, float] = defaultdict(float)
    for stat in after.compare_to(before, "filename"):
        frame = stat.traceback[0]
        growth[layer_of_file(frame.filename)] += stat.size_diff
    return dict(growth)
