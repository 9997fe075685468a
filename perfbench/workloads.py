"""The four benchmark workloads: ``sweep``, ``fidelity``, ``city``, ``serve``.

Each workload is closed-loop and runs in this process (``city`` adds a
two-worker engine pool).  A workload is built from the benchmark seed,
does its set-up once in :meth:`Workload.setup`, and then repeats one
fixed *unit* of work -- a whole sweep, a set of full-fidelity cells, a
whole city, one serve episode -- for as long as the run lasts.  Every
unit of one seed does identical simulated work, so each unit's digest
must equal the first unit's (and the recorded golden digest, for the
seeds that have one).

A unit reports the cell-cycles it simulated, its wall time, the host
time of its cycle steps, the operations it attempted and which of them
failed an output check, the simulated paper metrics, and the digest of
its canonical outputs.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

import repro.core.cell
from repro.core.cell import finalize_run

#: The protocol bound: up to 8 GPS units keep the 4-second deadline.
MAX_DEADLINE_GPS_UNITS = 8

_CLOCK = time.perf_counter


def digest_of(value: Any) -> str:
    blob = json.dumps(value, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


@dataclass
class UnitResult:
    """What one unit of work produced."""

    cell_cycles: int
    #: Host seconds of the whole unit, from its first call into the
    #: program to its outputs.
    wall_s: float = 0.0
    #: Host-speed factor of the unit (hostspeed.py): its durations times
    #: this are durations on the reference host.
    host_factor: float = 1.0
    #: One entry per operation: the failure text, or None when it passed.
    outcomes: List[Optional[str]] = field(default_factory=list)
    #: Host seconds of one cycle step, one entry per step (see the
    #: workload's docstring for what a step is).
    step_s: List[float] = field(default_factory=list)
    utilization: List[float] = field(default_factory=list)
    message_delay_cycles: List[float] = field(default_factory=list)
    gps_access_delay_max_s: float = 0.0
    digest: str = ""
    #: Workload-specific facts the traced run and self-checks read.
    extra: Dict[str, Any] = field(default_factory=dict)


def gps_deadline_binds(config: Any, gps_units: int) -> bool:
    """The paper's 4-second guarantee: up to 8 GPS units, and a channel
    that works (under ge/iid/outage errors a lost report misses the
    deadline by construction; the fuzz oracle applies the same rule)."""
    return (gps_units <= MAX_DEADLINE_GPS_UNITS
            and config.error_model == "perfect")


def cell_checks(summary: Dict[str, float], gps_deadline: bool,
                counts: Optional[Dict[str, int]] = None) -> List[str]:
    """The seed-independent output checks of one simulated cell.

    ``gps_deadline`` says whether the GPS deadline binds (see
    :func:`gps_deadline_binds`); ``counts`` (messages generated,
    delivered, dropped) adds the conservation check where the caller
    has them.
    """
    problems = []
    if summary["radio_violations"]:
        problems.append(f"radio_violations={summary['radio_violations']}")
    if summary["invariant_violations"]:
        problems.append(
            f"invariant_violations={summary['invariant_violations']}")
    if gps_deadline and summary["gps_deadline_misses"]:
        problems.append(
            f"gps_deadline_misses={summary['gps_deadline_misses']}")
    if counts is not None \
            and counts["delivered"] + counts["dropped"] > counts["generated"]:
        problems.append(f"delivered+dropped > generated: {counts}")
    return problems


def message_counts(stats: Any) -> Dict[str, int]:
    return {"generated": stats.messages_generated,
            "delivered": stats.messages_delivered,
            "dropped": stats.messages_dropped}


class ObservedRunCell:
    """Records the message counts of every ``run_cell`` while installed.

    The engine's ``run_cell_summary`` returns only the summary, which
    lacks the generated/delivered counts the conservation check needs.
    This wrapper calls the program's ``run_cell`` unchanged and keeps
    those counts from the stats it returns.
    """

    def __init__(self):
        self.counts: List[Dict[str, int]] = []
        self._original = repro.core.cell.run_cell

    def __enter__(self) -> "ObservedRunCell":
        original, counts = self._original, self.counts

        def run_cell(config):
            stats = original(config)
            counts.append(message_counts(stats))
            return stats
        repro.core.cell.run_cell = run_cell
        return self

    def __exit__(self, *exc: Any) -> None:
        repro.core.cell.run_cell = self._original


def cell_seeds(seed: int, cells: int) -> "tuple[int, ...]":
    """Seeds of ``cells`` independent cells; disjoint between runs."""
    return tuple(range(seed * cells, seed * cells + cells))


class Workload:
    """Base: seed in, units of work out."""

    name = ""

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.workdir = workdir

    def setup(self) -> None:
        """Everything a run needs before its first unit."""

    def unit(self) -> UnitResult:
        raise NotImplementedError

    def close(self) -> None:
        """Release what :meth:`setup` made."""


class CellSweep(Workload):
    """The program's own cell points, run by ``execute`` at ``--jobs 1``
    with the cache off.

    An operation is one point.  A cycle step is one point's mean cycle:
    its compute seconds, as the engine times them, divided by its
    cycles; a unit has one step per point.
    """

    def points(self) -> List[Any]:
        raise NotImplementedError

    def setup(self) -> None:
        from repro.engine import RunSpec

        self.spec = RunSpec(name=f"perfbench-{self.name}",
                            points=tuple(self.points()))

    def unit(self) -> UnitResult:
        from repro.engine import execute

        with ObservedRunCell() as observed:
            started = _CLOCK()
            result = execute(self.spec, jobs=1, cache=False)
            wall = _CLOCK() - started
        counts = iter(observed.counts)
        out = UnitResult(cell_cycles=0, wall_s=wall)
        canonical = []
        for point, value, seconds in zip(self.spec.points, result.values,
                                         result.stats.point_seconds):
            config = point.config
            if value is None:
                out.outcomes.append("point raised")
                canonical.append([point.label, None])
                continue
            point_counts = next(counts)
            problems = cell_checks(
                value, gps_deadline_binds(config, config.num_gps_users),
                point_counts)
            out.outcomes.append("; ".join(problems) or None)
            out.cell_cycles += config.cycles
            out.step_s.append(seconds / config.cycles)
            out.utilization.append(value["utilization"])
            out.message_delay_cycles.append(
                value["mean_message_delay_cycles"])
            out.gps_access_delay_max_s = max(
                out.gps_access_delay_max_s, value["gps_max_access_delay"])
            canonical.append([point.label, value, point_counts])
        out.digest = digest_of(canonical)
        return out


class Sweep(CellSweep):
    """The fig8 paper sweep: loads 0.3-1.1 x 3 seeds, 400 cycles each."""

    name = "sweep"

    def points(self):
        from repro.experiments.runner import sweep_spec

        seeds = (self.seed, self.seed + 1, self.seed + 2)
        return sweep_spec(seeds=seeds, quick=False).points


class Fidelity(CellSweep):
    """Full-fidelity cells: every frame RS(64,48)-coded over GE errors."""

    name = "fidelity"
    LOAD = 0.8
    CELLS = 4
    CYCLES = 80
    WARMUP = 20

    def points(self):
        from repro.experiments.runner import sweep_spec

        return sweep_spec(loads=(self.LOAD,),
                          seeds=cell_seeds(self.seed, self.CELLS),
                          cycles=self.CYCLES,
                          warmup_cycles=self.WARMUP,
                          full_fidelity=True, error_model="ge").points


def _noop_point(value: int) -> int:
    return value


class City(Workload):
    """The ``repro city --demo`` grid at ``--jobs 2``, journal on.

    An operation is one epoch.  The unit's wall time is the whole
    ``CityCoordinator.run``: journal creation and lock, then per epoch
    the pool, the epoch digest, the journal append, the metrics and the
    barrier merge.  A cycle step is one city-wide notification cycle:
    one epoch, from its start to the next epoch's, divided by its
    cycles (the first epoch also carries the journal set-up).  A unit
    has one step per epoch.
    """

    name = "city"
    JOBS = 2

    def setup(self) -> None:
        from repro.engine import RunSpec, execute
        from repro.engine.spec import Point
        from repro.shard.config import demo_config

        self.config = demo_config(self.seed)
        self.journal_root = os.path.join(self.workdir, "city-journal")
        os.makedirs(self.journal_root, exist_ok=True)
        # Start (and stop) one two-worker pool, as every epoch does.
        started = _CLOCK()
        execute(RunSpec(name="perfbench-pool-start",
                        points=tuple(Point(fn=_noop_point, config=i)
                                     for i in range(self.JOBS))),
                jobs=self.JOBS, cache=False)
        self.pool_start_s = _CLOCK() - started

    def unit(self, jobs: Optional[int] = None) -> UnitResult:
        from repro.shard.coordinator import CityCoordinator

        epoch_starts: List[float] = []

        class TimedCoordinator(CityCoordinator):
            def _run_epoch_pool(self, epoch):
                if epoch:
                    epoch_starts.append(_CLOCK())
                return super()._run_epoch_pool(epoch)

            def _run_epoch_live(self, epoch):
                if epoch:
                    epoch_starts.append(_CLOCK())
                return super()._run_epoch_live(epoch)

        config = self.config
        started = _CLOCK()
        result = TimedCoordinator(
            config, jobs=jobs or self.JOBS, cache=False, checkpoint=True,
            journal_root=self.journal_root).run()
        wall = _CLOCK() - started
        cells = config.rows * config.cols
        out = UnitResult(cell_cycles=cells * config.epochs
                         * config.cycles_per_epoch, wall_s=wall)
        bounds = [started] + epoch_starts + [started + wall]
        out.step_s = [(end - begin) / config.cycles_per_epoch
                      for begin, end in zip(bounds, bounds[1:])]
        counters = result.counters
        problems = []
        if counters["radio_violations"]:
            problems.append(f"radio_violations="
                            f"{counters['radio_violations']}")
        if counters["messages_received"] + counters["messages_hop_dropped"] \
                > counters["messages_routed"]:
            problems.append("received+dropped > routed")
        cell_config = config.cell_config()
        gps_deadline = gps_deadline_binds(cell_config,
                                          cell_config.num_gps_users)
        for report in result.reports:
            for cell, summary in sorted(report["cells"].items()):
                problems.extend(f"cell {cell}: {p}"
                                for p in cell_checks(summary, gps_deadline))
                out.utilization.append(summary["utilization"])
                out.message_delay_cycles.append(
                    summary["mean_message_delay_cycles"])
                out.gps_access_delay_max_s = max(
                    out.gps_access_delay_max_s,
                    summary["gps_max_access_delay"])
        verdict = "; ".join(problems) or None
        out.outcomes = [verdict] * len(result.epoch_digests)
        out.digest = result.digest
        out.extra = {
            "epochs": config.epochs,
            "shards": config.num_shards,
            "cells_per_shard": cells // config.num_shards,
            "cycles_per_epoch": config.cycles_per_epoch,
            "handoffs": counters["handoffs_local"]
            + counters["handoffs_out"],
            "cross_shard": counters["messages_cross_shard"],
        }
        return out

    def close(self) -> None:
        shutil.rmtree(self.journal_root, ignore_errors=True)


class Serve(Workload):
    """Four ``CellService`` cells stepped round-robin, unpaced.

    Each cell runs the invariant monitor, leases, the timeline recorder
    and a journal snapshot every cycle.  One unit is one episode of
    ``ROUNDS`` cycles per cell under a fixed op schedule: joins, a
    leave, two load re-dials and two crash/restart fault bursts.  An
    operation is one cell-cycle; a cycle step is one ``step_cycle``.
    """

    name = "serve"
    CELLS = 4
    ROUNDS = 1500
    #: round -> [(cell, op, argument)], applied before that round.
    SCHEDULE = {
        50: [(0, "join", "data"), (1, "join", "gps")],
        200: [(2, "leave", "data-3")],
        400: [(3, "faults", "crash:data-0@1;crash:data-1@1;"
                            "restart:data-0@10;restart:data-1@12")],
        700: [(0, "load", 1.5)],
        900: [(1, "join", "data"), (1, "join", "data")],
        1100: [(2, "faults", "crash:data-4@1;restart:data-4@6")],
        1200: [(0, "load", 1.0)],
    }

    def setup(self) -> None:
        from repro.core.config import CellConfig
        from repro.serve.config import ServeConfig

        self.journal_root = os.path.join(self.workdir, "serve-journal")
        self.serve_config = ServeConfig(
            name="perfbench", cells=self.CELLS, cycle_period_s=0,
            checkpoint_every=1, journal_root=self.journal_root)
        self.cell_configs = [
            CellConfig(num_data_users=9, num_gps_users=3, load_index=0.5,
                       seed=seed, liveness_lease_cycles=8,
                       eviction_backoff_jitter_cycles=2,
                       check_invariants=True, cycles=10 ** 9,
                       warmup_cycles=0)
            for seed in cell_seeds(self.seed, self.CELLS)]
        # Build and start one set of services: journal creation, cells,
        # monitor and recorder -- the set-up every episode repeats.
        for service in self.start_services():
            service.shutdown(clean=False)
            service.journal.discard()

    def start_services(self) -> List[Any]:
        from repro.serve.service import CellService

        services = []
        for index, config in enumerate(self.cell_configs):
            service = CellService(f"cell{index}", config,
                                  self.serve_config)
            service.start()
            services.append(service)
        return services

    @staticmethod
    def _apply(service: Any, op: str, argument: Any) -> None:
        if op == "join":
            service.enqueue_join(argument)
        elif op == "leave":
            service.enqueue_leave(argument)
        elif op == "load":
            service.enqueue_load(argument)
        else:
            service.enqueue_faults(argument)

    def unit(self, on_round=None) -> UnitResult:
        started = _CLOCK()
        services = self.start_services()
        out = UnitResult(cell_cycles=0)
        step_s = out.step_s
        outcomes = out.outcomes
        for round_ in range(1, self.ROUNDS + 1):
            for index, op, argument in self.SCHEDULE.get(round_, ()):
                self._apply(services[index], op, argument)
            for service in services:
                stats = service.run.stats
                violations = stats.invariant_violations
                begun = _CLOCK()
                try:
                    service.step_cycle()
                except Exception as exc:  # an op failed: count, go on
                    step_s.append(_CLOCK() - begun)
                    outcomes.append(f"{service.name}: {exc!r}")
                    continue
                step_s.append(_CLOCK() - begun)
                outcomes.append(
                    None if stats.invariant_violations == violations
                    else f"{service.name}: invariant violation")
            if on_round is not None:
                on_round(round_, services)
        out.cell_cycles = len(outcomes)
        canonical = []
        problems = []
        journal_bytes = faults_injected = 0
        for service in services:
            run = service.run
            finalize_run(run)
            summary = run.stats.summary()
            problems.extend(
                f"{service.name}: {p}" for p in cell_checks(
                    summary,
                    gps_deadline_binds(run.config, len(run.gps_units)),
                    message_counts(run.stats)))
            canonical.append(service._sim_counters())
            out.utilization.append(summary["utilization"])
            out.message_delay_cycles.append(
                summary["mean_message_delay_cycles"])
            out.gps_access_delay_max_s = max(
                out.gps_access_delay_max_s,
                summary["gps_max_access_delay"])
            faults_injected += run.stats.faults_injected
            service.shutdown(clean=True)
            journal_bytes += os.path.getsize(service.journal.path)
            service.journal.discard()
        out.extra = {"journal_bytes": journal_bytes,
                     "faults_injected": faults_injected}
        if problems:
            verdict = "; ".join(problems)
            out.outcomes = [o or verdict for o in outcomes]
        out.digest = digest_of(canonical)
        out.wall_s = _CLOCK() - started
        return out

    def close(self) -> None:
        shutil.rmtree(self.journal_root, ignore_errors=True)


WORKLOADS = {cls.name: cls for cls in (Sweep, Fidelity, City, Serve)}
