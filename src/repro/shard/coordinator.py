"""The city coordinator: lockstep epochs, barrier merges, checkpoints.

The coordinator advances every shard one epoch at a time.  At each
barrier it gathers the shards' canonically ordered outbound envelopes,
merges them into one city-wide sequence, applies the handoffs to its
own directory, re-addresses in-flight messages against that directory
(the destination may have moved again), and distributes the next
epoch's inbound sets: handoffs broadcast to every shard (they double as
directory updates), messages to the shard owning the destination cell.

Two execution paths produce bit-identical results:

* ``jobs <= 1`` -- one live :class:`~repro.shard.shard.ShardSim` per
  shard in this process, stepped serially;
* ``jobs >= 2`` -- each (shard, epoch) is an engine
  :class:`~repro.engine.spec.Point` running
  :func:`~repro.shard.shard.shard_epoch_task` in the process pool,
  which replays the shard's deterministic history up to that epoch.

Every committed barrier is appended to a :class:`CityJournal`.  A
killed run restarted with ``resume=True`` replays deterministically
from epoch 0 (live shards cannot be unpickled mid-flight; with the
engine result cache enabled, pool points short-circuit instead of
re-simulating) and *verifies* each recomputed epoch digest against the
journaled one before continuing past the crash point -- so a resumed
run either bit-matches the original or fails loudly.
"""

from __future__ import annotations

import hashlib
import json
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from repro.engine.spec import Point, RunSpec, execute
from repro.shard.config import CityConfig
from repro.shard.envelopes import HANDOFF, canonical_order
from repro.shard.journal import CityJournal
from repro.shard.shard import ShardSim, report_digest, shard_epoch_task


class CityIntegrityError(RuntimeError):
    """A resumed epoch did not reproduce its journaled digest."""


@dataclass
class CityResult:
    """What a city run returns."""

    config: CityConfig
    digest: str
    epoch_digests: List[str]
    #: Final cumulative counters summed over shards (nested dicts merged
    #: key-wise).
    counters: Dict[str, Any]
    #: Final ein -> cell directory.
    directory: Dict[int, int]
    #: Last epoch's full shard reports, in shard order.
    reports: List[Dict[str, Any]] = field(default_factory=list)
    #: Epochs verified against a resumed journal (0 on a fresh run).
    verified_epochs: int = 0
    wall_s: float = 0.0


def epoch_digest(reports: List[Dict[str, Any]]) -> str:
    """One digest per barrier: the shard digests, in shard order."""
    blob = json.dumps([report["digest"] for report in reports],
                      separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def city_digest(config: CityConfig, epoch_digests: List[str],
                directory: Dict[int, int]) -> str:
    """The city-state digest the determinism contract is stated over."""
    blob = json.dumps({
        "config": config.digest(),
        "epochs": epoch_digests,
        "directory": [[ein, cell]
                      for ein, cell in sorted(directory.items())],
    }, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def aggregate_counters(reports: List[Dict[str, Any]]
                       ) -> Dict[str, Any]:
    """Sum cumulative shard counters (nested dicts merged key-wise)."""
    total: Dict[str, Any] = {}
    for report in reports:
        for key, value in report["counters"].items():
            if isinstance(value, dict):
                bucket = total.setdefault(key, {})
                for sub_key, sub_value in value.items():
                    bucket[sub_key] = bucket.get(sub_key, 0) + sub_value
            else:
                total[key] = total.get(key, 0) + value
    return total


class CityCoordinator:
    """Run one sharded city to completion (or resume one)."""

    def __init__(self, config: CityConfig, jobs: int = 1,
                 cache: Any = False, checkpoint: bool = True,
                 journal_root: Optional[str] = None,
                 resume: bool = False):
        self.config = config
        self.jobs = jobs
        self.cache = cache
        self.checkpoint = checkpoint
        self.journal_root = journal_root
        self.resume = resume
        self.directory: Dict[int, int] = {
            ein: config.home_cell_of_ein(ein)
            for ein in config.all_eins()}
        #: Per shard: the inbound envelope list of every epoch so far.
        self._history: List[List[List[Dict[str, Any]]]] = [
            [] for _ in range(config.num_shards)]
        self._shards: List[ShardSim] = []
        self._metric_prev: Dict[int, Dict[str, Any]] = {}

    # -- barrier merge ------------------------------------------------------

    def _merge(self, reports: List[Dict[str, Any]]
               ) -> List[List[Dict[str, Any]]]:
        """Merge outbound envelopes into each shard's next inbound set."""
        config = self.config
        merged = canonical_order(
            [env for report in reports for env in report["outbound"]])
        inbound: List[List[Dict[str, Any]]] = [
            [] for _ in range(config.num_shards)]
        for env in merged:
            if env["type"] == HANDOFF:
                self.directory[env["ein"]] = env["to_cell"]
                for shard_inbound in inbound:
                    shard_inbound.append(env)
        for env in merged:
            if env["type"] != HANDOFF:
                # Re-address against the post-handoff directory: the
                # mover the message chases may have crossed another
                # boundary this very epoch.
                dest_cell = self.directory.get(env["dest_ein"],
                                               env["dest_cell"])
                if dest_cell != env["dest_cell"]:
                    env = dict(env)
                    env["dest_cell"] = dest_cell
                inbound[config.shard_of_cell(dest_cell)].append(env)
        return [canonical_order(envs) for envs in inbound]

    # -- epoch execution ----------------------------------------------------

    def _run_epoch_live(self, epoch: int):
        if not self._shards:
            self._shards = [ShardSim(self.config, shard_id)
                            for shard_id
                            in range(self.config.num_shards)]
        reports = []
        seconds = []
        for shard_id, shard in enumerate(self._shards):
            shard.apply_inbound(epoch, self._history[shard_id][epoch])
            started = time.perf_counter()
            reports.append(shard.run_epoch(epoch))
            seconds.append(time.perf_counter() - started)
        lag = max(seconds) - min(seconds) if len(seconds) > 1 else 0.0
        return reports, lag

    def _run_epoch_pool(self, epoch: int):
        config_dict = self.config.to_dict()
        points = tuple(
            Point(fn=shard_epoch_task,
                  config={"city": config_dict, "shard": shard_id,
                          "epoch": epoch,
                          "inbound": self._history[shard_id]},
                  label={"shard": shard_id, "epoch": epoch})
            for shard_id in range(self.config.num_shards))
        spec = RunSpec(
            name=f"city-{self.config.digest()[:8]}-epoch{epoch}",
            points=points)
        result = execute(spec, jobs=self.jobs, cache=self.cache,
                         resume=self.resume)
        if result.failures:
            raise RuntimeError(
                "city epoch failed: "
                + json.dumps(result.failure_report()))
        executed = [s for s in result.stats.point_seconds if s > 0]
        lag = max(executed) - min(executed) if len(executed) > 1 \
            else 0.0
        return list(result.values), lag

    # -- the run loop -------------------------------------------------------

    def run(self) -> CityResult:
        started = time.perf_counter()
        config = self.config
        journal: Optional[CityJournal] = None
        journaled: List[Dict[str, Any]] = []
        if self.checkpoint:
            journal = CityJournal(config.digest(),
                                  root=self.journal_root)
            journal.acquire()
            if self.resume:
                journaled = journal.load()
            # Rewrite from a clean header: a fresh run drops any stale
            # journal; a resumed one re-commits its verified prefix as
            # each epoch replays below.
            journal.reset()
            journal.write_header()

        epoch_digests: List[str] = []
        verified = 0
        reports: List[Dict[str, Any]] = []
        next_inbound: List[List[Dict[str, Any]]] = [
            [] for _ in range(config.num_shards)]
        try:
            for epoch in range(config.epochs):
                for shard_id in range(config.num_shards):
                    self._history[shard_id].append(
                        next_inbound[shard_id])
                if self.jobs and self.jobs > 1:
                    reports, lag = self._run_epoch_pool(epoch)
                else:
                    reports, lag = self._run_epoch_live(epoch)
                digest = epoch_digest(reports)
                if epoch < len(journaled):
                    committed = journaled[epoch].get("epoch_digest")
                    if digest != committed:
                        raise CityIntegrityError(
                            f"epoch {epoch} replayed to {digest[:12]} "
                            f"but the journal committed "
                            f"{str(committed)[:12]}; refusing to "
                            f"resume past a divergent prefix")
                    verified += 1
                if journal is not None:
                    journal.append_epoch(epoch, reports, digest)
                epoch_digests.append(digest)
                self._publish_metrics(reports, lag)
                next_inbound = self._merge(reports)
        except BaseException:
            if journal is not None:
                journal.close()  # keep the journal for a resume
            raise
        if journal is not None:
            journal.discard()
        return CityResult(
            config=config,
            digest=city_digest(config, epoch_digests, self.directory),
            epoch_digests=epoch_digests,
            counters=aggregate_counters(reports),
            directory=dict(self.directory),
            reports=reports,
            verified_epochs=verified,
            wall_s=time.perf_counter() - started)

    # -- observability ------------------------------------------------------

    def _publish_metrics(self, reports: List[Dict[str, Any]],
                         barrier_lag: float) -> None:
        publish_city_metrics(reports, barrier_lag, self._metric_prev)


def publish_city_metrics(reports: List[Dict[str, Any]],
                         barrier_lag: float,
                         previous_counters: Dict[int, Dict[str, Any]]
                         ) -> None:
    """Publish one barrier's shard reports as ``osu_city_*`` families.

    A no-op unless the process-global registry is enabled (``--metrics``
    on the CLIs).  Report counters are cumulative, so each family is
    incremented by the delta against ``previous_counters`` (shard id ->
    counters at the last publish), which is updated in place.
    """
    from repro.obs.registry import default_registry

    registry = default_registry()
    if not registry.enabled:
        return
    handoffs = registry.counter(
        "osu_city_handoffs_total",
        "Cell transitions completed, by destination cell",
        ("shard", "cell", "kind"))
    pages = registry.counter(
        "osu_city_buffered_pages_total",
        "Messages buffered (and paged) awaiting registration",
        ("shard",))
    backbone = registry.counter(
        "osu_city_backbone_bytes_total",
        "Message bytes crossing shard boundaries",
        ("src_shard", "dst_shard"))
    messages = registry.counter(
        "osu_city_messages_total",
        "City messages by disposition", ("shard", "kind"))
    lag_gauge = registry.gauge(
        "osu_city_epoch_barrier_lag_seconds",
        "Wall-clock spread between fastest and slowest shard "
        "at the last epoch barrier")
    scalar_kinds = (
        ("messages_routed", "routed"),
        ("messages_forwarded", "forwarded"),
        ("messages_delivered_local", "delivered_local"),
        ("messages_cross_shard", "cross_shard"),
        ("messages_received", "received"),
        ("messages_hop_dropped", "hop_dropped"),
    )
    for report in reports:
        shard = str(report["shard"])
        current = report["counters"]
        previous = previous_counters.get(report["shard"], {})
        for key, kind in scalar_kinds:
            delta = current[key] - previous.get(key, 0)
            if delta:
                messages.labels(shard, kind).inc(delta)
        delta = (current["messages_buffered_for_registration"]
                 - previous.get("messages_buffered_for_registration", 0))
        if delta:
            pages.labels(shard).inc(delta)
        prev_cells = previous.get("handoffs_by_cell", {})
        for key, count in current["handoffs_by_cell"].items():
            delta = count - prev_cells.get(key, 0)
            if delta:
                cell, kind = key.split("/")
                handoffs.labels(shard, cell, kind).inc(delta)
        prev_bytes = previous.get("cross_shard_bytes", {})
        for dst, total in current["cross_shard_bytes"].items():
            delta = total - prev_bytes.get(dst, 0)
            if delta:
                backbone.labels(shard, dst).inc(delta)
        previous_counters[report["shard"]] = current
    lag_gauge.set(barrier_lag)


def run_city(config: CityConfig, jobs: int = 1, cache: Any = False,
             checkpoint: bool = True,
             journal_root: Optional[str] = None,
             resume: bool = False) -> CityResult:
    """Build a coordinator and run the city to completion."""
    coordinator = CityCoordinator(
        config, jobs=jobs, cache=cache, checkpoint=checkpoint,
        journal_root=journal_root, resume=resume)
    return coordinator.run()


__all__ = [
    "CityCoordinator",
    "CityIntegrityError",
    "CityResult",
    "aggregate_counters",
    "city_digest",
    "epoch_digest",
    "publish_city_metrics",
    "report_digest",
    "run_city",
]
