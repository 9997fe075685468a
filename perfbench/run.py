"""The repo benchmark: one workload, one run, one JSON result line.

Usage (from the repository root)::

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 22 --trace 0
    python3 perfbench/run.py --workload city --seed 1 --trace 1
    python3 perfbench/run.py --workload fidelity --seed 1 --counters

``--trace 0`` measures the end-to-end metrics with nothing attached;
``--trace 1`` runs the per-layer passes (probes, cProfile, and for
``serve`` tracemalloc) and prints the per-layer table; ``--counters``
prints only the deterministic work counters.  The last line of standard
output is always one JSON object.  See perfbench/README.md.
"""

from __future__ import annotations

import time

_STARTED = time.perf_counter()  # set-up time counts from here

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from typing import Any, Dict, List  # noqa: E402

import hostspeed  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
BASELINE = os.path.join(HERE, "baseline.json")

#: Set-up is measured this many times, in fresh processes, and the
#: median is reported.  One set-up takes about 0.2 s; the host's speed
#: drifts by tens of percent within a run, so the samples are taken one
#: after each unit (the rest after the last unit) to see the same host
#: as the units do.
SETUP_REPEATS = 11


def parse_args(argv: List[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("sweep", "fidelity", "city", "serve"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=22.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--counters", action="store_true",
                        help="print only the deterministic work counters")
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def percentile(ordered: List[float], q: float) -> float:
    """Nearest-rank percentile of an already sorted list."""
    if not ordered:
        return 0.0
    rank = min(len(ordered), max(1, math.ceil(q * len(ordered))))
    return ordered[rank - 1]


def load_baseline() -> Dict[str, Any]:
    with open(BASELINE, "r", encoding="utf-8") as handle:
        return json.load(handle)


def peak_rss_mb(who: int) -> float:
    return resource.getrusage(who).ru_maxrss / 1024.0


def setup_sample(args: argparse.Namespace) -> float:
    """Set-up seconds of one fresh interpreter process, on the
    reference host (see hostspeed.py)."""
    done = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--setup-probe",
         "--workload", args.workload, "--seed", str(args.seed)],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
    probe = json.loads(done.stdout.strip().splitlines()[-1])
    return probe["setup_s"] * hostspeed.factor(probe["kernel_s"])


def measured_unit(workload: Any, index: int) -> Any:
    """Run unit ``index`` between two host-speed samples.

    A single-threaded workload's units take turns on the CPUs, each
    pinned, with its kernel samples on the same CPU.  ``city`` is left
    unpinned (its pool workers would inherit the pin) and samples the
    kernel on every CPU.
    """
    cpus = sorted(os.sched_getaffinity(0))
    if workload.name == "city" or len(cpus) < 2:
        unit, factor = hostspeed.bracketed(workload.unit, cpus)
    else:
        cpu = cpus[index % len(cpus)]
        os.sched_setaffinity(0, {cpu})
        try:
            unit, factor = hostspeed.bracketed(workload.unit, [cpu])
        finally:
            os.sched_setaffinity(0, cpus)
    unit.host_factor = factor
    return unit


def judge(units: List[Any], workload: str, seed: int,
          golden: Dict[str, Dict[str, str]]) -> Dict[str, Any]:
    """Attempted/failed operations and the run-level verdict.

    Every unit must reproduce the golden digest of its seed (when one
    is recorded) and the first unit's digest; a unit that does not
    fails all its operations.
    """
    expected = golden.get(workload, {}).get(str(seed), units[0].digest)
    attempted = failed = 0
    problems: List[str] = []
    for index, unit in enumerate(units):
        attempted += len(unit.outcomes)
        if unit.digest != expected:
            failed += len(unit.outcomes)
            problems.append(f"unit {index}: digest {unit.digest[:12]} "
                            f"!= expected {expected[:12]}")
            continue
        bad = [o for o in unit.outcomes if o is not None]
        failed += len(bad)
        problems.extend(f"unit {index}: {o}" for o in bad[:3])
    return {"attempted": attempted, "failed": failed,
            "problems": problems}


def end_to_end(units: List[Any], setup_s: float,
               rss_mb: float) -> Dict[str, Dict[str, Any]]:
    """The result metrics, every timing scaled to the reference host.

    Throughput is the median over the run's units of one whole unit's
    rate, with its garbage collection, journal and engine overhead.
    Every unit of a run repeats the same steps (cycles, points or
    epochs) in the same order, so each step's host time is first taken
    as its median over the units, and the p50/p99 over those: a step
    that is dear in every repeat -- a fault burst, a journal or GC
    pause the work itself causes -- stays in the tail, while a moment
    the host stalled in one unit does not swap a cheap step for a dear
    one.
    """
    def rate(unit: Any) -> float:
        return unit.cell_cycles / (unit.wall_s * unit.host_factor)

    typical = sorted(
        statistics.median(seconds * unit.host_factor
                          for seconds, unit in zip(step, units))
        for step in zip(*(unit.step_s for unit in units)))

    def step_ms(q: float) -> float:
        return percentile(typical, q) * 1e3

    return {
        "cell_cycles_per_s": {"value": statistics.median(map(rate, units)),
                              "unit": "cycles/s"},
        "setup_s": {"value": setup_s, "unit": "s"},
        "peak_rss_mb": {"value": rss_mb, "unit": "MB"},
        "cycle_step_ms_p50": {"value": step_ms(0.50), "unit": "ms"},
        "cycle_step_ms_p99": {"value": step_ms(0.99), "unit": "ms"},
    }


def simulated(units: List[Any]) -> Dict[str, Dict[str, Any]]:
    """The paper's metrics, deterministic for a seed (printed only)."""
    first = units[0]
    return {
        "sim_utilization": {"value": statistics.fmean(first.utilization),
                            "unit": "ratio"},
        "sim_message_delay_cycles": {
            "value": statistics.fmean(first.message_delay_cycles),
            "unit": "cycles"},
        "sim_gps_access_delay_max_s": {
            "value": first.gps_access_delay_max_s, "unit": "s"},
    }


def exercised(workload: str, units: List[Any]) -> List[str]:
    """Output-level proof that the workload still drives its layer."""
    first = units[0]
    missing = []
    if workload == "city":
        if not first.extra["cross_shard"]:
            missing.append("city: no cross-shard envelopes")
        if not first.extra["handoffs"]:
            missing.append("city: no handoffs")
    if workload == "serve":
        if not first.extra["journal_bytes"]:
            missing.append("serve: empty journal")
        if not first.extra["faults_injected"]:
            missing.append("serve: no faults injected")
    return missing


def main(argv: List[str]) -> int:
    args = parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"perfbench: no repro package under {SRC}; run from a "
              f"full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    workdir = os.path.join(ROOT, ".perfbench",
                           f"{args.workload}-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    # Keep every cache/journal the engine might touch inside the checkout.
    os.environ["REPRO_CACHE_DIR"] = os.path.join(workdir, "cache")
    os.environ["REPRO_JOURNAL_DIR"] = os.path.join(workdir, "journal")
    try:
        return run(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(workdir))
        except OSError:
            pass  # another run still uses it


def run(args: argparse.Namespace, workdir: str) -> int:
    import workloads

    workload = workloads.WORKLOADS[args.workload](args.seed, workdir)
    workload.setup()
    if args.setup_probe:
        setup_s = time.perf_counter() - _STARTED
        print(json.dumps({"setup_s": setup_s,
                          "kernel_s": hostspeed.kernel_s()}))
        workload.close()
        return 0
    baseline = load_baseline()
    try:
        if args.counters or args.trace:
            import layers

            report = layers.traced_run(workload, counters_only=args.counters)
            units = report.units
        else:
            units = [measured_unit(workload, 0)]
            # Peak RSS of set-up plus one unit: later units repeat the
            # same work, so the peak does not depend on the run length.
            rss_mb = peak_rss_mb(resource.RUSAGE_SELF)
            setup = [setup_sample(args)]
            # The measured window is the units' own time; the set-up
            # samples between them are not part of it.
            while sum(unit.wall_s for unit in units) < args.seconds:
                units.append(measured_unit(workload, len(units)))
                if len(setup) < SETUP_REPEATS:
                    setup.append(setup_sample(args))
            if args.workload == "city":
                # Which worker replays which shard varies from epoch to
                # epoch; the largest worker of the whole run is steadier.
                # (The set-up sample processes peak at ~26 MB, below it.)
                rss_mb = max(rss_mb, peak_rss_mb(resource.RUSAGE_CHILDREN))
    finally:
        workload.close()
    verdict = judge(units, args.workload, args.seed, baseline["golden"])
    problems = verdict["problems"] + exercised(args.workload, units)

    if args.counters:
        counters = report.counters
        recorded = baseline["counters"].get(args.workload)
        if recorded is not None and args.seed == 1:
            changed = {k: [recorded.get(k), v] for k, v in counters.items()
                       if recorded.get(k) != v}
            print(f"counters vs baseline (seed 1): "
                  f"{'identical' if not changed else changed}")
        print("calls per entry point: " + json.dumps(
            dict(sorted(report.calls.items()))))
        metrics = {name: {"value": value, "unit": layers.UNITS[name]}
                   for name, value in counters.items()}
    elif args.trace:
        problems += report.missing_layers
        metrics = report.metrics
    else:
        setup += [setup_sample(args)
                  for _ in range(SETUP_REPEATS - len(setup))]
        print("  set-up samples s: " + " ".join(f"{s:.3f}" for s in setup))
        print("  host-speed factor per unit: "
              + " ".join(f"{u.host_factor:.3f}" for u in units))
        unscaled = statistics.median(u.cell_cycles / u.wall_s
                                     for u in units)
        print(f"  unscaled cell_cycles_per_s: {unscaled:.6g}")
        metrics = end_to_end(units, statistics.median(setup), rss_mb)

    correct = not problems
    print(f"workload {args.workload}  seed {args.seed}  units {len(units)}"
          f"  cell-cycles {sum(u.cell_cycles for u in units)}"
          f"  cycle steps per unit {len(units[0].step_s)}"
          f"  digest {units[0].digest}")
    print("  unit wall s: " + " ".join(f"{u.wall_s:.3f}" for u in units))
    print(f"  failed_fraction {verdict['failed'] / verdict['attempted']:.6g}"
          f" ({verdict['failed']}/{verdict['attempted']} operations)")
    for name, metric in {**simulated(units), **metrics}.items():
        print(f"  {name:40s} {metric['value']:.6g} {metric['unit']}")
    for problem in problems[:20]:
        print(f"  CHECK FAILED: {problem}")
    print(json.dumps({"correct": correct,
                      "attempted": verdict["attempted"],
                      "failed": verdict["failed"],
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
