"""Benchmark of the Halfback reproduction: host-time end-to-end metrics
and a per-layer CPU ledger, over three workloads.

Run from the root of a checkout (the program is imported from its
``src/``)::

    python3 perfbench/run.py --workload short_load --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20

``--trace 0`` measures the end-to-end metrics with nothing attached: a
discarded warm-up run, then untraced runs for ``--seconds`` (medians
reported), plus fresh interpreters for set-up time and peak memory.
Timings are paired with a calibration loop and reported in reference
seconds (:mod:`calibrate`).
``--trace 1`` adds one cProfile pass with the program's counters
switched on and reports the per-layer ledger (:mod:`ledger`).
``--workload all`` runs both passes on every workload, prints every
table and reports whether each per-layer prediction held.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` (cells) and ``metrics``.  A cell fails if it
raises, if a flow does not complete, if its result digest differs from
the reference (``reference.json`` for the seeds recorded there, else a
fresh interpreter's run of the same seed), or, on ``observed``, if an
audit violation fires.
"""

from __future__ import annotations

import argparse
import cProfile
import gc
import json
import os
import statistics
import subprocess
import sys
import time

import calibrate
import ledger

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
#: Switches that select another build of the program; cleared so the
#: default build is what gets measured.
BUILD_SWITCHES = ("HALFBACK_FAST", "HALFBACK_NUMPY", "HALFBACK_BENCH_SCALE")
#: Fresh interpreters timed per run for ``setup_s``.
SETUP_SAMPLES = 7
#: Fewest timed runs per measurement, however long one run takes.
MIN_REPS = 3
CHILD_TIMEOUT_S = 150


class BenchError(RuntimeError):
    """The benchmark cannot produce a result (not a failed cell)."""


def _import_program():
    """Import ``repro`` from this checkout's ``src/``, never an installed
    copy; returns the package directory."""
    for name in BUILD_SWITCHES:
        os.environ.pop(name, None)
    sys.path.insert(0, SRC)
    try:
        import repro
    except ImportError as exc:
        raise BenchError(f"cannot import the program from {SRC}: {exc}")
    if not os.path.abspath(repro.__file__).startswith(SRC + os.sep):
        raise BenchError(f"imported repro from {repro.__file__}, "
                         f"not from {SRC}")
    return os.path.dirname(os.path.abspath(repro.__file__))


# ----------------------------------------------------------------------
# Child processes: set-up time and peak memory of a fresh interpreter
# ----------------------------------------------------------------------

def _child(mode: str, workload: str, seed: int, scale: float) -> None:
    import suite

    w = suite.WORKLOADS[workload]
    if mode == "setup":
        def ready(sim):
            sys.stdout.write("ready\n")
            sys.stdout.flush()
            os._exit(0)

        cells = suite.build_cells(w, seed, scale)
        with suite.sim_tap(before=ready):
            suite.run_cells(w, cells[:1])
        raise BenchError("the workload never reached Simulator.run")
    results = suite.run_cells(w, suite.build_cells(w, seed, scale))
    print(json.dumps({
        "maxrss_kb": _peak_rss_kb(),
        "digests": [r.digest for r in results],
        "errors": [r.error for r in results],
    }))


def _peak_rss_kb() -> int:
    """Peak resident memory of this process image.  ``ru_maxrss`` would
    not do: a spawned child inherits the parent's high-water mark."""
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise BenchError("no VmHWM line in /proc/self/status")


def _spawn(mode: str, workload: str, seed: int, scale: float):
    return subprocess.Popen(
        [sys.executable, os.path.abspath(__file__), "--child", mode,
         "--workload", workload, "--seed", str(seed), "--scale", str(scale)],
        stdout=subprocess.PIPE, cwd=ROOT)


def measure_setup(workload: str, seed: int, scale: float):
    """Host seconds from spawning a fresh interpreter to its first
    ``Simulator.run`` (import plus building the workload's inputs), as
    ``(raw, reference)`` sample lists."""
    raw, ref = [], []
    before = calibrate.sample()[1]
    for _ in range(SETUP_SAMPLES):
        t0 = time.perf_counter()
        proc = _spawn("setup", workload, seed, scale)
        try:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - t0
            proc.stdout.read()
            proc.wait(timeout=CHILD_TIMEOUT_S)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
            proc.stdout.close()
        if line != b"ready\n" or proc.returncode != 0:
            raise BenchError(f"set-up child exited {proc.returncode} "
                             f"without reaching Simulator.run")
        after = calibrate.sample()[1]
        raw.append(elapsed)
        ref.append(elapsed * calibrate.scale(before, after))
        before = after
    return raw, ref


def run_fresh(workload: str, seed: int, scale: float) -> dict:
    """Run the workload once in a fresh interpreter: its peak resident
    memory, and its cell digests as a reference free of in-process
    state."""
    proc = _spawn("rss", workload, seed, scale)
    try:
        out, _ = proc.communicate(timeout=CHILD_TIMEOUT_S)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.communicate()
    if proc.returncode != 0:
        raise BenchError(f"fresh run exited {proc.returncode}")
    return json.loads(out.decode().strip().splitlines()[-1])


# ----------------------------------------------------------------------
# In-process passes
# ----------------------------------------------------------------------

class EventTally:
    """Simulator counts summed over the runs a :func:`suite.sim_tap`
    sees (read as each ``Simulator.run`` returns)."""

    def __init__(self):
        self.reset()

    def reset(self):
        self.sims = self.fired = self.absorbed = 0

    def __call__(self, sim):
        self.sims += 1
        self.fired += sim.events_run
        self.absorbed += sim.events_absorbed


class Checker:
    """Counts attempted and failed cells against reference digests."""

    def __init__(self, reference):
        #: cell name -> digest; None takes the first checked run's.
        self.reference = reference
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def check(self, label, cells):
        """Check ``(name, digest, error)`` for each cell of one run."""
        cells = list(cells)
        if self.reference is None:
            self.reference = {name: digest for name, digest, _ in cells}
        for name, digest, error in cells:
            self.attempted += 1
            expected = self.reference.get(name)
            problem = error
            if problem is None and digest != expected:
                problem = f"digest {digest} != reference {expected}"
            if problem is not None:
                self.failed += 1
                self.problems.append(f"{label} {name}: {problem}")

    def check_results(self, label, results):
        self.check(label, ((r.name, r.digest, r.error) for r in results))


def timed_reps(suite, w, cells, checker, tally, seconds):
    """Untraced runs for ``seconds`` (at least :data:`MIN_REPS`), each
    timed in process CPU and wall seconds between two calibration
    samples: ``[(cpu, wall, events, cpu_ref, wall_ref)]``."""
    reps = []
    start = time.perf_counter()
    cal = calibrate.sample()
    while True:
        gc.collect()
        tally.reset()
        c0, w0 = time.process_time(), time.perf_counter()
        results = suite.run_cells(w, cells)
        w1, c1 = time.perf_counter(), time.process_time()
        after = calibrate.sample()
        cpu, wall = c1 - c0, w1 - w0
        reps.append((cpu, wall, tally.fired + tally.absorbed,
                     cpu * calibrate.scale(cal[0], after[0]),
                     wall * calibrate.scale(cal[1], after[1])))
        cal = after
        checker.check_results(f"run {len(reps)}", results)
        del results
        typical = statistics.median(r[1] for r in reps)
        if (len(reps) >= MIN_REPS
                and time.perf_counter() - start + typical > seconds):
            return reps


def load_reference(workload, seed, scale):
    if scale != 1.0:
        return None
    with open(os.path.join(HERE, "reference.json"), encoding="utf-8") as fh:
        return json.load(fh).get(workload, {}).get(str(seed))


def measure_e2e(workload, seed, seconds, scale=1.0):
    """The end-to-end metrics: ``({name: (median, unit, samples,
    raw_samples)}, checker)``; timings are in reference seconds
    (:mod:`calibrate`), ``raw_samples`` as the host clock read them."""
    import suite

    w = suite.WORKLOADS[workload]
    setup_raw, setup_ref = measure_setup(workload, seed, scale)
    fresh = run_fresh(workload, seed, scale)
    cells = suite.build_cells(w, seed, scale)
    names = [cell.name for cell in cells]
    checker = Checker(load_reference(workload, seed, scale)
                      or dict(zip(names, fresh["digests"])))
    checker.check("fresh run", zip(names, fresh["digests"], fresh["errors"]))
    tally = EventTally()
    with suite.sim_tap(after=tally):
        checker.check_results("warm-up", suite.run_cells(w, cells))
        reps = timed_reps(suite, w, cells, checker, tally, seconds)
    rss = [fresh["maxrss_kb"] / 1024.0]
    samples = {
        "setup_s": (setup_ref, setup_raw, "s"),
        "cpu_s": ([r[3] for r in reps], [r[0] for r in reps], "s"),
        "wall_s": ([r[4] for r in reps], [r[1] for r in reps], "s"),
        "events_per_s": ([r[2] / r[3] for r in reps],
                         [r[2] / r[0] for r in reps], "1/s"),
        "peak_rss_mb": (rss, rss, "MB"),
    }
    return ({name: (statistics.median(ref), unit, ref, raw)
             for name, (ref, raw, unit) in samples.items()}, checker)


class CounterHub:
    """An ambient telemetry hub that only switches the program's
    counters on: every ``Simulator`` built while it is active takes its
    registry.  ``trace`` is a disabled recorder (the untraced datapath),
    or on ``observed`` an enabled one for the audit and breakdown
    sessions to observe, as they would their own."""

    def __init__(self, metrics, observed):
        from repro.sim.trace import TraceRecorder
        from repro.telemetry.hub import DEFAULT_MAX_RECORDS

        self.metrics = metrics
        self.trace = TraceRecorder(
            enabled=observed,
            max_records=DEFAULT_MAX_RECORDS if observed else None)
        self.profiler = None


def measure_layers(workload, seed, seconds, package_dir, scale=1.0):
    """The per-layer metrics: ``({name: (value, unit)}, checker,
    problems)`` where ``problems`` lists broken ledger invariants."""
    import suite
    from repro.telemetry.metrics import MetricsRegistry

    w = suite.WORKLOADS[workload]
    start = time.perf_counter()
    cells = suite.build_cells(w, seed, scale)
    checker = Checker(load_reference(workload, seed, scale))
    tally = EventTally()
    registry = MetricsRegistry()
    profile = cProfile.Profile()
    with suite.sim_tap(after=tally):
        checker.check_results("warm-up", suite.run_cells(w, cells))
        gc.collect()
        tally.reset()
        profile.enable()
        traced = suite.run_cells(
            w, cells, lambda: CounterHub(registry, w.observed))
        profile.disable()
        checker.check_results("traced pass", traced)

        def value(name):
            return registry.counter(name).value

        counts = dict(
            events_fired=tally.fired, events_absorbed=tally.absorbed,
            sims=tally.sims,
            flows=sum(len(r.records) for r in traced),
            duplicates=sum(rec.duplicate_receptions
                           for r in traced for rec in r.records),
            packets=value("link.tx_packets"), drops=value("queue.drops"),
            segments=value("sender.segments_sent"),
            retx=value("sender.retx_normal") + value("sender.retx_proactive"),
            rto_fired=value("sender.rto_fired"),
            recoveries=value("sender.recovery_entered"),
            ropr_retx=value("halfback.ropr_retx"),
        )
        del traced
        # The rest of the run times untraced runs: the base of the
        # tracing overhead.
        reps = timed_reps(suite, w, cells, checker, tally,
                          seconds - (time.perf_counter() - start))
    profile.create_stats()
    stats = profile.stats
    total = sum(entry[2] for entry in stats.values())
    folded = ledger.fold(stats, package_dir)
    counts.update(ledger.call_counts(stats, package_dir))
    problems = []
    if not ledger.conserves(folded, total):
        problems.append(f"ledger does not conserve: layers sum to "
                        f"{sum(folded.values())!r}, profile to {total!r}")
    if value("scheduler.events_absorbed") != counts["events_absorbed"]:
        problems.append(
            f"scheduler.events_absorbed counter "
            f"{value('scheduler.events_absorbed')} != simulators' "
            f"{counts['events_absorbed']}")
    untraced_cpu = statistics.median(r[0] for r in reps)
    return (ledger.layer_metrics(folded, total, untraced_cpu, counts),
            checker, problems)


# ----------------------------------------------------------------------
# Per-layer predictions (checked by ``--workload all``)
# ----------------------------------------------------------------------

def _lowest(results, metric, workload):
    return min(results, key=lambda w: results[w][metric]) == workload


def _highest(results, metric, workload):
    return max(results, key=lambda w: results[w][metric]) == workload


#: Each layer prediction, as the workload property that makes the
#: predicted move reachable: (layer, prediction, check over
#: ``{workload: {metric: value}}``, metrics shown as evidence).
PREDICTIONS = (
    ("sim", "events_per_s and cpu_s move on short_load, which fires the "
     "most events",
     lambda r: _highest(r, "sim.events_fired", "short_load"),
     ("sim.events_fired",)),
    ("sim", "absorbed_share is about 0 on observed",
     lambda r: r["observed"]["sim.absorbed_share"] < 0.01,
     ("sim.absorbed_share",)),
    ("net", "a train-planning change moves events_per_s on short_load and "
     "long_mix: their packets ride trains",
     lambda r: all(r[w]["net.per_packet_share"] < 0.01
                   for w in ("short_load", "long_mix")),
     ("net.per_packet_share",)),
    ("net", "a per-packet-path change moves cpu_s on observed only: only "
     "its packets take that path",
     lambda r: r["observed"]["net.per_packet_share"] > 0.99
     and all(r[w]["net.per_packet_share"] < 0.01
             for w in ("short_load", "long_mix")),
     ("net.per_packet_share",)),
    ("transport.sender", "ns_per_ack moves cpu_s on long_mix, where clean "
     "cumulative ACKs dominate",
     lambda r: _lowest(r, "transport.sender.retx_share", "long_mix")
     and _highest(r, "transport.sender.share", "long_mix"),
     ("transport.sender.retx_share", "transport.sender.share")),
    ("transport.sender", "recovery work moves cpu_s on short_load",
     lambda r: _highest(r, "transport.sender.rto_fired", "short_load")
     and _highest(r, "transport.sender.recoveries", "short_load"),
     ("transport.sender.rto_fired", "transport.sender.recoveries")),
    ("transport.receiver", "receiver work moves cpu_s on short_load, "
     "where ROPR duplicates occur",
     lambda r: r["short_load"]["transport.receiver.dup_share"]
     > r["long_mix"]["transport.receiver.dup_share"],
     ("transport.receiver.dup_share",)),
    ("protocols", "ROPR moves cpu_s on short_load; long_mix shows little",
     lambda r: r["short_load"]["protocols.ropr_share"]
     > 2 * r["long_mix"]["protocols.ropr_share"],
     ("protocols.ropr_share",)),
    ("experiments", "sims and flows move setup_s",
     lambda r: sorted(r, key=lambda w: r[w]["experiments.flows"])
     == sorted(r, key=lambda w: r[w]["setup_s"]),
     ("experiments.flows", "setup_s")),
    ("obs", "obs.records moves cpu_s on observed, where obs is the "
     "largest layer",
     lambda r: max(ledger.LAYERS, key=lambda layer:
                   r["observed"][f"{layer}.share"]) == "obs",
     ("obs.share", "obs.records")),
    ("obs", "the default path pays for observability on short_load and "
     "long_mix",
     lambda r: all(r[w]["obs.records"] > 0 and r[w]["obs.share"] > 0
                   for w in ("short_load", "long_mix")),
     ("obs.records", "obs.share")),
)


def check_predictions(results):
    """``[(layer, prediction, held, evidence)]`` for :data:`PREDICTIONS`."""
    out = []
    for layer, text, check, shown in PREDICTIONS:
        evidence = "; ".join(
            f"{m}: " + ", ".join(f"{w}={results[w][m]:.4g}" for w in results)
            for m in shown)
        out.append((layer, text, bool(check(results)), evidence))
    return out


# ----------------------------------------------------------------------
# Reporting and entry point
# ----------------------------------------------------------------------

def print_e2e(workload, metrics, checker):
    print(f"== {workload}: end-to-end (untraced)")
    for name, (value, unit, xs, raw) in metrics.items():
        print(f"  {name:<14} {value:>14.6g} {unit:<4} median of {len(xs)}"
              f" (min {min(xs):.6g}, max {max(xs):.6g};"
              f" uncalibrated median {statistics.median(raw):.6g})")
    share = checker.failed / checker.attempted
    print(f"  {'fail_share':<14} {share:>14.6g}      "
          f"{checker.failed} of {checker.attempted} cells")


def print_layers(workload, metrics, checker, problems):
    print(f"== {workload}: layer ledger (one cProfile pass)")
    print(f"  {'layer':<20} {'self_s':>10} {'share':>8}")
    for layer in ledger.LAYERS:
        print(f"  {layer:<20} {metrics[layer + '.self_s'][0]:>10.4f} "
              f"{metrics[layer + '.share'][0]:>8.2%}")
    for name, (value, unit) in metrics.items():
        if not name.endswith((".self_s", ".share")):
            print(f"  {name:<34} {value:>14.6g} {unit}")
    print(f"  cells: {checker.failed} of {checker.attempted} failed")
    for problem in problems:
        print(f"  PROBLEM: {problem}")


def result_line(correct, attempted, failed, metrics):
    return json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": v[0], "unit": v[1]}
                    for name, v in metrics.items()},
    })


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--child", choices=("setup", "rss"),
                        help=argparse.SUPPRESS)
    parser.add_argument("--scale", type=float, default=1.0,
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    try:
        package_dir = _import_program()
        import suite

        names = list(suite.WORKLOADS)
        if args.workload not in names + ["all"]:
            parser.error(f"--workload must be one of {names + ['all']}")
        seed = suite.DEFAULT_SEED if args.seed is None else args.seed
        if args.child:
            _child(args.child, args.workload, seed, args.scale)
            return 0
        problems = run_workloads(
            names if args.workload == "all" else [args.workload],
            seed, args, package_dir)
        for problem in problems:
            print(f"PROBLEM: {problem}", file=sys.stderr)
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    return 0


def run_workloads(names, seed, args, package_dir):
    """Measure ``names`` and print the report; returns problems found."""
    every = args.workload == "all"
    attempted = failed = 0
    problems = []
    results = {}
    metrics = {}
    for name in names:
        values = {}
        if every or args.trace == 0:
            e2e, checker = measure_e2e(name, seed, args.seconds, args.scale)
            print_e2e(name, e2e, checker)
            attempted += checker.attempted
            failed += checker.failed
            problems += checker.problems
            values.update({m: v[0] for m, v in e2e.items()})
            metrics.update({(f"{name}.{m}" if every else m): v[:2]
                            for m, v in e2e.items()})
        if every or args.trace == 1:
            layers, checker, broken = measure_layers(
                name, seed, args.seconds, package_dir, args.scale)
            print_layers(name, layers, checker, broken)
            attempted += checker.attempted
            failed += checker.failed
            problems += checker.problems + broken
            values.update({m: v[0] for m, v in layers.items()})
            metrics.update({(f"{name}.{m}" if every else m): v
                            for m, v in layers.items()})
        results[name] = values
    if every:
        print("== per-layer predictions")
        for layer, text, held, evidence in check_predictions(results):
            print(f"  [{'held' if held else 'NOT HELD'}] {layer}: {text}\n"
                  f"      {evidence}")
    correct = failed == 0 and not problems
    print(result_line(correct, attempted, failed, metrics))
    return problems


if __name__ == "__main__":
    sys.exit(main())
