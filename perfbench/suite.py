"""The benchmark's workloads: seeded inputs, one run of a workload, and
the result digest each cell is checked against.

A workload is a fixed list of *cells*; a cell is one self-contained
simulation run through :func:`repro.experiments.scenarios.run_workload`,
which ``run_utilization_point`` (a Fig. 12 cell) and the Fig. 13 mixes
call.  Traffic is open-loop Poisson arrivals in simulated time,
*conditioned on the arrival count*: a cell's arrival count is fixed by
its load and horizon and only the instants are drawn from the seed.
Given its count, a Poisson process places its arrivals as sorted
uniform instants, so the traffic is still Poisson; what the
conditioning removes is the seed-to-seed swing in how much work a run
is (about 10% in event count with a free count), which would otherwise
drown a speed change in the seed's noise.
"""

from __future__ import annotations

import hashlib
import random
import sys
import traceback
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass
from typing import Callable, Dict, Iterator, List, Optional, Tuple

from repro.experiments.runner import ScheduledFlow
from repro.experiments.scenarios import (EMULAB, SHORT_FLOW_BYTES,
                                         run_workload)
from repro.sim.randomness import derive_seed
from repro.sim.simulator import Simulator
from repro.telemetry.context import activated
from repro.units import mb
from repro.workloads.arrivals import rate_for_utilization

#: Default seed of a benchmark run.
DEFAULT_SEED = 1
#: Fig. 13's elephant: 20 MB rather than the paper's 100 MB, as
#: :func:`repro.experiments.fig13_short_long.run` defaults to.
LONG_FLOW_BYTES = mb(20)


@dataclass(frozen=True)
class Workload:
    """How to build one workload's cells."""

    name: str
    #: ``"short"``: one all-short-flow cell per (protocol, utilization),
    #: as in Fig. 12.  ``"mix"``: one Fig. 13 cell per protocol, that
    #: protocol's short flows against long TCP flows.
    kind: str
    protocols: Tuple[str, ...]
    utilizations: Tuple[float, ...]
    #: Simulated seconds of arrivals (``"short"``; the arrival count is
    #: the load's mean count over this horizon).
    horizon: float = 0.0
    #: Long TCP flows per cell (``"mix"``); the horizon and the short
    #: count follow from the load and Fig. 13's 10 % short byte share.
    long_flows: int = 0
    #: Run every cell under ``AuditSession`` + ``BreakdownSession``, as
    #: ``--audit --breakdown`` does.
    observed: bool = False


WORKLOADS: Dict[str, Workload] = {
    w.name: w for w in (
        Workload("short_load", "short", ("tcp", "halfback"), (0.5, 0.8),
                 horizon=6.0),
        Workload("long_mix", "mix", ("halfback",), (0.7,), long_flows=2),
        Workload("observed", "short", ("tcp", "halfback"), (0.5, 0.8),
                 horizon=1.0, observed=True),
    )
}


@dataclass(frozen=True)
class Cell:
    """One simulation of a workload."""

    name: str
    schedule: Tuple[ScheduledFlow, ...]
    sim_seed: int
    n_pairs: int
    drain_time: float


def _instants(rng: random.Random, count: int, horizon: float) -> List[float]:
    """``count`` Poisson arrival instants on ``[0, horizon]``, given the
    count: sorted independent uniforms."""
    return sorted(rng.uniform(0.0, horizon) for _ in range(count))


def build_cells(workload: Workload, seed: int,
                scale: float = 1.0) -> List[Cell]:
    """The workload's cells for ``seed``; ``scale`` shrinks every arrival
    count (self-tests run at a few percent)."""
    cells = []
    link = EMULAB.bottleneck_rate
    for protocol in workload.protocols:
        for u in workload.utilizations:
            if workload.kind == "short":
                rate = rate_for_utilization(u, link, SHORT_FLOW_BYTES)
                count = max(1, round(rate * workload.horizon * scale))
                # Same instants for every protocol at one load (the
                # paper's replay methodology); the simulator seed mixes
                # the protocol in, as run_utilization_point does.
                rng = random.Random(derive_seed(seed, f"short:{u:.4f}"))
                schedule = [ScheduledFlow(t, SHORT_FLOW_BYTES, protocol)
                            for t in _instants(rng, count, workload.horizon)]
                cells.append(Cell(f"{protocol}@{u:g}", tuple(schedule),
                                  derive_seed(seed, protocol),
                                  n_pairs=16, drain_time=30.0))
            else:
                short_fraction = 0.10
                long_rate = rate_for_utilization(
                    u * (1 - short_fraction), link, LONG_FLOW_BYTES)
                short_rate = rate_for_utilization(
                    u * short_fraction, link, SHORT_FLOW_BYTES)
                horizon = workload.long_flows / long_rate
                n_long = max(1, round(workload.long_flows * scale))
                n_short = max(1, round(short_rate * horizon * scale))
                rng = random.Random(derive_seed(seed, f"mixed:{u:.4f}"))
                flows = [ScheduledFlow(t, SHORT_FLOW_BYTES, protocol, "short")
                         for t in _instants(rng, n_short, horizon)]
                flows += [ScheduledFlow(t, LONG_FLOW_BYTES, "tcp", "long")
                          for t in _instants(rng, n_long, horizon)]
                flows.sort(key=lambda f: f.time)
                cells.append(Cell(f"{protocol}+tcp-long@{u:g}", tuple(flows),
                                  derive_seed(seed, f"fig13:{protocol}"),
                                  n_pairs=12, drain_time=60.0))
    return cells


def cell_digest(records) -> str:
    """Canonical digest of one cell's simulated results.

    Per flow, in run order: protocol, kind, size, start, completion and
    the retransmission and timeout counts.  Flow ids are left out: they
    come from a process-global counter that keeps counting across
    repeated runs in one process.
    """
    h = hashlib.sha256()
    for r in records:
        s = r.spec
        h.update(f"{s.protocol}|{s.kind}|{s.size}|{s.start_time!r}|"
                 f"{r.complete_time!r}|{r.normal_retransmissions}|"
                 f"{r.proactive_retransmissions}|{r.timeouts}\n".encode())
    return h.hexdigest()[:20]


@dataclass
class CellResult:
    """What one cell produced; ``error`` is None when it ran cleanly."""

    name: str
    records: list
    error: Optional[str] = None

    @property
    def digest(self) -> Optional[str]:
        return None if self.error else cell_digest(self.records)


def _run_cell(cell: Cell, observed: bool,
              hub_factory: Optional[Callable[[], object]]) -> CellResult:
    hub = activated(hub_factory()) if hub_factory else nullcontext()
    try:
        with hub:
            if observed:
                # Imported here so the other workloads' set-up does not
                # pay for modules they never use.
                from repro.audit import AuditSession
                from repro.obs.critical import BreakdownSession

                with AuditSession() as audit, BreakdownSession():
                    collector = run_workload(
                        cell.schedule, seed=cell.sim_seed,
                        n_pairs=cell.n_pairs, drain_time=cell.drain_time)
                if audit.violations:
                    return CellResult(cell.name, collector.records,
                                      f"{len(audit.violations)} audit "
                                      f"violation(s), first: "
                                      f"{audit.violations[0].render()}")
            else:
                collector = run_workload(
                    cell.schedule, seed=cell.sim_seed, n_pairs=cell.n_pairs,
                    drain_time=cell.drain_time)
    except Exception:  # a cell that raises is a failed cell, not a crash
        traceback.print_exc(file=sys.stderr)
        last = traceback.format_exc().strip().splitlines()[-1]
        return CellResult(cell.name, [], f"raised {last}")
    records = collector.records
    if any(r.complete_time is None or r.complete_time < r.spec.start_time
           for r in records):
        return CellResult(cell.name, records, "a flow did not complete")
    return CellResult(cell.name, records)


def run_cells(workload: Workload, cells: List[Cell],
              hub_factory: Optional[Callable[[], object]] = None
              ) -> List[CellResult]:
    """One run of the workload: every cell, in order.

    ``hub_factory`` makes an ambient telemetry hub per cell (the traced
    pass uses it to read the program's counters).
    """
    return [_run_cell(cell, workload.observed, hub_factory) for cell in cells]


@contextmanager
def sim_tap(before: Optional[Callable[[Simulator], None]] = None,
            after: Optional[Callable[[Simulator], None]] = None
            ) -> Iterator[None]:
    """Wrap :meth:`Simulator.run` with benchmark-side hooks.

    The benchmark's span around the simulator layer: ``before`` sees
    each simulator as its run starts (set-up ends there), ``after`` once
    it returns (event counts are read there).
    """
    original = Simulator.run

    def run(sim, *args, **kwargs):
        if before is not None:
            before(sim)
        result = original(sim, *args, **kwargs)
        if after is not None:
            after(sim)
        return result

    Simulator.run = run
    try:
        yield
    finally:
        Simulator.run = original
