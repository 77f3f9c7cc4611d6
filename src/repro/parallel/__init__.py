"""Process-parallel fan-out for sweep harnesses.

Every sweep in this repository is a matrix of *cells*, and every cell
is a deterministic function of its own derived seed — no cell reads
another cell's state, the simulator uses no wall-clock time, and the
named RNG streams are keyed by strings, not object identities.  That
makes fan-out trivially safe: run each cell in a worker process and
merge the results **in the original cell order**.  A parallel sweep is
then bit-identical to a serial one — same records, same report, same
fingerprint — only faster.

:func:`fanout_map` is the one primitive: an order-preserving ``map``
over a worker function, serial for ``jobs <= 1`` and a supervised
:class:`concurrent.futures.ProcessPoolExecutor` otherwise.  Workers
must be module-level functions and the items/results picklable; all
sweep cells here satisfy that (plain dataclasses end to end).

Three ambient integrations make runs observable and resilient instead
of opaque and brittle:

* **progress** — when a :class:`repro.obs.progress.ProgressPlane` is
  active in the parent, every item becomes a *shard*: workers post
  start/heartbeat/done events that the parent renders as the live
  status table / Prometheus / JSONL exports.  Serial runs report
  inline through the same plane.
* **worker environment** — ``--telemetry``, ``--chaos`` and
  ``--procfault`` sessions live in parent-process context variables a
  pool worker would silently miss.  :func:`worker_env` declares a
  picklable :class:`WorkerEnv` that the pool initializer re-activates
  inside every worker.  Only ``--audit`` still forces serial runs (its
  flight recorder is single-process by design).
* **supervision & journaling** — :func:`supervision` declares a
  :class:`FanoutPolicy` (retries with deterministic backoff,
  heartbeat-deadline reaping of hung workers, hedged straggler
  duplication, poison-cell quarantine) and :func:`journaling` a
  :class:`CellJournal` that records each completed cell durably so an
  interrupted sweep resumes instead of restarting.  The default policy
  is the legacy behavior: one attempt, first failure propagates.
"""

from __future__ import annotations

import argparse
from contextlib import contextmanager, nullcontext
from typing import (
    Callable, ContextManager, Dict, Iterable, Iterator, List, Optional,
    Tuple, TypeVar,
)

from repro.obs import progress as _progress
from repro.parallel import pool as _pool
from repro.parallel.journal import (
    CellJournal,
    cell_digest,
    current_journal,
    journaling,
)
from repro.parallel.pool import (
    WorkerEnv,
    current_worker_env,
    resolve_jobs,
    worker_env,
)
from repro.parallel.supervisor import (
    FanoutPolicy,
    ShardFailure,
    ShardSupervisor,
    SupervisorStats,
    run_serial,
)

__all__ = [
    "CellJournal",
    "FanoutPolicy",
    "ShardFailure",
    "WorkerEnv",
    "cell_digest",
    "current_journal",
    "current_policy",
    "current_worker_env",
    "fanout_map",
    "fanout_stats",
    "journaling",
    "open_resume",
    "progress_plane",
    "reset_fanout_stats",
    "resolve_jobs",
    "run_plane_parser",
    "supervision",
    "worker_env",
]

_Item = TypeVar("_Item")
_Result = TypeVar("_Result")

_DEFAULT_POLICY = FanoutPolicy()

# ----------------------------------------------------------------------
# Run-plane flags
# ----------------------------------------------------------------------


def run_plane_parser() -> argparse.ArgumentParser:
    """The run-plane flags as an argparse parent parser (``parents=[...]``).

    These flags steer how a sweep runs — fan-out, supervision, resume,
    progress, manifest — not the simulation: a completed run's report
    and fingerprint do not depend on them.
    """
    parser = argparse.ArgumentParser(add_help=False)
    plane = parser.add_argument_group("run plane")
    plane.add_argument("--jobs", type=int, default=1, metavar="N",
                       help="worker processes for the sweep-cell fan-out "
                            "(default 1 = serial; reports and "
                            "fingerprints are identical either way)")
    plane.add_argument("--progress", nargs="?", const="-", default=None,
                       metavar="DIR",
                       help="live per-cell progress plane (refreshing "
                            "status on stderr); with DIR also exports "
                            "progress.prom (Prometheus text) and "
                            "progress.jsonl snapshots there")
    plane.add_argument("--manifest", default="run_manifest.json",
                       metavar="PATH",
                       help="where to write the run manifest "
                            "(default: run_manifest.json)")
    plane.add_argument("--no-manifest", action="store_true",
                       help="skip writing the run manifest")
    plane.add_argument("--retries", type=int, default=1, metavar="N",
                       help="total attempts per sweep cell before it "
                            "counts as failed (default 1 = no retry; "
                            "backoff is deterministic)")
    plane.add_argument("--heartbeat-timeout", type=float, default=None,
                       metavar="SECONDS",
                       help="reap (SIGKILL) a fan-out worker after this "
                            "many seconds of heartbeat silence and retry "
                            "its cell (default: never)")
    plane.add_argument("--procfault", default=None, metavar="SPEC",
                       help="inject harness process faults into the "
                            "fan-out, e.g. "
                            "'kill@1,hang@2/20,raise@3,kill%%10,seed=7' "
                            "(deterministic; exercises the shard "
                            "supervisor)")
    plane.add_argument("--resume", default=None, metavar="DIR",
                       help="journal completed sweep cells to "
                            "DIR/cells.jsonl and replay any already "
                            "recorded there; an interrupted run resumes "
                            "with an identical final report and "
                            "fingerprint")
    return parser


def open_resume(directory: Optional[str]
                ) -> Tuple[Optional[CellJournal], Optional[dict]]:
    """``--resume``'s journal and its manifest lineage, or ``(None, None)``.

    The lineage digests the journal *being resumed*, so it is taken
    here, before the run appends to it.
    """
    if directory is None:
        return None, None
    journal = CellJournal(directory)
    return journal, {"journal": journal.path,
                     "journal_digest": journal.file_digest()}


def progress_plane(spec: Optional[str]) -> ContextManager:
    """The ``--progress`` plane for a flag value (``"-"``: stderr only),
    or a null context when the flag is unset."""
    if spec is None:
        return nullcontext()
    return _progress.plane(out_dir=None if spec == "-" else spec)


# ----------------------------------------------------------------------
# Ambient supervision policy
# ----------------------------------------------------------------------

_active_policy: Optional[FanoutPolicy] = None


def current_policy() -> Optional[FanoutPolicy]:
    """The ambient supervision policy, or None (legacy semantics)."""
    return _active_policy


@contextmanager
def supervision(policy: Optional[FanoutPolicy]) -> Iterator[Optional[FanoutPolicy]]:
    """Apply ``policy`` to every ``fanout_map`` in the block."""
    global _active_policy
    previous = _active_policy
    _active_policy = policy
    try:
        yield policy
    finally:
        _active_policy = previous


# ----------------------------------------------------------------------
# Run-level supervision accounting
# ----------------------------------------------------------------------

_run_stats = SupervisorStats()


def fanout_stats() -> dict:
    """Supervision counters accumulated since the last reset (every
    ``fanout_map`` call merges in; CLIs record this in the manifest)."""
    return _run_stats.to_dict()


def reset_fanout_stats() -> None:
    """Zero the run-level supervision counters."""
    global _run_stats
    _run_stats = SupervisorStats()


# ----------------------------------------------------------------------
# The fan-out primitive
# ----------------------------------------------------------------------


def fanout_map(
    worker: Callable[[_Item], _Result],
    items: Iterable[_Item],
    jobs: int = 1,
    policy: Optional[FanoutPolicy] = None,
    journal: Optional[CellJournal] = None,
) -> List[_Result]:
    """Map ``worker`` over ``items``, preserving input order.

    ``jobs <= 1`` (or a single item) runs serially in-process — the
    zero-overhead baseline parallel runs must match.  Otherwise items
    are dispatched to a supervised process pool that preserves input
    order regardless of completion order, which is what keeps merged
    sweep reports (and their fingerprints) bit-identical to serial
    runs.

    ``worker`` must be picklable (a module-level function), as must the
    items and results.  Under the default policy a worker exception
    propagates to the caller, matching the serial path's behavior;
    ``policy`` (or an ambient :func:`supervision` block) buys retries,
    hung-shard reaping, hedging, and quarantine — see
    :class:`FanoutPolicy`.  With quarantine on, failed slots hold
    :class:`ShardFailure` records instead of raising.

    ``journal`` (or an ambient :func:`journaling` block) makes the run
    resumable: completed cells are replayed by digest, the rest are
    recorded as they finish.

    When a progress plane (:mod:`repro.obs.progress`) is active, every
    item reports as one shard; when a :class:`WorkerEnv` is declared
    (see :func:`worker_env`), pool workers re-activate the parent's
    telemetry/chaos/procfault sessions before their first item.
    """
    items = list(items)
    if policy is None:
        policy = _active_policy or _DEFAULT_POLICY
    if journal is None:
        journal = current_journal()
    workers = resolve_jobs(jobs, len(items))
    plane = _progress.current_plane()
    if plane is not None:
        plane.begin(len(items))

    # Journal replay: resolve already-completed cells by digest.
    replayed: Dict[int, _Result] = {}
    digests: List[str] = []
    if journal is not None:
        recorded = journal.replay()
        for index, item in enumerate(items):
            digest = cell_digest(worker, item)
            digests.append(digest)
            if digest in recorded:
                value = recorded[digest]
                # A journal only ever holds real results, but heal a
                # hand-edited one: a failure tombstone re-runs its cell.
                if isinstance(value, ShardFailure):
                    continue
                replayed[index] = value
        if replayed and plane is not None:
            for index in sorted(replayed):
                plane.apply(_progress.ProgressEvent(
                    index, "done", label=_pool._item_label(items[index])))

    def on_result(index: int, value: _Result) -> None:
        if journal is not None and index not in replayed:
            journal.append(digests[index], _pool._item_label(items[index]),
                           value)

    if workers <= 1:
        stats = SupervisorStats(shards=len(items), replayed=len(replayed))
        try:
            results = run_serial(worker, items, policy, plane=plane,
                                 on_result=on_result, results=replayed,
                                 stats=stats)
        finally:
            _run_stats.merge(stats)
        if plane is not None:
            plane.tick(force=True)
        return results

    supervisor = ShardSupervisor(
        worker, items, workers, policy, env=_pool.current_worker_env(),
        plane=plane, on_result=on_result, results=replayed)
    supervisor.stats.replayed = len(replayed)
    try:
        results = supervisor.run()
    finally:
        _run_stats.merge(supervisor.stats)
    if plane is not None:
        plane.sync()
        plane.tick(force=True)
    return results
