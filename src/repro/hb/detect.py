"""The scheduler-nondeterminism audit checker.

A streaming :class:`~repro.audit.invariants.Checker` over the v5
``sched.exec`` provenance events: within every group of same-timestamp
executed events, any pair that runs against the *same entity* (the
shared-mutable-state proxy) must be connected by a causal
happens-before path — a scheduling-parent chain, a timer set→fire, or
a packet tx→deliver / data→ACK edge.  A pair that is not is a genuine
execution-order sensitivity: the scheduler's FIFO tie-break, not the
model, decided which ran first, and a permuted tie-break
(:mod:`repro.hb.perturb`) could change the run's observable results —
exactly the failure mode that would silently break the repo's
fingerprint guarantees.

The entity is an object-granularity proxy, so an owner whose callbacks
run against provably disjoint halves can over-report; such owners
refine the proxy by declaring ``HB_PARTITIONS`` (see
:meth:`repro.sim.simulator.Simulator._event_entity` and
:class:`repro.net.link.Link`, whose delivery pipe is independent of
its serializer).

Causal edges never go backward in simulated time, so a happens-before
path between two same-timestamp events can only traverse events at
that timestamp; the checker therefore buffers one tie group at a time
and decides reachability entirely within it, keeping memory bounded by
the largest same-instant burst.  Program-order is deliberately *not* a
causal edge here: among same-timestamp events it is the tie-break
artifact under audit.

The checker is inert on traces without provenance events (the default),
so it rides in :func:`repro.audit.invariants.default_checkers` at zero
cost to existing audited runs.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.audit.invariants import Checker, Violation
from repro.telemetry.schema import (
    EV_PKT_ACK_GEN,
    EV_PKT_DELIVER,
    EV_PKT_TX,
    EV_SCHED_EXEC,
)

__all__ = ["SchedulerNondeterminismChecker"]

#: Tie groups larger than this are not analyzed (quadratic-ish pair
#: work on a same-instant burst this size would stall the audit); the
#: skip is surfaced as a violation so it cannot pass silently.
MAX_GROUP = 10_000

_TIMER_FIRE = "Timer._fire"


class SchedulerNondeterminismChecker(Checker):
    """Flag same-timestamp, same-entity event pairs with no HB path."""

    name = "scheduler-nondeterminism"
    kinds = frozenset({EV_SCHED_EXEC, EV_PKT_TX, EV_PKT_DELIVER,
                       EV_PKT_ACK_GEN})

    def __init__(self) -> None:
        self._time: Optional[float] = None
        # Current tie group, in execution order: (seq, entity, callback).
        self._group: List[Tuple[int, str, str]] = []
        self._in_group: Dict[int, int] = {}  # seq -> group index
        self._forward: Dict[int, List[int]] = {}  # causal edges in group
        self._current: Optional[int] = None  # seq of executing event
        self._tx_node: Dict[int, int] = {}  # pkt uid -> tx seq (in group)
        self._deliver_node: Dict[int, int] = {}  # pkt uid -> deliver seq

    # ------------------------------------------------------------------
    # Stream intake
    # ------------------------------------------------------------------

    def observe(self, record) -> List[Violation]:
        kind = record.kind
        out: List[Violation] = []
        if kind == EV_SCHED_EXEC:
            if self._time is not None and record.time != self._time:
                out = self._flush()
            detail = record.detail
            seq = detail["seq"]
            self._time = record.time
            self._current = seq
            self._in_group[seq] = len(self._group)
            self._group.append((seq, record.source, detail["callback"]))
            parent = detail.get("parent")
            if parent is not None and parent in self._in_group:
                self._forward.setdefault(parent, []).append(seq)
        elif self._current is not None:
            detail = record.detail
            if kind == EV_PKT_TX:
                self._tx_node[detail["uid"]] = self._current
            elif kind == EV_PKT_DELIVER:
                src = self._tx_node.pop(detail["uid"], None)
                if src is not None and src in self._in_group:
                    self._forward.setdefault(src, []).append(self._current)
                self._deliver_node[detail["uid"]] = self._current
            elif kind == EV_PKT_ACK_GEN:
                src = self._deliver_node.get(detail.get("parent"))
                if src is not None and src in self._in_group:
                    self._forward.setdefault(src, []).append(self._current)
        return out

    def finalize(self) -> List[Violation]:
        return self._flush()

    # ------------------------------------------------------------------
    # Group analysis
    # ------------------------------------------------------------------

    def _flush(self) -> List[Violation]:
        """Analyze the buffered tie group and reset for the next one."""
        group, time = self._group, self._time
        forward = self._forward
        self._group = []
        self._in_group = {}
        self._forward = {}
        self._current = None
        # Packet endpoints from a finished instant cannot pair with a
        # later (different-time) event inside one group, so drop them.
        self._tx_node.clear()
        self._deliver_node.clear()
        if len(group) < 2 or time is None:
            return []
        if len(group) > MAX_GROUP:
            return [Violation(
                checker=self.name, time=time,
                message=(f"tie group of {len(group)} same-timestamp events "
                         f"exceeds the {MAX_GROUP}-event analysis bound; "
                         "nondeterminism not checked at this instant"),
            )]
        buckets: Dict[str, List[Tuple[int, str]]] = {}
        for seq, entity, callback in group:
            buckets.setdefault(entity, []).append((seq, callback))
        out: List[Violation] = []
        for entity, events in buckets.items():
            for (seq_a, cb_a), (seq_b, cb_b) in zip(events, events[1:]):
                if not _reaches(forward, seq_a, seq_b):
                    out.append(Violation(
                        checker=self.name, time=time,
                        message=(f"entity {entity!r}: {cb_a} (seq {seq_a}) "
                                 f"and {cb_b} (seq {seq_b}) fire at one "
                                 "instant with no happens-before path; "
                                 "tie-break order can change results"),
                        seq=seq_a,
                    ))
        return out


def _reaches(forward: Dict[int, List[int]], src: int, dst: int) -> bool:
    """True when ``dst`` is reachable from ``src`` over ``forward``."""
    if src == dst:
        return True
    stack = [src]
    visited = {src}
    while stack:
        for nxt in forward.get(stack.pop(), ()):
            if nxt == dst:
                return True
            if nxt not in visited:
                visited.add(nxt)
                stack.append(nxt)
    return False
