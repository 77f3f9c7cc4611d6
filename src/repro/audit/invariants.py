"""Protocol invariant checkers over the telemetry event stream.

Each checker watches :class:`~repro.sim.trace.TraceRecord` objects as
they are emitted and produces structured :class:`Violation` records when
a property the paper (or the transport contract) promises is broken:

* ``seq-ack-monotonicity`` — a receiver's cumulative ACK never regresses
  and new data is transmitted in increasing segment order;
* ``packet-conservation`` — per link, every transmitted packet was
  enqueued and every delivered/lost packet was in flight (in = out +
  dropped + in flight); a double delivery or a materialized packet is a
  conservation leak;
* ``pacing-evenness`` — Halfback's pacing phase spreads its segments at
  even intervals (§3.1) with a bounded initial burst;
* ``ropr-order`` — ROPR's retransmission pointer moves strictly
  monotonically (descending for the paper's reverse order, §3.2);
* ``ropr-never-acked`` — no data segment is transmitted after the
  sender has seen it acknowledged (cumulatively or via SACK);
* ``frontier-meet`` — when ROPR ends normally, every segment of the
  paced prefix has been either proposed for proactive retransmission or
  ACKed (the frontier-meet termination property, Fig. 3);
* ``rto-sanity`` — timeout counters advance one at a time and no
  RTO/recovery fires after a flow completed.

Checkers are deliberately *stream-only*: they reconstruct sender-side
knowledge purely from the events (see :class:`AckKnowledge`), so the
same code audits a live run and an offline trace replay identically.

Every checker declares the record kinds its ``observe`` reads in
``kinds``, a frozenset of kind strings.  The auditor routes each record
only to the checkers that declared its kind: a record of an undeclared
kind is never delivered, so a checker that reads a kind it did not
declare silently misses it.  ``kinds = None`` (the base-class default)
means every kind, which keeps custom checkers working unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, FrozenSet, List, Optional, Set, Tuple

from repro.telemetry.schema import (
    EV_CHAOS_CLONE,
    EV_FLOW_COMPLETE,
    EV_HALFBACK_FRONTIER,
    EV_HALFBACK_PHASE,
    EV_LINK_LOSS,
    EV_PKT_ACK_GEN,
    EV_PKT_DELIVER,
    EV_PKT_ENQUEUE,
    EV_PKT_SEND,
    EV_PKT_TX,
    EV_QUEUE_DROP,
    EV_SENDER_DONE,
    EV_SENDER_RECOVERY,
    EV_SENDER_RTO,
)

__all__ = ["Violation", "Checker", "AckKnowledge", "FctConservationChecker",
           "default_checkers"]


@dataclass
class Violation:
    """One detected invariant violation.

    ``chain`` is filled in by the auditor from the lineage tracer: the
    offending packet's full causal chain (original transmission, hops,
    the retransmission itself) rendered as text lines.
    """

    checker: str
    time: float
    message: str
    flow: Optional[int] = None
    uid: Optional[int] = None
    seq: Optional[int] = None
    chain: List[str] = field(default_factory=list)

    def render(self) -> str:
        """One-line summary for reports."""
        where = f"flow={self.flow}" if self.flow is not None else "global"
        packet = f" uid={self.uid}" if self.uid is not None else ""
        return (f"[{self.checker}] t={self.time:.6f} {where}{packet}: "
                f"{self.message}")

    def to_dict(self) -> Dict[str, Any]:
        """JSON-ready shape (used by the post-mortem bundle)."""
        return {
            "checker": self.checker,
            "time": self.time,
            "message": self.message,
            "flow": self.flow,
            "uid": self.uid,
            "seq": self.seq,
            "chain": list(self.chain),
        }


class Checker:
    """Base class: observe records, emit violations, finalize at EOF.

    ``kinds`` names the record kinds :meth:`observe` reads.  Records of
    any other kind are never delivered to it; None (the default) means
    every kind.  :meth:`attach` and :meth:`detach` bracket a live run on
    a trace recorder, for checkers that take shared derived state from
    it instead of rebuilding that state themselves.
    """

    name = "base"
    kinds: Optional[FrozenSet[str]] = None

    def observe(self, record) -> List[Violation]:
        """Process one record; return any violations it exposes."""
        return []

    def finalize(self) -> List[Violation]:
        """End-of-stream hook for checks that need the full run."""
        return []

    def attach(self, trace) -> None:
        """The auditor starts observing the live recorder ``trace``."""

    def detach(self, trace) -> None:
        """The auditor stops observing ``trace``."""


# ======================================================================
# Sender-knowledge reconstruction
# ======================================================================


class AckKnowledge(Checker):
    """What each flow's sender provably knows is ACKed, per the stream.

    ACK contents (cumulative point + SACK ranges) are captured when the
    ACK packet is originated (``pkt.send`` with ``type == "ack"``) and
    merged into the flow's acked set when that packet completes its
    final hop (``pkt.deliver`` whose ``dst`` matches the ACK's
    destination).  Because a link emits ``pkt.deliver`` *before* handing
    the packet to the destination node, the sender's reaction to an ACK
    is always observed after the knowledge update — checkers evaluating
    at ``pkt.send`` time therefore see exactly the scoreboard state the
    sender acted on.

    In-network duplicates (``chaos.clone``) inherit the copied ACK's
    in-flight contents under their own uid: a clone that reaches the
    sender teaches it exactly what the original would have, even when
    the original itself is later dropped.
    """

    name = "ack-knowledge"
    kinds = frozenset({EV_PKT_SEND, EV_CHAOS_CLONE, EV_PKT_DELIVER,
                       EV_LINK_LOSS, EV_QUEUE_DROP, EV_SENDER_DONE})

    def __init__(self) -> None:
        # ACK uid -> (flow, cumulative ack, sack ranges, destination).
        self._in_flight: Dict[int, Tuple[int, int, Any, str]] = {}
        self._cum: Dict[int, int] = {}
        # Above-cum SACKed segments (pruned as the cum point advances).
        self._sacked: Dict[int, Set[int]] = {}

    def observe(self, record) -> List[Violation]:
        kind = record.kind
        detail = record.detail
        if kind == EV_PKT_SEND:
            if detail.get("type") == "ack":
                self._in_flight[detail["uid"]] = (
                    detail["flow"], detail.get("ack", -1),
                    detail.get("sack", ()), detail.get("dst", ""),
                )
        elif kind == EV_CHAOS_CLONE:
            info = self._in_flight.get(detail.get("clone_of"))
            if info is not None:
                self._in_flight[detail["uid"]] = info
        elif kind == EV_PKT_DELIVER:
            info = self._in_flight.get(detail["uid"])
            if info is not None and detail.get("dst") == info[3]:
                del self._in_flight[detail["uid"]]
                # A corrupted ACK is discarded by the endpoint's
                # checksum stand-in, so its contents never reach the
                # sender — merging it would credit the sender with
                # knowledge it provably does not have.
                if not detail.get("corrupted"):
                    self._merge(info[0], info[1], info[2])
        elif kind in (EV_LINK_LOSS, EV_QUEUE_DROP):
            self._in_flight.pop(detail.get("uid"), None)
        elif kind == EV_SENDER_DONE:
            flow = detail.get("flow")
            self._cum.pop(flow, None)
            self._sacked.pop(flow, None)
        return []

    def _merge(self, flow: int, ack: int, sack) -> None:
        cum = self._cum.get(flow, 0)
        if ack > cum:
            cum = ack
            self._cum[flow] = cum
            old = self._sacked.get(flow)
            if old:
                self._sacked[flow] = {s for s in old if s >= cum}
        if sack:
            sacked = self._sacked.setdefault(flow, set())
            for lo, hi in sack:
                sacked.update(s for s in range(lo, hi) if s >= cum)

    def cum_ack(self, flow: int) -> int:
        """The flow's delivered cumulative ACK point."""
        return self._cum.get(flow, 0)

    def is_acked(self, flow: int, seq: int) -> bool:
        """True when the sender has seen ``seq`` acknowledged."""
        if seq < self._cum.get(flow, 0):
            return True
        sacked = self._sacked.get(flow)
        return sacked is not None and seq in sacked


# ======================================================================
# Checkers
# ======================================================================


class AckMonotonicityChecker(Checker):
    """Cumulative ACKs never regress; new data goes out in order."""

    name = "seq-ack-monotonicity"
    kinds = frozenset({EV_PKT_ACK_GEN, EV_PKT_SEND, EV_SENDER_DONE})

    def __init__(self) -> None:
        self._last_ack: Dict[int, int] = {}
        self._last_new_seq: Dict[int, int] = {}

    def observe(self, record) -> List[Violation]:
        detail = record.detail
        if record.kind == EV_PKT_ACK_GEN:
            flow, ack = detail["flow"], detail["ack"]
            last = self._last_ack.get(flow, -1)
            if ack < last:
                return [Violation(
                    self.name, record.time,
                    f"cumulative ACK regressed {last} -> {ack}",
                    flow=flow, uid=detail["uid"],
                )]
            self._last_ack[flow] = ack
        elif (record.kind == EV_PKT_SEND
                and detail.get("type") == "data"
                and not detail.get("retransmit")):
            flow, seq = detail["flow"], detail.get("seq", -1)
            last = self._last_new_seq.get(flow, -1)
            self._last_new_seq[flow] = max(last, seq)
            if seq <= last:
                return [Violation(
                    self.name, record.time,
                    f"new data out of order: seq {seq} after {last}",
                    flow=flow, uid=detail["uid"], seq=seq,
                )]
        elif record.kind == EV_SENDER_DONE:
            self._last_ack.pop(detail.get("flow"), None)
            self._last_new_seq.pop(detail.get("flow"), None)
        return []


class ConservationChecker(Checker):
    """Per-link packet conservation: in = out + dropped + in flight.

    Stage-tracked per ``(link, uid)``: a transmission must follow an
    enqueue, and a delivery or in-flight loss must consume exactly one
    in-flight packet.  A second delivery of the same uid (or a packet
    materializing inside a link) is a conservation leak.  No end-of-run
    balance is asserted, so horizon-cut runs with packets legitimately
    in flight stay clean.
    """

    name = "packet-conservation"
    kinds = frozenset({EV_PKT_ENQUEUE, EV_PKT_TX, EV_PKT_DELIVER,
                       EV_LINK_LOSS})

    def __init__(self) -> None:
        self._queued: Dict[str, Set[int]] = {}
        self._flight: Dict[str, Set[int]] = {}
        self._armed = False  # only judge streams that carry lineage events

    def observe(self, record) -> List[Violation]:
        kind = record.kind
        detail = record.detail
        if kind == EV_PKT_ENQUEUE:
            self._armed = True
            self._queued.setdefault(record.source, set()).add(detail["uid"])
        elif kind == EV_PKT_TX:
            self._armed = True
            uid = detail["uid"]
            queued = self._queued.get(record.source)
            if queued is None or uid not in queued:
                return [Violation(
                    self.name, record.time,
                    f"link {record.source!r} transmitted a packet that was "
                    f"never enqueued",
                    flow=detail.get("flow"), uid=uid,
                )]
            queued.discard(uid)
            self._flight.setdefault(record.source, set()).add(uid)
        elif kind == EV_PKT_DELIVER and self._armed:
            uid = detail["uid"]
            flight = self._flight.get(record.source)
            if flight is None or uid not in flight:
                return [Violation(
                    self.name, record.time,
                    f"link {record.source!r} delivered a packet that was not "
                    f"in flight (conservation leak)",
                    flow=detail.get("flow"), uid=uid,
                )]
            flight.discard(uid)
        elif kind == EV_LINK_LOSS and self._armed:
            uid = detail["uid"]
            flight = self._flight.get(record.source)
            if flight is None or uid not in flight:
                return [Violation(
                    self.name, record.time,
                    f"link {record.source!r} lost a packet that was not "
                    f"in flight",
                    uid=uid,
                )]
            flight.discard(uid)
        return []


class PacingChecker(Checker):
    """Halfback's pacing phase spreads segments evenly (§3.1).

    The ``halfback.phase`` PACING event carries the plan (segments,
    interval, configured initial burst).  First-transmission data sends
    are collected until the phase ends; the leading same-timestamp group
    must not exceed the configured burst (+1 for the pacer's immediate
    first release), and every subsequent inter-send gap must sit within
    ``TOLERANCE`` of the median gap — a collapsed or bursty pacer shows
    up as a wildly deviant gap.
    """

    name = "pacing-evenness"
    kinds = frozenset({EV_HALFBACK_PHASE, EV_PKT_SEND})
    TOLERANCE = 0.3

    def __init__(self) -> None:
        # flow -> {"interval", "burst", "times"}
        self._active: Dict[int, Dict[str, Any]] = {}

    def observe(self, record) -> List[Violation]:
        detail = record.detail
        if record.kind == EV_HALFBACK_PHASE:
            flow = detail["flow"]
            if detail.get("phase") == "pacing":
                self._active[flow] = {
                    "interval": detail.get("interval", 0.0),
                    "burst": detail.get("burst", 1),
                    "times": [],
                }
            elif flow in self._active:
                return self._evaluate(flow, record.time)
        elif (record.kind == EV_PKT_SEND
                and detail.get("type") == "data"
                and not detail.get("retransmit")):
            state = self._active.get(detail["flow"])
            if state is not None:
                state["times"].append(record.time)
        return []

    def _evaluate(self, flow: int, now: float) -> List[Violation]:
        state = self._active.pop(flow)
        times: List[float] = state["times"]
        if len(times) < 2:
            return []
        burst = state["burst"]
        leading = 1
        while leading < len(times) and times[leading] == times[0]:
            leading += 1
        out: List[Violation] = []
        if leading > burst + 1:
            # The pacer releases its first item immediately, sharing the
            # burst's timestamp — hence the +1 allowance.
            out.append(Violation(
                self.name, now,
                f"{leading} segments sent at once; configured initial "
                f"burst allows {burst} (+1 immediate paced release)",
                flow=flow,
            ))
        paced = times[leading - 1:]
        gaps = [b - a for a, b in zip(paced, paced[1:])]
        if len(gaps) < 2:
            return out
        median = sorted(gaps)[len(gaps) // 2]
        if median <= 0:
            out.append(Violation(
                self.name, now,
                "paced releases collapsed to a single instant",
                flow=flow,
            ))
            return out
        for index, gap in enumerate(gaps):
            if abs(gap - median) > self.TOLERANCE * median:
                out.append(Violation(
                    self.name, now,
                    f"uneven pacing: gap {index + 1} is {gap:.6f}s vs "
                    f"median {median:.6f}s (tolerance "
                    f"{self.TOLERANCE:.0%})",
                    flow=flow,
                ))
                break  # one violation per flow is enough signal
        return out


class RoprOrderChecker(Checker):
    """ROPR's pointer is strictly monotone in the configured direction.

    A violating frontier step is held back briefly so the immediately
    following ``pkt.send`` of that proposal can stamp the violation with
    the offending packet's uid (the frontier event itself is emitted
    just before the transmission); any other event for the flow flushes
    a pending violation un-stamped.
    """

    name = "ropr-order"
    kinds = frozenset({EV_PKT_SEND, EV_HALFBACK_PHASE,
                       EV_HALFBACK_FRONTIER})

    def __init__(self) -> None:
        self._order: Dict[int, str] = {}
        self._last_pointer: Dict[int, int] = {}
        self._pending: Dict[int, Violation] = {}  # flow -> violation

    def observe(self, record) -> List[Violation]:
        detail = record.detail
        kind = record.kind
        if kind == EV_PKT_SEND and detail.get("proactive"):
            pending = self._pending.pop(detail["flow"], None)
            if pending is not None:
                if pending.seq == detail.get("seq"):
                    pending.uid = detail["uid"]
                return [pending]
            return []
        if kind == EV_HALFBACK_PHASE:
            flow = detail["flow"]
            out = self._flush(flow)
            if detail.get("phase") == "ropr":
                self._order[flow] = detail.get("order", "reverse")
            return out
        if kind != EV_HALFBACK_FRONTIER:
            return []
        flow = detail["flow"]
        out = self._flush(flow)
        pointer = detail["pointer"]
        last = self._last_pointer.get(flow)
        self._last_pointer[flow] = pointer
        if last is not None:
            order = self._order.get(flow, "reverse")
            bad = pointer >= last if order == "reverse" else pointer <= last
            if bad:
                arrow = "descend" if order == "reverse" else "ascend"
                self._pending[flow] = Violation(
                    self.name, record.time,
                    f"ROPR pointer must strictly {arrow} "
                    f"({order} order): {last} -> {pointer}",
                    flow=flow, seq=pointer,
                )
        return out

    def _flush(self, flow: int) -> List[Violation]:
        pending = self._pending.pop(flow, None)
        return [pending] if pending is not None else []

    def finalize(self) -> List[Violation]:
        out = list(self._pending.values())
        self._pending.clear()
        return out


class NeverRetransmitAckedChecker(Checker):
    """No data segment is sent after the sender saw it ACKed (§3.2)."""

    name = "ropr-never-acked"
    kinds = frozenset({EV_PKT_SEND})

    def __init__(self, knowledge: AckKnowledge) -> None:
        self._knowledge = knowledge

    def observe(self, record) -> List[Violation]:
        detail = record.detail
        if record.kind != EV_PKT_SEND or detail.get("type") != "data":
            return []
        flow, seq = detail["flow"], detail.get("seq", -1)
        if seq >= 0 and self._knowledge.is_acked(flow, seq):
            what = ("proactively retransmitted" if detail.get("proactive")
                    else "retransmitted" if detail.get("retransmit")
                    else "transmitted")
            return [Violation(
                self.name, record.time,
                f"segment {seq} {what} after the sender saw it ACKed "
                f"(cum={self._knowledge.cum_ack(flow)})",
                flow=flow, uid=detail["uid"], seq=seq,
            )]
        return []


class FrontierMeetChecker(Checker):
    """ROPR ends exactly when proposals and ACKs cover the paced prefix.

    Evaluated when a flow leaves the ROPR phase normally (RTO-aborted
    flows are skipped — the paper hands those to reactive recovery).
    At that instant every segment of ``[0, plan.segments)`` must be
    either proposed by a frontier event or ACKed per the sender's
    delivered-ACK knowledge; a gap means the phase terminated early.
    """

    name = "frontier-meet"
    kinds = frozenset({EV_HALFBACK_FRONTIER, EV_SENDER_RTO, EV_HALFBACK_PHASE,
                       EV_SENDER_DONE})

    def __init__(self, knowledge: AckKnowledge) -> None:
        self._knowledge = knowledge
        self._segments: Dict[int, int] = {}
        self._proposed: Dict[int, Set[int]] = {}
        self._in_ropr: Set[int] = set()
        self._rto_flows: Set[int] = set()

    def observe(self, record) -> List[Violation]:
        detail = record.detail
        kind = record.kind
        if kind == EV_HALFBACK_FRONTIER:
            self._proposed.setdefault(detail["flow"], set()).add(
                detail["pointer"])
        elif kind == EV_SENDER_RTO:
            self._rto_flows.add(detail["flow"])
        elif kind == EV_HALFBACK_PHASE:
            flow = detail["flow"]
            phase = detail.get("phase")
            if phase == "pacing":
                self._segments[flow] = detail.get("segments", 0)
            elif phase == "ropr":
                self._in_ropr.add(flow)
            elif phase in ("drain", "fallback"):
                was_ropr = flow in self._in_ropr
                self._in_ropr.discard(flow)
                if was_ropr and flow not in self._rto_flows:
                    return self._check_coverage(flow, record.time)
        elif kind == EV_SENDER_DONE:
            flow = detail.get("flow")
            self._segments.pop(flow, None)
            self._proposed.pop(flow, None)
            self._in_ropr.discard(flow)
            self._rto_flows.discard(flow)
        return []

    def _check_coverage(self, flow: int, now: float) -> List[Violation]:
        segments = self._segments.get(flow, 0)
        proposed = self._proposed.get(flow, set())
        missing = [s for s in range(segments)
                   if s not in proposed
                   and not self._knowledge.is_acked(flow, s)]
        if not missing:
            return []
        shown = ", ".join(map(str, missing[:8]))
        if len(missing) > 8:
            shown += f", ... ({len(missing)} total)"
        return [Violation(
            self.name, now,
            f"ROPR ended with segments neither proposed nor ACKed: {shown}",
            flow=flow, seq=missing[0],
        )]


class RtoSanityChecker(Checker):
    """Timeout counters advance by one; nothing fires after completion."""

    name = "rto-sanity"
    kinds = frozenset({EV_SENDER_DONE, EV_SENDER_RTO, EV_SENDER_RECOVERY})

    def __init__(self) -> None:
        self._done: Set[int] = set()
        self._timeouts: Dict[int, int] = {}

    def observe(self, record) -> List[Violation]:
        detail = record.detail
        kind = record.kind
        if kind == EV_SENDER_DONE:
            self._done.add(detail["flow"])
            self._timeouts.pop(detail["flow"], None)
        elif kind == EV_SENDER_RTO:
            flow = detail["flow"]
            if flow in self._done:
                return [Violation(
                    self.name, record.time,
                    "RTO fired after the flow completed", flow=flow,
                )]
            count = detail.get("timeouts", 0)
            last = self._timeouts.get(flow, 0)
            self._timeouts[flow] = count
            if count != last + 1:
                return [Violation(
                    self.name, record.time,
                    f"timeout counter jumped {last} -> {count}", flow=flow,
                )]
        elif kind == EV_SENDER_RECOVERY:
            flow = detail["flow"]
            if flow in self._done:
                return [Violation(
                    self.name, record.time,
                    "recovery entered after the flow completed", flow=flow,
                )]
            if detail.get("point", 0) < 0:
                return [Violation(
                    self.name, record.time,
                    f"recovery point {detail.get('point')} is negative",
                    flow=flow,
                )]
        return []


class FctConservationChecker(Checker):
    """The FCT-attribution conservation invariant (PR 7).

    :class:`repro.obs.spans.FlowSpanBuilder` partitions every completed
    flow's ``[flow.start, flow.complete]`` window into named components;
    this checker judges each completed breakdown and flags any flow
    whose components do not sum back to its FCT within float
    tolerance — either a builder classification hole or an emitter
    breaking the lineage contract the attribution rests on.  The
    ``fct`` detail on ``flow.complete`` is cross-checked against the
    observed window too.

    Offline (replay, direct feeding) the checker runs a private builder
    over the records it observes, so ``kinds`` is the builder's.  On a
    live recorder it subscribes to the recorder's shared builder
    instead (:func:`repro.obs.spans.subscribe`), which every breakdown
    session reads too; breakdowns complete only on ``flow.complete``,
    so that is then the one kind it reads, to report on that record.
    """

    name = "fct-conservation"

    def __init__(self) -> None:
        # Deferred import: repro.audit must stay importable without
        # pulling the whole obs package in at module-import time.
        from repro.obs.spans import CONSERVATION_TOLERANCE, FlowSpanBuilder

        self._tolerance = CONSERVATION_TOLERANCE
        self._queued: List[Violation] = []
        self._builder: Optional[Any] = FlowSpanBuilder(on_complete=self._judge)
        self.kinds = FlowSpanBuilder.kinds

    def attach(self, trace) -> None:
        from repro.obs.spans import subscribe

        # The shared builder observes ``trace`` ahead of the auditor, so
        # a breakdown is judged before its flow.complete reaches us.
        subscribe(trace, self._judge)
        self._builder = None
        self.kinds = frozenset({EV_FLOW_COMPLETE})

    def detach(self, trace) -> None:
        from repro.obs.spans import unsubscribe

        unsubscribe(trace, self._judge)

    def _judge(self, breakdown) -> None:
        tolerance = self._tolerance * max(1.0, breakdown.fct)
        error = breakdown.conservation_error
        if error > tolerance:
            parts = ", ".join(
                f"{name}={value:.6f}"
                for name, value in sorted(breakdown.components.items()))
            self._queued.append(Violation(
                self.name, breakdown.complete,
                f"components sum off FCT by {error:.3e}s "
                f"(fct={breakdown.fct:.6f}s: {parts})",
                flow=breakdown.flow,
            ))
        if (breakdown.fct_event is not None
                and abs(breakdown.fct_event - breakdown.fct) > tolerance):
            self._queued.append(Violation(
                self.name, breakdown.complete,
                f"flow.complete fct={breakdown.fct_event:.6f}s disagrees "
                f"with observed window {breakdown.fct:.6f}s",
                flow=breakdown.flow,
            ))

    def observe(self, record) -> List[Violation]:
        if self._builder is not None:
            self._builder.observe(record)
        if not self._queued:
            return []
        queued, self._queued = self._queued, []
        return queued


def default_checkers() -> List[Checker]:
    """The full registry, sharing one :class:`AckKnowledge` instance.

    The knowledge helper leads the list (it is a silent checker), so by
    the time any dependent checker judges a record the sender-knowledge
    view already reflects it.
    """
    # Deferred import: repro.hb.detect imports this module's Checker
    # base, so importing it at module scope would be circular.
    from repro.hb.detect import SchedulerNondeterminismChecker
    knowledge = AckKnowledge()
    checkers: List[Checker] = [
        knowledge,
        AckMonotonicityChecker(),
        ConservationChecker(),
        PacingChecker(),
        RoprOrderChecker(),
        NeverRetransmitAckedChecker(knowledge),
        FrontierMeetChecker(knowledge),
        RtoSanityChecker(),
        FctConservationChecker(),
        SchedulerNondeterminismChecker(),
    ]
    return checkers
