"""Causal FCT attribution: the online per-flow span builder.

Where does a short flow's completion time actually go?  Halfback's
whole argument is about the *composition* of FCT — proactive
retransmission removes loss-detection wait, ROPR removes RTO idle — so
this module decomposes every flow's ``[flow.start, flow.complete]``
window into named critical-path components, online, from the v2/v4
telemetry event stream (``pkt.*`` lineage, sender episodes, queue and
loss events).

The decomposition is **conserving by construction**: the window is
partitioned into intervals delimited by the flow's own trace events,
and every interval is attributed to exactly one component by a priority
classifier over the flow's in-flight state.  The component sums
therefore add up to the FCT to within float-addition error — an
invariant :class:`repro.audit.invariants.FctConservationChecker`
enforces audit-style on every audited run.

Components (one per interval, highest priority first):

``handshake``
    The connection is not yet established (SYN exchange, or the wait
    before the first data transmission under TCP fast open).
``retransmission``
    A retransmitted data packet (reactive or ROPR/proactive) is in
    flight — repair is under way.
``rto-idle``
    A transmitted segment is lost and *nothing* is in flight: the
    sender is sitting out an RTO.  The component Halfback's ROPR phase
    is designed to eliminate.
``loss-detection``
    A segment is lost but packets are still flying: the sender has not
    yet learned about the loss (dupACK accumulation, SACK wait).
``serialization``
    The oldest in-flight first-transmission packet is on the wire,
    inside its ``[tx, tx+ser)`` serialization window.
``queue-wait``
    The oldest in-flight packet is sitting in a link's egress queue.
``propagation``
    The oldest in-flight packet is propagating (or an ACK is riding
    back) — the irreducible speed-of-light share.
``pacing``
    Nothing is in flight, nothing is lost, and the flow is not done:
    the sender is deliberately holding back (paced first-RTT gaps,
    JumpStart inter-packet spacing).

The builder never touches simulation state and keeps only in-flight
packet state per live flow, so it is safe (and cheap) to attach as a
trace observer on arbitrarily long runs.

Live consumers share one builder per trace recorder: :func:`subscribe`
attaches it on first use and fans each completed breakdown out to every
subscriber (the ``fct-conservation`` audit checker, each nested
:class:`~repro.obs.critical.BreakdownSession`), so a stream is
classified once however many consumers read the result.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.telemetry.schema import (
    EV_CHAOS_CLONE,
    EV_FLOW_COMPLETE,
    EV_FLOW_START,
    EV_HALFBACK_PHASE,
    EV_LINK_LOSS,
    EV_PKT_DELIVER,
    EV_PKT_ENQUEUE,
    EV_PKT_SEND,
    EV_PKT_TX,
    EV_QUEUE_DROP,
    EV_SENDER_ESTABLISHED,
    EV_SENDER_FAILED,
    EV_SENDER_RECOVERY,
    EV_SENDER_RTO,
)

__all__ = [
    "COMPONENTS",
    "CONSERVATION_TOLERANCE",
    "FlowBreakdown",
    "FlowSpanBuilder",
    "subscribe",
    "unsubscribe",
]

#: Canonical component order (report tables render in this order).
COMPONENTS = (
    "handshake",
    "serialization",
    "queue-wait",
    "propagation",
    "pacing",
    "loss-detection",
    "retransmission",
    "rto-idle",
)

#: Allowed |sum(components) - (complete - start)| per flow.  The sums
#: are float additions of exact interval differences, so the error is
#: rounding only; 1 µs absolute (plus relative slack for long flows)
#: is orders of magnitude above anything legitimate.
CONSERVATION_TOLERANCE = 1e-6

_DATA_TYPES = frozenset({"data", "probe"})
_HANDSHAKE_TYPES = frozenset({"syn", "syn_ack", "handshake_ack"})


class _PacketState:
    """In-flight view of one packet (uid) of one flow."""

    __slots__ = ("uid", "cls", "seq", "sent", "final_dst", "hop",
                 "tx_time", "ser", "retransmit")

    def __init__(self, uid: int, cls: str, seq: int, sent: float,
                 final_dst: Optional[str], retransmit: bool) -> None:
        self.uid = uid
        self.cls = cls            # "data" | "ack" | "hs"
        self.seq = seq
        self.sent = sent
        self.final_dst = final_dst
        self.hop = "queued"       # "queued" | "tx" | "prop"
        self.tx_time = 0.0
        self.ser = 0.0
        self.retransmit = retransmit


@dataclass
class FlowBreakdown:
    """One completed flow's FCT decomposition."""

    flow: int
    protocol: str
    size: int
    start: float
    complete: float
    #: component name -> attributed seconds (only non-zero components).
    components: Dict[str, float]
    #: ``fct`` detail carried by the ``flow.complete`` event (None when
    #: the emitter did not include one).
    fct_event: Optional[float] = None
    #: Retained only when the builder keeps spans: raw component
    #: intervals ``(t0, t1, component)`` in time order.
    intervals: List[Tuple[float, float, str]] = field(default_factory=list)
    #: Retained packet spans: dicts with uid/seq/type/retransmit/
    #: proactive/t_send/t_end/fate.
    packets: List[Dict[str, Any]] = field(default_factory=list)
    #: Episode markers: ``(time, kind, detail)`` for sender.recovery,
    #: sender.rto and halfback.phase events.
    episodes: List[Tuple[float, str, str]] = field(default_factory=list)

    @property
    def fct(self) -> float:
        """The attributed window width (== FCT for runner-emitted flows)."""
        return self.complete - self.start

    @property
    def conservation_error(self) -> float:
        """|sum(components) - fct|; ~0 by construction."""
        return abs(sum(self.components.values()) - self.fct)

    @property
    def conserved(self) -> bool:
        """True when components sum to FCT within tolerance."""
        tol = CONSERVATION_TOLERANCE * max(1.0, self.fct)
        return self.conservation_error <= tol

    def to_dict(self) -> Dict[str, Any]:
        return {
            "flow": self.flow,
            "protocol": self.protocol,
            "size": self.size,
            "start": self.start,
            "fct": self.fct,
            "components": {name: self.components[name]
                           for name in sorted(self.components)},
        }


class _FlowState:
    """Live attribution state for one flow."""

    __slots__ = ("flow", "protocol", "size", "start", "established",
                 "last_t", "components", "inflight", "lost_seqs",
                 "ack_lost", "intervals", "packets", "episodes",
                 "keep_spans")

    def __init__(self, flow: int, protocol: str, size: int, start: float,
                 keep_spans: bool) -> None:
        self.flow = flow
        self.protocol = protocol
        self.size = size
        self.start = start
        self.established = False
        self.last_t = start
        self.components: Dict[str, float] = {}
        self.inflight: Dict[int, _PacketState] = {}
        self.lost_seqs: set = set()
        self.ack_lost = False
        self.keep_spans = keep_spans
        self.intervals: List[Tuple[float, float, str]] = []
        self.packets: List[Dict[str, Any]] = []
        self.episodes: List[Tuple[float, str, str]] = []

    # -- interval attribution ------------------------------------------

    def _oldest(self, classes) -> Optional[_PacketState]:
        best = None
        for pkt in self.inflight.values():
            if pkt.cls not in classes:
                continue
            if best is None or (pkt.sent, pkt.uid) < (best.sent, best.uid):
                best = pkt
        return best

    def _charge(self, t0: float, t1: float, component: str) -> None:
        if t1 <= t0:
            return
        self.components[component] = (
            self.components.get(component, 0.0) + (t1 - t0))
        if self.keep_spans:
            if (self.intervals
                    and self.intervals[-1][2] == component
                    and self.intervals[-1][1] == t0):
                prev = self.intervals[-1]
                self.intervals[-1] = (prev[0], t1, component)
            else:
                self.intervals.append((t0, t1, component))

    def _charge_hop(self, t0: float, t1: float, pkt: _PacketState) -> None:
        """Attribute [t0, t1) by the governing packet's hop position,
        splitting a tx-hop interval at the serialization boundary."""
        if pkt.hop == "queued":
            self._charge(t0, t1, "queue-wait")
            return
        if pkt.hop == "tx":
            boundary = pkt.tx_time + pkt.ser
            if t0 < boundary:
                self._charge(t0, min(t1, boundary), "serialization")
            if t1 > boundary:
                self._charge(max(t0, boundary), t1, "propagation")
            return
        self._charge(t0, t1, "propagation")

    def advance(self, t: float) -> None:
        """Close the interval [last_t, t) under the current state."""
        t0, t1 = self.last_t, t
        self.last_t = t
        if t1 <= t0:
            return
        if not self.established:
            self._charge(t0, t1, "handshake")
            return
        for pkt in self.inflight.values():
            if pkt.retransmit:
                self._charge(t0, t1, "retransmission")
                return
        has_data = any(p.cls == "data" for p in self.inflight.values())
        if self.lost_seqs or self.ack_lost:
            if has_data or self.inflight:
                self._charge(t0, t1, "loss-detection")
            else:
                self._charge(t0, t1, "rto-idle")
            return
        if has_data:
            self._charge_hop(t0, t1, self._oldest(("data",)))
            return
        if self.inflight:
            self._charge_hop(t0, t1, self._oldest(("ack", "hs")))
            return
        self._charge(t0, t1, "pacing")

    # -- packet bookkeeping --------------------------------------------

    def track(self, pkt: _PacketState) -> None:
        self.inflight[pkt.uid] = pkt

    def settle(self, uid: int, t: float, fate: str) -> Optional[_PacketState]:
        """A packet reached its final destination, or died in flight."""
        pkt = self.inflight.pop(uid, None)
        if pkt is None:
            return None
        if self.keep_spans:
            self.packets.append({
                "uid": pkt.uid, "seq": pkt.seq, "cls": pkt.cls,
                "retransmit": pkt.retransmit, "t_send": pkt.sent,
                "t_end": t, "fate": fate,
            })
        return pkt


class FlowSpanBuilder:
    """Online trace observer building per-flow FCT breakdowns.

    Attach :meth:`observe` to a :class:`~repro.sim.trace.TraceRecorder`
    (``trace.add_observer(builder.observe)``) with lineage events on;
    completed flows surface through the ``on_complete`` callback and are
    then forgotten, so the builder's memory is bounded by the number of
    simultaneously live flows (plus retained spans when requested).

    Parameters
    ----------
    keep_spans:
        Retain component intervals, packet spans and episode markers on
        each :class:`FlowBreakdown` (the trace-viewer / ``explain``
        substrate).  Off by default — aggregation needs components only.
    focus_flow:
        With ``keep_spans``, retain spans only for this flow id
        (others still get component sums).
    max_spans:
        Total retained packet-span budget across all flows; beyond it
        packet spans are dropped (component attribution is unaffected).
    on_complete:
        Called with each finished :class:`FlowBreakdown`.
    """

    #: The record kinds :meth:`observe` reads; it returns on any other.
    kinds = frozenset({
        EV_FLOW_START, EV_FLOW_COMPLETE, EV_PKT_SEND, EV_PKT_ENQUEUE,
        EV_PKT_TX, EV_PKT_DELIVER, EV_QUEUE_DROP, EV_LINK_LOSS,
        EV_CHAOS_CLONE, EV_SENDER_ESTABLISHED, EV_SENDER_RECOVERY,
        EV_SENDER_RTO, EV_HALFBACK_PHASE, EV_SENDER_FAILED,
    })

    def __init__(self, keep_spans: bool = False,
                 focus_flow: Optional[int] = None,
                 max_spans: int = 200_000,
                 on_complete: Optional[Callable[[FlowBreakdown], None]] = None
                 ) -> None:
        self.keep_spans = keep_spans
        self.focus_flow = focus_flow
        self.max_spans = max_spans
        self.on_complete = on_complete
        self.flows: Dict[int, _FlowState] = {}
        self._uid_flow: Dict[int, int] = {}
        self._spans_kept = 0
        self.flows_completed = 0
        self.flows_discarded = 0

    # ------------------------------------------------------------------

    def _keep_for(self, flow: int) -> bool:
        if not self.keep_spans or self._spans_kept >= self.max_spans:
            return False
        return self.focus_flow is None or flow == self.focus_flow

    def observe(self, record) -> None:
        """The trace-observer callback; safe on every record kind."""
        kind = record.kind
        if kind not in self.kinds:
            return
        detail = record.detail
        t = record.time
        if kind == EV_FLOW_START:
            flow = detail["flow"]
            self.flows[flow] = _FlowState(
                flow, detail.get("protocol", "?"), detail.get("size", 0),
                t, self._keep_for(flow))
            return
        if kind == EV_PKT_SEND:
            flow = detail.get("flow")
            state = self.flows.get(flow)
            if state is None:
                return
            state.advance(t)
            ptype = detail.get("type", "data")
            if ptype in _DATA_TYPES:
                cls = "data"
                if not state.established:
                    # TCP fast open: data flows without a preceding
                    # sender.established event.
                    state.established = True
            elif ptype in _HANDSHAKE_TYPES:
                cls = "hs"
            else:
                cls = "ack"
            retransmit = bool(detail.get("retransmit")
                              or detail.get("proactive"))
            uid = detail["uid"]
            state.track(_PacketState(uid, cls, detail.get("seq", -1), t,
                                     detail.get("dst"), retransmit))
            self._uid_flow[uid] = flow
            return
        if kind == EV_PKT_ENQUEUE or kind == EV_PKT_TX:
            flow = detail.get("flow")
            state = self.flows.get(flow)
            if state is None:
                return
            pkt = state.inflight.get(detail["uid"])
            if pkt is None:
                return
            state.advance(t)
            if kind == EV_PKT_ENQUEUE:
                pkt.hop = "queued"
            else:
                pkt.hop = "tx"
                pkt.tx_time = t
                pkt.ser = detail.get("ser", 0.0)
            return
        if kind == EV_PKT_DELIVER:
            flow = detail.get("flow")
            state = self.flows.get(flow)
            if state is None:
                return
            uid = detail["uid"]
            pkt = state.inflight.get(uid)
            if pkt is None:
                return
            state.advance(t)
            if detail.get("dst") != pkt.final_dst:
                # Mid-path hop: back in a queue at the next link
                # momentarily; until its enqueue event, it propagates.
                pkt.hop = "prop"
                return
            corrupted = bool(detail.get("corrupted"))
            pkt = state.settle(uid, t,
                               "corrupted" if corrupted else "delivered")
            self._count_span(state)
            self._uid_flow.pop(uid, None)
            if pkt.cls == "data":
                if corrupted:
                    # Discarded at the endpoint: the segment is still
                    # missing until a clean copy lands.
                    state.lost_seqs.add(pkt.seq)
                else:
                    state.lost_seqs.discard(pkt.seq)
            elif pkt.cls == "ack" and not corrupted:
                state.ack_lost = False
            return
        if kind == EV_QUEUE_DROP or kind == EV_LINK_LOSS:
            uid = detail.get("uid")
            flow = self._uid_flow.pop(uid, None)
            state = self.flows.get(flow)
            if state is None:
                return
            state.advance(t)
            pkt = state.settle(uid, t, "lost")
            self._count_span(state)
            if pkt is None:
                return
            if pkt.cls == "data":
                state.lost_seqs.add(pkt.seq)
            elif pkt.cls == "ack":
                state.ack_lost = True
            return
        if kind == EV_CHAOS_CLONE:
            flow = detail.get("flow")
            state = self.flows.get(flow)
            if state is None:
                return
            original = state.inflight.get(detail.get("clone_of"))
            if original is None:
                return
            uid = detail["uid"]
            clone = _PacketState(uid, original.cls, original.seq, t,
                                 original.final_dst, original.retransmit)
            clone.hop = original.hop
            clone.tx_time = original.tx_time
            clone.ser = original.ser
            state.track(clone)
            self._uid_flow[uid] = flow
            return
        if kind == EV_SENDER_ESTABLISHED:
            state = self.flows.get(detail.get("flow"))
            if state is not None:
                state.advance(t)
                state.established = True
            return
        if kind == EV_SENDER_RECOVERY or kind == EV_SENDER_RTO:
            state = self.flows.get(detail.get("flow"))
            if state is not None and state.keep_spans:
                name = ("recovery" if kind == EV_SENDER_RECOVERY else "rto")
                extra = (f"point={detail.get('point')}"
                         if kind == EV_SENDER_RECOVERY
                         else f"timeouts={detail.get('timeouts')}")
                state.episodes.append((t, name, extra))
            return
        if kind == EV_HALFBACK_PHASE:
            state = self.flows.get(detail.get("flow"))
            if state is not None and state.keep_spans:
                state.episodes.append((t, "phase", str(detail.get("phase"))))
            return
        if kind == EV_FLOW_COMPLETE:
            flow = detail.get("flow")
            state = self.flows.pop(flow, None)
            if state is None:
                return
            state.advance(t)
            self._forget(state)
            breakdown = FlowBreakdown(
                flow=flow, protocol=state.protocol, size=state.size,
                start=state.start, complete=t,
                components=state.components,
                fct_event=detail.get("fct"),
                intervals=state.intervals,
                packets=state.packets,
                episodes=state.episodes,
            )
            self.flows_completed += 1
            if self.on_complete is not None:
                self.on_complete(breakdown)
            return
        if kind == EV_SENDER_FAILED:
            # Breakdowns are only defined for completed flows; drop the
            # state so aborted flows cannot leak it.
            state = self.flows.pop(detail.get("flow"), None)
            if state is not None:
                self._forget(state)
                self.flows_discarded += 1
            return

    # ------------------------------------------------------------------

    def _count_span(self, state: _FlowState) -> None:
        if state.keep_spans:
            self._spans_kept += 1
            if self._spans_kept >= self.max_spans:
                state.keep_spans = False

    def _forget(self, state: _FlowState) -> None:
        for uid in state.inflight:
            self._uid_flow.pop(uid, None)
        state.inflight.clear()


# ----------------------------------------------------------------------
# One shared builder per trace recorder
# ----------------------------------------------------------------------


class _SharedBuilder:
    """The builder observing one recorder and its completion subscribers."""

    def __init__(self, trace) -> None:
        self.builder = FlowSpanBuilder(on_complete=self._publish)
        #: ``(on_complete, keep_spans)`` in subscription order.
        self.subscribers: List[Tuple[Callable[[FlowBreakdown], None],
                                     bool]] = []
        trace.add_observer(self.builder.observe)

    def _publish(self, breakdown: FlowBreakdown) -> None:
        for on_complete, _ in self.subscribers:
            on_complete(breakdown)

    def _retain_spans(self) -> None:
        self.builder.keep_spans = any(keep for _, keep in self.subscribers)


_shared: "weakref.WeakKeyDictionary[Any, _SharedBuilder]" = (
    weakref.WeakKeyDictionary())


def subscribe(trace, on_complete: Callable[[FlowBreakdown], None],
              keep_spans: bool = False) -> None:
    """Deliver each flow breakdown built from ``trace`` to ``on_complete``.

    The first subscription on a recorder attaches its shared builder as
    a trace observer; later ones only join the completion fan-out, in
    subscription order.  The builder retains spans (see
    :class:`FlowSpanBuilder`) for flows starting while any subscriber
    asks for them.
    """
    shared = _shared.get(trace)
    if shared is None:
        shared = _shared[trace] = _SharedBuilder(trace)
    shared.subscribers.append((on_complete, keep_spans))
    shared._retain_spans()


def unsubscribe(trace, on_complete: Callable[[FlowBreakdown], None]) -> None:
    """Undo one :func:`subscribe`; the last one detaches the builder."""
    shared = _shared.get(trace)
    if shared is None:
        return
    for index, (callback, _) in enumerate(shared.subscribers):
        if callback == on_complete:
            del shared.subscribers[index]
            break
    if shared.subscribers:
        shared._retain_spans()
    else:
        trace.remove_observer(shared.builder.observe)
        del _shared[trace]
