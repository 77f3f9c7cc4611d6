"""Mergeable FCT-breakdown statistics and the ambient breakdown session.

:mod:`repro.obs.spans` turns one flow's event stream into a
:class:`~repro.obs.spans.FlowBreakdown`; this module turns *many* of
them into the per-protocol time-in-component tables the ``--breakdown``
flag prints, and provides the context-manager wiring
(:class:`BreakdownSession`) that subscribes to the span builder of
whatever trace recorder is ambient — the same composition pattern as
:class:`repro.audit.AuditSession`.

The aggregate state is per protocol, per component: a float running sum
(for exact means) plus a PR 6 :class:`~repro.obs.sketch.QuantileSketch`
(for p50/p99).  Both merge associatively and serialize
order-independently, so sharded ``--jobs N`` runs fold into tables that
are byte-identical with serial runs — the acceptance bar Fig. 6/12
reports are held to.
"""

from __future__ import annotations

import hashlib
from typing import Any, Dict, Iterable, List, Optional

from repro.errors import ConfigurationError
from repro.obs.sketch import (
    DEFAULT_RELATIVE_ACCURACY,
    QuantileSketch,
    canonical_json,
)
from repro.obs.spans import COMPONENTS, FlowBreakdown, subscribe, unsubscribe
from repro.sim.trace import TraceRecorder
from repro.telemetry import context
from repro.telemetry.hub import DEFAULT_MAX_RECORDS

__all__ = [
    "BreakdownAggregator",
    "BreakdownSession",
    "BreakdownStats",
    "active_session",
    "take_breakdown",
]

BREAKDOWN_SCHEMA = "repro.obs.breakdown/1"

#: Bound on per-session pending (completed, not yet collected) flow
#: breakdowns: protects long runs whose harness never drains them.
MAX_PENDING = 100_000


class BreakdownStats:
    """Streaming per-protocol component statistics."""

    __slots__ = ("protocol", "flows", "fct_sum", "component_sums",
                 "component_sketches", "max_conservation_error")

    def __init__(self, protocol: str) -> None:
        self.protocol = protocol
        self.flows = 0
        self.fct_sum = 0.0
        self.component_sums: Dict[str, float] = {}
        self.component_sketches: Dict[str, QuantileSketch] = {}
        self.max_conservation_error = 0.0

    def observe(self, breakdown: FlowBreakdown) -> None:
        """Fold one completed flow's breakdown in."""
        self.flows += 1
        self.fct_sum += breakdown.fct
        if breakdown.conservation_error > self.max_conservation_error:
            self.max_conservation_error = breakdown.conservation_error
        for component in COMPONENTS:
            value = breakdown.components.get(component, 0.0)
            self.component_sums[component] = (
                self.component_sums.get(component, 0.0) + value)
            sketch = self.component_sketches.get(component)
            if sketch is None:
                sketch = self.component_sketches[component] = QuantileSketch(
                    DEFAULT_RELATIVE_ACCURACY)
            sketch.insert(max(value, 0.0))

    def merge(self, other: "BreakdownStats") -> "BreakdownStats":
        """Fold ``other`` in (in place; returns self)."""
        if other.protocol != self.protocol:
            raise ConfigurationError(
                f"cannot merge breakdown stats for {other.protocol!r} "
                f"into {self.protocol!r}")
        self.flows += other.flows
        self.fct_sum += other.fct_sum
        if other.max_conservation_error > self.max_conservation_error:
            self.max_conservation_error = other.max_conservation_error
        for component, value in other.component_sums.items():
            self.component_sums[component] = (
                self.component_sums.get(component, 0.0) + value)
        for component, sketch in other.component_sketches.items():
            mine = self.component_sketches.get(component)
            if mine is None:
                self.component_sketches[component] = QuantileSketch.from_dict(
                    sketch.to_dict())
            else:
                mine.merge(sketch)
        return self

    def mean(self, component: str) -> float:
        """Mean time-in-``component`` per flow (0.0 when empty)."""
        if not self.flows:
            return 0.0
        return self.component_sums.get(component, 0.0) / self.flows

    def share(self, component: str) -> float:
        """``component``'s share of total FCT across flows, in [0, 1]."""
        if self.fct_sum <= 0.0:
            return 0.0
        return self.component_sums.get(component, 0.0) / self.fct_sum

    def quantile(self, component: str, q: float) -> float:
        sketch = self.component_sketches.get(component)
        if sketch is None or sketch.count == 0:
            return 0.0
        return sketch.quantile(q)

    def to_dict(self) -> Dict[str, Any]:
        """Merge-order-independent JSON shape."""
        return {
            "schema": BREAKDOWN_SCHEMA,
            "protocol": self.protocol,
            "flows": self.flows,
            "fct_sum": self.fct_sum,
            "max_conservation_error": self.max_conservation_error,
            "components": {
                name: {
                    "sum": self.component_sums.get(name, 0.0),
                    "sketch": self.component_sketches[name].to_dict(),
                }
                for name in sorted(self.component_sketches)
            },
        }

    @classmethod
    def from_dict(cls, doc: Dict[str, Any]) -> "BreakdownStats":
        if doc.get("schema") != BREAKDOWN_SCHEMA:
            raise ConfigurationError(
                f"not a breakdown document (schema={doc.get('schema')!r})")
        stats = cls(str(doc["protocol"]))
        stats.flows = int(doc["flows"])
        stats.fct_sum = float(doc["fct_sum"])
        stats.max_conservation_error = float(doc["max_conservation_error"])
        for name, entry in doc["components"].items():
            stats.component_sums[name] = float(entry["sum"])
            stats.component_sketches[name] = QuantileSketch.from_dict(
                entry["sketch"])
        return stats


class BreakdownAggregator:
    """Per-protocol :class:`BreakdownStats`, mergeable across shards."""

    def __init__(self) -> None:
        self.by_protocol: Dict[str, BreakdownStats] = {}

    # -- ingest --------------------------------------------------------

    def observe(self, breakdown: FlowBreakdown) -> None:
        """Fold one flow's breakdown into its protocol's stats."""
        stats = self.by_protocol.get(breakdown.protocol)
        if stats is None:
            stats = self.by_protocol[breakdown.protocol] = BreakdownStats(
                breakdown.protocol)
        stats.observe(breakdown)

    def observe_all(self, breakdowns: Iterable[FlowBreakdown]
                    ) -> "BreakdownAggregator":
        for breakdown in breakdowns:
            self.observe(breakdown)
        return self

    def merge(self, other: "BreakdownAggregator") -> "BreakdownAggregator":
        """Fold another aggregator in (in place; returns self)."""
        for protocol, stats in other.by_protocol.items():
            mine = self.by_protocol.get(protocol)
            if mine is None:
                self.by_protocol[protocol] = BreakdownStats.from_dict(
                    stats.to_dict())
            else:
                mine.merge(stats)
        return self

    # -- queries -------------------------------------------------------

    @property
    def flows(self) -> int:
        return sum(s.flows for s in self.by_protocol.values())

    @property
    def max_conservation_error(self) -> float:
        if not self.by_protocol:
            return 0.0
        return max(s.max_conservation_error
                   for s in self.by_protocol.values())

    def protocols(self) -> List[str]:
        return sorted(self.by_protocol)

    # -- serialization -------------------------------------------------

    def to_dict(self) -> Dict[str, Any]:
        return {
            "schema": BREAKDOWN_SCHEMA,
            "protocols": {name: stats.to_dict()
                          for name, stats in sorted(self.by_protocol.items())},
        }

    @classmethod
    def from_dict(cls, doc: Dict[str, Any]) -> "BreakdownAggregator":
        if doc.get("schema") != BREAKDOWN_SCHEMA:
            raise ConfigurationError(
                f"not a breakdown document (schema={doc.get('schema')!r})")
        agg = cls()
        for name, entry in doc["protocols"].items():
            agg.by_protocol[name] = BreakdownStats.from_dict(entry)
        return agg

    def fingerprint(self) -> str:
        """SHA-256 over the canonical JSON serialization; bit-identical
        regardless of shard count or merge order."""
        return hashlib.sha256(
            canonical_json(self.to_dict()).encode("utf-8")).hexdigest()

    # -- rendering -----------------------------------------------------

    def render(self, title: str = "time in component (per flow)") -> str:
        """Per-protocol mean/p50/p99/share table over every component."""
        if not self.by_protocol:
            return f"{title}\n  (no completed flows observed)"
        headers = ["scheme", "component", "mean", "p50", "p99", "share"]
        rows: List[List[str]] = []
        for protocol in self.protocols():
            stats = self.by_protocol[protocol]
            for component in COMPONENTS:
                mean = stats.mean(component)
                share = stats.share(component)
                if stats.component_sums.get(component, 0.0) <= 0.0:
                    continue
                rows.append([
                    protocol, component,
                    _fmt_ms(mean),
                    _fmt_ms(stats.quantile(component, 0.50)),
                    _fmt_ms(stats.quantile(component, 0.99)),
                    f"{share * 100:5.1f}%",
                ])
            rows.append([
                protocol, "= FCT",
                _fmt_ms(stats.fct_sum / stats.flows if stats.flows else 0.0),
                "", "", f"flows={stats.flows}",
            ])
        table = _render_table(headers, rows, title=title)
        return (f"{table}\n  max conservation error: "
                f"{self.max_conservation_error:.3e}s")

    def render_halfback_vs_tcp(self, baseline: str = "tcp",
                               challenger: str = "halfback") -> Optional[str]:
        """The "where Halfback wins" table: recovery-side components of
        ``baseline`` vs ``challenger``.  None when either is absent."""
        base = self.by_protocol.get(baseline)
        chall = self.by_protocol.get(challenger)
        if base is None or chall is None or not base.flows or not chall.flows:
            return None
        rows = []
        for component in ("loss-detection", "rto-idle", "retransmission"):
            b, c = base.mean(component), chall.mean(component)
            rows.append([component, _fmt_ms(b), _fmt_ms(c),
                         _fmt_ms(c - b, signed=True)])
        rows.append(["total FCT",
                     _fmt_ms(base.fct_sum / base.flows),
                     _fmt_ms(chall.fct_sum / chall.flows),
                     _fmt_ms(chall.fct_sum / chall.flows
                             - base.fct_sum / base.flows, signed=True)])
        return _render_table(
            ["component", f"{baseline} mean", f"{challenger} mean", "delta"],
            rows, title=f"where {challenger} wins (vs {baseline})")


def _fmt_ms(seconds: float, signed: bool = False) -> str:
    sign = "+" if signed else ""
    return f"{seconds * 1000:{sign}.2f}ms"


def _render_table(headers, rows, title: str = "") -> str:
    cells = [[str(h) for h in headers]] + [[str(c) for c in r] for r in rows]
    widths = [max(len(row[i]) for row in cells) for i in range(len(headers))]
    lines = [title] if title else []
    lines.append(" | ".join(h.ljust(w) for h, w in zip(cells[0], widths)))
    lines.append("-+-".join("-" * w for w in widths))
    for row in cells[1:]:
        lines.append(" | ".join(c.ljust(w) for c, w in zip(row, widths)))
    return "\n".join(lines)


# ----------------------------------------------------------------------
# Ambient session
# ----------------------------------------------------------------------

#: Innermost-last stack of active sessions (worker-local cell sessions
#: nest inside a CLI-level run session; the innermost one owns flows
#: completing while it is active).
_sessions: List["BreakdownSession"] = []


def active_session() -> Optional["BreakdownSession"]:
    """The innermost active :class:`BreakdownSession` (None when off)."""
    return _sessions[-1] if _sessions else None


def take_breakdown(flow_id: int) -> Optional[FlowBreakdown]:
    """Collect (and forget) the finished breakdown for ``flow_id``.

    The runner calls this right after emitting ``flow.complete`` — the
    span builder is an observer on the same recorder, so by then the
    breakdown is final.  One falsy check when no session is active: the
    ``--breakdown``-off hot path stays a list truthiness test.
    """
    if not _sessions:
        return None
    return _sessions[-1].pending.pop(flow_id, None)


class BreakdownSession:
    """Context manager subscribing to the ambient trace's span builder.

    Mirrors :class:`repro.audit.AuditSession`: with a telemetry hub (or
    audit session) active, the session subscribes to its recorder's
    shared span builder (:func:`~repro.obs.spans.subscribe`) and
    lineage is switched on for the duration; with nothing ambient the
    session installs itself as a minimal hub carrying a ring-bounded
    recorder, so ``--breakdown`` alone works without ``--telemetry``.
    However many sessions (and the audit's ``fct-conservation``
    checker) nest on one recorder, one builder classifies its stream.

    Completed breakdowns land in two places: folded into the session's
    :class:`BreakdownAggregator` (``session.aggregate``), and parked in
    ``session.pending`` until the harness claims them per flow via
    :func:`take_breakdown` (bounded by :data:`MAX_PENDING`).  With
    ``keep_spans`` they also carry their spans and collect in
    ``session.completed``.
    """

    def __init__(self, keep_spans: bool = False) -> None:
        self.aggregate = BreakdownAggregator()
        self.pending: Dict[int, FlowBreakdown] = {}
        self.completed: List[FlowBreakdown] = []
        self.keep_spans = keep_spans
        # Hub surface for Simulator pickup when we are the ambient hub.
        self.trace: Optional[TraceRecorder] = None
        self.metrics = None
        self.profiler = None
        self._host_trace: Optional[TraceRecorder] = None
        self._restore_lineage = False
        self._owns_context = False

    def _on_complete(self, breakdown: FlowBreakdown) -> None:
        self.aggregate.observe(breakdown)
        if len(self.pending) < MAX_PENDING:
            self.pending[breakdown.flow] = breakdown
        if self.keep_spans:
            self.completed.append(breakdown)

    def __enter__(self) -> "BreakdownSession":
        hub = context.current_hub()
        if hub is not None and hub.trace is not None:
            self._host_trace = hub.trace
        else:
            self.trace = TraceRecorder(enabled=True,
                                       max_records=DEFAULT_MAX_RECORDS)
            self._host_trace = self.trace
            context.activate(self)
            self._owns_context = True
        self._restore_lineage = self._host_trace.lineage
        self._host_trace.lineage = True
        subscribe(self._host_trace, self._on_complete,
                  keep_spans=self.keep_spans)
        _sessions.append(self)
        return self

    def __exit__(self, *exc) -> None:
        if _sessions and _sessions[-1] is self:
            _sessions.pop()
        elif self in _sessions:  # pragma: no cover - defensive
            _sessions.remove(self)
        trace = self._host_trace
        if trace is not None:
            unsubscribe(trace, self._on_complete)
            trace.lineage = self._restore_lineage
        if self._owns_context:
            context.deactivate(self)
            self._owns_context = False
        self._host_trace = None
