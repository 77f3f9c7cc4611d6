"""The auditor core and the ``AuditSession`` context manager.

:class:`Auditor` ties the pieces together: every trace record is fed to
the flight recorder's ring and to those of the lineage tracer and the
invariant checkers that declared its kind (see ``Checker.kinds``); a
checker's violation gets its packet's causal chain attached
from the tracer and — the first time, when an output directory is
configured — triggers the post-mortem bundle.  A ``sim.crash`` record
triggers the bundle too, violations or not, so a crashed run leaves its
last moments on disk.

:class:`AuditSession` is the wiring: as a context manager it attaches
the auditor to whatever telemetry hub is ambient (composing with
``--telemetry``), or — when none is — installs itself as a minimal hub
carrying only a ring-bounded trace recorder.  Either way lineage events
are switched on for the duration and the previous state is restored on
exit.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple

from repro.audit.invariants import Checker, Violation, default_checkers
from repro.audit.lineage import LineageTracer
from repro.audit.recorder import FlightRecorder
from repro.sim.trace import TraceRecorder
from repro.telemetry import context
from repro.telemetry.hub import DEFAULT_MAX_RECORDS
from repro.telemetry.schema import EV_SCHED_EXEC, EV_SIM_CRASH

__all__ = ["Auditor", "AuditSession"]

#: Post-mortems render at most this many events of the same-timestamp
#: group the run was inside when the bundle was written.
MAX_INSTANT_GROUP = 200


class Auditor:
    """Feeds the event stream to lineage, checkers, and the recorder.

    Parameters
    ----------
    checkers:
        Invariant checkers to run; defaults to the full suite from
        :func:`repro.audit.invariants.default_checkers`.
    out_dir:
        Post-mortem bundle directory.  When set, the bundle is written
        on the first violation (or crash); when None, violations are
        only collected in memory.
    ring_size / max_spans:
        Bounds for the flight-recorder ring and the lineage span store.
    """

    def __init__(self, checkers: Optional[List[Checker]] = None,
                 out_dir: Optional[str] = None, ring_size: int = 4000,
                 max_spans: int = 200_000) -> None:
        self.checkers = (list(checkers) if checkers is not None
                         else default_checkers())
        self.out_dir = out_dir
        self.tracer = LineageTracer(max_spans=max_spans)
        self.recorder = FlightRecorder(ring_size=ring_size)
        self.violations: List[Violation] = []
        self.events_audited = 0
        self._finalized = False
        # kind -> the handlers that read it, in order: ring, lineage,
        # instant group, then checkers in list order, crash dump last.
        # Built on a kind's first record; reset when checkers re-attach.
        self._routes: Dict[str, Tuple[Callable, ...]] = {}
        # The same-timestamp group of ``sched.exec`` records currently
        # executing.  Bounded: a post-mortem wants the local tie-break
        # context, not an unbounded same-instant burst.  Rendered only
        # when a post-mortem is written.
        self._instant: List = []
        self._instant_truncated = False
        self._instant_time: Optional[float] = None

    # ------------------------------------------------------------------
    # Stream intake
    # ------------------------------------------------------------------

    def attach(self, trace) -> None:
        """Start auditing the live recorder ``trace``."""
        for checker in self.checkers:
            checker.attach(trace)
        self._routes.clear()
        trace.add_observer(self.observe)

    def detach(self, trace) -> None:
        """Stop auditing ``trace`` (:meth:`attach`'s inverse)."""
        trace.remove_observer(self.observe)
        for checker in self.checkers:
            checker.detach(trace)
        # The routes hold bound methods of this auditor: dropping them
        # breaks the cycle, so a finished audit's spans are freed as
        # soon as its session is, not at the next full collection.
        self._routes.clear()

    def observe(self, record) -> None:
        """Audit one trace record (the observer callback)."""
        self.events_audited += 1
        kind = record.kind
        route = self._routes.get(kind)
        if route is None:
            route = self._route(kind)
        for handler in route:
            violations = handler(record)
            if violations:
                for violation in violations:
                    self._add(violation)

    def _route(self, kind: str) -> Tuple[Callable, ...]:
        handlers: List[Callable] = [self.recorder.observe]
        if kind in self.tracer.kinds:
            handlers.append(self.tracer.observe)
        if kind == EV_SCHED_EXEC:
            handlers.append(self._track_instant)
        handlers.extend(checker.observe for checker in self.checkers
                        if checker.kinds is None or kind in checker.kinds)
        if kind == EV_SIM_CRASH:
            handlers.append(self._crashed)
        route = self._routes[kind] = tuple(handlers)
        return route

    def finalize(self) -> "Auditor":
        """Flush end-of-stream checks; idempotent.  Returns self."""
        if self._finalized:
            return self
        self._finalized = True
        for checker in self.checkers:
            for violation in checker.finalize():
                self._add(violation)
        if self.violations:
            self._dump("violation")
        return self

    def _add(self, violation: Violation) -> None:
        if not violation.chain:
            span = None
            if violation.uid is not None:
                span = self.tracer.span(violation.uid)
            if span is None and (violation.flow is not None
                                 and violation.seq is not None):
                span = self.tracer.span_for_seq(violation.flow, violation.seq)
            if span is not None:
                violation.uid = span.uid
                violation.chain = self.tracer.render_chain(span.uid)
        self.violations.append(violation)
        self._dump("violation")

    def _track_instant(self, record) -> None:
        """Keep the group of ``sched.exec`` records at the current instant."""
        if record.time != self._instant_time:
            self._instant_time = record.time
            self._instant = [record]
            self._instant_truncated = False
        elif len(self._instant) < MAX_INSTANT_GROUP:
            self._instant.append(record)
        else:
            self._instant_truncated = True

    def _instant_group(self) -> List[str]:
        """The current instant group rendered from its provenance stamps
        ("entity callback (seq N, parent M)")."""
        lines = []
        for record in self._instant:
            detail = record.detail
            lines.append(
                f"t={record.time:.9f} {record.source} "
                f"{detail.get('callback', '?')} "
                f"(seq {detail.get('seq')}, parent {detail.get('parent')})")
        if self._instant_truncated:
            lines.append("  ... group truncated")
        return lines

    def _crashed(self, record) -> None:
        self._dump(f"crash: {record.detail.get('error', '?')}")

    def _dump(self, reason: str) -> None:
        if self.out_dir is not None and not self.recorder.dumped:
            self.recorder.dump(self.out_dir, self.violations,
                               tracer=self.tracer, reason=reason,
                               instant_group=self._instant_group())

    # ------------------------------------------------------------------
    # Results
    # ------------------------------------------------------------------

    @property
    def clean(self) -> bool:
        """True when no invariant was violated."""
        return not self.violations

    def report(self) -> str:
        """Human-readable audit summary."""
        lines = [
            f"audited {self.events_audited} events, "
            f"{len(self.tracer)} packet spans, "
            f"{len(self.checkers)} checkers",
        ]
        if self.clean:
            lines.append("all invariants hold")
        else:
            lines.append(f"{len(self.violations)} violation(s):")
            lines.extend(f"  {v.render()}" for v in self.violations)
            if self.recorder.bundle_dir:
                lines.append(f"post-mortem bundle: {self.recorder.bundle_dir}")
        return "\n".join(lines)


class AuditSession:
    """Context manager wiring an :class:`Auditor` into the trace stream.

    With a telemetry hub already active (``--telemetry``), the auditor
    piggybacks on its trace recorder: an observer is attached — which
    runs *before* kind filtering, so user ``--trace-kinds`` filters
    don't blind the audit — and lineage events are enabled.  With no
    hub active, the session becomes the ambient hub itself, carrying a
    ring-bounded trace recorder (same bound as a telemetry hub's);
    metrics and profiling stay off, so ``--audit`` alone costs the
    audit plus in-memory tracing, not full telemetry.
    """

    def __init__(self, out_dir: Optional[str] = None,
                 checkers: Optional[List[Checker]] = None,
                 ring_size: int = 4000, max_spans: int = 200_000) -> None:
        self.auditor = Auditor(checkers=checkers, out_dir=out_dir,
                               ring_size=ring_size, max_spans=max_spans)
        # Hub surface for Simulator pickup when we are the ambient hub.
        self.trace: Optional[TraceRecorder] = None
        self.metrics = None
        self.profiler = None
        self._host_trace: Optional[TraceRecorder] = None
        self._restore_lineage = False
        self._restore_provenance = False
        self._owns_context = False

    def __enter__(self) -> "AuditSession":
        hub = context.current_hub()
        if hub is not None and hub.trace is not None:
            self._host_trace = hub.trace
        else:
            # Same ring bound as a Telemetry hub's recorder: experiments
            # that read ``sim.trace.records()`` directly (fig3's
            # walk-through) keep working under a bare ``--audit``.
            self.trace = TraceRecorder(enabled=True,
                                       max_records=DEFAULT_MAX_RECORDS)
            self._host_trace = self.trace
            context.activate(self)
            self._owns_context = True
        self._restore_lineage = self._host_trace.lineage
        self._restore_provenance = getattr(self._host_trace,
                                           "provenance", False)
        self._host_trace.lineage = True
        # Provenance events feed the scheduler-nondeterminism checker
        # and give post-mortems their same-instant group context.
        self._host_trace.provenance = True
        self.auditor.attach(self._host_trace)
        return self

    def __exit__(self, *exc) -> None:
        trace = self._host_trace
        if trace is not None:
            self.auditor.detach(trace)
            trace.lineage = self._restore_lineage
            trace.provenance = self._restore_provenance
        if self._owns_context:
            context.deactivate(self)
            self._owns_context = False
        self._host_trace = None
        self.auditor.finalize()

    # Convenience passthroughs -----------------------------------------

    @property
    def violations(self) -> List[Violation]:
        return self.auditor.violations

    @property
    def clean(self) -> bool:
        return self.auditor.clean

    def report(self) -> str:
        return self.auditor.report()
