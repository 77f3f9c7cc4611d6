"""One span builder per trace recorder, shared by audit and breakdowns.

Under ``--audit --breakdown`` (plus the per-cell breakdown sessions the
figure harnesses nest inside it) the ``fct-conservation`` checker and
every :class:`BreakdownSession` read breakdowns from a single
:class:`FlowSpanBuilder` observing the recorder.  Sharing must change
nothing a consumer sees: aggregates equal a standalone session's, and
the checker still reports on the offending ``flow.complete`` itself.
"""

from contextlib import ExitStack

import pytest

from repro.audit import AuditSession
from repro.experiments.runner import ScheduledFlow
from repro.experiments.scenarios import run_workload
from repro.obs.critical import BreakdownSession
from repro.obs.spans import FlowSpanBuilder
from repro.telemetry.schema import EV_FLOW_COMPLETE, EV_FLOW_START

CELLS = [
    [ScheduledFlow(0.0, 60_000, "halfback"),
     ScheduledFlow(0.01, 60_000, "tcp"),
     ScheduledFlow(0.02, 60_000, "halfback")],
    [ScheduledFlow(0.0, 90_000, "tcp"),
     ScheduledFlow(0.005, 30_000, "halfback")],
]


def run_cell(index):
    run_workload(CELLS[index], seed=11 + index, n_pairs=4, drain_time=5.0)


def span_builders(trace):
    """The span builders attached to ``trace`` as observers."""
    return [observer for observer in trace._observers
            if isinstance(getattr(observer, "__self__", None),
                          FlowSpanBuilder)]


@pytest.fixture(scope="module")
def standalone():
    """Fingerprints of a lone session over all cells and over each."""
    with BreakdownSession() as whole:
        for index in range(len(CELLS)):
            run_cell(index)
    per_cell = []
    for index in range(len(CELLS)):
        with BreakdownSession() as cell:
            run_cell(index)
        per_cell.append(cell.aggregate.fingerprint())
    assert whole.aggregate.flows == sum(len(c) for c in CELLS)
    return whole.aggregate.fingerprint(), per_cell


@pytest.mark.parametrize("audit_first", [True, False],
                         ids=["audit-then-breakdown", "breakdown-then-audit"])
def test_one_builder_serves_every_consumer(standalone, audit_first):
    whole_print, cell_prints = standalone
    with ExitStack() as stack:
        if audit_first:
            audit = stack.enter_context(AuditSession())
            outer = stack.enter_context(BreakdownSession())
        else:
            outer = stack.enter_context(BreakdownSession())
            audit = stack.enter_context(AuditSession())
        trace = outer._host_trace
        assert len(span_builders(trace)) == 1
        for index in range(len(CELLS)):
            with BreakdownSession() as cell:
                assert cell._host_trace is trace
                assert len(span_builders(trace)) == 1
                run_cell(index)
            assert cell.aggregate.fingerprint() == cell_prints[index]
        assert len(span_builders(trace)) == 1
    assert outer.aggregate.fingerprint() == whole_print
    assert audit.clean, audit.report()
    assert span_builders(trace) == []


@pytest.mark.parametrize("audit_first", [True, False],
                         ids=["audit-then-breakdown", "breakdown-then-audit"])
def test_fct_mismatch_reported_on_its_flow_complete(audit_first):
    with ExitStack() as stack:
        if audit_first:
            audit = stack.enter_context(AuditSession())
            outer = stack.enter_context(BreakdownSession())
        else:
            outer = stack.enter_context(BreakdownSession())
            audit = stack.enter_context(AuditSession())
        with BreakdownSession() as cell:
            trace = cell._host_trace
            trace.record(1.0, EV_FLOW_START, "test", flow=-7,
                         protocol="tcp", size=100)
            assert audit.violations == []
            trace.record(1.5, EV_FLOW_COMPLETE, "test", flow=-7, fct=0.9)
            # Judged while the auditor handled that very record.
            flagged = [v for v in audit.violations
                       if v.checker == "fct-conservation"]
            assert len(flagged) == 1
            assert flagged[0].flow == -7
            assert "disagrees with observed window" in flagged[0].message
            last = audit.auditor.recorder.ring()[-1]
            assert (last.kind, last.detail["flow"]) == (EV_FLOW_COMPLETE, -7)
        assert cell.aggregate.flows == 1
        assert outer.aggregate.flows == 1


def test_keep_spans_follows_any_subscriber():
    with AuditSession():
        with BreakdownSession() as plain:
            (builder,) = [o.__self__ for o in span_builders(plain._host_trace)]
            assert builder.keep_spans is False
            with BreakdownSession(keep_spans=True):
                assert builder.keep_spans is True
            assert builder.keep_spans is False
