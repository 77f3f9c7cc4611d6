"""Kind routing: a checker sees only its declared kinds, losing nothing.

The auditor delivers a record only to the checkers whose ``kinds``
name its kind.  These tests record real audited streams — a clean run
and each seeded bug in :mod:`repro.audit.faults` — and feed every
checker of :func:`default_checkers` both the full stream and the
kind-filtered one: the violations must render identically, or a
checker reads a kind it did not declare.
"""

import bisect

import pytest

from repro.audit import Auditor
from repro.audit.faults import (
    seed_ack_regression,
    seed_conservation_leak,
    seed_ropr_misorder,
)
from repro.audit.invariants import Checker, default_checkers
from repro.sim.trace import TraceRecord
from repro.telemetry.schema import (
    EV_FLOW_COMPLETE,
    EV_FLOW_START,
    EV_PKT_SEND,
)
from tests.audit.conftest import run_audited_flow

SEEDED = {
    "clean": None,
    "ropr-misorder": lambda sender, **kw: seed_ropr_misorder(sender),
    "conservation-leak": lambda net, **kw: seed_conservation_leak(
        net.bottleneck, every=4),
    "ack-regression": lambda receiver, **kw: seed_ack_regression(
        receiver, after=3),
}

#: The checker each seeded bug must trip, so no stream is vacuous.
EXPECTED = {
    "ropr-misorder": "ropr-order",
    "conservation-leak": "packet-conservation",
    "ack-regression": "seq-ack-monotonicity",
    "fct-mismatch": "fct-conservation",
}


def record_stream(fault):
    """The full record stream of one audited flow under ``fault``.

    The conftest flow bypasses the runner, so the flow's lifetime
    events are added around it (as the runner emits them) for the
    ``fct-conservation`` checker to have windows to judge.
    """
    records = []

    def capture(sim, **kw):
        sim.trace.add_observer(records.append)
        if fault is not None:
            fault(sim=sim, **kw)

    run = run_audited_flow(segments=40, seed=5, fault=capture)
    flow = run.record.spec.flow_id
    start = TraceRecord(0.0, EV_FLOW_START, "runner",
                        {"flow": flow, "protocol": "halfback",
                         "size": run.record.spec.size})
    done = run.record.complete_time
    assert done is not None
    complete = TraceRecord(done, EV_FLOW_COMPLETE, "runner",
                           {"flow": flow, "fct": done})
    at = bisect.bisect_right([r.time for r in records], done)
    return [start] + records[:at] + [complete] + records[at:]


def with_fct_mismatch(stream):
    """The clean stream with its flow.complete claiming a wrong FCT."""
    out = []
    for record in stream:
        if record.kind == EV_FLOW_COMPLETE:
            detail = dict(record.detail, fct=record.detail["fct"] + 0.5)
            record = TraceRecord(record.time, record.kind, record.source,
                                 detail)
        out.append(record)
    return out


@pytest.fixture(scope="module")
def streams():
    recorded = {name: record_stream(fault) for name, fault in SEEDED.items()}
    recorded["fct-mismatch"] = with_fct_mismatch(recorded["clean"])
    return recorded


def violations_per_checker(stream, routed):
    """Feed a fresh default set; rendered violations keyed by checker.

    Checkers see records in registry order, as in the auditor, so the
    shared :class:`AckKnowledge` is current for its dependents.
    """
    checkers = default_checkers()
    found = {checker.name: [] for checker in checkers}
    for record in stream:
        for checker in checkers:
            if routed and checker.kinds is not None \
                    and record.kind not in checker.kinds:
                continue
            found[checker.name].extend(
                v.render() for v in checker.observe(record))
    for checker in checkers:
        found[checker.name].extend(v.render() for v in checker.finalize())
    return found


@pytest.mark.parametrize("name", sorted(SEEDED) + ["fct-mismatch"])
def test_filtered_stream_matches_full_stream(streams, name):
    full = violations_per_checker(streams[name], routed=False)
    routed = violations_per_checker(streams[name], routed=True)
    assert routed == full
    if name in EXPECTED:
        assert full[EXPECTED[name]], f"{name} went undetected"
    else:
        assert not any(full.values()), full


def test_every_default_checker_declares_its_kinds():
    for checker in default_checkers():
        assert checker.kinds is not None, checker.name
        assert checker.kinds, checker.name


def test_auditor_matches_unrouted_checkers(streams):
    stream = streams["ropr-misorder"]
    auditor = Auditor()
    for record in stream:
        auditor.observe(record)
    auditor.finalize()
    full = violations_per_checker(stream, routed=False)
    expected = [line for checker in default_checkers()
                for line in full[checker.name]]
    assert sorted(v.render() for v in auditor.violations) == sorted(expected)
    assert auditor.events_audited == len(stream)


class Counting(Checker):
    name = "counting"

    def __init__(self, kinds=None):
        self.kinds = kinds
        self.seen = []

    def observe(self, record):
        self.seen.append(record.kind)
        return []


def test_custom_checker_without_kinds_sees_every_record(streams):
    stream = streams["clean"]
    everything = Counting()
    sends = Counting(frozenset({EV_PKT_SEND}))
    auditor = Auditor(checkers=[everything, sends])
    for record in stream:
        auditor.observe(record)
    assert everything.seen == [r.kind for r in stream]
    assert sends.seen == [r.kind for r in stream if r.kind == EV_PKT_SEND]
    assert sends.seen
