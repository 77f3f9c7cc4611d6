"""In-place timer re-keying is indistinguishable from cancel + reschedule.

``Timer.restart`` to a strictly later deadline re-keys the pending event
and leaves a stale heap entry for the scheduler to re-file lazily.  The
property test drives random programs of ordinary schedules, cancels and
timer restarts (to later, equal and earlier deadlines), split by
``run(until=...)`` boundaries, once with real timers and once with a
reference timer that always cancels and reschedules, and requires the
same fired ``(time, seq, lpush, parent, callback)`` sequence under the
FIFO tie-break and under salted permutations.
"""

from contextlib import nullcontext

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.errors import StallError
from repro.sim.event import Event
from repro.sim.scheduler import tiebreak_permutation
from repro.sim.simulator import Simulator, Timer
from repro.sim.trace import TraceRecorder
from repro.telemetry.schema import EV_SCHED_EXEC


class CancelRescheduleTimer(Timer):
    """Reference: every restart cancels the pending expiry and
    schedules a fresh event."""

    def restart(self, delay: float) -> None:
        self.cancel()
        self.start(delay)


#: Quarter-second steps keep every sum exact in binary floating point,
#: so "equal deadline" restarts really land on the pending time.
STEP = 0.25
N_TIMERS = 3

ACTIONS = st.one_of(
    st.tuples(st.just("schedule"), st.integers(0, 6)),
    st.tuples(st.just("cancel"), st.integers(0, 50)),
    st.tuples(st.just("restart"), st.integers(0, N_TIMERS - 1),
              st.sampled_from(["later", "equal", "earlier"]),
              st.integers(0, 6)),
    st.tuples(st.just("stop_timer"), st.integers(0, N_TIMERS - 1)),
)

PROGRAM = st.lists(
    st.tuples(st.integers(1, 6),                       # run(until) step
              st.lists(ACTIONS, min_size=1, max_size=8)),  # outside ops
    min_size=1, max_size=5)

SCRIPT = st.lists(ACTIONS, max_size=60)


def execute(program, script, timer_cls, salt):
    """Run one program; returns the fired sequence with ``seq`` and
    ``parent`` relative to the first sequence number the run used."""
    context = (tiebreak_permutation(salt) if salt is not None
               else nullcontext())
    with context:
        trace = TraceRecorder(enabled=True, provenance=True)
        sim = Simulator(trace=trace)
    base = Event(0.0, None).seq + 1
    pending_script = list(script)
    handles = []
    fired = []

    def act(action):
        kind = action[0]
        if kind == "schedule":
            handles.append(sim.schedule(action[1] * STEP, on_event,
                                        f"e{len(handles)}"))
        elif kind == "cancel":
            if handles:
                handles[action[1] % len(handles)].cancel()
        elif kind == "restart":
            _, index, where, amount = action
            timer = timers[index]
            if timer.armed:
                ahead = timer.expiry_time - sim.now
                delay = {"later": ahead + (amount + 1) * STEP,
                         "equal": ahead,
                         "earlier": max(0.0, ahead - amount * STEP)}[where]
            else:
                delay = amount * STEP
            timer.restart(delay)
        else:
            timers[action[1]].cancel()

    def on_event(label):
        fired.append((sim.now, sim.exec_lpush, label))
        if pending_script:
            act(pending_script.pop(0))

    timers = [timer_cls(sim, lambda i=i: on_event(f"t{i}"), name=f"t{i}")
              for i in range(N_TIMERS)]
    for until_steps, outside in program:
        for action in outside:
            act(action)
        sim.run(until=sim.now + until_steps * STEP)
    sim.run()
    execs = trace.records(EV_SCHED_EXEC)
    assert len(execs) == len(fired) == sim.events_run

    def rel(seq):
        return None if seq is None else seq - base

    return [(now, rel(rec.detail["seq"]), lpush,
             rel(rec.detail["parent"]), label)
            for (now, lpush, label), rec in zip(fired, execs)]


@settings(max_examples=150, deadline=None)
@given(PROGRAM, SCRIPT, st.sampled_from([None, 1, 2, 3]))
# An equal-deadline restart among same-instant events: under salt 1 the
# fresh seq scrambles below the queued one, so re-keying it in place
# instead of rescheduling would fire it out of order.
@example(program=[(4, [("restart", 0, "later", 4)] + [("schedule", 4)] * 4
                   + [("restart", 0, "equal", 0)])],
         script=[], salt=1)
def test_rekey_fires_like_cancel_and_reschedule(program, script, salt):
    expected = execute(program, script, CancelRescheduleTimer, salt)
    assert execute(program, script, Timer, salt) == expected


def test_later_restart_reuses_the_pending_event():
    sim = Simulator()
    timer = sim.timer(lambda: None)
    timer.start(1.0)
    event = timer._handle._event
    seq = event.seq
    timer.restart(2.0)
    assert timer._handle._event is event
    assert (event.time, event.seq > seq) == (2.0, True)
    assert sim._queue.cancelled_backlog == 0
    timer.restart(2.0)  # equal deadline: cancel + schedule
    assert timer._handle._event is not event
    assert sim._queue.cancelled_backlog == 1


def test_stall_dump_lists_rekeyed_timer_at_its_current_key():
    sim = Simulator(stall_event_limit=3)
    timer = sim.timer(lambda: None, name="rto")
    timer.start(1.0)
    sim.schedule(2.0, lambda: None)
    timer.restart(3.0)  # the heap entry still holds t=1.0

    def spin():
        sim.schedule(0.0, spin)

    sim.schedule(0.5, spin)
    with pytest.raises(StallError) as stall:
        sim.run()
    # pending[0] is the spin event about to fire; the queue follows.
    times = [line.split()[0] for line in stall.value.pending[1:]]
    assert times == ["t=2.000000000", "t=3.000000000"]
