"""Unit and property tests for the event queue."""

from hypothesis import given, strategies as st

from repro.sim.event import Event
from repro.sim.scheduler import MAX_ARG_REPR, EventScheduler


def test_pop_empty_returns_none():
    queue = EventScheduler()
    assert queue.pop() is None
    assert queue.peek_time() is None
    assert len(queue) == 0


def test_pop_returns_events_in_time_order():
    queue = EventScheduler()
    for t in (3.0, 1.0, 2.0):
        queue.push(Event(t, lambda: None))
    times = [queue.pop().time for _ in range(3)]
    assert times == [1.0, 2.0, 3.0]


def test_cancelled_events_are_skipped():
    queue = EventScheduler()
    keep = Event(2.0, lambda: None)
    drop = Event(1.0, lambda: None)
    queue.push(drop)
    queue.push(keep)
    drop.cancel()
    queue.note_cancelled()
    assert queue.pop() is keep
    assert queue.pop() is None


def test_peek_time_skips_cancelled_head():
    queue = EventScheduler()
    head = Event(1.0, lambda: None)
    tail = Event(5.0, lambda: None)
    queue.push(head)
    queue.push(tail)
    head.cancel()
    queue.note_cancelled()
    assert queue.peek_time() == 5.0


def test_len_tracks_live_events():
    queue = EventScheduler()
    events = [Event(float(i), lambda: None) for i in range(4)]
    for event in events:
        queue.push(event)
    assert len(queue) == 4
    events[0].cancel()
    queue.note_cancelled()
    assert len(queue) == 3
    queue.pop()
    assert len(queue) == 2


def test_clear_empties_queue():
    queue = EventScheduler()
    queue.push(Event(1.0, lambda: None))
    queue.clear()
    assert not queue
    assert queue.pop() is None


@given(st.lists(st.floats(min_value=0.0, max_value=1e6,
                          allow_nan=False), min_size=1, max_size=200))
def test_pop_order_is_nondecreasing_for_any_insertion_order(times):
    queue = EventScheduler()
    for t in times:
        queue.push(Event(t, lambda: None))
    popped = []
    while True:
        event = queue.pop()
        if event is None:
            break
        popped.append(event.time)
    assert popped == sorted(popped)
    assert len(popped) == len(times)


@given(st.lists(st.tuples(st.floats(min_value=0, max_value=100,
                                    allow_nan=False),
                          st.booleans()),
                min_size=1, max_size=100))
def test_cancellation_never_loses_live_events(entries):
    queue = EventScheduler()
    live = 0
    for t, cancel in entries:
        event = Event(t, lambda: None)
        queue.push(event)
        if cancel:
            event.cancel()
            queue.note_cancelled()
        else:
            live += 1
    popped = 0
    while queue.pop() is not None:
        popped += 1
    assert popped == live


# ----------------------------------------------------------------------
# Property test: random interleaved push/pop/cancel (the satellite the
# compaction change rides with — ordering and accounting must survive
# arbitrary interleavings, with compaction forced on aggressively).
# ----------------------------------------------------------------------


@given(st.lists(st.tuples(st.sampled_from(["push", "pop", "cancel"]),
                          st.floats(min_value=0.0, max_value=100.0,
                                    allow_nan=False),
                          st.integers(min_value=-3, max_value=3),
                          st.integers(min_value=0, max_value=10**6)),
                max_size=300))
def test_random_interleaving_preserves_order_and_accounting(ops):
    queue = EventScheduler(compact_min=4)  # compact eagerly
    model = []  # live events, insertion order

    def sort_key(event):
        return (event.time, event.priority, event.seq)

    for op, time_, priority, pick in ops:
        if op == "push":
            event = Event(time_, lambda: None, priority=priority)
            queue.push(event)
            model.append(event)
        elif op == "cancel" and model:
            victim = model.pop(pick % len(model))
            victim.cancel()
            queue.note_cancelled()
        elif op == "pop":
            expected = min(model, key=sort_key) if model else None
            popped = queue.pop()
            assert popped is expected
            if expected is not None:
                model.remove(expected)
        assert len(queue) == len(model)

    drained = []
    while True:
        event = queue.pop()
        if event is None:
            break
        drained.append(event)
    assert [e.seq for e in drained] == \
        [e.seq for e in sorted(model, key=sort_key)]
    assert len(queue) == 0
    assert queue.cancelled_backlog == 0 or queue.heap_depth > 0


@given(st.lists(st.tuples(st.sampled_from(["push", "pop", "peek", "cancel",
                                           "churn", "rekey"]),
                          st.floats(min_value=0.0, max_value=100.0,
                                    allow_nan=False),
                          st.integers(min_value=-3, max_value=3),
                          st.integers(min_value=0, max_value=10**6)),
                max_size=300))
def test_mixed_peek_pop_cancel_compaction_interleavings(ops):
    """peek/pop/cancel/rekey under maximally-eager compaction.

    ``churn`` (push + immediate cancel) feeds the compactor dead
    entries; with ``compact_min=2`` compaction fires constantly, so
    this checks that it never disturbs ``peek_time``, pop order,
    ``__len__`` exactness, or backlog accounting mid-stream.  ``rekey``
    moves a live event to a later time in place, leaving a stale heap
    entry that pop and peek must re-file before trusting the head.
    """
    queue = EventScheduler(compact_min=2)
    model = []  # live events, insertion order

    def sort_key(event):
        return (event.time, event.priority, event.seq)

    for op, time_, priority, pick in ops:
        if op == "push":
            event = Event(time_, lambda: None, priority=priority)
            queue.push(event)
            model.append(event)
        elif op == "churn":
            event = Event(time_, lambda: None, priority=priority)
            queue.push(event)
            event.cancel()
            queue.note_cancelled()
        elif op == "cancel" and model:
            victim = model.pop(pick % len(model))
            victim.cancel()
            queue.note_cancelled()
        elif op == "rekey" and model:
            victim = model[pick % len(model)]
            victim.rekey(victim.time + 1.0 + time_, 0.0, None)
        elif op == "peek":
            expected = (min(model, key=sort_key).time if model else None)
            assert queue.peek_time() == expected
        elif op == "pop":
            expected = min(model, key=sort_key) if model else None
            assert queue.pop() is expected
            if expected is not None:
                model.remove(expected)
        assert len(queue) == len(model)
        assert queue.cancelled_backlog >= 0

    drained = []
    while True:
        event = queue.pop()
        if event is None:
            break
        drained.append(event)
    assert drained == sorted(model, key=sort_key)
    assert len(queue) == 0
    assert queue.cancelled_backlog >= 0


# ----------------------------------------------------------------------
# render_event arg-repr truncation
# ----------------------------------------------------------------------


class TestRenderEvent:
    def test_long_arg_reprs_are_truncated(self):
        queue = EventScheduler()
        huge = "x" * (10 * MAX_ARG_REPR)
        event = Event(1.0, lambda a, b: None, (huge, list(range(500))))
        text = queue.render_event(event)
        assert "..." in text
        # Neither oversized operand repr survives in full.
        assert len(text) < 2 * MAX_ARG_REPR + 100
        assert repr(huge) not in text

    def test_short_args_render_unchanged(self):
        queue = EventScheduler()
        event = Event(2.5, lambda a: None, ("ack",))
        text = queue.render_event(event)
        assert "'ack'" in text
        assert "..." not in text


# ----------------------------------------------------------------------
# Compaction of the lazily-cancelled backlog
# ----------------------------------------------------------------------


class TestCompaction:
    def test_compaction_evicts_cancelled_majority(self):
        queue = EventScheduler(compact_min=4)
        events = [Event(float(i), lambda: None) for i in range(10)]
        for event in events:
            queue.push(event)
        for event in events[:8]:
            event.cancel()
            queue.note_cancelled()
        # Compaction fired once the dead entries became the majority;
        # a small post-compaction backlog may remain.
        assert queue.compactions >= 1
        assert queue.heap_depth < 10
        assert queue.cancelled_backlog < 8
        assert [queue.pop() for _ in range(2)] == events[8:]
        assert queue.pop() is None
        assert queue.cancelled_backlog == 0

    def test_no_compaction_below_min_backlog(self):
        queue = EventScheduler(compact_min=100)
        events = [Event(float(i), lambda: None) for i in range(10)]
        for event in events:
            queue.push(event)
        for event in events[:8]:
            event.cancel()
            queue.note_cancelled()
        assert queue.compactions == 0
        assert queue.heap_depth == 10  # dead entries still parked
        assert queue.cancelled_backlog == 8

    def test_compact_min_zero_disables_compaction(self):
        queue = EventScheduler(compact_min=0)
        for i in range(50):
            event = Event(float(i), lambda: None)
            queue.push(event)
            event.cancel()
            queue.note_cancelled()
        assert queue.compactions == 0
        assert queue.heap_depth == 50

    def test_pop_discards_shrink_backlog(self):
        queue = EventScheduler(compact_min=100)  # keep compaction out
        head = Event(1.0, lambda: None)
        tail = Event(2.0, lambda: None)
        queue.push(head)
        queue.push(tail)
        head.cancel()
        queue.note_cancelled()
        assert queue.cancelled_backlog == 1
        assert queue.pop() is tail  # discards the cancelled head
        assert queue.cancelled_backlog == 0

    def test_backlog_gauge_tracks_churn(self):
        from repro.telemetry.metrics import Gauge

        queue = EventScheduler(compact_min=4)
        gauge = Gauge("scheduler.cancelled_backlog")
        queue.backlog_gauge = gauge
        events = [Event(float(i), lambda: None) for i in range(10)]
        for event in events:
            queue.push(event)
        events[0].cancel()
        queue.note_cancelled()
        assert gauge.value == 1
        for event in events[1:8]:
            event.cancel()
            queue.note_cancelled()
        # Compaction fired along the way; the gauge tracks whatever
        # backlog accumulated since, and draining publishes zero.
        assert queue.compactions >= 1
        assert gauge.value == queue.cancelled_backlog
        while queue.pop() is not None:
            pass
        assert gauge.value == 0

    def test_simulator_publishes_backlog_gauge(self):
        from repro.sim.simulator import Simulator
        from repro.telemetry.metrics import MetricsRegistry

        metrics = MetricsRegistry()
        sim = Simulator(metrics=metrics)
        handle = sim.schedule(1.0, lambda: None)
        handle.cancel()
        snapshot = metrics.snapshot()
        assert snapshot["scheduler.cancelled_backlog"] == 1
