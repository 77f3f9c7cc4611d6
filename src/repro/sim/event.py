"""Simulation events.

An :class:`Event` is a callback bound to a point in simulated time.  Events
are ordered by ``(time, priority, lpush, sequence)``: the sequence number
is a monotonically increasing tiebreaker so that two events scheduled for
the same instant run in the order they were scheduled (FIFO), which keeps
packet-level simulations deterministic.

``lpush`` is the *logical push time* — the simulated instant at which
the per-packet (unbatched) execution would have scheduled this event.
The simulator stamps it with ``now`` at scheduling time, which makes it
redundant with ``seq`` (both are monotone in push order) and leaves
ordinary schedules byte-identical to the historical ``(time, priority,
seq)`` order.  The batched link datapath (:mod:`repro.net.link`)
schedules delivery events *ahead of time* and back-dates ``lpush`` to
the analytic unbatched push instant, so same-timestamp collisions
between train-planned deliveries and ordinary events resolve exactly as
the per-packet execution would have resolved them.

Cancellation is *lazy*: cancelling marks the event dead and the scheduler
discards it when popped, which keeps cancellation O(1).

A pending event can also be *re-keyed* in place to a strictly later time
(:meth:`Event.rekey`): it takes the key a fresh schedule would have had
(new ``time``, ``lpush`` and ``seq``) while its heap entry keeps the old,
smaller one.  The scheduler re-files such a stale entry when it surfaces
(a lazy increase-key), so a retransmission timer restarted on every ACK
costs a few attribute writes instead of a dead heap entry plus a fresh
event per ACK.
"""

from __future__ import annotations

import itertools
from typing import Any, Callable, Optional

__all__ = ["Event", "EventHandle"]

_sequence = itertools.count()


class Event:
    """A scheduled callback.

    Application code does not construct events directly; use
    :meth:`repro.sim.simulator.Simulator.schedule`.
    """

    __slots__ = ("time", "priority", "lpush", "seq", "callback", "args",
                 "cancelled", "parent")

    def __init__(
        self,
        time: float,
        callback: Callable[..., Any],
        args: tuple = (),
        priority: int = 0,
    ) -> None:
        self.time = time
        self.priority = priority
        #: Logical push time (see module docstring); the simulator stamps
        #: the scheduling instant, the batched datapath back-dates it.
        self.lpush = 0.0
        self.seq = next(_sequence)
        self.callback: Optional[Callable[..., Any]] = callback
        self.args = args
        self.cancelled = False
        #: Sequence number of the event whose callback scheduled this one
        #: (the happens-before *scheduling parent*).  Stamped by the
        #: simulator only while provenance instrumentation is on; None
        #: means "scheduled outside any event" (setup code) or
        #: provenance off.
        self.parent: Optional[int] = None

    def cancel(self) -> None:
        """Mark this event dead; the scheduler will skip it."""
        self.cancelled = True
        # Drop references so cancelled events do not pin objects alive while
        # they wait in the heap.
        self.callback = None
        self.args = ()

    def rekey(self, time: float, lpush: float,
              parent: Optional[int]) -> None:
        """Move this pending event to ``time`` in place, stamping it as
        a fresh schedule made now would be: ``lpush``, the next global
        ``seq`` and the provenance ``parent``.

        ``time`` must be *strictly later* than the event's current
        ``time``: only then is the new heap key larger than the entry
        already queued under every tie-break (FIFO or permuted), which is
        what lets the scheduler re-file the stale entry lazily when it
        surfaces.
        """
        self.time = time
        self.lpush = lpush
        self.seq = next(_sequence)
        self.parent = parent

    def fire(self) -> None:
        """Run the callback (no-op if cancelled)."""
        if self.cancelled or self.callback is None:
            return
        self.callback(*self.args)

    # Ordering ------------------------------------------------------------

    def sort_key(self) -> tuple:
        return (self.time, self.priority, self.lpush, self.seq)

    def __lt__(self, other: "Event") -> bool:
        return self.sort_key() < other.sort_key()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        name = getattr(self.callback, "__qualname__", repr(self.callback))
        state = " cancelled" if self.cancelled else ""
        return f"<Event t={self.time:.6f} {name}{state}>"


class EventHandle:
    """A caller-facing handle to a scheduled event.

    Exposes only cancellation and liveness so callers cannot mutate the
    scheduler's internals.
    """

    __slots__ = ("_event",)

    def __init__(self, event: Event) -> None:
        self._event = event

    @property
    def time(self) -> float:
        """The simulated time at which the event fires."""
        return self._event.time

    @property
    def active(self) -> bool:
        """True while the event is scheduled and not cancelled."""
        return not self._event.cancelled

    def cancel(self) -> None:
        """Cancel the event; safe to call more than once."""
        self._event.cancel()
