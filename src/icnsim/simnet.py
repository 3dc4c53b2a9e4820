"""Deterministic discrete-event simulator.

Virtual time is a 64-bit count of microseconds.  Events execute in
``(at, seq)`` order, where ``seq`` is the order of scheduling, so runs are
fully reproducible: the same topology and seed yield the same event trace,
timestamps and measurement spans.

The queue is a calendar (Brown, CACM 1988): a heap of the distinct pending
times, and for each time a FIFO list of its events in scheduling order.
Times leave the heap in increasing order and each list is run front to
back, which is exactly ``(at, seq)`` order with no ``seq`` kept.  An event
scheduled at the current time while that time's list is running joins the
end of the list, so it runs in the same pass, after every event scheduled
before it.  Many events often share a time (a pass of data packets injected
at one instant moves in lockstep), and each of them costs one append and
one step of a list, not a heap push and pop through tuple comparisons.

There is one way to file an event: ``schedule(delay, handler, event)``
files it ``delay`` microseconds from now; a negative delay raises
:class:`PastTime`.  The handler gets the object filed and dispatches on its
type: a fabric hop is a tuple, a TM-controller frame its ``bytes``, a
message the TM served the ``list`` of its actions, a host's timer the
``int`` token its FSM armed, and the orchestrator's tick ``None``.
Handlers are registered under target names; a caller resolves one once
with ``handler``, which raises :class:`UnknownTarget` for a name nothing
registered.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from heapq import heappop, heappush
from itertools import islice
from operator import length_hint
from typing import Any, Callable, Dict, List, Optional

US_PER_MS = 1000


class SimError(Exception):
    pass


class PastTime(SimError):
    """Attempt to schedule an event before the current virtual time."""


class LimitExceeded(SimError):
    """Event queue still busy at the run limit; likely a forwarding loop."""


class UnknownTarget(SimError):
    """Attempt to resolve a target no handler is registered for."""


class NeverCompleted(SimError):
    """A measured activity did not finish before the run ended."""


def ms(value: float) -> int:
    """Convert milliseconds to integer simulated microseconds."""
    return round(value * US_PER_MS)


@dataclass(frozen=True)
class MeasurementSpan:
    label: str
    start_us: int
    end_us: int

    def __post_init__(self) -> None:
        if self.end_us < self.start_us:
            raise ValueError("span ends before it starts")

    @property
    def duration_us(self) -> int:
        return self.end_us - self.start_us


@dataclass
class SimReport:
    spans: List[MeasurementSpan] = field(default_factory=list)
    final_states: Dict[str, str] = field(default_factory=dict)
    end_us: int = 0

    def to_csv(self) -> str:
        lines = ["label,start_us,end_us,duration_us"]
        for span in sorted(self.spans, key=lambda s: (s.start_us, s.end_us, s.label)):
            lines.append(f"{span.label},{span.start_us},{span.end_us},{span.duration_us}")
        return "\n".join(lines) + "\n"

    def to_text(self) -> str:
        out = ["# spans", self.to_csv().rstrip("\n"), "# final states"]
        for name in sorted(self.final_states):
            out.append(f"{name}: {self.final_states[name]}")
        out.append(f"# end_us: {self.end_us}")
        return "\n".join(out) + "\n"

    def span(self, label: str) -> MeasurementSpan:
        for s in self.spans:
            if s.label == label:
                return s
        raise NeverCompleted(f"no finished span labelled {label!r}")


class Simulator:
    """Single-threaded event loop with FIFO tie-breaking."""

    def __init__(self) -> None:
        self.now = 0
        self._times: List[int] = []  # heap of the distinct times in _calendar
        self._calendar: Dict[int, List[tuple[Callable[[Any], None], Any]]] = {}
        self._handlers: Dict[str, Callable[[Any], None]] = {}
        self._open_spans: Dict[str, int] = {}
        self.spans: List[MeasurementSpan] = []

    def register(self, target: str, handler: Callable[[Any], None]) -> None:
        if target in self._handlers:
            raise ValueError(f"target {target!r} already registered")
        self._handlers[target] = handler

    def handler(self, target: str) -> Callable[[Any], None]:
        """The handler registered for ``target``."""
        try:
            return self._handlers[target]
        except KeyError:
            raise UnknownTarget(f"no handler registered for target {target!r}") from None

    def schedule(self, delay: int, handler: Callable[[Any], None], event: Any) -> None:
        """File ``event`` for ``handler`` ``delay`` microseconds from now."""
        if delay < 0:
            raise PastTime(f"negative delay {delay}: cannot schedule before now {self.now}")
        at = self.now + delay
        bucket = self._calendar.get(at)
        if bucket is None:
            self._calendar[at] = [(handler, event)]
            heappush(self._times, at)
        else:
            bucket.append((handler, event))

    def run_until_idle(self, limit: int = 10 ** 12, max_events: Optional[int] = None) -> int:
        """Process events in order; returns the time of the last event.

        Raises :class:`LimitExceeded` when an event remains scheduled beyond
        ``limit``, or after ``max_events`` events with more pending, which
        signals a livelock such as a Bloom forwarding loop; the events not
        run stay pending.  When a handler raises, its event is spent and
        the rest stay pending, so a later call resumes with the next one.
        """
        times, calendar = self._times, self._calendar
        left = max_events
        while times:
            at = times[0]
            if at > limit:
                raise LimitExceeded(f"event pending at {at} beyond limit {limit}")
            self.now = at
            bucket = calendar[at]
            # Iterated in place: the iterator also yields events appended
            # at this time by the handlers it runs.
            events = iter(bucket)
            try:
                if left is None:  # islice costs a timestamp of one event about a third more
                    for handler, event in events:
                        handler(event)
                else:  # the same, stopped at the budget
                    for handler, event in islice(events, left):
                        handler(event)
                    left -= len(bucket)
                    if left < 0:
                        raise LimitExceeded(f"more than {max_events} events")
            except BaseException:
                # Every event handed out so far, the raising one included, is spent.
                del bucket[:len(bucket) - length_hint(events)]
                raise
            heappop(times)
            del calendar[at]
        return self.now

    # -- measurement -------------------------------------------------------

    def begin_span(self, label: str) -> None:
        self._open_spans[label] = self.now

    def end_span(self, label: str) -> MeasurementSpan:
        start = self._open_spans.pop(label)
        span = MeasurementSpan(label, start, self.now)
        self.spans.append(span)
        return span

    def report(self, final_states: Optional[Dict[str, str]] = None) -> SimReport:
        return SimReport(spans=list(self.spans),
                         final_states=dict(final_states or {}),
                         end_us=self.now)
