"""Deterministic discrete-event simulator.

Virtual time is a 64-bit count of microseconds.  Events execute in
``(at, seq)`` order where ``seq`` is assigned at scheduling time, so runs
are fully reproducible: the same topology and seed yield the same event
trace, timestamps and measurement spans.

An event is the object that was scheduled: a handler receives it as is and
dispatches on its type.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional

US_PER_MS = 1000


class SimError(Exception):
    pass


class PastTime(SimError):
    """Attempt to schedule an event before the current virtual time."""


class LimitExceeded(SimError):
    """Event queue still busy at the run limit; likely a forwarding loop."""


class NeverCompleted(SimError):
    """A measured activity did not finish before the run ended."""


def ms(value: float) -> int:
    """Convert milliseconds to integer simulated microseconds."""
    return round(value * US_PER_MS)


@dataclass(frozen=True)
class Timer:
    timer_id: str
    token: int = 0


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
        self._heap: List[tuple[int, int, str, Any]] = []
        self._seq = itertools.count()
        self._handlers: Dict[str, Callable[[Any], None]] = {}
        self._open_spans: Dict[str, int] = {}
        self.spans: List[MeasurementSpan] = []

    def register(self, target: str, handler: Callable[[Any], None]) -> None:
        if target in self._handlers:
            raise ValueError(f"target {target!r} already registered")
        self._handlers[target] = handler

    def schedule(self, at: int, target: str, event: Any) -> None:
        if at < self.now:
            raise PastTime(f"cannot schedule at {at} before now {self.now}")
        heapq.heappush(self._heap, (at, next(self._seq), target, event))

    def schedule_in(self, delay: int, target: str, event: Any) -> None:
        self.schedule(self.now + delay, target, event)

    def run_until_idle(self, limit: int = 10 ** 12) -> int:
        """Process events in order; returns the time of the last event.

        Raises :class:`LimitExceeded` when an event remains scheduled beyond
        ``limit``, which signals a livelock such as a Bloom forwarding loop.
        """
        while self._heap:
            at = self._heap[0][0]
            if at > limit:
                raise LimitExceeded(f"event pending at {at} beyond limit {limit}")
            _, _, target, event = heapq.heappop(self._heap)
            self.now = at
            self._handlers[target](event)
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
