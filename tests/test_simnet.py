"""Event loop semantics: ordering, limits, spans, reports."""

import heapq
import itertools

import pytest
from hypothesis import given, settings, strategies as st

from icnsim.deploy import Deployment
from icnsim.simnet import (LimitExceeded, MeasurementSpan, NeverCompleted, PastTime,
                           SimReport, Simulator, UnknownTarget, ms)
from icnsim.topospec import generate_random


def test_ms_conversion_exact():
    assert ms(100.0) == 100_000
    assert ms(0.1) == 100
    assert ms(2000) == 2_000_000


class TestScheduling:
    def test_now_executes_before_later(self):
        sim = Simulator()
        order = []
        t = order.append
        sim.schedule(5, t, "later")
        sim.schedule(0, t, "now")
        sim.run_until_idle()
        assert order == ["now", "later"]

    def test_fifo_among_equal_timestamps(self):
        sim = Simulator()
        order = []
        for name in ("a", "b", "c"):
            sim.schedule(7, order.append, name)
        sim.run_until_idle()
        assert order == ["a", "b", "c"]

    def test_past_time_rejected(self):
        sim = Simulator()
        t = lambda e: None
        sim.schedule(10, t, "x")
        sim.run_until_idle()
        sim.schedule(0, t, "now")  # the current time is not past
        with pytest.raises(PastTime):
            sim.schedule(-1, t, "y")
        assert sim.run_until_idle() == 10  # only the zero-delay timer was queued

    def test_clock_never_decreases(self):
        sim = Simulator()
        seen = []
        for at in (3, 1, 2, 1, 9):
            sim.schedule(at, lambda e: seen.append(sim.now), str(at))
        sim.run_until_idle()
        assert seen == sorted(seen)

    def test_events_can_cascade(self):
        sim = Simulator()
        hits = []

        def handler(event):
            hits.append(sim.now)
            if len(hits) < 3:
                sim.schedule(4, handler, "again")

        sim.schedule(0, handler, "start")
        assert sim.run_until_idle() == 8
        assert hits == [0, 4, 8]

    def test_unknown_target_rejected_when_scheduled(self):
        # A target is resolved before its event is filed, so an unknown one
        # fails there and queues nothing.
        sim = Simulator()
        with pytest.raises(UnknownTarget, match="'nope'"):
            sim.schedule(3, sim.handler("nope"), "x")
        assert sim.run_until_idle() == 0  # nothing was queued

    def test_handler_of_an_unregistered_target_rejected(self):
        sim = Simulator()
        sim.register("t", print)
        assert sim.handler("t") is print
        with pytest.raises(UnknownTarget, match="'nope'"):
            sim.handler("nope")

    def test_one_time_runs_in_filing_order(self):
        # Events for one time run in the order they were filed, also those
        # filed by a handler running at that time.
        sim = Simulator()
        order = []
        u = order.append

        def t(event):
            order.append(event)
            for name in ("a1", "a2", "a3"):
                sim.schedule(0, u, name)

        sim.schedule(5, t, "a")
        sim.schedule(5, u, "b")
        sim.schedule(5, u, "c")
        sim.schedule(3, u, "early")
        assert sim.run_until_idle() == 5
        assert order == ["early", "a", "b", "c", "a1", "a2", "a3"]

    def test_zero_delay_event_joins_the_running_time(self):
        sim = Simulator()
        order = []

        def handler(event):
            order.append(event)
            if event == "a":
                sim.schedule(0, handler, "a0")

        for name in ("a", "b"):
            sim.schedule(5, handler, name)
        sim.schedule(6, handler, "c")
        sim.run_until_idle()
        assert order == ["a", "b", "a0", "c"]


class TestRunUntilIdle:
    def test_empty_queue_returns_immediately(self):
        sim = Simulator()
        assert sim.run_until_idle() == 0
        assert sim.report().spans == []

    def test_limit_exceeded_on_livelock(self):
        sim = Simulator()

        def forever(event):
            sim.schedule(10, forever, "tick")

        sim.schedule(0, forever, "tick")
        with pytest.raises(LimitExceeded):
            sim.run_until_idle(limit=1_000)

    def test_handler_receives_the_scheduled_object(self):
        sim = Simulator()
        got = []
        token, payload = 3, object()
        sim.schedule(0, got.append, token)
        sim.schedule(0, got.append, payload)
        sim.run_until_idle()
        assert got[0] is token and got[1] is payload


class TestSpans:
    def test_span_measures_interval(self):
        sim = Simulator()
        sim.begin_span("work")
        sim.schedule(42, lambda e: sim.end_span("work"), "done")
        sim.run_until_idle()
        span = sim.report().span("work")
        assert (span.start_us, span.end_us, span.duration_us) == (0, 42, 42)

    def test_span_end_before_start_rejected(self):
        with pytest.raises(ValueError):
            MeasurementSpan("x", 10, 5)

    def test_missing_span_raises_never_completed(self):
        with pytest.raises(NeverCompleted):
            SimReport().span("nope")

    def test_open_span_not_reported(self):
        sim = Simulator()
        sim.begin_span("open")
        assert sim.report().spans == []


class TestReport:
    def make_report(self):
        report = SimReport(spans=[MeasurementSpan("b", 5, 9), MeasurementSpan("a", 0, 7)],
                           final_states={"n1": "DONE"}, end_us=9)
        return report

    def test_csv_layout_and_order(self):
        csv = self.make_report().to_csv()
        assert csv.splitlines()[0] == "label,start_us,end_us,duration_us"
        assert csv.splitlines()[1] == "a,0,7,7"
        assert csv.splitlines()[2] == "b,5,9,4"

    def test_text_includes_states(self):
        text = self.make_report().to_text()
        assert "n1: DONE" in text and "# end_us: 9" in text

    def test_identical_runs_identical_reports(self):
        def run():
            sim = Simulator()
            for i, label in enumerate(("x", "y")):
                sim.begin_span(label)
                sim.schedule(10 * (i + 1), lambda e: sim.end_span(e), label)
            sim.run_until_idle()
            return sim.report({"t": "ok"})

        assert run().to_csv() == run().to_csv()
        assert run().to_text() == run().to_text()


def test_duplicate_target_registration_rejected():
    sim = Simulator()
    sim.register("t", lambda e: None)
    with pytest.raises(ValueError):
        sim.register("t", lambda e: None)


def test_each_cable_holds_its_far_end_handler(monkeypatch):
    # Cables are wired after registration, so a handler wrapped as it is
    # registered (as a tracer does) is the one every hop runs.
    hops = []
    register = Simulator.register

    def wrapping(sim, target, handler):
        def wrapped(event):
            if type(event) is tuple:  # a copy in flight
                hops.append(target)
            handler(event)
        register(sim, target, wrapped)

    monkeypatch.setattr(Simulator, "register", wrapping)
    spec = generate_random(6, 9, 4, 3)
    net = Deployment(spec)
    nodes = [net.tm, *net.switches.values(), *net.hosts.values()]
    cables = [cable for node in nodes for cable in node.ports.values()]
    assert len(cables) == 2 * len(spec.links)
    for cable in cables:
        assert cable.handler is net.sim.handler(f"node:{cable.dst}")
    emitted = []
    net.drop_filter = lambda src, dst, packet: emitted.append(f"node:{dst}")  # drops none
    net.run_bootstrap()
    assert net.all_done()
    assert emitted and sorted(hops) == sorted(emitted)


# -- order oracle ------------------------------------------------------------------
#
# An event is an integer id, numbered in scheduling order.  When event ``e``
# runs it schedules the children ``plan[e % len(plan)]`` (delays, some of
# them 0) until ``cap`` events exist.  The reference runs the same plan from
# a plain ``(at, seq)`` heap; the simulator must run the same ids at the
# same times, in the same order.


def reference_run(starts, plan, cap, barren=None):
    """(time, id) in ``(at, seq)`` order; event ``barren`` schedules no children."""
    heap, seq, log = [], itertools.count(), []
    for at in starts:
        heapq.heappush(heap, (at, next(seq)))
    while heap:
        at, event = heapq.heappop(heap)
        log.append((at, event))
        if event != barren:
            for delay in plan[event % len(plan)]:
                n = next(seq)
                if n < cap:
                    heapq.heappush(heap, (at + delay, n))
    return log


def planned_sim(starts, plan, cap, boom=None):
    """A simulator loaded with the plan; event ``boom`` raises once, before its children."""
    sim = Simulator()
    seq, log = itertools.count(len(starts)), []

    def handler(event):
        log.append((sim.now, event))
        if event == boom:
            raise RuntimeError("boom")
        for delay in plan[event % len(plan)]:
            n = next(seq)
            if n < cap:
                sim.schedule(delay, handler, n)

    for event, at in enumerate(starts):
        sim.schedule(at, handler, event)
    return sim, log


STARTS = st.lists(st.integers(0, 6), min_size=1, max_size=12)
PLANS = st.lists(st.lists(st.sampled_from([0, 0, 1, 2, 5]), max_size=3), min_size=1, max_size=6)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(STARTS, PLANS, st.integers(1, 80))
def test_order_matches_an_at_seq_heap(starts, plan, cap):
    sim, log = planned_sim(starts, plan, cap)
    assert sim.run_until_idle() == max(at for at, _ in log)
    assert log == reference_run(starts, plan, cap)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(STARTS, PLANS, st.integers(1, 80), st.data())
def test_a_raising_handler_leaves_the_rest_pending(starts, plan, cap, data):
    expected = reference_run(starts, plan, cap)
    boom = data.draw(st.sampled_from(sorted(e for _, e in expected)), label="boom")
    expected = reference_run(starts, plan, cap, barren=boom)
    sim, log = planned_sim(starts, plan, cap, boom)
    with pytest.raises(RuntimeError, match="boom"):
        sim.run_until_idle()
    assert log[-1][1] == boom
    sim.run_until_idle()
    # The raising event is spent; everything after it runs once, in order.
    assert log == expected


@settings(derandomize=True, max_examples=300, deadline=None)
@given(STARTS, PLANS, st.integers(1, 80), st.integers(0, 40))
def test_an_event_budget_runs_that_many_and_leaves_the_rest_pending(starts, plan, cap, budget):
    expected = reference_run(starts, plan, cap)
    sim, log = planned_sim(starts, plan, cap)
    if len(expected) > budget:
        with pytest.raises(LimitExceeded, match=f"more than {budget} events"):
            sim.run_until_idle(max_events=budget)
        assert log == expected[:budget]
    else:  # exactly the budget, with nothing pending, is no excess
        sim.run_until_idle(max_events=budget)
    sim.run_until_idle()
    assert log == expected


@settings(derandomize=True, max_examples=300, deadline=None)
@given(STARTS, PLANS, st.integers(1, 80), st.integers(0, 12))
def test_limit_exceeded_leaves_the_queue_intact(starts, plan, cap, limit):
    expected = reference_run(starts, plan, cap)
    sim, log = planned_sim(starts, plan, cap)
    if expected[-1][0] > limit:
        with pytest.raises(LimitExceeded):
            sim.run_until_idle(limit=limit)
        assert log == [entry for entry in expected if entry[0] <= limit]
    sim.run_until_idle()
    assert log == expected
