"""Event loop semantics: ordering, limits, spans, reports."""

import pytest

from icnsim.simnet import (Control, Deliver, LimitExceeded, MeasurementSpan,
                           NeverCompleted, PastTime, SimReport, Simulator, Timer, ms)


def test_ms_conversion_exact():
    assert ms(100.0) == 100_000
    assert ms(0.1) == 100
    assert ms(2000) == 2_000_000


class TestScheduling:
    def test_now_executes_before_later(self):
        sim = Simulator()
        order = []
        sim.register("t", lambda e: order.append(e.kind.timer_id))
        sim.schedule(5, "t", Timer("later"))
        sim.schedule(0, "t", Timer("now"))
        sim.run_until_idle()
        assert order == ["now", "later"]

    def test_fifo_among_equal_timestamps(self):
        sim = Simulator()
        order = []
        sim.register("t", lambda e: order.append(e.kind.timer_id))
        for name in ("a", "b", "c"):
            sim.schedule(7, "t", Timer(name))
        sim.run_until_idle()
        assert order == ["a", "b", "c"]

    def test_past_time_rejected(self):
        sim = Simulator()
        sim.register("t", lambda e: None)
        sim.schedule(10, "t", Timer("x"))
        sim.run_until_idle()
        with pytest.raises(PastTime):
            sim.schedule(9, "t", Timer("y"))

    def test_clock_never_decreases(self):
        sim = Simulator()
        seen = []
        sim.register("t", lambda e: seen.append(sim.now))
        for at in (3, 1, 2, 1, 9):
            sim.schedule(at, "t", Timer(str(at)))
        sim.run_until_idle()
        assert seen == sorted(seen)

    def test_events_can_cascade(self):
        sim = Simulator()
        hits = []

        def handler(event):
            hits.append(sim.now)
            if len(hits) < 3:
                sim.schedule_in(4, "t", Timer("again"))

        sim.register("t", handler)
        sim.schedule(0, "t", Timer("start"))
        assert sim.run_until_idle() == 8
        assert hits == [0, 4, 8]


class TestRunUntilIdle:
    def test_empty_queue_returns_immediately(self):
        sim = Simulator()
        assert sim.run_until_idle() == 0
        assert sim.report().spans == []

    def test_limit_exceeded_on_livelock(self):
        sim = Simulator()

        def forever(event):
            sim.schedule_in(10, "t", Timer("tick"))

        sim.register("t", forever)
        sim.schedule(0, "t", Timer("tick"))
        with pytest.raises(LimitExceeded):
            sim.run_until_idle(limit=1_000)

    def test_deliver_and_control_kinds_dispatch(self):
        sim = Simulator()
        got = []
        sim.register("t", lambda e: got.append(e.kind))
        sim.schedule(0, "t", Deliver(payload=b"x"))
        sim.schedule(0, "t", Control(event="evt"))
        sim.run_until_idle()
        assert isinstance(got[0], Deliver) and isinstance(got[1], Control)


class TestSpans:
    def test_span_measures_interval(self):
        sim = Simulator()
        sim.register("t", lambda e: sim.end_span("work"))
        sim.begin_span("work")
        sim.schedule(42, "t", Timer("done"))
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
            sim.register("t", lambda e: sim.end_span(e.kind.timer_id))
            for i, label in enumerate(("x", "y")):
                sim.begin_span(label)
                sim.schedule(10 * (i + 1), "t", Timer(label))
            sim.run_until_idle()
            return sim.report({"t": "ok"})

        assert run().to_csv() == run().to_csv()
        assert run().to_text() == run().to_text()


def test_duplicate_target_registration_rejected():
    sim = Simulator()
    sim.register("t", lambda e: None)
    with pytest.raises(ValueError):
        sim.register("t", lambda e: None)
