"""Unit tests for repro.core.events."""

import pytest

from repro.core.events import (
    DurativeEvent,
    Event,
    interevent_times,
    strip_durations,
    validate_events,
)


class TestEvent:
    def test_fields(self):
        ev = Event(1, 2, 5.0)
        assert ev.u == 1
        assert ev.v == 2
        assert ev.t == 5.0

    def test_edge_projection(self):
        assert Event(3, 7, 1.0).edge == (3, 7)

    def test_nodes(self):
        assert Event(3, 7, 1.0).nodes == (3, 7)

    def test_reversed_swaps_endpoints(self):
        assert Event(1, 2, 9.0).reversed() == Event(2, 1, 9.0)

    def test_reversed_is_involution(self):
        ev = Event(4, 5, 2.0)
        assert ev.reversed().reversed() == ev

    def test_shifted(self):
        assert Event(1, 2, 10.0).shifted(5.0) == Event(1, 2, 15.0)

    def test_shifted_negative(self):
        assert Event(1, 2, 10.0).shifted(-3.0).t == 7.0

    def test_is_loop(self):
        assert Event(1, 1, 0.0).is_loop()
        assert not Event(1, 2, 0.0).is_loop()

    def test_unpacks_as_tuple(self):
        u, v, t = Event(1, 2, 3.0)
        assert (u, v, t) == (1, 2, 3.0)


class TestDurativeEvent:
    def test_end_time(self):
        assert DurativeEvent(1, 2, 10.0, 5.0).end == 15.0

    def test_without_duration(self):
        assert DurativeEvent(1, 2, 10.0, 5.0).without_duration() == Event(1, 2, 10.0)

    def test_edge(self):
        assert DurativeEvent(1, 2, 0.0, 1.0).edge == (1, 2)

    def test_strip_durations(self):
        durative = [DurativeEvent(0, 1, 0.0, 2.0), DurativeEvent(1, 2, 5.0, 1.0)]
        assert strip_durations(durative) == [Event(0, 1, 0.0), Event(1, 2, 5.0)]


class TestValidateEvents:
    def test_sorts_by_time(self):
        out = validate_events([Event(0, 1, 5.0), Event(1, 2, 1.0)])
        assert [ev.t for ev in out] == [1.0, 5.0]

    def test_tie_break_by_nodes(self):
        out = validate_events([Event(2, 3, 1.0), Event(0, 1, 1.0)])
        assert out[0] == Event(0, 1, 1.0)

    def test_accepts_plain_tuples(self):
        out = validate_events([(0, 1, 3.0)])
        assert out == [Event(0, 1, 3.0)]

    def test_rejects_negative_timestamps(self):
        with pytest.raises(ValueError, match="negative"):
            validate_events([Event(0, 1, -1.0)])

    def test_rejects_self_loops_by_default(self):
        with pytest.raises(ValueError, match="self-loop"):
            validate_events([Event(1, 1, 0.0)])

    def test_allows_loops_when_asked(self):
        out = validate_events([Event(1, 1, 0.0)], allow_loops=True)
        assert out[0].is_loop()

    def test_empty_ok(self):
        assert validate_events([]) == []

    def test_rejects_nan_timestamps(self):
        with pytest.raises(ValueError, match="NaN timestamp"):
            validate_events([Event(0, 1, 1.0), (1, 2, float("nan"))])

    def test_names_the_first_bad_event_in_input_order(self):
        rows = [(0, 1, 5.0), (3, 3, 1.0), (0, 1, -2.0), (4, 5, float("nan"))]
        with pytest.raises(ValueError, match="self-loop") as err:
            validate_events(rows)
        assert "Event(u=3, v=3, t=1.0)" in str(err.value)

    def test_stable_sort_on_equal_keys(self):
        rows = [(1, 2, 0.0), (0, 1, 3), (1, 2, -0.0), (0, 1, 3.0)]
        out = validate_events(rows)
        assert out == [Event(1, 2, 0.0), Event(1, 2, -0.0), Event(0, 1, 3), Event(0, 1, 3.0)]
        assert [type(ev.t) for ev in out[2:]] == [int, float]
        assert str(out[1].t) == "-0.0"


class TestIntereventTimes:
    def test_gaps(self):
        events = [Event(0, 1, 0.0), Event(0, 1, 3.0), Event(0, 1, 10.0)]
        assert interevent_times(events) == [3.0, 7.0]

    def test_single_event_no_gaps(self):
        assert interevent_times([Event(0, 1, 0.0)]) == []

    def test_empty(self):
        assert interevent_times([]) == []
