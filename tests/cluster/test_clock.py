"""Simulated phase clock."""

import pytest

from repro.cluster import PhaseClock


class TestClock:
    def test_advance_accumulates(self):
        clock = PhaseClock()
        clock.advance(2.0, "compute")
        clock.advance(1.0, "sync")
        clock.advance(3.0, "compute")
        assert clock.now == 6.0
        assert clock.breakdown() == {"compute": 5.0, "sync": 1.0}

    def test_attribute_does_not_advance_wall(self):
        clock = PhaseClock()
        clock.advance(2.0, "compute")
        clock.attribute(1.5, "sync")
        assert clock.now == 2.0
        assert clock.breakdown()["sync"] == 1.5

    def test_fraction(self):
        clock = PhaseClock()
        clock.advance(3.0, "compute")
        clock.advance(1.0, "sync")
        assert clock.fraction("compute") == pytest.approx(0.75)
        assert clock.fraction("missing") == 0.0

    def test_fraction_of_empty_clock(self):
        assert PhaseClock().fraction("compute") == 0.0

    def test_negative_rejected(self):
        clock = PhaseClock()
        with pytest.raises(ValueError):
            clock.advance(-1.0, "compute")
        with pytest.raises(ValueError):
            clock.attribute(-1.0, "sync")

    def test_reset(self):
        clock = PhaseClock()
        clock.advance(1.0, "compute")
        clock.reset()
        assert clock.now == 0.0
        assert clock.breakdown() == {}
