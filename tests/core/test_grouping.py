"""Group-size selection: Eq. 1 and the first-epoch heuristic."""

import pytest

from repro.core import epoch_time_model, select_group_count


class TestEpochTimeModel:
    def test_eq1_value(self):
        # NUM/(N*BSg) * (T*N/M + Tsync) with easy numbers
        t = epoch_time_model(num_samples=1000, num_groups=2, group_batch=10,
                             t_train_group_batch=4.0, t_sync=1.0, num_socs=8)
        assert t == pytest.approx(50 * (4.0 * 2 / 8 + 1.0))

    def test_monotone_decreasing_in_groups(self):
        times = [epoch_time_model(50_000, n, 64, 8.0, 0.6, 32)
                 for n in (1, 2, 4, 8)]
        assert times == sorted(times, reverse=True)

    def test_validation(self):
        with pytest.raises(ValueError):
            epoch_time_model(0, 1, 1, 1.0, 1.0, 1)


class TestSelector:
    def test_halts_at_first_big_drop(self):
        profile = {1: 0.70, 2: 0.68, 4: 0.66, 8: 0.40, 16: 0.20}
        assert select_group_count(profile) == 4

    def test_keeps_going_with_small_drops(self):
        profile = {1: 0.70, 2: 0.69, 4: 0.68, 8: 0.67}
        assert select_group_count(profile) == 8

    def test_single_candidate(self):
        assert select_group_count({4: 0.5}) == 4

    def test_empty_profile_raises(self):
        with pytest.raises(ValueError):
            select_group_count({})

    def test_rising_profile_never_halts(self):
        profile = {1: 0.3, 2: 0.4, 4: 0.5}
        assert select_group_count(profile) == 4

    def test_drop_relative_to_best_seen(self):
        # rises to 0.8 then 0.65: that is >15% below the best seen
        profile = {1: 0.5, 2: 0.8, 4: 0.65}
        assert select_group_count(profile) == 2
