"""The reference-speed rescaling integrates each bin's factor over an interval.

    python3 -m pytest bench/test_reference.py -q
"""

from __future__ import annotations

import math

import pytest

from reference import BIN_NS, NOMINAL_NS, Speed


def test_constant_speed_scales_every_interval_alike():
    times = [i * BIN_NS // 4 for i in range(40)]
    speed = Speed(times, [2 * NOMINAL_NS] * 40)
    # Samples take twice the nominal time: the machine runs at half speed.
    assert speed.scale(0, 3 * BIN_NS) == pytest.approx(1.5 * BIN_NS / 1e9)
    assert speed.scale(BIN_NS // 3, BIN_NS // 2) == pytest.approx((BIN_NS // 6) / 2e9)


def test_interval_across_bins_weighs_each_bin_by_its_overlap():
    # Bin 0 runs at the nominal speed, bin 1 at half of it.
    speed = Speed([0, 10, BIN_NS, BIN_NS + 10], [NOMINAL_NS, NOMINAL_NS, 2 * NOMINAL_NS,
                                                 2 * NOMINAL_NS])
    start, end = BIN_NS // 2, BIN_NS + BIN_NS // 4
    expected = (BIN_NS - start) + (end - BIN_NS) / 2
    assert speed.scale(start, end) == pytest.approx(expected / 1e9)


def test_unsampled_bins_take_the_nearest_sampled_bin():
    speed = Speed([0, 4 * BIN_NS], [NOMINAL_NS, 3 * NOMINAL_NS])
    assert list(speed.factor) == pytest.approx([1, 1, 1, 1 / 3, 1 / 3])
    # Past either end, the edge bin's factor holds.
    assert speed.factor_at([-BIN_NS, 9 * BIN_NS]) == pytest.approx([1, 1 / 3])


def test_median_resists_a_stalled_sample():
    speed = Speed([0, 1, 2], [NOMINAL_NS, NOMINAL_NS, 50 * NOMINAL_NS])
    assert math.isclose(speed.factor[0], 1.0)


def test_no_samples_is_an_error():
    with pytest.raises(ValueError):
        Speed([], [])
