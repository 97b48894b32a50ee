"""Stream generation: moments, change injection, CSV round-trips."""

from __future__ import annotations

import dataclasses
import math
import pickle

import numpy as np
import pytest

from sparsewatch import (
    BasisDictionary,
    DataError,
    DimensionError,
    ModelConfig,
    Scenario,
    fourier_basis,
    gen_stream,
    load_stream_csv,
    save_stream_csv,
)
from sparsewatch.simgen import realize_change_coefficient


def _scenario(default_dictionary, default_config, **kw):
    base = dict(
        dictionary=default_dictionary,
        cfg=default_config,
        tau=None,
        change=(),
        horizon=100,
    )
    base.update(kw)
    return Scenario(**base)


class TestGenStream:
    def test_shape_and_reproducibility(self, default_dictionary, default_config):
        sc = _scenario(default_dictionary, default_config, horizon=40)
        a = gen_stream(sc, 12345)
        b = gen_stream(sc, 12345)
        c = gen_stream(sc, 54321)
        assert a.shape == (40, 15)
        np.testing.assert_array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_null_stream_matches_model_covariance(
        self, default_dictionary, default_config
    ):
        """Sample covariance approaches B_b diag(sigma_b^2) B_b' + sigma_e^2 I."""
        sc = _scenario(default_dictionary, default_config, horizon=5000)
        stream = gen_stream(sc, 7)
        sample_cov = np.cov(stream.T, bias=True)
        model_cov = (
            default_config.sigma_b**2
            * default_dictionary.b_b
            @ default_dictionary.b_b.T
            + default_config.sigma_e**2 * np.eye(15)
        )
        assert np.max(np.abs(sample_cov - model_cov)) < 0.05
        assert np.max(np.abs(stream.mean(axis=0))) < 0.05

    def test_change_shifts_post_change_mean(
        self, default_dictionary, default_config
    ):
        sc = _scenario(
            default_dictionary,
            default_config,
            tau=50,
            change=((2, 1.5),),
            horizon=4050,
        )
        stream = gen_stream(sc, 99)
        shift = default_dictionary.b_a[:, 2] * 1.5
        post_mean = stream[50:].mean(axis=0)
        pre_mean = stream[:50].mean(axis=0)
        # 4000 post-change rows: the per-coordinate standard error is well
        # under 0.01, while the planted shift peaks near 0.9.
        assert np.max(np.abs(post_mean - shift)) < 0.05
        assert np.max(np.abs(pre_mean)) < 0.3

    def test_change_starts_exactly_after_tau(self, default_dictionary):
        cfg = ModelConfig.homogeneous(
            k_a=10, sigma_e=1e-12, sigma_b=1e-12, sigma_j=3.0, w=0.1,
            v=1e-7, decay=0.1, m=5,
        )
        sc = Scenario(
            dictionary=default_dictionary,
            cfg=cfg,
            tau=3,
            change=((4, 2.0),),
            horizon=6,
        )
        stream = gen_stream(sc, 0)
        signal = default_dictionary.b_a[:, 4] * 2.0
        np.testing.assert_allclose(stream[:3], 0.0, atol=1e-9)
        for row in stream[3:]:
            np.testing.assert_allclose(row, signal, atol=1e-9)

    def test_zero_noise_null_stream_is_zero(self, default_dictionary):
        """At the smallest scales a config admits, sqrt(smallest normal),
        a null stream is background and noise of that size alone."""
        floor = math.sqrt(np.finfo(np.float64).tiny)
        cfg = ModelConfig.homogeneous(
            k_a=10, sigma_e=floor, sigma_b=floor, sigma_j=3.0, w=0.1,
            v=1e-7, decay=0.1, m=5,
        )
        sc = Scenario(
            dictionary=default_dictionary, cfg=cfg, tau=None, horizon=5
        )
        np.testing.assert_allclose(gen_stream(sc, 3), 0.0, atol=1e-150)

    def test_random_change_basis_draws_uniformly(
        self, default_dictionary, default_config
    ):
        sc = _scenario(
            default_dictionary,
            default_config,
            tau=0,
            change=((0, 1.0),),
            horizon=2,
            random_change_basis=True,
        )
        counts = np.zeros(10)
        for rep in range(4000):
            theta = realize_change_coefficient(sc, np.random.default_rng(rep))
            (j,) = np.flatnonzero(theta)
            assert theta[j] == 1.0
            counts[j] += 1
        freqs = counts / 4000
        assert np.max(np.abs(freqs - 0.1)) < 0.03

    def test_change_index_validation(self, default_dictionary, default_config):
        with pytest.raises(DimensionError):
            _scenario(
                default_dictionary,
                default_config,
                tau=5,
                change=((10, 1.0),),
                horizon=20,
            )

    def test_tau_must_precede_horizon(self, default_dictionary, default_config):
        with pytest.raises(ValueError):
            _scenario(
                default_dictionary,
                default_config,
                tau=30,
                change=((0, 1.0),),
                horizon=20,
            )

    def test_change_point_requires_entries(
        self, default_dictionary, default_config
    ):
        with pytest.raises(ValueError):
            _scenario(default_dictionary, default_config, tau=5, horizon=20)

    @pytest.mark.parametrize("phi", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("random_change_basis", [False, True])
    def test_non_finite_magnitude_refused(
        self, default_dictionary, default_config, phi, random_change_basis
    ):
        """A non-finite magnitude would make every step after tau
        non-finite; the entry is named."""
        with pytest.raises(ValueError, match=rf"change entry \(1, {phi}\) has a non-finite"):
            _scenario(
                default_dictionary, default_config, tau=5, change=((1, phi),),
                horizon=20, random_change_basis=random_change_basis,
            )

    @pytest.mark.parametrize("phi", [True, "1.0"], ids=["bool", "string"])
    @pytest.mark.parametrize("random_change_basis", [False, True])
    def test_magnitude_that_is_not_a_number_named(
        self, default_dictionary, default_config, phi, random_change_basis
    ):
        """True changed the stream by 1.0, and "1.0" was parsed."""
        with pytest.raises(DataError, match=f"change magnitude must be a number, got {phi!r}"):
            _scenario(
                default_dictionary, default_config, tau=5, change=((1, phi),),
                horizon=20, random_change_basis=random_change_basis,
            )

    def test_background_free_stream(self, default_config):
        d = BasisDictionary(b_b=np.zeros((15, 0)), b_a=np.eye(15))
        cfg = ModelConfig.homogeneous(
            k_a=15, sigma_e=1.0, sigma_b=0.3, sigma_j=3.0, w=0.1,
            v=1e-7, decay=0.1, m=5,
        )
        sc = Scenario(dictionary=d, cfg=cfg, tau=None, horizon=3000)
        stream = gen_stream(sc, 11)
        sample_cov = np.cov(stream.T, bias=True)
        assert np.max(np.abs(sample_cov - np.eye(15))) < 0.12


class TestScenario:
    def test_compares_and_hashes_by_value(self, default_dictionary, default_config):
        """Scenarios built from equal but distinct records, or unpickled, are
        equal and hash alike; another field or record makes them unequal."""
        d, cfg = default_dictionary, default_config
        sc = _scenario(d, cfg, tau=20, change=((1, 0.5),))
        twin_d = BasisDictionary(b_b=d.b_b.copy(), b_a=d.b_a.copy())
        twin_cfg = dataclasses.replace(cfg, sigma_j=cfg.sigma_j.copy(), w=cfg.w.copy())
        for twin in (_scenario(twin_d, twin_cfg, tau=20, change=((1, 0.5),)),
                     pickle.loads(pickle.dumps(sc))):
            assert twin is not sc and twin == sc and hash(twin) == hash(sc)
        for other in (
            _scenario(d, cfg, tau=21, change=((1, 0.5),)),
            _scenario(d, cfg, tau=20, change=((2, 0.5),)),
            _scenario(d, cfg, tau=20, change=((1, 0.5),), horizon=101),
            _scenario(d, dataclasses.replace(cfg, decay=0.05), tau=20, change=((1, 0.5),)),
            _scenario(BasisDictionary(b_b=d.b_b, b_a=2.0 * d.b_a), cfg, tau=20, change=((1, 0.5),)),
        ):
            assert other != sc


    @pytest.mark.parametrize(
        "tau, horizon, message",
        [
            (0.5, 20, "tau must be an integer of at least 0, got 0.5"),
            (True, 20, "tau must be an integer of at least 0, got True"),
            (-1, 20, "tau must be an integer of at least 0, got -1"),
            (5, 2.5, "horizon must be an integer of at least 1, got 2.5"),
            (5, True, "horizon must be an integer of at least 1, got True"),
            (5, 0, "horizon must be an integer of at least 1, got 0"),
            (20, 20, r"tau must lie in \[0, 19\], got 20"),
        ],
        ids=["tau-fraction", "tau-bool", "tau-negative", "horizon-fraction", "horizon-bool",
             "horizon-zero", "tau-at-horizon"],
    )
    def test_fractional_bool_or_negative_tau_or_horizon_refused(
        self, default_dictionary, default_config, tau, horizon, message
    ):
        """Refused when the scenario is built, not when a stream is cut."""
        with pytest.raises(ValueError, match=message):
            _scenario(
                default_dictionary, default_config, tau=tau, change=((1, 0.5),),
                horizon=horizon,
            )

    @pytest.mark.parametrize(
        "index, random_change_basis, message",
        [
            (2.7, False, "change index must be an integer of at least 0, got 2.7"),
            (True, False, "change index must be an integer of at least 0, got True"),
            (-1, False, "change index must be an integer of at least 0, got -1"),
            (10, False, r"change index must lie in \[0, 9\], got 10"),
            (2.7, True, "change index must be an integer of at least 0, got 2.7"),
            (True, True, "change index must be an integer of at least 0, got True"),
            (-1, True, "change index must be an integer of at least 0, got -1"),
        ],
    )
    def test_change_index_that_is_not_an_index_in_range_named(
        self, default_dictionary, default_config, index, random_change_basis, message
    ):
        """2.7 changed column 2.  With ``random_change_basis`` the column is
        drawn, so any index of at least 0 is accepted."""
        with pytest.raises(DimensionError, match=message):
            _scenario(
                default_dictionary, default_config, tau=5, change=((index, 0.5),),
                horizon=20, random_change_basis=random_change_basis,
            )

    def test_any_index_accepted_under_random_change_basis(self, default_dictionary, default_config):
        sc = _scenario(
            default_dictionary, default_config, tau=5, change=((10, 0.5),), horizon=20,
            random_change_basis=True,
        )
        assert sc.change == ((10, 0.5),)

    @pytest.mark.parametrize("random_change_basis", [False, True])
    def test_change_without_a_change_point_refused(
        self, default_dictionary, default_config, random_change_basis
    ):
        """tau=None once dropped the change and generated a null stream."""
        with pytest.raises(ValueError, match="tau is None, so change must be empty"):
            _scenario(
                default_dictionary, default_config, tau=None, change=((0, 5.0),),
                random_change_basis=random_change_basis,
            )

    def test_budget_one_past_p_named(self, default_dictionary, default_config):
        cfg = dataclasses.replace(default_config, m=16)
        with pytest.raises(DimensionError, match=r"sensing budget m must lie in \[1, 15\], got 16"):
            _scenario(default_dictionary, cfg)

    def test_numpy_integer_tau_and_horizon_accepted(self, default_dictionary, default_config):
        sc = _scenario(
            default_dictionary, default_config, tau=np.int64(5), change=((1, 0.5),),
            horizon=np.int64(20),
        )
        assert gen_stream(sc, 3).shape == (20, 15)
        assert type(sc.tau) is int and type(sc.horizon) is int
        assert (sc.tau, sc.horizon) == (5, 20)

    @pytest.mark.parametrize("change", [(), ((0, 1.0), (1, 5.0))], ids=["none", "two"])
    def test_random_change_basis_needs_exactly_one_entry(
        self, default_dictionary, default_config, change
    ):
        """The drawn column takes the one entry's magnitude; a second
        entry's 5.0 was dropped without a word."""
        with pytest.raises(
            ValueError, match=f"random_change_basis needs exactly one change entry, got {len(change)}"
        ):
            _scenario(
                default_dictionary, default_config, tau=5, change=change, horizon=20,
                random_change_basis=True,
            )

    def test_config_of_another_anomaly_size_refused(self, default_dictionary):
        cfg = ModelConfig.homogeneous(
            k_a=9, sigma_e=0.05, sigma_b=0.3, sigma_j=3.0, w=0.1, v=1e-7, decay=0.1, m=5,
        )
        with pytest.raises(DimensionError, match="config and dictionary disagree on k_a"):
            _scenario(default_dictionary, cfg)


class TestStreamCsv:
    def test_round_trip_exact(self, tmp_path, rng):
        stream = rng.normal(size=(7, 4))
        path = tmp_path / "stream.csv"
        save_stream_csv(path, stream)
        text = path.read_text().splitlines()
        assert text[0] == "t,x1,x2,x3,x4"
        assert text[1].split(",")[0] == "1"
        loaded = load_stream_csv(path)
        np.testing.assert_array_equal(loaded, stream)

    def test_blank_cell_becomes_nan(self, tmp_path):
        path = tmp_path / "stream.csv"
        path.write_text("t,x1,x2\n1,0.5,\n2,1.0,2.0\n")
        loaded = load_stream_csv(path)
        assert np.isnan(loaded[0, 1])
        assert loaded[1, 1] == 2.0

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "stream.csv"
        path.write_text("step,x1\n1,0.5\n")
        with pytest.raises(DataError):
            load_stream_csv(path)

    def test_ragged_row_rejected(self, tmp_path):
        path = tmp_path / "stream.csv"
        path.write_text("t,x1,x2\n1,0.5\n")
        with pytest.raises(DataError):
            load_stream_csv(path)

    def test_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "stream.csv"
        path.write_text("t,x1,x2\n\n1,0.5,1.5\n  \n2,1.0,2.0\n\n")
        assert load_stream_csv(path).tolist() == [[0.5, 1.5], [1.0, 2.0]]

    @pytest.mark.parametrize(
        "text, message",
        [
            ("t\n1\n", "stream file has no variable columns"),
            ("t,x1,x2\n1,0.5,abc\n", "line 2: could not convert string to float: 'abc'"),
            ("t,x1,x2\n\n", "stream file has no data rows"),
        ],
        ids=["no-columns", "not-a-number", "no-rows"],
    )
    def test_malformed_file_named(self, tmp_path, text, message):
        path = tmp_path / "stream.csv"
        path.write_text(text)
        with pytest.raises(DataError, match=message):
            load_stream_csv(path)
