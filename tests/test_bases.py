"""Basis construction, orthogonality diagnostics, and CSV round-trips."""

from __future__ import annotations

import math
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sparsewatch import (
    BasisDictionary,
    DataError,
    DimensionError,
    bspline_basis,
    check_orthogonality,
    fourier_basis,
    identity_anomaly_basis,
    kron_basis,
    load_basis_csv,
    pca_basis,
    save_basis_csv,
)


class TestFourierBasis:
    def test_first_cosine_column_frozen(self):
        """cos(2·pi·t/4) on t=0..3 is [1, 0, -1, 0], normalized by sqrt(2)."""
        basis = fourier_basis(4, 1)
        expected = np.array([1.0, 0.0, -1.0, 0.0]) / math.sqrt(2.0)
        np.testing.assert_allclose(basis[:, 0], expected, atol=1e-15)

    def test_second_column_is_sine_partner(self):
        basis = fourier_basis(8, 2)
        t = np.arange(8)
        sine = np.sin(2.0 * np.pi * t / 8)
        np.testing.assert_allclose(
            basis[:, 1], sine / np.linalg.norm(sine), atol=1e-15
        )

    def test_columns_are_unit_norm_and_orthogonal(self):
        basis = fourier_basis(15, 3)
        gram = basis.T @ basis
        np.testing.assert_allclose(gram, np.eye(3), atol=1e-12)

    def test_shape(self):
        assert fourier_basis(30, 2).shape == (30, 2)

    def test_degenerate_sine_mode_rejected(self):
        # At p=4 the second sine column is identically zero.
        with pytest.raises(DimensionError):
            fourier_basis(4, 4)

    def test_too_many_columns_rejected(self):
        with pytest.raises(DimensionError):
            fourier_basis(4, 5)


class TestBsplineBasis:
    def test_order_one_is_identity_partition(self):
        """5 points, order 1, 6 knots: indicator columns, one per span."""
        basis = bspline_basis(5, 1, 6)
        np.testing.assert_allclose(basis, np.eye(5), atol=1e-15)

    def test_order_two_hats_frozen(self):
        """Order 2 with 4 knots leaves the two hats 1-x and x on [0, 1]."""
        basis = bspline_basis(5, 2, 4)
        x = np.linspace(0.0, 1.0, 5)
        np.testing.assert_allclose(basis[:, 0], 1.0 - x, atol=1e-15)
        np.testing.assert_allclose(basis[:, 1], x, atol=1e-15)

    def test_default_experiment_shapes(self):
        assert bspline_basis(15, 4, 14).shape == (15, 10)
        assert bspline_basis(30, 4, 21).shape == (30, 17)

    @given(
        order=st.integers(min_value=1, max_value=5),
        extra=st.integers(min_value=0, max_value=8),
        p=st.integers(min_value=2, max_value=40),
    )
    @settings(max_examples=60, deadline=None)
    def test_partition_of_unity_and_nonnegativity(self, order, extra, p):
        """Rows sum to one and entries are nonnegative for any valid sizing."""
        basis = bspline_basis(p, order, 2 * order + extra)
        assert basis.shape == (p, order + extra)
        assert np.all(basis >= -1e-12)
        np.testing.assert_allclose(basis.sum(axis=1), 1.0, atol=1e-12)

    def test_boundary_rows_are_nonzero(self):
        basis = bspline_basis(15, 4, 14)
        assert np.linalg.norm(basis[0]) > 0.1
        assert np.linalg.norm(basis[-1]) > 0.1

    def test_cubic_interior_column_symmetry(self):
        # A uniform knot vector makes the basis symmetric under x -> 1-x
        # with the column order reversed.
        basis = bspline_basis(21, 4, 14)
        np.testing.assert_allclose(basis, basis[::-1, ::-1], atol=1e-12)

    def test_normalize_columns(self):
        basis = bspline_basis(15, 4, 14, normalize_columns=True)
        np.testing.assert_allclose(np.linalg.norm(basis, axis=0), 1.0, atol=1e-12)

    def test_too_few_knots_rejected(self):
        with pytest.raises(DimensionError):
            bspline_basis(10, 4, 7)


class TestKronBasis:
    def test_column_vector_product_frozen(self):
        out = kron_basis(np.array([[1.0], [2.0]]), np.array([[3.0], [4.0]]))
        np.testing.assert_allclose(out, np.array([[3.0], [4.0], [6.0], [8.0]]))

    def test_gram_factorizes(self, rng):
        b1 = rng.normal(size=(5, 2))
        b2 = rng.normal(size=(4, 3))
        out = kron_basis(b1, b2)
        assert out.shape == (20, 6)
        np.testing.assert_allclose(
            out.T @ out, np.kron(b1.T @ b1, b2.T @ b2), atol=1e-12
        )

    def test_gridded_experiment_shapes(self):
        b_b = kron_basis(bspline_basis(20, 2, 4), bspline_basis(20, 2, 4))
        b_a = kron_basis(bspline_basis(20, 4, 13), bspline_basis(20, 4, 13))
        assert b_b.shape == (400, 4)
        assert b_a.shape == (400, 81)

    def test_empty_factor_rejected(self):
        with pytest.raises(DimensionError):
            kron_basis(np.zeros((0, 1)), np.ones((2, 1)))


class TestPcaBasis:
    def test_recovers_planted_direction(self, rng):
        direction = rng.normal(size=12)
        direction /= np.linalg.norm(direction)
        scores = rng.normal(size=200)
        training = np.outer(direction, scores) + 0.5
        directions, fitted_scores, noise = pca_basis(training, 1)
        align = abs(float(directions[:, 0] @ direction))
        assert align > 1.0 - 1e-10
        assert noise < 1e-10
        assert fitted_scores.shape == (1, 200)

    def test_noise_std_estimates_planted_noise(self, rng):
        direction = rng.normal(size=40)
        direction /= np.linalg.norm(direction)
        training = np.outer(direction, 3.0 * rng.normal(size=200))
        training = training + 0.05 * rng.normal(size=training.shape)
        _, _, noise = pca_basis(training, 1)
        assert 0.04 <= noise <= 0.06

    def test_directions_orthonormal(self, rng):
        training = rng.normal(size=(10, 50))
        directions, _, _ = pca_basis(training, 4)
        np.testing.assert_allclose(
            directions.T @ directions, np.eye(4), atol=1e-12
        )

    def test_rank_guard(self, rng):
        direction = rng.normal(size=8)
        training = np.outer(direction, rng.normal(size=30))
        with pytest.raises(DimensionError):
            pca_basis(training, 2)


class TestBasisDictionary:
    def test_dimensions(self, default_dictionary):
        assert default_dictionary.p == 15
        assert default_dictionary.k_b == 3
        assert default_dictionary.k_a == 10

    def test_empty_background_allowed(self):
        d = BasisDictionary(b_b=np.zeros((4, 0)), b_a=np.eye(4))
        assert d.k_b == 0

    def test_row_mismatch_rejected(self):
        with pytest.raises(DimensionError):
            BasisDictionary(b_b=fourier_basis(8, 2), b_a=identity_anomaly_basis(6))

    def test_rank_deficient_background_rejected(self):
        col = fourier_basis(8, 1)
        with pytest.raises(DimensionError):
            BasisDictionary(b_b=np.hstack([col, col]), b_a=identity_anomaly_basis(8))

    def test_zero_anomaly_column_rejected(self):
        b_a = np.eye(5)
        b_a[:, 2] = 0.0
        with pytest.raises(DimensionError):
            BasisDictionary(b_b=np.zeros((5, 0)), b_a=b_a)


    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_anomaly_entry_named(self, bad):
        """A NaN anomaly row would otherwise score NaN and never be observed."""
        b_a = bspline_basis(8, 2, 6)
        b_a[5, 2] = bad
        b_a[6, 0] = bad
        with pytest.raises(DataError, match=r"anomaly basis b_a .* at row 5, column 2"):
            BasisDictionary(b_b=fourier_basis(8, 2), b_a=b_a)

    def test_non_finite_background_entry_is_not_called_rank_deficient(self):
        b_b = fourier_basis(8, 2)
        b_b[3, 1] = np.inf
        with pytest.raises(DataError, match=r"background basis b_b .*inf at row 3, column 1"):
            BasisDictionary(b_b=b_b, b_a=identity_anomaly_basis(8))

    def test_squared_anomaly_basis_is_read_only_and_survives_pickling(self):
        d = BasisDictionary(b_b=fourier_basis(8, 2), b_a=bspline_basis(8, 2, 6))
        for each in (d, pickle.loads(pickle.dumps(d))):
            assert each.b_a_sq.tobytes() == (d.b_a * d.b_a).tobytes()
            assert not each.b_a_sq.flags.writeable
            assert each.content_key == d.content_key


class TestCheckOrthogonality:
    def test_full_subset_matches_full_inner_products(self, default_dictionary):
        report = check_orthogonality(
            default_dictionary, np.arange(15), epsilon=0.5, delta=0.1
        )
        assert report.max_abs_inner_sampled == report.max_abs_inner_full
        assert report.m == 15

    def test_admissible_window_formula_frozen(self):
        # Unit-coherence columns: +-1/sqrt(p) entries, orthogonal pair.
        p = 64
        b1 = np.ones(p) / math.sqrt(p)
        b2 = np.concatenate([np.ones(p // 2), -np.ones(p // 2)]) / math.sqrt(p)
        d = BasisDictionary(b_b=b1[:, None], b_a=b2[:, None])
        eps, delta = 0.5, 0.2
        report = check_orthogonality(d, np.arange(16), epsilon=eps, delta=delta)
        log_term = math.log(4.0 / delta)
        assert report.coherence == pytest.approx(1.0)
        assert report.m_admissible_lo == pytest.approx(log_term / (2 * eps**2))
        assert report.m_admissible_hi == pytest.approx(
            2.0 * (16 / p) ** 2 * p**2 * eps**2 / log_term
        )
        assert report.m_admissible_lo <= report.m <= report.m_admissible_hi

    def test_sampled_band_violations_stay_within_probability(self, rng):
        """Uniform subsets inside the admissible window exceed the band with
        frequency at most 2*delta."""
        p = 64
        b1 = np.ones(p) / math.sqrt(p)
        b2 = np.concatenate([np.ones(p // 2), -np.ones(p // 2)]) / math.sqrt(p)
        d = BasisDictionary(b_b=b1[:, None], b_a=b2[:, None])
        eps, delta, m = 0.5, 0.2, 16
        violations = 0
        n_trials = 500
        for _ in range(n_trials):
            z = rng.choice(p, size=m, replace=False)
            report = check_orthogonality(d, z, epsilon=eps, delta=delta)
            violations += not report.band_ok
        assert violations / n_trials <= 2.0 * delta

    def test_shared_column_flags_band_not_coherence(self):
        """A dictionary sharing a column passes the coherence cap while the
        sampled band flags the non-orthogonality."""
        col = fourier_basis(12, 1)
        d = BasisDictionary(b_b=col, b_a=np.hstack([col, identity_anomaly_basis(12)]))
        report = check_orthogonality(d, np.arange(12), epsilon=0.5, delta=0.1)
        assert report.coherence_bound_ok
        assert report.max_abs_inner_full == pytest.approx(1.0)
        assert not report.band_ok

    def test_subset_order_irrelevant(self, default_dictionary, rng):
        z = np.array([3, 7, 1, 11, 5])
        a = check_orthogonality(default_dictionary, z, 0.3, 0.1)
        b = check_orthogonality(default_dictionary, z[::-1], 0.3, 0.1)
        assert a.max_abs_inner_sampled == b.max_abs_inner_sampled

    def test_duplicate_subset_rejected(self, default_dictionary):
        with pytest.raises(DimensionError):
            check_orthogonality(default_dictionary, [1, 1, 2], 0.3, 0.1)

    def test_out_of_range_subset_rejected(self, default_dictionary):
        with pytest.raises(IndexError):
            check_orthogonality(default_dictionary, [0, 99], 0.3, 0.1)


class TestBasisCsv:
    def test_round_trip_exact(self, tmp_path, rng):
        basis = rng.normal(size=(9, 4)) * 10.0 ** rng.integers(-6, 6, size=(9, 4))
        path = tmp_path / "basis.csv"
        save_basis_csv(path, basis)
        loaded = load_basis_csv(path)
        np.testing.assert_array_equal(loaded, basis)

    def test_header_mismatch_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("2,3\n1.0,2.0,3.0\n")
        with pytest.raises(DimensionError):
            load_basis_csv(path)

    def test_malformed_header_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("width=3\n1.0,2.0,3.0\n")
        with pytest.raises(DimensionError):
            load_basis_csv(path)
