"""Basis construction, dictionaries and CSV round-trips."""

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

    @pytest.mark.parametrize(
        "p, k, message",
        [
            (2.5, 1, "p must be an integer of at least 1, got 2.5"),
            (True, 1, "p must be an integer of at least 1, got True"),
            (0, 1, "p must be an integer of at least 1, got 0"),
            (15, 2.5, "k must be an integer of at least 1, got 2.5"),
            (15, True, "k must be an integer of at least 1, got True"),
            (15, 0, "k must be an integer of at least 1, got 0"),
            (15, 16, r"k must lie in \[1, 15\], got 16"),
        ],
    )
    def test_size_that_is_not_a_count_in_range_named(self, p, k, message):
        """At 2.5 or True the basis was built: 4 columns for k = 2.5, one
        for k = True."""
        with pytest.raises(DimensionError, match=message):
            fourier_basis(p, k)


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

    @pytest.mark.parametrize(
        "p, order, n_knots, message",
        [
            (2.5, 4, 14, "p must be an integer of at least 1, got 2.5"),
            (True, 4, 14, "p must be an integer of at least 1, got True"),
            (0, 4, 14, "p must be an integer of at least 1, got 0"),
            (15, 2.5, 14, "order must be an integer of at least 1, got 2.5"),
            (15, True, 14, "order must be an integer of at least 1, got True"),
            (15, 0, 14, "order must be an integer of at least 1, got 0"),
            (15, 4, 14.5, "n_knots must be an integer of at least 8, got 14.5"),
            (15, 4, True, "n_knots must be an integer of at least 8, got True"),
            (15, 4, 7, "n_knots must be an integer of at least 8, got 7"),
        ],
    )
    def test_size_that_is_not_a_count_in_range_named(self, p, order, n_knots, message):
        """n_knots = 14.5 built 11 columns.  The bound is 2·order: fewer
        knots leave no interior span on [0, 1]."""
        with pytest.raises(DimensionError, match=message):
            bspline_basis(p, order, n_knots)


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

    def test_single_training_sample_refused(self, rng):
        with pytest.raises(DimensionError, match="need at least two training samples"):
            pca_basis(rng.normal(size=(5, 1)), 1)

    def test_rank_guard(self, rng):
        direction = rng.normal(size=8)
        training = np.outer(direction, rng.normal(size=30))
        with pytest.raises(DimensionError):
            pca_basis(training, 2)

    @pytest.mark.parametrize(
        "k, message",
        [
            (2.5, "k must be an integer of at least 1, got 2.5"),
            (True, "k must be an integer of at least 1, got True"),
            (0, "k must be an integer of at least 1, got 0"),
            (6, r"k must lie in \[1, 5\], got 6"),
        ],
    )
    def test_component_count_that_is_not_a_count_in_range_named(self, rng, k, message):
        """k = True kept one direction; the bound is min(p, n_train)."""
        with pytest.raises(DimensionError, match=message):
            pca_basis(rng.normal(size=(5, 20)), k)


class TestIdentityAnomalyBasis:
    def test_is_the_identity(self):
        assert identity_anomaly_basis(4).tobytes() == np.eye(4).tobytes()

    @pytest.mark.parametrize("p", [2.5, True, 0])
    def test_size_that_is_not_a_count_named(self, p):
        with pytest.raises(DimensionError, match=f"p must be an integer of at least 1, got {p}"):
            identity_anomaly_basis(p)


class TestBasisDictionary:
    def test_dimensions(self, default_dictionary):
        assert default_dictionary.p == 15
        assert default_dictionary.k_b == 3
        assert default_dictionary.k_a == 10

    def test_empty_background_allowed(self):
        d = BasisDictionary(b_b=np.zeros((4, 0)), b_a=np.eye(4))
        assert d.k_b == 0

    @pytest.mark.parametrize(
        "b_b, b_a, message",
        [
            (np.zeros((2, 2, 2)), np.eye(2), "basis matrices must be two-dimensional"),
            (np.zeros((4, 0)), np.zeros((4, 0)), "anomaly basis must have at least one column"),
            (np.ones((2, 3)), np.eye(2), "background basis has more columns than rows"),
        ],
        ids=["three-dimensional", "no-anomaly-column", "wide-background"],
    )
    def test_bad_shapes_named(self, b_b, b_a, message):
        with pytest.raises(DimensionError, match=message):
            BasisDictionary(b_b=b_b, b_a=b_a)

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

    def test_dictionary_compares_and_hashes_by_content(self, rng):
        """A fresh copy and an unpickled copy equal the dictionary and hash
        alike; another background or anomaly basis makes it unequal."""
        b_b, b_a = rng.normal(size=(7, 2)), rng.normal(size=(7, 3))
        d = BasisDictionary(b_b=b_b, b_a=b_a)
        for twin in (BasisDictionary(b_b=b_b.copy(), b_a=b_a.copy()), pickle.loads(pickle.dumps(d))):
            assert twin is not d and twin == d and not twin != d
            assert hash(twin) == hash(d)
        assert BasisDictionary(b_b=b_b, b_a=2.0 * b_a) != d
        assert BasisDictionary(b_b=b_b[:, :1], b_a=b_a) != d
        assert d != d.content_key

    def test_squared_anomaly_basis_is_read_only_and_survives_pickling(self):
        d = BasisDictionary(b_b=fourier_basis(8, 2), b_a=bspline_basis(8, 2, 6))
        for each in (d, pickle.loads(pickle.dumps(d))):
            assert each.b_a_sq.tobytes() == (d.b_a * d.b_a).tobytes()
            assert not each.b_a_sq.flags.writeable
            assert each.content_key == d.content_key


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
