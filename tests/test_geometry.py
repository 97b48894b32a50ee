"""Shared per-subset geometry: dense cross-checks and the content-keyed cache."""

from __future__ import annotations

import itertools
import math
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sparsewatch.geometry as geometry
from oracles import posterior_background_mean, whitened_subset_terms
from sparsewatch import (
    BasisDictionary,
    DecayedStats,
    DimensionError,
    ModelConfig,
    OracleScorer,
    SpikeSlabPosterior,
    absorb_sample,
    bspline_basis,
    fourier_basis,
    update_background,
)
from sparsewatch.geometry import clear_geometry_cache, subset_geometry

SIGMA_E, SIGMA_B = 0.3, 0.8


def _cfg(k_a, m):
    return ModelConfig.homogeneous(
        k_a=k_a, sigma_e=SIGMA_E, sigma_b=SIGMA_B, sigma_j=1.5, w=0.2,
        v=1e-4, decay=0.05, m=m,
    )


def _problem(seed, k_b, m, rows, k_a=3):
    """Random dictionary and an unsorted subset z whose background rows are
    ``rows``: "random", "rank1" (exact multiples of one row) or "zero".
    The unobserved rows keep the whole background full column rank."""
    rng = np.random.default_rng(seed)
    p = m + k_b + 2
    z = rng.permutation(p)[:m]
    b_b = rng.normal(size=(p, k_b))
    if rows == "rank1":
        b_b[z] = rng.choice([-2.0, -0.5, 1.0, 2.0], size=(m, 1)) * rng.normal(size=k_b)
    elif rows == "zero":
        b_b[z] = 0.0
    d = BasisDictionary(b_b=b_b, b_a=rng.normal(size=(p, k_a)))
    return d, z, rng.normal(size=m), rng


@pytest.fixture()
def count_builds(monkeypatch):
    """Cleared cache whose geometry builds are counted."""
    clear_geometry_cache()
    calls = []
    build = geometry._build

    def counted(*args):
        calls.append(args[3].copy())
        return build(*args)

    monkeypatch.setattr(geometry, "_build", counted)
    yield calls
    clear_geometry_cache()


def _as_bytes(geo):
    return [
        (np.asarray(f).tobytes(), np.asarray(f).strides) for f in geo
    ]


class TestDenseRoute:
    @given(
        seed=st.integers(0, 2**32 - 1),
        k_b=st.integers(0, 3),
        m=st.integers(2, 6),
        rows=st.sampled_from(["random", "rank1", "zero"]),
    )
    @settings(max_examples=80, deadline=None)
    def test_geometry_matches_explicit_m_by_m_route(self, seed, k_b, m, rows):
        """M, u, q, ln det W and P from the shared geometry equal the dense
        route, also when the observed background rows are rank-deficient
        and the projection comes from the SVD's truncated range."""
        d, z, x, rng = _problem(seed, k_b, m, rows)
        cfg = _cfg(d.k_a, m)
        ref = whitened_subset_terms(d.b_a[z], d.b_b[z], x, SIGMA_E, SIGMA_B)
        geo = subset_geometry(d, cfg.sigma_e2, cfg.sigma_b2, z)
        stats = absorb_sample(DecayedStats.empty(d.k_a), x, z, d, cfg)

        np.testing.assert_allclose(geo.m_c, ref["M"], rtol=1e-9, atol=1e-9)
        np.testing.assert_allclose(stats.raw_M, ref["M"], rtol=1e-9, atol=1e-9)
        np.testing.assert_allclose(stats.raw_u, ref["u"], rtol=1e-9, atol=1e-9)
        assert stats.raw_q == pytest.approx(ref["q"], rel=1e-9, abs=1e-9)
        assert geo.logdet_w == pytest.approx(ref["logdet_w"], rel=1e-9, abs=1e-9)
        norm = -0.5 * (m * math.log(2.0 * math.pi * SIGMA_E**2) - ref["logdet_w"])
        assert stats.raw_norm == pytest.approx(norm, rel=1e-9)
        np.testing.assert_allclose(geo.basis @ geo.basis.T, ref["P"], atol=1e-10)

    @pytest.mark.parametrize("rows", ["random", "rank1", "zero"])
    @pytest.mark.parametrize("k_b", [3, 4])
    @pytest.mark.parametrize("m", [1, 2])
    def test_fewer_rows_than_background_columns(self, m, k_b, rows):
        """With m < k_b the SVD has only m singular values; g, cov_b, ln det W
        and M still equal the dense k_b×k_b and m×m routes."""
        for seed in range(5):
            d, z, x, _ = _problem(seed, k_b, m, rows)
            geo = subset_geometry(d, SIGMA_E**2, SIGMA_B**2, z)
            b_rows = d.b_b[z]
            h_inv = np.linalg.inv(b_rows.T @ b_rows / SIGMA_E**2 + np.eye(k_b) / SIGMA_B**2)
            ref = whitened_subset_terms(d.b_a[z], b_rows, x, SIGMA_E, SIGMA_B)
            assert geo.g.shape == (k_b, m) and geo.basis.shape == (m, k_b)
            np.testing.assert_allclose(geo.g, h_inv @ b_rows.T / SIGMA_E**2, rtol=1e-9, atol=1e-12)
            np.testing.assert_allclose(geo.cov_b, h_inv, rtol=1e-9, atol=1e-12)
            assert geo.logdet_w == pytest.approx(ref["logdet_w"], rel=1e-9, abs=1e-12)
            np.testing.assert_allclose(geo.m_c, ref["M"], rtol=1e-9, atol=1e-9)
            np.testing.assert_allclose(geo.basis @ geo.basis.T, ref["P"], atol=1e-10)

    @given(
        seed=st.integers(0, 2**32 - 1),
        k_b=st.integers(1, 3),
        rows=st.sampled_from(["random", "rank1", "zero"]),
    )
    @settings(max_examples=40, deadline=None)
    def test_background_refit_matches_ridge_solve(self, seed, k_b, rows):
        d, z, x, rng = _problem(seed, k_b, 5, rows)
        cfg = _cfg(d.k_a, 5)
        post = SpikeSlabPosterior(
            mu_a=rng.normal(size=d.k_a), s2=np.full(d.k_a, 0.2), alpha=rng.uniform(size=d.k_a)
        )
        bg = update_background(x, z, post, d, cfg)
        b_rows = d.b_b[z]
        np.testing.assert_allclose(
            bg.theta_n,
            posterior_background_mean(x - d.b_a[z] @ post.mu_tilde, b_rows, SIGMA_E, SIGMA_B),
            rtol=1e-9, atol=1e-9,
        )
        precision = b_rows.T @ b_rows / SIGMA_E**2 + np.eye(k_b) / SIGMA_B**2
        np.testing.assert_allclose(bg.cov_b, np.linalg.inv(precision), rtol=1e-9, atol=1e-12)


class TestCache:
    @given(
        seed=st.integers(0, 2**32 - 1),
        k_b=st.integers(0, 3),
        m=st.integers(1, 6),
        rows=st.sampled_from(["random", "rank1", "zero"]),
    )
    @settings(max_examples=60, deadline=None)
    def test_hit_equals_miss_byte_for_byte(self, seed, k_b, m, rows):
        """A geometry found in the cache, one built into it, and one built
        with caching off carry the same bytes in the same layout."""
        d, z, x, _ = _problem(seed, k_b, m, rows)
        clear_geometry_cache()
        miss = subset_geometry(d, SIGMA_E**2, SIGMA_B**2, z)
        subset_geometry(d, SIGMA_E**2, SIGMA_B**2, (z + 1) % d.p)
        hit = subset_geometry(d, SIGMA_E**2, SIGMA_B**2, z)
        budget = geometry._CACHE.budget
        geometry._CACHE.clear()
        geometry._CACHE.budget = 0
        try:
            uncached = subset_geometry(d, SIGMA_E**2, SIGMA_B**2, z)
        finally:
            geometry._CACHE.budget = budget
            clear_geometry_cache()
        assert hit is miss
        assert _as_bytes(hit) == _as_bytes(miss) == _as_bytes(uncached)

    def test_repeat_is_not_rebuilt_and_arrays_are_read_only(self, count_builds):
        d, z, x, _ = _problem(3, 3, 5, "random")
        cfg = _cfg(d.k_a, 5)
        first = absorb_sample(DecayedStats.empty(d.k_a), x, z, d, cfg)
        absorb_sample(DecayedStats.empty(d.k_a), x, np.sort(z), d, cfg)
        again = absorb_sample(DecayedStats.empty(d.k_a), x, z, d, cfg)
        assert len(count_builds) == 2
        assert first.raw_u.tobytes() == again.raw_u.tobytes()
        assert first.raw_norm == again.raw_norm
        geo = subset_geometry(d, cfg.sigma_e2, cfg.sigma_b2, z)
        for arr in (geo.b_a_z, geo.b_b_z, geo.g, geo.m_c, geo.cov_b, geo.basis, geo.col_sq):
            assert not arr.flags.writeable
        assert not d.b_a.flags.writeable and not d.b_b.flags.writeable

    def test_keyed_on_content_not_identity(self, count_builds):
        d, z, _, _ = _problem(5, 2, 4, "random")
        twin = BasisDictionary(b_b=d.b_b.copy(), b_a=d.b_a.copy())
        nudged_b_a = d.b_a.copy()
        nudged_b_a[z[0], 0] = np.nextafter(nudged_b_a[z[0], 0], np.inf)
        other = BasisDictionary(b_b=d.b_b, b_a=nudged_b_a)
        assert twin.content_key == d.content_key != other.content_key

        base = subset_geometry(d, SIGMA_E**2, SIGMA_B**2, z)
        subset_geometry(d, SIGMA_E**2, SIGMA_B**2, z[::-1].copy())
        assert subset_geometry(twin, SIGMA_E**2, SIGMA_B**2, z).m_c.tobytes() == base.m_c.tobytes()
        assert len(count_builds) == 2
        changed = subset_geometry(other, SIGMA_E**2, SIGMA_B**2, z)
        assert len(count_builds) == 3
        assert changed.b_a_z.tobytes() != base.b_a_z.tobytes()
        subset_geometry(d, SIGMA_E**2, 2.0 * SIGMA_B**2, z)
        assert len(count_builds) == 4

    def test_large_subset_space_is_not_tabled(self, count_builds):
        """C(60, 30) subsets exceed the budget: only the last geometry is
        kept, so one step's layers share it but nothing accumulates."""
        rng = np.random.default_rng(0)
        d = BasisDictionary(b_b=rng.normal(size=(60, 2)), b_a=rng.normal(size=(60, 3)))
        z_a, z_b = np.arange(30), np.arange(30, 60)
        for z in (z_a, z_a, z_b, z_a):
            subset_geometry(d, SIGMA_E**2, SIGMA_B**2, z)
        assert len(count_builds) == 3
        assert geometry._CACHE.table is None

    def test_permuted_subsets_stop_at_the_subset_count(self, count_builds):
        """Every order of one subset is an entry of its own, but the table
        stops at C(p, m) entries; past it each geometry is built afresh and
        still equals its uncached build."""
        rng = np.random.default_rng(6)
        d = BasisDictionary(b_b=rng.normal(size=(5, 2)), b_a=rng.normal(size=(5, 3)))
        orders = [np.array(z) for z in itertools.permutations([4, 0, 2, 1])]
        capacity = math.comb(d.p, 4)
        assert len(orders) > capacity
        budget = geometry._CACHE.budget
        geometry._CACHE.budget = 0
        try:
            expected = [_as_bytes(subset_geometry(d, SIGMA_E**2, SIGMA_B**2, z)) for z in orders]
        finally:
            geometry._CACHE.budget = budget
        clear_geometry_cache()
        del count_builds[:]
        for _ in range(2):
            for z, want in zip(orders, expected):
                assert _as_bytes(subset_geometry(d, SIGMA_E**2, SIGMA_B**2, z)) == want
                assert len(geometry._CACHE.table) <= capacity
        assert len(geometry._CACHE.table) == capacity
        assert len(count_builds) == 2 * len(orders) - capacity

    def test_invalid_subsets_rejected_when_built(self):
        d, _, _, _ = _problem(1, 2, 3, "random")
        with pytest.raises(IndexError):
            subset_geometry(d, SIGMA_E**2, SIGMA_B**2, [0, 1, d.p])
        with pytest.raises(DimensionError):
            subset_geometry(d, SIGMA_E**2, SIGMA_B**2, [0, 1, 1])

    def test_threads_filling_one_table_read_their_own_rows(self):
        """Eight threads building and reading one table at once, with the
        interpreter switching threads as often as it can: every geometry
        must equal the one an uncached build gives."""
        rng = np.random.default_rng(4)
        d = BasisDictionary(b_b=rng.normal(size=(10, 3)), b_a=rng.normal(size=(10, 4)))
        subsets = [np.sort(rng.choice(10, size=4, replace=False)) for _ in range(60)]
        expected = {}
        budget = geometry._CACHE.budget
        geometry._CACHE.clear()
        geometry._CACHE.budget = 0
        try:
            for z in subsets:
                expected[z.tobytes()] = _as_bytes(subset_geometry(d, SIGMA_E**2, SIGMA_B**2, z))
        finally:
            geometry._CACHE.budget = budget
        clear_geometry_cache()
        mismatches = []

        def work(seed):
            order = np.random.default_rng(seed).permutation(len(subsets))
            for _ in range(5):
                for i in order:
                    z = subsets[i]
                    geo = subset_geometry(d, SIGMA_E**2, SIGMA_B**2, z)
                    if _as_bytes(geo) != expected[z.tobytes()]:
                        mismatches.append(z)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(i,)) for i in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
            clear_geometry_cache()
        assert not any(t.is_alive() for t in threads)
        assert mismatches == []


class TestOracleBasis:
    @pytest.mark.parametrize("case", ["study-p15", "rank-deficient", "k_b-above-m"])
    def test_scorer_basis_is_the_geometry_basis(self, case, degenerate_dictionary):
        """Each subset's block of the oracle's basis table holds the bytes of
        its geometry's basis at the subset's rows, and zeros elsewhere."""
        if case == "study-p15":
            d, m = BasisDictionary(
                b_b=fourier_basis(15, 3),
                b_a=bspline_basis(15, 4, 14, normalize_columns=True),
            ), 5
        else:
            d, m = degenerate_dictionary(6), 3 if case == "rank-deficient" else 2
        scorer = OracleScorer(d, m)
        table = scorer.bases.reshape(d.p, d.k_b, len(scorer.subsets))
        try:
            for i, z in enumerate(scorer.subsets):
                geo = subset_geometry(d, SIGMA_E**2, SIGMA_B**2, z)
                assert table[z, :, i].tobytes() == geo.basis.tobytes()
                assert not np.delete(table[:, :, i], z, axis=0).any()
        finally:
            clear_geometry_cache()
