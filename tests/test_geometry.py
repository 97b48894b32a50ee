"""Shared per-subset geometry: dense cross-checks and the content-keyed cache."""

from __future__ import annotations

import hashlib
import itertools
import math
import sys
import threading
import tracemalloc
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sparsewatch.geometry as geometry
from oracles import posterior_background_mean, whitened_subset_terms
from sparsewatch import (
    BasisDictionary,
    DecayedStats,
    DetectionInputs,
    DimensionError,
    ModelConfig,
    OracleScorer,
    SpikeSlabPosterior,
    absorb_sample,
    bspline_basis,
    fourier_basis,
    update_background,
)
from sparsewatch.geometry import build_geometry_table, clear_geometry_cache, subset_geometry

SIGMA_E, SIGMA_B = 0.3, 0.8

# SHA-256 of 500 single geometry builds at p = 400, m = 20
# (``TestCache.test_p400_single_builds_keep_their_bytes``), over the fields
# m_c, logdet_w, basis, c and col_sq, whose bytes are those the per-subset
# build gave before tables were built in stacked passes.  Taken
# with numpy 2.4.6 and scipy-openblas 0.3.31 on a Haswell-class x86-64 core;
# an OpenBLAS that picks other kernels may round differently.
P400_DIGEST = "2cdc98a6e6c7d6d260301fa4114862e9132c74c204394ae1ec9e3b1561799979"


def _cfg(k_a, m, sigma_e=SIGMA_E, sigma_b=SIGMA_B):
    return ModelConfig.homogeneous(
        k_a=k_a, sigma_e=sigma_e, sigma_b=sigma_b, sigma_j=1.5, w=0.2,
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
    """Cleared cache whose geometry builds are counted, one entry per
    subset built: a table build adds each row of its stacks, a single
    build its one subset."""
    clear_geometry_cache()
    calls = []
    build = geometry._build

    def counted(*args):
        calls.extend(np.array(args[2], ndmin=2))
        return build(*args)

    monkeypatch.setattr(geometry, "_build", counted)
    yield calls
    clear_geometry_cache()


def _split(calls):
    """Counts of the ascending subsets built, and the number of other builds."""
    ascending = [z.tobytes() for z in calls if (z[1:] > z[:-1]).all()]
    return Counter(ascending), len(calls) - len(ascending)


def _as_bytes(geo):
    """Each array field's bytes, shape, strides, dtype and read-only flag;
    ``logdet_w`` as the Python float it must be."""
    return [
        (f.tobytes(), f.shape, f.strides, f.dtype, f.flags.writeable)
        if isinstance(f, np.ndarray) else (type(f), f.hex())
        for f in geo
    ]


def _uncached(d, cfg, z):
    """The geometry of ``z`` built alone, with the table budget at zero."""
    budget = geometry._CACHE.budget
    geometry._CACHE.clear()
    geometry._CACHE.budget = 0
    try:
        return subset_geometry(d, cfg, z)
    finally:
        geometry._CACHE.budget = budget
        clear_geometry_cache()


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
        geo = subset_geometry(d, cfg, z)
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
        """With m < k_b the SVD has only m singular values; the whitened
        moments, ln det W and M still equal the dense m×m route, c is zero
        past m as the basis is, and ``update_background``'s theta and cov_b
        equal the dense k_b×k_b ridge solve."""
        for seed in range(5):
            d, z, x, _ = _problem(seed, k_b, m, rows)
            cfg = _cfg(d.k_a, m)
            geo = subset_geometry(d, cfg, z)
            bg = update_background(x, z, SpikeSlabPosterior.prior(cfg), d, cfg)
            stats = absorb_sample(DecayedStats.empty(d.k_a), x, z, d, cfg)
            b_rows = d.b_b[z]
            h_inv = np.linalg.inv(b_rows.T @ b_rows / SIGMA_E**2 + np.eye(k_b) / SIGMA_B**2)
            ref = whitened_subset_terms(d.b_a[z], b_rows, x, SIGMA_E, SIGMA_B)
            assert geo.basis.shape == (m, k_b) and geo.c.shape == (k_b,)
            assert not geo.basis[:, m:].any() and not geo.c[m:].any()
            np.testing.assert_allclose(bg.theta_n, h_inv @ b_rows.T @ x / SIGMA_E**2, rtol=1e-9, atol=1e-12)
            np.testing.assert_allclose(bg.cov_b, h_inv, rtol=1e-9, atol=1e-12)
            np.testing.assert_allclose(stats.raw_u, ref["u"], rtol=1e-9, atol=1e-9)
            assert stats.raw_q == pytest.approx(ref["q"], rel=1e-9, abs=1e-12)
            assert geo.logdet_w == pytest.approx(ref["logdet_w"], rel=1e-9, abs=1e-12)
            np.testing.assert_allclose(geo.m_c, ref["M"], rtol=1e-9, atol=1e-9)
            np.testing.assert_allclose(geo.basis @ geo.basis.T, ref["P"], atol=1e-10)

    @pytest.mark.parametrize("rows", ["random", "rank1", "zero"])
    @pytest.mark.parametrize("m, k_b, k_a", [(1, 3, 4), (2, 4, 5), (4, 0, 6), (5, 3, 7), (20, 4, 36)])
    def test_whitened_moment_is_exactly_symmetric(self, m, k_b, k_a, rows):
        """m_c is built unsymmetrised: both of its products have the form x'x,
        which numpy computes as symmetric rank-k updates."""
        for seed in range(5):
            d, z, _, _ = _problem(seed, k_b, m, rows, k_a=k_a)
            m_c = subset_geometry(d, _cfg(k_a, m), z).m_c
            assert m_c.tobytes() == np.ascontiguousarray(m_c.T).tobytes()

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
        """A geometry met again after its table is built, the one the first
        lookup gave, and one built with caching off carry the same bytes in
        the same layout, for a table row (the ascending subset) and a single
        build (its other order) alike."""
        d, z, x, _ = _problem(seed, k_b, m, rows)
        cfg = _cfg(d.k_a, m)
        for subset in (np.sort(z), z):
            clear_geometry_cache()
            miss = subset_geometry(d, cfg, subset)
            build_geometry_table(d, cfg)
            subset_geometry(d, cfg, (subset + 1) % d.p)
            hit = subset_geometry(d, cfg, subset)
            uncached = _uncached(d, cfg, subset)
            assert _as_bytes(hit) == _as_bytes(miss) == _as_bytes(uncached)

    @pytest.mark.parametrize("rows", ["random", "rank1", "zero"])
    @pytest.mark.parametrize("k_b", [0, 1, 3])
    @pytest.mark.parametrize("m", [1, 2, 3, 4, 5, 6])
    def test_every_table_row_equals_its_single_build(self, m, k_b, rows):
        """Each row of a whole table, over chunks with and without rank-deficient
        rows, equals the single build of its subset in bytes, shape, strides,
        dtype and read-only flag, with ``logdet_w`` a Python float."""
        d, _, _, _ = _problem(7, k_b, m, rows)
        cfg = _cfg(d.k_a, m)
        table = geometry._table(("key",), d, cfg, m, geometry.CACHE_BUDGET_BYTES)
        subsets = [np.array(z, dtype=np.intp) for z in itertools.combinations(range(d.p), m)]
        assert len(table.rank) == len(subsets) == math.comb(d.p, m)
        for i, z in enumerate(subsets):
            assert table.rank[z.tobytes()] == i
            row = table.row(i)
            assert type(row.logdet_w) is float
            assert _as_bytes(row) == _as_bytes(geometry._build(d, cfg, z))

    def test_p400_single_builds_keep_their_bytes(self, kron_dictionary):
        """500 single builds at p = 400, m = 20, every second one ascending,
        hash to what the per-subset build gave before the table build shared
        its code."""
        rng = np.random.default_rng(400)
        digest = hashlib.sha256()
        cfg = _cfg(kron_dictionary.k_a, 20, sigma_e=0.05, sigma_b=0.3)
        clear_geometry_cache()
        try:
            for i in range(500):
                z = rng.choice(400, size=20, replace=False)
                geo = subset_geometry(kron_dictionary, cfg, np.sort(z) if i % 2 else z)
                digest.update(repr(_as_bytes(geo)).encode())
            assert geometry._CACHE.table is None
        finally:
            clear_geometry_cache()
        assert digest.hexdigest() == P400_DIGEST

    def test_p400_stacked_build_equals_single_builds(self, kron_dictionary):
        """At p = 400, m = 20, where the budget refuses the table, the
        geometries of a stack of ascending subsets are one stacked build,
        and each row equals that subset's single build byte for byte."""
        d = kron_dictionary
        rng = np.random.default_rng(401)
        z = np.sort([rng.choice(400, size=20, replace=False) for _ in range(8)], axis=1)
        cfg = _cfg(d.k_a, 20, sigma_e=0.05, sigma_b=0.3)
        clear_geometry_cache()
        try:
            assert build_geometry_table(d, cfg).fields is None
            stacked = geometry._stacked_geometry(d, cfg, z)
        finally:
            clear_geometry_cache()
        assert d.k_b == 4 and stacked.m_c.shape == (8, 36, 36)
        for i, row in enumerate(z):
            got = geometry.SubsetGeometry(
                stacked.m_c[i], stacked.logdet_w.item(i), stacked.basis[i], stacked.c[i],
                stacked.col_sq[i],
            )
            assert _as_bytes(got) == _as_bytes(geometry._build(d, cfg, row))

    @pytest.mark.parametrize("case", ["p400-untabled", "p15-tabled"])
    @pytest.mark.parametrize("bad, error", [(-1, IndexError), ("p", IndexError), ("repeat", DimensionError)])
    def test_stacked_build_refuses_what_a_single_build_refuses(
        self, kron_dictionary, case, bad, error
    ):
        """A stack holding an index out of range or a repeated one raises the
        error, with the message, that a lookup of that row alone raises, at
        p = 400 with no table and at p = 15 with the table held."""
        if case == "p400-untabled":
            d, m = kron_dictionary, 20
        else:
            d, m = BasisDictionary(b_b=fourier_basis(15, 3), b_a=bspline_basis(15, 4, 14)), 5
        cfg = _cfg(d.k_a, m, sigma_e=0.05, sigma_b=0.3)
        rng = np.random.default_rng(402)
        z = np.sort([rng.choice(d.p, size=m, replace=False) for _ in range(4)], axis=1)
        if bad == "repeat":
            z[2, 3] = z[2, 2]
        elif bad == -1:
            z[2, 0] = -1
        else:
            z[2, -1] = d.p
        clear_geometry_cache()
        try:
            build_geometry_table(d, cfg)
            with pytest.raises(error) as single:
                subset_geometry(d, cfg, z[2])
            with pytest.raises(error) as stacked:
                geometry._stacked_geometry(d, cfg, z)
            assert (geometry._CACHE.table.fields is None) == (case == "p400-untabled")
        finally:
            clear_geometry_cache()
        assert str(stacked.value) == str(single.value)

    def test_repeat_is_not_rebuilt_and_arrays_are_read_only(self, count_builds):
        """The table builds every ascending subset once, and lookups read its
        rows; a subset in another order is built alone each time it is not
        the latest geometry."""
        d, z, x, _ = _problem(3, 3, 5, "random")
        cfg = _cfg(d.k_a, 5)
        build_geometry_table(d, cfg)
        first = absorb_sample(DecayedStats.empty(d.k_a), x, z, d, cfg)
        absorb_sample(DecayedStats.empty(d.k_a), x, np.sort(z), d, cfg)
        again = absorb_sample(DecayedStats.empty(d.k_a), x, z, d, cfg)
        absorb_sample(DecayedStats.empty(d.k_a), x, np.sort(z), d, cfg)
        ascending, others = _split(count_builds)
        assert len(ascending) == math.comb(d.p, 5) and set(ascending.values()) == {1}
        assert others == 2
        assert first.raw_u.tobytes() == again.raw_u.tobytes()
        assert first.raw_norm == again.raw_norm
        table = geometry._CACHE.table
        assert len(table.rank) == math.comb(d.p, 5)
        row = subset_geometry(d, cfg, np.sort(z))
        assert row.m_c.base is table.fields.m_c
        for geo in (row, subset_geometry(d, cfg, z)):
            arrays = [f for f in geo if isinstance(f, np.ndarray)]
            assert len(arrays) == len(geo) - 1
            for arr in arrays:
                assert not arr.flags.writeable
        for arr in table.fields:
            assert not arr.flags.writeable
        assert not d.b_a.flags.writeable and not d.b_b.flags.writeable

    def test_combination_looked_up_once_builds_only_its_subset(self, count_builds):
        """A combination's lookup builds its one subset and no table, also
        while another combination's table is held; a repeat reads the
        latest geometry, and the next distinct subset builds only itself."""
        d, z, _, _ = _problem(8, 2, 5, "random")
        cfg = _cfg(d.k_a, 5)
        z = np.sort(z)
        space = math.comb(d.p, 5)
        first = subset_geometry(d, cfg, z)
        assert [b.tobytes() for b in count_builds] == [z.tobytes()]
        assert geometry._CACHE.table is None
        assert subset_geometry(d, cfg, z) is first
        assert len(count_builds) == 1
        subset_geometry(d, cfg, np.arange(5))
        assert len(count_builds) == 2 and geometry._CACHE.table is None
        build_geometry_table(d, cfg)
        assert len(count_builds) == 2 + space
        fresh = BasisDictionary(b_b=d.b_b, b_a=2.0 * d.b_a)
        subset_geometry(fresh, cfg, z)
        subset_geometry(fresh, cfg, np.arange(5))
        assert len(count_builds) == 4 + space
        assert geometry._CACHE.table.key[0] == d.content_key

    def test_distinct_lookups_build_no_table(self, count_builds):
        """Every subset of a combination looked up, twice over in turn,
        builds each lookup's subset alone and holds no table."""
        d, _, _, _ = _problem(9, 2, 3, "random")
        cfg = _cfg(d.k_a, 3)
        subsets = [np.array(z) for z in itertools.combinations(range(d.p), 3)]
        for _ in range(2):
            for z in subsets:
                subset_geometry(d, cfg, z)
        assert geometry._CACHE.table is None
        assert len(count_builds) == 2 * len(subsets)

    def test_keyed_on_content_not_identity(self, count_builds):
        """A dictionary equal in content reads the table another built; one
        nudged in a single bit, or other variances, builds its own."""
        d, z, _, _ = _problem(5, 2, 4, "random")
        cfg, wide = _cfg(d.k_a, 4), _cfg(d.k_a, 4, sigma_b=2.0 * SIGMA_B)
        z = np.sort(z)
        z2 = np.array([i for i in range(d.p) if i not in z][:4])
        space = math.comb(d.p, 4)
        twin = BasisDictionary(b_b=d.b_b.copy(), b_a=d.b_a.copy())
        nudged_b_a = d.b_a.copy()
        nudged_b_a[z[0], 0] = np.nextafter(nudged_b_a[z[0], 0], np.inf)
        other = BasisDictionary(b_b=d.b_b, b_a=nudged_b_a)
        assert twin.content_key == d.content_key != other.content_key

        build_geometry_table(d, cfg)
        base = subset_geometry(d, cfg, z)
        subset_geometry(d, cfg, z2)
        assert len(count_builds) == space
        build_geometry_table(twin, cfg)
        assert subset_geometry(twin, cfg, z).m_c.tobytes() == base.m_c.tobytes()
        assert len(count_builds) == space
        build_geometry_table(other, cfg)
        changed = subset_geometry(other, cfg, z)
        subset_geometry(other, cfg, z2)
        assert len(count_builds) == 2 * space
        assert changed.m_c.tobytes() != base.m_c.tobytes()
        build_geometry_table(d, wide)
        subset_geometry(d, wide, z)
        subset_geometry(d, wide, z2)
        assert len(count_builds) == 3 * space

    def test_equal_configs_share_one_key(self, count_builds):
        """Two equal configs built apart, one from numpy float64 and int64
        scalars, read one table and one latest geometry: each returns the
        other's bytes, for a table row and a subset in another order."""
        d, z, _, _ = _problem(12, 2, 4, "random")
        cfg = _cfg(d.k_a, 4)
        twin = _cfg(d.k_a, np.int64(4), sigma_e=np.float64(SIGMA_E), sigma_b=np.float64(SIGMA_B))
        assert twin == cfg and twin is not cfg
        table = build_geometry_table(d, cfg)
        assert build_geometry_table(d, twin) is table
        for subset in (np.sort(z), z):
            first = subset_geometry(d, cfg, subset)
            assert _as_bytes(subset_geometry(d, twin, subset)) == _as_bytes(first)
        assert subset_geometry(d, twin, np.sort(z)).m_c.base is table.fields.m_c
        ascending, others = _split(count_builds)
        assert len(ascending) == math.comb(d.p, 4) and others == 1

    def test_configs_apart_in_one_key_field_key_apart(self, count_builds):
        """Configs equal but for sigma_b, or but for m, key different tables;
        the one apart in sigma_b builds a different geometry of one subset,
        and the one apart in m reads its own table's rows."""
        d, z, _, _ = _problem(13, 2, 4, "random")
        z = np.sort(z)
        cfg, wide, three = _cfg(d.k_a, 4), _cfg(d.k_a, 4, sigma_b=2.0 * SIGMA_B), _cfg(d.k_a, 3)
        tables = [build_geometry_table(d, c) for c in (cfg, wide, three)]
        assert len({t.key for t in tables}) == 3
        assert len(count_builds) == 2 * math.comb(d.p, 4) + math.comb(d.p, 3)
        base = subset_geometry(d, cfg, z)
        assert subset_geometry(d, wide, z).m_c.tobytes() != base.m_c.tobytes()
        assert subset_geometry(d, three, z[:3]).m_c.base is tables[2].fields.m_c
        assert len(count_builds) == 2 * math.comb(d.p, 4) + math.comb(d.p, 3) + 2

    def test_lookup_keys_on_the_subset_size_not_the_budget(self, count_builds):
        """A subset whose size differs from cfg.m is built at its own size:
        with the config's m = 4 table held, a 3-subset is built alone and
        equals its build under an m = 3 config byte for byte."""
        d, z, _, _ = _problem(14, 2, 4, "random")
        cfg = _cfg(d.k_a, 4)
        build_geometry_table(d, cfg)
        del count_builds[:]
        small = np.sort(z)[:3]
        got = subset_geometry(d, cfg, small)
        assert [b.tobytes() for b in count_builds] == [small.tobytes()]
        assert _as_bytes(got) == _as_bytes(_uncached(d, _cfg(d.k_a, 3), small))

    def test_large_subset_space_is_not_tabled(self, count_builds):
        """C(60, 30) subsets exceed the budget, so the table asked for is
        refused: only the last geometry is kept, so one step's layers share
        it but nothing accumulates."""
        rng = np.random.default_rng(0)
        d = BasisDictionary(b_b=rng.normal(size=(60, 2)), b_a=rng.normal(size=(60, 3)))
        cfg = _cfg(d.k_a, 30)
        z_a, z_b = np.arange(30), np.arange(30, 60)
        build_geometry_table(d, cfg)
        for z in (z_a, z_a, z_b, z_a):
            subset_geometry(d, cfg, z)
        assert len(count_builds) == 3
        assert geometry._CACHE.table.fields is None and not geometry._CACHE.table.rank

    def test_built_table_is_the_one_a_lookup_reads(self, count_builds):
        """``build_geometry_table`` builds the combination's whole table at
        once; asked again, it builds nothing, and a lookup then reads its
        rows without building.  Built again after the cache is cleared, the
        table carries the same bytes."""
        d, z, _, _ = _problem(11, 3, 5, "random")
        cfg = _cfg(d.k_a, 5)
        space = math.comb(d.p, 5)
        build_geometry_table(d, cfg)
        built = geometry._CACHE.table
        assert built.key == (d.content_key, SIGMA_E**2, SIGMA_B**2, 5)
        assert len(count_builds) == space
        build_geometry_table(d, cfg)
        assert geometry._CACHE.table is built and len(count_builds) == space
        row = subset_geometry(d, cfg, np.sort(z))
        assert row.m_c.base is built.fields.m_c and len(count_builds) == space
        clear_geometry_cache()
        rebuilt = build_geometry_table(d, cfg)
        assert rebuilt is geometry._CACHE.table and rebuilt is not built
        assert rebuilt.rank == built.rank
        for a, b in zip(rebuilt.fields, built.fields):
            assert a.tobytes() == b.tobytes() and not b.flags.writeable

    def test_refused_table_builds_nothing(self, count_builds):
        """A combination over the budget builds no geometry when asked for
        its table; its subsets are then built alone, as before."""
        rng = np.random.default_rng(0)
        d = BasisDictionary(b_b=rng.normal(size=(60, 2)), b_a=rng.normal(size=(60, 3)))
        cfg = _cfg(d.k_a, 30)
        build_geometry_table(d, cfg)
        assert not count_builds
        assert geometry._CACHE.table.fields is None and not geometry._CACHE.table.rank
        subset_geometry(d, cfg, np.arange(30))
        assert len(count_builds) == 1

    @pytest.mark.parametrize(
        "m, message",
        [
            (2.5, "sensing budget m must be an integer of at least 1, got 2.5"),
            (True, "sensing budget m must be an integer of at least 1, got True"),
            (0, "sensing budget m must be an integer of at least 1, got 0"),
            (8, r"sensing budget m must lie in \[1, 7\], got 8"),
        ],
    )
    def test_budget_that_is_not_a_count_in_range_builds_nothing(self, count_builds, m, message):
        """The config refuses m = 2.5, True and 0 (m = 2.5 once built the m = 2
        table, m = 0 a table of the empty subset); the table, an m above p."""
        d, _, _, _ = _problem(0, 2, 3, "random")
        with pytest.raises(DimensionError, match=message):
            build_geometry_table(d, _cfg(d.k_a, m))
        assert not count_builds and geometry._CACHE.table is None

    def test_entry_estimate_matches_traced_memory(self):
        """The table's size estimated from shapes is within 10% of what
        tracemalloc sees the whole p = 15, m = 5 table retain when
        ``build_geometry_table`` builds it, and the chunked build's traced
        peak stays within 1.25 times that."""
        d = BasisDictionary(
            b_b=fourier_basis(15, 3), b_a=bspline_basis(15, 4, 14, normalize_columns=True)
        )
        cfg = _cfg(d.k_a, 5)
        clear_geometry_cache()
        subset_geometry(d, cfg, np.arange(5))
        assert geometry._CACHE.table is None
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            build_geometry_table(d, cfg)
            current, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        retained = current - before
        assert len(geometry._CACHE.table.rank) == math.comb(15, 5)
        clear_geometry_cache()
        estimate = math.comb(15, 5) * geometry._entry_bytes(5, d.k_a, d.k_b)
        assert estimate == pytest.approx(retained, rel=0.1)
        assert peak - before <= 1.25 * retained

    def test_permuted_subsets_stop_at_the_subset_count(self, count_builds):
        """The table, built by ``build_geometry_table``, holds the C(p, m)
        ascending subsets, each built once; every other order of a subset
        is built alone each time it is met, and still equals its uncached
        build."""
        rng = np.random.default_rng(6)
        d = BasisDictionary(b_b=rng.normal(size=(5, 2)), b_a=rng.normal(size=(5, 3)))
        cfg = _cfg(d.k_a, 4)
        orders = [np.array(z) for z in itertools.permutations([4, 0, 2, 1])]
        orders += [np.array(z) for z in itertools.combinations(range(d.p), 4)]
        capacity = math.comb(d.p, 4)
        expected = [_as_bytes(_uncached(d, cfg, z)) for z in orders]
        del count_builds[:]
        build_geometry_table(d, cfg)
        for _ in range(2):
            for z, want in zip(orders, expected):
                assert _as_bytes(subset_geometry(d, cfg, z)) == want
                assert len(geometry._CACHE.table.rank) == capacity
        assert len(geometry._CACHE.table.rank) == capacity
        ascending, others = _split(count_builds)
        assert len(ascending) == capacity and set(ascending.values()) == {1}
        assert others == 2 * (len(orders) - capacity - 1)

    def test_invalid_subsets_rejected_when_built(self):
        """The same errors with the cache cleared, with the combination's
        table already built, and with no table at all."""
        d, _, _, _ = _problem(1, 2, 3, "random")
        cfg = _cfg(d.k_a, 3)
        budget = geometry._CACHE.budget
        try:
            for warm, table_budget in ((False, budget), (True, budget), (True, 0)):
                clear_geometry_cache()
                geometry._CACHE.budget = table_budget
                if warm:
                    build_geometry_table(d, cfg)
                    assert (geometry._CACHE.table.fields is None) == (geometry._CACHE.budget == 0)
                with pytest.raises(IndexError):
                    subset_geometry(d, cfg, [0, 1, d.p])
                with pytest.raises(DimensionError):
                    subset_geometry(d, cfg, [0, 1, 1])
        finally:
            geometry._CACHE.budget = budget
            clear_geometry_cache()

    @pytest.mark.parametrize(
        "z, error",
        [
            ([-1, 0, 1], IndexError),
            ([1, 0, -1], IndexError),
            ([0, 1, "p"], IndexError),
            (["p", 1, 0], IndexError),
            ([0, 2, 2], DimensionError),
            ([2, 0, 2], DimensionError),
            ([3, 3, 1], DimensionError),
        ],
        ids=["neg-ascending", "neg-descending", "high-ascending", "high-first",
             "repeat-sorted", "repeat-apart", "repeat-descending"],
    )
    def test_invalid_subsets_in_any_order_rejected(self, z, error):
        """Ascending subsets take a shorter check; every order gives the same errors."""
        d, _, _, _ = _problem(2, 2, 3, "random")
        cfg = _cfg(d.k_a, 3)
        with pytest.raises(error):
            subset_geometry(d, cfg, [d.p if i == "p" else i for i in z])

    def test_threads_filling_one_table_read_their_own_rows(self):
        """Eight threads building and reading one table at once, with the
        interpreter switching threads as often as it can: each thread asks
        for the table after its first pass, so some read single builds
        while others build it, and every geometry must equal the one an
        uncached build gives."""
        rng = np.random.default_rng(4)
        d = BasisDictionary(b_b=rng.normal(size=(10, 3)), b_a=rng.normal(size=(10, 4)))
        cfg = _cfg(d.k_a, 4)
        subsets = [np.sort(rng.choice(10, size=4, replace=False)) for _ in range(60)]
        expected = {}
        budget = geometry._CACHE.budget
        geometry._CACHE.clear()
        geometry._CACHE.budget = 0
        try:
            for z in subsets:
                expected[z.tobytes()] = _as_bytes(subset_geometry(d, cfg, z))
        finally:
            geometry._CACHE.budget = budget
        clear_geometry_cache()
        mismatches = []

        def work(seed):
            order = np.random.default_rng(seed).permutation(len(subsets))
            for sweep in range(5):
                if sweep == 1:
                    build_geometry_table(d, cfg)
                for i in order:
                    z = subsets[i]
                    geo = subset_geometry(d, cfg, z)
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
            held = geometry._CACHE.table
        finally:
            sys.setswitchinterval(interval)
            clear_geometry_cache()
        assert not any(t.is_alive() for t in threads)
        assert mismatches == []
        assert len(held.rank) == math.comb(d.p, 4)


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
        cfg = _cfg(d.k_a, m)
        table = scorer.bases.reshape(d.p, d.k_b, len(scorer.subsets))
        try:
            for i, z in enumerate(scorer.subsets):
                geo = subset_geometry(d, cfg, z)
                assert table[z, :, i].tobytes() == geo.basis.tobytes()
                assert not np.delete(table[:, :, i], z, axis=0).any()
        finally:
            clear_geometry_cache()


class TestSubsetIndices:
    @pytest.mark.parametrize("z", [[1.5, 3, 5], [1.0, 3.0, 5.0], [True, False, True]])
    @pytest.mark.parametrize(
        "entry", ["subset_geometry", "absorb_sample", "update_background", "DetectionInputs"]
    )
    def test_non_integer_subset_refused(self, z, entry):
        """Every layer that takes a subset refuses indices of a non-integer
        dtype instead of truncating them to the variables they name."""
        d, _, _, _ = _problem(3, k_b=2, m=3, rows="random")
        cfg = _cfg(d.k_a, 3)
        post = SpikeSlabPosterior.prior(cfg)
        calls = {
            "subset_geometry": lambda: subset_geometry(d, cfg, z),
            "absorb_sample": lambda: absorb_sample(DecayedStats.empty(d.k_a), np.ones(3), z, d, cfg),
            "update_background": lambda: update_background(np.ones(3), z, post, d, cfg),
            "DetectionInputs": lambda: DetectionInputs(x_z=np.ones(3), z=z, post=post),
        }
        with pytest.raises(DimensionError, match="must be integers"):
            calls[entry]()

    def test_integer_subsets_convert_to_intp(self):
        for z in ([4, 0, 2], np.array([4, 0, 2], dtype=np.uint8), np.array([[4, 0, 2]])):
            out = geometry.subset_indices(z)
            assert out.dtype == np.intp and out.tolist() == [4, 0, 2]
        assert geometry.subset_indices([]).dtype == np.intp
