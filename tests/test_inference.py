"""Variational core: decayed stats, coordinate sweeps, bound, background, fit."""

from __future__ import annotations

import dataclasses
import math
import os
import pickle
import subprocess
import re
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import blocked_sweep, reference_elbo, reference_sweep, stats_from_history
from sparsewatch import (
    BasisDictionary,
    DataError,
    DecayedStats,
    DimensionError,
    ModelConfig,
    SpikeSlabPosterior,
    StateError,
    absorb_sample,
    elbo,
    fit,
    update_background,
    vb_coordinate_sweep,
)
from sparsewatch import engine, inference
from sparsewatch.inference import _BLOCK, ALPHA_CLAMP, _iterate


def _random_step(dictionary, cfg, rng):
    """One synthetic absorbed step: subset and observed values."""
    z = np.sort(rng.choice(dictionary.p, size=cfg.m, replace=False))
    x_z = rng.normal(size=cfg.m)
    return x_z, z


def _random_stats(dictionary, cfg, rng, n_steps=12):
    stats = DecayedStats.empty(cfg.k_a)
    history = []
    for _ in range(n_steps):
        x_z, z = _random_step(dictionary, cfg, rng)
        stats = absorb_sample(stats, x_z, z, dictionary, cfg)
        history.append((dictionary.b_a[z].copy(), dictionary.b_b[z].copy(), x_z))
    return stats, history


def _cfg_vals(cfg, stats):
    return {
        "sigma_e": cfg.sigma_e,
        "sigma_j": cfg.sigma_j,
        "w": cfg.w,
        "v": cfg.v,
        "norm": stats.raw_norm,
    }


class TestAbsorbSample:
    def test_matches_explicit_weighted_sums(
        self, default_dictionary, default_config, rng
    ):
        """The recursion reproduces the weighted sums computed directly from
        the stored history, with each step whitened through a dense inverse
        of its marginal covariance."""
        stats, history = _random_stats(default_dictionary, default_config, rng, 30)
        ref = stats_from_history(
            history,
            default_config.decay,
            default_config.sigma_e,
            default_config.sigma_b,
        )
        np.testing.assert_allclose(stats.raw_M, ref["M"], atol=1e-10)
        np.testing.assert_allclose(stats.raw_u, ref["u"], atol=1e-10)
        assert stats.raw_q == pytest.approx(ref["q"], abs=1e-10)
        assert stats.raw_norm == pytest.approx(ref["norm"], abs=1e-10)
        assert stats.mass == pytest.approx(ref["mass"], abs=1e-12)
        assert stats.n == 30

    def test_no_background_reduces_to_plain_moments(self, rng):
        """With no background columns the whitening is the identity and one
        absorbed step stores the raw cross products at weight one."""
        d = BasisDictionary(b_b=np.zeros((6, 0)), b_a=np.eye(6))
        cfg = ModelConfig.homogeneous(
            k_a=6, sigma_e=0.5, sigma_b=1.0, sigma_j=1.0, w=0.5,
            v=0.5, decay=0.1, m=4,
        )
        x_z, z = rng.normal(size=4), np.array([0, 2, 3, 5])
        stats = absorb_sample(DecayedStats.empty(6), x_z, z, d, cfg)
        b_a_z = d.b_a[z]
        np.testing.assert_allclose(stats.raw_M, b_a_z.T @ b_a_z, atol=1e-15)
        np.testing.assert_allclose(stats.raw_u, b_a_z.T @ x_z, atol=1e-15)
        assert stats.raw_q == pytest.approx(float(x_z @ x_z), rel=1e-15)
        assert stats.mass == 1.0

    def test_wide_background_prior_annihilates_background_data(
        self, default_dictionary, rng
    ):
        """As sigma_b grows the whitening projects out the background columns,
        so an observation lying in their span contributes almost nothing."""
        cfg = ModelConfig.homogeneous(
            k_a=10, sigma_e=0.05, sigma_b=1e4, sigma_j=3.0, w=0.1,
            v=1e-7, decay=0.1, m=8,
        )
        z = np.arange(8)
        x_z = default_dictionary.b_b[z] @ rng.normal(size=3)
        stats = absorb_sample(
            DecayedStats.empty(10), x_z, z, default_dictionary, cfg
        )
        assert float(np.max(np.abs(stats.raw_u))) < 1e-4 * float(
            np.max(np.abs(x_z))
        )
        assert stats.raw_q < 1e-6 * float(x_z @ x_z)

    @given(
        lam=st.floats(min_value=0.001, max_value=0.1),
        n=st.integers(min_value=1, max_value=200),
    )
    @settings(max_examples=60, deadline=None)
    def test_mass_closed_form(self, lam, n):
        """After n absorptions the weight mass equals (1 - (1-lam)^n)/lam,
        the geometric sum of the unnormalized weights."""
        d = BasisDictionary(b_b=np.zeros((3, 0)), b_a=np.eye(3))
        cfg = ModelConfig.homogeneous(
            k_a=3, sigma_e=1.0, sigma_b=1.0, sigma_j=1.0, w=0.5,
            v=0.5, decay=lam, m=2,
        )
        stats = DecayedStats.empty(3)
        for _ in range(n):
            stats = absorb_sample(stats, np.zeros(2), [0, 1], d, cfg)
        assert stats.mass == pytest.approx((1.0 - (1.0 - lam) ** n) / lam, rel=1e-12)

    def test_two_step_weight_ratio(self, default_dictionary, default_config):
        """After two absorptions the older step carries weight 0.9 relative
        to the newer step's weight 1 (decay 0.1), so the sums decompose as
        0.9·(first alone) + 1·(second alone)."""
        z1, z2 = np.arange(5), np.arange(5, 10)
        x1 = np.linspace(-1.0, 1.0, 5)
        x2 = np.linspace(0.5, -0.5, 5)
        both = absorb_sample(
            absorb_sample(
                DecayedStats.empty(10), x1, z1, default_dictionary, default_config
            ),
            x2, z2, default_dictionary, default_config,
        )
        first = absorb_sample(
            DecayedStats.empty(10), x1, z1, default_dictionary, default_config
        )
        second = absorb_sample(
            DecayedStats.empty(10), x2, z2, default_dictionary, default_config
        )
        np.testing.assert_allclose(
            both.raw_u, 0.9 * first.raw_u + second.raw_u, atol=1e-14
        )
        np.testing.assert_allclose(
            both.raw_M, 0.9 * first.raw_M + second.raw_M, atol=1e-14
        )
        assert both.raw_q == pytest.approx(
            0.9 * first.raw_q + second.raw_q, rel=1e-14
        )

    def test_contribution_is_positive_semidefinite(
        self, default_dictionary, default_config, rng
    ):
        """raw_M stays symmetric PSD: the whitening matrix is a contraction."""
        stats, _ = _random_stats(default_dictionary, default_config, rng, 10)
        np.testing.assert_allclose(stats.raw_M, stats.raw_M.T, atol=1e-14)
        assert float(np.min(np.linalg.eigvalsh(stats.raw_M))) >= -1e-12

    def test_input_does_not_mutate(self, default_dictionary, default_config, rng):
        stats, _ = _random_stats(default_dictionary, default_config, rng, 3)
        raw_m = stats.raw_M.copy()
        x_z, z = _random_step(default_dictionary, default_config, rng)
        absorb_sample(stats, x_z, z, default_dictionary, default_config)
        np.testing.assert_array_equal(stats.raw_M, raw_m)

    def test_wrong_budget_rejected(self, default_dictionary, default_config):
        with pytest.raises(DimensionError):
            absorb_sample(
                DecayedStats.empty(10),
                np.zeros(3),
                [0, 1, 2],
                default_dictionary,
                default_config,
            )

    def test_out_of_range_subset_rejected(self, default_dictionary, default_config):
        with pytest.raises(IndexError):
            absorb_sample(
                DecayedStats.empty(10),
                np.zeros(5),
                [0, 1, 2, 3, 99],
                default_dictionary,
                default_config,
            )

    def test_mismatched_stats_shape_rejected(self, default_dictionary, default_config):
        with pytest.raises(DimensionError):
            absorb_sample(
                DecayedStats.empty(9),
                np.zeros(5),
                [0, 1, 2, 3, 4],
                default_dictionary,
                default_config,
            )


class TestCoordinateSweep:
    def test_sweep_output_equals_checked_construction(
        self, default_dictionary, default_config, rng
    ):
        """The sweep skips the constructor's checks; what it returns must be
        exactly what the checked constructor stores from the same values,
        including inclusion probabilities pushed to the clamp."""
        stats, _ = _random_stats(default_dictionary, default_config, rng)
        stats = DecayedStats(
            raw_M=stats.raw_M, raw_u=1e6 * stats.raw_u, raw_q=stats.raw_q,
            raw_norm=stats.raw_norm, mass=stats.mass, n=stats.n,
        )
        post = vb_coordinate_sweep(SpikeSlabPosterior.prior(default_config), stats, default_config)
        checked = SpikeSlabPosterior(mu_a=post.mu_a, s2=post.s2, alpha=post.alpha)
        for field in ("mu_a", "s2", "alpha"):
            got, want = getattr(post, field), getattr(checked, field)
            assert got.dtype == want.dtype and got.shape == want.shape
            assert got.tobytes() == want.tobytes()
        assert np.any(post.alpha == 1.0 - ALPHA_CLAMP)

    def test_strongly_negative_logit_lands_on_the_lower_clamp(self):
        """A prior inclusion of 1e-20 puts the logit near −46, far below
        logit(ALPHA_CLAMP) ≈ −27.6: alpha is exactly the clamp, as the
        checked constructor would store it."""
        cfg = ModelConfig.homogeneous(
            k_a=1, sigma_e=1.0, sigma_b=1.0, sigma_j=1.0, w=1e-20,
            v=0.5, decay=0.1, m=1,
        )
        stats = DecayedStats(
            raw_M=np.array([[2.0]]), raw_u=np.array([0.0]),
            raw_q=0.0, raw_norm=0.0, mass=1.0, n=1,
        )
        post = vb_coordinate_sweep(SpikeSlabPosterior.prior(cfg), stats, cfg)
        assert post.alpha[0] == ALPHA_CLAMP
        checked = SpikeSlabPosterior(mu_a=post.mu_a, s2=post.s2, alpha=post.alpha)
        assert post.alpha.tobytes() == checked.alpha.tobytes()

    def test_logits_beyond_700_give_finite_clamped_alpha(self):
        """Coordinates whose logits lie past ±700 (one of them +inf, from a
        squared mean that overflows) still land exactly on the clamps."""
        cfg = ModelConfig(
            sigma_e=1.0, sigma_b=1.0, sigma_j=np.ones(4),
            w=np.array([1e-320, 1e-20, 0.5, 0.5]), v=0.5, decay=0.1, m=1,
        )
        stats = DecayedStats(
            raw_M=np.eye(4), raw_u=np.array([0.0, 0.0, 1e6, 1e200]),
            raw_q=0.0, raw_norm=0.0, mass=1.0, n=1,
        )
        post = vb_coordinate_sweep(SpikeSlabPosterior.prior(cfg), stats, cfg)
        # With M = I, unit variances and mu_tilde = 0 at the start:
        # s^2 = 1/2, mu_j = u_j/2, logit_j = logit w_j + mu_j^2 − 1/8.
        with np.errstate(over="ignore"):
            logits = cfg.logit_w + (stats.raw_u / 2.0) ** 2 - 0.125
        assert logits[0] < -700.0 and logits[2] > 700.0 and logits[3] == np.inf
        assert np.all(np.isfinite(post.alpha))
        assert post.alpha.tolist() == [ALPHA_CLAMP, ALPHA_CLAMP, 1.0 - ALPHA_CLAMP, 1.0 - ALPHA_CLAMP]

    def test_single_coordinate_frozen_values(self):
        """Hand-derived fixed step: M=2, u=1, unit noise and slab, w=1/2,
        v=1/2 give s^2=1/3, mu=1/3, alpha=1/2 exactly.

        s^2 = 1/(2 + 1) and mu = s^2 * 1; the logit gains mu^2/2 = 1/18 from
        the slab term and 1 * (1/9 - 1/3 + 1/6) = -1/18 from the data term,
        so it stays at logit(w) = 0.
        """
        cfg = ModelConfig.homogeneous(
            k_a=1, sigma_e=1.0, sigma_b=1.0, sigma_j=1.0, w=0.5,
            v=0.5, decay=0.1, m=1,
        )
        stats = DecayedStats(
            raw_M=np.array([[2.0]]), raw_u=np.array([1.0]),
            raw_q=0.5, raw_norm=0.0, mass=1.0, n=1,
        )
        post = vb_coordinate_sweep(SpikeSlabPosterior.prior(cfg), stats, cfg)
        assert post.s2[0] == pytest.approx(1.0 / 3.0, rel=1e-14)
        assert post.mu_a[0] == pytest.approx(1.0 / 3.0, rel=1e-14)
        assert post.alpha[0] == pytest.approx(0.5, rel=1e-14)

    def test_coordinates_update_in_order(self):
        """The second coordinate must see the first coordinate's fresh value
        through the cross term."""
        cfg = ModelConfig.homogeneous(
            k_a=2, sigma_e=1.0, sigma_b=1.0, sigma_j=1.0, w=0.5,
            v=0.5, decay=0.1, m=2,
        )
        stats = DecayedStats(
            raw_M=np.array([[1.0, 0.5], [0.5, 1.0]]),
            raw_u=np.array([1.0, 1.0]),
            raw_q=2.0,
            raw_norm=0.0,
            mass=1.0,
            n=1,
        )
        post = vb_coordinate_sweep(SpikeSlabPosterior.prior(cfg), stats, cfg)
        # Coordinate 0 sees mu_tilde = 0: s^2 = 1/2, mu = 1/2.
        s2_0 = 0.5
        mu_0 = 0.5
        logit_0 = mu_0**2 / 2 + 0.5 * (mu_0**2 - s2_0 + 0.5 * s2_0)
        a_0 = 1.0 / (1.0 + math.exp(-logit_0))
        assert post.mu_a[0] == pytest.approx(mu_0, rel=1e-14)
        assert post.alpha[0] == pytest.approx(a_0, rel=1e-14)
        # Coordinate 1 sees the updated tilde mean of coordinate 0.
        mu_1 = 0.5 * (1.0 - 0.5 * mu_0 * a_0)
        logit_1 = mu_1**2 / 2 + 0.5 * (mu_1**2 - 0.5 + 0.25)
        a_1 = 1.0 / (1.0 + math.exp(-logit_1))
        assert post.mu_a[1] == pytest.approx(mu_1, rel=1e-14)
        assert post.alpha[1] == pytest.approx(a_1, rel=1e-14)

    def test_blocked_pass_matches_dense_reference(self, sweep_cases, rng):
        """One blocked sweep equals the plain per-coordinate pass that reads
        each full row of M, within rounding, in one block or several."""
        for dictionary, cfg in sweep_cases:
            for _ in range(5):
                stats, _ = _random_stats(dictionary, cfg, rng)
                post = SpikeSlabPosterior(
                    mu_a=rng.normal(size=cfg.k_a), s2=np.full(cfg.k_a, 0.5),
                    alpha=rng.uniform(0.05, 0.95, cfg.k_a),
                )
                got = vb_coordinate_sweep(post, stats, cfg)
                mu, s2, alpha = reference_sweep(
                    post.mu_a, post.alpha, stats.raw_M, stats.raw_u,
                    _cfg_vals(cfg, stats), ALPHA_CLAMP,
                )
                np.testing.assert_allclose(got.mu_a, mu, rtol=1e-12)
                np.testing.assert_allclose(got.s2, s2, rtol=1e-12)
                np.testing.assert_allclose(got.alpha, alpha, rtol=1e-12)

    def test_blocks_split_coordinates_evenly(self, sweep_cases):
        """The block sizes a sweep's kernel opens with products over, in
        order, and they tile the coordinates."""
        sizes = {}
        for _, cfg in sweep_cases:
            rows = re.findall(r"o\d+ = off\[(\d+):(\d+)\]", inference._kernel_source(cfg.k_a))
            bounds = [(int(start), int(stop)) for start, stop in rows]
            assert [start for start, _ in bounds] == [0, *(stop for _, stop in bounds[:-1])]
            assert bounds[-1][1] == cfg.k_a
            sizes[cfg.k_a] = [stop - start for start, stop in bounds]
        assert sizes == {10: [10], 13: [6, 7], 36: [12, 12, 12]}

    def test_slab_variance_depends_only_on_stats(
        self, default_dictionary, default_config, rng
    ):
        """Not on the posterior the sweep starts from."""
        stats, _ = _random_stats(default_dictionary, default_config, rng)
        p1 = vb_coordinate_sweep(
            SpikeSlabPosterior.prior(default_config), stats, default_config
        )
        p2 = vb_coordinate_sweep(p1, stats, default_config)
        np.testing.assert_array_equal(p1.s2, p2.s2)

    def test_empty_stats_rejected(self, default_config):
        with pytest.raises(StateError):
            vb_coordinate_sweep(
                SpikeSlabPosterior.prior(default_config),
                DecayedStats.empty(10),
                default_config,
            )

    def test_posterior_of_another_size_refused(self, default_dictionary, default_config, rng):
        stats, _ = _random_stats(default_dictionary, default_config, rng, n_steps=2)
        other = SpikeSlabPosterior(mu_a=np.zeros(9), s2=np.ones(9), alpha=np.full(9, 0.5))
        with pytest.raises(DimensionError, match="posterior, stats, and config disagree on k_a"):
            vb_coordinate_sweep(other, stats, default_config)

    def test_reaches_fixed_point(self, default_dictionary, default_config, rng):
        stats, _ = _random_stats(default_dictionary, default_config, rng)
        post = SpikeSlabPosterior.prior(default_config)
        for _ in range(200):
            post = vb_coordinate_sweep(post, stats, default_config)
        again = vb_coordinate_sweep(post, stats, default_config)
        np.testing.assert_allclose(again.mu_a, post.mu_a, atol=1e-12)
        np.testing.assert_allclose(again.alpha, post.alpha, atol=1e-12)


def _random_sweep_case(k_a, rng):
    """Config, stats and a random start at k_a with dense, well-posed M."""
    cfg = ModelConfig.homogeneous(
        k_a=k_a, sigma_e=0.05, sigma_b=0.3, sigma_j=3.0, w=0.1, v=1e-7,
        decay=0.1, m=1,
    )
    a = rng.normal(size=(k_a + 3, k_a))
    stats = DecayedStats(
        raw_M=a.T @ a, raw_u=rng.normal(scale=rng.choice([1e-3, 1.0, 1e3]), size=k_a),
        raw_q=0.0, raw_norm=0.0, mass=1.0, n=1,
    )
    post = SpikeSlabPosterior(
        mu_a=rng.normal(size=k_a), s2=np.full(k_a, 0.5),
        alpha=rng.uniform(0.0, 1.0, size=k_a),
    )
    return cfg, stats, post


class TestSweepKernels:
    @pytest.mark.parametrize("k_a", [*range(1, _BLOCK + 1), 13, 24, 25, 36, 40])
    def test_kernels_equal_blocked_reference_byte_for_byte(self, k_a, rng):
        """The generated kernels store exactly what the interpreted blocked
        loop stores, for 1-3 sweeps from random starts, at every block size
        (k_a = 1..12 is one block of k_a) and over several blocks, stop
        after the same sweep at a working tol, and stay within rounding of
        the plain dense pass.  At tol = 0 nothing converges."""
        for _ in range(4):
            cfg, stats, post = _random_sweep_case(k_a, rng)
            for tol, k in ((0.0, 1), (0.0, 2), (0.0, 3), (1e-6, 100)):
                got, converged, iters = _iterate(post, stats, cfg, tol, k)
                mu, s2, alpha, sweeps, ref_converged, _ = blocked_sweep(
                    post.mu_a, post.alpha, stats.raw_M, stats.raw_u, cfg,
                    ALPHA_CLAMP, _BLOCK, k, tol,
                )
                assert (iters, converged) == (sweeps, ref_converged)
                assert tol or (iters, converged) == (k, False)
                for field, want in (("mu_a", mu), ("s2", s2), ("alpha", alpha)):
                    assert getattr(got, field).tobytes() == np.array(want).tobytes()
            dense_mu, dense_s2, dense_alpha = reference_sweep(
                post.mu_a, post.alpha, stats.raw_M, stats.raw_u,
                _cfg_vals(cfg, stats), ALPHA_CLAMP,
            )
            one = vb_coordinate_sweep(post, stats, cfg)
            np.testing.assert_allclose(one.mu_a, dense_mu, rtol=1e-12)
            np.testing.assert_allclose(one.s2, dense_s2, rtol=1e-12)
            np.testing.assert_allclose(one.alpha, dense_alpha, rtol=1e-12)

    def test_fits_at_every_k_a_up_to_40_hold_one_kernel_per_k_a(self, rng):
        inference._kernel.cache_clear()
        for k_a in range(1, 41):
            dictionary = BasisDictionary(
                b_b=np.zeros((6, 0)), b_a=rng.normal(size=(6, k_a))
            )
            cfg = ModelConfig.homogeneous(
                k_a=k_a, sigma_e=0.05, sigma_b=0.3, sigma_j=3.0, w=0.1, v=1e-7,
                decay=0.1, m=3,
            )
            fit(
                rng.normal(size=3), [0, 2, 4], SpikeSlabPosterior.prior(cfg),
                DecayedStats.empty(k_a), dictionary, cfg,
            )
        info = inference._kernel.cache_info()
        assert info.currsize == 40
        for k_a in range(1, 41):  # each is held, so none compiles again
            inference._kernel(k_a)
        assert inference._kernel.cache_info().misses == info.misses

    def test_import_and_engine_init_compile_no_kernel(self):
        """Kernels are compiled by the first sweep, not at import or set-up."""
        code = (
            "import sparsewatch\n"
            "from sparsewatch import inference, engine\n"
            "assert inference._kernel.cache_info().currsize == 0, 'import'\n"
            "d = sparsewatch.BasisDictionary(\n"
            "    b_b=sparsewatch.fourier_basis(15, 3), b_a=sparsewatch.bspline_basis(15, 4, 14))\n"
            "cfg = sparsewatch.ModelConfig.homogeneous(\n"
            "    k_a=10, sigma_e=0.05, sigma_b=0.3, sigma_j=3.0, w=0.1, v=1e-7, decay=0.1, m=5)\n"
            "for sampler in ('thompson', 'oracle'):\n"
            "    engine.init(cfg, d, h=1.0, seed=0, sampler=sampler)\n"
            "assert inference._kernel.cache_info().currsize == 0, 'init'\n"
        )
        src = str(Path(inference.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p
        ))
        done = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120
        )
        assert done.returncode == 0, done.stderr


class TestElbo:
    def test_matches_kl_decomposition_oracle(
        self, default_dictionary, default_config, rng
    ):
        """The assembled closed form equals expected log-likelihood minus the
        mixture KL terms, computed independently."""
        stats, _ = _random_stats(default_dictionary, default_config, rng)
        for _ in range(25):
            post = SpikeSlabPosterior(
                mu_a=rng.normal(size=10),
                s2=rng.uniform(0.01, 4.0, size=10),
                alpha=rng.uniform(0.01, 0.99, size=10),
            )
            ours = elbo(post, stats, default_config)
            ref = reference_elbo(
                post.mu_a, post.s2, post.alpha,
                stats.raw_M, stats.raw_u, stats.raw_q,
                _cfg_vals(default_config, stats),
            )
            assert ours == pytest.approx(ref, rel=1e-12, abs=1e-10)

    def test_nondecreasing_across_sweeps(
        self, default_dictionary, default_config, rng
    ):
        """Post-sweep bound values never decrease at fixed stats."""
        for _ in range(20):
            stats, _ = _random_stats(default_dictionary, default_config, rng)
            post = vb_coordinate_sweep(
                SpikeSlabPosterior.prior(default_config), stats, default_config
            )
            prev = elbo(post, stats, default_config)
            for _ in range(10):
                post = vb_coordinate_sweep(post, stats, default_config)
                cur = elbo(post, stats, default_config)
                assert cur >= prev - 1e-10
                prev = cur

    def test_nondecreasing_across_blocked_sweeps(self, sweep_cases, rng):
        """The same at k_a = 36, where each sweep runs in three blocks."""
        dictionary, cfg = sweep_cases[-1]
        for _ in range(5):
            stats, _ = _random_stats(dictionary, cfg, rng)
            post = vb_coordinate_sweep(SpikeSlabPosterior.prior(cfg), stats, cfg)
            prev = elbo(post, stats, cfg)
            for _ in range(10):
                post = vb_coordinate_sweep(post, stats, cfg)
                cur = elbo(post, stats, cfg)
                assert cur >= prev - 1e-10 * max(1.0, abs(prev))
                prev = cur

    def test_fixed_point_is_coordinatewise_maximum(
        self, default_dictionary, default_config, rng
    ):
        """Perturbing any single coordinate off the fixed point lowers the bound."""
        stats, _ = _random_stats(default_dictionary, default_config, rng)
        post = SpikeSlabPosterior.prior(default_config)
        for _ in range(300):
            post = vb_coordinate_sweep(post, stats, default_config)
        base = elbo(post, stats, default_config)
        for j in (0, 4, 9):
            for delta in (-1e-3, 1e-3):
                mu = post.mu_a.copy()
                mu[j] += delta
                bumped = SpikeSlabPosterior(mu_a=mu, s2=post.s2, alpha=post.alpha)
                assert elbo(bumped, stats, default_config) <= base + 1e-12
                al = post.alpha.copy()
                al[j] = np.clip(al[j] + delta, 1e-6, 1 - 1e-6)
                bumped = SpikeSlabPosterior(mu_a=post.mu_a, s2=post.s2, alpha=al)
                assert elbo(bumped, stats, default_config) <= base + 1e-12

    def test_empty_stats_rejected(self, default_config):
        with pytest.raises(StateError):
            elbo(
                SpikeSlabPosterior.prior(default_config),
                DecayedStats.empty(10),
                default_config,
            )


class TestUpdateBackground:
    def test_matches_dense_solve(self, default_dictionary, default_config, rng):
        x_z, z = _random_step(default_dictionary, default_config, rng)
        post = SpikeSlabPosterior(
            mu_a=rng.normal(size=10),
            s2=np.full(10, 0.5),
            alpha=rng.uniform(0.1, 0.9, size=10),
        )
        bg = update_background(x_z, z, post, default_dictionary, default_config)
        b_bz = default_dictionary.b_b[z]
        b_az = default_dictionary.b_a[z]
        h = (
            b_bz.T @ b_bz / default_config.sigma_e**2
            + np.eye(3) / default_config.sigma_b**2
        )
        rhs = b_bz.T @ (x_z - b_az @ post.mu_tilde) / default_config.sigma_e**2
        np.testing.assert_allclose(bg.theta_n, np.linalg.solve(h, rhs), atol=1e-12)
        np.testing.assert_allclose(bg.cov_b, np.linalg.inv(h), atol=1e-12)

    def test_posterior_covariance_below_prior(
        self, default_dictionary, default_config, rng
    ):
        x_z, z = _random_step(default_dictionary, default_config, rng)
        post = SpikeSlabPosterior.prior(default_config)
        bg = update_background(x_z, z, post, default_dictionary, default_config)
        eigs = np.linalg.eigvalsh(
            default_config.sigma_b**2 * np.eye(3) - bg.cov_b
        )
        assert np.all(eigs >= -1e-12)

    def test_empty_background(self, default_config):
        d = BasisDictionary(b_b=np.zeros((15, 0)), b_a=np.eye(15))
        cfg = ModelConfig.homogeneous(
            k_a=15, sigma_e=0.1, sigma_b=0.3, sigma_j=3.0, w=0.1,
            v=1e-7, decay=0.1, m=5,
        )
        post = SpikeSlabPosterior.prior(cfg)
        bg = update_background(np.ones(5), [0, 1, 2, 3, 4], post, d, cfg)
        assert bg.theta_n.shape == (0,)
        assert bg.cov_b.shape == (0, 0)


class TestFit:
    def test_single_iteration_composition(
        self, default_dictionary, default_config, rng
    ):
        """One fit iteration equals absorb followed by one sweep."""
        x_z, z = _random_step(default_dictionary, default_config, rng)
        prior = SpikeSlabPosterior.prior(default_config)
        empty = DecayedStats.empty(10)

        res = fit(
            x_z, z, prior, empty, default_dictionary, default_config, max_iters=1
        )
        stats1 = absorb_sample(empty, x_z, z, default_dictionary, default_config)
        p1 = vb_coordinate_sweep(prior, stats1, default_config)

        np.testing.assert_allclose(res.post.mu_a, p1.mu_a, atol=1e-14)
        np.testing.assert_allclose(res.post.alpha, p1.alpha, atol=1e-14)
        assert res.n_iters == 1

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_fit_equals_k_public_sweeps_byte_for_byte(self, sweep_cases, rng, k):
        """fit's loop and the public sweep are one code path: k fit sweeps
        store exactly what k public sweeps return, from a posterior mid-stream,
        in one sweep block or several."""
        for dictionary, cfg in sweep_cases:
            stats, _ = _random_stats(dictionary, cfg, rng)
            start = SpikeSlabPosterior(
                mu_a=rng.normal(size=cfg.k_a), s2=np.full(cfg.k_a, 0.5),
                alpha=rng.uniform(0.05, 0.95, cfg.k_a),
            )
            x_z, z = _random_step(dictionary, cfg, rng)
            res = fit(x_z, z, start, stats, dictionary, cfg, tol=1e-300, max_iters=k)
            post = start
            for _ in range(k):
                post = vb_coordinate_sweep(post, res.stats, cfg)
            assert res.n_iters == k and not res.converged
            for field in ("mu_a", "s2", "alpha"):
                assert getattr(res.post, field).tobytes() == getattr(post, field).tobytes()

    def test_kernel_moved_flag_is_numpy_max_against_tol(self, sweep_cases, rng):
        """A sweep has moved exactly when max(|delta mu|, |delta alpha|), as
        numpy computes it from the posteriors before and after, is at least
        tol: it has at tol = that change and has not one ulp above it."""
        for dictionary, cfg in sweep_cases:
            for _ in range(25):
                stats, _ = _random_stats(dictionary, cfg, rng, n_steps=3)
                post = SpikeSlabPosterior(
                    mu_a=rng.normal(scale=rng.choice([1e-6, 1.0, 1e3]), size=cfg.k_a),
                    s2=np.full(cfg.k_a, 0.5),
                    alpha=rng.uniform(0.0, 1.0, size=cfg.k_a),
                )
                after = vb_coordinate_sweep(post, stats, cfg)
                want = max(
                    float(np.max(np.abs(after.mu_a - post.mu_a))),
                    float(np.max(np.abs(after.alpha - post.alpha))),
                )
                assert _iterate(post, stats, cfg, want, 1)[1] is False
                assert _iterate(post, stats, cfg, np.nextafter(want, np.inf), 1)[1] is True

    @pytest.mark.parametrize("where", ["u_first", "u_last", "M_diag", "M_last_block"])
    def test_nan_in_moments_never_converges(self, sweep_cases, rng, where):
        """A NaN change is not a small change, wherever it enters the sweep:
        M_last_block puts it in the last coordinate's row of M inside its
        block, which the block's product and the in-block update both read."""
        for dictionary, cfg in sweep_cases:
            stats, _ = _random_stats(dictionary, cfg, rng)
            raw_u, raw_m = stats.raw_u.copy(), stats.raw_M.copy()
            if where == "u_first":
                raw_u[0] = np.nan
            elif where == "u_last":
                raw_u[-1] = np.nan
            elif where == "M_diag":
                raw_m[4, 4] = np.nan
            else:
                raw_m[-1, -2] = np.nan
            bad = DecayedStats(
                raw_M=raw_m, raw_u=raw_u, raw_q=stats.raw_q,
                raw_norm=stats.raw_norm, mass=stats.mass, n=stats.n,
            )
            x_z, z = _random_step(dictionary, cfg, rng)
            res = fit(
                x_z, z, SpikeSlabPosterior.prior(cfg), bad, dictionary, cfg, max_iters=20,
            )
            assert not res.converged
            assert res.n_iters == 20

    def test_stats_carry_no_posterior_dependence(
        self, default_dictionary, default_config, rng
    ):
        """The absorbed moments equal a plain absorb regardless of where the
        posterior iteration ends up."""
        x_z, z = _random_step(default_dictionary, default_config, rng)
        res = fit(
            x_z,
            z,
            SpikeSlabPosterior.prior(default_config),
            DecayedStats.empty(10),
            default_dictionary,
            default_config,
        )
        expected = absorb_sample(
            DecayedStats.empty(10), x_z, z, default_dictionary, default_config
        )
        np.testing.assert_array_equal(res.stats.raw_u, expected.raw_u)
        np.testing.assert_array_equal(res.stats.raw_M, expected.raw_M)
        assert res.stats.raw_q == expected.raw_q
        assert res.stats.n == 1

    def test_converges_on_model_stream(
        self, default_dictionary, default_config, rng
    ):
        """On data generated from the null model every fit converges fast."""
        d, cfg = default_dictionary, default_config
        post = SpikeSlabPosterior.prior(cfg)
        stats = DecayedStats.empty(10)
        for _ in range(30):
            x = d.b_b @ (rng.normal(size=3) * cfg.sigma_b)
            x += rng.normal(size=15) * cfg.sigma_e
            z = np.sort(rng.choice(15, size=5, replace=False))
            res = fit(x[z], z, post, stats, d, cfg, tol=1e-8)
            assert res.converged
            assert res.n_iters <= 30
            post, stats = res.post, res.stats

    def test_converges_on_mismatched_data(
        self, default_dictionary, default_config, rng
    ):
        """Observations far outside the noise scale still reach a fixed point
        once the iteration cap allows for the slower coordinate ascent."""
        post = SpikeSlabPosterior.prior(default_config)
        stats = DecayedStats.empty(10)
        for _ in range(10):
            x_z, z = _random_step(default_dictionary, default_config, rng)
            res = fit(
                x_z, z, post, stats, default_dictionary, default_config,
                tol=1e-8, max_iters=500,
            )
            assert res.converged
            post, stats = res.post, res.stats

    def test_nonconvergence_reports_flag(
        self, default_dictionary, default_config, rng
    ):
        x_z, z = _random_step(default_dictionary, default_config, rng)
        res = fit(
            x_z,
            z,
            SpikeSlabPosterior.prior(default_config),
            DecayedStats.empty(10),
            default_dictionary,
            default_config,
            tol=1e-16,
            max_iters=2,
        )
        assert not res.converged
        assert res.n_iters == 2

    def test_observation_of_another_length_refused(self, default_dictionary, default_config):
        with pytest.raises(DimensionError, match="x_z length must match the observation subset"):
            fit(np.zeros(4), [0, 1, 2, 3, 4], SpikeSlabPosterior.prior(default_config),
                DecayedStats.empty(10), default_dictionary, default_config)

    def test_invalid_tol_rejected(self, default_dictionary, default_config):
        with pytest.raises(ValueError):
            fit(
                np.zeros(5),
                [0, 1, 2, 3, 4],
                SpikeSlabPosterior.prior(default_config),
                DecayedStats.empty(10),
                default_dictionary,
                default_config,
                tol=0.0,
            )

    @pytest.mark.parametrize("tol", [math.nan, 0.0, -0.0, -1e-6, -math.inf])
    def test_nan_or_nonpositive_tol_named(self, default_dictionary, default_config, tol):
        """A NaN tol is refused up front; before, every sweep compared
        against it as unmoved and the fit ran out ``max_iters``."""
        x_z, z = np.zeros(5), [0, 1, 2, 3, 4]
        prior = SpikeSlabPosterior.prior(default_config)
        with pytest.raises(ValueError, match="tol must be positive"):
            fit(x_z, z, prior, DecayedStats.empty(10), default_dictionary, default_config,
                tol=tol)

    @pytest.mark.parametrize("tol", [True, "1e-6"], ids=["bool", "string"])
    def test_tol_that_is_not_a_number_named(self, default_dictionary, default_config, tol):
        """True stopped the fit after one sweep as tol = 1; a string raised
        a bare TypeError."""
        x_z, z = np.zeros(5), [0, 1, 2, 3, 4]
        prior = SpikeSlabPosterior.prior(default_config)
        with pytest.raises(DataError, match=f"tol must be a number, got {tol!r}"):
            fit(x_z, z, prior, DecayedStats.empty(10), default_dictionary, default_config,
                tol=tol)

    @pytest.mark.parametrize("field", ["sigma_e", "sigma_b"])
    def test_scale_whose_square_underflows_refused_by_fit(self, default_config, field):
        """Called without ``engine.init``, a fit at sigma_e = 1e-200 raised
        "math domain error"; the config it needs is now refused when it is
        built, so no fit meets it."""
        message = re.escape(f"{field} must be positive with a finite 1/{field}**2, got 1e-200")
        with pytest.raises(DataError, match=message):
            dataclasses.replace(default_config, **{field: 1e-200})

    @pytest.mark.parametrize("k_a", [0, 2.5, True], ids=["zero", "fraction", "bool"])
    def test_empty_stats_size_is_a_count(self, k_a):
        """0 built 0x0 moments, 2.5 raised numpy's TypeError."""
        with pytest.raises(DimensionError, match=f"k_a must be an integer of at least 1, got {k_a!r}"):
            DecayedStats.empty(k_a)

    @pytest.mark.parametrize("max_iters", [0, -3, 1.5, 2.0, True, False, "3", None])
    def test_max_iters_must_be_an_integer_of_at_least_1(
        self, default_dictionary, default_config, max_iters
    ):
        x_z, z = np.zeros(5), [0, 1, 2, 3, 4]
        prior = SpikeSlabPosterior.prior(default_config)
        with pytest.raises(ValueError, match="max_iters must be an integer of at least 1"):
            fit(x_z, z, prior, DecayedStats.empty(10), default_dictionary, default_config,
                max_iters=max_iters)

    def test_numpy_integer_max_iters_accepted(self, default_dictionary, default_config, rng):
        x_z, z = _random_step(default_dictionary, default_config, rng)
        prior = SpikeSlabPosterior.prior(default_config)
        args = (x_z, z, prior, DecayedStats.empty(10), default_dictionary, default_config)
        want = fit(*args, tol=1e-300, max_iters=3)
        got = fit(*args, tol=1e-300, max_iters=np.int64(3))
        assert (got.n_iters, got.converged) == (3, False)
        assert got.post.mu_a.tobytes() == want.post.mu_a.tobytes()


class TestTypes:
    def test_alpha_clamped_into_open_interval(self):
        post = SpikeSlabPosterior(
            mu_a=np.zeros(2), s2=np.ones(2), alpha=np.array([0.0, 1.0])
        )
        assert 0.0 < post.alpha[0] < post.alpha[1] < 1.0

    @pytest.mark.parametrize(
        "build, message",
        [
            (lambda: ModelConfig(sigma_e=0.1, sigma_b=0.5, sigma_j=np.ones(3), w=np.full(2, 0.1),
                                 v=1e-6, decay=0.1, m=1),
             "sigma_j and w must have one entry per anomaly column"),
            (lambda: SpikeSlabPosterior(mu_a=np.zeros(3), s2=np.ones(2), alpha=np.full(3, 0.1)),
             "posterior fields must share one length"),
            (lambda: inference.BackgroundPosterior(theta_n=np.zeros(2), cov_b=np.eye(3)),
             "cov_b shape must match theta_n length"),
        ],
        ids=["config", "posterior", "background"],
    )
    def test_fields_of_unequal_lengths_named(self, build, message):
        with pytest.raises(DimensionError, match=message):
            build()

    def test_nonpositive_slab_variance_rejected(self):
        with pytest.raises(ValueError):
            SpikeSlabPosterior(
                mu_a=np.zeros(2), s2=np.array([1.0, 0.0]), alpha=np.full(2, 0.5)
            )

    def test_decay_range_enforced(self):
        for bad in (0.0, 0.11, -0.05, 1.0):
            with pytest.raises(ValueError):
                ModelConfig.homogeneous(
                    k_a=2, sigma_e=1.0, sigma_b=1.0, sigma_j=1.0, w=0.5,
                    v=0.5, decay=bad, m=1,
                )

    def test_inclusion_prior_range_enforced(self):
        for bad in (0.0, 1.0):
            with pytest.raises(ValueError):
                ModelConfig.homogeneous(
                    k_a=2, sigma_e=1.0, sigma_b=1.0, sigma_j=1.0, w=bad,
                    v=0.5, decay=0.1, m=1,
                )

    @pytest.mark.parametrize("m", [5.5, 5.0, True, "5"])
    def test_non_integer_budget_refused(self, m):
        with pytest.raises(ValueError, match="m must be an integer"):
            ModelConfig.homogeneous(
                k_a=2, sigma_e=1.0, sigma_b=1.0, sigma_j=1.0, w=0.5, v=0.5, decay=0.1, m=m,
            )

    def test_numpy_integer_budget_stored_as_int(self):
        cfg = ModelConfig.homogeneous(
            k_a=2, sigma_e=1.0, sigma_b=1.0, sigma_j=1.0, w=0.5, v=0.5, decay=0.1, m=np.int64(3),
        )
        assert type(cfg.m) is int and cfg.m == 3

    @pytest.mark.parametrize("scale", [math.inf, 1e300], ids=["inf", "1e300"])
    @pytest.mark.parametrize("field", ["sigma_e", "sigma_b", "sigma_j"])
    def test_scale_without_a_finite_square_named(self, field, scale):
        """An infinite sigma_e made every statistic 0, so the monitor never
        alarmed, and 1e300 raised a bare OverflowError from its square."""
        fields = dict(k_a=2, sigma_e=1.0, sigma_b=1.0, sigma_j=1.0, w=0.5, v=0.5, decay=0.1, m=1)
        message = re.escape(f"{field} must be finite with a finite square, got {scale!r}")
        with pytest.raises(ValueError, match=message):
            ModelConfig.homogeneous(**{**fields, field: scale})

    def test_slab_scale_whose_square_underflows_named(self):
        """sigma_j = 1e-200 squares to 0, which every fit divides by; one
        such column is refused by name, not by the prior, in the words
        every scale's rule uses."""
        message = re.escape("sigma_j must be positive with a finite 1/sigma_j**2, got 1e-200")
        with pytest.raises(DataError, match=message):
            ModelConfig(
                sigma_e=1.0, sigma_b=1.0, sigma_j=[3.0, 1e-200], w=[0.5, 0.5], v=0.5,
                decay=0.1, m=1,
            )

    @pytest.mark.parametrize(
        "value",
        [True, "0.1", None, np.array(0.1), np.array([0.1, 0.1]), 10**400],
        ids=["bool", "string", "none", "0-d-array", "2-element-array", "huge-int"],
    )
    @pytest.mark.parametrize("field", ["sigma_e", "sigma_b", "sigma_j", "w", "v", "decay"])
    def test_real_field_that_is_not_a_number_named(self, field, value):
        """A string was parsed or raised a bare TypeError, True counted as
        1.0, and an array was stored as given or raised numpy's error."""
        fields = dict(k_a=2, sigma_e=1.0, sigma_b=1.0, sigma_j=1.0, w=0.5, v=0.5, decay=0.1, m=1)
        with pytest.raises(DataError, match=f"^{field} (must be a number|is too large for a float)"):
            ModelConfig.homogeneous(**{**fields, field: value})

    def test_slab_scale_whose_reciprocal_square_overflows_named(self):
        """sigma_j = 1e-160 squares to a nonzero 1e-320, but 1/sigma_j^2 is
        inf, and every statistic was then 0.0."""
        message = re.escape("sigma_j must be positive with a finite 1/sigma_j**2, got 1e-160")
        with pytest.raises(DataError, match=message):
            ModelConfig(
                sigma_e=1.0, sigma_b=1.0, sigma_j=[3.0, 1e-160], w=[0.5, 0.5], v=0.5,
                decay=0.1, m=1,
            )

    @pytest.mark.parametrize("field", ["sigma_e", "sigma_b", "sigma_j"])
    def test_every_scale_has_one_floor(self, field):
        """At 1e-160 the square is the subnormal 1e-320, whose reciprocal is
        inf: a sigma_e or sigma_b there was built and every statistic of a
        p = 15 engine was 0.0.  Below sqrt(smallest normal), at 0 and below
        0, each scale is refused by one rule; the floor itself is accepted,
        with a normal square and a finite reciprocal."""
        fields = dict(k_a=2, sigma_e=1.0, sigma_b=1.0, sigma_j=1.0, w=0.5, v=0.5, decay=0.1, m=1)
        for value in (1e-160, 0.0, -1.0):
            message = re.escape(f"{field} must be positive with a finite 1/{field}**2, got {value!r}")
            with pytest.raises(DataError, match=message):
                ModelConfig.homogeneous(**{**fields, field: value})
        floor = math.sqrt(np.finfo(np.float64).tiny)
        square = getattr(ModelConfig.homogeneous(**{**fields, field: floor}), field + "2")
        assert np.all(square >= np.finfo(np.float64).tiny) and np.all(np.isfinite(1.0 / square))

    def test_numpy_scalar_and_list_spellings_equal_the_float_config(self):
        """Fields spelled as numpy float64 or int64 scalars, or as lists,
        build a config that equals and hashes as the all-float one, and
        whose scalars are Python floats; a 0-d array decay was unequal."""
        fields = dict(sigma_e=1.0, sigma_b=2.0, sigma_j=np.array([1.0, 3.0]),
                      w=np.array([0.25, 0.5]), v=0.5, decay=0.05, m=2)
        cfg = ModelConfig(**fields)
        spellings = [
            dict(sigma_e=np.float64(1.0), sigma_b=np.int64(2), v=np.float64(0.5),
                 decay=np.float64(0.05), m=np.int64(2)),
            dict(sigma_j=[1, 3.0], w=[0.25, np.float64(0.5)]),
            dict(sigma_j=[np.int64(1), np.float64(3.0)], w=(0.25, 0.5)),
            dict(sigma_j=np.array([1, 3])),
        ]
        for spelling in spellings:
            twin = ModelConfig(**{**fields, **spelling})
            assert twin == cfg and hash(twin) == hash(cfg), spelling
            scalars = (twin.sigma_e, twin.sigma_b, twin.v, twin.decay, twin.sigma_e2, twin.sigma_b2)
            assert {type(x) for x in scalars} == {float}
            assert twin.sigma_j.dtype == twin.w.dtype == np.float64

    @pytest.mark.parametrize(
        "k_a, message",
        [(2.5, "got 2.5"), (True, "got True"), (0, "got 0")],
        ids=["fraction", "bool", "zero"],
    )
    def test_homogeneous_column_count_is_a_count(self, k_a, message):
        with pytest.raises(DimensionError, match=f"k_a must be an integer of at least 1, {message}"):
            ModelConfig.homogeneous(
                k_a=k_a, sigma_e=1.0, sigma_b=1.0, sigma_j=1.0, w=0.5, v=0.5, decay=0.1, m=1,
            )

    def test_config_owns_its_arrays(self):
        """A write to the caller's arrays leaves the config, its derived
        arrays and its sweep factors alone; its own arrays are read-only."""
        sigma_j, w = np.full(3, 2.0), np.full(3, 0.1)
        cfg = ModelConfig(sigma_e=1.0, sigma_b=1.0, sigma_j=sigma_j, w=w, v=0.5, decay=0.1, m=1)
        derived = [cfg.sigma_j2.tolist(), cfg.logit_w.tolist(), cfg._sweep_lists]
        sigma_j[:] = 5.0
        w[:] = 0.9
        assert cfg.sigma_j.tolist() == [2.0] * 3 and cfg.w.tolist() == [0.1] * 3
        assert [cfg.sigma_j2.tolist(), cfg.logit_w.tolist(), cfg._sweep_lists] == derived
        for name in ("sigma_j", "w", "sigma_j2", "logit_w"):
            with pytest.raises(ValueError, match="read-only"):
                getattr(cfg, name)[0] = 0.5

    def test_posterior_owns_its_fields(self):
        """A write to the caller's mean or variance leaves the posterior and
        the fields derived from it consistent."""
        mu, s2 = np.full(2, 0.5), np.ones(2)
        post = SpikeSlabPosterior(mu_a=mu, s2=s2, alpha=np.full(2, 0.5))
        mu[0] = 100.0
        s2[0] = 7.0
        assert post.mu_a.tolist() == [0.5, 0.5] and post.s2.tolist() == [1.0, 1.0]
        assert post.mu_tilde.tolist() == (post.mu_a * post.alpha).tolist()

    def test_config_stays_read_only_through_pickle(self):
        """Unpickling, as a pool worker receives its config, runs the checked
        constructor again: the arrays come back read-only, equal, and the
        sweep factors unchanged."""
        cfg = ModelConfig(
            sigma_e=0.5, sigma_b=1.5, sigma_j=np.array([1.0, 2.0, 3.0]),
            w=np.array([0.1, 0.2, 0.3]), v=1e-4, decay=0.05, m=2,
        )
        back = pickle.loads(pickle.dumps(cfg))
        assert back._sweep_lists == cfg._sweep_lists
        for name in ("sigma_j", "w", "sigma_j2", "logit_w"):
            arr = getattr(back, name)
            assert arr.tobytes() == getattr(cfg, name).tobytes()
            with pytest.raises(ValueError, match="read-only"):
                arr[0] = 0.9
        scalars = ("sigma_e", "sigma_b", "v", "decay", "m", "sigma_e2", "sigma_b2")
        assert [getattr(back, n) for n in scalars] == [getattr(cfg, n) for n in scalars]

    def test_config_compares_and_hashes_by_value(self):
        """A fresh copy and an unpickled copy equal the config and hash alike;
        changing any one of the seven fields makes a config unequal."""
        fields = dict(
            sigma_e=0.5, sigma_b=1.5, sigma_j=np.array([1.0, 2.0, 3.0]),
            w=np.array([0.1, 0.2, 0.3]), v=1e-4, decay=0.05, m=2,
        )
        cfg = ModelConfig(**fields)
        fresh = ModelConfig(**{**fields, "sigma_j": [1.0, 2.0, 3.0], "w": [0.1, 0.2, 0.3]})
        for twin in (fresh, pickle.loads(pickle.dumps(cfg))):
            assert twin is not cfg and twin == cfg and not twin != cfg
            assert hash(twin) == hash(cfg)
        assert {cfg: 1}[pickle.loads(pickle.dumps(cfg))] == 1
        changed = dict(
            sigma_e=0.6, sigma_b=1.4, sigma_j=np.array([1.0, 2.0, 3.5]),
            w=np.array([0.1, 0.25, 0.3]), v=2e-4, decay=0.06, m=3,
        )
        for name, value in changed.items():
            other = ModelConfig(**{**fields, name: value})
            assert other != cfg and not other == cfg, name
        assert cfg != "config" and cfg != fields

    def test_decayed_stats_are_read_only(self, default_dictionary, default_config):
        """Empty, absorbed and stepped moments refuse a write to raw_M and
        raw_u, so no fit can read a moment changed in place."""
        d, cfg = default_dictionary, default_config
        empty = DecayedStats.empty(d.k_a)
        absorbed = absorb_sample(empty, np.full(cfg.m, 0.1), np.arange(cfg.m), d, cfg)
        state = engine.init(cfg, d, h=math.inf, seed=4)
        for t in range(3):
            engine.step(state, np.full(d.p, 0.05 * t))
        for stats in (empty, absorbed, state.stats):
            with pytest.raises(ValueError, match="read-only"):
                stats.raw_M[0, 0] = 1e6
            with pytest.raises(ValueError, match="read-only"):
                stats.raw_u[0] = 1e6

    def test_decayed_stats_stay_read_only_through_pickle(self, default_dictionary, default_config):
        """Unpickling, as an engine state saved and loaded again does, marks
        the moments read-only again: numpy does not pickle the flag.  The
        fields come back equal, bit for bit."""
        d, cfg = default_dictionary, default_config
        state = engine.init(cfg, d, h=math.inf, seed=4)
        for t in range(3):
            engine.step(state, np.full(d.p, 0.05 * t))
        for stats in (DecayedStats.empty(d.k_a), state.stats):
            back = pickle.loads(pickle.dumps(stats))
            for name in ("raw_M", "raw_u"):
                arr = getattr(back, name)
                assert arr.tobytes() == getattr(stats, name).tobytes()
                with pytest.raises(ValueError, match="read-only"):
                    arr.flat[0] = 1e6
            scalars = ("raw_q", "raw_norm", "mass", "n")
            assert [getattr(back, n) for n in scalars] == [getattr(stats, n) for n in scalars]

    def test_posterior_fields_are_read_only(self):
        """A checked, a fitted and an unpickled posterior refuse a write to
        any field, so mu_tilde and spread cannot go stale."""
        d = BasisDictionary(b_b=np.zeros((6, 0)), b_a=np.random.default_rng(3).normal(size=(6, 3)))
        cfg = ModelConfig.homogeneous(
            k_a=3, sigma_e=0.3, sigma_b=0.8, sigma_j=1.5, w=0.2, v=1e-4, decay=0.05, m=2
        )
        checked = SpikeSlabPosterior(mu_a=np.full(3, 0.5), s2=np.ones(3), alpha=np.full(3, 0.5))
        fitted = fit(
            np.array([0.4, -0.2]), np.array([1, 4]), SpikeSlabPosterior.prior(cfg),
            DecayedStats.empty(3), d, cfg,
        ).post
        for post in (checked, fitted, pickle.loads(pickle.dumps(fitted))):
            for name in ("mu_a", "s2", "alpha", "mu_tilde", "spread"):
                with pytest.raises(ValueError, match="read-only"):
                    getattr(post, name)[0] = 100.0
        back = pickle.loads(pickle.dumps(fitted))
        for name in ("mu_a", "s2", "alpha", "mu_tilde", "spread"):
            assert getattr(back, name).tobytes() == getattr(fitted, name).tobytes()
