"""Variational core: decayed stats, coordinate sweeps, bound, background, fit."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import reference_elbo, reference_sweep, stats_from_history
from sparsewatch import (
    BasisDictionary,
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
from sparsewatch.inference import ALPHA_CLAMP, _sweep, _sweep_setup


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
        sizes = {}
        for dictionary, cfg in sweep_cases:
            stats = DecayedStats(
                raw_M=np.eye(cfg.k_a), raw_u=np.zeros(cfg.k_a), raw_q=0.0,
                raw_norm=0.0, mass=1.0, n=1,
            )
            blocks = _sweep_setup(SpikeSlabPosterior.prior(cfg), stats, cfg)[0]
            sizes[cfg.k_a] = [stop - start for start, stop, _, _ in blocks]
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

    def test_reaches_fixed_point(self, default_dictionary, default_config, rng):
        stats, _ = _random_stats(default_dictionary, default_config, rng)
        post = SpikeSlabPosterior.prior(default_config)
        for _ in range(200):
            post = vb_coordinate_sweep(post, stats, default_config)
        again = vb_coordinate_sweep(post, stats, default_config)
        np.testing.assert_allclose(again.mu_a, post.mu_a, atol=1e-12)
        np.testing.assert_allclose(again.alpha, post.alpha, atol=1e-12)


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

    def test_kernel_change_equals_numpy_max(self, sweep_cases, rng):
        """The change a sweep reports is max(|delta mu|, |delta alpha|) as numpy
        computes it from the posteriors before and after."""
        for dictionary, cfg in sweep_cases:
            for _ in range(25):
                stats, _ = _random_stats(dictionary, cfg, rng, n_steps=3)
                post = SpikeSlabPosterior(
                    mu_a=rng.normal(scale=rng.choice([1e-6, 1.0, 1e3]), size=cfg.k_a),
                    s2=np.full(cfg.k_a, 0.5),
                    alpha=rng.uniform(0.0, 1.0, size=cfg.k_a),
                )
                delta = _sweep(*_sweep_setup(post, stats, cfg))
                after = vb_coordinate_sweep(post, stats, cfg)
                want = max(
                    float(np.max(np.abs(after.mu_a - post.mu_a))),
                    float(np.max(np.abs(after.alpha - post.alpha))),
                )
                assert delta == want

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


class TestTypes:
    def test_alpha_clamped_into_open_interval(self):
        post = SpikeSlabPosterior(
            mu_a=np.zeros(2), s2=np.ones(2), alpha=np.array([0.0, 1.0])
        )
        assert 0.0 < post.alpha[0] < post.alpha[1] < 1.0

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
