"""Detection statistics: exact marginals, Bayes factor, monitoring quadratic."""

from __future__ import annotations

import itertools
import json
import math
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

import sparsewatch.geometry as geometry
from oracles import (
    conjugate_h0_logpdf,
    conjugate_h1_logpdf,
    mc_h0_logpdf,
    mp_log_marginals,
    posterior_background_mean,
    quadrature_h0_logpdf,
    reference_subset_score,
)
from sparsewatch import (
    BackgroundPosterior,
    BasisDictionary,
    CapabilityError,
    DataError,
    DetectionInputs,
    DimensionError,
    ModelConfig,
    SpikeSlabPosterior,
    alarm_check,
    lambda_stat,
    log_pbf_exact,
    marginal_h0,
    marginal_h1_exact,
    update_background,
)
from sparsewatch import detection
from sparsewatch.detection import detection_record


def _setup(rng, p=9, k_a=2, k_b=2, m=6, sigma_e=0.3, sigma_b=0.8):
    """Random small problem with a fitted-looking posterior pair."""
    d = BasisDictionary(
        b_b=rng.normal(size=(p, k_b)) if k_b else np.zeros((p, 0)),
        b_a=rng.normal(size=(p, k_a)),
    )
    cfg = ModelConfig.homogeneous(
        k_a=k_a, sigma_e=sigma_e, sigma_b=sigma_b, sigma_j=1.5, w=0.2,
        v=1e-4, decay=0.05, m=m,
    )
    post = SpikeSlabPosterior(
        mu_a=rng.normal(size=k_a),
        s2=rng.uniform(0.05, 0.5, size=k_a),
        alpha=rng.uniform(0.05, 0.95, size=k_a),
    )
    if k_b:
        root = rng.normal(size=(k_b, k_b)) * 0.2
        cov_b = root @ root.T + 0.05 * np.eye(k_b)
        bg = BackgroundPosterior(theta_n=rng.normal(size=k_b), cov_b=cov_b)
    else:
        bg = BackgroundPosterior(theta_n=np.zeros(0), cov_b=np.zeros((0, 0)))
    z = np.sort(rng.choice(p, size=m, replace=False))
    x_z = rng.normal(size=m)
    return d, cfg, post, bg, z, x_z


REFERENCES = [update_background, marginal_h0, marginal_h1_exact, log_pbf_exact]


def _reference(route, d, cfg, post, bg, z, x_z):
    """``route``, one of ``REFERENCES``, on one observation, as floats."""
    if route is update_background:
        fitted = update_background(x_z, z, post, d, cfg)
        return fitted.theta_n.tolist() + fitted.cov_b.ravel().tolist()
    return route(DetectionInputs(x_z=x_z, z=z, post=post, bg=bg), d, cfg)


class TestMarginalH0:
    def test_matches_dense_gaussian(self, rng):
        """Closed form equals the single dense Gaussian with the background
        integrated out analytically."""
        for _ in range(10):
            d, cfg, post, bg, z, x_z = _setup(rng)
            inp = DetectionInputs(x_z=x_z, z=z, post=post, bg=bg)
            theta0 = posterior_background_mean(x_z, d.b_b[z], cfg.sigma_e, cfg.sigma_b)
            ref = conjugate_h0_logpdf(x_z, d.b_b[z], theta0, bg.cov_b, cfg.sigma_e)
            assert marginal_h0(inp, d, cfg) == pytest.approx(ref, rel=1e-10)

    def test_matches_quadrature_scalar_background(self, rng):
        d, cfg, post, bg, z, x_z = _setup(rng, k_b=1)
        inp = DetectionInputs(x_z=x_z, z=z, post=post, bg=bg)
        theta0 = posterior_background_mean(x_z, d.b_b[z], cfg.sigma_e, cfg.sigma_b)
        ref = quadrature_h0_logpdf(x_z, d.b_b[z], theta0, bg.cov_b, cfg.sigma_e)
        assert marginal_h0(inp, d, cfg) == pytest.approx(ref, rel=1e-6)

    def test_within_monte_carlo_error(self, rng):
        d, cfg, post, bg, z, x_z = _setup(rng)
        inp = DetectionInputs(x_z=x_z, z=z, post=post, bg=bg)
        theta0 = posterior_background_mean(x_z, d.b_b[z], cfg.sigma_e, cfg.sigma_b)
        est, se = mc_h0_logpdf(
            x_z, d.b_b[z], theta0, bg.cov_b, cfg.sigma_e,
            n_draws=200_000, seed=7,
        )
        assert abs(marginal_h0(inp, d, cfg) - est) <= 3.0 * se

    def test_no_background_is_pure_noise_density(self, rng):
        d, cfg, post, bg, z, x_z = _setup(rng, k_b=0)
        inp = DetectionInputs(x_z=x_z, z=z, post=post, bg=bg)
        ref = sum(
            -0.5 * (math.log(2.0 * math.pi * cfg.sigma_e**2) + xi**2 / cfg.sigma_e**2)
            for xi in x_z
        )
        assert marginal_h0(inp, d, cfg) == pytest.approx(ref, rel=1e-12)


class TestMarginalH1:
    def test_matches_mixture_oracle(self, rng):
        """Block elimination equals the explicit Gaussian mixture over every
        inclusion pattern."""
        for _ in range(10):
            d, cfg, post, bg, z, x_z = _setup(rng)
            inp = DetectionInputs(x_z=x_z, z=z, post=post, bg=bg)
            ref = conjugate_h1_logpdf(
                x_z, d.b_a[z], d.b_b[z], post.mu_a, post.s2, post.alpha,
                bg.theta_n, bg.cov_b, cfg.sigma_e, cfg.v,
            )
            assert marginal_h1_exact(inp, d, cfg) == pytest.approx(ref, rel=1e-10)

    def test_matches_mixture_oracle_no_background(self, rng):
        d, cfg, post, bg, z, x_z = _setup(rng, k_b=0, k_a=3)
        inp = DetectionInputs(x_z=x_z, z=z, post=post, bg=bg)
        ref = conjugate_h1_logpdf(
            x_z, d.b_a[z], d.b_b[z], post.mu_a, post.s2, post.alpha,
            bg.theta_n, bg.cov_b, cfg.sigma_e, cfg.v,
        )
        assert marginal_h1_exact(inp, d, cfg) == pytest.approx(ref, rel=1e-10)

    def test_bayes_factor_equals_marginal_difference(self, rng):
        """The cancellation-assembled factor agrees with subtracting the two
        marginals outright."""
        for k_b in (0, 1, 2):
            d, cfg, post, bg, z, x_z = _setup(rng, k_b=k_b)
            inp = DetectionInputs(x_z=x_z, z=z, post=post, bg=bg)
            direct = marginal_h1_exact(inp, d, cfg) - marginal_h0(inp, d, cfg)
            assert log_pbf_exact(inp, d, cfg) == pytest.approx(direct, abs=1e-9)

    def test_vanishing_anomaly_gives_near_zero_factor(self, rng):
        """With a zero anomaly mean, a near-point-mass variational family and
        the background centered on its anomaly-free refit, both hypotheses
        describe the same distribution."""
        d, cfg, post, bg, z, x_z = _setup(rng)
        post = SpikeSlabPosterior(
            mu_a=np.zeros(2), s2=np.full(2, 1e-12), alpha=np.full(2, 0.5)
        )
        theta0 = posterior_background_mean(x_z, d.b_b[z], cfg.sigma_e, cfg.sigma_b)
        bg = BackgroundPosterior(theta_n=theta0, cov_b=bg.cov_b)
        inp = DetectionInputs(x_z=x_z, z=z, post=post, bg=bg)
        assert abs(log_pbf_exact(inp, d, cfg)) < 1e-6

    @pytest.mark.parametrize("k_b", [0, 2])
    def test_enumeration_across_pattern_chunks(self, rng, k_b):
        """With more inclusion patterns than one stacked chunk holds, the
        chunked sum still equals the explicit mixture, and the Bayes factor
        still equals the marginal difference."""
        k_a = 9
        assert 1 << k_a > detection._PATTERN_CHUNK
        d, cfg, post, bg, z, x_z = _setup(rng, p=14, k_a=k_a, k_b=k_b, m=7)
        inp = DetectionInputs(x_z=x_z, z=z, post=post, bg=bg)
        ref = conjugate_h1_logpdf(
            x_z, d.b_a[z], d.b_b[z], post.mu_a, post.s2, post.alpha,
            bg.theta_n, bg.cov_b, cfg.sigma_e, cfg.v,
        )
        h1 = marginal_h1_exact(inp, d, cfg)
        assert h1 == pytest.approx(ref, rel=1e-10)
        direct = h1 - marginal_h0(inp, d, cfg)
        assert log_pbf_exact(inp, d, cfg) == pytest.approx(direct, abs=1e-9)

    @pytest.mark.parametrize("m, k_b", [(1, 2), (1, 3), (2, 3)])
    def test_fewer_observed_rows_than_background_columns(self, rng, m, k_b):
        """With m < k_b the observed background rows are rank-deficient;
        the background prior keeps each joint precision positive definite,
        and all three routes still equal the dense-Gaussian oracles."""
        for _ in range(5):
            d, cfg, post, bg, z, x_z = _setup(rng, p=9, k_a=3, k_b=k_b, m=m)
            inp = DetectionInputs(x_z=x_z, z=z, post=post, bg=bg)
            theta0 = posterior_background_mean(x_z, d.b_b[z], cfg.sigma_e, cfg.sigma_b)
            h0 = conjugate_h0_logpdf(x_z, d.b_b[z], theta0, bg.cov_b, cfg.sigma_e)
            h1 = conjugate_h1_logpdf(
                x_z, d.b_a[z], d.b_b[z], post.mu_a, post.s2, post.alpha,
                bg.theta_n, bg.cov_b, cfg.sigma_e, cfg.v,
            )
            assert marginal_h0(inp, d, cfg) == pytest.approx(h0, rel=1e-10)
            assert marginal_h1_exact(inp, d, cfg) == pytest.approx(h1, rel=1e-10)
            assert log_pbf_exact(inp, d, cfg) == pytest.approx(h1 - h0, abs=1e-9)

    def test_too_many_anomaly_columns_refused(self, rng):
        d, cfg, post, bg, z, x_z = _setup(rng, p=25, k_a=21, m=4)
        inp = DetectionInputs(x_z=x_z, z=z, post=post, bg=bg)
        with pytest.raises(CapabilityError):
            marginal_h1_exact(inp, d, cfg)
        with pytest.raises(CapabilityError):
            log_pbf_exact(inp, d, cfg)


# (sigma_e, v, k_b, m, |B_bZ·theta|): model-consistent observations
# x = B_bZ·theta + sigma_e·noise on p = 10, k_a = 3, with m < k_b in three.
_PRECISION_CASES = [
    (0.05, 1e-7, 3, 6, 15.0), (0.05, 1e-4, 3, 6, 15.0), (0.05, 1e-7, 2, 5, 10.0),
    (0.05, 1e-4, 1, 4, 12.0), (0.05, 1e-7, 3, 2, 8.0), (0.05, 1e-4, 2, 1, 5.0),
    (0.05, 1e-7, 0, 5, 0.0), (0.1, 1e-7, 3, 7, 15.0), (0.1, 1e-4, 2, 4, 6.0),
    (0.1, 1e-7, 1, 3, 3.0), (0.3, 1e-4, 3, 5, 15.0), (0.3, 1e-7, 3, 1, 2.0),
    (0.3, 1e-4, 0, 4, 0.0), (1.0, 1e-7, 3, 6, 15.0), (1.0, 1e-4, 2, 3, 4.0),
    (1.0, 1e-7, 1, 5, 1.0), (0.05, 1e-7, 3, 8, 15.0), (0.2, 1e-4, 2, 2, 9.0),
]


class TestHighPrecision:
    @pytest.mark.parametrize("case", range(len(_PRECISION_CASES)))
    def test_routes_match_40_digit_reference(self, case):
        """All three exact routes equal a 40-digit evaluation of the m-space
        densities within 1e-12·max(1, |value|).  At sigma_e = 0.05 and
        |x| = 15, x'x/sigma_e^2 is 9e4, so a route that forms x'x and
        subtracts terms of its size loses about four digits."""
        sigma_e, v, k_b, m, size = _PRECISION_CASES[case]
        rng = np.random.default_rng(100 + case)
        p, k_a = 10, 3
        d = BasisDictionary(
            b_b=rng.normal(size=(p, k_b)) if k_b else np.zeros((p, 0)),
            b_a=rng.normal(size=(p, k_a)),
        )
        cfg = ModelConfig.homogeneous(
            k_a=k_a, sigma_e=sigma_e, sigma_b=0.8, sigma_j=1.5, w=0.2, v=v,
            decay=0.1, m=m,
        )
        z = np.sort(rng.choice(p, size=m, replace=False))
        signal = np.zeros(m)
        if k_b:
            signal = d.b_b[z] @ rng.normal(size=k_b)
            signal *= size / np.linalg.norm(signal)
        x_z = signal + sigma_e * rng.normal(size=m)
        post = SpikeSlabPosterior(
            mu_a=rng.normal(size=k_a),
            s2=rng.uniform(0.05, 0.5, size=k_a),
            alpha=rng.uniform(0.05, 0.95, size=k_a),
        )
        bg = update_background(x_z, z, post, d, cfg)
        inp = DetectionInputs(x_z=x_z, z=z, post=post, bg=bg)
        h0, h1 = mp_log_marginals(
            x_z, d.b_a[z], d.b_b[z], post.mu_a, post.s2, post.alpha,
            bg.theta_n, bg.cov_b, cfg.sigma_e2, cfg.sigma_b2, cfg.v,
        )
        for route, ref in (
            (marginal_h0, h0), (marginal_h1_exact, h1), (log_pbf_exact, h1 - h0)
        ):
            ref = float(ref)
            assert abs(route(inp, d, cfg) - ref) <= 1e-12 * max(1.0, abs(ref)), route.__name__


class TestLambdaStat:
    def test_exactly_zero_at_null_posterior(self, rng):
        """No fitted anomaly mean means a statistic of exactly 0.0."""
        d, cfg, post, bg, z, x_z = _setup(rng)
        null_post = SpikeSlabPosterior(
            mu_a=np.zeros(2), s2=post.s2, alpha=post.alpha
        )
        inp = DetectionInputs(x_z=x_z, z=z, post=null_post, bg=bg)
        assert lambda_stat(inp, d, cfg) == 0.0

    def test_frozen_no_background_value(self):
        """b_a = [[1,0],[0,1],[1,1]], mu = (1,2), certain inclusion:
        2 mu'B'x - mu'B'B mu = 12 - 14 = -2."""
        d = BasisDictionary(
            b_b=np.zeros((3, 0)),
            b_a=np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]]),
        )
        cfg = ModelConfig.homogeneous(
            k_a=2, sigma_e=1.0, sigma_b=1.0, sigma_j=1.0, w=0.5,
            v=0.5, decay=0.1, m=3,
        )
        post = SpikeSlabPosterior(
            mu_a=np.array([1.0, 2.0]), s2=np.ones(2), alpha=np.ones(2)
        )
        bg = BackgroundPosterior(theta_n=np.zeros(0), cov_b=np.zeros((0, 0)))
        inp = DetectionInputs(x_z=np.ones(3), z=[0, 1, 2], post=post, bg=bg)
        assert lambda_stat(inp, d, cfg) == pytest.approx(-2.0, abs=1e-8)

    def test_matches_dense_projection_route(self, rng):
        """Gram-solve projection equals the explicit pseudoinverse route on
        the background-residual observation."""
        for _ in range(10):
            d, cfg, post, bg, z, x_z = _setup(rng)
            inp = DetectionInputs(x_z=x_z, z=z, post=post, bg=bg)
            resid_full = np.zeros(d.p)
            resid_full[z] = x_z - d.b_b[z] @ bg.theta_n
            ref = reference_subset_score(
                z, resid_full, d.b_a, d.b_b, post.mu_a, post.s2, post.alpha
            )
            assert lambda_stat(inp, d, cfg) == pytest.approx(ref, rel=1e-9)

    @pytest.mark.parametrize("k_b, m", [(0, 5), (2, 6), (3, 2)])
    def test_is_twice_sigma_e2_expected_log_likelihood_ratio(self, rng, k_b, m):
        """lambda_stat = 2·sigma_e^2·E_q[log p(x|theta_a) − log p(x|0)] with
        W replaced by I − P and the variance term Σ_j (B_aZ'B_aZ)_jj·
        alpha_j(1 − alpha_j)·mu_j^2.  That variance is q's with the slab
        and spike variances dropped, each theta_j being mu_j with
        probability alpha_j and 0 otherwise; enumerated densely over those
        2^k_a points, the expectation projects its variance term, which
        the statistic does not, so the dense route adds the projection back."""
        d, cfg, post, bg, z, x_z = _setup(rng, p=9, k_a=3, k_b=k_b, m=m)
        b_a_z, b_b_z = d.b_a[z], d.b_b[z]
        resid_proj = np.eye(m) - b_b_z @ np.linalg.pinv(b_b_z)  # I − P

        def log_lik(theta):  # with whitening I − P, up to a theta-free constant
            r = x_z - b_a_z @ theta
            return -0.5 * r @ resid_proj @ r / cfg.sigma_e2

        expected = 0.0
        for r in itertools.product((0, 1), repeat=3):
            r = np.array(r)
            weight = np.prod(np.where(r == 1, post.alpha, 1.0 - post.alpha))
            expected += weight * (log_lik(post.mu_a * r) - log_lik(np.zeros(3)))
        proj_diag = np.diag(b_a_z.T @ (np.eye(m) - resid_proj) @ b_a_z)
        dense = 2.0 * cfg.sigma_e2 * expected - proj_diag @ post.spread
        assert lambda_stat(DetectionInputs(x_z=x_z, z=z, post=post), d, cfg) == pytest.approx(
            dense, rel=1e-10, abs=1e-12
        )

    def test_rank_deficient_observed_rows_fall_back(self, rng):
        """A full-rank background whose observed rows collapse to rank one
        trips the SVD path and still matches the pseudoinverse projection."""
        b_b = np.array(
            [[1.0, 0.0], [1.0, 0.0], [1.0, 0.0], [1.0, 0.0], [0.0, 1.0]]
        )
        d = BasisDictionary(b_b=b_b, b_a=rng.normal(size=(5, 2)))
        cfg = ModelConfig.homogeneous(
            k_a=2, sigma_e=0.3, sigma_b=0.8, sigma_j=1.5, w=0.2,
            v=1e-4, decay=0.05, m=4,
        )
        post = SpikeSlabPosterior(
            mu_a=rng.normal(size=2),
            s2=np.full(2, 0.2),
            alpha=np.full(2, 0.5),
        )
        bg = BackgroundPosterior(theta_n=np.array([0.3, -0.1]), cov_b=np.eye(2))
        z = np.array([0, 1, 2, 3])
        x_z = rng.normal(size=4)
        inp = DetectionInputs(x_z=x_z, z=z, post=post, bg=bg)
        resid_full = np.zeros(5)
        resid_full[z] = x_z - d.b_b[z] @ bg.theta_n
        ref = reference_subset_score(
            z, resid_full, d.b_a, d.b_b, post.mu_a, post.s2, post.alpha
        )
        assert lambda_stat(inp, d, cfg) == pytest.approx(ref, rel=1e-9)

    def test_all_zero_background_rows_project_to_nothing(self, rng):
        """Observed rows that zero out the background behave like k_b = 0."""
        p = 6
        b_b = np.zeros((p, 2))
        b_b[1] = [1.0, 0.0]
        b_b[3] = [0.0, 1.0]
        b_b[5] = [1.0, 1.0]
        b_a = rng.normal(size=(p, 2))
        d = BasisDictionary(b_b=b_b, b_a=b_a)
        d0 = BasisDictionary(b_b=np.zeros((p, 0)), b_a=b_a)
        cfg = ModelConfig.homogeneous(
            k_a=2, sigma_e=0.3, sigma_b=0.8, sigma_j=1.5, w=0.2,
            v=1e-4, decay=0.05, m=3,
        )
        post = SpikeSlabPosterior(
            mu_a=rng.normal(size=2), s2=np.full(2, 0.2), alpha=np.full(2, 0.6)
        )
        z = np.array([0, 2, 4])
        x_z = rng.normal(size=3)
        with_bg = lambda_stat(
            DetectionInputs(
                x_z=x_z, z=z, post=post,
                bg=BackgroundPosterior(theta_n=np.zeros(2), cov_b=np.eye(2)),
            ),
            d,
            cfg,
        )
        without = lambda_stat(
            DetectionInputs(
                x_z=x_z, z=z, post=post, bg=BackgroundPosterior(theta_n=np.zeros(0), cov_b=np.zeros((0, 0)))
            ),
            d0,
            cfg,
        )
        assert with_bg == pytest.approx(without, rel=1e-12)


class TestAlarmAndRecords:
    def test_alarm_is_strict(self):
        assert alarm_check(1.0001, 1.0)
        assert not alarm_check(1.0, 1.0)
        assert not alarm_check(0.9999, 1.0)
        assert alarm_check(0.0, -1e9)

    def test_record_round_trips_through_json(self):
        rec = detection_record(3, np.array([1, 4, 7]), -0.5, False)
        back = json.loads(json.dumps(rec, sort_keys=True))
        assert back == {"step": 3, "z": [1, 4, 7], "stat": -0.5, "alarmed": False}


class TestValidation:
    def test_duplicate_subset_rejected(self, rng):
        """The subset is checked once, when its geometry is built."""
        d, cfg, post, bg, z, x_z = _setup(rng)
        inp = DetectionInputs(x_z=x_z, z=[0, 0, 1, 2, 3, 4], post=post, bg=bg)
        with pytest.raises(DimensionError):
            lambda_stat(inp, d, cfg)

    @pytest.mark.parametrize("route", REFERENCES)
    @pytest.mark.parametrize(
        "z, error",
        [
            ([0, 0, 1, 2, 3, 4], DimensionError),
            ([0, 1, 2, 3, 4, 9], IndexError),
            ([0, 1, 2, 3, 4, -1], IndexError),
        ],
        ids=["repeated", "past-p", "negative"],
    )
    def test_references_refuse_a_bad_subset(self, rng, route, z, error):
        """The background refit and the exact routes check their subset
        themselves, so a repeated, too large or negative index is refused,
        not wrapped or read twice."""
        d, cfg, post, bg, _, x_z = _setup(rng)
        with pytest.raises(error):
            _reference(route, d, cfg, post, bg, z, x_z)

    @pytest.mark.parametrize("route", REFERENCES)
    def test_references_look_no_geometry_up(self, rng, route, monkeypatch):
        """The references cross-check the monitoring step's cached geometry,
        so they run, with the same result, when every lookup raises."""
        d, cfg, post, bg, z, x_z = _setup(rng)
        want = _reference(route, d, cfg, post, bg, z, x_z)

        def refuse(*args):
            raise AssertionError("a reference looked a subset geometry up")

        monkeypatch.setattr(geometry._CACHE, "lookup", refuse)
        assert _reference(route, d, cfg, post, bg, z, x_z) == want

    @pytest.mark.parametrize("route", [marginal_h0, marginal_h1_exact, log_pbf_exact])
    @pytest.mark.parametrize("k_b", [0, 2])
    def test_exact_routes_need_a_background(self, rng, route, k_b):
        d, cfg, post, bg, z, x_z = _setup(rng, k_b=k_b)
        with pytest.raises(DataError, match="background posterior"):
            route(DetectionInputs(x_z=x_z, z=z, post=post), d, cfg)

    @pytest.mark.parametrize("route", [marginal_h0, marginal_h1_exact, log_pbf_exact])
    @pytest.mark.parametrize(
        "cov_b",
        [
            [[1.0, 1.0], [1.0, 1.0]],
            [[1.0, 2.0], [2.0, 1.0]],
            [[0.0, 0.0], [0.0, 1.0]],
            [[np.nan, 0.0], [0.0, 1.0]],
            [[1.0, np.nan], [0.0, 1.0]],
        ],
        ids=["singular", "indefinite", "zero-variance", "nan", "nan-upper"],
    )
    def test_background_covariance_must_be_positive_definite(self, rng, route, cov_b):
        d, cfg, post, bg, z, x_z = _setup(rng, k_b=2)
        bad = BackgroundPosterior(theta_n=bg.theta_n, cov_b=np.array(cov_b))
        with pytest.raises(DataError, match="background covariance"):
            route(DetectionInputs(x_z=x_z, z=z, post=post, bg=bad), d, cfg)

    @pytest.mark.parametrize("route", [lambda_stat, marginal_h0, marginal_h1_exact, log_pbf_exact])
    def test_posterior_of_another_size_refused(self, rng, route):
        d, cfg, post, bg, z, x_z = _setup(rng, k_a=2)
        other = SpikeSlabPosterior(mu_a=np.zeros(3), s2=np.ones(3), alpha=np.full(3, 0.5))
        with pytest.raises(DimensionError, match="posterior dimensions disagree with the dictionary"):
            route(DetectionInputs(x_z=x_z, z=z, post=other, bg=bg), d, cfg)

    @pytest.mark.parametrize("route", [marginal_h0, marginal_h1_exact, log_pbf_exact])
    def test_background_posterior_of_another_size_refused(self, rng, route):
        d, cfg, post, bg, z, x_z = _setup(rng, k_b=2)
        other = BackgroundPosterior(theta_n=np.zeros(3), cov_b=np.eye(3))
        with pytest.raises(DimensionError, match="background posterior disagrees with the dictionary"):
            route(DetectionInputs(x_z=x_z, z=z, post=post, bg=other), d, cfg)

    @pytest.mark.parametrize("route", [marginal_h1_exact, log_pbf_exact])
    def test_nan_observation_passes_through_the_exact_routes(self, rng, route):
        """Every pattern's evidence is NaN, and the log-sum-exp passes a NaN
        largest term through rather than shifting by it."""
        d, cfg, post, bg, z, x_z = _setup(rng)
        x_z[0] = math.nan
        assert math.isnan(route(DetectionInputs(x_z=x_z, z=z, post=post, bg=bg), d, cfg))

    def test_statistic_does_not_read_the_background(self, rng):
        d, cfg, post, bg, z, x_z = _setup(rng)
        without = DetectionInputs(x_z=x_z, z=z, post=post)
        assert without.bg is None
        assert lambda_stat(without, d, cfg) == lambda_stat(
            DetectionInputs(x_z=x_z, z=z, post=post, bg=bg), d, cfg
        )

    def test_length_mismatch_rejected(self, rng):
        d, cfg, post, bg, z, x_z = _setup(rng)
        with pytest.raises(DimensionError):
            DetectionInputs(x_z=x_z[:-1], z=z, post=post, bg=bg)

    def test_empty_subset_rejected(self, rng):
        d, cfg, post, bg, z, x_z = _setup(rng)
        with pytest.raises(DimensionError):
            DetectionInputs(x_z=np.zeros(0), z=[], post=post, bg=bg)

    def test_out_of_range_index_rejected(self, rng):
        d, cfg, post, bg, z, x_z = _setup(rng)
        inp = DetectionInputs(
            x_z=x_z, z=[0, 1, 2, 3, 4, 50], post=post, bg=bg
        )
        with pytest.raises(IndexError):
            lambda_stat(inp, d, cfg)


class TestImportPath:
    def test_monitoring_and_exact_routes_import_no_scipy(self):
        """A fresh interpreter that monitors with both samplers and computes
        the exact Bayes factor never imports scipy, whose import would
        dominate the start-up time, nor mpmath, which only the tests'
        high-precision reference needs."""
        src = Path(__file__).resolve().parents[1] / "src"
        script = textwrap.dedent(
            """
            import sys
            import numpy as np
            import sparsewatch
            from sparsewatch import engine, detection, inference
            from sparsewatch.simgen import Scenario, gen_stream

            d = sparsewatch.BasisDictionary(
                b_b=sparsewatch.fourier_basis(8, 2),
                b_a=sparsewatch.bspline_basis(8, 4, 9, normalize_columns=True),
            )
            cfg = inference.ModelConfig.homogeneous(
                k_a=d.k_a, sigma_e=0.05, sigma_b=0.3, sigma_j=3.0, w=0.1,
                v=1e-7, decay=0.1, m=3,
            )
            stream = gen_stream(Scenario(dictionary=d, cfg=cfg, tau=None, horizon=20), 1)
            for sampler in ("thompson", "oracle"):
                state = engine.init(cfg, d, h=np.inf, seed=2, sampler=sampler)
                for row in stream:
                    z = state.plan.z
                    engine.step(state, row)
            x_z = stream[-1][z]
            bg = inference.update_background(x_z, z, state.post, d, cfg)
            inp = detection.DetectionInputs(x_z=x_z, z=z, post=state.post, bg=bg)
            assert np.isfinite(detection.log_pbf_exact(inp, d, cfg))
            print(sorted(m for m in sys.modules if m.split(".")[0] in ("scipy", "mpmath")))
            """
        )
        env = {**os.environ, "PYTHONPATH": str(src)}
        out = subprocess.run(
            [sys.executable, "-c", script], env=env, capture_output=True,
            text=True, timeout=120,
        )
        assert out.returncode == 0, out.stderr
        assert out.stdout.strip() == "[]"
