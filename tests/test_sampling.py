"""Adaptive sensing: posterior draws, per-variable scores, subset selection."""

from __future__ import annotations

from itertools import combinations

import numpy as np
import pytest

from oracles import reference_select_top_m, reference_subset_score
from sparsewatch import (
    BasisDictionary,
    CapabilityError,
    DimensionError,
    ModelConfig,
    NumericalError,
    OracleScorer,
    Scenario,
    SpikeSlabPosterior,
    draw_anomaly_sample,
    gen_stream,
    init,
    score_variables,
    select_top_m,
    step,
    synthesize_anomaly_signal,
)


BAD_BUDGETS = pytest.mark.parametrize(
    "m, message",
    [
        (2.5, "sensing budget m must be an integer of at least 1, got 2.5"),
        (True, "sensing budget m must be an integer of at least 1, got True"),
        (0, "sensing budget m must be an integer of at least 1, got 0"),
    ],
    ids=["fraction", "bool", "zero"],
)


def _cfg(k_a, m, v=1e-6, sigma_e=0.3):
    return ModelConfig.homogeneous(
        k_a=k_a, sigma_e=sigma_e, sigma_b=0.8, sigma_j=1.5, w=0.2,
        v=v, decay=0.05, m=m,
    )


class TestDrawAnomalySample:
    def test_inclusion_frequencies_track_alpha(self):
        """With a wide gap between slab and spike, the fraction of slab-scale
        draws per coordinate matches the inclusion probability."""
        post = SpikeSlabPosterior(
            mu_a=np.full(3, 10.0),
            s2=np.ones(3),
            alpha=np.array([0.2, 0.5, 0.8]),
        )
        cfg = _cfg(3, 2)
        rng = np.random.default_rng(11)
        n = 20_000
        hits = np.zeros(3)
        for _ in range(n):
            theta = draw_anomaly_sample(post, cfg, rng)
            hits += np.abs(theta) > 5.0
        freq = hits / n
        bound = 3.0 * np.sqrt(post.alpha * (1 - post.alpha) / n)
        assert np.all(np.abs(freq - post.alpha) <= bound)

    def test_consumes_one_uniform_then_one_normal_vector(self):
        """The draw is a deterministic function of exactly one uniform and one
        normal vector of length k_a, in that order."""
        post = SpikeSlabPosterior(
            mu_a=np.array([1.0, -2.0, 0.5]),
            s2=np.array([0.3, 0.1, 0.7]),
            alpha=np.array([0.4, 0.6, 0.9]),
        )
        cfg = _cfg(3, 2, v=1e-4)
        rng = np.random.default_rng(5)
        theta = draw_anomaly_sample(post, cfg, rng)

        rng2 = np.random.default_rng(5)
        include = rng2.random(3) < post.alpha
        noise = rng2.standard_normal(3)
        expected = np.where(
            include,
            post.mu_a + np.sqrt(post.s2) * noise,
            np.sqrt(cfg.v * post.s2) * noise,
        )
        np.testing.assert_array_equal(theta, expected)
        # Both generators must now be at the same stream position.
        assert rng.random() == rng2.random()

    def test_spike_draws_are_shrunk_slab_noise(self):
        post = SpikeSlabPosterior(
            mu_a=np.zeros(2), s2=np.full(2, 4.0), alpha=np.full(2, 1e-9)
        )
        cfg = _cfg(2, 1, v=1e-4)
        rng = np.random.default_rng(3)
        draws = np.array([draw_anomaly_sample(post, cfg, rng) for _ in range(4000)])
        sd = draws.std(axis=0)
        np.testing.assert_allclose(sd, np.sqrt(1e-4 * 4.0), rtol=0.1)


class TestSynthesizeAnomalySignal:
    def test_is_anomaly_image_plus_noise(self, rng):
        d = BasisDictionary(
            b_b=rng.normal(size=(7, 2)), b_a=rng.normal(size=(7, 3))
        )
        cfg = _cfg(3, 2)
        theta = np.array([1.0, -0.5, 2.0])
        r1 = np.random.default_rng(9)
        x1 = synthesize_anomaly_signal(theta, d, cfg, r1)
        r2 = np.random.default_rng(9)
        expected = d.b_a @ theta + cfg.sigma_e * r2.standard_normal(7)
        np.testing.assert_array_equal(x1, expected)

    def test_background_never_enters(self, rng):
        """Even with large background columns the synthesized signal carries
        only the anomaly image once the noise is negligible."""
        d = BasisDictionary(
            b_b=100.0 * rng.normal(size=(6, 2)), b_a=rng.normal(size=(6, 2))
        )
        cfg = _cfg(2, 2, sigma_e=1e-12)
        theta = np.array([0.5, 1.5])
        x1 = synthesize_anomaly_signal(theta, d, cfg, np.random.default_rng(0))
        np.testing.assert_allclose(x1, d.b_a @ theta, atol=1e-9)

    def test_wrong_length_rejected(self, rng):
        d = BasisDictionary(b_b=np.zeros((4, 0)), b_a=rng.normal(size=(4, 2)))
        with pytest.raises(DimensionError):
            synthesize_anomaly_signal(np.ones(3), d, _cfg(2, 2), rng)


class TestScoreVariables:
    def test_frozen_two_variable_case(self):
        """b_a = [[1],[2]], mu = 3, alpha = 1/2, x1 = (1,1):
        y = (1.5, 3), spread = 2.25, scores = (-1.5, -12)."""
        d = BasisDictionary(b_b=np.zeros((2, 0)), b_a=np.array([[1.0], [2.0]]))
        post = SpikeSlabPosterior(
            mu_a=np.array([3.0]), s2=np.ones(1), alpha=np.array([0.5])
        )
        scores = score_variables(np.ones(2), post, d)
        np.testing.assert_allclose(scores, [-1.5, -12.0], atol=1e-12)

    def test_subset_sums_equal_dense_route(self, rng):
        """Without background columns the statistic of any subset is the sum
        of its variables' scores."""
        p = 9
        d = BasisDictionary(b_b=np.zeros((p, 0)), b_a=rng.normal(size=(p, 3)))
        post = SpikeSlabPosterior(
            mu_a=rng.normal(size=3),
            s2=rng.uniform(0.1, 1.0, size=3),
            alpha=rng.uniform(0.1, 0.9, size=3),
        )
        x1 = rng.normal(size=p)
        scores = score_variables(x1, post, d)
        for z in [(0, 1, 2), (4, 7, 8), (1, 3, 5), (0, 8, 2)]:
            ref = reference_subset_score(
                np.sort(z), x1, d.b_a, d.b_b, post.mu_a, post.s2, post.alpha
            )
            assert scores[list(z)].sum() == pytest.approx(ref, rel=1e-12)

    def test_wrong_length_rejected(self, rng):
        d = BasisDictionary(b_b=np.zeros((4, 0)), b_a=rng.normal(size=(4, 2)))
        post = SpikeSlabPosterior.prior(_cfg(2, 2))
        with pytest.raises(DimensionError):
            score_variables(np.ones(3), post, d)


class TestSelectTopM:
    def test_distinct_scores_pick_exact_top_set(self, rng):
        scores = np.array([0.3, -1.0, 2.5, 0.9, 2.4, -0.2])
        plan = select_top_m(scores, 3, rng)
        np.testing.assert_array_equal(plan.z, [2, 3, 4])
        np.testing.assert_array_equal(plan.scores, scores)

    def test_ties_enter_uniformly(self):
        """All-equal scores must give every variable the same chance."""
        p, m, trials = 6, 2, 6000
        rng = np.random.default_rng(123)
        counts = np.zeros(p)
        for _ in range(trials):
            plan = select_top_m(np.zeros(p), m, rng)
            counts[plan.z] += 1
        freq = counts / trials
        assert np.all(np.abs(freq - m / p) < 0.03)

    def test_partial_tie_at_the_cut(self):
        """A tie crossing the budget boundary randomizes only the tied tail."""
        scores = np.array([5.0, 1.0, 1.0, 1.0, -2.0])
        rng = np.random.default_rng(7)
        seen = set()
        for _ in range(200):
            plan = select_top_m(scores, 2, rng)
            assert 0 in plan.z
            tied = set(plan.z) - {0}
            assert tied <= {1, 2, 3}
            seen |= tied
        assert seen == {1, 2, 3}

    @pytest.mark.parametrize(
        "case",
        [
            "distinct", "tie_at_cut", "tie_inside", "all_equal", "signed_zeros",
            "inf", "few_nan", "many_nan", "all_nan", "m_is_1", "m_is_p",
        ],
    )
    @pytest.mark.parametrize("p", [15, 400])
    def test_matches_the_permutation_ranked_sort(self, case, p):
        """The subset, its dtype and the generator's state after the call
        equal the full permutation-ranked sort's, at and away from ties."""
        rng = np.random.default_rng(p)
        m = {"m_is_1": 1, "m_is_p": p}.get(case, 5 if p == 15 else 20)
        for trial in range(20):
            scores = rng.normal(size=p)
            order = np.argsort(-scores)
            if case == "tie_at_cut":  # the m-th and (m+1)-th largest tie
                scores[order[m]] = scores[order[m - 1]]
            elif case == "tie_inside":  # a tie above the cut only
                scores[order[1]] = scores[order[0]]
            elif case == "all_equal":
                scores[:] = 0.25
            elif case == "signed_zeros":  # +0.0 and -0.0 straddle the cut
                scores[order[m - 1]], scores[order[m]] = 0.0, -0.0
                scores[order[m + 1 :]] = -np.abs(scores[order[m + 1 :]]) - 1.0
                scores[order[: m - 1]] = np.abs(scores[order[: m - 1]]) + 1.0
            elif case == "inf":
                scores[rng.choice(p, 3, replace=False)] = np.inf
                scores[rng.choice(p, 3, replace=False)] = -np.inf
            elif case == "few_nan":
                scores[rng.choice(p, 3, replace=False)] = np.nan
            elif case == "many_nan":  # fewer than m numbers
                scores[rng.choice(p, p - m + 2, replace=False)] = np.nan
            elif case == "all_nan":
                scores[:] = np.nan
            seed = int(rng.integers(1 << 32))
            got_rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
            plan = select_top_m(scores, m, got_rng)
            want = reference_select_top_m(scores, m, ref_rng)
            assert plan.z.dtype == want.dtype == np.intp
            np.testing.assert_array_equal(plan.z, want)
            assert got_rng.bit_generator.state == ref_rng.bit_generator.state
            assert got_rng.random() == ref_rng.random()

    def test_budget_out_of_range_rejected(self, rng):
        with pytest.raises(DimensionError):
            select_top_m(np.zeros(4), 0, rng)
        with pytest.raises(DimensionError):
            select_top_m(np.zeros(4), 5, rng)

    @BAD_BUDGETS
    def test_budget_that_is_not_a_count_named(self, rng, m, message):
        """m = True sensed one variable."""
        with pytest.raises(DimensionError, match=message):
            select_top_m(np.arange(4.0), m, rng)

    def test_budget_one_past_p_named(self, rng):
        with pytest.raises(DimensionError, match=r"sensing budget m must lie in \[1, 4\], got 5"):
            select_top_m(np.arange(4.0), 5, rng)


class TestOracleScorer:
    def _problem(self, rng, p=7, k_a=3, k_b=2):
        d = BasisDictionary(
            b_b=rng.normal(size=(p, k_b)) if k_b else np.zeros((p, 0)),
            b_a=rng.normal(size=(p, k_a)),
        )
        post = SpikeSlabPosterior(
            mu_a=rng.normal(size=k_a),
            s2=rng.uniform(0.1, 1.0, size=k_a),
            alpha=rng.uniform(0.1, 0.9, size=k_a),
        )
        return d, post, rng.normal(size=p)

    def test_scores_match_dense_route_with_background(self, rng):
        d, post, x1 = self._problem(rng)
        scorer = OracleScorer(d, 3)
        scores = scorer.subset_scores(x1, post)
        for i, z in enumerate(combinations(range(7), 3)):
            ref = reference_subset_score(
                np.array(z), x1, d.b_a, d.b_b, post.mu_a, post.s2, post.alpha
            )
            assert scores[i] == pytest.approx(ref, rel=1e-9, abs=1e-12)

    @pytest.mark.parametrize("m", [3, 2], ids=["rank-deficient", "k_b-above-m"])
    def test_scores_match_dense_route_on_degenerate_rows(
        self, rng, degenerate_dictionary, m
    ):
        """Duplicated and all-zero background rows (observed ranks 0 to 3
        across the two budgets), and fewer observed rows than background
        columns."""
        d = degenerate_dictionary(11)
        post = SpikeSlabPosterior(
            mu_a=rng.normal(size=3),
            s2=rng.uniform(0.1, 1.0, size=3),
            alpha=rng.uniform(0.1, 0.9, size=3),
        )
        x1 = rng.normal(size=d.p)
        scorer = OracleScorer(d, m)
        scores = scorer.subset_scores(x1, post)
        for i, z in enumerate(scorer.subsets):
            ref = reference_subset_score(
                z, x1, d.b_a, d.b_b, post.mu_a, post.s2, post.alpha
            )
            assert scores[i] == pytest.approx(ref, rel=1e-9, abs=1e-12)

    def test_scores_without_background_sum_variable_scores(self, rng):
        """With k_b = 0 a subset's score is the sum of its variables'
        ``score_variables`` scores."""
        d, post, x1 = self._problem(rng, p=9, k_a=3, k_b=0)
        scorer = OracleScorer(d, 4)
        s = score_variables(x1, post, d)
        sums = np.array([s[z].sum() for z in scorer.subsets])
        np.testing.assert_allclose(
            scorer.subset_scores(x1, post), sums, rtol=0, atol=1e-14 * np.abs(s).sum()
        )
        assert scorer.bases is None

    @pytest.mark.parametrize("nan_at", [slice(None), 2], ids=["all", "one-variable"])
    def test_nan_score_names_the_non_finite_subsets(self, rng, nan_at):
        """A NaN in the synthesized signal reaches every subset's score
        through the dense products over the tables (NaN·0 is NaN); ``select``
        says so with NumericalError, naming how many subsets and the first
        of them, where taking the maximum's ties found none."""
        d, post, x1 = self._problem(rng)
        x1[nan_at] = np.nan
        with pytest.raises(
            NumericalError,
            match=r"35 of 35 subset scores are not finite, first nan at subset \[0, 1, 2\]",
        ):
            OracleScorer(d, 3).select(x1, post, rng)

    def test_shared_terms_leave_scores_bitwise_unchanged(self, rng):
        """Reading the dictionary's stored B_a∘B_a and computing y = B_a·mu_tilde
        once per call give every score the bits of forming both afresh."""
        d, post, x1 = self._problem(rng)
        y = d.b_a @ post.mu_tilde
        spread = post.alpha * (1.0 - post.alpha) * post.mu_a * post.mu_a
        variable = 2.0 * x1 * y - (y * y + (d.b_a * d.b_a) @ spread)
        assert score_variables(x1, post, d).tobytes() == variable.tobytes()
        scorer = OracleScorer(d, 3)
        want = variable @ scorer.incidence
        c_y, c_x = np.stack([d.b_a @ post.mu_tilde, x1]) @ scorer.bases
        c_y *= c_y - 2.0 * c_x
        for block in c_y.reshape(-1, want.size):
            want += block
        assert scorer.subset_scores(x1, post).tobytes() == want.tobytes()

    def test_select_needs_a_generator(self, rng):
        d, post, x1 = self._problem(rng)
        with pytest.raises(TypeError):
            OracleScorer(d, 3).select(x1, post)

    def test_select_returns_argmax_subset(self, rng):
        d, post, x1 = self._problem(rng)
        scorer = OracleScorer(d, 3)
        scores = scorer.subset_scores(x1, post)
        plan = scorer.select(x1, post, rng)
        np.testing.assert_array_equal(
            plan.z, scorer.subsets[int(np.argmax(scores))]
        )

    def test_matches_top_m_without_background(self, rng):
        """With no background columns the subset statistic is separable, so
        exhaustive search and the per-variable top-m agree."""
        for _ in range(20):
            d, post, x1 = self._problem(rng, p=8, k_a=3, k_b=0)
            plan_fast = select_top_m(score_variables(x1, post, d), 3, rng)
            plan_oracle = OracleScorer(d, 3).select(x1, post, rng)
            np.testing.assert_array_equal(plan_oracle.z, plan_fast.z)

    def test_null_posterior_ties_break_uniformly(self):
        """A zero anomaly mean scores every subset at exactly zero; the pick
        must then be uniform over all ten subsets."""
        rng = np.random.default_rng(42)
        d = BasisDictionary(
            b_b=np.zeros((5, 0)), b_a=rng.normal(size=(5, 2))
        )
        post = SpikeSlabPosterior(
            mu_a=np.zeros(2), s2=np.ones(2), alpha=np.full(2, 0.3)
        )
        scorer = OracleScorer(d, 2)
        trials = 5000
        counts = {}
        for _ in range(trials):
            plan = scorer.select(np.zeros(5), post, rng)
            counts[tuple(plan.z)] = counts.get(tuple(plan.z), 0) + 1
        assert len(counts) == 10
        for n in counts.values():
            assert abs(n / trials - 0.1) < 0.03

    def test_subset_explosion_refused(self, rng):
        d = BasisDictionary(
            b_b=np.zeros((50, 0)), b_a=rng.normal(size=(50, 2))
        )
        with pytest.raises(CapabilityError):
            OracleScorer(d, 25)

    @BAD_BUDGETS
    def test_budget_that_is_not_a_count_named(self, rng, m, message):
        """m = True built a scorer over the single variables."""
        d, _, _ = self._problem(rng)
        with pytest.raises(DimensionError, match=message):
            OracleScorer(d, m)

    def test_budget_one_past_p_named(self, rng):
        d, _, _ = self._problem(rng)
        with pytest.raises(DimensionError, match=r"sensing budget m must lie in \[1, 7\], got 8"):
            OracleScorer(d, 8)

    def test_shared_scorer_checks_its_budget_before_its_cache(self, rng):
        """m = True found the cached m = 1 scorer, whose key it equals."""
        d, _, _ = self._problem(rng)
        OracleScorer.shared(d, 1)
        with pytest.raises(DimensionError, match="sensing budget m must be an integer of at least 1, got True"):
            OracleScorer.shared(d, True)

    def test_shared_scorer_equals_fresh_scorer(self, rng):
        """The process-wide scorer for an equal dictionary picks what a
        freshly built one picks, and equal content shares one build."""
        d, post, x1 = self._problem(rng)
        twin = BasisDictionary(b_b=d.b_b.copy(), b_a=d.b_a.copy())
        shared = OracleScorer.shared(d, 3)
        assert OracleScorer.shared(twin, 3) is shared
        plan_a = shared.select(x1, post, np.random.default_rng(1))
        plan_b = OracleScorer(d, 3).select(x1, post, np.random.default_rng(1))
        np.testing.assert_array_equal(plan_a.z, plan_b.z)


class TestSensingPlan:
    def test_sampler_plans_hold_ascending_distinct_indices_and_their_scores(
        self, default_dictionary, default_config
    ):
        """A plan's constructor checks nothing; the samplers, its only
        builders, must give what ``engine.step`` reads.  Over a stream with
        a change, every plan either sampler picks holds a strictly
        ascending intp vector of m indices in [0, p); Thompson's carries
        the float64 score of each of the p variables, the oracle's none."""
        d, m = default_dictionary, default_config.m
        scenario = Scenario(
            dictionary=d, cfg=default_config, tau=15, change=((3, 1.0),), horizon=40
        )
        for sampler in ("thompson", "oracle"):
            state = init(default_config, d, h=np.inf, seed=8, sampler=sampler)
            for x in gen_stream(scenario, 9):
                plan = step(state, x).next_plan
                z = plan.z
                assert z.dtype == np.intp and z.shape == (m,) and plan.m == m
                assert z[0] >= 0 and z[-1] < d.p and np.all(z[1:] > z[:-1])
                if sampler == "oracle":
                    assert plan.scores is None
                else:
                    assert plan.scores.dtype == np.float64 and plan.scores.shape == (d.p,)
