"""Monitoring loop, threshold search, and replicated run-length experiments."""

from __future__ import annotations

import ast
import concurrent.futures
import dataclasses
import json
import math
import pickle
import re
from functools import partial
from pathlib import Path

import numpy as np
import pytest

import sparsewatch.engine as engine
import sparsewatch.geometry as geometry
import sparsewatch.inference as inference
from oracles import blocked_sweep
from sparsewatch import (
    BasisDictionary,
    CalibrationError,
    DataError,
    DecayedStats,
    DetectionInputs,
    DimensionError,
    ModelConfig,
    NumericalError,
    OracleScorer,
    Scenario,
    SensingPlan,
    SpikeSlabPosterior,
    StateError,
    bspline_basis,
    calibrate_threshold,
    collect_h0_trajectories,
    draw_anomaly_sample,
    evaluate,
    fit,
    fourier_basis,
    gen_stream,
    init,
    lambda_stat,
    replay_run_lengths,
    score_variables,
    search_threshold,
    select_top_m,
    step,
    study,
    synthesize_anomaly_signal,
)


def _inline_pool(monkeypatch, record):
    """Patch in a stand-in for ProcessPoolExecutor that runs its tasks
    inline and keeps ``record()`` as taken at its construction, before any
    replication runs; returns the list of those records."""
    seen = []

    class InlinePool:
        def __init__(self, max_workers):
            seen.append(record())

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items, chunksize=1):
            return map(fn, items)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InlinePool)
    return seen


def _null_scenario(dictionary, cfg, horizon):
    return Scenario(
        dictionary=dictionary, cfg=cfg, tau=None, change=(), horizon=horizon
    )


class TestInit:
    def test_same_seed_same_start(self, small_dictionary, small_config):
        a = init(small_config, small_dictionary, h=5.0, seed=3)
        b = init(small_config, small_dictionary, h=5.0, seed=3)
        np.testing.assert_array_equal(a.plan.z, b.plan.z)
        assert a.step == 0 and not a.alarmed

    def test_first_subset_respects_budget(self, small_dictionary, small_config):
        state = init(small_config, small_dictionary, h=5.0, seed=0)
        assert state.plan.m == small_config.m
        assert np.all((0 <= state.plan.z) & (state.plan.z < small_dictionary.p))

    def test_nan_threshold_rejected(self, small_dictionary, small_config):
        with pytest.raises(ValueError):
            init(small_config, small_dictionary, h=math.nan, seed=0)

    def test_extreme_thresholds_accepted(self, small_dictionary, small_config):
        init(small_config, small_dictionary, h=-1e9, seed=0)
        init(small_config, small_dictionary, h=math.inf, seed=0)

    def test_unknown_sampler_rejected(self, small_dictionary, small_config):
        with pytest.raises(ValueError):
            init(small_config, small_dictionary, h=5.0, seed=0, sampler="greedy")

    def test_oracle_sampler_precomputes_scorer(self, small_dictionary, small_config):
        state = init(
            small_config, small_dictionary, h=5.0, seed=0, sampler="oracle"
        )
        assert state.scorer is not None
        assert init(small_config, small_dictionary, h=5.0, seed=0).scorer is None

    def test_oracle_scorer_built_once_per_dictionary_content(
        self, small_dictionary, small_config
    ):
        """Engines on equal dictionaries (even separate objects, as a pool
        task unpickles them) share one scorer; other content gets its own."""
        first = init(small_config, small_dictionary, h=5.0, seed=0, sampler="oracle")
        twin = BasisDictionary(
            b_b=small_dictionary.b_b.copy(), b_a=small_dictionary.b_a.copy()
        )
        second = init(small_config, twin, h=5.0, seed=1, sampler="oracle")
        assert second.scorer is first.scorer
        other = BasisDictionary(
            b_b=small_dictionary.b_b, b_a=2.0 * small_dictionary.b_a
        )
        third = init(small_config, other, h=5.0, seed=0, sampler="oracle")
        assert third.scorer is not first.scorer
        assert third.scorer.dictionary is other

    def test_budget_beyond_p_rejected(self, small_dictionary):
        cfg = ModelConfig.homogeneous(
            k_a=4, sigma_e=0.1, sigma_b=0.5, sigma_j=2.0, w=0.2,
            v=1e-6, decay=0.1, m=7,
        )
        with pytest.raises(DimensionError):
            init(cfg, small_dictionary, h=5.0, seed=0)

    def test_budget_one_past_p_named(self, small_dictionary, small_config):
        cfg = dataclasses.replace(small_config, m=7)
        with pytest.raises(DimensionError, match=r"sensing budget m must lie in \[1, 6\], got 7"):
            init(cfg, small_dictionary, h=5.0, seed=0)

    def test_config_of_another_anomaly_size_refused(self, small_dictionary, small_config):
        cfg = ModelConfig.homogeneous(
            k_a=5, sigma_e=0.1, sigma_b=0.5, sigma_j=2.0, w=0.2, v=1e-6, decay=0.1, m=3,
        )
        with pytest.raises(DimensionError, match="config and dictionary disagree on k_a"):
            init(cfg, small_dictionary, h=5.0, seed=0)

    @pytest.mark.parametrize("field", ["sigma_e", "sigma_b"])
    def test_scale_whose_square_underflows_refused(self, small_config, field):
        """At 1e-200 the first step raised "math domain error" (sigma_e) or
        ZeroDivisionError (sigma_b), and ``evaluate`` built its geometry
        table, warning of log(0), before ``init`` refused the config.  Such
        a config is now refused when it is built, so ``init`` never meets it."""
        message = re.escape(f"{field} must be positive with a finite 1/{field}**2, got 1e-200")
        with pytest.raises(DataError, match=message):
            dataclasses.replace(small_config, **{field: 1e-200})


class TestStep:
    def test_bottom_threshold_alarms_immediately(
        self, small_dictionary, small_config, rng
    ):
        state = init(small_config, small_dictionary, h=-1e9, seed=1)
        outcome = step(state, rng.normal(size=6))
        assert outcome.alarmed and outcome.step == 1
        assert outcome.next_plan is None
        assert state.alarmed

    def test_alarmed_engine_is_absorbing(self, small_dictionary, small_config, rng):
        state = init(small_config, small_dictionary, h=-1e9, seed=1)
        step(state, rng.normal(size=6))
        with pytest.raises(StateError):
            step(state, rng.normal(size=6))

    def test_observation_forms_agree(self, small_dictionary, small_config, rng):
        """Full vector, planned slice, and callable must be interchangeable."""
        x = rng.normal(size=6)
        outcomes = []
        for obs in (x, None, None):
            state = init(small_config, small_dictionary, h=math.inf, seed=2)
            z = state.plan.z
            if obs is None:
                obs = x[z] if outcomes and len(outcomes) == 1 else (lambda idx: x[idx])
            outcomes.append(step(state, obs))
        assert outcomes[0].stat == outcomes[1].stat == outcomes[2].stat
        np.testing.assert_array_equal(outcomes[0].z, outcomes[1].z)
        np.testing.assert_array_equal(
            outcomes[0].next_plan.z, outcomes[2].next_plan.z
        )

    def test_nan_at_planned_variable_named(self, small_dictionary, small_config):
        state = init(small_config, small_dictionary, h=math.inf, seed=4)
        x = np.zeros(6)
        x[state.plan.z[1]] = math.nan
        with pytest.raises(DataError, match=f"variable {state.plan.z[1]} in step 1"):
            step(state, x)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("form", ["full", "planned", "callable"])
    def test_non_finite_at_planned_variable_named(
        self, small_dictionary, small_config, bad, form
    ):
        state = init(small_config, small_dictionary, h=math.inf, seed=4)
        step(state, np.zeros(6))
        x = np.zeros(6)
        x[state.plan.z[1]] = bad
        obs = {"full": x, "planned": x[state.plan.z], "callable": lambda idx: x[idx]}[form]
        with pytest.raises(DataError, match=f"variable {state.plan.z[1]} in step 2"):
            step(state, obs)
        assert state.step == 1

    def test_callable_returning_the_wrong_count_rejected(
        self, small_dictionary, small_config
    ):
        state = init(small_config, small_dictionary, h=math.inf, seed=4)
        for returned in (np.zeros(2), np.zeros(6), np.zeros(0)):
            with pytest.raises(DataError, match="planned subset size"):
                step(state, lambda idx, returned=returned: returned)
        assert state.step == 0

    def test_finite_observation_whose_sum_overflows_is_not_called_non_finite(self):
        """Two planned values of 1e308 are finite although their squares'
        sum overflows; the step takes them, and the fit they overflow ends
        in NumericalError, not in a DataError about non-finite values."""
        d = BasisDictionary(
            b_b=fourier_basis(15, 3), b_a=bspline_basis(15, 4, 14, normalize_columns=True)
        )
        cfg = ModelConfig.homogeneous(
            k_a=10, sigma_e=0.05, sigma_b=0.3, sigma_j=3.0, w=0.1, v=1e-7, decay=0.1, m=5
        )
        state = init(cfg, d, h=0.003, seed=1)
        x = np.zeros(15)
        x[state.plan.z[:2]] = 1e308
        with np.errstate(all="ignore"), pytest.raises(NumericalError, match="at step 1"):
            step(state, x)
        assert state.step == 0

    def test_nan_outside_plan_ignored(self, small_dictionary, small_config):
        state = init(small_config, small_dictionary, h=math.inf, seed=4)
        x = np.zeros(6)
        unplanned = [i for i in range(6) if i not in set(state.plan.z)]
        x[unplanned[0]] = math.nan
        outcome = step(state, x)
        assert math.isfinite(outcome.stat)

    def test_non_finite_statistic_raises_and_leaves_state(self):
        """A finite but huge observation overflows the fit; the step names
        itself and the statistic instead of returning a NaN that can never
        alarm, and the engine keeps its last good state."""
        d = BasisDictionary(
            b_b=fourier_basis(15, 3), b_a=bspline_basis(15, 4, 14, normalize_columns=True)
        )
        cfg = ModelConfig.homogeneous(
            k_a=10, sigma_e=0.05, sigma_b=0.3, sigma_j=3.0, w=0.1, v=1e-7, decay=0.1, m=5
        )
        state = init(cfg, d, h=0.003, seed=1)
        step(state, np.zeros(15))
        post, stats, plan = state.post, state.stats, state.plan
        with np.errstate(all="ignore"), pytest.raises(
            NumericalError, match=r"statistic is nan at step 2"
        ):
            step(state, np.full(15, 1e200))
        assert state.step == 1 and not state.alarmed
        assert state.post is post and state.stats is stats and state.plan is plan

    def test_sampler_error_leaves_the_step_undone(
        self, default_dictionary, default_config, monkeypatch
    ):
        """The oracle's NumericalError for non-finite subset scores is
        raised before the step commits: the step count, the moments and
        the posterior stay as they were, and so does the plan."""
        state = init(default_config, default_dictionary, h=math.inf, seed=6, sampler="oracle")
        stream = np.random.default_rng(6).normal(scale=0.05, size=(3, default_dictionary.p))
        step(state, stream[0])
        post, stats, plan = state.post, state.stats, state.plan
        monkeypatch.setattr(
            engine, "synthesize_anomaly_signal",
            lambda theta, d, cfg, rng: np.full(d.p, math.nan),
        )
        with pytest.raises(NumericalError, match="subset scores are not finite"):
            step(state, stream[1])
        assert state.step == 1 and state.stats.n == 1 and not state.alarmed
        assert state.post is post and state.stats is stats and state.plan is plan

    @pytest.mark.parametrize("observed", ["full", "planned"])
    @pytest.mark.parametrize(
        "z, error",
        [
            ([2, 2, 7, 9, 11], DimensionError),
            ([1, 3, 5, 7, 15], IndexError),
            ([1, 3, 5, 7], DimensionError),
            ([], DimensionError),
        ],
        ids=["repeated", "past-p", "four", "none"],
    )
    def test_hand_set_plan_refused_before_any_state_changes(
        self, default_dictionary, default_config, z, error, observed
    ):
        """A plan's constructor checks nothing, so ``engine.step`` is where a
        hand-set subset is refused: a repeated index, an index at or past p,
        or other than m = 5 indices, whether the observation covers all p
        variables or only the planned ones.  The engine keeps its state."""
        state = init(default_config, default_dictionary, h=math.inf, seed=7)
        step(state, np.zeros(default_dictionary.p))
        post, stats = state.post, state.stats
        state.plan = SensingPlan(np.array(z, dtype=np.intp))
        size = default_dictionary.p if observed == "full" else len(z)
        with pytest.raises(error):
            step(state, np.ones(size))
        assert state.step == 1 and state.post is post and state.stats is stats

    @pytest.mark.parametrize("z", [[1.5, 3, 5, 7, 9], [1.0, 3.0, 5.0, 7.0, 9.0]])
    def test_float_hand_set_plan_refused_before_any_state_changes(
        self, default_dictionary, default_config, z
    ):
        """A float plan is refused, not truncated, with one error whether the
        observation holds the planned values, all p values or is a callable
        of the plan."""
        state = init(default_config, default_dictionary, h=math.inf, seed=7)
        step(state, np.zeros(default_dictionary.p))
        post, stats = state.post, state.stats
        state.plan = SensingPlan(np.array(z))
        x = np.ones(default_dictionary.p)
        for observation in (np.ones(len(z)), x, x.__getitem__):
            with pytest.raises(DimensionError, match="must be integers"):
                step(state, observation)
            assert state.step == 1 and state.post is post and state.stats is stats

    def test_descending_hand_set_plan_steps(self, default_dictionary, default_config, rng):
        """A valid subset out of order is observed in its given order and
        gives the statistic of the same subset in ascending order."""
        x = rng.normal(size=default_dictionary.p)
        stats = []
        for z in ([11, 7, 4, 2, 0], [0, 2, 4, 7, 11]):
            state = init(default_config, default_dictionary, h=math.inf, seed=7)
            state.plan = SensingPlan(np.array(z, dtype=np.intp))
            outcome = step(state, x)
            assert outcome.step == state.step == 1
            np.testing.assert_array_equal(outcome.z, z)
            stats.append(outcome.stat)
        assert math.isfinite(stats[0])
        np.testing.assert_allclose(stats[0], stats[1], rtol=1e-9)

    def test_wrong_size_observation_rejected(self, small_dictionary, small_config):
        state = init(small_config, small_dictionary, h=math.inf, seed=4)
        with pytest.raises(DataError):
            step(state, np.zeros(5))

    @pytest.mark.parametrize("size", [0, 2, 5, 7])
    def test_every_wrong_length_vector_rejected(self, small_dictionary, small_config, size):
        state = init(small_config, small_dictionary, h=math.inf, seed=4)
        with pytest.raises(DataError, match=f"observation has {size} values"):
            step(state, np.zeros(size))

    def test_steps_count_and_plans_roll(self, small_dictionary, small_config, rng):
        state = init(small_config, small_dictionary, h=math.inf, seed=5)
        for t in range(1, 6):
            planned = state.plan.z.copy()
            outcome = step(state, rng.normal(size=6))
            assert outcome.step == t == state.step
            np.testing.assert_array_equal(outcome.z, planned)
            assert outcome.next_plan is state.plan
            assert outcome.converged

    def test_outcome_carries_the_fits_sweep_count(
        self, small_dictionary, small_config, rng, monkeypatch
    ):
        monkeypatch.setattr(engine, "fit", partial(fit, max_iters=3))
        state = init(small_config, small_dictionary, h=math.inf, seed=6)
        for _ in range(8):
            x = rng.normal(size=6)
            res = fit(
                x[state.plan.z], state.plan.z, state.post, state.stats,
                small_dictionary, small_config, max_iters=3,
            )
            outcome = step(state, x)
            assert outcome.n_iters == res.n_iters
            assert 1 <= outcome.n_iters <= 3

    def test_trajectories_reproducible(self, small_dictionary, small_config):
        scenario = _null_scenario(small_dictionary, small_config, 30)
        one = collect_h0_trajectories(
            small_config, small_dictionary, n_reps=2, horizon=30, seed=11
        )
        two = collect_h0_trajectories(
            small_config, small_dictionary, n_reps=2, horizon=30, seed=11
        )
        np.testing.assert_array_equal(one, two)
        assert one.shape == (2, 30)

    def test_trajectories_independent_of_geometry_cache(
        self, small_dictionary, small_config
    ):
        """Cold, warm and uncached geometry give byte-identical statistics."""
        def run():
            return collect_h0_trajectories(
                small_config, small_dictionary, n_reps=2, horizon=40, seed=12
            ).tobytes()

        geometry.clear_geometry_cache()
        cold = run()
        warm = run()
        budget = geometry._CACHE.budget
        geometry._CACHE.clear()
        geometry._CACHE.budget = 0
        try:
            uncached = run()
        finally:
            geometry._CACHE.budget = budget
            geometry.clear_geometry_cache()
        assert cold == warm == uncached

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("sampler", ["thompson", "oracle"])
    def test_outputs_independent_of_table_warmth(
        self, default_dictionary, default_config, sampler, workers
    ):
        """Null trajectories and run-length records are byte-identical with
        the geometry table cleared, with it built before the run (so pool
        workers inherit it), and with no table at all."""
        cfg, d = default_config, default_dictionary
        scenario = Scenario(
            dictionary=d, cfg=cfg, tau=20, change=((0, 1.0),), horizon=60,
            random_change_basis=True,
        )

        def run():
            traj = collect_h0_trajectories(
                cfg, d, n_reps=3, horizon=60, seed=31, workers=workers, sampler=sampler
            )
            _, records = evaluate(
                cfg, d, float(np.quantile(traj, 0.95)), scenario, n_reps=4, seed=32,
                workers=workers, sampler=sampler, return_records=True,
            )
            return traj.tobytes(), repr(records)

        budget = geometry._CACHE.budget
        try:
            geometry.clear_geometry_cache()
            cleared = run()
            geometry.clear_geometry_cache()
            geometry.build_geometry_table(d, cfg)
            assert len(geometry._CACHE.table.rank) == math.comb(d.p, cfg.m)
            prebuilt = run()
            geometry._CACHE.clear()
            geometry._CACHE.budget = 0
            untabled = run()
        finally:
            geometry._CACHE.budget = budget
            geometry.clear_geometry_cache()
        assert cleared == prebuilt == untabled

    def test_outcome_is_frozen_and_replace_round_trips(
        self, small_dictionary, small_config, rng
    ):
        """``engine.step``'s outcome is frozen, and ``dataclasses.replace``
        rebuilds it field for field, as the benchmark's checks do to
        corrupt one field of a recorded outcome."""
        state = init(small_config, small_dictionary, h=math.inf, seed=4)
        outcome = step(state, rng.normal(size=6))
        with pytest.raises(dataclasses.FrozenInstanceError):
            outcome.stat = 0.0
        again = dataclasses.replace(outcome)
        assert again is not outcome and vars(again) == vars(outcome)
        assert dataclasses.replace(outcome, stat=1.5).stat == 1.5


    @pytest.mark.parametrize("sampler", ["thompson", "oracle"])
    def test_outputs_equal_the_interpreted_blocked_sweep(
        self, default_dictionary, default_config, sampler, monkeypatch
    ):
        """Null trajectories and run-length records through the sweep
        kernel are byte-identical to those through the interpreted blocked
        loop the kernels replaced (``oracles.blocked_sweep``).  Every fit
        runs its sweeps through ``inference._sweeps``, and the lockstep null
        batch runs all its rows' in one call per step, so the swapped loop
        is called once per null step."""
        n_reps, horizon = 3, 60
        scenario = Scenario(
            dictionary=default_dictionary, cfg=default_config, tau=20,
            change=((0, 1.0),), horizon=horizon, random_change_basis=True,
        )
        calls = []

        def run():
            traj = collect_h0_trajectories(
                default_config, default_dictionary, n_reps=n_reps, horizon=horizon, seed=21,
                sampler=sampler,
            )
            calls.append("null phase ends")
            h = float(np.quantile(traj, 0.95))
            _, records = evaluate(
                default_config, default_dictionary, h, scenario, n_reps=4, seed=22,
                sampler=sampler, return_records=True,
            )
            return traj.tobytes(), repr(records)

        def interpreted(raw_m, rows, u, cfg, tol, max_iters):
            calls.append(None)
            done = []
            for m_i, out, u_i in zip(raw_m, rows, u):
                mu, s2, alpha, sweeps, converged, _ = blocked_sweep(
                    out[1], out[3], m_i, u_i, cfg, inference.ALPHA_CLAMP, inference._BLOCK,
                    max_iters, tol,
                )
                mu, s2, alpha = np.array(mu), np.array(s2), np.array(alpha)
                out[:] = mu * alpha, mu, s2, alpha, alpha * (1.0 - alpha) * mu * mu
                done.append((converged, sweeps))
            converged, sweeps = zip(*done)
            return np.array(converged), np.array(sweeps)

        generated = run()
        calls.clear()
        monkeypatch.setattr(inference, "_sweeps", interpreted)
        assert run() == generated
        null_fits = calls.index("null phase ends")
        assert null_fits == horizon
        assert len(calls) > null_fits + 1  # the delay cells' fits ran it too

    @pytest.mark.parametrize(
        "sampler, m", [("thompson", 5), ("oracle", 5), ("thompson", 2), ("oracle", 2)]
    )
    def test_step_equals_the_composed_public_layers(
        self, default_dictionary, default_config, sampler, m
    ):
        """``engine.step`` checks its observation once and hands the layers
        below trusted inputs and the posterior's own mu_tilde and spread.
        The same stream driven through the public, checked layers, sharing
        one Generator as the engine does, gives byte-identical statistics,
        subsets and posteriors.  At m = 2 every observed subset has fewer
        rows than the k_b = 3 background columns."""
        d = default_dictionary
        cfg = ModelConfig.homogeneous(
            k_a=d.k_a, sigma_e=0.05, sigma_b=0.3, sigma_j=3.0, w=0.1, v=1e-7,
            decay=0.1, m=m,
        )
        scenario = Scenario(
            dictionary=d, cfg=cfg, tau=20, change=((3, 1.0),), horizon=50
        )
        stream = gen_stream(scenario, 31)

        def record(stat, z, post):
            return (np.float64(stat).tobytes(), z.tobytes(), post.mu_a.tobytes(),
                    post.s2.tobytes(), post.alpha.tobytes())

        state = init(cfg, d, h=math.inf, seed=32, sampler=sampler)
        stepped = []
        for x in stream:
            outcome = step(state, x)
            stepped.append(record(outcome.stat, outcome.z, state.post))

        rng = np.random.default_rng(32)
        z = np.sort(rng.choice(d.p, size=m, replace=False))
        post, stats = SpikeSlabPosterior.prior(cfg), DecayedStats.empty(d.k_a)
        scorer = OracleScorer(d, m) if sampler == "oracle" else None
        composed = []
        for x in stream:
            x_z = x[z]
            res = fit(x_z, z, post, stats, d, cfg)
            stat = lambda_stat(DetectionInputs(x_z=x_z, z=z, post=res.post), d, cfg)
            composed.append(record(stat, z, res.post))
            post, stats = res.post, res.stats
            x1_hat = synthesize_anomaly_signal(draw_anomaly_sample(post, cfg, rng), d, cfg, rng)
            if scorer is not None:
                z = scorer.select(x1_hat, post, rng).z
            else:
                z = select_top_m(score_variables(x1_hat, post, d), m, rng).z
        assert stepped == composed


class TestReplay:
    def test_frozen_matrix(self):
        traj = np.array([[1.0, 2.0, 3.0], [5.0, 0.0, 0.0]])
        np.testing.assert_array_equal(replay_run_lengths(traj, 1.5), [2, 1])
        np.testing.assert_array_equal(replay_run_lengths(traj, 10.0), [3, 3])
        np.testing.assert_array_equal(replay_run_lengths(traj, 0.5), [1, 1])
        # Strict exceedance: a statistic equal to h does not alarm.
        np.testing.assert_array_equal(replay_run_lengths(traj, 3.0), [3, 1])

    def test_average_is_monotone_in_threshold(self, rng):
        traj = rng.normal(size=(40, 50))
        hs = np.sort(rng.normal(size=20))
        arls = [replay_run_lengths(traj, h).mean() for h in hs]
        assert all(a <= b + 1e-12 for a, b in zip(arls, arls[1:]))

    @pytest.mark.parametrize("h", [1.0, math.nan])
    def test_nan_statistic_refused_with_its_place(self, h):
        """A NaN statistic is no "no alarm": the replay names the replication
        and step of the first NaN in rep order, before it reads h."""
        with pytest.raises(DataError, match=r"NaN in replication 0 at step 1$"):
            replay_run_lengths([[math.nan, 0.0, 0.0]], h)
        traj = np.zeros((3, 4))
        traj[2, 0] = traj[1, 2] = math.nan
        with pytest.raises(DataError, match=r"NaN in replication 1 at step 3$"):
            replay_run_lengths(traj, h)


class TestSearchThreshold:
    def test_meets_target_on_synthetic_trajectories(self, rng):
        traj = rng.uniform(size=(200, 80))
        h, achieved = search_threshold(traj, target_arl0=10.0, tol_rel=0.05)
        assert achieved == replay_run_lengths(traj, h).mean()
        assert abs(achieved - 10.0) / 10.0 <= 0.05

    def test_returns_best_of_bracketing_pair(self, rng):
        traj = rng.uniform(size=(100, 60))
        h, achieved = search_threshold(traj, target_arl0=8.0, tol_rel=0.2)
        values = np.unique(traj)
        idx = np.searchsorted(values, h)
        for neighbor in values[max(0, idx - 1) : idx + 2]:
            err_n = abs(replay_run_lengths(traj, neighbor).mean() - 8.0)
            assert abs(achieved - 8.0) <= err_n + 1e-12

    def test_unlandable_target_raises(self):
        """Constant trajectories offer only ARL 1 or the horizon."""
        traj = np.full((10, 40), 3.0)
        with pytest.raises(CalibrationError, match="closest achieves"):
            search_threshold(traj, target_arl0=20.0, tol_rel=0.02)

    def test_target_outside_feasible_range(self, rng):
        traj = rng.uniform(size=(10, 30))
        with pytest.raises(CalibrationError, match="outside the feasible"):
            search_threshold(traj, target_arl0=31.0, tol_rel=0.1)
        with pytest.raises(CalibrationError, match="outside the feasible"):
            search_threshold(traj, target_arl0=0.5, tol_rel=0.1)

    def test_bad_tolerance_rejected(self, rng):
        with pytest.raises(ValueError):
            search_threshold(rng.uniform(size=(5, 10)), 5.0, tol_rel=0.0)

    def test_nan_tolerance_rejected(self, rng):
        """A NaN tolerance compares False with every error, so unchecked it
        would hand back whichever candidate is closest."""
        with pytest.raises(ValueError, match="tol_rel"):
            search_threshold(rng.uniform(size=(5, 10)), 5.0, tol_rel=math.nan)


    def test_nan_statistic_refused_with_its_place(self):
        """A NaN statistic is no "no alarm": the search refuses it and names
        the replication and the step of the first NaN in rep order."""
        traj = np.random.default_rng(9).exponential(size=(50, 401))
        traj[3, 0] = traj[0, 5] = math.nan
        with pytest.raises(DataError, match=r"NaN in replication 0 at step 6$"):
            search_threshold(traj, target_arl0=200.0, tol_rel=0.1)

    @staticmethod
    def _every_value(traj, target, tol_rel):
        """(h, ARL, error) of the closer of the first unique value whose
        replayed ARL meets ``target`` and its predecessor, the lower on a
        tie, from a replay of every unique value."""
        values = np.unique(traj)
        arls = [float(replay_run_lengths(traj, h).mean()) for h in values]
        errs = [abs(a - target) / target for a in arls]
        first = next(i for i, a in enumerate(arls) if a >= target)
        best = first - 1 if first and errs[first - 1] <= errs[first] else first
        return float(values[best]), arls[best], errs[best]

    @pytest.mark.parametrize("kind", ["exponential", "integer", "signed-zero"])
    def test_matches_a_replay_of_every_value(self, kind):
        """The bisection finds what a replay of every unique value finds:
        the same h, bit for bit (the sign of a zero included), the same
        ARL, and the same refusal when the closer candidate misses
        ``tol_rel``.  Integer-valued trajectories tie many statistics."""
        rng = np.random.default_rng({"exponential": 11, "integer": 12, "signed-zero": 13}[kind])
        outcomes = set()
        for _ in range(150):
            shape = (int(rng.integers(1, 12)), int(rng.integers(1, 40)))
            if kind == "exponential":
                traj = rng.exponential(size=shape)
            else:
                traj = rng.integers(-2 if kind == "signed-zero" else 0, 4, size=shape) * 1.0
            if kind == "signed-zero":
                traj[traj == 0] = np.copysign(0.0, rng.normal(size=int((traj == 0).sum())))
            target = float(rng.uniform(1.0, shape[1]))
            tol_rel = float(rng.choice([0.001, 0.05, 0.3]))
            h, arl, err = self._every_value(traj, target, tol_rel)
            if err > tol_rel:
                message = re.escape(f"closest achieves {arl:.2f} (error {err:.3g})")
                with pytest.raises(CalibrationError, match=message):
                    search_threshold(traj, target, tol_rel)
                outcomes.add("refused")
            else:
                got = search_threshold(traj, target, tol_rel)
                assert got == (h, arl)
                assert math.copysign(1.0, got[0]) == math.copysign(1.0, h)
                outcomes.add("returned")
        assert outcomes == {"refused", "returned"}

    def test_tie_goes_to_the_lower_candidate(self):
        """h = 0 replays an ARL of 2 and h = 1 one of 3: both miss 2.5 by
        0.5."""
        traj = np.array([[0.0, 1.0, 2.0, 3.0]])
        assert search_threshold(traj, target_arl0=2.5, tol_rel=0.2) == (0.0, 2.0)

    def test_replays_each_candidate_at_most_once(self, monkeypatch, rng):
        traj = rng.exponential(size=(30, 200))
        replayed = []

        def counted(trajectories, h):
            replayed.append(h)
            return replay_run_lengths(trajectories, h)

        monkeypatch.setattr(engine, "replay_run_lengths", counted)
        search_threshold(traj, target_arl0=50.0, tol_rel=0.05)
        assert len(replayed) == len(set(replayed)) <= math.ceil(math.log2(traj.size)) + 2

    def test_no_null_runs_refused(self):
        """An empty trajectory set raised a bare IndexError."""
        with pytest.raises(CalibrationError, match="no null runs"):
            search_threshold(np.zeros((0, 401)), target_arl0=200.0, tol_rel=0.05)

    def test_replay_refuses_nan_threshold(self, rng):
        """As ``init`` does: no statistic exceeds a NaN threshold, so every
        run would replay as censored."""
        with pytest.raises(ValueError, match="threshold must not be NaN"):
            replay_run_lengths(rng.uniform(size=(5, 10)), math.nan)


class TestCalibrateAndEvaluate:
    def test_calibrated_threshold_reproduces_in_evaluation(
        self, small_dictionary, small_config
    ):
        """Same seed, same replication count: the null ARL evaluated at the
        calibrated threshold equals the replayed ARL exactly, because the
        statistic path of a run does not depend on the threshold before its
        alarm."""
        traj = collect_h0_trajectories(
            small_config, small_dictionary, n_reps=30, horizon=80, seed=21
        )
        h, achieved = search_threshold(traj, target_arl0=15.0, tol_rel=0.2)
        assert calibrate_threshold(
            small_config, small_dictionary, target_arl0=15.0,
            n_reps=30, horizon=80, tol_rel=0.2, seed=21,
        ) == (h, achieved)
        summary, records = evaluate(
            small_config,
            small_dictionary,
            h,
            _null_scenario(small_dictionary, small_config, 80),
            n_reps=30,
            seed=21,
            return_records=True,
        )
        assert summary.arl0 == achieved
        assert math.isnan(summary.add)
        assert summary.n_false_alarm == 0
        # A censored record's T of horizon + 1 replays as the horizon.
        np.testing.assert_array_equal(
            [min(rec["T"], 80) for rec in records], replay_run_lengths(traj, h)
        )

    def test_records_of_numpy_integer_scenario_are_json_ints(self, small_dictionary, small_config):
        """A scenario stores numpy integer tau and horizon as ints, so a
        censored run's T (horizon + 1) and a delay (T - tau) are ints and
        the records serialize; they raised "Object of type int64 is not
        JSON serializable"."""
        scenario = Scenario(
            dictionary=small_dictionary, cfg=small_config, tau=np.int64(5),
            change=((0, 1.0),), horizon=np.int64(30),
        )
        _, records = evaluate(
            small_config, small_dictionary, 0.5, scenario, n_reps=4, seed=1,
            return_records=True,
        )
        assert {rec["T"] for rec in records} > {31} and any(rec["delay"] for rec in records)
        assert all(type(rec["T"]) is int for rec in records)
        assert all(type(rec["delay"]) in (int, type(None)) for rec in records)
        assert json.loads(json.dumps(records)) == records

    def test_horizon_guard(self, small_dictionary, small_config):
        with pytest.raises(CalibrationError, match="horizon"):
            calibrate_threshold(
                small_config, small_dictionary, target_arl0=50.0,
                n_reps=5, horizon=100, tol_rel=0.1, seed=0,
            )

    @pytest.mark.parametrize("tol_rel", [0.0, math.nan])
    def test_bad_tolerance_rejected_before_simulating(
        self, small_dictionary, small_config, monkeypatch, tol_rel
    ):
        def simulate(*args, **kwargs):
            raise AssertionError("the null replications were simulated")

        monkeypatch.setattr(engine, "collect_h0_trajectories", simulate)
        with pytest.raises(ValueError, match="tol_rel"):
            calibrate_threshold(
                small_config, small_dictionary, target_arl0=10.0,
                n_reps=5, horizon=50, tol_rel=tol_rel, seed=0,
            )

    def test_nonpositive_reps_rejected(self, small_dictionary, small_config):
        with pytest.raises(ValueError):
            calibrate_threshold(
                small_config, small_dictionary, target_arl0=10.0,
                n_reps=0, horizon=50, tol_rel=0.1, seed=0,
            )
        with pytest.raises(ValueError):
            evaluate(
                small_config, small_dictionary, 1.0,
                _null_scenario(small_dictionary, small_config, 50),
                n_reps=0, seed=0,
            )

    @pytest.mark.parametrize("n_reps", [0, -2])
    def test_null_trajectories_name_nonpositive_reps(
        self, small_dictionary, small_config, n_reps
    ):
        """As ``evaluate`` does, rather than failing inside numpy on an
        empty list of trajectories."""
        with pytest.raises(ValueError, match="n_reps must be an integer of at least 1"):
            collect_h0_trajectories(
                small_config, small_dictionary, n_reps=n_reps, horizon=20, seed=0
            )

    def test_worker_count_never_changes_results(
        self, small_dictionary, small_config
    ):
        """Replication results derive from (seed, rep) alone; pooled and
        inline execution must agree bit for bit."""
        scenario = Scenario(
            dictionary=small_dictionary, cfg=small_config, tau=10,
            change=((1, 1.5),), horizon=40,
        )
        runs = []
        for workers in (1, 2):
            summary, records = evaluate(
                small_config, small_dictionary, 2.0, scenario,
                n_reps=6, seed=33, workers=workers, return_records=True,
            )
            runs.append((summary, records))
        assert runs[0][0] == runs[1][0]
        assert runs[0][1] == runs[1][1]
        traj_1 = collect_h0_trajectories(
            small_config, small_dictionary, n_reps=4, horizon=30, seed=9, workers=1
        )
        traj_2 = collect_h0_trajectories(
            small_config, small_dictionary, n_reps=4, horizon=30, seed=9, workers=2
        )
        np.testing.assert_array_equal(traj_1, traj_2)

    def test_pool_has_no_more_processes_than_replications(
        self, small_dictionary, small_config, monkeypatch
    ):
        """A pool starts all its processes at once, so --workers 64 with two
        replications must ask for two; the results equal the inline run's."""
        sizes = []

        class InlinePool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items, chunksize=1):
                return map(fn, items)

        inline = collect_h0_trajectories(
            small_config, small_dictionary, n_reps=2, horizon=20, seed=5
        )
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InlinePool)
        pooled = collect_h0_trajectories(
            small_config, small_dictionary, n_reps=2, horizon=20, seed=5, workers=64
        )
        single = collect_h0_trajectories(
            small_config, small_dictionary, n_reps=1, horizon=20, seed=5, workers=64
        )
        assert sizes == [2]
        np.testing.assert_array_equal(pooled, inline)
        np.testing.assert_array_equal(single, inline[:1])

    @pytest.fixture()
    def shared_cleared(self, monkeypatch):
        """No geometry table, no shared scorer, and every sweep kernel this
        process asks for recorded, in order: ``"compiled"`` for the compiled
        one, k_a for a generated one; the cache is cleared again afterwards,
        since a run at a patched budget leaves its refusal."""
        geometry.clear_geometry_cache()
        monkeypatch.setattr(OracleScorer, "_shared", None)
        kernels = []
        kernel, compiled = inference._kernel, inference._compiled
        monkeypatch.setattr(inference, "_kernel", lambda k: kernels.append(k) or kernel(k))
        monkeypatch.setattr(inference, "_compiled", lambda: kernels.append("compiled") or compiled())
        yield kernels
        geometry.clear_geometry_cache()

    @staticmethod
    def _held(kernels):
        """What this process holds: (its geometry table, its shared
        scorer, the kernels asked for so far)."""
        return lambda: (geometry._CACHE.table, OracleScorer._shared, list(kernels))

    @staticmethod
    def _start_method(monkeypatch, method):
        import multiprocessing

        monkeypatch.setattr(multiprocessing, "get_start_method", lambda *args, **kw: method)

    @pytest.mark.parametrize("sampler", ["thompson", "oracle"])
    def test_forking_pool_inherits_the_shared_tables(
        self, small_dictionary, small_config, monkeypatch, shared_cleared, sampler
    ):
        """Before a pool whose workers fork starts, this process already
        holds the combination's whole geometry table, the oracle's scorer
        (oracle sampler only) and the sweep kernel for k_a, so the workers
        inherit them and build none; the results equal the inline run's."""
        cfg, d = small_config, small_dictionary
        self._start_method(monkeypatch, "fork")
        seen = _inline_pool(monkeypatch, self._held(shared_cleared))
        pooled = collect_h0_trajectories(
            cfg, d, n_reps=3, horizon=20, seed=5, workers=2, sampler=sampler
        )
        inline = collect_h0_trajectories(cfg, d, n_reps=3, horizon=20, seed=5, sampler=sampler)
        [(table, scorer, kernels)] = seen
        assert table.key == geometry._key(d, cfg, cfg.m)
        assert len(table.rank) == math.comb(d.p, cfg.m) and table.fields is not None
        if sampler == "oracle":
            assert scorer[0] == (d.content_key, cfg.m)
        else:
            assert scorer is None
        assert kernels == ["compiled"] + ([] if inference._compiled() else [cfg.k_a])
        np.testing.assert_array_equal(pooled, inline)

    def test_spawning_pool_builds_nothing_first(
        self, small_dictionary, small_config, monkeypatch, shared_cleared
    ):
        """A worker that does not fork inherits nothing, so nothing is
        built before its pool starts."""
        cfg, d = small_config, small_dictionary
        self._start_method(monkeypatch, "spawn")
        seen = _inline_pool(monkeypatch, self._held(shared_cleared))
        pooled = collect_h0_trajectories(
            cfg, d, n_reps=3, horizon=20, seed=5, workers=2, sampler="oracle"
        )
        inline = collect_h0_trajectories(cfg, d, n_reps=3, horizon=20, seed=5, sampler="oracle")
        assert seen == [(None, None, [])]
        np.testing.assert_array_equal(pooled, inline)

    def test_refused_table_is_not_built_before_the_pool(
        self, small_dictionary, small_config, monkeypatch, shared_cleared
    ):
        """With the table budget at zero the parent builds no table before
        a forking pool, and the run's results are unchanged."""
        cfg, d = small_config, small_dictionary
        scenario = Scenario(
            dictionary=d, cfg=cfg, tau=10, change=((1, 1.5),), horizon=40,
        )
        inline = evaluate(cfg, d, 2.0, scenario, n_reps=3, seed=33, return_records=True)
        geometry.clear_geometry_cache()
        monkeypatch.setattr(geometry._CACHE, "budget", 0)
        self._start_method(monkeypatch, "fork")
        seen = _inline_pool(monkeypatch, self._held(shared_cleared))
        pooled = evaluate(
            cfg, d, 2.0, scenario, n_reps=3, seed=33, workers=2, return_records=True
        )
        [(table, _, _)] = seen
        assert table.fields is None and not table.rank
        assert pooled == inline

    def test_fresh_worker_reads_table_rows(
        self, small_dictionary, small_config, monkeypatch, shared_cleared
    ):
        """A worker process that starts with no table, such as a spawned
        one (here a stand-in pool whose ``map`` clears the cache first),
        builds the table in its first ``_run_batch``, so its replications
        read table rows and build no subset alone; the records equal the
        inline run's."""
        cfg, d = small_config, small_dictionary
        scenario = Scenario(
            dictionary=d, cfg=cfg, tau=10, change=((1, 1.5),), horizon=40,
        )
        inline = evaluate(cfg, d, 2.0, scenario, n_reps=3, seed=33, return_records=True)
        self._start_method(monkeypatch, "spawn")

        class FreshPool:
            def __init__(self, max_workers):
                pass

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items, chunksize=1):
                geometry.clear_geometry_cache()
                return [fn(item) for item in items]

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", FreshPool)
        built, build = [], geometry._build
        monkeypatch.setattr(
            geometry, "_build", lambda *args: built.append(np.shape(args[2])) or build(*args)
        )
        pooled = evaluate(
            cfg, d, 2.0, scenario, n_reps=3, seed=33, workers=2, return_records=True
        )
        assert built and all(len(shape) == 2 for shape in built)
        assert sum(rows for rows, _ in built) == math.comb(d.p, cfg.m)
        assert pooled == inline

    def test_change_scenario_records_delays(self, small_dictionary, small_config):
        scenario = Scenario(
            dictionary=small_dictionary, cfg=small_config, tau=8,
            change=((0, 2.0),), horizon=60,
        )
        summary, records = evaluate(
            small_config, small_dictionary, 0.5, scenario,
            n_reps=8, seed=13, return_records=True,
        )
        assert [rec["rep"] for rec in records] == list(range(8))
        delays = [rec["delay"] for rec in records if rec["delay"] is not None]
        if delays:
            assert summary.add == pytest.approx(float(np.mean(delays)))
        for rec in records:
            if rec["false_alarm"]:
                assert rec["T"] <= 8 and rec["delay"] is None
            elif rec["delay"] is not None:
                assert rec["T"] == 8 + rec["delay"]
            else:
                assert rec["T"] == 61
        assert math.isnan(summary.arl0)

    def test_nonconverged_fits_counted(self, small_dictionary, small_config, monkeypatch):
        """evaluate sums the steps whose fit did not converge, and counts the
        steps by their fits' sweep counts, equal to a direct engine.step
        replay of each replication."""
        monkeypatch.setattr(engine, "fit", partial(fit, max_iters=3))
        scenario = Scenario(
            dictionary=small_dictionary, cfg=small_config, tau=10,
            change=((1, 1.5),), horizon=40,
        )
        summary = evaluate(small_config, small_dictionary, 0.5, scenario, n_reps=5, seed=21)
        expected = 0
        sweeps = [0, 0, 0]
        for rep in range(5):
            stream_ss, engine_ss = engine._rep_rngs(21, rep)
            stream = gen_stream(scenario, stream_ss)
            state = init(small_config, small_dictionary, h=0.5, seed=engine_ss)
            for x in stream:
                outcome = step(state, x)
                expected += not outcome.converged
                sweeps[outcome.n_iters - 1] += 1
                if outcome.alarmed:
                    break
        assert expected > 0
        assert summary.n_nonconverged == expected
        assert summary.sweep_histogram == tuple(sweeps)

    def test_config_mismatch_rejected(self, small_dictionary, small_config):
        """evaluate refuses a config or a dictionary other than the scenario's."""
        other = ModelConfig.homogeneous(
            k_a=4, sigma_e=0.2, sigma_b=0.5, sigma_j=2.0, w=0.2,
            v=1e-6, decay=0.1, m=3,
        )
        other_dictionary = BasisDictionary(
            b_b=small_dictionary.b_b, b_a=2.0 * small_dictionary.b_a
        )
        scenario = _null_scenario(small_dictionary, small_config, 40)
        for cfg, dictionary, match in [
            (other, small_dictionary, "model config"),
            (small_config, other_dictionary, "basis dictionary"),
        ]:
            with pytest.raises(DimensionError, match=match):
                evaluate(cfg, dictionary, 1.0, scenario, n_reps=2, seed=0)

    @pytest.mark.parametrize("field", ["sigma_e", "sigma_b", "sigma_j", "w", "v", "decay", "m"])
    def test_config_differing_in_one_field_rejected(self, small_dictionary, small_config, field):
        cfg = small_config
        changed = {
            "sigma_e": 0.11, "sigma_b": 0.55, "sigma_j": cfg.sigma_j * 1.5, "w": cfg.w + 0.1,
            "v": 2e-6, "decay": 0.05, "m": 2,
        }
        other = dataclasses.replace(cfg, **{field: changed[field]})
        scenario = _null_scenario(small_dictionary, cfg, 40)
        with pytest.raises(DimensionError, match="disagree on the model config"):
            evaluate(other, small_dictionary, 1.0, scenario, n_reps=2, seed=0)

    def test_unpickled_records_pass_both_checks(self, small_dictionary, small_config):
        """As a pool worker receives them: copies equal by value, not identity."""
        scenario = _null_scenario(small_dictionary, small_config, 40)
        cfg, d = pickle.loads(pickle.dumps((small_config, small_dictionary)))
        assert cfg is not small_config and d is not small_dictionary
        got = evaluate(cfg, d, 0.5, scenario, n_reps=3, seed=1, return_records=True)
        expected = evaluate(
            small_config, small_dictionary, 0.5, scenario, n_reps=3, seed=1, return_records=True
        )
        assert repr(got) == repr(expected)

    def test_planted_change_is_detected_after_tau(
        self, small_dictionary, small_config
    ):
        """A strong change with a sane threshold yields mostly true detections
        shortly after the change point."""
        traj = collect_h0_trajectories(
            small_config, small_dictionary, n_reps=30, horizon=120, seed=55
        )
        h, _ = search_threshold(traj, target_arl0=40.0, tol_rel=0.25)
        scenario = Scenario(
            dictionary=small_dictionary, cfg=small_config, tau=10,
            change=((2, 3.0),), horizon=120,
        )
        summary = evaluate(
            small_config, small_dictionary, h, scenario, n_reps=20, seed=77
        )
        assert summary.add < 10.0
        assert summary.n_censored == 0


class TestStudy:
    CALIBRATION = dict(
        target_arl0=12.0, calib_reps=15, calib_horizon=60, tol_rel=0.3, calib_seed=4
    )

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("sampler", ["thompson", "oracle"])
    def test_equals_calibration_then_evaluate(
        self, small_dictionary, small_config, sampler, workers
    ):
        """Summary for summary, ``calibrate_threshold`` and then ``evaluate``
        on each cell's scenario with the same config, sampler and workers."""
        d, cfg, cal = small_dictionary, small_config, self.CALIBRATION
        cells = [(2.0, 6, 21), (3.0, 5, 22)]
        h, achieved, summaries = study(
            cfg, d, **cal, tau=5, horizon=40, cells=cells, workers=workers, sampler=sampler
        )
        expected_h, expected_arl = calibrate_threshold(
            cfg, d, cal["target_arl0"], cal["calib_reps"], cal["calib_horizon"],
            cal["tol_rel"], cal["calib_seed"], workers=workers, sampler=sampler,
        )
        expected = [
            evaluate(
                cfg, d, expected_h,
                Scenario(dictionary=d, cfg=cfg, tau=5, change=((0, phi),), horizon=40,
                         random_change_basis=True),
                n_reps, seed, workers=workers, sampler=sampler,
            )
            for phi, n_reps, seed in cells
        ]
        assert (h, achieved) == (expected_h, expected_arl)
        assert summaries == expected
        assert [summary.n_reps for summary in summaries] == [6, 5]

    @pytest.mark.parametrize(
        "bad_cell, tau, message",
        [
            ((1.0, 4, 3), 40, "tau must lie"),
            ((math.nan, 4, 3), 5, r"change entry \(0, nan\) has a non-finite magnitude"),
            ((True, 4, 3), 5, "change magnitude must be a number, got True"),
            (("1.0", 4, 3), 5, "change magnitude must be a number, got '1.0'"),
        ],
        ids=["tau-at-horizon", "nan-phi", "bool-phi", "string-phi"],
    )
    def test_bad_cell_raises_before_any_replication(
        self, small_dictionary, small_config, monkeypatch, bad_cell, tau, message
    ):
        """Every cell's scenario is built before the calibration runs, so
        one that ``Scenario`` refuses raises before any replication."""

        def refused(*args):
            raise AssertionError("a replication ran")

        monkeypatch.setattr(engine, "_map_reps", refused)
        with pytest.raises(ValueError, match=message):
            study(
                small_config, small_dictionary, **self.CALIBRATION, tau=tau, horizon=40,
                cells=[(2.0, 4, 1), bad_cell],
            )


class TestWorkers:
    """``workers`` is checked where the library takes it: anything but an
    integer of at least 1 (a bool is not one) is refused before any
    replication runs."""

    BAD = [0, -3, True, False, 2.5, "2", None]

    @pytest.fixture
    def no_runs(self, monkeypatch):
        def refused(*args):
            raise AssertionError("a replication ran")

        monkeypatch.setattr(engine, "_run_batch", refused)
        monkeypatch.setattr(engine, "gen_stream", refused)

    @pytest.mark.parametrize("workers", BAD)
    def test_refused_by_each_entry_point(self, small_dictionary, small_config, no_runs, workers):
        d, cfg = small_dictionary, small_config
        scenario = _null_scenario(d, cfg, 40)
        calls = [
            partial(collect_h0_trajectories, cfg, d, 4, 40, 0),
            partial(calibrate_threshold, cfg, d, 10.0, 4, 40, 0.1, 0),
            partial(evaluate, cfg, d, 1.0, scenario, 4, 0),
        ]
        for call in calls:
            with pytest.raises(ValueError, match="workers must be an integer of at least 1"):
                call(workers=workers)

    def test_numpy_integer_accepted(self, small_dictionary, small_config):
        d, cfg = small_dictionary, small_config
        traj = collect_h0_trajectories(cfg, d, 3, 20, 5, workers=np.int64(1))
        assert traj.tobytes() == collect_h0_trajectories(cfg, d, 3, 20, 5).tobytes()


class TestBadRequestsBuildNothing:
    """An unknown sampler, a NaN threshold, a replication count other than
    an integer of at least 1, a seed other than an integer of at least 0 (a
    bool is neither), a target ARL below 1, and a fractional or bool change
    point or horizon are refused before a geometry table is built, a pool
    is started or a stream is generated, inline and at ``workers`` 2."""

    @pytest.fixture
    def pools(self, monkeypatch):
        def refused(*args):
            raise AssertionError("built a table or generated a stream")

        monkeypatch.setattr(engine, "build_geometry_table", refused)
        monkeypatch.setattr(engine, "gen_stream", refused)
        return _inline_pool(monkeypatch, lambda: None)

    @staticmethod
    def _calls(d, cfg, n_reps=4, seed=0):
        """Each entry point that runs replications, asking for ``n_reps`` of
        them from ``seed``; ``study`` asks in its second cell, after a good
        one."""
        scenario = _null_scenario(d, cfg, 40)
        return [
            partial(collect_h0_trajectories, cfg, d, n_reps, 40, seed),
            partial(calibrate_threshold, cfg, d, 10.0, n_reps, 40, 0.1, seed),
            partial(evaluate, cfg, d, 1.0, scenario, n_reps, seed),
            partial(study, cfg, d, **TestStudy.CALIBRATION, tau=5, horizon=40,
                    cells=[(2.0, 4, 1), (3.0, n_reps, seed)]),
        ]

    @pytest.mark.parametrize("workers", [1, 2])
    def test_unknown_sampler(self, small_dictionary, small_config, pools, workers):
        for call in self._calls(small_dictionary, small_config):
            with pytest.raises(ValueError, match="sampler must be one of"):
                call(workers=workers, sampler="greedy")
        assert pools == []

    @pytest.mark.parametrize("workers", [1, 2])
    def test_nan_threshold(self, small_dictionary, small_config, pools, workers):
        d, cfg = small_dictionary, small_config
        with pytest.raises(ValueError, match="threshold must not be NaN"):
            evaluate(cfg, d, math.nan, _null_scenario(d, cfg, 40), 4, 0, workers=workers)
        assert pools == []

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("h", [True, None, "inf"], ids=["bool", "none", "string"])
    def test_threshold_that_is_not_a_number(self, small_dictionary, small_config, pools, h, workers):
        """True monitored at h = 1, None raised a bare TypeError, and "inf"
        reached numpy's comparison."""
        d, cfg = small_dictionary, small_config
        for call in (
            partial(init, cfg, d, h, 0),
            partial(replay_run_lengths, np.ones((2, 3)), h),
            partial(evaluate, cfg, d, h, _null_scenario(d, cfg, 40), 4, 0, workers=workers),
        ):
            with pytest.raises(DataError, match=f"threshold must be a number, got {h!r}"):
                call()
        assert pools == []

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("value", [True, "0.05"], ids=["bool", "string"])
    @pytest.mark.parametrize("name", ["tol_rel", "target ARL"])
    def test_tolerance_or_target_that_is_not_a_number(
        self, small_dictionary, small_config, pools, name, value, workers
    ):
        """A True target calibrated to ARL 1 and a True tol_rel accepted any
        candidate within 100%; a string raised a bare TypeError."""
        d, cfg = small_dictionary, small_config
        target, tol_rel = (10.0, value) if name == "tol_rel" else (value, 0.1)
        calibration = dict(TestStudy.CALIBRATION, target_arl0=target, tol_rel=tol_rel)
        for call in (
            partial(search_threshold, np.random.default_rng(0).uniform(size=(5, 40)), target, tol_rel),
            partial(calibrate_threshold, cfg, d, target, 4, 40, tol_rel, 0, workers=workers),
            partial(study, cfg, d, **calibration, tau=5, horizon=40, cells=[(2.0, 4, 1)],
                    workers=workers),
        ):
            with pytest.raises(DataError, match=f"{name} must be a number, got {value!r}"):
                call()
        assert pools == []

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("n_reps", [0, True, 2.0])
    def test_bad_replication_count(self, small_dictionary, small_config, pools, n_reps, workers):
        """``study`` refuses the bad cell before it calibrates."""
        for call in self._calls(small_dictionary, small_config, n_reps):
            with pytest.raises(ValueError, match="n_reps must be an integer of at least 1"):
                call(workers=workers)
        assert pools == []

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("seed", [-1, 1.5, True])
    def test_bad_seed(self, small_dictionary, small_config, pools, seed, workers):
        """``study`` refuses a bad seed in its second cell, and a bad
        calibration seed, before it calibrates."""
        d, cfg = small_dictionary, small_config
        calibration = dict(TestStudy.CALIBRATION, calib_seed=seed)
        calls = [
            *self._calls(d, cfg, seed=seed),
            partial(study, cfg, d, **calibration, tau=5, horizon=40, cells=[(2.0, 4, 1)]),
        ]
        for call in calls:
            with pytest.raises(ValueError, match="seed must be an integer of at least 0"):
                call(workers=workers)
        assert pools == []

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("target", [0.5, -3.0])
    def test_target_below_one(self, small_dictionary, small_config, pools, target, workers):
        d, cfg = small_dictionary, small_config
        calibration = dict(TestStudy.CALIBRATION, target_arl0=target)
        for call in (
            partial(calibrate_threshold, cfg, d, target, 4, 40, 0.1, 0),
            partial(study, cfg, d, **calibration, tau=5, horizon=40, cells=[(2.0, 4, 1)]),
        ):
            with pytest.raises(CalibrationError, match="outside the feasible"):
                call(workers=workers)
        assert pools == []

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize(
        "tau, horizon, message",
        [
            (0.5, 40, "tau must be an integer of at least 0, got 0.5"),
            (5, 2.5, "horizon must be an integer of at least 1, got 2.5"),
            (5, True, "horizon must be an integer of at least 1, got True"),
        ],
        ids=["tau-fraction", "horizon-fraction", "horizon-bool"],
    )
    def test_bad_change_point_or_horizon(
        self, small_dictionary, small_config, pools, tau, horizon, message, workers
    ):
        """A change point or horizon that would cut a stream at a fraction
        is refused when the scenario is built: ``study``'s cells before the
        calibration, and a null horizon before the replications; the
        calibration names its horizon before comparing the target with it."""
        d, cfg = small_dictionary, small_config
        calls = [partial(study, cfg, d, **TestStudy.CALIBRATION, tau=tau, horizon=horizon,
                         cells=[(2.0, 4, 1)])]
        if tau == 5:
            calls += [
                partial(collect_h0_trajectories, cfg, d, 4, horizon, 0),
                partial(calibrate_threshold, cfg, d, 10.0, 4, horizon, 0.1, 0),
            ]
        for call in calls:
            with pytest.raises(ValueError, match=message):
                call(workers=workers)
        assert pools == []


class TestEngineLayering:
    def test_engine_reads_only_the_batch_forms_of_the_layers(self):
        """``engine`` reads no private module-level name of a layer but the
        batch forms, ``geometry._stacked_geometry`` and the kernels it loads
        before a pool forks, so a layer's formula lives in its own module;
        and ``_lockstep`` does not branch on the sampler's name."""
        tree = ast.parse(Path(engine.__file__).read_text(encoding="utf-8"))
        layers = {"inference", "detection", "sampling", "geometry"}
        allowed = {
            ("inference", "_FitStack"), ("inference", "_kernel"), ("inference", "_compiled"),
            ("detection", "_stacked_lambda_stat"), ("sampling", "_stacked_subsets"),
            ("geometry", "_stacked_geometry"),
        }
        private = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module in layers:
                private |= {(node.module, a.name) for a in node.names if a.name.startswith("_")}
            elif (
                isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in layers and node.attr.startswith("_")
            ):
                private.add((node.value.id, node.attr))
        assert private - allowed == set()
        assert allowed - {("inference", "_kernel")} <= private

        (lockstep,) = [
            node for node in tree.body
            if isinstance(node, ast.FunctionDef) and node.name == "_lockstep"
        ]
        names = {
            getattr(leaf, "id", getattr(leaf, "value", None))
            for node in ast.walk(lockstep) if isinstance(node, (ast.If, ast.IfExp))
            for leaf in ast.walk(node.test)
        }
        assert not names & {"sampler", "oracle", "thompson"}


class TestLockstep:
    """At h = +inf, ``_map_reps`` runs replications in lockstep batches;
    each replication's result must equal, bit for bit, the direct
    per-replication ``engine.step`` replay of ``_run_one``."""

    @staticmethod
    def _config(dictionary, m):
        return ModelConfig.homogeneous(
            k_a=dictionary.k_a, sigma_e=0.05, sigma_b=0.3, sigma_j=3.0, w=0.1,
            v=1e-7, decay=0.1, m=m,
        )

    @staticmethod
    def _replayed(scenario, seed, n_reps, sampler):
        return [
            engine._run_one(scenario, math.inf, seed, rep, sampler) for rep in range(n_reps)
        ]

    @staticmethod
    def _as_bytes(results):
        return [
            (stats.tobytes(), alarmed, nonconverged, sweeps.tobytes())
            for stats, alarmed, nonconverged, sweeps in results
        ]

    @pytest.mark.parametrize("workers", [1, 2, 64])
    @pytest.mark.parametrize("table", ["cold", "prebuilt", "refused"])
    @pytest.mark.parametrize("m", [5, 2])
    @pytest.mark.parametrize("sampler", ["thompson", "oracle"])
    def test_batch_equals_the_per_replication_replay(
        self, default_dictionary, sampler, m, table, workers, monkeypatch
    ):
        """Both samplers, at m = 5 and at m = 2 (fewer observed rows than
        the k_b = 3 background columns), with the geometry table cleared,
        built before the run, or refused by the budget, inline and on an
        inline pool of 2 and of 64 workers (one batch per replication)."""
        d, n_reps, seed = default_dictionary, 5, 41
        cfg = self._config(d, m)
        scenario = _null_scenario(d, cfg, 50)
        expected = self._replayed(scenario, seed, n_reps, sampler)
        if workers > 1:
            _inline_pool(monkeypatch, lambda: None)
        geometry.clear_geometry_cache()
        if table == "prebuilt":
            geometry.build_geometry_table(d, cfg)
        elif table == "refused":
            monkeypatch.setattr(geometry._CACHE, "budget", 0)
        try:
            results = engine._map_reps(scenario, math.inf, seed, n_reps, workers, sampler)
            traj = collect_h0_trajectories(
                cfg, d, n_reps, 50, seed, workers=workers, sampler=sampler
            )
            held = geometry._CACHE.table
        finally:
            geometry.clear_geometry_cache()
        assert (held.fields is None) == (table == "refused")
        assert self._as_bytes(results) == self._as_bytes(expected)
        assert traj.tobytes() == np.vstack([r[0] for r in expected]).tobytes()

    def test_batch_without_a_background_basis(self):
        """k_b = 0: the stacked products over the empty background basis
        give what the per-replication products give."""
        rng = np.random.default_rng(8)
        d = BasisDictionary(b_b=np.zeros((9, 0)), b_a=rng.normal(size=(9, 4)))
        cfg = self._config(d, 3)
        scenario = _null_scenario(d, cfg, 40)
        results = engine._map_reps(scenario, math.inf, 3, 4, 1, "thompson")
        assert self._as_bytes(results) == self._as_bytes(self._replayed(scenario, 3, 4, "thompson"))

    def test_batches_split_by_worker_and_by_stream_bytes(self, monkeypatch):
        """One contiguous run of reps per worker, each cut to the stream
        budget: a batch holds its streams whole."""
        assert engine._batches(21, 1, 401, 15) == [range(0, 21)]
        assert engine._batches(21, 2, 401, 15) == [range(0, 10), range(10, 21)]
        assert engine._batches(3, 3, 10, 15) == [range(0, 1), range(1, 2), range(2, 3)]
        monkeypatch.setattr(engine, "_BATCH_STREAM_BYTES", 8 * 100 * 400 * 4)
        assert engine._batches(10, 1, 100, 400) == [range(0, 4), range(4, 8), range(8, 10)]
        assert engine._batches(10, 2, 100, 400) == [
            range(0, 4), range(4, 5), range(5, 9), range(9, 10)
        ]
        monkeypatch.setattr(engine, "_BATCH_STREAM_BYTES", 1)
        assert engine._batches(2, 1, 100, 400) == [range(0, 1), range(1, 2)]

    @staticmethod
    def _spoiled_streams(monkeypatch, spoil):
        """Patch ``engine.gen_stream`` so ``spoil(stream, rep)`` edits every
        stream it makes, and count the replications that run alone."""
        make, run_one, alone = engine.gen_stream, engine._run_one, []

        def spoiled(scenario, stream_ss):
            stream = make(scenario, stream_ss)
            spoil(stream, stream_ss.entropy[1])
            return stream

        def counted(scenario, h, seed, rep, sampler):
            alone.append(rep)
            return run_one(scenario, h, seed, rep, sampler)

        monkeypatch.setattr(engine, "gen_stream", spoiled)
        monkeypatch.setattr(engine, "_run_one", counted)
        return alone

    @pytest.mark.parametrize("sampler", ["thompson", "oracle"])
    def test_non_finite_observation_raises_as_the_per_replication_loop(
        self, default_dictionary, default_config, sampler, monkeypatch
    ):
        """A NaN that a step observes makes the batch rerun through the
        per-replication loop, which raises its DataError: the first
        replication, in rep order, to observe one names it."""
        scenario = _null_scenario(default_dictionary, default_config, 30)

        def spoil(stream, rep):
            if rep >= 2:
                stream[12 - rep] = math.nan

        alone = self._spoiled_streams(monkeypatch, spoil)
        with pytest.raises(DataError) as direct:
            self._replayed(scenario, 7, 4, sampler)
        alone.clear()
        with pytest.raises(DataError) as batched:
            collect_h0_trajectories(
                default_config, default_dictionary, 4, 30, 7, sampler=sampler
            )
        assert str(batched.value) == str(direct.value)
        assert "in step 11" in str(batched.value)
        assert alone == [0, 1, 2]

    def test_unobserved_nan_gives_the_per_replication_results(
        self, default_dictionary, default_config, monkeypatch
    ):
        """A NaN in a stream at a variable its step does not observe is
        ignored by the step; the batch reruns through the per-replication
        loop and returns its results unchanged."""
        d, cfg, t = default_dictionary, default_config, 9
        scenario = _null_scenario(d, cfg, 25)
        clean = self._replayed(scenario, 13, 3, "thompson")
        unobserved = []
        for rep in range(3):
            stream_ss, engine_ss = engine._rep_rngs(13, rep)
            stream = gen_stream(scenario, stream_ss)
            state = init(cfg, d, h=math.inf, seed=engine_ss)
            for x in stream[:t]:
                step(state, x)
            unobserved.append(min(set(range(d.p)) - set(state.plan.z.tolist())))

        def spoil(stream, rep):
            stream[t, unobserved[rep]] = math.nan

        alone = self._spoiled_streams(monkeypatch, spoil)
        results = engine._map_reps(scenario, math.inf, 13, 3, 1, "thompson")
        assert alone == [0, 1, 2]
        assert self._as_bytes(results) == self._as_bytes(clean)

    def test_non_finite_statistic_raises_as_the_per_replication_loop(
        self, default_dictionary, default_config, monkeypatch
    ):
        """A finite observation that overflows the fit: the batch reruns
        through the per-replication loop, which raises its NumericalError."""
        scenario = _null_scenario(default_dictionary, default_config, 20)

        def spoil(stream, rep):
            if rep == 1:
                stream[6] = 1e200

        alone = self._spoiled_streams(monkeypatch, spoil)
        with np.errstate(all="ignore"):
            with pytest.raises(NumericalError) as direct:
                self._replayed(scenario, 5, 3, "thompson")
            alone.clear()
            with pytest.raises(NumericalError) as batched:
                engine._map_reps(scenario, math.inf, 5, 3, 1, "thompson")
        assert str(batched.value) == str(direct.value)
        assert "at step 7" in str(batched.value)
        assert alone == [0, 1]

    def test_oracle_error_raises_as_the_per_replication_loop(
        self, default_dictionary, default_config, monkeypatch
    ):
        """The oracle's NumericalError for a non-finite subset score makes
        the batch rerun through the per-replication loop, which raises it:
        replications 1 and 2 each meet a NaN at their own variable, and
        the error names replication 1's."""
        scenario = _null_scenario(default_dictionary, default_config, 20)
        select = OracleScorer.select

        def failing(self, x1_hat, post, rng):
            rep = rng.bit_generator.seed_seq.entropy[1]
            if rep:
                x1_hat = x1_hat.copy()
                x1_hat[rep + 3] = math.nan
            return select(self, x1_hat, post, rng)

        monkeypatch.setattr(OracleScorer, "select", failing)
        alone = self._spoiled_streams(monkeypatch, lambda stream, rep: None)
        with pytest.raises(NumericalError) as direct:
            self._replayed(scenario, 5, 3, "oracle")
        alone.clear()
        with pytest.raises(NumericalError) as batched:
            engine._map_reps(scenario, math.inf, 5, 3, 1, "oracle")
        assert str(batched.value) == str(direct.value)
        assert "first nan at subset [0, 1, 2, 3, 4]" in str(batched.value)
        assert alone == [0, 1]
