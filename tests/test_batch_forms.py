"""Each layer's batch form against its scalar layer, row by row, bit for bit.

The lockstep null runs call ``inference._FitStack``,
``detection._stacked_lambda_stat`` and ``sampling._stacked_subsets`` in
place of ``fit``, ``lambda_stat`` and the samplers.  Each test runs both
forms on the same rows and compares every output's bytes: the fit's
moments, posterior fields, convergence and sweep counts, the statistics,
and the chosen subsets with the Generators' states after the draws.

The cases cover p = 15 with its geometry table held, m = 2 below k_b = 3,
a dictionary without a background basis (k_b = 0), and p = 400, where the
budget refuses the table and the geometry is one stacked build.
"""

from __future__ import annotations

import numpy as np
import pytest

import sparsewatch.geometry as geometry
from sparsewatch import (
    BasisDictionary,
    DecayedStats,
    DetectionInputs,
    ModelConfig,
    NumericalError,
    OracleScorer,
    SpikeSlabPosterior,
    draw_anomaly_sample,
    fit,
    lambda_stat,
    score_variables,
    select_top_m,
    synthesize_anomaly_signal,
)
from sparsewatch.detection import _stacked_lambda_stat
from sparsewatch.inference import _FIELDS, _FitStack
from sparsewatch.sampling import _stacked_subsets

CASES = ["p15-table", "p15-m2", "kb0", "p400"]


@pytest.fixture
def case(request, default_dictionary, kron_dictionary):
    """(dictionary, config) of the named case, with ``build_geometry_table``
    called first, as every replicated run does; the cache is cleared after."""
    name = request.param
    if name == "kb0":
        d = BasisDictionary(b_b=np.zeros((9, 0)), b_a=np.random.default_rng(8).normal(size=(9, 4)))
    else:
        d = kron_dictionary if name == "p400" else default_dictionary
    m = {"p15-table": 5, "p15-m2": 2, "kb0": 3, "p400": 20}[name]
    cfg = ModelConfig.homogeneous(
        k_a=d.k_a, sigma_e=0.05, sigma_b=0.3, sigma_j=3.0, w=0.1, v=1e-7, decay=0.1, m=m
    )
    geometry.clear_geometry_cache()
    table = geometry.build_geometry_table(d, cfg)
    assert (table.fields is None) == (name == "p400")
    yield d, cfg
    geometry.clear_geometry_cache()


def _steps(d, cfg, n, n_steps, seed):
    """Per step, the rows' ascending subsets (n, m) and observations (n, m);
    column 0 of the anomaly basis is switched on in the odd rows, so some
    posteriors move far from the prior."""
    rng = np.random.default_rng(seed)
    theta = np.zeros(d.k_a)
    theta[0] = 1.0
    signal = d.b_a @ theta
    out = []
    for _ in range(n_steps):
        z = np.sort([rng.choice(d.p, size=cfg.m, replace=False) for _ in range(n)], axis=1)
        x = rng.normal(scale=cfg.sigma_e, size=(n, cfg.m)) + (np.arange(n) % 2)[:, None] * signal[z]
        out.append((z, x))
    return out


def _scalar_fits(d, cfg, posts, steps):
    """``fit`` on each row alone: per step, each row's FitResult."""
    stats = [DecayedStats.empty(cfg.k_a)] * len(posts)
    history = []
    for z, x in steps:
        results = [fit(x[i], z[i], posts[i], stats[i], d, cfg) for i in range(len(posts))]
        posts = [res.post for res in results]
        stats = [res.stats for res in results]
        history.append(results)
    return history


def _fitted_posteriors(d, cfg, n, seed):
    """Row 0 at the prior (its scores all tie at zero), the others fitted."""
    history = _scalar_fits(d, cfg, [SpikeSlabPosterior.prior(cfg)] * n, _steps(d, cfg, n, 4, seed))
    return [SpikeSlabPosterior.prior(cfg)] + [res.post for res in history[-1][1:]]


@pytest.mark.parametrize("case", CASES, indirect=True)
def test_fit_stack_rows_equal_scalar_fits(case):
    """Moments, posterior fields, convergence and sweep counts, step by step."""
    d, cfg = case
    n = 5
    steps = _steps(d, cfg, n, 8, seed=3)
    prior = SpikeSlabPosterior.prior(cfg)
    history = _scalar_fits(d, cfg, [prior] * n, steps)
    stack = _FitStack([prior] * n, cfg)
    for (z, x), results in zip(steps, history):
        geo = geometry._stacked_geometry(d, cfg, z)
        converged, sweeps = stack.fit(x, d.b_a[z], geo)
        for i, res in enumerate(results):
            assert (converged[i], sweeps[i]) == (res.converged, res.n_iters)
            assert stack.raw_m[i].tobytes() == res.stats.raw_M.tobytes()
            assert stack.raw_u[i].tobytes() == res.stats.raw_u.tobytes()
            for name in _FIELDS:
                assert getattr(stack, name)[i].tobytes() == getattr(res.post, name).tobytes()


@pytest.mark.parametrize("case", CASES, indirect=True)
def test_stacked_statistic_equals_lambda_stat(case):
    d, cfg = case
    n = 6
    posts = _fitted_posteriors(d, cfg, n, seed=4)
    stack = _FitStack(posts, cfg)
    ((z, x),) = _steps(d, cfg, n, 1, seed=5)
    geo = geometry._stacked_geometry(d, cfg, z)
    stats = _stacked_lambda_stat(x, d.b_a[z], geo, stack.mu_tilde, stack.spread)
    expected = [lambda_stat(DetectionInputs(x[i], z[i], posts[i]), d, cfg) for i in range(n)]
    assert stats.shape == (n,)
    assert stats.tobytes() == np.array(expected).tobytes()
    assert stats[0] == 0.0  # the prior's mean is zero


def _scalar_sensing(post, d, cfg, rng, scorer):
    x1_hat = synthesize_anomaly_signal(draw_anomaly_sample(post, cfg, rng), d, cfg, rng)
    if scorer is not None:
        return scorer.select(x1_hat, post, rng).z
    return select_top_m(score_variables(x1_hat, post, d), cfg.m, rng).z


@pytest.mark.parametrize(
    "case, sampler",
    # the oracle refuses p = 400's C(400, 20) subsets
    [(name, "thompson") for name in CASES] + [(name, "oracle") for name in CASES if name != "p400"],
    indirect=["case"],
)
def test_stacked_subsets_equal_step_sensing(case, sampler):
    """Row 0's prior posterior scores every variable zero, so its Thompson
    subset comes from the tie path while the fitted rows' do not."""
    d, cfg = case
    n = 6
    posts = _fitted_posteriors(d, cfg, n, seed=6)
    scorer = OracleScorer.shared(d, cfg.m) if sampler == "oracle" else None
    stack = _FitStack(posts, cfg)
    for draw in range(3):
        rngs = [np.random.default_rng([draw, i]) for i in range(n)]
        twins = [np.random.default_rng([draw, i]) for i in range(n)]
        z = _stacked_subsets(stack, cfg, d, rngs, scorer)
        expected = [_scalar_sensing(posts[i], d, cfg, twins[i], scorer) for i in range(n)]
        assert z.dtype == np.intp and z.shape == (n, cfg.m)
        assert z.tobytes() == np.array(expected).tobytes()
        assert [r.bit_generator.state for r in rngs] == [t.bit_generator.state for t in twins]


def test_stacked_subsets_propagate_the_scorers_error(default_dictionary, default_config):
    d, cfg = default_dictionary, default_config

    class Failing:
        def select(self, x1_hat, post, rng):
            raise NumericalError("no finite subset score")

    stack = _FitStack([SpikeSlabPosterior.prior(cfg)] * 2, cfg)
    rngs = [np.random.default_rng(i) for i in range(2)]
    with pytest.raises(NumericalError, match="no finite subset score"):
        _stacked_subsets(stack, cfg, d, rngs, Failing())
