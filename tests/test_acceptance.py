"""End-to-end acceptance checklist.

Ten numbered release-gate checks. Each prints one `[criterion N] PASS/FAIL`
line (run with `-s` to see them as they finish). Numbers 8 and 9 share one
calibrated delay study at 200 replications per cell that takes about eight
minutes; everything else finishes in seconds.
"""

from __future__ import annotations

import filecmp
import json
import math
import time

import numpy as np
import pytest

from oracles import (
    grid_max_elbo_2d,
    mc_h0_logpdf,
    posterior_background_mean,
    quadrature_h0_logpdf,
    quadrature_h1_logpdf,
    stats_from_history,
)
from sparsewatch import (
    BackgroundPosterior,
    BasisDictionary,
    DecayedStats,
    ModelConfig,
    SpikeSlabPosterior,
    absorb_sample,
    bspline_basis,
    elbo,
    fit,
    fourier_basis,
    gen_stream,
    vb_coordinate_sweep,
)
import sparsewatch.engine as eng
from sparsewatch.cli import main as cli_main
from sparsewatch.detection import (
    DetectionInputs,
    lambda_stat,
    log_pbf_exact,
    marginal_h0,
)
from sparsewatch.sampling import (
    OracleScorer,
    draw_anomaly_sample,
    score_variables,
    select_top_m,
    synthesize_anomaly_signal,
)
from sparsewatch.simgen import Scenario


def _report(n: int, ok: bool, detail: str) -> str:
    line = f"[criterion {n}] {'PASS' if ok else 'FAIL'} - {detail}"
    print(line, flush=True)
    return line


# Reference average detection delays for the p = 15 study at sensing budget
# m = 5 and ARL0 = 200, with the accepted band at +-30% around each value.
REFERENCE_ADD = {0.2: 8.16, 0.5: 2.87, 1.0: 1.96}
ADD_WINDOWS = {
    phi: (0.7 * add, 1.3 * add) for phi, add in REFERENCE_ADD.items()
}
ARL0_TARGET = 200.0
CAL_SEED = 7001
EVAL_SEED = 8101
GRID_MS = (5, 8, 11)
GRID_PHIS = (0.2, 0.5, 1.0)


def _study_dictionary() -> BasisDictionary:
    return BasisDictionary(
        b_b=fourier_basis(15, 3), b_a=bspline_basis(15, 4, 14)
    )


def _study_config(m: int) -> ModelConfig:
    return ModelConfig.homogeneous(
        k_a=10, sigma_e=0.05, sigma_b=0.3, sigma_j=3.0, w=0.1, v=1e-7,
        decay=0.1, m=m,
    )


def _delay_study_dictionary() -> BasisDictionary:
    # The delay study reads phi as the size of a change: the Euclidean norm
    # of the mean shift B_a theta_a, whichever anomaly column is drawn. That
    # reading follows from phi being a change size; no cited source fixes
    # it. The raw spline basis puts its two end columns almost wholly outside
    # [0, 1] (squared norm 0.028 against 0.70-0.96 for the rest), so without
    # unit columns a draw of column 0 or 9 turns "phi = 0.2" into a bump below
    # the noise level, and each cell's mean delay mixes two change sizes.
    return BasisDictionary(
        b_b=fourier_basis(15, 3),
        b_a=bspline_basis(15, 4, 14, normalize_columns=True),
    )


def _cell(res: eng.RunLengthSummary) -> str:
    """ADD, its standard error and the number of detected replications."""
    detected = res.n_reps - res.n_censored - res.n_false_alarm
    return f"{res.add:.2f} +- {res.add_stderr:.2f} (n={detected})"


def _ordered_pairs():
    """(weaker, stronger) cells of the delay grid that are adjacent in phi or m.

    The weaker cell has the smaller change or the smaller budget, so its
    average delay should be no shorter.
    """
    pairs = []
    for m in GRID_MS:
        for lo_phi, hi_phi in zip(GRID_PHIS, GRID_PHIS[1:]):
            pairs.append(((m, lo_phi), (m, hi_phi)))
    for phi in GRID_PHIS:
        for lo_m, hi_m in zip(GRID_MS, GRID_MS[1:]):
            pairs.append(((lo_m, phi), (hi_m, phi)))
    return pairs


def _resolved_inversion(
    weak: eng.RunLengthSummary, strong: eng.RunLengthSummary
) -> bool:
    """True when the replications resolve an inversion of the pair.

    That is ADD(weak) < ADD(strong) - 2 sqrt(se_weak^2 + se_strong^2). A
    cell with no finite ADD or standard error cannot be ordered and fails
    too.
    """
    values = (weak.add, weak.add_stderr, strong.add, strong.add_stderr)
    if not all(math.isfinite(v) for v in values):
        return True
    margin = 2.0 * math.hypot(weak.add_stderr, strong.add_stderr)
    return weak.add < strong.add - margin


@pytest.fixture(scope="module")
def delay_grid():
    """Calibrate per budget, then measure delays over the m x phi grid."""
    d = _delay_study_dictionary()
    grid = {}
    arl = {}
    for m in GRID_MS:
        _, arl[m], summaries = eng.study(
            _study_config(m), d, ARL0_TARGET, calib_reps=100, calib_horizon=1200,
            tol_rel=0.05, calib_seed=CAL_SEED, tau=50, horizon=2000,
            cells=[(phi, 200, EVAL_SEED) for phi in GRID_PHIS],
        )
        grid.update({(m, phi): res for phi, res in zip(GRID_PHIS, summaries)})
    return grid, arl


def test_criterion_01_null_statistic_is_exactly_zero():
    rng = np.random.default_rng(11)
    start = time.perf_counter()
    worst = 0.0
    for _ in range(1000):
        p, k_b, k_a, m = 9, 2, 4, 5
        d = BasisDictionary(
            b_b=rng.normal(size=(p, k_b)), b_a=rng.normal(size=(p, k_a))
        )
        cfg = ModelConfig.homogeneous(
            k_a=k_a, sigma_e=0.2, sigma_b=0.7, sigma_j=1.5, w=0.2,
            v=1e-6, decay=0.1, m=m,
        )
        post = SpikeSlabPosterior(
            mu_a=np.zeros(k_a),
            s2=rng.uniform(0.01, 1.0, size=k_a),
            alpha=rng.uniform(0.0, 1.0, size=k_a),
        )
        bg = BackgroundPosterior(
            theta_n=rng.normal(size=k_b),
            cov_b=np.diag(rng.uniform(0.01, 0.5, size=k_b)),
        )
        z = np.sort(rng.choice(p, size=m, replace=False))
        inp = DetectionInputs(x_z=rng.normal(size=m), z=z, post=post, bg=bg)
        worst = max(worst, abs(lambda_stat(inp, d, cfg)))
    elapsed = time.perf_counter() - start
    ok = worst == 0.0 and elapsed < 1.0
    line = _report(1, ok, f"max |stat| = {worst:.1e} over 1000 draws "
                          f"in {elapsed:.2f}s")
    assert ok, line


def test_criterion_02_fit_matches_grid_search_maximizer():
    rng = np.random.default_rng(20240819)
    b_b = fourier_basis(3, 1)
    b_a = rng.normal(size=(3, 2))
    b_a /= np.linalg.norm(b_a, axis=0)
    d = BasisDictionary(b_b=b_b, b_a=b_a)
    cfg = ModelConfig.homogeneous(
        k_a=2, sigma_e=0.3, sigma_b=0.5, sigma_j=1.5, w=0.3, v=1e-4,
        decay=0.1, m=2,
    )
    post = SpikeSlabPosterior.prior(cfg)
    stats = DecayedStats.empty(2)
    history = []
    start = time.perf_counter()
    for _ in range(2):
        z = np.sort(rng.choice(3, size=2, replace=False))
        x = b_a @ np.array([0.8, -0.3]) + b_b[:, 0] * rng.normal() * cfg.sigma_b
        x_z = x[z] + rng.normal(size=2) * cfg.sigma_e
        res = fit(x_z, z, post, stats, d, cfg, tol=1e-12, max_iters=2000)
        post, stats = res.post, res.stats
        history.append((d.b_a[z].copy(), d.b_b[z].copy(), x_z))
    ref = stats_from_history(history, cfg.decay, cfg.sigma_e, cfg.sigma_b)
    cfg_vals = {
        "sigma_e": cfg.sigma_e, "sigma_j": cfg.sigma_j, "w": cfg.w,
        "v": cfg.v, "norm": ref["norm"],
    }
    best = grid_max_elbo_2d(ref["M"], ref["u"], ref["q"], cfg_vals,
                            mu_range=3.0)
    elapsed = time.perf_counter() - start
    err_mu = max(abs(best[0] - post.mu_a[0]), abs(best[1] - post.mu_a[1]))
    err_alpha = max(abs(best[2] - post.alpha[0]), abs(best[3] - post.alpha[1]))
    ok = err_mu < 1e-3 and err_alpha < 1e-3 and elapsed < 60.0
    line = _report(2, ok, f"|mu err| = {err_mu:.1e}, |alpha err| = "
                          f"{err_alpha:.1e} in {elapsed:.1f}s")
    assert ok, line


def test_criterion_03_bound_never_decreases_across_sweeps():
    rng = np.random.default_rng(303)
    worst_drop = 0.0
    for _ in range(100):
        p, k_b, k_a = 8, 2, 4
        d = BasisDictionary(
            b_b=rng.normal(size=(p, k_b)), b_a=rng.normal(size=(p, k_a))
        )
        cfg = ModelConfig.homogeneous(
            k_a=k_a, sigma_e=rng.uniform(0.1, 0.5), sigma_b=0.6,
            sigma_j=rng.uniform(0.8, 3.0), w=rng.uniform(0.05, 0.5),
            v=1e-6, decay=0.1, m=5,
        )
        stats = DecayedStats.empty(k_a)
        for _ in range(3):
            z = np.sort(rng.choice(p, size=5, replace=False))
            stats = absorb_sample(stats, rng.normal(size=5), z, d, cfg)
        post = SpikeSlabPosterior.prior(cfg)
        prev = elbo(post, stats, cfg)
        for _ in range(20):
            post = vb_coordinate_sweep(post, stats, cfg)
            cur = elbo(post, stats, cfg)
            worst_drop = max(worst_drop, prev - cur)
            prev = cur
    ok = worst_drop <= 1e-9
    line = _report(3, ok, f"worst drop = {worst_drop:.2e} over 100 "
                          f"instances x 20 sweeps")
    assert ok, line


def test_criterion_04_closed_forms_match_quadrature_and_monte_carlo():
    rng = np.random.default_rng(90210)
    worst_rel = 0.0
    worst_z = 0.0
    for i in range(3):
        b_a = rng.normal(size=(3, 2))
        b_b = rng.normal(size=(3, 1))
        d = BasisDictionary(b_b=b_b, b_a=b_a)
        cfg = ModelConfig.homogeneous(
            k_a=2, sigma_e=0.4, sigma_b=0.8, sigma_j=1.2, w=0.25, v=1e-3,
            decay=0.1, m=3,
        )
        post = SpikeSlabPosterior(
            mu_a=rng.normal(size=2) * 0.8,
            s2=rng.uniform(0.05, 0.5, size=2),
            alpha=rng.uniform(0.15, 0.85, size=2),
        )
        theta = rng.normal(size=1) * 0.5
        cov = np.array([[rng.uniform(0.05, 0.3)]])
        bg = BackgroundPosterior(theta_n=theta, cov_b=cov)
        x = rng.normal(size=3)
        inp = DetectionInputs(x_z=x, z=np.arange(3), post=post, bg=bg)

        ours = log_pbf_exact(inp, d, cfg)
        qh1 = quadrature_h1_logpdf(
            x, b_a, b_b, post.mu_a, post.s2, post.alpha, theta, cov,
            cfg.sigma_e, cfg.v,
        )
        theta0 = posterior_background_mean(x, b_b, cfg.sigma_e, cfg.sigma_b)
        qh0 = quadrature_h0_logpdf(x, b_b, theta0, cov, cfg.sigma_e)
        worst_rel = max(
            worst_rel, abs(ours - (qh1 - qh0)) / max(abs(qh1 - qh0), 1e-12)
        )
        m0 = marginal_h0(inp, d, cfg)
        mc, se = mc_h0_logpdf(x, b_b, theta0, cov, cfg.sigma_e, 20000, 1000 + i)
        worst_z = max(worst_z, abs(m0 - mc) / se)
    ok = worst_rel < 1e-3 and worst_z < 3.0
    line = _report(4, ok, f"worst quadrature rel err = {worst_rel:.1e}, "
                          f"worst MC z = {worst_z:.2f}")
    assert ok, line


def test_criterion_05_subset_search_equals_top_m_scores():
    rng = np.random.default_rng(555)
    q, _ = np.linalg.qr(rng.normal(size=(8, 8)))
    d = BasisDictionary(b_b=np.zeros((8, 0)), b_a=q)
    cfg = ModelConfig.homogeneous(
        k_a=8, sigma_e=0.2, sigma_b=1.0, sigma_j=1.0, w=0.2, v=1e-5,
        decay=0.1, m=3,
    )
    scorer = OracleScorer(d, 3)
    agree = 0
    for _ in range(100):
        post = SpikeSlabPosterior(
            mu_a=rng.normal(size=8),
            s2=rng.uniform(0.05, 0.8, size=8),
            alpha=rng.uniform(0.05, 0.95, size=8),
        )
        theta_hat = draw_anomaly_sample(post, cfg, rng)
        x1 = synthesize_anomaly_signal(theta_hat, d, cfg, rng)
        plan_full = scorer.select(x1, post, np.random.default_rng(1))
        plan_fast = select_top_m(
            score_variables(x1, post, d), 3, np.random.default_rng(1)
        )
        agree += int(set(plan_full.z.tolist()) == set(plan_fast.z.tolist()))
    ok = agree == 100
    line = _report(5, ok, f"subset search agreed with top-m on {agree}/100 "
                          f"shared-draw trials")
    assert ok, line


def test_criterion_06_no_change_selection_is_near_uniform():
    d = _study_dictionary()
    cfg = _study_config(m=5)
    burn, steps = 100, 5000
    sc = Scenario(dictionary=d, cfg=cfg, tau=None, change=(),
                  horizon=burn + steps)
    stream = gen_stream(sc, np.random.default_rng(42))
    state = eng.init(cfg, d, h=math.inf, seed=5042)
    counts = np.zeros(d.p)
    for t in range(burn + steps):
        out = eng.step(state, stream[t])
        if t >= burn:
            counts[out.z] += 1
    dev = np.abs(counts / steps - cfg.m / d.p)
    ok = dev.max() <= 0.05
    line = _report(6, ok, f"max |selection freq - m/p| = {dev.max():.4f} "
                          f"over {steps} steps")
    assert ok, line


def test_criterion_07_sustained_change_is_localized_and_recovered():
    rng = np.random.default_rng(31415)
    d = _study_dictionary()
    cfg = _study_config(m=15)
    theta_a = np.zeros(10)
    theta_a[2] = 1.0
    anomaly = d.b_a @ theta_a
    post = SpikeSlabPosterior.prior(cfg)
    stats = DecayedStats.empty(10)
    z_full = np.arange(15)
    for _ in range(100):
        x = d.b_b @ (rng.normal(size=3) * cfg.sigma_b) + anomaly
        x = x + rng.normal(size=15) * cfg.sigma_e
        res = fit(x, z_full, post, stats, d, cfg)
        post, stats = res.post, res.stats
    rng_draw = np.random.default_rng(92653)
    theta_hat = draw_anomaly_sample(post, cfg, rng_draw)
    x1_hat = synthesize_anomaly_signal(theta_hat, d, cfg, rng_draw)
    scores = score_variables(x1_hat, post, d)
    support = np.flatnonzero(np.abs(d.b_a[:, 2]) > 1e-12)
    off = np.setdiff1d(np.arange(d.p), support)
    sep = scores[support].mean() - scores[off].mean()
    ok = (0.9 <= post.mu_a[2] <= 1.1 and post.alpha[2] > 0.95 and sep > 0.0)
    line = _report(7, ok, f"mu_3 = {post.mu_a[2]:.3f}, alpha_3 = "
                          f"{post.alpha[2]:.4f}, support-score margin = "
                          f"{sep:.3g}")
    assert ok, line


def test_criterion_08_calibrated_delays_at_budget_five(delay_grid):
    grid, arl = delay_grid
    parts = [f"ARL0 = {arl[5]:.2f}"]
    ok = abs(arl[5] - ARL0_TARGET) <= 0.05 * ARL0_TARGET
    for phi in GRID_PHIS:
        lo, hi = ADD_WINDOWS[phi]
        res = grid[(5, phi)]
        inside = lo <= res.add <= hi
        ok = ok and inside
        parts.append(
            f"ADD(phi={phi}) = {_cell(res)} {'in' if inside else 'NOT in'} "
            f"[{lo:.2f}, {hi:.2f}]"
        )
    line = _report(8, ok, "; ".join(parts))
    assert ok, line


def test_criterion_09_delays_shrink_with_signal_and_budget(delay_grid):
    grid, _ = delay_grid
    pairs = _ordered_pairs()
    bad = [
        f"ADD(m={weak[0]}, phi={weak[1]}) = {_cell(grid[weak])} < "
        f"ADD(m={strong[0]}, phi={strong[1]}) = {_cell(grid[strong])}"
        for weak, strong in pairs
        if _resolved_inversion(grid[weak], grid[strong])
    ]
    ok = not bad
    cells = ", ".join(
        f"ADD(m={m}, phi={phi}) = {_cell(grid[(m, phi)])}"
        for m in GRID_MS
        for phi in GRID_PHIS
    )
    if ok:
        detail = (
            f"all {len(pairs)} ordered pairs non-increasing within two "
            f"standard errors; {cells}"
        )
    else:
        detail = (
            f"{len(bad)} of {len(pairs)} ordered pairs invert by more than "
            f"two standard errors: {'; '.join(bad)}; {cells}"
        )
    line = _report(9, ok, detail)
    assert ok, line


def _summary(add: float, add_stderr: float) -> eng.RunLengthSummary:
    return eng.RunLengthSummary(
        arl0=math.nan, arl0_stderr=math.nan, add=add, add_stderr=add_stderr,
        std_dd=math.nan, n_reps=200, n_censored=0, n_false_alarm=0, n_nonconverged=0,
    )


def test_criterion_09_pair_check_resolves_inversions_by_standard_error():
    assert len(_ordered_pairs()) == 12
    # Well ordered, and a tie, pass.
    assert not _resolved_inversion(_summary(3.0, 0.1), _summary(2.0, 0.1))
    assert not _resolved_inversion(_summary(2.0, 0.1), _summary(2.0, 0.1))
    # An inversion inside two standard errors of the difference passes.
    assert not _resolved_inversion(_summary(1.84, 0.18), _summary(1.96, 0.18))
    # One beyond them fails: sqrt(0.1^2 + 0.1^2) * 2 = 0.283.
    assert _resolved_inversion(_summary(2.0, 0.1), _summary(2.3, 0.1))
    assert not _resolved_inversion(_summary(2.0, 0.1), _summary(2.28, 0.1))
    # A cell that cannot be ordered fails.
    assert _resolved_inversion(_summary(math.nan, math.nan), _summary(2.0, 0.1))
    assert _resolved_inversion(_summary(3.0, math.nan), _summary(2.0, 0.1))


def test_criterion_10_outputs_identical_across_worker_counts(tmp_path):
    doc = {
        "p": 6,
        "m": 3,
        "basis": {
            "background": {"type": "fourier", "k": 2},
            "anomaly": {
                "type": "bspline", "order": 2, "n_knots": 6, "normalize_columns": False,
            },
        },
        "model": {
            "sigma_e": 0.1, "sigma_b": 0.5, "sigma_j": 2.0, "w": 0.2,
            "v": 1e-6, "decay": 0.1,
        },
        "horizon": 300,
        "tau": 20,
        "change": [[0, 1.0]],
    }
    sc_path = tmp_path / "scenario.json"
    sc_path.write_text(json.dumps(doc))
    outs = []
    for name, workers in (("w1", 1), ("w2", 2), ("w1_again", 1)):
        out = tmp_path / name
        rc = cli_main([
            "evaluate", "--scenario", str(sc_path), "--out", str(out),
            "--seed", "99", "--reps", "12", "--workers", str(workers),
            "--threshold", "0.05",
        ])
        assert rc == 0
        outs.append(out)
    same = all(
        filecmp.cmp(outs[0] / f, other / f, shallow=False)
        for other in outs[1:]
        for f in ("summary.json", "delays.csv")
    )
    line = _report(10, same, "summary.json and delays.csv byte-identical "
                             "for workers 1, 2 and a repeated run")
    assert same, line
