"""Independent reference implementations used by the test suite.

Everything here recomputes quantities the package also computes, but by a
different route: explicit weighted sums where the package uses recursions,
KL decompositions where the package uses an assembled closed form, dense
grid search where the package uses coordinate ascent, conjugate Gaussian
identities and numerical quadrature where the package uses block
eliminations.  Nothing in this module may import from sparsewatch modules
other than plain dataclass containers.
"""

from __future__ import annotations

import itertools
import math

import mpmath
import numpy as np
from scipy.integrate import simpson
from scipy.special import logsumexp
from scipy.stats import multivariate_normal


# ── Decayed statistics by explicit summation ──────────────────────────────


def decayed_weights(lam: float, n: int) -> np.ndarray:
    """Unnormalized step weights (1-lam)^{n-t}, t=1..n (newest weight 1)."""
    t = np.arange(1, n + 1)
    return (1.0 - lam) ** (n - t)


def stats_from_history(history, lam: float, sigma_e: float, sigma_b: float):
    """Whitened decayed cross-moments from an explicit history.

    ``history`` is a sequence of (b_a_rows, b_b_rows, x) triples, oldest
    first.  Each step's marginal covariance sigma_b^2·B_b·B_b' + sigma_e^2·I
    is formed densely and inverted outright (the package solves the
    k_b-sized complement instead); the weighted sums use the weights from
    ``decayed_weights``, no recursion involved.  Returns a dict keyed like
    the package's accumulator fields (M, u, q, norm, mass).
    """
    n = len(history)
    weights = decayed_weights(lam, n)
    k_a = history[0][0].shape[1]
    out = {
        "M": np.zeros((k_a, k_a)),
        "u": np.zeros(k_a),
        "q": 0.0,
        "norm": 0.0,
        "mass": 0.0,
    }
    for w_t, (a_rows, b_rows, x) in zip(weights, history):
        m = x.size
        cov = sigma_b**2 * b_rows @ b_rows.T + sigma_e**2 * np.eye(m)
        white = sigma_e**2 * np.linalg.inv(cov)
        sign, logdet_cov = np.linalg.slogdet(cov)
        assert sign > 0
        out["M"] += w_t * a_rows.T @ white @ a_rows
        out["u"] += w_t * a_rows.T @ white @ x
        out["q"] += w_t * float(x @ white @ x)
        out["norm"] += w_t * (-0.5) * (m * math.log(2.0 * math.pi) + logdet_cov)
        out["mass"] += w_t
    return out


def whitened_subset_terms(a_rows, b_rows, x, sigma_e: float, sigma_b: float):
    """One step's whitened moments and background projection, dense m×m route.

    W = sigma_e^2·inv(sigma_b^2·B_b·B_b' + sigma_e^2·I) is formed and its log
    determinant taken outright; the projection onto the observed background
    columns comes from the pseudoinverse.  Returns a dict with M, u, q,
    logdet_w and P.
    """
    m = x.size
    cov = sigma_b**2 * b_rows @ b_rows.T + sigma_e**2 * np.eye(m)
    white = sigma_e**2 * np.linalg.inv(cov)
    sign, logdet_w = np.linalg.slogdet(white)
    assert sign > 0
    proj = b_rows @ np.linalg.pinv(b_rows) if b_rows.shape[1] else np.zeros((m, m))
    return {
        "M": a_rows.T @ white @ a_rows,
        "u": a_rows.T @ white @ x,
        "q": float(x @ white @ x),
        "logdet_w": float(logdet_w),
        "P": proj,
    }


# ── Evidence bound via KL decomposition ───────────────────────────────────


def reference_elbo(mu, s2, alpha, m_mat, u, q, cfg_vals):
    """Evidence bound as expected log-likelihood minus KL terms.

    ``cfg_vals`` is a dict with sigma_e, sigma_j (vector), w (vector), v and
    ``norm``, the decayed sum of the per-step Gaussian normalizations.  The
    expected quadratic uses the full second-moment matrix of the variational
    anomaly coefficient, E[theta theta'] = diag(alpha(mu^2+s^2) +
    (1-alpha) v s^2) off-diagonal mu_tilde mu_tilde', traced against M.
    """
    mu = np.asarray(mu, dtype=float)
    s2 = np.asarray(s2, dtype=float)
    alpha = np.asarray(alpha, dtype=float)
    se2 = cfg_vals["sigma_e"] ** 2
    sj2 = np.asarray(cfg_vals["sigma_j"], dtype=float) ** 2
    w = np.asarray(cfg_vals["w"], dtype=float)
    v = cfg_vals["v"]

    mu_t = alpha * mu
    diag_second = alpha * (mu**2 + s2) + (1.0 - alpha) * v * s2
    second = np.outer(mu_t, mu_t)
    np.fill_diagonal(second, diag_second)
    expected_quad = q - 2.0 * float(u @ mu_t) + float(np.sum(m_mat * second))
    e_loglik = cfg_vals["norm"] - expected_quad / (2.0 * se2)

    def kl_gauss(mean1, var1, var0):
        return 0.5 * (var1 / var0 + mean1**2 / var0 - 1.0 + np.log(var0 / var1))

    kl_slab = kl_gauss(mu, s2, sj2)
    kl_spike = kl_gauss(np.zeros_like(mu), v * s2, v * sj2)
    kl_bern = alpha * np.log(alpha / w) + (1.0 - alpha) * np.log(
        (1.0 - alpha) / (1.0 - w)
    )
    kl_total = alpha * kl_slab + (1.0 - alpha) * kl_spike + kl_bern
    return float(e_loglik - kl_total.sum())


def reference_sweep(mu, alpha, m_mat, u, cfg_vals, clamp):
    """One dense, plain in-order coordinate-ascent pass, one coordinate at a time.

    Coordinate j reads the full row M_j against the current shrunken mean
    (earlier coordinates already updated) and removes its own term:
    mu_j = (s_j^2/sigma_e^2)(u_j − (M_j·mu_tilde − M_jj mu_tilde_j)), and
    alpha_j is the logistic of its closed-form logit, clipped to
    [clamp, 1 − clamp].  Returns (mu, s2, alpha).
    """
    mu = np.array(mu, dtype=float)
    alpha = np.array(alpha, dtype=float)
    se2 = cfg_vals["sigma_e"] ** 2
    sj2 = np.asarray(cfg_vals["sigma_j"], dtype=float) ** 2
    logit_w = np.log(cfg_vals["w"]) - np.log1p(-np.asarray(cfg_vals["w"], dtype=float))
    v = cfg_vals["v"]
    diag = np.diag(m_mat)
    s2 = 1.0 / (diag / se2 + 1.0 / sj2)
    mu_t = mu * alpha
    for j in range(mu.size):
        cross = m_mat[j] @ mu_t - diag[j] * mu_t[j]
        mu[j] = s2[j] / se2 * (u[j] - cross)
        logit = (
            logit_w[j]
            + mu[j] ** 2 / (2.0 * sj2[j])
            + diag[j] / (2.0 * se2) * (mu[j] ** 2 - s2[j] + v * s2[j])
        )
        alpha[j] = np.clip(0.5 * (1.0 + math.tanh(0.5 * logit)), clamp, 1.0 - clamp)
        mu_t[j] = mu[j] * alpha[j]
    return mu, s2, alpha


def blocked_sweep(mu, alpha, m_mat, u, cfg, clamp, block, max_sweeps, tol=0.0):
    """Blocked in-order coordinate ascent on plain floats, sweep by sweep.

    The bitwise reference for the package's generated sweep kernels: the
    interpreted loop the package ran before them, over per-coordinate tuples
    and lists.  ``cfg`` supplies the stored config values (``sigma_e2``,
    ``sigma_j2``, ``logit_w``, ``v``) the package reads.  The coordinates are
    split evenly into contiguous blocks of at most ``block``; at the start of
    each block one product of M (diagonal zeroed) with the current shrunken
    mean gives every coordinate's cross term, and each coordinate then adds
    M_ji·Δmu_tilde_i for the earlier coordinates of its block already
    updated in this pass.

    Runs up to ``max_sweeps`` passes and stops after the first whose largest
    |change| of any mu_j or alpha_j is below ``tol`` (a NaN change never
    is).  Returns (mu, s2, alpha, sweeps run, converged, last largest change).
    """
    se2, v, k_a = cfg.sigma_e2, cfg.v, len(u)
    sj2, logit_w, u = cfg.sigma_j2.tolist(), cfg.logit_w.tolist(), np.asarray(u).tolist()
    m_mat = np.asarray(m_mat, dtype=float)
    off = m_mat.copy()
    np.fill_diagonal(off, 0.0)
    n_blocks = -(-k_a // block)
    bounds = [i * k_a // n_blocks for i in range(n_blocks + 1)]
    blocks = []
    for start, stop in zip(bounds, bounds[1:]):
        terms = []
        for j, row in enumerate(m_mat[start:stop, start:stop].tolist(), start):
            m_jj = row[j - start]
            s2_j = 1.0 / (m_jj / se2 + 1.0 / sj2[j])
            terms.append((row, u[j], s2_j, s2_j / se2, v * s2_j,
                          logit_w[j], 2.0 * sj2[j], m_jj / (2.0 * se2)))
        blocks.append((start, stop, off[start:stop], terms))
    mu = np.asarray(mu, dtype=float).tolist()
    alpha = np.asarray(alpha, dtype=float).tolist()
    mu_t = [m * a for m, a in zip(mu, alpha)]
    lo, hi = clamp, 1.0 - clamp

    def one_pass():
        delta = 0.0
        for start, stop, off_rows, terms in blocks:
            steps = []
            for j, cross, (row, u_j, s2_j, scale, v_s2, lw, two_sj2, half_m) in zip(
                range(start, stop), off_rows.dot(mu_t).tolist(), terms
            ):
                for a, b in zip(row, steps):
                    cross += a * b
                mu_j = scale * (u_j - cross)
                sq = mu_j * mu_j
                logit = lw + sq / two_sj2 + half_m * (sq - s2_j + v_s2)
                if logit >= 0.0:
                    a_j = min(1.0 / (1.0 + math.exp(-logit)), hi)
                else:
                    e = math.exp(logit)
                    a_j = e / (1.0 + e)
                    if not a_j >= lo:
                        a_j = lo
                for d in (abs(mu_j - mu[j]), abs(a_j - alpha[j])):
                    if d > delta or d != d:
                        delta = d
                mu[j], alpha[j] = mu_j, a_j
                steps.append(mu_j * a_j - mu_t[j])
                mu_t[j] = mu_j * a_j
        return delta

    converged = False
    for sweeps in range(1, max_sweeps + 1):
        delta = one_pass()
        if delta < tol:
            converged = True
            break
    s2 = [t[2] for block_ in blocks for t in block_[3]]
    return mu, s2, alpha, sweeps, converged, delta


def grid_max_elbo_2d(m_mat, u, q, cfg_vals, mu_range=2.0, stages=6, grid=21):
    """Maximize the reference bound over (mu_1, mu_2, alpha_1, alpha_2).

    Slab variances are held at their stationary values (they enter the bound
    separably and the maximizer is available in closed form).  Staged grid
    refinement: each stage lays a ``grid``^4 mesh over the current box and
    shrinks the box around the best point.
    """
    se2 = cfg_vals["sigma_e"] ** 2
    sj2 = np.asarray(cfg_vals["sigma_j"], dtype=float) ** 2
    s2_star = 1.0 / (np.diag(m_mat) / se2 + 1.0 / sj2)

    lo_mu = np.array([-mu_range, -mu_range])
    hi_mu = np.array([mu_range, mu_range])
    lo_a = np.array([1e-4, 1e-4])
    hi_a = np.array([1.0 - 1e-4, 1.0 - 1e-4])
    best = None

    for _ in range(stages):
        mu1 = np.linspace(lo_mu[0], hi_mu[0], grid)
        mu2 = np.linspace(lo_mu[1], hi_mu[1], grid)
        a1 = np.linspace(lo_a[0], hi_a[0], grid)
        a2 = np.linspace(lo_a[1], hi_a[1], grid)
        g_mu1, g_mu2, g_a1, g_a2 = np.meshgrid(mu1, mu2, a1, a2, indexing="ij")

        vals = _elbo_grid_2d(
            g_mu1, g_mu2, g_a1, g_a2, s2_star, m_mat, u, q, cfg_vals
        )
        flat = int(np.argmax(vals))
        idx = np.unravel_index(flat, vals.shape)
        best = (
            float(g_mu1[idx]),
            float(g_mu2[idx]),
            float(g_a1[idx]),
            float(g_a2[idx]),
            float(vals[idx]),
        )
        width_mu = (hi_mu - lo_mu) * 0.15
        width_a = (hi_a - lo_a) * 0.15
        center_mu = np.array(best[:2])
        center_a = np.array(best[2:4])
        lo_mu = center_mu - width_mu
        hi_mu = center_mu + width_mu
        lo_a = np.clip(center_a - width_a, 1e-6, 1.0 - 1e-6)
        hi_a = np.clip(center_a + width_a, 1e-6, 1.0 - 1e-6)
    return best


def _elbo_grid_2d(mu1, mu2, a1, a2, s2_star, m_mat, u, q, cfg_vals):
    """Reference bound on a broadcastable grid, k_a = 2 expanded by hand."""
    se2 = cfg_vals["sigma_e"] ** 2
    sj2 = np.asarray(cfg_vals["sigma_j"], dtype=float) ** 2
    w = np.asarray(cfg_vals["w"], dtype=float)
    v = cfg_vals["v"]
    s2_1, s2_2 = s2_star

    mt1 = a1 * mu1
    mt2 = a2 * mu2
    sec1 = a1 * (mu1**2 + s2_1) + (1.0 - a1) * v * s2_1
    sec2 = a2 * (mu2**2 + s2_2) + (1.0 - a2) * v * s2_2
    quad = (
        q
        - 2.0 * (u[0] * mt1 + u[1] * mt2)
        + m_mat[0, 0] * sec1
        + m_mat[1, 1] * sec2
        + 2.0 * m_mat[0, 1] * mt1 * mt2
    )
    e_loglik = cfg_vals["norm"] - quad / (2.0 * se2)

    def kl_gauss(mean1, var1, var0):
        return 0.5 * (var1 / var0 + mean1**2 / var0 - 1.0 + np.log(var0 / var1))

    kl1 = (
        a1 * kl_gauss(mu1, s2_1, sj2[0])
        + (1.0 - a1) * kl_gauss(0.0, v * s2_1, v * sj2[0])
        + a1 * np.log(a1 / w[0])
        + (1.0 - a1) * np.log((1.0 - a1) / (1.0 - w[0]))
    )
    kl2 = (
        a2 * kl_gauss(mu2, s2_2, sj2[1])
        + (1.0 - a2) * kl_gauss(0.0, v * s2_2, v * sj2[1])
        + a2 * np.log(a2 / w[1])
        + (1.0 - a2) * np.log((1.0 - a2) / (1.0 - w[1]))
    )
    return e_loglik - kl1 - kl2


# ── Conjugate marginal likelihoods ────────────────────────────────────────


def posterior_background_mean(x, b_b_rows, sigma_e, sigma_b):
    """Ridge-style posterior mean of the background coefficient."""
    k_b = b_b_rows.shape[1]
    a = b_b_rows.T @ b_b_rows / sigma_e**2 + np.eye(k_b) / sigma_b**2
    return np.linalg.solve(a, b_b_rows.T @ x / sigma_e**2)


def conjugate_h0_logpdf(x, b_b_rows, theta0, cov_b, sigma_e):
    """Marginal of x with theta integrated out: one dense Gaussian density."""
    m = x.size
    cov = b_b_rows @ cov_b @ b_b_rows.T + sigma_e**2 * np.eye(m)
    return float(
        multivariate_normal.logpdf(x, mean=b_b_rows @ theta0, cov=cov)
    )


def conjugate_h1_logpdf(
    x, b_a_rows, b_b_rows, mu, s2, alpha, theta1, cov_b, sigma_e, v
):
    """Mixture-of-Gaussians marginal over every inclusion pattern."""
    m = x.size
    k_a = mu.size
    base_cov = (
        b_b_rows @ cov_b @ b_b_rows.T + sigma_e**2 * np.eye(m)
        if b_b_rows.shape[1]
        else sigma_e**2 * np.eye(m)
    )
    base_mean = b_b_rows @ theta1 if b_b_rows.shape[1] else np.zeros(m)
    terms = []
    for r in itertools.product((0, 1), repeat=k_a):
        r = np.array(r)
        k_diag = (r + (1 - r) * v) * s2
        mean = base_mean + b_a_rows @ (mu * r)
        cov = base_cov + (b_a_rows * k_diag) @ b_a_rows.T
        log_w = float(r @ np.log(alpha) + (1 - r) @ np.log1p(-alpha))
        terms.append(log_w + multivariate_normal.logpdf(x, mean=mean, cov=cov))
    return float(logsumexp(terms))


def _mp_gauss_logpdf(resid, cov):
    """ln N(resid; 0, cov) in mpmath from a Cholesky factor of cov."""
    root = mpmath.cholesky(cov)
    w = mpmath.cholesky_solve(cov, resid)
    m = cov.rows
    logdet = 2 * mpmath.fsum(mpmath.log(root[i, i]) for i in range(m))
    quad = mpmath.fsum(resid[i] * w[i] for i in range(m))
    return -(m * mpmath.log(2 * mpmath.pi) + logdet + quad) / 2


def mp_log_marginals(
    x, b_a_rows, b_b_rows, mu, s2, alpha, theta1, cov_b, sigma_e2, sigma_b2, v, dps=40
):
    """(ln p(x | H0), ln p(x | H1)) at ``dps`` digits from the m-space densities.

    H0 is N(x; B_b·theta0, sigma_e2·I + B_b·cov_b·B_b'), theta0 the
    anomaly-free refit (B_b'B_b/sigma_e2 + I/sigma_b2)^{-1}·B_b'x/sigma_e2
    solved in mpmath; H1 the mixture over inclusion patterns r of
    N(x; B_a·(mu∘r) + B_b·theta1, sigma_e2·I + B_b·cov_b·B_b' + B_a·K_r·B_a'),
    K_r = diag(s2·(r + (1 − r)·v)), weighted by Π alpha^r·(1 − alpha)^(1−r).
    Every float input is taken exactly.
    """
    m, k_a = b_a_rows.shape
    k_b = b_b_rows.shape[1]
    with mpmath.workdps(dps):
        se2 = mpmath.mpf(float(sigma_e2))
        xv = mpmath.matrix(np.asarray(x, dtype=float).tolist())
        b_a = mpmath.matrix(b_a_rows.tolist())
        base_cov = se2 * mpmath.eye(m)
        mean0 = mean1 = mpmath.zeros(m, 1)
        if k_b:
            b_b = mpmath.matrix(b_b_rows.tolist())
            base_cov += b_b * mpmath.matrix(cov_b.tolist()) * b_b.T
            gram = b_b.T * b_b / se2 + mpmath.eye(k_b) / mpmath.mpf(float(sigma_b2))
            mean0 = b_b * mpmath.lu_solve(gram, b_b.T * xv / se2)
            mean1 = b_b * mpmath.matrix(np.asarray(theta1, dtype=float).tolist())
        h0 = _mp_gauss_logpdf(xv - mean0, base_cov)
        terms = []
        for r in itertools.product((0, 1), repeat=k_a):
            k_diag = [mpmath.mpf(float(s2[j])) * (1 if r[j] else mpmath.mpf(float(v))) for j in range(k_a)]
            mean = mean1 + b_a * mpmath.matrix([mpmath.mpf(float(mu[j])) * r[j] for j in range(k_a)])
            cov = base_cov + b_a * mpmath.diag(k_diag) * b_a.T
            a = [mpmath.mpf(float(alpha[j])) for j in range(k_a)]
            log_w = mpmath.fsum(mpmath.log(a[j] if r[j] else 1 - a[j]) for j in range(k_a))
            terms.append(log_w + _mp_gauss_logpdf(xv - mean, cov))
        top = max(terms)
        h1 = top + mpmath.log(mpmath.fsum(mpmath.exp(t - top) for t in terms))
        return +h0, +h1


# ── Quadrature marginals (small dimensions) ───────────────────────────────


def _norm_logpdf(x, mean, var):
    return -0.5 * (np.log(2.0 * np.pi * var) + (x - mean) ** 2 / var)


def quadrature_h0_logpdf(x, b_b_rows, theta0, cov_b, sigma_e, n_grid=4001):
    """1-D quadrature over a scalar background coefficient."""
    assert b_b_rows.shape[1] == 1
    sd = math.sqrt(float(cov_b[0, 0]))
    center = float(theta0[0])
    grid = np.linspace(center - 10 * sd, center + 10 * sd, n_grid)
    log_prior = _norm_logpdf(grid, center, float(cov_b[0, 0]))
    resid = x[None, :] - b_b_rows[:, 0][None, :] * grid[:, None]
    log_lik = -0.5 * (
        x.size * np.log(2.0 * np.pi * sigma_e**2)
        + (resid**2).sum(axis=1) / sigma_e**2
    )
    integrand = np.exp(log_prior + log_lik - (log_prior + log_lik).max())
    val = simpson(integrand, x=grid)
    return float(np.log(val) + (log_prior + log_lik).max())


def quadrature_h1_logpdf(
    x, b_a_rows, b_b_rows, mu, s2, alpha, theta1, cov_b, sigma_e, v, n_grid=161
):
    """3-D quadrature over (theta_a1, theta_a2, theta_n), k_a = 2, k_b = 1.

    Integrates each inclusion pattern on its own tensor grid (the spike
    components are extremely narrow, so shared grids would miss them), then
    mixes the pattern integrals by their posterior weights.
    """
    assert b_a_rows.shape[1] == 2 and b_b_rows.shape[1] == 1
    sd_n = math.sqrt(float(cov_b[0, 0]))
    c_n = float(theta1[0])
    grid_n = np.linspace(c_n - 9 * sd_n, c_n + 9 * sd_n, n_grid)

    pattern_logs = []
    for r in itertools.product((0, 1), repeat=2):
        r = np.array(r)
        k_diag = (r + (1 - r) * v) * s2
        means = mu * r
        sds = np.sqrt(k_diag)
        grid_1 = np.linspace(means[0] - 9 * sds[0], means[0] + 9 * sds[0], n_grid)
        grid_2 = np.linspace(means[1] - 9 * sds[1], means[1] + 9 * sds[1], n_grid)
        g1, g2, gn = np.meshgrid(grid_1, grid_2, grid_n, indexing="ij")

        log_p = (
            _norm_logpdf(g1, means[0], k_diag[0])
            + _norm_logpdf(g2, means[1], k_diag[1])
            + _norm_logpdf(gn, c_n, float(cov_b[0, 0]))
        )
        mean_x = (
            np.multiply.outer(g1, b_a_rows[:, 0])
            + np.multiply.outer(g2, b_a_rows[:, 1])
            + np.multiply.outer(gn, b_b_rows[:, 0])
        )
        log_lik = -0.5 * (
            x.size * np.log(2.0 * np.pi * sigma_e**2)
            + ((x - mean_x) ** 2).sum(axis=-1) / sigma_e**2
        )
        total = log_p + log_lik
        shift = total.max()
        integrand = np.exp(total - shift)
        val = simpson(
            simpson(simpson(integrand, x=grid_n, axis=2), x=grid_2, axis=1),
            x=grid_1,
        )
        log_w = float(r @ np.log(alpha) + (1 - r) @ np.log1p(-alpha))
        pattern_logs.append(log_w + float(np.log(val)) + float(shift))
    return float(logsumexp(pattern_logs))


def mc_h0_logpdf(x, b_b_rows, theta0, cov_b, sigma_e, n_draws, seed):
    """Monte Carlo estimate of the no-anomaly marginal with a standard error.

    Returns (estimate of log p, approximate SE of the log estimate).
    """
    rng = np.random.default_rng(seed)
    k_b = b_b_rows.shape[1]
    chol = np.linalg.cholesky(cov_b)
    draws = theta0[None, :] + rng.standard_normal((n_draws, k_b)) @ chol.T
    resid = x[None, :] - draws @ b_b_rows.T
    log_lik = -0.5 * (
        x.size * np.log(2.0 * np.pi * sigma_e**2)
        + (resid**2).sum(axis=1) / sigma_e**2
    )
    shift = log_lik.max()
    weights = np.exp(log_lik - shift)
    mean_w = weights.mean()
    se_w = weights.std(ddof=1) / math.sqrt(n_draws)
    return float(np.log(mean_w) + shift), float(se_w / mean_w)


# ── Subset scoring by explicit projections ────────────────────────────────


def reference_subset_score(z, x1_hat, b_a, b_b, mu, s2, alpha):
    """Monitoring-statistic value of one candidate subset, dense route.

    Uses an explicit pseudoinverse projection and the moment matrix with
    alpha_i on the diagonal and alpha_i alpha_j off it.
    """
    z = np.asarray(z, dtype=int)
    mu_t = mu * alpha
    b_az = b_a[z]
    y = b_az @ mu_t
    x_sub = x1_hat[z]
    if b_b.shape[1]:
        b_bz = b_b[z]
        proj = b_bz @ np.linalg.pinv(b_bz)
    else:
        proj = np.zeros((z.size, z.size))
    moments = np.outer(alpha, alpha)
    np.fill_diagonal(moments, alpha)
    quad = float(mu @ ((b_az.T @ b_az) * moments) @ mu)
    term1 = 2.0 * float(y @ (np.eye(z.size) - proj) @ x_sub)
    term3 = float(y @ proj @ y)
    return term1 - quad + term3


# ── Subset selection by a full permutation-ranked sort ────────────────────


def reference_select_top_m(scores, m, rng):
    """The m largest scores' ascending indices, ties broken by a uniform
    random permutation: a stable descending sort of the permuted scores,
    cut after m.  NaN ranks last."""
    scores = np.asarray(scores, dtype=np.float64).ravel()
    perm = rng.permutation(scores.size)
    ranked = perm[np.argsort(-scores[perm], kind="stable")]
    return np.sort(ranked[:m])
