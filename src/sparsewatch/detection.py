"""Change-point detection statistics for one partially observed step.

Two routes to the same decision quantity live here.  The exact route
integrates the current observation's likelihood against the fitted
posterior under both hypotheses (no anomaly vs. spike-slab anomaly) and
forms the log posterior Bayes factor; it enumerates the 2^k_a inclusion
patterns and is intended for small anomaly bases and for validating the
fast route.  The fast route is the quadratic monitoring statistic used in
the online loop, whose expectation separates across observed variables.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import cho_factor, cho_solve
from scipy.special import logsumexp

from .bases import BasisDictionary
from .errors import CapabilityError, DataError, DimensionError
from .geometry import SubsetGeometry, subset_geometry
from .inference import BackgroundPosterior, ModelConfig, SpikeSlabPosterior

__all__ = [
    "DetectionInputs",
    "marginal_h0",
    "marginal_h1_exact",
    "log_pbf_exact",
    "lambda_stat",
    "alarm_check",
    "detection_record",
]

EXACT_KA_LIMIT = 20

_LOG_2PI = math.log(2.0 * math.pi)


# ── Inputs ────────────────────────────────────────────────────────────────


@dataclass(frozen=True)
class DetectionInputs:
    """One step's observation and fitted posteriors, as the statistics see them.

    ``x_z`` holds the observed values in the same order as the index vector
    ``z``; ``post`` is the step's fitted anomaly posterior.  ``bg``, the
    background posterior (``inference.update_background``), is read only by
    the exact routes, which raise DataError without it; ``lambda_stat``
    never reads it.  The subset itself is checked (range, distinct) when its
    geometry is built.
    """

    x_z: np.ndarray
    z: np.ndarray
    post: SpikeSlabPosterior
    bg: BackgroundPosterior | None = None

    def __post_init__(self):
        x_z = np.asarray(self.x_z, dtype=np.float64).ravel()
        z = np.asarray(self.z, dtype=np.intp).ravel()
        if x_z.size != z.size:
            raise DimensionError("x_z and z must have equal length")
        if z.size == 0:
            raise DimensionError("detection needs at least one observed variable")
        object.__setattr__(self, "x_z", x_z)
        object.__setattr__(self, "z", z)


def _gather(
    inp: DetectionInputs, dictionary: BasisDictionary, cfg: ModelConfig
) -> SubsetGeometry:
    if inp.post.k_a != dictionary.k_a:
        raise DimensionError("posterior dimensions disagree with the dictionary")
    return subset_geometry(dictionary, cfg.sigma_e2, cfg.sigma_b2, inp.z)


def _background(inp: DetectionInputs, dictionary: BasisDictionary):
    """(theta_n, cov_b^{-1}, ln det cov_b) of the caller-supplied background
    posterior the exact routes integrate against, factored once per call;
    None without a background basis."""
    if inp.bg is None:
        raise DataError(
            "the exact routes need the step's background posterior: pass "
            "DetectionInputs(bg=update_background(...))"
        )
    if inp.bg.k_b != dictionary.k_b:
        raise DimensionError("background posterior disagrees with the dictionary")
    if dictionary.k_b == 0:
        return None
    factor = cho_factor(inp.bg.cov_b, lower=True)
    cov_inv = cho_solve(factor, np.eye(dictionary.k_b))
    return inp.bg.theta_n, cov_inv, _logdet_from_factor(factor)


def _logdet_from_factor(factor) -> float:
    return 2.0 * float(np.sum(np.log(np.diag(factor[0]))))


# ── Exact marginals ───────────────────────────────────────────────────────


def _h0_terms(inp: DetectionInputs, dictionary: BasisDictionary, cfg: ModelConfig, bg):
    """(ln det cov_b, ln det H, quadratic part without x'x/sigma_e^2) of
    ``marginal_h0``'s integral, H = B_bZ'B_bZ/sigma_e^2 + cov_b^{-1} its
    conditional precision, with ``bg`` from ``_background``; all zero
    without a background basis."""
    if bg is None:
        return 0.0, 0.0, 0.0
    _, cov_inv, logdet_cov = bg
    x = inp.x_z
    geo = _gather(inp, dictionary, cfg)
    b_b_z, se2 = geo.b_b_z, cfg.sigma_e2
    theta0 = geo.g @ x
    h_factor = cho_factor(b_b_z.T @ b_b_z / se2 + cov_inv, lower=True)
    g = x @ b_b_z / se2 + theta0 @ cov_inv
    quad = float(theta0 @ cov_inv @ theta0) - float(g @ cho_solve(h_factor, g))
    return logdet_cov, _logdet_from_factor(h_factor), quad


def marginal_h0(
    inp: DetectionInputs, dictionary: BasisDictionary, cfg: ModelConfig
) -> float:
    """Log marginal likelihood of the observation under the no-anomaly model.

    Integrates N(x_Z; B_bZ·theta, sigma_e^2 I) against the Gaussian carried
    by ``inp.bg.cov_b`` centered at the anomaly-free background refit, in
    closed form via a Cholesky factorization of the conditional precision.
    """
    x = inp.x_z
    se2 = cfg.sigma_e2
    bg = _background(inp, dictionary)
    logdet_cov, logdet_h, quad = _h0_terms(inp, dictionary, cfg, bg)
    base = -0.5 * x.size * (_LOG_2PI + math.log(se2))
    return base - 0.5 * (logdet_cov + logdet_h) - 0.5 * (quad + float(x @ x) / se2)


def _h1_pattern_terms(
    inp: DetectionInputs, dictionary: BasisDictionary, cfg: ModelConfig, bg
):
    """Per-inclusion-pattern log weights and log likelihood pieces.

    Yields, for every inclusion pattern r in {0,1}^k_a, the tuple
    (log q(r), log-likelihood term without the shared −(m/2)ln(2π sigma_e^2)
    − x'x/(2 sigma_e^2) − (1/2)logdet cov_b constant, quadratic part), so
    callers can assemble either the marginal or the Bayes factor without
    duplicating the enumeration; ``bg`` comes from ``_background``.
    """
    k_a = dictionary.k_a
    if k_a > EXACT_KA_LIMIT:
        raise CapabilityError(
            f"exact enumeration covers k_a <= {EXACT_KA_LIMIT} anomaly columns "
            f"(got {k_a}); use lambda_stat for monitoring at this size"
        )
    x = inp.x_z
    geo = _gather(inp, dictionary, cfg)
    b_a_z, b_b_z = geo.b_a_z, geo.b_b_z
    k_b = dictionary.k_b
    se2 = cfg.sigma_e2
    post = inp.post

    bb_a = b_a_z.T @ b_a_z / se2
    xb_a = x @ b_a_z / se2
    log_alpha = np.log(post.alpha)
    log_one_minus = np.log1p(-post.alpha)

    if k_b:
        theta1, cov_inv, _ = bg
        c_mat = b_b_z.T @ b_a_z / se2
        h = b_b_z.T @ b_b_z / se2 + cov_inv
        g1 = x @ b_b_z / se2 + theta1 @ cov_inv
        quad_theta1 = float(theta1 @ cov_inv @ theta1)
    else:
        c_mat = np.zeros((0, k_a))
        h = np.zeros((0, 0))
        g1 = np.zeros(0)
        quad_theta1 = 0.0

    out = []
    for code in range(1 << k_a):
        r = (code >> np.arange(k_a)) & 1
        k_diag = (r + (1 - r) * cfg.v) * post.s2
        k_inv = 1.0 / k_diag
        mu_r = post.mu_a * r
        a_mat = bb_a + np.diag(k_inv)
        a_factor = cho_factor(a_mat, lower=True)
        d = xb_a + mu_r * k_inv
        a_inv_d = cho_solve(a_factor, d)
        logdet = float(np.sum(np.log(k_diag))) + _logdet_from_factor(a_factor)
        quad = float(mu_r @ (k_inv * mu_r)) + quad_theta1 - float(d @ a_inv_d)
        if k_b:
            a_inv_ct = cho_solve(a_factor, c_mat.T)
            h_s = h - c_mat @ a_inv_ct
            hs_factor = cho_factor(h_s, lower=True)
            g_t = g1 - d @ a_inv_ct
            logdet += _logdet_from_factor(hs_factor)
            quad -= float(g_t @ cho_solve(hs_factor, g_t))
        log_weight = float(r @ log_alpha + (1 - r) @ log_one_minus)
        out.append((log_weight, logdet, quad))
    return out


def marginal_h1_exact(
    inp: DetectionInputs, dictionary: BasisDictionary, cfg: ModelConfig
) -> float:
    """Log marginal likelihood of the observation under the anomaly model.

    Sums, over every inclusion pattern of the fitted spike-slab posterior,
    the closed-form Gaussian integral over the anomaly and background
    coefficients.  Enumeration is exponential in k_a and refuses dictionaries
    with more than 20 anomaly columns.
    """
    x = inp.x_z
    m = x.size
    se2 = cfg.sigma_e2
    base = -0.5 * m * (_LOG_2PI + math.log(se2)) - 0.5 * float(x @ x) / se2
    bg = _background(inp, dictionary)
    if bg is not None:
        base -= 0.5 * bg[2]
    terms = [
        lw - 0.5 * logdet - 0.5 * quad
        for lw, logdet, quad in _h1_pattern_terms(inp, dictionary, cfg, bg)
    ]
    return float(logsumexp(terms)) + base


def log_pbf_exact(
    inp: DetectionInputs, dictionary: BasisDictionary, cfg: ModelConfig
) -> float:
    """Exact log posterior Bayes factor of anomaly against no anomaly.

    Algebraically identical to ``marginal_h1_exact − marginal_h0`` but
    assembled from the shared-constant cancellation, so the observation
    quadratic x'x and the flat Gaussian constants never enter.
    """
    bg = _background(inp, dictionary)
    _, logdet_h, quad0 = _h0_terms(inp, dictionary, cfg, bg)
    terms = [
        lw + 0.5 * (logdet_h - logdet) - 0.5 * (quad - quad0)
        for lw, logdet, quad in _h1_pattern_terms(inp, dictionary, cfg, bg)
    ]
    return float(logsumexp(terms))


# ── Monitoring statistic ──────────────────────────────────────────────────


def lambda_stat(
    inp: DetectionInputs, dictionary: BasisDictionary, cfg: ModelConfig
) -> float:
    """Quadratic monitoring statistic of one step.

    With y = B_aZ·mu_tilde, P the projection onto the observed background
    columns, and the inclusion-moment matrix that has alpha_i on the diagonal
    and alpha_i·alpha_j off it:

        2·mu_tilde'B_aZ'(I − P)(x_Z − B_bZ·theta_n)
        − mu_a'(B_aZ'B_aZ ∘ moments)·mu_a + y'P y

    Since (I − P)·B_bZ = 0, no background estimate theta_n enters: the
    first term is 2·(y'x_Z − (P y)'x_Z), and ``inp.bg`` is not read.  P·y =
    basis·(basis'·y) comes from the subset's shared geometry, whose
    orthonormal basis of the observed background columns stays exact when
    those rows are rank-deficient.  Exactly zero when the posterior anomaly
    mean vanishes.
    """
    x = inp.x_z
    geo = _gather(inp, dictionary, cfg)
    post = inp.post
    mu_t = post.mu_tilde

    y = geo.b_a_z @ mu_t
    p_y = geo.basis @ (geo.basis.T @ y)

    spread = post.alpha * (1.0 - post.alpha) * post.mu_a * post.mu_a
    quad = float(y @ y) + float(geo.col_sq @ spread)
    term1 = 2.0 * (float(y @ x) - float(p_y @ x))
    term3 = float(y @ p_y)
    return term1 - quad + term3


def alarm_check(stat: float, h: float) -> bool:
    """Alarm rule: raise if the statistic strictly exceeds the threshold."""
    return bool(stat > h)


def detection_record(step: int, z, stat: float, alarmed: bool) -> dict:
    """JSON-serializable per-step detection log entry."""
    return {
        "step": int(step),
        "z": [int(i) for i in np.asarray(z).ravel()],
        "stat": float(stat),
        "alarmed": bool(alarmed),
    }
