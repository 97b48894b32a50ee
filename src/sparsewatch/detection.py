"""Change-point detection statistics for one partially observed step.

Two routes to the same decision quantity live here.  The exact route
integrates the current observation's likelihood against the fitted
posterior under both hypotheses (no anomaly vs. spike-slab anomaly) and
forms the log posterior Bayes factor; it enumerates the 2^k_a inclusion
patterns and is intended for small anomaly bases and for validating the
fast route.  The fast route is the quadratic monitoring statistic used in
the online loop, whose expectation separates across observed variables.

The enumeration runs on numpy alone, so importing this module (and the
engine, which imports it) loads no numerical package beyond numpy, which
keeps a monitoring process's start-up short.  Both hypotheses are one
Gaussian integral over the coefficients, evaluated by ``_gaussian_terms``:
a stacked ``np.linalg.cholesky`` of the precision and a stacked forward
substitution for its quadratic form.  Under the anomaly model each
inclusion pattern's precision is the joint (k_a + k_b, k_a + k_b) matrix
over anomaly and background coefficients, taken ``_PATTERN_CHUNK``
patterns at a time as one stack; a log-sum-exp reduces each chunk, and
another the chunks, so memory per call stays bounded up to
``EXACT_KA_LIMIT``.  Without a background basis its pieces are empty.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

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

# Inclusion patterns factored per stacked call: at k_a = EXACT_KA_LIMIT and
# k_b = 3 one (chunk, k_a + k_b, k_a + k_b) stack is 1.1 MB.
_PATTERN_CHUNK = 256

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
    posterior the exact routes integrate against, once per call; empty
    pieces without a background basis.  The one place the exact routes
    check that cov_b is finite and positive definite."""
    if inp.bg is None:
        raise DataError(
            "the exact routes need the step's background posterior: pass "
            "DetectionInputs(bg=update_background(...))"
        )
    if inp.bg.k_b != dictionary.k_b:
        raise DimensionError("background posterior disagrees with the dictionary")
    cov_b = inp.bg.cov_b
    try:
        root = np.linalg.cholesky(cov_b)
    except np.linalg.LinAlgError:
        root = None
    if root is None or not np.all(np.isfinite(cov_b)):
        raise DataError(
            "the background covariance cov_b is not a finite positive-definite matrix"
        )
    return inp.bg.theta_n, np.linalg.inv(cov_b), 2.0 * float(np.sum(np.log(np.diag(root))))


def _gaussian_terms(prec, lin):
    """(ln det P, l'·P^{-1}·l) for a positive-definite P and linear term l,
    or for a stack of them.  With P = L·L', the quadratic form is the
    squared norm of L^{-1}·l, found by forward substitution one row of the
    stack at a time."""
    root = np.linalg.cholesky(prec)
    w = np.empty_like(lin)
    for i in range(lin.shape[-1]):
        dot = np.einsum("...j,...j->...", root[..., i, :i], w[..., :i])
        w[..., i] = (lin[..., i] - dot) / root[..., i, i]
    logdet = 2.0 * np.sum(np.log(np.diagonal(root, axis1=-2, axis2=-1)), axis=-1)
    return logdet, np.sum(w * w, axis=-1)


def _logsumexp(a) -> float:
    """ln Σ exp(a), shifted by the largest entry; ±inf and NaN pass through."""
    a = np.asarray(a, dtype=np.float64)
    top = float(np.max(a))
    if not math.isfinite(top):
        return top
    return top + math.log(float(np.sum(np.exp(a - top))))


# ── Exact marginals ───────────────────────────────────────────────────────


def _h0_terms(inp: DetectionInputs, dictionary: BasisDictionary, cfg: ModelConfig, bg):
    """(ln det H, quadratic part without x'x/sigma_e^2) of ``marginal_h0``'s
    integral, H = B_bZ'B_bZ/sigma_e^2 + cov_b^{-1} its conditional
    precision, with ``bg`` from ``_background``; both zero without a
    background basis."""
    _, cov_inv, _ = bg
    x = inp.x_z
    geo = _gather(inp, dictionary, cfg)
    b_b_z, se2 = geo.b_b_z, cfg.sigma_e2
    theta0 = geo.g @ x
    prior = cov_inv @ theta0
    logdet_h, quad_h = _gaussian_terms(b_b_z.T @ b_b_z / se2 + cov_inv, x @ b_b_z / se2 + prior)
    return float(logdet_h), float(theta0 @ prior) - float(quad_h)


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
    logdet_h, quad = _h0_terms(inp, dictionary, cfg, bg)
    base = -0.5 * x.size * (_LOG_2PI + math.log(se2))
    return base - 0.5 * (bg[2] + logdet_h) - 0.5 * (quad + float(x @ x) / se2)


def _h1_log_mass(
    inp: DetectionInputs,
    dictionary: BasisDictionary,
    cfg: ModelConfig,
    bg,
    logdet0: float = 0.0,
    quad0: float = 0.0,
) -> float:
    """ln Σ_r q(r)·exp(−(logdet_r − logdet0)/2 − (quad_r − quad0)/2) over
    every inclusion pattern r in {0,1}^k_a.

    logdet_r and quad_r are pattern r's log-determinant and quadratic part
    of the Gaussian integral over the anomaly and background coefficients,
    without the shared −(m/2)ln(2π sigma_e^2) − x'x/(2 sigma_e^2) −
    (1/2)logdet cov_b constant; the shifts let the Bayes factor cancel the
    no-anomaly terms inside the sum.  Pattern r's joint precision is the
    shared B_Z'B_Z/sigma_e^2 + blockdiag(0, cov_b^{-1}), B_Z = [B_aZ, B_bZ],
    plus K_r^{-1} on the anomaly diagonal; its linear term is
    B_Z'x/sigma_e^2 + (K_r^{-1}·mu_r, cov_b^{-1}·theta_n).  Patterns are
    factored ``_PATTERN_CHUNK`` at a time as stacks; ``bg`` comes from
    ``_background``.
    """
    k_a = dictionary.k_a
    if k_a > EXACT_KA_LIMIT:
        raise CapabilityError(
            f"exact enumeration covers k_a <= {EXACT_KA_LIMIT} anomaly columns "
            f"(got {k_a}); use lambda_stat for monitoring at this size"
        )
    x = inp.x_z
    geo = _gather(inp, dictionary, cfg)
    se2 = cfg.sigma_e2
    post = inp.post
    theta1, cov_inv, _ = bg

    b_z = np.hstack((geo.b_a_z, geo.b_b_z))
    gram = b_z.T @ b_z / se2
    gram[k_a:, k_a:] += cov_inv
    prior1 = cov_inv @ theta1
    lin1 = x @ b_z / se2
    lin1[k_a:] += prior1
    quad_theta1 = float(theta1 @ prior1)
    log_alpha, log_one_minus = np.log(post.alpha), np.log1p(-post.alpha)

    cols = np.arange(k_a)
    n_patterns = 1 << k_a
    masses = []
    for start in range(0, n_patterns, _PATTERN_CHUNK):
        codes = np.arange(start, min(start + _PATTERN_CHUNK, n_patterns))
        r = ((codes[:, None] >> cols) & 1).astype(np.float64)
        k_diag = (r + (1.0 - r) * cfg.v) * post.s2
        k_inv = 1.0 / k_diag
        mu_r = post.mu_a * r
        prec = np.repeat(gram[None], codes.size, axis=0)
        prec[:, cols, cols] += k_inv
        lin = np.repeat(lin1[None], codes.size, axis=0)
        lin[:, :k_a] += mu_r * k_inv
        logdet_j, quad_j = _gaussian_terms(prec, lin)
        logdet = np.sum(np.log(k_diag), axis=1) + logdet_j
        quad = np.sum(mu_r * k_inv * mu_r, axis=1) + quad_theta1 - quad_j
        log_weight = r @ log_alpha + (1.0 - r) @ log_one_minus
        masses.append(_logsumexp(log_weight - 0.5 * (logdet - logdet0) - 0.5 * (quad - quad0)))
    return _logsumexp(masses)


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
    se2 = cfg.sigma_e2
    bg = _background(inp, dictionary)
    base = -0.5 * x.size * (_LOG_2PI + math.log(se2)) - 0.5 * float(x @ x) / se2
    return _h1_log_mass(inp, dictionary, cfg, bg) + (base - 0.5 * bg[2])


def log_pbf_exact(
    inp: DetectionInputs, dictionary: BasisDictionary, cfg: ModelConfig
) -> float:
    """Exact log posterior Bayes factor of anomaly against no anomaly.

    Algebraically identical to ``marginal_h1_exact − marginal_h0`` but
    assembled from the shared-constant cancellation, so the observation
    quadratic x'x and the flat Gaussian constants never enter.
    """
    bg = _background(inp, dictionary)
    logdet_h, quad0 = _h0_terms(inp, dictionary, cfg, bg)
    return _h1_log_mass(inp, dictionary, cfg, bg, logdet_h, quad0)


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
