"""Change-point detection statistics for one partially observed step.

Two routes live here.  The engine alarms on ``lambda_stat``, a quadratic
statistic: 2·sigma_e^2 times the posterior expectation of the log
likelihood ratio, with two departures its docstring names.  The exact
routes give the paper's statistic, the log posterior Bayes factor of a
spike-slab anomaly against none, by enumerating the 2^k_a inclusion
patterns; they serve small anomaly bases and check the fast route.

Every route takes a ``DetectionInputs``, built by its one constructor,
which converts and checks the observed values and subset; ``engine.step``
builds one the same way, since the routes are public and take inputs from
any caller.  ``lambda_stat`` reads the posterior's own ``mu_tilde`` and
``spread``, as does its batch form ``_stacked_lambda_stat``, bitwise it
per row.

The statistic reads the observed anomaly rows from the dictionary and the
subset's shared ``SubsetGeometry``: their column sums of squares and the
orthonormal basis of the observed background columns.  Its products and
sums are the ``statistic`` entry of the compiled extension
(``inference._compiled``), bitwise its numpy body, which runs where the
extension is not loaded or the entry declines.  The exact routes
look no geometry up: they check the subset with ``checked_subset``, read
B_aZ and B_bZ from the dictionary and refit the anomaly-free background by
the dense k_b×k_b solve that ``update_background`` uses
(``inference._background_fit``), so they cross-check the geometry's SVD.

The enumeration runs on numpy alone, so importing this module (and the
engine, which imports it) loads no numerical package beyond numpy, which
keeps a monitoring process's start-up short.  Both hypotheses are one
Gaussian integral over the coefficients, ``_log_evidence``, taken about
the prior mean so that the observation enters only as a residual and no
large terms cancel; ``_gaussian_terms`` factors its precision by a stacked
``np.linalg.cholesky`` and a stacked forward substitution.  Under the
anomaly model each inclusion pattern's precision is the joint
(k_a + k_b, k_a + k_b) matrix over anomaly and background coefficients,
taken ``_PATTERN_CHUNK`` patterns at a time as one stack; a log-sum-exp
reduces each chunk, and another the chunks, so memory per call stays
bounded up to ``EXACT_KA_LIMIT``.  Without a background basis its pieces
are empty.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bases import BasisDictionary
from .errors import CapabilityError, DataError, DimensionError
from . import inference
from .geometry import checked_subset, subset_geometry, subset_indices
from .inference import (
    _LOG_2PI, BackgroundPosterior, ModelConfig, SpikeSlabPosterior, _background_fit,
)

__all__ = [
    "DetectionInputs",
    "marginal_h0",
    "marginal_h1_exact",
    "log_pbf_exact",
    "lambda_stat",
    "alarm_check",
]

EXACT_KA_LIMIT = 20

# Inclusion patterns factored per stacked call: at k_a = EXACT_KA_LIMIT and
# k_b = 3 one (chunk, k_a + k_b, k_a + k_b) stack is 1.1 MB.
_PATTERN_CHUNK = 256


# ── Inputs ────────────────────────────────────────────────────────────────


@dataclass(frozen=True)
class DetectionInputs:
    """One step's observation and fitted posteriors, as the statistics see them.

    ``x_z`` holds the observed values in the same order as the index vector
    ``z``; ``post`` is the step's fitted anomaly posterior.  ``bg``, the
    background posterior (``inference.update_background``), is read only by
    the exact routes, which raise DataError without it; ``lambda_stat``
    never reads it.  The constructor converts and checks the two vectors;
    each route checks the subset's range and distinctness, ``lambda_stat``
    by its geometry lookup, the exact routes by ``checked_subset``.  It is
    the one constructor: ``engine.step`` builds its inputs through it too,
    once per step, for about 1.2 µs more than an unchecked copy (1.7 against
    0.5 µs, ``timeit`` minima on one pinned core of a 2-vCPU Xeon, m = 5),
    about 1% of a p = 15 step.
    """

    x_z: np.ndarray
    z: np.ndarray
    post: SpikeSlabPosterior
    bg: BackgroundPosterior | None = None

    def __post_init__(self):
        x_z = np.asarray(self.x_z, dtype=np.float64).ravel()
        z = subset_indices(self.z)
        if x_z.size != z.size:
            raise DimensionError("x_z and z must have equal length")
        if z.size == 0:
            raise DimensionError("detection needs at least one observed variable")
        object.__setattr__(self, "x_z", x_z)
        object.__setattr__(self, "z", z)


def _background(inp: DetectionInputs, dictionary: BasisDictionary):
    """(theta_n, cov_b^{-1}, ln det cov_b) of the caller-supplied background
    posterior the exact routes integrate against, once per call; empty
    pieces without a background basis.  The one place the exact routes
    check the posterior's size, the subset, and that cov_b is finite and
    positive definite."""
    if inp.post.k_a != dictionary.k_a:
        raise DimensionError("posterior dimensions disagree with the dictionary")
    checked_subset(inp.z, dictionary.p)
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


def _log_evidence(b, resid, prec, logdet_s, se2):
    """ln ∫ N(x; B·c, se2·I)·N(c; c0, S) dc for a shared B (m×k), one case
    or a stack of them, from the residual r = x − B·c0 (..., m), ``prec`` =
    P = B'B/se2 + S^{-1} and ``logdet_s`` = ln det S.  The integral is
    N(r; 0, se2·I + B·S·B'), which the determinant lemma and Woodbury give as

        −(1/2)·(m·ln(2π·se2) + ln det S + ln det P + r'r/se2 − l'P^{-1}l),

    l = B'r/se2, so the observation enters only through its residual.
    """
    logdet_p, quad_p = _gaussian_terms(prec, resid @ b / se2)
    quad_r = np.einsum("...i,...i->...", resid, resid) / se2
    norm = resid.shape[-1] * (_LOG_2PI + math.log(se2))
    return -0.5 * (norm + logdet_s + logdet_p + quad_r - quad_p)


def _marginal_h0(inp: DetectionInputs, dictionary: BasisDictionary, cfg: ModelConfig, bg):
    """``marginal_h0`` given ``bg`` from ``_background``."""
    _, cov_inv, logdet_cov = bg
    b_b_z, se2 = dictionary.b_b[inp.z], cfg.sigma_e2
    theta0, _ = _background_fit(b_b_z, inp.x_z, cfg)
    prec = b_b_z.T @ b_b_z / se2 + cov_inv
    return float(_log_evidence(b_b_z, inp.x_z - b_b_z @ theta0, prec, logdet_cov, se2))


def marginal_h0(
    inp: DetectionInputs, dictionary: BasisDictionary, cfg: ModelConfig
) -> float:
    """Log marginal likelihood of the observation under the no-anomaly model.

    Integrates N(x_Z; B_bZ·theta, sigma_e^2 I) against the Gaussian carried
    by ``inp.bg.cov_b`` centered at the anomaly-free background refit, in
    closed form via a Cholesky factorization of the conditional precision.
    """
    return _marginal_h0(inp, dictionary, cfg, _background(inp, dictionary))


def _marginal_h1(inp: DetectionInputs, dictionary: BasisDictionary, cfg: ModelConfig, bg) -> float:
    """``marginal_h1_exact`` given ``bg`` from ``_background``.

    Pattern r's integral has B_Z = [B_aZ, B_bZ], prior means
    (mu_a ∘ r, theta_n) and covariance blockdiag(K_r, cov_b), with
    K_r = diag(s2·(r + (1 − r)·v)); ``_PATTERN_CHUNK`` patterns per stack.
    """
    k_a = dictionary.k_a
    if k_a > EXACT_KA_LIMIT:
        raise CapabilityError(
            f"exact enumeration covers k_a <= {EXACT_KA_LIMIT} anomaly columns "
            f"(got {k_a}); use lambda_stat for monitoring at this size"
        )
    se2 = cfg.sigma_e2
    post = inp.post
    theta1, cov_inv, logdet_cov = bg

    b_a_z, b_b_z = dictionary.b_a[inp.z], dictionary.b_b[inp.z]
    b_z = np.hstack((b_a_z, b_b_z))
    gram = b_z.T @ b_z / se2
    gram[k_a:, k_a:] += cov_inv
    resid1 = inp.x_z - b_b_z @ theta1
    log_alpha, log_one_minus = np.log(post.alpha), np.log1p(-post.alpha)

    cols = np.arange(k_a)
    n_patterns = 1 << k_a
    masses = []
    for start in range(0, n_patterns, _PATTERN_CHUNK):
        codes = np.arange(start, min(start + _PATTERN_CHUNK, n_patterns))
        r = ((codes[:, None] >> cols) & 1).astype(np.float64)
        k_diag = (r + (1.0 - r) * cfg.v) * post.s2
        prec = np.repeat(gram[None], codes.size, axis=0)
        prec[:, cols, cols] += 1.0 / k_diag
        resid = resid1 - (post.mu_a * r) @ b_a_z.T
        logdet_s = np.sum(np.log(k_diag), axis=1) + logdet_cov
        log_weight = r @ log_alpha + (1.0 - r) @ log_one_minus
        masses.append(_logsumexp(log_weight + _log_evidence(b_z, resid, prec, logdet_s, se2)))
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
    return _marginal_h1(inp, dictionary, cfg, _background(inp, dictionary))


def log_pbf_exact(
    inp: DetectionInputs, dictionary: BasisDictionary, cfg: ModelConfig
) -> float:
    """Exact log posterior Bayes factor of anomaly against no anomaly:
    ``marginal_h1_exact − marginal_h0``, factoring cov_b once."""
    bg = _background(inp, dictionary)
    return _marginal_h1(inp, dictionary, cfg, bg) - _marginal_h0(inp, dictionary, cfg, bg)


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

    This is 2·sigma_e^2·E_q[log p(x_Z | theta_a) − log p(x_Z | 0)], the
    posterior expectation of the log likelihood ratio with the background
    integrated out, with two departures.  The whitening W is replaced by
    I − P, its limit as sigma_b → ∞.  The variance term is
    Σ_j (B_aZ'B_aZ)_jj·alpha_j(1 − alpha_j)·mu_j^2: it has no slab or spike
    variance (each theta_j counts as mu_j with probability alpha_j and 0
    otherwise) and no projection.

    Since (I − P)·B_bZ = 0, no background estimate theta_n enters: the
    first term is 2·(y'x_Z − (P y)'x_Z), and ``inp.bg`` is not read.  P·y =
    basis·(basis'·y) comes from the subset's shared geometry, whose
    orthonormal basis of the observed background columns stays exact when
    those rows are rank-deficient.  The moment term is y'y + col_sq'·spread,
    col_sq the column sums of squares of B_aZ and ``spread`` the
    posterior's own.  Exactly zero when the posterior anomaly mean vanishes.

    After the checks and the geometry lookup, the extension's ``statistic``
    entry computes it where loaded; the numpy body below runs where it is
    not, or where the entry declines (arrays it does not mirror, or a
    floating-point exception numpy would report, as a non-finite x_z gives).
    """
    x = inp.x_z
    if inp.post.k_a != dictionary.k_a:
        raise DimensionError("posterior dimensions disagree with the dictionary")
    geo = subset_geometry(dictionary, cfg, inp.z)
    post = inp.post
    compiled = inference._compiled()
    if compiled is not None:
        stat = compiled.statistic(
            x, inp.z, dictionary.b_a, post.mu_tilde, geo.basis, geo.col_sq, post.spread
        )
        if stat is not NotImplemented:
            return stat

    # ndarray.dot runs the BLAS product @ runs, with less overhead per call.
    y = dictionary.b_a.take(inp.z, 0).dot(post.mu_tilde)  # after the lookup's check
    p_y = geo.basis.dot(geo.basis.T.dot(y))

    quad = float(y.dot(y)) + float(geo.col_sq.dot(post.spread))
    term1 = 2.0 * (float(y.dot(x)) - float(p_y.dot(x)))
    term3 = float(y.dot(p_y))
    return term1 - quad + term3


def _stacked_lambda_stat(x_z, b_a_z, geo, mu_tilde, spread) -> np.ndarray:
    """``lambda_stat`` of n rows, (n,), from their observations ``x_z`` (n,
    m), anomaly rows ``b_a_z`` (n, m, k_a), stacked geometry ``geo``, and
    ``mu_tilde`` and ``spread`` (n, k_a).  Each reduction is a stacked
    ``np.matmul``, which calls per row the BLAS routine ``ndarray.dot`` calls."""
    # 2·(y'x − (P y)'x) − (y'y + col_sq'·spread) + y'P y
    y = np.matmul(b_a_z, mu_tilde[:, :, None])
    p_y = np.matmul(geo.basis, np.matmul(geo.basis.swapaxes(1, 2), y))
    y_row, x_col = y.swapaxes(1, 2), x_z[:, :, None]
    quad = np.matmul(y_row, y) + np.matmul(geo.col_sq[:, None], spread[:, :, None])
    stat = 2.0 * (np.matmul(y_row, x_col) - np.matmul(p_y.swapaxes(1, 2), x_col)) - quad
    stat += np.matmul(y_row, p_y)
    return stat[:, 0, 0]


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
