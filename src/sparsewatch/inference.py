"""Streaming variational inference for the sparse-anomaly coefficients.

The working model for an observed subset Z of the p variables at one step is

    x_Z = B_bZ · theta_n + B_aZ · theta_a + noise,  noise ~ N(0, sigma_e^2 I),

with a fresh Gaussian background coefficient theta_n per step and a sparse
anomaly coefficient theta_a shared across steps.  Each anomaly coordinate
carries a spike-slab prior: with probability w_j it is drawn from the wide
slab N(0, sigma_j^2), otherwise from the narrow spike N(0, v·sigma_j^2).

The per-step background is never estimated and subtracted inside the
history; it is integrated out.  Given theta_a, one step's observation is
Gaussian with covariance sigma_b^2·B_bZ·B_bZ' + sigma_e^2·I, so each step
contributes cross-moments of its rows under that covariance's inverse
(computed through the k_b-sized complement, never the m-sized inverse).
History enters only through exponentially decayed sums of those whitened
cross-moments, so every update is O(1) in the stream length.  The decayed
sums are left unnormalized, in the style of recursive least squares with a
forgetting factor: a fresh stream carries little weight and the effective
sample size grows toward 1/decay.  The variational family matches the
prior's structure: per coordinate, inclusion probability alpha_j, slab
component N(mu_aj, s_j^2), spike component N(0, v·s_j^2).

Everything that depends on the observed subset alone (the complement solve,
the whitened M contribution, the background covariance) comes from one
shared ``SubsetGeometry``, so a step pays for it once and a repeated subset
costs only matrix-vector products.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .bases import BasisDictionary
from .errors import DimensionError, StateError
from .geometry import subset_geometry

__all__ = [
    "ALPHA_CLAMP",
    "ModelConfig",
    "SpikeSlabPosterior",
    "DecayedStats",
    "BackgroundPosterior",
    "FitResult",
    "absorb_sample",
    "vb_coordinate_sweep",
    "elbo",
    "update_background",
    "fit",
]

# Inclusion probabilities live in [ALPHA_CLAMP, 1 - ALPHA_CLAMP] so logits and
# entropy terms stay finite.
ALPHA_CLAMP = 1e-12

_LOG_2PI = math.log(2.0 * math.pi)


# ── Domain types ──────────────────────────────────────────────────────────


@dataclass(frozen=True)
class ModelConfig:
    """Fixed hyperparameters of the monitoring model.

    Parameters
    ----------
    sigma_e : float
        Observation noise standard deviation (noise covariance sigma_e^2 I).
    sigma_b : float
        Prior standard deviation of each background coefficient.
    sigma_j : ndarray, shape (k_a,)
        Slab standard deviation per anomaly basis column.
    w : ndarray, shape (k_a,)
        Prior inclusion probability per anomaly basis column, in (0, 1).
    v : float
        Spike shrink factor in (0, 1); spike variance is v·sigma_j^2 (and
        v·s_j^2 in the variational family), v ≪ 1.
    decay : float
        Exponential decay rate of the history weights, in (0, 0.1].
    m : int
        Sensing budget: number of variables observed per step.
    """

    sigma_e: float
    sigma_b: float
    sigma_j: np.ndarray
    w: np.ndarray
    v: float
    decay: float
    m: int

    def __post_init__(self):
        sigma_j = np.atleast_1d(np.asarray(self.sigma_j, dtype=np.float64)).ravel()
        w = np.atleast_1d(np.asarray(self.w, dtype=np.float64)).ravel()
        object.__setattr__(self, "sigma_j", sigma_j)
        object.__setattr__(self, "w", w)
        if sigma_j.size != w.size:
            raise DimensionError("sigma_j and w must have one entry per anomaly column")
        if not (self.sigma_e > 0 and self.sigma_b > 0):
            raise ValueError("sigma_e and sigma_b must be positive")
        if not np.all(sigma_j > 0):
            raise ValueError("all slab standard deviations must be positive")
        if not (np.all(w > 0) and np.all(w < 1)):
            raise ValueError("inclusion priors w must lie strictly in (0, 1)")
        if not (0.0 < self.v < 1.0):
            raise ValueError("spike shrink factor v must lie in (0, 1)")
        if not (0.0 < self.decay <= 0.1):
            raise ValueError("decay rate must lie in (0, 0.1]")
        if self.m < 1:
            raise ValueError("sensing budget m must be positive")
        # Derived quantities used in every sweep; cached once.
        object.__setattr__(self, "sigma_e2", float(self.sigma_e) ** 2)
        object.__setattr__(self, "sigma_b2", float(self.sigma_b) ** 2)
        object.__setattr__(self, "sigma_j2", sigma_j**2)
        object.__setattr__(self, "logit_w", np.log(w) - np.log1p(-w))

    @property
    def k_a(self) -> int:
        return self.sigma_j.size

    @classmethod
    def homogeneous(
        cls,
        k_a: int,
        sigma_e: float,
        sigma_b: float,
        sigma_j: float,
        w: float,
        v: float,
        decay: float,
        m: int,
    ) -> "ModelConfig":
        """Config with identical slab/inclusion settings on every column."""
        return cls(
            sigma_e=sigma_e,
            sigma_b=sigma_b,
            sigma_j=np.full(k_a, float(sigma_j)),
            w=np.full(k_a, float(w)),
            v=v,
            decay=decay,
            m=m,
        )


@dataclass(frozen=True)
class SpikeSlabPosterior:
    """Variational posterior over the anomaly coefficients.

    Per coordinate j: inclusion probability ``alpha[j]``, slab mean
    ``mu_a[j]``, slab variance ``s2[j]``.  The posterior mean is the
    shrunken vector ``mu_tilde = mu_a * alpha``.
    """

    mu_a: np.ndarray
    s2: np.ndarray
    alpha: np.ndarray

    def __post_init__(self):
        mu = np.asarray(self.mu_a, dtype=np.float64).ravel()
        s2 = np.asarray(self.s2, dtype=np.float64).ravel()
        alpha = np.clip(
            np.asarray(self.alpha, dtype=np.float64).ravel(),
            ALPHA_CLAMP,
            1.0 - ALPHA_CLAMP,
        )
        if not (mu.size == s2.size == alpha.size):
            raise DimensionError("posterior fields must share one length")
        if not np.all(s2 > 0):
            raise ValueError("slab variances must be positive")
        object.__setattr__(self, "mu_a", mu)
        object.__setattr__(self, "s2", s2)
        object.__setattr__(self, "alpha", alpha)

    @classmethod
    def _trusted(cls, mu_a, s2, alpha) -> "SpikeSlabPosterior":
        """Posterior from fields that already satisfy every check.

        For the sweep, whose alpha is clamped and whose s2 is positive by
        construction; the values are exactly those the checked constructor
        would store.
        """
        post = object.__new__(cls)
        object.__setattr__(post, "mu_a", np.array(mu_a, dtype=np.float64))
        object.__setattr__(post, "s2", np.array(s2, dtype=np.float64))
        object.__setattr__(post, "alpha", np.array(alpha, dtype=np.float64))
        return post

    @property
    def k_a(self) -> int:
        return self.mu_a.size

    @property
    def mu_tilde(self) -> np.ndarray:
        return self.mu_a * self.alpha

    @classmethod
    def prior(cls, cfg: ModelConfig) -> "SpikeSlabPosterior":
        return cls(
            mu_a=np.zeros(cfg.k_a), s2=cfg.sigma_j2.copy(), alpha=cfg.w.copy()
        )


@dataclass(frozen=True)
class DecayedStats:
    """Exponentially decayed cross-moments of the whitened observed history.

    One absorbed step with observed anomaly rows B_aZ, background rows B_bZ
    and values x_Z contributes through the matrix

        W = I − B_bZ (B_bZ'B_bZ + (sigma_e^2/sigma_b^2) I)^{-1} B_bZ',

    which is sigma_e^2 times the inverse of the step's marginal covariance
    sigma_b^2·B_bZ·B_bZ' + sigma_e^2·I (background integrated out).  The
    fields are unnormalized decayed sums, newest step at weight one:
    ``raw_M`` of B_aZ'·W·B_aZ, ``raw_u`` of B_aZ'·W·x_Z, ``raw_q`` of
    x_Z'·W·x_Z, and ``raw_norm`` of the per-step Gaussian normalization
    −(m·ln(2π) + ln det(marginal covariance))/2.  ``mass`` is the decayed
    sum of the weights themselves, (1 − (1−decay)^n)/decay after n steps:
    the effective sample size the sums carry, approaching 1/decay.
    """

    raw_M: np.ndarray
    raw_u: np.ndarray
    raw_q: float
    raw_norm: float
    mass: float
    n: int

    @classmethod
    def empty(cls, k_a: int) -> "DecayedStats":
        return cls(
            raw_M=np.zeros((k_a, k_a)),
            raw_u=np.zeros(k_a),
            raw_q=0.0,
            raw_norm=0.0,
            mass=0.0,
            n=0,
        )

    @property
    def k_a(self) -> int:
        return self.raw_u.size


@dataclass(frozen=True)
class BackgroundPosterior:
    """Gaussian posterior over the current step's background coefficient."""

    theta_n: np.ndarray
    cov_b: np.ndarray

    def __post_init__(self):
        theta = np.asarray(self.theta_n, dtype=np.float64).ravel()
        cov = np.atleast_2d(np.asarray(self.cov_b, dtype=np.float64))
        if cov.shape != (theta.size, theta.size):
            raise DimensionError("cov_b shape must match theta_n length")
        object.__setattr__(self, "theta_n", theta)
        object.__setattr__(self, "cov_b", cov)

    @property
    def k_b(self) -> int:
        return self.theta_n.size


class FitResult(NamedTuple):
    post: SpikeSlabPosterior
    stats: DecayedStats
    converged: bool
    n_iters: int


# ── Internal helpers ──────────────────────────────────────────────────────


def _geometry(z, x_z, dictionary: BasisDictionary, cfg: ModelConfig):
    """Checked (x_z, geometry) of one observation on the budgeted subset z."""
    z = np.asarray(z, dtype=np.intp).ravel()
    if z.size != cfg.m:
        raise DimensionError(f"observation subset has {z.size} indices, budget is {cfg.m}")
    geo = subset_geometry(dictionary, cfg.sigma_e2, cfg.sigma_b2, z)
    x_z = np.asarray(x_z, dtype=np.float64).ravel()
    if x_z.size != z.size:
        raise DimensionError("x_z length must match the observation subset")
    return x_z, geo


# ── Operations ────────────────────────────────────────────────────────────


def absorb_sample(
    stats: DecayedStats,
    x_z: np.ndarray,
    z,
    dictionary: BasisDictionary,
    cfg: ModelConfig,
) -> DecayedStats:
    """Fold one partially observed sample into the decayed cross-moments.

    The step's background coefficient is integrated out under its
    N(0, sigma_b^2 I) prior, so the contribution is whitened by

        W = I − B_bZ (B_bZ'B_bZ + (sigma_e^2/sigma_b^2) I)^{-1} B_bZ'

    and each accumulator follows raw ← (1 − decay)·raw + contribution (the
    newest step always enters at weight one).  The subset's B_aZ'·W·B_aZ and
    ln det W come from its shared geometry; the data enter through
    W·x = x − B_bZ·(G·x), so the m×m matrix W is never formed.

    Returns a new DecayedStats; the input is not modified.
    """
    x_z, geo = _geometry(z, x_z, dictionary, cfg)
    if stats.k_a != dictionary.k_a:
        raise DimensionError("stats and dictionary disagree on basis sizes")

    w_x = x_z - geo.b_b_z @ (geo.g @ x_z)
    u_c = geo.b_a_z.T @ w_x
    q_c = float(x_z @ w_x)
    # ln det of the marginal covariance is m·ln sigma_e^2 − ln det W.
    norm_c = -0.5 * (x_z.size * (_LOG_2PI + math.log(cfg.sigma_e2)) - geo.logdet_w)

    keep = 1.0 - cfg.decay
    return DecayedStats(
        raw_M=keep * stats.raw_M + geo.m_c,
        raw_u=keep * stats.raw_u + u_c,
        raw_q=keep * stats.raw_q + q_c,
        raw_norm=keep * stats.raw_norm + norm_c,
        mass=keep * stats.mass + 1.0,
        n=stats.n + 1,
    )


# Coordinates per block of the sweep: one matrix-vector product per block
# gives every cross term from the posterior at the block's start.
_BLOCK = 12


def _sweep_setup(post: SpikeSlabPosterior, stats: DecayedStats, cfg: ModelConfig):
    """Plain-float state of coordinate sweeps at fixed stats.

    Returns (blocks, mu, alpha, mu_tilde).  The coordinates are split evenly
    into contiguous blocks (start, stop, off[start:stop], terms) of at most
    ``_BLOCK``, with ``off`` the matrix M with its diagonal zeroed.
    ``terms[t]`` holds the block's t-th coordinate's row of M within the
    block and every factor of its update that depends only on the stats,
    each computed by the same expression the update reads it from; the three
    lists are the posterior the sweeps update in place.  Boxing numpy
    scalars per coordinate would otherwise dominate the monitoring step.
    """
    if stats.n == 0:
        raise StateError("cannot sweep before any sample has been absorbed")
    if stats.k_a != post.k_a or post.k_a != cfg.k_a:
        raise DimensionError("posterior, stats, and config disagree on k_a")
    se2, v, k_a = cfg.sigma_e2, cfg.v, cfg.k_a
    sj2, logit_w, u = cfg.sigma_j2.tolist(), cfg.logit_w.tolist(), stats.raw_u.tolist()
    raw_m = stats.raw_M
    off = raw_m.copy()
    off.ravel()[:: k_a + 1] = 0.0  # the diagonal, more cheaply than np.fill_diagonal
    n_blocks = -(-k_a // _BLOCK)
    bounds = [i * k_a // n_blocks for i in range(n_blocks + 1)]
    blocks = []
    for start, stop in zip(bounds, bounds[1:]):
        terms = []
        for j, row in enumerate(raw_m[start:stop, start:stop].tolist(), start):
            m_jj = row[j - start]
            s2_j = 1.0 / (m_jj / se2 + 1.0 / sj2[j])
            terms.append((row, u[j], s2_j, s2_j / se2, v * s2_j,
                          logit_w[j], 2.0 * sj2[j], m_jj / (2.0 * se2)))
        blocks.append((start, stop, off[start:stop], terms))
    mu = post.mu_a.tolist()
    alpha = post.alpha.tolist()
    return blocks, mu, alpha, [m * a for m, a in zip(mu, alpha)]


def _sweep(blocks, mu, alpha, mu_t) -> float:
    """One in-order pass over ``_sweep_setup``'s state, updated in place.

    A blocked Gauss-Seidel pass: at the start of each block one product
    gives every coordinate's cross term Σ_{k≠j} M_jk·mu_tilde_k from the
    current mu_tilde, and each coordinate then adds M_ji·Δmu_tilde_i for
    the earlier coordinates of its block already updated in this pass.
    That is the plain in-order update with the sums taken in another order.

    Returns the largest |change| of any mu_j or alpha_j, NaN if any change
    is NaN, so a NaN never reads as convergence.
    """
    exp = math.exp
    lo, hi = ALPHA_CLAMP, 1.0 - ALPHA_CLAMP
    delta = 0.0
    for start, stop, off_rows, terms in blocks:
        steps = []
        for j, cross, (row, u_j, s2_j, scale, v_s2, logit_w, two_sj2, half_m) in zip(
            range(start, stop), off_rows.dot(mu_t).tolist(), terms
        ):
            for a, b in zip(row, steps):  # the block's earlier coordinates
                cross += a * b
            mu_j = scale * (u_j - cross)
            sq = mu_j * mu_j
            logit = logit_w + sq / two_sj2 + half_m * (sq - s2_j + v_s2)
            # Each branch's exponent is at most 0, so exp never overflows,
            # and only the clamp on its own side of 1/2 can bind.
            if logit >= 0.0:
                a_j = 1.0 / (1.0 + exp(-logit))
                if a_j > hi:
                    a_j = hi
            else:
                e = exp(logit)
                a_j = e / (1.0 + e)
                if not a_j >= lo:  # also a NaN logit
                    a_j = lo
            d = mu_j - mu[j]
            if d < 0.0:
                d = -d
            if d > delta or d != d:
                delta = d
            d = a_j - alpha[j]
            if d < 0.0:
                d = -d
            if d > delta or d != d:
                delta = d
            mu[j] = mu_j
            alpha[j] = a_j
            mt_j = mu_j * a_j
            steps.append(mt_j - mu_t[j])
            mu_t[j] = mt_j
    return delta


def _posterior(blocks, mu, alpha) -> SpikeSlabPosterior:
    s2 = [t[2] for block in blocks for t in block[3]]
    return SpikeSlabPosterior._trusted(mu, s2, alpha)


def vb_coordinate_sweep(
    post: SpikeSlabPosterior,
    stats: DecayedStats,
    cfg: ModelConfig,
) -> SpikeSlabPosterior:
    """One in-order pass of the per-coordinate variational updates.

    For each anomaly coordinate j (ascending, each using the freshly
    updated earlier coordinates), with M and u the decayed whitened stats:

        s_j^2     = 1 / (M_jj/sigma_e^2 + 1/sigma_j^2)
        mu_aj     = (s_j^2/sigma_e^2) (u_j − Σ_{k≠j} M_jk alpha_k mu_ak)
        logit a_j = logit w_j + mu_aj^2/(2 sigma_j^2)
                    + (M_jj/(2 sigma_e^2)) (mu_aj^2 − s_j^2 + v s_j^2)

    The slab variance depends only on the stats, so repeated sweeps at fixed
    stats move only (mu_a, alpha), each to its exact conditional maximizer;
    the evidence bound is therefore non-decreasing across sweeps.  ``fit``
    runs the same pass, without building a posterior between sweeps.
    """
    blocks, mu, alpha, mu_t = _sweep_setup(post, stats, cfg)
    _sweep(blocks, mu, alpha, mu_t)
    return _posterior(blocks, mu, alpha)


def elbo(
    post: SpikeSlabPosterior,
    stats: DecayedStats,
    cfg: ModelConfig,
) -> float:
    """Evidence lower bound of the weighted model at the current posterior.

    Evaluates the closed form

        raw_norm − (q − 2 u'mu_tilde + T_M)/(2 sigma_e^2)
        + Σ_j [ 1/2 − s_j^2/(2 sigma_j^2) + (1/2)·ln(s_j^2/sigma_j^2)
                − alpha_j mu_j^2/(2 sigma_j^2)
                + alpha_j ln(w_j/alpha_j) + (1−alpha_j) ln((1−w_j)/(1−alpha_j)) ]

    with T_M = Σ_j M_jj (alpha_j (mu_j^2 + s_j^2) + (1−alpha_j) v s_j^2)
    + Σ_{j≠k} M_jk mu_tilde_j mu_tilde_k, and q, u, M the decayed whitened
    statistics (the quadratic q and the Gaussian normalizations are carried
    exactly, so bound differences across sweeps are exact rather than up to
    a data constant).
    """
    if stats.n == 0:
        raise StateError("cannot evaluate the bound before any sample is absorbed")
    m_mat = stats.raw_M
    u = stats.raw_u
    q = stats.raw_q

    mu, s2, alpha = post.mu_a, post.s2, post.alpha
    mu_t = mu * alpha
    sj2 = cfg.sigma_j2
    diag_m = np.diag(m_mat)

    second_moment = alpha * (mu * mu + s2) + (1.0 - alpha) * cfg.v * s2
    quad_cross = float(mu_t @ m_mat @ mu_t) - float(diag_m @ (mu_t * mu_t))
    t_m = float(diag_m @ second_moment) + quad_cross
    data_term = stats.raw_norm - (q - 2.0 * float(u @ mu_t) + t_m) / (
        2.0 * cfg.sigma_e2
    )

    per_coord = (
        0.5
        - s2 / (2.0 * sj2)
        + 0.5 * np.log(s2 / sj2)
        - alpha * mu * mu / (2.0 * sj2)
        + alpha * (np.log(cfg.w) - np.log(alpha))
        + (1.0 - alpha) * (np.log1p(-cfg.w) - np.log1p(-alpha))
    )
    return float(data_term + per_coord.sum())


def update_background(
    x_z: np.ndarray,
    z,
    post: SpikeSlabPosterior,
    dictionary: BasisDictionary,
    cfg: ModelConfig,
) -> BackgroundPosterior:
    """Gaussian posterior of the current background coefficient.

    Conditions on the current observation with the anomaly contribution
    replaced by its posterior mean B_aZ·(mu_a ∘ alpha):

        theta = (B_bZ' B_bZ/sigma_e^2 + I/sigma_b^2)^{-1} B_bZ' (x − B_aZ mu_tilde)/sigma_e^2
        cov   = (B_bZ' B_bZ/sigma_e^2 + I/sigma_b^2)^{-1}

    read from the subset's shared geometry: theta = G·(x − B_aZ mu_tilde).
    The covariance is that geometry's read-only array.  The monitoring step
    does not call it, since the statistic does not depend on theta; the
    exact routes in ``detection`` read it through ``DetectionInputs.bg``.
    """
    x_z, geo = _geometry(z, x_z, dictionary, cfg)
    theta = geo.g @ (x_z - geo.b_a_z @ post.mu_tilde)
    return BackgroundPosterior(theta_n=theta, cov_b=geo.cov_b)


def fit(
    x_z: np.ndarray,
    z,
    prev_posterior: SpikeSlabPosterior,
    prev_stats: DecayedStats,
    dictionary: BasisDictionary,
    cfg: ModelConfig,
    tol: float = 1e-6,
    max_iters: int = 100,
) -> FitResult:
    """Absorb one observation and iterate the variational updates to a fixed point.

    The sample's whitened cross-moments are folded in once up front; the
    background never enters the anomaly iteration (it is integrated out of
    the moments), so the loop is plain coordinate sweeps at fixed stats,
    stopping when the largest absolute change across (mu_a, alpha) falls
    below ``tol``.  The sweeps are ``vb_coordinate_sweep``'s pass on one set
    of plain-float lists; the posterior is built once, at the end.

    Non-convergence within ``max_iters``, or a NaN change, returns the last
    iterate with ``converged=False`` rather than raising.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    if max_iters < 1:
        raise ValueError("max_iters must be at least 1")
    stats = absorb_sample(prev_stats, x_z, z, dictionary, cfg)
    blocks, mu, alpha, mu_t = _sweep_setup(prev_posterior, stats, cfg)
    converged = False
    for iters in range(1, max_iters + 1):
        if _sweep(blocks, mu, alpha, mu_t) < tol:
            converged = True
            break
    return FitResult(_posterior(blocks, mu, alpha), stats, converged, iters)
