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

A step reads its observed rows from the dictionary and the whitening of
its subset (basis and weights, log determinant and whitened M contribution)
from one shared ``SubsetGeometry``, so a repeated subset costs only
matrix-vector products.  The background refit, which no monitoring step
runs, looks no geometry up: it checks its subset with
``geometry.checked_subset`` and solves with the rows (``_background_fit``).

``absorb_sample``, and so ``fit``, checks the subset and observed values
once per call (``_observation``, and the geometry lookup for range and
distinctness); the sweep's posterior is then built by the trusted
``SpikeSlabPosterior._trusted``.  ``fit`` also takes posteriors built by
its callers, so the checked constructor stays beside it.  ``DecayedStats``,
which no caller needs checked, has the dataclass constructor alone.

The coordinate sweeps run in blocks of at most ``_BLOCK`` coordinates.  A
fit runs all of them in one call of the sweep kernel, and a batch of fits
runs all of its rows' in one call (``_sweeps``).  The kernel is C, the
``sweep`` entry of the extension ``_sweep.c``, built by the first call in
a process that needs it, never at import or ``engine.init``, against the
OpenBLAS numpy bundles, cached in ``$XDG_CACHE_HOME/sparsewatch``
(``~/.cache`` by default) under a name keyed on its source, that
library's path and the interpreter's ``EXT_SUFFIX``, and loaded as an
extension module; a later process loads the cached file and runs no
compiler (``_compiled``).  Where it cannot be built or loaded (no
compiler, no ``Python.h``, no such BLAS), each fit is one call of a plain
Python function whose straight-line source is generated from k_a alone
and compiled on the first fit at that k_a (``_kernel``): the fallback,
and the reference the tests hold the C kernel to.  Both run every
operation, in its order, of the interpreted form of the same pass that
the tests keep (``oracles.blocked_sweep``): each block's product by the
BLAS routine ``ndarray.dot`` calls, in-block sums left to right, libm's
``exp``, no fused multiply-add.  So which kernel runs moves no output bit.
``_FitStack``, the batch form of ``fit`` for ``engine``'s lockstep, sweeps
its rows by one ``_sweeps`` call, and each reduction of its absorb is a
stacked ``np.matmul``, which calls per row the BLAS routine ``ndarray.dot``
calls here, so its rows are bitwise ``fit``'s.

The same extension holds one entry per other numeric layer of the scalar
step, each computing what the layer's numpy body computes, operation for
operation and with the BLAS calls ``ndarray.dot`` makes, so bit for bit:
``absorb`` (here), ``statistic`` (``detection.lambda_stat``), ``draw``,
``synthesize``, ``score`` and ``top`` (``sampling``).  A layer keeps its
checks and geometry lookup, makes its Generator draws itself, and runs
its numpy body where ``_compiled`` is None or its entry returns
NotImplemented: an argument it does not mirror (another dtype or layout),
or an operation that raised a floating-point exception numpy reports,
whose warning or error the numpy body then gives.  The batch forms stay
numpy.
"""

from __future__ import annotations

import functools
import math
import os
import sys
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .bases import BasisDictionary
from .errors import DataError, DimensionError, StateError, _count, _number
from .geometry import checked_subset, subset_geometry, subset_indices

__all__ = [
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

# A scale, sigma_e, sigma_b or any sigma_j, lies in [_ROOT_TINY, _ROOT_HUGE]: its
# square is a normal float, so the square and its reciprocal, which every fit
# and statistic divide by, are finite.
_ROOT_TINY = math.sqrt(np.finfo(np.float64).tiny)
_ROOT_HUGE = math.sqrt(np.finfo(np.float64).max)


def _entries(value) -> list:
    """The entries of a per-column field as given: an array's as Python
    scalars, a list's or a tuple's as they are, or the one scalar."""
    return value if isinstance(value, (list, tuple)) else np.ravel(value).tolist()


def _scale(name: str, value) -> float:
    """One scale as a float, or DataError naming it if it lies outside
    [``_ROOT_TINY``, ``_ROOT_HUGE``]."""
    return _number(name, value, _ROOT_TINY, _ROOT_HUGE,
                   low=f"must be positive with a finite 1/{name}**2",
                   high="must be finite with a finite square")


# ── Domain types ──────────────────────────────────────────────────────────


@dataclass(frozen=True, eq=False)
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

    Every real field is checked entry by entry, as given, by
    ``errors._number``, and a bad one raises DataError naming the field: a
    bool, a string, None or an array is not a number.  Each scale, sigma_e,
    sigma_b and every sigma_j, obeys one rule: it lies in [sqrt(smallest
    normal float), sqrt(largest float)], about [1.49e-154, 1.34e154], so
    its square is a normal float and both the square and its reciprocal,
    which every fit and statistic divide by, are finite.  Each w and v lies
    in (0, 1) and decay in (0, 0.1].  The scalars are stored as Python
    floats, so a config computes in float64 however its numbers were
    spelled.  Every config that can be built can be monitored.

    The record owns its arrays: ``sigma_j`` and ``w`` are copied, and they
    and the two arrays derived from them, ``sigma_j2`` and ``logit_w``, are
    read-only, so every fit and ``elbo`` read one prior.  The sweep
    kernel's per-column factors 1/sigma_j^2, logit w_j and 2·sigma_j^2 are
    the rows of the read-only (3, k_a) ``_sweep_factors``.  Unpickling, as a pool
    worker receives its config, runs the checked constructor again: numpy
    does not pickle the read-only flag.  Equality and the hash read the
    seven fields by value.
    """

    sigma_e: float
    sigma_b: float
    sigma_j: np.ndarray
    w: np.ndarray
    v: float
    decay: float
    m: int

    def __post_init__(self):
        fields = dict(  # each entry checked as given, before numpy parses a string or a bool
            sigma_e=_scale("sigma_e", self.sigma_e),
            sigma_b=_scale("sigma_b", self.sigma_b),
            sigma_j=np.array([_scale("sigma_j", s) for s in _entries(self.sigma_j)]),
            w=np.array([_number("w", x, 0.0, 1.0, above=True, below=True) for x in _entries(self.w)]),
            v=_number("v", self.v, 0.0, 1.0, above=True, below=True),
            decay=_number("decay", self.decay, 0.0, 0.1, above=True),
            m=int(_count("sensing budget m", self.m)),
        )
        for name, value in fields.items():  # not through __dict__, which would slow every read
            object.__setattr__(self, name, value)
        sigma_j, w = self.sigma_j, self.w
        if sigma_j.size != w.size:
            raise DimensionError("sigma_j and w must have one entry per anomaly column")
        fields = (self.sigma_e, self.sigma_b, sigma_j.tobytes(), w.tobytes(), self.v, self.decay, self.m)
        object.__setattr__(self, "_key", fields)  # bytes compare as values: no NaN or −0
        # Derived quantities used in every sweep; cached once.
        object.__setattr__(self, "sigma_e2", self.sigma_e**2)
        object.__setattr__(self, "sigma_b2", self.sigma_b**2)
        object.__setattr__(self, "sigma_j2", sigma_j**2)
        object.__setattr__(self, "logit_w", np.log(w) - np.log1p(-w))
        for arr in (sigma_j, w, self.sigma_j2, self.logit_w):
            arr.flags.writeable = False
        # The per-column factors every fit hands its sweep kernel, one row each.
        factors = np.array([1.0 / self.sigma_j2, self.logit_w, 2.0 * self.sigma_j2])
        factors.flags.writeable = False
        object.__setattr__(self, "_sweep_factors", factors)

    def __reduce__(self):
        return type(self), (self.sigma_e, self.sigma_b, self.sigma_j, self.w, self.v, self.decay, self.m)

    def __eq__(self, other):
        return other.__class__ is self.__class__ and self._key == other._key

    def __hash__(self) -> int:
        return hash(self._key)

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
        return cls(sigma_e=sigma_e, sigma_b=sigma_b, sigma_j=[sigma_j] * _count("k_a", k_a),
                   w=[w] * k_a, v=v, decay=decay, m=m)


def _refuse_first(values: np.ndarray, bad: np.ndarray, rule: str) -> None:
    """DataError stating ``rule`` with the first value where ``bad`` holds
    and its index, if it holds anywhere."""
    if bad.any():
        j = int(bad.argmax())
        raise DataError(f"{rule}, got {float(values[j])!r} at index {j}")


@dataclass(frozen=True)
class SpikeSlabPosterior:
    """Variational posterior over the anomaly coefficients.

    Per coordinate j: inclusion probability ``alpha[j]``, slab mean
    ``mu_a[j]``, slab variance ``s2[j]``.  Derived once, at construction,
    as ``ModelConfig`` derives its own, and read by every step: the
    posterior mean ``mu_tilde = mu_a * alpha`` and the inclusion spread
    ``spread = alpha * (1 - alpha) * mu_a**2``.

    Two constructors.  The checked one copies the fields, checks their
    lengths, refuses a non-finite mu_a or s2, an s2 ≤ 0 and a NaN alpha
    (DataError naming the field and the first bad index), then clamps alpha
    to [``ALPHA_CLAMP``, 1 − ``ALPHA_CLAMP``]; it stays because ``fit`` takes posteriors from any caller, such
    as a prior or one set by hand.  Each fit builds its result through
    ``_trusted`` instead, once per step: about 0.7 µs against 13 µs for
    the checked one (``timeit`` on one core of a 2-vCPU Xeon).  Either way
    the five arrays are read-only, so the derived two cannot go stale, and
    unpickling runs the checked constructor again.
    """

    mu_a: np.ndarray
    s2: np.ndarray
    alpha: np.ndarray

    def __post_init__(self):
        mu = np.array(self.mu_a, dtype=np.float64).ravel()
        s2 = np.array(self.s2, dtype=np.float64).ravel()
        alpha = np.asarray(self.alpha, dtype=np.float64).ravel()
        if not (mu.size == s2.size == alpha.size):
            raise DimensionError("posterior fields must share one length")
        _refuse_first(mu, ~np.isfinite(mu), "posterior mu_a must be finite")
        _refuse_first(s2, ~np.isfinite(s2), "posterior s2 must be finite")
        _refuse_first(s2, ~(s2 > 0), "slab variances must be positive")
        _refuse_first(alpha, np.isnan(alpha), "posterior alpha must not be NaN")
        alpha = np.clip(alpha, ALPHA_CLAMP, 1.0 - ALPHA_CLAMP)
        fields = (mu, s2, alpha, mu * alpha, alpha * (1.0 - alpha) * mu * mu)
        for arr in fields:
            arr.flags.writeable = False
        self._store(*fields)

    def __reduce__(self):
        return type(self), (self.mu_a, self.s2, self.alpha)

    def _store(self, mu_a, s2, alpha, mu_tilde, spread) -> None:
        self.__dict__.update(mu_a=mu_a, s2=s2, alpha=alpha, mu_tilde=mu_tilde, spread=spread)

    @classmethod
    def _trusted(cls, mu_a, s2, alpha, mu_tilde, spread) -> "SpikeSlabPosterior":
        """Posterior from five read-only float64 vectors that already
        satisfy every check, taken as they are, not copied.

        For the sweep, whose alpha is clamped, whose s2 is positive by
        construction and whose ``mu_tilde`` and ``spread`` equal bitwise
        what the checked constructor derives, as the sweep kernels' do.
        """
        post = object.__new__(cls)
        post._store(mu_a, s2, alpha, mu_tilde, spread)
        return post

    @property
    def k_a(self) -> int:
        return self.mu_a.size

    @classmethod
    def prior(cls, cfg: ModelConfig) -> "SpikeSlabPosterior":
        return cls(mu_a=np.zeros(cfg.k_a), s2=cfg.sigma_j2, alpha=cfg.w)


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
    ``empty``, ``absorb_sample`` and unpickling each build their record
    through ``_read_only_stats``, which marks ``raw_M`` and ``raw_u``
    read-only: numpy does not pickle the read-only flag.
    """

    raw_M: np.ndarray
    raw_u: np.ndarray
    raw_q: float
    raw_norm: float
    mass: float
    n: int

    @classmethod
    def empty(cls, k_a: int) -> "DecayedStats":
        return _read_only_stats(np.zeros((_count("k_a", k_a), k_a)), np.zeros(k_a), 0.0, 0.0, 0.0, 0)

    def __reduce__(self):
        fields = (self.raw_M, self.raw_u, self.raw_q, self.raw_norm, self.mass, self.n)
        return _read_only_stats, fields

    @property
    def k_a(self) -> int:
        return self.raw_u.size


def _read_only_stats(raw_m, raw_u, raw_q, raw_norm, mass, n) -> DecayedStats:
    """A ``DecayedStats`` whose two arrays, taken as they are, are marked read-only."""
    raw_m.setflags(False)  # write=False; passed by keyword it costs 0.2 µs, not 0.1
    raw_u.setflags(False)
    return DecayedStats(raw_m, raw_u, raw_q, raw_norm, mass, n)


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


def _observation(z, x_z, cfg: ModelConfig):
    """(z, x_z) of one observation, converted and sized against the budget."""
    z = subset_indices(z)
    if z.size != cfg.m:
        raise DimensionError(f"observation subset has {z.size} indices, budget is {cfg.m}")
    x_z = np.asarray(x_z, dtype=np.float64).ravel()
    if x_z.size != z.size:
        raise DimensionError("x_z length must match the observation subset")
    return z, x_z


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
    W·x = x − U·(c ∘ U'x), U the geometry's basis and c its weights, so the
    m×m matrix W is never formed.  The products and the moment update are
    the extension's ``absorb`` entry, bitwise the numpy body below, which
    runs where the extension is not loaded or the entry declines (stats
    that are not C-ordered float64, a floating-point exception).

    Returns a new DecayedStats; the input is not modified.
    """
    z, x_z = _observation(z, x_z, cfg)
    geo = subset_geometry(dictionary, cfg, z)
    if stats.k_a != dictionary.k_a:
        raise DimensionError("stats and dictionary disagree on basis sizes")

    keep = 1.0 - cfg.decay
    compiled = _compiled()
    if compiled is not None:
        raw_m, raw_u = np.empty_like(geo.m_c), np.empty(dictionary.k_a)
        q_c = compiled.absorb(x_z, z, dictionary.b_a, geo.basis, geo.c, geo.m_c, stats.raw_M,
                              stats.raw_u, keep, raw_m, raw_u)
    if compiled is None or q_c is NotImplemented:
        # ndarray.dot runs the BLAS product @ runs, with less overhead per call.
        w_x = x_z - geo.basis.dot(geo.c * x_z.dot(geo.basis))
        u_c = dictionary.b_a.take(z, 0).T.dot(w_x)  # after the lookup's check: take wraps z < 0
        q_c = float(x_z.dot(w_x))
        raw_m = stats.raw_M * keep
        raw_m += geo.m_c  # in place: one k_a×k_a temporary fewer, the same sums
        raw_u = keep * stats.raw_u + u_c
    # ln det of the marginal covariance is m·ln sigma_e^2 − ln det W.
    norm_c = -0.5 * (x_z.size * (_LOG_2PI + math.log(cfg.sigma_e2)) - geo.logdet_w)
    return _read_only_stats(
        raw_m,
        raw_u,
        keep * stats.raw_q + q_c,
        keep * stats.raw_norm + norm_c,
        keep * stats.mass + 1.0,
        stats.n + 1,
    )


# A fit's default stop rule: the largest |change| of any mu_j or alpha_j in a
# sweep, and the most sweeps it runs.
_TOL = 1e-6
_MAX_ITERS = 100

# Coordinates per block of the sweep: one matrix-vector product per block
# gives every cross term from the posterior at the block's start.
_BLOCK = 12

# The posterior vectors a fit's kernel writes, in their order in its output.
_FIELDS = ("mu_tilde", "mu_a", "s2", "alpha", "spread")


def _blocks(k: int) -> list[range]:
    """The k coordinates split evenly into contiguous blocks of at most ``_BLOCK``."""
    n_blocks = -(-k // _BLOCK)
    bounds = [i * k // n_blocks for i in range(n_blocks + 1)]
    return [range(start, stop) for start, stop in zip(bounds, bounds[1:])]


def _kernel_source(k: int) -> str:
    """Source of the function that runs every sweep of a fit at k_a = k.

    Built from k alone; the blocks are ``_blocks(k)``.  The kernel sets the
    fit up once: one
    ``raw_m.take(IDX).tolist()`` gives diag(M) (``m<t>``) and every
    in-block entry of M (``M<t>_<s>``, row t, column s < t of its block);
    u, the config vectors, mu, alpha and mu_tilde are unpacked from their
    lists, every per-coordinate factor is computed by the expression
    ``vb_coordinate_sweep`` gives it, and the slab variances are written.
    Each sweep then runs the blocks in order.  A block opens with the
    product c = off[start:stop]·mt of M (diagonal zeroed) with the shared
    mu_tilde array; coordinate t takes its cross term as c_t + M_t,s·Δ_s +
    … left to right over the earlier coordinates s of its block, and the
    block writes its mu_tilde back into the shared array after its pass.
    The sweeps stop after the first in which nothing has moved (every
    |Δmu| and |Δalpha| below ``tol``, no NaN; tested until the first
    coordinate that has moved) or after ``max_iters``.  The kernel then
    writes mu, alpha and the inclusion spread alpha·(1 − alpha)·mu·mu and
    returns (converged, sweeps run).  ``out`` is a memoryview of the fit's
    output, the k-long fields ``_FIELDS`` one after another; ``mt_arr`` is
    its first, the shared mu_tilde array.
    """
    blocks = _blocks(k)
    r = range(k)

    def row(prefix, ts=r):
        return ", ".join(f"{prefix}{t}" for t in ts) + ","

    def at(name, t):
        return _FIELDS.index(name) * k + t

    lower = [f"M{t}_{s}" for blk in blocks for t in blk for s in range(blk[0], t)]
    lines = [
        "def kernel(raw_m, off, mt_arr, out, u, inv_sj2, logit_w, two_sj2, mu, alpha, mt,"
        " se2, v, ntol, tol, max_iters):",
        # Binding the pass's temporaries first gives them the lowest local
        # slots, which the interpreter reads without an extended argument.
        "    moved = False",
        "    new = sq = logit = na = e = 0.0",
        f"    {', '.join([*lower, *(f'm{t}' for t in r)])}, = raw_m.take(IDX).tolist()",
    ]
    for prefix, name in (
        ("i", "inv_sj2"), ("u", "u"), ("lw", "logit_w"), ("tj", "two_sj2"),
        ("mu", "mu"), ("a", "alpha"), ("mt", "mt"),
    ):
        lines.append(f"    {row(prefix)} = {name}")
    lines.append("    two_se2 = 2.0 * se2")
    for t in r:
        lines += [
            f"    s2_{t} = 1.0 / (m{t} / se2 + i{t})",
            f"    sc{t} = s2_{t} / se2",
            f"    vs{t} = v * s2_{t}",
            f"    hm{t} = m{t} / two_se2",
            f"    out[{at('s2', t)}] = s2_{t}",
        ]
    lines += [f"    o{i} = off[{blk[0]}:{blk[-1] + 1}]" for i, blk in enumerate(blocks)]
    lines += [
        "    converged = False",
        "    for iters in range(1, max_iters + 1):",
        "        moved = False",
    ]
    # Each branch's exponent is at most 0, so exp never overflows, and only
    # the clamp on its own side of 1/2 can bind; ``not na >= ALPHA_CLAMP``
    # also catches a NaN logit.
    for i, blk in enumerate(blocks):
        lines.append(f"        {row('c', blk)} = o{i}.dot(mt_arr).tolist()")
        for t in blk:
            earlier = range(blk[0], t)
            cross = f"(c{t}" + "".join(f" + M{t}_{s} * d{s}" for s in earlier) + ")"
            lines += [
                f"        new = sc{t} * (u{t} - {cross if earlier else f'c{t}'})",
                "        sq = new * new",
                f"        logit = lw{t} + sq / tj{t} + hm{t} * (sq - s2_{t} + vs{t})",
                "        if logit >= 0.0:",
                "            na = 1.0 / (1.0 + exp(-logit))",
                f"            if na > {1.0 - ALPHA_CLAMP!r}:",
                f"                na = {1.0 - ALPHA_CLAMP!r}",
                "        else:",
                "            e = exp(logit)",
                "            na = e / (1.0 + e)",
                f"            if not na >= {ALPHA_CLAMP!r}:",
                f"                na = {ALPHA_CLAMP!r}",
                f"        if not moved and not (ntol < new - mu{t} < tol and ntol < na - a{t} < tol):",
                "            moved = True",
                f"        mu{t} = new",
                f"        a{t} = na",
                "        new = new * na",
            ]
            if t < blk[-1]:  # the in-block step the later coordinates add
                lines.append(f"        d{t} = new - mt{t}")
            lines.append(f"        mt{t} = new")
        lines += [f"        out[{t}] = mt{t}" for t in blk]
    lines += [
        "        if not moved:",
        "            converged = True",
        "            break",
        *(f"    out[{at('mu_a', t)}] = mu{t}" for t in r),
        *(f"    out[{at('alpha', t)}] = a{t}" for t in r),
        *(f"    out[{at('spread', t)}] = a{t} * (1.0 - a{t}) * mu{t} * mu{t}" for t in r),
        "    return converged, iters",
    ]
    return "\n".join(lines) + "\n"


@functools.cache
def _kernel(k: int):
    """The generated sweep kernel for k_a = k, compiled on first use: the
    reference the compiled kernel is tested against, and the fallback
    ``_sweeps`` runs where that cannot be built or loaded.

    Its ``IDX`` indexes the flattened k×k M at the entries the kernel
    unpacks, in its order: each block's strict lower triangle in row-major
    order, block after block, then the diagonal.  Compiling takes about
    2.6 ms at k = 10 and 8.4 ms at k = 36, and its transient peaks at 1.0
    and 3.6 MB (``tracemalloc``; Python 3.11 on a 2-vCPU Xeon); the kernel
    kept is about 0.1 MB at k = 36.
    """
    idx = [t * k + s for blk in _blocks(k) for t in blk for s in range(blk[0], t)]
    namespace = {"exp": math.exp, "IDX": np.array(idx + [t * (k + 1) for t in range(k)])}
    exec(compile(_kernel_source(k), f"<sweep kernel, k_a = {k}>", "exec"), namespace)
    return namespace["kernel"]


# The file name numpy's wheels give the OpenBLAS they bundle, whose
# scipy_cblas_dgemv64_ is the product ndarray.dot calls.
_BLAS = "libscipy_openblas64_"


@functools.cache
def _compiled():
    """The compiled extension, ``_sweep.c``, whose entries are the sweep
    kernel and the step layers', or None where it cannot be built or
    loaded.

    Built by the first call in a process, never at import, against the
    OpenBLAS numpy loaded (``_BLAS``, found among the files this process
    maps), into ``$XDG_CACHE_HOME/sparsewatch`` (``~/.cache`` by default)
    under a name keyed on the hash of the source, that library's path and
    the interpreter's ``EXT_SUFFIX``, so a later process loads it and runs
    no compiler.  A cache that cannot be written gets a build in a private
    temporary directory instead.  None, and so the generated kernels and
    the layers' numpy bodies, when there is no such library, no compiler
    (the interpreter's ``CC``), no ``Python.h``, or the build does not load.
    """
    import hashlib
    import sysconfig
    import tempfile
    from importlib import resources

    try:
        with open("/proc/self/maps", encoding="utf-8") as maps:
            mapped = [line.split(maxsplit=5)[-1].strip() for line in maps]
        blas = next((path for path in mapped if os.path.basename(path).startswith(_BLAS)), None)
        if blas is None:
            return None
        source = resources.files(__package__).joinpath("_sweep.c").read_bytes()
        suffix = sysconfig.get_config_var("EXT_SUFFIX")
        key = hashlib.sha256(b"\0".join([source, os.fsencode(blas), suffix.encode()])).hexdigest()
        cache = os.environ.get("XDG_CACHE_HOME") or os.path.expanduser("~/.cache")
        path = os.path.join(cache, "sparsewatch", f"_sweep-{key[:16]}{suffix}")
        if not os.path.exists(path):
            try:
                _build(source, blas, path)
            except OSError:  # the cache cannot be written (or there is no compiler)
                with tempfile.TemporaryDirectory() as private:
                    return _load(_build(source, blas, os.path.join(private, "_sweep" + suffix)))
        return _load(path)
    except (OSError, ImportError):
        return None


def _build(source: bytes, blas: str, path: str) -> str:
    """Compile ``source`` against the library ``blas`` into ``path``, through
    a temporary file beside it that ``os.replace`` moves into place, so
    processes that build at once each load a whole file; returns ``path``.
    A compiler that fails raises ImportError, one that cannot be run or a
    file that cannot be written OSError."""
    import shlex
    import subprocess
    import sysconfig
    import tempfile

    os.makedirs(os.path.dirname(path), exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=os.path.dirname(path))
    os.close(fd)
    command = [
        *shlex.split(sysconfig.get_config_var("CC") or "cc"), "-shared", "-fPIC", "-O2",
        "-ffp-contract=off", "-I" + sysconfig.get_paths()["include"], "-x", "c", "-", "-x", "none",
        blas, "-Wl,-rpath," + os.path.dirname(blas), "-lm", "-o", tmp,
    ]
    try:
        done = subprocess.run(command, input=source, capture_output=True)
        if done.returncode:
            raise ImportError(f"the sweep kernel did not build: {done.stderr.decode(errors='replace')}")
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)
    return path


def _load(path: str):
    """The extension module in the file ``path``."""
    import importlib.util

    spec = importlib.util.spec_from_file_location("sparsewatch._sweep", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _sweeps(raw_m, rows, u, cfg: ModelConfig, tol: float, max_iters: int):
    """Every sweep of n fits; returns (converged, sweeps run), (n,) bool and
    int64 arrays.

    Fit i starts from the posterior ``rows[i]``, its ``_FIELDS`` as rows of
    a (5, k_a) float64 block of which mu_tilde, mu_a and alpha are read, at
    the moments ``raw_m[i]`` (k_a×k_a) and ``u[i]``, and its final
    posterior is written over it.  All n run in one call of the compiled
    kernel (``_compiled().sweep``) or, where it cannot be built or loaded,
    each in one call of the generated kernel for k_a, on the plain floats
    it unpacks and M with its diagonal zeroed; the two store the same bits.
    ``_iterate`` and the batch ``_FitStack.fit`` both run their fits
    through it, so a batch row's are bitwise a lone fit's.
    """
    n = len(u)
    converged, sweeps = np.empty(n, dtype=bool), np.empty(n, dtype=np.int64)
    compiled = _compiled()
    if compiled is not None:
        factors = cfg._sweep_factors
        compiled.sweep(
            raw_m, rows, u, factors, cfg.sigma_e2, cfg.v, tol, max_iters, converged, sweeps
        )
        return converged, sweeps
    kernel, factors = _kernel(cfg.k_a), cfg._sweep_factors.tolist()
    off = raw_m.copy()
    off.reshape(n, -1)[:, :: cfg.k_a + 1] = 0.0  # the diagonals, more cheaply than np.fill_diagonal
    for i, (out, u_i) in enumerate(zip(rows, u.tolist())):
        mt, mu, _, alpha, _ = out.tolist()
        converged[i], sweeps[i] = kernel(
            raw_m[i], off[i], out[0], memoryview(out.ravel()), u_i, *factors, mu, alpha, mt,
            cfg.sigma_e2, cfg.v, -tol, tol, max_iters,
        )
    return converged, sweeps


def _iterate(
    post: SpikeSlabPosterior, stats: DecayedStats, cfg: ModelConfig, tol: float, max_iters: int
):
    """Coordinate sweeps at fixed stats until nothing moves by ``tol``, by
    one ``_sweeps`` call of one row; returns (posterior, converged, sweeps
    run).

    The posterior's fields are the rows of the kernel's output block, whose
    first, mu_tilde, holds mu·alpha of the final iterate bitwise, so the
    posterior takes them without a conversion, as read-only rows.  The
    kernels get the moments as C-ordered float64 (a copy only of stats
    built otherwise, which widening leaves exact) and ``max_iters`` capped
    at ``sys.maxsize``, the compiled kernel's C long, which no fit reaches.
    """
    if stats.n == 0:
        raise StateError("cannot sweep before any sample has been absorbed")
    if stats.k_a != post.k_a or post.k_a != cfg.k_a:
        raise DimensionError("posterior, stats, and config disagree on k_a")
    rows = np.concatenate([getattr(post, name) for name in _FIELDS]).reshape(1, len(_FIELDS), -1)
    raw_m = np.ascontiguousarray(stats.raw_M, dtype=np.float64)[None]
    raw_u = np.ascontiguousarray(stats.raw_u, dtype=np.float64)[None]
    converged, iters = _sweeps(raw_m, rows, raw_u, cfg, tol, min(max_iters, sys.maxsize))
    fields = rows[0]
    fields.setflags(write=False)
    mu_tilde, mu, s2, alpha, spread = fields
    return SpikeSlabPosterior._trusted(mu, s2, alpha, mu_tilde, spread), bool(converged[0]), int(iters[0])


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
    the evidence bound is therefore non-decreasing across sweeps.

    The pass runs in blocks of at most 12 coordinates: one matrix-vector
    product gives every cross term of a block from the posterior at its
    start, and each coordinate adds M_ji·Δ(alpha_i mu_ai) for the earlier
    coordinates of its block.  It is one sweep of the kernel ``fit`` runs
    for all of its sweeps (see the module docstring).
    """
    return _iterate(post, stats, cfg, math.inf, 1)[0]


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


def _background_fit(b_b_z: np.ndarray, resid: np.ndarray, cfg: ModelConfig):
    """(H^{-1}·B_bZ'·resid/sigma_e^2, H^{-1}) for the observed background rows
    ``b_b_z``, with H = B_bZ'B_bZ/sigma_e^2 + I/sigma_b^2 the background
    precision given them, by one dense k_b×k_b solve; H^{-1} is made
    exactly symmetric."""
    eye = np.eye(b_b_z.shape[1])
    h = b_b_z.T @ b_b_z / cfg.sigma_e2 + eye / cfg.sigma_b2
    sol = np.linalg.solve(h, np.column_stack((b_b_z.T @ resid / cfg.sigma_e2, eye)))
    cov = sol[:, 1:]
    return sol[:, 0], 0.5 * (cov + cov.T)


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

    by one dense k_b×k_b solve with B_aZ and B_bZ read from the dictionary,
    independent of the SVD of the step's geometry, which is not looked up;
    ``geometry.checked_subset`` checks the subset.  The monitoring step
    does not call it, since the statistic does not depend on theta; the
    exact routes in ``detection`` read it through ``DetectionInputs.bg``.
    """
    z, x_z = _observation(z, x_z, cfg)
    z = checked_subset(z, dictionary.p)
    resid = x_z - dictionary.b_a[z] @ post.mu_tilde
    theta, cov_b = _background_fit(dictionary.b_b[z], resid, cfg)
    return BackgroundPosterior(theta_n=theta, cov_b=cov_b)


def fit(
    x_z: np.ndarray,
    z,
    prev_posterior: SpikeSlabPosterior,
    prev_stats: DecayedStats,
    dictionary: BasisDictionary,
    cfg: ModelConfig,
    tol: float = _TOL,
    max_iters: int = _MAX_ITERS,
) -> FitResult:
    """Absorb one observation and iterate the variational updates to a fixed point.

    The sample's whitened cross-moments are folded in once up front; the
    background never enters the anomaly iteration (it is integrated out of
    the moments), so the loop is plain coordinate sweeps at fixed stats,
    stopping after the first sweep in which every absolute change of mu_a
    and alpha is below ``tol``.  The sweeps are one call of the sweep
    kernel (``_sweeps``), and the posterior is built once, at the end.

    Non-convergence within ``max_iters``, or a NaN change, returns the last
    iterate with ``converged=False`` rather than raising.  A ``tol`` that is
    not a positive number (``errors._number``), or a ``max_iters`` that is
    not an integer of at least 1 (a bool is not), raises a ValueError
    subclass.  The config's scales were checked when it was built.
    """
    tol = _number("tol", tol, 0.0, above=True)
    _count("max_iters", max_iters)
    stats = absorb_sample(prev_stats, x_z, z, dictionary, cfg)
    post, converged, iters = _iterate(prev_posterior, stats, cfg, tol, max_iters)
    return FitResult(post, stats, converged, iters)


class _FitStack:
    """The fits of n replications from ``posts`` and empty moments: M and u
    as ``raw_m`` (n, k_a, k_a) and ``raw_u`` (n, k_a), and ``rows``, the
    posteriors (n, 5, k_a) in ``_FIELDS`` order with (n, k_a) views named
    like ``SpikeSlabPosterior``'s fields.  The moments' q, normalization and
    mass, which nothing reads, are not kept."""

    def __init__(self, posts, cfg: ModelConfig):
        n, k = len(posts), cfg.k_a
        self.cfg = cfg
        self.raw_m, self.raw_u = np.zeros((n, k, k)), np.zeros((n, k))
        self.rows = np.array([[getattr(post, name) for name in _FIELDS] for post in posts])
        self.mu_tilde, self.mu_a, self.s2, self.alpha, self.spread = self.rows.swapaxes(0, 1)

    def fit(self, x_z: np.ndarray, b_a_z: np.ndarray, geo):
        """Absorb observations ``x_z`` (n, m) with anomaly rows ``b_a_z`` (n, m,
        k_a) and stacked geometry ``geo``, then sweep every row at ``fit``'s
        defaults by one ``_sweeps`` call; returns its (converged, sweeps)."""
        # absorb_sample: W·x = x − U·(c ∘ U'x), then u_c = B_aZ'·W·x
        proj = geo.c * np.matmul(x_z[:, None], geo.basis)[:, 0]
        w_x = x_z - np.matmul(geo.basis, proj[:, :, None])[:, :, 0]
        keep = 1.0 - self.cfg.decay
        self.raw_m *= keep
        self.raw_m += geo.m_c
        self.raw_u *= keep
        self.raw_u += np.matmul(b_a_z.swapaxes(1, 2), w_x[:, :, None])[:, :, 0]
        return _sweeps(self.raw_m, self.rows, self.raw_u, self.cfg, _TOL, _MAX_ITERS)
