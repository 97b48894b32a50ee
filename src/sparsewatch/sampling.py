"""Adaptive selection of the next observation subset.

Between steps the monitor chooses which m of the p variables to observe
next.  The default strategy is posterior sampling: draw one plausible
anomaly coefficient from the fitted spike-slab posterior, synthesize the
full signal it would produce, score every variable by its additive
contribution to the expected monitoring statistic, and keep the top m.
An exhaustive subset scorer is provided as a reference strategy; it is
exponential in p choose m and exists for validation and small problems.
``_stacked_subsets``, the batch form of both for ``engine``'s lockstep, is
bitwise ``engine.step``'s sensing per row: each reduction is a stacked
``np.matmul``, which calls per row the BLAS routine ``ndarray.dot`` calls.

The four Thompson layers' arithmetic after their checks and draws is the
compiled extension's ``draw``, ``synthesize``, ``score`` and ``top``
entries (``inference._compiled``), and the oracle's scoring is its
``oracle`` entry; each is bitwise its numpy body, which runs where the
extension is not loaded or the entry declines: an argument it does not
mirror, or a floating-point exception numpy would report.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from math import comb

import numpy as np

from .bases import BasisDictionary
from .errors import CapabilityError, DimensionError, NumericalError, _count
from . import inference
from .geometry import column_bases
from .inference import ModelConfig, SpikeSlabPosterior

__all__ = [
    "SensingPlan",
    "draw_anomaly_sample",
    "synthesize_anomaly_signal",
    "score_variables",
    "select_top_m",
    "OracleScorer",
]

ORACLE_SUBSET_LIMIT = 10**6

# Spike variances are floored here before taking square roots, so a draw is
# well-defined even at extreme shrink factors.
_VAR_FLOOR = 1e-18


@dataclass(frozen=True)
class SensingPlan:
    """Observation subset for the next step, with the scores that chose it.

    ``z`` is the ascending intp vector of the m distinct indices a sampler
    picked; ``scores`` is Thompson sampling's float64 score per variable,
    or None for the oracle.  Only the samplers and ``engine.init`` build
    plans, so the constructor checks nothing: ``engine.step`` refuses a
    subset out of range, repeated or of the wrong size where it reads it.
    """

    z: np.ndarray
    scores: np.ndarray | None = None

    @property
    def m(self) -> int:
        return self.z.size


# ── Posterior sampling ────────────────────────────────────────────────────


def draw_anomaly_sample(
    post: SpikeSlabPosterior, cfg: ModelConfig, rng: np.random.Generator
) -> np.ndarray:
    """One draw of the anomaly coefficient from the fitted posterior.

    Each coordinate tosses its inclusion probability, then draws from the
    slab N(mu_j, s_j^2) when included and from the spike N(0, v·s_j^2)
    otherwise.  Consumes exactly one uniform and one normal vector of length
    k_a, regardless of the inclusion outcome, so downstream randomness does
    not depend on the tosses.  The extension's ``draw`` entry, where loaded,
    writes the draw over the normals.
    """
    uniform, noise = rng.random(post.k_a), rng.standard_normal(post.k_a)
    compiled = inference._compiled()
    if compiled is not None and compiled.draw(
        uniform, noise, post.alpha, post.mu_a, post.s2, cfg.v
    ) is None:
        return noise
    # Row 0 is the slab draw less its mean, row 1 the spike draw.
    draws = np.sqrt(np.maximum(np.multiply.outer((1.0, cfg.v), post.s2), _VAR_FLOOR)) * noise
    return np.where(uniform < post.alpha, post.mu_a + draws[0], draws[1])


def synthesize_anomaly_signal(
    theta_hat: np.ndarray,
    dictionary: BasisDictionary,
    cfg: ModelConfig,
    rng: np.random.Generator,
) -> np.ndarray:
    """Hypothetical full observation carrying the sampled anomaly alone.

    Returns B_a·theta_hat plus fresh N(0, sigma_e^2 I) noise over all p
    variables; the background contribution is deliberately absent, since the
    monitoring statistic it feeds is background-corrected.  The extension's
    ``synthesize`` entry, where loaded, writes it over the noise.
    """
    theta_hat = np.asarray(theta_hat, dtype=np.float64).ravel()
    if theta_hat.size != dictionary.k_a:
        raise DimensionError("theta_hat length must match the anomaly basis")
    noise = rng.standard_normal(dictionary.p)
    compiled = inference._compiled()
    if compiled is not None and compiled.synthesize(
        dictionary.b_a, theta_hat, noise, cfg.sigma_e
    ) is None:
        return noise
    return dictionary.b_a.dot(theta_hat) + cfg.sigma_e * noise


def score_variables(
    x1_hat: np.ndarray, post: SpikeSlabPosterior, dictionary: BasisDictionary
) -> np.ndarray:
    """Per-variable contribution to the monitoring statistic.

    With y = B_a·mu_tilde and the posterior's per-coordinate spread
    alpha_j(1−alpha_j)·mu_j^2, variable i scores

        2·x1_hat_i·y_i − (y_i^2 + Σ_j B_a[i,j]^2 · spread_j),

    so the statistic of any subset (absent background correction) is the sum
    of its variables' scores.  Computed by the extension's ``score`` entry
    where loaded.
    """
    return _variable_scores(x1_hat, post, dictionary, inference._compiled())[0]


def _variable_scores(
    x1_hat, post: SpikeSlabPosterior, dictionary: BasisDictionary, compiled=None
):
    """(``score_variables``, x1_hat as a checked float64 vector, y = B_a·mu_tilde).
    Given the extension ``compiled``, its ``score`` entry computes the
    scores, and y is None, unless the entry declines."""
    x1_hat = _checked_signal(x1_hat, post, dictionary)
    if compiled is not None:
        scores = np.empty(dictionary.p)
        b_a, b_a_sq = dictionary.b_a, dictionary.b_a_sq
        if compiled.score(x1_hat, b_a, b_a_sq, post.mu_tilde, post.spread, scores) is None:
            return scores, x1_hat, None
    y = dictionary.b_a.dot(post.mu_tilde)
    quad = y * y + dictionary.b_a_sq.dot(post.spread)
    return 2.0 * x1_hat * y - quad, x1_hat, y


def _checked_signal(x1_hat, post: SpikeSlabPosterior, dictionary: BasisDictionary) -> np.ndarray:
    """x1_hat as a float64 vector of all p variables, for a posterior of the
    dictionary's k_a."""
    x1_hat = np.asarray(x1_hat, dtype=np.float64).ravel()
    if x1_hat.size != dictionary.p:
        raise DimensionError("x1_hat must cover all p variables")
    if post.k_a != dictionary.k_a:
        raise DimensionError("posterior and dictionary disagree on k_a")
    return x1_hat


def select_top_m(
    scores: np.ndarray, m: int, rng: np.random.Generator
) -> SensingPlan:
    """Indices of the m largest scores, ties broken uniformly at random.

    A NaN score ranks below every number.  Every call draws one random
    permutation of the p variables, so the generator advances alike
    whatever the scores, but the permutation is read only when scores tie
    at the cut or a NaN reaches it: then a stable descending sort of the
    permuted scores lets equal-scored variables enter the cut in
    exchangeable random order.  Otherwise one partition of a copy finds the
    score at ascending rank p − m, and when exactly m scores reach it they
    are the subset the sort would give, since every other score is smaller
    or NaN.  Where the extension is loaded, its ``top`` entry finds that
    score by a quickselect on a copy (expected linear time, runs of equal
    scores included) and counts and lists the scores that reach it.
    """
    scores = np.asarray(scores, dtype=np.float64).ravel()
    p = scores.size
    _count("sensing budget m", m, 1, p)
    perm = rng.permutation(p)
    compiled = inference._compiled()
    if compiled is not None:
        top = np.empty(m, dtype=np.intp)
        count = compiled.top(scores, top)
    if compiled is None or count is NotImplemented:
        part = scores.copy()
        part.partition(p - m)  # NaN sorts last; a NaN cut is reached by no score
        top = (scores >= part[p - m]).nonzero()[0]
        count = top.size
    if count == m:
        return SensingPlan(top, scores)
    return SensingPlan(_permuted_top(scores, m, perm), scores)


def _permuted_top(scores: np.ndarray, m: int, perm: np.ndarray) -> np.ndarray:
    """The m best of ``scores``, ascending, by a stable descending sort of
    the scores permuted by ``perm``: equal scores enter the cut in the
    permutation's order, and NaN ranks last."""
    ranked = perm[np.argsort(-scores[perm], kind="stable")]
    return np.sort(ranked[:m])


def _stacked_subsets(post, cfg: ModelConfig, dictionary: BasisDictionary, rngs, scorer=None):
    """The next subsets (n, m) of n rows whose posteriors ``post`` holds as
    (n, k_a) arrays named like ``SpikeSlabPosterior``'s fields.  Row i draws
    from ``rngs[i]`` in ``engine.step``'s order: the uniforms, one normal
    call that fills both vectors as two would, then Thompson's permutation
    or the oracle's ``scorer.select``, whose errors propagate."""
    (n, k), p, m = post.alpha.shape, dictionary.p, cfg.m
    uniform, normal, perms = np.empty((n, k)), np.empty((n, k + p)), []
    for i, rng in enumerate(rngs):
        rng.random(out=uniform[i])
        rng.standard_normal(out=normal[i])
        if scorer is None:
            perms.append(rng.permutation(p))
    # draw_anomaly_sample, then synthesize_anomaly_signal
    draws = np.sqrt(np.maximum(np.multiply.outer((1.0, cfg.v), post.s2), _VAR_FLOOR)) * normal[:, :k]
    theta = np.where(uniform < post.alpha, post.mu_a + draws[0], draws[1])
    x1_hat = np.matmul(dictionary.b_a, theta[:, :, None])[:, :, 0] + cfg.sigma_e * normal[:, k:]
    if scorer is not None:
        fields = zip(post.mu_a, post.s2, post.alpha, post.mu_tilde, post.spread)
        return np.array([
            scorer.select(x, SpikeSlabPosterior._trusted(*row), rng).z
            for x, row, rng in zip(x1_hat, fields, rngs)
        ])
    # score_variables, then select_top_m
    y_all = np.matmul(dictionary.b_a, post.mu_tilde[:, :, None])[:, :, 0]
    quad_all = y_all * y_all + np.matmul(dictionary.b_a_sq, post.spread[:, :, None])[:, :, 0]
    scores = 2.0 * x1_hat * y_all - quad_all
    top = scores >= np.partition(scores, p - m, axis=1)[:, p - m, None]
    counts = np.count_nonzero(top, axis=1)
    if (counts == m).all():
        return top.nonzero()[1].reshape(n, m)
    return np.array([  # a tie or a NaN at some row's cut
        row.nonzero()[0] if count == m else _permuted_top(row_scores, m, perm)
        for row, count, row_scores, perm in zip(top, counts, scores, perms)
    ])


# ── Exhaustive reference strategy ─────────────────────────────────────────


class OracleScorer:
    """Exhaustive subset scorer over two tables built once.

    A subset Z's statistic (see ``select``) splits into a separable part,
    the sum over Z of ``score_variables``, and a background part
    Σ_k c_y·(c_y − 2·c_x), where (c_y, c_x) = U_Z'·(y_Z, x1_hat_Z),
    y = B_a·mu_tilde and U_Z is the orthonormal basis of Z's observed
    background columns, bitwise ``SubsetGeometry.basis`` (one stacked
    ``column_bases`` call).  With C = C(p, m) subsets in ``subsets`` order,
    each part is one dense product over a table:

        incidence  p×C, 1 where subset i observes the variable, else 0
        bases      p×(k_b·C), k-major: column k·C + i holds column k of
                   subset i's U_Z at its variables' rows, zeros elsewhere;
                   None without a background basis

    so without background columns a subset scores the sum of its variables'
    scores.  The tables take 8·(k_b+1)·p·C bytes: 1.44 MB at p = 15, m = 5,
    k_b = 3, against 8·m²·C = 0.6 MB for stacked m×m projections.  That
    ratio, (k_b+1)·p/m², grows with p at small m.  Construction is meant to
    be reused across steps and streams: ``shared`` hands out one scorer per
    process per (dictionary content, m).

    Where the extension is loaded (``inference._compiled``, which
    construction neither loads nor builds), its ``oracle`` entry computes
    every score into a new array, bitwise the numpy body, and finds the
    first maximum and how many scores equal it in the same pass.  It holds
    its scratch, 8·(3p + 2·k_b·C) bytes (144 KB at p = 15, m = 5), for the
    call only, so a scorer is never modified and pickles as it was built.
    """

    # ((dictionary content key, m), scorer) of the latest ``shared`` build.
    _shared: tuple | None = None

    @classmethod
    def shared(cls, dictionary: BasisDictionary, m: int) -> "OracleScorer":
        """This process's scorer for the dictionary's content and m.

        Keyed on content, not identity, so replications whose pool task
        unpickled a fresh copy of the dictionary share one build; a scorer
        is never modified after it is built.  ``m`` is checked before it
        keys the cache, where True would find the m = 1 scorer.
        """
        key = (dictionary.content_key, _count("sensing budget m", m, 1, dictionary.p))
        if cls._shared is None or cls._shared[0] != key:
            cls._shared = (key, cls(dictionary, m))
        return cls._shared[1]

    def __init__(self, dictionary: BasisDictionary, m: int):
        p, k_b = dictionary.p, dictionary.k_b
        n_subsets = comb(p, _count("sensing budget m", m, 1, p))
        if n_subsets > ORACLE_SUBSET_LIMIT:
            raise CapabilityError(
                f"exhaustive search over C({p},{m})={n_subsets} subsets exceeds "
                f"the {ORACLE_SUBSET_LIMIT} limit; use the posterior-sampling "
                "strategy at this size"
            )
        self.dictionary = dictionary
        self.m = m
        self.subsets = np.array(list(combinations(range(p), m)), dtype=np.intp)
        cols = np.arange(n_subsets)
        self.incidence = np.zeros((p, n_subsets))
        self.incidence[self.subsets, cols[:, None]] = 1.0
        self.bases = None
        if k_b:
            bases = np.zeros((p, k_b, n_subsets))
            bases[self.subsets[:, :, None], np.arange(k_b), cols[:, None, None]] = (
                column_bases(dictionary.b_b[self.subsets])
            )
            self.bases = bases.reshape(p, k_b * n_subsets)

    def subset_scores(self, x1_hat: np.ndarray, post: SpikeSlabPosterior) -> np.ndarray:
        """Monitoring-statistic value of every candidate subset, in a new array."""
        return self._scored(x1_hat, post)[0]

    def _scored(self, x1_hat, post: SpikeSlabPosterior) -> tuple:
        """(``subset_scores``, the first index of their maximum, how many
        scores equal it); (scores, −1, 0) where a score is NaN, which makes
        the maximum NaN.  The extension's ``oracle`` entry computes all
        three unless it declines; then the numpy body runs."""
        d, compiled = self.dictionary, inference._compiled()
        if compiled is not None:
            signal, scores = _checked_signal(x1_hat, post, d), np.empty(len(self.subsets))
            found = compiled.oracle(
                signal, d.b_a, d.b_a_sq, post.mu_tilde, post.spread, self.incidence, self.bases,
                scores,
            )
            if found is not NotImplemented:
                return (scores, *found)
        variable, x1_hat, y = _variable_scores(x1_hat, post, d)
        scores = variable @ self.incidence
        if self.bases is not None:
            c_y, c_x = np.array((y, x1_hat)) @ self.bases
            c_x *= -2.0  # c_y·(c_y − 2·c_x), bitwise, in place
            c_x += c_y
            c_y *= c_x
            for block in c_y.reshape(-1, scores.size):
                scores += block
        ties = np.flatnonzero(scores == scores.max())
        return scores, int(ties[0]) if ties.size else -1, ties.size

    def select(
        self, x1_hat: np.ndarray, post: SpikeSlabPosterior, rng: np.random.Generator
    ) -> SensingPlan:
        """Best subset Z by the statistic the synthesized signal would give there,

            2·mu_tilde'B_aZ'(I − P_Z)·x1_hat_Z − mu_a'(B_aZ'B_aZ ∘ moments)·mu_a
            + (B_aZ mu_tilde)'P_Z(B_aZ mu_tilde),

        with P_Z the projection onto the subset's background columns.  Exact
        ties, such as the all-zero posterior mean where every subset scores
        zero, are broken uniformly at random by ``rng``, which is drawn only
        then.  A NaN score raises NumericalError naming the subsets whose
        scores are not finite.
        """
        scores, first, count = self._scored(x1_hat, post)
        if not count:
            bad = np.flatnonzero(~np.isfinite(scores))
            raise NumericalError(
                f"{bad.size} of {scores.size} subset scores are not finite, "
                f"first {scores[bad[0]]} at subset {self.subsets[bad[0]].tolist()}"
            )
        if count > 1:
            first = int(np.flatnonzero(scores == scores[first])[rng.integers(count)])
        return SensingPlan(self.subsets[first].copy(), None)
