"""Adaptive selection of the next observation subset.

Between steps the monitor chooses which m of the p variables to observe
next.  The default strategy is posterior sampling: draw one plausible
anomaly coefficient from the fitted spike-slab posterior, synthesize the
full signal it would produce, score every variable by its additive
contribution to the expected monitoring statistic, and keep the top m.
An exhaustive subset scorer is provided as a reference strategy; it is
exponential in p choose m and exists for validation and small problems.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from math import comb

import numpy as np

from .bases import BasisDictionary
from .errors import CapabilityError, DimensionError
from .geometry import column_bases
from .inference import ModelConfig, SpikeSlabPosterior

__all__ = [
    "ORACLE_SUBSET_LIMIT",
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
    """Observation subset for the next step, with the scores that chose it."""

    z: np.ndarray
    scores: np.ndarray | None = None

    def __post_init__(self):
        z = np.sort(np.asarray(self.z, dtype=np.intp).ravel())
        if z.size == 0:
            raise DimensionError("a sensing plan must observe at least one variable")
        if np.any(z[1:] == z[:-1]):
            raise DimensionError("sensing plan indices must be distinct")
        object.__setattr__(self, "z", z)
        if self.scores is not None:
            object.__setattr__(
                self, "scores", np.asarray(self.scores, dtype=np.float64).ravel()
            )

    @classmethod
    def _trusted(cls, z: np.ndarray, scores: np.ndarray | None) -> "SensingPlan":
        """Plan from fields that already satisfy every check.

        For the samplers, whose ``z`` is a sorted intp vector of distinct
        indices and whose ``scores`` is a float64 vector or None; the values
        are exactly those the checked constructor would store.
        """
        plan = object.__new__(cls)
        object.__setattr__(plan, "z", z)
        object.__setattr__(plan, "scores", scores)
        return plan

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
    not depend on the tosses.
    """
    include = rng.random(post.k_a) < post.alpha
    noise = rng.standard_normal(post.k_a)
    slab_sd = np.sqrt(np.maximum(post.s2, _VAR_FLOOR))
    spike_sd = np.sqrt(np.maximum(cfg.v * post.s2, _VAR_FLOOR))
    return np.where(
        include, post.mu_a + slab_sd * noise, spike_sd * noise
    )


def synthesize_anomaly_signal(
    theta_hat: np.ndarray,
    dictionary: BasisDictionary,
    cfg: ModelConfig,
    rng: np.random.Generator,
) -> np.ndarray:
    """Hypothetical full observation carrying the sampled anomaly alone.

    Returns B_a·theta_hat plus fresh N(0, sigma_e^2 I) noise over all p
    variables; the background contribution is deliberately absent, since the
    monitoring statistic it feeds is background-corrected.
    """
    theta_hat = np.asarray(theta_hat, dtype=np.float64).ravel()
    if theta_hat.size != dictionary.k_a:
        raise DimensionError("theta_hat length must match the anomaly basis")
    return dictionary.b_a @ theta_hat + cfg.sigma_e * rng.standard_normal(dictionary.p)


def score_variables(
    x1_hat: np.ndarray, post: SpikeSlabPosterior, dictionary: BasisDictionary
) -> np.ndarray:
    """Per-variable contribution to the monitoring statistic.

    With y = B_a·mu_tilde and the per-coordinate spread
    alpha_j(1−alpha_j)·mu_j^2, variable i scores

        2·x1_hat_i·y_i − (y_i^2 + Σ_j B_a[i,j]^2 · spread_j),

    so the statistic of any subset (absent background correction) is the sum
    of its variables' scores.
    """
    return _variable_scores(x1_hat, post, dictionary)[0]


def _variable_scores(x1_hat, post: SpikeSlabPosterior, dictionary: BasisDictionary):
    """(``score_variables``, x1_hat as a checked float64 vector, y = B_a·mu_tilde)."""
    x1_hat = np.asarray(x1_hat, dtype=np.float64).ravel()
    if x1_hat.size != dictionary.p:
        raise DimensionError("x1_hat must cover all p variables")
    if post.k_a != dictionary.k_a:
        raise DimensionError("posterior and dictionary disagree on k_a")
    y = dictionary.b_a @ post.mu_tilde
    spread = post.alpha * (1.0 - post.alpha) * post.mu_a * post.mu_a
    quad = y * y + dictionary.b_a_sq @ spread
    return 2.0 * x1_hat * y - quad, x1_hat, y


def select_top_m(
    scores: np.ndarray, m: int, rng: np.random.Generator
) -> SensingPlan:
    """Indices of the m largest scores, ties broken uniformly at random.

    A random permutation is applied before a stable descending sort, so
    equal-scored variables enter the cut in exchangeable random order.
    """
    scores = np.asarray(scores, dtype=np.float64).ravel()
    p = scores.size
    if not 1 <= m <= p:
        raise DimensionError(f"budget m={m} must lie in [1, {p}]")
    perm = rng.permutation(p)
    ranked = perm[np.argsort(-scores[perm], kind="stable")]
    return SensingPlan._trusted(np.sort(ranked[:m]), scores)


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
    """

    # ((dictionary content key, m), scorer) of the latest ``shared`` build.
    _shared: tuple | None = None

    @classmethod
    def shared(cls, dictionary: BasisDictionary, m: int) -> "OracleScorer":
        """This process's scorer for the dictionary's content and m.

        Keyed on content, not identity, so replications whose pool task
        unpickled a fresh copy of the dictionary share one build; a scorer
        is never modified after it is built.
        """
        key = (dictionary.content_key, m)
        if cls._shared is None or cls._shared[0] != key:
            cls._shared = (key, cls(dictionary, m))
        return cls._shared[1]

    def __init__(self, dictionary: BasisDictionary, m: int):
        p, k_b = dictionary.p, dictionary.k_b
        if not 1 <= m <= p:
            raise DimensionError(f"budget m={m} must lie in [1, {p}]")
        n_subsets = comb(p, m)
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
        """Monitoring-statistic value of every candidate subset."""
        variable, x1_hat, y = _variable_scores(x1_hat, post, self.dictionary)
        scores = variable @ self.incidence
        if self.bases is not None:
            c_y, c_x = np.stack([y, x1_hat]) @ self.bases
            c_y *= c_y - 2.0 * c_x
            for block in c_y.reshape(-1, scores.size):
                scores += block
        return scores

    def select(
        self, x1_hat: np.ndarray, post: SpikeSlabPosterior, rng: np.random.Generator
    ) -> SensingPlan:
        """Best subset Z by the statistic the synthesized signal would give there,

            2·mu_tilde'B_aZ'(I − P_Z)·x1_hat_Z − mu_a'(B_aZ'B_aZ ∘ moments)·mu_a
            + (B_aZ mu_tilde)'P_Z(B_aZ mu_tilde),

        with P_Z the projection onto the subset's background columns.  Exact
        ties, such as the all-zero posterior mean where every subset scores
        zero, are broken uniformly at random by ``rng``.
        """
        scores = self.subset_scores(x1_hat, post)
        ties = np.flatnonzero(scores == scores.max())
        pick = int(ties[rng.integers(ties.size)]) if ties.size > 1 else int(ties[0])
        return SensingPlan._trusted(self.subsets[pick].copy(), None)
