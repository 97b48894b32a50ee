"""Invariances of the model, checked against the program itself.

- **Background rotation.** B_b → B_b·R, with R an orthogonal k_b×k_b
  matrix, changes neither the column space of the observed background rows
  nor their singular values, so the whitening W, its log determinant, the
  projection onto those columns and the statistic stay put.  The basis and
  its weights are not unique, so only what is built from them is compared.
- **Relabelling.** Permuting the dictionary's rows, with each subset mapped
  to the new labels and kept ascending, permutes the observed rows within a
  step.  The whitened moments, and so the fit and the statistic, are sums
  over those rows, so they do not see it.  Thompson's noise vector is drawn
  per variable, so subsets chosen by an engine are equivariant only in
  distribution: the layers are tested, not the engine.

Both hold up to rounding.  Each gap is taken relative to max(1, |value|)
of the unrotated or unrelabelled value and held to ``RTOL``.  The worst
gap these tests meet is 2.7e-14, the statistic's on rank-deficient rows,
where its three terms cancel; the geometry's fields and the layers' gaps
are 1e-14 or less.
"""

from __future__ import annotations

import itertools

import numpy as np
import pytest

from sparsewatch import (
    BasisDictionary,
    DecayedStats,
    DetectionInputs,
    ModelConfig,
    Scenario,
    SpikeSlabPosterior,
    bspline_basis,
    fit,
    fourier_basis,
    gen_stream,
    lambda_stat,
)
from sparsewatch.geometry import subset_geometry

RTOL = 1e-12


def _gap(a, b) -> float:
    """Largest |a − b| relative to max(1, |a|)."""
    a, b = np.asarray(a, dtype=np.float64), np.asarray(b, dtype=np.float64)
    return float(np.max(np.abs(a - b) / np.maximum(1.0, np.abs(a)), initial=0.0))


def _p15_dictionary() -> BasisDictionary:
    """The study model's p = 15 dictionary: k_b = 3, unit-norm splines k_a = 10."""
    return BasisDictionary(
        b_b=fourier_basis(15, 3), b_a=bspline_basis(15, 4, 14, normalize_columns=True)
    )


def _config(dictionary: BasisDictionary, m: int) -> ModelConfig:
    return ModelConfig.homogeneous(
        k_a=dictionary.k_a, sigma_e=0.05, sigma_b=0.3, sigma_j=3.0, w=0.1, v=1e-7,
        decay=0.1, m=m,
    )


def _posterior(rng, k_a: int) -> SpikeSlabPosterior:
    return SpikeSlabPosterior(
        mu_a=rng.normal(scale=2.0, size=k_a), s2=rng.uniform(0.01, 1.0, size=k_a),
        alpha=rng.uniform(size=k_a),
    )


class TestBackgroundRotation:
    @staticmethod
    def _rotated(dictionary: BasisDictionary, rng) -> BasisDictionary:
        q, r = np.linalg.qr(rng.normal(size=(dictionary.k_b, dictionary.k_b)))
        rotation = q * np.sign(np.diag(r))
        return BasisDictionary(b_b=dictionary.b_b @ rotation, b_a=dictionary.b_a)

    @classmethod
    def _worst_gaps(cls, dictionary: BasisDictionary, subsets, seed: int) -> dict:
        """Worst gap per compared quantity over ``subsets``, each with a
        random observation and posterior for the statistic."""
        rng = np.random.default_rng(seed)
        rotated = cls._rotated(dictionary, rng)
        worst = dict.fromkeys(("m_c", "logdet_w", "projection", "lambda_stat"), 0.0)
        for z in subsets:
            z = np.asarray(z, dtype=np.intp)
            cfg = _config(dictionary, z.size)
            geo = subset_geometry(dictionary, cfg, z)
            turned = subset_geometry(rotated, cfg, z)
            inp = DetectionInputs(
                x_z=rng.normal(size=z.size), z=z, post=_posterior(rng, dictionary.k_a)
            )
            gaps = {
                "m_c": _gap(geo.m_c, turned.m_c),
                "logdet_w": _gap(geo.logdet_w, turned.logdet_w),
                "projection": _gap(geo.basis @ geo.basis.T, turned.basis @ turned.basis.T),
                "lambda_stat": _gap(
                    lambda_stat(inp, dictionary, cfg), lambda_stat(inp, rotated, cfg)
                ),
            }
            worst = {name: max(worst[name], gaps[name]) for name in worst}
        return worst

    @pytest.mark.parametrize("m", [2, 5])
    def test_p15_subsets(self, m):
        """200 random subsets at m = 5, and at m = 2, below k_b = 3."""
        d = _p15_dictionary()
        rng = np.random.default_rng(30 + m)
        subsets = [np.sort(rng.choice(d.p, size=m, replace=False)) for _ in range(200)]
        worst = self._worst_gaps(d, subsets, seed=m)
        assert max(worst.values()) <= RTOL, worst

    @pytest.mark.parametrize("m", [2, 4])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_rank_deficient_rows(self, degenerate_dictionary, seed, m):
        """Every subset of a p = 8, k_b = 3 dictionary whose rows 0-2 span
        one direction and rows 3-4 are zero, so many subsets observe
        rank-deficient background rows and some observe none."""
        d = degenerate_dictionary(seed)
        worst = self._worst_gaps(d, itertools.combinations(range(d.p), m), seed=10 + seed)
        assert max(worst.values()) <= RTOL, worst


class TestRelabelling:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_layers_do_not_see_the_labels(self, seed):
        """20 steps of a stream with a change at step 8, on random subsets:
        at each step both labellings fit from the same posterior and moments,
        and their statistics score the same posterior, so the absorbed
        moments, the fit and the statistic are each compared on their own."""
        d = _p15_dictionary()
        cfg = _config(d, 5)
        rng = np.random.default_rng(seed)
        perm = rng.permutation(d.p)  # new variable i is old variable perm[i]
        label = np.argsort(perm)  # the new label of old variable j
        relabelled = BasisDictionary(b_b=d.b_b[perm], b_a=d.b_a[perm])
        scenario = Scenario(dictionary=d, cfg=cfg, tau=8, change=((3, 1.0),), horizon=20)
        post, stats = SpikeSlabPosterior.prior(cfg), DecayedStats.empty(cfg.k_a)
        worst = dict.fromkeys(("moments", "posterior", "lambda_stat"), 0.0)
        for x in gen_stream(scenario, seed):
            z = np.sort(rng.choice(d.p, size=cfg.m, replace=False))
            z_new = np.sort(label[z])
            x_z, x_new = x[z], x[perm][z_new]
            res = fit(x_z, z, post, stats, d, cfg)
            res_new = fit(x_new, z_new, post, stats, relabelled, cfg)
            stat = lambda_stat(DetectionInputs(x_z=x_z, z=z, post=res.post), d, cfg)
            stat_new = lambda_stat(
                DetectionInputs(x_z=x_new, z=z_new, post=res.post), relabelled, cfg
            )
            gaps = {
                "moments": max(
                    _gap(getattr(res.stats, name), getattr(res_new.stats, name))
                    for name in ("raw_M", "raw_u", "raw_q", "raw_norm", "mass")
                ),
                "posterior": max(
                    _gap(getattr(res.post, name), getattr(res_new.post, name))
                    for name in ("mu_a", "s2", "alpha")
                ),
                "lambda_stat": _gap(stat, stat_new),
            }
            worst = {name: max(worst[name], gaps[name]) for name in worst}
            post, stats = res.post, res.stats
        assert max(worst.values()) <= RTOL, worst
