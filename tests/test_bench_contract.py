"""The benchmark's tracer wraps names that must exist in the package.

``bench/tracing.py`` replaces each (owner, attribute) it lists with a timed
wrapper and restores it afterwards.  A name deleted or renamed in
``sparsewatch`` would break a traced benchmark run with a KeyError that no
other test reaches, so the first test checks the list against the package.
The tracer also sees a layer only when the program calls it through the
wrapped name, so the second test checks that each wrapped layer of a step
runs once per step.
"""

from __future__ import annotations

import math
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

import sparsewatch.engine as engine
import sparsewatch.sampling as sampling
from sparsewatch import BasisDictionary, ModelConfig, bspline_basis, fourier_basis

BENCH = Path(__file__).resolve().parents[1] / "bench"


def _tracing():
    sys.path.insert(0, str(BENCH))
    try:
        import tracing
    finally:
        sys.path.remove(str(BENCH))
    return tracing


def test_every_traced_name_is_defined_on_its_owner():
    tracing = _tracing()
    targets = tracing._targets()
    assert targets
    missing = [
        f"{owner.__name__}.{attr}" for owner, attr, _ in targets if attr not in owner.__dict__
    ]
    assert not missing, missing


@pytest.mark.parametrize("sampler", ["thompson", "oracle"])
def test_every_traced_step_layer_runs_once_per_step(sampler, monkeypatch):
    """Each layer of a step that the tracer wraps is entered through the name
    it wraps, once per step that does not alarm, so no traced per-layer
    figure can read 0 because a step went round its wrapper."""
    tracing = _tracing()
    calls = Counter()
    for owner, attr, name in tracing._targets():
        if owner is engine or owner is sampling.OracleScorer or name == "inference.absorb_sample":
            fn = owner.__dict__[attr]

            def counted(*args, _fn=fn, _name=name, **kwargs):
                calls[_name] += 1
                return _fn(*args, **kwargs)

            monkeypatch.setattr(owner, attr, counted)

    d = BasisDictionary(b_b=fourier_basis(15, 3), b_a=bspline_basis(15, 4, 14))
    cfg = ModelConfig.homogeneous(
        k_a=d.k_a, sigma_e=0.05, sigma_b=0.3, sigma_j=3.0, w=0.1, v=1e-7, decay=0.1, m=5
    )
    state = engine.init(cfg, d, h=math.inf, seed=3, sampler=sampler)
    calls.clear()
    n_steps = 6
    x = np.random.default_rng(4).normal(scale=0.05, size=(n_steps, d.p))
    for t in range(n_steps):
        engine.step(state, x[t])

    sensing = (
        ["sampling.OracleScorer.select"]
        if sampler == "oracle"
        else ["sampling.score_variables", "sampling.select_top_m"]
    )
    layers = [
        "engine.step", "inference.fit", "inference.absorb_sample", "detection.lambda_stat",
        "sampling.draw_anomaly_sample", "sampling.synthesize_anomaly_signal", *sensing,
    ]
    assert set(layers) <= {name for _, _, name in tracing._targets()}
    assert dict(calls) == {name: n_steps for name in layers}
