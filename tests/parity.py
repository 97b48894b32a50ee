"""Output digests for checking that a change leaves every output bit alone.

Run it on two checkouts and compare what they print:

    PYTHONPATH=src python tests/parity.py

or let it run both and compare them, this checkout's package in this
process and the other's (``DIR/src``) in a subprocess; it prints both
sides' lines and exits with 1 if any line differs:

    PYTHONPATH=src python tests/parity.py --against DIR

It prints one SHA-256 per stage, each followed by its decisions line,
then one over all stages' full digests:

- ``study-p15``: null trajectories (21 x 401, seed 5), the threshold search
  at ARL0 200, and ``evaluate`` records and summaries at phi = 0.2 and 1.0
  (30 replications, horizon 400, seed 6), on the p = 15 model, for both
  samplers at ``workers`` 1 and 2;
- ``monitor-kron400``: 40 streams (seed 3) of 100 steps on the 20 x 20 grid
  model (p = 400, k_a = 36, m = 20), with every step's statistic, subset,
  convergence, sweep count and next plan, and the posterior and moments
  after every step;
- ``kron400-null``: null trajectories (4 x 60, seed 4) on the same model,
  where the budget refuses the geometry table, at ``workers`` 1 and 2;
- ``exact-routes``: ``update_background``, ``log_pbf_exact``,
  ``marginal_h0``, ``marginal_h1_exact`` and ``lambda_stat`` on random
  k_b = 2 and 3 problems;
- ``tie-path``: null trajectories (6 x 40, seed 8) at ``workers`` 1 and 2
  on a p = 15 model whose anomaly basis is zero on 9 rows (m = 5), so
  those variables score exactly 0 and most steps' Thompson cut ties;
- ``table1``: the three files ``sparsewatch table1`` writes for a small
  Thompson and oracle grid on a p = 6 model, at ``--workers`` 1 and 2.

A stage's decisions line hashes only what the run decided: run lengths,
alarm steps, subsets, sweep counts and convergence flags.  A change that
moves float bits and no decision changes the stage's digest and leaves its
decisions line alone.

Digests depend on numpy and its BLAS, so compare runs on one machine and
one environment.  Pytest does not collect this file.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

import sparsewatch
from sparsewatch import bases, cli, engine, simgen
from sparsewatch.detection import (
    DetectionInputs,
    lambda_stat,
    log_pbf_exact,
    marginal_h0,
    marginal_h1_exact,
)
from sparsewatch.inference import (
    DecayedStats,
    ModelConfig,
    SpikeSlabPosterior,
    fit,
    update_background,
)

MODEL = dict(sigma_e=0.05, sigma_b=0.3, sigma_j=3.0, w=0.1, v=1e-7, decay=0.1)


class Digest:
    """SHA-256 over arrays (dtype, shape and bytes) and reprs of anything else."""

    def __init__(self):
        self.h = hashlib.sha256()

    def add(self, *values) -> None:
        for value in values:
            if isinstance(value, np.ndarray):
                self.h.update(f"{value.dtype}{value.shape}".encode())
                self.h.update(np.ascontiguousarray(value).tobytes())
            else:
                self.h.update(repr(value).encode())

    def add_post(self, post: SpikeSlabPosterior) -> None:
        self.add(post.mu_a, post.s2, post.alpha, post.mu_tilde, post.spread)

    def add_stats(self, stats: DecayedStats) -> None:
        self.add(stats.raw_M, stats.raw_u, stats.raw_q, stats.raw_norm, stats.mass, stats.n)


def p15_dictionary() -> bases.BasisDictionary:
    return bases.BasisDictionary(
        b_b=bases.fourier_basis(15, 3),
        b_a=bases.bspline_basis(15, 4, 14, normalize_columns=True),
    )


def kron400_dictionary() -> bases.BasisDictionary:
    spline = bases.bspline_basis(20, 4, 10, normalize_columns=True)
    fourier = bases.fourier_basis(20, 2)
    return bases.BasisDictionary(
        b_b=bases.kron_basis(fourier, fourier), b_a=bases.kron_basis(spline, spline)
    )


def study_p15() -> tuple[str, str]:
    d = p15_dictionary()
    cfg = ModelConfig.homogeneous(k_a=d.k_a, m=5, **MODEL)
    digest, decisions = Digest(), Digest()
    for sampler in ("thompson", "oracle"):
        for workers in (1, 2):
            traj = engine.collect_h0_trajectories(
                cfg, d, 21, 401, 5, workers=workers, sampler=sampler
            )
            h, arl0 = engine.search_threshold(traj, 200.0, 0.05)
            digest.add(sampler, workers, traj, h, arl0)
            decisions.add(sampler, workers, engine.replay_run_lengths(traj, h))
            for phi in (0.2, 1.0):
                scenario = simgen.Scenario(
                    dictionary=d, cfg=cfg, tau=50, change=((0, phi),), horizon=400,
                    random_change_basis=True,
                )
                summary, records = engine.evaluate(
                    cfg, d, h, scenario, 30, 6, workers=workers, sampler=sampler,
                    return_records=True,
                )
                digest.add(phi, summary, records)
                decisions.add(
                    phi, records, summary.n_censored, summary.n_false_alarm,
                    summary.n_nonconverged, summary.sweep_histogram,
                )
    return digest.h.hexdigest(), decisions.h.hexdigest()


def monitor_kron400() -> tuple[str, str]:
    d = kron400_dictionary()
    cfg = ModelConfig.homogeneous(k_a=d.k_a, m=20, **MODEL)
    digest, decisions = Digest(), Digest()
    seeds = np.random.SeedSequence(3).generate_state(80).tolist()
    for i in range(40):
        column = i % d.k_a
        scenario = simgen.Scenario(
            dictionary=d, cfg=cfg, tau=50, change=((column, 1.0),), horizon=100
        )
        stream = simgen.gen_stream(scenario, seeds[2 * i])
        state = engine.init(cfg, d, h=math.inf, seed=seeds[2 * i + 1])
        for x in stream:
            out = engine.step(state, x)
            digest.add(out.step, out.stat, out.alarmed, out.z, out.converged, out.n_iters)
            digest.add(out.next_plan.z, out.next_plan.scores)
            digest.add_post(state.post)
            digest.add_stats(state.stats)
            decisions.add(out.alarmed, out.z, out.converged, out.n_iters, out.next_plan.z)
    return digest.h.hexdigest(), decisions.h.hexdigest()


def kron400_null() -> tuple[str, str]:
    d = kron400_dictionary()
    cfg = ModelConfig.homogeneous(k_a=d.k_a, m=20, **MODEL)
    digest, decisions = Digest(), Digest()
    for workers in (1, 2):
        traj = engine.collect_h0_trajectories(cfg, d, 4, 60, 4, workers=workers)
        digest.add(workers, traj)
        decisions.add(workers, engine.replay_run_lengths(traj, float(np.median(traj))))
    return digest.h.hexdigest(), decisions.h.hexdigest()


def exact_routes() -> tuple[str, str]:
    digest, decisions = Digest(), Digest()
    rng = np.random.default_rng(11)
    for k_b in (2, 3):
        for k_a in (2, 4, 6):
            p, m = 12, 7
            d = bases.BasisDictionary(
                b_b=rng.normal(size=(p, k_b)), b_a=rng.normal(size=(p, k_a))
            )
            cfg = ModelConfig.homogeneous(
                k_a=k_a, sigma_e=0.3, sigma_b=0.8, sigma_j=1.5, w=0.2, v=1e-4,
                decay=0.1, m=m,
            )
            post, stats = SpikeSlabPosterior.prior(cfg), DecayedStats.empty(k_a)
            for _ in range(6):
                z = np.sort(rng.choice(p, size=m, replace=False))
                x_z = rng.normal(size=m)
                res = fit(x_z, z, post, stats, d, cfg)
                post, stats = res.post, res.stats
                bg = update_background(x_z, z, post, d, cfg)
                inp = DetectionInputs(x_z=x_z, z=z, post=post, bg=bg)
                digest.add(res.converged, res.n_iters, bg.theta_n, bg.cov_b)
                decisions.add(z, res.converged, res.n_iters)
                digest.add(
                    log_pbf_exact(inp, d, cfg), marginal_h0(inp, d, cfg),
                    marginal_h1_exact(inp, d, cfg), lambda_stat(inp, d, cfg),
                )
    return digest.h.hexdigest(), decisions.h.hexdigest()


def tie_path() -> tuple[str, str]:
    b_a = np.zeros((15, 6))
    b_a[:6] = np.eye(6)
    d = bases.BasisDictionary(b_b=bases.fourier_basis(15, 3), b_a=b_a)
    cfg = ModelConfig.homogeneous(k_a=d.k_a, m=5, **MODEL)
    digest, decisions = Digest(), Digest()
    for workers in (1, 2):
        traj = engine.collect_h0_trajectories(cfg, d, 6, 40, 8, workers=workers)
        digest.add(workers, traj)
        decisions.add(workers, engine.replay_run_lengths(traj, float(np.median(traj))))
    return digest.h.hexdigest(), decisions.h.hexdigest()


TABLE1_SCENARIO = {
    "p": 6, "m": 3, "horizon": 60, "tau": 5, "change": [[0, 1.0]], "arl0_target": 12.0,
    "basis": {
        "background": {"type": "fourier", "k": 2},
        "anomaly": {"type": "bspline", "order": 2, "n_knots": 6, "normalize_columns": False},
    },
    "model": {"sigma_e": 0.1, "sigma_b": 0.5, "sigma_j": 2.0, "w": 0.2, "v": 1e-6, "decay": 0.1},
}


def table1() -> tuple[str, str]:
    """Run in a temporary directory with relative paths, which the files'
    manifests record; the decisions line leaves out the thresholds."""
    digest, decisions = Digest(), Digest()
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            Path("scenario.json").write_text(json.dumps(TABLE1_SCENARIO))
            for workers in ("1", "2"):
                with contextlib.redirect_stdout(io.StringIO()):
                    code = cli.main([
                        "table1", "--scenario", "scenario.json", "--out", "out" + workers,
                        "--phis", "2.0,3.0", "--ms", "2,3", "--samplers", "thompson,oracle",
                        "--calib-reps", "15", "--reps", "6", "--tol-rel", "0.3",
                        "--workers", workers,
                    ])
                if code:
                    raise RuntimeError(f"table1 exited with {code}")
                files = [Path("out" + workers, name).read_text()
                         for name in ("table1.csv", "sweep.csv", "thresholds.json")]
                digest.add(workers, *files)
                sweep = [row.split(",") for row in files[1].splitlines()[1:]]
                decisions.add(workers, files[0].splitlines()[1:],
                              [row[:3] + row[4:] for row in sweep])
        finally:
            os.chdir(cwd)
    return digest.h.hexdigest(), decisions.h.hexdigest()


def stage_lines():
    """Each stage's digest and decisions lines as it finishes, then the
    digest over all stages."""
    overall = hashlib.sha256()
    for name, stage in (
        ("study-p15", study_p15), ("monitor-kron400", monitor_kron400),
        ("kron400-null", kron400_null), ("exact-routes", exact_routes),
        ("tie-path", tie_path), ("table1", table1),
    ):
        hexdigest, decided = stage()
        overall.update(hexdigest.encode())
        yield f"{name:16s} {hexdigest}"
        yield f"{'  decisions':16s} {decided}"
    yield f"{'all':16s} {overall.hexdigest()}"


def compare(against: str) -> int:
    """Run the stages here and, in a subprocess, on ``against``/src; print
    both sides' lines and return 1 if any line differs, else 0."""
    env = dict(os.environ, PYTHONPATH=str(Path(against, "src")))
    other = subprocess.Popen(
        [sys.executable, __file__], env=env, stdout=subprocess.PIPE, text=True
    )
    ours = list(stage_lines())
    theirs = other.communicate()[0].splitlines()
    if other.returncode:
        print(f"the stages failed under {against}/src (exit {other.returncode})")
        return 1
    for title, lines in ((Path(sparsewatch.__file__).parents[1], ours), (Path(against, "src"), theirs)):
        print(f"== {title}")
        print("\n".join(lines))
    names = [line.split()[0] for line in ours]
    labels = [f"{names[i - 1]} decisions" if n == "decisions" else n for i, n in enumerate(names)]
    differing = [label for label, a, b in zip(labels, ours, theirs) if a != b]
    if differing or len(ours) != len(theirs):
        print(f"lines differ: {', '.join(differing) or 'line count'}")
        return 1
    print("every line is equal")
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description="Print output digests of six stages.")
    parser.add_argument(
        "--against", metavar="DIR", help="also run the stages on the checkout DIR and compare"
    )
    args = parser.parse_args()
    if args.against is not None:
        return compare(args.against)
    for line in stage_lines():
        print(line, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
