"""The benchmark's workloads: their dictionaries, configurations and rounds.

A round is the fixed unit of seeded work that a run repeats: one calibrated
delay study for ``study-p15`` and ``oracle-pool-p15``, one monitored stream
for ``monitor-kron400``.  Round ``i`` of seed ``s`` draws all of its inputs
from ``SeedSequence([s, i])``, so the same seed gives the same rounds.

Every call into the program goes through a module attribute
(``engine.evaluate``, ``simgen.gen_stream``, ...), the same lookup the
program's own callers make, so the traced run can wrap those functions
without touching the program.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

import sparsewatch.bases as bases
import sparsewatch.engine as engine
import sparsewatch.inference as inference
import sparsewatch.simgen as simgen

# Model hyperparameters shared by every workload (the README's library example).
MODEL = dict(sigma_e=0.05, sigma_b=0.3, sigma_j=3.0, w=0.1, v=1e-7, decay=0.1)


def p15_dictionary() -> bases.BasisDictionary:
    """p = 15: Fourier background (k_b = 3), unit-norm cubic splines (k_a = 10)."""
    return bases.BasisDictionary(
        b_b=bases.fourier_basis(15, 3),
        b_a=bases.bspline_basis(15, 4, 14, normalize_columns=True),
    )


def kron400_dictionary() -> bases.BasisDictionary:
    """20 x 20 grid: Kronecker Fourier background (k_b = 4), unit-norm splines (k_a = 36)."""
    side = 20
    spline = bases.bspline_basis(side, 4, 10, normalize_columns=True)
    fourier = bases.fourier_basis(side, 2)
    return bases.BasisDictionary(
        b_b=bases.kron_basis(fourier, fourier), b_a=bases.kron_basis(spline, spline)
    )


def model_config(dictionary: bases.BasisDictionary, m: int) -> inference.ModelConfig:
    return inference.ModelConfig.homogeneous(k_a=dictionary.k_a, m=m, **MODEL)


def round_seeds(seed: int, index: int, n: int) -> list[int]:
    """``n`` independent integer seeds for round ``index`` of a run seeded ``seed``."""
    state = np.random.SeedSequence([seed, index]).generate_state(n, dtype=np.uint32)
    return [int(s) for s in state]


# ── Delay studies ─────────────────────────────────────────────────────────


@dataclass(frozen=True)
class StudySpec:
    """One calibrated delay study: null runs, threshold search, delay cells.

    The null runs are as short and as few as a calibration that always
    lands allows.  ``null_horizon`` = 401 is the shortest horizon
    ``engine.calibrate_threshold`` accepts for ARL0 = 200 (above twice the
    target).  At the largest candidate every null run is censored at the
    horizon, above the target; neighbouring candidates differ in one run's
    length, so the closer of the two that bracket the target is off by at
    most (null_horizon - 1) / (2 null_reps) steps.  ``null_reps`` = 21 is the
    fewest that keeps this inside ``tol_rel`` (400 / 42 = 9.5 steps, 4.8% of
    200), so no seed can make the search fail.

    ``round_s`` is the median round's time at the reference speed (see
    ``reference.py``) on the machine the README's figures come from; a run
    of ``--seconds`` s holds round(seconds / round_s) rounds.
    """

    name: str
    sampler: str
    workers: int
    dictionary: object
    round_s: float
    m: int = 5
    null_reps: int = 21
    null_horizon: int = 401
    target_arl0: float = 200.0
    tol_rel: float = 0.05
    cells: tuple = ((0.2, 100), (1.0, 25))  # (phi, replications)
    tau: int = 50
    cell_horizon: int = 400
    rerun_reps: int = 0  # replications rerun inline to check the pool

    @property
    def replications(self) -> int:
        return self.null_reps + sum(reps for _, reps in self.cells)


@dataclass
class Cell:
    phi: float
    reps: int
    seed: int
    summary: engine.RunLengthSummary
    records: list


@dataclass
class StudyRound:
    seeds: list
    trajectories: np.ndarray
    h: float
    arl0: float
    cells: list
    phase_s: dict
    wall_s: float
    steps: int
    replications: int


def run_study_round(spec: StudySpec, dictionary, cfg, seeds, workers: int) -> StudyRound:
    """The whole study once; ``seeds`` are (null runs, then one per cell)."""
    t0 = time.perf_counter()
    traj = engine.collect_h0_trajectories(
        cfg, dictionary, spec.null_reps, spec.null_horizon, seeds[0],
        workers=workers, sampler=spec.sampler,
    )
    t1 = time.perf_counter()
    h, arl0 = engine.search_threshold(traj, spec.target_arl0, spec.tol_rel)
    t2 = time.perf_counter()
    cells = []
    for (phi, reps), cell_seed in zip(spec.cells, seeds[1:]):
        summary, records = engine.evaluate(
            cfg, dictionary, h, delay_scenario(spec, dictionary, cfg, phi), reps,
            cell_seed, workers=workers, sampler=spec.sampler, return_records=True,
        )
        cells.append(Cell(phi, reps, cell_seed, summary, records))
    t3 = time.perf_counter()
    steps = traj.size + sum(
        min(rec["T"], spec.cell_horizon) for cell in cells for rec in cell.records
    )
    return StudyRound(
        seeds=list(seeds), trajectories=traj, h=h, arl0=arl0, cells=cells,
        phase_s={"collect_h0_trajectories": t1 - t0, "search_threshold": t2 - t1,
                 "evaluate": t3 - t2},
        wall_s=t3 - t0, steps=steps, replications=spec.replications,
    )


def delay_scenario(spec: StudySpec, dictionary, cfg, phi: float) -> simgen.Scenario:
    """Change of size phi at tau on one anomaly column drawn per replication."""
    return simgen.Scenario(
        dictionary=dictionary, cfg=cfg, tau=spec.tau, change=((0, phi),),
        horizon=spec.cell_horizon, random_change_basis=True,
    )


# ── Single-stream monitor ─────────────────────────────────────────────────


@dataclass(frozen=True)
class MonitorSpec:
    """Streams through engine.init / engine.step at threshold +inf.

    Each stream carries one change of size ``phi`` from step ``tau`` on, on
    one anomaly column; stream i of a run seeded s changes column
    (s + i) mod k_a, so every run covers the columns evenly.  The
    localization delay of one change varies by about four fifths of its
    mean, so a steady run average needs well over a hundred changes: streams
    are short.  ``tau`` = 50 leaves the decayed moments within 0.5% of their
    steady mass (1 - 0.9^50) before the change, and 50 post-change steps
    leave room for the slowest localization seen (34 steps in 2097 streams).
    ``round_s`` is as for ``StudySpec``.
    """

    name: str
    dictionary: object
    round_s: float
    m: int = 20
    horizon: int = 100
    tau: int = 50
    phi: float = 1.0


@dataclass
class MonitorRound:
    column: int
    stream: np.ndarray
    outcomes: list
    state: engine.EngineState
    alpha_changed: np.ndarray
    wall_s: float
    steps: int


def run_monitor_round(spec: MonitorSpec, dictionary, cfg, seed: int, index: int) -> MonitorRound:
    """Generate stream ``index`` of a run, then step a fresh engine through all of it."""
    t0 = time.perf_counter()
    seeds = round_seeds(seed, index, 2)
    column = (seed + index) % dictionary.k_a
    scenario = simgen.Scenario(
        dictionary=dictionary, cfg=cfg, tau=spec.tau,
        change=((column, spec.phi),), horizon=spec.horizon,
    )
    stream = simgen.gen_stream(scenario, seeds[0])
    state = engine.init(cfg, dictionary, h=math.inf, seed=seeds[1])
    alpha_changed = np.empty(spec.horizon)
    outcomes = []
    for t in range(spec.horizon):
        outcomes.append(engine.step(state, stream[t]))
        alpha_changed[t] = state.post.alpha[column]
    wall = time.perf_counter() - t0
    return MonitorRound(
        column=column, stream=stream, outcomes=outcomes,
        state=state, alpha_changed=alpha_changed, wall_s=wall, steps=spec.horizon,
    )


def localization_delay(spec: MonitorSpec, alpha_changed: np.ndarray) -> int:
    """Post-change steps until the changed column's inclusion probability exceeds 0.5.

    The first post-change step counts as 1; a stream that never localizes
    counts the whole post-change segment plus one.
    """
    after = np.flatnonzero(alpha_changed[spec.tau:] > 0.5)
    return int(after[0]) + 1 if after.size else spec.horizon - spec.tau + 1


# ── The three workloads ───────────────────────────────────────────────────


WORKLOADS = {
    "study-p15": StudySpec(
        name="study-p15", sampler="thompson", workers=1, dictionary=p15_dictionary,
        round_s=12.9,
    ),
    "oracle-pool-p15": StudySpec(
        name="oracle-pool-p15", sampler="oracle", workers=2,
        dictionary=p15_dictionary, round_s=16.7, rerun_reps=2,
    ),
    "monitor-kron400": MonitorSpec(
        name="monitor-kron400", dictionary=kron400_dictionary, round_s=0.265
    ),
}


def set_up(name: str):
    """Dictionary, config and a ready first engine: what a user pays before step one."""
    spec = WORKLOADS[name]
    dictionary = spec.dictionary()
    cfg = model_config(dictionary, spec.m)
    sampler = getattr(spec, "sampler", "thompson")
    state = engine.init(cfg, dictionary, h=math.inf, seed=0, sampler=sampler)
    return spec, dictionary, cfg, state
