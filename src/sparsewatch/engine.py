"""Online monitoring loop and run-length experiments.

One engine instance monitors one stream: each step it observes its planned
subset of variables, refits the posteriors, evaluates the monitoring
statistic against the threshold, and (absent an alarm) selects the next
subset.  On top of the loop sit threshold calibration to a target average
run length under the null, and replicated run-length evaluation.

Reproducibility contract: a replication's randomness derives only from
(seed, rep) through ``numpy.random.SeedSequence``, replications are reduced
in rep order, and no output depends on wall-clock time or worker count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .bases import BasisDictionary
from .detection import DetectionInputs, alarm_check, lambda_stat
from .errors import CalibrationError, DataError, DimensionError, NumericalError, StateError
from .inference import (
    DecayedStats,
    ModelConfig,
    SpikeSlabPosterior,
    fit,
)
from .sampling import (
    OracleScorer,
    SensingPlan,
    draw_anomaly_sample,
    score_variables,
    select_top_m,
    synthesize_anomaly_signal,
)
from .simgen import Scenario, gen_stream

__all__ = [
    "EngineState",
    "StepOutcome",
    "RunLengthSummary",
    "init",
    "step",
    "collect_h0_trajectories",
    "replay_run_lengths",
    "search_threshold",
    "calibrate_threshold",
    "evaluate",
]

SAMPLERS = ("thompson", "oracle")


# ── State ─────────────────────────────────────────────────────────────────


@dataclass
class EngineState:
    """Mutable state of one monitored stream."""

    cfg: ModelConfig
    dictionary: BasisDictionary
    h: float
    rng: np.random.Generator
    post: SpikeSlabPosterior
    stats: DecayedStats
    plan: SensingPlan
    sampler: str = "thompson"
    step: int = 0
    alarmed: bool = False
    scorer: OracleScorer | None = field(default=None, repr=False)


@dataclass(frozen=True)
class StepOutcome:
    """Result of processing one observation.

    ``n_iters`` is the number of VB sweeps the step's fit ran, in
    [1, ``max_iters``] of ``inference.fit``; ``converged`` says whether the
    last one moved the posterior by less than its ``tol``.
    """

    step: int
    stat: float
    alarmed: bool
    z: np.ndarray
    next_plan: SensingPlan | None
    converged: bool
    n_iters: int

    @classmethod
    def _trusted(cls, step, stat, alarmed, z, next_plan, converged, n_iters) -> "StepOutcome":
        """The same value as ``StepOutcome(...)``, built without the frozen
        dataclass's per-field ``__init__``; for ``engine.step``."""
        outcome = object.__new__(cls)
        outcome.__dict__.update(
            step=step, stat=stat, alarmed=alarmed, z=z, next_plan=next_plan,
            converged=converged, n_iters=n_iters,
        )
        return outcome


@dataclass(frozen=True)
class RunLengthSummary:
    """Replication summary of one evaluate call.

    Null scenarios (tau None) report ``arl0``; change scenarios report the
    average detection delay over replications that alarmed after the change.
    Undefined fields are NaN.  ``n_censored`` counts replications that never
    alarmed within the horizon; ``n_false_alarm`` counts alarms at or before
    the change point; ``n_nonconverged`` counts the steps, over all
    replications, whose VB fit ended without converging (``fit``'s
    ``max_iters`` sweeps, or a NaN change).  ``sweep_histogram[k - 1]``
    counts the steps, over all replications, whose fit ran k sweeps, up to
    the largest count any step ran.
    """

    arl0: float
    arl0_stderr: float
    add: float
    add_stderr: float
    std_dd: float
    n_reps: int
    n_censored: int
    n_false_alarm: int
    n_nonconverged: int
    sweep_histogram: tuple[int, ...] = ()


# ── Monitoring loop ───────────────────────────────────────────────────────


def init(
    cfg: ModelConfig,
    dictionary: BasisDictionary,
    h: float,
    seed,
    sampler: str = "thompson",
) -> EngineState:
    """Fresh engine at its priors with a uniformly random first subset.

    ``seed`` may be anything ``numpy.random.default_rng`` accepts, including
    an existing Generator.  ``sampler`` picks the subset strategy for later
    steps: ``"thompson"`` (posterior sampling) or ``"oracle"`` (exhaustive).
    """
    if sampler not in SAMPLERS:
        raise ValueError(f"sampler must be one of {SAMPLERS}")
    if math.isnan(h):
        raise ValueError("threshold must not be NaN")
    if cfg.k_a != dictionary.k_a:
        raise DimensionError("config and dictionary disagree on k_a")
    if cfg.m > dictionary.p:
        raise DimensionError("sensing budget exceeds the number of variables")
    rng = np.random.default_rng(seed)
    z0 = rng.choice(dictionary.p, size=cfg.m, replace=False)
    scorer = OracleScorer.shared(dictionary, cfg.m) if sampler == "oracle" else None
    return EngineState(
        cfg=cfg,
        dictionary=dictionary,
        h=float(h),
        rng=rng,
        post=SpikeSlabPosterior.prior(cfg),
        stats=DecayedStats.empty(cfg.k_a),
        plan=SensingPlan(z=z0),
        sampler=sampler,
        scorer=scorer,
    )


def _extract_observation(state: EngineState, observation) -> np.ndarray:
    """The planned values of one observation as a float64 vector, checked
    once: each value is checked only when their sum of squares is not
    finite, which a finite observation can reach only by overflowing."""
    z = state.plan.z
    if callable(observation):
        x_z = np.asarray(observation(z), dtype=np.float64).ravel()
    else:
        x = np.asarray(observation, dtype=np.float64).ravel()
        if x.size == state.dictionary.p:
            x_z = x[z]
        elif x.size == z.size:
            x_z = x
        else:
            raise DataError(
                f"observation has {x.size} values; expected the full {state.dictionary.p} "
                f"or the planned {z.size}"
            )
    if x_z.size != z.size:
        raise DataError("observation does not match the planned subset size")
    if not math.isfinite(x_z.dot(x_z)):
        bad = np.flatnonzero(~np.isfinite(x_z))
        if bad.size:
            raise DataError(
                f"non-finite value at variable {int(z[bad[0]])} in step {state.step + 1}"
            )
    return x_z


def step(state: EngineState, observation) -> StepOutcome:
    """Process one observation: refit, test, and plan the next subset.

    ``observation`` is a full length-p vector, a length-m vector matching
    the current plan, or a callable mapping the planned indices to values.
    An alarmed engine is absorbing and refuses further steps.  A finite
    observation whose statistic is not finite (it overflowed the fit)
    raises NumericalError and leaves the engine as it was.

    The observation is converted and checked once, here, and the statistic
    takes it through the trusted ``DetectionInputs._trusted``; the plan's
    subset was checked when the plan was built.  The outcome is built by
    the trusted ``StepOutcome._trusted``.  Each layer is called
    through this module's name for it.
    """
    if state.alarmed:
        raise StateError("engine has alarmed; start a new engine to continue")
    z = state.plan.z
    x_z = _extract_observation(state, observation)

    res = fit(x_z, z, state.post, state.stats, state.dictionary, state.cfg)
    stat = lambda_stat(DetectionInputs._trusted(x_z, z, res.post), state.dictionary, state.cfg)
    if not math.isfinite(stat):
        raise NumericalError(
            f"monitoring statistic is {stat} at step {state.step + 1} "
            f"(observed variables {z.tolist()}, fit ran {res.n_iters} sweeps)"
        )
    state.post, state.stats = res.post, res.stats
    state.step += 1
    plan = None
    if alarm_check(stat, state.h):
        state.alarmed = True
    else:
        theta_hat = draw_anomaly_sample(state.post, state.cfg, state.rng)
        x1_hat = synthesize_anomaly_signal(theta_hat, state.dictionary, state.cfg, state.rng)
        if state.sampler == "oracle":
            plan = state.scorer.select(x1_hat, state.post, state.rng)
        else:
            scores = score_variables(x1_hat, state.post, state.dictionary)
            plan = select_top_m(scores, state.cfg.m, state.rng)
        state.plan = plan
    return StepOutcome._trusted(
        state.step, stat, state.alarmed, z, plan, res.converged, res.n_iters
    )


# ── Replications ──────────────────────────────────────────────────────────


def _rep_rngs(seed: int, rep: int):
    """Independent generators for a replication's stream and engine."""
    stream_ss, engine_ss = np.random.SeedSequence(entropy=[seed, rep]).spawn(2)
    return stream_ss, engine_ss


def _run_one(args):
    """One replication, stopped at its alarm or the horizon.

    Returns (statistics of the steps run, alarmed, non-converged fits, the
    steps' sweep counts).  Top-level so process pools can pickle it.
    """
    (scenario, h, seed, rep, sampler) = args
    stream_ss, engine_ss = _rep_rngs(seed, rep)
    stream = gen_stream(scenario, stream_ss)
    state = init(scenario.cfg, scenario.dictionary, h=h, seed=engine_ss, sampler=sampler)
    stats = np.empty(scenario.horizon)
    sweeps = np.empty(scenario.horizon, dtype=np.intp)
    nonconverged = 0
    for t in range(scenario.horizon):
        outcome = step(state, stream[t])
        stats[t] = outcome.stat
        sweeps[t] = outcome.n_iters
        nonconverged += not outcome.converged
        if outcome.alarmed:
            return stats[: t + 1], True, nonconverged, sweeps[: t + 1]
    return stats, False, nonconverged, sweeps


def _map_reps(scenario: Scenario, h: float, seed: int, n_reps: int, workers: int, sampler: str):
    """Run replications 0..n_reps-1, inline or pooled, in rep order."""
    worklist = [(scenario, h, seed, rep, sampler) for rep in range(n_reps)]
    workers = min(workers, n_reps)  # a pool starts all its processes at once
    if workers <= 1:
        return [_run_one(args) for args in worklist]
    # imported here: a process that never pools never pays the import
    from concurrent.futures import ProcessPoolExecutor

    chunk = max(1, len(worklist) // (workers * 4))
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(_run_one, worklist, chunksize=chunk))


def _same_config(a: ModelConfig, b: ModelConfig) -> bool:
    return (
        a is b
        or (
            a.sigma_e == b.sigma_e
            and a.sigma_b == b.sigma_b
            and a.v == b.v
            and a.decay == b.decay
            and a.m == b.m
            and np.array_equal(a.sigma_j, b.sigma_j)
            and np.array_equal(a.w, b.w)
        )
    )


def collect_h0_trajectories(
    cfg: ModelConfig,
    dictionary: BasisDictionary,
    n_reps: int,
    horizon: int,
    seed: int,
    workers: int = 1,
    sampler: str = "thompson",
) -> np.ndarray:
    """Per-step statistic trajectories of null replications, shape (n_reps, horizon).

    The adaptive sensing loop runs exactly as in monitoring (threshold held
    at +inf), so a threshold can later be chosen by replaying these
    trajectories against candidate values.
    """
    scenario = Scenario(dictionary=dictionary, cfg=cfg, tau=None, change=(), horizon=horizon)
    results = _map_reps(scenario, math.inf, seed, n_reps, workers, sampler)
    return np.vstack([stats for stats, *_ in results])


def replay_run_lengths(trajectories: np.ndarray, h: float) -> np.ndarray:
    """Run length of each stored trajectory at threshold h.

    Alarm at the first step whose statistic strictly exceeds h; trajectories
    that never alarm count as the horizon, matching how censored
    replications enter the average run length.
    """
    trajectories = np.atleast_2d(np.asarray(trajectories, dtype=np.float64))
    horizon = trajectories.shape[1]
    exceeded = trajectories > h
    any_alarm = exceeded.any(axis=1)
    first = exceeded.argmax(axis=1) + 1
    return np.where(any_alarm, first, horizon)


def search_threshold(
    trajectories: np.ndarray, target_arl0: float, tol_rel: float
) -> tuple[float, float]:
    """Threshold whose replayed average run length meets the target.

    Binary-searches the sorted unique statistic values (the only points
    where the replayed ARL can change) and returns (h, achieved ARL).
    Raises CalibrationError when no candidate lands within ``tol_rel``
    relative error of the target.
    """
    if not tol_rel > 0:
        raise ValueError("tol_rel must be positive")
    trajectories = np.atleast_2d(np.asarray(trajectories, dtype=np.float64))
    horizon = trajectories.shape[1]
    if not 1.0 <= target_arl0 <= horizon:
        raise CalibrationError(
            f"target ARL {target_arl0} outside the feasible [1, {horizon}] range"
        )

    values = np.unique(trajectories)
    # The replayed ARL is non-decreasing in h; find the first candidate
    # meeting the target, then compare with its predecessor.
    lo, hi = 0, values.size - 1
    arl_hi = float(replay_run_lengths(trajectories, values[hi]).mean())
    if arl_hi < target_arl0:
        raise CalibrationError(
            f"target ARL {target_arl0} unreachable; even the largest observed "
            f"statistic achieves only {arl_hi:.2f}"
        )
    while lo < hi:
        mid = (lo + hi) // 2
        if float(replay_run_lengths(trajectories, values[mid]).mean()) >= target_arl0:
            hi = mid
        else:
            lo = mid + 1
    candidates = [values[lo]] if lo == 0 else [values[lo - 1], values[lo]]
    best_h, best_arl, best_err = None, None, math.inf
    for h in candidates:
        arl = float(replay_run_lengths(trajectories, h).mean())
        err = abs(arl - target_arl0) / target_arl0
        if err < best_err:
            best_h, best_arl, best_err = float(h), arl, err
    if best_err > tol_rel:
        raise CalibrationError(
            f"no threshold lands within {tol_rel:.3g} relative error of "
            f"ARL {target_arl0}; closest achieves {best_arl:.2f} "
            f"(error {best_err:.3g}); increase n_reps or horizon"
        )
    return best_h, best_arl


def calibrate_threshold(
    cfg: ModelConfig,
    dictionary: BasisDictionary,
    target_arl0: float,
    n_reps: int,
    horizon: int,
    tol_rel: float,
    seed: int,
    workers: int = 1,
    sampler: str = "thompson",
) -> tuple[float, float]:
    """Threshold achieving the target null average run length, and its ARL.

    Simulates ``n_reps`` null replications with adaptive sensing active and
    the threshold held at +inf, then replays their statistic trajectories
    against candidate thresholds (``search_threshold``), returning its
    (h, achieved ARL).  The horizon must exceed twice the target so
    censoring cannot dominate the average.
    """
    if n_reps < 1:
        raise ValueError("n_reps must be positive")
    if not tol_rel > 0:
        raise ValueError("tol_rel must be positive")
    if not target_arl0 < horizon / 2:
        raise CalibrationError(
            f"calibration horizon {horizon} must exceed twice the target ARL "
            f"{target_arl0:g} to keep censoring negligible"
        )
    traj = collect_h0_trajectories(
        cfg, dictionary, n_reps, horizon, seed, workers=workers, sampler=sampler
    )
    return search_threshold(traj, target_arl0, tol_rel)


def _mean_sd_stderr(values: np.ndarray) -> tuple[float, float, float]:
    """Mean, sample standard deviation and standard error; NaN where undefined."""
    if not values.size:
        return math.nan, math.nan, math.nan
    if values.size == 1:
        return float(values.mean()), math.nan, math.nan
    sd = float(values.std(ddof=1))
    return float(values.mean()), sd, sd / math.sqrt(values.size)


def evaluate(
    cfg: ModelConfig,
    dictionary: BasisDictionary,
    h: float,
    scenario: Scenario,
    n_reps: int,
    seed: int,
    workers: int = 1,
    sampler: str = "thompson",
    return_records: bool = False,
):
    """Run-length experiment: monitor ``n_reps`` independent streams at threshold h.

    Returns a RunLengthSummary; with ``return_records=True`` also the
    per-replication records (rep, T, false_alarm, delay) in rep order, where
    T is the alarm step (horizon+1 when censored), false_alarm flags alarms
    at or before the change point, and delay is T − tau for true detections.
    """
    if n_reps < 1:
        raise ValueError("n_reps must be positive")
    # The scenario carries the generating model; the monitor must match.
    if not _same_config(scenario.cfg, cfg):
        raise DimensionError("scenario and evaluate disagree on the model config")
    if dictionary.content_key != scenario.dictionary.content_key:
        raise DimensionError("scenario and evaluate disagree on the basis dictionary")
    results = _map_reps(scenario, h, seed, n_reps, workers, sampler)

    tau = scenario.tau
    records = []
    for rep, (stats, alarmed, *_) in enumerate(results):
        t_alarm = stats.size if alarmed else scenario.horizon + 1
        false_alarm = bool(alarmed and tau is not None and t_alarm <= tau)
        delay = t_alarm - tau if alarmed and not false_alarm and tau is not None else None
        records.append(
            {"rep": rep, "T": t_alarm, "false_alarm": false_alarm, "delay": delay}
        )

    arl0 = arl0_stderr = add = add_stderr = std_dd = math.nan
    if tau is None:
        lengths = np.array(
            [min(rec["T"], scenario.horizon) for rec in records], dtype=np.float64
        )
        arl0, _, arl0_stderr = _mean_sd_stderr(lengths)
    else:
        delays = np.array(
            [rec["delay"] for rec in records if rec["delay"] is not None],
            dtype=np.float64,
        )
        add, std_dd, add_stderr = _mean_sd_stderr(delays)

    summary = RunLengthSummary(
        arl0=arl0,
        arl0_stderr=arl0_stderr,
        add=add,
        add_stderr=add_stderr,
        std_dd=std_dd,
        n_reps=n_reps,
        n_censored=sum(1 for _, alarmed, *_ in results if not alarmed),
        n_false_alarm=sum(1 for rec in records if rec["false_alarm"]),
        n_nonconverged=sum(r[2] for r in results),
        sweep_histogram=tuple(
            int(n) for n in np.bincount(np.concatenate([r[3] for r in results]))[1:]
        ),
    )
    if return_records:
        return summary, records
    return summary
