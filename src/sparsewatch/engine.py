"""Online monitoring loop and run-length experiments.

One engine instance monitors one stream: each step it observes its planned
subset of variables, refits the posteriors, evaluates the monitoring
statistic against the threshold, and (absent an alarm) selects the next
subset.  On top of the loop sit threshold calibration to a target average
run length under the null, replicated run-length evaluation, and ``study``,
the calibrated delay study that runs one calibration and then the delay
cells at its threshold.

Reproducibility contract: a replication's randomness derives only from
(seed, rep) through ``numpy.random.SeedSequence``, replications are reduced
in rep order, and no output depends on wall-clock time or worker count.

Replications at threshold +inf, the null runs a calibration collects, run
in lockstep: a batch advances one time step at a time through each layer's
batch form (``inference._FitStack``, ``detection._stacked_lambda_stat``,
``sampling._stacked_subsets``), whose rows are bitwise the scalar layer's,
so each replication's results are those of ``step`` run on it alone.  A
batch that meets what ``step`` would raise on reruns through ``step``,
which raises it.  Other replications, which stop at their alarm, run one
``step`` at a time.  Each batch first builds, in its process, the geometry
table its replications read; ``init`` and ``step`` build none.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .bases import BasisDictionary
from .detection import DetectionInputs, _stacked_lambda_stat, alarm_check, lambda_stat
from .errors import (
    CalibrationError,
    DataError,
    DimensionError,
    NumericalError,
    SparsewatchError,
    StateError,
)
from . import inference
from .geometry import _stacked_geometry, build_geometry_table, subset_indices
from .inference import (
    DecayedStats,
    ModelConfig,
    SpikeSlabPosterior,
    _FitStack,
    fit,
)
from .sampling import (
    OracleScorer,
    SensingPlan,
    _stacked_subsets,
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
    "study",
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
        plan=SensingPlan(np.sort(z0)),
        sampler=sampler,
        scorer=scorer,
    )


def _extract_observation(state: EngineState, observation) -> np.ndarray:
    """The planned values of one observation as a float64 vector, checked
    once: each value is checked only when their sum of squares is not
    finite, which a finite observation can reach only by overflowing.  The
    plan goes through ``subset_indices`` first, so a non-integer plan is
    refused with DimensionError whatever form the observation takes."""
    z = subset_indices(state.plan.z)
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
    raises NumericalError and leaves the engine as it was.  The next subset
    is chosen before the step commits its posterior, moments and count, so
    a sampler that raises (the oracle's NumericalError for a non-finite
    subset score) leaves them and the plan as they were; only the
    Generator has advanced.

    The observation is converted and checked once, here, and the statistic
    takes it through the trusted ``DetectionInputs._trusted``.  The plan's
    subset is checked by the layers that read it, so a plan set by hand is
    refused before any state changes: an index out of range raises
    IndexError, a repeated index or other than m indices DimensionError.
    Each layer is called through this module's name for it.
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
    plan = None
    alarmed = alarm_check(stat, state.h)
    if not alarmed:  # sensed before the step commits, so a sampler's error leaves it undone
        theta_hat = draw_anomaly_sample(res.post, state.cfg, state.rng)
        x1_hat = synthesize_anomaly_signal(theta_hat, state.dictionary, state.cfg, state.rng)
        if state.sampler == "oracle":
            plan = state.scorer.select(x1_hat, res.post, state.rng)
        else:
            scores = score_variables(x1_hat, res.post, state.dictionary)
            plan = select_top_m(scores, state.cfg.m, state.rng)
        state.plan = plan
    state.post, state.stats = res.post, res.stats
    state.step += 1
    state.alarmed = alarmed
    return StepOutcome(state.step, stat, alarmed, z, plan, res.converged, res.n_iters)


# ── Replications ──────────────────────────────────────────────────────────


def _rep_rngs(seed: int, rep: int):
    """Independent seed sequences for a replication's stream and engine."""
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


def _build_shared(scenario: Scenario, sampler: str) -> None:
    """Build in this process what every replication of the scenario reads:
    the geometry table of its combination, the oracle's scorer and the
    sweep kernel for its k_a.  Each is kept per process and keyed on
    content, so a replication finds it built."""
    cfg, dictionary = scenario.cfg, scenario.dictionary
    build_geometry_table(dictionary, cfg.sigma_e2, cfg.sigma_b2, cfg.m)
    if sampler == "oracle":
        OracleScorer.shared(dictionary, cfg.m)
    inference._kernel(cfg.k_a)


class _Fallback(Exception):
    """A lockstep batch met what only the per-replication loop reports."""


def _lockstep(scenario: Scenario, seed: int, reps: range, sampler: str):
    """Replications ``reps`` at threshold +inf, one time step for the whole
    batch at a time, each from ``init`` and ``gen_stream`` with its
    ``_rep_rngs`` seeds and each result bitwise ``_run_one``'s.  A step is
    one ``_stacked_geometry`` call and one call of each layer's batch form.
    Raises ``_Fallback`` for a non-finite value in a stream (the step raises
    only if it is observed) or statistic; a layer's error propagates.
    """
    cfg, d, horizon, n = scenario.cfg, scenario.dictionary, scenario.horizon, len(reps)
    streams = np.empty((horizon, n, d.p))
    states = []
    for i, rep in enumerate(reps):
        stream_ss, engine_ss = _rep_rngs(seed, rep)
        streams[:, i] = gen_stream(scenario, stream_ss)
        states.append(init(cfg, d, h=math.inf, seed=engine_ss, sampler=sampler))
    if not np.isfinite(streams).all():
        raise _Fallback
    rngs, scorer = [state.rng for state in states], states[0].scorer
    z = np.array([state.plan.z for state in states])
    fits = _FitStack([state.post for state in states], cfg)
    stats = np.empty((n, horizon))
    sweeps = np.empty((n, horizon), dtype=np.intp)
    nonconverged = np.zeros(n, dtype=np.intp)
    rows = np.arange(n)[:, None]
    for t in range(horizon):
        x_z, b_a_z = streams[t][rows, z], d.b_a[z]
        geo = _stacked_geometry(d, cfg.sigma_e2, cfg.sigma_b2, z)
        converged, sweeps[:, t] = zip(*fits.fit(x_z, b_a_z, geo))
        nonconverged += np.logical_not(converged)
        stats[:, t] = _stacked_lambda_stat(x_z, b_a_z, geo, fits.mu_tilde, fits.spread)
        if not np.isfinite(stats[:, t]).all():
            raise _Fallback
        z = _stacked_subsets(fits, cfg, d, rngs, scorer)
    return [(stats[i], False, int(nonconverged[i]), sweeps[i]) for i in range(n)]


def _run_batch(args):
    """``_run_one`` for each replication of a batch, after ``_build_shared``;
    at h = +inf through ``_lockstep``, unless it refuses the batch or a layer
    raises.  Top-level so process pools can pickle it."""
    scenario, h, seed, reps, sampler = args
    _build_shared(scenario, sampler)
    if h == math.inf:
        try:
            return _lockstep(scenario, seed, reps, sampler)
        except (_Fallback, SparsewatchError):
            pass
    return [_run_one((scenario, h, seed, rep, sampler)) for rep in reps]


# The streams of one lockstep batch, (horizon, reps, p) float64, are held
# whole; a batch holds at most this many bytes of them.
_BATCH_STREAM_BYTES = 32 << 20


def _batches(n_reps: int, parts: int, horizon: int, p: int) -> list[range]:
    """Reps 0..n_reps-1 in ``parts`` contiguous, near-equal runs, each cut
    into batches of at most ``_BATCH_STREAM_BYTES`` of streams."""
    cap = max(1, _BATCH_STREAM_BYTES // (8 * horizon * p))
    bounds = [i * n_reps // parts for i in range(parts + 1)]
    return [
        range(start, stop)[j : j + cap]
        for start, stop in zip(bounds, bounds[1:])
        for j in range(0, stop - start, cap)
    ]


def _map_reps(scenario: Scenario, h: float, seed: int, n_reps: int, workers: int, sampler: str):
    """Run replications 0..n_reps-1, inline or pooled, in rep order, each
    batch through ``_run_batch``: one per worker at h = +inf, where they
    run in lockstep, otherwise four per worker, since replications stop at
    their alarms.  A replication's result is bitwise the same either way,
    so outputs do not depend on ``workers``.

    A pool whose workers fork inherits this process's memory, so the
    shared per-process tables are built here first, once, rather than in
    every worker; a worker that starts fresh builds them in its first
    ``_run_batch``.  An ``n_reps`` below 1, or a ``workers`` other than an
    integer of at least 1 (a bool is not), raises ValueError first.
    """
    if n_reps < 1:
        raise ValueError("n_reps must be positive")
    if isinstance(workers, bool) or not isinstance(workers, (int, np.integer)) or workers < 1:
        raise ValueError(f"workers must be an integer of at least 1, got {workers!r}")
    workers = min(workers, n_reps)  # a pool starts all its processes at once
    parts = workers * (1 if h == math.inf else 4)
    worklist = [
        (scenario, h, seed, reps, sampler)
        for reps in _batches(n_reps, parts, scenario.horizon, scenario.dictionary.p)
    ]
    if workers == 1:
        results = [_run_batch(args) for args in worklist]
    else:
        # imported here: a process that never pools never pays the import
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        if multiprocessing.get_start_method() == "fork":  # the start method the pool uses
            _build_shared(scenario, sampler)
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_run_batch, worklist))
    return [result for batch in results for result in batch]


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
    trajectories against candidate values.  No replication stops early, so
    they run in lockstep batches, one per worker (see the module
    docstring): the trajectories are byte for byte those of a ``step``
    loop over each replication alone, at any ``workers``.
    """
    scenario = Scenario(dictionary=dictionary, cfg=cfg, tau=None, change=(), horizon=horizon)
    results = _map_reps(scenario, math.inf, seed, n_reps, workers, sampler)
    return np.vstack([stats for stats, *_ in results])


def replay_run_lengths(trajectories: np.ndarray, h: float) -> np.ndarray:
    """Run length of each stored trajectory at threshold h.

    Alarm at the first step whose statistic strictly exceeds h; trajectories
    that never alarm count as the horizon, matching how censored
    replications enter the average run length.  A NaN statistic, which no
    threshold could be compared with, raises DataError naming the first in
    rep order; a NaN threshold, which no statistic exceeds, ValueError.
    """
    trajectories = np.atleast_2d(np.asarray(trajectories, dtype=np.float64))
    if np.isnan(trajectories).any():
        rep, t = np.argwhere(np.isnan(trajectories))[0]
        raise DataError(f"statistic is NaN in replication {rep} at step {t + 1}")
    if math.isnan(h):
        raise ValueError("threshold must not be NaN")
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
    relative error of the target, and, through its first replay, DataError
    naming the first NaN statistic in rep order.
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
    # The scenario carries the generating model; the monitor must match.
    if scenario.cfg != cfg:
        raise DimensionError("scenario and evaluate disagree on the model config")
    if scenario.dictionary != dictionary:
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


def study(
    cfg: ModelConfig,
    dictionary: BasisDictionary,
    target_arl0: float,
    calib_reps: int,
    calib_horizon: int,
    tol_rel: float,
    calib_seed: int,
    tau: int,
    horizon: int,
    cells: list[tuple[float, int, int]],
    workers: int = 1,
    sampler: str = "thompson",
) -> tuple[float, float, list[RunLengthSummary]]:
    """Calibrated delay study: a threshold for ``target_arl0``, then the
    average detection delay at it for each of ``cells``.

    A cell is (phi, n_reps, seed): a change of size phi at ``tau`` on one
    anomaly column drawn per replication, over ``horizon`` steps.  Every
    cell's Scenario is built first, so a bad cell raises before any
    replication runs; then ``calibrate_threshold`` and one ``evaluate`` per
    cell run in order, with this config, sampler and ``workers``.  Returns
    (h, achieved ARL0, one RunLengthSummary per cell).
    """
    runs = [
        (Scenario(dictionary=dictionary, cfg=cfg, tau=tau, change=((0, phi),),
                  horizon=horizon, random_change_basis=True), n_reps, seed)
        for phi, n_reps, seed in cells
    ]
    h, achieved = calibrate_threshold(
        cfg, dictionary, target_arl0, calib_reps, calib_horizon, tol_rel, calib_seed,
        workers=workers, sampler=sampler,
    )
    return h, achieved, [
        evaluate(cfg, dictionary, h, scenario, n_reps, seed, workers=workers, sampler=sampler)
        for scenario, n_reps, seed in runs
    ]
