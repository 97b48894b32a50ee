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

import bisect
import functools
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
    _count,
    _number,
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
    """Mutable state of one monitored stream.

    ``scorer`` is the only record of how the stream senses: the oracle's
    shared scorer, or None for Thompson sampling.  ``init`` sets it from
    its ``sampler`` name, and ``step`` reads nothing else.
    """

    cfg: ModelConfig
    dictionary: BasisDictionary
    h: float
    rng: np.random.Generator
    post: SpikeSlabPosterior
    stats: DecayedStats
    plan: SensingPlan
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


def _scorer(sampler: str, dictionary: BasisDictionary, m: int) -> OracleScorer | None:
    """The sensing field of an engine with ``sampler``: the oracle's shared
    scorer for (dictionary, m), or None for Thompson sampling.  An unknown
    name raises ValueError; this is the only place a name is compared."""
    if sampler not in SAMPLERS:
        raise ValueError(f"sampler must be one of {SAMPLERS}")
    return OracleScorer.shared(dictionary, m) if sampler == "oracle" else None


def _threshold(h) -> float:
    """``h`` as a float, which may be infinite; a NaN, which no statistic
    exceeds, or a value that is not a number raises DataError."""
    return _number("threshold", h, -math.inf, low="must not be NaN")


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
    The engine keeps the scorer ``_scorer`` makes of it, not the name.  A
    threshold that is NaN or not a number raises DataError; an unknown
    sampler, ValueError; a budget m above p, DimensionError.  The config's
    scales were checked when it was built.
    """
    h = _threshold(h)
    if cfg.k_a != dictionary.k_a:
        raise DimensionError("config and dictionary disagree on k_a")
    _count("sensing budget m", cfg.m, 1, dictionary.p)
    scorer = _scorer(sampler, dictionary, cfg.m)
    rng = np.random.default_rng(seed)
    z0 = rng.choice(dictionary.p, size=cfg.m, replace=False)
    return EngineState(
        cfg=cfg,
        dictionary=dictionary,
        h=h,
        rng=rng,
        post=SpikeSlabPosterior.prior(cfg),
        stats=DecayedStats.empty(cfg.k_a),
        plan=SensingPlan(np.sort(z0)),
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

    The observation is converted and checked once, here; the statistic
    takes it through ``DetectionInputs``' one constructor, which converts
    the float64 values and the subset again at no copy.  The plan's
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
    stat = lambda_stat(DetectionInputs(x_z, z, res.post), state.dictionary, state.cfg)
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
        if state.scorer is not None:
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
    return np.random.SeedSequence(entropy=[seed, rep]).spawn(2)


def _start(scenario: Scenario, h: float, seed: int, rep: int, sampler: str):
    """Replication ``rep``'s stream and fresh engine, each from its
    ``_rep_rngs`` seed, the stream generated first."""
    stream_ss, engine_ss = _rep_rngs(seed, rep)
    stream = gen_stream(scenario, stream_ss)
    return stream, init(scenario.cfg, scenario.dictionary, h=h, seed=engine_ss, sampler=sampler)


def _run_one(scenario: Scenario, h: float, seed: int, rep: int, sampler: str):
    """One replication, stopped at its alarm or the horizon.

    Returns (statistics of the steps run, alarmed, non-converged fits, the
    steps' sweep counts).
    """
    stream, state = _start(scenario, h, seed, rep, sampler)
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
    the sampler's scorer (``_scorer``, which refuses an unknown sampler
    before anything is built), the geometry table of its dictionary and
    config and the sweep kernel for its k_a.  Each is kept per process and
    keyed on content, so a replication finds it built."""
    cfg, dictionary = scenario.cfg, scenario.dictionary
    _scorer(sampler, dictionary, cfg.m)
    build_geometry_table(dictionary, cfg)
    inference._kernel(cfg.k_a)


class _Fallback(Exception):
    """A lockstep batch met what only the per-replication loop reports."""


def _lockstep(scenario: Scenario, seed: int, reps: range, sampler: str):
    """Replications ``reps`` at threshold +inf, one time step for the whole
    batch at a time, each started by ``_start`` and each result bitwise
    ``_run_one``'s.  A step is one ``_stacked_geometry`` call and one call
    of each layer's batch form.
    Raises ``_Fallback`` for a non-finite value in a stream (the step raises
    only if it is observed) or statistic; a layer's error propagates.
    """
    cfg, d, horizon, n = scenario.cfg, scenario.dictionary, scenario.horizon, len(reps)
    streams = np.empty((horizon, n, d.p))
    states = []
    for i, rep in enumerate(reps):
        streams[:, i], state = _start(scenario, math.inf, seed, rep, sampler)
        states.append(state)
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
        geo = _stacked_geometry(d, cfg, z)
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
    return [_run_one(scenario, h, seed, rep, sampler) for rep in reps]


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
    ``_run_batch``.  An ``n_reps`` or ``workers`` other than an integer of
    at least 1, a ``seed`` other than one of at least 0 (a bool is neither),
    or a threshold ``_threshold`` refuses, raises ValueError first, and an
    unknown sampler raises it before anything is built.
    """
    _count("n_reps", n_reps)
    _count("workers", workers)
    _count("seed", seed, 0)
    _threshold(h)
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
    rep order, and so does a threshold ``_threshold`` refuses.
    """
    trajectories = np.atleast_2d(np.asarray(trajectories, dtype=np.float64))
    if np.isnan(trajectories).any():
        rep, t = np.argwhere(np.isnan(trajectories))[0]
        raise DataError(f"statistic is NaN in replication {rep} at step {t + 1}")
    _threshold(h)
    horizon = trajectories.shape[1]
    exceeded = trajectories > h
    any_alarm = exceeded.any(axis=1)
    first = exceeded.argmax(axis=1) + 1
    return np.where(any_alarm, first, horizon)


def _target(target_arl0: float, tol_rel: float, horizon: int) -> None:
    """Refuse a ``tol_rel`` that is not a positive number or a target ARL
    that is not a number (DataError), or a target outside [1, horizon],
    which no replay reaches (CalibrationError)."""
    _number("tol_rel", tol_rel, 0.0, above=True)
    if not 1.0 <= _number("target ARL", target_arl0) <= horizon:
        raise CalibrationError(f"target ARL {target_arl0} outside the feasible [1, {horizon}] range")


def search_threshold(
    trajectories: np.ndarray, target_arl0: float, tol_rel: float
) -> tuple[float, float]:
    """Threshold whose replayed average run length meets the target.

    Bisects the sorted unique statistic values (the only points where the
    replayed ARL can change), replaying each candidate at most once, for
    the first whose ARL meets the target; returns (h, achieved ARL) of the
    closer of it and its predecessor, the lower on a tie.  Raises what
    ``_target`` raises, CalibrationError for a set of no null runs or when
    no candidate lands within ``tol_rel`` relative error of the target,
    and, through its first replay, DataError naming the first NaN
    statistic in rep order.
    """
    trajectories = np.atleast_2d(np.asarray(trajectories, dtype=np.float64))
    _target(target_arl0, tol_rel, trajectories.shape[1])
    if not trajectories.shape[0]:
        raise CalibrationError("no null runs to calibrate from: trajectories holds no rows")

    values = np.unique(trajectories)
    # The replayed ARL is non-decreasing in h and is the horizon at the
    # largest value, so the first candidate meeting the target is at most
    # the last, which the bisection need not replay.
    arl = functools.cache(lambda i: float(replay_run_lengths(trajectories, values[i]).mean()))
    err = lambda i: abs(arl(i) - target_arl0) / target_arl0
    first = bisect.bisect_left(range(values.size - 1), target_arl0, key=arl)
    best = min(range(max(first - 1, 0), first + 1), key=err)  # a tie goes to the lower h
    if err(best) > tol_rel:
        raise CalibrationError(
            f"no threshold lands within {tol_rel:.3g} relative error of "
            f"ARL {target_arl0}; closest achieves {arl(best):.2f} "
            f"(error {err(best):.3g}); increase n_reps or horizon"
        )
    return float(values[best]), arl(best)


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
    (h, achieved ARL).  The horizon's count, ``_target``'s rule, and a
    horizon that exceeds twice the target so censoring cannot dominate the
    average, are checked before any replication runs.
    """
    _target(target_arl0, tol_rel, _count("horizon", horizon))
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
    cell's Scenario, replication count and seed (``_map_reps``' rules) are
    checked first, so a bad cell raises before any replication runs; then
    ``calibrate_threshold``, which checks its own arguments before it runs
    any, and one ``evaluate`` per cell run in order, with this config,
    sampler and ``workers``.  Returns (h, achieved ARL0, one
    RunLengthSummary per cell).
    """
    runs = [
        (Scenario(dictionary=dictionary, cfg=cfg, tau=tau, change=((0, phi),),
                  horizon=horizon, random_change_basis=True),
         _count("n_reps", n_reps), _count("seed", seed, 0))
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
