"""Online monitoring loop and run-length experiments.

One engine instance monitors one stream: each step it observes its planned
subset of variables, refits the posteriors, evaluates the monitoring
statistic against the threshold, and (absent an alarm) selects the next
subset.  On top of the loop sit threshold calibration to a target average
run length under the null, and replicated run-length evaluation.

Reproducibility contract: a replication's randomness derives only from
(seed, rep) through ``numpy.random.SeedSequence``, replications are reduced
in rep order, and no output depends on wall-clock time or worker count.

Replications at threshold +inf, the null runs a calibration collects, run
in lockstep: a batch of them advances one time step at a time, each layer
one numpy call over the batch, while each replication keeps its own
stream, Generator and draw order and its fit stays one call of the sweep
kernel.  Every reduction is the per-replication BLAS call the layer makes,
so each replication's statistics and sweep counts are bitwise those of
``step`` run on it alone, and the batch split does not change them.
A batch that meets what ``step`` would raise on reruns through ``step``,
which raises it.  Other replications, which stop at their alarm, run one
``step`` at a time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .bases import BasisDictionary
from .detection import DetectionInputs, alarm_check, lambda_stat
from .errors import (
    CalibrationError,
    DataError,
    DimensionError,
    NumericalError,
    SparsewatchError,
    StateError,
)
from . import inference
from .geometry import build_geometry_table, subset_geometry, subset_indices
from .inference import (
    DecayedStats,
    ModelConfig,
    SpikeSlabPosterior,
    fit,
)
from .sampling import (
    OracleScorer,
    SensingPlan,
    _VAR_FLOOR,
    _permuted_top,
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
    batch at a time; each one's result is bitwise ``_run_one``'s.

    Each replication starts from ``init`` and ``gen_stream`` with its
    ``_rep_rngs`` seeds and draws from its own Generator in ``step``'s
    order: Thompson's uniform and normal vectors (one call for both normal
    vectors, which the Generator fills in the same order) and permutation,
    or the oracle's uniform and normals before its ``OracleScorer.select``.
    Its fit is one ``inference._sweeps`` call.  Every other operation is one
    numpy call over the batch: gathers, the moment updates, the spike/slab
    draws, the score arithmetic and the top-m partition are elementwise or
    per row, and each reduction is a stacked ``np.matmul``, which calls per
    replication the BLAS routine (dot or gemv) that the layer's
    ``ndarray.dot`` calls, with the same operands.  The geometry is
    gathered by rank from the table ``build_geometry_table`` returns, or
    looked up per replication with ``subset_geometry`` where the budget
    refuses the table.  What the step only stores for later
    layers (the moments' q, normalization and mass) is not computed.

    Raises ``_Fallback`` where ``step`` would raise: a non-finite value in
    a stream (the step raises only if it is observed), a non-finite
    statistic, or an error of the oracle's selection.
    """
    cfg, d = scenario.cfg, scenario.dictionary
    p, m, k, horizon = d.p, cfg.m, cfg.k_a, scenario.horizon
    n = len(reps)
    streams = np.empty((horizon, n, p))
    states = []
    for i, rep in enumerate(reps):
        stream_ss, engine_ss = _rep_rngs(seed, rep)
        streams[:, i] = gen_stream(scenario, stream_ss)
        states.append(init(cfg, d, h=math.inf, seed=engine_ss, sampler=sampler))
    if not np.isfinite(streams).all():
        raise _Fallback
    rngs = [state.rng for state in states]
    z = np.array([state.plan.z for state in states])
    table = build_geometry_table(d, cfg.sigma_e2, cfg.sigma_b2, m)

    keep = 1.0 - cfg.decay
    raw_m, raw_u = np.zeros((n, k, k)), np.zeros((n, k))
    off = np.empty_like(raw_m)
    post = np.empty((n, len(inference._FIELDS), k))  # a fit's output per replication
    post[:] = [getattr(states[0].post, name) for name in inference._FIELDS]
    mt, mu, s2, alpha, spread = post.swapaxes(0, 1)
    uniform, normal = np.empty((n, k)), np.empty((n, k + p))
    perms = [None] * n
    stats = np.empty((n, horizon))
    sweeps = np.empty((n, horizon), dtype=np.intp)
    nonconverged = np.zeros(n, dtype=np.intp)
    sweep = inference._sweeps  # looked up once per batch: the seam a test swaps
    tol, max_iters = inference._TOL, inference._MAX_ITERS
    fit_args = list(zip(raw_m, off, post.reshape(n, -1)))
    rows = np.arange(n)[:, None]
    b_a, b_a_sq = d.b_a, d.b_a_sq
    for t in range(horizon):
        x_z = streams[t][rows, z]
        if table.fields is None:
            geos = [subset_geometry(d, cfg.sigma_e2, cfg.sigma_b2, row) for row in z]
            m_c, _, basis, c, col_sq = map(np.array, zip(*geos))
        else:
            rank = [table.rank[row.tobytes()] for row in z]
            m_c, _, basis, c, col_sq = (field[rank] for field in table.fields)
        b_a_z = b_a[z]

        # absorb_sample: W·x = x − U·(c ∘ U'x), then u_c = B_aZ'·W·x
        proj = c * np.matmul(x_z[:, None], basis)[:, 0]
        w_x = x_z - np.matmul(basis, proj[:, :, None])[:, :, 0]
        raw_m *= keep
        raw_m += m_c
        raw_u *= keep
        raw_u += np.matmul(b_a_z.swapaxes(1, 2), w_x[:, :, None])[:, :, 0]

        # fit: one kernel call per replication
        np.copyto(off, raw_m)
        off.reshape(n, -1)[:, :: k + 1] = 0.0
        lists = zip(raw_u.tolist(), mu.tolist(), alpha.tolist(), mt.tolist())
        done = [
            sweep(rm, of, out, u, mu_i, al, mt_i, cfg, tol, max_iters)
            for (rm, of, out), (u, mu_i, al, mt_i) in zip(fit_args, lists)
        ]
        converged, sweeps[:, t] = zip(*done)
        nonconverged += np.logical_not(converged)

        # lambda_stat: 2·(y'x − (P y)'x) − (y'y + col_sq'·spread) + y'P y
        y = np.matmul(b_a_z, mt[:, :, None])
        p_y = np.matmul(basis, np.matmul(basis.swapaxes(1, 2), y))
        y_row, x_col = y.swapaxes(1, 2), x_z[:, :, None]
        quad = np.matmul(y_row, y) + np.matmul(col_sq[:, None], spread[:, :, None])
        stat = 2.0 * (np.matmul(y_row, x_col) - np.matmul(p_y.swapaxes(1, 2), x_col)) - quad
        stat += np.matmul(y_row, p_y)
        stats[:, t] = stat[:, 0, 0]
        if not np.isfinite(stats[:, t]).all():
            raise _Fallback

        # sensing: draw_anomaly_sample, synthesize_anomaly_signal, then a sampler
        for i, rng in enumerate(rngs):
            rng.random(out=uniform[i])
            rng.standard_normal(out=normal[i])
            if sampler != "oracle":
                perms[i] = rng.permutation(p)
        draws = np.sqrt(np.maximum(np.multiply.outer((1.0, cfg.v), s2), _VAR_FLOOR)) * normal[:, :k]
        theta = np.where(uniform < alpha, mu + draws[0], draws[1])
        x1_hat = np.matmul(b_a, theta[:, :, None])[:, :, 0] + cfg.sigma_e * normal[:, k:]
        if sampler == "oracle":
            z = np.empty_like(z)
            for i, state in enumerate(states):
                fitted = SpikeSlabPosterior._trusted(mu[i], s2[i], alpha[i], mt[i], spread[i])
                try:
                    z[i] = state.scorer.select(x1_hat[i], fitted, rngs[i]).z
                except SparsewatchError:
                    raise _Fallback from None
        else:  # score_variables, then select_top_m
            y_all = np.matmul(b_a, mt[:, :, None])[:, :, 0]
            quad_all = y_all * y_all + np.matmul(b_a_sq, spread[:, :, None])[:, :, 0]
            scores = 2.0 * x1_hat * y_all - quad_all
            top = scores >= np.partition(scores, p - m, axis=1)[:, p - m, None]
            counts = np.count_nonzero(top, axis=1)
            if (counts == m).all():
                z = top.nonzero()[1].reshape(n, m)
            else:  # a tie or a NaN at some row's cut
                z = np.array([
                    row.nonzero()[0] if count == m else _permuted_top(row_scores, m, perm)
                    for row, count, row_scores, perm in zip(top, counts, scores, perms)
                ])
    return [(stats[i], False, int(nonconverged[i]), sweeps[i]) for i in range(n)]


def _run_batch(args):
    """``_run_one`` for each replication of a batch, through ``_lockstep``;
    a batch it refuses runs through ``_run_one`` in rep order, which then
    raises the exception and message the per-replication loop raises.
    Top-level so process pools can pickle it."""
    scenario, seed, reps, sampler = args
    try:
        return _lockstep(scenario, seed, reps, sampler)
    except _Fallback:
        return [_run_one((scenario, math.inf, seed, rep, sampler)) for rep in reps]


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
    """Run replications 0..n_reps-1, inline or pooled, in rep order.

    At h = +inf no replication stops early, so they run in lockstep
    batches (``_run_batch``): one batch inline, or one per worker when
    pooled, each capped by ``_BATCH_STREAM_BYTES``.  Otherwise each
    replication runs alone (``_run_one``).  Either way a replication's
    result is bitwise the same, so outputs do not depend on ``workers``.

    A pool whose workers fork inherits this process's memory, so the
    shared per-process tables are built here first, once, rather than in
    every worker; a worker that starts fresh would inherit nothing.
    """
    workers = min(workers, n_reps)  # a pool starts all its processes at once
    lockstep = h == math.inf
    if lockstep:
        task = _run_batch
        batches = _batches(n_reps, max(workers, 1), scenario.horizon, scenario.dictionary.p)
        worklist = [(scenario, seed, reps, sampler) for reps in batches]
        chunk = 1
    else:
        task = _run_one
        worklist = [(scenario, h, seed, rep, sampler) for rep in range(n_reps)]
        chunk = max(1, len(worklist) // (workers * 4))
    if workers <= 1:
        results = [task(args) for args in worklist]
    else:
        # imported here: a process that never pools never pays the import
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        if multiprocessing.get_start_method() == "fork":  # the start method the pool uses
            _build_shared(scenario, sampler)
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(task, worklist, chunksize=chunk))
    if lockstep:
        return [result for batch in results for result in batch]
    return results


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
    trajectories against candidate values.  No replication stops early, so
    they run in lockstep batches, one per worker (see the module
    docstring): the trajectories are byte for byte those of a ``step``
    loop over each replication alone, at any ``workers``.
    """
    if n_reps < 1:
        raise ValueError("n_reps must be positive")
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
