"""Rounds, checks and metrics of one benchmark run.

``run.py`` imports this module only after it has pinned BLAS to one thread
and put the program's ``src`` first on the import path.
"""

from __future__ import annotations

import math
import os
import platform
import resource
import statistics
import time
from pathlib import Path

import numpy as np
import scipy

import checks
import workloads
from sparsewatch import engine
from tracing import StepTimer, Tracer

OUT_DIR = Path(__file__).resolve().parent / "out"
DICTIONARY_SAMPLES = 5


def machine_facts(pins) -> dict:
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="ascii", errors="replace") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError, ValueError):
        blas = "unknown"
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "thread_pins": {name: os.environ.get(name) for name in pins},
    }


def percentile_us(latency_ns, q: float) -> float:
    return float(np.percentile(np.asarray(latency_ns, dtype=np.float64), q)) / 1e3


def timing_metrics(timer, intervals, steps: int) -> tuple[dict, dict]:
    """Round times, throughput and step latencies, at the reference speed and raw.

    ``intervals`` holds each round's (start ns, end ns).  The first dict is
    rescaled by the reference samples the timer took (see ``reference.py``);
    the second is the same figures as the clock read them.
    """
    speed = timer.speed()
    scaled_s = [speed.scale(a, b) for a, b in intervals]
    wall_s = [(b - a) / 1e9 for a, b in intervals]
    raw = timer.latency_ns
    scaled = raw * speed.factor_at(timer.step_start_ns)
    metrics = {
        "study_s": statistics.median(scaled_s),
        "steps_per_s": steps / math.fsum(scaled_s),
        "step_p50_us": percentile_us(scaled, 50),
        "step_p90_us": percentile_us(scaled, 90),
    }
    clock = {
        "study_s": statistics.median(wall_s),
        "steps_per_s": steps / math.fsum(wall_s),
        "step_p50_us": percentile_us(raw, 50),
        "step_p90_us": percentile_us(raw, 90),
        "reference_samples": speed.samples,
        "reference_median_ns": speed.median_sample_ns,
    }
    return metrics, clock


def peak_rss_mb(workers: int) -> float:
    """Peak RSS of this process plus, for pooled work, workers x the largest worker's."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + (workers * child if workers > 1 else 0)) / 1024.0


# ── Studies ───────────────────────────────────────────────────────────────


def check_study_round(spec, rnd) -> list[str]:
    failures = checks.check_calibration(
        rnd.trajectories, rnd.h, rnd.arl0, spec.target_arl0, spec.tol_rel
    )
    for cell in rnd.cells:
        failures += [
            f"phi={cell.phi}: {msg}"
            for msg in checks.check_cell(cell.summary, cell.records, cell.reps, spec.tau,
                                         spec.cell_horizon)
        ]
    return failures


def rerun_inline(spec, dictionary, cfg, rnd) -> list[str]:
    """Rerun the first replications of each pooled phase in this process."""
    k = spec.rerun_reps
    traj = engine.collect_h0_trajectories(
        cfg, dictionary, k, spec.null_horizon, rnd.seeds[0], workers=1, sampler=spec.sampler
    )
    failures = []
    if not (traj == rnd.trajectories[:k]).all():
        failures.append("null runs rerun inline differ from the pooled ones")
    for cell in rnd.cells:
        scenario = workloads.delay_scenario(spec, dictionary, cfg, cell.phi)
        _, records = engine.evaluate(
            cfg, dictionary, rnd.h, scenario, k, cell.seed, workers=1,
            sampler=spec.sampler, return_records=True,
        )
        failures += checks.check_rerun(cell.records, records, f"phi={cell.phi}")
    return failures


def pooled_delays(rounds, phi: float) -> list[int]:
    return [rec["delay"] for rnd in rounds for cell in rnd.cells if cell.phi == phi
            for rec in cell.records if rec["delay"] is not None]


def check_pooled_order(spec, rounds) -> tuple[list[str], dict]:
    (small, _), (large, _) = spec.cells[0], spec.cells[-1]
    stats = {phi: checks.delay_stats(pooled_delays(rounds, phi)) for phi in (small, large)}
    return checks.check_delay_order(stats[small], stats[large]), stats


def round_record(rnd) -> dict:
    return {
        "seeds": rnd.seeds, "h": rnd.h, "arl0": rnd.arl0, "wall_s": rnd.wall_s,
        "steps": rnd.steps, "phase_s": rnd.phase_s,
        "cells": [{"phi": c.phi, "reps": c.reps, "add": c.summary.add,
                   "add_stderr": c.summary.add_stderr,
                   "detected": sum(r["delay"] is not None for r in c.records),
                   "false_alarms": c.summary.n_false_alarm, "censored": c.summary.n_censored}
                  for c in rnd.cells],
    }


def round_count(spec, seconds: float) -> int:
    """Rounds in a run: as many as fill ``seconds`` at the reference speed, at least one.

    The count depends on ``seconds`` alone, through the workload's nominal
    round time, so every run of a workload does the same number of rounds,
    whatever the machine's speed of the moment.
    """
    return max(1, round(seconds / spec.round_s))


def study_untraced(spec, seed: int, seconds: float):
    dictionary = spec.dictionary()
    cfg = workloads.model_config(dictionary, spec.m)
    failures = []
    timer = StepTimer()
    intervals = []

    def one_round(i):
        with timer:
            start = time.perf_counter_ns()
            rnd = workloads.run_study_round(
                spec, dictionary, cfg, workloads.round_seeds(seed, i, 1 + len(spec.cells)),
                spec.workers,
            )
            intervals.append((start, time.perf_counter_ns()))
        failures.extend(check_study_round(spec, rnd))
        return rnd

    rounds = [one_round(i) for i in range(round_count(spec, seconds))]
    rss = peak_rss_mb(spec.workers)
    latency = timer.latency_ns
    timing, clock = timing_metrics(timer, intervals, sum(r.steps for r in rounds))
    if spec.rerun_reps:
        for rnd in rounds:
            failures += rerun_inline(spec, dictionary, cfg, rnd)
    order_failures, stats = check_pooled_order(spec, rounds)
    failures += order_failures
    add, add_se = stats[spec.cells[0][0]]
    metrics = {**timing, "add_steps": add, "peak_rss_mb": rss}
    extra = {
        "rounds": [round_record(r) for r in rounds],
        "clock": clock,
        "step_p99_us": percentile_us(latency, 99),
        "latency_samples": len(latency),
        "add_stderr": add_se,
        "add_detected": len(pooled_delays(rounds, spec.cells[0][0])),
        "add_large_change": stats[spec.cells[-1][0]],
    }
    attempted = sum(r.replications for r in rounds)
    return metrics, attempted, failures, extra


def study_traced(spec, seed: int, seconds: float):
    dictionary, build_ms = timed_dictionary(spec)
    cfg = workloads.model_config(dictionary, spec.m)
    n_seeds = 1 + len(spec.cells)
    seeds0 = workloads.round_seeds(seed, 0, n_seeds)
    untraced = {w: workloads.run_study_round(spec, dictionary, cfg, seeds0, w) for w in (1, 2)}
    failures = []
    for w, rnd in untraced.items():
        failures += [f"untraced, {w} workers: {m}" for m in check_study_round(spec, rnd)]

    tracer = Tracer()
    tracer.install()
    try:
        rounds = [
            workloads.run_study_round(
                spec, dictionary, cfg, workloads.round_seeds(seed, i, n_seeds), 1
            )
            for i in range(max(1, round_count(spec, seconds) - len(untraced)))
        ]
    finally:
        tracer.uninstall()
    for rnd in rounds:
        failures += check_study_round(spec, rnd)
    for w, rnd in untraced.items():
        same = (np.array_equal(rnd.trajectories, rounds[0].trajectories)
                and rnd.h == rounds[0].h
                and all(a.records == b.records for a, b in zip(rnd.cells, rounds[0].cells)))
        if not same:
            failures.append(f"round 0 at {w} workers differs from the traced round 0")

    def pooled(rnd):
        return rnd.phase_s["collect_h0_trajectories"] + rnd.phase_s["evaluate"]

    overhead = (untraced[1].steps / untraced[1].wall_s) / (rounds[0].steps / rounds[0].wall_s)
    metrics = layer_metrics(tracer, len(rounds), build_ms, overhead,
                            pool_speedup=pooled(untraced[1]) / pooled(untraced[2]))
    extra = {"rounds": [round_record(r) for r in rounds],
             "untraced_round0": {w: round_record(r) for w, r in untraced.items()}}
    write_spans(tracer, spec.name, seed)
    return metrics, sum(r.replications for r in rounds), failures, extra


# ── Monitor ───────────────────────────────────────────────────────────────


def check_monitor_round(spec, dictionary, cfg, rnd) -> list[str]:
    """The gated checks of one stream.

    Whether the change ends localized is recorded per stream, not gated: on
    rare seeds the posterior ends with the change on neighbouring columns
    (see ``CHANGES.md``, FOUND).
    """
    history = [(out.z, rnd.stream[out.step - 1][out.z]) for out in rnd.outcomes]
    return (
        checks.check_moments(rnd.state.stats, history, dictionary, cfg)
        + checks.check_subsets(rnd.outcomes, dictionary.p, spec.m)
        + checks.check_finite_stats(rnd.outcomes)
    )


def monitor_rounds(spec, dictionary, cfg, seed: int, count: int):
    """``count`` streams, each checked, then let go."""
    failures, intervals = [], []

    def one_stream(i):
        start = time.perf_counter_ns()
        rnd = workloads.run_monitor_round(spec, dictionary, cfg, seed, i)
        intervals.append((start, time.perf_counter_ns()))
        failures.extend(f"stream {i}: {m}" for m in check_monitor_round(spec, dictionary, cfg, rnd))
        summary = {
            "wall_s": rnd.wall_s, "steps": rnd.steps, "column": rnd.column,
            "delay": workloads.localization_delay(spec, rnd.alpha_changed),
            "not_localized": checks.check_localized(rnd.state.post.alpha, rnd.column),
            "others_above_half": checks.other_columns_above_half(rnd.state.post.alpha,
                                                                 rnd.column),
        }
        return summary

    streams = [one_stream(i) for i in range(count)]
    return streams, failures, intervals


def monitor_untraced(spec, seed: int, seconds: float):
    dictionary = spec.dictionary()
    cfg = workloads.model_config(dictionary, spec.m)
    with StepTimer() as timer:
        streams, failures, intervals = monitor_rounds(spec, dictionary, cfg, seed,
                                                      round_count(spec, seconds))
    rss = peak_rss_mb(1)
    latency = timer.latency_ns
    timing, clock = timing_metrics(timer, intervals, sum(s["steps"] for s in streams))
    delays = [s["delay"] for s in streams]
    metrics = {**timing, "add_steps": statistics.fmean(delays), "peak_rss_mb": rss}
    extra = {
        "streams": streams,
        "clock": clock,
        "step_p99_us": percentile_us(latency, 99),
        "latency_samples": int(latency.size),
        "delay_stdev": statistics.stdev(delays) if len(delays) > 1 else None,
        "streams_not_ending_localized": sum(bool(s["not_localized"]) for s in streams),
        "streams_ending_with_another_column_above_half":
            sum(bool(s["others_above_half"]) for s in streams),
    }
    return metrics, int(latency.size), failures, extra


def monitor_traced(spec, seed: int, seconds: float):
    dictionary, build_ms = timed_dictionary(spec)
    cfg = workloads.model_config(dictionary, spec.m)
    base = workloads.run_monitor_round(spec, dictionary, cfg, seed, 0)
    tracer = Tracer()
    tracer.install()
    try:
        streams, failures, _ = monitor_rounds(spec, dictionary, cfg, seed,
                                              max(1, round_count(spec, seconds) - 1))
    finally:
        tracer.uninstall()
    failures += check_monitor_round(spec, dictionary, cfg, base)
    first = streams[0]
    overhead = (base.steps / base.wall_s) / (first["steps"] / first["wall_s"])
    metrics = layer_metrics(tracer, len(streams), build_ms, overhead, pool_speedup=0.0)
    extra = {"streams": streams}
    write_spans(tracer, spec.name, seed)
    return metrics, sum(s["steps"] for s in streams), failures, extra


# ── Per-layer metrics ─────────────────────────────────────────────────────


def timed_dictionary(spec):
    """Build the workload's dictionary several times; keep one, report the median ms."""
    samples = []
    for _ in range(DICTIONARY_SAMPLES):
        start = time.perf_counter()
        dictionary = spec.dictionary()
        samples.append((time.perf_counter() - start) * 1e3)
    return dictionary, statistics.median(samples)


def layer_metrics(tracer, rounds: int, build_ms: float, overhead: float, pool_speedup: float):
    """Per-call means, counts and per-round phase times over the traced rounds.

    A layer the workload never calls reads 0.
    """
    totals = tracer.totals()

    def calls(name):
        return totals.get(name, (0, 0.0, 0.0))[0]

    def mean(name, unit_ns=1e3, own=False):
        n, incl, excl = totals.get(name, (0, 0.0, 0.0))
        return ((excl if own else incl) / n / unit_ns) if n else 0.0

    def per_round_s(name):
        return totals.get(name, (0, 0.0, 0.0))[1] / 1e9 / rounds

    fits = calls("inference.fit")
    return {
        "engine.steps": calls("engine.step"),
        "engine.step.self_us": mean("engine.step", own=True),
        "engine.init.us": mean("engine.init"),
        "engine.init.calls": calls("engine.init"),
        "engine.collect_h0_trajectories.s": per_round_s("engine.collect_h0_trajectories"),
        "engine.search_threshold.s": per_round_s("engine.search_threshold"),
        "engine.evaluate.s": per_round_s("engine.evaluate"),
        "engine.pool_speedup": pool_speedup,
        "inference.fit.self_us": mean("inference.fit", own=True),
        "inference.vb_coordinate_sweep.us": mean("inference.vb_coordinate_sweep"),
        "inference.sweeps_per_step": calls("inference.vb_coordinate_sweep") / fits if fits else 0.0,
        "inference.absorb_sample.us": mean("inference.absorb_sample"),
        "inference.update_background.us": mean("inference.update_background"),
        "inference.nonconverged_steps": sum(not c for c in tracer.fit_converged),
        "inference.subset_repeat_share": tracer.subset_repeat_share(),
        "detection.lambda_stat.us": mean("detection.lambda_stat"),
        "sampling.draw_anomaly_sample.us": mean("sampling.draw_anomaly_sample"),
        "sampling.synthesize_anomaly_signal.us": mean("sampling.synthesize_anomaly_signal"),
        "sampling.score_variables.us": mean("sampling.score_variables"),
        "sampling.select_top_m.us": mean("sampling.select_top_m"),
        "sampling.OracleScorer.init.ms": mean("sampling.OracleScorer.init", unit_ns=1e6),
        "sampling.OracleScorer.init.calls": calls("sampling.OracleScorer.init"),
        "sampling.OracleScorer.select.us": mean("sampling.OracleScorer.select"),
        "simgen.gen_stream.us": mean("simgen.gen_stream"),
        "simgen.gen_stream.calls": calls("simgen.gen_stream"),
        "bases.dictionary_build_ms": build_ms,
        "trace.overhead": overhead,
    }


def write_spans(tracer, workload: str, seed: int) -> None:
    OUT_DIR.mkdir(exist_ok=True)
    tracer.write(OUT_DIR / f"spans-{workload}-seed{seed}.npz")


def spec_record(spec) -> dict:
    return {k: (v.__name__ if callable(v) else v) for k, v in vars(spec).items()}
