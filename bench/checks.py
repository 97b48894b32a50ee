"""Checks of the program's outputs, computed apart from the program.

Each check returns a list of failure messages; an empty list is a pass.
Nothing here compares against a stored copy of earlier output: every
expected value is recomputed by another route (explicit sums, a running
maximum in place of the program's replay, dense m x m whitening in place of
the program's k_b-sized complement), or is a property the method must have.
"""

from __future__ import annotations

import math

import numpy as np

REL_TOL = 1e-9


def _close(a: float, b: float, rel: float = REL_TOL) -> bool:
    return math.isclose(a, b, rel_tol=rel, abs_tol=rel)


# ── Calibration ───────────────────────────────────────────────────────────


def first_exceedance_arl(trajectories: np.ndarray, h: float) -> float:
    """Mean step of the first statistic above h; runs that never exceed count the horizon."""
    horizon = trajectories.shape[1]
    lengths = []
    for row in trajectories:
        above = np.flatnonzero(row > h)
        lengths.append(int(above[0]) + 1 if above.size else horizon)
    return math.fsum(lengths) / len(lengths)


def expected_threshold(trajectories: np.ndarray, target: float) -> float:
    """The candidate a replay search must return, from each run's running maximum.

    A run's length at threshold h is one more than the number of its steps
    whose running maximum is at most h (or the horizon if that is every
    step).  This gives the replayed ARL at every distinct statistic value at
    once; the answer is the closer to the target of the first candidate
    reaching it and its predecessor, the lower one on a tie.
    """
    horizon = trajectories.shape[1]
    values = np.unique(trajectories)
    running_max = np.maximum.accumulate(trajectories, axis=1)
    counts = np.stack([np.searchsorted(row, values, side="right") for row in running_max])
    arl = np.where(counts == horizon, horizon, counts + 1).mean(axis=0)
    first = int(np.flatnonzero(arl >= target)[0])
    if first == 0:
        return float(values[0])
    below, above = first - 1, first
    if abs(arl[below] - target) <= abs(arl[above] - target):
        return float(values[below])
    return float(values[above])


def check_calibration(trajectories, h: float, arl0: float, target: float, tol_rel: float):
    failures = []
    expected_h = expected_threshold(trajectories, target)
    if h != expected_h:
        failures.append(f"threshold {h!r} is not the replay optimum {expected_h!r}")
    replayed = first_exceedance_arl(trajectories, h)
    if not _close(replayed, arl0):
        failures.append(f"replayed ARL0 {replayed} differs from the reported {arl0}")
    if abs(replayed - target) > tol_rel * target:
        failures.append(f"replayed ARL0 {replayed} is not within {tol_rel} of {target}")
    return failures


# ── Delay cells ───────────────────────────────────────────────────────────


def delay_stats(delays) -> tuple[float, float]:
    """Mean delay and its standard error (n - 1 denominator), by explicit sums."""
    n = len(delays)
    mean = math.fsum(delays) / n
    if n < 2:
        return mean, math.nan
    var = math.fsum((d - mean) ** 2 for d in delays) / (n - 1)
    return mean, math.sqrt(var / n)


def check_cell(summary, records, reps: int, tau: int, horizon: int):
    """Recount one delay cell's records and recompute its ADD and standard error."""
    failures = []
    if [rec["rep"] for rec in records] != list(range(reps)):
        failures.append("records are not replications 0..reps-1 in order")
    detected = false_alarms = censored = 0
    delays = []
    for rec in records:
        t = rec["T"]
        if not 1 <= t <= horizon + 1:
            failures.append(f"rep {rec['rep']}: alarm step {t} outside [1, {horizon + 1}]")
        if t == horizon + 1:
            censored += 1
        elif t <= tau:
            false_alarms += 1
        else:
            detected += 1
        if rec["false_alarm"] != (t <= tau):
            failures.append(f"rep {rec['rep']}: false-alarm flag disagrees with T = {t}")
        want = t - tau if tau < t <= horizon else None
        if rec["delay"] != want:
            failures.append(f"rep {rec['rep']}: delay {rec['delay']} but T - tau gives {want}")
        if rec["delay"] is not None:
            delays.append(rec["delay"])
    if detected + false_alarms + censored != reps or summary.n_reps != reps:
        failures.append(
            f"{detected} detected + {false_alarms} false alarms + {censored} censored "
            f"!= {reps} replications (summary says {summary.n_reps})"
        )
    if summary.n_false_alarm != false_alarms or summary.n_censored != censored:
        failures.append(
            f"summary counts {summary.n_false_alarm} false alarms, {summary.n_censored} "
            f"censored; records give {false_alarms}, {censored}"
        )
    if any(d < 1 for d in delays):
        failures.append("a delay is below one step")
    if len(delays) < 2:
        failures.append(f"only {len(delays)} detected replications")
        return failures
    add, se = delay_stats(delays)
    if not (_close(summary.add, add) and _close(summary.add_stderr, se)):
        failures.append(
            f"reported ADD {summary.add} +- {summary.add_stderr}; "
            f"the delays give {add} +- {se}"
        )
    return failures


def check_delay_order(small, large):
    """ADD at the larger change is no worse than at the smaller one, within two SEs."""
    (add_small, se_small), (add_large, se_large) = small, large
    slack = 2.0 * math.hypot(se_small, se_large)
    if not add_large <= add_small + slack:
        return [f"ADD {add_large:.3f} at the larger change exceeds {add_small:.3f} + {slack:.3f}"]
    return []


def check_rerun(pooled_records, inline_records, label: str):
    n = len(inline_records)
    if pooled_records[:n] != inline_records:
        return [f"{label}: replications rerun inline differ from the pooled ones"]
    return []


# ── Monitor ───────────────────────────────────────────────────────────────


def explicit_moments(history, dictionary, cfg) -> dict:
    """Decayed whitened moments as one weighted sum over the (z, x_z) history.

    Each step's marginal covariance sigma_b^2 B_bZ B_bZ' + sigma_e^2 I is
    formed at size m and inverted outright; step t of n has weight
    (1 - decay)^(n - t).
    """
    n = len(history)
    keep = 1.0 - cfg.decay
    se2, sb2 = cfg.sigma_e**2, cfg.sigma_b**2
    k_a = dictionary.k_a
    out = {"M": np.zeros((k_a, k_a)), "u": np.zeros(k_a), "q": [], "norm": [], "mass": []}
    for t, (z, x) in enumerate(history, start=1):
        weight = keep ** (n - t)
        a_rows, b_rows = dictionary.b_a[z], dictionary.b_b[z]
        cov = sb2 * b_rows @ b_rows.T + se2 * np.eye(z.size)
        white = se2 * np.linalg.inv(cov)
        _, logdet = np.linalg.slogdet(cov)
        out["M"] += weight * (a_rows.T @ white @ a_rows)
        out["u"] += weight * (a_rows.T @ white @ x)
        out["q"].append(weight * float(x @ white @ x))
        out["norm"].append(-0.5 * weight * (z.size * math.log(2.0 * math.pi) + logdet))
        out["mass"].append(weight)
    for key in ("q", "norm", "mass"):
        out[key] = math.fsum(out[key])
    out["n"] = n
    return out


def check_moments(stats, history, dictionary, cfg):
    want = explicit_moments(history, dictionary, cfg)
    failures = []
    if stats.n != want["n"]:
        failures.append(f"moments count {stats.n} steps; the history has {want['n']}")
    scale_m = float(np.max(np.abs(want["M"])))
    scale_u = float(np.max(np.abs(want["u"])))
    pairs = (
        ("M", stats.raw_M, want["M"], scale_m),
        ("u", stats.raw_u, want["u"], scale_u),
        ("q", stats.raw_q, want["q"], abs(want["q"])),
        ("norm", stats.raw_norm, want["norm"], abs(want["norm"])),
        ("mass", stats.mass, want["mass"], want["mass"]),
    )
    for name, got, expected, scale in pairs:
        err = float(np.max(np.abs(np.asarray(got) - expected)))
        if not err <= 1e-8 * scale:
            failures.append(f"decayed {name} off the explicit sum by {err:.3g} (scale {scale:.3g})")
    return failures


def check_subsets(outcomes, p: int, m: int):
    """Every observed subset has m distinct in-range indices; each planned one is a top m."""
    failures = []
    for i, out in enumerate(outcomes):
        z = np.asarray(out.z)
        if z.size != m or np.unique(z).size != m or z.min() < 0 or z.max() >= p:
            failures.append(f"step {out.step}: subset {z.tolist()} is not {m} distinct indices in [0, {p})")
            continue
        if i == 0:
            continue
        plan = outcomes[i - 1].next_plan
        if plan is None or not np.array_equal(np.sort(plan.z), np.sort(z)):
            failures.append(f"step {out.step}: observed subset is not the one planned")
            continue
        scores = plan.scores
        rest = np.delete(scores, z)
        if rest.size and scores[z].min() < rest.max():
            failures.append(f"step {out.step}: subset is not the top {m} of the plan's scores")
    return failures[:5]


def check_finite_stats(outcomes):
    bad = [out.step for out in outcomes if not math.isfinite(out.stat)]
    return [f"non-finite statistic at steps {bad[:5]}"] if bad else []


def check_localized(alpha, column: int):
    """The changed column ends above 0.5 and no other column ends above it."""
    alpha = np.asarray(alpha)
    if not (alpha[column] > 0.5 and alpha[column] >= alpha.max()):
        return [f"changed column {column} ends at inclusion probability {alpha[column]:.3g}; "
                f"column {int(alpha.argmax())} is at {alpha.max():.3g}"]
    return []


def other_columns_above_half(alpha, column: int) -> list[int]:
    """Columns other than the changed one whose inclusion probability is above 0.5."""
    return [int(j) for j in np.flatnonzero(np.asarray(alpha) > 0.5) if j != column]
