"""The benchmark's checks pass on real outputs and fail on corrupted ones.

    python3 -m pytest bench/test_checks.py -q
"""

from __future__ import annotations

import dataclasses
import math
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import checks  # noqa: E402
import workloads  # noqa: E402
from sparsewatch import engine, inference, simgen  # noqa: E402


@pytest.fixture(scope="module")
def p15():
    dictionary = workloads.p15_dictionary()
    return dictionary, workloads.model_config(dictionary, 5)


@pytest.fixture(scope="module")
def calibration():
    # Independent heavy-tailed statistics; 21 runs of 401 steps as in the studies.
    traj = np.random.default_rng(5).standard_normal((21, 401)) ** 2
    h, arl0 = engine.search_threshold(traj, 200.0, 0.05)
    return traj, h, arl0


def test_calibration_passes(calibration):
    traj, h, arl0 = calibration
    assert checks.check_calibration(traj, h, arl0, 200.0, 0.05) == []


@pytest.mark.parametrize("offset", [-1, 1])
def test_threshold_one_candidate_away_fails(calibration, offset):
    traj, h, arl0 = calibration
    values = np.unique(traj)
    moved = float(values[int(np.searchsorted(values, h)) + offset])
    assert checks.check_calibration(traj, moved, arl0, 200.0, 0.05)


def test_wrong_reported_arl_fails(calibration):
    traj, h, arl0 = calibration
    assert checks.check_calibration(traj, h, arl0 + 1.0 / 21, 200.0, 0.05)


@pytest.fixture(scope="module")
def cell(p15):
    dictionary, cfg = p15
    scenario = simgen.Scenario(dictionary=dictionary, cfg=cfg, tau=20, change=((0, 1.0),),
                               horizon=120, random_change_basis=True)
    summary, records = engine.evaluate(cfg, dictionary, 0.0035, scenario, 12, 3,
                                       return_records=True)
    return summary, records


def test_cell_passes(cell):
    summary, records = cell
    assert checks.check_cell(summary, records, 12, 20, 120) == []


def test_add_off_by_one_step_fails(cell):
    summary, records = cell
    corrupted = dataclasses.replace(summary, add=summary.add + 1.0)
    assert checks.check_cell(corrupted, records, 12, 20, 120)


def test_miscounted_records_fail(cell):
    summary, records = cell
    assert checks.check_cell(summary, records[:-1], 12, 20, 120)
    corrupted = dataclasses.replace(summary, n_censored=summary.n_censored + 1)
    assert checks.check_cell(corrupted, records, 12, 20, 120)


def test_delay_order_fails_on_inversion():
    assert checks.check_delay_order((10.0, 0.5), (2.0, 0.2)) == []
    assert checks.check_delay_order((2.0, 0.2), (10.0, 0.5))


def test_rerun_mismatch_fails(cell):
    _, records = cell
    assert checks.check_rerun(records, records[:2], "cell") == []
    changed = [dict(records[0], T=records[0]["T"] + 1)] + records[1:2]
    assert checks.check_rerun(records, changed, "cell")


@pytest.fixture(scope="module")
def monitored(p15):
    dictionary, cfg = p15
    scenario = simgen.Scenario(dictionary=dictionary, cfg=cfg, tau=20, change=((4, 1.0),),
                               horizon=60)
    stream = simgen.gen_stream(scenario, 7)
    state = engine.init(cfg, dictionary, h=math.inf, seed=8)
    outcomes = [engine.step(state, stream[t]) for t in range(scenario.horizon)]
    history = [(out.z, stream[out.step - 1][out.z]) for out in outcomes]
    return dictionary, cfg, state, outcomes, history


def test_moments_pass(monitored):
    dictionary, cfg, state, _, history = monitored
    assert checks.check_moments(state.stats, history, dictionary, cfg) == []


@pytest.mark.parametrize("dropped", [-1, -5])
def test_moments_from_a_dropped_step_fail(monitored, dropped):
    dictionary, cfg, state, _, history = monitored
    kept = history[:dropped] + (history[dropped + 1:] if dropped != -1 else [])
    stats = inference.DecayedStats.empty(dictionary.k_a)
    for z, x in kept:
        stats = inference.absorb_sample(stats, x, z, dictionary, cfg)
    assert checks.check_moments(stats, history, dictionary, cfg)
    # The sums themselves disagree, not only the step count.
    stats = dataclasses.replace(stats, n=len(history))
    assert checks.check_moments(stats, history, dictionary, cfg)


def test_subsets_pass(monitored):
    dictionary, _, _, outcomes, _ = monitored
    assert checks.check_subsets(outcomes, dictionary.p, 5) == []
    assert checks.check_finite_stats(outcomes) == []


def test_subset_with_repeated_index_fails(monitored):
    dictionary, _, _, outcomes, _ = monitored
    z = outcomes[10].z.copy()
    z[1] = z[0]
    corrupted = list(outcomes)
    corrupted[10] = dataclasses.replace(outcomes[10], z=z)
    assert checks.check_subsets(corrupted, dictionary.p, 5)


def test_subset_outside_the_top_m_fails(monitored):
    dictionary, _, _, outcomes, _ = monitored
    plan = outcomes[40].next_plan
    worst = int(np.argmin(plan.scores))
    assert worst not in plan.z
    z = np.sort(np.append(plan.z[1:], worst))
    corrupted = list(outcomes)
    corrupted[41] = dataclasses.replace(outcomes[41], z=z)
    corrupted[40] = dataclasses.replace(
        outcomes[40], next_plan=dataclasses.replace(plan, z=z))
    assert checks.check_subsets(corrupted, dictionary.p, 5)


def test_non_finite_statistic_fails(monitored):
    _, _, _, outcomes, _ = monitored
    corrupted = [dataclasses.replace(outcomes[0], stat=math.nan)] + outcomes[1:]
    assert checks.check_finite_stats(corrupted)


def test_localization():
    alpha = np.full(10, 0.1)
    alpha[4] = 0.9
    assert checks.check_localized(alpha, 4) == []
    alpha[7] = 0.6
    assert checks.check_localized(alpha, 4) == []
    assert checks.other_columns_above_half(alpha, 4) == [7]
    alpha[7] = 0.95
    assert checks.check_localized(alpha, 4)
    assert checks.check_localized(np.full(10, 0.1), 4)
