"""Synthetic stream generation for run-length experiments.

A scenario fixes the generating model: background coefficients redrawn
i.i.d. N(0, sigma_b^2) every step, isotropic N(0, sigma_e^2) observation
noise, and, after an optional change point tau, a constant anomaly term
B_a·theta_a added to every subsequent step.  Streams are materialized as
full (horizon, p) arrays; the monitor reads only the coordinates it
planned to observe.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .bases import BasisDictionary
from .errors import DataError, DimensionError, _count, _number
from .inference import ModelConfig

__all__ = [
    "Scenario",
    "gen_stream",
    "save_stream_csv",
    "load_stream_csv",
]


@dataclass(frozen=True)
class Scenario:
    """Generating model for one monitored stream.

    Parameters
    ----------
    dictionary, cfg : the monitored model; generation uses its sigma_b and
        sigma_e and the two bases.
    tau : int or None
        Change point in [0, horizon): steps t > tau carry the anomaly.  None
        means no change ever occurs (a null stream).
    change : tuple of (index, magnitude)
        Anomaly coefficient entries, each index in [0, k_a) and each
        magnitude a finite number (``errors._number``: not a bool or a
        string); must be empty with tau=None, or ValueError is raised.
    horizon : int
        Number of steps to generate, at least 1.  ``tau``, ``horizon``, the
        change indices and the config's budget m (at most p) are checked by
        ``errors._count``, so a fraction or a bool is refused here, not when
        a stream is cut.
    random_change_basis : bool
        When true, the changed coordinate is drawn uniformly from the
        anomaly columns per replication, keeping the listed magnitude of the
        first change entry; its index need only be an integer of at least 0.
    """

    dictionary: BasisDictionary
    cfg: ModelConfig
    tau: int | None
    change: tuple = field(default=())
    horizon: int = 1000
    random_change_basis: bool = False

    def __post_init__(self):
        k_a = self.dictionary.k_a
        most = None if self.random_change_basis else k_a - 1
        change = tuple((int(_count("change index", j, 0, most)), _number("change magnitude", phi))
                       for j, phi in self.change)
        object.__setattr__(self, "change", change)
        for j, phi in change:
            if not math.isfinite(phi):
                raise ValueError(f"change entry ({j}, {phi}) has a non-finite magnitude")
        horizon = _count("horizon", self.horizon)
        if self.tau is not None:
            _count("tau", self.tau, 0, horizon - 1)
            if not change and not self.random_change_basis:
                raise ValueError("a change point needs change entries")
        elif change:
            raise ValueError("change entries need a change point: tau is None, so change must be empty")
        if self.random_change_basis and not change:
            raise ValueError("random_change_basis needs a magnitude entry")
        if self.cfg.k_a != k_a:
            raise DimensionError("config and dictionary disagree on k_a")
        _count("sensing budget m", self.cfg.m, 1, self.dictionary.p)


def realize_change_coefficient(
    scenario: Scenario, rng: np.random.Generator
) -> np.ndarray:
    """Anomaly coefficient vector for one replication.

    Fixed scenarios return the listed entries; with ``random_change_basis``
    the coordinate is drawn here (one rng call), so callers sharing the rng
    with ``gen_stream`` stay reproducible.
    """
    k_a = scenario.dictionary.k_a
    theta_a = np.zeros(k_a)
    if scenario.tau is None:
        return theta_a
    if scenario.random_change_basis:
        j = int(rng.integers(k_a))
        theta_a[j] = scenario.change[0][1]
    else:
        for j, phi in scenario.change:
            theta_a[j] += phi
    return theta_a


def gen_stream(scenario: Scenario, rep_seed) -> np.ndarray:
    """One full stream of shape (horizon, p).

    Row t−1 is step t; the anomaly enters rows tau onward (steps t > tau).
    ``rep_seed`` may be anything ``numpy.random.default_rng`` accepts.  Draw
    order is fixed (change coordinate, then background coefficients, then
    noise), so equal seeds give equal streams.
    """
    rng = np.random.default_rng(rep_seed)
    dictionary = scenario.dictionary
    p, k_b = dictionary.p, dictionary.k_b
    horizon = scenario.horizon

    theta_a = realize_change_coefficient(scenario, rng)
    coeffs = rng.normal(0.0, scenario.cfg.sigma_b, size=(horizon, k_b))
    stream = rng.normal(0.0, scenario.cfg.sigma_e, size=(horizon, p))
    if k_b:
        stream += coeffs @ dictionary.b_b.T
    if scenario.tau is not None:
        stream[scenario.tau :] += dictionary.b_a @ theta_a
    return stream


# ── CSV interchange ───────────────────────────────────────────────────────


def save_stream_csv(path, stream: np.ndarray) -> None:
    """Write a stream as CSV with header t,x1,...,xp and 1-based steps."""
    stream = np.atleast_2d(np.asarray(stream, dtype=np.float64))
    p = stream.shape[1]
    header = "t," + ",".join(f"x{i + 1}" for i in range(p))
    with open(path, "w", encoding="ascii") as fh:
        fh.write(header + "\n")
        for t, row in enumerate(stream, start=1):
            fh.write(str(t) + "," + ",".join(f"{v:.17g}" for v in row) + "\n")


def load_stream_csv(path) -> np.ndarray:
    """Read a stream written by ``save_stream_csv``; values round-trip exactly."""
    with open(path, "r", encoding="ascii") as fh:
        header = fh.readline().strip()
        cols = header.split(",")
        if not cols or cols[0] != "t" or any(
            c != f"x{i + 1}" for i, c in enumerate(cols[1:])
        ):
            raise DataError(f"unrecognized stream header: {header!r}")
        p = len(cols) - 1
        if p == 0:
            raise DataError("stream file has no variable columns")
        rows = []
        for lineno, line in enumerate(fh, start=2):
            line = line.strip()
            if not line:
                continue
            parts = line.split(",")
            if len(parts) != p + 1:
                raise DataError(f"line {lineno}: expected {p + 1} fields")
            try:
                # Empty cells mean the value is missing; they surface as NaN
                # and trip the monitor's data check only if actually observed.
                rows.append(
                    [math.nan if v.strip() == "" else float(v) for v in parts[1:]]
                )
            except ValueError as exc:
                raise DataError(f"line {lineno}: {exc}") from exc
    if not rows:
        raise DataError("stream file has no data rows")
    return np.asarray(rows, dtype=np.float64)
