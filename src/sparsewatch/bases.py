"""Basis dictionaries for the smooth-background / sparse-anomaly decomposition.

The monitored signal is modeled as a smooth background expanded on ``b_b``
plus a sparse departure expanded on ``b_a``.  This module builds the standard
dictionaries used by the synthetic studies (Fourier backgrounds, B-spline
anomaly bases, Kronecker products for gridded data, PCA bases learned from
training data) and provides a diagnostic for how close the two dictionaries
are to mutual orthogonality under subsampled observation.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass

import numpy as np

from .errors import DataError, DimensionError

__all__ = [
    "BasisDictionary",
    "OrthogonalityReport",
    "fourier_basis",
    "bspline_basis",
    "kron_basis",
    "pca_basis",
    "identity_anomaly_basis",
    "check_orthogonality",
    "save_basis_csv",
    "load_basis_csv",
]


# ── Domain types ──────────────────────────────────────────────────────────


@dataclass(frozen=True)
class BasisDictionary:
    """Background basis ``b_b`` (p×k_b) and anomaly basis ``b_a`` (p×k_a).

    ``k_b = 0`` (no background) is allowed; ``b_b`` is then a p×0 matrix.
    Every entry must be finite.  Both matrices are private read-only copies,
    so ``content_key``, a digest of their shapes and bytes, names the content
    for as long as it lives: equal dictionaries share cached per-subset
    geometry, whatever object (or unpickled copy) carries them.  ``b_a_sq``
    is the read-only entrywise square of ``b_a``, which sensing reads every
    step; it follows from ``b_a``, so the digest leaves it out.
    """

    b_b: np.ndarray
    b_a: np.ndarray

    def __post_init__(self):
        b_b = np.array(np.atleast_2d(self.b_b), dtype=np.float64, order="C")
        b_a = np.array(np.atleast_2d(self.b_a), dtype=np.float64, order="C")
        object.__setattr__(self, "b_b", b_b)
        object.__setattr__(self, "b_a", b_a)
        if b_b.ndim != 2 or b_a.ndim != 2:
            raise DimensionError("basis matrices must be two-dimensional")
        if b_b.shape[0] != b_a.shape[0]:
            raise DimensionError(
                f"row counts disagree: b_b has {b_b.shape[0]}, b_a has {b_a.shape[0]}"
            )
        if b_a.shape[1] == 0:
            raise DimensionError("anomaly basis must have at least one column")
        for name, mat in (("background basis b_b", b_b), ("anomaly basis b_a", b_a)):
            bad = np.argwhere(~np.isfinite(mat))
            if bad.size:
                row, col = bad[0]
                raise DataError(
                    f"{name} has a non-finite entry {mat[row, col]} at row {row}, column {col}"
                )
        if b_b.shape[1] > b_b.shape[0]:
            raise DimensionError("background basis has more columns than rows")
        if b_b.shape[1] > 0 and np.linalg.matrix_rank(b_b) < b_b.shape[1]:
            raise DimensionError("background basis is column-rank deficient")
        col_norms = np.linalg.norm(b_a, axis=0)
        if np.any(col_norms == 0.0):
            raise DimensionError("anomaly basis contains an all-zero column")
        digest = hashlib.blake2b(digest_size=16)
        for mat in (b_b, b_a):
            mat.flags.writeable = False
            digest.update(np.array(mat.shape, dtype=np.int64).tobytes())
            digest.update(mat.tobytes())
        object.__setattr__(self, "content_key", digest.digest())
        b_a_sq = b_a * b_a
        b_a_sq.flags.writeable = False
        object.__setattr__(self, "b_a_sq", b_a_sq)

    def __setstate__(self, state):
        # Unpickled arrays come back writable; keep the content fixed.
        self.__dict__.update(state)
        for mat in (self.b_b, self.b_a, self.b_a_sq):
            mat.flags.writeable = False

    @property
    def p(self) -> int:
        return self.b_a.shape[0]

    @property
    def k_b(self) -> int:
        return self.b_b.shape[1]

    @property
    def k_a(self) -> int:
        return self.b_a.shape[1]


@dataclass(frozen=True)
class OrthogonalityReport:
    """Diagnostics for approximate cross-orthogonality under subsampling.

    ``coherence`` is the largest column coherence p·max_i(b_i²)/‖b‖₂² over the
    columns of both dictionaries; the admissible sensing-budget range
    [m_admissible_lo, m_admissible_hi] is the window in which the subsampled
    cross inner products concentrate within ±epsilon with probability at least
    1 − 2·delta under uniform random subsets.
    """

    max_abs_inner_full: float
    max_abs_inner_sampled: float
    epsilon: float
    delta: float
    coherence: float
    m: int
    m_admissible_lo: float
    m_admissible_hi: float
    band_ok: bool
    coherence_bound_ok: bool


# ── Constructors ──────────────────────────────────────────────────────────


def fourier_basis(p: int, k: int) -> np.ndarray:
    """Lowest-frequency discrete Fourier columns on the grid t = 0..p−1.

    Columns come in cosine/sine pairs per frequency, lowest frequency first
    (no constant column), each normalized to unit Euclidean norm.

    Parameters
    ----------
    p : int
        Number of rows (grid points).
    k : int
        Number of columns; must not exceed p, and must not reach a
        degenerate (identically zero) sine mode.

    Returns
    -------
    ndarray, shape (p, k)
    """
    if p < 1 or k < 1:
        raise DimensionError("p and k must be positive")
    if k > p:
        raise DimensionError(f"cannot build {k} Fourier columns on {p} points")
    t = np.arange(p)
    cols = []
    freq = 1
    while len(cols) < k:
        for trig in (np.cos, np.sin):
            if len(cols) == k:
                break
            col = trig(2.0 * np.pi * freq * t / p)
            norm = np.linalg.norm(col)
            if norm < 1e-12 * math.sqrt(p):
                raise DimensionError(
                    f"frequency {freq} produces a degenerate column at p={p}"
                )
            cols.append(col / norm)
        freq += 1
    return np.column_stack(cols)


def _cox_de_boor(x: np.ndarray, knots: np.ndarray, order: int) -> np.ndarray:
    """All B-spline basis functions of the given order on the knot vector.

    Zero-degree pieces are indicators of half-open spans [t_i, t_{i+1}); the
    right endpoint of the final span is closed so the last grid point is not
    dropped.
    """
    n_funcs = len(knots) - 1
    basis = np.zeros((len(x), n_funcs))
    for i in range(n_funcs):
        left, right = knots[i], knots[i + 1]
        inside = (x >= left) & (x < right)
        if i == n_funcs - 1:
            inside |= x == right
        basis[:, i] = inside.astype(float)
    for d in range(1, order):
        nxt = np.zeros((len(x), n_funcs - d))
        for i in range(n_funcs - d):
            denom1 = knots[i + d] - knots[i]
            denom2 = knots[i + d + 1] - knots[i + 1]
            term = 0.0
            if denom1 > 0:
                term = (x - knots[i]) / denom1 * basis[:, i]
            if denom2 > 0:
                term = term + (knots[i + d + 1] - x) / denom2 * basis[:, i + 1]
            nxt[:, i] = term
        basis = nxt
    return basis


def bspline_basis(
    p: int, order: int, n_knots: int, normalize_columns: bool = False
) -> np.ndarray:
    """Uniform B-spline basis evaluated on p equally spaced points in [0, 1].

    Produces k = n_knots − order columns.  The knot vector is uniform and
    extends (order − 1) spacings beyond each side of [0, 1] so that the
    evaluation interval lies entirely inside the partition-of-unity region:
    every row sums to 1 and boundary rows are nonzero.

    Parameters
    ----------
    p : int
        Number of evaluation points.
    order : int
        Spline order (degree + 1); order 4 gives cubic splines.
    n_knots : int
        Knot count; must satisfy n_knots ≥ 2·order so that at least one
        full-support span covers the unit interval.
    normalize_columns : bool
        If True, scale each column to unit Euclidean norm (the raw partition
        of unity is then lost).

    Returns
    -------
    ndarray, shape (p, n_knots − order)
    """
    if p < 1 or order < 1:
        raise DimensionError("p and order must be positive")
    if n_knots < order + 1:
        raise DimensionError(
            f"need at least {order + 1} knots for order {order}, got {n_knots}"
        )
    n_spans = n_knots - 2 * order + 1
    if n_spans < 1:
        raise DimensionError(
            f"order {order} with {n_knots} knots leaves no interior span on [0, 1]"
        )
    h = 1.0 / n_spans
    knots = (np.arange(n_knots) - (order - 1)) * h
    x = np.linspace(0.0, 1.0, p)
    basis = _cox_de_boor(x, knots, order)
    if normalize_columns:
        basis = basis / np.linalg.norm(basis, axis=0)
    return basis


def kron_basis(b1: np.ndarray, b2: np.ndarray) -> np.ndarray:
    """Kronecker product basis for gridded (image-like) data.

    Entry ((i1·p2 + i2), (j1·k2 + j2)) equals b1[i1, j1]·b2[i2, j2], matching
    row-major vectorization of a p1×p2 grid.
    """
    b1 = np.atleast_2d(np.asarray(b1, dtype=np.float64))
    b2 = np.atleast_2d(np.asarray(b2, dtype=np.float64))
    if b1.size == 0 or b2.size == 0:
        raise DimensionError("kron_basis requires nonempty factors")
    return np.kron(b1, b2)


def pca_basis(training: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray, float]:
    """Top-k principal directions of column-centered training data.

    Parameters
    ----------
    training : ndarray, shape (p, n_train)
        One training sample per column.
    k : int
        Number of components; must not exceed the rank of the centered data.

    Returns
    -------
    (directions, scores, noise_std)
        directions : ndarray, shape (p, k) — orthonormal columns.
        scores : ndarray, shape (k, n_train) — projections of the centered
        samples.
        noise_std : float — residual standard deviation after removing the
        k-component reconstruction, with (p − k)·n_train degrees of freedom.
    """
    training = np.atleast_2d(np.asarray(training, dtype=np.float64))
    p, n_train = training.shape
    if n_train < 2:
        raise DimensionError("need at least two training samples")
    if k < 1 or k > min(p, n_train):
        raise DimensionError(f"k={k} out of range for a {p}x{n_train} training matrix")
    centered = training - training.mean(axis=1, keepdims=True)
    u, s, _ = np.linalg.svd(centered, full_matrices=False)
    # Rank guard: asking for directions past the data's rank is ill-posed.
    tol = max(p, n_train) * np.finfo(float).eps * (s[0] if s.size else 0.0)
    rank = int(np.sum(s > tol))
    if k > rank:
        raise DimensionError(f"k={k} exceeds the training data rank {rank}")
    directions = u[:, :k]
    scores = directions.T @ centered
    residual = centered - directions @ scores
    dof = (p - k) * n_train
    noise_std = float(np.linalg.norm(residual) / math.sqrt(dof)) if dof > 0 else 0.0
    return directions, scores, noise_std


def identity_anomaly_basis(p: int) -> np.ndarray:
    """Identity anomaly basis: sparse changes on the raw coordinates."""
    if p < 1:
        raise DimensionError("p must be positive")
    return np.eye(p)


# ── Diagnostics ───────────────────────────────────────────────────────────


def check_orthogonality(
    dictionary: BasisDictionary,
    subset: np.ndarray,
    epsilon: float,
    delta: float,
    coherence_cap: float | None = None,
) -> OrthogonalityReport:
    """Cross-orthogonality diagnostic for a given observation subset.

    Computes the largest |b_ai' b_bj| over all column pairs, both on all p
    rows and restricted to the subset ``Z``; the column coherence constant;
    and the admissible budget window
    c²/(2ε²)·log((k_a+k_b)²/δ) ≤ m ≤ 2·(m/p)²·p²·ε² / (c²·log((k_a+k_b)²/δ))
    within which subsampled inner products of near-orthogonal unit columns
    stay inside ±ε with probability ≥ 1 − 2δ (uniform sampling, so the
    inclusion probabilities are all m/p).

    ``band_ok`` flags whether every sampled cross inner product satisfies
    |b_aiZ' b_bjZ| ≤ ε; ``coherence_bound_ok`` flags whether every column's
    coherence is within ``coherence_cap`` (defaults to p, the widest value
    for which the concentration argument applies).
    """
    if not (0.0 < epsilon <= 1.0) or not (0.0 < delta <= 1.0):
        raise DimensionError("epsilon and delta must lie in (0, 1]")
    z = np.asarray(subset, dtype=np.intp).ravel()
    if z.size == 0:
        raise DimensionError("subset must be nonempty")
    p = dictionary.p
    if np.any(z < 0) or np.any(z >= p):
        raise IndexError("subset index out of range")
    if np.unique(z).size != z.size:
        raise DimensionError("subset indices must be distinct")

    b_a, b_b = dictionary.b_a, dictionary.b_b
    m = int(z.size)
    if dictionary.k_b > 0:
        cross_full = b_a.T @ b_b
        cross_samp = b_a[z].T @ b_b[z]
        max_full = float(np.max(np.abs(cross_full)))
        max_samp = float(np.max(np.abs(cross_samp)))
    else:
        max_full = 0.0
        max_samp = 0.0

    cols = np.hstack([b_a, b_b]) if dictionary.k_b > 0 else b_a
    sq = cols * cols
    coherence = float(np.max(p * sq.max(axis=0) / sq.sum(axis=0)))
    cap = float(p) if coherence_cap is None else float(coherence_cap)

    n_cols = dictionary.k_a + dictionary.k_b
    log_term = math.log(n_cols * n_cols / delta)
    m_lo = coherence**2 / (2.0 * epsilon**2) * log_term
    a_p = m / p
    m_hi = 2.0 * a_p**2 * p**2 * epsilon**2 / (coherence**2 * log_term)

    return OrthogonalityReport(
        max_abs_inner_full=max_full,
        max_abs_inner_sampled=max_samp,
        epsilon=float(epsilon),
        delta=float(delta),
        coherence=coherence,
        m=m,
        m_admissible_lo=m_lo,
        m_admissible_hi=m_hi,
        band_ok=max_samp <= epsilon,
        coherence_bound_ok=coherence <= cap,
    )


# ── Serialization ─────────────────────────────────────────────────────────


def save_basis_csv(path, basis: np.ndarray) -> None:
    """Write a basis matrix as CSV: first line ``p,k``, then p value rows.

    Values use 17 significant digits, so a load round-trips bit exactly.
    """
    basis = np.atleast_2d(np.asarray(basis, dtype=np.float64))
    p, k = basis.shape
    with open(path, "w", encoding="ascii") as fh:
        fh.write(f"{p},{k}\n")
        for row in basis:
            fh.write(",".join(f"{v:.17g}" for v in row) + "\n")


def load_basis_csv(path) -> np.ndarray:
    """Read a basis matrix written by :func:`save_basis_csv`."""
    with open(path, "r", encoding="ascii") as fh:
        header = fh.readline().strip()
        try:
            p, k = (int(tok) for tok in header.split(","))
        except ValueError as exc:
            raise DimensionError(f"malformed basis header {header!r}") from exc
        data = np.loadtxt(fh, delimiter=",", ndmin=2)
    if data.shape != (p, k):
        raise DimensionError(
            f"basis payload shape {data.shape} does not match header ({p}, {k})"
        )
    return data
