"""Basis dictionaries for the smooth-background / sparse-anomaly decomposition.

The monitored signal is modeled as a smooth background expanded on ``b_b``
plus a sparse departure expanded on ``b_a``.  This module builds the standard
dictionaries used by the synthetic studies (Fourier backgrounds, B-spline
anomaly bases, Kronecker products for gridded data, PCA bases learned from
training data), and saves and loads bases as CSV.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass

import numpy as np

from .errors import DataError, DimensionError, _count

__all__ = [
    "BasisDictionary",
    "fourier_basis",
    "bspline_basis",
    "kron_basis",
    "pca_basis",
    "identity_anomaly_basis",
    "save_basis_csv",
    "load_basis_csv",
]


# ── Domain types ──────────────────────────────────────────────────────────


@dataclass(frozen=True, eq=False)
class BasisDictionary:
    """Background basis ``b_b`` (p×k_b) and anomaly basis ``b_a`` (p×k_a).

    ``k_b = 0`` (no background) is allowed; ``b_b`` is then a p×0 matrix.
    Every entry must be finite.  Both matrices are private read-only copies,
    so ``content_key``, a digest of their shapes and bytes, names the content
    for as long as it lives: dictionaries of one content compare and hash
    equal and share cached per-subset geometry, whatever object (or
    unpickled copy) carries them.  ``b_a_sq`` is the read-only entrywise
    square of ``b_a``, which sensing reads every step; it follows from
    ``b_a``, so the digest leaves it out.  Unpickling, as a pool worker
    receives its dictionary, runs the checked constructor again, so the
    key of every geometry table and oracle scorer is recomputed from the
    matrices, never read from the pickle.
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

    def __reduce__(self):
        return type(self), (self.b_b, self.b_a)

    def __eq__(self, other):
        return other.__class__ is self.__class__ and self.content_key == other.content_key

    def __hash__(self) -> int:
        return hash(self.content_key)

    @property
    def p(self) -> int:
        return self.b_a.shape[0]

    @property
    def k_b(self) -> int:
        return self.b_b.shape[1]

    @property
    def k_a(self) -> int:
        return self.b_a.shape[1]


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
    t = np.arange(_count("p", p))
    _count("k", k, 1, p)
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
    _count("p", p)
    _count("n_knots", n_knots, 2 * _count("order", order))
    h = 1.0 / (n_knots - 2 * order + 1)
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
    _count("k", k, 1, min(p, n_train))
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
    return np.eye(_count("p", p))


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
