"""Whitening of one observed subset, built once and read by a monitoring step.

A step's absorb and monitoring statistic read the same m observed rows from
the dictionary and whiten them by what depends on (dictionary, sigma_e^2,
sigma_b^2, z) alone.  A process keeps those geometries in a cache keyed on
content: the dictionary's digest (``BasisDictionary.content_key``), the two
variances and the subset's indices in the caller's order, never object
identity, so pool workers that unpickle a fresh dictionary per task still
share them.  The cache keeps the latest geometry, which the layers of one
step share, and the table of one (dictionary, variances, m) combination:
each field of all C(p, m) ascending subsets stacked along a leading rank
axis, read-only, and an index from a subset's index bytes to its rank.
Only ``build_geometry_table`` builds a table, and only when it fits
``CACHE_BUDGET_BYTES``, as estimated from the shapes alone; ``engine``
calls it for each replicated run, the CLI monitor before its loop.  A lookup
returns the latest geometry, a row of the held table, or its subset built
alone, as is every subset of a combination the budget refuses (such as
p = 400 with m = 20); ``_stacked_geometry`` gathers a batch's rows, or
builds the batch in one stacked pass.  A stacked build runs, block by
block, a single build's SVD, products and sums, so its rows, and a
table's, equal single builds byte for byte and outputs do not depend on
the cache.

A geometry is built from one thin SVD of the observed background rows,
B_bZ = U·S·V' with r = min(m, k_b) singular values s_i.  With
kappa = sigma_e^2/sigma_b^2 and c_i = s_i^2/(s_i^2 + kappa), the Woodbury
identity gives every field in closed form at any rank, also when m < k_b:
the whitening matrix is W = I − U·diag(c)·U' and its log determinant is
Σ ln(kappa/(s_i^2 + kappa)).  The same SVD, cut at its numerical rank, is
the orthonormal basis of the observed background columns.  The background
refit and the exact routes look no geometry up: they check their subset
with ``checked_subset`` and solve with B_aZ and B_bZ from the dictionary.
"""

from __future__ import annotations

import itertools
import math
import threading
from typing import NamedTuple

import numpy as np

from .bases import BasisDictionary
from .errors import DimensionError

__all__ = [
    "CACHE_BUDGET_BYTES",
    "SubsetGeometry",
    "subset_geometry",
    "build_geometry_table",
    "clear_geometry_cache",
]

CACHE_BUDGET_BYTES = 32 << 20

_EPS = np.finfo(np.float64).eps


class SubsetGeometry(NamedTuple):
    """The whitening of one observed subset, as a step reads it; all read-only.

    With the observed anomaly rows B_aZ, the thin SVD B_bZ = U·S·V', kappa
    and c_i as in the module docstring:

        m_c       B_aZ'·W·B_aZ = B_aZ'B_aZ − K'K with K = diag(√c)·U'B_aZ
                  (k_a×k_a), one step's contribution to M
        logdet_w  ln det W = Σ ln(kappa/(s_i^2 + kappa))
        basis     U, zero past its numerical rank and padded with zero
                  columns to m×k_b, so basis·basis' is the projection onto
                  the observed background columns even when the rows are
                  rank-deficient
        c         the c_i at the basis's width (k_b,), zero past r, so
                  W·x = x − basis·(c ∘ basis'x)
        col_sq    column sums of squares of B_aZ (k_a,)
    """

    m_c: np.ndarray
    logdet_w: float
    basis: np.ndarray
    c: np.ndarray
    col_sq: np.ndarray


def _rank_cut(u_mat: np.ndarray, svals: np.ndarray, shape) -> np.ndarray:
    """Left singular vectors of a thin SVD, zeroed past the rank cut, as an
    array of the factored block's ``shape`` (m×k_b, or a stack of them).

    The cut is max(m, k_b)·eps·(largest singular value), so basis·basis'
    projects onto the block's columns at any rank.  When the cut keeps every
    column and U already has that shape, U itself is the basis; for a single
    block the singular values descend, so the smallest decides that.
    """
    if u_mat.shape == shape and svals.ndim == 1:
        if not svals.size or svals[-1] > max(shape) * _EPS * svals[0]:
            return u_mat
    keep = svals > max(shape[-2:]) * _EPS * svals[..., :1]
    if u_mat.shape == shape and keep.all():
        return u_mat
    basis = np.zeros(shape)
    basis[..., : svals.shape[-1]] = np.where(keep[..., None, :], u_mat, 0.0)
    return basis


def column_bases(b_b_z: np.ndarray) -> np.ndarray:
    """Orthonormal bases of the column spaces of one m×k_b block or a stack of them.

    A stack is one SVD call, which factors block by block, so each basis is
    bitwise the one ``_build`` cuts from its own SVD of that block.
    """
    u_mat, svals, _ = np.linalg.svd(b_b_z, full_matrices=False)
    return _rank_cut(u_mat, svals, b_b_z.shape)


def subset_indices(z) -> np.ndarray:
    """An observed subset as a 1-D intp index vector.

    Raises DimensionError for indices of a non-integer dtype, which a
    plain conversion to intp would truncate (1.5 to 1) without a word.
    """
    z = np.asarray(z)
    if z.dtype != np.intp:
        if z.dtype.kind not in "iu" and z.size:
            raise DimensionError(f"observation subset indices must be integers, got dtype {z.dtype}")
        z = z.astype(np.intp)
    return z.ravel()


def checked_subset(z, p: int) -> np.ndarray:
    """``subset_indices(z)``, refused with IndexError for an index out of
    range (negative or ≥ p) and DimensionError for a repeated one.

    An ascending subset, the form every sensing plan takes, needs only its
    ends and one comparison of neighbours checked.
    """
    z = subset_indices(z)
    if z.size and not (z[0] >= 0 and z[-1] < p and not np.count_nonzero(z[1:] <= z[:-1])):
        if z.min() < 0 or z.max() >= p:
            raise IndexError("observation subset index out of range")
        if np.unique(z).size != z.size:
            raise DimensionError("observation subset indices must be distinct")
    return z


def _build(dictionary: BasisDictionary, sigma_e2: float, sigma_b2: float, z) -> SubsetGeometry:
    """Factor the background rows of the subset ``z`` (m,) by one thin SVD,
    or of every subset of a stack ``z`` (n, m), whose fields then gain the
    leading axis n and whose ``logdet_w`` is an array; the arrays are
    read-only.

    The stacked SVD, products and sums run block by block the operations
    of a single build, so each row of a stack equals that row's own build
    byte for byte.  Both products in ``m_c`` have the form x'x, which numpy
    computes as symmetric rank-k updates, so ``m_c`` is exactly symmetric
    as built.
    """
    b_a_z = dictionary.b_a.take(z, 0)
    b_b_z = dictionary.b_b.take(z, 0)
    u_mat, svals, _ = np.linalg.svd(b_b_z, full_matrices=False)
    kappa = sigma_e2 / sigma_b2
    sq = svals * svals
    s2_kappa = sq + kappa
    c = sq / s2_kappa
    u_t = u_mat.swapaxes(-1, -2)
    logdet_w = np.log(kappa / s2_kappa).sum(axis=-1)
    k = np.sqrt(c)[..., None] * (u_t @ b_a_z)
    m_c = b_a_z.swapaxes(-1, -2) @ b_a_z - k.swapaxes(-1, -2) @ k
    basis = _rank_cut(u_mat, svals, b_b_z.shape)
    pad = b_b_z.shape[-1] - c.shape[-1]
    if pad:  # m < k_b: zeros past r, as in the basis
        c = np.pad(c, [(0, 0)] * (c.ndim - 1) + [(0, pad)])
    col_sq = (b_a_z * b_a_z).sum(axis=-2)
    if z.ndim == 1:
        logdet_w = float(logdet_w)
    geometry = SubsetGeometry(m_c, logdet_w, basis, c, col_sq)
    for arr in geometry:
        if isinstance(arr, np.ndarray):
            arr.setflags(write=False)
    return geometry


# Subsets per stacked pass of a table build: enough to spread numpy's
# per-call cost, few enough that a pass's temporaries stay small.
_CHUNK = 128


def _entry_bytes(m: int, k_a: int, k_b: int) -> int:
    """Bytes one subset adds to a table, from the shapes alone.

    Its row of the five stacked fields, plus its index entry, which
    ``tracemalloc`` (CPython 3.11, 64-bit) measures as a bytes key of
    33 + 8·m B, a rank int of 28 B and about 48 B of dict slot.
    """
    floats = k_a * k_a + 1 + m * k_b + k_b + k_a
    return 8 * floats + (33 + 8 * m) + 28 + 48


class _Table(NamedTuple):
    """The geometries of the ascending subsets of one combination ``key``.

    ``fields`` holds every field stacked along a leading rank axis, read-only,
    and ``rank`` maps a subset's index bytes to its row.  A combination the
    budget does not admit has an empty ``rank`` and no ``fields``.
    """

    key: tuple
    rank: dict
    fields: SubsetGeometry | None

    def row(self, i: int) -> SubsetGeometry:
        f = self.fields
        return SubsetGeometry(f.m_c[i], f.logdet_w.item(i), f.basis[i], f.c[i], f.col_sq[i])


def _table(key: tuple, dictionary, sigma_e2: float, sigma_b2: float, m: int, budget: int) -> _Table:
    """Build the whole table of a combination if it fits ``budget``.

    The C(p, m) subsets go in lexicographic order, ``_CHUNK`` per stacked
    ``_build``, each pass copied into the preallocated stacks.
    """
    p = dictionary.p
    n = math.comb(p, m)
    if not 0 < n * _entry_bytes(m, dictionary.k_a, dictionary.k_b) <= budget:
        return _Table(key, {}, None)
    subsets = itertools.combinations(range(p), m)
    rank: dict[bytes, int] = {}
    fields = None
    for start in range(0, n, _CHUNK):
        rows = list(itertools.islice(subsets, _CHUNK))
        z = np.array(rows, dtype=np.intp).reshape(len(rows), m)
        part = _build(dictionary, sigma_e2, sigma_b2, z)
        if fields is None:
            fields = SubsetGeometry._make(np.empty((n,) + f.shape[1:]) for f in part)
        for whole, chunk in zip(fields, part):
            whole[start : start + len(rows)] = chunk
        rank.update((row.tobytes(), start + i) for i, row in enumerate(z))
    for arr in fields:
        arr.flags.writeable = False
    return _Table(key, rank, fields)


class _GeometryCache:
    """Per-process store behind ``subset_geometry``.

    ``table`` is the latest combination's ``_Table``, built whole, under
    ``lock``, by ``build`` when ``build_geometry_table`` asks for it;
    ``last`` is the latest geometry a lookup returned.
    """

    def __init__(self, budget: int):
        self.budget = budget
        self.lock = threading.Lock()
        self.clear()

    def clear(self) -> None:
        with self.lock:
            self.table: _Table | None = None
            self.last = None

    def build(self, dictionary, sigma_e2: float, sigma_b2: float, m: int) -> _Table:
        """The combination's table, built now unless it is the one held."""
        key = (dictionary.content_key, sigma_e2, sigma_b2, m)
        with self.lock:
            if self.table is None or self.table.key != key:
                self.table = _table(key, dictionary, sigma_e2, sigma_b2, m, self.budget)
            return self.table

    def lookup(self, dictionary, sigma_e2: float, sigma_b2: float, z: np.ndarray):
        key = (dictionary.content_key, sigma_e2, sigma_b2, z.size)
        z_key = z.tobytes()
        last = self.last
        if last is not None and last[0] == key and last[1] == z_key:
            return last[2]
        table = self.table
        i = None if table is None or table.key != key else table.rank.get(z_key)
        if i is None:
            checked_subset(z, dictionary.p)
            geometry = _build(dictionary, sigma_e2, sigma_b2, z)
        else:
            geometry = table.row(i)
        self.last = (key, z_key, geometry)
        return geometry


_CACHE = _GeometryCache(CACHE_BUDGET_BYTES)


def subset_geometry(
    dictionary: BasisDictionary, sigma_e2: float, sigma_b2: float, z
) -> SubsetGeometry:
    """Geometry of the observed rows ``z``, in the given order.

    Raises IndexError for an index out of range, DimensionError for a
    repeated or non-integer index.  Only a subset found in no table is
    checked for range and repeats, when it is built: a table holds valid
    subsets alone.
    """
    z = subset_indices(z)
    return _CACHE.lookup(dictionary, float(sigma_e2), float(sigma_b2), z)


def _stacked_geometry(
    dictionary: BasisDictionary, sigma_e2: float, sigma_b2: float, z: np.ndarray
) -> SubsetGeometry:
    """Geometries of the ascending subsets ``z`` (n, m), fields stacked on
    a leading axis: their rows of the held table, or one stacked build,
    whose rows are checked with ``subset_geometry``'s errors."""
    sigma_e2, sigma_b2 = float(sigma_e2), float(sigma_b2)
    table = _CACHE.table
    if table is not None and table.key == (dictionary.content_key, sigma_e2, sigma_b2, z.shape[1]):
        ranks = [table.rank.get(row.tobytes()) for row in z]
        if None not in ranks:
            return SubsetGeometry._make(field[ranks] for field in table.fields)
    for row in z:
        checked_subset(row, dictionary.p)
    return _build(dictionary, sigma_e2, sigma_b2, z)


def build_geometry_table(
    dictionary: BasisDictionary, sigma_e2: float, sigma_b2: float, m: int
) -> _Table:
    """Build the table of every m-subset's geometry, unless it is the one
    held, and return it: its ``fields`` stacked along a leading rank axis,
    read-only, and its ``rank`` from a subset's index bytes to its row.  A
    combination the budget refuses builds nothing and returns a table
    without fields; its subsets are then built alone.
    """
    return _CACHE.build(dictionary, float(sigma_e2), float(sigma_b2), int(m))


def clear_geometry_cache() -> None:
    """Forget every cached geometry of this process."""
    _CACHE.clear()
