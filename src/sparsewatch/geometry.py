"""Geometry of one observed subset, built once and shared by every layer.

A step's absorb and monitoring statistic, the background refit and the exact
routes all read the same m observed rows, and what they need depends on
(dictionary, sigma_e^2, sigma_b^2, z) alone.  A process keeps those
geometries in a cache keyed on content: the dictionary's digest
(``BasisDictionary.content_key``), the two variances and the subset's
indices in the caller's order, never object identity, so pool workers that
unpickle a fresh dictionary per task still share them.  The cache holds one
(dictionary, variances, m) combination at a time.  It admits a combination
when the table of all C(p, m) ascending subsets fits ``CACHE_BUDGET_BYTES``,
as estimated from the shapes alone, a property of the input; the
combination's first lookup then builds that whole table: each field stacked
along a leading rank axis, read-only, and an index from a subset's index
bytes to its rank.  A hit returns a geometry whose fields are its rank's
rows.  A subset in another order, and every subset of a combination not
admitted (such as p = 400 with m = 20), is built alone, and the latest such
geometry is kept, which the layers of one step share.  A table is built
``_CHUNK`` subsets per stacked pass of the same function that builds a
single geometry; its stacked SVD, products and sums run, block by block, a
single build's operations, so a row equals that subset's own build byte for
byte and outputs do not depend on the cache.

A geometry is built from one thin SVD of the observed background rows,
B_bZ = U·S·V' with r = min(m, k_b) singular values s_i.  With
kappa = sigma_e^2/sigma_b^2 and c_i = s_i^2/(s_i^2 + kappa), the Woodbury
identity gives every field in closed form at any rank, also when m < k_b:
the whitening matrix is W = I − U·diag(c)·U', its log determinant is
Σ ln(kappa/(s_i^2 + kappa)), and the background precision's inverse is
sigma_b^2·(I − V·diag(c)·V').  The same SVD, cut at its numerical rank, is
the orthonormal basis of the observed background columns.
"""

from __future__ import annotations

import itertools
import math
import threading
from typing import NamedTuple

import numpy as np

from .bases import BasisDictionary
from .errors import DimensionError

__all__ = ["CACHE_BUDGET_BYTES", "SubsetGeometry", "subset_geometry", "clear_geometry_cache"]

CACHE_BUDGET_BYTES = 32 << 20

_EPS = np.finfo(np.float64).eps


class SubsetGeometry(NamedTuple):
    """What the per-step layers read from one observed subset; all read-only.

    With H = B_bZ'B_bZ/sigma_e^2 + I/sigma_b^2, the background precision
    given the subset's rows, and the thin SVD B_bZ = U·S·V', kappa and c_i
    as in the module docstring:

        g         H^{-1}·B_bZ'/sigma_e^2 = V·diag(s_i/(s_i^2 + kappa))·U'
                  (k_b×m): W = I − B_bZ·g whitens the decayed moments, and
                  g·x is the background mean
        m_c       B_aZ'·W·B_aZ = B_aZ'B_aZ − K'K with K = diag(√c)·U'B_aZ
                  (k_a×k_a), one step's contribution to M
        logdet_w  ln det W = Σ ln(kappa/(s_i^2 + kappa))
        basis     U, zero past its numerical rank and padded with zero
                  columns to m×k_b, so basis·basis' is the projection onto
                  the observed background columns even when the rows are
                  rank-deficient
        col_sq    column sums of squares of B_aZ (k_a,)
        vt, c     V' (r×k_b) and the c_i (r,), from which
                  ``inference.update_background`` forms the background
                  posterior covariance H^{-1} = sigma_b^2·(I − V·diag(c)·V');
                  no monitoring step reads it, so no build pays for it
    """

    b_a_z: np.ndarray
    b_b_z: np.ndarray
    g: np.ndarray
    m_c: np.ndarray
    logdet_w: float
    basis: np.ndarray
    col_sq: np.ndarray
    vt: np.ndarray
    c: np.ndarray


def _rank_cut(u_mat: np.ndarray, svals: np.ndarray, shape) -> np.ndarray:
    """Left singular vectors of a thin SVD, zeroed past the rank cut, as an
    array of the factored block's ``shape`` (m×k_b, or a stack of them).

    The cut is max(m, k_b)·eps·(largest singular value), so basis·basis'
    projects onto the block's columns at any rank.  When the cut keeps every
    column and U already has that shape, U itself is the basis.
    """
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


def _check(z: np.ndarray, p: int) -> None:
    """Raise for a subset index out of range or repeated.

    An ascending subset, the form every sensing plan takes, needs only its
    ends and one comparison of neighbours checked.
    """
    if z.size and not (z[0] >= 0 and z[-1] < p and (z[1:] > z[:-1]).all()):
        if z.min() < 0 or z.max() >= p:
            raise IndexError("observation subset index out of range")
        if np.unique(z).size != z.size:
            raise DimensionError("observation subset indices must be distinct")


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
    b_a_z = dictionary.b_a[z]
    b_b_z = dictionary.b_b[z]
    u_mat, svals, vt = np.linalg.svd(b_b_z, full_matrices=False)
    kappa = sigma_e2 / sigma_b2
    sq = svals * svals
    s2_kappa = sq + kappa
    c = sq / s2_kappa
    u_t = u_mat.swapaxes(-1, -2)
    g = (vt.swapaxes(-1, -2) * (svals / s2_kappa)[..., None, :]) @ u_t
    logdet_w = np.log(kappa / s2_kappa).sum(axis=-1)
    k = np.sqrt(c)[..., None] * (u_t @ b_a_z)
    m_c = b_a_z.swapaxes(-1, -2) @ b_a_z - k.swapaxes(-1, -2) @ k
    basis = _rank_cut(u_mat, svals, b_b_z.shape)
    col_sq = (b_a_z * b_a_z).sum(axis=-2)
    if z.ndim == 1:
        logdet_w = float(logdet_w)
    geometry = SubsetGeometry(b_a_z, b_b_z, g, m_c, logdet_w, basis, col_sq, vt, c)
    for arr in geometry:
        if isinstance(arr, np.ndarray):
            arr.flags.writeable = False
    return geometry


# Subsets per stacked pass of a table build: enough to spread numpy's
# per-call cost, few enough that a pass's temporaries stay small.
_CHUNK = 128


def _entry_bytes(m: int, k_a: int, k_b: int) -> int:
    """Bytes one subset adds to a table, from the shapes alone.

    Its row of the nine stacked fields, plus its index entry, which
    ``tracemalloc`` (CPython 3.11, 64-bit) measures as a bytes key of
    33 + 8·m B, a rank int of 28 B and about 48 B of dict slot.
    """
    r = min(m, k_b)
    floats = m * k_a + 3 * m * k_b + k_a * k_a + 1 + k_a + r * k_b + r
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
        return SubsetGeometry(
            f.b_a_z[i], f.b_b_z[i], f.g[i], f.m_c[i], f.logdet_w.item(i),
            f.basis[i], f.col_sq[i], f.vt[i], f.c[i],
        )


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

    ``table`` is the current combination's ``_Table``, built whole, under
    ``lock``, by the combination's first lookup; ``last`` is the latest
    geometry returned.
    """

    def __init__(self, budget: int):
        self.budget = budget
        self.lock = threading.Lock()
        self.clear()

    def clear(self) -> None:
        with self.lock:
            self.table: _Table | None = None
            self.last = None

    def lookup(self, dictionary, sigma_e2: float, sigma_b2: float, z: np.ndarray):
        key = (dictionary.content_key, sigma_e2, sigma_b2, z.size)
        z_key = z.tobytes()
        last = self.last
        if last is not None and last[1] == z_key and last[0] == key:
            return last[2]
        table = self.table
        if table is None or table.key != key:
            with self.lock:
                table = self.table
                if table is None or table.key != key:
                    table = _table(key, dictionary, sigma_e2, sigma_b2, z.size, self.budget)
                    self.table = table
        i = table.rank.get(z_key)
        if i is None:
            _check(z, dictionary.p)
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

    Raises IndexError or DimensionError for an index out of range or a
    repeated index.  Only a subset found in no table is checked, when it
    is built: a table holds valid subsets alone.
    """
    z = np.asarray(z, dtype=np.intp).ravel()
    return _CACHE.lookup(dictionary, float(sigma_e2), float(sigma_b2), z)


def clear_geometry_cache() -> None:
    """Forget every cached geometry of this process."""
    _CACHE.clear()
