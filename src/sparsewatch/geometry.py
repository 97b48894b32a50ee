"""Geometry of one observed subset, built once and shared by every layer.

A step's absorb and monitoring statistic, the background refit and the exact
routes all read the same m observed rows, and what they need depends on
(dictionary, sigma_e^2, sigma_b^2, z) alone.  A process keeps those
geometries in a cache keyed on content: the dictionary's digest
(``BasisDictionary.content_key``), the two variances and the subset's
indices in the caller's order, never object identity, so pool workers that
unpickle a fresh dictionary per task still share entries.  The cache holds
one (dictionary, variances, m) combination at a time, and only when all
C(p, m) of its subsets fit ``CACHE_BUDGET_BYTES``, a property of the input;
larger subset spaces keep just the latest geometry, which the layers of one
step share.  Every geometry, built or found, is read back from its packed
float64 row, so a cached geometry equals a fresh one byte for byte.
"""

from __future__ import annotations

import math
import threading
from functools import lru_cache
from typing import NamedTuple

import numpy as np
from scipy.linalg import cho_factor, cho_solve

from .bases import BasisDictionary
from .errors import DimensionError

__all__ = ["CACHE_BUDGET_BYTES", "SubsetGeometry", "subset_geometry", "clear_geometry_cache"]

CACHE_BUDGET_BYTES = 32 << 20


class SubsetGeometry(NamedTuple):
    """What the per-step layers read from one observed subset; all read-only.

    With H = B_bZ'B_bZ/sigma_e^2 + I/sigma_b^2, the background precision
    given the subset's rows:

        g         H^{-1}·B_bZ'/sigma_e^2 (k_b×m): W = I − B_bZ·g whitens the
                  decayed moments, and g·x is the background mean
        m_c       B_aZ'·W·B_aZ (k_a×k_a), one step's contribution to M
        logdet_w  ln det W = −k_b·ln sigma_b^2 − ln det H
        cov_b     H^{-1} (k_b×k_b), the background posterior covariance
        basis     orthonormal basis of the column space of B_bZ, from an SVD
                  and zero past its rank (m×k_b), so basis·basis' is the
                  projection onto the observed background columns even when
                  the rows are rank-deficient
        col_sq    column sums of squares of B_aZ (k_a,)
    """

    b_a_z: np.ndarray
    b_b_z: np.ndarray
    g: np.ndarray
    m_c: np.ndarray
    logdet_w: float
    cov_b: np.ndarray
    basis: np.ndarray
    col_sq: np.ndarray


@lru_cache(maxsize=8)
def _triangle(k_a: int):
    """(upper-triangle indices, k_a×k_a positions in the packed triangle).

    m_c is exactly symmetric (the mean of a matrix and its transpose), so
    its upper triangle holds it whole.
    """
    upper = np.triu_indices(k_a)
    where = np.empty((k_a, k_a), dtype=np.intp)
    where[upper] = np.arange(upper[0].size)
    where.T[upper] = where[upper]
    for arr in (*upper, where):
        arr.flags.writeable = False
    return upper, where


def _layout(row: np.ndarray, m: int, k_a: int, k_b: int):
    """Views (g, upper triangle of m_c, cov_b, basis, logdet slot) of a packed row.

    ``g`` is laid out column-major, as the Cholesky solve returns it, so its
    products sum in the same order however it was obtained.
    """
    a = m * k_b
    b = a + k_a * (k_a + 1) // 2
    c = b + k_b * k_b
    return (
        row[:a].reshape(m, k_b).T,
        row[a:b],
        row[b:c].reshape(k_b, k_b),
        row[c : c + a].reshape(m, k_b),
        row[c + a :],
    )


def column_bases(b_b_z: np.ndarray) -> np.ndarray:
    """Orthonormal bases of the column spaces of one m×k_b block or a stack of them.

    Left singular vectors past the rank cut max(m, k_b)·eps·(largest singular
    value) are zeroed, so basis·basis' projects onto the block's columns at
    any rank.  A stack is one SVD call, which factors block by block.
    """
    u_mat, svals, _ = np.linalg.svd(b_b_z, full_matrices=False)
    cut = max(b_b_z.shape[-2:]) * np.finfo(np.float64).eps * svals[..., :1]
    basis = np.zeros(b_b_z.shape)
    basis[..., : svals.shape[-1]] = np.where((svals > cut)[..., None, :], u_mat, 0.0)
    return basis


def _build(dictionary: BasisDictionary, sigma_e2: float, sigma_b2: float, z, row) -> None:
    """Check the subset, factor its background rows once, and fill the packed row."""
    if z.size and (z.min() < 0 or z.max() >= dictionary.p):
        raise IndexError("observation subset index out of range")
    if np.unique(z).size != z.size:
        raise DimensionError("observation subset indices must be distinct")
    b_a_z = dictionary.b_a[z]
    b_b_z = dictionary.b_b[z]
    m, k_b = b_b_z.shape
    g_out, m_out, cov_out, basis_out, logdet_out = _layout(row, m, dictionary.k_a, k_b)
    logdet_out[0] = 0.0
    w_a = b_a_z
    if k_b:
        h = b_b_z.T @ b_b_z / sigma_e2 + np.eye(k_b) / sigma_b2
        factor = cho_factor(h, lower=True, check_finite=False)
        g = cho_solve(factor, b_b_z.T / sigma_e2, check_finite=False)
        g_out[...] = g
        w_a = b_a_z - b_b_z @ (g @ b_a_z)
        cov = cho_solve(factor, np.eye(k_b), check_finite=False)
        cov_out[...] = 0.5 * (cov + cov.T)
        logdet_out[0] = -k_b * math.log(sigma_b2) - 2.0 * float(
            np.sum(np.log(np.diag(factor[0])))
        )
        basis_out[...] = column_bases(b_b_z)
    m_c = b_a_z.T @ w_a
    m_out[...] = (0.5 * (m_c + m_c.T))[_triangle(dictionary.k_a)[0]]


def _read(row: np.ndarray, dictionary: BasisDictionary, z: np.ndarray) -> SubsetGeometry:
    row = row.view()
    row.flags.writeable = False
    g, m_upper, cov_b, basis, logdet = _layout(row, z.size, dictionary.k_a, dictionary.k_b)
    b_a_z = dictionary.b_a[z]
    b_b_z = dictionary.b_b[z]
    col_sq = (b_a_z * b_a_z).sum(axis=0)
    m_c = m_upper[_triangle(dictionary.k_a)[1]]
    for arr in (b_a_z, b_b_z, col_sq, m_c):
        arr.flags.writeable = False
    return SubsetGeometry(b_a_z, b_b_z, g, m_c, float(logdet[0]), cov_b, basis, col_sq)


class _GeometryCache:
    """Per-process store behind ``subset_geometry``.

    ``rows`` maps a subset's index bytes to its row of ``slab``, for the
    current combination ``key``; ``slab`` is None when the combination's
    subset space exceeds the budget.  ``last`` is the latest geometry.  A
    row is written once, before it is registered, under ``lock``.
    """

    def __init__(self, budget: int):
        self.budget = budget
        self.lock = threading.Lock()
        self.clear()

    def clear(self) -> None:
        with self.lock:
            self.key = None
            self.rows: dict[bytes, int] = {}
            self.slab = None
            self.last = None

    def lookup(self, dictionary, sigma_e2: float, sigma_b2: float, z: np.ndarray):
        key = (dictionary.content_key, sigma_e2, sigma_b2, z.size)
        z_key = z.tobytes()
        last = self.last
        if last is not None and last[1] == z_key and last[0] == key:
            return last[2]
        k_a, k_b = dictionary.k_a, dictionary.k_b
        width = 2 * z.size * k_b + k_a * (k_a + 1) // 2 + k_b * k_b + 1
        with self.lock:
            if key != self.key:
                capacity = math.comb(dictionary.p, z.size)
                self.key, self.rows = key, {}
                fits = capacity * width * 8 <= self.budget
                self.slab = np.empty((capacity, width)) if fits else None
            index = self.rows.get(z_key)
            if index is not None:
                row = self.slab[index]
            elif self.slab is not None and len(self.rows) < len(self.slab):
                # A permuted subset is an entry of its own, so the slab can fill.
                row = self.slab[len(self.rows)]
                _build(dictionary, sigma_e2, sigma_b2, z, row)
                self.rows[z_key] = len(self.rows)
            else:
                row = np.empty(width)
                _build(dictionary, sigma_e2, sigma_b2, z, row)
        geometry = _read(row, dictionary, z)
        self.last = (key, z_key, geometry)
        return geometry


_CACHE = _GeometryCache(CACHE_BUDGET_BYTES)


def subset_geometry(
    dictionary: BasisDictionary, sigma_e2: float, sigma_b2: float, z
) -> SubsetGeometry:
    """Geometry of the observed rows ``z``, in the given order.

    Raises IndexError or DimensionError for an index out of range or a
    repeated index, checked when the geometry is built: a cached geometry
    was checked then.
    """
    z = np.asarray(z, dtype=np.intp).ravel()
    return _CACHE.lookup(dictionary, float(sigma_e2), float(sigma_b2), z)


def clear_geometry_cache() -> None:
    """Forget every cached geometry of this process."""
    _CACHE.clear()
