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
step share.  A hit returns the stored geometry itself, whose arrays are
read-only, so a cached geometry equals a fresh one byte for byte.

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


def _build(dictionary: BasisDictionary, sigma_e2: float, sigma_b2: float, z) -> SubsetGeometry:
    """Check the subset and factor its background rows by one thin SVD.

    An ascending subset, the form every sensing plan takes, needs only its
    ends and one comparison of neighbours checked.  Both products in
    ``m_c`` have the form x'x, which numpy computes as symmetric rank-k
    updates, so ``m_c`` is exactly symmetric as built.
    """
    p = dictionary.p
    if z.size and not (z[0] >= 0 and z[-1] < p and (z[1:] > z[:-1]).all()):
        if z.min() < 0 or z.max() >= p:
            raise IndexError("observation subset index out of range")
        if np.unique(z).size != z.size:
            raise DimensionError("observation subset indices must be distinct")
    b_a_z = dictionary.b_a[z]
    b_b_z = dictionary.b_b[z]
    u_mat, svals, vt = np.linalg.svd(b_b_z, full_matrices=False)
    kappa = sigma_e2 / sigma_b2
    sq = svals * svals
    s2_kappa = sq + kappa
    c = sq / s2_kappa
    g = (vt.T * (svals / s2_kappa)) @ u_mat.T
    logdet_w = float(np.sum(np.log(kappa / s2_kappa)))
    k = np.sqrt(c)[:, None] * (u_mat.T @ b_a_z)
    m_c = b_a_z.T @ b_a_z - k.T @ k
    basis = _rank_cut(u_mat, svals, b_b_z.shape)
    col_sq = (b_a_z * b_a_z).sum(axis=0)
    geometry = SubsetGeometry(b_a_z, b_b_z, g, m_c, logdet_w, basis, col_sq, vt, c)
    for arr in _arrays(geometry):
        arr.flags.writeable = False
    return geometry


def _arrays(geometry: SubsetGeometry):
    return [field for field in geometry if isinstance(field, np.ndarray)]


def _entry_bytes(geometry: SubsetGeometry) -> int:
    """Bytes one cached geometry holds, from the fields it stores.

    Beyond its data, ``tracemalloc`` (numpy 2.4, CPython 3.11, 64-bit)
    measures 104 B per array object and 16 B per dimension for its shape
    and strides, and 200 B per entry for the tuple, its float, the index
    bytes that key it and the table's share of slots.
    """
    return 200 + sum(arr.nbytes + 104 + 16 * arr.ndim for arr in _arrays(geometry))


class _GeometryCache:
    """Per-process store behind ``subset_geometry``.

    ``table`` maps a subset's index bytes to its geometry, for the current
    combination ``key``; it is None when the combination's C(p, m) subsets
    exceed the budget.  ``last`` is the latest geometry.  A geometry is
    registered once built, under ``lock``.
    """

    def __init__(self, budget: int):
        self.budget = budget
        self.lock = threading.Lock()
        self.clear()

    def clear(self) -> None:
        with self.lock:
            self.key = None
            self.table: dict[bytes, SubsetGeometry] | None = None
            self.capacity = 0
            self.last = None

    def lookup(self, dictionary, sigma_e2: float, sigma_b2: float, z: np.ndarray):
        key = (dictionary.content_key, sigma_e2, sigma_b2, z.size)
        z_key = z.tobytes()
        last = self.last
        if last is not None and last[1] == z_key and last[0] == key:
            return last[2]
        with self.lock:
            table = self.table if key == self.key else None
            geometry = None if table is None else table.get(z_key)
            if geometry is None:
                geometry = _build(dictionary, sigma_e2, sigma_b2, z)
                if key != self.key:
                    # Every subset's geometry has the first one's shapes.
                    self.key, self.capacity = key, math.comb(dictionary.p, z.size)
                    fits = self.capacity * _entry_bytes(geometry) <= self.budget
                    self.table = table = {} if fits else None
                # A permuted subset is an entry of its own, so the table can fill.
                if table is not None and len(table) < self.capacity:
                    table[z_key] = geometry
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
