"""Shared fixtures: the standard desk-scale instances used across tests."""

from __future__ import annotations

import numpy as np
import pytest

from sparsewatch import (
    BasisDictionary,
    ModelConfig,
    bspline_basis,
    fourier_basis,
    inference,
    kron_basis,
)


@pytest.fixture(scope="session", autouse=True)
def compiled_extension():
    """Build or load the compiled extension before the first test.  The
    first call of a step layer in a process builds it once per machine and
    source version (0.5–0.8 s with gcc 12), which belongs in no test's timed
    window, such as criterion 1's; where it cannot be built, this loads
    nothing, as before."""
    inference._compiled()


@pytest.fixture(scope="session")
def default_dictionary() -> BasisDictionary:
    """p=15 with a 3-column Fourier background and a 10-column cubic spline anomaly basis."""
    return BasisDictionary(
        b_b=fourier_basis(15, 3), b_a=bspline_basis(15, 4, 14)
    )


@pytest.fixture(scope="session")
def default_config(default_dictionary) -> ModelConfig:
    return ModelConfig.homogeneous(
        k_a=default_dictionary.k_a,
        sigma_e=0.05,
        sigma_b=0.3,
        sigma_j=3.0,
        w=0.1,
        v=1e-7,
        decay=0.1,
        m=5,
    )


@pytest.fixture(scope="session")
def kron_dictionary() -> BasisDictionary:
    """p=400 on a 20×20 grid: Kronecker Fourier background (k_b=4) and
    Kronecker unit-norm cubic splines (k_a=36)."""
    spline = bspline_basis(20, 4, 10, normalize_columns=True)
    fourier = fourier_basis(20, 2)
    return BasisDictionary(
        b_b=kron_basis(fourier, fourier), b_a=kron_basis(spline, spline)
    )


@pytest.fixture(scope="session")
def sweep_cases(default_dictionary, default_config, kron_dictionary):
    """(dictionary, config) pairs whose coordinate sweeps run in one block
    (k_a=10), two uneven blocks (k_a=13) and three blocks (k_a=36)."""
    def config(dictionary, m):
        return ModelConfig.homogeneous(
            k_a=dictionary.k_a, sigma_e=0.05, sigma_b=0.3, sigma_j=3.0,
            w=0.1, v=1e-7, decay=0.1, m=m,
        )

    d13 = BasisDictionary(b_b=fourier_basis(15, 3), b_a=bspline_basis(15, 4, 17))
    return [
        (default_dictionary, default_config),
        (d13, config(d13, 5)),
        (kron_dictionary, config(kron_dictionary, 20)),
    ]


@pytest.fixture()
def small_dictionary() -> BasisDictionary:
    """p=6 instance small enough for exhaustive checks."""
    return BasisDictionary(b_b=fourier_basis(6, 2), b_a=bspline_basis(6, 2, 6))


@pytest.fixture()
def small_config(small_dictionary) -> ModelConfig:
    return ModelConfig.homogeneous(
        k_a=small_dictionary.k_a,
        sigma_e=0.1,
        sigma_b=0.5,
        sigma_j=2.0,
        w=0.2,
        v=1e-6,
        decay=0.1,
        m=3,
    )


@pytest.fixture()
def degenerate_dictionary():
    """Builder of a p=8, k_b=3 dictionary whose background rows 0-2 span one
    direction (a duplicate and a multiple of row 0) and rows 3-4 are zero,
    so many subsets observe rank-deficient background rows and some observe
    none at all."""

    def build(seed: int) -> BasisDictionary:
        rng = np.random.default_rng(seed)
        b_b = rng.normal(size=(8, 3))
        b_b[1] = b_b[0]
        b_b[2] = -2.0 * b_b[0]
        b_b[3:5] = 0.0
        return BasisDictionary(b_b=b_b, b_a=rng.normal(size=(8, 3)))

    return build


@pytest.fixture()
def rng() -> np.random.Generator:
    return np.random.default_rng(20240817)
