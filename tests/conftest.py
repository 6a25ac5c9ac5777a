"""Shared fixtures: optimized table schedules, reused across test modules."""

import numpy as np
import pytest

from spingraph.chain import ChainGeometry, IdealModel, RydbergModel
from spingraph.grape import GrapeConfig, GuessSpec, optimize
from spingraph.targets import TargetForm

TWO_PI = 2.0 * np.pi

#: (N, duration) rows of the two closed-system tables.
IDEAL_CASES = ((3, 2.3), (4, 2.808), (5, 3.386), (6, 3.952))
RYDBERG_CASES = ((3, 0.141), (4, 0.172), (5, 0.203), (6, 0.233))


def ideal_config(n, t, guess):
    return GrapeConfig(
        model=IdealModel(n),
        t_total=t,
        guess=guess,
        target=TargetForm.OPERATOR_PRODUCT,
    )


def rydberg_config(n, t, guess):
    return GrapeConfig(
        model=RydbergModel(ChainGeometry.regular(n)),
        t_total=t,
        guess=guess,
        target=TargetForm.OPERATOR_PRODUCT,
    )


@pytest.fixture(scope="session")
def ideal_gaussian_results():
    """Ideal-chain optimizations from the Gaussian guess (B0 = J = 1)."""
    return {
        n: optimize(ideal_config(n, t, GuessSpec(kind="gaussian", b0=1.0)))
        for n, t in IDEAL_CASES
    }


@pytest.fixture(scope="session")
def ideal_random_results():
    """Ideal-chain optimizations from the documented random guess (seed 1)."""
    return {
        n: optimize(ideal_config(n, t, GuessSpec(kind="random", b0=1.0, seed=1)))
        for n, t in IDEAL_CASES
    }


@pytest.fixture(scope="session")
def rydberg_results():
    """Rydberg-chain optimizations from the documented random guess (seed 1)."""
    return {
        n: optimize(rydberg_config(n, t, GuessSpec(kind="random", b0=TWO_PI, seed=1)))
        for n, t in RYDBERG_CASES
    }


@pytest.fixture(scope="session")
def rydberg_fine_results():
    """Same Rydberg cases, re-discretized at 100 slices for the field-noise
    ensembles (the per-slice noise model needs the fine time resolution)."""
    return {
        n: optimize(
            rydberg_config(
                n, t, GuessSpec(kind="random", b0=TWO_PI, seed=1, n_slices=100)
            )
        )
        for n, t in RYDBERG_CASES
    }


@pytest.fixture(scope="session")
def core_result():
    """Rydberg N=3 schedule used as the core stage of the full protocol."""
    return optimize(rydberg_config(3, 0.141, GuessSpec(kind="gaussian", b0=TWO_PI)))
