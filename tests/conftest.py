"""Shared fixtures and small numerical helpers for the test suite."""

import numpy as np
import pytest

from hambea import FourierState, make_model


# model specs for the bitwise batch-versus-single-state tests
MODEL_SPECS = {
    "nls-cubic": ("nls", {"sigma": 1, "lam": 1.0}),
    "nls-quintic": ("nls", {"sigma": 2, "lam": -0.5}),
    "nls-free": ("nls", {"sigma": 1, "lam": 0.0}),
    "wave-poly": ("wave", {"potential": {"kind": "poly", "coeffs": {"2": 0.5, "4": 0.25}}}),
    "sine-gordon": ("wave", {"potential": {"kind": "sine_gordon", "gamma": 1.0}}),
    "nonlocal-nls": ("nonlocal_nls", {}),
}


def same_bits(a, b):
    """Bitwise array equality (tells -0.0 from 0.0, which array_equal does not)."""
    a, b = np.ascontiguousarray(a), np.ascontiguousarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def fit_loglog_slope(xs, ys):
    """Least-squares slope of log(y) against log(x)."""
    return float(np.polyfit(np.log(np.asarray(xs)), np.log(np.asarray(ys)), 1)[0])


def random_state(grid, components, rng, scale=0.3, decay=0.5, real_field=False):
    """Random band state with geometric mode decay (keeps nonlinearities tame)."""
    k = np.abs(grid.wavenumbers)
    amp = scale * np.exp(-decay * k)
    coeffs = amp * (
        rng.standard_normal((components, grid.band_size))
        + 1j * rng.standard_normal((components, grid.band_size))
    )
    state = FourierState(grid, coeffs)
    if real_field:
        from hambea.spectral import symmetrize_real

        state = symmetrize_real(state)
    return state


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


@pytest.fixture
def nls():
    return make_model("nls", {"sigma": 1, "lam": 1.0})


@pytest.fixture
def wave_cubic():
    """Wave system with V(u) = u^2/2 + u^4/4, i.e. force -(u + u^3)."""
    return make_model(
        "wave", {"potential": {"kind": "poly", "coeffs": {"2": 0.5, "4": 0.25}}}
    )


@pytest.fixture
def wave_sg():
    return make_model("wave", {"potential": {"kind": "sine_gordon", "gamma": 1.0}})
