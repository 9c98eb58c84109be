r"""Fourier bands, Gevrey-weighted norms, and spectral projections on the circle.

States live on the 2*pi-periodic circle and are represented by their Fourier
coefficients on a symmetric band k in {-K, ..., K} with the normalization

    u(x) = (2*pi)^{-1/2} * sum_k  u_hat_k e^{i k x},

so that Parseval reads int |u|^2 dx = sum_k |u_hat_k|^2.  Physical-space values
used for pointwise (pseudospectral) products are held on an equispaced grid of
n_phys >= 2K+1 points; conversions in both directions go through the FFT.

Mode magnitudes are measured in eigenvalue units lambda(k) = |k|^q, where q is
the Gevrey exponent of the governing model (q = 1 for the wave system, q = 2
for Schroedinger-type systems), so the same projection radius m and the same
smoothing-weight bookkeeping apply to every model.  The Gevrey norm of index
(tau, ell) weighs component c of mode k by

    w_c(k) = lambda(k)^ell * base_c(k) * exp(tau * lambda(k)^{1/q}),   k != 0,

with w_c(0) = 1 (the zero mode is never weighted), where base_c is the
per-component offset that encodes the energy space: (|k|, 1) for two-component
wave states (H^1 x L^2), |k| for one-component q = 2 states (H^1), and 1 for
generic one-component q = 1 states (L^2).  tau = ell = 0 recovers the plain
energy norm.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
# numpy loads numpy.fft on first use; import it with the package instead of
# inside the first transform
import numpy.fft

_SQRT_2PI = math.sqrt(2.0 * math.pi)


@dataclass(frozen=True)
class FourierGrid:
    """Symmetric Fourier band of half-width n_modes with an attached physical grid.

    n_phys controls the resolution used for pointwise products; it must cover
    the band (n_phys >= 2*n_modes + 1) and should be padded further whenever
    products of band-limited functions are formed (the models pick their own
    padding so that polynomial products are alias-free on the band).
    """

    n_modes: int
    n_phys: int

    def __post_init__(self) -> None:
        if self.n_modes < 1:
            raise ValueError("n_modes must be a positive integer")
        if self.n_phys < 2 * self.n_modes + 1:
            raise ValueError("n_phys must be at least 2*n_modes + 1 to cover the band")

    @property
    def domain_length(self) -> float:
        return 2.0 * math.pi

    @property
    def wavenumbers(self) -> np.ndarray:
        """Band wavenumbers in increasing order, -K ... K."""
        return np.arange(-self.n_modes, self.n_modes + 1)

    @property
    def band_size(self) -> int:
        return 2 * self.n_modes + 1

    def to_phys(self, coeffs: np.ndarray) -> np.ndarray:
        """Evaluate band coefficients on the physical grid (last axis = modes)."""
        coeffs = np.asarray(coeffs)
        K = self.n_modes
        full = np.zeros(coeffs.shape[:-1] + (self.n_phys,), dtype=complex)
        full[..., : K + 1] = coeffs[..., K:]  # k = 0 .. K at FFT positions 0 .. K
        full[..., self.n_phys - K :] = coeffs[..., :K]  # k = -K .. -1 at the end
        return np.fft.ifft(full, axis=-1) * (self.n_phys / _SQRT_2PI)

    def to_coeffs(self, values: np.ndarray) -> np.ndarray:
        """Band coefficients of grid values (exact for band-limited data)."""
        values = np.asarray(values, dtype=complex)
        full, K = np.fft.fft(values, axis=-1), self.n_modes
        band = np.concatenate((full[..., self.n_phys - K :], full[..., : K + 1]), axis=-1)
        band *= _SQRT_2PI / self.n_phys  # the same product per mode as scaling full first
        return band

    def quadrature(self, density: np.ndarray) -> complex | float:
        """Trapezoidal integral of grid values over the circle (spectrally exact)."""
        return (self.domain_length / self.n_phys) * np.sum(density, axis=-1)


class FourierState:
    """Value-type state: complex coefficients of shape (components, 2K+1)."""

    __slots__ = ("grid", "coeffs")

    def __init__(self, grid: FourierGrid, coeffs: np.ndarray):
        coeffs = np.asarray(coeffs, dtype=complex)
        if coeffs.ndim == 1:
            coeffs = coeffs[np.newaxis, :]
        if coeffs.ndim != 2 or coeffs.shape[1] != grid.band_size:
            raise ValueError(
                f"coefficient array must have shape (components, {grid.band_size})"
            )
        self.grid = grid
        self.coeffs = coeffs

    @classmethod
    def zeros(cls, grid: FourierGrid, components: int = 1) -> "FourierState":
        return cls(grid, np.zeros((components, grid.band_size), dtype=complex))

    @property
    def components(self) -> int:
        return self.coeffs.shape[0]

    def copy(self) -> "FourierState":
        return FourierState(self.grid, self.coeffs.copy())

    def mode(self, k: int, component: int = 0) -> complex:
        return complex(self.coeffs[component, k + self.grid.n_modes])

    def set_mode(self, k: int, value: complex, component: int = 0) -> None:
        self.coeffs[component, k + self.grid.n_modes] = value

    def _check_compatible(self, other: "FourierState") -> None:
        if self.grid != other.grid or self.components != other.components:
            raise ValueError("states live on different grids or component counts")

    def __add__(self, other: "FourierState") -> "FourierState":
        self._check_compatible(other)
        return FourierState(self.grid, self.coeffs + other.coeffs)

    def __sub__(self, other: "FourierState") -> "FourierState":
        self._check_compatible(other)
        return FourierState(self.grid, self.coeffs - other.coeffs)

    def __neg__(self) -> "FourierState":
        return FourierState(self.grid, -self.coeffs)

    def __mul__(self, scalar: complex) -> "FourierState":
        return FourierState(self.grid, self.coeffs * scalar)

    __rmul__ = __mul__

    def __repr__(self) -> str:
        return f"FourierState(K={self.grid.n_modes}, components={self.components})"


@dataclass(frozen=True)
class GevreyIndex:
    """Smoothing-norm index: radius tau >= 0, power ell >= 0, Gevrey exponent q > 0."""

    tau: float
    ell: float
    q: float = 1.0

    def __post_init__(self) -> None:
        if self.tau < 0.0:
            raise ValueError("tau must be nonnegative")
        if self.ell < 0.0:
            raise ValueError("ell must be nonnegative")
        if self.q <= 0.0:
            raise ValueError("q must be positive")


def mode_eigenvalues(grid: FourierGrid, q: float) -> np.ndarray:
    """|A|-eigenvalue lambda(k) = |k|^q of each band mode."""
    return np.abs(grid.wavenumbers.astype(float)) ** q


def _component_offsets(components: int, q: float) -> tuple[float, ...]:
    if components == 2:
        if q != 1.0:
            raise ValueError("two-component states use q = 1")
        return (1.0, 0.0)
    if components == 1:
        if q == 2.0:
            return (1.0,)
        if q == 1.0:
            return (0.0,)
    raise ValueError(f"no weight convention for components={components}, q={q}")


@functools.lru_cache(maxsize=64)
def _mode_weights(grid: FourierGrid, components: int, idx: GevreyIndex) -> np.ndarray:
    """Per-component, per-mode Gevrey weights; zero mode gets weight 1.

    Memoised per (grid, components, index); the shared result is read-only.
    """
    k = np.abs(grid.wavenumbers.astype(float))
    lam = k**idx.q
    offsets = _component_offsets(components, idx.q)
    w = np.empty((components, grid.band_size))
    with np.errstate(divide="ignore"):
        for c, off in enumerate(offsets):
            wc = lam**idx.ell * k**off * np.exp(idx.tau * k)
            wc[k == 0] = 1.0
            w[c] = wc
    w.flags.writeable = False
    return w


def gevrey_norm(state: FourierState, idx: GevreyIndex) -> float:
    """Weighted l2 norm of the coefficients under the (tau, ell, q) convention."""
    w = _mode_weights(state.grid, state.components, idx)
    return float(np.sqrt(np.sum((w * np.abs(state.coeffs)) ** 2)))


def y_norm(state: FourierState, q: float) -> float:
    """Plain energy norm, i.e. the Gevrey norm at tau = ell = 0."""
    return gevrey_norm(state, GevreyIndex(0.0, 0.0, q))


def weighted_inner(a: FourierState, b: FourierState, idx: GevreyIndex) -> complex:
    """Hermitian inner product with squared Gevrey weights, <a, b>_{tau, ell}."""
    a._check_compatible(b)
    w2 = _mode_weights(a.grid, a.components, idx) ** 2
    return complex(np.sum(w2 * a.coeffs * np.conj(b.coeffs)))


def l2_inner(a: FourierState, b: FourierState) -> complex:
    """Unweighted coefficient inner product sum_k a_k conj(b_k) (= L^2 pairing)."""
    a._check_compatible(b)
    return complex(np.sum(a.coeffs * np.conj(b.coeffs)))


def band_mask(grid: FourierGrid, m: float | None, q: float) -> np.ndarray:
    """Boolean mask of modes with lambda(k) <= m; m = None keeps the whole band."""
    if m is None:
        return np.ones(grid.band_size, dtype=bool)
    if m < 0:
        raise ValueError("projection radius m must be nonnegative")
    return mode_eigenvalues(grid, q) <= m


def project(state: FourierState, m: float | None, q: float = 1.0) -> FourierState:
    """Spectral projection P_m: zero all modes with eigenvalue |k|^q above m.

    The zero mode survives every projection.  m = None is the identity on the
    working band.
    """
    mask = band_mask(state.grid, m, q)
    out = state.copy()
    out.coeffs[:, ~mask] = 0.0
    return out


def tail_bound_check(
    state: FourierState, idx: GevreyIndex, m: float
) -> tuple[float, float]:
    """Energy norm of the tail (I - P_m)U against its smoothing-decay bound.

    Returns (lhs, rhs) with lhs = ||(I - P_m)U||_Y and
    rhs = m^{-ell} e^{-tau m^{1/q}} ||U||_{tau, ell}; the bound lhs <= rhs holds
    mode by mode for every state.  Requires m >= 1 so the algebraic factor is
    well defined for all ell.
    """
    if m < 1:
        raise ValueError("tail bound requires m >= 1")
    tail = state - project(state, m, idx.q)
    lhs = y_norm(tail, idx.q)
    full = gevrey_norm(state, idx)
    if full == 0.0:
        return lhs, 0.0
    rhs = m ** (-idx.ell) * math.exp(-idx.tau * m ** (1.0 / idx.q)) * full
    return lhs, rhs


def operator_power_bound(sigma: float, tau: float, p: int, q: float) -> float:
    """Norm bound of A^p from the sigma-smoothing space into the tau one.

    For mode-diagonal A with eigenvalues lambda(k) the ratio of weights is
    lambda^p e^{(tau - sigma) lambda^{1/q}}, maximized at lambda^{1/q} =
    p q/(sigma - tau), giving (p q / (e (sigma - tau)))^{p q}.  p = 0 returns 1.
    """
    if not isinstance(p, (int, np.integer)) or p < 0:
        raise ValueError("p must be a nonnegative integer")
    if q <= 0.0:
        raise ValueError("q must be positive")
    if tau < 0.0 or sigma < 0.0:
        raise ValueError("smoothing radii must be nonnegative")
    if p == 0:
        return 1.0
    if sigma <= tau:
        raise ValueError("bound requires sigma > tau for p >= 1")
    return float((p * q / (math.e * (sigma - tau))) ** (p * q))


def symmetrize_real(state: FourierState) -> FourierState:
    """Project onto real physical fields: u_hat(-k) = conj(u_hat(k))."""
    c = state.coeffs
    sym = 0.5 * (c + np.conj(c[:, ::-1]))
    return FourierState(state.grid, sym)


def hermitian_defect(state: FourierState) -> float:
    """Max deviation from the real-field symmetry u_hat(-k) = conj(u_hat(k))."""
    c = state.coeffs
    return float(np.max(np.abs(c - np.conj(c[:, ::-1]))))
