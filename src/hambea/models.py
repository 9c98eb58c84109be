r"""Semilinear Hamiltonian PDE models on the circle.

Each model describes an evolution

    d/dt U = A U + B(U)

on a symmetric Fourier band, where A is mode-diagonal and skew with respect to
the model's energy pairing and B collects everything else: the pointwise
nonlinear force, and for the wave system also the zero-mode coupling that A
cannot carry (the zero wavenumber block of the first-order wave operator is a
Jordan block, so it is bundled with B to keep A diagonal).

The three concrete systems:

* ``wave``      two components (u, v) with d/dt u = v, d/dt v = u_xx - V'(u);
                energy space H^1 x L^2, Gevrey exponent q = 1.
* ``nls``       one complex component with d/dt u = i u_xx - i lam |u|^{2 sigma} u;
                energy space H^1, q = 2.
* ``nonlocal_nls``  d/dt u = i u_xx - i V'(rho) u with rho = int |u|^2 dx and
                V(r) = 1/r, guarded away from rho = 0; q = 2.

Hamiltonians, gradients and the structure operator J^{-1} are expressed
against a fixed real pairing per model: the H^1 x L^2 inner product for the
wave system (zero modes unweighted) and the real L^2 pairing Re int u conj(w)
for the Schroedinger systems.  With these choices J grad H = A U + B(U) holds
exactly on the discretized band, which the consistency checks below verify by
finite differences.  A model declares its energy space next to its pairing
weights, as one Sobolev offset per component (``energy_offsets``); every
energy norm and weight in the package is built from these offsets and q.

Each model has one nonlinearity, ``force(grid, coeffs, m)``, on coefficient
arrays of shape (..., components, band): leading axes are batch axes, so a
stack of Runge-Kutta stages goes through one FFT pair.  ``apply_B`` is the
single-state wrapper around it shared by every model.  ``series_lift`` gives
its Taylor coefficients along a power series of states one order per call,
transforming only the newest coefficient and extending running series
(products, sin/cos, a reciprocal) by one term; see Griewank-Walther,
Evaluating Derivatives (2008), ch. 13.  Pointwise forces are
evaluated pseudospectrally: transform to the physical grid, apply the force,
transform back, restrict to the band.  Grids created through ``make_grid``
are padded so that polynomial products of band-limited states are alias-free
on the band and energy quadratures are exact; entire (non-polynomial) forces
use a fixed generous padding instead.
"""

from __future__ import annotations

import functools

import numpy as np

from ._dop853 import solve_lockstep
from .errors import ConvergenceError, DomainError
from ._seriesops import product_coeff, reciprocal_coeff, sincos_coeff
from .spectral import (
    FourierGrid,
    FourierState,
    GevreyIndex,
    band_mask,
    gevrey_norm,
    project,
    y_norm,
)

# ---------------------------------------------------------------------------
# wave potentials


class PolyPotential:
    """Polynomial potential V(u) = sum_j c_j u^j with integer 2 <= j <= 8."""

    def __init__(self, coeffs: dict[int, float]):
        clean: dict[int, float] = {}
        for j, c in coeffs.items():
            j = int(j)
            if not 2 <= j <= 8:
                raise ValueError("polynomial potential powers must lie in 2..8")
            if c != 0.0:
                clean[j] = float(c)
        self.coeffs = dict(sorted(clean.items()))

    @property
    def degree(self) -> int:
        return max(self.coeffs, default=2)

    def value(self, u: np.ndarray) -> np.ndarray:
        out = np.zeros_like(u)
        for j, c in self.coeffs.items():
            out = out + c * u**j
        return out

    def derivative(self, u: np.ndarray) -> np.ndarray:
        out = np.zeros_like(u)
        for j, c in self.coeffs.items():
            out = out + j * c * u ** (j - 1)
        return out

    def derivative_lift(self):
        """Closure u_j -> [V'(u)]_j over a series u, keeping the series of u^p, p < degree."""
        powers = [[] for _ in range(self.degree)]

        def lift(u_j):
            powers[1].append(u_j)
            j = len(powers[1]) - 1
            for p in range(2, self.degree):
                powers[p].append(product_coeff(powers[p - 1], powers[1], j))
            terms = (p * c * powers[p - 1][j] for p, c in self.coeffs.items())
            return sum(terms, np.zeros_like(u_j))

        return lift


class SineGordonPotential:
    """V(u) = gamma (1 - cos u), V'(u) = gamma sin u."""

    def __init__(self, gamma: float = 1.0):
        self.gamma = float(gamma)

    degree = None  # entire, not polynomial

    def value(self, u: np.ndarray) -> np.ndarray:
        return self.gamma * (1.0 - np.cos(u))

    def derivative(self, u: np.ndarray) -> np.ndarray:
        return self.gamma * np.sin(u)

    def derivative_lift(self):
        """Closure u_j -> [V'(u)]_j over a series u, keeping the series of sin u and cos u."""
        u, s, c = [], [], []

        def lift(u_j):
            u.append(u_j)
            s_j, c_j = sincos_coeff(u, s, c, len(s))
            s.append(s_j)
            c.append(c_j)
            return self.gamma * s_j

        return lift


# ---------------------------------------------------------------------------
# real charts


class RealChart:
    """Orthonormal real coordinates on a band, isometric for the model pairing.

    Wave states are constrained to real fields (conjugate-symmetric bands), so
    their chart runs over k >= 0 with the +/-k pair folded into one (re, im)
    dof pair; Schroedinger states use independent (re, im) pairs for every
    band mode.  Scales are square roots of the pairing weights, which makes
    the chart Euclidean: dot(z1, z2) = pairing(state1, state2).
    """

    def __init__(self, model: "PdeModel", grid: FourierGrid, m: float | None):
        self.model = model
        self.grid = grid
        self.m = m
        K = grid.n_modes
        self._folded = model.components == 2 or model.is_real_field
        # dofs in (component, mode, re before im) order; a folded chart keeps
        # k >= 0 and drops the imaginary part of the zero mode
        modes = np.flatnonzero(band_mask(grid, m, model.q))
        if self._folded:
            modes = modes[modes >= K]
        mode = np.repeat(modes, 2)
        part = np.tile([0, 1], modes.size)
        if self._folded:
            keep = (mode != K) | (part == 0)
            mode, part = mode[keep], part[keep]
        comp = np.repeat(np.arange(model.components), mode.size)
        mode, part = np.tile(mode, model.components), np.tile(part, model.components)
        w2 = model._pairing_weights(grid)[comp, mode]
        if self._folded:
            w2 = np.where(mode == K, w2, 2.0 * w2)
        self.scales = np.sqrt(w2)
        self.dim = mode.size
        self._gather = (comp, mode, part)  # into the (c, band, re/im) view
        self._is_re = part == 0
        self._re_at = (comp[self._is_re], mode[self._is_re])
        self._im_at = (comp[~self._is_re], mode[~self._is_re])

    def coeffs_to_real(self, coeffs: np.ndarray) -> np.ndarray:
        """Chart coordinates of coefficient arrays, (..., c, band) -> (..., dim)."""
        parts = np.stack((coeffs.real, coeffs.imag), axis=-1)
        return parts[(Ellipsis, *self._gather)] * self.scales

    def real_to_coeffs(self, z: np.ndarray) -> np.ndarray:
        """Coefficient arrays of chart coordinates, (..., dim) -> (..., c, band)."""
        K = self.grid.n_modes
        v = np.asarray(z) / self.scales
        lead = v.shape[:-1]
        coeffs = np.zeros((*lead, self.model.components, self.grid.band_size), dtype=complex)
        coeffs[(Ellipsis, *self._re_at)] += v[..., self._is_re]
        coeffs[(Ellipsis, *self._im_at)] += 1j * v[..., ~self._is_re]
        if self._folded:
            coeffs[..., :K] = np.conj(coeffs[..., :K:-1])
        return coeffs

    def to_real(self, state: FourierState) -> np.ndarray:
        return self.coeffs_to_real(state.coeffs)

    def from_real(self, z: np.ndarray) -> FourierState:
        return FourierState(self.grid, self.real_to_coeffs(z))

    def basis_state(self, i: int) -> FourierState:
        e = np.zeros(self.dim)
        e[i] = 1.0
        return self.from_real(e)

    def symplectic_matrix(self) -> np.ndarray:
        """Matrix of J^{-1} in chart coordinates (also the 2-form matrix)."""
        cols = []
        for i in range(self.dim):
            cols.append(self.to_real(self.model.apply_J_inv(self.basis_state(i))))
        return np.column_stack(cols)


# ---------------------------------------------------------------------------
# model base class


def _fast_fft_len(target: int) -> int:
    """Smallest 2^a 3^b 5^c 7^d 11^e >= target, a length pocketfft transforms fast."""
    n = max(target, 1)
    while True:
        rest = n
        for p in (2, 3, 5, 7, 11):
            while rest % p == 0:
                rest //= p
        if rest == 1:
            return n
        n += 1


class PdeModel:
    name: str
    q: float
    energy_offsets: tuple[float, ...]  # energy space H^{s_1} x H^{s_2} x ..., one s_c each
    is_real_field: bool = False

    @property
    def components(self) -> int:
        return len(self.energy_offsets)

    # -- grids ---------------------------------------------------------

    def _product_degree(self) -> int | None:
        """Highest polynomial degree occurring in energy densities, or None."""
        raise NotImplementedError

    def make_grid(self, n_modes: int, n_phys: int | None = None) -> FourierGrid:
        """Band of half-width n_modes with alias-safe physical padding."""
        if n_phys is None:
            deg = self._product_degree()
            factor = 6 if deg is None else max(2, deg)
            n_phys = _fast_fft_len(factor * n_modes + 1)
        return FourierGrid(n_modes, n_phys)

    def project(self, state: FourierState, m: float | None) -> FourierState:
        """P_m state; m = None returns state itself, not a copy."""
        return state if m is None else project(state, m, self.q)

    # -- linear part ----------------------------------------------------

    def a_blocks(self, grid: FourierGrid) -> np.ndarray:
        """Per-mode matrices of A, shape (band_size, components, components)."""
        raise NotImplementedError

    def apply_A(self, state: FourierState) -> FourierState:
        blocks = self.a_blocks(state.grid)
        out = np.einsum("mij,jm->im", blocks, state.coeffs)
        return FourierState(state.grid, out)

    # -- nonlinearity ----------------------------------------------------

    def force(
        self, grid: FourierGrid, coeffs: np.ndarray, m: float | None = None
    ) -> np.ndarray:
        """Band-projected nonlinearity P_m B(P_m U) on coefficient arrays.

        coeffs has shape (..., components, band_size); leading axes are batch
        axes evaluated independently, with one FFT pair for the whole batch.
        """
        raise NotImplementedError

    def apply_B(self, state: FourierState, m: float | None = None) -> FourierState:
        """Band-projected nonlinearity P_m B(P_m U) of one state."""
        return FourierState(state.grid, self.force(state.grid, state.coeffs, m))

    def series_lift(self, grid: FourierGrid, m: float | None):
        """Closure W_j -> [P_m B(P_m W(h))]_j on (..., components, band), for j = 0, 1, ...

        Each call transforms W_j only; passed planes must not change afterwards.
        """
        raise NotImplementedError

    def force_series_coeffs(
        self, grid: FourierGrid, coeff_series: np.ndarray, m: float | None
    ) -> np.ndarray:
        """B composed with a truncated power series of states, via series_lift.

        coeff_series has shape (order+1, ..., components, band_size) with batch
        axes after the series axis; entry j is the j-th series coefficient.
        No library path calls it: the tests check the lift through it, and the
        benchmark tracer binds it by name.
        """
        lift = self.series_lift(grid, m)
        return np.stack([lift(w) for w in coeff_series])

    # -- energy and structure --------------------------------------------

    def hamiltonian(self, state: FourierState) -> float:
        raise NotImplementedError

    def apply_J_inv(self, state: FourierState) -> FourierState:
        raise NotImplementedError

    def _pairing_weights(self, grid: FourierGrid) -> np.ndarray:
        """Squared per-mode weights of the model pairing, shape (c, band)."""
        raise NotImplementedError

    def pairing(self, a: FourierState, b: FourierState) -> float:
        """The real pairing against which J^{-1} and gradients are defined."""
        a._check_compatible(b)
        return float(np.real(np.sum(self._pairing_weights(a.grid) * a.coeffs * np.conj(b.coeffs))))

    def energy_norm(self, state: FourierState) -> float:
        """Norm of state in the model's energy space."""
        return y_norm(state, self.energy_offsets, self.q)

    def chart(self, grid: FourierGrid, m: float | None = None) -> RealChart:
        return RealChart(self, grid, m)

    def anchor(self, state: FourierState) -> FourierState:
        """Base point U0 of the modified-energy line integrals from U0 to state.

        The zero state, where the energy densities are smooth.
        """
        return FourierState(state.grid, np.zeros_like(state.coeffs))

    # -- helpers shared by subclasses -------------------------------------

    def _masked(self, grid: FourierGrid, coeffs: np.ndarray, m: float | None) -> np.ndarray:
        """coeffs itself for m = None, else a copy with the modes above m zeroed."""
        if m is None:
            return coeffs
        out = coeffs.copy()
        out[..., ~band_mask(grid, m, self.q)] = 0.0
        return out

    def _mask_fn(self, grid: FourierGrid, m: float | None):
        """x -> x times the band mask of radius m; the identity when it keeps every mode."""
        mask = band_mask(grid, m, self.q)
        return (lambda x: x) if mask.all() else (lambda x: x * mask)


# ---------------------------------------------------------------------------
# wave


class WaveModel(PdeModel):
    """Semilinear wave system u_tt = u_xx - V'(u) as a first-order pair (u, v).

    A carries the nonzero modes of [[0, 1], [d_xx, 0]]; the zero-mode coupling
    (d/dt u_hat_0 = v_hat_0) rides with B, as does the force (0, -V'(u)).
    """

    name = "wave"
    q = 1.0
    energy_offsets = (1.0, 0.0)  # H^1 x L^2
    is_real_field = True

    def __init__(self, potential: PolyPotential | SineGordonPotential):
        self.potential = potential

    def _product_degree(self) -> int | None:
        return self.potential.degree

    @staticmethod
    @functools.lru_cache(maxsize=32)
    def a_blocks(grid: FourierGrid) -> np.ndarray:
        """Per-mode matrices of A, built once per grid (read-only)."""
        k = grid.wavenumbers.astype(float)
        blocks = np.zeros((grid.band_size, 2, 2), dtype=complex)
        nz = k != 0
        blocks[nz, 0, 1] = 1.0
        blocks[nz, 1, 0] = -(k[nz] ** 2)
        blocks.flags.writeable = False
        return blocks

    def force(
        self, grid: FourierGrid, coeffs: np.ndarray, m: float | None = None
    ) -> np.ndarray:
        cm = self._masked(grid, coeffs, m)
        K = grid.n_modes
        u_phys = grid.to_phys(cm[..., 0, :]).real
        force = -self.potential.derivative(u_phys)
        out = np.zeros_like(cm)
        out[..., 1, :] = grid.to_coeffs(force)
        out[..., 0, K] = cm[..., 1, K]  # zero-mode coupling from the Jordan block
        return self._masked(grid, out, m)

    def series_lift(self, grid: FourierGrid, m: float | None):
        mask, K = self._mask_fn(grid, m), grid.n_modes
        dv = self.potential.derivative_lift()

        def lift(w):
            w = mask(w)
            u_j = grid.to_phys(w[..., 0, :]).real.astype(complex)
            out = np.zeros_like(w)
            out[..., 1, :] = grid.to_coeffs(-dv(u_j))
            out[..., 0, K] = w[..., 1, K]
            return mask(out)

        return lift

    def hamiltonian(self, state: FourierState) -> float:
        grid = state.grid
        k = grid.wavenumbers.astype(float)
        u_phys = grid.to_phys(state.coeffs[0]).real
        v_phys = grid.to_phys(state.coeffs[1]).real
        ux_phys = grid.to_phys(1j * k * state.coeffs[0]).real
        density = 0.5 * v_phys**2 + 0.5 * ux_phys**2 + self.potential.value(u_phys)
        return float(np.real(grid.quadrature(density)))

    def apply_J_inv(self, state: FourierState) -> FourierState:
        k = state.grid.wavenumbers.astype(float)
        div = np.maximum(1.0, k**2)
        out = np.empty_like(state.coeffs)
        out[0] = -state.coeffs[1] / div
        out[1] = state.coeffs[0]
        return FourierState(state.grid, out)

    def _pairing_weights(self, grid: FourierGrid) -> np.ndarray:
        k = grid.wavenumbers.astype(float)
        w2 = np.ones((2, grid.band_size))
        w2[0] = np.maximum(1.0, k**2)
        return w2


# ---------------------------------------------------------------------------
# Schroedinger family


class _SchroedingerBase(PdeModel):
    q = 2.0
    energy_offsets = (1.0,)  # H^1

    @staticmethod
    @functools.lru_cache(maxsize=32)
    def a_blocks(grid: FourierGrid) -> np.ndarray:
        """Per-mode matrices of A, built once per grid (read-only)."""
        k = grid.wavenumbers.astype(float)
        blocks = (-1j * k**2).reshape(-1, 1, 1)
        blocks.flags.writeable = False
        return blocks

    def apply_J_inv(self, state: FourierState) -> FourierState:
        return FourierState(state.grid, 1j * state.coeffs)

    def _pairing_weights(self, grid: FourierGrid) -> np.ndarray:
        return np.ones((1, grid.band_size))


class NlsModel(_SchroedingerBase):
    """Nonlinear Schroedinger i u_t = -u_xx + lam |u|^{2 sigma} u, integer sigma >= 1.

    sigma = 1 is the cubic equation.  lam = 0 degenerates to the free linear
    flow, which is handy as an exactly solvable reference.
    """

    name = "nls"

    def __init__(self, sigma: int = 1, lam: float = 1.0):
        if int(sigma) != sigma or sigma < 0:
            raise ValueError("sigma must be a nonnegative integer")
        self.sigma = int(sigma)
        self.lam = float(lam)

    def _product_degree(self) -> int | None:
        return 2 * self.sigma + 2

    def force(
        self, grid: FourierGrid, coeffs: np.ndarray, m: float | None = None
    ) -> np.ndarray:
        cm = self._masked(grid, coeffs, m)
        if self.lam == 0.0:
            return np.zeros(cm.shape, dtype=complex)
        u = grid.to_phys(cm[..., 0, :])
        force = -1j * self.lam * np.abs(u) ** (2 * self.sigma) * u
        return self._masked(grid, grid.to_coeffs(force)[..., np.newaxis, :], m)

    def series_lift(self, grid: FourierGrid, m: float | None):
        mask = self._mask_fn(grid, m)
        u, ubar = [], []
        mod2 = [[] for _ in range(self.sigma)]  # mod2[p]: the series of |u|^{2(p+1)}

        def lift(w):
            w = mask(w)
            if self.lam == 0.0:
                return np.zeros_like(w)
            u.append(grid.to_phys(w[..., 0, :]))
            ubar.append(np.conj(u[-1]))
            j = len(u) - 1
            for p in range(self.sigma):
                lower = (u, ubar) if p == 0 else (mod2[p - 1], mod2[0])
                mod2[p].append(product_coeff(*lower, j))
            force = -1j * self.lam * (product_coeff(mod2[-1], u, j) if self.sigma else u[j])
            return mask(grid.to_coeffs(force)[..., np.newaxis, :])

        return lift

    def hamiltonian(self, state: FourierState) -> float:
        grid = state.grid
        k = grid.wavenumbers.astype(float)
        u = grid.to_phys(state.coeffs[0])
        ux = grid.to_phys(1j * k * state.coeffs[0])
        density = 0.5 * np.abs(ux) ** 2
        if self.lam != 0.0:
            density = density + (0.5 * self.lam / (self.sigma + 1)) * np.abs(u) ** (
                2 * self.sigma + 2
            )
        return float(np.real(grid.quadrature(density)))


class NonlocalNlsModel(_SchroedingerBase):
    """Schroedinger flow driven by the total mass: i u_t = -u_xx + V'(rho) u.

    rho = int |u|^2 dx and V(r) = 1/r, so the force is smooth only away from
    rho = 0; evaluations below rho_min raise DomainError.
    """

    name = "nonlocal_nls"

    def __init__(self, rho_min: float = 1e-3):
        if rho_min <= 0.0:
            raise ValueError("rho_min must be positive")
        self.rho_min = float(rho_min)

    def _product_degree(self) -> int | None:
        return 2

    def _mass(self, coeffs: np.ndarray) -> float:
        return float(np.sum(np.abs(coeffs) ** 2))

    def _check_mass(self, rho) -> None:
        low = np.asarray(rho)[np.asarray(rho) < self.rho_min]
        if low.size:
            raise DomainError(
                f"total mass {low[0]:.3e} below the admissible floor {self.rho_min:.3e}"
            )

    def force(
        self, grid: FourierGrid, coeffs: np.ndarray, m: float | None = None
    ) -> np.ndarray:
        cm = self._masked(grid, coeffs, m)
        # mass per state, each summed over its own contiguous copy as for one state
        rho = np.sum(np.abs(np.ascontiguousarray(cm)) ** 2, axis=(-2, -1), keepdims=True)
        self._check_mass(rho)
        # V'(rho) = -1/rho^2, force = -i V'(rho) u
        return (1j / rho**2) * cm

    def series_lift(self, grid: FourierGrid, m: float | None):
        mask = self._mask_fn(grid, m)
        w, wbar, rho, inv, ivp = [], [], [], [], []  # ivp: -i V'(rho) = i / rho^2

        def lift(w_j):
            w.append(mask(w_j))
            wbar.append(np.conj(w[-1]))
            j = len(w) - 1
            pairs = (np.einsum("...cm,...cm->...", w[a], wbar[j - a]) for a in range(j + 1))
            rho.append(sum(pairs))
            if j == 0:
                self._check_mass(rho[0].real)
            inv.append(reciprocal_coeff(rho, inv, j))
            ivp.append(-1j * -product_coeff(inv, inv, j)[..., np.newaxis, np.newaxis])
            return mask(product_coeff(ivp, w, j))

        return lift

    def hamiltonian(self, state: FourierState) -> float:
        grid = state.grid
        k = grid.wavenumbers.astype(float)
        ux = grid.to_phys(1j * k * state.coeffs[0])
        rho = self._mass(state.coeffs)
        self._check_mass(rho)
        return float(np.real(grid.quadrature(0.5 * np.abs(ux) ** 2))) + 0.5 / rho

    def anchor(self, state: FourierState) -> FourierState:
        """The zero-mode plane wave a with the mass of state and its zero mode's phase.

        V(rho) = 1/rho is singular at the zero state.  With this anchor
        <a, U> >= 0, so the mass stays >= rho(U)/2 along the segment from a to
        U.  The energies H^j(a) then depend on U only through its mass, which
        the method conserves, and not through the phase: the field commutes
        with global phase rotation.
        """
        u0 = state.mode(0)
        out = FourierState.zeros(state.grid)
        out.set_mode(0, np.sqrt(self._mass(state.coeffs)) * (u0 / abs(u0) if u0 != 0 else 1.0))
        return out


# ---------------------------------------------------------------------------
# factory


def make_model(name: str, params: dict | None = None) -> PdeModel:
    params = dict(params or {})
    if name == "wave":
        pot = dict(params.get("potential", {"kind": "poly", "coeffs": {"2": 0.5}}))
        kind = pot.pop("kind", "poly")
        if kind == "poly":
            coeffs = {int(j): float(c) for j, c in pot.get("coeffs", {}).items()}
            potential = PolyPotential(coeffs)
        elif kind == "sine_gordon":
            potential = SineGordonPotential(**pot)
        else:
            raise ValueError(f"unknown wave potential kind {kind!r}")
        return WaveModel(potential)
    if name == "nls":
        return NlsModel(**params)
    if name == "nonlocal_nls":
        return NonlocalNlsModel(**params)
    raise ValueError(f"unknown model {name!r}")


# ---------------------------------------------------------------------------
# structure diagnostics


def fd_jacobian(func, chart: RealChart, U: FourierState, eps0: float = 1e-5) -> np.ndarray:
    """Fourth-order central Jacobian in chart coordinates of a map from states to real vectors.

    A state map passes its output through chart.to_real; a scalar function
    returns a length-1 array and gets its gradient as the single row.
    """
    z0 = chart.to_real(U)
    eps = eps0 * (1.0 + float(np.linalg.norm(z0)))
    cols = []
    for i in range(chart.dim):
        e = np.zeros(chart.dim)
        e[i] = 1.0
        fv = lambda t: func(chart.from_real(z0 + t * e))
        cols.append((-fv(2 * eps) + 8 * fv(eps) - 8 * fv(-eps) + fv(-2 * eps)) / (12 * eps))
    return np.column_stack(cols)


def check_h2_selfadjoint(
    model: PdeModel, U: FourierState, m: float | None = None, eps0: float = 1e-5
) -> float:
    """Relative asymmetry of J^{-1} DB(U) against the model pairing.

    The linearized nonlinearity must be self-adjoint after composing with the
    structure operator; this builds the chart matrix Omega * DB by finite
    differences and returns max|S - S^T| / max(1, max|S|).
    """
    chart = model.chart(U.grid, m)
    db = fd_jacobian(lambda s: chart.to_real(model.apply_B(s, m)), chart, U, eps0)
    s = chart.symplectic_matrix() @ db
    return float(np.max(np.abs(s - s.T)) / max(1.0, np.max(np.abs(s))))


def grad_H_consistency(
    model: PdeModel, U: FourierState, m: float | None = None, eps: float = 1e-4
) -> float:
    """Residual of the Hamiltonian identity J grad H = A U + B(U) on the band.

    grad H is assembled by finite differences of the energy along chart
    directions; the residual is measured in the pairing norm, relative to
    max(1, ||grad H||).
    """
    um = model.project(U, m)
    chart = model.chart(U.grid, m)
    grad = fd_jacobian(lambda s: np.array([model.hamiltonian(s)]), chart, um, eps)[0]
    field = model.apply_A(um) + model.apply_B(um, m)
    lhs = chart.to_real(model.apply_J_inv(field))
    return float(np.linalg.norm(lhs - grad) / max(1.0, np.linalg.norm(grad)))


def check_skew_A(model: PdeModel, U: FourierState) -> float:
    """|<A U, U>| in the model pairing, normalized by max(1, <U, U>) (zero for skew A)."""
    return abs(model.pairing(model.apply_A(U), U)) / max(1.0, model.pairing(U, U))


def reference_flow(
    model: PdeModel,
    U: FourierState,
    T: float,
    m: float | None = None,
    rtol: float = 1e-11,
    atol: float = 1e-13,
) -> FourierState:
    """High-accuracy integration of the band-truncated system over [0, T].

    DOP853 from its starting-step rule, as a lockstep run of one member;
    raises that member's ConvergenceError if its step size collapses.
    """
    chart = model.chart(U.grid, m)
    z0 = chart.to_real(model.project(U, m))

    def rhs(_members, _ts, Z):
        s = chart.from_real(Z[0])
        f = model.apply_A(s) + model.apply_B(s, m)
        return chart.to_real(f)[np.newaxis]

    (out,) = solve_lockstep(rhs, [((0.0, T), z0, rtol, atol, None)]).results
    if isinstance(out, ConvergenceError):
        raise out
    return chart.from_real(out.y)


def measure_force_scale(
    model: PdeModel, states: list[FourierState], m: float | None = None
) -> float:
    """sup over the sample of ||U||_{Y_1} + ||B(U)||_Y (field-size constant)."""
    best = 0.0
    for s in states:
        data = gevrey_norm(s, model.energy_offsets, GevreyIndex(0.0, 1.0, model.q))
        best = max(best, data + model.energy_norm(model.apply_B(s, m)))
    return best
