r"""A-stable symplectic implicit Runge-Kutta methods on Fourier bands.

The Gauss-Legendre collocation family is built from the roots of shifted
Legendre polynomials; with s stages it has classical order 2s, an invertible
coefficient matrix a, and satisfies the symplecticity identity

    b_i a_ij + b_j a_ji - b_i b_j = 0.

Steps are taken in the solved-linear-part form: with stages stacked over the
band, the stage system

    W = (I - h a (x) A)^{-1} (1 (x) U + h a (x) B(W))

is contracted by fixed-point iteration, where the stage-coupled resolvent is
assembled and inverted mode by mode.  The forces of all s stages are evaluated
as one batch, B applied to the (s, components, band) stack through a single FFT
pair.  The alternative Newton solve works in real chart coordinates; its dense
central-difference Jacobian comes from one residual evaluation on the stack of
all 2 dim perturbed stage states.  The update is

    Psi_m^h(U) = S(hA) U + h (b (x) I)^T (I - h a (x) A)^{-1} B(W),

with S(z) = 1 + z b^T (I - z a)^{-1} 1 the stability function.  Everything is
restricted to the projection band of radius m throughout, so the step map
leaves P_m Y invariant exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np
import numpy.polynomial  # loaded at import, not in a study run (see spectral.py)

from .errors import ConvergenceError, PoleError
from .models import PdeModel, RealChart, fd_jacobian
from .spectral import (
    FourierGrid,
    FourierState,
    GevreyIndex,
    _mode_weights,
    band_mask,
    y_norm,
    y_norms,
)

_LOG4_MINUS_1 = 2.0 * math.log(2.0) - 1.0


@dataclass(frozen=True)
class ButcherTableau:
    name: str
    a: np.ndarray
    b: np.ndarray
    c: np.ndarray
    order: int

    @property
    def stages(self) -> int:
        return len(self.b)

    @property
    def a_norm(self) -> float:
        """Max row sum of |a|."""
        return float(np.max(np.sum(np.abs(self.a), axis=1)))

    @property
    def b_norm(self) -> float:
        return float(np.sum(np.abs(self.b)))

    @property
    def eta(self) -> float:
        """Method-size constant 2 max(||a||, ||b|| / (2 ln 2 - 1))."""
        return 2.0 * max(self.a_norm, self.b_norm / _LOG4_MINUS_1)

    @property
    def gamma(self) -> float:
        """Growth constant e (2 + 1.65 eta + ||b||)."""
        return math.e * (2.0 + 1.65 * self.eta + self.b_norm)

    def symplecticity_residual(self) -> float:
        """max_ij |b_i a_ij + b_j a_ji - b_i b_j|."""
        ba = self.b[:, None] * self.a
        return float(np.max(np.abs(ba + ba.T - np.outer(self.b, self.b))))


def gauss_legendre(s: int, name: str | None = None) -> ButcherTableau:
    """Gauss-Legendre collocation with s stages (classical order 2s).

    Nodes are the roots of the shifted Legendre polynomial on [0, 1]; weights
    and the coefficient matrix come from exact integration of the Lagrange
    basis, a_ij = int_0^{c_i} l_j, b_j = int_0^1 l_j.
    """
    if s < 1:
        raise ValueError("stage count must be positive")
    x, w = np.polynomial.legendre.leggauss(s)
    c = (x + 1.0) / 2.0
    b = w / 2.0
    a = np.zeros((s, s))
    for j in range(s):
        lj = np.polynomial.Polynomial([1.0])
        for r in range(s):
            if r != j:
                lj = lj * np.polynomial.Polynomial([-c[r], 1.0]) / (c[j] - c[r])
        prim = lj.integ()
        a[:, j] = prim(c) - prim(0.0)
    return ButcherTableau(name or f"gauss{s}", a, b, c, order=2 * s)


_TABLEAU_STAGES = {"midpoint": 1, "gauss1": 1, "gauss2": 2, "gauss3": 3}


def make_tableau(name: str) -> ButcherTableau:
    if name not in _TABLEAU_STAGES:
        raise ValueError(
            f"unknown tableau {name!r}; available: {sorted(_TABLEAU_STAGES)}"
        )
    return gauss_legendre(_TABLEAU_STAGES[name], name)


def stability_function(tab: ButcherTableau, z: complex) -> complex:
    """S(z) = 1 + z b^T (I - z a)^{-1} 1, raising PoleError at poles."""
    s = tab.stages
    mat = np.eye(s) - z * tab.a
    if np.linalg.cond(mat) > 1e14:
        raise PoleError(f"stability function evaluated too close to a pole at z={z}")
    try:
        sol = np.linalg.solve(mat, np.ones(s))
    except np.linalg.LinAlgError as exc:
        raise PoleError(f"stability function pole at z={z}") from exc
    return complex(1.0 + z * (tab.b @ sol))


@dataclass
class StageSolveConfig:
    scheme: str = "fixed_point"  # or "newton_on_modes"
    tol: float = 1e-12
    max_iter: int = 100

    def __post_init__(self) -> None:
        if self.scheme not in ("fixed_point", "newton_on_modes"):
            raise ValueError(f"unknown stage solve scheme {self.scheme!r}")
        if self.max_iter < 1:
            raise ValueError("max_iter must be at least 1")


@dataclass
class StageResult:
    stages: np.ndarray  # (s, components, band)
    iterations: int
    residual: float


class Stepper:
    """One-step map Psi_m^h for a fixed (model, grid, tableau, h, m).

    Holds the per-mode stage resolvent, update row, and stability blocks, so
    repeated steps only pay for the nonlinear iteration.
    """

    def __init__(
        self,
        model: PdeModel,
        grid: FourierGrid,
        tab: ButcherTableau,
        h: float,
        m: float | None = None,
        config: StageSolveConfig | None = None,
    ):
        self.model = model
        self.grid = grid
        self.tab = tab
        self.h = float(h)
        self.m = m
        self.config = config or StageSolveConfig()
        s, c = tab.stages, model.components
        blocks = model.a_blocks(grid)  # (band, c, c)
        eye = np.eye(s * c)
        mats = eye[None, :, :] - self.h * np.kron(tab.a, np.ones((c, c)))[None, :, :] * np.tile(
            blocks, (s, s)
        )
        try:
            self._resolvent = np.linalg.inv(mats)  # (band, sc, sc)
        except np.linalg.LinAlgError as exc:
            raise PoleError(f"stage resolvent singular at h={h}") from exc
        # update row  h (b (x) I)^T P  and stability blocks  I + h (b (x) I)^T P (1 (x) A)
        bt = np.kron(tab.b, np.eye(c))  # (c, sc)
        self._update_row = self.h * np.einsum("cb,kba->kca", bt, self._resolvent)
        ones_a = np.concatenate([blocks] * s, axis=1)  # (band, sc, c)
        self._stability = np.eye(c)[None, :, :] + np.einsum(
            "kca,kab->kcb", self._update_row, ones_a
        )

    # -- stage algebra -----------------------------------------------------

    def _apply_resolvent(self, stacked: np.ndarray) -> np.ndarray:
        """Stage resolvent applied mode by mode to (..., s, c, band) stacks."""
        s, c, nb = stacked.shape[-3:]
        flat = stacked.reshape(-1, s * c, nb)
        # einsum lays the result out mode-major, so the reshape back is a view
        return np.einsum("kab,nbk->nak", self._resolvent, flat).reshape(stacked.shape)

    def _force_stack(self, stages: np.ndarray) -> np.ndarray:
        return self.model.force(self.grid, stages, self.m)

    def _rhs(self, u_coeffs: np.ndarray, force: np.ndarray) -> np.ndarray:
        mixed = np.einsum("ij,...jcm->...icm", self.tab.a, force)
        return u_coeffs + self.h * mixed

    # -- public ------------------------------------------------------------

    def solve_stages(self, U: FourierState) -> StageResult:
        um = self.model.project(U, self.m)
        scale = 1.0 + y_norm(um, self.model.q)
        stages = self._apply_resolvent(np.repeat(um.coeffs[None], self.tab.stages, axis=0))
        if self.h == 0.0:
            return StageResult(stages, 1, 0.0)
        if self.config.scheme == "newton_on_modes":
            return self._solve_newton(um, stages, scale)
        floor = 50.0 * np.finfo(float).eps
        prev = math.inf
        for it in range(1, self.config.max_iter + 1):
            force = self._force_stack(stages)
            new = self._apply_resolvent(self._rhs(um.coeffs, force))
            # largest stage norm of the update; NaN if any stage is NaN
            res = float(np.max(y_norms(self.grid, new - stages, self.model.q))) / scale
            stages = new
            if not math.isfinite(res):
                raise ConvergenceError("stage iteration produced a non-finite residual", res, it)
            if res <= self.config.tol:
                return StageResult(stages, it, res)
            if res <= floor or (res < 1e-9 and res > 0.5 * prev):
                # machine-precision stagnation: the iterate stopped improving
                return StageResult(stages, it, res)
            prev = res
        raise ConvergenceError("stage iteration did not converge", res, self.config.max_iter)

    @cached_property
    def _chart(self) -> RealChart:
        return self.model.chart(self.grid, self.m)

    def _solve_newton(self, um: FourierState, stages: np.ndarray, scale: float) -> StageResult:
        chart, s = self._chart, self.tab.stages

        def pack(st: np.ndarray) -> np.ndarray:  # (..., s, c, band) -> (..., s*dim)
            return chart.coeffs_to_real(st).reshape(*st.shape[:-3], -1)

        def unpack(z: np.ndarray) -> np.ndarray:  # (..., s*dim) -> (..., s, c, band)
            return chart.real_to_coeffs(z.reshape(*z.shape[:-1], s, -1))

        def residual_vec(z: np.ndarray) -> np.ndarray:
            st = unpack(z)
            g = st - self._apply_resolvent(self._rhs(um.coeffs, self._force_stack(st)))
            return pack(g)

        z = pack(stages)
        dim = z.size
        for it in range(1, self.config.max_iter + 1):
            r = residual_vec(z)
            res = float(np.linalg.norm(r)) / scale
            if not math.isfinite(res):
                raise ConvergenceError("Newton stage solve produced a non-finite residual", res, it)
            if res <= self.config.tol:
                return StageResult(unpack(z), it, res)
            # central differences along every chart axis, all 2 dim states in one stack
            eps = 1e-7 * (1.0 + float(np.linalg.norm(z)))
            shift = eps * np.eye(dim)
            g = residual_vec(np.concatenate((z + shift, z - shift)))
            jac = ((g[:dim] - g[dim:]) / (2 * eps)).T
            try:
                z = z - np.linalg.solve(jac, r)
            except np.linalg.LinAlgError as exc:
                raise ConvergenceError("Newton stage Jacobian is singular", res, it) from exc
        raise ConvergenceError("Newton stage solve did not converge", res, self.config.max_iter)

    def step(self, U: FourierState) -> FourierState:
        um = self.model.project(U, self.m)
        stages = self.solve_stages(um)
        lin = np.einsum("kij,jk->ik", self._stability, um.coeffs)
        if self.h == 0.0:
            return FourierState(self.grid, lin)
        force = self._force_stack(stages.stages)
        flat = force.reshape(-1, self.grid.band_size)
        corr = np.einsum("kca,ak->ck", self._update_row, flat)
        return FourierState(self.grid, lin + corr)


def linear_operator_bounds(
    model: PdeModel,
    tab: ButcherTableau,
    grid: FourierGrid,
    h: float,
    m: float | None = None,
) -> dict[str, float]:
    """Measured energy-norm bounds of the linear step pieces on the band.

    Returns {"resolvent": Lambda, "one_plus_resolvent": 1 + Lambda,
    "stability": c_S} where Lambda is the largest weighted operator norm of
    the stage resolvent over band modes and c_S the same for S(hA).
    """
    stepper = Stepper(model, grid, tab, h, m)
    mask = band_mask(grid, m, model.q)
    w = _mode_weights(grid, model.components, GevreyIndex(0.0, 0.0, model.q))
    s, c = tab.stages, model.components
    lam = 0.0
    cs = 0.0
    for k in range(grid.band_size):
        if not mask[k]:
            continue
        d = w[:, k]
        ds = np.tile(d, s)
        res = stepper._resolvent[k] * (ds[:, None] / ds[None, :])
        lam = max(lam, float(np.linalg.norm(res, 2)))
        stab = stepper._stability[k] * (d[:, None] / d[None, :])
        cs = max(cs, float(np.linalg.norm(stab, 2)))
    return {"resolvent": lam, "one_plus_resolvent": 1.0 + lam, "stability": cs}


def symplecticity_residual(
    model: PdeModel,
    tab: ButcherTableau,
    U: FourierState,
    h: float,
    m: float | None = None,
    config: StageSolveConfig | None = None,
    eps0: float = 1e-5,
    jacobian: str = "fd",
) -> float:
    """max-abs entry of D^T Omega D - Omega for the step Jacobian D on the band.

    Omega is the chart matrix of J^{-1}; D comes from fourth-order central
    differences (jacobian="fd"), or from applying the step to basis states
    when the problem is linear (jacobian="linear", exact).
    """
    config = config or StageSolveConfig(tol=1e-14)
    stepper = Stepper(model, U.grid, tab, h, m, config)
    chart = model.chart(U.grid, m)
    if jacobian == "linear":
        cols = [chart.to_real(stepper.step(chart.basis_state(i))) for i in range(chart.dim)]
        jac = np.column_stack(cols)
    elif jacobian == "fd":
        jac = fd_jacobian(lambda s: chart.to_real(stepper.step(s)), chart, U, eps0)
    else:
        raise ValueError(f"unknown jacobian mode {jacobian!r}")
    omega = chart.symplectic_matrix()
    return float(np.max(np.abs(jac.T @ omega @ jac - omega)))
