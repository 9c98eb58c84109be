r"""A-stable symplectic implicit Runge-Kutta methods on Fourier bands.

The Gauss-Legendre collocation family is built from the roots of shifted
Legendre polynomials; with s stages it has classical order 2s, an invertible
coefficient matrix a, and satisfies the symplecticity identity

    b_i a_ij + b_j a_ji - b_i b_j = 0.

Steps are taken in the solved-linear-part form.  With R = (I - h a (x) A)^{-1}
the stage-coupled resolvent, assembled and inverted mode by mode, the stages
stacked over the band solve

    W = W_0 + G B(W),    W_0 = R (1 (x) I) U,    G = h R (a (x) I),

where the base map R (1 (x) I) and the stage gain G are precomputed per mode,
so one fixed-point iteration is one force evaluation and one mode-wise
contraction.  The forces of all s stages are evaluated as one batch, B applied
to the (s, components, band) stack through a single FFT pair.  The alternative
Newton solve works in real chart coordinates on the residual W - W_0 - G B(W);
its dense central-difference Jacobian comes from one residual evaluation on the
stack of all 2 dim perturbed stage states.  The update

    Psi_m^h(U) = S(hA) U + h (b (x) I)^T R B(W),

with S(z) = 1 + z b^T (I - z a)^{-1} 1 the stability function, reuses the
forces B(W) that the stage solve returns with its stages.  Everything is
restricted to the projection band of radius m throughout, so the step map
leaves P_m Y invariant exactly; P_m acts mode by mode and is folded into the
per-mode arrays that read the input, so a step of U is the step of P_m U.
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
)

_LOG4_MINUS_1 = 2.0 * math.log(2.0) - 1.0
_STAGNATION_FLOOR = 50.0 * np.finfo(float).eps


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
    forces: np.ndarray  # P_m B(P_m W) of the returned stages, same shape


class Stepper:
    """One-step map Psi_m^h for a fixed (model, grid, tableau, h, m).

    Holds the per-mode stage resolvent, base map, stage gain, update row and
    stability blocks, so repeated steps only pay for the nonlinear iteration.
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
        mask = band_mask(grid, m, model.q)  # P_m acts per mode, folded into what reads U
        blocks = model.a_blocks(grid)  # (band, c, c)
        eye = np.eye(s * c)
        mats = eye[None, :, :] - self.h * np.kron(tab.a, np.ones((c, c)))[None, :, :] * np.tile(
            blocks, (s, s)
        )
        try:
            self._resolvent = np.linalg.inv(mats)  # (band, sc, sc)
        except np.linalg.LinAlgError as exc:
            raise PoleError(f"stage resolvent singular at h={h}") from exc
        # base map R (1 (x) I), stage gain G = h R (a (x) I), update row h (b (x) I)^T R
        # and stability blocks I + h (b (x) I)^T R (1 (x) A), all with modes last
        rt = self._resolvent.transpose(1, 2, 0)
        cols = rt.reshape(s * c, s, c, -1)
        self._base = cols.sum(axis=1) * mask  # (sc, c, band)
        self._gain = np.einsum("piyk,ij->pjyk", cols, self.h * tab.a).reshape(s * c, s * c, -1)
        update_row = self.h * np.einsum("i,ixpk->xpk", tab.b, rt.reshape(s, c, s * c, -1))
        self._stability = np.eye(c)[:, :, None] + np.einsum(
            "xpk,kpd->xdk", update_row, np.concatenate([blocks] * s, axis=1)
        )
        # forces first: the step sums the small correction before adding S(hA) U, which
        # rounds once at the size of U (criterion 04's smallest-h drift is below one ulp of H)
        self._update = np.concatenate((update_row, self._stability), axis=1) * mask
        self._weights = _mode_weights(grid, c, GevreyIndex(0.0, 0.0, model.q)) * mask

    def _sq_norms(self, coeffs: np.ndarray) -> np.ndarray:
        """Squared energy norms of a (..., c, band) stack, summed in y_norm's order."""
        return ((self._weights * np.abs(np.ascontiguousarray(coeffs))) ** 2).sum(axis=(-2, -1))

    def _stage_map(self, w0: np.ndarray, force: np.ndarray) -> np.ndarray:
        """W_0 + G B(W) for (..., s, c, band) force stacks; w0 is W_0 as (sc, band)."""
        flat = force.reshape(*force.shape[:-3], *w0.shape)
        return (w0 + np.einsum("pqk,...qk->...pk", self._gain, flat)).reshape(force.shape)

    # -- public ------------------------------------------------------------

    def solve_stages(self, U: FourierState) -> StageResult:
        """Stages of the step from P_m U; U itself need not lie in the band."""
        scale = 1.0 + math.sqrt(self._sq_norms(U.coeffs))
        w0 = (self._base * U.coeffs).sum(axis=-2)
        stages = w0.reshape(self.tab.stages, -1, self.grid.band_size)
        if self.config.scheme == "newton_on_modes":
            return self._solve_newton(w0, stages, scale)
        prev = math.inf
        force = self.model.force(self.grid, stages, self.m)
        for it in range(1, self.config.max_iter + 1):
            new = self._stage_map(w0, force)
            # largest stage energy norm of the update; NaN if any stage is NaN
            res = math.sqrt(self._sq_norms(new - stages).max()) / scale
            stages = new
            if not math.isfinite(res):
                raise ConvergenceError("stage iteration produced a non-finite residual", res, it)
            force = self.model.force(self.grid, stages, self.m)
            if res <= self.config.tol:
                return StageResult(stages, it, res, force)
            if res <= _STAGNATION_FLOOR or (res < 1e-9 and res > 0.5 * prev):
                # machine-precision stagnation: the iterate stopped improving
                return StageResult(stages, it, res, force)
            prev = res
        raise ConvergenceError("stage iteration did not converge", res, self.config.max_iter)

    @cached_property
    def _chart(self) -> RealChart:
        return self.model.chart(self.grid, self.m)

    def _solve_newton(self, w0: np.ndarray, stages: np.ndarray, scale: float) -> StageResult:
        chart, s = self._chart, self.tab.stages

        def pack(st: np.ndarray) -> np.ndarray:  # (..., s, c, band) -> (..., s*dim)
            return chart.coeffs_to_real(st).reshape(*st.shape[:-3], -1)

        def residual(z: np.ndarray):  # (..., s*dim) -> stages, their forces, residual
            st = chart.real_to_coeffs(z.reshape(*z.shape[:-1], s, -1))
            force = self.model.force(self.grid, st, self.m)
            return st, force, pack(st - self._stage_map(w0, force))

        z = pack(stages)
        dim = z.size
        for it in range(1, self.config.max_iter + 1):
            stages, force, r = residual(z)
            res = float(np.linalg.norm(r)) / scale
            if not math.isfinite(res):
                raise ConvergenceError("Newton stage solve produced a non-finite residual", res, it)
            if res <= self.config.tol:
                return StageResult(stages, it, res, force)
            # central differences along every chart axis, all 2 dim states in one stack
            eps = 1e-7 * (1.0 + float(np.linalg.norm(z)))
            shift = eps * np.eye(dim)
            g = residual(np.concatenate((z + shift, z - shift)))[2]
            jac = ((g[:dim] - g[dim:]) / (2 * eps)).T
            try:
                z = z - np.linalg.solve(jac, r)
            except np.linalg.LinAlgError as exc:
                raise ConvergenceError("Newton stage Jacobian is singular", res, it) from exc
        raise ConvergenceError("Newton stage solve did not converge", res, self.config.max_iter)

    def step(self, U: FourierState) -> FourierState:
        """Psi_m^h(P_m U)."""
        forces = self.solve_stages(U).forces.reshape(-1, self.grid.band_size)
        both = np.concatenate((forces, U.coeffs))  # (sc + c, band)
        return FourierState(self.grid, (self._update * both).sum(axis=1))


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
        stab = stepper._stability[..., k] * (d[:, None] / d[None, :])
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
