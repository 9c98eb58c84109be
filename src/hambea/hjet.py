r"""Truncated power-series jets of the one-step map in the step size.

An HJet holds coefficients Psi_0, Psi_1, ... of the expansion

    Psi_m^h(U) = Psi_0 + h Psi_1 + h^2 Psi_2 + ... ,

each a band-limited state.  ``expand_step_map`` produces these coefficients
exactly (no finite differences): writing the stage system in the solved form
(I - h a (x) A) W = 1 (x) U + h a (x) B(W) and expanding W in powers of h,
every order-j stage coefficient is determined explicitly by lower ones,

    W_0 = 1 (x) U,      W_j = a (x) (A W_{j-1} + [B(W)]_{j-1}),

because the nonlinearity enters with an explicit factor of h.  [B(W)]_i is
the i-th series coefficient of the nonlinearity composed with the stage jet,
evaluated through the same pseudospectral path as a plain force call.  The
update coefficients follow from Psi_j = b^T (A W_{j-1} + [B(W)]_{j-1}).

Both entry points also take stacks of states, shape (..., components, band)
with leading batch axes: a jet takes one nonlinearity call per order for the
whole stack, and a directional difference one field call on all 4N stencil
points.  A single state runs the same arithmetic as a batch of one.

Lie derivatives of vector fields are approximated by fourth-order central
differences along the field direction; the step eps is tuned to the size of
the state and direction and can be widened by callers differentiating fields
that are themselves noisy.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from .errors import OrderCapError
from .models import PdeModel
from .rk import ButcherTableau
from .spectral import FourierGrid, FourierState, project, y_norm

ORDER_CAP = 12

VectorFieldEval = Callable[[FourierState], FourierState]


class HJet:
    """Series of band states: coeffs has shape (order+1, ..., components, band).

    The axes in between are batch axes; coefficient and evaluate need none.
    """

    __slots__ = ("grid", "coeffs")

    def __init__(self, grid: FourierGrid, coeffs: np.ndarray):
        coeffs = np.asarray(coeffs, dtype=complex)
        if coeffs.ndim < 3 or coeffs.shape[-1] != grid.band_size:
            raise ValueError("jet coefficients must have shape (order+1, ..., c, band)")
        self.grid = grid
        self.coeffs = coeffs

    @classmethod
    def constant(cls, U: FourierState, order: int) -> "HJet":
        coeffs = np.zeros((order + 1,) + U.coeffs.shape, dtype=complex)
        coeffs[0] = U.coeffs
        return cls(U.grid, coeffs)

    @property
    def order(self) -> int:
        return self.coeffs.shape[0] - 1

    def coefficient(self, j: int) -> FourierState:
        return FourierState(self.grid, self.coeffs[j].copy())

    def truncate(self, order: int) -> "HJet":
        return HJet(self.grid, self.coeffs[: order + 1].copy())

    def evaluate(self, h: float) -> FourierState:
        """Horner evaluation of the series at step size h."""
        acc = self.coeffs[-1].copy()
        for j in range(self.order - 1, -1, -1):
            acc = acc * h + self.coeffs[j]
        return FourierState(self.grid, acc)

    def __add__(self, other: "HJet") -> "HJet":
        if self.grid != other.grid or self.order != other.order:
            raise ValueError("jet mismatch")
        return HJet(self.grid, self.coeffs + other.coeffs)

    def __mul__(self, scalar: complex) -> "HJet":
        return HJet(self.grid, self.coeffs * scalar)

    __rmul__ = __mul__


def jet_lift_nonlinearity(model: PdeModel, jet: HJet, m: float | None = None) -> HJet:
    """Series of B(P_m U(h)) for a state jet U(h), order-matched to the input."""
    return HJet(jet.grid, model.force_series_coeffs(jet.grid, jet.coeffs, m))


def expand_step_map(
    model: PdeModel,
    tab: ButcherTableau,
    U: FourierState | np.ndarray,
    m: float | None = None,
    order: int = 4,
    grid: FourierGrid | None = None,
) -> HJet:
    """Exact h-jet of the step map Psi_m^h at U, to the requested order.

    Coefficient 0 is P_m U; coefficient j >= 1 is the j-th Taylor coefficient
    g^j of the method map in the step size; U may be a stack (..., c, band)
    on grid.  Orders above ORDER_CAP raise OrderCapError (the stage recursion
    is exact but its cost and conditioning grow with the order).
    """
    if order < 0:
        raise ValueError("order must be nonnegative")
    if order > ORDER_CAP:
        raise OrderCapError(f"jet order {order} exceeds the cap {ORDER_CAP}")
    if isinstance(U, FourierState):
        grid, U = U.grid, U.coeffs
    um = model._masked(grid, U, m)
    blocks = model.a_blocks(grid)  # (band, c, c)
    # stage coefficients W[j] of shape (..., s, c, band)
    W = np.zeros((order + 1,) + um.shape[:-2] + (tab.stages,) + um.shape[-2:], dtype=complex)
    W[0] = um[..., np.newaxis, :, :]
    psi = np.zeros((order + 1,) + um.shape, dtype=complex)
    psi[0] = um
    for j in range(1, order + 1):
        rhs = np.einsum("kij,...sjk->...sik", blocks, W[j - 1])
        rhs = rhs + model.force_series_coeffs(grid, W[:j], m)[j - 1]
        W[j] = np.einsum("il,...lck->...ick", tab.a, rhs)
        psi[j] = np.einsum("l,...lck->...ck", tab.b, rhs)
    return HJet(grid, psi)


def fd_directional(
    F: Callable,
    U: FourierState | np.ndarray,
    direction: FourierState | np.ndarray,
    eps: float | np.ndarray,
) -> FourierState | np.ndarray:
    """Fourth-order central difference of F at U along a fixed direction.

    For stacks U, direction (N, c, band) with steps eps (N,), F maps the 4N
    stencil points, ordered +2 eps, +eps, -eps, -2 eps, in one call.
    """
    if isinstance(U, FourierState):
        grid = U.grid
        out = fd_directional(
            lambda points: np.stack([F(FourierState(grid, p)).coeffs for p in points]),
            U.coeffs[np.newaxis], direction.coeffs[np.newaxis], np.array([eps]),
        )
        return FourierState(grid, out[0])
    e = np.asarray(eps, dtype=float)[:, np.newaxis, np.newaxis]
    points = np.concatenate(
        (U + (2.0 * e) * direction, U + e * direction, U - e * direction, U - (2.0 * e) * direction)
    )
    fp2, fp1, fm1, fm2 = np.reshape(F(points), (4,) + U.shape)
    return (-1.0 * fp2 + 8.0 * fp1 + (-8.0) * fm1 + fm2) * (1.0 / (12.0 * e))


def lie_derivative(
    F: VectorFieldEval,
    G: VectorFieldEval,
    U: FourierState,
    m: float | None = None,
    q: float = 1.0,
    eps0: float = 1e-5,
) -> FourierState:
    """(D F . G)(U) = DF(U) G(U) by fourth-order central differences.

    The step is eps = eps0 (1 + ||U||) / (1 + ||G(U)||) in the energy norm of
    exponent q.  A zero direction short-circuits to the zero state.  Callers
    differentiating fields that carry their own evaluation noise should widen
    eps0 accordingly.
    """
    d = G(U)
    if m is not None:
        d = project(d, m, q)
    dn = y_norm(d, q)
    if dn == 0.0:
        return FourierState(U.grid, np.zeros_like(U.coeffs))
    eps = eps0 * (1.0 + y_norm(U, q)) / (1.0 + dn)
    return fd_directional(F, U, d, eps)
