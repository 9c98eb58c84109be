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

``expand_step_map`` also takes stacks of states, shape (..., components,
band) with leading batch axes, and makes one nonlinearity call per order for
the whole stack; a single state runs the same arithmetic as a batch of one.
``fd_directional``, the fourth-order directional difference behind the
modified-field recursion, works on stacks of N states only and makes one
field call on all 4N stencil points.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from .errors import OrderCapError
from .models import PdeModel
from .rk import ButcherTableau
from .spectral import FourierGrid, FourierState

ORDER_CAP = 12


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

    @property
    def order(self) -> int:
        return self.coeffs.shape[0] - 1

    def coefficient(self, j: int) -> FourierState:
        return FourierState(self.grid, self.coeffs[j].copy())

    def evaluate(self, h: float) -> FourierState:
        """Horner evaluation of the series at step size h."""
        acc = self.coeffs[-1].copy()
        for j in range(self.order - 1, -1, -1):
            acc = acc * h + self.coeffs[j]
        return FourierState(self.grid, acc)


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
    F: Callable[[np.ndarray], np.ndarray],
    U: np.ndarray,
    direction: np.ndarray,
    eps: np.ndarray,
) -> np.ndarray:
    """Fourth-order central difference of F at each state of U along direction.

    For stacks U, direction (N, c, band) with steps eps (N,), F maps the 4N
    stencil points, ordered +2 eps, +eps, -eps, -2 eps, in one call.
    """
    e = np.asarray(eps, dtype=float)[:, np.newaxis, np.newaxis]
    points = np.concatenate(
        (U + (2.0 * e) * direction, U + e * direction, U - e * direction, U - (2.0 * e) * direction)
    )
    fp2, fp1, fm1, fm2 = np.reshape(F(points), (4,) + U.shape)
    return (-1.0 * fp2 + 8.0 * fp1 + (-8.0) * fm1 + fm2) * (1.0 / (12.0 * e))
