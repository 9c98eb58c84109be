r"""Truncated power-series jets of the one-step map in the step size.

An HJet holds coefficients Psi_0, Psi_1, ... of the expansion

    Psi_m^h(U) = Psi_0 + h Psi_1 + h^2 Psi_2 + ... ,

each a band-limited state.  ``expand_step_map`` produces these coefficients
exactly (no finite differences), also for an input that is itself a jet
U(h) = U_0 + h U_1 + ... : writing the stage system in the solved form
(I - h a (x) A) W = 1 (x) U(h) + h a (x) B(W) and expanding W in powers of h,
every order-j stage coefficient is determined explicitly by lower ones,

    W_j = 1 (x) U_j + a (x) (A W_{j-1} + [B(W)]_{j-1}),

because the nonlinearity enters with an explicit factor of h.  [B(W)]_i is
the i-th series coefficient of the nonlinearity composed with the stage jet,
evaluated through the same pseudospectral path as a plain force call.  The
update coefficients follow from Psi_j = U_j + b^T (A W_{j-1} + [B(W)]_{j-1}).
A plain state is the jet (U, 0, 0, ...), and feeding a jet back in gives the
jets of the orbit Psi^i(U), from which bea builds the modified field.

``expand_step_map`` also takes stacks of states, shape (..., components,
band) with leading batch axes, and makes one nonlinearity call per order for
the whole stack; a single state runs the same arithmetic as a batch of one.
``fd_directional`` is a fourth-order directional difference on stacks; the
tests use it as a stencil reference for exact derivatives.
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
    U: FourierState | HJet | np.ndarray,
    m: float | None = None,
    order: int = 4,
    grid: FourierGrid | None = None,
) -> HJet:
    """Exact h-jet of the step map Psi_m^h applied to U, to the requested order.

    U is a state, a stack (..., c, band) of states on grid, or a jet U(h) of
    either (its coefficients above order are ignored); a plain state is the
    jet (U, 0, 0, ...).  Coefficient j of the result is the j-th Taylor
    coefficient of Psi_m^h(P_m U(h)) in the step size, so iterating this on
    its own output gives the jets of the orbit Psi^i(U).  Orders above
    ORDER_CAP raise OrderCapError (the stage recursion is exact but its cost
    and conditioning grow with the order).
    """
    if order < 0:
        raise ValueError("order must be nonnegative")
    if order > ORDER_CAP:
        raise OrderCapError(f"jet order {order} exceeds the cap {ORDER_CAP}")
    if isinstance(U, HJet):
        grid, series = U.grid, U.coeffs[: order + 1]
    else:
        if isinstance(U, FourierState):
            grid, U = U.grid, U.coeffs
        series = np.asarray(U)[np.newaxis]
    um = np.zeros((order + 1,) + series.shape[1:], dtype=complex)
    um[: series.shape[0]] = model._masked(grid, series, m)
    blocks = model.a_blocks(grid)  # (band, c, c)
    # stage coefficients W[j] of shape (..., s, c, band), W_j = U_j + a (...)
    W = np.zeros(um.shape[:-2] + (tab.stages,) + um.shape[-2:], dtype=complex)
    W[...] = um[..., np.newaxis, :, :]
    psi = um.copy()
    for j in range(1, order + 1):
        rhs = np.einsum("kij,...sjk->...sik", blocks, W[j - 1])
        rhs = rhs + model.force_series_coeffs(grid, W[:j], m)[j - 1]
        W[j] += np.einsum("il,...lck->...ick", tab.a, rhs)
        psi[j] += np.einsum("l,...lck->...ck", tab.b, rhs)
    return HJet(grid, psi)


def fd_directional(
    F: Callable[[np.ndarray], np.ndarray],
    U: np.ndarray,
    direction: np.ndarray,
    eps: np.ndarray,
) -> np.ndarray:
    """Fourth-order central difference of F at each state of U along direction.

    For stacks U, direction (N, c, band) with steps eps (N,), F maps the 4N
    stencil points, ordered +2 eps, +eps, -eps, -2 eps, in one call.  No
    library path calls it; it stays as the reference the tests check exact
    derivatives against, and because the benchmark tracer binds it by name.
    """
    e = np.asarray(eps, dtype=float)[:, np.newaxis, np.newaxis]
    points = np.concatenate(
        (U + (2.0 * e) * direction, U + e * direction, U - e * direction, U - (2.0 * e) * direction)
    )
    fp2, fp1, fm1, fm2 = np.reshape(F(points), (4,) + U.shape)
    return (-1.0 * fp2 + 8.0 * fp1 + (-8.0) * fm1 + fm2) * (1.0 / (12.0 * e))
