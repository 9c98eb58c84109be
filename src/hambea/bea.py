r"""Executable backward error analysis of the symplectic step maps.

For a method of order p with exact h-expansion Psi^h(y) = y + sum_j h^j g^j(y)
(coefficients from the jet machinery, noise-free), the modified vector field
f-tilde with coefficients f^1 = f, f^{j+1}, ... is built from the matching
recursion: the time-h flow of f-tilde must reproduce Psi^h order by order,
which pins

    f^j(y) = g^j(y)
             - sum_{i=2}^{j} 1/i! sum_{k_1+...+k_i = j, k_r >= 1}
               (D_{k_1} ... D_{k_{i-1}} f^{k_i})(y),

where D_k v = Dv . f^k is the Lie derivative along f^k.  The nested
derivatives are evaluated by fourth-order central differences; the inner step
widens with the estimated noise of the field being differentiated (a noisy
field needs a coarser stencil), and every coefficient carries a propagated
noise estimate that is surfaced to callers.  For an order-p method the
coefficients f^2 ... f^p vanish identically; the series paths exploit that,
while the raw recursion remains available so the cancellation can be measured
rather than assumed.

Coefficients are evaluated on stacks of states of shape (N, components,
band): each stencil level of a chain is one evaluation on all 4N stencil
points, and the quadrature nodes of a modified energy form one stack.

The truncated field f-tilde^n = f + sum_{j=p}^{n-1} h^j f^{j+1} generates the
modified flow (a high-accuracy reference integration over one step) and the
modified energy

    H-tilde(U) = H(U) + sum_{j=p}^{n-1} h^j H^{j+1}(U),
    H^j(U) = int_0^1 <U - U0, J^{-1} f^j(U0 + t (U - U0))> dt,

with the pairing and anchor U0 supplied by the model.  A step-size-coupled
truncation policy chooses the projection radius m(h) and order n(h) so that
the leftover drift of H-tilde decays faster than any power of h.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.integrate import solve_ivp

from .errors import OrderCapError
from .hjet import expand_step_map, fd_directional
from .models import PdeModel
from .rk import ButcherTableau
from .spectral import FourierGrid, FourierState, y_norm, y_norms

N_MAX_DEFAULT = 6
_CLEAN = 1e-16  # relative noise attributed to a directly computed field


@lru_cache(maxsize=None)
def _compositions(total: int) -> tuple[tuple[int, ...], ...]:
    """Ordered tuples of positive integers summing to total, length >= 2."""

    def gen(t: int):
        if t == 0:
            yield ()
            return
        for first in range(1, t + 1):
            for rest in gen(t - first):
                yield (first,) + rest

    return tuple(c for c in gen(total) if len(c) >= 2)


class ModifiedField:
    """Evaluator for the modified-field coefficients of (model, tableau, band).

    Nothing is stored per state, only per-order noise estimates, so one
    instance serves any number of states.  assume_order=True treats f^2..f^p
    as identically zero, which is exact for an order-p method and keeps
    finite-difference noise out of the higher coefficients;
    assume_order=False runs the raw recursion.

    eps0 is the base relative stencil width.  The derivative chains are
    smooth (polynomial for the bundled models), so the width can sit far
    above sqrt-of-roundoff territory before fourth-order truncation error
    shows up; 3e-4 minimizes the measured noise on a coefficient whose true
    value is known to vanish, beating 1e-5 by three orders of magnitude.
    """

    def __init__(
        self,
        model: PdeModel,
        tab: ButcherTableau,
        m: float | None = None,
        n_max: int = N_MAX_DEFAULT,
        eps0: float = 3e-4,
        assume_order: bool = True,
    ):
        self.model = model
        self.tab = tab
        self.m = m
        self.n_max = n_max
        self.eps0 = eps0
        self.assume_order = assume_order
        self._noise: dict[int, float] = {}
        self._probe: dict[int, float] = {}

    def _eps_rel(self, noise: float) -> float:
        """Stencil width for differentiating a field of the given noise level."""
        return self.eps0 * max(1.0, (noise / _CLEAN) ** 0.2)

    # -- noise bookkeeping --------------------------------------------------

    def field_noise(self, j: int) -> float:
        """Propagated relative-noise estimate of the coefficient f^j."""
        if j in self._noise:
            return self._noise[j]
        if j == 1:
            out = _CLEAN
        elif self.assume_order and 2 <= j <= self.tab.order:
            out = 0.0
        else:
            out = 10.0 * _CLEAN  # jet coefficient roundoff
            for comp in self._terms(j):
                out += self._chain_noise(comp) / math.factorial(len(comp))
        self._noise[j] = out
        return out

    def _chain_noise(self, chain: tuple[int, ...]) -> float:
        if len(chain) == 1:
            return self.field_noise(chain[0])
        inner = self._chain_noise(chain[1:])
        eps = self._eps_rel(inner)
        return 1.5 * inner / eps + eps**4 + _CLEAN

    # -- recursion ----------------------------------------------------------

    def _terms(self, j: int) -> list[tuple[int, ...]]:
        comps = _compositions(j)
        if not self.assume_order:
            return list(comps)
        p = self.tab.order
        return [c for c in comps if not any(2 <= k <= p for k in c)]

    def coefficient(self, j: int, U: FourierState) -> FourierState:
        """The coefficient f^j evaluated at U."""
        return FourierState(U.grid, self.coefficients(j, U.grid, U.coeffs[np.newaxis])[0])

    def coefficients(self, j: int, grid: FourierGrid, Y: np.ndarray) -> np.ndarray:
        """f^j at each state of the stack Y, shape (N, components, band).

        Non-finite states (trial points of an adaptive caller that blew up)
        answer NaN without being evaluated.
        """
        if j < 1:
            raise ValueError("coefficient index starts at 1")
        if j > max(self.n_max, 1):
            raise OrderCapError(f"coefficient order {j} exceeds the cap {self.n_max}")
        finite = np.all(np.isfinite(Y), axis=(-2, -1))
        if not finite.all():
            out = np.full(Y.shape, np.nan, dtype=complex)
            if finite.any():
                out[finite] = self.coefficients(j, grid, Y[finite])
            return out
        if self.assume_order and 2 <= j <= self.tab.order:
            return np.zeros_like(Y)
        if j == 1:
            ym = self.model._masked(grid, Y, self.m)
            blocks = self.model.a_blocks(grid)
            return np.einsum("mij,...jm->...im", blocks, ym) + self.model.force(grid, ym, self.m)
        out = expand_step_map(self.model, self.tab, Y, self.m, j, grid).coeffs[j]
        for comp in self._terms(j):
            out = out - (1.0 / math.factorial(len(comp))) * self._chain(comp, grid, Y)
        return out

    def _chain(self, chain: tuple[int, ...], grid: FourierGrid, Y: np.ndarray) -> np.ndarray:
        """(D_{chain[0]} ... D_{chain[-2]} f^{chain[-1]}) at each state of Y.

        Zero where the direction vanishes, NaN where the stencil width is not
        a positive number; all other states share one stencil evaluation.
        """
        if len(chain) == 1:
            return self.coefficients(chain[0], grid, Y)
        d = self.coefficients(chain[0], grid, Y)
        dn = y_norms(grid, d, self.model.q)
        eps_rel = self._eps_rel(self._chain_noise(chain[1:]))
        eps = eps_rel * (1.0 + y_norms(grid, Y, self.model.q)) / (1.0 + dn)
        usable = np.isfinite(eps) & (eps > 0.0)
        out = np.zeros_like(Y)
        out[(dn != 0.0) & ~usable] = np.nan
        rows = (dn != 0.0) & usable
        if rows.any():
            inner = lambda points: self._chain(chain[1:], grid, points)  # noqa: E731
            out[rows] = fd_directional(inner, Y[rows], d[rows], eps[rows])
        return out

    # -- series -------------------------------------------------------------

    def series_eval(self, U: FourierState, h: float, n: int) -> FourierState:
        """f-tilde^n(U; h) = f(U) + sum_{j=p}^{n-1} h^j f^{j+1}(U)."""
        if n < 1:
            raise ValueError("truncation order n must be at least 1")
        if n > self.n_max:
            raise OrderCapError(f"truncation order {n} exceeds the cap {self.n_max}")
        out = self.coefficient(1, U)
        for j in range(self.tab.order, n):
            out = out + (h**j) * self.coefficient(j + 1, U)
        return out

    def series_noise(self, h: float, n: int) -> float:
        """Relative-noise estimate of a series evaluation at step size h.

        The per-coefficient estimates compound worst case through the nested
        stencils, so this is an upper bound; measured_series_noise is the
        sharper, empirical counterpart.
        """
        out = _CLEAN
        for j in range(self.tab.order, n):
            out += abs(h) ** j * self.field_noise(j + 1)
        return out

    def measured_noise_abs(self, j: int, U: FourierState) -> float:
        """Empirical noise scale of f^j at U (norm units).

        Re-evaluates the coefficient in a fresh context with a shifted
        stencil width; the difference isolates the stencil-dependent part.
        Cached per j against the first probed point.
        """
        if j in self._probe:
            return self._probe[j]
        if j == 1 or (self.assume_order and 2 <= j <= self.tab.order):
            out = _CLEAN * max(1.0, y_norm(self.coefficient(1, U), self.model.q))
        else:
            alt = ModifiedField(
                self.model,
                self.tab,
                self.m,
                n_max=self.n_max,
                eps0=self.eps0 * 1.37,
                assume_order=self.assume_order,
            )
            out = y_norm(self.coefficient(j, U) - alt.coefficient(j, U), self.model.q)
        self._probe[j] = out
        return out

    def measured_series_noise(self, U: FourierState, h: float, n: int) -> float:
        """Empirical noise scale (norm units) of the truncated series at U."""
        out = _CLEAN * max(1.0, y_norm(self.coefficient(1, U), self.model.q))
        for j in range(self.tab.order, n):
            out += abs(h) ** j * self.measured_noise_abs(j + 1, U)
        return out


def modified_flow(
    model: PdeModel,
    tab: ButcherTableau,
    U: FourierState,
    h: float,
    n: int,
    m: float | None = None,
    mf: ModifiedField | None = None,
    rtol: float = 1e-13,
    atol: float = 1e-15,
) -> FourierState:
    """Flow of the truncated modified field over one step [0, h].

    n = 1 reduces to reference integration of the band-truncated system.  The
    integrator is a high-order embedded pair left fully adaptive: each
    right-hand-side evaluation prices a whole coefficient recursion, so a
    step cap would multiply the cost for no accuracy gain.  The requested
    tolerances are floored at the measured stencil noise of the series;
    without that floor the error controller chases noise it can never beat
    and the step collapses.
    """
    if mf is None:
        mf = ModifiedField(model, tab, m, n_max=max(N_MAX_DEFAULT, n))
    chart = model.chart(U.grid, m)
    um = model.project(U, m) if m is not None else U
    z0 = chart.to_real(um)

    noise = mf.measured_series_noise(um, h, n)
    scale = max(1.0, float(np.linalg.norm(z0)))
    rtol_eff = max(rtol, 5.0 * noise / scale)
    atol_eff = max(atol, 0.5 * noise)

    def rhs(_t, z):
        # overflow at rejected trial points is expected and answered with NaN
        with np.errstate(over="ignore", invalid="ignore"):
            return chart.to_real(mf.series_eval(chart.from_real(z), h, n))

    sol = solve_ivp(
        rhs,
        (0.0, h),
        z0,
        method="DOP853",
        rtol=rtol_eff,
        atol=atol_eff,
        first_step=h / 4.0,
    )
    if not sol.success:
        raise RuntimeError(f"modified-flow integration failed: {sol.message}")
    return chart.from_real(sol.y[:, -1])


def _quad_nodes(nodes: int) -> tuple[np.ndarray, np.ndarray]:
    x, w = np.polynomial.legendre.leggauss(nodes)
    return (x + 1.0) / 2.0, w / 2.0


def modified_hamiltonian_terms(
    model: PdeModel,
    tab: ButcherTableau,
    U: FourierState,
    n: int,
    m: float | None = None,
    anchor: FourierState | None = None,
    nodes: int = 16,
    mf: ModifiedField | None = None,
) -> dict[int, float]:
    """Line-integral energies H^j(U) for j = p+1 .. n (independent of h).

    H^j(U) = int_0^1 <U - U0, J^{-1} f^j(U0 + t (U - U0))> dt with the model
    pairing, anchored at U0 (zero state by default), by Gauss-Legendre
    quadrature in t; the nodes go through the recursion as one stack per j.
    """
    if mf is None:
        mf = ModifiedField(model, tab, m, n_max=max(N_MAX_DEFAULT, n))
    um = model.project(U, m) if m is not None else U
    u0 = anchor if anchor is not None else FourierState(um.grid, np.zeros_like(um.coeffs))
    diff = um - u0
    t, w = _quad_nodes(nodes)
    points = u0.coeffs + t[:, np.newaxis, np.newaxis] * diff.coeffs
    out: dict[int, float] = {}
    for j in range(tab.order + 1, n + 1):
        fj = mf.coefficients(j, um.grid, points)
        acc = 0.0
        for fi, wi in zip(fj, w):
            acc += wi * model.pairing(diff, model.apply_J_inv(FourierState(um.grid, fi)))
        out[j] = acc
    return out


def modified_hamiltonian_eval(
    model: PdeModel,
    tab: ButcherTableau,
    U: FourierState,
    h: float,
    n: int,
    m: float | None = None,
    anchor: FourierState | None = None,
    nodes: int = 16,
    mf: ModifiedField | None = None,
) -> float:
    """Modified energy H-tilde(U; h) = H(P_m U) + sum_{j=p}^{n-1} h^j H^{j+1}(U)."""
    um = model.project(U, m) if m is not None else U
    base = model.hamiltonian(um)
    terms = modified_hamiltonian_terms(model, tab, U, n, m, anchor, nodes, mf)
    return base + sum(h ** (j - 1) * hj for j, hj in terms.items())


def gradient_consistency(
    model: PdeModel,
    tab: ButcherTableau,
    U: FourierState,
    h: float,
    n: int,
    m: float | None = None,
    n_dirs: int = 8,
    seed: int = 0,
    eps: float = 1e-4,
    nodes: int = 16,
    mf: ModifiedField | None = None,
) -> float:
    """Residual of F-tilde = J grad H-tilde along random band directions.

    Compares fourth-order finite differences of H-tilde against the pairing
    with J^{-1} F-tilde; returns the maximum relative residual over n_dirs
    unit directions.
    """
    if mf is None:
        mf = ModifiedField(model, tab, m, n_max=max(N_MAX_DEFAULT, n))
    chart = model.chart(U.grid, m)
    um = model.project(U, m) if m is not None else U
    z0 = chart.to_real(um)
    field = mf.series_eval(um, h, n)
    jinv_field = model.apply_J_inv(field)
    scale = max(1.0, float(np.linalg.norm(chart.to_real(jinv_field))))
    rng = np.random.default_rng(seed)
    h_eps = eps * (1.0 + float(np.linalg.norm(z0)))
    worst = 0.0
    for _ in range(n_dirs):
        zdir = rng.standard_normal(chart.dim)
        zdir /= np.linalg.norm(zdir)
        wstate = chart.from_real(zdir)

        def htilde(t: float) -> float:
            return modified_hamiltonian_eval(
                model, tab, chart.from_real(z0 + t * zdir), h, n, m, nodes=nodes, mf=mf
            )

        fd = (-htilde(2 * h_eps) + 8 * htilde(h_eps) - 8 * htilde(-h_eps) + htilde(-2 * h_eps)) / (
            12 * h_eps
        )
        rhs = model.pairing(jinv_field, wstate)
        worst = max(worst, abs(fd - rhs) / scale)
    return worst


# ---------------------------------------------------------------------------
# truncation policies


@dataclass
class TruncationPolicy:
    """Choice of truncation order n and projection radius m.

    mode="explicit" uses the stored (n, m) unchanged.  mode="coupled" ties
    both to the step size through chi: m(h) = ceil((chi/(tau h))^{q/(1+q)})
    and n(h) = floor(tau^{q/(1+q)} (chi/h)^{1/(1+q)} / 4), clamped to
    [p+1, n_max]; chi may be given directly or as delta/(2 e eta c_F).
    """

    mode: str = "explicit"
    n: int | None = None
    m: float | None = None
    tau: float | None = None
    delta: float = 0.25
    chi: float | None = None
    c_F: float | None = None
    n_max: int = N_MAX_DEFAULT
    m_cap: float | None = None

    def __post_init__(self) -> None:
        if self.mode not in ("explicit", "coupled"):
            raise ValueError(f"unknown policy mode {self.mode!r}")


@dataclass(frozen=True)
class ResolvedPolicy:
    n: int
    m: float | None
    chi: float | None
    # integer exponents a >= p(q+1)+q and b >= p(q+1)/q from the coupling
    a_exp: int
    b_exp: int


def resolve_policy(
    policy: TruncationPolicy, h: float, tab: ButcherTableau, model: PdeModel
) -> ResolvedPolicy:
    p = tab.order
    q = model.q
    a_exp = math.ceil(p * (q + 1) + q)
    b_exp = math.ceil(p * (q + 1) / q)
    if policy.mode == "explicit":
        if policy.n is None:
            raise ValueError("explicit policy requires n")
        return ResolvedPolicy(policy.n, policy.m, None, a_exp, b_exp)
    if policy.tau is None or policy.tau <= 0.0:
        raise ValueError("coupled policy requires tau > 0")
    if h <= 0.0:
        raise ValueError("coupled policy requires h > 0")
    chi = policy.chi
    if chi is None:
        if policy.c_F is None or policy.c_F <= 0.0:
            raise ValueError("coupled policy requires chi, or c_F to derive it")
        chi = policy.delta / (2.0 * math.e * tab.eta * policy.c_F)
    expo = q / (1.0 + q)
    m = math.ceil((chi / (policy.tau * h)) ** expo)
    m = max(1, m)
    if policy.m_cap is not None:
        m = min(m, policy.m_cap)
    n_raw = policy.tau**expo * (chi / h) ** (1.0 / (1.0 + q)) / 4.0
    n = max(p + 1, min(int(math.floor(n_raw)), policy.n_max))
    return ResolvedPolicy(n, float(m), chi, a_exp, b_exp)
