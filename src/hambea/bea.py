r"""Executable backward error analysis of the symplectic step maps.

The modified vector field f-tilde = f^1 + h f^2 + h^2 f^3 + ... of a step map
Psi_h (f^1 = f) is the one whose time-h flow is Psi_h.  Its coefficients are
exact functions of the h-jets of the orbit y_i = Psi_h^i(y): with E the shift
y_i -> y_{i+1}, h f-tilde = log(E) id, so f^j = sum_i w_i [h^j] y_i for fixed
rational weights w_i (Hairer, Lubich and Wanner, Geometric Numerical
Integration, ch. IX).  The jets come from hjet.expand_step_map iterated on its
own output.  Gauss methods are symmetric, y_{-i}(h) = y_i(-h), so the central
(Stirling) form of the logarithm needs only the odd part of y_1 .. y_k, k
iterates for f^{2k-1}, and gives every even coefficient exactly zero; for an
order-p method f^2 .. f^p are zero as well.  The forward form needs j
iterates for f^j; its even coefficients vanish only in exact arithmetic, so
their computed size measures the roundoff of the jets (noise_floor).

Coefficients are evaluated on stacks of states of shape (N, components,
band): the quadrature nodes of a modified energy go through one orbit as one
stack.

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
import numpy.polynomial  # loaded at import, not in a study run (see spectral.py)
import numpy.random  # loaded at import, not in a study run (see spectral.py)

# modified_flow calls the lockstep integrator as this module global, because the
# benchmark tracer rebinds bea.solve_ivp by name to count its nfev (all members)
from ._dop853 import solve_lockstep as solve_ivp
from .errors import ConvergenceError
from .hjet import HJet, expand_step_map
from .models import PdeModel
from .rk import ButcherTableau
from .spectral import FourierGrid, FourierState, y_norm

N_MAX_DEFAULT = 6  # the coupled policy's default bound on n(h)
_SYMMETRY_TOL = 1e-12
_QUAD_NODES = 16  # Gauss-Legendre nodes of the H-tilde line integrals
_GRAD_EPS = 1e-4  # relative step of gradient_consistency's difference stencil
_FLOW_RTOL, _FLOW_ATOL = 1e-13, 1e-15  # modified_flow's tolerances before the floors


@lru_cache(maxsize=None)
def _log_weights(j: int, central: bool) -> tuple[float, ...]:
    """Weights w_1, w_2, ... with f^j = sum_i w_i [h^j] y_i.

    With E = exp(D), the weights make sum_i w_i (E^i - 1) (forward, i <= j)
    or sum_i w_i (E^i - E^-i)/2 (central, i <= (j+1)/2, j odd) equal D up to
    order D^j.  That is sum_i w_i i^r = [r = 1] for r = 1 .. j, or
    sum_i w_i i^(2r+1) = [r = 0] for r < (j+1)/2: w_i = L_i(0)/i for the
    Lagrange basis L_i on the nodes i (forward) or i^2 (central).  The
    central weights are the Stirling series of log E truncated after the
    terms that reach order h^j.
    """
    e, count = (2, (j + 1) // 2) if central else (1, j)
    x = [i**e for i in range(1, count + 1)]
    # integer numerator over integer denominator: one correctly rounded division
    return tuple(
        math.prod(xl for xl in x if xl != xi) / (i * math.prod(xl - xi for xl in x if xl != xi))
        for i, xi in enumerate(x, 1)
    )


class ModifiedField:
    """Evaluator for the modified-field coefficients of (model, tableau, band).

    Nothing is stored per state; the only state is the measured roundoff
    floor (noise_floor), taken once at the first state it is asked about.
    Any order n >= 1 is accepted up to the jet order cap hjet.ORDER_CAP;
    above it the orbit expansion raises OrderCapError.
    """

    def __init__(self, model: PdeModel, tab: ButcherTableau, m: float | None = None):
        # the central logarithm needs Psi_h^-1 = Psi_-h
        a, b = np.asarray(tab.a), np.asarray(tab.b)
        if np.max(np.abs(a + a[::-1, ::-1] - b)) > _SYMMETRY_TOL:
            raise ValueError(f"tableau {tab.name!r} is not symmetric")
        self.model = model
        self.tab = tab
        self.m = m
        self._forward_norms: list[float] = []  # ||forward f^j|| / ||f^1||

    def _log(self, grid: FourierGrid, Y: np.ndarray, n: int, central: bool) -> np.ndarray:
        """f^0 = 0, f^1 .. f^n at each state of Y from its orbit, shape (n+1, *Y.shape)."""
        if central:
            orders = [1] + [j for j in range(self.tab.order + 1, n + 1) if j % 2 == 1]
        else:
            orders = list(range(1, n + 1))
        top = orders[-1]
        jet, orbit = HJet(grid, Y[np.newaxis]), []
        for _ in range(len(_log_weights(top, central))):
            jet = expand_step_map(self.model, self.tab, jet, self.m, top)
            orbit.append(jet.coeffs)
        out = np.zeros((n + 1,) + Y.shape, dtype=complex)
        for j in orders:
            out[j] = sum(w * orbit[i][j] for i, w in enumerate(_log_weights(j, central)))
        return out

    def series_coefficients(self, grid: FourierGrid, Y: np.ndarray, n: int) -> np.ndarray:
        """f^0 = 0, f^1 .. f^n at each state of the stack Y, shape (n+1, N, c, band).

        Non-finite states (trial points of an adaptive caller that blew up)
        answer NaN without being evaluated.
        """
        if n < 1:
            raise ValueError("coefficient index starts at 1")
        finite = np.all(np.isfinite(Y), axis=(-2, -1))
        if not finite.all():
            out = np.full((n + 1,) + Y.shape, np.nan, dtype=complex)
            if finite.any():
                out[:, finite] = self.series_coefficients(grid, Y[finite], n)
            return out
        return self._log(grid, Y, n, central=True)

    def coefficient(self, j: int, U: FourierState) -> FourierState:
        """The coefficient f^j evaluated at U.

        A one-state wrapper over series_coefficients, kept because the
        benchmark tracer binds it by name.
        """
        return FourierState(U.grid, self.series_coefficients(U.grid, U.coeffs[np.newaxis], j)[j, 0])

    def forward_coefficients(self, grid: FourierGrid, Y: np.ndarray, n: int) -> np.ndarray:
        """f^0 = 0, f^1 .. f^n from the forward logarithm, even orders computed."""
        return self._log(grid, Y, n, central=False)

    def series_eval(self, U: FourierState, h: float, n: int) -> FourierState:
        """f-tilde^n(U; h) = f(U) + sum_{j=p}^{n-1} h^j f^{j+1}(U).

        A one-state wrapper over series_coefficients, kept because the
        benchmark tracer binds it by name.
        """
        fs = self.series_coefficients(U.grid, U.coeffs[np.newaxis], n)
        return FourierState(U.grid, truncated_field(fs, [h], self.tab.order)[0])

    def noise_floor(self, U: FourierState, h: float, n: int) -> float:
        """Measured relative roundoff of f-tilde^n(.; h), in units of ||f^1||.

        Each term h^j f^{j+1} (f^1 included) is weighted by the norm of the
        first even forward-log coefficient at or above order j+1, relative to
        ||f^1||.  The norms come from one forward orbit at the first state
        asked about, and again only when a later call needs a higher order.
        """
        top = n + n % 2
        if len(self._forward_norms) <= top:
            fs = self.forward_coefficients(U.grid, U.coeffs[np.newaxis], top)[:, 0]
            norms = [y_norm(FourierState(U.grid, f), self.model.q) for f in fs]
            self._forward_norms = [x / norms[1] if norms[1] else 0.0 for x in norms]
        out = self._forward_norms[2]
        for j in range(self.tab.order, n):
            out += abs(h) ** j * self._forward_norms[j + 1 + (j + 1) % 2]
        return out


def truncated_field(fs: np.ndarray, hs, p: int) -> np.ndarray:
    """f^1 + sum_{j=p}^{n-1} h^j f^{j+1} at each state of a coefficient stack
    fs of shape (n+1, N, c, band), with its own step size hs[i] for state i."""
    out = fs[1]
    for j in range(p, fs.shape[0] - 1):
        out = out + np.array([h**j for h in hs])[:, np.newaxis, np.newaxis] * fs[j + 1]
    return out


def modified_flow(
    model: PdeModel,
    tab: ButcherTableau,
    U: FourierState,
    h: float | list[float],
    n: int,
    m: float | None = None,
    mf: ModifiedField | None = None,
) -> FourierState | list:
    """Flow of the truncated modified field over one step [0, h].

    n = 1 reduces to reference integration of the band-truncated system.  The
    integrator is a high-order embedded pair left fully adaptive: each
    right-hand-side evaluation prices a whole orbit expansion, so a step cap
    would multiply the cost for no accuracy gain.  The requested tolerances
    are floored at the measured roundoff of the series; without that floor
    the error controller chases roundoff it can never beat and spends more
    right-hand sides for no accuracy.

    A sequence of h runs in lockstep (one stacked series_coefficients call per
    round) and gives each flow, or the ConvergenceError that stopped it.
    """
    hs = [h] if np.ndim(h) == 0 else list(h)
    if mf is None:
        mf = ModifiedField(model, tab, m)
    chart = model.chart(U.grid, m)
    um = model.project(U, m)
    z0 = chart.to_real(um)

    size = max(1.0, y_norm(mf.series_eval(um, 0.0, 1), model.q))  # ||f^1||, h-free
    scale = max(1.0, float(np.linalg.norm(z0)))
    noises = [mf.noise_floor(um, hi, n) * size for hi in hs]

    def rhs(members, _t, Z):
        # overflow at rejected trial points is expected and answered with NaN
        with np.errstate(over="ignore", invalid="ignore"):
            fs = mf.series_coefficients(um.grid, chart.real_to_coeffs(Z), n)
            return chart.coeffs_to_real(truncated_field(fs, [hs[i] for i in members], tab.order))

    tols = [(max(_FLOW_RTOL, 5.0 * x / scale), max(_FLOW_ATOL, 0.5 * x)) for x in noises]
    sol = solve_ivp(rhs, [((0.0, hi), z0, *tol, hi / 4.0) for hi, tol in zip(hs, tols)])
    flows = [r if isinstance(r, ConvergenceError) else chart.from_real(r.y) for r in sol.results]
    if np.ndim(h) == 0 and isinstance(flows[0], ConvergenceError):
        raise flows[0]
    return flows if np.ndim(h) else flows[0]


def _quad_nodes() -> tuple[np.ndarray, np.ndarray]:
    x, w = np.polynomial.legendre.leggauss(_QUAD_NODES)
    return (x + 1.0) / 2.0, w / 2.0


def modified_hamiltonian_terms(
    model: PdeModel,
    tab: ButcherTableau,
    U: FourierState,
    n: int,
    m: float | None = None,
    mf: ModifiedField | None = None,
) -> dict[int, float]:
    """Line-integral energies H^j(U) for j = p+1 .. n (independent of h).

    H^j(U) = int_0^1 <U - U0, J^{-1} f^j(U0 + t (U - U0))> dt with the model
    pairing, anchored at U0 = model.anchor(P_m U), by _QUAD_NODES-point
    Gauss-Legendre quadrature in t; the nodes go through one orbit expansion
    as one stack.
    """
    if mf is None:
        mf = ModifiedField(model, tab, m)
    um = model.project(U, m)
    u0 = model.anchor(um)
    diff = um - u0
    t, w = _quad_nodes()
    points = u0.coeffs + t[:, np.newaxis, np.newaxis] * diff.coeffs
    fs = mf.series_coefficients(um.grid, points, n) if n > tab.order else []
    out: dict[int, float] = {}
    for j in range(tab.order + 1, n + 1):
        acc = 0.0
        for fi, wi in zip(fs[j], w):
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
    mf: ModifiedField | None = None,
) -> float:
    """Modified energy H-tilde(U; h) = H(P_m U) + sum_{j=p}^{n-1} h^j H^{j+1}(U)."""
    base = model.hamiltonian(model.project(U, m))
    terms = modified_hamiltonian_terms(model, tab, U, n, m, mf)
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
    mf: ModifiedField | None = None,
) -> float:
    """Residual of F-tilde = J grad H-tilde along random band directions.

    Compares fourth-order finite differences of H-tilde against the pairing
    with J^{-1} F-tilde; returns the maximum relative residual over n_dirs
    unit directions.
    """
    if mf is None:
        mf = ModifiedField(model, tab, m)
    chart = model.chart(U.grid, m)
    um = model.project(U, m)
    z0 = chart.to_real(um)
    field = mf.series_eval(um, h, n)
    jinv_field = model.apply_J_inv(field)
    scale = max(1.0, float(np.linalg.norm(chart.to_real(jinv_field))))
    rng = np.random.default_rng(seed)
    h_eps = _GRAD_EPS * (1.0 + float(np.linalg.norm(z0)))
    worst = 0.0
    for _ in range(n_dirs):
        zdir = rng.standard_normal(chart.dim)
        zdir /= np.linalg.norm(zdir)
        wstate = chart.from_real(zdir)

        def htilde(t: float) -> float:
            return modified_hamiltonian_eval(
                model, tab, chart.from_real(z0 + t * zdir), h, n, m, mf=mf
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
