"""Step-size jets of the method map and directional derivatives of fields."""

import numpy as np
import pytest

from hambea import (
    FourierState,
    HJet,
    OrderCapError,
    StageSolveConfig,
    Stepper,
    expand_step_map,
    fd_directional,
    make_model,
    make_tableau,
    y_norm,
)

from hambea.hjet import ORDER_CAP
from hambea.models import NlsModel, NonlocalNlsModel, SineGordonPotential, WaveModel
from hambea.spectral import FourierGrid, band_mask

from conftest import MODEL_SPECS, fit_loglog_slope, random_state, same_bits


# -- series container ---------------------------------------------------------


def test_evaluate_is_power_series(nls, rng):
    grid = nls.make_grid(3)
    jet = HJet(grid, rng.normal(size=(5, 1, 7)) + 0j)
    h = 0.21
    manual = sum(jet.coeffs[j] * h**j for j in range(5))
    assert np.max(np.abs(jet.evaluate(h).coeffs - manual)) < 1e-15


def test_jet_shape_guard(nls):
    grid = nls.make_grid(3)
    with pytest.raises(ValueError):
        HJet(grid, np.zeros((3, 7)))  # missing component axis
    with pytest.raises(ValueError):
        HJet(grid, np.zeros((3, 1, 6)))  # wrong band size
    assert HJet(grid, np.zeros((3, 4, 1, 7))).order == 2  # batch axes pass


# -- nonlinearity lift --------------------------------------------------------


@pytest.mark.parametrize("key", list(MODEL_SPECS))
def test_lift_of_constant_jet(key, rng):
    # B(U(h)) with U constant in h: coefficient 0 is B(U), the rest vanish
    model = make_model(*MODEL_SPECS[key])
    grid = model.make_grid(4)
    s = random_state(grid, model.components, rng, real_field=model.is_real_field)
    const = np.zeros((4,) + s.coeffs.shape, dtype=complex)
    const[0] = s.coeffs
    lifted = model.force_series_coeffs(grid, const, None)
    assert np.max(np.abs(lifted[0] - model.apply_B(s).coeffs)) < 1e-13
    assert np.max(np.abs(lifted[1:])) < 1e-14


@pytest.mark.parametrize("key", list(MODEL_SPECS))
def test_lift_matches_evaluated_force(key, rng):
    # series of B composed with a polynomial path, checked against pointwise B
    model = make_model(*MODEL_SPECS[key])
    grid = model.make_grid(4)
    base = random_state(grid, model.components, rng, real_field=model.is_real_field)
    dirn = random_state(grid, model.components, rng, scale=0.2, real_field=model.is_real_field)
    if key == "nonlocal-nls":
        assert model._mass(base.coeffs) > 10 * model.rho_min
    path = HJet(grid, np.stack([base.coeffs, dirn.coeffs]))  # U + h V, order 1
    lifted = HJet(grid, model.force_series_coeffs(grid, path.coeffs, None))
    hs = [0.02, 0.01, 0.005]
    errs = []
    for h in hs:
        exact = model.apply_B(path.evaluate(h))
        errs.append(y_norm(exact - lifted.evaluate(h), model.q))
    if key == "nls-free":
        assert max(errs) == 0.0  # B = 0 exactly
    else:
        # the lift is order-matched to the input (order 1): remainder is O(h^2)
        assert fit_loglog_slope(hs, errs) > 1.8


# The whole-series path the incremental lift replaced, kept as its bitwise
# reference: every order recomputes the series of B from scratch.


def _series_mul(a, b):
    n = min(a.shape[0], b.shape[0])
    out = np.zeros((n,) + np.broadcast_shapes(a.shape[1:], b.shape[1:]), dtype=complex)
    for j in range(n):
        for i in range(j + 1):
            out[j] += a[i] * b[j - i]
    return out


def _series_power(a, n):
    out = np.zeros_like(np.asarray(a, dtype=complex))
    out[0] = 1.0
    for _ in range(n):
        out = _series_mul(out, a)
    return out


def _series_reciprocal(a):
    a = np.asarray(a, dtype=complex)
    out = np.zeros_like(a)
    out[0] = 1.0 / a[0]
    for j in range(1, a.shape[0]):
        acc = np.zeros_like(a[0])
        for i in range(1, j + 1):
            acc = acc + a[i] * out[j - i]
        out[j] = -out[0] * acc
    return out


def _series_sin(a):
    a = np.asarray(a, dtype=complex)
    s = np.zeros_like(a)
    c = np.zeros_like(a)
    s[0] = np.sin(a[0])
    c[0] = np.cos(a[0])
    for j in range(1, a.shape[0]):
        ss = np.zeros_like(a[0])
        cc = np.zeros_like(a[0])
        for i in range(1, j + 1):
            ss = ss + i * a[i] * c[j - i]
            cc = cc + i * a[i] * s[j - i]
        s[j] = ss / j
        c[j] = -cc / j
    return s


def _whole_series_force(model, grid: FourierGrid, coeff_series, m):
    mask = band_mask(grid, m, model.q)
    cs = coeff_series * mask
    if isinstance(model, WaveModel):
        K = grid.n_modes
        u = grid.to_phys(cs[..., 0, :]).real.astype(complex)
        pot = model.potential
        if isinstance(pot, SineGordonPotential):
            dv = pot.gamma * _series_sin(u)
        else:
            dv = np.zeros_like(u)
            for j, c in pot.coeffs.items():
                dv = dv + j * c * _series_power(u, j - 1)
        out = np.zeros_like(cs)
        out[..., 1, :] = grid.to_coeffs(-dv)
        out[..., 0, K] = cs[..., 1, K]
        return out * mask
    if isinstance(model, NlsModel):
        if model.lam == 0.0:
            return np.zeros_like(cs)
        u = grid.to_phys(cs[..., 0, :])
        mod2 = _series_mul(u, np.conj(u))
        force = -1j * model.lam * _series_mul(_series_power(mod2, model.sigma), u)
        return grid.to_coeffs(force)[..., np.newaxis, :] * mask
    assert isinstance(model, NonlocalNlsModel)
    order = cs.shape[0]
    rho = np.einsum("a...cm,b...cm->ab...", cs, np.conj(cs))
    rho_series = np.array([sum(rho[a, j - a] for a in range(j + 1)) for j in range(order)])
    inv = _series_reciprocal(rho_series)
    vprime = -_series_mul(inv, inv)[..., np.newaxis, np.newaxis]
    out = np.zeros_like(cs)
    for j in range(order):
        for a in range(j + 1):
            out[j] += -1j * vprime[a] * cs[j - a]
    return out * mask


def _lift_data(model, grid, rng, order):
    """Series of order+1 random states (real fields for wave) with decaying terms."""
    return np.stack(
        [
            random_state(grid, model.components, rng, real_field=model.is_real_field).coeffs
            * 0.5**j
            for j in range(order + 1)
        ]
    )


LIFT_SPECS = dict(
    MODEL_SPECS,
    **{"nls-sigma2": ("nls", {"sigma": 2, "lam": 1.0}), "nls-sigma0": ("nls", {"sigma": 0})},
)


@pytest.mark.parametrize("batch", [(1,), (2, 3)])
@pytest.mark.parametrize("m", [None, 4.0])
@pytest.mark.parametrize("key", list(LIFT_SPECS))
def test_lift_matches_whole_series_bitwise(key, m, batch, rng):
    model = make_model(*LIFT_SPECS[key])
    grid = model.make_grid(4)
    n = int(np.prod(batch))
    series = np.stack([_lift_data(model, grid, rng, ORDER_CAP) for _ in range(n)], axis=1)
    series = series.reshape((ORDER_CAP + 1,) + batch + series.shape[2:])
    lifted = model.force_series_coeffs(grid, series, m)
    for order in range(ORDER_CAP + 1):
        assert np.array_equal(
            lifted[: order + 1], _whole_series_force(model, grid, series[: order + 1], m)
        )


@pytest.mark.parametrize("key", ["nls-cubic", "nls-quintic", "wave-poly", "sine-gordon"])
def test_jet_transforms_one_plane_per_order(key, rng, monkeypatch):
    # each order of the step-map jet transforms only the newest stage plane
    model = make_model(*MODEL_SPECS[key])
    grid = model.make_grid(4)
    tab = make_tableau("gauss2")
    Y = np.stack(
        [
            random_state(grid, model.components, rng, real_field=model.is_real_field).coeffs
            for _ in range(3)
        ]
    )
    rows = {"to_phys": 0, "to_coeffs": 0}
    for name in rows:
        original = getattr(FourierGrid, name)

        def counted(self, x, _name=name, _original=original):
            rows[_name] += int(np.prod(np.shape(x)[:-1]))
            return _original(self, x)

        monkeypatch.setattr(FourierGrid, name, counted)
    order = 6
    expand_step_map(model, tab, Y, 4.0, order=order, grid=grid)
    per_order = Y.shape[0] * tab.stages
    assert rows == {"to_phys": order * per_order, "to_coeffs": order * per_order}


# -- exact step-map jets ------------------------------------------------------


def test_jet_zeroth_and_first_coefficients(nls, rng):
    grid = nls.make_grid(4)
    s = random_state(grid, 1, rng)
    jet = expand_step_map(nls, make_tableau("gauss2"), s, order=2)
    assert np.max(np.abs(jet.coefficient(0).coeffs - s.coeffs)) == 0.0
    g1 = nls.apply_A(s) + nls.apply_B(s)
    assert y_norm(jet.coefficient(1) - g1, nls.q) < 1e-12


def test_jet_first_coefficient_projected(nls, rng):
    grid = nls.make_grid(6)
    s = random_state(grid, 1, rng)
    m = 9.0
    jet = expand_step_map(nls, make_tableau("midpoint"), s, m=m, order=1)
    sm = nls.project(s, m)
    g1 = nls.apply_A(sm) + nls.apply_B(sm, m)
    assert y_norm(jet.coefficient(1) - g1, nls.q) < 1e-12
    for k in (-6, -5, -4, 4, 5, 6):
        assert jet.coefficient(0).mode(k) == 0.0
        assert jet.coefficient(1).mode(k) == 0.0


def test_linear_jet_matches_stability_taylor():
    # B = 0: coefficient j at mode k must be c_j (-i k^2)^j u_k with the
    # midpoint Taylor weights c_0 = 1, c_j = 2^{1-j}
    model = make_model("nls", {"sigma": 1, "lam": 0.0})
    grid = model.make_grid(4)
    s = FourierState.zeros(grid)
    for k in range(-4, 5):
        s.set_mode(k, 0.4 * np.exp(-0.3 * abs(k)) + 0.1j * k)
    jet = expand_step_map(model, make_tableau("midpoint"), s, order=5)
    for j in range(6):
        cj = 1.0 if j == 0 else 2.0 ** (1 - j)
        for k in range(-4, 5):
            expect = cj * (-1j * k**2) ** j * s.mode(k)
            assert jet.coefficient(j).mode(k) == pytest.approx(expect, abs=1e-12)


def test_jet_step_consistency(nls, rng):
    # evaluating the order-n jet differs from the actual step by O(h^{n+1})
    grid = nls.make_grid(4)
    s = random_state(grid, 1, rng)
    cfg = StageSolveConfig(tol=1e-14)
    tab = make_tableau("midpoint")
    for n in (2, 3):
        jet = expand_step_map(nls, tab, s, order=n)
        hs = [0.02, 0.01, 0.005, 0.0025]
        errs = []
        for h in hs:
            full = Stepper(nls, grid, tab, h, config=cfg).step(s)
            errs.append(y_norm(full - jet.evaluate(h), nls.q))
        assert fit_loglog_slope(hs, errs) >= n + 0.8


def test_jet_step_consistency_wave(wave_cubic, rng):
    grid = wave_cubic.make_grid(4)
    s = random_state(grid, 2, rng, real_field=True)
    cfg = StageSolveConfig(tol=1e-14)
    tab = make_tableau("gauss2")
    jet = expand_step_map(wave_cubic, tab, s, order=3)
    hs = [0.04, 0.02, 0.01]
    errs = [
        y_norm(Stepper(wave_cubic, grid, tab, h, config=cfg).step(s) - jet.evaluate(h), 1.0)
        for h in hs
    ]
    assert fit_loglog_slope(hs, errs) >= 3.8


@pytest.mark.parametrize("tab_name", ["midpoint", "gauss2", "gauss3"])
@pytest.mark.parametrize("m", [None, 4.0])
@pytest.mark.parametrize("key", list(MODEL_SPECS))
def test_batched_jet_matches_per_state(key, m, tab_name, rng):
    model = make_model(*MODEL_SPECS[key])
    grid = model.make_grid(4)
    tab = make_tableau(tab_name)
    Y = np.stack(
        [
            random_state(grid, model.components, rng, real_field=model.is_real_field).coeffs
            for _ in range(6)
        ]
    ).reshape((2, 3, model.components, grid.band_size))
    jet = expand_step_map(model, tab, Y, m, order=4, grid=grid)
    assert jet.order == 4 and jet.coeffs.shape == (5,) + Y.shape
    for i in np.ndindex(2, 3):
        single = expand_step_map(model, tab, FourierState(grid, Y[i]), m, order=4)
        assert same_bits(jet.coeffs[(slice(None),) + i], single.coeffs)


@pytest.mark.parametrize("tab_name", ["midpoint", "gauss2"])
@pytest.mark.parametrize("key", list(MODEL_SPECS))
def test_jet_coefficient_independent_of_order(key, tab_name, rng):
    # coefficient j of a longer jet has the bytes of the order-j jet's, so a
    # coefficient never depends on which jet order happened to be computed
    model = make_model(*MODEL_SPECS[key])
    grid = model.make_grid(4)
    s = random_state(grid, model.components, rng, real_field=model.is_real_field)
    tab = make_tableau(tab_name)
    long = expand_step_map(model, tab, s, 4.0, order=5)
    for j in range(1, 6):
        assert same_bits(long.coeffs[j], expand_step_map(model, tab, s, 4.0, order=j).coeffs[j])


def test_order_cap(nls, rng):
    grid = nls.make_grid(3)
    s = random_state(grid, 1, rng)
    tab = make_tableau("midpoint")
    with pytest.raises(OrderCapError):
        expand_step_map(nls, tab, s, order=13)
    with pytest.raises(ValueError):
        expand_step_map(nls, tab, s, order=-1)


# -- directional derivatives --------------------------------------------------


def _directional(F, s, d, q, eps0=1e-5):
    """F'(s) d from the stack form of fd_directional, on a stack of one state.

    The step is eps = eps0 (1 + ||s||) / (1 + ||d||) in the energy norm.
    """
    eps = eps0 * (1.0 + y_norm(s, q)) / (1.0 + y_norm(d, q))
    out = fd_directional(F, s.coeffs[np.newaxis], d.coeffs[np.newaxis], np.array([eps]))
    return FourierState(s.grid, out[0])


def test_lie_derivative_linear_field_exact(nls, rng):
    # F linear: DF(U) w = A w regardless of the base point
    grid = nls.make_grid(4)
    s = random_state(grid, 1, rng)
    w = random_state(grid, 1, rng, scale=0.2)
    blocks = nls.a_blocks(grid)
    out = _directional(lambda P: np.einsum("mij,...jm->...im", blocks, P), s, w, nls.q)
    assert y_norm(out - nls.apply_A(w), nls.q) < 1e-10


def test_lie_derivative_cubic_analytic(nls, rng):
    # D B(u) w = -i lam (2 |u|^2 w + u^2 conj(w)) for the cubic force
    grid = nls.make_grid(5)
    s = random_state(grid, 1, rng)
    w = random_state(grid, 1, rng, scale=0.25)
    got = _directional(lambda P: nls.force(grid, P), s, w, nls.q)
    uv = grid.to_phys(s.coeffs[0])
    wv = grid.to_phys(w.coeffs[0])
    dv = -1j * (2.0 * np.abs(uv) ** 2 * wv + uv**2 * np.conj(wv))
    want = FourierState(grid, grid.to_coeffs(dv)[np.newaxis, :])
    assert y_norm(got - want, nls.q) < 1e-7
