"""Step-size jets of the method map and directional derivatives of fields."""

import numpy as np
import pytest

from hambea import (
    FourierState,
    HJet,
    OrderCapError,
    StageSolveConfig,
    expand_step_map,
    jet_lift_nonlinearity,
    lie_derivative,
    make_model,
    make_tableau,
    stability_function,
    step,
    y_norm,
)

from conftest import MODEL_SPECS, fit_loglog_slope, random_state, same_bits


# -- series container ---------------------------------------------------------


def test_constant_jet(nls, rng):
    grid = nls.make_grid(4)
    s = random_state(grid, 1, rng)
    jet = HJet.constant(s, 3)
    assert jet.order == 3
    for h in (0.0, 0.3, -2.0):
        assert np.max(np.abs(jet.evaluate(h).coeffs - s.coeffs)) == 0.0
    for j in (1, 2, 3):
        assert np.max(np.abs(jet.coefficient(j).coeffs)) == 0.0


def test_jet_linearity(nls, rng):
    grid = nls.make_grid(3)
    a = HJet(grid, rng.normal(size=(4, 1, 7)) + 1j * rng.normal(size=(4, 1, 7)))
    b = HJet(grid, rng.normal(size=(4, 1, 7)) + 1j * rng.normal(size=(4, 1, 7)))
    h = 0.37
    lhs = (a + 2.5 * b).evaluate(h).coeffs
    rhs = a.evaluate(h).coeffs + 2.5 * b.evaluate(h).coeffs
    assert np.max(np.abs(lhs - rhs)) < 1e-13


def test_evaluate_is_power_series(nls, rng):
    grid = nls.make_grid(3)
    jet = HJet(grid, rng.normal(size=(5, 1, 7)) + 0j)
    h = 0.21
    manual = sum(jet.coeffs[j] * h**j for j in range(5))
    assert np.max(np.abs(jet.evaluate(h).coeffs - manual)) < 1e-15


def test_truncate(nls, rng):
    grid = nls.make_grid(3)
    jet = HJet(grid, rng.normal(size=(5, 1, 7)) + 0j)
    cut = jet.truncate(2)
    assert cut.order == 2
    manual = sum(jet.coeffs[j] * 0.4**j for j in range(3))
    assert np.max(np.abs(cut.evaluate(0.4).coeffs - manual)) < 1e-15


def test_jet_shape_guard(nls):
    grid = nls.make_grid(3)
    with pytest.raises(ValueError):
        HJet(grid, np.zeros((3, 7)))  # missing component axis
    with pytest.raises(ValueError):
        HJet(grid, np.zeros((3, 1, 6)))  # wrong band size
    assert HJet(grid, np.zeros((3, 4, 1, 7))).order == 2  # batch axes pass


# -- nonlinearity lift --------------------------------------------------------


def test_lift_of_constant_jet(nls, rng):
    # B(U(h)) with U constant in h: coefficient 0 is B(U), the rest vanish
    grid = nls.make_grid(4)
    s = random_state(grid, 1, rng)
    lifted = jet_lift_nonlinearity(nls, HJet.constant(s, 3))
    assert np.max(np.abs(lifted.coeffs[0] - nls.apply_B(s).coeffs)) < 1e-13
    assert np.max(np.abs(lifted.coeffs[1:])) < 1e-14


def test_lift_matches_evaluated_force(nls, rng):
    # series of B composed with a polynomial path, checked against pointwise B
    grid = nls.make_grid(4)
    base = random_state(grid, 1, rng)
    dirn = random_state(grid, 1, rng, scale=0.2)
    path = HJet(grid, np.stack([base.coeffs, dirn.coeffs]))  # U + h V, order 1
    lifted = jet_lift_nonlinearity(nls, path)
    hs = [0.02, 0.01, 0.005]
    errs = []
    for h in hs:
        exact = nls.apply_B(path.evaluate(h))
        errs.append(y_norm(exact - lifted.evaluate(h), nls.q))
    # the lift is order-matched to the input (order 1): remainder is O(h^2)
    assert fit_loglog_slope(hs, errs) > 1.8


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
            full = step(nls, tab, s, h, config=cfg)
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
        y_norm(step(wave_cubic, tab, s, h, config=cfg) - jet.evaluate(h), 1.0)
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


def test_lie_derivative_linear_field_exact(nls, rng):
    # F linear: DF(U) G(U) = A(G(U)) regardless of the base point
    grid = nls.make_grid(4)
    s = random_state(grid, 1, rng)
    g_val = random_state(grid, 1, rng, scale=0.2)
    out = lie_derivative(nls.apply_A, lambda _: g_val, s, q=nls.q)
    assert y_norm(out - nls.apply_A(g_val), nls.q) < 1e-10


def test_lie_derivative_zero_direction(nls, rng):
    grid = nls.make_grid(4)
    s = random_state(grid, 1, rng)
    zero = FourierState.zeros(grid)
    out = lie_derivative(nls.apply_B, lambda _: zero, s, q=nls.q)
    assert np.max(np.abs(out.coeffs)) == 0.0


def test_lie_derivative_cubic_analytic(nls, rng):
    # D B(u) w = -i lam (2 |u|^2 w + u^2 conj(w)) for the cubic force
    grid = nls.make_grid(5)
    s = random_state(grid, 1, rng)
    w = random_state(grid, 1, rng, scale=0.25)
    got = lie_derivative(nls.apply_B, lambda _: w, s, q=nls.q)
    uv = grid.to_phys(s.coeffs[0])
    wv = grid.to_phys(w.coeffs[0])
    dv = -1j * (2.0 * np.abs(uv) ** 2 * wv + uv**2 * np.conj(wv))
    want = FourierState(grid, grid.to_coeffs(dv)[np.newaxis, :])
    assert y_norm(got - want, nls.q) < 1e-7


def test_lie_derivative_projected_direction(nls, rng):
    # the direction is band-limited before differencing when m is given
    grid = nls.make_grid(6)
    s = random_state(grid, 1, rng)
    w = random_state(grid, 1, rng, scale=0.25)
    m = 9.0
    got = lie_derivative(nls.apply_A, lambda _: w, s, m=m, q=nls.q)
    want = nls.apply_A(nls.project(w, m))
    assert y_norm(got - want, nls.q) < 1e-10
