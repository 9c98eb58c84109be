"""Fourier grid, Gevrey norms, projections, and the operator power bound."""

import math

import numpy as np
import pytest

from hambea import (
    FourierGrid,
    FourierState,
    GevreyIndex,
    gevrey_norm,
    make_model,
    mode_eigenvalues,
    operator_power_bound,
    project,
    tail_bound_check,
    y_norm,
)
from hambea.spectral import (
    _SQRT_2PI,
    band_mask,
    energy_weights,
    hermitian_defect,
    symmetrize_real,
)

from conftest import MODEL_SPECS, random_state, same_bits

# energy offsets of one-component states: L^2 and H^1, and the per-q choice
# the loops over q below use
L2, H1 = (0.0,), (1.0,)
OFFSETS = {1.0: L2, 2.0: H1}


# -- grid and transforms ------------------------------------------------------


def test_grid_rejects_insufficient_resolution():
    with pytest.raises(ValueError):
        FourierGrid(n_modes=4, n_phys=8)  # needs >= 9


def test_transform_roundtrip_identity(rng):
    grid = FourierGrid(n_modes=6, n_phys=32)
    coeffs = rng.standard_normal(grid.band_size) + 1j * rng.standard_normal(
        grid.band_size
    )
    back = grid.to_coeffs(grid.to_phys(coeffs))
    assert np.max(np.abs(back - coeffs)) < 1e-12 * np.max(np.abs(coeffs))


def _slot_reference(grid, coeffs=None, values=None):
    """The transforms through a fancy index of FFT slots k mod n_phys."""
    slots = np.mod(grid.wavenumbers, grid.n_phys)
    if values is not None:
        full = np.fft.fft(np.asarray(values, dtype=complex), axis=-1)
        return (full * (_SQRT_2PI / grid.n_phys))[..., slots]
    full = np.zeros(coeffs.shape[:-1] + (grid.n_phys,), dtype=complex)
    full[..., slots] = coeffs
    return np.fft.ifft(full, axis=-1) * (grid.n_phys / _SQRT_2PI)


@pytest.mark.parametrize("K", [1, 2, 8, 64])
@pytest.mark.parametrize("extra", [0, 1, 6])  # odd and even n_phys, tight and padded
@pytest.mark.parametrize("lead", [(), (3,), (2, 3)])
def test_transforms_match_the_slot_reference(K, extra, lead, rng):
    grid = FourierGrid(n_modes=K, n_phys=2 * K + 1 + extra)
    coeffs = rng.standard_normal((*lead, grid.band_size)) + 1j * rng.standard_normal(
        (*lead, grid.band_size)
    )
    coeffs[..., ::3] = -0.0  # signed zeros survive the slice copies
    assert same_bits(grid.to_phys(coeffs), _slot_reference(grid, coeffs=coeffs))
    values = rng.standard_normal((*lead, grid.n_phys))
    for v in (values, values + 1j * rng.standard_normal(values.shape)):  # real and complex
        assert same_bits(grid.to_coeffs(v), _slot_reference(grid, values=v))


def test_quadrature_integrates_constant():
    grid = FourierGrid(n_modes=3, n_phys=16)
    ones = np.ones(grid.n_phys)
    assert abs(grid.quadrature(ones) - 2.0 * math.pi) < 1e-13


def test_parseval(rng):
    # int |u|^2 dx computed on the physical grid equals sum |u_hat|^2
    grid = FourierGrid(n_modes=5, n_phys=24)
    coeffs = rng.standard_normal(grid.band_size) + 1j * rng.standard_normal(
        grid.band_size
    )
    u = grid.to_phys(coeffs)
    l2_phys = grid.quadrature(np.abs(u) ** 2).real
    l2_spec = float(np.sum(np.abs(coeffs) ** 2))
    assert abs(l2_phys - l2_spec) < 1e-10 * l2_spec


# -- states -------------------------------------------------------------------


def test_state_shape_guard():
    grid = FourierGrid(n_modes=2, n_phys=8)
    with pytest.raises(ValueError):
        FourierState(grid, np.zeros(4, dtype=complex))


def test_state_mode_accessors():
    grid = FourierGrid(n_modes=3, n_phys=8)
    s = FourierState.zeros(grid)
    s.set_mode(-2, 1.5 + 0.5j)
    assert s.mode(-2) == 1.5 + 0.5j
    assert s.mode(2) == 0.0


def test_zero_state_has_zero_norms():
    grid = FourierGrid(n_modes=4, n_phys=16)
    z = FourierState.zeros(grid, 2)
    for idx in (GevreyIndex(0, 0, 1), GevreyIndex(0.7, 2, 1), GevreyIndex(1.0, 0, 1)):
        assert gevrey_norm(z, (1.0, 0.0), idx) == 0.0


def test_symmetrize_real_and_defect(rng):
    grid = FourierGrid(n_modes=4, n_phys=16)
    s = random_state(grid, 2, rng)
    sym = symmetrize_real(s)
    assert hermitian_defect(sym) < 1e-15
    vals = grid.to_phys(sym.coeffs[0])
    assert np.max(np.abs(vals.imag)) < 1e-13


# -- Gevrey norms -------------------------------------------------------------


def test_norm_single_mode_unit_weight():
    grid = FourierGrid(n_modes=2, n_phys=8)
    s = FourierState.zeros(grid)
    s.set_mode(1, 1.0)
    assert abs(gevrey_norm(s, L2, GevreyIndex(0.0, 0.0, 1.0)) - 1.0) < 1e-15


def test_norm_single_mode_weighted():
    # weight at k=2, tau=0.5, ell=1, q=1 is 2 e^{1} = 5.43656...
    grid = FourierGrid(n_modes=3, n_phys=8)
    s = FourierState.zeros(grid)
    s.set_mode(2, 1.0)
    val = gevrey_norm(s, L2, GevreyIndex(0.5, 1.0, 1.0))
    assert abs(val - 5.43656365691809) < 1e-12


def test_norm_rejects_negative_tau():
    with pytest.raises(ValueError):
        GevreyIndex(-0.1, 0.0, 1.0)


def test_norm_monotone_in_ell(rng):
    grid = FourierGrid(n_modes=6, n_phys=16)
    for _ in range(5):
        s = random_state(grid, 1, rng)
        n0 = gevrey_norm(s, L2, GevreyIndex(0.3, 1.0, 1.0))
        n1 = gevrey_norm(s, L2, GevreyIndex(0.3, 2.0, 1.0))
        assert n0 <= n1 * (1 + 1e-12)


def test_nls_weight_uses_eigenvalue_root():
    # q=2: lambda(k)=k^2 and the smoothing factor is e^{tau |k|}, so the
    # weight at k=3, tau=0.4, ell=1 is 9 * 3 * e^{1.2} (H^1 offset |k|)
    grid = FourierGrid(n_modes=4, n_phys=16)
    s = FourierState.zeros(grid)
    s.set_mode(3, 1.0)
    expect = 9.0 * 3.0 * math.exp(1.2)
    assert abs(gevrey_norm(s, H1, GevreyIndex(0.4, 1.0, 2.0)) - expect) < 1e-12 * expect


# each model's energy weights on k = -3 .. 3: H^1 x L^2 for the wave (u one
# derivative above v), H^1 for the Schroedinger models; zero modes weigh 1
_H1_K3 = [3.0, 2.0, 1.0, 1.0, 1.0, 2.0, 3.0]
ENERGY_WEIGHTS = {"wave": [_H1_K3, [1.0] * 7], "nls": [_H1_K3], "nonlocal_nls": [_H1_K3]}


@pytest.mark.parametrize("key", list(MODEL_SPECS))
def test_model_energy_weights(key):
    model = make_model(*MODEL_SPECS[key])
    grid = FourierGrid(n_modes=3, n_phys=8)
    want = np.array(ENERGY_WEIGHTS[model.name])
    assert same_bits(energy_weights(grid, model.energy_offsets, model.q), want)
    for c in range(model.components):
        s = FourierState.zeros(grid, model.components)
        s.set_mode(2, 1.0, component=c)
        assert same_bits(np.float64(model.energy_norm(s)), want[c, 5])


def test_norm_needs_one_offset_per_component():
    with pytest.raises(ValueError):
        y_norm(FourierState.zeros(FourierGrid(n_modes=3, n_phys=8), 2), H1, 1.0)


# -- projections --------------------------------------------------------------


def test_project_full_band_sentinel(rng):
    grid = FourierGrid(n_modes=5, n_phys=16)
    s = random_state(grid, 1, rng)
    assert np.array_equal(project(s, None, 1.0).coeffs, s.coeffs)


def test_project_drops_outside_modes():
    grid = FourierGrid(n_modes=4, n_phys=16)
    s = FourierState.zeros(grid)
    s.set_mode(3, 2.0)
    assert y_norm(project(s, 2.0, 1.0), L2, 1.0) == 0.0


def test_project_eigenvalue_units_q2():
    # NLS ball: k^2 <= m, so m=5 keeps k=1,2 and drops k=3
    grid = FourierGrid(n_modes=4, n_phys=16)
    s = FourierState.zeros(grid)
    for k in (1, 2, 3):
        s.set_mode(k, 1.0)
    p = project(s, 5.0, 2.0)
    assert p.mode(1) == 1.0 and p.mode(2) == 1.0 and p.mode(3) == 0.0


def test_project_idempotent_and_nested(rng):
    grid = FourierGrid(n_modes=6, n_phys=16)
    s = random_state(grid, 1, rng)
    p3 = project(s, 3.0, 1.0)
    assert np.array_equal(project(p3, 3.0, 1.0).coeffs, p3.coeffs)
    # P_m P_m' = P_min(m, m'), exactly
    a = project(project(s, 5.0, 1.0), 3.0, 1.0)
    b = project(project(s, 3.0, 1.0), 5.0, 1.0)
    assert np.array_equal(a.coeffs, b.coeffs)
    assert np.array_equal(a.coeffs, p3.coeffs)


def test_zero_mode_survives_every_projection():
    grid = FourierGrid(n_modes=3, n_phys=8)
    s = FourierState.zeros(grid)
    s.set_mode(0, 2.0)
    assert project(s, 0.0, 1.0).mode(0) == 2.0


def test_band_mask_negative_m_rejected():
    grid = FourierGrid(n_modes=3, n_phys=8)
    with pytest.raises(ValueError):
        band_mask(grid, -1.0, 1.0)


def test_projected_eigenvalue_estimate(rng):
    # ||A P_m U|| <= m ||P_m U|| with lambda(k) = |k|^q, both models' units
    for q in (1.0, 2.0):
        grid = FourierGrid(n_modes=6, n_phys=16)
        lam = mode_eigenvalues(grid, q)
        for _ in range(10):
            s = random_state(grid, 1, rng)
            m = float(rng.uniform(1.0, grid.n_modes**q))
            p = project(s, m, q)
            ap = FourierState(grid, lam * p.coeffs)
            assert y_norm(ap, OFFSETS[q], q) <= m * y_norm(p, OFFSETS[q], q) * (1 + 1e-12)


# -- tail bound ---------------------------------------------------------------


def test_tail_bound_zero_state():
    grid = FourierGrid(n_modes=4, n_phys=16)
    lhs, rhs = tail_bound_check(FourierState.zeros(grid), L2, GevreyIndex(0.5, 1, 1), 2.0)
    assert lhs == 0.0 and rhs == 0.0


def test_tail_bound_no_tail(rng):
    grid = FourierGrid(n_modes=5, n_phys=16)
    s = FourierState.zeros(grid)
    s.set_mode(1, 0.7)
    lhs, rhs = tail_bound_check(s, L2, GevreyIndex(0.3, 0, 1), 4.0)
    assert lhs == 0.0
    assert rhs > 0.0


def test_tail_bound_exponential_data():
    # u_hat_k = e^{-0.3|k|} against the declared (tau=0.3, ell=0) bound at m=8
    grid = FourierGrid(n_modes=12, n_phys=32)
    s = FourierState.zeros(grid)
    for k in grid.wavenumbers:
        s.set_mode(int(k), math.exp(-0.3 * abs(k)))
    lhs, rhs = tail_bound_check(s, L2, GevreyIndex(0.3, 0.0, 1.0), 8.0)
    # oracle: sum the tail directly
    tail = sum(
        math.exp(-0.6 * abs(k)) for k in grid.wavenumbers if abs(k) > 8
    )
    assert abs(lhs - math.sqrt(tail)) < 1e-12
    assert lhs <= rhs * (1 + 1e-10)


def test_tail_bound_random_states(rng):
    for q in (1.0, 2.0):
        grid = FourierGrid(n_modes=8, n_phys=32)
        for _ in range(10):
            s = random_state(grid, 1, rng, decay=0.8)
            idx = GevreyIndex(0.6, 1.0, q)
            m = float(rng.uniform(1.0, grid.n_modes**q))
            lhs, rhs = tail_bound_check(s, OFFSETS[q], idx, m)
            assert lhs <= rhs * (1 + 1e-10)


# -- operator power bound -----------------------------------------------------


def test_operator_bound_p0_is_one():
    assert operator_power_bound(0.5, 0.2, 0, 1.0) == 1.0


def test_operator_bound_unit_case():
    # p=1, q=1, sigma - tau = 1/e gives exactly 1
    assert abs(operator_power_bound(0.2 + 1.0 / math.e, 0.2, 1, 1.0) - 1.0) < 1e-12


def test_operator_bound_hand_value():
    # p=2, q=2, sigma - tau = 0.5: (pq/(e(sigma-tau)))^{pq} = (8/e)^4
    val = operator_power_bound(0.8, 0.3, 2, 2.0)
    assert abs(val - 75.02085688825521) < 1e-10


def test_operator_bound_rejects_bad_gap():
    with pytest.raises(ValueError):
        operator_power_bound(0.3, 0.3, 1, 1.0)
    with pytest.raises(ValueError):
        operator_power_bound(0.2, 0.3, 2, 1.0)


def test_operator_bound_dominates_measured_ratio(rng):
    # measured ||A^p U||_tau / ||U||_sigma on random smooth states
    sigma, tau = 0.8, 0.3
    for q in (1.0, 2.0):
        grid = FourierGrid(n_modes=8, n_phys=32)
        lam = mode_eigenvalues(grid, q)
        for p in (1, 2, 3):
            bound = operator_power_bound(sigma, tau, p, q)
            for _ in range(20):
                s = random_state(grid, 1, rng, decay=sigma)
                ap = FourierState(grid, (lam**p) * s.coeffs)
                num = gevrey_norm(ap, OFFSETS[q], GevreyIndex(tau, 0.0, q))
                den = gevrey_norm(s, OFFSETS[q], GevreyIndex(sigma, 0.0, q))
                assert num <= bound * den * (1 + 1e-12)
