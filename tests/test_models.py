"""The three bundled PDE systems: spectra, forces, energies, and structure."""

import math

import numpy as np
import pytest

from hambea import (
    DomainError,
    FourierState,
    make_model,
    reference_flow,
)
from hambea.models import (
    check_h2_selfadjoint,
    check_skew_A,
    grad_H_consistency,
    measure_force_scale,
)
from hambea.spectral import GevreyIndex, _mode_weights, band_mask, energy_weights, symmetrize_real

from conftest import MODEL_SPECS, random_state, same_bits


# -- metadata and linear part -------------------------------------------------


def test_model_metadata(nls, wave_cubic):
    assert nls.q == 2.0 and nls.components == 1
    assert wave_cubic.q == 1.0 and wave_cubic.components == 2
    nonlocal_ = make_model("nonlocal_nls")
    assert nonlocal_.q == 2.0 and nonlocal_.components == 1


def test_padded_length_is_scipy_fast_len(nls, wave_sg):
    from scipy.fft import next_fast_len

    from hambea.models import _fast_fft_len

    assert [_fast_fft_len(t) for t in range(1, 5001)] == [
        next_fast_len(t) for t in range(1, 5001)
    ]
    for model, factor in ((nls, 4), (wave_sg, 6)):
        for k in (1, 3, 8, 16, 64, 100):
            assert model.make_grid(k).n_phys == next_fast_len(factor * k + 1)


def test_make_model_rejects_unknown():
    with pytest.raises(ValueError):
        make_model("kdv")


def test_nls_a_symbol(nls):
    grid = nls.make_grid(3)
    s = FourierState.zeros(grid)
    s.set_mode(1, 1.0)
    out = nls.apply_A(s)
    assert abs(out.mode(1) - (-1j)) < 1e-15
    s2 = FourierState.zeros(grid)
    s2.set_mode(2, 1.0)
    assert abs(nls.apply_A(s2).mode(2) - (-4j)) < 1e-15


def test_wave_a_block(wave_cubic):
    grid = wave_cubic.make_grid(3)
    s = FourierState.zeros(grid, 2)
    s.set_mode(1, 1.0, component=0)
    out = wave_cubic.apply_A(s)
    assert abs(out.mode(1, 0)) < 1e-15
    assert abs(out.mode(1, 1) - (-1.0)) < 1e-15
    # the zero-mode column of A is empty (it rides with B)
    z = FourierState.zeros(grid, 2)
    z.set_mode(0, 1.0, component=1)
    assert wave_cubic.energy_norm(wave_cubic.apply_A(z)) == 0.0


def test_a_eigenvalues_imaginary(nls, wave_cubic, rng):
    # Re <A U, U>_Y = 0 on random states, both models
    for model in (nls, wave_cubic):
        grid = model.make_grid(5)
        for _ in range(5):
            s = random_state(grid, model.components, rng)
            assert check_skew_A(model, s) < 1e-13


# -- nonlinearities -----------------------------------------------------------


def test_nls_lambda_zero_force_vanishes():
    model = make_model("nls", {"sigma": 1, "lam": 0.0})
    grid = model.make_grid(4)
    s = FourierState.zeros(grid)
    s.set_mode(1, 0.5 + 0.25j)
    assert model.energy_norm(model.apply_B(s)) == 0.0


def test_nls_cubic_on_constant(nls):
    # u = const c: B = -i |c|^2 c, constant in space
    grid = nls.make_grid(4)
    c = 0.4 - 0.3j
    coeffs = grid.to_coeffs(np.full(grid.n_phys, c))
    out = nls.apply_B(FourierState(grid, coeffs))
    vals = grid.to_phys(out.coeffs[0])
    expect = -1j * abs(c) ** 2 * c
    assert np.max(np.abs(vals - expect)) < 1e-13


def test_nls_cubic_plane_wave(nls):
    # u = e^{ix}: |u|^2 = 1, so B = -i u exactly
    grid = nls.make_grid(4)
    s = FourierState.zeros(grid)
    s.set_mode(1, 1.3)
    u = grid.to_phys(s.coeffs[0])
    out = nls.apply_B(s)
    vals = grid.to_phys(out.coeffs[0])
    scale = abs(s.mode(1)) ** 2 / (2 * math.pi)
    assert np.max(np.abs(vals - (-1j) * scale * u)) < 1e-12


def test_wave_force_and_zero_mode_coupling():
    model = make_model("wave", {"potential": {"kind": "poly", "coeffs": {"2": 0.5}}})
    grid = model.make_grid(4)
    s = FourierState.zeros(grid, 2)
    # u = cos x via u_hat(+-1), plus a zero-mode velocity to exercise the coupling
    amp = math.sqrt(math.pi / 2.0)  # physical cos x under the 1/sqrt(2pi) convention
    s.set_mode(1, amp, component=0)
    s.set_mode(-1, amp, component=0)
    s.set_mode(0, 2.0, component=1)
    out = model.apply_B(s)
    # v-component carries -V'(u) = -u = -cos x
    force = grid.to_phys(out.coeffs[1]).real
    assert np.max(np.abs(force + grid.to_phys(s.coeffs[0]).real)) < 1e-12
    # u-component zero mode picks up v_hat_0 (the Jordan-block coupling)
    assert abs(out.mode(0, 0) - 2.0) < 1e-15


def test_wave_force_is_real(wave_cubic, rng):
    grid = wave_cubic.make_grid(5)
    s = random_state(grid, 2, rng, real_field=True)
    out = wave_cubic.apply_B(s)
    vals = grid.to_phys(out.coeffs)
    assert np.max(np.abs(vals.imag)) < 1e-12


def test_cubic_convolution_reference(nls, rng):
    # pseudospectral |u|^2 u against the exact coefficient convolution
    grid = nls.make_grid(4)
    s = random_state(grid, 1, rng)
    u = s.coeffs[0]
    ubar = np.conj(u[::-1])  # coefficients of conj(u)
    dens = np.convolve(u, ubar)  # |u|^2 on band 2K
    cubic = np.convolve(dens, u)  # |u|^2 u on band 3K
    cubic_band = cubic[3 * grid.n_modes - grid.n_modes : 3 * grid.n_modes + grid.n_modes + 1]
    expect = -1j * cubic_band / (2.0 * math.pi)
    out = nls.apply_B(s)
    assert np.max(np.abs(out.coeffs[0] - expect)) < 1e-12


def test_sine_gordon_pointwise(wave_sg):
    grid = wave_sg.make_grid(4)
    s = FourierState.zeros(grid, 2)
    amp = math.sqrt(math.pi / 2.0)
    s.set_mode(1, amp, component=0)
    s.set_mode(-1, amp, component=0)
    out = wave_sg.apply_B(s)
    u = grid.to_phys(s.coeffs[0]).real
    force = grid.to_phys(out.coeffs[1]).real
    # V(u) = gamma (1 - cos u) gives force -gamma sin u; band projection is
    # lossy for sin(cos x), so compare after re-projecting the exact force
    exact = grid.to_coeffs(-np.sin(u))
    assert np.max(np.abs(out.coeffs[1] - exact)) < 1e-12
    assert np.max(np.abs(force - grid.to_phys(exact).real)) < 1e-12


def test_nonlocal_domain_guard():
    model = make_model("nonlocal_nls", {"rho_min": 1e-3})
    grid = model.make_grid(3)
    tiny = FourierState.zeros(grid)
    tiny.set_mode(0, 1e-4)
    with pytest.raises(DomainError):
        model.apply_B(tiny)
    with pytest.raises(DomainError):
        model.hamiltonian(tiny)


# -- energies -----------------------------------------------------------------


def test_wave_hamiltonian_closed_form():
    # V = 0, u = sin x, v = 0: H = 1/2 int cos^2 = pi/2
    model = make_model("wave", {"potential": {"kind": "poly", "coeffs": {}}})
    grid = model.make_grid(4)
    s = FourierState.zeros(grid, 2)
    amp = math.sqrt(math.pi / 2.0)
    s.set_mode(1, -1j * amp, component=0)  # sin x
    s.set_mode(-1, 1j * amp, component=0)
    assert abs(model.hamiltonian(s) - math.pi / 2.0) < 1e-12


def test_nls_hamiltonian_closed_form():
    # lam = 0, u = e^{ix}: H = 1/2 int |u_x|^2 = pi
    model = make_model("nls", {"sigma": 1, "lam": 0.0})
    grid = model.make_grid(4)
    s = FourierState.zeros(grid)
    s.set_mode(1, math.sqrt(2.0 * math.pi))
    assert abs(model.hamiltonian(s) - math.pi) < 1e-12


def test_zero_state_zero_energy(nls, wave_cubic):
    for model in (nls, wave_cubic):
        grid = model.make_grid(3)
        assert model.hamiltonian(FourierState.zeros(grid, model.components)) == 0.0


# -- symplectic structure -----------------------------------------------------


def test_nls_j_inv_symbol(nls):
    grid = nls.make_grid(3)
    s = FourierState.zeros(grid)
    s.set_mode(1, 1.0)
    assert abs(nls.apply_J_inv(s).mode(1) - 1j) < 1e-15


def test_j_inv_skew_pairing(nls, wave_cubic, rng):
    for model in (nls, wave_cubic):
        grid = model.make_grid(5)
        for _ in range(5):
            s = random_state(grid, model.components, rng)
            val = model.pairing(model.apply_J_inv(s), s)
            assert abs(val) < 1e-12 * max(1.0, model.energy_norm(s) ** 2)


@pytest.mark.parametrize("key", list(MODEL_SPECS))
def test_pairing_sums_the_energy_inner_product(key, rng):
    # the wave's pairing weights are its squared energy weights (H^1 x L^2),
    # the Schroedinger models' are ones (L^2): the one pairing keeps the bits
    # of the inner products it replaced
    model = make_model(*MODEL_SPECS[key])
    grid = model.make_grid(5)
    a, b = (random_state(grid, model.components, rng) for _ in range(2))
    w2 = 1.0
    if model.name == "wave":
        w2 = energy_weights(grid, model.energy_offsets, model.q) ** 2
    want = np.real(np.sum(w2 * a.coeffs * np.conj(b.coeffs)))
    assert same_bits(np.float64(model.pairing(a, b)), want)


def test_j_inv_commutes_with_projection(nls, wave_cubic, rng):
    for model in (nls, wave_cubic):
        grid = model.make_grid(6)
        s = random_state(grid, model.components, rng)
        a = model.apply_J_inv(model.project(s, 3.0))
        b = model.project(model.apply_J_inv(s), 3.0)
        assert np.array_equal(a.coeffs, b.coeffs)


def test_h2_selfadjoint(nls, wave_cubic, wave_sg, rng):
    for model in (nls, wave_cubic, wave_sg):
        grid = model.make_grid(4)
        s = random_state(grid, model.components, rng, real_field=model.is_real_field)
        assert check_h2_selfadjoint(model, s, m=4.0**model.q) < 1e-6


def test_grad_h_consistency(nls, wave_sg, rng):
    # J grad H = AU + B on the band, gradient assembled by finite differences
    for model in (nls, wave_sg):
        grid = model.make_grid(4)
        s = random_state(grid, model.components, rng, real_field=model.is_real_field)
        assert grad_H_consistency(model, s, m=4.0**model.q) < 1e-6


def test_grad_h_consistency_nonlocal(rng):
    model = make_model("nonlocal_nls")
    grid = model.make_grid(4)
    s = random_state(grid, 1, rng, scale=0.5)
    assert grad_H_consistency(model, s) < 1e-6


def test_grad_h_consistency_plane_wave(nls):
    grid = nls.make_grid(3)
    s = FourierState.zeros(grid)
    s.set_mode(1, 0.6)
    assert grad_H_consistency(nls, s, m=4.0) < 1e-6


# -- dynamics-level consistency -----------------------------------------------


def test_reference_flow_conserves_energy(nls, wave_cubic, rng):
    # A, B, H mutually consistent: the exact truncated flow conserves H
    for model in (nls, wave_cubic):
        grid = model.make_grid(4)
        s = random_state(grid, model.components, rng, real_field=model.is_real_field)
        h0 = model.hamiltonian(s)
        end = reference_flow(model, s, T=1.0)
        assert abs(model.hamiltonian(end) - h0) <= 1e-8 * max(1.0, abs(h0))


def _fd4_force(model, s, w, eps):
    stack = (
        (-1.0) * model.apply_B(s + 2 * eps * w).coeffs
        + 8.0 * model.apply_B(s + eps * w).coeffs
        - 8.0 * model.apply_B(s - eps * w).coeffs
        + model.apply_B(s - 2 * eps * w).coeffs
    )
    return stack / (12.0 * eps)


def test_cubic_force_derivative_closed_form(nls, rng):
    # DB(u)w = -i (2|u|^2 w + u^2 conj(w)); the stencil is exact for cubics,
    # so the comparison sits at roundoff
    grid = nls.make_grid(4)
    s = random_state(grid, 1, rng)
    w = random_state(grid, 1, rng, scale=0.2)
    u = grid.to_phys(s.coeffs[0])
    wv = grid.to_phys(w.coeffs[0])
    analytic = grid.to_coeffs(-1j * (2.0 * np.abs(u) ** 2 * wv + u**2 * np.conj(wv)))
    fd = _fd4_force(nls, s, w, 1e-2)[0]
    assert np.max(np.abs(fd - analytic)) < 1e-12


def test_force_smoothness_fd_convergence(wave_sg, rng):
    # a non-polynomial force shows the stencil's fourth-order truncation decay
    grid = wave_sg.make_grid(4)
    s = random_state(grid, 2, rng, scale=0.8, real_field=True)
    w = random_state(grid, 2, rng, scale=0.5, real_field=True)
    ref = _fd4_force(wave_sg, s, w, 1e-3)  # truncation ~1e-12, usable reference
    errs = []
    for eps in (0.2, 0.1, 0.05):
        errs.append(np.max(np.abs(_fd4_force(wave_sg, s, w, eps) - ref)))
    assert errs[1] < errs[0] / 8.0
    assert errs[2] < errs[1] / 8.0


def test_measure_force_scale(nls, rng):
    grid = nls.make_grid(4)
    states = [random_state(grid, 1, rng) for _ in range(3)]
    val = measure_force_scale(nls, states)
    assert val > 0.0
    # dominated by the largest sample, monotone under adding states
    assert measure_force_scale(nls, states[:1]) <= val + 1e-15


# -- batched force, chart index maps and shared caches --------------------------


@pytest.mark.parametrize("m", [None, 4.0])
@pytest.mark.parametrize("key", list(MODEL_SPECS))
def test_batched_force_matches_per_state_apply_B(key, m, rng):
    model = make_model(*MODEL_SPECS[key])
    grid = model.make_grid(6)
    states = [
        random_state(grid, model.components, rng, real_field=model.is_real_field)
        for _ in range(3)
    ]
    want = np.stack([model.apply_B(s, m).coeffs for s in states])
    stack = np.stack([s.coeffs for s in states])
    # the stepper hands over a strided (stages, c, band) view of a (band, s*c) array
    strided = np.ascontiguousarray(stack.transpose(2, 0, 1)).transpose(1, 2, 0)
    for batch in (stack, strided):
        assert same_bits(model.force(grid, batch, m), want)


def _reference_chart(model, grid, m):
    """Per-dof (component, k, re/im) list and scales, built mode by mode."""
    mask = band_mask(grid, m, model.q)
    K = grid.n_modes
    w2 = model._pairing_weights(grid)
    folded = model.components == 2 or model.is_real_field
    dofs, scales = [], []
    for c in range(model.components):
        for k in range(0 if folded else -K, K + 1):
            if not mask[K + k]:
                continue
            if folded and k == 0:
                dofs.append((c, 0, 0))
                scales.append(math.sqrt(w2[c, K]))
                continue
            s = math.sqrt((2.0 if folded else 1.0) * w2[c, K + k])
            dofs += [(c, k, 0), (c, k, 1)]
            scales += [s, s]
    return dofs, np.array(scales), folded


def _reference_to_real(dofs, scales, grid, state):
    K = grid.n_modes
    z = np.empty(len(dofs))
    for i, (c, k, part) in enumerate(dofs):
        v = state.coeffs[c, K + k]
        z[i] = (v.real if part == 0 else v.imag) * scales[i]
    return z


def _reference_from_real(dofs, scales, folded, grid, components, z):
    K = grid.n_modes
    coeffs = np.zeros((components, grid.band_size), dtype=complex)
    for i, (c, k, part) in enumerate(dofs):
        v = z[i] / scales[i]
        coeffs[c, K + k] += v if part == 0 else 1j * v
    if folded:
        for c in range(components):
            for k in range(1, K + 1):
                coeffs[c, K - k] = np.conj(coeffs[c, K + k])
    return coeffs


@pytest.mark.parametrize("m", [None, 4.0])
@pytest.mark.parametrize("key", ["nls-cubic", "wave-poly"])
def test_chart_matches_per_dof_reference(key, m, rng):
    model = make_model(*MODEL_SPECS[key])
    grid = model.make_grid(5)
    chart = model.chart(grid, m)
    dofs, scales, folded = _reference_chart(model, grid, m)
    assert chart.dim == len(dofs) and same_bits(chart.scales, scales)
    for _ in range(3):
        state = random_state(grid, model.components, rng, real_field=folded)
        z = _reference_to_real(dofs, scales, grid, state)
        assert same_bits(chart.to_real(state), z)
        z = z * rng.choice([-1.0, 1.0], size=z.size)  # exercise signed zeros too
        z[::4] = -0.0
        want = _reference_from_real(dofs, scales, folded, grid, model.components, z)
        assert same_bits(chart.from_real(z).coeffs, want)


@pytest.mark.parametrize("lead", [(3,), (2, 3)])
@pytest.mark.parametrize("m", [None, 4.0])
@pytest.mark.parametrize("key", list(MODEL_SPECS))
def test_chart_array_forms_match_per_state_forms(key, m, lead, rng):
    # the Newton stage solve packs whole stacks of states through the array forms
    model = make_model(*MODEL_SPECS[key])
    grid = model.make_grid(5)
    chart = model.chart(grid, m)
    folded = model.components == 2 or model.is_real_field
    states = [
        random_state(grid, model.components, rng, real_field=folded)
        for _ in range(math.prod(lead))
    ]
    for st in states[::2]:
        st.coeffs[..., ::3] = -0.0  # signed zeros in the coefficients
    coeffs = np.stack([st.coeffs for st in states]).reshape(*lead, *states[0].coeffs.shape)
    z = chart.coeffs_to_real(coeffs)
    want = np.stack([chart.to_real(st) for st in states])
    assert z.shape == (*lead, chart.dim) and same_bits(z.reshape(want.shape), want)
    z = z * rng.choice([-1.0, 1.0], size=z.shape)  # and signed zeros in the chart
    z[..., ::4] = -0.0
    back = chart.real_to_coeffs(z)
    want = np.stack([chart.from_real(zi).coeffs for zi in z.reshape(-1, chart.dim)])
    assert back.shape == coeffs.shape and same_bits(back.reshape(want.shape), want)
    # the round trip reproduces the chart coordinates up to the scale division
    again = chart.coeffs_to_real(back)
    flat = z.reshape(-1, chart.dim)
    assert same_bits(again.reshape(flat.shape),
                     np.stack([chart.to_real(chart.from_real(zi)) for zi in flat]))
    assert np.allclose(again, z, rtol=1e-15, atol=0.0)


def test_shared_caches_are_read_only(nls, wave_cubic):
    grid = nls.make_grid(4)
    shared = [
        _mode_weights(grid, nls.energy_offsets, GevreyIndex(0.0, 0.0, 2.0)),
        nls.a_blocks(grid),
        wave_cubic.a_blocks(wave_cubic.make_grid(4)),
    ]
    for arr in shared:
        with pytest.raises(ValueError):
            arr[0] = 0
    for cached in (_mode_weights, type(nls).a_blocks, type(wave_cubic).a_blocks):
        assert cached.cache_info().maxsize is not None
