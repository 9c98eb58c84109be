"""Gauss collocation tableaux, the reformulated stage solve, and one-step maps."""

import math

import numpy as np
import pytest

from hambea import (
    ConvergenceError,
    FourierState,
    PoleError,
    StageSolveConfig,
    Stepper,
    gauss_legendre,
    make_model,
    make_tableau,
    stability_function,
    y_norm,
)
from hambea.rk import linear_operator_bounds, symplecticity_residual

from conftest import MODEL_SPECS, fit_loglog_slope, random_state, same_bits

SQRT3 = math.sqrt(3.0)
SQRT15 = math.sqrt(15.0)


# -- tableau construction -----------------------------------------------------


def test_midpoint_tableau():
    tab = make_tableau("midpoint")
    assert tab.order == 2 and tab.stages == 1
    assert tab.a[0, 0] == pytest.approx(0.5, abs=1e-15)
    assert tab.b[0] == pytest.approx(1.0, abs=1e-15)


def test_gauss2_tableau_classical_matrix():
    tab = gauss_legendre(2)
    a_exact = np.array(
        [[0.25, 0.25 - SQRT3 / 6.0], [0.25 + SQRT3 / 6.0, 0.25]]
    )
    assert np.max(np.abs(tab.a - a_exact)) < 1e-14
    assert np.max(np.abs(tab.b - 0.5)) < 1e-14
    assert tab.order == 4


def test_gauss3_tableau_classical_matrix():
    tab = gauss_legendre(3)
    a_exact = np.array(
        [
            [5.0 / 36.0, 2.0 / 9.0 - SQRT15 / 15.0, 5.0 / 36.0 - SQRT15 / 30.0],
            [5.0 / 36.0 + SQRT15 / 24.0, 2.0 / 9.0, 5.0 / 36.0 - SQRT15 / 24.0],
            [5.0 / 36.0 + SQRT15 / 30.0, 2.0 / 9.0 + SQRT15 / 15.0, 5.0 / 36.0],
        ]
    )
    b_exact = np.array([5.0 / 18.0, 4.0 / 9.0, 5.0 / 18.0])
    assert np.max(np.abs(tab.a - a_exact)) < 1e-14
    assert np.max(np.abs(tab.b - b_exact)) < 1e-14
    assert abs(np.linalg.det(tab.a)) > 1e-13


def test_order_conditions():
    # quadrature-order conditions sum b c^{r-1} = 1/r up to r = 2s
    for s in (1, 2, 3):
        tab = gauss_legendre(s)
        for r in range(1, 2 * s + 1):
            assert abs(np.sum(tab.b * tab.c ** (r - 1)) - 1.0 / r) < 1e-14
        # collocation row conditions: a c^{r-1} = c^r / r for r <= s
        for r in range(1, s + 1):
            lhs = tab.a @ tab.c ** (r - 1)
            assert np.max(np.abs(lhs - tab.c**r / r)) < 1e-14


def test_symplecticity_residuals():
    for s in (1, 2, 3):
        assert gauss_legendre(s).symplecticity_residual() < 1e-13


def test_method_constants_midpoint():
    tab = make_tableau("midpoint")
    assert tab.eta == pytest.approx(5.177398899124181, abs=1e-12)
    assert tab.gamma == pytest.approx(31.376333906562788, abs=1e-12)


def test_make_tableau_rejects_unknown():
    with pytest.raises(ValueError):
        make_tableau("rk4")
    with pytest.raises(ValueError):
        gauss_legendre(0)


# -- stability function -------------------------------------------------------


def test_stability_at_zero():
    for name in ("midpoint", "gauss2", "gauss3"):
        assert stability_function(make_tableau(name), 0.0) == pytest.approx(1.0)


def test_midpoint_stability_rational():
    tab = make_tableau("midpoint")
    for z in (0.3, -1.2, 2.0j, 0.5 - 0.7j):
        expect = (1.0 + z / 2.0) / (1.0 - z / 2.0)
        assert stability_function(tab, z) == pytest.approx(expect, abs=1e-14)


def test_midpoint_stability_taylor():
    # S(z) = 1 + z + z^2/2 + z^3/4 + ...: coefficient j is 2^{1-j} for j >= 1.
    # Taylor coefficients via Cauchy integral on |z| = 1 (pole sits at z = 2).
    tab = make_tableau("midpoint")
    n = 64
    thetas = 2.0 * np.pi * np.arange(n) / n
    ring = np.array([stability_function(tab, np.exp(1j * t)) for t in thetas])
    coeffs = np.fft.fft(ring) / n
    assert coeffs[0].real == pytest.approx(1.0, abs=1e-13)
    for j in range(1, 7):
        assert coeffs[j].real == pytest.approx(2.0 ** (1 - j), rel=1e-12)
        assert abs(coeffs[j].imag) < 1e-13


def test_a_stability_on_imaginary_axis():
    for name in ("midpoint", "gauss2", "gauss3"):
        tab = make_tableau(name)
        for y in np.linspace(-50.0, 50.0, 101):
            assert abs(stability_function(tab, 1j * y)) <= 1.0 + 1e-12


def test_stability_pole():
    # midpoint: pole at z = 2
    with pytest.raises(PoleError):
        stability_function(make_tableau("midpoint"), 2.0)


# -- stage solve and stepping -------------------------------------------------


def test_step_h_zero_is_identity(nls, rng):
    grid = nls.make_grid(4)
    s = random_state(grid, 1, rng)
    out = Stepper(nls, grid, make_tableau("midpoint"), 0.0).step(s)
    assert np.max(np.abs(out.coeffs - s.coeffs)) < 1e-15


def test_stages_at_h_zero(nls, rng):
    grid = nls.make_grid(4)
    s = random_state(grid, 1, rng)
    stepper = Stepper(nls, grid, make_tableau("gauss2"), 0.0)
    res = stepper.solve_stages(s)
    for st in res.stages:
        assert np.max(np.abs(st - s.coeffs)) < 1e-14


def test_linear_step_is_stability_multiplier():
    # lam = 0 NLS: u_hat_k -> S(-i k^2 h) u_hat_k, one fixed-point iteration
    model = make_model("nls", {"sigma": 1, "lam": 0.0})
    grid = model.make_grid(5)
    s = FourierState.zeros(grid)
    for k in (-3, 1, 4):
        s.set_mode(k, 0.5 + 0.1j * k)
    h = 0.2
    tab = make_tableau("midpoint")
    out = Stepper(model, grid, tab, h).step(s)
    for k in (-3, 1, 4):
        mult = stability_function(tab, -1j * k**2 * h)
        assert out.mode(k) == pytest.approx(mult * s.mode(k), abs=1e-13)


def _definitional_map(stepper, U, W=None):
    """R (1 (x) U + h a (x) B(W)) straight from the definition; W = None drops B."""
    model, grid, tab = stepper.model, stepper.grid, stepper.tab
    shape = (tab.stages, model.components, grid.band_size)
    force = np.zeros(shape, dtype=complex) if W is None else model.force(grid, W, stepper.m)
    rhs = model.project(U, stepper.m).coeffs + stepper.h * np.einsum("ij,jcm->icm", tab.a, force)
    return np.einsum("kab,bk->ak", stepper._resolvent, rhs.reshape(-1, shape[-1])).reshape(shape)


def test_stage_residual_definition(nls, rng):
    # the returned stages satisfy the fixed-point equation to tolerance
    grid = nls.make_grid(5)
    s = random_state(grid, 1, rng)
    h = 0.05
    tab = make_tableau("gauss2")
    cfg = StageSolveConfig(tol=1e-12)
    stepper = Stepper(nls, grid, tab, h, config=cfg)
    res = stepper.solve_stages(s)
    assert res.residual <= 1e-12
    assert res.iterations < 50
    # residual check straight from the definition: W = R (1 U + h a B(W))
    defect = _definitional_map(stepper, s, res.stages) - res.stages
    assert np.max(np.abs(defect)) < 5e-12


@pytest.mark.parametrize("scheme", ["fixed_point", "newton_on_modes"])
@pytest.mark.parametrize("key", ["nls-cubic", "sine-gordon"])  # c = 1 and c = 2
@pytest.mark.parametrize("m", [None, 4.0])  # at K = 5, m = 4 cuts both bands
def test_stage_forces_are_the_force_of_the_stages(scheme, key, m, rng):
    model = make_model(*MODEL_SPECS[key])
    grid = model.make_grid(5)
    U = random_state(grid, model.components, rng, real_field=model.is_real_field)
    config = StageSolveConfig(scheme=scheme, tol=1e-13)
    res = Stepper(model, grid, make_tableau("gauss2"), 0.08, m, config).solve_stages(U)
    assert res.forces.shape == res.stages.shape
    assert same_bits(res.forces, model.force(grid, res.stages, m))


def _recording_force(model, monkeypatch):
    """Patch model.force to record each (input, output) pair."""
    calls, force = [], model.force

    def recording(grid, coeffs, m=None):
        out = force(grid, coeffs, m)
        calls.append((np.array(coeffs), out))
        return out

    monkeypatch.setattr(model, "force", recording)
    return calls


@pytest.mark.parametrize("key", ["nls-cubic", "sine-gordon"])
def test_fixed_point_step_forces_each_iterate_once(key, rng, monkeypatch):
    # B is evaluated at W_0 and at each iterate, the returned stages included,
    # and step() reuses the last of these for the update
    model = make_model(*MODEL_SPECS[key])
    grid = model.make_grid(6)
    U = random_state(grid, model.components, rng, real_field=model.is_real_field)
    stepper = Stepper(model, grid, make_tableau("gauss2"), 0.05)
    calls = _recording_force(model, monkeypatch)
    res = stepper.solve_stages(U)
    assert len(calls) == res.iterations + 1 >= 3
    assert same_bits(calls[-1][0], res.stages) and calls[-1][1] is res.forces
    # the residual is the largest per-stage energy norm of the last update
    delta = calls[-1][0] - calls[-2][0]
    norms = [y_norm(FourierState(grid, d), model.q) for d in delta]
    assert same_bits(res.residual, max(norms) / (1.0 + y_norm(U, model.q)))
    calls.clear()
    stepper.step(U)
    assert len(calls) == res.iterations + 1


def test_newton_step_forces_nothing_after_its_last_residual(wave_sg, rng, monkeypatch):
    grid = wave_sg.make_grid(4)
    U = random_state(grid, 2, rng, real_field=True)
    newton = StageSolveConfig(scheme="newton_on_modes", tol=1e-13)
    stepper = Stepper(wave_sg, grid, make_tableau("gauss2"), 0.05, config=newton)
    res = stepper.solve_stages(U)
    calls = _recording_force(wave_sg, monkeypatch)
    out = stepper.step(U)
    # one residual and one stacked Jacobian per iteration, then the final residual
    assert len(calls) == 2 * res.iterations - 1 and res.iterations >= 2
    assert same_bits(calls[-1][0], res.stages) and same_bits(calls[-1][1], res.forces)
    monkeypatch.undo()
    assert same_bits(out.coeffs, stepper.step(U).coeffs)


def test_stage_solver_nonconvergence_raises(nls, rng):
    grid = nls.make_grid(4)
    s = random_state(grid, 1, rng, scale=1.5)
    cfg = StageSolveConfig(tol=1e-15, max_iter=2)
    with pytest.raises(ConvergenceError):
        Stepper(nls, grid, make_tableau("gauss2"), 0.5, config=cfg).step(s)


def test_newton_matches_fixed_point(rng):
    # NLS has an unfolded one-component chart, sine-Gordon a folded two-component
    # one; at K = 5 the radius m = 4 cuts both bands
    tab = make_tableau("gauss2")
    h = 0.08
    for key, K in (("nls-cubic", 4), ("sine-gordon", 5)):
        model = make_model(*MODEL_SPECS[key])
        grid = model.make_grid(K)
        s = random_state(grid, model.components, rng, real_field=model.is_real_field)
        for m in (None, 4.0):
            a = Stepper(model, grid, tab, h, m, StageSolveConfig(tol=1e-14)).step(s)
            newton = StageSolveConfig(scheme="newton_on_modes", tol=1e-14)
            b = Stepper(model, grid, tab, h, m, newton).step(s)
            assert y_norm(a - b, model.q) < 1e-11


def _newton_reference(stepper, U):
    """The Newton stage solve packed stage by stage, one residual pair per Jacobian column.

    Returns (stages, iterations, residual, Jacobians) for bitwise comparison
    with Stepper.solve_stages, which evaluates all the columns as one stack.
    """
    model, grid, m, s = stepper.model, stepper.grid, stepper.m, stepper.tab.stages
    chart = model.chart(grid, m)
    um = model.project(U, m)
    scale = 1.0 + y_norm(um, model.q)

    def pack(st):
        return np.concatenate([chart.to_real(FourierState(grid, st[i])) for i in range(s)])

    def unpack(z):
        return np.stack([chart.from_real(p).coeffs for p in np.split(z, s)])

    w0 = (stepper._base * um.coeffs).sum(axis=-2)

    def residual_vec(z):
        st = unpack(z)
        return pack(st - stepper._stage_map(w0, model.force(grid, st, m)))

    z = pack(w0.reshape(s, model.components, -1))
    jacs = []
    for it in range(1, stepper.config.max_iter + 1):
        r = residual_vec(z)
        res = float(np.linalg.norm(r)) / scale
        if res <= stepper.config.tol:
            return unpack(z), it, res, jacs
        eps = 1e-7 * (1.0 + float(np.linalg.norm(z)))
        jac = np.empty((z.size, z.size))
        for i in range(z.size):
            e = np.zeros(z.size)
            e[i] = eps
            jac[:, i] = (residual_vec(z + e) - residual_vec(z - e)) / (2 * eps)
        jacs.append(jac)
        z = z - np.linalg.solve(jac, r)
    raise AssertionError("reference Newton solve did not converge")


@pytest.mark.parametrize("m", [None, 4.0])
@pytest.mark.parametrize("tab_name", ["midpoint", "gauss2", "gauss3"])
@pytest.mark.parametrize("key", ["sine-gordon", "wave-poly", "nls-cubic", "nls-quintic",
                                 "nonlocal-nls"])
def test_stacked_newton_jacobian_matches_column_loop(key, tab_name, m, rng, monkeypatch):
    model = make_model(*MODEL_SPECS[key])
    grid = model.make_grid(5)
    U = random_state(grid, model.components, rng, real_field=model.is_real_field)
    config = StageSolveConfig(scheme="newton_on_modes", tol=1e-12)
    stepper = Stepper(model, grid, make_tableau(tab_name), 0.05, m, config)
    jacs, solve = [], np.linalg.solve

    def recording_solve(jac, r):
        jacs.append(np.array(jac))
        return solve(jac, r)

    monkeypatch.setattr(np.linalg, "solve", recording_solve)
    got = stepper.solve_stages(U)
    monkeypatch.undo()
    stages, iterations, residual, want_jacs = _newton_reference(stepper, U)
    assert got.iterations == iterations >= 2
    assert same_bits(got.stages, stages) and same_bits(got.residual, residual)
    assert len(jacs) == len(want_jacs)
    assert all(same_bits(a, b) for a, b in zip(jacs, want_jacs))


def test_singular_newton_jacobian_raises(nls, rng, monkeypatch):
    grid = nls.make_grid(4)
    U = random_state(grid, 1, rng)
    newton = StageSolveConfig(scheme="newton_on_modes")
    stepper = Stepper(nls, grid, make_tableau("gauss2"), 0.05, config=newton)

    def singular(jac, r):
        raise np.linalg.LinAlgError("Singular matrix")

    monkeypatch.setattr(np.linalg, "solve", singular)
    with pytest.raises(ConvergenceError, match="singular") as info:
        stepper.solve_stages(U)
    assert info.value.iterations == 1 and info.value.residual > newton.tol
    assert isinstance(info.value.__cause__, np.linalg.LinAlgError)


def test_newton_builds_its_chart_once(wave_sg, rng, monkeypatch):
    grid = wave_sg.make_grid(4)
    U = random_state(grid, 2, rng, real_field=True)
    newton = StageSolveConfig(scheme="newton_on_modes")
    stepper = Stepper(wave_sg, grid, make_tableau("gauss2"), 0.05, config=newton)
    built = []
    chart = wave_sg.chart
    monkeypatch.setattr(wave_sg, "chart", lambda *args: built.append(args) or chart(*args))
    for _ in range(3):
        U = stepper.step(U)
    assert len(built) == 1


def test_non_finite_stages_raise(nls):
    # a state far outside the contraction regime blows the stage iterate up;
    # the NaN stage must not read as a zero residual and pass as converged
    grid = nls.make_grid(8)
    rng = np.random.default_rng(0)
    shape = (1, grid.band_size)
    U = FourierState(grid, 30.0 * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)))
    with np.errstate(all="ignore"), pytest.raises(ConvergenceError, match="non-finite"):
        Stepper(nls, grid, make_tableau("gauss2"), 0.5).solve_stages(U)
    bad = U.copy()
    bad.set_mode(0, complex(np.nan, 0.0))
    newton = StageSolveConfig(scheme="newton_on_modes")
    with np.errstate(all="ignore"), pytest.raises(ConvergenceError, match="non-finite"):
        Stepper(nls, grid, make_tableau("gauss2"), 0.05, config=newton).solve_stages(bad)


@pytest.mark.parametrize("tab_name", ["midpoint", "gauss2", "gauss3"])
def test_residual_norm_matches_per_stage_norms(nls, wave_cubic, tab_name, rng):
    # the stepper's one reduction over a stage stack gives the bits of each
    # per-stage y_norm, on the updates of the definitional iteration
    for model in (nls, wave_cubic):
        for K in (8, 16, 32, 64):
            grid = model.make_grid(K)
            st = Stepper(model, grid, make_tableau(tab_name), 0.05)
            u = random_state(grid, model.components, rng, scale=1.0, decay=0.2,
                             real_field=model.is_real_field)
            stages = _definitional_map(st, u)
            for _ in range(4):
                new = _definitional_map(st, u, stages)
                delta, stages = new - stages, new
                want = np.array([y_norm(FourierState(grid, d), model.q) for d in delta])
                assert same_bits(np.sqrt(st._sq_norms(delta)), want)


def test_band_invariance(nls, rng):
    # output coefficients vanish outside the projection ball, exactly
    grid = nls.make_grid(6)
    s = random_state(grid, 1, rng)
    m = 9.0  # keeps |k| <= 3 in eigenvalue units k^2
    out = Stepper(nls, grid, make_tableau("midpoint"), 0.1, m=m).step(s)
    for k in (-6, -5, -4, 4, 5, 6):
        assert out.mode(k) == 0.0


@pytest.mark.parametrize("scheme", ["fixed_point", "newton_on_modes"])
@pytest.mark.parametrize("key", ["nls-cubic", "sine-gordon"])  # c = 1 and c = 2
def test_step_projects_its_input_without_calling_project(scheme, key, rng, monkeypatch):
    # P_m is folded into the stepper's per-mode arrays: a state with modes
    # outside the band steps exactly as its projection does, with no project call
    model = make_model(*MODEL_SPECS[key])
    grid = model.make_grid(5)
    m = 4.0  # at K = 5 cuts both bands
    U = random_state(grid, model.components, rng, real_field=model.is_real_field)
    config = StageSolveConfig(scheme=scheme, tol=1e-13)
    stepper = Stepper(model, grid, make_tableau("gauss2"), 0.08, m, config)
    want = stepper.step(model.project(U, m))
    calls, project = [], model.project
    monkeypatch.setattr(model, "project", lambda *a: calls.append(a) or project(*a))
    got = stepper.step(U)
    assert calls == []
    assert same_bits(got.coeffs, want.coeffs)


def test_reversibility_composition(nls, wave_cubic, rng):
    # Gauss methods are symmetric: Psi^{-h} o Psi^{h} = id to solver tolerance
    for model in (nls, wave_cubic):
        grid = model.make_grid(4)
        s = random_state(grid, model.components, rng, real_field=model.is_real_field)
        cfg = StageSolveConfig(tol=1e-14)
        for name in ("midpoint", "gauss2"):
            tab = make_tableau(name)
            fwd = Stepper(model, grid, tab, 0.1, config=cfg).step(s)
            back = Stepper(model, grid, tab, -0.1, config=cfg).step(fwd)
            assert y_norm(back - s, model.q) < 1e-13 * max(1.0, y_norm(s, model.q))


def test_wave_step_preserves_realness(wave_cubic, rng):
    from hambea.spectral import hermitian_defect

    grid = wave_cubic.make_grid(4)
    s = random_state(grid, 2, rng, real_field=True)
    out = Stepper(wave_cubic, grid, make_tableau("gauss2"), 0.1).step(s)
    assert hermitian_defect(out) < 1e-12


# -- accuracy -----------------------------------------------------------------


def test_local_order(nls, rng):
    # one-step error against a tiny-step reference: O(h^{p+1})
    from hambea import reference_flow

    grid = nls.make_grid(4)
    s = random_state(grid, 1, rng)
    cfg = StageSolveConfig(tol=1e-14)
    for name, p in (("midpoint", 2), ("gauss2", 4)):
        tab = make_tableau(name)
        hs = [0.05, 0.025, 0.0125, 0.00625]
        errs = []
        for h in hs:
            ref = reference_flow(nls, s, h, rtol=1e-12, atol=1e-14)
            errs.append(y_norm(Stepper(nls, grid, tab, h, config=cfg).step(s) - ref, nls.q))
        slope = fit_loglog_slope(hs, errs)
        assert abs(slope - (p + 1)) < 0.2


def test_global_order_wave(wave_cubic, rng):
    from hambea import reference_flow

    grid = wave_cubic.make_grid(3)
    s = random_state(grid, 2, rng, real_field=True)
    cfg = StageSolveConfig(tol=1e-14)
    T = 0.5
    ref = reference_flow(wave_cubic, s, T, rtol=1e-12, atol=1e-14)
    hs = [0.1, 0.05, 0.025, 0.0125]
    errs = []
    for h in hs:
        stepper = Stepper(wave_cubic, grid, make_tableau("midpoint"), h, config=cfg)
        u = s
        for _ in range(round(T / h)):
            u = stepper.step(u)
        errs.append(y_norm(u - ref, 1.0))
    assert abs(fit_loglog_slope(hs, errs) - 2.0) < 0.2


# -- energy and symplecticity -------------------------------------------------


def test_quadratic_invariant_exactness():
    # linear Schroedinger: H is quadratic, conserved to roundoff by Gauss methods
    model = make_model("nls", {"sigma": 1, "lam": 0.0})
    grid = model.make_grid(6)
    s = FourierState.zeros(grid)
    for k in range(-4, 5):
        s.set_mode(k, 0.3 * math.exp(-0.4 * abs(k)) * (1.0 + 0.2j * k))
    h0 = model.hamiltonian(s)
    u = s
    cfg = StageSolveConfig(tol=1e-14)
    stepper = Stepper(model, grid, make_tableau("midpoint"), 0.1, config=cfg)
    for _ in range(50):
        u = stepper.step(u)
    assert abs(model.hamiltonian(u) - h0) <= 1e-10 * abs(h0)


def test_symplecticity_h_zero(nls, rng):
    # identity map; residual is pure finite-difference noise
    grid = nls.make_grid(3)
    s = random_state(grid, 1, rng)
    assert symplecticity_residual(nls, make_tableau("midpoint"), s, 0.0) < 1e-10


def test_symplecticity_linear_exact():
    # linear problem admits the exact Jacobian S(hA): residual ~ roundoff
    model = make_model("nls", {"sigma": 1, "lam": 0.0})
    grid = model.make_grid(3)
    s = FourierState.zeros(grid)
    s.set_mode(1, 0.4)
    res = symplecticity_residual(
        model, make_tableau("gauss2"), s, 0.3, jacobian="linear"
    )
    assert res < 1e-10


def test_symplecticity_fd_both_models(nls, wave_cubic, rng):
    for model in (nls, wave_cubic):
        grid = model.make_grid(3)
        s = random_state(grid, model.components, rng, real_field=model.is_real_field)
        res = symplecticity_residual(
            model, make_tableau("midpoint"), s, 0.01, config=StageSolveConfig(tol=1e-14)
        )
        assert res < 1e-6


# -- linear operator bounds ---------------------------------------------------


def test_linear_bounds_h_zero(nls):
    grid = nls.make_grid(4)
    vals = linear_operator_bounds(nls, make_tableau("midpoint"), grid, 0.0)
    assert vals["resolvent"] == pytest.approx(1.0, abs=1e-12)
    assert vals["stability"] == pytest.approx(1.0, abs=1e-12)


def test_linear_bounds_stability_contraction(nls, wave_cubic):
    # |S| = 1 on the imaginary axis for Gauss methods, any h and band
    for model in (nls, wave_cubic):
        grid = model.make_grid(6)
        for name in ("midpoint", "gauss2", "gauss3"):
            vals = linear_operator_bounds(model, make_tableau(name), grid, 0.7)
            assert vals["stability"] <= 1.0 + 1e-12
            assert np.isfinite(vals["resolvent"])
            assert vals["one_plus_resolvent"] == pytest.approx(
                1.0 + vals["resolvent"]
            )
