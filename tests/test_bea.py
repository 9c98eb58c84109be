"""Modified-field coefficients from the orbit logarithm, modified energies, and
truncation policies."""

import math

import numpy as np
import pytest

from hambea import (
    ButcherTableau,
    FourierState,
    ModifiedField,
    OrderCapError,
    ResolvedPolicy,
    StageSolveConfig,
    Stepper,
    TruncationPolicy,
    gradient_consistency,
    make_model,
    make_tableau,
    modified_flow,
    modified_hamiltonian_eval,
    modified_hamiltonian_terms,
    project,
    reference_flow,
    resolve_policy,
    y_norm,
)
from hambea.hjet import ORDER_CAP

from conftest import MODEL_SPECS, fit_loglog_slope, random_state, same_bits


# -- modified-field coefficients ----------------------------------------------


def test_first_coefficient_is_the_field(nls, rng):
    grid = nls.make_grid(4)
    s = random_state(grid, 1, rng)
    f1 = ModifiedField(nls, make_tableau("midpoint")).coefficient(1, s)
    want = nls.apply_A(s) + nls.apply_B(s)
    assert y_norm(f1 - want, nls.q) < 1e-13


def test_first_coefficient_band_limited(nls, rng):
    grid = nls.make_grid(6)
    s = random_state(grid, 1, rng)
    f1 = ModifiedField(nls, make_tableau("midpoint"), m=9.0).coefficient(1, s)
    for k in (-6, -5, -4, 4, 5, 6):
        assert f1.mode(k) == 0.0


def test_second_coefficient_vanishes_raw(nls, rng):
    # order-2 method: the forward logarithm computes f^2 from the orbit jets
    # without assuming it away, and must cancel it down to roundoff, many
    # orders below the field scale
    grid = nls.make_grid(3)
    s = random_state(grid, 1, rng)
    mf = ModifiedField(nls, make_tableau("midpoint"))
    fs = mf.forward_coefficients(grid, s.coeffs[np.newaxis], 2)[:, 0]
    scale = y_norm(FourierState(grid, fs[1]), nls.q)
    assert y_norm(FourierState(grid, fs[2]), nls.q) < 1e-8 * scale


def test_fourth_coefficient_vanishes_symmetric(nls, rng):
    # symmetric method: every even coefficient is zero; the forward logarithm
    # computes f^4, the first even one past the order, rather than imposing it
    grid = nls.make_grid(3)
    s = random_state(grid, 1, rng)
    mf = ModifiedField(nls, make_tableau("midpoint"))
    fs = mf.forward_coefficients(grid, s.coeffs[np.newaxis], 4)[:, 0]
    scale = y_norm(FourierState(grid, fs[1]), nls.q)
    assert y_norm(FourierState(grid, fs[4]), nls.q) < 1e-6 * scale
    assert np.max(np.abs(mf.coefficient(4, s).coeffs)) == 0.0


@pytest.mark.parametrize("tab_name", ["midpoint", "gauss2", "gauss3"])
@pytest.mark.parametrize("key,m", [(key, m) for key in MODEL_SPECS for m in (None, 4.0)])
def test_central_log_matches_forward_log(key, m, tab_name, rng):
    # the central (Stirling) and forward series of log E are the same series
    # regrouped, so they agree on every odd coefficient the central one
    # computes, while the central one needs about half the orbit iterates
    model = make_model(*MODEL_SPECS[key])
    grid = model.make_grid(4)
    tab = make_tableau(tab_name)
    Y = np.stack(
        [
            random_state(grid, model.components, rng, real_field=model.is_real_field).coeffs
            for _ in range(3)
        ]
    )
    mf = ModifiedField(model, tab, m)
    central = mf.series_coefficients(grid, Y, 5)
    forward = mf.forward_coefficients(grid, Y, 5)
    for j in [1] + [j for j in (3, 5) if j > tab.order]:
        for c, f in zip(central[j], forward[j]):
            assert np.linalg.norm(c - f) <= 1e-8 * np.linalg.norm(f), j


def test_rejects_non_symmetric_tableau(nls):
    # the central logarithm needs Psi_h^-1 = Psi_-h; explicit Euler breaks it
    euler = ButcherTableau("euler", np.zeros((1, 1)), np.ones(1), np.zeros(1), 1)
    with pytest.raises(ValueError):
        ModifiedField(nls, euler)


def test_assumed_coefficients_are_exactly_zero(nls, rng):
    grid = nls.make_grid(3)
    s = random_state(grid, 1, rng)
    mf = ModifiedField(nls, make_tableau("gauss2"))
    for j in (2, 3, 4):
        assert np.max(np.abs(mf.coefficient(j, s).coeffs)) == 0.0


def test_coefficient_repeatable_without_per_state_storage(nls, rng):
    # repeated calls give the same bytes, and an instance stores nothing per
    # state: after a first call, no attribute grows with further calls
    grid = nls.make_grid(3)
    s = random_state(grid, 1, rng)
    mf = ModifiedField(nls, make_tableau("midpoint"))
    first = mf.coefficient(5, s)
    assert same_bits(mf.coefficient(5, s).coeffs, first.coeffs)

    def sizes():
        return {k: len(v) if hasattr(v, "__len__") else v for k, v in vars(mf).items()}

    before = sizes()
    for _ in range(4):
        mf.coefficient(5, random_state(grid, 1, rng))
    Y = np.stack([random_state(grid, 1, rng).coeffs for _ in range(3)])
    mf.series_coefficients(grid, Y, 5)
    assert sizes() == before


def test_coefficient_argument_guards(nls, rng):
    grid = nls.make_grid(3)
    s = random_state(grid, 1, rng)
    mf = ModifiedField(nls, make_tableau("midpoint"))
    with pytest.raises(ValueError):
        mf.coefficient(0, s)
    with pytest.raises(ValueError):
        mf.series_eval(s, 0.1, 0)


@pytest.mark.parametrize("tab_name", ["midpoint", "gauss3"])
def test_order_cap_is_the_jet_cap(nls, rng, tab_name):
    # the jet order cap is the one cap: order ORDER_CAP evaluates through every
    # entry point, ORDER_CAP + 1 raises OrderCapError from each
    grid = nls.make_grid(3)
    s = random_state(grid, 1, rng)
    tab = make_tableau(tab_name)
    mf = ModifiedField(nls, tab)
    top = mf.series_coefficients(grid, s.coeffs[np.newaxis], ORDER_CAP)[-2:, 0]
    assert same_bits(mf.coefficient(ORDER_CAP, s).coeffs, top[1])
    assert np.all(np.isfinite(top)) and np.max(np.abs(top[0])) > 0.0
    assert np.all(np.isfinite(mf.series_eval(s, 0.1, ORDER_CAP).coeffs))
    terms = modified_hamiltonian_terms(nls, tab, s, ORDER_CAP, mf=mf)
    assert sorted(terms) == list(range(tab.order + 1, ORDER_CAP + 1))
    assert all(math.isfinite(v) for v in terms.values())
    with pytest.raises(OrderCapError):
        mf.coefficient(ORDER_CAP + 1, s)
    with pytest.raises(OrderCapError):
        mf.series_eval(s, 0.1, ORDER_CAP + 1)
    with pytest.raises(OrderCapError):
        modified_hamiltonian_terms(nls, tab, s, ORDER_CAP + 1, mf=mf)


@pytest.mark.parametrize("key,m", [("nls-cubic", None), ("nls-cubic", 2.0), ("wave-poly", 1.0)])
def test_model_project(key, m, rng):
    # m = None is the state itself; a radius gives spectral.project's bits
    model = make_model(*MODEL_SPECS[key])
    grid = model.make_grid(3)
    U = random_state(grid, model.components, rng, real_field=model.is_real_field)
    if m is None:
        assert model.project(U, m) is U
    else:
        assert same_bits(model.project(U, m).coeffs, project(U, m, model.q).coeffs)


def test_nan_input_returns_nan(nls):
    grid = nls.make_grid(3)
    bad = FourierState(grid, np.full((1, 7), np.nan, dtype=complex))
    mf = ModifiedField(nls, make_tableau("midpoint"))
    out = mf.coefficient(3, bad)
    assert np.all(np.isnan(out.coeffs))


_COEFF_CASES = [
    ("nls-cubic", None),
    ("nls-cubic", 4.0),
    ("nls-quintic", None),
    ("nls-quintic", 4.0),
    ("wave-poly", None),
    ("sine-gordon", None),
    ("nonlocal-nls", None),
]


@pytest.mark.parametrize("tab_name", ["midpoint", "gauss2", "gauss3"])
@pytest.mark.parametrize("key,m", _COEFF_CASES)
def test_batched_coefficients_match_single_states(key, m, tab_name, rng):
    # a stack of five states, one of them zero (vanishing direction) and one
    # non-finite, gives the bytes of five single-state evaluations
    model = make_model(*MODEL_SPECS[key])
    grid = model.make_grid(3)
    rows = [
        random_state(grid, model.components, rng, real_field=model.is_real_field).coeffs
        for _ in range(4)
    ]
    if model.name != "nonlocal_nls":  # zero mass is outside its domain
        rows[2] = np.zeros_like(rows[2])
    rows[3] = rows[3].copy()
    rows[3][0, 1] = np.nan
    rows[3][0, 2] = np.inf
    Y = np.stack(rows + [0.5 * rows[0]])
    mf = ModifiedField(model, make_tableau(tab_name), m)
    for j in range(1, 6):
        # the non-finite row is never evaluated, so nothing overflows
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            got = mf.series_coefficients(grid, Y, j)[j]
        want = np.stack([mf.coefficient(j, FourierState(grid, y)).coeffs for y in Y])
        assert same_bits(got, want), j
        assert np.all(np.isnan(got[3]))


def test_noise_floor_positive_and_grows_with_n(nls, rng):
    grid = nls.make_grid(3)
    s = random_state(grid, 1, rng)
    mf = ModifiedField(nls, make_tableau("midpoint"))
    low = mf.noise_floor(s, 0.1, 3)
    assert low > 0.0
    assert mf.noise_floor(s, 0.1, 5) > low
    # measured once: a later state does not move the floor
    assert mf.noise_floor(random_state(grid, 1, rng), 0.1, 3) == low


def test_series_eval_composition(nls, rng):
    # series at h is f^1 + h^2 f^3 + ... with the even orders absent
    grid = nls.make_grid(3)
    s = random_state(grid, 1, rng)
    mf = ModifiedField(nls, make_tableau("midpoint"))
    h = 0.07
    manual = (
        mf.coefficient(1, s)
        + h**2 * mf.coefficient(3, s)
        + h**3 * mf.coefficient(4, s)
    )
    got = mf.series_eval(s, h, 4)
    assert y_norm(got - manual, nls.q) < 1e-13


# -- modified flow ------------------------------------------------------------


def test_modified_flow_n1_is_reference(nls, rng):
    grid = nls.make_grid(3)
    s = random_state(grid, 1, rng)
    tab = make_tableau("midpoint")
    a = modified_flow(nls, tab, s, 0.05, 1)
    b = reference_flow(nls, s, 0.05, rtol=1e-12, atol=1e-14)
    assert y_norm(a - b, nls.q) < 1e-10


def test_flow_step_deviation_order_n1(nls, rng):
    # flow of the plain field differs from the step by the local error O(h^3)
    grid = nls.make_grid(3)
    s = random_state(grid, 1, rng)
    tab = make_tableau("midpoint")
    cfg = StageSolveConfig(tol=1e-14)
    mf = ModifiedField(nls, tab)
    hs = [0.08, 0.04, 0.02]
    errs = [
        y_norm(
            Stepper(nls, grid, tab, h, config=cfg).step(s)
            - modified_flow(nls, tab, s, h, 1, mf=mf),
            nls.q,
        )
        for h in hs
    ]
    assert fit_loglog_slope(hs, errs) >= 2.7


def test_flow_step_deviation_order_n3(wave_cubic, rng):
    # n = 3 with a symmetric method: f^4 vanishes, so the first omitted
    # coefficient is f^5 and the deviation decays one order faster than n+1
    grid = wave_cubic.make_grid(3)
    s = random_state(grid, 2, rng, real_field=True)
    tab = make_tableau("midpoint")
    cfg = StageSolveConfig(tol=1e-14)
    mf = ModifiedField(wave_cubic, tab)
    hs = [0.1, 0.0707, 0.05]
    errs = [
        y_norm(
            Stepper(wave_cubic, grid, tab, h, config=cfg).step(s)
            - modified_flow(wave_cubic, tab, s, h, 3, mf=mf),
            1.0,
        )
        for h in hs
    ]
    slope = fit_loglog_slope(hs, errs)
    assert slope >= 4.5


# -- modified energies --------------------------------------------------------


def test_energy_terms_h_independent_and_anchored(nls, rng):
    grid = nls.make_grid(3)
    s = random_state(grid, 1, rng)
    tab = make_tableau("midpoint")
    mf = ModifiedField(nls, tab)
    terms = modified_hamiltonian_terms(nls, tab, s, 4, mf=mf)
    assert set(terms) == {3, 4}
    # at the zero state every line integral collapses
    z = FourierState.zeros(grid)
    assert modified_hamiltonian_eval(nls, tab, z, 0.1, 4, mf=mf) == nls.hamiltonian(z)
    # truncation at the method order leaves the plain energy
    h0 = nls.hamiltonian(s)
    assert modified_hamiltonian_eval(nls, tab, s, 0.1, 2, mf=mf) == pytest.approx(h0)


def test_energy_even_term_vanishes(nls, rng):
    grid = nls.make_grid(3)
    s = random_state(grid, 1, rng)
    tab = make_tableau("midpoint")
    terms = modified_hamiltonian_terms(nls, tab, s, 4)
    assert abs(terms[4]) < 1e-6 * max(1.0, abs(terms[3]))


def test_nonlocal_energy_default_anchor():
    # V(rho) = 1/rho is singular at zero mass, so a line integral from the
    # zero state leaves the domain; the default anchor is the plane wave of
    # the same mass, and H-tilde stays flat along a midpoint trajectory
    model = make_model("nonlocal_nls")
    grid = model.make_grid(3)
    s = random_state(grid, 1, np.random.default_rng(0), scale=0.5)
    tab = make_tableau("midpoint")
    mf = ModifiedField(model, tab)
    h = 0.05
    stepper = Stepper(model, grid, tab, h, config=StageSolveConfig(tol=1e-14))
    u = s
    vals = [modified_hamiltonian_eval(model, tab, u, h, 3, mf=mf)]
    for _ in range(40):
        u = stepper.step(u)
        vals.append(modified_hamiltonian_eval(model, tab, u, h, 3, mf=mf))
    assert max(abs(v - vals[0]) for v in vals) < 1e-12 * abs(vals[0])
    a = model.anchor(s)
    assert model._mass(a.coeffs) == pytest.approx(model._mass(s.coeffs), rel=1e-14)
    assert model.pairing(a, s) >= 0.0


def test_energy_correction_scales_at_method_order(nls, rng):
    # H-tilde - H = h^p H^{p+1} + ...: slope p at a fixed state
    grid = nls.make_grid(3)
    s = random_state(grid, 1, rng)
    tab = make_tableau("midpoint")
    mf = ModifiedField(nls, tab)
    h0 = nls.hamiltonian(s)
    hs = [0.1, 0.05, 0.025, 0.0125]
    diffs = [abs(modified_hamiltonian_eval(nls, tab, s, h, 4, mf=mf) - h0) for h in hs]
    assert abs(fit_loglog_slope(hs, diffs) - tab.order) < 0.05


def test_modified_energy_drifts_less(nls, rng):
    # along the numerical trajectory the corrected energy is flatter than
    # the plain one by orders of magnitude
    grid = nls.make_grid(3)
    s = random_state(grid, 1, rng)
    tab = make_tableau("midpoint")
    cfg = StageSolveConfig(tol=1e-14)
    mf = ModifiedField(nls, tab)
    h = 0.05
    states = [s]
    stepper = Stepper(nls, grid, tab, h, config=cfg)
    u = s
    for _ in range(60):
        u = stepper.step(u)
        states.append(u)
    samples = states[::15]
    drift_plain = max(abs(nls.hamiltonian(x) - nls.hamiltonian(samples[0])) for x in samples)
    vals = [modified_hamiltonian_eval(nls, tab, x, h, 3, mf=mf) for x in samples]
    drift_mod = max(abs(v - vals[0]) for v in vals)
    assert drift_mod < drift_plain / 10.0


def test_gradient_consistency_small_band(nls, rng):
    grid = nls.make_grid(2)
    s = random_state(grid, 1, rng)
    res = gradient_consistency(nls, make_tableau("midpoint"), s, 0.05, 3, n_dirs=4)
    assert res < 1e-5


# -- truncation policies ------------------------------------------------------


def test_explicit_policy_passthrough(nls, wave_cubic):
    pol = TruncationPolicy(mode="explicit", n=4, m=7.5)
    tab = make_tableau("midpoint")
    r = resolve_policy(pol, 0.01, tab, nls)
    assert isinstance(r, ResolvedPolicy)
    assert r.n == 4 and r.m == 7.5 and r.chi is None
    # coupling exponents: a >= p(q+1)+q and b >= p(q+1)/q
    assert (r.a_exp, r.b_exp) == (8, 3)
    rw = resolve_policy(pol, 0.01, tab, wave_cubic)
    assert (rw.a_exp, rw.b_exp) == (5, 4)
    rg = resolve_policy(pol, 0.01, make_tableau("gauss2"), nls)
    assert (rg.a_exp, rg.b_exp) == (14, 6)


def test_explicit_policy_requires_n(nls):
    pol = TruncationPolicy(mode="explicit")
    with pytest.raises(ValueError):
        resolve_policy(pol, 0.01, make_tableau("midpoint"), nls)


def test_unknown_policy_mode():
    with pytest.raises(ValueError):
        TruncationPolicy(mode="adaptive")


def test_coupled_policy_reference_point(wave_cubic):
    # q = 1, tau = 1, chi = 1, h = 0.01: radius (1/0.01)^{1/2} = 10 and the
    # raw order 10/4 floors to 2, then clamps up to p + 1
    pol = TruncationPolicy(mode="coupled", tau=1.0, chi=1.0)
    r = resolve_policy(pol, 0.01, make_tableau("midpoint"), wave_cubic)
    assert r.m == 10.0
    assert r.n == 3
    assert r.chi == 1.0


def test_coupled_policy_halving_ratio(nls, wave_cubic):
    # m(h/2) / m(h) -> 2^{q/(1+q)} once m is large enough for the ceiling
    # to be negligible
    pol = TruncationPolicy(mode="coupled", tau=1.0, chi=1.0, n_max=40)
    tab = make_tableau("midpoint")
    for model in (wave_cubic, nls):
        q = model.q
        r1 = resolve_policy(pol, 1e-4, tab, model)
        r2 = resolve_policy(pol, 5e-5, tab, model)
        assert r2.m / r1.m == pytest.approx(2.0 ** (q / (1.0 + q)), rel=0.02)


def test_coupled_policy_order_growth_and_clamps(nls):
    tab = make_tableau("midpoint")
    pol = TruncationPolicy(mode="coupled", tau=1.0, chi=200.0, n_max=5)
    hs = [0.1, 0.05, 0.025, 0.0125, 0.00625, 1e-6]
    ns = [resolve_policy(pol, h, tab, nls).n for h in hs]
    assert all(b >= a for a, b in zip(ns, ns[1:]))
    assert ns[0] >= tab.order + 1
    assert ns[-1] == 5  # hits the cap


def test_coupled_policy_m_cap(nls):
    pol = TruncationPolicy(mode="coupled", tau=1.0, chi=1.0, m_cap=16.0)
    r = resolve_policy(pol, 1e-6, make_tableau("midpoint"), nls)
    assert r.m == 16.0


def test_coupled_policy_chi_from_force_scale(nls):
    # chi = delta / (2 e eta c_F) when only a force scale is supplied
    tab = make_tableau("midpoint")
    pol = TruncationPolicy(mode="coupled", tau=1.0, delta=0.25, c_F=2.0)
    r = resolve_policy(pol, 0.01, tab, nls)
    want = 0.25 / (2.0 * math.e * 5.177398899124181 * 2.0)
    assert r.chi == pytest.approx(want, rel=1e-12)


def test_coupled_policy_argument_guards(nls):
    tab = make_tableau("midpoint")
    with pytest.raises(ValueError):
        resolve_policy(TruncationPolicy(mode="coupled", chi=1.0), 0.01, tab, nls)
    with pytest.raises(ValueError):
        resolve_policy(TruncationPolicy(mode="coupled", tau=1.0, chi=1.0), 0.0, tab, nls)
    with pytest.raises(ValueError):
        resolve_policy(TruncationPolicy(mode="coupled", tau=1.0), 0.01, tab, nls)
