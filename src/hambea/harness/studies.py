"""Experiment drivers: drift, convergence, projection-decay, and
backward-error-analysis verification studies, all emitting RFC-4180 CSVs.

Every row carries the provenance prefix (config hash, code version, tableau
id, stage tolerance) and the (n, m) actually used, so a CSV is interpretable
on its own.  Floats are written with 17 significant digits and runs are
deterministic: identical config and seed give byte-identical files.
Parameter points run as an embarrassingly parallel map when threads > 1,
gathered in submission order, except bea's embedding points: those of one n
run as one lockstep integration whatever threads is.  A parameter point that
fails numerically contributes a row with an error status instead of aborting.
"""

from __future__ import annotations

import csv
import math
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np

from ..bea import (
    ModifiedField,
    TruncationPolicy,
    modified_flow,
    modified_hamiltonian_eval,
    modified_hamiltonian_terms,
    gradient_consistency,
    resolve_policy,
)
from ..errors import HambeaError
from ..models import PdeModel, measure_force_scale
from ..rk import Stepper, make_tableau
from ..spectral import FourierState, y_norm
from .config import ExperimentConfig, build_initial_state

PROVENANCE_COLUMNS = ["config_hash", "code_version", "tableau", "stage_tol"]


def _fmt(v) -> str:
    if v is None:
        return ""
    if isinstance(v, str):
        return v
    if isinstance(v, (bool, np.bool_)):
        return "1" if v else "0"
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    return "%.17g" % float(v)


def _write_csv(path: Path, header: list[str], rows: list[list]) -> Path:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="", encoding="utf-8") as f:
        w = csv.writer(f)
        w.writerow(header)
        for row in rows:
            w.writerow([_fmt(v) for v in row])
    return path


def _pmap(fn, items, threads: int) -> list:
    if threads <= 1 or len(items) <= 1:
        return [fn(x) for x in items]
    with ThreadPoolExecutor(max_workers=threads) as ex:
        return list(ex.map(fn, items))


def _fit_slope(xs: list[float], ys: list[float]) -> float | None:
    """Least-squares slope of y against x; None when underdetermined."""
    if len(xs) < 2:
        return None
    return float(np.polyfit(np.asarray(xs), np.asarray(ys), 1)[0])


def _loglog_slope(hs: list[float], errs: list[float], floor: float = 1e-15) -> float | None:
    pts = [(h, e) for h, e in zip(hs, errs) if e > floor and math.isfinite(e)]
    if len(pts) < 2:
        return None
    return _fit_slope([math.log(h) for h, _ in pts], [math.log(e) for _, e in pts])


def _canonical_steps(T: float, h: float) -> tuple[int, float]:
    """Step count and effective step so the run ends exactly at T."""
    steps = max(1, int(round(T / h)))
    return steps, T / steps


def _sample_indices(steps: int, samples: int) -> list[int]:
    stride = max(1, steps // max(1, samples - 1))
    idx = sorted(set(range(0, steps + 1, stride)) | {steps})
    return idx


def _prov(cfg: ExperimentConfig) -> list:
    return [cfg.config_hash, cfg.code_version, cfg.method.tableau, cfg.method.stage_tol]


def _setup(cfg: ExperimentConfig, seed: int):
    model = cfg.resolve_model()
    grid = cfg.make_grid()
    tab = cfg.make_tableau()
    U0 = build_initial_state(model, grid, cfg.run.initial, seed)
    return model, grid, tab, U0


def _coupled_policy(cfg: ExperimentConfig, model: PdeModel, U0: FourierState) -> TruncationPolicy:
    c_F = cfg.bea.c_F
    if cfg.bea.chi is None and c_F is None:
        c_F = measure_force_scale(model, [U0])
    return TruncationPolicy(
        mode="coupled",
        tau=cfg.bea.tau,
        delta=cfg.bea.delta,
        chi=cfg.bea.chi,
        c_F=c_F,
        n_max=cfg.bea.n_max,
        m_cap=float(cfg.model.band) ** model.q,
    )


def _out_dir(cfg: ExperimentConfig, out_dir) -> Path:
    return Path(out_dir) if out_dir is not None else Path(cfg.output.directory)


# ---------------------------------------------------------------------------
# drift study


def run_drift_study(
    cfg: ExperimentConfig, out_dir=None, seed: int = 0, threads: int = 1
) -> Path:
    """Time series of H and H-tilde drift for each step size (and (n, m) pair).

    Columns: h, t, H, H_tilde, H_drift, H_tilde_drift, n_used, m_used,
    noise_floor, status.  With the coupled policy, (n, m) follow the step
    size; otherwise the explicit bea.n x bea.m grid is swept.
    """
    model, grid, tab, U0 = _setup(cfg, seed)
    sscfg = cfg.method.stage_config()
    coupled = cfg.bea.policy == "coupled"
    policy = _coupled_policy(cfg, model, U0) if coupled else None

    if coupled:
        points = [(h, None, None) for h in cfg.run.h]
    else:
        points = [(h, n, m) for h in cfg.run.h for n in cfg.bea.n for m in cfg.bea.m]

    def one(point):
        h_req, n, m = point
        steps, h = _canonical_steps(cfg.run.T, h_req)
        if coupled:
            rp = resolve_policy(policy, h, tab, model)
            n, m = rp.n, rp.m
        rows: list[list] = []
        try:
            stepper = Stepper(model, grid, tab, h, m, sscfg)
            mf = ModifiedField(model, tab, m)
            U = model.project(U0, m)
            H0 = model.hamiltonian(U)
            Ht0 = modified_hamiltonian_eval(model, tab, U, h, n, m, mf=mf)
            floor = (mf.noise_floor(U, h, n) + 1e-15) * max(1.0, abs(H0))
            sample_at = set(_sample_indices(steps, cfg.run.samples))
            sampled = [(0, U)]
            for j in range(1, steps + 1):
                U = stepper.step(U)
                if j in sample_at:
                    sampled.append((j, U))
            for j, Uj in sampled:
                H = model.hamiltonian(Uj)
                Ht = modified_hamiltonian_eval(model, tab, Uj, h, n, m, mf=mf)
                rows.append(
                    [h, j * h, H, Ht, H - H0, Ht - Ht0, n, m, floor, "ok"]
                )
        except HambeaError as e:
            rows.append(
                [h, None, None, None, None, None, n, m, None, f"error:{type(e).__name__}"]
            )
        return rows

    results = _pmap(one, points, threads)
    prov = _prov(cfg)
    header = PROVENANCE_COLUMNS + [
        "h", "t", "H", "H_tilde", "H_drift", "H_tilde_drift",
        "n_used", "m_used", "noise_floor", "status",
    ]
    out_rows = [prov + row for rows in results for row in rows]
    return _write_csv(_out_dir(cfg, out_dir) / "drift.csv", header, out_rows)


# ---------------------------------------------------------------------------
# convergence study


def run_convergence_study(
    cfg: ExperimentConfig, out_dir=None, seed: int = 0, threads: int = 1
) -> Path:
    """Global error at T against a same-band fine-step reference.

    The reference is always the three-stage collocation method at
    h_ref = min(h)/20, so only the time discretization is being compared.
    Columns: h, error, slope_estimate, status.
    """
    model, grid, tab, U0 = _setup(cfg, seed)
    sscfg = cfg.method.stage_config()
    m = cfg.run.m
    U_start = model.project(U0, m)

    steps_ref, h_ref = _canonical_steps(cfg.run.T, min(cfg.run.h) / 20.0)
    ref_tab = make_tableau("gauss3")
    ref_stepper = Stepper(model, grid, ref_tab, h_ref, m, sscfg)
    U_ref = U_start
    for _ in range(steps_ref):
        U_ref = ref_stepper.step(U_ref)

    def one(h_req):
        steps, h = _canonical_steps(cfg.run.T, h_req)
        try:
            stepper = Stepper(model, grid, tab, h, m, sscfg)
            U = U_start
            for _ in range(steps):
                U = stepper.step(U)
            return [h, y_norm(U - U_ref, model.q), "ok"]
        except HambeaError as e:
            return [h, None, f"error:{type(e).__name__}"]

    results = _pmap(one, cfg.run.h, threads)
    hs = [r[0] for r in results if r[2] == "ok"]
    errs = [r[1] for r in results if r[2] == "ok"]
    slope = _loglog_slope(hs, errs)
    prov = _prov(cfg)
    header = PROVENANCE_COLUMNS + ["h", "error", "slope_estimate", "n_used", "m_used", "status"]
    out_rows = [prov + [r[0], r[1], slope, None, m, r[2]] for r in results]
    return _write_csv(_out_dir(cfg, out_dir) / "converge.csv", header, out_rows)


# ---------------------------------------------------------------------------
# projection scan


def run_projection_scan(
    cfg: ExperimentConfig, out_dir=None, seed: int = 0, threads: int = 1
) -> Path:
    """One-step error of the m-projected method against the full band.

    Runs at the first (largest) configured h; bea.m supplies the scan values
    in eigenvalue units.  Columns: m, error_Y1, bound_shape, fit_slope,
    status; bound_shape is m^(-ell) exp(-tau m^(1/q)) from the declared
    initial-condition regularity (empty unless the data is gevrey_decay),
    and fit_slope is the least-squares slope of log(error) against m^(1/q).
    """
    model, grid, tab, U0 = _setup(cfg, seed)
    sscfg = cfg.method.stage_config()
    h = cfg.run.h[0]
    scan = [m for m in cfg.bea.m if m is not None]
    if not scan:
        scan = [float(v) for v in range(1, cfg.model.band + 1)]
    full = Stepper(model, grid, tab, h, None, sscfg).step(U0)

    ic = cfg.run.initial
    gevrey = ic.kind == "gevrey_decay"

    def one(m):
        try:
            um = Stepper(model, grid, tab, h, m, sscfg).step(U0)
            err = y_norm(um - full, model.q)
            shape = (
                m ** (-ic.ell) * math.exp(-ic.tau * m ** (1.0 / model.q))
                if gevrey
                else None
            )
            return [m, err, shape, "ok"]
        except HambeaError as e:
            return [m, None, None, f"error:{type(e).__name__}"]

    results = _pmap(one, scan, threads)
    xs = [r[0] ** (1.0 / model.q) for r in results if r[3] == "ok" and r[1] and r[1] > 1e-15]
    ys = [math.log(r[1]) for r in results if r[3] == "ok" and r[1] and r[1] > 1e-15]
    fit = _fit_slope(xs, ys)
    prov = _prov(cfg)
    header = PROVENANCE_COLUMNS + ["h", "m", "error_Y1", "bound_shape", "fit_slope", "status"]
    out_rows = [prov + [h, r[0], r[1], r[2], fit, r[3]] for r in results]
    return _write_csv(_out_dir(cfg, out_dir) / "projscan.csv", header, out_rows)


# ---------------------------------------------------------------------------
# backward-error verification


def run_bea_verify(
    cfg: ExperimentConfig, out_dir=None, seed: int = 0, threads: int = 1
) -> list[Path]:
    """Four tables probing the modified-equation claims.

    The first three use only the first bea.m radius; bea_expfit.csv takes
    its radius from the coupled policy.

    - bea_embedding.csv: one-step distance between the method and the flow of
      the truncated modified field, per (n, h), with a per-n slope estimate;
    - bea_hclose.csv: |H-tilde - H| at the initial state per h (slope is the
      method order);
    - bea_gradcons.csv: residual of F-tilde = J grad H-tilde per n at the
      largest h;
    - bea_expfit.csv: with the coupled policy, per-step H-tilde drift versus
      h^(-1/(1+q)) with a log-linear fit and its R^2 (rows below the
      measured roundoff floor are excluded from the fit, flag in_fit).
    """
    model, grid, tab, U0 = _setup(cfg, seed)
    sscfg = cfg.method.stage_config()
    p = tab.order
    m0 = cfg.bea.m[0]
    base = model.project(U0, m0)
    prov = _prov(cfg)
    out = _out_dir(cfg, out_dir)
    paths: list[Path] = []

    # -- embedding orders
    mfs = {n: ModifiedField(model, tab, m0) for n in cfg.bea.n}

    res = []
    for n in cfg.bea.n:
        try:  # every h of one n in one lockstep integration
            phis = modified_flow(model, tab, base, cfg.run.h, n, m0, mf=mfs[n])
        except HambeaError as e:
            phis = [e] * len(cfg.run.h)
        for h, phi in zip(cfg.run.h, phis):
            try:
                psi = Stepper(model, grid, tab, h, m0, sscfg).step(base)
                if isinstance(phi, HambeaError):
                    raise phi
                res.append([n, h, y_norm(psi - phi, model.q), "ok"])
            except HambeaError as e:
                res.append([n, h, None, f"error:{type(e).__name__}"])
    slopes = {}
    for n in cfg.bea.n:
        hs = [r[1] for r in res if r[0] == n and r[3] == "ok" and r[2]]
        es = [r[2] for r in res if r[0] == n and r[3] == "ok" and r[2]]
        slopes[n] = _loglog_slope(hs, es)
    header = PROVENANCE_COLUMNS + ["n", "h", "error", "slope_estimate", "m_used", "status"]
    rows = [prov + [r[0], r[1], r[2], slopes[r[0]], m0, r[3]] for r in res]
    paths.append(_write_csv(out / "bea_embedding.csv", header, rows))

    # -- H-tilde vs H closeness (terms are h-independent, computed once)
    n_close = max([n for n in cfg.bea.n if n > p], default=p + 1)
    mf_close = ModifiedField(model, tab, m0)
    H_base = model.hamiltonian(base)
    terms = modified_hamiltonian_terms(model, tab, base, n_close, m0, mf=mf_close)
    rows = []
    hs, diffs = [], []
    for h in cfg.run.h:
        Ht = H_base + sum(h ** (j - 1) * hj for j, hj in terms.items())
        rows.append([n_close, h, H_base, Ht, abs(Ht - H_base)])
        if abs(Ht - H_base) > 1e-15:
            hs.append(h)
            diffs.append(abs(Ht - H_base))
    slope = _loglog_slope(hs, diffs)
    header = PROVENANCE_COLUMNS + [
        "n", "h", "H", "H_tilde", "abs_diff", "slope_estimate", "m_used", "status",
    ]
    rows = [prov + r + [slope, m0, "ok"] for r in rows]
    paths.append(_write_csv(out / "bea_hclose.csv", header, rows))

    # -- gradient consistency
    h_gc = cfg.run.h[0]

    def grad_point(n):
        try:
            r = gradient_consistency(
                model, tab, base, h_gc, n, m0, n_dirs=6, seed=seed, mf=mfs[n]
            )
            return [n, h_gc, r, "ok"]
        except HambeaError as e:
            return [n, h_gc, None, f"error:{type(e).__name__}"]

    res = _pmap(grad_point, cfg.bea.n, threads)
    header = PROVENANCE_COLUMNS + ["n", "h", "residual", "m_used", "status"]
    rows = [prov + r[:3] + [m0, r[3]] for r in res]
    paths.append(_write_csv(out / "bea_gradcons.csv", header, rows))

    # -- exponential drift fit (coupled policy only)
    header = PROVENANCE_COLUMNS + [
        "h", "x_abscissa", "per_step_drift", "noise_floor", "in_fit",
        "fit_slope", "fit_r2", "n_used", "m_used", "status",
    ]
    rows = []
    if cfg.bea.policy == "coupled":
        policy = _coupled_policy(cfg, model, U0)

        def drift_point(h_req):
            steps, h = _canonical_steps(cfg.run.T, h_req)
            rp = resolve_policy(policy, h, tab, model)
            n, m = rp.n, rp.m
            try:
                stepper = Stepper(model, grid, tab, h, m, sscfg)
                mf = ModifiedField(model, tab, m)
                U = model.project(U0, m)
                Ht0 = modified_hamiltonian_eval(model, tab, U, h, n, m, mf=mf)
                floor = (mf.noise_floor(U, h, n) + 1e-15) * max(1.0, abs(Ht0))
                sample_at = _sample_indices(steps, min(cfg.run.samples, 9))
                per_step = 0.0
                for j in range(1, steps + 1):
                    U = stepper.step(U)
                    if j in sample_at:
                        Ht = modified_hamiltonian_eval(model, tab, U, h, n, m, mf=mf)
                        per_step = max(per_step, abs(Ht - Ht0) / j)
                x = h ** (-1.0 / (1.0 + model.q))
                return [h, x, per_step, floor, n, m, "ok"]
            except HambeaError as e:
                return [h, None, None, None, n, m, f"error:{type(e).__name__}"]

        res = _pmap(drift_point, cfg.run.h, threads)
        fit_pts = [
            (r[1], math.log(r[2]))
            for r in res
            if r[6] == "ok" and r[2] is not None and r[2] > 5.0 * r[3]
        ]
        fit_slope = fit_r2 = None
        if len(fit_pts) >= 3:
            xs = np.array([p_[0] for p_ in fit_pts])
            ys = np.array([p_[1] for p_ in fit_pts])
            coef = np.polyfit(xs, ys, 1)
            pred = np.polyval(coef, xs)
            ss_res = float(np.sum((ys - pred) ** 2))
            ss_tot = float(np.sum((ys - np.mean(ys)) ** 2))
            fit_slope = float(coef[0])
            fit_r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0
        for r in res:
            in_fit = (
                r[6] == "ok" and r[2] is not None and r[2] > 5.0 * r[3] and len(fit_pts) >= 3
            )
            rows.append(
                prov + [r[0], r[1], r[2], r[3], in_fit, fit_slope, fit_r2, r[4], r[5], r[6]]
            )
    paths.append(_write_csv(out / "bea_expfit.csv", header, rows))
    return paths


# ---------------------------------------------------------------------------
# plain integration (CLI `integrate`)


def run_integrate(cfg: ExperimentConfig, out_dir=None, seed: int = 0, threads: int = 1) -> Path:
    """Single trajectory at the largest configured h; energy time series."""
    model, grid, tab, U0 = _setup(cfg, seed)
    sscfg = cfg.method.stage_config()
    m = cfg.run.m
    steps, h = _canonical_steps(cfg.run.T, cfg.run.h[0])
    stepper = Stepper(model, grid, tab, h, m, sscfg)
    U = model.project(U0, m)
    H0 = model.hamiltonian(U)
    sample_at = set(_sample_indices(steps, cfg.run.samples))
    rows = [[0.0, H0, 0.0, y_norm(U, model.q), "ok"]]
    try:
        for j in range(1, steps + 1):
            U = stepper.step(U)
            if j in sample_at:
                H = model.hamiltonian(U)
                rows.append([j * h, H, H - H0, y_norm(U, model.q), "ok"])
    except HambeaError as e:
        rows.append([None, None, None, None, f"error:{type(e).__name__}"])
    prov = _prov(cfg)
    header = PROVENANCE_COLUMNS + ["t", "H", "H_drift", "y1_norm", "status"]
    return _write_csv(
        _out_dir(cfg, out_dir) / "trajectory.csv", header, [prov + r for r in rows]
    )
