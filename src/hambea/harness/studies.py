"""Experiment drivers: drift, convergence, projection-decay, and
backward-error-analysis verification studies, all emitting RFC-4180 CSVs.

Every row carries the provenance prefix (config hash, code version, tableau
id, stage tolerance) and the (n, m) actually used, so a CSV is interpretable
on its own.  Floats are written with 17 significant digits and runs are
deterministic: identical config and seed give byte-identical files.

One runner, _point_rows, computes every table from its parameter points, as a
parallel map when threads > 1, gathered in point order.  A point yields its
rows; a numerical failure (HambeaError) ends it with an error row instead of
aborting the study.  A result several points share (bea's lockstep flow of one
n, the H-tilde closeness terms) is computed once, and its failure becomes the
error row of each point that uses it.  Study-level references (converge's
fine-step trajectory, projscan's full-band step) run outside the runner, so
their failure stops the study.  Tables are written once all are computed.
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
from ..rk import ButcherTableau, Stepper, make_tableau
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


def _write_tables(cfg: ExperimentConfig, out_dir, tables: dict) -> list[Path]:
    """Write {name: (header, rows)} as name.csv with the provenance prefix.

    Called once a study has computed all of its tables, so a study that stops
    leaves none of them behind.
    """
    out = Path(out_dir) if out_dir is not None else Path(cfg.output.directory)
    out.mkdir(parents=True, exist_ok=True)
    prov = [cfg.config_hash, cfg.code_version, cfg.method.tableau, cfg.method.stage_tol]
    paths = []
    for name, (header, rows) in tables.items():
        paths.append(out / f"{name}.csv")
        with open(paths[-1], "w", newline="", encoding="utf-8") as f:
            w = csv.writer(f)
            w.writerow(PROVENANCE_COLUMNS + header)
            w.writerows([_fmt(v) for v in prov + row] for row in rows)
    return paths


def _point_rows(rows_of, points: list, error_row, threads: int) -> list[list]:
    """The rows of every point, in point order.

    rows_of(point) yields that point's rows.  A HambeaError appends
    error_row(point, "error:<Type>") after the rows the point already yielded.
    """

    def one(point) -> list[list]:
        rows = []
        try:
            for row in rows_of(point):
                rows.append(row)
        except HambeaError as e:
            rows.append(error_row(point, f"error:{type(e).__name__}"))
        return rows

    if threads <= 1 or len(points) <= 1:
        return [row for point in points for row in one(point)]
    with ThreadPoolExecutor(max_workers=threads) as ex:
        return [row for rows in ex.map(one, points) for row in rows]


def _shared(compute, keys):
    """compute(key) once per key; the returned lookup raises again the HambeaError
    a key gave, so it becomes the error row of every point that uses that key."""
    results = {}
    for key in keys:
        try:
            results[key] = compute(key)
        except HambeaError as e:
            results[key] = e

    def lookup(key):
        if isinstance(results[key], HambeaError):
            raise results[key]
        return results[key]

    return lookup


def _trajectory(stepper: Stepper, U: FourierState, steps: int, samples: int):
    """Yield (j, Psi^j U) for j = 0, every multiple of steps // (samples - 1) and steps."""
    stride = max(1, steps // max(1, samples - 1))
    yield 0, U
    for j in range(1, steps + 1):
        U = stepper.step(U)
        if j % stride == 0 or j == steps:
            yield j, U


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


def _setup(cfg: ExperimentConfig, seed: int):
    model = cfg.resolve_model()
    grid = cfg.make_grid()
    tab = cfg.make_tableau()
    U0 = build_initial_state(model, grid, cfg.run.initial, seed)
    return model, grid, tab, U0, cfg.method.stage_config()


def _coupled_points(
    cfg: ExperimentConfig, model: PdeModel, tab: ButcherTableau, U0: FourierState
) -> list:
    """(steps, h, n, m) per configured step size, with (n, m) from the coupled policy."""
    c_F = cfg.bea.c_F
    if cfg.bea.chi is None and c_F is None:
        c_F = measure_force_scale(model, [U0])
    policy = TruncationPolicy(
        mode="coupled",
        tau=cfg.bea.tau,
        delta=cfg.bea.delta,
        chi=cfg.bea.chi,
        c_F=c_F,
        n_max=cfg.bea.n_max,
        m_cap=float(cfg.model.band) ** model.q,
    )
    points = []
    for h_req in cfg.run.h:
        steps, h = _canonical_steps(cfg.run.T, h_req)
        rp = resolve_policy(policy, h, tab, model)
        points.append((steps, h, rp.n, rp.m))
    return points


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
    model, grid, tab, U0, sscfg = _setup(cfg, seed)
    if cfg.bea.policy == "coupled":
        points = _coupled_points(cfg, model, tab, U0)
    else:
        points = [
            (*_canonical_steps(cfg.run.T, h), n, m)
            for h in cfg.run.h for n in cfg.bea.n for m in cfg.bea.m
        ]

    def rows_of(point):
        steps, h, n, m = point
        stepper = Stepper(model, grid, tab, h, m, sscfg)
        mf = ModifiedField(model, tab, m)
        U = model.project(U0, m)
        H0 = model.hamiltonian(U)
        Ht0 = modified_hamiltonian_eval(model, tab, U, h, n, m, mf=mf)
        floor = (mf.noise_floor(U, h, n) + 1e-15) * max(1.0, abs(H0))
        # the whole trajectory first, then H-tilde at its samples
        for j, Uj in list(_trajectory(stepper, U, steps, cfg.run.samples)):
            H = model.hamiltonian(Uj)
            Ht = modified_hamiltonian_eval(model, tab, Uj, h, n, m, mf=mf)
            yield [h, j * h, H, Ht, H - H0, Ht - Ht0, n, m, floor, "ok"]

    def error_row(point, status):
        return [point[1]] + [None] * 5 + [*point[2:], None, status]

    header = [
        "h", "t", "H", "H_tilde", "H_drift", "H_tilde_drift",
        "n_used", "m_used", "noise_floor", "status",
    ]
    rows = _point_rows(rows_of, points, error_row, threads)
    return _write_tables(cfg, out_dir, {"drift": (header, rows)})[0]


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
    model, grid, tab, U0, sscfg = _setup(cfg, seed)
    m = cfg.run.m
    U_start = model.project(U0, m)

    def final(stepper: Stepper, steps: int) -> FourierState:
        return list(_trajectory(stepper, U_start, steps, 2))[-1][1]

    steps_ref, h_ref = _canonical_steps(cfg.run.T, min(cfg.run.h) / 20.0)
    U_ref = final(Stepper(model, grid, make_tableau("gauss3"), h_ref, m, sscfg), steps_ref)

    def rows_of(point):
        steps, h = point
        U = final(Stepper(model, grid, tab, h, m, sscfg), steps)
        yield [h, y_norm(U - U_ref, model.q), "ok"]

    points = [_canonical_steps(cfg.run.T, h) for h in cfg.run.h]
    res = _point_rows(rows_of, points, lambda p, status: [p[1], None, status], threads)
    ok = [r for r in res if r[2] == "ok"]
    slope = _loglog_slope([r[0] for r in ok], [r[1] for r in ok])
    header = ["h", "error", "slope_estimate", "n_used", "m_used", "status"]
    rows = [[r[0], r[1], slope, None, m, r[2]] for r in res]
    return _write_tables(cfg, out_dir, {"converge": (header, rows)})[0]


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
    model, grid, tab, U0, sscfg = _setup(cfg, seed)
    h = cfg.run.h[0]
    scan = [m for m in cfg.bea.m if m is not None]
    if not scan:
        scan = [float(v) for v in range(1, cfg.model.band + 1)]
    full = Stepper(model, grid, tab, h, None, sscfg).step(U0)
    ic = cfg.run.initial

    def rows_of(m):
        err = y_norm(Stepper(model, grid, tab, h, m, sscfg).step(U0) - full, model.q)
        shape = None
        if ic.kind == "gevrey_decay":
            shape = m ** (-ic.ell) * math.exp(-ic.tau * m ** (1.0 / model.q))
        yield [m, err, shape, "ok"]

    res = _point_rows(rows_of, scan, lambda m, status: [m, None, None, status], threads)
    fit_pts = [r for r in res if r[3] == "ok" and r[1] and r[1] > 1e-15]
    fit = _fit_slope([r[0] ** (1.0 / model.q) for r in fit_pts], [math.log(r[1]) for r in fit_pts])
    header = ["h", "m", "error_Y1", "bound_shape", "fit_slope", "status"]
    rows = [[h, r[0], r[1], r[2], fit, r[3]] for r in res]
    return _write_tables(cfg, out_dir, {"projscan": (header, rows)})[0]


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
    model, grid, tab, U0, sscfg = _setup(cfg, seed)
    p = tab.order
    m0 = cfg.bea.m[0]
    base = model.project(U0, m0)
    tables = {}

    # -- embedding orders: every h of one n in one lockstep integration
    mfs = {n: ModifiedField(model, tab, m0) for n in cfg.bea.n}

    def flow(n):  # h -> the flow over h, or the error of that lockstep member
        return dict(zip(cfg.run.h, modified_flow(model, tab, base, cfg.run.h, n, m0, mf=mfs[n])))

    flows = _shared(flow, cfg.bea.n)

    def embedding_rows(point):
        n, h = point
        psi = Stepper(model, grid, tab, h, m0, sscfg).step(base)
        phi = flows(n)[h]
        if isinstance(phi, HambeaError):  # this member's own failure in the lockstep
            raise phi
        yield [n, h, y_norm(psi - phi, model.q), "ok"]

    points = [(n, h) for n in cfg.bea.n for h in cfg.run.h]
    res = _point_rows(embedding_rows, points, lambda pt, status: [*pt, None, status], threads)
    slopes = {}
    for n in cfg.bea.n:
        ok = [r for r in res if r[0] == n and r[3] == "ok" and r[2]]
        slopes[n] = _loglog_slope([r[1] for r in ok], [r[2] for r in ok])
    header = ["n", "h", "error", "slope_estimate", "m_used", "status"]
    tables["bea_embedding"] = header, [[*r[:3], slopes[r[0]], m0, r[3]] for r in res]

    # -- H-tilde vs H closeness (terms are h-independent, computed once)
    n_close = max([n for n in cfg.bea.n if n > p], default=p + 1)
    H_base = model.hamiltonian(base)
    terms = _shared(
        lambda n: modified_hamiltonian_terms(
            model, tab, base, n, m0, mf=ModifiedField(model, tab, m0)
        ),
        [n_close],
    )

    def hclose_rows(h):
        Ht = H_base + sum(h ** (j - 1) * hj for j, hj in terms(n_close).items())
        yield [n_close, h, H_base, Ht, abs(Ht - H_base), "ok"]

    res = _point_rows(
        hclose_rows, cfg.run.h, lambda h, status: [n_close, h, H_base, None, None, status], threads
    )
    close = [r for r in res if r[5] == "ok" and r[4] > 1e-15]
    slope = _loglog_slope([r[1] for r in close], [r[4] for r in close])
    header = ["n", "h", "H", "H_tilde", "abs_diff", "slope_estimate", "m_used", "status"]
    tables["bea_hclose"] = header, [[*r[:5], slope, m0, r[5]] for r in res]

    # -- gradient consistency
    h_gc = cfg.run.h[0]

    def grad_rows(n):
        r = gradient_consistency(model, tab, base, h_gc, n, m0, n_dirs=6, seed=seed, mf=mfs[n])
        yield [n, h_gc, r, m0, "ok"]

    res = _point_rows(grad_rows, cfg.bea.n, lambda n, status: [n, h_gc, None, m0, status], threads)
    tables["bea_gradcons"] = ["n", "h", "residual", "m_used", "status"], res

    # -- exponential drift fit (coupled policy only)
    def drift_rows(point):
        steps, h, n, m = point
        stepper = Stepper(model, grid, tab, h, m, sscfg)
        mf = ModifiedField(model, tab, m)
        traj = _trajectory(stepper, model.project(U0, m), steps, min(cfg.run.samples, 9))
        _, U = next(traj)
        Ht0 = modified_hamiltonian_eval(model, tab, U, h, n, m, mf=mf)
        floor = (mf.noise_floor(U, h, n) + 1e-15) * max(1.0, abs(Ht0))
        drifts = [abs(modified_hamiltonian_eval(model, tab, Uj, h, n, m, mf=mf) - Ht0) / j
                  for j, Uj in traj]
        per_step = max([0.0] + drifts)
        yield [h, h ** (-1.0 / (1.0 + model.q)), per_step, floor, n, m, "ok"]

    points = _coupled_points(cfg, model, tab, U0) if cfg.bea.policy == "coupled" else []
    res = _point_rows(
        drift_rows, points, lambda pt, status: [pt[1], None, None, None, *pt[2:], status], threads
    )
    above = [r[6] == "ok" and r[2] is not None and r[2] > 5.0 * r[3] for r in res]
    fit_pts = [(r[1], math.log(r[2])) for r, a in zip(res, above) if a]
    fit = len(fit_pts) >= 3
    fit_slope = fit_r2 = None
    if fit:
        xs = np.array([p_[0] for p_ in fit_pts])
        ys = np.array([p_[1] for p_ in fit_pts])
        coef = np.polyfit(xs, ys, 1)
        pred = np.polyval(coef, xs)
        ss_res = float(np.sum((ys - pred) ** 2))
        ss_tot = float(np.sum((ys - np.mean(ys)) ** 2))
        fit_slope = float(coef[0])
        fit_r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0
    rows = [[*r[:4], a and fit, fit_slope, fit_r2, *r[4:]] for r, a in zip(res, above)]
    header = [
        "h", "x_abscissa", "per_step_drift", "noise_floor", "in_fit",
        "fit_slope", "fit_r2", "n_used", "m_used", "status",
    ]
    tables["bea_expfit"] = header, rows
    return _write_tables(cfg, out_dir, tables)


# ---------------------------------------------------------------------------
# plain integration (CLI `integrate`)


def run_integrate(cfg: ExperimentConfig, out_dir=None, seed: int = 0, threads: int = 1) -> Path:
    """Single trajectory at the largest configured h; energy time series."""
    model, grid, tab, U0, sscfg = _setup(cfg, seed)
    m = cfg.run.m

    def rows_of(point):
        steps, h = point
        stepper = Stepper(model, grid, tab, h, m, sscfg)
        for j, U in _trajectory(stepper, model.project(U0, m), steps, cfg.run.samples):
            H = model.hamiltonian(U)
            H0 = H if j == 0 else H0
            yield [j * h, H, H - H0, y_norm(U, model.q), "ok"]

    points = [_canonical_steps(cfg.run.T, cfg.run.h[0])]
    rows = _point_rows(rows_of, points, lambda _p, status: [None] * 4 + [status], threads)
    header = ["t", "H", "H_drift", "y1_norm", "status"]
    return _write_tables(cfg, out_dir, {"trajectory": (header, rows)})[0]
