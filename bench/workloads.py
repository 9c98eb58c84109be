"""Benchmark workloads: generated configs, exact step counts and output checks.

Each workload is one hambea study on a config generated from the seed; the
seed goes into ``run.initial.seed`` and into the study's ``seed`` argument,
so the program sees only the generated inputs.  Why each workload exists,
and which layers it stresses, is in NOTES.md.

An operation is one parameter point of a study (one CSV row group).  A
check returns (failed, problems): the points whose status is ``error:*``
and the correctness violations found in the CSVs.
"""

from __future__ import annotations

import csv
import math
from pathlib import Path

import numpy as np

NLS = {"name": "nls", "params": {"sigma": 1, "lam": 1.0}}
SINE_GORDON = {"name": "wave", "params": {"potential": {"kind": "sine_gordon", "gamma": 1.0}}}
MIDPOINT_ORDER = 2


def _gevrey(seed: int, tau: float) -> dict:
    return {"kind": "gevrey_decay", "tau": tau, "ell": 2.0, "amplitude": 0.4, "seed": seed}


def traj_nls64(seed: int, smoke: bool) -> dict:
    return {
        "model": {**NLS, "band": 16 if smoke else 64},
        "method": {"tableau": "gauss2", "stage_tol": 1e-12},
        "run": {"h": [0.005], "T": 0.5 if smoke else 10.0, "initial": _gevrey(seed, 0.5),
                "samples": 33},
    }


# bea-nls8 and drift-wave-newton run to T=0.5 with two samples (criterion 12
# and the ROADMAP sizes use T=1 and 6 or 5 samples), so that one study takes
# about 2.5 s and a run holds about ten repetitions: on a shared 2-core host a
# median over three 8 s repetitions moved by 20% between seeds.


def bea_nls8(seed: int, smoke: bool) -> dict:
    # criterion 12's model, method, step sizes and coupled policy
    return {
        "model": {**NLS, "band": 8},
        "method": {"tableau": "midpoint", "stage_tol": 1e-12},
        "run": {"h": [0.1, 0.0707, 0.05, 0.0354, 0.025], "T": 0.2 if smoke else 0.5,
                "initial": _gevrey(seed, 1.0), "samples": 2},
        "bea": {"policy": "coupled", "n": [3], "tau": 1.0, "chi": 200.0, "n_max": 5, "q": 2},
    }


def drift_wave_newton(seed: int, smoke: bool) -> dict:
    return {
        "model": {**SINE_GORDON, "band": 4 if smoke else 8},
        "method": {"tableau": "gauss2", "stage_tol": 1e-12, "solver": "newton_on_modes"},
        "run": {"h": [0.1, 0.05], "T": 0.2 if smoke else 0.5, "initial": _gevrey(seed, 0.5),
                "samples": 2},
        "bea": {"policy": "explicit", "n": [5]},
    }


def _steps(T: float, h: float) -> int:
    # the harness's canonical step count for a run that ends exactly at T
    return max(1, int(round(T / h)))


def _rows(path: Path) -> list[dict]:
    with open(path, newline="", encoding="utf-8") as f:
        return list(csv.DictReader(f))


def _errors(rows: list[dict]) -> int:
    return sum(r["status"].startswith("error:") for r in rows)


def _f(value: str) -> float:
    return float(value) if value != "" else math.nan


def check_integrate(cfg: dict, out: Path) -> tuple[int, list[str]]:
    rows = _rows(out / "trajectory.csv")
    problems = []
    if any(r["status"] != "ok" for r in rows):
        problems.append("trajectory has rows that are not ok")
    else:
        H0 = _f(rows[0]["H"])
        drift = max(abs(_f(r["H_drift"])) for r in rows) / abs(H0)
        if not drift <= 1e-9:
            problems.append(f"relative energy drift {drift:.3e} > 1e-9")
    return int(_errors(rows) > 0), problems


def check_bea(cfg: dict, out: Path) -> tuple[int, list[str]]:
    embedding = _rows(out / "bea_embedding.csv")
    hclose = _rows(out / "bea_hclose.csv")
    gradcons = _rows(out / "bea_gradcons.csv")
    expfit = _rows(out / "bea_expfit.csv")
    failed = sum(_errors(t) for t in (embedding, hclose, gradcons, expfit))
    if failed:
        return failed, ["rows with error status"]
    problems = []
    n_max = cfg["bea"]["n_max"]
    for r in embedding:
        n = int(r["n"])
        if not abs(_f(r["slope_estimate"]) - (n + 1)) <= 0.5:
            problems.append(f"embedding slope {r['slope_estimate']} is not about n+1={n + 1}")
            break
    worst = max(_f(r["residual"]) for r in gradcons)
    if not worst <= 1e-5:
        problems.append(f"gradient-consistency residual {worst:.3e} > 1e-5")
    if not all(MIDPOINT_ORDER + 1 <= int(r["n_used"]) <= n_max for r in expfit):
        problems.append("n_used outside [p+1, n_max]")
    problems += _check_expfit(expfit)
    return failed, problems


def expfit_points(out: Path) -> int:
    """Rows of bea_expfit.csv that entered the exponential fit."""
    return sum(r["in_fit"] == "1" for r in _rows(out / "bea_expfit.csv"))


def _check_expfit(rows: list[dict]) -> list[str]:
    """Criterion 12 on the fit the study reports.

    The study fits log(per-step drift) against h^(-1/(1+q)) over the rows whose
    drift exceeds five times the noise floor, and only when there are at least
    three.  Whether three rows clear the floor depends on the initial data, so
    the check verifies the rule and, where a fit was made, slope < 0 and
    R^2 >= 0.9 with the reported numbers reproduced from the rows.
    """
    above = [r for r in rows if _f(r["per_step_drift"]) > 5.0 * _f(r["noise_floor"])]
    fitted = len(above) >= 3
    if [r["in_fit"] == "1" for r in rows] != [fitted and r in above for r in rows]:
        return ["in_fit flags disagree with the five-times-noise-floor rule"]
    if not fitted:
        if any(r["fit_slope"] != "" or r["fit_r2"] != "" for r in rows):
            return ["a fit is reported with fewer than three points above the floor"]
        return []
    xs = np.array([_f(r["x_abscissa"]) for r in above])
    ys = np.log([_f(r["per_step_drift"]) for r in above])
    coef = np.polyfit(xs, ys, 1)
    ss_res = float(np.sum((ys - np.polyval(coef, xs)) ** 2))
    r2 = 1.0 - ss_res / float(np.sum((ys - ys.mean()) ** 2))
    slope, r2_rep = _f(rows[0]["fit_slope"]), _f(rows[0]["fit_r2"])
    problems = []
    if not (abs(slope - coef[0]) <= 1e-9 * abs(coef[0]) and abs(r2_rep - r2) <= 1e-9):
        problems.append("reported fit does not match the in-fit rows")
    if not (slope < 0.0 and r2_rep >= 0.9):
        problems.append(f"exponential fit slope {slope:.3f} (< 0) R^2 {r2_rep:.4f} (>= 0.9)")
    return problems


def check_drift(cfg: dict, out: Path) -> tuple[int, list[str]]:
    rows = _rows(out / "drift.csv")
    groups: dict[tuple, list[dict]] = {}
    for r in rows:
        groups.setdefault((r["h"], r["n_used"], r["m_used"]), []).append(r)
    failed = sum(_errors(g) > 0 for g in groups.values())
    problems = []
    if any(r["status"] != "ok" for r in rows):
        problems.append("drift has rows that are not ok")
    else:
        for (h, _n, _m), g in groups.items():
            dH = max(abs(_f(r["H_drift"])) for r in g)
            dHt = max(abs(_f(r["H_tilde_drift"])) for r in g)
            if not dHt < dH:
                problems.append(f"h={h}: max |H-tilde drift| {dHt:.2e} >= max |H drift| {dH:.2e}")
    return failed, problems


def points_integrate(cfg: dict) -> int:
    return 1


def points_bea(cfg: dict) -> int:
    # embedding (n, h) rows, H-tilde closeness and expfit rows per h, gradcons per n
    n, h = len(cfg["bea"]["n"]), len(cfg["run"]["h"])
    return n * h + 2 * h + n


def points_drift(cfg: dict) -> int:
    bea = cfg["bea"]
    return len(cfg["run"]["h"]) * len(bea["n"]) * len(bea.get("m", [None]))


def steps_integrate(cfg: dict) -> int:
    return _steps(cfg["run"]["T"], cfg["run"]["h"][0])


def steps_bea(cfg: dict) -> int:
    # one step per embedding point, plus the coupled-policy drift runs
    run = cfg["run"]
    return len(cfg["bea"]["n"]) * len(run["h"]) + sum(_steps(run["T"], h) for h in run["h"])


def steps_drift(cfg: dict) -> int:
    run = cfg["run"]
    per_h = points_drift(cfg) // len(run["h"])
    return per_h * sum(_steps(run["T"], h) for h in run["h"])


# name -> (config builder, study, points, Stepper.step calls, output check)
WORKLOADS = {
    "traj-nls64": (traj_nls64, "integrate", points_integrate, steps_integrate, check_integrate),
    "bea-nls8": (bea_nls8, "bea", points_bea, steps_bea, check_bea),
    "drift-wave-newton": (drift_wave_newton, "drift", points_drift, steps_drift, check_drift),
}
