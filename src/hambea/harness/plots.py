"""Emission of self-contained matplotlib scripts for the study CSVs.

Each known CSV gets one deterministic script (plot_<figure>.py) that reads the
CSV by relative path at run time and saves a PNG next to it.  The scripts
import only the standard library and matplotlib, so they keep working when
copied out of the tree together with their CSV.  An empty CSV still yields a
script, with a warning comment at the top and a graceful exit.  Matplotlib is
needed only when there are rows to draw: a script whose CSV has no data rows
prints "nothing to plot" and exits before importing it.
"""

from __future__ import annotations

import csv
import textwrap
from pathlib import Path

from ..rk import make_tableau

_PRELUDE = """\
#!/usr/bin/env python3
{warning}# Generated plot script; expects {csv_name} in its own directory.
import csv
import math
from pathlib import Path

HERE = Path(__file__).resolve().parent
with open(HERE / {csv_name!r}, newline="", encoding="utf-8") as f:
    rows = [r for r in csv.DictReader(f) if r.get("status", "ok") == "ok"]
if not rows:
    print("no data rows in {csv_name}; nothing to plot")
    raise SystemExit(0)

import matplotlib

matplotlib.use("Agg")
import matplotlib.pyplot as plt


def col(name, rows=rows):
    return [float(r[name]) for r in rows if r[name] != ""]
"""


def _prelude(csv_name: str, empty: bool) -> str:
    warning = "# WARNING: the source CSV had no data rows when this script was generated.\n" if empty else ""
    return _PRELUDE.format(csv_name=csv_name, warning=warning)


def _read_rows(path: Path) -> list[dict]:
    with open(path, newline="", encoding="utf-8") as f:
        return list(csv.DictReader(f))


def _method_order(rows: list[dict]) -> int:
    return make_tableau(rows[0]["tableau"]).order if rows else 2


def _script_trajectory(rows: list[dict], csv_name: str) -> str:
    body = textwrap.dedent(
        """\
        ts = col("t")
        drift = [abs(y) + 1e-300 for y in col("H_drift")]
        plt.figure(figsize=(7, 4.5))
        plt.semilogy(ts, drift, "-", label="|H drift|")
        plt.xlabel("t")
        plt.ylabel("|H(U(t)) - H(U(0))|")
        plt.legend(fontsize=8)
        plt.tight_layout()
        plt.savefig(HERE / "trajectory_energy.png", dpi=150)
        """
    )
    return _prelude(csv_name, not rows) + body


def _script_drift_vs_time(rows: list[dict], csv_name: str) -> str:
    body = textwrap.dedent(
        """\
        groups = {}
        for r in rows:
            key = (r["h"], r["n_used"], r["m_used"])
            groups.setdefault(key, []).append(r)
        plt.figure(figsize=(7, 4.5))
        for (h, n, m), g in sorted(groups.items()):
            t = [float(r["t"]) for r in g]
            hd = [abs(float(r["H_drift"])) + 1e-300 for r in g]
            htd = [abs(float(r["H_tilde_drift"])) + 1e-300 for r in g]
            plt.semilogy(t, hd, "-", label=f"|H drift| h={h}")
            plt.semilogy(t, htd, "--", label=f"|H~ drift| h={h}, n={n}")
        plt.xlabel("t")
        plt.ylabel("energy drift")
        plt.legend(fontsize=7)
        plt.tight_layout()
        plt.savefig(HERE / "drift_vs_time.png", dpi=150)
        """
    )
    return _prelude(csv_name, not rows) + body


def _script_drift_slopes(rows: list[dict], csv_name: str) -> str:
    p = _method_order(rows)
    ns = sorted({r["n_used"] for r in rows if r.get("n_used")})
    n_guide = int(ns[-1]) + 1 if ns else p + 1
    body = textwrap.dedent(
        f"""\
        peaks = {{}}
        for r in rows:
            key = (float(r["h"]), r["n_used"])
            hd = abs(float(r["H_drift"]))
            htd = abs(float(r["H_tilde_drift"]))
            cur = peaks.setdefault(key, [0.0, 0.0])
            cur[0] = max(cur[0], hd)
            cur[1] = max(cur[1], htd)
        hs = sorted({{k[0] for k in peaks}})
        plt.figure(figsize=(6, 4.5))
        for idx, label, slope in ((0, "max |H drift|", {p}), (1, "max |H~ drift|", {n_guide})):
            ys = [max(peaks[(h, n)][idx] for n in {{k[1] for k in peaks if k[0] == h}}) for h in hs]
            ys = [y + 1e-300 for y in ys]
            plt.loglog(hs, ys, "o-", label=label)
            anchor = ys[-1]
            plt.loglog(hs, [anchor * (h / hs[-1]) ** slope for h in hs], "k--", lw=0.8,
                       label=f"slope {{slope}}")
        plt.xlabel("h")
        plt.ylabel("max drift over [0, T]")
        plt.legend(fontsize=8)
        plt.tight_layout()
        plt.savefig(HERE / "drift_slopes.png", dpi=150)
        """
    )
    return _prelude(csv_name, not rows) + body


def _script_convergence(rows: list[dict], csv_name: str) -> str:
    p = _method_order(rows)
    body = textwrap.dedent(
        f"""\
        hs = col("h")
        ys = col("error")
        plt.figure(figsize=(6, 4.5))
        plt.loglog(hs, ys, "o-", label="global error at T")
        if ys:
            anchor = ys[hs.index(max(hs))]
            ref = sorted(hs)
            plt.loglog(ref, [anchor * (h / max(hs)) ** {p} for h in ref], "k--", lw=0.8,
                       label="slope {p}")
        plt.xlabel("h")
        plt.ylabel("error")
        plt.legend(fontsize=8)
        plt.tight_layout()
        plt.savefig(HERE / "convergence.png", dpi=150)
        """
    )
    return _prelude(csv_name, not rows) + body


def _script_projection(rows: list[dict], csv_name: str) -> str:
    body = textwrap.dedent(
        """\
        ms = col("m")
        ys = [y + 1e-300 for y in col("error_Y1")]
        plt.figure(figsize=(6, 4.5))
        plt.semilogy(ms, ys, "o-", label="one-step projection error")
        shapes = [r["bound_shape"] for r in rows]
        if all(s != "" for s in shapes) and ys:
            sh = [float(s) for s in shapes]
            scale = ys[0] / sh[0] if sh[0] > 0 else 1.0
            plt.semilogy(ms, [scale * s for s in sh], "k--", lw=0.8,
                         label="bound shape (normalized)")
        plt.xlabel("projection radius m (eigenvalue units)")
        plt.ylabel("error")
        plt.legend(fontsize=8)
        plt.tight_layout()
        plt.savefig(HERE / "projection_decay.png", dpi=150)
        """
    )
    return _prelude(csv_name, not rows) + body


def _script_embedding(rows: list[dict], csv_name: str) -> str:
    p = _method_order(rows)
    body = textwrap.dedent(
        f"""\
        byn = {{}}
        for r in rows:
            if r["error"] != "":
                byn.setdefault(int(r["n"]), []).append((float(r["h"]), float(r["error"])))
        plt.figure(figsize=(6, 4.5))
        for n, pts in sorted(byn.items()):
            pts.sort()
            hs = [x for x, _ in pts]
            ys = [y + 1e-300 for _, y in pts]
            plt.loglog(hs, ys, "o-", label=f"n={{n}} (expect slope max(n+1, {p + 1}))")
        plt.xlabel("h")
        plt.ylabel("one-step method-vs-modified-flow distance")
        plt.legend(fontsize=7)
        plt.tight_layout()
        plt.savefig(HERE / "embedding_orders.png", dpi=150)
        """
    )
    return _prelude(csv_name, not rows) + body


def _script_hclose(rows: list[dict], csv_name: str) -> str:
    p = _method_order(rows)
    body = textwrap.dedent(
        f"""\
        hs = col("h")
        ys = [y + 1e-300 for y in col("abs_diff")]
        plt.figure(figsize=(6, 4.5))
        plt.loglog(hs, ys, "o-", label="|H~ - H| at U0")
        if ys:
            anchor = max(ys)
            plt.loglog(sorted(hs), [anchor * (h / max(hs)) ** {p} for h in sorted(hs)],
                       "k--", lw=0.8, label="slope {p}")
        plt.xlabel("h")
        plt.ylabel("|H~ - H|")
        plt.legend(fontsize=8)
        plt.tight_layout()
        plt.savefig(HERE / "energy_closeness.png", dpi=150)
        """
    )
    return _prelude(csv_name, not rows) + body


def _script_gradcons(rows: list[dict], csv_name: str) -> str:
    body = textwrap.dedent(
        """\
        ns = col("n")
        ys = [y + 1e-300 for y in col("residual")]
        plt.figure(figsize=(6, 4.5))
        plt.semilogy(ns, ys, "o-")
        plt.xlabel("truncation order n")
        plt.ylabel("gradient-consistency residual")
        plt.tight_layout()
        plt.savefig(HERE / "gradient_residuals.png", dpi=150)
        """
    )
    return _prelude(csv_name, not rows) + body


def _script_expfit(rows: list[dict], csv_name: str) -> str:
    body = textwrap.dedent(
        """\
        xs = col("x_abscissa")
        ys = [y + 1e-300 for y in col("per_step_drift")]
        plt.figure(figsize=(6, 4.5))
        plt.semilogy(xs, ys, "o", label="per-step H~ drift")
        fit = [(float(r["x_abscissa"]), r["fit_slope"], r["fit_r2"]) for r in rows
               if r["x_abscissa"] != "" and r["fit_slope"] != ""]
        if fit:
            slope = float(fit[0][1])
            r2 = float(fit[0][2])
            x0, y0 = xs[0], math.log(ys[0])
            grid = sorted(xs)
            line = [math.exp(y0 + slope * (x - x0)) for x in grid]
            plt.semilogy(grid, line, "k--", lw=0.8,
                         label=f"log-linear fit, slope {slope:.3g}, R2 {r2:.3f}")
        plt.xlabel("h^(-1/(1+q))")
        plt.ylabel("per-step modified-energy drift")
        plt.legend(fontsize=8)
        plt.tight_layout()
        plt.savefig(HERE / "exponential_fit.png", dpi=150)
        """
    )
    return _prelude(csv_name, not rows) + body


_TEMPLATES = {
    "trajectory": [("plot_trajectory_energy.py", _script_trajectory)],
    "drift": [
        ("plot_drift_vs_time.py", _script_drift_vs_time),
        ("plot_drift_slopes.py", _script_drift_slopes),
    ],
    "converge": [("plot_convergence.py", _script_convergence)],
    "projscan": [("plot_projection_decay.py", _script_projection)],
    "bea_embedding": [("plot_embedding_orders.py", _script_embedding)],
    "bea_hclose": [("plot_energy_closeness.py", _script_hclose)],
    "bea_gradcons": [("plot_gradient_residuals.py", _script_gradcons)],
    "bea_expfit": [("plot_exponential_fit.py", _script_expfit)],
}


def emit_plots(csv_paths, out_dir=None) -> list[Path]:
    """Write plot scripts for the given CSVs; returns the script paths.

    Raises FileNotFoundError naming the first missing CSV.  CSVs whose name
    is not a known study output raise ValueError.
    """
    written: list[Path] = []
    for raw in csv_paths:
        path = Path(raw)
        if not path.exists():
            raise FileNotFoundError(f"missing CSV: {path}")
        stem = path.stem
        if stem not in _TEMPLATES:
            raise ValueError(
                f"no plot template for {path.name}; known: {sorted(_TEMPLATES)}"
            )
        rows = [r for r in _read_rows(path) if r.get("status", "ok") == "ok"]
        target_dir = Path(out_dir) if out_dir is not None else path.parent
        target_dir.mkdir(parents=True, exist_ok=True)
        for script_name, render in _TEMPLATES[stem]:
            script = target_dir / script_name
            script.write_text(render(rows, path.name), encoding="utf-8")
            written.append(script)
    return written
