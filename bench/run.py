"""hambea benchmark driver.

    python3 bench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1] [--smoke]

Run from the root of a checkout.  For the chosen workload it writes the
seeded config, then starts one fresh single-threaded interpreter per
repetition (bench/worker.py) against the checkout's src/, one at a time,
until --seconds have passed.  Every repetition's CSVs are checked and
hashed.  The last line of standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones (medians over the
repetitions); with --trace 1 untraced and traced repetitions alternate and
the metrics are the per-layer ones (see spans.py), including the tracing
overhead.  Lines before it give every figure by name and unit for people.
Work files go to .bench_work/ in the checkout.  NOTES.md explains the
workloads and seeds; --smoke shrinks every workload for the self-test.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

from spans import LAYER_METRICS
from workloads import WORKLOADS, expfit_points

DEFAULT_SEED = 7
MIN_REPS = 3  # untraced repetitions per --trace 0 run
MIN_SETUPS = 9  # set-up measurements per --trace 0 run
RUN_TIMEOUT_S = 170.0  # whole run, under the 180 s limit

END_TO_END = [
    ("run_s", "s"),
    ("setup_s", "s"),
    ("steps_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
]

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"


@dataclass
class Rep:
    """Outcome of one worker process."""

    traced: bool
    out: Path
    result: dict | None = None
    error: str = ""
    points: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    hashes: dict[str, str] = field(default_factory=dict)


def _env() -> dict:
    # Bytecode is written, under the work directory, so every repetition
    # imports compiled modules as an installed package would.
    env = dict(os.environ)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env.update(
        PYTHONPATH=str(SRC),
        PYTHONPYCACHEPREFIX=str(WORK / "pycache"),
        OMP_NUM_THREADS="1",
        OPENBLAS_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
    )
    return env


def _spawn(argv: list[str], timeout: float) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, *argv], env=_env(), cwd=ROOT, capture_output=True, text=True,
        timeout=max(1.0, timeout),
    )


def _src_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "hambea").rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def _run_worker(cfg_path: Path, study: str, seed: int, out: Path, traced: bool,
                timeout: float) -> Rep:
    rep = Rep(traced, out)
    out.mkdir(parents=True)
    t0 = time.clock_gettime(time.CLOCK_MONOTONIC)
    argv = [str(BENCH_DIR / "worker.py"), "--config", str(cfg_path), "--study", study,
            "--out", str(out), "--seed", str(seed), "--t0", repr(t0),
            "--trace", str(int(traced))]
    try:
        proc = _spawn(argv, timeout)
    except subprocess.TimeoutExpired:
        rep.error = "timed out"
        return rep
    if proc.returncode != 0:
        rep.error = f"exit code {proc.returncode}: {proc.stderr.strip()[-500:]}"
        return rep
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if Path(result["module"]).resolve().parent != (SRC / "hambea").resolve():
        rep.error = f"imported hambea from {result['module']}, not from {SRC}"
        return rep
    rep.result = result
    return rep


def _setup_only(cfg_path: Path, timeout: float) -> float | None:
    """One interpreter start through import and load_config, no study."""
    t0 = time.clock_gettime(time.CLOCK_MONOTONIC)
    code = (
        "import sys, time, hambea.harness.cli, hambea.harness.config as c;"
        "c.load_config(sys.argv[1]);"
        "print(time.clock_gettime(time.CLOCK_MONOTONIC))"
    )
    try:
        proc = _spawn(["-c", code, str(cfg_path)], timeout)
    except subprocess.TimeoutExpired:
        return None
    if proc.returncode != 0:
        return None
    return float(proc.stdout.strip().splitlines()[-1]) - t0


def _import_times(timeout: float) -> dict[str, float]:
    """Cumulative import time of hambea and of scipy.integrate, from -X importtime."""
    proc = _spawn(["-X", "importtime", "-c", "import hambea.harness.cli"], timeout)
    if proc.returncode != 0:
        raise RuntimeError(f"import failed: {proc.stderr.strip()[-500:]}")
    total = scipy_integrate = 0.0
    for line in proc.stderr.splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        _self, cumulative, name = line[len("import time:"):].split("|")
        if not cumulative.strip().isdigit():
            continue
        us = int(cumulative)
        if name.strip() == "scipy.integrate":
            scipy_integrate = us * 1e-6
        if name.startswith(" hambea") and not name.startswith("  "):
            total += us * 1e-6  # top-level hambea imports, nested ones included
    return {"setup.import_s": total, "setup.scipy_integrate_s": scipy_integrate}


def _check(rep: Rep, check, cfg: dict, points: int) -> None:
    """Check one repetition's CSVs; a lost or incorrect run fails every point."""
    rep.points, rep.failed = points, points
    if rep.result is None:
        rep.problems = [rep.error]
        return
    try:
        rep.failed, rep.problems = check(cfg, rep.out)
    except (OSError, KeyError, ValueError, IndexError) as e:
        rep.failed, rep.problems = points, [f"unreadable output: {type(e).__name__}: {e}"]
        return
    rep.hashes = {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in sorted(rep.out.glob("*.csv"))
    }
    if rep.problems:
        rep.failed = rep.points


def _check_determinism(reps: list[Rep], key: str) -> None:
    """Fail every repetition whose CSV bytes differ from this code's first run.

    The reference hashes persist in .bench_work/csv_hashes.json per
    (config, source digest), so separate runs are compared too.
    """
    store_path = WORK / "csv_hashes.json"
    store = json.loads(store_path.read_text()) if store_path.exists() else {}
    reference = store.get(key)
    for rep in reps:
        if rep.result is None or rep.problems:
            continue
        if reference is None:
            reference = store[key] = rep.hashes
        elif rep.hashes != reference:
            rep.problems.append("CSV bytes differ from an earlier run of the same code and seed")
            rep.failed = rep.points
    store_path.write_text(json.dumps(store, indent=1, sort_keys=True))


def _median(values: list[float]) -> float:
    return statistics.median(values) if values else float("nan")


def _layer_metrics(reps: list[Rep], untraced_run_s: list[float], imports: dict,
                   fit_points: int) -> dict[str, float]:
    traced = [r.result for r in reps if r.traced and r.result is not None]
    out = {key: _median([t["layers"][key] for t in traced]) for key in traced[0]["layers"]}
    out.update(imports)
    out["bea.expfit.fit_points"] = fit_points
    out["trace.overhead_s"] = _median([t["run_s"] for t in traced]) - _median(untraced_run_s)
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="reduced-size workloads")
    args = ap.parse_args(argv)

    if not (SRC / "hambea" / "__init__.py").is_file():
        print(f"error: no hambea sources at {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2

    started = time.perf_counter()
    deadline = started + RUN_TIMEOUT_S
    make_config, study, count_points, count_steps, check = WORKLOADS[args.workload]
    cfg = make_config(args.seed, args.smoke)
    points, steps = count_points(cfg), count_steps(cfg)
    run_dir = WORK / args.workload
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    cfg_path = run_dir / "config.json"
    cfg_path.write_text(json.dumps(cfg, indent=1))

    # compile bytecode once, so no repetition pays for it
    warm = _spawn(["-c", "import hambea.harness.cli"], deadline - time.perf_counter())
    if warm.returncode != 0:
        print(f"error: cannot import hambea: {warm.stderr.strip()[-500:]}", file=sys.stderr)
        return 1

    reps: list[Rep] = []
    setups: list[float] = []
    durations: dict[bool, list[float]] = {False: [], True: []}
    t_measure = time.perf_counter()
    while True:
        elapsed = time.perf_counter() - t_measure
        traced = bool(args.trace) and len(reps) % 2 == 1
        enough = len(reps) >= (2 if args.trace else MIN_REPS)
        expected = _median(durations[traced] or durations[False] or [0.0])
        if enough and elapsed + expected > args.seconds:
            break
        if time.perf_counter() + expected > deadline - 10.0:
            break
        t = time.perf_counter()
        rep = _run_worker(cfg_path, study, args.seed, run_dir / f"rep{len(reps)}", traced,
                          deadline - t)
        durations[traced].append(time.perf_counter() - t)
        _check(rep, check, cfg, points)
        if traced and rep.result is not None and rep.result["layers"]["rk.step.calls"] != steps:
            rep.problems.append(f"traced Stepper.step calls "
                                f"{rep.result['layers']['rk.step.calls']} != {steps} expected")
            rep.failed = rep.points
        reps.append(rep)
        if rep.result is not None and not traced:
            setups.append(rep.result["setup_s"])
    key = hashlib.sha256((cfg_path.read_text() + _src_digest()).encode()).hexdigest()
    _check_determinism(reps, key)

    untraced = [r.result for r in reps if not r.traced and r.result is not None]
    if not untraced or (args.trace and not any(r.traced and r.result for r in reps)):
        for rep in reps:
            print(f"repetition failed: {rep.error}", file=sys.stderr)
        return 1
    run_s = [u["run_s"] for u in untraced]
    attempted = sum(r.points for r in reps)
    failed = sum(r.failed for r in reps)

    if args.trace:
        imports = _import_times(deadline - time.perf_counter())
        fit = expfit_points(reps[0].out) if study == "bea" and reps[0].result else 0
        values = _layer_metrics(reps, run_s, imports, fit)
        metrics = {name: {"value": values[name], "unit": unit} for name, unit, _ in LAYER_METRICS}
    else:
        while len(setups) < MIN_SETUPS and time.perf_counter() < deadline - 10.0:
            s = _setup_only(cfg_path, deadline - time.perf_counter())
            if s is not None:
                setups.append(s)
        values = {
            "run_s": _median(run_s),
            "setup_s": _median(setups),
            "steps_per_s": _median([steps / r for r in run_s]),
            "peak_rss_mb": _median([u["peak_rss_mb"] for u in untraced]),
        }
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}

    print(f"workload {args.workload} seed {args.seed} trace {args.trace}"
          f"{' smoke' if args.smoke else ''}: {len(reps)} repetitions, "
          f"{steps} Stepper.step calls per study, {len(setups)} set-ups, "
          f"{time.perf_counter() - started:.1f} s")
    for i, rep in enumerate(reps):
        kind = "traced" if rep.traced else "untraced"
        timing = f"run_s {rep.result['run_s']:.4f}" if rep.result else rep.error
        print(f"  rep{i} {kind}: {timing}, {rep.points} points, {rep.failed} failed"
              + "".join(f"\n    problem: {p}" for p in rep.problems))
    for name, sha in reps[0].hashes.items():
        print(f"  sha256 {name} {sha}")
    for name, m in metrics.items():
        print(f"{name} {m['value']:.6g} {m['unit']}")
    print(f"fail_ratio {failed / attempted:.6g} ratio ({failed} of {attempted} points failed)")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
