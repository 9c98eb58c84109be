"""Config grammar, initial data, study CSVs, plot scripts, and the CLI."""

import copy
import json
import math
import py_compile
import re
import subprocess
import sys

import numpy as np
import pytest

from hambea import ConfigError, GevreyIndex, tail_bound_check
from hambea.harness import (
    ExperimentConfig,
    build_initial_state,
    emit_plots,
    load_config,
    run_bea_verify,
    run_drift_study,
    run_integrate,
)
from hambea.harness.cli import main as cli_main
from hambea.harness.config import InitialConditionSpec
from hambea.harness.plots import _TEMPLATES
from hambea.spectral import hermitian_defect


def base_config(**over) -> dict:
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
    for key, val in over.items():
        d[key] = val
    return d


# -- config grammar -----------------------------------------------------------


def test_config_roundtrip_is_canonical():
    cfg = ExperimentConfig.from_dict(base_config())
    canon = cfg.to_dict()
    again = ExperimentConfig.from_dict(copy.deepcopy(canon))
    assert again.to_dict() == canon
    assert again.config_hash == cfg.config_hash


def test_config_hash_shape_and_sensitivity():
    a = ExperimentConfig.from_dict(base_config())
    assert len(a.config_hash) == 12
    assert all(c in "0123456789abcdef" for c in a.config_hash)
    d = base_config()
    d["run"]["T"] = 0.75
    assert ExperimentConfig.from_dict(d).config_hash != a.config_hash
    d2 = base_config()
    d2["run"]["initial"]["seed"] = 8
    assert ExperimentConfig.from_dict(d2).config_hash != a.config_hash


def test_unknown_keys_rejected():
    for mutate in (
        lambda d: d.update(extra=1),
        lambda d: d["model"].update(bands=1),
        lambda d: d["method"].update(tol=1e-8),
        lambda d: d["run"].update(tmax=2.0),
        lambda d: d["bea"].update(policy_mode="x"),
        lambda d: d["output"].update(dir="x"),
        lambda d: d["run"]["initial"].update(sigma=1),
    ):
        d = base_config()
        mutate(d)
        with pytest.raises(ConfigError):
            ExperimentConfig.from_dict(d)


def test_required_sections():
    d = base_config()
    del d["run"]
    with pytest.raises(ConfigError):
        ExperimentConfig.from_dict(d)
    d = base_config()
    del d["model"]["name"]
    with pytest.raises(ConfigError):
        ExperimentConfig.from_dict(d)


def test_h_list_must_decrease():
    for bad in ([0.05, 0.1], [0.1, 0.1], [0.1, -0.05], []):
        d = base_config()
        d["run"]["h"] = bad
        with pytest.raises(ConfigError):
            ExperimentConfig.from_dict(d)


def test_h_geometric_range():
    d = base_config()
    d["run"]["h"] = {"start": 0.1, "factor": 0.5, "count": 3}
    cfg = ExperimentConfig.from_dict(d)
    assert cfg.run.h == pytest.approx([0.1, 0.05, 0.025])
    # canonical form stores the expanded list
    assert isinstance(cfg.to_dict()["run"]["h"], list)
    d["run"]["h"] = {"start": 0.1, "factor": 2.0, "count": 3}  # increasing
    with pytest.raises(ConfigError):
        ExperimentConfig.from_dict(d)
    d["run"]["h"] = {"start": 0.1, "count": 3}
    with pytest.raises(ConfigError):
        ExperimentConfig.from_dict(d)


def test_semantic_validation():
    d = base_config()
    d["bea"]["q"] = 1.0  # contradicts the NLS eigenvalue growth
    with pytest.raises(ConfigError):
        ExperimentConfig.from_dict(d)
    d = base_config()
    d["model"]["n_phys"] = 5  # needs at least 2*band+1 = 9
    with pytest.raises(ConfigError):
        ExperimentConfig.from_dict(d)
    d = base_config()
    d["run"]["initial"] = {"kind": "plane_wave", "k": 9, "amplitude": 0.1}
    with pytest.raises(ConfigError):
        ExperimentConfig.from_dict(d)
    d = base_config()
    d["run"]["initial"] = {"kind": "explicit", "entries": [[1, 2, 0.1, 0.0]]}
    with pytest.raises(ConfigError):
        ExperimentConfig.from_dict(d)
    d = base_config()
    d["method"]["tableau"] = "rk4"
    with pytest.raises(ConfigError):
        ExperimentConfig.from_dict(d)
    d = base_config()
    d["run"]["samples"] = 1
    with pytest.raises(ConfigError):
        ExperimentConfig.from_dict(d)
    d = base_config()
    d["bea"]["policy"] = "coupled"  # needs tau
    with pytest.raises(ConfigError):
        ExperimentConfig.from_dict(d)


def test_load_config_errors(tmp_path):
    with pytest.raises(ConfigError):
        load_config(tmp_path / "missing.json")
    bad = tmp_path / "bad.json"
    bad.write_text("{not json", encoding="utf-8")
    with pytest.raises(ConfigError):
        load_config(bad)


def _set(d, path, value):
    node = d
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value


_PLANE = {"kind": "plane_wave", "k": 1, "component": 0, "amplitude": 0.3}
_EXPLICIT = {"kind": "explicit", "entries": [[1, 0, 0.3, 0.0]]}

# (field as the error names it, its path in the config, run keys it needs)
_INT_FIELDS = [
    ("model.band", ("model", "band"), {}),
    ("model.n_phys", ("model", "n_phys"), {}),
    ("method.max_iter", ("method", "max_iter"), {}),
    ("run.samples", ("run", "samples"), {}),
    ("run.h.count", ("run", "h", "count"), {"h": {"start": 0.1, "factor": 0.5, "count": 2}}),
    ("run.initial.seed", ("run", "initial", "seed"), {}),
    ("run.initial.k", ("run", "initial", "k"), {"initial": _PLANE}),
    ("run.initial.component", ("run", "initial", "component"), {"initial": _PLANE}),
    ("bea.n entry", ("bea", "n", 0), {}),
    ("bea.n_max", ("bea", "n_max"), {}),
    ("explicit entry k", ("run", "initial", "entries", 0, 0), {"initial": _EXPLICIT}),
    ("explicit entry component", ("run", "initial", "entries", 0, 1), {"initial": _EXPLICIT}),
]


@pytest.mark.parametrize("field,path,run_keys", _INT_FIELDS, ids=[f[0] for f in _INT_FIELDS])
def test_integer_fields_refuse_other_values(tmp_path, field, path, run_keys):
    # a string, null, a fraction, a bool or NaN is a config error naming the
    # field, and the CLI exits 2, instead of a traceback or a truncation
    d = base_config()
    d["run"].update(copy.deepcopy(run_keys))
    ExperimentConfig.from_dict(copy.deepcopy(d))
    for bad in ("x", None, 2.5, True, math.nan):
        if bad is None and field in ("model.n_phys", "run.initial.seed"):
            continue  # null selects their default
        _set(d, path, bad)
        cfg_path = write_config(tmp_path, d)
        with pytest.raises(ConfigError, match=re.escape(field)):
            load_config(cfg_path)
        assert cli_main(["integrate", "--config", cfg_path]) == 2


def test_integer_fields_take_integral_floats(tmp_path):
    d = base_config()
    d["model"]["band"], d["run"]["samples"], d["bea"]["n"] = 4.0, 3.0, [3.0]
    cfg = load_config(write_config(tmp_path, d))
    assert cfg.model.band == 4 and type(cfg.model.band) is int
    assert cfg.config_hash == ExperimentConfig.from_dict(base_config()).config_hash


@pytest.mark.parametrize("index,field", [(2, "explicit entry re"), (3, "explicit entry im")])
def test_explicit_entry_values_must_be_numbers(tmp_path, index, field):
    d = base_config()
    d["run"]["initial"] = copy.deepcopy(_EXPLICIT)
    d["run"]["initial"]["entries"][0][index] = "x"
    cfg_path = write_config(tmp_path, d)
    with pytest.raises(ConfigError, match=field):
        load_config(cfg_path)
    assert cli_main(["integrate", "--config", cfg_path]) == 2


# -- initial data -------------------------------------------------------------


def test_gevrey_initial_moduli_and_determinism(nls):
    grid = nls.make_grid(6)
    ic = InitialConditionSpec(kind="gevrey_decay", tau=0.4, ell=1.5,
                              amplitude=0.3, seed=11)
    a = build_initial_state(nls, grid, ic)
    b = build_initial_state(nls, grid, ic)
    assert np.array_equal(a.coeffs, b.coeffs)
    for k in range(-6, 7):
        want = 0.3 * math.exp(-0.4 * abs(k)) * (1.0 + abs(k)) ** (-1.5)
        assert abs(a.mode(k)) == pytest.approx(want, rel=1e-12)
    c = build_initial_state(nls, grid, InitialConditionSpec(
        kind="gevrey_decay", tau=0.4, ell=1.5, amplitude=0.3, seed=12))
    assert not np.array_equal(a.coeffs, c.coeffs)
    # the declared regularity is certified by the tail machinery it feeds
    ok, _margin = tail_bound_check(a, GevreyIndex(0.4, 1.5, nls.q), m=16.0)
    assert ok


def test_gevrey_initial_real_field(wave_cubic):
    grid = wave_cubic.make_grid(5)
    ic = InitialConditionSpec(kind="gevrey_decay", tau=0.5, ell=2.0,
                              amplitude=0.4, seed=3)
    s = build_initial_state(wave_cubic, grid, ic)
    assert s.coeffs.shape == (2, 11)
    assert hermitian_defect(s) < 1e-15


def test_plane_wave_initial(wave_cubic, nls):
    grid = wave_cubic.make_grid(4)
    ic = InitialConditionSpec(kind="plane_wave", k=2, component=1, amplitude=0.7)
    s = build_initial_state(wave_cubic, grid, ic)
    assert s.mode(2, 1) == 0.7
    assert s.mode(-2, 1) == 0.7  # conjugate mirror for the real field
    assert np.count_nonzero(s.coeffs) == 2
    gn = nls.make_grid(4)
    icn = InitialConditionSpec(kind="plane_wave", k=2, component=0, amplitude=0.7)
    sn = build_initial_state(nls, gn, icn)
    assert np.count_nonzero(sn.coeffs) == 1  # no mirror for the complex field


def test_explicit_initial_mirroring(wave_cubic):
    grid = wave_cubic.make_grid(4)
    ic = InitialConditionSpec(kind="explicit", entries=[[1, 0, 0.2, 0.3]])
    s = build_initial_state(wave_cubic, grid, ic)
    assert s.mode(1, 0) == complex(0.2, 0.3)
    assert s.mode(-1, 0) == complex(0.2, -0.3)
    # contradictory +/-k entries break the required symmetry
    bad = InitialConditionSpec(
        kind="explicit", entries=[[1, 0, 1.0, 0.0], [-1, 0, 5.0, 0.0]]
    )
    with pytest.raises(ConfigError):
        build_initial_state(wave_cubic, grid, bad)


def test_initial_domain_guard():
    from hambea import make_model

    model = make_model("nonlocal_nls", {"rho_min": 1e-3})
    grid = model.make_grid(4)
    tiny = InitialConditionSpec(kind="explicit", entries=[[0, 0, 1e-6, 0.0]])
    with pytest.raises(ConfigError):
        build_initial_state(model, grid, tiny)


# -- study CSVs ---------------------------------------------------------------


def test_drift_csv_determinism_and_format(tmp_path):
    cfg = ExperimentConfig.from_dict(base_config())
    p1 = run_drift_study(cfg, out_dir=tmp_path / "a", seed=0)
    p2 = run_drift_study(cfg, out_dir=tmp_path / "b", seed=0)
    b1, b2 = p1.read_bytes(), p2.read_bytes()
    assert b1 == b2
    p3 = run_drift_study(cfg, out_dir=tmp_path / "c", seed=0, threads=3)
    assert p3.read_bytes() == b1

    text = p1.read_text(encoding="utf-8")
    lines = text.strip().splitlines()
    header = lines[0].split(",")
    assert header[:4] == ["config_hash", "code_version", "tableau", "stage_tol"]
    first = lines[1].split(",")
    assert first[0] == cfg.config_hash
    assert first[2] == "midpoint"
    # floats carry 17 significant digits
    assert first[header.index("h")] == "%.17g" % 0.1
    assert all(line.split(",")[-1] == "ok" for line in lines[1:])


def test_integrate_csv(tmp_path):
    cfg = ExperimentConfig.from_dict(base_config())
    path = run_integrate(cfg, out_dir=tmp_path)
    assert path.name == "trajectory.csv"
    lines = path.read_text(encoding="utf-8").strip().splitlines()
    header = lines[0].split(",")
    assert header[4:] == ["t", "H", "H_drift", "y1_norm", "status"]
    assert len(lines) >= 3
    t_col = header.index("t")
    assert lines[1].split(",")[t_col] == "0"
    assert lines[-1].split(",")[t_col] == "%.17g" % 0.5


def test_bea_verify_tables(tmp_path):
    d = base_config()
    d["model"]["band"] = 3
    d["run"]["h"] = [0.1, 0.0707, 0.05]
    cfg = ExperimentConfig.from_dict(d)
    paths = run_bea_verify(cfg, out_dir=tmp_path)
    names = sorted(p.name for p in paths)
    assert names == [
        "bea_embedding.csv",
        "bea_expfit.csv",
        "bea_gradcons.csv",
        "bea_hclose.csv",
    ]
    embed = (tmp_path / "bea_embedding.csv").read_text(encoding="utf-8").splitlines()
    header = embed[0].split(",")
    slope_col = header.index("slope_estimate")
    slopes = {float(line.split(",")[slope_col]) for line in embed[1:]}
    # n = 3 with the symmetric midpoint rule: the deviation decays like h^5
    assert len(slopes) == 1
    assert abs(slopes.pop() - 5.0) < 0.4
    # explicit policy leaves the coupled-fit table empty apart from its header
    expfit = (tmp_path / "bea_expfit.csv").read_text(encoding="utf-8").splitlines()
    assert len(expfit) == 1


# -- plot scripts -------------------------------------------------------------


def test_plots_missing_and_unknown(tmp_path):
    with pytest.raises(FileNotFoundError, match="nope.csv"):
        emit_plots([tmp_path / "nope.csv"])
    weird = tmp_path / "mystery.csv"
    weird.write_text("a,b\n", encoding="utf-8")
    with pytest.raises(ValueError, match="mystery"):
        emit_plots([weird])


def test_plot_scripts_compile_and_run(tmp_path):
    cfg = ExperimentConfig.from_dict(base_config())
    csv_path = run_integrate(cfg, out_dir=tmp_path)
    scripts = emit_plots([csv_path])
    assert scripts and scripts[0].name == "plot_trajectory_energy.py"
    for script in scripts:
        py_compile.compile(str(script), doraise=True)
    # rendering a figure needs the real plotting library
    pytest.importorskip("matplotlib")
    for script in scripts:
        proc = subprocess.run(
            [sys.executable, str(script)], capture_output=True, text=True
        )
        assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "trajectory_energy.png").exists()


def test_plot_script_empty_csv(tmp_path):
    empty = tmp_path / "converge.csv"
    empty.write_text(
        "config_hash,code_version,tableau,stage_tol,h,error,"
        "slope_estimate,n_used,m_used,status\n",
        encoding="utf-8",
    )
    scripts = emit_plots([empty])
    text = scripts[0].read_text(encoding="utf-8")
    assert "WARNING" in text.splitlines()[1]
    proc = subprocess.run(
        [sys.executable, str(scripts[0])], capture_output=True, text=True
    )
    assert proc.returncode == 0
    assert "nothing to plot" in proc.stdout
    # every emitted script exits before importing matplotlib on a header-only CSV
    for stem in _TEMPLATES:
        out = tmp_path / stem
        out.mkdir()
        csv_path = out / f"{stem}.csv"
        csv_path.write_text(
            "config_hash,code_version,tableau,stage_tol,status\n", encoding="utf-8"
        )
        for script in emit_plots([csv_path]):
            proc = subprocess.run(
                [sys.executable, str(script)], capture_output=True, text=True
            )
            assert proc.returncode == 0, proc.stderr
            assert "nothing to plot" in proc.stdout
        assert not list(out.glob("*.png"))


# -- command line -------------------------------------------------------------


def write_config(tmp_path, d) -> str:
    path = tmp_path / "config.json"
    path.write_text(json.dumps(d), encoding="utf-8")
    return str(path)


def test_cli_integrate_success(tmp_path, capsys):
    cfg_path = write_config(tmp_path, base_config())
    out = tmp_path / "results"
    rc = cli_main(["integrate", "--config", cfg_path, "--out", str(out)])
    assert rc == 0
    printed = capsys.readouterr().out.strip()
    assert printed.endswith("trajectory.csv")
    assert (out / "trajectory.csv").exists()


def test_cli_config_error_exit_2(tmp_path, capsys):
    d = base_config()
    d["method"]["tableau"] = "rk4"
    rc = cli_main(["drift", "--config", write_config(tmp_path, d)])
    assert rc == 2
    assert "config error" in capsys.readouterr().err
    rc = cli_main(["drift", "--config", str(tmp_path / "absent.json")])
    assert rc == 2
    rc = cli_main(["plots"])  # needs --out or --config
    assert rc == 2


def test_cli_numerical_failure_exit_3(tmp_path, capsys):
    # a one-iteration cap cannot reach the requested stage tolerance in the
    # reference trajectory, which runs outside the per-point error capture
    d = base_config()
    d["method"]["stage_tol"] = 1e-15
    d["method"]["max_iter"] = 1
    d["run"]["h"] = [0.1]
    rc = cli_main(
        ["converge", "--config", write_config(tmp_path, d), "--out", str(tmp_path / "o")]
    )
    assert rc == 3
    assert "numerical failure" in capsys.readouterr().err


def test_cli_programming_error_propagates(tmp_path, monkeypatch):
    # a RuntimeError is no numerical failure: it surfaces with its traceback
    import hambea.harness.cli as cli

    def broken_study(*_args, **_kwargs):
        raise RuntimeError("bug in a study")

    monkeypatch.setitem(cli._STUDIES, "integrate", broken_study)
    cfg_path = write_config(tmp_path, base_config())
    with pytest.raises(RuntimeError, match="bug in a study"):
        cli_main(["integrate", "--config", cfg_path, "--out", str(tmp_path / "o")])


def test_cli_io_failure_exit_4(tmp_path, capsys):
    blocker = tmp_path / "blocked"
    blocker.write_text("file, not a directory", encoding="utf-8")
    cfg_path = write_config(tmp_path, base_config())
    rc = cli_main(["integrate", "--config", cfg_path, "--out", str(blocker)])
    assert rc == 4
    assert "I/O failure" in capsys.readouterr().err


def test_cli_plots_subcommand(tmp_path, capsys):
    cfg_path = write_config(tmp_path, base_config())
    out = tmp_path / "results"
    assert cli_main(["integrate", "--config", cfg_path, "--out", str(out)]) == 0
    capsys.readouterr()
    rc = cli_main(["plots", "--out", str(out)])
    assert rc == 0
    assert (out / "plot_trajectory_energy.py").exists()
    rc = cli_main(["plots", "--out", str(tmp_path / "void")])
    assert rc == 4  # no CSVs to plot


def test_cli_error_rows_keep_study_alive(tmp_path):
    # per-point numerical failures land in the CSV as error rows, exit 0
    d = base_config()
    d["method"]["stage_tol"] = 1e-15
    d["method"]["max_iter"] = 1
    cfg = ExperimentConfig.from_dict(d)
    path = run_drift_study(cfg, out_dir=tmp_path)
    lines = path.read_text(encoding="utf-8").strip().splitlines()
    statuses = {line.split(",")[-1] for line in lines[1:]}
    assert statuses == {"error:ConvergenceError"}
