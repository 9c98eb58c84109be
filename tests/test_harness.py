"""Config grammar, initial data, study CSVs, plot scripts, and the CLI."""

import copy
import csv
import json
import math
import py_compile
import re
import subprocess
import sys

import numpy as np
import pytest

from hambea import (
    ConfigError,
    ConvergenceError,
    GevreyIndex,
    StageSolveConfig,
    Stepper,
    rk,
    tail_bound_check,
)
from hambea.harness import (
    ExperimentConfig,
    build_initial_state,
    emit_plots,
    load_config,
    run_bea_verify,
    run_convergence_study,
    run_drift_study,
    run_integrate,
)
from hambea.harness import config as config_module
from hambea.harness.cli import _STUDIES
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
        lambda d: d["model"]["params"].update(lamda=1.0),
        lambda d: d["model"].update(name="nonlocal_nls", params={"rho": 1e-3}),
        lambda d: d["model"].update(name="wave", params={"potential": {"kind": "sine_gordon",
                                                                      "gama": 1.0}}),
        lambda d: d["model"].update(name="wave", params={"potential": {"coef": {"2": 0.5}}}),
        lambda d: d["model"].update(name="wave", params={"kind": "poly"}),
    ):
        d = base_config()
        mutate(d)
        with pytest.raises(ConfigError):
            ExperimentConfig.from_dict(d)


def test_model_params_must_be_objects(tmp_path):
    # a list where an object belongs is a config error (exit 2), not a traceback
    for name, params, field in (
        ("nls", [1], "model.params"),
        ("kdv", [1], "model.params"),
        ("wave", {"potential": [1]}, "model.params.potential"),
        ("wave", {"potential": {"kind": "poly", "coeffs": [1]}}, "model.params.potential.coeffs"),
    ):
        d = base_config()
        d["model"].update(name=name, params=params)
        cfg_path = write_config(tmp_path, d)
        with pytest.raises(ConfigError, match=re.escape(field) + " must be an object"):
            load_config(cfg_path)
        assert cli_main(["integrate", "--config", cfg_path]) == 2


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


# every field off its default, each section given
_OFF_DEFAULT = {
    "model": {"name": "wave", "params": {"potential": {"kind": "sine_gordon", "gamma": 0.5}},
              "band": 6, "n_phys": 40},
    "method": {"tableau": "gauss2", "stage_tol": 1e-11, "solver": "newton_on_modes",
               "max_iter": 50},
    "run": {"h": {"start": 0.1, "factor": 0.5, "count": 3}, "T": 0.3,
            "initial": {"kind": "plane_wave", "k": 2, "component": 1, "amplitude": 0.2},
            "samples": 5, "m": 9.0},
    "bea": {"policy": "coupled", "n": [3, 5], "m": [4.0, None], "tau": 1.0, "delta": 0.5,
            "chi": 100.0, "c_F": 2.0, "n_max": 5, "q": 1.0},
    "output": {"directory": "x", "formats": ["csv", "plots"]},
}


def test_config_hash_is_pinned():
    # the canonical form, and so every config_hash column, stays as released
    assert ExperimentConfig.from_dict(base_config()).config_hash == "58e2aec2f8bf"
    assert ExperimentConfig.from_dict(copy.deepcopy(_OFF_DEFAULT)).config_hash == "669afa45148a"


def test_documented_grammar_round_trips():
    # the module docstring's example, which spells out every default, parses
    # to itself, so the documented defaults are the declared ones
    block = config_module.__doc__.split(".. code-block:: json")[1].split("\n\n")[1]
    example = json.loads(block)
    assert ExperimentConfig.from_dict(copy.deepcopy(example)).to_dict() == example


def test_tableau_added_in_rk_reaches_config_study_and_plots(tmp_path, monkeypatch):
    # the harness takes tableau names and orders from rk alone
    monkeypatch.setitem(rk._TABLEAU_STAGES, "gauss4", 4)
    d = base_config()
    d["method"]["tableau"] = "gauss4"
    cfg = ExperimentConfig.from_dict(d)
    csv_path = run_convergence_study(cfg, out_dir=tmp_path)
    with open(csv_path, newline="", encoding="utf-8") as f:
        rows = list(csv.DictReader(f))
    assert rows and all(r["status"] == "ok" and r["tableau"] == "gauss4" for r in rows)
    (script,) = emit_plots([csv_path])
    assert script.name == "plot_convergence.py"
    text = script.read_text(encoding="utf-8")
    assert "** 8 for h in ref" in text and 'label="slope 8"' in text


@pytest.mark.parametrize("section,key,bad,field", [
    ("method", "tableau", "rk4", "method.tableau"),
    ("method", "solver", "newton", "method.solver"),
    ("method", "max_iter", 0, "max_iter"),
    ("bea", "policy", "adaptive", "bea.policy"),
    ("model", "band", 0, "model.band"),
    ("model", "band", -3, "model.band"),
    ("model", "n_phys", 5, "model.n_phys"),
])
def test_library_types_refuse_names_and_ranges(section, key, bad, field):
    # the owning library type refuses the value; the error still names the field
    d = base_config()
    d[section][key] = bad
    with pytest.raises(ConfigError, match=re.escape(field)):
        ExperimentConfig.from_dict(d)


@pytest.mark.parametrize("kind", [[1], {"a": 1}])
def test_unhashable_potential_kind_is_a_config_error(kind):
    d = base_config()
    d["model"].update(name="wave", params={"potential": {"kind": kind}})
    with pytest.raises(ConfigError, match="potential kind"):
        ExperimentConfig.from_dict(d)


def test_stage_tol_is_checked_by_the_stage_solver(tmp_path):
    with pytest.raises(ValueError, match="tol"):
        StageSolveConfig(tol=0.0)
    d = base_config()
    d["method"]["stage_tol"] = 0
    assert cli_main(["integrate", "--config", write_config(tmp_path, d)]) == 2


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

_GEOMETRIC_H = {"run": {"h": {"start": 0.1, "factor": 0.5, "count": 2}}}
_SINE_GORDON = {"name": "wave", "params": {"potential": {"kind": "sine_gordon", "gamma": 1.0}}}
_POLY = {"name": "wave", "params": {"potential": {"kind": "poly", "coeffs": {"2": 0.5, "4": 0.25}}}}


def _with(d, sections):
    """d with each {section: {key: value}} update applied."""
    for section, keys in sections.items():
        d[section].update(copy.deepcopy(keys))
    return d


# (field as the error names it, its path in the config, section keys it needs)
_INT_FIELDS = [
    ("model.band", ("model", "band"), {}),
    ("model.n_phys", ("model", "n_phys"), {}),
    ("model.params.sigma", ("model", "params", "sigma"), {}),
    ("method.max_iter", ("method", "max_iter"), {}),
    ("run.samples", ("run", "samples"), {}),
    ("run.h.count", ("run", "h", "count"), _GEOMETRIC_H),
    ("run.initial.seed", ("run", "initial", "seed"), {}),
    ("run.initial.k", ("run", "initial", "k"), {"run": {"initial": _PLANE}}),
    ("run.initial.component", ("run", "initial", "component"), {"run": {"initial": _PLANE}}),
    ("bea.n entry", ("bea", "n", 0), {}),
    ("bea.n_max", ("bea", "n_max"), {}),
    ("explicit entry k", ("run", "initial", "entries", 0, 0), {"run": {"initial": _EXPLICIT}}),
    ("explicit entry component", ("run", "initial", "entries", 0, 1),
     {"run": {"initial": _EXPLICIT}}),
]


@pytest.mark.parametrize("field,path,sections", _INT_FIELDS, ids=[f[0] for f in _INT_FIELDS])
def test_integer_fields_refuse_other_values(tmp_path, field, path, sections):
    # a string, null, a fraction, a bool or NaN is a config error naming the
    # field, and the CLI exits 2, instead of a traceback or a truncation
    d = _with(base_config(), sections)
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


# (field as the error names it, its path in the config, section keys it needs)
_FLOAT_FIELDS = [
    ("run.T", ("run", "T"), {}),
    ("run.h entry", ("run", "h", 0), {}),
    ("run.h.factor", ("run", "h", "factor"), _GEOMETRIC_H),
    ("run.m", ("run", "m"), {}),
    ("method.stage_tol", ("method", "stage_tol"), {}),
    ("run.initial.tau", ("run", "initial", "tau"), {}),
    ("bea.chi", ("bea", "chi"), {}),
    ("explicit entry re", ("run", "initial", "entries", 0, 2), {"run": {"initial": _EXPLICIT}}),
    ("model.params.lam", ("model", "params", "lam"), {}),
    ("model.params.rho_min", ("model", "params", "rho_min"),
     {"model": {"name": "nonlocal_nls", "params": {"rho_min": 1e-3}}}),
    ("model.params.potential.gamma", ("model", "params", "potential", "gamma"),
     {"model": _SINE_GORDON}),
    ("model.params.potential.coeffs.4", ("model", "params", "potential", "coeffs", "4"),
     {"model": _POLY}),
]


@pytest.mark.parametrize("field,path,sections", _FLOAT_FIELDS, ids=[f[0] for f in _FLOAT_FIELDS])
def test_number_fields_refuse_non_finite_values(tmp_path, field, path, sections):
    # NaN and the infinities (which JSON readers accept) are a config error
    # naming the field, and the CLI exits 2 instead of failing mid-run
    d = _with(base_config(), sections)
    ExperimentConfig.from_dict(copy.deepcopy(d))
    for bad in (math.nan, math.inf, -math.inf):
        _set(d, path, bad)
        cfg_path = write_config(tmp_path, d)
        with pytest.raises(ConfigError, match=re.escape(field) + " must be a finite number"):
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
    lhs, rhs = tail_bound_check(a, nls.energy_offsets, GevreyIndex(0.4, 1.5, nls.q), m=16.0)
    assert lhs <= rhs


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


def test_drift_evaluates_h_tilde_once_per_sample(tmp_path, monkeypatch):
    # the initial state's H-tilde serves both as the drift's reference and as
    # the t = 0 row, so each point evaluates it once per sampled state
    import hambea.harness.studies as studies

    evaluate, states = studies.modified_hamiltonian_eval, []

    def counted(model, tab, U, *args, **kwargs):
        states.append(U)
        return evaluate(model, tab, U, *args, **kwargs)

    monkeypatch.setattr(studies, "modified_hamiltonian_eval", counted)
    path = run_drift_study(ExperimentConfig.from_dict(base_config()), out_dir=tmp_path)
    with open(path, newline="", encoding="utf-8") as f:
        rows = list(csv.DictReader(f))
    # h = 0.1 samples steps 0, 2, 4 and 5; h = 0.05 samples steps 0, 5 and 10
    assert [r["status"] for r in rows] == ["ok"] * 7
    assert len(states) == len(rows)


@pytest.mark.parametrize("study", sorted(_STUDIES))
def test_study_csv_bytes_do_not_depend_on_threads(tmp_path, study):
    # the coupled policy gives every bea table, expfit included, several points
    d = base_config()
    d["bea"] = {"policy": "coupled", "n": [3, 5], "tau": 1.0, "chi": 200.0, "n_max": 5}
    cfg = ExperimentConfig.from_dict(d)
    one = _STUDIES[study](cfg, out_dir=tmp_path / "a", seed=0)
    three = _STUDIES[study](cfg, out_dir=tmp_path / "b", seed=0, threads=3)
    one, three = (p if isinstance(p, list) else [p] for p in (one, three))
    assert [p.name for p in one] == [p.name for p in three]
    assert [p.read_bytes() for p in one] == [p.read_bytes() for p in three]


def test_integrate_error_row_follows_the_rows_before_the_failure(tmp_path, monkeypatch):
    # a step that fails after three good steps keeps the samples at t = 0 and
    # 0.2 (steps 0 and 2 of 5), then one error row ends the trajectory
    step, calls = Stepper.step, []

    def failing_step(self, U):
        calls.append(U)
        if len(calls) == 4:
            raise ConvergenceError("stage iteration did not converge", 1.0, 100)
        return step(self, U)

    monkeypatch.setattr(Stepper, "step", failing_step)
    path = run_integrate(ExperimentConfig.from_dict(base_config()), out_dir=tmp_path)
    with open(path, newline="", encoding="utf-8") as f:
        rows = list(csv.DictReader(f))
    assert [r["t"] for r in rows] == ["0", "%.17g" % 0.2, ""]
    assert [r["status"] for r in rows] == ["ok", "ok", "error:ConvergenceError"]
    assert rows[-1]["H"] == rows[-1]["y1_norm"] == ""


def test_bea_writes_no_table_when_a_later_table_fails(tmp_path, monkeypatch):
    # a programming error in the gradient table stops the study before any
    # table is written, the embedding and closeness tables included
    import hambea.harness.studies as studies

    def broken(*_args, **_kwargs):
        raise RuntimeError("bug in gradient_consistency")

    monkeypatch.setattr(studies, "gradient_consistency", broken)
    with pytest.raises(RuntimeError, match="bug in gradient_consistency"):
        run_bea_verify(ExperimentConfig.from_dict(base_config()), out_dir=tmp_path)
    assert list(tmp_path.glob("*.csv")) == []


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


def test_bea_failed_closeness_terms_write_error_rows(tmp_path):
    # an order above the jet cap fails every bea table's points; each table
    # still gets written, with error rows, and the study exits 0
    d = base_config()
    d["bea"]["n"] = [13]
    out = tmp_path / "o"
    assert cli_main(["bea", "--config", write_config(tmp_path, d), "--out", str(out)]) == 0
    for name in ("bea_embedding", "bea_hclose", "bea_gradcons", "bea_expfit"):
        assert (out / f"{name}.csv").exists(), name
    with open(out / "bea_hclose.csv", newline="", encoding="utf-8") as f:
        rows = list(csv.DictReader(f))
    assert [r["h"] for r in rows] == ["%.17g" % h for h in d["run"]["h"]]
    assert {r["status"] for r in rows} == {"error:OrderCapError"}
    assert {r["H_tilde"] for r in rows} == {""}


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
