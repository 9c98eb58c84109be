"""The in-house DOP853 against scipy.integrate.solve_ivp(method="DOP853").

The library's reference integrations must not depend on scipy at run time,
yet their numbers must not move: the CSVs of the bea and drift studies are
compared byte for byte across versions.  These tests pin the integrator to
scipy's bit for bit, on synthetic systems and on the library's own calls,
and check that a failed integration raises a typed error.
"""

import warnings

import numpy as np
import pytest
from scipy.integrate import solve_ivp as scipy_solve_ivp

import hambea.bea as bea
import hambea.models as models
from hambea import ConvergenceError, ModifiedField, make_tableau
from hambea._dop853 import solve_ivp
from hambea.harness import ExperimentConfig, run_bea_verify

from conftest import random_state, same_bits
from test_harness import base_config


def _scipy(fun, t_span, y0, rtol, atol, first_step=None):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # scipy warns when it floors rtol
        return scipy_solve_ivp(
            fun, t_span, y0, method="DOP853", rtol=rtol, atol=atol, first_step=first_step
        )


def _assert_same(fun, t_span, y0, rtol, atol, first_step=None):
    ref = _scipy(fun, t_span, y0, rtol, atol, first_step)
    if not ref.success:  # the step size collapsed: same failure, same count
        with pytest.raises(ConvergenceError) as err:
            solve_ivp(fun, t_span, y0, rtol=rtol, atol=atol, first_step=first_step)
        assert err.value.iterations == ref.nfev
        return ref
    ours = solve_ivp(fun, t_span, y0, rtol=rtol, atol=atol, first_step=first_step)
    assert same_bits(ours.y, ref.y[:, -1])
    assert ours.nfev == ref.nfev
    return ref


def _random_system(seed, n=7):
    rng = np.random.default_rng(seed)
    M = rng.standard_normal((n, n)) / np.sqrt(n)
    c = rng.standard_normal(n)
    y0 = rng.standard_normal(n)

    def fun(t, y):
        return np.tanh(M @ y) + c * np.sin(3.0 * t) - 0.1 * y**3

    return fun, y0


@pytest.mark.parametrize("seed", range(4))
def test_matches_scipy_with_first_step_and_rtol_floor(seed):
    # as in modified_flow: a given first step, and an rtol under the floor
    fun, y0 = _random_system(seed)
    _assert_same(fun, (0.0, 0.4), y0, rtol=1e-16, atol=1e-15, first_step=0.1)
    _assert_same(fun, (0.0, 0.4), y0, rtol=1e-13, atol=1e-15, first_step=0.1)


@pytest.mark.parametrize("seed", range(4))
def test_matches_scipy_with_starting_step_rule(seed):
    # as in reference_flow: no first step, scipy's starting-step rule; seed 3
    # blows up backwards in time, where both integrators give up alike
    fun, y0 = _random_system(seed)
    _assert_same(fun, (0.0, 2.0), y0, rtol=1e-11, atol=1e-13)
    _assert_same(fun, (0.5, -1.0), y0, rtol=1e-9, atol=1e-12)


def test_matches_scipy_through_rejected_steps():
    # a fast oscillation entered with a first step far too large
    def fun(t, y):
        return np.array([y[1], -400.0 * y[0] + np.cos(t)])

    y0 = np.array([1.0, 0.0])
    ref = _assert_same(fun, (0.0, 3.0), y0, rtol=1e-10, atol=1e-12, first_step=2.0)
    accepted = len(ref.t) - 1
    assert ref.nfev > 1 + 12 * accepted  # some trial steps were rejected


def _pin_to_scipy(monkeypatch, module):
    """Replace module.solve_ivp by one that checks every call against scipy."""
    calls = []

    def checked(fun, t_span, y0, rtol, atol, first_step=None):
        ours = solve_ivp(fun, t_span, y0, rtol=rtol, atol=atol, first_step=first_step)
        ref = _scipy(fun, t_span, y0, rtol, atol, first_step)
        calls.append(same_bits(ours.y, ref.y[:, -1]) and ours.nfev == ref.nfev)
        return ours

    monkeypatch.setattr(module, "solve_ivp", checked)
    return calls


def test_reference_flow_calls_match_scipy(monkeypatch, nls, wave_sg, rng):
    calls = _pin_to_scipy(monkeypatch, models)
    s = random_state(nls.make_grid(4), 1, rng)
    models.reference_flow(nls, s, 0.3, rtol=1e-11, atol=1e-13)
    models.reference_flow(nls, s, 0.3, m=2.0)
    w = random_state(wave_sg.make_grid(3), 2, rng, real_field=True)
    models.reference_flow(wave_sg, w, 0.5, rtol=1e-12, atol=1e-14)
    assert calls == [True, True, True]


def test_modified_flow_calls_match_scipy(monkeypatch, nls, rng):
    calls = _pin_to_scipy(monkeypatch, bea)
    s = random_state(nls.make_grid(3), 1, rng)
    tab = make_tableau("midpoint")
    for n in (1, 3, 5):
        bea.modified_flow(nls, tab, s, 0.05, n)
    bea.modified_flow(nls, tab, s, 0.1, 3, m=2.0)
    assert calls == [True] * 4


# -- typed failure ------------------------------------------------------------


def test_nan_field_raises_convergence_error():
    def fun(t, y):
        return -y if t < 0.1 else np.full_like(y, np.nan)

    with pytest.raises(ConvergenceError) as err:
        solve_ivp(fun, (0.0, 1.0), np.ones(3), rtol=1e-10, atol=1e-12, first_step=0.01)
    assert err.value.iterations > 12
    # a NaN starting derivative gives a NaN starting step, which must not spin
    with pytest.raises(ConvergenceError):
        solve_ivp(lambda t, y: y * np.nan, (0.0, 1.0), np.ones(3), rtol=1e-10, atol=1e-12)


def _nan_series_at(monkeypatch, h_bad):
    """series_eval returns NaN for the truncated field at step size h_bad."""
    orig = ModifiedField.series_eval

    def series_eval(self, U, h, n):
        out = orig(self, U, h, n)
        return out * np.nan if (h == h_bad and n > 1) else out

    monkeypatch.setattr(ModifiedField, "series_eval", series_eval)


def test_modified_flow_failure_is_typed(monkeypatch, nls, rng):
    _nan_series_at(monkeypatch, 0.05)
    s = random_state(nls.make_grid(3), 1, rng)
    tab = make_tableau("midpoint")
    with pytest.raises(ConvergenceError):
        bea.modified_flow(nls, tab, s, 0.05, 3)


def test_failed_embedding_point_becomes_error_row(monkeypatch, tmp_path):
    d = base_config()
    d["model"]["band"] = 3
    d["run"]["h"] = [0.1, 0.0707, 0.05]
    cfg = ExperimentConfig.from_dict(d)
    _nan_series_at(monkeypatch, 0.0707)
    run_bea_verify(cfg, out_dir=tmp_path)
    lines = (tmp_path / "bea_embedding.csv").read_text(encoding="utf-8").splitlines()
    header = lines[0].split(",")
    rows = [dict(zip(header, line.split(","))) for line in lines[1:]]
    status = {float(r["h"]): r["status"] for r in rows}
    assert status == {0.1: "ok", 0.0707: "error:ConvergenceError", 0.05: "ok"}
    for name in ("bea_hclose.csv", "bea_gradcons.csv", "bea_expfit.csv"):
        assert (tmp_path / name).exists()
