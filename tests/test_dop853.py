"""The in-house DOP853 against scipy.integrate.solve_ivp(method="DOP853").

The library's reference integrations must not depend on scipy at run time,
yet their numbers must not move: the CSVs of the bea and drift studies are
compared byte for byte across versions.  These tests pin the integrator to
scipy's bit for bit, on synthetic systems and on the library's own calls,
and check that a failed integration raises a typed error.  A single problem
runs as the one member of a lockstep integration, as reference_flow runs it.
"""

import warnings

import numpy as np
import pytest
from scipy.integrate import solve_ivp as scipy_solve_ivp

import hambea.bea as bea
import hambea.models as models
from hambea import ConvergenceError, make_tableau
from hambea._dop853 import solve_lockstep
from hambea.harness import ExperimentConfig, run_bea_verify

from conftest import random_state, same_bits
from test_harness import base_config


def _scipy(fun, t_span, y0, rtol, atol, first_step=None):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # scipy warns when it floors rtol
        return scipy_solve_ivp(
            fun, t_span, y0, method="DOP853", rtol=rtol, atol=atol, first_step=first_step
        )


def _solve(fun, t_span, y0, rtol, atol, first_step=None):
    """y' = fun(t, y) as the one member of a lockstep run: its OdeResult, or
    its ConvergenceError raised."""
    def stacked(_members, ts, Y):
        return fun(ts[0], Y[0])[np.newaxis]

    (out,) = solve_lockstep(stacked, [(t_span, y0, rtol, atol, first_step)]).results
    if isinstance(out, ConvergenceError):
        raise out
    return out


def _assert_same(fun, t_span, y0, rtol, atol, first_step=None):
    ref = _scipy(fun, t_span, y0, rtol, atol, first_step)
    if not ref.success:  # the step size collapsed: same failure, same count
        with pytest.raises(ConvergenceError) as err:
            _solve(fun, t_span, y0, rtol, atol, first_step)
        assert err.value.iterations == ref.nfev
        return ref
    ours = _solve(fun, t_span, y0, rtol, atol, first_step)
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


def _member(fun, i):
    """Right-hand side of lockstep member i alone, as a plain fun(t, y)."""
    return lambda t, y: fun([i], [t], y[np.newaxis])[0]


def _pin_lockstep_to_scipy(monkeypatch, module=bea, name="solve_ivp"):
    """Replace module.name, the lockstep driver (bea.solve_ivp by default, as
    modified_flow calls it), by one that checks each member against scipy run
    alone on that member's problem.  Every call records, per member, its nfev
    when it matches (for a failed member: "error" when scipy fails too), and
    False otherwise."""
    calls = []

    def checked(fun, problems):
        ours = solve_lockstep(fun, problems)
        got = []
        for i, r in enumerate(ours.results):
            ref = _scipy(_member(fun, i), *problems[i])
            if isinstance(r, ConvergenceError):
                got.append("error" if not ref.success else False)
            else:
                same = same_bits(r.y, ref.y[:, -1]) and r.nfev == ref.nfev
                got.append(r.nfev if same else False)
        calls.append(got)
        return ours

    monkeypatch.setattr(module, name, checked)
    return calls


def test_reference_flow_calls_match_scipy(monkeypatch, nls, wave_sg, rng):
    calls = _pin_lockstep_to_scipy(monkeypatch, models, "solve_lockstep")
    s = random_state(nls.make_grid(4), 1, rng)
    models.reference_flow(nls, s, 0.3, rtol=1e-11, atol=1e-13)
    models.reference_flow(nls, s, 0.3, m=2.0)
    w = random_state(wave_sg.make_grid(3), 2, rng, real_field=True)
    models.reference_flow(wave_sg, w, 0.5, rtol=1e-12, atol=1e-14)
    assert len(calls) == 3 and all(len(c) == 1 and c[0] for c in calls)


def test_modified_flow_calls_match_scipy(monkeypatch, nls, rng):
    calls = _pin_lockstep_to_scipy(monkeypatch)
    s = random_state(nls.make_grid(3), 1, rng)
    tab = make_tableau("midpoint")
    for n in (1, 3, 5):
        bea.modified_flow(nls, tab, s, 0.05, n)
    bea.modified_flow(nls, tab, s, 0.1, 3, m=2.0)
    assert all(len(c) == 1 and c[0] for c in calls) and len(calls) == 4
    # several step sizes in lockstep: every member equals scipy alone, and
    # the members run for different numbers of right-hand sides
    hs = [0.2, 0.1, 0.0707, 0.05]
    flows = bea.modified_flow(nls, tab, s, hs, 3)
    nfevs = calls[-1]
    assert all(nfevs) and len(set(nfevs)) > 1
    for h, flow in zip(hs, flows):
        assert same_bits(flow.coeffs, bea.modified_flow(nls, tab, s, h, 3).coeffs)


def _lockstep_systems(count):
    """count random systems, their right-hand side as one stacked call, and
    their problems (t_span, y0, rtol, atol, first_step), one per member."""
    systems = [_random_system(seed) for seed in range(count)]

    def fun(members, ts, Y):
        return np.stack([systems[i][0](t, y) for i, t, y in zip(members, ts, Y)])

    problems = [
        ((0.0, 0.4 + 0.3 * i), systems[i][1], 10.0 ** -(9 + i), 1e-13, 0.1 if i % 2 else None)
        for i in range(count)
    ]
    return fun, problems


def test_lockstep_members_match_each_member_alone():
    fun, problems = _lockstep_systems(4)
    res = solve_lockstep(fun, problems)
    alone = [_solve(_member(fun, i), *p) for i, p in enumerate(problems)]
    for i, p in enumerate(problems):
        _assert_same(_member(fun, i), *p)
    assert [r.nfev for r in res.results] == [a.nfev for a in alone]
    assert len({a.nfev for a in alone}) == 4
    assert all(same_bits(r.y, a.y) for r, a in zip(res.results, alone))
    assert res.nfev == sum(a.nfev for a in alone)


def test_lockstep_member_that_fails_mid_run_leaves_the_others_alone():
    # member 1 turns NaN after t = 0.2: it leaves the batch with the error it
    # raises when run alone, and the others keep their bits
    fun, problems = _lockstep_systems(4)

    def failing(members, ts, Y):
        F = fun(members, ts, Y)
        F[[i == 1 and t > 0.2 for i, t in zip(members, ts)]] = np.nan
        return F

    res = solve_lockstep(failing, problems)
    with pytest.raises(ConvergenceError) as err:
        _solve(_member(failing, 1), *problems[1])
    assert isinstance(res.results[1], ConvergenceError)
    assert res.results[1].iterations == err.value.iterations > 12
    for i in (0, 2, 3):
        alone = _solve(_member(fun, i), *problems[i])
        assert same_bits(res.results[i].y, alone.y) and res.results[i].nfev == alone.nfev


# -- typed failure ------------------------------------------------------------


def test_nan_field_raises_convergence_error():
    def fun(t, y):
        return -y if t < 0.1 else np.full_like(y, np.nan)

    with pytest.raises(ConvergenceError) as err:
        _solve(fun, (0.0, 1.0), np.ones(3), rtol=1e-10, atol=1e-12, first_step=0.01)
    assert err.value.iterations > 12
    # a NaN starting derivative gives a NaN starting step, which must not spin
    with pytest.raises(ConvergenceError):
        _solve(lambda t, y: y * np.nan, (0.0, 1.0), np.ones(3), rtol=1e-10, atol=1e-12)


def test_reference_flow_raises_its_members_convergence_error(monkeypatch, nls, rng):
    runs = []

    def recorded(fun, problems):
        runs.append(solve_lockstep(fun, problems))
        return runs[-1]

    monkeypatch.setattr(models, "solve_lockstep", recorded)
    monkeypatch.setattr(nls, "apply_B", lambda s, m=None: s * np.nan)
    s = random_state(nls.make_grid(3), 1, rng)
    with pytest.raises(ConvergenceError) as err:
        models.reference_flow(nls, s, 0.3)
    assert len(runs) == 1 and err.value is runs[0].results[0]


def _nan_field_at(monkeypatch, h_bad, after=0):
    """The truncated field (n > 1) of every state with step size h_bad turns
    NaN once after of its evaluations at h_bad have passed.  Both the
    lockstep right-hand side of modified_flow and series_eval form the field
    through bea.truncated_field."""
    orig = bea.truncated_field
    seen = [0]

    def truncated_field(fs, hs, p):
        out = orig(fs, hs, p)
        bad = (np.asarray(hs) == h_bad) & (fs.shape[0] > 2)
        seen[0] += bool(bad.any())
        return np.where(bad[:, np.newaxis, np.newaxis] & (seen[0] > after), np.nan, out)

    monkeypatch.setattr(bea, "truncated_field", truncated_field)


def test_modified_flow_failure_is_typed(monkeypatch, nls, rng):
    _nan_field_at(monkeypatch, 0.05)
    s = random_state(nls.make_grid(3), 1, rng)
    tab = make_tableau("midpoint")
    with pytest.raises(ConvergenceError):
        bea.modified_flow(nls, tab, s, 0.05, 3)


def test_modified_flow_member_that_fails_leaves_the_others_as_alone(monkeypatch, nls, rng):
    # the h = 0.0707 member of a lockstep modified flow fails part-way; the
    # other members still equal scipy, and their own one-h runs, bit for bit
    s = random_state(nls.make_grid(3), 1, rng)
    tab = make_tableau("midpoint")
    hs = [0.1, 0.0707, 0.05]
    alone = {h: bea.modified_flow(nls, tab, s, h, 3).coeffs for h in hs}
    calls = _pin_lockstep_to_scipy(monkeypatch)
    _nan_field_at(monkeypatch, 0.0707, after=20)
    flows = bea.modified_flow(nls, tab, s, hs, 3)
    assert isinstance(flows[1], ConvergenceError) and calls[-1][1] == "error"
    assert calls[-1][0] and calls[-1][2]
    assert same_bits(flows[0].coeffs, alone[0.1]) and same_bits(flows[2].coeffs, alone[0.05])


def test_failed_embedding_point_becomes_error_row(monkeypatch, tmp_path):
    d = base_config()
    d["model"]["band"] = 3
    d["run"]["h"] = [0.1, 0.0707, 0.05]
    cfg = ExperimentConfig.from_dict(d)
    _nan_field_at(monkeypatch, 0.0707)
    run_bea_verify(cfg, out_dir=tmp_path)
    lines = (tmp_path / "bea_embedding.csv").read_text(encoding="utf-8").splitlines()
    header = lines[0].split(",")
    rows = [dict(zip(header, line.split(","))) for line in lines[1:]]
    status = {float(r["h"]): r["status"] for r in rows}
    assert status == {0.1: "ok", 0.0707: "error:ConvergenceError", 0.05: "ok"}
    for name in ("bea_hclose.csv", "bea_gradcons.csv", "bea_expfit.csv"):
        assert (tmp_path / name).exists()
