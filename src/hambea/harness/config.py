"""Experiment configuration.

Configs are JSON objects with five sections; ``model`` and ``run`` are
required, the rest have defaults.  The exact grammar:

.. code-block:: json

    {
      "model":  {"name": "nls", "params": {"sigma": 1, "lam": 1.0},
                 "band": 16, "n_phys": null},
      "method": {"tableau": "midpoint", "stage_tol": 1e-12,
                 "solver": "fixed_point", "max_iter": 100},
      "run":    {"h": [0.1, 0.05, 0.025], "T": 1.0,
                 "initial": {"kind": "gevrey_decay", "tau": 0.5, "ell": 2.0,
                             "amplitude": 0.4, "seed": 7},
                 "samples": 33, "m": null},
      "bea":    {"policy": "explicit", "n": [3], "m": [null], "tau": null,
                 "delta": 0.25, "chi": null, "c_F": null, "n_max": 6,
                 "q": null},
      "output": {"directory": "out", "formats": ["csv"]}
    }

``run.h`` may instead be a geometric range ``{"start": 0.1, "factor": 0.5,
"count": 4}``; the resulting list must be strictly decreasing and positive.
``bea.m`` entries and ``run.m`` are projection radii in eigenvalue units
(modes with |k|^q <= m are kept; null keeps the whole band).  Initial
condition kinds:

- ``gevrey_decay(tau, ell, amplitude, seed)``: moduli follow
  amplitude * exp(-tau |k|) * (1+|k|)^(-ell) with uniformly random phases
  (wavenumber |k| equals the q-th root of the mode eigenvalue, so the decay
  matches the weighted-norm convention for every model);
- ``plane_wave(k, component, amplitude)``: a single mode;
- ``explicit(entries)``: a list of ``[k, component, re, im]`` rows.

For real-field models, entries given at k > 0 are mirrored conjugately to -k
unless -k is set explicitly.  Integer fields (band, n_phys, max_iter, samples,
h.count, seed, k, component, the bea.n entries, n_max and the k and component
of explicit entries) take integers or integral floats such as 16.0; any other
value, true and false included, is a ConfigError.  A parsed config
re-serializes to the identical canonical dict, and its SHA-256 hash (first 12
hex digits) stamps every CSV row the harness writes.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field

import numpy as np
import numpy.random  # loaded at import, not in a study run (see spectral.py)

from .. import __version__
from ..bea import N_MAX_DEFAULT
from ..errors import ConfigError, DomainError, HambeaError
from ..models import PdeModel, make_model
from ..rk import StageSolveConfig, make_tableau
from ..spectral import FourierGrid, FourierState, hermitian_defect

TABLEAU_IDS = ("midpoint", "gauss1", "gauss2", "gauss3")
IC_KINDS = ("gevrey_decay", "plane_wave", "explicit")
POLICY_MODES = ("explicit", "coupled")
OUTPUT_FORMATS = ("csv", "plots")


def _reject_unknown(d: dict, allowed: tuple[str, ...], where: str) -> None:
    extra = set(d) - set(allowed)
    if extra:
        raise ConfigError(f"unknown key(s) {sorted(extra)} in {where}")


def _coerce_number(value, where: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{where} must be a number, got {value!r}")
    return float(value)


def _coerce_int(value, where: str) -> int:
    integral = isinstance(value, int) or isinstance(value, float) and value.is_integer()
    if isinstance(value, bool) or not integral:
        raise ConfigError(f"{where} must be an integer, got {value!r}")
    return int(value)


@dataclass
class ModelSection:
    name: str
    params: dict = field(default_factory=dict)
    band: int = 16
    n_phys: int | None = None

    @classmethod
    def from_dict(cls, d: dict) -> "ModelSection":
        _reject_unknown(d, ("name", "params", "band", "n_phys"), "model")
        if "name" not in d:
            raise ConfigError("model.name is required")
        out = cls(
            name=str(d["name"]),
            params=dict(d.get("params", {})),
            band=_coerce_int(d.get("band", 16), "model.band"),
            n_phys=None if d.get("n_phys") is None else _coerce_int(d["n_phys"], "model.n_phys"),
        )
        if out.band < 1:
            raise ConfigError("model.band must be a positive integer")
        return out

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "params": self.params,
            "band": self.band,
            "n_phys": self.n_phys,
        }


@dataclass
class MethodSection:
    tableau: str = "midpoint"
    stage_tol: float = 1e-12
    solver: str = "fixed_point"
    max_iter: int = 100

    @classmethod
    def from_dict(cls, d: dict) -> "MethodSection":
        _reject_unknown(d, ("tableau", "stage_tol", "solver", "max_iter"), "method")
        out = cls(
            tableau=str(d.get("tableau", "midpoint")),
            stage_tol=_coerce_number(d.get("stage_tol", 1e-12), "method.stage_tol"),
            solver=str(d.get("solver", "fixed_point")),
            max_iter=_coerce_int(d.get("max_iter", 100), "method.max_iter"),
        )
        if out.tableau not in TABLEAU_IDS:
            raise ConfigError(f"method.tableau must be one of {TABLEAU_IDS}, got {out.tableau!r}")
        if out.stage_tol <= 0:
            raise ConfigError("method.stage_tol must be positive")
        if out.solver not in ("fixed_point", "newton_on_modes"):
            raise ConfigError(f"unknown method.solver {out.solver!r}")
        if out.max_iter < 1:
            raise ConfigError("method.max_iter must be at least 1")
        return out

    def to_dict(self) -> dict:
        return {
            "tableau": self.tableau,
            "stage_tol": self.stage_tol,
            "solver": self.solver,
            "max_iter": self.max_iter,
        }

    def stage_config(self) -> StageSolveConfig:
        return StageSolveConfig(
            scheme=self.solver, tol=self.stage_tol, max_iter=self.max_iter
        )


@dataclass
class InitialConditionSpec:
    kind: str = "gevrey_decay"
    tau: float = 0.5
    ell: float = 2.0
    amplitude: float = 0.4
    seed: int | None = None
    k: int = 1
    component: int = 0
    entries: list = field(default_factory=list)

    @classmethod
    def from_dict(cls, d: dict) -> "InitialConditionSpec":
        kind = str(d.get("kind", "gevrey_decay"))
        if kind == "gevrey_decay":
            _reject_unknown(d, ("kind", "tau", "ell", "amplitude", "seed"), "run.initial")
            out = cls(
                kind=kind,
                tau=_coerce_number(d.get("tau", 0.5), "run.initial.tau"),
                ell=_coerce_number(d.get("ell", 2.0), "run.initial.ell"),
                amplitude=_coerce_number(d.get("amplitude", 0.4), "run.initial.amplitude"),
                seed=None if d.get("seed") is None else _coerce_int(d["seed"], "run.initial.seed"),
            )
            if out.tau <= 0 or out.ell < 0 or out.amplitude <= 0:
                raise ConfigError("gevrey_decay needs tau > 0, ell >= 0, amplitude > 0")
            return out
        if kind == "plane_wave":
            _reject_unknown(d, ("kind", "k", "component", "amplitude"), "run.initial")
            return cls(
                kind=kind,
                k=_coerce_int(d.get("k", 1), "run.initial.k"),
                component=_coerce_int(d.get("component", 0), "run.initial.component"),
                amplitude=_coerce_number(d.get("amplitude", 0.4), "run.initial.amplitude"),
            )
        if kind == "explicit":
            _reject_unknown(d, ("kind", "entries"), "run.initial")
            entries = d.get("entries", [])
            if not isinstance(entries, list) or not entries:
                raise ConfigError("explicit initial condition needs a nonempty entries list")
            parsed = []
            for row in entries:
                if not isinstance(row, list) or len(row) != 4:
                    raise ConfigError(
                        "each explicit entry must be [k, component, re, im], "
                        f"got {row!r}"
                    )
                parsed.append([
                    _coerce_int(row[0], "explicit entry k"),
                    _coerce_int(row[1], "explicit entry component"),
                    _coerce_number(row[2], "explicit entry re"),
                    _coerce_number(row[3], "explicit entry im"),
                ])
            return cls(kind=kind, entries=parsed)
        raise ConfigError(f"run.initial.kind must be one of {IC_KINDS}, got {kind!r}")

    def to_dict(self) -> dict:
        if self.kind == "gevrey_decay":
            return {
                "kind": self.kind,
                "tau": self.tau,
                "ell": self.ell,
                "amplitude": self.amplitude,
                "seed": self.seed,
            }
        if self.kind == "plane_wave":
            return {
                "kind": self.kind,
                "k": self.k,
                "component": self.component,
                "amplitude": self.amplitude,
            }
        return {"kind": self.kind, "entries": self.entries}


def _parse_h(value) -> list[float]:
    if isinstance(value, dict):
        _reject_unknown(value, ("start", "factor", "count"), "run.h")
        try:
            start = _coerce_number(value["start"], "run.h.start")
            factor = _coerce_number(value["factor"], "run.h.factor")
            count = _coerce_int(value["count"], "run.h.count")
        except KeyError as e:
            raise ConfigError(f"run.h geometric range is missing {e.args[0]!r}") from None
        if count < 1:
            raise ConfigError("run.h.count must be at least 1")
        hs = [start * factor**i for i in range(count)]
    elif isinstance(value, list):
        hs = [_coerce_number(v, "run.h entry") for v in value]
    else:
        raise ConfigError("run.h must be a list or a {start, factor, count} range")
    if not hs:
        raise ConfigError("run.h must not be empty")
    if any(h <= 0 for h in hs):
        raise ConfigError("run.h values must be positive")
    if any(b >= a for a, b in zip(hs, hs[1:])):
        raise ConfigError("run.h values must be strictly decreasing")
    return hs


@dataclass
class RunSection:
    h: list[float]
    T: float
    initial: InitialConditionSpec
    samples: int = 33
    m: float | None = None

    @classmethod
    def from_dict(cls, d: dict) -> "RunSection":
        _reject_unknown(d, ("h", "T", "initial", "samples", "m"), "run")
        for key in ("h", "T"):
            if key not in d:
                raise ConfigError(f"run.{key} is required")
        out = cls(
            h=_parse_h(d["h"]),
            T=_coerce_number(d["T"], "run.T"),
            initial=InitialConditionSpec.from_dict(d.get("initial", {})),
            samples=_coerce_int(d.get("samples", 33), "run.samples"),
            m=None if d.get("m") is None else _coerce_number(d["m"], "run.m"),
        )
        if out.T <= 0:
            raise ConfigError("run.T must be positive")
        if out.samples < 2:
            raise ConfigError("run.samples must be at least 2")
        if out.m is not None and out.m <= 0:
            raise ConfigError("run.m must be positive when given")
        return out

    def to_dict(self) -> dict:
        return {
            "h": self.h,
            "T": self.T,
            "initial": self.initial.to_dict(),
            "samples": self.samples,
            "m": self.m,
        }


@dataclass
class BeaSection:
    policy: str = "explicit"
    n: list[int] = field(default_factory=lambda: [3])
    m: list[float | None] = field(default_factory=lambda: [None])
    tau: float | None = None
    delta: float = 0.25
    chi: float | None = None
    c_F: float | None = None
    n_max: int = N_MAX_DEFAULT
    q: float | None = None

    @classmethod
    def from_dict(cls, d: dict) -> "BeaSection":
        _reject_unknown(
            d, ("policy", "n", "m", "tau", "delta", "chi", "c_F", "n_max", "q"), "bea"
        )
        n_raw = d.get("n", [3])
        m_raw = d.get("m", [None])
        if not isinstance(n_raw, list) or not n_raw:
            raise ConfigError("bea.n must be a nonempty list")
        if not isinstance(m_raw, list) or not m_raw:
            raise ConfigError("bea.m must be a nonempty list")
        out = cls(
            policy=str(d.get("policy", "explicit")),
            n=[_coerce_int(v, "bea.n entry") for v in n_raw],
            m=[None if v is None else _coerce_number(v, "bea.m entry") for v in m_raw],
            tau=None if d.get("tau") is None else _coerce_number(d["tau"], "bea.tau"),
            delta=_coerce_number(d.get("delta", 0.25), "bea.delta"),
            chi=None if d.get("chi") is None else _coerce_number(d["chi"], "bea.chi"),
            c_F=None if d.get("c_F") is None else _coerce_number(d["c_F"], "bea.c_F"),
            n_max=_coerce_int(d.get("n_max", N_MAX_DEFAULT), "bea.n_max"),
            q=None if d.get("q") is None else _coerce_number(d["q"], "bea.q"),
        )
        if out.policy not in POLICY_MODES:
            raise ConfigError(f"bea.policy must be one of {POLICY_MODES}, got {out.policy!r}")
        if any(n < 1 for n in out.n):
            raise ConfigError("bea.n entries must be at least 1")
        if any(m is not None and m <= 0 for m in out.m):
            raise ConfigError("bea.m entries must be positive when given")
        if out.delta <= 0:
            raise ConfigError("bea.delta must be positive")
        if out.n_max < 1:
            raise ConfigError("bea.n_max must be at least 1")
        if out.policy == "coupled" and (out.tau is None or out.tau <= 0):
            raise ConfigError("coupled bea policy requires tau > 0")
        return out

    def to_dict(self) -> dict:
        return {
            "policy": self.policy,
            "n": self.n,
            "m": self.m,
            "tau": self.tau,
            "delta": self.delta,
            "chi": self.chi,
            "c_F": self.c_F,
            "n_max": self.n_max,
            "q": self.q,
        }


@dataclass
class OutputSection:
    directory: str = "out"
    formats: list[str] = field(default_factory=lambda: ["csv"])

    @classmethod
    def from_dict(cls, d: dict) -> "OutputSection":
        _reject_unknown(d, ("directory", "formats"), "output")
        out = cls(
            directory=str(d.get("directory", "out")),
            formats=[str(f) for f in d.get("formats", ["csv"])],
        )
        for f in out.formats:
            if f not in OUTPUT_FORMATS:
                raise ConfigError(f"output.formats entries must be among {OUTPUT_FORMATS}")
        return out

    def to_dict(self) -> dict:
        return {"directory": self.directory, "formats": self.formats}


@dataclass
class ExperimentConfig:
    model: ModelSection
    method: MethodSection
    run: RunSection
    bea: BeaSection
    output: OutputSection

    @classmethod
    def from_dict(cls, d: dict) -> "ExperimentConfig":
        if not isinstance(d, dict):
            raise ConfigError("config root must be an object")
        _reject_unknown(d, ("model", "method", "run", "bea", "output"), "config")
        for key in ("model", "run"):
            if key not in d:
                raise ConfigError(f"config section {key!r} is required")
        cfg = cls(
            model=ModelSection.from_dict(d["model"]),
            method=MethodSection.from_dict(d.get("method", {})),
            run=RunSection.from_dict(d["run"]),
            bea=BeaSection.from_dict(d.get("bea", {})),
            output=OutputSection.from_dict(d.get("output", {})),
        )
        cfg.validate()
        return cfg

    def to_dict(self) -> dict:
        return {
            "model": self.model.to_dict(),
            "method": self.method.to_dict(),
            "run": self.run.to_dict(),
            "bea": self.bea.to_dict(),
            "output": self.output.to_dict(),
        }

    def validate(self) -> None:
        model = self.resolve_model()
        if self.bea.q is not None and self.bea.q != model.q:
            raise ConfigError(
                f"bea.q = {self.bea.q} contradicts the model's eigenvalue growth "
                f"exponent q = {model.q}"
            )
        if self.model.n_phys is not None and self.model.n_phys < 2 * self.model.band + 1:
            raise ConfigError("model.n_phys must be at least 2*band + 1")
        ic = self.run.initial
        if ic.kind == "plane_wave":
            if abs(ic.k) > self.model.band:
                raise ConfigError("plane_wave mode index lies outside the band")
            if not 0 <= ic.component < model.components:
                raise ConfigError("plane_wave component index out of range")
        if ic.kind == "explicit":
            for k, comp, _re, _im in ic.entries:
                if abs(k) > self.model.band:
                    raise ConfigError(f"explicit entry mode {k} lies outside the band")
                if not 0 <= comp < model.components:
                    raise ConfigError(f"explicit entry component {comp} out of range")

    def resolve_model(self) -> PdeModel:
        try:
            return make_model(self.model.name, self.model.params)
        except (ValueError, KeyError, TypeError) as e:
            raise ConfigError(f"invalid model section: {e}") from e

    def make_grid(self) -> FourierGrid:
        model = self.resolve_model()
        try:
            return model.make_grid(self.model.band, self.model.n_phys)
        except ValueError as e:
            raise ConfigError(f"invalid grid parameters: {e}") from e

    def make_tableau(self):
        return make_tableau(self.method.tableau)

    @property
    def config_hash(self) -> str:
        blob = json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode()).hexdigest()[:12]

    @property
    def code_version(self) -> str:
        return __version__


def load_config(path) -> ExperimentConfig:
    try:
        with open(path, encoding="utf-8") as f:
            raw = json.load(f)
    except OSError as e:
        raise ConfigError(f"cannot read config {path}: {e}") from e
    except json.JSONDecodeError as e:
        raise ConfigError(f"config {path} is not valid JSON: {e}") from e
    return ExperimentConfig.from_dict(raw)


# ---------------------------------------------------------------------------
# initial data


def build_initial_state(
    model: PdeModel,
    grid: FourierGrid,
    ic: InitialConditionSpec,
    default_seed: int = 0,
) -> FourierState:
    """Construct the configured initial state and run the model domain guard."""
    K = grid.n_modes
    coeffs = np.zeros((model.components, grid.band_size), dtype=complex)
    folded = model.is_real_field

    if ic.kind == "gevrey_decay":
        seed = ic.seed if ic.seed is not None else default_seed
        rng = np.random.default_rng(seed)
        ks = range(0, K + 1) if folded else range(-K, K + 1)
        for c in range(model.components):
            for k in ks:
                amp = ic.amplitude * math.exp(-ic.tau * abs(k)) * (1.0 + abs(k)) ** (-ic.ell)
                phase = 2.0 * math.pi * rng.random()
                if folded:
                    if k == 0:
                        coeffs[c, K] = amp * math.cos(phase)
                    else:
                        v = amp * complex(math.cos(phase), math.sin(phase))
                        coeffs[c, K + k] = v
                        coeffs[c, K - k] = np.conj(v)
                else:
                    coeffs[c, K + k] = amp * complex(math.cos(phase), math.sin(phase))
    elif ic.kind == "plane_wave":
        coeffs[ic.component, K + ic.k] = ic.amplitude
        if folded and ic.k != 0:
            coeffs[ic.component, K - ic.k] = np.conj(coeffs[ic.component, K + ic.k])
    else:
        given = {(comp, k) for k, comp, _re, _im in ic.entries}
        for k, comp, re, im in ic.entries:
            coeffs[comp, K + k] = complex(re, im)
        if folded:
            for k, comp, _re, _im in ic.entries:
                if k != 0 and (comp, -k) not in given:
                    coeffs[comp, K - k] = np.conj(coeffs[comp, K + k])

    state = FourierState(grid, coeffs)
    if folded and hermitian_defect(state) > 1e-12:
        raise ConfigError(
            "explicit initial data for a real-field model must be conjugate-symmetric"
        )
    try:
        model.hamiltonian(state)
    except DomainError as e:
        raise ConfigError(f"initial condition violates the model domain guard: {e}") from e
    except HambeaError as e:
        raise ConfigError(f"initial condition rejected: {e}") from e
    return state
