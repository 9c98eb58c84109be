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
unless -k is set explicitly.  ``model.params`` takes ``sigma`` and ``lam``
for nls, ``rho_min`` for nonlocal_nls, and for wave a ``potential`` with
``kind`` poly (``coeffs``, power -> coefficient) or sine_gordon (``gamma``);
unknown keys are a ConfigError, as in every other section.  Integer fields
(band, n_phys, max_iter, samples, h.count, seed, k, component, the bea.n
entries, n_max, the k and component of explicit entries and params.sigma)
take integers or integral floats such as 16.0; any other value, true and
false included, is a ConfigError.  Every other numeric field takes finite
numbers only; NaN and the infinities are a ConfigError naming the field.

Each section is a dataclass, and each of its fields declares its key, its
default and its check once, through ``_field``; one parser reads every
section from them.  A name or range that a library type owns is checked by
that type alone, and its ValueError becomes a ConfigError: the model name and
params by ``make_model``, the tableau by ``make_tableau``, the solver,
``max_iter`` and ``stage_tol`` by ``StageSolveConfig``, ``bea.policy`` by
``TruncationPolicy``, and ``band`` and ``n_phys`` by ``FourierGrid``.  A
parsed config re-serializes to the identical canonical dict, and its SHA-256
hash (first 12 hex digits) stamps every CSV row the harness writes.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
from dataclasses import MISSING, asdict, dataclass, field

import numpy as np
import numpy.random  # loaded at import, not in a study run (see spectral.py)

from .. import __version__
from ..bea import N_MAX_DEFAULT, TruncationPolicy
from ..errors import ConfigError, DomainError, HambeaError
from ..models import PdeModel, make_model
from ..rk import StageSolveConfig, make_tableau
from ..spectral import FourierGrid, FourierState, hermitian_defect

IC_KINDS = ("gevrey_decay", "plane_wave", "explicit")
OUTPUT_FORMATS = ("csv", "plots")

# -- checks: each takes (value, where), returns the value to store or raises
# a ConfigError naming the field at where


def _coerce_number(value, where: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)) or not math.isfinite(value):
        raise ConfigError(f"{where} must be a finite number, got {value!r}")
    return float(value)


def _coerce_int(value, where: str) -> int:
    integral = isinstance(value, int) or isinstance(value, float) and value.is_integer()
    if isinstance(value, bool) or not integral:
        raise ConfigError(f"{where} must be an integer, got {value!r}")
    return int(value)


def _text(value, where: str) -> str:
    return str(value)


def _object(value, where: str) -> dict:
    if not isinstance(value, dict):
        raise ConfigError(f"{where} must be an object")
    return dict(value)


def _optional(check):
    """check, taking null as None."""
    return lambda value, where: None if value is None else check(value, where)


def _ranged(check, ok, needs: str):
    """check, then refuse the values ok is false on; needs says what they must be."""
    def checked(value, where):
        out = check(value, where)
        if not ok(out):
            raise ConfigError(f"{where} must be {needs}, got {out!r}")
        return out
    return checked


_POSITIVE = _ranged(_coerce_number, lambda v: v > 0, "positive")
_COUNT = _ranged(_coerce_int, lambda v: v >= 1, "at least 1")


def _one_of(choices: tuple):
    def checked(value, where):
        if value not in choices:
            raise ConfigError(f"{where} must be one of {choices}, got {value!r}")
        return value
    return checked


def _list_of(check, nonempty: bool = True):
    """A list, each entry checked as '<where> entry'."""
    def checked(value, where):
        if not isinstance(value, list) or nonempty and not value:
            raise ConfigError(f"{where} must be a {'nonempty ' if nonempty else ''}list")
        return [check(v, f"{where} entry") for v in value]
    return checked


def _refused(make, where: str, *args):
    """make(*args), a library constructor, with its refusal as a ConfigError."""
    try:
        return make(*args)
    except (ValueError, KeyError, TypeError) as e:
        raise ConfigError(f"{where}: {e}") from e


def _named(make):
    """A name that the library constructor make owns and checks."""
    def checked(value, where):
        _refused(make, where, str(value))
        return str(value)
    return checked


_ENTRY = {"k": _coerce_int, "component": _coerce_int, "re": _coerce_number, "im": _coerce_number}


def _explicit_entry(row, where: str) -> list:
    if not isinstance(row, list) or len(row) != 4:
        raise ConfigError(f"each explicit entry must be [k, component, re, im], got {row!r}")
    return [check(v, f"explicit entry {name}") for (name, check), v in zip(_ENTRY.items(), row)]


_H_RANGE = {"start": _coerce_number, "factor": _coerce_number, "count": _COUNT}


def _parse_h(value, where: str) -> list[float]:
    if isinstance(value, dict):
        r = _check_fields(value, _H_RANGE, where)
        missing = [key for key in _H_RANGE if key not in r]
        if missing:
            raise ConfigError(f"{where} geometric range is missing {missing[0]!r}")
        hs = [r["start"] * r["factor"] ** i for i in range(r["count"])]
    else:
        hs = _list_of(_coerce_number)(value, where)
    if any(h <= 0 for h in hs):
        raise ConfigError(f"{where} values must be positive")
    if any(b >= a for a, b in zip(hs, hs[1:])):
        raise ConfigError(f"{where} values must be strictly decreasing")
    return hs


# -- fields and sections


def _field(check, default=MISSING, *, kinds: tuple | None = None):
    """A config field: its check, its default (none: the key is required) and,
    in run.initial, the kinds that take it.

    A None default also takes null; a list, dict or section default is built
    afresh for each instance.
    """
    if default is None:
        check = _optional(check)
    meta = {"check": check, "kinds": kinds}
    if isinstance(default, (list, dict)):
        return field(default_factory=default.copy, metadata=meta)
    if isinstance(default, type):
        return field(default_factory=default, metadata=meta)
    return field(default=default, metadata=meta)


def _section(cls, required: bool = False):
    """A field holding the section cls, parsed from its object."""
    def parse(d, where):
        return cls(**_check_fields(d, cls, where))
    return _field(parse, MISSING if required else cls)


def _fields_of(cls, kind) -> list:
    """The fields of the dataclass cls that an object of the given kind takes."""
    return [f for f in dataclasses.fields(cls) if kind in (f.metadata["kinds"] or (kind,))]


def _check_fields(d, fields, where: str) -> dict:
    """The keys of the JSON object d, each with the value its check returns.

    fields maps each key to its check, or to None to keep the value as given,
    and None takes any key with a finite number.  A section dataclass stands
    for its fields as declared by _field: those without a default are
    required, and those with kinds are keys only of objects of those kinds.
    Refuses a non-object, missing and unknown keys, and values their checks
    refuse; where "" is the config root.
    """
    if not isinstance(d, dict):
        raise ConfigError(f"{where or 'config'} must be an object")
    at = f"{where}." if where else ""
    if fields is None:
        fields = dict.fromkeys(d, _coerce_number)
    elif isinstance(fields, type):
        declared = _fields_of(fields, d.get("kind", getattr(fields, "kind", None)))
        for f in declared:
            if f.default is MISSING and f.default_factory is MISSING and f.name not in d:
                raise ConfigError(f"{at}{f.name} is required")
        fields = {f.name: f.metadata["check"] for f in declared}
    out = {}
    for key, value in d.items():
        if key in fields:
            out[key] = value if fields[key] is None else fields[key](value, at + key)
    extra = set(d) - set(fields)
    if extra:
        raise ConfigError(f"unknown key(s) {sorted(extra)} in {where or 'config'}")
    return out


_POTENTIAL_FIELDS = {
    "poly": {"kind": None, "coeffs": lambda coeffs, where: _check_fields(coeffs, None, where)},
    "sine_gordon": {"kind": None, "gamma": _coerce_number},
}


def _check_potential(pot, where: str) -> None:
    kind = pot.get("kind", "poly") if isinstance(pot, dict) else "poly"
    if isinstance(kind, str) and kind in _POTENTIAL_FIELDS:  # make_model refuses any other
        _check_fields(pot, _POTENTIAL_FIELDS[kind], where)


# model.params per model, each key with its check; make_model refuses any other
# model.  The params dict is stored as given, so the config hash keeps its value.
_PARAM_FIELDS = {
    "nls": {"sigma": _coerce_int, "lam": _coerce_number},
    "nonlocal_nls": {"rho_min": _coerce_number},
    "wave": {"potential": _check_potential},
}


@dataclass
class ModelSection:
    name: str = _field(_text)
    params: dict = _field(_object, {})
    band: int = _field(_coerce_int, 16)
    n_phys: int | None = _field(_coerce_int, None)


@dataclass
class MethodSection:
    tableau: str = _field(_named(make_tableau), "midpoint")
    stage_tol: float = _field(_coerce_number, 1e-12)
    solver: str = _field(_text, "fixed_point")
    max_iter: int = _field(_coerce_int, 100)

    def stage_config(self) -> StageSolveConfig:
        return StageSolveConfig(
            scheme=self.solver, tol=self.stage_tol, max_iter=self.max_iter
        )


@dataclass
class InitialConditionSpec:
    kind: str = _field(_one_of(IC_KINDS), "gevrey_decay")
    tau: float = _field(_POSITIVE, 0.5, kinds=("gevrey_decay",))
    ell: float = _field(_ranged(_coerce_number, lambda v: v >= 0, "nonnegative"), 2.0,
                        kinds=("gevrey_decay",))
    amplitude: float = _field(_coerce_number, 0.4, kinds=("gevrey_decay", "plane_wave"))
    seed: int | None = _field(_coerce_int, None, kinds=("gevrey_decay",))
    k: int = _field(_coerce_int, 1, kinds=("plane_wave",))
    component: int = _field(_coerce_int, 0, kinds=("plane_wave",))
    entries: list = _field(_list_of(_explicit_entry, nonempty=False), [], kinds=("explicit",))

    def to_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in _fields_of(type(self), self.kind)}


@dataclass
class RunSection:
    h: list[float] = _field(_parse_h)
    T: float = _field(_POSITIVE)
    initial: InitialConditionSpec = _section(InitialConditionSpec)
    samples: int = _field(_ranged(_coerce_int, lambda v: v >= 2, "at least 2"), 33)
    m: float | None = _field(_POSITIVE, None)


@dataclass
class BeaSection:
    policy: str = _field(_named(TruncationPolicy), "explicit")
    n: list[int] = _field(_list_of(_COUNT), [3])
    m: list[float | None] = _field(_list_of(_optional(_POSITIVE)), [None])
    tau: float | None = _field(_coerce_number, None)
    delta: float = _field(_POSITIVE, 0.25)
    chi: float | None = _field(_coerce_number, None)
    c_F: float | None = _field(_coerce_number, None)
    n_max: int = _field(_COUNT, N_MAX_DEFAULT)
    q: float | None = _field(_coerce_number, None)


@dataclass
class OutputSection:
    directory: str = _field(_text, "out")
    formats: list[str] = _field(_list_of(_one_of(OUTPUT_FORMATS), nonempty=False), ["csv"])


@dataclass(kw_only=True)
class ExperimentConfig:
    model: ModelSection = _section(ModelSection, required=True)
    method: MethodSection = _section(MethodSection)
    run: RunSection = _section(RunSection, required=True)
    bea: BeaSection = _section(BeaSection)
    output: OutputSection = _section(OutputSection)

    @classmethod
    def from_dict(cls, d: dict) -> "ExperimentConfig":
        cfg = cls(**_check_fields(d, cls, ""))
        cfg.validate()
        return cfg

    def to_dict(self) -> dict:
        """Every field of every section; run.initial keeps only its kind's keys."""
        out = asdict(self)
        out["run"]["initial"] = self.run.initial.to_dict()
        return out

    def validate(self) -> None:
        """The checks that span fields: params against the model name, the
        library types built from several fields, and the initial data against
        the model and the band."""
        if self.model.name in _PARAM_FIELDS:
            _check_fields(self.model.params, _PARAM_FIELDS[self.model.name], "model.params")
        model, grid = self.resolve_model(), self.make_grid()
        _refused(self.method.stage_config, "method.solver, stage_tol, max_iter")
        if self.bea.q is not None and self.bea.q != model.q:
            raise ConfigError(
                f"bea.q = {self.bea.q} contradicts the model's eigenvalue growth "
                f"exponent q = {model.q}"
            )
        if self.bea.policy == "coupled" and (self.bea.tau is None or self.bea.tau <= 0):
            raise ConfigError("coupled bea policy requires tau > 0")
        ic = self.run.initial
        if ic.kind == "gevrey_decay" and ic.amplitude <= 0:
            raise ConfigError("gevrey_decay needs amplitude > 0")
        if ic.kind == "explicit" and not ic.entries:
            raise ConfigError("explicit initial condition needs a nonempty entries list")
        modes = [(ic.k, ic.component)] if ic.kind == "plane_wave" else ic.entries
        for k, comp, *_value in modes:
            if abs(k) > grid.n_modes:
                raise ConfigError(f"run.initial mode {k} lies outside the band")
            if not 0 <= comp < model.components:
                raise ConfigError(f"run.initial component {comp} out of range")

    def resolve_model(self) -> PdeModel:
        return _refused(make_model, "invalid model section", self.model.name, self.model.params)

    def make_grid(self) -> FourierGrid:
        band, n_phys = self.model.band, self.model.n_phys
        return _refused(self.resolve_model().make_grid, "model.band, model.n_phys", band, n_phys)

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
