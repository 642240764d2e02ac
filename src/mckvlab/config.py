"""Experiment configuration: schema, validation, derived quantities, hashing.

Configs are YAML (JSON works too).  :data:`SCHEMA` is the one list of
keys: each entry holds the key's default, its type and its range, and
merging and validation walk it, so values reach
:attr:`ExperimentConfig.raw` typed (a float key holds a float even when
written ``1``).  Rules between keys (the truncation K against the grid,
the length of ``W0.values``, burn-in and thinning against ``n_steps``)
are checked after the merge.  All times are in the PDE's time units;
space is the unit torus [0,1)^d.
"""

from __future__ import annotations

import hashlib
import json
import math
import numbers
import operator
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import yaml

from .forward import ReactionSpec, decay_density, uniform_density
from .inference import ConstantsConfig, ForwardModel, SurrogateSpec, delta_n, lambda_min_bound
from .parabolic import StepperConfig
from .spectral import PotentialVec, SpectralField, count_dim, random_potential


class ConfigError(ValueError):
    """Raised for malformed or inconsistent experiment configurations."""


@dataclass(frozen=True)
class Key:
    """One config value: its default, its type and its range.

    ``type`` is int, float, str, list (a list of numbers) or the tuple of
    the allowed values.  ``range`` is a lower bound such as ``">= 1"`` or
    ``"> 0"``; ``null`` admits None, ``even`` asks for an even integer.
    An int key takes integers only (never a bool), a float key any finite
    real number, stored as a float, and a list key finite numbers.
    """

    default: object
    type: object
    range: str | None = None
    null: bool = False
    even: bool = False


SCHEMA = {
    "seed": Key(0, int, ">= 0"),                        # master seed
    "mode": Key("experimental", ("strict", "experimental")),
    "output": Key("out", str),                          # artifact directory (CLI --out overrides)
    "problem": {
        "kind": Key("mckv", ("mckv", "rd")),
        "d": Key(1, (1, 2, 3)),
        "K": Key(4, int, ">= 1"),                       # truncation radius of the potential space
        "T": Key(0.5, float, "> 0"),                    # horizon
        "phi": {                                        # initial probability density
            "type": Key("decay", ("decay", "uniform")),
            "zeta": Key(3.0, float),                    # coefficient decay exponent
            "amplitude": Key(0.3, float),               # coefficient scale; must keep phi > 0
        },
        "W0": {                                         # ground-truth potential
            "type": Key("random", ("random", "coeffs", "zero")),
            "amplitude": Key(0.4, float),
            "decay": Key(2.0, float),
            "seed": Key(1, int, ">= 0"),
            "values": Key([], list),                    # type coeffs: dim(E_K) coefficients
        },
        "reaction": Key("sin", ("sin", "logistic", "linear")),  # rd only
        "reaction_lam": Key(0.8, float),                # rd only: rate of 'linear'
    },
    "solver": {
        "n": Key(64, int, ">= 4", even=True),           # grid points per axis
        "M": Key(256, int, ">= 1"),                     # Lawson-Heun time steps
    },
    "constants": {                                      # exponent system for the validator
        "alpha": Key(2.0, float, "> -1"),
        "beta": Key(6.0, float, "> 0"),
        "zeta": Key(3.0, float),
        "w": Key(20.0, float),
    },
    "inference": {
        "N": Key(200, int, ">= 1"),                     # sample size
        "noise_std": Key(0.05, float, ">= 0"),
        "alpha": Key(None, float, "> -1", null=True),   # prior smoothness; null: constants.alpha
    },
    "surrogate": {
        "r": Key(1.0, float, "> 0"),                    # ball radius (strict mode: r_tilde, scaled D^-w)
        "lam": Key(None, float, "> 0", null=True),      # convexifier weight; null: admissible floor
        "c_hat": Key(1.0, float, "> 0"),                # stand-in for the non-constructive constant
        "c1_hat": Key(2.0, float, ">= 0", null=True),   # local regularity bound; null: probe estimate
    },
    "sampler": {
        "gamma": Key(None, float, "> 0", null=True),    # step size; null: stability heuristic
        "n_steps": Key(2000, int, ">= 2"),
        "burn_in": Key(None, int, ">= 0", null=True),   # null: n_steps // 5
        "thin": Key(1, int, ">= 1"),
    },
}

# type -> (the classes it takes, its name in an error)
_TYPES = {int: (numbers.Integral, "an integer"), float: (numbers.Real, "a number"),
          str: (str, "a string"), list: (list, "a list of numbers")}
_BOUNDS = {">=": operator.ge, ">": operator.gt}


def _is(value, kind) -> bool:
    return isinstance(value, kind) and not isinstance(value, bool)


def _reads_as_float(text) -> bool:
    """A string such as '1e-4', which YAML 1.1 reads as a string, not a float."""
    try:
        return isinstance(text, str) and float(text) == float(text)
    except ValueError:
        return False


def _typed(key: Key, value, name: str):
    """``value`` checked against ``key`` and converted to its type."""
    if value is None and key.null:
        return None
    if isinstance(key.type, tuple):
        if not any(type(value) is type(c) and value == c for c in key.type):
            raise ConfigError(f"{name} must be one of {', '.join(map(str, key.type))}, "
                              f"got {value!r}")
        return value
    kind, noun = _TYPES[key.type]
    if not _is(value, kind) or key.type is list and not all(
            _is(v, numbers.Real) for v in value):
        hint = " (YAML reads it as a string: write floats with a dot, e.g. 2.0e-4)" \
            if key.type is float and _reads_as_float(value) else ""
        raise ConfigError(f"{name} must be {noun}{' or null' if key.null else ''}, "
                          f"got {value!r}{hint}")
    value = [float(v) for v in value] if key.type is list else key.type(value)
    if key.type in (float, list) and not np.all(np.isfinite(value)):
        raise ConfigError(f"{name} must be finite, got {value!r}")
    if key.range is not None:
        op, bound = key.range.split()
        if not _BOUNDS[op](value, float(bound)):
            raise ConfigError(f"{name} must be {key.range}, got {value!r}")
    if key.even and value % 2:
        raise ConfigError(f"{name} must be even, got {value!r}")
    return value


def _square_and_inverse_finite(r: float) -> bool:
    """Whether r^2 and r^-2 are finite floats, for r > 0."""
    try:
        return math.isfinite(r**2) and math.isfinite(r**-2)
    except OverflowError:
        return False


def _merge(schema: dict, user, block: str = "") -> dict:
    """``user`` checked against ``schema``, each missing key at its default."""
    if not isinstance(user, dict):
        raise ConfigError(f"{block or 'the config'} must be a mapping, got {user!r}")
    unknown = set(user) - set(schema)
    if unknown:
        raise ConfigError(f"unknown keys in '{block or '<root>'}': {sorted(unknown)}")
    out = {}
    for name, key in schema.items():
        path = f"{block}.{name}" if block else name
        if isinstance(key, Key):
            out[name] = _typed(key, user.get(name, key.default), path)
        else:
            out[name] = _merge(key, user.get(name, {}), path)
    return out


def load_yaml(path) -> dict:
    """The mapping in a YAML (or JSON) config file; {} for an empty file."""
    path = Path(path)
    try:
        data = yaml.safe_load(path.read_text())
    except yaml.YAMLError as exc:
        raise ConfigError(f"cannot parse {path}: {exc}") from exc
    if data is None:
        return {}
    if not isinstance(data, dict):
        raise ConfigError(f"{path} must hold a mapping, got {type(data).__name__}")
    return data


@dataclass
class ExperimentConfig:
    """Validated experiment configuration with derived quantities."""

    raw: dict

    def __post_init__(self):
        self.raw = _merge(SCHEMA, self.raw)
        self._validate()

    # -- construction -----------------------------------------------------

    @classmethod
    def from_file(cls, path) -> "ExperimentConfig":
        return cls(raw=load_yaml(path))

    def _validate(self):
        """The rules between keys; each key on its own is checked by the merge."""
        p, s, sa = self.raw["problem"], self.raw["solver"], self.raw["sampler"]
        if p["K"] > s["n"] // 2 - 1:
            raise ConfigError(f"problem.K must be <= solver.n/2 - 1 = {s['n'] // 2 - 1}, "
                              "the largest mode the grid resolves")
        if p["W0"]["type"] == "coeffs":
            D = count_dim(p["K"], p["d"])
            if len(p["W0"]["values"]) != D:
                raise ConfigError(f"problem.W0.values must have length {D}")
        if sa["burn_in"] is not None and sa["burn_in"] >= sa["n_steps"]:
            raise ConfigError("sampler.burn_in must lie in [0, n_steps)")
        burn_in = sa["n_steps"] // 5 if sa["burn_in"] is None else sa["burn_in"]
        if sa["thin"] > sa["n_steps"] - burn_in:
            raise ConfigError("sampler.thin must be <= n_steps - burn_in, or no iterate is kept")
        # the lambda floor reads r^2 and r^-2 of the radius the surrogate is built at
        r = self.raw["surrogate"]["r"]
        if not _square_and_inverse_finite(r):
            raise ConfigError(f"surrogate.r must have a finite square and inverse square, "
                              f"got {r!r}")
        try:
            r = self.usable_surrogate_radius([])
        except OverflowError:
            r = math.inf
        if not _square_and_inverse_finite(r):
            raise ConfigError(f"constants.w must keep the strict-mode surrogate radius "
                              f"surrogate.r * D^-w = {r:.3e} at a finite square and "
                              "inverse square")

    # -- accessors ----------------------------------------------------------

    def __getitem__(self, key):
        return self.raw[key]

    @property
    def seed(self) -> int:
        return self.raw["seed"]

    @property
    def mode(self) -> str:
        return self.raw["mode"]

    def content_hash(self) -> str:
        """Deterministic digest of the merged config (provenance key)."""
        canon = json.dumps(self.raw, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canon.encode()).hexdigest()

    # -- builders -------------------------------------------------------------

    def stepper(self) -> StepperConfig:
        s = self.raw["solver"]
        return StepperConfig(M=s["M"])

    def phi(self) -> SpectralField:
        p = self.raw["problem"]
        spec = p["phi"]
        n, d = self.raw["solver"]["n"], p["d"]
        if spec["type"] == "uniform":
            return uniform_density(n, d)
        try:
            return decay_density(n, d, zeta=spec["zeta"], amplitude=spec["amplitude"])
        except ValueError as exc:
            raise ConfigError(f"problem.phi: {exc}") from exc

    def model(self) -> ForwardModel:
        """The configured forward model: phi, horizon, truncation and stepper."""
        p = self.raw["problem"]
        return ForwardModel(phi=self.phi(), T=p["T"], K=p["K"], stepper=self.stepper())

    def w0(self) -> PotentialVec:
        p = self.raw["problem"]
        spec = p["W0"]
        K, d = p["K"], p["d"]
        if spec["type"] == "zero":
            return PotentialVec.zeros(K, d)
        if spec["type"] == "coeffs":
            return PotentialVec(K, d, spec["values"])
        rng = np.random.default_rng(spec["seed"])
        return random_potential(K, d, rng, amplitude=spec["amplitude"], decay=spec["decay"])

    def reaction(self) -> ReactionSpec:
        p = self.raw["problem"]
        name = p["reaction"]
        if name == "sin":
            return ReactionSpec(R=np.sin, Rprime=np.cos)
        if name == "logistic":
            return ReactionSpec(R=lambda u: u * (1.0 - u),
                                Rprime=lambda u: 1.0 - 2.0 * u)
        lam = p["reaction_lam"]
        return ReactionSpec(R=lambda u: lam * u,
                            Rprime=lambda u: lam * np.ones_like(u))

    def constants(self) -> ConstantsConfig:
        return ConstantsConfig(d=self.raw["problem"]["d"], mode=self.mode,
                               **self.raw["constants"])

    def prior_alpha(self) -> float:
        a = self.raw["inference"]["alpha"]
        return a if a is not None else self.raw["constants"]["alpha"]

    def derived(self) -> dict:
        """Derived quantities recomputed for manifests and reports; the radius
        and lambda floor are those the surrogate is built at,
        :meth:`usable_surrogate_radius` (whose warning the command reports)."""
        p, sur = self.raw["problem"], self.raw["surrogate"]
        D = count_dim(p["K"], p["d"])
        N = self.raw["inference"]["N"]
        delta = delta_n(self.prior_alpha(), p["d"], N)
        r = self.usable_surrogate_radius([])
        out = {
            "D": D,
            "delta_N": delta,
            "N_delta2": N * delta**2,
            "surrogate_r": r,
            "dt": p["T"] / self.raw["solver"]["M"],
        }
        if sur["c1_hat"] is not None:
            out["lambda_floor"] = lambda_min_bound(N, r, sur["c_hat"], sur["c1_hat"])
        return out

    def surrogate_radius(self, D: int) -> float:
        """Ball radius: r directly in experimental mode, r_tilde * D^-w in strict."""
        r = self.raw["surrogate"]["r"]
        if self.mode == "strict":
            return r * float(D) ** -self.raw["constants"]["w"]
        return r

    def usable_surrogate_radius(self, warnings: list[str]) -> float:
        """:meth:`surrogate_radius` at the configured D, or the experimental-mode r,
        with a warning in ``warnings``, if strict-mode scaling takes it below 1e-12."""
        p = self.raw["problem"]
        r = self.surrogate_radius(count_dim(p["K"], p["d"]))
        if r < 1e-12:
            warnings.append(
                f"surrogate radius r={r:.3e} is astronomically small; "
                "strict-mode scaling D^-w is impractical at this dimension; "
                "proceeding with the experimental-mode radius")
            r = self.raw["surrogate"]["r"]
        return r

    def surrogate(self, W_init: PotentialVec, n_obs: int, c1_hat: float,
                  warnings: list[str]) -> SurrogateSpec:
        """The configured surrogate around ``W_init`` at :meth:`usable_surrogate_radius`;
        a lam below the floor, known only once c1_hat is, raises ConfigError."""
        sur = self.raw["surrogate"]
        r = self.usable_surrogate_radius(warnings)
        try:
            return SurrogateSpec.build(r=r, W_init=W_init, n_obs=n_obs, c_hat=sur["c_hat"],
                                       c1_hat=c1_hat, lam=sur["lam"])
        except ValueError as exc:
            raise ConfigError(f"surrogate.lam: {exc}") from exc
