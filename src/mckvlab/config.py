"""Experiment configuration: schema, validation, derived quantities, hashing.

Configs are YAML (JSON works too) with the following blocks; all times
are in the PDE's time units, space is the unit torus [0,1)^d.

    seed: 123                 # uint64 master seed
    mode: experimental        # strict | experimental
    output: out               # artifact directory (CLI --out overrides)
    problem:
      kind: mckv              # mckv | rd
      d: 1
      K: 4                    # truncation radius of the potential space
      T: 0.5                  # horizon
      phi:                    # initial probability density
        type: decay           # decay | uniform
        zeta: 3.0             # coefficient decay exponent
        amplitude: 0.3        # coefficient scale; must keep phi > 0
      W0:                     # ground-truth potential
        type: random          # random | coeffs | zero
        amplitude: 0.4
        decay: 2.0
        seed: 1
        values: []            # for type: coeffs, length dim(E_K)
      reaction: sin           # rd only: sin | logistic | linear
      reaction_lam: 0.8       # rd only: rate for 'linear'
    solver:
      n: 64                   # grid points per axis (even)
      M: 256                  # time steps
      scheme: if-heun         # if-heun | if-euler
    constants:                # exponent system for the validator
      alpha: 2.0
      beta: 6.0
      zeta: 3.0
      w: 20.0
    inference:
      N: 200                  # sample size
      noise_std: 0.05
      alpha: 2.0              # prior smoothness (defaults to constants.alpha)
    surrogate:
      r: 1.0                  # ball radius (strict mode: r_tilde, scaled D^-w)
      lam: null               # convexifier weight; null -> admissible floor
      c_hat: 1.0              # stand-in for the non-constructive constant
      c1_hat: 2.0             # local regularity bound; null -> probe estimate
    sampler:
      gamma: null             # step size; null -> stability heuristic
      n_steps: 2000
      burn_in: null           # null -> 20%
      thin: 1
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import yaml

from .forward import ReactionSpec, decay_density, uniform_density
from .inference import ConstantsConfig
from .parabolic import StepperConfig
from .spectral import PotentialVec, SpectralField, count_dim, random_potential


class ConfigError(ValueError):
    """Raised for malformed or inconsistent experiment configurations."""


_DEFAULTS = {
    "seed": 0,
    "mode": "experimental",
    "output": "out",
    "problem": {
        "kind": "mckv", "d": 1, "K": 4, "T": 0.5,
        "phi": {"type": "decay", "zeta": 3.0, "amplitude": 0.3, "kmax": None},
        "W0": {"type": "random", "amplitude": 0.4, "decay": 2.0, "seed": 1,
               "values": []},
        "reaction": "sin",
        "reaction_lam": 0.8,
    },
    "solver": {"n": 64, "M": 256, "scheme": "if-heun"},
    "constants": {"alpha": 2.0, "beta": 6.0, "zeta": 3.0, "w": 20.0},
    "inference": {"N": 200, "noise_std": 0.05, "alpha": None},
    "surrogate": {"r": 1.0, "lam": None, "c_hat": 1.0, "c1_hat": 2.0},
    "sampler": {"gamma": None, "n_steps": 2000, "burn_in": None, "thin": 1},
}


def _merge(defaults, user, path=""):
    if not isinstance(user, dict):
        raise ConfigError(f"block '{path or '<root>'}' must be a mapping")
    out = {}
    for key, dval in defaults.items():
        if key in user:
            uval = user[key]
            if isinstance(dval, dict) and not (key == "W0" and uval is None):
                out[key] = _merge(dval, uval, f"{path}{key}.")
            else:
                out[key] = uval
        else:
            out[key] = dval
    unknown = set(user) - set(defaults)
    if unknown:
        raise ConfigError(f"unknown keys in '{path or '<root>'}': {sorted(unknown)}")
    return out


@dataclass
class ExperimentConfig:
    """Validated experiment configuration with derived quantities."""

    raw: dict
    source: str | None = None

    def __post_init__(self):
        self.raw = _merge(_DEFAULTS, self.raw)
        self._validate()

    # -- construction -----------------------------------------------------

    @classmethod
    def from_file(cls, path) -> "ExperimentConfig":
        path = Path(path)
        try:
            data = yaml.safe_load(path.read_text())
        except yaml.YAMLError as exc:
            raise ConfigError(f"cannot parse {path}: {exc}") from exc
        if data is None:
            data = {}
        return cls(raw=data, source=str(path))

    def _validate(self):
        r = self.raw
        if r["mode"] not in ("strict", "experimental"):
            raise ConfigError("mode must be strict or experimental")
        p = r["problem"]
        if p["kind"] not in ("mckv", "rd"):
            raise ConfigError("problem.kind must be mckv or rd")
        if p["d"] not in (1, 2, 3):
            raise ConfigError("problem.d must be 1, 2 or 3")
        if p["K"] < 1:
            raise ConfigError("problem.K must be >= 1")
        if p["T"] <= 0:
            raise ConfigError("problem.T must be positive")
        s = r["solver"]
        if s["n"] < 4 or s["n"] % 2:
            raise ConfigError("solver.n must be even and >= 4")
        if p["K"] > s["n"] // 2 - 1:
            raise ConfigError("problem.K exceeds the resolved modes of solver.n")
        if s["M"] < 1:
            raise ConfigError("solver.M must be >= 1")
        if s["scheme"] not in ("if-heun", "if-euler"):
            raise ConfigError("solver.scheme must be if-heun or if-euler")
        if p["phi"]["type"] not in ("decay", "uniform"):
            raise ConfigError("problem.phi.type must be decay or uniform")
        if p["W0"]["type"] not in ("random", "coeffs", "zero"):
            raise ConfigError("problem.W0.type must be random, coeffs or zero")
        if p["W0"]["type"] == "coeffs":
            D = count_dim(p["K"], p["d"])
            if len(p["W0"]["values"]) != D:
                raise ConfigError(f"problem.W0.values must have length {D}")
        if p["reaction"] not in ("sin", "logistic", "linear"):
            raise ConfigError("problem.reaction must be sin, logistic or linear")
        i = r["inference"]
        if i["N"] < 1:
            raise ConfigError("inference.N must be >= 1")
        if i["noise_std"] < 0:
            raise ConfigError("inference.noise_std must be >= 0")
        sur = r["surrogate"]
        if sur["r"] <= 0:
            raise ConfigError("surrogate.r must be positive")
        sa = r["sampler"]
        if sa["gamma"] is not None and not sa["gamma"] > 0:
            raise ConfigError("sampler.gamma must be positive (null: heuristic)")
        if sa["n_steps"] < 2:
            raise ConfigError("sampler.n_steps must be >= 2")
        if sa["burn_in"] is not None and not 0 <= sa["burn_in"] < sa["n_steps"]:
            raise ConfigError("sampler.burn_in must lie in [0, n_steps)")
        if sa["thin"] < 1:
            raise ConfigError("sampler.thin must be >= 1")
        burn_in = sa["n_steps"] // 5 if sa["burn_in"] is None else sa["burn_in"]
        if sa["thin"] > sa["n_steps"] - burn_in:
            raise ConfigError("sampler.thin must be <= n_steps - burn_in, or no iterate is kept")

    # -- accessors ----------------------------------------------------------

    def __getitem__(self, key):
        return self.raw[key]

    @property
    def seed(self) -> int:
        return int(self.raw["seed"])

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
        return StepperConfig(M=int(s["M"]), scheme=s["scheme"])

    def phi(self) -> SpectralField:
        p = self.raw["problem"]
        spec = p["phi"]
        n, d = int(self.raw["solver"]["n"]), int(p["d"])
        if spec["type"] == "uniform":
            return uniform_density(n, d)
        try:
            return decay_density(n, d, zeta=float(spec["zeta"]),
                                 amplitude=float(spec["amplitude"]),
                                 kmax=spec.get("kmax"))
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc

    def w0(self) -> PotentialVec:
        p = self.raw["problem"]
        spec = p["W0"]
        K, d = int(p["K"]), int(p["d"])
        if spec["type"] == "zero":
            return PotentialVec.zeros(K, d)
        if spec["type"] == "coeffs":
            return PotentialVec(K, d, np.asarray(spec["values"], dtype=float))
        rng = np.random.default_rng(int(spec["seed"]))
        return random_potential(K, d, rng, amplitude=float(spec["amplitude"]),
                                decay=float(spec["decay"]))

    def reaction(self) -> ReactionSpec:
        p = self.raw["problem"]
        name = p["reaction"]
        if name == "sin":
            return ReactionSpec(R=np.sin, Rprime=np.cos)
        if name == "logistic":
            return ReactionSpec(R=lambda u: u * (1.0 - u),
                                Rprime=lambda u: 1.0 - 2.0 * u)
        lam = float(p["reaction_lam"])
        return ReactionSpec(R=lambda u: lam * u,
                            Rprime=lambda u: lam * np.ones_like(u))

    def constants(self) -> ConstantsConfig:
        c = self.raw["constants"]
        return ConstantsConfig(d=int(self.raw["problem"]["d"]),
                               alpha=float(c["alpha"]), beta=float(c["beta"]),
                               zeta=float(c["zeta"]), w=float(c["w"]),
                               mode=self.mode)

    def prior_alpha(self) -> float:
        a = self.raw["inference"]["alpha"]
        return float(a) if a is not None else float(self.raw["constants"]["alpha"])

    def derived(self) -> dict:
        """Derived quantities recomputed for manifests and reports."""
        from .inference import delta_n, lambda_min_bound

        p = self.raw["problem"]
        D = count_dim(int(p["K"]), int(p["d"]))
        N = int(self.raw["inference"]["N"])
        alpha = self.prior_alpha()
        delta = delta_n(alpha, int(p["d"]), N)
        r = self.surrogate_radius(D)
        out = {
            "D": D,
            "delta_N": delta,
            "N_delta2": N * delta**2,
            "surrogate_r": r,
            "dt": float(p["T"]) / int(self.raw["solver"]["M"]),
        }
        c1 = self.raw["surrogate"]["c1_hat"]
        if c1 is not None:
            out["lambda_floor"] = lambda_min_bound(
                N, r, float(self.raw["surrogate"]["c_hat"]), float(c1))
        return out

    def surrogate_radius(self, D: int) -> float:
        """Ball radius: r directly in experimental mode, r_tilde * D^-w in strict."""
        r = float(self.raw["surrogate"]["r"])
        if self.mode == "strict":
            return r * float(D) ** (-float(self.raw["constants"]["w"]))
        return r
