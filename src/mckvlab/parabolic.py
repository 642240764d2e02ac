"""Integrating-factor time steppers for d/dt u = Lap(u) + F(t, u) on the torus.

The heat part is handled exactly through the semigroup multiplier
exp(-4 pi^2 |k|^2 dt); the remaining term F is advanced by an explicit
rule, either Lawson-Euler ("if-euler", first order) or Lawson-Heun
("if-heun", second order, the default).

The Heun scheme evaluates F twice per step: once at the stored node and
once at the predictor state.  Trajectories record these predictor
("stage") states so that linearised solves can differentiate the
discrete scheme exactly; derivative checks against finite differences
of the solver then float on pure O(eps^2) error instead of an O(dt^2)
consistency floor.

Every solve in the library, nonlinear or linearised, single or stacked,
runs through the one time loop behind :func:`integrate`.  The linear
operator L_W with coefficients read along a density trajectory is
:class:`LWOperator`; :class:`ObservationOperator` evaluates stacked
trajectories at fixed space-time points, and its adjoint back-projects
point data onto the nodes.

Every stack a solve reads or writes (forcings, backward weights, density
states and solutions) has one layout, (S, B, n, ..., n) in
:func:`solver_states` order: nodes 0..M, then the Heun predictors, so
S = 2M+1 for Lawson-Heun and M+1 for Lawson-Euler.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np
from scipy import sparse

from .spectral import Grid, PotentialVec, SpectralField, get_grid, load_field, save_field

SCHEMES = ("if-heun", "if-euler")
BLOWUP_LIMIT = 1e12


class NumericalBlowUp(RuntimeError):
    """Raised when an integration produces non-finite or huge coefficients."""

    def __init__(self, step: int):
        self.step = step
        super().__init__(f"blow-up detected at step {step}")


@dataclass
class StepperConfig:
    """Time-stepping parameters.

    M is the number of steps over the horizon and ``scheme`` one of
    :data:`SCHEMES`; a step whose largest coefficient modulus is not
    finite or exceeds :data:`BLOWUP_LIMIT` raises :class:`NumericalBlowUp`.
    """

    M: int = 256
    scheme: str = "if-heun"

    def __post_init__(self):
        if self.M < 1:
            raise ValueError("step count M must be >= 1")
        if self.scheme not in SCHEMES:
            raise ValueError(f"unknown scheme {self.scheme!r}; choose from {SCHEMES}")


@dataclass
class Trajectory:
    """Time-indexed field on a uniform grid over [0, T].

    ``coeffs`` has shape (M+1, n, ..., n); node 0 is the initial
    condition.  ``stages`` (shape (M, n, ..., n), optional) holds the
    Heun predictor states used inside each step.
    """

    T: float
    d: int
    n: int
    coeffs: np.ndarray
    scheme: str = "if-heun"
    stages: np.ndarray | None = None

    def __post_init__(self):
        space = (self.n,) * self.d
        shape = np.shape(self.coeffs)
        if len(shape) != self.d + 1 or shape[0] < 2 or shape[1:] != space:
            raise ValueError(f"coeffs of shape {shape} do not match (M+1,) + {space} "
                             "with M >= 1")
        if self.stages is not None and np.shape(self.stages) != (shape[0] - 1,) + space:
            raise ValueError(f"stages of shape {np.shape(self.stages)} do not match "
                             f"(M,) + {space} with M = {shape[0] - 1}")

    @property
    def M(self) -> int:
        return self.coeffs.shape[0] - 1

    @property
    def dt(self) -> float:
        return self.T / self.M

    @property
    def grid(self) -> Grid:
        return get_grid(self.n, self.d)

    def node(self, m: int) -> SpectralField:
        return SpectralField(self.d, self.n, self.coeffs[m].copy())

    @classmethod
    def from_states(cls, states: np.ndarray, T: float, M: int,
                    scheme: str) -> "Trajectory":
        """The trajectory of ``states`` (S, n, ..., n) in :func:`solver_states`
        order, as views: nodes 0..M, and the predictors if S > M+1."""
        stages = states[M + 1:] if len(states) > M + 1 else None
        return cls(T=T, d=states.ndim - 1, n=states.shape[1], coeffs=states[:M + 1],
                   scheme=scheme, stages=stages)

    def without_stages(self) -> "Trajectory":
        """The nodes alone, copied, so no predictor memory stays alive."""
        return replace(self, coeffs=self.coeffs.copy(), stages=None)

    # -- point evaluation ----------------------------------------------------

    def eval(self, t: float, x) -> float:
        """Linear interpolation in time, exact synthesis in space."""
        m, w = _time_bracket(float(t), self.T, self.M)
        c = (1.0 - w) * self.coeffs[int(m)] + w * self.coeffs[int(m) + 1]
        return SpectralField(self.d, self.n, c).eval(x)

    def eval_batch(self, t: np.ndarray, x: np.ndarray) -> np.ndarray:
        """Vectorized evaluation at points (t_i, x_i); x has shape (N, d)."""
        return ObservationOperator(self.T, self.M, self.grid, t, x)(self.coeffs[None])[0]

    # -- norms ----------------------------------------------------------------

    def l2l2_norm(self) -> float:
        return float(np.sqrt(l2l2_inner(self, self)))

    def zero_mode(self) -> np.ndarray:
        """Mass trace: node values of the k=0 coefficient."""
        idx = (slice(None),) + (0,) * self.d
        return self.coeffs[idx].real.copy()

    # -- serialization ----------------------------------------------------------

    def save(self, directory):
        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        manifest = {
            "T": self.T,
            "M": self.M,
            "scheme": self.scheme,
            "grid": {"d": self.d, "n": self.n},
        }
        (directory / "manifest.json").write_text(json.dumps(manifest, indent=2))
        width = len(str(self.M))
        for m in range(self.M + 1):
            f = SpectralField(self.d, self.n, self.coeffs[m])
            save_field(f, directory / f"node_{m:0{width}d}.csv")

    @classmethod
    def load(cls, directory) -> "Trajectory":
        directory = Path(directory)
        manifest = json.loads((directory / "manifest.json").read_text())
        d = int(manifest["grid"]["d"])
        n = int(manifest["grid"]["n"])
        M = int(manifest["M"])
        width = len(str(M))
        coeffs = np.zeros((M + 1,) + (n,) * d, dtype=complex)
        for m in range(M + 1):
            coeffs[m] = load_field(directory / f"node_{m:0{width}d}.csv").coeffs
        return cls(T=float(manifest["T"]), d=d, n=n, coeffs=coeffs,
                   scheme=manifest.get("scheme", "if-heun"))


def trapz_weights(nodes: int, dt: float) -> np.ndarray:
    """Trapezoid-in-time weights of ``nodes`` nodes spaced ``dt``: dt/2 at
    both ends and dt inside."""
    w = np.full(nodes, dt)
    w[0] = w[-1] = 0.5 * dt
    return w


def trapz_inner(a: np.ndarray, b: np.ndarray, dt: float) -> np.ndarray:
    """Trapezoid-in-time L2([0,T];L2) inner products of two stacks.

    ``a`` (A, M+1, grid) and ``b`` (B, M+1, grid) hold coefficient
    trajectories with node spacing ``dt``; returns the real (A, B)
    matrix of sum_m w_m Re<a_m, b_m> with the :func:`trapz_weights` w.
    """
    w = trapz_weights(a.shape[1], dt)
    aw = (a.reshape(a.shape[0], a.shape[1], -1) * w[:, None]).reshape(a.shape[0], -1)
    return (aw @ b.reshape(b.shape[0], -1).conj().T).real


def _check_same_time_grid(a: Trajectory, b: Trajectory):
    if a.M != b.M or abs(a.T - b.T) > 1e-12 or a.n != b.n or a.d != b.d:
        raise ValueError("trajectory grids do not match")


def l2l2_inner(a: Trajectory, b: Trajectory) -> float:
    """Trapezoid-in-time L2([0,T];L2) inner product of two trajectories."""
    _check_same_time_grid(a, b)
    return float(trapz_inner(a.coeffs[None], b.coeffs[None], a.dt)[0, 0])


def l2l2_diff_norm(a: Trajectory, b: Trajectory) -> float:
    _check_same_time_grid(a, b)
    diff = (a.coeffs - b.coeffs)[None]
    return float(np.sqrt(trapz_inner(diff, diff, a.dt)[0, 0]))


def rel_l2l2_error(a: Trajectory, ref: Trajectory) -> float:
    denom = ref.l2l2_norm()
    num = l2l2_diff_norm(a, ref)
    return num / denom if denom > 0 else num


def _time_bracket(t, T: float, M: int):
    """Node index m < M and weight w with t = (m + w) T/M, for t in [0, T]."""
    t = np.asarray(t, dtype=float)
    if np.any(t < -1e-12) or np.any(t > T + 1e-12):
        raise ValueError(f"time outside [0, {T}]")
    s = np.clip(t / (T / M), 0.0, M)
    m = np.minimum(s.astype(int), M - 1)
    return m, s - m


class ObservationOperator:
    """Evaluation of stacked trajectories at N fixed points (t_i, x_i).

    One sparse (N, M+1) matrix interpolates linearly in time between the
    nodes of trajectories over [0, T] (row i holds 1-w_i at node m_i and
    w_i at m_i+1), and the phases e^{2 pi i k . x_i} on ``grid``
    synthesise exactly in space; both are built once.  Times outside
    [0, T] are rejected.  :meth:`adjoint` is the transpose, so a
    gradient sum_i y_i dv(t_i, x_i) over a stack of derivatives costs
    one back-projection of y instead of an evaluation of every column.
    ``key`` is (T, M, n, d), the trajectories the operator applies to.
    """

    def __init__(self, T: float, M: int, grid: Grid, t, x):
        self.key = (T, M, grid.n, grid.d)
        t = np.asarray(t, dtype=float)
        n_pts = len(t)
        x = np.asarray(x, dtype=float).reshape(n_pts, grid.d)
        m, w = _time_bracket(t, T, M)
        self.interp = sparse.csr_matrix(
            (np.column_stack([1.0 - w, w]).ravel(), np.column_stack([m, m + 1]).ravel(),
             np.arange(0, 2 * n_pts + 1, 2)), shape=(n_pts, M + 1))
        phase = np.ones((n_pts, grid.size), dtype=complex)
        for j in range(grid.d):
            phase *= np.exp(2j * np.pi * np.outer(x[:, j], grid.kvec[j].ravel()))
        self.phase = phase

    def __call__(self, stacked: np.ndarray) -> np.ndarray:
        """Values of (B, M+1, n, ..., n) trajectories at the points, shape (B, N)."""
        B, nodes = stacked.shape[:2]
        size = self.phase.shape[1]
        cols = np.moveaxis(stacked.reshape(B, nodes, size), 0, 1).reshape(nodes, B * size)
        c = (self.interp @ cols).reshape(-1, B, size)
        return np.einsum("nbk,nk->bn", c, self.phase).real

    def adjoint(self, y: np.ndarray) -> np.ndarray:
        """Back-projection of point data y (N,) to the nodes, shape (M+1, n^d).

        The transpose of :meth:`__call__` under the bilinear pairing:
        Re sum(adjoint(y) * c) = y . self(c[None])[0] for every
        trajectory c of shape (M+1, n, ..., n).
        """
        return self.interp.T @ (y[:, None] * self.phase)


# ---------------------------------------------------------------------------
# the integrator


def integrate(u0: SpectralField, rhs, T: float, config: StepperConfig) -> Trajectory:
    """Integrate d/dt u = Lap(u) + F with the configured scheme.

    ``rhs(m, stage, u)`` returns the coefficients of F given the step
    index m, the stage flag (0: node at t_m, 1: Heun predictor at
    t_{m+1}) and the coefficient array u.  Deterministic for fixed
    inputs; raises :class:`NumericalBlowUp` on divergence.
    """
    states = _integrate_arrays(u0.coeffs, rhs, T, config, u0.grid)
    return Trajectory.from_states(states, T, config.M, config.scheme)


def _integrate_arrays(u0: np.ndarray, rhs, T: float, config: StepperConfig,
                      grid: Grid, keep_stages: bool = True):
    """The time loop; ``u0`` may carry leading stack axes.

    Returns the states in :func:`solver_states` order, time first; only the
    M+1 nodes for Lawson-Euler or when ``keep_stages`` is False.
    """
    M = config.M
    dt = T / M
    E = grid.heat_multiplier(dt)
    heun = config.scheme == "if-heun"
    keep = heun and keep_stages

    states = np.zeros((2 * M + 1 if keep else M + 1,) + u0.shape, dtype=complex)
    states[0] = u0

    u = u0.astype(complex)
    for m in range(M):
        k1 = rhs(m, 0, u)
        if heun:
            ustar = E * (u + dt * k1)
            if keep:
                states[state_index(M, m, 1)] = ustar
            k2 = rhs(m, 1, ustar)
            u = E * u + (0.5 * dt) * (E * k1 + k2)
        else:
            u = E * (u + dt * k1)
        _check_growth(u, m + 1)
        states[m + 1] = u
    return states


def _check_growth(u: np.ndarray, step: int):
    """The blow-up guard of every time loop, forward and transposed."""
    mx = np.max(np.abs(u))
    if not np.isfinite(mx) or mx > BLOWUP_LIMIT:
        raise NumericalBlowUp(step)


def solve_heat(u0: SpectralField, T: float, config: StepperConfig) -> Trajectory:
    """Pure heat flow (F = 0); nodes carry the exact semigroup."""
    zero = np.zeros_like(u0.coeffs)
    return integrate(u0, lambda m, s, u: zero, T, config)


def heat_trajectory_exact(u0: SpectralField, T: float, M: int) -> Trajectory:
    """Analytic heat evolution sampled on the node grid (oracle helper)."""
    g = u0.grid
    ts = np.linspace(0.0, T, M + 1)
    coeffs = np.array([u0.coeffs * np.exp(g.lap_mult * t) for t in ts])
    return Trajectory(T=T, d=u0.d, n=u0.n, coeffs=coeffs, scheme="exact")


# ---------------------------------------------------------------------------
# the linear operator L_W with time-dependent nonlocal coefficients


def _as_grad_coeffs(W, grid: Grid) -> list[np.ndarray]:
    """Gradient coefficient arrays of a potential given as vec or field."""
    if isinstance(W, PotentialVec):
        c = W.coeff_grid(grid.n)
    elif isinstance(W, SpectralField):
        c = W.coeffs
    else:
        c = np.asarray(W, dtype=complex)
    return [grid.deriv(c, j) for j in range(grid.d)]


def transport_forcing(grid: Grid, states: np.ndarray, grad_h: np.ndarray) -> np.ndarray:
    """div(rho gradH_b * rho) at every density state.

    ``states`` has shape (S, n, ..., n) and ``grad_h`` stacks the
    gradients of B directions H_b as (B, d, n, ..., n); returns
    (S, B, n, ..., n).  This is the forcing of the first derivative in
    direction H_b.
    """
    rho = states[:, None]
    return grid.transport_div(rho, list(np.moveaxis(grad_h, 1, 0)), rho)


def transport_forcing_transpose(grid: Grid, states: np.ndarray,
                                weights: np.ndarray) -> np.ndarray:
    """Transpose of :func:`transport_forcing` in ``grad_h``, summed over states.

    ``weights`` (S, n, ..., n) pairs with the forcing at each state;
    returns G of shape (d, n, ..., n) with
    Re sum(weights * transport_forcing(grid, states, grad_h)[:, b])
    = Re sum(G * grad_h[b]) for every direction b, so the directions
    enter only through that last contraction.
    """
    rho_phys = grid.to_padded(states)[:, None]  # (S, 1, pad grid)
    r = grid.from_padded_transpose(grid.ik * weights[:, None])
    back = grid.to_padded_transpose(rho_phys * r)  # (S, d, grid)
    return np.einsum("s...,sj...->j...", states, back)


def solver_states(traj: Trajectory, scheme: str) -> np.ndarray:
    """A trajectory's states in the order a solve reads them, time first.

    Nodes 0..M come first.  For Lawson-Heun the predictor of step m
    follows at :func:`state_index` M+1+m; a trajectory without stored
    stages supplies node m+1 there, which keeps the scheme second order.
    A trajectory from :meth:`Trajectory.from_states` already holds its
    states in this order, and gets a view of that buffer, not a copy.
    """
    if scheme != "if-heun":
        return traj.coeffs
    base, M = traj.coeffs.base, traj.M
    if (traj.stages is not None and base is not None and traj.stages.base is base
            and _layout(base[:M + 1]) == _layout(traj.coeffs)
            and _layout(base[M + 1:]) == _layout(traj.stages)):
        return base[:]
    predictors = traj.coeffs[1:] if traj.stages is None else traj.stages
    return np.concatenate([traj.coeffs, predictors], axis=0)


def _layout(a: np.ndarray) -> tuple:
    """Where a view starts, and its shape and strides: equal for equal views."""
    return a.__array_interface__["data"][0], a.shape, a.strides


def state_index(M: int, m: int, stage: int) -> int:
    """Position in :func:`solver_states` of stage 0 (node m) or 1 of step m."""
    return m if stage == 0 else M + 1 + m


def check_stepper(rho_traj: Trajectory, stepper: StepperConfig):
    """Reject a density trajectory from another time grid or scheme than ``stepper``."""
    if stepper.M != rho_traj.M:
        raise ValueError("stepper M must match the density trajectory")
    if stepper.scheme != rho_traj.scheme:
        raise ValueError(f"stepper scheme {stepper.scheme!r} must match the density "
                         f"trajectory's {rho_traj.scheme!r}")


class LWOperator:
    """L_W along a fixed density trajectory, for stacks of B fields.

    L_W v = Lap(v) + div(v gradW * rho) + div(rho gradW * v), with rho
    read at the node or predictor state matching each stage, so that
    solves of (d/dt - L_W)v = g differentiate the discrete scheme
    exactly.  The values of rho and of the convolutions gradW_j * rho
    on the padded grid are precomputed at every state; an application
    then costs one padded synthesis of v with its convolutions and one
    padded analysis (:meth:`Grid.to_padded`, :meth:`Grid.from_padded`).
    Built from (W, rho_traj, stepper) alone; every linearised solve of
    the mean-field map goes through :meth:`solve`.
    """

    def __init__(self, W, rho_traj: Trajectory, stepper: StepperConfig):
        check_stepper(rho_traj, stepper)
        self.grid = grid = rho_traj.grid
        self.config = stepper
        self.T = rho_traj.T
        self.M = rho_traj.M
        self.rho_states = solver_states(rho_traj, stepper.scheme)  # (S, grid)

        self.rho_phys = grid.to_padded(self.rho_states)  # (S, pad grid)
        self.grad_w = _as_grad_coeffs(W, grid)
        self._ik = grid.ik[:, None]  # (d, 1, grid)
        conv1 = np.stack([gw * self.rho_states for gw in self.grad_w], axis=1)
        self.conv1_phys = grid.to_padded(conv1)  # (S, d, pad grid)

    def apply(self, m: int, stage: int, v: np.ndarray) -> np.ndarray:
        """L_W v - Lap v for a stacked v of shape (B, grid)."""
        grid = self.grid
        s = state_index(self.M, m, stage)
        # one padded synthesis for v and all gradW_j * v convolutions
        comb = np.concatenate([v[None]] + [(gw * v)[None] for gw in self.grad_w], axis=0)
        phys = grid.to_padded(comb)  # (1+d, B, pad)
        v_phys, c2_phys = phys[0], phys[1:]
        q = v_phys[None] * self.conv1_phys[s][:, None] + self.rho_phys[s] * c2_phys
        return np.sum(self._ik * grid.from_padded(q), axis=0)

    def apply_transpose(self, m: int, stage: int, y: np.ndarray) -> np.ndarray:
        """Transpose of :meth:`apply` under the pairing Re sum(a * c).

        For stacks y and v of shape (B, grid),
        Re sum(y * apply(m, stage, v)) = Re sum(apply_transpose(m, stage, y) * v).
        The diagonals ik_j and gradW_j enter unconjugated; the d directions
        share one transposed padded analysis and one transposed synthesis.
        """
        grid = self.grid
        s = state_index(self.M, m, stage)
        r = grid.from_padded_transpose(self._ik * y)  # (d, B, pad grid)
        v_phys = np.sum(self.conv1_phys[s][:, None] * r, axis=0, keepdims=True)
        w = np.concatenate([v_phys, self.rho_phys[s] * r], axis=0)
        back = grid.to_padded_transpose(w)  # (1+d, B, grid)
        out = back[0]
        for j in range(grid.d):
            out += self.grad_w[j] * back[1 + j]
        return out

    def solve(self, forcing: np.ndarray | None, v0: np.ndarray | None = None,
              keep_stages: bool = True):
        """Solve (d/dt - L_W)v = g for B fields at once.

        ``forcing`` holds g at every solver state, shape (S, B, grid), or
        is None for g = 0; ``v0`` (B, grid) defaults to zero.  Returns the
        states of v in the same layout, (S, B, grid), or its M+1 nodes when
        ``keep_stages`` is False.
        """
        if v0 is None:
            v0 = np.zeros(forcing.shape[1:], dtype=complex)

        def rhs(m, stage, v):
            lv = self.apply(m, stage, v)
            return lv if forcing is None else lv + forcing[state_index(self.M, m, stage)]

        return _integrate_arrays(v0, rhs, self.T, self.config, self.grid, keep_stages)

    def solve_transpose(self, g: np.ndarray) -> np.ndarray:
        """Transpose of the map from forcing to nodes of :meth:`solve` (v0 = 0).

        ``g`` (M+1, grid) weights the nodes; returns w (S, grid) weighting
        the forcing at every solver state, so that for any forcing f
        (S, 1, grid) Re sum(g * solve(f)[:M + 1, 0]) = Re sum(w * f[:, 0]).
        The recurrence runs the steps of the time loop backwards, with its
        blow-up guard; a Heun step is transposed through both stages.
        """
        M, grid = self.M, self.grid
        dt = self.T / M
        E = grid.heat_multiplier(dt)
        heun = self.config.scheme == "if-heun"
        w = np.zeros((len(self.rho_states),) + g.shape[1:], dtype=complex)
        lam = g[M][None].astype(complex)  # weight of node m+1, (1, grid)
        for m in range(M - 1, -1, -1):
            if heun:
                kappa2 = (0.5 * dt) * lam
                mu = self.apply_transpose(m, 1, kappa2)  # weight of the predictor
                kappa1 = E * ((0.5 * dt) * lam + dt * mu)
                w[state_index(M, m, 1)] = kappa2[0]
                lam = E * (lam + mu)
            else:
                kappa1 = dt * (E * lam)
                lam = E * lam
            w[state_index(M, m, 0)] = kappa1[0]
            lam += self.apply_transpose(m, 0, kappa1) + g[m]
            _check_growth(lam, m)
        return w


def solve_linear_lw(W, rho_traj: Trajectory, forcing: Trajectory | None,
                    u0: SpectralField, config: StepperConfig) -> Trajectory:
    """Solve (d/dt - L_W)u = f, u(0) = u0, along a given density trajectory.

    Linear in (forcing, u0).  The coefficient trajectory and the forcing
    must share the time grid.  A forcing without stages is read at node
    m+1 in stage 1 of step m.
    """
    if rho_traj.n != u0.n or rho_traj.d != u0.d:
        raise ValueError("coefficient trajectory grid mismatch")
    if forcing is not None:
        if forcing.M != rho_traj.M or abs(forcing.T - rho_traj.T) > 1e-12:
            raise ValueError("forcing and coefficient time grids differ")
        if forcing.n != u0.n or forcing.d != u0.d:
            raise ValueError("forcing grid mismatch")
    if config.M != rho_traj.M:
        raise ValueError("stepper M must match the coefficient trajectory")

    op = LWOperator(W, rho_traj, config)
    f = None if forcing is None else solver_states(forcing, config.scheme)[:, None]
    return Trajectory.from_states(op.solve(f, u0.coeffs[None])[:, 0], rho_traj.T,
                                  config.M, config.scheme)


# ---------------------------------------------------------------------------
# diagnostics


def self_convergence_error(solve, config: StepperConfig) -> float:
    """Relative L2L2 distance between a solve at M steps and one at 2M.

    ``solve`` maps a StepperConfig to a Trajectory.  The refined
    trajectory is restricted to the coarse nodes before comparing, so
    the number is a plain Richardson-style error estimate for the
    returned solution.
    """
    coarse = solve(config)
    fine = solve(replace(config, M=2 * config.M))
    restricted = Trajectory(T=fine.T, d=fine.d, n=fine.n,
                            coeffs=fine.coeffs[::2], scheme=fine.scheme)
    return rel_l2l2_error(coarse, restricted)
