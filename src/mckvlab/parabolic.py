"""Integrating-factor time steppers for d/dt u = Lap(u) + F(t, u) on the torus.

The heat part is handled exactly through the semigroup multiplier
exp(-4 pi^2 |k|^2 dt); the remaining term F is advanced by the one
discrete map of the library, the second-order Lawson-Heun step.

The step evaluates F twice: once at the stored node and once at the
predictor state.  Trajectories record these predictor ("stage") states so
that linearised solves can differentiate the discrete scheme exactly;
derivative checks against finite differences of the solver then float on
pure O(eps^2) error instead of an O(dt^2) consistency floor.  A solve
along a trajectory without them raises ValueError in :func:`solver_states`.

Every solve in the library, nonlinear or linearised, single or stacked,
runs through the one time loop behind :func:`integrate`.  A solve along
a trajectory (:class:`LWOperator`, L_W with coefficients read along a
density, and :func:`solve_linear_lw`) takes no stepper: it runs on the
trajectory's own M steps.  :class:`ObservationOperator` evaluates stacked
trajectories at fixed space-time points, and its adjoint back-projects
point data onto the nodes; it groups the points by time bracket, so each
is one batched real matrix product against phases built once.

Every stack a solve reads or writes (forcings, backward weights, density
states and solutions) has one layout, (S, B, n, ..., n), indexed by the
solver state s the time loop hands each right-hand side: node m at s = m,
the Heun predictor of step m at s = M+1+m (S = 2M+1).  A :class:`Trajectory`
is one such stack without the B axis, and a solve reads it in place.

At the sizes of the library a stage is paid in numpy calls rather than
flops, so the per-stage kernels (the nonlinear mean-field right-hand side,
:meth:`LWOperator.apply` and :meth:`LWOperator.apply_transpose`) run their
padded transforms through plans of a fixed stack shape
(:class:`~mckvlab.spectral.PaddedPlan`), built once per solve or per
operator, bit for bit equal to the one-shot transforms of
:class:`~mckvlab.spectral.Grid`.  At d = 1 each padded transform is one
real matrix, so the two :class:`LWOperator` kernels fold their diagonals
ik and gradW into two matrices instead (:class:`_FoldedStage`), the one
with ik built once per grid and the one with gradW once per solve: a stage
is two matrix products, equal to the one-shot kernels to rounding.
For the same reason the time loop writes each predictor and node straight
into the state stack, and the backward recurrence each weight into its
state, with ``out=`` operations in the order of the unfused step, and the
kernels sum their d axis terms ik_j * a_j one axis at a time
(:func:`_divergence`); the bits are those of the step written with
temporaries.

Every time loop, forward and transposed, checks growth once, after its
last step (:func:`_check_growth`): the first step in loop order whose
state has a real or imaginary part that is not finite or exceeds
:data:`BLOWUP_LIMIT` in modulus raises :class:`NumericalBlowUp`.  So |z|
may reach sqrt(2) :data:`BLOWUP_LIMIT` unflagged.  The loops run on past a
blow-up under ``np.errstate(over="ignore", invalid="ignore")``, so the
error names the step a per-step guard would name and no ``RuntimeWarning``
escapes.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace
from functools import lru_cache
from pathlib import Path

import numpy as np
from scipy import sparse

from .spectral import (Grid, PaddedPlan, PotentialVec, SpectralField, _read_only, get_grid,
                       load_field, real_matrix, save_field)

BLOWUP_LIMIT = 1e12


class NumericalBlowUp(RuntimeError):
    """Raised when an integration produces non-finite or huge coefficients."""

    def __init__(self, step: int):
        self.step = step
        super().__init__(f"blow-up detected at step {step}")


@dataclass
class StepperConfig:
    """Time-stepping parameters.

    M is the number of Lawson-Heun steps over the horizon.  A solve whose
    state at some step has a real or imaginary part that is not finite or
    exceeds :data:`BLOWUP_LIMIT` in modulus raises :class:`NumericalBlowUp`
    naming the first such step; the guard reads the states once, after
    the loop, so a coefficient modulus up to sqrt(2) :data:`BLOWUP_LIMIT`
    passes.
    """

    M: int = 256

    def __post_init__(self):
        if self.M < 1:
            raise ValueError("step count M must be >= 1")


@dataclass
class Trajectory:
    """Time-indexed field on a uniform grid over [0, T], held as its state stack.

    ``states`` has shape (S, n, ..., n) in :func:`solver_states` order: the
    M+1 nodes, node 0 the initial condition, then, when S = 2M+1, the Heun
    predictor of step m at M+1+m.  ``coeffs`` (the nodes) and ``stages`` (the
    predictors, None when S = M+1) are views of it; only a trajectory that
    has stages can carry a solve (:func:`solver_states`).
    """

    T: float
    M: int
    states: np.ndarray
    coeffs: np.ndarray = field(init=False, repr=False)
    stages: np.ndarray | None = field(init=False, repr=False)

    def __post_init__(self):
        shape = np.shape(self.states)
        space = shape[1:]
        if (self.M < 1 or shape[:1] not in ((self.M + 1,), (2 * self.M + 1,))
                or len(space) not in (1, 2, 3) or len(set(space)) != 1):
            raise ValueError(f"states of shape {shape} do not match (M+1,) or (2M+1,) "
                             f"+ (n,) * d with M = {self.M} >= 1 and d in (1, 2, 3)")
        self.coeffs = self.states[:self.M + 1]
        self.stages = self.states[self.M + 1:] if shape[0] > self.M + 1 else None

    @property
    def d(self) -> int:
        return self.states.ndim - 1

    @property
    def n(self) -> int:
        return self.states.shape[1]

    @property
    def dt(self) -> float:
        return self.T / self.M

    @property
    def grid(self) -> Grid:
        return get_grid(self.n, self.d)

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
            "grid": {"d": self.d, "n": self.n},
        }
        (directory / "manifest.json").write_text(json.dumps(manifest, indent=2))
        width = len(str(self.M))
        for m in range(self.M + 1):
            f = SpectralField(self.d, self.n, self.coeffs[m])
            save_field(f, directory / f"node_{m:0{width}d}.csv")

    @classmethod
    def load(cls, directory) -> "Trajectory":
        """The nodes :meth:`save` wrote, without predictor stages; any other
        manifest key, such as the ``"scheme"`` of older artifacts, is ignored."""
        directory = Path(directory)
        manifest = json.loads((directory / "manifest.json").read_text())
        M = int(manifest["M"])
        width = len(str(M))
        return cls(float(manifest["T"]), M, np.array([
            load_field(directory / f"node_{m:0{width}d}.csv").coeffs for m in range(M + 1)]))


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
    A lone row of ``a`` goes in twice: BLAS splits the sum of a one-row
    product by its thread count.
    """
    A = a.shape[0]
    w = trapz_weights(a.shape[1], dt)
    aw = (a.reshape(A, a.shape[1], -1) * w[:, None]).reshape(A, -1)
    if A == 1:
        aw = np.concatenate([aw, aw])
    return (aw @ b.reshape(b.shape[0], -1).conj().T).real[:A]


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
    if not np.all((t >= -1e-12) & (t <= T + 1e-12)):  # False on NaN
        raise ValueError(f"time not finite or outside [0, {T}]")
    s = np.clip(t / (T / M), 0.0, M)
    m = np.minimum(s.astype(int), M - 1)
    return m, s - m


class ObservationOperator:
    """Evaluation of stacked trajectories at N fixed points (t_i, x_i).

    A point at time t_i = (m_i + w_i) T/M reads the nodes m_i and m_i+1 of
    trajectories over [0, T] with weights 1-w_i and w_i, and synthesises
    them exactly in space with the phases e^{2 pi i k . x_i} on ``grid``.
    The points are sorted stably by their bracket m_i and cut into C chunks
    of at most P = ceil(N / 2M) points of one bracket each, so the chunks
    hold at most N + M(P-1) < 1.5N rows, the unused ones zero.  Built
    once: the phases as one real (C, P, 2 n^d) array of interleaved
    (Re, Im) parts, the weights (2, C, P), each chunk's node pair (C, 2)
    and each point's row.  A forward map is then one batched real matrix
    product of the node pairs with the phases, and :meth:`adjoint` one
    batched product of the weighted data with the phases; the stack axis
    of the forward map is a batch axis, so a trajectory's values do not
    depend on its stack.  Times outside [0, T] and non-finite points are
    rejected.  ``key`` is (T, M, n, d), the trajectories the operator
    applies to.
    """

    def __init__(self, T: float, M: int, grid: Grid, t, x):
        self.key = (T, M, grid.n, grid.d)
        t = np.asarray(t, dtype=float)
        n_pts = len(t)
        x = np.asarray(x, dtype=float).reshape(n_pts, grid.d)
        bad = ~(np.isfinite(t) & np.isfinite(x).all(axis=1))
        if bad.any():
            i = int(np.argmax(bad))
            raise ValueError(f"observation point {i} is not finite: "
                             f"t = {t[i]}, x = {x[i].tolist()}")
        m, w = _time_bracket(t, T, M)

        # chunk c holds rows c*P .. c*P+P-1 of the points of bracket m_c
        P = max(1, -(-n_pts // (2 * M)))
        counts = np.bincount(m, minlength=M)
        chunks = -(-counts // P)
        order = np.argsort(m, kind="stable")
        # a point's row less its place in the sorted order, per bracket
        shift = (np.cumsum(chunks) - chunks) * P - (np.cumsum(counts) - counts)
        self._row = np.empty(n_pts, dtype=int)
        self._row[order] = np.arange(n_pts) + shift[m[order]]
        rows = int(chunks.sum()) * P
        m_c = np.repeat(np.arange(M), chunks)
        self._pairs = np.column_stack([m_c, m_c + 1])
        weights = np.zeros((2, rows))
        weights[:, self._row] = 1.0 - w, w
        self._w = weights.reshape(2, -1, P)

        # per-axis phases on the rows (zero on the unused ones), multiplied out
        for j in range(grid.d):
            e = 2j * np.pi * np.outer(x[:, j], grid.axis_modes)
            axis = np.zeros((rows, grid.n), dtype=complex)
            axis[self._row] = np.exp(e, out=e)
            phase = axis if j == 0 else (phase[:, :, None] * axis[:, None]).reshape(rows, -1)
        self._phases = phase.view(float).reshape(-1, P, 2 * grid.size)

        # the (M+1, 2C) sum of each chunk's two weighted rows into its nodes
        C2 = 2 * len(m_c)
        self._to_nodes = sparse.csr_matrix(
            (np.ones(C2), (self._pairs.ravel(), np.arange(C2))), shape=(M + 1, C2))

    def __call__(self, stacked: np.ndarray) -> np.ndarray:
        """Values of (B, M+1, n, ..., n) trajectories at the points, shape (B, N).

        Re(c phase) is the real product of the conjugated coefficients,
        read as (Re, Im) pairs, with the interleaved phases.
        """
        B, nodes = stacked.shape[:2]
        real = np.conjugate(stacked.reshape(B, nodes, -1)).view(float)
        r = real[:, self._pairs] @ self._phases.transpose(0, 2, 1)  # (B, C, 2, P)
        values = r[:, :, 0] * self._w[0] + r[:, :, 1] * self._w[1]
        return values.reshape(B, -1)[:, self._row]

    def adjoint(self, y: np.ndarray) -> np.ndarray:
        """Back-projection of point data y (N,) to the nodes, shape (M+1, n^d).

        The transpose of :meth:`__call__` under the bilinear pairing:
        Re sum(adjoint(y) * c) = y . self(c[None])[0] for every
        trajectory c of shape (M+1, n, ..., n).
        """
        _, C, P = self._w.shape
        data = np.zeros(C * P)
        data[self._row] = y
        back = (data.reshape(C, P) * self._w).transpose(1, 0, 2) @ self._phases  # (C, 2, 2 n^d)
        return (self._to_nodes @ back.reshape(2 * C, -1)).view(complex)


# ---------------------------------------------------------------------------
# the integrator


def integrate(u0: SpectralField, rhs, T: float, config: StepperConfig) -> Trajectory:
    """Integrate d/dt u = Lap(u) + F with M Lawson-Heun steps.

    ``rhs(s, u)`` returns the coefficients of F at solver state s (node m
    at s = m, the Heun predictor of step m at s = M+1+m) given its
    coefficient array u.  Deterministic for fixed inputs; raises
    :class:`NumericalBlowUp` on divergence.
    """
    return Trajectory(T, config.M, _integrate_arrays(u0.coeffs, rhs, T, config.M, u0.grid))


def _integrate_arrays(u0: np.ndarray, rhs, T: float, M: int, grid: Grid,
                      keep_stages: bool = True):
    """The time loop; ``u0`` may carry leading stack axes.

    Returns the states in :func:`solver_states` order, time first; only the
    M+1 nodes when ``keep_stages`` is False.  The predictor and the node of
    a step are written in place into their states, in the operation order
    of E * (u + dt * k1) and E * u + (0.5 * dt) * (E * k1 + k2); ``rhs(s, u)``
    reads the state u at index s, kept or not, and must not change it.
    """
    dt = T / M
    E = grid.heat_multiplier(dt)

    states = np.zeros((2 * M + 1 if keep_stages else M + 1,) + u0.shape, dtype=complex)
    states[0] = u0
    ustar = None if keep_stages else np.empty_like(states[0])
    incr = np.empty_like(states[0])  # (0.5 * dt) * (E * k1 + k2)

    with np.errstate(over="ignore", invalid="ignore"):
        for m in range(M):
            u = states[m]
            k1 = rhs(m, u)
            if keep_stages:
                ustar = states[M + 1 + m]
            np.multiply(dt, k1, out=ustar)
            np.add(u, ustar, out=ustar)
            np.multiply(E, ustar, out=ustar)
            k2 = rhs(M + 1 + m, ustar)
            np.multiply(E, k1, out=incr)
            np.add(incr, k2, out=incr)
            np.multiply(0.5 * dt, incr, out=incr)
            u = np.multiply(E, u, out=states[m + 1])
            np.add(u, incr, out=u)
    _check_growth(states[1:M + 1], range(1, M + 1))
    return states


def _divergence(ik: np.ndarray, a: np.ndarray) -> np.ndarray:
    """sum_j ik_j * a_j of per-axis coefficients a (d, ..., n, ..., n), summed one
    axis at a time in the order of the sum over axis 0; a new array."""
    out = ik[0] * a[0]
    for j in range(1, len(ik)):
        out += ik[j] * a[j]
    return out


def _check_growth(states: np.ndarray, steps, limit: float = BLOWUP_LIMIT):
    """The blow-up guard of every time loop, forward and transposed, run once
    after the loop.

    ``states`` stacks the state the loop wrote at each of ``steps``, in loop
    order.  A state with a real or imaginary part that is not finite or
    exceeds ``limit`` in modulus raises :class:`NumericalBlowUp` naming the
    first such step.  Max and min of the real view build no |z| temporary;
    they bound |z| to within a factor sqrt(2).
    """
    r = states.view(float)
    if not r.size or r.max() <= limit and r.min() >= -limit:  # False on NaN
        return
    r = r.reshape(len(steps), -1)
    ok = (r.max(axis=1) <= limit) & (r.min(axis=1) >= -limit)
    raise NumericalBlowUp(steps[int(np.argmin(ok))])


def heat_trajectory_exact(u0: SpectralField, T: float, M: int) -> Trajectory:
    """Analytic heat evolution sampled on the node grid (oracle helper); it
    has no predictor stages, so no solve runs along it."""
    ts = np.linspace(0.0, T, M + 1)
    return Trajectory(T, M, np.array([u0.coeffs * np.exp(u0.grid.lap_mult * t) for t in ts]))


# ---------------------------------------------------------------------------
# the linear operator L_W with time-dependent nonlocal coefficients


def _as_grad_coeffs(W: PotentialVec | SpectralField, grid: Grid) -> list[np.ndarray]:
    """Gradient coefficient arrays of a potential on ``grid``.

    The one gate of every potential W, direction H and transport potential
    V: a PotentialVec of another d, or a field of another (n, d), raises
    ValueError instead of broadcasting against the grid.
    """
    field = isinstance(W, SpectralField)
    if W.d != grid.d or field and W.n != grid.n:
        shape = f"n={W.n}, d={W.d}" if field else f"d={W.d}"
        raise ValueError(f"potential ({shape}) does not match the grid "
                         f"(n={grid.n}, d={grid.d})")
    c = W.coeffs if field else W.coeff_grid(grid.n)
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


def solver_states(traj: Trajectory) -> np.ndarray:
    """A trajectory's states in the order a solve reads them: ``traj.states``.

    Nodes 0..M come first, then the predictor of step m at M+1+m.  A
    trajectory without stored predictors (one from :meth:`Trajectory.load`
    or :func:`heat_trajectory_exact`, or built from nodes alone) raises
    ValueError: no solve along it is the derivative of the discrete map.
    """
    if traj.stages is None:
        raise ValueError(f"trajectory has no predictor stages: the Lawson-Heun scheme "
                         f"reads one at each of its {traj.M} steps")
    return traj.states


class LWOperator:
    """L_W along a fixed density trajectory, for stacks of B fields.

    L_W v = Lap(v) + div(v gradW * rho) + div(rho gradW * v), with rho
    read at the solver state s of each application, so that solves of
    (d/dt - L_W)v = g differentiate the discrete scheme exactly.  The
    values of the convolutions gradW_j * rho and of rho on the padded grid
    are precomputed at every state as one (S, 1+d, pad grid) array, of
    which ``conv1_phys`` and ``rho_phys`` are views.  At d >= 2 an
    application then costs one padded synthesis of v with its convolutions
    and one padded analysis, and its transpose one transposed analysis and
    one transposed synthesis.  Each of these runs a
    :class:`~mckvlab.spectral.PaddedPlan` that the operator builds on first
    use for each stack size B, so a state is a fixed set of BLAS calls into
    buffers the operator owns.  At d = 1 each is one :class:`_FoldedStage`
    instead: two real matrix products with ik and gradW folded in, equal to
    the plans to rounding.  Both applications return new arrays.
    :meth:`solve` and :meth:`solve_transpose` drop the plans and folded
    stages when they return, so an operator kept between solves (as in the
    memo of ``forward.linearisation``) holds no buffers.  Built from (W, rho_traj)
    alone, it solves on the M steps of ``rho_traj`` and reads rho from
    ``rho_traj.states``, not a copy; every linearised solve of the
    mean-field map goes through :meth:`solve`, and every weight on a transport
    forcing along rho goes back through :meth:`pull_back`, which reads the
    same padded rho.
    """

    def __init__(self, W, rho_traj: Trajectory):
        self.grid = grid = rho_traj.grid
        self.T = rho_traj.T
        self.M = rho_traj.M
        self.grad_w = _as_grad_coeffs(W, grid)
        self.rho_states = solver_states(rho_traj)  # (S, grid)
        d = grid.d
        padded = np.empty((len(self.rho_states), 1 + d) + grid.shape, dtype=complex)
        for j, gw in enumerate(self.grad_w):
            np.multiply(gw, self.rho_states, out=padded[:, j])
        padded[:, d] = self.rho_states
        self._phys = grid.to_padded(padded)  # (S, 1+d, pad grid): gradW_j * rho..., rho
        self.conv1_phys = self._phys[:, :d]  # (S, d, pad grid)
        self.rho_phys = self._phys[:, d]  # (S, pad grid)
        self._ik = grid.ik[:, None]  # (d, 1, grid)
        self._plans: dict[tuple[int, bool], tuple[PaddedPlan, PaddedPlan] | _FoldedStage] = {}

    def _plans_for(self, B: int, transpose: bool):
        """The operator's own plans for stacks of B fields, built on first use:
        at d = 1 one :class:`_FoldedStage`, at d >= 2 (synthesis, analysis)
        for :meth:`apply` and (transposed analysis, transposed synthesis) for
        :meth:`apply_transpose`."""
        plans = self._plans.get((B, transpose))
        if plans is None:
            d, plan = self.grid.d, self.grid.plan
            if d == 1:
                plans = _FoldedStage(self.grid, self.grad_w[0], B, transpose)
            elif transpose:
                plans = (plan("from_padded_transpose", (d, B)),
                         plan("to_padded_transpose", (1 + d, B)))
            else:
                plans = plan("to_padded", (1 + d, B)), plan("from_padded", (d, B))
            self._plans[B, transpose] = plans
        return plans

    def apply(self, s: int, v: np.ndarray) -> np.ndarray:
        """L_W v - Lap v at state s for a stacked v (B, grid); a new array."""
        if self.grid.d == 1:
            return self._plans_for(len(v), transpose=False)(self._phys[s], v)
        syn, ana = self._plans_for(len(v), transpose=False)
        # one padded synthesis for v and all gradW_j * v convolutions
        syn.x[0] = v
        for j, gw in enumerate(self.grad_w):
            np.multiply(gw, v, out=syn.x[1 + j])
        phys = syn.run()  # (1+d, B, pad grid)
        q = np.multiply(phys[:1], self.conv1_phys[s][:, None], out=ana.x)
        q += self.rho_phys[s] * phys[1:]
        return _divergence(self.grid.ik, ana.run())

    def apply_transpose(self, s: int, y: np.ndarray) -> np.ndarray:
        """Transpose of :meth:`apply` under the pairing Re sum(a * c); a new array.

        For stacks y and v of shape (B, grid),
        Re sum(y * apply(s, v)) = Re sum(apply_transpose(s, y) * v).
        The diagonals ik_j and gradW_j enter unconjugated; the d directions
        share one transposed padded analysis and one transposed synthesis.
        """
        if self.grid.d == 1:
            return self._plans_for(len(y), transpose=True)(self._phys[s], y)
        ana_t, syn_t = self._plans_for(len(y), transpose=True)
        np.multiply(self._ik, y, out=ana_t.x)
        r = ana_t.run()  # (d, B, pad grid)
        w = syn_t.x
        np.multiply(self.conv1_phys[s][0], r[0], out=w[0])
        for j in range(1, self.grid.d):
            w[0] += self.conv1_phys[s][j] * r[j]
        np.multiply(self.rho_phys[s], r, out=w[1:])
        back = syn_t.run()  # (1+d, B, grid)
        out = back[0] + self.grad_w[0] * back[1]
        for j in range(1, self.grid.d):
            out += self.grad_w[j] * back[1 + j]
        return out

    def pull_back(self, w: np.ndarray):
        """(r, back) of state weights w (S, grid) on div(rho (gradV * s)):
        r = from_padded_transpose(ik * w), (S, d, pad grid), and
        back = to_padded_transpose(rho_phys * r), (S, d, grid), so that
        Re sum(w * div(rho (gradV * s))) = Re sum(back * gradV * s) over the
        states and the d axes, for any stacks gradV and s."""
        r = self.grid.from_padded_transpose(self.grid.ik * w[:, None])
        return r, self.grid.to_padded_transpose(self.rho_phys[:, None] * r)

    def solve(self, forcing: np.ndarray | None, v0: np.ndarray | None = None,
              keep_stages: bool = True):
        """Solve (d/dt - L_W)v = g for B fields at once.

        ``forcing`` gives g at solver state s as ``forcing[s]``, shape
        (B, grid), and has a ``shape`` of (S, B, grid): an array, or an
        object that builds each state's forcing when the loop reads it.
        None is g = 0.  ``v0`` (B, grid) defaults to zero.  Returns the
        states of v in the same layout, (S, B, grid), or its M+1 nodes when
        ``keep_stages`` is False.
        """
        if v0 is None:
            v0 = np.zeros(forcing.shape[1:], dtype=complex)

        def rhs(s, v):
            lv = self.apply(s, v)
            if forcing is not None:
                lv += forcing[s]
            return lv

        try:
            return _integrate_arrays(v0, rhs, self.T, self.M, self.grid, keep_stages)
        finally:
            self._plans.clear()

    def solve_transpose(self, g: np.ndarray) -> np.ndarray:
        """Transpose of the map from forcing to nodes of :meth:`solve` (v0 = 0).

        ``g`` (M+1, grid) weights the nodes; returns w (S, grid) weighting
        the forcing at every solver state, so that for any forcing f
        (S, 1, grid) Re sum(g * solve(f)[:M + 1, 0]) = Re sum(w * f[:, 0]).
        The recurrence runs the steps of the time loop backwards, with its
        blow-up guard; each step is transposed through both stages.
        """
        M, grid = self.M, self.grid
        dt = self.T / M
        E = grid.heat_multiplier(dt)
        w = np.zeros((len(self.rho_states),) + g.shape[1:], dtype=complex)
        lam = g[M][None].astype(complex)  # weight of node m+1, (1, grid)
        with np.errstate(over="ignore", invalid="ignore"):
            for m in range(M - 1, -1, -1):
                # kappa2 = (0.5 dt) lam and kappa1 = E ((0.5 dt) lam + dt mu), written
                # into their states of w (predictor M+1+m, node m) as (1, grid) views
                s = M + 1 + m
                kappa2 = np.multiply(0.5 * dt, lam, out=w[s:s + 1])
                mu = self.apply_transpose(s, kappa2)  # weight of the predictor
                kappa1 = np.multiply(dt, mu, out=w[m:m + 1])
                np.add(kappa2, kappa1, out=kappa1)
                np.multiply(E, kappa1, out=kappa1)
                np.add(lam, mu, out=lam)
                np.multiply(E, lam, out=lam)
                back = self.apply_transpose(m, kappa1)
                back += g[m]
                lam += back
        self._plans.clear()
        # the weight lam of node m, m = M-1..1 in loop order, is w[M+m] / (0.5 dt)
        _check_growth(w[M + 1:2 * M][::-1], range(M - 1, 0, -1), 0.5 * dt * BLOWUP_LIMIT)
        _check_growth(lam[None], [0])
        return w


@lru_cache(maxsize=None)
def _folded_analysis(grid: Grid, transpose: bool) -> np.ndarray:
    """The matrix of :class:`_FoldedStage` that depends on the grid alone: the
    :func:`~mckvlab.spectral.real_matrix` of A ik, or of ik A^T for the
    transpose.  Cached per (grid, transpose) and read-only."""
    A, ik = grid.analysis, grid.ik[0]
    if transpose:
        return _read_only(real_matrix(ik[:, None] * A.T, real_in=False, real_out=True))
    return _read_only(real_matrix(A * ik, real_in=True, real_out=False))


class _FoldedStage:
    """L_W - Lap at d = 1, or its transpose, on stacks of B fields: two real
    matrix products around one product with the padded state c_s.

    With one axis each padded transform is one real matrix of :class:`Grid`,
    so the diagonals ik and gradW fold into two matrices: the one that holds
    ik depends on the grid alone (:func:`_folded_analysis`), the other is
    built per stage object.  With
    S the synthesis, A the analysis and c_s = [gradW * rho, rho] the two
    padded rows of state s,
    apply(s, v) = (v S * c_s[0] + v (gradW S) * c_s[1]) (A ik) and
    apply_transpose(s, y) = [r * c_s[0], r * c_s[1]] [S^T; S^T gradW] with
    r = y (ik A^T); complex operands are read as (Re, Im) pairs.  Each
    product has at least two rows (a lone field goes in over a zero row) and
    output widths padded to a multiple of 8, as in :meth:`Grid._per_axis`,
    so a row's bits do not depend on its stack.  A call returns a new array.
    """

    def __init__(self, grid: Grid, grad_w: np.ndarray, B: int, transpose: bool):
        S, pn = grid.synthesis, grid.pad_n
        if transpose:
            self._first = _folded_analysis(grid, transpose)
            self._second = real_matrix(np.concatenate([S.T, S.T * grad_w]),
                                       real_in=True, real_out=False)
        else:
            self._first = real_matrix(np.concatenate([S, grad_w[:, None] * S], axis=1),
                                      real_in=False, real_out=True)
            self._second = _folded_analysis(grid, transpose)
        rows = max(B, 2)
        self._B, self._transpose, self._width = B, transpose, 2 * grid.n
        a = np.zeros((rows, 2 * grid.n))
        self._x, self._a = a.view(complex)[:B], a
        self._p = np.empty((rows, self._first.shape[1]))
        self._q = np.empty((rows, self._second.shape[0]))
        if transpose:  # r as (rows, 1, pn) against the product (rows, 2, pn)
            self._in, self._out = self._p[:, None, :pn], self._q.reshape(rows, 2, pn)
        else:  # both padded fields as (rows, 2, pn)
            self._in = self._out = self._p[:, :2 * pn].reshape(rows, 2, pn)

    def __call__(self, c: np.ndarray, v: np.ndarray) -> np.ndarray:
        self._x[...] = v
        np.matmul(self._a, self._first, out=self._p)
        np.multiply(self._in, c, out=self._out)
        if not self._transpose:
            np.add(self._out[:, 0], self._out[:, 1], out=self._q)
        return (self._q @ self._second)[:self._B, :self._width].view(complex)


def solve_linear_lw(W, rho_traj: Trajectory, forcing: Trajectory | None,
                    u0: SpectralField) -> Trajectory:
    """Solve (d/dt - L_W)u = f, u(0) = u0, along a given density trajectory.

    Linear in (forcing, u0).  Runs on the time grid of the coefficient
    trajectory, which the forcing must share; both are read at their
    predictor stages, so both must have them.
    """
    if rho_traj.n != u0.n or rho_traj.d != u0.d:
        raise ValueError("coefficient trajectory grid mismatch")
    if forcing is not None:
        _check_same_time_grid(forcing, rho_traj)
    f = None if forcing is None else solver_states(forcing)[:, None]
    op = LWOperator(W, rho_traj)
    return Trajectory(rho_traj.T, rho_traj.M, op.solve(f, u0.coeffs[None])[:, 0])


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
    return rel_l2l2_error(coarse, Trajectory(fine.T, config.M, fine.coeffs[::2]))
