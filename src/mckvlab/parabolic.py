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
flops, so a stage looks up no kernel, and at d = 1 no stage of a
mean-field solve allocates an array.  The per-stage kernels (the
nonlinear mean-field right-hand side, and the kernel of each
:class:`LWOperator` direction) run their padded transforms through plans
of a fixed stack shape (:class:`~mckvlab.spectral.PaddedPlan`), bit for
bit equal to the one-shot transforms of :class:`~mckvlab.spectral.Grid`.
At d = 1 each padded transform is one real matrix, so the two
:class:`LWOperator` kernels fold their diagonals ik and gradW into two
matrices instead (:class:`_FoldedStage`), the one with ik built once per
grid: a stage is two ``np.dot`` products (one BLAS call each, without the
ufunc dispatch of ``np.matmul``), equal to the one-shot kernels to
rounding.  The backward weights w have a spare state row, so the
transposed stage reads state s in place as row 0 of the real rows s, s+1:
row 0 of a product does not depend on row 1.  The time loop writes each
predictor and node straight into the state stack, and the backward
recurrence each weight into its state, with ``out=`` operations in the
order of the unfused step, and the kernels sum their d axis terms
ik_j * a_j one axis at a time (:func:`_divergence`); the bits are those
of the step written with temporaries.  The heat factor
E is stored complex (:meth:`~mckvlab.spectral.Grid.heat_multiplier`) and
dt and dt/2 are 0-d complex arrays, so the products with them skip
numpy's conversion of a real factor and keep its bits; the backward
recurrence holds every operand as (1, grid), so that none of its
products broadcasts.

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
import math
import numbers
from dataclasses import dataclass, field, replace
from functools import lru_cache
from pathlib import Path

import numpy as np

from .spectral import (Grid, PotentialVec, SpectralField, _read_only, get_grid, load_field,
                       real_matrix, save_field)

BLOWUP_LIMIT = 1e12


class NumericalBlowUp(RuntimeError):
    """Raised when an integration produces non-finite or huge coefficients."""

    def __init__(self, step: int):
        self.step = step
        super().__init__(f"blow-up detected at step {step}")


def check_horizon(T):
    """ValueError unless the horizon T is a real number, finite and > 0: a
    negative or NaN T would end in a blow-up that did not happen, and T = 0
    in a constant trajectory."""
    if isinstance(T, bool) or not isinstance(T, numbers.Real) or not (math.isfinite(T) and T > 0):
        raise ValueError(f"horizon T must be finite and > 0, got {T!r}")


def _check_step_type(M):
    """ValueError unless the step count M is an integer; a bool or a float is not."""
    if isinstance(M, bool) or not isinstance(M, (int, np.integer)):
        raise ValueError(f"step count M must be an integer, got {M!r}")


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
        _check_step_type(self.M)
        if self.M < 1:
            raise ValueError("step count M must be >= 1")


@dataclass
class Trajectory:
    """Time-indexed field on a uniform grid over [0, T], held as its state stack.

    ``states`` has shape (S, n, ..., n) in :func:`solver_states` order: the
    M+1 nodes, node 0 the initial condition, then, when S = 2M+1, the Heun
    predictor of step m at M+1+m.  ``coeffs`` (the nodes) and ``stages`` (the
    predictors, None when S = M+1) are views of it; only a trajectory that
    has stages can carry a solve (:func:`solver_states`).  An M that is not
    an integer, or a T that is not finite and > 0 (:func:`check_horizon`),
    raises ValueError, and so do states of another shape.
    """

    T: float
    M: int
    states: np.ndarray
    coeffs: np.ndarray = field(init=False, repr=False)
    stages: np.ndarray | None = field(init=False, repr=False)

    def __post_init__(self):
        _check_step_type(self.M)
        check_horizon(self.T)
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
        manifest key, such as the ``"scheme"`` of older artifacts, is ignored.
        T and M are checked as :class:`Trajectory` checks them before a node is read."""
        directory = Path(directory)
        manifest = json.loads((directory / "manifest.json").read_text())
        T, M = manifest["T"], manifest["M"]
        _check_step_type(M)
        check_horizon(T)
        width = len(str(M))
        return cls(float(T), M, np.array([
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
    batched product of the weighted data with the phases, whose 2C chunk
    rows it sums into the M+1 nodes with numpy and no sparse matrix: each
    node adds its rows one after another from 0.0, in ascending row
    order, read through a fixed (K, M+1) table of row indices padded with
    a zero row.  The stack axis of the forward map is a batch axis, so a
    trajectory's values do not depend on its stack.  Times outside [0, T]
    and non-finite points are rejected, and so are times t that are not
    1-D and positions x whose shape is not (N, d).  ``key`` is (T, M, n,
    d), the trajectories the operator applies to.
    """

    def __init__(self, T: float, M: int, grid: Grid, t, x):
        self.key = (T, M, grid.n, grid.d)
        t, x = np.asarray(t, dtype=float), np.asarray(x, dtype=float)
        if t.ndim != 1 or x.shape != (len(t), grid.d):
            raise ValueError(f"observation times of shape {t.shape} and positions of shape "
                             f"{x.shape} do not match (N,) and (N, d) with d = {grid.d}")
        n_pts = len(t)
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

        # per-axis phases on the rows (zero on the unused ones), mode -k the conjugate of k
        h = grid.n // 2
        for j in range(grid.d):
            e = 2j * np.pi * np.outer(x[:, j], grid.axis_modes[:h + 1])
            axis = np.zeros((rows, grid.n), dtype=complex)
            axis[self._row, :h + 1] = np.exp(e, out=e)
            axis[self._row, h + 1:] = e[:, h - 1:0:-1].conj()
            phase = axis if j == 0 else (phase[:, :, None] * axis[:, None]).reshape(rows, -1)
        self._phases = phase.view(float).reshape(-1, P, 2 * grid.size)

        # the adjoint's chunk rows 0..2C-1 of each node in ascending order,
        # (K, M+1) for at most K rows a node, padded with the zero row 2C
        node = self._pairs.ravel()
        count = np.bincount(node, minlength=M + 1)
        place = np.arange(len(node)) - np.repeat(np.cumsum(count) - count, count)
        self._node_rows = np.full((count.max(), M + 1), len(node))
        self._node_rows[place, np.repeat(np.arange(M + 1), count)] = np.argsort(node, kind="stable")

    def __call__(self, stacked: np.ndarray) -> np.ndarray:
        """Values of (B, M+1, n, ..., n) trajectories at the points, shape (B, N).

        Re(c phase) is the real product of the conjugated coefficients,
        read as (Re, Im) pairs, with the interleaved phases.  A stack of any
        other shape raises ``ValueError``.
        """
        _, M, n, d = self.key
        if stacked.shape[1:] != (M + 1,) + (n,) * d:
            raise ValueError(f"trajectories of shape {stacked.shape} do not match "
                             f"(B, {M + 1}) + {(n,) * d}")
        real = np.conjugate(stacked.reshape(len(stacked), M + 1, -1)).view(float)
        r = real[:, self._pairs] @ self._phases.transpose(0, 2, 1)  # (B, C, 2, P)
        values = r[:, :, 0] * self._w[0] + r[:, :, 1] * self._w[1]
        return values.reshape(len(stacked), -1)[:, self._row]

    def adjoint(self, y: np.ndarray) -> np.ndarray:
        """Back-projection of point data y (N,) to the nodes, shape (M+1, n^d).

        The transpose of :meth:`__call__` under the bilinear pairing:
        Re sum(adjoint(y) * c) = y . self(c[None])[0] for every
        trajectory c of shape (M+1, n, ..., n).  A y of any shape other
        than (N,) raises ``ValueError``.
        """
        if np.shape(y) != self._row.shape:
            raise ValueError(f"point data of shape {np.shape(y)} do not match the "
                             f"{len(self._row)} observation points")
        _, C, P = self._w.shape
        data = np.zeros(C * P)
        data[self._row] = y
        rows = np.zeros((2 * C + 1, self._phases.shape[2]))
        np.matmul((data.reshape(C, P) * self._w).transpose(1, 0, 2), self._phases,
                  out=rows[:-1].reshape(C, 2, -1))
        # the reduction runs over the K levels in order, adding row by row from 0.0
        return np.add.reduce(rows.take(self._node_rows, axis=0), axis=0, initial=0.0).view(complex)


# ---------------------------------------------------------------------------
# the integrator


def integrate(u0: SpectralField, rhs, T: float, config: StepperConfig) -> Trajectory:
    """Integrate d/dt u = Lap(u) + F with M Lawson-Heun steps.

    ``rhs(s, u, out)`` writes into ``out`` the coefficients of F at solver
    state s (node m at s = m, the Heun predictor of step m at s = M+1+m)
    given its coefficient array u, which it must not change; ``out`` is a
    buffer of u's shape that the loop owns and that shares no memory with
    the returned states.  Deterministic for fixed inputs; raises
    :class:`NumericalBlowUp` on divergence.
    """
    return Trajectory(T, config.M, _integrate_arrays(u0.coeffs, rhs, T, config.M, u0.grid))


def _integrate_arrays(u0: np.ndarray, rhs, T: float, M: int, grid: Grid,
                      keep_stages: bool = True):
    """The time loop; ``u0`` may carry leading stack axes.

    Returns the states in :func:`solver_states` order, time first; only the
    M+1 nodes when ``keep_stages`` is False.  ``rhs(s, u, out)`` reads the
    state u at index s, kept or not, and must not change it; it writes F at
    s into ``out``, one of two buffers of u's shape that the loop owns (k1
    at the node, k2 at the predictor) and that share no memory with the
    states.  The predictor and the node of a step are written in place into
    their states, in the operation order of E * (u + dt * k1) and
    E * u + (0.5 * dt) * (E * k1 + k2), with dt and 0.5 * dt held as 0-d
    complex arrays.
    """
    dt = T / M
    E = grid.heat_multiplier(dt)
    dt_c, half_dt = np.array(dt, dtype=complex), np.array(0.5 * dt, dtype=complex)

    states = np.zeros((2 * M + 1 if keep_stages else M + 1,) + u0.shape, dtype=complex)
    states[0] = u0
    ustar = None if keep_stages else np.empty_like(states[0])
    k1, k2 = np.empty_like(states[0]), np.empty_like(states[0])

    with np.errstate(over="ignore", invalid="ignore"):
        for m in range(M):
            u = states[m]
            rhs(m, u, k1)
            if keep_stages:
                ustar = states[M + 1 + m]
            np.multiply(dt_c, k1, out=ustar)
            np.add(u, ustar, out=ustar)
            np.multiply(E, ustar, out=ustar)
            rhs(M + 1 + m, ustar, k2)
            # k1 becomes the increment (0.5 * dt) * (E * k1 + k2)
            np.multiply(E, k1, out=k1)
            np.add(k1, k2, out=k1)
            np.multiply(half_dt, k1, out=k1)
            u = np.multiply(E, u, out=states[m + 1])
            np.add(u, k1, out=u)
    _check_growth(states[1:M + 1], range(1, M + 1))
    return states


def _divergence(terms, out: np.ndarray, tmp: np.ndarray) -> np.ndarray:
    """sum_j ik_j * a_j over the d pairs (ik_j, a_j) of ``terms``, axis j's
    multiplier and per-axis coefficients (or any other d pairs of factors),
    summed one axis at a time in the order of the sum over axis 0, into
    ``out``, which it returns, through the scratch ``tmp`` of out's shape.
    A kernel that reads a plan's output pairs it with ik once per solve."""
    terms = iter(terms)
    ik, a = next(terms)
    np.multiply(ik, a, out=out)
    for ik, a in terms:
        out += np.multiply(ik, a, out=tmp)
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


def _as_grad_coeffs(W: PotentialVec | SpectralField, grid: Grid) -> tuple[np.ndarray, ...]:
    """Gradient coefficient arrays of a potential on ``grid``.

    The one gate of every potential W, direction H and transport potential
    V: a PotentialVec of another d, or a field of another (n, d), raises
    ValueError instead of broadcasting against the grid.  A PotentialVec's
    are read-only and kept for its last two values, built once per drift.
    """
    field = isinstance(W, SpectralField)
    if W.d != grid.d or field and W.n != grid.n:
        shape = f"n={W.n}, d={W.d}" if field else f"d={W.d}"
        raise ValueError(f"potential ({shape}) does not match the grid "
                         f"(n={grid.n}, d={grid.d})")
    return (tuple(grid.deriv(W.coeffs, j) for j in range(grid.d)) if field
            else _potential_grads(grid, W.K, W.values.tobytes()))


@lru_cache(maxsize=2)
def _potential_grads(grid: Grid, K: int, values: bytes) -> tuple[np.ndarray, ...]:
    c = PotentialVec(K, grid.d, np.frombuffer(values)).coeff_grid(grid.n)
    return tuple(_read_only(grid.deriv(c, j)) for j in range(grid.d))


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
    :class:`~mckvlab.spectral.PaddedPlan`, so a state is a fixed set of
    BLAS calls.  At d = 1 each is one :class:`_FoldedStage`
    instead: two real matrix products with ik and gradW folded in, equal to
    the plans to rounding.  Either is the kernel of a direction
    (:meth:`_kernel`), which :meth:`solve` and :meth:`solve_transpose`
    build once per solve and :meth:`apply` and :meth:`apply_transpose`
    once per call.  Built from (W, rho_traj)
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

    def _kernel(self, B: int, transpose: bool):
        """A kernel for stacks of B fields: ``(s, v, out)`` writes :meth:`apply`
        at state s of v into ``out``, and with ``transpose`` ``(s, y)``
        returns :meth:`apply_transpose` at state s of y.  At d = 1 the bound
        call of one :class:`_FoldedStage`, at d >= 2 a closure over two plans
        and their views: (synthesis, analysis), or (transposed analysis,
        transposed synthesis) for the transpose."""
        if self.grid.d == 1:
            stage = _FoldedStage(self.grid, self.grad_w[0], self._phys, B, transpose)
            return stage.transpose if transpose else stage.apply
        return self._planned_transpose(B) if transpose else self._planned_apply(B)

    def _planned_apply(self, B: int):
        """The d >= 2 kernel of :meth:`apply`: one padded synthesis of v with
        its d convolutions, one analysis of the products."""
        d, plan = self.grid.d, self.grid.plan
        syn, ana = plan("to_padded", (1 + d, B)), plan("from_padded", (d, B))
        v_in, conv_in = syn.x[0], list(zip(self.grad_w, syn.x[1:]))
        v_phys, conv_phys, syn_run, q, ana_run = syn.y[:1], syn.y[1:], syn.run, ana.x, ana.run
        conv1, rho = self.conv1_phys[:, :, None], self.rho_phys
        div_terms = list(zip(self.grid.ik, ana.y))
        q_tmp, div_tmp = np.empty_like(q), np.empty((B,) + self.grid.shape, dtype=complex)

        def kernel(s, v, out):
            # one padded synthesis for v and all gradW_j * v convolutions
            v_in[...] = v
            for gw, x in conv_in:
                np.multiply(gw, v, out=x)
            syn_run()
            np.multiply(v_phys, conv1[s], out=q)
            np.add(q, np.multiply(rho[s], conv_phys, out=q_tmp), out=q)
            ana_run()
            _divergence(div_terms, out, div_tmp)
        return kernel

    def _planned_transpose(self, B: int):
        """The d >= 2 kernel of :meth:`apply_transpose`: one transposed padded
        analysis of the d directions, one transposed synthesis."""
        d, plan = self.grid.d, self.grid.plan
        ana_t = plan("from_padded_transpose", (d, B))
        syn_t = plan("to_padded_transpose", (1 + d, B))
        ik, y_in, ana_run, r = self.grid.ik[:, None], ana_t.x, ana_t.run, ana_t.y
        w, syn_run, back = syn_t.x, syn_t.run, syn_t.y
        conv1, rho, grad_w = self.conv1_phys, self.rho_phys, self.grad_w
        w_tmp = np.empty_like(w[0])
        out, out_tmp = np.empty((2, B) + self.grid.shape, dtype=complex)

        def kernel(s, y):
            np.multiply(ik, y, out=y_in)
            ana_run()  # r: (d, B, pad grid)
            _divergence(zip(conv1[s], r), w[0], w_tmp)
            np.multiply(rho[s], r, out=w[1:])
            syn_run()  # back: (1+d, B, grid)
            np.multiply(grad_w[0], back[1], out=out)
            np.add(back[0], out, out=out)
            for j in range(1, d):
                np.add(out, np.multiply(grad_w[j], back[1 + j], out=out_tmp), out=out)
            return out
        return kernel

    def apply(self, s: int, v: np.ndarray) -> np.ndarray:
        """L_W v - Lap v at state s for a stacked v (B, grid); a new array."""
        out = np.empty(v.shape, dtype=complex)
        self._kernel(len(v), transpose=False)(s, v, out)
        return out

    def apply_transpose(self, s: int, y: np.ndarray) -> np.ndarray:
        """Transpose of :meth:`apply` under the pairing Re sum(a * c); a new array.

        For stacks y and v of shape (B, grid),
        Re sum(y * apply(s, v)) = Re sum(apply_transpose(s, y) * v).
        The diagonals ik_j and gradW_j enter unconjugated; the d directions
        share one transposed padded analysis and one transposed synthesis.
        """
        return self._kernel(len(y), transpose=True)(s, y).copy()

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
        ``keep_stages`` is False.  Other shapes, or neither a forcing nor
        ``v0``, raise ValueError before the first step.
        """
        S, f_shape = len(self.rho_states), None if forcing is None else tuple(forcing.shape)
        stack = np.shape(v0) if v0 is not None else (f_shape or ())[1:]
        if stack[1:] != self.grid.shape or f_shape not in (None, (S,) + stack):
            raise ValueError(f"forcing of shape {f_shape} and v0 of shape "
                             f"{None if v0 is None else np.shape(v0)} do not match (S, B) + grid "
                             f"and (B,) + grid with S = {S} and grid {self.grid.shape}")
        if v0 is None:
            v0 = np.zeros(stack, dtype=complex)
        kernel = self._kernel(len(v0), transpose=False)

        def forced(s, v, out):
            kernel(s, v, out)
            out += forcing[s]

        rhs = kernel if forcing is None else forced
        return _integrate_arrays(v0, rhs, self.T, self.M, self.grid, keep_stages)

    def solve_transpose(self, g: np.ndarray) -> np.ndarray:
        """Transpose of the map from forcing to nodes of :meth:`solve` (v0 = 0).

        ``g`` (M+1, grid) weights the nodes; returns w (S, grid) weighting
        the forcing at every solver state, so that for any forcing f
        (S, 1, grid) Re sum(g * solve(f)[:M + 1, 0]) = Re sum(w * f[:, 0]).
        The recurrence runs the steps of the time loop backwards, with its
        blow-up guard; each step is transposed through both stages, with dt
        and 0.5 * dt as 0-d complex arrays, as in the forward loop.  The returned w is a view of weights
        with a spare last state row, read at d = 1 as the module notes say.
        A ``g`` of another shape raises ValueError before the first step.
        """
        M, grid = self.M, self.grid
        if np.shape(g) != (M + 1,) + grid.shape:
            raise ValueError(f"node weights g of shape {np.shape(g)} do not match "
                             f"(M+1,) + grid = {(M + 1,) + grid.shape}")
        dt = self.T / M
        # every operand as (1, grid), so that no product broadcasts
        E = grid.heat_multiplier(dt)[None]
        dt_c, half_dt = np.array(dt, dtype=complex), np.array(0.5 * dt, dtype=complex)
        w = np.zeros((len(self.rho_states) + 1, 1) + g.shape[1:], dtype=complex)  # a spare row
        g = g[:, None]
        lam = g[M].astype(complex)  # weight of node m+1
        if grid.d == 1:  # the stage reads state s in place, as row 0 of the real rows s, s+1
            kernel = _FoldedStage(grid, self.grad_w[0], self._phys, 1, True).transpose_rows
            row = w.strides[0]
            w_in = np.ndarray((len(w) - 1, 2, 2 * grid.n), float, w, 0, (row, row, 8))
        else:
            kernel, w_in = self._kernel(1, transpose=True), w
        with np.errstate(over="ignore", invalid="ignore"):
            for m in range(M - 1, -1, -1):
                # kappa2 = (0.5 dt) lam and kappa1 = E ((0.5 dt) lam + dt mu), written
                # into their states of w (predictor M+1+m, node m)
                s = M + 1 + m
                kappa2 = np.multiply(half_dt, lam, out=w[s])
                mu = kernel(s, w_in[s])  # the weight of the predictor
                kappa1 = np.multiply(dt_c, mu, out=w[m])
                np.add(kappa2, kappa1, out=kappa1)
                np.multiply(E, kappa1, out=kappa1)
                np.add(lam, mu, out=lam)
                np.multiply(E, lam, out=lam)
                back = kernel(m, w_in[m])
                back += g[m]
                lam += back
        # the weight lam of node m, m = M-1..1 in loop order, is w[M+m] / (0.5 dt)
        _check_growth(w[M + 1:2 * M][::-1], range(M - 1, 0, -1), 0.5 * dt * BLOWUP_LIMIT)
        _check_growth(lam[None], [0])
        return w[:-1, 0]


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
    S the synthesis, A the analysis and c_s = [gradW * rho, rho] = phys[s]
    the two padded rows of state s,
    apply(s, v) = (v S * c_s[0] + v (gradW S) * c_s[1]) (A ik) and
    transpose(s, y) = [r * c_s[0], r * c_s[1]] [S^T; S^T gradW] with
    r = y (ik A^T); complex operands are read as (Re, Im) pairs.  Each
    product has at least two rows (a lone field goes in over a zero row) and
    output widths padded to a multiple of 8, as in :meth:`Grid._per_axis`,
    so a row's bits do not depend on its stack.  :meth:`apply` writes into
    ``out``; :meth:`transpose` and :meth:`transpose_rows` return a view of
    the stage's output buffer.
    """

    def __init__(self, grid: Grid, grad_w: np.ndarray, phys: np.ndarray, B: int,
                 transpose: bool):
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
        self._phys = phys
        a = np.zeros((rows, 2 * grid.n))
        self._x, self._a = a.view(complex)[:B], a
        self._p = np.empty((rows, self._first.shape[1]))
        self._q = np.empty((rows, self._second.shape[0]))
        self._r = np.empty((rows, self._second.shape[1]))
        self._y = self._r[:B, :2 * grid.n].view(complex)
        if transpose:  # r as (rows, 1, pn) against the product (rows, 2, pn)
            self._in, self._out = self._p[:, None, :pn], self._q.reshape(rows, 2, pn)
        else:  # both padded fields as (rows, 2, pn)
            self._in = self._out = self._p[:, :2 * pn].reshape(rows, 2, pn)
            self._sum = self._out[:, 0], self._out[:, 1]

    def apply(self, s: int, v: np.ndarray, out: np.ndarray):
        self._x[...] = v
        np.dot(self._a, self._first, out=self._p)
        np.multiply(self._in, self._phys[s], out=self._out)
        np.add(*self._sum, out=self._q)
        np.dot(self._q, self._second, out=self._r)
        out[...] = self._y

    def transpose(self, s: int, y: np.ndarray) -> np.ndarray:
        self._x[...] = y
        return self.transpose_rows(s, self._a)

    def transpose_rows(self, s: int, a: np.ndarray) -> np.ndarray:
        """:meth:`transpose` of the C-contiguous real rows ``a``."""
        np.dot(a, self._first, out=self._p)
        np.multiply(self._in, self._phys[s], out=self._out)
        np.dot(self._q, self._second, out=self._r)
        return self._y


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
