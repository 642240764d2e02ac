"""Parameter-to-solution maps and their exact linearisations.

Two nonlinear parabolic problems on the torus:

* mean-field transport:  d/dt rho = Lap(rho) + div(rho gradW * rho),
  rho(0) = phi, with a mean-zero interaction potential W; solved by
  :func:`solve_mckv`.  Its first and second derivatives in W solve
  linear PDEs driven by the same operator L_W and are produced by
  :func:`mckv_first_derivative` / :func:`mckv_second_derivative`.
* reaction-diffusion:  d/dt u = Lap(u) + R(u), u(0) = phi, with the
  derivative in R solving d/dt i = Lap(i) + R'(u) i + H(u), i(0) = 0.

The linear solves read the nonlinear trajectory at the stored node and
predictor states, so each derivative is the exact derivative of the
discrete time-stepping map; finite-difference checks of the solver
therefore see pure O(eps^2) behaviour.  Every mean-field derivative is
a solve with :class:`~mckvlab.parabolic.LWOperator`, batched over
directions.  The basis derivatives are built in one place,
:class:`Linearisation`: one operator along rho_W, the D basis columns
from one stacked solve (:func:`jacobian_stack`), their Gram matrix, a
vector-Jacobian product from one backward solve of the exact transpose
of the discrete scheme whatever D is (:func:`jacobian_vjp`), D^2 rho_W
over the truncated basis with rows j and D-1-j folded into one solve,
ceil(D/2) solves in all, and the weighted sum of every
D^2 rho_W[tau_j, tau_k], the correction of the expected Hessian, from
one backward solve and no second-derivative solve.
:func:`mckv_first_derivative` and :func:`mckv_second_derivative` solve
one direction each and serve as the oracles of the stacked paths.

:func:`linearisation` keeps the :class:`Linearisation` of the
:data:`MEMO_SIZE` = 2 most recently used problems, keyed by their
content, so that the W and W0 of one diagnostics pass are solved once.
``inference.estimate_c1``, ``inference.expected_neg_hessian``,
``stability.stability_report``, ``stability.sigma_min_trend`` and
``stability.gradient_stability_sigma_min`` read it when no trajectory is
passed in; the likelihood and its gradient, ``inference.generate_data``,
:func:`jacobian_vjp` and :func:`solve_mckv` never do.  A memoised rho_W
and its columns are read-only.
"""

from __future__ import annotations

import functools
from collections import OrderedDict
from dataclasses import dataclass, field, replace

import numpy as np

from . import spectral
from .parabolic import (
    LWOperator,
    StepperConfig,
    Trajectory,
    _as_grad_coeffs,
    check_stepper,
    integrate,
    solver_states,
    state_index,
    transport_forcing,
    transport_forcing_transpose,
    trapz_inner,
)
from .spectral import PotentialVec, SpectralField, get_grid, tau_table


# ---------------------------------------------------------------------------
# problem containers


@dataclass
class ReactionSpec:
    """Reaction term R and its derivative R', applied pointwise.

    A load-time spot check compares R' with finite differences of R on a
    small probe set; an inconsistent pair is rejected immediately rather
    than surfacing as a failed linearisation later.  ``domain`` may
    restrict the admissible range of u.
    """

    R: callable
    Rprime: callable
    domain: tuple[float, float] | None = None
    probe: np.ndarray = field(default_factory=lambda: np.linspace(-2.0, 2.0, 9))

    def __post_init__(self):
        xs = np.asarray(self.probe, dtype=float)
        if self.domain is not None:
            lo, hi = self.domain
            xs = np.clip(xs, lo + 1e-3, hi - 1e-3)
        h = 1e-5
        fd = (np.asarray(self.R(xs + h)) - np.asarray(self.R(xs - h))) / (2 * h)
        given = np.asarray(self.Rprime(xs), dtype=float) * np.ones_like(xs)
        scale = 1.0 + np.abs(given)
        if np.max(np.abs(fd - given) / scale) > 1e-4:
            raise ValueError("Rprime disagrees with finite differences of R")


@dataclass
class McKVProblem:
    """Mean-field problem data: potential, initial density, horizon, stepper."""

    W: PotentialVec
    phi: SpectralField
    T: float
    stepper: StepperConfig

    def __post_init__(self):
        if self.W.d != self.phi.d:
            raise ValueError("potential and initial density dimension mismatch")
        if abs(self.phi.mean() - 1.0) > 1e-12:
            raise ValueError("initial density must have unit mass")
        if self.phi.conj_symmetry_defect() > 1e-10:
            raise ValueError("initial density must be a real field")
        if self.W.K > self.phi.n // 2 - 1:
            raise ValueError("potential truncation exceeds grid resolution")


# ---------------------------------------------------------------------------
# initial densities


def uniform_density(n: int, d: int) -> SpectralField:
    return SpectralField.constant(1.0, n, d)


def is_uniform(phi: SpectralField) -> bool:
    """Whether phi is constant: then rho_W = phi for every W, a steady
    state from which W cannot be identified."""
    return float(np.sum(np.abs(phi.coeffs)) - abs(phi.mean())) < 1e-13


def decay_density(n: int, d: int, zeta: float, amplitude: float = 0.25) -> SpectralField:
    """Probability density with coefficients amplitude * |k|^(-zeta).

    All nonzero resolved modes get the real positive coefficient
    amplitude * |k|^(-zeta); the mean is 1.  The construction is
    rejected if the resulting field is not strictly positive on the grid.
    """
    f = SpectralField.constant(1.0, n, d)
    g = f.grid
    with np.errstate(divide="ignore"):
        mag = amplitude * np.where(g.ksq > 0, g.ksq ** (-zeta / 2.0), 0.0)
    mag = mag * g.resolved
    mag[(0,) * d] = 0.0
    f.coeffs += mag
    min_val = float(np.min(f.values()))
    if min_val <= 0:
        raise ValueError(
            f"density not strictly positive (min {min_val:.3e}); "
            "reduce the amplitude or increase zeta")
    return f


# ---------------------------------------------------------------------------
# the trilinear transport operator


def trilinear_t(r: SpectralField, V, s: SpectralField) -> SpectralField:
    """div(r gradV * s): trilinear in (r, V, s).

    V may be a PotentialVec or a SpectralField; only its gradient
    enters, so constant shifts of V are annihilated exactly.
    """
    spectral._check_same_grid(r, s)
    grid = r.grid
    grad_v = _as_grad_coeffs(V, grid)
    return SpectralField(r.d, r.n, grid.transport_div(r.coeffs, grad_v, s.coeffs))


# ---------------------------------------------------------------------------
# mean-field forward map


def solve_mckv(problem: McKVProblem) -> Trajectory:
    """Solve the nonlinear mean-field PDE; mass is conserved exactly.

    The forcing is in divergence form, so the zero mode is untouched by
    every stage and |rho_hat(t, 0) - 1| stays at machine zero.
    """
    return solve_mckv_field(problem.W, problem.phi, problem.T, problem.stepper)


def solve_mckv_field(W_field: SpectralField, phi: SpectralField, T: float,
                     stepper: StepperConfig) -> Trajectory:
    """Forward solve for a raw potential field (zero mode permitted).

    Only gradW enters the dynamics, so injecting a constant into W
    leaves the trajectory unchanged; used to test shift invariance.
    """
    grid = phi.grid
    grad_w = _as_grad_coeffs(W_field, grid)
    return integrate(phi, lambda m, stage, u: grid.transport_div(u, grad_w, u), T, stepper)


def mckv_first_derivative(problem: McKVProblem, H: PotentialVec,
                          rho_traj: Trajectory) -> Trajectory:
    """Derivative of W -> rho_W in direction H, as a linear PDE solve.

    Solves (d/dt - L_W)v = div(rho gradH * rho), v(0) = 0, where rho is
    the supplied solution trajectory for ``problem``.  Linear in H.
    """
    op = LWOperator(problem.W, rho_traj, problem.stepper)
    grad_h = np.stack(_as_grad_coeffs(H, problem.phi.grid))[None]
    states = op.solve(transport_forcing(op.grid, op.rho_states, grad_h))
    return Trajectory.from_states(states[:, 0], op.T, op.M, op.config.scheme)


def _second_derivative_forcing(op: LWOperator, grad_h1, grad_h2, v1, v2) -> np.ndarray:
    """Forcing of D^2 rho_W[H1, H2_b] for one H1 and a stack of B directions H2_b.

    ``grad_h1`` holds d arrays (grid) and ``grad_h2`` d arrays (B, grid);
    ``v1`` (S, 1, grid) and ``v2`` (S, B, grid) are the first derivatives
    in solver-state order.  Returns the six-term expansion of the
    quadratic transport term at every state, shape (S, B, grid).
    """
    grid, rho = op.grid, op.rho_states[:, None]
    forcing = grid.transport_div(v2, grad_h1, rho)
    forcing += grid.transport_div(rho, grad_h1, v2)
    forcing += grid.transport_div(v1, grad_h2, rho)
    forcing += grid.transport_div(rho, grad_h2, v1)
    forcing += grid.transport_div(v1, op.grad_w, v2)
    forcing += grid.transport_div(v2, op.grad_w, v1)
    return forcing


def mckv_second_derivative(problem: McKVProblem, H1: PotentialVec,
                           H2: PotentialVec, rho_traj: Trajectory,
                           dH1: Trajectory, dH2: Trajectory) -> Trajectory:
    """Second derivative of W -> rho_W; bilinear and symmetric in (H1, H2).

    Solves (d/dt - L_W)v = six-term forcing built from the cached first
    derivatives dH1, dH2 and the base trajectory, with v(0) = 0.
    """
    op = LWOperator(problem.W, rho_traj, problem.stepper)
    grad_h1 = _as_grad_coeffs(H1, op.grid)
    grad_h2 = [g[None] for g in _as_grad_coeffs(H2, op.grid)]
    v1 = solver_states(dH1, op.config.scheme)[:, None]
    v2 = solver_states(dH2, op.config.scheme)[:, None]
    states = op.solve(_second_derivative_forcing(op, grad_h1, grad_h2, v1, v2))
    return Trajectory.from_states(states[:, 0], op.T, op.M, op.config.scheme)


# ---------------------------------------------------------------------------
# whole-basis linearisation


@functools.lru_cache(maxsize=None)
def tau_gradient_stack(K: int, grid) -> np.ndarray:
    """Gradient coefficient arrays of every tau_k, shape (D, d, grid).

    The cached :func:`spectral.tau_table` times the derivative multipliers
    ``grid.ik``, so K > n/2 - 1 raises ValueError instead of aliasing.
    Cached per (K, grid) and read-only, like the table.
    """
    return spectral._read_only(tau_table(K, grid.d, grid.n)[:, None] * grid.ik)


def _gram(nodes: np.ndarray, dt: float, T: float) -> np.ndarray:
    """(1/T) <col_j, col_k> of stacked nodes (D, M+1, grid), exactly symmetric."""
    G = np.triu(trapz_inner(nodes, nodes, dt)) / T
    return G + np.triu(G, 1).T


class Linearisation:
    """D rho_W on the truncated basis, built once per (W, rho_W, K).

    The one place where the basis derivatives are built: it holds rho_W
    (``rho``), the L_W operator along it (``op``, built on first use) and
    the basis gradients ``gtau`` of :func:`tau_gradient_stack`, so
    K > n/2 - 1 and a trajectory from another time grid or scheme raise
    here.  The D columns are solved on first read, in one stacked solve,
    and kept read-only.
    """

    def __init__(self, problem: McKVProblem, rho: Trajectory, K: int | None = None):
        check_stepper(rho, problem.stepper)
        self.rho = rho
        self.gtau = tau_gradient_stack(problem.W.K if K is None else K, rho.grid)
        # a copy, so that the operator built later sees the W of rho
        # even if the caller changes W.values in place
        self._W = replace(problem.W, values=problem.W.values.copy())
        self._stepper = problem.stepper

    @functools.cached_property
    def op(self) -> LWOperator:
        """L_W along rho_W; a caller that reads only ``rho`` never builds it."""
        return LWOperator(self._W, self.rho, self._stepper)

    @functools.cached_property
    def states(self) -> np.ndarray:
        """Every D rho_W[tau_k] in solver-state order, shape (S, D, grid);
        one stacked solve, read-only."""
        op = self.op
        return spectral._read_only(op.solve(transport_forcing(op.grid, op.rho_states, self.gtau)))

    @property
    def columns(self):
        """(nodes, stages) of the columns, shapes (D, M+1, grid) and (D, M, grid),
        stages None for Lawson-Euler; views of :attr:`states`."""
        M, states = self.op.M, self.states
        stages = np.moveaxis(states[M + 1:], 0, 1) if len(states) > M + 1 else None
        return np.moveaxis(states[:M + 1], 0, 1), stages

    def vjp(self, g: np.ndarray) -> np.ndarray:
        """Re sum(g * D rho_W[tau_k]) for every basis mode k, shape (D,).

        ``g`` (M+1, n, ..., n) weights the nodes of a derivative trajectory.
        One backward solve of the transposed L_W and one transposed forcing
        give a (d, grid) array; D enters only in the final contraction with
        ``gtau``, so time and memory do not grow with D beyond it, and the
        columns are never solved.  Equals the contraction of g with the
        nodes of :attr:`columns`, to rounding.
        """
        op = self.op
        weights = op.solve_transpose(g.reshape((op.M + 1,) + op.grid.shape))
        G = transport_forcing_transpose(op.grid, op.rho_states, weights)
        return (self.gtau.reshape(self.gtau.shape[0], -1) @ G.ravel()).real

    def gram(self) -> np.ndarray:
        """Gram matrix (1/T) <col_j, col_k> of the columns; symmetric PSD."""
        return _gram(self.columns[0], self.op.T / self.op.M, self.op.T)

    def second_derivative_rows(self):
        """Yield (j, nodes (D-j, M+1, grid) of D^2 rho_W[tau_j, tau_k], k >= j).

        Rows j and D-1-j share one stacked solve of D+1 columns, so D rows
        take ceil(D/2) solves; a column's bits do not depend on the stack
        around it, so each row equals a solve per row bit for bit.
        """
        op, gtau, v = self.op, self.gtau, self.states
        D = gtau.shape[0]
        for j in range((D + 1) // 2):
            rows = sorted({j, D - 1 - j})
            # unnamed, so the forcing is freed once solved
            nodes = op.solve(np.concatenate([
                _second_derivative_forcing(op, list(gtau[r]), list(np.moveaxis(gtau[r:], 1, 0)),
                                           v[:, r:r + 1], v[:, r:])
                for r in rows], axis=1), keep_stages=False)
            yield from zip(rows, np.split(np.moveaxis(nodes, 0, 1), [D - rows[0]]))

    def second_derivative_matrix(self, reduce) -> np.ndarray:
        """reduce(D^2 rho_W[tau_j, tau_k]) for every pair (j, k) of basis modes.

        ``reduce`` maps the (B, M+1, grid) nodes of a stack of second
        derivatives to an array with leading axis B.  Each row fills both
        (j, k) and (k, j), so the (D, D, ...) result is symmetric by
        construction.
        """
        D = self.gtau.shape[0]
        out = None
        for r, block in self.second_derivative_rows():
            row = reduce(block)
            if out is None:
                out = np.zeros((D, D) + row.shape[1:], dtype=row.dtype)
            out[r, r:] = row
            out[r:, r] = row
        return out

    def second_derivative_vjp(self, g: np.ndarray) -> np.ndarray:
        """Re sum(g * D^2 rho_W[tau_j, tau_k]) for every pair of basis modes, (D, D).

        ``g`` (M+1, n, ..., n) weights the nodes of a second-derivative
        trajectory.  One backward solve gives the weight w of the forcing
        at every solver state.  With T(r, gradV, s) = div(r (gradV * s))
        the six-term forcing of the pair (j, k) is A(j, k) + A(k, j), where
        A(j, k) = T(v_k, grad tau_j, rho) + T(rho, grad tau_j, v_k)
        + T(v_j, gradW, v_k); pairing w with A through the transposed padded
        transforms gives B_jk with no second-derivative solve, and B + B^T is
        exactly symmetric.  Equals the contraction of g with the nodes of
        :meth:`second_derivative_matrix`, to rounding.
        """
        op, gtau, v = self.op, self.gtau, self.states
        grid = op.grid
        D = gtau.shape[0]
        w = op.solve_transpose(g.reshape((op.M + 1,) + grid.shape))
        # Re sum(w * T(r, gradV, s)) = sum over axes i of Re sum(back_i * gradV_i * s),
        # back_i = to_padded_transpose(r_phys * from_padded_transpose(ik_i * w))
        r = grid.from_padded_transpose(grid.ik * w[:, None])  # (S, d, pad grid)
        rho_back = grid.to_padded_transpose(op.rho_phys[:, None] * r)  # (S, d, grid)
        v_phys = grid.to_padded(v)  # (S, D, pad grid)
        S, size = len(w), grid.size
        rho, vf = op.rho_states.reshape(S, size), v.reshape(S, D, size)
        B = np.zeros((D, D))
        for i in range(grid.d):
            v_back = grid.to_padded_transpose(r[:, i:i + 1] * v_phys).reshape(S, D, size)
            # T(v_k, grad tau_j, rho) + T(rho, grad tau_j, v_k): grad_i tau_j against
            # the state sums of v_back_k rho and rho_back v_k
            y = np.einsum("skg,sg->kg", v_back, rho)
            y += np.einsum("sg,skg->kg", rho_back[:, i].reshape(S, size), vf)
            B += (gtau[:, i].reshape(D, size) @ y.T).real
            # T(v_j, gradW, v_k): v_back_j gradW_i against v_k
            v_back *= op.grad_w[i].reshape(size)
            B += np.matmul(v_back, vf.transpose(0, 2, 1)).sum(axis=0).real
        return B + B.T


# the W and W0 that a two-potential diagnostic touches
MEMO_SIZE = 2
_memo: OrderedDict[tuple, Linearisation] = OrderedDict()


def _memo_key(problem: McKVProblem, K: int) -> tuple:
    W, phi, stepper = problem.W, problem.phi, problem.stepper
    return (W.K, W.d, W.values.tobytes(), phi.n, phi.d, phi.coeffs.tobytes(),
            problem.T, stepper.M, stepper.scheme, K)


def linearisation(problem: McKVProblem, K: int | None = None) -> Linearisation:
    """The :class:`Linearisation` at (problem, K) with rho_W from :func:`solve_mckv`,
    kept for the :data:`MEMO_SIZE` most recently used keys.

    The key is the content of the problem (W, phi, T, M, scheme) and K, so
    a W changed in place is solved again.  An entry's rho_W and columns
    are read-only, since every caller shares them.  The likelihood does
    not read the memo: each ULA step is at a new W.
    """
    K = problem.W.K if K is None else K
    key = _memo_key(problem, K)
    lin = _memo.get(key)
    if lin is not None:
        _memo.move_to_end(key)
        return lin
    rho = solve_mckv(problem)
    for a in (rho.coeffs.base, rho.coeffs, rho.stages):
        if a is not None:
            a.flags.writeable = False
    lin = _memo[key] = Linearisation(problem, rho, K)
    while len(_memo) > MEMO_SIZE:
        _memo.popitem(last=False)
    return lin


def jacobian_columns(problem: McKVProblem, rho_traj: Trajectory | None = None,
                     K: int | None = None) -> list[Trajectory]:
    """All derivative trajectories D rho_W[tau_k], one per basis mode.

    The columns of :func:`jacobian_stack`; column k equals
    ``mckv_first_derivative`` applied to the k-th basis vector.
    """
    if rho_traj is None:
        rho_traj = solve_mckv(problem)
    nodes, stages = jacobian_stack(problem, rho_traj, K=K)
    return stack_to_trajectories(nodes, stages, rho_traj.T, rho_traj.d, rho_traj.n,
                                 problem.stepper.scheme)


def jacobian_stack(problem: McKVProblem, rho_traj: Trajectory, K: int | None = None):
    """The :attr:`Linearisation.columns` at (problem, rho_traj, K)."""
    return Linearisation(problem, rho_traj, K).columns


def jacobian_vjp(problem: McKVProblem, rho_traj: Trajectory, g: np.ndarray,
                 K: int | None = None) -> np.ndarray:
    """The :meth:`Linearisation.vjp` of g at (problem, rho_traj, K)."""
    return Linearisation(problem, rho_traj, K).vjp(g)


def stack_to_trajectories(nodes, stages, T, d, n, scheme="if-heun"):
    out = []
    for b in range(nodes.shape[0]):
        st = stages[b] if stages is not None else None
        out.append(Trajectory(T=T, d=d, n=n, coeffs=nodes[b], scheme=scheme, stages=st))
    return out


def gram_matrix(columns: list[Trajectory], T: float | None = None) -> np.ndarray:
    """Gram matrix (1/T) <col_j, col_k> in L2([0,T];L2); symmetric PSD.
    The contraction of :meth:`Linearisation.gram` on the stacked columns."""
    if T is None:
        T = columns[0].T
    return _gram(np.stack([c.coeffs for c in columns]), columns[0].dt, T)


# ---------------------------------------------------------------------------
# reaction-diffusion forward map


def solve_rd(R: ReactionSpec, phi: SpectralField, T: float,
             stepper: StepperConfig) -> Trajectory:
    """Solve d/dt u = Lap(u) + R(u), u(0) = phi (d <= 3)."""
    grid = phi.grid
    lo, hi = R.domain if R.domain is not None else (-np.inf, np.inf)

    def rhs(m, stage, u):
        vals = grid.to_padded(u)  # R applied pointwise on the 3/2-padded grid
        if R.domain is not None and (vals.min() < lo or vals.max() > hi):
            raise ValueError(
                f"solution left the declared reaction domain at step {m}")
        return grid.from_padded(R.R(vals))

    return integrate(phi, rhs, T, stepper)


def rd_linearisation(R: ReactionSpec, H, u_traj: Trajectory,
                     stepper: StepperConfig) -> Trajectory:
    """Derivative of R -> u_R in direction H.

    Solves d/dt i = Lap(i) + R'(u) i + H(u), i(0) = 0, with u read from
    the supplied solution trajectory at matching nodes/stages.  ``H`` is
    a scalar callable applied pointwise, or a ReactionSpec whose R is
    used.
    """
    h_func = H.R if isinstance(H, ReactionSpec) else H
    grid = get_grid(u_traj.n, u_traj.d)
    u = solver_states(u_traj, stepper.scheme)

    def rhs(m, stage, i_c):
        u_vals = grid.to_padded(u[state_index(u_traj.M, m, stage)])
        i_vals = grid.to_padded(i_c)
        return grid.from_padded(R.Rprime(u_vals) * i_vals + h_func(u_vals))

    i0 = SpectralField.zeros(u_traj.n, u_traj.d)
    return integrate(i0, rhs, u_traj.T, stepper)
