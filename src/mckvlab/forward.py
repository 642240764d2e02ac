"""Parameter-to-solution maps and their exact linearisations.

Two nonlinear parabolic problems on the torus:

* mean-field transport:  d/dt rho = Lap(rho) + div(rho gradW * rho),
  rho(0) = phi, with a mean-zero interaction potential W; solved by
  :func:`solve_mckv`.  Its first and second derivatives in W solve
  linear PDEs driven by the same operator L_W.
* reaction-diffusion:  d/dt u = Lap(u) + R(u), u(0) = phi, with the
  derivative in R solving d/dt i = Lap(i) + R'(u) i + H(u), i(0) = 0.

The linear solves run on the nonlinear trajectory's own M steps and read
it at the stored node and predictor states, ``Trajectory.states``, so
each derivative is the exact derivative of the discrete
Lawson-Heun map; finite-difference checks see pure O(eps^2) behaviour.
A trajectory without predictor stages carries no linear solve.
Every mean-field derivative is a solve with
:class:`~mckvlab.parabolic.LWOperator`, batched over directions.  The basis
derivatives are built in one place, :class:`Linearisation`, which hands
out each stacked solve as one array: one operator along rho_W, the nodes
of the D basis columns (``columns``), their Gram matrix, a vector-Jacobian
product from one backward solve of the exact transpose of the discrete
scheme whatever D is (``vjp``), the nodes of D^2 rho_W over all D(D+1)/2
basis pairs from one solve (``second_derivatives()``), forced by
:class:`_PairForcing` in blocks of consecutive solver states whose arrays
stay below a fixed byte budget, so that neither the forcing of every state
nor its padded columns are held, and the weighted sum of every
D^2 rho_W[tau_j, tau_k], the correction of the expected Hessian, from one
backward solve and no second-derivative solve.  Both backward solves end in
the one pull-back of their weights through the transport forcing,
``LWOperator.pull_back``.  :func:`mckv_second_derivative`, for one pair of
directions, is the same :class:`_PairForcing` solve on two columns.

:func:`linearisation` keeps the :class:`Linearisation` of the
:data:`MEMO_SIZE` = 2 most recently used (problem, K), keyed by their
content, so that the W and W0 of one diagnostics pass are solved once;
an entry at a new K takes rho_W from an entry of the same problem.
``inference.expected_neg_hessian``, every probe of ``stability`` (the
pseudo-linearised difference, the Lipschitz probe, sigma_min and its trend)
and the stability suite of ``checks`` take rho_W from it alone, and
``inference.estimate_c1`` when no trajectory is passed in; the likelihood
and its gradient, ``inference.generate_data`` and :func:`solve_mckv`
never read it.  A memoised rho_W and its columns are read-only.  Every
density trajectory a caller hands in passes one check,
:func:`check_density`, against its problem or model.
"""

from __future__ import annotations

import functools
import math
from collections import OrderedDict
from dataclasses import dataclass, replace

import numpy as np

from . import spectral
from .parabolic import (
    LWOperator,
    StepperConfig,
    Trajectory,
    _as_grad_coeffs,
    _divergence,
    _folded_analysis,
    integrate,
    solver_states,
    transport_forcing,
    trapz_inner,
)
from .spectral import PaddedPlan, PotentialVec, SpectralField, tau_table


# ---------------------------------------------------------------------------
# problem containers


@dataclass
class ReactionSpec:
    """Reaction term R and its derivative R', applied pointwise.

    A load-time spot check compares R' with finite differences of R at
    nine points of [-2, 2]; an inconsistent pair is rejected immediately
    rather than surfacing as a failed linearisation later.
    """

    R: callable
    Rprime: callable

    def __post_init__(self):
        xs = np.linspace(-2.0, 2.0, 9)
        h = 1e-5
        fd = (np.asarray(self.R(xs + h)) - np.asarray(self.R(xs - h))) / (2 * h)
        given = np.asarray(self.Rprime(xs), dtype=float) * np.ones_like(xs)
        scale = 1.0 + np.abs(given)
        if not np.max(np.abs(fd - given) / scale) <= 1e-4:
            raise ValueError("Rprime disagrees with finite differences of R")


@dataclass
class McKVProblem:
    """Mean-field problem data: potential, initial density, horizon, stepper.
    Built directly it checks T, phi (:func:`check_initial_data`) and W, and
    from :meth:`_on_checked`, as ``inference.ForwardModel`` builds it, W alone."""

    W: PotentialVec
    phi: SpectralField
    T: float
    stepper: StepperConfig

    def __post_init__(self):
        check_initial_data(self.T, self.phi)
        self._check_potential()

    @classmethod
    def _on_checked(cls, W, phi, T, stepper) -> "McKVProblem":
        """The problem at W of a T and phi that passed their checks: W alone is checked."""
        problem = cls.__new__(cls)
        vars(problem).update(W=W, phi=phi, T=T, stepper=stepper)
        problem._check_potential()
        return problem

    def _check_potential(self):
        if self.W.d != self.phi.d:
            raise ValueError("potential and initial density dimension mismatch")
        if self.W.K > self.phi.n // 2 - 1:
            raise ValueError("potential truncation exceeds grid resolution")


def check_initial_data(T: float, phi: SpectralField):
    """ValueError unless the horizon T is finite and > 0 (a negative or NaN T
    would end in a blow-up that did not happen, and T = 0 in a constant
    trajectory) and phi is a real field of unit mass."""
    if not (math.isfinite(T) and T > 0):
        raise ValueError(f"horizon T must be finite and > 0, got {T!r}")
    if not abs(phi.mean() - 1.0) <= 1e-12:
        raise ValueError("initial density must have unit mass")
    if not phi.conj_symmetry_defect() <= 1e-10:
        raise ValueError("initial density must be a real field")


def check_density(rho: Trajectory, model) -> Trajectory:
    """``rho`` if it lies on the discretisation of ``model``, else ValueError.

    ``model`` is a :class:`McKVProblem` or an ``inference.ForwardModel``;
    the trajectory must share its horizon T (to 1e-12), step count M,
    grid size n and dimension d.  A trajectory from another problem would
    give numbers for that problem with no error.
    """
    M, n, d = model.stepper.M, model.phi.n, model.phi.d
    if (rho.M, rho.n, rho.d) != (M, n, d) or abs(rho.T - model.T) > 1e-12:
        raise ValueError(
            f"density trajectory (M={rho.M}, T={rho.T}, n={rho.n}, d={rho.d}) "
            f"does not match the model (M={M}, T={model.T}, n={n}, d={d})")
    return rho


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
    if not min_val > 0:
        raise ValueError(
            f"density not strictly positive (min {min_val:.3e}); "
            "reduce the amplitude or increase zeta")
    return f


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
    # div(u gradW * u), equal bit for bit to grid.transport_div(u, grad_w, u): one
    # padded synthesis of u and its d convolutions, one analysis of the d products;
    # the plans' views and runs are bound once per solve
    syn, ana = grid.plan("to_padded", (1 + grid.d,)), grid.plan("from_padded", (grid.d,))
    u_in, conv_in = syn.x[0], list(zip(grad_w, syn.x[1:]))
    u_phys, conv_phys, syn_run, prod, ana_run = syn.y[:1], syn.y[1:], syn.run, ana.x, ana.run
    div_terms, div_tmp = list(zip(grid.ik, ana.y)), np.empty_like(ana.y[0]) if grid.d > 1 else None

    def rhs(s, u, out):
        u_in[...] = u
        for gw, x in conv_in:
            np.multiply(gw, u, out=x)
        syn_run()
        np.multiply(u_phys, conv_phys, out=prod)
        ana_run()
        _divergence(div_terms, out, div_tmp)

    return integrate(phi, rhs, T, stepper)


# glibc's default mmap threshold: every block temporary of :class:`_PairForcing`
# stays below it, so none is an mmap'd allocation
_BLOCK_BYTES = 1 << 17


class _PairForcing:
    """Forcing of D^2 rho_W[tau_r, tau_k] for every pair k >= r, built in blocks
    of solver states; the one second-derivative forcing.

    For the gradients ``gtau`` (D, d, grid) of D directions tau_k (the basis,
    or any others) and their first derivatives ``v`` (S, D, grid) in
    solver-state order, ``forcing[s]`` is the (B, grid) forcing at state s of
    the B = D(D+1)/2 pairs in ``np.triu_indices(D)`` order, a view that holds
    until a state of another block is read; ``shape`` is (S, B, grid), and no
    array of that shape is built.  With T(a, g, b) = div(a (g * b)), the
    forcing of the pair (r, k) expands into six terms, A(r, k) + A(k, r) with
    A(r, k) = T(v_k, grad tau_r, rho) + T(rho, grad tau_r, v_k)
    + T(v_r, grad W, v_k).  Grouped by their padded factors they are, per
    axis j, with P the padded synthesis, A the analysis and
    X_{k,j} = d_j tau_k * rho + d_j W * v_k,
    ik_j A[P(rho) P(d_j tau_r v_k + d_j tau_k v_r) + P(v_k) P(X_{r,j}) + P(v_r) P(X_{k,j})].

    A block is ``block`` consecutive states in the order the time loop reads
    them, m, M+1+m, m+1, ..., with node M, which the loop never reads, last
    and repeated to fill the last block; only the block of the last state
    read is kept.  Its arrays are pair-major, (B, block, ...), so the pair
    gathers index their leading axis, and the largest of them, a
    (B, block, grid) complex or a (B, block, pad grid) real array, stays
    below :data:`_BLOCK_BYTES`: the S states make as few blocks as that
    allows (one state each when one state exceeds it), of equal size.  One
    plan synthesises v and its X (stack (1+d, D, block)), and per axis one
    synthesises the pair sums and one analyses the products (stack
    (B, block)), at d = 1 through the one matrix of A ik
    (``parabolic._folded_analysis``), so its plan output is the forcing
    itself; the object builds them and the block's arrays once, so a block
    allocates nothing of its size.  A padded line's bits do not depend on its stack,
    so the forcing equals the six-term expansion to rounding and is the same
    whatever pairs and states share the stack.
    """

    def __init__(self, op: LWOperator, gtau: np.ndarray, v: np.ndarray):
        grid = op.grid
        D, d = gtau.shape[:2]
        S, M = len(v), op.M
        self.op, self.v = op, v
        self.rows, self.cols = np.triu_indices(D)
        B = len(self.rows)
        self.shape = (S, B) + grid.shape
        pad = (grid.pad_n,) * d
        per_state = B * max(16 * grid.size, 8 * math.prod(pad))
        blocks = -(-S // max(1, (_BLOCK_BYTES - 1) // per_state))
        self.block = b = -(-S // blocks)
        order = [s for m in range(M) for s in (m, M + 1 + m)]
        self._order = np.array(order + [M] * (blocks * b - len(order)))
        self._pos = np.argsort(self._order[:S])  # the position of each state
        self._gtau = np.moveaxis(gtau, 1, 0)[:, :, None]  # (d, D, 1, grid)
        self._grad_w = np.stack(op.grad_w)[:, None, None]  # (d, 1, 1, grid)
        # d_j tau_r and d_j tau_k of every pair (r, k), (d, B, 1, grid)
        self._g_r, self._g_k = self._gtau[:, self.rows], self._gtau[:, self.cols]
        self._syn = grid.plan("to_padded", (1 + d, D, b))
        self._pair_syn = grid.plan("to_padded", (B, b))
        folded = ((_folded_analysis(grid, False), 2 * grid.n, False, True),) if d == 1 else None
        self._ana = PaddedPlan(folded, (B, b)) if folded else grid.plan("from_padded", (B, b))
        # v_r, v_k, a scratch and (d > 1) the forcing of every pair at the block's
        # states, and P(v_r), P(v_k) and a scratch on the padded grid
        self._fields = np.empty((3 + (d > 1), B, b) + grid.shape, dtype=complex)
        self._forcing = self._ana.y if d == 1 else self._fields[3]
        self._padded = np.empty((3, B, b) + pad)
        self._start = -1

    def __getitem__(self, s: int) -> np.ndarray:
        i = self._pos[s]
        start = i - i % self.block
        if start != self._start:
            self._build(self._order[start:start + self.block])
            self._start = start
        return self._forcing[:, i - start]

    def _build(self, states: np.ndarray):
        """Write the (B, block, grid) forcing at ``states`` into ``_forcing``."""
        op, rows, cols = self.op, self.rows, self.cols
        syn, pair_syn, ana, forcing = self._syn, self._pair_syn, self._ana, self._forcing
        v_r, v_k, tmp = self._fields[:3]
        p_r, p_k, tmp_p = self._padded
        # np.take writes into out= unbuffered in mode "clip"; the indices are in range
        x = syn.x  # (1+d, D, b, grid)
        v = x[0]
        np.take(self.v, states, axis=0, out=v.swapaxes(0, 1), mode="clip")
        np.multiply(self._gtau, op.rho_states[states], out=x[1:])
        x[1:] += self._grad_w * v
        phys = syn.run()  # P(v_k) and P(X_{k,j}), (1+d, D, b, pad grid)
        for src, idx, out in ((v, rows, v_r), (v, cols, v_k), (phys[0], rows, p_r),
                              (phys[0], cols, p_k)):
            np.take(src, idx, axis=0, out=out, mode="clip")
        rho_phys = op.rho_phys[states]
        q, a = pair_syn.x, ana.x
        for j, ik in enumerate(op.grid.ik):
            np.multiply(self._g_r[j], v_k, out=q)
            q += np.multiply(self._g_k[j], v_r, out=tmp)
            np.multiply(pair_syn.run(), rho_phys, out=a)
            for p, idx in ((p_k, rows), (p_r, cols)):
                np.take(phys[1 + j], idx, axis=0, out=tmp_p, mode="clip")
                a += np.multiply(p, tmp_p, out=tmp_p)
            if op.grid.d == 1:
                ana.run()  # ik folded in: the output is the forcing
            elif j == 0:
                np.multiply(ik, ana.run(), out=forcing)
            else:
                forcing += np.multiply(ik, ana.run(), out=tmp)


def mckv_second_derivative(problem: McKVProblem, H1: PotentialVec,
                           H2: PotentialVec, rho_traj: Trajectory,
                           dH1: Trajectory, dH2: Trajectory) -> Trajectory:
    """Second derivative of W -> rho_W; bilinear and symmetric in (H1, H2).

    The (H1, H2) pair of one :class:`_PairForcing` solve over the two
    directions, whose first derivatives are dH1 and dH2; rho and both first
    derivatives pass :func:`check_density`.  On basis directions tau_j,
    tau_k (j <= k) with their columns it equals that pair's nodes of
    :meth:`Linearisation.second_derivatives` bit for bit.
    """
    op = LWOperator(problem.W, check_density(rho_traj, problem))
    gh = np.stack([_as_grad_coeffs(H, op.grid) for H in (H1, H2)])
    v = np.stack([solver_states(check_density(dH, problem)) for dH in (dH1, dH2)], axis=1)
    # the pairs (0, 0), (0, 1), (1, 1) of np.triu_indices(2)
    return Trajectory(op.T, op.M, op.solve(_PairForcing(op, gh, v))[:, 1])


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
    K > n/2 - 1 and a trajectory that fails :func:`check_density` raise
    here.  The D columns are solved on first read, in one stacked solve,
    and kept read-only; :meth:`second_derivatives` keeps nothing.
    """

    def __init__(self, problem: McKVProblem, rho: Trajectory, K: int | None = None):
        self.rho = check_density(rho, problem)
        self.gtau = tau_gradient_stack(problem.W.K if K is None else K, rho.grid)
        # a copy, so that the operator built later sees the W of rho
        # even if the caller changes W.values in place
        self._W = replace(problem.W, values=problem.W.values.copy())

    @functools.cached_property
    def op(self) -> LWOperator:
        """L_W along rho_W; a caller that reads only ``rho`` never builds it."""
        return LWOperator(self._W, self.rho)

    @functools.cached_property
    def states(self) -> np.ndarray:
        """Every D rho_W[tau_k] in solver-state order, shape (S, D, grid);
        one stacked solve, read-only."""
        op = self.op
        return spectral._read_only(op.solve(transport_forcing(op.grid, op.rho_states, self.gtau)))

    @property
    def columns(self) -> np.ndarray:
        """The nodes of the columns, shape (D, M+1, grid); a view of :attr:`states`."""
        return np.moveaxis(self.states[:self.op.M + 1], 0, 1)

    def vjp(self, g: np.ndarray) -> np.ndarray:
        """Re sum(g * D rho_W[tau_k]) for every basis mode k, shape (D,).

        ``g`` (M+1, n, ..., n) weights the nodes of a derivative trajectory.
        One backward solve of the transposed L_W and one
        :meth:`~mckvlab.parabolic.LWOperator.pull_back`, summed against rho,
        give a (d, grid) array; D enters only in the final contraction with
        ``gtau``, so time and memory do not grow with D beyond it, and the
        columns are never solved.  Equals the contraction of g with the
        nodes of :attr:`columns`, to rounding.
        """
        op = self.op
        _, back = op.pull_back(op.solve_transpose(g.reshape((op.M + 1,) + op.grid.shape)))
        G = np.einsum("s...,sj...->j...", op.rho_states, back)
        return (self.gtau.reshape(self.gtau.shape[0], -1) @ G.ravel()).real

    def gram(self) -> np.ndarray:
        """Gram matrix (1/T) <col_j, col_k> of the columns; symmetric PSD.
        Computed on the first call and read-only."""
        return self._gram_matrix

    @functools.cached_property
    def _gram_matrix(self) -> np.ndarray:
        return spectral._read_only(_gram(self.columns, self.op.T / self.op.M, self.op.T))

    def second_derivatives(self) -> np.ndarray:
        """The nodes of D^2 rho_W[tau_r, tau_k] of all B = D(D+1)/2 pairs r <= k,
        (B, M+1, grid) in ``np.triu_indices(D)`` order, from one stacked solve
        forced block by block of solver states by :class:`_PairForcing`.  A
        column's bits do not depend on its stack, so row r equals a solve of
        that row alone, and the result a solve forced one state at a time, bit
        for bit.
        """
        op = self.op
        forcing = _PairForcing(op, self.gtau, self.states)
        return np.moveaxis(op.solve(forcing, keep_stages=False), 0, 1)

    def second_derivative_vjp(self, g: np.ndarray) -> np.ndarray:
        """Re sum(g * D^2 rho_W[tau_j, tau_k]) for every pair of basis modes, (D, D).

        ``g`` (M+1, n, ..., n) weights the nodes of a second-derivative
        trajectory.  One backward solve gives the weight w of the forcing
        at every solver state.  With T(r, gradV, s) = div(r (gradV * s))
        the six-term forcing of the pair (j, k) is A(j, k) + A(k, j), where
        A(j, k) = T(v_k, grad tau_j, rho) + T(rho, grad tau_j, v_k)
        + T(v_j, gradW, v_k); pairing w with A through the transposed padded
        transforms gives B_jk with no second-derivative solve, each pairing one
        real product over (D, S grid) rows, and B + B^T is exactly symmetric.
        Equals the contraction of g with the nodes of :meth:`second_derivatives`,
        scattered to (j, k) and (k, j), to rounding.
        """
        op, gtau, grid, D = self.op, self.gtau, self.op.grid, len(self.gtau)
        w = op.solve_transpose(g.reshape((op.M + 1,) + grid.shape))
        # Re sum(w * T(r, gradV, s)) = sum over axes i of Re sum(back_i * gradV_i * s),
        # back_i = to_padded_transpose(r_phys * from_padded_transpose(ik_i * w)):
        # the pull-back gives the inner transform and back for r = rho
        r, rho_back = op.pull_back(w)  # (S, d, pad grid), (S, d, grid)
        v = np.ascontiguousarray(np.moveaxis(self.states, 1, 0))  # (D, S, grid)
        v_phys = grid.to_padded(v)

        def rows(a):  # Re sum(a_j * b_k) = rows(a) @ rows(conj(b)).T
            return a.reshape(D, -1).view(float)

        B = np.zeros((D, D))
        for i in range(grid.d):
            gt = gtau[:, i, None]  # grad_i tau, (D, 1, grid)
            # conj(v_back), conjugated on the side that is built anyway: (D, S, grid)
            v_back = np.conjugate(grid.to_padded_transpose(r[:, i] * v_phys))
            # T(v_k, grad tau_j, rho): grad_i tau_j rho against v_back_k
            tmp = gt * op.rho_states
            B += rows(tmp) @ rows(v_back).T
            # T(v_j, gradW, v_k) + T(rho, grad tau_j, v_k): v_back_j gradW_i
            # + grad_i tau_j rho_back against v_k
            v_back *= op.grad_w[i].conj()
            v_back += np.multiply(gt.conj(), rho_back[:, i].conj(), out=tmp)
            B += rows(v_back) @ rows(v).T
            del v_back, tmp  # neither is held through the next axis's transforms
        return B + B.T


# the W and W0 that a two-potential diagnostic touches
MEMO_SIZE = 2
_memo: OrderedDict[tuple, Linearisation] = OrderedDict()


def _problem_key(problem: McKVProblem) -> tuple:
    W, phi = problem.W, problem.phi
    return (W.K, W.d, W.values.tobytes(), phi.n, phi.d, phi.coeffs.tobytes(),
            problem.T, problem.stepper.M)


def linearisation(problem: McKVProblem, K: int | None = None) -> Linearisation:
    """The :class:`Linearisation` at (problem, K) with rho_W from :func:`solve_mckv`,
    kept for the :data:`MEMO_SIZE` most recently used keys.

    The key is the content of the problem (W, phi, T, M) and K, so a W
    changed in place is solved again.  rho_W does not depend on K: a new K
    takes it from an entry of the same problem if there is one.  An
    entry's rho_W and columns are read-only, since every caller shares
    them.  The likelihood does not read the memo: each ULA step is at a
    new W.
    """
    K = problem.W.K if K is None else K
    key = _problem_key(problem), K
    lin = _memo.get(key)
    if lin is not None:
        _memo.move_to_end(key)
        return lin
    rho = next((e.rho for (p, _), e in _memo.items() if p == key[0]), None)
    if rho is None:
        rho = solve_mckv(problem)
        for a in (rho.states, rho.coeffs, rho.stages):
            a.flags.writeable = False
    lin = _memo[key] = Linearisation(problem, rho, K)
    while len(_memo) > MEMO_SIZE:
        _memo.popitem(last=False)
    return lin


def jacobian_columns(problem: McKVProblem, rho_traj: Trajectory | None = None,
                     K: int | None = None) -> list[Trajectory]:
    """All derivative trajectories D rho_W[tau_k], one per basis mode: the
    columns of :func:`jacobian_stack`, on copies."""
    if rho_traj is None:
        rho_traj = solve_mckv(problem)
    nodes, stages = jacobian_stack(problem, rho_traj, K=K)
    return stack_to_trajectories(nodes, stages, rho_traj.T, rho_traj.d, rho_traj.n)


def jacobian_stack(problem: McKVProblem, rho_traj: Trajectory, K: int | None = None):
    """(nodes, stages) of the columns at (problem, rho_traj, K), shapes (D, M+1, grid)
    and (D, M, grid): views of :attr:`Linearisation.states`."""
    lin = Linearisation(problem, rho_traj, K)
    return lin.columns, np.moveaxis(lin.states[rho_traj.M + 1:], 0, 1)


def stack_to_trajectories(nodes, stages, T, d, n):
    """The B trajectories, on copies, of stacked nodes (B, M+1, grid) and stages
    (B, M, grid); ``d`` and ``n`` go unused (the signature ``perfbench/`` calls)."""
    M = stages.shape[1]
    return [Trajectory(T, M, s) for s in np.concatenate([nodes, stages], axis=1)]


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

    def rhs(s, u, out):
        # R applied pointwise on the 3/2-padded grid
        out[...] = grid.from_padded(R.R(grid.to_padded(u)))

    return integrate(phi, rhs, T, stepper)


def rd_linearisation(R: ReactionSpec, H: callable, u_traj: Trajectory) -> Trajectory:
    """Derivative of R -> u_R in direction H, a callable applied pointwise.

    Solves d/dt i = Lap(i) + R'(u) i + H(u), i(0) = 0, on the M steps of
    ``u_traj``, with u read from the supplied solution trajectory at the
    solver state of each evaluation.
    """
    grid = u_traj.grid
    u = solver_states(u_traj)

    def rhs(s, i_c, out):
        u_vals = grid.to_padded(u[s])
        i_vals = grid.to_padded(i_c)
        out[...] = grid.from_padded(R.Rprime(u_vals) * i_vals + H(u_vals))

    i0 = SpectralField.zeros(u_traj.n, u_traj.d)
    return integrate(i0, rhs, u_traj.T, StepperConfig(u_traj.M))
