"""Stability diagnostics for the mean-field forward map.

Four probes, reported together as a :class:`StabilityReport`:

* the averaged-coefficient linear identity expressing rho_{W2} - rho_{W1}
  as one linear PDE solve, with its relative residual;
* the deconvolution margin min |rho_hat(t,k)| |k|^zeta over resolved
  modes and a short time window;
* the smallest singular value of H -> D rho_W[H] on the truncated basis
  (the quantity whose K-dependence the gradient-stability bound
  controls; constants are not asserted, only logged);
* a forward Lipschitz quotient ||rho_2 - rho_1|| / ||W_2 - W_1||_{H^-(beta+1)}.

The probes take rho_W from the memo of :func:`~mckvlab.forward.linearisation`
(the margin through :func:`stability_report`), so the probes of one pair of
problems share two solves at any K.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass

import numpy as np

from .forward import McKVProblem, linearisation
from .parabolic import (
    LWOperator,
    Trajectory,
    _as_grad_coeffs,
    l2l2_diff_norm,
    solver_states,
    transport_forcing,
)
from .spectral import mode_array, mode_ksq


@dataclass
class StabilityReport:
    """Diagnostic bundle; all entries are finite and nonnegative."""

    sigma_min: float
    decon_margin: float
    lipschitz_ratio: float
    pseudo_lin_residual: float

    def __post_init__(self):
        for name, val in asdict(self).items():
            if not np.isfinite(val) or val < 0:
                raise ValueError(f"report entry {name} must be finite and >= 0")

    def to_json(self) -> str:
        return json.dumps(asdict(self), indent=2)


def _check_shared_setup(p1: McKVProblem, p2: McKVProblem):
    if p1.phi.n != p2.phi.n or p1.phi.d != p2.phi.d:
        raise ValueError("problems must share the grid")
    if np.max(np.abs(p1.phi.coeffs - p2.phi.coeffs)) > 0:
        raise ValueError("problems must share the initial density")
    if abs(p1.T - p2.T) > 1e-12 or p1.stepper.M != p2.stepper.M:
        raise ValueError("problems must share the time grid")


def pseudo_linearised_difference(problem1: McKVProblem, problem2: McKVProblem):
    """Linear reconstruction of rho_{W2} - rho_{W1} and its residual.

    Solves the linear PDE with averaged coefficient (rho_1 + rho_2)/2 at
    every solver state (:func:`~mckvlab.parabolic.solver_states`),
    transported by W2, and forcing div(rho_1 grad(W2 - W1) * rho_1).
    Returns (v, residual) where the residual is relative to the direct
    difference in L2([0,T];L2); the identity holds exactly for the
    discrete scheme.  rho_1 and rho_2 are read from the memo of
    :func:`~mckvlab.forward.linearisation`.
    """
    _check_shared_setup(problem1, problem2)
    rho1, rho2 = linearisation(problem1).rho, linearisation(problem2).rho
    s1, grid = solver_states(rho1), rho1.grid
    rho_bar = Trajectory(rho1.T, rho1.M, 0.5 * (s1 + solver_states(rho2)))
    grad_dw = np.stack(_as_grad_coeffs(problem2.W - problem1.W, grid))[None]
    states = LWOperator(problem2.W, rho_bar).solve(transport_forcing(grid, s1, grad_dw))
    v = Trajectory(rho1.T, rho1.M, states[:, 0])

    diff = Trajectory(rho1.T, rho1.M, rho2.coeffs - rho1.coeffs)
    denom = diff.l2l2_norm()
    num = l2l2_diff_norm(v, diff)
    residual = 0.0 if denom < 1e-300 else num / denom
    return v, residual


def deconvolution_window(rho_traj: Trajectory, K: int, zeta: float) -> float:
    """Probing window t_0 = min(T, c_* K^-zeta / (2 Chat)).

    c_* is read off the initial condition as the best Assumption-style
    constant on the resolved modes; Chat is an empirical surrogate for
    the L1 Lipschitz constant of t -> rho(t), the maximum discrete time
    difference.  Mirrors the proof's "for t small enough" with
    computable quantities (the true constant is non-constructive).
    """
    grid = rho_traj.grid
    c_star = _margin(rho_traj.coeffs[0], rho_traj.d, K, zeta)
    if c_star == 0.0:
        return 0.0
    diffs = np.diff(rho_traj.coeffs, axis=0) / rho_traj.dt
    vals = grid.to_values(diffs)
    c_hat = float(np.max(np.mean(np.abs(vals), axis=tuple(range(-grid.d, 0)))))
    if c_hat <= 1e-14:
        return rho_traj.T
    return float(min(rho_traj.T, c_star * K ** (-zeta) / (2.0 * c_hat)))


def _margin(coeffs: np.ndarray, d: int, K: int, zeta: float) -> float:
    """min |c_k| |k|^zeta over 0 < |k| <= K and the leading axes of coeffs;
    a ``zeta`` that is not finite raises ValueError.

    |c_k| is taken by hypot, the scalar complex abs: numpy's vectorised
    complex abs can differ from it in the last bit.
    """
    if not np.isfinite(zeta):
        raise ValueError(f"zeta must be finite, got {zeta}")
    c = coeffs[(...,) + tuple((mode_array(K, d) % coeffs.shape[-1]).T)]
    return float(np.min(np.hypot(c.real, c.imag) * np.sqrt(mode_ksq(K, d)) ** zeta))


def deconvolution_margin(rho_traj: Trajectory, K: int, zeta: float,
                         t0: float | None = None) -> float:
    """min |rho_hat(t,k)| |k|^zeta over 0 < |k| <= K and stored t <= t_0.

    A ``zeta`` that is not finite, or a ``t0`` that is not finite or is
    below 0, raises ValueError.
    """
    if K > rho_traj.n // 2 - 1:
        raise ValueError("K exceeds resolved modes")
    if t0 is None:
        t0 = deconvolution_window(rho_traj, K, zeta)
    elif not (np.isfinite(t0) and t0 >= 0):
        raise ValueError(f"t0 must be finite and >= 0, got {t0}")
    m_max = int(np.floor(t0 / rho_traj.dt + 1e-12))
    return _margin(rho_traj.coeffs[:m_max + 1], rho_traj.d, K, zeta)


def gradient_stability_sigma_min(problem: McKVProblem, K: int | None = None) -> float:
    """Smallest singular value of H -> D rho_W[H], (E_K, L2) -> L2(X, lambda).

    Computed as the square root of the smallest eigenvalue of the
    jacobian Gram matrix (1/T) <col_j, col_k>: the K entry of
    :func:`sigma_min_trend`.
    """
    K = problem.W.K if K is None else K
    return sigma_min_trend(problem, K)[K]


def sigma_min_trend(problem: McKVProblem, K: int) -> dict[int, float]:
    """sigma_min over the nested truncations K' = 1..K (for inspection).

    The theory predicts a polynomial decay in K; the constants are
    non-constructive, so the trend is logged rather than asserted.
    Nested values reuse one jacobian, read from the memo of
    :func:`~mckvlab.forward.linearisation`: the restricted Gram is a
    principal submatrix of the full one.
    """
    gram = linearisation(problem, K).gram()
    ksq = mode_ksq(K, problem.W.d)
    out = {}
    for Kp in range(1, K + 1):
        inner = ksq <= Kp * Kp
        sub = gram[np.ix_(inner, inner)]
        lam = float(np.linalg.eigvalsh(sub)[0])
        out[Kp] = float(np.sqrt(max(lam, 0.0)))
    return out


def forward_lipschitz_probe(problem1: McKVProblem, problem2: McKVProblem,
                            beta: float) -> float:
    """||rho_2 - rho_1||_{L2L2} / ||W_2 - W_1||_{H^-(beta+1)}, with rho_1 and
    rho_2 read from the memo of :func:`~mckvlab.forward.linearisation`; a
    ``beta`` that is not finite raises ValueError."""
    if not np.isfinite(beta):
        raise ValueError(f"beta must be finite, got {beta}")
    _check_shared_setup(problem1, problem2)
    dW = problem2.W - problem1.W
    denom = dW.sobolev_norm(-(beta + 1.0))
    if denom == 0.0:
        raise ValueError("undefined ratio: the two potentials coincide")
    rho1, rho2 = linearisation(problem1).rho, linearisation(problem2).rho
    return l2l2_diff_norm(rho2, rho1) / denom


def stability_report(problem1: McKVProblem, problem2: McKVProblem,
                     K: int, zeta: float, beta: float) -> StabilityReport:
    """Run all four probes on a pair of problems sharing phi and the grid."""
    _, residual = pseudo_linearised_difference(problem1, problem2)
    margin = deconvolution_margin(linearisation(problem1).rho, K, zeta)
    dW = problem2.W - problem1.W
    if dW.l2_norm() > 0:
        ratio = forward_lipschitz_probe(problem1, problem2, beta)
    else:
        ratio = 0.0
    sigma = gradient_stability_sigma_min(problem1, K=K)
    return StabilityReport(sigma_min=sigma, decon_margin=margin,
                           lipschitz_ratio=ratio, pseudo_lin_residual=residual)
