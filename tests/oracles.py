"""Helpers that more than one test module shares."""

import numpy as np

from mckvlab.spectral import PotentialVec, SpectralField


def core_ok(report) -> bool:
    """Whether the four core inequalities of ``validate_constants`` hold."""
    keys = ("beta_even_ge", "alpha_window", "zeta_window", "w_window")
    return all(report.checks[k] for k in keys)


def to_field(v: PotentialVec, n: int) -> SpectralField:
    """The field of a potential on the n^d grid."""
    return SpectralField(v.d, n, v.coeff_grid(n))


def w2inf_norm(v: PotentialVec, n: int = 64) -> float:
    """Grid surrogate for the W^{2,inf} norm: sup|W| + sup|dW| + sup|d^2W|."""
    f = to_field(v, n)
    g = f.grid
    total = float(np.max(np.abs(f.values())))
    gr = [g.deriv(f.coeffs, j) for j in range(v.d)]
    total += max(float(np.max(np.abs(g.to_values(c)))) for c in gr)
    second = []
    for j in range(v.d):
        for l in range(v.d):
            second.append(float(np.max(np.abs(g.to_values(g.deriv(gr[j], l))))))
    return total + max(second)
