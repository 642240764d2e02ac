"""Fourier core for real scalar fields on the unit torus [0,1)^d.

Conventions used throughout the package:

* A field f is stored through its complex Fourier coefficients
  c[k] = <f, e_k> with e_k(x) = exp(2*pi*i*k.x), so that
  f(x) = sum_k c[k] e_k(x).  For real f this forces the conjugate
  symmetry c[-k] = conj(c[k]), and c[0] is the mean of the field.
* Coefficient arrays use the numpy FFT layout along each axis
  (k = 0, 1, ..., n/2-1, -n/2, ..., -1).  Only modes with
  |k_j| <= n/2 - 1 on every axis are resolved; the Nyquist plane is
  kept identically zero so that differentiation and conjugate
  symmetry are exact.
* Mode ordering.  The mean-zero real basis functions tau_k with
  0 < |k| <= K (Euclidean ball) are ordered lexicographically in the
  integer vector k.  The cached tables of this module are the single
  source of that ordering and of the basis: :func:`mode_array` (the
  modes) with :func:`mode_ksq` (their |k|^2) per (K, d), and
  :func:`tau_table` (the Fourier coefficients of every tau_k) per
  (K, d, n).  PotentialVec coordinates, Gram matrices, prior
  covariances, the deconvolution margin and all serialized artifacts
  read them.
* Products of two fields are formed pseudospectrally on a grid padded
  by the 3/2 rule, which is alias-free for quadratic nonlinearities.
* Calculus runs on coefficient arrays, through the derivative
  multipliers and the transport kernel of :class:`Grid`; a
  :class:`SpectralField` carries a field's coefficients with its grid and
  has no arithmetic of its own.
"""

from __future__ import annotations

import csv
import itertools
import json
import math
import operator
from dataclasses import dataclass
from functools import lru_cache, partial
from pathlib import Path

import numpy as np

TWO_PI = 2.0 * np.pi
SQRT2 = float(np.sqrt(2.0))


# ---------------------------------------------------------------------------
# grid machinery


class Grid:
    """Precomputed mode arrays and spectral multipliers for an n^d grid.

    Holds the integer mode vectors, the resolved-mode mask (Nyquist
    excluded), the flat index of -k at each mode k (:attr:`neg_index`),
    the (d, n, ..., n) derivative multipliers 2*pi*i*k_j with the Nyquist
    plane zeroed, and dense per-axis DFT matrices (:func:`_dft`): on the
    3/2-rule padded grid of pad_n = 3n/2 points the (n, pad_n)
    :attr:`synthesis`, Nyquist row zero, and the (pad_n, n) :attr:`analysis`,
    its conjugate transpose over pad_n, which crops to the resolved modes;
    on the n-point grid those of :meth:`to_values`, Nyquist row kept, and
    :meth:`from_values`, Nyquist column zero.  All array methods accept
    stacked inputs (..., n, ..., n) and act on the trailing d axes.  The six
    transforms are dense products per axis (:meth:`_per_axis`).  Against an
    FFT, :meth:`to_values` and :meth:`from_values` were measured faster up to
    n = 128 in d = 1, n = 32 in d = 2 and n = 24 in d = 3 (every grid of the
    tests, the benchmark and the CLI default), about even at n = 32 in d = 3
    and slower at n = 64 in d = 2 (up to 1.45x) and at n = 48 in d = 3
    (1.2-2.2x), where one call costs a few percent of one
    :meth:`transport_div` (README).  A kernel that repeats a padded transform
    on a fixed stack shape builds its own :meth:`plan`; the grid keeps no
    plan, so no two callers share a buffer.
    """

    def __init__(self, n: int, d: int):
        if d not in (1, 2, 3):
            raise ValueError(f"spatial dimension must be 1, 2 or 3, got {d}")
        if n < 4 or n % 2 != 0:
            raise ValueError(f"grid size must be even and >= 4, got {n}")
        self.n = n
        self.d = d
        self.shape = (n,) * d
        self.size = n**d
        self.axes = tuple(range(-d, 0))

        nyq = n // 2
        axis_modes = self.axis_modes = (np.arange(n) + nyq) % n - nyq  # numpy FFT order
        kvec = np.meshgrid(*([axis_modes] * d), indexing="ij")
        self.kvec = [m.astype(int) for m in kvec]
        self.ksq = sum(m.astype(float) ** 2 for m in kvec)

        resolved = np.ones(self.shape, dtype=bool)
        for m in kvec:
            resolved &= np.abs(m) != nyq
        self.resolved = resolved
        self.neg_index = np.ravel_multi_index([-m % n for m in kvec], self.shape).ravel()

        # derivative multipliers; Nyquist zeroed to keep real fields real
        self.ik = TWO_PI * 1j * np.where(np.abs(kvec) == nyq, 0, kvec).astype(float)
        self.lap_mult = -(TWO_PI**2) * self.ksq

        pn = self.pad_n = 3 * n // 2
        synth = self.synthesis = _dft(axis_modes, pn)  # (n, pad_n)
        synth[nyq] = 0.0
        analysis = self.analysis = synth.conj().T / pn  # (pad_n, n)
        values = _dft(axis_modes, n)  # (n, n), Nyquist row kept
        coeffs = values.conj().T / n
        coeffs[:, nyq] = 0.0
        self._to_grid = _axis_products(values, d, real_in=False, real_out=True)
        self._from_grid = _axis_products(coeffs, d, real_in=True, real_out=False)
        self._products = {
            "to_padded": _axis_products(synth, d, real_in=False, real_out=True),
            "from_padded": _axis_products(analysis, d, real_in=True, real_out=False),
            "to_padded_transpose": _axis_products(synth.T, d, real_in=True, real_out=False),
            "from_padded_transpose": _axis_products(analysis.T, d, real_in=False,
                                                    real_out=True),
        }

    # -- transforms --------------------------------------------------------

    def to_values(self, coeffs: np.ndarray) -> np.ndarray:
        """Real grid values of a (possibly stacked) coefficient array."""
        return self._per_axis(coeffs, self._to_grid)

    def from_values(self, values: np.ndarray) -> np.ndarray:
        """Coefficients of real grid values, Nyquist plane zeroed."""
        return self._per_axis(values, self._from_grid)

    # -- padded transforms ---------------------------------------------------

    def _per_axis(self, x: np.ndarray, products) -> np.ndarray:
        """One real matrix product per trailing axis, stack axes folded into rows.

        So a line's bits do not depend on the stack around it.  A lone row
        goes in twice: BLAS sums a one-row product in another order.
        """
        for mat, width, complex_in, complex_out in products:
            x = np.ascontiguousarray(x, dtype=complex if complex_in else float)
            rows = x.view(float).reshape(-1, mat.shape[0])
            out = rows @ mat if len(rows) > 1 else (np.concatenate([rows, rows]) @ mat)[:1]
            x = out[:, :width].reshape(x.shape[:-1] + (width,))
            if complex_out:
                x = x.view(complex)
            if self.d > 1:
                x = np.moveaxis(x, -1, -self.d)
        return x

    def to_padded(self, coeffs: np.ndarray) -> np.ndarray:
        """Real values on the padded grid of a (stacked) coefficient array."""
        return self._per_axis(coeffs, self._products["to_padded"])

    def from_padded(self, values: np.ndarray) -> np.ndarray:
        """Resolved coefficients of real values on the padded grid."""
        return self._per_axis(values, self._products["from_padded"])

    def to_padded_transpose(self, values: np.ndarray) -> np.ndarray:
        """Transpose of :meth:`to_padded` under the pairing Re sum(a * c)."""
        return self._per_axis(values, self._products["to_padded_transpose"])

    def from_padded_transpose(self, coeffs: np.ndarray) -> np.ndarray:
        """Transpose of :meth:`from_padded` under the pairing Re sum(a * c)."""
        return self._per_axis(coeffs, self._products["from_padded_transpose"])

    def plan(self, transform: str, lead: tuple[int, ...]) -> "PaddedPlan":
        """A :class:`PaddedPlan` of the padded transform named ``transform``
        (``"to_padded"``, ``"from_padded"`` or one of their transposes) for
        inputs of stack shape ``lead``."""
        return PaddedPlan(self._products[transform], tuple(lead))

    # -- pointwise algebra --------------------------------------------------

    def dealiased_product(self, cf: np.ndarray, cg: np.ndarray) -> np.ndarray:
        """Coefficients of the pointwise product f*g via 3/2-padded grids.

        Exact (up to rounding) for resolved output modes when both inputs
        are resolved, since pad_n >= max source mode + max kept mode + 1.
        """
        return self.from_padded(self.to_padded(cf) * self.to_padded(cg))

    def heat_multiplier(self, dt: float) -> np.ndarray:
        """Exact semigroup factor exp(-4 pi^2 |k|^2 dt), as a complex array.

        numpy has no real-by-complex product loop: it casts a real factor to
        complex on every product.  Stored complex, the factor gives the same
        bits and skips that cast in each step of the time loops.
        """
        return np.exp(self.lap_mult * dt).astype(complex)

    # -- calculus kernels (array level) --------------------------------------

    def deriv(self, coeffs: np.ndarray, axis: int) -> np.ndarray:
        return coeffs * self.ik[axis]

    def transport_div(self, r_c, grad_v_c, s_c) -> np.ndarray:
        """Array kernel for div(r * (grad V convolved with s)).

        ``grad_v_c`` is the list of d coefficient arrays of grad V.  The
        convolution is a coefficientwise product, the product with r is
        dealiased, and the divergence is spectral.  Inputs may carry
        broadcast-compatible leading (stack) axes.  r is synthesised on
        the padded grid once; each axis term is bit-identical to
        ``ik_j * dealiased_product(r, gradV_j * s)``.
        """
        r_vals = self.to_padded(r_c)
        return sum(self.ik[j] * self.from_padded(r_vals * self.to_padded(grad_v_c[j] * s_c))
                   for j in range(self.d))


def _dft(modes: np.ndarray, p: int) -> np.ndarray:
    """(len(modes), p) entries exp(2 pi i k x / p) from an exact table of p-th roots of
    unity at (k x) mod p: conjugate-symmetric to the bit, no phase at a large argument."""
    j = np.arange(p)
    ang = TWO_PI * np.minimum(j, p - j) / p
    roots = np.cos(ang) + 1j * np.sign(p - 2 * j) * np.sin(ang)
    return roots[np.outer(modes, j) % p]


def real_matrix(Z: np.ndarray, real_in: bool, real_out: bool) -> np.ndarray:
    """The product with a complex (m, p) matrix Z as one real matrix.

    Complex operands enter as interleaved (re, im) pairs, so Z becomes a
    (2m, 2p) real matrix: the re row of input i holds the pairs
    (Re Z_ik, Im Z_ik) and its im row (-Im Z_ik, Re Z_ik).  A real input
    keeps its re rows and a real output its re columns.  Zero columns pad
    it to a multiple of 8: OpenBLAS picks its small- or large-matrix kernel
    by the row count, and the two round a column tail of another width
    differently.
    """
    m, p = Z.shape
    full = np.empty((m, 2, p, 2))
    full[:, 0, :, 0] = full[:, 1, :, 1] = Z.real
    full[:, 0, :, 1] = Z.imag
    np.negative(Z.imag, out=full[:, 1, :, 0])
    mat = full[:, :1 if real_in else 2, :, :1 if real_out else 2]
    rows, width = mat.shape[0] * mat.shape[1], mat.shape[2] * mat.shape[3]
    out = np.zeros((rows, width + -width % 8))
    out[:, :width] = mat.reshape(rows, width)
    return out


def _axis_products(Z: np.ndarray, d: int, real_in: bool, real_out: bool):
    """(matrix, width, complex in, complex out) of each axis of a d-axis product
    with Z: the :func:`real_matrix` of Z, real in on the first axis when
    ``real_in`` and real out on the last when ``real_out``; width is its
    unpadded column count."""
    out = []
    for axis in range(d):
        rin, rout = real_in and axis == 0, real_out and axis == d - 1
        width = Z.shape[1] * (1 if rout else 2)
        out.append((real_matrix(Z, rin, rout), width, not rin, not rout))
    return tuple(out)


class PaddedPlan:
    """One padded transform of a fixed stack shape, run into buffers it owns.

    Built from the per-axis products of :meth:`Grid._per_axis` and the
    stack shape ``lead``.  The caller writes the input into :attr:`x`,
    shape ``lead`` + the input grid, and :meth:`run` returns the output,
    a view of the plan's own buffer that holds only until the next run.
    Each axis is one ``np.dot(..., out=)`` into a buffer the plan owns (one
    BLAS call, without the ufunc dispatch of ``np.matmul``) on the same rows
    and the same padded matrix as :meth:`Grid._per_axis`, so the output
    equals it bit for bit.  A lone row goes in over a spare zero row, so
    that BLAS runs the two-row product of :meth:`Grid._per_axis`, whose
    row 0 does not depend on row 1.  The copies of one axis's output into
    the next axis's input and the products are bound once, in order, as the
    calls that :meth:`run` makes.  A plan pays for its buffers only when it
    runs many times.
    """

    def __init__(self, products, lead: tuple[int, ...]):
        d = len(products)
        mat, _, complex_in, _ = products[0]
        shape = lead + (mat.shape[0] // (2 if complex_in else 1),) * d
        self._ops = []  # per axis: the copy of the previous output into x, the product
        y = None
        for mat, width, complex_in, complex_out in products:
            rows = math.prod(shape[:-1])
            a = np.zeros((max(rows, 2), mat.shape[0]))
            b = np.empty((max(rows, 2), mat.shape[1]))
            x = a[:rows].view(complex if complex_in else float).reshape(shape)
            if y is None:
                self.x = x
            else:
                self._ops.append(partial(np.copyto, x, y))
            self._ops.append(partial(np.dot, a, mat, b))
            y = b[:rows, :width].reshape(shape[:-1] + (width,))
            y = np.moveaxis(y.view(complex) if complex_out else y, -1, -d)
            shape = y.shape
        self.y = y

    def run(self) -> np.ndarray:
        """The transform of :attr:`x`; a view of :attr:`y`, overwritten by the next run."""
        for op in self._ops:
            op()
        return self.y


@lru_cache(maxsize=None)
def get_grid(n: int, d: int) -> Grid:
    return Grid(int(n), int(d))


# ---------------------------------------------------------------------------
# mode bookkeeping


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


@lru_cache(maxsize=None, typed=True)
def mode_array(K: int, d: int) -> np.ndarray:
    """Nonzero integer vectors k with |k| <= K as the rows of a (D, d) array.

    Lexicographic: the canonical ordering of the tau_k basis of E_K.
    Cached and read-only.  A float K raises; ``typed`` keeps it apart
    from the int of equal value in the cache.
    """
    try:
        K = operator.index(K)
    except TypeError:
        raise ValueError(f"truncation radius K must be an integer, got {K!r}") from None
    if K < 1:
        raise ValueError("truncation radius K must be >= 1")
    axis = np.arange(-K, K + 1)
    k = np.stack(np.meshgrid(*([axis] * d), indexing="ij"), axis=-1).reshape(-1, d)
    ksq = np.sum(k * k, axis=1)
    return _read_only(k[(ksq > 0) & (ksq <= K * K)])


@lru_cache(maxsize=None, typed=True)
def mode_ksq(K: int, d: int) -> np.ndarray:
    """|k|^2 of every mode of :func:`mode_array`, as floats; read-only."""
    k = mode_array(K, d)
    return _read_only(np.sum(k * k, axis=1).astype(float))


@lru_cache(maxsize=None, typed=True)
def tau_table(K: int, d: int, n: int) -> np.ndarray:
    """Fourier coefficients of every tau_k of E_K on the n^d grid, (D, n, ..., n).

    Row i belongs to the i-th mode of :func:`mode_array`, which checks K
    first.  Built per axis from the 1-D rows of
    sqrt(2) cos(2 pi m y) = (e_m + e_-m)/sqrt(2), the constant 1 and
    sqrt(2) sin(2 pi m y) = i (e_|m| - e_-|m|)/sqrt(2) for m < 0.  Cached,
    a float K apart from the int, and read-only.
    """
    idx = mode_array(K, d) + K
    if K > n // 2 - 1:
        raise ValueError(f"K={K} not representable on grid n={n}")
    w = 1.0 / SQRT2
    m = np.arange(1, K + 1)
    rows = np.zeros((2 * K + 1, n), dtype=complex)  # row K + m holds T_m
    rows[K, 0] = 1.0
    rows[K + m, m] = rows[K + m, -m] = w
    rows[K - m, m], rows[K - m, -m] = 1j * w, -1j * w
    table = rows[idx[:, 0]]
    for j in range(1, d):
        table = table[..., None] * rows[idx[:, j]].reshape((-1,) + (1,) * j + (n,))
    return _read_only(table)


def modes_in_ball(K: int, d: int) -> list[tuple[int, ...]]:
    """The rows of :func:`mode_array` as tuples."""
    return [tuple(k) for k in mode_array(K, d).tolist()]


def count_dim(K: int, d: int) -> int:
    """Dimension of the mean-zero trigonometric space of degree K."""
    return len(mode_array(K, d))


def basis_tau(k, x) -> float:
    """Value of the real trigonometric basis function tau_k at x.

    Per axis: sqrt(2) cos(2 pi m y) for m > 0, the constant 1 for m = 0,
    and sqrt(2) sin(2 pi m y) for m < 0.
    """
    k = (k,) if np.isscalar(k) else tuple(int(m) for m in k)
    x = np.atleast_1d(np.asarray(x, dtype=float))
    if len(k) != x.shape[-1]:
        raise ValueError("mode and point dimension mismatch")
    val = 1.0
    for m, y in zip(k, x):
        if m > 0:
            val *= SQRT2 * np.cos(TWO_PI * m * y)
        elif m < 0:
            val *= SQRT2 * np.sin(TWO_PI * m * y)
    return float(val)


# ---------------------------------------------------------------------------
# fields


@dataclass
class SpectralField:
    """Real scalar field on the torus stored as complex Fourier coefficients.

    Invariants: coeffs[-k] = conj(coeffs[k]); coeffs[0] is real and equals
    the mean of the field; the Nyquist plane is identically zero.
    """

    d: int
    n: int
    coeffs: np.ndarray

    def __post_init__(self):
        self.coeffs = np.asarray(self.coeffs, dtype=complex)
        if self.coeffs.shape != (self.n,) * self.d:
            raise ValueError("coefficient array shape does not match grid")

    # -- constructors -------------------------------------------------------

    @classmethod
    def zeros(cls, n: int, d: int) -> "SpectralField":
        return cls(d, n, np.zeros((n,) * d, dtype=complex))

    @classmethod
    def constant(cls, value: float, n: int, d: int) -> "SpectralField":
        f = cls.zeros(n, d)
        f.coeffs[(0,) * d] = value
        return f

    # -- basics --------------------------------------------------------------

    @property
    def grid(self) -> Grid:
        return get_grid(self.n, self.d)

    def values(self) -> np.ndarray:
        return self.grid.to_values(self.coeffs)

    def mean(self) -> float:
        return float(self.coeffs[(0,) * self.d].real)

    def eval(self, x) -> float:
        """Exact trigonometric synthesis at a point of [0,1)^d."""
        x = np.atleast_1d(np.asarray(x, dtype=float))
        if x.shape != (self.d,):
            raise ValueError("point dimension mismatch")
        g = self.grid
        phases = [np.exp(TWO_PI * 1j * g.axis_modes * xi) for xi in x]
        c = self.coeffs
        for ph in reversed(phases):
            c = c @ ph
        return float(np.real(c))

    def conj_symmetry_defect(self) -> float:
        """Max deviation from the real-field invariants (for checks)."""
        flat, g = self.coeffs.reshape(-1), self.grid  # flat[0] is the mode k = 0
        return max(float(np.abs(flat[g.neg_index] - flat.conj()).max()), float(abs(flat[0].imag)),
                   float(np.abs(self.coeffs[~g.resolved]).max()))  # the Nyquist plane, never empty

# ---------------------------------------------------------------------------
# the mean-zero trigonometric space E_K


@dataclass
class PotentialVec:
    """Coordinates of a mean-zero potential in the tau_k basis of degree K.

    The basis is orthonormal in L2, so the Euclidean norm of ``values``
    equals the L2 norm of the represented function.  Coordinates follow
    the lexicographic mode ordering of :func:`mode_array`.
    """

    K: int
    d: int
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        D = count_dim(self.K, self.d)
        if self.values.shape != (D,):
            raise ValueError(f"expected {D} coordinates, got {self.values.shape}")

    @property
    def dim(self) -> int:
        return self.values.size

    @property
    def modes(self) -> list[tuple[int, ...]]:
        return modes_in_ball(self.K, self.d)

    @classmethod
    def zeros(cls, K: int, d: int) -> "PotentialVec":
        return cls(K, d, np.zeros(count_dim(K, d)))

    @classmethod
    def from_mode_dict(cls, K: int, d: int, entries: dict) -> "PotentialVec":
        v = cls.zeros(K, d)
        index = {k: i for i, k in enumerate(v.modes)}
        for k, val in entries.items():
            kk = (k,) if np.isscalar(k) else tuple(int(m) for m in k)
            v.values[index[kk]] = val
        return v

    # -- norms ---------------------------------------------------------------

    def l2_norm(self) -> float:
        return float(np.linalg.norm(self.values))

    def sobolev_norm(self, s: float) -> float:
        w = (1.0 + mode_ksq(self.K, self.d)) ** s
        return float(np.sqrt(np.sum(w * self.values**2)))

    def eval(self, x) -> float:
        return float(sum(v * basis_tau(k, x) for k, v in zip(self.modes, self.values)))

    # -- change of representation ---------------------------------------------

    def coeff_grid(self, n: int) -> np.ndarray:
        """Complex coefficient array of the represented function (a new array)."""
        return np.tensordot(self.values, tau_table(self.K, self.d, n), axes=1)

    def __add__(self, other: "PotentialVec") -> "PotentialVec":
        self._check_compatible(other)
        return PotentialVec(self.K, self.d, self.values + other.values)

    def __sub__(self, other: "PotentialVec") -> "PotentialVec":
        self._check_compatible(other)
        return PotentialVec(self.K, self.d, self.values - other.values)

    def __mul__(self, scalar: float) -> "PotentialVec":
        return PotentialVec(self.K, self.d, self.values * float(scalar))

    __rmul__ = __mul__

    def _check_compatible(self, other: "PotentialVec"):
        if self.K != other.K or self.d != other.d:
            raise ValueError("potential truncation/dimension mismatch")


def random_potential(K: int, d: int, rng: np.random.Generator,
                     amplitude: float = 1.0, decay: float = 0.0) -> PotentialVec:
    """Random element of E_K with coordinates ~ amplitude * (1+|k|^2)^(-decay/2)."""
    v = PotentialVec.zeros(K, d)
    v.values[:] = amplitude * (1.0 + mode_ksq(K, d)) ** (-decay / 2.0) * rng.standard_normal(v.dim)
    return v


# ---------------------------------------------------------------------------
# serialization


def save_field(f: SpectralField, csv_path):
    """CSV with columns (k_1..k_d, re, im) plus a JSON sidecar {d, n, K}.

    Rows cover the resolved modes in lexicographic order.
    """
    csv_path = Path(csv_path)
    modes = sorted(itertools.product(
        *([range(-(f.n // 2 - 1), f.n // 2)] * f.d)))
    with open(csv_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([f"k_{j + 1}" for j in range(f.d)] + ["re", "im"])
        for k in modes:
            c = f.coeffs[tuple(m % f.n for m in k)]
            writer.writerow(list(k) + [repr(float(c.real)), repr(float(c.imag))])
    csv_path.with_suffix(".json").write_text(
        json.dumps({"d": f.d, "n": f.n, "K": f.n // 2 - 1}))


def load_field(csv_path) -> SpectralField:
    """Inverse of :func:`save_field`; a row off the resolved modes raises ValueError."""
    csv_path = Path(csv_path)
    meta = json.loads(csv_path.with_suffix(".json").read_text())
    d, n = int(meta["d"]), int(meta["n"])
    f = SpectralField.zeros(n, d)
    with open(csv_path, newline="") as fh:
        reader = csv.reader(fh)
        next(reader)
        for line, row in enumerate(reader, start=2):
            if len(row) != d + 2 or max(abs(int(x)) for x in row[:d]) > n // 2 - 1:
                raise ValueError(f"{csv_path}, row {line}: {row} is not k_1..k_{d}, re, im "
                                 f"with |k_j| <= {n // 2 - 1}")
            k = tuple(int(x) % n for x in row[:d])
            f.coeffs[k] = float(row[d]) + 1j * float(row[d + 1])
    return f
