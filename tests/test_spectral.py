import itertools
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mckvlab.forward import tau_gradient_stack
from mckvlab.parabolic import _folded_analysis
from mckvlab.spectral import (
    PaddedPlan,
    PotentialVec,
    SpectralField,
    basis_tau,
    count_dim,
    get_grid,
    load_field,
    mode_array,
    mode_ksq,
    modes_in_ball,
    random_potential,
    save_field,
    tau_table,
)
from oracles import conj_symmetry_defect, to_field

SQRT2 = np.sqrt(2.0)


def test_basis_tau_values():
    assert basis_tau((0,), 0.37) == 1.0
    assert basis_tau((1,), 0.0) == pytest.approx(SQRT2, abs=1e-15)
    # sqrt(2) sin(2 pi (-1) / 4) = -sqrt(2)
    assert basis_tau((-1,), 0.25) == pytest.approx(-SQRT2, abs=1e-14)
    # product structure in d=2
    val = basis_tau((2, -1), (0.1, 0.2))
    expected = SQRT2 * np.cos(2 * np.pi * 2 * 0.1) * SQRT2 * np.sin(-2 * np.pi * 0.2)
    assert val == pytest.approx(expected, abs=1e-14)


@pytest.mark.parametrize("d,K,expected", [(1, 4, 8), (2, 1, 4), (2, 2, 12)])
def test_count_dim(d, K, expected):
    assert count_dim(K, d) == expected


def test_count_dim_matches_enumeration_3d():
    K = 3
    brute = sum(1 for k in itertools.product(range(-K, K + 1), repeat=3)
                if 0 < sum(c * c for c in k) <= K * K)
    assert count_dim(K, 3) == brute


def test_mode_ordering_is_lexicographic():
    assert modes_in_ball(2, 1) == [(-2,), (-1,), (1,), (2,)]
    m = modes_in_ball(1, 2)
    assert m == [(-1, 0), (0, -1), (0, 1), (1, 0)]


# ---------------------------------------------------------------------------
# the cached tau_k basis tables


def _axis_terms(m):
    # T_m as (mode, weight) pairs of complex exponentials
    w = 1.0 / np.sqrt(2.0)
    if m == 0:
        return [(0, 1.0 + 0j)]
    if m > 0:
        return [(m, w + 0j), (-m, w + 0j)]
    return [(m, -1j * w), (-m, 1j * w)]


def _tau_coeffs_reference(K, d, n):
    """Coefficient array of each tau_k, built mode by mode from its per-axis terms."""
    out = []
    for k in modes_in_ball(K, d):
        c = np.zeros((n,) * d, dtype=complex)
        for combo in itertools.product(*[_axis_terms(m) for m in k]):
            w = 1.0 + 0j
            for _, wj in combo:
                w *= wj
            c[tuple(m % n for m, _ in combo)] += w
        out.append(c)
    return out


def test_mode_tables_are_read_only():
    for table in (mode_array(3, 2), mode_ksq(3, 2), tau_table(3, 2, 8)):
        assert not table.flags.writeable
        with pytest.raises(ValueError):
            table[0] = 0


def test_tau_gradient_stack_is_cached_and_read_only():
    grid = get_grid(8, 2)
    gtau = tau_gradient_stack(3, grid)
    assert tau_gradient_stack(3, grid) is gtau
    assert not gtau.flags.writeable
    assert np.array_equal(gtau, tau_table(3, 2, 8)[:, None] * grid.ik)


def test_coeff_grid_returns_fresh_writable_array():
    v = PotentialVec.from_mode_dict(2, 2, {(1, 0): 1.0})
    c = v.coeff_grid(8)
    assert c.flags.writeable
    c[...] = 7.0
    assert np.array_equal(v.coeff_grid(8), tau_table(2, 2, 8)[v.modes.index((1, 0))])


def test_mode_ksq_matches_modes():
    assert mode_ksq(3, 3).tolist() == [float(sum(m * m for m in k)) for k in modes_in_ball(3, 3)]


@pytest.mark.parametrize("d,K,n", [(1, 5, 32), (2, 4, 16), (3, 3, 8)])
def test_tau_table_and_its_users_equal_per_mode_reference(d, K, n):
    ref = _tau_coeffs_reference(K, d, n)
    assert np.array_equal(tau_table(K, d, n), np.array(ref))

    v = random_potential(K, d, np.random.default_rng(d))
    expected = np.zeros((n,) * d, dtype=complex)
    for val, c in zip(v.values, ref):
        expected += val * c
    assert np.array_equal(v.coeff_grid(n), expected)

    grid = get_grid(n, d)
    gtau = [[grid.deriv(c, j) for j in range(d)] for c in ref]
    assert np.array_equal(tau_gradient_stack(K, grid), np.array(gtau))


def test_tau_table_rows_synthesise_basis_tau():
    K, d, n = 2, 2, 8
    x = np.stack(np.meshgrid(*([np.arange(n) / n] * d), indexing="ij"), axis=-1)
    g = get_grid(n, d)
    for k, row in zip(modes_in_ball(K, d), tau_table(K, d, n)):
        tau = np.array([[basis_tau(k, p) for p in line] for line in x])
        np.testing.assert_allclose(g.to_values(row), tau, atol=1e-13)


def test_tau_table_rejects_unresolvable_K():
    with pytest.raises(ValueError, match="not representable"):
        tau_table(4, 1, 8)


def test_mode_array_rejects_a_float_K_and_keeps_the_cache_sound():
    # 3.0 == 3 as a cache key: a float K once cached a float table there
    assert mode_array(3, 1).dtype.kind == "i"
    with pytest.raises(ValueError, match="integer"):
        mode_array(3.0, 1)
    assert mode_array(np.int64(3), 1).dtype.kind == "i"
    assert tau_table(3, 1, 16).shape == (6, 16)
    with pytest.raises(ValueError, match="integer"):
        count_dim(2.5, 1)


@pytest.mark.parametrize("warm", [False, True])
def test_tau_tables_check_K_before_using_it(warm):
    # K = -1 once reached np.zeros, K = 3.0 a float shape, and a float K the
    # int table cached at its value
    for cached in (tau_table, tau_gradient_stack, mode_ksq):
        cached.cache_clear()
    grid = get_grid(16, 1)
    if warm:
        for K in (2, 3):
            tau_table(K, 1, 16), tau_gradient_stack(K, grid), mode_ksq(K, 1)
    for K, match in ((-1, ">= 1"), (0, ">= 1"), (2.0, "integer"), (3.0, "integer")):
        for table in (lambda: tau_table(K, 1, 16), lambda: tau_gradient_stack(K, grid),
                      lambda: mode_ksq(K, 1)):
            with pytest.raises(ValueError, match=match):
                table()
    assert tau_table(2, 1, 16).shape == (4, 16)


def test_basis_orthonormality_by_quadrature():
    K, d, n = 2, 2, 16
    modes = modes_in_ball(K, d)
    fields = [to_field(PotentialVec.from_mode_dict(K, d, {k: 1.0}), n).values()
              for k in modes]
    for i, fi in enumerate(fields):
        for j, fj in enumerate(fields):
            ip = np.mean(fi * fj)
            assert ip == pytest.approx(1.0 if i == j else 0.0, abs=1e-13)


def test_parseval():
    rng = np.random.default_rng(12)
    f = SpectralField(2, 32, get_grid(32, 2).from_values(rng.standard_normal((32, 32))))
    quad = np.mean(f.values() ** 2)
    assert np.sum(np.abs(f.coeffs) ** 2) == pytest.approx(quad, abs=1e-10)


def test_operations_preserve_conjugate_symmetry():
    rng = np.random.default_rng(13)
    grid = get_grid(32, 1)
    f = grid.from_values(rng.standard_normal((32,)))
    g = grid.from_values(rng.standard_normal((32,)))
    result = SpectralField(1, 32, grid.dealiased_product(f, g))
    assert result.conj_symmetry_defect() < 1e-12


def test_multiply_is_dealiased_product_of_band_limited():
    rng = np.random.default_rng(14)
    f = to_field(random_potential(5, 1, rng), 64)
    g = to_field(random_potential(5, 1, rng), 64)
    p = SpectralField(1, 64, f.grid.dealiased_product(f.coeffs, g.coeffs))
    for x in (0.0, 0.125, 0.6875):
        assert p.eval(x) == pytest.approx(f.eval(x) * g.eval(x), abs=1e-12)


def test_eval_point_basis_and_constant():
    f = to_field(PotentialVec.from_mode_dict(2, 1, {(1,): 1.0}), 32)
    assert f.eval(0.0) == pytest.approx(SQRT2, abs=1e-13)
    c = SpectralField.constant(3.25, 16, 2)
    assert c.eval((0.3, 0.9)) == pytest.approx(3.25, abs=1e-13)


def test_potential_norms():
    rng = np.random.default_rng(15)
    v = random_potential(3, 1, rng)
    c = v.coeff_grid(32)
    ksq = get_grid(32, 1).ksq
    assert v.l2_norm() == pytest.approx(np.sqrt(np.sum(np.abs(c) ** 2)), abs=1e-12)
    assert v.sobolev_norm(1.5) == pytest.approx(
        np.sqrt(np.sum((1.0 + ksq) ** 1.5 * np.abs(c) ** 2)), abs=1e-12)


def test_field_serialization_round_trip(tmp_path):
    rng = np.random.default_rng(17)
    f = SpectralField(2, 16, get_grid(16, 2).from_values(rng.standard_normal((16, 16))))
    save_field(f, tmp_path / "field.csv")
    g = load_field(tmp_path / "field.csv")
    assert g.n == f.n and g.d == f.d
    np.testing.assert_allclose(g.coeffs, f.coeffs, atol=0)


@pytest.mark.parametrize("d", [2, 3])
def test_transport_div_bit_identical_to_per_axis_products(d):
    # r is transformed once per call; the result must not move by one ulp
    rng = np.random.default_rng(18 + d)
    grid = get_grid(8, d)

    def coeffs(*lead):
        shape = lead + grid.shape
        return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) * grid.resolved

    r, s = coeffs(3, 1), coeffs(3, 1)
    grad_v = [coeffs(2) for _ in range(d)]
    expected = grid.ik[0] * grid.dealiased_product(r, grad_v[0] * s)
    for j in range(1, d):
        expected = expected + grid.ik[j] * grid.dealiased_product(r, grad_v[j] * s)
    out = grid.transport_div(r, grad_v, s)
    assert out.shape == (3, 2) + grid.shape
    assert np.array_equal(out, expected)


# -- padded transforms -----------------------------------------------------

_PADDED_GRIDS = [(1, 32), (1, 64), (2, 16), (3, 8)]


def _fft_pad_index(grid):
    # positions of the n-grid modes |k_j| <= n/2 - 1 in the n grid and in the 3n/2 grid
    h, pn = grid.n // 2, grid.pad_n
    src = np.r_[0:h, h + 1:grid.n]
    dst = np.r_[0:h, pn - (h - 1):pn]
    return np.ix_(*[src] * grid.d), np.ix_(*[dst] * grid.d)


def _fft_to_padded(grid, c):
    src, dst = _fft_pad_index(grid)
    padded = np.zeros(c.shape[:-grid.d] + (grid.pad_n,) * grid.d, dtype=complex)
    padded[(Ellipsis,) + dst] = c[(Ellipsis,) + src]
    return np.fft.ifftn(padded, axes=grid.axes).real * grid.pad_n**grid.d


def _fft_from_padded(grid, v):
    src, dst = _fft_pad_index(grid)
    full = np.fft.fftn(v, axes=grid.axes) / grid.pad_n**grid.d
    out = np.zeros(v.shape[:-grid.d] + grid.shape, dtype=complex)
    out[(Ellipsis,) + src] = full[(Ellipsis,) + dst]
    return out


def _rand_complex(rng, shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def _assert_rel(a, b, tol):
    assert np.max(np.abs(a - b)) <= tol * np.max(np.abs(b))


def _assert_transpose_pair(y, jh, jty, h):
    # Re sum(y * J h) = Re sum(J^T y * h), to rounding of either side
    lhs = float(np.sum(y * jh).real)
    rhs = float(np.sum(jty * h).real)
    scale = (np.linalg.norm(y) * np.linalg.norm(jh)
             + np.linalg.norm(jty) * np.linalg.norm(h))
    assert abs(lhs - rhs) <= 1e-12 * scale


@pytest.mark.parametrize("d,n", _PADDED_GRIDS)
def test_padded_transforms_match_zero_pad_fft_crop(d, n):
    # the Nyquist plane of the input is ignored, as by the zero pad
    grid = get_grid(n, d)
    rng = np.random.default_rng(40 + 10 * d + n)
    c = _rand_complex(rng, (3, 2) + grid.shape)
    v = rng.standard_normal((3, 2) + (grid.pad_n,) * d)
    vals = grid.to_padded(c)
    coeffs = grid.from_padded(v)
    assert vals.dtype == float and vals.shape == v.shape
    assert coeffs.dtype == complex and coeffs.shape == c.shape
    _assert_rel(vals, _fft_to_padded(grid, c), 1e-14)
    _assert_rel(coeffs, _fft_from_padded(grid, v), 1e-14)
    assert np.all(coeffs[..., ~grid.resolved] == 0)


_PAD_DOT = settings(derandomize=True, max_examples=30, deadline=None)


@pytest.mark.parametrize("d,n", _PADDED_GRIDS)
def test_padded_transposes_dot_product_identity(d, n):
    grid = get_grid(n, d)
    pad_shape = (grid.pad_n,) * d

    @_PAD_DOT
    @given(B=st.integers(1, 3), seed=st.integers(0, 2**32 - 1))
    def check(B, seed):
        rng = np.random.default_rng(seed)
        c = _rand_complex(rng, (B,) + grid.shape)
        y = rng.standard_normal((B,) + pad_shape)
        _assert_transpose_pair(y, grid.to_padded(c), grid.to_padded_transpose(y), c)
        v = rng.standard_normal((B,) + pad_shape)
        yc = _rand_complex(rng, (B,) + grid.shape)
        _assert_transpose_pair(yc, grid.from_padded(v), grid.from_padded_transpose(yc), v)

    check()


@pytest.mark.parametrize("d,n", [(1, 32), (2, 16), (3, 8)])
def test_padded_transform_row_bits_do_not_depend_on_the_stack(d, n):
    grid = get_grid(n, d)
    rng = np.random.default_rng(60 + d)
    pad_shape = (grid.pad_n,) * d
    big = 48
    inputs = {
        grid.to_padded: _rand_complex(rng, (big,) + grid.shape),
        grid.from_padded: rng.standard_normal((big,) + pad_shape),
        grid.to_padded_transpose: rng.standard_normal((big,) + pad_shape),
        grid.from_padded_transpose: _rand_complex(rng, (big,) + grid.shape),
    }
    for method, x in inputs.items():
        whole = method(x)
        for rows in (1, 2, 7):
            for start in (0, 5):
                part = method(x[start:start + rows])
                assert np.array_equal(part, whole[start:start + rows]), (method, rows)
        assert np.array_equal(method(x[3]), whole[3])


@pytest.mark.parametrize("d,n", [(1, 8), (1, 32), (1, 10), (2, 16), (3, 8)])
def test_grid_values_match_the_fft(d, n):
    # the Nyquist plane of the coefficients enters the values; that of the result is zero
    grid = get_grid(n, d)
    rng = np.random.default_rng(90 + 10 * d + n)
    c = _rand_complex(rng, (3, 2) + grid.shape)
    v = rng.standard_normal((3, 2) + grid.shape)
    vals, coeffs = grid.to_values(c), grid.from_values(v)
    assert vals.dtype == float and vals.shape == c.shape
    assert coeffs.dtype == complex and coeffs.shape == v.shape
    _assert_rel(vals, np.fft.ifftn(c, axes=grid.axes).real * grid.size, 1e-14)
    _assert_rel(coeffs, np.fft.fftn(v, axes=grid.axes) / grid.size * grid.resolved, 1e-14)
    assert np.all(coeffs[..., ~grid.resolved] == 0)


@pytest.mark.parametrize("d,n", [(1, 32), (2, 16), (3, 8)])
def test_grid_value_transform_row_bits_do_not_depend_on_the_stack(d, n):
    grid = get_grid(n, d)
    rng = np.random.default_rng(95 + d)
    inputs = {grid.to_values: _rand_complex(rng, (48,) + grid.shape),
              grid.from_values: rng.standard_normal((48,) + grid.shape)}
    for method, x in inputs.items():
        for size in (1, 2, 7, 48):
            stack = method(x[:size])
            for i in range(size):
                assert np.array_equal(method(x[i]), stack[i]), (method, size, i)


def _direct_product(grid, a, b):
    # coefficient-space convolution over the resolved modes, in centred layout
    h = grid.n // 2 - 1
    idx = np.ix_(*[np.r_[-h:h + 1] % grid.n] * grid.d)
    ac, bc = a[idx], b[idx]
    width = 2 * h + 1
    full = np.zeros((2 * width - 1,) * grid.d, dtype=complex)
    for k in itertools.product(range(width), repeat=grid.d):
        sl = tuple(slice(j, j + width) for j in k)
        full[sl] += ac[k] * bc
    out = np.zeros(grid.shape, dtype=complex)
    out[idx] = full[(slice(h, h + width),) * grid.d]
    return out


@pytest.mark.parametrize("d,n", [(2, 16), (3, 8), (1, 10), (2, 10)])
def test_dealiased_product_is_exact_convolution(d, n):
    # n = 10 has an odd padded grid of 15 points
    grid = get_grid(n, d)
    rng = np.random.default_rng(70 + d)
    a = grid.from_values(rng.standard_normal(grid.shape))
    b = grid.from_values(rng.standard_normal(grid.shape))
    edge = (Ellipsis,) + (grid.n // 2 - 1,) * d
    assert abs(a[edge]) > 0 and abs(b[edge]) > 0
    _assert_rel(grid.dealiased_product(a, b), _direct_product(grid, a, b), 1e-13)


# -- serialization bounds ----------------------------------------------------


def _write_field_csv(path, d, n, rows):
    path.with_suffix(".json").write_text(json.dumps({"d": d, "n": n, "K": n // 2 - 1}))
    lines = [",".join([f"k_{j + 1}" for j in range(d)] + ["re", "im"])]
    lines += [",".join(str(x) for x in row) for row in rows]
    path.write_text("\n".join(lines) + "\n")


@pytest.mark.parametrize("bad_row", [(40, 1.0, 0.0), (-16, 0.5, 0.0), (16, 0.5, 0.0)])
def test_load_field_rejects_unresolved_modes(tmp_path, bad_row):
    path = tmp_path / "field.csv"
    _write_field_csv(path, 1, 32, [(1, 0.25, 0.5), bad_row])
    with pytest.raises(ValueError, match=r"field\.csv, row 3"):
        load_field(path)


def test_load_field_rejects_wrong_column_count(tmp_path):
    path = tmp_path / "field.csv"
    _write_field_csv(path, 2, 16, [(1, 2, 0.25, 0.5), (1, 0.25, 0.5)])
    with pytest.raises(ValueError, match=r"row 3: .* is not k_1..k_2, re, im"):
        load_field(path)


def test_load_field_accepts_the_edge_modes(tmp_path):
    path = tmp_path / "field.csv"
    _write_field_csv(path, 1, 32, [(15, 0.25, 0.5), (-15, 0.25, -0.5)])
    f = load_field(path)
    assert f.coeffs[15] == 0.25 + 0.5j and f.coeffs[-15] == 0.25 - 0.5j
    assert f.conj_symmetry_defect() == 0.0


_PLAN_TRANSFORMS = ("to_padded", "from_padded", "to_padded_transpose", "from_padded_transpose")


# (36,) and (7, 36): the B = 36 pair stacks and the 252-row forcing blocks of the
# d = 1 curvature diagnostics, where OpenBLAS leaves its small-matrix kernel
@pytest.mark.parametrize("lead", [(1,), (2,), (1, 1), (3, 4), (36,), (7, 36)])
@pytest.mark.parametrize("d,n", [(1, 32), (2, 16), (3, 8)])
def test_padded_plans_equal_the_one_shot_transforms_bit_for_bit(d, n, lead):
    grid = get_grid(n, d)
    rng = np.random.default_rng(80 + 10 * d + len(lead))
    for name in _PLAN_TRANSFORMS:
        plan = grid.plan(name, lead)
        complex_in = name in ("to_padded", "from_padded_transpose")
        shape = lead + (grid.shape if complex_in else (grid.pad_n,) * d)
        assert plan.x.shape == shape
        outputs = []
        # the second run, on new input, must not see the first
        for _ in range(2):
            x = _rand_complex(rng, shape) if complex_in else rng.standard_normal(shape)
            plan.x[...] = x
            y = plan.run()
            ref = getattr(grid, name)(x)
            assert y.dtype == ref.dtype and y.shape == ref.shape, name
            assert np.array_equal(y, ref), (name, lead)
            outputs.append(y)
        # the output is the plan's own buffer, overwritten by each run
        assert np.shares_memory(outputs[0], outputs[1])
    if d == 1:
        # the one-axis analysis with ik folded in, as forward._PairForcing builds it
        folded = ((_folded_analysis(grid, False), 2 * n, False, True),)
        plan = PaddedPlan(folded, lead)
        for _ in range(2):
            x = rng.standard_normal(lead + (grid.pad_n,))
            plan.x[...] = x
            assert np.array_equal(plan.run(), grid._per_axis(x, folded)), lead


@pytest.mark.parametrize("d,n", [(1, 32), (1, 6), (2, 8), (3, 6)])
def test_conj_symmetry_defect_equals_the_flip_and_roll_oracle(d, n):
    grid = get_grid(n, d)
    rng = np.random.default_rng(200 + 10 * d + n)
    hermitian = grid.from_values(rng.standard_normal(grid.shape))
    hermitian[(0,) * d] = hermitian[(0,) * d].real
    leaking = hermitian.copy()
    leaking[(n // 2,) + (1,) * (d - 1)] = 0.25  # a real mode on a Nyquist plane
    complex_mean = hermitian.copy()
    complex_mean[(0,) * d] += 0.125j
    fields = [_rand_complex(rng, grid.shape), hermitian, leaking, complex_mean,
              np.zeros(grid.shape, dtype=complex)]
    for c in fields:
        f = SpectralField(d, n, c)
        assert f.conj_symmetry_defect() == conj_symmetry_defect(f)
    assert SpectralField(d, n, hermitian).conj_symmetry_defect() < 1e-15
    assert SpectralField(d, n, leaking).conj_symmetry_defect() == 0.25
