import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fbttr import tensor
from fbttr.tensor import (
    _aligned,
    _multilinear_product,
    _unfold,
    as_tensor,
    cross_covariance,
    fold,
    frobenius_norm,
    kron_factors,
    kronecker,
    mode_n_product,
    multilinear_product,
    outer,
    unfold,
    vec,
)


# ---------------------------------------------------------------------------
# Independent oracles.  These enumerate indices directly from the layout
# definition and never call the library code they check.
# ---------------------------------------------------------------------------

def unfold_oracle(t, mode):
    """Brute-force unfolding: remaining modes in increasing order, earliest fastest."""
    t = np.asarray(t, dtype=np.float64)
    n = t.ndim
    rest = [ax for ax in range(n) if ax != mode - 1]
    rows = t.shape[mode - 1]
    cols = int(np.prod([t.shape[ax] for ax in rest])) if rest else 1
    out = np.zeros((rows, cols))
    for idx in itertools.product(*(range(s) for s in t.shape)):
        col = 0
        stride = 1
        for ax in rest:
            col += idx[ax] * stride
            stride *= t.shape[ax]
        out[idx[mode - 1], col] = t[idx]
    return out


def mode_product_oracle(t, m, mode):
    t = np.asarray(t, dtype=np.float64)
    m = np.asarray(m, dtype=np.float64)
    new_shape = list(t.shape)
    new_shape[mode - 1] = m.shape[0]
    out = np.zeros(new_shape)
    for idx in itertools.product(*(range(s) for s in new_shape)):
        acc = 0.0
        for j in range(t.shape[mode - 1]):
            src = list(idx)
            src[mode - 1] = j
            acc += m[idx[mode - 1], j] * t[tuple(src)]
        out[idx] = acc
    return out


def kronecker_oracle(a, b):
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    out = np.zeros((a.shape[0] * b.shape[0], a.shape[1] * b.shape[1]))
    for i in range(a.shape[0]):
        for j in range(a.shape[1]):
            out[i * b.shape[0]:(i + 1) * b.shape[0], j * b.shape[1]:(j + 1) * b.shape[1]] = a[i, j] * b
    return out


def cross_covariance_oracle(x, y):
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    out = np.zeros((y.shape[1],) + x.shape[1:])
    for m in range(y.shape[1]):
        for s in range(x.shape[0]):
            out[m] += y[s, m] * x[s]
    return out


# ---------------------------------------------------------------------------
# unfold / fold
# ---------------------------------------------------------------------------

def test_unfold_mode1_of_matrix_is_identity():
    m = np.arange(12, dtype=float).reshape(3, 4)
    assert np.array_equal(unfold(m, 1), m)


def test_unfold_mode2_of_matrix_is_transpose():
    m = np.arange(12, dtype=float).reshape(3, 4)
    assert np.array_equal(unfold(m, 2), m.T)


def test_unfold_222_matches_enumeration_oracle():
    t = np.arange(1, 9, dtype=float).reshape(2, 2, 2)
    expected = unfold_oracle(t, 1)
    assert np.array_equal(unfold(t, 1), expected)
    # frozen value from the oracle: first row walks i2 fastest, then i3
    assert np.array_equal(expected, np.array([[1.0, 3.0, 2.0, 4.0], [5.0, 7.0, 6.0, 8.0]]))


@pytest.mark.parametrize("shape", [(2, 3), (3, 4, 5), (2, 3, 2, 4)])
def test_unfold_matches_oracle_all_modes(shape):
    rng = np.random.default_rng(7)
    t = rng.normal(size=shape)
    for mode in range(1, len(shape) + 1):
        assert np.array_equal(unfold(t, mode), unfold_oracle(t, mode))


def test_fold_unfold_round_trip_bit_exact():
    rng = np.random.default_rng(1)
    t = rng.normal(size=(3, 4, 5))
    for mode in (1, 2, 3):
        back = fold(unfold(t, mode), mode, t.shape)
        assert np.array_equal(back, t)


def test_fold_shape_mismatch_raises():
    with pytest.raises(ValueError):
        fold(np.zeros((3, 5)), 1, (3, 4))


def test_unfold_mode_out_of_range():
    with pytest.raises(ValueError):
        unfold(np.zeros((2, 2)), 3)
    with pytest.raises(ValueError):
        unfold(np.zeros((2, 2)), 0)
    for mode in (0, 3):
        with pytest.raises(ValueError):
            multilinear_product(np.zeros((2, 2)), {1: np.eye(2), mode: np.eye(2)})


def test_nan_rejected():
    for value in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError):
            as_tensor(np.array([1.0, value]))
    with pytest.raises(ValueError):
        multilinear_product(np.ones((2, 2)), {1: np.eye(2), 2: np.array([[1.0, np.nan]])})


def test_order_above_eight_rejected():
    with pytest.raises(ValueError):
        as_tensor(np.zeros((1,) * 9))


# ---------------------------------------------------------------------------
# mode-n product
# ---------------------------------------------------------------------------

def test_mode_product_identity():
    rng = np.random.default_rng(2)
    t = rng.normal(size=(3, 4, 2))
    assert np.allclose(mode_n_product(t, np.eye(4), 2), t)


def test_mode_product_scaling():
    rng = np.random.default_rng(3)
    t = rng.normal(size=(3, 4, 2))
    assert np.allclose(mode_n_product(t, 2.0 * np.eye(3), 1), 2.0 * t)


def test_mode2_sum_collapses_slices():
    t = np.arange(1, 9, dtype=float).reshape(2, 2, 2)
    m = np.array([[1.0, 1.0]])
    got = mode_n_product(t, m, 2)
    expected = mode_product_oracle(t, m, 2)
    assert got.shape == (2, 1, 2)
    assert np.array_equal(got, expected)
    assert np.array_equal(got[:, 0, :], t[:, 0, :] + t[:, 1, :])


def test_mode_product_equals_fold_of_matrix_product():
    rng = np.random.default_rng(4)
    t = rng.normal(size=(3, 4, 5))
    m = rng.normal(size=(6, 4))
    direct = mode_n_product(t, m, 2)
    via_unfold = fold(m @ unfold(t, 2), 2, (3, 6, 5))
    assert np.allclose(direct, via_unfold, atol=1e-13)


def test_mode_product_dimension_mismatch():
    with pytest.raises(ValueError):
        mode_n_product(np.zeros((2, 3)), np.zeros((2, 4)), 2)
    with pytest.raises(ValueError):
        multilinear_product(np.zeros((2, 3)), {1: np.eye(2), 2: np.zeros((2, 4))})


# ---------------------------------------------------------------------------
# multilinear product
# ---------------------------------------------------------------------------

def test_multilinear_identity_factors():
    rng = np.random.default_rng(5)
    t = rng.normal(size=(2, 3, 4))
    got = multilinear_product(t, {1: np.eye(2), 2: np.eye(3), 3: np.eye(4)})
    assert np.allclose(got, t)


def test_rank1_core_gives_outer_product():
    rng = np.random.default_rng(6)
    a, b, c = rng.normal(size=3), rng.normal(size=4), rng.normal(size=5)
    core = np.ones((1, 1, 1))
    got = multilinear_product(core, {1: a.reshape(-1, 1), 2: b.reshape(-1, 1), 3: c.reshape(-1, 1)})
    # triple-loop oracle
    expected = np.zeros((3, 4, 5))
    for i in range(3):
        for j in range(4):
            for k in range(5):
                expected[i, j, k] = a[i] * b[j] * c[k]
    assert np.allclose(got, expected, atol=1e-14)
    assert np.allclose(outer(a, b, c), expected, atol=1e-14)


def test_multilinear_order_of_application_commutes():
    rng = np.random.default_rng(8)
    t = rng.normal(size=(3, 4, 5))
    f2, f3 = rng.normal(size=(2, 4)), rng.normal(size=(6, 5))
    fwd = mode_n_product(mode_n_product(t, f2, 2), f3, 3)
    rev = mode_n_product(mode_n_product(t, f3, 3), f2, 2)
    assert np.allclose(fwd, rev, atol=1e-12)


# ---------------------------------------------------------------------------
# kronecker
# ---------------------------------------------------------------------------

def test_kronecker_identities():
    assert np.array_equal(kronecker(np.eye(2), np.eye(2)), np.eye(4))
    b = np.arange(6, dtype=float).reshape(2, 3)
    assert np.array_equal(kronecker(np.array([[2.0]]), b), 2.0 * b)


def test_kronecker_matches_definition_oracle():
    a = np.array([[1.0, 0.0], [0.0, 1.0]])
    b = np.array([[0.0, 1.0], [1.0, 0.0]])
    assert np.array_equal(kronecker(a, b), kronecker_oracle(a, b))
    rng = np.random.default_rng(9)
    a, b = rng.normal(size=(3, 2)), rng.normal(size=(2, 4))
    assert np.allclose(kronecker(a, b), kronecker_oracle(a, b), atol=1e-14)


# ---------------------------------------------------------------------------
# frobenius norm
# ---------------------------------------------------------------------------

def test_frobenius_norm_values():
    assert frobenius_norm(np.zeros((2, 2, 2))) == 0.0
    assert frobenius_norm(np.array([[3.0]])) == 3.0
    assert frobenius_norm(np.array([3.0, 4.0])) == pytest.approx(5.0, abs=1e-15)


def test_frobenius_norm_of_finite_entries_does_not_overflow():
    # the sum of squares of 120 entries of 1e160 overflows; the norm does not,
    # and no RuntimeWarning is raised
    assert frobenius_norm(np.full((10, 4, 3), 1e160)) == pytest.approx(1e160 * math.sqrt(120), rel=1e-15)
    assert frobenius_norm(np.array([-np.inf, 1.0])) == math.inf
    assert math.isnan(frobenius_norm(np.array([np.nan, 1e160, 1e160])))


@settings(max_examples=50, deadline=None, derandomize=True)
@given(st.lists(st.floats(-1e100, 1e100), min_size=1, max_size=30))
def test_frobenius_norm_is_sqrt_dot_whenever_that_is_finite(values):
    a = np.array(values)
    assert frobenius_norm(a) == float(np.sqrt(np.dot(a, a)))


# ---------------------------------------------------------------------------
# cross covariance
# ---------------------------------------------------------------------------

def test_cross_covariance_column_of_ones_gives_column_sums():
    rng = np.random.default_rng(10)
    x = rng.normal(size=(6, 3, 2))
    y = np.ones((6, 1))
    got = cross_covariance(x, y)
    assert got.shape == (1, 3, 2)
    assert np.allclose(got[0], x.sum(axis=0), atol=1e-13)


def test_cross_covariance_rank1_recovers_loading():
    rng = np.random.default_rng(11)
    t = rng.normal(size=8)
    t /= np.linalg.norm(t)
    p = rng.normal(size=5)
    x = np.multiply.outer(t, p)
    got = cross_covariance(x, t.reshape(-1, 1))
    expected = cross_covariance_oracle(x, t.reshape(-1, 1))
    assert np.allclose(got, expected, atol=1e-13)
    assert np.allclose(got[0], p, atol=1e-12)


def test_cross_covariance_response_column_order():
    rng = np.random.default_rng(12)
    x = rng.normal(size=(5, 4))
    y = rng.normal(size=(5, 2))
    got = cross_covariance(x, y)
    assert got.shape == (2, 4)
    for m in range(2):
        single = cross_covariance(x, y[:, m:m + 1])
        assert np.allclose(got[m], single[0], rtol=0, atol=1e-13)


def test_cross_covariance_sample_mismatch():
    with pytest.raises(ValueError):
        cross_covariance(np.zeros((4, 3)), np.zeros((5, 1)))


# ---------------------------------------------------------------------------
# structural invariants
# ---------------------------------------------------------------------------

def test_round_trip_randomized_all_orders():
    rng = np.random.default_rng(13)
    for _ in range(50):
        order = rng.integers(1, 5)
        shape = tuple(int(rng.integers(1, 5)) for _ in range(order))
        t = rng.normal(size=shape)
        for mode in range(1, order + 1):
            assert np.array_equal(fold(unfold(t, mode), mode, shape), t)


def test_orthonormal_mode_product_preserves_norm():
    rng = np.random.default_rng(14)
    t = rng.normal(size=(4, 5, 3))
    q, _ = np.linalg.qr(rng.normal(size=(5, 5)))
    assert abs(frobenius_norm(mode_n_product(t, q, 2)) - frobenius_norm(t)) < 1e-10


def test_matricized_kronecker_identity():
    # anchor for the predictor construction: mode-1 unfolding of a full
    # multilinear product factors through kron(P_N, ..., P_2)
    rng = np.random.default_rng(15)
    g = rng.normal(size=(1, 2, 3))
    t = rng.normal(size=(6, 1))
    p2, _ = np.linalg.qr(rng.normal(size=(4, 2)))
    p3, _ = np.linalg.qr(rng.normal(size=(5, 3)))
    lhs = unfold(multilinear_product(g, {1: t, 2: p2, 3: p3}), 1)
    rhs = t @ vec(g).reshape(1, -1) @ kron_factors([p2, p3]).T
    assert np.max(np.abs(lhs - rhs)) < 1e-10


def test_vec_requires_unit_leading_extent():
    with pytest.raises(ValueError):
        vec(np.zeros((2, 3)))
    g = np.arange(6, dtype=float).reshape(1, 2, 3)
    assert np.array_equal(vec(g), unfold(g, 1).ravel())


# ---------------------------------------------------------------------------
# byte oracle for the unchecked kernels
# ---------------------------------------------------------------------------

def tensordot_mode_product(t, m, mode):
    """The ``np.tensordot`` spelling of a mode product that the kernel writes out.

    A factor is checked into a C-contiguous copy before any product, so the
    reference takes it in that form: ``tensordot`` on a transposed view can
    reach a different BLAS routine and differ in the last bits.
    """
    m = np.ascontiguousarray(m)
    return np.ascontiguousarray(np.moveaxis(np.tensordot(m, t, axes=(1, mode - 1)), 0, mode - 1))


@st.composite
def factored_tensors(draw):
    """A tensor of order 1-5, factors for a nonempty set of its modes (each
    with 1-4 rows, C-contiguous or a transposed view) and one of its modes."""
    shape = tuple(draw(st.lists(st.integers(1, 4), min_size=1, max_size=5)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    modes = draw(st.sets(st.integers(1, len(shape)), min_size=1))
    factors = {}
    for mode in sorted(modes):
        rows = draw(st.integers(1, 4))
        if draw(st.booleans()):
            factors[mode] = rng.normal(size=(shape[mode - 1], rows)).T
        else:
            factors[mode] = rng.normal(size=(rows, shape[mode - 1]))
    return rng.normal(size=shape), factors, draw(st.integers(1, len(shape)))


def assert_same_bytes(got, expected):
    assert got.shape == expected.shape
    assert got.flags.c_contiguous
    assert got.tobytes() == expected.tobytes()


@settings(max_examples=50, deadline=None, derandomize=True)
@given(factored_tensors())
def test_mode_products_equal_tensordot_byte_for_byte(case):
    t, factors, _ = case
    expected = t
    for mode in sorted(factors):
        assert_same_bytes(mode_n_product(t, factors[mode], mode),
                          tensordot_mode_product(t, factors[mode], mode))
        expected = tensordot_mode_product(expected, factors[mode], mode)
    assert_same_bytes(multilinear_product(t, factors), expected)
    # the unchecked kernel takes a transposed view as the checked call takes its copy
    assert_same_bytes(_multilinear_product(t, factors), expected)


@pytest.mark.parametrize("shape,mode,rows", [((34, 25, 20), 1, 4), ((2, 35, 30), 2, 3), ((25, 24, 26), 2, 2)])
def test_unchecked_multilinear_product_of_a_transposed_view_is_the_checked_bytes(shape, mode, rows):
    # on these shapes OpenBLAS 0.3.31 multiplies a transposed view by another
    # path than its C-contiguous copy, so the kernel must make the copy
    rng = np.random.default_rng(sum(shape))
    t, view = rng.normal(size=shape), rng.normal(size=(shape[mode - 1], rows)).T
    assert_same_bytes(_multilinear_product(t, {mode: view}), multilinear_product(t, {mode: view}))


@settings(max_examples=50, deadline=None, derandomize=True)
@given(factored_tensors())
def test_unchecked_unfold_equals_moveaxis_reshape(case):
    t, _, mode = case
    expected = np.moveaxis(t, mode - 1, 0).reshape(t.shape[mode - 1], -1, order="F")
    got = _unfold(t, mode)
    assert got.shape == expected.shape
    assert got.strides == expected.strides
    assert got.tobytes() == expected.tobytes()


@pytest.mark.parametrize("size", ["1", "b-1", "b", "b+1", "2b+1"])
@pytest.mark.parametrize("order", [2, 3, 4, 5])
@settings(max_examples=15, deadline=None, derandomize=True)
@given(data=st.data())
def test_aligned_batch_times_its_matrix_is_the_unfolded_product(order, size, data):
    # GATHER_BYTES is set so that a block holds b samples
    features = tuple(data.draw(st.lists(st.integers(1, 4), min_size=order - 1, max_size=order - 1)))
    row_bytes = 8 * int(np.prod(features))
    b = data.draw(st.integers(2, 5))
    gather_bytes = b * row_bytes + data.draw(st.integers(0, row_bytes - 1))
    n = {"1": 1, "b-1": b - 1, "b": b, "b+1": b + 1, "2b+1": 2 * b + 1}[size]
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    x = rng.standard_normal((n,) + features)
    w = rng.standard_normal((int(np.prod(features)), data.draw(st.integers(1, 3))))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(tensor, "GATHER_BYTES", gather_bytes)
        u, v = _aligned(x, w)
    expected = _unfold(x, 1) @ w
    got = u @ v
    assert got.shape == expected.shape
    if n > b and sum(e > 1 for e in features) >= 2:  # wide: x in its own order
        assert np.shares_memory(u, x) and u.shape == (n, x.size // n)
        assert np.max(np.abs(got - expected)) <= 1e-12 * np.max(np.abs(expected))
    else:  # the unfolding and w themselves: the same BLAS call
        assert v is w and u.strides == _unfold(x, 1).strides
        assert got.tobytes() == expected.tobytes()


def _traced_peak(fn) -> int:
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        fn()
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


def test_mode_product_peak_memory_at_most_tensordot():
    # the kernel must drop its transposed copy of t before it makes the
    # contiguous result, as tensordot does when it returns
    rng = np.random.default_rng(16)
    t = rng.normal(size=(200, 12, 8, 6))
    m = rng.normal(size=(10, 12))
    assert _traced_peak(lambda: mode_n_product(t, m, 2)) \
        <= _traced_peak(lambda: tensordot_mode_product(t, m, 2))
