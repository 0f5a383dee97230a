"""Dense N-way tensor primitives.

Every tensor is a float64 numpy array in row-major (first index
slowest-varying) layout.  Mode numbering is 1-based throughout, matching
the usual multilinear-algebra convention: mode 1 of a data tensor is the
sample mode.

Unfolding convention: ``unfold(t, n)`` has one row per mode-n index and
enumerates the remaining modes in increasing mode order with the earliest
remaining mode varying fastest.  Under this convention

    unfold(G x1 A1 x2 A2 ... xN AN, 1) = A1 @ unfold(G, 1) @ kron(AN, ..., A2).T

The regression predictor is built with mode products; this identity, with
:func:`kron_factors` on the right, is the reference tests check it against.

A batch of samples meets the predictor ``W`` through :func:`_aligned`.  A
batch of at most :data:`GATHER_BYTES` meets it as its mode-1 unfolding, an
F-contiguous copy whose layout fixes how BLAS multiplies it, hence the last
bits of every prediction.  A wider batch is never copied: its C-ordered view
meets ``W`` with its rows permuted into the batch's own feature order, the
same sums to within rounding.  A wide fit walks its data in blocks of at
most that many bytes (:func:`_block_rows`).
"""

from __future__ import annotations

import math
from typing import Mapping

import numpy as np

MAX_ORDER = 8
# A tensor of samples above this many bytes is projected and deflated in a
# fit one block of samples at a time, each block at most this size (and at
# least one sample); a batch above it meets W in its own C order for prediction.
GATHER_BYTES = 4 << 20

__all__ = [
    "as_tensor",
    "as_matrix",
    "unfold",
    "fold",
    "vec",
    "mode_n_product",
    "multilinear_product",
    "kronecker",
    "kron_factors",
    "frobenius_norm",
    "cross_covariance",
    "outer",
]


def as_tensor(data, min_order: int = 1) -> np.ndarray:
    """Validate and coerce ``data`` to a float64 C-contiguous ndarray.

    Rejects NaN and ±inf entries, empty extents, and order > 8.
    """
    a = np.ascontiguousarray(data, dtype=np.float64)
    if a.ndim < min_order:
        raise ValueError(f"tensor order {a.ndim} below required minimum {min_order}")
    if a.ndim > MAX_ORDER:
        raise ValueError(f"tensor order {a.ndim} exceeds supported maximum {MAX_ORDER}")
    if a.ndim == 0:
        a = a.reshape(1)
    if any(s < 1 for s in a.shape):
        raise ValueError(f"all extents must be >= 1, got shape {a.shape}")
    if not np.isfinite(a).all():
        raise ValueError("tensor contains NaN or inf")
    return a


def as_matrix(data) -> np.ndarray:
    """Validate ``data`` as an order-2 tensor."""
    a = as_tensor(data)
    if a.ndim == 1:
        a = a.reshape(-1, 1)
    if a.ndim != 2:
        raise ValueError(f"expected a matrix, got order-{a.ndim} tensor")
    return a


def _check_mode(t: np.ndarray, mode: int) -> None:
    if not 1 <= mode <= t.ndim:
        raise ValueError(f"mode {mode} out of range for order-{t.ndim} tensor")


def unfold(t, mode: int) -> np.ndarray:
    """Mode-n unfolding (1-based mode).

    Returns an ``I_mode x prod(other extents)`` matrix.  Columns enumerate
    the remaining modes in increasing order, earliest mode fastest.
    """
    t = as_tensor(t)
    _check_mode(t, mode)
    return _unfold(t, mode)


def fold(m, mode: int, shape) -> np.ndarray:
    """Inverse of :func:`unfold`: rebuild the tensor of ``shape`` from its mode-n unfolding."""
    m = as_matrix(m)
    shape = tuple(int(s) for s in shape)
    if not 1 <= mode <= len(shape):
        raise ValueError(f"mode {mode} out of range for shape {shape}")
    rest = [s for i, s in enumerate(shape) if i != mode - 1]
    expected = (shape[mode - 1], int(np.prod(rest)) if rest else 1)
    if m.shape != expected:
        raise ValueError(f"matrix shape {m.shape} inconsistent with fold({mode}, {shape}), expected {expected}")
    moved = m.reshape([shape[mode - 1]] + rest, order="F")
    return np.ascontiguousarray(np.moveaxis(moved, 0, mode - 1))


def vec(t) -> np.ndarray:
    """Row-vectorisation consistent with the unfolding convention.

    For a core with mode-1 extent 1 this is the single row of its mode-1
    unfolding, as a 1-D array.
    """
    t = as_tensor(t)
    if t.shape[0] != 1:
        raise ValueError(f"vec expects mode-1 extent 1, got shape {t.shape}")
    return _unfold(t, 1).ravel()


def _mode_product_view(t: np.ndarray, m: np.ndarray, mode: int) -> np.ndarray:
    """The values of :func:`_mode_product` as a transposed view of the
    ``np.dot`` output, for a caller that reads them once."""
    k = mode - 1
    rest = [i for i in range(t.ndim) if i != k]
    moved = t.transpose([k] + rest).reshape(t.shape[k], -1)
    out = np.dot(np.ascontiguousarray(m), moved).reshape([m.shape[0]] + [t.shape[i] for i in rest])
    return out.transpose(list(range(1, mode)) + [0] + list(range(mode, t.ndim)))


def _mode_product(t: np.ndarray, m: np.ndarray, mode: int) -> np.ndarray:
    """Unchecked mode-n product of arrays the caller has validated.

    ``np.tensordot(m, t, axes=(1, mode - 1))`` written out, so ``np.dot``
    sees the same operands and the result is byte-identical; the transposed
    copy of ``t`` is dropped before the contiguous result is made, as it is
    when ``tensordot`` returns.  ``m`` reaches ``np.dot`` C-contiguous, as
    :func:`as_matrix` makes it, since a transposed view can take another BLAS path.
    """
    return np.ascontiguousarray(_mode_product_view(t, m, mode))


def _unfold(t: np.ndarray, mode: int) -> np.ndarray:
    """Unchecked :func:`unfold` of an array the caller has validated."""
    k = mode - 1
    return t.transpose([k] + [i for i in range(t.ndim) if i != k]).reshape(t.shape[k], -1, order="F")


def _block_rows(x: np.ndarray) -> int:
    """Samples per block of a sample-first ``x``: at most :data:`GATHER_BYTES`
    of them and at least one, so all of ``x`` when it fits."""
    return max(1, GATHER_BYTES // (x.nbytes // x.shape[0]))


def _aligned(x: np.ndarray, w: np.ndarray) -> tuple:
    """``(U, V)`` with ``U @ V`` equal to ``_unfold(x, 1) @ w`` for a validated
    sample batch ``x`` and a matrix ``w`` with one row per unfolded feature.

    A batch of at most :data:`GATHER_BYTES`, or with at most one feature
    extent above 1, gives ``(_unfold(x, 1), w)``: the product is the same
    BLAS call, bit for bit.  A wider batch gives its C-ordered view and
    ``w``'s rows permuted into that feature order, a copy of ``w`` and none
    of ``x``; the product moves by rounding only.
    """
    if x.nbytes <= GATHER_BYTES or sum(e > 1 for e in x.shape[1:]) < 2:
        return _unfold(x, 1), w
    feats, k = x.ndim - 1, w.shape[1]
    rows = w.reshape(x.shape[:0:-1] + (k,)).transpose(list(range(feats - 1, -1, -1)) + [feats])
    return x.reshape(x.shape[0], -1), rows.reshape(-1, k)


def mode_n_product(t, m, mode: int) -> np.ndarray:
    """Mode-n product: contract ``m`` (rows x I_mode) against mode ``mode`` of ``t``."""
    return multilinear_product(t, {mode: m})


def multilinear_product(t, factors: Mapping[int, np.ndarray]) -> np.ndarray:
    """Apply a mode->matrix map of mode-n products; order of application is immaterial.

    ``t`` and every factor are checked once, before any product is taken.
    """
    t = as_tensor(t)
    checked = {mode: as_matrix(m) for mode, m in factors.items()}
    for mode, m in checked.items():
        _check_mode(t, mode)
        if m.shape[1] != t.shape[mode - 1]:
            raise ValueError(f"mode-{mode} product needs cols(m)={t.shape[mode - 1]}, "
                             f"got {m.shape[1]}")
    return _multilinear_product(t, checked)


def _multilinear_product(t: np.ndarray, factors: Mapping[int, np.ndarray]) -> np.ndarray:
    """Unchecked :func:`multilinear_product` of a C-contiguous float64 ``t``
    and validated factors, which may be transposed views (:func:`_mode_product`)."""
    for mode in sorted(factors):
        t = _mode_product(t, factors[mode], mode)
    return t


def kronecker(a, b) -> np.ndarray:
    a = as_matrix(a)
    b = as_matrix(b)
    return np.kron(a, b)


def kron_factors(factors) -> np.ndarray:
    """kron(P_N, ..., P_2) for a factor list given in increasing mode order 2..N."""
    mats = [as_matrix(f) for f in factors]
    if not mats:
        return np.array([[1.0]])
    out = mats[-1]
    for m in reversed(mats[:-1]):
        out = np.kron(out, m)
    return out


def frobenius_norm(t) -> float:
    """The Frobenius norm, :func:`_frobenius_norm` of ``t`` as float64; when
    the sum of squares of finite entries overflows, it is taken again from
    ``t`` over its largest magnitude."""
    a = np.asarray(t, dtype=np.float64)
    with np.errstate(over="ignore"):
        norm = _frobenius_norm(a)
    if math.isinf(norm) and np.isfinite(a).all():
        top = float(np.max(np.abs(a)))
        norm = top * _frobenius_norm(a / top)
    return norm


def _frobenius_norm(a: np.ndarray) -> float:
    """Unchecked ``sqrt(dot(a, a))`` of a float64 array whose sum of squares
    the caller knows to be finite; an overflow warns and gives inf."""
    return float(np.linalg.norm(a.ravel()))


def cross_covariance(x, y) -> np.ndarray:
    """Contract predictor tensor and response matrix over the shared sample mode.

    ``x`` is samples-first (I_1 x I_2 x ... x I_N), ``y`` is I_1 x M.  The
    result has shape M x I_2 x ... x I_N with entry
    (m, i_2..i_N) = sum_s y[s, m] * x[s, i_2..i_N].  No centering is applied;
    z-scoring is the caller's responsibility.
    """
    return _cross_covariance(*_checked_samples(x, y))


def _checked_samples(x, y) -> tuple:
    """``x`` checked as a samples-first tensor and ``y`` as a matrix with as many rows."""
    x = as_tensor(x, min_order=2)
    y = as_matrix(y)
    if y.shape[0] != x.shape[0]:
        raise ValueError(f"sample count mismatch: x has {x.shape[0]}, y has {y.shape[0]}")
    return x, y


def _cross_covariance(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Unchecked :func:`cross_covariance` of a C-contiguous float64 pair the caller has validated."""
    return np.ascontiguousarray(np.tensordot(y, x, axes=(0, 0)))


def outer(*vectors) -> np.ndarray:
    """Outer product of 1-D vectors; exposed for tests and synthetic construction."""
    vs = [np.asarray(v, dtype=np.float64).ravel() for v in vectors]
    out = vs[0]
    for v in vs[1:]:
        out = np.multiply.outer(out, v)
    return out
