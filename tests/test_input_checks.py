"""Inputs are checked once, at the library's public edge.

Every public entry rejects a NaN, an inf, an empty extent and a wrong order
with ``ValueError``; everything behind the edge runs on the checked arrays
unchecked, so the number of checks a fit makes does not grow with its grid.
"""

import functools

import numpy as np
import pytest

from fbttr import bttr, data, sparse_tucker, tensor
from fbttr.bttr import FitConfig, NormStats, Residuals, fit, predict, select_k_cv
from fbttr.data import Dataset, make_synthetic
from fbttr.federated import ClientSession
from fbttr.sparse_tucker import HyperGrid, ace, f_mpstd, hooi_init
from fbttr.tensor import (
    MAX_ORDER,
    cross_covariance,
    fold,
    kron_factors,
    kronecker,
    mode_n_product,
    multilinear_product,
    unfold,
    vec,
)

GRID = HyperGrid(snr_values=(10.0,), tau_values=(100.0,))
CFG = FitConfig(max_blocks=1, grid=GRID)
RNG = np.random.default_rng(28)
X = RNG.normal(size=(12, 4, 3))
Y = RNG.normal(size=(12, 1))
T = RNG.normal(size=(2, 4, 3))
M = RNG.normal(size=(5, 4))


@functools.cache
def _model():
    return fit(X, Y, CFG)


@functools.cache
def _stats():
    return NormStats.from_training(X, Y)


# (entry, kind of the argument it is fed, a good value of it, the call);
# kind "samples" is a samples-first tensor, "matrix" a matrix, "tensor" any tensor
ENTRIES = [
    ("fit.x", "samples", X, lambda a: fit(a, Y, CFG)),
    ("fit.y", "matrix", Y, lambda a: fit(X, a, CFG)),
    ("predict", "samples", X, lambda a: predict(_model(), a)),
    ("select_k_cv.x", "samples", X, lambda a: select_k_cv(a, Y, CFG, folds=2)),
    ("select_k_cv.y", "matrix", Y, lambda a: select_k_cv(X, a, CFG, folds=2)),
    ("Residuals.x", "samples", X, lambda a: Residuals(a, Y)),
    ("Residuals.y", "matrix", Y, lambda a: Residuals(X, a)),
    ("ClientSession.x", "samples", X, lambda a: ClientSession(0, a, Y)),
    ("ClientSession.y", "matrix", Y, lambda a: ClientSession(0, X, a)),
    ("ace.x", "samples", X, lambda a: ace(a, Y, GRID)),
    ("ace.y", "matrix", Y, lambda a: ace(X, a, GRID)),
    ("f_mpstd.x", "samples", X, lambda a: f_mpstd(a, Y, 10.0, 100.0)),
    ("f_mpstd.y", "matrix", Y, lambda a: f_mpstd(X, a, 10.0, 100.0)),
    ("hooi_init", "tensor", T, lambda a: hooi_init(a, (1, 2, 2))),
    ("NormStats.from_training.x", "samples", X, lambda a: NormStats.from_training(a, Y)),
    ("NormStats.from_training.y", "matrix", Y, lambda a: NormStats.from_training(X, a)),
    ("NormStats.apply_x", "samples", X, lambda a: _stats().apply_x(a)),
    ("NormStats.apply_y", "matrix", Y, lambda a: _stats().apply_y(a)),
    ("NormStats.invert_y", "matrix", Y, lambda a: _stats().invert_y(a)),
    ("Dataset", "samples", X, lambda a: Dataset(a, Y, ["f"] * 12, "regression")),
    ("unfold", "tensor", T, lambda a: unfold(a, 1)),
    ("fold", "matrix", unfold(T, 1), lambda a: fold(a, 1, T.shape)),
    ("vec", "tensor", T[:1], vec),
    ("mode_n_product.t", "tensor", T, lambda a: mode_n_product(a, M, 2)),
    ("mode_n_product.m", "matrix", M, lambda a: mode_n_product(T, a, 2)),
    ("multilinear_product.t", "tensor", T, lambda a: multilinear_product(a, {2: M})),
    ("multilinear_product.m", "matrix", M, lambda a: multilinear_product(T, {2: a})),
    ("kronecker", "matrix", M, lambda a: kronecker(a, M)),
    ("kron_factors", "matrix", M, lambda a: kron_factors([M, a])),
    ("cross_covariance.x", "samples", X, lambda a: cross_covariance(a, Y)),
    ("cross_covariance.y", "matrix", Y, lambda a: cross_covariance(X, a)),
]


def bad_input(good: np.ndarray, kind: str, how: str) -> np.ndarray:
    if how in ("nan", "inf"):
        bad = good.copy()
        bad.flat[bad.size // 2] = np.nan if how == "nan" else -np.inf
        return bad
    if how == "empty-extent":
        return good[..., :0]
    # a wrong order: a samples-first tensor needs a feature mode, a matrix
    # at most two modes, and no tensor more than MAX_ORDER
    if kind == "samples":
        return good.ravel()
    if kind == "matrix":
        return good[..., None]
    return good.reshape(good.shape + (1,) * (MAX_ORDER + 1 - good.ndim))


@pytest.mark.parametrize("name,kind,good,call", ENTRIES, ids=[e[0] for e in ENTRIES])
def test_every_public_entry_takes_the_good_input(name, kind, good, call):
    call(good.copy())


@pytest.mark.parametrize("how", ["nan", "inf", "empty-extent", "wrong-order"])
@pytest.mark.parametrize("name,kind,good,call", ENTRIES, ids=[e[0] for e in ENTRIES])
def test_every_public_entry_rejects_bad_input_from_outside(name, kind, good, call, how):
    with pytest.raises(ValueError):
        call(bad_input(good, kind, how))


def test_a_fit_checks_as_often_whatever_its_grid(monkeypatch):
    # internal kernels take the fit's own arrays unchecked, so the grid
    # search adds no check however many cells it runs
    ds, _ = make_synthetic((40, 5, 4), n_blocks=2, noise_snr_db=20.0, seed=3)
    real, calls = tensor.as_tensor, []

    def spy(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    for module in (tensor, sparse_tucker, bttr, data):
        if hasattr(module, "as_tensor"):
            monkeypatch.setattr(module, "as_tensor", spy)
    counts = []
    for grid in (GRID, HyperGrid((1.0, 5.0, 10.0, 20.0, 40.0), (90.0, 95.0, 99.0, 100.0))):
        calls.clear()
        model = fit(ds.x, ds.y, FitConfig(max_blocks=2, grid=grid))
        assert model.n_blocks == 2
        counts.append(len(calls))
    assert counts[0] > 0
    assert counts[0] == counts[1]
