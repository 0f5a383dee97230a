"""Deflation-based block-term tensor regression.

Training alternates block extraction on the residuals with their rank-one
deflation (:func:`deflate`): each block contributes a unit score vector
t_k, a response loading q_k and a coefficient d_k = u_k' t_k.  The
residuals belong to :class:`Residuals`, which a fit and a federated client
share, so a one-client federation is the centralized fit, bit for bit.
Prediction is y_hat = unfold(x, 1) @ W @ Z (:func:`materialize_predictor`),
the batch unfolded by :func:`fbttr.tensor._sample_matrix`, so a wide batch
gathered block by block predicts the same bits as one unfolded in one copy.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .sparse_tucker import DEFAULT_RANK_CAP, AceError, Block, HyperGrid, ace, coefficient
from .tensor import (
    _block_rows,
    _sample_matrix,
    as_matrix,
    as_tensor,
    frobenius_norm,
    multilinear_product,
    vec,
)

__all__ = [
    "FitError",
    "FitConfig",
    "NormStats",
    "Block",
    "BttrModel",
    "Residuals",
    "fit",
    "predict",
    "residual_trace",
    "coefficient",
    "deflate",
    "select_k_cv",
    "materialize_predictor",
    "expand",
]


class FitError(RuntimeError):
    """Model fitting could not produce a single block."""


@dataclass
class FitConfig:
    """Training knobs: block budget, residual stop threshold, hyperparameter grid."""

    max_blocks: int = 5
    epsilon: float = 1e-8
    grid: HyperGrid = field(default_factory=HyperGrid)
    rank_cap: int = DEFAULT_RANK_CAP

    def __post_init__(self):
        if self.max_blocks < 1:
            raise ValueError(f"max_blocks must be >= 1, got {self.max_blocks}")
        if not (self.epsilon > 0):
            raise ValueError(f"epsilon must be > 0, got {self.epsilon}")
        if self.rank_cap < 1:
            raise ValueError(f"rank_cap must be >= 1, got {self.rank_cap}")

    def stops(self, e_norm: float, f_norm: float) -> bool:
        """The stop rule: either residual norm is at most ``epsilon``."""
        return e_norm <= self.epsilon or f_norm <= self.epsilon


@dataclass
class NormStats:
    """Per-feature and per-response z-score statistics from the training split."""

    x_mean: np.ndarray
    x_std: np.ndarray
    y_mean: np.ndarray
    y_std: np.ndarray

    @classmethod
    def from_training(cls, x, y, scale_y: bool = True) -> "NormStats":
        x = as_tensor(x, min_order=2)
        y = as_matrix(y)
        x_std = x.std(axis=0)
        y_std = y.std(axis=0) if scale_y else np.ones(y.shape[1])
        y_mean = y.mean(axis=0) if scale_y else np.zeros(y.shape[1])
        return cls(
            x_mean=x.mean(axis=0),
            x_std=np.where(x_std > 0, x_std, 1.0),
            y_mean=y_mean,
            y_std=np.where(y_std > 0, y_std, 1.0),
        )

    def apply_x(self, x) -> np.ndarray:
        return (as_tensor(x, min_order=2) - self.x_mean) / self.x_std

    def apply_y(self, y) -> np.ndarray:
        return (as_matrix(y) - self.y_mean) / self.y_std

    def invert_y(self, scores) -> np.ndarray:
        return as_matrix(scores) * self.y_std + self.y_mean


@dataclass
class BttrModel:
    blocks: list
    w: np.ndarray
    z: np.ndarray
    input_shape: tuple
    normalization: Optional[NormStats] = None
    trace: Optional[list] = None

    @property
    def n_blocks(self) -> int:
        return len(self.blocks)

    @property
    def n_responses(self) -> int:
        return self.z.shape[1]

    def predict(self, x_test) -> np.ndarray:
        return predict(self, x_test)


def expand(core, factors) -> np.ndarray:
    """A block in feature space, ``core x_2 P_2 ... x_N P_N`` with
    ``factors`` = [P_2, ..., P_N]; mode 1 is left alone, so a core of
    mode-1 extent 1 gives the feature shape with a leading 1."""
    return multilinear_product(core, {n + 2: f for n, f in enumerate(factors)})


def materialize_predictor(blocks, input_shape) -> tuple:
    """Build the prediction matrices (W, Z) from a block sequence.

    Column k of W maps the unfolded predictor onto score k.  The raw score
    map of block k is exact on the residual E_k it was extracted from, so
    earlier blocks' deflation loadings are projected back out to make the
    map exact on the original tensor:

        w_k = raw_k - sum_{j<k} (g_j' raw_k) w_j
        raw_k = vec(score_core_k x_2 P_k2 ...),   g_j = vec(core_j x_2 P_j2 ...)

    Both vectors come from :func:`expand`, never from a Kronecker product
    of the factors.  Row k of Z is d_k q_k'.
    """
    d_total = int(np.prod(input_shape))
    k = len(blocks)
    m = blocks[0].q.shape[0] if k else 0
    w = np.zeros((d_total, k))
    z = np.zeros((k, m))
    loadings = np.zeros((d_total, k))
    for i, b in enumerate(blocks):
        raw = vec(expand(b.score_core, b.factors))
        loadings[:, i] = vec(expand(b.core, b.factors))
        w[:, i] = raw - w[:, :i] @ (loadings[:, :i].T @ raw)
        z[i, :] = b.d * b.q.ravel()
    return w, z


def deflate(e, f, core, factors, q, d, t) -> tuple:
    """(E - t ⊗ (core x_2 P_2 ... x_N P_N), F - d t q'): the rank-one
    deflation of the residuals by one block, with d the :func:`coefficient`
    of F on (q, t); ``e`` is deflated in place.

    The block is expanded once, at the feature shape, and subtracted one
    block of :func:`~fbttr.tensor._block_rows` samples at a time: the
    block's outer product with ``t``, then E minus it, the same IEEE
    operations on every entry as on the whole tensor.  ``core`` must have
    mode-1 extent 1.
    """
    g = expand(core, factors)
    if g.shape[0] != 1:
        raise ValueError(f"deflation needs a core of mode-1 extent 1, got shape {g.shape}")
    t_col = np.reshape(t, (e.shape[0],) + (1,) * (e.ndim - 1))
    step = _block_rows(e)
    for s in range(0, e.shape[0], step):
        e[s:s + step] -= t_col[s:s + step] * g
    return e, f - d * (t @ q.T)


class Residuals:
    """The checked data ``x`` of a fit or a federated client and its
    residuals ``e`` and ``f``, the one owner of both.

    ``x`` and ``y`` are checked once, here, and never written: ``e`` and
    ``f`` are the inputs themselves until the first :meth:`deflate` copies
    ``x``, and every deflation writes that copy in place, so the owner
    holds its data and one residual.  ``trace`` holds the residual norms,
    initial state first, one entry per deflation.
    """

    def __init__(self, x, y):
        self.x = self.e = as_tensor(x, min_order=2)
        self.f = as_matrix(y)
        if self.f.shape[0] != self.x.shape[0]:
            raise ValueError(f"sample count mismatch: x has {self.x.shape[0]}, y has {self.f.shape[0]}")
        self.trace = [(frobenius_norm(self.e), frobenius_norm(self.f))]

    def deflate(self, core, factors, q, d, t) -> None:
        """Deflate ``e`` and ``f`` by one block with :func:`deflate`, and trace their norms."""
        if self.e is self.x:
            self.e = self.x.copy()
        self.e, self.f = deflate(self.e, self.f, core, factors, q, d, t)
        self.trace.append((frobenius_norm(self.e), frobenius_norm(self.f)))


def fit(x, y, cfg: FitConfig, normalization: Optional[NormStats] = None) -> BttrModel:
    """Fit a block-term tensor regression on (x, y).

    Extracts up to ``cfg.max_blocks`` blocks, stopping early once
    :meth:`FitConfig.stops` holds; at least one block is always
    extracted.  A failed extraction on the first block raises
    :class:`FitError`; on a later block it truncates the model.

    ``x`` and ``y`` are used as given; callers that z-score their data can
    pass the statistics in ``normalization`` so they travel with the model.
    """
    res = Residuals(x, y)
    blocks = []
    for k in range(cfg.max_blocks):
        if k > 0 and cfg.stops(*res.trace[-1]):
            break
        try:
            a = ace(res.e, res.f, cfg.grid, rank_cap=cfg.rank_cap)
        except AceError as err:
            if k == 0:
                raise FitError(f"no block could be extracted: {err}") from err
            break
        b = a.block
        res.deflate(b.core, b.factors, b.q, b.d, a.t)
        blocks.append(b)

    w, z = materialize_predictor(blocks, res.x.shape[1:])
    return BttrModel(blocks=blocks, w=w, z=z, input_shape=tuple(res.x.shape[1:]),
                     normalization=normalization, trace=res.trace)


def predict(model: BttrModel, x_test) -> np.ndarray:
    """Predicted responses, one row per test sample.

    ``x_test`` must already be in the model's training feature space, i.e.
    normalized with the model's statistics when the training data was.
    """
    x_test = as_tensor(x_test, min_order=2)
    if tuple(x_test.shape[1:]) != tuple(model.input_shape):
        raise ValueError(
            f"test tensor feature shape {x_test.shape[1:]} does not match model {model.input_shape}"
        )
    return _sample_matrix(x_test) @ model.w @ model.z


def residual_trace(model: BttrModel):
    """Per-block (E, F) residual norms, initial state first."""
    if model.trace is None:
        raise ValueError("model carries no residual trace")
    return list(model.trace)


def select_k_cv(x, y, cfg: FitConfig, folds: int, task: str = "regression") -> int:
    """Pick the block count by contiguous-fold cross-validation.

    Folds are contiguous sample ranges (the data may be a time series, so
    no shuffling).  Scores are mean Pearson correlation per response for
    regression and ROC-AUC for binary tasks; ties go to the smaller K.
    Each validation fold is unfolded once, and the first k blocks score it
    as ``U @ W[:, :k] @ Z[:k]``.
    """
    from .metrics import pearson_r, roc_auc

    x = as_tensor(x, min_order=2)
    y = as_matrix(y)
    n = x.shape[0]
    if folds < 2:
        raise ValueError(f"folds must be >= 2, got {folds}")
    if n < folds:
        raise ValueError(f"need at least {folds} samples, got {n}")

    fold_indices = np.array_split(np.arange(n), folds)
    scores = np.full((folds, cfg.max_blocks), -np.inf)
    for fi, val_idx in enumerate(fold_indices):
        train_idx = np.setdiff1d(np.arange(n), val_idx)
        model = fit(x[train_idx], y[train_idx], cfg)
        u = _sample_matrix(x[val_idx])
        for k in range(1, cfg.max_blocks + 1):
            pred = u @ model.w[:, :k] @ model.z[:k]  # all blocks when k > n_blocks
            try:
                if task == "binary":
                    scores[fi, k - 1] = roc_auc(pred[:, 0], y[val_idx, 0])
                else:
                    cols = [pearson_r(pred[:, m], y[val_idx, m]) for m in range(y.shape[1])]
                    scores[fi, k - 1] = float(np.mean(cols))
            except ValueError:
                continue
    mean_scores = scores.mean(axis=0)
    if not np.isfinite(mean_scores).any():
        raise FitError("no fold produced a valid validation score")
    # the smallest K within 1e-12 of the best score
    return int(np.argmax(mean_scores >= np.max(mean_scores) - 1e-12)) + 1
