"""Dataset container, CSV ingestion, synthetic benchmarks and client partitioning."""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field, replace
from typing import Optional

import numpy as np

from .tensor import _mode_product_view, _multilinear_product, as_tensor, frobenius_norm

TASKS = ("regression", "binary", "survival")

__all__ = [
    "DataError",
    "CsvSchema",
    "Dataset",
    "SyntheticTruth",
    "PartitionPlan",
    "load_csv",
    "load_feature_csv",
    "load_npz",
    "save_npz",
    "make_synthetic",
    "partition",
]


class DataError(ValueError):
    pass


@dataclass
class CsvSchema:
    """Names the response column(s), the task, and optional special columns."""

    response: list
    task: str = "regression"
    event_col: Optional[str] = None
    site_col: Optional[str] = None

    def __post_init__(self):
        if isinstance(self.response, str):
            self.response = [self.response]
        if self.task not in TASKS:
            raise DataError(f"task must be one of {TASKS}, got {self.task!r}")
        if self.task == "survival" and not self.event_col:
            raise DataError("survival task requires an event indicator column")


@dataclass
class Dataset:
    """Samples-first predictor tensor with its response matrix.

    For survival tasks ``y`` holds (time, event) pairs.
    """

    x: np.ndarray
    y: np.ndarray
    feature_names: list
    task: str
    site_ids: Optional[np.ndarray] = None
    rejected_rows: list = field(default_factory=list)

    def __post_init__(self):
        if self.task not in TASKS:
            raise DataError(f"task must be one of {TASKS}, got {self.task!r}")
        self.x = as_tensor(self.x, min_order=2)
        self.y = np.asarray(self.y, dtype=np.float64)
        if self.y.ndim == 1:
            self.y = self.y.reshape(-1, 1)
        if self.y.shape[0] != self.x.shape[0]:
            raise DataError(
                f"x has {self.x.shape[0]} samples but y has {self.y.shape[0]} rows"
            )

    @property
    def n_samples(self) -> int:
        return self.x.shape[0]

    def subset(self, indices) -> "Dataset":
        indices = np.asarray(indices, dtype=int)
        return replace(
            self,
            x=self.x[indices],
            y=self.y[indices],
            site_ids=self.site_ids[indices] if self.site_ids is not None else None,
            rejected_rows=[],
        )


def _parse_float(value: str):
    try:
        return float(value)
    except (TypeError, ValueError):
        return None


def load_csv(path, schema: CsvSchema) -> Dataset:
    """Load a UTF-8 CSV with a header row into an order-2 dataset.

    Declared response (and event) values must parse as numbers; rows where
    they do not are dropped and reported in ``rejected_rows`` with their
    1-based row numbers.  Feature columns that fail to parse numerically
    anywhere are treated as categorical and one-hot encoded in
    first-appearance order.
    """
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        rows = [row for row in reader if row]
    if not rows:
        raise DataError(f"{path}: empty file")
    header = [h.strip() for h in rows[0]]
    body = rows[1:]
    if not body:
        raise DataError(f"{path}: no data rows")

    declared = list(schema.response)
    if schema.event_col:
        declared.append(schema.event_col)
    if schema.site_col:
        declared.append(schema.site_col)
    missing = [c for c in declared if c not in header]
    if missing:
        raise DataError(f"{path}: missing columns {missing}")

    col_of = {name: header.index(name) for name in header}
    special = set(schema.response) | ({schema.event_col, schema.site_col} - {None})
    feature_cols = [h for h in header if h not in special]
    if not feature_cols:
        raise DataError(f"{path}: no feature columns left after removing declared columns")

    # response/event values must be numeric per row; offending rows are dropped
    kept, rejected = [], []
    numeric_check = list(schema.response) + ([schema.event_col] if schema.event_col else [])
    for i, row in enumerate(body):
        if len(row) != len(header):
            rejected.append((i + 2, f"expected {len(header)} fields, got {len(row)}"))
            continue
        bad = next(
            (c for c in numeric_check if _parse_float(row[col_of[c]]) is None), None
        )
        if bad is not None:
            rejected.append((i + 2, f"non-numeric value {row[col_of[bad]]!r} in column {bad!r}"))
            continue
        kept.append(row)
    if not kept:
        raise DataError(f"{path}: no parseable rows (first error: {rejected[0][1]})")

    numeric_feature = {
        c: all(_parse_float(row[col_of[c]]) is not None for row in kept)
        for c in feature_cols
    }
    columns, names = [], []
    for c in feature_cols:
        idx = col_of[c]
        if numeric_feature[c]:
            columns.append(np.array([_parse_float(row[idx]) for row in kept]))
            names.append(c)
        else:
            seen = []
            for row in kept:
                if row[idx] not in seen:
                    seen.append(row[idx])
            for level in seen:
                columns.append(np.array([1.0 if row[idx] == level else 0.0 for row in kept]))
                names.append(f"{c}={level}")
    x = np.column_stack(columns)

    y_cols = [np.array([_parse_float(row[col_of[c]]) for row in kept]) for c in schema.response]
    if schema.task == "survival":
        y_cols.append(np.array([_parse_float(row[col_of[schema.event_col]]) for row in kept]))
    y = np.column_stack(y_cols)
    if schema.task == "binary" and not set(np.unique(y[:, 0])) <= {0.0, 1.0}:
        raise DataError(f"{path}: binary response must contain only 0/1 values")
    if schema.task == "survival" and not set(np.unique(y[:, -1])) <= {0.0, 1.0}:
        raise DataError(f"{path}: event indicator must contain only 0/1 values")

    site_ids = None
    if schema.site_col:
        site_ids = np.array([row[col_of[schema.site_col]] for row in kept], dtype=object)
    return Dataset(x=x, y=y, feature_names=names, task=schema.task,
                   site_ids=site_ids, rejected_rows=rejected)


def load_feature_csv(path, input_shape) -> np.ndarray:
    """Samples-first tensor of ``input_shape`` from a CSV of numeric feature columns only."""
    with open(path, newline="", encoding="utf-8") as fh:
        rows = [r for r in csv.reader(fh) if r]
    if len(rows) < 2:
        raise DataError(f"{path}: no data rows")
    try:
        x = np.array([[float(v) for v in row] for row in rows[1:]])
    except ValueError as e:
        raise DataError(f"{path}: non-numeric feature value ({e})") from e
    expected = int(np.prod(input_shape))
    if x.shape[1] != expected:
        raise DataError(f"{path}: model expects {expected} features, file has {x.shape[1]}")
    return x.reshape((x.shape[0],) + tuple(input_shape))


def load_npz(path) -> Dataset:
    """Load a pre-tensorized dataset saved by :func:`save_npz`."""
    with np.load(path, allow_pickle=False) as data:
        if "x" not in data or "y" not in data:
            raise DataError(f"{path}: expected arrays 'x' and 'y'")
        task = str(data["task"]) if "task" in data else "regression"
        names = [str(n) for n in data["feature_names"]] if "feature_names" in data else []
        site = data["site_ids"].astype(object) if "site_ids" in data else None
        return Dataset(x=data["x"], y=data["y"], feature_names=names, task=task,
                       site_ids=site)


def save_npz(ds: Dataset, path) -> None:
    payload = {
        "x": ds.x,
        "y": ds.y,
        "task": np.str_(ds.task),
        "feature_names": np.array([str(n) for n in ds.feature_names]),
    }
    if ds.site_ids is not None:
        payload["site_ids"] = np.array([str(s) for s in ds.site_ids])
    np.savez(path, **payload)


@dataclass
class SyntheticTruth:
    """Planted components and the clean signals, for recovery checks."""

    t: np.ndarray          # samples x blocks, orthonormal columns
    factors: list          # per block: list of per-mode loading columns
    q: np.ndarray          # responses x blocks
    d: np.ndarray          # block coefficients
    x_clean: np.ndarray
    y_clean: np.ndarray


def _orthonormal_columns(rng, rows, cols):
    if cols > rows:
        raise DataError(f"cannot draw {cols} orthonormal columns in {rows} dimensions")
    q, _ = np.linalg.qr(rng.normal(size=(rows, cols)))
    return q


def _add_noise_at_snr(rng, clean, snr_db):
    """``clean + scale * noise`` at the requested SNR, built in the noise array."""
    noise = rng.normal(size=clean.shape)
    scale = frobenius_norm(clean) / (frobenius_norm(noise) * 10.0 ** (snr_db / 20.0))
    noise *= scale
    noise += clean  # IEEE addition commutes: the same bits as clean + scale * noise
    return noise


def make_synthetic(shape, n_blocks: int, noise_snr_db=None, seed: int = 0,
                   n_responses: int = 1, ranks=None, task: str = "regression"):
    """Plant orthogonal multilinear components and return (Dataset, truth).

    ``shape`` is samples-first.  Components are mutually orthogonal per
    mode (disjoint orthonormal column blocks), so each planted block is
    recoverable in isolation.  ``noise_snr_db=None`` or ``+inf`` gives the
    exact noiseless construction, and NaN or ``-inf`` is a
    :class:`DataError`; a fixed seed gives bit-identical output.

    Each planted block is added into ``x_clean`` in place, its last mode
    product read through the transposed view of its ``np.dot`` output, and
    the noise is scaled and added in its own array: the bits of
    ``x_clean + block`` and ``clean + scale * noise`` with one data-sized
    temporary at a time.
    """
    noiseless = noise_snr_db is None or noise_snr_db == math.inf
    if not noiseless and not math.isfinite(noise_snr_db):
        raise DataError(f"noise SNR must be a number of dB or +inf, got {noise_snr_db}")
    shape = tuple(int(s) for s in shape)
    if len(shape) < 2:
        raise DataError("shape must include a sample mode and at least one feature mode")
    if n_blocks < 1:
        raise DataError("need at least one planted block")
    feature_shape = shape[1:]
    n = shape[0]
    ranks = tuple(ranks) if ranks is not None else tuple(1 for _ in feature_shape)
    if len(ranks) != len(feature_shape):
        raise DataError(f"need {len(feature_shape)} ranks, got {len(ranks)}")
    for ext, r in zip(feature_shape, ranks):
        if n_blocks * r > ext:
            raise DataError(
                f"infeasible ranks: {n_blocks} blocks x rank {r} exceeds extent {ext}"
            )
    rng = np.random.default_rng(seed)
    t_all = _orthonormal_columns(rng, n, n_blocks)
    mode_bases = [_orthonormal_columns(rng, ext, n_blocks * r)
                  for ext, r in zip(feature_shape, ranks)]
    q_all = _orthonormal_columns(rng, n_responses, min(n_responses, n_blocks))

    x_clean = np.zeros(shape)
    y_clean = np.zeros((n, n_responses))
    factors, d_all, q_cols = [], [], []
    for k in range(n_blocks):
        t = t_all[:, k:k + 1]
        ps = [basis[:, k * r:(k + 1) * r] for basis, r in zip(mode_bases, ranks)]
        core = rng.normal(size=(1,) + ranks)
        core *= 2.0 * 0.7**k / frobenius_norm(core)
        fmap = {1: t}
        fmap.update({i + 2: p for i, p in enumerate(ps[:-1])})
        x_clean += _mode_product_view(_multilinear_product(core, fmap), ps[-1], len(shape))
        q = q_all[:, k % q_all.shape[1]:k % q_all.shape[1] + 1]
        d = 3.0 * 0.8**k
        y_clean = y_clean + d * (t @ q.T)
        factors.append(ps)
        d_all.append(d)
        q_cols.append(q.ravel())

    x = x_clean if noiseless else _add_noise_at_snr(rng, x_clean, float(noise_snr_db))
    y_scores = y_clean if noiseless else _add_noise_at_snr(rng, y_clean, float(noise_snr_db))

    if task == "binary":
        y = (y_scores[:, :1] > np.median(y_scores[:, 0])).astype(float)
    elif task == "survival":
        time = np.exp(-y_scores[:, 0] / max(np.std(y_scores[:, 0]), 1e-9))
        event = (rng.random(n) < 0.8).astype(float)
        y = np.column_stack([time, event])
    else:
        y = y_scores
    names = [f"f{i}" for i in range(int(np.prod(feature_shape)))]
    ds = Dataset(x=x, y=y, feature_names=names, task=task)
    truth = SyntheticTruth(
        t=t_all, factors=factors, q=np.column_stack(q_cols), d=np.array(d_all),
        x_clean=x_clean, y_clean=y_clean,
    )
    return ds, truth


@dataclass
class PartitionPlan:
    scheme: str = "iid"
    client_count: int = 2
    seed: int = 0

    def __post_init__(self):
        self.scheme = self.scheme.lower()
        if self.scheme not in ("iid", "label_skew", "by_column"):
            raise DataError(f"unknown partition scheme {self.scheme!r}")
        if self.client_count < 1:
            raise DataError("client_count must be >= 1")


def _labels_for_skew(ds: Dataset) -> np.ndarray:
    if ds.task == "binary":
        return ds.y[:, 0].astype(int)
    ref = ds.y[:, 0]
    return (ref > np.median(ref)).astype(int)


def partition(ds: Dataset, plan: PartitionPlan) -> list:
    """Split a dataset across clients; every sample lands on exactly one client.

    iid draws a seeded shuffle and cuts contiguous chunks; label_skew
    allocates each label class by Dirichlet(alpha=0.5) proportions,
    redrawing up to 100 times if a client would end up empty; by_column
    groups rows by the site column.
    """
    n = ds.n_samples
    if plan.client_count > n:
        raise DataError(f"cannot split {n} samples across {plan.client_count} clients")
    rng = np.random.default_rng(plan.seed)

    if plan.scheme == "iid":
        order = rng.permutation(n)
        chunks = np.array_split(order, plan.client_count)
        return [ds.subset(np.sort(chunk)) for chunk in chunks]

    if plan.scheme == "label_skew":
        labels = _labels_for_skew(ds)
        for _ in range(100):
            assignment = np.full(n, -1, dtype=int)
            for lab in np.unique(labels):
                idx = np.where(labels == lab)[0]
                idx = rng.permutation(idx)
                props = rng.dirichlet([0.5] * plan.client_count)
                bounds = np.floor(np.cumsum(props) * len(idx)).astype(int)
                start = 0
                for c, stop in enumerate(bounds):
                    assignment[idx[start:stop]] = c
                    start = stop
                assignment[idx[start:]] = plan.client_count - 1
            sizes = [int(np.sum(assignment == c)) for c in range(plan.client_count)]
            if all(s > 0 for s in sizes):
                return [ds.subset(np.where(assignment == c)[0]) for c in range(plan.client_count)]
        raise DataError("label_skew could not fill every client after 100 draws")

    # by_column
    if ds.site_ids is None:
        raise DataError("by_column partitioning requires a site column")
    sites = []
    for s in ds.site_ids:
        if s not in sites:
            sites.append(s)
    if plan.client_count != len(sites):
        raise DataError(
            f"client_count {plan.client_count} does not match {len(sites)} distinct sites"
        )
    return [ds.subset(np.where(ds.site_ids == s)[0]) for s in sites]
