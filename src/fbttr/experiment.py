"""Experiment driver: centralized / federated / hybrid / local runs with
block-wise evaluation, repeated seeds and paired significance reporting.

A run consumes a flat key=value config (CLI flags are keys of the same
mapping), executes the requested modes on a train/test split, scores five
contiguous non-overlapping test blocks per repetition, and writes the
fitted models, a metrics table and a JSON report next to a copy of the
resolved config.  :func:`run_experiment` and the ``fbttr fit`` and
``fbttr federate`` commands prepare a fit through the same functions:
:func:`load_dataset`, :func:`parse_grid`, :func:`training_view` and
:func:`fit_config`.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field, fields, replace
from pathlib import Path

import numpy as np

from .bttr import FitConfig, NormStats, fit, predict, select_k_cv
from .data import CsvSchema, DataError, Dataset, PartitionPlan, load_csv, load_npz, make_synthetic, partition
from .federated import run_federated_fit
from .metrics import accuracy, c_index, pearson_r, roc_auc, wilcoxon_signed_rank
from .model_io import save_model
from .sparse_tucker import HyperGrid

MODES = ("centralized", "federated", "hybrid", "local")

__all__ = [
    "ConfigError",
    "ExperimentConfig",
    "EvalReport",
    "load_dataset",
    "parse_grid",
    "parse_shape",
    "training_view",
    "fit_config",
    "read_config_file",
    "run_experiment",
    "build_report",
    "read_metrics_csv",
]


class ConfigError(ValueError):
    def __init__(self, field_name: str, message: str):
        super().__init__(f"config field {field_name!r}: {message}")
        self.field_name = field_name


def _parse_range(text: str, field_name: str) -> tuple:
    parts = text.split(":")
    if len(parts) not in (2, 3):
        raise ConfigError(field_name, f"expected start:stop[:step], got {text!r}")
    try:
        start, stop = float(parts[0]), float(parts[1])
        step = float(parts[2]) if len(parts) == 3 else 1.0
    except ValueError as e:
        raise ConfigError(field_name, f"non-numeric bound in {text!r}") from e
    if not all(math.isfinite(v) for v in (start, stop, step)) or step <= 0 or stop < start:
        raise ConfigError(field_name, f"empty, descending or non-finite range {text!r}")
    count = int(math.floor((stop - start) / step + 1e-9)) + 1
    return tuple(start + i * step for i in range(count))


def parse_shape(text: str, field_name: str) -> tuple:
    """The extents of a shape written ``200x8x6`` or ``200,8,6``: two or more integers >= 1."""
    try:
        shape = tuple(int(v) for v in text.replace("x", ",").split(","))
    except ValueError as e:
        raise ConfigError(field_name, f"expected e.g. 200x8x6, got {text!r}") from e
    if len(shape) < 2 or min(shape) < 1:
        raise ConfigError(field_name, f"need a sample extent and a feature extent, each >= 1, got {text!r}")
    return shape


def _checked(key: str, settings, **values):
    """``settings(**values)``, with the ValueError it raises as a ConfigError on ``key``."""
    try:
        return settings(**values)
    except ValueError as e:
        raise ConfigError(key, str(e)) from e


def parse_grid(snr_text: str, tau_text: str) -> HyperGrid:
    """The SNR x tau grid of two ``start:stop[:step]`` ranges."""
    snr = _parse_range(snr_text, "grid_snr")
    _checked("grid_snr", HyperGrid, snr_values=snr)  # beside the default, valid tau axis
    return _checked("grid_tau", HyperGrid, snr_values=snr,
                    tau_values=_parse_range(tau_text, "grid_tau"))


def read_config_file(path) -> dict:
    """The key=value pairs of a flat config file; blank and ``#`` lines are skipped."""
    mapping = {}
    for i, line in enumerate(Path(path).read_text(encoding="utf-8").splitlines(), 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"line {i}", f"expected key=value, got {line!r}")
        key, _, value = line.partition("=")
        mapping[key.strip()] = value.strip()
    return mapping


@dataclass
class ExperimentConfig:
    mode: tuple = ("centralized",)
    data: str = "synth"
    response: tuple = ()
    task: str = "regression"
    event_col: str = ""
    site_col: str = ""
    synth_shape: tuple = (200, 8, 6)
    synth_blocks: int = 2
    synth_snr_db: float = 30.0
    synth_responses: int = 1
    clients: int = 4
    partition: str = "iid"
    pooled_clients: tuple = ()
    blocks: str = "2"
    max_blocks: int = FitConfig.max_blocks
    folds: int = 5
    epsilon: float = FitConfig.epsilon
    grid_snr: str = "1:50:1"
    grid_tau: str = "90:100:1"
    seed: int = 7
    seeds: int = 5
    train_frac: float = 0.6
    test_blocks: int = 5
    out: str = "fbttr-out"
    pairing: str = "seed_block"

    @classmethod
    def from_mapping(cls, mapping: dict) -> "ExperimentConfig":
        known = {f.name: f for f in fields(cls)}
        kwargs = {}
        for key, raw in mapping.items():
            key = key.strip()
            if key not in known:
                raise ConfigError(key, "unknown key")
            raw = str(raw).strip()
            default = getattr(cls, key, None)
            if key in ("mode",):
                kwargs[key] = tuple(m.strip() for m in raw.split(",") if m.strip())
            elif key in ("response",):
                kwargs[key] = tuple(c.strip() for c in raw.split(",") if c.strip())
            elif key in ("pooled_clients",):
                try:
                    kwargs[key] = tuple(int(v) for v in raw.split(",") if v.strip())
                except ValueError as e:
                    raise ConfigError(key, f"expected integers, got {raw!r}") from e
            elif key in ("synth_shape",):
                kwargs[key] = parse_shape(raw, key)
            elif isinstance(default, int) and not isinstance(default, bool):
                try:
                    kwargs[key] = int(raw)
                except ValueError as e:
                    raise ConfigError(key, f"expected integer, got {raw!r}") from e
            elif isinstance(default, float):
                try:
                    kwargs[key] = float(raw)
                except ValueError as e:
                    raise ConfigError(key, f"expected number, got {raw!r}") from e
            else:
                kwargs[key] = raw
        return cls(**kwargs)

    @classmethod
    def from_file(cls, path) -> "ExperimentConfig":
        return cls.from_mapping(read_config_file(path))

    def validate(self) -> "ExperimentConfig":
        for m in self.mode:
            if m not in MODES:
                raise ConfigError("mode", f"{m!r} not in {MODES}")
        if not self.mode:
            raise ConfigError("mode", "at least one mode required")
        if self.data != "synth" and Path(self.data).suffix != ".npz" and not self.response:
            raise ConfigError("response", "required for CSV data")
        if self.task not in ("regression", "binary", "survival"):
            raise ConfigError("task", f"unknown task {self.task!r}")
        if self.task == "survival" and self.data != "synth" and not self.event_col:
            raise ConfigError("event_col", "required for survival tasks")
        try:
            k = self.max_blocks if self.blocks == "cv" else int(self.blocks)
        except ValueError as e:
            raise ConfigError("blocks", f"expected integer or 'cv', got {self.blocks!r}") from e
        if self.clients < 1:
            raise ConfigError("clients", "must be >= 1")
        if not 0.0 < self.train_frac < 1.0:
            raise ConfigError("train_frac", "must lie strictly between 0 and 1")
        if self.test_blocks < 2:
            raise ConfigError("test_blocks", "need at least 2 evaluation blocks")
        if self.seeds < 1:
            raise ConfigError("seeds", "must be >= 1")
        if self.pairing not in ("seed_block", "block"):
            raise ConfigError("pairing", f"unknown pairing unit {self.pairing!r}")
        if "hybrid" in self.mode and not self.pooled_clients:
            raise ConfigError("pooled_clients", "hybrid mode requires an explicit pooled-client list")
        if self.partition not in ("iid", "label_skew", "by_column"):
            raise ConfigError("partition", f"unknown scheme {self.partition!r}")
        cv_folds = self.folds if self.blocks == "cv" else None
        fit_config(k, self.epsilon, self.hyper_grid(), folds=cv_folds)
        return self

    def hyper_grid(self) -> HyperGrid:
        return parse_grid(self.grid_snr, self.grid_tau)

    def resolved_text(self) -> str:
        lines = []
        for f in fields(self):
            v = getattr(self, f.name)
            if isinstance(v, tuple):
                v = ",".join(str(i) for i in v)
            lines.append(f"{f.name}={v}")
        return "\n".join(lines) + "\n"


@dataclass
class EvalReport:
    """Per-block metric values with means, deviations and paired comparisons."""

    methods: list
    metrics: list
    seed_count: int
    block_count: int
    values: dict = field(default_factory=dict)      # (method, metric) -> [(seed, block, value)]
    summary: dict = field(default_factory=dict)     # (method, metric) -> (mean, std)
    comparisons: list = field(default_factory=list)

    def to_json(self) -> str:
        payload = {
            "methods": self.methods,
            "metrics": self.metrics,
            "seed_count": self.seed_count,
            "block_count": self.block_count,
            "summary": {
                f"{m}|{metric}": {"mean": mu, "std": sd}
                for (m, metric), (mu, sd) in sorted(self.summary.items())
            },
            "values": {
                f"{m}|{metric}": [
                    {"seed": s, "block": b, "value": v} for s, b, v in vals
                ]
                for (m, metric), vals in sorted(self.values.items())
            },
            "comparisons": self.comparisons,
        }
        return json.dumps(payload, indent=2, sort_keys=True)


def load_dataset(path, response, task: str = "regression", event_col: str = "",
                 site_col: str = "") -> Dataset:
    """Load an ``.npz`` dataset, or a CSV whose response column names are ``response``."""
    path = Path(path)
    if not path.exists():
        raise DataError(f"{path}: no such file")
    if path.suffix == ".npz":
        return load_npz(path)
    if not response:
        raise ConfigError("response", "required for CSV data")
    return load_csv(path, CsvSchema(list(response), task, event_col or None, site_col or None))


def training_view(ds: Dataset) -> tuple:
    """``(x, y, stats)``: training rows ``ds`` normalised by their own statistics.

    A survival task regresses on negated observed time (censoring enters only
    through the evaluation metric); binary responses keep their 0/1 scale.
    """
    target = -ds.y[:, :1] if ds.task == "survival" else ds.y
    stats = NormStats.from_training(ds.x, target, scale_y=ds.task != "binary")
    return stats.apply_x(ds.x), stats.apply_y(target), stats


def fit_config(blocks: int, epsilon: float, grid: HyperGrid, folds=None, x=None, y=None,
               task: str = "regression") -> FitConfig:
    """Training configuration with K = ``blocks``, or, when ``folds`` is given,
    the K up to ``blocks`` that ``folds``-fold cross-validation on (x, y) selects.

    Without (x, y), only the settings are checked.
    """
    _checked("blocks", FitConfig, max_blocks=blocks)  # beside the default, valid epsilon
    cfg = _checked("epsilon", FitConfig, max_blocks=blocks, epsilon=epsilon, grid=grid)
    if folds is not None and folds < 2:
        raise ConfigError("folds", f"must be >= 2, got {folds}")
    if folds is None or x is None:
        return cfg
    return replace(cfg, max_blocks=select_k_cv(x, y, cfg, folds, task=task))


def _score_block(task: str, pred: np.ndarray, y_block: np.ndarray) -> dict:
    out = {}
    if task == "regression":
        cols = [pearson_r(pred[:, m], y_block[:, m]) for m in range(y_block.shape[1])]
        out["pearson_r"] = float(np.mean(cols))
    elif task == "binary":
        out["roc_auc"] = roc_auc(pred[:, 0], y_block[:, 0])
        out["accuracy"] = accuracy(pred[:, 0], y_block[:, 0], threshold=0.5)
    else:
        out["c_index"] = c_index(pred[:, 0], y_block[:, 0], y_block[:, 1])
    return out


def _load_dataset(cfg: ExperimentConfig, seed: int) -> Dataset:
    if cfg.data == "synth":
        ds, _ = make_synthetic(
            cfg.synth_shape,
            n_blocks=cfg.synth_blocks,
            noise_snr_db=cfg.synth_snr_db,
            seed=seed,
            n_responses=cfg.synth_responses,
            task=cfg.task,
        )
        return ds
    return load_dataset(cfg.data, cfg.response, cfg.task, cfg.event_col, cfg.site_col)


def _fit_models(cfg: ExperimentConfig, mode: str, train: Dataset, fit_cfg: FitConfig,
                stats: NormStats, seed: int) -> dict:
    models = {}
    if mode == "centralized":
        models["centralized"] = fit(train.x, train.y, fit_cfg, normalization=stats)
        return models
    plan = PartitionPlan(scheme=cfg.partition, client_count=cfg.clients, seed=seed)
    parts = partition(train, plan)
    if mode == "federated":
        models["federated"] = run_federated_fit([(p.x, p.y) for p in parts], fit_cfg)
        models["federated"].normalization = stats
    elif mode == "hybrid":
        pooled_ids = set(cfg.pooled_clients)
        bad = [i for i in pooled_ids if not 0 <= i < len(parts)]
        if bad:
            raise ConfigError("pooled_clients", f"client ids {bad} out of range 0..{len(parts) - 1}")
        pooled = [p for i, p in enumerate(parts) if i in pooled_ids]
        rest = [p for i, p in enumerate(parts) if i not in pooled_ids]
        merged_x = np.concatenate([p.x for p in pooled], axis=0)
        merged_y = np.concatenate([p.y for p in pooled], axis=0)
        participants = [(merged_x, merged_y)] + [(p.x, p.y) for p in rest]
        models["hybrid"] = run_federated_fit(participants, fit_cfg)
        models["hybrid"].normalization = stats
    elif mode == "local":
        for i, p in enumerate(parts):
            models[f"local_client_{i}"] = fit(p.x, p.y, fit_cfg, normalization=stats)
    return models


def run_experiment(cfg: ExperimentConfig) -> EvalReport:
    """Execute the configured modes and write artifacts into ``cfg.out``."""
    cfg.validate()
    out = Path(cfg.out)
    out.mkdir(parents=True, exist_ok=True)
    rows = []

    for rep in range(cfg.seeds):
        seed = cfg.seed + rep
        ds = _load_dataset(cfg, seed)
        n = ds.n_samples
        n_train = int(round(cfg.train_frac * n))
        n_train = max(2, min(n - cfg.test_blocks, n_train))
        if n - n_train < cfg.test_blocks:
            raise DataError(
                f"{n - n_train} test samples cannot form {cfg.test_blocks} blocks"
            )
        train = ds.subset(np.arange(n_train))
        test = ds.subset(np.arange(n_train, n))

        x_train, y_train, stats = training_view(train)
        train_norm = replace(train, x=x_train, y=y_train)
        x_test = stats.apply_x(test.x)

        cv = cfg.blocks == "cv"
        fit_cfg = fit_config(cfg.max_blocks if cv else int(cfg.blocks), cfg.epsilon,
                             cfg.hyper_grid(), folds=cfg.folds if cv else None,
                             x=x_train, y=y_train, task=ds.task)

        block_ids = np.array_split(np.arange(test.n_samples), cfg.test_blocks)
        for mode in cfg.mode:
            models = _fit_models(cfg, mode, train_norm, fit_cfg, stats, seed)
            for method, model in models.items():
                if rep == 0:
                    save_model(model, out / f"model_{method}.fbttr")
                for b, idx in enumerate(block_ids):
                    if len(idx) == 0:
                        continue
                    pred = predict(model, x_test[idx])
                    try:
                        scores = _score_block(ds.task, pred, test.y[idx])
                    except ValueError:
                        continue  # degenerate block (single class, zero variance)
                    for metric, value in scores.items():
                        rows.append({
                            "seed": seed, "method": method, "block": b,
                            "metric": metric, "value": value,
                        })

    csv_path = out / "metrics.csv"
    with open(csv_path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.DictWriter(fh, fieldnames=["seed", "method", "block", "metric", "value"])
        writer.writeheader()
        writer.writerows(rows)
    report = build_report(rows, pairing=cfg.pairing)
    (out / "report.json").write_text(report.to_json(), encoding="utf-8")
    (out / "resolved_config.txt").write_text(cfg.resolved_text(), encoding="utf-8")
    return report


def read_metrics_csv(path) -> list:
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        rows = []
        for row in reader:
            rows.append({
                "seed": int(row["seed"]),
                "method": row["method"],
                "block": int(row["block"]),
                "metric": row["metric"],
                "value": float(row["value"]),
            })
    return rows


def build_report(rows, pairing: str = "seed_block") -> EvalReport:
    """Aggregate metric rows into means, deviations and pairwise tests.

    ``pairing`` declares the unit for the signed-rank comparisons:
    ``seed_block`` pairs every (seed, block) cell, ``block`` pairs
    per-block means across seeds.  The effective n is reported beside
    every p-value.
    """
    methods = sorted({r["method"] for r in rows})
    metrics = sorted({r["metric"] for r in rows})
    seeds = sorted({r["seed"] for r in rows})
    blocks = sorted({r["block"] for r in rows})
    values = {}
    for r in rows:
        values.setdefault((r["method"], r["metric"]), []).append(
            (r["seed"], r["block"], r["value"])
        )
    summary = {
        key: (float(np.mean([v for _, _, v in vals])), float(np.std([v for _, _, v in vals])))
        for key, vals in values.items()
    }

    def paired_vector(method, metric):
        table = {(s, b): v for s, b, v in values.get((method, metric), [])}
        if pairing == "block":
            out = []
            for b in blocks:
                cell = [table[(s, b)] for s in seeds if (s, b) in table]
                if cell:
                    out.append((b, float(np.mean(cell))))
            return out
        return [((s, b), table[(s, b)]) for s in seeds for b in blocks if (s, b) in table]

    comparisons = []
    for metric in metrics:
        for i, ma in enumerate(methods):
            for mb in methods[i + 1:]:
                va = dict(paired_vector(ma, metric))
                vb = dict(paired_vector(mb, metric))
                shared = sorted(set(va) & set(vb), key=str)
                if len(shared) < 2:
                    continue
                a = [va[u] for u in shared]
                b = [vb[u] for u in shared]
                try:
                    stat, p = wilcoxon_signed_rank(a, b)
                except ValueError:
                    stat, p = 0.0, 1.0
                comparisons.append({
                    "method_a": ma, "method_b": mb, "metric": metric,
                    "statistic": stat, "p_value": p, "n": len(shared),
                    "pairing": pairing,
                })
    return EvalReport(
        methods=methods, metrics=metrics, seed_count=len(seeds),
        block_count=len(blocks), values=values, summary=summary,
        comparisons=comparisons,
    )
