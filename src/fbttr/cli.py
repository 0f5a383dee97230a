"""Command-line interface.

Subcommands: fit, predict, federate (server or client role), experiment,
synth, report.  Exit codes: 0 success, 2 configuration error, 3 protocol
error, 4 data error.
"""

from __future__ import annotations

import argparse
import csv
import socket
import sys
from pathlib import Path

from .bttr import FitConfig, FitError, fit, predict, residual_trace
from .data import DataError, Dataset, load_feature_csv, make_synthetic, save_npz
from .experiment import (
    ConfigError,
    ExperimentConfig,
    build_report,
    fit_config,
    load_dataset,
    parse_grid,
    parse_shape,
    read_config_file,
    read_metrics_csv,
    run_experiment,
    training_view,
)
from .federated import federated_fit_over, run_socket_client
from .model_io import ModelFormatError, load_model, save_model
from .transport import DEFAULT_ROUND_TIMEOUT, ProtocolError, TransportError, serve_clients
from .wire import WireError

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_PROTOCOL = 3
EXIT_DATA = 4

__all__ = ["main"]


def _load_data(args) -> Dataset:
    response = [c.strip() for c in args.response.split(",") if c.strip()]
    return load_dataset(args.data, response, args.task, args.event_col, args.site_col)


def _host_port(text: str) -> tuple:
    host, _, port = text.rpartition(":")
    if not host or not port.isdigit():
        raise ConfigError("address", f"expected HOST:PORT, got {text!r}")
    return host, int(port)


def _add_schema_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--response", default="", help="response column name(s), comma separated")
    p.add_argument("--task", default="regression", choices=["regression", "binary", "survival"])
    p.add_argument("--event-col", default="", help="survival event indicator column")
    p.add_argument("--site-col", default="", help="site column for by-column partitioning")


def _add_fit_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--blocks", type=int, default=2, help="number of blocks K")
    p.add_argument("--epsilon", type=float, default=FitConfig.epsilon, help="residual stop threshold")
    p.add_argument("--grid-snr", default=ExperimentConfig.grid_snr, help="SNR grid start:stop[:step]")
    p.add_argument("--grid-tau", default=ExperimentConfig.grid_tau, help="tau grid start:stop[:step]")


def cmd_fit(args) -> int:
    ds = _load_data(args)
    x, y, stats = training_view(ds)
    cfg = fit_config(args.blocks, args.epsilon, parse_grid(args.grid_snr, args.grid_tau),
                     folds=args.folds if args.cv else None, x=x, y=y, task=ds.task)
    if args.cv:
        print(f"cross-validation selected K={cfg.max_blocks}")
    model = fit(x, y, cfg, normalization=stats)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    path = out / "model.fbttr"
    save_model(model, path)
    trace = residual_trace(model)
    print(f"fitted {model.n_blocks} block(s) on {ds.n_samples} samples -> {path}")
    for i, (e, f) in enumerate(trace):
        print(f"  after block {i}: |E|={e:.6g} |F|={f:.6g}")
    return EXIT_OK


def cmd_predict(args) -> int:
    model = load_model(args.model)
    if args.response or args.data.endswith(".npz"):
        x = _load_data(args).x
    else:
        x = load_feature_csv(args.data, model.input_shape)
    if model.normalization is not None:
        x = model.normalization.apply_x(x)
    scores = predict(model, x)
    if model.normalization is not None:
        scores = model.normalization.invert_y(scores)
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    with open(out, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow([f"prediction_{m}" for m in range(scores.shape[1])])
        writer.writerows(scores.tolist())
    print(f"wrote {scores.shape[0]} predictions -> {out}")
    return EXIT_OK


def cmd_federate(args) -> int:
    if args.role == "server":
        cfg = fit_config(args.blocks, args.epsilon, parse_grid(args.grid_snr, args.grid_tau))
        if args.clients < 1:
            raise ConfigError("clients", f"must be >= 1, got {args.clients}")
        host, port = _host_port(args.listen)
        listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        listener.bind((host, port))
        listener.listen(args.clients)
        print(f"listening on {host}:{listener.getsockname()[1]} for {args.clients} client(s)")
        transport = serve_clients(listener, args.clients, round_timeout=args.round_timeout)
        try:
            model = federated_fit_over(transport, cfg)
        finally:
            transport.close()
            listener.close()
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        path = out / "model.fbttr"
        save_model(model, path)
        print(f"federated model with {model.n_blocks} block(s) -> {path}")
        return EXIT_OK
    # client role
    if not args.data:
        raise ConfigError("data", "client role requires --data")
    x, y, _ = training_view(_load_data(args))
    host, port = _host_port(args.connect)
    try:
        session = run_socket_client(host, port, x, y, round_timeout=args.round_timeout)
    except OSError as e:
        raise ProtocolError(f"cannot reach server at {host}:{port}: {e}") from e
    print(f"client finished after {session.blocks_deflated} block(s)")
    return EXIT_OK


def cmd_experiment(args) -> int:
    mapping = read_config_file(args.config) if args.config else {}
    for key in ("mode", "clients", "seed", "blocks", "epsilon", "out"):
        if getattr(args, key) is not None:
            mapping[key] = getattr(args, key)
    cfg = ExperimentConfig.from_mapping(mapping)
    report = run_experiment(cfg)
    for (method, metric), (mu, sd) in sorted(report.summary.items()):
        print(f"{method:>16} {metric:<10} {mu:.4f} +/- {sd:.4f}")
    for comp in report.comparisons:
        print(
            f"wilcoxon {comp['method_a']} vs {comp['method_b']} on {comp['metric']}: "
            f"p={comp['p_value']:.4g} (n={comp['n']})"
        )
    print(f"artifacts in {cfg.out}")
    return EXIT_OK


def cmd_synth(args) -> int:
    shape = parse_shape(args.shape, "shape")
    ds, _ = make_synthetic(shape, n_blocks=args.blocks, noise_snr_db=args.snr_db,
                           seed=args.seed, n_responses=args.responses, task=args.task)
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    save_npz(ds, out)
    print(f"wrote synthetic dataset {ds.x.shape} -> {out}")
    if ds.x.ndim == 2:
        csv_path = out.with_suffix(".csv")
        with open(csv_path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            response_cols = (["time", "event"] if ds.task == "survival"
                             else [f"target_{m}" for m in range(ds.y.shape[1])])
            writer.writerow(ds.feature_names + response_cols)
            for xi, yi in zip(ds.x, ds.y):
                writer.writerow(list(xi) + list(yi))
        print(f"wrote CSV twin -> {csv_path}")
    return EXIT_OK


def cmd_report(args) -> int:
    rows = []
    for path in args.metrics:
        rows.extend(read_metrics_csv(path))
    if not rows:
        raise DataError("no metric rows found in the given files")
    report = build_report(rows, pairing=args.pairing)
    text = report.to_json()
    if args.out:
        Path(args.out).parent.mkdir(parents=True, exist_ok=True)
        Path(args.out).write_text(text, encoding="utf-8")
        print(f"wrote report -> {args.out}")
    else:
        print(text)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fbttr",
        description="Federated block-term tensor regression toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("fit", help="fit a centralized model on one dataset")
    p.add_argument("--data", required=True, help="CSV or NPZ dataset")
    _add_schema_flags(p)
    _add_fit_flags(p)
    p.add_argument("--cv", action="store_true", help="select K by cross-validation up to --blocks")
    p.add_argument("--folds", type=int, default=ExperimentConfig.folds)
    p.add_argument("--out", default="fbttr-out")
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("predict", help="predict with a saved model")
    p.add_argument("--model", required=True)
    p.add_argument("--data", required=True)
    _add_schema_flags(p)
    p.add_argument("--out", default="predictions.csv")
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("federate", help="run one side of a federated training session")
    p.add_argument("--role", required=True, choices=["server", "client"])
    p.add_argument("--listen", default="127.0.0.1:9001", help="server bind address HOST:PORT")
    p.add_argument("--connect", default="127.0.0.1:9001", help="client target address HOST:PORT")
    p.add_argument("--clients", type=int, default=2, help="client count the server waits for")
    p.add_argument("--data", default="", help="client dataset (CSV or NPZ)")
    _add_schema_flags(p)
    _add_fit_flags(p)
    p.add_argument("--round-timeout", type=float, default=DEFAULT_ROUND_TIMEOUT,
                   help="per-round timeout, seconds")
    p.add_argument("--out", default="fbttr-out")
    p.set_defaults(func=cmd_federate)

    # each override flag is the config key of the same name, parsed like it
    p = sub.add_parser("experiment", help="run a configured experiment")
    p.add_argument("--config", default="", help="flat key=value config file")
    p.add_argument("--mode", help="override: centralized,federated,hybrid,local")
    p.add_argument("--clients")
    p.add_argument("--seed")
    p.add_argument("--blocks", help="override: K or 'cv'")
    p.add_argument("--epsilon")
    p.add_argument("--out")
    p.set_defaults(func=cmd_experiment)

    p = sub.add_parser("synth", help="generate a planted-component synthetic dataset")
    p.add_argument("--out", required=True, help="output .npz path")
    p.add_argument("--shape", required=True, help="samples-first shape, e.g. 200x8x6")
    p.add_argument("--blocks", type=int, default=2)
    p.add_argument("--snr-db", type=float, default=30.0, help="noise SNR in dB, or 'inf' for noiseless")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--responses", type=int, default=1)
    p.add_argument("--task", default="regression", choices=["regression", "binary", "survival"])
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("report", help="merge metrics tables into a comparison report")
    p.add_argument("metrics", nargs="+", help="metrics.csv files")
    p.add_argument("--pairing", default="seed_block", choices=["seed_block", "block"])
    p.add_argument("--out", default="")
    p.set_defaults(func=cmd_report)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return EXIT_CONFIG
    except (ProtocolError, WireError, TransportError) as e:
        print(f"protocol error: {e}", file=sys.stderr)
        return EXIT_PROTOCOL
    except (DataError, ModelFormatError, FitError, OSError, ValueError) as e:
        print(f"data error: {e}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
