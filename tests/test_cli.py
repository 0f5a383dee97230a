import csv
import socket
import threading

import numpy as np
import pytest

from fbttr.bttr import Block, FitConfig, fit
from fbttr.cli import EXIT_CONFIG, EXIT_DATA, main
from fbttr.data import load_npz
from fbttr.experiment import fit_config, parse_grid, training_view
from fbttr.model_io import load_model, model_to_bytes
from fbttr.transport import SocketChannel
from fbttr.wire import HyperAssign, Message, MessageKind


def run_cli(*argv):
    return main(list(argv))


def test_synth_writes_npz_and_csv(tmp_path):
    out = tmp_path / "data.npz"
    code = run_cli("synth", "--out", str(out), "--shape", "40,6", "--blocks", "1",
                   "--snr-db", "20", "--seed", "5")
    assert code == 0
    assert out.exists()
    assert out.with_suffix(".csv").exists()
    ds = load_npz(out)
    assert ds.x.shape == (40, 6)


def test_synth_higher_order_npz_only(tmp_path):
    out = tmp_path / "data.npz"
    code = run_cli("synth", "--out", str(out), "--shape", "30x5x4", "--blocks", "1",
                   "--snr-db", "inf", "--seed", "1")
    assert code == 0
    ds = load_npz(out)
    assert ds.x.shape == (30, 5, 4)
    assert not out.with_suffix(".csv").exists()


def test_synth_bad_shape_is_a_config_error(tmp_path, capsys):
    for shape in ("20xfoo", "20x0", "20x-3", "x", "20xx6", "20"):
        assert run_cli("synth", "--out", str(tmp_path / "d.npz"), "--shape", shape) == EXIT_CONFIG, shape
        assert "'shape'" in capsys.readouterr().err
        assert not (tmp_path / "d.npz").exists()
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(f"synth_shape={shape}\nseeds=1\nout={tmp_path / 'out'}\n", encoding="utf-8")
        assert run_cli("experiment", "--config", str(cfg)) == EXIT_CONFIG, shape


def test_nan_noise_snr_is_a_data_error(tmp_path):
    # make_synthetic rejects NaN itself: experiment once turned it into noiseless data
    assert run_cli("synth", "--out", str(tmp_path / "d.npz"), "--shape", "20x4x3",
                   "--snr-db", "nan") == EXIT_DATA
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(f"synth_snr_db=nan\nseeds=1\nout={tmp_path / 'out'}\n", encoding="utf-8")
    assert run_cli("experiment", "--config", str(cfg)) == EXIT_DATA


def test_fit_and_predict_round_trip(tmp_path):
    data = tmp_path / "data.npz"
    run_cli("synth", "--out", str(data), "--shape", "50x5x4", "--blocks", "1",
            "--snr-db", "25", "--seed", "2")
    out = tmp_path / "run"
    code = run_cli("fit", "--data", str(data), "--blocks", "1",
                   "--grid-snr", "15:35:20", "--grid-tau", "97:100:3",
                   "--out", str(out))
    assert code == 0
    model_path = out / "model.fbttr"
    assert model_path.exists()
    model = load_model(model_path)
    assert model.n_blocks == 1
    assert model.normalization is not None

    pred_path = tmp_path / "pred.csv"
    code = run_cli("predict", "--model", str(model_path), "--data", str(data),
                   "--out", str(pred_path))
    assert code == 0
    with open(pred_path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["prediction_0"]
    assert len(rows) == 51


def test_predict_refuses_raw_data_the_statistics_would_broadcast(tmp_path, capsys):
    # (n, 1, 3) under a normalized 4x3 model broadcast to (n, 4, 3) and
    # predicted with exit 0, while predict refuses the same raw array
    data = tmp_path / "data.npz"
    run_cli("synth", "--out", str(data), "--shape", "30x4x3", "--blocks", "1", "--seed", "3")
    out = tmp_path / "run"
    assert run_cli("fit", "--data", str(data), "--blocks", "1", "--grid-snr", "30:30:1",
                   "--grid-tau", "100:100:1", "--out", str(out)) == 0
    thin = tmp_path / "thin.npz"
    np.savez(thin, x=np.ones((6, 1, 3)), y=np.ones((6, 1)))
    capsys.readouterr()
    assert run_cli("predict", "--model", str(out / "model.fbttr"), "--data", str(thin),
                   "--out", str(tmp_path / "pred.csv")) == EXIT_DATA
    assert "feature shape" in capsys.readouterr().err
    assert not (tmp_path / "pred.csv").exists()


@pytest.mark.parametrize("cv", [False, True], ids=["fixed-k", "cv"])
def test_fit_writes_the_model_of_the_shared_preparation(tmp_path, cv):
    data = tmp_path / "data.npz"
    run_cli("synth", "--out", str(data), "--shape", "50x5x4", "--blocks", "2",
            "--snr-db", "25", "--seed", "6")
    out = tmp_path / "run"
    argv = ["fit", "--data", str(data), "--blocks", "2",
            "--grid-snr", "15:35:20", "--grid-tau", "97:100:3", "--out", str(out)]
    assert run_cli(*(argv + ["--cv", "--folds", "3"] if cv else argv)) == 0

    ds = load_npz(data)
    x, y, stats = training_view(ds)
    cfg = fit_config(2, FitConfig.epsilon, parse_grid("15:35:20", "97:100:3"),
                     folds=3 if cv else None, x=x, y=y, task=ds.task)
    expected = model_to_bytes(fit(x, y, cfg, normalization=stats))
    assert (out / "model.fbttr").read_bytes() == expected


def _hub_sending(msg, cfg, listener):
    """A one-client hub that greets, takes the round-1 report, then sends
    ``msg``; with no ``cfg`` it sends ``msg`` in place of its HELLO."""
    conn, _ = listener.accept()
    channel = SocketChannel(conn)
    try:
        channel.recv(timeout=30)  # JOIN
        if cfg is not None:
            channel.send(Message(MessageKind.HELLO, 0, 0, cfg))
            channel.recv(timeout=60)  # ACE_REPORT
        channel.send(msg)
        channel.recv(timeout=30)  # no reply comes
    except OSError:  # the client hangs up
        pass
    finally:
        channel.close()


def _client_of_hub_sending(msg, cfg, data, capsys) -> str:
    """Run a CLI client against :func:`_hub_sending`; assert it exits 3 and
    return what it printed to stderr."""
    from fbttr.cli import EXIT_PROTOCOL

    listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    listener.bind(("127.0.0.1", 0))
    listener.listen(1)
    hub = threading.Thread(target=_hub_sending, args=(msg, cfg, listener), daemon=True)
    hub.start()
    try:
        code = run_cli("federate", "--role", "client", "--round-timeout", "60",
                       "--connect", f"127.0.0.1:{listener.getsockname()[1]}", "--data", str(data))
    finally:
        hub.join(timeout=60)
        listener.close()
    assert not hub.is_alive()
    assert code == EXIT_PROTOCOL
    return capsys.readouterr().err


@pytest.mark.parametrize("damage", ["doubled-rows", "nan-core", "before-hello"])
def test_federate_client_refuses_a_bad_global_block(tmp_path, capsys, damage):
    data = tmp_path / "d.npz"
    run_cli("synth", "--out", str(data), "--shape", "30x4x3", "--blocks", "1",
            "--snr-db", "20", "--seed", "0")
    rows = 2 if damage == "doubled-rows" else 1
    block = Block(core=np.full((1, 1, 1), np.nan if damage == "nan-core" else 1.0),
                  score_core=np.ones((1, 1, 1)),
                  factors=[np.eye(4 * rows)[:, :1], np.eye(3 * rows)[:, :1]],
                  q=np.ones((1, 1)), d=1.0)
    cfg = FitConfig(max_blocks=2, grid=parse_grid("15:35:20", "97:100:3"))
    if damage == "before-hello":
        cfg = None  # the hub sends the block in place of its HELLO
    msg = Message(MessageKind.GLOBAL_BLOCK, 1, 0, block)
    err = _client_of_hub_sending(msg, cfg, data, capsys)
    assert ("before the hub's HELLO" if cfg is None else "global block does not fit") in err


@pytest.mark.parametrize("target", [(1, 1, 1), (0, 1), (1, 99)], ids=["three-modes", "rank-0", "above-own"])
def test_federate_client_refuses_a_bad_hyper_assign(tmp_path, capsys, target):
    data = tmp_path / "d.npz"
    run_cli("synth", "--out", str(data), "--shape", "30x4x3", "--blocks", "1",
            "--snr-db", "20", "--seed", "0")
    cfg = FitConfig(max_blocks=2, grid=parse_grid("15:35:20", "97:100:3"))
    msg = Message(MessageKind.HYPER_ASSIGN, 1, 0, HyperAssign(target))
    err = _client_of_hub_sending(msg, cfg, data, capsys)
    assert "round 1 " + ("assignment names 3 feature modes" if len(target) == 3 else "target ranks") in err


def test_fit_missing_file_exit_code(tmp_path):
    code = run_cli("fit", "--data", str(tmp_path / "nope.csv"), "--response", "y")
    assert code == EXIT_DATA


def test_fit_csv_requires_response(tmp_path):
    p = tmp_path / "d.csv"
    p.write_text("a,b\n1,2\n3,4\n", encoding="utf-8")
    code = run_cli("fit", "--data", str(p))
    assert code == EXIT_CONFIG


def test_federate_client_unreachable_server_exit_code(tmp_path, capsys):
    from fbttr.cli import EXIT_PROTOCOL

    data = tmp_path / "d.npz"
    run_cli("synth", "--out", str(data), "--shape", "20x4", "--blocks", "1",
            "--snr-db", "20", "--seed", "0")
    sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    sock.bind(("127.0.0.1", 0))
    dead_port = sock.getsockname()[1]
    sock.close()
    # a client takes the grid from the hub, so a hub-only flag it is given is ignored
    code = run_cli("federate", "--role", "client", "--grid-snr", "50:1",
                   "--connect", f"127.0.0.1:{dead_port}", "--data", str(data))
    assert code == EXIT_PROTOCOL
    assert "cannot reach server" in capsys.readouterr().err


@pytest.mark.parametrize("argv,key", [
    (["fit", "--grid-snr", "1:inf"], "grid_snr"),
    (["fit", "--grid-snr", "nan:5"], "grid_snr"),
    (["fit", "--grid-tau", "90:110"], "grid_tau"),
    (["fit", "--grid-tau", "101:105"], "grid_tau"),
    (["fit", "--blocks", "0"], "blocks"),
    (["fit", "--epsilon=-1"], "epsilon"),
    (["federate", "--role", "server", "--listen", "127.0.0.1:0", "--epsilon=-1"], "epsilon"),
    (["experiment", "--epsilon=-1"], "epsilon"),
    (["fit", "--cv", "--folds", "1"], "folds"),
    (["experiment", "--blocks", "cv", "--config", "{tmp}/folds.cfg"], "folds"),
    (["federate", "--role", "server", "--listen", "127.0.0.1:0", "--clients", "0"], "clients"),
], ids=["snr-inf", "snr-nan", "tau-above-100", "tau-all-above-100", "zero-blocks",
        "fit-epsilon", "server-epsilon", "experiment-epsilon", "fit-one-fold",
        "experiment-one-fold", "server-zero-clients"])
def test_invalid_fit_settings_are_config_errors(tmp_path, capsys, argv, key):
    data = tmp_path / "d.npz"
    run_cli("synth", "--out", str(data), "--shape", "20x4x3", "--blocks", "1",
            "--snr-db", "20", "--seed", "0")
    (tmp_path / "folds.cfg").write_text("folds=1\n", encoding="utf-8")
    argv = [a.format(tmp=tmp_path) for a in argv]
    if argv[0] == "fit":
        argv = argv + ["--data", str(data)]
    assert run_cli(*argv, "--out", str(tmp_path / "out")) == EXIT_CONFIG
    assert f"config field '{key}'" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_experiment_cli_with_config(tmp_path):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(
        "\n".join([
            "mode=centralized",
            "synth_shape=60x5x4",
            "synth_blocks=1",
            "synth_snr_db=25",
            "blocks=1",
            "grid_snr=15:35:20",
            "grid_tau=97:100:3",
            "seeds=1",
            "seed=3",
            "test_blocks=3",
            f"out={tmp_path / 'out'}",
        ]) + "\n",
        encoding="utf-8",
    )
    code = run_cli("experiment", "--config", str(cfg))
    assert code == 0
    assert (tmp_path / "out" / "metrics.csv").exists()


def test_experiment_flags_override_config_keys(tmp_path):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(
        "\n".join([
            "mode=federated", "clients=2", "blocks=2", "seed=3",
            "synth_shape=60x5x4", "synth_blocks=1", "synth_snr_db=25",
            "grid_snr=15:35:20", "grid_tau=97:100:3", "seeds=1", "test_blocks=3",
            f"out={tmp_path / 'from_file'}",
        ]) + "\n",
        encoding="utf-8",
    )
    out = tmp_path / "from_flags"
    code = run_cli("experiment", "--config", str(cfg), "--mode", "centralized",
                   "--blocks", "1", "--seed", "4", "--out", str(out))
    assert code == 0
    resolved = (out / "resolved_config.txt").read_text(encoding="utf-8").splitlines()
    for line in ("mode=centralized", "blocks=1", "seed=4", f"out={out}", "clients=2"):
        assert line in resolved
    assert not (tmp_path / "from_file").exists()


def test_experiment_npz_data_needs_no_response(tmp_path):
    data = tmp_path / "d.npz"
    run_cli("synth", "--out", str(data), "--shape", "60x5x4", "--blocks", "1",
            "--snr-db", "25", "--seed", "2")
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(
        "\n".join([
            "mode=centralized", f"data={data}", "blocks=1",
            "grid_snr=15:35:20", "grid_tau=97:100:3", "seeds=1", "test_blocks=3",
            f"out={tmp_path / 'out'}",
        ]) + "\n",
        encoding="utf-8",
    )
    assert run_cli("experiment", "--config", str(cfg)) == 0
    assert (tmp_path / "out" / "metrics.csv").exists()


def test_experiment_npz_with_an_unknown_task_is_a_data_error(tmp_path, capsys):
    data = tmp_path / "d.npz"
    run_cli("synth", "--out", str(data), "--shape", "60x5x4", "--blocks", "1",
            "--snr-db", "25", "--seed", "2")
    saved = dict(np.load(data))
    saved["task"] = np.str_("Regression")
    np.savez(data, **saved)
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(
        "\n".join([
            "mode=centralized", f"data={data}", "blocks=1",
            "grid_snr=15:35:20", "grid_tau=97:100:3", "seeds=1", "test_blocks=3",
            f"out={tmp_path / 'out'}",
        ]) + "\n",
        encoding="utf-8",
    )
    assert run_cli("experiment", "--config", str(cfg)) == EXIT_DATA
    assert "'Regression'" in capsys.readouterr().err


def test_experiment_cli_bad_config_exit_code(tmp_path):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text("mode=warp_drive\n", encoding="utf-8")
    assert run_cli("experiment", "--config", str(cfg)) == EXIT_CONFIG


def test_report_merges_metrics(tmp_path):
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    cfg_lines = [
        "synth_shape=60x5x4", "synth_blocks=1", "synth_snr_db=25",
        "grid_snr=15:35:20", "grid_tau=97:100:3", "seeds=1", "seed=3",
        "test_blocks=3",
    ]
    for out, mode in ((out_a, "centralized"), (out_b, "federated")):
        cfg = tmp_path / f"{out.name}.cfg"
        cfg.write_text("\n".join(cfg_lines + [f"mode={mode}", "clients=2", f"out={out}"]) + "\n",
                       encoding="utf-8")
        assert run_cli("experiment", "--config", str(cfg)) == 0
    report_path = tmp_path / "merged.json"
    code = run_cli("report", str(out_a / "metrics.csv"), str(out_b / "metrics.csv"),
                   "--out", str(report_path))
    assert code == 0
    text = report_path.read_text()
    assert "centralized" in text and "federated" in text
    assert "comparisons" in text


def test_federate_cli_over_sockets(tmp_path):
    data_files = []
    for i in (0, 1):
        p = tmp_path / f"client{i}.npz"
        run_cli("synth", "--out", str(p), "--shape", "30x4x3", "--blocks", "1",
                "--snr-db", "25", "--seed", str(10 + i))
        data_files.append(p)

    sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    sock.bind(("127.0.0.1", 0))
    port = sock.getsockname()[1]
    sock.close()

    out = tmp_path / "served"
    results = {}

    def server():
        results["code"] = run_cli(
            "federate", "--role", "server", "--listen", f"127.0.0.1:{port}",
            "--clients", "2", "--blocks", "1",
            "--grid-snr", "15:35:20", "--grid-tau", "97:100:3",
            "--round-timeout", "60", "--out", str(out),
        )

    st = threading.Thread(target=server)
    st.start()
    import time

    time.sleep(0.3)
    client_threads = []
    codes = {}

    def client(i, path):
        codes[i] = run_cli(
            "federate", "--role", "client", "--connect", f"127.0.0.1:{port}",
            "--data", str(path), "--round-timeout", "60",
        )

    for i, path in enumerate(data_files):
        t = threading.Thread(target=client, args=(i, path))
        t.start()
        client_threads.append(t)
        time.sleep(0.05)
    st.join(timeout=120)
    for t in client_threads:
        t.join(timeout=120)
    assert results["code"] == 0
    assert codes == {0: 0, 1: 0}
    model = load_model(out / "model.fbttr")
    assert model.n_blocks == 1
