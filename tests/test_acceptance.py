"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line and enforcing its runtime budget."""

import os
import socket
import threading
import time
from contextlib import contextmanager

import numpy as np
import pytest

from fbttr.bttr import FitConfig, fit, predict
from fbttr.data import CsvSchema, PartitionPlan, load_csv, make_synthetic, partition
from fbttr.experiment import ExperimentConfig, run_experiment
from fbttr.federated import ClientSession, federated_fit_over, run_federated_fit, run_socket_client
from fbttr.metrics import c_index, pearson_r, roc_auc, wilcoxon_signed_rank
from fbttr.model_io import model_to_bytes
from fbttr.sparse_tucker import HyperGrid, f_mpstd, hooi_init, prune
from fbttr.tensor import (
    cross_covariance,
    fold,
    frobenius_norm,
    kron_factors,
    mode_n_product,
    multilinear_product,
    unfold,
    vec,
)
from fbttr.transport import LoopbackTransport, serve_clients
from fbttr.wire import decode_message, encode_message

from test_metrics import c_index_oracle, roc_auc_oracle, wilcoxon_oracle
from test_wire import sample_messages


@contextmanager
def criterion(name: str, budget_s: float):
    start = time.monotonic()
    try:
        yield
    except BaseException:
        print(f"FAIL: {name}")
        raise
    elapsed = time.monotonic() - start
    assert elapsed < budget_s, f"{name}: {elapsed:.1f}s exceeded the {budget_s:.0f}s budget"
    print(f"PASS: {name} [{elapsed:.1f}s]")


SHARED_GRID = HyperGrid(snr_values=(5.0, 15.0, 30.0, 45.0), tau_values=(94.0, 97.0, 100.0))


def _random_regression(seed, shape):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=shape)
    w = rng.normal(size=int(np.prod(shape[1:])))
    y = (x.reshape(shape[0], -1, order="F") @ w).reshape(-1, 1)
    y = y + 0.05 * rng.normal(size=y.shape)
    x_test = rng.normal(size=(12,) + shape[1:])
    return x, y, x_test


def test_criterion_1_single_client_federation_oracle():
    with criterion("criterion 1: single-client federation equals centralized (1e-8)", 120):
        shapes = [(40, 10), (36, 6, 4), (30, 4, 3, 2)]
        cfg = FitConfig(max_blocks=2, epsilon=1e-8, grid=SHARED_GRID)
        worst = 0.0
        cases = 0
        for seed in range(7):
            for shape in shapes:
                if cases >= 21:
                    break
                x, y, x_test = _random_regression(1000 + seed * 10 + len(shape), shape)
                central = fit(x, y, cfg)
                fed = run_federated_fit([(x, y)], cfg)
                dev = float(np.max(np.abs(predict(central, x_test) - predict(fed, x_test))))
                worst = max(worst, dev)
                cases += 1
        assert cases >= 20
        assert worst < 1e-8, f"worst deviation {worst:.3e}"


def test_criterion_2_replication_oracle():
    with criterion("criterion 2: 3 replicated clients equal the single client (1e-8)", 60):
        x, y, x_test = _random_regression(2024, (40, 6, 4))
        cfg = FitConfig(max_blocks=2, epsilon=1e-8, grid=SHARED_GRID)
        single = run_federated_fit([(x, y)], cfg)
        triple = run_federated_fit([(x, y)] * 3, cfg)
        dev = float(np.max(np.abs(predict(single, x_test) - predict(triple, x_test))))
        assert dev < 1e-8, f"deviation {dev:.3e}"
        for bs, bt in zip(single.blocks, triple.blocks):
            assert np.allclose(bs.core, bt.core, atol=1e-8)
            assert bs.d == pytest.approx(bt.d, abs=1e-8)


def test_criterion_3_planted_block_recovery():
    with criterion("criterion 3: planted 2-block recovery at 30 dB (r >= 0.95; fed within 0.05)", 180):
        ds, _ = make_synthetic((500, 12, 6), n_blocks=2, noise_snr_db=30.0, seed=42)
        n_train = 350
        train = ds.subset(np.arange(n_train))
        test = ds.subset(np.arange(n_train, ds.n_samples))
        cfg = FitConfig(max_blocks=2, epsilon=1e-8)  # full default grid
        central = fit(train.x, train.y, cfg)
        r_central = [
            pearson_r(predict(central, test.x)[:, m], test.y[:, m])
            for m in range(test.y.shape[1])
        ]
        assert all(r >= 0.95 for r in r_central), f"centralized r {r_central}"
        parts = partition(train, PartitionPlan(scheme="iid", client_count=4, seed=0))
        fed = run_federated_fit([(p.x, p.y) for p in parts], cfg)
        r_fed = [
            pearson_r(predict(fed, test.x)[:, m], test.y[:, m])
            for m in range(test.y.shape[1])
        ]
        devs = [abs(a - b) for a, b in zip(r_central, r_fed)]
        assert all(d <= 0.05 for d in devs), f"federated deviates by {devs}"


def test_criterion_4_tensor_algebra_property_suite():
    with criterion("criterion 4: tensor algebra properties, 1000 randomized cases", 30):
        rng = np.random.default_rng(4)
        cases = 0
        # unfold/fold round trips, bit-exact
        for _ in range(400):
            order = int(rng.integers(1, 5))
            shape = tuple(int(rng.integers(1, 5)) for _ in range(order))
            t = rng.normal(size=shape)
            mode = int(rng.integers(1, order + 1))
            assert np.array_equal(fold(unfold(t, mode), mode, shape), t)
            cases += 1
        # mode product identity and scaling
        for _ in range(200):
            shape = tuple(int(rng.integers(2, 5)) for _ in range(3))
            t = rng.normal(size=shape)
            mode = int(rng.integers(1, 4))
            eye = np.eye(shape[mode - 1])
            assert np.allclose(mode_n_product(t, eye, mode), t, atol=1e-13)
            assert np.allclose(mode_n_product(t, 3.0 * eye, mode), 3.0 * t, atol=1e-12)
            cases += 1
        # orthonormal norm preservation at 1e-10
        for _ in range(200):
            shape = tuple(int(rng.integers(2, 6)) for _ in range(3))
            t = rng.normal(size=shape)
            mode = int(rng.integers(1, 4))
            q, _ = np.linalg.qr(rng.normal(size=(shape[mode - 1], shape[mode - 1])))
            assert abs(frobenius_norm(mode_n_product(t, q, mode)) - frobenius_norm(t)) < 1e-10
            cases += 1
        # matricized Kronecker identity backing the predictor, at 1e-8
        for _ in range(200):
            r2, r3 = int(rng.integers(1, 4)), int(rng.integers(1, 4))
            i2, i3 = r2 + int(rng.integers(0, 3)), r3 + int(rng.integers(0, 3))
            g = rng.normal(size=(1, r2, r3))
            t = rng.normal(size=(int(rng.integers(2, 8)), 1))
            p2, _ = np.linalg.qr(rng.normal(size=(i2, r2)))
            p3, _ = np.linalg.qr(rng.normal(size=(i3, r3)))
            lhs = unfold(multilinear_product(g, {1: t, 2: p2, 3: p3}), 1)
            rhs = t @ vec(g).reshape(1, -1) @ kron_factors([p2, p3]).T
            assert np.max(np.abs(lhs - rhs)) < 1e-8
            cases += 1
        assert cases == 1000


def test_criterion_5_ace_fmpstd_properties():
    with criterion("criterion 5: extraction properties (pruning, boundaries, reconstruction)", 60):
        rng = np.random.default_rng(5)
        # pruning never increases ranks
        for _ in range(25):
            c = rng.normal(size=(2, 5, 4))
            res = hooi_init(c, (2, 4, 4))
            tau = float(rng.uniform(0, 100))
            pruned, _ = prune(res.core, [res.q] + res.factors, np.abs(res.core), tau)
            assert all(a <= b for a, b in zip(pruned.shape, res.ranks))
        # tau = 100 keeps every admissible component on unstructured data
        x = rng.normal(size=(40, 5, 4))
        y = rng.normal(size=(40, 1))
        res = f_mpstd(x, y, snr=50.0, tau=100.0)
        c = cross_covariance(x, y)
        total = int(np.prod(c.shape))
        admissible = tuple(min(e, total // e, 10) for e in c.shape)
        assert res.ranks == admissible
        # noiseless full-rank reconstruction within 1e-6 relative error
        core = rng.normal(size=(1, 2, 3))
        p2, _ = np.linalg.qr(rng.normal(size=(7, 2)))
        p3, _ = np.linalg.qr(rng.normal(size=(6, 3)))
        t0 = rng.normal(size=30)
        t0 /= np.linalg.norm(t0)
        x2 = multilinear_product(core, {1: t0.reshape(-1, 1), 2: p2, 3: p3})
        c2 = cross_covariance(x2, t0.reshape(-1, 1))
        res2 = f_mpstd(x2, t0.reshape(-1, 1), snr=200.0, tau=100.0)
        rel = frobenius_norm(c2 - res2.reconstruct()) / frobenius_norm(c2)
        assert rel <= 1e-6
        # deterministic tie-break toward the smaller SNR and tau
        from fbttr.sparse_tucker import ace

        x3 = rng.normal(size=(80, 24, 20))
        y3 = rng.normal(size=(80, 1))
        grid = HyperGrid(snr_values=(1.0, 2.0), tau_values=(95.0, 100.0))
        picks = {(r.snr_star, r.tau_star) for r in (ace(x3, y3, grid, rank_cap=1) for _ in range(3))}
        assert picks == {(1.0, 95.0)}


def test_criterion_6_metric_oracles():
    with criterion("criterion 6: metric implementations equal enumeration oracles", 60):
        rng = np.random.default_rng(6)
        # ROC-AUC: every label pattern on every size up to 8
        for n in range(2, 9):
            scores = np.round(rng.normal(size=n), 1)
            for bits in range(1, 2**n - 1):
                labels = [(bits >> i) & 1 for i in range(n)]
                assert roc_auc(scores, labels) == pytest.approx(
                    roc_auc_oracle(scores, labels), abs=1e-12
                )
        # C-index: every event pattern on sizes up to 8
        for n in range(2, 9):
            risk = np.round(rng.normal(size=n), 1)
            time_v = np.round(rng.exponential(size=n) + 0.1, 1)
            for bits in range(2**n):
                event = [(bits >> i) & 1 for i in range(n)]
                try:
                    expected = c_index_oracle(risk, time_v, event)
                except ZeroDivisionError:
                    with pytest.raises(ValueError):
                        c_index(risk, time_v, event)
                    continue
                assert c_index(risk, time_v, event) == pytest.approx(expected, abs=1e-12)
        # Wilcoxon: exact p equals full 2^n enumeration for n <= 12
        for n in range(2, 13):
            for rep in range(4):
                a = np.round(rng.normal(size=n), 1)
                b = np.round(rng.normal(size=n), 1)
                if np.all(a == b):
                    continue
                stat, p = wilcoxon_signed_rank(a, b)
                o_stat, o_p = wilcoxon_oracle(a, b)
                assert stat == pytest.approx(o_stat, abs=1e-12)
                assert p == pytest.approx(o_p, abs=1e-12)


def test_criterion_7_protocol_conformance():
    with criterion("criterion 7: socket == loopback bit-for-bit; privacy scan; codec round trip", 120):
        # byte-identical round trip for every message kind
        for msg in sample_messages():
            frame = encode_message(msg)
            assert encode_message(decode_message(frame)) == frame

        def make_client(seed, n):
            r = np.random.default_rng(seed)
            x = r.normal(size=(n, 4, 3))
            y = (x[:, 0, 0] * 2 + 0.1 * r.normal(size=n)).reshape(-1, 1)
            return x, y

        clients = [make_client(80, 23), make_client(81, 29)]
        cfg = FitConfig(max_blocks=2, epsilon=1e-8, grid=SHARED_GRID)

        sessions = {cid: ClientSession(cid, x, y) for cid, (x, y) in enumerate(clients)}
        loop_transport = LoopbackTransport(sessions)
        loop_model = federated_fit_over(loop_transport, cfg)

        listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        listener.bind(("127.0.0.1", 0))
        listener.listen(4)
        port = listener.getsockname()[1]
        result = {}

        def server():
            transport = serve_clients(listener, len(clients), round_timeout=60)
            result["model"] = federated_fit_over(transport, cfg)
            result["frames"] = list(transport.frames)
            transport.close()

        st = threading.Thread(target=server)
        st.start()
        threads = []
        for x, y in clients:
            t = threading.Thread(target=run_socket_client, args=("127.0.0.1", port, x, y),
                                 kwargs=dict(round_timeout=60))
            t.start()
            threads.append(t)
            time.sleep(0.05)
        st.join(timeout=110)
        for t in threads:
            t.join(timeout=110)
        listener.close()

        assert model_to_bytes(result["model"]) == model_to_bytes(loop_model)

        # privacy boundary: scan every frame from both transports
        sample_counts = {23, 29}
        raw_sizes = {23 * 12, 29 * 12, 23 * 12 + 23, 29 * 12 + 29}
        all_frames = list(loop_transport.frames) + list(result["frames"])
        assert len(all_frames) > 20
        for _, _, frame in all_frames:
            msg = decode_message(frame)
            p = msg.payload
            arrays = [
                getattr(p, name)
                for name in ("core", "score_core", "q")
                if isinstance(getattr(p, name, None), np.ndarray)
            ]
            arrays.extend(getattr(p, "factors", []) or [])
            for a in arrays:
                assert a.size not in sample_counts
                assert a.size not in raw_sizes
            assert not hasattr(p, "t")
            assert not hasattr(p, "e_residual")
            assert not hasattr(p, "f_residual")


def test_criterion_8_desk_scale_runtime():
    with criterion("criterion 8: 1000x20x8x10 fit with K=10 under five minutes", 300):
        ds, _ = make_synthetic((1000, 20, 8, 10), n_blocks=3, noise_snr_db=20.0,
                               seed=7, ranks=(2, 2, 2))
        model = fit(ds.x, ds.y, FitConfig(max_blocks=10, epsilon=1e-8))
        assert model.n_blocks >= 3
        pred = predict(model, ds.x)
        assert pearson_r(pred[:, 0], ds.y[:, 0]) > 0.9


def test_criterion_9_heart_disease_style_check(tmp_path):
    csv_path = os.environ.get("FBTTR_HEART_CSV", "")
    if not csv_path:
        print("SKIP: criterion 9 (optional) needs FBTTR_HEART_CSV pointing at a 4-site binary CSV")
        pytest.skip("user-supplied dataset not provided")
    with criterion("criterion 9: federated ROC-AUC within 0.05 of centralized on user data", 3600):
        schema = CsvSchema(
            response=[os.environ.get("FBTTR_HEART_RESPONSE", "target")],
            task="binary",
            site_col=os.environ.get("FBTTR_HEART_SITE", "site"),
        )
        ds = load_csv(csv_path, schema)
        out = tmp_path / "heart"
        cfg = ExperimentConfig(
            mode=("centralized", "federated"),
            data=csv_path,
            response=tuple(schema.response),
            task="binary",
            site_col=schema.site_col,
            partition="by_column",
            clients=len(set(ds.site_ids)),
            blocks="2",
            seeds=5,
            out=str(out),
        )
        report = run_experiment(cfg)
        mu_fed = report.summary[("federated", "roc_auc")][0]
        mu_cen = report.summary[("centralized", "roc_auc")][0]
        assert abs(mu_fed - mu_cen) <= 0.05
        assert any(c["metric"] == "roc_auc" for c in report.comparisons)
