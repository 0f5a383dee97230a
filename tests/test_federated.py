import socket
import threading
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fbttr import federated, tensor
from fbttr.bttr import Block, FitConfig, FitError, Residuals, fit, predict
from fbttr.data import make_synthetic
from fbttr.federated import (
    ClientSession,
    aggregate_block,
    aggregation_weights,
    client_deflate,
    client_local_block,
    federated_fit_over,
    harmonize_ranks,
    run_federated_fit,
    run_socket_client,
    truncate_to_ranks,
)
from fbttr.model_io import model_to_bytes
from fbttr.sparse_tucker import HyperGrid, SparseTuckerResult, ace, f_mpstd
from fbttr.tensor import frobenius_norm, multilinear_product, outer
from fbttr.transport import (
    ClientDropout,
    LoopbackTransport,
    ProtocolError,
    SocketChannel,
    serve_clients,
)
from fbttr.wire import (
    HEADER_LEN,
    AceReport,
    BlockUpdate,
    ErrorCode,
    HyperAssign,
    Join,
    Message,
    MessageKind,
    ProtocolErrorInfo,
    WireError,
    decode_message,
    encode_message,
)

GRID = HyperGrid(snr_values=(10.0, 25.0), tau_values=(97.0, 100.0))
CFG = FitConfig(max_blocks=2, epsilon=1e-8, grid=GRID)


def make_dataset(seed, n=30, shape=(4, 3), m=1):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(n,) + shape)
    w = rng.normal(size=int(np.prod(shape)))
    flat = x.reshape(n, -1, order="F")
    y = flat @ w
    y = np.column_stack([y] * m) + 0.05 * rng.normal(size=(n, m))
    return x, y


def random_orthonormal(rng, rows, cols):
    q, _ = np.linalg.qr(rng.normal(size=(rows, cols)))
    return q


def make_update(seed, n_samples=10, sign_flips=(), d=1.0):
    rng = np.random.default_rng(seed)
    core = rng.normal(size=(1, 2, 2))
    score = rng.normal(size=(1, 2, 2))
    factors = [random_orthonormal(rng, 5, 2), random_orthonormal(rng, 4, 2)]
    q = np.array([[1.0]])
    for mode, col in sign_flips:
        factors[mode][:, col] *= -1.0
        sl = [slice(None)] * 3
        sl[mode + 1] = col
        core[tuple(sl)] *= -1.0
        score[tuple(sl)] *= -1.0
    return BlockUpdate(n_samples, Block(core, score, factors, q, d))


# ---------------------------------------------------------------------------
# aggregation weights
# ---------------------------------------------------------------------------

def test_aggregation_weights():
    w = aggregation_weights([1, 3])
    assert np.allclose(w, [0.25, 0.75])
    assert abs(w.sum() - 1.0) < 1e-12
    with pytest.raises(ValueError):
        aggregation_weights([2, 0])


# ---------------------------------------------------------------------------
# rank harmonization
# ---------------------------------------------------------------------------

def test_harmonize_elementwise_minimum():
    target, assigns = harmonize_ranks({
        0: AceReport(skip=False, ranks=(2, 3)),
        1: AceReport(skip=False, ranks=(2, 2)),
    })
    assert target == (2, 2)
    assert assigns == {0: HyperAssign((2, 2)), 1: HyperAssign((2, 2))}


def test_harmonize_single_client_keeps_own_ranks():
    target, _ = harmonize_ranks({0: AceReport(skip=False, ranks=(3, 4))})
    assert target == (3, 4)


def test_harmonize_min_with_floor():
    target, _ = harmonize_ranks({
        0: AceReport(skip=False, ranks=(1, 5)),
        1: AceReport(skip=False, ranks=(4, 1)),
    })
    assert target == (1, 1)


def test_harmonize_empty_reports():
    with pytest.raises(ValueError):
        harmonize_ranks({})


def test_truncate_keeps_top_contribution_components():
    rng = np.random.default_rng(0)
    core = np.zeros((1, 3, 2))
    core[0, 0, :] = [5.0, 1.0]
    core[0, 1, :] = [0.1, 0.05]
    core[0, 2, :] = [3.0, 2.0]
    res = SparseTuckerResult(core=core, q=np.array([[1.0]]),
                             factors=[random_orthonormal(rng, 6, 3), random_orthonormal(rng, 4, 2)])
    out = truncate_to_ranks(res, (2, 2))
    assert out.core.shape == (1, 2, 2)
    # components 0 and 2 stay, in original order
    assert np.allclose(out.core[0, 0, :], [5.0, 1.0])
    assert np.allclose(out.core[0, 1, :], [3.0, 2.0])
    with pytest.raises(ProtocolError):
        truncate_to_ranks(res, (4, 2))
    for target in ((0, 2), (2, 0)):
        with pytest.raises(ProtocolError, match="target rank 0"):
            truncate_to_ranks(res, target)


# ---------------------------------------------------------------------------
# aggregation
# ---------------------------------------------------------------------------

def test_aggregate_identical_updates_is_identity():
    upd = make_update(1).block
    for weights in ([10, 10], [3, 9]):
        agg = aggregate_block([BlockUpdate(weights[0], upd), BlockUpdate(weights[1], upd)])
        assert np.allclose(agg.core, upd.core, atol=1e-10)
        assert np.allclose(agg.score_core, upd.score_core, atol=1e-10)
        for a, b in zip(agg.factors, upd.factors):
            assert np.allclose(a, b, atol=1e-10)
        assert agg.d == pytest.approx(upd.d, abs=1e-10)


def test_aggregate_weighted_mean_of_coefficients():
    a = make_update(2, n_samples=1, d=0.0)
    b = make_update(2, n_samples=3, d=4.0)
    agg = aggregate_block([a, b])
    assert agg.d == pytest.approx(3.0, abs=1e-10)


def test_aggregate_cancels_sign_flips():
    ref = make_update(3)
    flipped = make_update(3, sign_flips=[(0, 1)])
    agg = aggregate_block([ref, flipped])
    assert np.allclose(agg.core, ref.block.core, atol=1e-10)
    for a, b in zip(agg.factors, ref.block.factors):
        assert np.allclose(a, b, atol=1e-10)


def test_aggregate_cancels_column_permutation():
    ref = make_update(4)
    b = ref.block
    perm = BlockUpdate(ref.n_samples, Block(
        core=b.core[:, ::-1, :].copy(),
        score_core=b.score_core[:, ::-1, :].copy(),
        factors=[b.factors[0][:, ::-1].copy(), b.factors[1]],
        q=b.q, d=b.d,
    ))
    agg = aggregate_block([ref, perm])
    assert np.allclose(agg.core, b.core, atol=1e-10)
    assert np.allclose(agg.factors[0], b.factors[0], atol=1e-10)


def test_aggregate_shape_mismatch_is_protocol_error():
    a = make_update(5)
    b = make_update(6)
    b.block.factors = [b.block.factors[0][:, :1], b.block.factors[1]]
    b.block.core = b.block.core[:, :1, :]
    b.block.score_core = b.block.score_core[:, :1, :]
    with pytest.raises(ProtocolError):
        aggregate_block([a, b])


def test_a_lone_update_is_broadcast_as_sent():
    upd = make_update(9, d=0.5)
    upd.block.q = np.array([[2.0]])  # not even rescaled
    assert aggregate_block([upd]) is upd.block


def test_aggregate_orthonormalizes_averaged_factors():
    a = make_update(7)
    b = make_update(8)
    agg = aggregate_block([a, b])
    for f in agg.factors:
        assert np.allclose(f.T @ f, np.eye(f.shape[1]), atol=1e-10)
    assert np.linalg.norm(agg.q) == pytest.approx(1.0, abs=1e-12)


# ---------------------------------------------------------------------------
# client-side operations
# ---------------------------------------------------------------------------

def hub_hello(cfg, cid=0) -> Message:
    return Message(MessageKind.HELLO, 0, cid, cfg)


ZERO_BLOCK = Block(
    core=np.zeros((1, 1, 1)), score_core=np.zeros((1, 1, 1)),
    factors=[np.eye(4)[:, :1], np.eye(3)[:, :1]], q=np.array([[1.0]]), d=0.0,
)


def test_client_session_skips_below_epsilon_after_round_1():
    # round 1 always extracts (the minimum-one-block rule); below epsilon the
    # session neither deflates nor extracts again, and reports a skip
    rng = np.random.default_rng(8)
    session = ClientSession(0, 1e-12 * rng.normal(size=(5, 4, 3)), 1e-12 * rng.normal(size=(5, 1)))
    cfg = FitConfig(max_blocks=3, epsilon=1e-6, grid=GRID)
    assert session.handle(hub_hello(cfg))[0].kind == MessageKind.ACE_REPORT
    r = session.residuals
    e, trace = r.e, list(r.trace)
    [report] = session.handle(Message(MessageKind.GLOBAL_BLOCK, 1, 0, ZERO_BLOCK))
    assert r.e is e and r.trace == trace and len(trace) == 1
    assert report.round == 2 and report.payload.skip is True
    [upd] = session.handle(Message(MessageKind.HYPER_ASSIGN, 2, 0, HyperAssign((1, 1))))
    assert upd.kind == MessageKind.BLOCK_UPDATE
    assert upd.payload.skip is True
    assert upd.payload.n_samples == 5


def test_hyper_assign_for_a_skipped_round_gets_a_skip_without_rerun(monkeypatch):
    x, y = make_dataset(14)
    reruns = []
    monkeypatch.setattr(federated, "f_mpstd", lambda *a, **k: reruns.append(a))
    session = ClientSession(0, x, y)
    session.handle(hub_hello(FitConfig(max_blocks=2, epsilon=10.0 * frobenius_norm(y), grid=GRID)))
    [report] = session.handle(Message(MessageKind.GLOBAL_BLOCK, 1, 0, ZERO_BLOCK))
    assert report.payload.skip is True
    [upd] = session.handle(Message(MessageKind.HYPER_ASSIGN, 2, 0, HyperAssign((1, 1))))
    assert upd.kind == MessageKind.BLOCK_UPDATE
    assert upd.payload.skip is True and upd.payload.n_samples == x.shape[0]
    assert reruns == []


@pytest.mark.parametrize("assignment", [HyperAssign((0, 0)), HyperAssign((1, 1, 1)), HyperAssign((1, 99))],
                         ids=["rank-0", "three-modes", "above-own"])
def test_hyper_assign_out_of_range_gets_an_error(assignment, monkeypatch):
    # a bad assignment is the hub's fault: the client raises before any rerun
    x, y = make_dataset(15)
    session = ClientSession(0, x, y)
    assert session.handle(hub_hello(CFG))[0].payload.skip is False
    monkeypatch.setattr(federated, "f_mpstd", None)
    with pytest.raises(ProtocolError, match="round 1"):
        session.handle(Message(MessageKind.HYPER_ASSIGN, 1, 0, assignment))


def test_hyper_assign_mode_count_is_checked_for_a_skipped_round():
    x, y = make_dataset(15)
    session = ClientSession(0, x, y)
    session.handle(hub_hello(CFG))
    # round 2 has no report of this client's, so it would answer with a skip
    [reply] = session.handle(Message(MessageKind.HYPER_ASSIGN, 2, 0, HyperAssign((1, 1))))
    assert reply.kind == MessageKind.BLOCK_UPDATE and reply.payload.skip
    with pytest.raises(ProtocolError, match="names 3 feature modes"):
        session.handle(Message(MessageKind.HYPER_ASSIGN, 2, 0, HyperAssign((1, 1, 1))))


def test_client_local_block_planted_rank1(monkeypatch):
    rng = np.random.default_rng(9)
    t0 = rng.normal(size=40)
    t0 /= np.linalg.norm(t0)
    p2 = rng.normal(size=5)
    p2 /= np.linalg.norm(p2)
    p3 = rng.normal(size=4)
    p3 /= np.linalg.norm(p3)
    x = 2.0 * outer(t0, p2, p3) + 0.02 * rng.normal(size=(40, 5, 4))
    y = (1.5 * t0).reshape(-1, 1)
    # at its own (40, 100) the client keeps noise components, so its ranks
    # are above the target: it reruns at that pair and truncates
    own = ace(x, y, HyperGrid(snr_values=(40.0,), tau_values=(100.0,)))
    assert min(own.block.feature_ranks) > 1
    reruns = []
    monkeypatch.setattr(federated, "f_mpstd", lambda *a, **k: reruns.append(k) or f_mpstd(*a, **k))
    upd = client_local_block(x, y, own, (1, 1), CFG.rank_cap)
    assert reruns == [dict(snr=40.0, tau=100.0, rank_cap=CFG.rank_cap)]
    assert upd.block.feature_ranks == (1, 1)
    assert upd.skip is False
    assert upd.n_samples == 40
    assert upd.block.d > 0
    # the score map applied to x reproduces a vector aligned with t0
    proj = multilinear_product(x, {n + 2: f.T for n, f in enumerate(upd.block.factors)})
    from fbttr.tensor import unfold, vec
    t = unfold(proj, 1) @ vec(upd.block.score_core)
    assert abs(np.corrcoef(t, t0)[0, 1]) > 0.99
    # a target equal to the client's own ranks returns its block
    assert client_local_block(x, y, own, own.block.feature_ranks, CFG.rank_cap).block is own.block
    assert len(reruns) == 1


def test_client_local_block_infeasible_ranks():
    rng = np.random.default_rng(10)
    x = rng.normal(size=(20, 4, 3))
    y = rng.normal(size=(20, 1))
    own = ace(x, y, GRID)
    with pytest.raises(ProtocolError):
        client_local_block(x, y, own, (9, 9), CFG.rank_cap)


def test_client_deflate_zero_core_leaves_residuals():
    rng = np.random.default_rng(11)
    x = rng.normal(size=(15, 4, 3))
    y = rng.normal(size=(15, 1))
    # nothing to remove: the residuals stay the inputs themselves
    res = Residuals(x, y)
    client_deflate(res, ZERO_BLOCK)
    assert res.e is x and res.f is y and len(res.trace) == 1


def test_client_deflate_never_increases_f_norm():
    x, y = make_dataset(13)
    own = ace(x, y, GRID)
    upd = client_local_block(x, y, own, (2, 2), CFG.rank_cap)
    gb = aggregate_block([upd])
    originals = (x.tobytes(), y.tobytes())
    res = Residuals(x, y)
    client_deflate(res, gb)
    assert res.e is not x and res.f is not y and len(res.trace) == 2
    assert (x.tobytes(), y.tobytes()) == originals
    assert frobenius_norm(res.f) <= frobenius_norm(y) + 1e-12
    assert frobenius_norm(res.e) <= frobenius_norm(x) + 1e-12


# ---------------------------------------------------------------------------
# end-to-end federation
# ---------------------------------------------------------------------------

def test_single_client_equivalence_every_parameter():
    x, y = make_dataset(20, n=35, shape=(5, 4))
    x_test = np.random.default_rng(21).normal(size=(8, 5, 4))
    capped = FitConfig(max_blocks=2, epsilon=1e-6, rank_cap=3,
                       grid=HyperGrid(snr_values=(5.0, 20.0, 40.0), tau_values=(95.0, 99.0)))
    for cfg in (CFG, capped):
        central = fit(x, y, cfg)
        fed = run_federated_fit([(x, y)], cfg)
        assert fed.n_blocks == central.n_blocks
        for bc, bf in zip(central.blocks, fed.blocks):
            assert bc.feature_ranks == bf.feature_ranks
            assert np.allclose(bc.core, bf.core, atol=1e-8)
            assert np.allclose(bc.score_core, bf.score_core, atol=1e-8)
            assert np.allclose(bc.q, bf.q, atol=1e-8)
            assert bc.d == pytest.approx(bf.d, abs=1e-8)
            for fc, ff in zip(bc.factors, bf.factors):
                assert np.allclose(fc, ff, atol=1e-8)
            assert bc.same_bytes(bf)
        assert np.max(np.abs(predict(central, x_test) - predict(fed, x_test))) < 1e-8
        assert fed.w.tobytes() == central.w.tobytes() and fed.z.tobytes() == central.z.tobytes()


@settings(max_examples=100, deadline=None, derandomize=True)
@given(data=st.data())
def test_a_one_client_federation_is_the_centralized_fit_bit_for_bit(data):
    order = data.draw(st.integers(2, 4))
    shape = tuple(data.draw(st.lists(st.integers(2, 5), min_size=order - 1, max_size=order - 1)))
    x, y = make_dataset(data.draw(st.integers(0, 2**16)), n=data.draw(st.integers(6, 30)),
                        shape=shape, m=data.draw(st.integers(1, 2)))
    axis = lambda values: tuple(sorted(data.draw(st.sets(st.sampled_from(values), min_size=1, max_size=3))))
    cfg = FitConfig(max_blocks=data.draw(st.integers(1, 3)), rank_cap=data.draw(st.integers(1, 4)),
                    # from no stop to a stop after the first block
                    epsilon=data.draw(st.sampled_from((1e-8, 0.05, 0.3, 2.0))) * frobenius_norm(y),
                    grid=HyperGrid(axis((2.0, 5.0, 10.0, 20.0, 40.0)), axis((90.0, 95.0, 99.0, 100.0))))
    central = fit(x, y, cfg)
    fed = run_federated_fit([(x, y)], cfg)
    assert len(fed.blocks) == len(central.blocks)
    assert all(bc.same_bytes(bf) for bc, bf in zip(central.blocks, fed.blocks))
    assert fed.w.tobytes() == central.w.tobytes() and fed.z.tobytes() == central.z.tobytes()


def test_a_client_deflates_by_its_own_score_only_when_the_block_is_its_own(monkeypatch):
    # a lone update comes back as sent, so a one-client federation never
    # recomputes a score; an aggregate of two is neither client's own block
    projections = []
    real = federated.finalize_block
    monkeypatch.setattr(federated, "finalize_block", lambda *a: projections.append(a) or real(*a))
    x, y = make_dataset(82)
    assert run_federated_fit([(x, y)], CFG).n_blocks == CFG.max_blocks
    assert projections == []
    model = run_federated_fit([(x, y), make_dataset(83)], CFG)
    assert len(projections) == 2 * model.n_blocks > 0


def test_replicated_clients_equal_single_client():
    x, y = make_dataset(22)
    single = run_federated_fit([(x, y)], CFG)
    triple = run_federated_fit([(x, y)] * 3, CFG)
    x_test = np.random.default_rng(23).normal(size=(6, 4, 3))
    assert np.max(np.abs(predict(single, x_test) - predict(triple, x_test))) < 1e-8


def test_federated_run_deterministic_bit_identical():
    clients = [make_dataset(s) for s in (30, 31, 32)]
    m1 = run_federated_fit(clients, CFG)
    m2 = run_federated_fit(clients, CFG)
    assert model_to_bytes(m1) == model_to_bytes(m2)


def test_privacy_no_sample_indexed_arrays_on_wire():
    # distinctive prime sample counts cannot collide with any legal payload
    # array length (factors, cores and loadings are feature-dimension sized)
    clients = [make_dataset(40, n=23), make_dataset(41, n=29)]
    sessions = {cid: ClientSession(cid, x, y) for cid, (x, y) in enumerate(clients)}
    transport = LoopbackTransport(sessions)
    federated_fit_over(transport, CFG)
    sample_counts = {23, 29, 23 * 29}
    raw_sizes = {23 * 4 * 3, 29 * 4 * 3}
    assert len(transport.frames) > 0
    scanned = set()
    for direction, cid, frame in transport.frames:
        msg = decode_message(frame)
        arrays = []
        p = msg.payload
        if msg.kind == MessageKind.BLOCK_UPDATE:
            assert not hasattr(p, "t")
            p = p.block  # None on a skip, which carries no array
        for attr in ("core", "score_core", "q"):
            v = getattr(p, attr, None)
            if isinstance(v, np.ndarray):
                arrays.append(v)
        arrays.extend(getattr(p, "factors", []) or [])
        for a in arrays:
            assert a.size not in sample_counts, f"sample-sized array in {msg.kind.name}"
            assert a.size not in raw_sizes, f"raw-data-sized array in {msg.kind.name}"
            scanned.add(msg.kind)
        # score vectors and residuals have no field to hide in by construction
        assert not hasattr(p, "t")
        assert not hasattr(p, "e_residual")
    assert {MessageKind.BLOCK_UPDATE, MessageKind.GLOBAL_BLOCK} <= scanned


def test_client_frames_carry_no_hyperparameters_bic_or_norms():
    # the hub reads ranks, blocks and sample counts; a client's (SNR, tau),
    # BIC and residual norms have no field on the wire, and DONE carries
    # nothing after the round and client id
    clients = [make_dataset(42, n=23), make_dataset(43, n=29)]
    sessions = {cid: ClientSession(cid, x, y) for cid, (x, y) in enumerate(clients)}
    transport = LoopbackTransport(sessions)
    federated_fit_over(transport, CFG)
    fields = {
        MessageKind.JOIN: {"feature_shape", "n_responses"},
        MessageKind.ACE_REPORT: {"skip", "ranks"},
        MessageKind.BLOCK_UPDATE: {"n_samples", "block"},
    }
    seen = set()
    for direction, _, frame in transport.frames:
        msg = decode_message(frame)
        if msg.kind == MessageKind.DONE:
            assert len(frame) == HEADER_LEN + 8 and msg.payload is None
        elif direction == "client->server":
            assert set(vars(msg.payload)) == fields[msg.kind], msg.kind.name
            seen.add(msg.kind)
    assert seen == set(fields)


def test_each_kind_travels_one_way_in_one_layout():
    # v4: a client JOINs, the hub's HELLO is the FitConfig itself, and a
    # client's next ACE_REPORT is its deflation acknowledgement
    clients = [make_dataset(44, n=23), make_dataset(45, n=29)]
    sessions = {cid: ClientSession(cid, x, y) for cid, (x, y) in enumerate(clients)}
    transport = LoopbackTransport(sessions)
    federated_fit_over(transport, CFG)
    kinds = {"client->server": set(), "server->client": set()}
    for direction, _, frame in transport.frames:
        msg = decode_message(frame)
        kinds[direction].add(msg.kind)
        if msg.kind == MessageKind.HELLO:
            assert msg.payload == CFG
    assert kinds["client->server"] <= {MessageKind.JOIN, MessageKind.ACE_REPORT,
                                       MessageKind.BLOCK_UPDATE, MessageKind.ERROR}
    assert kinds["server->client"] <= {MessageKind.HELLO, MessageKind.HYPER_ASSIGN,
                                       MessageKind.GLOBAL_BLOCK, MessageKind.DONE, MessageKind.ERROR}
    assert MessageKind.JOIN in kinds["client->server"] and MessageKind.HELLO in kinds["server->client"]
    join = sessions[1].join()
    for session in (ClientSession(0, *clients[0]), sessions[0]):  # before and after its HELLO
        with pytest.raises(ProtocolError):
            session.handle(join)
    frame = bytearray(encode_message(Message(MessageKind.DONE, 1, 0)))
    frame[4] = 3
    with pytest.raises(WireError, match="version 3"):
        decode_message(bytes(frame))


def test_transient_dropout_recovers_with_retry(monkeypatch):
    # handshake succeeds; the first round-1 report read from client 1 fails once
    class FlakyTransport(LoopbackTransport):
        def __init__(self, sessions):
            super().__init__(sessions)
            self.recv_count = {cid: 0 for cid in sessions}
            self.failed_once = False

        def recv(self, client_id):
            self.recv_count[client_id] += 1
            if client_id == 1 and self.recv_count[1] == 2 and not self.failed_once:
                self.failed_once = True
                raise ClientDropout(client_id, "injected transient failure")
            return super().recv(client_id)

    def federate(transport_type):
        extractions.clear()
        sessions = {cid: ClientSession(cid, x, y) for cid, (x, y) in enumerate(clients)}
        transport = transport_type(sessions)
        return federated_fit_over(transport, CFG), transport, len(extractions)

    extractions = []
    monkeypatch.setattr(federated, "ace", lambda *a, **kw: extractions.append(1) or ace(*a, **kw))
    clients = [make_dataset(50), make_dataset(51)]
    steady, _, steady_extractions = federate(LoopbackTransport)
    model, transport, n_extractions = federate(FlakyTransport)
    assert transport.failed_once
    assert model.n_blocks >= 1
    assert transport.client_ids() == [0, 1]
    # the retried round reports the extractions its clients already made
    assert n_extractions == steady_extractions
    assert model_to_bytes(model) == model_to_bytes(steady)


def test_permanent_dropout_excludes_client():
    class DeadClientTransport(LoopbackTransport):
        def __init__(self, sessions):
            super().__init__(sessions)
            self.recv_count = {cid: 0 for cid in sessions}

        def recv(self, client_id):
            self.recv_count[client_id] += 1
            if client_id == 1 and self.recv_count[1] >= 2:
                raise ClientDropout(client_id, "injected permanent failure")
            return super().recv(client_id)

    clients = [make_dataset(52), make_dataset(53)]
    sessions = {cid: ClientSession(cid, x, y) for cid, (x, y) in enumerate(clients)}
    transport = DeadClientTransport(sessions)
    model = federated_fit_over(transport, CFG)
    assert model.n_blocks >= 1
    assert transport.client_ids() == [0]


def test_client_dying_while_deflating_drops_out_at_the_next_report():
    # no message acknowledges a deflation: the dead client's missing round-2
    # report fails the read, the round is retried, and the second failure drops it
    class DiesWhileDeflating(ClientSession):
        dead = False

        def handle(self, msg):
            self.dead = self.dead or msg.kind == MessageKind.GLOBAL_BLOCK
            return [] if self.dead else super().handle(msg)

    clients = [make_dataset(52), make_dataset(53)]
    transport = LoopbackTransport({0: ClientSession(0, *clients[0]), 1: DiesWhileDeflating(1, *clients[1])})
    model = federated_fit_over(transport, CFG)
    assert model.n_blocks == 2
    assert transport.client_ids() == [0]
    retries = [cid for d, cid, f in transport.frames
               if d == "server->client" and decode_message(f).kind == MessageKind.ERROR]
    assert retries == [0, 1, 0]


def test_every_client_dropping_during_retry_raises_protocol_error():
    # one round-2 report read fails, then every RETRY_ROUND send fails, so
    # no client is left to run the round again
    class RetryKillsAllTransport(LoopbackTransport):
        failed_once = False

        def recv(self, client_id):
            msg = super().recv(client_id)
            if msg.kind == MessageKind.ACE_REPORT and msg.round == 2 and not self.failed_once:
                self.failed_once = True
                raise ClientDropout(client_id, "injected report failure")
            return msg

        def send(self, client_id, msg):
            if msg.kind == MessageKind.ERROR:
                raise ClientDropout(client_id, "injected send failure")
            super().send(client_id, msg)

    clients = [make_dataset(57), make_dataset(58)]
    sessions = {cid: ClientSession(cid, x, y) for cid, (x, y) in enumerate(clients)}
    transport = RetryKillsAllTransport(sessions)
    with pytest.raises(ProtocolError, match="all clients dropped out"):
        federated_fit_over(transport, CFG)
    assert transport.failed_once
    assert transport.client_ids() == []


def test_client_error_excluded_for_the_round():
    class FailingSession(ClientSession):
        def handle(self, msg):
            if msg.kind == MessageKind.HYPER_ASSIGN:
                from fbttr.wire import ErrorCode, Message, ProtocolErrorInfo
                return [Message(MessageKind.ERROR, msg.round, self.client_id,
                                ProtocolErrorInfo(int(ErrorCode.DECOMPOSITION_FAILED), "boom"))]
            return super().handle(msg)

    clients = [make_dataset(54), make_dataset(55)]
    sessions = {
        0: ClientSession(0, *clients[0]),
        1: FailingSession(1, *clients[1]),
    }
    transport = LoopbackTransport(sessions)
    model = federated_fit_over(transport, CFG)
    # the healthy client carries every round; the failing one stays in the roster
    assert model.n_blocks >= 1
    assert transport.client_ids() == [0, 1]


def test_zero_sample_count_excluded_for_the_round():
    class ZeroCountSession(ClientSession):
        def handle(self, msg):
            out = super().handle(msg)
            for m in out:
                if m.kind == MessageKind.BLOCK_UPDATE:
                    m.payload.n_samples = 0
            return out

    clients = [make_dataset(54), make_dataset(55)]
    sessions = {0: ClientSession(0, *clients[0]), 1: ZeroCountSession(1, *clients[1])}
    transport = LoopbackTransport(sessions)
    model = federated_fit_over(transport, CFG)
    # a zero weight cannot enter the average; the healthy client carries every round
    assert model.n_blocks >= 1
    assert np.isfinite(predict(model, clients[0][0])).all()
    assert transport.client_ids() == [0, 1]


class DoubledRowsSession(ClientSession):
    """A client whose every block update has twice the feature rows of its data."""

    def handle(self, msg):
        out = super().handle(msg)
        for m in out:
            if m.kind == MessageKind.BLOCK_UPDATE and not m.payload.skip:
                b = m.payload.block
                b.factors = [np.vstack([f, f]) for f in b.factors]
        return out


def test_hub_excludes_block_outside_the_handshake_shapes():
    clients = [make_dataset(63), make_dataset(64)]
    sessions = {0: ClientSession(0, *clients[0]), 1: DoubledRowsSession(1, *clients[1])}
    transport = LoopbackTransport(sessions)
    model = federated_fit_over(transport, CFG)
    assert model.n_blocks >= 1
    assert transport.client_ids() == [0, 1]
    broadcast = [decode_message(f).payload for d, _, f in transport.frames
                 if d == "server->client" and decode_message(f).kind == MessageKind.GLOBAL_BLOCK]
    assert broadcast
    for b in broadcast:
        assert [f.shape[0] for f in b.factors] == [4, 3]


def test_lone_client_with_misshaped_block_raises_fit_error():
    with pytest.raises(FitError):
        federated_fit_over(LoopbackTransport({0: DoubledRowsSession(0, *make_dataset(65))}), CFG)


class PoisonedBlockSession(ClientSession):
    """A client that writes a NaN or an inf into one field of every block
    update, or doubles its factors when the field is "stretched"."""

    def __init__(self, *args, field):
        super().__init__(*args)
        self.field = field

    def handle(self, msg):
        out = super().handle(msg)
        for m in out:
            if m.kind == MessageKind.BLOCK_UPDATE and not m.payload.skip:
                b = m.payload.block
                if self.field == "d":
                    b.d = np.nan
                elif self.field == "stretched":
                    b.factors = [2.0 * f for f in b.factors]
                elif self.field == "factors":
                    b.factors = [f.copy() for f in b.factors]
                    b.factors[-1][0, 0] = -np.inf
                else:
                    a = getattr(b, self.field).copy()
                    a.flat[0] = np.nan if self.field == "core" else np.inf
                    setattr(b, self.field, a)
        return out


def _assert_hub_excludes_poisoned_block(field):
    clients = [make_dataset(66), make_dataset(67)]
    sessions = {0: ClientSession(0, *clients[0]),
                1: PoisonedBlockSession(1, *clients[1], field=field)}
    transport = LoopbackTransport(sessions)
    model = federated_fit_over(transport, CFG)
    assert transport.client_ids() == [0, 1]
    solo = run_federated_fit([clients[0]], CFG)
    assert model.n_blocks == solo.n_blocks >= 1
    assert model.w.tobytes() == solo.w.tobytes()
    assert model.z.tobytes() == solo.z.tobytes()


@pytest.mark.parametrize("field", ["core", "score_core", "q", "factors", "d"])
def test_hub_excludes_block_holding_nan_or_inf(field):
    _assert_hub_excludes_poisoned_block(field)


def test_hub_excludes_a_block_whose_factors_are_not_orthonormal():
    # finite, but deflating by it could overflow a client's residual
    _assert_hub_excludes_poisoned_block("stretched")


class TamperedReportSession(ClientSession):
    """A client that rewrites fields of every non-skip ACE_REPORT it sends."""

    def __init__(self, *args, **changes):
        super().__init__(*args)
        self.changes = changes

    def handle(self, msg):
        out = super().handle(msg)
        for m in out:
            if m.kind == MessageKind.ACE_REPORT and not m.payload.skip:
                for name, value in self.changes.items():
                    setattr(m.payload, name, value)
        return out


CAPPED = FitConfig(max_blocks=2, epsilon=1e-8, grid=GRID, rank_cap=2)


@pytest.mark.parametrize("changes,cfg", [
    (dict(ranks=(0, 0)), CFG),
    (dict(ranks=(2, 2, 2)), CFG),
    (dict(ranks=(2,)), CFG),
    (dict(ranks=(5, 1)), CFG),  # mode-2 extent is 4
    (dict(ranks=(3, 1)), CAPPED),
], ids=["rank-0", "three-modes", "one-mode", "above-extent", "above-cap"])
def test_hub_excludes_an_unsound_ace_report(changes, cfg):
    clients = [make_dataset(74), make_dataset(75)]
    sessions = {0: ClientSession(0, *clients[0]),
                1: TamperedReportSession(1, *clients[1], **changes)}
    transport = LoopbackTransport(sessions)
    model = federated_fit_over(transport, cfg)
    assert transport.client_ids() == [0, 1]
    # the tampering client is left out of every round like an ERROR reply,
    # so the honest client's ranks and model stand as if it were alone
    solo = run_federated_fit([clients[0]], cfg)
    assert [b.feature_ranks for b in model.blocks] == [b.feature_ranks for b in solo.blocks]
    assert model.w.tobytes() == solo.w.tobytes()
    assert model.z.tobytes() == solo.z.tobytes()


def _global_block(x, y, damage):
    upd = client_local_block(x, y, ace(x, y, GRID), (2, 2), CFG.rank_cap)
    gb = aggregate_block([upd])
    if damage == "doubled-rows":
        gb.factors = [np.vstack([f, f]) for f in gb.factors]
    elif damage == "nan-core":
        gb.core = np.full_like(gb.core, np.nan)
    elif damage == "inf-factor":
        gb.factors[0] = gb.factors[0].copy()
        gb.factors[0][0, 0] = np.inf
    elif damage == "two-row-q":
        gb.q = np.vstack([gb.q, gb.q])
    elif damage == "stretched-factor":
        gb.factors = [2.0 * gb.factors[0]] + gb.factors[1:]
    elif damage == "overflowing-score":
        # finite and orthonormal, but the score direction's norm overflows
        gb.score_core = np.full_like(gb.score_core, 1e200)
    elif damage == "zero-rank":
        gb = Block(np.zeros((1, 0, 1)), np.zeros((1, 0, 1)), [np.zeros((4, 0)), np.eye(3)[:, :1]],
                   gb.q, gb.d)
    return gb


@pytest.mark.parametrize("damage,rank_cap", [
    ("doubled-rows", 10), ("nan-core", 10), ("inf-factor", 10), ("two-row-q", 10), ("zero-rank", 10),
    ("stretched-factor", 10), ("overflowing-score", 10), (None, 1),
], ids=["doubled-rows", "nan-core", "inf-factor", "two-row-q", "zero-rank", "stretched-factor",
        "overflowing-score", "rank-above-cap"])
def test_client_refuses_a_bad_global_block_before_touching_its_residuals(damage, rank_cap):
    x, y = make_dataset(76)
    session = ClientSession(0, x, y)
    session.handle(hub_hello(FitConfig(max_blocks=2, epsilon=1e-8, grid=GRID, rank_cap=rank_cap)))
    r = session.residuals
    e, f, trace = r.e, r.f, list(r.trace)
    with pytest.raises(ProtocolError, match="global block"):
        session.handle(Message(MessageKind.GLOBAL_BLOCK, 1, 0, _global_block(x, y, damage)))
    assert r.e is e and r.f is f
    assert r.trace == trace and len(trace) == 1


def test_client_refuses_a_bad_global_block_without_writing_its_own_residual():
    # after the first deflation the session owns its residual and deflates it
    # in place, so a refused block, or one with no direction here, must leave it
    x, y = make_dataset(78)
    session = ClientSession(0, x, y)
    session.handle(hub_hello(FitConfig(max_blocks=3, epsilon=1e-8, grid=GRID)))
    session.handle(Message(MessageKind.GLOBAL_BLOCK, 1, 0, _global_block(x, y, None)))
    r = session.residuals
    e, f, trace = r.e, r.f, list(r.trace)
    assert len(trace) == 2 and not np.shares_memory(e, x)
    residual = e.tobytes()
    for damage in ("nan-core", "overflowing-score"):
        with pytest.raises(ProtocolError, match="global block"):
            session.handle(Message(MessageKind.GLOBAL_BLOCK, 2, 0, _global_block(x, y, damage)))
    session.handle(Message(MessageKind.GLOBAL_BLOCK, 2, 0, ZERO_BLOCK))
    assert r.e is e and r.f is f and r.e.tobytes() == residual
    assert r.trace == trace


def test_retry_of_a_round_the_client_did_not_report_is_refused(monkeypatch):
    # the hub only retries the round a live client last reported
    x, y = make_dataset(79)
    extractions = []
    monkeypatch.setattr(federated, "ace", lambda *a, **k: extractions.append(a) or ace(*a, **k))
    session = ClientSession(0, x, y)
    session.handle(hub_hello(FitConfig(max_blocks=1, grid=GRID)))
    retry = ProtocolErrorInfo(int(ErrorCode.RETRY_ROUND), "round aborted")
    for rnd in (7, 0, 2):
        with pytest.raises(ProtocolError, match="retry"):
            session.handle(Message(MessageKind.ERROR, rnd, 0, retry))
    [report] = session.handle(Message(MessageKind.ERROR, 1, 0, retry))
    assert report.kind == MessageKind.ACE_REPORT and report.round == 1
    assert len(extractions) == 1


def test_clients_deflate_their_own_residual_in_place_and_never_write_their_data(monkeypatch):
    # blocks of 4 samples, so every deflation and projection runs block by block
    clients = [make_dataset(80, n=18), make_dataset(81, n=15)]
    monkeypatch.setattr(tensor, "GATHER_BYTES", 4 * 8 * 12)
    originals = [(x.tobytes(), y.tobytes()) for x, y in clients]
    sessions = {cid: ClientSession(cid, x, y) for cid, (x, y) in enumerate(clients)}
    calls = []
    real = federated.client_deflate

    def spy(residuals, gb, own=None):
        e = residuals.e
        real(residuals, gb, own)
        calls.append("new" if e is residuals.x else "in place" if residuals.e is e else "?")

    monkeypatch.setattr(federated, "client_deflate", spy)
    model = federated_fit_over(LoopbackTransport(sessions), FitConfig(max_blocks=3, grid=GRID))
    assert model.n_blocks == 3
    assert [(x.tobytes(), y.tobytes()) for x, y in clients] == originals
    for (x, _), session in zip(clients, sessions.values()):
        r = session.residuals
        assert len(r.trace) == 4 and r.x is x and not np.shares_memory(r.e, x)
    assert sorted(calls) == ["in place"] * 4 + ["new"] * 2


@pytest.mark.parametrize("msg", [
    Message(MessageKind.GLOBAL_BLOCK, 1, 0, ZERO_BLOCK),
    Message(MessageKind.HYPER_ASSIGN, 1, 0, HyperAssign((1, 1))),
    Message(MessageKind.ERROR, 1, 0, ProtocolErrorInfo(int(ErrorCode.RETRY_ROUND), "retry")),
    Message(MessageKind.DONE, 1, 0),
], ids=lambda m: m.kind.name)
def test_client_refuses_any_message_before_the_hubs_hello(msg):
    x, y = make_dataset(77)
    session = ClientSession(0, x, y)
    with pytest.raises(ProtocolError, match="before the hub's HELLO"):
        session.handle(msg)
    assert session.residuals.e is x and len(session.residuals.trace) == 1 and not session.done


def test_client_session_rejects_inf_data():
    x, y = make_dataset(68)
    for value in (np.inf, -np.inf):
        bad = x.copy()
        bad[0, 0, 0] = value
        with pytest.raises(ValueError):
            ClientSession(0, bad, y)
        bad = y.copy()
        bad[0, 0] = value
        with pytest.raises(ValueError):
            ClientSession(0, x, bad)


def test_client_session_neither_copies_nor_writes_its_data():
    clients = [make_dataset(69), make_dataset(70)]
    originals = [(x.tobytes(), y.tobytes()) for x, y in clients]
    session = ClientSession(0, *clients[0])
    assert np.shares_memory(session.residuals.e, clients[0][0])
    assert np.shares_memory(session.residuals.f, clients[0][1])
    model = run_federated_fit(clients, CFG)
    assert model.n_blocks == 2
    assert [(x.tobytes(), y.tobytes()) for x, y in clients] == originals


def test_epsilon_above_norms_still_yields_one_block_then_stops():
    # mirrors the centralized minimum-one-block rule, then every later
    # round is skipped and training ends with a single global block
    x, y = make_dataset(56)
    cfg = FitConfig(max_blocks=3, epsilon=10.0 * frobenius_norm(y), grid=GRID)
    model = run_federated_fit([(x, y)], cfg)
    assert model.n_blocks == 1
    central = fit(x, y, cfg)
    assert central.n_blocks == 1


def test_epsilon_binding_mid_fit_stops_fit_and_federation_alike():
    # a noiseless 2-block set leaves residuals near 1e-15 after block 2, so
    # epsilon=1e-6 binds there; with a smaller epsilon both sides go on to
    # extract max_blocks=4 blocks of rounding noise
    ds, _ = make_synthetic((30, 4, 3), n_blocks=2, noise_snr_db=None, seed=0)
    cfg = FitConfig(max_blocks=4, epsilon=1e-6, grid=GRID)
    central = fit(ds.x, ds.y, cfg)
    assert min(central.trace[1]) > cfg.epsilon >= min(central.trace[2])
    federated = run_federated_fit([(ds.x, ds.y)], cfg)
    assert central.n_blocks == federated.n_blocks == 2
    assert np.max(np.abs(predict(central, ds.x) - predict(federated, ds.x))) < 1e-8


def test_degenerate_data_raises_fit_error():
    with pytest.raises(FitError):
        run_federated_fit([(np.zeros((6, 3, 2)), np.zeros((6, 1)))],
                          FitConfig(max_blocks=2, epsilon=1e-8, grid=GRID))


def test_heterogeneous_feature_shapes_rejected():
    a = make_dataset(60, shape=(4, 3))
    b = make_dataset(61, shape=(5, 3))
    with pytest.raises(ProtocolError):
        run_federated_fit([a, b], CFG)


def test_hub_without_any_hello_raises_protocol_error():
    x, y = make_dataset(62)
    hub = LoopbackTransport({0: ClientSession(0, x, y)})
    hub.drain(0)  # the only session's JOIN never reaches the hub
    with pytest.raises(ProtocolError, match="all clients dropped out"):
        federated_fit_over(hub, CFG)


def test_socket_transport_matches_loopback_bit_for_bit():
    clients = [make_dataset(70, n=23), make_dataset(71, n=29)]
    loop_model = run_federated_fit(clients, CFG)

    listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
    listener.bind(("127.0.0.1", 0))
    listener.listen(4)
    port = listener.getsockname()[1]
    result = {}

    def server():
        transport = serve_clients(listener, len(clients), round_timeout=60)
        result["model"] = federated_fit_over(transport, CFG)
        transport.close()

    st = threading.Thread(target=server)
    st.start()
    client_threads = []
    for x, y in clients:
        t = threading.Thread(target=run_socket_client,
                             args=("127.0.0.1", port, x, y),
                             kwargs=dict(round_timeout=60))
        t.start()
        client_threads.append(t)
        time.sleep(0.05)  # deterministic accept order
    st.join(timeout=120)
    for t in client_threads:
        t.join(timeout=120)
    listener.close()
    assert model_to_bytes(result["model"]) == model_to_bytes(loop_model)


@pytest.mark.parametrize("case", ["two-frames-one-send", "one-byte-sends", "large-body"])
def test_socket_channel_reassembles_frames(case):
    rng = np.random.default_rng(74)
    if case == "large-body":
        # 3000 x 10 doubles: a body well over 200 KiB, more than one recv chunk
        block = Block(core=rng.normal(size=(1, 10, 2)), score_core=rng.normal(size=(1, 10, 2)),
                      factors=[rng.normal(size=(3000, 10)), rng.normal(size=(4, 2))],
                      q=np.ones((1, 1)), d=0.5)
        frames = [encode_message(Message(MessageKind.GLOBAL_BLOCK, 1, 0, block))]
        assert len(frames[0]) > 200 * 1024
    else:
        frames = [encode_message(Message(MessageKind.HYPER_ASSIGN, 1, 0, HyperAssign(target_ranks=(2, 1)))),
                  encode_message(Message(MessageKind.DONE, 1, 0))]
    if case == "one-byte-sends":
        frames = frames[:1]
    a, b = socket.socketpair()

    def sender():
        if case == "one-byte-sends":
            for byte in frames[0]:
                b.sendall(bytes([byte]))
                time.sleep(0.001)
        else:
            b.sendall(b"".join(frames))

    channel = SocketChannel(a)
    t = threading.Thread(target=sender)
    try:
        t.start()
        got = [channel.recv_frame(timeout=30) for _ in frames]
        t.join(timeout=30)
    finally:
        a.close()
        b.close()
    assert not t.is_alive()
    assert got == frames and all(type(g) is bytes for g in got)


GARBAGE_MAGIC = b"XXXX" + bytes(range(60))
# a well-framed ERROR whose detail string ends in a byte that is not UTF-8
NON_UTF8_ERROR = encode_message(Message(
    MessageKind.ERROR, 1, 0, ProtocolErrorInfo(code=1, detail="bad!")))[:-1] + b"\xff"


TIMEOUT = 20.0  # seconds; the hub and the real client wait equally long


@pytest.mark.parametrize("says_hello,corrupt,shuts_down", [
    (True, GARBAGE_MAGIC, True), (False, GARBAGE_MAGIC, True), (True, NON_UTF8_ERROR, True),
    (True, NON_UTF8_ERROR, False),
], ids=["after-hello", "instead-of-hello", "non-utf8-error-after-hello", "non-utf8-error-then-silent"])
def test_hub_drops_client_sending_corrupt_frame(says_hello, corrupt, shuts_down):
    # a raw peer, connected first so it is client 0, sends a corrupt frame,
    # either after a valid JOIN (the round is retried without it) or in its
    # place (the handshake drops it); either way the hub trains on the real
    # client alone.  The hub drops the peer as soon as its frame fails to
    # decode, so no retry read waits out the round timeout on it, even when
    # the peer stays connected and silent
    x, y = make_dataset(72, n=23)
    alone = run_federated_fit([(x, y)], CFG)

    listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
    listener.bind(("127.0.0.1", 0))
    listener.listen(4)
    port = listener.getsockname()[1]
    result = {}

    def server():
        transport = serve_clients(listener, 2, round_timeout=TIMEOUT)
        result["model"] = federated_fit_over(transport, CFG)
        result["live"] = transport.client_ids()
        transport.close()

    join = Message(MessageKind.JOIN, 0, 0, Join(feature_shape=(4, 3), n_responses=1))
    raw = socket.create_connection(("127.0.0.1", port))
    st = threading.Thread(target=server)
    ct = threading.Thread(target=run_socket_client, args=("127.0.0.1", port, x, y),
                          kwargs=dict(round_timeout=TIMEOUT))
    try:
        first = encode_message(join) if says_hello else b""
        raw.sendall(first + corrupt)
        if shuts_down:
            raw.shutdown(socket.SHUT_WR)
        start = time.monotonic()
        st.start()
        ct.start()
        st.join(timeout=3 * TIMEOUT)
        ct.join(timeout=3 * TIMEOUT)
        elapsed = time.monotonic() - start
    finally:
        raw.close()
        listener.close()
    assert not st.is_alive() and not ct.is_alive()
    assert result["live"] == [1]
    assert elapsed < TIMEOUT / 2
    assert model_to_bytes(result["model"]) == model_to_bytes(alone)
