"""Hub-and-spoke federated training of a block-term tensor regression.

One global block is trained per round.  Every client runs the automatic
component extraction on its local residuals and reports its ranks; the hub
harmonises them to the elementwise minimum and assigns every client those
target ranks.  A client whose ranks are above the target reruns the
decomposition at its own selected (SNR, tau) and truncates it.  The hub
aggregates the returned block parameters by a sample-count-weighted average
after sign/permutation alignment and broadcasts the global block; the model
is the list of broadcast blocks.  Clients recompute their score vector
locally, unless the block is their own, and deflate their residuals; a
client's next round report is the hub's sign that it has.  Only ranks,
cores, factors, loadings, scalars and sample counts ever cross the wire.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Optional

import numpy as np

from .bttr import Block, BttrModel, FitConfig, FitError, Residuals, materialize_predictor
from .sparse_tucker import (
    AceError,
    AceResult,
    NonFiniteScoreError,
    SparseTuckerResult,
    ace,
    block_from,
    coefficient,
    collapse_response_mode,
    component_contributions,
    f_mpstd,
    finalize_block,
)
from .tensor import multilinear_product
from .transport import DEFAULT_ROUND_TIMEOUT, ClientDropout, LoopbackTransport, ProtocolError, SocketChannel
from .wire import (
    AceReport,
    BlockUpdate,
    ErrorCode,
    HyperAssign,
    Join,
    Message,
    MessageKind,
    ProtocolErrorInfo,
)

__all__ = [
    "ClientSession",
    "aggregation_weights",
    "harmonize_ranks",
    "truncate_to_ranks",
    "client_local_block",
    "client_deflate",
    "aggregate_block",
    "federated_fit_over",
    "run_federated_fit",
    "run_socket_client",
]

MAX_STALE_FRAMES = 16  # frames from aborted rounds a hub read skips before giving up


def aggregation_weights(sample_counts) -> np.ndarray:
    counts = np.asarray(sample_counts, dtype=np.float64)
    if counts.size == 0 or np.any(counts <= 0):
        raise ValueError("sample counts must be positive")
    w = counts / counts.sum()
    assert abs(w.sum() - 1.0) < 1e-12
    return w


# ---------------------------------------------------------------------------
# per-client block computation
# ---------------------------------------------------------------------------

def harmonize_ranks(reports: dict) -> tuple:
    """Elementwise-minimum target ranks plus per-client assignments.

    ``reports`` maps client id to a non-skip :class:`AceReport`.  Every
    client is told to truncate to the shared target ranks.
    """
    if not reports:
        raise ValueError("no reports to harmonize")
    rank_lists = [r.ranks for r in reports.values()]
    n_modes = len(rank_lists[0])
    if any(len(r) != n_modes for r in rank_lists):
        raise ProtocolError("clients reported inconsistent mode counts")
    target = tuple(max(1, min(r[m] for r in rank_lists)) for m in range(n_modes))
    return target, {cid: HyperAssign(target) for cid in reports}


def truncate_to_ranks(res: SparseTuckerResult, target_ranks) -> SparseTuckerResult:
    """Keep the highest-contribution components per feature mode, original order."""
    if len(target_ranks) != len(res.factors):
        raise ProtocolError(
            f"assignment names {len(target_ranks)} feature modes, decomposition has {len(res.factors)}"
        )
    core = res.core
    factors = []
    for n, (f, tgt) in enumerate(zip(res.factors, target_ranks)):
        cur = f.shape[1]
        if not 1 <= tgt <= cur:
            raise ProtocolError(f"target rank {tgt} outside 1..{cur} in mode {n + 2}")
        if tgt < cur:
            contrib = component_contributions(core, n + 2)
            keep = np.sort(np.argsort(-contrib, kind="stable")[:tgt])
            core = np.ascontiguousarray(np.take(core, keep, axis=n + 1))
            f = f[:, keep]
        factors.append(f)
    return replace(res, core=core, factors=factors)


def client_local_block(e, f, own: AceResult, target_ranks, rank_cap: int) -> BlockUpdate:
    """The round's local block at the target ranks.

    ``own`` is the client's extraction for this round.  When its ranks are
    the target (single client, or its ranks were already the minimum) its
    block is returned; otherwise the decomposition of the residuals ``e``,
    ``f`` is rerun at the client's own selected (SNR, tau) and truncated.
    """
    if own.block.feature_ranks == tuple(target_ranks):
        return BlockUpdate(e.shape[0], own.block)
    res = f_mpstd(e, f, snr=own.snr_star, tau=own.tau_star, rank_cap=rank_cap)
    res = truncate_to_ranks(collapse_response_mode(res), target_ranks)
    return BlockUpdate(e.shape[0], block_from(e, f, res)[0])


def client_deflate(residuals: Residuals, gb: Block, own: Optional[AceResult] = None) -> None:
    """Deflate a client's ``residuals`` by the broadcast global block ``gb``.

    A ``gb`` that is byte for byte ``own.block``, the block the client
    reported this round, is deflated by ``own``'s score, block core and coefficient, as
    :func:`~fbttr.bttr.fit` deflates.  Any other block has its score vector
    recomputed from its factors and score core, its block core projected
    from the residual and its coefficient fitted locally.  A zero score
    direction leaves the residuals as they were; one that is not finite
    raises :class:`ProtocolError` before any write.
    """
    if own is not None and gb.same_bytes(own.block):
        b = own.block
        residuals.deflate(b.core, b.factors, b.q, b.d, own.t)
        return
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            t, local_core, _ = finalize_block(residuals.e, gb.score_core, gb.factors)
    except NonFiniteScoreError as err:
        raise ProtocolError(f"global block has no finite score direction here: {err}") from err
    except AceError:
        return  # the residual has no component along the global block
    residuals.deflate(local_core, gb.factors, gb.q, coefficient(residuals.f, gb.q, t), t)


# ---------------------------------------------------------------------------
# aggregation
# ---------------------------------------------------------------------------

def _greedy_column_match(ref: np.ndarray, cand: np.ndarray) -> np.ndarray:
    """Permutation of cand columns maximising summed |inner product| with ref, greedily."""
    r = ref.shape[1]
    scores = np.abs(ref.T @ cand)
    perm = np.full(r, -1, dtype=int)
    used_ref, used_cand = set(), set()
    flat_order = np.argsort(-scores, axis=None, kind="stable")
    for flat in flat_order:
        i, j = divmod(int(flat), r)
        if i in used_ref or j in used_cand:
            continue
        perm[i] = j
        used_ref.add(i)
        used_cand.add(j)
        if len(used_ref) == r:
            break
    return perm


def _align_update(ref: Block, upd: Block) -> Block:
    """Resolve sign and column-permutation ambiguity against the reference block."""
    core, score_core = upd.core, upd.score_core
    factors = []
    for n, (rf, uf) in enumerate(zip(ref.factors, upd.factors)):
        axis = n + 1
        perm = _greedy_column_match(rf, uf)
        uf = uf[:, perm]
        core = np.take(core, perm, axis=axis)
        score_core = np.take(score_core, perm, axis=axis)
        signs = np.sign(np.sum(rf * uf, axis=0))
        signs[signs == 0] = 1.0
        uf = uf * signs
        shape = [1] * core.ndim
        shape[axis] = len(signs)
        core = core * signs.reshape(shape)
        score_core = score_core * signs.reshape(shape)
        factors.append(uf)
    q = upd.q
    if float(np.sum(ref.q * q)) < 0:
        # flipping the response loading flips the score map, hence the score,
        # hence the block core; d = u't is invariant
        q = -q
        score_core = -score_core
        core = -core
    return Block(core, score_core, factors, q, upd.d)


def aggregate_block(updates) -> Block:
    """Sample-count-weighted average of the aligned blocks of non-skip updates.

    A lone update's block is broadcast as sent, with no QR and no rescaling.
    Updates must share shapes (guaranteed by rank harmonisation).  Averaged
    factors are re-orthonormalised by a thin QR with the triangular
    correction absorbed into both cores; the averaged loading is rescaled
    to unit norm with the scale absorbed into the coefficient.
    """
    updates = list(updates)
    if not updates:
        raise ValueError("no updates to aggregate")
    if len(updates) == 1:
        return updates[0].block
    ref, *rest = [u.block for u in updates]
    for b in rest:
        if b.core.shape != ref.core.shape or b.q.shape != ref.q.shape or any(
            x.shape != y.shape for x, y in zip(b.factors, ref.factors)
        ):
            raise ProtocolError("block update shapes differ; harmonization was violated")
    aligned = [ref] + [_align_update(ref, b) for b in rest]
    w = aggregation_weights([u.n_samples for u in updates])

    core = sum(wi * b.core for wi, b in zip(w, aligned))
    score_core = sum(wi * b.score_core for wi, b in zip(w, aligned))
    q = sum(wi * b.q for wi, b in zip(w, aligned))
    d = float(sum(wi * b.d for wi, b in zip(w, aligned)))
    factors = [
        sum(wi * b.factors[n] for wi, b in zip(w, aligned))
        for n in range(len(ref.factors))
    ]

    ortho = []
    for n, fbar in enumerate(factors):
        qmat, rmat = np.linalg.qr(fbar)
        signs = np.sign(np.diag(rmat))
        signs[signs == 0] = 1.0
        qmat = qmat * signs
        rmat = rmat * signs[:, None]
        core = multilinear_product(core, {n + 2: rmat})
        score_core = multilinear_product(score_core, {n + 2: rmat})
        ortho.append(qmat)

    q_norm = float(np.linalg.norm(q))
    if q_norm == 0.0:
        raise ProtocolError("aggregated response loading vanished")
    return Block(core, score_core, ortho, q / q_norm, d * q_norm)


# ---------------------------------------------------------------------------
# client session state machine
# ---------------------------------------------------------------------------

class ClientSession:
    """One client's whole state and its protocol driver.

    ``residuals`` (:class:`~fbttr.bttr.Residuals`) never leaves the client,
    and every check on a GLOBAL_BLOCK comes before a deflation writes it, so
    a refused block leaves it as it was.  The stop rule is decided once per
    round, when the client reports: ``_round`` is (round, AceResult or None
    for a skip), which a retry reports again, a HYPER_ASSIGN builds on and a
    GLOBAL_BLOCK that is the client's own deflates by.  Any message but
    HELLO before the hub's config, a JOIN, a HYPER_ASSIGN naming the wrong
    number of feature modes or a target rank outside 1 and the round's own
    rank, a GLOBAL_BLOCK that does not fit the client's shapes, is not
    :meth:`~Block.is_sound`, exceeds the rank cap or has no finite score
    direction here, and a RETRY_ROUND for a round other than the one last
    reported, raise :class:`ProtocolError` before any decomposition or
    deflation.
    """

    def __init__(self, client_id: int, x, y):
        self.residuals = Residuals(x, y)
        self.client_id = client_id
        self.cfg: Optional[FitConfig] = None
        self.done = False
        self._round = (None, None)

    def join(self) -> Message:
        return self._msg(MessageKind.JOIN, 0, Join(self.residuals.x.shape[1:], self.residuals.f.shape[1]))

    def _msg(self, kind, rnd, payload=None) -> Message:
        return Message(kind=kind, round=rnd, client_id=self.client_id, payload=payload)

    def _ace_report(self, rnd: int) -> Message:
        # only a deflation changes the residuals, so a retried round reuses what it stored
        if self._round[0] != rnd:
            r, result = self.residuals, None
            if rnd == 1 or not self.cfg.stops(*r.trace[-1]):
                try:
                    result = ace(r.e, r.f, self.cfg.grid, rank_cap=self.cfg.rank_cap)
                except AceError:
                    pass
            self._round = (rnd, result)
        result = self._round[1]
        ranks = () if result is None else result.block.feature_ranks
        return self._msg(MessageKind.ACE_REPORT, rnd, AceReport(skip=result is None, ranks=ranks))

    def handle(self, msg: Message) -> list:
        if msg.kind == MessageKind.HELLO:
            self.client_id = msg.client_id
            self.cfg = msg.payload
            return [self._ace_report(1)]
        if self.cfg is None:
            raise ProtocolError(f"{msg.kind.name} arrived before the hub's HELLO")
        r = self.residuals
        if msg.kind == MessageKind.HYPER_ASSIGN:
            rnd, own = self._round
            target = msg.payload.target_ranks
            if len(target) != r.x.ndim - 1:
                raise ProtocolError(f"round {msg.round} assignment names {len(target)} feature modes, "
                                    f"this client has {r.x.ndim - 1}")
            if rnd != msg.round or own is None:
                return [self._msg(MessageKind.BLOCK_UPDATE, msg.round, BlockUpdate(r.x.shape[0]))]
            ranks = own.block.feature_ranks
            if not all(1 <= t <= k for t, k in zip(target, ranks)):
                raise ProtocolError(f"round {msg.round} target ranks {target} outside 1..{ranks}")
            try:
                update = client_local_block(r.e, r.f, own, target, self.cfg.rank_cap)
            except (AceError, ProtocolError, ValueError) as e:
                # a ProtocolError here is the rerun's own ranks falling below the checked target
                info = ProtocolErrorInfo(code=int(ErrorCode.DECOMPOSITION_FAILED), detail=str(e))
                return [self._msg(MessageKind.ERROR, msg.round, info)]
            return [self._msg(MessageKind.BLOCK_UPDATE, msg.round, update)]
        if msg.kind == MessageKind.GLOBAL_BLOCK:
            gb = msg.payload
            if not (gb.fits(r.x.shape[1:], r.f.shape[1]) and gb.is_sound()
                    and all(rank <= self.cfg.rank_cap for rank in gb.feature_ranks)):
                raise ProtocolError(f"round {msg.round} global block does not fit this client")
            if not self.cfg.stops(*r.trace[-1]):
                client_deflate(r, gb, self._round[1] if self._round[0] == msg.round else None)
            # the next round's report is the acknowledgement; the last round has none
            return [self._ace_report(msg.round + 1)] if msg.round < self.cfg.max_blocks else []
        if msg.kind == MessageKind.DONE:
            self.done = True
            return []
        if msg.kind == MessageKind.ERROR:
            if msg.payload.code == ErrorCode.RETRY_ROUND:
                if msg.round != self._round[0]:
                    raise ProtocolError(f"retry of round {msg.round}, but this client last "
                                        f"reported round {self._round[0]}")
                return [self._ace_report(msg.round)]
            self.done = True
            return []
        raise ProtocolError(f"client cannot handle message kind {msg.kind}")


# ---------------------------------------------------------------------------
# hub orchestration
# ---------------------------------------------------------------------------

def _recv_expect(transport, cid: int, kind: MessageKind, rnd: int) -> Message:
    """Next message of the expected kind, discarding stale frames from aborted rounds."""
    for _ in range(MAX_STALE_FRAMES):
        msg = transport.recv(cid)
        if msg.kind == kind and msg.round == rnd:
            return msg
        if msg.kind == MessageKind.ERROR:
            return msg
    raise ProtocolError(f"client {cid} flooded unexpected messages")


def _send_or_drop(transport, cid: int, msg: Message) -> None:
    """Send ``msg``; a client that cannot take it leaves the federation."""
    try:
        transport.send(cid, msg)
    except ClientDropout:
        transport.drop(cid)


def _roster(transport) -> list:
    """Ids of the clients still in the federation; none left ends it."""
    live = transport.client_ids()
    if not live:
        raise ProtocolError("all clients dropped out")
    return live


def _handshake(transport, cfg: FitConfig) -> tuple:
    """Check every client's JOIN against a shared feature space, then send the config.

    Returns the shared (feature shape, response count).  A client that drops
    out here leaves the federation; one whose shapes differ ends it.
    """
    feature_shape = n_responses = None
    for cid in transport.client_ids():
        try:
            msg = _recv_expect(transport, cid, MessageKind.JOIN, 0)
        except ClientDropout:
            transport.drop(cid)
            continue
        if msg.kind != MessageKind.JOIN:
            raise ProtocolError(f"client {cid} failed handshake")
        p = msg.payload
        if feature_shape is None:
            feature_shape, n_responses = p.feature_shape, p.n_responses
        elif p.feature_shape != feature_shape or p.n_responses != n_responses:
            raise ProtocolError(
                f"client {cid} shapes {p.feature_shape}/{p.n_responses} differ from "
                f"{feature_shape}/{n_responses}; horizontal federation requires a shared feature space"
            )
    for cid in transport.client_ids():
        _send_or_drop(transport, cid, Message(MessageKind.HELLO, 0, cid, cfg))
    _roster(transport)
    return feature_shape, n_responses


def _sound(report: AceReport, feature_shape, cfg: FitConfig) -> bool:
    """Whether a non-skip ``report`` names one rank per feature mode, each in
    ``1..min(extent, rank_cap)``."""
    return len(report.ranks) == len(feature_shape) and all(
        1 <= r <= min(ext, cfg.rank_cap) for r, ext in zip(report.ranks, feature_shape)
    )


def _collect_reports(transport, live, rnd: int, feature_shape, cfg: FitConfig) -> dict:
    """Every live client's report; an ERROR reply or an unsound report counts as a skip."""
    reports = {}
    for cid in live:
        msg = _recv_expect(transport, cid, MessageKind.ACE_REPORT, rnd)
        report = msg.payload if msg.kind == MessageKind.ACE_REPORT else AceReport(skip=True)
        reports[cid] = report if report.skip or _sound(report, feature_shape, cfg) else AceReport(skip=True)
    return reports


def _aggregable(msg: Message, feature_shape, n_responses: int, target_ranks) -> bool:
    """Whether ``msg`` carries a sound block that fits the handshake's shapes
    at the round's target ranks, weighted by a positive sample count."""
    block = msg.payload.block if msg.kind == MessageKind.BLOCK_UPDATE else None
    return block is not None and (
        msg.payload.n_samples >= 1
        and block.fits(feature_shape, n_responses)
        and block.feature_ranks == tuple(target_ranks)
        and block.is_sound()
    )


def _run_round(transport, live, rnd: int, feature_shape, n_responses: int, cfg: FitConfig):
    """One full round; returns the aggregated block or None when no client sent one.

    A client that replies with an ERROR, a skip or an unsound report, a
    block of other shapes or a block that is not :meth:`~Block.is_sound` is
    excluded from this round's aggregation.
    """
    reports = _collect_reports(transport, live, rnd, feature_shape, cfg)
    active = {cid: r for cid, r in reports.items() if not r.skip}
    if not active:
        return None
    target, assignments = harmonize_ranks(active)
    for cid in active:
        transport.send(cid, Message(MessageKind.HYPER_ASSIGN, rnd, cid, assignments[cid]))
    updates = []
    for cid in sorted(active):
        msg = _recv_expect(transport, cid, MessageKind.BLOCK_UPDATE, rnd)
        if _aggregable(msg, feature_shape, n_responses, target):
            updates.append(msg.payload)
    if not updates:
        return None
    return aggregate_block(updates)


def federated_fit_over(transport, cfg: FitConfig) -> BttrModel:
    """Drive the hub protocol over an already-connected transport."""
    feature_shape, n_responses = _handshake(transport, cfg)
    blocks = []
    rnd = 0
    while rnd < cfg.max_blocks:
        rnd += 1
        retried = False
        while True:
            try:
                gb = _run_round(transport, _roster(transport), rnd, feature_shape, n_responses, cfg)
                break
            except ClientDropout as drop:
                if retried:
                    transport.drop(drop.client_id)
                retried = True
                for cid in transport.client_ids():
                    transport.drain(cid)
                    _send_or_drop(transport, cid, Message(
                        MessageKind.ERROR, rnd, cid,
                        ProtocolErrorInfo(code=int(ErrorCode.RETRY_ROUND), detail="round aborted"),
                    ))
        if gb is None:
            break
        blocks.append(gb)
        # the round is committed: a client that cannot take the block leaves;
        # one that fails while deflating is a dropout at the next report read
        for cid in transport.client_ids():
            _send_or_drop(transport, cid, Message(MessageKind.GLOBAL_BLOCK, rnd, cid, gb))

    for cid in transport.client_ids():
        _send_or_drop(transport, cid, Message(MessageKind.DONE, rnd, cid))

    if not blocks:
        raise FitError("no block could be extracted on any client")
    w, z = materialize_predictor(blocks, feature_shape)
    return BttrModel(blocks=blocks, w=w, z=z, input_shape=tuple(feature_shape))


def run_federated_fit(clients, cfg: FitConfig) -> BttrModel:
    """Train a global model across in-process client datasets over the loopback transport.

    ``clients`` is a sequence of (x, y) pairs sharing feature and response spaces.
    """
    if not clients:
        raise ValueError("need at least one client")
    sessions = {cid: ClientSession(cid, x, y) for cid, (x, y) in enumerate(clients)}
    return federated_fit_over(LoopbackTransport(sessions), cfg)


def run_socket_client(host: str, port: int, x, y,
                      round_timeout: float = DEFAULT_ROUND_TIMEOUT) -> ClientSession:
    """Connect to a hub, participate until the protocol completes and return the session."""
    import socket as _socket

    sock = _socket.create_connection((host, port))
    sock.setsockopt(_socket.IPPROTO_TCP, _socket.TCP_NODELAY, 1)
    channel = SocketChannel(sock)
    session = ClientSession(0, x, y)
    try:
        channel.send(session.join())
        while not session.done:
            msg = channel.recv(timeout=round_timeout)
            for out in session.handle(msg):
                channel.send(out)
    finally:
        channel.close()
    return session
