import copy
import hashlib
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fbttr.binio import Writer
from fbttr.bttr import Block, FitConfig
from fbttr.federated import ClientSession
from fbttr.sparse_tucker import HyperGrid
from fbttr.transport import ProtocolError
from fbttr.wire import (
    HEADER_LEN,
    MAGIC,
    VERSION,
    AceReport,
    BlockUpdate,
    HyperAssign,
    Join,
    Message,
    MessageKind,
    ProtocolErrorInfo,
    WireError,
    decode_message,
    encode_message,
    frame_length,
)


def sample_messages():
    rng = np.random.default_rng(0)
    core = rng.normal(size=(1, 2, 2))
    score = rng.normal(size=(1, 2, 2))
    factors = [rng.normal(size=(5, 2)), rng.normal(size=(4, 2))]
    q = rng.normal(size=(2, 1))
    return [
        Message(MessageKind.HELLO, 0, 3, FitConfig(
            max_blocks=4, epsilon=1e-6, rank_cap=3,
            grid=HyperGrid(snr_values=(1.0, 5.0), tau_values=(95.0, 100.0)))),
        Message(MessageKind.ACE_REPORT, 1, 3, AceReport(skip=False, ranks=(2, 2))),
        Message(MessageKind.ACE_REPORT, 2, 1, AceReport(skip=True)),
        Message(MessageKind.HYPER_ASSIGN, 1, 3, HyperAssign(target_ranks=(2, 1))),
        Message(MessageKind.BLOCK_UPDATE, 1, 3, BlockUpdate(
            n_samples=23, block=Block(core, score, factors, q, 1.5))),
        Message(MessageKind.BLOCK_UPDATE, 2, 3, BlockUpdate(n_samples=23)),
        Message(MessageKind.GLOBAL_BLOCK, 1, 3, Block(core, score, factors, q, -0.75)),
        Message(MessageKind.DONE, 4, 3),
        Message(MessageKind.ERROR, 2, 3, ProtocolErrorInfo(code=1, detail="round aborted")),
        Message(MessageKind.JOIN, 0, 3, Join(feature_shape=(5, 4), n_responses=2)),
    ]


@pytest.mark.parametrize("msg", sample_messages(), ids=lambda m: f"{m.kind.name}-{m.round}")
def test_round_trip_byte_identical(msg):
    frame = encode_message(msg)
    decoded = decode_message(frame)
    assert decoded.kind == msg.kind
    assert decoded.round == msg.round
    assert decoded.client_id == msg.client_id
    # a second encode of the decoded message must reproduce the same bytes
    assert encode_message(decoded) == frame
    if msg.kind not in (MessageKind.BLOCK_UPDATE, MessageKind.GLOBAL_BLOCK):
        assert decoded.payload == msg.payload


# SHA-256 of the BLOCK_UPDATE and GLOBAL_BLOCK payloads of sample_messages()
# as wire version 1 encoded them; versions 2 to 4 changed only other kinds
BLOCK_PAYLOAD_SHA256 = {
    ("BLOCK_UPDATE", 1): "56a6a33bb7f622457d6dd0a453762f08c4fd5000dbed77473b8ac3b5f19a0aee",
    ("BLOCK_UPDATE", 2): "b4282ad55f30fd1c760106977b5216fc837a44cf6cdeb6dfc98a71940db53b8a",
    ("GLOBAL_BLOCK", 1): "6ec043f52d1e9903d1da53879bb1f049dd083ccadc12eba208b0106b113d792a",
}


def test_block_payload_bytes_unchanged():
    got = {
        (m.kind.name, m.round): hashlib.sha256(encode_message(m)[HEADER_LEN:]).hexdigest()
        for m in sample_messages()
        if m.kind in (MessageKind.BLOCK_UPDATE, MessageKind.GLOBAL_BLOCK)
    }
    assert got == BLOCK_PAYLOAD_SHA256


def test_frame_header_and_length():
    msg = sample_messages()[0]
    frame = encode_message(msg)
    assert frame[:4] == MAGIC
    assert frame[4] == VERSION == 4
    assert frame_length(frame[:HEADER_LEN]) == len(frame)


def test_decode_rejects_bad_frames():
    msg = sample_messages()[1]
    frame = encode_message(msg)
    with pytest.raises(WireError):
        decode_message(b"XXXX" + frame[4:])
    with pytest.raises(WireError):
        decode_message(frame[:9])
    bad_version = bytearray(frame)
    bad_version[4] = 99
    with pytest.raises(WireError):
        decode_message(bytes(bad_version))
    bad_kind = bytearray(frame)
    bad_kind[5] = 200
    with pytest.raises(WireError):
        decode_message(bytes(bad_kind))
    with pytest.raises(WireError):
        decode_message(frame + b"\x00")
    # a HELLO whose config FitConfig rejects: rank_cap 3 -> 0; rank_cap follows
    # round, client id, max_blocks and epsilon
    bad_cap = bytearray(encode_message(sample_messages()[0]))
    cap_at = HEADER_LEN + 3 * 4 + 8
    assert bad_cap[cap_at:cap_at + 4] == (3).to_bytes(4, "little")
    bad_cap[cap_at] = 0
    with pytest.raises(WireError):
        decode_message(bytes(bad_cap))
    # an ERROR whose detail ends in a byte that is not UTF-8
    error = encode_message(Message(MessageKind.ERROR, 2, 3, ProtocolErrorInfo(code=1, detail="bad!")))
    with pytest.raises(WireError, match="UTF-8"):
        decode_message(error[:-1] + b"\xff")
    # a GLOBAL_BLOCK whose empty core has extents (0, 2**32 - 1, 2**32 - 1, 2**32 - 1)
    w = Writer()
    for v in (1, 3, 4, 0, *[2**32 - 1] * 3, 0):  # round, client id, order, extents, count
        w.u32(v)
    body = w.getvalue()
    head = MAGIC + bytes([VERSION, MessageKind.GLOBAL_BLOCK]) + len(body).to_bytes(4, "little")
    with pytest.raises(WireError):
        decode_message(head + body)


def test_hello_with_out_of_range_tau_is_a_wire_error():
    # HyperGrid rejects tau > 100 on construction, so set it after
    hello = sample_messages()[0]
    hello.payload.grid.tau_values = (95.0, 150.0)
    with pytest.raises(WireError, match="tau_values"):
        decode_message(encode_message(hello))


def test_block_update_payload_field_inventory():
    # the update carries cores, factors, loading, coefficient and count only
    msg = sample_messages()[4]
    decoded = decode_message(encode_message(msg))
    p = decoded.payload
    assert set(vars(p)) == {"n_samples", "block"}
    assert p.skip is False
    b = p.block
    assert type(b) is Block
    assert set(vars(b)) == {"core", "score_core", "factors", "q", "d"}
    assert np.allclose(b.core, msg.payload.block.core)
    assert b.core.shape == (1, 2, 2)
    assert [f.shape for f in b.factors] == [(5, 2), (4, 2)]
    skipped = decode_message(encode_message(sample_messages()[5])).payload
    assert skipped.skip is True and skipped.block is None


@st.composite
def damaged(draw, data: bytes) -> bytes:
    """``data`` cut short, or with up to three bytes xor-ed by nonzero masks."""
    if draw(st.booleans()):
        return data[:draw(st.integers(0, len(data) - 1))]
    out = bytearray(data)
    for pos in draw(st.lists(st.integers(0, len(data) - 1), min_size=1, max_size=3)):
        out[pos] ^= draw(st.integers(1, 255))
    return bytes(out)


@pytest.mark.parametrize("msg", sample_messages(), ids=lambda m: f"{m.kind.name}-{m.round}")
@settings(max_examples=40, deadline=None, derandomize=True)
@given(mutation=st.data())
def test_damaged_frame_decodes_or_raises_wire_error(msg, mutation):
    # a damaged frame may still decode (a flip inside a float, say), but it
    # must raise nothing other than WireError
    frame = mutation.draw(damaged(encode_message(msg)))
    try:
        decode_message(frame)
    except WireError:
        pass


HUB_KINDS = (MessageKind.HELLO, MessageKind.HYPER_ASSIGN, MessageKind.GLOBAL_BLOCK,
             MessageKind.DONE, MessageKind.ERROR)


def _fresh_session() -> ClientSession:
    # client 3 with the feature shape and response count of sample_messages()
    rng = np.random.default_rng(1)
    return ClientSession(3, rng.normal(size=(12, 5, 4)), rng.normal(size=(12, 2)))


@pytest.fixture(scope="module")
def greeted():
    # max_blocks=1: a handled round-1 GLOBAL_BLOCK starts no further extraction
    hello = sample_messages()[0]
    hello.payload = replace(hello.payload, max_blocks=1)
    session = _fresh_session()
    session.handle(hello)
    return session


def sound_global_block() -> Message:
    """A round-1 GLOBAL_BLOCK that :meth:`Block.is_sound` accepts, unlike
    sample_messages()'s: orthonormal factors and a unit ``q``, so a damaged
    copy whose damage keeps it sound reaches the client's deflation."""
    rng = np.random.default_rng(2)
    factors = [np.linalg.qr(rng.normal(size=(rows, 2)))[0] for rows in (5, 4)]
    q = rng.normal(size=(2, 1))
    block = Block(rng.normal(size=(1, 2, 2)), rng.normal(size=(1, 2, 2)), factors, q / np.linalg.norm(q), 0.5)
    return Message(MessageKind.GLOBAL_BLOCK, 1, 3, block)


def test_the_sound_global_block_is_deflated_by(greeted):
    session = copy.deepcopy(greeted)
    assert session.handle(sound_global_block()) == []
    assert len(session.residuals.trace) == 2


@pytest.mark.parametrize("msg", [m for m in sample_messages() if m.kind in HUB_KINDS]
                         + [pytest.param(sound_global_block(), id="GLOBAL_BLOCK-sound")],
                         ids=lambda m: f"{m.kind.name}-{m.round}")
@settings(max_examples=40, deadline=None, derandomize=True)
@given(mutation=st.data())
def test_client_survives_a_damaged_hub_frame(greeted, msg, mutation):
    # a hub frame that still decodes after damage reaches a session that has
    # taken a good HELLO (a fresh one for HELLO itself); the session may
    # refuse it, but only with ProtocolError
    frame = mutation.draw(damaged(encode_message(msg)))
    try:
        decoded = decode_message(frame)
    except WireError:
        return
    session = _fresh_session() if msg.kind == MessageKind.HELLO else copy.deepcopy(greeted)
    try:
        session.handle(decoded)
    except ProtocolError:
        pass
