"""Wire protocol for federated training.

Frame layout: 4-byte magic ``FBTP``, 1-byte version (0x04), 1-byte message
kind, 4-byte little-endian payload length, then the payload.  Every
payload starts with u32 round and u32 client id; the remaining fields are
kind-specific, with shapes always preceding data and every f64 array
preceded by a 4-byte element count.  Each kind has one layout, and
every kind but ``ERROR`` (a u32 code and a UTF-8 detail) travels one way.

A client opens with ``JOIN``, its feature shape and response count.  The
hub's ``HELLO`` is the whole :class:`~fbttr.bttr.FitConfig`: u32
max_blocks, f64 epsilon, u32 rank_cap, then the SNR and tau grids as f64
arrays.  ``ACE_REPORT`` is a u8 skip flag and the client's feature ranks;
``HYPER_ASSIGN`` is the round's target ranks.  ``BLOCK_UPDATE`` is a u8
skip flag, the u32 sample count and, unless skipped, a block;
``GLOBAL_BLOCK`` is a block.  Both hold a :class:`~fbttr.bttr.Block` in the
layout of :meth:`fbttr.binio.Writer.block`, the same bytes a model file
stores.  ``DONE`` carries nothing after the round and client id.  A
client acknowledges a GLOBAL_BLOCK with its next round's ACE_REPORT, so
no message says that it deflated.

A payload field exists only if its receiver reads it.  Clients send ranks,
block parameters (cores, factor matrices, response loadings, scalar
coefficients) and sample counts; a client's (SNR, tau), BIC and residual
norms never leave it, and neither do raw data tensors, residuals or
per-sample score vectors.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import IntEnum
from typing import Optional

from .binio import CodecError, Reader, Writer
from .bttr import Block, FitConfig
from .sparse_tucker import HyperGrid

MAGIC = b"FBTP"
VERSION = 4
HEADER_LEN = 10

__all__ = [
    "MAGIC",
    "VERSION",
    "HEADER_LEN",
    "WireError",
    "MessageKind",
    "ErrorCode",
    "Join",
    "AceReport",
    "HyperAssign",
    "BlockUpdate",
    "ProtocolErrorInfo",
    "Message",
    "encode_message",
    "decode_message",
    "frame_length",
]


class WireError(ValueError):
    pass


class MessageKind(IntEnum):
    HELLO = 1
    ACE_REPORT = 2
    HYPER_ASSIGN = 3
    BLOCK_UPDATE = 4
    GLOBAL_BLOCK = 5
    # 6 is retired (version 3's DEFLATE_ACK) and not to be reused
    DONE = 7
    ERROR = 8
    JOIN = 9


class ErrorCode(IntEnum):
    RETRY_ROUND = 1
    DECOMPOSITION_FAILED = 2
    PROTOCOL_VIOLATION = 3
    ABORT = 4


@dataclass
class Join:
    """A client's roster entry: its feature shape and response count."""

    feature_shape: tuple
    n_responses: int


@dataclass
class AceReport:
    skip: bool
    ranks: tuple = ()


@dataclass
class HyperAssign:
    target_ranks: tuple


@dataclass
class BlockUpdate:
    """A client's local block and the sample count that weights it; no block is a skip."""

    n_samples: int
    block: Optional[Block] = None

    @property
    def skip(self) -> bool:
        return self.block is None


@dataclass
class ProtocolErrorInfo:
    code: int
    detail: str


@dataclass
class Message:
    kind: MessageKind
    round: int
    client_id: int
    payload: object = None


def _write_config(w: Writer, cfg: FitConfig) -> None:
    w.u32(cfg.max_blocks)
    w.f64(cfg.epsilon)
    w.u32(cfg.rank_cap)
    w.array(cfg.grid.snr_values)
    w.array(cfg.grid.tau_values)


def _read_config(r: Reader) -> FitConfig:
    max_blocks, epsilon, rank_cap = r.u32(), r.f64(), r.u32()
    snr_values, tau_values = r.array(), r.array()
    try:
        return FitConfig(max_blocks=max_blocks, epsilon=epsilon, rank_cap=rank_cap,
                         grid=HyperGrid(snr_values=snr_values, tau_values=tau_values))
    except ValueError as e:
        raise WireError(f"invalid training configuration: {e}") from e


def _write_payload(w: Writer, msg: Message) -> None:
    p = msg.payload
    k = msg.kind
    if k == MessageKind.JOIN:
        w.u32(len(p.feature_shape))
        for s in p.feature_shape:
            w.u32(s)
        w.u32(p.n_responses)
    elif k == MessageKind.HELLO:
        _write_config(w, p)
    elif k == MessageKind.ACE_REPORT:
        w.u8(1 if p.skip else 0)
        w.u32(len(p.ranks))
        for r in p.ranks:
            w.u32(r)
    elif k == MessageKind.HYPER_ASSIGN:
        w.u32(len(p.target_ranks))
        for r in p.target_ranks:
            w.u32(r)
    elif k == MessageKind.BLOCK_UPDATE:
        w.u8(1 if p.skip else 0)
        w.u32(p.n_samples)
        if not p.skip:
            w.block(p.block)
    elif k == MessageKind.GLOBAL_BLOCK:
        w.block(p)
    elif k == MessageKind.DONE:
        pass
    elif k == MessageKind.ERROR:
        w.u32(p.code)
        w.string(p.detail)
    else:
        raise WireError(f"unknown message kind {k}")


def _read_payload(r: Reader, kind: MessageKind):
    if kind == MessageKind.JOIN:
        return Join(tuple(r.u32() for _ in range(r.u32())), r.u32())
    if kind == MessageKind.HELLO:
        return _read_config(r)
    if kind == MessageKind.ACE_REPORT:
        skip = bool(r.u8())
        return AceReport(skip, tuple(r.u32() for _ in range(r.u32())))
    if kind == MessageKind.HYPER_ASSIGN:
        return HyperAssign(tuple(r.u32() for _ in range(r.u32())))
    if kind == MessageKind.BLOCK_UPDATE:
        skip, n_samples = r.u8(), r.u32()
        return BlockUpdate(n_samples, None if skip else Block(*r.block()))
    if kind == MessageKind.GLOBAL_BLOCK:
        return Block(*r.block())
    if kind == MessageKind.DONE:
        return None
    if kind == MessageKind.ERROR:
        return ProtocolErrorInfo(r.u32(), r.string())
    raise WireError(f"unknown message kind {kind}")


def encode_message(msg: Message) -> bytes:
    body = Writer()
    body.u32(msg.round)
    body.u32(msg.client_id)
    _write_payload(body, msg)
    payload = body.getvalue()
    head = Writer()
    head.raw(MAGIC)
    head.u8(VERSION)
    head.u8(int(msg.kind))
    head.u32(len(payload))
    return head.getvalue() + payload


def frame_length(header: bytes) -> int:
    """Total frame length implied by a 10-byte frame header."""
    if len(header) < HEADER_LEN:
        raise WireError("short header")
    if header[:4] != MAGIC:
        raise WireError(f"bad magic {header[:4]!r}")
    if header[4] != VERSION:
        raise WireError(f"unsupported version {header[4]}")
    return HEADER_LEN + int.from_bytes(header[6:10], "little")


def decode_message(data: bytes) -> Message:
    total = frame_length(data[:HEADER_LEN])
    if total != len(data):
        raise WireError(f"frame length mismatch: header says {total}, have {len(data)}")
    try:
        kind = MessageKind(data[5])
    except ValueError as e:
        raise WireError(f"unknown message kind {data[5]}") from e
    r = Reader(data, pos=HEADER_LEN)
    try:
        rnd = r.u32()
        client_id = r.u32()
        payload = _read_payload(r, kind)
    except CodecError as e:
        raise WireError(str(e)) from e
    if not r.exhausted():
        raise WireError("trailing bytes in frame")
    return Message(kind=kind, round=rnd, client_id=client_id, payload=payload)
