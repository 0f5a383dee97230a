"""Binary model container, identical bytes on every platform.

Layout (all integers little-endian):

    magic               8 bytes  b"FBTTRv02"
    order               u32      number of predictor modes incl. samples
    n_responses         u32
    n_blocks            u32
    input_shape         u32 * (order - 1)
    flags               u8       bit0 normalization, bit1 trace
    [normalization]     arrays x_mean, x_std (feature-shaped, flattened
                        row-major), y_mean, y_std
    blocks              per block, the fields of a bttr.Block, as a wire
                        block carries them: core tensor, score_core
                        tensor, u32 n_factors, factor matrices,
                        q matrix, d f64
    w matrix, z matrix
    [trace]             u32 count, then (e, f) f64 pairs

Encoding of arrays, matrices, tensors and blocks follows :mod:`fbttr.binio`.
A header without a feature mode or with an empty one, normalization
arrays or a block (see :meth:`fbttr.bttr.Block.fits`) that do not match
the feature shape and response count, a NaN or inf in ``w``, ``z`` or
the normalization arrays, and an ``x_std`` or ``y_std`` entry <= 0 make a
file invalid.  ``w`` and ``z`` are stored although
:func:`fbttr.bttr.materialize_predictor` derives them from the blocks: on
an 8-block rank-(10,10,10) model over 32x16x20 features, deriving them
takes about 4 ms and parsing them about 0.6 ms.
Files of other versions, ``FBTTRv01`` included, are rejected.
"""

from __future__ import annotations

from math import prod

import numpy as np

from .binio import CodecError, Reader, Writer
from .bttr import Block, BttrModel, NormStats

MAGIC = b"FBTTRv02"

__all__ = ["MAGIC", "ModelFormatError", "model_to_bytes", "model_from_bytes", "save_model", "load_model"]


class ModelFormatError(ValueError):
    pass


def model_to_bytes(model: BttrModel) -> bytes:
    w = Writer()
    w.raw(MAGIC)
    order = len(model.input_shape) + 1
    w.u32(order)
    w.u32(model.n_responses)
    w.u32(model.n_blocks)
    for s in model.input_shape:
        w.u32(s)
    flags = (1 if model.normalization is not None else 0) | (2 if model.trace is not None else 0)
    w.u8(flags)
    if model.normalization is not None:
        ns = model.normalization
        w.array(ns.x_mean)
        w.array(ns.x_std)
        w.array(ns.y_mean)
        w.array(ns.y_std)
    for b in model.blocks:
        w.block(b)
    w.matrix(model.w)
    w.matrix(model.z)
    if model.trace is not None:
        w.u32(len(model.trace))
        for e, f in model.trace:
            w.f64(e)
            w.f64(f)
    return w.getvalue()


def model_from_bytes(data: bytes) -> BttrModel:
    if data[:8] != MAGIC:
        raise ModelFormatError(f"bad magic {data[:8]!r}")
    r = Reader(data, pos=8)
    try:
        order = r.u32()
        n_responses = r.u32()
        n_blocks = r.u32()
        input_shape = tuple(r.u32() for _ in range(order - 1))
        if not input_shape or 0 in input_shape:
            raise ModelFormatError(f"order {order}, feature shape {input_shape}: a model needs features")
        flags = r.u8()
        normalization, stats = None, []
        if flags & 1:
            stats = [r.array() for _ in range(4)]
            if [a.size for a in stats] != [prod(input_shape)] * 2 + [n_responses] * 2:
                raise ModelFormatError("normalization does not fit the header")
            x_mean, x_std, y_mean, y_std = stats
            normalization = NormStats(x_mean.reshape(input_shape), x_std.reshape(input_shape), y_mean, y_std)
        blocks = [Block(*r.block()) for _ in range(n_blocks)]
        w = r.matrix()
        z = r.matrix()
        trace = None
        if flags & 2:
            count = r.u32()
            trace = [(r.f64(), r.f64()) for _ in range(count)]
    except CodecError as e:
        raise ModelFormatError(str(e)) from e
    if not r.exhausted():
        raise ModelFormatError(f"{len(data) - r.pos} trailing bytes")
    if w.shape != (prod(input_shape), n_blocks) or z.shape != (n_blocks, n_responses):
        raise ModelFormatError(f"W {w.shape} or Z {z.shape} does not fit the header")
    if not all(np.isfinite(a).all() for a in [w, z] + stats):
        raise ModelFormatError("W, Z or the normalization holds NaN or inf")
    if stats and not all((a > 0).all() for a in stats[1::2]):
        raise ModelFormatError("the normalization holds a standard deviation <= 0")
    for k, b in enumerate(blocks, 1):
        if not b.fits(input_shape, n_responses):
            raise ModelFormatError(f"block {k} does not fit the header")
    return BttrModel(blocks=blocks, w=w, z=z, input_shape=input_shape,
                     normalization=normalization, trace=trace)


def save_model(model: BttrModel, path) -> None:
    with open(path, "wb") as fh:
        fh.write(model_to_bytes(model))


def load_model(path) -> BttrModel:
    with open(path, "rb") as fh:
        return model_from_bytes(fh.read())
