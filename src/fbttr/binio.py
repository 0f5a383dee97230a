"""Little-endian binary primitives shared by the model container and the wire codec.

Every f64 array is preceded by a u32 element count; tensors carry a u32
order and one u32 per extent before the data, matrices a u32 row and
column count.  Array data is row-major float64.

A block is the sequence core tensor, score_core tensor, u32 factor count,
factor matrices, q matrix, d f64.  ``Writer.block``/``Reader.block`` are
its only encoder and decoder, so a model file and a wire frame hold the
same bytes for the same block.
"""

from __future__ import annotations

import struct
from math import prod

import numpy as np

__all__ = ["Writer", "Reader", "CodecError"]


class CodecError(ValueError):
    """Bytes that are no valid encoding: truncated, inconsistent or not UTF-8."""


class Writer:
    def __init__(self):
        self.parts = []

    def raw(self, data: bytes):
        self.parts.append(data)

    def u8(self, v):
        self.parts.append(struct.pack("<B", v))

    def u32(self, v):
        self.parts.append(struct.pack("<I", v))

    def f64(self, v):
        self.parts.append(struct.pack("<d", float(v)))

    def string(self, s: str):
        data = s.encode("utf-8")
        self.u32(len(data))
        self.parts.append(data)

    def array(self, a):
        a = np.ascontiguousarray(a, dtype="<f8")
        self.u32(a.size)
        self.parts.append(a.tobytes())

    def matrix(self, m):
        self.u32(m.shape[0])
        self.u32(m.shape[1])
        self.array(m)

    def tensor(self, t):
        self.u32(t.ndim)
        for s in t.shape:
            self.u32(s)
        self.array(t)

    def block(self, b):
        """Write ``b.core, b.score_core, b.factors, b.q, b.d``."""
        self.tensor(b.core)
        self.tensor(b.score_core)
        self.u32(len(b.factors))
        for f in b.factors:
            self.matrix(f)
        self.matrix(b.q)
        self.f64(b.d)

    def getvalue(self) -> bytes:
        return b"".join(self.parts)


class Reader:
    def __init__(self, data: bytes, pos: int = 0):
        self.data = data
        self.pos = pos

    def take(self, n: int) -> bytes:
        if self.pos + n > len(self.data):
            raise CodecError("truncated data")
        out = self.data[self.pos:self.pos + n]
        self.pos += n
        return out

    def u8(self) -> int:
        return struct.unpack("<B", self.take(1))[0]

    def u32(self) -> int:
        return struct.unpack("<I", self.take(4))[0]

    def f64(self) -> float:
        return struct.unpack("<d", self.take(8))[0]

    def string(self) -> str:
        data = self.take(self.u32())
        try:
            return data.decode("utf-8")
        except UnicodeDecodeError as e:
            raise CodecError(f"string is not UTF-8: {e.reason}") from e

    def array(self) -> np.ndarray:
        n = self.u32()
        return np.frombuffer(self.take(8 * n), dtype="<f8").astype(np.float64)

    def matrix(self) -> np.ndarray:
        rows, cols = self.u32(), self.u32()
        a = self.array()
        if a.size != rows * cols:
            raise CodecError("matrix size mismatch")
        return a.reshape(rows, cols)

    def tensor(self) -> np.ndarray:
        shape = tuple(self.u32() for _ in range(self.u32()))
        a = self.array()
        if a.size != prod(shape):
            raise CodecError("tensor size mismatch")
        try:
            return a.reshape(shape)
        except ValueError as e:  # an empty tensor whose other extents overflow
            raise CodecError(str(e)) from e

    def block(self) -> tuple:
        """Read ``(core, score_core, factors, q, d)``, the fields of :class:`fbttr.bttr.Block`."""
        core = self.tensor()
        score_core = self.tensor()
        factors = [self.matrix() for _ in range(self.u32())]
        return core, score_core, factors, self.matrix(), self.f64()

    def exhausted(self) -> bool:
        return self.pos == len(self.data)
