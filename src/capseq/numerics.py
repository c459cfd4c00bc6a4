"""Minimal dense numeric kernel for the sequence models.

Everything is 64-bit; the gradient checks of the test suite need the
precision and the corpus sizes here never justify float32. Gradients are
hand-derived per model, so this module only supplies the sigmoid, the
softmax, a left-to-right sum, SGD with global-norm clipping, seeded init
and a flat binary snapshot format for parameter dictionaries.
"""

from __future__ import annotations

import struct
from typing import Mapping

import numpy as np

Params = dict[str, np.ndarray]


class NumericError(RuntimeError):
    """Raised on NaN/Inf in places they must never appear, and on a
    malformed parameter snapshot."""


def sigmoid(x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Logistic function without branches: 1/(1+exp(-x)) for x >= 0 and
    exp(x)/(1+exp(x)) below, the same floating-point operations as a
    masked two-branch form. ``exp`` only ever sees -|x|, so it cannot
    overflow. The numerator is 1 or exp(-|x|) as ``np.fmax`` picks it:
    exp(-|x|) <= 1, and a NaN of x stays NaN through the denominator.
    ``out`` may be ``x`` itself."""
    positive = x >= 0
    e = np.abs(x, out=out)
    np.negative(e, out=e)
    np.exp(e, out=e)
    numerator = np.fmax(e, positive)
    e += 1.0
    return np.divide(numerator, e, out=e)


def softmax(logits: np.ndarray) -> np.ndarray:
    """Stable softmax over the last axis; entries > 0 and each row sums to 1."""
    logits = np.asarray(logits, dtype=np.float64)
    ex = logits - logits.max(axis=-1, keepdims=True)
    np.exp(ex, out=ex)
    ex /= ex.sum(axis=-1, keepdims=True)
    return ex


def sequential_sum(values) -> float:
    """``values`` added one at a time, left to right, from 0.0: the same
    bits on every Python version (the builtin ``sum`` over floats
    compensates from 3.12 on) and every NumPy (``np.sum`` adds pairwise)."""
    total = 0.0
    for value in values:
        total += value
    return total


def sgd_step(params: Params, grads: Mapping[str, np.ndarray], learning_rate: float,
             clip_threshold: float) -> Params:
    """Rescale ``grads`` in place so their global L2 norm is at most
    ``clip_threshold`` (idempotent up to rounding), then update ``params``
    in place: p <- p - learning_rate * g."""
    total = 0.0
    for name, g in grads.items():
        if not np.all(np.isfinite(g)):
            raise NumericError(f"non-finite gradient in parameter block {name!r}")
        total += float(np.sum(g * g))
    norm = float(np.sqrt(total))
    for name, g in grads.items():
        if norm > clip_threshold:
            g *= clip_threshold / norm
        params[name] -= learning_rate * g
    return params


def xavier_uniform(rng: np.random.Generator, shape: tuple[int, ...]) -> np.ndarray:
    """Glorot uniform init; fan counts from the trailing two dims."""
    fan_out, fan_in = shape[-2], shape[-1]
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=shape)


# --- flat binary parameter snapshots ---------------------------------------
#
# layout: magic b"CSQPARAM" | u16 version | u32 block count |
#         per block: u16 name length, utf-8 name, u8 ndim, u32 dims... |
#         all block data as little-endian float64 in header order.

SNAPSHOT_MAGIC = b"CSQPARAM"
SNAPSHOT_VERSION = 1


def save_params(path, params: Mapping[str, np.ndarray]) -> None:
    names = sorted(params)
    with open(path, "wb") as fh:
        fh.write(SNAPSHOT_MAGIC)
        fh.write(struct.pack("<HI", SNAPSHOT_VERSION, len(names)))
        for name in names:
            raw = name.encode("utf-8")
            arr = params[name]
            fh.write(struct.pack("<H", len(raw)))
            fh.write(raw)
            fh.write(struct.pack("<B", arr.ndim))
            fh.write(struct.pack(f"<{arr.ndim}I", *arr.shape))
        for name in names:
            fh.write(np.ascontiguousarray(params[name], dtype="<f8").tobytes())


def load_params(path) -> Params:
    with open(path, "rb") as fh:

        def read(n: int) -> bytes:
            data = fh.read(n)
            if len(data) != n:
                raise NumericError(f"{path}: parameter snapshot is truncated")
            return data

        if fh.read(len(SNAPSHOT_MAGIC)) != SNAPSHOT_MAGIC:
            raise NumericError(f"{path}: not a parameter snapshot")
        version, count = struct.unpack("<HI", read(6))
        if version != SNAPSHOT_VERSION:
            raise NumericError(f"{path}: unsupported snapshot version {version}")
        headers = []
        for _ in range(count):
            (name_len,) = struct.unpack("<H", read(2))
            name = read(name_len).decode("utf-8")
            (ndim,) = struct.unpack("<B", read(1))
            shape = struct.unpack(f"<{ndim}I", read(4 * ndim)) if ndim else ()
            headers.append((name, shape))
        params: Params = {}
        for name, shape in headers:
            n = int(np.prod(shape)) if shape else 1
            data = np.frombuffer(read(8 * n), dtype="<f8").astype(np.float64)
            params[name] = data.reshape(shape)
    return params
