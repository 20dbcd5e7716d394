"""Binary checkpoint format with bit-exact round-tripping.

Layout (all integers little-endian, floats IEEE-754 binary64 little-endian):

    magic            4 bytes, b"NADX"
    version          u32 (currently 2)
    config_len       u32, then that many bytes of UTF-8 config text
    num_entities     u32
    num_rel_base     u32
    epoch            u32
    adam_steps       u32
    best_valid_mrr   f64
    rng_len          u32, then that many bytes of JSON rng state
    tensor_count     u32
    per tensor:      name_len u16, name UTF-8, ndim u32, shape u32*ndim,
                     raw f64 data (row-major)

Tensors cover the model parameters plus the optimizer's moment buffers
(named adam.m.* / adam.v.*). Loading reproduces every array bitwise.
"""

import json
import math
import struct

import numpy as np

from .data import Vocabulary
from .errors import CheckpointFormatError, CheckpointVersionError

MAGIC = b"NADX"
VERSION = 2


def _write_tensor(fh, name, arr):
    """One tensor record: the small header, then the array's buffer as is,
    so a multi-MB tensor is never copied to be written."""
    encoded = name.encode("utf-8")
    arr = np.ascontiguousarray(arr, dtype="<f8")
    fh.write(struct.pack(f"<H{len(encoded)}sI{arr.ndim}I", len(encoded),
                         encoded, arr.ndim, *arr.shape))
    fh.write(arr)


def save(path, params, optimizer, config_text, vocab, epoch, best_valid_mrr, rng):
    """Write parameters, optimizer state, config echo, and rng state."""
    arrays = {name: t.data for name, t in params.tensors.items()}
    arrays.update(optimizer.state_arrays())
    rng_blob = json.dumps(rng.bit_generator.state).encode("utf-8")
    config_blob = config_text.encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(MAGIC + struct.pack("<II", VERSION, len(config_blob)))
        fh.write(config_blob)
        fh.write(struct.pack("<IIIIdI", vocab.num_entities, vocab.num_relations_base,
                             epoch, optimizer.step_count, best_valid_mrr, len(rng_blob)))
        fh.write(rng_blob)
        fh.write(struct.pack("<I", len(arrays)))
        for name, arr in arrays.items():
            _write_tensor(fh, name, arr)


class _Reader:
    def __init__(self, blob):
        self.blob = blob
        self.off = 0

    def take(self, n):
        if self.off + n > len(self.blob):
            raise CheckpointFormatError("checkpoint truncated")
        out = self.blob[self.off : self.off + n]
        self.off += n
        return out

    def unpack(self, fmt):
        return struct.unpack(fmt, self.take(struct.calcsize(fmt)))

    def text(self, n, what):
        try:
            return self.take(n).decode("utf-8")
        except UnicodeDecodeError as err:
            raise CheckpointFormatError(f"{what} is not UTF-8: {err}") from None

    def array(self):
        """One tensor's shape and data; sizes are checked against the bytes
        left before anything is allocated for them."""
        (ndim,) = self.unpack("<I")
        if 4 * ndim > len(self.blob) - self.off:
            raise CheckpointFormatError(f"tensor rank {ndim} exceeds the file")
        shape = struct.unpack(f"<{ndim}I", self.take(4 * ndim))
        data = np.frombuffer(self.take(8 * math.prod(shape)), dtype="<f8")
        # frombuffer views are read-only; training mutates these in place
        return np.array(data.reshape(shape), dtype=np.float64, order="C")


def load(path):
    """Read a checkpoint into a plain dict (arrays keyed by tensor name)."""
    with open(path, "rb") as fh:
        blob = fh.read()
    r = _Reader(blob)
    if r.take(4) != MAGIC:
        raise CheckpointFormatError(f"{path}: bad magic, not a checkpoint")
    version, config_len = r.unpack("<II")
    if version != VERSION:
        raise CheckpointVersionError(f"{path}: format version {version}, "
                                     f"this build reads {VERSION}")
    config_text = r.text(config_len, "config")
    (num_entities, num_rel_base, epoch, adam_steps, best_valid_mrr,
     rng_len) = r.unpack("<IIIIdI")
    try:
        rng_state = json.loads(r.text(rng_len, "rng state"))
    except (json.JSONDecodeError, RecursionError) as err:
        raise CheckpointFormatError(f"{path}: rng state is not JSON: {err}") from None
    (tensor_count,) = r.unpack("<I")
    arrays = {}
    for _ in range(tensor_count):
        (name_len,) = r.unpack("<H")
        name = r.text(name_len, "tensor name")
        arrays[name] = r.array()
    if r.off != len(blob):
        raise CheckpointFormatError(f"{path}: {len(blob) - r.off} trailing bytes")
    return {
        "config_text": config_text,
        "vocab": Vocabulary(num_entities, num_rel_base),
        "epoch": epoch,
        "adam_steps": adam_steps,
        "best_valid_mrr": best_valid_mrr,
        "rng_state": rng_state,
        "arrays": arrays,
    }


def _checked(loaded, name, shape):
    """The loaded array ``name``, which must exist with ``shape``."""
    arr = loaded["arrays"].get(name)
    if arr is None:
        raise CheckpointFormatError(f"checkpoint is missing tensor '{name}'")
    if arr.shape != shape:
        raise CheckpointFormatError(
            f"tensor '{name}' shape {arr.shape} != expected {shape}")
    return arr


def restore_params(loaded, params):
    """Copy model arrays from a loaded checkpoint into fresh parameters."""
    for name, t in params.tensors.items():
        t.data = np.array(_checked(loaded, name, t.data.shape),
                          dtype=np.float64, order="C")


def restore_optimizer(loaded, optimizer):
    """Restore Adam's step count and moments, each checked like a parameter."""
    state = {name: _checked(loaded, name, arr.shape)
             for name, arr in optimizer.state_arrays().items()}
    optimizer.load_state_arrays(state, loaded["adam_steps"])


def restore_rng(loaded):
    rng = np.random.default_rng(0)
    try:
        rng.bit_generator.state = loaded["rng_state"]
    except (KeyError, TypeError, ValueError) as err:
        raise CheckpointFormatError(f"rng state is not a PCG64 state: {err!r}") from None
    return rng
