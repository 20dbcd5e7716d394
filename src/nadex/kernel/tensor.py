"""Dense float64 tensors with taped reverse-mode differentiation.

Every tensor wraps a C-contiguous float64 ndarray. Operations execute
eagerly through numpy and, when a tape is active and an input requires
gradients, append a backward closure to that tape. Execution order is a
topological order of the graph, so ``backward`` simply replays the tape in
reverse, visiting each node exactly once. A node's gradient is released as
soon as its closure has consumed it, so after ``backward`` only leaves
(parameters and constants, which are never tape outputs) hold ``.grad``.

The tape lives in thread-local state: training owns one tape on one thread,
while gradient-free scoring can run on worker threads under ``no_grad`` (or
with private scratch tapes) without touching it.
"""

import threading
from contextlib import contextmanager

import numpy as np

from ..errors import (
    ConfigurationError,
    ContractError,
    DomainError,
    ShapeMismatchError,
    UnknownIdError,
)

LAYER_NORM_VAR_FLOOR = 1e-5
MASK_NEG = -1e30  # exp() underflows to exactly 0.0, keeping masked keys inert

_STATE = threading.local()


class Tape:
    """Ordered record of executed operations for one backward pass."""

    __slots__ = ("_nodes",)

    def __init__(self):
        self._nodes = []

    def __len__(self):
        return len(self._nodes)

    def record(self, out, backward_fn):
        self._nodes.append((out, backward_fn))

    def clear(self):
        """Release every recorded node (and the closures holding inputs)."""
        self._nodes.clear()

    @contextmanager
    def active(self):
        prev = getattr(_STATE, "tape", None)
        _STATE.tape = self
        try:
            yield self
        finally:
            _STATE.tape = prev


def active_tape():
    return getattr(_STATE, "tape", None)


@contextmanager
def no_grad():
    """Disable recording on this thread for the duration of the block."""
    prev = getattr(_STATE, "tape", None)
    _STATE.tape = None
    try:
        yield
    finally:
        _STATE.tape = prev


class Tensor:
    """Row-major float64 array plus gradient slot."""

    __slots__ = ("data", "requires_grad", "grad")

    def __init__(self, data, requires_grad=False):
        if isinstance(data, Tensor):
            data = data.data
        self.data = np.ascontiguousarray(data, dtype=np.float64)
        self.requires_grad = bool(requires_grad)
        self.grad = None

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    @property
    def size(self):
        return self.data.size

    def item(self):
        return float(self.data.reshape(-1)[0])

    def accumulate_grad(self, g):
        if self.grad is None:
            self.grad = np.zeros_like(self.data)
        self.grad += g

    def zero_grad(self):
        self.grad = None

    def backward(self):
        backward(self)

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"

    def __add__(self, other):
        return add(self, other)

    def __sub__(self, other):
        return sub(self, other)

    def __mul__(self, other):
        return mul(self, other)

    def __matmul__(self, other):
        return matmul(self, other)

    def __neg__(self):
        return scale(self, -1.0)


def as_tensor(x):
    return x if isinstance(x, Tensor) else Tensor(x)


def constant(array):
    """Off-graph tensor (never records, never receives gradients)."""
    return Tensor(array, requires_grad=False)


def record_op(out, parents, backward_fn):
    """Attach a custom backward closure to the active tape (public hook)."""
    tape = active_tape()
    if tape is not None and any(p.requires_grad for p in parents):
        out.requires_grad = True
        tape.record(out, backward_fn)
    return out


def _unbroadcast(g, shape):
    """Sum ``g`` down to ``shape`` after numpy broadcasting."""
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and g.shape[i] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g


def backward(loss):
    """Replay the active tape in reverse from a scalar loss, then clear it.

    Afterwards every requires_grad leaf reachable from ``loss`` holds
    dloss/dleaf in ``.grad`` (accumulated on top of any existing grad).
    Tape outputs hold ``None``: each node's grad is complete when its closure
    runs (every consumer sits later on the tape) and is dropped right after.
    """
    if loss.size != 1:
        raise ContractError(f"backward requires a scalar loss, got shape {loss.shape}")
    tape = active_tape()
    if tape is None:
        raise ContractError("backward called with no active tape")
    loss.accumulate_grad(np.ones_like(loss.data))
    for out, fn in reversed(tape._nodes):
        if out.grad is not None:
            fn(out.grad)
            out.grad = None
    tape.clear()


# ---------------------------------------------------------------------------
# arithmetic


def add(a, b):
    a, b = as_tensor(a), as_tensor(b)
    out = Tensor(a.data + b.data)

    def bwd(g):
        if a.requires_grad:
            a.accumulate_grad(_unbroadcast(g, a.shape))
        if b.requires_grad:
            b.accumulate_grad(_unbroadcast(g, b.shape))

    return record_op(out, (a, b), bwd)


def sub(a, b):
    a, b = as_tensor(a), as_tensor(b)
    out = Tensor(a.data - b.data)

    def bwd(g):
        if a.requires_grad:
            a.accumulate_grad(_unbroadcast(g, a.shape))
        if b.requires_grad:
            b.accumulate_grad(_unbroadcast(-g, b.shape))

    return record_op(out, (a, b), bwd)


def mul(a, b):
    a, b = as_tensor(a), as_tensor(b)
    out = Tensor(a.data * b.data)

    def bwd(g):
        if a.requires_grad:
            a.accumulate_grad(_unbroadcast(g * b.data, a.shape))
        if b.requires_grad:
            b.accumulate_grad(_unbroadcast(g * a.data, b.shape))

    return record_op(out, (a, b), bwd)


def scale(a, s):
    s = float(s)
    out = Tensor(a.data * s)

    def bwd(g):
        if a.requires_grad:
            a.accumulate_grad(g * s)

    return record_op(out, (a,), bwd)


def add_scalar(a, c):
    c = float(c)
    out = Tensor(a.data + c)

    def bwd(g):
        if a.requires_grad:
            a.accumulate_grad(g)

    return record_op(out, (a,), bwd)


def matmul(a, b):
    """Matrix product over the trailing two axes, batch dims broadcasting.

    A 2-d right operand (a weight) is applied as one GEMM over the left
    operand's leading dims flattened into rows; its gradient is then a single
    ``a2.T @ g2`` product instead of a stack of per-batch outer products.
    """
    if a.ndim < 2 or b.ndim < 2:
        raise ShapeMismatchError(
            f"matmul needs >=2-d operands, got {a.shape} x {b.shape}"
        )
    if a.shape[-1] != b.shape[-2]:
        raise ShapeMismatchError(
            f"matmul inner extents differ: {a.shape} x {b.shape}"
        )
    if b.ndim == 2:
        a2 = a.data.reshape(-1, a.shape[-1])
        out = Tensor((a2 @ b.data).reshape(a.shape[:-1] + (b.shape[1],)))

        def bwd(g):
            g2 = g.reshape(-1, b.shape[1])
            if a.requires_grad:
                a.accumulate_grad((g2 @ b.data.T).reshape(a.shape))
            if b.requires_grad:
                b.accumulate_grad(a2.T @ g2)

        return record_op(out, (a, b), bwd)

    out = Tensor(np.matmul(a.data, b.data))

    def bwd(g):
        if a.requires_grad:
            ga = np.matmul(g, np.swapaxes(b.data, -1, -2))
            a.accumulate_grad(_unbroadcast(ga, a.shape))
        if b.requires_grad:
            gb = np.matmul(np.swapaxes(a.data, -1, -2), g)
            b.accumulate_grad(_unbroadcast(gb, b.shape))

    return record_op(out, (a, b), bwd)


# ---------------------------------------------------------------------------
# elementwise and reductions


def sigmoid(x):
    d = x.data
    out_data = np.empty_like(d)
    pos = d >= 0
    out_data[pos] = 1.0 / (1.0 + np.exp(-d[pos]))
    ez = np.exp(d[~pos])
    out_data[~pos] = ez / (1.0 + ez)
    out = Tensor(out_data)

    def bwd(g):
        if x.requires_grad:
            x.accumulate_grad(g * out_data * (1.0 - out_data))

    return record_op(out, (x,), bwd)


def log(x):
    if np.any(x.data <= 0.0):
        raise DomainError("log requires strictly positive inputs; add an epsilon first")
    out = Tensor(np.log(x.data))

    def bwd(g):
        if x.requires_grad:
            x.accumulate_grad(g / x.data)

    return record_op(out, (x,), bwd)


def relu(x):
    mask = x.data > 0.0
    out = Tensor(np.where(mask, x.data, 0.0))

    def bwd(g):
        if x.requires_grad:
            x.accumulate_grad(g * mask)

    return record_op(out, (x,), bwd)


def sum(x, axis=None, keepdims=False):
    out = Tensor(x.data.sum(axis=axis, keepdims=keepdims))

    def bwd(g):
        if x.requires_grad:
            if axis is None:
                x.accumulate_grad(np.broadcast_to(g, x.shape))
            else:
                if not keepdims:
                    g = np.expand_dims(g, axis)
                x.accumulate_grad(np.broadcast_to(g, x.shape))

    return record_op(out, (x,), bwd)


def mean(x, axis=None, keepdims=False):
    if axis is None:
        count = x.size
    else:
        count = x.shape[axis]
    out = Tensor(x.data.mean(axis=axis, keepdims=keepdims))

    def bwd(g):
        if x.requires_grad:
            if axis is not None and not keepdims:
                g = np.expand_dims(g, axis)
            x.accumulate_grad(np.broadcast_to(g, x.shape) / count)

    return record_op(out, (x,), bwd)


def softmax(x, temperature=1.0, axis=-1):
    """Softmax of x/temperature along ``axis``, max-subtracted for stability."""
    if temperature <= 0.0:
        raise ConfigurationError(f"softmax temperature must be positive, got {temperature}")
    z = x.data / temperature
    z = z - z.max(axis=axis, keepdims=True)
    e = np.exp(z)
    y = e / e.sum(axis=axis, keepdims=True)
    out = Tensor(y)

    def bwd(g):
        if x.requires_grad:
            dot = (g * y).sum(axis=axis, keepdims=True)
            x.accumulate_grad((g - dot) * y / temperature)

    return record_op(out, (x,), bwd)


def l2_normalize(x, axis=-1):
    """Unit-normalize along ``axis``; all-zero slices pass through as zeros."""
    norms = np.sqrt((x.data**2).sum(axis=axis, keepdims=True))
    zero = norms == 0.0
    safe = np.where(zero, 1.0, norms)
    y = x.data / safe
    out = Tensor(y)

    def bwd(g):
        if x.requires_grad:
            dot = (g * y).sum(axis=axis, keepdims=True)
            gx = (g - y * dot) / safe
            x.accumulate_grad(np.where(zero, 0.0, gx))

    return record_op(out, (x,), bwd)


def layer_norm(x, gain, bias, axis=-1):
    """Normalize along ``axis``; variance is floored at 1e-5 so constant
    slices (padded history rows) stay finite."""
    mu = x.data.mean(axis=axis, keepdims=True)
    centered = x.data - mu
    var = (centered**2).mean(axis=axis, keepdims=True)
    floored = np.maximum(var, LAYER_NORM_VAR_FLOOR)
    inv = 1.0 / np.sqrt(floored)
    xhat = centered * inv
    out = Tensor(xhat * gain.data + bias.data)
    n = x.shape[axis]

    def bwd(g):
        if gain.requires_grad:
            gain.accumulate_grad(_unbroadcast(g * xhat, gain.shape))
        if bias.requires_grad:
            bias.accumulate_grad(_unbroadcast(g, bias.shape))
        if x.requires_grad:
            dxhat = g * gain.data
            live = var > LAYER_NORM_VAR_FLOOR  # floor region: d var = 0
            dvar = (dxhat * centered).sum(axis=axis, keepdims=True) * (-0.5) * inv**3
            dvar = np.where(live, dvar, 0.0)
            dmu = -dxhat.sum(axis=axis, keepdims=True) * inv
            dmu = dmu + dvar * (-2.0) * centered.mean(axis=axis, keepdims=True)
            gx = dxhat * inv + dvar * 2.0 * centered / n + dmu / n
            x.accumulate_grad(gx)

    return record_op(out, (x, gain, bias), bwd)


def dropout(x, rate, rng, train_mode):
    """Inverted dropout; identity when not training or rate == 0."""
    if not train_mode or rate <= 0.0:
        return x
    if rate >= 1.0:
        raise ConfigurationError(f"dropout rate must be < 1, got {rate}")
    keep = rng.random(x.shape) >= rate
    factor = keep / (1.0 - rate)
    out = Tensor(x.data * factor)

    def bwd(g):
        if x.requires_grad:
            x.accumulate_grad(g * factor)

    return record_op(out, (x,), bwd)


# ---------------------------------------------------------------------------
# indexing and shaping


def embedding_gather(table, ids):
    """Copy rows ``ids`` (any integer shape) out of a [V, h] table.

    Backward scatter-adds into the table gradient; duplicate ids therefore
    receive summed upstream gradients.
    """
    ids = np.asarray(ids, dtype=np.int64)
    v = table.shape[0]
    if ids.size:
        lo, hi = int(ids.min()), int(ids.max())
        if lo < 0 or hi >= v:
            bad = lo if lo < 0 else hi
            raise UnknownIdError(f"id {bad} out of range for table with {v} rows")
    out = Tensor(table.data[ids.reshape(-1)].reshape(ids.shape + (table.shape[1],)))

    def bwd(g):
        if table.requires_grad:
            if table.grad is None:
                table.grad = np.zeros_like(table.data)
            # unbuffered: duplicate ids accumulate, in the order of ``ids``
            np.add.at(table.grad, ids.reshape(-1), g.reshape(-1, table.shape[1]))

    return record_op(out, (table,), bwd)


def gather_rows_at(x, col_ids):
    """Pick one column per row of a 2-d tensor: out[i] = x[i, col_ids[i]]."""
    col_ids = np.asarray(col_ids, dtype=np.int64)
    n, v = x.shape
    if col_ids.size and (col_ids.min() < 0 or col_ids.max() >= v):
        raise UnknownIdError(f"column id out of range for {v} columns")
    rows = np.arange(n)
    out = Tensor(x.data[rows, col_ids])

    def bwd(g):
        if x.requires_grad:
            gx = np.zeros_like(x.data)
            gx[rows, col_ids] = g
            x.accumulate_grad(gx)

    return record_op(out, (x,), bwd)


def reshape(x, shape):
    out = Tensor(x.data.reshape(shape))

    def bwd(g):
        if x.requires_grad:
            x.accumulate_grad(g.reshape(x.shape))

    return record_op(out, (x,), bwd)


def transpose(x, axes):
    axes = tuple(axes)
    inverse = tuple(np.argsort(axes))
    out = Tensor(x.data.transpose(axes))

    def bwd(g):
        if x.requires_grad:
            x.accumulate_grad(g.transpose(inverse))

    return record_op(out, (x,), bwd)


def concat(tensors, axis):
    tensors = [as_tensor(t) for t in tensors]
    out = Tensor(np.concatenate([t.data for t in tensors], axis=axis))
    splits = np.cumsum([t.shape[axis] for t in tensors])[:-1]

    def bwd(g):
        parts = np.split(g, splits, axis=axis)
        for t, part in zip(tensors, parts):
            if t.requires_grad:
                t.accumulate_grad(part)

    return record_op(out, tuple(tensors), bwd)


def take(x, index, axis):
    """Slice one position off ``axis`` (the axis is removed)."""
    out = Tensor(np.take(x.data, index, axis=axis))

    def bwd(g):
        if x.requires_grad:
            gx = np.zeros_like(x.data)
            sl = [slice(None)] * x.ndim
            sl[axis] = index
            gx[tuple(sl)] = g
            x.accumulate_grad(gx)

    return record_op(out, (x,), bwd)
