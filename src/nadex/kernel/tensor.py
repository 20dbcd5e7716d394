"""Dense float32/float64 tensors with taped reverse-mode differentiation.

Every tensor wraps a C-contiguous ndarray: float32 input stays float32,
anything else becomes float64. Each op computes in its inputs' dtype, and
``cast`` moves a value between the two on the tape, so a float32 forward
and backward pass can run over float64 parameters. Operations execute
eagerly through numpy and, when a tape is active and an input requires
gradients, append a backward closure to that tape. Execution order is a
topological order of the graph, so ``backward`` simply replays the tape in
reverse, visiting each node exactly once. A node's gradient is released as
soon as its closure has consumed it, so after ``backward`` only leaves
(parameters and constants, which are never tape outputs) hold ``.grad``.

Gradient buffers: a tensor's first gradient ``g`` is written as
``g + 0.0`` into a fresh C-contiguous array of the tensor's shape and
dtype, and later ones are added into it in place. That is the sum a
zero-filled buffer would hold (a -0.0 becomes +0.0) in one pass. A backward
closure may therefore hand ``accumulate_grad`` a view of its own ``g`` (a
transpose, reshape, broadcast or slice) or an array it keeps using;
``.grad`` never aliases it. The buffer is C-ordered on purpose: a gradient
laid out like a transposed view would later reach BLAS with other strides
and could round differently. The gathers instead scatter-add ``g`` into
``grad_buffer()``, zero-filled on first use, so no dense gradient is built
and the entries they do not touch keep their bits.

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

    def active(self):
        """Record onto this tape on this thread for the duration of the block."""
        return _recording(self)


def active_tape():
    return getattr(_STATE, "tape", None)


@contextmanager
def _recording(tape):
    """Make ``tape`` (None: no tape) this thread's tape, then restore."""
    prev = active_tape()
    _STATE.tape = tape
    try:
        yield tape
    finally:
        _STATE.tape = prev


def no_grad():
    """Disable recording on this thread for the duration of the block."""
    return _recording(None)


class Tensor:
    """Row-major float32 or float64 array plus gradient slot (the grad has
    the data's dtype)."""

    __slots__ = ("data", "requires_grad", "grad")

    def __init__(self, data, requires_grad=False):
        dtype = np.float32 if getattr(data, "dtype", None) == np.float32 else np.float64
        self.data = np.ascontiguousarray(data, dtype=dtype)
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
            self.grad = np.add(g, 0.0, out=np.empty(self.shape, self.data.dtype))
        else:
            self.grad += g

    def grad_buffer(self):
        """``.grad`` for an in-place scatter, zero-filled on first use."""
        if self.grad is None:
            self.grad = np.zeros(self.shape, self.data.dtype)
        return self.grad

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"


def constant(array):
    """Off-graph tensor (never records, never receives gradients)."""
    return Tensor(array, requires_grad=False)


def record_op(out, parents, backward_fn):
    """Attach a custom backward closure to the active tape (public hook).

    Only ops with a grad-requiring parent are taped, so a single-parent
    closure may assume its parent requires grad."""
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
    """Replay the active tape in reverse from a scalar loss, popping it empty.

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
    while tape._nodes:  # a popped closure, and what it holds, is freed once run
        out, fn = tape._nodes.pop()
        if out.grad is not None:
            fn(out.grad)
            out.grad = None


# ---------------------------------------------------------------------------
# arithmetic


def add(a, b):
    out = Tensor(a.data + b.data)

    def bwd(g):
        if a.requires_grad:
            a.accumulate_grad(_unbroadcast(g, a.shape))
        if b.requires_grad:
            b.accumulate_grad(_unbroadcast(g, b.shape))

    return record_op(out, (a, b), bwd)


def sub(a, b):
    out = Tensor(a.data - b.data)

    def bwd(g):
        if a.requires_grad:
            a.accumulate_grad(_unbroadcast(g, a.shape))
        if b.requires_grad:
            b.accumulate_grad(_unbroadcast(-g, b.shape))

    return record_op(out, (a, b), bwd)


def mul(a, b):
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
        a.accumulate_grad(g * s)

    return record_op(out, (a,), bwd)


def add_scalar(a, c):
    c = float(c)
    out = Tensor(a.data + c)

    def bwd(g):
        a.accumulate_grad(g)

    return record_op(out, (a,), bwd)


def cast(x, dtype):
    """Copy of ``x`` as float32 or float64; the gradient flows back in
    ``x``'s dtype."""
    out = Tensor(x.data.astype(dtype))

    def bwd(g):
        x.accumulate_grad(g)  # accumulates into a buffer of x's dtype

    return record_op(out, (x,), bwd)


def matmul(a, b, bias=None, /):
    """Matrix product over the trailing two axes, batch dims broadcasting,
    plus ``bias`` added in place when given. A weight applied to ``[rows,
    k]`` activations is one GEMM forward and one per operand backward."""
    if a.ndim < 2 or b.ndim < 2:
        raise ShapeMismatchError(
            f"matmul needs >=2-d operands, got {a.shape} x {b.shape}"
        )
    if a.shape[-1] != b.shape[-2]:
        raise ShapeMismatchError(
            f"matmul inner extents differ: {a.shape} x {b.shape}"
        )
    y = np.matmul(a.data, b.data)
    if bias is not None:
        # widen first where bias outranks the product, as ``y + bias`` would
        y = y.astype(np.result_type(y, bias.data), copy=False)
        y += bias.data
    out = Tensor(y)

    def bwd(g):
        if a.requires_grad:
            ga = np.matmul(g, np.swapaxes(b.data, -1, -2))
            a.accumulate_grad(_unbroadcast(ga, a.shape))
        if b.requires_grad:
            gb = np.matmul(np.swapaxes(a.data, -1, -2), g)
            b.accumulate_grad(_unbroadcast(gb, b.shape))
        if bias is not None and bias.requires_grad:
            bias.accumulate_grad(_unbroadcast(g, bias.shape))

    return record_op(out, (a, b) if bias is None else (a, b, bias), bwd)


# ---------------------------------------------------------------------------
# elementwise and reductions


def log_sigmoid(x):
    """log(sigmoid(x)) as ``-logaddexp(0, -x)``, finite for every finite x
    in float32 and float64; NaN propagates without a warning."""
    with np.errstate(invalid="ignore"):
        y = -np.logaddexp(0.0, -x.data)
    out = Tensor(y)

    def bwd(g):
        with np.errstate(invalid="ignore"):  # exp(y - x) is sigmoid(-x)
            x.accumulate_grad(g * np.exp(y - x.data))

    return record_op(out, (x,), bwd)


def log(x):
    if np.any(x.data <= 0.0):
        raise DomainError("log requires strictly positive inputs; add an epsilon first")
    out = Tensor(np.log(x.data))

    def bwd(g):
        x.accumulate_grad(g / x.data)

    return record_op(out, (x,), bwd)


def relu(x):
    """max(x, 0) with a +0.0 for every non-positive input; NaN propagates
    (its gradient is 0)."""
    mask = x.data > 0.0
    y = np.maximum(x.data, 0.0)
    y += 0.0  # -0.0 + 0.0 is +0.0; numpy leaves max(-0.0, 0.0)'s sign open
    out = Tensor(y)

    def bwd(g):
        x.accumulate_grad(g * mask)

    return record_op(out, (x,), bwd)


def sum(x, axis=None, keepdims=False):
    out = Tensor(x.data.sum(axis=axis, keepdims=keepdims))

    def bwd(g):
        if axis is not None and not keepdims:
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
    y = xhat * gain.data
    # widen first where bias outranks xhat and gain, as ``y + bias`` would
    y = y.astype(np.result_type(y, bias.data), copy=False)
    y += bias.data
    out = Tensor(y)
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
            # dxhat * inv + dvar * 2.0 * centered / n + dmu / n, in place;
            # dxhat has g's dtype, the widest of the operands
            gx = dxhat
            gx *= inv
            spread = dvar * 2.0 * centered
            spread /= n
            gx += spread
            gx += dmu / n
            x.accumulate_grad(gx)

    return record_op(out, (x, gain, bias), bwd)


def dropout(x, rate, rng, train_mode):
    """Inverted dropout; identity when not training or rate == 0."""
    if not train_mode or rate <= 0.0:
        return x
    if rate >= 1.0:
        raise ConfigurationError(f"dropout rate must be < 1, got {rate}")
    keep = rng.random(x.shape) >= rate
    factor = keep.astype(x.data.dtype)
    factor /= 1.0 - rate
    out = Tensor(x.data * factor)

    def bwd(g):
        x.accumulate_grad(g * factor)

    return record_op(out, (x,), bwd)


# ---------------------------------------------------------------------------
# indexing and shaping


def _check_ids(ids, extent, what):
    """``ids`` as int64; UnknownIdError unless all lie in ``[0, extent)``."""
    ids = np.asarray(ids, dtype=np.int64)
    bad = ids[(ids < 0) | (ids >= extent)]
    if bad.size:
        raise UnknownIdError(f"id {bad[0]} out of range for {extent} {what}")
    return ids


def embedding_gather(table, ids):
    """Copy rows ``ids`` (any integer shape) out of a [V, h] table.

    Backward scatter-adds into the table gradient; duplicate ids therefore
    receive summed upstream gradients.
    """
    ids = _check_ids(ids, table.shape[0], "table rows")
    out = Tensor(table.data[ids.reshape(-1)].reshape(ids.shape + (table.shape[1],)))

    def bwd(g):
        # unbuffered: duplicate ids accumulate, in the order of ``ids``
        np.add.at(table.grad_buffer(), ids.reshape(-1), g.reshape(-1, table.shape[1]))

    return record_op(out, (table,), bwd)


def gather_rows_at(x, col_ids):
    """Pick one column per row of a 2-d tensor: out[i] = x[i, col_ids[i]]."""
    n, v = x.shape
    col_ids = _check_ids(col_ids, v, "columns")
    rows = np.arange(n)
    out = Tensor(x.data[rows, col_ids])

    def bwd(g):
        x.grad_buffer()[rows, col_ids] += g  # one entry per row: no collisions

    return record_op(out, (x,), bwd)


def reshape(x, shape):
    out = Tensor(x.data.reshape(shape))

    def bwd(g):
        x.accumulate_grad(g.reshape(x.shape))

    return record_op(out, (x,), bwd)


def transpose(x, axes):
    axes = tuple(axes)
    inverse = tuple(np.argsort(axes))
    out = Tensor(x.data.transpose(axes))

    def bwd(g):
        x.accumulate_grad(g.transpose(inverse))

    return record_op(out, (x,), bwd)


def concat(tensors, axis):
    out = Tensor(np.concatenate([t.data for t in tensors], axis=axis))
    splits = np.cumsum([t.shape[axis] for t in tensors])[:-1]

    def bwd(g):
        parts = np.split(g, splits, axis=axis)
        for t, part in zip(tensors, parts):
            if t.requires_grad:
                t.accumulate_grad(part)

    return record_op(out, tuple(tensors), bwd)


def take(x, index, axis):
    """Index ``axis`` with an int (the axis is removed) or a slice."""
    at = (slice(None),) * (axis % x.ndim) + (index,)
    out = Tensor(x.data[at])

    def bwd(g):
        x.grad_buffer()[at] += g

    return record_op(out, (x,), bwd)
