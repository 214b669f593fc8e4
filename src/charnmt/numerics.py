"""Dense tensors with reverse-mode automatic differentiation.

A `Graph` is a tape: every primitive applied while a graph is active appends
a node recording its inputs, output and a backward closure. `backward` walks
the tape once in reverse and returns a gradient for every named parameter in
the graph's `ParameterStore`.

Most primitives are single operations. `gru` is the exception: a whole GRU
cell fused into one node with a hand-written backward, because a cell built
from single operations records about 15 nodes and the recurrent loops spend
most of their time in that bookkeeping. The composite cell it must agree
with is kept in the test suite (`tests/conftest.py`) as the oracle.

Two precision modes exist: "wide" (float64, for gradient checks) and "narrow"
(float32, default for training). A graph is pinned to its store's mode;
mixing dtypes inside a graph is an error. Outside any active graph the same
primitives run in plain inference mode with no recording.
"""

from __future__ import annotations

import threading

import numpy as np

from .errors import (
    ConfigError,
    ContractError,
    DimensionError,
    DomainError,
)

PRECISIONS = {"wide": np.float64, "narrow": np.float32}

_state = threading.local()


def _graph_stack():
    if not hasattr(_state, "graphs"):
        _state.graphs = []
    return _state.graphs


def _active():
    stack = _graph_stack()
    return stack[-1] if stack else None


class Tensor:
    """Immutable dense array. `data` is a row-major numpy array."""

    __slots__ = ("data",)

    def __init__(self, data):
        self.data = data

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, dtype={self.data.dtype})"


def tensor(data, precision: str = "narrow") -> Tensor:
    """Wrap `data` as a constant leaf in the given precision."""
    return Tensor(np.asarray(data, dtype=PRECISIONS[precision]))


class ParameterStore:
    """Named tensor collection holding every learned weight.

    Insertion-ordered; names are unique. Stores are mutated only through
    `add`/`assign` by their owning (training) thread; readers treat the
    contained tensors as immutable.
    """

    def __init__(self, precision: str = "narrow"):
        if precision not in PRECISIONS:
            raise ConfigError(f"unknown precision {precision!r}")
        self.precision = precision
        self.dtype = PRECISIONS[precision]
        self._tensors: dict[str, Tensor] = {}

    def add(self, name: str, array) -> Tensor:
        if name in self._tensors:
            raise ContractError(f"parameter {name!r} already present")
        t = Tensor(np.ascontiguousarray(array, dtype=self.dtype))
        self._tensors[name] = t
        return t

    def assign(self, name: str, array) -> None:
        """Replace a parameter's value (a fresh Tensor; old ones stay valid)."""
        if name not in self._tensors:
            raise ContractError(f"unknown parameter {name!r}")
        self._tensors[name] = Tensor(np.ascontiguousarray(array, dtype=self.dtype))

    def __getitem__(self, name: str) -> Tensor:
        return self._tensors[name]

    def __contains__(self, name: str) -> bool:
        return name in self._tensors

    def names(self):
        return list(self._tensors)

    def items(self):
        return self._tensors.items()


class _Node:
    __slots__ = ("op", "inputs", "output", "grad_fn")

    def __init__(self, op, inputs, output, grad_fn):
        self.op = op
        self.inputs = inputs
        self.output = output
        self.grad_fn = grad_fn


class Graph:
    """Ordered tape of primitive applications, bound to one ParameterStore.

    Nodes are appended in execution order, so the list is topologically
    sorted by construction and the backward pass visits each node exactly
    once. A graph is confined to the thread that created it.
    """

    def __init__(self, store: ParameterStore):
        self.store = store
        self.dtype = store.dtype
        self.nodes: list[_Node] = []
        self._produced: set[int] = set()

    def __enter__(self):
        _graph_stack().append(self)
        return self

    def __exit__(self, *exc):
        popped = _graph_stack().pop()
        assert popped is self
        return False


def _record(op, inputs, out_data, grad_fn) -> Tensor:
    out = Tensor(out_data)
    g = _active()
    if g is not None:
        if out_data.dtype != g.dtype:
            raise ContractError(
                f"{op!r} produced dtype {out_data.dtype} inside a {g.store.precision} graph"
            )
        g.nodes.append(_Node(op, inputs, out, grad_fn))
        g._produced.add(id(out))
    return out


def _unbroadcast(grad, shape):
    """Sum `grad` down to `shape` after a broadcasting forward op."""
    extra = grad.ndim - len(shape)
    if extra:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad


# --- primitives ---


def affine(x: Tensor, W: Tensor, b: Tensor) -> Tensor:
    """x @ W + b with x of shape (..., n), W (n, m), b (m,)."""
    if W.ndim != 2 or x.shape[-1] != W.shape[0]:
        raise DimensionError(f"affine: x {x.shape} does not conform with W {W.shape}")
    if b.shape != (W.shape[1],):
        raise DimensionError(f"affine: bias {b.shape} does not match output columns {W.shape[1]}")
    y = np.matmul(x.data, W.data) + b.data

    def grad(dy):
        n, m = W.shape
        x2 = x.data.reshape(-1, n)
        dy2 = dy.reshape(-1, m)
        return np.matmul(dy, W.data.T), np.matmul(x2.T, dy2), dy2.sum(axis=0)

    return _record("affine", (x, W, b), y, grad)


def linear(x: Tensor, W: Tensor) -> Tensor:
    """x @ W without bias."""
    if W.ndim != 2 or x.shape[-1] != W.shape[0]:
        raise DimensionError(f"linear: x {x.shape} does not conform with W {W.shape}")
    y = np.matmul(x.data, W.data)

    def grad(dy):
        x2 = x.data.reshape(-1, W.shape[0])
        dy2 = dy.reshape(-1, W.shape[1])
        return np.matmul(dy, W.data.T), np.matmul(x2.T, dy2)

    return _record("linear", (x, W), y, grad)


def tanh(x: Tensor) -> Tensor:
    y = np.tanh(x.data)
    return _record("tanh", (x,), y, lambda dy: (dy * (1.0 - y * y),))


def _sigmoid(d):
    # tanh form: cannot overflow, and saturates exactly at 0 and 1.
    return 0.5 * np.tanh(0.5 * d) + 0.5


def sigmoid(x: Tensor) -> Tensor:
    y = _sigmoid(x.data)
    return _record("sigmoid", (x,), y, lambda dy: (dy * y * (1.0 - y),))


def _broadcast_shapes(op, a, b):
    try:
        return np.broadcast_shapes(a.shape, b.shape)
    except ValueError:
        raise DimensionError(f"{op}: shapes {a.shape} and {b.shape} do not match") from None


def add(a: Tensor, b: Tensor) -> Tensor:
    _broadcast_shapes("add", a, b)
    y = a.data + b.data
    return _record(
        "add", (a, b), y,
        lambda dy: (_unbroadcast(dy, a.shape), _unbroadcast(dy, b.shape)),
    )


def mul(a: Tensor, b: Tensor) -> Tensor:
    _broadcast_shapes("multiply", a, b)
    y = a.data * b.data
    return _record(
        "multiply", (a, b), y,
        lambda dy: (_unbroadcast(dy * b.data, a.shape), _unbroadcast(dy * a.data, b.shape)),
    )


def one_minus(x: Tensor) -> Tensor:
    """1 - x, the (1 - g) form used by gates."""
    return _record("subtract_from_one", (x,), 1.0 - x.data, lambda dy: (-dy,))


def mul_const(x: Tensor, const: np.ndarray) -> Tensor:
    """Multiply by a non-differentiable constant (masks, scaling arrays)."""
    c = np.asarray(const, dtype=x.data.dtype)
    _broadcast_shapes("multiply", x, Tensor(c))
    y = x.data * c
    return _record("mul_const", (x,), y, lambda dy: (_unbroadcast(dy * c, x.shape),))


def scale(x: Tensor, s: float) -> Tensor:
    s = float(s)
    return _record("scale", (x,), x.data * s, lambda dy: (dy * s,))


def softmax(logits: Tensor, mask: np.ndarray | None = None) -> Tensor:
    """Probabilities along the last axis, max-subtracted for stability.

    `mask` (same shape, nonzero = valid) zeroes out invalid positions; each
    row must keep at least one valid entry.
    """
    x = logits.data
    if x.size == 0:
        raise DomainError("softmax of an empty tensor")
    if mask is not None:
        valid = np.asarray(mask, dtype=bool)
        shifted = x - np.max(np.where(valid, x, -np.inf), axis=-1, keepdims=True)
        e = np.exp(shifted) * valid
    else:
        e = np.exp(x - x.max(axis=-1, keepdims=True))
    y = e / e.sum(axis=-1, keepdims=True)

    def grad(dy):
        inner = (dy * y).sum(axis=-1, keepdims=True)
        return (y * (dy - inner),)

    return _record("softmax", (logits,), y, grad)


def log_softmax(logits: Tensor) -> Tensor:
    x = logits.data
    if x.size == 0:
        raise DomainError("log_softmax of an empty tensor")
    m = x.max(axis=-1, keepdims=True)
    lse = m + np.log(np.exp(x - m).sum(axis=-1, keepdims=True))
    y = x - lse

    def grad(dy):
        return (dy - np.exp(y) * dy.sum(axis=-1, keepdims=True),)

    return _record("log_softmax", (logits,), y, grad)


def embed(table: Tensor, ids: np.ndarray) -> Tensor:
    """Rows of an embedding table selected by integer ids."""
    ids = np.asarray(ids)
    if ids.size and (ids.min() < 0 or ids.max() >= table.shape[0]):
        raise DimensionError(
            f"embed: ids outside [0, {table.shape[0]}) (found {int(ids.min())}..{int(ids.max())})"
        )
    y = table.data[ids]

    def grad(dy):
        dt = np.zeros_like(table.data)
        np.add.at(dt, ids, dy)
        return (dt,)

    return _record("embed", (table,), y, grad)


def concat(parts: list[Tensor]) -> Tensor:
    """Concatenate along the last axis."""
    widths = [p.shape[-1] for p in parts]
    y = np.concatenate([p.data for p in parts], axis=-1)

    def grad(dy):
        out, off = [], 0
        for w in widths:
            out.append(dy[..., off:off + w])
            off += w
        return tuple(out)

    return _record("concat", tuple(parts), y, grad)


def stack_time(rows: list[Tensor]) -> Tensor:
    """Stack T tensors of shape (B, D) into (B, T, D)."""
    y = np.stack([r.data for r in rows], axis=1)

    def grad(dy):
        return tuple(dy[:, t] for t in range(len(rows)))

    return _record("stack_time", tuple(rows), y, grad)


def attn_mix(alpha: Tensor, ctx: Tensor) -> Tensor:
    """Weighted sum of context rows: (B,T) x (B,T,D) -> (B,D)."""
    if alpha.shape != ctx.shape[:2]:
        raise DimensionError(f"attn_mix: weights {alpha.shape} vs context {ctx.shape}")
    y = np.einsum("bt,btd->bd", alpha.data, ctx.data)

    def grad(dy):
        dalpha = np.einsum("bd,btd->bt", dy, ctx.data)
        dctx = alpha.data[:, :, None] * dy[:, None, :]
        return dalpha, dctx

    return _record("attn_mix", (alpha, ctx), y, grad)


def pick(x: Tensor, ids: np.ndarray) -> Tensor:
    """Per-row element selection: (B, V), (B,) -> (B,)."""
    ids = np.asarray(ids)
    if x.ndim != 2 or ids.shape != (x.shape[0],):
        raise DimensionError(f"pick: x {x.shape} vs ids {ids.shape}")
    rows = np.arange(x.shape[0])
    y = x.data[rows, ids]

    def grad(dy):
        dx = np.zeros_like(x.data)
        dx[rows, ids] = dy
        return (dx,)

    return _record("pick", (x,), y, grad)


def reshape(x: Tensor, shape) -> Tensor:
    y = x.data.reshape(shape)
    return _record("reshape", (x,), y, lambda dy: (dy.reshape(x.shape),))


def sum_all(x: Tensor) -> Tensor:
    y = x.data.sum()
    return _record("sum", (x,), np.asarray(y, dtype=x.data.dtype),
                   lambda dy: (np.broadcast_to(dy, x.shape).astype(x.data.dtype),))


def gru(x: Tensor, h: Tensor, W_r: Tensor, W_u: Tensor, W_c: Tensor,
        U_r: Tensor, U_u: Tensor, U_c: Tensor,
        b_r: Tensor, b_u: Tensor, b_c: Tensor) -> Tensor:
    """One GRU update (Cho et al. 2014) recorded as a single tape node.

        r = sigmoid(x W_r + h U_r + b_r)        (reset gate)
        u = sigmoid(x W_u + h U_u + b_u)        (update gate)
        cand = tanh(x W_c + (r * h) U_c + b_c)
        out = (1 - u) * h + u * cand

    x is (B, n) and h is (B, d); W_* are (n, d), U_* (d, d), b_* (d,). A
    closed update gate (u == 0) returns h bit-for-bit.
    """
    xd, hd = x.data, h.data
    if xd.ndim != 2 or hd.ndim != 2 or len(xd) != len(hd):
        raise DimensionError(f"gru: input {x.shape} and state {h.shape} are not (B, n) and (B, d)")
    n, d = xd.shape[1], hd.shape[1]
    for t, shape in ((W_r, (n, d)), (W_u, (n, d)), (W_c, (n, d)),
                     (U_r, (d, d)), (U_u, (d, d)), (U_c, (d, d)),
                     (b_r, (d,)), (b_u, (d,)), (b_c, (d,))):
        if t.shape != shape:
            raise DimensionError(
                f"gru: weight {t.shape} does not conform with input {x.shape} and state {h.shape}"
            )
    r = _sigmoid(xd @ W_r.data + (hd @ U_r.data + b_r.data))
    u = _sigmoid(xd @ W_u.data + (hd @ U_u.data + b_u.data))
    rh = r * hd
    cand = np.tanh(xd @ W_c.data + (rh @ U_c.data + b_c.data))
    keep = 1.0 - u
    y = keep * hd + u * cand

    def grad(dy):
        da_c = dy * u * (1.0 - cand * cand)
        da_u = dy * (cand - hd) * u * keep
        drh = da_c @ U_c.data.T
        da_r = drh * hd * r * (1.0 - r)
        dx = da_r @ W_r.data.T + da_u @ W_u.data.T + da_c @ W_c.data.T
        dh = dy * keep + drh * r + da_r @ U_r.data.T + da_u @ U_u.data.T
        xT, hT = xd.T, hd.T
        return (dx, dh,
                xT @ da_r, xT @ da_u, xT @ da_c,
                hT @ da_r, hT @ da_u, rh.T @ da_c,
                da_r.sum(axis=0), da_u.sum(axis=0), da_c.sum(axis=0))

    return _record("gru", (x, h, W_r, W_u, W_c, U_r, U_u, U_c, b_r, b_u, b_c), y, grad)


def backward(graph: Graph, loss: Tensor) -> dict[str, Tensor]:
    """Gradient of a scalar loss w.r.t. every parameter in the graph's store.

    Parameters the loss never touched map to zero tensors of matching shape.
    """
    if loss.ndim != 0:
        raise ContractError(f"loss must be scalar, got shape {loss.shape}")
    if id(loss) not in graph._produced:
        raise ContractError("loss is not a node of this graph")

    acc: dict[int, np.ndarray] = {id(loss): np.asarray(1.0, dtype=graph.dtype)}
    for node in reversed(graph.nodes):
        dy = acc.pop(id(node.output), None)
        if dy is None:
            continue
        for t, g in zip(node.inputs, node.grad_fn(dy)):
            if g is None:
                continue
            key = id(t)
            if key in acc:
                acc[key] = acc[key] + g
            else:
                acc[key] = g

    grads = {}
    for name, t in graph.store.items():
        g = acc.get(id(t))
        grads[name] = Tensor(g if g is not None else np.zeros_like(t.data))
    return grads
