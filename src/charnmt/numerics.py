"""Dense tensors with reverse-mode automatic differentiation.

A `Graph` is a tape: every primitive applied while a graph is active appends
a node recording its inputs, output and a backward closure. `backward` walks
the tape once in reverse and returns a gradient for every named parameter in
the graph's `ParameterStore`.

Most primitives are single operations. The model's layers are the
exception: `gru`, `biscale` (the bi-scale decoder step), `attention` and
`output_layer` are each one node, possibly with several outputs, and a
hand-written backward, because the same layers built from single
operations record ten to twenty nodes each and the recurrent loops spend
most of their time in that bookkeeping. The composite layers they must
agree with are kept in the test suite (`tests/conftest.py`) as oracles.

Parameter gradients are summed once per step, not once per position: layer
backwards return deferred `Outer` (weight, bias) and `Rows` (embedding) terms,
which `backward` sums with one product or scatter, and read a weight's
transpose from `Tensor.T`, a contiguous copy cached on the immutable Tensor.

Two precision modes exist: "wide" (float64, for gradient checks) and "narrow"
(float32, default for training). A graph is pinned to its store's mode;
mixing dtypes inside a graph is an error. Outside any active graph the same
primitives run in plain inference mode with no recording.
"""

from __future__ import annotations

import threading
from collections import namedtuple

import numpy as np

from .errors import (
    ConfigError,
    ContractError,
    DimensionError,
    VocabularyError,
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

    __slots__ = ("data", "_T")

    def __init__(self, data):
        self.data = data

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    @property
    def T(self):
        """`data.T` as a row-major copy, made once (about 2x faster products)."""
        if not hasattr(self, "_T"):
            self._T = np.ascontiguousarray(self.data.T)
        return self._T

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

    def items(self):
        return self._tensors.items()


# Deferred gradient terms: a weight's `left.T @ right` (a bias's `right.sum(0)`
# when `left` is None), and an embedding table's rows `dy` added at `ids`.
Outer = namedtuple("Outer", "left right")
Rows = namedtuple("Rows", "ids dy")


def _cat(arrays):
    return arrays[0] if len(arrays) == 1 else np.concatenate(arrays)


def _pop_gradient(t: Tensor, acc: dict, deferred: dict):
    """Remove and return the gradient of `t`: `acc`'s sum of its dense terms
    plus its `deferred` Outer terms summed with one product and its Rows terms
    with one scatter. A tensor is a weight (2-D) or a bias (1-D) wherever used."""
    dense, terms = acc.pop(id(t), None), deferred.pop(id(t), None)
    if not terms:
        return dense
    parts = [] if dense is None else [dense]
    outer = [g for g in terms if type(g) is Outer]
    if outer:
        right = _cat([g.right for g in outer])
        parts.append(right.sum(axis=0) if outer[0].left is None
                     else _cat([g.left for g in outer]).T @ right)
    rows = [g for g in terms if type(g) is Rows]
    if rows:
        width = t.shape[1]  # one flat scatter: np.add.at over whole rows is 3x slower
        flat = _cat([g.ids.reshape(-1, 1) * width + np.arange(width) for g in rows])
        table = np.zeros_like(t.data)
        np.add.at(table.reshape(-1), flat.reshape(-1), _cat([g.dy.reshape(-1) for g in rows]))
        parts.append(table)
    return sum(parts[1:], parts[0])


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


def _record(op, inputs, out_data, grad_fn):
    """Wrap `out_data` (an array, or a tuple of arrays for a node with several
    outputs, whose `grad_fn` then gets one gradient or None per output) and
    append the node to the active graph."""
    many = isinstance(out_data, tuple)
    out = tuple(Tensor(d) for d in out_data) if many else Tensor(out_data)
    g = _active()
    if g is not None:
        for t in out if many else (out,):
            if t.data.dtype != g.dtype:
                raise ContractError(
                    f"{op!r} produced dtype {t.data.dtype} inside a {g.store.precision} graph"
                )
            g._produced.add(id(t))
        g.nodes.append(_Node(op, inputs, out, grad_fn))
    return out


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
        dy2 = dy.reshape(-1, m)
        return np.matmul(dy, W.T), Outer(x.data.reshape(-1, n), dy2), Outer(None, dy2)

    return _record("affine", (x, W, b), y, grad)


def linear(x: Tensor, W: Tensor) -> Tensor:
    """x @ W without bias."""
    if W.ndim != 2 or x.shape[-1] != W.shape[0]:
        raise DimensionError(f"linear: x {x.shape} does not conform with W {W.shape}")
    y = np.matmul(x.data, W.data)

    def grad(dy):
        return (np.matmul(dy, W.T),
                Outer(x.data.reshape(-1, W.shape[0]), dy.reshape(-1, W.shape[1])))

    return _record("linear", (x, W), y, grad)


def tanh(x: Tensor) -> Tensor:
    y = np.tanh(x.data)
    return _record("tanh", (x,), y, lambda dy: (dy * (1.0 - y * y),))


def _sigmoid(d):
    # tanh form: cannot overflow, and saturates exactly at 0 and 1.
    return 0.5 * np.tanh(0.5 * d) + 0.5


def scale(x: Tensor, s: float) -> Tensor:
    s = float(s)
    return _record("scale", (x,), x.data * s, lambda dy: (dy * s,))


def embed(table: Tensor, ids: np.ndarray) -> Tensor:
    """Rows of an embedding table selected by integer ids; an id outside
    the table raises VocabularyError."""
    ids = np.asarray(ids)
    if ids.size and (ids.min() < 0 or ids.max() >= table.shape[0]):
        raise VocabularyError(f"index out of range: found {int(ids.min())}..{int(ids.max())}, "
                              f"vocabulary size {table.shape[0]}")
    y = table.data[ids]

    return _record("embed", (table,), y, lambda dy: (Rows(ids, dy),))


def _split(dy, parts):
    """The gradients of `parts` from the gradient of their concatenation."""
    out, off = [], 0
    for p in parts:
        out.append(dy[..., off:off + p.shape[-1]])
        off += p.shape[-1]
    return out


def concat(parts: list[Tensor]) -> Tensor:
    """Concatenate along the last axis."""
    y = np.concatenate([p.data for p in parts], axis=-1)
    return _record("concat", tuple(parts), y, lambda dy: tuple(_split(dy, parts)))


def stack_time(rows: list[Tensor]) -> Tensor:
    """Stack T tensors of shape (B, D) into (B, T, D)."""
    y = np.stack([r.data for r in rows], axis=1)

    def grad(dy):
        return tuple(dy[:, t] for t in range(len(rows)))

    return _record("stack_time", tuple(rows), y, grad)


def take_rows(xs: list[Tensor], n: int) -> tuple:
    """The first `n` rows of each tensor, as one node with one output each."""
    def grad(dys):
        out = []
        for x, dy in zip(xs, dys):
            if dy is not None:
                full = np.zeros_like(x.data)
                full[:n] = dy
                dy = full
            out.append(dy)
        return tuple(out)

    return _record("take_rows", tuple(xs), tuple(x.data[:n] for x in xs), grad)


def concat_rows(parts: list[Tensor]) -> Tensor:
    """Concatenate along the first axis."""
    y = np.concatenate([p.data for p in parts], axis=0)
    ends = np.cumsum([p.shape[0] for p in parts])[:-1]
    return _record("concat_rows", tuple(parts), y, lambda dy: tuple(np.split(dy, ends)))


def sum_all(x: Tensor) -> Tensor:
    y = x.data.sum()
    return _record("sum", (x,), np.asarray(y, dtype=x.data.dtype),
                   lambda dy: (np.broadcast_to(dy, x.shape).astype(x.data.dtype),))


def _conform(op, what, *pairs):
    """Raise DimensionError unless every (tensor, shape) pair matches."""
    for t, shape in pairs:
        if t.shape != shape:
            raise DimensionError(f"{op}: weight {t.shape} does not conform with {what}")


def gru(x: Tensor, h: Tensor, W_r: Tensor, W_u: Tensor, W_c: Tensor,
        U_r: Tensor, U_u: Tensor, U_c: Tensor,
        b_r: Tensor, b_u: Tensor, b_c: Tensor, mask=None) -> Tensor:
    """One GRU update (Cho et al. 2014) recorded as a single tape node.

        r = sigmoid(x W_r + h U_r + b_r)        (reset gate)
        u = sigmoid(x W_u + h U_u + b_u)        (update gate)
        cand = tanh(x W_c + (r * h) U_c + b_c)
        out = (1 - u) * h + u * cand

    x is (B, n) and h is (B, d); W_* are (n, d), U_* (d, d), b_* (d,). A
    closed update gate (u == 0) returns h bit-for-bit. `mask` (B, 1), zero
    at rows that must not move (padding), makes those rows return h
    bit-for-bit and pass their gradient straight to h.
    """
    xd, hd = x.data, h.data
    if xd.ndim != 2 or hd.ndim != 2 or len(xd) != len(hd):
        raise DimensionError(f"gru: input {x.shape} and state {h.shape} are not (B, n) and (B, d)")
    n, d = xd.shape[1], hd.shape[1]
    _conform("gru", f"input {x.shape} and state {h.shape}",
             (W_r, (n, d)), (W_u, (n, d)), (W_c, (n, d)),
             (U_r, (d, d)), (U_u, (d, d)), (U_c, (d, d)),
             (b_r, (d,)), (b_u, (d,)), (b_c, (d,)))
    r = _sigmoid(xd @ W_r.data + (hd @ U_r.data + b_r.data))
    u = _sigmoid(xd @ W_u.data + (hd @ U_u.data + b_u.data))
    rh = r * hd
    cand = np.tanh(xd @ W_c.data + (rh @ U_c.data + b_c.data))
    keep = 1.0 - u
    y = keep * hd + u * cand
    if mask is not None:
        live = np.asarray(mask) != 0
        y = np.where(live, y, hd)

    def grad(dy):
        dpass = 0.0
        if mask is not None:
            dy, dpass = np.where(live, dy, 0.0), np.where(live, 0.0, dy)
        da_c = dy * u * (1.0 - cand * cand)
        da_u = dy * (cand - hd) * u * keep
        drh = da_c @ U_c.T
        da_r = drh * hd * r * (1.0 - r)
        dx = da_r @ W_r.T + da_u @ W_u.T + da_c @ W_c.T
        dh = dy * keep + drh * r + da_r @ U_r.T + da_u @ U_u.T + dpass
        return (dx, dh,
                Outer(xd, da_r), Outer(xd, da_u), Outer(xd, da_c),
                Outer(hd, da_r), Outer(hd, da_u), Outer(rh, da_c),
                Outer(None, da_r), Outer(None, da_u), Outer(None, da_c))

    return _record("gru", (x, h, W_r, W_u, W_c, U_r, U_u, U_c, b_r, b_u, b_c), y, grad)


def biscale(y_emb: Tensor, h1: Tensor, g1: Tensor, h2: Tensor, g2: Tensor, c: Tensor,
            W_h1: Tensor, b_h1: Tensor, W_g1: Tensor, b_g1: Tensor,
            W_h2: Tensor, b_h2: Tensor, W_g2: Tensor, b_g2: Tensor):
    """One step of the bi-scale decoder recorded as a single tape node.

    From the previous step's faster and slower states h1, h2 and gates g1, g2:

        ins1 = [y_emb; (1 - g1) * h1; g1 * h2; c]
        h1' = tanh(ins1 W_h1 + b_h1)            g1' = sigmoid(ins1 W_g1 + b_g1)
        ins2 = [g1' * h1'; (1 - g2) * h2; c]
        cand = tanh(ins2 W_h2 + b_h2)           g2' = sigmoid(ins2 W_g2 + b_g2)
        h2' = (1 - g1') * h2 + g1' * cand

    Every input is (B, width), every state and gate (B, d). Returns the
    tuple (h1', h2', g1', g2'). A closed gate g1' == 0 returns h2
    bit-for-bit.
    """
    h1d, g1d, h2d, g2d = h1.data, g1.data, h2.data, g2.data
    keep1_prev, keep2_prev = 1.0 - g1d, 1.0 - g2d
    ins1 = np.concatenate([y_emb.data, keep1_prev * h1d, g1d * h2d, c.data], axis=1)
    d, n1, n2 = h2.shape[1], ins1.shape[1], 2 * h2.shape[1] + c.shape[1]
    _conform("biscale", f"inputs of widths {n1} and {n2} and state width {d}",
             (W_h1, (n1, d)), (W_g1, (n1, d)), (W_h2, (n2, d)), (W_g2, (n2, d)),
             (b_h1, (d,)), (b_g1, (d,)), (b_h2, (d,)), (b_g2, (d,)))
    h1_new = np.tanh(ins1 @ W_h1.data + b_h1.data)
    g1_new = _sigmoid(ins1 @ W_g1.data + b_g1.data)
    ins2 = np.concatenate([g1_new * h1_new, keep2_prev * h2d, c.data], axis=1)
    cand = np.tanh(ins2 @ W_h2.data + b_h2.data)
    g2_new = _sigmoid(ins2 @ W_g2.data + b_g2.data)
    keep1 = 1.0 - g1_new
    h2_new = keep1 * h2d + g1_new * cand

    def grad(dys):
        dh1, dh2, dg1, dg2 = (0.0 if g is None else g for g in dys)
        dg1 = dg1 + dh2 * (cand - h2d)
        da_g2 = dg2 * g2_new * (1.0 - g2_new)
        da_c = dh2 * g1_new * (1.0 - cand * cand)
        dreset, dh2c, dc2 = _split(da_c @ W_h2.T + da_g2 @ W_g2.T, (h1, h2, c))
        da_g1 = (dg1 + dreset * h1_new) * g1_new * keep1
        da_h1 = (dh1 + dreset * g1_new) * (1.0 - h1_new * h1_new)
        dy_emb, dh1c, dh2f, dc1 = _split(da_h1 @ W_h1.T + da_g1 @ W_g1.T,
                                         (y_emb, h1, h2, c))
        return (dy_emb, dh1c * keep1_prev, dh2f * h2d - dh1c * h1d,
                dh2 * keep1 + dh2f * g1d + dh2c * keep2_prev, -dh2c * h2d, dc1 + dc2,
                Outer(ins1, da_h1), Outer(None, da_h1), Outer(ins1, da_g1), Outer(None, da_g1),
                Outer(ins2, da_c), Outer(None, da_c), Outer(ins2, da_g2), Outer(None, da_g2))

    return _record("biscale", (y_emb, h1, g1, h2, g2, c,
                               W_h1, b_h1, W_g1, b_g1, W_h2, b_h2, W_g2, b_g2),
                   (h1_new, h2_new, g1_new, g2_new), grad)


def attention(y_emb: Tensor, query: Tensor, keys: Tensor, annotations: Tensor, mask,
              W_emb: Tensor, W_query: Tensor, b: Tensor, v: Tensor):
    """Soft alignment (Bahdanau, Cho & Bengio 2014) as a single tape node.

        e = tanh(keys + y_emb W_emb + query W_query + b) v        (B, T)
        alpha = softmax of e over the positions where mask is nonzero
        context = sum over t of alpha_t * annotations_t            (B, D)

    keys (B, T, A) are the annotations (B, T, D) projected once per source
    batch. Each row of `mask` (B, T) needs a nonzero entry. Returns the
    tuple (context, alpha).
    """
    ann, hid = annotations.data, keys.data
    B, T, A = hid.shape
    if ann.shape[:2] != (B, T) or np.shape(mask) != (B, T):
        raise DimensionError(f"attention: keys {keys.shape}, annotations {annotations.shape} "
                             f"and mask {np.shape(mask)} do not match")
    _conform("attention", f"keys {keys.shape}",
             (W_emb, (y_emb.shape[1], A)), (W_query, (query.shape[1], A)), (b, (A,)), (v, (A, 1)))
    step = y_emb.data @ W_emb.data + b.data + query.data @ W_query.data
    hidden = np.tanh(hid + step[:, None, :])
    scores = (hidden.reshape(-1, A) @ v.data).reshape(B, T)
    scores = np.where(np.asarray(mask) != 0, scores, -np.inf)
    e = np.exp(scores - scores.max(axis=1, keepdims=True))
    alpha = e / e.sum(axis=1, keepdims=True)
    context = np.matmul(alpha[:, None, :], ann)[:, 0]

    def grad(dys):
        dctx, dalpha = dys
        dann = None
        if dctx is not None:
            dann = alpha[:, :, None] * dctx[:, None, :]
            dmix = np.matmul(ann, dctx[:, :, None])[:, :, 0]
            dalpha = dmix if dalpha is None else dalpha + dmix
        dscore = alpha * (dalpha - (dalpha * alpha).sum(axis=1, keepdims=True))
        dkeys = dscore[:, :, None] * v.data[:, 0] * (1.0 - hidden * hidden)
        dstep = dkeys.sum(axis=1)
        return (dstep @ W_emb.T, dstep @ W_query.T, dkeys, dann,
                Outer(y_emb.data, dstep), Outer(query.data, dstep), Outer(None, dstep),
                hidden.reshape(-1, A).T @ dscore.reshape(-1, 1))

    return _record("attention", (y_emb, query, keys, annotations, W_emb, W_query, b, v),
                   (context, alpha), grad)


def output_layer(parts: list[Tensor], W_h: Tensor, b_h: Tensor, W_l: Tensor, b_l: Tensor,
                 targets=None) -> Tensor:
    """The output network as a single tape node:

        log_softmax(tanh([parts] W_h + b_h) W_l + b_l)

    over the last axis, for parts of shape (..., n_i). With integer
    `targets` of the leading shape (...), returns only the log-probability
    of each target symbol, so a whole teacher-forced batch is one node.
    """
    x = np.concatenate([p.data for p in parts], axis=-1)
    lead, N, V = x.shape[:-1], x.shape[-1], W_l.shape[-1]
    _conform("output_layer", f"inputs of width {N}",
             (W_h, (N, b_h.shape[0])), (W_l, (b_h.shape[0], V)), (b_l, (V,)))
    x = x.reshape(-1, N)
    hidden = np.tanh(x @ W_h.data + b_h.data)
    logits = hidden @ W_l.data + b_l.data
    m = logits.max(axis=1, keepdims=True)
    logp = logits - (m + np.log(np.exp(logits - m).sum(axis=1, keepdims=True)))
    if targets is None:
        y = logp.reshape(*lead, V)
    else:
        ids = np.asarray(targets)
        if ids.shape != lead or (ids.size and (ids.min() < 0 or ids.max() >= V)):
            raise DimensionError(f"output_layer: targets {ids.shape} are not {lead} ids < {V}")
        rows, ids = np.arange(ids.size), ids.reshape(-1)
        y = logp[rows, ids].reshape(lead)

    def grad(dy):
        if targets is None:
            dy = dy.reshape(-1, V)
            dlogits = dy - np.exp(logp) * dy.sum(axis=1, keepdims=True)
        else:
            dy = dy.reshape(-1, 1)
            dlogits = np.exp(logp) * -dy
            dlogits[rows, ids] += dy[:, 0]
        da = (dlogits @ W_l.T) * (1.0 - hidden * hidden)
        dx = (da @ W_h.T).reshape(*lead, N)
        return (*_split(dx, parts), Outer(x, da), Outer(None, da),
                Outer(hidden, dlogits), Outer(None, dlogits))

    return _record("output_layer", (*parts, W_h, b_h, W_l, b_l), y, grad)


def backward(graph: Graph, loss: Tensor) -> dict[str, Tensor]:
    """Gradient of a scalar loss w.r.t. every parameter in the graph's store.

    Parameters the loss never touched map to zero tensors of matching shape.
    """
    if loss.ndim != 0:
        raise ContractError(f"loss must be scalar, got shape {loss.shape}")
    if id(loss) not in graph._produced:
        raise ContractError("loss is not a node of this graph")

    acc: dict[int, np.ndarray] = {id(loss): np.asarray(1.0, dtype=graph.dtype)}
    deferred: dict[int, list] = {}
    for node in reversed(graph.nodes):
        if isinstance(node.output, tuple):
            dy = tuple(_pop_gradient(t, acc, deferred) for t in node.output)
            if all(d is None for d in dy):
                continue
        else:
            dy = _pop_gradient(node.output, acc, deferred)
            if dy is None:
                continue
        for t, g in zip(node.inputs, node.grad_fn(dy)):
            if g is None:
                continue
            key = id(t)
            if type(g) is Outer or type(g) is Rows:
                deferred.setdefault(key, []).append(g)
            elif key in acc:
                acc[key] = acc[key] + g
            else:
                acc[key] = g

    grads = {}
    for name, t in graph.store.items():
        g = _pop_gradient(t, acc, deferred)
        grads[name] = Tensor(g if g is not None else np.zeros_like(t.data))
    return grads
