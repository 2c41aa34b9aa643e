"""Dense tensor values with reverse-mode automatic differentiation.

A ``Tensor`` wraps a contiguous, read-only numpy buffer. Feature maps use the
4-d layout (batch, channel, height, width) in row-major order: element
(i, j, y, x) lives at flat index ((i*c + j)*h + y)*w + x. Vectors (biases,
attention weights) are lower-rank tensors over the same machinery.

Every operation is a pure function from input tensors to a fresh output
tensor; the op graph is recorded on the outputs so that ``backward`` can
push gradients from a scalar loss to every leaf marked ``requires_grad``.
An op none of whose inputs requires grad records nothing, so inference over
such tensors holds no graph. ``backward`` consumes the graph it walks: each
intermediate tensor, its gradient and what its op saved are freed once its
last consumer has run, so a training step peaks at little more than its
parameter gradients. Only leaves keep ``.grad``.

Ops run inside a ``scope`` carry its module path (``sce.local_3x3``,
``top_down.add_F3``): a shape or configuration error leaving the scope names
the path, and a trace files every op under it. The cost tables are read off
such a trace (see :mod:`cefpn.cost`).
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from .errors import ConfigError, ContractError, ShapeError, _check_4d, _check_int, \
    _check_spatial_vector

DTYPES = {"float64": np.float64, "float32": np.float32}


# The module path of the ops now running, and the op list of the active trace.
_scope: str | None = None
_trace: list | None = None


class scope:
    """Run a block of ops under one module path, e.g. ``scope("lateral.C4")``.

    A ``ShapeError`` or ``ConfigError`` leaving the block is re-raised with
    the path as a prefix. Scopes nest; the innermost path names the ops.
    """

    __slots__ = ("path", "_outer")

    def __init__(self, path: str):
        self.path = path

    def __enter__(self) -> None:
        global _scope
        self._outer, _scope = _scope, self.path

    def __exit__(self, kind, err, tb) -> None:
        global _scope
        _scope = self._outer
        if err is not None and isinstance(err, (ShapeError, ConfigError)):
            raise type(err)(f"{self.path}: {err}") from err


def _traced(run: Callable[[], object]) -> list[tuple]:
    """Call ``run()`` and return every op it recorded, in order, as
    (module path, op name, output shape, parent shapes). An op recorded
    outside any scope raises ``ContractError``: it would have no row."""
    global _trace
    _trace = []
    try:
        run()
        return _trace
    finally:
        _trace = None


def _freeze(a: np.ndarray) -> np.ndarray:
    """``np.ascontiguousarray(a)``, read-only. The call, which copies a
    non-contiguous array and lifts rank 0 to shape (1,), is skipped when it
    would return ``a`` itself."""
    if a.ndim == 0 or not a.flags.c_contiguous:
        a = np.ascontiguousarray(a)
    a.setflags(write=False)
    return a


class Tensor:
    """Immutable dense array plus the autodiff bookkeeping that produced it."""

    __slots__ = ("data", "requires_grad", "grad", "_parents", "_grad_fn", "_op", "__weakref__")

    def __init__(self, data, requires_grad: bool = False):
        arr = np.array(data, copy=True)
        if not np.issubdtype(arr.dtype, np.floating):
            arr = arr.astype(np.float64)
        self.data = _freeze(arr)
        self.requires_grad = requires_grad
        self.grad: np.ndarray | None = None
        self._parents: tuple[Tensor, ...] = ()
        self._grad_fn: Callable[[np.ndarray], tuple] | None = None
        self._op = "leaf"

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def dtype(self):
        return self.data.dtype

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        if self.data.size != 1:
            raise ContractError(f"item() needs a single-element tensor, got shape {self.shape}")
        return float(self.data.reshape(()))

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, dtype={self.dtype.name}, op={self._op})"


def _wrap(data: np.ndarray, requires_grad: bool = False) -> Tensor:
    """Freeze a fresh buffer into a tensor without copying it; the caller
    must hold no other reference it will write through."""
    out = Tensor.__new__(Tensor)
    out.data = _freeze(data)
    out.requires_grad = requires_grad
    out.grad = None
    out._parents = ()
    out._grad_fn = None
    out._op = "leaf"
    return out


def _record(op: str, out_data: np.ndarray, parents: tuple[Tensor, ...],
            grad_fn: Callable[[np.ndarray], tuple]) -> Tensor:
    """Wrap an op result without copying. The graph edge is kept only when
    some parent requires grad; otherwise the output stores no parents and no
    ``grad_fn``, so nothing the op saved for backward outlives the call."""
    if _trace is not None:
        if _scope is None:
            raise ContractError(f"{op} ran outside any scope during a trace")
        _trace.append((_scope, op, out_data.shape, tuple(p.shape for p in parents)))
    requires_grad = False
    for p in parents:
        if p.requires_grad:
            requires_grad = True
            break
    out = Tensor.__new__(Tensor)  # _wrap, inline
    out.data = _freeze(out_data)
    out.requires_grad = requires_grad
    out.grad = None
    out._op = op
    if requires_grad:
        out._parents = parents
        out._grad_fn = grad_fn
    else:
        out._parents = ()
        out._grad_fn = None
    return out


def _topo_order(root: Tensor) -> list[Tensor]:
    order: list[Tensor] = []
    seen: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for p in node._parents:
            if id(p) not in seen:
                stack.append((p, False))
    return order


class GradTape:
    """The op graph below one root, in topological (leaves-first) order.

    One tape per forward pass; tapes are not shared across concurrent passes.
    A tape holds its nodes alive but not their graph: once ``backward`` has
    consumed it, a new tape of the loss is just the loss.
    """

    def __init__(self, root: Tensor):
        self.nodes = _topo_order(root)

    def leaves(self) -> list[Tensor]:
        """Nodes with no ``grad_fn``: inputs, parameters, and the outputs of
        ops none of whose inputs required grad. A node ``backward`` has
        consumed is still no leaf."""
        return [n for n in self.nodes if n._grad_fn is None]


def _consumed(g: np.ndarray) -> tuple:
    """Stands in for the freed ``grad_fn`` of a node ``backward`` has passed,
    so a consumed node is told apart from a leaf (``None``)."""
    raise ContractError("backward through a consumed graph")


def backward(loss: Tensor) -> None:
    """Fill ``.grad`` on every requires_grad leaf reachable from ``loss``,
    consuming the graph as it goes.

    Gradients are overwritten, not accumulated across calls; within one call
    fan-out contributions sum as usual. The first contribution to a tensor is
    stored as returned, without a copy; later ones are summed out of place.
    Every stored gradient is read-only, because one buffer may be shared by
    several tensors (both parents of ``add`` receive the same array). Each
    ``grad_fn`` must return, per parent, ``None`` or an array of exactly that
    parent's shape and dtype; anything else raises ``ContractError`` naming
    the op, as does a loss that does not require grad (no gradient could
    reach any tensor).

    Nodes are popped from the loss down. Before a node's ``grad_fn`` runs,
    the node drops it (for the ``_consumed`` sentinel), its parents and its
    gradient; ``_op`` and ``data`` stay. So once its last consumer has run,
    each intermediate tensor, its gradient and whatever its op saved for
    backward (padded input, relu mask, max-pool argmax) are freed unless the
    caller still holds the tensor. Afterwards:

    - ``.grad`` is kept on leaves only (tensors recorded with no parents);
    - a later ``backward`` whose graph reaches a consumed node, whether
      through the same loss or a new op built over a consumed output, raises
      ``ContractError`` naming that node's op and changes no gradient.
    """
    if loss.data.size != 1:
        raise ContractError(f"loss must be scalar, got shape {loss.shape}")
    if not loss.requires_grad:
        raise ContractError("loss does not require grad: no tensor it was computed "
                            "from has requires_grad=True")
    nodes = _topo_order(loss)
    for node in nodes:
        if node._grad_fn is _consumed:
            raise ContractError(f"{node._op}: its graph was consumed by an earlier backward; "
                                f"run the forward again")
    for node in nodes:
        node.grad = None
    loss.grad = _freeze(np.ones_like(loss.data))
    while nodes:
        node = nodes.pop()
        grad_fn, parents, grad = node._grad_fn, node._parents, node.grad
        if grad_fn is None:
            continue
        node._grad_fn, node._parents, node.grad = _consumed, (), None
        if grad is not None and node.requires_grad:
            parent_grads = grad_fn(grad)
            grad_fn = grad = None
            for parent, g in zip(parents, parent_grads):
                if g is None or not parent.requires_grad:
                    continue
                if g.shape != parent.shape or g.dtype != parent.dtype:
                    raise ContractError(
                        f"{node._op}: backward returned a {g.dtype.name} gradient of shape "
                        f"{g.shape} for a {parent.dtype.name} input of shape {parent.shape}")
                if parent.grad is not None:
                    g = parent.grad + g
                g.flags.writeable = False
                parent.grad = g
        # drop this node's closure, parents and gradient before the next pops
        grad_fn = parents = grad = parent_grads = parent = g = None


# ---------------------------------------------------------------------------
# elementwise and structural ops
# ---------------------------------------------------------------------------

def add(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise sum; shapes must match exactly."""
    if a.data.shape != b.data.shape:
        raise ShapeError(f"add: shapes {a.shape} and {b.shape} differ")
    return _record("add", a.data + b.data, (a, b), lambda g: (g, g))


def mul(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise product; shapes must match exactly."""
    if a.data.shape != b.data.shape:
        raise ShapeError(f"mul: shapes {a.shape} and {b.shape} differ")
    return _record("mul", a.data * b.data, (a, b), lambda g: (g * b.data, g * a.data))


def scale(x: Tensor, factor: float) -> Tensor:
    """Multiply every element by a python scalar."""
    f = float(factor)
    return _record("scale", x.data * f, (x,), lambda g: (g * f,))


def relu(x: Tensor) -> Tensor:
    mask = x.data > 0 if x.requires_grad else None
    return _record("relu", np.maximum(x.data, 0.0), (x,), lambda g: (g * mask,))


def sigmoid(x: Tensor) -> Tensor:
    """1 / (1 + exp(-d)) where d >= 0, else exp(d) / (1 + exp(d)): exp never
    sees a positive argument, so it cannot overflow. ``min(d, -d)`` is -|d|
    that keeps a NaN's sign, so a NaN input gives the NaN ``exp(d)`` does."""
    d = x.data
    e = np.exp(np.minimum(d, -d))
    t = 1.0 + e
    s = np.where(d >= 0, 1.0 / t, e / t)
    return _record("sigmoid", s, (x,), lambda g: (g * s * (1.0 - s),))


def mul_channelwise(x: Tensor, w: Tensor) -> Tensor:
    """Scale every spatial position of channel j of sample i by w[i, j].

    ``x`` is (n, c, h, w); ``w`` is (n, c), one weight vector per sample.
    """
    _check_4d("mul_channelwise: x", x)
    n, c = x.data.shape[:2]
    if w.data.shape != (n, c):
        raise ShapeError(f"mul_channelwise: weight shape {w.shape} is not (n, c) = {(n, c)}")
    wb = w.data.reshape(n, c, 1, 1)
    return _record("mul_channelwise", x.data * wb, (x, w),
                   lambda g: (g * wb, (g * x.data).sum(axis=(2, 3))))


def sum_all(x: Tensor) -> Tensor:
    """Reduce to a one-element tensor of shape (1,)."""
    return _record("sum_all", x.data.sum(keepdims=True).reshape(1), (x,),
                   lambda g: (np.broadcast_to(g, x.shape).copy(),))


def channel_slice(x: Tensor, start: int, stop: int) -> Tensor:
    """Select channels [start, stop) of a 4-d tensor."""
    _check_4d("channel_slice: x", x)
    _check_int("channel_slice: start", start)
    _check_int("channel_slice: stop", stop)
    c = x.shape[1]
    if not (0 <= start < stop <= c):
        raise ShapeError(f"channel_slice: range [{start}, {stop}) invalid for {c} channels")

    def grad_fn(g):
        gx = np.zeros_like(x.data)
        gx[:, start:stop] = g
        return (gx,)

    return _record("channel_slice", x.data[:, start:stop].copy(), (x,), grad_fn)


def broadcast_spatial(x: Tensor, height: int, width: int) -> Tensor:
    """Tile an (n, c, 1, 1) tensor to (n, c, height, width)."""
    _check_spatial_vector("broadcast_spatial", x)
    _check_int("broadcast_spatial: height", height, 1)
    _check_int("broadcast_spatial: width", width, 1)
    out = np.empty((x.shape[0], x.shape[1], height, width), dtype=x.dtype)
    out[...] = x.data
    return _record("broadcast_spatial", out, (x,),
                   lambda g: (g.sum(axis=(2, 3), keepdims=True),))


def squeeze_spatial(x: Tensor) -> Tensor:
    """Drop trailing unit spatial dims: (n, c, 1, 1) -> (n, c)."""
    _check_spatial_vector("squeeze_spatial", x)
    n, c = x.shape[0], x.shape[1]
    return _record("squeeze_spatial", x.data.reshape(n, c).copy(), (x,),
                   lambda g: (g.reshape(n, c, 1, 1),))
