"""Dense tensors with reverse-mode automatic differentiation.

A ``Tensor`` wraps a C-contiguous numpy array (float32 for training,
float64 for gradient checking) together with an optional gradient
buffer.  Operations record their parents and a backward closure, so the
set of tensors reachable from a loss value forms an acyclic, implicitly
topologically ordered computation graph; ``Tensor.backward`` walks it in
reverse and accumulates gradients.

``backward`` consumes the graph it walks.  As soon as a node's backward
closure has run, the node drops its gradient, closure and parents and
stops requiring a gradient, so an intermediate that no caller holds is
freed halfway through the walk.  Leaves and parameters keep their
gradients.  A second ``backward`` on a consumed graph raises
``GraphStateError``.

A backward closure binds, when its op runs, the arrays its backward
reads (an input, an operand, its own output, a noise factor or only a
shape) and keeps its parent tensors only to ask ``requires_grad`` and
to call ``accumulate_grad``.  An op whose output is a cheap elementwise
function of arrays the tape keeps anyway (a dropout output, a
concatenation) registers a recompute of it instead, and a consumer that
reads the output in its backward binds ``saved(x)``: that recompute if
there is one, else the array.  So a node's ``data`` is needed only by
later forward reads: ``release`` swaps it for a NaN placeholder once
those are done, and what a backward reads lives on in closures alone.
The placeholder catches only arithmetic reads (a comparison with NaN is
False, not NaN), so each op is checked against released parents in
``tests/test_ops.py``.  ``Network.forward`` releases each step output
after its last reader; the output or loss the caller holds keeps its
data.

Reductions delegate to numpy's pairwise summation, which has a fixed
order for a given build, so repeated runs on one machine are
bit-identical.  Tensors produced by an operation are never mutated;
between steps the optimizer rebinds each parameter's ``data`` to a
new array.

Every operation checks its result for NaN/Inf (a hard error per the
numeric contract), and ``backward`` checks each node's gradient once it
is complete; its error names the node when the node has a ``name``
(``Network.forward`` gives each step output its step's name).

Inside a ``no_grad()`` block operations record nothing: results have
``requires_grad=False``, no parents and no backward closure, so the
buffers a closure would keep for the backward pass (an ELU output, a
dropout factor, max-pool winners) are freed as soon as the operation
returns.  Inference runs this way; ``backward`` on such a result raises
``GraphStateError``.  Recording resumes when the block exits, also on
an exception.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Callable, Optional

import numpy as np

from .errors import GraphStateError, NumericError, ShapeError

_RECORDING = True


@contextmanager
def no_grad():
    """Run operations without recording the autodiff graph."""
    global _RECORDING
    previous = _RECORDING
    _RECORDING = False
    try:
        yield
    finally:
        _RECORDING = previous


def _require_finite(data: np.ndarray, what: str) -> None:
    if not np.isfinite(data).all():
        raise NumericError(f"non-finite {what}")


class Tensor:
    """n-dimensional real array with an optional gradient buffer."""

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward_fn", "_recompute", "name")

    def __init__(
        self,
        data,
        requires_grad: bool = False,
        parents: tuple = (),
        backward_fn: Optional[Callable[[np.ndarray], None]] = None,
        name: Optional[str] = None,
    ):
        arr = np.asarray(data)
        if arr.dtype not in (np.float32, np.float64):
            arr = arr.astype(np.float32)
        if not arr.flags["C_CONTIGUOUS"]:
            arr = np.ascontiguousarray(arr)
        self.data = arr
        self.grad: Optional[np.ndarray] = None
        self.requires_grad = bool(requires_grad)
        self._parents = parents
        self._backward_fn = backward_fn
        self._recompute: Optional[Callable[[], np.ndarray]] = None
        self.name = name

    # -- basic introspection -------------------------------------------------

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def dtype(self):
        return self.data.dtype

    @property
    def size(self) -> int:
        return self.data.size

    def __repr__(self) -> str:
        tag = f" name={self.name!r}" if self.name else ""
        return f"Tensor(shape={self.shape}, dtype={self.data.dtype.name}{tag})"

    # -- gradient plumbing ---------------------------------------------------

    def accumulate_grad(self, delta: np.ndarray) -> None:
        """Add ``delta`` to this tensor's gradient.

        Later deltas add in place, so a first delta that may be shared is
        copied: a view, or the upstream gradient, which ``backward`` hands
        each closure read-only (``add`` gives it to both operands).  A
        fresh array of this tensor's dtype, such as conv2d's dx, is kept.
        """
        if delta.shape != self.data.shape:
            raise ShapeError(
                f"gradient shape {delta.shape} does not match tensor shape {self.data.shape}"
            )
        if self.grad is not None:
            self.grad += delta
        elif delta.base is None and delta.flags.writeable and delta.dtype == self.data.dtype:
            self.grad = delta
        else:
            self.grad = np.array(delta, dtype=self.data.dtype)

    def zero_grad(self) -> None:
        self.grad = None

    def release(self) -> None:
        """Free ``data`` for the forward: keep its shape and dtype in a read-only,
        zero-strided NaN array.  A backward that still did arithmetic on it
        would fail the gradient finiteness check, but one that compared it
        (a mask from ``data > 0``) would get finite, wrong gradients; the
        guard for every op is ``test_backward_reads_no_released_parent``."""
        self.data = np.broadcast_to(np.array(np.nan, dtype=self.data.dtype), self.data.shape)

    def graph_nodes(self) -> list["Tensor"]:
        """All tensors reachable from this one, parents before children."""
        order: list[Tensor] = []
        seen: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                order.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for parent in node._parents:
                if id(parent) not in seen:
                    stack.append((parent, False))
        return order

    def backward(self) -> None:
        """Reverse-topological gradient accumulation from a scalar loss; consumes the graph."""
        if self.data.size != 1:
            raise GraphStateError("backward requires a scalar loss node")
        if self._backward_fn is None and not self._parents and not self.requires_grad:
            raise GraphStateError(
                "backward called on a tensor with no recorded graph (backward consumes the graph it walks)"
            )
        order = self.graph_nodes()
        self.grad = np.ones_like(self.data)
        while order:
            node = order.pop()
            grad = node.grad
            if grad is not None and node.requires_grad:
                # every consumer has run, so this gradient is complete
                try:
                    _require_finite(grad, "gradient produced during backward")
                except NumericError as exc:
                    if node.name is None:
                        raise
                    raise NumericError(f"{exc} at {node.name}") from exc
            if node._backward_fn is None:
                continue
            if grad is not None:
                grad.flags.writeable = False
                node._backward_fn(grad)
            node.grad = node._backward_fn = node._recompute = None
            node._parents = ()
            node.requires_grad = False


def _as_tensor(value, dtype) -> Tensor:
    if isinstance(value, Tensor):
        return value
    return Tensor(np.asarray(value, dtype=dtype))


def make_op(
    data: np.ndarray,
    parents: tuple,
    backward_fn: Optional[Callable[[np.ndarray], None]],
    where: str,
    recompute: Optional[Callable[[], np.ndarray]] = None,
) -> Tensor:
    """Wrap an op result, propagating requires_grad and checking finiteness.

    ``recompute`` rebuilds ``data`` bit for bit from arrays the tape keeps
    anyway; ``saved`` hands it to consumers.  Under ``no_grad()`` the
    parents, the backward closure and the recompute are dropped.
    """
    _require_finite(data, f"values produced by {where}")
    needs_grad = _RECORDING and any(p.requires_grad for p in parents)
    if not needs_grad:
        backward_fn = recompute = None
        parents = ()
    out = Tensor(data, requires_grad=needs_grad, parents=parents, backward_fn=backward_fn)
    out._recompute = recompute
    return out


def saved(x: Tensor) -> Callable[[], np.ndarray]:
    """What a backward binds to read ``x.data`` later: the recompute of the op
    that made ``x`` if it has one, so ``x`` can be released and rebuilt just
    before the read, else the array itself."""
    if x._recompute is not None:
        return x._recompute
    data = x.data
    return lambda: data


# -- elementwise and reduction ops used by the losses -------------------------


def add(a: Tensor, b) -> Tensor:
    b = _as_tensor(b, a.dtype)
    if a.shape != b.shape and a.size != 1 and b.size != 1:
        raise ShapeError(f"add: incompatible shapes {a.shape} and {b.shape}")
    out_data = a.data + b.data

    def backward(grad: np.ndarray) -> None:
        if a.requires_grad:
            a.accumulate_grad(_reduce_to(grad, a.shape))
        if b.requires_grad:
            b.accumulate_grad(_reduce_to(grad, b.shape))

    return make_op(out_data, (a, b), backward, "add")


def mul(a: Tensor, b) -> Tensor:
    b = _as_tensor(b, a.dtype)
    if a.shape != b.shape and a.size != 1 and b.size != 1:
        raise ShapeError(f"mul: incompatible shapes {a.shape} and {b.shape}")
    ad, bd = a.data, b.data
    out_data = ad * bd

    def backward(grad: np.ndarray) -> None:
        if a.requires_grad:
            a.accumulate_grad(_reduce_to(grad * bd, a.shape))
        if b.requires_grad:
            b.accumulate_grad(_reduce_to(grad * ad, b.shape))

    return make_op(out_data, (a, b), backward, "mul")


def div(a: Tensor, b) -> Tensor:
    b = _as_tensor(b, a.dtype)
    if a.shape != b.shape and a.size != 1 and b.size != 1:
        raise ShapeError(f"div: incompatible shapes {a.shape} and {b.shape}")
    ad, bd = a.data, b.data
    with np.errstate(divide="ignore", invalid="ignore"):
        out_data = ad / bd

    def backward(grad: np.ndarray) -> None:
        if a.requires_grad:
            a.accumulate_grad(_reduce_to(grad / bd, a.shape))
        if b.requires_grad:
            b.accumulate_grad(_reduce_to(-grad * ad / (bd * bd), b.shape))

    return make_op(out_data, (a, b), backward, "div")


def log(x: Tensor) -> Tensor:
    xd = x.data
    with np.errstate(divide="ignore", invalid="ignore"):
        out_data = np.log(xd)

    def backward(grad: np.ndarray) -> None:
        if x.requires_grad:
            x.accumulate_grad(grad / xd)

    return make_op(out_data, (x,), backward, "log")


def clip(x: Tensor, low: float, high: float) -> Tensor:
    """Clamp values; gradient passes through the interior, zero at the rails."""
    out_data = np.clip(x.data, low, high)
    inside = (x.data > low) & (x.data < high)

    def backward(grad: np.ndarray) -> None:
        if x.requires_grad:
            x.accumulate_grad(grad * inside.astype(x.dtype))

    return make_op(out_data, (x,), backward, "clip")


def tsum(x: Tensor) -> Tensor:
    """Full reduction to a scalar tensor (numpy pairwise summation order)."""
    out_data = np.asarray(x.data.sum(), dtype=x.dtype).reshape(())
    shape = x.shape

    def backward(grad: np.ndarray) -> None:
        if x.requires_grad:
            x.accumulate_grad(np.full(shape, grad, dtype=out_data.dtype))

    return make_op(out_data, (x,), backward, "sum")


def _reduce_to(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum a broadcasted gradient back down to the original operand shape."""
    if grad.shape == shape:
        return grad
    return np.asarray(grad.sum(), dtype=grad.dtype).reshape(shape)
