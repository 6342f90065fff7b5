"""Dense tensors with reverse-mode automatic differentiation.

A ``Tensor`` wraps a C-contiguous numpy array (float32 for training,
float64 for gradient checking) together with an optional gradient
buffer.  Operations record their parents and a backward closure, so the
set of tensors reachable from a loss value forms an acyclic, implicitly
topologically ordered computation graph; ``Tensor.backward`` walks it in
reverse and accumulates gradients.

Reductions delegate to numpy's pairwise summation, which has a fixed
order for a given build, so repeated runs on one machine are
bit-identical.  Tensors produced by an operation are never mutated;
between steps the optimizer rebinds each parameter's ``data`` to a
new array.

Every operation checks its result for NaN/Inf (a hard error per the
numeric contract).

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
from typing import Callable, Iterable, Optional

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


def _require_finite(data: np.ndarray, where: str) -> None:
    if not np.isfinite(data).all():
        raise NumericError(f"non-finite values produced by {where}")


class Tensor:
    """n-dimensional real array with an optional gradient buffer."""

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward_fn", "name")

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
        if delta.shape != self.data.shape:
            raise ShapeError(
                f"gradient shape {delta.shape} does not match tensor shape {self.data.shape}"
            )
        if self.grad is None:
            # a copy, never a view: ops such as concat_channels pass views
            # of their upstream gradient, and later deltas add in place
            self.grad = delta.astype(self.data.dtype)
        else:
            self.grad += delta

    def zero_grad(self) -> None:
        self.grad = None

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
        """Reverse-topological gradient accumulation from a scalar loss."""
        if self.data.size != 1:
            raise GraphStateError("backward requires a scalar loss node")
        if self._backward_fn is None and not self._parents and not self.requires_grad:
            raise GraphStateError("backward called on a tensor with no recorded graph")
        order = self.graph_nodes()
        self.grad = np.ones_like(self.data)
        for node in reversed(order):
            if node._backward_fn is not None and node.grad is not None:
                node._backward_fn(node.grad)
        _require_finite_grads(order)


def _require_finite_grads(order: Iterable[Tensor]) -> None:
    for node in order:
        if node.requires_grad and node.grad is not None and not np.isfinite(node.grad).all():
            raise NumericError("non-finite gradient produced during backward")


def _as_tensor(value, dtype) -> Tensor:
    if isinstance(value, Tensor):
        return value
    return Tensor(np.asarray(value, dtype=dtype))


def make_op(
    data: np.ndarray,
    parents: tuple,
    backward_fn: Optional[Callable[[np.ndarray], None]],
    where: str,
) -> Tensor:
    """Wrap an op result, propagating requires_grad and checking finiteness.

    Under ``no_grad()`` the parents and the backward closure are dropped.
    """
    _require_finite(data, where)
    needs_grad = _RECORDING and any(p.requires_grad for p in parents)
    if not needs_grad:
        backward_fn = None
        parents = ()
    return Tensor(data, requires_grad=needs_grad, parents=parents, backward_fn=backward_fn)


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
    out_data = a.data * b.data

    def backward(grad: np.ndarray) -> None:
        if a.requires_grad:
            a.accumulate_grad(_reduce_to(grad * b.data, a.shape))
        if b.requires_grad:
            b.accumulate_grad(_reduce_to(grad * a.data, b.shape))

    return make_op(out_data, (a, b), backward, "mul")


def div(a: Tensor, b) -> Tensor:
    b = _as_tensor(b, a.dtype)
    if a.shape != b.shape and a.size != 1 and b.size != 1:
        raise ShapeError(f"div: incompatible shapes {a.shape} and {b.shape}")
    with np.errstate(divide="ignore", invalid="ignore"):
        out_data = a.data / b.data

    def backward(grad: np.ndarray) -> None:
        if a.requires_grad:
            a.accumulate_grad(_reduce_to(grad / b.data, a.shape))
        if b.requires_grad:
            b.accumulate_grad(_reduce_to(-grad * a.data / (b.data * b.data), b.shape))

    return make_op(out_data, (a, b), backward, "div")


def log(x: Tensor) -> Tensor:
    with np.errstate(divide="ignore", invalid="ignore"):
        out_data = np.log(x.data)

    def backward(grad: np.ndarray) -> None:
        if x.requires_grad:
            x.accumulate_grad(grad / x.data)

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

    def backward(grad: np.ndarray) -> None:
        if x.requires_grad:
            x.accumulate_grad(np.full_like(x.data, grad))

    return make_op(out_data, (x,), backward, "sum")


def _reduce_to(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum a broadcasted gradient back down to the original operand shape."""
    if grad.shape == shape:
        return grad
    return np.asarray(grad.sum(), dtype=grad.dtype).reshape(shape)
