"""A small reverse-mode automatic differentiation engine over numpy.

The :class:`Tensor` records the operations that produced it; calling
:meth:`Tensor.backward` walks the recorded graph in reverse topological
order and accumulates gradients into every tensor with
``requires_grad=True``.  The engine is deliberately compact: it supports
exactly the operations the SoCFlow model zoo needs (dense and
convolutional nets with batch norm), but each op has a correct,
broadcast-aware gradient and is covered by numerical gradient checks in
the test suite.

Every op does its array work through the kernel table
(:mod:`repro.nn.kernels`); views and shape arithmetic are plain numpy.
That is all the graph executor needs to replay a step: it records the
kernel calls, not the ops.
"""

from __future__ import annotations

import contextlib
from typing import Callable, Iterable, Sequence

import numpy as np

from . import kernels as K

__all__ = ["Tensor", "no_grad"]

_GRAD_ENABLED = True


@contextlib.contextmanager
def no_grad():
    """Disable graph recording inside the ``with`` block (like torch)."""
    global _GRAD_ENABLED
    previous = _GRAD_ENABLED
    _GRAD_ENABLED = False
    try:
        yield
    finally:
        _GRAD_ENABLED = previous


def grad_enabled() -> bool:
    """False inside :func:`no_grad`: no op records its backward."""
    return _GRAD_ENABLED


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Reduce ``grad`` back to ``shape`` undoing numpy broadcasting."""
    if grad.shape == shape:
        return grad
    # Sum over prepended axes.
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = K.sum(grad, axis=tuple(range(extra)))
    # Sum over axes that were broadcast from 1.
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and grad.shape[i] != 1)
    if axes:
        grad = K.sum(grad, axis=axes, keepdims=True)
    return grad.reshape(shape)


def _basic_index(index) -> bool:
    """True when ``array[index]`` is a view (no index arrays or masks)."""
    items = index if isinstance(index, tuple) else (index,)
    return all(
        item is None or item is Ellipsis
        or isinstance(item, (int, np.integer, slice))
        for item in items)


class Tensor:
    """An n-d array with an optional autograd tape.

    Parameters
    ----------
    data:
        Anything convertible to a ``float64``/``float32`` numpy array.
    requires_grad:
        When true, gradients are accumulated into :attr:`grad` during
        :meth:`backward`.
    """

    __slots__ = ("data", "grad", "requires_grad", "_backward", "_parents",
                 "name", "_grad_buf", "_grad_lease", "_flat")

    def __init__(self, data, requires_grad: bool = False, name: str = ""):
        if isinstance(data, Tensor):
            data = data.data
        self.data = np.asarray(data, dtype=np.float32)
        self.grad: np.ndarray | None = None
        self.requires_grad = bool(requires_grad)
        self._backward: Callable[[np.ndarray], None] | None = None
        self._parents: tuple[Tensor, ...] = ()
        self.name = name
        #: preallocated gradient storage (a view into a fused flat array
        #: when the owning module has been flattened); ``_accumulate``
        #: writes the first gradient here instead of allocating
        self._grad_buf: np.ndarray | None = None
        # ``_grad_lease`` and ``_flat`` stay unset: only a parameter bound
        # to fused storage carries them (see ``repro.nn.flat.PlaneParameter``)

    # ------------------------------------------------------------------
    # Basic protocol
    # ------------------------------------------------------------------
    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    @property
    def dtype(self):
        return self.data.dtype

    def __len__(self) -> int:
        return len(self.data)

    def __repr__(self) -> str:
        grad_note = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}{grad_note})"

    def numpy(self) -> np.ndarray:
        """The underlying array (not a copy)."""
        return self.data

    def item(self) -> float:
        if self.size != 1:
            raise ValueError("item() requires a single-element tensor")
        return float(self.data.reshape(()))

    def detach(self) -> "Tensor":
        return Tensor(self.data)

    def copy(self) -> "Tensor":
        return Tensor(self.data.copy(), requires_grad=self.requires_grad)

    def zero_grad(self) -> None:
        self.grad = None

    # ------------------------------------------------------------------
    # Graph construction helpers
    # ------------------------------------------------------------------
    @staticmethod
    def _make(data: np.ndarray, parents: Sequence["Tensor"],
              backward: Callable[[np.ndarray], None]) -> "Tensor":
        """The result tensor of an op.  ``data`` comes out of the kernel
        table (or is a view of something that did): a step being
        captured checks that here, and in :meth:`_accumulate` for
        gradients — the two places every value passes."""
        if K.trace is not None:
            K.trace.check(data)
        requires = _GRAD_ENABLED and any(p.requires_grad for p in parents)
        out = Tensor(data, requires_grad=requires)
        if requires:
            out._parents = tuple(parents)
            out._backward = backward
        return out

    def _accumulate(self, grad: np.ndarray) -> None:
        if not self.requires_grad:
            return
        if K.trace is not None:
            K.trace.check(grad)
        if self.grad is None:
            buf = self._grad_buf
            if buf is not None and buf.shape == grad.shape:
                # Writing into the fused buffer keeps the whole model
                # gradient contiguous.
                self.grad = K.copy(grad, out=buf)
            else:
                # Keep the freshly allocated copy as this tensor's gradient
                # buffer so the next step (same shape) reuses it instead of
                # allocating again.  C-ordered, so a gradient arriving as a
                # transposed/sliced view is stored canonically — downstream
                # reductions must not depend on the producer's layout.
                self.grad = self._grad_buf = K.copy(grad)
        else:
            K.add(self.grad, grad, out=self.grad)

    def backward(self, grad: np.ndarray | None = None) -> None:
        """Backpropagate ``grad`` (default: ones) through the graph."""
        if grad is None:
            if self.size != 1:
                raise ValueError("backward() without grad requires a scalar output")
            grad = K.ones(self.shape)
        grad = np.asarray(grad, dtype=np.float32)

        order: list[Tensor] = []
        visited: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                order.append(node)
                continue
            if id(node) in visited:
                continue
            visited.add(id(node))
            stack.append((node, True))
            for parent in node._parents:
                if id(parent) not in visited:
                    stack.append((parent, False))

        self._accumulate(grad)
        for node in reversed(order):
            if node._backward is not None and node.grad is not None:
                node._backward(node.grad)

    # ------------------------------------------------------------------
    # Arithmetic
    # ------------------------------------------------------------------
    @staticmethod
    def _coerce(other) -> "Tensor":
        return other if isinstance(other, Tensor) else Tensor(other)

    def __add__(self, other) -> "Tensor":
        other = self._coerce(other)

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(_unbroadcast(grad, self.shape))
            if other.requires_grad:
                other._accumulate(_unbroadcast(grad, other.shape))

        return self._make(K.add(self.data, other.data), (self, other),
                          backward)

    __radd__ = __add__

    def __neg__(self) -> "Tensor":
        def backward(grad: np.ndarray) -> None:
            self._accumulate(K.negative(grad))

        return self._make(K.negative(self.data), (self,), backward)

    def __sub__(self, other) -> "Tensor":
        return self + (-self._coerce(other))

    def __rsub__(self, other) -> "Tensor":
        return self._coerce(other) + (-self)

    def __mul__(self, other) -> "Tensor":
        other = self._coerce(other)

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(
                    _unbroadcast(K.multiply(grad, other.data), self.shape))
            if other.requires_grad:
                other._accumulate(
                    _unbroadcast(K.multiply(grad, self.data), other.shape))

        return self._make(K.multiply(self.data, other.data), (self, other),
                          backward)

    __rmul__ = __mul__

    def __truediv__(self, other) -> "Tensor":
        other = self._coerce(other)

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(
                    _unbroadcast(K.divide(grad, other.data), self.shape))
            if other.requires_grad:
                # -grad * self / other**2, left to right
                t = K.negative(grad)
                K.multiply(t, self.data, out=t)
                K.divide(t, K.square(other.data), out=t)
                other._accumulate(_unbroadcast(t, other.shape))

        return self._make(K.divide(self.data, other.data), (self, other),
                          backward)

    def __rtruediv__(self, other) -> "Tensor":
        return self._coerce(other) / self

    def __pow__(self, exponent: float) -> "Tensor":
        def backward(grad: np.ndarray) -> None:
            t = K.multiply(grad, exponent)
            K.multiply(t, K.power(self.data, exponent - 1), out=t)
            self._accumulate(t)

        return self._make(K.power(self.data, exponent), (self,), backward)

    def __matmul__(self, other) -> "Tensor":
        other = self._coerce(other)

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(_unbroadcast(
                    K.matmul(grad, np.swapaxes(other.data, -1, -2)),
                    self.shape))
            if other.requires_grad:
                other._accumulate(_unbroadcast(
                    K.matmul(np.swapaxes(self.data, -1, -2), grad),
                    other.shape))

        return self._make(K.matmul(self.data, other.data), (self, other),
                          backward)

    # ------------------------------------------------------------------
    # Reductions and shaping
    # ------------------------------------------------------------------
    def sum(self, axis=None, keepdims: bool = False) -> "Tensor":
        def backward(grad: np.ndarray) -> None:
            g = grad
            if axis is not None and not keepdims:
                g = np.expand_dims(g, axis)
            self._accumulate(np.broadcast_to(g, self.shape))

        return self._make(K.sum(self.data, axis=axis, keepdims=keepdims),
                          (self,), backward)

    def mean(self, axis=None, keepdims: bool = False) -> "Tensor":
        count = self.size if axis is None else np.prod(
            [self.shape[a] for a in (axis if isinstance(axis, tuple) else (axis,))])
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / float(count))

    def reshape(self, *shape) -> "Tensor":
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        original = self.shape

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad.reshape(original))

        return self._make(K.reshape(self.data, shape), (self,), backward)

    def transpose(self, *axes) -> "Tensor":
        if len(axes) == 1 and isinstance(axes[0], (tuple, list)):
            axes = tuple(axes[0])
        if not axes:
            axes = tuple(reversed(range(self.ndim)))
        inverse = np.argsort(axes)

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad.transpose(inverse))

        return self._make(self.data.transpose(axes), (self,), backward)

    def __getitem__(self, index) -> "Tensor":
        basic = _basic_index(index)
        data = self.data[index] if basic else K.take(self.data, index)
        if not isinstance(data, np.ndarray):    # one element: a copy too
            basic, data = False, K.take(self.data, index)

        def backward(grad: np.ndarray) -> None:
            if basic:
                # each element is selected at most once: assignment into
                # zeros equals the scatter-add
                full = K.zeros(self.shape)
                K.copy(grad, out=full[index])
            else:
                full = K.scatter_add(index, grad, self.shape)
            self._accumulate(full)

        return self._make(data, (self,), backward)

    # ------------------------------------------------------------------
    # Elementwise non-linearities
    # ------------------------------------------------------------------
    def relu(self) -> "Tensor":
        mask = K.greater(self.data, 0)

        def backward(grad: np.ndarray) -> None:
            self._accumulate(K.multiply(grad, mask))

        return self._make(K.multiply(self.data, mask), (self,), backward)

    def exp(self) -> "Tensor":
        out_data = K.exp(self.data)

        def backward(grad: np.ndarray) -> None:
            self._accumulate(K.multiply(grad, out_data))

        return self._make(out_data, (self,), backward)

    def log(self) -> "Tensor":
        def backward(grad: np.ndarray) -> None:
            self._accumulate(K.divide(grad, self.data))

        return self._make(K.log(self.data), (self,), backward)

    def sqrt(self) -> "Tensor":
        out_data = K.sqrt(self.data)

        def backward(grad: np.ndarray) -> None:
            t = K.multiply(grad, 0.5)
            self._accumulate(K.divide(t, out_data, out=t))

        return self._make(out_data, (self,), backward)

    def tanh(self) -> "Tensor":
        out_data = K.tanh(self.data)

        def backward(grad: np.ndarray) -> None:
            t = K.square(out_data)
            K.subtract(1.0, t, out=t)
            self._accumulate(K.multiply(grad, t, out=t))

        return self._make(out_data, (self,), backward)

    def clip(self, low: float, high: float) -> "Tensor":
        mask = K.greater_equal(self.data, low)
        K.logical_and(mask, K.less_equal(self.data, high), out=mask)

        def backward(grad: np.ndarray) -> None:
            self._accumulate(K.multiply(grad, mask))

        return self._make(K.clip(self.data, low, high), (self,), backward)

    def max(self, axis=None, keepdims: bool = False) -> "Tensor":
        out_data = K.amax(self.data, axis=axis, keepdims=keepdims)

        def backward(grad: np.ndarray) -> None:
            g = grad
            expanded = out_data
            if axis is not None and not keepdims:
                g = np.expand_dims(g, axis)
                expanded = np.expand_dims(out_data, axis)
            mask = K.copy(K.equal(self.data, expanded))
            K.divide(mask, K.sum(mask, axis=axis, keepdims=True), out=mask)
            self._accumulate(K.multiply(mask, g, out=mask))

        return self._make(out_data, (self,), backward)

    # ------------------------------------------------------------------
    # Structural ops used by conv nets
    # ------------------------------------------------------------------
    def pad2d(self, padding: int) -> "Tensor":
        """Zero-pad the last two axes of an NCHW tensor."""
        if padding == 0:
            return self
        p = padding
        # zeros + interior assignment: np.pad's generic per-axis
        # machinery costs ~3x this for the same bits (and, like it,
        # keeps a Fortran-ordered input's layout)
        out_data = K.zeros(self.shape[:-2] + (self.shape[-2] + 2 * p,
                                              self.shape[-1] + 2 * p),
                           self.data.dtype,
                           "F" if self.data.flags.fnc else "C")
        K.copy(self.data, out=out_data[..., p:-p, p:-p])

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad[..., p:-p, p:-p])

        return self._make(out_data, (self,), backward)

    @staticmethod
    def concatenate(tensors: Iterable["Tensor"], axis: int = 0) -> "Tensor":
        tensors = list(tensors)
        out_data = K.concatenate(axis, *[t.data for t in tensors])
        sizes = [t.shape[axis] for t in tensors]
        offsets = np.cumsum([0] + sizes)

        def backward(grad: np.ndarray) -> None:
            for tensor, start, stop in zip(tensors, offsets[:-1], offsets[1:]):
                index = [slice(None)] * grad.ndim
                index[axis] = slice(start, stop)
                tensor._accumulate(grad[tuple(index)])

        return Tensor._make(out_data, tensors, backward)
