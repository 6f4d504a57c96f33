"""Reverse-mode automatic differentiation over dense float64 tensors.

A Tensor wraps a numpy array and records the primitive that produced it.
Calling backward() on a scalar output walks the recorded graph once in
reverse topological order and accumulates (sums) gradients into every
leaf with requires_grad=True; intermediate gradients are discarded.
"""

from __future__ import annotations

import numpy as np


def _unbroadcast(grad: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum a gradient down to the shape it was broadcast from."""
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    for axis, dim in enumerate(shape):
        if dim == 1 and grad.shape[axis] != 1:
            grad = grad.sum(axis=axis, keepdims=True)
    return grad.reshape(shape)


class Tensor:
    """Node of the autodiff graph; leaves carry requires_grad."""

    __slots__ = ("data", "requires_grad", "grad", "_parents", "_vjps")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
        self.requires_grad = bool(requires_grad)
        self.grad = None
        self._parents = ()
        self._vjps = ()

    # -- construction helpers -------------------------------------------------

    @staticmethod
    def _lift(x) -> "Tensor":
        return x if isinstance(x, Tensor) else Tensor(x)

    @staticmethod
    def _node(data, parents, vjps) -> "Tensor":
        out = Tensor(data)
        tracked = tuple(p for p, v in zip(parents, vjps) if p._tracked())
        if tracked:
            out._parents = tuple(parents)
            out._vjps = tuple(vjps)
        return out

    def _tracked(self) -> bool:
        return self.requires_grad or bool(self._parents)

    @property
    def shape(self):
        return self.data.shape

    # -- primitives -----------------------------------------------------------

    def __add__(self, other):
        a, b = self, Tensor._lift(other)
        return Tensor._node(
            a.data + b.data,
            (a, b),
            (lambda g: _unbroadcast(g, a.data.shape), lambda g: _unbroadcast(g, b.data.shape)),
        )

    __radd__ = __add__

    def __neg__(self):
        return Tensor._node(-self.data, (self,), (lambda g: -g,))

    def __sub__(self, other):
        return self + (-Tensor._lift(other))

    def __rsub__(self, other):
        return Tensor._lift(other) + (-self)

    def __mul__(self, other):
        a, b = self, Tensor._lift(other)
        return Tensor._node(
            a.data * b.data,
            (a, b),
            (
                lambda g: _unbroadcast(g * b.data, a.data.shape),
                lambda g: _unbroadcast(g * a.data, b.data.shape),
            ),
        )

    __rmul__ = __mul__

    def __matmul__(self, other):
        a, b = self, Tensor._lift(other)
        ad, bd = a.data, b.data

        def vjp_a(g):
            if bd.ndim == 1:
                return np.outer(g, bd) if ad.ndim == 2 else g * bd
            return g @ bd.T

        def vjp_b(g):
            if bd.ndim == 1:
                return ad.T @ g
            return ad.T @ g

        return Tensor._node(ad @ bd, (a, b), (vjp_a, vjp_b))

    def sum(self):
        return Tensor._node(
            np.sum(self.data), (self,), (lambda g: np.full(self.data.shape, float(g)),)
        )

    def mean(self):
        n = self.data.size
        return Tensor._node(
            np.mean(self.data), (self,), (lambda g: np.full(self.data.shape, float(g) / n),)
        )

    @property
    def T(self):
        """Transpose of a 2-D tensor."""
        return Tensor._node(self.data.T, (self,), (lambda g: g.T,))

    def row(self, index):
        """Gather row(s) of a 2-D tensor by an int or an int array.

        The gradient scatter-adds back, so a row gathered twice receives
        the sum of both contributions.
        """
        index = np.asarray(index, dtype=np.intp)

        def vjp(g):
            out = np.zeros_like(self.data)
            np.add.at(out, index, g)
            return out

        return Tensor._node(self.data[index], (self,), (vjp,))

    def sigmoid(self):
        s = _sigmoid(self.data)
        return Tensor._node(s, (self,), (lambda g: g * s * (1.0 - s),))

    def silu(self):
        s = _sigmoid(self.data)
        x = self.data
        return Tensor._node(x * s, (self,), (lambda g: g * (s * (1.0 + x * (1.0 - s))),))

    def softplus(self):
        x = self.data
        out = np.maximum(x, 0.0) + np.log1p(np.exp(-np.abs(x)))
        return Tensor._node(out, (self,), (lambda g: g * _sigmoid(x),))


def _sigmoid(x: np.ndarray) -> np.ndarray:
    out = np.empty_like(x, dtype=np.float64)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def backward(output: Tensor) -> dict:
    """Backpropagate from a scalar output; returns {leaf: gradient array}.

    Gradients are also summed into leaf.grad, so repeated calls
    accumulate until the caller zeroes them.
    """
    if output.data.ndim != 0:
        raise ValueError("backward requires scalar")

    # iterative topological order over the reachable subgraph
    order: list[Tensor] = []
    seen: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(output, False)]
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
            if id(p) not in seen and p._tracked():
                stack.append((p, False))

    grads: dict[int, np.ndarray] = {id(output): np.asarray(1.0)}
    leaf_grads: dict[Tensor, np.ndarray] = {}
    for node in reversed(order):
        g = grads.pop(id(node), None)
        if g is None:
            continue
        if node.requires_grad:
            if node.grad is None:
                node.grad = np.zeros_like(node.data)
            node.grad += g
            if node in leaf_grads:
                leaf_grads[node] = leaf_grads[node] + g
            else:
                leaf_grads[node] = np.array(g, dtype=np.float64, copy=True)
        for p, vjp in zip(node._parents, node._vjps):
            if not p._tracked():
                continue
            contrib = vjp(g)
            if id(p) in grads:
                grads[id(p)] = grads[id(p)] + contrib
            else:
                grads[id(p)] = contrib
    return leaf_grads


def zero_grads(params) -> None:
    for p in params:
        p.grad = None
