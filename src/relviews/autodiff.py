"""Minimal reverse-mode tape over numpy arrays.

Deliberately not a general autodiff framework: only the vectorized ops the
graph encoder, cost head, and edit-distance computations need. The encoder
and the distance table work on stacks of same-size graphs, so `matmul`,
`take`, `pair_matrix`, `transpose` and the reductions accept leading batch
axes. Values are float64 throughout; gradients are accumulated on leaf Vars
created with ``requires_grad=True``.

A node's gradient is the first array handed to it, then the sum `grad + g`
per further contribution, in tape order. No gradient is ever updated in
place, so a backward fn may hand one array to several parents, or return a
view of its upstream gradient, without a copy. `FlatParams` packs a
model part's parameter tensors into one buffer, so optimizers and checks
run once per buffer, and binds them to leaf Vars for a pass.
"""
from __future__ import annotations

import numpy as np

from .errors import ConfigError, NumericError

__all__ = [
    "Var", "constant", "backward",
    "matmul", "take", "pair_matrix", "reshape", "transpose", "vsum", "vmean",
    "exp", "sqrt", "square", "tanh", "leaky_relu", "softplus",
    "pairwise_l2", "reduce_min", "where_select", "flat_views",
    "FlatParams", "fan_in_uniform",
]


def flat_views(arrays: list[np.ndarray]) -> tuple[np.ndarray, list[np.ndarray]]:
    """One contiguous float64 buffer holding `arrays` back to back, and one
    view of it per array, shaped like that array."""
    buf = np.empty(sum(arr.size for arr in arrays))
    views, start = [], 0
    for arr in arrays:
        view = buf[start:start + arr.size].reshape(arr.shape)
        view[...] = arr
        views.append(view)
        start += arr.size
    return buf, views


def fan_in_uniform(rng: np.random.Generator, shape: tuple) -> np.ndarray:
    """Uniform draws in [-1, 1) scaled by 1/sqrt(fan_in), fan_in = shape[0]."""
    return rng.uniform(-1.0, 1.0, size=shape) / np.sqrt(shape[0])


class FlatParams:
    """Parameter tensors stored back to back in one float64 `buffer`.

    `tensors` holds one view of `buffer` per stored tensor, `tensor_grads`
    one of `grad_buffer`. A subclass's `_named` names such a list, and may
    split a stored tensor into several named views; `grads` maps each name
    to its gradient view."""

    def __init__(self, tensors: list[np.ndarray]):
        self.buffer, self.tensors = flat_views(tensors)
        self.grad_buffer, self.tensor_grads = flat_views([np.zeros(t.shape) for t in tensors])
        self.grads = dict(self._named(self.tensor_grads))

    def _named(self, arrays: list[np.ndarray]) -> list[tuple[str, np.ndarray]]:
        raise NotImplementedError

    def named_tensors(self) -> list[tuple[str, np.ndarray]]:
        return self._named(self.tensors)

    def set_tensor(self, name: str, value: np.ndarray) -> None:
        arr = dict(self.named_tensors()).get(name)
        if arr is None:
            raise ConfigError(f"unknown tensor {name}")
        if arr.shape != value.shape:
            raise ConfigError(f"shape mismatch for {name}: {arr.shape} vs {value.shape}")
        arr[...] = value

    def zero_grads(self) -> None:
        self.grad_buffer.fill(0.0)

    def check_finite(self) -> None:
        if np.isfinite(self.buffer).all():
            return
        for name, arr in self.named_tensors():
            if not np.isfinite(arr).all():
                raise NumericError(f"non-finite parameter tensor {name}")

    def leaves(self, want_grad: bool) -> list[Var]:
        """One leaf Var per stored tensor, over its view of `buffer`."""
        return [Var(t, requires_grad=want_grad) for t in self.tensors]

    def accumulate(self, leaves: list[Var]) -> None:
        """Add the gradients of `leaves`' finished backward pass to `grad_buffer`."""
        for grad, v in zip(self.tensor_grads, leaves, strict=True):
            if v.grad is not None:
                grad += v.grad


def _unbroadcast(grad: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum out axes that were broadcast so grad matches the original shape."""
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    for ax, size in enumerate(shape):
        if size == 1 and grad.shape[ax] != 1:
            grad = grad.sum(axis=ax, keepdims=True)
    return grad.reshape(shape)


class Var:
    __slots__ = ("value", "grad", "requires_grad", "_parents", "_backward")

    def __init__(self, value, requires_grad=False, parents=(), backward=None):
        self.value = np.asarray(value, dtype=np.float64)
        self.grad = None
        self.requires_grad = requires_grad
        self._parents = parents
        self._backward = backward

    @property
    def shape(self):
        return self.value.shape

    def __repr__(self):
        return f"Var(shape={self.value.shape}, requires_grad={self.requires_grad})"

    def __add__(self, other):
        return _add(self, _wrap(other))

    def __sub__(self, other):
        return _sub(self, _wrap(other))

    def __mul__(self, other):
        return _mul(self, _wrap(other))

    def __truediv__(self, other):
        return _div(self, _wrap(other))


def constant(value) -> Var:
    return Var(value, requires_grad=False)


def _wrap(x) -> Var:
    return x if isinstance(x, Var) else Var(x, requires_grad=False)


def _node(value, parents, backward) -> Var:
    rg = any(p.requires_grad for p in parents)
    if not rg:
        return Var(value, requires_grad=False)
    return Var(value, requires_grad=True, parents=parents, backward=backward)


def _add(a: Var, b: Var) -> Var:
    def bk(g):
        return _unbroadcast(g, a.shape), _unbroadcast(g, b.shape)
    return _node(a.value + b.value, (a, b), bk)


def _sub(a: Var, b: Var) -> Var:
    def bk(g):
        return _unbroadcast(g, a.shape), _unbroadcast(-g, b.shape)
    return _node(a.value - b.value, (a, b), bk)


def _mul(a: Var, b: Var) -> Var:
    def bk(g):
        return _unbroadcast(g * b.value, a.shape), _unbroadcast(g * a.value, b.shape)
    return _node(a.value * b.value, (a, b), bk)


def _div(a: Var, b: Var) -> Var:
    def bk(g):
        return (_unbroadcast(g / b.value, a.shape),
                _unbroadcast(-g * a.value / (b.value * b.value), b.shape))
    return _node(a.value / b.value, (a, b), bk)


def matmul(a: Var, b: Var) -> Var:
    """Matrix product of (..., n, k) and (..., k, p) with broadcast batch axes."""
    def bk(g):
        ga = _unbroadcast(g @ np.swapaxes(b.value, -1, -2), a.shape) if a.requires_grad else None
        gb = _unbroadcast(np.swapaxes(a.value, -1, -2) @ g, b.shape) if b.requires_grad else None
        return ga, gb
    return _node(a.value @ b.value, (a, b), bk)


def reshape(a: Var, shape) -> Var:
    old = a.shape

    def bk(g):
        return (g.reshape(old),)
    return _node(a.value.reshape(shape), (a,), bk)


def transpose(a: Var, axes) -> Var:
    inverse = np.argsort(axes)

    def bk(g):
        return (g.transpose(inverse),)
    return _node(a.value.transpose(axes), (a,), bk)


def take(a: Var, idx, axis: int = 0) -> Var:
    """Index along one axis with indices in [0, n).

    The backward checks the indices: unique ones get `g` assigned into
    zeros, which is exact; repeated ones scatter through a one-hot matmul,
    so their gradients add up."""
    idx = np.asarray(idx, dtype=np.intp)
    axis %= a.value.ndim

    def bk(g):
        size = a.shape[axis]
        if np.bincount(idx, minlength=size).max(initial=0) <= 1:
            out = np.zeros(a.shape)
            out[(slice(None),) * axis + (idx,)] = g
            return (out,)
        onehot = (idx[:, None] == np.arange(size)).astype(np.float64)
        return (np.moveaxis(np.moveaxis(g, axis, -1) @ onehot, -1, axis),)
    return _node(np.take(a.value, idx, axis=axis), (a,), bk)


def pair_matrix(a: Var, idx_i: np.ndarray, idx_j: np.ndarray, n: int) -> Var:
    """Symmetric (..., n, n) matrices with a zero diagonal from pair values.

    `a` is (..., M, 1): one value per unordered pair (idx_i[r], idx_j[r]),
    and the pairs list each of the M = n(n-1)/2 pairs of n nodes once. Entry
    [i, j] and [j, i] both hold the pair's value; the backward is
    g[i, j] + g[j, i]."""
    assert a.shape[-2:] == (len(idx_i), 1), a.shape
    vals = a.value[..., 0]
    out = np.zeros(vals.shape[:-1] + (n, n))
    out[..., idx_i, idx_j] = vals
    out[..., idx_j, idx_i] = vals

    def bk(g):
        return ((g[..., idx_i, idx_j] + g[..., idx_j, idx_i])[..., None],)
    return _node(out, (a,), bk)


def vsum(a: Var, axis=None, keepdims=False) -> Var:
    def bk(g):
        if axis is None:
            return (np.full_like(a.value, 1.0) * g,)
        gg = g if keepdims else np.expand_dims(g, axis)
        return (np.broadcast_to(gg, a.shape).copy(),)
    return _node(a.value.sum(axis=axis, keepdims=keepdims), (a,), bk)


def vmean(a: Var, axis: int, keepdims=False) -> Var:
    count = a.shape[axis]

    def bk(g):
        gg = g if keepdims else np.expand_dims(g, axis)
        return (np.broadcast_to(gg, a.shape).copy() / count,)
    return _node(a.value.mean(axis=axis, keepdims=keepdims), (a,), bk)


def exp(a: Var) -> Var:
    val = np.exp(a.value)

    def bk(g):
        return (g * val,)
    return _node(val, (a,), bk)


def sqrt(a: Var) -> Var:
    val = np.sqrt(a.value)

    def bk(g):
        return (g * 0.5 / val,)
    return _node(val, (a,), bk)


def square(a: Var) -> Var:
    def bk(g):
        return (g * 2.0 * a.value,)
    return _node(a.value * a.value, (a,), bk)


def tanh(a: Var) -> Var:
    val = np.tanh(a.value)

    def bk(g):
        return (g * (1.0 - val * val),)
    return _node(val, (a,), bk)


def leaky_relu(a: Var, slope: float) -> Var:
    pos = a.value > 0

    def bk(g):
        return (g * np.where(pos, 1.0, slope),)
    return _node(np.where(pos, a.value, slope * a.value), (a,), bk)


def _sigmoid(x: np.ndarray, z: np.ndarray) -> np.ndarray:
    """Logistic function of x from z = exp(-|x|) <= 1, so neither branch overflows."""
    return np.where(x >= 0, 1.0 / (1.0 + z), z / (1.0 + z))


def softplus(a: Var) -> Var:
    """log(1 + exp(x)) as max(x, 0) + log1p(exp(-|x|)), which cannot overflow;
    the backward's sigmoid reuses exp(-|x|)."""
    x = a.value
    z = np.exp(-np.abs(x))

    def bk(g):
        return (g * _sigmoid(x, z),)
    return _node(np.maximum(x, 0.0) + np.log1p(z), (a,), bk)


def pairwise_l2(u: Var, v: Var, where: np.ndarray | None = None) -> Var:
    """All-pairs Euclidean distances, (..., m, d) x (p, d) -> (..., m, p).

    Exact forward via explicit differences; the backward uses the closed
    form dU = diag(W 1) u - W v with W = g / dist (0 where dist is 0).
    With a boolean `where` shaped like the result, only the entries where
    it is true are computed, gathered flat with the same arithmetic per
    entry, and every other entry is +inf. Each computed entry is then
    bit-identical to the full table's, and W = g / inf = 0 at the rest.
    """
    if where is None:
        diff = u.value[..., :, None, :] - v.value
        val = np.sqrt(np.square(diff, out=diff).sum(axis=-1))
    else:
        p, d = v.shape
        flat = np.flatnonzero(where)
        row, col = np.divmod(flat, p)
        diff = np.take(u.value.reshape(-1, d), row, axis=0)
        diff -= np.take(v.value, col, axis=0)
        val = np.full(where.shape, np.inf)
        np.put(val, flat, np.sqrt(np.square(diff, out=diff).sum(axis=-1)))

    def bk(g):
        w = np.where(val == 0.0, 0.0, g / np.where(val == 0.0, 1.0, val))
        gu = w.sum(axis=-1)[..., None] * u.value - w @ v.value if u.requires_grad else None
        gv = None
        if v.requires_grad:
            w2 = w.reshape(-1, w.shape[-1])
            gv = w2.sum(axis=0)[:, None] * v.value - w2.T @ u.value.reshape(-1, v.shape[-1])
        return gu, gv
    return _node(val, (u, v), bk)


def reduce_min(a: Var, axis: int) -> Var:
    """Min along an axis; gradient flows only to the recorded argmin slots.

    An input that needs no gradient records no argmin: its minimum is
    `min(axis)`, equal to the value at the argmin, NaN included, except that
    a row holding both zeros may give -0.0 where the argmin gives +0.0, or
    the reverse. No caller feeds -0.0: every one passes distances, square
    roots of sums of squares."""
    if not a.requires_grad:
        return Var(a.value.min(axis=axis))
    arg = a.value.argmin(axis=axis)
    val = np.take_along_axis(a.value, np.expand_dims(arg, axis), axis=axis).squeeze(axis)

    def bk(g):
        out = np.zeros_like(a.value)
        np.put_along_axis(out, np.expand_dims(arg, axis), np.expand_dims(g, axis), axis=axis)
        return (out,)
    v = _node(val, (a,), bk)
    return v


def where_select(cond: np.ndarray, a: Var, b: Var) -> Var:
    """Elementwise pick from a where cond else b; cond is a detached mask."""
    cond = np.asarray(cond, dtype=bool)

    def bk(g):
        return (_unbroadcast(np.where(cond, g, 0.0), a.shape),
                _unbroadcast(np.where(cond, 0.0, g), b.shape))
    return _node(np.where(cond, a.value, b.value), (a, b), bk)


def _toposort(root: Var) -> list[Var]:
    order: list[Var] = []
    seen: set[int] = set()
    stack: list[tuple[Var, bool]] = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in seen or not node.requires_grad:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for p in node._parents:
            if p.requires_grad and id(p) not in seen:
                stack.append((p, False))
    return order


def backward(root: Var, seed=None) -> None:
    """Backpropagate from `root` with upstream gradient `seed`, ones by default."""
    if not root.requires_grad:
        return
    g = np.ones_like(root.value) if seed is None else np.asarray(seed, dtype=np.float64)
    root.grad = g.copy() if root.grad is None else root.grad + g
    for node in reversed(_toposort(root)):
        if node._backward is None or node.grad is None:
            continue
        grads = node._backward(node.grad)
        for p, g in zip(node._parents, grads):
            if g is None or not p.requires_grad:
                continue
            # never in place: a backward fn may hand the same array to two parents
            p.grad = g if p.grad is None else p.grad + g
