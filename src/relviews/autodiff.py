"""A minimal reverse-mode tape over numpy arrays, and the closed forms its
nodes share.

A training step's tape has three nodes, each with a closed-form backward:
the graph encoder (`encoder.forward`, no parents; its backward fn adds the
encoder's parameter gradients), the distance table over the encoder's
output (`hed.hed_values_multi`, or the ablations' mean-pool matching in
`training`; its backward fn adds the cost head's gradients) and the anchor
loss over the table (`training`). Without a gradient none of them builds a
Var: each returns plain arrays. `backward` runs the tape once per step.

A node's gradient is the first array handed to it, then the sum `grad + g`
per further contribution, in tape order. No gradient is ever updated in
place, so a backward fn may hand one array to several parents, or return a
view of its upstream gradient, without a copy.

`pairwise_l2` and `pairwise_l2_grad` are the Euclidean distance table and
its closed-form gradient, which both distance tables use. `FlatParams`
packs a model part's parameter tensors into one buffer, one name per
tensor, the name a checkpoint stores it by, so optimizers and checks run
once per buffer, and closed-form backwards add into its `grad_buffer`.
Values are float64 throughout.
"""
from __future__ import annotations

import numpy as np

from .errors import ConfigError, NumericError

__all__ = [
    "Var", "backward", "pairwise_l2", "pairwise_l2_grad",
    "flat_views", "FlatParams", "fan_in_uniform",
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
    """Named parameter tensors stored back to back in one float64 `buffer`.

    Takes one (name, array) pair per stored tensor. `tensors` holds one view
    of `buffer` per tensor, `tensor_grads` one of `grad_buffer`, in the
    given order; `grads` maps each name to its gradient view."""

    def __init__(self, named: list[tuple[str, np.ndarray]]):
        self.names = [name for name, _ in named]
        self.buffer, self.tensors = flat_views([arr for _, arr in named])
        self.grad_buffer, self.tensor_grads = flat_views([np.zeros(t.shape) for t in self.tensors])
        self.grads = dict(zip(self.names, self.tensor_grads))

    def named_tensors(self) -> list[tuple[str, np.ndarray]]:
        return list(zip(self.names, self.tensors))

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


class Var:
    """A tape node: a value, the gradient handed to it, and a backward fn
    from that gradient to one gradient per parent (None for no gradient)."""
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


def _sigmoid(x: np.ndarray, z: np.ndarray) -> np.ndarray:
    """Logistic function of x from z = exp(-|x|) <= 1, so neither branch overflows."""
    out = np.where(x >= 0, 1.0, z)
    out /= 1.0 + z
    return out


# `pairwise_l2` distances at most this many eps times |u| + |v| are rounding noise
_ROUNDING = 64 * np.finfo(np.float64).eps

# Candidates per block of `pairwise_l2`'s `where` path: each (block, d)
# gather is 512 KB at d = 32, whatever the table's size. On a 2-vCPU x86_64
# host, BLAS at one thread, 9.9k random candidates of a (24, 16, 256) table
# took 1.21-1.25 ms in one block, 0.87-0.93 ms in blocks of 2048 and
# 1.05-1.07 ms in blocks of 4096; at 2.5k the block size made no difference.
_CANDIDATE_BLOCK = 2048


def pairwise_l2(u: np.ndarray, v: np.ndarray, where: np.ndarray | None = None) -> np.ndarray:
    """All-pairs Euclidean distances, (..., m, d) x (p, d) -> (..., m, p).

    Exact, via explicit differences. With a boolean `where` shaped like the
    result, only the entries where it is true are computed, gathered flat
    in consecutive blocks of `_CANDIDATE_BLOCK` with the same arithmetic per
    entry, and every other entry is +inf. Each computed entry is then
    bit-identical to the full table's, and the gathers stay the size of one
    block however many candidates there are.
    """
    if where is None:
        diff = u[..., :, None, :] - v
        return np.sqrt(np.square(diff, out=diff).sum(axis=-1))
    p, d = v.shape
    rows = u.reshape(-1, d)
    flat = np.flatnonzero(where)
    val = np.full(where.shape, np.inf)
    for start in range(0, flat.size, _CANDIDATE_BLOCK):
        block = flat[start:start + _CANDIDATE_BLOCK]
        row, col = np.divmod(block, p)
        diff = np.take(rows, row, axis=0)
        diff -= np.take(v, col, axis=0)
        np.put(val, block, np.sqrt(np.square(diff, out=diff).sum(axis=-1)))
    return val


def pairwise_l2_grad(g: np.ndarray, dist: np.ndarray, u: np.ndarray,
                     v: np.ndarray) -> np.ndarray:
    """Gradient w.r.t. u of sum(g * dist), dist = `pairwise_l2(u, v)`.

    The closed form dU = diag(W 1) u - W v with W = g / dist. W is 0,
    subgradient 0, where dist <= 64 eps (|u| + |v|): there u - v is rounding
    noise, and g / dist would send a unit-norm gradient along it. An entry
    left at +inf by `where` gets W = g / inf = 0.
    """
    norm_u = np.sqrt(np.square(u).sum(axis=-1))[..., None]
    noise = dist <= _ROUNDING * (norm_u + np.sqrt(np.square(v).sum(axis=-1)))
    w = np.where(noise, 0.0, g / np.where(noise, 1.0, dist))
    return w.sum(axis=-1)[..., None] * u - w @ v


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
