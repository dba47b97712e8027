"""Dense tensors with a reverse-mode differentiation tape.

Values are numpy arrays of rank 1..4 stored row-major; feature maps use the
canonical (batch, channels, height, width) layout. Every operation that can
participate in differentiation is a module-level function that computes the
forward value eagerly and, when a tape is active, records a backward rule.
Recording order is topological order, so replaying the tape in reverse
propagates gradients correctly.

Numerics policy: a non-finite forward value raises NumericsError at the op
that made it. Backward values are checked at leaf write-back: a NaN or Inf
in an intermediate gradient reaches a leaf under IEEE arithmetic, so it
raises there; nothing propagates silently. All reductions use a fixed
order, so repeated runs on identical inputs are bitwise identical in
single-threaded execution.
"""
from __future__ import annotations

from typing import Callable, Iterable, Sequence

import numpy as np

from . import metering

PRECISIONS = {"single": np.float32, "double": np.float64}
_PRECISION_NAMES = {np.dtype(np.float32): "single", np.dtype(np.float64): "double"}


class ShapeError(ValueError):
    """Operand shapes do not satisfy an operation's contract."""


class ContractError(ValueError):
    """An argument violates a documented precondition."""


class NumericsError(ArithmeticError):
    """A NaN or Inf appeared in the output of an operation."""


def _dtype_of(precision: str) -> np.dtype:
    try:
        return np.dtype(PRECISIONS[precision])
    except KeyError:
        raise ContractError(f"unknown precision {precision!r}; expected 'single' or 'double'")


def _check_finite(arr: np.ndarray, op: str, role: str = "output") -> None:
    if not np.isfinite(arr).all():
        raise NumericsError(f"non-finite values in {role} of {op}")


class Tensor:
    """A rank-1..4 array of scalars, optionally carrying a gradient buffer."""

    __slots__ = ("data", "grad", "requires_grad")

    def __init__(self, data: np.ndarray, requires_grad: bool = False):
        if data.dtype not in (np.float32, np.float64):
            raise ContractError(f"tensor dtype must be float32 or float64, got {data.dtype}")
        if not 1 <= data.ndim <= 4:
            raise ShapeError(f"tensor rank must be 1..4, got shape {data.shape}")
        self.data = data
        self.grad: np.ndarray | None = None
        self.requires_grad = requires_grad

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
    def precision(self) -> str:
        return _PRECISION_NAMES[self.data.dtype]

    def item(self) -> float:
        if self.data.size != 1:
            raise ContractError(f"item() needs a single-element tensor, got shape {self.shape}")
        return float(self.data.reshape(-1)[0])

    def numpy(self) -> np.ndarray:
        return np.array(self.data, copy=True)

    def __repr__(self) -> str:
        flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}, {self.precision}{flag})"


def tensor(values, precision: str = "single", requires_grad: bool = False) -> Tensor:
    """Build a tensor from array-like values, validating finiteness."""
    arr = np.asarray(values, dtype=_dtype_of(precision))
    if arr.ndim == 0:
        arr = arr.reshape(1)
    _check_finite(arr, "tensor", "input")
    return Tensor(np.ascontiguousarray(arr), requires_grad=requires_grad)


def zeros(shape: Sequence[int], precision: str = "single", requires_grad: bool = False) -> Tensor:
    return Tensor(np.zeros(tuple(shape), dtype=_dtype_of(precision)), requires_grad=requires_grad)


def uniform_param(shape: Sequence[int], fan_in: int, rng: np.random.Generator,
                  precision: str = "single") -> Tensor:
    """Fan-in-scaled uniform initialization in [-1/sqrt(fan_in), +1/sqrt(fan_in)]."""
    if fan_in < 1:
        raise ContractError(f"fan_in must be positive, got {fan_in}")
    bound = 1.0 / np.sqrt(float(fan_in))
    arr = rng.uniform(-bound, bound, size=tuple(shape)).astype(_dtype_of(precision))
    return Tensor(arr, requires_grad=True)


# ---------------------------------------------------------------------------
# Tape machinery
# ---------------------------------------------------------------------------

class _Node:
    __slots__ = ("name", "out", "fn")

    def __init__(self, name: str, out: Tensor, fn: Callable):
        self.name = name
        self.out = out
        self.fn = fn


class _BackwardPass:
    """Per-replay gradient accumulator keyed by tensor identity.

    Each node's output gradient is popped before its rule runs, so it is
    freed once consumed; what is left at the end, and written back, are the
    leaf gradients.
    """

    def __init__(self):
        self._entries: dict[int, list] = {}

    def seed(self, t: Tensor, arr: np.ndarray) -> None:
        self._entries[id(t)] = [t, arr]

    def pop(self, t: Tensor) -> np.ndarray | None:
        e = self._entries.pop(id(t), None)
        return None if e is None else e[1]

    def add(self, t: Tensor, arr: np.ndarray) -> None:
        if not t.requires_grad:
            return
        e = self._entries.get(id(t))
        if e is None:
            # Keep a reference; accumulation below never mutates in place.
            self._entries[id(t)] = [t, arr]
        else:
            e[1] = e[1] + arr

    def write_back(self) -> None:
        for t, arr in self._entries.values():
            if arr.shape != t.data.shape:
                arr = arr.reshape(t.data.shape)
            _check_finite(arr, "backward", "gradient")
            t.grad = arr.copy() if t.grad is None else t.grad + arr


_TAPES: list["Tape"] = []


class Tape:
    """Ordered record of operations; reverse replay implements backprop.

    Repeated backward() calls without reset() accumulate into .grad.
    reset() drops the recorded nodes and clears the gradients of every
    tensor the tape touched, leaving no stale buffers.
    """

    def __init__(self):
        self._nodes: list[_Node] = []
        self._seen: dict[int, Tensor] = {}

    def __enter__(self) -> "Tape":
        _TAPES.append(self)
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        popped = _TAPES.pop()
        assert popped is self, "tape stack corrupted"

    def __len__(self) -> int:
        return len(self._nodes)

    def _register(self, node: _Node, inputs: Iterable[Tensor]) -> None:
        self._nodes.append(node)
        self._seen[id(node.out)] = node.out
        for t in inputs:
            self._seen[id(t)] = t

    def backward(self, loss: Tensor) -> None:
        if loss.size != 1:
            raise ContractError(f"backward needs a scalar loss, got shape {loss.shape}")
        run = _BackwardPass()
        run.seed(loss, np.ones_like(loss.data))
        for node in reversed(self._nodes):
            g = run.pop(node.out)
            if g is None:
                continue
            node.fn(g, run)
        run.write_back()

    def reset(self) -> None:
        self._nodes.clear()
        for t in self._seen.values():
            t.grad = None
        self._seen.clear()


def backward(loss: Tensor, tape: Tape | None = None) -> None:
    """Propagate d(loss)/d(leaf) into .grad of every leaf ancestor of loss."""
    if tape is None:
        if not _TAPES:
            raise ContractError("backward called with no active tape")
        tape = _TAPES[-1]
    tape.backward(loss)


def record(name: str, inputs: Sequence[Tensor], out: Tensor, fn: Callable) -> None:
    """Attach a backward rule for `out` to the active tape, if any.

    `fn(upstream_grad, acc)` must push contributions via acc.add(input, grad).
    Exposed so composite modules can define fused operations.
    """
    if not _TAPES:
        return
    if any(t.requires_grad for t in inputs):
        out.requires_grad = True
        _TAPES[-1]._register(_Node(name, out, fn), inputs)


def _match_precision(a: Tensor, b: Tensor, op: str) -> None:
    if a.data.dtype != b.data.dtype:
        raise ContractError(f"{op}: mixed precisions {a.precision} vs {b.precision}")


def _match_shape(a: Tensor, b: Tensor, op: str) -> None:
    if a.shape != b.shape:
        raise ShapeError(f"{op}: shape mismatch {a.shape} vs {b.shape}")


# ---------------------------------------------------------------------------
# Elementwise and structural operations
# ---------------------------------------------------------------------------

def add(a: Tensor, b: Tensor) -> Tensor:
    _match_precision(a, b, "add")
    _match_shape(a, b, "add")
    out = Tensor(a.data + b.data)
    _check_finite(out.data, "add")

    def fn(g, acc):
        acc.add(a, g)
        acc.add(b, g)

    record("add", (a, b), out, fn)
    return out


def mul(a: Tensor, b: Tensor) -> Tensor:
    """Hadamard product of same-shape tensors."""
    _match_precision(a, b, "mul")
    _match_shape(a, b, "mul")
    out = Tensor(a.data * b.data)
    _check_finite(out.data, "mul")

    def fn(g, acc):
        acc.add(a, g * b.data)
        acc.add(b, g * a.data)

    record("mul", (a, b), out, fn)
    return out


def relu(a: Tensor) -> Tensor:
    out = Tensor(np.maximum(a.data, 0))
    _check_finite(out.data, "relu")

    def fn(g, acc):
        acc.add(a, g * (a.data > 0))

    record("relu", (a,), out, fn)
    return out


def reshape(a: Tensor, shape: Sequence[int]) -> Tensor:
    shape = tuple(shape)
    try:
        out_data = a.data.reshape(shape)
    except ValueError:
        raise ShapeError(f"reshape: cannot view {a.shape} as {shape}")
    out = Tensor(out_data)

    def fn(g, acc):
        acc.add(a, g.reshape(a.shape))

    record("reshape", (a,), out, fn)
    return out


def permute(a: Tensor, axes: Sequence[int]) -> Tensor:
    axes = tuple(axes)
    if sorted(axes) != list(range(a.ndim)):
        raise ShapeError(f"permute: axes {axes} invalid for rank {a.ndim}")
    inverse = tuple(np.argsort(axes))
    out = Tensor(a.data.transpose(axes))

    def fn(g, acc):
        acc.add(a, g.transpose(inverse))

    record("permute", (a,), out, fn)
    return out


def sum_all(a: Tensor) -> Tensor:
    out = Tensor(a.data.sum(dtype=a.data.dtype).reshape(1))
    _check_finite(out.data, "sum_all")

    def fn(g, acc):
        acc.add(a, np.full(a.shape, g.reshape(-1)[0], dtype=a.data.dtype))

    record("sum_all", (a,), out, fn)
    return out


# ---------------------------------------------------------------------------
# Attention
# ---------------------------------------------------------------------------

# Weights per group of blocks in window_attention: half of a 2 MiB L2 cache.
_ATTENTION_GROUP_BYTES = 1 << 20


def window_attention(q: Tensor, k: Tensor, v: Tensor, heads: int) -> tuple[Tensor, np.ndarray]:
    """Multi-head scaled dot-product attention of each query block on its kv block.

    q is (B, Tq, E) and k, v are (B, Tk, E): block b of q attends only to
    block b of k and v (one window pair, or one whole map for global
    attention), each of `heads` heads over its own d = E/heads channel
    slice. Returns the (B, Tq, E) context, heads concatenated in channel
    order, and a read-only (B, heads, Tq, Tk) view of the softmax weights.

    One tape node. The 1/sqrt(d) scale s is folded into q. Scores are laid
    out kv-major, (B, heads, Tk, Tq), so the softmax reduces over axis -2
    across whole rows of Tq, and runs in place on that one buffer; the
    backward keeps only those weights P. With O the output and G its
    gradient, in (Tq, Tk) layout per block and head:

        dV = Pᵀ·G,  dS = P∘(dP − rowsum(G∘O)) with dP = G·Vᵀ,
        dQ = s·dS·K,  dK = dSᵀ·(s·Q)

    rowsum(G∘O) equals the softmax backward's rowsum(dP∘P) and costs a pass
    over the output instead of one over the weights.

    Forward and backward walk the blocks in groups of about
    _ATTENTION_GROUP_BYTES of weights, so each group's softmax and products
    run while its scores are in cache. A group holds whole blocks and every
    step is per block, so the results do not depend on the grouping.

    The two products report their multiply-adds under the "attn_scores" and
    "attn_apply" tags, and the weights under the "weights" buffer.
    """
    _match_precision(q, k, "window_attention")
    _match_precision(q, v, "window_attention")
    if q.ndim != 3 or k.ndim != 3 or k.shape != v.shape:
        raise ShapeError(f"window_attention expects (B, Tq, E) q and equal (B, Tk, E) k, v; "
                         f"got {q.shape}, {k.shape}, {v.shape}")
    B, Tq, E = q.shape
    Tk = k.shape[1]
    if k.shape[0] != B or k.shape[2] != E:
        raise ShapeError(f"window_attention: q {q.shape} and k {k.shape} disagree")
    if heads < 1 or E % heads:
        raise ContractError(f"window_attention: {heads} heads do not divide width {E}")
    h, d = heads, E // heads
    s = 1.0 / float(np.sqrt(d))  # python float: float32 stays float32

    def split(x: np.ndarray) -> np.ndarray:
        """(B, T, E) -> (B, h, T, d) view."""
        return x.reshape(x.shape[0], x.shape[1], h, d).transpose(0, 2, 1, 3)

    per_group = max(1, _ATTENTION_GROUP_BYTES // (h * Tk * Tq * q.data.itemsize))
    groups = [slice(b, b + per_group) for b in range(0, B, per_group)]
    weights = np.empty((B, h, Tk, Tq), dtype=q.data.dtype)
    out_data = np.empty_like(q.data)
    qs, kh, vh, oh = split(q.data * s), split(k.data), split(v.data), split(out_data)
    for b in groups:
        w = weights[b]
        np.matmul(kh[b], qs[b].swapaxes(-1, -2), out=w)
        w -= w.max(axis=-2, keepdims=True)
        np.exp(w, out=w)
        w /= w.sum(axis=-2, keepdims=True)
        np.matmul(w.swapaxes(-1, -2), vh[b], out=oh[b])
    weights.flags.writeable = False
    macs = B * Tq * Tk * E
    with metering.tagged("attn_scores"):
        metering.add_macs(macs)
    metering.track_buffer("weights", weights.size)
    with metering.tagged("attn_apply"):
        metering.add_macs(macs)
    _check_finite(out_data, "window_attention")
    out = Tensor(out_data)

    def fn(g, acc):
        dq, dk, dv = np.empty_like(q.data), np.empty_like(k.data), np.empty_like(v.data)
        gh, dqh, dkh, dvh = split(g), split(dq), split(dk), split(dv)
        # Rebuilt here, not kept from the forward: only the weights outlive it.
        q_s, k_s, v_h = split(q.data * s), split(k.data * s), split(v.data)
        rowdot = split(g * out_data).sum(axis=-1)[:, :, None, :]
        for b in groups:
            p = weights[b]
            np.matmul(p, gh[b], out=dvh[b])
            ds = np.matmul(v_h[b], gh[b].swapaxes(-1, -2))
            ds -= rowdot[b]
            ds *= p
            np.matmul(ds.swapaxes(-1, -2), k_s[b], out=dqh[b])
            np.matmul(ds, q_s[b], out=dkh[b])
        acc.add(q, dq)
        acc.add(k, dk)
        acc.add(v, dv)

    record("window_attention", (q, k, v), out, fn)
    return out, weights.swapaxes(-1, -2)


def layer_norm(x: Tensor, gamma: Tensor, beta: Tensor, eps: float = 1e-5) -> Tensor:
    """Normalize over the channel axis independently at each spatial position.

    x is (N, C, H, W); gamma and beta are per-channel (C,). The variance is
    the biased estimate over C; eps floors it so constant inputs map to zero.
    """
    if x.ndim != 4:
        raise ShapeError(f"layer_norm expects (N, C, H, W), got {x.shape}")
    C = x.shape[1]
    if gamma.shape != (C,) or beta.shape != (C,):
        raise ShapeError(
            f"layer_norm: gamma/beta must be ({C},), got {gamma.shape} and {beta.shape}")
    _match_precision(x, gamma, "layer_norm")
    _match_precision(x, beta, "layer_norm")

    mean = x.data.mean(axis=1, keepdims=True)
    centered = x.data - mean
    var = (centered * centered).mean(axis=1, keepdims=True)
    inv_std = 1.0 / np.sqrt(var + eps)
    xhat = centered * inv_std
    gm = gamma.data.reshape(1, C, 1, 1)
    out_data = xhat * gm + beta.data.reshape(1, C, 1, 1)
    _check_finite(out_data, "layer_norm")
    out = Tensor(out_data)

    def fn(g, acc):
        dxhat = g * gm
        # Standard layer-norm backward over the channel axis.
        m1 = dxhat.mean(axis=1, keepdims=True)
        m2 = (dxhat * xhat).mean(axis=1, keepdims=True)
        acc.add(x, inv_std * (dxhat - m1 - xhat * m2))
        acc.add(gamma, (g * xhat).sum(axis=(0, 2, 3), dtype=x.data.dtype))
        acc.add(beta, g.sum(axis=(0, 2, 3), dtype=x.data.dtype))

    record("layer_norm", (x, gamma, beta), out, fn)
    return out
