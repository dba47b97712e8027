"""Dense tensors with a reverse-mode differentiation tape.

Values are numpy arrays of rank 1..4 stored row-major; feature maps use the
canonical (batch, channels, height, width) layout. Every operation that can
participate in differentiation is a module-level function that computes the
forward value eagerly and, when a tape is active, records a backward rule.
Recording order is topological order, so replaying the tape in reverse
propagates gradients correctly.

Memory policy: the tape keeps an array only while a backward will read it
(the accounting of Chen et al., arXiv:1604.06174). A node stores keys for
its output and inputs, never a Tensor, and a rule pushes its i-th input's
gradient by position, so each rule captures only the arrays it reads. An op
output that no backward reads dies when the forward drops it. The tape holds
its leaves, which alone receive .grad.

Numerics policy: a non-finite forward value raises NumericsError at the op
that made it, named by its tape name. Every op that computes values
publishes its output through op_result, the one place that check happens;
ops that only re-lay checked values call record directly. Backward values
are checked at leaf write-back: a NaN or Inf in an intermediate gradient
reaches a leaf under IEEE arithmetic, so it raises there; nothing
propagates silently. All reductions use a fixed order, so repeated runs on
identical inputs are bitwise identical in single-threaded execution.
"""
from __future__ import annotations

import itertools
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

    __slots__ = ("data", "grad", "requires_grad", "key")

    def __init__(self, data: np.ndarray, requires_grad: bool = False):
        if data.dtype not in (np.float32, np.float64):
            raise ContractError(f"tensor dtype must be float32 or float64, got {data.dtype}")
        if not 1 <= data.ndim <= 4:
            raise ShapeError(f"tensor rank must be 1..4, got shape {data.shape}")
        self.data = data
        self.grad: np.ndarray | None = None
        self.requires_grad = requires_grad
        self.key: tuple | None = None  # set when a tape records the op that made it

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


def tensor(values, precision: str | None = None, requires_grad: bool = False) -> Tensor:
    """Build a tensor from array-like values, validating finiteness.

    With no precision a float32 or float64 ndarray keeps its dtype, as in
    np.asarray; lists, scalars and integer arrays become single."""
    if precision is None:
        precision = (_PRECISION_NAMES.get(values.dtype, "single")
                     if isinstance(values, np.ndarray) else "single")
    arr = np.asarray(values, dtype=_dtype_of(precision))
    if arr.ndim == 0:
        arr = arr.reshape(1)
    _check_finite(arr, "tensor", "input")
    return Tensor(np.ascontiguousarray(arr), requires_grad=requires_grad)


def zeros(shape: Sequence[int], requires_grad: bool = False) -> Tensor:
    return Tensor(np.zeros(tuple(shape)), requires_grad=requires_grad)


def uniform_param(shape: Sequence[int], fan_in: int, rng: np.random.Generator) -> Tensor:
    """Fan-in-scaled uniform initialization in [-1/sqrt(fan_in), +1/sqrt(fan_in)]."""
    if fan_in < 1:
        raise ContractError(f"fan_in must be positive, got {fan_in}")
    bound = 1.0 / np.sqrt(float(fan_in))
    return Tensor(rng.uniform(-bound, bound, size=tuple(shape)), requires_grad=True)


def cast(module, precision: str):
    """Convert every parameter of `module` (anything with parameters()) to
    `precision` in place and return it. Layers build in double, so a single
    model is its double build rounded once."""
    dtype = _dtype_of(precision)
    for _, t in module.parameters():
        t.data = t.data.astype(dtype, copy=False)
    return module


# ---------------------------------------------------------------------------
# Tape machinery
# ---------------------------------------------------------------------------

# One serial per tape and per reset. An op output's key is (serial, index of
# its node), so a key left on a tensor by another tape, or from before a
# reset, is never read as one of this tape's.
_SERIALS = itertools.count()


class _Node:
    """One recorded op: its output's key, its inputs' keys (None for an input
    that needs no gradient) and its backward rule."""

    __slots__ = ("name", "key", "inputs", "fn")

    def __init__(self, name: str, key: tuple, inputs: tuple, fn: Callable):
        self.name = name
        self.key = key
        self.inputs = inputs
        self.fn = fn


class _BackwardPass:
    """Per-replay gradient accumulator keyed by tape key.

    The replay points it at each node's input keys before running the node's
    rule, so acc.add(i, g) lands on the node's i-th input. Each node's output
    gradient is popped before its rule runs, so it is freed once consumed;
    what is left at the end, and written back, are the leaf gradients.
    """

    def __init__(self, key: tuple, seed: np.ndarray):
        self._entries: dict = {key: seed}
        self.inputs: tuple = ()

    def pop(self, key: tuple) -> np.ndarray | None:
        return self._entries.pop(key, None)

    def add(self, i: int, arr: np.ndarray) -> None:
        key = self.inputs[i]
        if key is None:
            return
        e = self._entries.get(key)
        # Keep a reference; accumulation never mutates in place.
        self._entries[key] = arr if e is None else e + arr

    def write_back(self, leaves: dict[int, Tensor]) -> None:
        for key, arr in self._entries.items():
            t = leaves[key]
            if arr.shape != t.data.shape:
                arr = arr.reshape(t.data.shape)
            _check_finite(arr, "backward", "gradient")
            t.grad = arr.copy() if t.grad is None else t.grad + arr


_TAPES: list["Tape"] = []


class Tape:
    """Ordered record of operations; reverse replay implements backprop.

    Repeated backward() calls without reset() accumulate into .grad.
    reset() drops the recorded nodes and clears the gradients of every leaf
    the tape touched, leaving no stale buffers.

    The tape holds its leaves and its nodes' backward rules, nothing else:
    an op output lives only as long as its caller, or a rule that reads its
    array, holds it. Gradients reach an output through the key the tape gave
    it, and a leaf through its id, which stays its own while the tape holds it.
    """

    def __init__(self):
        self._nodes: list[_Node] = []
        self._seen: dict[int, Tensor] = {}
        self._serial = next(_SERIALS)

    def __enter__(self) -> "Tape":
        _TAPES.append(self)
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        popped = _TAPES.pop()
        assert popped is self, "tape stack corrupted"

    def __len__(self) -> int:
        return len(self._nodes)

    def _recorded(self, t: Tensor) -> bool:
        return t.key is not None and t.key[0] == self._serial

    def _key_of(self, t: Tensor):
        """The key gradients for input `t` are routed by: None if it needs no
        gradient, its own key if this tape recorded it, else it is a leaf."""
        if not t.requires_grad:
            return None
        if self._recorded(t):
            return t.key
        self._seen[id(t)] = t
        return id(t)

    def _register(self, name: str, inputs: Iterable[Tensor], out: Tensor, fn: Callable) -> None:
        keys = tuple(self._key_of(t) for t in inputs)
        out.requires_grad = True
        out.key = (self._serial, len(self._nodes))
        self._nodes.append(_Node(name, out.key, keys, fn))

    def backward(self, loss: Tensor) -> None:
        if loss.size != 1:
            raise ContractError(f"backward needs a scalar loss, got shape {loss.shape}")
        if not self._recorded(loss):
            raise ContractError(
                "backward needs a loss this tape recorded; this one was computed with "
                "no tape active, on another tape, before reset(), or from no tensor "
                "that requires a gradient")
        run = _BackwardPass(loss.key, np.ones_like(loss.data))
        for node in reversed(self._nodes):
            g = run.pop(node.key)
            if g is None:
                continue
            run.inputs = node.inputs
            node.fn(g, run)
        run.write_back(self._seen)

    def reset(self) -> None:
        self._nodes.clear()
        for t in self._seen.values():
            t.grad = None
        self._seen.clear()
        self._serial = next(_SERIALS)


def record(name: str, inputs: Sequence[Tensor], out: Tensor, fn: Callable) -> None:
    """Attach a backward rule for `out` to the active tape, if any.

    It does not check `out` for finite values: it is meant for ops that only
    re-lay values already checked, and for test fixtures. An op that computes
    new values publishes them with op_result.

    `fn(upstream_grad, acc)` pushes the gradient of the op's i-th input with
    acc.add(i, grad), i its position in `inputs`. The tape stores, per node,
    each input's route: the key this tape gave it as an op output, its id
    as a leaf (the tape then holds it), or None if it needs no gradient, in
    which case acc.add drops the push. `out` gets a key of its own.

    A rule should capture only the arrays and shapes its backward reads,
    never a Tensor: the tape keeps no op output alive, so what the rules
    capture is what the tape holds between forward and backward. Exposed so
    composite modules can define fused operations.
    """
    if _TAPES and any(t.requires_grad for t in inputs):
        _TAPES[-1]._register(name, inputs, out, fn)


def op_result(name: str, inputs: Sequence[Tensor], data: np.ndarray, fn: Callable) -> Tensor:
    """The output of computed op `name`: `data` checked for finite values
    (NumericsError names the op), wrapped, and recorded with backward rule
    `fn` by this module's `record`, so a hook that replaces it sees every node."""
    _check_finite(data, name)
    out = Tensor(data)
    record(name, inputs, out, fn)
    return out


def _match_precision(a: Tensor, b: Tensor, op: str) -> None:
    if a.data.dtype != b.data.dtype:
        raise ContractError(f"{op}: mixed precisions {a.precision} vs {b.precision}")


def _match_shape(a: Tensor, b: Tensor, op: str) -> None:
    if a.shape != b.shape:
        raise ShapeError(f"{op}: shape mismatch {a.shape} vs {b.shape}")


# ---------------------------------------------------------------------------
# Elementwise operations and reductions
# ---------------------------------------------------------------------------

def add(a: Tensor, b: Tensor) -> Tensor:
    _match_precision(a, b, "add")
    _match_shape(a, b, "add")

    def fn(g, acc):
        acc.add(0, g)
        acc.add(1, g)

    return op_result("add", (a, b), a.data + b.data, fn)


def mul(a: Tensor, b: Tensor) -> Tensor:
    """Hadamard product of same-shape tensors."""
    _match_precision(a, b, "mul")
    _match_shape(a, b, "mul")
    ad, bd = a.data, b.data

    def fn(g, acc):
        acc.add(0, g * bd)
        acc.add(1, g * ad)

    return op_result("mul", (a, b), ad * bd, fn)


def relu(a: Tensor) -> Tensor:
    """max(a, 0). The backward keeps only the output: max(a, 0) > 0 exactly
    where a > 0, so the output gives the input's mask bit for bit."""
    out_data = np.maximum(a.data, 0)

    def fn(g, acc):
        acc.add(0, g * (out_data > 0))

    return op_result("relu", (a,), out_data, fn)


def sum_all(a: Tensor) -> Tensor:
    shape, dtype = a.shape, a.data.dtype

    def fn(g, acc):
        acc.add(0, np.full(shape, g.reshape(-1)[0], dtype=dtype))

    return op_result("sum_all", (a,), a.data.sum(dtype=dtype).reshape(1), fn)


# ---------------------------------------------------------------------------
# Attention
# ---------------------------------------------------------------------------

# Weights per group of blocks in window_attention: half of a 2 MiB L2 cache.
_ATTENTION_GROUP_BYTES = 1 << 20
# Smallest column sum of exp(scores - shift) a block may have under the bound
# shift: below it (a bound about 27.7 above the true max) the block is redone
# with the exact column max.
_ATTENTION_MIN_SUM = 2.0 ** -40
_LOG2_E = float(np.log2(np.e))


def window_attention(q: Tensor, k: Tensor, v: Tensor, heads: int
                     ) -> tuple[Tensor, Callable[[], np.ndarray]]:
    """Multi-head scaled dot-product attention of each query block on its kv block.

    Blocks are channel-major: q is (B, E, Tq) and k, v are (B, E, Tk). Block
    b of q attends only to block b of k and v (one window pair, or one whole
    map for global attention), each of `heads` heads over its own d = E/heads
    channel rows. Returns the (B, E, Tq) context, heads in channel order, and
    a zero-argument callable that rebuilds the (B, heads, Tq, Tk) softmax
    weights.

    One tape node. Per block and head, with s = 1/sqrt(d) and t = s·log2(e),
    the operands carry one augmented row: Q^ = [t·Q; -t·b], K^ = [K; 1],
    V^ = [V; 1]. The shift

        b_q = sum_c max(s·q_cq·max_j k_cj, s·q_cq·min_j k_cj)

    bounds every score of query column q from above and comes from the small
    q/k arrays, so E = 2^(K^ᵀQ^) = exp(s·KᵀQ - b) never overflows. E is
    kv-major, (Tk, Tq), and the exp2 runs in place on the score GEMM's
    output. Then Ô = V^·E holds the unnormalized context and, in its last
    row, the column sums l; the output is O = Ô[:d] / l. The weights are
    touched three times: written by the score GEMM, exponentiated, read by
    the value GEMM.

    A bound can exceed the true column max by far: then l underflows. A
    block with any l below _ATTENTION_MIN_SUM or not finite is redone with
    the exact column max as its shift, written into its row of Q^. The
    decision is per block, never per group.

    The forward walks the blocks in groups of about _ATTENTION_GROUP_BYTES
    of weights, reusing one group-sized buffer, so each group's exp2 and
    products run while its scores are in cache; the full (B, heads, Tk, Tq)
    array is never allocated, with or without a tape. For its backward the
    op keeps only the shifts and l, beside its output and the q, k and v
    arrays. The backward walks groups of half that size (it holds two
    weight buffers, E and dS). Per group it builds Q^ (with the kept
    shifts), K^ᵀ, V^ᵀ and Ĝ in group-sized scratch, so apart from dq, dk
    and dv it allocates nothing full-size, and recomputes E with the
    forward's per-block GEMM, so E is the forward's bit for bit. With G the
    output gradient and Ĝ = [G/l; -colsum((G/l)∘O)]:

        dS = E∘(V^ᵀĜ),  dV = (G/l)·Eᵀ,  dQ = s·K·dS,  dK = s·Q·dSᵀ

    A group holds whole blocks and every step is per block, so the results
    do not depend on the grouping.

    The two products report their multiply-adds under the "attn_scores" and
    "attn_apply" tags, and the logical weights under the "weights" buffer.
    """
    _match_precision(q, k, "window_attention")
    _match_precision(q, v, "window_attention")
    if q.ndim != 3 or k.ndim != 3 or k.shape != v.shape:
        raise ShapeError(f"window_attention expects (B, E, Tq) q and equal (B, E, Tk) k, v; "
                         f"got {q.shape}, {k.shape}, {v.shape}")
    B, E, Tq = q.shape
    Tk = k.shape[2]
    if k.shape[:2] != (B, E):
        raise ShapeError(f"window_attention: q {q.shape} and k {k.shape} disagree")
    if heads < 1 or E % heads:
        raise ContractError(f"window_attention: {heads} heads do not divide width {E}")
    h, d = heads, E // heads
    s = 1.0 / float(np.sqrt(d))  # python floats: float32 stays float32
    t = s * _LOG2_E
    qd, kd, vd = q.data, k.data, v.data
    dtype = qd.dtype

    def augmented(x: np.ndarray, last, scale: float = 1.0, out=None) -> np.ndarray:
        """(n, E, T) -> (n, h, d + 1, T), into `out` if given: scale·x in each
        head's rows, then `last`."""
        n = x.shape[0]
        if out is None:
            out = np.empty((n, h, d + 1, x.shape[2]), dtype=dtype)
        np.multiply(x.reshape(n, h, d, -1), scale, out=out[:, :, :d])
        out[:, :, d] = last
        return out

    def groups(nbytes: int) -> tuple[list[slice], np.ndarray]:
        """Slices of whole blocks with about nbytes of weights each, and a buffer for one."""
        n = min(B, max(1, nbytes // (h * Tk * Tq * dtype.itemsize)))
        return ([slice(b, min(b + n, B)) for b in range(0, B, n)],
                np.empty((n, h, Tk, Tq), dtype=dtype))

    def exp_scores(kt, qh, w) -> None:
        np.matmul(kt, qh, out=w)
        np.exp2(w, out=w)

    kh, vh, qh = augmented(kd, 1), augmented(vd, 1), augmented(qd, 0, t)
    sq = qh[:, :, :d]
    hi = sq * kh[:, :, :d].max(axis=-1, keepdims=True)
    np.maximum(hi, sq * kh[:, :, :d].min(axis=-1, keepdims=True), out=hi)
    np.negative(hi.sum(axis=2), out=qh[:, :, d])
    kt = kh.swapaxes(-1, -2)
    ohat = np.empty((B, h, d + 1, Tq), dtype=dtype)

    def apply(i, w) -> None:
        exp_scores(kt[i], qh[i], w)
        np.matmul(vh[i], w, out=ohat[i])

    fwd_groups, weights = groups(_ATTENTION_GROUP_BYTES)
    for b in fwd_groups:
        apply(b, weights[:b.stop - b.start])
    sums = ohat[:, :, d]
    for j in np.flatnonzero(~(np.isfinite(sums) & (sums >= _ATTENTION_MIN_SUM)).all(axis=(1, 2))):
        qh[j, :, d] = 0
        np.matmul(kt[j], qh[j], out=weights[0])
        np.negative(weights[0].max(axis=-2), out=qh[j, :, d])
        apply(j, weights[0])
    # Only the shifts and l outlive the call: the backward and the recorded
    # weights rebuild what they need of Q^, K^, V^ and E.
    shift, l = qh[:, :, d].copy(), ohat[:, :, d:].copy()
    out_data = np.empty_like(qd)
    np.divide(ohat[:, :, :d], l, out=out_data.reshape(B, h, d, Tq))
    macs = B * Tq * Tk * E
    with metering.tagged("attn_scores"):
        metering.add_macs(macs)
    metering.track_buffer("weights", B * h * Tq * Tk)
    with metering.tagged("attn_apply"):
        metering.add_macs(macs)

    def recorded() -> np.ndarray:
        w = np.empty((B, h, Tk, Tq), dtype=dtype)
        exp_scores(augmented(kd, 1).swapaxes(-1, -2), augmented(qd, shift, t), w)
        w /= l
        return w.swapaxes(-1, -2)

    def fn(g, acc):
        dq, dk, dv = np.empty_like(qd), np.empty_like(kd), np.empty_like(vd)
        dqh, dkh, dvh = (x.reshape(B, h, d, -1) for x in (dq, dk, dv))
        g4, o4 = g.reshape(B, h, d, Tq), out_data.reshape(B, h, d, Tq)
        q4, k4 = qd.reshape(B, h, d, Tq), kd.reshape(B, h, d, Tk)
        bwd_groups, e_buf = groups(_ATTENTION_GROUP_BYTES // 2)
        ds_buf = np.empty_like(e_buf)
        qh_buf, gh_buf = np.empty((2, len(e_buf), h, d + 1, Tq), dtype=dtype)
        kh_buf, vh_buf = np.empty((2, len(e_buf), h, d + 1, Tk), dtype=dtype)
        for b in bwd_groups:
            n = b.stop - b.start
            e, ds, ghat = e_buf[:n], ds_buf[:n], gh_buf[:n]
            qh = augmented(qd[b], shift[b], t, qh_buf[:n])
            kt = augmented(kd[b], 1, out=kh_buf[:n]).swapaxes(-1, -2)
            vt = augmented(vd[b], 1, out=vh_buf[:n]).swapaxes(-1, -2)
            gl = np.divide(g4[b], l[b], out=ghat[:, :, :d])
            np.negative((gl * o4[b]).sum(axis=2), out=ghat[:, :, d])
            exp_scores(kt, qh, e)
            np.matmul(vt, ghat, out=ds)
            ds *= e
            np.matmul(gl, e.swapaxes(-1, -2), out=dvh[b])
            np.matmul(k4[b], ds, out=dqh[b])
            np.matmul(q4[b], ds.swapaxes(-1, -2), out=dkh[b])
        dq *= s
        dk *= s
        acc.add(0, dq)
        acc.add(1, dk)
        acc.add(2, dv)

    return op_result("window_attention", (q, k, v), out_data, fn), recorded


def layer_norm(x: Tensor, gamma: Tensor, beta: Tensor, eps: float = 1e-5) -> Tensor:
    """Normalize over the channel axis independently at each spatial position.

    x is (N, C, H, W); gamma and beta are per-channel (C,). The variance is
    the biased estimate over C; eps floors it so constant inputs map to zero.

    For its backward the op keeps only the per-position mean and 1/σ, each
    (N, 1, H, W), besides the input array. The backward rebuilds x̂ = (x - mean)·(1/σ)
    with the forward's two ops, so bit for bit, and runs its chain in two
    reused full-size buffers plus the input gradient.
    """
    if x.ndim != 4:
        raise ShapeError(f"layer_norm expects (N, C, H, W), got {x.shape}")
    C = x.shape[1]
    if gamma.shape != (C,) or beta.shape != (C,):
        raise ShapeError(
            f"layer_norm: gamma/beta must be ({C},), got {gamma.shape} and {beta.shape}")
    _match_precision(x, gamma, "layer_norm")
    _match_precision(x, beta, "layer_norm")

    xd = x.data
    mean = xd.mean(axis=1, keepdims=True)
    out_data = xd - mean
    var = (out_data * out_data).mean(axis=1, keepdims=True)
    inv_std = 1.0 / np.sqrt(var + eps)
    out_data *= inv_std
    gm = gamma.data.reshape(1, C, 1, 1)
    out_data *= gm
    out_data += beta.data.reshape(1, C, 1, 1)

    def fn(g, acc):
        xhat = np.subtract(xd, mean)
        xhat *= inv_std
        buf = np.multiply(g, xhat)
        acc.add(1, buf.sum(axis=(0, 2, 3), dtype=xd.dtype))
        acc.add(2, g.sum(axis=(0, 2, 3), dtype=xd.dtype))
        # Standard layer-norm backward over the channel axis:
        # gx = (1/σ)·(dx̂ - mean_c(dx̂) - x̂·mean_c(dx̂·x̂)), dx̂ = γ·g.
        dxhat = np.multiply(g, gm, out=buf)
        gx = np.multiply(dxhat, xhat)
        m2 = gx.mean(axis=1, keepdims=True)
        dxhat -= dxhat.mean(axis=1, keepdims=True)
        xhat *= m2
        np.subtract(dxhat, xhat, out=gx)
        gx *= inv_std
        acc.add(0, gx)

    return op_result("layer_norm", (x, gamma, beta), out_data, fn)
