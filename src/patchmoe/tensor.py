"""Dense tensors with reverse-mode autodiff, plus the small numeric helpers
(min-max scaling, cosine similarity, blob serialization, atomic file writes,
seeded RNG) the rest of the package is built on.

Everything is backed by numpy arrays in either float32 (training default) or
float64 (verification mode). Gradients are analytic per op; the test suite
checks every one of them against central finite differences.
"""

from __future__ import annotations

import hashlib
import io
import math
import os
import struct
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

import numpy as np

FLOAT_DTYPES = {"float32": np.float32, "float64": np.float64}

_default_dtype = np.float32

LN_EPS_32 = 1e-6
LN_EPS_64 = 1e-12


def set_default_dtype(name: str) -> None:
    """Switch global precision ("float32" or "float64")."""
    global _default_dtype
    if name not in FLOAT_DTYPES:
        raise ValueError(f"unsupported dtype {name!r}")
    _default_dtype = FLOAT_DTYPES[name]


def default_dtype() -> np.dtype:
    return np.dtype(_default_dtype)


def default_eps() -> float:
    """Denominator guard matched to the active precision."""
    return LN_EPS_64 if _default_dtype == np.float64 else LN_EPS_32


class Rng:
    """Seeded random stream (PCG64). Same seed, same key -> bit-identical
    samples across runs and platforms."""

    def __init__(self, seed: int, _key: tuple[int, ...] = ()):
        self.seed = int(seed)
        self._key = tuple(int(k) for k in _key)
        self.gen = np.random.Generator(
            np.random.PCG64(np.random.SeedSequence((self.seed,) + self._key))
        )

    def child(self, *key: int) -> "Rng":
        """Independent deterministic substream identified by integer key."""
        return Rng(self.seed, self._key + tuple(key))

    def normal(self, shape, scale=1.0):
        return (self.gen.standard_normal(shape) * scale).astype(_default_dtype)

    def uniform(self, shape):  # samples from [0, 1)
        return self.gen.uniform(0.0, 1.0, shape).astype(_default_dtype)


class Tensor:
    """A node in the autodiff tape: numpy payload plus backward closure."""

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward")

    def __init__(self, data, requires_grad: bool = False, _parents=(), _backward=None):
        # Python scalars take the default dtype: a 0-d float64 constant would
        # upcast every float32 array it meets (NumPy 2 promotion). numpy
        # scalars such as np.float64 (a float subclass) keep their own dtype.
        if type(data) in (int, float):
            arr = np.asarray(data, dtype=_default_dtype)
        else:
            arr = np.asarray(data)
            if arr.dtype not in (np.float32, np.float64):
                arr = arr.astype(_default_dtype)
        self.data = arr
        self.grad = None
        self.requires_grad = bool(requires_grad) or any(p.requires_grad for p in _parents)
        # A node no gradient can reach keeps no tape, so a forward over
        # parameters that do not require grad frees its intermediates as it goes.
        self._parents = _parents if self.requires_grad else ()
        self._backward = _backward if self.requires_grad else None

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    def item(self) -> float:
        return float(self.data)

    def detach(self) -> "Tensor":
        return Tensor(self.data)

    def _accumulate(self, g: np.ndarray, at=None) -> None:
        """Add g to .grad; with `at` (an index into .grad that names no element
        twice), g covers only grad[at] and lands there in place."""
        if at is not None:
            if self.grad is None:
                self.grad = np.zeros_like(self.data)
            self.grad[at] += g
        elif self.grad is None:
            # One pass into an array laid out like self.data (a transposed g
            # would otherwise pass its memory order, and so its summation
            # order, on); adding 0.0 turns -0.0 into +0.0 as zeros-then-add did.
            self.grad = np.add(g, 0.0, out=np.empty_like(self.data), dtype=self.data.dtype)
        else:
            self.grad += g.astype(self.data.dtype, copy=False)

    def backward(self, grad=None) -> None:
        """Reverse sweep from this node in fixed topological order; `grad`,
        the output's cotangent, must have this node's shape (ValueError
        otherwise). Only leaves (parameters and inputs) keep .grad. The sweep
        frees the tape as it goes: once a non-leaf node's backward has run,
        or the node got no gradient, it drops its grad, its closure and its
        parents, so the arrays only it held are freed before the sweep ends.
        A graph backpropagates once: a second backward through a released
        node raises RuntimeError."""
        if grad is None:
            grad = np.ones_like(self.data)
        grad = np.asarray(grad)
        if grad.shape != self.shape:
            raise ValueError(f"backward cotangent of shape {grad.shape} "
                             f"for an output of shape {self.shape}")
        topo: list[Tensor] = []
        seen: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                topo.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for p in node._parents:
                if id(p) not in seen and p.requires_grad:
                    stack.append((p, False))
        self._accumulate(grad)
        while topo:
            node = topo.pop()
            if node._backward is None:
                continue
            if node.grad is not None:
                node._backward(node.grad)
                node.grad = None
            node._parents = ()
            node._backward = _released

    def __repr__(self):
        return f"Tensor(shape={self.shape}, dtype={self.data.dtype}, grad={self.requires_grad})"


def _released(g) -> None:
    raise RuntimeError("backward through a graph whose tape a backward already freed")


def parameter(data, rng: Rng | None = None, shape=None, scale=None) -> Tensor:
    """Trainable leaf. With rng/shape, draws scaled gaussian init."""
    if data is None:
        if scale is None:
            scale = 1.0 / np.sqrt(shape[-1] if len(shape) else 1)
        data = rng.normal(shape, scale)
    return Tensor(np.asarray(data, dtype=_default_dtype), requires_grad=True)


def _unbroadcast(grad: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum grad back down to a broadcast operand's shape."""
    if grad.shape == shape:
        return grad
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad


def _op(out_data, *inputs) -> Tensor:
    """Tape node for out_data. Each input is a (tensor, grad) pair: grad maps
    the output's gradient to the tensor's, before a broadcast is summed away.
    The backward runs the pairs in order, skipping inputs that take no
    gradient, and adds each result into the tensor's .grad."""
    def backward(g):
        for t, grad in inputs:
            if t.requires_grad:
                t._accumulate(_unbroadcast(grad(g), t.shape))

    return Tensor(out_data, _parents=tuple([t for t, _ in inputs]), _backward=backward)


def add(a: Tensor, b: Tensor) -> Tensor:
    return _op(a.data + b.data, (a, lambda g: g), (b, lambda g: g))


def sub(a: Tensor, b: Tensor) -> Tensor:
    return _op(a.data - b.data, (a, lambda g: g), (b, lambda g: -g))


def mul(a: Tensor, b: Tensor) -> Tensor:
    return _op(a.data * b.data, (a, lambda g: g * b.data), (b, lambda g: g * a.data))


def div(a: Tensor, b: Tensor) -> Tensor:
    return _op(a.data / b.data, (a, lambda g: g / b.data),
               (b, lambda g: -g * a.data / (b.data * b.data)))


def _check_matmul(a: Tensor, b: Tensor) -> None:
    if a.ndim < 2 or b.ndim < 2:
        raise ValueError("matmul operands must have rank >= 2")
    if a.shape[-1] != b.shape[-2]:
        raise ValueError(f"matmul inner dims disagree: {a.shape} x {b.shape}")


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product, batched on leading dims. dA = dC.B^T, dB = A^T.dC."""
    _check_matmul(a, b)
    return _op(a.data @ b.data, (a, lambda g: g @ np.swapaxes(b.data, -1, -2)),
               (b, lambda g: np.swapaxes(a.data, -1, -2) @ g))


def _rows(a: np.ndarray) -> np.ndarray:
    return a.reshape(-1, a.shape[-1])


def _check_linear(x: Tensor, w: Tensor, b: Tensor) -> None:
    _check_matmul(x, w)
    if w.ndim != 2 or b.shape != w.shape[1:]:
        raise ValueError(f"linear needs a 2-D weight and a ({w.shape[-1]},) bias: "
                         f"got w {w.shape}, b {b.shape}")


def linear(x: Tensor, w: Tensor, b: Tensor, residual: Tensor | None = None) -> Tensor:
    """x.w + b as one node, for a 2-D w and a bias of shape (w.shape[1],);
    with `residual`, add(residual, x.w + b) in the same node and array. The
    residual may broadcast to the output's shape (as the patch embedding's
    positions do over the images); its gradient is g summed back to its shape.

    The forward is add(matmul(x, w), b)'s numpy call, x.data @ w.data, with
    the bias (and then the residual) added in place and no tape node for the
    bare product. It stays batched on x's leading axes: one 2-D gemm there
    wakes a second BLAS thread and its buffers for no forward speed. The
    backward works on x's rows (its leading axes flattened): dx = rows(g).w^T
    and dw = rows(x)^T.rows(g), one gemm each, so no (..., d_in, d_out) array
    of weight gradients per leading index is formed and then summed."""
    _check_linear(x, w, b)
    out_data = x.data @ w.data
    np.add(out_data, b.data, out=out_data)
    inputs = [(b, lambda g: g),
              (x, lambda g: (_rows(g) @ w.data.T).reshape(x.shape)),
              (w, lambda g: _rows(x.data).T @ _rows(g))]
    if residual is not None:
        np.add(out_data, residual.data, out=out_data)  # a + b is b + a, bit for bit
        inputs.append((residual, lambda g: g))
    return _op(out_data, *inputs)


def attention(q: Tensor, k: Tensor, v: Tensor, scale: float) -> Tensor:
    """softmax(q.k^T * scale).v over the last two axes, as one node, for
    inputs of at least 3 dimensions.

    It makes the numpy calls of matmul -> mul -> softmax -> matmul in the
    same order, in place in one score array, so S and P are never both held.
    The output is laid out in memory like v, so that a caller which split v
    out of a wider array can merge the output back with views. The tape
    keeps only the probabilities P. The backward replays the
    chain's backward in one dS array and one product array: dP = g.v^T,
    dS = P * (dP - rowsum(dP * P)) * scale, dq = dS.k, dk = (q^T.dS)^T and
    dv = P^T.g.
    """
    if q.ndim < 3 or q.shape != k.shape or v.shape[:-1] != k.shape[:-1]:
        raise ValueError(f"attention needs matching 3-D+ shapes: "
                         f"q {q.shape}, k {k.shape}, v {v.shape}")
    scale = q.data.dtype.type(scale)
    dtype = np.result_type(q.data, k.data, v.data)
    p = np.empty(q.shape[:-1] + q.shape[-2:-1], dtype)
    np.matmul(q.data, np.swapaxes(k.data, -1, -2), out=p)
    np.multiply(p, scale, out=p)
    np.subtract(p, _row_max(p, -1), out=p)
    np.exp(p, out=p)
    np.divide(p, p.sum(axis=-1, keepdims=True), out=p)
    out = np.matmul(p, v.data, out=np.empty_like(v.data, dtype=dtype))

    def backward(g):
        if v.requires_grad:
            v._accumulate(np.swapaxes(p, -1, -2) @ g)
        if not (q.requires_grad or k.requires_grad):
            return
        ds = np.matmul(g, np.swapaxes(v.data, -1, -2),
                       out=np.empty(p.shape, np.result_type(dtype, g)))
        np.subtract(ds, (ds * p).sum(axis=-1, keepdims=True), out=ds)
        np.multiply(p, ds, out=ds)
        np.multiply(ds, scale, out=ds)
        if q.requires_grad:
            q._accumulate(ds @ k.data)
        if k.requires_grad:
            k._accumulate(np.swapaxes(np.swapaxes(q.data, -1, -2) @ ds, -1, -2))

    return Tensor(out, _parents=(q, k, v), _backward=backward)


def reshape(a: Tensor, shape) -> Tensor:
    return _op(a.data.reshape(shape), (a, lambda g: g.reshape(a.shape)))


def transpose(a: Tensor, axes) -> Tensor:
    axes = tuple(axes)
    inv = tuple(np.argsort(axes))
    return _op(a.data.transpose(axes), (a, lambda g: g.transpose(inv)))


def tsum(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    def grad(g):
        if axis is not None and not keepdims:
            g = np.expand_dims(g, axis)
        return np.broadcast_to(g, a.shape)

    return _op(a.data.sum(axis=axis, keepdims=keepdims), (a, grad))


def tmean(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    total = tsum(a, axis=axis, keepdims=keepdims)
    return mul(total, Tensor(1.0 / (a.data.size // total.data.size)))


def take(a: Tensor, indices, axis: int = 0) -> Tensor:
    """Gather along axis. The backward adds into the source in place where
    no index repeats, and scatter-adds in index order (np.add.at) where some
    do, so a repeated row's gradients are summed in the order it was taken."""
    idx = np.asarray(indices)
    out_data = np.take(a.data, idx, axis=axis)

    def backward(g):
        if not a.requires_grad:
            return
        if idx.size == 0 or np.bincount(idx.reshape(-1) % a.shape[axis]).max() == 1:
            a._accumulate(g, at=(slice(None),) * axis + (idx,))
            return
        acc = np.zeros_like(a.data)
        np.add.at(np.moveaxis(acc, axis, 0), idx, np.moveaxis(g, axis, 0))
        a._accumulate(acc)

    return Tensor(out_data, _parents=(a,), _backward=backward)


def split_rows(a: Tensor, rows, sizes) -> list[Tensor]:
    """a's rows (axis 0) in the order `rows`, cut into consecutive segments
    of `sizes` rows: one gather, and each segment a view of it. Every
    segment's backward writes its rows of one shared gradient buffer (the
    gather's grad), which the gather's backward (take) then adds into a."""
    whole = take(a, rows)
    bounds = np.cumsum([0, *sizes])
    segments = []
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        def backward(g, at=slice(lo, hi)):
            whole._accumulate(g, at=at)
        segments.append(Tensor(whole.data[lo:hi], _parents=(whole,), _backward=backward))
    return segments


def add_rows(parts: list[Tensor], weights: Tensor, rows, n_rows: int) -> Tensor:
    """Scatter-add of weighted rows: n_rows rows of zeros, then each part's
    rows times their weights added at `rows`, one part after another.
    `weights` and `rows` hold one entry per row of the parts stacked in
    order; no row repeats within a part. The backward gives each part
    g[rows] * w and the weights sum(g[rows] * part) over the non-row axes."""
    rows = np.asarray(rows)
    w = weights.data.reshape((-1,) + (1,) * (parts[0].ndim - 1))
    out_data = np.zeros((n_rows,) + parts[0].shape[1:], dtype=parts[0].data.dtype)
    bounds = np.cumsum([0] + [len(part.data) for part in parts])
    spans = list(zip(parts, bounds[:-1], bounds[1:]))
    for part, lo, hi in spans:
        out_data[rows[lo:hi]] += part.data * w[lo:hi]

    def backward(g):
        w_grad = np.empty_like(weights.data).reshape(-1) if weights.requires_grad else None
        for part, lo, hi in spans:
            g_rows = g[rows[lo:hi]]
            if w_grad is not None:
                w_grad[lo:hi] = (g_rows * part.data).sum(axis=tuple(range(1, part.ndim)))
            if part.requires_grad:  # the gathered rows are read no more: scale them in place
                part._accumulate(np.multiply(g_rows, w[lo:hi], out=g_rows))
        if w_grad is not None:
            weights._accumulate(w_grad.reshape(weights.shape))

    return Tensor(out_data, _parents=(*parts, weights), _backward=backward)


def sqrt(a: Tensor) -> Tensor:
    out_data = np.sqrt(a.data)
    return _op(out_data, (a, lambda g: g * 0.5 / out_data))


def _row_max(a: np.ndarray, axis: int) -> np.ndarray:
    # exact: fmax is .max on a row without NaN, and a NaN row ends all NaN either way
    return np.fmax.reduce(a, axis=axis, keepdims=True)


def softmax(a: Tensor, axis: int = -1) -> Tensor:
    """Max-stabilized softmax along axis."""
    shifted = a.data - _row_max(a.data, axis)
    e = np.exp(shifted)
    out_data = e / e.sum(axis=axis, keepdims=True)
    return _op(out_data,
               (a, lambda g: out_data * (g - (g * out_data).sum(axis=axis, keepdims=True))))


def log_softmax(a: Tensor, axis: int = -1) -> Tensor:
    shifted = a.data - _row_max(a.data, axis)
    lse = np.log(np.exp(shifted).sum(axis=axis, keepdims=True))
    out_data = shifted - lse
    return _op(out_data, (a, lambda g: g - np.exp(out_data) * g.sum(axis=axis, keepdims=True)))


def _centered(x: np.ndarray) -> np.ndarray:
    """x minus its mean over the last axis, in a new array."""
    return x - np.add.reduce(x, axis=-1, keepdims=True) / x.shape[-1]


def layer_norm(x: Tensor, gain: Tensor, bias: Tensor) -> Tensor:
    """Normalize over the last (channel) axis, eps default_eps(), then affine.
    The forward makes x.mean's, (xc * xc).mean's and the affine's ufunc calls
    in two full-size arrays. The tape keeps only the per-row 1/std; the
    backward recomputes xhat from x with the forward's calls, once for the
    gain's and x's gradients."""
    xhat = _centered(x.data)
    out = np.multiply(xhat, xhat)
    var = np.add.reduce(out, axis=-1, keepdims=True)
    var /= x.shape[-1]
    inv = 1.0 / np.sqrt(var + default_eps())
    np.multiply(xhat, inv, out=xhat)
    np.multiply(xhat, gain.data, out=out)
    np.add(out, bias.data, out=out)

    def backward(g):
        xhat = _centered(x.data)
        np.multiply(xhat, inv, out=xhat)
        if gain.requires_grad:
            gain._accumulate(_unbroadcast(g * xhat, gain.shape))
        if bias.requires_grad:
            bias._accumulate(_unbroadcast(g, bias.shape))
        if x.requires_grad:
            gh = g * gain.data
            x._accumulate(inv * (gh - gh.mean(axis=-1, keepdims=True)
                                 - xhat * (gh * xhat).mean(axis=-1, keepdims=True)))

    return Tensor(out, _parents=(gain, bias, x), _backward=backward)


def clamp_min(a: Tensor, floor: float) -> Tensor:
    """max(a, floor); gradient passes only where a > floor."""
    return _op(np.maximum(a.data, floor), (a, lambda g: g * (a.data > floor)))


def _sigmoid(a: np.ndarray) -> np.ndarray:
    """1 / (1 + exp(-a)) in one new array, four ufunc calls."""
    sig = np.negative(a)
    np.exp(sig, out=sig)
    np.add(1.0, sig, out=sig)
    return np.divide(1.0, sig, out=sig)


def silu_linear(a: Tensor, w: Tensor, b: Tensor, residual: Tensor | None = None) -> Tensor:
    """linear(silu(a), w, b, residual) as one node, silu(a) = a * sigmoid(a).

    The forward makes silu's and linear's numpy calls in order. The tape
    keeps a but not silu(a): the backward recomputes sigmoid(a) from a with
    the forward's calls, once for dw = rows(a * sig)^T.rows(g) and for a's
    gradient, dh * sig * (1 + a * (1 - sig)) with dh = rows(g).w^T."""
    _check_linear(a, w, b)
    out_data = (a.data * _sigmoid(a.data)) @ w.data
    np.add(out_data, b.data, out=out_data)
    if residual is not None:
        np.add(out_data, residual.data, out=out_data)

    def backward(g):
        if b.requires_grad:
            b._accumulate(_unbroadcast(g, b.shape))
        if residual is not None and residual.requires_grad:
            residual._accumulate(_unbroadcast(g, residual.shape))
        if not (a.requires_grad or w.requires_grad):
            return
        sig = _sigmoid(a.data)
        if w.requires_grad:
            w._accumulate(_rows(a.data * sig).T @ _rows(g))
        if a.requires_grad:
            # in silu(a)'s dtype, so a mixed-dtype call rounds dh as linear(silu(a)) does
            dh = (_rows(g) @ w.data.T).reshape(a.shape).astype(a.data.dtype, copy=False)
            a._accumulate(dh * sig * (1.0 + a.data * (1.0 - sig)))

    parents = (a, w, b) if residual is None else (a, w, b, residual)
    return Tensor(out_data, _parents=parents, _backward=backward)


def dropout(a: Tensor, p: float, rng: Rng) -> Tensor:
    """Inverted dropout; identity when p == 0."""
    if p <= 0.0:
        return a
    keep = (rng.gen.random(a.shape) >= p).astype(a.data.dtype) / (1.0 - p)
    return mul(a, Tensor(keep))


# ---------------------------------------------------------------------------
# Min-max scaler
# ---------------------------------------------------------------------------


@dataclass
class ScalerParams:
    """Per-channel min/max; channels with zero span are degenerate and map
    to 0 under apply, pass through unchanged under invert."""

    min: np.ndarray
    max: np.ndarray

    def __post_init__(self):
        self.min = np.asarray(self.min, dtype=np.float64)
        self.max = np.asarray(self.max, dtype=np.float64)

    @property
    def degenerate(self) -> np.ndarray:
        return self.max == self.min

    @property
    def channels(self) -> int:
        return self.min.shape[0]

    def to_json(self) -> dict:
        return {"min": self.min.tolist(), "max": self.max.tolist()}

    @classmethod
    def from_json(cls, d: dict) -> "ScalerParams":
        return cls(d["min"], d["max"])


def minmax_fit(samples: np.ndarray) -> ScalerParams:
    samples = np.asarray(samples)
    if samples.ndim != 2 or samples.shape[0] < 1:
        raise ValueError("minmax_fit needs a non-empty n x d sample matrix")
    return ScalerParams(samples.min(axis=0), samples.max(axis=0))


def minmax_apply(params: ScalerParams, x):
    """(x - min) / (max - min); degenerate channels map to 0. A Tensor stays
    on the tape; an ndarray is scaled in float64 and comes back an ndarray."""
    if not isinstance(x, Tensor):
        return minmax_apply(params, Tensor(np.asarray(x, dtype=np.float64))).data
    if x.shape[-1] != params.channels:
        raise ValueError("channel count mismatch")
    span = params.max - params.min
    scale = np.where(params.degenerate, 0.0, 1.0 / np.where(span == 0, 1.0, span))
    dtype = x.data.dtype
    return mul(sub(x, Tensor(params.min.astype(dtype))), Tensor(scale.astype(dtype)))


def minmax_invert(params: ScalerParams, y: np.ndarray) -> np.ndarray:
    """Inverse of apply on non-degenerate channels; degenerate channels pass
    through unchanged."""
    y = np.asarray(y)
    if y.shape[-1] != params.channels:
        raise ValueError("channel count mismatch")
    span = params.max - params.min
    return np.where(params.degenerate, y, y * span + params.min)


# ---------------------------------------------------------------------------
# Cosine similarity
# ---------------------------------------------------------------------------


def cosine_matrix(x: Tensor, c: Tensor, eps: float | None = None) -> Tensor:
    """Pairwise cosine similarity between rows of x (n x d) and c (E x d)."""
    if eps is None:
        eps = default_eps()
    dots = matmul(x, transpose(c, (1, 0)))
    nx = sqrt(tsum(mul(x, x), axis=-1, keepdims=True))
    nc = sqrt(tsum(mul(c, c), axis=-1, keepdims=True))
    denom = clamp_min(matmul(nx, transpose(nc, (1, 0))), eps)
    return div(dots, denom)


# ---------------------------------------------------------------------------
# Files: atomic writes and the binary tensor blob format
# ---------------------------------------------------------------------------


@contextmanager
def atomic_write(path, mode: str = "w", **open_kwargs):
    """Yield a file open on `path` plus ".tmp" and move it onto `path` when
    the block completes. A block that raises removes the temporary file and
    leaves whatever was at `path` as it was."""
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    try:
        with open(tmp, mode, **open_kwargs) as f:
            yield f
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def file_sha256(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


BLOB_MAGIC = b"PMTBLOB1"
_DTYPE_CODES = {np.dtype(np.float32): 0, np.dtype(np.float64): 1, np.dtype(np.uint8): 2}
_CODE_DTYPES = {v: k for k, v in _DTYPE_CODES.items()}


def write_blob(f, arr: np.ndarray) -> None:
    """Append one tensor record; ValueError for a dtype other than float32,
    float64 or uint8."""
    arr = np.asarray(arr)
    shape = arr.shape  # ascontiguousarray promotes 0-d arrays to 1-d
    arr = np.ascontiguousarray(arr)
    if arr.dtype not in _DTYPE_CODES:
        raise ValueError(f"a tensor blob cannot hold dtype {arr.dtype}")
    f.write(BLOB_MAGIC)
    f.write(struct.pack("<BB", _DTYPE_CODES[arr.dtype], len(shape)))
    for extent in shape:
        f.write(struct.pack("<Q", extent))
    f.write(arr.astype(arr.dtype.newbyteorder("<")).tobytes())


def _read_exact(f, n: int) -> bytes:
    data = f.read(n)
    if len(data) != n:
        raise ValueError("truncated tensor blob")
    return data


def read_blob(f) -> np.ndarray:
    """Read the record at the file's position; ValueError if corrupt or truncated."""
    magic = f.read(8)
    if magic != BLOB_MAGIC:
        raise ValueError(f"bad tensor blob magic {magic!r}")
    code, rank = struct.unpack("<BB", _read_exact(f, 2))
    if code not in _CODE_DTYPES:
        raise ValueError(f"unknown dtype code {code}")
    shape = tuple(struct.unpack("<Q", _read_exact(f, 8))[0] for _ in range(rank))
    dtype = _CODE_DTYPES[code]
    size = math.prod(shape) * dtype.itemsize
    # a corrupt extent must not become one huge read: check the bytes left first
    here = f.tell()
    if size > f.seek(0, io.SEEK_END) - here:
        raise ValueError("truncated tensor blob")
    f.seek(here)
    payload = _read_exact(f, size)
    return np.frombuffer(payload, dtype=dtype.newbyteorder("<")).astype(dtype).reshape(shape)
