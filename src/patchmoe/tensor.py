"""Dense tensors with reverse-mode autodiff, plus the small numeric helpers
(min-max scaling, cosine similarity, blob serialization, seeded RNG) the rest
of the package is built on.

Everything is backed by numpy arrays in either float32 (training default) or
float64 (verification mode). Gradients are analytic per op; the test suite
checks every one of them against central finite differences.
"""

from __future__ import annotations

import io
import math
import struct
from dataclasses import dataclass

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

    def _accumulate(self, g: np.ndarray) -> None:
        if self.grad is None:
            # One pass into an array laid out like self.data (a transposed g
            # would otherwise pass its memory order, and so its summation
            # order, on); adding 0.0 turns -0.0 into +0.0 as zeros-then-add did.
            self.grad = np.add(g, 0.0, out=np.empty_like(self.data), dtype=self.data.dtype)
        else:
            self.grad += g.astype(self.data.dtype, copy=False)

    def backward(self, grad=None) -> None:
        """Reverse sweep from this node in fixed topological order. A non-leaf
        node's grad is dropped once its own backward has read it; only leaves
        (parameters and inputs) keep .grad."""
        if grad is None:
            grad = np.ones_like(self.data)
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
        self._accumulate(np.asarray(grad))
        for node in reversed(topo):
            if node._backward is not None and node.grad is not None:
                node._backward(node.grad)
                node.grad = None

    def __repr__(self):
        return f"Tensor(shape={self.shape}, dtype={self.data.dtype}, grad={self.requires_grad})"


def parameter(data, rng: Rng | None = None, shape=None, scale=None) -> Tensor:
    """Trainable leaf. With rng/shape, draws scaled gaussian init."""
    if data is None:
        if scale is None:
            scale = 1.0 / np.sqrt(shape[-1] if len(shape) else 1)
        data = rng.normal(shape, scale)
    return Tensor(np.asarray(data, dtype=_default_dtype), requires_grad=True)


def _unbroadcast(grad: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum grad back down to a broadcast operand's shape."""
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad


def add(a: Tensor, b: Tensor) -> Tensor:
    out_data = a.data + b.data

    def backward(g):
        if a.requires_grad:
            a._accumulate(_unbroadcast(g, a.shape))
        if b.requires_grad:
            b._accumulate(_unbroadcast(g, b.shape))

    return Tensor(out_data, _parents=(a, b), _backward=backward)


def sub(a: Tensor, b: Tensor) -> Tensor:
    out_data = a.data - b.data

    def backward(g):
        if a.requires_grad:
            a._accumulate(_unbroadcast(g, a.shape))
        if b.requires_grad:
            b._accumulate(_unbroadcast(-g, b.shape))

    return Tensor(out_data, _parents=(a, b), _backward=backward)


def mul(a: Tensor, b: Tensor) -> Tensor:
    out_data = a.data * b.data

    def backward(g):
        if a.requires_grad:
            a._accumulate(_unbroadcast(g * b.data, a.shape))
        if b.requires_grad:
            b._accumulate(_unbroadcast(g * a.data, b.shape))

    return Tensor(out_data, _parents=(a, b), _backward=backward)


def div(a: Tensor, b: Tensor) -> Tensor:
    out_data = a.data / b.data

    def backward(g):
        if a.requires_grad:
            a._accumulate(_unbroadcast(g / b.data, a.shape))
        if b.requires_grad:
            b._accumulate(_unbroadcast(-g * a.data / (b.data * b.data), b.shape))

    return Tensor(out_data, _parents=(a, b), _backward=backward)


def _check_matmul(a: Tensor, b: Tensor) -> None:
    if a.ndim < 2 or b.ndim < 2:
        raise ValueError("matmul operands must have rank >= 2")
    if a.shape[-1] != b.shape[-2]:
        raise ValueError(f"matmul inner dims disagree: {a.shape} x {b.shape}")


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product, batched on leading dims. dA = dC.B^T, dB = A^T.dC."""
    _check_matmul(a, b)
    out_data = a.data @ b.data

    def backward(g):
        if a.requires_grad:
            a._accumulate(_unbroadcast(g @ np.swapaxes(b.data, -1, -2), a.shape))
        if b.requires_grad:
            b._accumulate(_unbroadcast(np.swapaxes(a.data, -1, -2) @ g, b.shape))

    return Tensor(out_data, _parents=(a, b), _backward=backward)


def linear(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """x.w + b as one node: add(matmul(x, w), b) with the same numpy calls,
    the bias added in place, and no tape node for the bare product."""
    _check_matmul(x, w)
    out_data = x.data @ w.data
    np.add(out_data, b.data, out=out_data)

    def backward(g):
        if b.requires_grad:
            b._accumulate(_unbroadcast(g, b.shape))
        if x.requires_grad:
            x._accumulate(_unbroadcast(g @ np.swapaxes(w.data, -1, -2), x.shape))
        if w.requires_grad:
            w._accumulate(_unbroadcast(np.swapaxes(x.data, -1, -2) @ g, w.shape))

    return Tensor(out_data, _parents=(x, w, b), _backward=backward)


# Bytes of attention scores in one block: about one core's L2 cache, so that
# a block's scores stay in cache from the gemm that writes them to the gemm
# that reads them back.
ATTN_BLOCK_BYTES = 2 << 20


def _image_blocks(score_shape: tuple, itemsize: int) -> tuple[list[slice], tuple]:
    """Slices of the leading (image) axis that hold about ATTN_BLOCK_BYTES of
    scores each, and the shape of the largest block. A 2-D call has no image
    axis and is one block."""
    if len(score_shape) == 2:
        return [slice(None)], score_shape
    lead = score_shape[0]
    per_image = itemsize * math.prod(score_shape[1:])
    step = max(1, min(lead, ATTN_BLOCK_BYTES // max(per_image, 1)))
    return [slice(i, i + step) for i in range(0, lead, step)], (step,) + score_shape[1:]


def attention(q: Tensor, k: Tensor, v: Tensor, scale: float) -> Tensor:
    """softmax(q.k^T * scale).v over the last two axes, as one node.

    The work runs one block of images (_image_blocks) at a time. Each block
    makes the numpy calls of matmul -> mul -> softmax -> matmul in the same
    order, in place in the block's scores. Every (image, head) slice has its
    own gemm and row reductions, so the results do not depend on the block
    size. Without a tape (no input requires grad) one block buffer is reused
    and the whole score array never exists; with one, the tape keeps the
    probabilities P whole. The backward replays the chain's backward per block
    in two reusable block buffers: dP = g.v^T,
    dS = P * (dP - rowsum(dP * P)) * scale, dq = dS.k, dk = (q^T.dS)^T and
    dv = P^T.g.
    """
    if q.ndim < 2 or q.shape != k.shape or v.shape[:-1] != k.shape[:-1]:
        raise ValueError(f"attention shapes disagree: q {q.shape}, k {k.shape}, v {v.shape}")
    scale = q.data.dtype.type(scale)
    dtype = np.result_type(q.data, k.data, v.data)
    score_shape = q.shape[:-1] + q.shape[-2:-1]
    blocks, block_shape = _image_blocks(score_shape, dtype.itemsize)
    taped = q.requires_grad or k.requires_grad or v.requires_grad
    p = np.empty(score_shape if taped else block_shape, dtype)
    out = np.empty(q.shape[:-1] + v.shape[-1:], dtype)
    for blk in blocks:
        qb = q.data[blk]
        pb = p[blk] if taped else p[:len(qb)]
        np.matmul(qb, np.swapaxes(k.data[blk], -1, -2), out=pb)
        np.multiply(pb, scale, out=pb)
        np.subtract(pb, pb.max(axis=-1, keepdims=True), out=pb)
        np.exp(pb, out=pb)
        np.divide(pb, pb.sum(axis=-1, keepdims=True), out=pb)
        np.matmul(pb, v.data[blk], out=out[blk])

    def backward(g):
        gtype = np.result_type(dtype, g)
        dv = np.empty(v.shape, gtype) if v.requires_grad else None
        dq = np.empty(q.shape, gtype) if q.requires_grad else None
        dk_t = (np.empty(k.shape[:-2] + (k.shape[-1], k.shape[-2]), gtype)
                if k.requires_grad else None)
        ds, prod = ((np.empty(block_shape, gtype), np.empty(block_shape, gtype))
                    if q.requires_grad or k.requires_grad else (None, None))
        for blk in blocks:
            pb, gb = p[blk], g[blk]
            if dv is not None:
                np.matmul(np.swapaxes(pb, -1, -2), gb, out=dv[blk])
            if ds is None:
                continue
            dsb, prodb = ds[:len(pb)], prod[:len(pb)]
            np.matmul(gb, np.swapaxes(v.data[blk], -1, -2), out=dsb)
            np.multiply(dsb, pb, out=prodb)
            np.subtract(dsb, prodb.sum(axis=-1, keepdims=True), out=dsb)
            np.multiply(pb, dsb, out=dsb)
            np.multiply(dsb, scale, out=dsb)
            if dq is not None:
                np.matmul(dsb, k.data[blk], out=dq[blk])
            if dk_t is not None:
                np.matmul(np.swapaxes(q.data[blk], -1, -2), dsb, out=dk_t[blk])
        if dv is not None:
            v._accumulate(dv)
        if dq is not None:
            q._accumulate(dq)
        if dk_t is not None:
            k._accumulate(np.swapaxes(dk_t, -1, -2))

    return Tensor(out, _parents=(q, k, v), _backward=backward)


def reshape(a: Tensor, shape) -> Tensor:
    out_data = a.data.reshape(shape)

    def backward(g):
        if a.requires_grad:
            a._accumulate(g.reshape(a.shape))

    return Tensor(out_data, _parents=(a,), _backward=backward)


def transpose(a: Tensor, axes) -> Tensor:
    axes = tuple(axes)
    inv = tuple(np.argsort(axes))
    out_data = a.data.transpose(axes)

    def backward(g):
        if a.requires_grad:
            a._accumulate(g.transpose(inv))

    return Tensor(out_data, _parents=(a,), _backward=backward)


def tsum(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    out_data = a.data.sum(axis=axis, keepdims=keepdims)

    def backward(g):
        if not a.requires_grad:
            return
        if axis is None:
            a._accumulate(np.broadcast_to(g, a.shape).copy())
            return
        if not keepdims:
            g = np.expand_dims(g, axis)
        a._accumulate(np.broadcast_to(g, a.shape).copy())

    return Tensor(out_data, _parents=(a,), _backward=backward)


def tmean(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    if axis is None:
        n = a.data.size
    else:
        n = a.shape[axis] if isinstance(axis, int) else int(np.prod([a.shape[i] for i in axis]))
    return mul(tsum(a, axis=axis, keepdims=keepdims), Tensor(1.0 / n))


def take(a: Tensor, indices, axis: int = 0) -> Tensor:
    """Row gather; backward scatter-adds into the source."""
    idx = np.asarray(indices)
    out_data = np.take(a.data, idx, axis=axis)

    def backward(g):
        if a.requires_grad:
            acc = np.zeros_like(a.data)
            np.add.at(np.moveaxis(acc, axis, 0), idx, np.moveaxis(g, axis, 0))
            a._accumulate(acc)

    return Tensor(out_data, _parents=(a,), _backward=backward)


def scatter_rows(values: Tensor, indices, n_rows: int) -> Tensor:
    """Inverse of take along axis 0: rows land at `indices` in a zero tensor
    of n_rows rows. The indices must not repeat (a repeat keeps one row);
    moe_forward's are distinct because a patch's top_k experts are."""
    idx = np.asarray(indices)
    out_data = np.zeros((n_rows,) + values.shape[1:], dtype=values.data.dtype)
    out_data[idx] = values.data

    def backward(g):
        if values.requires_grad:
            values._accumulate(g[idx])

    return Tensor(out_data, _parents=(values,), _backward=backward)


def gather_last(a: Tensor, indices: np.ndarray) -> Tensor:
    """Pick entries along the last axis; indices shape = a.shape[:-1] + (k,)."""
    idx = np.asarray(indices)
    out_data = np.take_along_axis(a.data, idx, axis=-1)

    def backward(g):
        if a.requires_grad:
            acc = np.zeros_like(a.data).reshape(-1, a.shape[-1])
            flat_idx = idx.reshape(-1, idx.shape[-1])
            rows = np.arange(flat_idx.shape[0])[:, None]
            np.add.at(acc, (rows, flat_idx), g.reshape(flat_idx.shape))
            a._accumulate(acc.reshape(a.shape))

    return Tensor(out_data, _parents=(a,), _backward=backward)


def sqrt(a: Tensor) -> Tensor:
    out_data = np.sqrt(a.data)

    def backward(g):
        if a.requires_grad:
            a._accumulate(g * 0.5 / out_data)

    return Tensor(out_data, _parents=(a,), _backward=backward)


def softmax(a: Tensor, axis: int = -1) -> Tensor:
    """Max-stabilized softmax along axis."""
    shifted = a.data - a.data.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    out_data = e / e.sum(axis=axis, keepdims=True)

    def backward(g):
        if a.requires_grad:
            dot = (g * out_data).sum(axis=axis, keepdims=True)
            a._accumulate(out_data * (g - dot))

    return Tensor(out_data, _parents=(a,), _backward=backward)


def log_softmax(a: Tensor, axis: int = -1) -> Tensor:
    shifted = a.data - a.data.max(axis=axis, keepdims=True)
    lse = np.log(np.exp(shifted).sum(axis=axis, keepdims=True))
    out_data = shifted - lse
    soft = np.exp(out_data)

    def backward(g):
        if a.requires_grad:
            a._accumulate(g - soft * g.sum(axis=axis, keepdims=True))

    return Tensor(out_data, _parents=(a,), _backward=backward)


def layer_norm(x: Tensor, gain: Tensor, bias: Tensor) -> Tensor:
    """Normalize over the last (channel) axis, eps default_eps(), then affine."""
    mu = x.data.mean(axis=-1, keepdims=True)
    xc = x.data - mu
    var = (xc * xc).mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + default_eps())
    xhat = xc * inv
    out_data = xhat * gain.data + bias.data

    def backward(g):
        if gain.requires_grad:
            gain._accumulate(_unbroadcast(g * xhat, gain.shape))
        if bias.requires_grad:
            bias._accumulate(_unbroadcast(g, bias.shape))
        if x.requires_grad:
            gh = g * gain.data
            x._accumulate(inv * (gh - gh.mean(axis=-1, keepdims=True)
                                 - xhat * (gh * xhat).mean(axis=-1, keepdims=True)))

    return Tensor(out_data, _parents=(x, gain, bias), _backward=backward)


def clamp_min(a: Tensor, floor: float) -> Tensor:
    """max(a, floor); gradient passes only where a > floor."""
    out_data = np.maximum(a.data, floor)

    def backward(g):
        if a.requires_grad:
            a._accumulate(g * (a.data > floor))

    return Tensor(out_data, _parents=(a,), _backward=backward)


def silu(a: Tensor) -> Tensor:
    sig = 1.0 / (1.0 + np.exp(-a.data))
    out_data = a.data * sig

    def backward(g):
        if a.requires_grad:
            a._accumulate(g * sig * (1.0 + a.data * (1.0 - sig)))

    return Tensor(out_data, _parents=(a,), _backward=backward)


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
# Binary tensor blob format
# ---------------------------------------------------------------------------

BLOB_MAGIC = b"PMTBLOB1"
_DTYPE_CODES = {np.dtype(np.float32): 0, np.dtype(np.float64): 1}
_CODE_DTYPES = {v: k for k, v in _DTYPE_CODES.items()}


def write_blob(f, arr: np.ndarray) -> None:
    """Append one tensor record."""
    arr = np.asarray(arr)
    shape = arr.shape  # ascontiguousarray promotes 0-d arrays to 1-d
    arr = np.ascontiguousarray(arr)
    if arr.dtype not in _DTYPE_CODES:
        arr = arr.astype(np.float32)
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
