"""Minimal patch transformer with MobileViT-style (patch, pixel) token layout.

The model is deliberately small and auditable: a single learned projection of
non-overlapping pixel blocks, learned additive positional embeddings per
(patch, pixel) slot, pre-norm multi-head self-attention across the patches,
separately for each pixel position as in MobileViT, and an MLP sublayer
that can be swapped for a mixture-of-experts block per layer. The MLP's
activation is SiLU, as in MobileViTV2. The activation after attention and the
MLP-input layer norm is the capture point for router initialization.
"""

from __future__ import annotations

import hashlib
import json
import math
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field, fields
from itertools import zip_longest
from pathlib import Path

import numpy as np

from . import moe as moe_mod
from . import tensor as T
from .tensor import Rng, ScalerParams, Tensor

# Pixel positions per patch: MobileViT's 2 x 2 unfolding (arXiv 2110.02178).
N_PX = 4
HEADS = 2  # attention heads
# Images per forward wherever a caller runs many: captures, affinity batches
# and training steps. A bounded chunk keeps peak memory near that of a small
# batch; one forward over every image does not.
CAPTURE_CHUNK = 16


@dataclass
class ModelConfig:
    num_classes: int
    image_size: int = 64
    patch_size: int = 8       # patch side in pixels, even: a 2 x 2 grid of cells
    d_model: int = 32         # even: split over HEADS
    d_ff: int = 64
    layers: int = 9
    dropout: float = 0.1
    moe_layers: tuple[int, ...] = ()
    experts: int = 16
    top_k: int = 1
    router_temperature: float = 1.0
    gate_mode: str = "renorm"
    reduction_factor: int = 2

    def __post_init__(self):
        # a checkpoint's JSON may hold any type: a bool, float or string is no int
        types = {"int": (int,), "float": (int, float), "str": (str,),
                 "tuple[int, ...]": (list, tuple)}
        for f in fields(self):
            value = getattr(self, f.name)
            if type(value) not in types[f.type] or f.name == "moe_layers" and any(
                    type(i) is not int for i in value):
                raise ValueError(f"{f.name} must be {f.type}, not {value!r}")
        self.moe_layers = tuple(sorted(self.moe_layers))
        if self.layers < 1:
            raise ValueError("need at least one layer")
        if any(i < 0 or i >= self.layers for i in self.moe_layers):
            raise ValueError("moe_layers outside 0..layers-1")
        if len(set(self.moe_layers)) != len(self.moe_layers):
            raise ValueError("moe_layers repeats a layer")
        sizes = ("image_size", "patch_size", "d_model", "d_ff", "experts")
        if min(getattr(self, k) for k in sizes) < 1:
            raise ValueError(f"{', '.join(sizes)} must be >= 1")
        if self.patch_size % math.isqrt(N_PX) != 0:
            raise ValueError(f"patch_size not divisible by sqrt(N_PX) = {math.isqrt(N_PX)}")
        if self.image_size % self.patch_size != 0:
            raise ValueError("image_size not divisible by the patch grid")
        if self.d_model % HEADS != 0:
            raise ValueError(f"d_model not divisible by HEADS = {HEADS}")
        if not 0.0 <= self.dropout < 1.0:
            raise ValueError("dropout must be in [0, 1)")
        if not 1 <= self.top_k <= self.experts:
            raise ValueError("top_k must be in 1..experts")
        if not (math.isfinite(self.router_temperature) and self.router_temperature > 0):
            raise ValueError("router_temperature must be finite and > 0")
        if self.gate_mode not in ("renorm", "raw"):
            raise ValueError(f"unknown gate_mode {self.gate_mode!r}")
        if self.reduction_factor < 1 or self.d_ff % self.reduction_factor:
            raise ValueError("reduction_factor must be >= 1 and divide d_ff")

    @property
    def grid(self) -> int:
        return self.image_size // self.patch_size

    @property
    def cell(self) -> int:
        """Side length of one pixel position's block."""
        return self.patch_size // math.isqrt(N_PX)

    @property
    def d_expert(self) -> int:
        """Hidden width of one expert: d_ff // reduction_factor."""
        return self.d_ff // self.reduction_factor


def desk_config(num_classes: int, **overrides) -> ModelConfig:
    """Default desk-scale configuration: the whole suite runs in minutes."""
    base = dict(num_classes=num_classes, image_size=64, patch_size=8,
                d_model=32, d_ff=64, layers=4)
    base.update(overrides)
    return ModelConfig(**base)


def unfold(images: np.ndarray, patch_size: int) -> np.ndarray:
    """(B, H, W, C) pixels -> (B, P, N_PX, cell*cell*C) blocks."""
    b, h, w, c = images.shape
    side = math.isqrt(N_PX)
    cell = patch_size // side
    gy, gx = h // patch_size, w // patch_size
    x = images.reshape(b, gy, side, cell, gx, side, cell, c)
    x = x.transpose(0, 1, 4, 2, 5, 3, 6, 7)  # b, gy, gx, sy, sx, cy, cx, c
    return x.reshape(b, gy * gx, N_PX, cell * cell * c)


@dataclass
class DenseMLP:
    w1: Tensor
    b1: Tensor
    w2: Tensor
    b2: Tensor

    def forward(self, pre: Tensor, residual: Tensor | None = None) -> Tensor:
        """The MLP on `pre`, plus `residual` in the same node if given."""
        return T.silu_linear(T.linear(pre, self.w1, self.b1), self.w2, self.b2, residual)

    def parameters(self) -> dict[str, Tensor]:
        return {"w1": self.w1, "b1": self.b1, "w2": self.w2, "b2": self.b2}


@dataclass
class TransformerLayer:
    ln1_gain: Tensor
    ln1_bias: Tensor
    wq: Tensor
    wk: Tensor
    wv: Tensor
    wo: Tensor
    bq: Tensor
    bk: Tensor
    bv: Tensor
    bo: Tensor
    ln2_gain: Tensor
    ln2_bias: Tensor
    mlp: "DenseMLP | moe_mod.MoEBlock"

    def parameters(self) -> dict[str, Tensor]:
        out = {"ln1.gain": self.ln1_gain, "ln1.bias": self.ln1_bias,
               "pxattn.wq": self.wq, "pxattn.bq": self.bq,
               "pxattn.wk": self.wk, "pxattn.bk": self.bk,
               "pxattn.wv": self.wv, "pxattn.bv": self.bv,
               "pxattn.wo": self.wo, "pxattn.bo": self.bo,
               "ln2.gain": self.ln2_gain, "ln2.bias": self.ln2_bias}
        prefix = "moe" if isinstance(self.mlp, moe_mod.MoEBlock) else "mlp"
        out.update({f"{prefix}.{k}": v for k, v in self.mlp.parameters().items()})
        return out


@dataclass
class ForwardResult:
    logits: Tensor
    routing: dict[int, "moe_mod.RoutingRecord"] = field(default_factory=dict)


class Model:
    """Patch transformer; MLP sublayers are dense until moefied."""

    def __init__(self, config: ModelConfig, rng: Rng):
        self.config = config
        self.finetuned = False
        cfg = config
        in_dim = cfg.cell * cfg.cell * 3
        d = cfg.d_model
        self.embed_w = T.parameter(None, rng.child(0), (in_dim, d), scale=1 / math.sqrt(in_dim))
        self.embed_b = T.parameter(np.zeros(d))
        self.pos = T.parameter(None, rng.child(1), (cfg.grid, cfg.grid, N_PX, d), scale=0.02)
        self.layers: list[TransformerLayer] = []
        for i in range(cfg.layers):
            lrng = rng.child(2, i)
            w = lambda j, shape: T.parameter(None, lrng.child(j), shape,
                                             scale=1 / math.sqrt(shape[0]))
            self.layers.append(TransformerLayer(
                ln1_gain=T.parameter(np.ones(d)), ln1_bias=T.parameter(np.zeros(d)),
                wq=w(0, (d, d)), wk=w(1, (d, d)), wv=w(2, (d, d)), wo=w(3, (d, d)),
                bq=T.parameter(np.zeros(d)), bk=T.parameter(np.zeros(d)),
                bv=T.parameter(np.zeros(d)), bo=T.parameter(np.zeros(d)),
                ln2_gain=T.parameter(np.ones(d)), ln2_bias=T.parameter(np.zeros(d)),
                mlp=DenseMLP(w1=w(4, (d, cfg.d_ff)), b1=T.parameter(np.zeros(cfg.d_ff)),
                             w2=w(5, (cfg.d_ff, d)), b2=T.parameter(np.zeros(d))),
            ))
        self.head_w = T.parameter(None, rng.child(3), (d, cfg.num_classes),
                                  scale=1 / math.sqrt(d))
        self.head_b = T.parameter(np.zeros(cfg.num_classes))

    # -- parameters ---------------------------------------------------------

    def named_parameters(self) -> dict[str, Tensor]:
        out = {"embed.w": self.embed_w, "embed.b": self.embed_b, "pos": self.pos}
        for i, layer in enumerate(self.layers):
            out.update({f"layer{i}.{k}": v for k, v in layer.parameters().items()})
        out.update({"head.w": self.head_w, "head.b": self.head_b})
        return out

    @contextmanager
    def no_grad(self):
        """Inside the block no parameter requires grad, so a forward builds no
        autodiff tape; each parameter's flag is restored on exit, also when
        the block raises."""
        params = list(self.named_parameters().values())
        saved = [p.requires_grad for p in params]
        for p in params:
            p.requires_grad = False
        try:
            yield
        finally:
            for p, flag in zip(params, saved):
                p.requires_grad = flag

    # -- forward ------------------------------------------------------------

    def patch_embed(self, images: np.ndarray) -> Tensor:
        """uint8 images -> (B, P, N_PX, d) embedded blocks with positions."""
        cfg = self.config
        b, h, w, c = images.shape
        if h != w or h % cfg.patch_size != 0 or c != 3:
            raise ValueError(f"image shape {images.shape} incompatible with config")
        blocks = unfold(images.astype(T.default_dtype()) / 255.0, cfg.patch_size)
        grid = h // cfg.patch_size
        pos = self.pos
        if grid != cfg.grid:  # alternate scale: nearest-neighbor over the patch grid
            rows = (np.arange(grid) * cfg.grid) // grid
            pos = T.take(T.take(pos, rows, axis=0), rows, axis=1)
        pos = T.reshape(pos, (grid * grid, N_PX, cfg.d_model))
        # the positions broadcast over the images, added in the embedding's array
        return T.linear(Tensor(blocks), self.embed_w, self.embed_b, residual=pos)

    def attention(self, layer: TransformerLayer, x: Tensor) -> Tensor:
        """Pre-norm multi-head self-attention across the P patches, separately
        for each of the N_PX pixel positions (MobileViT's layout), residual
        included."""
        b, p, n_px, d = x.shape
        h = HEADS
        dh = d // h
        normed = T.layer_norm(x, layer.ln1_gain, layer.ln1_bias)

        def split_heads(t):  # (B, P, N_PX, d) -> (B, N_PX, HEADS, P, dh)
            return T.transpose(T.reshape(t, (b, p, n_px, h, dh)), (0, 2, 3, 1, 4))

        q = split_heads(T.linear(normed, layer.wq, layer.bq))
        k = split_heads(T.linear(normed, layer.wk, layer.bk))
        v = split_heads(T.linear(normed, layer.wv, layer.bv))
        # laid out like v, so the merge back to (B, P, N_PX, d) takes views only
        attn = T.attention(q, k, v, 1.0 / math.sqrt(dh))
        merged = T.reshape(T.transpose(attn, (0, 3, 1, 2, 4)), (b, p, n_px, d))
        return T.linear(merged, layer.wo, layer.bo, residual=x)

    def forward(self, images: np.ndarray, train: bool = False,
                rng: Rng | None = None) -> ForwardResult:
        cfg = self.config
        x = self.patch_embed(images)
        result = ForwardResult(logits=None)
        for i, layer in enumerate(self.layers):
            x = self.attention(layer, x)
            captured = T.layer_norm(x, layer.ln2_gain, layer.ln2_bias)
            x, record = self._mlp_residual(layer, x, captured)
            if record is not None:
                result.routing[i] = record
        pooled = T.tmean(x, axis=(1, 2))
        if train and cfg.dropout > 0:
            if rng is None:
                raise ValueError("training forward needs an rng for dropout")
            pooled = T.dropout(pooled, cfg.dropout, rng)
        result.logits = T.linear(pooled, self.head_w, self.head_b)
        return result

    def _mlp_residual(self, layer: TransformerLayer, x: Tensor, captured: Tensor):
        """x plus the layer's dense MLP or MoE output on `captured`, and the
        MoE routing record (None for a dense MLP). A dense MLP adds x in its
        output's node and array."""
        if isinstance(layer.mlp, moe_mod.MoEBlock):
            sub_out, record = moe_mod.moe_forward(x, captured, layer.mlp)
            return T.add(x, sub_out), record
        return layer.mlp.forward(captured, residual=x), None

    def capture_pre_mlp(self, images: np.ndarray, layer: int) -> Tensor:
        """Activation after attention and the MLP-input layer norm at `layer`:
        the tensor clustered and routed on, as forward computes it. Later
        layers and the head never run. Builds no autodiff tape."""
        if not 0 <= layer < len(self.layers):
            raise ValueError(f"invalid layer {layer}")
        with self.no_grad():
            x = self.patch_embed(images)
            for i, block in enumerate(self.layers[:layer + 1]):
                x = self.attention(block, x)
                captured = T.layer_norm(x, block.ln2_gain, block.ln2_bias)
                if i < layer:
                    x, _ = self._mlp_residual(block, x, captured)
            return captured

    # -- stats --------------------------------------------------------------

    def moe_blocks(self) -> dict[int, moe_mod.MoEBlock]:
        """The MoE blocks by layer index; a model without any is dense."""
        return {i: layer.mlp for i, layer in enumerate(self.layers)
                if isinstance(layer.mlp, moe_mod.MoEBlock)}

    def parameter_counts(self) -> dict:
        """Parameters in all, in the MoE layers and per expert; those one
        patch runs through (everything outside the MoE layers, plus per MoE
        layer its router and top_k experts); and those of the dense model the
        config implies, a dense MLP at each MoE layer."""
        from .expert_init import per_expert_param_count  # expert_init imports backbone
        cfg = self.config
        params = self.named_parameters()
        total = sum(t.data.size for t in params.values())
        moe_layers = sum(t.data.size for n, t in params.items() if ".moe." in n)
        blocks = self.moe_blocks()
        per_expert = per_expert_param_count(cfg.d_model, cfg.d_ff, cfg.reduction_factor)
        dense_mlp = 2 * cfg.d_model * cfg.d_ff + cfg.d_ff + cfg.d_model
        return {"total": total, "moe_layers": moe_layers,
                "per_expert": {str(i): sum(getattr(block, k).data[0].size
                                           for k in moe_mod.EXPERT_WEIGHTS)
                               for i, block in blocks.items()},
                "active_per_patch": total - moe_layers + sum(
                    block.router.centroids.data.size + cfg.top_k * per_expert
                    for block in blocks.values()),
                "dense": total - moe_layers + len(blocks) * dense_mlp}


# ---------------------------------------------------------------------------
# Checkpoints: JSON manifest + tensor blob file
# ---------------------------------------------------------------------------


def dense_mlp_hash(layer: TransformerLayer) -> str:
    """Fingerprint of a dense MLP sublayer, recorded when moefying."""
    h = hashlib.sha256()
    for key in ("w1", "b1", "w2", "b2"):
        h.update(np.ascontiguousarray(layer.mlp.parameters()[key].data).tobytes())
    return h.hexdigest()[:16]


def checkpoint_blob(path: Path) -> Path:
    """The blob file beside the manifest at `path`; ValueError for a path
    ending in .bin, whose manifest and blob would be one file."""
    if path.suffix == ".bin":
        raise ValueError(f"checkpoint path {path} ends in .bin, the suffix of its blob file")
    return path.with_suffix(".bin")


def save_checkpoint(model: Model, path: Path | str) -> None:
    """Write the blob and then the manifest to temporary siblings and move
    each into place, manifest last: a save that fails leaves the checkpoint
    that was at `path` as it was."""
    path = Path(path)
    blob = checkpoint_blob(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    manifest = {
        "finetuned": model.finetuned,
        "config": asdict(model.config),
        "params": list(model.named_parameters()),  # in the order of the blob's records
        "moe": {str(i): {"scaler": block.router.scaler.to_json(),
                         "source_dense_hash": block.source_hash}
                for i, block in model.moe_blocks().items()},
    }
    # `with a, b` exits b first: the blob is moved into place before the manifest
    with T.atomic_write(path) as fm, T.atomic_write(blob, "wb") as fb:
        for t in model.named_parameters().values():
            T.write_blob(fb, t.data)
        fb.flush()
        # the loader checks it, so that a blob written for another manifest is refused
        manifest["blob_sha256"] = T.file_sha256(fb.name)
        json.dump(manifest, fm, indent=1, sort_keys=True)


class CheckpointError(Exception):
    pass


def _model_from_manifest(manifest: dict) -> Model:
    """The model a manifest describes. The config holds every model setting;
    an MoE entry, at one of its moe_layers, adds only its scaler and its
    source hash. Parameter values are placeholders of the shapes the config
    gives: per MoE layer, config.experts stacked experts of config.d_expert units."""
    stored = manifest["config"]
    missing = [f.name for f in fields(ModelConfig) if f.name not in stored]
    if missing:
        raise ValueError(f"config lacks {', '.join(missing)}")
    config = ModelConfig(**stored)
    model = Model(config, Rng(0))
    for key, info in manifest["moe"].items():
        if key not in {str(i) for i in config.moe_layers}:
            raise ValueError(f"MoE entry {key!r} does not name one of the config's "
                             f"moe_layers {list(config.moe_layers)}")
        router = moe_mod.Router(
            centroids=T.parameter(np.ones((config.experts, config.d_model))),
            scaler=ScalerParams.from_json(info["scaler"]),
            temperature=config.router_temperature, top_k=config.top_k,
            gate_mode=config.gate_mode)
        if not isinstance(info["source_dense_hash"], str):
            raise ValueError(f"layer {key} source_dense_hash must be a string")
        model.layers[int(key)].mlp = moe_mod.MoEBlock.zeros(
            router, config.d_expert, info["source_dense_hash"])
    if not isinstance(manifest["finetuned"], bool):
        raise ValueError("finetuned must be true or false")
    model.finetuned = manifest["finetuned"]
    return model


def _open_checkpoint_file(path: Path, mode: str):
    try:
        return open(path, mode)
    except OSError as exc:
        raise CheckpointError(f"cannot open checkpoint file {path}: "
                              f"{exc.strerror or exc}") from None


def load_checkpoint(path: Path | str) -> Model:
    """Rebuild a model from its manifest and blob file. Raises CheckpointError
    unless `params` names the model's parameters in order and the blob, read
    front to back, holds one valid record per name and nothing else."""
    path = Path(path)
    with _open_checkpoint_file(path, "r") as f:
        try:
            manifest = json.load(f)
        except ValueError as exc:  # not JSON, or not UTF-8 (a blob given as --ckpt)
            raise CheckpointError(f"malformed checkpoint manifest {path}: {exc}") from None
    try:
        model = _model_from_manifest(manifest)
        names, blob_sha256 = manifest["params"], manifest["blob_sha256"]
    except (AttributeError, KeyError, IndexError, TypeError, ValueError) as exc:
        raise CheckpointError(f"invalid checkpoint manifest {path}: "
                              f"{type(exc).__name__}: {exc}") from None
    params = model.named_parameters()
    if names != list(params):
        stored, wanted = next((a, b) for a, b in zip_longest(names, params) if a != b)
        raise CheckpointError(f"checkpoint parameters differ from the config's model: the "
                              f"manifest lists {stored!r} where the model has {wanted!r}")
    blob_path = path.with_suffix(".bin")
    with _open_checkpoint_file(blob_path, "rb") as f:
        for name, t in params.items():
            try:
                arr = T.read_blob(f)
                if arr.dtype not in (np.float32, np.float64):
                    raise ValueError(f"dtype {arr.dtype} is not float32 or float64")
            except ValueError as exc:
                raise CheckpointError(f"{blob_path}: {name}: {exc}") from None
            if arr.shape != t.shape:
                raise CheckpointError(f"shape mismatch for {name}: stored {list(arr.shape)}, "
                                      f"model {list(t.shape)} from the config's sizes "
                                      f"and reduction_factor")
            t.data = arr.astype(T.default_dtype())
        if f.read(1):
            raise CheckpointError(f"{blob_path}: bytes after the last parameter record")
    # A blob of the same config parses above; its digest tells it apart.
    if T.file_sha256(blob_path) != blob_sha256:
        raise CheckpointError(f"{blob_path}: sha256 differs from the blob_sha256 that "
                              f"{path} records; the blob was written for another manifest")
    for i, block in model.moe_blocks().items():
        try:
            block.router.validate()
        except ValueError as exc:
            raise CheckpointError(f"{blob_path}: layer {i} router: {exc}") from None
    return model
