"""Fine-tuning loop: grouped AdamW, MixUp and flip augmentation, and
deterministic evaluation with routing capture.

Parameter groups: MoE layers (centroids and experts) train at 0.005, the
classifier head at 1e-5 with weight decay 1e-8, everything else at 5e-5.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, field, asdict

import numpy as np

from . import tensor as T
from .data import Dataset, LabeledImage
from .moe import MoEBlock, load_entropy
from .tensor import Rng, Tensor


class DivergenceError(RuntimeError):
    """Raised when the training loss turns non-finite."""


@dataclass
class OptimConfig:
    lr_moe: float = 0.005
    lr_classifier: float = 1e-5
    lr_rest: float = 5e-5
    wd_classifier: float = 1e-8
    wd_other: float = 0.0
    betas: tuple[float, float] = (0.9, 0.99)
    eps: float = 1e-8
    batch_size: int = 32
    epochs: int = 80

    def __post_init__(self):
        # zero is allowed so a frozen run can serve as a bit-exactness check
        if min(self.lr_moe, self.lr_classifier, self.lr_rest) < 0:
            raise ValueError("learning rates must be >= 0")
        if self.batch_size < 1 or self.epochs < 0:
            raise ValueError("batch_size must be >= 1 and epochs >= 0")

    def to_json(self) -> dict:
        d = asdict(self)
        d["betas"] = list(self.betas)
        return d


@dataclass
class AugmentConfig:
    hflip_p: float = 0.5
    mixup_alpha: float = 0.2

    def __post_init__(self):
        if not 0.0 <= self.hflip_p <= 1.0:
            raise ValueError("hflip_p must be in [0, 1]")
        if self.mixup_alpha < 0:
            raise ValueError("mixup_alpha must be >= 0")

    def to_json(self) -> dict:
        return asdict(self)


def parameter_group(name: str) -> str:
    """moe: anything inside a MoE block; classifier: the head; rest: other."""
    if ".moe." in name:
        return "moe"
    if name.startswith("head."):
        return "classifier"
    return "rest"


class AdamW:
    """Decoupled-weight-decay Adam over named parameter groups.

    Expert gamma blend weights are clamped to [0, 1] after every step.
    """

    def __init__(self, params: dict[str, Tensor], config: OptimConfig):
        self.params = dict(params)
        self.config = config
        self.t = 0
        self.m = {k: np.zeros_like(v.data) for k, v in self.params.items()}
        self.v = {k: np.zeros_like(v.data) for k, v in self.params.items()}

    def _group_settings(self, name: str) -> tuple[float, float]:
        group = parameter_group(name)
        cfg = self.config
        if group == "moe":
            return cfg.lr_moe, cfg.wd_other
        if group == "classifier":
            return cfg.lr_classifier, cfg.wd_classifier
        return cfg.lr_rest, cfg.wd_other

    def step(self) -> None:
        cfg = self.config
        b1, b2 = cfg.betas
        self.t += 1
        bc1 = 1.0 - b1 ** self.t
        bc2 = 1.0 - b2 ** self.t
        for name, p in self.params.items():
            g = p.grad
            if g is None:
                continue
            if g.shape != p.data.shape:
                raise ValueError(f"gradient shape mismatch for {name}")
            lr, wd = self._group_settings(name)
            m = self.m[name]
            v = self.v[name]
            m *= b1
            m += (1.0 - b1) * g
            v *= b2
            v += (1.0 - b2) * g * g
            update = (m / bc1) / (np.sqrt(v / bc2) + cfg.eps)
            if wd:
                update = update + wd * p.data
            p.data = p.data - lr * update
            if name.endswith(".gamma"):
                p.data = np.clip(p.data, 0.0, 1.0)

    def zero_grad(self) -> None:
        for p in self.params.values():
            p.grad = None


# ---------------------------------------------------------------------------
# Augmentation
# ---------------------------------------------------------------------------


def hflip(image: np.ndarray, p: float, rng: Rng) -> np.ndarray:
    """Mirror the width axis with probability p."""
    if p > 0 and rng.random() < p:
        return image[:, ::-1, :].copy()
    return image


def mixup(batch_x: np.ndarray, batch_y: np.ndarray, alpha: float,
          rng: Rng) -> tuple[np.ndarray, np.ndarray, float]:
    """Convex combination of the batch with a permutation of itself.

    alpha = 0 is the identity by convention (lambda = 1, no permutation
    draw). Labels must already be one-hot or soft rows summing to 1.
    """
    if alpha == 0:
        return batch_x, batch_y, 1.0
    lam = float(rng.beta(alpha, alpha))
    perm = rng.permutation(batch_x.shape[0])
    x = lam * batch_x + (1.0 - lam) * batch_x[perm]
    y = lam * batch_y + (1.0 - lam) * batch_y[perm]
    return x, y, lam


def one_hot(labels: np.ndarray, num_classes: int) -> np.ndarray:
    out = np.zeros((len(labels), num_classes), dtype=T.default_dtype())
    out[np.arange(len(labels)), labels] = 1.0
    return out


# ---------------------------------------------------------------------------
# Loss and evaluation
# ---------------------------------------------------------------------------


def soft_cross_entropy(logits: Tensor, soft_labels: np.ndarray) -> Tensor:
    """Mean over the batch of -sum_c y_c log p_c."""
    logp = T.log_softmax(logits, axis=-1)
    picked = T.mul(logp, Tensor(np.asarray(soft_labels, dtype=logits.data.dtype)))
    return T.mul(T.tsum(picked), Tensor(-1.0 / logits.shape[0]))


@dataclass
class EvalResult:
    loss: float
    top1: float
    per_class: dict[int, float]
    labels: np.ndarray
    predictions: np.ndarray
    # per MoE layer: full softmax routing probabilities, N x P x E over all
    # evaluated images in dataset order
    routing_probs: dict[int, np.ndarray] = field(default_factory=dict)
    expert_counts: dict[int, np.ndarray] = field(default_factory=dict)

    def expert_entropy(self, layer: int) -> float:
        return load_entropy(self.expert_counts[layer])


def evaluate(model, images: list[LabeledImage], batch_size: int = 32) -> EvalResult:
    """Deterministic eval-mode pass over a list of labeled images. Builds no
    autodiff tape."""
    if not images:
        raise ValueError("cannot evaluate on an empty split")
    num_classes = model.config.num_classes
    labels = np.array([im.class_id for im in images])
    preds = np.empty(len(images), dtype=np.int64)
    total_loss = 0.0
    probs_chunks: dict[int, list[np.ndarray]] = {}
    counts: dict[int, np.ndarray] = {}
    with model.no_grad():
        for start in range(0, len(images), batch_size):
            chunk = images[start:start + batch_size]
            x = np.stack([im.pixels for im in chunk])
            y = labels[start:start + len(chunk)]
            result = model.forward(x)
            loss = soft_cross_entropy(result.logits, one_hot(y, num_classes))
            total_loss += loss.item() * len(chunk)
            preds[start:start + len(chunk)] = np.argmax(result.logits.data, axis=-1)
            for layer, record in result.routing.items():
                probs_chunks.setdefault(layer, []).append(record.full_probs)
                if layer not in counts:
                    counts[layer] = np.zeros(record.num_experts, dtype=np.int64)
                counts[layer] += record.expert_counts
    per_class = {}
    for c in range(num_classes):
        mask = labels == c
        if mask.any():
            per_class[c] = float((preds[mask] == c).mean())
    return EvalResult(
        loss=total_loss / len(images),
        top1=float((preds == labels).mean()),
        per_class=per_class,
        labels=labels,
        predictions=preds,
        routing_probs={k: np.concatenate(v) for k, v in probs_chunks.items()},
        expert_counts=counts,
    )


# ---------------------------------------------------------------------------
# Training loop
# ---------------------------------------------------------------------------


@dataclass
class TrainResult:
    rows: list[dict]          # per-epoch metric rows, train and val
    final_val: EvalResult | None
    manifest: dict


def _moe_layer_ids(model) -> list[int]:
    return [i for i, layer in enumerate(model.layers)
            if isinstance(layer.mlp, MoEBlock)]


def write_metrics_csv(rows: list[dict], moe_layers: list[int], path) -> None:
    columns = ["epoch", "split", "loss", "top1"]
    columns += [f"expert_entropy_layer_{i}" for i in moe_layers]
    with open(path, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(columns)
        for row in rows:
            writer.writerow([repr(row[c]) if isinstance(row[c], float) else row[c]
                             for c in columns])


def train(model, dataset: Dataset, optim: OptimConfig, augment: AugmentConfig,
          seed: int, metrics_path=None, manifest_path=None) -> TrainResult:
    """Train on the dataset's train split, evaluating on val every epoch.

    Deterministic given the seed: the shuffle, flips, MixUp draws, and
    dropout all derive from child streams of one root generator.
    """
    train_images = dataset.split("train")
    val_images = dataset.split("val")
    if not train_images:
        raise ValueError("dataset has no training split")
    num_classes = model.config.num_classes
    moe_layers = _moe_layer_ids(model)
    optimizer = AdamW(model.named_parameters(), optim)
    root = Rng(seed)
    rows: list[dict] = []
    final_val = None

    for epoch in range(optim.epochs):
        erng = root.child(epoch)
        order = erng.permutation(len(train_images))
        flip_rng = erng.child(0)
        mix_rng = erng.child(1)
        drop_rng = erng.child(2)
        epoch_loss = 0.0
        epoch_correct = 0
        for start in range(0, len(order), optim.batch_size):
            idx = order[start:start + optim.batch_size]
            imgs = [train_images[i] for i in idx]
            x = np.stack([
                hflip(im.pixels, augment.hflip_p, flip_rng).astype(T.default_dtype())
                for im in imgs])
            labels = np.array([im.class_id for im in imgs])
            y = one_hot(labels, num_classes)
            x, y, _ = mixup(x, y, augment.mixup_alpha, mix_rng)
            result = model.forward(x, train=True, rng=drop_rng)
            loss = soft_cross_entropy(result.logits, y)
            value = loss.item()
            if not np.isfinite(value):
                raise DivergenceError(
                    f"non-finite loss {value} at epoch {epoch}, step {start // optim.batch_size}")
            optimizer.zero_grad()
            loss.backward()
            optimizer.step()
            epoch_loss += value * len(idx)
            epoch_correct += int((np.argmax(result.logits.data, axis=-1) == labels).sum())
        train_row = {"epoch": epoch, "split": "train",
                     "loss": epoch_loss / len(order),
                     "top1": epoch_correct / len(order)}
        val_row = None
        if val_images:
            final_val = evaluate(model, val_images, optim.batch_size)
            val_row = {"epoch": epoch, "split": "val",
                       "loss": final_val.loss, "top1": final_val.top1}
        for i in moe_layers:
            ent = final_val.expert_entropy(i) if final_val else ""
            train_row[f"expert_entropy_layer_{i}"] = ent
            if val_row is not None:
                val_row[f"expert_entropy_layer_{i}"] = ent
        rows.append(train_row)
        if val_row is not None:
            rows.append(val_row)

    manifest = {
        "seed": seed,
        "optim": optim.to_json(),
        "augment": augment.to_json(),
        "model": model.config.to_json(),
        "train_size": len(train_images),
        "val_size": len(val_images),
        "moe_layers": moe_layers,
        "stage": model.stage,
    }
    if metrics_path is not None:
        write_metrics_csv(rows, moe_layers, metrics_path)
    if manifest_path is not None:
        with open(manifest_path, "w") as f:
            json.dump(manifest, f, indent=2, sort_keys=True)
    return TrainResult(rows=rows, final_val=final_val, manifest=manifest)
