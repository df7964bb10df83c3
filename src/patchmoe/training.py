"""Fine-tuning loop: grouped AdamW, MixUp and flip augmentation, and
deterministic evaluation with routing capture.

Parameter groups: MoE layers (centroids and experts) train at 0.005, the
classifier head at 1e-5, everything else at 5e-5. AdamW runs at BETAS
(0.9, 0.99) and EPS 1e-8, and only the head decays, by WD_CLASSIFIER 1e-8
(decoupled, arXiv 1711.05101).
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field

import numpy as np

from . import tensor as T
from .data import Dataset, LabeledImage
from .moe import dispatch_stats, load_entropy
from .tensor import Rng, Tensor


BETAS = (0.9, 0.99)
EPS = 1e-8
WD_CLASSIFIER = 1e-8


class DivergenceError(RuntimeError):
    """Raised when the training loss turns non-finite."""


@dataclass
class OptimConfig:
    lr_moe: float = 0.005
    lr_classifier: float = 1e-5
    lr_rest: float = 5e-5
    batch_size: int = 32
    epochs: int = 80

    def __post_init__(self):
        # zero is allowed so a frozen run can serve as a bit-exactness check
        rates = (self.lr_moe, self.lr_classifier, self.lr_rest)
        if not all(math.isfinite(r) and r >= 0 for r in rates):
            raise ValueError("learning rates must be finite and >= 0")
        if self.batch_size < 1 or self.epochs < 0:
            raise ValueError("batch_size must be >= 1 and epochs >= 0")


@dataclass
class AugmentConfig:
    hflip_p: float = 0.5
    mixup_alpha: float = 0.2

    def __post_init__(self):
        if not 0.0 <= self.hflip_p <= 1.0:
            raise ValueError("hflip_p must be in [0, 1]")
        if not (math.isfinite(self.mixup_alpha) and self.mixup_alpha >= 0):
            raise ValueError("mixup_alpha must be finite and >= 0")


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
            return cfg.lr_moe, 0.0
        if group == "classifier":
            return cfg.lr_classifier, WD_CLASSIFIER
        return cfg.lr_rest, 0.0

    def step(self) -> None:
        b1, b2 = BETAS
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
            update = (m / bc1) / (np.sqrt(v / bc2) + EPS)
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
    if p > 0 and rng.gen.random() < p:
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
    lam = float(rng.gen.beta(alpha, alpha))
    perm = rng.gen.permutation(batch_x.shape[0])
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
    predictions: np.ndarray
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
        predictions=preds,
        expert_counts=counts,
    )


# ---------------------------------------------------------------------------
# Training loop
# ---------------------------------------------------------------------------


@dataclass
class TrainResult:
    rows: list[dict]          # per-epoch metric rows, train and val
    final_val: EvalResult | None


LOAD_COLUMNS = ("expert_entropy", "max_load_ratio", "starved_experts")


def _load_columns(layer: int, counts) -> dict:
    """A metrics row's LOAD_COLUMNS for one MoE layer, from the per-expert
    slot counts of that split's forwards in the epoch."""
    stats = dispatch_stats(counts)
    values = (stats.entropy, stats.max_load_ratio, stats.starved_experts)
    return {f"{name}_layer_{layer}": v for name, v in zip(LOAD_COLUMNS, values)}


def write_metrics_csv(rows: list[dict], moe_layers: list[int], path) -> None:
    columns = ["epoch", "split", "loss", "top1"]
    columns += [f"{name}_layer_{i}" for name in LOAD_COLUMNS for i in moe_layers]
    with T.atomic_write(path, newline="") as f:
        writer = csv.writer(f)
        writer.writerow(columns)
        for row in rows:
            writer.writerow([repr(row[c]) if isinstance(row[c], float) else row[c]
                             for c in columns])


def train(model, dataset: Dataset, optim: OptimConfig, augment: AugmentConfig,
          seed: int) -> TrainResult:
    """Train on the dataset's train split, evaluating on val every epoch.

    Deterministic given the seed: the shuffle, flips, MixUp draws, and
    dropout all derive from child streams of one root generator.
    """
    train_images = dataset.split("train")
    val_images = dataset.split("val")
    if not train_images:
        raise ValueError("dataset has no training split")
    num_classes = model.config.num_classes
    moe_layers = list(model.moe_blocks())
    optimizer = AdamW(model.named_parameters(), optim)
    root = Rng(seed)
    rows: list[dict] = []
    final_val = None

    for epoch in range(optim.epochs):
        erng = root.child(epoch)
        order = erng.gen.permutation(len(train_images))
        flip_rng = erng.child(0)
        mix_rng = erng.child(1)
        drop_rng = erng.child(2)
        epoch_loss = 0.0
        epoch_correct = 0
        train_counts = {i: 0 for i in moe_layers}
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
            for i in moe_layers:
                train_counts[i] = train_counts[i] + result.routing[i].expert_counts
            del result, loss  # free this step's tape before the next forward builds one
        train_row = {"epoch": epoch, "split": "train",
                     "loss": epoch_loss / len(order),
                     "top1": epoch_correct / len(order)}
        val_row = None
        if val_images:
            final_val = evaluate(model, val_images, optim.batch_size)
            val_row = {"epoch": epoch, "split": "val",
                       "loss": final_val.loss, "top1": final_val.top1}
        for i in moe_layers:
            train_row.update(_load_columns(i, train_counts[i]))
            if val_row is not None:
                val_row.update(_load_columns(i, final_val.expert_counts[i]))
        rows.append(train_row)
        if val_row is not None:
            rows.append(val_row)

    return TrainResult(rows=rows, final_val=final_val)
