"""Class-expert affinity diagnostics.

Pre-init affinity scores how each class's representative patches would route
against freshly built centroids; post-finetune affinity averages the actual
full-softmax routing distribution over validation batches. Both produce a
classes x experts matrix for heatmap-style inspection of routing collapse
and expert starvation.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, field

import numpy as np

from . import moe
from . import tensor as T
from .data import LabeledImage
from .tensor import Rng

FIGURE_TEMPERATURE = 0.001
FIGURE_THRESHOLD = 0.05
COLLAPSE_CUTOFF = 0.05  # affinity above which a class counts as routing to an expert
SVG_CELL = 24           # heatmap cell side, px


@dataclass
class AffinityMatrix:
    values: np.ndarray  # classes x experts; missing classes are NaN rows
    mode: str           # "pre_init" | "post_finetune"
    temperature: float
    threshold: float
    provenance: dict = field(default_factory=dict)
    missing_classes: list[int] = field(default_factory=list)

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.float64)
        if self.values.ndim != 2:
            raise ValueError("affinity values must be classes x experts")
        if self.mode not in ("pre_init", "post_finetune"):
            raise ValueError(f"unknown affinity mode {self.mode!r}")
        present = np.delete(self.values, self.missing_classes, axis=0)
        if present.size and np.nanmin(present) < 0:
            raise ValueError("affinity values must be non-negative")

    @property
    def num_classes(self) -> int:
        return self.values.shape[0]

    @property
    def num_experts(self) -> int:
        return self.values.shape[1]


def cosine_softmax(points: np.ndarray, centroids: np.ndarray, temperature: float,
                   threshold: float = 0.0) -> np.ndarray:
    """Points x centroids weights: cosine similarity, softmax over the
    centroid axis at `temperature`, entries below `threshold` zeroed."""
    if temperature <= 0:
        raise ValueError("temperature must be positive")
    sims = T.cosine_matrix(T.Tensor(np.asarray(points, dtype=np.float64)),
                           T.Tensor(np.asarray(centroids, dtype=np.float64)), eps=1e-12)
    probs = T.softmax(T.Tensor(sims.data / temperature), axis=1).data
    probs[probs < threshold] = 0.0
    return probs


def affinity_pre(centroids: np.ndarray, class_points: list[np.ndarray],
                 temperature: float, threshold: float = 0.0,
                 provenance: dict | None = None) -> AffinityMatrix:
    """Average routing distribution of each class's selected patches.

    Per patch: cosine similarity to every centroid, softmax over the expert
    axis at `temperature`, entries below `threshold` zeroed, then the mean
    over the class's patches.
    """
    rows = [cosine_softmax(points, centroids, temperature, threshold).mean(axis=0)
            for points in class_points]
    return AffinityMatrix(np.stack(rows), "pre_init", temperature, threshold,
                          provenance or {})


def figure_d_variant(centroids: np.ndarray, class_points: list[np.ndarray],
                     provenance: dict | None = None) -> AffinityMatrix:
    """Pre-init affinity at the sharp-heatmap settings: temperature 0.001,
    scores below 0.05 zeroed."""
    return affinity_pre(centroids, class_points, FIGURE_TEMPERATURE,
                        FIGURE_THRESHOLD, provenance)


def affinity_post(model, images: list[LabeledImage], layer: int,
                  n_batches: int = 50, batch_size: int = 128,
                  rng: Rng | None = None,
                  provenance: dict | None = None) -> AffinityMatrix:
    """Average full-softmax routing probability per class over sampled
    validation batches.

    Every patch contributes its complete distribution over experts; a patch's
    class is the label of its image. Classes never sampled are flagged as
    missing (NaN row) rather than zero-filled. Each batch runs only up to the
    routed layer's capture and applies the router's softmax to it, the one
    the full forward's expert selection applies, so later layers, the routed
    layer's experts and the head never run. Builds no autodiff tape. The
    provenance adds the layer, n_batches, batch_size and the rng's seed to
    the caller's entries.
    """
    if not images:
        raise ValueError("no images to sample")
    block = model.moe_blocks().get(layer)
    if block is None:
        raise ValueError(f"layer {layer} is not a MoE block")
    rng = rng or Rng(0)
    num_classes = model.config.num_classes
    sums = np.zeros((num_classes, block.router.num_experts))
    patch_counts = np.zeros(num_classes, dtype=np.int64)
    with model.no_grad():
        for _ in range(n_batches):
            idx = rng.gen.integers(0, len(images), size=min(batch_size, len(images)))
            x = np.stack([images[i].pixels for i in idx])
            labels = np.array([images[i].class_id for i in idx])
            logits = moe.routing_logits(model.capture_pre_mlp(x, layer), block.router)
            probs = T.softmax(logits, axis=-1).data  # B x P x E
            per_image = probs.sum(axis=1)  # sum over patches
            np.add.at(sums, labels, per_image)
            np.add.at(patch_counts, labels, probs.shape[1])
    missing = [c for c in range(num_classes) if patch_counts[c] == 0]
    values = np.full_like(sums, np.nan)
    seen = patch_counts > 0
    values[seen] = sums[seen] / patch_counts[seen, None]
    prov = dict(provenance or {})
    prov.update({"layer": layer, "n_batches": n_batches, "batch_size": batch_size,
                 "seed": rng.seed})
    return AffinityMatrix(values, "post_finetune", model.config.router_temperature, 0.0,
                          prov, missing_classes=missing)


# ---------------------------------------------------------------------------
# Collapse and starvation diagnostics
# ---------------------------------------------------------------------------


@dataclass
class CollapseReport:
    background_scores: np.ndarray  # per expert: classes with affinity above cutoff
    column_entropy: float          # natural-log entropy of total column mass
    starved_experts: list[int]     # experts no class routes to above the cutoff


def collapse_metrics(matrix: AffinityMatrix) -> CollapseReport:
    values = np.delete(matrix.values, matrix.missing_classes, axis=0)
    above = values > COLLAPSE_CUTOFF
    background = above.sum(axis=0)
    mass = values.sum(axis=0)
    starved = [int(e) for e in np.flatnonzero(background == 0)]
    return CollapseReport(background, moe.load_entropy(mass), starved)


# ---------------------------------------------------------------------------
# Export
# ---------------------------------------------------------------------------


def export_csv(matrix: AffinityMatrix, path) -> None:
    with T.atomic_write(path, newline="") as f:
        writer = csv.writer(f)
        writer.writerow(["class", "expert", "value"])
        for c in range(matrix.num_classes):
            for e in range(matrix.num_experts):
                writer.writerow([c, e, repr(float(matrix.values[c, e]))])


def export_json(matrix: AffinityMatrix, path) -> None:
    payload = {
        "mode": matrix.mode,
        "temperature": matrix.temperature,
        "threshold": matrix.threshold,
        "provenance": matrix.provenance,
        "missing_classes": matrix.missing_classes,
        "values": [[None if np.isnan(v) else v for v in row]
                   for row in matrix.values.tolist()],
    }
    with T.atomic_write(path) as f:
        json.dump(payload, f, indent=2, sort_keys=True)


def export_svg(matrix: AffinityMatrix, path) -> None:
    """Heatmap with class rows and expert columns, linear grayscale-to-blue
    color scale, provenance footer."""
    cell = SVG_CELL
    n_c, n_e = matrix.values.shape
    footer_h = 18
    width = n_e * cell
    height = n_c * cell + footer_h
    finite = matrix.values[np.isfinite(matrix.values)]
    vmax = float(finite.max()) if finite.size and finite.max() > 0 else 1.0
    parts = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
             f'height="{height}">']
    for c in range(n_c):
        for e in range(n_e):
            v = matrix.values[c, e]
            if np.isnan(v):
                fill = "#dddddd"
            else:
                level = int(round(255 * (1.0 - min(v / vmax, 1.0))))
                fill = f"#{level:02x}{level:02x}ff"
            parts.append(f'<rect class="cell" x="{e * cell}" y="{c * cell}" '
                         f'width="{cell}" height="{cell}" fill="{fill}"/>')
    prov = (f"mode={matrix.mode} temperature={matrix.temperature} "
            f"threshold={matrix.threshold}")
    extra = " ".join(f"{k}={v}" for k, v in sorted(matrix.provenance.items()))
    parts.append(f'<text x="2" y="{height - 5}" font-size="10">'
                 f'{prov} {extra}</text>')
    parts.append("</svg>")
    with T.atomic_write(path) as f:
        f.write("\n".join(parts))
