"""Builds router centroids from a pretrained dense model.

Pipeline: multi-scale pre-MLP embedding collection, iterative selection of
the most representative patches per class, min-max scaling, Ward
agglomerative clustering of per-class means, and optional affinity-weighted
centroid refinement.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from . import tensor as T
from .affinity import cosine_softmax
from .data import Dataset, resize_nearest
from .moe import Router
from .tensor import Rng


@dataclass
class ClassEmbeddings:
    class_id: int
    embeddings: np.ndarray  # N x n_px x d patch embeddings pooled over images/scales
    layer: int

    def __post_init__(self):
        if self.embeddings.ndim != 3 or self.embeddings.shape[0] < 1:
            raise ValueError("embeddings must be a non-empty N x n_px x d array")
        if not np.all(np.isfinite(self.embeddings)):
            raise ValueError("non-finite class embeddings")


@dataclass
class ClusterTree:
    """Agglomerative merge sequence over n leaves.

    Each merge is (cluster_a, cluster_b, ward_distance, new_cluster_id) with
    cluster ids 0..n-1 for leaves and n, n+1, ... for merged clusters in
    creation order.
    """

    n_leaves: int
    merges: list[tuple[int, int, float, int]] = field(default_factory=list)

    def cut(self, num_clusters: int) -> list[list[int]]:
        """Leaf memberships after merging down to num_clusters groups,
        ordered by smallest member leaf."""
        if not 1 <= num_clusters <= self.n_leaves:
            raise ValueError("cut level out of range")
        members = {i: [i] for i in range(self.n_leaves)}
        for a, b, _, new_id in self.merges[: self.n_leaves - num_clusters]:
            members[new_id] = members.pop(a) + members.pop(b)
        groups = [sorted(v) for v in members.values()]
        groups.sort(key=lambda g: g[0])
        return groups

    def assignments(self, num_clusters: int) -> np.ndarray:
        """Per-leaf cluster index at the given cut."""
        out = np.empty(self.n_leaves, dtype=np.int64)
        for ci, group in enumerate(self.cut(num_clusters)):
            out[group] = ci
        return out


def _topk_indices(scores: np.ndarray, k: int) -> np.ndarray:
    """Indices of the k largest scores; ties go to the lower row index."""
    return np.argsort(-scores, kind="stable")[:k]


class SelectedPatches(NamedTuple):
    rows: np.ndarray     # K x d pixel-maxed patch embeddings
    indices: np.ndarray  # K row indices into the pixel-maxed matrix


def select_representative_patches(class_embeddings: np.ndarray, k: int,
                                  refine_steps: int) -> SelectedPatches:
    """Pick the K patches most in agreement with an iteratively refined
    centroid.

    Steps: max over the pixel axis per patch; initial centroid = elementwise
    max over patches; dot-product similarity centroid x patches; take top K;
    then `refine_steps` rounds of (centroid = mean of selection, re-score,
    re-select). Ties break to the lower row index.
    """
    x = np.asarray(class_embeddings, dtype=np.float64)
    if x.ndim == 3:
        x = x.max(axis=1)
    if x.ndim != 2:
        raise ValueError("expected N x n_px x d or N x d embeddings")
    n = x.shape[0]
    if refine_steps < 0:
        raise ValueError("refine_steps must be >= 0")
    if n < k:
        raise ValueError(f"need at least K={k} patches, got {n}")
    # per-row dots rather than a matvec: tie-breaks must see bit-identical
    # scores regardless of how a BLAS kernel orders its accumulation
    def scores(centroid):
        return np.array([np.dot(row, centroid) for row in x])

    centroid = x.max(axis=0)
    selected = _topk_indices(scores(centroid), k)
    for _ in range(refine_steps):
        centroid = x[selected].mean(axis=0)
        selected = _topk_indices(scores(centroid), k)
    return SelectedPatches(x[selected].copy(), selected)


# ---------------------------------------------------------------------------
# Ward agglomerative clustering (Lance-Williams recurrence)
# ---------------------------------------------------------------------------


def ward_cluster(points: np.ndarray, num_clusters: int = 1) -> ClusterTree:
    """Full agglomerative merge sequence under Ward's minimum-variance
    criterion.

    Merge cost is the increase in total within-cluster variance,
    |A||B|/(|A|+|B|) * ||mean_A - mean_B||^2, maintained exactly via the
    Lance-Williams update on a symmetric (2n-1)^2 distance matrix indexed by
    cluster id, +inf wherever a cluster is inactive or on the diagonal. Ties
    break on the lexicographically smallest (i, j) cluster-id pair: the
    row-major argmin finds it first.
    """
    points = np.asarray(points, dtype=np.float64)
    n = points.shape[0]
    if not 1 <= num_clusters <= n:
        raise ValueError(f"cannot cut {n} points at {num_clusters} clusters")
    m = 2 * n - 1
    dist = np.full((m, m), np.inf)
    for i in range(n - 1):
        # one dot product per pair, not a Gram matrix: distances stay bit-equal
        # to those of the pairwise recurrence, so merges and ties do too
        row = [0.5 * float(diff @ diff) for diff in points[i] - points[i + 1:]]
        dist[i, i + 1:n] = dist[i + 1:n, i] = row
    sizes = np.zeros(m, dtype=np.int64)
    sizes[:n] = 1
    active = np.zeros(m, dtype=bool)
    active[:n] = True
    tree = ClusterTree(n_leaves=n)
    for new_id in range(n, m):
        a, b = divmod(int(np.argmin(dist)), m)
        d_ab = float(dist[a, b])
        active[a] = active[b] = False
        others = np.flatnonzero(active)
        sa, sb, sc = sizes[a], sizes[b], sizes[others]
        merged = ((sa + sc) * dist[a, others] + (sb + sc) * dist[b, others] - sc * d_ab) \
            / (sa + sb + sc)
        dist[[a, b], :] = dist[:, [a, b]] = np.inf
        dist[new_id, others] = dist[others, new_id] = merged
        sizes[new_id] = sa + sb
        active[new_id] = True
        tree.merges.append((a, b, d_ab, new_id))
    return tree


def initial_centroids(tree: ClusterTree, class_points: np.ndarray,
                      num_clusters: int) -> np.ndarray:
    """Unweighted mean of member class points per cluster (scaled space)."""
    class_points = np.asarray(class_points, dtype=np.float64)
    return np.stack([class_points[group].mean(axis=0)
                     for group in tree.cut(num_clusters)])


def refine_centroids_weighted(centroids: np.ndarray, class_points: np.ndarray,
                              temperature: float, threshold: float) -> np.ndarray:
    """Affinity-weighted centroid update.

    Cosine similarity class-points x centroids, sharp softmax over the expert
    axis at `temperature`, zero weights below `threshold`, then each centroid
    becomes the weight-normalized mean of its contributing points. Centroids
    with no surviving weight keep their previous value.
    """
    weights = cosine_softmax(class_points, centroids, temperature, threshold)
    centroids = np.asarray(centroids, dtype=np.float64)
    class_points = np.asarray(class_points, dtype=np.float64)
    out = centroids.copy()
    mass = weights.sum(axis=0)
    for e in range(centroids.shape[0]):
        if mass[e] > 0:
            out[e] = (weights[:, e][:, None] * class_points).sum(axis=0) / mass[e]
    return out


# ---------------------------------------------------------------------------
# End-to-end router construction
# ---------------------------------------------------------------------------


@dataclass
class RouterInitParams:
    top_k_patches: int = 128       # K, clamped to the available patch count
    refine_steps: int = 5          # T
    scales: tuple[int, ...] | None = None  # None -> config size -25%/+0/+25%
    samples_per_class: int = 8
    mode: str = "cluster"          # "cluster" | "random" (baseline)
    refine: bool = False
    refine_temperature: float = 0.001
    refine_threshold: float = 0.05
    seed: int = 0

    def __post_init__(self):
        if self.mode not in ("cluster", "random"):
            raise ValueError(f"unknown router init mode {self.mode!r}")
        if self.top_k_patches < 1 or self.samples_per_class < 1:
            raise ValueError("top_k_patches and samples_per_class must be >= 1")
        if self.refine_steps < 0:
            raise ValueError("refine_steps must be >= 0")
        if not self.refine_temperature > 0:
            raise ValueError("refine_temperature must be positive")


def default_scales(config) -> tuple[int, ...]:
    """Config image size -25%, +0%, +25%, rounded to the patch grid."""
    sizes = []
    for factor in (0.75, 1.0, 1.25):
        s = max(round(config.image_size * factor / config.patch_size), 1) * config.patch_size
        if s not in sizes:
            sizes.append(s)
    return tuple(sizes)


# Images per capture forward. A bounded chunk keeps peak memory near that of
# single-image forwards; one batch of every picked image does not.
CAPTURE_CHUNK = 16


def collect_embeddings(model, dataset: Dataset, layer: int, scales,
                       samples_per_class: int, rng: Rng) -> list[ClassEmbeddings]:
    """Pre-MLP patch embeddings per class, pooled across sampled train images
    and scales.

    Each class's rows are ordered by (picked image, scale). The captures run
    per scale over all classes' picked images, CAPTURE_CHUNK at a time.
    """
    picked = []  # (class, block index within the class, pixels)
    counts = []
    for c in range(dataset.num_classes):
        images = dataset.by_class(c, "train")
        if not images:
            raise ValueError(f"class {c} has no training samples")
        crng = rng.child(c)
        n = min(samples_per_class, len(images))
        picks = sorted(crng.gen.choice(len(images), size=n, replace=False).tolist())
        picked += [(c, j, images[i].pixels) for j, i in enumerate(picks)]
        counts.append(n)
    # each picked image owns `block` rows: P_s patch rows per scale, in order
    offsets = np.cumsum([0] + [(s // model.config.patch_size) ** 2 for s in scales])
    block = int(offsets[-1])
    out: list[np.ndarray | None] = [None] * dataset.num_classes
    for scale, offset in zip(scales, offsets):
        for start in range(0, len(picked), CAPTURE_CHUNK):
            chunk = picked[start:start + CAPTURE_CHUNK]
            batch = np.stack([resize_nearest(pixels, scale) for _, _, pixels in chunk])
            captures = model.capture_pre_mlp(batch, layer).data  # B x P x n_px x d
            for (c, j, _), rows in zip(chunk, captures):
                if out[c] is None:
                    out[c] = np.empty((counts[c] * block,) + rows.shape[1:], rows.dtype)
                lo = j * block + offset
                out[c][lo:lo + len(rows)] = rows
    return [ClassEmbeddings(c, emb, layer) for c, emb in enumerate(out)]


def select_class_patches(model, dataset: Dataset, layer: int, params: RouterInitParams
                         ) -> tuple[tuple[int, ...], list[SelectedPatches]]:
    """Each class's representative patches at the layer.

    Embeddings are collected at params.scales (default_scales when unset)
    from the rng stream Rng(params.seed).child(0); K is top_k_patches clamped
    to the fewest patches any class has. Returns (scales, per-class picks).
    """
    scales = tuple(params.scales) if params.scales else default_scales(model.config)
    per_class = collect_embeddings(model, dataset, layer, scales,
                                   params.samples_per_class, Rng(params.seed).child(0))
    k_eff = min(params.top_k_patches, min(ce.embeddings.shape[0] for ce in per_class))
    return scales, [select_representative_patches(ce.embeddings, k_eff, params.refine_steps)
                    for ce in per_class]


@dataclass
class RouterBuildResult:
    router: Router
    class_assignments: np.ndarray | None  # class -> cluster id (cluster mode)
    class_points: np.ndarray              # per-class scaled mean of selected patches
    selected_per_class: list[SelectedPatches]
    manifest: dict


def build_router(model, dataset: Dataset, layer: int, num_experts: int,
                 params: RouterInitParams | None = None) -> RouterBuildResult:
    """collect -> select -> fit scaler -> per-class means -> Ward -> centroids
    (-> optional weighted refinement) -> Router."""
    cfg = model.config
    params = params or RouterInitParams()
    if layer not in cfg.moe_layers and cfg.moe_layers:
        raise ValueError(f"layer {layer} is not a configured MoE layer")
    scales, selected = select_class_patches(model, dataset, layer, params)

    pooled = np.concatenate([s.rows for s in selected], axis=0)
    scaler = T.minmax_fit(pooled)
    class_points = np.stack([T.minmax_apply(scaler, s.rows).mean(axis=0)
                             for s in selected])

    assignments = None
    if params.mode == "cluster":
        tree = ward_cluster(class_points, num_experts)
        centroids = initial_centroids(tree, class_points, num_experts)
        assignments = tree.assignments(num_experts)
        if params.refine:
            centroids = refine_centroids_weighted(
                centroids, class_points,
                params.refine_temperature, params.refine_threshold)
    else:
        centroids = Rng(params.seed).child(1).uniform(
            (num_experts, cfg.d_model)).astype(np.float64)

    router = Router(centroids=T.parameter(centroids), scaler=scaler,
                    temperature=cfg.router_temperature, top_k=cfg.top_k,
                    gate_mode=cfg.gate_mode)
    manifest = {
        "layer": layer,
        "experts": num_experts,
        "mode": params.mode,
        "top_k_patches": len(selected[0].indices),
        "top_k_patches_requested": params.top_k_patches,
        "refine_steps": params.refine_steps,
        "scales": list(scales),
        "samples_per_class": params.samples_per_class,
        "refine": params.refine,
        "seed": params.seed,
        "class_assignments": assignments.tolist() if assignments is not None else None,
    }
    return RouterBuildResult(router, assignments, class_points, selected, manifest)
