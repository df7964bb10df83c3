"""Builds router centroids from a pretrained dense model.

Pipeline: multi-scale pre-MLP embedding collection, iterative selection of
the most representative patches per class, min-max scaling, and Ward
agglomerative clustering of per-class means into one centroid per expert.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from . import tensor as T
from .data import DataError, Dataset, resize_nearest
from .moe import Router
from .tensor import Rng


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
            raise ValueError(f"cannot cut {self.n_leaves} points at {num_clusters} clusters")
        members = {i: [i] for i in range(self.n_leaves)}
        for a, b, _, new_id in self.merges[: self.n_leaves - num_clusters]:
            members[new_id] = members.pop(a) + members.pop(b)
        groups = [sorted(v) for v in members.values()]
        groups.sort(key=lambda g: g[0])
        return groups


def _row_dots(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Dot of each row of the n x d float64 `a` with `b` (a d-vector or an
    n x d array), bit-equal to np.dot per row. A stack of (1 x d)(d x 1)
    matmuls makes numpy call the same BLAS ddot per row that np.dot(row, b)
    calls, so the sum runs in the same order; a matvec (gemv), einsum or
    (a * b).sum(1) may block or pair the terms differently."""
    return np.matmul(a[:, None, :], b[..., None])[:, 0, 0]


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
    # batched row dots, not a matvec: each score is the BLAS ddot that
    # np.dot(row, centroid) computes, so ties break as in a per-row loop
    centroid = x.max(axis=0)
    selected = _topk_indices(_row_dots(x, centroid), k)
    for _ in range(refine_steps):
        centroid = x[selected].mean(axis=0)
        selected = _topk_indices(_row_dots(x, centroid), k)
    return SelectedPatches(x[selected].copy(), selected)


# ---------------------------------------------------------------------------
# Ward agglomerative clustering (Lance-Williams recurrence)
# ---------------------------------------------------------------------------


def ward_cluster(points: np.ndarray) -> ClusterTree:
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
    m = 2 * n - 1
    dist = np.full((m, m), np.inf)
    for i in range(n - 1):
        # batched pair dots, not a Gram matrix: each distance is the BLAS ddot
        # of diff @ diff, bit-equal to the pairwise recurrence, so merges and
        # ties are too
        diffs = points[i] - points[i + 1:]
        dist[i, i + 1:n] = dist[i + 1:n, i] = 0.5 * _row_dots(diffs, diffs)
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


# ---------------------------------------------------------------------------
# End-to-end router construction
# ---------------------------------------------------------------------------


@dataclass
class RouterInitParams:
    top_k_patches: int = 128       # K, clamped to the available patch count
    refine_steps: int = 5          # T
    scales: tuple[int, ...] = ()   # () -> config size -25%/+0/+25%
    samples_per_class: int = 8
    mode: str = "cluster"          # "cluster" | "random" (baseline)
    seed: int = 0

    def __post_init__(self):
        if self.mode not in ("cluster", "random"):
            raise ValueError(f"unknown router init mode {self.mode!r}")
        if self.top_k_patches < 1 or self.samples_per_class < 1:
            raise ValueError("top_k_patches and samples_per_class must be >= 1")
        if self.refine_steps < 0:
            raise ValueError("refine_steps must be >= 0")
        # multiples of the model's patch_size, checked where the model is known
        if any(s < 1 for s in self.scales):
            raise ValueError("scales must be positive")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")


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
                       samples_per_class: int, rng: Rng) -> list[np.ndarray]:
    """Pre-MLP patch embeddings per class, pooled across sampled train images
    and scales: one non-empty, finite N x n_px x d array per class.

    Every capture lands in one (picked image, patch row, n_px, d) array, each
    image's patch rows in scale order; a class's rows are a view of its
    images' slice, ordered by (picked image, scale). The captures run per
    scale over all classes' picked images, CAPTURE_CHUNK at a time.
    """
    cfg = model.config
    picked = []    # pixels of the picked images, class by class
    bounds = [0]   # class c's images are picked[bounds[c]:bounds[c + 1]]
    for c in range(dataset.num_classes):
        images = dataset.by_class(c, "train")
        if not images:
            raise DataError(f"class {c} has no training samples")
        crng = rng.child(c)
        n = min(samples_per_class, len(images))
        picks = sorted(crng.gen.choice(len(images), size=n, replace=False).tolist())
        picked += [images[i].pixels for i in picks]
        bounds.append(len(picked))
    offsets = np.cumsum([0] + [(s // cfg.patch_size) ** 2 for s in scales])
    captures = np.empty((len(picked), offsets[-1], cfg.n_px, cfg.d_model), T.default_dtype())
    for scale, lo, hi in zip(scales, offsets, offsets[1:]):
        for start in range(0, len(picked), CAPTURE_CHUNK):
            batch = np.stack([resize_nearest(pixels, scale)
                              for pixels in picked[start:start + CAPTURE_CHUNK]])
            captures[start:start + len(batch), lo:hi] = model.capture_pre_mlp(batch, layer).data
    if captures.size == 0 or not np.isfinite(captures).all():
        raise ValueError("class embeddings must be non-empty and finite")
    return [captures[a:b].reshape(-1, cfg.n_px, cfg.d_model)
            for a, b in zip(bounds, bounds[1:])]


# The RouterInitParams fields select_class_patches reads; the others only
# matter to build_router.
SELECT_KEYS = ("top_k_patches", "refine_steps", "scales", "samples_per_class", "seed")


def select_class_patches(model, dataset: Dataset, layer: int, params: RouterInitParams
                         ) -> tuple[tuple[int, ...], list[SelectedPatches]]:
    """Each class's representative patches at the layer.

    Embeddings are collected at params.scales (default_scales when empty)
    from the rng stream Rng(params.seed).child(0); K is top_k_patches clamped
    to the fewest patches any class has. Returns (scales, per-class picks).
    """
    scales = tuple(params.scales) or default_scales(model.config)
    per_class = collect_embeddings(model, dataset, layer, scales,
                                   params.samples_per_class, Rng(params.seed).child(0))
    k_eff = min(params.top_k_patches, min(emb.shape[0] for emb in per_class))
    return scales, [select_representative_patches(emb, k_eff, params.refine_steps)
                    for emb in per_class]


@dataclass
class RouterBuildResult:
    router: Router
    class_assignments: np.ndarray | None  # class -> cluster id (cluster mode)
    class_points: np.ndarray              # per-class scaled mean of selected patches
    selected_per_class: list[SelectedPatches]
    manifest: dict  # for the run manifest: effective K, scales, class assignments


def build_router(model, dataset: Dataset, layer: int, num_experts: int,
                 params: RouterInitParams | None = None) -> RouterBuildResult:
    """collect -> select -> fit scaler -> per-class means -> Ward -> centroids
    -> Router."""
    cfg = model.config
    params = params or RouterInitParams()
    if layer not in cfg.moe_layers or num_experts != cfg.experts:
        raise ValueError(f"layer {layer} with {num_experts} experts is not in the "
                         f"config's moe_layers {list(cfg.moe_layers)} with experts {cfg.experts}")
    scales, selected = select_class_patches(model, dataset, layer, params)

    pooled = np.concatenate([s.rows for s in selected], axis=0)
    scaler = T.minmax_fit(pooled)
    class_points = np.stack([T.minmax_apply(scaler, s.rows).mean(axis=0)
                             for s in selected])

    assignments = None
    if params.mode == "cluster":
        # one cut: each cluster's centroid is its classes' unweighted mean
        groups = ward_cluster(class_points).cut(num_experts)
        centroids = np.stack([class_points[g].mean(axis=0) for g in groups])
        assignments = np.empty(len(class_points), dtype=np.int64)
        for e, g in enumerate(groups):
            assignments[g] = e
    else:
        centroids = Rng(params.seed).child(1).uniform(
            (num_experts, cfg.d_model)).astype(np.float64)

    router = Router(centroids=T.parameter(centroids), scaler=scaler,
                    temperature=cfg.router_temperature, top_k=cfg.top_k,
                    gate_mode=cfg.gate_mode)
    manifest = {
        "top_k_patches": len(selected[0].indices),
        "scales": list(scales),
        "class_assignments": assignments.tolist() if assignments is not None else None,
    }
    return RouterBuildResult(router, assignments, class_points, selected, manifest)
