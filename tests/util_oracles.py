"""Independent reference implementations used as oracles.

Deliberately written as plain, loop-heavy transcriptions, separate from the
vectorized code paths they are checked against.
"""

import numpy as np

from patchmoe import moe
from patchmoe import tensor as T
from patchmoe.data import resize_nearest


def representative_patches_oracle(class_embeddings, k, refine_steps):
    """Direct step-by-step transcription of the representative-patch
    selection procedure."""
    x = np.asarray(class_embeddings, dtype=np.float64)
    if x.ndim == 3:
        # maximum along the pixel dimension for each patch
        x = np.stack([np.max(x[i], axis=0) for i in range(x.shape[0])])
    n, d = x.shape
    # initial centroid: highest values across patches
    centroid = np.array([max(x[i][j] for i in range(n)) for j in range(d)])

    def topk(scores):
        order = sorted(range(n), key=lambda i: (-scores[i], i))
        return order[:k]

    scores = [float(np.dot(centroid, x[i])) for i in range(n)]
    selected = topk(scores)
    for _ in range(refine_steps):
        centroid = np.mean([x[i] for i in selected], axis=0)
        scores = [float(np.dot(centroid, x[i])) for i in range(n)]
        selected = topk(scores)
    return np.array(selected), x[np.array(selected)]


def ward_merges_oracle(points):
    """Exhaustive Ward clustering: at every step, evaluate the variance
    increase of every candidate merge from scratch."""
    points = np.asarray(points, dtype=np.float64)
    n = points.shape[0]
    members = {i: [i] for i in range(n)}
    merges = []
    for step in range(n - 1):
        best = None
        ids = sorted(members)
        for ai, a in enumerate(ids):
            for b in ids[ai + 1:]:
                pa = points[members[a]]
                pb = points[members[b]]
                mu_a = pa.mean(axis=0)
                mu_b = pb.mean(axis=0)
                na, nb = len(pa), len(pb)
                diff = mu_a - mu_b
                delta = na * nb / (na + nb) * float(diff @ diff)
                key = (delta, a, b)
                if best is None or key < best:
                    best = key
        delta, a, b = best
        new_id = n + step
        members[new_id] = sorted(members.pop(a) + members.pop(b))
        merges.append((a, b, delta, new_id))
    return merges


def ward_lance_williams_oracle(points):
    """Ward merges from the Lance-Williams recurrence over a dict of pairwise
    distances, with a pure-Python lexicographic (d, i, j) minimum per step.
    Exact: the same floating-point operations in the same order as the
    matrix form, so merges must agree bit for bit."""
    points = np.asarray(points, dtype=np.float64)
    n = points.shape[0]
    sizes = {i: 1 for i in range(n)}
    dist = {}
    for i in range(n):
        for j in range(i + 1, n):
            diff = points[i] - points[j]
            dist[(i, j)] = 0.5 * float(diff @ diff)
    merges = []
    active = list(range(n))
    for step in range(n - 1):
        d_ab, a, b = min((dist[(i, j)], i, j) for idx, i in enumerate(active)
                         for j in active[idx + 1:])
        new_id = n + step
        sa, sb = sizes[a], sizes[b]
        for c in active:
            if c in (a, b):
                continue
            sc = sizes[c]
            d_ac = dist[tuple(sorted((a, c)))]
            d_bc = dist[tuple(sorted((b, c)))]
            dist[(c, new_id)] = ((sa + sc) * d_ac + (sb + sc) * d_bc - sc * d_ab) \
                / (sa + sb + sc)
        active = [c for c in active if c not in (a, b)] + [new_id]
        sizes[new_id] = sa + sb
        merges.append((a, b, d_ab, new_id))
    return merges


def collect_embeddings_oracle(model, dataset, layer, scales, samples_per_class, rng):
    """Per-class pre-MLP embeddings from one single-image capture forward per
    (class, picked image, scale), rows in that order."""
    out = []
    for c in range(dataset.num_classes):
        images = dataset.by_class(c, "train")
        crng = rng.child(c)
        n = min(samples_per_class, len(images))
        picks = sorted(crng.gen.choice(len(images), size=n, replace=False).tolist())
        rows = [model.capture_pre_mlp(resize_nearest(images[i].pixels, s)[None], layer).data[0]
                for i in picks for s in scales]
        out.append(np.concatenate(rows, axis=0))
    return out


def _scatter_last_oracle(values, indices, size):
    """Place values at `indices` along a new last axis of extent `size`
    (duplicates accumulate); backward gathers them back."""
    idx = np.asarray(indices)
    flat_idx = idx.reshape(-1, idx.shape[-1])
    rows = np.arange(flat_idx.shape[0])[:, None]
    out_data = np.zeros(values.shape[:-1] + (size,), dtype=values.data.dtype)
    np.add.at(out_data.reshape(-1, size), (rows, flat_idx), values.data.reshape(flat_idx.shape))

    def backward(g):
        if values.requires_grad:
            values._accumulate(
                np.take_along_axis(g.reshape(-1, size), flat_idx, axis=-1).reshape(values.shape))

    return T.Tensor(out_data, _parents=(values,), _backward=backward)


def moe_forward_gate_matrix_oracle(x, captured, block):
    """MoE sublayer through a dense B*P x E gate matrix: zero where an expert
    was not selected, re-gathered one column at a time for each expert's rows.
    Per-expert outputs are added in expert-index order."""
    b, p, n_px, d = x.shape
    router = block.router
    logits = moe.routing_logits(captured, router)
    indices, gates, _ = moe.select_experts(logits, router.top_k, router.gate_mode)
    flat_x = T.reshape(x, (b * p, n_px, d))
    flat_idx = indices.reshape(b * p, router.top_k)
    gate_matrix = _scatter_last_oracle(T.reshape(gates, (b * p, router.top_k)),
                                       flat_idx, router.num_experts)
    out = None
    for e in range(router.num_experts):
        rows = np.nonzero((flat_idx == e).any(axis=-1))[0]
        if rows.size == 0:
            continue
        pixels = T.reshape(T.take(flat_x, rows), (rows.size * n_px, d))
        expert_out = T.reshape(moe.expert_forward(pixels, block.experts[e]),
                               (rows.size, n_px, d))
        gate = T.reshape(T.gather_last(T.take(gate_matrix, rows),
                                       np.full((rows.size, 1), e)), (rows.size, 1, 1))
        contrib = T.scatter_rows(T.mul(expert_out, gate), rows, b * p)
        out = contrib if out is None else T.add(out, contrib)
    return T.reshape(out, (b, p, n_px, d))
