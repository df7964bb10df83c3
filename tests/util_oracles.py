"""Independent reference implementations used as oracles.

Deliberately written as plain, loop-heavy transcriptions, separate from the
vectorized code paths they are checked against.
"""

import numpy as np

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
