"""Independent reference implementations used as oracles.

Deliberately written as plain, loop-heavy transcriptions, separate from the
vectorized code paths they are checked against.
"""

import copy
import csv
import math
from dataclasses import dataclass, field, fields

import numpy as np

from patchmoe import affinity, backbone, moe, training
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
        images = [im for im in dataset.split("train") if im.class_id == c]
        crng = rng.child(c)
        n = min(samples_per_class, len(images))
        picks = sorted(crng.gen.choice(len(images), size=n, replace=False).tolist())
        rows = [model.capture_pre_mlp(resize_nearest(images[i].pixels, s)[None], layer).data[0]
                for i in picks for s in scales]
        out.append(np.concatenate(rows, axis=0))
    return out


def moefy_layer_oracle(model, layer_index, router, gamma=0.9):
    """The experts moefy_layer built as a chain of helpers: a copy of the
    dense MLP, the raw centroid's hidden activations (the centroid is the
    MLP's input, so no norm runs on it) computed once to rank the hidden units
    and again for x_corr, and each expert sliced from the copy at the ranked
    units, as a dict of its own arrays by moe.EXPERT_WEIGHTS name. The model
    is left as it is."""
    layer = model.layers[layer_index]
    w1, b1, w2, b2 = (t.data.copy() for t in (layer.mlp.w1, layer.mlp.b1,
                                             layer.mlp.w2, layer.mlp.b2))
    d_e = w1.shape[1] // model.config.reduction_factor
    dtype = T.default_dtype()

    def hidden_activations(centroid_raw):
        c = np.asarray(centroid_raw, dtype=np.float64)
        return T.silu(T.Tensor(c @ w1.astype(np.float64) + b1)).data

    experts = []
    for e in range(router.num_experts):
        centroid_raw = T.minmax_invert(router.scaler, router.centroids.data[e])
        # the d_e largest, ties to the lower index, in ascending order
        units = np.sort(np.argsort(-hidden_activations(centroid_raw), kind="stable")[:d_e])
        x_corr = hidden_activations(centroid_raw) @ w2.astype(np.float64) + b2
        experts.append(dict(
            w1=w1[:, units].astype(dtype), b1=b1[units].astype(dtype),
            w2=w2[units, :].astype(dtype), b2=b2.copy(), gamma=np.asarray(gamma, dtype=dtype),
            x_corr=x_corr.astype(dtype)))
    return experts


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
    was not selected, re-gathered one column at a time for each expert's rows
    of `captured` (x is not read, as in moe.moe_forward). Per-expert outputs
    are scattered with np.add.at and added in expert-index order."""
    b, p, n_px, d = captured.shape
    router = block.router
    logits = moe.routing_logits(captured, router)
    indices, gates, _ = moe.select_experts(logits, router.top_k, router.gate_mode)
    flat_h = T.reshape(captured, (b * p, n_px, d))
    flat_idx = indices.reshape(b * p, router.top_k)
    gate_matrix = _scatter_last_oracle(T.reshape(gates, (b * p, router.top_k)),
                                       flat_idx, router.num_experts)
    out = None
    for e in range(router.num_experts):
        rows = np.nonzero((flat_idx == e).any(axis=-1))[0]
        if rows.size == 0:
            continue
        pixels = T.reshape(T.take(flat_h, rows), (rows.size * n_px, d))
        expert_out = T.reshape(moe.expert_forward(pixels, block, e),
                               (rows.size, n_px, d))
        gate = T.reshape(T.take(T.take(gate_matrix, rows), [e], axis=1), (rows.size, 1, 1))
        contrib = _scatter_rows_oracle(T.mul(expert_out, gate), rows, b * p)
        out = contrib if out is None else T.add(out, contrib)
    return T.reshape(out, (b, p, n_px, d))


def _scatter_rows_oracle(values, rows, n_rows):
    """Rows of `values` added at `rows` of an n_rows zero tensor."""
    out_data = np.zeros((n_rows,) + values.shape[1:], dtype=values.data.dtype)
    np.add.at(out_data, rows, values.data)

    def backward(g):
        if values.requires_grad:
            values._accumulate(g[rows])

    return T.Tensor(out_data, _parents=(values,), _backward=backward)


def linear_chain_oracle(x, w, b):
    """x.w + b as a chain of tape nodes on x's rows (its leading axes
    flattened): reshape, one 2-D matmul, reshape back, add. Its gradients
    are T.linear's: dx = rows(g).w^T and dw = rows(x)^T.rows(g)."""
    rows = T.matmul(T.reshape(x, (-1, x.shape[-1])), w)
    return T.add(T.reshape(rows, x.shape[:-1] + w.shape[-1:]), b)


def attention_chain_oracle(q, k, v, scale):
    """softmax(q.k^T * scale).v over the last two axes, as the op chain it
    was before T.attention: four tape nodes, each with its own score-sized
    array."""
    k_t = T.transpose(k, tuple(range(k.ndim - 2)) + (k.ndim - 1, k.ndim - 2))
    scores = T.mul(T.matmul(q, k_t), T.Tensor(scale))
    return T.matmul(T.softmax(scores, axis=-1), v)


def model_attention_oracle(model, layer, x):
    """Model.attention as it was before the fused nodes: pre-norm multi-head
    self-attention across the P patches, separately for each pixel position,
    residual included. Heads are laid out (B, N_PX, HEADS, P, dh), so that
    the score chain runs over one position's P tokens."""
    b, p, n_px, d = x.shape
    h = backbone.HEADS
    dh = d // h
    normed = T.layer_norm(x, layer.ln1_gain, layer.ln1_bias)

    def split_heads(t):
        return T.transpose(T.reshape(t, (b, p, n_px, h, dh)), (0, 2, 3, 1, 4))

    q = split_heads(linear_chain_oracle(normed, layer.wq, layer.bq))
    k = split_heads(linear_chain_oracle(normed, layer.wk, layer.bk))
    v = split_heads(linear_chain_oracle(normed, layer.wv, layer.bv))
    attn = attention_chain_oracle(q, k, v, 1.0 / math.sqrt(dh))
    merged = T.reshape(T.transpose(attn, (0, 3, 1, 2, 4)), (b, p, n_px, d))
    return T.add(x, linear_chain_oracle(merged, layer.wo, layer.bo))


def forward_capture_oracle(model, images, layers, train=False, rng=None):
    """Model.forward as it was when it could capture: the complete forward,
    head and dropout included, that also keeps the MLP-input layer norm of
    each layer in `layers`. Returns (ForwardResult, {layer: capture}); the
    capture is what Model.capture_pre_mlp must equal bit for bit."""
    cfg = model.config
    x = model.patch_embed(images)
    result = backbone.ForwardResult(logits=None)
    captures = {}
    for i, layer in enumerate(model.layers):
        x = model.attention(layer, x)
        captured = T.layer_norm(x, layer.ln2_gain, layer.ln2_bias)
        if i in layers:
            captures[i] = captured
        x, record = model._mlp_residual(layer, x, captured)
        if record is not None:
            result.routing[i] = record
    pooled = T.tmean(x, axis=(1, 2))
    if train and cfg.dropout > 0:
        pooled = T.dropout(pooled, cfg.dropout, rng)
    result.logits = T.linear(pooled, model.head_w, model.head_b)
    return result, captures


def affinity_post_forward_oracle(model, images, layer, n_batches=50, batch_size=128,
                                 rng=None, provenance=None):
    """affinity.affinity_post as it was before it stopped at the routed
    layer: every sampled batch runs the complete forward, and the routed
    layer's RoutingRecord.full_probs are averaged per class."""
    rng = rng or T.Rng(0)
    num_classes = model.config.num_classes
    sums = None
    patch_counts = np.zeros(num_classes, dtype=np.int64)
    with model.no_grad():
        for _ in range(n_batches):
            idx = rng.gen.integers(0, len(images), size=min(batch_size, len(images)))
            x = np.stack([images[i].pixels for i in idx])
            labels = np.array([images[i].class_id for i in idx])
            record = model.forward(x).routing[layer]
            probs = record.full_probs  # B x P x E
            if sums is None:
                sums = np.zeros((num_classes, record.num_experts))
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
    return affinity.AffinityMatrix(values, "post_finetune", model.config.router_temperature,
                                   0.0, prov, missing_classes=missing)


def evaluate_oracle(model, images, batch_size=32):
    """training.evaluate as it was before it ran in slices: one untaped
    forward per batch of batch_size images, whatever its size."""
    num_classes = model.config.num_classes
    labels = np.array([im.class_id for im in images])
    preds = np.empty(len(images), dtype=np.int64)
    total_loss = 0.0
    counts = {}
    with model.no_grad():
        for start in range(0, len(images), batch_size):
            chunk = images[start:start + batch_size]
            x = np.stack([im.pixels for im in chunk])
            y = labels[start:start + len(chunk)]
            result = model.forward(x)
            loss = training.soft_cross_entropy(result.logits, training.one_hot(y, num_classes))
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
    return training.EvalResult(
        loss=total_loss / len(images),
        top1=float((preds == labels).mean()),
        per_class=per_class,
        predictions=preds,
        expert_counts=counts,
    )


def train_step_oracle(model, optimizer, x, y, labels, rng, where):
    """training.train_step as it was before it ran in slices: one forward
    and one backward over the whole batch, whatever its size."""
    result = model.forward(x, train=True, rng=rng)
    loss = training.soft_cross_entropy(result.logits, y)
    value = loss.item()
    if not np.isfinite(value):
        raise training.DivergenceError(f"non-finite loss {value} at {where}")
    optimizer.zero_grad()
    loss.backward()
    counts = {i: r.expert_counts for i, r in result.routing.items()}
    # each stacked expert array updates only the rows of experts that got rows
    optimizer.step({getattr(block, k): np.nonzero(counts[i] > 0)[0]
                    for i, block in model.moe_blocks().items() for k in moe.EXPERT_WEIGHTS})
    correct = int((np.argmax(result.logits.data, axis=-1) == labels).sum())
    return value, correct, counts


@dataclass
class PerExpertBlock(moe.MoEBlock):
    """A MoE block whose experts' weights are leaves of their own, named
    expertE.w1 and so on, as before experts were stacked. The stacked arrays
    it was copied from stay in place but take no part."""
    experts: list = field(default_factory=list)

    def parameters(self):
        out = {"router.centroids": self.router.centroids}
        for e, expert in enumerate(self.experts):
            out.update({f"expert{e}.{k}": t for k, t in expert.items()})
        return out


def per_expert_model_oracle(model):
    """A copy of the model whose MoE blocks are PerExpertBlocks holding
    copies of each expert's rows. Run its forward with
    moe_forward_per_expert_oracle in place of moe.moe_forward."""
    ref = copy.deepcopy(model)
    for i, block in ref.moe_blocks().items():
        experts = [{k: T.parameter(getattr(block, k).data[e].copy()) for k in moe.EXPERT_WEIGHTS}
                   for e in range(block.router.num_experts)]
        ref.layers[i].mlp = PerExpertBlock(
            **{f.name: getattr(block, f.name) for f in fields(block)}, experts=experts)
    return ref


def moe_forward_per_expert_oracle(x, captured, block):
    """moe.moe_forward on a PerExpertBlock, as it ran when each expert was
    a set of leaves: the same one-sort dispatch, and each expert that got
    rows runs on its own leaves, gamma one leaf read twice."""
    b, p, n_px, d = captured.shape
    router = block.router
    logits = moe.routing_logits(captured, router)
    indices, gates, probs = moe.select_experts(logits, router.top_k, router.gate_mode)
    flat_idx = indices.reshape(-1)
    order = np.argsort(flat_idx, kind="stable")
    rows = order // router.top_k
    sizes = np.bincount(flat_idx, minlength=router.num_experts)
    segments = T.split_rows(T.reshape(captured, (b * p, n_px, d)), rows, sizes)
    outs = []
    for seg, ex in zip(segments, block.experts):
        if len(seg.data):
            a = T.silu(T.linear(T.reshape(seg, (-1, d)), ex["w1"], ex["b1"]))
            out = T.linear(a, ex["w2"], ex["b2"])
            one_minus = T.sub(T.Tensor(1.0), ex["gamma"])
            blended = T.add(T.mul(out, one_minus), T.mul(ex["x_corr"], ex["gamma"]))
            outs.append(T.reshape(blended, seg.shape))
    out = T.add_rows(outs, T.take(T.reshape(gates, (-1,)), order), rows, b * p)
    return T.reshape(out, (b, p, n_px, d)), moe.RoutingRecord(indices, gates.data, probs.data)


class PerLeafAdamWOracle(training.AdamW):
    """training.AdamW's step as it was when every expert weight was a leaf
    of its own: a leaf with no gradient (an expert that got no rows) is
    skipped, and every other leaf updates whole. `rows` is not read."""

    def step(self, rows=None):
        b1, b2 = training.BETAS
        self.t += 1
        bc1 = 1.0 - b1 ** self.t
        bc2 = 1.0 - b2 ** self.t
        for name, p in self.params.items():
            g = p.grad
            if g is None:
                continue
            lr, wd = self._group_settings(name)
            m = self.m[name]
            v = self.v[name]
            m *= b1
            m += (1.0 - b1) * g
            v *= b2
            v += (1.0 - b2) * g * g
            update = (m / bc1) / (np.sqrt(v / bc2) + training.EPS)
            if wd:
                update = update + wd * p.data
            p.data = p.data - lr * update
            if name.endswith(".gamma"):
                p.data = np.clip(p.data, 0.0, 1.0)


def fold_oracle(blocks, image_size, patch_size):
    """(B, H, W, C) pixels back from unfold's (B, P, n_px, cell*cell*C)
    blocks, one pixel-position block at a time: patches row-major over the
    grid, pixel positions row-major within a patch, each block row-major."""
    b, _, n_px, width = blocks.shape
    side = math.isqrt(n_px)
    cell = patch_size // side
    grid = image_size // patch_size
    out = np.zeros((b, image_size, image_size, width // (cell * cell)), blocks.dtype)
    for p in range(grid * grid):
        gy, gx = divmod(p, grid)
        for j in range(n_px):
            sy, sx = divmod(j, side)
            y0, x0 = gy * patch_size + sy * cell, gx * patch_size + sx * cell
            out[:, y0:y0 + cell, x0:x0 + cell] = blocks[:, p, j].reshape(b, cell, cell, -1)
    return out


# The CLI configuration schema as it was written out by hand before it was
# derived from the config classes; the derived one must keep every default.
HAND_WRITTEN_CONFIG_SCHEMA = {
    "model": {
        "num_classes": 12, "image_size": 64, "patch_size": 8,
        "d_model": 32, "d_ff": 64, "layers": 4, "dropout": 0.1,
        "activation": "silu",
    },
    "moe": {
        "moe_layers": (), "experts": 16, "top_k": 1,
        "router_temperature": 1.0, "gate_mode": "renorm", "reduction_factor": 2,
    },
    "router_init": {
        "top_k_patches": 128, "samples_per_class": 8, "mode": "cluster", "seed": 0,
    },
    "optim": {
        "lr_moe": 0.005, "lr_classifier": 1e-5, "lr_rest": 5e-5,
        "batch_size": 32, "epochs": 80,
    },
    "augment": {"hflip_p": 0.5, "mixup_alpha": 0.2},
    "data": {
        "num_classes": 12, "num_families": 4, "image_size": 64,
        "images_per_class": 20, "num_backgrounds": 3, "fg_patch_cells": 4,
        "intra_family_similarity": 0.7, "noise": 0.03, "seed": 0,
    },
    "seed": {"seed": 0},
}


def read_affinity_csv(path) -> np.ndarray:
    """The classes x experts matrix of an affinity.export_csv file."""
    with open(path) as f:
        reader = csv.reader(f)
        header = next(reader)
        if header != ["class", "expert", "value"]:
            raise ValueError(f"unexpected affinity CSV header {header}")
        entries = [(int(c), int(e), float(v)) for c, e, v in reader]
    n_c = max(c for c, _, _ in entries) + 1
    n_e = max(e for _, e, _ in entries) + 1
    out = np.full((n_c, n_e), np.nan)
    for c, e, v in entries:
        out[c, e] = v
    return out
