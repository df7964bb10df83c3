"""Per-sublayer replay of one batch, for the traced run.

Forward times come from replaying one forward through the public sublayer
calls in Model.forward's order. Backward times come from .backward() on
each sublayer's output, with a fresh leaf as the sublayer's input and a
fixed cotangent. The graph counts walk the autodiff tape that a forward
leaves behind, the same way Tensor.backward walks it.
"""

from __future__ import annotations

from collections import defaultdict
from statistics import median

import numpy as np

from tracer import Patches, Tracer


def _totals(tracer: Tracer) -> dict[str, float]:
    totals: dict[str, float] = defaultdict(float)
    for span in tracer.spans:
        totals[span.name] += span.duration
    return totals


def _forward_once(model, images):
    """One eval-mode forward through the public sublayer calls. Returns
    (logits Tensor, routing records, the tracer holding one span per call)."""
    from patchmoe import moe
    from patchmoe import tensor as T

    tracer = Tracer("replay")
    records = {}
    with Patches() as patches:
        for name in ("routing_logits", "select_experts", "expert_forward"):
            patches.wrap(moe, name, lambda fn, name=name: tracer.wrap(name, fn))
        with tracer.span("patch_embed"):
            x = model.patch_embed(images)
        for i, layer in enumerate(model.layers):
            with tracer.span("attention"):
                x = model.attention(layer, x)
            with tracer.span("layer_norm"):
                captured = T.layer_norm(x, layer.ln2_gain, layer.ln2_bias)
            if isinstance(layer.mlp, moe.MoEBlock):
                with tracer.span("moe"):
                    sub_out, records[i] = moe.moe_forward(x, captured, layer.mlp)
            else:
                with tracer.span("dense_mlp"):
                    sub_out = layer.mlp.forward(captured)
            x = T.add(x, sub_out)
        with tracer.span("head"):
            pooled = T.tmean(x, axis=(1, 2))
            logits = T.add(T.matmul(pooled, model.head_w), model.head_b)
    return logits, records, tracer


def _backward_once(model, images, cotangents: dict):
    """Backward of each sublayer on its own, from a fresh leaf input."""
    from patchmoe import moe
    from patchmoe import tensor as T

    tracer = Tracer("replay")

    def leaf(t):
        return T.Tensor(t.data.copy(), requires_grad=True)

    def run_backward(name, key, out):
        cot = cotangents.setdefault(
            key, np.random.default_rng(len(cotangents)).standard_normal(out.shape)
            .astype(out.data.dtype))
        with tracer.span(name):
            out.backward(cot)

    x = model.patch_embed(images).detach()
    for i, layer in enumerate(model.layers):
        out = model.attention(layer, leaf(x))
        run_backward("attention", ("attention", i), out)
        x = out.detach()
        captured = T.layer_norm(x, layer.ln2_gain, layer.ln2_bias).detach()
        if isinstance(layer.mlp, moe.MoEBlock):
            sub_out, _ = moe.moe_forward(leaf(x), leaf(captured), layer.mlp)
            run_backward("moe", ("moe", i), sub_out)
        else:
            sub_out = layer.mlp.forward(leaf(captured))
            run_backward("dense_mlp", ("dense_mlp", i), sub_out)
        x = T.add(x, sub_out.detach())
    for p in model.named_parameters().values():
        p.grad = None
    return _totals(tracer)


def graph_nodes(root, follow_all: bool) -> list:
    """Nodes reachable from root. With follow_all=False this is exactly the
    set Tensor.backward sweeps: the root plus parents that require grad."""
    seen: set[int] = set()
    nodes = []
    stack = [root]
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        nodes.append(node)
        stack.extend(p for p in node._parents if follow_all or p.requires_grad)
    return nodes


def replay(model, images: np.ndarray, labels: np.ndarray, reps: int, ops) -> dict:
    """Per-sublayer medians over `reps` replays, routing balance and tape
    counts for one batch. Checks the replayed logits against Model.forward."""
    from patchmoe import moe, training

    reference = model.forward(images).logits.data
    fwd: dict[str, list[float]] = defaultdict(list)
    records = {}
    for rep in range(reps):
        logits, records, tracer = _forward_once(model, images)
        if rep == 0:
            ops.check(logits.data.dtype == reference.dtype
                      and np.array_equal(logits.data, reference),
                      "replayed logits are bit-equal to Model.forward")
        totals = _totals(tracer)
        for name in ("patch_embed", "attention", "layer_norm", "dense_mlp", "moe",
                     "routing_logits", "select_experts", "expert_forward", "head"):
            fwd[name].append(totals.get(name, 0.0))
        # dispatch: what moe_forward spends outside routing and the experts
        self_times = tracer.self_times()
        fwd["dispatch"].append(sum(self_times[s.id] for s in tracer.named("moe")))
    bwd: dict[str, list[float]] = defaultdict(list)
    cotangents: dict = {}
    for _ in range(reps):
        totals = _backward_once(model, images, cotangents)
        for name in ("attention", "dense_mlp", "moe"):
            bwd[name].append(totals.get(name, 0.0))

    ms = {name: 1e3 * median(v) for name, v in fwd.items()}
    routing_ms = ms["routing_logits"] + ms["select_experts"]
    out = {
        "backbone.patch_embed_fwd_ms": ms["patch_embed"],
        "backbone.attention_fwd_ms": ms["attention"],
        "backbone.attention_bwd_ms": 1e3 * median(bwd["attention"]),
        "backbone.dense_mlp_fwd_ms": ms["dense_mlp"],
        "backbone.dense_mlp_bwd_ms": 1e3 * median(bwd["dense_mlp"]),
        "moe.routing_fwd_ms": routing_ms,
        "moe.moe_fwd_ms": ms["moe"],
        "moe.moe_bwd_ms": 1e3 * median(bwd["moe"]),
        "moe.expert_fwd_ms": ms["expert_forward"],
        "moe.dispatch_self_ms": ms["dispatch"],
        "moe.max_load_ratio": 0.0,
        "moe.active_experts": 0,
    }
    if records:
        reports = [moe.dispatch_stats(r) for r in records.values()]
        out["moe.max_load_ratio"] = max(r.max_load_ratio for r in reports)
        out["moe.active_experts"] = min(int(np.count_nonzero(r.load_fractions))
                                        for r in reports)

    params = {id(p) for p in model.named_parameters().values()}
    result = model.forward(images)
    loss = training.soft_cross_entropy(
        result.logits, training.one_hot(labels, model.config.num_classes))
    out["tensor.graph_nodes_per_step"] = len(graph_nodes(loss, follow_all=False))
    out["tensor.tape_bytes_per_batch"] = sum(
        n.data.nbytes for n in graph_nodes(result.logits, follow_all=True)
        if id(n) not in params and n.data.base is None)
    return out
