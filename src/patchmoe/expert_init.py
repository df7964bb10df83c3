"""Converts dense MLP sublayers into sliced experts.

Per expert, one function (slice_expert) runs the expert's centroid, mapped
back to raw activation space, once through w1 and SiLU: the centroid is
already the MLP's input, so no norm runs on it. The d_e hidden units it
activates most strongly are the expert's slice of the dense weights, and the
full dense MLP's output at the centroid is its correction term x_corr,
blended in with gamma = 0.9.
"""

from __future__ import annotations

import numpy as np

from . import tensor as T
from .backbone import DenseMLP, Model, dense_mlp_hash
from .moe import MoEBlock, Router
from .tensor import Tensor

GAMMA_INIT = 0.9


def slice_expert(block: MoEBlock, e: int, mlp: DenseMLP, centroid_raw: np.ndarray,
                 gamma: float = GAMMA_INIT) -> None:
    """Fill row e of each of the block's expert arrays with the expert of one
    raw-space centroid, from the dense MLP alone.

    The centroid is already the MLP's input, so it runs with no norm step
    once through w1 and SiLU in float64, with the weights in C order whatever
    their layout, so the sums are too. The expert keeps the block's d_e
    most strongly activated hidden units, ties to the lower index, in
    ascending order; x_corr is the unsliced MLP's output from the same
    activations.
    """
    c = np.asarray(centroid_raw, dtype=np.float64)
    acts = T.silu(Tensor(c @ mlp.w1.data.astype(np.float64, order="C") + mlp.b1.data)).data
    keep = np.sort(np.argsort(-acts, kind="stable")[:block.w1.shape[2]])
    block.w1.data[e] = mlp.w1.data[:, keep]
    block.b1.data[e] = mlp.b1.data[keep]
    block.w2.data[e] = mlp.w2.data[keep, :]
    block.b2.data[e] = mlp.b2.data
    block.gamma.data[e] = gamma
    block.x_corr.data[e] = acts @ mlp.w2.data.astype(np.float64, order="C") + mlp.b2.data


def per_expert_param_count(d_model: int, d_ff: int, reduction_factor: int) -> int:
    """Trainable scalars per expert: sliced MLP (d*d_e + d_e + d_e*d + d),
    x_corr (d), gamma (1). The input norm is the layer's, shared with the
    router."""
    d_e = d_ff // reduction_factor
    return d_model * d_e + d_e + d_e * d_model + d_model + d_model + 1


def moefy_layer(model: Model, layer_index: int, router: Router,
                gamma: float = GAMMA_INIT) -> MoEBlock:
    """Replace the dense MLP of one of config.moe_layers with a
    config.experts-expert MoE block whose experts keep config.d_expert
    hidden dims each.

    Attention weights and the layer's MLP-input norm are untouched; the norm
    feeds the router and the experts, as it fed the dense MLP.
    """
    cfg = model.config
    layer = model.layers[layer_index]
    if isinstance(layer.mlp, MoEBlock):
        raise ValueError(f"layer {layer_index} is already a MoE block")
    if layer_index not in cfg.moe_layers or router.num_experts != cfg.experts:
        raise ValueError(f"layer {layer_index} with {router.num_experts} experts is not "
                         f"in the config's moe_layers {list(cfg.moe_layers)} "
                         f"with experts {cfg.experts}")
    if (router.top_k, router.temperature, router.gate_mode) != (
            cfg.top_k, cfg.router_temperature, cfg.gate_mode):
        raise ValueError("router top_k, temperature and gate_mode must be the config's")
    block = MoEBlock.zeros(router, cfg.d_expert, dense_mlp_hash(layer))
    for e, centroid in enumerate(router.centroids.data):
        slice_expert(block, e, layer.mlp, T.minmax_invert(router.scaler, centroid), gamma)
    layer.mlp = block
    return block
