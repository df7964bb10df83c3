"""Converts dense MLP sublayers into sliced experts.

Per expert: pick the hidden dimensions the dense MLP activates most strongly
at the expert's centroid (mapped back to raw activation space), slice the
dense weights at those dimensions, and initialize the correction blend with
gamma = 0.9 and x_corr = the full dense MLP's output at the centroid.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .backbone import Model, TransformerLayer, dense_mlp_hash
from .moe import ExpertMLP, MoEBlock, Router
from .tensor import Tensor

GAMMA_INIT = 0.9


@dataclass
class DenseMLPSnapshot:
    w1: np.ndarray  # d x d_ff
    b1: np.ndarray
    w2: np.ndarray  # d_ff x d
    b2: np.ndarray
    ln_gain: np.ndarray
    ln_bias: np.ndarray

    @property
    def d_ff(self) -> int:
        return self.w1.shape[1]


def snapshot_dense_mlp(layer: TransformerLayer) -> DenseMLPSnapshot:
    mlp = layer.mlp
    return DenseMLPSnapshot(
        w1=mlp.w1.data.copy(), b1=mlp.b1.data.copy(),
        w2=mlp.w2.data.copy(), b2=mlp.b2.data.copy(),
        ln_gain=layer.ln2_gain.data.copy(), ln_bias=layer.ln2_bias.data.copy())


def _normed_centroid(snapshot: DenseMLPSnapshot, centroid_raw: np.ndarray) -> np.ndarray:
    """Raw-space centroid through the layer's MLP-input norm, which the
    experts read at run time."""
    x = Tensor(np.asarray(centroid_raw, dtype=np.float64).reshape(1, -1))
    return T.layer_norm(x, Tensor(snapshot.ln_gain.astype(np.float64)),
                        Tensor(snapshot.ln_bias.astype(np.float64))).data[0]


def hidden_activations(snapshot: DenseMLPSnapshot, centroid_raw: np.ndarray) -> np.ndarray:
    h = _normed_centroid(snapshot, centroid_raw)
    pre = h @ snapshot.w1.astype(np.float64) + snapshot.b1
    return T.silu(Tensor(pre)).data


def importance_permutation(snapshot: DenseMLPSnapshot, centroid_raw: np.ndarray,
                           d_e: int) -> np.ndarray:
    """Indices of the d_e most strongly activated hidden dims at the
    centroid; ties to the lower index, stored sorted ascending."""
    if d_e > snapshot.d_ff:
        raise ValueError(f"d_e={d_e} exceeds hidden width {snapshot.d_ff}")
    acts = hidden_activations(snapshot, centroid_raw)
    top = np.argsort(-acts, kind="stable")[:d_e]
    return np.sort(top)


def full_mlp_output(snapshot: DenseMLPSnapshot, centroid_raw: np.ndarray) -> np.ndarray:
    """The unsliced dense MLP's output at the raw-space centroid."""
    acts = hidden_activations(snapshot, centroid_raw)
    return acts @ snapshot.w2.astype(np.float64) + snapshot.b2


def build_expert(snapshot: DenseMLPSnapshot, indices: np.ndarray,
                 centroid_raw: np.ndarray, gamma: float = GAMMA_INIT) -> ExpertMLP:
    indices = np.asarray(indices, dtype=np.int64)
    if indices.size and (indices.min() < 0 or indices.max() >= snapshot.d_ff):
        raise ValueError("permutation indices out of range")
    dtype = T.default_dtype()
    return ExpertMLP(
        indices=indices,
        w1=T.parameter(snapshot.w1[:, indices].astype(dtype)),
        b1=T.parameter(snapshot.b1[indices].astype(dtype)),
        w2=T.parameter(snapshot.w2[indices, :].astype(dtype)),
        b2=T.parameter(snapshot.b2.copy()),
        gamma=T.parameter(np.asarray(gamma, dtype=dtype)),
        x_corr=T.parameter(full_mlp_output(snapshot, centroid_raw).astype(dtype)),
    )


def per_expert_param_count(d_model: int, d_ff: int, reduction_factor: int) -> int:
    """Trainable scalars per expert: sliced MLP (d*d_e + d_e + d_e*d + d),
    x_corr (d), gamma (1). The input norm is the layer's, shared with the
    router."""
    d_e = d_ff // reduction_factor
    return d_model * d_e + d_e + d_e * d_model + d_model + d_model + 1


def moefy_layer(model: Model, layer_index: int, router: Router,
                gamma: float = GAMMA_INIT) -> MoEBlock:
    """Replace the dense MLP of one of config.moe_layers with a
    config.experts-expert MoE block whose experts keep
    d_ff / config.reduction_factor hidden dims each.

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
    d_e = cfg.d_ff // cfg.reduction_factor
    snapshot = snapshot_dense_mlp(layer)
    experts = []
    for e in range(router.num_experts):
        centroid_raw = T.minmax_invert(router.scaler, router.centroids.data[e])
        indices = importance_permutation(snapshot, centroid_raw, d_e)
        experts.append(build_expert(snapshot, indices, centroid_raw, gamma=gamma))
    block = MoEBlock(router=router, experts=experts, source_hash=dense_mlp_hash(layer))
    layer.mlp = block
    return block
