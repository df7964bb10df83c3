"""Patch-level mixture-of-experts MLP sublayer.

Routing is cosine similarity between fixed-initialized centroids and the
min-max-scaled, pixel-averaged patch embedding; every pixel of a patch goes
to the same expert set. Experts are slices of the dense MLP and, like it, read
the layer's MLP-input norm output, blended with a trainable correction:
(1 - gamma) * MLP_e(h) + gamma * x_corr.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .tensor import ScalerParams, Tensor


@dataclass
class Router:
    centroids: Tensor  # E x d, trainable
    scaler: ScalerParams
    temperature: float = 1.0
    top_k: int = 1
    gate_mode: str = "renorm"  # "renorm" | "raw"

    def __post_init__(self):
        self.validate()

    def validate(self) -> None:
        """ValueError unless the centroids are a non-empty E x d matrix of
        finite, non-zero rows, the scaler has d channels, and temperature,
        top_k and gate_mode are valid."""
        c = self.centroids.data
        if c.ndim != 2 or c.shape[0] < 1:
            raise ValueError("centroids must be a non-empty E x d matrix")
        if not np.all(np.isfinite(c)):
            raise ValueError("centroid rows must be finite")
        if np.any(np.all(c == 0, axis=1)):
            raise ValueError("centroid rows must be non-zero")
        if not self.scaler.min.shape == self.scaler.max.shape == (c.shape[1],):
            raise ValueError(f"scaler min and max must each hold {c.shape[1]} channels")
        if not self.temperature > 0:
            raise ValueError("temperature must be > 0")
        if not 1 <= self.top_k <= c.shape[0]:
            raise ValueError("top_k out of range")
        if self.gate_mode not in ("renorm", "raw"):
            raise ValueError(f"unknown gate mode {self.gate_mode!r}")

    @property
    def num_experts(self) -> int:
        return self.centroids.shape[0]


@dataclass
class ExpertMLP:
    indices: np.ndarray  # permutation indices into the dense hidden dim
    w1: Tensor  # d x d_e (sliced columns)
    b1: Tensor  # d_e
    w2: Tensor  # d_e x d (sliced rows)
    b2: Tensor  # d
    gamma: Tensor  # scalar blend weight, clamped to [0, 1] after each step
    x_corr: Tensor  # d, full-MLP output at the expert's raw-space centroid

    def parameters(self) -> dict[str, Tensor]:
        return {"w1": self.w1, "b1": self.b1, "w2": self.w2, "b2": self.b2,
                "gamma": self.gamma, "x_corr": self.x_corr}


def expert_forward(h_pixels: Tensor, expert: ExpertMLP) -> Tensor:
    """Run one expert on an n x d batch of MLP-input-normed pixels."""
    a = T.silu(T.linear(h_pixels, expert.w1, expert.b1))
    out = T.linear(a, expert.w2, expert.b2)
    one_minus = T.sub(T.Tensor(1.0), expert.gamma)
    return T.add(T.mul(out, one_minus), T.mul(expert.x_corr, expert.gamma))


@dataclass
class RoutingRecord:
    indices: np.ndarray      # B x P x top_k selected expert ids
    gates: np.ndarray        # B x P x top_k gate values (sum to 1 per patch)
    full_probs: np.ndarray   # B x P x E softmax over all experts

    @property
    def num_experts(self) -> int:
        return self.full_probs.shape[-1]

    @property
    def expert_counts(self) -> np.ndarray:
        return np.bincount(self.indices.reshape(-1), minlength=self.num_experts)


@dataclass
class MoEBlock:
    router: Router
    experts: list[ExpertMLP]
    source_hash: str | None = None  # dense_mlp_hash of the MLP it replaced

    def __post_init__(self):
        if len(self.experts) != self.router.num_experts:
            raise ValueError("expert count does not match router centroids")

    def parameters(self) -> dict[str, Tensor]:
        out = {"router.centroids": self.router.centroids}
        for e, ex in enumerate(self.experts):
            out.update({f"expert{e}.{k}": v for k, v in ex.parameters().items()})
        return out


def routing_logits(x_captured: Tensor, router: Router) -> Tensor:
    """B x P x E logits from the captured pre-MLP activation.

    Pixel-average each patch, min-max scale (routing only, never the expert
    input), cosine similarity to each centroid, divide by temperature.
    """
    b, p, _, d = x_captured.shape
    if d != router.scaler.channels:
        raise ValueError("activation channels do not match router scaler")
    pooled = T.tmean(x_captured, axis=2)  # B x P x d
    scaled = T.minmax_apply(router.scaler, pooled)
    sims = T.cosine_matrix(T.reshape(scaled, (b * p, d)), router.centroids)
    return T.reshape(T.mul(sims, T.Tensor(1.0 / router.temperature)), (b, p, router.num_experts))


def select_experts(logits: Tensor, top_k: int, gate_mode: str = "renorm"):
    """Softmax over experts, take top_k by probability (ties to the lower
    expert index), gates renormalized to sum to 1 unless gate_mode == "raw".

    Returns (indices ndarray B x P x k, gates Tensor B x P x k,
    full_probs Tensor B x P x E).
    """
    e = logits.shape[-1]
    if top_k > e:
        raise ValueError("top_k exceeds expert count")
    probs = T.softmax(logits, axis=-1)
    order = np.argsort(-probs.data, axis=-1, kind="stable")  # stable => lower index wins ties
    indices = order[..., :top_k]
    gates = T.gather_last(probs, indices)
    if gate_mode == "renorm":
        gates = T.div(gates, T.tsum(gates, axis=-1, keepdims=True))
    return indices, gates, probs


def moe_forward(x: Tensor, captured: Tensor, block: MoEBlock):
    """Apply the MoE sublayer (without the outer residual, which the caller
    adds).

    captured is the post-attention activation after the layer's MLP-input
    norm: the router routes on it and each expert reads its rows, as the
    dense MLP it replaced did. x, the activation before that norm, is not
    read; it stays in the signature because perfbench/replay.py passes it.
    Each expert runs once on the rows routed to it, with no capacity limit;
    per-expert outputs are combined in fixed expert-index order.
    """
    b, p, n_px, d = captured.shape
    router = block.router
    logits = routing_logits(captured, router)
    indices, gates, probs = select_experts(logits, router.top_k, router.gate_mode)

    k = router.top_k
    flat_h = T.reshape(captured, (b * p, n_px, d))
    # slot r*k + j is row r's rank-j expert; each expert gathers its rows
    flat_idx = indices.reshape(-1)
    flat_gates = T.reshape(gates, (b * p * k, 1, 1))
    out = None
    for e in range(router.num_experts):
        slots = np.flatnonzero(flat_idx == e)
        if slots.size == 0:
            continue
        rows = slots // k
        pixels = T.reshape(T.take(flat_h, rows), (rows.size * n_px, d))
        expert_out = T.reshape(expert_forward(pixels, block.experts[e]), (rows.size, n_px, d))
        contrib = T.scatter_rows(T.mul(expert_out, T.take(flat_gates, slots)), rows, b * p)
        out = contrib if out is None else T.add(out, contrib)
    record = RoutingRecord(indices, gates.data.copy(), probs.data.copy())
    return T.reshape(out, (b, p, n_px, d)), record


@dataclass
class UtilizationReport:
    load_fractions: np.ndarray  # per-expert share of routed patch slots
    entropy: float              # natural-log entropy of the load distribution
    max_load_ratio: float       # max share / uniform share


def load_entropy(mass) -> float:
    """Natural-log entropy of a non-negative load vector (expert counts or
    affinity column mass) normalised to sum to 1; 0.0 when it is all zero."""
    mass = np.asarray(mass)
    total = mass.sum()
    if not total > 0:
        return 0.0
    p = mass[mass > 0] / total
    return float(-(p * np.log(p)).sum())


def dispatch_stats(record: RoutingRecord) -> UtilizationReport:
    counts = record.expert_counts
    total = counts.sum()
    fractions = counts / total if total else np.zeros_like(counts, dtype=float)
    max_ratio = float(fractions.max() * record.num_experts) if total else 0.0
    return UtilizationReport(fractions, load_entropy(counts), max_ratio)
