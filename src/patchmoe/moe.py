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
        finite, non-zero rows, the scaler has d finite channels with
        max >= min, and temperature, top_k and gate_mode are valid."""
        c = self.centroids.data
        if c.ndim != 2 or c.shape[0] < 1:
            raise ValueError("centroids must be a non-empty E x d matrix")
        if not np.all(np.isfinite(c)):
            raise ValueError("centroid rows must be finite")
        if np.any(np.all(c == 0, axis=1)):
            raise ValueError("centroid rows must be non-zero")
        if not self.scaler.min.shape == self.scaler.max.shape == (c.shape[1],):
            raise ValueError(f"scaler min and max must each hold {c.shape[1]} channels")
        lo, hi = self.scaler.min, self.scaler.max
        if not (np.all(np.isfinite(lo)) and np.all(np.isfinite(hi)) and np.all(hi >= lo)):
            raise ValueError("scaler min and max must be finite with max >= min")
        if not self.temperature > 0:
            raise ValueError("temperature must be > 0")
        if not 1 <= self.top_k <= c.shape[0]:
            raise ValueError("top_k out of range")
        if self.gate_mode not in ("renorm", "raw"):
            raise ValueError(f"unknown gate mode {self.gate_mode!r}")

    @property
    def num_experts(self) -> int:
        return self.centroids.shape[0]


# The stacked expert arrays of a MoEBlock, each with one row per expert.
EXPERT_WEIGHTS = ("w1", "b1", "w2", "b2", "gamma", "x_corr")


def expert_forward(h_pixels: Tensor, block: "MoEBlock", e: int) -> Tensor:
    """Run expert e of the block on an n x d batch of MLP-input-normed pixels,
    taking row e of each array on the tape so that its gradients land in that row;
    gamma is taken once per use, so each use adds into the row as into a leaf."""
    w1, b1, w2, b2, x_corr = (T.take(getattr(block, k), e)
                              for k in ("w1", "b1", "w2", "b2", "x_corr"))
    a = T.silu(T.linear(h_pixels, w1, b1))
    out = T.linear(a, w2, b2)
    one_minus = T.sub(T.Tensor(1.0), T.take(block.gamma, e))
    return T.add(T.mul(out, one_minus), T.mul(x_corr, T.take(block.gamma, e)))


@dataclass
class RoutingRecord:
    indices: np.ndarray      # B x P x top_k selected expert ids
    gates: np.ndarray        # B x P x top_k gate values; sum to 1 per patch under
                             # gate_mode "renorm", the top_k probabilities under "raw"
    full_probs: np.ndarray   # B x P x E softmax over all experts

    @property
    def num_experts(self) -> int:
        return self.full_probs.shape[-1]

    @property
    def expert_counts(self) -> np.ndarray:
        return np.bincount(self.indices.reshape(-1), minlength=self.num_experts)


@dataclass
class MoEBlock:
    """The router and the E experts' weights: one array per kind, row e expert e's."""
    router: Router
    w1: Tensor      # E x d x d_e (sliced columns)
    b1: Tensor      # E x d_e
    w2: Tensor      # E x d_e x d (sliced rows)
    b2: Tensor      # E x d
    gamma: Tensor   # E blend weights, clamped to [0, 1] after each step
    x_corr: Tensor  # E x d, full-MLP output at the expert's raw-space centroid
    source_hash: str | None = None  # dense_mlp_hash of the MLP it replaced

    def __post_init__(self):
        if any(getattr(self, k).shape[:1] != (self.router.num_experts,)
               for k in EXPERT_WEIGHTS):
            raise ValueError("expert arrays must hold one row per router centroid")

    @classmethod
    def zeros(cls, router: Router, d_e: int, source_hash: str | None = None) -> "MoEBlock":
        """A block whose E experts of d_e hidden units are all zeros."""
        e, d = router.centroids.shape
        shapes = dict(w1=(d, d_e), b1=(d_e,), w2=(d_e, d), b2=(d,), gamma=(), x_corr=(d,))
        return cls(router, **{k: T.parameter(np.zeros((e, *shapes[k]))) for k in EXPERT_WEIGHTS},
                   source_hash=source_hash)

    def parameters(self) -> dict[str, Tensor]:
        return {"router.centroids": self.router.centroids,
                **{k: getattr(self, k) for k in EXPERT_WEIGHTS}}


def routing_logits(x_captured: Tensor, router: Router) -> Tensor:
    """B x P x E logits from the captured pre-MLP activation.

    Pixel-average each patch, min-max scale (routing only, never the expert
    input), cosine similarity to each centroid, divide by temperature.
    """
    b, p, _, d = x_captured.shape
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
    # flat positions of the picks in probs; none repeats
    rows = np.arange(probs.data.size // e).reshape(probs.shape[:-1] + (1,))
    gates = T.take(T.reshape(probs, (-1,)), rows * e + indices)
    if gate_mode == "renorm":
        gates = T.div(gates, T.tsum(gates, axis=-1, keepdims=True))
    return indices, gates, probs


def moe_forward(x: Tensor, captured: Tensor, block: MoEBlock):
    """Apply the MoE sublayer, without the outer residual, which the caller adds.

    captured is the post-attention activation after the layer's MLP-input
    norm: the router routes on it and each expert reads its rows, as the
    dense MLP it replaced did. x, the activation before that norm, is not
    read; it stays in the signature because perfbench/replay.py passes it.

    Dispatch is one stable sort of the B*P*k slots by expert, where slot
    r*k + j is row r's j-th pick: one gather lays each expert's rows out as
    one contiguous segment, in ascending row order, and each expert runs
    once on its segment, with no capacity limit. One weighted scatter-add
    (T.add_rows) multiplies each segment by its gates and adds it into its
    rows, segment after segment, so each row sums its k contributions in
    ascending expert order from +0.0. The tape holds the same full-size
    arrays however many experts are active.
    """
    b, p, n_px, d = captured.shape
    router = block.router
    logits = routing_logits(captured, router)
    indices, gates, probs = select_experts(logits, router.top_k, router.gate_mode)

    flat_idx = indices.reshape(-1)
    order = np.argsort(flat_idx, kind="stable")
    rows = order // router.top_k
    sizes = np.bincount(flat_idx, minlength=router.num_experts)
    segments = T.split_rows(T.reshape(captured, (b * p, n_px, d)), rows, sizes)
    outs = [T.reshape(expert_forward(T.reshape(seg, (-1, d)), block, e), seg.shape)
            for e, seg in enumerate(segments) if len(seg.data)]
    # without a tape, the gathered rows are freed before the output is built
    del segments
    out = T.reshape(T.add_rows(outs, T.take(T.reshape(gates, (-1,)), order), rows, b * p),
                    (b, p, n_px, d))
    return out, RoutingRecord(indices, gates.data, probs.data)


@dataclass
class UtilizationReport:
    load_fractions: np.ndarray  # per-expert share of routed patch slots
    entropy: float              # natural-log entropy of the load distribution
    max_load_ratio: float       # max share / uniform share
    starved_experts: int        # experts no slot was routed to


def load_entropy(mass) -> float:
    """Natural-log entropy of a non-negative load vector (expert counts or
    affinity column mass) normalised to sum to 1; 0.0 when it is all zero."""
    mass = np.asarray(mass)
    total = mass.sum()
    if not total > 0:
        return 0.0
    p = mass[mass > 0] / total
    return float(-(p * np.log(p)).sum())


def dispatch_stats(counts) -> UtilizationReport:
    """Load report from per-expert slot counts: one RoutingRecord's, or an
    E-vector of them summed over forwards, as train() and evaluate() do."""
    if isinstance(counts, RoutingRecord):
        counts = counts.expert_counts
    counts = np.asarray(counts)
    total = counts.sum()
    fractions = counts / total if total else np.zeros_like(counts, dtype=float)
    max_ratio = float(fractions.max() * counts.size) if total else 0.0
    return UtilizationReport(fractions, load_entropy(counts), max_ratio,
                             int(np.count_nonzero(counts == 0)))
