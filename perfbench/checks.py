"""Output checks, digests and exact counts taken while the program runs.

Every check is one benchmark operation: a failed check raises the failed
share of the run. The observer wraps a few public calls for the whole run,
traced or not; it only reads what those calls return.
"""

from __future__ import annotations

import hashlib
from math import comb

import numpy as np

# Renormalised top-k gates sum to 1 up to float32 rounding.
GATE_ATOL = 1e-5


class Ops:
    """Attempted and failed operation counts of one run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def check(self, ok, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(what)
        return bool(ok)


def digest(*arrays) -> str:
    """Short sha256 over dtype, shape and bytes of each array, in order."""
    h = hashlib.sha256()
    for a in arrays:
        a = np.ascontiguousarray(a)
        h.update(f"{a.dtype}{a.shape}".encode())
        h.update(a.tobytes())
    return h.hexdigest()[:16]


def adjusted_rand_index(a, b) -> float:
    """Hubert-Arabie adjusted Rand index of two labelings."""
    a = np.asarray(a)
    b = np.asarray(b)
    cont = np.array([[int(np.sum((a == x) & (b == y))) for y in np.unique(b)]
                     for x in np.unique(a)])
    sum_ij = sum(comb(int(v), 2) for v in cont.flat)
    sum_a = sum(comb(int(v), 2) for v in cont.sum(axis=1))
    sum_b = sum(comb(int(v), 2) for v in cont.sum(axis=0))
    expected = sum_a * sum_b / comb(len(a), 2)
    max_index = (sum_a + sum_b) / 2
    if max_index == expected:
        return 1.0
    return (sum_ij - expected) / (max_index - expected)


class Observer:
    """Checks every inference batch's routing and records digests, dtypes and
    exact counts per phase (one set-up or one pass)."""

    def __init__(self, ops: Ops):
        self.ops = ops
        self.logits_dtypes: set[str] = set()
        self.capture_dtypes: set[str] = set()
        self.begin()

    def begin(self) -> None:
        self._digests: dict[str, list[str]] = {}
        self.captures = 0
        self.ward_points: list[int] = []

    def end(self) -> dict[str, str]:
        return {name: hashlib.sha256("".join(parts).encode()).hexdigest()[:16]
                for name, parts in sorted(self._digests.items())}

    def _record(self, name: str, *arrays) -> None:
        self._digests.setdefault(name, []).append(digest(*arrays))

    def install(self, patches) -> None:
        from patchmoe import affinity, backbone, router_init, training
        patches.wrap(backbone.Model, "forward", self._forward)
        patches.wrap(backbone.Model, "capture_pre_mlp", self._capture)
        patches.wrap(training, "evaluate", self._evaluate)
        patches.wrap(router_init, "ward_cluster", self._ward)
        patches.wrap(affinity, "affinity_post", self._affinity_post)

    def _forward(self, original):
        def forward(model, images, *args, **kwargs):
            result = original(model, images, *args, **kwargs)
            train = kwargs.get("train", args[0] if args else False)
            if not train:
                self.logits_dtypes.add(str(result.logits.data.dtype))
                for layer, record in result.routing.items():
                    self.check_routing(model.layers[layer].mlp.router.top_k, layer, record)
            return result
        return forward

    def check_routing(self, top_k: int, layer: int, record) -> None:
        idx = record.indices
        b, p, k = idx.shape
        ok = (k == top_k and record.gates.shape == idx.shape
              and np.allclose(record.gates.sum(axis=-1), 1.0, rtol=0.0, atol=GATE_ATOL)
              and idx.min() >= 0 and idx.max() < record.num_experts
              and bool(np.all(np.diff(np.sort(idx, axis=-1), axis=-1) > 0))
              and int(record.expert_counts.sum()) == b * p * k)
        self.ops.check(ok, f"routing invariants at layer {layer}, batch of {b}")

    def _capture(self, original):
        def capture_pre_mlp(model, images, layer):
            out = original(model, images, layer)
            self.captures += 1
            self.capture_dtypes.add(str(out.data.dtype))
            return out
        return capture_pre_mlp

    def _evaluate(self, original):
        def evaluate(*args, **kwargs):
            result = original(*args, **kwargs)
            self.ops.check(np.isfinite(result.loss), "evaluate loss is finite")
            self._record("eval_predictions", result.predictions)
            return result
        return evaluate

    def _ward(self, original):
        def ward_cluster(points, *args, **kwargs):
            tree = original(points, *args, **kwargs)
            self.ward_points.append(len(points))
            self._record("ward_merges", np.array(tree.merges, dtype=np.float64))
            return tree
        return ward_cluster

    def _affinity_post(self, original):
        def affinity_post(*args, **kwargs):
            matrix = original(*args, **kwargs)
            self._record("affinity_post", matrix.values)
            return matrix
        return affinity_post
