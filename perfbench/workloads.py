"""The four benchmark workloads.

Each workload is a closed loop: one caller drives one pipeline, and the next
pass starts when the previous one has returned. Inputs come from
data.generate with the run's --seed, which also seeds model initialisation,
training, router building and affinity sampling. The program is driven only
through patchmoe's public functions.

A workload has four steps: set-up (timed as setup_s, repeated several times
per run), prepare (untimed; restores the state a pass mutates), the timed
pass, and the pass's output checks (untimed).
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import shutil
import tempfile
from pathlib import Path

import numpy as np

from checks import adjusted_rand_index

# Floors for the accept32 pipeline's quality checks. Criterion 07 asks for
# medians over five seeds of val top-1 >= 0.95 and family ARI >= 0.8, but a
# run has one seed, and single seeds scatter: when these floors were set, 46
# seeds gave lowest values of 0.69 and 0.26. The floors sit below those. A
# model at chance (top-1 1/12) fails the first; routing that ignores the
# families scatters around ARI 0 and fails the second about half the time.
VAL_TOP1_FLOOR = 0.5
FAMILY_ARI_FLOOR = 0.0


ACCEPT32_INI = """\
[model]
image_size = 32
patch_size = 8
d_model = 24
d_ff = 48
layers = 2
dropout = 0.0

[moe]
moe_layers = 0
experts = 4

[optim]
epochs = {pretrain_epochs}
batch_size = 16
lr_rest = 3e-3
lr_classifier = 3e-3

[seed]
seed = {seed}
"""


class Workload:
    name = ""
    replay_batch = 0
    min_passes = 3
    # An untimed warm-up pass before the timed ones, for workloads whose
    # first pass in a process is much slower than the rest.
    warmup = False
    # Routers built per set-up and per pass.
    setup_builds = 0
    pass_builds = 0

    def __init__(self, seed: int, work_dir: Path):
        self.seed = seed
        self.work_dir = work_dir

    def setup(self) -> None:
        raise NotImplementedError

    def prepare(self) -> None:
        pass

    def run_pass(self, stage) -> None:
        """The timed pass. `stage(name)` times one top-level call."""
        raise NotImplementedError

    def check_pass(self, ops) -> None:
        pass

    def stage_metrics(self, times: dict[str, float]) -> dict[str, float]:
        """Workload-level rates from one pass's stage seconds."""
        return {}

    def replay_inputs(self):
        """(model, images, labels) for the traced per-sublayer replay."""
        raise NotImplementedError


def _batch(images, n):
    chosen = images[:n]
    return (np.stack([im.pixels for im in chosen]),
            np.array([im.class_id for im in chosen]))


# ---------------------------------------------------------------------------
# accept32-pipeline
# ---------------------------------------------------------------------------


class Accept32Pipeline(Workload):
    """The README CLI walkthrough at the acceptance spec, one cli.main call
    per step."""

    name = "accept32-pipeline"
    replay_batch = 16
    min_passes = 2  # a pass takes about 10 s; two keep the whole run near 20-25 s
    pretrain_epochs = 20
    finetune_epochs = 5
    pass_builds = 1

    def setup(self):
        from patchmoe import data
        self.spec = {"num_classes": 12, "num_families": 4, "image_size": 32,
                     "images_per_class": 15, "fg_patch_cells": 3,
                     "intra_family_similarity": 0.55, "noise": 0.02, "seed": self.seed}
        self.dataset = data.generate(data.SynthSpec(**self.spec))
        self.n_train = len(self.dataset.split("train"))
        self.base = Path(tempfile.mkdtemp(prefix="accept32-", dir=self.work_dir))
        (self.base / "spec.json").write_text(json.dumps(self.spec))
        (self.base / "run.ini").write_text(ACCEPT32_INI.format(
            pretrain_epochs=self.pretrain_epochs, seed=self.seed))
        self.replay_model = None

    def prepare(self):
        self.dir = Path(tempfile.mkdtemp(prefix="pass-", dir=self.base))
        # `pretrain --out ckpt/x.json` exits 3 when ckpt/ does not exist yet
        # (train() writes the metrics CSV before the checkpoint makes the
        # directory), so the benchmark creates it.
        (self.dir / "ckpt").mkdir()

    def run_pass(self, stage):
        from patchmoe import cli
        d, base = self.dir, self.base
        ini = str(base / "run.ini")
        steps = [
            ("gen_data", ["gen-data", "--spec", str(base / "spec.json"),
                          "--out", f"{d}/data"]),
            ("pretrain", ["pretrain", "--config", ini, "--data", f"{d}/data",
                          "--out", f"{d}/ckpt/dense.json"]),
            ("moefy", ["moefy", "--config", ini, "--ckpt", f"{d}/ckpt/dense.json",
                       "--data", f"{d}/data", "--out", f"{d}/ckpt/moe.json"]),
            ("finetune", ["finetune", "--config", ini,
                          "--set", f"optim.epochs={self.finetune_epochs}",
                          "--ckpt", f"{d}/ckpt/moe.json", "--data", f"{d}/data",
                          "--out", f"{d}/ckpt/tuned.json"]),
            ("eval", ["eval", "--ckpt", f"{d}/ckpt/tuned.json", "--data", f"{d}/data",
                      "--out", f"{d}/eval.csv"]),
            ("affinity", ["affinity", "--ckpt", f"{d}/ckpt/tuned.json",
                          "--data", f"{d}/data", "--layer", "0", "--mode", "post",
                          "--format", "svg", "--out", f"{d}/affinity.svg"]),
        ]
        with contextlib.redirect_stdout(io.StringIO()):
            for name, argv in steps:
                with stage(f"cli.{name}"):
                    code = cli.main(argv)
                if code != 0:  # the pass fails; later steps need this one's output
                    raise RuntimeError(f"cli {name} exit code {code}")

    def check_pass(self, ops):
        from patchmoe import backbone
        d = self.dir
        rows = {}
        for ckpt in ("dense", "tuned"):
            with open(d / "ckpt" / f"{ckpt}.metrics.csv", newline="") as f:
                rows[ckpt] = list(csv.DictReader(f))
            ops.check(rows[ckpt] and all(math.isfinite(float(r["loss"])) for r in rows[ckpt]),
                      f"{ckpt} training losses are finite")
        self.val_top1 = float([r for r in rows["dense"] if r["split"] == "val"][-1]["top1"])
        ops.check(self.val_top1 >= VAL_TOP1_FLOOR,
                  f"dense val top-1 {self.val_top1} >= {VAL_TOP1_FLOOR}")
        routers = json.loads((d / "ckpt" / "moe.run.json").read_text())["routers"]
        self.family_ari = adjusted_rand_index(routers["0"]["class_assignments"],
                                              self.dataset.families)
        ops.check(self.family_ari >= FAMILY_ARI_FLOOR,
                  f"family ARI {self.family_ari} >= {FAMILY_ARI_FLOOR}")
        self.checkpoint_bytes = 0
        for ckpt in ("dense", "moe", "tuned"):
            manifest = d / "ckpt" / f"{ckpt}.json"
            blob = manifest.with_suffix(".bin")
            self.checkpoint_bytes += manifest.stat().st_size + blob.stat().st_size
        model = backbone.load_checkpoint(d / "ckpt" / "tuned.json")
        ops.check(blob.stat().st_size == blob_bytes(model),
                  "tuned checkpoint blob size matches its formula")
        self.replay_model = model
        shutil.rmtree(d)

    def stage_metrics(self, times):
        return {
            "stage.pipeline_s": sum(times.values()),
            "stage.pretrain_img_per_s": self.n_train * self.pretrain_epochs
            / times["cli.pretrain"],
            "stage.finetune_img_per_s": self.n_train * self.finetune_epochs
            / times["cli.finetune"],
            "stage.moefy_s": times["cli.moefy"],
        }

    def replay_inputs(self):
        images, labels = _batch(self.dataset.split("train"), self.replay_batch)
        return self.replay_model, images, labels


def blob_bytes(model) -> int:
    """Checkpoint .bin size: per parameter an 8-byte magic, dtype and rank
    bytes, 8 bytes per dimension, then the payload."""
    return sum(10 + 8 * p.data.ndim + p.data.nbytes
               for p in model.named_parameters().values())


# ---------------------------------------------------------------------------
# desk64-finetune and desk64-infer
# ---------------------------------------------------------------------------


class _Desk64(Workload):
    """The desk config converted to MoE at layers 1 and 3 with E=16, top-1.

    The dense model is not pretrained: pretraining at 64 px costs minutes,
    and speed does not depend on the weights. Routers are built with one
    sampled image per class so that set-up stays a few seconds.
    """

    images_per_class = 0
    moe_layers = (1, 3)
    experts = 16
    setup_builds = len(moe_layers)
    samples_per_class = 1
    # The first pass first-touches about 2 GB of activations and runs 30-60 %
    # slower than the rest.
    warmup = True

    def setup(self):
        from patchmoe import backbone, data, expert_init, router_init
        from patchmoe.tensor import Rng
        self.dataset = data.generate(data.SynthSpec(
            num_classes=24, num_families=6, image_size=64,
            images_per_class=self.images_per_class, seed=self.seed))
        cfg = backbone.desk_config(24, dropout=0.1, moe_layers=self.moe_layers,
                                   experts=self.experts, top_k=1)
        model = backbone.Model(cfg, Rng(self.seed))
        params = router_init.RouterInitParams(samples_per_class=self.samples_per_class,
                                              seed=self.seed)
        for layer in self.moe_layers:
            build = router_init.build_router(model, self.dataset, layer, self.experts, params)
            expert_init.moefy_layer(model, layer, build.router)
        self.model = model
        self.snapshot = {k: p.data.copy() for k, p in model.named_parameters().items()}

    def prepare(self):
        for name, p in self.model.named_parameters().items():
            p.data = self.snapshot[name].copy()
            p.grad = None


class Desk64Finetune(_Desk64):
    name = "desk64-finetune"
    images_per_class = 5  # 4 train + 1 val per class: 96 train, three batches of 32
    replay_batch = 32

    def run_pass(self, stage):
        from patchmoe import training
        with stage("stage.train"):
            self.result = training.train(
                self.model, self.dataset, training.OptimConfig(epochs=1, batch_size=32),
                training.AugmentConfig(), seed=self.seed)

    def check_pass(self, ops):
        ops.check(all(math.isfinite(r["loss"]) for r in self.result.rows),
                  "training losses are finite")

    def stage_metrics(self, times):
        return {"stage.finetune_img_per_s":
                len(self.dataset.split("train")) / times["stage.train"]}

    def replay_inputs(self):
        self.prepare()
        images, labels = _batch(self.dataset.split("train"), self.replay_batch)
        return self.model, images, labels


class Desk64Infer(_Desk64):
    name = "desk64-infer"
    images_per_class = 30  # 6 val per class: 144 val images, enough for one batch of 128
    replay_batch = 32
    affinity_batches = 1
    affinity_batch_size = 128  # the CLI default

    def prepare(self):
        pass  # forward only: no pass changes the model

    def run_pass(self, stage):
        from patchmoe import affinity, training
        from patchmoe.tensor import Rng
        val = self.dataset.split("val")
        with stage("stage.evaluate"):
            training.evaluate(self.model, val, batch_size=32)
        with stage("stage.affinity_post"):
            affinity.affinity_post(self.model, val, self.moe_layers[0],
                                   n_batches=self.affinity_batches,
                                   batch_size=self.affinity_batch_size, rng=Rng(self.seed))

    def stage_metrics(self, times):
        return {
            "stage.infer_img_per_s": len(self.dataset.split("val")) / times["stage.evaluate"],
            "stage.affinity_img_per_s": self.affinity_batches * self.affinity_batch_size
            / times["stage.affinity_post"],
        }

    def replay_inputs(self):
        images, labels = _batch(self.dataset.split("val"), self.replay_batch)
        return self.model, images, labels


# ---------------------------------------------------------------------------
# wide-moefy
# ---------------------------------------------------------------------------


class WideMoefy(Workload):
    """Conversion only, on the accept32 geometry with 216 classes and E=16."""

    name = "wide-moefy"
    replay_batch = 1  # the pass forwards single images
    min_passes = 6  # its Python-bound passes are the noisiest; measure longer
    num_classes = 216
    experts = 16
    pass_builds = 1
    samples_per_class = 3

    def setup(self):
        from patchmoe import backbone, data
        from patchmoe.tensor import Rng
        self.dataset = data.generate(data.SynthSpec(
            num_classes=self.num_classes, num_families=6, image_size=32,
            images_per_class=5, fg_patch_cells=3, intra_family_similarity=0.55,
            noise=0.02, seed=self.seed))
        cfg = backbone.ModelConfig(num_classes=self.num_classes, image_size=32,
                                   patch_size=8, d_model=24, d_ff=48, layers=2,
                                   dropout=0.0, moe_layers=(0,), experts=self.experts)
        self.model = backbone.Model(cfg, Rng(self.seed))
        self.dense_mlp = self.model.layers[0].mlp

    def prepare(self):
        self.model.layers[0].mlp = self.dense_mlp
        self.model.stage = "dense"

    def run_pass(self, stage):
        from patchmoe import expert_init, router_init
        params = router_init.RouterInitParams(samples_per_class=self.samples_per_class,
                                              seed=self.seed)
        with stage("stage.build_router"):
            self.build = router_init.build_router(self.model, self.dataset, 0,
                                                  self.experts, params)
        with stage("stage.moefy_layer"):
            expert_init.moefy_layer(self.model, 0, self.build.router)

    def check_pass(self, ops):
        centroids = self.build.router.centroids.data
        ops.check(centroids.shape[0] == self.experts and np.all(np.isfinite(centroids)),
                  "router centroids are finite, one per expert")

    def stage_metrics(self, times):
        return {"stage.moefy_s": times["stage.build_router"] + times["stage.moefy_layer"]}

    def replay_inputs(self):
        self.prepare()
        images, labels = _batch(self.dataset.split("train"), self.replay_batch)
        return self.model, images, labels


WORKLOADS = {w.name: w for w in (Accept32Pipeline, Desk64Finetune, Desk64Infer, WideMoefy)}
