"""End-to-end acceptance suite.

Each test covers one numbered criterion and prints a single pass/fail line;
run with `pytest -v` to see one line per criterion.
"""

import json
from contextlib import contextmanager
from math import comb
from pathlib import Path

import numpy as np
import pytest

from patchmoe import affinity, backbone, cli, data, expert_init, moe
from patchmoe import router_init, training
from patchmoe import tensor as T
from patchmoe.tensor import Rng, Tensor

from util_fd import gradcheck
from util_model import check_model_gradients, stacked_block, toy_config
from util_oracles import representative_patches_oracle, ward_merges_oracle
from test_tensor import OPS
from test_expert_init import make_router


@contextmanager
def criterion(number, description):
    try:
        yield
    except BaseException:
        print(f"[FAIL] criterion {number}: {description}")
        raise
    print(f"[PASS] criterion {number}: {description}")


def adjusted_rand_index(a, b) -> float:
    a = np.asarray(a)
    b = np.asarray(b)
    n = len(a)
    cont = np.array([[int(np.logical_and(a == x, b == y).sum())
                      for y in np.unique(b)] for x in np.unique(a)])
    sum_ij = sum(comb(v, 2) for v in cont.flat)
    sum_a = sum(comb(v, 2) for v in cont.sum(axis=1))
    sum_b = sum(comb(v, 2) for v in cont.sum(axis=0))
    expected = sum_a * sum_b / comb(n, 2)
    max_index = (sum_a + sum_b) / 2
    if max_index == expected:
        return 1.0
    return (sum_ij - expected) / (max_index - expected)


# ---------------------------------------------------------------------------
# Shared scaled-experiment setup (criteria 7, 8)
# ---------------------------------------------------------------------------

SYNTH_SPEC = data.SynthSpec(num_classes=12, num_families=4, image_size=32,
                            images_per_class=15, fg_patch_cells=3,
                            intra_family_similarity=0.55, noise=0.02, seed=0)
EXPERIMENT_SEEDS = range(5)


def experiment_config():
    return backbone.ModelConfig(num_classes=12, image_size=32, patch_size=8,
                                d_model=24, d_ff=48, layers=2,
                                dropout=0.0, moe_layers=(0,), experts=4)


def pretrain_dense(dataset, seed):
    model = backbone.Model(experiment_config(), Rng(seed))
    optim = training.OptimConfig(epochs=20, batch_size=16,
                                 lr_rest=3e-3, lr_classifier=3e-3)
    augment = training.AugmentConfig(hflip_p=0.5, mixup_alpha=0.0)
    result = training.train(model, dataset, optim, augment, seed=seed)
    return model, result.final_val.top1


@pytest.fixture(scope="module")
def synth_dataset():
    return data.generate(SYNTH_SPEC)


def test_criterion_01_gradient_integrity():
    """Analytic vs finite-difference gradients, ops and full model, 20 seeds."""
    with criterion(1, "gradient integrity at rel 1e-4 over 20 seeds"):
        for name, (op, shapes) in sorted(OPS.items()):
            for seed in range(20):
                gradcheck(op, shapes, np.random.default_rng(seed))
        for seed in range(20):
            check_model_gradients(seed)


def test_criterion_02_dense_equivalence():
    """E=1, reduction 1, gamma 0 must match the dense model within 1e-6."""
    with criterion(2, "dense equivalence within 1e-6 on 100 inputs"):
        cfg = toy_config(moe_layers=(1,), experts=1, reduction_factor=1)
        model = backbone.Model(cfg, Rng(0))
        rng = np.random.default_rng(0)
        images = rng.integers(0, 256, (100, cfg.image_size, cfg.image_size, 3),
                              dtype=np.uint8)
        dense = model.forward(images).logits.data.copy()
        router = make_router(cfg.d_model, 1)
        expert_init.moefy_layer(model, 1, router, gamma=0.0)
        sliced = model.forward(images).logits.data
        assert np.max(np.abs(sliced - dense)) < 1e-6


def test_criterion_03_algorithm1_oracle():
    """Representative-patch selection vs an independent transcription."""
    with criterion(3, "Algorithm 1 exact oracle match on 200 instances"):
        rng = np.random.default_rng(0)
        for trial in range(200):
            n = int(rng.integers(2, 33))
            k = int(rng.integers(1, min(n, 8) + 1))
            t = int(rng.integers(0, 6))
            d = int(rng.integers(2, 9))
            if trial % 3 == 0:
                # quantized values and duplicated rows force score ties
                x = rng.integers(0, 3, (n, d)).astype(np.float64)
                x[rng.integers(0, n)] = x[rng.integers(0, n)]
            elif trial % 3 == 1:
                x = rng.normal(size=(n, 4, d))
            else:
                x = rng.normal(size=(n, d))
            got = router_init.select_representative_patches(
                x.max(axis=1) if x.ndim == 3 else x, k, t)
            want_idx, want_rows = representative_patches_oracle(x, k, t)
            assert np.array_equal(got.indices, want_idx)
            assert np.array_equal(got.rows, want_rows)


def test_criterion_04_ward_oracle():
    """Lance-Williams merge sequence vs brute-force Ward, n <= 8, 100 seeds."""
    with criterion(4, "Ward merge sequence matches brute force on 100 seeds"):
        for seed in range(100):
            rng = np.random.default_rng(seed)
            n = int(rng.integers(2, 9))
            points = rng.normal(size=(n, int(rng.integers(1, 5))))
            if seed % 4 == 0:
                points = np.round(points)  # duplicates exercise the tie-break
            tree = router_init.ward_cluster(points)
            oracle = ward_merges_oracle(points)
            assert len(tree.merges) == len(oracle)
            for (a, b, dist, nid), (oa, ob, odist, onid) in zip(tree.merges, oracle):
                assert (a, b, nid) == (oa, ob, onid)
                assert dist == pytest.approx(odist, rel=1e-9, abs=1e-12)


def _random_routed_setup(rng):
    b = int(rng.integers(1, 3))
    p = int(rng.integers(1, 6))
    n_px = int(rng.integers(1, 5))
    d = int(rng.integers(2, 9))
    e = int(rng.integers(1, 7))
    k = int(rng.integers(1, e + 1))
    x = rng.normal(size=(b, p, n_px, d))
    pooled = x.mean(axis=2).reshape(-1, d)
    scaler = T.minmax_fit(pooled)
    centroids = rng.uniform(0.05, 0.95, size=(e, d))
    router = moe.Router(centroids=T.parameter(centroids), scaler=scaler, top_k=k)
    return x, router


def test_criterion_05_routing_invariants():
    """Pixel coherence, gate normalization, rescale invariance, permutation
    equivariance, each over 50 random configurations."""
    with criterion(5, "routing invariants over 50 random configs each"):
        for seed in range(50):
            rng = np.random.default_rng(seed)
            x, router = _random_routed_setup(rng)
            b, p, n_px, d = x.shape
            e, k = router.num_experts, router.top_k

            logits = moe.routing_logits(Tensor(x), router)
            indices, gates, probs = moe.select_experts(logits, router.top_k)

            # gate normalization
            assert np.allclose(gates.data.sum(axis=-1), 1.0, atol=1e-6)

            # pixel coherence: constant-output experts make every pixel of a
            # patch identical
            block = stacked_block(router, [make_expert_constant(d, value=float(i + 1))
                                           for i in range(e)])
            out, record = moe.moe_forward(Tensor(x), Tensor(x), block)
            per_pixel = out.data
            assert np.allclose(per_pixel, per_pixel[:, :, :1, :], atol=1e-9)
            assert record.indices.shape == (b, p, k)

            # argmax invariance under per-channel positive rescaling with a
            # refitted scaler
            scale = rng.uniform(0.5, 3.0, size=d)
            x2 = x * scale
            scaler2 = T.minmax_fit(x2.mean(axis=2).reshape(-1, d))
            router2 = moe.Router(centroids=router.centroids, scaler=scaler2,
                                 top_k=k)
            logits2 = moe.routing_logits(Tensor(x2), router2)
            assert np.array_equal(np.argmax(logits.data, axis=-1),
                                  np.argmax(logits2.data, axis=-1))

            # expert-permutation equivariance
            perm = rng.permutation(e)
            router3 = moe.Router(centroids=T.parameter(router.centroids.data[perm]),
                                 scaler=router.scaler, top_k=k)
            logits3 = moe.routing_logits(Tensor(x), router3)
            assert np.allclose(logits3.data, logits.data[..., perm], atol=1e-12)


def make_expert_constant(d, value):
    """Arrays of an expert whose output is `value` everywhere (gamma 1,
    constant x_corr)."""
    return dict(w1=np.zeros((d, 1)), b1=np.zeros(1), w2=np.zeros((1, d)), b2=np.zeros(d),
                gamma=1.0, x_corr=np.full(d, value))


def test_criterion_06_affinity_arithmetic():
    """figure_d_variant thresholding arithmetic at E=16 vs E=64."""
    with criterion(6, "figure-d thresholding: E=16 survives, E=64 zeroes"):
        for e in (16, 64):
            centroids = np.eye(e) + 1.0  # equal cosine similarity to ones-point
            point = np.ones((1, e))
            matrix = affinity.figure_d_variant(centroids, [point])
            if e == 16:
                assert np.allclose(matrix.values[0], 1.0 / 16.0)
                assert not np.any(matrix.values[0] == 0.0)
            else:
                assert np.all(matrix.values[0] == 0.0)


def test_criterion_07_semantic_split(synth_dataset):
    """Dense pretrain >= 95% val, then E=4 router build groups families with
    adjusted Rand >= 0.8, both as medians over 5 seeds."""
    with criterion(7, "semantic split: median val >= 0.95, median ARI >= 0.8"):
        families = np.array(synth_dataset.families)
        accs, aris = [], []
        for seed in EXPERIMENT_SEEDS:
            model, val_acc = pretrain_dense(synth_dataset, seed)
            params = router_init.RouterInitParams(top_k_patches=32,
                                                  samples_per_class=8, seed=seed)
            build = router_init.build_router(model, synth_dataset, 0, 4, params)
            accs.append(val_acc)
            aris.append(adjusted_rand_index(build.class_assignments, families))
        assert np.median(accs) >= 0.95, f"val accuracies {accs}"
        assert np.median(aris) >= 0.8, f"adjusted Rand {aris}"


def test_criterion_08_initialization_beats_random(synth_dataset, tmp_path):
    """Cluster-initialized router finetunes to val accuracy >= the random
    baseline at equal steps, with starvation no worse, medians over 5 seeds."""
    with criterion(8, "cluster init >= random init in accuracy and starvation"):
        model, _ = pretrain_dense(synth_dataset, seed=0)
        dense_ckpt = tmp_path / "dense.json"
        backbone.save_checkpoint(model, dense_ckpt)
        augment = training.AugmentConfig(hflip_p=0.5, mixup_alpha=0.0)

        def finetune_run(mode, seed):
            m = backbone.load_checkpoint(dense_ckpt)
            params = router_init.RouterInitParams(
                top_k_patches=32, samples_per_class=8, mode=mode, seed=seed)
            build = router_init.build_router(m, synth_dataset, 0, 4, params)
            expert_init.moefy_layer(m, 0, build.router)
            optim = training.OptimConfig(epochs=5, batch_size=16)
            result = training.train(m, synth_dataset, optim, augment, seed=seed)
            matrix = affinity.affinity_post(m, synth_dataset.split("val"), 0,
                                            n_batches=4, batch_size=16,
                                            rng=Rng(seed))
            starved = len(affinity.collapse_metrics(matrix).starved_experts)
            return result.final_val.top1, starved

        results = {mode: [finetune_run(mode, s) for s in EXPERIMENT_SEEDS]
                   for mode in ("cluster", "random")}
        med = {mode: (np.median([r[0] for r in runs]),
                      np.median([r[1] for r in runs]))
               for mode, runs in results.items()}
        assert med["cluster"][0] >= med["random"][0], f"accuracy medians {med}"
        assert med["cluster"][1] <= med["random"][1], f"starvation medians {med}"


def test_criterion_09_parameter_accounting(tmp_path):
    """Closed-form per-expert count equals a count from walking the
    checkpoint's blob records under the manifest's names (reduction 2): the
    first row of each stacked expert array."""
    with criterion(9, "per-expert parameter count matches the closed form"):
        cfg = toy_config(moe_layers=(1,), experts=3, reduction_factor=2)
        model = backbone.Model(cfg, Rng(0))
        expert_init.moefy_layer(model, 1, make_router(cfg.d_model, 3))
        ckpt = tmp_path / "m.json"
        backbone.save_checkpoint(model, ckpt)
        closed = expert_init.per_expert_param_count(cfg.d_model, cfg.d_ff, 2)
        manifest = json.loads(ckpt.read_text())
        with open(ckpt.with_suffix(".bin"), "rb") as f:
            records = [(name, T.read_blob(f)) for name in manifest["params"]]
        experts = [arr for name, arr in records if name.startswith("layer1.moe.")
                   and name != "layer1.moe.router.centroids"]
        assert len(experts) == 6 and all(len(arr) == 3 for arr in experts)
        assert sum(arr[0].size for arr in experts) == closed
        assert backbone.load_checkpoint(ckpt).parameter_counts()["per_expert"]["1"] \
            == closed


def test_criterion_10_determinism(tmp_path):
    """Full CLI pipeline twice with one seed: byte-identical metrics and
    affinity CSVs."""
    with criterion(10, "full pipeline is byte-identical across reruns"):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(
            {"num_classes": 4, "num_families": 2, "image_size": 32,
             "images_per_class": 5, "fg_patch_cells": 2, "seed": 3}))
        config_path = tmp_path / "run.ini"
        config_path.write_text(
            "[model]\nimage_size = 32\npatch_size = 8\nd_model = 16\n"
            "d_ff = 32\nlayers = 2\ndropout = 0.1\n"
            "[moe]\nmoe_layers = 1\nexperts = 2\n"
            "[router_init]\ntop_k_patches = 16\nsamples_per_class = 2\n"
            "[optim]\nepochs = 2\nbatch_size = 8\n"
            "[seed]\nseed = 3\n")

        def pipeline(run_dir: Path) -> dict[str, bytes]:
            run_dir.mkdir()
            d = run_dir / "data"
            dense = run_dir / "dense.json"
            moe_ckpt = run_dir / "moe.json"
            tuned = run_dir / "tuned.json"
            eval_csv = run_dir / "eval.csv"
            aff_csv = run_dir / "aff.csv"
            for argv in (
                ["gen-data", "--spec", str(spec_path), "--out", str(d)],
                ["pretrain", "--config", str(config_path), "--data", str(d),
                 "--out", str(dense)],
                ["moefy", "--config", str(config_path), "--ckpt", str(dense),
                 "--data", str(d), "--out", str(moe_ckpt)],
                ["finetune", "--config", str(config_path), "--ckpt", str(moe_ckpt),
                 "--data", str(d), "--out", str(tuned)],
                ["eval", "--ckpt", str(tuned), "--data", str(d),
                 "--out", str(eval_csv)],
                ["affinity", "--ckpt", str(tuned), "--data", str(d),
                 "--layer", "1", "--mode", "post", "--out", str(aff_csv)],
            ):
                assert cli.main(argv) == 0, argv
            return {
                "pretrain_metrics": dense.with_suffix(".metrics.csv").read_bytes(),
                "finetune_metrics": tuned.with_suffix(".metrics.csv").read_bytes(),
                "eval": eval_csv.read_bytes(),
                "affinity": aff_csv.read_bytes(),
            }

        first = pipeline(tmp_path / "run1")
        second = pipeline(tmp_path / "run2")
        for name in first:
            assert first[name] == second[name], f"{name} differs between runs"
