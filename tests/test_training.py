"""Optimizer, augmentation, and the training/eval loop."""

import csv
import dataclasses
import tracemalloc

import numpy as np
import pytest

from patchmoe import backbone, data, expert_init, moe, router_init, training
from patchmoe import tensor as T
from patchmoe.data import Dataset, LabeledImage
from patchmoe.tensor import Rng

from util_model import toy_config
from util_oracles import (PerLeafAdamWOracle, evaluate_oracle, moe_forward_per_expert_oracle,
                          per_expert_model_oracle, train_step_oracle)
from test_expert_init import make_router


def named(**arrays):
    return {k: T.parameter(np.asarray(v, dtype=np.float64)) for k, v in arrays.items()}


def optim(**overrides):
    base = dict(epochs=1, batch_size=4)
    base.update(overrides)
    return training.OptimConfig(**base)


class TestAdamW:
    def test_missing_grad_skipped(self):
        params = named(**{"layer0.mlp.w1": np.ones(2)})
        opt = training.AdamW(params, optim())
        opt.step()
        assert np.array_equal(params["layer0.mlp.w1"].data, np.ones(2))

    def test_first_step_approx_lr_times_sign(self):
        # bias-corrected first step: m_hat = g, v_hat = g^2, so the update is
        # lr * g / (|g| + EPS), within EPS of lr * sign(g)
        params = named(**{"layer0.mlp.w1": np.array([1.0, -2.0])})
        cfg = optim(lr_rest=0.01)
        opt = training.AdamW(params, cfg)
        params["layer0.mlp.w1"].grad = np.array([5.0, -3.0])
        opt.step()
        expected = np.array([1.0, -2.0]) - 0.01 * np.array([1.0, -1.0])
        assert np.allclose(params["layer0.mlp.w1"].data, expected, atol=1e-7)

    def test_decoupled_decay_only(self, monkeypatch):
        # only the classifier group decays; zero gradient isolates the decay,
        # and a decay of 0.5 shows where WD_CLASSIFIER's 1e-8 would not
        monkeypatch.setattr(training, "WD_CLASSIFIER", 0.5)
        start = {"head.w": [2.0, -4.0], "embed.w": [3.0, -1.0],
                 "layer1.moe.expert0.w1": [-2.0, 5.0]}
        params = named(**start)
        opt = training.AdamW(params, optim(lr_classifier=0.1, lr_rest=0.1, lr_moe=0.1))
        for p in params.values():
            p.grad = np.zeros(2)
        opt.step()
        expected = np.array([2.0, -4.0]) * (1 - 0.1 * 0.5)
        assert np.allclose(params["head.w"].data, expected)
        for name in ("embed.w", "layer1.moe.expert0.w1"):
            assert np.array_equal(params[name].data, start[name]), name

    def test_gamma_clamped_to_unit_interval(self):
        params = named(**{"layer1.moe.expert0.gamma": np.asarray(0.99)})
        cfg = optim(lr_moe=1.0)
        opt = training.AdamW(params, cfg)
        params["layer1.moe.expert0.gamma"].grad = np.asarray(-5.0)
        opt.step()
        assert float(params["layer1.moe.expert0.gamma"].data) == 1.0
        params["layer1.moe.expert0.gamma"].grad = np.asarray(50.0)
        for _ in range(5):
            opt.step()
        assert float(params["layer1.moe.expert0.gamma"].data) >= 0.0

    def test_shape_mismatch_rejected(self):
        params = named(**{"layer0.mlp.w1": np.ones(3)})
        opt = training.AdamW(params, optim())
        params["layer0.mlp.w1"].grad = np.ones(4)
        with pytest.raises(ValueError):
            opt.step()

    def test_group_assignment(self):
        assert training.parameter_group("layer1.moe.expert0.w1") == "moe"
        assert training.parameter_group("layer1.moe.router.centroids") == "moe"
        assert training.parameter_group("head.w") == "classifier"
        assert training.parameter_group("head.b") == "classifier"
        assert training.parameter_group("embed.w") == "rest"
        assert training.parameter_group("layer0.mlp.w1") == "rest"

    def test_negative_lr_rejected(self):
        with pytest.raises(ValueError):
            training.OptimConfig(lr_moe=-0.1)

    def test_zero_grad_clears(self):
        params = named(**{"embed.w": np.ones(2)})
        opt = training.AdamW(params, optim())
        params["embed.w"].grad = np.ones(2)
        opt.zero_grad()
        assert params["embed.w"].grad is None


class TestAugmentation:
    def test_hflip_p_zero_identity(self):
        img = np.random.default_rng(0).integers(0, 256, (4, 4, 3), dtype=np.uint8)
        out = training.hflip(img, 0.0, Rng(0))
        assert np.array_equal(out, img)

    def test_hflip_forced_is_involution(self):
        img = np.random.default_rng(1).integers(0, 256, (4, 4, 3), dtype=np.uint8)
        once = training.hflip(img, 1.0, Rng(0))
        twice = training.hflip(once, 1.0, Rng(0))
        assert not np.array_equal(once, img)
        assert np.array_equal(twice, img)

    def test_hflip_hand_case(self):
        img = np.zeros((2, 2, 3), dtype=np.uint8)
        img[:, 1, :] = 255  # left black, right white
        out = training.hflip(img, 1.0, Rng(0))
        assert np.all(out[:, 0, :] == 255)
        assert np.all(out[:, 1, :] == 0)

    def test_mixup_alpha_zero_identity(self):
        x = np.random.default_rng(0).normal(size=(4, 2, 2, 3))
        y = training.one_hot(np.array([0, 1, 0, 1]), 2)
        mx, my, lam = training.mixup(x, y, 0.0, Rng(0))
        assert lam == 1.0
        assert np.array_equal(mx, x)
        assert np.array_equal(my, y)

    def test_mixup_identical_samples_unchanged(self):
        x = np.ones((3, 2, 2, 3)) * 7.0
        y = training.one_hot(np.array([1, 1, 1]), 2)
        mx, my, _ = training.mixup(x, y, 0.2, Rng(3))
        assert np.allclose(mx, x)
        assert np.allclose(my, y)

    @pytest.mark.parametrize("seed", range(8))
    def test_mixup_labels_stay_on_simplex(self, seed):
        rng = np.random.default_rng(seed)
        x = rng.normal(size=(8, 2, 2, 3))
        y = training.one_hot(rng.integers(0, 5, 8), 5)
        _, my, lam = training.mixup(x, y, 0.2, Rng(seed))
        assert 0.0 <= lam <= 1.0
        assert np.allclose(my.sum(axis=1), 1.0)
        assert np.all(my >= 0)

    def test_one_hot(self):
        out = training.one_hot(np.array([2, 0]), 3)
        assert np.array_equal(out, [[0, 0, 1], [1, 0, 0]])


def make_two_class_dataset(n_per_class=16, image_size=8, noise=8, seed=0):
    """Class 0 dark, class 1 bright: linearly separable from mean intensity."""
    rng = np.random.default_rng(seed)
    images = []
    for c, base in ((0, 40), (1, 215)):
        for i in range(n_per_class):
            px = np.clip(base + rng.integers(-noise, noise + 1,
                                             (image_size, image_size, 3)),
                         0, 255).astype(np.uint8)
            split = "train" if i < int(0.75 * n_per_class) else "val"
            images.append(LabeledImage(px, c, split))
    return Dataset(images, ["dark", "bright"], seed=seed)


class TestEvaluate:
    def test_constant_logits_majority_class(self):
        cfg = toy_config(num_classes=2)
        model = backbone.Model(cfg, Rng(0))
        model.head_w.data[:] = 0.0
        model.head_b.data[:] = 0.0
        ds = make_two_class_dataset()
        images = ds.split("val")
        # ties in the logits resolve to class 0
        result = training.evaluate(model, images)
        freq0 = np.mean([im.class_id == 0 for im in images])
        assert result.top1 == pytest.approx(freq0)
        assert result.per_class[0] == 1.0
        assert result.per_class[1] == 0.0

    def test_expert_counts_collected(self):
        cfg = toy_config(num_classes=2, moe_layers=(1,), experts=3)
        model = backbone.Model(cfg, Rng(0))
        expert_init.moefy_layer(model, 1, make_router(cfg.d_model, 3))
        ds = make_two_class_dataset()
        images = ds.split("val")
        result = training.evaluate(model, images, batch_size=3)
        assert result.expert_counts[1].sum() == len(images) * cfg.grid ** 2

    def test_empty_split_rejected(self):
        model = backbone.Model(toy_config(), Rng(0))
        with pytest.raises(ValueError):
            training.evaluate(model, [])

    @pytest.mark.parametrize("batch_size", [0, -1])
    def test_nonpositive_batch_size_rejected(self, batch_size):
        """-1 would run no batch and score the uninitialised predictions."""
        model = backbone.Model(toy_config(num_classes=2), Rng(0))
        with pytest.raises(ValueError, match="batch_size must be at least 1"):
            training.evaluate(model, make_two_class_dataset().split("val"), batch_size)


class TestTrain:
    def augment_off(self):
        return training.AugmentConfig(hflip_p=0.0, mixup_alpha=0.0)

    def test_zero_lr_bit_exact(self):
        cfg = toy_config(num_classes=2)
        model = backbone.Model(cfg, Rng(0))
        before = {k: v.data.copy() for k, v in model.named_parameters().items()}
        ds = make_two_class_dataset()
        training.train(model, ds,
                       optim(lr_moe=0.0, lr_classifier=0.0, lr_rest=0.0, epochs=2),
                       training.AugmentConfig(), seed=0)
        for k, v in model.named_parameters().items():
            assert np.array_equal(v.data, before[k]), k

    def test_same_seed_identical_metrics(self):
        ds = make_two_class_dataset()
        rows = []
        for _ in range(2):
            model = backbone.Model(toy_config(num_classes=2), Rng(7))
            result = training.train(model, ds, optim(epochs=2),
                                    training.AugmentConfig(), seed=5)
            rows.append(result.rows)
        assert rows[0] == rows[1]

    def test_separable_toy_reaches_high_accuracy(self):
        ds = make_two_class_dataset()
        model = backbone.Model(toy_config(num_classes=2), Rng(1))
        result = training.train(
            model, ds, optim(epochs=30, batch_size=8, lr_rest=3e-3,
                             lr_classifier=3e-3),
            self.augment_off(), seed=0)
        train_rows = [r for r in result.rows if r["split"] == "train"]
        assert train_rows[-1]["top1"] >= 0.99
        assert train_rows[-1]["loss"] < train_rows[0]["loss"]

    def test_divergence_raises(self):
        ds = make_two_class_dataset()
        model = backbone.Model(toy_config(num_classes=2), Rng(0))
        model.head_w.data[0, 0] = np.nan
        with pytest.raises(training.DivergenceError):
            training.train(model, ds, optim(), training.AugmentConfig(), seed=0)

    def test_metrics_csv_and_manifest(self, tmp_path):
        cfg = toy_config(num_classes=2, moe_layers=(1,), experts=2)
        model = backbone.Model(cfg, Rng(0))
        expert_init.moefy_layer(model, 1, make_router(cfg.d_model, 2))
        ds = make_two_class_dataset()
        metrics = tmp_path / "metrics.csv"
        result = training.train(model, ds, optim(epochs=2), training.AugmentConfig(),
                                seed=0)
        training.write_metrics_csv(result.rows, list(model.moe_blocks()), metrics)
        with open(metrics) as f:
            read = list(csv.reader(f))
        assert read[0] == ["epoch", "split", "loss", "top1", "expert_entropy_layer_1",
                           "max_load_ratio_layer_1", "starved_experts_layer_1"]
        assert len(read) == 1 + len(result.rows)
        assert [f.name for f in dataclasses.fields(result)] == ["rows", "final_val"]

    def test_train_rows_report_train_routing(self):
        model, dataset = routed_toy()
        forward, counts = model.forward, []

        def recording(images, train=False, rng=None):
            result = forward(images, train=train, rng=rng)
            if train:
                counts.append(result.routing[1].expert_counts)
            return result

        model.forward = recording
        result = training.train(model, dataset, optim(epochs=2),
                                training.AugmentConfig(), seed=0)
        steps = len(counts) // 2
        train_rows = [r for r in result.rows if r["split"] == "train"]
        for epoch, row in enumerate(train_rows):
            epoch_counts = sum(counts[epoch * steps:(epoch + 1) * steps])
            assert row["expert_entropy_layer_1"] == moe.load_entropy(epoch_counts)
            stats = moe.dispatch_stats(epoch_counts)
            assert row["max_load_ratio_layer_1"] == stats.max_load_ratio
            assert row["starved_experts_layer_1"] == stats.starved_experts

    def test_load_columns_on_known_routing(self, tmp_path):
        """Every pooled patch lies in the positive orthant after the router's
        scaler, so cosine routing sends every patch to expert 0, the one
        all-positive centroid: 3 experts, a max-load ratio of 3 and 2 starved
        experts in every train and val row."""
        cfg = toy_config(num_classes=2, moe_layers=(1,), experts=3)
        model = backbone.Model(cfg, Rng(0))
        d = cfg.d_model
        router = moe.Router(T.parameter(np.stack([np.ones(d), -np.ones(d), -np.ones(d)])),
                            T.ScalerParams(np.full(d, -10.0), np.full(d, 10.0)))
        expert_init.moefy_layer(model, 1, router)
        result = training.train(model, make_two_class_dataset(), optim(epochs=2),
                                training.AugmentConfig(), seed=0)
        assert [r["split"] for r in result.rows] == ["train", "val"] * 2
        for row in result.rows:
            assert row["max_load_ratio_layer_1"] == 3.0
            assert row["starved_experts_layer_1"] == 2
            assert row["expert_entropy_layer_1"] == 0.0
        metrics = tmp_path / "metrics.csv"
        training.write_metrics_csv(result.rows, [1], metrics)
        with open(metrics) as f:
            read = list(csv.DictReader(f))
        assert [(r["max_load_ratio_layer_1"], r["starved_experts_layer_1"]) for r in read] \
            == [("3.0", "2")] * 4

    def test_val_rows_interleaved(self):
        ds = make_two_class_dataset()
        model = backbone.Model(toy_config(num_classes=2), Rng(0))
        result = training.train(model, ds, optim(epochs=3),
                                training.AugmentConfig(), seed=0)
        assert [r["split"] for r in result.rows] == ["train", "val"] * 3
        assert result.final_val is not None

    def test_split_is_partition(self):
        ds = make_two_class_dataset()
        train_set = {id(im) for im in ds.split("train")}
        val_set = {id(im) for im in ds.split("val")}
        assert train_set.isdisjoint(val_set)
        assert len(train_set) + len(val_set) == len(ds.images)


def eval_toy(moe_layers=()):
    """A 3-class 8 px model, with 3-expert MoE at `moe_layers`, and 74 random
    images: batches of 32 and 64 end in a partial batch and slice."""
    cfg = toy_config(moe_layers=moe_layers, experts=3)
    model = backbone.Model(cfg, Rng(1))
    for i in moe_layers:
        expert_init.moefy_layer(model, i, make_router(cfg.d_model, 3, seed=i))
    rng = np.random.default_rng(5)
    images = [LabeledImage(rng.integers(0, 256, (8, 8, 3), dtype=np.uint8), i % 3, "val")
              for i in range(74)]
    return model, images


class TestSlicedEvaluate:
    """evaluate runs each batch backbone.CAPTURE_CHUNK images per forward;
    util_oracles.evaluate_oracle is the one-forward-per-batch pass it
    replaced."""

    def both(self, dtype, batch_size, moe_layers):
        T.set_default_dtype(dtype)
        try:
            model, images = eval_toy(moe_layers)
            return (training.evaluate(model, images, batch_size),
                    evaluate_oracle(model, images, batch_size))
        finally:
            T.set_default_dtype("float32")

    @staticmethod
    def assert_same_counts(got, want):
        assert got.predictions.tobytes() == want.predictions.tobytes()
        assert got.per_class == want.per_class
        assert got.top1 == want.top1
        assert got.expert_counts.keys() == want.expert_counts.keys()
        for layer, counts in want.expert_counts.items():
            assert got.expert_counts[layer].dtype == counts.dtype
            assert got.expert_counts[layer].tobytes() == counts.tobytes(), layer

    @pytest.mark.parametrize("moe_layers", [(), (0, 1)], ids=["dense", "moe"])
    @pytest.mark.parametrize("batch_size", [5, backbone.CAPTURE_CHUNK])
    @pytest.mark.parametrize("dtype", ["float32", "float64"])
    def test_one_slice_batches_byte_equal_to_oracle(self, dtype, batch_size, moe_layers):
        got, want = self.both(dtype, batch_size, moe_layers)
        assert got.loss.hex() == want.loss.hex()
        self.assert_same_counts(got, want)

    @pytest.mark.parametrize("batch_size", [32, 64])
    @pytest.mark.parametrize("dtype", ["float32", "float64"])
    def test_sliced_batches_byte_equal_to_oracle_on_dense_model(self, dtype, batch_size):
        """Without MoE an image's logits do not depend on the other images
        in its forward, so slicing changes no byte."""
        got, want = self.both(dtype, batch_size, ())
        assert got.loss.hex() == want.loss.hex()
        self.assert_same_counts(got, want)

    @pytest.mark.parametrize("batch_size", [32, 64])
    def test_sliced_batches_match_oracle_behind_moe_layers(self, batch_size):
        """An expert's matmul sees only its slice's rows and may round
        differently: the tolerance of affinity's chunked oracle test."""
        got, want = self.both("float32", batch_size, (0, 1))
        assert np.allclose(got.loss, want.loss, rtol=1e-5, atol=1e-7)
        self.assert_same_counts(got, want)

    def test_peak_memory_bounded_by_chunk(self):
        """On a 64 px desk-shaped model, a batch of 4 chunks peaks about as
        high as a batch of one chunk."""
        cfg = backbone.desk_config(2, moe_layers=(1,), experts=4)
        model = backbone.Model(cfg, Rng(0))
        expert_init.moefy_layer(model, 1, make_router(cfg.d_model, 4))
        chunk = backbone.CAPTURE_CHUNK
        rng = np.random.default_rng(0)
        images = [LabeledImage(rng.integers(0, 256, (64, 64, 3), dtype=np.uint8), i % 2, "val")
                  for i in range(4 * chunk)]

        def peak(batch_size):
            tracemalloc.start()
            try:
                training.evaluate(model, images, batch_size)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert peak(4 * chunk) <= 1.25 * peak(chunk)


def sliced_toy(dropout=0.1):
    """A 2-class 8 px model with dropout and a 3-expert MoE at layer 1."""
    cfg = toy_config(num_classes=2, dropout=dropout, moe_layers=(1,), experts=3)
    model = backbone.Model(cfg, Rng(0))
    expert_init.moefy_layer(model, 1, make_router(cfg.d_model, 3))
    return model


class TestSlicedStep:
    """train_step runs each batch backbone.CAPTURE_CHUNK images per forward
    and backward; util_oracles.train_step_oracle is the one-forward step it
    replaced. The toy dataset has 24 train images, so a batch of 5 runs
    steps of 5, 5, 5, 5 and 4 images."""

    def train(self, monkeypatch, step, batch_size, chunk=None, **overrides):
        monkeypatch.setattr(training, "train_step", step)
        if chunk is not None:
            monkeypatch.setattr(backbone, "CAPTURE_CHUNK", chunk)
        model = sliced_toy()
        result = training.train(model, make_two_class_dataset(),
                                optim(epochs=2, batch_size=batch_size, **overrides),
                                training.AugmentConfig(), seed=3)
        return model, result.rows

    def frozen(self, monkeypatch, step, chunk=None):
        """Rows of a zero-lr run at batch 5, and each step's gradients."""
        grads = []

        def recording(model, optimizer, *args):
            out = step(model, optimizer, *args)
            grads.append({k: p.grad.copy() for k, p in optimizer.params.items()
                          if p.grad is not None})
            return out

        _, rows = self.train(monkeypatch, recording, 5, chunk,
                             lr_moe=0.0, lr_classifier=0.0, lr_rest=0.0)
        return rows, grads

    @pytest.mark.parametrize("batch_size", [5, backbone.CAPTURE_CHUNK])
    @pytest.mark.parametrize("dtype", ["float32", "float64"])
    def test_one_slice_step_byte_equal_to_oracle(self, monkeypatch, dtype, batch_size):
        """Up to CAPTURE_CHUNK images a step is the one-forward step: the
        trained parameters and the metrics rows are byte-equal."""
        T.set_default_dtype(dtype)
        try:
            (model, rows), (want_model, want_rows) = (
                self.train(monkeypatch, step, batch_size)
                for step in (training.train_step, train_step_oracle))
        finally:
            T.set_default_dtype("float32")
        assert rows == want_rows
        params = model.named_parameters()
        for name, p in want_model.named_parameters().items():
            assert params[name].data.tobytes() == p.data.tobytes(), name

    def test_slice_gradients_add_up_to_the_batch_gradient(self, monkeypatch):
        """Slices of 2, 2 and 1 images give the one-forward step's gradient,
        up to summation order. The absolute tolerance scales with the step's
        largest gradient entry: the key bias's true gradient is 0, so its
        entries are rounding noise of either order."""
        _, grads = self.frozen(monkeypatch, training.train_step, chunk=2)
        _, want = self.frozen(monkeypatch, train_step_oracle)
        assert len(grads) == len(want) == 10
        for got, ref in zip(grads, want):
            assert got.keys() == ref.keys()
            atol = 1e-5 * max(np.abs(g).max() for g in ref.values())
            for name, g in ref.items():
                np.testing.assert_allclose(got[name], g, rtol=1e-5, atol=atol, err_msg=name)

    def test_slices_count_the_same_hits_and_experts(self, monkeypatch):
        rows, _ = self.frozen(monkeypatch, training.train_step, chunk=2)
        want, _ = self.frozen(monkeypatch, train_step_oracle)
        for row, ref in zip(rows, want, strict=True):
            assert row.keys() == ref.keys()
            assert row["loss"] == pytest.approx(ref["loss"], rel=1e-6)
            assert {k: v for k, v in row.items() if k != "loss"} \
                == {k: v for k, v in ref.items() if k != "loss"}

    def test_slices_draw_the_batch_dropout_masks(self, monkeypatch):
        """The slices draw dropout from the step's stream in batch order, so
        their masks concatenate to the one-forward step's."""
        def recording(masks):
            def dropout(a, p, rng):
                keep = rng.gen.random(a.shape) >= p
                masks.append(keep)
                return T.mul(a, T.Tensor(keep.astype(a.data.dtype) / (1.0 - p)))
            return dropout

        sliced, whole = [], []
        monkeypatch.setattr(T, "dropout", recording(sliced))
        self.frozen(monkeypatch, training.train_step, chunk=2)
        monkeypatch.setattr(T, "dropout", recording(whole))
        self.frozen(monkeypatch, train_step_oracle)
        assert [len(m) for m in sliced] == [2, 2, 1] * 4 + [2, 2] + [2, 2, 1] * 4 + [2, 2]
        assert [len(m) for m in whole] == [5, 5, 5, 5, 4] * 2
        assert np.array_equal(np.concatenate(sliced), np.concatenate(whole))

    def test_divergence_on_a_later_slice_changes_no_parameter(self, monkeypatch):
        """A non-finite loss on the second slice raises before the step, so
        the first slice's gradient never reaches the parameters."""
        monkeypatch.setattr(backbone, "CAPTURE_CHUNK", 2)
        loss_fn, calls = training.soft_cross_entropy, []

        def diverging(logits, soft_labels, *args):
            calls.append(len(logits.data))
            loss = loss_fn(logits, soft_labels, *args)
            return T.mul(loss, T.Tensor(np.nan)) if len(calls) == 2 else loss

        monkeypatch.setattr(training, "soft_cross_entropy", diverging)
        model = sliced_toy()
        before = {k: v.data.tobytes() for k, v in model.named_parameters().items()}
        with pytest.raises(training.DivergenceError, match="at epoch 0, step 0$"):
            training.train(model, make_two_class_dataset(), optim(batch_size=4),
                           training.AugmentConfig(), seed=0)
        assert calls == [2, 2]
        for k, v in model.named_parameters().items():
            assert v.data.tobytes() == before[k], k


class TestStackedExpertsOracle:
    """Stacked expert arrays train byte for byte as per-expert leaves under
    per-leaf AdamW (util_oracles.per_expert_model_oracle), where an expert
    that got no rows in a step has no gradient and keeps its weights and
    moments."""

    @staticmethod
    def assert_byte_equal(model, optimizer, ref, ref_optimizer):
        ref_params = ref.named_parameters()
        for name, t in model.named_parameters().items():
            prefix, _, kind = name.rpartition(".")
            stacked = prefix.endswith(".moe") and kind in moe.EXPERT_WEIGHTS
            names = [f"{prefix}.expert{e}.{kind}" for e in range(len(t.data))] if stacked \
                else [name]
            for got, want in ((t.data, [ref_params[n].data for n in names]),
                              (optimizer.m[name], [ref_optimizer.m[n] for n in names]),
                              (optimizer.v[name], [ref_optimizer.v[n] for n in names])):
                want = np.stack(want) if stacked else want[0]
                assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), name

    @pytest.mark.parametrize("dtype", ["float32", "float64"])
    def test_steps_byte_equal_to_per_expert_oracle(self, monkeypatch, dtype):
        """A desk-shaped model (64 px, E = 4 at layers 1 and 3) takes three
        steps of 32 images, two slices each: noise, flat colours, noise.
        Layer 1's expert 1 and layer 3's expert 0 get no rows in the first
        step and rows in the second, and some expert never gets any."""
        T.set_default_dtype(dtype)
        try:
            cfg = backbone.desk_config(6, moe_layers=(1, 3), experts=4)
            model = backbone.Model(cfg, Rng(0))
            for i in cfg.moe_layers:
                expert_init.moefy_layer(model, i, make_router(cfg.d_model, 4, seed=i))
            ref = per_expert_model_oracle(model)
            optimizer = training.AdamW(model.named_parameters(), training.OptimConfig())
            ref_optimizer = PerLeafAdamWOracle(ref.named_parameters(), training.OptimConfig())
            rng = np.random.default_rng(0)
            noise = rng.integers(0, 256, (32, 64, 64, 3), dtype=np.uint8)
            flat = np.broadcast_to(rng.integers(0, 256, (32, 1, 1, 3), dtype=np.uint8),
                                   noise.shape).astype(np.uint8)
            labels = rng.integers(0, cfg.num_classes, 32)
            y = training.one_hot(labels, cfg.num_classes)
            active = []
            for step, x in enumerate((noise, flat, noise)):
                x = x.astype(T.default_dtype())
                _, _, counts = training.train_step(model, optimizer, x, y, labels,
                                                   Rng(step), "stacked")
                with monkeypatch.context() as m:
                    m.setattr(moe, "moe_forward", moe_forward_per_expert_oracle)
                    training.train_step(ref, ref_optimizer, x, y, labels, Rng(step), "oracle")
                active.append({i: c > 0 for i, c in counts.items()})
                self.assert_byte_equal(model, optimizer, ref, ref_optimizer)
        finally:
            T.set_default_dtype("float32")
        assert not active[0][1][1] and active[1][1][1]
        assert not active[0][3][0] and active[1][3][0]
        assert not all(np.any([a[i] for a in active], axis=0).all() for i in (1, 3))


def routed_toy(top_k=1, gate_mode="renorm"):
    """A 4-class 32 px dataset and a model with a cluster-initialised
    3-expert MoE at layer 1."""
    dataset = data.generate(data.SynthSpec(num_classes=4, num_families=2, image_size=32,
                                           images_per_class=5, fg_patch_cells=2, seed=3))
    cfg = backbone.ModelConfig(num_classes=4, image_size=32, patch_size=8,
                               d_model=16, d_ff=32, layers=2, dropout=0.0,
                               moe_layers=(1,), experts=3, top_k=top_k,
                               gate_mode=gate_mode)
    model = backbone.Model(cfg, Rng(0))
    params = router_init.RouterInitParams(top_k_patches=16, samples_per_class=2)
    expert_init.moefy_layer(model, 1, router_init.build_router(model, dataset, 1, 3,
                                                               params).router)
    return model, dataset


@pytest.mark.parametrize("top_k, gate_mode, trains", [
    (1, "renorm", False), (1, "raw", True), (2, "renorm", True)])
def test_router_gradient_by_routing(top_k, gate_mode, trains):
    """With one expert per patch a renormalised gate is p / p, exactly 1, so
    no gradient reaches the centroids beyond rounding noise; raw top-1 gates
    and top-2 gates do train the router."""
    model, dataset = routed_toy(top_k, gate_mode)
    images = dataset.split("train")
    logits = model.forward(np.stack([im.pixels for im in images])).logits
    labels = training.one_hot(np.array([im.class_id for im in images]), 4)
    training.soft_cross_entropy(logits, labels).backward()
    grad = np.abs(model.layers[1].mlp.router.centroids.grad).max()
    assert grad > 1e-4 if trains else grad <= 1e-6
