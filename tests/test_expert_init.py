"""Dense-to-expert conversion: importance permutation, slicing, correction
term, and dense equivalence."""

import numpy as np
import pytest

from patchmoe import backbone, expert_init, moe
from patchmoe import tensor as T
from patchmoe.tensor import Rng, Tensor

from util_model import toy_config


def identity_snapshot(d, d_ff, seed=0):
    rng = np.random.default_rng(seed)
    return expert_init.DenseMLPSnapshot(
        w1=rng.normal(size=(d, d_ff)), b1=rng.normal(size=d_ff),
        w2=rng.normal(size=(d_ff, d)), b2=rng.normal(size=d),
        ln_gain=np.ones(d), ln_bias=np.zeros(d))


def make_router(d, num_experts, seed=0, **kwargs):
    rng = np.random.default_rng(seed)
    scaler = T.minmax_fit(rng.normal(size=(32, d)))
    centroids = rng.uniform(0.1, 0.9, size=(num_experts, d))
    return moe.Router(centroids=T.parameter(centroids), scaler=scaler, **kwargs)


HAND_SNAPSHOT = expert_init.DenseMLPSnapshot(
    w1=np.array([[2.0, 1.0, 1.0, 0.0], [-1.0, 0.0, -1.0, -2.0]]),
    b1=np.zeros(4),
    w2=np.arange(8, dtype=np.float64).reshape(4, 2),
    b2=np.array([0.5, -0.5]),
    ln_gain=np.ones(2), ln_bias=np.zeros(2))
HAND_CENTROID = np.array([1.0, -1.0])  # zero mean, unit variance: LN is identity
# SiLU of the hand case's pre-activations [3, 1, 2, 2]
HAND_ACTS = np.array([2.85772238, 0.73105858, 1.76159416, 1.76159416])


class TestImportancePermutation:
    def test_hand_case_with_tie(self):
        # LN([1,-1]) = [1,-1]; pre-activations [3, 1, 2, 2]; SiLU keeps their
        # order and the tie at value 2, which goes to index 2
        acts = expert_init.hidden_activations(HAND_SNAPSHOT, HAND_CENTROID)
        assert np.allclose(acts, HAND_ACTS)
        assert acts[2] == acts[3]
        idx = expert_init.importance_permutation(HAND_SNAPSHOT, HAND_CENTROID, 2)
        assert idx.tolist() == [0, 2]

    def test_sorted_ascending_full_width(self):
        snap = identity_snapshot(6, 12)
        idx = expert_init.importance_permutation(snap, np.arange(6.0), 12)
        assert idx.tolist() == list(range(12))

    def test_indices_distinct_and_in_range(self):
        snap = identity_snapshot(8, 16, seed=3)
        for seed in range(10):
            c = np.random.default_rng(seed).normal(size=8)
            idx = expert_init.importance_permutation(snap, c, 8)
            assert len(set(idx.tolist())) == 8
            assert idx.min() >= 0 and idx.max() < 16
            assert np.all(np.diff(idx) > 0)

    def test_selects_largest_activations(self):
        snap = identity_snapshot(8, 16, seed=5)
        c = np.random.default_rng(1).normal(size=8)
        acts = expert_init.hidden_activations(snap, c)
        idx = expert_init.importance_permutation(snap, c, 4)
        dropped = np.setdiff1d(np.arange(16), idx)
        assert acts[idx].min() >= acts[dropped].max()

    def test_d_e_too_large(self):
        with pytest.raises(ValueError):
            expert_init.importance_permutation(HAND_SNAPSHOT, HAND_CENTROID, 5)


class TestBuildExpert:
    def test_hand_case_sliced_weights(self):
        ex = expert_init.build_expert(HAND_SNAPSHOT, np.array([0, 2]), HAND_CENTROID)
        assert np.allclose(ex.w1.data, [[2.0, 1.0], [-1.0, -1.0]])
        assert np.allclose(ex.b1.data, [0.0, 0.0])
        assert np.allclose(ex.w2.data, [[0.0, 1.0], [4.0, 5.0]])
        assert np.allclose(ex.b2.data, [0.5, -0.5])
        assert float(ex.gamma.data) == pytest.approx(0.9)

    def test_x_corr_is_full_mlp_output(self):
        # SiLU([3,1,2,2]) @ w2 + b2, with the unsliced hidden width
        ex = expert_init.build_expert(HAND_SNAPSHOT, np.array([0, 2]), HAND_CENTROID)
        expected = HAND_ACTS @ HAND_SNAPSHOT.w2 + HAND_SNAPSHOT.b2
        assert np.allclose(ex.x_corr.data, expected)

    def test_gamma_one_outputs_x_corr(self):
        ex = expert_init.build_expert(HAND_SNAPSHOT, np.array([0, 2]), HAND_CENTROID,
                                      gamma=1.0)
        x = Tensor(np.random.default_rng(0).normal(size=(5, 2)))
        out = moe.expert_forward(x, ex)
        assert np.allclose(out.data, np.broadcast_to(ex.x_corr.data, (5, 2)))

    def test_full_permutation_gamma_zero_matches_dense(self):
        snap = identity_snapshot(8, 16, seed=7)
        ex = expert_init.build_expert(snap, np.arange(16), np.zeros(8), gamma=0.0)
        rng = np.random.default_rng(2)
        x = rng.normal(size=(10, 8))
        # experts read the layer's MLP-input norm output, as the dense MLP does
        normed = T.layer_norm(Tensor(x), Tensor(snap.ln_gain), Tensor(snap.ln_bias))
        out = moe.expert_forward(normed, ex)
        h = T.silu(T.add(T.matmul(normed, Tensor(snap.w1)), Tensor(snap.b1)))
        dense = T.add(T.matmul(h, Tensor(snap.w2)), Tensor(snap.b2))
        assert np.allclose(out.data, dense.data, atol=1e-6)

    def test_copies_are_independent(self):
        snap = identity_snapshot(4, 8)
        ex = expert_init.build_expert(snap, np.arange(8), np.zeros(4))
        ex.w1.data += 1.0
        assert np.allclose(snap.w1, identity_snapshot(4, 8).w1)

    def test_out_of_range_indices(self):
        with pytest.raises(ValueError):
            expert_init.build_expert(HAND_SNAPSHOT, np.array([0, 4]), HAND_CENTROID)

    def test_block_diagonal_w1_gives_disjoint_experts(self):
        # each centroid lights up only its own block of hidden dims
        d, d_ff = 4, 8
        w1 = np.zeros((d, d_ff))
        w1[:2, :4] = 1.0
        w1[2:, 4:] = 1.0
        snap = expert_init.DenseMLPSnapshot(
            w1=w1, b1=np.zeros(d_ff), w2=np.zeros((d_ff, d)), b2=np.zeros(d),
            ln_gain=np.ones(d), ln_bias=np.zeros(d))
        c_a = np.array([3.0, 3.0, -1.0, -1.0])
        c_b = np.array([-1.0, -1.0, 3.0, 3.0])
        idx_a = expert_init.importance_permutation(snap, c_a, 4)
        idx_b = expert_init.importance_permutation(snap, c_b, 4)
        assert idx_a.tolist() == [0, 1, 2, 3]
        assert idx_b.tolist() == [4, 5, 6, 7]


class TestMoefyLayer:
    def make_model(self, **cfg_overrides):
        cfg = toy_config(moe_layers=(1,), experts=3, **cfg_overrides)
        return backbone.Model(cfg, Rng(0)), cfg

    def test_replaces_mlp_and_sets_stage(self):
        model, cfg = self.make_model()
        router = make_router(cfg.d_model, 3)
        block = expert_init.moefy_layer(model, 1, router)
        assert isinstance(model.layers[1].mlp, moe.MoEBlock)
        assert isinstance(model.layers[0].mlp, backbone.DenseMLP)
        assert model.moe_blocks() == {1: block}
        assert len(block.experts) == 3
        assert all(e.indices.size == cfg.d_ff // cfg.reduction_factor
                   for e in block.experts)

    def test_source_hash_recorded(self):
        model, cfg = self.make_model()
        expected = backbone.dense_mlp_hash(model.layers[1])
        block = expert_init.moefy_layer(model, 1, make_router(cfg.d_model, 3))
        assert block.source_hash == expected

    def test_double_conversion_rejected(self):
        model, cfg = self.make_model()
        expert_init.moefy_layer(model, 1, make_router(cfg.d_model, 3))
        with pytest.raises(ValueError):
            expert_init.moefy_layer(model, 1, make_router(cfg.d_model, 3))

    @pytest.mark.parametrize("setting", [{"top_k": 2}, {"temperature": 0.5},
                                         {"gate_mode": "raw"}],
                             ids=["top_k", "temperature", "gate_mode"])
    def test_router_settings_must_match_config(self, setting):
        """The config is the one source of the routing settings a checkpoint
        stores, so a router that disagrees with it is refused."""
        model, cfg = self.make_model()
        with pytest.raises(ValueError, match="config"):
            expert_init.moefy_layer(model, 1, make_router(cfg.d_model, 3, **setting))
        assert isinstance(model.layers[1].mlp, backbone.DenseMLP)

    @pytest.mark.parametrize("layer, experts", [(0, 3), (1, 2)],
                             ids=["layer-not-in-moe_layers", "experts"])
    def test_layout_must_match_config(self, layer, experts):
        """The config's moe_layers and experts are the one source of the MoE
        layout a checkpoint stores (config moe_layers (1,), experts 3)."""
        model, cfg = self.make_model()
        with pytest.raises(ValueError, match="moe_layers"):
            expert_init.moefy_layer(model, layer, make_router(cfg.d_model, experts))
        assert model.moe_blocks() == {}

    def test_indivisible_reduction_rejected(self):
        # d_ff = 16: the config, moefy_layer's one source of the factor, rejects 5
        with pytest.raises(ValueError, match="reduction_factor"):
            self.make_model(reduction_factor=5)

    def test_parameter_count_closed_form(self):
        model, cfg = self.make_model()
        expert_init.moefy_layer(model, 1, make_router(cfg.d_model, 3))
        expected = expert_init.per_expert_param_count(cfg.d_model, cfg.d_ff, 2)
        # d=8, d_ff=16, reduction 2: 64+8+64+8 sliced MLP, 8 x_corr, 1 gamma
        assert expected == 153
        assert model.parameter_counts()["per_expert"]["1"] == expected

    def test_moe_param_total(self):
        model, cfg = self.make_model()
        block = expert_init.moefy_layer(model, 1, make_router(cfg.d_model, 3))
        per = expert_init.per_expert_param_count(cfg.d_model, cfg.d_ff, 2)
        counts = model.parameter_counts()
        centroid_n = block.router.centroids.data.size
        assert counts["moe_layers"] == 3 * per + centroid_n

    def test_no_nans_after_conversion(self):
        model, cfg = self.make_model()
        expert_init.moefy_layer(model, 1, make_router(cfg.d_model, 3))
        for name, t in model.named_parameters().items():
            assert np.all(np.isfinite(t.data)), name

    def test_forward_runs_and_routes(self):
        model, cfg = self.make_model()
        expert_init.moefy_layer(model, 1, make_router(cfg.d_model, 3))
        images = np.random.default_rng(0).integers(
            0, 256, (2, cfg.image_size, cfg.image_size, 3), dtype=np.uint8)
        result = model.forward(images)
        assert result.logits.shape == (2, cfg.num_classes)
        assert 1 in result.routing
        assert result.routing[1].num_experts == 3


class TestDenseEquivalence:
    def test_single_expert_full_width_gamma_zero(self):
        """E=1, reduction 1, gamma 0 must reproduce the dense model."""
        cfg = toy_config(moe_layers=(1,), experts=1, top_k=1, reduction_factor=1)
        model = backbone.Model(cfg, Rng(4))
        rng = np.random.default_rng(11)
        images = rng.integers(0, 256, (20, cfg.image_size, cfg.image_size, 3),
                              dtype=np.uint8)
        dense_logits = model.forward(images).logits.data.copy()

        router = make_router(cfg.d_model, 1, seed=4)
        block = expert_init.moefy_layer(model, 1, router, gamma=0.0)
        assert block.experts[0].indices.tolist() == list(range(cfg.d_ff))
        moe_logits = model.forward(images).logits.data
        assert np.max(np.abs(moe_logits - dense_logits)) < 1e-6

    def test_checkpoint_round_trip_preserves_logits(self, tmp_path):
        cfg = toy_config(moe_layers=(1,), experts=3)
        model = backbone.Model(cfg, Rng(1))
        expert_init.moefy_layer(model, 1, make_router(cfg.d_model, 3, seed=1))
        images = np.random.default_rng(5).integers(
            0, 256, (3, cfg.image_size, cfg.image_size, 3), dtype=np.uint8)
        before = model.forward(images).logits.data.copy()
        backbone.save_checkpoint(model, tmp_path / "m.json")
        loaded = backbone.load_checkpoint(tmp_path / "m.json")
        assert list(loaded.moe_blocks()) == [1]
        after = loaded.forward(images).logits.data
        assert np.array_equal(before, after)
        assert (loaded.layers[1].mlp.source_hash
                == model.layers[1].mlp.source_hash)


class TestGradientsThroughConvertedLayer:
    def test_gamma_and_sliced_weights_receive_gradients(self):
        T.set_default_dtype("float64")
        try:
            # top_k=2 so both experts are on the gradient path
            cfg = toy_config(moe_layers=(1,), experts=2, top_k=2)
            model = backbone.Model(cfg, Rng(2))
            expert_init.moefy_layer(model, 1, make_router(cfg.d_model, 2, seed=2,
                                                          top_k=2))
            images = np.random.default_rng(3).integers(
                0, 256, (2, cfg.image_size, cfg.image_size, 3), dtype=np.uint8)
            from util_model import model_loss
            loss = model_loss(model, images, [0, 1])
            loss.backward()
            params = model.named_parameters()
            for e in range(2):
                for field in ("gamma", "w1", "x_corr"):
                    g = params[f"layer1.moe.expert{e}.{field}"].grad
                    assert g is not None
                    assert np.all(np.isfinite(g))
        finally:
            T.set_default_dtype("float32")
