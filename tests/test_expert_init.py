"""Dense-to-expert conversion: hidden-unit ranking, slicing, correction
term, and dense equivalence."""

import numpy as np
import pytest

from patchmoe import backbone, expert_init, moe
from patchmoe import tensor as T
from patchmoe.tensor import Rng, Tensor

from util_model import toy_config
from util_oracles import moefy_layer_oracle


def dense_mlp(w1, b1, w2, b2):
    return backbone.DenseMLP(*(Tensor(np.asarray(a, dtype=np.float64))
                               for a in (w1, b1, w2, b2)))


def random_mlp(d, d_ff, seed=0):
    rng = np.random.default_rng(seed)
    return dense_mlp(rng.normal(size=(d, d_ff)), rng.normal(size=d_ff),
                     rng.normal(size=(d_ff, d)), rng.normal(size=d))


def sliced(mlp, centroid, d_e, gamma=expert_init.GAMMA_INIT):
    """A one-expert block whose expert slice_expert filled at the centroid."""
    d = mlp.w1.shape[0]
    router = moe.Router(T.parameter(np.ones((1, d))), T.ScalerParams(np.zeros(d), np.ones(d)))
    block = moe.MoEBlock.zeros(router, d_e)
    expert_init.slice_expert(block, 0, mlp, centroid, gamma)
    return block


def kept_units(block, mlp, e=0):
    """The dense hidden units expert e kept, found by its w2 rows (the dense
    w2 rows must be distinct)."""
    dense = mlp.w2.data.astype(block.w2.data.dtype)
    return [int(np.flatnonzero((dense == row).all(axis=1))[0]) for row in block.w2.data[e]]


def hidden_activations(mlp, centroid):
    """SiLU(centroid . w1 + b1) in float64: the centroid is the MLP's input."""
    pre = np.asarray(centroid, dtype=np.float64) @ mlp.w1.data.astype(np.float64) + mlp.b1.data
    return pre / (1.0 + np.exp(-pre))


def make_router(d, num_experts, seed=0, **kwargs):
    rng = np.random.default_rng(seed)
    scaler = T.minmax_fit(rng.normal(size=(32, d)))
    centroids = rng.uniform(0.1, 0.9, size=(num_experts, d))
    return moe.Router(centroids=T.parameter(centroids), scaler=scaler, **kwargs)


HAND_MLP = dense_mlp(w1=[[2.0, 1.0, 1.0, 0.0], [-1.0, 0.0, -1.0, -2.0]], b1=np.zeros(4),
                     w2=np.arange(8).reshape(4, 2), b2=[0.5, -0.5])
HAND_CENTROID = np.array([1.0, -1.0])
# SiLU of the hand case's pre-activations [3, 1, 2, 2]
HAND_ACTS = np.array([2.85772238, 0.73105858, 1.76159416, 1.76159416])


class TestSliceExpert:
    def test_hand_case_with_tie(self):
        # pre-activations [3, 1, 2, 2]; SiLU keeps their order and the tie
        # at value 2, which goes to index 2: units [0, 2]
        acts = hidden_activations(HAND_MLP, HAND_CENTROID)
        assert np.allclose(acts, HAND_ACTS) and acts[2] == acts[3]
        ex = sliced(HAND_MLP, HAND_CENTROID, 2)
        assert kept_units(ex, HAND_MLP) == [0, 2]
        assert np.allclose(ex.w1.data[0], [[2.0, 1.0], [-1.0, -1.0]])
        assert np.allclose(ex.b1.data[0], [0.0, 0.0])
        assert np.allclose(ex.w2.data[0], [[0.0, 1.0], [4.0, 5.0]])
        assert np.allclose(ex.b2.data[0], [0.5, -0.5])
        assert float(ex.gamma.data[0]) == pytest.approx(0.9)

    def test_x_corr_is_full_mlp_output(self):
        # SiLU([3,1,2,2]) @ w2 + b2, with the unsliced hidden width
        ex = sliced(HAND_MLP, HAND_CENTROID, 2)
        expected = HAND_ACTS @ HAND_MLP.w2.data + HAND_MLP.b2.data
        assert np.allclose(ex.x_corr.data[0], expected)

    def test_sorted_ascending_full_width(self):
        mlp = random_mlp(6, 12)
        ex = sliced(mlp, np.arange(6.0), 12)
        assert kept_units(ex, mlp) == list(range(12))
        assert np.array_equal(ex.w1.data[0], mlp.w1.data.astype(np.float32))

    def test_units_distinct_ascending_and_largest(self):
        mlp = random_mlp(8, 16, seed=3)
        for seed in range(10):
            c = np.random.default_rng(seed).normal(size=8)
            units = kept_units(sliced(mlp, c, 8), mlp)
            assert np.all(np.diff(units) > 0)
            acts = hidden_activations(mlp, c)
            dropped = np.setdiff1d(np.arange(16), units)
            assert acts[units].min() >= acts[dropped].max()

    def test_gamma_one_outputs_x_corr(self):
        ex = sliced(HAND_MLP, HAND_CENTROID, 2, gamma=1.0)
        x = Tensor(np.random.default_rng(0).normal(size=(5, 2)))
        out = moe.expert_forward(x, ex, 0)
        assert np.allclose(out.data, np.broadcast_to(ex.x_corr.data[0], (5, 2)))

    def test_full_width_gamma_zero_matches_dense(self):
        mlp = random_mlp(8, 16, seed=7)
        gain, bias = np.random.default_rng(8).normal(size=(2, 8))
        ex = sliced(mlp, np.zeros(8), 16, gamma=0.0)
        x = np.random.default_rng(2).normal(size=(10, 8))
        # experts read the layer's MLP-input norm output, as the dense MLP does
        normed = T.layer_norm(Tensor(x), Tensor(gain), Tensor(bias))
        out = moe.expert_forward(normed, ex, 0)
        assert np.allclose(out.data, mlp.forward(normed).data, atol=1e-6)

    def test_copies_are_independent(self):
        mlp = random_mlp(4, 8)
        ex = sliced(mlp, np.zeros(4), 8)
        for t in ex.parameters().values():
            t.data += 1.0
        fresh = random_mlp(4, 8)
        assert all(np.array_equal(t.data, fresh.parameters()[k].data)
                   for k, t in mlp.parameters().items())

    def test_block_diagonal_w1_gives_disjoint_experts(self):
        # each centroid lights up only its own block of hidden dims
        d, d_ff = 4, 8
        w1 = np.zeros((d, d_ff))
        w1[:2, :4] = 1.0
        w1[2:, 4:] = 1.0
        mlp = dense_mlp(w1, np.zeros(d_ff), np.arange(d_ff * d).reshape(d_ff, d), np.zeros(d))
        ex_a = sliced(mlp, np.array([3.0, 3.0, -1.0, -1.0]), 4)
        ex_b = sliced(mlp, np.array([-1.0, -1.0, 3.0, 3.0]), 4)
        assert kept_units(ex_a, mlp) == [0, 1, 2, 3]
        assert kept_units(ex_b, mlp) == [4, 5, 6, 7]


@pytest.fixture(params=["float32", "float64"])
def dtype(request):
    T.set_default_dtype(request.param)
    yield request.param
    T.set_default_dtype("float32")


class TestMatchesOracle:
    """Every expert parameter moefy_layer builds is byte-equal to the helper
    chain's in tests/util_oracles.py."""

    def assert_byte_equal(self, model, layer, router):
        want = moefy_layer_oracle(model, layer, router)
        block = expert_init.moefy_layer(model, layer, router)
        for name in moe.EXPERT_WEIGHTS:
            t, r = getattr(block, name).data, np.stack([ex[name] for ex in want])
            assert t.dtype == r.dtype == T.default_dtype(), name
            assert t.shape == r.shape and t.tobytes() == r.tobytes(), name

    def test_single_expert_full_width(self, dtype):
        cfg = toy_config(moe_layers=(1,), experts=1, top_k=1, reduction_factor=1)
        model = backbone.Model(cfg, Rng(4))
        self.assert_byte_equal(model, 1, make_router(cfg.d_model, 1, seed=4))

    def test_experts_with_tied_activations(self, dtype):
        """Every hidden unit is a copy of unit 0, 1 or 2 (six, five and five
        copies), so at any centroid the 8 kept of 16 split a tied group and
        the tie goes to the lower index. The copied w1 is column-major, and
        the sums must not follow its layout."""
        cfg = toy_config(moe_layers=(1,), experts=3)
        model = backbone.Model(cfg, Rng(5))
        mlp = model.layers[1].mlp
        copies = np.arange(cfg.d_ff) % 3
        mlp.w1.data = mlp.w1.data[:, copies]
        mlp.b1.data = mlp.b1.data[copies]
        self.assert_byte_equal(model, 1, make_router(cfg.d_model, 3, seed=5))

    def test_slices_at_the_raw_centroid_past_a_non_identity_ln2(self, dtype):
        """The centroids are ln2's outputs already, so a layer whose ln2 is
        not the identity changes nothing: each expert keeps the d_e largest
        of SiLU(c . w1 + b1) at its raw centroid c, and x_corr is the dense
        MLP's output at c. Running c through ln2 once more would keep other
        units for every expert here."""
        cfg = toy_config(moe_layers=(1,), experts=3)
        model = backbone.Model(cfg, Rng(0))
        layer = model.layers[1]
        g = np.random.default_rng(0)
        layer.ln2_gain.data = g.uniform(0.5, 2.0, cfg.d_model).astype(dtype)
        layer.ln2_bias.data = g.normal(0.0, 0.5, cfg.d_model).astype(dtype)
        router = make_router(cfg.d_model, 3, seed=0)
        mlp = layer.mlp
        w2, b2 = (t.data.astype(np.float64) for t in (mlp.w2, mlp.b2))
        d_e = cfg.d_ff // cfg.reduction_factor
        raw = [T.minmax_invert(router.scaler, c) for c in router.centroids.data]
        ln2 = [Tensor(t.data.astype(np.float64)) for t in (layer.ln2_gain, layer.ln2_bias)]

        def largest(acts):
            return np.sort(np.argsort(-acts, kind="stable")[:d_e])

        acts = [hidden_activations(mlp, c) for c in raw]
        normed_units = [largest(hidden_activations(
            mlp, T.layer_norm(Tensor(c[None]), *ln2).data[0])) for c in raw]
        assert all(not np.array_equal(largest(a), u) for a, u in zip(acts, normed_units))

        self.assert_byte_equal(model, 1, router)
        eps = np.finfo(dtype).eps
        block = model.layers[1].mlp
        for e, a in enumerate(acts):
            assert kept_units(block, mlp, e) == largest(a).tolist()
            x_corr = a @ w2 + b2
            np.testing.assert_allclose(block.x_corr.data[e], x_corr, rtol=eps,
                                       atol=eps * np.abs(x_corr).max())


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
        assert block.w1.shape == (3, cfg.d_model, cfg.d_ff // cfg.reduction_factor)

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

        dense_w1 = model.layers[1].mlp.w1.data.copy()
        router = make_router(cfg.d_model, 1, seed=4)
        block = expert_init.moefy_layer(model, 1, router, gamma=0.0)
        assert np.array_equal(block.w1.data[0], dense_w1)
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
            for field in ("gamma", "w1", "x_corr"):
                g = params[f"layer1.moe.{field}"].grad
                assert g is not None and g.shape[0] == 2
                assert np.all(np.isfinite(g))
                for e in range(2):  # each expert's own row gets a gradient
                    assert np.any(g[e] != 0), (field, e)
        finally:
            T.set_default_dtype("float32")
