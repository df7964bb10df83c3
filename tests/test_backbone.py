import hashlib
import io
import json
import tempfile
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from patchmoe import backbone, expert_init, training
from patchmoe import tensor as T
from patchmoe.backbone import Model, ModelConfig, unfold
from test_expert_init import make_router
from util_model import check_model_gradients, model_digest, toy_config
from util_oracles import (attention_chain_oracle, forward_capture_oracle, fold_oracle,
                          linear_chain_oracle, model_attention_oracle,
                          silu_linear_chain_oracle)


class TestConfig:
    def test_layout_arithmetic(self):
        cfg = ModelConfig(num_classes=2, image_size=32, patch_size=8)
        assert cfg.grid == 4 and cfg.cell == 4

    def test_invalid_moe_layer(self):
        with pytest.raises(ValueError):
            ModelConfig(num_classes=2, layers=4, moe_layers=(4,))

    def test_indivisible_image(self):
        with pytest.raises(ValueError):
            ModelConfig(num_classes=2, image_size=60, patch_size=8)

    def test_default_layer_count(self):
        assert ModelConfig(num_classes=2).layers == 9

    def test_json_round_trip(self):
        """As checkpoints write and read it."""
        cfg = backbone.desk_config(5, moe_layers=(3, 1), experts=8)
        assert ModelConfig(**json.loads(json.dumps(asdict(cfg)))) == cfg


class TestLayout:
    def test_fold_unfold_round_trip(self):
        rng = np.random.default_rng(0)
        images = rng.random((2, 16, 16, 3))
        blocks = unfold(images, patch_size=8)
        assert blocks.shape == (2, 4, 4, 48)
        assert np.array_equal(fold_oracle(blocks, 16, 8), images)

    def test_patch_count_at_alternate_scale(self):
        images = np.zeros((1, 32, 32, 3))
        assert unfold(images, patch_size=8).shape[1] == 16


class TestPatchEmbed:
    def test_zero_image_zero_projection_bias(self):
        model = Model(toy_config(), T.Rng(0))
        model.pos.data[:] = 0
        out = model.patch_embed(np.zeros((1, 8, 8, 3), dtype=np.uint8))
        assert np.allclose(out.data, 0)

    def test_identity_projection_passes_pixels_through(self):
        """1-pixel cells into an even d_model: the first three channels are
        the pixel's RGB, the fourth zero."""
        cfg = ModelConfig(num_classes=2, image_size=8, patch_size=2,
                          d_model=4, d_ff=4, layers=1)
        model = Model(cfg, T.Rng(0))
        model.embed_w.data = np.eye(3, 4, dtype=np.float32)
        model.embed_b.data[:] = 0
        model.pos.data[:] = 0
        rng = np.random.default_rng(1)
        images = rng.integers(0, 256, (1, 8, 8, 3), dtype=np.uint8)
        out = model.patch_embed(images)
        expected = np.concatenate([unfold(images / 255.0, 2), np.zeros((1, 16, 4, 1))], -1)
        assert np.allclose(out.data, expected, atol=1e-6)

    def test_dimension_mismatch(self):
        model = Model(toy_config(), T.Rng(0))
        with pytest.raises(ValueError):
            model.patch_embed(np.zeros((1, 9, 9, 3), dtype=np.uint8))


class TestAttention:
    def test_zero_output_projection_is_residual_only(self):
        model = Model(toy_config(), T.Rng(0))
        layer = model.layers[0]
        layer.wo.data[:] = 0
        layer.bo.data[:] = 0
        x = T.Tensor(np.random.default_rng(0).standard_normal((2, 4, 4, 8)))
        out = model.attention(layer, x)
        assert np.allclose(out.data, x.data)

    def test_single_token(self):
        model = Model(toy_config(), T.Rng(0))
        layer = model.layers[0]
        x = np.random.default_rng(1).standard_normal((1, 1, 1, 8)).astype(np.float32)
        out = model.attention(layer, T.Tensor(x)).data
        # One key: softmax weight 1, so output = Wo(Wv(ln(x)) + bv) + bo + x.
        normed = T.layer_norm(T.Tensor(x.reshape(1, 8)), layer.ln1_gain, layer.ln1_bias).data
        v = normed @ layer.wv.data + layer.bv.data
        expected = (v @ layer.wo.data + layer.bo.data).reshape(1, 1, 1, 8) + x
        assert np.allclose(out, expected, atol=1e-5)

    def test_token_permutation_equivariance(self):
        model = Model(toy_config(), T.Rng(0))
        layer = model.layers[0]
        rng = np.random.default_rng(2)
        x = rng.standard_normal((1, 4, 4, 8)).astype(np.float64)
        perm = rng.permutation(4)
        out = model.attention(layer, T.Tensor(x)).data
        out_perm = model.attention(layer, T.Tensor(x[:, perm])).data
        assert np.allclose(out_perm, out[:, perm], atol=1e-5)


class TestForward:
    def test_deterministic_eval(self):
        model = Model(toy_config(), T.Rng(7))
        images = np.random.default_rng(0).integers(0, 256, (2, 8, 8, 3), dtype=np.uint8)
        a = model.forward(images).logits.data
        b = model.forward(images).logits.data
        assert np.array_equal(a, b)

    def test_capture_shape_and_determinism(self):
        cfg = toy_config()
        model = Model(cfg, T.Rng(0))
        images = np.random.default_rng(0).integers(0, 256, (3, 8, 8, 3), dtype=np.uint8)
        cap1 = model.capture_pre_mlp(images, 1)
        cap2 = model.capture_pre_mlp(images, 1)
        assert cap1.shape == (3, cfg.grid ** 2, backbone.N_PX, cfg.d_model)
        assert np.array_equal(cap1.data, cap2.data)

    def test_capture_invalid_layer(self):
        model = Model(toy_config(), T.Rng(0))
        with pytest.raises(ValueError):
            model.capture_pre_mlp(np.zeros((1, 8, 8, 3), dtype=np.uint8), 5)

    def test_capture_oracle_is_the_forward(self):
        """The capture oracle computes forward's logits and routing."""
        cfg = toy_config(dropout=0.3, moe_layers=(1,), experts=3, top_k=2)
        model = Model(cfg, T.Rng(3))
        expert_init.moefy_layer(model, 1, make_router(cfg.d_model, 3, top_k=2))
        images = np.random.default_rng(0).integers(0, 256, (2, 8, 8, 3), dtype=np.uint8)
        for train in (False, True):
            plain = model.forward(images, train=train, rng=T.Rng(1))
            oracle, caps = forward_capture_oracle(model, images, (0, 1), train, T.Rng(1))
            assert np.array_equal(plain.logits.data, oracle.logits.data)
            assert np.array_equal(plain.routing[1].gates, oracle.routing[1].gates)
            assert sorted(caps) == [0, 1]

    def test_zero_head_gives_zero_logits(self):
        model = Model(toy_config(), T.Rng(0))
        model.head_w.data[:] = 0
        model.head_b.data[:] = 0
        images = np.random.default_rng(0).integers(0, 256, (2, 8, 8, 3), dtype=np.uint8)
        assert np.all(model.forward(images).logits.data == 0)

    def test_hand_set_head(self):
        model = Model(toy_config(num_classes=2), T.Rng(0))
        images = np.random.default_rng(0).integers(0, 256, (1, 8, 8, 3), dtype=np.uint8)
        # Recover the pooled features through a probe head, then check the
        # real head's logits against a hand computation.
        model.head_w.data = np.eye(8, 2, dtype=np.float32)
        model.head_b.data = np.array([0.5, -0.25], dtype=np.float32)
        logits = model.forward(images).logits.data
        model.head_w.data = np.eye(8, dtype=np.float32)
        model.head_b.data = np.zeros(8, dtype=np.float32)
        pooled = model.forward(images).logits.data
        expected = pooled @ np.eye(8, 2, dtype=np.float32) + np.array([0.5, -0.25])
        assert np.allclose(logits, expected, atol=1e-6)

    def test_dropout_train_mode_changes_and_eval_does_not(self):
        model = Model(toy_config(dropout=0.5), T.Rng(0))
        images = np.random.default_rng(0).integers(0, 256, (2, 8, 8, 3), dtype=np.uint8)
        eval_logits = model.forward(images).logits.data
        train_logits = model.forward(images, train=True, rng=T.Rng(1)).logits.data
        assert not np.allclose(eval_logits, train_logits)
        again = model.forward(images, train=True, rng=T.Rng(1)).logits.data
        assert np.array_equal(train_logits, again)


class TestAttentionPerPixelPosition:
    """Model.attention attends across the patches separately for each pixel
    position, checked on a desk-shaped model without the model oracle."""

    @staticmethod
    def layer_and_input():
        model = Model(backbone.desk_config(6), T.Rng(3))
        images = np.random.default_rng(4).integers(0, 256, (3, 64, 64, 3), dtype=np.uint8)
        with model.no_grad():
            x = model.patch_embed(images)
        return model, model.layers[1], x

    @pytest.mark.parametrize("j", range(backbone.N_PX))
    def test_other_positions_keep_every_bit(self, j):
        """New tokens at pixel position j of one image change no byte of the
        output at any other position, nor anywhere in the other images."""
        model, layer, x = self.layer_and_input()
        changed = x.data.copy()
        changed[1, :, j] = np.random.default_rng(j).standard_normal(changed[1, :, j].shape)
        with model.no_grad():
            before = model.attention(layer, x).data
            after = model.attention(layer, T.Tensor(changed)).data
        others = [i for i in range(backbone.N_PX) if i != j]
        assert not np.array_equal(before[1, :, j], after[1, :, j])
        assert before[:, :, others].tobytes() == after[:, :, others].tobytes()
        assert before[[0, 2]].tobytes() == after[[0, 2]].tobytes()

    def test_each_position_matches_chain_oracle(self):
        """At each position j the output is the residual plus softmax
        attention over that position's P tokens, per head."""
        model, layer, x = self.layer_and_input()
        with model.no_grad():
            out = model.attention(layer, x).data
            normed = T.layer_norm(x, layer.ln1_gain, layer.ln1_bias).data
        b, p, n_px, d = x.shape
        dh = d // backbone.HEADS

        def heads(tokens, w, bias):  # (B, P, d) -> (B, HEADS, P, dh)
            t = tokens @ w.data + bias.data
            return T.Tensor(t.reshape(b, p, backbone.HEADS, dh).transpose(0, 2, 1, 3))

        for j in range(n_px):
            tokens = normed[:, :, j]
            attn = attention_chain_oracle(heads(tokens, layer.wq, layer.bq),
                                          heads(tokens, layer.wk, layer.bk),
                                          heads(tokens, layer.wv, layer.bv),
                                          dh ** -0.5).data
            merged = attn.transpose(0, 2, 1, 3).reshape(b, p, d)
            want = x.data[:, :, j] + merged @ layer.wo.data + layer.bo.data
            assert np.allclose(out[:, :, j], want, rtol=1e-5, atol=1e-5)


class TestFusedNodesMatchChains:
    """A desk-shaped MoE model gives the same train-mode logits and parameter
    gradients, bit for bit, with the op chains that T.attention, T.linear
    and T.silu_linear replaced swapped back in. The attention key bias is
    the canary: its true gradient is exactly 0, so it holds only rounding
    noise, and any change in summation order shows there first."""

    @pytest.mark.parametrize("swap", ["attention", "attention+linear"])
    @pytest.mark.parametrize("top_k", [1, 2])
    @pytest.mark.parametrize("dtype", ["float32", "float64"])
    def test_model_digest(self, monkeypatch, dtype, top_k, swap):
        self.assert_fused_matches_chain(monkeypatch, dtype, top_k, swap)

    @pytest.mark.parametrize("dtype", ["float32", "float64"])
    def test_model_digest_one_image_blocks(self, monkeypatch, dtype):
        """The same through training.train_step with one image per forward
        (four attention calls of one image each in place of one of four),
        the gradients summed over the slices."""
        monkeypatch.setattr(backbone, "CAPTURE_CHUNK", 1)
        self.assert_fused_matches_chain(monkeypatch, dtype, 2, "attention", step_digest)

    @staticmethod
    def assert_fused_matches_chain(monkeypatch, dtype, top_k, swap, digest_fn=model_digest):
        T.set_default_dtype(dtype)
        try:
            cfg = backbone.desk_config(6, moe_layers=(1, 3), experts=4, top_k=top_k)
            model = Model(cfg, T.Rng(3))
            for i in cfg.moe_layers:
                expert_init.moefy_layer(model, i, make_router(cfg.d_model, 4, seed=i,
                                                              top_k=top_k))
            rng = np.random.default_rng(4)
            images = rng.integers(0, 256, (4, 64, 64, 3), dtype=np.uint8)
            labels = rng.integers(0, 6, 4)

            def digest_and_canary():
                digest = digest_fn(model, images, labels, T.Rng(5))
                logits = model.forward(images, train=True, rng=T.Rng(5)).logits
                T.tsum(logits).backward()
                canary = [layer.bk.grad.tobytes() for layer in model.layers]
                for p in model.named_parameters().values():
                    p.grad = None
                return digest, canary

            fused = digest_and_canary()
            with monkeypatch.context() as m:
                m.setattr(Model, "attention", model_attention_oracle)
                if "linear" in swap:
                    m.setattr(T, "linear", linear_chain_oracle)
                    m.setattr(T, "silu_linear", silu_linear_chain_oracle)
                chain = digest_and_canary()
        finally:
            T.set_default_dtype("float32")
        assert fused[1] == chain[1], "layer*.pxattn.bk gradients differ"
        assert fused[0] == chain[0]


def step_digest(model, images, labels, rng):
    """sha256 over training.train_step's loss and hits and every parameter's
    gradient at the end of the step, whose update is left out. Clears the
    parameter gradients after."""
    params = model.named_parameters()

    class NoUpdate:  # keeps the gradients the step's slices summed
        def zero_grad(self):
            for p in params.values():
                p.grad = None

        def step(self, rows=None):
            pass

    labels = np.asarray(labels)
    y = training.one_hot(labels, model.config.num_classes)
    value, correct, _ = training.train_step(model, NoUpdate(), images, y, labels, rng, "digest")
    h = hashlib.sha256(repr((value, correct)).encode())
    for name, p in params.items():
        h.update(name.encode())
        h.update(b"-" if p.grad is None else p.grad.tobytes())
        p.grad = None
    return h.hexdigest()


@pytest.mark.parametrize("seed", [0, 1])
def test_full_model_gradients_match_finite_differences(seed):
    check_model_gradients(seed)


class TestCheckpoint:
    def test_dense_round_trip(self, tmp_path):
        model = Model(toy_config(), T.Rng(9))
        path = tmp_path / "ck.json"
        backbone.save_checkpoint(model, path)
        loaded = backbone.load_checkpoint(path)
        assert loaded.moe_blocks() == {}
        images = np.random.default_rng(0).integers(0, 256, (2, 8, 8, 3), dtype=np.uint8)
        assert np.array_equal(model.forward(images).logits.data,
                              loaded.forward(images).logits.data)

    def test_experts_of_any_hidden_units_round_trip(self, tmp_path):
        """How experts are sliced is not part of the format: experts built
        from unsorted or repeated hidden units save and load bit for bit."""
        cfg = toy_config(moe_layers=(1,), experts=3)
        model = Model(cfg, T.Rng(2))
        w1, b1, w2, b2 = (t.data.copy() for t in model.layers[1].mlp.parameters().values())
        block = expert_init.moefy_layer(model, 1, make_router(cfg.d_model, 3, seed=2))
        d_e = cfg.d_ff // cfg.reduction_factor
        for e, units in enumerate([np.arange(d_e)[::-1], np.full(d_e, 3)]):
            block.w1.data[e], block.b1.data[e] = w1[:, units], b1[units]
            block.w2.data[e], block.b2.data[e] = w2[units], b2
        path = tmp_path / "ck.json"
        backbone.save_checkpoint(model, path)
        loaded = backbone.load_checkpoint(path)
        want = model.named_parameters()
        assert all(t.data.tobytes() == want[n].data.tobytes()
                   for n, t in loaded.named_parameters().items())
        nprng = np.random.default_rng(2)
        images = nprng.integers(0, 256, (3, 8, 8, 3), dtype=np.uint8)
        labels = nprng.integers(0, cfg.num_classes, 3)
        assert (model_digest(loaded, images, labels, T.Rng(2))
                == model_digest(model, images, labels, T.Rng(2)))

    def test_bin_path_refused(self, tmp_path):
        """A manifest at x.bin would share one file with its blob."""
        model = Model(toy_config(), T.Rng(0))
        with pytest.raises(ValueError, match="ends in .bin"):
            backbone.save_checkpoint(model, tmp_path / "ck.bin")
        assert list(tmp_path.iterdir()) == []

    def test_config_survives(self, tmp_path):
        cfg = toy_config(num_classes=5)
        model = Model(cfg, T.Rng(0))
        backbone.save_checkpoint(model, tmp_path / "ck.json")
        assert backbone.load_checkpoint(tmp_path / "ck.json").config == cfg


@settings(max_examples=40, deadline=None)
@given(dtype=st.sampled_from(["float32", "float64"]),
       moe_layers=st.sampled_from([(), (0,), (1,), (0, 1)]),
       top_k=st.sampled_from([1, 2]), gate_mode=st.sampled_from(["renorm", "raw"]),
       seed=st.integers(0, 2**16))
def test_save_load_round_trip_is_bit_exact(dtype, moe_layers, top_k, gate_mode, seed):
    """A loaded checkpoint computes what the saved model computed, bit for
    bit: eval logits, every layer's routing indices and gates, and the
    train-mode logits and gradients (model_digest)."""
    T.set_default_dtype(dtype)
    try:
        cfg = toy_config(moe_layers=moe_layers, experts=3, top_k=top_k,
                         gate_mode=gate_mode, dropout=0.1)
        model = Model(cfg, T.Rng(seed))
        for i in moe_layers:
            expert_init.moefy_layer(model, i, make_router(cfg.d_model, 3, seed=seed + i,
                                                          top_k=top_k, gate_mode=gate_mode))
        nprng = np.random.default_rng(seed)
        for p in model.named_parameters().values():  # move every value off its init
            p.data = (p.data + nprng.normal(0, 0.1, p.shape)).astype(dtype)
        images = nprng.integers(0, 256, (3, 8, 8, 3), dtype=np.uint8)
        labels = nprng.integers(0, cfg.num_classes, 3)
        with tempfile.TemporaryDirectory() as tmp:
            backbone.save_checkpoint(model, Path(tmp) / "ck.json")
            loaded = backbone.load_checkpoint(Path(tmp) / "ck.json")
        saved_out, loaded_out = model.forward(images), loaded.forward(images)
        assert loaded_out.logits.data.tobytes() == saved_out.logits.data.tobytes()
        assert sorted(loaded_out.routing) == sorted(saved_out.routing) == list(moe_layers)
        for i, record in saved_out.routing.items():
            assert loaded_out.routing[i].indices.tobytes() == record.indices.tobytes()
            assert loaded_out.routing[i].gates.tobytes() == record.gates.tobytes()
        assert (model_digest(loaded, images, labels, T.Rng(seed))
                == model_digest(model, images, labels, T.Rng(seed)))
    finally:
        T.set_default_dtype("float32")


@pytest.fixture(scope="module")
def moe_checkpoint(tmp_path_factory):
    """A toy MoE checkpoint's manifest and blob bytes, and a path to write
    variants of them to."""
    cfg = toy_config(moe_layers=(1,), experts=2)
    model = Model(cfg, T.Rng(3))
    expert_init.moefy_layer(model, 1, make_router(cfg.d_model, 2))
    path = tmp_path_factory.mktemp("ckpt") / "moe.json"
    backbone.save_checkpoint(model, path)
    backbone.load_checkpoint(path)
    return json.loads(path.read_text()), path.with_suffix(".bin").read_bytes(), path


@given(st.data())
def test_every_truncation_or_name_edit_is_refused(moe_checkpoint, data):
    """Cutting the blob at any byte, or dropping, repeating or swapping any
    name in the manifest, makes the checkpoint unloadable."""
    manifest, blob, path = moe_checkpoint
    names = list(manifest["params"])
    kind = data.draw(st.sampled_from(["truncate", "drop", "repeat", "swap"]))
    if kind == "truncate":
        blob = blob[:data.draw(st.integers(0, len(blob) - 1))]
    else:
        i = data.draw(st.integers(0, len(names) - 1))
        if kind == "drop":
            del names[i]
        elif kind == "repeat":
            names.insert(data.draw(st.integers(0, len(names))), names[i])
        else:
            j = data.draw(st.integers(0, len(names) - 1).filter(lambda j: j != i))
            names[i], names[j] = names[j], names[i]
    path.write_text(json.dumps({**manifest, "params": names}))
    path.with_suffix(".bin").write_bytes(blob)
    with pytest.raises(backbone.CheckpointError):
        backbone.load_checkpoint(path)


def record_headers(blob: bytes) -> list[range]:
    """Byte positions of each record's header in a blob: magic, dtype code,
    rank and extents."""
    headers = []
    with io.BytesIO(blob) as f:
        while f.tell() < len(blob):
            start = f.tell()
            headers.append(range(start, start + 10 + 8 * blob[start + 9]))
            T.read_blob(f)
    return headers


@given(st.data())
def test_every_header_byte_edit_is_refused(moe_checkpoint, data):
    """Rewriting any one header byte of any record (magic, dtype code, rank
    or an extent byte) to another value makes the checkpoint unloadable:
    CheckpointError, never MemoryError or another exception."""
    manifest, blob, path = moe_checkpoint
    header = data.draw(st.sampled_from(record_headers(blob)))
    i = data.draw(st.sampled_from(header))
    edited = bytearray(blob)
    edited[i] = data.draw(st.integers(0, 255).filter(lambda v: v != blob[i]))
    path.write_text(json.dumps(manifest))
    path.with_suffix(".bin").write_bytes(bytes(edited))
    with pytest.raises(backbone.CheckpointError):
        backbone.load_checkpoint(path)
