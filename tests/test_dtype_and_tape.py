"""float32 mode computes in float32 end to end, inference forwards
(evaluate, affinity_post, capture_pre_mlp) build no autodiff tape, and a
training tape keeps only what its backward reads."""

import tracemalloc
import types

import numpy as np
import pytest

from patchmoe import affinity, backbone, expert_init, moe, training
from patchmoe import tensor as T
from patchmoe.data import Dataset, LabeledImage
from patchmoe.tensor import Rng

from util_model import toy_config
from util_oracles import (forward_capture_oracle, layer_norm_saved_xhat_oracle,
                          model_attention_oracle, silu_linear_chain_oracle)
from test_expert_init import make_router
from test_training import make_two_class_dataset


def make_model(moe=True, dropout=0.0, d_model=8):
    cfg = toy_config(num_classes=2, dropout=dropout, d_model=d_model,
                     moe_layers=(1,) if moe else (), experts=3, top_k=2)
    model = backbone.Model(cfg, Rng(0))
    if moe:
        expert_init.moefy_layer(model, 1, make_router(cfg.d_model, 3, top_k=2))
    return model


def tape_nodes(root):
    """Every node reachable from root through the tape, constants included."""
    seen, nodes, stack = set(), [], [root]
    while stack:
        node = stack.pop()
        if id(node) not in seen:
            seen.add(id(node))
            nodes.append(node)
            stack.extend(node._parents)
    return nodes


class TestScalarDtype:
    def test_python_scalars_take_default_dtype(self):
        assert T.Tensor(0.5).data.dtype == np.float32
        assert T.Tensor(-1).data.dtype == np.float32
        T.set_default_dtype("float64")
        try:
            assert T.Tensor(0.5).data.dtype == np.float64
        finally:
            T.set_default_dtype("float32")

    def test_numpy_scalars_keep_their_dtype(self):
        assert T.Tensor(np.float64(0.5)).data.dtype == np.float64
        assert T.Tensor(np.float32(0.5)).data.dtype == np.float32

    def test_scalar_ops_stay_float32(self):
        x = T.Tensor(np.ones((2, 3), dtype=np.float32), requires_grad=True)
        for out in (T.mul(x, T.Tensor(-1.0)), T.mul(x, T.Tensor(0.5)),
                    T.sub(T.Tensor(2.0), x), T.div(x, T.Tensor(3.0)), T.tmean(x),
                    T.silu_linear(x, T.Tensor(np.ones((3, 2), np.float32)),
                                  T.Tensor(np.zeros(2, np.float32)))):
            assert out.data.dtype == np.float32


@pytest.mark.parametrize("moe", [False, True], ids=["dense", "moe"])
def test_float32_mode_is_float32_end_to_end(moe):
    assert T.default_dtype() == np.float32
    model = make_model(moe, dropout=0.2)
    images = np.random.default_rng(0).integers(0, 256, (3, 8, 8, 3), dtype=np.uint8)
    result = model.forward(images, train=True, rng=Rng(1))
    _, captures = forward_capture_oracle(model, images, (0, 1), train=True, rng=Rng(1))
    assert result.logits.data.dtype == np.float32
    assert sorted(captures) == [0, 1]
    for cap in captures.values():
        assert cap.data.dtype == np.float32
    assert sorted(result.routing) == ([1] if moe else [])
    for record in result.routing.values():
        assert record.gates.dtype == np.float32
        assert record.full_probs.dtype == np.float32
    loss = training.soft_cross_entropy(
        result.logits, training.one_hot(np.array([0, 1, 1]), 2))
    for node in tape_nodes(loss):
        assert node.data.dtype == np.float32, node
    loss.backward()
    grads = {name: p.grad for name, p in model.named_parameters().items()
             if p.grad is not None}
    assert "head.w" in grads and "embed.w" in grads
    if moe:
        assert "layer1.moe.router.centroids" in grads
    for name, g in grads.items():
        assert g.dtype == np.float32, name
    assert model.capture_pre_mlp(images, 1).data.dtype == np.float32


class TestNoTape:
    def assert_all_require_grad(self, model):
        params = model.named_parameters()
        assert params and all(p.requires_grad for p in params.values())

    def spy(self, monkeypatch, owner, name):
        """Record everything owner.name returns."""
        results, call = [], getattr(owner, name)

        def spy(*args, **kwargs):
            results.append(call(*args, **kwargs))
            return results[-1]
        monkeypatch.setattr(owner, name, spy)
        return results

    def assert_untaped(self, results):
        """Each result, a Tensor or a ForwardResult's logits, is off the tape."""
        assert results
        for r in results:
            t = getattr(r, "logits", r)
            assert not t.requires_grad and t._parents == ()

    def bad_images(self):
        """Four channels: the forward raises in patch_embed."""
        return [LabeledImage(np.zeros((8, 8, 4), dtype=np.uint8), 0, "val")]

    def test_no_grad_forward_keeps_no_tape(self):
        model = make_model()
        images = np.random.default_rng(0).integers(0, 256, (2, 8, 8, 3), dtype=np.uint8)
        with model.no_grad():
            result = model.forward(images)
            _, captures = forward_capture_oracle(model, images, (1,))
        assert not captures[1].requires_grad and captures[1]._parents == ()
        assert not result.logits.requires_grad
        assert result.logits._parents == () and result.logits._backward is None
        self.assert_all_require_grad(model)
        assert model.forward(images).logits._parents

    def test_evaluate(self, monkeypatch):
        model = make_model()
        images = make_two_class_dataset().split("val")
        results = self.spy(monkeypatch, model, "forward")
        first = training.evaluate(model, images, batch_size=4)
        self.assert_all_require_grad(model)
        self.assert_untaped(results)
        with pytest.raises(ValueError):
            training.evaluate(model, self.bad_images())
        self.assert_all_require_grad(model)
        assert first.loss == training.evaluate(model, images, batch_size=4).loss

    def test_affinity_post(self, monkeypatch):
        model = make_model()
        images = make_two_class_dataset().split("val")
        captures = self.spy(monkeypatch, model, "capture_pre_mlp")
        logits = self.spy(monkeypatch, moe, "routing_logits")
        affinity.affinity_post(model, images, layer=1, n_batches=2, batch_size=4)
        self.assert_all_require_grad(model)
        self.assert_untaped(captures)
        self.assert_untaped(logits)
        with pytest.raises(ValueError):
            affinity.affinity_post(model, self.bad_images(), layer=1, n_batches=1)
        self.assert_all_require_grad(model)

    def test_capture_pre_mlp(self):
        model = make_model()
        images = np.random.default_rng(0).integers(0, 256, (2, 8, 8, 3), dtype=np.uint8)
        cap = model.capture_pre_mlp(images, 1)
        assert cap._parents == () and not cap.requires_grad
        self.assert_all_require_grad(model)
        assert np.array_equal(cap.data, forward_capture_oracle(model, images, (1,))[1][1].data)
        with pytest.raises(ValueError):
            model.capture_pre_mlp(np.zeros((1, 8, 8, 4), dtype=np.uint8), 1)
        self.assert_all_require_grad(model)

    def test_frozen_parameter_stays_frozen(self):
        model = make_model()
        model.head_b.requires_grad = False
        with model.no_grad():
            pass
        assert not model.head_b.requires_grad
        assert model.head_w.requires_grad


class TestAttentionMemory:
    def test_no_grad_forward_holds_one_score_array(self):
        """An untaped T.attention computes its scores in place: S and P are
        never both held, so its traced peak is under two (B, heads, N, N)
        score arrays."""
        rng = np.random.default_rng(0)
        q, k, v = (T.Tensor(rng.standard_normal((16, 2, 256, 16)).astype(np.float32))
                   for _ in range(3))
        scores = 16 * 2 * 256 * 256 * 4  # 8 MiB
        tracemalloc.start()
        try:
            T.attention(q, k, v, 0.25)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * scores


class TestLinearMemory:
    def test_backward_forms_no_per_patch_weight_gradient(self):
        """T.linear's backward on a (B, P, n_px, d_in) input, as the dense
        MLP runs it, holds no more than the output's gradient, its copy into
        the tape and x's gradient: no (B, P, d_in, d_out) array (16 MiB
        here) is formed and summed into the weight gradient."""
        rng = np.random.default_rng(0)
        x = T.Tensor(rng.standard_normal((32, 64, 4, 32)).astype(np.float32),
                     requires_grad=True)
        w = T.Tensor(rng.standard_normal((32, 64)).astype(np.float32), requires_grad=True)
        b = T.Tensor(np.zeros(64, np.float32), requires_grad=True)
        out = T.linear(x, w, b)
        g = rng.standard_normal(out.shape).astype(np.float32)
        tracemalloc.start()
        try:
            out.backward(g)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert x.grad.shape == x.shape and w.grad.shape == w.shape
        assert peak <= x.data.nbytes + 2 * g.nbytes


class TestTrainingMemory:
    def test_step_peak_bounded_by_chunk(self):
        """On a 64 px desk-shaped MoE model, a training epoch at a batch of 4
        chunks peaks about as high as one at a batch of one chunk: a step
        holds one slice's tape at a time. The dataset has no val split, so
        no evaluate call runs."""
        cfg = backbone.desk_config(2, layers=2, moe_layers=(1,), experts=4)
        model = backbone.Model(cfg, Rng(0))
        expert_init.moefy_layer(model, 1, make_router(cfg.d_model, 4))
        chunk = backbone.CAPTURE_CHUNK
        rng = np.random.default_rng(0)
        images = [LabeledImage(rng.integers(0, 256, (64, 64, 3), dtype=np.uint8), i % 2,
                               "train") for i in range(4 * chunk)]
        dataset = Dataset(images, ["a", "b"])

        def peak(batch_size):
            tracemalloc.start()
            try:
                training.train(model, dataset, training.OptimConfig(epochs=1,
                                                                    batch_size=batch_size),
                               training.AugmentConfig(), seed=0)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert peak(4 * chunk) <= 1.25 * peak(chunk)


def closure_arrays(fn):
    """The arrays a backward closure captured, also through the functions,
    tuples and lists it holds (such as the (tensor, grad) pairs of an op)."""
    arrays, seen, stack = [], set(), [fn]
    while stack:
        obj = stack.pop()
        if id(obj) in seen:
            continue
        seen.add(id(obj))
        if isinstance(obj, np.ndarray):
            arrays.append(obj)
        elif isinstance(obj, (tuple, list)):
            stack.extend(obj)
        elif isinstance(obj, types.FunctionType):
            stack.extend(c.cell_contents for c in obj.__closure__ or ())
    return arrays


def held_arrays(root):
    """Every array the tape from root holds: node payloads and the arrays
    the backward closures captured, one entry per distinct buffer. A view
    counts as the array that owns its memory."""
    held = {}
    for node in tape_nodes(root):
        cells = closure_arrays(node._backward) if node._backward is not None else []
        for arr in [node.data] + cells:
            while isinstance(arr.base, np.ndarray):
                arr = arr.base
            held[id(arr)] = arr
    return list(held.values())


class TestTrainingTape:
    def forward_loss(self, model, images):
        result = model.forward(images, train=True, rng=Rng(1))
        return training.soft_cross_entropy(result.logits,
                                           training.one_hot(np.array([0, 1, 1]), 2))

    def images(self):
        return np.random.default_rng(0).integers(0, 256, (3, 8, 8, 3), dtype=np.uint8)

    def score_model(self, moe=True):
        """make_model at a head width of 6, so that no other array has the
        score shape: at the default d_model 8 a head's width equals the
        toy's 4 patches, and the attention output looks like P."""
        return make_model(moe=moe, d_model=12)

    def score_arrays(self, model, loss, images=3):
        """The (images, N_PX, HEADS, P, P) arrays the tape holds: per image,
        one P x P score matrix per pixel position and head."""
        n = model.config.grid ** 2
        shape = (images, backbone.N_PX, backbone.HEADS, n, n)
        return [a for a in held_arrays(loss) if a.shape == shape]

    @pytest.mark.parametrize("moe", [False, True], ids=["dense", "moe"])
    def test_one_score_array_per_attention_layer(self, moe):
        model = self.score_model(moe)
        scores = self.score_arrays(model, self.forward_loss(model, self.images()))
        assert len(scores) == len(model.layers)
        for p in scores:  # the softmax probabilities: rows sum to 1
            assert np.allclose(p.sum(axis=-1), 1.0, atol=1e-5)

    def test_one_score_array_per_layer_in_blocks(self, monkeypatch):
        """With one image per forward, as training.train_step runs a batch in
        backbone.CAPTURE_CHUNK slices, each slice's tape keeps one score
        array per layer, of that slice's image alone."""
        monkeypatch.setattr(backbone, "CAPTURE_CHUNK", 1)
        model = self.score_model()
        images, labels = self.images(), np.array([0, 1, 1])
        for lo in range(0, len(images), backbone.CAPTURE_CHUNK):
            hi = lo + backbone.CAPTURE_CHUNK
            result = model.forward(images[lo:hi], train=True, rng=Rng(1))
            loss = training.soft_cross_entropy(result.logits,
                                               training.one_hot(labels[lo:hi], 2))
            assert len(self.score_arrays(model, loss, images=1)) == len(model.layers)
            assert self.score_arrays(model, loss) == []

    def test_chain_oracle_held_three_per_layer(self, monkeypatch):
        """The count above sees the score arrays the op chain kept."""
        model = self.score_model(moe=False)
        monkeypatch.setattr(backbone.Model, "attention", model_attention_oracle)
        scores = self.score_arrays(model, self.forward_loss(model, self.images()))
        assert len(scores) == 3 * len(model.layers)

    @pytest.mark.parametrize("moe", [False, True], ids=["dense", "moe"])
    def test_backward_frees_non_leaf_grads(self, moe):
        """After backward, every inner node has dropped its grad and its
        parents; only leaves, all of them parameters, hold a grad."""
        model = make_model(moe=moe)
        loss = self.forward_loss(model, self.images())
        nodes = [n for n in tape_nodes(loss) if n.requires_grad]
        loss.backward()
        inner = [n for n in nodes if n._backward is not None]
        assert inner and all(n.grad is None for n in inner)
        assert all(n._parents == () for n in inner)
        params = {id(p) for p in model.named_parameters().values()}
        leaves = [n for n in nodes if n._backward is None]
        assert leaves and {id(n) for n in leaves} <= params
        assert all(n.grad is not None for n in leaves)
        if not moe:
            assert all(p.grad is not None for p in model.named_parameters().values())


class TestBackwardFreesTape:
    """Tensor.backward frees the tape as it sweeps: the arrays only a node
    held go once its backward has run, not when the caller drops the loss."""

    def test_desk_slice_backward_peak_and_remainder(self):
        """On a 16-image slice of a desk-shaped MoE model, the backward peaks
        within 5 % of the tape the forward left, and after it under 1 MiB
        stays traced (the parameters' grads), though the caller still holds
        the loss and the logits. A tape kept whole until the caller drops the
        loss peaks about 15 % above itself and stays traced."""
        cfg = backbone.desk_config(2, moe_layers=(1, 3), experts=4)
        model = backbone.Model(cfg, Rng(3))
        for i in cfg.moe_layers:
            expert_init.moefy_layer(model, i, make_router(cfg.d_model, 4, seed=i))
        rng = np.random.default_rng(3)
        images = rng.integers(0, 256, (backbone.CAPTURE_CHUNK, 64, 64, 3), dtype=np.uint8)
        y = training.one_hot(rng.integers(0, 2, backbone.CAPTURE_CHUNK), 2)
        tracemalloc.start()
        try:
            result = model.forward(images, train=True, rng=Rng(1))
            loss = training.soft_cross_entropy(result.logits, y)
            tape = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            loss.backward()
            left, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert tape > 16 * 2**20  # the slice's tape, not an empty one
        assert peak <= 1.05 * tape
        assert left < 2**20
        assert result.logits.data.shape == (backbone.CAPTURE_CHUNK, 2) and loss.item() > 0

    def test_second_backward_raises(self):
        model = make_model()
        images = np.random.default_rng(0).integers(0, 256, (3, 8, 8, 3), dtype=np.uint8)
        loss = training.soft_cross_entropy(model.forward(images).logits,
                                           training.one_hot(np.array([0, 1, 1]), 2))
        loss.backward()
        with pytest.raises(RuntimeError, match="already freed"):
            loss.backward()


class TestMoETape:
    """The taped MoE forward holds a fixed number of full-size arrays, one
    row per patch (B*P, n_px, d) or per routed slot (B*P*k, n_px, d),
    however many experts get rows."""

    def held_full_size(self, top_k, pick_router):
        """(active experts, full-size arrays the tape holds) for a toy model
        whose layer-1 router pick_router(captured patches) builds."""
        cfg = toy_config(num_classes=2, moe_layers=(1,), experts=4, top_k=top_k)
        model = backbone.Model(cfg, Rng(0))
        images = np.random.default_rng(0).integers(0, 256, (6, 8, 8, 3), dtype=np.uint8)
        pooled = model.capture_pre_mlp(images, 1).data.mean(axis=2).reshape(-1, cfg.d_model)
        scaler, centroids = pick_router(pooled)
        expert_init.moefy_layer(model, 1, moe.Router(T.parameter(centroids), scaler,
                                                     top_k=top_k))
        result = model.forward(images, train=True, rng=Rng(1))
        active = np.count_nonzero(result.routing[1].expert_counts)
        shapes = {(rows, backbone.N_PX, cfg.d_model) for rows in (len(pooled), len(pooled) * top_k)}
        return active, len([a for a in held_arrays(result.logits) if a.shape in shapes])

    @staticmethod
    def two_experts(pooled):
        """Every scaled patch lies in the positive orthant, so the two
        positive centroids beat the two negative ones: 1 or 2 experts at
        top-1, exactly 2 at top-2."""
        d = pooled.shape[1]
        ones = np.ones(d)
        scaler = T.ScalerParams(np.full(d, -10.0), np.full(d, 10.0))
        return scaler, np.stack([ones, ones + np.eye(d)[0], -ones, -ones])

    @staticmethod
    def four_experts(pooled):
        """Four patches' own scaled features as centroids: each of them
        routes to its own expert at top-1, so all four get rows."""
        scaler = T.minmax_fit(pooled)
        picks = T.minmax_apply(scaler, pooled)[[0, 7, 13, 22]]
        return scaler, picks

    @pytest.mark.parametrize("top_k", [1, 2])
    def test_count_does_not_grow_with_active_experts(self, top_k):
        few, few_held = self.held_full_size(top_k, self.two_experts)
        many, many_held = self.held_full_size(top_k, self.four_experts)
        assert few <= 2 and many >= 3
        # the slot gather and T.add_rows' output; no slot-order copy of the
        # expert outputs is kept
        assert few_held == many_held == 2


class TestRecomputedArrays:
    """T.silu_linear and T.layer_norm recompute in the backward what takes a few
    elementwise passes over their input, and Model.attention merges heads
    with views and adds its residual in the output projection's array."""

    @staticmethod
    def leaf(*shape):
        data = np.random.default_rng(0).standard_normal(shape).astype(np.float32)
        return T.Tensor(data, requires_grad=True)

    @staticmethod
    def same_buffers(arrays, wanted):
        """arrays (owners of their memory) are exactly those of `wanted`."""
        owners = [a if not isinstance(a.base, np.ndarray) else a.base for a in wanted]
        return sorted(map(id, arrays)) == sorted(map(id, owners))

    @pytest.mark.parametrize("residual", [False, True], ids=["plain", "residual"])
    def test_silu_linear_holds_no_silu_output(self, residual):
        """T.silu_linear's tape holds its inputs and its output; the chain it
        replaced also held silu(a) and the sigmoid, each as large as a."""
        a, w, b, r = self.leaf(4, 5), self.leaf(5, 3), self.leaf(3), self.leaf(4, 3)
        ins = [a, w, b, r] if residual else [a, w, b]
        out = T.silu_linear(*ins)
        assert self.same_buffers(held_arrays(out), [t.data for t in ins + [out]])
        chain = held_arrays(silu_linear_chain_oracle(*ins))
        assert len([arr for arr in chain if arr.size == a.data.size]) == 3

    def test_layer_norm_holds_no_other_full_size_buffer(self):
        x, gain, bias = self.leaf(3, 4, 6), self.leaf(6), self.leaf(6)

        def full_size(out):
            return [arr for arr in held_arrays(out) if arr.size == x.data.size]

        out = T.layer_norm(x, gain, bias)
        assert self.same_buffers(full_size(out), [x.data, out.data])
        assert len(full_size(layer_norm_saved_xhat_oracle(x, gain, bias))) == 3

    def test_desk_attention_merges_views_and_holds_one_residual_sum(self, monkeypatch):
        """On a 16-image slice of the desk model, the output projection reads
        T.attention's output through views, and the layer's tape holds no
        (B, P, N_PX, d) array besides its input, the ln1 output, the q/k/v
        projections, the attention output and the residual sum it returns."""
        cfg = backbone.desk_config(2, layers=1)
        model = backbone.Model(cfg, Rng(0))
        images = np.random.default_rng(0).integers(0, 256, (backbone.CAPTURE_CHUNK, 64, 64, 3),
                                                   dtype=np.uint8)
        x = T.Tensor(model.patch_embed(images).data, requires_grad=True)
        made = {name: TestNoTape().spy(monkeypatch, T, name)
                for name in ("layer_norm", "linear", "attention")}
        out = model.attention(model.layers[0], x)
        (normed,), (attn,) = made["layer_norm"], made["attention"]
        q, k, v, projected = made["linear"]
        assert projected is out
        proj_input = out._parents[1]
        assert np.shares_memory(proj_input.data, attn.data)
        full = [arr for arr in held_arrays(out) if arr.size == x.data.size]
        assert self.same_buffers(full, [t.data for t in (x, normed, q, k, v, attn, out)])


class TestAccumulate:
    def test_first_grad_takes_the_parameter_layout(self):
        p = T.parameter(np.zeros((3, 4)))
        g = np.arange(12.0, dtype=np.float32).reshape(4, 3).T
        p._accumulate(g)
        assert p.grad.strides == p.data.strides and p.grad.flags.c_contiguous
        assert np.array_equal(p.grad, g)
        p._accumulate(g)
        assert np.array_equal(p.grad, 2 * g)

    def test_first_grad_of_a_transposed_view_takes_its_layout(self):
        view = T.transpose(T.parameter(np.zeros((3, 4))), (1, 0))
        view._accumulate(np.ones((4, 3), dtype=np.float32))
        assert view.grad.strides == view.data.strides

    def test_negative_zero_lands_as_positive_zero(self):
        p = T.parameter(np.ones(4))
        p._accumulate(np.array([-0.0, 0.0, -1.0, -0.0], dtype=np.float32))
        assert p.grad.tobytes() == np.array([0.0, 0.0, -1.0, 0.0], np.float32).tobytes()
