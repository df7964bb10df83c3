import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from patchmoe import affinity, moe, training
from patchmoe import tensor as T
from patchmoe.tensor import ScalerParams, Tensor
from util_model import assert_param_grads
from util_oracles import moe_forward_gate_matrix_oracle


def identity_scaler(d):
    return ScalerParams(np.zeros(d), np.ones(d))


def make_expert(d, d_ff, d_e, rng, gamma=0.0, indices=None):
    if indices is None:
        indices = np.arange(d_e)
    return moe.ExpertMLP(
        indices=np.asarray(indices),
        w1=T.parameter(rng.standard_normal((d, d_e)) * 0.5),
        b1=T.parameter(rng.standard_normal(d_e) * 0.1),
        w2=T.parameter(rng.standard_normal((d_e, d)) * 0.5),
        b2=T.parameter(rng.standard_normal(d) * 0.1),
        gamma=T.parameter(np.asarray(float(gamma))),
        x_corr=T.parameter(rng.standard_normal(d) * 0.1),
    )


def make_block(d=4, e=2, d_ff=8, d_e=8, top_k=1, seed=0, gamma=0.0, temperature=1.0,
               gate_mode="renorm", centroids=None):
    rng = np.random.default_rng(seed)
    if centroids is None:
        centroids = rng.uniform(0.1, 1.0, (e, d))
    router = moe.Router(centroids=T.parameter(centroids), scaler=identity_scaler(d),
                        temperature=temperature, top_k=top_k, gate_mode=gate_mode)
    experts = [make_expert(d, d_ff, d_e, rng, gamma=gamma) for _ in range(e)]
    return moe.MoEBlock(router=router, experts=experts)


class TestRouter:
    def test_zero_centroid_rejected(self):
        with pytest.raises(ValueError, match="non-zero"):
            moe.Router(T.parameter(np.array([[0.0, 0.0]])), identity_scaler(2))

    def test_top_k_range(self):
        with pytest.raises(ValueError):
            moe.Router(T.parameter(np.ones((2, 3))), identity_scaler(3), top_k=3)


class TestRoutingLogits:
    def test_self_similarity_is_maximal(self):
        c = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
        block = make_block(d=3, e=2, centroids=c, temperature=0.5)
        # Patch pixel-average equals centroid 0 (scaler is identity on [0,1]).
        x = Tensor(np.tile(c[0], (1, 1, 2, 1)))
        logits = moe.routing_logits(x, block.router).data
        assert logits[0, 0, 0] == pytest.approx(1.0 / 0.5, abs=1e-5)
        assert logits[0, 0, 0] > logits[0, 0, 1]

    def test_single_expert_shape(self):
        block = make_block(d=4, e=1)
        x = Tensor(np.random.default_rng(0).random((2, 3, 2, 4)))
        assert moe.routing_logits(x, block.router).shape == (2, 3, 1)

    def test_orthogonal_centroids(self):
        c = np.array([[1.0, 0.0], [0.0, 1.0]])
        block = make_block(d=2, e=2, centroids=c)
        x = Tensor(np.array([1.0, 0.0]).reshape(1, 1, 1, 2))
        logits = moe.routing_logits(x, block.router).data[0, 0]
        assert np.allclose(logits, [1.0, 0.0], atol=1e-5)

    def test_channel_mismatch(self):
        block = make_block(d=4)
        with pytest.raises(ValueError):
            moe.routing_logits(Tensor(np.ones((1, 1, 1, 5))), block.router)


class TestSelectExperts:
    def test_top_k_equals_e_recovers_softmax(self):
        logits = Tensor(np.array([[[0.3, -1.0, 2.0]]]))
        idx, gates, probs = moe.select_experts(logits, top_k=3)
        full = np.take_along_axis(probs.data, idx, axis=-1)
        assert np.allclose(np.sort(gates.data), np.sort(full), atol=1e-6)
        assert np.allclose(gates.data.sum(-1), 1.0, atol=1e-6)

    def test_argmax_by_inspection(self):
        idx, gates, _ = moe.select_experts(Tensor(np.array([[[2.0, 1.0, 1.0]]])), top_k=1)
        assert idx[0, 0, 0] == 0
        assert gates.data[0, 0, 0] == pytest.approx(1.0)

    def test_tie_break_lower_index(self):
        idx, _, _ = moe.select_experts(Tensor(np.array([[[1.0, 1.0]]])), top_k=1)
        assert idx[0, 0, 0] == 0

    def test_raw_gate_mode_keeps_softmax_mass(self):
        logits = Tensor(np.array([[[1.0, 0.0, -1.0]]]))
        _, gates, probs = moe.select_experts(logits, top_k=1, gate_mode="raw")
        assert gates.data[0, 0, 0] == pytest.approx(probs.data[0, 0].max())

    def test_top_k_too_large(self):
        with pytest.raises(ValueError):
            moe.select_experts(Tensor(np.zeros((1, 1, 2))), top_k=3)


class TestExpertForward:
    def test_gamma_one_returns_correction(self):
        rng = np.random.default_rng(0)
        ex = make_expert(4, 8, 8, rng, gamma=1.0)
        x = Tensor(rng.standard_normal((5, 4)))
        out = moe.expert_forward(x, ex).data
        assert np.allclose(out, np.tile(ex.x_corr.data, (5, 1)), atol=1e-6)

    def test_gamma_zero_full_permutation_is_dense(self):
        rng = np.random.default_rng(1)
        ex = make_expert(4, 8, 8, rng, gamma=0.0)
        x = rng.standard_normal((6, 4))
        out = moe.expert_forward(Tensor(x), ex).data
        a = x @ ex.w1.data + ex.b1.data
        dense = (a * (1 / (1 + np.exp(-a)))) @ ex.w2.data + ex.b2.data
        assert np.allclose(out, dense, atol=1e-5)

    def test_hand_sized_case(self):
        # d=2, d_ff=4, d_e=2 with explicit weights.
        w1 = np.array([[1.0, 0.0], [0.0, -1.0]])   # already sliced to d_e=2
        w2 = np.array([[1.0, 2.0], [3.0, 4.0]])
        ex = moe.ExpertMLP(
            indices=np.array([0, 2]),
            w1=T.parameter(w1), b1=T.parameter(np.array([0.5, 0.5])),
            w2=T.parameter(w2), b2=T.parameter(np.array([1.0, -1.0])),
            gamma=T.parameter(np.asarray(0.25)), x_corr=T.parameter(np.array([4.0, 8.0])),
        )
        # the input is already the layer's MLP-input norm output
        x = Tensor(np.array([[-1.0, 1.0]]))
        # pre-act = [-1+0.5, -1+0.5] = [-0.5, -0.5]
        # -> silu = -0.5 / (1 + e^0.5) = -0.18877033 for both
        # out = -0.18877033 * [1+3, 2+4] + b2 = [0.24491866, -2.13262201]
        # blend = 0.75*out + 0.25*[4,8] = [1.18368900, 0.40053350]
        out = moe.expert_forward(x, ex).data
        assert np.allclose(out, [[1.183689, 0.4005335]], atol=1e-4)


class TestMoEForward:
    def x(self, b=2, p=3, n_px=2, d=4, seed=0):
        return Tensor(np.random.default_rng(seed).random((b, p, n_px, d)))

    @pytest.mark.parametrize("top_k", [1, 2])
    def test_experts_read_captured_not_x(self, top_k):
        """Experts take the rows of `captured`, the MLP-input norm output the
        router routes on: with it held fixed, noise in place of x changes
        nothing."""
        block = make_block(e=3, top_k=top_k, seed=5, gamma=0.3)
        captured = self.x(seed=6)
        out, record = moe.moe_forward(self.x(seed=7), captured, block)
        noise = Tensor(np.random.default_rng(8).standard_normal(captured.shape) * 100)
        out2, record2 = moe.moe_forward(noise, captured, block)
        assert out.data.tobytes() == out2.data.tobytes()
        assert record.indices.tobytes() == record2.indices.tobytes()

    def test_single_expert_gate_is_one(self):
        block = make_block(e=1)
        x = self.x()
        out, record = moe.moe_forward(x, x, block)
        direct = moe.expert_forward(T.reshape(x, (12, 4)), block.experts[0]).data
        assert np.allclose(out.data.reshape(12, 4), direct, atol=1e-6)
        assert np.allclose(record.gates, 1.0)

    def test_top1_equals_selected_expert(self):
        block = make_block(e=3, top_k=1, seed=3)
        x = self.x(seed=4)
        out, record = moe.moe_forward(x, x, block)
        flat = x.data.reshape(-1, 2, 4)
        for patch in range(6):
            e = record.indices.reshape(-1)[patch]
            expected = moe.expert_forward(Tensor(flat[patch]), block.experts[e]).data
            assert np.allclose(out.data.reshape(-1, 2, 4)[patch], expected, atol=1e-5)

    def test_identical_experts_top2_symmetry(self):
        block = make_block(e=2, top_k=2, seed=5)
        block.experts[1] = block.experts[0]
        x = self.x(seed=6)
        out, _ = moe.moe_forward(x, x, block)
        single = moe.expert_forward(T.reshape(x, (12, 4)), block.experts[0]).data
        assert np.allclose(out.data.reshape(12, 4), single, atol=1e-5)

    def test_gate_normalization_many_configs(self):
        rng = np.random.default_rng(0)
        for trial in range(50):
            e = int(rng.integers(1, 6))
            k = int(rng.integers(1, e + 1))
            block = make_block(d=4, e=e, top_k=k, seed=trial)
            x = self.x(seed=trial)
            _, record = moe.moe_forward(x, x, block)
            assert np.allclose(record.gates.sum(-1), 1.0, atol=1e-6)

    def test_pixel_coherence(self):
        # Experts that output distinct constants expose which expert each
        # pixel actually went through.
        block = make_block(e=3, top_k=1, seed=7, gamma=1.0)
        for e, ex in enumerate(block.experts):
            ex.x_corr.data[:] = float(e + 1)
        x = self.x(b=3, p=5, seed=8)
        out, record = moe.moe_forward(x, x, block)
        for bi in range(3):
            for pi in range(5):
                vals = np.unique(out.data[bi, pi])
                assert vals.size == 1
                assert vals[0] == pytest.approx(record.indices[bi, pi, 0] + 1)

    def test_argmax_invariance_under_channel_rescale(self):
        rng = np.random.default_rng(0)
        for trial in range(50):
            d, e = 4, 3
            raw = rng.random((40, d)) * rng.uniform(0.5, 3.0)
            scaler = T.minmax_fit(raw)
            centroids = rng.uniform(0.05, 1.0, (e, d))
            x = raw[:32].reshape(2, 4, 4, d)
            scale = rng.uniform(0.2, 5.0, d)

            def route(xa, sc):
                router = moe.Router(T.parameter(centroids), sc)
                pooled_logits = moe.routing_logits(Tensor(xa), router)
                idx, _, _ = moe.select_experts(pooled_logits, top_k=1)
                return idx

            idx1 = route(x, scaler)
            idx2 = route(x * scale, T.minmax_fit(raw * scale))
            assert np.array_equal(idx1, idx2)

    def test_expert_permutation_consistency(self):
        block = make_block(e=3, top_k=2, seed=9)
        x = self.x(seed=10)
        out, record = moe.moe_forward(x, x, block)
        perm = np.array([2, 0, 1])  # new position of old expert i is perm^-1
        inv = np.argsort(perm)
        block2 = moe.MoEBlock(
            router=moe.Router(T.parameter(block.router.centroids.data[perm]),
                              block.router.scaler, top_k=2),
            experts=[block.experts[i] for i in perm])
        out2, record2 = moe.moe_forward(x, x, block2)
        assert np.allclose(out.data, out2.data, atol=1e-6)
        assert np.array_equal(inv[record.indices], record2.indices)

    def test_gradients_flow_through_gates_and_experts(self):
        T.set_default_dtype("float64")
        try:
            block = make_block(d=4, e=2, d_ff=6, d_e=3, top_k=2, seed=11, gamma=0.3)
            x = Tensor(np.random.default_rng(12).random((1, 3, 2, 4)), requires_grad=True)
            cot = np.random.default_rng(13).standard_normal((1, 3, 2, 4))

            def loss_fn():
                out, _ = moe.moe_forward(x, x, block)
                return T.tsum(T.mul(out, Tensor(cot)))

            named = {"x": x, "centroids": block.router.centroids}
            for e, ex in enumerate(block.experts):
                named.update({f"e{e}.{k}": v for k, v in ex.parameters().items()})
            assert_param_grads(loss_fn, named)
        finally:
            T.set_default_dtype("float32")


class TestDispatchOracle:
    """The slot-indexed dispatch gives the dense-gate-matrix dispatch's
    output and gradients bit for bit."""

    @settings(max_examples=40, deadline=None)
    @given(b=st.integers(1, 3), p=st.integers(1, 5), e=st.integers(1, 8),
           k_frac=st.floats(0.0, 1.0), gate_mode=st.sampled_from(["renorm", "raw"]),
           spread=st.sampled_from([0.05, 1.0]), seed=st.integers(0, 2**16),
           dtype=st.sampled_from(["float32", "float64"]))
    def test_matches_gate_matrix_oracle(self, b, p, e, k_frac, gate_mode, spread,
                                        seed, dtype):
        # a small centroid spread routes most patches to a few experts, so
        # some experts get no rows at all
        top_k = 1 + int(k_frac * (e - 1))
        T.set_default_dtype(dtype)
        try:
            rng = np.random.default_rng(seed)
            centroids = 0.5 + spread * rng.uniform(-0.45, 0.45, (e, 4))
            block = make_block(d=4, e=e, top_k=top_k, seed=seed, gamma=0.3,
                               gate_mode=gate_mode, centroids=centroids)
            x_np = rng.random((b, p, 2, 4))
            cap_np = rng.random((b, p, 2, 4))
            cot = Tensor(rng.standard_normal((b, p, 2, 4)))
            named = {"centroids": block.router.centroids}
            for i, ex in enumerate(block.experts):
                named.update({f"e{i}.{n}": v for n, v in ex.parameters().items()})

            def run(forward):
                for t in named.values():
                    t.grad = None
                x = T.parameter(x_np)
                captured = T.parameter(cap_np)
                out = forward(x, captured, block)
                T.tsum(T.mul(out, cot)).backward()
                # an expert that got no rows keeps grad None on both paths
                grads = {n: None if t.grad is None else t.grad.copy()
                         for n, t in named.items()}
                grads.update(x=x.grad, captured=captured.grad)
                return out.data, grads

            out, grads = run(lambda x, c, blk: moe.moe_forward(x, c, blk)[0])
            ref, ref_grads = run(moe_forward_gate_matrix_oracle)
        finally:
            T.set_default_dtype("float32")
        assert out.dtype == np.dtype(dtype)
        assert out.tobytes() == ref.tobytes()
        assert grads.keys() == ref_grads.keys()
        for name, g in ref_grads.items():
            if g is None:
                assert grads[name] is None, name
            else:
                assert grads[name].tobytes() == g.tobytes(), name


class TestDispatchStats:
    def record(self, indices, e):
        idx = np.asarray(indices).reshape(1, -1, 1)
        return moe.RoutingRecord(idx, np.ones_like(idx, dtype=float),
                                 np.zeros((1, idx.shape[1], e)))

    def test_collapse(self):
        rep = moe.dispatch_stats(self.record([0, 0, 0, 0], e=3))
        assert rep.entropy == 0.0
        assert np.allclose(rep.load_fractions, [1, 0, 0])
        assert rep.max_load_ratio == pytest.approx(3.0)

    def test_uniform(self):
        rep = moe.dispatch_stats(self.record([0, 1, 2], e=3))
        assert rep.entropy == pytest.approx(np.log(3))
        assert rep.max_load_ratio == pytest.approx(1.0)

    def test_hand_counted(self):
        rep = moe.dispatch_stats(self.record([0, 0, 1, 2], e=3))
        assert np.allclose(rep.load_fractions, [0.5, 0.25, 0.25])
        expected = -(0.5 * np.log(0.5) + 2 * 0.25 * np.log(0.25))
        assert rep.entropy == pytest.approx(expected)


def test_entropy_agrees_across_reports():
    counts = np.array([5, 0, 3, 1, 0, 7])
    record = moe.RoutingRecord(np.repeat(np.arange(6), counts).reshape(1, -1, 1),
                               np.ones((1, counts.sum(), 1)),
                               np.zeros((1, counts.sum(), 6)))
    from_dispatch = moe.dispatch_stats(record).entropy
    from_eval = training.EvalResult(0.0, 0.0, {}, np.zeros(0),
                                    expert_counts={1: counts}).expert_entropy(1)
    matrix = affinity.AffinityMatrix(counts[None, :].astype(float), "pre_init", 1.0, 0.0)
    from_affinity = affinity.collapse_metrics(matrix).column_entropy
    p = counts[counts > 0] / counts.sum()
    assert from_dispatch == from_eval == from_affinity
    assert from_dispatch == pytest.approx(-(p * np.log(p)).sum())
