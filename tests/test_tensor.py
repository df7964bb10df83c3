import io
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from patchmoe import tensor as T
from util_fd import gradcheck
from util_oracles import attention_chain_oracle, linear_chain_oracle


@pytest.fixture
def nprng():
    return np.random.default_rng(0)


class TestMatmul:
    def test_identity(self):
        a = T.Tensor(np.eye(2))
        b = T.Tensor([[1.0, 2.0], [3.0, 4.0]])
        assert np.allclose(T.matmul(a, b).data, [[1, 2], [3, 4]])

    def test_hand_computed(self):
        out = T.matmul(T.Tensor([[1.0, 2.0]]), T.Tensor([[3.0], [4.0]]))
        assert np.allclose(out.data, [[11.0]])

    def test_zero_case(self, nprng):
        out = T.matmul(T.Tensor(np.zeros((2, 3))), T.Tensor(nprng.standard_normal((3, 2))))
        assert np.all(out.data == 0)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            T.matmul(T.Tensor(np.zeros((2, 3))), T.Tensor(np.zeros((2, 3))))


class TestSoftmax:
    def test_symmetry(self):
        assert np.allclose(T.softmax(T.Tensor([0.0, 0.0]), axis=0).data, [0.5, 0.5])

    def test_analytic_ratio(self):
        out = T.softmax(T.Tensor([math.log(1.0), math.log(3.0)]), axis=0)
        assert np.allclose(out.data, [0.25, 0.75], atol=1e-6)

    def test_stabilized(self):
        out = T.softmax(T.Tensor([1000.0, 0.0]), axis=0)
        assert np.all(np.isfinite(out.data))
        assert out.data[0] == pytest.approx(1.0)

    @given(st.lists(st.floats(-50, 50), min_size=1, max_size=12))
    @settings(max_examples=50, deadline=None)
    def test_rows_sum_to_one_and_positive(self, xs):
        out = T.softmax(T.Tensor(np.asarray(xs, dtype=np.float64)), axis=0).data
        assert abs(out.sum() - 1.0) < 1e-6
        assert np.all(out > 0)


class TestLayerNorm:
    def test_constant_input_maps_to_zero(self):
        x = T.Tensor(np.full((3, 4), 7.0))
        out = T.layer_norm(x, T.Tensor(np.ones(4)), T.Tensor(np.zeros(4)))
        assert np.allclose(out.data, 0.0, atol=1e-3)

    def test_two_point_case(self):
        out = T.layer_norm(T.Tensor([1.0, 3.0]), T.Tensor(np.ones(2)), T.Tensor(np.zeros(2)))
        assert np.allclose(out.data, [-1.0, 1.0], atol=1e-5)

    def test_zero_gain_broadcasts_bias(self, nprng):
        x = T.Tensor(nprng.standard_normal((2, 5)))
        bias = np.arange(5.0, dtype=np.float32)
        out = T.layer_norm(x, T.Tensor(np.zeros(5)), T.Tensor(bias))
        assert np.allclose(out.data, np.broadcast_to(bias, (2, 5)))


class TestActivations:
    def test_silu_zero(self):
        assert T.silu(T.Tensor([0.0])).data[0] == 0.0

    def test_clamp_min_negative(self):
        assert T.clamp_min(T.Tensor([-1.0]), 0.0).data[0] == 0.0

    def test_silu_one(self):
        assert T.silu(T.Tensor([1.0])).data[0] == pytest.approx(1.0 / (1.0 + math.exp(-1)))


class TestMinMax:
    def test_fit_by_inspection(self):
        p = T.minmax_fit(np.array([[0.0, 2.0], [1.0, 4.0]]))
        assert np.allclose(p.min, [0, 2]) and np.allclose(p.max, [1, 4])
        assert not p.degenerate.any()

    def test_single_row_degenerate(self):
        p = T.minmax_fit(np.array([[3.0, 5.0]]))
        assert p.degenerate.all()
        assert np.allclose(T.minmax_apply(p, np.array([[3.0, 5.0]])), 0.0)

    def test_apply_formula(self):
        p = T.ScalerParams(np.array([0.0]), np.array([2.0]))
        assert T.minmax_apply(p, np.array([1.0]))[0] == pytest.approx(0.5)

    def test_round_trip(self, nprng):
        x = nprng.standard_normal((10, 4))
        p = T.minmax_fit(x)
        assert np.allclose(T.minmax_invert(p, T.minmax_apply(p, x)), x, atol=1e-6)

    def test_idempotent_on_unit_data(self, nprng):
        x = nprng.random((6, 3))
        x[0] = 0.0
        x[1] = 1.0
        p = T.minmax_fit(x)
        assert np.allclose(T.minmax_apply(p, x), x, atol=1e-6)

    def test_channel_mismatch(self):
        p = T.ScalerParams(np.zeros(3), np.ones(3))
        with pytest.raises(ValueError):
            T.minmax_apply(p, np.zeros((2, 4)))

    def test_empty_input(self):
        with pytest.raises(ValueError):
            T.minmax_fit(np.zeros((0, 3)))


class TestCosine:
    def test_matrix_matches_scalar(self, nprng):
        x = nprng.standard_normal((3, 4))
        c = nprng.standard_normal((2, 4))
        mat = T.cosine_matrix(T.Tensor(x), T.Tensor(c)).data
        for i in range(3):
            for j in range(2):
                pair = float(x[i] @ c[j]) / (np.linalg.norm(x[i]) * np.linalg.norm(c[j]))
                assert mat[i, j] == pytest.approx(pair, abs=1e-5)


OPS = {
    "add": (lambda a, b: T.add(a, b), [(3, 4), (3, 4)]),
    "add_broadcast": (lambda a, b: T.add(a, b), [(3, 4), (4,)]),
    "sub": (lambda a, b: T.sub(a, b), [(2, 3), (2, 3)]),
    "mul": (lambda a, b: T.mul(a, b), [(3, 4), (3, 4)]),
    "mul_broadcast": (lambda a, b: T.mul(a, b), [(2, 3, 4), (4,)]),
    "div": (lambda a, b: T.div(a, T.add(T.mul(b, b), T.Tensor(1.0))), [(3,), (3,)]),
    "matmul": (lambda a, b: T.matmul(a, b), [(3, 4), (4, 2)]),
    "matmul_batched": (lambda a, b: T.matmul(a, b), [(2, 3, 4), (2, 4, 2)]),
    "matmul_broadcast_weight": (lambda a, b: T.matmul(a, b), [(2, 3, 4), (4, 5)]),
    "linear": (lambda x, w, b: T.linear(x, w, b), [(3, 4), (4, 2), (2,)]),
    "linear_broadcast_weight": (lambda x, w, b: T.linear(x, w, b), [(2, 3, 4), (4, 5), (5,)]),
    "attention": (lambda q, k, v: T.attention(q, k, v, 0.7), [(2, 2, 3, 4)] * 3),
    "reshape": (lambda a: T.reshape(a, (6,)), [(2, 3)]),
    "transpose": (lambda a: T.transpose(a, (1, 0, 2)), [(2, 3, 4)]),
    "sum_all": (lambda a: T.tsum(a), [(3, 4)]),
    "sum_axis": (lambda a: T.tsum(a, axis=1), [(3, 4)]),
    "mean_axis": (lambda a: T.tmean(a, axis=0, keepdims=True), [(3, 4)]),
    "take": (lambda a: T.take(a, np.array([2, 0, 2])), [(4, 3)]),
    "scatter_rows": (lambda a: T.scatter_rows(a, np.array([1, 3, 0]), 5), [(3, 2)]),
    "sqrt": (lambda a: T.sqrt(T.add(T.mul(a, a), T.Tensor(1.0))), [(4,)]),
    "softmax": (lambda a: T.softmax(a, axis=-1), [(3, 5)]),
    "log_softmax": (lambda a: T.log_softmax(a, axis=-1), [(3, 5)]),
    "layer_norm": (lambda x, g, b: T.layer_norm(x, g, b), [(3, 6), (6,), (6,)]),
    "clamp_min": (lambda a: T.clamp_min(T.add(a, T.Tensor(0.3)), 0.0), [(3, 4)]),
    "silu": (lambda a: T.silu(a), [(3, 4)]),
    "cosine_matrix": (lambda a, b: T.cosine_matrix(a, b), [(3, 4), (2, 4)]),
}


@pytest.mark.parametrize("name", sorted(OPS))
def test_backward_matches_finite_differences(name):
    op, shapes = OPS[name]
    for seed in range(3):
        gradcheck(op, shapes, np.random.default_rng(seed), label=name)


class TestFusedNodesMatchChains:
    """T.attention and T.linear give the op chains they replace bit for bit:
    output and every input gradient, sign of zero included."""

    @staticmethod
    def runner(shapes, cotangent_shape, seed, views=False):
        """fn -> [fn's output, each input's grad] under one fixed cotangent.
        With views, each input is a head-split transposed view of a
        (B, N, heads, dh) leaf, as in Model.attention."""
        rng = np.random.default_rng(seed)
        dtype = T.default_dtype()
        leaves = [rng.standard_normal((s[0], s[2], s[1], s[3]) if views else s).astype(dtype)
                  for s in shapes]
        cot = rng.standard_normal(cotangent_shape).astype(dtype)

        def run(fn):
            ins = [T.Tensor(a, requires_grad=True) for a in leaves]
            out = fn(*[T.transpose(t, (0, 2, 1, 3)) for t in ins] if views else ins)
            out.backward(cot)
            return [out.data] + [t.grad for t in ins]

        return run

    @settings(max_examples=40, deadline=None)
    @given(b=st.integers(1, 3), heads=st.integers(1, 3), n=st.integers(1, 9),
           dh=st.integers(1, 5), scale=st.floats(0.05, 4.0), views=st.booleans(),
           seed=st.integers(0, 2**16), dtype=st.sampled_from(["float32", "float64"]))
    def test_attention(self, b, heads, n, dh, scale, views, seed, dtype):
        T.set_default_dtype(dtype)
        try:
            shape = (b, heads, n, dh)
            run = self.runner([shape] * 3, shape, seed, views)
            fused = run(lambda q, k, v: T.attention(q, k, v, scale))
            chain = run(lambda q, k, v: attention_chain_oracle(q, k, v, scale))
        finally:
            T.set_default_dtype("float32")
        assert fused[0].dtype == np.dtype(dtype)
        for got, want in zip(fused, chain):
            assert got.shape == want.shape and got.tobytes() == want.tobytes()

    @settings(max_examples=30, deadline=None)
    @given(lead=st.lists(st.integers(1, 4), min_size=1, max_size=3),
           d_in=st.integers(1, 6), d_out=st.integers(1, 6),
           seed=st.integers(0, 2**16), dtype=st.sampled_from(["float32", "float64"]))
    def test_linear(self, lead, d_in, d_out, seed, dtype):
        T.set_default_dtype(dtype)
        try:
            shapes = [(*lead, d_in), (d_in, d_out), (d_out,)]
            run = self.runner(shapes, (*lead, d_out), seed)
            fused = run(T.linear)
            chain = run(linear_chain_oracle)
        finally:
            T.set_default_dtype("float32")
        for got, want in zip(fused, chain):
            assert got.shape == want.shape and got.tobytes() == want.tobytes()

    def test_shape_checks(self):
        q = T.Tensor(np.zeros((1, 2, 3, 4)))
        with pytest.raises(ValueError):
            T.attention(q, T.Tensor(np.zeros((1, 2, 5, 4))), q, 1.0)
        with pytest.raises(ValueError):
            T.linear(T.Tensor(np.zeros((2, 3))), T.Tensor(np.zeros((4, 2))),
                     T.Tensor(np.zeros(2)))


class TestAttentionBlocks:
    """T.attention works through the leading (image) axis one block at a
    time; the block size changes no byte of the output or of any input
    gradient."""

    @staticmethod
    def run(monkeypatch, block_bytes, leaves, cot, requires, views):
        monkeypatch.setattr(T, "ATTN_BLOCK_BYTES", block_bytes)
        ins = [T.Tensor(a, requires_grad=r) for a, r in zip(leaves, requires)]
        out = T.attention(*[T.transpose(t, (0, 2, 1, 3)) for t in ins] if views else ins, 0.3)
        if any(requires):
            out.backward(cot)
        return [out.data] + [t.grad for t in ins]

    @staticmethod
    def assert_same(got, want):
        for g, w in zip(got, want):
            assert (g is None) == (w is None)
            if g is not None:
                assert g.dtype == w.dtype and g.shape == w.shape and g.tobytes() == w.tobytes()

    @pytest.mark.parametrize("per_block, n_blocks", [(1, 5), (2, 3), (8, 1)],
                             ids=["one-image", "remainder", "larger-than-batch"])
    @pytest.mark.parametrize("requires", [(True, True, True), (False, True, False),
                                          (True, False, True), (False, False, False)],
                             ids=["qkv", "k", "qv", "none"])
    @pytest.mark.parametrize("views", [False, True], ids=["contiguous", "head-split"])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_block_size_changes_no_byte(self, monkeypatch, per_block, n_blocks, requires,
                                        views, dtype):
        b, heads, n, dh = 5, 2, 12, 4
        block_bytes = per_block * heads * n * n * np.dtype(dtype).itemsize
        monkeypatch.setattr(T, "ATTN_BLOCK_BYTES", block_bytes)
        assert len(T._image_blocks((b, heads, n, n), np.dtype(dtype).itemsize)[0]) == n_blocks
        rng = np.random.default_rng(per_block)
        leaves = [rng.standard_normal((b, n, heads, dh) if views else (b, heads, n, dh))
                  .astype(dtype) for _ in range(3)]
        cot = rng.standard_normal((b, heads, n, dh)).astype(dtype)
        blocked = self.run(monkeypatch, block_bytes, leaves, cot, requires, views)
        whole = self.run(monkeypatch, 1 << 62, leaves, cot, requires, views)
        self.assert_same(blocked, whole)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_2d_call_is_one_block(self, monkeypatch, dtype):
        rng = np.random.default_rng(0)
        leaves = [rng.standard_normal((7, 3)).astype(dtype) for _ in range(3)]
        cot = rng.standard_normal((7, 3)).astype(dtype)
        tiny = self.run(monkeypatch, 1, leaves, cot, (True, True, True), False)
        whole = self.run(monkeypatch, 1 << 62, leaves, cot, (True, True, True), False)
        self.assert_same(tiny, whole)


def test_minmax_apply_gradcheck():
    params = T.ScalerParams(np.array([-1.0, 0.0, 0.5]), np.array([1.0, 0.0, 2.0]))
    gradcheck(lambda x: T.minmax_apply(params, x), [(4, 3)],
              np.random.default_rng(7), label="minmax_apply")


class TestRng:
    def test_bit_identical_streams(self):
        a = T.Rng(123).normal((100,))
        b = T.Rng(123).normal((100,))
        assert np.array_equal(a, b)

    def test_children_are_independent_but_deterministic(self):
        r = T.Rng(5)
        assert np.array_equal(r.child(1).normal((8,)), T.Rng(5).child(1).normal((8,)))
        assert not np.array_equal(T.Rng(5).child(1).normal((8,)), T.Rng(5).child(2).normal((8,)))


class TestBlob:
    def test_round_trip(self, nprng):
        for dtype in (np.float32, np.float64):
            buf = io.BytesIO()
            arr = nprng.standard_normal((2, 3, 4)).astype(dtype)
            T.write_blob(buf, arr)
            buf.seek(0)
            out = T.read_blob(buf)
            assert out.dtype == dtype
            assert np.array_equal(out, arr)

    def test_multiple_records_in_order(self, nprng):
        """Each read starts where the previous record ended."""
        buf = io.BytesIO()
        a = nprng.standard_normal(3).astype(np.float32)
        b = nprng.standard_normal((2, 2)).astype(np.float32)
        T.write_blob(buf, a)
        T.write_blob(buf, b)
        end = buf.tell()
        buf.seek(0)
        assert np.array_equal(T.read_blob(buf), a)
        assert np.array_equal(T.read_blob(buf), b)
        assert buf.tell() == end

    def test_bad_magic(self):
        with pytest.raises(ValueError):
            T.read_blob(io.BytesIO(b"NOTMAGIC" + b"\0" * 16))

    def test_scalar_rank_zero(self):
        buf = io.BytesIO()
        T.write_blob(buf, np.float32(3.5))
        buf.seek(0)
        out = T.read_blob(buf)
        assert out.shape == ()
        assert out == np.float32(3.5)


def test_dropout_zero_is_identity(nprng):
    x = T.Tensor(nprng.standard_normal((4, 4)))
    assert T.dropout(x, 0.0, T.Rng(0)) is x


def test_dropout_preserves_expectation():
    x = T.Tensor(np.ones((2000,)))
    out = T.dropout(x, 0.25, T.Rng(3))
    assert out.data.mean() == pytest.approx(1.0, abs=0.05)
