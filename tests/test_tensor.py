import io
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from patchmoe import tensor as T
from util_fd import gradcheck
from util_oracles import (attention_chain_oracle, layer_norm_saved_xhat_oracle,
                          linear_chain_oracle, linear_residual_oracle,
                          silu_linear_chain_oracle)


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


INF, NAN = np.inf, np.nan
# rows with +-inf, +-0.0 mixes, all-equal entries and NaNs, in the entries'
# order in which a short row's max could see them
SPECIAL_ROWS = [
    [0.0, -0.0, 0.0, -0.0], [-0.0, -0.0, 0.0, 0.0], [-0.0, 0.0, -1.0, -0.0],
    [-0.0, -0.0, -0.0, -0.0], [1.5, 1.5, 1.5, 1.5], [-2.0, -2.0, -2.0, -2.0],
    [INF, 1.0, -INF, 0.0], [-INF, 2.0, -INF, -0.0], [-INF, -INF, -INF, -INF],
    [INF, INF, 1.0, 2.0], [3.0, -INF, 3.0, 1.0], [NAN, 1.0, 2.0, 3.0],
    [1.0, NAN, INF, -INF], [NAN, NAN, NAN, NAN], [5.0, 4.0, 3.0, NAN],
    [0.3, -1.2, 2.5, 0.7],
]


def max_reference(name, a, axis):
    """softmax and log_softmax with the row max taken by .max, as numpy
    writes them."""
    shifted = a - a.max(axis=axis, keepdims=True)
    if name == "softmax":
        e = np.exp(shifted)
        return e / e.sum(axis=axis, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=axis, keepdims=True))


def attention_max_reference(q, k, v, scale):
    """T.attention's forward with the row max taken by .max."""
    p = (q @ np.swapaxes(k, -1, -2)) * q.dtype.type(scale)
    p = np.exp(p - p.max(axis=-1, keepdims=True))
    return (p / p.sum(axis=-1, keepdims=True)) @ v


def assert_rows_match(got, want, axis):
    """Byte-equal on every row (along axis) that holds no NaN; a row with a
    NaN is all NaN in both, its payload bits aside."""
    assert got.dtype == want.dtype and got.shape == want.shape
    got, want = np.moveaxis(got, axis, -1), np.moveaxis(want, axis, -1)
    nan_rows = np.isnan(want).any(axis=-1)
    assert np.array_equal(np.isnan(got).any(axis=-1), nan_rows)
    assert np.isnan(got[nan_rows]).all() and np.isnan(want[nan_rows]).all()
    assert got[~nan_rows].tobytes() == want[~nan_rows].tobytes()


class TestRowMax:
    """softmax, log_softmax and attention take the row max with
    np.fmax.reduce, which gives .max's value on every row without a NaN."""

    @pytest.mark.parametrize("axis", [-1, 0])
    @pytest.mark.parametrize("name", ["softmax", "log_softmax"])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_byte_equal_to_max_reference(self, dtype, name, axis):
        a = np.array(SPECIAL_ROWS, dtype=dtype)
        a = a if axis == -1 else np.ascontiguousarray(a.T)
        with np.errstate(invalid="ignore", over="ignore"):
            got = getattr(T, name)(T.Tensor(a), axis=axis).data
            want = max_reference(name, a, axis)
        assert_rows_match(got, want, axis)
        assert np.isnan(want).any(axis=axis).sum() == 7  # rows 6, 8, 9, 11-14

    @pytest.mark.parametrize("k_row", [[1.0, -1.0, 2.0, -0.0, 0.5, -2.0, 0.0, 3.0, -0.5],
                                       [0.75] * 9],
                             ids=["mixed", "all-equal"])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_attention_byte_equal_to_max_reference(self, dtype, k_row):
        """With one head dimension each score row is a query times the nine
        keys: zeros of both signs, overflow to +-inf, inf * 0 and NaN."""
        big = np.finfo(dtype).max
        q = np.array([0.0, -0.0, 1.0, big, -big, INF, -INF, NAN, -3.0], dtype)[None, :, None]
        k = np.array(k_row, dtype)[None, :, None]
        v = np.random.default_rng(0).standard_normal((1, len(k_row), 3)).astype(dtype)
        with np.errstate(invalid="ignore", over="ignore"):
            got = T.attention(T.Tensor(q), T.Tensor(k), T.Tensor(v), 0.5).data
            want = attention_max_reference(q, k, v, 0.5)
            scores = (q @ np.swapaxes(k, -1, -2)) * dtype(0.5)
        assert_rows_match(got, want, -1)
        assert np.isnan(want).any() and np.isinf(scores).any()


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
    @staticmethod
    def silu(a):
        """silu(a) through T.silu_linear with an identity weight."""
        return T.silu_linear(T.Tensor([[a]]), T.Tensor([[1.0]]), T.Tensor([0.0])).data[0, 0]

    def test_silu_linear_zero(self):
        assert self.silu(0.0) == 0.0

    def test_clamp_min_negative(self):
        assert T.clamp_min(T.Tensor([-1.0]), 0.0).data[0] == 0.0

    def test_silu_linear_one(self):
        assert self.silu(1.0) == pytest.approx(1.0 / (1.0 + math.exp(-1)))


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
    "sub_broadcast": (lambda a, b: T.sub(a, b), [(2, 3), (3,)]),
    "mul": (lambda a, b: T.mul(a, b), [(3, 4), (3, 4)]),
    "mul_broadcast": (lambda a, b: T.mul(a, b), [(2, 3, 4), (4,)]),
    # a 0-d operand, as in the experts' mul(x_corr, gamma)
    "mul_scalar": (lambda a, b: T.mul(a, b), [(3, 4), ()]),
    # one tensor on both sides, as in cosine_matrix's mul(x, x)
    "mul_self": (lambda a: T.mul(a, a), [(3, 4)]),
    "div": (lambda a, b: T.div(a, T.add(T.mul(b, b), T.Tensor(1.0))), [(3,), (3,)]),
    "div_broadcast": (lambda a, b: T.div(a, T.add(T.mul(b, b), T.Tensor(1.0))),
                      [(2, 3), (3,)]),
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
    "sum_axis_keepdims": (lambda a: T.tsum(a, axis=1, keepdims=True), [(3, 4)]),
    "mean_axis": (lambda a: T.tmean(a, axis=0, keepdims=True), [(3, 4)]),
    "take": (lambda a: T.take(a, np.array([2, 0, 2])), [(4, 3)]),
    "take_distinct": (lambda a: T.take(a, np.array([3, 0, 2])), [(4, 3)]),
    "take_distinct_axis1": (lambda a: T.take(a, np.array([2, 0]), axis=1), [(2, 3, 2)]),
    "split_rows": (lambda a: T.mul(*T.split_rows(a, np.array([2, 0, 2, 1]), [2, 2])), [(4, 3)]),
    "split_rows_permutation": (lambda a: T.mul(*T.split_rows(a, np.array([3, 1, 0, 2]), [2, 2])),
                               [(4, 3)]),
    # row 0 is named by both parts
    "add_rows": (lambda a, b, w: T.add_rows([a, b], w, np.array([3, 0, 4, 1, 0]), 5),
                 [(2, 3), (3, 3), (5,)]),
    "sqrt": (lambda a: T.sqrt(T.add(T.mul(a, a), T.Tensor(1.0))), [(4,)]),
    "softmax": (lambda a: T.softmax(a, axis=-1), [(3, 5)]),
    "log_softmax": (lambda a: T.log_softmax(a, axis=-1), [(3, 5)]),
    "layer_norm": (lambda x, g, b: T.layer_norm(x, g, b), [(3, 6), (6,), (6,)]),
    "layer_norm_3d": (lambda x, g, b: T.layer_norm(x, g, b), [(2, 3, 6), (6,), (6,)]),
    "clamp_min": (lambda a: T.clamp_min(T.add(a, T.Tensor(0.3)), 0.0), [(3, 4)]),
    "silu_linear": (lambda a, w, b: T.silu_linear(a, w, b), [(3, 4), (4, 2), (2,)]),
    # the residual broadcast over the leading axis, as the positions in patch_embed
    "silu_linear_residual": (lambda a, w, b, r: T.silu_linear(a, w, b, r),
                             [(2, 3, 4), (4, 5), (5,), (3, 5)]),
    "linear_residual_broadcast": (lambda x, w, b, r: T.linear(x, w, b, residual=r),
                                  [(2, 3, 4), (4, 5), (5,), (3, 5)]),
    "cosine_matrix": (lambda a, b: T.cosine_matrix(a, b), [(3, 4), (2, 4)]),
}


@pytest.mark.parametrize("name", sorted(OPS))
def test_backward_matches_finite_differences(name):
    op, shapes = OPS[name]
    for seed in range(3):
        gradcheck(op, shapes, np.random.default_rng(seed), label=name)


@pytest.mark.parametrize("name", sorted(n for n, (_, shapes) in OPS.items()
                                         if len(shapes) > 1))
def test_input_without_requires_grad_gets_no_grad(name):
    """Each input in turn is made without requires_grad: its .grad stays
    None through backward(), and every other input receives one."""
    op, shapes = OPS[name]
    rng = np.random.default_rng(0)
    arrays = [rng.standard_normal(s) for s in shapes]
    for const in range(len(shapes)):
        ins = [T.Tensor(a, requires_grad=i != const) for i, a in enumerate(arrays)]
        op(*ins).backward()
        assert [t.grad is None for t in ins] == [i == const for i in range(len(ins))]


class TestBackward:
    def test_cotangent_of_another_shape_is_refused(self):
        """A cotangent that only broadcasts to the output's shape is refused
        before any gradient lands, naming both shapes."""
        x = T.Tensor(np.ones(3), requires_grad=True)
        out = T.mul(x, T.Tensor(2.0))
        for grad in (np.ones(1), np.ones((1, 3)), np.float64(1.0)):
            with pytest.raises(ValueError, match=r"cotangent of shape \(.*\) for an output "
                                                 r"of shape \(3,\)"):
                out.backward(grad)
            assert x.grad is None
        out.backward(np.ones(3))
        assert np.array_equal(x.grad, [2.0, 2.0, 2.0])


# T.attention's input layouts: with axes, each input is a transposed view of
# a contiguous leaf, as a 4-D (B, N, heads, dh) leaf split by heads, or as
# Model.attention's (B, P, N_PX, HEADS, dh) leaf laid out
# (B, N_PX, HEADS, P, dh).
ATTENTION_LAYOUTS = {"contiguous": None, "head-split": (0, 2, 1, 3),
                     "pixel-position": (0, 2, 3, 1, 4)}


class TestFusedNodesMatchChains:
    """T.attention and T.linear give the op chains they replace bit for bit:
    output and every input gradient, sign of zero included."""

    @staticmethod
    def runner(shapes, cotangent_shape, seed, axes=None, negative_zeros=False):
        """(fn, requires) -> [fn's output, each input's grad] under one fixed
        cotangent; requires says which inputs take a gradient (by default
        all), and no backward runs when none does. With axes, each input is
        the transpose(axes) view of a contiguous leaf. With negative_zeros,
        about a third of the cotangent's entries are -0.0."""
        rng = np.random.default_rng(seed)
        dtype = T.default_dtype()
        leaves = [rng.standard_normal(tuple(np.take(s, np.argsort(axes))) if axes else s)
                  .astype(dtype) for s in shapes]
        cot = rng.standard_normal(cotangent_shape).astype(dtype)
        if negative_zeros:
            cot[rng.random(cotangent_shape) < 1 / 3] = -0.0

        def run(fn, requires=None):
            requires = [True] * len(leaves) if requires is None else requires
            ins = [T.Tensor(a, requires_grad=r) for a, r in zip(leaves, requires)]
            out = fn(*[T.transpose(t, axes) for t in ins] if axes else ins)
            if out.requires_grad:
                out.backward(cot)
            return [out.data] + [t.grad for t in ins]

        return run

    @staticmethod
    def assert_same(got, want):
        for g, w in zip(got, want):
            assert (g is None) == (w is None)
            if g is not None:
                assert g.dtype == w.dtype and g.shape == w.shape and g.tobytes() == w.tobytes()

    @settings(max_examples=60, deadline=None)
    @given(b=st.integers(1, 3), n_px=st.integers(1, 3), heads=st.integers(1, 3),
           n=st.integers(1, 9), dh=st.integers(1, 5), scale=st.floats(0.05, 4.0),
           layout=st.sampled_from(sorted(ATTENTION_LAYOUTS)), seed=st.integers(0, 2**16),
           dtype=st.sampled_from(["float32", "float64"]))
    def test_attention(self, b, n_px, heads, n, dh, scale, layout, seed, dtype):
        """Every draw runs each subset of q, k and v taking a gradient, the
        empty one included."""
        T.set_default_dtype(dtype)
        try:
            shape = (b, n_px, heads, n, dh) if layout == "pixel-position" else (b, heads, n, dh)
            run = self.runner([shape] * 3, shape, seed, ATTENTION_LAYOUTS[layout])
            for requires in itertools.product([True, False], repeat=3):
                fused = run(lambda q, k, v: T.attention(q, k, v, scale), requires)
                chain = run(lambda q, k, v: attention_chain_oracle(q, k, v, scale), requires)
                assert fused[0].dtype == np.dtype(dtype)
                self.assert_same(fused, chain)
        finally:
            T.set_default_dtype("float32")

    @settings(max_examples=30, deadline=None)
    @given(lead=st.lists(st.integers(1, 4), min_size=1, max_size=3),
           d_in=st.integers(1, 6), d_out=st.integers(1, 6),
           seed=st.integers(0, 2**16), dtype=st.sampled_from(["float32", "float64"]))
    def test_linear(self, lead, d_in, d_out, seed, dtype):
        """The output is the batched chain's, add(matmul(x, w), b); every
        gradient is the rows chain's (linear_chain_oracle). The two chains'
        outputs can differ: numpy multiplies a batched item of one row as a
        gemv, and the rows chain makes one gemm."""
        T.set_default_dtype(dtype)
        try:
            shapes = [(*lead, d_in), (d_in, d_out), (d_out,)]
            run = self.runner(shapes, (*lead, d_out), seed)
            fused = run(T.linear)
            batched = run(lambda x, w, b: T.add(T.matmul(x, w), b))
            rows = run(linear_chain_oracle)
        finally:
            T.set_default_dtype("float32")
        self.assert_same(fused, [batched[0]] + rows[1:])

    def test_shape_checks(self):
        q = T.Tensor(np.zeros((1, 2, 3, 4)))
        with pytest.raises(ValueError):
            T.attention(q, T.Tensor(np.zeros((1, 2, 5, 4))), q, 1.0)
        # fewer than 3 axes
        flat = T.Tensor(np.zeros((3, 4)))
        with pytest.raises(ValueError, match="3-D"):
            T.attention(flat, flat, flat, 1.0)
        with pytest.raises(ValueError):
            T.linear(T.Tensor(np.zeros((2, 3))), T.Tensor(np.zeros((4, 2))),
                     T.Tensor(np.zeros(2)))
        # shapes a batched matmul plus a broadcast add would take: a weight
        # per leading index, or a bias that is not one entry per output
        x = T.Tensor(np.zeros((2, 4, 3)))
        for w_shape, b_shape in [((2, 3, 5), (5,)), ((1, 3, 5), (5,)),
                                 ((3, 5), (1, 5)), ((3, 5), ()), ((3, 5), (1,))]:
            with pytest.raises(ValueError, match="linear needs a 2-D weight"):
                T.linear(x, T.Tensor(np.zeros(w_shape)), T.Tensor(np.zeros(b_shape)))


class TestRecomputingNodesMatchOracles:
    """T.silu_linear and T.layer_norm, which recompute in the backward what
    their oracles keep on the tape, and T.linear with a residual, one node
    where its oracle has two: output and every input gradient bit for bit,
    for each subset of inputs taking a gradient."""

    @staticmethod
    def check(fn, oracle, shapes, cotangent_shape, seed, dtype, negative_zeros=False):
        T.set_default_dtype(dtype)
        try:
            run = TestFusedNodesMatchChains.runner(shapes, cotangent_shape, seed,
                                                   negative_zeros=negative_zeros)
            for requires in itertools.product([True, False], repeat=len(shapes)):
                new = run(fn, requires)
                assert new[0].dtype == np.dtype(dtype)
                TestFusedNodesMatchChains.assert_same(new, run(oracle, requires))
        finally:
            T.set_default_dtype("float32")

    @settings(max_examples=30, deadline=None)
    @given(lead=st.lists(st.integers(1, 4), min_size=1, max_size=3),
           d_in=st.integers(1, 6), d_out=st.integers(1, 6),
           residual=st.sampled_from(["none", "full", "broadcast"]),
           seed=st.integers(0, 2**16), dtype=st.sampled_from(["float32", "float64"]))
    def test_silu_linear_byte_equal_to_chain_oracle(self, lead, d_in, d_out, residual, seed,
                                                    dtype):
        """With no residual, a full-size one, or one broadcast over the
        leading axis; about a third of the cotangent is -0.0."""
        shapes = [(*lead, d_in), (d_in, d_out), (d_out,)]
        if residual != "none":
            shapes.append((*lead[residual == "broadcast":], d_out))
        self.check(T.silu_linear, silu_linear_chain_oracle, shapes, (*lead, d_out), seed,
                   dtype, negative_zeros=True)

    @settings(max_examples=30, deadline=None)
    @given(lead=st.lists(st.integers(1, 4), min_size=0, max_size=3), d=st.integers(1, 6),
           seed=st.integers(0, 2**16), dtype=st.sampled_from(["float32", "float64"]))
    def test_layer_norm_byte_equal_to_saved_xhat_oracle(self, lead, d, seed, dtype):
        self.check(T.layer_norm, layer_norm_saved_xhat_oracle,
                   [(*lead, d), (d,), (d,)], (*lead, d), seed, dtype)

    @settings(max_examples=30, deadline=None)
    @given(lead=st.lists(st.integers(1, 4), min_size=1, max_size=3),
           d_in=st.integers(1, 6), d_out=st.integers(1, 6),
           seed=st.integers(0, 2**16), dtype=st.sampled_from(["float32", "float64"]))
    def test_linear_residual_byte_equal_to_add_oracle(self, lead, d_in, d_out, seed, dtype):
        self.check(lambda x, w, b, r: T.linear(x, w, b, residual=r), linear_residual_oracle,
                   [(*lead, d_in), (d_in, d_out), (d_out,), (*lead, d_out)],
                   (*lead, d_out), seed, dtype)


class TestAttentionBlocks:
    """An image's attention does not depend on the other images in its call:
    splitting the leading (image) axis into blocks, as callers do in
    backbone.CAPTURE_CHUNK slices, changes no byte of the output or of any
    input gradient."""

    @staticmethod
    def run(leaves, cot, requires, views):
        ins = [T.Tensor(a, requires_grad=r) for a, r in zip(leaves, requires)]
        out = T.attention(*[T.transpose(t, (0, 2, 1, 3)) for t in ins] if views else ins, 0.3)
        if any(requires):
            out.backward(cot)
        return [out.data] + [t.grad for t in ins]

    @pytest.mark.parametrize("per_block, n_blocks", [(1, 5), (2, 3), (8, 1)],
                             ids=["one-image", "remainder", "larger-than-batch"])
    @pytest.mark.parametrize("requires", [(True, True, True), (False, True, False),
                                          (True, False, True), (False, False, False)],
                             ids=["qkv", "k", "qv", "none"])
    @pytest.mark.parametrize("views", [False, True], ids=["contiguous", "head-split"])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_block_size_changes_no_byte(self, per_block, n_blocks, requires, views, dtype):
        b, heads, n, dh = 5, 2, 12, 4
        starts = range(0, b, per_block)
        assert len(starts) == n_blocks
        rng = np.random.default_rng(per_block)
        leaves = [rng.standard_normal((b, n, heads, dh) if views else (b, heads, n, dh))
                  .astype(dtype) for _ in range(3)]
        cot = rng.standard_normal((b, heads, n, dh)).astype(dtype)
        parts = [self.run([a[lo:lo + per_block] for a in leaves], cot[lo:lo + per_block],
                          requires, views) for lo in starts]
        blocked = [None if p[0] is None else np.concatenate(p) for p in zip(*parts)]
        whole = self.run(leaves, cot, requires, views)
        TestFusedNodesMatchChains.assert_same(blocked, whole)


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
        for arr in (nprng.standard_normal((2, 3, 4)).astype(np.float32),
                    nprng.standard_normal((2, 3, 4)),
                    nprng.integers(0, 256, (2, 3, 4)).astype(np.uint8)):
            buf = io.BytesIO()
            T.write_blob(buf, arr)
            buf.seek(0)
            out = T.read_blob(buf)
            assert out.dtype == arr.dtype
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

    def test_other_dtype_refused(self):
        """A dtype with no code is refused, not cast, and nothing is written."""
        buf = io.BytesIO()
        with pytest.raises(ValueError, match="cannot hold dtype int64"):
            T.write_blob(buf, np.arange(3, dtype=np.int64))
        assert buf.getvalue() == b""

    def test_scalar_rank_zero(self):
        buf = io.BytesIO()
        T.write_blob(buf, np.float32(3.5))
        buf.seek(0)
        out = T.read_blob(buf)
        assert out.shape == ()
        assert out == np.float32(3.5)


class TestAtomicWrite:
    @pytest.mark.parametrize("mode, old, part", [("w", "old text\n", "new"),
                                                 ("wb", b"old bytes", b"new")])
    def test_write_that_raises_keeps_the_old_file(self, tmp_path, mode, old, part):
        path = tmp_path / "out"
        (path.write_bytes if "b" in mode else path.write_text)(old)
        before = path.read_bytes()
        with pytest.raises(RuntimeError, match="midway"):
            with T.atomic_write(path, mode) as f:
                f.write(part)
                f.flush()
                assert (tmp_path / "out.tmp").exists() and path.read_bytes() == before
                raise RuntimeError("midway")
        assert path.read_bytes() == before
        assert sorted(p.name for p in tmp_path.iterdir()) == ["out"]

    def test_completed_write_replaces_the_file(self, tmp_path):
        path = tmp_path / "out"
        path.write_text("old")
        with T.atomic_write(path) as f:
            f.write("new")
            assert path.read_text() == "old"
        assert path.read_text() == "new"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["out"]


def test_dropout_zero_is_identity(nprng):
    x = T.Tensor(nprng.standard_normal((4, 4)))
    assert T.dropout(x, 0.0, T.Rng(0)) is x


def test_dropout_preserves_expectation():
    x = T.Tensor(np.ones((2000,)))
    out = T.dropout(x, 0.25, T.Rng(3))
    assert out.data.mean() == pytest.approx(1.0, abs=0.05)
