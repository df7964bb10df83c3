import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from patchmoe import backbone, data, expert_init, router_init
from patchmoe import tensor as T
from util_oracles import (collect_embeddings_oracle, forward_capture_oracle,
                          representative_patches_oracle, ward_lance_williams_oracle,
                          ward_merges_oracle)


class TestSelectRepresentativePatches:
    def test_no_refinement_k_equals_n(self):
        x = np.random.default_rng(0).random((6, 2, 3))
        sel = router_init.select_representative_patches(x, k=6, refine_steps=0)
        assert sorted(sel.indices.tolist()) == list(range(6))

    def test_spec_hand_trace(self):
        # Rows {(1,0) x3, (0,1)}, K=2, T=1: init centroid (1,1), all scores
        # tie -> rows {0,1}; refined centroid (1,0) keeps rows {0,1}.
        x = np.array([[1.0, 0.0], [1.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        sel = router_init.select_representative_patches(x, k=2, refine_steps=1)
        assert sel.indices.tolist() == [0, 1]
        assert np.array_equal(sel.rows, [[1.0, 0.0], [1.0, 0.0]])

    def test_output_rows_are_input_rows(self):
        rng = np.random.default_rng(1)
        x = rng.random((10, 3, 4))
        sel = router_init.select_representative_patches(x, k=4, refine_steps=3)
        reduced = x.max(axis=1)
        assert len(set(sel.indices.tolist())) == 4
        for row, idx in zip(sel.rows, sel.indices):
            assert np.array_equal(row, reduced[idx])

    def test_pixel_max_is_taken_first(self):
        x = np.zeros((3, 2, 2))
        x[0, 1] = [5.0, 5.0]  # large values hidden in the second pixel slot
        x[1, 0] = [1.0, 1.0]
        sel = router_init.select_representative_patches(x, k=1, refine_steps=0)
        assert sel.indices.tolist() == [0]

    def test_errors(self):
        x = np.random.default_rng(0).random((3, 2, 2))
        with pytest.raises(ValueError):
            router_init.select_representative_patches(x, k=4, refine_steps=0)
        with pytest.raises(ValueError):
            router_init.select_representative_patches(x, k=2, refine_steps=-1)

    @pytest.mark.parametrize("seed", range(10))
    def test_matches_direct_transcription(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(4, 20))
        k = int(rng.integers(1, n + 1))
        t = int(rng.integers(0, 5))
        x = rng.standard_normal((n, int(rng.integers(1, 4)), int(rng.integers(2, 6))))
        sel = router_init.select_representative_patches(x, k, t)
        oracle_idx, oracle_rows = representative_patches_oracle(x, k, t)
        assert np.array_equal(sel.indices, oracle_idx)
        assert np.array_equal(sel.rows, oracle_rows)

    def test_permutation_invariance_distinct_similarities(self):
        rng = np.random.default_rng(5)
        x = rng.random((8, 5)) + np.arange(8)[:, None] * 0.01  # no exact ties
        sel = router_init.select_representative_patches(x, 3, 2)
        perm = rng.permutation(8)
        sel_p = router_init.select_representative_patches(x[perm], 3, 2)
        assert np.array_equal(np.sort(sel.rows, axis=0), np.sort(sel_p.rows, axis=0))


def row_layouts(rng, n, d):
    """The same n x d float64 values C-ordered, F-ordered and row-strided."""
    x = rng.standard_normal((n, d))
    strided = np.zeros((2 * n, d + 3))
    strided[::2, 1:d + 1] = x
    return [x, np.asfortranarray(x), strided[::2, 1:d + 1]]


class TestRowDots:
    """The batched dots equal the per-row loops they replace bit for bit, so
    scores, distances and every tie-break stay as before."""

    @pytest.mark.parametrize("seed", range(8))
    def test_equals_per_row_np_dot(self, seed):
        rng = np.random.default_rng(seed)
        for d in range(1, 65):
            n = int(rng.integers(1, 401))
            centroid = rng.standard_normal(d)
            for x in row_layouts(rng, n, d):
                expected = np.array([np.dot(row, centroid) for row in x])
                assert np.array_equal(router_init._row_dots(x, centroid), expected)

    @pytest.mark.parametrize("seed", range(8))
    def test_equals_per_pair_diff_dot(self, seed):
        rng = np.random.default_rng(seed)
        for d in range(1, 65):
            n = int(rng.integers(1, 401))
            for diffs in row_layouts(rng, n, d):
                expected = [float(diff @ diff) for diff in diffs]
                assert router_init._row_dots(diffs, diffs).tolist() == expected

    def test_select_at_router_scale_with_ties(self):
        """N = 400, n_px = 4, d = 24, K = 128, T = 5: indices and rows as the
        oracle picks. Every patch is a permutation of one vector, so scores
        agree up to rounding and the summation order decides the picks
        (a matvec or (x * c).sum(1) picks differently); the last 100 patches
        repeat earlier ones, so exact ties occur too."""
        rng = np.random.default_rng(11)
        v = rng.standard_normal(24)
        rows = np.stack([rng.permutation(v) for _ in range(400)])
        rows[300:] = rows[rng.integers(0, 300, 100)]
        below = rng.random((400, 4, 1))
        below[:, 0] = 0.0  # pixel 0 holds the row, the other three lie below it
        x = rows[:, None, :] - below
        sel = router_init.select_representative_patches(x, 128, 5)
        oracle_idx, oracle_rows = representative_patches_oracle(x, 128, 5)
        assert np.array_equal(sel.indices, oracle_idx)
        assert np.array_equal(sel.rows, oracle_rows)
        assert len(np.unique(sel.rows, axis=0)) < 128  # tied duplicates picked

    def test_ward_at_router_scale(self):
        pts = np.random.default_rng(12).standard_normal((48, 24))
        pts[40:] = pts[:8]  # duplicates merge first, at distance 0
        assert router_init.ward_cluster(pts).merges == ward_lance_williams_oracle(pts)


class TestWardCluster:
    def test_two_points_single_merge(self):
        tree = router_init.ward_cluster(np.array([[0.0], [2.0]]))
        assert tree.merges == [(0, 1, 2.0, 2)]  # 0.5 * 2^2

    def test_line_split(self):
        pts = np.array([[0.0], [0.1], [10.0], [10.1]])
        groups = router_init.ward_cluster(pts).cut(2)
        assert groups == [[0, 1], [2, 3]]

    def test_e_equals_n(self):
        pts = np.random.default_rng(0).random((4, 2))
        assert router_init.ward_cluster(pts).cut(4) == [[0], [1], [2], [3]]

    def test_monotone_merge_distances(self):
        for seed in range(20):
            pts = np.random.default_rng(seed).standard_normal((7, 3))
            dists = [m[2] for m in router_init.ward_cluster(pts).merges]
            assert all(b >= a - 1e-12 for a, b in zip(dists, dists[1:]))

    def test_cut_sizes_and_coverage(self):
        pts = np.random.default_rng(3).standard_normal((9, 2))
        tree = router_init.ward_cluster(pts)
        for e in range(1, 10):
            groups = tree.cut(e)
            assert len(groups) == e
            assert sorted(sum(groups, [])) == list(range(9))

    def test_n_less_than_e(self):
        with pytest.raises(ValueError, match="cannot cut 2 points at 3 clusters"):
            router_init.ward_cluster(np.zeros((2, 2))).cut(3)

    @pytest.mark.parametrize("seed", range(15))
    def test_matches_bruteforce_oracle(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 9))
        pts = rng.standard_normal((n, int(rng.integers(1, 4))))
        merges = router_init.ward_cluster(pts).merges
        oracle = ward_merges_oracle(pts)
        for (a, b, d, nid), (oa, ob, od, onid) in zip(merges, oracle):
            assert (a, b, nid) == (oa, ob, onid)
            assert d == pytest.approx(od, rel=1e-9, abs=1e-12)

    def test_duplicate_points_tie_break(self):
        merges = router_init.ward_cluster(np.zeros((3, 2))).merges
        assert merges[0][:2] == (0, 1)  # lexicographically smallest pair first

    def test_sixty_classes_sixteen_clusters_structural(self):
        pts = np.random.default_rng(7).random((60, 8))
        groups = router_init.ward_cluster(pts).cut(16)
        assert len(groups) == 16
        assert all(groups)  # non-empty
        assert sorted(sum(groups, [])) == list(range(60))


@st.composite
def duplicated_points(draw):
    """Up to 40 rows drawn with repetition from at most 5 distinct points."""
    dim = draw(st.integers(1, 3))
    base = draw(arrays(np.float64, (draw(st.integers(1, 5)), dim),
                       elements=st.floats(-10, 10)))
    rows = draw(st.lists(st.integers(0, len(base) - 1), min_size=1, max_size=40))
    return base[rows]


POINT_SHAPES = st.tuples(st.integers(1, 40), st.integers(1, 4))


class TestWardMatchesLanceWilliamsOracle:
    """The matrix form merges exactly as the dict-based recurrence: same
    pairs, same order, bit-equal distances, tie-breaks included."""

    @settings(max_examples=60, deadline=None)
    @given(arrays(np.float64, POINT_SHAPES, elements=st.floats(-100, 100)))
    def test_random_points(self, pts):
        assert router_init.ward_cluster(pts).merges == ward_lance_williams_oracle(pts)

    @settings(max_examples=60, deadline=None)
    @given(arrays(np.int64, POINT_SHAPES, elements=st.integers(-2, 2)))
    def test_integer_lattice(self, pts):
        assert router_init.ward_cluster(pts).merges == ward_lance_williams_oracle(pts)

    @settings(max_examples=60, deadline=None)
    @given(duplicated_points())
    def test_duplicate_points(self, pts):
        assert router_init.ward_cluster(pts).merges == ward_lance_williams_oracle(pts)


def cluster_means(points, num_clusters):
    """Unweighted mean of each Ward cluster's points, clusters in cut order."""
    return np.stack([points[g].mean(axis=0)
                     for g in router_init.ward_cluster(points).cut(num_clusters)])


class TestClusterMeans:
    def test_singleton_and_midpoint(self):
        pts = np.array([[0.0, 0.0], [1.0, 1.0], [10.0, 0.0]])
        assert router_init.ward_cluster(pts).cut(2) == [[0, 1], [2]]
        cents = cluster_means(pts, 2)
        assert np.allclose(cents[0], [0.5, 0.5])  # {0,1} midpoint
        assert np.allclose(cents[1], [10.0, 0.0])  # singleton

    def test_three_member_mean(self):
        pts = np.array([[0.0], [1.0], [2.0], [50.0]])
        assert router_init.ward_cluster(pts).cut(2) == [[0, 1, 2], [3]]
        assert np.allclose(cluster_means(pts, 2).ravel(), [1.0, 50.0])


@pytest.fixture(scope="module")
def tiny_setup():
    spec = data.SynthSpec(num_classes=4, num_families=2, image_size=32,
                          images_per_class=5, fg_patch_cells=2, seed=3)
    dataset = data.generate(spec)
    cfg = backbone.ModelConfig(num_classes=4, image_size=32, patch_size=8, n_px=4,
                               d_model=16, d_ff=32, layers=2, heads=2,
                               moe_layers=(1,), experts=2)
    model = backbone.Model(cfg, T.Rng(0))
    return model, dataset


def set_experts(monkeypatch, model, experts):
    """Give a shared model's config another E for one test."""
    monkeypatch.setattr(model, "config", dataclasses.replace(model.config, experts=experts))


class TestCollectEmbeddings:
    def test_patch_counts_single_scale(self, tiny_setup):
        model, dataset = tiny_setup
        out = router_init.collect_embeddings(model, dataset, 1, scales=(32,),
                                             samples_per_class=1, rng=T.Rng(0))
        assert all(emb.shape == (16, 4, 16) for emb in out)

    def test_patch_counts_two_scales(self, tiny_setup):
        model, dataset = tiny_setup
        out = router_init.collect_embeddings(model, dataset, 1, scales=(32, 40),
                                             samples_per_class=1, rng=T.Rng(0))
        assert out[0].shape[0] == 16 + 25

    def test_deterministic(self, tiny_setup):
        model, dataset = tiny_setup
        a = router_init.collect_embeddings(model, dataset, 1, (24, 32), 2, T.Rng(5))
        b = router_init.collect_embeddings(model, dataset, 1, (24, 32), 2, T.Rng(5))
        for ca, cb in zip(a, b):
            assert np.array_equal(ca, cb)

    def test_classes_are_views_of_one_capture_array(self, tiny_setup):
        model, dataset = tiny_setup
        out = router_init.collect_embeddings(model, dataset, 1, (24, 32), 2, T.Rng(0))
        base = out[0].base
        assert base is not None and base.shape == (2 * dataset.num_classes, 9 + 16, 4, 16)
        assert all(emb.base is base for emb in out)

    def test_empty_class_errors(self, tiny_setup):
        model, dataset = tiny_setup
        pruned = data.Dataset([im for im in dataset.images if im.class_id != 2],
                              dataset.class_names)
        with pytest.raises(data.DataError, match="class 2"):
            router_init.collect_embeddings(model, pruned, 1, (32,), 1, T.Rng(0))


class TestBuildRouter:
    def test_single_expert_is_mean_of_class_points(self, tiny_setup, monkeypatch):
        model, dataset = tiny_setup
        set_experts(monkeypatch, model, 1)
        res = router_init.build_router(model, dataset, 1, 1)
        assert np.allclose(res.router.centroids.data,
                           res.class_points.mean(axis=0), atol=1e-5)

    def test_manifest_defaults(self, tiny_setup):
        model, dataset = tiny_setup
        res = router_init.build_router(model, dataset, 1, 2)
        # 8 samples per class cap at its 4 train images, of 9 + 16 + 25 patch
        # rows each at the default scales 24, 32 and 40: K = min(128, 200)
        assert res.manifest == {"top_k_patches": 128, "scales": [24, 32, 40],
                                "class_assignments": res.class_assignments.tolist()}

    def test_deterministic(self, tiny_setup):
        model, dataset = tiny_setup
        p = router_init.RouterInitParams(seed=9, samples_per_class=2)
        a = router_init.build_router(model, dataset, 1, 2, p)
        b = router_init.build_router(model, dataset, 1, 2, p)
        assert np.array_equal(a.router.centroids.data, b.router.centroids.data)
        assert a.manifest == b.manifest

    def test_every_class_assigned(self, tiny_setup):
        model, dataset = tiny_setup
        res = router_init.build_router(model, dataset, 1, 2)
        assert res.class_assignments.shape == (4,)
        assert set(res.class_assignments) <= {0, 1}

    def test_centroids_and_assignments_from_one_cut(self, chunked_dataset, monkeypatch):
        """Each centroid is the mean of the classes assigned to it, both read
        from the one Ward cut at E clusters."""
        model = three_layer_model(chunked_dataset, moefied=False)
        set_experts(monkeypatch, model, 3)
        params = router_init.RouterInitParams(samples_per_class=2, scales=(32,))
        res = router_init.build_router(model, chunked_dataset, 1, 3, params)
        points = res.class_points
        groups = router_init.ward_cluster(points).cut(3)
        assert [np.flatnonzero(res.class_assignments == e).tolist()
                for e in range(3)] == groups
        assert (res.router.centroids.data.tobytes()
                == T.parameter(cluster_means(points, 3)).data.tobytes())

    def test_random_mode(self, tiny_setup, monkeypatch):
        model, dataset = tiny_setup
        set_experts(monkeypatch, model, 3)
        p = router_init.RouterInitParams(mode="random", seed=4)
        res = router_init.build_router(model, dataset, 1, 3, p)
        assert res.class_assignments is None
        assert res.router.centroids.shape == (3, 16)

    @pytest.mark.parametrize("layer, experts, moe_layers", [
        (0, 2, (1,)), (1, 3, (1,)), (1, 1, (1,)), (1, 2, ())],
        ids=["other-layer", "more-experts", "fewer-experts", "no-moe-layers"])
    def test_refused_before_any_capture(self, tiny_setup, monkeypatch,
                                        layer, experts, moe_layers):
        """A router moefy_layer must refuse is not built: build_router fails
        before its first capture forward."""
        model, dataset = tiny_setup
        monkeypatch.setattr(model, "config",
                            dataclasses.replace(model.config, moe_layers=moe_layers))
        calls = []
        monkeypatch.setattr(backbone.Model, "capture_pre_mlp",
                            lambda self, images, layer: calls.append(layer))
        with pytest.raises(ValueError, match="not in the config's moe_layers"):
            router_init.build_router(model, dataset, layer, experts)
        assert calls == []


def test_default_scales():
    cfg = backbone.ModelConfig(num_classes=2, image_size=64, patch_size=8)
    assert router_init.default_scales(cfg) == (48, 64, 80)


@pytest.fixture(params=["float32", "float64"])
def dtype(request):
    T.set_default_dtype(request.param)
    yield request.param
    T.set_default_dtype("float32")


@pytest.fixture(scope="module")
def chunked_dataset():
    """Six classes of four train images: 24 picks, so two capture chunks
    per scale, the second one ragged."""
    spec = data.SynthSpec(num_classes=6, num_families=2, image_size=32,
                          images_per_class=5, fg_patch_cells=2, seed=4)
    return data.generate(spec)


def three_layer_model(dataset, moefied: bool):
    """Three layers with MoE at layer 1, optionally moefied."""
    cfg = backbone.ModelConfig(num_classes=dataset.num_classes, image_size=32,
                               patch_size=8, n_px=4, d_model=16, d_ff=32, layers=3,
                               heads=2, moe_layers=(1,), experts=4, top_k=2)
    model = backbone.Model(cfg, T.Rng(1))
    if moefied:
        build = router_init.build_router(model, dataset, 1, 4)
        expert_init.moefy_layer(model, 1, build.router)
    return model


class TestBatchedCapture:
    SCALES = (24, 32, 40)

    def test_chunk_count(self, chunked_dataset, monkeypatch):
        model = three_layer_model(chunked_dataset, moefied=False)
        sizes = []
        original = backbone.Model.capture_pre_mlp

        def counting(self, images, layer):
            sizes.append(len(images))
            return original(self, images, layer)

        monkeypatch.setattr(backbone.Model, "capture_pre_mlp", counting)
        router_init.collect_embeddings(model, chunked_dataset, 1, self.SCALES, 4, T.Rng(0))
        picked = sum(min(4, len(chunked_dataset.by_class(c, "train")))
                     for c in range(chunked_dataset.num_classes))
        assert picked > router_init.CAPTURE_CHUNK
        chunks = [min(router_init.CAPTURE_CHUNK, picked - s)
                  for s in range(0, picked, router_init.CAPTURE_CHUNK)]
        assert sizes == chunks * len(self.SCALES)

    @pytest.mark.parametrize("layer", [0, 1])
    @pytest.mark.parametrize("moefied", [False, True], ids=["dense", "moe"])
    def test_bit_identical_before_any_moe(self, chunked_dataset, dtype, layer, moefied):
        model = three_layer_model(chunked_dataset, moefied)
        out = router_init.collect_embeddings(model, chunked_dataset, layer, self.SCALES,
                                             4, T.Rng(2))
        ref = collect_embeddings_oracle(model, chunked_dataset, layer, self.SCALES,
                                        4, T.Rng(2))
        assert len(out) == len(ref)
        for emb, r in zip(out, ref):
            assert emb.dtype == np.dtype(dtype)
            assert np.array_equal(emb, r)

    def test_close_after_moe(self, chunked_dataset, dtype):
        # a batched MoE layer hands its experts more rows per matmul, and the
        # BLAS result of a row can depend on the row count
        model = three_layer_model(chunked_dataset, moefied=True)
        out = router_init.collect_embeddings(model, chunked_dataset, 2, self.SCALES,
                                             4, T.Rng(2))
        ref = collect_embeddings_oracle(model, chunked_dataset, 2, self.SCALES,
                                        4, T.Rng(2))
        atol = 1e-5 if dtype == "float32" else 1e-12
        for emb, r in zip(out, ref):
            np.testing.assert_allclose(emb, r, rtol=0, atol=atol)

    def test_build_router_bit_identical_to_per_image_reference(
            self, chunked_dataset, dtype, monkeypatch):
        model = three_layer_model(chunked_dataset, moefied=False)
        set_experts(monkeypatch, model, 3)
        params = router_init.RouterInitParams(samples_per_class=4, seed=3,
                                              scales=self.SCALES)
        got = router_init.build_router(model, chunked_dataset, 1, 3, params)

        def reference_ward(points):
            tree = router_init.ClusterTree(n_leaves=len(points))
            tree.merges = ward_lance_williams_oracle(points)
            return tree

        monkeypatch.setattr(router_init, "collect_embeddings", collect_embeddings_oracle)
        monkeypatch.setattr(router_init, "ward_cluster", reference_ward)
        ref = router_init.build_router(model, chunked_dataset, 1, 3, params)
        assert np.array_equal(got.router.centroids.data, ref.router.centroids.data)
        assert np.array_equal(got.class_points, ref.class_points)
        assert np.array_equal(got.class_assignments, ref.class_assignments)
        for s, r in zip(got.selected_per_class, ref.selected_per_class):
            assert np.array_equal(s.indices, r.indices)
            assert np.array_equal(s.rows, r.rows)


@pytest.mark.parametrize("moefied", [False, True], ids=["dense", "moe"])
def test_capture_pre_mlp_equals_forward_capture(chunked_dataset, dtype, moefied):
    model = three_layer_model(chunked_dataset, moefied)
    images = np.stack([im.pixels for im in chunked_dataset.split("train")[:5]])
    for layer in range(len(model.layers)):
        with model.no_grad():
            full = forward_capture_oracle(model, images, (layer,))[1][layer].data
        assert np.array_equal(model.capture_pre_mlp(images, layer).data, full)
