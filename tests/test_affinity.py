"""Class-expert affinity matrices, collapse metrics, and exports."""

import json
import tracemalloc
from xml.etree import ElementTree

import numpy as np
import pytest

from patchmoe import affinity, backbone, expert_init, moe, training
from patchmoe import tensor as T
from patchmoe.data import LabeledImage
from patchmoe.tensor import Rng

from util_model import toy_config
from util_oracles import affinity_post_forward_oracle, read_affinity_csv
from test_expert_init import make_router
from test_training import make_two_class_dataset


class TestAffinityPre:
    def test_sharp_softmax_matches_centroid(self):
        centroids = np.array([[1.0, 0.0], [0.0, 1.0]])
        points = [np.array([[1.0, 0.0]])]
        m = affinity.affinity_pre(centroids, points, temperature=0.001)
        assert m.values[0, 0] == pytest.approx(1.0, abs=1e-9)
        assert m.values[0, 1] == pytest.approx(0.0, abs=1e-9)

    def test_infinite_temperature_uniform(self):
        rng = np.random.default_rng(0)
        centroids = rng.normal(size=(5, 4))
        points = [rng.normal(size=(7, 4)) for _ in range(3)]
        m = affinity.affinity_pre(centroids, points, temperature=1e12)
        assert np.allclose(m.values, 1.0 / 5.0, atol=1e-9)

    @pytest.mark.parametrize("seed", range(5))
    def test_rows_sum_to_one_without_threshold(self, seed):
        rng = np.random.default_rng(seed)
        centroids = rng.normal(size=(6, 8))
        points = [rng.normal(size=(rng.integers(2, 10), 8)) for _ in range(4)]
        m = affinity.affinity_pre(centroids, points, temperature=0.7)
        assert np.allclose(m.values.sum(axis=1), 1.0, atol=1e-6)
        assert np.all(m.values >= 0)

    def test_expert_permutation_permutes_columns(self):
        rng = np.random.default_rng(3)
        centroids = rng.normal(size=(4, 6))
        points = [rng.normal(size=(5, 6)) for _ in range(3)]
        perm = np.array([2, 0, 3, 1])
        base = affinity.affinity_pre(centroids, points, temperature=0.5)
        permuted = affinity.affinity_pre(centroids[perm], points, temperature=0.5)
        assert np.allclose(permuted.values, base.values[:, perm], atol=1e-12)

    def test_nonpositive_temperature_rejected(self):
        with pytest.raises(ValueError):
            affinity.affinity_pre(np.ones((2, 2)), [np.ones((1, 2))], temperature=0.0)


class TestFigureVariant:
    def test_defaults_recorded(self):
        m = affinity.figure_d_variant(np.eye(2), [np.array([[1.0, 0.0]])])
        assert m.temperature == 0.001
        assert m.threshold == 0.05
        assert m.mode == "pre_init"

    def test_uniform_sims_sixteen_experts_survive(self):
        # equal similarity to every centroid: softmax gives 1/16 = 0.0625,
        # above the 0.05 cutoff, so nothing is zeroed
        centroids = np.stack([np.eye(16)[i] for i in range(16)]) + 1.0
        point = np.ones((1, 16))
        sims = T.cosine_matrix(T.Tensor(point), T.Tensor(centroids)).data
        assert np.allclose(sims, sims[0, 0])
        m = affinity.figure_d_variant(centroids, [point])
        assert np.allclose(m.values[0], 1.0 / 16.0)
        assert not np.any(m.values == 0)

    def test_uniform_sims_sixtyfour_experts_all_zero(self):
        # 1/64 is below 0.05: the whole row is thresholded away
        centroids = np.stack([np.eye(64)[i] for i in range(64)]) + 1.0
        point = np.ones((1, 64))
        m = affinity.figure_d_variant(centroids, [point])
        assert np.all(m.values[0] == 0.0)


class TestAffinityPost:
    def moe_model(self, num_experts=3, **cfg_overrides):
        cfg = toy_config(num_classes=2, moe_layers=(1,), experts=num_experts,
                         **cfg_overrides)
        model = backbone.Model(cfg, Rng(0))
        expert_init.moefy_layer(model, 1, make_router(cfg.d_model, num_experts))
        return model

    def two_moe_layer_model(self, top_k=1, gate_mode="renorm", layers=2):
        """MoE at layers 0 and 1, so that layer 1 routes behind an MoE layer."""
        cfg = toy_config(num_classes=2, layers=layers, moe_layers=(0, 1), experts=3,
                         top_k=top_k, gate_mode=gate_mode)
        model = backbone.Model(cfg, Rng(2))
        for i in cfg.moe_layers:
            expert_init.moefy_layer(model, i, make_router(cfg.d_model, 3, seed=i, top_k=top_k,
                                                          gate_mode=gate_mode))
        return model

    @pytest.mark.parametrize("gate_mode", ["renorm", "raw"])
    @pytest.mark.parametrize("top_k", [1, 2])
    @pytest.mark.parametrize("layer", [0, 1])
    @pytest.mark.parametrize("dtype", ["float32", "float64"])
    def test_matches_full_forward_oracle(self, dtype, layer, top_k, gate_mode):
        """Stopping at the routed layer's capture averages the same softmax
        as the full forward's routing record, byte for byte."""
        T.set_default_dtype(dtype)
        try:
            model = self.two_moe_layer_model(top_k, gate_mode)
            images = make_two_class_dataset().split("val")
            got = affinity.affinity_post(model, images, layer, 3, 5, Rng(4))
            want = affinity_post_forward_oracle(model, images, layer, 3, 5, Rng(4))
        finally:
            T.set_default_dtype("float32")
        assert got.values.tobytes() == want.values.tobytes()
        assert got.missing_classes == want.missing_classes
        assert got.provenance == want.provenance
        assert got.temperature == want.temperature

    @staticmethod
    def drawn(n_images, n_batches, batch_size, seed):
        """The image indices affinity_post draws, in sampling order."""
        rng = Rng(seed)
        return np.concatenate([rng.gen.integers(0, n_images, size=min(batch_size, n_images))
                               for _ in range(n_batches)])

    @pytest.mark.parametrize("layer", [0, 1])
    def test_runs_nothing_after_the_routed_layer(self, monkeypatch, layer):
        """Each chunk of distinct drawn images runs attention up to the
        routed layer only."""
        monkeypatch.setattr(backbone, "CAPTURE_CHUNK", 2)
        model = self.two_moe_layer_model(layers=3)
        images = make_two_class_dataset().split("val")
        calls = {"attention": 0, "expert": 0}
        attention, expert_forward = backbone.Model.attention, moe.expert_forward

        def count_attention(self, *args):
            calls["attention"] += 1
            return attention(self, *args)

        def count_expert(*args):
            calls["expert"] += 1
            return expert_forward(*args)

        def no_forward(*args, **kwargs):
            raise AssertionError("affinity_post ran the full forward")

        monkeypatch.setattr(backbone.Model, "attention", count_attention)
        monkeypatch.setattr(moe, "expert_forward", count_expert)
        monkeypatch.setattr(model, "forward", no_forward)
        affinity.affinity_post(model, images, layer, n_batches=2, batch_size=4, rng=Rng(0))
        chunks = -(-len(np.unique(self.drawn(len(images), 2, 4, 0))) // 2)
        assert calls["attention"] == chunks * (layer + 1)
        if layer == 0:
            assert calls["expert"] == 0
        else:
            assert calls["expert"] > 0  # layer 0's experts feed layer 1's capture

    @pytest.mark.parametrize("layer", [0, 5])
    def test_layer_without_moe_block_refused_before_any_forward(self, monkeypatch, layer):
        model = self.moe_model()  # MoE at layer 1 only
        images = make_two_class_dataset().split("val")

        def no_forward(*args, **kwargs):
            raise AssertionError("a forward ran")

        monkeypatch.setattr(backbone.Model, "patch_embed", no_forward)
        with pytest.raises(ValueError, match=f"layer {layer} is not a MoE block"):
            affinity.affinity_post(model, images, layer, n_batches=2, batch_size=4)

    def test_rows_sum_to_one(self):
        model = self.moe_model()
        images = make_two_class_dataset().split("val")
        m = affinity.affinity_post(model, images, layer=1, n_batches=4,
                                   batch_size=6, rng=Rng(0))
        assert m.mode == "post_finetune"
        assert not m.missing_classes
        assert np.allclose(m.values.sum(axis=1), 1.0, atol=1e-6)

    def test_single_expert_all_ones(self):
        model = self.moe_model(num_experts=1)
        images = make_two_class_dataset().split("val")
        m = affinity.affinity_post(model, images, layer=1, n_batches=2,
                                   batch_size=4, rng=Rng(1))
        assert np.allclose(m.values, 1.0, atol=1e-6)

    def test_missing_class_flagged_not_zeroed(self):
        model = self.moe_model()
        images = [im for im in make_two_class_dataset().split("val")
                  if im.class_id == 0]
        m = affinity.affinity_post(model, images, layer=1, n_batches=2,
                                   batch_size=4, rng=Rng(0))
        assert m.missing_classes == [1]
        assert np.all(np.isnan(m.values[1]))
        assert np.allclose(m.values[0].sum(), 1.0, atol=1e-6)

    def test_deterministic_given_rng_seed(self):
        model = self.moe_model()
        images = make_two_class_dataset().split("val")
        a = affinity.affinity_post(model, images, 1, 3, 4, Rng(9))
        b = affinity.affinity_post(model, images, 1, 3, 4, Rng(9))
        assert np.array_equal(a.values, b.values)

    @pytest.mark.parametrize("n_batches,batch_size", [(0, 4), (-1, 4), (2, 0), (2, -1)])
    def test_nonpositive_sampling_rejected(self, n_batches, batch_size):
        """n_batches below 1 would give an all-NaN matrix; batch_size below 1
        would fail inside np.stack."""
        model = self.moe_model()
        images = make_two_class_dataset().split("val")
        with pytest.raises(ValueError, match="n_batches and batch_size must be at least 1"):
            affinity.affinity_post(model, images, 1, n_batches, batch_size, Rng(0))

    def test_batches_captured_in_chunks(self, monkeypatch):
        """Every distinct drawn image is captured exactly once, in ascending
        index order, in chunks of at most CAPTURE_CHUNK images, however often
        the batches draw it."""
        monkeypatch.setattr(backbone, "CAPTURE_CHUNK", 2)
        model = self.two_moe_layer_model()
        images = make_two_class_dataset().split("val")
        captured = []
        original = backbone.Model.capture_pre_mlp

        def recording(self, x, layer):
            captured.append(x.copy())
            return original(self, x, layer)

        monkeypatch.setattr(backbone.Model, "capture_pre_mlp", recording)
        affinity.affinity_post(model, images, 0, n_batches=3, batch_size=5, rng=Rng(4))
        idx = self.drawn(len(images), 3, 5, 4)
        distinct = np.unique(idx)
        assert len(distinct) < len(idx)  # some image is drawn more than once
        assert [len(x) for x in captured] == [len(distinct[i:i + 2])
                                              for i in range(0, len(distinct), 2)]
        want = np.stack([images[i].pixels for i in distinct])
        assert np.concatenate(captured).tobytes() == want.tobytes()

    @pytest.mark.parametrize("layer", [0, 1])
    def test_chunked_matches_full_forward_oracle(self, monkeypatch, layer):
        """Chunks of 2 of a batch of 5: byte-identical with no MoE layer
        before the routed one; behind one, an expert's matmul sees fewer rows
        and may round differently."""
        monkeypatch.setattr(backbone, "CAPTURE_CHUNK", 2)
        model = self.two_moe_layer_model()
        images = make_two_class_dataset().split("val")
        got = affinity.affinity_post(model, images, layer, 3, 5, Rng(4))
        want = affinity_post_forward_oracle(model, images, layer, 3, 5, Rng(4))
        if layer == 0:
            assert got.values.tobytes() == want.values.tobytes()
        else:
            assert np.allclose(got.values, want.values, rtol=1e-5, atol=1e-7)
        assert got.missing_classes == want.missing_classes
        assert got.provenance == want.provenance

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
                affinity.affinity_post(model, images, 1, n_batches=1, batch_size=batch_size)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert peak(4 * chunk) <= 1.25 * peak(chunk)

    def test_provenance_records_sampling(self):
        model = self.moe_model()
        images = make_two_class_dataset().split("val")
        m = affinity.affinity_post(model, images, 1, 2, 4, Rng(0),
                                   provenance={"seed": 0})
        assert m.provenance["layer"] == 1
        assert m.provenance["n_batches"] == 2
        assert m.provenance["seed"] == 0


class TestCollapseMetrics:
    def make(self, values, **kwargs):
        return affinity.AffinityMatrix(np.asarray(values, dtype=float),
                                       "pre_init", 1.0, 0.0, **kwargs)

    def test_identity_matrix_no_starvation(self):
        m = self.make(np.eye(3))
        report = affinity.collapse_metrics(m)
        assert report.background_scores.tolist() == [1, 1, 1]
        assert report.starved_experts == []
        assert report.column_entropy == pytest.approx(np.log(3))

    def test_single_column_starves_rest(self):
        values = np.zeros((4, 3))
        values[:, 1] = 1.0
        report = affinity.collapse_metrics(self.make(values))
        assert report.starved_experts == [0, 2]
        assert report.column_entropy == pytest.approx(0.0)

    def test_hand_entropy(self):
        # column masses [0.75, 0.25]: H = -(0.75 ln 0.75 + 0.25 ln 0.25)
        values = np.array([[0.5, 0.0], [0.25, 0.25]])
        report = affinity.collapse_metrics(self.make(values))
        expected = -(0.75 * np.log(0.75) + 0.25 * np.log(0.25))
        assert report.column_entropy == pytest.approx(expected)

    def test_missing_classes_excluded(self):
        values = np.array([[1.0, 0.0], [np.nan, np.nan]])
        m = self.make(values, missing_classes=[1])
        report = affinity.collapse_metrics(m)
        assert report.background_scores.tolist() == [1, 0]
        assert report.starved_experts == [1]


class TestExport:
    def sample(self):
        return affinity.AffinityMatrix(
            np.array([[0.75, 0.25], [0.1, 0.9], [0.5, 0.5]]),
            "pre_init", 0.5, 0.0, provenance={"layer": 1})

    def test_csv_round_trip(self, tmp_path):
        m = self.sample()
        path = tmp_path / "aff.csv"
        affinity.export_csv(m, path)
        back = read_affinity_csv(path)
        assert np.array_equal(back, m.values)

    def test_one_by_one_csv(self, tmp_path):
        m = affinity.AffinityMatrix(np.array([[1.0]]), "pre_init", 1.0, 0.0)
        path = tmp_path / "tiny.csv"
        affinity.export_csv(m, path)
        lines = path.read_text().strip().splitlines()
        assert len(lines) == 2  # header + one data row

    def test_json_export(self, tmp_path):
        m = self.sample()
        path = tmp_path / "aff.json"
        affinity.export_json(m, path)
        payload = json.loads(path.read_text())
        assert payload["mode"] == "pre_init"
        assert payload["values"][0][0] == 0.75
        assert payload["provenance"]["layer"] == 1

    def test_svg_cell_count_and_footer(self, tmp_path):
        m = self.sample()
        path = tmp_path / "aff.svg"
        affinity.export_svg(m, path)
        text = path.read_text()
        assert text.count('class="cell"') == 3 * 2
        assert "mode=pre_init" in text
        assert "layer=1" in text

    def test_svg_footer_escaped(self, tmp_path):
        """A provenance holding XML's special characters, as a checkpoint
        path may, still gives a well-formed SVG whose footer reads back."""
        m = affinity.AffinityMatrix(np.ones((1, 1)), "pre_init", 0.5, 0.0,
                                    provenance={"checkpoint": "R&D<1>/tuned.json"})
        path = tmp_path / "aff.svg"
        affinity.export_svg(m, path)
        footer = ElementTree.parse(path).getroot()[-1]
        assert footer.text == ("mode=pre_init temperature=0.5 threshold=0.0 "
                               "checkpoint=R&D<1>/tuned.json")

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b,c\n1,2,3\n")
        with pytest.raises(ValueError):
            read_affinity_csv(path)


class TestValidation:
    def test_negative_values_rejected(self):
        with pytest.raises(ValueError):
            affinity.AffinityMatrix(np.array([[-0.1, 1.1]]), "pre_init", 1.0, 0.0)

    def test_bad_mode_rejected(self):
        with pytest.raises(ValueError):
            affinity.AffinityMatrix(np.ones((1, 1)), "other", 1.0, 0.0)
