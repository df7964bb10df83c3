import json
import math
import re

import numpy as np
import pytest

from patchmoe import data


@pytest.fixture(scope="module")
def small_spec():
    return data.SynthSpec(num_classes=4, num_families=2, image_size=32,
                          images_per_class=5, fg_patch_cells=2, seed=11)


@pytest.fixture(scope="module")
def small_dataset(small_spec):
    return data.generate(small_spec)


class TestGenerate:
    def test_bit_reproducible(self, small_spec, small_dataset):
        again = data.generate(small_spec)
        for a, b in zip(small_dataset.images, again.images):
            assert np.array_equal(a.pixels, b.pixels)
            assert a.split == b.split and a.class_id == b.class_id

    def test_split_sizes_and_disjointness(self, small_spec, small_dataset):
        n = small_spec.images_per_class
        for c in range(small_spec.num_classes):
            train = small_dataset.by_class(c, "train")
            val = small_dataset.by_class(c, "val")
            assert len(train) == math.ceil(0.8 * n)
            assert len(train) + len(val) == n

    def test_per_class_counts_equal(self, small_spec, small_dataset):
        counts = [len(small_dataset.by_class(c)) for c in range(small_spec.num_classes)]
        assert counts == [small_spec.images_per_class] * small_spec.num_classes

    def test_families_partition_classes(self, small_dataset):
        assert small_dataset.families == [0, 0, 1, 1]

    def test_fg_box_is_patch_aligned(self, small_dataset):
        for im in small_dataset.images:
            y0, x0, y1, x1 = im.fg_box
            assert y0 % data.PATCH_CELL == 0 and x0 % data.PATCH_CELL == 0
            assert (y1 - y0) % data.PATCH_CELL == 0
            assert 0 <= y0 < y1 <= im.pixels.shape[0]

    def test_foreground_differs_from_background(self, small_dataset):
        im = small_dataset.images[0]
        y0, x0, y1, x1 = im.fg_box
        fg = im.pixels[y0:y1, x0:x1].astype(float).mean(axis=(0, 1))
        bg = im.pixels.astype(float).mean(axis=(0, 1))
        assert np.abs(fg - bg).max() > 20

    def test_bad_family_count(self):
        with pytest.raises(ValueError):
            data.SynthSpec(num_classes=5, num_families=2)


class TestResizeNearest:
    def test_identity(self):
        img = np.arange(27).reshape(3, 3, 3).astype(np.uint8)
        assert np.array_equal(data.resize_nearest(img, 3), img)

    def test_upscale_duplicates(self):
        img = np.arange(12, dtype=np.uint8).reshape(2, 2, 3)
        out = data.resize_nearest(img, 4)
        assert np.array_equal(out, np.repeat(np.repeat(img, 2, axis=0), 2, axis=1))

    def test_constant_round_trip(self):
        img = np.full((8, 8, 3), 9, dtype=np.uint8)
        out = data.resize_nearest(data.resize_nearest(img, 4), 8)
        assert np.array_equal(out, img)


class TestPPM:
    def test_single_white_pixel(self, tmp_path):
        p = tmp_path / "w.ppm"
        p.write_bytes(b"P6\n1 1\n255\n\xff\xff\xff")
        assert np.array_equal(data.read_ppm(p), np.full((1, 1, 3), 255, dtype=np.uint8))

    def test_round_trip(self, tmp_path, small_dataset):
        p = tmp_path / "img.ppm"
        orig = small_dataset.images[0].pixels
        data.write_ppm(p, orig)
        assert np.array_equal(data.read_ppm(p), orig)

    def test_comment_in_header(self, tmp_path):
        p = tmp_path / "c.ppm"
        p.write_bytes(b"P6\n# a comment\n1 1\n255\n\x01\x02\x03")
        assert np.array_equal(data.read_ppm(p), [[[1, 2, 3]]])

    def test_bad_magic(self, tmp_path):
        p = tmp_path / "bad.ppm"
        p.write_bytes(b"P5\n1 1\n255\n\xff")
        with pytest.raises(data.DataError, match="magic"):
            data.read_ppm(p)

    def test_bad_maxval(self, tmp_path):
        p = tmp_path / "bad.ppm"
        p.write_bytes(b"P6\n1 1\n65535\n\xff\xff\xff\xff\xff\xff")
        with pytest.raises(data.DataError, match="maxval"):
            data.read_ppm(p)

    def test_truncated(self, tmp_path):
        p = tmp_path / "bad.ppm"
        p.write_bytes(b"P6\n2 2\n255\n\xff")
        with pytest.raises(data.DataError, match="truncated"):
            data.read_ppm(p)


class TestDatasetIO:
    def test_save_load_round_trip(self, tmp_path, small_dataset):
        data.save_dataset(small_dataset, tmp_path / "d")
        loaded = data.load_dataset(tmp_path / "d")
        assert loaded.class_names == small_dataset.class_names
        assert loaded.families == small_dataset.families
        for a, b in zip(small_dataset.images, loaded.images):
            assert np.array_equal(a.pixels, b.pixels)
            assert (a.class_id, a.split, a.fg_box) == (b.class_id, b.split, b.fg_box)

    def test_bare_dir_sorted_class_ids(self, tmp_path):
        for name in ("zebra", "ant"):
            (tmp_path / name).mkdir()
            data.write_ppm(tmp_path / name / "0.ppm", np.zeros((2, 2, 3), dtype=np.uint8))
        ds = data.load_ppm_dir(tmp_path)
        assert ds.class_names == ["ant", "zebra"]
        assert [im.class_id for im in ds.images] == [0, 1]

    @pytest.mark.parametrize("saved", [True, False], ids=["manifest", "bare-dir"])
    def test_mixed_sizes_rejected(self, tmp_path, small_dataset, saved):
        data.save_dataset(small_dataset, tmp_path)
        if not saved:
            (tmp_path / "manifest.json").unlink()
        data.write_ppm(next(tmp_path.glob("*/0000.ppm")), np.zeros((8, 8, 3), dtype=np.uint8))
        with pytest.raises(data.DataError, match="one square size"):
            data.load_dataset(tmp_path)

    @pytest.mark.parametrize("saved", [True, False], ids=["manifest", "bare-dir"])
    def test_non_square_rejected(self, tmp_path, small_dataset, saved):
        data.save_dataset(small_dataset, tmp_path)
        if not saved:
            (tmp_path / "manifest.json").unlink()
        for ppm in tmp_path.glob("*/*.ppm"):
            data.write_ppm(ppm, np.zeros((16, 8, 3), dtype=np.uint8))
        with pytest.raises(data.DataError, match="one square size, found 8x16"):
            data.load_dataset(tmp_path)

    @pytest.mark.parametrize("edit, named", [
        (lambda text: text[:-2], "JSONDecodeError"),
        (lambda text: text.replace('"images"', '"pictures"'), "'images'"),
        (lambda text: text.replace('"class": 3,', '"class": 4,', 1), "class 4"),
        (lambda text: text.replace('"class": 3,', '"class": -1,', 1), "class -1"),
        (lambda text: text.replace('"class": 3,', '"class": "3",', 1), "class '3'"),
        (lambda text: text.replace('"file"', '"path"', 1), "'file'"),
        (lambda text: text.replace('"class"', '"label"', 1), "'class'"),
        (lambda text: text.replace('"split"', '"subset"', 1), "'split'")],
        ids=["not-json", "no-images", "class-past-end", "negative-class", "string-class",
             "no-file", "no-class", "no-split"])
    def test_malformed_manifest(self, tmp_path, small_dataset, edit, named):
        """A dataset manifest that does not parse, or an entry whose class is
        not one of the manifest's class ids, is a DataError naming what is
        wrong, never a traceback or a label no prediction can match."""
        data.save_dataset(small_dataset, tmp_path)
        path = tmp_path / "manifest.json"
        text = path.read_text()
        path.write_text(edit(text))
        assert path.read_text() != text
        with pytest.raises(data.DataError, match=named):
            data.load_dataset(tmp_path)

    @pytest.mark.parametrize("split", ["Val", "test", None])
    def test_unknown_split_rejected(self, tmp_path, small_dataset, split):
        """Every image is in train or val: relabelling the val entries is a
        DataError naming the first one's file and split, not 4 of 20 images
        that no split holds."""
        data.save_dataset(small_dataset, tmp_path)
        path = tmp_path / "manifest.json"
        manifest = json.loads(path.read_text())
        relabelled = [e for e in manifest["images"] if e["split"] == "val"]
        assert len(relabelled) == 4
        for entry in relabelled:
            entry["split"] = split
        path.write_text(json.dumps(manifest))
        with pytest.raises(data.DataError,
                           match=re.escape(f"{relabelled[0]['file']}: split {split!r}")):
            data.load_dataset(tmp_path)

    @pytest.mark.parametrize("box", [
        [1, 2], "abc", {"y0": 0}, [0, 0, 999, 999], [-8, 0, 8, 8], [8, 8, 8, 16],
        [16, 0, 8, 8], [0, 0, 32.0, 32], [0, 0, True, 8]],
        ids=["two-ints", "string", "object", "past-edge", "negative", "empty-rows",
             "reversed", "float", "bool"])
    def test_bad_fg_box_rejected(self, tmp_path, small_dataset, box):
        """An fg_box is four ints y0, x0, y1, x1 of a non-empty box inside
        its 32 px image: anything else is a DataError naming the file."""
        data.save_dataset(small_dataset, tmp_path)
        path = tmp_path / "manifest.json"
        manifest = json.loads(path.read_text())
        entry = manifest["images"][0]
        entry["fg_box"] = box
        path.write_text(json.dumps(manifest))
        with pytest.raises(data.DataError, match=re.escape(f"{entry['file']}: fg_box")):
            data.load_dataset(tmp_path)

    def test_empty_dir(self, tmp_path):
        with pytest.raises(data.DataError, match="no classes"):
            data.load_ppm_dir(tmp_path)
