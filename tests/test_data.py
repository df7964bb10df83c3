import dataclasses
import json
import math
import re

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from patchmoe import data
from patchmoe import tensor as T


@pytest.fixture(scope="module")
def small_spec():
    return data.SynthSpec(num_classes=4, num_families=2, image_size=32,
                          images_per_class=5, fg_patch_cells=2, seed=11)


@pytest.fixture(scope="module")
def small_dataset(small_spec):
    return data.generate(small_spec)


def rewrite_pixels(root, pixels):
    """Replace the dataset's pixels.bin with one record of `pixels` and
    record its sha256 in the manifest."""
    with open(root / "pixels.bin", "wb") as f:
        T.write_blob(f, pixels)
    path = root / "manifest.json"
    path.write_text(json.dumps({**json.loads(path.read_text()),
                                "pixels_sha256": T.file_sha256(root / "pixels.bin")}))


class TestGenerate:
    def test_bit_reproducible(self, small_spec, small_dataset):
        again = data.generate(small_spec)
        for a, b in zip(small_dataset.images, again.images):
            assert np.array_equal(a.pixels, b.pixels)
            assert a.split == b.split and a.class_id == b.class_id

    def test_split_sizes_and_disjointness(self, small_spec, small_dataset):
        n = small_spec.images_per_class
        for train, val in zip(small_dataset.by_class("train"), small_dataset.by_class("val")):
            assert len(train) == math.ceil(0.8 * n)
            assert len(train) + len(val) == n

    def test_by_class_groups_each_split_in_dataset_order(self, small_dataset):
        for split in (None, "train", "val"):
            groups = small_dataset.by_class(split)
            assert len(groups) == small_dataset.num_classes
            for c, group in enumerate(groups):
                expected = [im for im in small_dataset.images if im.class_id == c
                            and split in (None, im.split)]
                assert [id(im) for im in group] == [id(im) for im in expected]

    def test_per_class_counts_equal(self, small_spec, small_dataset):
        counts = [len(images) for images in small_dataset.by_class()]
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

    @pytest.mark.parametrize("size", [6, 13, 10], ids=["smaller", "larger", "same"])
    def test_batch_byte_equal_to_per_image(self, size):
        """An (n, H, W, 3) batch resizes to the per-image results stacked; at
        its own size it is still a copy."""
        batch = np.random.default_rng(0).integers(0, 256, (5, 10, 10, 3), dtype=np.uint8)
        out = data.resize_nearest(batch, size)
        want = np.stack([data.resize_nearest(img, size) for img in batch])
        assert out.dtype == want.dtype and out.shape == want.shape == (5, size, size, 3)
        assert out.tobytes() == want.tobytes()
        assert not np.shares_memory(out, batch)


class TestDatasetIO:
    def test_save_load_round_trip(self, tmp_path, small_dataset):
        data.save_dataset(small_dataset, tmp_path / "d")
        loaded = data.load_dataset(tmp_path / "d")
        assert loaded.class_names == small_dataset.class_names
        assert loaded.families == small_dataset.families
        for a, b in zip(small_dataset.images, loaded.images):
            assert np.array_equal(a.pixels, b.pixels)
            assert (a.class_id, a.split, a.fg_box) == (b.class_id, b.split, b.fg_box)

    def test_mixed_sizes_rejected(self, tmp_path, small_dataset):
        """One record holds images of one size: an image of another size can
        only follow as a second record, which is refused."""
        data.save_dataset(small_dataset, tmp_path)
        with open(tmp_path / "pixels.bin", "ab") as f:
            T.write_blob(f, np.zeros((1, 8, 8, 3), dtype=np.uint8))
        with pytest.raises(data.DataError, match="bytes after the pixel record"):
            data.load_dataset(tmp_path)

    def test_non_square_rejected(self, tmp_path, small_dataset):
        data.save_dataset(small_dataset, tmp_path)
        rewrite_pixels(tmp_path, np.zeros((20, 16, 8, 3), dtype=np.uint8))
        with pytest.raises(data.DataError, match=re.escape(
                "a uint8 record of shape [20, 16, 8, 3], where the manifest's images "
                "need uint8 (20, S, S, 3)")):
            data.load_dataset(tmp_path)

    @pytest.mark.parametrize("pixels", [
        np.zeros((20, 32, 32), dtype=np.uint8), np.zeros((20, 32, 32, 4), dtype=np.uint8),
        np.zeros((19, 32, 32, 3), dtype=np.uint8), np.zeros((21, 32, 32, 3), dtype=np.uint8),
        np.zeros((20, 32, 32, 3), dtype=np.float32)],
        ids=["no-channels", "four-channels", "fewer-images", "more-images", "float32"])
    def test_bad_pixel_record_rejected(self, tmp_path, small_dataset, pixels):
        """The record must be uint8 (N, S, S, 3) with N the manifest's 20
        entries; any other, with its sha256 recorded, names the blob."""
        data.save_dataset(small_dataset, tmp_path)
        rewrite_pixels(tmp_path, pixels)
        with pytest.raises(data.DataError, match=re.escape(
                f"dataset pixels {tmp_path / 'pixels.bin'}: a {pixels.dtype} record of "
                f"shape {list(pixels.shape)}")):
            data.load_dataset(tmp_path)

    def test_truncated_pixels(self, tmp_path, small_dataset):
        data.save_dataset(small_dataset, tmp_path)
        blob = tmp_path / "pixels.bin"
        blob.write_bytes(blob.read_bytes()[:-1])
        with pytest.raises(data.DataError, match=re.escape(f"{blob}: truncated tensor blob")):
            data.load_dataset(tmp_path)

    @pytest.mark.parametrize("directory", [False, True], ids=["missing", "directory"])
    def test_unreadable_pixels(self, tmp_path, small_dataset, directory):
        data.save_dataset(small_dataset, tmp_path)
        blob = tmp_path / "pixels.bin"
        blob.unlink()
        if directory:
            blob.mkdir()
        with pytest.raises(data.DataError, match=re.escape(
                f"cannot read dataset pixels {blob}")):
            data.load_dataset(tmp_path)

    def test_pixels_of_another_save(self, tmp_path, small_spec, small_dataset):
        """A crash between a save's two moves leaves the new pixels beside the
        old manifest. Pixels of another seed have the same shape; the
        manifest's pixels_sha256 refuses them."""
        data.save_dataset(small_dataset, tmp_path / "old")
        data.save_dataset(data.generate(dataclasses.replace(small_spec, seed=12)),
                          tmp_path / "new")
        blob = tmp_path / "old" / "pixels.bin"
        blob.write_bytes((tmp_path / "new" / "pixels.bin").read_bytes())
        with pytest.raises(data.DataError, match=re.escape(
                f"{blob}: sha256 differs from the pixels_sha256")):
            data.load_dataset(tmp_path / "old")

    def test_no_images(self, tmp_path, small_dataset):
        """A dataset holds at least one image: save_dataset refuses an empty
        one, and load_dataset a manifest that lists none."""
        with pytest.raises(data.DataError, match="at least one image"):
            data.save_dataset(data.Dataset([], ["a"]), tmp_path / "empty")
        assert not (tmp_path / "empty").exists()
        data.save_dataset(small_dataset, tmp_path)
        path = tmp_path / "manifest.json"
        path.write_text(json.dumps({**json.loads(path.read_text()), "images": []}))
        with pytest.raises(data.DataError, match="images lists no image"):
            data.load_dataset(tmp_path)

    def test_older_dataset(self, tmp_path, small_dataset):
        """Datasets were once PPM files named by each entry's `file`, with no
        pixels.bin; such a manifest names the key it lacks."""
        data.save_dataset(small_dataset, tmp_path)
        path = tmp_path / "manifest.json"
        manifest = json.loads(path.read_text())
        del manifest["pixels_sha256"]
        for i, entry in enumerate(manifest["images"]):
            entry["file"] = f"fam0_class00/{i:04d}"
        path.write_text(json.dumps(manifest))
        (tmp_path / "pixels.bin").unlink()
        with pytest.raises(data.DataError, match="KeyError: 'pixels_sha256'"):
            data.load_dataset(tmp_path)

    @pytest.mark.parametrize("edit, named", [
        (lambda text: text[:-2], "JSONDecodeError"),
        (lambda text: text.replace('"images"', '"pictures"'), "'images'"),
        (lambda text: text.replace('"class": 3,', '"class": 4,', 1), "class 4"),
        (lambda text: text.replace('"class": 3,', '"class": -1,', 1), "class -1"),
        (lambda text: text.replace('"class": 3,', '"class": "3",', 1), "class '3'"),
        (lambda text: text.replace('"pixels_sha256"', '"sha256"', 1), "'pixels_sha256'"),
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
        DataError naming the first one's index and split, not 4 of 20 images
        that no split holds."""
        data.save_dataset(small_dataset, tmp_path)
        path = tmp_path / "manifest.json"
        manifest = json.loads(path.read_text())
        relabelled = [i for i, e in enumerate(manifest["images"]) if e["split"] == "val"]
        assert len(relabelled) == 4
        for i in relabelled:
            manifest["images"][i]["split"] = split
        path.write_text(json.dumps(manifest))
        with pytest.raises(data.DataError,
                           match=re.escape(f"image {relabelled[0]}: split {split!r}")):
            data.load_dataset(tmp_path)

    @pytest.mark.parametrize("box", [
        [1, 2], "abc", {"y0": 0}, [0, 0, 999, 999], [-8, 0, 8, 8], [8, 8, 8, 16],
        [16, 0, 8, 8], [0, 0, 32.0, 32], [0, 0, True, 8]],
        ids=["two-ints", "string", "object", "past-edge", "negative", "empty-rows",
             "reversed", "float", "bool"])
    def test_bad_fg_box_rejected(self, tmp_path, small_dataset, box):
        """An fg_box is four ints y0, x0, y1, x1 of a non-empty box inside
        its 32 px image: anything else is a DataError naming the entry's index."""
        data.save_dataset(small_dataset, tmp_path)
        path = tmp_path / "manifest.json"
        manifest = json.loads(path.read_text())
        manifest["images"][3]["fg_box"] = box
        path.write_text(json.dumps(manifest))
        with pytest.raises(data.DataError, match=re.escape("image 3: fg_box")):
            data.load_dataset(tmp_path)

    def test_empty_dir(self, tmp_path):
        with pytest.raises(data.DataError, match=re.escape(
                f"no dataset manifest at {tmp_path / 'manifest.json'}")):
            data.load_dataset(tmp_path)


@pytest.fixture(scope="module")
def saved_dataset(tmp_path_factory, small_dataset):
    """A saved dataset's manifest text and pixels.bin bytes, and a directory
    to write variants of them to."""
    root = tmp_path_factory.mktemp("dataset")
    data.save_dataset(small_dataset, root)
    return (root / "manifest.json").read_text(), (root / "pixels.bin").read_bytes(), root


@given(st.data())
def test_every_pixels_header_byte_edit_is_refused(saved_dataset, draws):
    """Rewriting any one header byte of pixels.bin (magic, dtype code, rank
    or an extent byte) to another value makes the dataset unloadable:
    DataError, never MemoryError or another exception."""
    manifest, blob, root = saved_dataset
    i = draws.draw(st.integers(0, 10 + 8 * blob[9] - 1))
    edited = bytearray(blob)
    edited[i] = draws.draw(st.integers(0, 255).filter(lambda v: v != blob[i]))
    (root / "manifest.json").write_text(manifest)
    (root / "pixels.bin").write_bytes(bytes(edited))
    with pytest.raises(data.DataError):
        data.load_dataset(root)
