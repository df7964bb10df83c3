"""A synthetic fine-grained dataset generator and the dataset file format.

The generator produces small RGB images of per-class foreground glyphs on a
shared bank of background textures. Classes are grouped into families: the
family fixes the glyph color (the coarse, easily clustered signal), the class
within a family fixes the glyph shape plus a small shade offset (the
fine-grained signal). Foreground placement is patch-aligned and recorded, so
claims about foreground vs background routing can be checked against ground
truth.

A saved dataset is a directory of two files: pixels.bin, one tensor-blob
record (tensor.write_blob) of every image as an (N, S, S, 3) uint8 array, and
manifest.json, which lists each image's class, split and fg_box in record
order and records the blob's sha256.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .tensor import Rng, atomic_write, file_sha256, read_blob, write_blob


class DataError(Exception):
    """Malformed or missing input data."""


@dataclass
class LabeledImage:
    pixels: np.ndarray  # H x W x 3 uint8
    class_id: int
    split: str  # "train" | "val"
    fg_box: tuple[int, int, int, int] | None = None  # y0, x0, y1, x1 (pixel coords)


@dataclass
class SynthSpec:
    num_classes: int = 12
    num_families: int = 4
    image_size: int = 64
    images_per_class: int = 20
    num_backgrounds: int = 3
    fg_patch_cells: int = 4  # foreground side length, in 8 px patch cells
    intra_family_similarity: float = 0.7
    noise: float = 0.03
    seed: int = 0

    def __post_init__(self):
        counts = (self.num_classes, self.num_families, self.image_size,
                  self.images_per_class, self.num_backgrounds, self.fg_patch_cells)
        if not all(type(v) is int for v in counts + (self.seed,)) or self.seed < 0:
            raise ValueError("counts and seed must be integers, and seed >= 0")
        if min(self.num_classes, self.num_families) < 1 or self.num_classes % self.num_families:
            raise ValueError("need num_classes >= 1 and num_families >= 1 dividing it")
        if not 1 <= self.fg_patch_cells * PATCH_CELL <= self.image_size:
            raise ValueError("foreground must fit the image")
        if min(self.images_per_class, self.num_backgrounds) < 1:
            raise ValueError("images_per_class and num_backgrounds must be >= 1")
        for key in ("intra_family_similarity", "noise"):
            value = getattr(self, key)
            if type(value) not in (int, float) or not 0 <= value <= 1:
                raise ValueError(f"{key} must be a number in [0, 1]")

    def family_of(self, class_id: int) -> int:
        return class_id // (self.num_classes // self.num_families)


@dataclass
class Dataset:
    images: list[LabeledImage]
    class_names: list[str]
    families: list[int] | None = None  # family id per class, synthetic only
    seed: int | None = None

    @property
    def num_classes(self) -> int:
        return len(self.class_names)

    def split(self, tag: str) -> list[LabeledImage]:
        return [im for im in self.images if im.split == tag]

    def by_class(self, split: str | None = None) -> list[list[LabeledImage]]:
        """The images of `split` (all if None), one list per class, in dataset order."""
        groups = [[] for _ in range(self.num_classes)]
        for im in self.images if split is None else self.split(split):
            groups[im.class_id].append(im)
        return groups


FAMILY_COLORS = np.array([
    [215, 60, 55],    # red family
    [55, 195, 70],    # green family
    [65, 95, 220],    # blue family
    [225, 200, 45],   # yellow family
    [190, 70, 200],   # magenta family
    [55, 200, 205],   # cyan family
], dtype=np.float64)

GLYPH_SHAPES = ("square", "disc", "cross", "ring", "diamond", "bars")

PATCH_CELL = 8  # glyph placement granularity, matches the default backbone patch


def _background_bank(spec: SynthSpec, rng: Rng) -> np.ndarray:
    """Shared low-frequency textures in muted earth tones."""
    bank = np.empty((spec.num_backgrounds, spec.image_size, spec.image_size, 3))
    coarse_n = max(spec.image_size // 16, 2)
    base_tones = np.array([[105, 110, 90], [90, 100, 115], [115, 100, 85]], dtype=np.float64)
    for i in range(spec.num_backgrounds):
        tone = base_tones[i % len(base_tones)]
        coarse = rng.gen.uniform(-30, 30, (coarse_n, coarse_n, 3)) + tone
        bank[i] = resize_nearest(coarse, spec.image_size)
    return bank


def _draw_glyph(canvas: np.ndarray, shape: str, color: np.ndarray,
                y0: int, x0: int, size: int) -> None:
    yy, xx = np.mgrid[0:size, 0:size]
    cy = cx = (size - 1) / 2.0
    r = size / 2.0
    if shape == "square":
        mask = np.ones((size, size), dtype=bool)
    elif shape == "disc":
        mask = (yy - cy) ** 2 + (xx - cx) ** 2 <= r * r
    elif shape == "cross":
        band = size // 3
        mask = (np.abs(yy - cy) <= band / 2) | (np.abs(xx - cx) <= band / 2)
    elif shape == "ring":
        d2 = (yy - cy) ** 2 + (xx - cx) ** 2
        mask = (d2 <= r * r) & (d2 >= (0.5 * r) ** 2)
    elif shape == "diamond":
        mask = np.abs(yy - cy) + np.abs(xx - cx) <= r
    elif shape == "bars":
        mask = (yy // max(size // 4, 1)) % 2 == 0
    else:
        raise ValueError(f"unknown glyph shape {shape!r}")
    region = canvas[y0:y0 + size, x0:x0 + size]
    region[mask] = color


def generate(spec: SynthSpec) -> Dataset:
    """Deterministic synthetic dataset with an 80/20 per-class split."""
    rng = Rng(spec.seed)
    bank = _background_bank(spec, rng.child(0))
    per_class = spec.num_classes // spec.num_families
    shade_step = (1.0 - spec.intra_family_similarity) * 70.0
    fg_px = spec.fg_patch_cells * PATCH_CELL
    grid_slots = spec.image_size // PATCH_CELL - spec.fg_patch_cells + 1

    images: list[LabeledImage] = []
    for c in range(spec.num_classes):
        fam = spec.family_of(c)
        within = c % per_class
        color = FAMILY_COLORS[fam % len(FAMILY_COLORS)] + (within - (per_class - 1) / 2) * shade_step
        color = np.clip(color, 0, 255)
        # shape follows the family so same-family classes differ only in shade
        shape = GLYPH_SHAPES[fam % len(GLYPH_SHAPES)]
        crng = rng.child(1, c)
        n = spec.images_per_class
        n_train = math.ceil(0.8 * n)
        order = crng.gen.permutation(n)
        split_of = {int(order[i]): ("train" if i < n_train else "val") for i in range(n)}
        for i in range(n):
            irng = crng.child(i)
            bg = bank[int(irng.gen.integers(0, spec.num_backgrounds))]
            canvas = bg.copy()
            gy = int(irng.gen.integers(0, grid_slots)) * PATCH_CELL
            gx = int(irng.gen.integers(0, grid_slots)) * PATCH_CELL
            _draw_glyph(canvas, shape, color, gy, gx, fg_px)
            canvas += irng.gen.uniform(-spec.noise * 255, spec.noise * 255, canvas.shape)
            pixels = np.clip(canvas, 0, 255).astype(np.uint8)
            images.append(LabeledImage(pixels, c, split_of[i], (gy, gx, gy + fg_px, gx + fg_px)))

    class_names = [f"fam{spec.family_of(c)}_class{c:02d}" for c in range(spec.num_classes)]
    families = [spec.family_of(c) for c in range(spec.num_classes)]
    return Dataset(images, class_names, families, seed=spec.seed)


def resize_nearest(image: np.ndarray, new_size: int) -> np.ndarray:
    """Nearest-neighbor square resize of an H x W x C image, or of each
    image of an (n, H, W, C) batch: the two axes before the channel axis."""
    if new_size <= 0:
        raise ValueError("new_size must be positive")
    h, w = image.shape[-3:-1]
    if (h, w) == (new_size, new_size):
        return image.copy()
    rows = (np.arange(new_size) * h) // new_size
    cols = (np.arange(new_size) * w) // new_size
    return np.take(np.take(image, rows, axis=-3), cols, axis=-2)


def save_dataset(dataset: Dataset, out_dir: Path | str) -> None:
    """Write pixels.bin, one tensor-blob record of every image's pixels, then
    manifest.json: each image's class, split and fg_box in record order and
    the blob's sha256. A save that fails leaves the previous dataset as it was."""
    if not dataset.images:
        raise DataError("a dataset needs at least one image")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    manifest = {"class_names": dataset.class_names, "families": dataset.families,
                "seed": dataset.seed,
                "images": [{"class": im.class_id, "split": im.split,
                            "fg_box": list(im.fg_box) if im.fg_box else None}
                           for im in dataset.images]}
    # `with a, b` exits b first: the blob is moved into place before the manifest
    with atomic_write(out / "manifest.json") as fm, atomic_write(out / "pixels.bin", "wb") as fb:
        write_blob(fb, np.stack([im.pixels for im in dataset.images], dtype=np.uint8))
        fb.flush()
        # the loader checks it, so that pixels written for another manifest are refused
        manifest["pixels_sha256"] = file_sha256(fb.name)
        json.dump(manifest, fm, indent=1, sort_keys=True)


def _read_pixels(path: Path, n: int, sha256) -> np.ndarray:
    """The one record in the file at `path`: n square uint8 RGB images, in a
    file of the given sha256; DataError naming the file otherwise."""
    try:
        with open(path, "rb") as f:
            pixels = read_blob(f)
            if f.read(1):
                raise ValueError("bytes after the pixel record")
        if pixels.dtype != np.uint8 or pixels.ndim != 4 or pixels.shape != (
                n, pixels.shape[1], pixels.shape[1], 3):
            raise ValueError(f"a {pixels.dtype} record of shape {list(pixels.shape)}, "
                             f"where the manifest's images need uint8 ({n}, S, S, 3)")
        if file_sha256(path) != sha256:
            raise ValueError("sha256 differs from the pixels_sha256 that the manifest "
                             "records; the pixels were written for another manifest")
    except OSError as exc:
        raise DataError(f"cannot read dataset pixels {path}: {exc.strerror or exc}") from None
    except ValueError as exc:
        raise DataError(f"dataset pixels {path}: {exc}") from None
    return pixels


def load_dataset(path: Path | str) -> Dataset:
    """Load a dataset that save_dataset wrote. DataError unless pixels.bin
    holds just the manifest's images, as one square uint8 record of the
    recorded sha256, and each entry's class, split and fg_box are valid."""
    root = Path(path)
    manifest_path = root / "manifest.json"
    if not manifest_path.exists():
        raise DataError(f"no dataset manifest at {manifest_path}")
    try:
        with open(manifest_path) as f:
            manifest = json.load(f)
        class_names, entries = manifest["class_names"], manifest["images"]
        if not entries:
            raise ValueError("images lists no image")
        pixels = _read_pixels(root / "pixels.bin", len(entries), manifest["pixels_sha256"])
        size, images = pixels.shape[1], []
        for i, (entry, image) in enumerate(zip(entries, pixels)):
            cid, split, box = entry["class"], entry["split"], entry.get("fg_box")
            if type(cid) is not int or not 0 <= cid < len(class_names):
                raise ValueError(f"image {i}: class {cid!r} is not a class id in "
                                 f"0..{len(class_names) - 1}")
            if split not in ("train", "val"):
                raise ValueError(f"image {i}: split {split!r} is not 'train' or 'val'")
            if box is not None and not (
                    isinstance(box, list) and len(box) == 4 and all(type(v) is int for v in box)
                    and 0 <= box[0] < box[2] <= size and 0 <= box[1] < box[3] <= size):
                raise ValueError(f"image {i}: fg_box {box!r} is not four ints y0, x0, y1, "
                                 f"x1 inside its {size}x{size} image")
            images.append(LabeledImage(image, cid, split, box and tuple(box)))
    except (KeyError, TypeError, ValueError) as exc:
        raise DataError(f"invalid dataset manifest {manifest_path}: "
                        f"{type(exc).__name__}: {exc}") from None
    return Dataset(images, class_names, manifest.get("families"), seed=manifest.get("seed"))
