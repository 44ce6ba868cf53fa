"""Feature recipes, extraction, dataset assembly and persistence.

A recipe is an ordered list of extractors, each a plane histogram
(`PlaneHistogram`) or an opening granulometry of the intensity plane
(`OpeningGranulometry`); concatenating their outputs gives the sample's
feature vector. Two recipes ship as canonical defaults: rgb27 (9-bin
histogram per RGB channel) and lot117 (HLS histograms H:32 L:32 S:28
plus hexagonal opening granulometry r=1..25).
The lot117 breakdown is a reconstruction; the exact historical feature
composition is configurable rather than fixed.

A plane value (an RGB channel or an HLS component) is a function of the
pixel's colour alone, so a plane histogram is computed from each image's
distinct colours and their pixel counts: the colours' plane values are
binned with the counts as weights and divided by the pixel count. A
granite14 image holds 30 to 78 colours in 9,216 pixels. The counts are
integers below 2**53, so the weighted sums are the exact pixel counts
and every frequency equals that of a per-pixel histogram, bit for bit.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from functools import cached_property
from operator import attrgetter
from typing import Sequence, Union

import numpy as np

from .csvrows import identifier, read_csv_rows, write_lines
from .errors import DataError, real_array
from .granulometry import opening_curves
from .imagecore import ColorImage, bin_index, intensity, read_ppm, to_hls
from .morphology import se_family
from .synthkit import read_manifest

__all__ = [
    "PlaneHistogram",
    "OpeningGranulometry",
    "FeatureRecipe",
    "builtin_recipe",
    "extract",
    "extract_corpus",
    "Dataset",
    "save_dataset",
    "load_dataset",
    "SplitResult",
    "split",
    "MAX_FEATURE_MAGNITUDE",
]

# --- extractors ---------------------------------------------------------------

# plane -> (name prefix, largest value, map of an RGB image to its (h, w, 3) planes, channel)
_PLANES = {
    "r": ("hist", 255, attrgetter("pixels"), 0),
    "g": ("hist", 255, attrgetter("pixels"), 1),
    "b": ("hist", 255, attrgetter("pixels"), 2),
    "h": ("hls", 359, to_hls, 0),
    "l": ("hls", 255, to_hls, 1),
    "s": ("hls", 255, to_hls, 2),
}


@dataclass(frozen=True)
class PlaneHistogram:
    """Histogram of one RGB channel (r g b) or HLS component (h l s).

    Its bins and frequencies are those of `imagecore.histogram` over the
    plane's pixels.
    """

    plane: str
    bins: int

    def __post_init__(self):
        if self.plane not in _PLANES:
            raise DataError(f"unknown histogram plane {self.plane!r}")
        if self.bins < 1:
            raise DataError("bins must be >= 1")

    @property
    def n_features(self) -> int:
        return self.bins

    def names(self) -> list[str]:
        prefix = _PLANES[self.plane][0]
        return [f"{prefix}_{self.plane}_b{i:02d}" for i in range(1, self.bins + 1)]

    def extract(self, batch: "_Batch") -> np.ndarray:
        _, vmax, convert, channel = _PLANES[self.plane]
        colours, image, counts = batch.palette
        n = len(batch.images)
        idx = image * self.bins + bin_index(convert(colours)[0, :, channel], self.bins, vmax)
        # integer counts below 2**53: the weighted sums are the exact pixel counts
        binned = np.bincount(idx, weights=counts, minlength=n * self.bins)
        first = batch.images[0]
        return binned.reshape(n, self.bins) / (first.height * first.width)


@dataclass(frozen=True)
class OpeningGranulometry:
    """Opening-curve values at sizes r_first..r_last of the intensity plane."""

    family: str
    r_first: int
    r_last: int

    def __post_init__(self):
        object.__setattr__(self, "family", se_family(self.family))
        if not 0 <= self.r_first <= self.r_last:
            raise DataError(f"bad size range {self.r_first}..{self.r_last}")

    @property
    def n_features(self) -> int:
        return self.r_last - self.r_first + 1

    def names(self) -> list[str]:
        return [f"gopen_{self.family}_r{r:02d}" for r in range(self.r_first, self.r_last + 1)]

    def extract(self, batch: "_Batch") -> np.ndarray:
        return opening_curves(batch.greys, self.family, self.r_last)[:, self.r_first :]


Extractor = Union[PlaneHistogram, OpeningGranulometry]


class _Batch:
    """Equal-shape images and the derived rasters their extractors share."""

    def __init__(self, images: Sequence[ColorImage]):
        self.images = images

    @cached_property
    def greys(self) -> np.ndarray:
        """Intensity planes stacked into one (n, H, W) uint8 array."""
        return np.stack([intensity(img).pixels for img in self.images])

    @cached_property
    def palette(self) -> tuple[ColorImage, np.ndarray, np.ndarray]:
        """The distinct colours of every image, as one (1, k, 3) image, with
        the index of the image each comes from and its pixel count there.

        A plane value is a function of the pixel's colour alone, so the
        palette binned with these counts as weights gives the pixel counts.
        """
        keys, image, counts = [], [], []
        for i, img in enumerate(self.images):
            if not img.pixels.size:
                raise DataError("histogram of empty input")
            rgb = img.pixels.astype(np.int32)
            key, count = np.unique(rgb[..., 0] << 16 | rgb[..., 1] << 8 | rgb[..., 2],
                                   return_counts=True)
            keys.append(key)
            image.append(np.full(key.size, i))
            counts.append(count)
        key = np.concatenate(keys)[:, None] >> np.array([16, 8, 0]) & 255
        return ColorImage(key[None]), np.concatenate(image), np.concatenate(counts)


@dataclass(frozen=True)
class FeatureRecipe:
    """Named, ordered feature layout; indices are 1-based in all reports."""

    name: str
    extractors: tuple[Extractor, ...]

    @property
    def total_features(self) -> int:
        return sum(e.n_features for e in self.extractors)

    def feature_names(self) -> list[str]:
        out: list[str] = []
        for e in self.extractors:
            out.extend(e.names())
        return out


def builtin_recipe(name: str) -> FeatureRecipe:
    """The two canonical recipes: 'rgb27' and 'lot117'."""
    if name == "rgb27":
        return FeatureRecipe(
            "rgb27",
            (PlaneHistogram("r", 9), PlaneHistogram("g", 9), PlaneHistogram("b", 9)),
        )
    if name == "lot117":
        return FeatureRecipe(
            "lot117",
            (
                PlaneHistogram("h", 32),
                PlaneHistogram("l", 32),
                PlaneHistogram("s", 28),
                OpeningGranulometry("hexagon", 1, 25),
            ),
        )
    raise DataError(f"unknown recipe {name!r}")


# Images per batched extraction; bounds the memory of a stack.
STACK_CHUNK = 16


def _extract_images(recipe: FeatureRecipe, images: Sequence[ColorImage]) -> np.ndarray:
    """Feature rows of several images, in input order.

    Images of one shape form one batch, so each granulometry runs once
    over a stack of them.
    """
    matrix = np.empty((len(images), recipe.total_features), dtype=np.float64)
    by_shape: dict[tuple[int, ...], list[int]] = {}
    for i, img in enumerate(images):
        by_shape.setdefault(img.pixels.shape, []).append(i)
    for rows in by_shape.values():
        batch = _Batch([images[i] for i in rows])
        col = 0
        for e in recipe.extractors:
            matrix[rows, col : col + e.n_features] = e.extract(batch)
            col += e.n_features
    return matrix


def extract(recipe: FeatureRecipe, img: ColorImage) -> np.ndarray:
    """Concatenated extractor outputs, in recipe order."""
    return _extract_images(recipe, [img])[0]


def extract_corpus(corpus_dir, recipe: FeatureRecipe, threads: int = 1) -> "Dataset":
    """Extract every image listed in `corpus_dir`/manifest.csv into one dataset.

    Rows are ordered by sample id. The sorted manifest is read in chunks
    of STACK_CHUNK images, each extracted as one batch by the calling
    thread. `threads` > 1 hands whole chunks to a pool instead; it stays
    only for perfbench's traced probe, which checks that two workers return
    the serial rows. Rows never depend on the chunking or the worker count.
    A DataError names the first bad image in sample-id order as `corpus_dir`
    joined to its path.
    """
    if threads < 1:
        raise DataError(f"threads must be >= 1, got {threads}")
    entries = sorted(read_manifest(os.path.join(corpus_dir, "manifest.csv")),
                     key=lambda e: e.sample_id)

    paths = [os.path.join(corpus_dir, e.path) for e in entries]
    chunks = [paths[i : i + STACK_CHUNK] for i in range(0, len(paths), STACK_CHUNK)]

    def one(chunk):
        try:
            return _extract_images(recipe, [read_ppm(path) for path in chunk])
        except DataError:
            for path in chunk:  # the batch failed: find its first bad image
                try:
                    extract(recipe, read_ppm(path))
                except DataError as exc:
                    raise DataError(f"{path}: {exc}") from None
            raise

    # at threads=1 nothing is submitted, so no pool thread starts: its malloc arena cost RSS
    with ThreadPoolExecutor(max_workers=threads) as pool:
        blocks = list((pool.map if threads > 1 else map)(one, chunks))
    matrix = np.vstack(blocks) if blocks else np.empty((0, recipe.total_features))
    return Dataset(
        [e.sample_id for e in entries],
        [e.label for e in entries],
        matrix,
    )


# --- datasets -----------------------------------------------------------------

def default_feature_names(count: int) -> list[str]:
    width = max(4, len(str(count)))
    return [f"f{i:0{width}d}" for i in range(1, count + 1)]


# The largest feature magnitude B: squared distances over F features (<= 4FB^2) and
# covariance norms (<= 8FB^2) stay finite floats, squared too, for F up to 10^13.
MAX_FEATURE_MAGNITUDE = 1e70


@dataclass(frozen=True, eq=False)
class Dataset:
    """Feature matrix with sample ids and class labels, rows in file order.

    `matrix` is a read-only float64 copy of the given values, checked once
    here: each is finite and at most MAX_FEATURE_MAGNITUDE in magnitude.
    """

    sample_ids: list[str]
    labels: list[str]
    matrix: np.ndarray  # (n_samples, n_features) float64
    feature_names: list[str] = field(default_factory=list)

    def __post_init__(self):
        matrix = real_array(self.matrix, "feature matrix").copy()
        matrix.flags.writeable = False
        object.__setattr__(self, "matrix", matrix)
        if matrix.ndim != 2:
            raise DataError("feature matrix must be 2-D")
        n = matrix.shape[0]
        if len(self.sample_ids) != n or len(self.labels) != n:
            raise DataError("sample_ids, labels and matrix rows must align")
        if not self.feature_names:
            object.__setattr__(self, "feature_names", default_feature_names(matrix.shape[1]))
        if len(self.feature_names) != matrix.shape[1]:
            raise DataError("feature_names must match matrix columns")
        bad = np.argwhere(~(np.abs(matrix) <= MAX_FEATURE_MAGNITUDE))
        if bad.size:
            row, col = bad[0]
            value = matrix[row, col]
            what = (f"non-finite feature value {value}" if not np.isfinite(value) else
                    f"feature value {value} above {MAX_FEATURE_MAGNITUDE:g} in magnitude")
            raise DataError(
                f"{what} (sample {self.sample_ids[row]!r}, feature {self.feature_names[col]!r})"
            )
        seen = set()
        for sid in self.sample_ids:
            if sid in seen:
                raise DataError(f"duplicate sample id {sid!r}")
            seen.add(sid)

    @property
    def n_samples(self) -> int:
        return self.matrix.shape[0]

    @property
    def n_features(self) -> int:
        return self.matrix.shape[1]

    @property
    def class_labels(self) -> list[str]:
        return sorted(set(self.labels))

    def subset(self, indices: Sequence[int]) -> "Dataset":
        idx = list(indices)
        return Dataset(
            [self.sample_ids[i] for i in idx],
            [self.labels[i] for i in idx],
            self.matrix[idx],
            list(self.feature_names),
        )


def save_dataset(ds: Dataset, path) -> None:
    """CSV with header sample_id,label,f0001,...; 12 significant digits."""
    for sid, lab in zip(ds.sample_ids, ds.labels):
        identifier(sid, "sample id")
        identifier(lab, "label")
    lines = [",".join(["sample_id", "label", *ds.feature_names])]
    for sid, lab, row in zip(ds.sample_ids, ds.labels, ds.matrix):
        lines.append(",".join([sid, lab, *(f"{v:.12g}" for v in row)]))
    write_lines(path, lines)


def load_dataset(path) -> Dataset:
    """Dataset from a CSV whose header, sample_id,label,<feature names>, sets its width."""
    names, rows = read_csv_rows(path, "sample_id,label", (identifier, identifier), "dataset",
                                rest=float)
    matrix = np.array([row[2:] for row in rows]).reshape(len(rows), len(names) - 2)
    try:
        return Dataset([row[0] for row in rows], [row[1] for row in rows], matrix, names[2:])
    except DataError as exc:
        raise DataError(f"{path}: {exc}") from None


# --- train/test splitting -------------------------------------------------------

def minmax_scaler(train: Dataset) -> tuple[np.ndarray, np.ndarray]:
    """Per-feature (low, span) from the training set; constant columns get span 1."""
    if train.n_samples == 0:
        raise DataError("cannot min-max scale on a training set with no samples")
    lo = train.matrix.min(axis=0)
    hi = train.matrix.max(axis=0)
    return lo, np.where(hi > lo, hi - lo, 1.0)


def apply_scaler(ds: Dataset, lo: np.ndarray, span: np.ndarray) -> Dataset:
    """Dataset with features rescaled to the scaler's unit box.

    A tiny training span can scale a value past the magnitude bound, or past
    the float range to inf; that is a DataError naming the value it scaled.
    """
    if ds.n_features != lo.size:
        raise DataError(f"dataset has {ds.n_features} features, the scaler {lo.size}")
    with np.errstate(over="ignore"):
        scaled = (ds.matrix - lo) / span
    bad = np.argwhere(~(np.abs(scaled) <= MAX_FEATURE_MAGNITUDE))
    if bad.size:
        row, col = bad[0]
        raise DataError(
            f"scaled feature value out of bounds: {ds.matrix[row, col]} scales to "
            f"{scaled[row, col]}, above {MAX_FEATURE_MAGNITUDE:g} in magnitude "
            f"(sample {ds.sample_ids[row]!r}, feature {ds.feature_names[col]!r})"
        )
    return Dataset(list(ds.sample_ids), list(ds.labels), scaled, list(ds.feature_names))


@dataclass(frozen=True)
class SplitResult:
    train: Dataset
    test: Dataset
    stratified: bool  # False when some class was too small and sampling fell back to global


def _apportion(sizes: list[int], fraction: float, target: int) -> list[int]:
    """Largest-remainder apportionment of `target` test slots across classes."""
    quotas = [fraction * s for s in sizes]
    alloc = [int(q) for q in quotas]
    remainders = [q - a for q, a in zip(quotas, alloc)]
    deficit = target - sum(alloc)
    order = sorted(range(len(sizes)), key=lambda i: (-remainders[i], i))
    for i in order[: max(0, deficit)]:
        alloc[i] += 1
    # keep every class represented in the test set when slots allow
    for i in range(len(alloc)):
        if alloc[i] == 0:
            donors = [j for j in range(len(alloc)) if alloc[j] > 1]
            if not donors:
                break
            j = max(donors, key=lambda j: (alloc[j], sizes[j], -j))
            alloc[j] -= 1
            alloc[i] += 1
    # never empty a class's training side
    for i in range(len(alloc)):
        while alloc[i] >= sizes[i]:
            takers = [j for j in range(len(alloc)) if alloc[j] < sizes[j] - 1]
            if not takers:
                alloc[i] = sizes[i] - 1
                break
            alloc[i] -= 1
            j = max(takers, key=lambda j: (sizes[j] - 1 - alloc[j], -j))
            alloc[j] += 1
    return alloc


def holdout_fraction(test_count: int, n_samples: int) -> float:
    """The test fraction whose split aims at `test_count` of `n_samples` samples."""
    if not 0 < test_count < n_samples:
        raise DataError(f"test count must lie in (0, {n_samples}), got {test_count}")
    return test_count / n_samples


def holdout_rows(labels: Sequence[str], test_fraction: float, seed: int):
    """(ascending test-set row indices, stratified?) of a split over rows with these labels."""
    if not 0.0 < test_fraction < 1.0:
        raise DataError(f"test_fraction must lie in (0, 1), got {test_fraction}")
    if seed < 0:
        raise DataError(f"split seed must be non-negative, got {seed}")
    n = len(labels)
    if n < 2:
        raise DataError("need at least 2 samples to split")
    target = min(max(int(round(test_fraction * n)), 1), n - 1)
    rng = np.random.default_rng(seed)

    by_label: dict[str, list[int]] = {}
    for i, lab in enumerate(labels):
        by_label.setdefault(lab, []).append(i)
    labels_sorted = sorted(by_label)

    stratified = all(len(v) >= 2 for v in by_label.values()) and len(by_label) >= 2
    if not stratified:
        perm = rng.permutation(n)
        return sorted(int(i) for i in perm[:target]), False
    sizes = [len(by_label[lab]) for lab in labels_sorted]
    alloc = _apportion(sizes, test_fraction, target)
    test_idx = []
    for lab, k in zip(labels_sorted, alloc):
        members = by_label[lab]
        perm = rng.permutation(len(members))
        test_idx.extend(members[int(j)] for j in perm[:k])
    return sorted(test_idx), True


def split(ds: Dataset, test_fraction: float, seed: int) -> SplitResult:
    """Deterministic stratified split; both halves keep the original row order."""
    test_idx, stratified = holdout_rows(ds.labels, test_fraction, seed)
    test_set = set(test_idx)
    train_idx = [i for i in range(ds.n_samples) if i not in test_set]
    return SplitResult(ds.subset(train_idx), ds.subset(test_idx), stratified)
