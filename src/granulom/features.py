"""Feature recipes, extraction, dataset assembly and persistence.

A recipe is an ordered list of extractors; concatenating their outputs
gives the sample's feature vector. Two recipes ship as canonical
defaults: rgb27 (9-bin histogram per RGB channel) and lot117 (HLS
histograms H:32 L:32 S:28 plus hexagonal opening granulometry r=1..25).
The lot117 breakdown is a reconstruction; the exact historical feature
composition is configurable rather than fixed.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Iterable, Sequence, Union

import numpy as np

from .errors import (
    DataError,
    DatasetError,
    DuplicateSampleIdError,
    NonNumericValueError,
    RaggedRowError,
)
from .granulometry import granulometry_closings, granulometry_openings
from .imagecore import ColorImage, histogram, intensity, to_hls
from .morphology import se_family

__all__ = [
    "ChannelHistogram",
    "HlsHistogram",
    "OpeningGranulometry",
    "ClosingGranulometry",
    "FeatureRecipe",
    "builtin_recipe",
    "extract",
    "extract_corpus",
    "Dataset",
    "save_dataset",
    "load_dataset",
    "SplitResult",
    "split",
]

_ID_RE = re.compile(r"^[A-Za-z0-9_-]+$")


# --- extractors ---------------------------------------------------------------

@dataclass(frozen=True)
class ChannelHistogram:
    channel: str  # "r" | "g" | "b"
    bins: int

    def __post_init__(self):
        if self.channel not in ("r", "g", "b"):
            raise DataError(f"unknown channel {self.channel!r}")
        if self.bins < 1:
            raise DataError("bins must be >= 1")

    @property
    def n_features(self) -> int:
        return self.bins

    def names(self) -> list[str]:
        return [f"hist_{self.channel}_b{i:02d}" for i in range(1, self.bins + 1)]

    def extract(self, ctx: "_ImageContext") -> np.ndarray:
        return histogram(getattr(ctx.img, self.channel), self.bins)


@dataclass(frozen=True)
class HlsHistogram:
    component: str  # "h" | "l" | "s"
    bins: int

    def __post_init__(self):
        if self.component not in ("h", "l", "s"):
            raise DataError(f"unknown HLS component {self.component!r}")
        if self.bins < 1:
            raise DataError("bins must be >= 1")

    @property
    def n_features(self) -> int:
        return self.bins

    def names(self) -> list[str]:
        return [f"hls_{self.component}_b{i:02d}" for i in range(1, self.bins + 1)]

    def extract(self, ctx: "_ImageContext") -> np.ndarray:
        plane = getattr(ctx.hls, self.component)
        vmax = 359 if self.component == "h" else 255
        return histogram(plane, self.bins, vmax=vmax)


@dataclass(frozen=True)
class OpeningGranulometry:
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

    def extract(self, ctx: "_ImageContext") -> np.ndarray:
        curve = granulometry_openings(ctx.grey, self.family, self.r_last)
        return np.array(curve.values[self.r_first : self.r_last + 1], dtype=np.float64)


@dataclass(frozen=True)
class ClosingGranulometry:
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
        return [f"gclose_{self.family}_r{r:02d}" for r in range(self.r_first, self.r_last + 1)]

    def extract(self, ctx: "_ImageContext") -> np.ndarray:
        curve = granulometry_closings(ctx.grey, self.family, self.r_last)
        return np.array(curve.values[self.r_first : self.r_last + 1], dtype=np.float64)


Extractor = Union[ChannelHistogram, HlsHistogram, OpeningGranulometry, ClosingGranulometry]


class _ImageContext:
    """Caches the derived rasters shared between extractors of one image."""

    def __init__(self, img: ColorImage):
        self.img = img
        self._grey = None
        self._hls = None

    @property
    def grey(self):
        if self._grey is None:
            self._grey = intensity(self.img)
        return self._grey

    @property
    def hls(self):
        if self._hls is None:
            self._hls = to_hls(self.img)
        return self._hls


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

    def locate(self, index: int) -> tuple[Extractor, int]:
        """Map a 1-based feature index to (extractor, 1-based offset within it)."""
        if index < 1:
            raise DataError("feature indices are 1-based")
        pos = index
        for e in self.extractors:
            if pos <= e.n_features:
                return e, pos
            pos -= e.n_features
        raise DataError(f"feature index {index} exceeds {self.total_features}")


def builtin_recipe(name: str) -> FeatureRecipe:
    """The two canonical recipes: 'rgb27' and 'lot117'."""
    if name == "rgb27":
        return FeatureRecipe(
            "rgb27",
            (ChannelHistogram("r", 9), ChannelHistogram("g", 9), ChannelHistogram("b", 9)),
        )
    if name == "lot117":
        return FeatureRecipe(
            "lot117",
            (
                HlsHistogram("h", 32),
                HlsHistogram("l", 32),
                HlsHistogram("s", 28),
                OpeningGranulometry("hexagon", 1, 25),
            ),
        )
    raise DataError(f"unknown recipe {name!r}")


def extract(recipe: FeatureRecipe, img: ColorImage) -> np.ndarray:
    """Concatenated extractor outputs, in recipe order."""
    ctx = _ImageContext(img)
    parts = [e.extract(ctx) for e in recipe.extractors]
    return np.concatenate(parts) if parts else np.empty(0, dtype=np.float64)


def extract_corpus(manifest_path, recipe: FeatureRecipe, threads: int = 1) -> "Dataset":
    """Extract every image listed in a corpus manifest into one dataset.

    Rows are ordered by sample id. Images are independent, so the worker
    count never changes the output.
    """
    import os
    from concurrent.futures import ThreadPoolExecutor

    from .imagecore import read_ppm
    from .synthkit import read_manifest

    manifest_path = os.fspath(manifest_path)
    if os.path.isdir(manifest_path):
        manifest_path = os.path.join(manifest_path, "manifest.csv")
    base = os.path.dirname(os.path.abspath(manifest_path))
    entries = sorted(read_manifest(manifest_path), key=lambda e: e.sample_id)

    def one(entry):
        return extract(recipe, read_ppm(os.path.join(base, entry.path)))

    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            vectors = list(pool.map(one, entries))
    else:
        vectors = [one(e) for e in entries]
    matrix = np.vstack(vectors) if vectors else np.empty((0, recipe.total_features))
    return Dataset(
        [e.sample_id for e in entries],
        [e.label for e in entries],
        matrix,
        recipe_name=recipe.name,
    )


# --- datasets -----------------------------------------------------------------

def default_feature_names(count: int) -> list[str]:
    width = max(4, len(str(count)))
    return [f"f{i:0{width}d}" for i in range(1, count + 1)]


@dataclass(eq=False)
class Dataset:
    """Feature matrix with sample ids and class labels, rows in file order."""

    sample_ids: list[str]
    labels: list[str]
    matrix: np.ndarray  # (n_samples, n_features) float64
    feature_names: list[str] = field(default_factory=list)
    recipe_name: str = ""

    def __post_init__(self):
        self.matrix = np.asarray(self.matrix, dtype=np.float64)
        if self.matrix.ndim != 2:
            raise DatasetError("feature matrix must be 2-D")
        n = self.matrix.shape[0]
        if len(self.sample_ids) != n or len(self.labels) != n:
            raise DatasetError("sample_ids, labels and matrix rows must align")
        if not self.feature_names:
            self.feature_names = default_feature_names(self.matrix.shape[1])
        if len(self.feature_names) != self.matrix.shape[1]:
            raise DatasetError("feature_names must match matrix columns")
        bad = np.argwhere(~np.isfinite(self.matrix))
        if bad.size:
            row, col = bad[0]
            raise DatasetError(
                f"non-finite feature value {self.matrix[row, col]} "
                f"(sample {self.sample_ids[row]!r}, feature {self.feature_names[col]!r})"
            )
        seen = set()
        for sid in self.sample_ids:
            if sid in seen:
                raise DuplicateSampleIdError(f"duplicate sample id {sid!r}")
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

    def samples(self) -> Iterable[tuple[str, str, np.ndarray]]:
        for i, (sid, lab) in enumerate(zip(self.sample_ids, self.labels)):
            yield sid, lab, self.matrix[i]

    def subset(self, indices: Sequence[int]) -> "Dataset":
        idx = list(indices)
        return Dataset(
            [self.sample_ids[i] for i in idx],
            [self.labels[i] for i in idx],
            self.matrix[idx].copy() if idx else self.matrix[:0].copy(),
            list(self.feature_names),
            self.recipe_name,
        )


def save_dataset(ds: Dataset, path) -> None:
    """CSV with header sample_id,label,f0001,...; 12 significant digits."""
    for sid in ds.sample_ids:
        if not _ID_RE.match(sid):
            raise DatasetError(f"sample id {sid!r} outside [A-Za-z0-9_-]")
    for lab in ds.labels:
        if not _ID_RE.match(lab):
            raise DatasetError(f"label {lab!r} outside [A-Za-z0-9_-]")
    lines = ["sample_id,label," + ",".join(ds.feature_names)]
    for i in range(ds.n_samples):
        vals = ",".join(f"{v:.12g}" for v in ds.matrix[i])
        lines.append(f"{ds.sample_ids[i]},{ds.labels[i]},{vals}" if vals else
                     f"{ds.sample_ids[i]},{ds.labels[i]}")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def load_dataset(path) -> Dataset:
    with open(path, "r", encoding="utf-8") as fh:
        lines = [ln.rstrip("\n") for ln in fh]
    lines = [ln for ln in lines if ln]
    if not lines:
        raise DatasetError("empty dataset file")
    header = lines[0].split(",")
    if header[:2] != ["sample_id", "label"]:
        raise DatasetError("dataset header must start with sample_id,label")
    feature_names = header[2:]
    width = len(header)
    ids, labels, rows = [], [], []
    for lineno, ln in enumerate(lines[1:], start=2):
        cells = ln.split(",")
        if len(cells) != width:
            raise RaggedRowError(f"line {lineno}: {len(cells)} cells, expected {width}")
        ids.append(cells[0])
        labels.append(cells[1])
        try:
            rows.append([float(c) for c in cells[2:]])
        except ValueError:
            raise NonNumericValueError(f"line {lineno}: non-numeric feature cell") from None
    matrix = np.array(rows, dtype=np.float64) if rows else np.empty((0, len(feature_names)))
    return Dataset(ids, labels, matrix, feature_names)


# --- train/test splitting -------------------------------------------------------

def minmax_scaler(train: Dataset) -> tuple[np.ndarray, np.ndarray]:
    """Per-feature (low, span) from the training set; constant columns get span 1."""
    lo = train.matrix.min(axis=0)
    hi = train.matrix.max(axis=0)
    return lo, np.where(hi > lo, hi - lo, 1.0)


def apply_scaler(ds: Dataset, lo: np.ndarray, span: np.ndarray) -> Dataset:
    """Dataset with features rescaled to the scaler's unit box."""
    return Dataset(
        list(ds.sample_ids),
        list(ds.labels),
        (ds.matrix - lo) / span,
        list(ds.feature_names),
        ds.recipe_name,
    )


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


def split(ds: Dataset, test_fraction: float, seed: int) -> SplitResult:
    """Deterministic stratified split; both halves keep the original row order."""
    if not 0.0 < test_fraction < 1.0:
        raise DataError(f"test_fraction must lie in (0, 1), got {test_fraction}")
    n = ds.n_samples
    if n < 2:
        raise DataError("need at least 2 samples to split")
    target = min(max(int(round(test_fraction * n)), 1), n - 1)
    rng = np.random.default_rng(seed)

    by_label: dict[str, list[int]] = {}
    for i, lab in enumerate(ds.labels):
        by_label.setdefault(lab, []).append(i)
    labels_sorted = sorted(by_label)

    stratified = all(len(v) >= 2 for v in by_label.values()) and len(by_label) >= 2
    if not stratified:
        perm = rng.permutation(n)
        test_idx = sorted(int(i) for i in perm[:target])
    else:
        sizes = [len(by_label[lab]) for lab in labels_sorted]
        alloc = _apportion(sizes, test_fraction, target)
        test_idx = []
        for lab, k in zip(labels_sorted, alloc):
            members = by_label[lab]
            perm = rng.permutation(len(members))
            test_idx.extend(members[int(j)] for j in perm[:k])
        test_idx.sort()
    test_set = set(test_idx)
    train_idx = [i for i in range(n) if i not in test_set]
    return SplitResult(ds.subset(train_idx), ds.subset(test_idx), stratified)
