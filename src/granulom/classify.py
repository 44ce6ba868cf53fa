"""k-nearest-neighbour and minimum-distance classification.

Distances are Euclidean over the coordinates a FeatureMask enables;
comparisons happen on squared values, reported distances are the roots.
Neighbour order is ascending distance with ties broken by sample id, and
a split vote falls to the class of the nearest neighbour among the tied
classes, so reports are fully deterministic.

Every squared distance comes from one engine. `squared_difference_table`
lays out (q_f - t_f)**2 feature-major, as (features, queries, train), and
`summed_rows` adds the selected rows left to right in ascending feature
index. That summation order is a contract: the GA's history and mask
bytes depend on it, so no Gram-matrix form, pairwise or reordered sum,
or incremental update may replace it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import sqrt

import numpy as np

from .errors import DataError
from .features import Dataset

__all__ = [
    "FeatureMask",
    "KnnConfig",
    "EvalReport",
    "Neighbour",
    "SampleOutcome",
    "distance",
    "classify_knn",
    "classify_template",
    "evaluate",
    "evaluate_template",
]


@dataclass(frozen=True, eq=False)
class FeatureMask:
    """Binary feature-selection string; bit n enables feature n."""

    bits: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.bits)
        if arr.ndim != 1 or arr.size == 0:
            raise DataError("mask must be a non-empty 1-D bit sequence")
        if arr.dtype != np.bool_:
            if not np.isin(arr, (0, 1)).all():
                raise DataError("mask bits must be 0 or 1")
            arr = arr.astype(bool)
        arr = arr.copy()
        arr.flags.writeable = False
        object.__setattr__(self, "bits", arr)

    @classmethod
    def all_ones(cls, n: int) -> "FeatureMask":
        return cls(np.ones(n, dtype=bool))

    @classmethod
    def from_string(cls, text: str) -> "FeatureMask":
        text = text.strip()
        if not text or set(text) - {"0", "1"}:
            raise DataError("mask string must be non-empty and contain only 0/1")
        return cls(np.frombuffer(text.encode("ascii"), dtype=np.uint8) - ord("0"))

    def to_string(self) -> str:
        return "".join("1" if b else "0" for b in self.bits)

    def __len__(self) -> int:
        return self.bits.size

    def __eq__(self, other) -> bool:
        if not isinstance(other, FeatureMask):
            return NotImplemented
        return bool(np.array_equal(self.bits, other.bits))

    @property
    def n_selected(self) -> int:
        return int(self.bits.sum())

    def indices(self) -> np.ndarray:
        return np.flatnonzero(self.bits)

    def indices_1based(self) -> tuple[int, ...]:
        return tuple(int(i) + 1 for i in np.flatnonzero(self.bits))


@dataclass(frozen=True)
class KnnConfig:
    k: int = 1
    metric: str = "euclidean"

    def __post_init__(self):
        if self.k < 1:
            raise DataError(f"k must be >= 1, got {self.k}")
        if self.metric != "euclidean":
            raise DataError("only the euclidean metric is supported")


@dataclass(frozen=True)
class Neighbour:
    sample_id: str
    label: str
    distance: float


@dataclass(frozen=True)
class SampleOutcome:
    sample_id: str
    true_label: str
    predicted: str
    neighbours: tuple[Neighbour, ...]


@dataclass
class EvalReport:
    hits: int
    total: int
    per_sample: list[SampleOutcome]
    confusion: dict[tuple[str, str], int] = field(default_factory=dict)

    @property
    def recognition_rate(self) -> float:
        return self.hits / self.total if self.total else 0.0

    def to_csv(self, path) -> None:
        k = len(self.per_sample[0].neighbours) if self.per_sample else 0
        header = ["sample_id", "true", "predicted"]
        for i in range(1, k + 1):
            header += [f"n{i}_id", f"n{i}_label", f"n{i}_dist"]
        lines = [",".join(header)]
        for row in self.per_sample:
            cells = [row.sample_id, row.true_label, row.predicted]
            for nb in row.neighbours:
                cells += [nb.sample_id, nb.label, f"{nb.distance:.12g}"]
            lines.append(",".join(cells))
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write("\n".join(lines) + "\n")


def _selected_columns(n_features: int, mask: FeatureMask | None) -> np.ndarray:
    if mask is None:
        return np.arange(n_features)
    if len(mask) != n_features:
        raise DataError(f"mask length {len(mask)} != feature count {n_features}")
    sel = mask.indices()
    if sel.size == 0:
        raise DataError("empty feature mask")
    return sel


def distance(x, m, mask: FeatureMask | None = None) -> float:
    """Euclidean distance over the masked coordinates."""
    xv = np.asarray(x, dtype=np.float64)
    mv = np.asarray(m, dtype=np.float64)
    if xv.shape != mv.shape or xv.ndim != 1:
        raise DataError("vectors must be 1-D and of equal length")
    sel = _selected_columns(xv.size, mask)
    return sqrt(float(_squared_distances(xv[None, sel], mv[None, sel])[0, 0]))


def _ordered_training(train: Dataset) -> tuple[list[int], list[str], list[str], np.ndarray]:
    """Training rows reindexed by ascending sample id (the tie-break order)."""
    order = sorted(range(train.n_samples), key=lambda i: train.sample_ids[i])
    ids = [train.sample_ids[i] for i in order]
    labels = [train.labels[i] for i in order]
    return order, ids, labels, train.matrix[order]


def squared_difference_table(queries: np.ndarray, training: np.ndarray) -> np.ndarray:
    """Feature-major table sq[f, i, j] = (queries[i, f] - training[j, f]) ** 2."""
    sq = np.empty((queries.shape[1], queries.shape[0], training.shape[0]))
    np.subtract(queries.T[:, :, None], training.T[:, None, :], out=sq)
    sq *= sq
    return sq


def summed_rows(sq: np.ndarray, rows) -> np.ndarray:
    """Squared distances over the table rows `rows` (ascending), added left to right."""
    d2 = sq[rows[0]].copy()
    for f in rows[1:]:
        d2 += sq[f]
    return d2


def _squared_distances(queries: np.ndarray, training: np.ndarray) -> np.ndarray:
    """(queries, train) squared distances over every column of both inputs."""
    sq = squared_difference_table(queries, training)
    return summed_rows(sq, range(sq.shape[0]))


def _vote(labels: list[str], order: np.ndarray, k: int) -> str:
    """Plurality among the k nearest; ties fall to the nearest tied class."""
    top = [labels[int(i)] for i in order[:k]]
    counts: dict[str, int] = {}
    for lab in top:
        counts[lab] = counts.get(lab, 0) + 1
    best = max(counts.values())
    tied = {lab for lab, c in counts.items() if c == best}
    for lab in top:
        if lab in tied:
            return lab
    raise AssertionError("unreachable")


def classify_knn(
    train: Dataset, query, cfg: KnnConfig, mask: FeatureMask | None = None
) -> tuple[str, list[Neighbour]]:
    """Label the query by plurality vote over its k nearest training samples."""
    if train.n_samples == 0:
        raise DataError("empty training set")
    if cfg.k > train.n_samples:
        raise DataError(f"k={cfg.k} exceeds training set size {train.n_samples}")
    sel = _selected_columns(train.n_features, mask)
    qv = np.asarray(query, dtype=np.float64)
    if qv.shape != (train.n_features,):
        raise DataError("query length must match the training feature count")
    _, ids, labels, matrix = _ordered_training(train)
    d2 = _squared_distances(qv[None, sel], matrix[:, sel])[0]
    order = np.argsort(d2, kind="stable")
    label = _vote(labels, order, cfg.k)
    neighbours = [
        Neighbour(ids[int(i)], labels[int(i)], sqrt(float(d2[int(i)]))) for i in order[: cfg.k]
    ]
    return label, neighbours


def _class_means(train: Dataset) -> tuple[list[str], np.ndarray]:
    """Per-class template vectors, in sorted label order."""
    class_labels = train.class_labels
    means = np.stack(
        [
            train.matrix[[i for i, l in enumerate(train.labels) if l == lab]].mean(axis=0)
            for lab in class_labels
        ]
    )
    return class_labels, means


def classify_template(train: Dataset, query, mask: FeatureMask | None = None) -> str:
    """Minimum distance to the per-class mean vectors; ties to the smaller label."""
    if train.n_samples == 0:
        raise DataError("empty training set")
    sel = _selected_columns(train.n_features, mask)
    qv = np.asarray(query, dtype=np.float64)
    if qv.shape != (train.n_features,):
        raise DataError("query length must match the training feature count")
    class_labels, means = _class_means(train)
    d2 = _squared_distances(qv[None, sel], means[:, sel])[0]
    return class_labels[int(np.argmin(d2))]


def evaluate_template(
    train: Dataset, test: Dataset, mask: FeatureMask | None = None
) -> EvalReport:
    """Minimum-distance evaluation of every test sample (no neighbour lists)."""
    if train.n_features != test.n_features:
        raise DataError(
            f"feature counts differ: train {train.n_features}, test {test.n_features}"
        )
    if train.n_samples == 0:
        raise DataError("empty training set")
    sel = _selected_columns(train.n_features, mask)
    class_labels, means = _class_means(train)
    test_order = sorted(range(test.n_samples), key=lambda i: test.sample_ids[i])
    d2 = _squared_distances(test.matrix[test_order][:, sel], means[:, sel])
    hits = 0
    per_sample: list[SampleOutcome] = []
    confusion: dict[tuple[str, str], int] = {}
    for row, ti in enumerate(test_order):
        predicted = class_labels[int(np.argmin(d2[row]))]
        truth = test.labels[ti]
        if predicted == truth:
            hits += 1
        confusion[(truth, predicted)] = confusion.get((truth, predicted), 0) + 1
        per_sample.append(SampleOutcome(test.sample_ids[ti], truth, predicted, ()))
    return EvalReport(hits, test.n_samples, per_sample, confusion)


def evaluate(
    train: Dataset, test: Dataset, cfg: KnnConfig, mask: FeatureMask | None = None
) -> EvalReport:
    """Classify every test sample; report rows are sorted by sample id."""
    if train.n_features != test.n_features:
        raise DataError(
            f"feature counts differ: train {train.n_features}, test {test.n_features}"
        )
    if train.n_samples == 0:
        raise DataError("empty training set")
    if cfg.k > train.n_samples:
        raise DataError(f"k={cfg.k} exceeds training set size {train.n_samples}")
    sel = _selected_columns(train.n_features, mask)
    _, train_ids, train_labels, train_matrix = _ordered_training(train)

    test_order = sorted(range(test.n_samples), key=lambda i: test.sample_ids[i])
    queries = test.matrix[test_order][:, sel]
    d2 = _squared_distances(queries, train_matrix[:, sel])

    hits = 0
    per_sample: list[SampleOutcome] = []
    confusion: dict[tuple[str, str], int] = {}
    for row, ti in enumerate(test_order):
        order = np.argsort(d2[row], kind="stable")
        predicted = _vote(train_labels, order, cfg.k)
        truth = test.labels[ti]
        if predicted == truth:
            hits += 1
        confusion[(truth, predicted)] = confusion.get((truth, predicted), 0) + 1
        neighbours = tuple(
            Neighbour(train_ids[int(i)], train_labels[int(i)], sqrt(float(d2[row, int(i)])))
            for i in order[: cfg.k]
        )
        per_sample.append(SampleOutcome(test.sample_ids[ti], truth, predicted, neighbours))
    return EvalReport(hits, test.n_samples, per_sample, confusion)
