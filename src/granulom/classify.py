"""k-nearest-neighbour and minimum-distance classification.

Distances are Euclidean over the coordinates a FeatureMask enables;
comparisons happen on squared values, reported distances are the roots.

Both entry points, `evaluate` (k-NN) and `evaluate_template`, rank
through one path: reference rows in tie-break order, a stable sort of
each query's squared distances, and a plurality vote over the k nearest
that a split falls to the nearest tied class.
k-NN ranks the training rows sorted by sample id, so equal distances are
ordered by sample id. The template (minimum-distance) rule is exactly 1-NN
over the class means, each named by its label and sorted by it, so a
query equidistant from two means goes to the smaller label. Reports are
fully deterministic.

Every squared distance comes from one engine. `squared_difference_table`
lays out (q_f - t_f)**2 feature-major, as (features, queries, train), and
`summed_rows` starts from +0.0 and adds the selected rows left to right
in ascending feature index. That summation order is a contract: the GA's
history and mask bytes depend on it, so no Gram-matrix form, pairwise or
reordered sum, or incremental update may replace it.

Every value compared here comes from a `Dataset`, so it is finite. One
fact makes both the start and the skipped rows exact: a square is never
-0.0, and +0.0 + x is x bit for bit for every x but -0.0. So a sum
started at +0.0 equals the sum started at its first row, and a sum of
no rows is +0.0. Rows of
single-valued columns are left out of the table and of every sum
(`live_columns`): where a column holds one value v over the queries
and the training rows, every difference is v - v = +0.0 and so
is every square, and adding it changes no bit of a sum of squares. With
no live column, every distance is +0.0 and the nearest row is the first.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from math import sqrt

import numpy as np

from .csvrows import write_lines
from .errors import DataError
from .features import Dataset

__all__ = [
    "FeatureMask",
    "KnnConfig",
    "EvalReport",
    "Neighbour",
    "SampleOutcome",
    "live_columns",
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

    def __post_init__(self):
        if self.k < 1:
            raise DataError(f"k must be >= 1, got {self.k}")


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
        write_lines(path, lines)


def _selected_columns(n_features: int, mask: FeatureMask | None) -> np.ndarray:
    if n_features == 0:
        raise DataError("no features to compare")
    if mask is None:
        return np.arange(n_features)
    if len(mask) != n_features:
        raise DataError(f"mask length {len(mask)} != feature count {n_features}")
    sel = mask.indices()
    if sel.size == 0:
        raise DataError("empty feature mask")
    return sel


# Reference rows (ids, labels, matrix) in tie-break order.
_Rows = tuple[list[str], list[str], np.ndarray]


def _training_rows(train: Dataset) -> _Rows:
    """Training rows by ascending sample id."""
    order = sorted(range(train.n_samples), key=lambda i: train.sample_ids[i])
    return [train.sample_ids[i] for i in order], [train.labels[i] for i in order], train.matrix[order]


def _mean_rows(train: Dataset) -> _Rows:
    """Per-class mean vectors, each named by its label, in label order."""
    labels = train.class_labels
    means = np.zeros((len(labels), train.n_features))
    for row, lab in enumerate(labels):
        means[row] = train.matrix[[i for i, l in enumerate(train.labels) if l == lab]].mean(axis=0)
    return labels, labels, means


def squared_difference_table(queries: np.ndarray, training: np.ndarray) -> np.ndarray:
    """Feature-major table sq[f, i, j] = (queries[i, f] - training[j, f]) ** 2."""
    sq = np.empty((queries.shape[1], queries.shape[0], training.shape[0]))
    np.subtract(queries.T[:, :, None], training.T[:, None, :], out=sq)
    sq *= sq
    return sq


def summed_rows(sq, rows, out: np.ndarray) -> np.ndarray:
    """Squared distances over the table rows `rows` (ascending): +0.0 plus each row, left to right.

    `sq` is the table or a list of its rows. The sum overwrites `out`,
    which is returned.
    """
    out.fill(0.0)
    for f in rows:
        out += sq[f]
    return out


def live_columns(queries: np.ndarray, training: np.ndarray) -> np.ndarray:
    """Ascending indices of the columns that do not hold one single value over both inputs.

    Both inputs hold finite values only. A column left out adds +0.0 to
    every squared distance (see the module docstring).
    """
    first = (queries if queries.shape[0] else training)[:1]
    single = (queries == first).all(axis=0) & (training == first).all(axis=0)
    return np.flatnonzero(~single)


def _squared_distances(queries: np.ndarray, training: np.ndarray) -> np.ndarray:
    """(queries, train) squared distances over the live columns of both inputs."""
    live = live_columns(queries, training)
    sq = squared_difference_table(queries[:, live], training[:, live])
    return summed_rows(sq, range(live.size), np.empty(sq.shape[1:]))


def _vote(top: list[str]) -> str:
    """Plurality among the nearest labels; ties fall to the nearest tied class."""
    counts = Counter(top)
    best = max(counts.values())
    return next(lab for lab in top if counts[lab] == best)


def check_k(k: int, n_train: int) -> None:
    """A DataError unless a training set of n_train rows holds k neighbours."""
    if n_train == 0:
        raise DataError("empty training set")
    if k > n_train:
        raise DataError(f"k={k} exceeds training set size {n_train}")


def _rank(
    refs: _Rows, queries: np.ndarray, k: int, mask: FeatureMask | None
) -> list[tuple[str, tuple[Neighbour, ...]]]:
    """Vote and k nearest reference rows of every query row.

    Equal distances keep the reference order (stable sort), so the earlier
    row ranks first.
    """
    ids, labels, matrix = refs
    check_k(k, matrix.shape[0])
    sel = _selected_columns(matrix.shape[1], mask)
    if queries.shape[1:] != matrix.shape[1:]:
        raise DataError(f"query rows {queries.shape[1:]} do not match {matrix.shape[1]} features")
    ranked = []
    for d2 in _squared_distances(queries[:, sel], matrix[:, sel]):
        nearest = tuple(
            Neighbour(ids[i], labels[i], sqrt(float(d2[i])))
            for i in np.argsort(d2, kind="stable")[:k].tolist()
        )
        ranked.append((_vote([n.label for n in nearest]), nearest))
    return ranked


def _report(
    refs: _Rows, test: Dataset, k: int, mask: FeatureMask | None, listed: int
) -> EvalReport:
    """Classify every test sample; rows sorted by sample id, `listed` neighbours each."""
    order = sorted(range(test.n_samples), key=lambda i: test.sample_ids[i])
    per_sample = [
        SampleOutcome(test.sample_ids[i], test.labels[i], predicted, nearest[:listed])
        for i, (predicted, nearest) in zip(order, _rank(refs, test.matrix[order], k, mask))
    ]
    hits = sum(s.predicted == s.true_label for s in per_sample)
    return EvalReport(hits, test.n_samples, per_sample)


def evaluate_template(
    train: Dataset, test: Dataset, mask: FeatureMask | None = None
) -> EvalReport:
    """Minimum-distance evaluation of every test sample (no neighbour lists)."""
    return _report(_mean_rows(train), test, 1, mask, listed=0)


def evaluate(
    train: Dataset, test: Dataset, cfg: KnnConfig, mask: FeatureMask | None = None
) -> EvalReport:
    """Classify every test sample; report rows are sorted by sample id."""
    return _report(_training_rows(train), test, cfg.k, mask, listed=cfg.k)
