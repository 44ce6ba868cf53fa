"""k-nearest-neighbour and minimum-distance classification.

Distances are Euclidean over the coordinates a FeatureMask enables;
comparisons happen on squared values, reported distances are the roots.

Both entry points, `evaluate` (k-NN) and `evaluate_template`, rank
through one path: reference rows in tie-break order, k argmin passes over
the (queries, refs) matrix of `_nearest_distances`, and a plurality vote
over the k nearest that a split falls to the nearest tied class. Each
pass picks every query's first smallest entry and sets it to +inf, so
the passes pick the first k entries of a stable sort. +inf is a safe
sentinel: `Dataset` bounds every value by MAX_FEATURE_MAGNITUDE, which
keeps every squared distance finite.
k-NN ranks the training rows sorted by sample id, so equal distances are
ordered by sample id. The template (minimum-distance) rule is exactly 1-NN
over the class means, each named by its label and sorted by it, so a
query equidistant from two means goes to the smaller label. Reports are
fully deterministic.

Every squared distance comes from one engine. `squared_rows` yields the
(queries, train) row (q_f - t_f)**2 of each column it is given, in turn,
one subtraction and then one product, and `summed_rows` starts from +0.0
and adds rows left to right in ascending feature index. The GA keeps the
list of fresh rows and sums a subset of it for each mask. The summation
order is a contract: the GA's history and mask bytes depend on it, so no
Gram-matrix form, pairwise or reordered sum, or incremental update may
replace it.

The classifiers compute a sum in full only where its pair can still rank
(partial distance search). `_nearest_distances` streams the rows of the
head, the first ceil(F * HEAD_SHARE) of the F live columns, through one
reused buffer into every pair's sum, and then sets a bound for each
query: the k pairs with the smallest head sums are finished over the
tail, the remaining columns, and the bound is the largest of their k
sums. A pair whose head sum exceeds its query's bound gets +inf, and
every other pair continues from its own head sum over the tail, column
by column in ascending index. Every square is >= +0.0 and rounding is
monotone, so fl(a + b) >= a: no partial sum exceeds its final sum. A
pruned pair's final sum is then strictly larger than the bound, which is
at least the query's k-th smallest sum, so no pruned pair is among the
first k of a stable sort. The bound's own pairs survive, so every query
keeps at least k finite entries. Each finite entry is the dense sum's
sequence of additions, pair by pair, so its bits are the dense sum's and
every report is the one a dense matrix gives. The tail rows are added to
the whole matrix instead where the survivors' gathers cost more than they
save: where the references are no more than the tail columns (the class
means of `evaluate_template`, say), and where more than 3 in 10 pairs
survive the bound (k equal to the reference count, say).

Every value compared here comes from a `Dataset`, so it is finite. One
fact makes both the start and the skipped rows exact: a square is never
-0.0, and +0.0 + x is x bit for bit for every x but -0.0. So a sum
started at +0.0 equals the sum started at its first row, and a sum of
no rows is +0.0. Rows of single-valued columns are neither computed nor
summed (`live_columns`): where a column holds one value v over the
queries and the training rows, every difference is v - v = +0.0 and so
is every square, and adding it changes no bit of a sum of squares. With
no live column, every distance is +0.0 and the nearest row is the first.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

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
    members: dict[str, list[int]] = {}  # str keys: numpy's str dtype drops trailing NULs
    for i, label in enumerate(train.labels):
        members.setdefault(label, []).append(i)
    labels = sorted(members)
    means = np.zeros((len(labels), train.n_features))
    for row, lab in enumerate(labels):
        means[row] = train.matrix[members[lab]].mean(axis=0)
    return labels, labels, means


def squared_rows(queries: np.ndarray, training: np.ndarray, columns, out: np.ndarray | None = None):
    """Yield row f = (queries[:, f, None] - training[:, f]) ** 2 for each f of `columns` in order.

    Each row is one subtraction, then one product of the row by itself,
    written into `out` when it is given (so each row overwrites the one
    before it) and into a fresh (queries, train) array otherwise. The
    rows are read through views, so no column is copied.
    """
    query_columns, training_columns = queries.T[:, :, None], training.T
    for f in columns:
        row = np.subtract(query_columns[f], training_columns[f], out=out)
        yield np.multiply(row, row, out=row)


def summed_rows(rows, out: np.ndarray) -> np.ndarray:
    """+0.0 plus each of the rows, left to right; the sum overwrites `out`, which is returned."""
    out.fill(0.0)
    for row in rows:
        out += row
    return out


def live_columns(queries: np.ndarray, training: np.ndarray) -> np.ndarray:
    """Ascending indices of the columns that do not hold one single value over both inputs.

    Both inputs hold finite values only. A column left out adds +0.0 to
    every squared distance (see the module docstring).
    """
    first = (queries if queries.shape[0] else training)[:1]
    single = (queries == first).all(axis=0) & (training == first).all(axis=0)
    return np.flatnonzero(~single)


# Share of the live columns summed over every pair before the pruning bound is
# set: the head is the first ceil(F * HEAD_SHARE) of the F live columns. A
# larger head prunes more pairs but sums more columns densely; a quarter beat a
# third on unmasked lot117 splits, where the distances cost the most.
HEAD_SHARE = 0.25


def _tail_sums(head: np.ndarray, tail_q: np.ndarray, tail_r: np.ndarray, pairs: np.ndarray) -> np.ndarray:
    """Head sums of the flat (queries, refs) indices `pairs`, each continued over the tail.

    tail_q (queries, T) and tail_r (refs, T) hold the tail columns. Each
    pair adds (q_f - t_f)**2, one subtraction and then one product as in
    `squared_rows`, to its own head sum, column by column in ascending
    index, so the sum has the dense sum's bits. The pairs are gathered in
    chunks, so no temporary is larger than one (queries, refs) matrix.
    """
    qi, ri = np.divmod(pairs, head.shape[1])
    sums = head.ravel()[pairs]
    step = max(1, head.size // tail_q.shape[1])
    for start in range(0, pairs.size, step):
        chunk = slice(start, start + step)
        rows = tail_q.take(qi[chunk], axis=0)
        np.subtract(rows, tail_r.take(ri[chunk], axis=0), out=rows)
        np.multiply(rows, rows, out=rows)
        acc = sums[chunk]
        for column in rows.T:
            acc += column
    return sums


def _nearest_distances(queries: np.ndarray, refs: np.ndarray, k: int) -> np.ndarray:
    """(queries, refs) squared distances over the live columns, +inf where a pair cannot rank.

    Every pair among its query's k nearest holds its exact dense sum (see
    the module docstring); a pair that holds +inf has a sum strictly larger
    than its query's k-th smallest. Every query row keeps at least k
    finite entries.
    """
    live = live_columns(queries, refs).tolist()  # Python ints index fastest
    head = math.ceil(len(live) * HEAD_SHARE)
    shape = (queries.shape[0], refs.shape[0])
    buf = np.empty(shape)
    d2 = summed_rows(squared_rows(queries, refs, live[:head], buf), np.empty(shape))
    tail = live[head:]
    # The survivors' gathers beat the dense tail only where a chunk holds more than one
    # pair per query, so more reference rows than tail columns (on lot117's 14 class
    # means the gathers were 1.3 to 5 times slower at every share), and where at most
    # 3 in 10 pairs survive (on lot117 splits the two cost the same at 30-35%)
    if 0 < len(tail) < shape[1]:
        # the bound: the largest finished sum of each query's k smallest head sums
        np.copyto(buf, d2)
        offsets = np.arange(shape[0]) * shape[1]
        first = np.empty((shape[0], k), dtype=np.intp)
        for j in range(k):
            first[:, j] = offsets + buf.argmin(axis=1)
            buf.ravel()[first[:, j]] = np.inf
        tail_q, tail_r = queries[:, tail], refs[:, tail]
        bound = _tail_sums(d2, tail_q, tail_r, first.ravel()).reshape(first.shape).max(axis=1)
        survive = d2 <= bound[:, None]
        if 10 * np.count_nonzero(survive) <= 3 * d2.size:  # finish only the survivors
            pairs = np.flatnonzero(survive)
            sums = _tail_sums(d2, tail_q, tail_r, pairs)
            d2.fill(np.inf)
            d2.ravel()[pairs] = sums
            return d2
    for row in squared_rows(queries, refs, tail, buf):  # the dense tail
        d2 += row
    return d2


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

    The k argmin passes (see the module docstring) pick the first k
    entries of a stable sort: equal distances keep the reference order,
    so the earlier row ranks first.
    """
    ids, labels, matrix = refs
    check_k(k, matrix.shape[0])
    sel = _selected_columns(matrix.shape[1], mask)
    if queries.shape[1] != matrix.shape[1]:
        raise DataError(
            f"test set has {queries.shape[1]} features, the training set {matrix.shape[1]}"
        )
    d2 = _nearest_distances(queries[:, sel], matrix[:, sel], k)  # this call's own: overwritten below
    rows = np.arange(d2.shape[0])
    nearest = np.empty((d2.shape[0], k), dtype=np.intp)
    picked = np.empty((d2.shape[0], k))
    for j in range(k):
        col = d2.argmin(axis=1)
        nearest[:, j], picked[:, j] = col, d2[rows, col]
        d2[rows, col] = np.inf
    winner = nearest[:, 0]
    if k > 1:
        # plurality: count, at each position, the neighbours that share its label;
        # argmax takes the first (nearest) position of a largest count
        codes: dict[str, int] = {}
        table = np.array([codes.setdefault(lab, len(codes)) for lab in labels])[nearest]
        counts = np.zeros(table.shape, dtype=np.intp)
        for j in range(k):
            counts += table == table[:, j, None]
        winner = nearest[rows, counts.argmax(axis=1)]
    # IEEE square roots are correctly rounded, so every root is rounded once, as math.sqrt's
    return [
        (labels[w], tuple(Neighbour(ids[i], labels[i], d) for i, d in zip(cols, dists)))
        for w, cols, dists in zip(winner.tolist(), nearest.tolist(), np.sqrt(picked).tolist())
    ]


def _report(
    refs: _Rows, test: Dataset, k: int, mask: FeatureMask | None, listed: int
) -> EvalReport:
    """Classify every test sample; rows sorted by sample id, `listed` neighbours each."""
    if test.n_samples == 0:
        raise DataError("empty test set")
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
