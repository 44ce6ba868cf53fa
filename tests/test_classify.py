import numpy as np
import pytest

from conftest import knn_oracle, left_to_right_d2
from granulom.classify import (
    EvalReport,
    FeatureMask,
    KnnConfig,
    _squared_distances,
    classify_knn,
    classify_template,
    distance,
    evaluate,
    evaluate_template,
    squared_difference_table,
    summed_rows,
)
from granulom.errors import DataError
from granulom.features import Dataset


def _dataset(rows, labels, ids=None):
    matrix = np.asarray(rows, dtype=np.float64)
    ids = ids or [f"t-{i+1}" for i in range(matrix.shape[0])]
    return Dataset(ids, list(labels), matrix)


# --- distance -------------------------------------------------------------------

def test_distance_examples():
    assert distance([1.0, 2.0], [1.0, 2.0]) == 0.0
    assert distance([0.0, 0.0], [3.0, 4.0]) == 5.0
    mask = FeatureMask(np.array([1, 1, 0]))
    assert distance([3.0, 4.0, 100.0], [0.0, 0.0, 0.0], mask) == 5.0


def test_distance_errors():
    with pytest.raises(DataError):
        distance([1.0], [1.0, 2.0])
    with pytest.raises(DataError):
        distance([1.0, 2.0], [1.0, 2.0], FeatureMask(np.array([0, 0])))
    with pytest.raises(DataError):
        distance([1.0, 2.0], [1.0, 2.0], FeatureMask(np.array([1, 1, 1])))


def test_distance_metric_properties(rng):
    for _ in range(30):
        n = int(rng.integers(2, 10))
        x, y, z = rng.normal(size=(3, n))
        bits = rng.random(n) < 0.6
        if not bits.any():
            bits[0] = True
        mask = FeatureMask(bits)
        dxy = distance(x, y, mask)
        assert dxy == distance(y, x, mask)
        assert dxy >= 0.0
        assert distance(x, x, mask) == 0.0
        assert distance(x, z, mask) <= dxy + distance(y, z, mask) + 1e-12


# --- mask ------------------------------------------------------------------------

def test_mask_roundtrip_and_indices():
    mask = FeatureMask.from_string("0101")
    assert mask.to_string() == "0101"
    assert mask.n_selected == 2
    assert mask.indices_1based() == (2, 4)
    with pytest.raises(DataError):
        FeatureMask.from_string("01x1")
    with pytest.raises(DataError):
        FeatureMask(np.array([], dtype=bool))


# --- k-NN ------------------------------------------------------------------------

def test_knn_self_match():
    train = _dataset([[0, 0], [5, 5], [9, 1]], ["a", "b", "c"])
    label, neighbours = classify_knn(train, [5, 5], KnnConfig(1))
    assert label == "b"
    assert neighbours[0].sample_id == "t-2" and neighbours[0].distance == 0.0


def test_knn_plurality_and_tie_rule():
    train = _dataset(
        [[0.0], [1.0], [2.0], [10.0]],
        ["A", "A", "B", "C"],
    )
    label, _ = classify_knn(train, [0.4], KnnConfig(3))
    assert label == "A"  # votes A,A,B
    train = _dataset([[1.0], [2.0], [3.0]], ["A", "B", "C"])
    label, neighbours = classify_knn(train, [0.9], KnnConfig(3))
    assert label == "A"  # 1-1-1 split falls to the nearest
    assert [n.label for n in neighbours] == ["A", "B", "C"]


def test_knn_equal_distance_orders_by_sample_id():
    train = _dataset([[1.0], [1.0], [1.0]], ["x", "y", "z"], ids=["m", "a", "z"])
    _, neighbours = classify_knn(train, [1.0], KnnConfig(3))
    assert [n.sample_id for n in neighbours] == ["a", "m", "z"]


def test_knn_errors():
    train = _dataset([[0.0]], ["a"])
    with pytest.raises(DataError):
        classify_knn(train, [0.0], KnnConfig(2))
    with pytest.raises(DataError):
        classify_knn(train, [0.0, 1.0], KnnConfig(1))


def test_knn_matches_oracle_randomized(rng):
    for trial in range(60):
        n_train = int(rng.integers(3, 40))
        n_feat = int(rng.integers(1, 25))
        k = int(rng.integers(1, min(n_train, 7) + 1))
        matrix = rng.normal(size=(n_train, n_feat))
        labels = [f"c{int(v)}" for v in rng.integers(0, 4, n_train)]
        ids = [f"s{i:03d}" for i in rng.permutation(n_train)]
        train = Dataset(ids, labels, matrix)
        query = rng.normal(size=n_feat)
        if trial % 2:
            bits = rng.random(n_feat) < 0.5
            if not bits.any():
                bits[int(rng.integers(0, n_feat))] = True
            mask = FeatureMask(bits)
            mask_idx = np.flatnonzero(bits)
        else:
            mask, mask_idx = None, None
        expect_label, expect_ids = knn_oracle(
            list(zip(ids, labels, matrix)), query, k, mask_idx
        )
        label, neighbours = classify_knn(train, query, KnnConfig(k), mask)
        assert label == expect_label
        assert [n.sample_id for n in neighbours] == expect_ids


def test_full_mask_equals_unmasked(rng):
    train = _dataset(rng.normal(size=(20, 6)), [f"c{i%3}" for i in range(20)])
    query = rng.normal(size=6)
    full = FeatureMask.all_ones(6)
    assert classify_knn(train, query, KnnConfig(3)) == classify_knn(
        train, query, KnnConfig(3), full
    )


# --- template classifier -----------------------------------------------------------

def test_template_examples():
    train = _dataset(
        [[0, 0], [0, 0], [10, 10], [10, 10]],
        ["low", "low", "high", "high"],
    )
    assert classify_template(train, [1, 1]) == "low"
    # equidistant: lexicographically smaller label wins
    assert classify_template(train, [5, 5]) == "high"


def test_template_equals_1nn_on_singleton_classes(rng):
    matrix = rng.normal(size=(6, 4))
    labels = [f"c{i}" for i in range(6)]
    train = _dataset(matrix, labels)
    for _ in range(10):
        q = rng.normal(size=4)
        knn_label, _ = classify_knn(train, q, KnnConfig(1))
        assert classify_template(train, q) == knn_label


# --- evaluate --------------------------------------------------------------------

def test_evaluate_rates():
    train = _dataset([[0.0], [10.0]], ["a", "b"])
    test = _dataset(
        [[0.1], [0.2], [9.0], [4.9]],
        ["a", "a", "b", "b"],
        ids=["q1", "q2", "q3", "q4"],
    )
    rep = evaluate(train, test, KnnConfig(1))
    assert rep.hits == 3 and rep.total == 4
    assert rep.recognition_rate == 0.75
    assert rep.confusion[("b", "a")] == 1
    assert EvalReport(49, 50, []).recognition_rate == 0.98
    assert EvalReport(47, 50, []).recognition_rate == 0.94


def test_evaluate_self_is_perfect(rng):
    matrix = rng.normal(size=(15, 5))
    ds = _dataset(matrix, [f"c{i%4}" for i in range(15)])
    rep = evaluate(ds, ds, KnnConfig(1))
    assert rep.hits == 15


def test_evaluate_report_sorted_and_deterministic(tmp_path, rng):
    train = _dataset(rng.normal(size=(9, 3)), [f"c{i%3}" for i in range(9)])
    test = Dataset(
        ["zz", "aa", "mm"], ["c0", "c1", "c2"], rng.normal(size=(3, 3))
    )
    rep = evaluate(train, test, KnnConfig(3))
    assert [s.sample_id for s in rep.per_sample] == ["aa", "mm", "zz"]
    p1, p2 = tmp_path / "r1.csv", tmp_path / "r2.csv"
    rep.to_csv(p1)
    evaluate(train, test, KnnConfig(3)).to_csv(p2)
    assert p1.read_bytes() == p2.read_bytes()
    header = p1.read_text().splitlines()[0]
    assert header.startswith("sample_id,true,predicted,n1_id,n1_label,n1_dist")


def test_evaluate_feature_count_mismatch():
    train = _dataset([[0.0, 1.0]], ["a"])
    test = _dataset([[0.0]], ["a"], ids=["q"])
    with pytest.raises(DataError):
        evaluate(train, test, KnnConfig(1))


def test_evaluate_template_mode():
    train = _dataset(
        [[0, 0], [0, 2], [10, 10], [10, 12]],
        ["lo", "lo", "hi", "hi"],
    )
    test = _dataset([[1, 1], [9, 9]], ["lo", "hi"], ids=["a", "b"])
    rep = evaluate_template(train, test)
    assert rep.hits == 2
    assert all(s.neighbours == () for s in rep.per_sample)


# --- distance engine ------------------------------------------------------------

def _engine_inputs(rng, n_features):
    scale = rng.uniform(0.1, 1000.0, size=n_features)  # mixed magnitudes expose reordering
    return rng.normal(size=(7, n_features)) * scale, rng.normal(size=(11, n_features)) * scale


@pytest.mark.parametrize("n_features", [1, 9, 117, 150])
def test_engine_matches_left_to_right_reference(rng, n_features):
    queries, training = _engine_inputs(rng, n_features)
    sq = squared_difference_table(queries, training)
    assert sq.shape == (n_features, 7, 11)
    masks = [np.ones(n_features, dtype=bool), np.eye(1, n_features, n_features - 1, dtype=bool)[0]]
    masks += [rng.random(n_features) < p for p in (0.1, 0.5, 0.9)]
    for bits in masks:
        sel = np.flatnonzero(bits)
        if sel.size == 0:
            continue
        expected = left_to_right_d2(queries, training, sel)
        assert np.array_equal(summed_rows(sq, sel), expected)
        assert np.array_equal(_squared_distances(queries[:, sel], training[:, sel]), expected)
        assert distance(queries[0], training[0], FeatureMask(bits)) == np.sqrt(expected[0, 0])


@pytest.mark.parametrize("n_features", [1, 117, 150])
def test_knn_and_template_distances_are_left_to_right(rng, n_features):
    queries, training = _engine_inputs(rng, n_features)
    labels = [f"c{i % 3}" for i in range(training.shape[0])]
    ids = [f"t{i:02d}" for i in range(training.shape[0])]
    train = Dataset(ids, labels, training)
    bits = rng.random(n_features) < 0.5
    bits[0] = True
    for mask in (None, FeatureMask(bits)):
        sel = np.arange(n_features) if mask is None else mask.indices()
        # single query: every reported distance is the root of the reference sum
        _, neighbours = classify_knn(train, queries[0], KnnConfig(len(ids)), mask)
        reference = left_to_right_d2(queries[:1], training, sel)[0]
        by_id = dict(zip(ids, reference))
        assert [n.distance for n in neighbours] == [np.sqrt(by_id[n.sample_id]) for n in neighbours]
        # class means: the template decision is the argmin of the reference sums
        means = np.stack([training[[i for i, l in enumerate(labels) if l == c]].mean(axis=0)
                          for c in train.class_labels])
        expected = left_to_right_d2(queries, means, sel)
        assert np.array_equal(_squared_distances(queries[:, sel], means[:, sel]), expected)
        for q, row in zip(queries, expected):
            assert classify_template(train, q, mask) == train.class_labels[int(np.argmin(row))]
