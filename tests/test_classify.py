import hashlib

import numpy as np
import pytest

from conftest import knn_oracle, left_to_right_d2
from granulom.classify import (
    EvalReport,
    FeatureMask,
    KnnConfig,
    _squared_distances,
    evaluate,
    evaluate_template,
    live_columns,
    squared_difference_table,
    summed_rows,
)
from granulom.errors import DataError
from granulom.features import Dataset


def _dataset(rows, labels, ids=None):
    matrix = np.asarray(rows, dtype=np.float64)
    ids = ids or [f"t-{i+1}" for i in range(matrix.shape[0])]
    return Dataset(ids, list(labels), matrix)


def _queries(rows):
    """Query rows as a dataset, sample ids q000, q001, ... in row order."""
    matrix = np.asarray(rows, dtype=np.float64)
    return Dataset([f"q{i:03d}" for i in range(len(matrix))], ["q"] * len(matrix), matrix)


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
    [s] = evaluate(train, _queries([[5, 5]]), KnnConfig(1)).per_sample
    assert s.predicted == "b"
    assert s.neighbours[0].sample_id == "t-2" and s.neighbours[0].distance == 0.0


def test_knn_plurality_and_tie_rule():
    train = _dataset(
        [[0.0], [1.0], [2.0], [10.0]],
        ["A", "A", "B", "C"],
    )
    [s] = evaluate(train, _queries([[0.4]]), KnnConfig(3)).per_sample
    assert s.predicted == "A"  # votes A,A,B
    train = _dataset([[1.0], [2.0], [3.0]], ["A", "B", "C"])
    [s] = evaluate(train, _queries([[0.9]]), KnnConfig(3)).per_sample
    assert s.predicted == "A"  # 1-1-1 split falls to the nearest
    assert [n.label for n in s.neighbours] == ["A", "B", "C"]


def test_knn_equal_distance_orders_by_sample_id():
    train = _dataset([[1.0], [1.0], [1.0]], ["x", "y", "z"], ids=["m", "a", "z"])
    [s] = evaluate(train, _queries([[1.0]]), KnnConfig(3)).per_sample
    assert [n.sample_id for n in s.neighbours] == ["a", "m", "z"]


def test_knn_errors():
    train = _dataset([[0.0]], ["a"])
    with pytest.raises(DataError):
        evaluate(train, _queries([[0.0]]), KnnConfig(2))
    with pytest.raises(DataError):
        evaluate(train, _queries([[0.0, 1.0]]), KnnConfig(1))


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
        [s] = evaluate(train, _queries([query]), KnnConfig(k), mask).per_sample
        assert s.predicted == expect_label
        assert [n.sample_id for n in s.neighbours] == expect_ids


def test_full_mask_equals_unmasked(rng):
    train = _dataset(rng.normal(size=(20, 6)), [f"c{i%3}" for i in range(20)])
    queries = _queries([rng.normal(size=6)])
    full = FeatureMask(np.ones(6, dtype=bool))
    assert evaluate(train, queries, KnnConfig(3)).per_sample == evaluate(
        train, queries, KnnConfig(3), full
    ).per_sample


# --- template classifier -----------------------------------------------------------

def test_template_examples():
    train = _dataset(
        [[0, 0], [0, 0], [10, 10], [10, 10]],
        ["low", "low", "high", "high"],
    )
    report = evaluate_template(train, _queries([[1, 1], [5, 5]]))
    # [5, 5] is equidistant: the lexicographically smaller label wins
    assert [s.predicted for s in report.per_sample] == ["low", "high"]


def test_template_equals_1nn_on_singleton_classes(rng):
    matrix = rng.normal(size=(6, 4))
    labels = [f"c{i}" for i in range(6)]
    train = _dataset(matrix, labels)
    queries = _queries(rng.normal(size=(10, 4)))
    knn = evaluate(train, queries, KnnConfig(1))
    template = evaluate_template(train, queries)
    assert [s.predicted for s in template.per_sample] == [s.predicted for s in knn.per_sample]


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
    assert [(s.true_label, s.predicted) for s in rep.per_sample] == [
        ("a", "a"), ("a", "a"), ("b", "b"), ("b", "a")]
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
        assert np.array_equal(summed_rows(sq, sel, np.empty((7, 11))), expected)
        assert np.array_equal(_squared_distances(queries[:, sel], training[:, sel]), expected)


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
        [first] = evaluate(train, _queries(queries[:1]), KnnConfig(len(ids)), mask).per_sample
        neighbours = first.neighbours
        reference = left_to_right_d2(queries[:1], training, sel)[0]
        by_id = dict(zip(ids, reference))
        assert [n.distance for n in neighbours] == [np.sqrt(by_id[n.sample_id]) for n in neighbours]
        # class means: the template decision is the argmin of the reference sums
        means = np.stack([training[[i for i, l in enumerate(labels) if l == c]].mean(axis=0)
                          for c in train.class_labels])
        expected = left_to_right_d2(queries, means, sel)
        assert np.array_equal(_squared_distances(queries[:, sel], means[:, sel]), expected)
        template = evaluate_template(train, _queries(queries), mask)
        assert [s.predicted for s in template.per_sample] == [
            train.class_labels[int(np.argmin(row))] for row in expected]


# --- single-valued columns -----------------------------------------------------

def _planted_inputs(rng, n_features, planted):
    """Engine inputs with single-valued columns planted at `planted`; the dead ones are returned.

    A planted column holds one value over both inputs (signed zeros mixed
    in some), or one value in only one of them, or one value in each of
    them but not the same one; only the first two kinds are dead.
    """
    queries, training = _engine_inputs(rng, n_features)
    values = np.array([0.0, -0.0, 1.5, -3e5, 7e-9, 1e150])
    dead = []
    for f in planted:
        v = rng.choice(values)
        kind = rng.integers(5)
        if kind == 0:  # one value over both inputs
            queries[:, f] = training[:, f] = v
        elif kind == 1:  # +0.0 and -0.0 mixed: one value, since +0.0 == -0.0
            queries[:, f] = np.where(rng.random(queries.shape[0]) < 0.5, 0.0, -0.0)
            training[:, f] = np.where(rng.random(training.shape[0]) < 0.5, 0.0, -0.0)
        elif kind == 2:  # one value in the queries only
            queries[:, f] = v
        elif kind == 3:  # one value in the training rows only
            training[:, f] = v
        else:  # one value in each input, not the same one
            queries[:, f], training[:, f] = v, 2.0 * v + 1.0
        if kind < 2:
            dead.append(int(f))
    return queries, training, sorted(dead)


def test_live_columns_are_the_columns_not_holding_one_value(rng):
    for _ in range(20):
        n_features = int(rng.integers(1, 40))
        planted = rng.choice(n_features, size=int(rng.integers(0, n_features + 1)), replace=False)
        queries, training, dead = _planted_inputs(rng, n_features, planted)
        live = live_columns(queries, training)
        assert live.tolist() == sorted(set(range(n_features)) - set(dead))


def test_skipping_single_valued_rows_is_bitwise_exact(rng):
    for trial in range(60):
        n_features = int(rng.integers(1, 40))
        share = (0.0, 0.5, 1.0)[trial % 3]  # none, some or every column planted
        planted = rng.choice(n_features, size=int(share * n_features), replace=False)
        queries, training, dead = _planted_inputs(rng, n_features, planted)
        table = squared_difference_table(queries, training)
        every_row = summed_rows(table, range(n_features), np.empty(table.shape[1:]))
        skipped = _squared_distances(queries, training)
        assert skipped.shape == every_row.shape
        assert np.array_equal(skipped.view(np.int64), every_row.view(np.int64))
    # no live column at all: every distance is +0.0
    queries, training = np.full((3, 4), 2.5), np.full((5, 4), 2.5)
    queries[:, 1], training[:, 1] = -0.0, 0.0
    assert live_columns(queries, training).size == 0
    d2 = _squared_distances(queries, training)
    assert d2.shape == (3, 5) and not d2.view(np.int64).any()
    # a sum of no rows is +0.0 everywhere, over the table or its row list, and
    # `out` is overwritten, never added to
    table = squared_difference_table(queries, training)
    for sq in (table, list(table)):
        for fill in (np.nan, -0.0):
            out = np.full((3, 5), fill)
            assert summed_rows(sq, [], out) is out and not out.view(np.int64).any()
    queries, training = _engine_inputs(rng, 5)
    table = squared_difference_table(queries, training)
    for fill in (np.nan, -0.0):
        out = summed_rows(list(table), [1, 3, 4], np.full((7, 11), fill))
        fresh = summed_rows(table, [1, 3, 4], np.empty((7, 11)))
        assert np.array_equal(out.view(np.int64), fresh.view(np.int64))


def test_mask_of_only_constant_features_picks_first_training_sample_by_id(rng):
    rows = rng.normal(size=(6, 4))
    rows[:, 1] = 3.25
    rows[:, 3] = -0.0
    train = _dataset(rows, ["a", "b", "c", "a", "b", "c"], ids=["t5", "t3", "t9", "t1", "t4", "t2"])
    queries = rng.normal(size=(3, 4))
    queries[:, 1] = 3.25
    queries[:, 3] = 0.0
    test = _dataset(queries, ["b", "a", "c"], ids=["q1", "q2", "q3"])
    mask = FeatureMask(np.array([0, 1, 0, 1]))
    rep = evaluate(train, test, KnnConfig(6), mask)
    for outcome in rep.per_sample:
        assert [n.sample_id for n in outcome.neighbours] == sorted(train.sample_ids)
        assert all(n.distance == 0.0 for n in outcome.neighbours)
    one = evaluate(train, test, KnnConfig(1), mask)
    assert [s.predicted for s in one.per_sample] == ["a", "a", "a"]  # label of t1
    assert one.hits == 1


# --- golden classify record ------------------------------------------------------

GOLDEN_LABELS = ["VIM", "ALM", "ROS", "GRS"]  # generation order, not label order
GOLDEN_MASK = "101101011"


def _golden_split():
    """40 train x 12 test x 9 features, 4 classes, with exact ties built in.

    Each class is five +/- offset pairs around an integer centre, so its mean
    is the centre exactly. VIM's first pair has offset 0 (two equal VIM rows),
    and ALM's first row equals VIM's third (equal rows of two classes). One
    test row is the midpoint of the VIM and ROS centres (equidistant from both
    means, in every mask), and one repeats the row VIM and ALM share.
    """
    rng = np.random.default_rng(5)
    centres = rng.integers(-20, 21, size=(4, 9)).astype(np.float64)
    rows, labels = [], []
    for c, centre in enumerate(centres):
        offsets = rng.integers(-6, 7, size=(5, 9)).astype(np.float64)
        if c == 0:
            offsets[0] = 0.0
            shared = centre + offsets[1]
        if c == 1:
            offsets[0] = shared - centre
        for d in offsets:
            rows += [centre + d, centre - d]
            labels += [GOLDEN_LABELS[c]] * 2
    train = Dataset([f"s{i:02d}" for i in rng.permutation(40)], labels, np.array(rows))
    queries = [(centres[0] + centres[2]) / 2, shared]
    truths = ["VIM", "ALM"]
    for _ in range(10):
        c = int(rng.integers(0, 4))
        queries.append(centres[c] + rng.normal(scale=5.0, size=9))
        truths.append(GOLDEN_LABELS[c])
    test = Dataset([f"q{i:02d}" for i in rng.permutation(12)], truths, np.array(queries))
    return train, test, centres


# sha256 of EvalReport.to_csv, recorded before the four entry points shared one
# ranking path.
GOLDEN_REPORT_SHA256 = {
    ("template", False): "a9c636d7c451647e780b3b91a9087de134f50e388fe9f4a5fcbdc8452e86cb6b",
    ("template", True): "a9c636d7c451647e780b3b91a9087de134f50e388fe9f4a5fcbdc8452e86cb6b",
    (1, False): "a78b9ce0c16ebfe4bb6308d97972e5b6cb55e2c2a258d03e63c5de7a7716d0b7",
    (1, True): "c8abd4491e366d45c1aa88080a5b3c75161e41318fb91ad4a25d1d637024ce0e",
    (3, False): "2f11629755a591f17e5e57209adb502d61502f7b499053b5c14fbe9aa8a12804",
    (3, True): "0385dd8c944253bb5414f7efe39ed69f78ba1455f36e84b532ebc4e4fc8189b8",
}


def test_golden_split_has_its_ties():
    train, test, centres = _golden_split()
    for sel in (np.arange(9), FeatureMask.from_string(GOLDEN_MASK).indices()):
        d2 = ((test.matrix[0, sel] - centres[:, sel]) ** 2).sum(axis=1)
        assert d2[0] == d2[2] == d2.min() < min(d2[1], d2[3])
    shared = [i for i, row in enumerate(train.matrix) if np.array_equal(row, test.matrix[1])]
    assert sorted(train.labels[i] for i in shared) == ["ALM", "VIM"]
    assert len({train.matrix[i].tobytes() for i in range(40)}) < 40 - 1


@pytest.mark.parametrize("kind, masked", sorted(GOLDEN_REPORT_SHA256, key=str))
def test_classify_golden_bytes(tmp_path, kind, masked):
    train, test, _ = _golden_split()
    mask = FeatureMask.from_string(GOLDEN_MASK) if masked else None
    if kind == "template":
        report = evaluate_template(train, test, mask)
    else:
        report = evaluate(train, test, KnnConfig(kind), mask)
    report.to_csv(tmp_path / "report.csv")
    digest = hashlib.sha256((tmp_path / "report.csv").read_bytes()).hexdigest()
    assert digest == GOLDEN_REPORT_SHA256[(kind, masked)]


# --- one ranking path --------------------------------------------------------------

def _means_dataset(train):
    """The class means as a dataset whose sample ids are the labels."""
    labels = train.class_labels
    means = [train.matrix[[i for i, l in enumerate(train.labels) if l == lab]].mean(axis=0)
             for lab in labels]
    return Dataset(labels, labels, np.array(means))


def _random_split(rng):
    n_train, n_feat = int(rng.integers(4, 30)), int(rng.integers(1, 12))
    labels = [f"c{int(v)}" for v in rng.integers(0, 4, n_train)]
    train = Dataset([f"s{i:02d}" for i in rng.permutation(n_train)], labels,
                    rng.normal(size=(n_train, n_feat)))
    test = Dataset([f"q{i}" for i in range(9)], [f"c{i % 4}" for i in range(9)],
                   rng.normal(size=(9, n_feat)))
    return train, test


@pytest.mark.parametrize("masked", [False, True])
def test_template_is_1nn_over_class_means(rng, masked):
    splits = [_golden_split()[:2]] + [_random_split(rng) for _ in range(20)]
    for train, test in splits:
        mask = None
        if masked:
            bits = rng.random(train.n_features) < 0.5
            bits[0] = True
            mask = FeatureMask(bits)
        means = _means_dataset(train)
        template = evaluate_template(train, test, mask)
        nearest_mean = evaluate(means, test, KnnConfig(1), mask)
        assert [(s.true_label, s.predicted) for s in template.per_sample] == [
            (s.true_label, s.predicted) for s in nearest_mean.per_sample]
        assert template.hits == nearest_mean.hits
        assert all(s.neighbours == () for s in template.per_sample)
    # the query equidistant from the VIM and ROS means goes to the smaller label
    train, test, _ = _golden_split()
    assert evaluate_template(train, test.subset([0])).per_sample[0].predicted == "ROS"


def _call_entry_point(name, train, test, k, mask):
    if name == "evaluate":
        return evaluate(train, test, KnnConfig(k), mask)
    return evaluate_template(train, test, mask)


ENTRY_POINTS = ["evaluate", "evaluate_template"]
BAD_INPUTS = {  # case -> the start of its message
    "empty training set": "empty training set",
    "mask length": "mask length",
    "all-zero mask": "empty feature mask",
    "feature count": "query rows",
    "k too large": "k=4 exceeds",
}


@pytest.mark.parametrize("name, bad", [
    (name, bad) for name in ENTRY_POINTS for bad in BAD_INPUTS
    if bad != "k too large" or "template" not in name
])
def test_entry_points_reject_bad_inputs(name, bad):
    train = _dataset([[0, 0, 0], [1, 1, 1], [2, 2, 2]], ["a", "b", "b"])
    test = _dataset([[0, 1, 2]], ["a"], ids=["q"])
    k, mask = 1, None
    if bad == "empty training set":
        train = Dataset([], [], np.zeros((0, 3)))
    elif bad == "mask length":
        mask = FeatureMask(np.array([1, 1]))
    elif bad == "all-zero mask":
        mask = FeatureMask(np.array([0, 0, 0]))
    elif bad == "feature count":
        test = _dataset([[0, 1, 2, 3]], ["a"], ids=["q"])
    else:
        k = 4
    with pytest.raises(DataError, match=f"^{BAD_INPUTS[bad]}"):
        _call_entry_point(name, train, test, k, mask)


@pytest.mark.parametrize("query", [[0.0, np.nan], [np.inf, 0.0], [-np.inf, 0.0],
                                   0.0, [[0.0, 0.0]], [0.0, 0.0, 0.0]])
def test_single_queries_reject_malformed_queries(query):
    train = _dataset([[0, 0], [1, 1]], ["a", "b"])
    with pytest.raises(DataError):
        evaluate(train, _queries([query]), KnnConfig(1))
    with pytest.raises(DataError):
        evaluate_template(train, _queries([query]))
