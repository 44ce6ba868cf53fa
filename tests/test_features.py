import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from granulom.errors import (
    DataError,
    DatasetError,
    DuplicateSampleIdError,
    NonNumericValueError,
    RaggedRowError,
)
from granulom.features import (
    ChannelHistogram,
    Dataset,
    FeatureRecipe,
    HlsHistogram,
    OpeningGranulometry,
    apply_scaler,
    builtin_recipe,
    extract,
    load_dataset,
    minmax_scaler,
    save_dataset,
    split,
)
from granulom.imagecore import ColorImage
from granulom.synthkit import TextureSpec, generate_texture


def test_builtin_recipe_sizes():
    assert builtin_recipe("rgb27").total_features == 27
    lot = builtin_recipe("lot117")
    assert lot.total_features == 117
    with pytest.raises(DataError):
        builtin_recipe("nope")


def test_lot117_layout():
    lot = builtin_recipe("lot117")
    extractor, offset = lot.locate(93)
    assert isinstance(extractor, OpeningGranulometry)
    assert extractor.family == "hexagon"
    assert extractor.r_first + offset - 1 == 1  # first granulometry feature is r=1
    extractor, offset = lot.locate(92)
    assert isinstance(extractor, HlsHistogram) and extractor.component == "s"
    names = lot.feature_names()
    assert len(names) == 117 and names[92] == "gopen_hexagon_r01"


def test_extract_constant_image_rgb27():
    img = ColorImage(np.full((8, 8, 3), 128))
    vec = extract(builtin_recipe("rgb27"), img)
    assert vec.shape == (27,)
    assert np.count_nonzero(vec) == 3
    assert vec.sum() == pytest.approx(3.0)


def test_extract_constant_image_lot117_granulometry_zero():
    img = ColorImage(np.full((8, 8, 3), 100))
    vec = extract(builtin_recipe("lot117"), img)
    assert (vec[92:] == 0.0).all()


def test_extract_deterministic():
    img = generate_texture(
        TextureSpec("t", (2, 3), (180, 20), 90, 12.0, (1.0, 1.0, 1.0)), 48, 5
    )
    lot = builtin_recipe("lot117")
    assert np.array_equal(extract(lot, img), extract(lot, img))


def test_two_grain_sizes_separate_in_granulometry_block():
    # gap threshold frozen from the generator+curve oracle run: observed 0.203 at r=4
    base = dict(
        grain_intensity=(200, 15),
        background_intensity=80,
        grain_density=10.0,
        rgb_tint=(1.0, 1.0, 1.0),
    )
    small = TextureSpec("small", (2, 3), **base)
    big = TextureSpec("big", (6, 8), **base)
    lot = builtin_recipe("lot117")
    blocks = {}
    for spec in (small, big):
        vecs = [
            extract(lot, generate_texture(spec, 64, seed))[92:] for seed in range(20)
        ]
        blocks[spec.class_label] = np.mean(vecs, axis=0)
    gap_at_r4 = abs(blocks["small"][3] - blocks["big"][3])
    assert gap_at_r4 >= 0.1


# --- dataset persistence -------------------------------------------------------

def _toy_dataset(n=6, d=4, seed=3):
    rng = np.random.default_rng(seed)
    ids = [f"s-{i+1}" for i in range(n)]
    labels = ["A" if i % 2 == 0 else "B" for i in range(n)]
    return Dataset(ids, labels, rng.normal(size=(n, d)))


def test_dataset_invariants():
    with pytest.raises(DuplicateSampleIdError):
        Dataset(["a", "a"], ["x", "y"], np.zeros((2, 3)))
    ds = _toy_dataset()
    assert ds.feature_names == ["f0001", "f0002", "f0003", "f0004"]
    assert ds.class_labels == ["A", "B"]


def test_save_load_roundtrip(tmp_path):
    ds = _toy_dataset()
    p = tmp_path / "d.csv"
    save_dataset(ds, p)
    header = p.read_text().splitlines()[0]
    assert header == "sample_id,label,f0001,f0002,f0003,f0004"
    loaded = load_dataset(p)
    assert loaded.sample_ids == ds.sample_ids
    assert loaded.labels == ds.labels
    assert np.allclose(loaded.matrix, ds.matrix, rtol=1e-11, atol=1e-14)
    q = tmp_path / "e.csv"
    save_dataset(loaded, q)
    assert p.read_text() == q.read_text()  # formatting fixed point


def test_dataset_shape_example(tmp_path):
    rng = np.random.default_rng(0)
    ids = [f"img-{i}" for i in range(187)]
    labels = [f"c{i % 14}" for i in range(187)]
    ds = Dataset(ids, labels, rng.normal(size=(187, 117)))
    p = tmp_path / "big.csv"
    save_dataset(ds, p)
    lines = p.read_text().splitlines()
    assert len(lines) == 188
    assert all(len(ln.split(",")) == 119 for ln in lines)


def test_empty_dataset_roundtrip(tmp_path):
    ds = Dataset([], [], np.empty((0, 3)))
    p = tmp_path / "empty.csv"
    save_dataset(ds, p)
    assert p.read_text().count("\n") == 1
    loaded = load_dataset(p)
    assert loaded.n_samples == 0 and loaded.n_features == 3


def test_load_errors(tmp_path):
    p = tmp_path / "bad.csv"
    p.write_text("sample_id,label,f0001\na,x,1.0,9\n")
    with pytest.raises(RaggedRowError):
        load_dataset(p)
    p.write_text("sample_id,label,f0001\na,x,zap\n")
    with pytest.raises(NonNumericValueError):
        load_dataset(p)
    p.write_text("sample_id,label,f0001\na,x,1\na,y,2\n")
    with pytest.raises(DuplicateSampleIdError):
        load_dataset(p)
    p.write_text("id,label,f0001\na,x,1\n")
    with pytest.raises(DataError):
        load_dataset(p)


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_dataset_rejects_non_finite_values(value):
    matrix = np.zeros((2, 3))
    matrix[1, 2] = value
    with pytest.raises(DatasetError, match="non-finite feature value .*'b'.*'f0003'"):
        Dataset(["a", "b"], ["x", "y"], matrix)


def test_load_rejects_nan_cell(tmp_path):
    p = tmp_path / "nan.csv"
    p.write_text("sample_id,label,f0001,f0002\na,x,1.0,2.0\nb,y,nan,3.0\n")
    with pytest.raises(DatasetError, match="non-finite"):
        load_dataset(p)


def test_save_rejects_bad_identifiers(tmp_path):
    ds = Dataset(["a b"], ["x"], np.zeros((1, 1)))
    with pytest.raises(DataError):
        save_dataset(ds, tmp_path / "d.csv")


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_split_partition_property(seed):
    ds = _toy_dataset(n=12)
    res = split(ds, 0.25, seed)
    assert res.train.n_samples + res.test.n_samples == 12
    assert set(res.train.sample_ids) | set(res.test.sample_ids) == set(ds.sample_ids)
    assert not set(res.train.sample_ids) & set(res.test.sample_ids)


def test_split_table1_shape():
    sizes = [20, 20, 8, 4, 20, 20, 20, 20, 20, 15, 20, 10, 20, 20]
    names = "ALM ANT ARI ARIC AZU CAR COR EUL EVO FAV JAN SAL SPI VIM".split()
    ids, labels = [], []
    for name, size in zip(names, sizes):
        for i in range(size):
            ids.append(f"{name}-{i+1}")
            labels.append(name)
    ds = Dataset(ids, labels, np.random.default_rng(7).normal(size=(237, 5)))
    res = split(ds, 50 / 237, seed=11)
    assert res.train.n_samples == 187 and res.test.n_samples == 50
    assert res.stratified
    # every class appears in the test set
    assert set(res.test.labels) == set(names)
    # deterministic given the seed
    again = split(ds, 50 / 237, seed=11)
    assert again.test.sample_ids == res.test.sample_ids


def test_split_fallback_for_tiny_class():
    ds = Dataset(
        ["a", "b", "c", "d", "e"],
        ["X", "X", "X", "X", "lone"],
        np.zeros((5, 2)),
    )
    res = split(ds, 0.4, seed=1)
    assert not res.stratified
    assert res.train.n_samples + res.test.n_samples == 5


def test_minmax_scaler_train_only():
    train = Dataset(["a", "b"], ["x", "y"], np.array([[0.0, 5.0], [10.0, 5.0]]))
    lo, span = minmax_scaler(train)
    scaled = apply_scaler(train, lo, span)
    assert scaled.matrix[:, 0].tolist() == [0.0, 1.0]
    assert scaled.matrix[:, 1].tolist() == [0.0, 0.0]  # constant column untouched
