import dataclasses
import re
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import hls_pixel
from granulom import features
from granulom.errors import DataError
from granulom.features import (
    STACK_CHUNK,
    Dataset,
    FeatureRecipe,
    OpeningGranulometry,
    PlaneHistogram,
    apply_scaler,
    builtin_recipe,
    extract,
    extract_corpus,
    load_dataset,
    minmax_scaler,
    save_dataset,
    split,
)
from granulom.imagecore import ColorImage, histogram, to_hls, write_ppm
from granulom.synthkit import ManifestEntry, TextureSpec, generate_texture, write_manifest


def test_builtin_recipe_sizes():
    assert builtin_recipe("rgb27").total_features == 27
    lot = builtin_recipe("lot117")
    assert lot.total_features == 117
    with pytest.raises(DataError):
        builtin_recipe("nope")


def test_lot117_layout():
    lot = builtin_recipe("lot117")
    names = lot.feature_names()
    assert len(names) == 117
    # feature 93 is the first granulometry feature, r=1; feature 92 the last s bin
    assert names[92] == "gopen_hexagon_r01" and names[91] == "hls_s_b28"
    assert names[-1] == "gopen_hexagon_r25"


def test_opening_granulometry_names_and_size_range():
    opening = OpeningGranulometry("hex", 2, 3)
    assert opening.names() == ["gopen_hexagon_r02", "gopen_hexagon_r03"]
    assert opening == OpeningGranulometry("hexagon", 2, 3)
    assert opening != OpeningGranulometry("square", 2, 3)
    with pytest.raises(DataError, match="bad size range"):
        OpeningGranulometry("hex", 3, 2)


def test_extract_constant_image_rgb27():
    img = ColorImage(np.full((8, 8, 3), 128))
    vec = extract(builtin_recipe("rgb27"), img)
    assert vec.shape == (27,)
    assert np.count_nonzero(vec) == 3
    assert vec.sum() == pytest.approx(3.0)


@pytest.mark.parametrize("px", [np.random.default_rng(7).integers(0, 256, (7, 9, 3)),
                                np.broadcast_to([200, 13, 77], (5, 6, 3)),
                                np.array([[[255, 0, 1]]])],
                         ids=["random-7x9", "one-colour", "one-pixel"])
def test_plane_histograms_match_the_oracle_planes(px):
    """Each plane histogram bins the RGB channel, or the oracle's HLS component, of every pixel."""
    hls = np.array([hls_pixel(*(int(v) for v in p)) for p in px.reshape(-1, 3)])
    for plane in "rgbhls":
        values = px[..., "rgb".index(plane)] if plane in "rgb" else hls[:, "hls".index(plane)]
        for bins in (1, 7, 32):
            got = extract(FeatureRecipe("one", (PlaneHistogram(plane, bins),)), ColorImage(px))
            want = histogram(values, bins, vmax=359 if plane == "h" else 255)
            assert np.array_equal(got.view(np.int64), want.view(np.int64)), (plane, bins)


def _every_colour_image():
    """A 96 x 96 image whose 9,216 pixels all differ in colour, spread over the RGB cube."""
    codes = np.random.default_rng(3).permutation(9216) * 1820 + 5  # below 2**24
    return ColorImage((codes[:, None] >> np.array([16, 8, 0]) & 255).reshape(96, 96, 3))


def test_plane_histograms_of_a_batch_match_per_pixel_histograms():
    """A batch's histograms come from its distinct colours; each image's row
    must equal `histogram` over every pixel of its plane, to the bit."""
    images = [ColorImage(np.full((96, 96, 3), [90, 200, 17])),
              _every_colour_image(),
              generate_texture(TextureSpec("t", (2, 6), (150, 60), 70, 30.0, (1.1, 0.9, 1.0)),
                               96, 4),
              ColorImage(np.zeros((96, 96, 3), dtype=np.uint8))]
    assert [len(np.unique(img.pixels.reshape(-1, 3), axis=0)) for img in images][:2] == [1, 9216]
    extractors = tuple(PlaneHistogram(plane, bins) for plane in "rgbhls" for bins in (1, 9, 32))
    rows = features._extract_images(FeatureRecipe("planes", extractors), images)
    for img, row in zip(images, rows):
        hls = to_hls(img)
        want = [histogram(img.pixels[..., "rgb".index(e.plane)] if e.plane in "rgb"
                          else hls[..., "hls".index(e.plane)],
                          e.bins, vmax=359 if e.plane == "h" else 255)
                for e in extractors]
        assert np.array_equal(row.view(np.int64), np.concatenate(want).view(np.int64))


def test_plane_histogram_of_an_empty_image_is_a_data_error():
    for shape in ((0, 5, 3), (5, 0, 3)):
        with pytest.raises(DataError, match="histogram of empty input"):
            extract(builtin_recipe("rgb27"), ColorImage(np.zeros(shape, dtype=np.uint8)))


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


def test_extract_corpus_mixed_shapes_match_per_image_extract(tmp_path):
    # two shapes interleaved in sample-id order, across more than one chunk;
    # the 33-row frame has an odd height
    spec = TextureSpec("t", (2, 4), (190, 30), 70, 14.0, (1.0, 0.9, 1.1))
    entries, images = [], []
    for i in range(STACK_CHUNK + 7):
        img = generate_texture(spec, 40, i)
        if i % 3 == 1:
            img = ColorImage(img.pixels[:33, :29])
        sid = f"s-{i:02d}"
        write_ppm(img, tmp_path / f"{sid}.ppm")
        entries.append(ManifestEntry(sid, "ab"[i % 2], f"{sid}.ppm"))
        images.append(img)
    write_manifest(entries, tmp_path / "manifest.csv")
    for recipe in (builtin_recipe("lot117"), FeatureRecipe("mixed", (
            PlaneHistogram("l", 8), OpeningGranulometry("square", 2, 6),
            OpeningGranulometry("hexagon", 0, 9), PlaneHistogram("g", 5)))):
        for threads in (1, 3):
            ds = extract_corpus(tmp_path, recipe, threads=threads)
            assert ds.sample_ids == [e.sample_id for e in entries]
            expected = np.vstack([extract(recipe, img) for img in images])
            assert np.array_equal(ds.matrix, expected)


def _small_corpus(root, count, bad=None):
    """Corpus of `count` 12x12 images in `root`, manifest rows in reverse sample-id order.

    `bad` maps sample indices to the bytes written in place of their PPM.
    """
    entries = []
    for i in range(count):
        sid = f"s-{i:02d}"
        path = root / f"{sid}.ppm"
        write_ppm(ColorImage(np.full((12, 12, 3), 40 + 5 * i)), path)
        if bad and i in bad:
            path.write_bytes(bad[i])
        entries.append(ManifestEntry(sid, "ab"[i % 2], path.name))
    write_manifest(entries[::-1], root / "manifest.csv")


def test_extract_corpus_at_one_thread_runs_on_the_calling_thread(tmp_path, monkeypatch):
    _small_corpus(tmp_path, STACK_CHUNK + 2)
    seen = set()
    batch = features._extract_images

    def recorded(recipe, images):
        seen.add(threading.get_ident())
        return batch(recipe, images)

    monkeypatch.setattr(features, "_extract_images", recorded)
    extract_corpus(tmp_path, builtin_recipe("lot117"), threads=1)
    assert seen == {threading.get_ident()}


@pytest.mark.parametrize("threads", [0, -3])
def test_extract_corpus_rejects_a_worker_count_below_one(tmp_path, threads):
    _small_corpus(tmp_path, 2)
    with pytest.raises(DataError, match=f"^threads must be >= 1, got {threads}$"):
        extract_corpus(tmp_path, builtin_recipe("lot117"), threads=threads)


# the bytes of an unreadable PPM and of an all-black one (zero opening volume)
CORRUPT = b"P9\n12 12\n255\n"
BLACK = b"P6\n12 12\n255\n" + bytes(12 * 12 * 3)


@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize("bad, message", [
    ({3: CORRUPT, STACK_CHUNK + 1: CORRUPT}, r"bad magic b'P9', expected one of \(b'P6', b'P3'\)"),
    ({3: BLACK, STACK_CHUNK + 1: BLACK}, r"opening granulometry of an all-zero image \(zero volume\)"),
    ({3: BLACK, 5: CORRUPT}, r"opening granulometry of an all-zero image \(zero volume\)"),
], ids=["corrupt", "black", "black-before-corrupt"])
def test_extract_corpus_error_names_the_first_bad_image_in_sample_id_order(
        tmp_path, bad, message, threads):
    _small_corpus(tmp_path, 2 * STACK_CHUNK, bad)
    with pytest.raises(DataError, match=f"^{re.escape(str(tmp_path / 's-03.ppm'))}: {message}$"):
        extract_corpus(tmp_path, builtin_recipe("lot117"), threads=threads)


# --- dataset persistence -------------------------------------------------------

def _toy_dataset(n=6, d=4, seed=3):
    rng = np.random.default_rng(seed)
    ids = [f"s-{i+1}" for i in range(n)]
    labels = ["A" if i % 2 == 0 else "B" for i in range(n)]
    return Dataset(ids, labels, rng.normal(size=(n, d)))


def test_dataset_invariants():
    with pytest.raises(DataError, match="^duplicate sample id 'a'$"):
        Dataset(["a", "a"], ["x", "y"], np.zeros((2, 3)))
    ds = _toy_dataset()
    assert ds.feature_names == ["f0001", "f0002", "f0003", "f0004"]
    assert ds.class_labels == ["A", "B"]


def test_dataset_matrix_is_a_read_only_checked_copy():
    given = np.zeros((2, 3))
    ds = Dataset(["a", "b"], ["x", "y"], given)
    with pytest.raises(ValueError, match="read-only"):
        ds.matrix[0, 0] = np.nan
    with pytest.raises(dataclasses.FrozenInstanceError):
        ds.matrix = np.full((2, 3), np.nan)
    assert given.flags.writeable
    given[0, 0] = np.nan  # the caller's array is not shared
    assert np.array_equal(ds.matrix, np.zeros((2, 3)))
    for derived in (ds.subset([1, 0]), apply_scaler(ds, *minmax_scaler(ds))):
        assert not derived.matrix.flags.writeable


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
    featureless = Dataset(["a", "b"], ["x", "y"], np.empty((2, 0)))
    save_dataset(featureless, p)
    assert p.read_text() == "sample_id,label\na,x\nb,y\n"
    assert load_dataset(p).sample_ids == ["a", "b"]


def test_load_errors(tmp_path):
    p = tmp_path / "bad.csv"
    p.write_text("sample_id,label,f0001\na,x,1.0,9\n")
    with pytest.raises(DataError, match=f"^{p}: line 2: 4 cells, expected 3$"):
        load_dataset(p)
    p.write_text("sample_id,label,f0001\na,x,zap\n")
    with pytest.raises(DataError, match=f"^{p}: line 2: non-numeric cell .*'zap'"):
        load_dataset(p)
    p.write_text("sample_id,label,f0001\na,x,1\na,y,2\n")
    with pytest.raises(DataError, match=f"^{p}: duplicate sample id 'a'$"):
        load_dataset(p)
    p.write_text("id,label,f0001\na,x,1\n")
    with pytest.raises(DataError):
        load_dataset(p)
    for row in ("a 1,x,0.5", "a1,x<y&z,0.5", "a1,,0.5", ",x,0.5"):  # ids and labels save rejects
        p.write_text(f"sample_id,label,f0001\na-0,x,0.1\n{row}\n")
        with pytest.raises(DataError, match=f"^{p}: line 3: sample id or label '.*' outside "):
            load_dataset(p)


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_dataset_rejects_non_finite_values(value):
    matrix = np.zeros((2, 3))
    matrix[1, 2] = value
    with pytest.raises(DataError, match="non-finite feature value .*'b'.*'f0003'"):
        Dataset(["a", "b"], ["x", "y"], matrix)


@pytest.mark.parametrize("value", [1e300, -1e308, 1.5e70])
def test_dataset_rejects_values_above_the_magnitude_bound(value):
    matrix = np.zeros((2, 3))
    matrix[1, 2] = value
    with pytest.raises(DataError, match="^feature value .* above 1e\\+70 in magnitude "
                                        "\\(sample 'b', feature 'f0003'\\)$"):
        Dataset(["a", "b"], ["x", "y"], matrix)
    matrix[1, 2] = -1e70
    Dataset(["a", "b"], ["x", "y"], matrix)


@pytest.mark.parametrize("matrix", [[["q"]], [[1.0], []], [[1j]]],
                         ids=["string", "ragged", "complex"])
def test_dataset_rejects_values_that_are_not_real_numbers(matrix):
    with pytest.raises(DataError, match="^feature matrix must hold real numbers: "):
        Dataset(["a"], ["x"], matrix)


def test_load_rejects_nan_cell(tmp_path):
    p = tmp_path / "nan.csv"
    p.write_text("sample_id,label,f0001,f0002\na,x,1.0,2.0\nb,y,nan,3.0\n")
    with pytest.raises(DataError, match="non-finite"):
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


@pytest.mark.parametrize("sizes, fraction, counts", [
    ((20, 2), 0.1, (1, 1)),  # a class with no test slot takes one from a donor
    ((2, 10), 0.75, (1, 8)),  # a class left with no training row gives a slot to a taker
    ((2, 2), 0.9, (1, 1)),  # no taker: 3 test rows asked, 2 given
    ((20, 20, 2, 2), 0.05, (1, 1, 0, 0)),  # no donor: small classes stay out of the test set
], ids=["donor", "taker", "cap", "no-donor"])
def test_split_apportions_test_rows_per_class(sizes, fraction, counts):
    labels = [f"c{c}" for c, size in enumerate(sizes) for _ in range(size)]
    ds = Dataset([f"s-{i}" for i in range(len(labels))], labels, np.zeros((len(labels), 1)))
    res = split(ds, fraction, seed=0)
    assert res.stratified
    assert tuple(res.test.labels.count(f"c{c}") for c in range(len(sizes))) == counts


def test_split_rejects_a_negative_seed():
    with pytest.raises(DataError, match="seed must be non-negative, got -1"):
        split(_toy_dataset(n=12), 0.25, -1)


def test_load_errors_name_the_file_and_the_file_line(tmp_path):
    p = tmp_path / "gaps.csv"
    p.write_text("sample_id,label,f0001\n\n\na,x,1\nb,y,zap\n")
    with pytest.raises(DataError, match=f"^{p}: line 5: non-numeric cell .*'zap'"):
        load_dataset(p)
    p.write_text("sample_id,label,f0001\n\n\na,x,1\nb,y\n")
    with pytest.raises(DataError, match=f"^{p}: line 5: 2 cells, expected 3$"):
        load_dataset(p)
    p.write_bytes(b"sample_id,label,f0001\na,x,1\nb,\xff,2\n")
    with pytest.raises(DataError, match=f"^{p}: line 3: not UTF-8 text$"):
        load_dataset(p)


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
