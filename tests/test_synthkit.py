import dataclasses
import hashlib
import tracemalloc

import numpy as np
import pytest

from conftest import scalar_texture
from granulom.csvrows import parse_config, reject_unread, setting
from granulom.errors import DataError
from granulom.features import builtin_recipe, extract_corpus, split
from granulom.granulometry import granulometry_openings
from granulom.imagecore import intensity, read_ppm
from granulom.synthkit import (
    MAX_IMAGE_SIZE,
    CorpusSpec,
    TextureSpec,
    builtin_corpus_spec,
    format_corpus_config,
    generate_corpus,
    generate_texture,
    load_corpus_spec,
    parse_corpus_config,
    read_manifest,
)


def _spec(**overrides):
    params = dict(
        class_label="t",
        grain_radius=(2, 3),
        grain_intensity=(180, 20),
        background_intensity=90,
        grain_density=12.0,
        rgb_tint=(1.0, 1.0, 1.0),
    )
    params.update(overrides)
    return TextureSpec(**params)


def test_texture_spec_validation():
    with pytest.raises(DataError):
        _spec(grain_radius=(0, 2))
    with pytest.raises(DataError):
        _spec(grain_density=0.0)
    with pytest.raises(DataError):
        _spec(rgb_tint=(2.0, 1.0, 1.0))
    for label in ("../x", "a,b", ""):
        with pytest.raises(DataError, match="class label"):
            _spec(class_label=label)
    for density in (float("nan"), float("inf"), 1e9, 1e30):
        with pytest.raises(DataError, match="grain density"):
            _spec(grain_density=density)
    assert _spec(grain_density=1000.0).grain_density == 1000.0  # one centre per pixel
    for rmax in (2**31, 2**62, 10**19):  # 10**19 is past int64
        with pytest.raises(DataError, match="grain radius maximum"):
            _spec(grain_radius=(2, rmax))
        with pytest.raises(DataError, match="grain intensity spread"):
            _spec(grain_intensity=(200, rmax))
    _spec(grain_radius=(2, 2**31 - 1), grain_intensity=(200, 2**31 - 1))  # the bound is accepted


def test_corpus_spec_rejects_a_negative_seed():
    with pytest.raises(DataError, match="seed must be non-negative"):
        CorpusSpec((_spec(), _spec(class_label="u")), (1, 1), 32, -1)


def test_image_size_is_bounded_before_any_draw():
    classes = (_spec(), _spec(class_label="u"))
    assert CorpusSpec(classes, (1, 1), MAX_IMAGE_SIZE, 0).image_size == MAX_IMAGE_SIZE
    for size in (MAX_IMAGE_SIZE + 1, 10**12):  # 10**12 is past numpy's poisson lam bound
        with pytest.raises(DataError, match=f"^image_size must be <= 2048, got {size}$"):
            CorpusSpec(classes, (1, 1), size, 0)
        with pytest.raises(DataError, match=rf"^size must lie in \[1, 2048\], got {size}$"):
            generate_texture(_spec(), size, 0)


def test_generate_texture_deterministic():
    a = generate_texture(_spec(), 48, 123)
    b = generate_texture(_spec(), 48, 123)
    c = generate_texture(_spec(), 48, 124)
    assert a == b
    assert a != c
    assert a.pixels.min() >= 0 and a.pixels.max() <= 255


def test_zero_density_limit_is_background():
    # density so small the Poisson draw is 0 on a tiny frame
    spec = _spec(grain_density=1e-9)
    img = generate_texture(spec, 32, 0)
    grey = intensity(img)
    assert (grey.pixels == spec.background_intensity).all()


def _random_spec(rng):
    rmin = int(rng.integers(1, 25))
    return _spec(grain_radius=(rmin, rmin + int(rng.integers(0, 25))),
                 grain_intensity=(int(rng.integers(0, 256)), int(rng.integers(0, 80))),
                 background_intensity=int(rng.integers(0, 256)),
                 grain_density=float(10 ** rng.uniform(-1, 3)),
                 rgb_tint=tuple(float(t) for t in rng.uniform(0.5, 1.5, 3)))


@pytest.mark.parametrize("size", [1, 2, 5, 17, 33, 64])
def test_generate_texture_equals_scalar_painter(size):
    rng = np.random.default_rng(size)
    specs = [
        _spec(grain_radius=(60, 90), grain_density=900.0),  # discs far wider than the frame
        _spec(grain_radius=(1, 1), grain_density=1000.0),
        _spec(grain_density=1e-9),  # no grain at all
        _spec(grain_intensity=(10, 40), background_intensity=0, rgb_tint=(0.5, 1.5, 1.0)),
        _spec(grain_intensity=(245, 40), background_intensity=255, rgb_tint=(1.5, 0.5, 1.5)),
    ] + [_random_spec(rng) for _ in range(6)]
    for i, spec in enumerate(specs):
        for sample in range(3):
            seed = [size, i, sample]
            assert np.array_equal(generate_texture(spec, size, seed).pixels,
                                  scalar_texture(spec, size, seed)), (spec, seed)


def test_grains_much_larger_than_the_frame_equal_scalar_painter():
    # an unclipped (2 * 5000 + 2)^2 patch per grain would hold 10^8 cells
    spec = _spec(grain_radius=(2, 5000), grain_density=40.0)
    for seed in range(4):
        assert np.array_equal(generate_texture(spec, 32, seed).pixels,
                              scalar_texture(spec, 32, seed))


def test_replayed_draw_edge_cases_equal_scalar_painter():
    specs = [
        # value draws over 2**31 + 1 values: about half of the 32-bit halves are rejected
        _spec(grain_intensity=(128, 2**30), grain_density=40.0),
        # the largest spread accepted: 2**32 - 1 values
        _spec(grain_intensity=(128, 2**31 - 1), grain_density=40.0),
        # rmin == rmax: the radius draw takes no half
        _spec(grain_radius=(4, 4), grain_density=40.0),
    ]
    for spec in specs:
        for seed in range(4):
            assert np.array_equal(generate_texture(spec, 48, seed).pixels,
                                  scalar_texture(spec, 48, seed)), (spec, seed)


def test_painting_memory_stays_bounded():
    # about 65,500 grains; unchunked, one float64 temporary of their 12 x 12
    # patches alone would take 75 MB
    spec = _spec(grain_radius=(2, 5), grain_density=1000.0)
    tracemalloc.start()
    try:
        generate_texture(spec, 256, 3)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2**20


def test_grain_size_drives_granulometry():
    # threshold frozen from the oracle run: observed mean G(4) gap 0.203
    small = _spec(class_label="small", grain_radius=(2, 3), grain_intensity=(200, 15),
                  background_intensity=80, grain_density=10.0)
    big = _spec(class_label="big", grain_radius=(6, 8), grain_intensity=(200, 15),
                background_intensity=80, grain_density=10.0)
    means = {}
    for spec in (small, big):
        vals = []
        for seed in range(20):
            img = generate_texture(spec, 64, seed)
            vals.append(granulometry_openings(intensity(img), "hexagon", 4).values[4])
        means[spec.class_label] = np.mean(vals)
    assert abs(means["small"] - means["big"]) >= 0.1


def test_generate_corpus(tmp_path):
    spec = CorpusSpec(
        (_spec(class_label="a"), _spec(class_label="b", grain_radius=(5, 7))),
        (3, 2),
        32,
        7,
    )
    entries = generate_corpus(spec, tmp_path / "corpus")
    assert [e.sample_id for e in entries] == ["a-1", "a-2", "a-3", "b-1", "b-2"]
    manifest = read_manifest(tmp_path / "corpus" / "manifest.csv")
    assert manifest == entries
    img = read_ppm(tmp_path / "corpus" / "a-1.ppm")
    assert img.width == 32 and img.height == 32


def test_corpus_regeneration_identical(tmp_path):
    spec = CorpusSpec(
        (_spec(class_label="a"), _spec(class_label="b")), (2, 2), 32, 99
    )
    generate_corpus(spec, tmp_path / "c1")
    generate_corpus(spec, tmp_path / "c2")
    for name in ("manifest.csv", "a-1.ppm", "a-2.ppm", "b-1.ppm", "b-2.ppm"):
        assert (tmp_path / "c1" / name).read_bytes() == (tmp_path / "c2" / name).read_bytes()


@pytest.mark.parametrize("row", ["a-1,a", "a-1,a,a-1.ppm,extra", "a-1"])
def test_read_manifest_rejects_rows_without_three_cells(tmp_path, row):
    p = tmp_path / "manifest.csv"
    p.write_text(f"sample_id,label,path\n\nb-1,b,b-1.ppm\n{row}\n")
    with pytest.raises(DataError, match="line 4: .* expected 3"):
        read_manifest(p)


@pytest.mark.parametrize("row", ["a 1,a,a-1.ppm", "a-1,a&b,a-1.ppm", "a-1,,a-1.ppm"])
def test_read_manifest_rejects_bad_ids_and_labels(tmp_path, row):
    p = tmp_path / "manifest.csv"
    p.write_text(f"sample_id,label,path\nb-1,b,b-1.ppm\n{row}\n")
    with pytest.raises(DataError, match=f"^{p}: line 3: sample id or label '.*' outside "):
        read_manifest(p)


@pytest.mark.parametrize("rel", ["../outside.ppm", "sub/../../outside.ppm", "/etc/hostname", ".."])
def test_read_manifest_rejects_paths_outside_the_corpus(tmp_path, rel):
    p = tmp_path / "manifest.csv"
    p.write_text(f"sample_id,label,path\na-1,a,{rel}\n")
    with pytest.raises(DataError, match="line 2: .*leaves the corpus directory"):
        read_manifest(p)


def test_read_manifest_accepts_paths_inside_the_corpus(tmp_path):
    p = tmp_path / "manifest.csv"
    p.write_text("sample_id,label,path\na-1,a,sub/a-1.ppm\na-2,a,sub/../a-2.ppm\n")
    assert [e.path for e in read_manifest(p)] == ["sub/a-1.ppm", "sub/../a-2.ppm"]


def test_corpus_config_roundtrip():
    spec = builtin_corpus_spec("granite14")
    assert parse_corpus_config(format_corpus_config(spec)) == spec


def test_config_reader_kinds_and_errors():
    cp = parse_config("[s]\npath = 50%.cfg\nsizes = 2 3  ; inline comment\nTint = 1 0.9 1\n"
                      "on = yes\n", "pipeline", "p.cfg")
    assert setting(cp, "s", "path", "text") == "50%.cfg"  # no interpolation
    assert setting(cp, "s", "sizes", "2 counts") == (2, 3)
    assert setting(cp, "s", "on", "boolean") is True
    assert setting(cp, "s", "missing", "count", 7) == 7
    with pytest.raises(DataError, match=r"^pipeline config \[s\] sizes = '2 3': expected 3 "):
        setting(cp, "s", "sizes", "3 counts")
    with pytest.raises(DataError, match=r"^pipeline config \[s\] tint \(not set\): expected"):
        setting(cp, "s", "tint", "3 numbers")  # keys are case-sensitive
    with pytest.raises(DataError, match=r"\[s\] Tint = '1 0.9 1': unknown key$"):
        reject_unread(cp)
    with pytest.raises(DataError, match=r"^pipeline config: .*'p.cfg' \[line 2\]"):
        parse_config("[s]\nno equals sign\n", "pipeline", "p.cfg")
    with pytest.raises(DataError, match=r"^corpus config \[extra\]: unknown section$"):
        parse_corpus_config(format_corpus_config(builtin_corpus_spec("granite14"))
                            + "[extra]\n")


def test_granite14_shape():
    spec = builtin_corpus_spec("granite14")
    assert len(spec.classes) == 14
    assert spec.total_samples == 237
    assert spec.samples_per_class == (20, 20, 8, 4, 20, 20, 20, 20, 20, 15, 20, 10, 20, 20)
    labels = [c.class_label for c in spec.classes]
    assert labels == "ALM ANT ARI ARIC AZU CAR COR EUL EVO FAV JAN SAL SPI VIM".split()


def test_a_directory_does_not_shadow_a_builtin_corpus(tmp_path, monkeypatch):
    (tmp_path / "granite14").mkdir()  # e.g. the output of `synth --spec granite14 --out granite14`
    (tmp_path / "granite14.cfg").mkdir()
    monkeypatch.chdir(tmp_path)
    assert load_corpus_spec("granite14") == builtin_corpus_spec("granite14")
    assert load_corpus_spec("granite14.cfg") == builtin_corpus_spec("granite14")


# sha256 over "<file> <sha256 of its bytes>" lines for manifest.csv and then
# every PPM in manifest order, of the granite14 corpus at its shipped seed and
# at seed 7919, recorded while grains were still painted one at a time.
GOLDEN_GRANITE14_SHA256 = {
    12957: "257ff4df172f6315fa7f5741980c4baac6b836b1736b544075f18cc1e9efc011",
    7919: "0189eee80e053a4a8b231878b2dbfe31c165d50418ce5ed0da969745cdf44297",
}


@pytest.mark.parametrize("seed", sorted(GOLDEN_GRANITE14_SHA256))
def test_granite14_corpus_golden_bytes(request, tmp_path, seed):
    spec = dataclasses.replace(builtin_corpus_spec("granite14"), seed=seed)
    if seed == builtin_corpus_spec("granite14").seed:
        corpus_dir, entries = request.getfixturevalue("granite14_corpus")
    else:
        corpus_dir, entries = tmp_path, generate_corpus(spec, tmp_path)
    digest = hashlib.sha256()
    for name in ["manifest.csv"] + [e.path for e in entries]:
        file_digest = hashlib.sha256((corpus_dir / name).read_bytes()).hexdigest()
        digest.update(f"{name} {file_digest}\n".encode())
    assert digest.hexdigest() == GOLDEN_GRANITE14_SHA256[seed]


def test_granite14_files_match_table1_counts(granite14_corpus):
    corpus_dir, entries = granite14_corpus
    assert len(entries) == 237
    assert len(list(corpus_dir.glob("*.ppm"))) == 237


def test_granite14_separability_headroom(granite14_corpus):
    """The frozen benchmark leaves the GA room to improve: 90% <= 1-NN < 100%."""
    from granulom.classify import KnnConfig, evaluate

    corpus_dir, _ = granite14_corpus
    ds = extract_corpus(corpus_dir, builtin_recipe("lot117"), threads=2)
    res = split(ds, 50 / 237, seed=2028)
    rep = evaluate(res.train, res.test, KnnConfig(1))
    assert 0.90 <= rep.recognition_rate < 1.0
