import numpy as np
import pytest

from granulom.cli import main
from granulom.features import load_dataset
from granulom.granulometry import read_curve_csv
from granulom.imagecore import GreyImage, read_pgm, write_pgm
from granulom.synthkit import load_corpus_spec, parse_corpus_config

SMALL_CORPUS_CFG = """\
[corpus]
image_size = 32
seed = 5
samples_per_class = 6

[class aa]
grain_radius = 2 3
grain_intensity = 200 15
background = 80
density = 10
tint = 1 1 1

[class bb]
grain_radius = 6 8
grain_intensity = 200 15
background = 80
density = 10
tint = 1 1 1

[class cc]
grain_radius = 2 3
grain_intensity = 120 15
background = 170
density = 10
tint = 1 0.9 1
"""

PIPELINE_CFG = """\
[synth]
spec = {corpus_cfg}

[extract]
recipe = lot117

[split]
test_fraction = 0.34
seed = 3

[baseline]
ks = 1

[ga]
enabled = true
population = 10
generations = 12
seed = 4

[pca]
enabled = true
components = 2
"""


@pytest.fixture()
def corpus_cfg(tmp_path):
    p = tmp_path / "tiny.cfg"
    p.write_text(SMALL_CORPUS_CFG)
    return p


def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0
    assert "granulom" in capsys.readouterr().out


def test_unknown_flag_is_usage_error(capsys):
    assert main(["knn", "--bogus"]) == 1
    assert main(["definitely-not-a-command"]) == 1


def test_missing_file_is_io_error(tmp_path):
    assert main(["granulo", str(tmp_path / "none.pgm"), str(tmp_path / "out.csv")]) == 3


def test_bad_data_is_data_error(tmp_path):
    bad = tmp_path / "bad.pgm"
    bad.write_bytes(b"P9\nnope")
    assert main(["granulo", str(bad), str(tmp_path / "out.csv")]) == 2


def test_non_finite_dataset_is_data_error(tmp_path):
    train = tmp_path / "train.csv"
    train.write_text("sample_id,label,f0001\na,x,1.0\nb,y,nan\n")
    assert main(["--quiet", "knn", "--train", str(train), "--test", str(train)]) == 2


@pytest.mark.parametrize("row", ["ALM-1,ALM", "ALM-1,ALM,../../../etc/hostname",
                                 "ALM-1,ALM,/etc/hostname"])
def test_bad_manifest_row_is_one_line_data_error(tmp_path, capsys, row):
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    (corpus / "manifest.csv").write_text(f"sample_id,label,path\n{row}\n")
    code = main(["--quiet", "extract", "--dir", str(corpus), "--out", str(tmp_path / "a.csv")])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: ") and "line 2" in err
    assert err.count("\n") == 1 and "Traceback" not in err
    assert not (tmp_path / "a.csv").exists()


def test_morph_and_granulo_and_si(tmp_path):
    rng = np.random.default_rng(0)
    src = tmp_path / "in.pgm"
    write_pgm(GreyImage(rng.integers(0, 256, (16, 16))), src)

    out = tmp_path / "open.pgm"
    assert main(["morph", "--op", "open", "--family", "hex", "--size", "2",
                 str(src), str(out)]) == 0
    opened = read_pgm(out)
    assert (opened.pixels <= read_pgm(src).pixels).all()

    curve_csv = tmp_path / "curve.csv"
    assert main(["granulo", "--kind", "open", "--rmax", "4", str(src), str(curve_csv)]) == 0
    sizes, values = read_curve_csv(curve_csv)
    assert sizes == (0, 1, 2, 3, 4) and values[0] == 0.0

    si_csv = tmp_path / "si.csv"
    assert main(["si", "--rmax", "2", "--kmax", "8", str(src), str(si_csv)]) == 0
    assert si_csv.read_text().splitlines()[0] == "r,k,count"


def test_full_cli_workflow(tmp_path, corpus_cfg, capsys):
    corpus = tmp_path / "corpus"
    assert main(["--quiet", "synth", "--spec", str(corpus_cfg), "--out", str(corpus)]) == 0
    assert (corpus / "manifest.csv").exists()

    all_csv = tmp_path / "all.csv"
    assert main(["--quiet", "extract", "--recipe", "lot117", "--dir", str(corpus),
                 "--out", str(all_csv), "--threads", "2"]) == 0
    ds = load_dataset(all_csv)
    assert ds.n_samples == 18 and ds.n_features == 117

    train_csv, test_csv = tmp_path / "train.csv", tmp_path / "test.csv"
    assert main(["--quiet", "split", "--dataset", str(all_csv),
                 "--train-out", str(train_csv), "--test-out", str(test_csv),
                 "--test-count", "6", "--seed", "9"]) == 0
    assert load_dataset(test_csv).n_samples == 6

    report_csv = tmp_path / "knn.csv"
    assert main(["--quiet", "knn", "--train", str(train_csv), "--test", str(test_csv),
                 "--k", "1", "--report", str(report_csv)]) == 0
    out = capsys.readouterr().out
    assert "recognition_rate = " in out
    assert report_csv.read_text().startswith("sample_id,true,predicted,n1_id")

    mask_txt, ga_csv = tmp_path / "mask.txt", tmp_path / "ga.csv"
    assert main(["--quiet", "select", "--train", str(train_csv), "--eval", str(test_csv),
                 "--pop", "8", "--gens", "10", "--seed", "2",
                 "--out", str(mask_txt), "--report", str(ga_csv)]) == 0
    mask_line = mask_txt.read_text().strip()
    assert len(mask_line) == 117 and set(mask_line) <= {"0", "1"}
    assert ga_csv.read_text().splitlines()[0] == "gen,best,median,min,best_nf"

    knn_masked = tmp_path / "knn_masked.csv"
    assert main(["--quiet", "knn", "--train", str(train_csv), "--test", str(test_csv),
                 "--mask-file", str(mask_txt), "--report", str(knn_masked)]) == 0

    pca_csv = tmp_path / "pca.csv"
    assert main(["--quiet", "pca", "--dataset", str(train_csv), "--out", str(pca_csv),
                 "--svg", str(tmp_path / "pca.svg")]) == 0
    assert pca_csv.read_text().splitlines()[0] == "sample_id,label,x,y"

    pair_csv = tmp_path / "pair.csv"
    assert main(["--quiet", "scatter", "--dataset", str(train_csv),
                 "--features", "93,117", "--out", str(pair_csv)]) == 0
    assert len(pair_csv.read_text().splitlines()) == 1 + 12


def test_knn_template_mode(tmp_path, corpus_cfg):
    corpus = tmp_path / "corpus"
    main(["--quiet", "synth", "--spec", str(corpus_cfg), "--out", str(corpus)])
    all_csv = tmp_path / "all.csv"
    main(["--quiet", "extract", "--recipe", "rgb27", "--dir", str(corpus),
          "--out", str(all_csv)])
    assert main(["--quiet", "knn", "--train", str(all_csv), "--test", str(all_csv),
                 "--template"]) == 0


def test_recipe_listing(capsys):
    assert main(["recipe", "--name", "lot117"]) == 0
    out = capsys.readouterr().out
    assert "total_features = 117" in out
    assert "93\tgopen_hexagon_r01" in out


def test_mask_length_mismatch_is_data_error(tmp_path, corpus_cfg):
    corpus = tmp_path / "corpus"
    main(["--quiet", "synth", "--spec", str(corpus_cfg), "--out", str(corpus)])
    all_csv = tmp_path / "all.csv"
    main(["--quiet", "extract", "--recipe", "rgb27", "--dir", str(corpus),
          "--out", str(all_csv)])
    assert main(["--quiet", "knn", "--train", str(all_csv), "--test", str(all_csv),
                 "--mask", "0101"]) == 2


def test_pipeline_runs_and_is_deterministic(tmp_path, corpus_cfg):
    cfg = tmp_path / "pipe.cfg"
    cfg.write_text(PIPELINE_CFG.format(corpus_cfg=corpus_cfg))
    r1, r2 = tmp_path / "run1", tmp_path / "run2"
    assert main(["--quiet", "pipeline", "--config", str(cfg), "--out", str(r1)]) == 0
    assert main(["--quiet", "pipeline", "--config", str(cfg), "--out", str(r2),
                 "--threads", "3"]) == 0
    files1 = sorted(p.relative_to(r1) for p in r1.rglob("*") if p.is_file())
    files2 = sorted(p.relative_to(r2) for p in r2.rglob("*") if p.is_file())
    assert files1 == files2
    for rel in files1:
        assert (r1 / rel).read_bytes() == (r2 / rel).read_bytes(), rel
    summary = (r1 / "run.txt").read_text()
    assert "baseline_1nn_rate = " in summary
    assert "ga_final_features = " in summary
    assert "ga_seed = 4" in summary


def test_pipeline_ga_disabled(tmp_path, corpus_cfg):
    cfg = tmp_path / "pipe.cfg"
    cfg.write_text(
        PIPELINE_CFG.format(corpus_cfg=corpus_cfg).replace("enabled = true", "enabled = false", 1)
    )
    run = tmp_path / "run"
    assert main(["--quiet", "pipeline", "--config", str(cfg), "--out", str(run)]) == 0
    assert not (run / "mask.txt").exists()
    assert (run / "baseline_k1.csv").exists()
    assert (run / "run.txt").exists()


@pytest.mark.parametrize("section,old,new", [
    ("ga", "population = 10", "population = lots"),
    ("baseline", "ks = 1", "ks = 1 x"),
    ("split", "test_fraction = 0.34", "test_fraction = half"),
    ("ga", "enabled = true", "enabled = maybe"),
    ("split", "seed = 3", "seed = -1"),
    ("ga", "seed = 4", "seed = -1"),
    ("ga", "population = 10", "alpha = nan\npopulation = 10"),
    ("split", "test_fraction = 0.34", "test_count = 0"),
    ("split", "test_fraction = 0.34", "test_count = 500"),
    ("pca", "components = 2", "components = 0"),
    ("pca", "components = 2", "components = 1"),
    ("baseline", "ks = 1", "ks = 1 50"),
    ("ga", "population = 10", "populaton = 10"),
])
def test_malformed_pipeline_config_fails_before_any_stage(tmp_path, corpus_cfg, capsys,
                                                         section, old, new):
    text = PIPELINE_CFG.format(corpus_cfg=corpus_cfg)
    assert old in text
    cfg = tmp_path / "pipe.cfg"
    cfg.write_text(text.replace(old, new, 1))
    run = tmp_path / "run"
    code = main(["pipeline", "--config", str(cfg), "--out", str(run)])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith(f"error: pipeline config [{section}] {new.split(' = ')[0]} = ")
    assert err.count("\n") == 1 and "Traceback" not in err
    assert not (run / "corpus").exists()


@pytest.mark.parametrize("old,new,named", [
    ("grain_radius = 2 3", "grain_radius = 2", "[class aa] grain_radius = '2': expected 2 "),
    ("tint = 1 0.9 1", "tint = 1 0.9", "[class cc] tint = '1 0.9': expected 3 "),
    ("background = 80", "background = x", "[class aa] background = 'x': expected "),
    ("density = 10\n", "", "[class aa] density (not set): expected "),
    ("image_size = 32", "image_size = big", "[corpus] image_size = 'big': expected "),
    ("grain_radius = 2 3", "grain_radius = 3 2", "[class aa]: bad grain radius range (3, 2)"),
    ("tint = 1 0.9 1", "tint = 1 2 1", "[class cc]: tint multipliers must lie in [0.5, 1.5]"),
    ("image_size = 32", "image_size = 16", "[corpus]: image_size must be >= 32"),
    ("background = 80", "background = 300", "[class aa]: background intensity must lie in "),
    ("grain_radius = 2 3", "grain_radius = 2 10000000000000000000",
     "[class aa]: grain radius maximum 10000000000000000000 exceeds 2147483647"),
    ("grain_radius = 2 3", f"grain_radius = 2 {2**62}", "[class aa]: grain radius maximum "),
    ("grain_intensity = 200 15", "grain_intensity = 200 10000000000000000000",
     "[class aa]: grain intensity spread 10000000000000000000 exceeds 2147483647"),
    ("density = 10", "density = 10 ; grains per 1000 px^2", None),
    ("density = 10", "density = 10\ndensity = 12", "option 'density' in section 'class aa'"),
])
def test_malformed_corpus_config_is_one_line_data_error(tmp_path, capsys, old, new, named):
    cfg = tmp_path / "c.cfg"
    cfg.write_text(SMALL_CORPUS_CFG.replace(old, new, 1))
    out = tmp_path / "corpus"
    code = main(["--quiet", "synth", "--spec", str(cfg), "--out", str(out)])
    err = capsys.readouterr().err
    if named is None:  # an inline comment is not part of the value
        assert code == 0 and err == ""
        assert load_corpus_spec(cfg) == parse_corpus_config(SMALL_CORPUS_CFG)
        return
    assert code == 2
    assert err.startswith("error: corpus config") and named in err
    assert err.count("\n") == 1 and "Traceback" not in err
    assert not out.exists()
    if "option" in named:  # a parse error names the file
        assert str(cfg) in err


TINY_DATASET = "sample_id,label,f0001,f0002\na-1,a,0,1\na-2,a,1,1\nb-1,b,5,6\nb-2,b,6,5\n"


@pytest.mark.parametrize("command", ["split", "select"])
def test_negative_seed_is_one_line_data_error(tmp_path, capsys, command):
    data = tmp_path / "d.csv"
    data.write_text(TINY_DATASET)
    if command == "split":
        argv = ["split", "--dataset", str(data), "--train-out", str(tmp_path / "tr.csv"),
                "--test-out", str(tmp_path / "te.csv"), "--fraction", "0.5", "--seed", "-1"]
    else:
        argv = ["select", "--train", str(data), "--eval", str(data), "--pop", "4",
                "--gens", "2", "--seed", "-1"]
    assert main(["--quiet", *argv]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "seed must be non-negative" in err
    assert err.count("\n") == 1


def test_nan_ga_weights_are_one_line_data_error(tmp_path, capsys):
    data = tmp_path / "d.csv"
    data.write_text(TINY_DATASET)
    code = main(["--quiet", "select", "--train", str(data), "--eval", str(data), "--pop", "4",
                 "--gens", "2", "--alpha", "nan", "--beta", "nan", "--out", str(tmp_path / "m")])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == "error: alpha and beta must be finite, got nan and nan\n"
    assert not (tmp_path / "m").exists()


@pytest.mark.parametrize("old,new", [("seed = 5", "seed = -1"),
                                     ("density = 10", "density = nan"),
                                     ("density = 10", "density = inf"),
                                     ("density = 10", "density = 1e9"),
                                     ("density = 10", "density = 1e30")])
def test_bad_corpus_seed_or_density_is_one_line_data_error(tmp_path, capsys, old, new):
    cfg = tmp_path / "c.cfg"
    cfg.write_text(SMALL_CORPUS_CFG.replace(old, new, 1))
    assert main(["--quiet", "synth", "--spec", str(cfg), "--out", str(tmp_path / "c")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert ("seed" if "seed" in new else "density") in err


@pytest.mark.parametrize("header,raster", [(b"P5\n2 1\n15\n", bytes([3, 200])),
                                           (b"P2\n2 1\n15\n", b"3 200\n")])
def test_sample_above_maxval_is_one_line_data_error(tmp_path, capsys, header, raster):
    pgm = tmp_path / "in.pgm"
    pgm.write_bytes(header + raster)
    assert main(["granulo", str(pgm), str(tmp_path / "out.csv")]) == 2
    assert capsys.readouterr().err == "error: sample value 200 exceeds maxval 15\n"


def test_dataset_error_names_the_file_and_its_line(tmp_path, capsys):
    data = tmp_path / "d.csv"
    data.write_text("sample_id,label,f0001\n\n\na-1,a,1\na-2,a,zap\n")
    assert main(["--quiet", "pca", "--dataset", str(data), "--out", str(tmp_path / "p")]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {data}: line 5: non-numeric cell (") and "'zap'" in err
    assert err.count("\n") == 1
