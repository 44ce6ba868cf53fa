import dataclasses
from importlib.resources import files

import numpy as np
import pytest

from granulom import errors
from granulom.cli import _GA_SETTINGS, _RUN_ARTEFACTS, main
from granulom.csvrows import read_csv_rows
from granulom.features import load_dataset
from granulom.imagecore import GreyImage, read_pgm, write_pgm
from granulom.select import GAConfig
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


@pytest.mark.parametrize("argv", [["knn", "--k", "3"], ["knn", "--normalize"], ["pca"]],
                         ids=["knn", "knn-normalize", "pca"])
def test_feature_value_above_the_magnitude_bound_is_one_line_data_error(tmp_path, capsys, argv):
    # finite values whose differences, squares and covariances overflow
    data = tmp_path / "big.csv"
    data.write_text("sample_id,label,f1,f2\na-1,a,1e308,0.5\na-2,a,-1e308,0.4\n"
                    "b-1,b,0.2,0.9\nb-2,b,0.3,0.8\n")
    io = ["--dataset", str(data), "--out", str(tmp_path / "pca.csv")] if argv == ["pca"] \
        else ["--train", str(data), "--test", str(data)]
    assert main(["--quiet", *argv, *io]) == 2
    assert capsys.readouterr().err == (
        f"error: {data}: feature value 1e+308 above 1e+70 in magnitude "
        "(sample 'a-1', feature 'f1')\n")


@pytest.mark.parametrize("command", ["knn", "select"])
@pytest.mark.parametrize("train,test,message", [
    ("", "a-1,a,1\nb-1,b,2\n", "cannot min-max scale on a training set with no samples"),
    # a span of 1e-300 scales 1e60 past the float range; an overflow warning fails the test
    ("p-1,a,0\np-2,b,1e-300\n", "q-1,a,1e60\n",
     "scaled feature value out of bounds: 1e+60 scales to inf, above 1e+70 in magnitude "
     "(sample 'q-1', feature 'f1')"),
], ids=["empty-training-set", "past-the-float-range"])
def test_normalize_failure_is_one_line_data_error(tmp_path, capsys, command, train, test,
                                                  message):
    for name, rows in (("train.csv", train), ("test.csv", test)):
        (tmp_path / name).write_text("sample_id,label,f1\n" + rows)
    argv = [command, "--normalize", "--train", str(tmp_path / "train.csv"),
            "--test" if command == "knn" else "--eval", str(tmp_path / "test.csv")]
    if command == "select":
        argv += ["--pop", "4", "--gens", "2"]
    assert main(["--quiet", *argv]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


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


def test_repeated_manifest_id_is_one_line_data_error_before_any_image_is_read(tmp_path, capsys):
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    manifest = corpus / "manifest.csv"  # neither image exists
    manifest.write_text("sample_id,label,path\nALM-1,ALM,ALM/a.ppm\nALM-1,ALM,ALM/b.ppm\n")
    code = main(["--quiet", "extract", "--dir", str(corpus), "--out", str(tmp_path / "a.csv")])
    assert code == 2
    assert capsys.readouterr().err == f"error: {manifest}: duplicate sample id 'ALM-1'\n"
    assert not (tmp_path / "a.csv").exists()


def test_morph_and_granulo_and_si(tmp_path, capsys):
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
    _, rows = read_csv_rows(curve_csv, "r,value", (int, float), "granulometry curve")
    sizes, values = zip(*rows)
    assert sizes == (0, 1, 2, 3, 4) and values[0] == 0.0

    si_csv = tmp_path / "si.csv"
    assert main(["si", "--rmax", "2", "--kmax", "8", str(src), str(si_csv)]) == 0
    assert si_csv.read_text().splitlines()[0] == "r,k,count"

    # a size far past the frame opens it to its minimum
    assert main(["morph", "--op", "open", "--size", "1000000000", str(src), str(out)]) == 0
    assert (read_pgm(out).pixels == read_pgm(src).pixels.min()).all()
    for cmd in ("granulo", "si"):  # r_max past granulometry.MAX_R_MAX
        assert main([cmd, "--rmax", "1000000000", str(src), str(tmp_path / "c.csv")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: r_max must lie in") and err.count("\n") == 1
        assert not (tmp_path / "c.csv").exists()


@pytest.mark.parametrize("argv", [["pca", "--out", "s.csv", "--svg", "s.svg"],
                                  ["split", "--train-out", "s.csv", "--test-out", "t.csv",
                                   "--test-count", "1"]])
def test_dataset_with_a_bad_label_is_one_line_data_error(tmp_path, capsys, monkeypatch, argv):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "d.csv").write_text(
        "sample_id,label,f0001,f0002\na-1,a,0,1\na-2,a,1,0\nb-1,x<y&z,2,2\n")
    code = main(["--quiet", argv[0], "--dataset", "d.csv", *argv[1:]])
    err = capsys.readouterr().err
    assert code == 2 and err.startswith("error: d.csv: line 4: ") and err.count("\n") == 1
    assert [p.name for p in tmp_path.iterdir()] == ["d.csv"]


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
    ("baseline", "ks = 1", "ks = 1 1"),
    ("ga", "population = 10", "populaton = 10"),
    ("ga", "population = 10", "enforce_weight_sum = true\npopulation = 10"),
    ("split", "test_fraction = 0.34", "test_count = 6\ntest_fraction = 0.34"),
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
    ("image_size = 32", "image_size = 1000000000000",
     "[corpus]: image_size must be <= 2048, got 1000000000000"),
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


def test_huge_ga_population_is_one_line_data_error(tmp_path, capsys):
    data = tmp_path / "d.csv"
    data.write_text(TINY_DATASET)
    code = main(["--quiet", "select", "--train", str(data), "--eval", str(data),
                 "--pop", "1000000000000", "--gens", "2", "--out", str(tmp_path / "m")])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == "error: population_size must lie in [2, 1048576], got 1000000000000\n"
    assert not (tmp_path / "m").exists()


def test_pca_with_one_component_is_one_line_data_error_before_fitting(tmp_path, capsys):
    data = tmp_path / "d.csv"
    data.write_text(TINY_DATASET)
    code = main(["--quiet", "pca", "--dataset", str(data), "--components", "1",
                 "--out", str(tmp_path / "p.csv"), "--svg", str(tmp_path / "p.svg")])
    assert code == 2
    assert capsys.readouterr().err == "error: n_components must lie in [2, 2], got 1\n"
    assert [p.name for p in tmp_path.iterdir()] == ["d.csv"]


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


def _pipeline_cfg(tmp_path, corpus_cfg, text=PIPELINE_CFG):
    cfg = tmp_path / "pipe.cfg"
    cfg.write_text(text.format(corpus_cfg=corpus_cfg))
    return cfg


def test_pipeline_prints_each_stage_header_once_in_order(tmp_path, corpus_cfg, capsys):
    cfg = _pipeline_cfg(tmp_path, corpus_cfg, PIPELINE_CFG.replace("ks = 1", "ks = 1 3"))
    assert main(["pipeline", "--config", str(cfg), "--out", str(tmp_path / "run")]) == 0
    headers = [ln for ln in capsys.readouterr().err.splitlines() if ln.startswith("[")]
    assert headers == ["[synth]", "[extract]", "[split]", "[baseline-1nn]", "[baseline-3nn]",
                       "[select]", "[select-eval]", "[pca]"]


@pytest.mark.parametrize("artefact,stage", [
    ("all.csv", "extract"),
    ("train.csv", "split"),
    ("baseline_k1.csv", "baseline-1nn"),
    ("mask.txt", "select"),
    ("ga.csv", "select"),
    ("ga_eval_k1.csv", "select-eval"),
    ("pca_train.csv", "pca"),
])
def test_failed_artefact_write_names_its_stage(tmp_path, corpus_cfg, capsys, artefact, stage):
    cfg = _pipeline_cfg(tmp_path, corpus_cfg)
    run = tmp_path / "run"
    (run / artefact).mkdir(parents=True)  # a directory where the stage writes a file
    code = main(["--quiet", "pipeline", "--config", str(cfg), "--out", str(run)])
    err = capsys.readouterr().err
    assert code == 3
    assert err.startswith(f"i/o error: stage {stage}: ") and err.count("\n") == 1
    assert not (run / "run.txt").exists()


def test_ga_settings_table_holds_every_ga_option():
    assert set(_GA_SETTINGS) == {f.name for f in dataclasses.fields(GAConfig)}


def test_weight_override_flag_is_a_usage_error(tmp_path):
    data = tmp_path / "d.csv"
    data.write_text(TINY_DATASET)
    assert main(["--quiet", "select", "--train", str(data), "--eval", str(data), "--pop", "4",
                 "--gens", "2", "--alpha", "0.6", "--beta", "0.6", "--no-weight-check"]) == 1


def test_split_takes_exactly_one_size(tmp_path):
    data = tmp_path / "d.csv"
    data.write_text(TINY_DATASET)
    argv = ["--quiet", "split", "--dataset", str(data), "--train-out", str(tmp_path / "tr.csv"),
            "--test-out", str(tmp_path / "te.csv")]
    assert main([*argv, "--fraction", "0.5", "--test-count", "2"]) == 1
    assert main(argv) == 1
    assert not (tmp_path / "tr.csv").exists()


@pytest.mark.parametrize("threads", ["0", "-3"])
def test_threads_below_one_is_one_line_data_error(tmp_path, corpus_cfg, capsys, threads):
    corpus, dataset, run = tmp_path / "corpus", tmp_path / "a.csv", tmp_path / "run"
    assert main(["--quiet", "synth", "--spec", str(corpus_cfg), "--out", str(corpus)]) == 0
    assert main(["--quiet", "extract", "--dir", str(corpus), "--out", str(dataset),
                 "--threads", threads]) == 2
    cfg = _pipeline_cfg(tmp_path, corpus_cfg)
    assert main(["--quiet", "pipeline", "--config", str(cfg), "--out", str(run),
                 "--threads", threads]) == 2
    assert capsys.readouterr().err == f"error: threads must be >= 1, got {threads}\n" * 2
    assert not dataset.exists() and not (run / "corpus").exists()


def test_bad_input_has_one_exception_type():
    classes = [v for v in vars(errors).values() if isinstance(v, type)]
    assert classes == [errors.DataError] and issubclass(errors.DataError, ValueError)


@pytest.mark.parametrize("pgm,message", [
    (b"P5\n2 2\n65535\n" + bytes(8), "maxval 65535 exceeds 255"),
    (b"P5\n2 2\n255\n" + bytes(3), "raster holds 3 bytes, expected 4"),
    (b"P2\n2 2\n255\n0 1 2\n", "raster holds 3 samples, expected 4"),
])
def test_unsupported_or_truncated_pgm_is_one_line_data_error(tmp_path, capsys, pgm, message):
    src = tmp_path / "in.pgm"
    src.write_bytes(pgm)
    assert main(["granulo", str(src), str(tmp_path / "out.csv")]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


def _files(root):
    return {p.relative_to(root): p.read_bytes() for p in root.rglob("*") if p.is_file()}


def test_rerun_into_a_run_directory_leaves_only_its_own_artefacts(tmp_path, corpus_cfg):
    no_ga = PIPELINE_CFG.replace("enabled = true", "enabled = false", 1)
    cfg, run, fresh = _pipeline_cfg(tmp_path, corpus_cfg), tmp_path / "run[1]", tmp_path / "fresh"
    assert main(["--quiet", "pipeline", "--config", str(cfg), "--out", str(run)]) == 0
    first = _files(run)
    assert "mask.txt" in {f.name for f in first}
    assert {p for pattern in _RUN_ARTEFACTS for p in run.glob(pattern)} == {run / f for f in first}
    _pipeline_cfg(tmp_path, corpus_cfg, no_ga.replace("seed = 3", "seed = -1"))
    assert main(["--quiet", "pipeline", "--config", str(cfg), "--out", str(run)]) == 2
    assert _files(run) == first  # a config error removes nothing
    _pipeline_cfg(tmp_path, corpus_cfg, no_ga)
    assert main(["--quiet", "pipeline", "--config", str(cfg), "--out", str(run)]) == 0
    assert main(["--quiet", "pipeline", "--config", str(cfg), "--out", str(fresh)]) == 0
    assert _files(run) == _files(fresh)


@pytest.mark.parametrize("flags", [["--k", "2", "--mask", "10", "--mask-file", "m.txt"],
                                   ["--template", "--k", "3"],
                                   ["--template", "--k", "1"]])
def test_knn_flag_groups_take_one_flag_each(tmp_path, capsys, flags):
    data, report = tmp_path / "d.csv", tmp_path / "r.csv"
    data.write_text(TINY_DATASET)
    (tmp_path / "m.txt").write_text("11\n")
    flags = [str(tmp_path / f) if f == "m.txt" else f for f in flags]
    assert main(["--quiet", "knn", "--train", str(data), "--test", str(data),
                 "--report", str(report), *flags]) == 1
    assert capsys.readouterr().err.startswith("usage error: ")
    assert not report.exists()


def test_knn_empty_mask_is_one_line_data_error(tmp_path, capsys):
    """An empty --mask is a malformed mask, not a request for every feature."""
    data, report = tmp_path / "d.csv", tmp_path / "r.csv"
    data.write_text(TINY_DATASET)
    assert main(["knn", "--train", str(data), "--test", str(data),
                 "--report", str(report), "--mask", ""]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert not report.exists()


def test_ga_defaults_are_the_shipped_run(tmp_path, monkeypatch):
    built = []

    def record(**settings):  # stops each command once its GA settings are known
        built.append(GAConfig(**settings))
        raise errors.DataError("recorded")

    monkeypatch.setattr("granulom.select.GAConfig", record)
    data = tmp_path / "d.csv"
    data.write_text(TINY_DATASET)
    assert main(["--quiet", "select", "--train", str(data), "--eval", str(data)]) == 2
    shipped = files("granulom.data").joinpath("pipeline.cfg")
    assert main(["--quiet", "pipeline", "--config", str(shipped),
                 "--out", str(tmp_path / "run")]) == 2
    assert built == [GAConfig(), GAConfig()]
