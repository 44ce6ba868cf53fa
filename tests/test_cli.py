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

TINY_DATASET = "sample_id,label,f0001,f0002\na-1,a,0,1\na-2,a,1,1\nb-1,b,5,6\nb-2,b,6,5\n"


@pytest.fixture()
def corpus_cfg(tmp_path):
    p = tmp_path / "tiny.cfg"
    p.write_text(SMALL_CORPUS_CFG)
    return p


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
    _, rows = read_csv_rows(curve_csv, "r,value", (int, float), "granulometry curve")
    sizes, values = zip(*rows)
    assert sizes == (0, 1, 2, 3, 4) and values[0] == 0.0

    si_csv = tmp_path / "si.csv"
    assert main(["si", "--rmax", "2", "--kmax", "8", str(src), str(si_csv)]) == 0
    assert si_csv.read_text().splitlines()[0] == "r,k,count"

    # a size far past the frame opens it to its minimum
    assert main(["morph", "--op", "open", "--size", "1000000000", str(src), str(out)]) == 0
    assert (read_pgm(out).pixels == read_pgm(src).pixels.min()).all()


def test_full_cli_workflow(tmp_path, corpus_cfg, capsys):
    corpus = tmp_path / "corpus"
    assert main(["--quiet", "synth", "--spec", str(corpus_cfg), "--out", str(corpus)]) == 0
    assert (corpus / "manifest.csv").exists()

    all_csv = tmp_path / "all.csv"
    assert main(["--quiet", "extract", "--recipe", "lot117", "--dir", str(corpus),
                 "--out", str(all_csv)]) == 0
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


def test_pipeline_runs_and_is_deterministic(tmp_path, corpus_cfg):
    cfg = tmp_path / "pipe.cfg"
    cfg.write_text(PIPELINE_CFG.format(corpus_cfg=corpus_cfg))
    r1, r2 = tmp_path / "run1", tmp_path / "run2"
    assert main(["--quiet", "pipeline", "--config", str(cfg), "--out", str(r1)]) == 0
    assert main(["--quiet", "pipeline", "--config", str(cfg), "--out", str(r2)]) == 0
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


def test_inline_comment_is_not_part_of_a_corpus_config_value(tmp_path, capsys):
    cfg = tmp_path / "c.cfg"
    cfg.write_text(SMALL_CORPUS_CFG.replace("density = 10",
                                            "density = 10 ; grains per 1000 px^2", 1))
    assert main(["--quiet", "synth", "--spec", str(cfg), "--out", str(tmp_path / "corpus")]) == 0
    assert capsys.readouterr().err == ""
    assert load_corpus_spec(cfg) == parse_corpus_config(SMALL_CORPUS_CFG)


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


def test_bad_input_has_one_exception_type():
    classes = [v for v in vars(errors).values() if isinstance(v, type)]
    assert classes == [errors.DataError] and issubclass(errors.DataError, ValueError)


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
