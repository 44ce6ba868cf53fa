"""Acceptance suite: one test per criterion, one printed pass/fail line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; the whole module finishes in a few minutes on a desktop.
"""

import dataclasses
import hashlib
import time
from itertools import product

import numpy as np
import pytest

from conftest import (
    charpoly_eigenvalues,
    knn_oracle,
    translate_opening_binary,
    translate_opening_grey,
    umbra_si_cell,
)
from granulom import cli
from granulom.analyze import export_scatter, fit_pca, project, transform
from granulom.classify import FeatureMask, KnnConfig, evaluate
from granulom.features import Dataset, builtin_recipe, extract_corpus, split
from granulom.granulometry import export_curve, granulometry_openings, size_intensity
from granulom.imagecore import GreyImage, intensity, read_ppm
from granulom.morphology import FAMILIES, StructuringElement, closing, opening
from granulom.select import GAConfig, run_ga, write_mask
from granulom.synthkit import builtin_corpus_spec, format_corpus_config, generate_corpus


def _verdict(criterion: int, name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[criterion {criterion:2d}] {name}: {status}{suffix}")
    assert ok, f"criterion {criterion} failed: {name} {suffix}"


# --- shared granite14 artefacts -----------------------------------------------

@pytest.fixture(scope="module")
def granite14_run(granite14_corpus):
    """Datasets and the GA run for the frozen benchmark, built once over the shared corpus."""
    corpus_dir, _ = granite14_corpus
    dataset = extract_corpus(corpus_dir, builtin_recipe("lot117"), threads=2)
    result = split(dataset, 50 / 237, seed=2028)
    baseline = evaluate(result.train, result.test, KnnConfig(1))
    cfg = GAConfig(
        population_size=50,
        generations=814,
        crossover_prob=1.0,
        mutation_prob=0.9,
        alpha=0.6,
        beta=0.4,
        seed=12957,
    )
    ga_report = run_ga(result.train, result.test, cfg)
    return {
        "corpus_dir": corpus_dir,
        "dataset": dataset,
        "train": result.train,
        "test": result.test,
        "baseline": baseline,
        "cfg": cfg,
        "ga": ga_report,
    }


# --- criterion 1: morphology axioms ----------------------------------------------

def test_criterion_1_morphology_axioms(rng):
    start = time.time()
    n_images = 102
    checked = 0
    ok = True
    for i in range(n_images):
        pixels = rng.integers(0, 256, (32, 32))
        higher = np.minimum(pixels + rng.integers(0, 64, (32, 32)), 255)
        f = GreyImage(pixels)
        g = GreyImage(higher)
        comp = GreyImage(255 - pixels)
        family = FAMILIES[i % 3]
        opened = {r: opening(f, StructuringElement(family, r)) for r in range(6)}
        closed = {r: closing(f, StructuringElement(family, r)) for r in range(6)}
        for r in range(6):
            se = StructuringElement(family, r)
            ok &= opening(opened[r], se) == opened[r]  # idempotence
            ok &= closing(closed[r], se) == closed[r]
            ok &= (opened[r].pixels <= pixels).all()  # anti-extensive
            ok &= (closed[r].pixels >= pixels).all()  # extensive
            ok &= (opened[r].pixels <= opening(g, se).pixels).all()  # increasing
            ok &= np.array_equal(closed[r].pixels, 255 - opening(comp, se).pixels)
        for r, s in product(range(6), range(6)):
            sieve = opening(opened[r], StructuringElement(family, s))
            ok &= sieve == opened[max(r, s)]
            checked += 1
        if not ok:
            break
    elapsed = time.time() - start
    _verdict(
        1,
        "morphology axiom suite (exact, 102 images x 3 families x r,s in 0..5)",
        ok and elapsed < 60.0 and checked >= 100 * 36 / 3,
        f"{elapsed:.1f}s",
    )


# --- criterion 2: Eq.-1-style curve oracle ------------------------------------------

def test_criterion_2_granulometry_oracle(rng):
    ok = True
    for i in range(50):
        family = FAMILIES[i % 3]
        pixels = rng.integers(0, 256, (8, 8)) if i % 2 else rng.integers(0, 16, (8, 8))
        if pixels.sum() == 0:
            pixels[0, 0] = 1
        total = int(pixels.sum())
        curve = granulometry_openings(GreyImage(pixels), family, 3)
        ok &= curve.values[0] == 0.0
        ok &= all(b >= a for a, b in zip(curve.values, curve.values[1:]))
        for r in range(4):
            opened = translate_opening_grey(pixels, family, r)
            ok &= curve.values[r] == (total - int(opened.sum())) / total
        if not ok:
            break
    _verdict(2, "opening granulometry equals set-translation oracle on 50 images", ok)


# --- criterion 3: size-intensity oracle ---------------------------------------------

def test_criterion_3_size_intensity_oracle(rng):
    ok = True
    for i in range(6):
        family = FAMILIES[i % 3]
        pixels = rng.integers(0, 17, (8, 8))
        si = size_intensity(GreyImage(pixels), family, 2, k_max=16)
        assert si.levels == tuple(range(1, 17))
        cells = si.cells.tolist()  # cells[r][k - 1] is SI(r, k)
        for k in range(1, 17):
            ok &= cells[0][k - 1] == int((pixels >= k).sum())  # survival histogram
            mask = pixels >= k
            for r in range(3):
                ok &= cells[r][k - 1] == int(translate_opening_binary(mask, family, r).sum())
        for r in range(3):
            for k in range(1, 17):
                ok &= cells[r][k - 1] == umbra_si_cell(pixels, family, r, k)
        if not ok:
            break
    _verdict(3, "size-intensity equals 3-D umbra oracle (8x8, k_max=16)", ok)


# --- criterion 4: k-NN oracle ---------------------------------------------------------

def test_criterion_4_knn_oracle(rng):
    ok = True
    for trial in range(500):
        n_train = int(rng.integers(3, 201))
        n_feat = int(rng.integers(1, 121))
        k = int(rng.integers(1, min(n_train, 5) + 1))
        matrix = rng.normal(size=(n_train, n_feat))
        labels = [f"c{int(v)}" for v in rng.integers(0, 5, n_train)]
        ids = [f"s{i:04d}" for i in rng.permutation(n_train)]
        query = rng.normal(size=n_feat)
        if trial % 3 == 0:
            bits = rng.random(n_feat) < 0.5
            if not bits.any():
                bits[int(rng.integers(0, n_feat))] = True
            mask, mask_idx = FeatureMask(bits), np.flatnonzero(bits)
        else:
            mask, mask_idx = None, None
        expect_label, expect_ids = knn_oracle(
            list(zip(ids, labels, matrix)), query, k, mask_idx
        )
        [outcome] = evaluate(
            Dataset(ids, labels, matrix), Dataset(["q"], ["q"], query[None]),
            KnnConfig(k), mask,
        ).per_sample
        ok &= outcome.predicted == expect_label
        ok &= [n.sample_id for n in outcome.neighbours] == expect_ids
        if not ok:
            break
    _verdict(4, "k-NN matches brute-force oracle on 500 random instances", ok)


# --- criterion 5: fitness arithmetic ---------------------------------------------------

def test_criterion_5_fitness_arithmetic():
    from granulom.select import fitness

    ok = abs(fitness(49, 117, 0.6, 0.4) - (-17.4)) <= 1e-12
    ok &= abs(fitness(50, 3, 0.6, 0.4) - 28.8) <= 1e-12
    _verdict(5, "wrapper fitness: alpha*hits - beta*nf exact to 1e-12", ok)


# --- criterion 6: GA finds exhaustive optimum ------------------------------------------

def _toy_problem(seed):
    rng = np.random.default_rng(seed)

    def block(n, tag):
        rows, labels, ids = [], [], []
        for i in range(n):
            label = "pos" if i % 2 == 0 else "neg"
            signal = 1.0 if label == "pos" else -1.0
            rows.append(
                [rng.normal(), signal + 0.01 * rng.normal(), rng.normal(), rng.normal()]
            )
            labels.append(label)
            ids.append(f"{tag}{i:02d}")
        return Dataset(ids, labels, np.array(rows))

    return block(10, "tr"), block(8, "ev")


def test_criterion_6_ga_global_optimum():
    hits_ok = 0
    runs = 0
    for problem_seed in (101, 202):
        train, eval_set = _toy_problem(problem_seed)
        rows = list(zip(train.sample_ids, train.labels, train.matrix))
        optimum = None
        for bits in product((0, 1), repeat=4):
            if not any(bits):
                continue
            idx = np.flatnonzero(np.array(bits))
            hits = sum(
                knn_oracle(rows, eval_set.matrix[i], 1, idx)[0] == eval_set.labels[i]
                for i in range(eval_set.n_samples)
            )
            fit = 0.6 * hits - 0.4 * len(idx)
            optimum = fit if optimum is None else max(optimum, fit)
        for seed in range(10):
            cfg = GAConfig(population_size=8, generations=25, seed=seed)
            report = run_ga(train, eval_set, cfg)
            runs += 1
            if report.best_fitness == optimum:
                hits_ok += 1
    _verdict(
        6,
        "GA reaches the 15-mask exhaustive optimum in >= 9/10 seeds",
        hits_ok >= 0.9 * runs,
        f"{hits_ok}/{runs}",
    )


# --- criterion 7: paper-shape reproduction on granite14 ----------------------------------

def test_criterion_7_paper_shape(granite14_run):
    start = time.time()
    baseline = granite14_run["baseline"]
    ga = granite14_run["ga"]
    train, test = granite14_run["train"], granite14_run["test"]
    n_before = 117
    n_after = ga.best_mask.n_selected
    masked = evaluate(train, test, KnnConfig(1), ga.best_mask)
    ok = train.n_samples == 187 and test.n_samples == 50
    ok &= 0.90 <= baseline.recognition_rate <= 0.99
    ok &= ga.generations_run <= 814
    ok &= n_after <= 10
    ok &= masked.recognition_rate >= baseline.recognition_rate
    ok &= (n_before - n_after) / n_before >= 0.90
    _verdict(
        7,
        "granite14 analog: baseline in [90,99]%, GA mask <=10 features, >= baseline",
        ok,
        f"baseline {baseline.hits}/50, GA {masked.hits}/50 with {n_after} features, "
        f"{time.time() - start:.0f}s",
    )


# --- criterion 8: PCA ------------------------------------------------------------------

def test_criterion_8_pca(rng):
    ok = True
    for _ in range(5):
        m = rng.normal(size=(5, 5))
        cov = m @ m.T
        ds = Dataset(
            [f"s{i}" for i in range(30)],
            ["a"] * 30,
            rng.multivariate_normal(np.zeros(5), cov, size=30),
        )
        model = fit_pca(ds, 5)
        gram = model.components @ model.components.T
        ok &= np.abs(gram - np.eye(5)).max() < 1e-9
        centered = ds.matrix - ds.matrix.mean(axis=0)
        sample_cov = centered.T @ centered / 29
        oracle = charpoly_eigenvalues(sample_cov)
        ok &= np.abs(np.sort(model.eigenvalues) - oracle).max() < 1e-8
        ok &= abs(model.eigenvalues.sum() - np.trace(sample_cov)) < 1e-8
        ok &= np.all(transform(model, model.mean) == 0.0)
    _verdict(8, "PCA orthonormality 1e-9, eigen oracle 1e-8, trace 1e-8, mean->origin", ok)


# --- criterion 9: determinism -------------------------------------------------------------

def test_criterion_9_determinism(granite14_run, tmp_path):
    spec = builtin_corpus_spec("granite14")
    other_corpus = tmp_path / "corpus2"
    generate_corpus(spec, other_corpus)
    first = granite14_run["corpus_dir"]
    ok = (first / "manifest.csv").read_bytes() == (other_corpus / "manifest.csv").read_bytes()
    for name in ("ALM-1.ppm", "ARIC-4.ppm", "VIM-20.ppm"):
        ok &= (first / name).read_bytes() == (other_corpus / name).read_bytes()

    # extraction bytes are independent of the worker count
    from granulom.features import save_dataset

    ds1 = extract_corpus(first, builtin_recipe("lot117"), threads=1)
    ds4 = extract_corpus(first, builtin_recipe("lot117"), threads=4)
    p1, p4 = tmp_path / "t1.csv", tmp_path / "t4.csv"
    save_dataset(ds1, p1)
    save_dataset(ds4, p4)
    ok &= p1.read_bytes() == p4.read_bytes()

    # GA rerun with the shipped seed reproduces the report bit for bit
    ga2 = run_ga(granite14_run["train"], granite14_run["test"], granite14_run["cfg"])
    ok &= ga2.best_mask == granite14_run["ga"].best_mask
    ok &= ga2.history == granite14_run["ga"].history
    _verdict(9, "seeded reruns byte-identical at any thread count", ok)


# --- golden extraction record -------------------------------------------------------
# sha256 of the granite14 lot117 all.csv, recorded before extraction was batched.

GOLDEN_ALL_CSV_SHA256 = "d95d7484ce7c21fc60210e107ee1710b3c0f55e7cbc5d56cd25f47837726db7e"


def test_extraction_golden_bytes(granite14_run, tmp_path):
    from granulom.features import save_dataset

    serial = extract_corpus(granite14_run["corpus_dir"], builtin_recipe("lot117"), threads=1)
    for name, ds in (("t1.csv", serial), ("t2.csv", granite14_run["dataset"])):
        save_dataset(ds, tmp_path / name)
        digest = hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
        assert digest == GOLDEN_ALL_CSV_SHA256, name


# sha256 of the granite14 rgb27 all.csv and of `granulom recipe --name` stdout,
# recorded while RGB and HLS histograms were still two extractor classes.

GOLDEN_RGB27_CSV_SHA256 = "7b1cbbc2564e40ace6bdb377169c4a808e62537bf361428ec33208677005604f"
GOLDEN_RECIPE_SHA256 = {
    "rgb27": "2b21523a23c36d5129e05ae691f73ffdb12128cc70eb5710fbf5b8b77714a92d",
    "lot117": "18e906111df163bb3e0eacb5e1c93888464f24b2df98b7ff6e2cca0e5424db1b",
}


def test_rgb27_extraction_golden_bytes(granite14_run, tmp_path):
    out = tmp_path / "all.csv"
    assert cli.main(["--quiet", "extract", "--recipe", "rgb27",
                     "--dir", str(granite14_run["corpus_dir"]), "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == GOLDEN_RGB27_CSV_SHA256


@pytest.mark.parametrize("name", sorted(GOLDEN_RECIPE_SHA256))
def test_recipe_listing_golden_bytes(capsys, name):
    assert cli.main(["recipe", "--name", name]) == 0
    digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    assert digest == GOLDEN_RECIPE_SHA256[name]


# --- golden size-intensity record ---------------------------------------------------
# sha256 of the exported hexagon r=30 diagram of two granite14 intensity images,
# recorded while size-intensity still opened each threshold set separately.

GOLDEN_SI_CSV_SHA256 = {
    "ALM-1": "7dec59ee70d5db6873bfbef7b7f7a9df83e5ca00dcac960100d8b7f28f78986f",
    "VIM-1": "4f493af1b59be869670c41a48518f3e29ab099d4bc389c854d4cb0cee4ea98ec",
}


@pytest.mark.parametrize("sample_id", sorted(GOLDEN_SI_CSV_SHA256))
def test_size_intensity_golden_bytes(granite14_run, tmp_path, sample_id):
    grey = intensity(read_ppm(granite14_run["corpus_dir"] / f"{sample_id}.ppm"))
    export_curve(size_intensity(grey, "hex", 30), tmp_path / "si.csv")
    digest = hashlib.sha256((tmp_path / "si.csv").read_bytes()).hexdigest()
    assert digest == GOLDEN_SI_CSV_SHA256[sample_id]


# --- golden GA record ------------------------------------------------------------------
# Recorded on the shipped seed. Near-ties make these bytes depend on the
# order in which squared differences are summed; a change to that order or
# to the GA's work shows up here.

GOLDEN_GA_CSV_SHA256 = "79ef1e3c6119f08663dcd11310ec27aac199da061bf2bc417026ee09ec23b156"
GOLDEN_MASK = "1" + "0" * 56 + "11" + "0" * 38 + "1" + "0" * 17 + "1" + "0"


def test_ga_golden_bytes(granite14_run, tmp_path):
    ga = granite14_run["ga"]
    ga.to_csv(tmp_path / "ga.csv")
    write_mask(ga.best_mask, tmp_path / "mask.txt")
    assert hashlib.sha256((tmp_path / "ga.csv").read_bytes()).hexdigest() == GOLDEN_GA_CSV_SHA256
    assert (tmp_path / "mask.txt").read_text() == GOLDEN_MASK + "\n"
    assert ga.selected_features == (1, 58, 59, 98, 116)
    assert (ga.best_hits, ga.best_fitness) == (49, 27.4)


def test_ga_golden_work_counts(granite14_run):
    ga = granite14_run["ga"]
    assert (ga.cache_hits, ga.evaluations) == (5235, 35515)
    assert ga.cache_hits + ga.evaluations == 50 * (ga.generations_run + 1)
    assert ga.distance_sums == 11136  # distinct live projections: each summed once


# sha256 of ga.csv and mask.txt of `granulom pipeline` on granite14 at corpus
# seed 7919, the held-out seed, recorded on the commit before the GA's draws
# were replayed from raw generator words. Its fitness values drive a
# different tournament path from the shipped seed's.

GOLDEN_HELD_OUT_GA_SHA256 = {
    "ga.csv": "17bbad150f041cd0778374f250bc1b9a0c5bcbe05a622ad3c3aefbd1cbe37fad",
    "mask.txt": "49b0e94a3e632c10d7397817a4f127b46ac253da481b195c188f31385f8edbbf",
}


# sha256 of pca_train.csv and pca_train.svg of `granulom pipeline` at the
# shipped corpus seed and at the held-out seed 7919, recorded on the commit
# before the Jacobi solver rotated only the live block of the covariance.

GOLDEN_PCA_SHA256 = {
    "pca_train.csv": "bd3a63b42b9661ac9276e550fbf3e339007b1f9a8376e175e1062a502c22e620",
    "pca_train.svg": "a8fbf568b90555a667429af759bdb08a65d4066b9c537f811c7675d921a91264",
}
GOLDEN_HELD_OUT_PCA_SHA256 = {
    "pca_train.csv": "5ad5cce5896dbae386ce7920dc4a2a93dd9909af5faaedcb82c93a2edfdf57d4",
    "pca_train.svg": "a4b2f584757f194239456e12b1e87e9cd296b133c1e85a20e3d921e32ff09535",
}


def test_pca_golden_bytes(granite14_run, tmp_path):
    train = granite14_run["train"]
    model = fit_pca(train, n_components=2)
    export_scatter(project(model, train), tmp_path / "pca_train.csv",
                   svg_path=tmp_path / "pca_train.svg")
    for name, digest in GOLDEN_PCA_SHA256.items():
        assert hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() == digest, name


def test_ga_golden_bytes_held_out_corpus_seed(tmp_path):
    from importlib.resources import files

    spec = dataclasses.replace(builtin_corpus_spec("granite14"), seed=7919)
    (tmp_path / "corpus.cfg").write_text(format_corpus_config(spec))
    cfg_text = files("granulom.data").joinpath("pipeline.cfg").read_text()
    cfg_path = tmp_path / "pipeline.cfg"
    cfg_path.write_text(cfg_text.replace("spec = granite14", f"spec = {tmp_path / 'corpus.cfg'}"))
    run_dir = tmp_path / "run"
    assert cli.main(["--quiet", "pipeline", "--config", str(cfg_path), "--out", str(run_dir)]) == 0
    assert "corpus_seed = 7919\n" in (run_dir / "run.txt").read_text()
    for name, digest in (GOLDEN_HELD_OUT_GA_SHA256 | GOLDEN_HELD_OUT_PCA_SHA256).items():
        assert hashlib.sha256((run_dir / name).read_bytes()).hexdigest() == digest, name


# --- criterion 10: end-to-end pipeline -----------------------------------------------------

def test_criterion_10_pipeline(tmp_path):
    start = time.time()
    from importlib.resources import files

    cfg_text = files("granulom.data").joinpath("pipeline.cfg").read_text()
    cfg_path = tmp_path / "pipeline.cfg"
    cfg_path.write_text(cfg_text)
    run_dir = tmp_path / "run"
    code = cli.main(
        ["--quiet", "pipeline", "--config", str(cfg_path), "--out", str(run_dir)]
    )
    elapsed = time.time() - start
    ok = code == 0
    expected = [
        "corpus/manifest.csv",
        "all.csv",
        "train.csv",
        "test.csv",
        "baseline_k1.csv",  # Table-2-style per-sample neighbour report
        "baseline_k3.csv",
        "ga.csv",
        "mask.txt",
        "ga_eval_k1.csv",
        "pca_train.csv",
        "pca_train.svg",
        "run.txt",  # Table-3-style parameter/result summary
    ]
    for rel in expected:
        ok &= (run_dir / rel).exists()
    summary = (run_dir / "run.txt").read_text() if ok else ""
    for key in ("ga_alpha", "ga_beta", "ga_population", "ga_generations_run",
                "ga_seed", "ga_final_features", "ga_recognition_rate",
                "baseline_1nn_rate", "baseline_3nn_rate"):
        ok &= f"{key} = " in summary
    report_header = (run_dir / "baseline_k3.csv").read_text().splitlines()[0] if ok else ""
    ok &= report_header.startswith("sample_id,true,predicted,n1_id,n1_label,n1_dist")
    ok &= elapsed < 45 * 60
    _verdict(10, "end-to-end pipeline emits every stage artefact", ok, f"{elapsed:.0f}s")
