"""The traced run: per-layer metrics from spans around granulom's public functions.

A span records its name, start, end, the span that caused it and the trace
(the root span) it belongs to; one pipeline replay, one image or one
knn-sweep round is one trace. Spans stay in memory and are written to
<state>/spans-<workload>-seed<seed>.jsonl when the run ends.

Every trace result must carry every per-layer metric, so the traced run is
the same for each workload: an untraced `granulom pipeline`, a traced
replay of it stage by stage (which must reproduce its files byte for byte),
a two-thread extraction, and probes of the image-tools and knn-sweep
paths. Tracing overhead is the replay's wall time minus the untraced run's.
"""

from __future__ import annotations

import configparser
import json
import os
import statistics
import time
from contextlib import contextmanager

import numpy as np

from granulom import analyze, classify, cli, features, granulometry, imagecore, morphology
from granulom import select, synthkit

import oracle
import workloads

STAGES = ("stage.synth", "stage.extract", "stage.split", "stage.baseline", "stage.select",
          "stage.pca")
# files the replay writes, compared byte for byte with the untraced run directory
REPLAY_FILES = ("all.csv", "train.csv", "test.csv", "baseline_k1.csv", "baseline_k3.csv",
                "mask.txt", "ga.csv", "ga_eval_k1.csv", "pca_train.csv", "pca_train.svg")
KNN_ROUNDS = 10
UNIT_STEP_REPS = 500
DATASET_IO_REPS = 5
# computed counts that must repeat exactly for one seed
COUNTS = ("morphology.unit_steps", "granulometry.si_columns", "classify.distance_evals",
          "select.objective_calls", "cli.bytes_written")


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []
        self._stack: list[dict] = []

    @contextmanager
    def span(self, name: str, **attrs):
        parent = self._stack[-1] if self._stack else None
        rec = {"id": len(self.spans), "parent": parent and parent["id"],
               "trace": parent["trace"] if parent else len(self.spans),
               "name": name, **attrs, "start": time.perf_counter(), "end": None}
        self.spans.append(rec)
        self._stack.append(rec)
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            self._stack.pop()

    def durations(self, name: str, **attrs) -> list[float]:
        return [s["end"] - s["start"] for s in self.spans
                if s["name"] == name and all(s.get(k) == v for k, v in attrs.items())]

    def total(self, name: str, **attrs) -> float:
        return sum(self.durations(name, **attrs))

    def p50_ms(self, name: str, **attrs) -> float:
        return statistics.median(self.durations(name, **attrs)) * 1000.0

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps(s) + "\n")


def replay_pipeline(tr: Tracer, cfg_path: str, out: str):
    """The pipeline's stages through the public API, one span per stage and call."""
    cp = configparser.ConfigParser()
    cp.optionxform = str
    cp.read(cfg_path)
    os.makedirs(out)
    corpus = os.path.join(out, "corpus")
    with tr.span("pipeline"):
        with tr.span("stage.synth"):
            spec = synthkit.load_corpus_spec(cp["synth"]["spec"])
            with tr.span("synthkit.generate_corpus"):
                synthkit.generate_corpus(spec, corpus)
        with tr.span("stage.extract"):
            recipe = features.builtin_recipe(cp["extract"]["recipe"])
            with tr.span("features.extract_corpus", threads=1):
                ds = features.extract_corpus(corpus, recipe)
            features.save_dataset(ds, os.path.join(out, "all.csv"))
        with tr.span("stage.split"):
            with tr.span("features.split"):
                split = features.split(ds, cp.getint("split", "test_count") / ds.n_samples,
                                       cp.getint("split", "seed"))
            train, test = split.train, split.test
            features.save_dataset(train, os.path.join(out, "train.csv"))
            features.save_dataset(test, os.path.join(out, "test.csv"))
        with tr.span("stage.baseline"):
            for k in (int(v) for v in cp["baseline"]["ks"].split()):
                with tr.span("classify.evaluate", k=k, masked=False,
                             distance_evals=test.n_samples * train.n_samples * ds.n_features):
                    report = classify.evaluate(train, test, classify.KnnConfig(k))
                report.to_csv(os.path.join(out, f"baseline_k{k}.csv"))
        with tr.span("stage.select"):
            ga = cp["ga"]
            cfg = select.GAConfig(
                population_size=ga.getint("population"), generations=ga.getint("generations"),
                crossover_prob=ga.getfloat("crossover_prob"),
                mutation_prob=ga.getfloat("mutation_prob"), alpha=ga.getfloat("alpha"),
                beta=ga.getfloat("beta"), seed=ga.getint("seed"),
                stagnation_limit=ga.getint("stagnation_limit") or None,
                elitism=ga.getint("elitism"),
            )
            with tr.span("select.run_ga"):
                ga_report = select.run_ga(train, test, cfg)
            select.write_mask(ga_report.best_mask, os.path.join(out, "mask.txt"))
            ga_report.to_csv(os.path.join(out, "ga.csv"))
            mask = ga_report.best_mask
            with tr.span("classify.evaluate", k=1, masked=True,
                         distance_evals=test.n_samples * train.n_samples * mask.n_selected):
                report = classify.evaluate(train, test, classify.KnnConfig(1), mask)
            report.to_csv(os.path.join(out, "ga_eval_k1.csv"))
        with tr.span("stage.pca"):
            with tr.span("analyze.fit_pca"):
                model = analyze.fit_pca(train, n_components=cp.getint("pca", "components"))
            rows = analyze.project(model, train)
            with tr.span("analyze.export_scatter"):
                analyze.export_scatter(rows, os.path.join(out, "pca_train.csv"),
                                       svg_path=os.path.join(out, "pca_train.svg"))
    return spec, recipe, ds, train, cfg, ga_report


def same_bytes(a: str, b: str) -> bool:
    with open(a, "rb") as fa, open(b, "rb") as fb:
        return fa.read() == fb.read()


def run(workload: str, seed: int, state: str) -> dict:
    tr = Tracer()
    checks: list[tuple[str, bool]] = []
    cfg_path, _ = workloads.write_pipeline_inputs(seed)
    images = workloads.write_tool_inputs(seed)[0]

    t0 = time.perf_counter()
    code = cli.main(["--quiet", "pipeline", "--config", cfg_path, "--out", "untraced"])
    untraced_wall = time.perf_counter() - t0
    checks.append(("untraced pipeline exits 0", code == 0))

    spec, recipe, ds, train, ga_cfg, ga_report = replay_pipeline(tr, cfg_path, "replay")
    for name in REPLAY_FILES:
        checks.append((f"replay {name}", same_bytes(f"replay/{name}", f"untraced/{name}")))
    checks.append(("replay corpus", oracle.tree_digest("replay/corpus")
                   == oracle.tree_digest("untraced/corpus")))

    with tr.span("features.extract_corpus", threads=2):
        ds2 = features.extract_corpus("replay/corpus", recipe, threads=2)
    checks.append(("two-thread extract", np.array_equal(ds2.matrix, ds.matrix)))

    # corpus-image layers on the first images of each class
    entries = synthkit.read_manifest("replay/corpus/manifest.csv")
    for ci, texture in enumerate(spec.classes):
        members = [e for e in entries if e.label == texture.class_label]
        for si, e in enumerate(members[:workloads.IMAGES_PER_CLASS]):
            with tr.span("corpus-image"):
                with tr.span("synthkit.generate_texture"):
                    tex = synthkit.generate_texture(texture, spec.image_size,
                                                    np.random.SeedSequence([seed, ci, si]))
                with tr.span("imagecore.read_ppm"):
                    img = imagecore.read_ppm(os.path.join("replay/corpus", e.path))
                with tr.span("imagecore.intensity"):
                    imagecore.intensity(img)
                with tr.span("imagecore.to_hls"):
                    imagecore.to_hls(img)
                with tr.span("features.extract"):
                    vec = features.extract(recipe, img)
            checks.append((f"texture {e.sample_id}", tex == img))
            row = ds.matrix[ds.sample_ids.index(e.sample_id)]
            checks.append((f"extract {e.sample_id}", np.array_equal(vec, row)))

    # image-tools layers
    os.makedirs("tools-out")
    hex1 = morphology.StructuringElement("hexagon", 1)
    square = morphology.StructuringElement("square", workloads.MORPH_SIZE)
    diamond = morphology.StructuringElement("diamond", workloads.MORPH_SIZE)
    for path, pixels in images:
        o = os.path.join("tools-out", os.path.splitext(os.path.basename(path))[0])
        with tr.span("image-tools"):
            with tr.span("imagecore.read_pgm"):
                g = imagecore.read_pgm(path)
            with tr.span("granulometry.granulometry_openings"):
                c_open = granulometry.granulometry_openings(g, "hex", workloads.GRANULO_RMAX)
            with tr.span("granulometry.granulometry_closings"):
                c_close = granulometry.granulometry_closings(g, "hex", workloads.GRANULO_RMAX)
            with tr.span("granulometry.size_intensity"):
                si = granulometry.size_intensity(g, "hex", workloads.SI_RMAX)
            with tr.span("morphology.opening"):
                opened = morphology.opening(g, square)
            with tr.span("morphology.closing"):
                closed = morphology.closing(g, diamond)
            for obj, suffix in ((c_open, ".open.csv"), (c_close, ".close.csv"), (si, ".si.csv")):
                granulometry.export_curve(obj, o + suffix)
            for obj, suffix in ((opened, ".open.pgm"), (closed, ".close.pgm")):
                with tr.span("imagecore.write_pgm"):
                    imagecore.write_pgm(obj, o + suffix)
        for suffix in (".open.csv", ".close.csv", ".si.csv", ".open.pgm", ".close.pgm"):
            checks.append((f"{o}{suffix}", workloads.tool_output_ok(o + suffix, pixels)))
    grey0 = imagecore.read_pgm(images[0][0])
    for _ in range(UNIT_STEP_REPS):
        with tr.span("morphology.erode", size=1):
            morphology.erode(grey0, hex1)

    # knn-sweep layers: fresh splits of the seed's dataset
    rng = np.random.default_rng(seed)
    fraction = workloads.TEST_COUNT / ds.n_samples
    n_classes = len(set(ds.labels))
    for i in range(KNN_ROUNDS):
        with tr.span("knn-sweep"):
            with tr.span("features.split"):
                split = features.split(ds, fraction, workloads.SPLIT_SEED + i)
            tr_set, te_set = split.train, split.test
            for kind, masked in workloads.KNN_KINDS:
                mask = workloads.random_mask(rng, ds.n_features) if masked else None
                nsel = mask.n_selected if mask else ds.n_features
                if kind == "template":
                    with tr.span("classify.evaluate_template", masked=masked,
                                 distance_evals=te_set.n_samples * n_classes * nsel):
                        report = classify.evaluate_template(tr_set, te_set, mask)
                else:
                    with tr.span("classify.evaluate", k=kind, masked=masked,
                                 distance_evals=te_set.n_samples * tr_set.n_samples * nsel):
                        report = classify.evaluate(tr_set, te_set, classify.KnnConfig(kind), mask)
                predicted = [s.predicted for s in report.per_sample]
                checks.append((f"knn round {i} {kind} masked={masked}",
                               predicted == workloads.knn_reference(tr_set, te_set, kind, mask)))

    # dataset persistence and the eigensolver
    for _ in range(DATASET_IO_REPS):
        with tr.span("features.save_dataset"):
            features.save_dataset(ds, "probe.csv")
        with tr.span("features.load_dataset"):
            loaded = features.load_dataset("probe.csv")
    checks.append(("save_dataset bytes", same_bytes("probe.csv", "replay/all.csv")))
    checks.append(("load_dataset values",
                   np.array_equal(loaded.matrix, oracle.read_dataset_csv("probe.csv")[2])))
    centered = train.matrix - train.matrix.mean(axis=0)
    cov = centered.T @ centered / (train.n_samples - 1)
    with tr.span("analyze.jacobi_eigh"):
        eigenvalues, _ = analyze.jacobi_eigh(cov)
    reference = np.linalg.eigvalsh(cov)
    checks.append(("jacobi eigenvalues", bool(np.allclose(
        np.sort(eigenvalues), reference, rtol=0.0, atol=1e-9 * max(1.0, abs(reference).max())))))

    summary = oracle.read_summary("untraced/run.txt")
    objective_calls = ga_cfg.population_size * (ga_report.generations_run + 1)
    checks.append(("objective calls match the untraced run", objective_calls
                   == int(summary["ga_population"]) * (int(summary["ga_generations_run"]) + 1)))
    steps_per_image = sum(1 + r for e in recipe.extractors
                          if isinstance(e, features.OpeningGranulometry)
                          for r in range(1, e.r_last + 1))
    run_ga_s = tr.total("select.run_ga")
    metrics = {
        "synthkit.generate_corpus_s": tr.total("synthkit.generate_corpus"),
        "synthkit.texture_ms_p50": tr.p50_ms("synthkit.generate_texture"),
        "imagecore.read_ppm_ms_p50": tr.p50_ms("imagecore.read_ppm"),
        "imagecore.intensity_ms_p50": tr.p50_ms("imagecore.intensity"),
        "imagecore.to_hls_ms_p50": tr.p50_ms("imagecore.to_hls"),
        "imagecore.read_pgm_ms_p50": tr.p50_ms("imagecore.read_pgm"),
        "imagecore.write_pgm_ms_p50": tr.p50_ms("imagecore.write_pgm"),
        "morphology.unit_step_us_p50": tr.p50_ms("morphology.erode", size=1) * 1000.0,
        "morphology.opening_ms_p50": tr.p50_ms("morphology.opening"),
        "morphology.closing_ms_p50": tr.p50_ms("morphology.closing"),
        "morphology.unit_steps": ds.n_samples * steps_per_image,
        "granulometry.openings_ms_p50": tr.p50_ms("granulometry.granulometry_openings"),
        "granulometry.closings_ms_p50": tr.p50_ms("granulometry.granulometry_closings"),
        "granulometry.size_intensity_ms_p50": tr.p50_ms("granulometry.size_intensity"),
        "granulometry.size_intensity_ms_p90": 1000.0 * statistics.quantiles(
            tr.durations("granulometry.size_intensity"), n=10, method="inclusive")[8],
        "granulometry.si_columns": sum(oracle.si_columns(pixels) for _, pixels in images),
        "features.extract_ms_p50": tr.p50_ms("features.extract"),
        "features.extract_corpus_s": tr.total("features.extract_corpus", threads=1),
        "features.extract_corpus_threads2_s": tr.total("features.extract_corpus", threads=2),
        "features.save_dataset_ms": tr.p50_ms("features.save_dataset"),
        "features.load_dataset_ms": tr.p50_ms("features.load_dataset"),
        "features.split_ms": tr.p50_ms("features.split"),
        "classify.evaluate_k1_ms": tr.p50_ms("classify.evaluate", k=1, masked=False),
        "classify.evaluate_k3_ms": tr.p50_ms("classify.evaluate", k=3, masked=False),
        "classify.evaluate_template_ms": tr.p50_ms("classify.evaluate_template", masked=False),
        "classify.evaluate_masked_ms": tr.p50_ms("classify.evaluate", k=1, masked=True),
        "classify.distance_evals": sum(s.get("distance_evals", 0) for s in tr.spans),
        "select.run_ga_s": run_ga_s,
        "select.generation_ms": run_ga_s * 1000.0 / (ga_report.generations_run + 1),
        "select.objective_calls": objective_calls,
        "analyze.jacobi_eigh_s": tr.total("analyze.jacobi_eigh"),
        "analyze.fit_pca_s": tr.total("analyze.fit_pca"),
        "analyze.export_scatter_ms": tr.total("analyze.export_scatter") * 1000.0,
        "cli.overhead_s": untraced_wall - sum(tr.total(s) for s in STAGES),
        "cli.bytes_written": oracle.tree_digest("untraced")[1] + oracle.tree_digest("tools-out")[1],
        "trace.overhead_s": tr.total("pipeline") - untraced_wall,
    }

    counts = {name: metrics[name] for name in COUNTS}
    recorded = os.path.join(state, f"counts-seed{seed}.json")
    if os.path.exists(recorded):
        with open(recorded, encoding="utf-8") as fh:
            checks.append(("computed counts repeat for this seed", json.load(fh) == counts))
    else:
        with open(recorded, "w", encoding="utf-8") as fh:
            json.dump(counts, fh)
    tr.write(os.path.join(state, f"spans-{workload}-seed{seed}.jsonl"))
    failed = [name for name, ok in checks if not ok]
    return {"metrics": metrics, "attempted": len(checks), "failed": len(failed),
            "info": {"failed_checks": failed[:20], "spans": len(tr.spans),
                     "untraced_wall_s": untraced_wall}}
