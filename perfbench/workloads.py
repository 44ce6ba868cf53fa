"""Workload inputs, operations and output checks; worker.py times them.

Inputs reach granulom only through its public API: corpora come from
synthkit with the workload seed, datasets from features.extract_corpus.
"""

from __future__ import annotations

import configparser
import dataclasses
import os
import re
from importlib.resources import files

import numpy as np

from granulom import classify, features, imagecore, synthkit

import oracle

DEFAULT_SEED = 12957  # the shipped corpus seed; split 2028 and GA 12957 come from pipeline.cfg
SPLIT_SEED = 2028  # the shipped split seed: knn-sweep's first split
TEST_COUNT = 50  # the shipped test-set size
IMAGES_PER_CLASS = 2  # image-tools: images of each class in one pass (28 images, 140 calls)
SI_RMAX, GRANULO_RMAX, MORPH_SIZE = 30, 25, 5

# sha256 of the pipeline run directory at DEFAULT_SEED (oracle.tree_digest)
DEFAULT_RUN_DIGEST = "69d98166b35c78717ea2e9e4954d8c95c393316d096e770f9ab6d120834f29fe"

# knn-sweep cycles through these (k or "template", masked?) kinds, so every
# pass holds the same number of each and the latency percentiles stay put
KNN_KINDS = ((1, False), (1, True), (3, False), (3, True),
             ("template", False), ("template", True))
KNN_PASS_OPS = 20 * len(KNN_KINDS)  # 120, so 12 operations lie beyond a pass's p90


class BenchError(Exception):
    """The workload could not be set up."""


def corpus_spec(seed: int, per_class: int | None = None) -> synthkit.CorpusSpec:
    """granite14 with the workload seed, optionally cut to its first images per class."""
    spec = synthkit.builtin_corpus_spec("granite14")
    spec = dataclasses.replace(spec, seed=seed)
    if per_class is not None:
        spec = dataclasses.replace(spec, samples_per_class=(per_class,) * len(spec.classes))
    return spec


def write_pipeline_inputs(seed: int) -> tuple[str, dict]:
    """Write corpus.cfg for the seed and pipeline.cfg (the shipped one pointing at it).

    Also returns the work in one run: corpus images, and 1-NN test queries
    asked for by the baselines, the masked check and every GA objective call
    (population x (generations + 1), cache hits included).
    """
    spec = corpus_spec(seed)
    text = synthkit.format_corpus_config(spec)
    if synthkit.parse_corpus_config(text) != spec:
        raise BenchError("granite14 does not round-trip through a written corpus config")
    with open("corpus.cfg", "w", encoding="utf-8") as fh:
        fh.write(text)
    cp = configparser.ConfigParser()
    cp.optionxform = str
    cp.read_string(files("granulom.data").joinpath("pipeline.cfg").read_text(encoding="utf-8"))
    cp["synth"]["spec"] = "corpus.cfg"
    with open("pipeline.cfg", "w", encoding="utf-8") as fh:
        cp.write(fh)
    objective_calls = cp.getint("ga", "population") * (cp.getint("ga", "generations") + 1)
    queries = cp.getint("split", "test_count") * (
        len(cp["baseline"]["ks"].split()) + 1 + objective_calls)
    return "pipeline.cfg", {"images": spec.total_samples, "queries": queries}


def write_tool_inputs(seed: int, chunks: int = 1) -> list[list[tuple[str, np.ndarray]]]:
    """Greyscale PGMs of the seed's first IMAGES_PER_CLASS * chunks images of every class.

    One list of (path, pixels) per chunk: chunk c holds images
    c * IMAGES_PER_CLASS .. (c + 1) * IMAGES_PER_CLASS - 1 of each class.
    """
    per_class = IMAGES_PER_CLASS * chunks
    entries = synthkit.generate_corpus(corpus_spec(seed, per_class), "tools-corpus")
    os.makedirs("pgm", exist_ok=True)
    out: list[list[tuple[str, np.ndarray]]] = [[] for _ in range(chunks)]
    for i, e in enumerate(entries):  # class-major, samples in order within a class
        grey = imagecore.intensity(imagecore.read_ppm(os.path.join("tools-corpus", e.path)))
        path = os.path.join("pgm", f"{e.sample_id}.pgm")
        imagecore.write_pgm(grey, path)
        out[i % per_class // IMAGES_PER_CLASS].append((path, grey.pixels))
    return out


def lot117_dataset(seed: int) -> features.Dataset:
    synthkit.generate_corpus(corpus_spec(seed), "corpus")
    return features.extract_corpus("corpus", features.builtin_recipe("lot117"))


def tool_argvs(pgm: str, out: str) -> list[tuple[str, list[str]]]:
    """The five image-tools invocations for one image: (output path, argv)."""
    name = os.path.splitext(os.path.basename(pgm))[0]
    o = os.path.join(out, name)
    calls = [
        (f"{o}.open.csv", ["granulo", "--kind", "open", "--family", "hex",
                           "--rmax", str(GRANULO_RMAX), pgm]),
        (f"{o}.close.csv", ["granulo", "--kind", "close", "--family", "hex",
                            "--rmax", str(GRANULO_RMAX), pgm]),
        (f"{o}.si.csv", ["si", "--family", "hex", "--rmax", str(SI_RMAX), pgm]),
        (f"{o}.open.pgm", ["morph", "--op", "open", "--family", "square",
                           "--size", str(MORPH_SIZE), pgm]),
        (f"{o}.close.pgm", ["morph", "--op", "close", "--family", "diamond",
                            "--size", str(MORPH_SIZE), pgm]),
    ]
    return [(path, ["--quiet", *argv, path]) for path, argv in calls]


def tool_output_ok(path: str, pixels: np.ndarray) -> bool:
    try:
        if path.endswith(".si.csv"):
            return oracle.size_intensity_ok(path, pixels, SI_RMAX)
        if path.endswith(".csv"):
            return oracle.curve_ok(path, GRANULO_RMAX)
        out = oracle.read_pgm(path)
        if out.shape != pixels.shape:
            return False
        return bool((out <= pixels).all() if path.endswith(".open.pgm") else (out >= pixels).all())
    except (OSError, ValueError, IndexError):
        return False


def random_mask(rng: np.random.Generator, n: int) -> classify.FeatureMask:
    bits = rng.random(n) < 0.5
    if not bits.any():
        bits[int(rng.integers(0, n))] = True
    return classify.FeatureMask(bits)


def knn_call(train, test, kind, mask, report_path):
    """One knn-sweep operation: the evaluate call, plus the report CSV for k-NN."""
    if kind == "template":
        return classify.evaluate_template(train, test, mask)
    report = classify.evaluate(train, test, classify.KnnConfig(kind), mask)
    report.to_csv(report_path)
    return report


def knn_reference(train, test, kind, mask) -> list[str]:
    """Reference predictions for test rows in sample-id order."""
    order = sorted(range(test.n_samples), key=lambda i: test.sample_ids[i])
    queries = test.matrix[order]
    sel = None if mask is None else np.flatnonzero(mask.bits)
    if kind == "template":
        return oracle.template_predict(train.labels, train.matrix, queries, sel)
    return oracle.knn_predict(train.sample_ids, train.labels, train.matrix, queries, kind, sel)


def pipeline_run_ok(run_dir: str) -> bool:
    """Rescore the baselines and mask.txt of a run directory with the plain scan."""
    try:
        s = oracle.read_summary(os.path.join(run_dir, "run.txt"))
        tr_ids, tr_labels, tr = oracle.read_dataset_csv(os.path.join(run_dir, "train.csv"))
        te_ids, te_labels, te = oracle.read_dataset_csv(os.path.join(run_dir, "test.csv"))
        order = sorted(range(len(te_ids)), key=lambda i: te_ids[i])
        ids = [te_ids[i] for i in order]
        truth = [te_labels[i] for i in order]

        def rescore(report: str, k: int, sel) -> int | None:
            """Reference hits, or None when the report's predictions differ."""
            pred = oracle.knn_predict(tr_ids, tr_labels, tr, te[order], k, sel)
            got = oracle.read_report_predictions(os.path.join(run_dir, report))
            return sum(map(str.__eq__, pred, truth)) if got == dict(zip(ids, pred)) else None

        ks = [int(m.group(1)) for m in map(re.compile(r"baseline_(\d+)nn_hits").fullmatch, s) if m]
        ok = bool(ks) and all(
            rescore(f"baseline_k{k}.csv", k, None) == int(s[f"baseline_{k}nn_hits"]) for k in ks
        )
        bits = oracle.read_mask_bits(os.path.join(run_dir, "mask.txt"))
        hits = rescore("ga_eval_k1.csv", 1, np.flatnonzero(bits))
        nf = int(bits.sum())
        alpha, beta = float(s["ga_alpha"]), float(s["ga_beta"])
        return bool(
            ok and hits is not None
            and s["ga_recognition_rate"] == f"{hits / len(ids):.12g}"
            and s["ga_best_fitness"] == f"{alpha * hits - beta * nf:.12g}"
            and int(s["ga_final_features"]) == nf
        )
    except (OSError, KeyError, ValueError, IndexError):
        return False
