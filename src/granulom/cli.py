"""The granulom command-line tool.

One executable, subcommand per pipeline stage, plus `pipeline` to run the
whole workflow from a config file. Exit codes: 0 success, 1 usage error
(_UsageError), 2 data error (DataError), 3 I/O error (OSError); each is
one line on stderr. Diagnostics go to stderr; data goes to files or
stdout. Every random behaviour is seed-controlled and the seeds are echoed
in the outputs.

`pipeline` runs one `_stage` block per stage (synth, extract, split,
baseline-<k>nn, select, select-eval, pca): it prints `[<name>]` once,
writes the stage's artefacts, and prefixes any error with `stage <name>: `.
The `select` flags and `[ga]` keys are one table with every GAConfig field,
each defaulting to that field's GAConfig default. A pipeline run first
removes the files an earlier run left in its directory.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import glob
import itertools
import os
import sys

from . import analyze, classify, features, granulometry, morphology, select, synthkit
from .csvrows import (checked, config_error, parse_config, read_text, reject_unread, setting,
                      write_lines)
from .errors import DataError
from .imagecore import read_pgm, write_pgm

__all__ = ["main", "pipeline"]


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)

    def parse_known_args(self, args=None, namespace=None):
        # argparse reports missing required arguments before unrecognized ones;
        # a mistyped flag is the likelier mistake, so name it first.
        try:
            return super().parse_known_args(args, namespace)
        except _UsageError as exc:
            if "required" not in str(exc):
                raise
            groups = self._mutually_exclusive_groups
            required = [x for x in (*self._actions, *groups) if x.required]
            for x in required:
                x.required = False
            try:
                _, extras = super().parse_known_args(args, namespace)
            finally:
                for x in required:
                    x.required = True
            if extras:
                raise _UsageError(f"unrecognized arguments: {' '.join(extras)}") from None
            raise


def _info(args, *parts) -> None:
    if not getattr(args, "quiet", False):
        print(*parts, file=sys.stderr)


# --- subcommand handlers ------------------------------------------------------

def _cmd_synth(args) -> int:
    spec = synthkit.load_corpus_spec(args.spec)
    entries = synthkit.generate_corpus(spec, args.out)
    _info(args, f"wrote {len(entries)} images and manifest.csv to {args.out}")
    return 0


def _cmd_extract(args) -> int:
    recipe = features.builtin_recipe(args.recipe)
    ds = features.extract_corpus(args.dir, recipe)
    features.save_dataset(ds, args.out)
    _info(args, f"extracted {ds.n_samples} samples x {ds.n_features} features -> {args.out}")
    return 0


def _cmd_split(args) -> int:
    ds = features.load_dataset(args.dataset)
    fraction = args.fraction
    if args.test_count is not None:
        fraction = features.holdout_fraction(args.test_count, ds.n_samples)
    result = features.split(ds, fraction, args.seed)
    if not result.stratified:
        _info(args, "warning: a class was too small to stratify; global sampling used")
    features.save_dataset(result.train, args.train_out)
    features.save_dataset(result.test, args.test_out)
    _info(args, f"split {ds.n_samples} -> train {result.train.n_samples}, "
                f"test {result.test.n_samples} (seed {args.seed})")
    return 0


def _cmd_morph(args) -> int:
    img = read_pgm(args.input)
    se = morphology.StructuringElement(args.family, args.size)
    op = {
        "erode": morphology.erode,
        "dilate": morphology.dilate,
        "open": morphology.opening,
        "close": morphology.closing,
    }[args.op]
    write_pgm(op(img, se), args.output)
    return 0


def _cmd_granulo(args) -> int:
    img = read_pgm(args.input)
    fn = granulometry.granulometry_openings if args.kind == "open" \
        else granulometry.granulometry_closings
    curve = fn(img, args.family, args.rmax)
    granulometry.export_curve(curve, args.output)
    return 0


def _cmd_si(args) -> int:
    img = read_pgm(args.input)
    diagram = granulometry.size_intensity(img, args.family, args.rmax, args.kmax, args.kstep)
    granulometry.export_curve(diagram, args.output)
    return 0


# GAConfig field -> (select flag, [ga] key of a pipeline config, kind); both default
# to the field's GAConfig default
_GA_SETTINGS = {
    "population_size": ("--pop", "population", "count"),
    "generations": ("--gens", "generations", "count"),
    "crossover_prob": ("--pc", "crossover_prob", "number"),
    "mutation_prob": ("--pm", "mutation_prob", "number"),
    "alpha": ("--alpha", "alpha", "number"),
    "beta": ("--beta", "beta", "number"),
    "seed": ("--seed", "seed", "count"),
    "stagnation_limit": ("--stagnation", "stagnation_limit", "count"),  # 0: no stop
    "elitism": ("--elitism", "elitism", "count"),
}
_GA_DEFAULTS = {field.name: field.default for field in dataclasses.fields(select.GAConfig)}


def _load_pair(args, first: str, second: str):
    """Two datasets; with --normalize both are min-max scaled on the first one's ranges."""
    a, b = features.load_dataset(first), features.load_dataset(second)
    if args.normalize:
        lo, span = features.minmax_scaler(a)
        a, b = features.apply_scaler(a, lo, span), features.apply_scaler(b, lo, span)
    return a, b


def _cmd_knn(args) -> int:
    train, test = _load_pair(args, args.train, args.test)
    if args.mask is not None:
        mask = classify.FeatureMask.from_string(args.mask)
    else:
        mask = select.read_mask(args.mask_file) if args.mask_file else None
    if args.template:
        report = classify.evaluate_template(train, test, mask)
    else:
        k = 1 if args.k is None else args.k
        report = classify.evaluate(train, test, classify.KnnConfig(k), mask)
    if args.report:
        report.to_csv(args.report)
    print(f"hits = {report.hits}")
    print(f"total = {report.total}")
    print(f"recognition_rate = {report.recognition_rate:.12g}")
    return 0


def _cmd_select(args) -> int:
    train, eval_set = _load_pair(args, args.train, args.eval)
    cfg = select.GAConfig(**{field: getattr(args, field) for field in _GA_SETTINGS})
    report = select.run_ga(train, eval_set, cfg)
    if args.out:
        select.write_mask(report.best_mask, args.out)
    if args.report:
        report.to_csv(args.report)
    print(f"generations_run = {report.generations_run}")
    print(f"stop_reason = {report.stop_reason}")
    print(f"best_fitness = {report.best_fitness:.12g}")
    print(f"hits = {report.best_hits}")
    print(f"recognition_rate = {report.final_recognition_rate:.12g}")
    print(f"n_features = {report.best_mask.n_selected}")
    print(f"selected_features = {' '.join(str(i) for i in report.selected_features)}")
    return 0


def _cmd_pca(args) -> int:
    ds = features.load_dataset(args.dataset)
    model = analyze.fit_pca(ds, n_components=args.components, correlation=args.correlation)
    rows = analyze.project(model, ds)
    analyze.export_scatter(rows, args.out, svg_path=args.svg)
    _info(args, f"eigenvalues: {' '.join(f'{v:.6g}' for v in model.eigenvalues)}")
    return 0


def _cmd_scatter(args) -> int:
    ds = features.load_dataset(args.dataset)
    try:
        i_txt, j_txt = args.features.split(",")
        i, j = int(i_txt), int(j_txt)
    except ValueError:
        raise _UsageError("--features wants two 1-based indices, e.g. 70,112") from None
    rows = analyze.feature_pair_rows(ds, i, j)
    analyze.export_scatter(rows, args.out, svg_path=args.svg)
    return 0


def _cmd_recipe(args) -> int:
    recipe = features.builtin_recipe(args.name)
    print(f"recipe = {recipe.name}")
    print(f"total_features = {recipe.total_features}")
    for idx, name in enumerate(recipe.feature_names(), start=1):
        print(f"{idx}\t{name}")
    return 0


def _cmd_pipeline(args) -> int:
    pipeline(args.config, args.out, quiet=args.quiet)
    return 0


# --- the pipeline -------------------------------------------------------------

@contextlib.contextmanager
def _stage(name: str, quiet: bool):
    """One pipeline stage: its header, and its errors prefixed with `stage <name>: `."""
    if not quiet:
        print(f"[{name}]", file=sys.stderr)
    try:
        yield
    except OSError as exc:
        raise OSError(f"stage {name}: {exc}") from exc
    except DataError as exc:
        raise DataError(f"stage {name}: {exc}") from exc


# every file `pipeline` writes, as glob patterns relative to the run directory
_RUN_ARTEFACTS = ("run.txt", "all.csv", "train.csv", "test.csv", "baseline_k*.csv", "mask.txt",
                  "ga.csv", "ga_eval_k1.csv", "scatter_f*_f*.csv", "scatter_f*_f*.svg",
                  "pca_train.csv", "pca_train.svg", "corpus/manifest.csv", "corpus/*.ppm")


def pipeline(config_path, out_dir, quiet: bool = False) -> None:
    """Run synth -> extract -> split -> baseline -> GA -> PCA, writing a run dir.

    Every config value is read and checked before the first stage runs:
    its kind, an unknown section or key, and each range that the corpus
    size, the split's test size or the recipe's feature count bounds.
    Extraction runs on the calling thread; `features.extract_corpus` keeps
    its `threads` keyword only for perfbench's equality probe.
    """
    cp = parse_config(read_text(config_path), "pipeline", config_path)
    spec_name = setting(cp, "synth", "spec", "text", "granite14")
    recipe_name = setting(cp, "extract", "recipe", "text", "lot117")
    split_seed = setting(cp, "split", "seed", "count", 2028)
    test_count = setting(cp, "split", "test_count", "count", None)
    test_fraction = setting(cp, "split", "test_fraction", "number", 50 / 237)
    ks = setting(cp, "baseline", "ks", "counts", (1, 3))
    ga_enabled = setting(cp, "ga", "enabled", "boolean", True)
    ga_settings = {field: setting(cp, "ga", key, kind, _GA_DEFAULTS[field])
                   for field, (_, key, kind) in _GA_SETTINGS.items()}
    pca_enabled = setting(cp, "pca", "enabled", "boolean", True)
    n_comp = setting(cp, "pca", "components", "count", 2)
    reject_unread(cp)
    if test_count is not None and cp.has_option("split", "test_fraction"):
        raise config_error(cp, "split", "test_count", "test_fraction is set too; set only one")
    if len(set(ks)) != len(ks):
        raise config_error(cp, "baseline", "ks", "each k may appear only once")

    corpus_spec = synthkit.load_corpus_spec(spec_name)
    recipe = checked(cp, "extract", "recipe", features.builtin_recipe, recipe_name)
    n_samples = corpus_spec.total_samples
    split_key = "test_fraction" if test_count is None else "test_count"
    fraction = test_fraction if test_count is None else checked(
        cp, "split", split_key, features.holdout_fraction, test_count, n_samples)
    labels = [c.class_label for c, count in zip(corpus_spec.classes, corpus_spec.samples_per_class)
              for _ in range(count)]
    test_rows, _ = checked(cp, "split", split_key, features.holdout_rows, labels, fraction,
                           split_seed)
    n_train = n_samples - len(test_rows)
    knn_configs = [checked(cp, "baseline", "ks", classify.KnnConfig, k) for k in ks]
    for k in ks:
        checked(cp, "baseline", "ks", classify.check_k, k, n_train)
    cfg = checked(cp, "ga", None, select.GAConfig, **ga_settings) if ga_enabled else None
    if pca_enabled:  # the stage projects onto the first two components
        checked(cp, "pca", "components", analyze.check_components, n_comp, n_train,
                recipe.total_features)

    os.makedirs(out_dir, exist_ok=True)
    for pattern in _RUN_ARTEFACTS:  # a rerun into the directory leaves only its own files
        for path in glob.glob(os.path.join(glob.escape(out_dir), pattern)):
            if os.path.isfile(path):
                os.remove(path)

    def out(name: str) -> str:
        return os.path.join(out_dir, name)

    with _stage("synth", quiet):
        synthkit.generate_corpus(corpus_spec, out("corpus"))
    summary: list[tuple[str, object]] = [
        ("corpus_spec", spec_name),
        ("corpus_seed", corpus_spec.seed),
        ("corpus_classes", len(corpus_spec.classes)),
        ("corpus_samples", n_samples),
        ("image_size", corpus_spec.image_size),
    ]

    with _stage("extract", quiet):
        ds = features.extract_corpus(out("corpus"), recipe)
        features.save_dataset(ds, out("all.csv"))
    summary += [("recipe", recipe_name), ("n_original_features", recipe.total_features)]

    with _stage("split", quiet):
        result = features.split(ds, fraction, split_seed)
        train, test = result.train, result.test
        features.save_dataset(train, out("train.csv"))
        features.save_dataset(test, out("test.csv"))
    summary += [
        ("split_seed", split_seed),
        ("train_samples", train.n_samples),
        ("test_samples", test.n_samples),
        ("stratified", result.stratified),
    ]

    for knn in knn_configs:
        with _stage(f"baseline-{knn.k}nn", quiet):
            rep = classify.evaluate(train, test, knn)
            rep.to_csv(out(f"baseline_k{knn.k}.csv"))
        summary += [
            (f"baseline_{knn.k}nn_hits", rep.hits),
            (f"baseline_{knn.k}nn_rate", f"{rep.recognition_rate:.12g}"),
        ]

    if cfg is not None:
        with _stage("select", quiet):
            ga_report = select.run_ga(train, test, cfg)
            select.write_mask(ga_report.best_mask, out("mask.txt"))
            ga_report.to_csv(out("ga.csv"))
            selected = ga_report.selected_features
            if 2 <= len(selected) <= 6:
                for i, j in itertools.combinations(selected, 2):
                    analyze.export_scatter(analyze.feature_pair_rows(train, i, j),
                                           out(f"scatter_f{i}_f{j}.csv"),
                                           svg_path=out(f"scatter_f{i}_f{j}.svg"))
        with _stage("select-eval", quiet):
            masked_rep = classify.evaluate(train, test, classify.KnnConfig(1), ga_report.best_mask)
            masked_rep.to_csv(out("ga_eval_k1.csv"))
        summary += [
            ("ga_population", cfg.population_size),
            ("ga_generations_max", cfg.generations),
            ("ga_generations_run", ga_report.generations_run),
            ("ga_stop_reason", ga_report.stop_reason),
            ("ga_crossover_prob", cfg.crossover_prob),
            ("ga_mutation_prob", cfg.mutation_prob),
            ("ga_alpha", cfg.alpha),
            ("ga_beta", cfg.beta),
            ("ga_seed", cfg.seed),
            ("ga_best_fitness", f"{ga_report.best_fitness:.12g}"),
            ("ga_final_features", ga_report.best_mask.n_selected),
            ("ga_selected_features", " ".join(str(i) for i in selected)),
            ("ga_recognition_rate", f"{masked_rep.recognition_rate:.12g}"),
        ]

    if pca_enabled:
        with _stage("pca", quiet):
            model = analyze.fit_pca(train, n_components=n_comp)
            analyze.export_scatter(analyze.project(model, train), out("pca_train.csv"),
                                   svg_path=out("pca_train.svg"))
        summary += [
            ("pca_components", n_comp),
            ("pca_eigenvalues", " ".join(f"{v:.12g}" for v in model.eigenvalues)),
        ]

    write_lines(out("run.txt"), [f"{key} = {value}" for key, value in summary])
    if not quiet:
        print(f"run directory complete: {out_dir}", file=sys.stderr)


# --- parser -------------------------------------------------------------------

def build_parser() -> _Parser:
    parser = _Parser(prog="granulom", description=__doc__.splitlines()[0])
    parser.add_argument("--quiet", action="store_true", help="suppress progress messages")
    # accepted before or after the subcommand; SUPPRESS keeps the subparser
    # from clobbering a --quiet given at the top level
    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument("--quiet", action="store_true", default=argparse.SUPPRESS,
                        help="suppress progress messages")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    def add_parser(name, func, **kwargs):
        p = sub.add_parser(name, parents=[shared], **kwargs)
        p.set_defaults(func=func)
        return p

    p = add_parser("synth", _cmd_synth, help="generate a synthetic texture corpus")
    p.add_argument("--spec", required=True, help="builtin name (granite14) or config path")
    p.add_argument("--out", required=True, help="output corpus directory")

    p = add_parser("extract", _cmd_extract, help="extract a feature dataset from a corpus")
    p.add_argument("--recipe", default="lot117", help="rgb27 or lot117")
    p.add_argument("--dir", required=True, help="corpus directory (with manifest.csv)")
    p.add_argument("--out", required=True, help="output dataset CSV")

    p = add_parser("split", _cmd_split, help="stratified train/test split of a dataset")
    p.add_argument("--dataset", required=True)
    p.add_argument("--train-out", required=True)
    p.add_argument("--test-out", required=True)
    size = p.add_mutually_exclusive_group(required=True)
    size.add_argument("--fraction", type=float, help="test fraction in (0,1)")
    size.add_argument("--test-count", type=int, help="absolute test-set size")
    p.add_argument("--seed", type=int, default=0)

    p = add_parser("morph", _cmd_morph, help="apply a morphological operator to a PGM image")
    p.add_argument("--op", required=True, choices=("erode", "dilate", "open", "close"))
    p.add_argument("--family", default="hex", help="hex, square or diamond")
    p.add_argument("--size", type=int, required=True)
    p.add_argument("input")
    p.add_argument("output")

    p = add_parser("granulo", _cmd_granulo, help="granulometric curve of a PGM image")
    p.add_argument("--kind", default="open", choices=("open", "close"))
    p.add_argument("--family", default="hex")
    p.add_argument("--rmax", type=int, default=30)
    p.add_argument("input")
    p.add_argument("output")

    p = add_parser("si", _cmd_si, help="size-intensity diagram of a PGM image")
    p.add_argument("--family", default="hex")
    p.add_argument("--rmax", type=int, default=30)
    p.add_argument("--kmax", type=int, default=255)
    p.add_argument("--kstep", type=int, default=1)
    p.add_argument("input")
    p.add_argument("output")

    p = add_parser("knn", _cmd_knn, help="evaluate a k-NN (or template) classifier")
    p.add_argument("--train", required=True)
    p.add_argument("--test", required=True)
    rule = p.add_mutually_exclusive_group()
    rule.add_argument("--k", type=int, default=None, help="neighbours (default 1)")
    rule.add_argument("--template", action="store_true",
                      help="minimum-distance-to-class-mean instead of k-NN")
    mask = p.add_mutually_exclusive_group()
    mask.add_argument("--mask", default=None, help="inline 0/1 mask string")
    mask.add_argument("--mask-file", default=None, help="mask file (single 0/1 line)")
    p.add_argument("--normalize", action="store_true",
                   help="min-max scale features using training-set ranges")
    p.add_argument("--report", default=None, help="per-sample report CSV")

    p = add_parser("select", _cmd_select, help="GA feature selection over a train/eval pair")
    p.add_argument("--train", required=True)
    p.add_argument("--eval", required=True,
                   help="evaluation set scored by the fitness (watch for leakage)")
    for field, (flag, key, kind) in _GA_SETTINGS.items():
        p.add_argument(flag, dest=field, type=int if kind == "count" else float,
                       default=_GA_DEFAULTS[field], help=f"as [ga] {key} in a pipeline config")
    p.add_argument("--normalize", action="store_true")
    p.add_argument("--out", default=None, help="best mask file")
    p.add_argument("--report", default=None, help="per-generation fitness CSV")

    p = add_parser("pca", _cmd_pca, help="project a dataset on its first principal components")
    p.add_argument("--dataset", required=True)
    p.add_argument("--components", type=int, default=2)
    p.add_argument("--correlation", action="store_true",
                   help="decompose the correlation matrix instead of the covariance")
    p.add_argument("--out", required=True)
    p.add_argument("--svg", default=None)

    p = add_parser("scatter", _cmd_scatter, help="scatter data for a pair of raw features")
    p.add_argument("--dataset", required=True)
    p.add_argument("--features", required=True, help="two 1-based indices, e.g. 70,112")
    p.add_argument("--out", required=True)
    p.add_argument("--svg", default=None)

    p = add_parser("recipe", _cmd_recipe, help="print a recipe's 1-based feature index map")
    p.add_argument("--name", required=True)

    p = add_parser("pipeline", _cmd_pipeline, help="run the full workflow from a config file")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True, help="run directory")

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except SystemExit as exc:  # argparse --help exits 0
        return 0 if exc.code in (0, None) else 1
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except DataError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
