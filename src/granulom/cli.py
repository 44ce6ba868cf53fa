"""The granulom command-line tool.

One executable, subcommand per pipeline stage, plus `pipeline` to run the
whole workflow from a config file. Exit codes: 0 success, 1 usage error,
2 data error, 3 I/O error. Diagnostics go to stderr; data goes to files
or stdout. Every random behaviour is seed-controlled and the seeds are
echoed in the outputs.
"""

from __future__ import annotations

import argparse
import configparser
import math
import os
import sys

from . import analyze, classify, features, granulometry, morphology, select, synthkit
from .csvrows import read_text, write_lines
from .errors import DataError, GranulomError
from .imagecore import read_pgm, write_pgm

__all__ = ["main", "pipeline"]


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _info(args, *parts) -> None:
    if not getattr(args, "quiet", False):
        print(*parts, file=sys.stderr)


# --- subcommand handlers ------------------------------------------------------

def _cmd_synth(args) -> int:
    spec = _resolve_corpus_spec(args.spec)
    entries = synthkit.generate_corpus(spec, args.out)
    _info(args, f"wrote {len(entries)} images and manifest.csv to {args.out}")
    return 0


def _resolve_corpus_spec(name_or_path: str) -> synthkit.CorpusSpec:
    base = name_or_path[:-4] if name_or_path.endswith(".cfg") else name_or_path
    if base in synthkit.builtin_corpus_names() and not os.path.exists(name_or_path):
        return synthkit.builtin_corpus_spec(base)
    return synthkit.load_corpus_spec(name_or_path)


def _cmd_extract(args) -> int:
    recipe = features.builtin_recipe(args.recipe)
    ds = features.extract_corpus(args.dir, recipe, threads=args.threads)
    features.save_dataset(ds, args.out)
    _info(args, f"extracted {ds.n_samples} samples x {ds.n_features} features -> {args.out}")
    return 0


def _cmd_split(args) -> int:
    ds = features.load_dataset(args.dataset)
    fraction = args.fraction
    if args.test_count is not None:
        if not 0 < args.test_count < ds.n_samples:
            raise DataError(f"test count must lie in (0, {ds.n_samples})")
        fraction = args.test_count / ds.n_samples
    if fraction is None:
        raise _UsageError("one of --fraction or --test-count is required")
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


def _load_mask(args, n_features: int) -> classify.FeatureMask | None:
    if getattr(args, "mask", None):
        mask = classify.FeatureMask.from_string(args.mask)
    elif getattr(args, "mask_file", None):
        mask = select.read_mask(args.mask_file)
    else:
        return None
    if len(mask) != n_features:
        raise DataError(f"mask length {len(mask)} != feature count {n_features}")
    return mask


def _load_pair(args, first: str, second: str):
    """Two datasets; with --normalize both are min-max scaled on the first one's ranges."""
    a, b = features.load_dataset(first), features.load_dataset(second)
    if args.normalize:
        lo, span = features.minmax_scaler(a)
        a, b = features.apply_scaler(a, lo, span), features.apply_scaler(b, lo, span)
    return a, b


def _cmd_knn(args) -> int:
    train, test = _load_pair(args, args.train, args.test)
    mask = _load_mask(args, train.n_features)
    if args.template:
        report = classify.evaluate_template(train, test, mask)
    else:
        report = classify.evaluate(train, test, classify.KnnConfig(args.k), mask)
    if args.report:
        report.to_csv(args.report)
    print(f"hits = {report.hits}")
    print(f"total = {report.total}")
    print(f"recognition_rate = {report.recognition_rate:.12g}")
    return 0


def _cmd_select(args) -> int:
    train, eval_set = _load_pair(args, args.train, args.eval)
    cfg = select.GAConfig(
        population_size=args.pop,
        generations=args.gens,
        crossover_prob=args.pc,
        mutation_prob=args.pm,
        alpha=args.alpha,
        beta=args.beta,
        seed=args.seed,
        stagnation_limit=args.stagnation if args.stagnation else None,
        elitism=args.elitism,
        enforce_weight_sum=not args.no_weight_check,
    )
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
    pipeline(args.config, args.out, threads=args.threads, quiet=args.quiet)
    return 0


# --- the pipeline -------------------------------------------------------------

def _run_stage(name: str, fn, quiet: bool):
    if not quiet:
        print(f"[{name}]", file=sys.stderr)
    try:
        return fn()
    except OSError as exc:
        raise OSError(f"stage {name}: {exc}") from exc
    except GranulomError as exc:
        raise DataError(f"stage {name}: {exc}") from exc


def _count(text: str) -> int:
    if int(text) < 0:
        raise ValueError(text)
    return int(text)


def _finite(text: str) -> float:
    if not math.isfinite(float(text)):
        raise ValueError(text)
    return float(text)


def _pipeline_config(path) -> configparser.ConfigParser:
    cp = configparser.ConfigParser(
        inline_comment_prefixes=(";", "#"),
        converters={"ints": lambda text: [int(k) for k in text.split()],
                    "count": _count, "finite": _finite},
    )
    cp.optionxform = str
    try:
        cp.read_string(read_text(path), source=os.fspath(path))
    except configparser.Error as exc:
        raise DataError(f"pipeline config: {' '.join(str(exc).split())}") from None
    return cp


_KIND_NAMES = {"": "text", "count": "a non-negative integer", "finite": "a finite number",
               "boolean": "a boolean", "ints": "integers separated by spaces"}


def _setting(cp: configparser.ConfigParser, section: str, key: str, kind: str, fallback):
    """cp.get<kind>(section, key); a malformed value is a DataError naming both."""
    try:
        return getattr(cp, f"get{kind}")(section, key, fallback=fallback)
    except (ValueError, configparser.Error):
        text = cp.get(section, key, raw=True)
        raise DataError(f"pipeline config [{section}] {key} = {text!r}: "
                        f"expected {_KIND_NAMES[kind]}") from None


def pipeline(config_path, out_dir, threads: int = 1, quiet: bool = False) -> None:
    """Run synth -> extract -> split -> baseline -> GA -> PCA, writing a run dir.

    Every config value is read and checked before the first stage runs.
    """
    cp = _pipeline_config(config_path)
    spec_name = _setting(cp, "synth", "spec", "", "granite14")
    corpus_spec = _resolve_corpus_spec(spec_name)
    recipe_name = _setting(cp, "extract", "recipe", "", "lot117")
    split_seed = _setting(cp, "split", "seed", "count", 2028)
    test_count = _setting(cp, "split", "test_count", "count", None)
    test_fraction = _setting(cp, "split", "test_fraction", "finite", 50 / 237)
    ks = _setting(cp, "baseline", "ks", "ints", [1, 3])
    ga_enabled = _setting(cp, "ga", "enabled", "boolean", True)
    ga_settings = dict(
        population_size=_setting(cp, "ga", "population", "count", 50),
        generations=_setting(cp, "ga", "generations", "count", 814),
        crossover_prob=_setting(cp, "ga", "crossover_prob", "finite", 1.0),
        mutation_prob=_setting(cp, "ga", "mutation_prob", "finite", 0.9),
        alpha=_setting(cp, "ga", "alpha", "finite", 0.6),
        beta=_setting(cp, "ga", "beta", "finite", 0.4),
        seed=_setting(cp, "ga", "seed", "count", 12957),
        stagnation_limit=_setting(cp, "ga", "stagnation_limit", "count", 0) or None,
        elitism=_setting(cp, "ga", "elitism", "count", 1),
        enforce_weight_sum=_setting(cp, "ga", "enforce_weight_sum", "boolean", True),
    )
    pca_enabled = _setting(cp, "pca", "enabled", "boolean", True)
    n_comp = _setting(cp, "pca", "components", "count", 2)
    try:
        recipe = features.builtin_recipe(recipe_name)
        knn_configs = [classify.KnnConfig(k) for k in ks]
        cfg = select.GAConfig(**ga_settings) if ga_enabled else None
    except GranulomError as exc:
        raise DataError(f"pipeline config: {exc}") from None

    os.makedirs(out_dir, exist_ok=True)
    summary: list[tuple[str, object]] = []
    corpus_dir = os.path.join(out_dir, "corpus")
    _run_stage("synth", lambda: synthkit.generate_corpus(corpus_spec, corpus_dir), quiet)
    summary += [
        ("corpus_spec", spec_name),
        ("corpus_seed", corpus_spec.seed),
        ("corpus_classes", len(corpus_spec.classes)),
        ("corpus_samples", corpus_spec.total_samples),
        ("image_size", corpus_spec.image_size),
    ]

    ds = _run_stage(
        "extract", lambda: features.extract_corpus(corpus_dir, recipe, threads=threads), quiet
    )
    _run_stage("extract", lambda: features.save_dataset(ds, os.path.join(out_dir, "all.csv")),
               quiet)
    summary += [("recipe", recipe_name), ("n_original_features", recipe.total_features)]

    fraction = test_fraction if test_count is None else test_count / ds.n_samples
    result = _run_stage("split", lambda: features.split(ds, fraction, split_seed), quiet)
    train, test = result.train, result.test
    for name, part in (("train", train), ("test", test)):
        path = os.path.join(out_dir, f"{name}.csv")
        _run_stage("split", lambda: features.save_dataset(part, path), quiet)
    summary += [
        ("split_seed", split_seed),
        ("train_samples", train.n_samples),
        ("test_samples", test.n_samples),
        ("stratified", result.stratified),
    ]

    for knn in knn_configs:
        k = knn.k
        rep = _run_stage(f"baseline-{k}nn", lambda knn=knn: classify.evaluate(train, test, knn),
                         quiet)
        rep.to_csv(os.path.join(out_dir, f"baseline_k{k}.csv"))
        summary += [
            (f"baseline_{k}nn_hits", rep.hits),
            (f"baseline_{k}nn_rate", f"{rep.recognition_rate:.12g}"),
        ]

    if cfg is not None:
        ga_report = _run_stage("select", lambda: select.run_ga(train, test, cfg), quiet)
        select.write_mask(ga_report.best_mask, os.path.join(out_dir, "mask.txt"))
        ga_report.to_csv(os.path.join(out_dir, "ga.csv"))
        masked_rep = _run_stage(
            "select-eval",
            lambda: classify.evaluate(train, test, classify.KnnConfig(1), ga_report.best_mask),
            quiet,
        )
        masked_rep.to_csv(os.path.join(out_dir, "ga_eval_k1.csv"))
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
            ("ga_selected_features",
             " ".join(str(i) for i in ga_report.selected_features)),
            ("ga_recognition_rate", f"{masked_rep.recognition_rate:.12g}"),
        ]
        selected = ga_report.selected_features
        if 2 <= len(selected) <= 6:
            for a in range(len(selected)):
                for b in range(a + 1, len(selected)):
                    i, j = selected[a], selected[b]
                    rows = analyze.feature_pair_rows(train, i, j)
                    analyze.export_scatter(
                        rows,
                        os.path.join(out_dir, f"scatter_f{i}_f{j}.csv"),
                        svg_path=os.path.join(out_dir, f"scatter_f{i}_f{j}.svg"),
                    )

    if pca_enabled:
        model = _run_stage("pca", lambda: analyze.fit_pca(train, n_components=n_comp), quiet)
        rows = analyze.project(model, train)
        analyze.export_scatter(
            rows,
            os.path.join(out_dir, "pca_train.csv"),
            svg_path=os.path.join(out_dir, "pca_train.svg"),
        )
        summary += [
            ("pca_components", n_comp),
            ("pca_eigenvalues", " ".join(f"{v:.12g}" for v in model.eigenvalues)),
        ]

    write_lines(os.path.join(out_dir, "run.txt"), [f"{key} = {value}" for key, value in summary])
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

    def add_parser(name, **kwargs):
        return sub.add_parser(name, parents=[shared], **kwargs)

    p = add_parser("synth", help="generate a synthetic texture corpus")
    p.add_argument("--spec", required=True, help="builtin name (granite14) or config path")
    p.add_argument("--out", required=True, help="output corpus directory")
    p.set_defaults(func=_cmd_synth)

    p = add_parser("extract", help="extract a feature dataset from a corpus")
    p.add_argument("--recipe", default="lot117", help="rgb27 or lot117")
    p.add_argument("--dir", required=True, help="corpus directory (with manifest.csv)")
    p.add_argument("--out", required=True, help="output dataset CSV")
    p.add_argument("--threads", type=int, default=1,
                   help="worker threads, each taking whole chunks of the image batch; "
                        "never changes output bytes")
    p.set_defaults(func=_cmd_extract)

    p = add_parser("split", help="stratified train/test split of a dataset")
    p.add_argument("--dataset", required=True)
    p.add_argument("--train-out", required=True)
    p.add_argument("--test-out", required=True)
    p.add_argument("--fraction", type=float, default=None, help="test fraction in (0,1)")
    p.add_argument("--test-count", type=int, default=None, help="absolute test-set size")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_split)

    p = add_parser("morph", help="apply a morphological operator to a PGM image")
    p.add_argument("--op", required=True, choices=("erode", "dilate", "open", "close"))
    p.add_argument("--family", default="hex", help="hex, square or diamond")
    p.add_argument("--size", type=int, required=True)
    p.add_argument("input")
    p.add_argument("output")
    p.set_defaults(func=_cmd_morph)

    p = add_parser("granulo", help="granulometric curve of a PGM image")
    p.add_argument("--kind", default="open", choices=("open", "close"))
    p.add_argument("--family", default="hex")
    p.add_argument("--rmax", type=int, default=30)
    p.add_argument("input")
    p.add_argument("output")
    p.set_defaults(func=_cmd_granulo)

    p = add_parser("si", help="size-intensity diagram of a PGM image")
    p.add_argument("--family", default="hex")
    p.add_argument("--rmax", type=int, default=30)
    p.add_argument("--kmax", type=int, default=255)
    p.add_argument("--kstep", type=int, default=1)
    p.add_argument("input")
    p.add_argument("output")
    p.set_defaults(func=_cmd_si)

    p = add_parser("knn", help="evaluate a k-NN (or template) classifier")
    p.add_argument("--train", required=True)
    p.add_argument("--test", required=True)
    p.add_argument("--k", type=int, default=1)
    p.add_argument("--mask", default=None, help="inline 0/1 mask string")
    p.add_argument("--mask-file", default=None, help="mask file (single 0/1 line)")
    p.add_argument("--template", action="store_true",
                   help="minimum-distance-to-class-mean instead of k-NN")
    p.add_argument("--normalize", action="store_true",
                   help="min-max scale features using training-set ranges")
    p.add_argument("--report", default=None, help="per-sample report CSV")
    p.set_defaults(func=_cmd_knn)

    p = add_parser("select", help="GA feature selection over a train/eval pair")
    p.add_argument("--train", required=True)
    p.add_argument("--eval", required=True,
                   help="evaluation set scored by the fitness (watch for leakage)")
    p.add_argument("--pop", type=int, default=50)
    p.add_argument("--gens", type=int, default=814)
    p.add_argument("--pc", type=float, default=1.0)
    p.add_argument("--pm", type=float, default=0.9)
    p.add_argument("--alpha", type=float, default=0.6)
    p.add_argument("--beta", type=float, default=0.4)
    p.add_argument("--seed", type=int, default=12957)
    p.add_argument("--stagnation", type=int, default=0, help="0 disables the stagnation stop")
    p.add_argument("--elitism", type=int, default=1)
    p.add_argument("--no-weight-check", action="store_true",
                   help="allow alpha + beta != 1")
    p.add_argument("--normalize", action="store_true")
    p.add_argument("--out", default=None, help="best mask file")
    p.add_argument("--report", default=None, help="per-generation fitness CSV")
    p.set_defaults(func=_cmd_select)

    p = add_parser("pca", help="project a dataset on its first principal components")
    p.add_argument("--dataset", required=True)
    p.add_argument("--components", type=int, default=2)
    p.add_argument("--correlation", action="store_true",
                   help="decompose the correlation matrix instead of the covariance")
    p.add_argument("--out", required=True)
    p.add_argument("--svg", default=None)
    p.set_defaults(func=_cmd_pca)

    p = add_parser("scatter", help="scatter data for a pair of raw features")
    p.add_argument("--dataset", required=True)
    p.add_argument("--features", required=True, help="two 1-based indices, e.g. 70,112")
    p.add_argument("--out", required=True)
    p.add_argument("--svg", default=None)
    p.set_defaults(func=_cmd_scatter)

    p = add_parser("recipe", help="print a recipe's 1-based feature index map")
    p.add_argument("--name", required=True)
    p.set_defaults(func=_cmd_recipe)

    p = add_parser("pipeline", help="run the full workflow from a config file")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True, help="run directory")
    p.add_argument("--threads", type=int, default=1,
                   help="extraction worker threads, each taking whole chunks of the image "
                        "batch; never changes output bytes")
    p.set_defaults(func=_cmd_pipeline)

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
    except GranulomError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
