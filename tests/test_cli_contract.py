"""Contract of `granulom`: exit code 0 ok, 1 usage, 2 data, 3 I/O, one stderr line on failure.

CASES is the one list of pinned exit-code cases. Each row names its argv, the
input files it writes into a fresh working directory under relative names,
the exit code, and for a failure the single stderr line, as exact text or as
a pattern it must match from its start. A row may also give a pattern for
stdout. Every row is run twice: in-process through cli.main, and through the
installed `granulom` console script when one is on PATH (CI installs the
package and runs that half). Both runners check the same things: the code, one
stderr line and an empty stdout for a failure, and that a failing command
leaves its working directory exactly as it found it.

The fuzz tests below mutate datasets, manifests, masks, curve CSVs, corpus
configs and pipeline configs; each run must end in an exit code from
{0, 1, 2, 3} and never in an escaped exception, with one stderr line for a
non-zero code. Pipeline configs are mutated into malformed ones only, so each
run must stop before its synth stage.
"""

import dataclasses
import itertools
import re
import shlex
import shutil
import subprocess

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from granulom.cli import main
from test_cli import PIPELINE_CFG, SMALL_CORPUS_CFG, TINY_DATASET


def check_contract(code: int, err: str) -> None:
    """The contract every run keeps: a known exit code, one stderr line when it fails."""
    assert code in (0, 1, 2, 3), code
    if code:
        assert err.count("\n") == 1 and err.endswith("\n"), err


DATASET = """\
sample_id,label,f0001,f0002,f0003
a-1,a,0.1,0.9,0.5
a-2,a,0.2,0.8,0.4
a-3,a,0.15,0.85,0.45
b-1,b,0.9,0.1,0.5
b-2,b,0.8,0.2,0.6
b-3,b,0.85,0.15,0.55
"""
MANIFEST = "sample_id,label,path\na-1,a,a-1.ppm\na-2,a,a-2.ppm\nb-1,b,b-1.ppm\nb-2,b,b-2.ppm\n"
MASK = "101\n"
NARROW = "sample_id,label,f0001\na-1,a,0.1\na-2,a,0.2\nb-1,b,0.9\nb-2,b,0.8\n"
CURVE = "r,value\n0,0.0\n1,0.25\n2,0.5\n3,0.75\n"
SOURCES = {"dataset": DATASET, "narrow": NARROW, "curve": CURVE,
           "featureless": "sample_id,label\na-1,a\na-2,a\nb-1,b\nb-2,b\n"}
PPMS = {f"{sid}.ppm": b"P6\n12 12\n255\n" + pixels.astype(np.uint8).tobytes()
        for sid, pixels in zip(("a-1", "a-2", "b-1", "b-2"),
                               np.random.default_rng(4).integers(0, 256, (4, 12, 12, 3)))}


@dataclasses.dataclass(frozen=True)
class Case:
    """One pinned exit-code case; `err` is the one stderr line of a failure, as exact
    text or as a pattern it must match from its start."""

    id: str
    argv: str  # split with shlex
    code: int
    err: str | re.Pattern | None = None
    files: dict = dataclasses.field(default_factory=dict)  # relative name -> text or bytes
    out: re.Pattern | None = None  # searched for in stdout


def edit(text: str, old: str, new: str) -> str:
    assert old in text, old
    return text.replace(old, new, 1)


D = {"d.csv": TINY_DATASET}
TINY_PGM = {"tiny.pgm": "P2\n3 2\n255\n0 10 20\n30 40 50\n"}
CORPUS = {"corpus/manifest.csv": MANIFEST, **{f"corpus/{n}": b for n, b in PPMS.items()}}
PIPE = {"small.cfg": SMALL_CORPUS_CFG, "pipe.cfg": PIPELINE_CFG.format(corpus_cfg="small.cfg")}
BIG = {"big.csv": "sample_id,label,f1,f2\na-1,a,1e308,0.5\na-2,a,-1e308,0.4\n"
                  "b-1,b,0.2,0.9\nb-2,b,0.3,0.8\n"}
NORMALIZE = {"header-only.csv": "sample_id,label,f1\n",
             "tiny-span.csv": "sample_id,label,f1\np-1,a,0\np-2,b,1e-300\n",
             "far.csv": "sample_id,label,f1\nq-1,a,1e60\n"}

CORPUS_CONFIG_EDITS = [  # (old, new, message after "error: corpus config")
    ("grain_radius = 2 3", "grain_radius = 2", " [class aa] grain_radius = '2': expected 2 words "
     "separated by spaces, each a non-negative integer"),
    ("tint = 1 0.9 1", "tint = 1 0.9", " [class cc] tint = '1 0.9': expected 3 words separated "
     "by spaces, each a finite number"),
    ("background = 80", "background = x",
     " [class aa] background = 'x': expected a non-negative integer"),
    ("density = 10\n", "", " [class aa] density (not set): expected a finite number"),
    ("image_size = 32", "image_size = big",
     " [corpus] image_size = 'big': expected a non-negative integer"),
    ("grain_radius = 2 3", "grain_radius = 3 2", " [class aa]: bad grain radius range (3, 2)"),
    ("tint = 1 0.9 1", "tint = 1 2 1", " [class cc]: tint multipliers must lie in [0.5, 1.5]"),
    ("image_size = 32", "image_size = 16", " [corpus]: image_size must be >= 32"),
    ("image_size = 32", "image_size = 1000000000000",
     " [corpus]: image_size must be <= 2048, got 1000000000000"),
    ("background = 80", "background = 300",
     " [class aa]: background intensity must lie in [0, 255]"),
    ("grain_radius = 2 3", "grain_radius = 2 10000000000000000000",
     " [class aa]: grain radius maximum 10000000000000000000 exceeds 2147483647"),
    ("grain_radius = 2 3", f"grain_radius = 2 {2**62}",
     f" [class aa]: grain radius maximum {2**62} exceeds 2147483647"),
    ("grain_intensity = 200 15", "grain_intensity = 200 10000000000000000000",
     " [class aa]: grain intensity spread 10000000000000000000 exceeds 2147483647"),
    ("seed = 5", "seed = -1", " [corpus] seed = '-1': expected a non-negative integer"),
    ("density = 10", "density = nan", " [class aa] density = 'nan': expected a finite number"),
    ("density = 10", "density = inf", " [class aa] density = 'inf': expected a finite number"),
    ("density = 10", "density = 1e9", " [class aa]: grain density must lie in (0, 1000] grains "
     "per 1000 px^2, got 1000000000.0"),
    ("density = 10", "density = 1e30", " [class aa]: grain density must lie in (0, 1000] grains "
     "per 1000 px^2, got 1e+30"),
    ("density = 10", "density = 10\ndensity = 12", ": While reading from 'c.cfg' [line 11]: "
     "option 'density' in section 'class aa' already exists"),
    (SMALL_CORPUS_CFG[SMALL_CORPUS_CFG.index("[class bb]"):], "",
     " [corpus]: a corpus needs at least 2 classes"),
    ("grain_radius = 2 3", "samples = 0\ngrain_radius = 2 3",
     " [corpus]: class aa needs at least one sample"),
    ("grain_intensity = 200 15", "grain_intensity = 300 5",
     " [class aa]: bad grain intensity (300, 5)"),
]
PIPELINE_CONFIG_EDITS = [  # (old, new, message after "error: pipeline config ")
    ("population = 10", "population = lots",
     "[ga] population = 'lots': expected a non-negative integer"),
    ("ks = 1", "ks = 1 x", "[baseline] ks = '1 x': expected zero or more words separated by "
     "spaces, each a non-negative integer"),
    ("test_fraction = 0.34", "test_fraction = half",
     "[split] test_fraction = 'half': expected a finite number"),
    ("enabled = true", "enabled = maybe", "[ga] enabled = 'maybe': expected a boolean"),
    ("seed = 3", "seed = -1", "[split] seed = '-1': expected a non-negative integer"),
    ("seed = 4", "seed = -1", "[ga] seed = '-1': expected a non-negative integer"),
    ("population = 10", "alpha = nan\npopulation = 10",
     "[ga] alpha = 'nan': expected a finite number"),
    ("test_fraction = 0.34", "test_count = 0",
     "[split] test_count = '0': test count must lie in (0, 18), got 0"),
    ("test_fraction = 0.34", "test_count = 500",
     "[split] test_count = '500': test count must lie in (0, 18), got 500"),
    ("components = 2", "components = 0",
     "[pca] components = '0': n_components must lie in [2, 11], got 0"),
    ("components = 2", "components = 1",
     "[pca] components = '1': n_components must lie in [2, 11], got 1"),
    ("ks = 1", "ks = 1 50", "[baseline] ks = '1 50': k=50 exceeds training set size 12"),
    ("ks = 1", "ks = 1 1", "[baseline] ks = '1 1': each k may appear only once"),
    ("population = 10", "populaton = 10", "[ga] populaton = '10': unknown key"),
    ("population = 10", "enforce_weight_sum = true\npopulation = 10",
     "[ga] enforce_weight_sum = 'true': unknown key"),
    ("test_fraction = 0.34", "test_count = 6\ntest_fraction = 0.34",
     "[split] test_count = '6': test_fraction is set too; set only one"),
]
KNN = "knn --train d.csv --test d.csv"
SELECT = "--quiet select --train d.csv --eval d.csv --pop 4 --gens 2"
SPLIT = "--quiet split --dataset d.csv --train-out tr.csv --test-out te.csv"
EXTRACT = "--quiet extract --dir corpus --out a.csv"
MASK_FILE = {**D, "m.txt": "11\n"}
HEADER_ONLY = {**D, "head.csv": TINY_DATASET.splitlines()[0] + "\n"}

CASES = [
    # usage
    Case("help", "--help", 0, out=re.compile("granulom")),
    Case("knn-unknown-flag", "knn --bogus", 1, "usage error: unrecognized arguments: --bogus"),
    Case("knn-missing-test", "knn --train d.csv", 1,
         "usage error: the following arguments are required: --test", D),
    Case("unknown-command", "definitely-not-a-command", 1,
         re.compile("usage error: argument command: invalid choice: 'definitely-not-a-command'")),
    Case("select-weight-override-flag", f"{SELECT} --alpha 0.6 --beta 0.6 --no-weight-check", 1,
         "usage error: unrecognized arguments: --no-weight-check", D),
    Case("split-two-sizes", f"{SPLIT} --fraction 0.5 --test-count 2", 1,
         "usage error: argument --test-count: not allowed with argument --fraction", D),
    Case("split-no-size", SPLIT, 1,
         "usage error: one of the arguments --fraction --test-count is required", D),
    Case("split-unknown-flag", f"{SPLIT} --bogus", 1,
         "usage error: unrecognized arguments: --bogus", D),
    Case("knn-mask-and-mask-file", f"{KNN} --mask 1 --mask-file m.txt", 1,
         "usage error: argument --mask-file: not allowed with argument --mask", MASK_FILE),
    Case("knn-k-mask-and-mask-file", f"--quiet {KNN} --report r.csv --k 2 --mask 10 "
         "--mask-file m.txt", 1,
         "usage error: argument --mask-file: not allowed with argument --mask", MASK_FILE),
    *[Case(f"knn-template-and-k{k}", f"--quiet {KNN} --report r.csv --template --k {k}", 1,
           "usage error: argument --k: not allowed with argument --template", D)
      for k in (3, 1)],
    # i/o
    Case("granulo-missing-input", "granulo missing.pgm out.csv", 3,
         "i/o error: [Errno 2] No such file or directory: 'missing.pgm'"),
    # images
    Case("granulo-p9-pgm", "granulo bad.pgm out.csv", 2,
         "error: bad magic b'P9', expected one of (b'P5', b'P2')", {"bad.pgm": b"P9\nnope"}),
    Case("granulo-p5-above-maxval", "granulo in.pgm out.csv", 2,
         "error: sample value 200 exceeds maxval 15",
         {"in.pgm": b"P5\n2 1\n15\n" + bytes([3, 200])}),
    Case("granulo-p2-above-maxval", "granulo in.pgm out.csv", 2,
         "error: sample value 200 exceeds maxval 15", {"in.pgm": "P2\n2 1\n15\n3 200\n"}),
    Case("granulo-p2-sample-1e20", "granulo big.pgm big.csv", 2,
         "error: sample value 99999999999999999999 exceeds maxval 15",
         {"big.pgm": "P2\n2 1\n15\n3 99999999999999999999\n"}),
    Case("granulo-pgm-maxval-65535", "granulo in.pgm out.csv", 2,
         "error: maxval 65535 exceeds 255", {"in.pgm": b"P5\n2 2\n65535\n" + bytes(8)}),
    Case("granulo-p5-short-raster", "granulo in.pgm out.csv", 2,
         "error: raster holds 3 bytes, expected 4", {"in.pgm": b"P5\n2 2\n255\n" + bytes(3)}),
    Case("granulo-p2-short-raster", "granulo in.pgm out.csv", 2,
         "error: raster holds 3 samples, expected 4", {"in.pgm": "P2\n2 2\n255\n0 1 2\n"}),
    Case("granulo-width-0", "granulo in.pgm out.csv", 2, "error: bad dimensions 0x4",
         {"in.pgm": "P2\n0 4\n255\n"}),
    Case("granulo-maxval-0", "granulo in.pgm out.csv", 2, "error: bad maxval 0",
         {"in.pgm": "P2\n2 2\n0\n0 0 0 0\n"}),
    Case("granulo-p2-comments", "granulo comment.pgm comment.csv", 0,
         files={"comment.pgm": "P2\n3 2\n255\n0 10 # a comment inside the raster\n20#glued\n"
                               "30 40 50\n"}),
    Case("granulo-close", "granulo --kind close tiny.pgm c.csv", 0, files=TINY_PGM),
    Case("morph-size-past-the-frame", "morph --op open --size 1000000000 tiny.pgm opened.pgm", 0,
         files=TINY_PGM),
    *[Case(f"{cmd}-rmax-{r}", f"{cmd} --rmax {r} tiny.pgm c.csv", 2,
           f"error: r_max must lie in [0, 4096], got {r}", TINY_PGM)
      for cmd, r in (("granulo", 1000000000), ("si", 1000000000), ("si", 4097))],
    *[Case(f"si-kmax-{k}", f"si --kmax {k} tiny.pgm s.csv", 2,
           f"error: k_max must lie in [1, 255], got {k}", TINY_PGM) for k in (0, 256)],
    Case("si-kstep-0", "si --kstep 0 tiny.pgm s.csv", 2, "error: k_step must be >= 1", TINY_PGM),
    # datasets
    Case("knn-empty-dataset", KNN.replace("d.csv", "empty.csv"), 2,
         "error: empty.csv: empty file, expected a dataset CSV", {"empty.csv": ""}),
    Case("scatter-one-feature", "scatter --dataset d.csv --features 1 --out s.csv", 1,
         "usage error: --features wants two 1-based indices, e.g. 70,112", D),
    Case("split-fraction-1.5", f"{SPLIT} --fraction 1.5", 2,
         "error: test_fraction must lie in (0, 1), got 1.5", D),
    Case("split-one-row", f"{SPLIT} --fraction 0.5", 2, "error: need at least 2 samples to split",
         {"d.csv": "sample_id,label,f0001\na-1,a,0\n"}),
    Case("select-writes-a-mask", f"{SELECT} --out m.txt", 0, files=D,
         out=re.compile(r"^generations_run = 2$", re.M)),
    Case("select-negative-generations", f"{SELECT} --gens -1", 2,
         "error: generations must be >= 0", D),
    Case("select-negative-alpha", f"{SELECT} --alpha -0.5 --beta 1.5", 2,
         "error: alpha and beta must be non-negative", D),
    Case("select-eval-of-another-width", SELECT.replace("--eval d.csv", "--eval narrow.csv"), 2,
         "error: train and eval sets must share the feature layout", {**D, "narrow.csv": NARROW}),
    *[Case(f"knn{name}-test-of-another-width", f"--quiet knn --train d.csv --test narrow.csv "
           f"--report r.csv{flag}", 2, f"error: {message}", {**D, "narrow.csv": NARROW})
      for name, flag, message in (
          ("", "", "test set has 1 features, the training set 2"),
          ("-template", " --template", "test set has 1 features, the training set 2"),
          ("-normalize", " --normalize", "dataset has 1 features, the scaler 2"))],
    Case("select-normalize-eval-of-another-width",
         SELECT.replace("--eval d.csv", "--eval narrow.csv --normalize"), 2,
         "error: dataset has 1 features, the scaler 2", {**D, "narrow.csv": NARROW}),
    Case("select-header-only-eval", SELECT.replace("--eval d.csv", "--eval head.csv"), 2,
         "error: train and eval sets must be non-empty", HEADER_ONLY),
    *[Case(f"knn-header-only-test-{name}",
           f"--quiet knn --train d.csv --test head.csv --report r.csv {rule}", 2,
           "error: empty test set", HEADER_ONLY)
      for name, rule in (("k2", "--k 2"), ("template", "--template"))],
    Case("knn-k-0", f"{KNN} --k 0", 2, "error: k must be >= 1, got 0", D),
    Case("knn-nan-dataset", f"--quiet {KNN}", 2,
         "error: d.csv: non-finite feature value nan (sample 'b', feature 'f0001')",
         {"d.csv": "sample_id,label,f0001\na,x,1.0\nb,y,nan\n"}),
    *[Case(f"{name}-magnitude-bound", f"--quiet {argv}", 2, "error: big.csv: feature value "
           "1e+308 above 1e+70 in magnitude (sample 'a-1', feature 'f1')", BIG)
      for name, argv in (("knn-k3", "knn --k 3 --train big.csv --test big.csv"),
                         ("knn-normalize", "knn --normalize --train big.csv --test big.csv"),
                         ("pca", "pca --dataset big.csv --out pca.csv"))],
    Case("knn-1e300", "knn --train big.csv --test big.csv", 2, "error: big.csv: feature value "
         "1e+300 above 1e+70 in magnitude (sample 'a', feature 'f1')",
         {"big.csv": "sample_id,label,f1\na,x,1e300\nb,y,-1e300\nc,x,0.5\n"}),
    *[Case(f"{cmd}-normalize-{name}", f"{argv} --normalize --train {train} {test} far.csv", 2,
           message, NORMALIZE)
      for cmd, argv, test in (("knn", "knn", "--test"),
                              ("select", "--quiet select --pop 4 --gens 2", "--eval"))
      for name, train, message in (
          ("empty-training-set", "header-only.csv",
           "error: cannot min-max scale on a training set with no samples"),
          # a span of 1e-300 scales 1e60 past the float range; an overflow warning fails it
          ("past-the-float-range", "tiny-span.csv", "error: scaled feature value out of "
           "bounds: 1e+60 scales to inf, above 1e+70 in magnitude (sample 'q-1', feature 'f1')"))],
    Case("knn-sample-id-with-a-space", "knn --train bad-id.csv --test bad-id.csv", 2,
         "error: bad-id.csv: line 2: sample id or label 'a b' outside [A-Za-z0-9_-]",
         {"bad-id.csv": "sample_id,label,f0001\na b,x,1\nc,y,2\n"}),
    *[Case(f"{argv.split()[1]}-bad-label", argv, 2,
           "error: d.csv: line 4: sample id or label 'x<y&z' outside [A-Za-z0-9_-]",
           {"d.csv": "sample_id,label,f0001,f0002\na-1,a,0,1\na-2,a,1,0\nb-1,x<y&z,2,2\n"})
      for argv in ("--quiet pca --dataset d.csv --out s.csv --svg s.svg",
                   "--quiet split --dataset d.csv --train-out s.csv --test-out t.csv "
                   "--test-count 1")],
    Case("pca-non-numeric-cell", "--quiet pca --dataset d.csv --out p", 2,
         "error: d.csv: line 5: non-numeric cell (could not convert string to float: 'zap')",
         {"d.csv": "sample_id,label,f0001\n\n\na-1,a,1\na-2,a,zap\n"}),
    Case("pca-components-1", "--quiet pca --dataset d.csv --components 1 --out p.csv "
         "--svg p.svg", 2, "error: n_components must lie in [2, 2], got 1", D),
    Case("pca-two-samples", "pca --dataset d.csv --out p.csv", 2,
         "error: PCA needs 3 or more samples, got 2",
         {"d.csv": "sample_id,label,f0001,f0002\na-1,a,0,1\nb-1,b,5,6\n"}),
    Case("pca-no-features", "pca --dataset d.csv --out p.csv", 2,
         "error: PCA needs 2 or more features, got 0",
         {"d.csv": SOURCES["featureless"]}),
    Case("split-negative-seed", f"{SPLIT} --fraction 0.5 --seed -1", 2,
         "error: split seed must be non-negative, got -1", D),
    Case("select-negative-seed", f"{SELECT} --seed -1", 2,
         "error: GA seed must be non-negative, got -1", D),
    Case("select-huge-population", "--quiet select --train d.csv --eval d.csv "
         "--pop 1000000000000 --gens 2 --out m", 2,
         "error: population_size must lie in [2, 1048576], got 1000000000000", D),
    Case("select-nan-weights", f"{SELECT} --alpha nan --beta nan --out m", 2,
         "error: alpha and beta must be finite, got nan and nan", D),
    Case("knn-empty-mask", f"{KNN} --report r.csv --mask ''", 2,
         "error: mask string must be non-empty and contain only 0/1", D),
    Case("knn-mask-file-two-lines", f"{KNN} --mask-file m.txt", 2,
         "error: m.txt: mask string must be non-empty and contain only 0/1",
         {**D, "m.txt": "011\n011\n"}),
    Case("knn-mask-length", f"--quiet {KNN} --mask 0101", 2,
         "error: mask length 4 != feature count 2", D),
    # manifests and corpora
    *[Case(f"extract-manifest-{name}", EXTRACT, 2, f"error: corpus/manifest.csv: line 2: {why}",
           {"corpus/manifest.csv": f"sample_id,label,path\n{row}\n"})
      for name, row, why in (
          ("two-cells", "ALM-1,ALM", "2 cells, expected 3"),
          ("relative-escape", "ALM-1,ALM,../../../etc/hostname",
           "image path '../../../etc/hostname' leaves the corpus directory"),
          ("absolute-path", "ALM-1,ALM,/etc/hostname",
           "image path '/etc/hostname' leaves the corpus directory"))],
    Case("extract-repeated-id-before-any-image", EXTRACT, 2,
         "error: corpus/manifest.csv: duplicate sample id 'ALM-1'",
         {"corpus/manifest.csv": "sample_id,label,path\nALM-1,ALM,ALM/a.ppm\n"
                                 "ALM-1,ALM,ALM/b.ppm\n"}),
    Case("extract-repeated-id", EXTRACT, 2, "error: corpus/manifest.csv: duplicate sample id 'a-1'",
         {**CORPUS, "corpus/manifest.csv": MANIFEST + MANIFEST.splitlines()[1] + "\n"}),
    Case("extract-corrupt-ppm", EXTRACT, 2,
         "error: corpus/a-2.ppm: bad magic b'P9', expected one of (b'P6', b'P3')",
         {**CORPUS, "corpus/a-2.ppm": b"P9\nnope"}),
    *[Case(f"extract-threads-{t}", f"{EXTRACT} --threads {t}", 2,
           f"error: threads must be >= 1, got {t}", CORPUS) for t in (0, -3)],
    # configs
    *[Case(f"synth-{new.split(' = ')[0] or 'unset'}-{i}",
           "--quiet synth --spec c.cfg --out corpus", 2, f"error: corpus config{message}",
           {"c.cfg": edit(SMALL_CORPUS_CFG, old, new)})
      for i, (old, new, message) in enumerate(CORPUS_CONFIG_EDITS)],
    *[Case(f"pipeline-{new.split(' = ')[0]}-{i}", "pipeline --config pipe.cfg --out run", 2,
           f"error: pipeline config {message}",
           {**PIPE, "pipe.cfg": edit(PIPE["pipe.cfg"], old, new)})
      for i, (old, new, message) in enumerate(PIPELINE_CONFIG_EDITS)],
    *[Case(f"pipeline-threads-{t}", f"--quiet pipeline --config pipe.cfg --out run --threads {t}",
           2, f"error: threads must be >= 1, got {t}", PIPE) for t in (0, -3)],
]


def run_case(case: Case, root, call) -> None:
    """Write the row's files into `root`, run `call(argv)` there, and check the row."""
    for name, data in case.files.items():
        path = root / name
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_bytes(data if isinstance(data, bytes) else data.encode())
    before = _tree(root)
    code, out, err = call(shlex.split(case.argv))
    check_contract(code, err)
    assert code == case.code, err
    if case.out is not None:
        assert case.out.search(out), out
    if code:
        line = err[:-1]
        assert line == case.err if isinstance(case.err, str) else case.err.match(line), line
        assert out == ""
        assert _tree(root) == before


def _tree(root) -> dict:
    return {str(p.relative_to(root)): p.read_bytes() if p.is_file() else None
            for p in root.rglob("*")}


@pytest.mark.parametrize("case", CASES, ids=[c.id for c in CASES])
def test_exit_code_case_in_process(case, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)

    def call(argv):
        code = main(argv)
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    run_case(case, tmp_path, call)


@pytest.mark.skipif(shutil.which("granulom") is None, reason="no granulom script on PATH")
@pytest.mark.parametrize("case", CASES, ids=[c.id for c in CASES])
def test_exit_code_case_installed_script(case, tmp_path):
    def call(argv):
        done = subprocess.run(["granulom", *argv], cwd=tmp_path, capture_output=True, text=True)
        return done.returncode, done.stdout, done.stderr

    run_case(case, tmp_path, call)


# replacement words: empty, signs, non-finite, overflowing, finite but above the
# feature magnitude bound, non-numeric, interpolation syntax, embedded separators,
# path escapes
WORDS = ["", "-1", "0", "1", "3", "0.5", "nan", "inf", "-inf", "1e400", "1e300", "x", "%",
         "%(x)s", "1 2 3", "a,b", "../x", "/etc", " "]
RAW = [b"\xff", b"\x00", b"\r", b"\xe2\x80\xa8", b","]

edits = st.lists(
    st.one_of(
        st.tuples(st.sampled_from(["drop", "dup", "blank", "cut", "column"]), st.integers(0, 99)),
        st.tuples(st.just("word"), st.integers(0, 99), st.integers(0, 9),
                  st.sampled_from(WORDS)),
        st.tuples(st.just("raw"), st.integers(0, 999), st.sampled_from(RAW)),
    ),
    min_size=1,
    max_size=3,
)


def mutate(text: str, ops) -> bytes:
    """Apply the line, column and word edits of `ops`, then its byte edits, to a text."""
    lines = text.splitlines()
    for kind, i, *arg in ops:
        n = max(len(lines), 1)
        if kind == "drop" and lines:
            del lines[i % n]
        elif kind == "dup" and lines:
            lines.insert(i % n, lines[i % n])
        elif kind == "blank":
            lines.insert(i % (n + 1), "")
        elif kind == "column":
            lines = [",".join(c for j, c in enumerate(ln.split(",")) if j != i % 4)
                     for ln in lines]
        elif kind == "word" and lines:
            words = list(re.finditer(r"[^,=\s\[\]]+", lines[i % n]))
            if words:
                m = words[arg[0] % len(words)]
                lines[i % n] = lines[i % n][: m.start()] + arg[1] + lines[i % n][m.end():]
    data = ("\n".join(lines) + "\n").encode("utf-8")
    for kind, i, *arg in ops:
        if kind == "cut":
            data = data[: i * len(data) // 100]
        elif kind == "raw":
            pos = i % (len(data) + 1)
            data = data[:pos] + arg[0] + data[pos:]
    return data


counter = itertools.count()


def fresh(root, suffix=".csv"):
    """A new path: rewriting an existing file can cost tens of ms on ext4."""
    return root / f"f{next(counter)}{suffix}"


@pytest.fixture(scope="module")
def base(tmp_path_factory):
    root = tmp_path_factory.mktemp("contract")
    good = root / "good.csv"
    good.write_text(DATASET)
    (root / "small.cfg").write_text(SMALL_CORPUS_CFG)
    return root, good


def run(capsys, argv) -> None:
    check_contract(main(["--quiet", *argv]), capsys.readouterr().err)


def fuzz(**kwargs):
    return settings(deadline=None, derandomize=True, database=None,
                    suppress_health_check=[HealthCheck.function_scoped_fixture], **kwargs)


@fuzz(max_examples=60)
@given(ops=edits, source=st.sampled_from(sorted(SOURCES)))
def test_mutated_datasets_and_curves(base, capsys, ops, source):
    root, good = base
    bad = fresh(root)
    bad.write_bytes(mutate(SOURCES[source], ops))
    for argv in (
        ["knn", "--train", bad, "--test", bad, "--k", "1", "--report", fresh(root)],
        ["knn", "--train", good, "--test", bad, "--template", "--normalize"],
        ["split", "--dataset", bad, "--train-out", fresh(root), "--test-out", fresh(root),
         "--fraction", "0.5"],
        ["pca", "--dataset", bad, "--out", fresh(root), "--svg", fresh(root)],
        ["scatter", "--dataset", bad, "--features", "1,2", "--out", fresh(root)],
        ["select", "--train", bad, "--eval", bad, "--pop", "4", "--gens", "2"],
    ):
        run(capsys, [str(a) for a in argv])


def corpus_dir(root, manifest: bytes):
    """A new corpus directory: the four PPMS and `manifest` as manifest.csv."""
    corpus = fresh(root, "")
    corpus.mkdir()
    for name, data in PPMS.items():
        (corpus / name).write_bytes(data)
    (corpus / "manifest.csv").write_bytes(manifest)
    return corpus


def extract_argv(root, manifest: bytes) -> list[str]:
    return ["extract", "--recipe", "lot117", "--dir", str(corpus_dir(root, manifest)),
            "--out", str(fresh(root))]


def test_unmutated_manifest_extracts(base):
    root, _ = base
    assert main(["--quiet", *extract_argv(root, MANIFEST.encode())]) == 0


@fuzz(max_examples=40)
@given(ops=edits)
def test_mutated_manifests(base, capsys, ops):
    root, _ = base
    run(capsys, extract_argv(root, mutate(MANIFEST, ops)))


@fuzz(max_examples=40)
@given(ops=edits)
def test_mutated_masks(base, capsys, ops):
    root, good = base
    mask = fresh(root, ".txt")
    mask.write_bytes(mutate(MASK, ops))
    run(capsys, ["knn", "--train", str(good), "--test", str(good), "--mask-file", str(mask)])


@fuzz(max_examples=40)
@given(ops=edits)
def test_mutated_corpus_configs(base, capsys, ops):
    root, _ = base
    cfg = fresh(root, ".cfg")
    cfg.write_bytes(mutate(SMALL_CORPUS_CFG, ops))
    run(capsys, ["synth", "--spec", str(cfg), "--out", str(fresh(root, ""))])


PIPELINE_KEYS = {
    "synth": {"spec": ["", "x.cfg"]},
    "extract": {"recipe": ["", "x", "rgb"]},
    "split": {"test_count": ["x", "1.5", "", "0", "500"],
              "test_fraction": ["x", "nan", "inf", "1e400"], "seed": ["-1", "x", "1.5"]},
    "baseline": {"ks": ["x", "1 y", "1.5", "0", "-1", "1 50", "1 1", "3 1 3"]},
    "ga": {"enabled": ["x", "2", ""], "population": ["x", "-1", "1e3", "%(nothing)s"],
           "populaton": ["3"],
           "generations": ["x", "-1"], "crossover_prob": ["nan", "1.5", "x"],
           "mutation_prob": ["inf", "-0.5"], "alpha": ["nan", "-inf", "x"],
           "beta": ["nan", "1e400", "1 %"], "seed": ["-1", "x"],
           "stagnation_limit": ["-1", "x"],
           "elitism": ["-1", "10"], "enforce_weight_sum": ["x"]},
    "pca": {"enabled": ["x"], "components": ["x", "2.5", "0", "1"]},
}
BAD_SETTINGS = [(s, k, v) for s, keys in PIPELINE_KEYS.items()
                for k, values in keys.items() for v in values]
BROKEN_LINES = ["[ga]", "no equals sign here"]  # break the parse wherever they stand


def _set(text: str, section: str, key: str, value: str) -> str:
    lines = text.splitlines()
    start = lines.index(f"[{section}]")
    end = next((i for i in range(start + 1, len(lines)) if lines[i].startswith("[")), len(lines))
    for i in range(start + 1, end):
        if lines[i].split(" = ")[0] == key:
            lines[i] = f"{key} = {value}"
            break
    else:
        lines.insert(start + 1, f"{key} = {value}")
    return "\n".join(lines) + "\n"


@fuzz(max_examples=40)
@given(case=st.one_of(
    st.tuples(st.just("setting"), st.sampled_from(BAD_SETTINGS)),
    st.tuples(st.just("line"), st.tuples(st.sampled_from(BROKEN_LINES), st.integers(0, 40))),
    st.tuples(st.just("raw"), st.integers(0, 999)),
))
def test_malformed_pipeline_configs_fail_before_synth(base, capsys, case):
    root, _ = base
    text = PIPELINE_CFG.format(corpus_cfg=root / "small.cfg")
    kind, arg = case
    if kind == "setting":
        data = _set(text, *arg).encode()
    elif kind == "line":
        lines = text.splitlines()
        lines.insert(1 + arg[1] % len(lines), arg[0])
        data = ("\n".join(lines) + "\n").encode()
    else:
        data = text.encode()
        data = data[: arg % len(data)] + b"\xff" + data[arg % len(data):]
    cfg = fresh(root, ".cfg")
    cfg.write_bytes(data)
    run_dir = fresh(root, "")
    code = main(["pipeline", "--config", str(cfg), "--out", str(run_dir)])
    err = capsys.readouterr().err
    check_contract(code, err)
    assert code, err
    assert not (run_dir / "corpus").exists()
