"""Contract of `granulom` on malformed inputs, driven in-process through cli.main.

Every mutated dataset, manifest, mask, curve CSV, corpus config or pipeline
config must end in an exit code from {0, 1, 2, 3} and never in an escaped
exception; a non-zero exit prints exactly one line on stderr. Pipeline
configs are mutated into malformed ones only, so each run must stop before
its synth stage.
"""

import itertools
import re
import shutil

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from granulom.cli import main
from granulom.imagecore import ColorImage, write_ppm
from test_cli import PIPELINE_CFG, SMALL_CORPUS_CFG

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
    rng = np.random.default_rng(4)
    for sid in ("a-1", "a-2", "b-1", "b-2"):
        write_ppm(ColorImage(rng.integers(0, 256, (12, 12, 3))), root / f"{sid}.ppm")
    good = root / "good.csv"
    good.write_text(DATASET)
    (root / "small.cfg").write_text(SMALL_CORPUS_CFG)
    return root, good


def run(capsys, argv) -> None:
    code = main(["--quiet", *argv])
    err = capsys.readouterr().err
    assert code in (0, 1, 2, 3), code
    if code:
        assert err.count("\n") == 1 and err.endswith("\n"), err


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
    """A new corpus directory: the four PPMs of `base` and `manifest` as manifest.csv."""
    corpus = fresh(root, "")
    corpus.mkdir()
    for sid in ("a-1", "a-2", "b-1", "b-2"):
        shutil.copyfile(root / f"{sid}.ppm", corpus / f"{sid}.ppm")
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
    assert code in (1, 2, 3), err
    assert err.count("\n") == 1, err
    assert not (run_dir / "corpus").exists()
