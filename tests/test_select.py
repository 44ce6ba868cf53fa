from itertools import product

import numpy as np
import pytest

from conftest import knn_oracle
from granulom.classify import FeatureMask, KnnConfig, evaluate
from granulom.errors import DataError
from granulom.features import Dataset
from granulom.select import (
    EMPTY_MASK_FITNESS,
    GAConfig,
    evaluate_individual,
    fitness,
    read_mask,
    run_ga,
    write_mask,
    _WrapperObjective,
)


def test_fitness_examples():
    assert fitness(49, 117, 0.6, 0.4) == pytest.approx(-17.4, abs=1e-12)
    assert fitness(50, 3, 0.6, 0.4) == pytest.approx(28.8, abs=1e-12)
    assert fitness(33, 10, 1.0, 0.0) == 33.0
    with pytest.raises(DataError):
        fitness(-1, 5, 0.6, 0.4)
    with pytest.raises(DataError):
        fitness(10, 0, 0.6, 0.4)


def test_config_validation():
    with pytest.raises(DataError):
        GAConfig(population_size=1)
    with pytest.raises(DataError):
        GAConfig(crossover_prob=1.5)
    with pytest.raises(DataError):
        GAConfig(alpha=0.6, beta=0.6)  # weight-sum check on by default
    GAConfig(alpha=0.6, beta=0.6, enforce_weight_sum=False)
    with pytest.raises(DataError):
        GAConfig(elitism=50, population_size=50)


def _separable_pair(n_eval=6):
    # feature index 1 carries the class; the rest is noise
    rng = np.random.default_rng(99)
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
    return block(8, "tr"), block(n_eval, "ev")


def test_evaluate_individual_separable_and_sentinel():
    train, eval_set = _separable_pair()
    cfg = GAConfig(seed=1)
    full = FeatureMask.all_ones(4)
    hits, nf, fit = evaluate_individual(full, train, eval_set, cfg)
    # verify against the independent brute-force 1-NN oracle
    rows = list(zip(train.sample_ids, train.labels, train.matrix))
    expected = sum(
        knn_oracle(rows, eval_set.matrix[i], 1)[0] == eval_set.labels[i]
        for i in range(eval_set.n_samples)
    )
    assert hits == expected == eval_set.n_samples
    assert nf == 4
    assert fit == fitness(hits, 4, cfg.alpha, cfg.beta)

    empty = FeatureMask(np.array([0, 0, 0, 0]))
    hits, nf, fit = evaluate_individual(empty, train, eval_set, cfg)
    assert fit == EMPTY_MASK_FITNESS and nf == 0


def test_evaluate_individual_matches_evaluate():
    train, eval_set = _separable_pair()
    cfg = GAConfig(seed=1)
    for bits in product((0, 1), repeat=4):
        if not any(bits):
            continue
        mask = FeatureMask(np.array(bits))
        hits, nf, _ = evaluate_individual(mask, train, eval_set, cfg)
        assert hits == evaluate(train, eval_set, KnnConfig(1), mask).hits
        assert nf == sum(bits)


def test_objective_cache_single_entry():
    train, eval_set = _separable_pair()
    objective = _WrapperObjective(train, eval_set, GAConfig(seed=0))
    bits = np.array([True, True, False, False])
    first = objective(bits)
    assert objective(bits.copy()) == first
    assert len(objective.cache) == 1


def test_run_ga_deterministic(tmp_path):
    train, eval_set = _separable_pair()
    cfg = GAConfig(population_size=8, generations=15, seed=42)
    rep1 = run_ga(train, eval_set, cfg)
    rep2 = run_ga(train, eval_set, cfg)
    assert rep1.best_mask == rep2.best_mask
    assert rep1.history == rep2.history
    assert (rep1.cache_hits, rep1.evaluations) == (rep2.cache_hits, rep2.evaluations)
    assert rep1.cache_hits + rep1.evaluations == cfg.population_size * (cfg.generations + 1)
    assert 0 < rep1.evaluations <= 2 ** train.n_features
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    rep1.to_csv(p1)
    rep2.to_csv(p2)
    assert p1.read_bytes() == p2.read_bytes()
    assert p1.read_text().splitlines()[0] == "gen,best,median,min,best_nf"


def test_run_ga_zero_generations():
    train, eval_set = _separable_pair()
    rep = run_ga(train, eval_set, GAConfig(population_size=8, generations=0, seed=3))
    assert len(rep.history) == 1
    assert rep.generations_run == 0
    assert rep.history[0].best_fitness == rep.best_fitness


def test_run_ga_monotone_best_with_elitism():
    train, eval_set = _separable_pair()
    rep = run_ga(train, eval_set, GAConfig(population_size=8, generations=25, seed=5))
    best_series = [g.best_fitness for g in rep.history]
    assert all(b2 >= b1 for b1, b2 in zip(best_series, best_series[1:]))


def test_run_ga_cache_coherence():
    train, eval_set = _separable_pair()
    cfg = GAConfig(population_size=8, generations=20, seed=7)
    rep = run_ga(train, eval_set, cfg)
    hits, nf, fit = evaluate_individual(rep.best_mask, train, eval_set, cfg)
    assert fit == rep.best_fitness
    assert hits == rep.best_hits
    assert nf == rep.best_mask.n_selected
    assert rep.selected_features == rep.best_mask.indices_1based()
    assert list(rep.selected_features) == sorted(rep.selected_features)


def test_run_ga_stagnation_stop():
    train, eval_set = _separable_pair()
    cfg = GAConfig(population_size=8, generations=200, seed=11, stagnation_limit=5)
    rep = run_ga(train, eval_set, cfg)
    assert rep.stop_reason == "stagnation"
    assert rep.generations_run < 200


def _exhaustive_optimum(train, eval_set, cfg):
    rows = list(zip(train.sample_ids, train.labels, train.matrix))
    best = None
    for bits in product((0, 1), repeat=train.n_features):
        if not any(bits):
            continue
        idx = np.flatnonzero(np.array(bits))
        hits = sum(
            knn_oracle(rows, eval_set.matrix[i], 1, idx)[0] == eval_set.labels[i]
            for i in range(eval_set.n_samples)
        )
        fit = cfg.alpha * hits - cfg.beta * len(idx)
        if best is None or fit > best:
            best = fit
    return best


def test_ga_finds_exhaustive_optimum_on_toy():
    train, eval_set = _separable_pair()
    found = 0
    for seed in range(10):
        cfg = GAConfig(population_size=8, generations=25, seed=seed)
        rep = run_ga(train, eval_set, cfg)
        optimum = _exhaustive_optimum(train, eval_set, cfg)
        if rep.best_fitness == optimum:
            found += 1
    assert found >= 9


def test_mask_file_roundtrip(tmp_path):
    mask = FeatureMask.from_string("0110101")
    p = tmp_path / "mask.txt"
    write_mask(mask, p)
    assert p.read_text() == "0110101\n"
    assert read_mask(p) == mask


def test_evaluate_individual_matches_evaluate_lot117_shape(rng):
    # 117 features, 187 train / 50 eval and 14 classes, as in the shipped split
    scale = rng.uniform(0.01, 100, size=117)
    def block(n, tag):
        labels = [f"c{i % 14:02d}" for i in range(n)]
        ids = [f"{tag}{i:03d}" for i in rng.permutation(n)]
        return Dataset(ids, labels, rng.normal(size=(n, 117)) * scale)
    train, eval_set = block(187, "tr"), block(50, "ev")
    cfg = GAConfig(seed=0)
    for p in (0.03, 0.1, 0.5, 0.9, 1.0):
        bits = rng.random(117) < p
        bits[int(rng.integers(0, 117))] = True
        mask = FeatureMask(bits)
        hits, nf, _ = evaluate_individual(mask, train, eval_set, cfg)
        assert hits == evaluate(train, eval_set, KnnConfig(1), mask).hits
        assert nf == mask.n_selected
