import hashlib
from itertools import product

import numpy as np
import pytest

from conftest import knn_oracle
from granulom.classify import (
    FeatureMask,
    KnnConfig,
    evaluate,
    squared_difference_table,
    summed_rows,
)
from granulom.errors import DataError
from granulom.features import Dataset
from granulom.select import (
    EMPTY_MASK_FITNESS,
    MAX_POPULATION,
    GAConfig,
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
    with pytest.raises(DataError):
        GAConfig(elitism=50, population_size=50)
    with pytest.raises(DataError, match="finite"):
        GAConfig(alpha=float("nan"), beta=float("nan"))
    with pytest.raises(DataError, match="finite"):
        GAConfig(alpha=float("inf"), beta=0.0)
    with pytest.raises(DataError, match="seed must be non-negative"):
        GAConfig(seed=-1)
    assert GAConfig().stagnation_limit == 0  # 0: no stagnation stop
    with pytest.raises(DataError, match="stagnation_limit must be >= 0"):
        GAConfig(stagnation_limit=-1)
    assert GAConfig(population_size=MAX_POPULATION).population_size == 2**20
    for size in (MAX_POPULATION + 1, 10**12):
        with pytest.raises(DataError, match=r"population_size must lie in \[2, 1048576\]"):
            GAConfig(population_size=size)


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


def test_wrapper_objective_separable_and_sentinel():
    train, eval_set = _separable_pair()
    cfg = GAConfig(seed=1)
    objective = _WrapperObjective(train, eval_set, cfg)
    hits, nf, fit = objective(np.ones(4, dtype=bool))
    # verify against the independent brute-force 1-NN oracle
    rows = list(zip(train.sample_ids, train.labels, train.matrix))
    expected = sum(
        knn_oracle(rows, eval_set.matrix[i], 1)[0] == eval_set.labels[i]
        for i in range(eval_set.n_samples)
    )
    assert hits == expected == eval_set.n_samples
    assert nf == 4
    assert fit == fitness(hits, 4, cfg.alpha, cfg.beta)

    hits, nf, fit = objective(np.zeros(4, dtype=bool))
    assert fit == EMPTY_MASK_FITNESS and nf == 0


def test_wrapper_objective_matches_evaluate():
    train, eval_set = _separable_pair()
    objective = _WrapperObjective(train, eval_set, GAConfig(seed=1))
    for bits in product((0, 1), repeat=4):
        if not any(bits):
            continue
        mask = FeatureMask(np.array(bits))
        hits, nf, _ = objective(mask.bits)
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
    hits, nf, fit = _WrapperObjective(train, eval_set, cfg)(rep.best_mask.bits)
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


def test_wrapper_objective_matches_evaluate_lot117_shape(rng):
    # 117 features, 187 train / 50 eval and 14 classes, as in the shipped split
    scale = rng.uniform(0.01, 100, size=117)
    def block(n, tag):
        labels = [f"c{i % 14:02d}" for i in range(n)]
        ids = [f"{tag}{i:03d}" for i in rng.permutation(n)]
        return Dataset(ids, labels, rng.normal(size=(n, 117)) * scale)
    train, eval_set = block(187, "tr"), block(50, "ev")
    objective = _WrapperObjective(train, eval_set, GAConfig(seed=0))
    for p in (0.03, 0.1, 0.5, 0.9, 1.0):
        bits = rng.random(117) < p
        bits[int(rng.integers(0, 117))] = True
        mask = FeatureMask(bits)
        hits, nf, _ = objective(mask.bits)
        assert hits == evaluate(train, eval_set, KnnConfig(1), mask).hits
        assert nf == mask.n_selected


# --- golden GA edge-config record ---------------------------------------------------
# sha256 over every run of a grid of small configs, recorded before the
# generation loop was rewritten. The grid covers what the shipped run never
# reaches: n = 1 (no crossover point), elitism 0, an even and an odd number of
# offspring slots, crossover and mutation branches that draw nothing, and a
# stagnation stop. Each run hashes its history rows, mask, best hits, stop
# reason and work counts, so any change to the RNG draws shows up here.

GOLDEN_GA_GRID_SHA256 = "b61038c412c92523de12a4bc19629a2a7f4fd49130eaead57cde505ba1c47938"


def _grid_pair(n):
    rng = np.random.default_rng(100 + n)
    def block(count, tag):
        labels = [f"c{i % 3}" for i in range(count)]
        rows = rng.normal(size=(count, n)) + np.arange(count)[:, None] % 3
        return Dataset([f"{tag}{i:02d}" for i in range(count)], labels, rows)
    return block(10, "tr"), block(7, "ev")


def test_ga_edge_config_golden():
    digest = hashlib.sha256()
    grid = product((1, 2, 9), (2, 7, 8), (0, 1), (1.0, 0.5), (0.9, 0.0), (0, 3))
    for seed, (n, size, elitism, p_cross, p_mut, stagnation) in enumerate(grid):
        train, eval_set = _grid_pair(n)
        cfg = GAConfig(
            population_size=size, generations=12, crossover_prob=p_cross,
            mutation_prob=p_mut, seed=seed, stagnation_limit=stagnation, elitism=elitism,
        )
        rep = run_ga(train, eval_set, cfg)
        lines = [
            f"{g.generation} {g.best_fitness!r} {g.median_fitness!r} "
            f"{g.min_fitness!r} {g.best_feature_count}"
            for g in rep.history
        ]
        lines.append(
            f"{rep.best_mask.to_string()} {rep.best_hits} {rep.stop_reason} "
            f"{rep.cache_hits} {rep.evaluations}"
        )
        digest.update(("\n".join(lines) + "\n").encode())
    assert digest.hexdigest() == GOLDEN_GA_GRID_SHA256


# --- live projections -----------------------------------------------------------------
# Columns holding one value add +0.0 to every distance, so _WrapperObjective
# sums only live rows and scores each live projection once. A plain scorer
# over every selected row, dead ones included, must give the same answers.

DEAD = [1, 4, 5, 9]


def _pair_with_dead_columns(rng, n=12):
    """Small-integer features (many distance ties) with the columns DEAD single-valued."""
    def block(count, tag):
        rows = rng.integers(0, 3, size=(count, n)).astype(np.float64)
        rows[:, 1], rows[:, 4], rows[:, 9] = 2.0, -7.5, 1e-3
        rows[:, 5] = np.where(rng.random(count) < 0.5, 0.0, -0.0)
        ids = [f"{tag}{i:02d}" for i in rng.permutation(count)]
        return Dataset(ids, [f"c{i % 3}" for i in range(count)], rows)
    train, eval_set = block(10, "tr"), block(7, "ev")
    train.matrix[:, 11] = 4.0  # single-valued in the training rows only: live
    return train, eval_set


def _every_row_score(train, eval_set, bits, cfg):
    """(hits, nf, fitness) of 1-NN over every selected row of the full table."""
    order = sorted(range(train.n_samples), key=lambda i: train.sample_ids[i])
    sq = squared_difference_table(eval_set.matrix, train.matrix[order])
    nearest = summed_rows(sq, np.flatnonzero(bits), np.empty(sq.shape[1:])).argmin(axis=1)
    hits = sum(train.labels[order[j]] == lab for j, lab in zip(nearest, eval_set.labels))
    nf = int(bits.sum())
    return hits, nf, fitness(hits, nf, cfg.alpha, cfg.beta)


def test_mask_of_only_constant_features_scores_first_training_sample(rng):
    train, eval_set = _pair_with_dead_columns(rng)
    cfg = GAConfig(seed=0)
    bits = np.zeros(train.n_features, dtype=bool)
    bits[DEAD] = True
    first = train.labels[train.sample_ids.index(min(train.sample_ids))]
    hits = eval_set.labels.count(first)
    assert hits > 0
    expected = (hits, len(DEAD), fitness(hits, len(DEAD), cfg.alpha, cfg.beta))
    assert _WrapperObjective(train, eval_set, cfg)(bits) == expected
    assert _every_row_score(train, eval_set, bits, cfg) == expected
    # after a live mask has filled the reused distance buffer
    objective = _WrapperObjective(train, eval_set, cfg)
    live_bits = np.zeros(train.n_features, dtype=bool)
    live_bits[[0, 2, 3]] = True
    assert objective(live_bits)[0] != hits
    assert objective(bits) == expected


def test_masks_differing_in_dead_bits_share_one_distance_sum(rng):
    train, eval_set = _pair_with_dead_columns(rng)
    cfg = GAConfig(seed=0)
    objective = _WrapperObjective(train, eval_set, cfg)
    assert objective.live.tolist() == [f for f in range(train.n_features) if f not in DEAD]
    projections = set()
    for _ in range(150):
        bits = rng.random(train.n_features) < 0.4
        for _ in range(3):  # the same live bits under different dead bits
            bits[DEAD] = rng.random(len(DEAD)) < 0.5
            if bits.any():
                assert objective(bits.copy()) == _every_row_score(train, eval_set, bits, cfg)
                projections.add(bits[objective.live].tobytes())
    assert len(objective.hits_by_live) == len(projections) < len(objective.cache)
    rep = run_ga(train, eval_set, GAConfig(population_size=8, generations=15, seed=3))
    assert 0 < rep.distance_sums < rep.evaluations
