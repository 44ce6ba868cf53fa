import hashlib
import math
import tracemalloc
from itertools import product

import numpy as np
import pytest

from conftest import knn_oracle, left_to_right_d2, lot117_pair, wrapper_fitness
from granulom.classify import (
    FeatureMask,
    KnnConfig,
    evaluate,
    live_columns,
    squared_rows,
    summed_rows,
)
from granulom.errors import DataError
from granulom.features import Dataset
from granulom.select import (
    EMPTY_MASK_FITNESS,
    MAX_POPULATION,
    GAConfig,
    read_mask,
    run_ga,
    write_mask,
    _WrapperObjective,
    _breed,
    _median,
    _pair_draws,
)


def test_fitness_examples():
    assert wrapper_fitness(49, 117, 0.6, 0.4) == pytest.approx(-17.4, abs=1e-12)
    assert wrapper_fitness(50, 3, 0.6, 0.4) == pytest.approx(28.8, abs=1e-12)
    assert wrapper_fitness(33, 10, 1.0, 0.0) == 33.0
    # a mask of no feature is never scored: it gets the sentinel
    train, eval_set = _separable_pair()
    objective = _WrapperObjective(train, eval_set, GAConfig())
    assert objective.score(np.zeros((1, 4), dtype=bool))[2].tolist() == [EMPTY_MASK_FITNESS]


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
    hits, nf, fit = objective.score(np.ones(4, dtype=bool)[None])
    # verify against the independent brute-force 1-NN oracle
    rows = list(zip(train.sample_ids, train.labels, train.matrix))
    expected = sum(
        knn_oracle(rows, eval_set.matrix[i], 1)[0] == eval_set.labels[i]
        for i in range(eval_set.n_samples)
    )
    assert hits == expected == eval_set.n_samples
    assert nf == 4
    assert fit == cfg.alpha * hits - cfg.beta * 4

    hits, nf, fit = objective.score(np.zeros(4, dtype=bool)[None])
    assert fit == EMPTY_MASK_FITNESS and nf == 0


def test_wrapper_objective_matches_evaluate():
    train, eval_set = _separable_pair()
    objective = _WrapperObjective(train, eval_set, GAConfig(seed=1))
    for bits in product((0, 1), repeat=4):
        if not any(bits):
            continue
        mask = FeatureMask(np.array(bits))
        hits, nf, _ = objective.score(mask.bits[None])
        assert hits == evaluate(train, eval_set, KnnConfig(1), mask).hits
        assert nf == sum(bits)


def test_objective_cache_single_entry():
    train, eval_set = _separable_pair()
    objective = _WrapperObjective(train, eval_set, GAConfig(seed=0))
    bits = np.array([True, True, False, False])
    first = objective.score(bits[None])
    assert objective.score(bits.copy()[None]) == first
    assert len(objective.hits_by_live) == 1


def test_run_ga_deterministic(tmp_path):
    train, eval_set = _separable_pair()
    cfg = GAConfig(population_size=8, generations=15, seed=42)
    rep1 = run_ga(train, eval_set, cfg)
    rep2 = run_ga(train, eval_set, cfg)
    assert rep1.best_mask == rep2.best_mask
    assert rep1.history == rep2.history
    assert rep1.distance_sums == rep2.distance_sums
    assert 0 < rep1.distance_sums < 2 ** train.n_features
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
    hits, nf, fit = _WrapperObjective(train, eval_set, cfg).score(rep.best_mask.bits[None])
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
    assert len(rep.history) == rep.generations_run + 1


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
    train, eval_set = lot117_pair(rng)
    objective = _WrapperObjective(train, eval_set, GAConfig(seed=0))
    for p in (0.03, 0.1, 0.5, 0.9, 1.0):
        bits = rng.random(117) < p
        bits[int(rng.integers(0, 117))] = True
        mask = FeatureMask(bits)
        hits, nf, _ = objective.score(mask.bits[None])
        assert hits == evaluate(train, eval_set, KnnConfig(1), mask).hits
        assert nf == mask.n_selected


def _dead_column_pair():
    # 65 of 117 columns hold one value, so masks that differ only there share
    # one distance sum: the run scores far more rows than it sums
    rng = np.random.default_rng(65)
    dead = rng.permutation(117)[:65]
    def block(count, tag):
        rows = rng.normal(size=(count, 117)) + np.arange(count)[:, None] % 3
        rows[:, dead] = 1.5
        return Dataset([f"{tag}{i:02d}" for i in range(count)],
                       [f"c{i % 3}" for i in range(count)], rows)
    return block(60, "tr"), block(20, "ev")


# Bytes a GA run may hold beyond the distance table: BYTES_PER_SUM per entry
# of `hits_by_live` (about 71 here), and SLACK for what does not grow with the
# run (the distance buffer, the populations, numpy's temporaries), none of it
# per scored row. The runs below peak about 25 KB (dead columns) and 225 KB
# (all live) above table + 120 per sum; a packed buffer of every scored row
# put the dead-column run 434 KB above it.
BYTES_PER_SUM = 120
SLACK = 320_000


@pytest.mark.parametrize("pair, generations", [
    (lambda: lot117_pair(np.random.default_rng(117)), 60),
    (_dead_column_pair, 300),
], ids=["all-live", "dead-columns"])
def test_run_ga_memory_is_the_table_plus_a_few_bytes_per_sum(pair, generations):
    train, eval_set = pair()
    run_ga(train, eval_set, GAConfig(generations=1, seed=3))  # numpy's first-call set-up
    tracemalloc.start()
    try:
        rep = run_ga(train, eval_set, GAConfig(generations=generations, seed=3))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # one (eval, train) float64 row per live column
    live = live_columns(eval_set.matrix, train.matrix).size
    table = live * eval_set.n_samples * train.n_samples * 8
    assert rep.distance_sums > 2500
    assert peak <= table + BYTES_PER_SUM * rep.distance_sums + SLACK


def test_generation_median_is_numpys_median():
    rng = np.random.default_rng(8)
    for size in range(2, 12):
        for _ in range(50):
            # few distinct values, so the middle pair is often a tie or straddles -inf
            fits = 0.6 * rng.integers(0, 6, size) - 0.4 * rng.integers(0, 6, size)
            fits[rng.random(size) < 0.3] = EMPTY_MASK_FITNESS
            assert _median(fits).hex() == float(np.median(fits)).hex()


# --- golden GA edge-config record ---------------------------------------------------
# sha256 over every run of a grid of small configs, recorded before the
# generation loop was rewritten. The grid covers what the shipped run never
# reaches: n = 1 (no crossover point), elitism 0, an even and an odd number of
# offspring slots, crossover and mutation branches that draw nothing, and a
# stagnation stop. Each run hashes its history rows, mask, best hits, stop
# reason and distance sums, so any change to the RNG draws shows up here.

GOLDEN_GA_GRID_SHA256 = "a6fef8617f41845f2595485cc069b043b33b6c16848da4a8257d8632a2c941ad"


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
            f"{rep.distance_sums}"
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
        if tag == "tr":
            rows[:, 11] = 4.0  # single-valued in the training rows only: live
        ids = [f"{tag}{i:02d}" for i in rng.permutation(count)]
        return Dataset(ids, [f"c{i % 3}" for i in range(count)], rows)
    return block(10, "tr"), block(7, "ev")


def _every_row_score(train, eval_set, bits, cfg):
    """(hits, nf, fitness) of 1-NN over every selected row of the full table."""
    if not bits.any():
        return 0, 0, EMPTY_MASK_FITNESS
    order = sorted(range(train.n_samples), key=lambda i: train.sample_ids[i])
    rows = squared_rows(eval_set.matrix, train.matrix[order], np.flatnonzero(bits))
    nearest = summed_rows(rows, np.empty((eval_set.n_samples, train.n_samples))).argmin(axis=1)
    hits = sum(train.labels[order[j]] == lab for j, lab in zip(nearest, eval_set.labels))
    nf = int(bits.sum())
    return hits, nf, cfg.alpha * hits - cfg.beta * nf


def test_mask_of_only_constant_features_scores_first_training_sample(rng):
    train, eval_set = _pair_with_dead_columns(rng)
    cfg = GAConfig(seed=0)
    bits = np.zeros(train.n_features, dtype=bool)
    bits[DEAD] = True
    first = train.labels[train.sample_ids.index(min(train.sample_ids))]
    hits = eval_set.labels.count(first)
    assert hits > 0
    expected = (hits, len(DEAD), cfg.alpha * hits - cfg.beta * len(DEAD))
    assert _WrapperObjective(train, eval_set, cfg).score(bits[None]) == expected
    assert _every_row_score(train, eval_set, bits, cfg) == expected
    # after a live mask has filled the reused distance buffer
    objective = _WrapperObjective(train, eval_set, cfg)
    live_bits = np.zeros(train.n_features, dtype=bool)
    live_bits[[0, 2, 3]] = True
    assert objective.score(live_bits[None])[0] != hits
    assert objective.score(bits[None]) == expected


def test_masks_differing_in_dead_bits_share_one_distance_sum(rng):
    train, eval_set = _pair_with_dead_columns(rng)
    cfg = GAConfig(seed=0)
    objective = _WrapperObjective(train, eval_set, cfg)
    assert objective.live.tolist() == [f for f in range(train.n_features) if f not in DEAD]
    projections, masks = set(), set()
    for _ in range(150):
        bits = rng.random(train.n_features) < 0.4
        for _ in range(3):  # the same live bits under different dead bits
            bits[DEAD] = rng.random(len(DEAD)) < 0.5
            if bits.any():
                expected = _every_row_score(train, eval_set, bits, cfg)
                assert objective.score(bits.copy()[None]) == expected
                projections.add(bits[objective.live].tobytes())
                masks.add(bits.tobytes())
    assert len(objective.hits_by_live) == len(projections) < len(masks)
    rep = run_ga(train, eval_set, GAConfig(population_size=8, generations=15, seed=3))
    assert 0 < rep.distance_sums < 8 * (rep.generations_run + 1)


def test_ga_distances_are_the_classifiers_bit_for_bit(rng):
    # mixed magnitudes expose any other summation order; DEAD columns are single-valued
    n = 40
    scale = rng.uniform(0.1, 1000.0, size=n)
    train_rows, eval_rows = rng.normal(size=(10, n)) * scale, rng.normal(size=(7, n)) * scale
    train_rows[:, DEAD] = eval_rows[:, DEAD] = [2.0, -7.5, 1e-3, 0.0]
    eval_rows[::2, DEAD[-1]] = -0.0
    train_rows[:, 11] = 4.0  # single-valued in the training rows only: live
    train = Dataset([f"tr{i:02d}" for i in rng.permutation(10)],
                    [f"c{i % 3}" for i in range(10)], train_rows)
    eval_set = Dataset([f"ev{i}" for i in range(7)], [f"c{i % 3}" for i in range(7)], eval_rows)
    order = sorted(range(10), key=train.sample_ids.__getitem__)
    for trial in range(100):
        bits = rng.random(n) < (0.05, 0.5, 0.95)[trial % 3]
        if trial == 0:  # dead bits only
            bits[:] = False
            bits[DEAD] = True
        if not bits.any():
            continue
        objective = _WrapperObjective(train, eval_set, GAConfig(seed=0))
        assert objective.live.tolist() == [f for f in range(n) if f not in DEAD]
        objective.score(bits[None])  # leaves the mask's distances in objective.d2
        sel = np.flatnonzero(bits)
        expected = left_to_right_d2(eval_rows, train_rows[order], sel)
        assert np.array_equal(objective.d2.view(np.int64), expected.view(np.int64))


def test_score_of_a_population_matches_every_row_score():
    rng = np.random.default_rng(31)
    train, eval_set = _pair_with_dead_columns(rng)
    cfg = GAConfig(seed=0)
    population = rng.random((6, train.n_features)) < 0.5
    population[2] = population[0]  # a duplicate
    population[3] = False  # the empty mask
    population[4] = False
    population[4, DEAD] = True  # dead bits only: the same live key as the empty mask
    assert len({row.tobytes() for row in population}) == 5
    # the last eval row relabelled to a class no training row has: never a hit, though
    # a numpy str array drops trailing NULs and would read it as c0
    assert eval_set.labels[-1] == "c0" and "c0\0" not in train.labels
    unseen = Dataset(eval_set.sample_ids, eval_set.labels[:-1] + ["c0\0"], eval_set.matrix)
    all_hits = []
    for eval_rows in (eval_set, unseen):
        objective = _WrapperObjective(train, eval_rows, cfg)
        hits, nfs, fits = objective.score(population)
        scores = list(zip(hits.tolist(), nfs.tolist(), fits.tolist()))
        assert scores == [_every_row_score(train, eval_rows, bits, cfg) for bits in population]
        # rows 0, 1, 4 and 5: row 2 repeats row 0, and the empty mask sums nothing
        assert len(objective.hits_by_live) == 4
        objective.score(population[4:])  # summed in the first call
        assert len(objective.hits_by_live) == 4
        all_hits.append(hits)
    assert (all_hits[1] < all_hits[0]).any()  # that row was a hit under some mask
    alone = _WrapperObjective(train, eval_set, cfg)
    alone.score(population[3:4])
    assert alone.hits_by_live == {}  # the empty mask alone sums nothing


def test_pair_with_no_live_column_scores():
    rows = np.tile([1.0, -0.0, 3.5], (5, 1))
    rows[::2, 1] = 0.0
    train = Dataset([f"tr{i}" for i in range(5)], ["a", "b", "a", "c", "b"], rows)
    eval_set = Dataset(["ev0", "ev1", "ev2"], ["a", "b", "a"], rows[:3])
    cfg = GAConfig(seed=0)
    objective = _WrapperObjective(train, eval_set, cfg)
    assert objective.live.size == 0
    population = np.array(list(product((False, True), repeat=3)))
    hits, nfs, fits = objective.score(population)
    scores = list(zip(hits.tolist(), nfs.tolist(), fits.tolist()))
    assert scores == [_every_row_score(train, eval_set, bits, cfg) for bits in population]
    assert objective.hits_by_live == {b"": 2}  # every sample at distance 0: tr0 ("a") wins
    rep = run_ga(train, eval_set, GAConfig(population_size=6, generations=5, seed=1))
    assert (rep.best_hits, rep.best_mask.n_selected, rep.distance_sums) == (2, 1, 1)


def test_memo_keys_are_packed_bits():
    for train, eval_set in (_pair_with_dead_columns(np.random.default_rng(5)),
                            lot117_pair(np.random.default_rng(5))):
        objective = _WrapperObjective(train, eval_set, GAConfig(seed=0))
        population = np.random.default_rng(6).random((20, train.n_features)) < 0.5
        population[0] = True
        objective.score(population)
        width = math.ceil(objective.live.size / 8)
        assert {len(key) for key in objective.hits_by_live} == {width}
        # score's column gather can give F order; each key is still its own row's bits
        assert set(objective.hits_by_live) == {
            np.packbits(row[objective.live]).tobytes() for row in population if row.any()
        }


@pytest.mark.parametrize("n", [1, 8, 9, 64, 65, 117])
def test_memo_holds_each_distinct_non_empty_row_once(n):
    # widths on each side of a byte, where a key's zero padding starts;
    # every column is live, so the memo holds each distinct non-empty row once
    rng = np.random.default_rng(n)
    train = Dataset([f"tr{i}" for i in range(4)], ["a", "b"] * 2, rng.normal(size=(4, n)))
    eval_set = Dataset(["ev0", "ev1"], ["a", "b"], rng.normal(size=(2, n)))
    objective = _WrapperObjective(train, eval_set, GAConfig(seed=0))
    scored = np.zeros((0, n), dtype=bool)
    for _ in range(4):
        population = rng.random((12, n)) < 0.5
        population[0] = False  # the empty mask: zero bytes like the padding
        population[1] = population[0]
        population[1, -1] = True  # the last bit only, next to the padding
        population[2] = population[3]  # a repeat within the call
        population[4] = population[5]
        population[4, min(n, 64) - 1] ^= True  # differs in one bit only
        if len(scored):  # repeats of rows of earlier calls
            population[6:8] = scored[rng.integers(0, len(scored), 2)]
        objective.score(population)
        scored = np.concatenate([scored, population])
        distinct = {row.tobytes() for row in scored if row.any()}
        assert len(objective.hits_by_live) == len(distinct)


def _contract_breed(population, fits, cfg, rng):
    """Children, tournaments, points and bits from the documented numpy draws, pair by pair."""
    size, n = population.shape
    children, tournaments, points, bits = [], [], [], []
    for _ in range((size - cfg.elitism + 1) // 2):
        pair = []
        for _ in range(2):
            i, j = rng.integers(0, size, size=2).tolist()
            tournaments += [i, j]
            pair.append(population[i if fits[i] >= fits[j] else j].copy())
        point = int(rng.integers(1, n)) if rng.random() < cfg.crossover_prob and n > 1 else n
        points.append(point)
        a, b = pair
        pair = [np.concatenate([a[:point], b[point:]]), np.concatenate([b[:point], a[point:]])]
        for child in pair:
            bit = int(rng.integers(0, n)) if rng.random() < cfg.mutation_prob else -1
            bits.append(bit)
            if bit >= 0:
                child[bit] = not child[bit]
        children += pair
    return np.array(children[: size - cfg.elitism]), (tournaments, points, bits)


def test_breeding_draws_do_not_depend_on_the_fitnesses():
    rng = np.random.default_rng(8)
    population = rng.random((9, 12)) < 0.5
    cfg = GAConfig(population_size=9, crossover_prob=0.7, mutation_prob=0.6, elitism=2)
    fits_a = rng.normal(size=9)
    fits_b = -fits_a
    fits_b[[1, 4]] = EMPTY_MASK_FITNESS
    results = []
    for fits in (fits_a, fits_b):
        expected, draws = _contract_breed(population, fits, cfg, np.random.default_rng(80))
        table = next(_pair_draws(np.random.default_rng(80), 9, 4, 12, cfg))
        assert (table[:, :4].ravel().tolist(), table[:, 4].tolist(),
                table[:, 5:].ravel().tolist()) == draws
        tables = _pair_draws(np.random.default_rng(80), 9, 4, 12, cfg)
        children = _breed(population, fits, cfg, next(tables))[cfg.elitism:]
        np.testing.assert_array_equal(children, expected)
        results.append((children, draws, next(tables).tolist()))
    (children_a, draws_a, next_a), (children_b, draws_b, next_b) = results
    assert draws_a == draws_b and next_a == next_b
    assert not np.array_equal(children_a, children_b)


def _scalar_pair_draws(rng, size, pairs, n, cfg):
    """Tournaments, points and bits of `pairs` pairs, from numpy's calls in the documented order."""
    tournaments, points, bits = [], [], []
    for _ in range(pairs):
        for _ in range(2):
            tournaments += rng.integers(0, size, size=2).tolist()
        crosses = rng.random() < cfg.crossover_prob and n > 1
        points.append(int(rng.integers(1, n)) if crosses else n)
        for _ in range(2):
            bits.append(int(rng.integers(0, n)) if rng.random() < cfg.mutation_prob else -1)
    return tournaments, points, bits


# (population size, elitism): the pair count is (size - elitism + 1) // 2. Size
# 2**31 + 1 is no population a GAConfig accepts; passed straight to the parser,
# it has about half of the tournament draws rejected.
PARSER_SIZES = [(2, 0), (2, 1), (9, 0), (9, 3), (50, 1), (2**31 + 1, 2**31 - 80)]


@pytest.mark.parametrize("size, elitism", PARSER_SIZES, ids=lambda v: str(v))
@pytest.mark.parametrize("n", [1, 2, 117])
def test_pair_draws_equal_the_scalar_replay(size, elitism, n):
    # each generation's table against numpy's scalar calls, replayed in the documented order
    pairs = (size - elitism + 1) // 2
    for crossover, mutation in ((1.0, 0.9), (0.6, 0.0), (0.0, 1.0), (0.3, 0.5)):
        cfg = GAConfig(crossover_prob=crossover, mutation_prob=mutation)
        for seed in range(6):
            rng, reference = np.random.default_rng(seed), np.random.default_rng(seed)
            if seed % 2:  # start with a high half in numpy's buffer
                assert int(rng.integers(0, 50)) == int(reference.integers(0, 50))
            tables = _pair_draws(rng, size, pairs, n, cfg)
            for _ in range(3):
                table = next(tables)
                tournaments, points, bits = _scalar_pair_draws(reference, size, pairs, n, cfg)
                assert table.shape == (pairs, 7)
                assert table[:, :4].ravel().tolist() == tournaments
                assert table[:, 4].tolist() == points
                assert table[:, 5:].ravel().tolist() == bits
