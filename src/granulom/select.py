"""Genetic-algorithm feature selection wrapping a 1-NN classifier.

Individuals are binary feature masks. Fitness rewards eval-set hits and
penalizes mask size linearly: alpha*hits - beta*nf. The loop is a
canonical generational GA: binary tournament selection, single-point
crossover, per-chromosome single-bit mutation, elitism, optional
stagnation stop. Everything is driven by one seeded generator, so runs
are reproducible bit for bit.

The generator's draws are a contract: the GA golden tests pin them. The
first population is one `random((population_size, n))` matrix. Then each
pair of children draws, in this order: `integers(0, size, size=2)` for
tournament A and then for tournament B; `random()` for crossover and,
when it crosses over and n > 1, `integers(1, n)` for the point; then
`random()` for child A's mutation and, when it mutates, `integers(0, n)`
for the bit; then the same for child B. Child B draws even when only one
slot is left for it.

After the first population these draws are not numpy calls: they come
from `draws.gated`, which computes numpy's PCG64 draws bit for bit from
raw words fetched in bulk. Fetching words ahead cannot be observed,
since the generator belongs to `run_ga` and nothing else draws from it.
No draw depends on a mask or on a fitness: a tournament draws its two
indices whichever wins. So `_pair_draws` gives one iterator of every
later generation's tournament pairs, crossover points and mutation bits,
from a step list that spells out the order above; the winners are then
picked from the fitnesses and the children built in a fixed number of
array operations.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import draws
from .classify import (
    FeatureMask,
    _training_rows,
    live_columns,
    squared_rows,
    summed_rows,
)
from .csvrows import read_text, write_lines
from .errors import DataError
from .features import Dataset

__all__ = [
    "GAConfig",
    "GenerationStats",
    "GARunReport",
    "run_ga",
    "write_mask",
    "read_mask",
    "EMPTY_MASK_FITNESS",
    "MAX_POPULATION",
]

EMPTY_MASK_FITNESS = float("-inf")
# The largest population a GAConfig accepts: the first population's float
# draws for 117 features take about 1 GB at this size.
MAX_POPULATION = 2**20


@dataclass(frozen=True)
class GAConfig:
    """GA settings; the defaults are the [ga] run of the shipped pipeline.cfg."""

    population_size: int = 50
    generations: int = 814
    crossover_prob: float = 1.0
    mutation_prob: float = 0.9
    alpha: float = 0.6
    beta: float = 0.4
    seed: int = 12957
    stagnation_limit: int = 0  # generations without improvement before a stop; 0 never stops
    elitism: int = 1

    def __post_init__(self):
        if not 2 <= self.population_size <= MAX_POPULATION:
            raise DataError(
                f"population_size must lie in [2, {MAX_POPULATION}], got {self.population_size}"
            )
        if self.generations < 0:
            raise DataError("generations must be >= 0")
        for name in ("crossover_prob", "mutation_prob"):
            p = getattr(self, name)
            if not 0.0 <= p <= 1.0:
                raise DataError(f"{name} must lie in [0, 1], got {p}")
        if not np.isfinite([self.alpha, self.beta]).all():
            raise DataError(f"alpha and beta must be finite, got {self.alpha} and {self.beta}")
        if self.alpha < 0 or self.beta < 0:
            raise DataError("alpha and beta must be non-negative")
        if self.seed < 0:
            raise DataError(f"GA seed must be non-negative, got {self.seed}")
        if abs(self.alpha + self.beta - 1.0) > 1e-9:
            raise DataError(f"alpha + beta = {self.alpha + self.beta} != 1")
        if not 0 <= self.elitism < self.population_size:
            raise DataError("elitism must lie in [0, population_size)")
        if self.stagnation_limit is None:  # perfbench's traced replay still passes None for 0
            object.__setattr__(self, "stagnation_limit", 0)
        if self.stagnation_limit < 0:
            raise DataError(f"stagnation_limit must be >= 0, got {self.stagnation_limit}")


@dataclass(frozen=True)
class GenerationStats:
    generation: int
    best_fitness: float
    median_fitness: float
    min_fitness: float
    best_feature_count: int


@dataclass
class GARunReport:
    history: list[GenerationStats]
    best_mask: FeatureMask
    best_fitness: float
    best_hits: int
    eval_total: int
    generations_run: int
    stop_reason: str  # "max_generations" | "stagnation"
    distance_sums: int  # masks whose distances were summed: one per distinct live projection

    @property
    def selected_features(self) -> tuple[int, ...]:
        """1-based indices of the selected features, ascending."""
        return self.best_mask.indices_1based()

    @property
    def final_recognition_rate(self) -> float:
        return self.best_hits / self.eval_total

    def to_csv(self, path) -> None:
        lines = ["gen,best,median,min,best_nf"]
        for row in self.history:
            lines.append(
                f"{row.generation},{row.best_fitness:.12g},{row.median_fitness:.12g},"
                f"{row.min_fitness:.12g},{row.best_feature_count}"
            )
        write_lines(path, lines)


class _WrapperObjective:
    """1-NN hit counting for populations of masks over a fixed train/eval pair, memoized.

    The squared-difference rows come from `classify.squared_rows`, the
    classifiers' own generator, over the live columns only
    (`classify.live_columns`): a column that holds one value adds +0.0 to
    every distance, which changes no bit of it. A mask's distances are
    `classify.summed_rows` of its live rows (none for a mask of dead bits
    only) into one reused buffer: the sum the classifiers stream, so the
    bits are theirs. Two masks with the same live bits therefore have
    bitwise equal distances, the same nearest neighbours and the same hits,
    so hits are memoized by the live bits and each live projection is
    summed once. `nf` still counts every selected bit.

    Live keys are packed bits: `score` packs a population's live block
    eight bits to a byte (`np.packbits`) into one byte string, and each
    row's key is its ceil(n/8)-byte slice: 7 bytes for the shipped run's
    52 live columns, and b"" when no column is live.
    `hits_by_live` maps each summed live projection's packed bits to its
    hits, and is the one record of the masks scored.
    """

    def __init__(self, train: Dataset, eval_set: Dataset, cfg: GAConfig):
        if train.n_features != eval_set.n_features:
            raise DataError("train and eval sets must share the feature layout")
        if train.n_samples == 0 or eval_set.n_samples == 0:
            raise DataError("train and eval sets must be non-empty")
        if train.n_features == 0:
            raise DataError("no features to select from")
        self.cfg = cfg
        _, train_labels, train_matrix = _training_rows(train)
        # object arrays compare labels as str ==, as classify does; a str dtype drops trailing NULs
        self.train_labels = np.array(train_labels, dtype=object)
        self.eval_labels = np.array(eval_set.labels, dtype=object)
        self.live = live_columns(eval_set.matrix, train_matrix)
        self.sq = list(squared_rows(eval_set.matrix, train_matrix, self.live))
        self.d2 = np.empty((eval_set.n_samples, train.n_samples))
        self.hits_by_live: dict[bytes, int] = {}

    def score(self, population: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(hits, nfs, fits) of each row of a (rows, n) bool population.

        fits is the wrapper fitness alpha*hits - beta*nf, and
        EMPTY_MASK_FITNESS where nf is 0.
        """
        nfs = np.count_nonzero(population, axis=1)
        live = population[:, self.live]
        packed = np.packbits(live, axis=1)
        # row r's key is its slice: tobytes writes C order whatever order the column gather gives
        width, keys = packed.shape[1], packed.tobytes()
        hits = np.array(
            [self._hits(keys[r * width:(r + 1) * width], bits) if nf else 0
             for r, (bits, nf) in enumerate(zip(live, nfs.tolist()))],
            dtype=np.int64,
        )
        fits = np.where(nfs == 0, EMPTY_MASK_FITNESS, self.cfg.alpha * hits - self.cfg.beta * nfs)
        return hits, nfs, fits

    def _hits(self, key: bytes, live_bits: np.ndarray) -> int:
        """1-NN hits over the live rows `live_bits` selects, summed once per projection."""
        hits = self.hits_by_live.get(key)
        if hits is None:
            rows = live_bits.nonzero()[0].tolist()  # Python ints index a list fastest
            # argmin takes the first occurrence: the smallest sample id among ties
            nearest = summed_rows(map(self.sq.__getitem__, rows), out=self.d2).argmin(axis=1)
            hits = int(np.count_nonzero(self.train_labels[nearest] == self.eval_labels))
            self.hits_by_live[key] = hits
        return hits


def _pair_draws(rng: np.random.Generator, size: int, pairs: int, n: int, cfg: GAConfig):
    """An endless iterator of per-generation (pairs, 7) tables of each pair's
    draws, in draw order: tournament A's rows i and j, tournament B's i and
    j, the crossover point, and child A's and child B's mutation bits.

    A pair that does not cross over gets point n and a child that does not
    mutate gets bit -1, so neither changes anything.
    """
    # at n == 1 no point is drawn after the random(): random() < 0.0 never holds
    cross = cfg.crossover_prob if n > 1 else 0.0
    steps = [(None, 0, size, None)] * 4 + [(cross, 1, n, n)] + [(cfg.mutation_prob, 0, n, -1)] * 2
    return (np.reshape(ints, (pairs, len(steps))) for ints in draws.gated(rng, pairs, steps))


def _breed(population: np.ndarray, fits: np.ndarray, cfg: GAConfig, table: np.ndarray) -> np.ndarray:
    """The next population: the elites by rank, then children in pairs from
    one `_pair_draws` table."""
    size, n = population.shape
    pairs = len(table)
    i, j = table[:, :4].reshape(2 * pairs, 2).T
    # a tie goes to the first index drawn
    winners = np.where(fits[i] >= fits[j], i, j)
    parents = population[winners.reshape(pairs, 2)]
    cols = np.arange(n)
    # child A takes B's genes from the point on and child B takes A's
    offspring = np.where(cols >= table[:, 4, None, None], parents[:, ::-1], parents)
    offspring ^= cols == table[:, 5:, None]
    # stable: equal fitnesses keep population order, so ties go to the lower row
    elites = population[np.argsort(-fits, kind="stable")[: cfg.elitism]]
    # child B of the last pair is dropped when only one slot is left for it
    return np.concatenate([elites, offspring.reshape(2 * pairs, n)[: size - cfg.elitism]])


def _median(fits: np.ndarray) -> float:
    """np.median's value, bit for bit, from one sort: the middle entry, or the mean of the two.

    Exact because no fitness is -0.0 (alpha*hits - beta*nf is +0.0 where
    the terms are equal), so the sort has no zeros of two signs to order.
    """
    ranked = np.sort(fits)
    mid = ranked.size // 2
    return float(ranked[mid] if ranked.size % 2 else (ranked[mid - 1] + ranked[mid]) / 2)


def run_ga(train: Dataset, eval_set: Dataset, cfg: GAConfig) -> GARunReport:
    """Evolve feature masks; deterministic given cfg.seed."""
    objective = _WrapperObjective(train, eval_set, cfg)
    rng = np.random.default_rng(cfg.seed)
    size = cfg.population_size
    population = rng.random((size, train.n_features)) < 0.5
    tables = _pair_draws(rng, size, (size - cfg.elitism + 1) // 2, train.n_features, cfg)
    history = []
    stale = 0
    stop_reason = "max_generations"

    for gen in range(cfg.generations + 1):
        if gen:
            if cfg.stagnation_limit and stale >= cfg.stagnation_limit:
                stop_reason = "stagnation"
                break
            population = _breed(population, fits, cfg, next(tables))
        hits, nfs, fits = objective.score(population)
        best = int(np.argmax(fits))
        history.append(
            GenerationStats(gen, float(fits[best]), _median(fits), float(fits.min()), int(nfs[best]))
        )
        if gen == 0 or fits[best] > best_fit:
            best_bits, best_fit, best_hits = population[best], float(fits[best]), int(hits[best])
            stale = 0
        else:
            stale += 1

    return GARunReport(
        history=history,
        best_mask=FeatureMask(best_bits),
        best_fitness=best_fit,
        best_hits=best_hits,
        eval_total=eval_set.n_samples,
        generations_run=history[-1].generation,
        stop_reason=stop_reason,
        distance_sums=len(objective.hits_by_live),
    )


def write_mask(mask: FeatureMask, path) -> None:
    """Single line of 0/1 characters."""
    write_lines(path, [mask.to_string()])


def read_mask(path) -> FeatureMask:
    """The mask in a text file; a malformed one is a DataError naming the file."""
    text = read_text(path)
    try:
        return FeatureMask.from_string(text)
    except DataError as exc:
        raise DataError(f"{path}: {exc}") from None
