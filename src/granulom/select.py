"""Genetic-algorithm feature selection wrapping a 1-NN classifier.

Individuals are binary feature masks. Fitness rewards test-set hits and
penalizes mask size linearly: alpha*hits - beta*nf. The loop is a
canonical generational GA: binary tournament selection, single-point
crossover, per-chromosome single-bit mutation, elitism, optional
stagnation stop. Everything is driven by one seeded generator, so runs
are reproducible bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .classify import FeatureMask, _ordered_training, squared_difference_table, summed_rows
from .errors import DataError
from .features import Dataset

__all__ = [
    "GAConfig",
    "GenerationStats",
    "GARunReport",
    "fitness",
    "evaluate_individual",
    "run_ga",
    "write_mask",
    "read_mask",
    "EMPTY_MASK_FITNESS",
]

EMPTY_MASK_FITNESS = float("-inf")


@dataclass(frozen=True)
class GAConfig:
    population_size: int = 50
    generations: int = 100
    crossover_prob: float = 1.0
    mutation_prob: float = 0.9
    alpha: float = 0.6
    beta: float = 0.4
    seed: int = 0
    stagnation_limit: int | None = None  # generations without improvement; None disables
    elitism: int = 1
    enforce_weight_sum: bool = True  # require alpha + beta == 1

    def __post_init__(self):
        if self.population_size < 2:
            raise DataError("population_size must be >= 2")
        if self.generations < 0:
            raise DataError("generations must be >= 0")
        for name in ("crossover_prob", "mutation_prob"):
            p = getattr(self, name)
            if not 0.0 <= p <= 1.0:
                raise DataError(f"{name} must lie in [0, 1], got {p}")
        if self.alpha < 0 or self.beta < 0:
            raise DataError("alpha and beta must be non-negative")
        if self.enforce_weight_sum and abs(self.alpha + self.beta - 1.0) > 1e-9:
            raise DataError(
                f"alpha + beta = {self.alpha + self.beta} != 1 "
                "(pass enforce_weight_sum=False to override)"
            )
        if not 0 <= self.elitism < self.population_size:
            raise DataError("elitism must lie in [0, population_size)")
        if self.stagnation_limit is not None and self.stagnation_limit < 1:
            raise DataError("stagnation_limit must be >= 1 or None")


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
    seed: int
    cache_hits: int  # objective calls answered from the mask cache
    evaluations: int  # objective calls that scored a mask

    @property
    def selected_features(self) -> tuple[int, ...]:
        """1-based indices of the selected features, ascending."""
        return self.best_mask.indices_1based()

    @property
    def final_recognition_rate(self) -> float:
        return self.best_hits / self.eval_total if self.eval_total else 0.0

    def to_csv(self, path) -> None:
        lines = ["gen,best,median,min,best_nf"]
        for row in self.history:
            lines.append(
                f"{row.generation},{row.best_fitness:.12g},{row.median_fitness:.12g},"
                f"{row.min_fitness:.12g},{row.best_feature_count}"
            )
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write("\n".join(lines) + "\n")


def fitness(hits: int, nf: int, alpha: float, beta: float) -> float:
    """Linear wrapper objective: alpha*hits - beta*nf."""
    if hits < 0:
        raise DataError("hits must be >= 0")
    if nf < 1:
        raise DataError("nf must be >= 1")
    return alpha * hits - beta * nf


class _WrapperObjective:
    """1-NN hit counting for masks over a fixed train/eval pair, memoized.

    The squared-difference table over all features is built once; a mask's
    distances are the sum of its rows.
    """

    def __init__(self, train: Dataset, eval_set: Dataset, cfg: GAConfig):
        if train.n_features != eval_set.n_features:
            raise DataError("train and eval sets must share the feature layout")
        if train.n_samples == 0 or eval_set.n_samples == 0:
            raise DataError("train and eval sets must be non-empty")
        self.cfg = cfg
        _, _, train_labels, train_matrix = _ordered_training(train)
        codes = {lab: i for i, lab in enumerate(sorted(set(train_labels)))}
        self.train_codes = np.array([codes[lab] for lab in train_labels])
        self.sq = squared_difference_table(eval_set.matrix, train_matrix)
        self.eval_codes = np.array([codes.get(lab, -1) for lab in eval_set.labels])
        self.eval_total = eval_set.n_samples
        self.cache: dict[bytes, tuple[int, int, float]] = {}
        self.cache_hits = 0

    def __call__(self, bits: np.ndarray) -> tuple[int, int, float]:
        key = bits.tobytes()
        hit = self.cache.get(key)
        if hit is not None:
            self.cache_hits += 1
            return hit
        nf = int(bits.sum())
        if nf == 0:
            result = (0, 0, EMPTY_MASK_FITNESS)
        else:
            d2 = summed_rows(self.sq, np.flatnonzero(bits))
            nearest = np.argmin(d2, axis=1)  # first occurrence = smallest sample id
            hits = int((self.train_codes[nearest] == self.eval_codes).sum())
            result = (hits, nf, fitness(hits, nf, self.cfg.alpha, self.cfg.beta))
        self.cache[key] = result
        return result


def evaluate_individual(
    mask: FeatureMask, train: Dataset, eval_set: Dataset, cfg: GAConfig
) -> tuple[int, int, float]:
    """(hits, nf, fitness) for one mask; empty masks get the -inf sentinel."""
    if len(mask) != train.n_features:
        raise DataError(f"mask length {len(mask)} != feature count {train.n_features}")
    return _WrapperObjective(train, eval_set, cfg)(mask.bits)


def _population_stats(generation: int, fits: np.ndarray, nfs: np.ndarray) -> GenerationStats:
    best = int(np.argmax(fits))
    return GenerationStats(
        generation,
        float(fits[best]),
        float(np.median(fits)),
        float(fits.min()),
        int(nfs[best]),
    )


def run_ga(train: Dataset, eval_set: Dataset, cfg: GAConfig) -> GARunReport:
    """Evolve feature masks; deterministic given cfg.seed."""
    objective = _WrapperObjective(train, eval_set, cfg)
    n = train.n_features
    rng = np.random.default_rng(cfg.seed)

    population = rng.random((cfg.population_size, n)) < 0.5

    def assess(pop: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        triples = [objective(ind) for ind in pop]
        hits = np.array([t[0] for t in triples])
        nfs = np.array([t[1] for t in triples])
        fits = np.array([t[2] for t in triples])
        return hits, nfs, fits

    hits, nfs, fits = assess(population)
    history = [_population_stats(0, fits, nfs)]

    best_i = int(np.argmax(fits))
    best_bits = population[best_i].copy()
    best_fit = float(fits[best_i])
    best_hits = int(hits[best_i])
    stale = 0
    stop_reason = "max_generations"

    for gen in range(1, cfg.generations + 1):
        if cfg.stagnation_limit is not None and stale >= cfg.stagnation_limit:
            stop_reason = "stagnation"
            break

        ranked = sorted(range(cfg.population_size), key=lambda i: (-fits[i], i))
        next_pop = [population[i].copy() for i in ranked[: cfg.elitism]]
        while len(next_pop) < cfg.population_size:
            pair = []
            for _ in range(2):
                i, j = rng.integers(0, cfg.population_size, size=2)
                winner = i if fits[i] >= fits[j] else j
                pair.append(population[winner].copy())
            child_a, child_b = pair
            if rng.random() < cfg.crossover_prob and n > 1:
                point = int(rng.integers(1, n))
                child_a, child_b = (
                    np.concatenate([pair[0][:point], pair[1][point:]]),
                    np.concatenate([pair[1][:point], pair[0][point:]]),
                )
            for child in (child_a, child_b):
                if rng.random() < cfg.mutation_prob:
                    bit = int(rng.integers(0, n))
                    child[bit] = ~child[bit]
            next_pop.append(child_a)
            if len(next_pop) < cfg.population_size:
                next_pop.append(child_b)

        population = np.array(next_pop)
        hits, nfs, fits = assess(population)
        history.append(_population_stats(gen, fits, nfs))

        gen_best = int(np.argmax(fits))
        if fits[gen_best] > best_fit:
            best_fit = float(fits[gen_best])
            best_bits = population[gen_best].copy()
            best_hits = int(hits[gen_best])
            stale = 0
        else:
            stale += 1

    return GARunReport(
        history=history,
        best_mask=FeatureMask(best_bits),
        best_fitness=best_fit,
        best_hits=best_hits,
        eval_total=objective.eval_total,
        generations_run=history[-1].generation,
        stop_reason=stop_reason,
        seed=cfg.seed,
        cache_hits=objective.cache_hits,
        evaluations=len(objective.cache),
    )


def write_mask(mask: FeatureMask, path) -> None:
    """Single line of 0/1 characters."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(mask.to_string() + "\n")


def read_mask(path) -> FeatureMask:
    with open(path, "r", encoding="utf-8") as fh:
        return FeatureMask.from_string(fh.read())
