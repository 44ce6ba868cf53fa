"""The draws of a numpy PCG64 Generator, computed from its raw words.

`synthkit` (every grain's centre, radius and grey value) and `select`
(the GA's tournaments, crossovers and mutations) draw through the two
functions here, which give numpy's values bit for bit at far less than
one numpy call per scalar:

- `block(rng, count, uniforms, integers)`, k repeats of a fixed pattern
  (synthesis's grains): some `uniform(low, high)` draws, then bounded
  `integers(low, high)` draws in pairs.
- `gated(rng, count, steps)`, an endless iterator whose every `next()`
  gives one GA generation: k repeats of steps that each draw a bounded
  integer, some only when a `random()` falls below a probability.

They follow numpy's rules. `random()` is `(word >> 11) * 2**-53`, and
`uniform(low, high)` is `low + (high - low) * random()`, numpy's
`random_uniform`. A bounded draw over r values takes 32-bit halves
through PCG64's one-half buffer (`has_uint32`/`uinteger` in
`bit_generator.state`): a fresh word gives its low half and keeps its
high half for the next bounded draw. Lemire's multiply-shift ("Fast
random integer generation in an interval", ACM TOMACS 2019) maps a half
u to `(u * r) >> 32` and rejects it while `(u * r) mod 2**32 < (2**32 -
r) % r`. A range of one value returns its value and draws nothing.

`block` applies the rule to whole arrays. With the half buffer empty at
the start, each repeat takes one word per uniform draw and one word per
pair of bounded draws, its low half for the first and its high half for
the second, and leaves the buffer empty again; so numpy computes the
whole block from one `random_raw` fetch. Where that does not hold (a
half is buffered, a range holds one value, or any half is rejected, as
every half is over more than 2**32 values, whose threshold is 2**32)
`block` makes numpy's own `uniform` and `integers` calls instead, so
numpy is the fallback. For a rejected half it first rewinds the
generator to the state it saved before the fetch.

`gated` reads raw words in chunks of `WORDS_PER_FETCH` in one Python
loop, with each step's rejection threshold computed once and rejections
handled inline. The generator runs ahead of its draws, which cannot be
observed as long as nothing else draws from it once `gated` holds it.
"""

from __future__ import annotations

import math
from itertools import chain

import numpy as np

WORDS_PER_FETCH = 1024  # raw generator words fetched by one random_raw call in `gated`


def block(rng: np.random.Generator, count: int, uniforms, integers) -> tuple[np.ndarray, np.ndarray]:
    """`count` repeats of `rng.uniform(low, high)` for each (low, high) of
    `uniforms`, then `rng.integers(low, high)` for each (low, high) of
    `integers`; the generator goes on where those calls leave it.

    Returns the uniform draws as a (len(uniforms), count) float64 array
    and the integer draws as a (len(integers), count) int64 array. The
    integer draws come in pairs, each pair sharing one word's halves.
    """
    assert len(integers) % 2 == 0, integers
    saved = rng.bit_generator.state
    assert saved["bit_generator"] == "PCG64", saved["bit_generator"]
    spans = [high - low for low, high in integers]
    if not saved["has_uint32"] and all(span > 1 for span in spans):
        width = len(uniforms) + len(integers) // 2
        table = rng.bit_generator.random_raw(count * width).reshape(count, width).T
        bounds = np.array(uniforms, dtype=np.float64).reshape(-1, 2)
        start, stop = bounds[:, :1], bounds[:, 1:]
        floats = start + (stop - start) * ((table[: len(uniforms)] >> 11) * 2.0**-53)
        paired = table[len(uniforms) :]
        halves = np.stack([paired & 0xFFFFFFFF, paired >> 32], axis=1)
        m = halves.reshape(len(spans), count) * np.array(spans, dtype=np.uint64)[:, None]
        reject_below = np.array([(2**32 - s) % s for s in spans], dtype=np.uint64)
        if (m & 0xFFFFFFFF >= reject_below[:, None]).all():
            lows = np.array([low for low, _ in integers], dtype=np.int64)[:, None]
            return floats, lows + (m >> 32).astype(np.int64)
        rng.bit_generator.state = saved  # rewind: numpy's calls draw from the same words
    rows = [[rng.uniform(*b) for b in uniforms] + [rng.integers(*b) for b in integers]
            for _ in range(count)]
    floats = np.array([row[: len(uniforms)] for row in rows], dtype=np.float64)
    ints = np.array([row[len(uniforms) :] for row in rows], dtype=np.int64)
    return floats.reshape(count, len(uniforms)).T, ints.reshape(count, len(integers)).T


def gated(rng: np.random.Generator, count: int, steps):
    """An endless iterator; each `next()` gives the integers of `count`
    repeats of `steps`, in draw order, as a list.

    Each step is (gate, low, high, skip). With gate None it draws
    `integers(low, high)`. Otherwise it draws `random()` and then
    `integers(low, high)` when that double is below gate; if not, it
    gives skip and draws nothing more. `random() < gate` holds exactly
    when the word is below ceil(gate * 2**53) * 2**11, since `random()`
    is `(word >> 11) * 2**-53` and scaling by 2**53 is exact.

    The generator's state is read here, not at the first `next()`, and
    the generator must not be used for anything else afterwards.
    """
    state = rng.bit_generator.state
    assert state["bit_generator"] == "PCG64", state["bit_generator"]
    plan = []
    for gate, low, high, skip in steps:
        span = high - low
        limit = None if gate is None else math.ceil(gate * 2.0**53) << 11
        assert limit == 0 or 1 <= span <= 2**32, span  # numpy's 64-bit path is never asked for
        plan.append((limit, low, span, (2**32 - span) % span if span > 1 else 0, skip))
    fetch = rng.bit_generator.random_raw
    # an endless stream: iter(f, None) calls f for ever, since f never returns None
    words = chain.from_iterable(iter(lambda: fetch(WORDS_PER_FETCH).tolist(), None))
    half = state["uinteger"] if state["has_uint32"] else None
    return _generations(plan * count, words, half)


def _generations(plan, words, half):
    """`gated`'s loop: one list of integers per pass over `plan`."""
    while True:
        out = []
        append = out.append
        for limit, low, span, reject_below, skip in plan:
            if limit is not None and next(words) >= limit:
                append(skip)
                continue
            if span == 1:
                append(low)  # numpy draws nothing for a single value
                continue
            while True:
                if half is None:
                    word = next(words)
                    u, half = word & 0xFFFFFFFF, word >> 32
                else:
                    u, half = half, None
                m = u * span
                if m & 0xFFFFFFFF >= reject_below:
                    break
            append(low + (m >> 32))
        yield out
