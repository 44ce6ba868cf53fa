"""The draws of a numpy PCG64 Generator, computed from its raw words.

`select` (the GA's tournaments, crossovers and mutations) and `synthkit`
(every grain's centre, radius and grey value) draw through one replay,
`_DrawReplay`, which gives numpy's values bit for bit and costs far less
than one numpy call per scalar.

It follows numpy's rules exactly. `random()` is `(word >> 11) * 2**-53`.
`uniform(low, high)` is `low + (high - low) * random()`, numpy's
`random_uniform`. A bounded draw over r values takes 32-bit halves
through PCG64's one-half buffer (`has_uint32`/`uinteger`, seeded from
`bit_generator.state`): a fresh word gives its low half and keeps its
high half for the next bounded draw. Lemire's multiply-shift ("Fast
random integer generation in an interval", ACM TOMACS 2019) maps a half
u to `(u * r) >> 32` and rejects it while `(u * r) mod 2**32 < (2**32 -
r) % r`. A range of one value (`integers(lo, lo + 1)`) returns lo and
draws nothing.

Besides the scalar calls there are two bulk forms, with the same values:

- `block`, k repeats of a fixed pattern (synthesis's grains): some
  uniform draws, then bounded draws in pairs. With the half buffer empty
  at the start, each repeat takes one word per uniform draw and one word
  per pair of bounded draws, its low half for the first and its high
  half for the second, and leaves the buffer empty again. So numpy
  computes the whole block from one fetch of raw words. It falls back to
  the scalar calls when a half is already buffered, when a range holds
  one value (that draw takes no half), or when any half is rejected; the
  words it fetched are put back first.
- `gated`, k repeats of steps that each draw a bounded integer, some only
  when a `random()` falls below a probability (the GA's breeding). One
  loop reads the words and the half buffer itself, with each step's
  rejection threshold computed once and rejections handled inline.

The words come from `bit_generator.random_raw` in bulk, so the generator
runs ahead of the draws. Fetching ahead cannot be observed as long as
nothing else draws from the generator once the replay holds it.
"""

from __future__ import annotations

import math
from itertools import chain, islice

import numpy as np

WORDS_PER_FETCH = 1024  # raw generator words fetched by one random_raw call


class _DrawReplay:
    """The draws of a numpy PCG64 Generator, computed from its raw words.

    `random`, `uniform` and `integers` return what the generator's own
    `random()`, `uniform(low, high)` and `integers(low, high)` calls would
    return next, in the same order; a `size=k` call of `integers` is k
    calls of `integers` here. `block` and `gated` return what a sequence of
    those calls would. The generator must not be used for anything else
    afterwards.
    """

    def __init__(self, rng: np.random.Generator):
        state = rng.bit_generator.state
        assert state["bit_generator"] == "PCG64", state["bit_generator"]
        self._fetch = rng.bit_generator.random_raw
        self._held = False  # whether the stream may hold fetched words not yet drawn
        # an endless stream: iter(f, None) calls f for ever, since f never returns None
        self._words = chain.from_iterable(iter(self._chunk, None))
        self._half = state["uinteger"] if state["has_uint32"] else None

    def _chunk(self) -> list[int]:
        self._held = True
        return self._fetch(WORDS_PER_FETCH).tolist()

    def _raw(self, count: int) -> np.ndarray:
        """The stream's next `count` words as uint64, fetched in one call if none is held."""
        if self._held:
            return np.fromiter(islice(self._words, count), np.uint64, count)
        return self._fetch(count)

    def random(self) -> float:
        """A double in [0, 1) from the top 53 bits of one word."""
        return (next(self._words) >> 11) * 2.0**-53

    def uniform(self, low: float, high: float) -> float:
        """A double in [low, high), numpy's `random_uniform` rule."""
        return low + (high - low) * self.random()

    def integers(self, low: int, high: int) -> int:
        """An integer in [low, high) by Lemire's multiply-shift over 32-bit halves."""
        span = high - low
        assert 1 <= span <= 2**32, span  # numpy's 64-bit path is never asked for
        if span == 1:
            return low  # numpy draws nothing for a single value
        reject_below = (2**32 - span) % span
        while True:
            if self._half is None:
                word = next(self._words)
                half, self._half = word & 0xFFFFFFFF, word >> 32
            else:
                half, self._half = self._half, None
            m = half * span
            if m & 0xFFFFFFFF >= reject_below:
                return low + (m >> 32)

    def block(self, count: int, uniforms, integers) -> tuple[np.ndarray, np.ndarray]:
        """`count` repeats of `uniform(low, high)` for each (low, high) of `uniforms`,
        then `integers(low, high)` for each (low, high) of `integers`.

        Returns the uniform draws as a (len(uniforms), count) float64 array
        and the integer draws as a (len(integers), count) int64 array. The
        integer draws come in pairs, each pair sharing one word's halves.
        """
        assert len(integers) % 2 == 0, integers
        spans = [high - low for low, high in integers]
        if self._half is None and all(span > 1 for span in spans):
            words = self._raw(count * (len(uniforms) + len(integers) // 2))
            table = words.reshape(count, len(uniforms) + len(integers) // 2).T
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
            self._words = chain(words.tolist(), self._words)  # put them back for the scalar calls
            self._held = True
        rows = [[self.uniform(*b) for b in uniforms] + [self.integers(*b) for b in integers]
                for _ in range(count)]
        floats = np.array([row[: len(uniforms)] for row in rows], dtype=np.float64)
        ints = np.array([row[len(uniforms) :] for row in rows], dtype=np.int64)
        return floats.reshape(count, len(uniforms)).T, ints.reshape(count, len(integers)).T

    def gated(self, count: int, steps) -> list[int]:
        """The integers of `count` repeats of `steps`, in draw order.

        Each step is (gate, low, high, skip). With gate None it draws
        `integers(low, high)`. Otherwise it draws `random()` and then
        `integers(low, high)` when that double is below gate; if not, it
        gives skip and draws nothing more. `random() < gate` holds exactly
        when the word is below ceil(gate * 2**53) * 2**11, since
        `random()` is `(word >> 11) * 2**-53` and scaling by 2**53 is exact.
        """
        plan = []
        for gate, low, high, skip in steps:
            span = high - low
            limit = None if gate is None else math.ceil(gate * 2.0**53) << 11
            assert limit == 0 or 1 <= span <= 2**32, span  # as in `integers`
            plan.append((limit, low, span, (2**32 - span) % span if span > 1 else 0, skip))
        words, half = self._words, self._half
        out = []
        append = out.append
        for limit, low, span, reject_below, skip in plan * count:
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
        self._half = half
        return out
