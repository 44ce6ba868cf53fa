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

The words come from `bit_generator.random_raw` in bulk, so the generator
runs ahead of the draws. Fetching ahead cannot be observed as long as
nothing else draws from the generator once the replay holds it.
"""

from __future__ import annotations

from itertools import chain

import numpy as np

WORDS_PER_FETCH = 1024  # raw generator words fetched by one random_raw call


class _DrawReplay:
    """The draws of a numpy PCG64 Generator, computed from its raw words.

    `random`, `uniform` and `integers` return what the generator's own
    `random()`, `uniform(low, high)` and `integers(low, high)` calls would
    return next, in the same order; a `size=k` call of `integers` is k
    calls of `integers` here. The generator must not be used for anything
    else afterwards.
    """

    def __init__(self, rng: np.random.Generator):
        state = rng.bit_generator.state
        assert state["bit_generator"] == "PCG64", state["bit_generator"]
        fetch = rng.bit_generator.random_raw
        # an endless stream: iter(f, None) calls f for ever, since f never returns None
        self._words = chain.from_iterable(iter(lambda: fetch(WORDS_PER_FETCH).tolist(), None))
        self._half = state["uinteger"] if state["has_uint32"] else None

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
