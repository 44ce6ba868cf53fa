import numpy as np
import pytest

from granulom import draws
from granulom.draws import WORDS_PER_FETCH


# --- block and gated against numpy's own Generator calls ---------------------------
# Every synthesised grain's draws come from `block` and the GA's draws after its
# first population from `gated`; each must give what numpy's PCG64 Generator's own
# calls give, draw for draw. The spans cover a single value (numpy draws nothing),
# the GA's 2, 50 and 117, 2**31 + 1 (about half of its 32-bit draws are rejected)
# and 2**32 (numpy's full-range path). Uniform bounds are synthesis's (0.0, size)
# or two random doubles of any scale in ascending order.

REPLAY_SPANS = (1, 2, 50, 117, 2**31 + 1, 2**32)


def _uniform_bounds(pick):
    if pick.random() < 0.5:
        return 0.0, float(pick.integers(1, 4097))
    low, high = sorted(pick.normal(scale=10.0 ** int(pick.integers(-3, 10)), size=2).tolist())
    return low, high


def _generators(seed, buffered):
    """Two generators from `seed`; with `buffered`, each holds a high half in its buffer."""
    reference, rng = np.random.default_rng(seed), np.random.default_rng(seed)
    if buffered:
        assert int(reference.integers(0, 50)) == int(rng.integers(0, 50))
        assert rng.bit_generator.state["has_uint32"] == 1
    return reference, rng


class _Counting:
    """A Generator that counts its `uniform` and `integers` calls, `block`'s fallback."""

    def __init__(self, rng):
        self.rng = rng
        self.bit_generator = rng.bit_generator
        self.calls = 0

    def uniform(self, low, high):
        self.calls += 1
        return self.rng.uniform(low, high)

    def integers(self, low, high):
        self.calls += 1
        return self.rng.integers(low, high)


def _numpy_block(rng, count, uniforms, integers):
    rows = [[rng.uniform(*b) for b in uniforms] + [int(rng.integers(*b)) for b in integers]
            for _ in range(count)]
    k = len(uniforms)
    return [row[:k] for row in rows], [row[k:] for row in rows]


def _next_draws(rng):
    return [int(rng.integers(0, 117)), rng.random(), int(rng.integers(0, 2**31 + 1)),
            *rng.integers(0, 50, size=2).tolist()]


def _check_block(seed, count, uniforms, integers, buffered=False):
    """Assert that `block` gives numpy's draws; return whether it fell back to numpy's calls."""
    reference, rng = _generators(seed, buffered)
    counting = _Counting(rng)
    floats, ints = draws.block(counting, count, uniforms, integers)
    assert floats.shape == (len(uniforms), count) and floats.dtype == np.float64
    assert ints.shape == (len(integers), count) and ints.dtype == np.int64
    want_floats, want_ints = _numpy_block(reference, count, uniforms, integers)
    assert floats.T.tolist() == want_floats
    assert ints.T.tolist() == want_ints
    # the generator itself goes on where numpy's does, half buffer included
    assert _next_draws(rng) == _next_draws(reference)
    # the fallback makes every call of the block or none
    assert counting.calls in (0, count * (len(uniforms) + len(integers)))
    return counting.calls > 0


def _block_pattern(seed):
    """A random block: a count, uniform bounds and integer ranges in pairs."""
    pick = np.random.default_rng([seed, 1])
    uniforms = [_uniform_bounds(pick) for _ in range(int(pick.integers(0, 3)))]
    integers = []
    for _ in range(2 * int(pick.integers(0, 3))):
        low = int(pick.integers(-3, 3))
        integers.append((low, low + REPLAY_SPANS[int(pick.integers(0, len(REPLAY_SPANS)))]))
    return int(pick.integers(0, 6)), uniforms, integers


def _gated_steps(seed):
    """Random `gated` steps: gates None, 0.0, 1.0 or in between, over the spans above."""
    pick = np.random.default_rng([seed, 3])
    steps = []
    for _ in range(int(pick.integers(1, 6))):
        gate = (None, 0.0, 1.0, float(pick.random()))[int(pick.integers(0, 4))]
        low = int(pick.integers(-3, 3))
        steps.append((gate, low, low + REPLAY_SPANS[int(pick.integers(0, len(REPLAY_SPANS)))], -7))
    return steps


def _numpy_gated(rng, count, steps):
    out = []
    for _ in range(count):
        for gate, low, high, skip in steps:
            if gate is None or rng.random() < gate:
                out.append(int(rng.integers(low, high)))
            else:
                out.append(skip)
    return out


def test_draw_replay_matches_numpy_over_2000_seeds():
    for seed in range(2000):
        buffered = seed % 2 == 1  # odd seeds start with a high half in numpy's buffer
        _check_block(seed, *_block_pattern(seed), buffered=buffered)
        reference, rng = _generators(seed, buffered)
        count, steps = int(np.random.default_rng([seed, 2]).integers(0, 6)), _gated_steps(seed)
        generations = draws.gated(rng, count, steps)
        for _ in range(3):
            assert next(generations) == _numpy_gated(reference, count, steps), seed


def test_draw_replay_across_fetches():
    # about two words a repeat: each generation reads past two fetch boundaries, at
    # different offsets, and the next generation starts inside a fetched chunk
    steps = [(None, 0, 2**32, None), (0.5, 0, 117, -1), (None, 0, 50, None)]
    for seed in range(5):
        reference, rng = _generators(seed, buffered=bool(seed % 2))
        generations = draws.gated(rng, WORDS_PER_FETCH, steps)
        for _ in range(3):
            assert next(generations) == _numpy_gated(reference, WORDS_PER_FETCH, steps), seed


def test_draw_replay_rejects_64_bit_spans():
    # `gated` replays only numpy's 32-bit path, and says so when it is called
    with pytest.raises(AssertionError):
        draws.gated(np.random.default_rng(0), 1, [(None, 0, 2**32 + 1, None)])


def test_draw_replay_checks_for_pcg64_when_called():
    rng = np.random.Generator(np.random.MT19937(0))
    with pytest.raises(AssertionError, match="MT19937"):
        draws.gated(rng, 1, [(None, 0, 2, None)])  # before any next()
    with pytest.raises(AssertionError, match="MT19937"):
        draws.block(rng, 1, [], [(0, 2), (0, 2)])


# --- block's bulk path and numpy's calls --------------------------------------------

GRAIN_BOUNDS = ([(0.0, 96.0), (0.0, 96.0)], [(2, 9), (-40, 201)])


@pytest.mark.parametrize("count", [0, 1, 2, 3, 500, WORDS_PER_FETCH])
def test_block_equals_numpy(count):
    for seed in range(20):
        assert not _check_block(seed, count, *GRAIN_BOUNDS)
    # uniform bounds of any scale
    pick = np.random.default_rng(count)
    for seed in range(5):
        uniforms = [_uniform_bounds(pick) for _ in range(3)]
        assert not _check_block(seed, count, uniforms, GRAIN_BOUNDS[1])
    # no uniform draw; pairs over the widest 32-bit span, 2 values and 120 values
    assert not _check_block(7, count, [], [(0, 2**32), (0, 2), (5, 7), (-3, 117)])


def test_block_falls_back_with_a_buffered_half():
    for seed in range(20):
        assert _check_block(seed, 40, *GRAIN_BOUNDS, buffered=True)


def test_block_falls_back_on_a_span_of_one():
    for integers in ([(4, 5), (-40, 201)], [(2, 9), (7, 8)], [(1, 2), (0, 1)]):
        for seed in range(10):
            assert _check_block(seed, 40, GRAIN_BOUNDS[0], integers)


def test_block_falls_back_on_a_64_bit_span():
    for integers in ([(0, 2**32 + 1), (2, 9)], [(2, 9), (-5, 2**40)]):
        for seed in range(10):
            assert _check_block(seed, 20, GRAIN_BOUNDS[0], integers)


def test_block_falls_back_on_a_rejected_half():
    # over 2**31 + 1 values about half of the 32-bit halves are rejected
    for integers in ([(2, 9), (0, 2**31 + 1)], [(0, 2**31 + 1), (2, 9)]):
        for seed in range(10):
            assert _check_block(seed, 20, GRAIN_BOUNDS[0], integers)
    # over 2**32 - 2**24 values one half in 256 is rejected: about half of these
    # blocks meet one late, after the words were fetched, and rewind the generator
    integers = [(0, 2**32 - 2**24), (0, 3)]
    fallbacks = [_check_block(seed, 200, [(0.0, 1.0)], integers)
                 for seed in range(40)]
    assert 5 < sum(fallbacks) < 35


# --- gated: one generation per next() ------------------------------------------------

@pytest.mark.parametrize("steps", [
    [(None, 0, 50, None)] * 4 + [(0.7, 1, 117, 117)] + [(0.9, 0, 117, -1)] * 2,
    [(None, 0, 9, None), (0.0, 1, 1, 1), (1.0, 0, 1, -1), (0.5, 3, 4, -1)],
    [(None, 0, 2**31 + 1, None), (0.5, 0, 2**32, -1), (0.25, -5, 2**31 - 4, -1)],
    [(1e-300, 0, 7, -1), (0.999999, 0, 2, -1)],
], ids=["ga", "single-values", "rejections", "extreme-gates"])
def test_gated_equals_numpy(steps):
    for seed in range(30):
        # odd seeds start with a high half in numpy's buffer
        reference, rng = _generators(seed, buffered=bool(seed % 2))
        count = int(np.random.default_rng([seed, 2]).integers(0, 3 * WORDS_PER_FETCH // 7))
        generations = draws.gated(rng, count, steps)
        for _ in range(3):
            assert next(generations) == _numpy_gated(reference, count, steps), seed
