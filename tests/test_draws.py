import numpy as np
import pytest

from granulom.draws import WORDS_PER_FETCH, _DrawReplay


# --- draw replay against numpy's own Generator calls --------------------------------
# The GA's draws after its first population and every synthesised grain's draws
# come from _DrawReplay, which must return what numpy's PCG64 Generator returns,
# draw for draw. The spans cover a single value (numpy draws nothing), the GA's
# 2, 50 and 117, 2**31 + 1 (about half of its 32-bit draws are rejected) and
# 2**32 (numpy's full-range path). Uniform bounds are synthesis's (0.0, size) or
# two random doubles of any scale in ascending order.

REPLAY_SPANS = (1, 2, 50, 117, 2**31 + 1, 2**32)


def _draw_script(seed, length=None):
    """A random mixed sequence of (kind, low, high) draws, from its own generator."""
    pick = np.random.default_rng([seed, 1])
    script = []
    for _ in range(length or int(pick.integers(1, 40))):
        kind = ("scalar", "pair", "random", "uniform")[int(pick.integers(0, 4))]
        if kind == "uniform":
            script.append((kind, *_uniform_bounds(pick)))
            continue
        low = int(pick.integers(0, 3)) if kind == "scalar" else 0
        script.append((kind, low, low + REPLAY_SPANS[int(pick.integers(0, len(REPLAY_SPANS)))]))
    return script


def _uniform_bounds(pick):
    if pick.random() < 0.5:
        return 0.0, float(pick.integers(1, 4097))
    low, high = sorted(pick.normal(scale=10.0 ** int(pick.integers(-3, 10)), size=2).tolist())
    return low, high


def _numpy_draws(rng, script):
    out = []
    for kind, low, high in script:
        if kind == "random":
            out.append(rng.random())
        elif kind == "uniform":
            out.append(rng.uniform(low, high))
        elif kind == "scalar":
            out.append(int(rng.integers(low, high)))
        else:
            out.extend(rng.integers(low, high, size=2).tolist())
    return out


def _replayed_draws(draws, script):
    out = []
    for kind, low, high in script:
        if kind == "random":
            out.append(draws.random())
        elif kind == "uniform":
            out.append(draws.uniform(low, high))
        else:
            out.extend(draws.integers(low, high) for _ in range(1 if kind == "scalar" else 2))
    return out


def test_draw_replay_matches_numpy_over_2000_seeds():
    for seed in range(2000):
        script = _draw_script(seed)
        reference, rng = np.random.default_rng(seed), np.random.default_rng(seed)
        if seed % 2:  # odd seeds start the replay with a high half in numpy's buffer
            first = [("scalar", 0, 50)]
            assert _numpy_draws(reference, first) == _numpy_draws(rng, first)
            assert rng.bit_generator.state["has_uint32"] == 1
        assert _replayed_draws(_DrawReplay(rng), script) == _numpy_draws(reference, script), seed


def test_draw_replay_buffered_half_then_pair():
    for seed in range(2000):
        reference = np.random.default_rng(seed)
        draws = _DrawReplay(np.random.default_rng(seed))
        first = int(reference.integers(0, 117))
        assert reference.bit_generator.state["has_uint32"] == 1  # the high half is kept
        expected = [first, *reference.integers(0, 50, size=2).tolist()]
        assert [draws.integers(0, 117), draws.integers(0, 50), draws.integers(0, 50)] == expected


def test_draw_replay_across_fetches():
    for seed in range(5):
        script = _draw_script(seed, length=3 * WORDS_PER_FETCH)
        expected = _numpy_draws(np.random.default_rng(seed), script)
        assert _replayed_draws(_DrawReplay(np.random.default_rng(seed)), script) == expected


def test_draw_replay_rejects_64_bit_spans():
    draws = _DrawReplay(np.random.default_rng(0))
    with pytest.raises(AssertionError):
        draws.integers(0, 2**32 + 1)


# --- bulk forms against numpy's own calls -------------------------------------------
# `block` repeats uniform draws and then pairs of bounded draws; `gated` repeats
# bounded draws, some behind a random() gate. Each must give what numpy's scalar
# calls give in the same order, and leave the stream where those calls leave it.

def _numpy_block(rng, count, uniforms, integers):
    rows = [[rng.uniform(*b) for b in uniforms] + [int(rng.integers(*b)) for b in integers]
            for _ in range(count)]
    k = len(uniforms)
    return [row[:k] for row in rows], [row[k:] for row in rows]


def _check_block(seed, count, uniforms, integers, buffered=False):
    """Assert that `block` gives numpy's draws; return whether it fell back to the scalar calls."""
    reference, rng = np.random.default_rng(seed), np.random.default_rng(seed)
    if buffered:  # numpy now holds the high half of a word
        assert int(reference.integers(0, 50)) == int(rng.integers(0, 50))
        assert rng.bit_generator.state["has_uint32"] == 1
    draws = _DrawReplay(rng)
    floats, ints = draws.block(count, uniforms, integers)
    assert floats.shape == (len(uniforms), count) and floats.dtype == np.float64
    assert ints.shape == (len(integers), count) and ints.dtype == np.int64
    want_floats, want_ints = _numpy_block(reference, count, uniforms, integers)
    assert floats.T.tolist() == want_floats
    assert ints.T.tolist() == want_ints
    fell_back = draws._held  # only the scalar calls read words through the stream
    # the stream goes on where numpy's does, half buffer included
    after = [("scalar", 0, 117), ("random", 0, 0), ("scalar", 0, 2**31 + 1), ("pair", 0, 50)]
    assert _replayed_draws(draws, after) == _numpy_draws(reference, after)
    return fell_back


GRAIN_BOUNDS = ([(0.0, 96.0), (0.0, 96.0)], [(2, 9), (-40, 201)])


@pytest.mark.parametrize("count", [0, 1, 2, 3, 500, WORDS_PER_FETCH])
def test_block_equals_numpy(count):
    for seed in range(20):
        assert not _check_block(seed, count, *GRAIN_BOUNDS)
    # no uniform draw; pairs over the widest 32-bit span, 2 values and 120 values
    assert not _check_block(7, count, [], [(0, 2**32), (0, 2), (5, 7), (-3, 117)])


def test_block_falls_back_with_a_buffered_half():
    for seed in range(20):
        assert _check_block(seed, 40, *GRAIN_BOUNDS, buffered=True)


def test_block_falls_back_on_a_span_of_one():
    for integers in ([(4, 5), (-40, 201)], [(2, 9), (7, 8)], [(1, 2), (0, 1)]):
        for seed in range(10):
            assert _check_block(seed, 40, GRAIN_BOUNDS[0], integers)


def test_block_falls_back_on_a_rejected_half():
    # over 2**31 + 1 values about half of the 32-bit halves are rejected
    for integers in ([(2, 9), (0, 2**31 + 1)], [(0, 2**31 + 1), (2, 9)]):
        for seed in range(10):
            assert _check_block(seed, 20, GRAIN_BOUNDS[0], integers)
    # over 2**32 - 2**24 values one half in 256 is rejected: about half of these
    # blocks meet one late, after the words were fetched, and put them back
    integers = [(0, 2**32 - 2**24), (0, 3)]
    fallbacks = [_check_block(seed, 200, [(0.0, 1.0)], integers)
                 for seed in range(40)]
    assert 5 < sum(fallbacks) < 35
def test_block_after_scalar_draws_takes_the_held_words_first():
    for seed in range(20):
        reference, rng = np.random.default_rng(seed), np.random.default_rng(seed)
        draws = _DrawReplay(rng)
        assert draws.random() == reference.random()  # the stream now holds fetched words
        floats, ints = draws.block(WORDS_PER_FETCH, *GRAIN_BOUNDS)
        want_floats, want_ints = _numpy_block(reference, WORDS_PER_FETCH, *GRAIN_BOUNDS)
        assert (floats.T.tolist(), ints.T.tolist()) == (want_floats, want_ints)
        assert draws.random() == reference.random()


def _numpy_gated(rng, count, steps):
    out = []
    for _ in range(count):
        for gate, low, high, skip in steps:
            if gate is None or rng.random() < gate:
                out.append(int(rng.integers(low, high)))
            else:
                out.append(skip)
    return out


@pytest.mark.parametrize("steps", [
    [(None, 0, 50, None)] * 4 + [(0.7, 1, 117, 117)] + [(0.9, 0, 117, -1)] * 2,
    [(None, 0, 9, None), (0.0, 1, 1, 1), (1.0, 0, 1, -1), (0.5, 3, 4, -1)],
    [(None, 0, 2**31 + 1, None), (0.5, 0, 2**32, -1), (0.25, -5, 2**31 - 4, -1)],
    [(1e-300, 0, 7, -1), (0.999999, 0, 2, -1)],
], ids=["ga", "single-values", "rejections", "extreme-gates"])
def test_gated_equals_numpy(steps):
    for seed in range(30):
        reference, rng = np.random.default_rng(seed), np.random.default_rng(seed)
        if seed % 2:  # start with a high half in numpy's buffer
            assert int(reference.integers(0, 50)) == int(rng.integers(0, 50))
        draws = _DrawReplay(rng)
        count = int(np.random.default_rng([seed, 2]).integers(0, 3 * WORDS_PER_FETCH // 7))
        assert draws.gated(count, steps) == _numpy_gated(reference, count, steps), seed
        after = [("scalar", 0, 117), ("random", 0, 0), ("pair", 0, 50)]
        assert _replayed_draws(draws, after) == _numpy_draws(reference, after)
