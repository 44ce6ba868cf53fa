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
