import re

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import hls_pixel
from granulom.errors import DataError
from granulom.imagecore import (
    ColorImage,
    GreyImage,
    _half_up,
    intensity,
    read_pgm,
    read_ppm,
    to_hls,
    write_pgm,
    write_ppm,
)


def test_grey_image_invariants():
    img = GreyImage(np.array([[0, 128], [255, 7]]))
    assert img.width == 2 and img.height == 2
    with pytest.raises(DataError):
        GreyImage(np.array([[0, 300]]))
    with pytest.raises(DataError):
        GreyImage(np.array([[-1, 0]]))
    with pytest.raises(DataError):
        GreyImage(np.array([0, 1, 2]))  # not 2-D
    for values, dtype in ((np.array([[0.5, 1.7]]), "float64"), (np.array([["a"]]), "<U1")):
        with pytest.raises(DataError, match=f"^GreyImage values must be integers, got dtype {dtype}$"):
            GreyImage(values)
    assert GreyImage(np.array([[True, False]])).pixels.tolist() == [[1, 0]]


def test_color_image_invariants():
    ColorImage(np.zeros((2, 3, 3), dtype=np.uint8))
    with pytest.raises(DataError):
        ColorImage(np.zeros((2, 3, 4), dtype=np.uint8))
    for values, dtype in ((np.zeros((1, 2, 3)), "float64"), (np.full((1, 1, 3), "a"), "<U1")):
        with pytest.raises(DataError, match=f"^ColorImage values must be integers, got dtype {dtype}$"):
            ColorImage(values)


# --- PGM / PPM -----------------------------------------------------------------

def test_read_pgm_p5(tmp_path):
    p = tmp_path / "a.pgm"
    p.write_bytes(b"P5\n2 2\n255\n" + bytes([0, 128, 255, 7]))
    img = read_pgm(p)
    assert img.pixels.tolist() == [[0, 128], [255, 7]]


def test_pgm_roundtrip_byte_identical(tmp_path):
    raw = b"P5\n3 2\n255\n" + bytes([9, 0, 255, 17, 4, 200])
    p = tmp_path / "a.pgm"
    p.write_bytes(raw)
    q = tmp_path / "b.pgm"
    write_pgm(read_pgm(p), q)
    assert q.read_bytes() == raw


def test_pgm_ascii_and_comments(tmp_path):
    p = tmp_path / "a.pgm"
    p.write_text("P2 # comment\n# another\n2 2\n255\n0 128\n255 7\n")
    assert read_pgm(p).pixels.tolist() == [[0, 128], [255, 7]]


def test_pgm_errors(tmp_path):
    p = tmp_path / "a.pgm"
    p.write_bytes(b"P5\n2 2\n65535\n" + bytes(8))
    with pytest.raises(DataError, match="^maxval 65535 exceeds 255$"):
        read_pgm(p)
    p.write_bytes(b"P7\n2 2\n255\n" + bytes(4))
    with pytest.raises(DataError, match="^bad magic b'P7', expected one of "):
        read_pgm(p)
    p.write_bytes(b"P5\n2 2\n255\n" + bytes(3))
    with pytest.raises(DataError, match="^raster holds 3 bytes, expected 4$"):
        read_pgm(p)
    p.write_bytes(b"P5\n2 x\n255\n" + bytes(4))
    with pytest.raises(DataError, match="^non-numeric header field b'x'$"):
        read_pgm(p)


@pytest.mark.parametrize("reader,magic,channels", [(read_pgm, b"P5", 1), (read_pgm, b"P2", 1),
                                                   (read_ppm, b"P6", 3), (read_ppm, b"P3", 3)])
def test_samples_above_maxval_are_rejected_in_both_encodings(tmp_path, reader, magic, channels):
    samples = [3] * (2 * channels - 1) + [200]
    raster = bytes(samples) if magic in (b"P5", b"P6") else " ".join(map(str, samples)).encode()
    p = tmp_path / "a.pnm"
    p.write_bytes(magic + b"\n2 1\n15\n" + raster)
    with pytest.raises(DataError, match="sample value 200 exceeds maxval 15"):
        reader(p)
    p.write_bytes(magic + b"\n2 1\n200\n" + raster)
    assert int(reader(p).pixels.max()) == 200


def test_read_ppm_p6(tmp_path):
    p = tmp_path / "a.ppm"
    p.write_bytes(b"P6\n1 1\n255\n" + bytes([10, 20, 30]))
    img = read_ppm(p)
    assert tuple(int(v) for v in img.pixels[0, 0]) == (10, 20, 30)


def test_ppm_roundtrip_and_bad_magic(tmp_path):
    raw = b"P6\n2 1\n255\n" + bytes([1, 2, 3, 4, 5, 6])
    p = tmp_path / "a.ppm"
    p.write_bytes(raw)
    q = tmp_path / "b.ppm"
    write_ppm(read_ppm(p), q)
    assert q.read_bytes() == raw
    p.write_bytes(b"P4\n1 1\n255\n" + bytes(3))
    with pytest.raises(DataError, match="^bad magic b'P4', expected one of "):
        read_ppm(p)

# --- netpbm token rule -------------------------------------------------------------

# (reader, file bytes, expected pixel rows or the whole DataError message)
_NETPBM_TABLE = [
    (read_pgm, b"P9\nnope", "bad magic b'P9', expected one of (b'P5', b'P2')"),
    (read_pgm, b"P2\n3 1\n15\n99 x 1\n", "sample value 99 exceeds maxval 15"),
    (read_pgm, b"P2\n2 1\n15\n3 99999999999999999999\n",
     "sample value 99999999999999999999 exceeds maxval 15"),
    (read_pgm, b"P2#c\n2#d\n1 255#e\n7#f\n8 9 10\n", [[7, 8]]),
    (read_pgm, b"P2\n2 1\n255\n7 # mid\n 8\n", [[7, 8]]),
    (read_pgm, b"P2\x0b2\x0c1\r255\t1 2", [[1, 2]]),
    (read_pgm, b"P2\n2 2\n255\n0 1 2\n", "raster holds 3 samples, expected 4"),
    (read_pgm, b"P2\n2 2\n15\n7 x\n", "non-numeric sample b'x'"),
    (read_pgm, b"P5\n2 2", "unexpected end of file in header"),
    (read_pgm, b"P5\n1 1\n255#c\n\x07", "missing whitespace after maxval"),
    (read_ppm, b"P3\n1 1\n15\n99 x 1\n", "sample value 99 exceeds maxval 15"),
    (read_ppm, b"P3\n1 1\n15\n3 4 99999999999999999999\n",
     "sample value 99999999999999999999 exceeds maxval 15"),
    (read_ppm, b"P3#c\n1#d\n1 255#e\n7#f\n8 9#g\n10\n", [[[7, 8, 9]]]),
    (read_ppm, b"P3\n1 1\n255\n7 # mid\n 8 9\n", [[[7, 8, 9]]]),
    (read_ppm, b"P3\x0b1\x0c1\r255\t1 2\x0b3", [[[1, 2, 3]]]),
    (read_ppm, b"P3\n2 1\n255\n0 1 2\n", "raster holds 3 samples, expected 6"),
    (read_ppm, b"P6\n1 1\n255#c\n\x07\x08\x09", "missing whitespace after maxval"),
]


@pytest.mark.parametrize("reader,data,expected", _NETPBM_TABLE)
def test_netpbm_token_rule(tmp_path, reader, data, expected):
    """Whitespace and # comments (to the end of their line) may separate any two tokens."""
    p = tmp_path / "a.pnm"
    p.write_bytes(data)
    if isinstance(expected, str):
        with pytest.raises(DataError, match="^" + re.escape(expected) + "$"):
            reader(p)
    else:
        assert reader(p).pixels.tolist() == expected


# --- intensity -------------------------------------------------------------------

def test_intensity_examples():
    img = ColorImage(np.array([[[100, 150, 200]], [[0, 0, 0]]]))
    assert intensity(img).pixels.tolist() == [[150], [0]]
    assert intensity(ColorImage(np.array([[[255, 255, 255]]]))).pixels[0, 0] == 255
    assert intensity(ColorImage(np.array([[[1, 1, 2]]]))).pixels[0, 0] == 1  # round(4/3)


def test_intensity_rounds_every_channel_sum_half_up():
    s = np.arange(766)
    first = np.minimum(s, 255)
    second = np.minimum(s - first, 255)
    split = np.stack([first, second, s - first - second], axis=-1)  # every sum 0..765
    img = ColorImage(np.stack([np.roll(split, shift, axis=-1) for shift in range(3)]))
    expected = np.floor(s / 3 + 0.5)
    assert all(np.array_equal(row, expected) for row in intensity(img).pixels)


def test_intensity_equal_planes_identity(rng):
    plane = rng.integers(0, 256, (6, 5))
    img = ColorImage(np.stack([plane, plane, plane], axis=-1))
    assert np.array_equal(intensity(img).pixels, plane)


# --- HLS -------------------------------------------------------------------------

def test_hls_pixel_examples():
    assert hls_pixel(90, 90, 90) == (0, 90, 0)
    assert hls_pixel(255, 0, 0) == (0, 128, 255)
    assert hls_pixel(0, 255, 0) == (120, 128, 255)
    assert hls_pixel(0, 0, 255) == (240, 128, 255)


# Every colour over these channel values: all greys, both saturation branches (138
# chromatic colours with max + min = 255, 108 with 256) and (255, 0, 1), whose hue
# rounds to 360 and wraps to 0.
_GRID_VALUES = [0, 1, 2, 63, 64, 127, 128, 129, 191, 254, 255]
_GRID = np.stack(np.meshgrid(_GRID_VALUES, _GRID_VALUES, _GRID_VALUES, indexing="ij"),
                 axis=-1).reshape(11, 121, 3)


def test_to_hls_matches_scalar(rng):
    for px in (rng.integers(0, 256, (5, 4, 3)), _GRID):
        img = ColorImage(px)
        hls = to_hls(img)
        for y, x in np.ndindex(px.shape[:2]):
            ref = hls_pixel(*(int(v) for v in px[y, x]))
            assert tuple(hls[y, x]) == ref


def test_to_hls_is_one_read_only_uint16_array():
    hls = to_hls(ColorImage(np.zeros((2, 3, 3), dtype=np.uint8)))
    assert hls.shape == (2, 3, 3) and hls.dtype == np.uint16 and not hls.flags.writeable


def test_half_up_matches_the_float_rounding_of_every_hls_quotient():
    """Every (numerator, divisor) pair to_hls forms rounds as the float expressions do."""
    # saturation 255d / q with 1 <= d <= q <= 255
    q, d = np.tril_indices(256)
    q, d = q[d >= 1], d[d >= 1]
    assert np.array_equal(_half_up(255 * d, q), np.floor(255.0 * d / q + 0.5))
    # lightness t / 2 with 0 <= t <= 510
    t = np.arange(511)
    assert np.array_equal(_half_up(t, 2), np.floor(t / 2 + 0.5))
    # hue 60x / d + c with 1 <= d <= 255 and -d <= x <= d; the red sector wraps first
    d = np.repeat(np.arange(1, 256), 2 * np.arange(1, 256) + 1)
    x = np.concatenate([np.arange(-k, k + 1) for k in range(1, 256)])
    for c in (0, 120, 240):
        hue = 60.0 * x / d + c if c else (60.0 * x / d) % 360.0
        assert np.array_equal(_half_up(60 * x + c * d, d) % 360, np.floor(hue + 0.5) % 360)


@given(st.integers(0, 255), st.integers(0, 255), st.integers(0, 255))
def test_hls_ranges_and_achromatic_rule(r, g, b):
    h, l, s = hls_pixel(r, g, b)
    assert tuple(to_hls(ColorImage(np.array([[[r, g, b]]])))[0, 0]) == (h, l, s)
    assert 0 <= h <= 359 and 0 <= l <= 255 and 0 <= s <= 255
    assert (s == 0) == (r == g == b)
    if s == 0:
        assert h == 0
