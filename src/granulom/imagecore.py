"""Image types, PGM/PPM file I/O and colour-space reductions.

Grey and colour rasters are thin immutable wrappers around uint8 numpy
arrays. Binary netpbm (P5/P6) is the canonical on-disk format; the ASCII
variants (P2/P3) are accepted on read only. One rule reads every token,
the four header fields and each ASCII sample: any whitespace and # comments,
each comment running to the end of its line, may sit between two tokens.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

import numpy as np

from .errors import DataError

__all__ = [
    "GreyImage",
    "ColorImage",
    "read_pgm",
    "read_ppm",
    "write_pgm",
    "write_ppm",
    "intensity",
    "to_hls",
]


def _as_uint8(arr: np.ndarray, what: str) -> np.ndarray:
    """Read-only uint8 copy of an integer raster whose values lie in [0, 255]."""
    if not (np.issubdtype(arr.dtype, np.integer) or arr.dtype == np.bool_):
        raise DataError(f"{what} values must be integers, got dtype {arr.dtype}")
    if arr.size and (arr.min() < 0 or arr.max() > 255):
        raise DataError(f"{what} values must lie in [0, 255]")
    out = arr.astype(np.uint8, copy=True)
    out.flags.writeable = False
    return out


class _Raster:
    """Size, equality and repr shared by the uint8 image types."""

    @property
    def width(self) -> int:
        return self.pixels.shape[1]

    @property
    def height(self) -> int:
        return self.pixels.shape[0]

    def __eq__(self, other) -> bool:
        if not isinstance(other, type(self)):
            return NotImplemented
        return self.pixels.shape == other.pixels.shape and bool(
            np.array_equal(self.pixels, other.pixels)
        )

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.width}x{self.height})"


@dataclass(frozen=True, eq=False, repr=False)
class GreyImage(_Raster):
    """A grey-level raster: integer values in [0, 255] on a rectangular grid."""

    pixels: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.pixels)
        if arr.ndim != 2:
            raise DataError(f"GreyImage must be a 2-D raster, got shape {arr.shape}")
        object.__setattr__(self, "pixels", _as_uint8(arr, "GreyImage"))


@dataclass(frozen=True, eq=False, repr=False)
class ColorImage(_Raster):
    """An RGB raster: uint8 pixels of shape (h, w, 3), channels r, g, b."""

    pixels: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.pixels)
        if arr.ndim != 3 or arr.shape[2] != 3:
            raise DataError(f"ColorImage needs shape (h, w, 3), got {arr.shape}")
        object.__setattr__(self, "pixels", _as_uint8(arr, "ColorImage"))


# --- netpbm -----------------------------------------------------------------

_WHITESPACE = b" \t\n\r\x0b\x0c"
# Whitespace and # comments (each to the end of its line), then one token. The token
# matches empty only at the end of the data, so a match never backtracks into a comment.
_TOKEN = re.compile(rb"(?:[%s]|#[^\n]*)*([^%s#]*)" % (_WHITESPACE, _WHITESPACE))


def _next_token(data: bytes, pos: int) -> tuple[bytes, int]:
    """Return the next header token and the position just after it."""
    m = _TOKEN.match(data, pos)
    if not m.group(1):
        raise DataError("unexpected end of file in header")
    return m.group(1), m.end()


def _parse_header(data: bytes, magics: tuple[bytes, ...]) -> tuple[bytes, int, int, int, int]:
    magic, pos = _next_token(data, 0)
    if magic not in magics:
        raise DataError(f"bad magic {magic!r}, expected one of {magics}")
    dims = []
    for _ in range(3):
        tok, pos = _next_token(data, pos)
        if not tok.isdigit():
            raise DataError(f"non-numeric header field {tok!r}")
        dims.append(int(tok))
    width, height, maxval = dims
    if width < 1 or height < 1:
        raise DataError(f"bad dimensions {width}x{height}")
    if maxval > 255:
        raise DataError(f"maxval {maxval} exceeds 255")
    if maxval < 1:
        raise DataError(f"bad maxval {maxval}")
    return magic, width, height, maxval, pos


def _read_binary_raster(data: bytes, pos: int, count: int, maxval: int) -> np.ndarray:
    # exactly one whitespace byte separates maxval from the raster
    if pos >= len(data) or data[pos : pos + 1] not in _WHITESPACE:
        raise DataError("missing whitespace after maxval")
    pos += 1
    raster = data[pos : pos + count]
    if len(raster) < count:
        raise DataError(f"raster holds {len(raster)} bytes, expected {count}")
    values = np.frombuffer(raster, dtype=np.uint8)
    over = values[values > maxval]
    if over.size:
        raise DataError(f"sample value {over[0]} exceeds maxval {maxval}")
    return values


def _read_ascii_raster(data: bytes, pos: int, count: int, maxval: int) -> np.ndarray:
    values = []
    for tok in _TOKEN.findall(data, pos)[:count]:
        if not tok:  # the empty token at the end of the data
            raise DataError(f"raster holds {len(values)} samples, expected {count}")
        if not tok.isdigit():
            raise DataError(f"non-numeric sample {tok!r}")
        v = int(tok)
        if v > maxval:
            raise DataError(f"sample value {v} exceeds maxval {maxval}")
        values.append(v)
    return np.array(values, dtype=np.uint8)


def _read_pnm(path, channels: int) -> np.ndarray:
    """Raster of a binary (P5/P6) or ASCII (P2/P3) netpbm file, (h, w) or (h, w, 3)."""
    binary, ascii_ = (b"P5", b"P2") if channels == 1 else (b"P6", b"P3")
    with open(path, "rb") as fh:
        data = fh.read()
    magic, width, height, maxval, pos = _parse_header(data, (binary, ascii_))
    read_raster = _read_binary_raster if magic == binary else _read_ascii_raster
    flat = read_raster(data, pos, width * height * channels, maxval)
    return flat.reshape((height, width) if channels == 1 else (height, width, channels))


def read_pgm(path) -> GreyImage:
    """Read a P5 (binary) or P2 (ASCII) PGM file with maxval <= 255."""
    return GreyImage(_read_pnm(path, 1))


def read_ppm(path) -> ColorImage:
    """Read a P6 (binary) or P3 (ASCII) PPM file with maxval <= 255."""
    return ColorImage(_read_pnm(path, 3))


def _write_pnm(img: _Raster, path, magic: bytes) -> None:
    with open(path, "wb") as fh:
        fh.write(b"%s\n%d %d\n255\n" % (magic, img.width, img.height))
        fh.write(img.pixels.tobytes())


def write_pgm(img: GreyImage, path) -> None:
    """Write canonical binary PGM: single-whitespace header, maxval 255."""
    _write_pnm(img, path, b"P5")


def write_ppm(img: ColorImage, path) -> None:
    """Write canonical binary PPM: single-whitespace header, maxval 255."""
    _write_pnm(img, path, b"P6")


# --- colour reductions ------------------------------------------------------

def _half_up(n, q):
    """floor(n/q + 1/2) of integers n and q > 0, exactly: every reduction rounds so."""
    return (2 * n + q) // (2 * q)


def intensity(img: ColorImage) -> GreyImage:
    """Average the three channels, rounding half up."""
    r, g, b = (img.pixels[..., c].astype(np.int32) for c in range(3))
    return GreyImage(_half_up(r + g + b, 3).astype(np.uint8))


def to_hls(img: ColorImage) -> np.ndarray:
    """Double-hexcone HLS of every pixel; achromatic hue canonicalized to 0.

    A read-only uint16 array of shape (h, w, 3), channels h, l, s: hue lies
    in [0, 359], lightness and saturation in [0, 255]. Each channel is an
    integer quotient rounded half up; a grey pixel (d = 0) has hue and
    saturation numerators 0, so both read 0.
    """
    r, g, b = (img.pixels[..., c].astype(np.int32) for c in range(3))
    mx = np.maximum(np.maximum(r, g), b)
    mn = np.minimum(np.minimum(r, g), b)
    d = mx - mn
    t = mx + mn
    sector = np.where(
        mx == r, 60 * (g - b), np.where(mx == g, 60 * (b - r) + 120 * d, 60 * (r - g) + 240 * d)
    )
    out = np.empty(img.pixels.shape, dtype=np.uint16)
    out[..., 0] = _half_up(sector, np.maximum(d, 1)) % 360
    out[..., 1] = _half_up(t, 2)
    out[..., 2] = _half_up(255 * d, np.maximum(np.minimum(t, 510 - t), 1))
    out.flags.writeable = False
    return out

