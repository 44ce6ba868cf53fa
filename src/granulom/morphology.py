"""Flat grey-scale erosion, dilation, opening and closing.

Structuring elements come in three families: hexagon (6-connectivity
emulated on the square raster with row-parity-alternating offsets),
square (8-neighbourhood) and diamond (4-neighbourhood). A size-r element
is the r-fold dilation of the unit neighbourhood, so sizes compose
additively and openings of increasing size form a sieve.

Border rule: the neighbourhood is clamped to the image domain; pixels
outside the frame are ignored.

Every operator works on one raster or on a stack of equal-size rasters,
shape (..., H, W). Size 1 and the diamond family apply the unit
neighbourhood r times. A larger hexagon or square is computed in one
pass, as a Minkowski sum of segments:

- Hexagon. Shearing the odd-row grid, q = x - y//2, gives axial
  coordinates in which the size-r hexagon is the set of offsets (dr, dq)
  with |dr|, |dq|, |dr + dq| <= r. That set is the sum of the three
  segments {0..r}.e for e = (0, 1), (1, -1) and (-1, 0).
- Square. The sum of the segments {-r..r}.(0, 1) and {-r..r}.(1, 0).

The frames are written into flat padded buffers, sheared for the
hexagon. There each direction is one constant offset, and a segment is a
running min/max over r+1 (or 2r+1) shifted copies, built by doubling in
about log2(r) passes. References: van Herk, Pattern Recognition Letters
13 (1992), and Gil & Werman, IEEE PAMI 15(5) (1993), on running max/min
along a segment; Soille, Morphological Image Analysis (2003), on
decomposing structuring elements into segments.

Why padding gives the clamped rule: the margin around each frame holds
the neutral value, 255 for erosion and 0 for dilation. It is wide enough
to keep every intermediate value that a later segment carries back into
the frame. The segments then give the extremum over the whole size-r
element, padding included. A neutral cell never decides a min or a
max, and the centre pixel is always inside the frame. So the result is
the extremum over the element clipped to the frame, which is the
clamped rule exactly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DataError
from .imagecore import GreyImage

__all__ = [
    "FAMILIES",
    "StructuringElement",
    "se_family",
    "erode",
    "dilate",
    "opening",
    "closing",
    "volume",
    "area_nonzero",
]

FAMILIES = ("hexagon", "square", "diamond")

_ALIASES = {
    "hex": "hexagon",
    "hexagon": "hexagon",
    "square": "square",
    "diamond": "diamond",
}

# (dy, dx) neighbour offsets, origin excluded (it is applied implicitly).
_SQUARE = ((-1, -1), (-1, 0), (-1, 1), (0, -1), (0, 1), (1, -1), (1, 0), (1, 1))
_DIAMOND = ((-1, 0), (0, -1), (0, 1), (1, 0))
_HEX_COMMON = ((-1, 0), (0, -1), (0, 1), (1, 0))
_HEX_EVEN = ((-1, -1), (1, -1))  # extra diagonals when the centre row is even
_HEX_ODD = ((-1, 1), (1, 1))


def se_family(name: str) -> str:
    """Canonicalize a family name, accepting the 'hex' shorthand."""
    try:
        return _ALIASES[name.lower()]
    except KeyError:
        raise DataError(f"unknown structuring-element family {name!r}") from None


@dataclass(frozen=True)
class StructuringElement:
    """A size-parameterized probe shape; size 0 is the single origin pixel."""

    family: str
    size: int

    def __post_init__(self):
        object.__setattr__(self, "family", se_family(self.family))
        if not isinstance(self.size, (int, np.integer)) or self.size < 0:
            raise DataError(f"size must be a non-negative integer, got {self.size!r}")
        object.__setattr__(self, "size", int(self.size))


def _fold_offset(acc: np.ndarray, src: np.ndarray, dy: int, dx: int, op, parity=None) -> None:
    """acc[..., y, x] = op(acc[..., y, x], src[..., y+dy, x+dx]) where the shift stays in frame."""
    h, w = src.shape[-2:]
    y0, y1 = max(0, -dy), min(h, h - dy)
    x0, x1 = max(0, -dx), min(w, w - dx)
    if parity is not None and y0 % 2 != parity:
        y0 += 1
    if y0 >= y1 or x0 >= x1:
        return
    step = 1 if parity is None else 2
    dst = acc[..., y0:y1:step, x0:x1]
    op(dst, src[..., y0 + dy : y1 + dy : step, x0 + dx : x1 + dx], out=dst)


def _unit_step(arr: np.ndarray, family: str, op) -> np.ndarray:
    acc = arr.copy()
    if family == "square":
        offsets = _SQUARE
    elif family == "diamond":
        offsets = _DIAMOND
    else:
        offsets = _HEX_COMMON
    for dy, dx in offsets:
        _fold_offset(acc, arr, dy, dx, op)
    if family == "hexagon":
        for dy, dx in _HEX_EVEN:
            _fold_offset(acc, arr, dy, dx, op, parity=0)
        for dy, dx in _HEX_ODD:
            _fold_offset(acc, arr, dy, dx, op, parity=1)
    return acc


def _window(src: np.ndarray, spare: np.ndarray, step: int, count: int, op):
    """Running op over src[i + k*step] for k < count; terms past the end drop out.

    Doubling: each pass folds in a copy shifted by the span covered so far
    (capped at what is still missing), so log2(count) passes; src and spare
    swap roles every pass. Returns (result, spare).
    """
    span = 1
    while span < count:
        shift = min(span, count - span) * step
        op(src[:-shift], src[shift:], out=spare[:-shift])
        spare[-shift:] = src[-shift:]
        src, spare = spare, src
        span += shift // step
    return src, spare


def _frame(buf: np.ndarray, start: int, width: int, shear: int, h: int, w: int):
    """Even and odd rows of an (n, h, w) frame placed in n flat padded images.

    Frame pixel (y, x) of image i is buf[i, start + y*width - shear*(y//2) + x].
    A row pair advances 2*width - shear, so one reshape gives both views.
    """
    pitch, pairs = 2 * width - shear, (h + 1) // 2
    rows = buf[:, start : start + pairs * pitch].reshape(len(buf), pairs, pitch)
    return rows[:, :, :w], rows[:, : h // 2, width : width + w]


def _segment_extremum(arr: np.ndarray, family: str, r: int, op) -> np.ndarray:
    """Size-r hexagon or square extremum in one pass over padded flat images."""
    h, w = arr.shape[-2:]
    stack = arr.reshape(-1, h, w)
    info = np.iinfo(arr.dtype)
    neutral = info.max if op is np.minimum else info.min
    if family == "hexagon":
        shear, left, rows = 1, r + (h - 1) // 2, r + h + 2
        width = left + w
        steps = ((1, r + 1), (width - 1, r + 1), (width, r + 1))
        # the third segment runs down, (1, 0), so the sum sits r rows low
        lag = r * width
    else:
        shear, left, rows = 0, r, h + 2 * r
        width = left + w + r
        steps = ((1, 2 * r + 1), (width, 2 * r + 1))
        lag = r * width + r
    put = r * width + left
    buf = np.full((len(stack), rows * width), neutral, dtype=arr.dtype)
    even, odd = _frame(buf, put, width, shear, h, w)
    even[...] = stack[:, 0::2]
    odd[...] = stack[:, 1::2]
    flat, spare = buf.reshape(-1), np.empty(buf.size, dtype=arr.dtype)
    for step, count in steps:
        flat, spare = _window(flat, spare, step, count, op)
    even, odd = _frame(flat.reshape(buf.shape), put - lag, width, shear, h, w)
    out = np.empty_like(stack)
    out[:, 0::2] = even
    out[:, 1::2] = odd
    return out.reshape(arr.shape)


def _extremum(arr: np.ndarray, family: str, size: int, op) -> np.ndarray:
    if size == 0:
        return arr.copy()
    if size == 1 or family == "diamond":
        out = arr
        for _ in range(size):
            out = _unit_step(out, family, op)
        return out
    return _segment_extremum(arr, family, size, op)


def erode_raw(arr: np.ndarray, family: str, size: int) -> np.ndarray:
    """Erosion of an integer raster or a stack of them, shape (..., H, W)."""
    return _extremum(arr, family, size, np.minimum)


def dilate_raw(arr: np.ndarray, family: str, size: int) -> np.ndarray:
    """Dilation of an integer raster or a stack of them, shape (..., H, W)."""
    return _extremum(arr, family, size, np.maximum)


def erode(f: GreyImage, se: StructuringElement) -> GreyImage:
    """Minimum of f over the size-r neighbourhood of each pixel."""
    return GreyImage(erode_raw(f.pixels, se.family, se.size))


def dilate(f: GreyImage, se: StructuringElement) -> GreyImage:
    """Maximum of f over the size-r neighbourhood (all families are symmetric)."""
    return GreyImage(dilate_raw(f.pixels, se.family, se.size))


def opening(f: GreyImage, se: StructuringElement) -> GreyImage:
    """Erosion followed by dilation: anti-extensive, increasing, idempotent."""
    return GreyImage(dilate_raw(erode_raw(f.pixels, se.family, se.size), se.family, se.size))


def closing(f: GreyImage, se: StructuringElement) -> GreyImage:
    """Dilation followed by erosion: extensive, increasing, idempotent."""
    return GreyImage(erode_raw(dilate_raw(f.pixels, se.family, se.size), se.family, se.size))


def volume(f: GreyImage) -> int:
    """Sum of all pixel values."""
    return int(f.pixels.sum(dtype=np.int64))


def area_nonzero(f: GreyImage) -> int:
    """Count of pixels with a non-zero value."""
    return int(np.count_nonzero(f.pixels))
