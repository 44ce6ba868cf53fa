"""Flat grey-scale erosion, dilation, opening and closing.

Structuring elements come in three families: hexagon (6-connectivity
emulated on the square raster with row-parity-alternating offsets),
square (8-neighbourhood) and diamond (4-neighbourhood). A size-r element
is the r-fold dilation of the unit neighbourhood, so sizes compose
additively and openings of increasing size form a sieve.

Border rule: the neighbourhood is clamped to the image domain; pixels
outside the frame are ignored. Every family's size-r element holds every
offset with |dy| + |dx| <= r, and two pixels of an h x w frame lie at most
h + w - 2 apart that way. So from r = h + w on, the element at any pixel
covers the whole frame, and a larger size is computed as size h + w.

Every operator works on one raster or on a stack of equal-size rasters,
shape (..., H, W). Every size r >= 1 of every family is computed in one
pass, as a Minkowski sum of segments or a union of two such sums:

- Hexagon. Shearing the odd-row grid, q = x - y//2, gives axial
  coordinates in which the size-r hexagon is the set of offsets (dr, dq)
  with |dr|, |dq|, |dr + dq| <= r. That set is the sum of the three
  segments {0..r}.e for e = (0, 1), (1, -1) and (-1, 0).
- Square. The sum of the segments {-r..r}.(0, 1) and {-r..r}.(1, 0).
- Diamond. S_s = {0..s}.(1, 1) + {0..s}.(1, -1), moved up s rows, is the
  set of offsets (dy, dx) with |dy| + |dx| <= s and dy + dx of the parity
  of s; S_0 is the origin. The size-r diamond {|dy| + |dx| <= r} is
  S_r | S_(r-1): an offset of the other parity within distance r lies
  within distance r - 1.

The frames are written into flat padded buffers, sheared for the
hexagon. There each direction is one constant offset, and a segment is a
running min/max over r+1 (or 2r+1) shifted copies, built by doubling in
about log2(r) passes. The min (max) over a union is the min (max) of the
terms' mins (maxes). References: van Herk, Pattern Recognition Letters
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
clamped rule exactly. A diamond term gives the extremum over its offsets
clipped to the frame, or the neutral value if none is left (S_s holds
the centre only for even s). The extremum of the two terms is then the
one over the clipped union, which holds the centre.
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
]

FAMILIES = ("hexagon", "square", "diamond")

_ALIASES = {
    "hex": "hexagon",
    "hexagon": "hexagon",
    "square": "square",
    "diamond": "diamond",
}


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


def _segment_sums(family: str, r: int, width: int):
    """(segments, lag) terms whose union is the size-r element in a buffer of row pitch width.

    Each segment is (flat step, count); a term's extremum at frame pixel p
    sits lag cells before p.
    """
    if family == "hexagon":
        # the third segment runs down, (1, 0), so the sum sits r rows low
        return [(((1, r + 1), (width - 1, r + 1), (width, r + 1)), r * width)]
    if family == "square":
        return [(((1, 2 * r + 1), (width, 2 * r + 1)), r * width + r)]
    # S_s = {0..s}.(1, 1) + {0..s}.(1, -1), s rows low; B_r = S_r | S_(r-1)
    return [(((width + 1, s + 1), (width - 1, s + 1)), s * width) for s in (r - 1, r)]


def _extremum(arr: np.ndarray, se: StructuringElement, op) -> np.ndarray:
    """op over the element at every pixel of a raster or a stack, via padded flat images."""
    h, w = arr.shape[-2:]
    r = min(se.size, h + w)  # from h + w on, every element covers the whole frame
    if r == 0:
        return arr.copy()
    stack = arr.reshape(-1, h, w)
    info = np.iinfo(arr.dtype)
    neutral = info.max if op is np.minimum else info.min
    shear = int(se.family == "hexagon")
    left = r + shear * ((h - 1) // 2)
    width = left + w + (1 - shear) * r
    put = r * width + left
    buf = np.full((len(stack), (r + h + 2) * width), neutral, dtype=arr.dtype)
    even, odd = _frame(buf, put, width, shear, h, w)
    even[...] = stack[:, 0::2]
    odd[...] = stack[:, 1::2]
    terms = _segment_sums(se.family, r, width)
    spare = np.empty(buf.size, dtype=arr.dtype)
    out = np.empty_like(stack)
    for i, (segments, lag) in enumerate(terms):
        # the last term may overwrite buf; an earlier one works on a copy
        flat = buf.reshape(-1) if i == len(terms) - 1 else buf.reshape(-1).copy()
        for step, count in segments:
            flat, spare = _window(flat, spare, step, count, op)
        views = _frame(flat.reshape(buf.shape), put - lag, width, shear, h, w)
        for rows, view in zip((out[:, 0::2], out[:, 1::2]), views):
            if i:
                op(rows, view, out=rows)
            else:
                rows[...] = view
    return out.reshape(arr.shape)


def erode_raw(arr: np.ndarray, family: str, size: int) -> np.ndarray:
    """Erosion of an integer raster or a stack of them, shape (..., H, W)."""
    return _extremum(arr, StructuringElement(family, size), np.minimum)


def dilate_raw(arr: np.ndarray, family: str, size: int) -> np.ndarray:
    """Dilation of an integer raster or a stack of them, shape (..., H, W)."""
    return _extremum(arr, StructuringElement(family, size), np.maximum)


def erode(f: GreyImage, se: StructuringElement) -> GreyImage:
    """Minimum of f over the size-r neighbourhood of each pixel."""
    return GreyImage(_extremum(f.pixels, se, np.minimum))


def dilate(f: GreyImage, se: StructuringElement) -> GreyImage:
    """Maximum of f over the size-r neighbourhood (all families are symmetric)."""
    return GreyImage(_extremum(f.pixels, se, np.maximum))


def opening(f: GreyImage, se: StructuringElement) -> GreyImage:
    """Erosion followed by dilation: anti-extensive, increasing, idempotent."""
    return GreyImage(_extremum(_extremum(f.pixels, se, np.minimum), se, np.maximum))


def closing(f: GreyImage, se: StructuringElement) -> GreyImage:
    """Dilation followed by erosion: extensive, increasing, idempotent."""
    return GreyImage(_extremum(_extremum(f.pixels, se, np.maximum), se, np.minimum))
