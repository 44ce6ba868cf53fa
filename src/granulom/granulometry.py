"""Granulometric curves and size-intensity diagrams from one opening sequence.

Every output here is read off the flat openings g_r of an image, for
r = 0..r_max, taken smallest first from one generator
(`_measured_openings`), which measures each distinct opening once.

The opening curve value at size r is the normalized volume removed by
g_r; it is a cumulative size distribution: zero at r=0, non-decreasing,
at most 1. The closing curve mirrors it, normalized by the grey-level
headroom above the image: it is the opening curve of 255 - f.

The size-intensity diagram couples size and grey level: cell (r, k) is
the pixel count of the binary opening of size r of the threshold set
{f >= k}. Flat openings commute with thresholding, so that set is
{g_r(f) >= k} and

    SI(r, k) = #{g_r(f) >= k},

the survival count of the grey histogram of g_r. Column r=0 is the
survival count of f itself, and each fixed-k row is the binary
granulometric area sequence of {f >= k}.

The opening curves are computed for a stack of equal-size images at once
(`opening_curves`); the single-image functions pass a stack of one.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import repeat

import numpy as np

from .csvrows import write_lines
from .errors import DataError
from .imagecore import GreyImage
from .morphology import dilate_raw, erode_raw, se_family

__all__ = [
    "GranulometryCurve",
    "SizeIntensityDiagram",
    "granulometry_openings",
    "granulometry_closings",
    "size_intensity",
    "opening_curves",
    "export_curve",
    "MAX_R_MAX",
]

# The largest r_max accepted. Each size costs at most one opening pass, and every size
# from h + w on opens an h x w frame as size h + w does (see `morphology`), so
# this covers every distinct opening of frames up to 2048 x 2048.
MAX_R_MAX = 4096


@dataclass(frozen=True)
class GranulometryCurve:
    values: tuple[float, ...]  # the curve at sizes r = 0..len(values) - 1


@dataclass(frozen=True, eq=False)
class SizeIntensityDiagram:
    levels: tuple[int, ...]  # grey levels actually sampled, ascending
    cells: np.ndarray = field(repr=False)  # shape (r_max+1, len(levels)), int64


def _measured_openings(stack: np.ndarray, family: str, r_max: int, measure):
    """measure(g_r) of the flat openings g_0, g_1, .., g_r_max of a (..., H, W) stack.

    The erosion grows by one size-1 erosion per size; each dilation is a
    single size-r pass. An erosion or dilation of an image of one grey
    value is that image, so once every image of the erosion is flat, every
    later erosion and opening equals it: it is measured once, that value is
    yielded for each remaining size, and no pass runs. An all-zero erosion
    is one such case.
    """
    yield measure(stack)
    eroded = stack
    for r in range(1, r_max + 1):
        eroded = erode_raw(eroded, family, 1)
        if (eroded == eroded[..., :1, :1]).all():
            yield from repeat(measure(eroded), r_max + 1 - r)
            return
        yield measure(dilate_raw(eroded, family, r))


def _check_r_max(r_max: int) -> None:
    if not 0 <= r_max <= MAX_R_MAX:
        raise DataError(f"r_max must lie in [0, {MAX_R_MAX}], got {r_max}")


def opening_curves(stack: np.ndarray, family: str, r_max: int) -> np.ndarray:
    """Opening-curve values of each image in a (..., H, W) uint8 stack."""
    family = se_family(family)
    _check_r_max(r_max)
    volumes = _measured_openings(stack, family, r_max,
                                 lambda opened: opened.sum(axis=(-2, -1), dtype=np.int64))
    vols = np.stack(list(volumes), axis=-1)
    total = vols[..., :1]
    if not total.all():
        raise DataError("opening granulometry of an all-zero image (zero volume)")
    return (total - vols) / total


def granulometry_openings(f: GreyImage, family: str, r_max: int) -> GranulometryCurve:
    """Cumulative size distribution by openings of increasing size."""
    return GranulometryCurve(tuple(opening_curves(f.pixels, family, r_max).tolist()))


def granulometry_closings(f: GreyImage, family: str, r_max: int) -> GranulometryCurve:
    """Mirror curve by closings, normalized by the headroom above f.

    The closed volume above f equals the headroom minus the opened volume
    of 255 - f (duality), so the integers and hence the floats are those of
    the opening curve of 255 - f.
    """
    se_family(family)  # faults in the order family, r_max, saturated image
    _check_r_max(r_max)
    complement = 255 - f.pixels
    if not complement.any():
        raise DataError("closing granulometry of a fully saturated image")
    return GranulometryCurve(tuple(opening_curves(complement, family, r_max).tolist()))


def size_intensity(
    f: GreyImage, family: str, r_max: int, k_max: int = 255, k_step: int = 1
) -> SizeIntensityDiagram:
    """Areas of binary openings of every threshold set {f >= k}: #{g_r(f) >= k}."""
    family = se_family(family)
    _check_r_max(r_max)
    if not 1 <= k_max <= 255:
        raise DataError(f"k_max must lie in [1, 255], got {k_max}")
    if k_step < 1:
        raise DataError("k_step must be >= 1")
    levels = tuple(range(1, k_max + 1, k_step))

    def survival(opened):  # #{g_r >= k} at each sampled level k
        return np.bincount(opened.ravel(), minlength=256)[::-1].cumsum()[::-1][list(levels)]

    rows = list(_measured_openings(f.pixels, family, r_max, survival))
    return SizeIntensityDiagram(levels, np.array(rows, dtype=np.int64))


def export_curve(obj, path) -> None:
    """Write a curve as r,value rows or a diagram as r,k,count rows (CSV)."""
    if isinstance(obj, GranulometryCurve):
        lines = ["r,value"] + [f"{r},{float(v)!r}" for r, v in enumerate(obj.values)]
    elif isinstance(obj, SizeIntensityDiagram):
        lines = ["r,k,count"]
        for r, row in enumerate(obj.cells.tolist()):
            lines += [f"{r},{k},{count}" for k, count in zip(obj.levels, row)]
    else:
        raise DataError(f"cannot export object of type {type(obj).__name__}")
    write_lines(path, lines)
