"""Synthetic granite-like textures from a Boolean disc model.

Grains are discs dropped at Poisson-random locations; later discs
overwrite earlier ones, so grey-level sets stay crisp. Grain radius
drives the opening granulometry directly and the per-channel tint
separates classes in colour space, which makes generated corpora usable
as ground truth for the feature extractors. Generation is a pure
function of (spec, size, seed); corpora derive one child seed per image
from the corpus seed and the class/sample indices.

An image's generator first draws its grain count with numpy's
`poisson`. Every grain's centre x, centre y, radius and grey value are
then drawn in that order through `draws._DrawReplay`, which returns what
numpy's scalar `uniform(0, size)`, `uniform(0, size)`, `integers(rmin,
rmax + 1)` and `integers(mean - spread, mean + spread + 1)` calls would,
bit for bit, from raw words fetched in bulk; batched numpy draws would
change the stream. All grains of an image are then painted in one
vectorised pass, in chunks of bounded size: each pixel takes the grain
of highest index whose disc covers it, which is the same as later discs
overwriting earlier ones.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .csvrows import (checked, identifier, parse_config, read_csv_rows, read_text, reject_unread,
                      setting, write_lines)
from .draws import _DrawReplay
from .errors import DataError
from .imagecore import ColorImage, write_ppm

__all__ = [
    "TextureSpec",
    "CorpusSpec",
    "ManifestEntry",
    "generate_texture",
    "generate_corpus",
    "write_manifest",
    "read_manifest",
    "parse_corpus_config",
    "format_corpus_config",
    "load_corpus_spec",
    "builtin_corpus_spec",
    "MAX_IMAGE_SIZE",
]


# Largest grain radius and intensity spread: far past any frame or grey level,
# and well inside the int64 bounds of the generator's integer draws.
_MAX_DRAW_BOUND = 2**31 - 1

# Largest texture side: the frame size that granulometry's MAX_R_MAX covers. The
# grain count grows with size**2, so a side near 10**5 would draw billions.
MAX_IMAGE_SIZE = 2048


@dataclass(frozen=True)
class TextureSpec:
    class_label: str
    grain_radius: tuple[int, int]  # uniform integer radius in [min, max]
    grain_intensity: tuple[int, int]  # (mean, spread): uniform in mean +/- spread, clamped
    background_intensity: int
    grain_density: float  # expected grains per 1000 px^2
    rgb_tint: tuple[float, float, float]

    def __post_init__(self):
        identifier(self.class_label, "class label")
        rmin, rmax = self.grain_radius
        if rmin < 1 or rmax < rmin:
            raise DataError(f"bad grain radius range {self.grain_radius}")
        if rmax > _MAX_DRAW_BOUND:
            raise DataError(f"grain radius maximum {rmax} exceeds {_MAX_DRAW_BOUND}")
        if not 0 <= self.background_intensity <= 255:
            raise DataError("background intensity must lie in [0, 255]")
        mean, spread = self.grain_intensity
        if spread < 0 or not 0 <= mean <= 255:
            raise DataError(f"bad grain intensity {self.grain_intensity}")
        if spread > _MAX_DRAW_BOUND:
            raise DataError(f"grain intensity spread {spread} exceeds {_MAX_DRAW_BOUND}")
        # 1000 per 1000 px^2 is one grain centre per pixel on average
        if not 0 < self.grain_density <= 1000:
            raise DataError(f"grain density must lie in (0, 1000] grains per 1000 px^2, "
                            f"got {self.grain_density}")
        if len(self.rgb_tint) != 3 or any(not 0.5 <= t <= 1.5 for t in self.rgb_tint):
            raise DataError("tint multipliers must lie in [0.5, 1.5]")


@dataclass(frozen=True)
class CorpusSpec:
    classes: tuple[TextureSpec, ...]
    samples_per_class: tuple[int, ...]
    image_size: int
    seed: int

    def __post_init__(self):
        if len(self.classes) < 2:
            raise DataError("a corpus needs at least 2 classes")
        if len(self.samples_per_class) != len(self.classes):
            raise DataError("samples_per_class must align with classes")
        for ts, count in zip(self.classes, self.samples_per_class):
            if count < 1:
                raise DataError(f"class {ts.class_label} needs at least one sample")
        if self.image_size < 32:
            raise DataError("image_size must be >= 32")
        if self.image_size > MAX_IMAGE_SIZE:
            raise DataError(f"image_size must be <= {MAX_IMAGE_SIZE}, got {self.image_size}")
        if self.seed < 0:
            raise DataError(f"corpus seed must be non-negative, got {self.seed}")
        labels = [c.class_label for c in self.classes]
        if len(set(labels)) != len(labels):
            raise DataError("class labels must be unique")

    @property
    def total_samples(self) -> int:
        return sum(self.samples_per_class)


class ManifestEntry(NamedTuple):
    sample_id: str
    label: str
    path: str  # relative to the manifest's directory


# Patch pixels painted per chunk of grains, so temporaries stay a few MB
# whatever the grain count.
_CHUNK_PIXELS = 1 << 18


def generate_texture(spec: TextureSpec, size: int, seed) -> ColorImage:
    """One synthetic texture; identical bytes for identical (spec, size, seed)."""
    if not 1 <= size <= MAX_IMAGE_SIZE:
        raise DataError(f"size must lie in [1, {MAX_IMAGE_SIZE}], got {size}")
    rng = np.random.default_rng(seed)
    count = int(rng.poisson(spec.grain_density * size * size / 1000.0))
    rmin, rmax = spec.grain_radius
    mean, spread = spec.grain_intensity
    draws = _DrawReplay(rng)
    grains = [
        (draws.uniform(0.0, size), draws.uniform(0.0, size), draws.integers(rmin, rmax + 1),
         draws.integers(mean - spread, mean + spread + 1))
        for _ in range(count)
    ]
    # the integer draws lie within 2**32 of zero, so float64 holds them exactly
    cx, cy, rad, val = np.array(grains, dtype=np.float64).reshape(count, 4).T
    rad, val = rad.astype(np.int64), val.astype(np.int64)
    owner = _paint(cx, cy, rad, size, min(2 * rmax + 2, size))
    # owner -1 (no grain) picks the background at the end of the table; each
    # entry is tinted once, with the float64 arithmetic a pixel of it would get
    grey = np.append(np.clip(val, 0, 255), spec.background_intensity).astype(np.int32)
    table = np.clip(np.floor(grey[:, None] * np.array(spec.rgb_tint) + 0.5), 0, 255)
    return ColorImage(table.astype(np.uint8)[owner].reshape(size, size, 3))


def _paint(cx, cy, rad, size: int, side: int) -> np.ndarray:
    """Index of the last grain covering each pixel (row-major), or -1.

    Grain i covers pixel (y, x) when it lies in its box [y0, y1) x [x0, x1),
    y0 = max(0, floor(cy - rad)) and y1 = min(size, ceil(cy + rad) + 1), and
    (x - cx)^2 + (y - cy)^2 <= rad^2 in float64. A box is at most
    min(2 * rad + 2, size) wide, so a side-long patch from (y0, x0) holds it.
    """
    owner = np.full(size * size, -1, dtype=np.int64)
    step = max(1, _CHUNK_PIXELS // (side * side))
    offsets = np.arange(side)
    for start in range(0, len(rad), step):
        chunk = slice(start, start + step)
        r2 = np.square(rad[chunk].astype(np.float64))[:, None, None]
        ys, dy2 = _axis(cy[chunk], rad[chunk], size, offsets)
        xs, dx2 = _axis(cx[chunk], rad[chunk], size, offsets)
        inside = dx2[:, None, :] + dy2[:, :, None] <= r2
        pixel = (ys * size)[:, :, None] + xs[:, None, :]
        grain = np.broadcast_to(np.arange(start, start + len(ys))[:, None, None], inside.shape)
        np.maximum.at(owner, pixel[inside], grain[inside])
    return owner


def _axis(centre, rad, size: int, offsets):
    """Patch coordinates along one axis and their squared distances to the centre.

    Coordinates at or past the box end get an infinite distance, so no
    inside test passes there.
    """
    lo = np.maximum(0, np.floor(centre - rad)).astype(np.int64)
    hi = np.minimum(size, np.ceil(centre + rad).astype(np.int64) + 1)
    coords = lo[:, None] + offsets
    d2 = (coords - centre[:, None]) ** 2
    d2[coords >= hi[:, None]] = np.inf
    return coords, d2


def _image_seed(corpus_seed: int, class_index: int, sample_index: int) -> np.random.SeedSequence:
    return np.random.SeedSequence([corpus_seed, class_index, sample_index])


def generate_corpus(spec: CorpusSpec, out_dir) -> list[ManifestEntry]:
    """Write one PPM per sample plus manifest.csv; byte-reproducible."""
    os.makedirs(out_dir, exist_ok=True)
    entries: list[ManifestEntry] = []
    for ci, (ts, count) in enumerate(zip(spec.classes, spec.samples_per_class)):
        for si in range(count):
            img = generate_texture(ts, spec.image_size, _image_seed(spec.seed, ci, si))
            sample_id = f"{ts.class_label}-{si + 1}"
            fname = f"{sample_id}.ppm"
            write_ppm(img, os.path.join(out_dir, fname))
            entries.append(ManifestEntry(sample_id, ts.class_label, fname))
    write_manifest(entries, os.path.join(out_dir, "manifest.csv"))
    return entries


def write_manifest(entries, path) -> None:
    write_lines(path, ["sample_id,label,path"]
                + [f"{e.sample_id},{e.label},{e.path}" for e in entries])


def _image_path(rel: str) -> str:
    """A manifest's image path, which must stay inside the manifest's directory."""
    norm = os.path.normpath(rel)
    if os.path.isabs(rel) or norm == os.pardir or norm.startswith(os.pardir + os.sep):
        raise DataError(f"image path {rel!r} leaves the corpus directory")
    return rel


def read_manifest(path) -> list[ManifestEntry]:
    """Entries of a manifest CSV, with unique sample ids and image paths inside its directory."""
    _, rows = read_csv_rows(path, "sample_id,label,path", (identifier, identifier, _image_path),
                            "corpus manifest")
    seen = set()
    for sample_id, _, _ in rows:
        if sample_id in seen:
            raise DataError(f"{path}: duplicate sample id {sample_id!r}")
        seen.add(sample_id)
    return [ManifestEntry(*row) for row in rows]


# --- corpus config files ------------------------------------------------------

def parse_corpus_config(text: str, source="<string>") -> CorpusSpec:
    """Corpus spec from INI-style text: one [corpus] section, one [class X] each."""
    cp = parse_config(text, "corpus", source)
    image_size = setting(cp, "corpus", "image_size", "count")
    seed = setting(cp, "corpus", "seed", "count")
    default_samples = setting(cp, "corpus", "samples_per_class", "count", 0)
    classes: list[TextureSpec] = []
    counts: list[int] = []
    for section in cp.sections():
        if not section.startswith("class "):
            continue
        counts.append(setting(cp, section, "samples", "count", default_samples))
        classes.append(checked(
            cp, section, None, TextureSpec,
            section.split(" ", 1)[1].strip(),
            setting(cp, section, "grain_radius", "2 counts"),
            setting(cp, section, "grain_intensity", "2 counts"),
            setting(cp, section, "background", "count"),
            setting(cp, section, "density", "number"),
            setting(cp, section, "tint", "3 numbers"),
        ))
    reject_unread(cp)
    return checked(cp, "corpus", None, CorpusSpec, tuple(classes), tuple(counts), image_size, seed)


def format_corpus_config(spec: CorpusSpec) -> str:
    lines = ["[corpus]", f"image_size = {spec.image_size}", f"seed = {spec.seed}"]
    for ts, count in zip(spec.classes, spec.samples_per_class):
        lines += ["", f"[class {ts.class_label}]", f"samples = {count}",
                  f"grain_radius = {ts.grain_radius[0]} {ts.grain_radius[1]}",
                  f"grain_intensity = {ts.grain_intensity[0]} {ts.grain_intensity[1]}",
                  f"background = {ts.background_intensity}",
                  f"density = {ts.grain_density:g}",
                  f"tint = {ts.rgb_tint[0]:g} {ts.rgb_tint[1]:g} {ts.rgb_tint[2]:g}"]
    return "\n".join(lines) + "\n"


_BUILTIN_CORPORA = ("granite14",)


def load_corpus_spec(name_or_path) -> CorpusSpec:
    """Corpus spec of a config file, or of the builtin it names (granite14[.cfg]).

    A name picks the builtin unless a file, not a directory, of that name exists.
    """
    path = os.fspath(name_or_path)
    name = path[:-4] if path.endswith(".cfg") else path
    if name in _BUILTIN_CORPORA and not os.path.isfile(path):
        return builtin_corpus_spec(name)
    return parse_corpus_config(read_text(path), path)


def builtin_corpus_spec(name: str) -> CorpusSpec:
    """Load a corpus spec that ships with the package (currently granite14)."""
    if name not in _BUILTIN_CORPORA:
        raise DataError(f"unknown builtin corpus {name!r}")
    from importlib.resources import files

    text = files("granulom.data").joinpath(f"{name}.cfg").read_text(encoding="utf-8")
    return parse_corpus_config(text)
