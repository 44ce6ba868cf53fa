"""Principal component analysis and 2-D scatter exports.

The eigensolver is a cyclic Jacobi iteration on the sample covariance
matrix (divisor n-1). Component signs are canonicalized so the largest-
magnitude coordinate is positive, keeping exports reproducible. Scatter
data can come from the first two principal components or from any pair
of raw features, and is written as CSV plus an optional self-contained
SVG plot.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .csvrows import write_lines
from .errors import DataError, real_array
from .features import Dataset

__all__ = [
    "PcaModel",
    "ScatterRow",
    "jacobi_eigh",
    "fit_pca",
    "transform",
    "project",
    "feature_pair_rows",
    "export_scatter",
]


# Cyclic Jacobi converges quadratically: the lot117 training covariances at corpus
# seeds 12957 and 7919 stop after 9 sweeps each. Off-diagonal entries still above
# the tolerance after this many sweeps are an error.
MAX_SWEEPS = 100


def jacobi_eigh(matrix) -> tuple[np.ndarray, np.ndarray]:
    """Eigen-decomposition of a symmetric matrix by cyclic Jacobi rotations.

    Returns (eigenvalues, eigenvectors); eigenvectors are columns. The
    matrix must be square, non-empty and finite, symmetric to 1e-10 of its
    largest entry, and its squared entries must sum to a finite float, so
    that |A| below is finite; each is checked in that order, with its own
    DataError. Only its upper triangle is read, as LAPACK's UPLO='U': each
    entry below the diagonal is replaced by a copy of its mirror, so a -0.0
    keeps its sign.

    Rotation (p, q) runs in cyclic p < q order when a[p, q] != 0, and it
    writes only rows and columns p and q. An index whose off-diagonal
    entries are all zero is therefore never rotated: its diagonal entry is
    an eigenvalue and its unit vector an eigenvector. The rotations run on
    the block of the other, live, indices, stacked over its eigenvector
    block in one (2m, m) array, so one c*x - s*y / s*x + c*y pair updates
    columns p and q of both (`_sweep`).

    Sweeps run until off(A), the Frobenius norm of the off-diagonal entries
    themselves, is at most 1e-12 times max(1, |A|); a DataError if MAX_SWEEPS
    sweeps do not get there. off(A) is read from the live block alone: every
    off-diagonal entry outside it is zero and adds nothing.
    """
    a = real_array(matrix, "jacobi_eigh matrix").copy()
    if a.ndim != 2 or a.shape[0] != a.shape[1] or a.size == 0:
        raise DataError(f"jacobi_eigh needs a square, non-empty matrix, got shape {a.shape}")
    if not np.isfinite(a).all():
        raise DataError("jacobi_eigh needs finite entries")
    with np.errstate(over="ignore"):  # an overflow reads as inf, which both checks reject
        if not np.allclose(a, a.T, rtol=0.0, atol=1e-10 * max(1.0, float(np.abs(a).max()))):
            raise DataError("jacobi_eigh needs a symmetric matrix")
        n = a.shape[0]
        a = np.where(np.tri(n, k=-1, dtype=bool), a.T, a)
        norm = float(np.linalg.norm(a))
    if not math.isfinite(norm):
        raise DataError("jacobi_eigh needs entries whose squares sum to a finite float")
    v = np.eye(n)
    tol = 1e-12 * max(1.0, norm)
    live = np.flatnonzero(((a != 0.0) & ~np.eye(n, dtype=bool)).any(axis=0))
    block = np.ix_(live, live)
    m = live.size
    stacked = np.asfortranarray(np.vstack([a[block], v[block]]))
    off_diagonal = ~np.eye(m, dtype=bool)
    for sweeps in range(MAX_SWEEPS + 1):
        off = float(np.linalg.norm(stacked[:m][off_diagonal]))
        if off <= tol:
            break
        if sweeps == MAX_SWEEPS:
            raise DataError(f"jacobi_eigh: off-diagonal norm {off:.3g} still above {tol:.3g} "
                            f"after {MAX_SWEEPS} sweeps")
        _sweep(stacked, m)
    a[block] = stacked[:m]
    v[block] = stacked[m:]
    return a.diagonal().copy(), v


def _sweep(w: np.ndarray, m: int) -> None:
    """One cyclic sweep over a symmetric (m, m) block stacked over its eigenvectors, in place.

    Each rotation updates columns p and q of the (2m, m) array w. The block
    is bitwise symmetric before the rotation, so its new rows p and q equal
    its new columns, except a[p, p] and a[q, q], which take the row
    update's expressions, and a[p, q] = a[q, p] = 0. It stays symmetric.
    """
    for p in range(m - 1):
        for q in range(p + 1, m):
            apq = w[p, q]
            if apq == 0.0:
                continue
            h = w[q, q] - w[p, p]
            if abs(h) > 1e150 * abs(apq):
                t = apq / h  # limiting tangent; avoids overflow in theta
            else:
                theta = h / (2.0 * apq)
                t = math.copysign(1.0, theta) / (abs(theta) + math.sqrt(theta * theta + 1.0))
            c = 1.0 / math.sqrt(t * t + 1.0)
            s = t * c
            x, y = w[:, p], w[:, q]
            w[:, p], w[:, q] = c * x - s * y, s * x + c * y
            app = c * w[p, p] - s * w[q, p]
            aqq = s * w[p, q] + c * w[q, q]
            w[p] = w[:m, p]
            w[q] = w[:m, q]
            w[p, p], w[q, q] = app, aqq
            w[p, q] = w[q, p] = 0.0


@dataclass(frozen=True, eq=False)
class PcaModel:
    mean: np.ndarray  # (n_features,)
    components: np.ndarray  # (n_components, n_features), orthonormal rows
    eigenvalues: np.ndarray  # (n_components,), descending, non-negative
    scale: np.ndarray | None = None  # per-feature divisor when fitted on correlations

    @property
    def n_components(self) -> int:
        return self.components.shape[0]


def check_components(n_components: int, n_samples: int, n_features: int, least: int = 1):
    """A DataError unless least <= n_components <= most, where
    most = min(n_samples - 1, n_features); when most < least it names what is short."""
    if n_samples <= least:
        raise DataError(f"PCA needs {least + 1} or more samples, got {n_samples}")
    if n_features < least:
        raise DataError(f"PCA needs {least} or more features, got {n_features}")
    most = min(n_samples - 1, n_features)
    if not least <= n_components <= most:
        raise DataError(f"n_components must lie in [{least}, {most}], got {n_components}")


def fit_pca(ds: Dataset, n_components: int = 2, correlation: bool = False) -> PcaModel:
    """Top principal components of the dataset's covariance (divisor n-1).

    With correlation=True the features are standardized first (zero-variance
    columns are left unscaled), i.e. the correlation matrix is decomposed.
    """
    n, d = ds.n_samples, ds.n_features
    check_components(n_components, n, d)
    mean = ds.matrix.mean(axis=0)
    centered = ds.matrix - mean
    scale = None
    if correlation:
        std = centered.std(axis=0, ddof=1)
        scale = np.where(std == 0.0, 1.0, std)
        centered = centered / scale
    cov = centered.T @ centered / (n - 1)
    eigenvalues, vectors = jacobi_eigh(cov)

    order = np.argsort(-eigenvalues, kind="stable")[:n_components]
    values = eigenvalues[order]
    floor = -1e-9 * max(1.0, float(np.trace(cov)))
    if values.min() < floor:
        raise DataError("covariance produced a significantly negative eigenvalue")
    values = np.maximum(values, 0.0)

    comps = vectors[:, order].T.copy()
    for row in comps:
        j = int(np.argmax(np.abs(row)))
        if row[j] < 0:
            row *= -1.0
    return PcaModel(mean, comps, values, scale)


def transform(model: PcaModel, matrix) -> np.ndarray:
    """Scores of each row on every retained component."""
    x = real_array(matrix, "transform matrix")
    single = x.ndim == 1
    if single:
        x = x[None, :]
    if x.shape[1] != model.mean.size:
        raise DataError("feature count does not match the fitted model")
    centered = x - model.mean
    if model.scale is not None:
        centered = centered / model.scale
    scores = centered @ model.components.T
    return scores[0] if single else scores


class ScatterRow(NamedTuple):
    sample_id: str
    label: str
    x: float
    y: float


def project(model: PcaModel, ds: Dataset) -> list[ScatterRow]:
    """Scatter rows on the first two principal components."""
    if model.n_components < 2:
        raise DataError("projection needs a model with at least 2 components")
    scores = transform(model, ds.matrix)
    return [
        ScatterRow(sid, lab, float(scores[i, 0]), float(scores[i, 1]))
        for i, (sid, lab) in enumerate(zip(ds.sample_ids, ds.labels))
    ]


def feature_pair_rows(ds: Dataset, i: int, j: int) -> list[ScatterRow]:
    """Scatter rows from two raw features, 1-based indices."""
    for idx in (i, j):
        if not 1 <= idx <= ds.n_features:
            raise DataError(f"feature index {idx} outside 1..{ds.n_features}")
    return [
        ScatterRow(sid, lab, float(ds.matrix[r, i - 1]), float(ds.matrix[r, j - 1]))
        for r, (sid, lab) in enumerate(zip(ds.sample_ids, ds.labels))
    ]


# One style per class, in class order: circle, square, triangle, diamond, cross, plus, ring.
# Each is an SVG element with the class colour in {c}, the glyph centre in {x}, {y} and the
# sides of its 8-unit box in {xl}, {xh}, {yl}, {yh}.
_STYLES = (
    ('<circle cx="{x}" cy="{y}" r="4.0" fill="{c}"/>', "#1f60a8"),
    ('<rect x="{xl}" y="{yl}" width="8.0" height="8.0" fill="{c}"/>', "#c23b22"),
    ('<polygon points="{x},{yl} {xl},{yh} {xh},{yh}" fill="{c}"/>', "#2e8540"),
    ('<polygon points="{x},{yl} {xh},{y} {x},{yh} {xl},{y}" fill="{c}"/>', "#8031a7"),
    ('<path d="M {xl} {yl} L {xh} {yh} M {xl} {yh} L {xh} {yl}" stroke="{c}" stroke-width="1.5"/>',
     "#b8860b"),
    ('<path d="M {xl} {y} L {xh} {y} M {x} {yl} L {x} {yh}" stroke="{c}" stroke-width="1.5"/>',
     "#0d7a7a"),
    ('<circle cx="{x}" cy="{y}" r="4.0" fill="none" stroke="{c}" stroke-width="1.5"/>', "#555555"),
)


def _glyph_svg(style: tuple[str, str], x: float, y: float) -> str:
    template, colour = style
    return template.format(c=colour, x=f"{x:.2f}", y=f"{y:.2f}", xl=f"{x - 4.0:.2f}",
                           xh=f"{x + 4.0:.2f}", yl=f"{y - 4.0:.2f}", yh=f"{y + 4.0:.2f}")


def _scatter_svg(rows: Sequence[ScatterRow]) -> list[str]:
    size, margin = 800.0, 70.0
    span = size - 2 * margin
    xs = [r.x for r in rows]
    ys = [r.y for r in rows]
    x0, x1 = (min(xs), max(xs)) if rows else (0.0, 1.0)
    y0, y1 = (min(ys), max(ys)) if rows else (0.0, 1.0)
    dx = (x1 - x0) or 1.0
    dy = (y1 - y0) or 1.0
    labels = sorted({r.label for r in rows})
    style = {lab: _STYLES[i % len(_STYLES)] for i, lab in enumerate(labels)}
    parts = [
        '<svg xmlns="http://www.w3.org/2000/svg" width="800" height="800" '
        'viewBox="0 0 800 800">',
        '<rect width="800" height="800" fill="white"/>',
        f'<rect x="{margin}" y="{margin}" width="{span}" height="{span}" '
        'fill="none" stroke="#333"/>',
        f'<text x="{margin}" y="{size - margin + 20:.0f}" font-size="12">{x0:.4g}</text>',
        f'<text x="{size - margin:.0f}" y="{size - margin + 20:.0f}" font-size="12" '
        f'text-anchor="end">{x1:.4g}</text>',
        f'<text x="{margin - 6:.0f}" y="{size - margin:.0f}" font-size="12" '
        f'text-anchor="end">{y0:.4g}</text>',
        f'<text x="{margin - 6:.0f}" y="{margin + 6:.0f}" font-size="12" '
        f'text-anchor="end">{y1:.4g}</text>',
    ]
    for r in rows:
        px = margin + (r.x - x0) / dx * span
        py = size - margin - (r.y - y0) / dy * span
        parts.append(_glyph_svg(style[r.label], px, py))
    for i, lab in enumerate(labels):
        ly = 20.0 + 16.0 * i
        parts.append(_glyph_svg(style[lab], 14.0, ly))
        parts.append(f'<text x="26" y="{ly + 4:.0f}" font-size="12">{lab}</text>')
    parts.append("</svg>")
    return parts


def export_scatter(rows: Sequence[ScatterRow], path, svg_path=None) -> None:
    """Write scatter rows as sample_id,label,x,y CSV (exact float round-trip)."""
    write_lines(path, ["sample_id,label,x,y"]
                + [f"{r.sample_id},{r.label},{float(r.x)!r},{float(r.y)!r}" for r in rows])
    if svg_path is not None:
        write_lines(svg_path, _scatter_svg(rows))
