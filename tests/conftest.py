"""Shared test oracles, written independently of the package internals.

The neighbour tables and brute-force operators here are re-derived from
first principles (explicit offset literals, BFS composition, set
translation, full scans, one grain painted at a time, one pixel converted
to HLS at a time, histogram bins counted between their stated edges) so
they can act as ground truth for the fast implementations.
"""

import hashlib
from typing import NamedTuple

import numpy as np
import pytest


# --- independent structuring-element geometry ---------------------------------

def unit_offsets(family: str, parity: int):
    """Unit neighbourhood (dy, dx) including the origin, per centre-row parity."""
    if family == "square":
        return [(dy, dx) for dy in (-1, 0, 1) for dx in (-1, 0, 1)]
    if family == "diamond":
        return [(0, 0), (-1, 0), (1, 0), (0, -1), (0, 1)]
    if family == "hexagon":
        base = [(0, 0), (0, -1), (0, 1), (-1, 0), (1, 0)]
        if parity == 0:
            return base + [(-1, -1), (1, -1)]
        return base + [(-1, 1), (1, 1)]
    raise ValueError(family)


def reachable_offsets(family: str, r: int, start_parity: int):
    """Offsets of the size-r element at a centre row of given parity (BFS)."""
    frontier = {(0, 0)}
    seen = {(0, 0)}
    for _ in range(r):
        nxt = set()
        for dy, dx in frontier:
            parity = (start_parity + dy) % 2
            for ddy, ddx in unit_offsets(family, parity):
                cand = (dy + ddy, dx + ddx)
                if cand not in seen:
                    nxt.add(cand)
        seen |= nxt
        frontier = seen  # steps include staying put, so re-expand everything seen
    return sorted(seen)


def naive_erode(pixels: np.ndarray, family: str, r: int) -> np.ndarray:
    """Direct min over the size-r neighbourhood, clamped to the frame."""
    h, w = pixels.shape
    out = np.empty_like(pixels)
    offs = {p: reachable_offsets(family, r, p) for p in (0, 1)}
    for y in range(h):
        for x in range(w):
            vals = [
                pixels[y + dy, x + dx]
                for dy, dx in offs[y % 2]
                if 0 <= y + dy < h and 0 <= x + dx < w
            ]
            out[y, x] = min(vals)
    return out


def naive_dilate(pixels: np.ndarray, family: str, r: int) -> np.ndarray:
    h, w = pixels.shape
    out = np.empty_like(pixels)
    offs = {p: reachable_offsets(family, r, p) for p in (0, 1)}
    for y in range(h):
        for x in range(w):
            vals = [
                pixels[y + dy, x + dx]
                for dy, dx in offs[y % 2]
                if 0 <= y + dy < h and 0 <= x + dx < w
            ]
            out[y, x] = max(vals)
    return out


def translate_opening_binary(mask: np.ndarray, family: str, r: int) -> np.ndarray:
    """Union of clipped size-r translates that fit inside the binary set."""
    h, w = mask.shape
    opened = np.zeros_like(mask, dtype=bool)
    offs = {p: reachable_offsets(family, r, p) for p in (0, 1)}
    for y in range(h):
        for x in range(w):
            cells = [
                (y + dy, x + dx)
                for dy, dx in offs[y % 2]
                if 0 <= y + dy < h and 0 <= x + dx < w
            ]
            if all(mask[c] for c in cells):
                for c in cells:
                    opened[c] = True
    return opened


def translate_opening_grey(pixels: np.ndarray, family: str, r: int) -> np.ndarray:
    """Grey opening rebuilt from the threshold stack of binary translate openings."""
    out = np.zeros_like(pixels, dtype=np.int64)
    for level in np.unique(pixels):
        if level == 0:
            continue
        opened = translate_opening_binary(pixels >= level, family, r)
        out[opened] = level  # levels ascend and the openings nest
    return out


def umbra_si_cell(pixels: np.ndarray, family: str, r: int, k: int) -> int:
    """Size-intensity cell from a literal 3-D umbra opening by a cylinder.

    The umbra is the voxel set {(y, x, z) : 1 <= z <= f(y, x)}; a cylinder
    translate is the clipped size-r footprint at (y0, x0) lifted to heights
    z0+1..z0+k. Cells of the opened umbra are counted per column.
    """
    h, w = pixels.shape
    zmax = int(pixels.max())
    if zmax < 1 or k > zmax:
        return 0
    umbra = np.zeros((h, w, zmax + 1), dtype=bool)
    for y in range(h):
        for x in range(w):
            umbra[y, x, 1 : pixels[y, x] + 1] = True
    covered = np.zeros((h, w), dtype=bool)
    offs = {p: reachable_offsets(family, r, p) for p in (0, 1)}
    for y0 in range(h):
        for x0 in range(w):
            cells = [
                (y0 + dy, x0 + dx)
                for dy, dx in offs[y0 % 2]
                if 0 <= y0 + dy < h and 0 <= x0 + dx < w
            ]
            for z0 in range(zmax - k + 1):
                if all(umbra[cy, cx, z0 + 1 : z0 + k + 1].all() for cy, cx in cells):
                    for c in cells:
                        covered[c] = True
                    break
    return int(covered.sum())


# --- independent classifier oracle ---------------------------------------------

def knn_oracle(train_rows, query, k, mask_idx=None):
    """(label, ordered neighbour ids): plain-python scan, sort and vote.

    train_rows: list of (sample_id, label, vector). Ties in distance order
    by sample id; vote ties fall to the nearest tied class.
    """
    scored = []
    for sid, lab, vec in train_rows:
        q = np.asarray(query, dtype=np.float64)
        v = np.asarray(vec, dtype=np.float64)
        if mask_idx is not None:
            q = q[mask_idx]
            v = v[mask_idx]
        scored.append((float(np.sum((q - v) ** 2)), sid, lab))
    scored.sort(key=lambda t: (t[0], t[1]))
    top = scored[:k]
    counts = {}
    for _, _, lab in top:
        counts[lab] = counts.get(lab, 0) + 1
    most = max(counts.values())
    tied = {lab for lab, c in counts.items() if c == most}
    for _, _, lab in top:
        if lab in tied:
            return lab, [sid for _, sid, _ in top]
    raise AssertionError


def left_to_right_d2(queries, training, selected):
    """Squared distances as plain-python float sums in ascending feature order.

    queries (nq, F), training (nt, F); returns an (nq, nt) array whose cell
    is sum((q_f - t_f)**2 for f in sorted(selected)), added left to right.
    """
    rows = [[float(v) for v in q] for q in np.asarray(queries, dtype=np.float64)]
    cols = [[float(v) for v in t] for t in np.asarray(training, dtype=np.float64)]
    order = sorted(int(f) for f in selected)
    out = np.empty((len(rows), len(cols)))
    for i, q in enumerate(rows):
        for j, t in enumerate(cols):
            acc = 0.0
            for f in order:
                d = q[f] - t[f]
                acc += d * d
            out[i, j] = acc
    return out


# --- independent eigenvalue oracle -----------------------------------------------

def charpoly_eigenvalues(matrix: np.ndarray) -> np.ndarray:
    """Eigenvalues as roots of the characteristic polynomial.

    Coefficients come from the Faddeev-LeVerrier recurrence, roots from
    the companion matrix. Ascending order.
    """
    a = np.asarray(matrix, dtype=np.float64)
    n = a.shape[0]
    coeffs = [1.0]
    m = a.copy()
    c = -np.trace(m)
    coeffs.append(c)
    for k in range(2, n + 1):
        m = a @ (m + c * np.eye(n))
        c = -np.trace(m) / k
        coeffs.append(c)
    roots = np.roots(coeffs)
    return np.sort(roots.real)


def rowcol_jacobi_eigh(matrix, max_sweeps: int = 100):
    """(eigenvalues, eigenvectors) by cyclic Jacobi over full rows and columns.

    Every rotation (p, q) with a[p, q] != 0, in p < q order, updates the two
    full columns of a, then the two full rows, then the two columns of v.
    Sweeps stop once the norm of the off-diagonal entries is <= 1e-12 * max(1, |a|).
    The matrix is used as given, lower triangle included.
    """
    import math

    a = np.array(matrix, dtype=np.float64)
    n = a.shape[0]
    v = np.eye(n)
    if n == 1:
        return a.diagonal().copy(), v
    tol = 1e-12 * max(1.0, float(np.linalg.norm(a)))
    for _ in range(max_sweeps):
        off = np.linalg.norm(a[~np.eye(n, dtype=bool)])
        if off <= tol:
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = a[p, q]
                if apq == 0.0:
                    continue
                h = a[q, q] - a[p, p]
                if abs(h) > 1e150 * abs(apq):
                    t = apq / h
                else:
                    theta = h / (2.0 * apq)
                    t = math.copysign(1.0, theta) / (
                        abs(theta) + math.sqrt(theta * theta + 1.0)
                    )
                c = 1.0 / math.sqrt(t * t + 1.0)
                s = t * c
                col_p, col_q = a[:, p].copy(), a[:, q].copy()
                a[:, p] = c * col_p - s * col_q
                a[:, q] = s * col_p + c * col_q
                row_p, row_q = a[p, :].copy(), a[q, :].copy()
                a[p, :] = c * row_p - s * row_q
                a[q, :] = s * row_p + c * row_q
                a[p, q] = 0.0
                a[q, p] = 0.0
                vec_p, vec_q = v[:, p].copy(), v[:, q].copy()
                v[:, p] = c * vec_p - s * vec_q
                v[:, q] = s * vec_p + c * vec_q
    return a.diagonal().copy(), v


# --- texture synthesis -------------------------------------------------------------

def scalar_texture(spec, size: int, seed) -> np.ndarray:
    """RGB pixels of a Boolean disc texture, painted one grain at a time."""
    rng = np.random.default_rng(seed)
    grey = np.full((size, size), spec.background_intensity, dtype=np.int32)
    count = int(rng.poisson(spec.grain_density * size * size / 1000.0))
    rmin, rmax = spec.grain_radius
    mean, spread = spec.grain_intensity
    for _ in range(count):
        cx = rng.uniform(0.0, size)
        cy = rng.uniform(0.0, size)
        rad = int(rng.integers(rmin, rmax + 1))
        val = int(np.clip(rng.integers(mean - spread, mean + spread + 1), 0, 255))
        y0 = max(0, int(np.floor(cy - rad)))
        y1 = min(size, int(np.ceil(cy + rad)) + 1)
        x0 = max(0, int(np.floor(cx - rad)))
        x1 = min(size, int(np.ceil(cx + rad)) + 1)
        if y0 >= y1 or x0 >= x1:
            continue
        yy, xx = np.mgrid[y0:y1, x0:x1]
        inside = (xx - cx) ** 2 + (yy - cy) ** 2 <= rad * rad
        grey[y0:y1, x0:x1][inside] = val
    planes = [
        np.clip(np.floor(grey * t + 0.5), 0, 255).astype(np.uint8) for t in spec.rgb_tint
    ]
    return np.stack(planes, axis=-1)


# --- colour conversion -------------------------------------------------------------

class HlsPixel(NamedTuple):
    """Hue in [0, 359], luminance and saturation in [0, 255]."""

    h: int
    l: int
    s: int


def hls_pixel(r: int, g: int, b: int) -> HlsPixel:
    """Double-hexcone HLS of one RGB pixel, integer channels in [0, 255]."""
    mx = max(r, g, b)
    mn = min(r, g, b)
    l_out = (mx + mn + 1) // 2  # round-half-up of 255*(max+min)/2 on unit scale
    if mx == mn:
        return HlsPixel(0, l_out, 0)
    d = mx - mn
    denom = (mx + mn) if (mx + mn) <= 255 else (510 - mx - mn)
    s_out = int(255.0 * d / denom + 0.5)
    if mx == r:
        hue = (60.0 * (g - b) / d) % 360.0
    elif mx == g:
        hue = 60.0 * (b - r) / d + 120.0
    else:
        hue = 60.0 * (r - g) / d + 240.0
    h_out = int(hue + 0.5) % 360
    return HlsPixel(h_out, l_out, s_out)


# --- plane histograms --------------------------------------------------------------

def pixel_histogram(values, bins: int, vmax: int) -> np.ndarray:
    """Frequencies of the integers `values` in [0, vmax] over `bins` equal-width bins.

    Bin i holds every v with i*vmax <= v*bins < (i+1)*vmax, and the top value
    v = vmax falls in the last bin. Each count is divided by the number of values.
    """
    scaled = np.asarray(values, dtype=np.int64).ravel() * bins
    counts = [np.count_nonzero((i * vmax <= scaled) & (scaled < (i + 1) * vmax))
              for i in range(bins)]
    counts[-1] += np.count_nonzero(scaled == bins * vmax)
    return np.array(counts, dtype=np.float64) / scaled.size


# --- classifier inputs -------------------------------------------------------------

def lot117_pair(rng):
    """117 features, 187 train / 50 eval and 14 classes, as in the shipped split."""
    from granulom.features import Dataset

    scale = rng.uniform(0.01, 100, size=117)
    def block(n, tag):
        labels = [f"c{i % 14:02d}" for i in range(n)]
        ids = [f"{tag}{i:03d}" for i in rng.permutation(n)]
        return Dataset(ids, labels, rng.normal(size=(n, 117)) * scale)
    return block(187, "tr"), block(50, "ev")


# --- GA fitness ------------------------------------------------------------------

def wrapper_fitness(hits: int, nf: int, alpha: float, beta: float, total: int = 50) -> float:
    """The GA objective's fitness of the all-features mask on a pair built so
    that 1-NN gets `hits` of `total` evaluation samples right over `nf` features.

    Training holds one sample at the origin and one at the all-ones point;
    every evaluation sample lies at the origin, and `hits` of them carry the
    origin sample's label.
    """
    from granulom.features import Dataset
    from granulom.select import GAConfig, _WrapperObjective

    train = Dataset(["t0", "t1"], ["near", "far"], np.array([np.zeros(nf), np.ones(nf)]))
    labels = ["near"] * hits + ["far"] * (total - hits)
    eval_set = Dataset([f"e{i:03d}" for i in range(total)], labels, np.zeros((total, nf)))
    objective = _WrapperObjective(train, eval_set, GAConfig(alpha=alpha, beta=beta))
    (got_hits,), (got_nf,), (fit,) = objective.score(np.ones((1, nf), dtype=bool))
    assert (got_hits, got_nf) == (hits, nf)
    return float(fit)


# --- fixtures --------------------------------------------------------------------

@pytest.fixture
def rng(request):
    """A generator of the test's own, seeded from its node id.

    A test gets the same data whether it runs alone or in the suite.
    """
    digest = hashlib.sha256(request.node.nodeid.encode()).digest()
    return np.random.default_rng(int.from_bytes(digest[:8], "little"))


@pytest.fixture(scope="session")
def granite14_corpus(tmp_path_factory):
    """(directory, manifest entries) of the granite14 corpus at its shipped seed.

    Written once per session and shared by every test that only reads it;
    a test that writes next to a corpus makes its own.
    """
    from granulom.synthkit import builtin_corpus_spec, generate_corpus

    corpus_dir = tmp_path_factory.mktemp("granite14") / "corpus"
    entries = generate_corpus(builtin_corpus_spec("granite14"), corpus_dir)
    return corpus_dir, tuple(entries)
