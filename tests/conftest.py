"""Shared test oracles, written independently of the package internals.

The neighbour tables and brute-force operators here are re-derived from
first principles (explicit offset literals, BFS composition, set
translation, full scans) so they can act as ground truth for the fast
implementations.
"""

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


# --- fixtures --------------------------------------------------------------------

@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(20260811)
