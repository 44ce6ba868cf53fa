"""Independent checks of granulom's outputs.

Nothing here imports granulom: files are parsed by hand and the k-NN
reference is a plain per-query scan, so a defect in the program cannot
hide in the check. Distances are summed exactly as a per-pair
`sum((q - x) ** 2)` over the selected columns, and ties order by sample id.
"""

from __future__ import annotations

import hashlib
import os
import re

import numpy as np


# --- file parsers -------------------------------------------------------------

def read_dataset_csv(path):
    """(ids, labels, matrix) of a sample_id,label,f... dataset CSV."""
    with open(path, encoding="utf-8") as fh:
        lines = [ln.rstrip("\n") for ln in fh if ln.strip()]
    ids, labels, rows = [], [], []
    for ln in lines[1:]:
        cells = ln.split(",")
        ids.append(cells[0])
        labels.append(cells[1])
        rows.append([float(c) for c in cells[2:]])
    return ids, labels, np.array(rows, dtype=np.float64)


def read_report_predictions(path) -> dict[str, str]:
    """sample_id -> predicted label from a per-sample evaluation report."""
    with open(path, encoding="utf-8") as fh:
        lines = [ln.rstrip("\n") for ln in fh if ln.strip()]
    return {cells[0]: cells[2] for cells in (ln.split(",") for ln in lines[1:])}


def read_summary(path) -> dict[str, str]:
    """key -> value text of a pipeline run.txt."""
    out = {}
    with open(path, encoding="utf-8") as fh:
        for ln in fh:
            key, _, value = ln.rstrip("\n").partition(" = ")
            out[key] = value
    return out


def read_mask_bits(path) -> np.ndarray:
    with open(path, encoding="utf-8") as fh:
        text = fh.read().strip()
    if not text or set(text) - {"0", "1"}:
        raise ValueError(f"{path}: not a 0/1 mask line")
    return np.array([c == "1" for c in text])


_PGM_HEADER = re.compile(rb"P5\s+(\d+)\s+(\d+)\s+(\d+)\s")


def read_pgm(path) -> np.ndarray:
    with open(path, "rb") as fh:
        data = fh.read()
    m = _PGM_HEADER.match(data)
    if m is None or int(m.group(3)) != 255:
        raise ValueError(f"{path}: not an 8-bit binary PGM")
    w, h = int(m.group(1)), int(m.group(2))
    raster = np.frombuffer(data, dtype=np.uint8, offset=m.end())
    if raster.size != w * h:
        raise ValueError(f"{path}: raster has {raster.size} bytes, expected {w * h}")
    return raster.reshape(h, w)


def tree_digest(root) -> tuple[str, int]:
    """(sha256 over sorted relative paths and contents, total bytes) of a directory."""
    h = hashlib.sha256()
    total = 0
    paths = []
    for dirpath, _, filenames in os.walk(root):
        for name in filenames:
            full = os.path.join(dirpath, name)
            paths.append((os.path.relpath(full, root).replace(os.sep, "/"), full))
    for rel, full in sorted(paths):
        with open(full, "rb") as fh:
            data = fh.read()
        total += len(data)
        h.update(rel.encode("utf-8") + b"\0" + str(len(data)).encode("ascii") + b"\0" + data)
    return h.hexdigest(), total


# --- classifier references ------------------------------------------------------

def knn_predict(train_ids, train_labels, train_matrix, test_matrix, k: int, sel=None) -> list[str]:
    """Plurality over the k nearest (ties by sample id); split votes go to the nearest."""
    train = train_matrix if sel is None else train_matrix[:, sel]
    queries = test_matrix if sel is None else test_matrix[:, sel]
    id_rank = np.empty(len(train_ids), dtype=np.int64)
    id_rank[sorted(range(len(train_ids)), key=lambda i: train_ids[i])] = np.arange(len(train_ids))
    out = []
    for q in queries:
        d2 = ((train - q) ** 2).sum(axis=1)
        top = [train_labels[int(i)] for i in np.lexsort((id_rank, d2))[:k]]
        counts: dict[str, int] = {}
        for lab in top:
            counts[lab] = counts.get(lab, 0) + 1
        most = max(counts.values())
        out.append(next(lab for lab in top if counts[lab] == most))
    return out


def template_predict(train_labels, train_matrix, test_matrix, sel=None) -> list[str]:
    """Nearest class mean; ties go to the smaller label."""
    classes = sorted(set(train_labels))
    means = np.stack([
        train_matrix[[i for i, lab in enumerate(train_labels) if lab == c]].mean(axis=0)
        for c in classes
    ])
    if sel is not None:
        means, test_matrix = means[:, sel], test_matrix[:, sel]
    return [classes[int(np.argmin(((means - q) ** 2).sum(axis=1)))] for q in test_matrix]


# --- image-tool invariants --------------------------------------------------------

def curve_ok(path, r_max: int) -> bool:
    """A granulometric curve: r = 0..r_max, starts at 0, non-decreasing, within [0, 1]."""
    with open(path, encoding="utf-8") as fh:
        lines = [ln.strip() for ln in fh if ln.strip()]
    if lines[0] != "r,value" or len(lines) != r_max + 2:
        return False
    rows = [ln.split(",") for ln in lines[1:]]
    if [int(r) for r, _ in rows] != list(range(r_max + 1)):
        return False
    v = np.array([float(x) for _, x in rows])
    return bool(v[0] == 0.0 and (np.diff(v) >= 0).all() and v.min() >= 0.0 and v.max() <= 1.0)


def size_intensity_ok(path, pixels: np.ndarray, r_max: int, k_max: int = 255) -> bool:
    """SI(r, k) does not increase in r or k, and SI(0, k) = #{f >= k}."""
    with open(path, encoding="utf-8") as fh:
        lines = [ln.strip() for ln in fh if ln.strip()]
    if lines[0] != "r,k,count" or len(lines) != (r_max + 1) * k_max + 1:
        return False
    cells = np.array([[int(c) for c in ln.split(",")] for ln in lines[1:]], dtype=np.int64)
    grid = cells[:, 2].reshape(r_max + 1, k_max)
    expected_r = np.repeat(np.arange(r_max + 1), k_max)
    expected_k = np.tile(np.arange(1, k_max + 1), r_max + 1)
    if not (np.array_equal(cells[:, 0], expected_r) and np.array_equal(cells[:, 1], expected_k)):
        return False
    survival = np.array([np.count_nonzero(pixels >= k) for k in range(1, k_max + 1)])
    return bool(
        (np.diff(grid, axis=0) <= 0).all()
        and (np.diff(grid, axis=1) <= 0).all()
        and np.array_equal(grid[0], survival)
    )


def si_columns(pixels: np.ndarray, k_max: int = 255) -> int:
    """Threshold sets {f >= k}, k = 1..k_max, that differ: one per grey level present."""
    levels = np.unique(pixels)
    return int(np.count_nonzero((levels >= 1) & (levels <= k_max)))
