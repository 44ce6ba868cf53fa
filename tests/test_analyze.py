import numpy as np
import pytest

from conftest import charpoly_eigenvalues, rowcol_jacobi_eigh
from granulom import analyze
from granulom.analyze import (
    ScatterRow,
    export_scatter,
    feature_pair_rows,
    fit_pca,
    jacobi_eigh,
    project,
    transform,
)
from granulom.csvrows import read_csv_rows
from granulom.errors import DataError
from granulom.features import Dataset


# header, cell kinds and name of the exported scatter CSV, for read_csv_rows
SCATTER = ("sample_id,label,x,y", (str, str, float, float), "scatter")


def _dataset(matrix, labels=None):
    matrix = np.asarray(matrix, dtype=np.float64)
    n = matrix.shape[0]
    labels = labels or [f"c{i % 3}" for i in range(n)]
    return Dataset([f"s{i:03d}" for i in range(n)], labels, matrix)


def test_jacobi_small_known_matrix():
    a = np.array([[2.0, 1.0], [1.0, 2.0]])
    w, v = jacobi_eigh(a)
    assert sorted(w) == pytest.approx([1.0, 3.0], abs=1e-12)
    assert np.abs(a @ v - v @ np.diag(w)).max() < 1e-12


def test_jacobi_raises_when_the_sweeps_run_out(monkeypatch):
    a = np.array([[1.0, 1e-3, 1e-3], [1e-3, 2.0, 1e-3], [1e-3, 1e-3, 3.0]])  # two sweeps
    w, v = jacobi_eigh(a)
    monkeypatch.setattr(analyze, "MAX_SWEEPS", 2)
    w2, v2 = jacobi_eigh(a)
    assert np.array_equal(w, w2) and np.array_equal(v, v2)
    monkeypatch.setattr(analyze, "MAX_SWEEPS", 1)
    with pytest.raises(DataError, match="^jacobi_eigh: off-diagonal norm .* after 1 sweeps$"):
        jacobi_eigh(a)


def test_jacobi_stops_on_the_off_diagonal_entries_themselves():
    # sum(a**2) - sum(diag**2) cancels to 0.0 here, while the off-diagonal norm is 2.45e-6
    a = np.diag([1e3, 2e3, 3e3]) + 1e-6 * (1.0 - np.eye(3))
    w, v = jacobi_eigh(a)
    rotated = v.T @ a @ v
    assert np.linalg.norm(rotated[~np.eye(3, dtype=bool)]) <= 1e-12 * np.linalg.norm(a)


def test_jacobi_rejects_nonsymmetric():
    with pytest.raises(DataError, match="^jacobi_eigh needs a symmetric matrix$"):
        jacobi_eigh(np.array([[1.0, 2.0], [0.0, 1.0]]))


@pytest.mark.parametrize("shape", [(0, 0), (0, 3), (2, 3), (4,), (2, 2, 2)],
                         ids=["0x0", "0x3", "2x3", "1-D", "3-D"])
def test_jacobi_rejects_a_matrix_that_is_not_square_or_is_empty(shape):
    with pytest.raises(DataError, match="^jacobi_eigh needs a square, non-empty matrix, got shape"):
        jacobi_eigh(np.zeros(shape))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_jacobi_rejects_non_finite_entries_before_the_symmetry_check(bad):
    for a in ([[bad]], [[bad, 0.0], [0.0, 1.0]], [[1.0, bad], [0.0, 1.0]]):
        with pytest.raises(DataError, match="^jacobi_eigh needs finite entries$"):
            jacobi_eigh(np.array(a))


@pytest.mark.parametrize("matrix", [[[1.0, 1e160], [1e160, 2.0]], [[1e154, 1e154], [1e154, 1e154]]],
                         ids=["1e160", "1e154"])
def test_jacobi_rejects_entries_whose_squares_overflow(matrix):
    # the true eigenvalues are +-1e160 and 0, 2e154; with an inf tolerance no sweep ran
    with pytest.raises(DataError, match="^jacobi_eigh needs entries whose squares sum to a "
                                        "finite float$"):
        jacobi_eigh(matrix)


@pytest.mark.parametrize("matrix", [[["a"]], [[1, 2], [3]], [[1 + 1j]]],
                         ids=["string", "ragged", "complex"])
def test_jacobi_and_transform_reject_entries_that_are_not_real_numbers(matrix):
    with pytest.raises(DataError, match="^jacobi_eigh matrix must hold real numbers: "):
        jacobi_eigh(matrix)
    model = fit_pca(_dataset(np.eye(3)), 2)
    with pytest.raises(DataError, match="^transform matrix must hold real numbers: "):
        transform(model, matrix)


def test_jacobi_eigenvalues_match_charpoly_oracle(rng):
    for _ in range(10):
        m = rng.normal(size=(5, 5))
        a = m @ m.T
        w, _ = jacobi_eigh(a)
        assert np.abs(np.sort(w) - charpoly_eigenvalues(a)).max() < 1e-8


def _planted_symmetric(rng, n):
    """A bitwise symmetric matrix with zero and -0.0 entries planted in it.

    For n >= 4 it also holds a zero row and column, a row whose only
    non-zero entry is its diagonal, and a coupled pair of diagonal zeros of
    opposite sign.
    """
    x = rng.normal(size=(n, n)) * 10.0 ** rng.integers(-3, 4)
    a = x + x.T  # IEEE addition commutes, so a[i, j] and a[j, i] share their bits
    for value, share in ((0.0, 0.3), (-0.0, 0.1)):
        pick = rng.random((n, n)) < share
        a[pick | pick.T] = value
    if n >= 4:
        zero, lone, p, q = rng.permutation(n)[:4]
        a[zero], a[:, zero] = 0.0, 0.0
        a[lone], a[:, lone] = -0.0, -0.0
        a[lone, lone] = rng.normal()
        a[p, q] = a[q, p] = rng.normal()
        a[p, p], a[q, q] = 0.0, -0.0
    return a


def _jacobi_cases(rng):
    yield np.array([[-0.0]])
    yield np.array([[3.0]])
    yield np.zeros((2, 2))
    yield np.zeros((6, 6))
    yield np.array([[2.0, 1.0], [1.0, 2.0]])
    yield np.array([[0.0, 1.0], [1.0, -0.0]])
    yield np.array([[-0.0, -1.0], [-1.0, 0.0]])
    for n in (2, 3, 4, 5, 8, 13):
        for _ in range(5):
            yield _planted_symmetric(rng, n)


def _bits(arrays):
    return [np.ascontiguousarray(x).view(np.int64) for x in arrays]


def test_jacobi_is_bitwise_equal_to_full_row_and_column_rotations(rng):
    for a in _jacobi_cases(rng):
        got, expected = _bits(jacobi_eigh(a)), _bits(rowcol_jacobi_eigh(a))
        assert all(np.array_equal(g, e) for g, e in zip(got, expected)), a


def test_jacobi_reads_the_upper_triangle(rng):
    for n in (2, 5, 13):
        a = _planted_symmetric(rng, n)
        near = np.where(np.tri(n, k=-1, dtype=bool), a + 1e-12 * rng.normal(size=(n, n)), a)
        got, expected = _bits(jacobi_eigh(near)), _bits(rowcol_jacobi_eigh(a))
        assert all(np.array_equal(g, e) for g, e in zip(got, expected))


def test_rank1_line():
    t = np.linspace(-2, 2, 9)
    ds = _dataset(np.stack([t, 2 * t], axis=1))
    model = fit_pca(ds, 2)
    direction = np.array([1.0, 2.0]) / np.sqrt(5.0)
    assert np.abs(model.components[0] - direction).max() < 1e-12
    assert model.eigenvalues[1] == pytest.approx(0.0, abs=1e-12)


def test_isotropic_tie_is_deterministic():
    pts = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]])
    ds = _dataset(pts, labels=list("aabb"))
    m1 = fit_pca(ds, 2)
    m2 = fit_pca(ds, 2)
    assert np.array_equal(m1.components, m2.components)
    assert m1.eigenvalues[0] == m1.eigenvalues[1]


def test_component_orthonormality_and_signs(rng):
    ds = _dataset(rng.normal(size=(30, 8)))
    model = fit_pca(ds, 5)
    gram = model.components @ model.components.T
    assert np.abs(gram - np.eye(5)).max() < 1e-9
    for row in model.components:
        assert row[int(np.argmax(np.abs(row)))] > 0
    assert (np.diff(model.eigenvalues) <= 1e-12).all()


def test_eigen_equation_residual(rng):
    ds = _dataset(rng.normal(size=(25, 6)))
    centered = ds.matrix - ds.matrix.mean(axis=0)
    cov = centered.T @ centered / 24
    model = fit_pca(ds, 4)
    for lam, vec in zip(model.eigenvalues, model.components):
        assert np.abs(cov @ vec - lam * vec).max() < 1e-8


def test_trace_identity(rng):
    ds = _dataset(rng.normal(size=(20, 7)))
    model = fit_pca(ds, 7)
    centered = ds.matrix - ds.matrix.mean(axis=0)
    cov = centered.T @ centered / 19
    assert model.eigenvalues.sum() == pytest.approx(np.trace(cov), abs=1e-8)


def test_full_reconstruction(rng):
    ds = _dataset(rng.normal(size=(12, 5)))
    model = fit_pca(ds, 5)
    centered = ds.matrix - model.mean
    scores = transform(model, ds.matrix)
    assert np.abs(scores @ model.components - centered).max() < 1e-8


def test_project_mean_is_origin(rng):
    ds = _dataset(rng.normal(size=(15, 4)))
    model = fit_pca(ds, 2)
    assert transform(model, model.mean[None])[0] == pytest.approx([0.0, 0.0], abs=0.0)


def test_transform_takes_only_a_matrix_of_the_fitted_width(rng):
    ds = _dataset(rng.normal(size=(15, 4)))
    model = fit_pca(ds, 2)
    for bad in (model.mean, ds.matrix[:, :3], ds.matrix[None]):
        with pytest.raises(DataError, match="^feature count does not match the fitted model$"):
            transform(model, bad)


def test_pc1_score_variance_equals_eigenvalue(rng):
    ds = _dataset(rng.normal(size=(40, 6)))
    model = fit_pca(ds, 2)
    scores = transform(model, ds.matrix)
    assert scores[:, 0].var(ddof=1) == pytest.approx(model.eigenvalues[0], abs=1e-9)


def test_rotation_leaves_score_distances(rng):
    base = rng.normal(size=(18, 4))
    q, _ = np.linalg.qr(rng.normal(size=(4, 4)))
    ds1 = _dataset(base)
    ds2 = _dataset(base @ q.T)
    s1 = transform(fit_pca(ds1, 4), ds1.matrix)
    s2 = transform(fit_pca(ds2, 4), ds2.matrix)
    d1 = np.linalg.norm(s1[:, None] - s1[None, :], axis=2)
    d2 = np.linalg.norm(s2[:, None] - s2[None, :], axis=2)
    assert np.abs(d1 - d2).max() < 1e-9


def test_fit_pca_preconditions(rng):
    with pytest.raises(DataError):
        fit_pca(_dataset(np.zeros((1, 3))), 1)
    with pytest.raises(DataError, match=r"^n_components must lie in \[2, 3\], got 1$"):
        fit_pca(_dataset(rng.normal(size=(5, 3))), 1)
    with pytest.raises(DataError):
        fit_pca(_dataset(rng.normal(size=(5, 3))), 5)


def test_correlation_flag(rng):
    base = rng.normal(size=(30, 3)) * np.array([1.0, 100.0, 0.01])
    ds = _dataset(base)
    model = fit_pca(ds, 3, correlation=True)
    assert model.scale == pytest.approx(base.std(axis=0, ddof=1), rel=1e-12)
    assert np.array_equal(fit_pca(ds, 3).scale, np.ones(3))  # a covariance fit divides by 1
    assert model.eigenvalues.sum() == pytest.approx(3.0, abs=1e-8)


def test_correlation_scores_are_the_covariance_scores_of_standardized_data(rng):
    x = rng.normal(size=(30, 4)) * np.array([1.0, 100.0, 0.01, 0.0]) + np.array([0, 5, 0, 7.0])
    model = fit_pca(_dataset(x), 3, correlation=True)
    centered = x - x.mean(axis=0)
    std = np.sqrt((centered ** 2).sum(axis=0) / (len(x) - 1))
    standardized = centered / np.where(std == 0.0, 1.0, std)  # the constant column stays
    plain = fit_pca(_dataset(standardized), 3)
    scores, expected = transform(model, x), transform(plain, standardized)
    signs = np.sign((scores * expected).sum(axis=0))
    assert np.allclose(scores * signs, expected, rtol=1e-12, atol=1e-12 * np.abs(expected).max())


# --- exports -----------------------------------------------------------------------

def test_export_scatter_roundtrip(tmp_path):
    rows = [
        ScatterRow("a", "x", 0.125, -3.5),
        ScatterRow("b", "y", 1e-17, 2.0),
    ]
    p = tmp_path / "s.csv"
    export_scatter(rows, p)
    assert [ScatterRow(*row) for row in read_csv_rows(p, *SCATTER)[1]] == rows
    assert p.read_text().splitlines()[0] == "sample_id,label,x,y"


def test_export_scatter_empty_and_svg(tmp_path):
    p = tmp_path / "s.csv"
    svg = tmp_path / "s.svg"
    export_scatter([], p, svg_path=svg)
    assert p.read_text() == "sample_id,label,x,y\n"
    assert svg.read_text().startswith("<svg ")


@pytest.mark.parametrize("row", ["b,y,2.0", "b,y,2.0,1.0,0.5", "b,y,2.0,x"],
                         ids=["short", "long", "text"])
def test_scatter_csv_rows_reject_malformed_rows(tmp_path, row):
    p = tmp_path / "s.csv"
    p.write_text(f"sample_id,label,x,y\na,x,0.5,1.0\n\n{row}\n")
    with pytest.raises(DataError, match="line 4: (. cells, expected 4|non-numeric cell)"):
        read_csv_rows(p, *SCATTER)


def test_svg_deterministic(tmp_path, rng):
    rows = [
        ScatterRow(f"s{i}", f"c{i % 4}", float(rng.normal()), float(rng.normal()))
        for i in range(20)
    ]
    s1, s2 = tmp_path / "a.svg", tmp_path / "b.svg"
    export_scatter(rows, tmp_path / "a.csv", svg_path=s1)
    export_scatter(rows, tmp_path / "b.csv", svg_path=s2)
    assert s1.read_bytes() == s2.read_bytes()


def test_svg_glyph_and_legend_lines(tmp_path):
    # one row in each of 8 classes: class c7 wraps to the style of c0
    xs = [0.0, 1.0137, 2.5, 3.00555, 4.0, 5.7, 6.123, 10.0]
    ys = [10.0, 9.1, 8.0071, 7.0, 6.45, 5.0, 4.333, 0.0]
    rows = [ScatterRow(f"s{i}", f"c{i}", x, y) for i, (x, y) in enumerate(zip(xs, ys))]
    svg = tmp_path / "s.svg"
    export_scatter(rows, tmp_path / "s.csv", svg_path=svg)
    assert svg.read_text().splitlines()[7:-1] == [
        '<circle cx="70.00" cy="70.00" r="4.0" fill="#1f60a8"/>',
        '<rect x="132.90" y="125.40" width="8.0" height="8.0" fill="#c23b22"/>',
        '<polygon points="235.00,197.53 231.00,205.53 239.00,205.53" fill="#2e8540"/>',
        '<polygon points="268.37,264.00 272.37,268.00 268.37,272.00 264.37,268.00" '
        'fill="#8031a7"/>',
        '<path d="M 330.00 300.30 L 338.00 308.30 M 330.00 308.30 L 338.00 300.30" '
        'stroke="#b8860b" stroke-width="1.5"/>',
        '<path d="M 442.20 400.00 L 450.20 400.00 M 446.20 396.00 L 446.20 404.00" '
        'stroke="#0d7a7a" stroke-width="1.5"/>',
        '<circle cx="474.12" cy="444.02" r="4.0" fill="none" stroke="#555555" '
        'stroke-width="1.5"/>',
        '<circle cx="730.00" cy="730.00" r="4.0" fill="#1f60a8"/>',
        '<circle cx="14.00" cy="20.00" r="4.0" fill="#1f60a8"/>',
        '<text x="26" y="24" font-size="12">c0</text>',
        '<rect x="10.00" y="32.00" width="8.0" height="8.0" fill="#c23b22"/>',
        '<text x="26" y="40" font-size="12">c1</text>',
        '<polygon points="14.00,48.00 10.00,56.00 18.00,56.00" fill="#2e8540"/>',
        '<text x="26" y="56" font-size="12">c2</text>',
        '<polygon points="14.00,64.00 18.00,68.00 14.00,72.00 10.00,68.00" fill="#8031a7"/>',
        '<text x="26" y="72" font-size="12">c3</text>',
        '<path d="M 10.00 80.00 L 18.00 88.00 M 10.00 88.00 L 18.00 80.00" '
        'stroke="#b8860b" stroke-width="1.5"/>',
        '<text x="26" y="88" font-size="12">c4</text>',
        '<path d="M 10.00 100.00 L 18.00 100.00 M 14.00 96.00 L 14.00 104.00" '
        'stroke="#0d7a7a" stroke-width="1.5"/>',
        '<text x="26" y="104" font-size="12">c5</text>',
        '<circle cx="14.00" cy="116.00" r="4.0" fill="none" stroke="#555555" '
        'stroke-width="1.5"/>',
        '<text x="26" y="120" font-size="12">c6</text>',
        '<circle cx="14.00" cy="132.00" r="4.0" fill="#1f60a8"/>',
        '<text x="26" y="136" font-size="12">c7</text>',
    ]


def test_feature_pair_rows(rng):
    ds = _dataset(rng.normal(size=(5, 4)))
    rows = feature_pair_rows(ds, 2, 4)
    assert rows[0].x == ds.matrix[0, 1] and rows[0].y == ds.matrix[0, 3]
    with pytest.raises(DataError):
        feature_pair_rows(ds, 0, 2)
    with pytest.raises(DataError):
        feature_pair_rows(ds, 1, 5)
