import numpy as np
import pytest

from conftest import naive_erode, translate_opening_binary, translate_opening_grey, umbra_si_cell
from granulom.csvrows import read_csv_rows
from granulom.errors import DataError
from granulom.granulometry import (
    MAX_R_MAX,
    GranulometryCurve,
    _measured_openings,
    export_curve,
    granulometry_closings,
    granulometry_openings,
    size_intensity,
)
from granulom.imagecore import GreyImage


def test_constant_image_curves_are_zero():
    img = GreyImage(np.full((6, 6), 77))
    for fam in ("hexagon", "square", "diamond"):
        assert granulometry_openings(img, fam, 4).values == (0.0,) * 5
        assert granulometry_closings(img, fam, 4).values == (0.0,) * 5


def test_single_pixel_annihilated():
    px = np.zeros((5, 5), dtype=int)
    px[2, 2] = 255
    curve = granulometry_openings(GreyImage(px), "hexagon", 3)
    assert curve.values == (0.0, 1.0, 1.0, 1.0)


def test_side7_square_jump_between_3_and_4():
    px = np.zeros((15, 15), dtype=int)
    px[4:11, 4:11] = 255
    curve = granulometry_openings(GreyImage(px), "square", 5)
    assert curve.values[:4] == (0.0, 0.0, 0.0, 0.0)
    assert curve.values[4] == 1.0 and curve.values[5] == 1.0


def test_errors():
    with pytest.raises(DataError):
        granulometry_openings(GreyImage(np.zeros((3, 3), dtype=int)), "hex", 2)
    with pytest.raises(DataError):
        granulometry_closings(GreyImage(np.full((3, 3), 255)), "hex", 2)
    px = np.arange(1, 10).reshape(3, 3)
    px[1, 1] = 0  # an empty erosion ends the opening sequence early
    img = GreyImage(px)
    assert len(granulometry_openings(img, "hex", MAX_R_MAX).values) == MAX_R_MAX + 1
    for r_max in (-1, MAX_R_MAX + 1, 10**9):
        for fn in (granulometry_openings, granulometry_closings, size_intensity):
            with pytest.raises(DataError, match=rf"^r_max must lie in \[0, {MAX_R_MAX}\], got "):
                fn(img, "hex", r_max)


def test_single_pit_closing():
    px = np.full((5, 5), 255)
    px[2, 2] = 0
    curve = granulometry_closings(GreyImage(px), "square", 3)
    assert curve.values == (0.0, 1.0, 1.0, 1.0)


def test_closing_equals_opening_of_complement(rng):
    for _ in range(5):
        px = rng.integers(1, 255, (8, 8))
        img = GreyImage(px)
        comp = GreyImage(255 - px)
        for fam in ("hexagon", "square", "diamond"):
            closing_curve = granulometry_closings(img, fam, 4)
            opening_curve = granulometry_openings(comp, fam, 4)
            assert closing_curve.values == opening_curve.values


def test_curve_monotone_and_bounded(rng):
    for _ in range(5):
        img = GreyImage(rng.integers(0, 256, (10, 10)))
        curve = granulometry_openings(img, "hexagon", 6)
        values = np.array(curve.values)
        assert values[0] == 0.0
        assert (np.diff(values) >= 0).all()
        assert (values <= 1.0).all() and (values >= 0.0).all()


def test_openings_match_set_translation_oracle(rng):
    for i in range(8):
        family = ("hexagon", "square", "diamond")[i % 3]
        px = rng.integers(0, 256, (8, 8))
        img = GreyImage(px)
        total = int(px.sum())
        curve = granulometry_openings(img, family, 3)
        for r in range(4):
            opened = translate_opening_grey(px, family, r)
            expected = (total - int(opened.sum())) / total
            assert curve.values[r] == expected


def test_openings_past_the_flat_erosion_match_oracles(rng):
    # two 3 x 4 frames per stack, the first with a zero pixel and the second
    # without; r_max 9 runs past the size at which both erosions are flat
    for family in ("hexagon", "square", "diamond"):
        for _ in range(2):
            stack = rng.integers(1, 256, (2, 3, 4)).astype(np.uint8)
            stack[0, rng.integers(0, 3), rng.integers(0, 4)] = 0
            flat_from = [
                min(r for r in range(10) if np.unique(naive_erode(px, family, r)).size == 1)
                for px in stack
            ]
            assert max(flat_from) < 9
            opened = list(_measured_openings(stack, family, 9, lambda g: g))
            assert len(opened) == 10
            for r, g in enumerate(opened):
                for px, gr in zip(stack, g):
                    assert np.array_equal(gr, translate_opening_grey(px, family, r)), (family, r)


def test_flat_tail_is_measured_once_and_matches_per_size_oracles(rng, monkeypatch):
    # 3 x 4 frames without a zero pixel: the erosion is flat before size 9, and
    # every size from there to r_max reads the one flat array
    histograms = []
    bincount = np.bincount
    monkeypatch.setattr(np, "bincount",
                        lambda *args, **kw: histograms.append(1) or bincount(*args, **kw))
    r_max = 12
    for family in ("hexagon", "square", "diamond"):
        px = rng.integers(1, 256, (3, 4)).astype(np.uint8)
        measured = []
        opened = list(_measured_openings(px, family, r_max, lambda g: measured.append(g) or g))
        assert len(opened) == r_max + 1
        distinct = len(measured)
        assert distinct < r_max + 1
        histograms.clear()
        si = size_intensity(GreyImage(px), family, r_max)
        assert len(histograms) == distinct
        curve = granulometry_openings(GreyImage(px), family, r_max)
        total = int(px.sum())
        for r in range(r_max + 1):
            oracle = translate_opening_grey(px, family, r)
            assert si.cells[r].tolist() == [int((oracle >= k).sum()) for k in si.levels]
            assert curve.values[r] == (total - int(oracle.sum())) / total, (family, r)


# --- size-intensity ---------------------------------------------------------------

def test_si_column_zero_is_survival_histogram():
    img = GreyImage(np.array([[0, 1], [2, 2]]))
    si = size_intensity(img, "hexagon", 2, k_max=3)
    assert si.cells[0, si.levels.index(1)] == 3
    assert si.cells[0, si.levels.index(2)] == 2
    assert si.cells[0, si.levels.index(3)] == 0


def test_si_constant_image():
    img = GreyImage(np.full((3, 3), 2))
    si = size_intensity(img, "square", 2, k_max=4)
    for r in range(3):
        for k in (1, 2):
            assert si.cells[r, si.levels.index(k)] == 9
        for k in (3, 4):
            assert si.cells[r, si.levels.index(k)] == 0


def test_si_rows_match_binary_opening_oracle(rng):
    frames = [rng.integers(0, 8, (8, 8)) for _ in range(4)]
    # erosions that empty before r_max: all zero, one row, odd height
    frames.append(np.zeros((8, 8), dtype=int))
    row = rng.integers(1, 8, (1, 9))
    row[0, 0] = 0
    frames.append(row)
    odd = rng.integers(1, 8, (3, 5))
    odd[2, 4] = 0
    frames.append(odd)
    for i, px in enumerate(frames):
        family = ("hexagon", "square", "diamond")[i % 3]
        r_max = 3 if i < 4 else 10
        si = size_intensity(GreyImage(px), family, r_max, k_max=7)
        for k in range(1, 8):
            mask = px >= k
            for r in range(r_max + 1):
                oracle = int(translate_opening_binary(mask, family, r).sum())
                assert si.cells[r, si.levels.index(k)] == oracle, (i, family, r, k)


def test_si_matches_umbra_oracle(rng):
    for i in range(3):
        family = ("hexagon", "square", "diamond")[i % 3]
        px = rng.integers(0, 17, (8, 8))
        si = size_intensity(GreyImage(px), family, 2, k_max=16)
        for r in range(3):
            for k in range(1, 17):
                cell = si.cells[r, si.levels.index(k)]
                assert cell == umbra_si_cell(px, family, r, k), (family, r, k)


def test_si_monotone_both_axes(rng):
    for _ in range(4):
        px = rng.integers(0, 40, (10, 10))
        si = size_intensity(GreyImage(px), "hexagon", 4, k_max=40)
        cells = si.cells
        assert (np.diff(cells, axis=0) <= 0).all()  # non-increasing in r
        assert (np.diff(cells, axis=1) <= 0).all()  # non-increasing in k
        assert cells.max() <= 100


def test_si_levels_stride():
    px = np.arange(64, dtype=int).reshape(8, 8) % 32
    full = size_intensity(GreyImage(px), "square", 2, k_max=31)
    strided = size_intensity(GreyImage(px), "square", 2, k_max=31, k_step=5)
    assert strided.levels == (1, 6, 11, 16, 21, 26, 31)
    for col, k in enumerate(strided.levels):
        assert np.array_equal(strided.cells[:, col], full.cells[:, k - 1])


# --- export -----------------------------------------------------------------------

# header, cell kinds and name of the exported curve and diagram CSVs, for read_csv_rows
CURVE = ("r,value", (int, float), "granulometry curve")
DIAGRAM = ("r,k,count", (int, int, int), "size-intensity")


def test_export_curve_roundtrip(tmp_path):
    curve = GranulometryCurve((0.0, 0.25))
    path = tmp_path / "curve.csv"
    export_curve(curve, path)
    text = path.read_text()
    assert text.splitlines()[0] == "r,value"
    assert len(text.splitlines()) == 3
    _, rows = read_csv_rows(path, *CURVE)
    assert tuple(rows) == ((0, 0.0), (1, 0.25))


def test_export_diagram_shape(tmp_path):
    img = GreyImage(np.array([[0, 1], [2, 2]]))
    si = size_intensity(img, "hexagon", 1, k_max=2)
    path = tmp_path / "si.csv"
    export_curve(si, path)
    _, rows = read_csv_rows(path, *DIAGRAM)
    assert len(rows) == 4  # (r_max+1) * k_max
    assert rows[0] == (0, 1, 3)


@pytest.mark.parametrize("layout,text", [
    (CURVE, "r,value\n0,0.0\n\n1\n"),
    (CURVE, "r,value\n0,0.0\n\n1,0.5,7\n"),
    (CURVE, "r,value\n0,0.0\n\n1,x\n"),
    (DIAGRAM, "r,k,count\n0,1,3\n\n1,2\n"),
    (DIAGRAM, "r,k,count\n0,1,3\n\n1,2,3,4\n"),
    (DIAGRAM, "r,k,count\n0,1,3\n\n1,2.5,3\n"),
], ids=["curve-short", "curve-long", "curve-text", "diagram-short", "diagram-long",
        "diagram-text"])
def test_exported_csv_readers_reject_malformed_rows(tmp_path, layout, text):
    path = tmp_path / "in.csv"
    path.write_text(text)
    with pytest.raises(DataError, match="line 4: (. cells, expected|non-numeric cell)"):
        read_csv_rows(path, *layout)
