import hashlib

import numpy as np
import pytest

from conftest import naive_dilate, naive_erode
from granulom.errors import DataError
from granulom.granulometry import _measured_openings
from granulom.imagecore import GreyImage, intensity
from granulom.morphology import (
    FAMILIES,
    StructuringElement,
    closing,
    dilate,
    dilate_raw,
    erode,
    erode_raw,
    opening,
    se_family,
)
from granulom.synthkit import _image_seed, builtin_corpus_spec, generate_texture


def test_structuring_element_validation():
    assert StructuringElement("hex", 3).family == "hexagon"
    with pytest.raises(DataError):
        StructuringElement("octagon", 1)
    with pytest.raises(DataError):
        StructuringElement("square", -1)
    assert se_family("Hex") == "hexagon"


@pytest.mark.parametrize("fn", (erode_raw, dilate_raw))
def test_raw_operators_canonicalise_the_alias(fn, rng):
    px = rng.integers(0, 256, (9, 8)).astype(np.uint8)
    naive = naive_erode if fn is erode_raw else naive_dilate
    for r in (1, 2, 3):
        assert np.array_equal(fn(px, "hex", r), naive(px, "hexagon", r))


@pytest.mark.parametrize("fn", (erode_raw, dilate_raw))
@pytest.mark.parametrize("family,size", [("bogus", 2), ("hexagon", -1), ("square", 1.5)])
def test_raw_operators_reject_a_bad_element(fn, family, size):
    with pytest.raises(DataError):
        fn(np.zeros((9, 8), dtype=np.uint8), family, size)


def test_erode_examples():
    const = GreyImage(np.full((5, 5), 42))
    for fam in FAMILIES:
        assert erode(const, StructuringElement(fam, 2)) == const

    px = np.zeros((5, 5), dtype=int)
    px[2, 2] = 255
    out = erode(GreyImage(px), StructuringElement("square", 1))
    assert out.pixels.sum() == 0

    img = GreyImage(np.array([[1, 2, 3], [4, 5, 6], [7, 8, 9]]))
    out = erode(img, StructuringElement("diamond", 1))
    assert out.pixels.tolist() == [[1, 1, 2], [1, 2, 3], [4, 5, 6]]


def test_dilate_examples():
    const = GreyImage(np.full((4, 6), 9))
    assert dilate(const, StructuringElement("diamond", 3)) == const
    px = np.zeros((5, 5), dtype=int)
    px[2, 2] = 255
    out = dilate(GreyImage(px), StructuringElement("square", 1))
    assert np.array_equal(out.pixels[1:4, 1:4], np.full((3, 3), 255))
    assert out.pixels.sum() == 9 * 255


def test_open_close_identity_and_annihilation():
    img = GreyImage(np.arange(30).reshape(5, 6) % 256)
    for fam in FAMILIES:
        se0 = StructuringElement(fam, 0)
        assert opening(img, se0) == img
        assert closing(img, se0) == img
    px = np.zeros((7, 7), dtype=int)
    px[3, 3] = 255
    for fam in FAMILIES:
        assert opening(GreyImage(px), StructuringElement(fam, 1)).pixels.sum() == 0


def test_open_filled_square_survives():
    px = np.zeros((11, 11), dtype=int)
    px[2:9, 2:9] = 255
    out = opening(GreyImage(px), StructuringElement("square", 1))
    assert np.array_equal(out.pixels, px)


def test_volume_and_area():
    assert GreyImage(np.zeros((3, 3), dtype=int)).pixels.sum() == 0
    assert GreyImage(np.array([[1, 2], [3, 4]])).pixels.sum() == 10
    binary = np.zeros((6, 6), dtype=int)
    binary.flat[[1, 5, 9, 17, 30]] = 255
    assert np.count_nonzero(GreyImage(binary).pixels) == 5
    assert np.count_nonzero(GreyImage(np.zeros((4, 4), dtype=int)).pixels) == 0


# --- equality with the direct (set-translation) definition ------------------------

@pytest.mark.parametrize("family", FAMILIES)
def test_iterated_equals_direct_definition(family, rng):
    for _ in range(6):
        px = rng.integers(0, 256, (9, 8))
        img = GreyImage(px)
        for r in range(4):
            se = StructuringElement(family, r)
            assert np.array_equal(erode(img, se).pixels, naive_erode(px, family, r))
            assert np.array_equal(dilate(img, se).pixels, naive_dilate(px, family, r))


@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("shape", [(7, 6), (6, 9), (1, 9), (8, 1), (5, 1)])
def test_segment_form_equals_direct_definition_past_the_frame(family, shape, rng):
    # sizes up to and beyond the frame, odd and even heights, 1xN and Nx1 frames;
    # from h + w on, a size is computed as size h + w
    px = rng.integers(0, 256, shape)
    img = GreyImage(px)
    n = sum(shape)
    for r in (0, 1, 2, 3, 4, 7, 13, n - 1, n, n + 1):
        se = StructuringElement(family, r)
        assert np.array_equal(erode(img, se).pixels, naive_erode(px, family, r)), r
        assert np.array_equal(dilate(img, se).pixels, naive_dilate(px, family, r)), r
    huge = StructuringElement(family, 10**9)  # as size n: the frame extremum at every pixel
    assert np.array_equal(erode(img, huge).pixels, np.full(shape, px.min()))
    assert np.array_equal(dilate(img, huge).pixels, np.full(shape, px.max()))


@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("shape", [(9, 8), (7, 10), (1, 6), (6, 1)])
def test_stack_equals_separate_images(family, shape, rng):
    stack = rng.integers(0, 256, (4,) + shape).astype(np.uint8)
    stack[1] = 0
    for r in (0, 1, 2, 5):
        for fn in (erode_raw, dilate_raw):
            together = fn(stack, family, r)
            assert together.shape == stack.shape
            for i in range(len(stack)):
                assert np.array_equal(together[i], fn(stack[i], family, r))

    def volumes(images):
        measured = _measured_openings(images, family, 6, lambda g: g.sum(axis=(-2, -1)))
        return np.stack(list(measured), axis=-1)

    together = volumes(stack.reshape(2, 2, *shape))
    assert together.shape == (2, 2, 7)
    for i in range(len(stack)):
        assert np.array_equal(together.reshape(4, 7)[i], volumes(stack[i]))


# sha256 of erode_raw then dilate_raw of two granite14 intensity images (classes
# 0 and 7, sample 0, 96x96) for each family in FAMILIES order at each size in
# _GOLDEN_SIZES, recorded before the unit step was folded into the segment path.
_GOLDEN_SIZES = (1, 2, 5, 13, 25)
_MORPHOLOGY_SHA256 = "dd45d88771a0cfdfeaefb971c81edbb46cae1758154803ade438ba55f20c7434"


def test_granite_images_golden_bytes():
    spec = builtin_corpus_spec("granite14")
    stack = np.stack([
        intensity(generate_texture(spec.classes[ci], spec.image_size,
                                   _image_seed(spec.seed, ci, 0))).pixels
        for ci in (0, 7)
    ])
    assert stack.shape == (2, 96, 96)
    digest = hashlib.sha256()
    for family in FAMILIES:
        for r in _GOLDEN_SIZES:
            for fn in (erode_raw, dilate_raw):
                digest.update(fn(stack, family, r).tobytes())
    assert digest.hexdigest() == _MORPHOLOGY_SHA256


# --- axioms ------------------------------------------------------------------------

def _random_images(rng, n, shape=(12, 11)):
    for _ in range(n):
        yield GreyImage(rng.integers(0, 256, shape))


@pytest.mark.parametrize("family", FAMILIES)
def test_idempotence(family, rng):
    for img in _random_images(rng, 4):
        for r in (1, 2, 3):
            se = StructuringElement(family, r)
            once = opening(img, se)
            assert opening(once, se) == once
            conce = closing(img, se)
            assert closing(conce, se) == conce


@pytest.mark.parametrize("family", FAMILIES)
def test_extensivity_ordering(family, rng):
    for img in _random_images(rng, 4):
        for r in (1, 3):
            se = StructuringElement(family, r)
            assert (opening(img, se).pixels <= img.pixels).all()
            assert (closing(img, se).pixels >= img.pixels).all()


@pytest.mark.parametrize("family", FAMILIES)
def test_increasingness(family, rng):
    for _ in range(4):
        f = rng.integers(0, 200, (10, 10))
        g = f + rng.integers(0, 56, (10, 10))  # g >= f pointwise
        se = StructuringElement(family, 2)
        assert (opening(GreyImage(f), se).pixels <= opening(GreyImage(g), se).pixels).all()


@pytest.mark.parametrize("family", FAMILIES)
def test_sieve_property(family, rng):
    for img in _random_images(rng, 3):
        for r in (0, 1, 2, 3):
            for s in (0, 1, 2, 3):
                lhs = opening(opening(img, StructuringElement(family, r)),
                              StructuringElement(family, s))
                rhs = opening(img, StructuringElement(family, max(r, s)))
                assert lhs == rhs


@pytest.mark.parametrize("family", FAMILIES)
def test_duality(family, rng):
    for img in _random_images(rng, 4):
        se = StructuringElement(family, 2)
        complement = GreyImage(255 - img.pixels)
        assert np.array_equal(
            closing(img, se).pixels, 255 - opening(complement, se).pixels
        )
        assert np.array_equal(
            dilate(img, se).pixels, 255 - erode(complement, se).pixels
        )


def test_anti_extensive_volume(rng):
    for img in _random_images(rng, 3):
        for fam in FAMILIES:
            se = StructuringElement(fam, 2)
            assert opening(img, se).pixels.sum() <= img.pixels.sum()
