"""Point counting, zeta numerators, Jacobian orders, class numbers."""

import pytest

from quatcurves import (
    BoundExceededError,
    ClassNumberCache,
    Poly,
    class_number,
    extend_field,
    is_imaginary,
    is_squarefree,
    jacobian_order,
    l_polynomial,
    make_field,
    parse_poly,
    point_count,
    predicted_point_count,
    quadratic_order_info,
)
from quatcurves import curves

from conftest import all_polys_up_to


def poly(field, text):
    return parse_poly(text, field)


# ---------------------------------------------------------------------------
# quadratic order data
# ---------------------------------------------------------------------------

def test_order_info_examples(f3):
    ramified = quadratic_order_info(poly(f3, "T^3-T+1"))
    assert ramified.imaginary and ramified.infinity_type == "ramified"
    assert ramified.curve_genus == 1

    split = quadratic_order_info(poly(f3, "T^2+1"))
    assert not split.imaginary and split.infinity_type == "split"

    inert = quadratic_order_info(poly(f3, "2T^2+2"))
    assert inert.imaginary and inert.infinity_type == "inert"
    assert inert.curve_genus == 0

    assert is_imaginary(poly(f3, "T"))


def test_order_info_rejects_bad_input(f3):
    with pytest.raises(ValueError):
        quadratic_order_info(poly(f3, "2"))
    with pytest.raises(ValueError):
        quadratic_order_info(poly(f3, "T^2+2T+1"))
    f2 = make_field(2)
    with pytest.raises(ValueError):
        quadratic_order_info(parse_poly("T", f2))


def test_curve_genus_from_degree(f3):
    for text, g in (("T", 0), ("2T^2+2", 0), ("T^3+T", 1), ("2T^4+T^2+2T", 1),
                    ("T^5+T+1", 2)):
        f = poly(f3, text)
        if is_squarefree(f):
            assert quadratic_order_info(f).curve_genus == g


# ---------------------------------------------------------------------------
# point counts
# ---------------------------------------------------------------------------

def test_point_count_golden_values(f3):
    assert point_count(poly(f3, "T^3-T+1")) == 7
    assert point_count(poly(f3, "2T^3+T+2")) == 1  # 2 (T^3-T+1)
    assert point_count(poly(f3, "T^3+T")) == 4
    # frozen from an independent implementation of the same exhaustive count
    assert point_count(poly(f3, "T^3-T+1"), 2) == 7
    assert point_count(poly(f3, "T^3+T"), 2) == 16
    assert point_count(poly(f3, "2T^4+T^2+2T")) == 3
    assert point_count(poly(f3, "2T^4+T^2+2T"), 2) == 15


def test_point_count_genus_zero_is_projective_line(f3):
    # any squarefree model of degree 1 or 2 has q^m + 1 points
    for f in all_polys_up_to(f3, 2):
        if f.degree < 1 or not is_squarefree(f):
            continue
        for m in (1, 2):
            assert point_count(f, m) == 3**m + 1


def test_point_count_infinity_convention(f3):
    # odd degree: one point at infinity (affine count computed by hand)
    assert point_count(poly(f3, "T")) == 3 + 1
    # even degree, square leading coefficient: two points at infinity
    assert point_count(poly(f3, "T^2+1")) == 2 + 2
    # even degree, non-square leading coefficient: none over F_3 ...
    assert point_count(poly(f3, "2T^2+2")) == 4 + 0
    # ... but two over F_9, where 2 becomes a square
    f9 = extend_field(f3, 2)
    assert f9.is_square(f9.from_int(2))
    assert point_count(poly(f3, "2T^2+2"), 2) == 10


def test_point_count_shift_invariance(f3):
    t = Poly.variable(f3)
    for text in ("T^3-T+1", "2T^3+T+2", "T^4+T^2+2", "2T^4+T^2+2T"):
        f = poly(f3, text)
        for c in (1, 2):
            shifted = Poly.zero(f3)
            power = Poly.one(f3)
            base = t + Poly.constant(f3, f3.from_int(c))
            for coeff in f.coeffs:
                shifted = shifted + power.scale(coeff)
                power = power * base
            if not is_squarefree(shifted):
                continue
            for m in (1, 2):
                assert point_count(shifted, m) == point_count(f, m)


def test_point_count_validation(f3):
    with pytest.raises(ValueError):
        point_count(poly(f3, "T^2+2T+1"))
    with pytest.raises(ValueError):
        point_count(poly(f3, "T"), 0)
    with pytest.raises(BoundExceededError):
        point_count(poly(f3, "T"), 20)


def test_hasse_weil_for_all_genus_one_models():
    for p in (3, 5):
        field = make_field(p)
        for f in all_polys_up_to(field, 4):
            if f.degree < 3 or not is_squarefree(f):
                continue
            if quadratic_order_info(f).curve_genus != 1:
                continue
            n = point_count(f)
            assert (n - p - 1) ** 2 <= 4 * p


# ---------------------------------------------------------------------------
# zeta numerator
# ---------------------------------------------------------------------------

def test_l_polynomial_golden(f3):
    assert l_polynomial(poly(f3, "T^3-T+1")) == [1, 3, 3]
    assert l_polynomial(poly(f3, "T")) == [1]
    assert l_polynomial(poly(f3, "2T^2+2")) == [1]
    assert l_polynomial(poly(f3, "2T^4+T^2+2T")) == [1, -1, 3]


def test_genus_one_jacobian_equals_curve_count(f3):
    for f in all_polys_up_to(f3, 4):
        if f.degree < 3 or not is_squarefree(f):
            continue
        assert sum(l_polynomial(f)) == point_count(f)


def test_l_polynomial_functional_equation(f3):
    for text in ("T^5+T+1", "T^5+2T^2+1", "2T^5+T+1"):
        f = poly(f3, text)
        if not is_squarefree(f):
            continue
        c = l_polynomial(f)
        g = (len(c) - 1) // 2
        assert g == 2 and c[0] == 1
        for i in range(g):
            assert c[2 * g - i] == 3 ** (g - i) * c[i]


def test_predictions_match_exhaustive_counts_smoke(f3):
    for f in all_polys_up_to(f3, 4):
        if f.degree < 1 or not is_squarefree(f):
            continue
        g = quadratic_order_info(f).curve_genus
        for m in range(1, 2 * g + 1):
            assert predicted_point_count(f, m) == point_count(f, m)


def test_jacobian_order_golden(f3):
    assert jacobian_order(poly(f3, "T^3-T+1")) == 7
    assert jacobian_order(poly(f3, "T")) == 1
    assert jacobian_order(poly(f3, "2T^3+2T")) == 4


# ---------------------------------------------------------------------------
# class numbers
# ---------------------------------------------------------------------------

def test_class_number_golden(f3):
    assert class_number(poly(f3, "T^3-T+1")) == 7
    assert class_number(poly(f3, "2T^2+2")) == 2
    assert class_number(poly(f3, "2T^3+T+2")) == 1
    assert class_number(poly(f3, "2T^4+T^2+2T")) == 6


def test_class_number_rejects_split_extension(f3):
    with pytest.raises(ValueError):
        class_number(poly(f3, "T^2+1"))


def test_class_number_cache_round_trip(tmp_path, f3):
    cache = ClassNumberCache()
    a = poly(f3, "T^3-T+1")
    b = poly(f3, "2T^2+2")
    assert class_number(a, cache) == 7
    assert class_number(b, cache) == 2
    assert class_number(a, cache) == 7
    assert len(cache) == 2

    path = tmp_path / "h.cache"
    cache.save(path)
    text = path.read_text()
    assert "3 1 T^3+2T+1 7" in text
    assert "3 1 2T^2+2 2" in text

    reloaded = ClassNumberCache()
    reloaded.load(path)
    assert reloaded.get(a) == 7
    assert class_number(a, reloaded) == 7


def test_class_number_cache_failed_save_keeps_previous_file(tmp_path, f3, monkeypatch):
    cache = ClassNumberCache()
    class_number(poly(f3, "T^3-T+1"), cache)
    path = tmp_path / "h.cache"
    cache.save(path)
    before = path.read_bytes()
    class_number(poly(f3, "2T^2+2"), cache)

    class FailingWrite:
        """A file whose writelines gets one line out, then fails."""

        def __init__(self, handle):
            self.handle = handle

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self.handle.close()
            return False

        def writelines(self, lines):
            self.handle.write(lines[0])
            self.handle.flush()
            raise OSError("no space left on device")

    real_open = open
    monkeypatch.setattr(
        curves, "open", lambda *args, **kwargs: FailingWrite(real_open(*args, **kwargs)),
        raising=False,
    )
    with pytest.raises(OSError):
        cache.save(path)
    assert path.read_bytes() == before
    assert list(tmp_path.iterdir()) == [path]

    monkeypatch.undo()
    cache.save(path)
    assert path.read_text() == "3 1 2T^2+2 2\n3 1 T^3+2T+1 7\n"


def test_class_number_cache_conflict(tmp_path):
    path = tmp_path / "h.cache"
    path.write_text("3 1 T 1\n3 1 T 2\n")
    cache = ClassNumberCache()
    with pytest.raises(ValueError):
        cache.load(path)


def test_class_number_matches_parity_rule(f3):
    for f in all_polys_up_to(f3, 4):
        if f.degree < 1 or not is_squarefree(f):
            continue
        info = quadratic_order_info(f)
        if not info.imaginary:
            continue
        expected = jacobian_order(f) * (2 if f.degree % 2 == 0 else 1)
        assert class_number(f) == expected
