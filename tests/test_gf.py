"""Field construction, arithmetic, square classes, and enumeration order."""

import itertools
import random

import pytest

from quatcurves import (
    ENUMERATION_BOUND,
    BoundExceededError,
    Place,
    Poly,
    extend_field,
    make_field,
    monic_irreducibles,
    parse_poly,
)
from quatcurves.gf import ExtensionField, PrimeField, _first_irreducible
from quatcurves.polyring import _symbol_vector


# ---------------------------------------------------------------------------
# construction
# ---------------------------------------------------------------------------

def test_make_field_basics():
    f3 = make_field(3)
    assert (f3.p, f3.q, f3.e) == (3, 3, 1)
    assert f3.odd_characteristic

    f2 = make_field(2)
    assert not f2.odd_characteristic

    f9 = make_field(3, 2)
    assert (f9.p, f9.q, f9.e) == (3, 9, 2)


def test_make_field_rejects_composite_characteristic():
    with pytest.raises(ValueError):
        make_field(9)
    with pytest.raises(ValueError):
        make_field(1)


def test_modulus_is_first_irreducible_by_root_search():
    # independent oracle for degree 2: a monic quadratic over Z/p is
    # irreducible iff it has no root
    p = 3
    expected = None
    for k in range(p**2):
        c0, c1 = k % p, (k // p) % p
        if all((t * t + c1 * t + c0) % p != 0 for t in range(p)):
            expected = (c0, c1, 1)
            break
    assert make_field(3, 2).modulus == expected == (1, 0, 1)


def test_modulus_of_f25_has_no_roots():
    f25 = make_field(5, 2)
    c0, c1, c2 = f25.modulus
    assert c2 == 1
    assert all((t * t + c1 * t + c0) % 5 != 0 for t in range(5))


def test_modulus_passes_independent_irreducibility_test():
    # the modulus is found by trial division; the Rabin criterion from the
    # polynomial layer must agree
    from quatcurves import Poly, is_irreducible

    for p, e in ((3, 2), (3, 3), (5, 2), (7, 2), (2, 3)):
        ext = make_field(p, e)
        prime = make_field(p)
        assert is_irreducible(Poly(prime, ext.modulus))


# ---------------------------------------------------------------------------
# arithmetic
# ---------------------------------------------------------------------------

def test_prime_field_inverse():
    f3 = make_field(3)
    assert f3.inv(2) == 2
    assert f3.mul(2, f3.inv(2)) == 1
    with pytest.raises(ZeroDivisionError):
        f3.inv(0)


def test_additive_identity_exhaustive():
    for field in (make_field(3), make_field(5), make_field(3, 2)):
        for a in field.elements():
            assert field.add(a, field.zero) == a
            assert field.mul(a, field.one) == a
            assert field.add(a, field.neg(a)) == field.zero


def test_extension_inverse_exhaustive():
    f9 = make_field(3, 2)
    for a in f9.elements():
        if a == f9.zero:
            continue
        assert f9.mul(a, f9.inv(a)) == f9.one


def test_field_axioms_f9():
    f9 = make_field(3, 2)
    elems = list(f9.elements())
    for a in elems:
        for b in elems:
            assert f9.add(a, b) == f9.add(b, a)
            assert f9.mul(a, b) == f9.mul(b, a)
    for a in elems[:4]:
        for b in elems:
            for c in elems:
                assert f9.mul(a, f9.add(b, c)) == f9.add(f9.mul(a, b), f9.mul(a, c))


def test_generator_fourth_power_in_f9():
    # with modulus u^2+1, the class of u squares to -1, so u^4 = 1; u is
    # coded 0 + 1 * 3, its position in odometer order
    f9 = make_field(3, 2)
    theta = f9.parse_element("u")
    assert theta == 3
    assert f9.mul(theta, theta) == f9.from_int(-1)
    assert f9.pow(theta, 4) == f9.one


def test_pow_matches_repeated_multiplication():
    for field in (make_field(3), make_field(5), make_field(3, 2), make_field(5, 2)):
        assert field.q <= 25
        for a in field.elements():
            acc = field.one
            for n in range(17):
                assert field.pow(a, n) == acc
                acc = field.mul(acc, a)


def test_frobenius_fixes_the_field():
    for field in (make_field(3), make_field(3, 2), make_field(5, 2)):
        for a in field.elements():
            assert field.pow(a, field.q) == a


def test_pow_rejects_negative_exponent():
    f9 = make_field(3, 2)
    with pytest.raises(ValueError):
        f9.pow(f9.one, -1)


def _poly_of(field, a):
    """The coefficient polynomial of the element coded a, decoded here from
    the integer coding alone (constant coefficient first, base Q = base.q)."""
    coeffs = []
    for _ in range(field.m):
        a, c = divmod(a, field.base.q)
        coeffs.append(c)
    return Poly(field.base, coeffs)


def _code_of(field, poly):
    assert poly.degree < field.m
    return sum(c * field.base.q**i for i, c in enumerate(poly.coeffs))


def _table_oracle_cases(field, sample):
    elems = list(field.elements())
    if sample is None:
        return [(a, b) for a in elems for b in elems]
    rng = random.Random(field.q)
    return [(rng.choice(elems), rng.choice(elems)) for _ in range(sample)]


@pytest.mark.parametrize("field, sample", [
    (make_field(2, 2), None),
    (make_field(2, 3), None),
    (make_field(3, 2), None),
    (make_field(5, 2), None),
    (make_field(3, 3), None),
    (make_field(3, 4), 400),
    (extend_field(make_field(3, 2), 2), 400),
], ids=["F4", "F8", "F9", "F25", "F27", "F81", "F81/F9"])
def test_tables_match_polynomial_arithmetic_modulo_the_modulus(field, sample):
    """Table add/sub/neg/mul/inv/pow/is_square against Poly arithmetic modulo
    Poly(base, modulus) and Euler's criterion by repeated multiplication."""
    modulus = Poly(field.base, field.modulus)
    one = Poly(field.base, [field.base.one])
    for a, b in _table_oracle_cases(field, sample):
        pa, pb = _poly_of(field, a), _poly_of(field, b)
        assert field.add(a, b) == _code_of(field, (pa + pb) % modulus)
        assert field.sub(a, b) == _code_of(field, (pa - pb) % modulus)
        assert field.mul(a, b) == _code_of(field, (pa * pb) % modulus)
    exponents = range(field.q + 2) if sample is None else (0, 1, 2, 5, field.q - 2, field.q)
    half = (field.q - 1) // 2
    for a, _ in _table_oracle_cases(field, sample and 60):
        pa = _poly_of(field, a)
        assert field.neg(a) == _code_of(field, (-pa) % modulus)
        if a != field.zero:
            assert (pa * _poly_of(field, field.inv(a))) % modulus == one
        acc, euler = one, None
        for n in range(max(exponents) + 1):
            if n in exponents:
                assert field.pow(a, n) == _code_of(field, acc)
            if n == half:
                euler = acc
            acc = (acc * pa) % modulus
        if field.odd_characteristic:
            assert field.is_square(a) == (a == field.zero or euler == one)


@pytest.mark.parametrize("modulus", [(0, 0, 1), (2, 0, 1)], ids=["u^2", "u^2+2"])
def test_reducible_modulus_is_rejected(modulus):
    # u^2 has the nilpotent u and u^2+2 = (u+1)(u+2) splits; neither quotient
    # ring is a field, so no element has multiplicative order q - 1
    with pytest.raises(ValueError, match="reducible"):
        ExtensionField(make_field(3), modulus)


def test_direct_construction_past_the_bound_builds_no_tables():
    # 3^15 > ENUMERATION_BOUND: refused before any table or primitive search
    modulus = (1,) + (0,) * 14 + (1,)
    assert 3**15 > ENUMERATION_BOUND
    with pytest.raises(BoundExceededError):
        ExtensionField(make_field(3), modulus)


def test_tables_use_the_first_element_of_full_order():
    for field in (make_field(3, 2), make_field(2, 3), extend_field(make_field(3), 8)):
        def order(a):
            k, acc = 1, a
            while acc != field.one:
                k, acc = k + 1, field.mul(acc, a)
            return k

        units = range(1, field.q)
        first = next(a for a in units if order(a) == field.q - 1)
        assert field._exp[1] == first
        assert sorted(field._exp[: field.q - 1]) == list(units)


# ---------------------------------------------------------------------------
# squares
# ---------------------------------------------------------------------------

def test_is_square_prime_field():
    f3 = make_field(3)
    assert f3.is_square(0)
    assert f3.is_square(1)
    assert not f3.is_square(2)


def test_is_square_agrees_with_exhaustive_squaring():
    for field in (make_field(3), make_field(5), make_field(7), make_field(3, 2)):
        squared = {field.mul(a, a) for a in field.elements()}
        for a in field.elements():
            assert field.is_square(a) == (a in squared)


def test_base_constants_are_squares_in_quadratic_extension():
    f9 = make_field(3, 2)
    squared = {f9.mul(a, a) for a in f9.elements()}
    for c in range(3):
        assert f9.from_int(c) in squared
        assert f9.is_square(f9.from_int(c))


def test_is_square_rejects_even_characteristic():
    for field in (make_field(2), make_field(2, 2)):
        with pytest.raises(ValueError):
            field.is_square(field.one)
        with pytest.raises(ValueError):
            field.nonsquare()


def test_canonical_nonsquare_values():
    assert make_field(3).nonsquare() == 2
    assert make_field(5).nonsquare() == 2
    f9 = make_field(3, 2)
    kappa = f9.nonsquare()
    # oracle: the first enumerated nonzero element whose fourth power is not 1
    first = next(
        a for a in f9.elements() if a != f9.zero and f9.pow(a, 4) != f9.one
    )
    assert kappa == first == 4
    assert f9.element_str(kappa) == "u+1"


def test_square_classes_partition_units():
    for field in (make_field(3), make_field(5), make_field(3, 2), make_field(5, 2)):
        kappa = field.nonsquare()
        for a in field.elements():
            if a == field.zero:
                continue
            assert field.is_square(a) != field.is_square(field.mul(a, kappa))


# ---------------------------------------------------------------------------
# enumeration
# ---------------------------------------------------------------------------

def test_enumeration_prime_field():
    assert list(make_field(3).elements()) == [0, 1, 2]


def test_enumeration_cardinality_and_distinctness():
    for field in (make_field(3, 2), make_field(5, 2)):
        elems = list(field.elements())
        assert len(elems) == field.q
        assert len(set(elems)) == field.q


def test_enumeration_order_constant_term_fastest():
    f9 = make_field(3, 2)
    elems = list(f9.elements())
    assert [f9.element_str(a) for a in elems[:5]] == ["0", "1", "2", "u", "u+1"]
    for i, a in enumerate(elems):
        assert a == i
        assert f9.parse_element(f"{i // 3}u+{i % 3}") == a


def test_enumeration_closure_under_arithmetic():
    f9 = make_field(3, 2)
    elems = set(f9.elements())
    for a in elems:
        for b in elems:
            assert f9.add(a, b) in elems
            assert f9.mul(a, b) in elems


def test_enumeration_bound_enforced():
    f3 = make_field(3)
    with pytest.raises(BoundExceededError):
        extend_field(f3, 20)
    big = PrimeField(100000007)
    assert big.q > ENUMERATION_BOUND
    with pytest.raises(BoundExceededError):
        next(big.elements())


# ---------------------------------------------------------------------------
# extensions of non-prime fields
# ---------------------------------------------------------------------------

def test_extend_field_matches_make_field_over_prime():
    assert extend_field(make_field(3), 2) == make_field(3, 2)
    assert extend_field(make_field(3), 1) == make_field(3)


def test_separately_built_extension_equals_the_shared_field():
    f25 = make_field(5, 2)
    twin = ExtensionField(PrimeField(5), f25.modulus)
    assert twin is not f25
    assert twin == f25 and f25 == twin and hash(twin) == hash(f25)
    assert twin != ExtensionField(PrimeField(5), (3, 0, 1))  # u^2+3, also irreducible
    # polynomials over either object mix, and compare and hash alike
    a = parse_poly("T^2+uT+2", f25)
    b = Poly(twin, a.coeffs)
    assert a == b and hash(a) == hash(b)
    assert (a * b) % b == Poly.zero(f25) and a + b == a.scale(2)
    # the symbol-vector memo finds the entry of the shared field's place
    place = monic_irreducibles(2, f25)[3]
    twin_place = Place(Poly(twin, place.generator.coeffs))
    expected = _symbol_vector(place, 1)
    hits = _symbol_vector.cache_info().hits
    assert _symbol_vector(twin_place, 1) == expected
    assert _symbol_vector.cache_info().hits == hits + 1


def test_tower_extension_of_f9():
    f9 = make_field(3, 2)
    f81 = extend_field(f9, 2)
    assert f81.q == 81
    assert f81.base == f9
    # an element of F_9 is its own constant in F_81, and that embedding is a
    # ring homomorphism
    for a in f9.elements():
        for b in f9.elements():
            assert f9.add(a, b) == f81.add(a, b)
            assert f9.mul(a, b) == f81.mul(a, b)
    sample = list(itertools.islice(f81.elements(), 7))
    for a in sample:
        assert f81.pow(a, 81) == a


def test_first_irreducible_is_deterministic():
    f3 = make_field(3)
    assert _first_irreducible(f3, 2) == (1, 0, 1)
    assert _first_irreducible(f3, 3) == (1, 2, 0, 1)


# ---------------------------------------------------------------------------
# element text syntax
# ---------------------------------------------------------------------------

def test_element_text_round_trip():
    for field in (make_field(3), make_field(3, 2), make_field(5, 2)):
        for a in field.elements():
            assert field.parse_element(field.element_str(a)) == a


def test_tower_modulus_text_parenthesizes_composite_coefficients():
    # the modulus of F_81 over F_9 is u^2 + c with c = u+1 in F_9; printed
    # bare, "u^2+u+1" would read as a different polynomial
    f81 = extend_field(make_field(3, 2), 2)
    assert f81.modulus_str() == "u^2+(u+1)"


def test_element_parse_normalizes():
    f3 = make_field(3)
    assert f3.parse_element("5") == 2
    assert f3.parse_element("-1") == 2
    f9 = make_field(3, 2)
    assert f9.parse_element("u+2") == 2 + 1 * 3
    assert f9.parse_element("2u") == 0 + 2 * 3
    assert f9.parse_element("2*u+1") == 1 + 2 * 3
    assert f9.parse_element("u^2") == f9.from_int(-1)  # reduced by u^2+1


def test_element_parse_rejects_garbage():
    f9 = make_field(3, 2)
    for bad in ("", "v", "u+", "(u", "1..2"):
        with pytest.raises(ValueError):
            f9.parse_element(bad)
