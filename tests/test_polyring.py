"""Polynomial ring operations, places, and residue symbols."""

import functools
import itertools
import random

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from quatcurves import (
    BoundExceededError,
    Place,
    Poly,
    is_irreducible,
    is_squarefree,
    iter_monic_irreducibles,
    make_field,
    monic_irreducibles,
    parse_poly,
    poly_gcd,
    residue_symbol,
)
from quatcurves import polyring
from quatcurves.gf import _poly_list_mod
from quatcurves.polyring import _residue_symbol, iter_monic_polys

from conftest import all_polys_up_to, euler_symbol, necklace_count


def poly(field, text):
    return parse_poly(text, field)


# ---------------------------------------------------------------------------
# independent oracles used below
# ---------------------------------------------------------------------------

def trial_division_irreducible(f):
    """Divisibility by every monic polynomial of degree <= deg f / 2."""
    field = f.field
    for d in range(1, f.degree // 2 + 1):
        for g in iter_monic_polys(d, field):
            if (f % g).is_zero:
                return False
    return True


def has_square_factor(f):
    """Divisibility by the square of some monic nonconstant polynomial."""
    field = f.field
    for d in range(1, f.degree // 2 + 1):
        for g in iter_monic_polys(d, field):
            if (f % (g * g)).is_zero:
                return True
    return False


# ---------------------------------------------------------------------------
# structure and text
# ---------------------------------------------------------------------------

def test_normalization_and_degree_sentinel(f3):
    assert Poly(f3, (1, 2, 0, 0)).coeffs == (1, 2)
    zero = Poly.zero(f3)
    assert zero.is_zero and zero.degree == -1
    assert zero.degree < Poly.one(f3).degree


def test_parse_examples(f3, f9):
    assert poly(f3, "T^3-T+1").coeffs == (1, 2, 0, 1)
    assert poly(f3, "2T^2+T").coeffs == (0, 1, 2)
    assert poly(f3, "2*T^2+1") == poly(f3, "2T^2+1")
    assert poly(f9, "T^2+(u+1)T+2").coeffs == (f9.from_int(2), (1, 1), f9.one)
    assert poly(f9, "uT+u^2").coeffs == (f9.from_int(-1), (0, 1))


def test_parse_rejects_garbage(f3):
    for bad in ("", "T^", "x+1", "T**2", "(T+1)"):
        with pytest.raises(ValueError):
            poly(f3, bad)


def test_str_round_trip(f3, f9):
    samples_f3 = ["T^3+2T+1", "2T^2+T", "1", "T", "T^4+T^2+2"]
    for text in samples_f3:
        assert str(poly(f3, text)) == text
        assert poly(f3, str(poly(f3, text))) == poly(f3, text)
    samples_f9 = ["T^2+(u+1)T+2", "uT^2+2", "(2u+1)T+u"]
    for text in samples_f9:
        assert poly(f9, str(poly(f9, text))) == poly(f9, text)


# ---------------------------------------------------------------------------
# ring arithmetic
# ---------------------------------------------------------------------------

def test_gcd_of_coprime_polys(f3):
    g = poly_gcd(poly(f3, "T^2+1"), poly(f3, "T-1"))
    assert g == Poly.one(f3)
    # T^2+1 indeed has no roots over Z/3
    f = poly(f3, "T^2+1")
    assert all(f(t) != f3.zero for t in f3.elements())


def test_gcd_normalized_monic(f3):
    a = poly(f3, "2T^2+2")  # 2 (T^2+1)
    g = poly_gcd(a, poly(f3, "T^2+1"))
    assert g == poly(f3, "T^2+1")


def test_eval(f3):
    assert poly(f3, "T^3-T+1")(f3.from_int(2)) == 1


def test_divmod_identity_and_zero_division(f3):
    f = poly(f3, "T^3+2T+1")
    q, r = divmod(f, f)
    assert q == Poly.one(f3) and r.is_zero
    with pytest.raises(ZeroDivisionError):
        divmod(f, Poly.zero(f3))


def test_divmod_reconstruction(f3):
    polys = [poly(f3, s) for s in ("T^3+2T+1", "T^2+1", "2T+1", "T^4+T")]
    for a in polys:
        for b in polys:
            q, r = divmod(a, b)
            assert q * b + r == a
            assert r.is_zero or r.degree < b.degree


@pytest.mark.parametrize("p, e", [(3, 2), (5, 2)])
def test_divmod_by_monic_divisor_inverts_nothing(p, e, monkeypatch):
    field = make_field(p, e)
    inverted = []
    real_inv = field.inv

    def counting_inv(a):
        inverted.append(a)
        return real_inv(a)

    monkeypatch.setitem(vars(field), "inv", counting_inv)
    rng = random.Random(p**e)
    elems = list(field.elements())
    for _ in range(300):
        b = Poly(field, [rng.choice(elems) for _ in range(rng.randint(1, 4))] + [field.one])
        a = Poly(field, [rng.choice(elems) for _ in range(rng.randint(0, 10))])
        quot, rem = divmod(a, b)
        assert list(rem.coeffs) == _poly_list_mod(field, a.coeffs, b.coeffs)
        assert quot * b + rem == a and rem.degree < b.degree
    assert inverted == []
    two = field.from_int(2)
    divmod(Poly(field, (field.one, field.one, field.one)), Poly(field, (field.one, two)))
    assert inverted == [two]


def test_derivative(f3):
    assert poly(f3, "T^3+T").derivative() == Poly.one(f3)
    assert poly(f3, "T^2+2T+1").derivative() == poly(f3, "2T+2")


# ---------------------------------------------------------------------------
# irreducibility
# ---------------------------------------------------------------------------

def test_irreducible_examples(f3):
    assert is_irreducible(poly(f3, "T^2+1"))
    assert is_irreducible(poly(f3, "T^3-T+1"))
    assert not is_irreducible(poly(f3, "T^2-1"))
    with pytest.raises(ValueError):
        is_irreducible(Poly.one(f3))


def test_irreducibility_matches_trial_division():
    f3, f5 = make_field(3), make_field(5)
    for f in iter_monic_polys(4, f3):
        assert is_irreducible(f) == trial_division_irreducible(f)
    for d in (2, 3):
        for f in iter_monic_polys(d, f3):
            assert is_irreducible(f) == trial_division_irreducible(f)
        for f in itertools.islice(iter_monic_polys(d, f5), 60):
            assert is_irreducible(f) == trial_division_irreducible(f)


def test_squarefree_examples(f3):
    assert is_squarefree(poly(f3, "T^3+T"))
    assert not is_squarefree(poly(f3, "T-1") * poly(f3, "T-1"))
    assert is_squarefree(poly(f3, "T^2+1"))
    assert is_squarefree(poly(f3, "2"))
    with pytest.raises(ValueError):
        is_squarefree(Poly.zero(f3))


def test_squarefree_matches_square_factor_search(f3):
    for f in iter_monic_polys(4, f3):
        assert is_squarefree(f) == (not has_square_factor(f))


# ---------------------------------------------------------------------------
# places
# ---------------------------------------------------------------------------

def test_monic_irreducibles_degree_one(f3):
    places = monic_irreducibles(1, f3)
    assert [str(p) for p in places] == ["T", "T+1", "T+2"]
    assert all(p.degree == 1 and p.residue_cardinality == 3 for p in places)


def test_monic_irreducibles_degree_two_exact(f3):
    places = monic_irreducibles(2, f3)
    assert [str(p) for p in places] == ["T^2+1", "T^2+T+2", "T^2+2T+2"]


def test_monic_irreducible_counts_match_necklace_formula():
    for q, p, e in ((3, 3, 1), (5, 5, 1), (9, 3, 2)):
        field = make_field(p, e)
        for d in (1, 2, 3):
            if q**d > 10**6:
                continue
            assert len(monic_irreducibles(d, field)) == necklace_count(q, d)
    f3 = make_field(3)
    for d in (4, 5, 6):
        assert len(monic_irreducibles(d, f3)) == necklace_count(3, d)


def test_place_equality_and_order(f3):
    a = Place(poly(f3, "T^2+1"))
    b = Place(poly(f3, "T^2+1"))
    c = Place(poly(f3, "T"))
    assert a == b and hash(a) == hash(b)
    assert c < a
    assert sorted([a, c], key=Place.sort_key) == [c, a]


def test_place_rejects_bad_generators(f3):
    with pytest.raises(ValueError):
        Place(poly(f3, "T^2-1"))
    with pytest.raises(ValueError):
        Place(poly(f3, "2T"))
    with pytest.raises(ValueError):
        Place(poly(f3, "2"))


def test_iter_monic_irreducibles_bound(f3):
    with pytest.raises(BoundExceededError):
        next(iter_monic_irreducibles(20, f3))


def test_rabin_runs_once_per_enumerated_polynomial(monkeypatch):
    tested = []
    real = polyring.is_irreducible

    def counting(f):
        tested.append(f)
        return real(f)

    monkeypatch.setattr(polyring, "is_irreducible", counting)
    f5 = make_field(5)
    for d in (1, 2, 3):
        tested.clear()
        places = monic_irreducibles(d, f5)
        assert len(tested) == 5**d
        assert len(places) == necklace_count(5, d)
    tested.clear()
    checked = [Place(pl.generator) for pl in places]  # outside input: Rabin again
    assert len(tested) == len(places)
    assert checked == places
    assert [hash(pl) for pl in checked] == [hash(pl) for pl in places]


# ---------------------------------------------------------------------------
# residue symbol
# ---------------------------------------------------------------------------

def test_residue_symbol_examples(f3):
    x = Place(poly(f3, "T^2+1"))
    assert residue_symbol(poly(f3, "T"), x) == 1
    assert residue_symbol(poly(f3, "T+2"), x) == -1
    assert residue_symbol(poly(f3, "T^2+1"), x) == 0


def test_residue_symbol_requirements(f3):
    x = Place(poly(f3, "T^2+1"))
    with pytest.raises(ValueError):
        residue_symbol(poly(f3, "T^2+2T+1"), x)  # (T+1)^2 not squarefree
    f2 = make_field(2)
    y = Place(parse_poly("T", f2))
    with pytest.raises(ValueError):
        residue_symbol(parse_poly("T+1", f2), y)


def iter_residues(place):
    field = place.field
    elems = list(field.elements())
    for rev in itertools.product(elems, repeat=place.degree):
        yield Poly(field, tuple(reversed(rev)))


def symbol_table(place):
    """Symbol of every residue class mod the place, by exhaustive squaring in
    the residue ring; the zero class maps to 0.  Euler's criterion must agree
    on every class (the symbol of a depends only on a mod f_x, for both)."""
    fx = place.generator
    squares = {((r * r) % fx).coeffs for r in iter_residues(place)}
    table = {}
    for r in iter_residues(place):
        table[r.coeffs] = 0 if r.is_zero else (1 if r.coeffs in squares else -1)
        assert euler_symbol(r, place) == table[r.coeffs], (r, place)
    return table


def assert_symbols_match_tables(polys, places):
    tables = {pl: symbol_table(pl) for pl in places}
    for a in polys:
        if not is_squarefree(a):
            continue
        for pl in places:
            assert _residue_symbol(a, pl) == tables[pl][(a % pl.generator).coeffs], (a, pl)


def test_symbol_matches_square_enumeration_smoke(f3):
    places = monic_irreducibles(1, f3) + monic_irreducibles(2, f3)
    assert_symbols_match_tables(all_polys_up_to(f3, 3), places)


@pytest.mark.parametrize("p, e, place_degrees", [
    (3, 1, (3,)),
    (5, 1, (1, 2)),
    (3, 2, (1, 2)),
])
def test_symbol_matches_square_enumeration(p, e, place_degrees):
    """Every squarefree a of degree <= 2 against every place of the degrees."""
    field = make_field(p, e)
    places = [pl for d in place_degrees for pl in monic_irreducibles(d, field)]
    assert_symbols_match_tables(all_polys_up_to(field, 2), places)


def test_symbol_matches_square_enumeration_f25():
    """F_25 has 15,024 squarefree a of degree <= 2 and 325 places of degree
    <= 2, minutes of work in full.  The grid keeps a with leading coefficient 1
    or kappa (both square classes; monic quadratics already meet every
    residue class), every degree-1 place and every 50th degree-2 place."""
    field = make_field(5, 2)
    kappa = field.nonsquare()
    places = monic_irreducibles(1, field) + monic_irreducibles(2, field)[::50]
    polys = [
        a.scale(lead)
        for a in all_polys_up_to(field, 2)
        if a.is_monic
        for lead in (field.one, kappa)
    ]
    assert_symbols_match_tables(polys, places)


def test_symbol_square_class_invariance(f3):
    x = Place(poly(f3, "T^2+1"))
    y = Place(poly(f3, "T^3+2T+1"))
    for a_text in ("T", "T+2", "2T+1", "T^2+T+2"):
        a = poly(f3, a_text)
        for s_text in ("2", "T+1", "T^2+2"):
            s = poly(f3, s_text)
            for pl in (x, y):
                if (s % pl.generator).is_zero:
                    continue
                scaled = a * s * s
                if not is_squarefree(scaled):
                    continue
                assert residue_symbol(scaled, pl) == residue_symbol(a, pl)


def test_symbol_multiplicative(f3):
    x = Place(poly(f3, "T^2+1"))
    parts = [poly(f3, t) for t in ("T", "T+1", "T+2", "2", "T^2+T+2")]
    for a in parts:
        for b in parts:
            ab = a * b
            if not is_squarefree(ab):
                continue
            if (a % x.generator).is_zero or (b % x.generator).is_zero:
                continue
            assert residue_symbol(ab, x) == residue_symbol(a, x) * residue_symbol(b, x)


def test_symbol_of_constants_by_place_degree():
    for p in (3, 5):
        field = make_field(p)
        places = monic_irreducibles(1, field) + monic_irreducibles(2, field)
        places += monic_irreducibles(3, field)[:3]
        for c in range(1, p):
            a = Poly.constant(field, field.from_int(c))
            character = 1 if field.is_square(field.from_int(c)) else -1
            for pl in places:
                expected = 1 if pl.degree % 2 == 0 else character
                assert residue_symbol(a, pl) == expected


# ---------------------------------------------------------------------------
# symbol properties, hypothesis-driven
# ---------------------------------------------------------------------------

PROPERTY_FIELDS = [(3, 1), (5, 1), (3, 2)]
PROPERTY_SETTINGS = settings(max_examples=150, deadline=None, derandomize=True, database=None)


@functools.lru_cache(maxsize=None)
def places_of(p, e, d):
    return monic_irreducibles(d, make_field(p, e))


@st.composite
def field_and_place(draw):
    p, e = draw(st.sampled_from(PROPERTY_FIELDS))
    return p, e, draw(st.sampled_from(places_of(p, e, draw(st.integers(1, 3)))))


@st.composite
def field_place_and_two_polys(draw):
    _, _, pl = draw(field_and_place())
    elems = list(pl.field.elements())
    polys = []
    for _ in range(2):
        coeffs = draw(st.lists(st.sampled_from(elems), min_size=0, max_size=3))
        lead = draw(st.sampled_from(elems[1:]))
        polys.append(Poly(pl.field, coeffs + [lead]))
    return pl, polys[0], polys[1]


@PROPERTY_SETTINGS
@given(st.data())
def test_quadratic_reciprocity(data):
    """(P/Q)(Q/P) = (-1)^(((q-1)/2) deg P deg Q) for distinct monic irreducibles."""
    p, e, big_p = data.draw(field_and_place())
    big_q = data.draw(st.sampled_from(places_of(p, e, data.draw(st.integers(1, 3)))))
    assume(big_p != big_q)
    q = big_p.field.q
    sign = (-1) ** ((q - 1) // 2 * big_p.degree * big_q.degree)
    assert residue_symbol(big_p.generator, big_q) * residue_symbol(big_q.generator, big_p) == sign


@PROPERTY_SETTINGS
@given(field_place_and_two_polys())
def test_symbol_multiplicative_property(case):
    pl, a, b = case
    assume(is_squarefree(a * b))
    assert residue_symbol(a * b, pl) == residue_symbol(a, pl) * residue_symbol(b, pl)
