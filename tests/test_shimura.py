"""Genus, bounds, embedding numbers, fixed points, and the classifier."""

import functools
import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quatcurves import (
    BoundExceededError,
    ClassNumberCache,
    ENUMERATION_BOUND,
    InvolutionKey,
    RamSet,
    aut_equals_atkin_lehner,
    candidate_degree_multisets,
    class_number,
    classify,
    classify_all,
    embedding_count,
    finiteness_bound_holds,
    finiteness_sweep,
    fixed_point_count,
    genus,
    iter_monic_irreducibles,
    iter_ramsets,
    make_field,
    minimal_place_outside,
    monic_irreducibles,
    odd_parity,
    quadratic_order_info,
    supersingular_lower_bound,
)
from quatcurves import curves, polyring, shimura
from quatcurves.shimura import (
    REASON_AUT_KNOWN_NO_CANDIDATE,
    REASON_CANONICAL_FOUND,
    REASON_EVEN_GENUS_PARITY,
    REASON_GENUS_BELOW_2,
    VERDICT_HYPERELLIPTIC,
    VERDICT_NOT_HYPERELLIPTIC,
)

from conftest import necklace_count, place, poly


def ramset(field, *texts):
    return RamSet(tuple(place(field, t) for t in texts))


def first_places(field, degree, count):
    return list(itertools.islice(iter_monic_irreducibles(degree, field), count))


# ---------------------------------------------------------------------------
# parity indicator and set validation
# ---------------------------------------------------------------------------

def test_odd_parity():
    assert odd_parity((1, 2)) == 0
    assert odd_parity((1, 3)) == 1
    assert odd_parity((1, 1)) == 1
    with pytest.raises(ValueError):
        odd_parity(())


def test_ramset_validation(f3):
    with pytest.raises(ValueError):
        RamSet((place(f3, "T"),))
    with pytest.raises(ValueError):
        RamSet((place(f3, "T"), place(f3, "T")))
    r = ramset(f3, "T^2+1", "T")
    assert [str(p) for p in r.places] == ["T", "T^2+1"]  # sorted by degree
    assert r.degrees == (1, 2)
    assert str(r.discriminant()) == "T^3+T"


def test_ramset_mixed_fields_rejected(f3, f5):
    with pytest.raises(ValueError):
        RamSet((place(f3, "T"), place(f5, "T+1")))


# ---------------------------------------------------------------------------
# involution keys form an elementary abelian 2-group
# ---------------------------------------------------------------------------

def test_key_group_law(f3):
    r = RamSet(
        (place(f3, "T"), place(f3, "T+1"), place(f3, "T^2+1"), place(f3, "T^2+T+2"))
    )
    subsets = [InvolutionKey(tuple(sub))
               for n in range(len(r.places) + 1)
               for sub in itertools.combinations(r.places, n)]
    identity = InvolutionKey(())
    assert identity.is_identity
    for a in subsets:
        assert a.compose(a) == identity
        assert a.compose(identity) == a
        for b in subsets:
            assert a.compose(b) == b.compose(a)
            sym = set(a.places) ^ set(b.places)
            assert set(a.compose(b).places) == sym
            for c in subsets:
                assert a.compose(b).compose(c) == a.compose(b.compose(c))


def test_keys_listing_order(f3):
    r = ramset(f3, "T", "T^2+1")
    labels = [str(k) for k in r.keys()]
    assert labels == ["T", "T^2+1", "T,T^2+1"]


def test_key_generator_is_monic_product(f3):
    r = ramset(f3, "T", "T^2+1")
    full = r.keys()[-1]
    assert str(full.generator()) == "T^3+T"
    assert full.generator().is_monic


# ---------------------------------------------------------------------------
# genus
# ---------------------------------------------------------------------------

def test_genus_golden_values():
    f3 = make_field(3)
    assert genus(ramset(f3, "T", "T^2+1")) == 3
    assert genus(ramset(f3, "T^2+1", "T^2+T+2")) == 9
    assert genus(ramset(f3, "T", "T^3+2T+1")) == 6
    for p, e in ((3, 1), (5, 1), (7, 1), (3, 2)):
        field = make_field(p, e)
        lin = first_places(field, 1, 2)
        quad = first_places(field, 2, 1)
        assert genus(RamSet((lin[0], lin[1]))) == 0
        assert genus(RamSet((lin[0], quad[0]))) == field.q


def test_genus_integrality_sweep():
    for p, e in ((3, 1), (5, 1), (7, 1), (3, 2)):
        field = make_field(p, e)
        firsts = {d: first_places(field, d, 4) for d in range(1, 6)}
        for size in (2, 4):
            for degrees in itertools.combinations_with_replacement(range(1, 6), size):
                needed = {d: degrees.count(d) for d in set(degrees)}
                if any(len(firsts[d]) < n for d, n in needed.items()):
                    continue  # not realizable over this field
                chosen = []
                for d, n in sorted(needed.items()):
                    chosen.extend(firsts[d][:n])
                g = genus(RamSet(tuple(chosen)))
                assert g >= 0


# ---------------------------------------------------------------------------
# point-count bounds
# ---------------------------------------------------------------------------

def test_supersingular_bound_examples(f3):
    r12 = ramset(f3, "T", "T^2+1")
    assert supersingular_lower_bound(r12, place(f3, "T+1")) == Fraction(4)

    r11 = ramset(f3, "T", "T+1")
    assert supersingular_lower_bound(r11, place(f3, "T+2")) == Fraction(4)

    r13 = ramset(f3, "T", "T^3+2T+1")
    assert supersingular_lower_bound(r13, place(f3, "T+1")) == Fraction(16)

    with pytest.raises(ValueError):
        supersingular_lower_bound(r12, place(f3, "T"))


def test_minimal_place_outside(f3):
    r = ramset(f3, "T", "T^2+1")
    assert str(minimal_place_outside(r)) == "T+1"
    r_all_linear = ramset(make_field(2), "T", "T+1")
    assert str(minimal_place_outside(r_all_linear)) == "T^2+T+1"


def test_finiteness_bound_examples():
    f3, f5 = make_field(3), make_field(5)
    ok, o = finiteness_bound_holds(ramset(f3, "T", "T^2+1"))
    assert ok and o.degree == 1
    ok, _ = finiteness_bound_holds(ramset(f3, "T^2+1", "T^3+2T+1"))
    assert not ok
    cubic5 = first_places(f5, 3, 1)[0]
    ok, _ = finiteness_bound_holds(RamSet((place(f5, "T"), cubic5)))
    assert not ok


def test_finiteness_sweep_golden():
    assert finiteness_sweep(make_field(3), 8) == [(1, 1), (1, 2), (1, 3), (2, 2)]
    assert finiteness_sweep(make_field(2), 8) == [(1, 1), (1, 2), (1, 3), (1, 4), (2, 3)]


# ---------------------------------------------------------------------------
# candidate filter
# ---------------------------------------------------------------------------

def test_candidate_degree_multisets_golden():
    assert candidate_degree_multisets(make_field(3)) == [(1, 1), (1, 2), (1, 3), (2, 2)]
    for p, e in ((5, 1), (7, 1), (3, 2)):
        assert candidate_degree_multisets(make_field(p, e)) == [(1, 1), (1, 2)]


def test_candidate_filter_rejects_even_characteristic():
    with pytest.raises(ValueError):
        candidate_degree_multisets(make_field(2))


# ---------------------------------------------------------------------------
# embedding counts
# ---------------------------------------------------------------------------

def test_embedding_count_examples(f3):
    r = ramset(f3, "T", "T^2+1")
    assert embedding_count(poly(f3, "T^3+T"), r) == 4
    assert embedding_count(poly(f3, "2T^2+2"), r) == 4
    # a split place kills the count: T is a square modulo T^2+1
    r_split = ramset(f3, "T+1", "T^2+1")
    assert embedding_count(poly(f3, "T"), r_split) == 0


def test_embedding_count_rejects_split_extension(f3):
    r = ramset(f3, "T", "T^2+1")
    with pytest.raises(ValueError):
        embedding_count(poly(f3, "T^2+T+2"), r)


# ---------------------------------------------------------------------------
# fixed points
# ---------------------------------------------------------------------------

def test_fixed_point_golden_values(f3):
    r = ramset(f3, "T", "T^2+1")
    kx, ky, kxy = r.keys()
    assert fixed_point_count(r, kx) == 0
    assert fixed_point_count(r, ky) == 4
    assert fixed_point_count(r, kxy) == 8  # 2q + 2

    r2 = ramset(f3, "T+2", "T^2+1")
    assert fixed_point_count(r2, r2.keys()[0]) == 4

    r13 = ramset(f3, "T", "T^3+2T+1")
    kx, ky, kxy = r13.keys()
    assert fixed_point_count(r13, ky) == 2
    assert fixed_point_count(r13, kx) == 2
    assert fixed_point_count(r13, kxy) == 6


def test_fixed_point_count_validation(f3):
    r = ramset(f3, "T", "T^2+1")
    with pytest.raises(ValueError):
        fixed_point_count(r, InvolutionKey(()))
    with pytest.raises(ValueError):
        fixed_point_count(r, InvolutionKey((place(f3, "T+1"),)))
    with pytest.raises(ValueError):
        fixed_point_count(r, r.keys()[0], kappa=1)  # 1 is a square


def test_kappa_outside_the_field_is_a_value_error(f3):
    # kappa is an element code 0..q-1; anything else is refused up front
    # instead of escaping as TypeError or IndexError from the arithmetic
    f9 = make_field(3, 2)
    r9 = RamSet((first_places(f9, 1, 1)[0], first_places(f9, 2, 2)[0]))
    for field, r in ((f3, ramset(f3, "T", "T^2+1")), (f9, r9)):
        for bad in ((1, 1), field.q, -1, 2.0, "u+1"):
            with pytest.raises(ValueError, match="kappa"):
                fixed_point_count(r, r.keys()[0], kappa=bad)
            with pytest.raises(ValueError, match="kappa"):
                classify(r, kappa=bad)


@functools.cache
def _candidate_sets(p, e):
    field = make_field(p, e)
    return [r for d1, d2 in candidate_degree_multisets(field) for r in iter_ramsets(field, d1, d2)]


def check_vector_route(r):
    """fixed_point_count trusts its generators and takes class numbers from
    place vectors: on every key of r, each class number it can use equals the
    public generator-only class_number of u * prod(Q_i) for u in {1, kappa},
    and the count equals the sum of the validated public embedding counts."""
    kappa = r.field.nonsquare()
    for key in r.keys():
        f = key.generator()
        g = (f.degree - 1) // 2
        sums = curves._vector_sums(key.places, g)
        for a in (f, f.scale(kappa)):
            if quadratic_order_info(a).imaginary:
                assert curves._class_number_from_sums(a, g, *sums) == class_number(a), str(a)
        expected = embedding_count(f.scale(kappa), r)
        if f.degree % 2 == 1:
            expected += embedding_count(f, r)
        assert fixed_point_count(r, key) == expected, (str(key), [str(pl) for pl in r.places])


@pytest.mark.parametrize("p, e", [(3, 1), (5, 1), (3, 2)])
def test_fixed_point_count_matches_validated_embedding_counts(p, e):
    for r in _candidate_sets(p, e):
        check_vector_route(r)


def test_vector_route_on_sampled_sets():
    """Seeded samples of the F_25 candidate sets and of F_3 sets whose full
    keys reach genus 2 to 4, where U_d meets places dividing the generator
    (candidate sets stop at genus 1, which never reads U_d)."""
    rng = random.Random(7)
    sampled = rng.sample(_candidate_sets(5, 2), 150)
    f3 = make_field(3)
    for d1, d2 in ((1, 4), (2, 3), (2, 5), (2, 7), (3, 6), (4, 5)):
        sets = list(iter_ramsets(f3, d1, d2))
        sampled += rng.sample(sets, min(len(sets), 12))
    for r in sampled:
        check_vector_route(r)


def test_fixed_point_count_fills_the_cache_then_reads_it_before_any_vector(monkeypatch):
    f3 = make_field(3)
    r = ramset(f3, "T^2+1", "T^7+T^2+2")  # full key of degree 9: genus 4
    kappa = f3.nonsquare()
    cache = ClassNumberCache()
    counts = [fixed_point_count(r, key, cache=cache) for key in r.keys()]
    full = r.keys()[-1].generator()
    for a in (full, full.scale(kappa)):  # the full key's product is always 1
        assert cache.get(a) == class_number(a)
    stored = len(cache)

    def no_vectors(places, g):
        raise AssertionError("symbol vectors touched despite a cached class number")

    monkeypatch.setattr(shimura, "_vector_sums", no_vectors)
    assert [fixed_point_count(r, key, cache=cache) for key in r.keys()] == counts
    assert len(cache) == stored


def test_fixed_point_count_past_the_bound_enumerates_no_place(monkeypatch):
    f3 = make_field(3)
    r = ramset(f3, "T^15+2T^2+1", "T^16+T^4+2")  # full key of degree 31: genus 15
    calls = []
    real = polyring.is_irreducible
    monkeypatch.setattr(polyring, "is_irreducible", lambda f: calls.append(f) or real(f))
    polyring._places_of_degree.cache_clear()
    polyring._symbol_vector.cache_clear()
    with pytest.raises(BoundExceededError) as info:
        fixed_point_count(r, r.keys()[-1])
    assert str(info.value) == (
        f"point count over a field of size {3**15} exceeds the enumeration bound "
        f"{ENUMERATION_BOUND}"
    )
    assert calls == []


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(st.data())
def test_classify_is_kappa_independent(data):
    """Every non-square kappa gives the same report apart from its kappa
    field, which exercises the twist signs away from the default kappa."""
    p, e = data.draw(st.sampled_from([(5, 1), (7, 1), (3, 2)]))
    r = data.draw(st.sampled_from(_candidate_sets(p, e)))
    field = r.field
    reports = []
    for kappa in field.elements():
        if kappa != field.zero and not field.is_square(kappa):
            report = classify(r, kappa=kappa).to_dict()
            assert report.pop("kappa") == field.element_str(kappa)
            reports.append(report)
    assert len(reports) == (field.q - 1) // 2
    assert all(report == reports[0] for report in reports)


def test_fixed_points_satisfy_involution_parity():
    # a tame involution on a genus-g curve fixes 2g + 2 - 4h points for some
    # quotient genus h >= 0, so every count is congruent to 2g + 2 mod 4
    for p, e in ((3, 1), (5, 1)):
        field = make_field(p, e)
        for d1, d2 in candidate_degree_multisets(field):
            for r in iter_ramsets(field, d1, d2):
                g = genus(r)
                for key in r.keys():
                    n = fixed_point_count(r, key)
                    assert (n - (2 * g + 2)) % 4 == 0
                    assert n <= 2 * g + 2


def test_fixed_points_kappa_independent():
    f5 = make_field(5)
    assert not f5.is_square(3)
    for quad in monic_irreducibles(2, f5)[:4]:
        r = RamSet((place(f5, "T"), quad))
        for key in r.keys():
            assert fixed_point_count(r, key, kappa=3) == fixed_point_count(r, key, kappa=2)

    f9 = make_field(3, 2)
    alternatives = [a for a in f9.elements() if a != f9.zero and not f9.is_square(a)]
    assert f9.nonsquare() == alternatives[0]
    quad9 = first_places(f9, 2, 2)
    for pl in quad9:
        r = RamSet((first_places(f9, 1, 1)[0], pl))
        for key in r.keys():
            counts = {fixed_point_count(r, key, kappa=k) for k in alternatives}
            assert len(counts) == 1


def test_aut_equals_atkin_lehner(f3):
    assert aut_equals_atkin_lehner(ramset(f3, "T", "T^2+1"))
    assert not aut_equals_atkin_lehner(ramset(f3, "T", "T^3+2T+1"))
    assert aut_equals_atkin_lehner(ramset(f3, "T^2+1", "T^2+T+2"))


# ---------------------------------------------------------------------------
# classifier
# ---------------------------------------------------------------------------

def test_classify_hyperelliptic_instance(f3):
    report = classify(ramset(f3, "T", "T^2+1"))
    assert report.verdict == VERDICT_HYPERELLIPTIC
    assert report.reason == REASON_CANONICAL_FOUND
    assert report.genus == 3
    assert report.canonical_key == ("T", "T^2+1")
    assert report.fix_table() == {("T",): 0, ("T^2+1",): 4, ("T", "T^2+1"): 8}
    assert report.aut_is_atkin_lehner


def test_classify_degree_13_instance(f3):
    report = classify(ramset(f3, "T", "T^3+2T+1"))
    assert report.verdict == VERDICT_NOT_HYPERELLIPTIC
    assert report.reason == REASON_EVEN_GENUS_PARITY
    assert report.genus == 6
    assert not report.aut_is_atkin_lehner
    counts = sorted(report.fix_table().values())
    assert counts == [2, 2, 6]


def test_classify_degree_22_instance(f3):
    report = classify(ramset(f3, "T^2+1", "T^2+T+2"))
    assert report.verdict == VERDICT_NOT_HYPERELLIPTIC
    assert report.reason == REASON_AUT_KNOWN_NO_CANDIDATE
    assert report.genus == 9
    assert all(count <= 14 for count in report.fix_table().values())


def test_classify_genus_zero_short_circuit(f3):
    report = classify(ramset(f3, "T", "T+1"))
    assert report.verdict == VERDICT_NOT_HYPERELLIPTIC
    assert report.reason == REASON_GENUS_BELOW_2
    assert report.genus == 0
    assert report.fixed_points == ()


def test_classify_rejects_even_characteristic():
    f2 = make_field(2)
    r = RamSet((place(f2, "T"), place(f2, "T+1")))
    with pytest.raises(ValueError):
        classify(r)


def test_classify_report_round_trip(f3):
    report = classify(ramset(f3, "T", "T^2+1"))
    from quatcurves import ClassificationReport

    clone = ClassificationReport.from_dict(report.to_dict())
    assert clone == report
    assert clone.to_json() == report.to_json()


def test_classify_all_q3_exhaustive(f3):
    reports = classify_all(f3)
    assert len(reports) == 3 + 9 + 24 + 3
    hyper = [r for r in reports if r.verdict == VERDICT_HYPERELLIPTIC]
    assert len(hyper) == 9
    assert all(r.degrees == (1, 2) for r in hyper)
    assert all(r.genus == 3 and r.canonical_key is not None for r in hyper)
    for r in reports:
        if r.verdict != VERDICT_HYPERELLIPTIC:
            assert r.verdict == VERDICT_NOT_HYPERELLIPTIC


def test_classify_all_q5(f5):
    reports = classify_all(f5)
    hyper = [r for r in reports if r.verdict == VERDICT_HYPERELLIPTIC]
    assert len(hyper) == 50
    assert all(r.degrees == (1, 2) and r.genus == 5 for r in hyper)


def test_iter_ramsets_counts_match_necklace_formula():
    for p, e in ((3, 1), (5, 1), (3, 2)):
        field = make_field(p, e)
        q = field.q
        for d1 in (1, 2, 3):
            for d2 in range(d1, 4):
                sets = list(iter_ramsets(field, d1, d2))
                n1, n2 = necklace_count(q, d1), necklace_count(q, d2)
                expected = n1 * (n1 - 1) // 2 if d1 == d2 else n1 * n2
                assert len(sets) == expected
                assert all(sorted(r.degrees) == [d1, d2] for r in sets)


def test_iter_ramsets_order_matches_classify_all():
    for p, e in ((3, 1), (5, 1), (3, 2)):
        field = make_field(p, e)
        visited = [
            tuple(str(pl) for pl in r.places)
            for d1, d2 in candidate_degree_multisets(field)
            for r in iter_ramsets(field, d2, d1)  # argument order does not matter
        ]
        assert visited == [r.places for r in classify_all(field)]


def test_classify_all_respects_degree_cap(f3):
    reports = classify_all(f3, max_degree=2)
    assert {r.degrees for r in reports} == {(1, 1), (1, 2), (2, 2)}


def test_hyperelliptic_instances_satisfy_point_bound():
    # on hyperelliptic instances the supersingular bound cannot exceed twice
    # the points of a projective line over the quadratic extension
    for p in (3, 5):
        field = make_field(p)
        linear = monic_irreducibles(1, field)
        for r in classify_all(field):
            if r.verdict != VERDICT_HYPERELLIPTIC:
                continue
            rs = RamSet(tuple(place(field, t) for t in r.places))
            for o in linear:
                if o in rs.places:
                    continue
                bound = supersingular_lower_bound(rs, o)
                assert bound <= 2 * (o.residue_cardinality**2 + 1)
