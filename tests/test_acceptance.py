"""Acceptance suite: golden values, exhaustive sweeps, and oracle equivalences.

Each check prints one `[acceptance] ... PASS/FAIL` line; run

    pytest tests/test_acceptance.py -v -s

to see the full list.  Criterion 3d asserts a stated golden value (8) for the
full-key fixed-point count of the ((T), (T^3-T+1)) instance over F_3 that the
formula machinery evaluates to 6; an involution on a genus-6 curve in odd
characteristic fixes 2g+2-4h points (h the quotient genus), all congruent to
2 mod 4, so 8 is not attainable and that single check fails against the
stated table rather than being weakened to match the computation.
"""

import itertools

from quatcurves import (
    Poly,
    RamSet,
    candidate_degree_multisets,
    class_number,
    classify,
    classify_all,
    finiteness_sweep,
    fixed_point_count,
    genus,
    is_squarefree,
    iter_monic_irreducibles,
    iter_ramsets,
    make_field,
    monic_irreducibles,
    point_count,
    predicted_point_count,
    quadratic_order_info,
    residue_symbol,
)
from quatcurves.shimura import (
    REASON_AUT_KNOWN_NO_CANDIDATE,
    VERDICT_HYPERELLIPTIC,
    VERDICT_NOT_HYPERELLIPTIC,
)

from conftest import all_polys_up_to, place, poly

FIELDS = {q: make_field(p, e) for q, (p, e) in
          {3: (3, 1), 5: (5, 1), 7: (7, 1), 9: (3, 2)}.items()}


def check(label, condition, detail=""):
    status = "PASS" if condition else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[acceptance] {label}: {status}{suffix}")
    assert condition, f"{label}{suffix}"


# ---------------------------------------------------------------------------
# criterion 1: classification sweep
# ---------------------------------------------------------------------------

def test_criterion1_classification_sweep():
    expected_hyper = {3: 9, 5: 50, 7: 147, 9: 324}
    for q, field in FIELDS.items():
        reports = classify_all(field)
        hyper = [r for r in reports if r.verdict == VERDICT_HYPERELLIPTIC]
        rest = [r for r in reports if r.verdict != VERDICT_HYPERELLIPTIC]
        check(
            f"criterion 1 (q={q} hyperelliptic exactly the degree-{{1,2}} pairs)",
            len(hyper) == expected_hyper[q]
            and all(r.degrees == (1, 2) for r in hyper)
            and all(r.verdict == VERDICT_NOT_HYPERELLIPTIC for r in rest),
            f"{len(hyper)} hyperelliptic, {len(rest)} other",
        )


# ---------------------------------------------------------------------------
# criterion 2: genus golden values
# ---------------------------------------------------------------------------

def test_criterion2_genus_golden_values():
    for q, field in FIELDS.items():
        lin = monic_irreducibles(1, field)
        quad = monic_irreducibles(2, field)
        check(
            f"criterion 2 (q={q} degrees {{1,2}} genus q)",
            genus(RamSet((lin[0], quad[0]))) == q,
        )
        check(
            f"criterion 2 (q={q} degrees {{1,1}} genus 0)",
            genus(RamSet((lin[0], lin[1]))) == 0,
        )
    f3 = FIELDS[3]
    check("criterion 2 (q=3 degrees {2,2} genus 9)",
          genus(RamSet(tuple(monic_irreducibles(2, f3)[:2]))) == 9)
    check("criterion 2 (q=3 degrees {1,3} genus 6)",
          genus(RamSet((place(f3, "T"), place(f3, "T^3+2T+1")))) == 6)


# ---------------------------------------------------------------------------
# criterion 3: fixed-point golden values
# ---------------------------------------------------------------------------

def test_criterion3a_q3_deg12_table():
    f3 = FIELDS[3]
    r = RamSet((place(f3, "T"), place(f3, "T^2+1")))
    kx, ky, kxy = r.keys()
    table = (
        fixed_point_count(r, kx),
        fixed_point_count(r, ky),
        fixed_point_count(r, kxy),
    )
    check("criterion 3a (q=3 ((T),(T^2+1)) fixed points (0,4,8))",
          table == (0, 4, 8), f"got {table}")


def test_criterion3b_deg12_all_instances():
    for q, field in FIELDS.items():
        full_ok = True
        singles_ok = True
        for r in iter_ramsets(field, 1, 2):
            g = genus(r)
            kx, ky, kxy = r.keys()
            if fixed_point_count(r, kxy) != 2 * g + 2:
                full_ok = False
            if sorted((fixed_point_count(r, kx), fixed_point_count(r, ky))) != [0, 4]:
                singles_ok = False
        check(f"criterion 3b (q={q} full key fixes 2g+2 on every degree-{{1,2}} instance)",
              full_ok)
        check(f"criterion 3b (q={q} single keys fix {{0,4}} on every degree-{{1,2}} instance)",
              singles_ok)


def test_criterion3c_q3_deg13_single_keys():
    f3 = FIELDS[3]
    for cubic_text in ("T^3-T+1", "T^3-T-1"):
        r = RamSet((place(f3, "T"), place(f3, cubic_text)))
        kx, ky, _ = r.keys()
        check(f"criterion 3c (q=3 ((T),({cubic_text})) single-key fixed points 2, 2)",
              fixed_point_count(r, kx) == 2 and fixed_point_count(r, ky) == 2)


def test_criterion3d_q3_deg13_full_key_stated_value():
    # Stated golden value: 8.  The embedding-count machinery gives
    # 2 * h(A[sqrt(kappa f_x f_y)]) = 2 * 2 * #J = 6 here, and the involution
    # parity constraint (counts = 2g+2 mod 4, g = 6) excludes 8, so this
    # check fails; the assertion is kept as stated rather than weakened.
    f3 = FIELDS[3]
    r = RamSet((place(f3, "T"), place(f3, "T^3-T+1")))
    got = fixed_point_count(r, r.keys()[-1])
    check("criterion 3d (q=3 ((T),(T^3-T+1)) full-key fixed points, stated value 8)",
          got == 8, f"computed {got}")


# ---------------------------------------------------------------------------
# criterion 4: degree {2,2} bounds over F_3
# ---------------------------------------------------------------------------

def test_criterion4_q3_deg22_bounds_and_reason():
    f3 = FIELDS[3]
    instances = list(iter_ramsets(f3, 2, 2))
    assert len(instances) == 3
    bounds_ok = True
    reasons_ok = True
    for r in instances:
        kx, ky, kxy = r.keys()
        if fixed_point_count(r, kx) > 4 or fixed_point_count(r, ky) > 4:
            bounds_ok = False
        if fixed_point_count(r, kxy) > 14:
            bounds_ok = False
        report = classify(r)
        if (report.verdict, report.reason) != (
            VERDICT_NOT_HYPERELLIPTIC,
            REASON_AUT_KNOWN_NO_CANDIDATE,
        ):
            reasons_ok = False
    check("criterion 4 (q=3 degrees {2,2}: single keys <= 4, full key <= 14)", bounds_ok)
    check("criterion 4 (q=3 degrees {2,2}: ruled out by the known automorphism group)",
          reasons_ok)


# ---------------------------------------------------------------------------
# criterion 5: candidate degree filter
# ---------------------------------------------------------------------------

def test_criterion5_candidate_filter():
    check("criterion 5 (q=3 candidates {1,1},{1,2},{1,3},{2,2})",
          candidate_degree_multisets(FIELDS[3]) == [(1, 1), (1, 2), (1, 3), (2, 2)])
    for q in (5, 7, 9):
        check(f"criterion 5 (q={q} candidates {{1,1}},{{1,2}})",
              candidate_degree_multisets(FIELDS[q]) == [(1, 1), (1, 2)])


# ---------------------------------------------------------------------------
# criterion 6: oracle equivalences
# ---------------------------------------------------------------------------

def _residue_square_table(pl):
    field = pl.field
    fx = pl.generator
    elems = list(field.elements())
    squares = set()
    for rev in itertools.product(elems, repeat=pl.degree):
        r = Poly(field, tuple(reversed(rev)))
        squares.add(((r * r) % fx).coeffs)
    return squares


def test_criterion6a_symbol_matches_exhaustive_squares():
    for q in (3, 5):
        field = FIELDS[q]
        places = []
        for d in (1, 2, 3):
            places.extend(monic_irreducibles(d, field))
        tables = {pl: _residue_square_table(pl) for pl in places}
        checked = 0
        for a in all_polys_up_to(field, 4):
            if not is_squarefree(a):
                continue
            for pl in places:
                r = a % pl.generator
                if r.is_zero:
                    expected = 0
                else:
                    expected = 1 if r.coeffs in tables[pl] else -1
                assert residue_symbol(a, pl) == expected
                checked += 1
        check(f"criterion 6a (q={q} residue symbol equals exhaustive square search)",
              True, f"{checked} evaluations")


def test_criterion6b_zeta_predictions_match_counts():
    f3 = FIELDS[3]
    checked = 0
    for f in all_polys_up_to(f3, 5):
        if f.degree < 1 or not is_squarefree(f):
            continue
        g = quadratic_order_info(f).curve_genus
        for m in range(1, 2 * g + 1):
            assert predicted_point_count(f, m) == point_count(f, m)
            checked += 1
    check("criterion 6b (zeta predictions match exhaustive counts, deg <= 5 over F_3)",
          True, f"{checked} comparisons")


def test_criterion6c_class_number_golden_values():
    f3 = FIELDS[3]
    check("criterion 6c (h for T^3-T+1 over F_3 is 7)",
          class_number(poly(f3, "T^3-T+1")) == 7)
    check("criterion 6c (h for 2(T^3-T+1) over F_3 is 1)",
          class_number(poly(f3, "2T^3+T+2")) == 1)


# ---------------------------------------------------------------------------
# criterion 7: invariant suites
# ---------------------------------------------------------------------------

def test_criterion7a_genus_integrality_sweep():
    checked = 0
    for q, field in FIELDS.items():
        firsts = {d: list(itertools.islice(iter_monic_irreducibles(d, field), 4))
                  for d in range(1, 6)}
        for size in (2, 4):
            for degrees in itertools.combinations_with_replacement(range(1, 6), size):
                needed = {d: degrees.count(d) for d in set(degrees)}
                if any(len(firsts[d]) < n for d, n in needed.items()):
                    continue
                chosen = []
                for d, n in sorted(needed.items()):
                    chosen.extend(firsts[d][:n])
                assert genus(RamSet(tuple(chosen))) >= 0  # raises if non-integer
                checked += 1
    check("criterion 7a (genus integral and nonnegative, degrees <= 5, q in {3,5,7,9})",
          True, f"{checked} sets")


def test_criterion7b_kappa_independence():
    f3 = FIELDS[3]
    baseline = [(r.places, r.fix_table()) for r in classify_all(f3)]
    explicit = [(r.places, r.fix_table()) for r in classify_all(f3, kappa=2)]
    check("criterion 7b (q=3 candidate set invariant under the non-square choice)",
          baseline == explicit)

    f5 = FIELDS[5]
    base5 = [(r.places, r.fix_table()) for r in classify_all(f5, kappa=2)]
    alt5 = [(r.places, r.fix_table()) for r in classify_all(f5, kappa=3)]
    check("criterion 7b (q=5 fixed points invariant under the non-square choice)",
          base5 == alt5)

    f9 = FIELDS[9]
    nonsquares = [a for a in f9.elements() if a != f9.zero and not f9.is_square(a)]
    lin = monic_irreducibles(1, f9)[0]
    quad = monic_irreducibles(2, f9)[0]
    r = RamSet((lin, quad))
    tables = {
        kappa: [fixed_point_count(r, key, kappa=kappa) for key in r.keys()]
        for kappa in nonsquares
    }
    check("criterion 7b (q=9 fixed points invariant over all four non-squares)",
          len(set(map(tuple, tables.values()))) == 1)


def test_criterion7c_hasse_weil_on_genus_one_counts():
    checked = 0
    for q in (3, 5):
        field = FIELDS[q]
        for f in all_polys_up_to(field, 4):
            if f.degree < 3 or not is_squarefree(f):
                continue
            if quadratic_order_info(f).curve_genus != 1:
                continue
            n = point_count(f)
            assert (n - q - 1) ** 2 <= 4 * q
            checked += 1
    check("criterion 7c (all genus-1 counts inside the Hasse-Weil interval)",
          True, f"{checked} curves")


def test_criterion7d_riemann_hurwitz_cross_formula():
    for q, field in FIELDS.items():
        ok = True
        for r in iter_ramsets(field, 1, 2):
            if fixed_point_count(r, r.keys()[-1]) != 2 * genus(r) + 2:
                ok = False
        check(f"criterion 7d (q={q} genus formula agrees with embedding counts)", ok)


# ---------------------------------------------------------------------------
# criterion 8: finiteness search
# ---------------------------------------------------------------------------

def test_criterion8_finiteness_search():
    got3 = finiteness_sweep(make_field(3), 8)
    check("criterion 8 (q=3 sweep is exactly {1,1},{1,2},{1,3},{2,2})",
          got3 == [(1, 1), (1, 2), (1, 3), (2, 2)], f"got {got3}")
    got2 = finiteness_sweep(make_field(2), 8)
    check("criterion 8 (q=2 sweep finite and explicitly listed)",
          got2 == [(1, 1), (1, 2), (1, 3), (1, 4), (2, 3)], f"got {got2}")
