"""Invariants of the modular curve attached to an even set of finite places.

For a set R of distinct finite places of F_q(T) of even cardinality there is a
curve whose genus, point-count lower bounds, and Atkin-Lehner fixed-point
numbers are all computable from R alone.  The involutions form an elementary
abelian 2-group indexed by the nonempty divisors of the discriminant, which is
represented here purely combinatorially, as subsets of R composing by
symmetric difference.

classify() runs the hyperellipticity decision procedure: a genus test, a scan
for an involution with 2g+2 fixed points (the canonical involution of a
hyperelliptic curve in odd characteristic), the even-degree criterion that the
involution group exhausts all automorphisms, and the even-genus rule that any
non-canonical involution of a hyperelliptic curve fixes exactly 2 points.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass
from fractions import Fraction

from .curves import ClassNumberCache, QuadOrderInfo, _class_number, _order_info, quadratic_order_info
from .gf import ExtensionField, FiniteField
from .polyring import Place, Poly, _residue_symbol, iter_monic_irreducibles, monic_irreducibles

# class_number and residue_symbol are not called here (the hot path uses the
# unchecked helpers); they stay bound in this module because bench/tracer.py
# wraps them here and bench/test_checker.py checks that wrapping.
from .curves import class_number  # noqa: F401
from .polyring import residue_symbol  # noqa: F401

VERDICT_HYPERELLIPTIC = "hyperelliptic"
VERDICT_NOT_HYPERELLIPTIC = "not_hyperelliptic"
VERDICT_UNDETERMINED = "undetermined"

REASON_GENUS_BELOW_2 = "genus_below_2"
REASON_CANONICAL_FOUND = "canonical_found"
REASON_AUT_KNOWN_NO_CANDIDATE = "aut_known_no_candidate"
REASON_EVEN_GENUS_PARITY = "even_genus_parity_contradiction"
REASON_INCONCLUSIVE = "inconclusive"


@dataclass(frozen=True)
class RamSet:
    """An even-cardinality set of distinct finite places (never infinity)."""

    places: tuple[Place, ...]

    def __post_init__(self):
        places = tuple(sorted(self.places, key=Place.sort_key))
        object.__setattr__(self, "places", places)
        if len(places) < 2 or len(places) % 2:
            raise ValueError("ramification set needs an even number (>= 2) of places")
        if len(set(places)) != len(places):
            raise ValueError("ramification set places must be distinct")
        if len({pl.field for pl in places}) != 1:
            raise ValueError("ramification set places must share one base field")

    @property
    def field(self) -> FiniteField:
        return self.places[0].field

    @property
    def degrees(self) -> tuple[int, ...]:
        return tuple(pl.degree for pl in self.places)

    def discriminant(self) -> Poly:
        """Product of all place generators: the generator of the full key."""
        return InvolutionKey(self.places).generator()

    def keys(self) -> list[InvolutionKey]:
        """All nonempty divisor keys, subset-mask order over the sorted places."""
        out = []
        for mask in range(1, 2 ** len(self.places)):
            out.append(
                InvolutionKey(
                    tuple(pl for i, pl in enumerate(self.places) if mask >> i & 1)
                )
            )
        return out


@dataclass(frozen=True)
class InvolutionKey:
    """A squarefree divisor of the discriminant, as a subset of the places.

    Nonempty keys index the nontrivial involutions; the empty key is the
    group identity and only arises as a composition result.
    """

    places: tuple[Place, ...]

    def __post_init__(self):
        places = tuple(sorted(self.places, key=Place.sort_key))
        object.__setattr__(self, "places", places)
        if len(set(places)) != len(places):
            raise ValueError("key places must be distinct")

    @property
    def is_identity(self) -> bool:
        return not self.places

    def generator(self) -> Poly:
        """Monic generator of the divisor: the product of the place generators."""
        if self.is_identity:
            raise ValueError("the identity key has no generator")
        prod = Poly.one(self.places[0].field)
        for pl in self.places:
            prod = prod * pl.generator
        return prod

    def compose(self, other: "InvolutionKey") -> "InvolutionKey":
        """Group law: symmetric difference of the underlying subsets."""
        return InvolutionKey(tuple(set(self.places) ^ set(other.places)))

    def __str__(self):
        return ",".join(str(pl) for pl in self.places)


def odd_parity(degrees) -> int:
    """1 when every degree in the collection is odd, 0 when some degree is even."""
    degrees = tuple(degrees)
    if not degrees:
        raise ValueError("empty degree collection")
    return 0 if any(d % 2 == 0 for d in degrees) else 1


def genus(ramset: RamSet) -> int:
    """Genus of the curve attached to the set, in exact rational arithmetic:

        1 + prod(q_x - 1)/(q^2 - 1) - q/(q+1) * 2^(#R - 1) * parity.

    The result must come out a nonnegative integer; anything else means the
    formula was fed an invalid set and raises.
    """
    q = ramset.field.q
    prod = 1
    for pl in ramset.places:
        prod *= pl.residue_cardinality - 1
    value = (
        1
        + Fraction(prod, q * q - 1)
        - Fraction(q, q + 1) * 2 ** (len(ramset.places) - 1) * odd_parity(ramset.degrees)
    )
    if value.denominator != 1 or value < 0:
        raise ArithmeticError(
            f"genus formula returned {value} for degrees {ramset.degrees} over "
            f"q={q}; the result must be a nonnegative integer"
        )
    return int(value)


def supersingular_lower_bound(ramset: RamSet, o: Place) -> Fraction:
    """Lower bound for the number of points over the quadratic extension of
    the residue field at a good place o:

        prod over R+o of (q_x - 1)/(q^2 - 1) + q/(q+1) * 2^#R * parity(R+o).
    """
    if o in ramset.places:
        raise ValueError("the auxiliary place must lie outside the set")
    q = ramset.field.q
    prod = o.residue_cardinality - 1
    for pl in ramset.places:
        prod *= pl.residue_cardinality - 1
    parity = odd_parity(ramset.degrees + (o.degree,))
    return Fraction(prod, q * q - 1) + Fraction(q, q + 1) * 2 ** len(ramset.places) * parity


def minimal_place_outside(ramset: RamSet) -> Place:
    """First place (by degree, then canonical order) not in the set."""
    taken = set(ramset.places)
    d = 1
    while True:
        for pl in iter_monic_irreducibles(d, ramset.field):
            if pl not in taken:
                return pl
        d += 1


def finiteness_bound_holds(ramset: RamSet) -> tuple[bool, Place]:
    """Necessary point-count condition for a degree-2 map to a genus-0 curve.

    With o the minimal-degree place outside the set, checks

        prod over R+o of (q_x - 1) <= 2 (q_o^2 + 1)(q^2 - 1)

    and returns the verdict together with the witness o.
    """
    o = minimal_place_outside(ramset)
    q = ramset.field.q
    lhs = o.residue_cardinality - 1
    for pl in ramset.places:
        lhs *= pl.residue_cardinality - 1
    rhs = 2 * (o.residue_cardinality**2 + 1) * (q * q - 1)
    return lhs <= rhs, o


def finiteness_sweep(field: FiniteField, max_degree: int) -> list[tuple[int, int]]:
    """Degree multisets {d1, d2}, both at most max_degree, whose realizations
    pass the point-count bound.  Works in any characteristic.

    The bound depends only on the degrees (the witness place degree is fixed
    by which degrees the set occupies), so one concrete realization per
    multiset decides it; unrealizable multisets are skipped.
    """
    if max_degree < 1:
        raise ValueError("degree bound must be at least 1")
    firsts = {
        d: list(itertools.islice(iter_monic_irreducibles(d, field), 2))
        for d in range(1, max_degree + 1)
    }
    passing = []
    for d1 in range(1, max_degree + 1):
        for d2 in range(d1, max_degree + 1):
            if d1 == d2:
                if len(firsts[d1]) < 2:
                    continue
                ramset = RamSet((firsts[d1][0], firsts[d1][1]))
            else:
                ramset = RamSet((firsts[d1][0], firsts[d2][0]))
            ok, _ = finiteness_bound_holds(ramset)
            if ok:
                passing.append((d1, d2))
    return passing


def candidate_degree_multisets(field: FiniteField) -> list[tuple[int, int]]:
    """Degree multisets {d_x, d_y} passing the refined two-place bound

        (q_x - 1)(q_y - 1) + 4 q * parity <= 2 (q^2 + 1)(q + 1).

    Only two-place sets can be hyperelliptic (larger sets would embed too many
    commuting involutions into the automorphism group), and only these degree
    multisets survive the bound; odd characteristic is required for both facts.
    """
    if not field.odd_characteristic:
        raise ValueError("the two-place pruning needs odd characteristic")
    q = field.q
    rhs = 2 * (q * q + 1) * (q + 1)
    out = []
    d1 = 1
    while (q**d1 - 1) ** 2 <= rhs:
        d2 = d1
        while (q**d1 - 1) * (q**d2 - 1) <= rhs:
            if (q**d1 - 1) * (q**d2 - 1) + 4 * q * odd_parity((d1, d2)) <= rhs:
                out.append((d1, d2))
            d2 += 1
        d1 += 1
    return out


def embedding_count(a: Poly, ramset: RamSet, cache: ClassNumberCache | None = None) -> int:
    """Number of inequivalent optimal embeddings of the order generated by
    sqrt(a): h(A[sqrt(a)]) times prod over the places of (1 - symbol).

    Zero as soon as any place of the set splits in F(sqrt(a)); the class
    number is only computed when the product survives.
    """
    info = quadratic_order_info(a)
    if not info.imaginary:
        raise ValueError(
            f"embedding counts need an imaginary extension; F(sqrt({a})) "
            f"splits at infinity"
        )
    return _embedding_count(info, ramset, cache)


def _embedding_count(info: QuadOrderInfo, ramset: RamSet, cache: ClassNumberCache | None) -> int:
    """embedding_count for the order data of a valid imaginary generator."""
    a = info.generator
    product = 1
    for pl in ramset.places:
        product *= 1 - _residue_symbol(a, pl)
        if product == 0:
            return 0
    return _class_number(info, cache) * product


def _checked_kappa(field: FiniteField, kappa):
    if kappa is None:
        return field.nonsquare()
    if kappa == field.zero or field.is_square(kappa):
        raise ValueError(
            f"kappa must be a non-square unit, got {field.element_str(kappa)}"
        )
    return kappa


def fixed_point_count(
    ramset: RamSet,
    key: InvolutionKey,
    kappa=None,
    cache: ClassNumberCache | None = None,
) -> int:
    """Fixed points of the involution indexed by a nonempty divisor key.

    With f the monic generator of the key and kappa a fixed non-square unit:
    embeddings of A[sqrt(kappa f)] when deg f is even, plus embeddings of
    A[sqrt(f)] as well when deg f is odd (both extensions are then imaginary).
    """
    if key.is_identity:
        raise ValueError("the identity key carries no involution")
    if not set(key.places) <= set(ramset.places):
        raise ValueError("key places must belong to the ramification set")
    field = ramset.field
    kappa = _checked_kappa(field, kappa)
    # f is a product of distinct monic irreducibles, so f and kappa f are
    # squarefree by construction and their order data needs no gcd test.
    # Both are imaginary: kappa f is inert at infinity when deg f is even,
    # and f is only used when deg f is odd.
    f = key.generator()
    total = _embedding_count(_order_info(f.scale(kappa)), ramset, cache)
    if f.degree % 2 == 1:
        total += _embedding_count(_order_info(f), ramset, cache)
    return total


def aut_equals_atkin_lehner(ramset: RamSet) -> bool:
    """True iff the involution group is the whole automorphism group, which
    holds whenever the set contains a place of even degree."""
    return any(d % 2 == 0 for d in ramset.degrees)


@dataclass(frozen=True)
class ClassificationReport:
    """Per-instance record of the hyperellipticity decision."""

    p: int
    e: int
    q: int
    modulus: str | None
    kappa: str
    places: tuple[str, ...]
    degrees: tuple[int, ...]
    genus: int
    fixed_points: tuple[tuple[tuple[str, ...], int], ...]
    aut_is_atkin_lehner: bool
    verdict: str
    reason: str
    canonical_key: tuple[str, ...] | None

    def fix_table(self) -> dict[tuple[str, ...], int]:
        return {key: count for key, count in self.fixed_points}

    def to_dict(self) -> dict:
        return {
            "p": self.p,
            "e": self.e,
            "q": self.q,
            "modulus": self.modulus,
            "kappa": self.kappa,
            "places": list(self.places),
            "degrees": list(self.degrees),
            "genus": self.genus,
            "fixed_points": [
                {"key": list(key), "count": count} for key, count in self.fixed_points
            ],
            "aut_is_atkin_lehner": self.aut_is_atkin_lehner,
            "verdict": self.verdict,
            "reason": self.reason,
            "canonical_key": None if self.canonical_key is None else list(self.canonical_key),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "ClassificationReport":
        return cls(
            p=data["p"],
            e=data["e"],
            q=data["q"],
            modulus=data["modulus"],
            kappa=data["kappa"],
            places=tuple(data["places"]),
            degrees=tuple(data["degrees"]),
            genus=data["genus"],
            fixed_points=tuple(
                (tuple(entry["key"]), entry["count"]) for entry in data["fixed_points"]
            ),
            aut_is_atkin_lehner=data["aut_is_atkin_lehner"],
            verdict=data["verdict"],
            reason=data["reason"],
            canonical_key=(
                None if data["canonical_key"] is None else tuple(data["canonical_key"])
            ),
        )

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2)


def _key_label(key: InvolutionKey) -> tuple[str, ...]:
    return tuple(str(pl) for pl in key.places)


def classify(
    ramset: RamSet,
    kappa=None,
    cache: ClassNumberCache | None = None,
) -> ClassificationReport:
    """Hyperellipticity decision for one place set, rules in order:

    1. genus below 2: not hyperelliptic;
    2. compute all fixed-point counts;
    3. some involution fixes exactly 2g+2 points: hyperelliptic, that
       involution is canonical (two such keys would be inconsistent and raise);
    4. otherwise, if the involution group exhausts the automorphisms, the
       canonical involution would have to be in it: not hyperelliptic;
    5. otherwise, in even genus any non-canonical involution of a
       hyperelliptic curve fixes exactly 2 points, so a count outside
       {2, 2g+2} rules hyperellipticity out;
    6. otherwise undetermined, with all data in the report.
    """
    field = ramset.field
    if not field.odd_characteristic:
        raise ValueError("classification needs odd characteristic")
    kappa = _checked_kappa(field, kappa)

    def report(fixed, verdict, reason, canonical=None, g=0):
        return ClassificationReport(
            p=field.p,
            e=field.e,
            q=field.q,
            modulus=field.modulus_str() if isinstance(field, ExtensionField) else None,
            kappa=field.element_str(kappa),
            places=tuple(str(pl) for pl in ramset.places),
            degrees=ramset.degrees,
            genus=g,
            fixed_points=fixed,
            aut_is_atkin_lehner=aut_equals_atkin_lehner(ramset),
            verdict=verdict,
            reason=reason,
            canonical_key=canonical,
        )

    g = genus(ramset)
    if g < 2:
        return report((), VERDICT_NOT_HYPERELLIPTIC, REASON_GENUS_BELOW_2, g=g)

    keys = ramset.keys()
    fixed = tuple(
        (_key_label(key), fixed_point_count(ramset, key, kappa, cache)) for key in keys
    )
    target = 2 * g + 2
    canonical = [key for key, (_, count) in zip(keys, fixed) if count == target]
    if len(canonical) > 1:
        raise ArithmeticError(
            f"two involutions with {target} fixed points for places "
            f"{[str(p) for p in ramset.places]}; the canonical involution is unique"
        )
    if canonical:
        return report(
            fixed,
            VERDICT_HYPERELLIPTIC,
            REASON_CANONICAL_FOUND,
            canonical=_key_label(canonical[0]),
            g=g,
        )
    if aut_equals_atkin_lehner(ramset):
        return report(fixed, VERDICT_NOT_HYPERELLIPTIC, REASON_AUT_KNOWN_NO_CANDIDATE, g=g)
    if g % 2 == 0 and any(count not in (2, target) for _, count in fixed):
        return report(fixed, VERDICT_NOT_HYPERELLIPTIC, REASON_EVEN_GENUS_PARITY, g=g)
    return report(fixed, VERDICT_UNDETERMINED, REASON_INCONCLUSIVE, g=g)


def iter_ramsets(field: FiniteField, d1: int, d2: int):
    """Every two-place set whose place degrees are {d1, d2}, lazily, in
    canonical order: by the lower-degree place, then by the other one."""
    d1, d2 = sorted((d1, d2))
    if d1 == d2:
        pairs = itertools.combinations(monic_irreducibles(d1, field), 2)
    else:
        pairs = itertools.product(monic_irreducibles(d1, field), monic_irreducibles(d2, field))
    for pair in pairs:
        yield RamSet(pair)


def classify_all(
    field: FiniteField,
    max_degree: int | None = None,
    kappa=None,
    cache: ClassNumberCache | None = None,
) -> list[ClassificationReport]:
    """Classify every concrete two-place set whose degrees pass the candidate
    filter (and the optional degree cap), in canonical order."""
    multisets = candidate_degree_multisets(field)
    if max_degree is not None:
        multisets = [m for m in multisets if m[1] <= max_degree]
    return [
        classify(ramset, kappa=kappa, cache=cache)
        for d1, d2 in multisets
        for ramset in iter_ramsets(field, d1, d2)
    ]
