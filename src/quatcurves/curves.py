"""Hyperelliptic point counts, zeta numerators, and class numbers.

Curves enter as squarefree models z^2 = f(T) over F_q, odd q.  The counts
N_1..N_g over F_q..F_{q^g} come from sums of the quadratic character of
F(sqrt(f))/F over the finite places of degree at most g, the Euler product of
L(S, chi_f) (Rosen, Number Theory in Function Fields, GTM 210):
N_m = q^m + inf_m + sum over d | m of d * (S_d if m/d is odd else U_d), with
S_d the sum of the residue symbols (f/P) over the places of degree d, U_d the
number of those places not dividing f, and inf_m the points at infinity.  No
arithmetic in F_{q^m} is needed.  The L-polynomial is recovered from those
counts by Newton's identities plus the functional equation, and class numbers
of imaginary quadratic orders come from the Jacobian order and the degree
parity of the generator.  The exhaustive count over F_{q^m} survives as the
public point_count, an independent oracle for the place sums.

The sums reach the shared Newton stage by two routes.  The public functions
take them from the generator itself.  Fixed-point counts take them from
per-place data: a generator u * prod(Q_i) with u a unit and Q_i distinct
places has (u prod Q_i / P) = chi(u)^(deg P) prod (Q_i / P), the symbol being
multiplicative (Rosen, ch. 3), so S_d is chi(u)^d times a sum over the
coordinatewise product of the memoised symbol vectors of the Q_i, and U_d
does not depend on u.  The generator route stays the oracle for this one.
"""

from __future__ import annotations

import contextlib
import os
from dataclasses import dataclass

from .gf import ENUMERATION_BOUND, BoundExceededError, extend_field
from .polyring import (
    Poly,
    _linear_symbols,
    _places_of_degree,
    _residue_symbol,
    _symbol_vector,
    is_squarefree,
)

INFINITY_RAMIFIED = "ramified"
INFINITY_INERT = "inert"
INFINITY_SPLIT = "split"


@dataclass(frozen=True)
class QuadOrderInfo:
    """How the infinite place behaves in F(sqrt(a)), plus the model genus."""

    generator: Poly
    imaginary: bool
    infinity_type: str
    curve_genus: int


def quadratic_order_info(a: Poly) -> QuadOrderInfo:
    """Classify F(sqrt(a)) at infinity.

    The extension is imaginary (infinity does not split) exactly when deg a is
    odd, or deg a is even and the leading coefficient is a non-square.  The
    smooth model z^2 = a has genus floor((deg a - 1) / 2).
    """
    field = a.field
    if not field.odd_characteristic:
        raise ValueError("quadratic orders need odd characteristic")
    if a.degree < 1:
        raise ValueError("generator must be nonconstant")
    if not is_squarefree(a):
        raise ValueError("generator must be squarefree")
    return _order_info(a)


def _order_info(a: Poly) -> QuadOrderInfo:
    """quadratic_order_info for a generator already known to be valid: odd
    characteristic, nonconstant and squarefree."""
    field = a.field
    if a.degree % 2 == 1:
        imaginary, infinity = True, INFINITY_RAMIFIED
    elif not field.is_square(a.leading):
        imaginary, infinity = True, INFINITY_INERT
    else:
        imaginary, infinity = False, INFINITY_SPLIT
    return QuadOrderInfo(a, imaginary, infinity, (a.degree - 1) // 2)


def is_imaginary(a: Poly) -> bool:
    return quadratic_order_info(a).imaginary


def point_count(f: Poly, m: int = 1) -> int:
    """Points on the smooth projective model of z^2 = f over F_{q^m}.

    Affine solutions are counted exhaustively.  Infinity contributes one point
    when deg f is odd, and two or zero points when deg f is even according to
    whether the leading coefficient is a square in F_{q^m} (squareness is
    re-tested per extension; square classes change with the parity of m).
    This enumeration shares no code with the place sums behind l_polynomial
    and serves as their oracle.
    """
    info = quadratic_order_info(f)  # validates field, degree, squarefreeness
    if m < 1:
        raise ValueError("extension degree must be at least 1")
    field = f.field
    _check_count_size(field.q ** m)
    # the coefficients of f are their own constants in the extension
    ext = extend_field(field, m)
    zero, add, mul, is_square = ext.zero, ext.add, ext.mul, ext.is_square
    n = 0
    for t in ext.elements():
        acc = zero
        for c in reversed(f.coeffs):
            acc = add(mul(acc, t), c)
        if acc == zero:
            n += 1
        elif is_square(acc):
            n += 2
    if f.degree % 2 == 1:
        n += 1
    elif is_square(f.leading):
        n += 2
    _check_hasse_weil(n, ext.q, info.curve_genus)
    return n


def _check_count_size(size: int) -> None:
    if size > ENUMERATION_BOUND:
        raise BoundExceededError(
            f"point count over a field of size {size} exceeds the "
            f"enumeration bound {ENUMERATION_BOUND}"
        )


def _check_hasse_weil(n: int, size: int, g: int) -> None:
    """|N - size - 1| <= 2g sqrt(size), squared to stay in integers."""
    if (n - size - 1) ** 2 > 4 * g * g * size:
        raise ArithmeticError(
            f"genus-{g} count {n} over a field of size {size} violates the "
            f"Hasse-Weil bound"
        )


def _check_count_sizes(q: int, g: int) -> None:
    """The enumeration bound for every count N_1..N_g, checked before any
    place is enumerated or symbol computed."""
    for m in range(1, g + 1):
        _check_count_size(q**m)


def _generator_sums(f: Poly, g: int) -> tuple[list[int], list[int]]:
    """S_d and U_d of z^2 = f for d = 1..g (index 0 unused), from f itself:
    chi(f(c)) by Horner at degree 1, the resultant symbol of f at each place
    of the per-field place memo above it."""
    field = f.field
    _check_count_sizes(field.q, g)
    return _sums(
        _linear_symbols(f) if d == 1
        else [_residue_symbol(f, place) for place in _places_of_degree(field, d)]
        for d in range(1, g + 1)
    )


def _vector_sums(places, g: int) -> tuple[list[int], list[int]]:
    """S_d and U_d, d = 1..g, of the monic product of distinct places, from
    their memoised symbol vectors: the symbol of the product at P is the
    product of the places' symbols at P, so each coordinatewise product is
    the product's vector."""
    _check_count_sizes(places[0].field.q, g)
    products = []
    for d in range(1, g + 1):
        symbols = _symbol_vector(places[0], d)
        for place in places[1:]:
            symbols = [a * b for a, b in zip(symbols, _symbol_vector(place, d))]
        products.append(symbols)
    return _sums(products)


def _sums(symbol_lists) -> tuple[list[int], list[int]]:
    """S_d, the sum of the d-th symbol list, and U_d, its count of nonzero
    symbols, for d = 1, 2, ...; index 0 is unused."""
    sums, units = [0], [0]
    for symbols in symbol_lists:
        sums.append(sum(symbols))
        units.append(sum(s * s for s in symbols))
    return sums, units


def _l_polynomial_from_sums(f: Poly, g: int, sums, units) -> list[int]:
    """The zeta numerator of z^2 = f from its symbol sums S_d, U_d (d <= g).

    N_m = q^m + inf_m + sum over d | m of d * (S_d if m/d is odd else U_d):
    a root t of a place P of degree d lies in F_{q^m} exactly when d | m, and
    f(t) is a nonzero square there iff (f/P)^(m/d) = 1.  Each N_m must
    satisfy the Hasse-Weil bound; Newton's identities and the functional
    equation then give the coefficients, every division exact.
    """
    field = f.field
    q = field.q
    psums = [0]  # index 0 unused
    for m in range(1, g + 1):
        if f.degree % 2 == 1:
            n = 1
        elif m % 2 == 0 or field.is_square(f.leading):
            n = 2
        else:
            n = 0
        n += q**m + sum(
            d * (sums[d] if (m // d) % 2 else units[d])
            for d in range(1, m + 1)
            if m % d == 0
        )
        _check_hasse_weil(n, q**m, g)
        psums.append(q**m + 1 - n)
    c = [1] + [0] * (2 * g)
    for m in range(1, g + 1):
        s = psums[m] + sum(c[i] * psums[m - i] for i in range(1, m))
        quot, rem = divmod(-s, m)
        if rem:
            raise ArithmeticError(
                f"zeta numerator of z^2 = {f} has a non-integer coefficient; "
                f"point counts are inconsistent"
            )
        c[m] = quot
    for i in range(g):
        c[2 * g - i] = q ** (g - i) * c[i]
    return c


def l_polynomial(f: Poly) -> list[int]:
    """Coefficients c_0..c_{2g} of the zeta numerator P(S) = prod(1 - a_j S).

    The counts N_1..N_g come from place sums, not from enumerating F_{q^m}:
    the zeta function of z^2 = f is that of F_q(T) times L(S, chi_f), whose
    Euler product runs over places (Rosen, Number Theory in Function Fields,
    GTM 210), so
    N_m = q^m + inf_m + sum over d | m of d * (S_d if m/d is odd else U_d),
    with S_d the sum of the symbols (f/P) over the places of degree d, U_d the
    number of those places not dividing f, and inf_m the points at infinity.
    Each N_m must satisfy the Hasse-Weil bound.  Power sums
    p_m = q^m + 1 - N_m feed Newton's identities
    p_m + c_1 p_{m-1} + ... + m c_m = 0 for c_1..c_g, and the functional
    equation c_{2g-i} = q^(g-i) c_i fills in the top half.  Every division
    must be exact; a remainder means the counts are inconsistent and raises.
    """
    return _l_polynomial(f, quadratic_order_info(f).curve_genus)


def _l_polynomial(f: Poly, g: int) -> list[int]:
    """l_polynomial for a valid f of model genus g."""
    if g == 0:
        return [1]
    return _l_polynomial_from_sums(f, g, *_generator_sums(f, g))


def predicted_point_count(f: Poly, m: int) -> int:
    """N_m implied by the L-polynomial, without enumerating past degree g."""
    c = l_polynomial(f)
    g = (len(c) - 1) // 2
    q = f.field.q
    psums = [0]
    for k in range(1, m + 1):
        s = sum(c[i] * psums[k - i] for i in range(1, min(k, 2 * g) + 1))
        if k <= 2 * g:
            s += k * c[k]
        psums.append(-s)
    return q**m + 1 - psums[m]


def jacobian_order(f: Poly) -> int:
    """P(1): the order of the Jacobian over F_q; 1 for genus zero."""
    return sum(l_polynomial(f))


class ClassNumberCache:
    """Write-once memo for class numbers, optionally file backed.

    The file format is one record per line, `p e a h`, with a in canonical
    polynomial text; records merge across loads and a conflicting value for
    the same key raises.
    """

    def __init__(self):
        self._data: dict[tuple[int, int, str], int] = {}

    @staticmethod
    def _key(a: Poly) -> tuple[int, int, str]:
        return (a.field.p, a.field.e, str(a))

    def get(self, a: Poly):
        return self._data.get(self._key(a))

    def put(self, a: Poly, h: int) -> None:
        self._store(self._key(a), h)

    def _store(self, key, h: int) -> None:
        prev = self._data.setdefault(key, h)
        if prev != h:
            raise ValueError(f"conflicting class numbers {prev} and {h} for {key}")

    def load(self, path) -> None:
        if not os.path.exists(path):
            return
        with open(path, "r", encoding="ascii") as handle:
            for line in handle:
                line = line.strip()
                if not line or line.startswith("#"):
                    continue
                fields = line.split()
                if len(fields) != 4:
                    raise ValueError(f"malformed cache record: {line!r}")
                p, e, a_text, h = fields
                if int(h) < 1:
                    raise ValueError(f"class number must be positive: {line!r}")
                self._store((int(p), int(e), a_text), int(h))

    def save(self, path) -> None:
        """Write every record, atomically: a temporary file in the target's
        directory replaces the target only once it is complete, so a failed
        save leaves the previous file as it was."""
        lines = [
            f"{p} {e} {a_text} {h}\n"
            for (p, e, a_text), h in sorted(self._data.items())
        ]
        tmp = f"{os.fspath(path)}.{os.getpid()}.tmp"
        try:
            with open(tmp, "w", encoding="ascii") as handle:
                handle.writelines(lines)
            os.replace(tmp, path)
        except BaseException:
            with contextlib.suppress(FileNotFoundError):
                os.remove(tmp)
            raise

    def __len__(self) -> int:
        return len(self._data)


def class_number(a: Poly, cache: ClassNumberCache | None = None) -> int:
    """Class number of the order generated by sqrt(a), for imaginary F(sqrt(a)).

    Equals the Jacobian order of z^2 = a when deg a is odd and twice it when
    deg a is even; non-imaginary generators are refused because that rule does
    not cover them.
    """
    info = quadratic_order_info(a)
    if not info.imaginary:
        raise ValueError(
            f"class number rule needs an imaginary extension; F(sqrt({a})) "
            f"splits at infinity"
        )
    return _class_number(info, cache)


def _class_number(info: QuadOrderInfo, cache: ClassNumberCache | None) -> int:
    """class_number for the order data of a valid imaginary generator."""
    a = info.generator
    if cache is not None:
        known = cache.get(a)
        if known is not None:
            return known
    h = sum(_l_polynomial(a, info.curve_genus))
    if a.degree % 2 == 0:
        h *= 2
    if cache is not None:
        cache.put(a, h)
    return h


def _class_number_from_sums(a: Poly, g: int, sums, units) -> int:
    """Class number of the imaginary a = u * prod(Q_i), u a unit and g its
    model genus, from the sums S_d, U_d of the monic part prod(Q_i).

    (u/P) = chi(u)^(deg P), so S_d(a) = chi(u)^d S_d and U_d is unchanged:
    f and kappa f share one set of sums.
    """
    if not a.field.is_square(a.leading):
        sums = [-s if d % 2 else s for d, s in enumerate(sums)]
    h = sum(_l_polynomial_from_sums(a, g, sums, units))
    return 2 * h if a.degree % 2 == 0 else h
