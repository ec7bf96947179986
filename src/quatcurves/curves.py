"""Hyperelliptic point counts, zeta numerators, and class numbers.

Curves enter as squarefree models z^2 = f(T) over F_q, odd q.  Counts over
F_{q^m} are exhaustive, the L-polynomial is recovered from the first g counts
by Newton's identities plus the functional equation, and class numbers of
imaginary quadratic orders come from the Jacobian order and the degree parity
of the generator.
"""

from __future__ import annotations

import contextlib
import os
from dataclasses import dataclass

from .gf import ENUMERATION_BOUND, BoundExceededError, extend_field
from .polyring import Poly, is_squarefree

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
    """
    info = quadratic_order_info(f)  # validates field, degree, squarefreeness
    if m < 1:
        raise ValueError("extension degree must be at least 1")
    return _point_count(f, m, info.curve_genus)


def _point_count(f: Poly, m: int, g: int) -> int:
    """point_count for a valid f of model genus g and an m >= 1."""
    field = f.field
    if field.q ** m > ENUMERATION_BOUND:
        raise BoundExceededError(
            f"point count over a field of size {field.q ** m} exceeds the "
            f"enumeration bound {ENUMERATION_BOUND}"
        )
    ext = extend_field(field, m)
    squares = ext.squares()
    if ext == field:
        coeffs = f.coeffs
    else:
        coeffs = tuple(ext.embed(c) for c in f.coeffs)
    zero, add, mul = ext.zero, ext.add, ext.mul
    n = 0
    for t in ext.elements():
        acc = zero
        for c in reversed(coeffs):
            acc = add(mul(acc, t), c)
        if acc == zero:
            n += 1
        elif acc in squares:
            n += 2
    if f.degree % 2 == 1:
        n += 1
    elif coeffs[-1] in squares:
        n += 2
    if g == 1 and (n - ext.q - 1) ** 2 > 4 * ext.q:
        raise ArithmeticError(
            f"genus-1 count {n} over a field of size {ext.q} violates the "
            f"Hasse-Weil bound"
        )
    return n


def l_polynomial(f: Poly) -> list[int]:
    """Coefficients c_0..c_{2g} of the zeta numerator P(S) = prod(1 - a_j S).

    Power sums p_m = q^m + 1 - N_m feed Newton's identities
    p_m + c_1 p_{m-1} + ... + m c_m = 0 for c_1..c_g, and the functional
    equation c_{2g-i} = q^(g-i) c_i fills in the top half.  Every division
    must be exact; a remainder means the counts are inconsistent and raises.
    """
    return _l_polynomial(f, quadratic_order_info(f).curve_genus)


def _l_polynomial(f: Poly, g: int) -> list[int]:
    """l_polynomial for a valid f of model genus g."""
    if g == 0:
        return [1]
    q = f.field.q
    psums = [0]  # index 0 unused
    for m in range(1, g + 1):
        psums.append(q**m + 1 - _point_count(f, m, g))
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
