"""Polynomials over a finite field, finite places, and residue symbols.

A Poly stores its coefficients as a tuple of field elements, lowest degree
first, with no trailing zeros.  The zero polynomial has an empty coefficient
tuple; its degree is reported as -1, a sentinel that sorts below every true
degree, and any code that adds or compares degrees checks for it explicitly.

A Place is a monic irreducible polynomial f_x, standing for the finite place
of F_q(T) it generates; its residue field is the quotient ring F_q[T]/(f_x)
and is only ever used through arithmetic modulo f_x.
"""

from __future__ import annotations

import itertools
import operator
import re
from dataclasses import dataclass
from functools import cached_property, lru_cache, reduce

from .gf import ENUMERATION_BOUND, BoundExceededError, FiniteField, PrimeField
from .gf import _poly_list_mod, _poly_text, _prime_factors, _split_signed_terms


class Poly:
    """Univariate polynomial over a finite field, immutable."""

    __slots__ = ("field", "coeffs")

    def __init__(self, field: FiniteField, coeffs=()):
        coeffs = list(coeffs)
        while coeffs and coeffs[-1] == field.zero:
            coeffs.pop()
        self.field = field
        self.coeffs = tuple(coeffs)

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls, field):
        return cls(field, ())

    @classmethod
    def one(cls, field):
        return cls(field, (field.one,))

    @classmethod
    def variable(cls, field):
        return cls(field, (field.zero, field.one))

    @classmethod
    def constant(cls, field, c):
        return cls(field, (c,))

    @classmethod
    def from_ints(cls, field, ints):
        return cls(field, tuple(field.from_int(n) for n in ints))

    # -- basic structure ----------------------------------------------

    @property
    def degree(self) -> int:
        """Degree; -1 stands in for the zero polynomial."""
        return len(self.coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def leading(self):
        if not self.coeffs:
            raise ValueError("the zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    @property
    def is_monic(self) -> bool:
        return bool(self.coeffs) and self.coeffs[-1] == self.field.one

    def index(self) -> int:
        """Position of the coefficient sequence in odometer order; total order
        on polynomials of a fixed degree."""
        idx = 0
        for c in reversed(self.coeffs):
            idx = idx * self.field.q + c
        return idx

    # -- ring operations ----------------------------------------------

    def __add__(self, other):
        self._check_same_field(other)
        f = self.field
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] = f.add(out[i], c)
        return Poly(f, out)

    def __neg__(self):
        f = self.field
        return Poly(f, tuple(f.neg(c) for c in self.coeffs))

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        self._check_same_field(other)
        f = self.field
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return Poly.zero(f)
        out = [f.zero] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            if x == f.zero:
                continue
            for j, y in enumerate(b):
                if y == f.zero:
                    continue
                out[i + j] = f.add(out[i + j], f.mul(x, y))
        return Poly(f, out)

    def scale(self, c):
        """Multiply by a field element."""
        f = self.field
        if c == f.zero:
            return Poly.zero(f)
        return Poly(f, tuple(f.mul(c, x) for x in self.coeffs))

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative polynomial power")
        result = Poly.one(self.field)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def __divmod__(self, other):
        self._check_same_field(other)
        f = self.field
        if other.is_zero:
            raise ZeroDivisionError("polynomial division by zero")
        if self.degree < other.degree:
            return Poly.zero(f), self
        rem = list(self.coeffs)
        db = other.degree
        lc = other.leading
        monic = lc == f.one
        lc_inv = lc if monic else f.inv(lc)
        quot = [f.zero] * (len(rem) - db)
        while len(rem) > db:
            c = rem[-1] if monic else f.mul(rem[-1], lc_inv)
            off = len(rem) - 1 - db
            quot[off] = c
            if c != f.zero:
                for j in range(db):
                    bj = other.coeffs[j]
                    if bj != f.zero:
                        rem[off + j] = f.sub(rem[off + j], f.mul(c, bj))
            rem.pop()
        return Poly(f, quot), Poly(f, rem)

    def __floordiv__(self, other):
        return divmod(self, other)[0]

    def __mod__(self, other):
        return divmod(self, other)[1]

    def monic(self):
        if self.is_zero:
            raise ValueError("cannot normalize the zero polynomial")
        if self.is_monic:
            return self
        return self.scale(self.field.inv(self.leading))

    def derivative(self):
        f = self.field
        return Poly(
            f,
            tuple(f.mul(c, f.from_int(i)) for i, c in enumerate(self.coeffs) if i >= 1),
        )

    # -- evaluation -----------------------------------------------------

    def __call__(self, t):
        """Evaluate at an element of the coefficient field (Horner)."""
        f = self.field
        acc = f.zero
        for c in reversed(self.coeffs):
            acc = f.add(f.mul(acc, t), c)
        return acc

    # -- comparisons, hashing, text ------------------------------------

    def _check_same_field(self, other):
        if not isinstance(other, Poly) or other.field != self.field:
            raise TypeError("polynomials must share one coefficient field")

    def __eq__(self, other):
        return (
            isinstance(other, Poly)
            and other.field == self.field
            and other.coeffs == self.coeffs
        )

    def __hash__(self):
        return hash((self.field, self.coeffs))

    def __lt__(self, other):
        self._check_same_field(other)
        return (self.degree, self.index()) < (other.degree, other.index())

    def __str__(self):
        return _poly_text(self.field, self.coeffs, "T")

    def __repr__(self):
        return f"Poly({self.field!r}, {str(self)!r})"


# -- parsing ------------------------------------------------------------

_POLY_TERM_RE = re.compile(
    r"^(?P<coef>\((?P<paren>[^()]*)\)|[0-9]+(?:\*?u(?:\^[0-9]+)?)?|u(?:\^[0-9]+)?)?"
    r"\*?(?P<var>T(?:\^(?P<exp>[0-9]+))?)?$"
)


def parse_poly(text: str, field: FiniteField) -> Poly:
    """Parse 'T^3-T+1' style text; '*' is optional, unary minus is reduced
    mod p, and coefficients use the field's own element syntax (decimal for
    prime fields, 'u' expressions, parenthesized when composite, otherwise)."""
    text = text.strip().replace(" ", "")
    if not text:
        raise ValueError("empty polynomial text")
    coeffs: dict[int, object] = {}
    for sign, term in _split_signed_terms(text):
        match = _POLY_TERM_RE.fullmatch(term)
        if not match or (match.group("coef") is None and match.group("var") is None):
            raise ValueError(f"cannot parse polynomial term {term!r}")
        coef_text = match.group("coef")
        if coef_text is None:
            c = field.one
        elif match.group("paren") is not None:
            c = field.parse_element(match.group("paren"))
        else:
            c = field.parse_element(coef_text)
        if sign < 0:
            c = field.neg(c)
        exp = 0
        if match.group("var"):
            exp = int(match.group("exp") or 1)
        prev = coeffs.get(exp, field.zero)
        coeffs[exp] = field.add(prev, c)
    out = [field.zero] * (max(coeffs) + 1)
    for exp, c in coeffs.items():
        out[exp] = c
    return Poly(field, out)


# -- gcd, powers modulo, irreducibility ----------------------------------

def poly_gcd(a: Poly, b: Poly) -> Poly:
    """Monic greatest common divisor; gcd(0, 0) = 0."""
    while not b.is_zero:
        a, b = b, a % b
    return a if a.is_zero else a.monic()


def is_irreducible(f: Poly) -> bool:
    """Rabin's criterion: T^(q^d) = T mod f, and gcd(T^(q^(d/l)) - T, f) = 1
    for every prime l dividing d = deg f.

    The powers T^(q^k) mod f come from the Frobenius matrix (Berlekamp's
    Q-matrix) on coefficient lists: its rows are T^(iq) = r^i mod f for
    i < d, with r = T^q mod f by square-and-multiply, and since a -> a^q is
    F_q-linear, T^(q^(k+1)) is the combination of those rows whose
    coefficients are those of T^(q^k).
    """
    if f.degree < 1:
        raise ValueError("irreducibility needs a nonconstant polynomial")
    f = f.monic()
    field, d = f.field, f.degree
    if d == 1:
        return True  # c^q = c, so T^q = T mod T - c
    zero, one, add, mul = field.zero, field.one, field.add, field.mul
    mod = list(f.coeffs)

    def mul_mod(a, b):
        prod = [zero] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            if x != zero:
                for j, y in enumerate(b):
                    prod[i + j] = add(prod[i + j], mul(x, y))
        return _poly_list_mod(field, prod, mod)

    r = [zero, one]  # T^q mod f, from the leading bit of q down
    for bit in bin(field.q)[3:]:
        r = mul_mod(r, r)
        if bit == "1":
            r = _poly_list_mod(field, [zero] + r, mod)
    rows = [[one]]
    for _ in range(d - 1):
        rows.append(mul_mod(rows[-1], r))
    columns = list(zip(*(row + [zero] * (d - len(row)) for row in rows)))
    t = [zero, one] + [zero] * (d - 2)
    frob = [t]  # frob[k] = T^(q^k) mod f, padded to d coefficients
    p = field.p if isinstance(field, PrimeField) else 0
    for _ in range(d):
        a = frob[-1]
        if p:  # plain integers, one reduction per coefficient
            frob.append([sum(map(operator.mul, a, col)) % p for col in columns])
        else:
            frob.append([reduce(add, map(mul, a, col)) for col in columns])
    if frob[d] != t:
        return False
    for ell in _prime_factors(d):
        if poly_gcd(Poly(field, frob[d // ell]) - Poly.variable(field), f).degree != 0:
            return False
    return True


def is_squarefree(a: Poly) -> bool:
    """True iff gcd(a, a') is constant."""
    if a.is_zero:
        raise ValueError("squarefreeness of the zero polynomial is undefined")
    if a.degree == 0:
        return True
    return poly_gcd(a, a.derivative()).degree == 0


# -- places ---------------------------------------------------------------

@dataclass(frozen=True)
class Place:
    """A finite place of F_q(T), named by its monic irreducible generator."""

    generator: Poly

    def __post_init__(self):
        g = self.generator
        if g.degree < 1 or not g.is_monic or not is_irreducible(g):
            raise ValueError(f"place generator must be monic irreducible, got {g}")

    @classmethod
    def _from_irreducible(cls, generator: Poly) -> "Place":
        """A place whose generator the caller has already proved monic
        irreducible; skips the Rabin test that Place(...) runs on outside input."""
        place = object.__new__(cls)
        object.__setattr__(place, "generator", generator)
        return place

    @property
    def field(self) -> FiniteField:
        return self.generator.field

    @property
    def degree(self) -> int:
        return self.generator.degree

    @property
    def residue_cardinality(self) -> int:
        return self.field.q ** self.degree

    def sort_key(self):
        return (self.degree, self.generator.index())

    def __lt__(self, other):
        return self.sort_key() < other.sort_key()

    @cached_property
    def _text(self) -> str:
        return str(self.generator)

    def __str__(self):
        """The generator's text, built on first use and kept; equality and
        hashing stay on the generator alone."""
        return self._text


def iter_monic_polys(d: int, field: FiniteField):
    """All monic polynomials of degree d, odometer order (constant fastest)."""
    if d < 1:
        raise ValueError("degree must be at least 1")
    base_elems = list(field.elements())
    for rev in itertools.product(base_elems, repeat=d):
        yield Poly(field, tuple(reversed(rev)) + (field.one,))


def iter_monic_irreducibles(d: int, field: FiniteField):
    """Monic irreducibles of degree d as Places, lazily, in canonical order."""
    if field.q ** d > ENUMERATION_BOUND:
        raise BoundExceededError(
            f"enumerating degree-{d} polynomials over a field of size {field.q} "
            f"exceeds the enumeration bound"
        )
    for f in iter_monic_polys(d, field):
        if is_irreducible(f):
            yield Place._from_irreducible(f)


@lru_cache(maxsize=None)
def _places_of_degree(field: FiniteField, d: int) -> tuple[Place, ...]:
    """All places of degree d, canonical order, enumerated once per field and
    degree for the place sums behind class numbers."""
    return tuple(iter_monic_irreducibles(d, field))


def _linear_symbols(a: Poly) -> list[int]:
    """chi(a(c)) for every element c in order, by Horner: the symbols of a at
    the degree-1 places T - c, 0 where a(c) = 0.  Odd characteristic."""
    field = a.field
    zero, add, mul, is_square = field.zero, field.add, field.mul, field.is_square
    coeffs = a.coeffs[::-1]
    out = []
    for t in field.elements():
        acc = zero
        for c in coeffs:
            acc = add(mul(acc, t), c)
        out.append(0 if acc == zero else 1 if is_square(acc) else -1)
    return out


@lru_cache(maxsize=None)
def _symbol_vector(place: Place, d: int) -> tuple[int, ...]:
    """Residue symbols (Q/P) of the place's generator Q at every place P of
    degree d, computed once per place and degree.

    For d = 1 the entry at element c is the symbol at T - c; for d >= 2 the
    entries follow _places_of_degree(field, d).  Every vector of one field
    and degree is indexed alike, so by multiplicativity the coordinatewise
    product of the vectors of distinct places is the vector of their product.
    """
    q_poly = place.generator
    if d == 1:
        return tuple(_linear_symbols(q_poly))
    return tuple(_residue_symbol(q_poly, pl) for pl in _places_of_degree(q_poly.field, d))


def monic_irreducibles(d: int, field: FiniteField) -> list[Place]:
    """All places of degree d, canonical order."""
    return list(iter_monic_irreducibles(d, field))


# -- residue symbol -------------------------------------------------------

def residue_symbol(a: Poly, place: Place) -> int:
    """Quadratic symbol of a at a finite place: 0 if the place divides a, +1
    if a reduces to a nonzero square in the residue field, -1 otherwise.

    Computed in resultant form, (a/P) = chi(Res(P, a)) with chi the quadratic
    character of F_q, which holds for monic irreducible P because the
    resultant is the norm of a(T) mod P down to F_q (Rosen, Number Theory in
    Function Fields, ch. 3); a must be squarefree (it generates the quadratic
    extension under test) and the characteristic odd.
    """
    field = a.field
    if not field.odd_characteristic:
        raise ValueError("residue symbols need odd characteristic")
    if not is_squarefree(a):
        raise ValueError("residue symbol is defined for squarefree generators")
    return _residue_symbol(a, place)


def _residue_symbol(a: Poly, place: Place) -> int:
    """residue_symbol without its guards: odd characteristic is assumed.

    One Euclidean pass from (P, a mod P) down to a constant, keeping
    Res(P, a) up to squares: Res(u, v) = (-1)^(deg u deg v) lc(v)^(deg u -
    deg r) Res(v, r) for r = u mod v, and Res(u, c) = c^(deg u).  Only odd
    powers of a leading coefficient change the character.
    """
    field = a.field
    u, v = place.generator, a % place.generator
    if v.is_zero:
        return 0
    res = field.one
    while v.degree > 0:
        r = u % v
        if r.is_zero:
            raise ArithmeticError(f"{v} shares a factor with the place {place}")
        if (u.degree - r.degree) % 2:
            res = field.mul(res, v.leading)
        if u.degree * v.degree % 2:
            res = field.neg(res)
        u, v = v, r
    if u.degree % 2:
        res = field.mul(res, v.leading)
    return 1 if field.is_square(res) else -1
