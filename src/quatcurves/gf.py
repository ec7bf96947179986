"""Exact arithmetic in small finite fields.

A field is either a prime field Z/p or an extension base[u]/(m) for a monic
irreducible modulus m over the base.  Every element is an integer 0..q-1, its
position in odometer order: sum c_i u^i is sum c_i Q^i with Q the size of the
base, so a base element is its own constant.  Prime fields compute modulo p,
extensions by exp/log/Zech tables.  Every value is immutable and every
operation is a pure function, so fields and elements can be shared freely.

One deterministic order is used throughout: coefficient sequences are counted
like an odometer with the constant term moving fastest.  The modulus of a
degree-d extension is the first monic irreducible polynomial of degree d in
that order, which keeps every derived quantity (canonical non-squares, place
orderings, reported tables) reproducible across runs.
"""

from __future__ import annotations

import itertools
import operator
import re
from functools import lru_cache, reduce

#: Refuse enumeration-based work in fields larger than this (desk scale).
ENUMERATION_BOUND = 10**7


class BoundExceededError(RuntimeError):
    """An operation would enumerate more elements than ENUMERATION_BOUND."""


def is_prime(n: int) -> bool:
    """Trial-division primality test; inputs here are desk-scale."""
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


class FiniteField:
    """Behaviour shared by PrimeField and ExtensionField."""

    p: int  # characteristic
    q: int  # cardinality
    e: int  # degree over the prime subfield

    @property
    def odd_characteristic(self) -> bool:
        return self.p != 2

    def from_int(self, n: int) -> int:
        return n % self.p

    def is_square(self, a) -> bool:
        """Euler criterion: a == 0 or a**((q-1)/2) == 1.  Odd characteristic only."""
        if self.p == 2:
            raise ValueError("square classes are trivial in characteristic 2")
        return a == 0 or self.pow(a, (self.q - 1) // 2) == 1

    def nonsquare(self):
        """The first non-square in enumeration order of the nonzero elements."""
        if not self.odd_characteristic:
            raise ValueError("every element of a characteristic-2 field is a square")
        if self._nonsquare is None:
            self._nonsquare = next(
                a for a in self.elements() if a != self.zero and not self.is_square(a)
            )
        return self._nonsquare

    def elements(self):
        """Every element, in odometer order: the integers 0..q-1."""
        self._check_enumerable()
        yield from range(self.q)

    def _check_enumerable(self) -> None:
        if self.q > ENUMERATION_BOUND:
            raise BoundExceededError(
                f"field of size {self.q} exceeds the enumeration bound {ENUMERATION_BOUND}"
            )


class PrimeField(FiniteField):
    """Z/p for a prime p; elements are the integers 0..p-1."""

    def __init__(self, p: int):
        if not is_prime(p):
            raise ValueError(f"characteristic must be prime, got {p}")
        self.p = p
        self.q = p
        self.e = 1
        self.base = None
        self.modulus = None
        self.zero = 0
        self.one = 1
        self._nonsquare = None

    def add(self, a: int, b: int) -> int:
        return (a + b) % self.p

    def sub(self, a: int, b: int) -> int:
        return (a - b) % self.p

    def neg(self, a: int) -> int:
        return (-a) % self.p

    def mul(self, a: int, b: int) -> int:
        return (a * b) % self.p

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("inversion of zero")
        return pow(a, self.p - 2, self.p)

    def pow(self, a: int, n: int) -> int:
        if n < 0:
            raise ValueError("exponent must be non-negative")
        return pow(a, n, self.p)

    def element_str(self, a: int) -> str:
        return str(a)

    def parse_element(self, text: str) -> int:
        text = text.strip()
        if not re.fullmatch(r"[+-]?\d+", text):
            raise ValueError(f"cannot parse {text!r} as an element of GF({self.p})")
        return int(text) % self.p

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("GF", self.p))

    def __repr__(self):
        return f"GF({self.p})"


class ExtensionField(FiniteField):
    """base[u]/(modulus) for a monic irreducible modulus over base.

    The element sum c_i u^i (c_i in base, i < m) is the integer sum c_i Q^i
    with Q = base.q.  From the first primitive element g in that order the
    constructor tabulates, for N = q - 1, exp[k] = g^k for 0 <= k < 2N (two
    periods, so a sum of two logs needs no reduction), log[g^k] = k and the
    Zech logarithm zech[k] = log(1 + g^k), or -1 when 1 + g^k = 0.  Products
    add logs and sums are g^i + g^j = g^(i + zech[j - i]).
    """

    def __init__(self, base: FiniteField, modulus):
        modulus = tuple(modulus)
        if len(modulus) < 2 or modulus[-1] != base.one:
            raise ValueError("modulus must be monic of degree >= 1")
        self.base = base
        self.modulus = modulus
        self.m = len(modulus) - 1
        self.p = base.p
        self.q = base.q ** self.m
        self.e = base.e * self.m
        self.zero = 0
        self.one = 1
        self._nonsquare = None
        self._hash = hash(("ext", base, modulus))
        self._check_enumerable()
        self._build_tables(self._first_primitive())
        # the class of u; it is a base constant when the modulus is linear
        self._u = self._from_coeffs(_poly_list_mod(base, [0, 1], list(modulus)))

    # -- construction: coefficient arithmetic, used only to fill the tables

    def _coeffs(self, a: int) -> list:
        """Base-field coefficients c_0..c_{m-1} of the element a."""
        return [a // self.base.q**i % self.base.q for i in range(self.m)]

    def _from_coeffs(self, coeffs) -> int:
        return sum(c * self.base.q**i for i, c in enumerate(coeffs))

    def _poly_mul(self, a: int, b: int) -> int:
        """a * b by schoolbook multiplication modulo the modulus."""
        base = self.base
        prod = [base.zero] * (2 * self.m - 1)
        b_terms = [(j, y) for j, y in enumerate(self._coeffs(b)) if y != base.zero]
        for i, x in enumerate(self._coeffs(a)):
            if x != base.zero:
                for j, y in b_terms:
                    prod[i + j] = base.add(prod[i + j], base.mul(x, y))
        return self._from_coeffs(_poly_list_mod(base, prod, list(self.modulus)))

    def _poly_pow(self, a: int, n: int) -> int:
        if n == 0:
            return self.one
        half = self._poly_pow(self._poly_mul(a, a), n // 2)
        return self._poly_mul(half, a) if n % 2 else half

    def _powers(self, g: int):
        """The codes of g^0, ..., g^(q-2), each power's coefficient vector
        made from the previous one's, a, as a * g = sum of a_i (u^i g).

        The vectors c u^i g are tabulated for every position i and base
        element c, so a step is one coefficientwise sum: in plain integers
        modulo p over a prime base, by base additions over any other.
        """
        base, m = self.base, self.m
        rows = [self._coeffs(self._poly_mul(base.q**i, g)) for i in range(m)]
        scaled = [[[base.mul(c, x) for x in row] for c in base.elements()] for row in rows]
        prime = isinstance(base, PrimeField)
        p, add = base.p, base.add
        weights = [base.q**i for i in range(m)]
        a = [base.one] + [base.zero] * (m - 1)
        for _ in range(self.q - 1):
            yield sum(map(operator.mul, a, weights))
            columns = zip(*map(operator.getitem, scaled, a))
            if prime:
                a = [sum(column) % p for column in columns]
            else:
                a = [reduce(add, column) for column in columns]

    def _first_primitive(self) -> int:
        """First g with g^(q-1) = 1 and g^((q-1)/l) != 1 for each prime l | q-1.
        A nonzero g with g^(q-1) != 1 proves the quotient ring is no field,
        so a reducible modulus is rejected there, and never past q."""
        n = self.q - 1
        ells = _prime_factors(n)
        for g in range(1, self.q):
            if self._poly_pow(g, n) != self.one:
                break
            if all(self._poly_pow(g, n // ell) != self.one for ell in ells):
                return g
        raise ValueError(f"modulus {self.modulus_str()} is reducible: no primitive element")

    def _build_tables(self, g: int) -> None:
        n = self.q - 1
        exp = [0] * (2 * n)
        log = [0] * self.q
        for k, a in enumerate(self._powers(g)):
            exp[k] = exp[k + n] = a
            log[a] = k
        # 1 + a changes only the constant coefficient a % Q of a
        bq, badd, bone = self.base.q, self.base.add, self.base.one
        ones = [a - a % bq + badd(a % bq, bone) for a in exp[:n]]
        zech = [log[b] if b != self.zero else -1 for b in ones]
        self._n, self._exp, self._log, self._zech = n, exp, log, zech
        # -1 = g^(n/2) in odd characteristic and 1 = g^0 in characteristic 2
        self._log_minus_one = n // 2 if self.odd_characteristic else 0

    # -- arithmetic by table lookup

    def add(self, a: int, b: int) -> int:
        if a == 0:
            return b
        if b == 0:
            return a
        la = self._log[a]
        # a negative difference indexes from the end, i.e. modulo n
        z = self._zech[self._log[b] - la]
        return 0 if z < 0 else self._exp[la + z]

    def sub(self, a: int, b: int) -> int:
        return self.add(a, self.neg(b))

    def neg(self, a: int) -> int:
        return self._exp[self._log[a] + self._log_minus_one] if a else 0

    def mul(self, a: int, b: int) -> int:
        return self._exp[self._log[a] + self._log[b]] if a and b else 0

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("inversion of zero")
        return self._exp[self._n - self._log[a]]

    def pow(self, a: int, n: int) -> int:
        if n < 0:
            raise ValueError("exponent must be non-negative")
        if a == 0:
            return self.one if n == 0 else self.zero
        return self._exp[self._log[a] * n % self._n]

    # -- text

    def element_str(self, a: int) -> str:
        return _poly_text(self.base, self._coeffs(a), "u")

    def modulus_str(self) -> str:
        return _poly_text(self.base, self.modulus, "u")

    _TERM_RE = re.compile(r"^(?:(?P<coef>\d+)\*?)?(?P<var>u(?:\^(?P<exp>\d+))?)?$")

    def parse_element(self, text: str):
        """Parse 'u+2', '2u', '2*u^1', '7' into a canonical element.

        Only supported over a prime base field, which covers every field a
        user can name on the command line.
        """
        if not isinstance(self.base, PrimeField):
            raise ValueError("element parsing is only supported over a prime base field")
        text = text.strip().replace(" ", "")
        if not text:
            raise ValueError("empty element text")
        value = self.zero
        for sign, term in _split_signed_terms(text):
            match = self._TERM_RE.fullmatch(term)
            if not match or (match.group("coef") is None and match.group("var") is None):
                raise ValueError(f"cannot parse element term {term!r}")
            c = self.from_int(sign * int(match.group("coef") or 1))
            exp = int(match.group("exp") or 1) if match.group("var") else 0
            value = self.add(value, self.mul(c, self.pow(self._u, exp)))
        return value

    def __eq__(self, other):
        return other is self or (
            isinstance(other, ExtensionField)
            and other.base == self.base
            and other.modulus == self.modulus
        )

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return f"GF({self.q})"


def _prime_factors(n: int) -> list[int]:
    out = []
    f = 2
    while f * f <= n:
        if n % f == 0:
            out.append(f)
            while n % f == 0:
                n //= f
        f += 1
    if n > 1:
        out.append(n)
    return out


def _poly_text(field: FiniteField, coeffs, var: str) -> str:
    """Text of sum coeffs[i] var^i over field, highest term first: '2T^2+T+1'.

    Unit coefficients are left out, composite ones are parenthesized
    ('(u+1)T'), and the zero sequence prints as '0'.  Shared by polynomials
    (var 'T'), extension elements and moduli (var 'u').
    """
    parts = []
    for i in range(len(coeffs) - 1, -1, -1):
        c = coeffs[i]
        if c == field.zero:
            continue
        cs = field.element_str(c)
        if "+" in cs:
            cs = f"({cs})"
        if i == 0:
            parts.append(cs)
        else:
            power = var if i == 1 else f"{var}^{i}"
            parts.append(power if c == field.one else f"{cs}{power}")
    return "+".join(parts) if parts else "0"


def _split_signed_terms(text: str):
    """Split 'a+b-c' into [(+1, 'a'), (+1, 'b'), (-1, 'c')], paren-aware."""
    terms = []
    sign, depth, buf = 1, 0, []
    for ch in text:
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
            if depth < 0:
                raise ValueError(f"unbalanced parentheses in {text!r}")
        if ch in "+-" and depth == 0:
            if buf:
                terms.append((sign, "".join(buf)))
                buf, sign = [], 1
            if ch == "-":
                sign = -sign
        else:
            buf.append(ch)
    if depth != 0:
        raise ValueError(f"unbalanced parentheses in {text!r}")
    if not buf:
        raise ValueError(f"dangling sign in {text!r}")
    terms.append((sign, "".join(buf)))
    return terms


def _poly_list_mod(field: FiniteField, a: list, b: list) -> list:
    """Remainder of a modulo a monic b; coefficient lists, low degree first."""
    a = list(a)
    db = len(b) - 1
    while len(a) > db:
        c = a[-1]
        if c != field.zero:
            off = len(a) - 1 - db
            for j in range(db):
                if b[j] != field.zero:
                    a[off + j] = field.sub(a[off + j], field.mul(c, b[j]))
        a.pop()
    while a and a[-1] == field.zero:
        a.pop()
    return a


def _first_irreducible(field: FiniteField, d: int) -> tuple:
    """First monic irreducible of degree d in odometer order, by trial division.

    Deliberately independent of the Rabin test in polyring so the two can
    cross-check each other.
    """
    if field.q ** d > ENUMERATION_BOUND:
        raise BoundExceededError(
            f"irreducible search of degree {d} over a field of size {field.q} "
            f"exceeds the enumeration bound"
        )
    base_elems = list(field.elements())
    divisors = []
    for dd in range(1, d // 2 + 1):
        for rev in itertools.product(base_elems, repeat=dd):
            divisors.append(tuple(reversed(rev)) + (field.one,))
    for rev in itertools.product(base_elems, repeat=d):
        cand = list(reversed(rev)) + [field.one]
        if all(_poly_list_mod(field, cand, list(g)) for g in divisors):
            return tuple(cand)
    raise AssertionError(f"no monic irreducible of degree {d} found")  # unreachable


@lru_cache(maxsize=None)
def make_field(p: int, e: int = 1) -> FiniteField:
    """F_{p^e} with the deterministically chosen modulus (first irreducible)."""
    if e < 1:
        raise ValueError("extension degree must be at least 1")
    prime = PrimeField(p)
    if e == 1:
        return prime
    return ExtensionField(prime, _first_irreducible(prime, e))


@lru_cache(maxsize=None)
def extend_field(field: FiniteField, m: int) -> FiniteField:
    """Degree-m extension of an arbitrary field, built as field[u]/(g).

    An element of the given field is its own constant in the extension, so
    there is never an embedding to search for or apply.
    """
    if m < 1:
        raise ValueError("extension degree must be at least 1")
    if m == 1:
        return field
    return ExtensionField(field, _first_irreducible(field, m))
