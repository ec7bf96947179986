"""Exact arithmetic in small finite fields.

A field is either a prime field Z/p or an extension base[u]/(m) for a monic
irreducible modulus m over the base.  Elements of a prime field are the
integers 0..p-1; elements of an extension are fixed-length tuples of base
elements, constant coefficient first.  Every value is immutable and every
operation is a pure function, so fields and elements can be shared freely.

One deterministic order is used throughout: coefficient sequences are counted
like an odometer with the constant term moving fastest.  The modulus of a
degree-d extension is the first monic irreducible polynomial of degree d in
that order, which keeps every derived quantity (canonical non-squares, place
orderings, reported tables) reproducible across runs.
"""

from __future__ import annotations

import itertools
import re
from functools import lru_cache

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

    def pow(self, a, n: int):
        """a**n by square-and-multiply; n must be a non-negative integer."""
        if n < 0:
            raise ValueError("exponent must be non-negative")
        result = self.one
        while n:
            if n & 1:
                result = self.mul(result, a)
            a = self.mul(a, a)
            n >>= 1
        return result

    def is_square(self, a) -> bool:
        """Euler criterion: a == 0 or a**((q-1)/2) == 1.  Odd characteristic only."""
        if not self.odd_characteristic:
            raise ValueError("square classes are trivial in characteristic 2")
        return a == self.zero or self.pow(a, (self.q - 1) // 2) == self.one

    def nonsquare(self):
        """The first non-square in enumeration order of the nonzero elements."""
        if not self.odd_characteristic:
            raise ValueError("every element of a characteristic-2 field is a square")
        if self._nonsquare is None:
            self._nonsquare = next(
                a for a in self.elements() if a != self.zero and not self.is_square(a)
            )
        return self._nonsquare

    def squares(self) -> frozenset:
        """The set of all squares, built by squaring every element once."""
        if self._squares is None:
            self._squares = frozenset(self.mul(a, a) for a in self.elements())
        return self._squares

    def elements(self):
        raise NotImplementedError

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
        self._squares = None

    def from_int(self, n: int) -> int:
        return n % self.p

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

    def elements(self):
        self._check_enumerable()
        yield from range(self.p)

    def element_index(self, a: int) -> int:
        return a

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

    Elements are tuples of base elements whose length equals the modulus
    degree, constant coefficient first.
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
        self.zero = (base.zero,) * self.m
        self.one = (base.one,) + (base.zero,) * (self.m - 1)
        self._nonsquare = None
        self._squares = None

    def embed(self, c):
        """Constant embedding of a base-field element."""
        return (c,) + (self.base.zero,) * (self.m - 1)

    def from_int(self, n: int):
        return self.embed(self.base.from_int(n))

    def add(self, a, b):
        badd = self.base.add
        return tuple(badd(x, y) for x, y in zip(a, b))

    def sub(self, a, b):
        bsub = self.base.sub
        return tuple(bsub(x, y) for x, y in zip(a, b))

    def neg(self, a):
        bneg = self.base.neg
        return tuple(bneg(x) for x in a)

    def mul(self, a, b):
        base = self.base
        m = self.m
        zero = base.zero
        prod = [zero] * (2 * m - 1)
        for i, x in enumerate(a):
            if x == zero:
                continue
            for j, y in enumerate(b):
                if y == zero:
                    continue
                prod[i + j] = base.add(prod[i + j], base.mul(x, y))
        # fold down by the monic modulus: u^k = -sum modulus[j] u^(k-m+j)
        for k in range(2 * m - 2, m - 1, -1):
            c = prod[k]
            if c == zero:
                continue
            prod[k] = zero
            for j in range(m):
                mj = self.modulus[j]
                if mj != zero:
                    prod[k - m + j] = base.sub(prod[k - m + j], base.mul(c, mj))
        return tuple(prod[:m])

    def inv(self, a):
        if a == self.zero:
            raise ZeroDivisionError("inversion of zero")
        return self.pow(a, self.q - 2)

    def elements(self):
        self._check_enumerable()
        base_elems = list(self.base.elements())
        for rev in itertools.product(base_elems, repeat=self.m):
            yield tuple(reversed(rev))

    def element_index(self, a) -> int:
        idx = 0
        for c in reversed(a):
            idx = idx * self.base.q + self.base.element_index(c)
        return idx

    def element_str(self, a) -> str:
        return _poly_text(self.base, a, "u")

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
        coeffs = [self.base.zero] * self.m
        extra = []
        for sign, term in _split_signed_terms(text):
            match = self._TERM_RE.fullmatch(term)
            if not match or (match.group("coef") is None and match.group("var") is None):
                raise ValueError(f"cannot parse element term {term!r}")
            c = self.base.from_int(int(match.group("coef") or 1))
            if sign < 0:
                c = self.base.neg(c)
            exp = 0
            if match.group("var"):
                exp = int(match.group("exp") or 1)
            if exp < self.m:
                coeffs[exp] = self.base.add(coeffs[exp], c)
            else:
                extra.append((exp, c))
        if extra:
            # reduce out-of-range powers by the modulus
            top = max(exp for exp, _ in extra)
            full = list(coeffs) + [self.base.zero] * (top + 1 - self.m)
            for exp, c in extra:
                full[exp] = self.base.add(full[exp], c)
            coeffs = _poly_list_mod(self.base, full, list(self.modulus))
            coeffs += [self.base.zero] * (self.m - len(coeffs))
        return tuple(coeffs)

    def __eq__(self, other):
        return (
            isinstance(other, ExtensionField)
            and other.base == self.base
            and other.modulus == self.modulus
        )

    def __hash__(self):
        return hash(("ext", self.base, self.modulus))

    def __repr__(self):
        return f"GF({self.q})"


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

    Constants of the given field embed via ExtensionField.embed, so there is
    never an embedding to search for.
    """
    if m < 1:
        raise ValueError("extension degree must be at least 1")
    if m == 1:
        return field
    return ExtensionField(field, _first_irreducible(field, m))
