import itertools

import pytest

from quatcurves import Place, Poly, make_field, parse_poly
from quatcurves.polyring import _pow_mod


@pytest.fixture(scope="session")
def f3():
    return make_field(3)


@pytest.fixture(scope="session")
def f5():
    return make_field(5)


@pytest.fixture(scope="session")
def f9():
    return make_field(3, 2)


def poly(field, text):
    return parse_poly(text, field)


def place(field, text):
    return Place(parse_poly(text, field))


def mobius(n):
    result, d = 1, 2
    while d * d <= n:
        if n % d == 0:
            n //= d
            if n % d == 0:
                return 0
            result = -result
        d += 1
    if n > 1:
        result = -result
    return result


def necklace_count(q, d):
    """Number of monic irreducibles of degree d over F_q (Gauss's formula)."""
    total = 0
    for k in range(1, d + 1):
        if d % k == 0:
            total += mobius(k) * q ** (d // k)
    return total // d


def all_polys_up_to(field, max_degree):
    """Every nonzero polynomial of degree <= max_degree, any leading coefficient."""
    elems = list(field.elements())
    for d in range(max_degree + 1):
        for rev in itertools.product(elems, repeat=d + 1):
            coeffs = tuple(reversed(rev))
            if coeffs[-1] == field.zero:
                continue
            yield Poly(field, coeffs)


def euler_symbol(a, place):
    """Quadratic symbol by Euler's criterion, a^((q_x - 1)/2) mod f_x: the
    library's former route, kept as an oracle for the resultant form."""
    field = place.field
    fx = place.generator
    r = a % fx
    if r.is_zero:
        return 0
    s = _pow_mod(r, (place.residue_cardinality - 1) // 2, fx)
    if s == Poly.one(field):
        return 1
    if s == Poly.constant(field, field.neg(field.one)):
        return -1
    raise AssertionError(f"Euler criterion produced a non-unit for {a} at {place}")
