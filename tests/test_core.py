"""Ring, field, monomial-order and polynomial arithmetic checks."""

import random

import pytest

from rrlab.core import (Field, MonomialOrder, Polynomial, QQ, RingDescriptor,
                        compare_monomials, exps_divides, exps_lcm,
                        monomial_quotient)
from rrlab.errors import PreconditionError, RingMismatchError
from rrlab.parser import parse_polynomial


def _ring():
    return RingDescriptor(("X", "Y"))


def _random_poly(ring, rng, max_terms=4, max_deg=4):
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        e = tuple(rng.randint(0, max_deg) for _ in range(ring.nvars))
        terms[e] = ring.field.from_int(rng.randint(-5, 5))
    return Polynomial(ring, terms)


def test_constants_and_variables():
    R = _ring()
    assert str(R.constant(0)) == "0"
    assert R.constant(0).is_zero()
    x, y = R.variable("X"), R.variable("Y")
    assert str(x * x * y) == "X^2*Y"
    assert (x + y) - (x + y) == R.zero()
    assert R.one() * x == x


def test_ring_arithmetic_identities():
    R = _ring()
    rng = random.Random(7)
    for _ in range(50):
        f, g, h = (_random_poly(R, rng) for _ in range(3))
        assert (f + g) * h == f * h + g * h
        assert f * g == g * f
        assert f - f == R.zero()
        assert (f * g) * h == f * (g * h)
        assert f ** 3 == f * f * f


def test_prime_field_arithmetic():
    F5 = Field(5)
    R = RingDescriptor(("X",), F5)
    x = R.variable("X")
    five = R.constant(5)
    assert five.is_zero()
    # Frobenius: (x + 1)^5 == x^5 + 1 over F_5.
    assert (x + R.one()) ** 5 == x ** 5 + R.one()


def test_prime_field_rejects_composites():
    with pytest.raises(Exception):
        Field(6)


def test_monomial_orders_disagree_where_expected():
    R = RingDescriptor(("X", "Y", "Z"))
    lex = MonomialOrder("lex")
    grevlex = MonomialOrder("grevlex")
    grlex = MonomialOrder("grlex")
    a, b = (1, 0, 0), (0, 2, 0)  # X vs Y^2
    assert lex.compare(a, b) > 0       # X beats Y^2 under lex
    assert grevlex.compare(a, b) < 0   # degree wins under graded orders
    assert grlex.compare(a, b) < 0
    # grlex and grevlex differ on same-degree ties: X*Z^2 vs Y^2*Z.
    c, d = (1, 0, 2), (0, 2, 1)
    assert grlex.compare(c, d) > 0
    assert grevlex.compare(c, d) < 0


def test_order_priority_permutes_variables():
    R = RingDescriptor(("X", "Y"))
    y_first = MonomialOrder("lex", (1, 0))
    assert y_first.compare((3, 0), (0, 1)) < 0  # Y beats any power of X


def test_order_rejects_bad_priority():
    with pytest.raises(PreconditionError):
        MonomialOrder("lex", (0, 0)).key((1, 2))
    with pytest.raises(PreconditionError):
        MonomialOrder("grevlex", (0, 1)).key((1, 2, 3))  # wrong length


def _reference_key(kind, prio, exps):
    """The order key written out from its definition."""
    if kind == "lex":
        return tuple(exps[i] for i in prio)
    if kind == "grlex":
        return (sum(exps),) + tuple(exps[i] for i in prio)
    return (sum(exps),) + tuple(-exps[i] for i in reversed(prio))


def test_order_key_matches_definition():
    rng = random.Random(11)
    for nvars in (1, 2, 3, 4):
        prios = [None, tuple(rng.sample(range(nvars), nvars))]
        for kind in ("lex", "grlex", "grevlex"):
            for prio in prios:
                order = MonomialOrder(kind, prio)
                resolved = prio or tuple(range(nvars))
                for _ in range(30):
                    e = tuple(rng.randint(0, 5) for _ in range(nvars))
                    assert order.key(e) == _reference_key(kind, resolved, e)
                    assert order.key_function(nvars)(e) == order.key(e)


def test_int_key_sorts_like_key_tuples():
    # 500 seeded vectors, entries up to the digit bound 2**bits - 1; the int
    # key sum(c_i * e_i) must sort them exactly as the key tuples do, and
    # with eliminate as the block order with the appended variable first.
    rng = random.Random(17)
    nvars, bits = 4, 3
    vectors = [tuple(rng.randint(0, 2 ** bits - 1) for _ in range(nvars + 1))
               for _ in range(500)]
    for kind in ("lex", "grlex", "grevlex"):
        for prio in (None, (2, 0, 3, 1)):
            order = MonomialOrder(kind, prio)
            key = order.key_function(nvars)
            weights = order.int_weights(nvars, bits)
            elim = order.int_weights(nvars, bits, eliminate=True)
            cases = [
                ([v[:-1] for v in vectors], weights, key),
                (vectors, elim, lambda e: (e[-1], *key(e[:-1]))),
            ]
            for vecs, w, ref in cases:
                assert len(w) == len(vecs[0])
                int_key = [sum(c * x for c, x in zip(w, e)) for e in vecs]
                by_int = sorted(range(len(vecs)), key=lambda i: (int_key[i], i))
                by_tuple = sorted(range(len(vecs)), key=lambda i: (ref(vecs[i]), i))
                assert by_int == by_tuple
                # injective: equal keys only for equal vectors
                assert len(set(int_key)) == len(set(vecs))


def test_order_total_on_samples():
    rng = random.Random(3)
    for kind in ("lex", "grlex", "grevlex"):
        order = MonomialOrder(kind)
        exps = [tuple(rng.randint(0, 4) for _ in range(3)) for _ in range(40)]
        ordered = sorted(set(exps), key=order.key)
        for u, v in zip(ordered, ordered[1:]):
            assert order.compare(u, v) < 0


def test_exponent_helpers():
    assert exps_divides((1, 2), (3, 2))
    assert not exps_divides((1, 3), (3, 2))
    assert exps_lcm((1, 3), (2, 1)) == (2, 3)


def test_monomial_quotient_and_compare():
    R = _ring()
    a = R.monomial((3, 2))
    b = R.monomial((1, 2))
    assert monomial_quotient(a, b).exps == (2, 0)
    assert compare_monomials(a, b, MonomialOrder("grevlex")) > 0


def test_leading_term_respects_order():
    R = _ring()
    f = parse_polynomial(R, "X^3 + Y^4")
    assert f.leading_monomial(MonomialOrder("lex")).exps == (3, 0)
    assert f.leading_monomial(MonomialOrder("grevlex")).exps == (0, 4)


def test_cross_ring_operations_rejected():
    A = RingDescriptor(("X", "Y"))
    B = RingDescriptor(("X", "Z"))
    with pytest.raises(RingMismatchError):
        A.variable("X") + B.variable("X")


def test_polynomial_string_round_trip():
    R = _ring()
    rng = random.Random(11)
    for _ in range(30):
        f = _random_poly(R, rng)
        if f.is_zero():
            continue
        assert parse_polynomial(R, str(f)) == f
