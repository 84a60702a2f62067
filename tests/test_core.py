"""Ring, field, monomial-order and polynomial arithmetic checks."""

import random

import pytest

from rrlab.core import (PRIME_TEST_BOUND, Field, MonomialOrder, Packing,
                        Polynomial, QQ, RingDescriptor, _is_prime,
                        exps_divides)
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


def test_primality_agrees_with_trial_division_below_1e5():
    N = 10 ** 5
    sieve = bytearray([1]) * N
    sieve[0] = sieve[1] = 0
    for d in range(2, int(N ** 0.5) + 1):
        if sieve[d]:
            sieve[d * d::d] = bytes(len(range(d * d, N, d)))
    assert [n for n in range(N) if _is_prime(n)] == \
        [n for n in range(N) if sieve[n]]


def test_primality_agrees_with_sympy_on_large_numbers():
    sympy = pytest.importorskip("sympy")
    rng = random.Random(0)
    ns = [rng.randrange(2, PRIME_TEST_BOUND) for _ in range(300)]
    ns += [int(sympy.randprime(10 ** 6, 10 ** 12)) * int(sympy.randprime(10 ** 6, 10 ** 12))
           for _ in range(50)]
    ns += [int(sympy.randprime(10 ** 9, PRIME_TEST_BOUND)) for _ in range(50)]
    for n in ns:
        assert _is_prime(n) == sympy.isprime(n), n


def test_large_prime_fields():
    for p in (10 ** 18 + 3, 2 ** 61 - 1):
        assert Field(p).characteristic == p
    for pseudoprime in (561, 3215031751):
        with pytest.raises(PreconditionError, match="is not prime"):
            Field(pseudoprime)
    # the bound is 1287836182261 * 2575672364521, the least strong
    # pseudoprime to all thirteen bases: the test is fooled there, the
    # field is refused
    assert PRIME_TEST_BOUND == 1287836182261 * 2575672364521
    assert _is_prime(PRIME_TEST_BOUND)
    with pytest.raises(PreconditionError, match="too large"):
        Field(PRIME_TEST_BOUND)


def _reference_key(kind, prio, exps):
    """The order key written out from its definition: the specification
    that core's one order key, ``MonomialOrder.int_weights``, is held to."""
    if kind == "lex":
        return tuple(exps[i] for i in prio)
    if kind == "grlex":
        return (sum(exps),) + tuple(exps[i] for i in prio)
    return (sum(exps),) + tuple(-exps[i] for i in reversed(prio))


def _reference(order, nvars):
    """The reference key of order on nvars variables."""
    prio = order.resolved_priority(nvars)
    return lambda e: _reference_key(order.kind, prio, e)


def _int_key(order, nvars, bits=4):
    """core's int key of order, for exponents below 2**bits."""
    weights = order.int_weights(nvars, bits)
    return lambda e: sum(c * x for c, x in zip(weights, e))


def _compare(order, a, b):
    """The sign of a against b under order by the reference key, which the
    int key must give too."""
    ref, key = _reference(order, len(a)), _int_key(order, len(a))
    sign = (ref(a) > ref(b)) - (ref(a) < ref(b))
    assert sign == (key(a) > key(b)) - (key(a) < key(b))
    return sign


def test_monomial_orders_disagree_where_expected():
    lex = MonomialOrder("lex")
    grevlex = MonomialOrder("grevlex")
    grlex = MonomialOrder("grlex")
    a, b = (1, 0, 0), (0, 2, 0)  # X vs Y^2
    assert _compare(lex, a, b) > 0       # X beats Y^2 under lex
    assert _compare(grevlex, a, b) < 0   # degree wins under graded orders
    assert _compare(grlex, a, b) < 0
    # grlex and grevlex differ on same-degree ties: X*Z^2 vs Y^2*Z.
    c, d = (1, 0, 2), (0, 2, 1)
    assert _compare(grlex, c, d) > 0
    assert _compare(grevlex, c, d) < 0


def test_order_priority_permutes_variables():
    y_first = MonomialOrder("lex", (1, 0))
    assert _compare(y_first, (3, 0), (0, 1)) < 0  # Y beats any power of X


def test_order_rejects_bad_priority():
    with pytest.raises(PreconditionError):
        MonomialOrder("lex", (0, 0)).int_weights(2, 3)
    with pytest.raises(PreconditionError):
        MonomialOrder("grevlex", (0, 1)).int_weights(3, 3)  # wrong length


def test_order_key_matches_definition():
    # on random vectors and priorities, the int key orders every pair as
    # the reference key does
    rng = random.Random(11)
    for nvars in (1, 2, 3, 4):
        prios = [None, tuple(rng.sample(range(nvars), nvars))]
        for kind in ("lex", "grlex", "grevlex"):
            for prio in prios:
                order = MonomialOrder(kind, prio)
                for _ in range(30):
                    a, b = (tuple(rng.randint(0, 5) for _ in range(nvars))
                            for _ in range(2))
                    _compare(order, a, b)


def test_int_key_sorts_like_key_tuples():
    # 500 seeded vectors, entries up to the digit bound 2**bits - 1; the int
    # key sum(c_i * e_i) must sort them exactly as the reference key does,
    # and with eliminate as the block order with the appended variable
    # first.
    rng = random.Random(17)
    nvars, bits = 4, 3
    vectors = [tuple(rng.randint(0, 2 ** bits - 1) for _ in range(nvars + 1))
               for _ in range(500)]
    for kind in ("lex", "grlex", "grevlex"):
        for prio in (None, (2, 0, 3, 1)):
            order = MonomialOrder(kind, prio)
            key = _reference(order, nvars)
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
        ordered = sorted(set(exps), key=_int_key(order, 3, 3))
        for u, v in zip(ordered, ordered[1:]):
            assert _compare(order, u, v) < 0


def test_polynomials_print_in_descending_reference_order():
    # str(p) lists the terms leading term first: descending reference key,
    # under each kind, with and without a priority, for exponents of
    # several bit lengths
    rng = random.Random(19)
    names = ("X", "Y", "Z")
    for kind in ("lex", "grlex", "grevlex"):
        for prio in (None, (2, 0, 1)):
            order = MonomialOrder(kind, prio)
            R = RingDescriptor(names, order=order)
            ref = _reference(order, 3)
            for top in (1, 3, 8, 300):
                exps = {tuple(rng.randint(0, top) for _ in names)
                        for _ in range(6)}
                p = Polynomial(R, {e: 1 for e in exps})
                expected = sorted(exps, key=ref, reverse=True)
                assert str(p) == " + ".join(map(R.format_exponents, expected))


def test_exponent_helpers():
    assert exps_divides((1, 2), (3, 2))
    assert not exps_divides((1, 3), (3, 2))


def test_monomial_quotient_and_compare():
    a, b = (3, 2), (1, 2)
    P = Packing(2, 3)
    assert [P.unpack(q) for q in P.quotients([P.pack(a)], P.pack(b))] == [(2, 0)]
    assert _compare(MonomialOrder("grevlex"), a, b) > 0


# -- core.Packing against tuple definitions ---------------------------------


def _minimal(vectors, floor=()):
    """The divisibility-minimal vectors outside the ideal floor generates,
    ascending, written from the definition."""
    vs = set(vectors)
    return sorted(v for v in vs
                  if not any(exps_divides(f, v) for f in floor)
                  and not any(u != v and exps_divides(u, v) for u in vs))


def _packings(nvars, width):
    """The plain packing and one keyed by each order kind."""
    yield Packing(nvars, width)
    for kind in ("lex", "grlex", "grevlex"):
        yield Packing(nvars, width,
                      MonomialOrder(kind).int_weights(nvars, width - 1))


def test_packing_round_trip_at_powers_of_two():
    rng = random.Random(5)
    for k in (1, 2, 7, 8, 16):
        values = (0, 1, 2 ** k - 1, 2 ** k)
        width = (2 ** k).bit_length() + 1
        for nvars in (1, 2, 3, 4):
            for P in _packings(nvars, width):
                for _ in range(20):
                    e = tuple(rng.choice(values) for _ in range(nvars))
                    assert P.unpack(P.pack(e)) == e
                    assert P.unpack(P.pack(e) & P.mask) == e


def test_packing_is_additive():
    rng = random.Random(6)
    for nvars in (1, 2, 3):
        for P in _packings(nvars, 6):  # sums stay below 2**5, the guards
            for _ in range(50):
                a = tuple(rng.randint(0, 15) for _ in range(nvars))
                b = tuple(rng.randint(0, 16) for _ in range(nvars))
                ab = tuple(x + y for x, y in zip(a, b))
                assert P.pack(a) + P.pack(b) == P.pack(ab)


def test_keyed_packing_sorts_like_the_order():
    rng = random.Random(7)
    nvars, width = 3, 5
    vectors = {tuple(rng.randint(0, 15) for _ in range(nvars)) for _ in range(200)}
    for kind in ("lex", "grlex", "grevlex"):
        order = MonomialOrder(kind)
        P = Packing(nvars, width, order.int_weights(nvars, width - 1))
        assert sorted(vectors, key=P.pack) == sorted(vectors,
                                                     key=_reference(order, nvars))
    # unkeyed, ascending packed order is the lexicographic order
    assert sorted(vectors, key=Packing(nvars, width).pack) == sorted(vectors)


def test_packing_fieldwise_ops_match_tuples():
    rng = random.Random(8)
    for nvars in (1, 2, 3, 4):
        for top in (1, 3, 127, 128):
            values = (0, 1, top // 2, top)
            for P in _packings(nvars, top.bit_length() + 1):
                G = P.guards

                def fields(vectors):
                    return [P.pack(e) & P.mask for e in vectors]

                for _ in range(10):
                    As, Bs, Fs = ([tuple(rng.choice(values) for _ in range(nvars))
                                   for _ in range(n)] for n in (5, 3, 2))
                    pA, pB, pF = fields(As), fields(Bs), fields(Fs)
                    a, b = As[0], Bs[0]
                    divides = ((pB[0] | G) - pA[0]) & G == G
                    assert divides == exps_divides(a, b)
                    assert P.unpack(P.lcm(pA[0], pB[0])) == tuple(map(max, a, b))
                    # ascending fields are the lexicographic order, as sorted()
                    assert [P.unpack(p) for p in P.minimal(pA, pF)] == \
                        _minimal(As, Fs)
                    quotients = [tuple(max(x - y, 0) for x, y in zip(e, b))
                                 for e in As]
                    assert [P.unpack(p) for p in P.quotients(pA, pB[0], pF)] == \
                        _minimal(quotients, Fs)
                    lcms = [tuple(map(max, x, y)) for x in As for y in Bs]
                    assert [P.unpack(p) for p in P.lcms(pA, pB)] == \
                        _minimal(lcms)


def test_leading_term_respects_order():
    for kind, lead in (("lex", (3, 0)), ("grevlex", (0, 4))):
        R = RingDescriptor(("X", "Y"), order=MonomialOrder(kind))
        assert parse_polynomial(R, "X^3 + Y^4").sorted_terms()[0][0] == lead


def test_cross_ring_operations_rejected():
    A = RingDescriptor(("X", "Y"))
    B = RingDescriptor(("X", "Z"))
    with pytest.raises(RingMismatchError):
        A.variable("X") + B.variable("X")


def test_rings_compatible_up_to_the_order():
    R = RingDescriptor(["X", "Y"])  # a list of names is read as a tuple
    assert R == RingDescriptor(("X", "Y"), QQ, MonomialOrder("grevlex"), ())
    assert hash(R) == hash(RingDescriptor(("X", "Y")))
    lex = R.replace(order=MonomialOrder("lex"))
    assert lex != R and lex.compatible(R)
    Q = R.with_quotient([R.variable("X") ** 2])
    assert Q == R.with_quotient([R.variable("X") ** 2])
    assert not Q.compatible(R)
    assert not R.compatible(RingDescriptor(("X", "Y"), Field(7)))
    with pytest.raises(PreconditionError):
        RingDescriptor(("X", "X"))


def test_polynomial_string_round_trip():
    R = _ring()
    rng = random.Random(11)
    for _ in range(30):
        f = _random_poly(R, rng)
        if f.is_zero():
            continue
        assert parse_polynomial(R, str(f)) == f
