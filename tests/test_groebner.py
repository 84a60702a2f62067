"""Basis computation checked against independent oracles.

Membership answers are cross-validated by bounded-degree linear algebra on
explicit generator combinations, and colon/intersection outputs are checked
against their defining properties.
"""

import random

import pytest

from rrlab.core import Field, MonomialOrder, Polynomial, QQ, RingDescriptor
from rrlab.errors import ResourceLimitError
from rrlab import groebner
from rrlab.groebner import IdealHandle
from rrlab.monomial import MonomialIdeal
from rrlab.parser import parse_polynomial


def _ring():
    return RingDescriptor(("X", "Y"))


def _handle(R, *texts):
    return IdealHandle(R, [parse_polynomial(R, t) for t in texts])


def _random_poly(ring, rng, max_terms=3, max_deg=3):
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        e = tuple(rng.randint(0, max_deg) for _ in range(ring.nvars))
        terms[e] = ring.field.from_int(rng.randint(-3, 3))
    return Polynomial(ring, terms)


def test_basis_of_principal_ideal_is_monic_generator():
    R = _ring()
    H = _handle(R, "2*X^2 - 2*Y")
    basis = H.groebner_basis().polynomials
    assert len(basis) == 1
    assert basis[0] == parse_polynomial(R, "X^2 - Y")


def test_normal_form_is_zero_exactly_on_members():
    R = _ring()
    H = _handle(R, "X^2 - Y", "X*Y - 1")
    gb = H.groebner_basis()
    f = parse_polynomial(R, "X^3 - X - Y^2 + 1")
    # f = X*(X^2 - Y) + (X*Y - 1) - (Y^2 - Y*... ) -- verify via membership.
    assert gb.reduces_to_zero(f) == H.contains(f)
    assert gb.normal_form(H.gens[0] * H.gens[1]).is_zero()


def test_normal_form_is_linear_and_idempotent():
    R = _ring()
    H = _handle(R, "X^3 - Y", "Y^2 - X")
    gb = H.groebner_basis()
    rng = random.Random(5)
    for _ in range(20):
        f, g = _random_poly(R, rng), _random_poly(R, rng)
        nf = gb.normal_form
        assert nf(f + g) == nf(f) + nf(g)
        assert nf(nf(f)) == nf(f)
        assert (f - nf(f)).is_zero() or H.contains(f - nf(f))


def test_membership_oracle_explicit_combinations():
    # Members built as explicit combinations must test positive; random
    # low-degree non-reducing polynomials must test negative via normal form.
    R = _ring()
    rng = random.Random(9)
    for _ in range(15):
        gens = [_random_poly(R, rng) for _ in range(2)]
        gens = [g for g in gens if not g.is_zero()]
        if not gens:
            continue
        H = IdealHandle(R, gens)
        combo = sum((_random_poly(R, rng) * g for g in gens), R.zero())
        assert H.contains(combo)
        probe = _random_poly(R, rng)
        nf = H.groebner_basis().normal_form(probe)
        assert H.contains(probe) == nf.is_zero()


def test_gb_agrees_across_orders_on_membership():
    R = _ring()
    f = parse_polynomial(R, "X^2*Y - Y^3 + X")
    gens = ("X^2 - Y^2", "X*Y + Y^2")
    answers = set()
    for kind in ("lex", "grlex", "grevlex"):
        for prio in ((0, 1), (1, 0)):
            order = MonomialOrder(kind, prio)
            ring = RingDescriptor(("X", "Y"), QQ, order)
            H = _handle(ring, *gens)
            answers.add(H.contains(parse_polynomial(ring, str(f))))
    assert len(answers) == 1


def test_colon_defining_property():
    R = _ring()
    A = _handle(R, "X^2*Y", "X*Y^3")
    B = _handle(R, "X*Y")
    C = A.colon(B)
    # C * B subset A, and C contains everything that multiplies B into A.
    for c in C.gens:
        for b in B.gens:
            assert A.contains(c * b)
    assert C.contains(parse_polynomial(R, "X*Y^2"))
    assert not C.contains(parse_polynomial(R, "Y"))


def test_intersection_defining_property():
    R = _ring()
    A = _handle(R, "X^2", "X*Y")
    B = _handle(R, "Y^2", "X*Y")
    C = A.intersect(B)
    for c in C.gens:
        assert A.contains(c) and B.contains(c)
    assert C.contains(parse_polynomial(R, "X*Y"))
    assert C.contains(parse_polynomial(R, "X^2*Y^2"))
    assert not C.contains(parse_polynomial(R, "X^2"))


def test_power_matches_generator_products():
    R = _ring()
    H = _handle(R, "X^2 - Y", "Y^3")
    P = H.power(3)
    for a in H.gens:
        for b in H.gens:
            for c in H.gens:
                assert P.contains(a * b * c)
    assert not P.contains(H.gens[0] * H.gens[1])


def test_leading_term_ideal_is_monomial_ideal():
    R = _ring()
    H = _handle(R, "X^2 - Y^3", "X*Y - 1")
    L = H.leading_term_ideal()
    assert isinstance(L, MonomialIdeal)
    for g in H.groebner_basis().polynomials:
        assert L.contains(g.leading_monomial(R.order).exps)


def test_quotient_ring_relations_vanish():
    base = RingDescriptor(("X", "Z", "U"))
    R = base.with_quotient([parse_polynomial(base, t)
                            for t in ("Z^2", "Z*U", "X*Z - U^3")])
    H = IdealHandle(R, [parse_polynomial(R, "X")])
    # U^3 == X*Z in the quotient, so U^3 lies in (X).
    assert H.contains(parse_polynomial(R, "U^3"))
    zero_h = IdealHandle(R, [parse_polynomial(R, "Z^2")])
    assert zero_h.is_zero()


def test_monomial_round_trip():
    R = _ring()
    I = MonomialIdeal.from_gens(R, [(4, 0), (3, 1), (1, 3), (0, 4)])
    H = IdealHandle.from_monomial(I)
    assert H.is_monomial()
    assert H.to_monomial_ideal() == I


def test_pair_cap_stops_buchberger(monkeypatch):
    R = _ring()
    gens = [parse_polynomial(R, t) for t in ("X^2 - Y", "X*Y - 1", "Y^2 - X")]
    assert len(IdealHandle(R, gens).groebner_basis()) >= 1  # finishes uncapped
    monkeypatch.setattr(groebner, "PAIR_CAP", 1)
    with pytest.raises(ResourceLimitError):
        IdealHandle(R, gens).groebner_basis()


def test_basis_over_prime_field():
    # Over F_7 a reduction that creates a new term must negate a field
    # element, not subtract it from the integer 0.
    R = RingDescriptor(("X", "Y"), Field(7))
    H = _handle(R, "X^2 - Y", "X*Y - 1")
    basis = {str(g) for g in H.groebner_basis().polynomials}
    assert basis == {"X^2 + 6*Y", "X*Y + 6", "Y^2 + 6*X"}
    assert H.contains(parse_polynomial(R, "Y^3 - 1"))
    assert not H.contains(parse_polynomial(R, "Y - 1"))
    assert H.intersect(_handle(R, "Y")).contains(parse_polynomial(R, "X*Y - Y^3"))


# -- packed field widths ------------------------------------------------------
#
# The engine packs each exponent vector into fields sized by the call's
# inputs and reruns with wider fields when a product reaches a guard bit.
# Each case below grows past the width its inputs give, or sits on a power
# of two, and checks an answer known in closed form.

FIELDS = [QQ, Field(7)]


def _lex_ring(field, names=("X", "Y", "Z")):
    return RingDescriptor(names, field, MonomialOrder("lex"))


def _basis(H):
    return set(H.groebner_basis().polynomials)


@pytest.mark.parametrize("field", FIELDS, ids=str)
def test_width_basis_grows_past_inputs(field):
    R = _lex_ring(field)
    assert _basis(_handle(R, "X - Y^3", "Y - Z^3")) == {
        parse_polynomial(R, "X - Z^9"), parse_polynomial(R, "Y - Z^3")}
    assert _basis(_handle(R, "X - Y^15", "Y - Z^15")) == {
        parse_polynomial(R, "X - Z^225"), parse_polynomial(R, "Y - Z^15")}


@pytest.mark.parametrize("field", FIELDS, ids=str)
def test_width_normal_form_of_large_input(field):
    R = RingDescriptor(("X", "Y"), field)
    gb = _handle(R, "X^2 - Y").groebner_basis()
    assert gb.normal_form(parse_polynomial(R, "X^5000")) == \
        parse_polynomial(R, "Y^2500")
    # under lex the remainder's exponent outgrows the input's width
    L = _lex_ring(field, ("X", "Y"))
    gb = _handle(L, "X - Y^4").groebner_basis()
    assert gb.normal_form(parse_polynomial(L, "X^5000")) == \
        parse_polynomial(L, "Y^20000")
    assert gb.reduces_to_zero(parse_polynomial(L, "X^5000 - Y^20000"))


@pytest.mark.parametrize("field", FIELDS, ids=str)
def test_width_exponents_on_powers_of_two(field):
    R = _lex_ring(field)
    for k in (2, 3, 4, 5):
        for a in (2 ** k - 1, 2 ** k):
            for b in (2 ** k - 1, 2 ** k):
                H = _handle(R, f"X - Y^{a}", f"Y - Z^{b}")
                assert _basis(H) == {parse_polynomial(R, f"X - Z^{a * b}"),
                                     parse_polynomial(R, f"Y - Z^{b}")}
                gb = H.groebner_basis()
                assert gb.normal_form(parse_polynomial(R, f"X^{b} + Y")) == \
                    parse_polynomial(R, f"Z^{a * b * b} + Z^{b}")


@pytest.mark.parametrize("field", FIELDS, ids=str)
def test_width_elimination_grows_past_inputs(field):
    # A is prime and X is not in it, so A cap (X) = X*A and X*A : X = A.
    # The elimination bases reach Z^225; the inputs stop at exponent 15.
    R = _lex_ring(field)
    A = _handle(R, "X - Y^15", "Y - Z^15")
    X = _handle(R, "X")
    XA = A.times(parse_polynomial(R, "X"))
    assert A.intersect(X).equals(XA)
    assert XA.colon(X).equals(A)
    assert _basis(XA.colon(X)) == {parse_polynomial(R, "X - Z^225"),
                                   parse_polynomial(R, "Y - Z^15")}
