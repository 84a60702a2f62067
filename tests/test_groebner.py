"""Basis computation checked against independent oracles.

Membership answers are cross-validated by bounded-degree linear algebra on
explicit generator combinations, and colon/intersection outputs are checked
against their defining properties.
"""

import random
import time
from fractions import Fraction

import pytest

from rrlab.core import (Field, MonomialOrder, Polynomial, PrimeFieldElement,
                        QQ, RingDescriptor)
from rrlab.errors import ResourceLimitError, RingMismatchError
from rrlab import groebner
from rrlab.groebner import IdealHandle
from rrlab.monomial import MonomialIdeal
from rrlab.parser import parse_polynomial
from rrlab.ratliff_rush import (ClosureConfig, FailsAt, StabilizedWindow,
                                is_rr_closed, rr_closure)


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
        assert L.contains(g.sorted_terms()[0][0])


def test_quotient_ring_relations_vanish():
    base = RingDescriptor(("X", "Z", "U"))
    R = base.with_quotient([parse_polynomial(base, t)
                            for t in ("Z^2", "Z*U", "X*Z - U^3")])
    H = IdealHandle(R, [parse_polynomial(R, "X")])
    # U^3 == X*Z in the quotient, so U^3 lies in (X).
    assert H.contains(parse_polynomial(R, "U^3"))
    zero_h = IdealHandle(R, [parse_polynomial(R, "Z^2")])
    assert zero_h.is_zero()


def test_polynomial_ring_handle_is_zero_only_without_generators():
    R = _ring()
    assert IdealHandle(R, []).is_zero()
    assert _handle(R, "X - X").is_zero()
    assert not _handle(R, "X").is_zero()


def test_monomial_round_trip():
    R = _ring()
    I = MonomialIdeal.from_gens(R, [(4, 0), (3, 1), (1, 3), (0, 4)])
    H = IdealHandle.from_monomial(I)
    assert H.to_monomial_ideal() == I


def test_colon_eliminates_only_where_membership_cannot_settle(monkeypatch):
    # A colon by a further generator b skips its elimination when every
    # generator of the running colon multiplies b into A.  On this handle
    # the closure chain makes 3 eliminations and its first step 1, where
    # eliminating for every generator makes 9 and 7.
    calls = []
    raw = IdealHandle._intersect_raw

    def counted(self, b_side):
        calls.append(b_side)
        return raw(self, b_side)

    monkeypatch.setattr(IdealHandle, "_intersect_raw", counted)
    R = _ring()
    gens = ("X^4", "X^3*Y", "X*Y^3", "Y^4")
    res = rr_closure(_handle(R, *gens), ClosureConfig(k_max=4, window=2))
    assert len(calls) == 3
    assert (res.status, res.growth_steps) == (StabilizedWindow(3, 2), (1,))
    assert str(res.value) == "(X^4, X^3*Y, X*Y^3, Y^4, X^2*Y^2)"
    calls.clear()
    verdict = is_rr_closed(_handle(R, *gens), ClosureConfig(k_max=2, window=2))
    assert len(calls) == 1
    assert verdict == FailsAt(1, parse_polynomial(R, "X^2*Y^2"))


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


# -- pair order under lex -----------------------------------------------------
#
# Pairs taken by least total degree let QQ coefficients explode on this
# lex intersection: it ran past 40 s in either order.  In term order each
# order takes a few hundredths of a second.

LEX_A = ("3*X^2*Y + 3*X^3", "2*X*Y^2 - 2*Y + X*Y")
LEX_B = ("-3*X^3", "2*Y^3 + 2 + 2*Y")
LEX_A_CAP_B = [
    "Y^6 + 1/2*Y^5 + 2*Y^4 + 3/2*Y^3 + 3/2*Y^2 + Y",
    "X*Y^4 + X*Y^2 + X*Y + Y^5 + Y^3 + Y^2",
    "X^3 - 4/17*Y^5 - 12/17*Y^4 - 4/17*Y^3 - 16/17*Y^2 - 12/17*Y",
]


@pytest.mark.parametrize("first, second", [(LEX_A, LEX_B), (LEX_B, LEX_A)],
                         ids=["A-cap-B", "B-cap-A"])
def test_lex_intersection_over_qq_in_term_order(first, second):
    R = _lex_ring(QQ, ("X", "Y"))
    start = time.perf_counter()
    C = _handle(R, *first).intersect(_handle(R, *second))
    assert [str(g) for g in C.groebner_basis().polynomials] == LEX_A_CAP_B
    assert time.perf_counter() - start < 5.0


# -- coefficients -------------------------------------------------------------
#
# A QQ coefficient is an int while it is integral and a Fraction only when it
# is not; an F_p coefficient is a PrimeFieldElement.  Equal values print
# alike whatever their type.

def test_coefficients_hold_one_format_per_field():
    R = _ring()
    H = _handle(R, "2*X - Y", "3*Y^2 - X")
    assert {type(c) for g in H.gens for c in g.terms.values()} == {int}
    basis = H.groebner_basis().polynomials
    assert [str(g) for g in basis] == ["X - 1/2*Y", "Y^2 - 1/6*Y"]
    lex = H.groebner_basis(MonomialOrder("lex", (1, 0))).polynomials
    assert [g.terms for g in lex] == [
        {(2, 0): 1, (1, 0): Fraction(-1, 12)}, {(0, 1): 1, (1, 0): -2}]
    assert [str(g) for g in lex] == ["X^2 - 1/12*X", "-2*X + Y"]
    nf = H.groebner_basis().normal_form(parse_polynomial(R, "2*X"))
    assert nf.terms == {(0, 1): 1}
    colon = H.colon_element(parse_polynomial(R, "Y"))
    assert [str(g) for g in colon.gens] == ["Y - 1/6", "X - 1/12"]
    cap = H.intersect(_handle(R, "X"))
    assert [str(g) for g in cap.gens] == ["X*Y - 1/6*X", "X^2 - 1/12*X"]
    coefficients = [c for f in (*basis, *lex, nf, *colon.gens, *cap.gens)
                    for c in f.terms.values()]
    integral = [c for c in coefficients if c == int(c)]
    assert {type(c) for c in integral} == {int}
    assert 1 in integral and -2 in integral
    fractional = [c for c in coefficients if c != int(c)]
    assert {type(c) for c in fractional} == {Fraction}
    assert Fraction(-1, 12) in fractional and Fraction(-1, 2) in fractional
    assert type(QQ.from_int(3)) is int
    # a Polynomial built from integral Fractions gives an int basis
    given = Polynomial(R, {(1, 0): Fraction(1), (0, 0): Fraction(-2)})
    (g,) = IdealHandle(R, [given]).groebner_basis().polynomials
    assert str(g) == "X - 2" and {type(c) for c in g.terms.values()} == {int}
    F7 = RingDescriptor(("X", "Y"), Field(7))
    basis = _handle(F7, "2*X - Y", "3*Y^2 - X").groebner_basis().polynomials
    assert [str(g) for g in basis] == ["X + 3*Y", "Y^2 + Y"]
    assert {type(c) for g in basis for c in g.terms.values()} \
        == {PrimeFieldElement}


def test_monic_keeps_an_element_whose_leading_residue_is_one():
    one, three = PrimeFieldElement(1, 7), PrimeFieldElement(3, 7)
    g = {9: one, 4: three}
    assert groebner._monic(g) is g
    h = groebner._monic({9: three, 4: one})
    assert h == {9: one, 4: PrimeFieldElement(5, 7)}


def test_product_of_equal_values_of_both_types_is_one_generator():
    # 2 and Fraction(2) are one coefficient: the product X * (2*Y) made
    # from either is one generator, and it prints as 2*X*Y.
    R = _ring()
    X, Y = R.variable("X"), R.variable("Y")
    with_int = Polynomial(R, {(0, 1): 2})
    with_fraction = Polynomial(R, {(0, 1): Fraction(2)})
    P = IdealHandle(R, [X]) * IdealHandle(R, [with_int, with_fraction])
    assert [str(g) for g in P.gens] == ["2*X*Y"]
    assert P.gens[0] == X * (Y + Y)


def test_handle_membership_checks_the_ring():
    # The handle (X, Z, U) of QQ[X, Z, U] / (Z^2, Z*U, X*Z - U^3) does not
    # contain a variable of another ring: membership refuses it, as the
    # normal form does.
    base = RingDescriptor(("X", "Z", "U"))
    R = base.with_quotient([parse_polynomial(base, t)
                            for t in ("Z^2", "Z*U", "X*Z - U^3")])
    H = _handle(R, "X", "Z", "U")
    A = RingDescriptor(("A", "B", "C")).variable("A")
    for probe in (H.contains, H.groebner_basis().normal_form,
                  H.groebner_basis().reduces_to_zero):
        with pytest.raises(RingMismatchError):
            probe(A)
    assert H.contains(parse_polynomial(R, "X"))


def test_principal_colon_returns_the_reduced_basis():
    # A colon by one generator is read off the same reduced basis as one by
    # two generators that span the same ideal, so both print alike.
    R = _ring()
    A = _handle(R, "X^3 + Y^2", "X*Y^2 - Y^3")
    b = parse_polynomial(R, "X^2 + X*Y")
    principal = A.colon(IdealHandle(R, [b]))
    assert principal.gens == A.colon(
        IdealHandle(R, [b, parse_polynomial(R, "X") * b])).gens
    assert principal.gens == principal.groebner_basis().polynomials
