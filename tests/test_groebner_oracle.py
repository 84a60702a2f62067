"""Reduced Groebner bases checked against sympy on random small ideals.

sympy shares no code with rrlab, so agreement on the reduced basis (which is
unique for a given ideal and order) checks the whole Buchberger path: pair
selection, normal forms and autoreduction.  Skipped when sympy or hypothesis
is not installed; rrlab itself needs neither.
"""

from fractions import Fraction

import pytest

sympy = pytest.importorskip("sympy")
hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from rrlab.core import Field, MonomialOrder, Polynomial, RingDescriptor  # noqa: E402
from rrlab.groebner import IdealHandle  # noqa: E402

MODULUS = 7


@st.composite
def _problems(draw):
    nvars = draw(st.integers(2, 3))
    exps = st.tuples(*[st.integers(0, 3)] * nvars).filter(lambda e: sum(e) <= 3)
    poly = st.dictionaries(exps, st.integers(-3, 3).filter(bool),
                           min_size=1, max_size=4)
    gens = draw(st.lists(poly, min_size=1, max_size=3))
    return {
        "nvars": nvars,
        "characteristic": draw(st.sampled_from((0, MODULUS))),
        "kind": draw(st.sampled_from(("lex", "grlex", "grevlex"))),
        "priority": tuple(draw(st.permutations(range(nvars)))),
        "gens": gens,
    }


def _monic(terms, key, characteristic):
    """Term dict with coefficients as Fractions or residues, leading one 1."""
    if characteristic:
        terms = {e: c % characteristic for e, c in terms.items()}
        inv = pow(terms[max(terms, key=key)], -1, characteristic)
        return frozenset((e, c * inv % characteristic) for e, c in terms.items() if c)
    lc = terms[max(terms, key=key)]
    return frozenset((e, Fraction(c) / lc) for e, c in terms.items())


def _rrlab_basis(problem):
    nvars, p = problem["nvars"], problem["characteristic"]
    ring = RingDescriptor([f"x{i}" for i in range(nvars)], Field(p))
    order = MonomialOrder(problem["kind"], problem["priority"])
    gens = [Polynomial(ring, {e: ring.field.from_int(c) for e, c in g.items()})
            for g in problem["gens"]]
    key = order.key_function(nvars)
    basis = set()
    for g in IdealHandle(ring, gens).groebner_basis(order).polynomials:
        terms = {e: (c.residue if p else c) for e, c in g.terms.items()}
        basis.add(_monic(terms, key, p))
    return basis


def _sympy_basis(problem):
    nvars, p = problem["nvars"], problem["characteristic"]
    xs = sympy.symbols(f"x0:{nvars}")
    # sympy orders its generators largest first, like rrlab's priority.
    gens_sorted = [xs[i] for i in problem["priority"]]
    exprs = [sum(c * sympy.prod(x ** k for x, k in zip(xs, e)) for e, c in g.items())
             for g in problem["gens"]]
    opts = {"order": problem["kind"]}
    if p:
        opts["modulus"] = p
    G = sympy.groebner(exprs, *gens_sorted, **opts)
    key = MonomialOrder(problem["kind"], problem["priority"]).key_function(nvars)
    basis = set()
    for g in G.exprs:
        poly = sympy.Poly(g, *xs, **({"modulus": p} if p else {}))
        terms = {e: (int(c) if p else Fraction(int(c.p), int(c.q)))
                 for e, c in poly.terms()}
        basis.add(_monic(terms, key, p))
    return basis


@settings(max_examples=100, deadline=None, database=None, derandomize=True)
@given(_problems())
def test_reduced_basis_matches_sympy(problem):
    assert _rrlab_basis(problem) == _sympy_basis(problem)
