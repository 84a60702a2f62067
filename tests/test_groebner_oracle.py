"""Reduced Groebner bases, intersections and colons checked against sympy
on random small ideals.

sympy shares no code with rrlab, so agreement on the reduced basis (which is
unique for a given ideal and order) checks the whole Buchberger path: pair
selection, normal forms and autoreduction.  Intersections and colons are
checked the same way, each side computed by its own elimination.  Skipped
when sympy or hypothesis is not installed; rrlab itself needs neither.
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


def _ring(problem):
    order = MonomialOrder(problem["kind"], problem["priority"])
    return RingDescriptor([f"x{i}" for i in range(problem["nvars"])],
                          Field(problem["characteristic"]), order)


def _handle(ring, gens):
    return IdealHandle(ring, [
        Polynomial(ring, {e: ring.field.from_int(c) for e, c in g.items()})
        for g in gens])


def _rrlab_reduced(handle, problem):
    """The reduced basis of handle in its ring's order, normalized."""
    p = problem["characteristic"]
    order = handle.ring.order
    key = order.key
    basis = set()
    for g in handle.groebner_basis(order).polynomials:
        terms = {e: (c.residue if p else c) for e, c in g.terms.items()}
        basis.add(_monic(terms, key, p))
    return basis


def _rrlab_basis(problem):
    return _rrlab_reduced(_handle(_ring(problem), problem["gens"]), problem)


def _symbols(problem):
    return sympy.symbols(f"x0:{problem['nvars']}")


def _exprs(gens, xs):
    return [sum(c * sympy.prod(x ** k for x, k in zip(xs, e)) for e, c in g.items())
            for g in gens]


def _modulus(problem):
    p = problem["characteristic"]
    return {"modulus": p} if p else {}


def _sympy_reduced(exprs, problem):
    """sympy's reduced basis of exprs in the problem's order, normalized."""
    p = problem["characteristic"]
    xs = _symbols(problem)
    # sympy orders its generators largest first, like rrlab's priority.
    gens_sorted = [xs[i] for i in problem["priority"]]
    G = sympy.groebner(exprs, *gens_sorted, order=problem["kind"],
                       **_modulus(problem))
    key = MonomialOrder(problem["kind"], problem["priority"]).key
    basis = set()
    for g in G.exprs:
        poly = sympy.Poly(g, *xs, **_modulus(problem))
        terms = {e: (int(c) if p else Fraction(int(c.p), int(c.q)))
                 for e, c in poly.terms()}
        basis.add(_monic(terms, key, p))
    return basis


def _sympy_basis(problem):
    return _sympy_reduced(_exprs(problem["gens"], _symbols(problem)), problem)


@settings(max_examples=100, deadline=None, database=None, derandomize=True)
@given(_problems())
def test_reduced_basis_matches_sympy(problem):
    assert _rrlab_basis(problem) == _sympy_basis(problem)


@st.composite
def _pairs(draw):
    """Two small ideals A and B of a 2-variable ring, in the form of
    _problems, with B's generators under "others"."""
    exps = st.tuples(st.integers(0, 2), st.integers(0, 2)).filter(
        lambda e: sum(e) <= 2)
    poly = st.dictionaries(exps, st.integers(-3, 3).filter(bool),
                           min_size=1, max_size=3)
    return {
        "nvars": 2,
        "characteristic": draw(st.sampled_from((0, MODULUS))),
        "kind": draw(st.sampled_from(("lex", "grlex", "grevlex"))),
        "priority": tuple(draw(st.permutations(range(2)))),
        "gens": draw(st.lists(poly, min_size=1, max_size=2)),
        "others": draw(st.lists(poly, min_size=1, max_size=2)),
    }


def _nonzero(problem, key):
    """The problem's generator list, or None when it reduces to zero in
    its field (an ideal operation on the zero ideal is not in question)."""
    p = problem["characteristic"]
    gens = [g for g in problem[key]
            if not p or any(c % p for c in g.values())]
    return gens or None


def _sympy_intersect(A, B, problem):
    """A cap B by sympy's own lex elimination of t from t*A + (1 - t)*B."""
    t = sympy.Symbol("t")
    G = sympy.groebner([t * a for a in A] + [(1 - t) * b for b in B],
                       t, *_symbols(problem), order="lex", **_modulus(problem))
    return [g for g in G.exprs if not g.has(t)]


def _sympy_colon(A, B, problem):
    """A : B, the intersection over b in B of (A cap (b)) / b."""
    xs = _symbols(problem)
    result = None
    for b in B:
        part = [sympy.div(g, b, *xs, **_modulus(problem))[0]
                for g in _sympy_intersect(A, [b], problem)]
        result = part if result is None else _sympy_intersect(result, part, problem)
    return result


@settings(max_examples=100, deadline=None, database=None, derandomize=True)
@given(_pairs())
def test_intersection_matches_sympy(problem):
    A, B = _nonzero(problem, "gens"), _nonzero(problem, "others")
    hypothesis.assume(A and B)
    ring, xs = _ring(problem), _symbols(problem)
    ours = _handle(ring, A).intersect(_handle(ring, B))
    theirs = _sympy_intersect(_exprs(A, xs), _exprs(B, xs), problem)
    assert _rrlab_reduced(ours, problem) == _sympy_reduced(theirs, problem)


@settings(max_examples=100, deadline=None, database=None, derandomize=True)
@given(_pairs())
def test_colon_matches_sympy(problem):
    A, B = _nonzero(problem, "gens"), _nonzero(problem, "others")
    hypothesis.assume(A and B)
    ring, xs = _ring(problem), _symbols(problem)
    ours = _handle(ring, A).colon(_handle(ring, B))
    theirs = _sympy_colon(_exprs(A, xs), _exprs(B, xs), problem)
    assert _rrlab_reduced(ours, problem) == _sympy_reduced(theirs, problem)



def test_lex_intersection_regression_matches_sympy():
    """The lex intersection pinned in tests/test_groebner.py, whose QQ
    coefficients once exploded, in both orders: its reduced basis is
    sympy's."""
    problem = {"nvars": 2, "characteristic": 0, "kind": "lex",
               "priority": (0, 1)}
    A = [{(3, 0): 3, (2, 1): 3}, {(1, 2): 2, (1, 1): 1, (0, 1): -2}]
    B = [{(3, 0): -3}, {(0, 3): 2, (0, 1): 2, (0, 0): 2}]
    ring, xs = _ring(problem), _symbols(problem)
    theirs = _sympy_reduced(
        _sympy_intersect(_exprs(A, xs), _exprs(B, xs), problem), problem)
    assert len(theirs) == 3
    for first, second in ((A, B), (B, A)):
        ours = _handle(ring, first).intersect(_handle(ring, second))
        assert _rrlab_reduced(ours, problem) == theirs


# Fixed systems large enough for every pair criterion of the Gebauer-Moeller
# update, which the random draws above are too small to reach.  On all of
# them criteria M and F drop most new pairs.  Criterion B_k drops open pairs
# and new leading terms prune the pairing elements on katsura-3 in lex,
# cyclic-4 in lex and cyclic-5 in grevlex (over QQ and F_7); in grevlex,
# cyclic-4 and the cubed prime reach neither.
CYCLIC4 = ["x0 + x1 + x2 + x3", "x0*x1 + x1*x2 + x2*x3 + x3*x0",
           "x0*x1*x2 + x1*x2*x3 + x2*x3*x0 + x3*x0*x1", "x0*x1*x2*x3 - 1"]
CYCLIC5 = ["x0 + x1 + x2 + x3 + x4",
           "x0*x1 + x1*x2 + x2*x3 + x3*x4 + x4*x0",
           "x0*x1*x2 + x1*x2*x3 + x2*x3*x4 + x3*x4*x0 + x4*x0*x1",
           "x0*x1*x2*x3 + x1*x2*x3*x4 + x2*x3*x4*x0 + x3*x4*x0*x1"
           " + x4*x0*x1*x2",
           "x0*x1*x2*x3*x4 - 1"]
KATSURA3 = ["x0 + 2*x1 + 2*x2 + 2*x3 - 1",
            "x0**2 + 2*x1**2 + 2*x2**2 + 2*x3**2 - x0",
            "2*x0*x1 + 2*x1*x2 + 2*x2*x3 - x1",
            "x1**2 + 2*x0*x2 + 2*x1*x3 - x2"]
# EX-3.5's height-two prime (X^3 - Y*Z, Y^2 - X*Z, Z^2 - X^2*Y), cubed
PRIME = ["x0**3 - x1*x2", "x1**2 - x0*x2", "x2**2 - x0**2*x1"]
PRIME_CUBED = [f"({a})*({b})*({c})"
               for i, a in enumerate(PRIME) for j, b in enumerate(PRIME[i:], i)
               for c in PRIME[j:]]


def _system(texts, nvars, characteristic, kind):
    """A problem in the form of _problems from sympy-syntax generators."""
    xs = sympy.symbols(f"x0:{nvars}")
    gens = [{e: int(c) for e, c in sympy.Poly(sympy.sympify(t), *xs).terms()}
            for t in texts]
    return {"nvars": nvars, "characteristic": characteristic, "kind": kind,
            "priority": tuple(range(nvars)), "gens": gens}


@pytest.mark.parametrize("texts, nvars, characteristic, kind", [
    (CYCLIC4, 4, 0, "grevlex"),
    (CYCLIC4, 4, MODULUS, "grevlex"),
    (CYCLIC4, 4, 0, "lex"),
    (CYCLIC5, 5, 0, "grevlex"),
    (CYCLIC5, 5, MODULUS, "grevlex"),
    (KATSURA3, 4, 0, "lex"),
    (PRIME_CUBED, 3, 0, "grevlex"),
], ids=["cyclic4-QQ", "cyclic4-F7", "cyclic4-lex", "cyclic5-QQ", "cyclic5-F7",
        "katsura3-lex", "ex35-prime-cubed"])
def test_fixed_system_matches_sympy(texts, nvars, characteristic, kind):
    problem = _system(texts, nvars, characteristic, kind)
    assert _rrlab_basis(problem) == _sympy_basis(problem)
