"""Monomial kernels checked against brute force on random small ideals.

The oracles share no code with rrlab.monomial:

- ``minimalize`` against the pairwise definition: keep each distinct
  candidate that no other candidate divides;
- ``colon_single``, ``colon_monomial`` and ``intersect_monomial`` against
  enumeration of a box: m lies in A : B iff m*b lies in A for every
  generator b of B, and in A ∩ B iff it lies in both;
- ``colon_monomial`` with a floor F against the same box, where m lies in
  (A : B) + F iff it lies in F or in A : B, and against the plain colon
  plus F;
- the closure chains, whose steps pass the running value as the floor,
  against a reference chain written here with the plain colon.

The box is the product, over the coordinates, of the values that can matter
there: 0, every exponent of A, B, F and the result, and every positive
difference a_i - b_i.  The minimal generators of the true answer and of the
computed one all have their coordinates among these values, so each one is a
point of the box, and two monomial ideals that agree on the box are equal.
With small exponents the box is a subset of the full box [0, top]^d; with
wide ones it stays small.  Skipped when hypothesis is not installed; rrlab
itself does not need it.
"""

from itertools import product

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from rrlab.core import Monomial, RingDescriptor  # noqa: E402
from rrlab.monomial import (MonomialIdeal, colon_monomial, colon_single,  # noqa: E402
                            intersect_monomial, minimalize)
from rrlab.ratliff_rush import (BoundReached, ClosureConfig, FailsAt,  # noqa: E402
                                Holds, StabilizedWindow, is_rr_closed,
                                rr_closure_via_reduction, rr_power)
from rrlab.reductions import is_reduction  # noqa: E402

# Largest exponent drawn per number of variables, so the box stays within
# about 1700 points.  One and two variables reach past the field widths
# 8, 9 and 10 that exponents 127, 128, 255 and 256 need.
TOP = {1: 300, 2: 40, 3: 10, 4: 5, 5: 3}


def _divides(a, b):
    return all(x <= y for x, y in zip(a, b))


def _in(gens, m):
    return any(_divides(g, m) for g in gens)


def _ring(nvars):
    return RingDescriptor([f"x{i}" for i in range(nvars)])


def _box(nvars, A, B, result):
    axes = []
    for i in range(nvars):
        values = {0}
        values.update(g[i] for g in A + B + result)
        values.update(a[i] - b[i] for a in A for b in B if a[i] > b[i])
        axes.append(sorted(values))
    return product(*axes)


def _check_generators(result):
    assert list(result) == sorted(set(result))
    for g in result:
        assert not any(h != g and _divides(h, g) for h in result)


def _check_colon(A, B, result):
    _check_generators(result)
    for m in _box(len(A[0]), A, B, result):
        expected = all(_in(A, tuple(x + y for x, y in zip(m, b))) for b in B)
        assert _in(result, m) == expected, m


def _check_floor_colon(A, B, F):
    """colon_monomial(A, B, floor=F) is (A : B) + F, and F itself exactly
    when A : B adds nothing to F."""
    plain = colon_monomial(A, B)
    got = colon_monomial(A, B, floor=F)
    assert got.gens == (plain + F).gens
    assert (got is F) == F.contains_ideal(plain)
    _check_generators(got.gens)
    for m in _box(len(A.gens[0]), A.gens, B.gens, got.gens + F.gens):
        expected = _in(F.gens, m) or all(
            _in(A.gens, tuple(x + y for x, y in zip(m, b))) for b in B.gens)
        assert _in(got.gens, m) == expected, m


def _check_intersection(A, B, result):
    _check_generators(result)
    for m in _box(len(A[0]), A, B, result):
        assert _in(result, m) == (_in(A, m) and _in(B, m)), m


def _check_all(A_gens, B_gens):
    ring = _ring(len(A_gens[0]))
    A = MonomialIdeal.from_gens(ring, A_gens)
    B = MonomialIdeal.from_gens(ring, B_gens)
    _check_colon(A.gens, B.gens, colon_monomial(A, B).gens)
    _check_intersection(A.gens, B.gens, intersect_monomial(A, B).gens)
    for b in B_gens:
        _check_colon(A.gens, (b,), colon_single(A, b).gens)


@st.composite
def _gen_lists(draw, nvars, max_size):
    exps = st.tuples(*[st.integers(0, TOP[nvars])] * nvars)
    return draw(st.lists(exps, min_size=1, max_size=max_size))


@st.composite
def _pairs(draw):
    nvars = draw(st.integers(1, 5))
    return draw(_gen_lists(nvars, 4)), draw(_gen_lists(nvars, 3))


@st.composite
def _floor_triples(draw):
    """(A, B, F): F random (so usually not inside A : B), the unit ideal,
    A itself, A : B itself, or generated by part of A : B."""
    nvars = draw(st.integers(1, 5))
    ring = _ring(nvars)
    A = MonomialIdeal.from_gens(ring, draw(_gen_lists(nvars, 4)))
    B = MonomialIdeal.from_gens(ring, draw(_gen_lists(nvars, 3)))
    kind = draw(st.sampled_from(["random", "unit", "A", "colon", "part"]))
    if kind == "random":
        F = MonomialIdeal.from_gens(ring, draw(_gen_lists(nvars, 3)))
    elif kind == "unit":
        F = MonomialIdeal.from_gens(ring, [(0,) * nvars])
    elif kind == "A":
        F = A
    else:
        C = colon_monomial(A, B).gens
        part = C if kind == "colon" else draw(
            st.lists(st.sampled_from(C), min_size=1, max_size=len(C)))
        F = MonomialIdeal.from_gens(ring, part)
    return A, B, F


@settings(max_examples=150, deadline=None, database=None, derandomize=True)
@given(st.integers(1, 5).flatmap(lambda n: _gen_lists(n, 12)))
def test_minimalize_matches_pairwise_definition(cands):
    distinct = set(cands)
    expected = sorted(c for c in distinct
                      if not any(d != c and _divides(d, c) for d in distinct))
    assert list(minimalize(cands)) == expected
    assert list(minimalize(iter(cands))) == expected


@settings(max_examples=150, deadline=None, database=None, derandomize=True)
@given(_pairs())
def test_colon_and_intersection_match_box_enumeration(pair):
    _check_all(*pair)


@settings(max_examples=200, deadline=None, database=None, derandomize=True)
@given(_floor_triples())
def test_floor_colon_matches_box_enumeration(triple):
    _check_floor_colon(*triple)


# Fixed cases at the edges of the packed field width, w = bit_length(top) + 1:
# tops 127 | 128 and 255 | 256 change w; 0 and 1 are the smallest fields.
EDGE_CASES = [
    # exponents 0, 1, 127, 128, 255, 256 on both sides
    ([(256, 0), (128, 127), (1, 255), (0, 256)], [(127, 1), (1, 128)]),
    ([(255, 0, 1), (127, 128, 0), (0, 1, 256)], [(128, 127, 0), (1, 0, 255)]),
    ([(127, 127), (128, 0)], [(127, 0), (0, 127)]),
    ([(255, 255)], [(255, 0), (0, 255), (128, 128)]),
    # B's exponents need a wider field than A's
    ([(3, 1), (1, 2)], [(256, 0), (0, 255)]),
    ([(2, 5, 1)], [(300, 1, 0), (0, 0, 129)]),
    ([(1, 1, 1, 1, 1)], [(128, 0, 0, 0, 0), (0, 0, 0, 0, 256)]),
    # one variable
    ([(5,)], [(3,)]),
    ([(128,)], [(127,)]),
    ([(255,)], [(256,)]),
    ([(0,)], [(256,)]),
    # single generators and the unit ideal
    ([(0, 0, 0)], [(4, 0, 2)]),
    ([(0, 0)], [(0, 0)]),
    ([(256, 1, 0), (0, 127, 128)], [(256, 1, 0), (0, 127, 128)]),
    ([(7, 3)], [(2, 9)]),
    ([(1, 0), (0, 1)], [(1, 1)]),
]


@pytest.mark.parametrize("A_gens,B_gens", EDGE_CASES)
def test_field_width_edges(A_gens, B_gens):
    _check_all(A_gens, B_gens)
    _check_all(B_gens, A_gens)


def _edge_floors(A_gens, B_gens):
    nvars = len(A_gens[0])
    wide = [tuple(256 if i == j else 0 for i in range(nvars)) for j in range(nvars)]
    return [A_gens, B_gens, [(0,) * nvars], wide, [(128,) * nvars],
            [(1,) * nvars]]


@pytest.mark.parametrize("A_gens,B_gens", EDGE_CASES)
def test_floor_colon_field_width_edges(A_gens, B_gens):
    ring = _ring(len(A_gens[0]))
    A = MonomialIdeal.from_gens(ring, A_gens)
    B = MonomialIdeal.from_gens(ring, B_gens)
    for F_gens in _edge_floors(A_gens, B_gens):
        F = MonomialIdeal.from_gens(ring, F_gens)
        _check_floor_colon(A, B, F)
        _check_floor_colon(B, A, F)


# ---------------------------------------------------------------------------
# closure chains against a reference chain on the plain colon


def _reference_chain(start, colons, cfg):
    """The ascending chain driver, written out: union colons(k) into start
    until cfg.window consecutive steps add nothing."""
    acc, growth, quiet = start, [], 0
    for k in range(1, cfg.k_max + 1):
        cand = colons(k)
        if acc.contains_ideal(cand):
            quiet += 1
            if quiet >= cfg.window:
                return acc.gens, StabilizedWindow(k, cfg.window), tuple(growth)
        else:
            acc = acc + cand
            growth.append(k)
            quiet = 0
    return acc.gens, BoundReached(cfg.k_max), tuple(growth)


def _reference_is_rr_closed(I, cfg):
    for k in range(1, cfg.k_max + 1):
        cand = colon_monomial(I.power(1 + k), I.power(k))
        outside = [g for g in cand.gens if not I.contains(g)]
        if outside:
            return FailsAt(k, Monomial(I.ring, outside[0]))
    return Holds(cfg.k_max)


def _chain_results(result):
    return result.value.gens, result.status, result.growth_steps


@st.composite
def _chain_ideals(draw):
    """Small ideals in two or three variables; in two, also the family
    (X^a, X^(a-1)*Y, X*Y^(b-1), Y^b), whose chains often grow, and whose
    pure powers are a reduction when a = b."""
    nvars = draw(st.integers(2, 3))
    if nvars == 2 and draw(st.booleans()):
        a = draw(st.integers(3, 7))
        b = draw(st.one_of(st.just(a), st.integers(3, 7)))
        gens = [(a, 0), (a - 1, 1), (1, b - 1), (0, b)]
    else:
        top = 6 if nvars == 2 else 3
        exps = st.tuples(*[st.integers(0, top)] * nvars).filter(any)
        gens = draw(st.lists(exps, min_size=1, max_size=4))
    return MonomialIdeal.from_gens(_ring(nvars), gens)


@settings(max_examples=60, deadline=None, database=None, derandomize=True)
@given(_chain_ideals(), st.integers(1, 2), st.integers(2, 3))
def test_chains_match_plain_colon_reference(I, n, window):
    cfg = ClosureConfig(k_max=6, window=window, n_max=4)

    def power_colons(k):
        return colon_monomial(I.power(n + k), I.power(k))

    # the pure powers among I's generators when they form a reduction of
    # I, else I itself, which always does
    pure = [g for g in I.gens if sum(map(bool, g)) == 1]
    J = MonomialIdeal.from_gens(I.ring, pure) if pure else I
    if not isinstance(is_reduction(I, J, cfg.n_max), Holds):
        J = I

    def reduction_colons(k):
        return colon_monomial(I.power(n + k), MonomialIdeal.from_gens(
            I.ring, [tuple(k * x for x in g) for g in J.gens]))

    assert _chain_results(rr_power(I, n, cfg)) == _reference_chain(
        I.power(n), power_colons, cfg)
    assert _chain_results(rr_closure_via_reduction(I, J, n, cfg)) == \
        _reference_chain(I.power(n), reduction_colons, cfg)
    assert is_rr_closed(I, cfg) == _reference_is_rr_closed(I, cfg)
