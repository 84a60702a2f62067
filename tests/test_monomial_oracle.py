"""Monomial kernels checked against brute force on random small ideals.

The oracles share no code with rrlab.monomial:

- ``minimalize`` against the pairwise definition: keep each distinct
  candidate that no other candidate divides;
- ``colon_single``, ``colon_monomial`` and ``intersect_monomial`` against
  enumeration of a box: m lies in A : B iff m*b lies in A for every
  generator b of B, and in A ∩ B iff it lies in both.

The box is the product, over the coordinates, of the values that can matter
there: 0, every exponent of A, B and the result, and every positive
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

from rrlab.core import RingDescriptor  # noqa: E402
from rrlab.monomial import (MonomialIdeal, colon_monomial, colon_single,  # noqa: E402
                            intersect_monomial, minimalize)

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

