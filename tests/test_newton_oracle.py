"""The facet-based Newton polyhedron checked against an exact simplex.

`in_newton_polyhedron` and `integral_closure_monomial` decide membership by
integer dot products with the facets of the Newton polyhedron.  The oracle
here shares none of that code: it asks whether e = sum lambda_j g_j + slack
has a solution with lambda, slack >= 0 and sum lambda = 1, by an exact
phase-1 simplex over `Fraction`s, and it finds the integral closure by
testing every point of the box of I's largest exponents.
"""

import itertools
import math
import random
from fractions import Fraction

import pytest

from rrlab.core import RingDescriptor
from rrlab.monomial import (MonomialIdeal, in_newton_polyhedron,
                            integral_closure_monomial, newton_facets)


def _lp_feasible(rows, rhs):
    """Exact phase-1 simplex feasibility for rows * x = rhs, x >= 0."""
    m = len(rows)
    n = len(rows[0]) if m else 0
    # make rhs non-negative
    T = []
    b = []
    for row, r in zip(rows, rhs):
        if r < 0:
            T.append([-v for v in row])
            b.append(-r)
        else:
            T.append(list(row))
            b.append(r)
    # tableau with artificial variables; minimize their sum
    total = n + m
    basis = list(range(n, total))
    tab = [T[i] + [Fraction(1 if j == i else 0) for j in range(m)] + [b[i]]
           for i in range(m)]
    # phase-1 reduced costs: sum of rows over the original columns,
    # zero over the (basic) artificial columns
    cost = [sum((tab[i][j] for i in range(m)), Fraction(0)) if j < n
            else Fraction(0) for j in range(total)]
    cost.append(sum(b, Fraction(0)))
    while True:
        # Bland's rule: first column with positive reduced cost
        pivot_col = next((j for j in range(total) if cost[j] > 0), None)
        if pivot_col is None:
            break
        ratios = [(tab[i][total] / tab[i][pivot_col], basis[i], i)
                  for i in range(m) if tab[i][pivot_col] > 0]
        if not ratios:
            break  # unbounded (cannot happen in phase 1)
        _, _, pivot_row = min(ratios)
        pv = tab[pivot_row][pivot_col]
        tab[pivot_row] = [v / pv for v in tab[pivot_row]]
        for i in range(m):
            if i != pivot_row and tab[i][pivot_col]:
                f = tab[i][pivot_col]
                tab[i] = [a - f * b_ for a, b_ in zip(tab[i], tab[pivot_row])]
        if cost[pivot_col]:
            f = cost[pivot_col]
            cost = [a - f * b_ for a, b_ in zip(cost, tab[pivot_row])]
        basis[pivot_row] = pivot_col
    return cost[total] == 0


def newton_by_simplex(e, gens):
    """e in conv(gens) + R_{>=0}^d, by exact rational feasibility of
    lambda >= 0, slack >= 0, sum lambda = 1, sum lambda * g + slack = e."""
    d, n = len(e), len(gens)
    rows = [[Fraction(1)] * n + [Fraction(0)] * d]
    rhs = [Fraction(1)]
    for i in range(d):
        rows.append([Fraction(g[i]) for g in gens]
                    + [Fraction(int(j == i)) for j in range(d)])
        rhs.append(Fraction(e[i]))
    return _lp_feasible(rows, rhs)


def closure_by_simplex(I):
    """The integral closure of I: every point of the box of I's largest
    exponents outside I is tested with the simplex, none skipped."""
    box = [max(g[i] for g in I.gens) for i in range(I.ring.nvars)]
    found = list(I.gens)
    for e in itertools.product(*(range(b + 1) for b in box)):
        if not I.contains(e) and newton_by_simplex(e, I.gens):
            found.append(e)
    return MonomialIdeal.from_gens(I.ring, found)


def _ring(d):
    return RingDescriptor(("X", "Y", "Z", "W")[:d])


def _seeded_ideals(d, count, top):
    """Seeded ideals in d variables: the unit ideal, a one-generator ideal,
    then random mixes of pure powers and mixed generators, about half of
    them missing some pure power (not zero-dimensional)."""
    rng = random.Random(f"newton:{d}")
    yield ((0,) * d,)
    yield (tuple(rng.randint(1, top) for _ in range(d)),)
    for _ in range(count):
        gens = [tuple(rng.randint(1, top) if j == i else 0 for j in range(d))
                for i in range(d) if rng.random() < 0.75]
        gens += [tuple(rng.randint(0, top) for _ in range(d))
                 for _ in range(rng.randint(1, 3))]
        yield [g for g in gens if any(g)] or [(1,) * d]


CASES = [(d, gens) for d, count, top in ((2, 30, 7), (3, 20, 4), (4, 8, 3))
         for gens in _seeded_ideals(d, count, top)]


@pytest.mark.parametrize("d,gens", CASES)
def test_facets_match_the_simplex(d, gens):
    I = MonomialIdeal.from_gens(_ring(d), gens)
    box = [max(g[i] for g in I.gens) + 1 for i in range(d)]
    for e in itertools.product(*(range(b + 1) for b in box)):
        assert in_newton_polyhedron(e, I.gens) == newton_by_simplex(e, I.gens), e
    assert integral_closure_monomial(I).gens == closure_by_simplex(I).gens


@pytest.mark.parametrize("d,gens", CASES)
def test_facets_are_primitive(d, gens):
    """Each facet a·x >= b has d entries in a, a >= 0, b > 0, and no
    common divisor; the unit ideal has none."""
    facets = newton_facets(gens)
    assert bool(facets) == any(map(any, gens))
    for a, b in facets:
        assert len(a) == d and min(a) >= 0 < b and math.gcd(b, *a) == 1
