"""Plane affine-semigroup ideals against brute-force set definitions.

The oracle shares no code with rrlab.semigroup: a semigroup is the set of
sums of its generators, an ideal the set gens + S, and every operation the
set it is defined to be.  Every set is exact on a box [0, box]^2, because
the partial sums of a point in the box lie in the box.  The answers are
compared point by point on the window [0, window]^2, and the minimal
generators there with those rrlab reports, so every reported generator must
lie in the window.  The window reaches twice past the largest generator of
every operand and every result, at least MIN_WINDOW; a colon needs its
members' translates by generators of at most TOP, so the box reaches TOP
past the window.  Each semigroup is built by affine_ring, so one on a
single ray is a numerical semigroup; every point is read through the
ideal's element, and its generators are compared as pairs.
"""

import random
from itertools import product

import pytest

from rrlab.errors import PreconditionError
from rrlab.semigroup import (AffineIdeal, AffineSemigroup2D, SemigroupIdeal,
                             affine_ring)

TOP = 8  # the largest coordinate of a drawn ideal generator
MIN_WINDOW = 24


def _add(p, q):
    return (p[0] + q[0], p[1] + q[1])


def _sums(gens, box):
    """The sums of gens ((0, 0) included) inside the box."""
    reach, frontier = {(0, 0)}, [(0, 0)]
    while frontier:
        p = frontier.pop()
        for g in gens:
            q = _add(p, g)
            if q[0] <= box and q[1] <= box and q not in reach:
                reach.add(q)
                frontier.append(q)
    return reach


def _ideal_set(S_set, gens, box):
    return {q for a in gens for s in S_set
            for q in [_add(a, s)] if q[0] <= box and q[1] <= box}


def _window(E, window):
    return {z for z in E if z[0] <= window and z[1] <= window}


def _min_gens(E, S_gens, window):
    """The z of E in the window with no z - s in E for a nonzero s in S;
    E + S lies in E, so it is enough to try the generators s of S."""
    return tuple(sorted(z for z in _window(E, window)
                        if not any((z[0] - x, z[1] - y) in E for x, y in S_gens)))


def _ideal_type(S):
    return AffineIdeal if isinstance(S, AffineSemigroup2D) else SemigroupIdeal


def _pairs(I):
    """I's minimal generators as pairs: a one-ray ideal keeps the
    multiples z of its ray vector."""
    if isinstance(I, AffineIdeal):
        return I.gens
    a, b = I.S.ray
    return tuple((z * a, z * b) for z in I.gens)


def _holds(I, p):
    return I.contains(I.element(p))


def _random_semigroup(rng):
    """2-4 nonzero generators with entries <= 4; one case in four on a
    single ray."""
    if rng.random() < 0.25:
        v = rng.choice([(1, 0), (0, 1), (1, 1), (1, 2), (2, 1), (1, 3)])
        top = 4 // max(v)
        ks = rng.sample(range(1, top + 1), min(top, rng.randint(2, 4)))
        return sorted({(k * v[0], k * v[1]) for k in ks})
    gens = set()
    while len(gens) < rng.randint(2, 4):
        g = (rng.randint(0, 4), rng.randint(0, 4))
        if g != (0, 0):
            gens.add(g)
    return sorted(gens)


def _draw(rng, S_set):
    pool = sorted(p for p in S_set if 0 < max(p) <= TOP)
    return rng.sample(pool, rng.randint(1, min(3, len(pool))))


@pytest.mark.parametrize("seed", range(10))
def test_ideal_operations_match_the_set_definitions(seed):
    rng = random.Random(seed)
    for _ in range(6):
        S_gens = _random_semigroup(rng)
        S = affine_ring(S_gens)
        small = _sums(S_gens, TOP)
        a_gens, b_gens = _draw(rng, small), _draw(rng, small)
        p = rng.choice(sorted(small))
        A, B = (_ideal_type(S).from_gens(S, gens) for gens in (a_gens, b_gens))
        got = {"A": A, "B": B, "sum": A + B, "product": A * B,
               "intersect": A.intersect(B), "times": A.times(A.element(p)),
               "A:B": A.colon(B), "B:A": B.colon(A)}

        window = max([MIN_WINDOW] + [2 * max(g) for I in got.values()
                                     for g in _pairs(I)])
        box = window + TOP
        S_set = _sums(S_gens, box)
        points = list(product(range(window + 1), repeat=2))
        assert ({z for z in points if _holds(A.unit(), z)}
                == _window(S_set, window))

        A_set, B_set = _ideal_set(S_set, a_gens, box), _ideal_set(S_set, b_gens, box)
        A_min, B_min = _min_gens(A_set, S_gens, TOP), _min_gens(B_set, S_gens, TOP)
        expected = {
            "A": A_set,
            "B": B_set,
            "sum": A_set | B_set,
            "product": _ideal_set(S_set, [_add(a, b) for a in A_min
                                          for b in B_min], box),
            "intersect": A_set & B_set,
            "times": {q for z in A_set for q in [_add(z, p)]
                      if q[0] <= box and q[1] <= box},
            "A:B": {z for z in S_set if all(_add(z, b) in A_set for b in B_min)},
            "B:A": {z for z in S_set if all(_add(z, a) in B_set for a in A_min)},
        }
        seen = {name: _window(E, window) for name, E in expected.items()}
        for name, ideal in got.items():
            what = (S_gens, a_gens, b_gens, name)
            assert {z for z in points if _holds(ideal, z)} == seen[name], what
            assert _pairs(ideal) == _min_gens(expected[name], S_gens, window), what

        # equals and contains_ideal read the staircases or residue
        # vectors; every generator lies in the window, so it decides both
        for X, Y in product(got, repeat=2):
            assert got[X].contains_ideal(got[Y]) == (seen[Y] <= seen[X]), (S_gens, X, Y)
            assert got[X].equals(got[Y]) == (seen[X] == seen[Y]), (S_gens, X, Y)


def test_times_refuses_a_point_outside_the_semigroup():
    S = AffineSemigroup2D([(0, 4), (1, 4), (4, 2)])
    I = AffineIdeal.from_gens(S, [(0, 4)])
    for p in [(1, 0), (6, 20), (0, 1), (9, 0)]:
        with pytest.raises(PreconditionError):
            I.times(p)


def test_roadmap_colon_and_intersection():
    """The box search once dropped (6, 24) from the colon and (12, 34)
    from the intersection."""
    S = AffineSemigroup2D([(0, 4), (1, 4), (4, 2)])
    I = AffineIdeal.from_gens(S, [(0, 4)])
    J = AffineIdeal.from_gens(S, [(6, 10)])
    assert I.colon(J).gens == ((0, 4), (6, 24))
    assert I.intersect(J).gens == ((6, 14), (12, 34))
