"""Numerical-semigroup ideals against brute-force set definitions.

The oracle shares no code with rrlab.semigroup: a semigroup is the set of
sums of its generators, an ideal the set gens + S, and every operation the
set it is defined to be, all cut off at a window past every generator and
the conductor, beyond which each of these sets holds every integer.
"""

import random
from math import gcd

import pytest

from rrlab.semigroup import NumericalSemigroup, SemigroupIdeal


def _sums(gens, bound):
    """The sums of gens (0 included) up to bound."""
    members = [False] * (bound + 1)
    members[0] = True
    for z in range(1, bound + 1):
        members[z] = any(z >= g and members[z - g] for g in gens)
    return {z for z, m in enumerate(members) if m}


def _ideal_set(S_set, gens, bound):
    return {a + s for a in gens for s in S_set if a + s <= bound}


def _min_gens(E, S_set):
    """The z in E with no z - s in E for a nonzero s in S."""
    return tuple(sorted(z for z in E
                        if not any(s and z - s in E for s in S_set if s <= z)))


def _random_case(rng):
    """A semigroup of 2-4 coprime generators <= 25, its brute-force members
    up to 625 and its conductor."""
    gens = [2, 4]
    while gcd(*gens) != 1:
        gens = rng.sample(range(2, 26), rng.randint(2, 4))
    S = _sums(gens, 25 * 25)  # the Frobenius number is below min * max
    return gens, S, max(set(range(25 * 25)) - S) + 1


def _draw(rng, S_set, top):
    pool = sorted(z for z in S_set if z <= top)
    return rng.sample(pool, rng.randint(1, min(3, len(pool))))


@pytest.mark.parametrize("seed", range(8))
def test_ideal_operations_match_the_set_definitions(seed):
    rng = random.Random(seed)
    for _ in range(6):
        gens, S_brute, c = _random_case(rng)
        S = NumericalSemigroup(gens)
        top = c + 2 * max(gens)            # every drawn generator lies below
        window = 3 * top + c               # past every generator of the results
        big = window + top
        S_set = {z for z in S_brute if z <= big} | set(range(c, big + 1))

        assert S.members_upto(window) == tuple(
            z for z in range(window + 1) if z in S_set)
        assert S.conductor == c and S.frobenius == c - 1
        assert S.genus == len(set(range(c)) - S_set)

        a_gens, b_gens = _draw(rng, S_set, top), _draw(rng, S_set, top)
        A, B = SemigroupIdeal.from_gens(S, a_gens), SemigroupIdeal.from_gens(S, b_gens)
        A_set, B_set = _ideal_set(S_set, a_gens, big), _ideal_set(S_set, b_gens, big)
        A_min, B_min = _min_gens(A_set, S_set), _min_gens(B_set, S_set)
        assert A.gens == A_min and B.gens == B_min
        assert all(A.contains(z) == (z in A_set) for z in range(big + 1))

        expected = {
            "sum": A_set | B_set,
            "product": _ideal_set(S_set, [a + b for a in A_min for b in B_min],
                                  big),
            "intersect": A_set & B_set,
            "A:B": {z for z in S_set if all(z + h in A_set for h in B_min)},
            "B:A": {z for z in S_set if all(z + h in B_set for h in A_min)},
        }
        got = {"sum": A + B, "product": A * B, "intersect": A.intersect(B),
               "A:B": A.colon(B), "B:A": B.colon(A)}
        for name, ideal in got.items():
            want = {z for z in expected[name] if z <= window}
            assert set(ideal.elements_upto(window)) == want, (gens, name)
            assert ideal.gens == _min_gens(want, S_set), (gens, name)

        # equals reads the residue vectors; it must be mutual containment
        got.update({"A": A, "B": B, "A again": A + A.intersect(B),
                    "B again": B.intersect(A + B)})
        for X in got.values():
            for Y in got.values():
                both = X.contains_ideal(Y) and Y.contains_ideal(X)
                assert X.equals(Y) == both, (gens, X, Y)
                assert both == (set(X.elements_upto(window))
                                == set(Y.elements_upto(window))), (gens, X, Y)


def _direct_reduction_index(S_set, c, gens, genus):
    """Least r <= genus with E^{r+1} = x + E^r, x = min E, from the sets:
    E^{r+1} = E^r + gens, and both sides hold every integer from
    (r + 1) * x + c on, so a window to (genus + 1) * x + c decides."""
    x = min(gens)
    bound = (genus + 1) * x + c
    power = {z for z in S_set if z <= bound}  # E^0 = S
    for r in range(genus + 1):
        nxt = {p + g for p in power for g in gens if p + g <= bound}
        if nxt == {p + x for p in power if p + x <= bound}:
            return r
        power = nxt
    return None


@pytest.mark.parametrize("seed", range(4))
def test_principal_reduction_index_by_direct_search(seed):
    rng = random.Random(100 + seed)
    for _ in range(5):
        gens, S_brute, c = _random_case(rng)
        S = NumericalSemigroup(gens)
        E_gens = _draw(rng, S_brute, 2 * max(gens))
        E = SemigroupIdeal.from_gens(S, E_gens)
        bound = (S.genus + 1) * min(E_gens) + c
        S_set = {z for z in S_brute if z <= bound} | set(range(c, bound + 1))
        r = _direct_reduction_index(S_set, c, E_gens, S.genus)
        assert r is not None and r <= S.genus
        assert E.principal_reduction_index() == r, (gens, E_gens)
