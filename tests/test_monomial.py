"""Monomial-ideal operations cross-checked against independent oracles.

The fast combinatorial routines (colon, intersection, power membership,
integral closure) are compared with basis-driven computations and with
explicit expansions on randomized inputs.
"""

import random
import time
from itertools import product

import pytest

from rrlab.cli import EXIT_OK, main
from rrlab.core import RingDescriptor
from rrlab.errors import PreconditionError
from rrlab.groebner import IdealHandle
from rrlab.monomial import (MonomialIdeal, PowerLadder,
                            associated_primes_monomial, colon_monomial,
                            colon_single, in_newton_polyhedron,
                            integral_closure_monomial, intersect_monomial,
                            is_borel_fixed, member_of_power, newton_facets,
                            socle_candidates, variable_ideal)


def _ring(n=2):
    return RingDescriptor(("X", "Y", "Z", "W")[:n])


def _random_ideal(ring, rng, ngens=4, max_deg=6):
    gens = {tuple(rng.randint(0, max_deg) for _ in range(ring.nvars))
            for _ in range(ngens)}
    gens.discard((0,) * ring.nvars)
    if not gens:
        gens = {(1,) * ring.nvars}
    return MonomialIdeal.from_gens(ring, sorted(gens))


def test_membership_and_minimal_generators():
    R = _ring()
    I = MonomialIdeal.from_gens(R, [(4, 0), (3, 1), (2, 2), (3, 1), (4, 2)])
    assert len(I.gens) == 3               # (4,2) and duplicate dropped
    assert I.contains((5, 3))
    assert not I.contains((1, 4))


def test_negative_exponent_is_rejected():
    # The packed kernels assume non-negative fields: accepted, (X^-1 * Y^3)
    # met (X^2, Y^2) in ((0, 3),).
    R = _ring()
    with pytest.raises(PreconditionError, match="negative exponent"):
        MonomialIdeal.from_gens(R, [(-1, 3)])
    with pytest.raises(PreconditionError, match="negative exponent"):
        MonomialIdeal.from_gens(R, [(2, 0), (0, -2)])


def test_colon_matches_groebner_colon_randomized():
    rng = random.Random(17)
    for nvars in (2, 3):
        R = _ring(nvars)
        for _ in range(12):
            A = _random_ideal(R, rng)
            B = _random_ideal(R, rng, ngens=2, max_deg=3)
            fast = colon_monomial(A, B)
            slow = IdealHandle.from_monomial(A).colon(
                IdealHandle.from_monomial(B)).to_monomial_ideal()
            assert fast == slow


def test_colon_fields_hold_extra_times_generator():
    # The running extras e are tested by e * b in A, and e + b reaches
    # twice the largest exponent: fields sized for the largest exponent
    # alone (width 8 here, not 9) gave ((0,109,111), (40,88,33)).
    R = _ring(3)
    A = MonomialIdeal.from_gens(R, [(30, 113, 44), (3, 120, 104), (79, 91, 99)])
    B = MonomialIdeal.from_gens(R, [(39, 3, 117), (20, 85, 11), (71, 34, 61)])
    assert colon_monomial(A, B).gens == ((0, 110, 93), (10, 110, 33),
                                         (40, 88, 33))


def test_colon_returns_the_floor_itself_when_it_adds_nothing():
    # The closure chain tells a quiet step by identity, so an equal copy of
    # the floor is not enough.
    rng = random.Random(31)
    R = _ring(3)
    for _ in range(20):
        A = _random_ideal(R, rng)
        B = _random_ideal(R, rng, ngens=3, max_deg=3)
        C = colon_monomial(A, B)
        for F in (MonomialIdeal(R, C.gens), C + B, A.unit()):
            assert A.colon(B, F) is F
        F = MonomialIdeal.from_gens(R, [(7, 7, 7)])
        got = A.colon(B, F)
        assert got is not F and got == C + F


def test_colon_single_matches_full_colon():
    rng = random.Random(23)
    R = _ring(3)
    for _ in range(10):
        A = _random_ideal(R, rng)
        b = tuple(rng.randint(0, 3) for _ in range(3))
        B = MonomialIdeal.from_gens(R, [b])
        assert colon_single(A, b) == colon_monomial(A, B)


def test_intersection_matches_groebner_randomized():
    rng = random.Random(29)
    R = _ring(2)
    for _ in range(12):
        A = _random_ideal(R, rng)
        B = _random_ideal(R, rng)
        fast = intersect_monomial(A, B)
        slow = IdealHandle.from_monomial(A).intersect(
            IdealHandle.from_monomial(B)).to_monomial_ideal()
        assert fast == slow


def test_member_of_power_matches_explicit_expansion():
    # Oracle: I^n contains e iff some product of n generators divides e.
    rng = random.Random(31)
    R = _ring(2)
    for _ in range(8):
        I = _random_ideal(R, rng, ngens=3, max_deg=4)
        ladder = PowerLadder(I)
        for n in range(1, 5):
            explicit = I
            for _ in range(n - 1):
                explicit = explicit * I
            for e in product(range(10), repeat=2):
                assert member_of_power(e, ladder, n) == explicit.contains(e)
                assert member_of_power(e, I, n) == explicit.contains(e)


def test_integral_closure_known_values():
    R = _ring()
    I = MonomialIdeal.from_gens(R, [(4, 0), (0, 4)])
    C = integral_closure_monomial(I)
    assert C == MonomialIdeal.from_gens(R, [(4, 0), (3, 1), (2, 2), (1, 3),
                                            (0, 4)])


def test_integral_closure_properties_randomized():
    rng = random.Random(37)
    R = _ring(2)
    for _ in range(10):
        I = _random_ideal(R, rng)
        C = integral_closure_monomial(I)
        assert C.contains_ideal(I)
        # Idempotence: closing twice changes nothing.
        assert integral_closure_monomial(C) == C
        # Every closure generator sits in the Newton polyhedron of I.
        for g in C.gens:
            assert in_newton_polyhedron(g, I.gens)


def test_newton_polyhedron_membership():
    R = _ring()
    gens = ((4, 0), (0, 4))
    assert in_newton_polyhedron((2, 2), gens)
    assert not in_newton_polyhedron((1, 2), gens)


def test_newton_facets_known_values():
    assert newton_facets([(4, 0), (3, 1), (1, 3), (0, 4)]) == [((1, 1), 4)]
    assert newton_facets([(3, 0), (1, 1), (0, 3)]) == [((1, 2), 3),
                                                       ((2, 1), 3)]
    assert newton_facets([(2, 3)]) == [((0, 1), 3), ((1, 0), 2)]
    assert newton_facets([(2, 0, 0), (0, 3, 0), (0, 0, 6)]) == [((3, 2, 1), 6)]
    assert newton_facets([(0, 0, 0)]) == []
    I = MonomialIdeal.from_gens(_ring(), [(4, 0), (0, 4)])
    assert I._facets is I._facets


def test_borel_fixed_examples():
    R = _ring()
    prio = (0, 1)  # X is the larger variable
    B = MonomialIdeal.from_gens(R, [(2, 0), (1, 1), (0, 2)])
    assert is_borel_fixed(B, prio, "to-larger")
    # (X^2, Y^2) misses X*Y, so moving Y -> X escapes the ideal.
    N = MonomialIdeal.from_gens(R, [(2, 0), (0, 2)])
    assert not is_borel_fixed(N, prio, "to-larger")


def test_associated_primes_known_example():
    R = _ring(3)
    # (X*Y, Y*Z) = (Y) cap (X, Z).
    I = MonomialIdeal.from_gens(R, [(1, 1, 0), (0, 1, 1)])
    assert associated_primes_monomial(I) == (("X", "Z"), ("Y",))


def _box_associated_primes(variables, gens):
    """The primes among the I : m, m a monomial outside I dividing the lcm
    of the generators, on tuples alone."""
    def divides(a, b):
        return all(x <= y for x, y in zip(a, b))

    lcm = [max(col) for col in zip(*gens)]
    primes = set()
    for m in product(*(range(e + 1) for e in lcm)):
        if any(divides(g, m) for g in gens):
            continue
        quotients = {tuple(max(x - y, 0) for x, y in zip(g, m)) for g in gens}
        minimal = [q for q in quotients
                   if not any(r != q and divides(r, q) for r in quotients)]
        if all(sum(q) == 1 for q in minimal):
            primes.add(tuple(variables[i]
                             for i in sorted(q.index(1) for q in minimal)))
    return tuple(sorted(primes))


def test_associated_primes_match_box_definition():
    rng = random.Random(37)
    for nvars, max_deg in ((1, 6), (2, 6), (3, 4), (4, 2)):
        R = _ring(nvars)
        for _ in range(60):
            I = _random_ideal(R, rng, ngens=rng.randint(1, 5), max_deg=max_deg)
            if I.is_unit():
                continue
            assert associated_primes_monomial(I) == \
                _box_associated_primes(R.variables, I.gens), I


def test_associated_primes_small_examples():
    R = _ring(2)
    XY = MonomialIdeal.from_gens(R, [(1, 1)])
    assert associated_primes_monomial(XY) == (("X",), ("Y",))
    # (X^2, X*Y) = (X) cap (X^2, Y): the maximal ideal is embedded.
    I = MonomialIdeal.from_gens(R, [(2, 0), (1, 1)])
    assert associated_primes_monomial(I) == (("X",), ("X", "Y"))


def test_associated_primes_of_large_exponents_finish(tmp_path, capsys):
    # The lcm box here has 301^3 points; one colon per point took over a
    # minute.
    prog = tmp_path / "ass.rr"
    prog.write_text("ring R = QQ[X, Y, Z];\n"
                    "ideal I = (X^300, Y^300, Z^300, X*Y*Z^2);\n"
                    "ass_primes I;\n")
    start = time.perf_counter()
    assert main(["compute", str(prog)]) == EXIT_OK
    assert time.perf_counter() - start < 2
    assert "primes: ['(X, Y, Z)']" in capsys.readouterr().out


def test_socle_candidates_zero_dimensional():
    R = _ring()
    I = MonomialIdeal.from_gens(R, [(3, 0), (0, 3)])
    socle = set(socle_candidates(I))
    assert socle == {(2, 2)}
    m = variable_ideal(R)
    for e in socle:
        for v in m.gens:
            assert I.contains(tuple(a + b for a, b in zip(e, v)))


def test_power_ladder_consistency():
    R = _ring()
    I = MonomialIdeal.from_gens(R, [(2, 0), (0, 3)])
    ladder = PowerLadder(I)
    assert ladder.power(2) == I * I
    assert ladder.power(3) == I.power(3)


def _container_sizes(module):
    return {name: len(value) for name, value in vars(module).items()
            if isinstance(value, (dict, list, set))}


def test_shared_packings_and_module_state_stay_bounded():
    """2,000 seeded operations over rings of 1 to 8 variables and exponents
    up to 2**100, so field widths 8 to 128 and more (nvars, width) pairs
    than the shared packing table holds: the table stays within its bound,
    and no module-level container of monomial or core grows."""
    from rrlab import core, monomial
    before = {m: _container_sizes(m) for m in (core, monomial)}
    rng = random.Random(2000)
    tops = (5, 100, 1000, 2 ** 20, 2 ** 40, 2 ** 100)
    for _ in range(2000):
        ring = RingDescriptor([f"x{i}" for i in range(rng.randint(1, 8))])
        top = rng.choice(tops)
        A, B = (MonomialIdeal.from_gens(ring, [
            tuple(rng.randint(0, top) for _ in range(ring.nvars))
            for _ in range(rng.randint(1, 3))]) for _ in range(2))
        op = rng.randrange(5)
        if op == 0:
            A * B
        elif op == 1:
            A + B
        elif op == 2:
            colon_monomial(A, B, floor=B)
        elif op == 3:
            intersect_monomial(A, B)
        else:
            A.contains_ideal(B)
    info = core.shared_packing.cache_info()
    assert info.misses > info.maxsize  # the bound was reached
    assert info.currsize <= info.maxsize
    assert {m: _container_sizes(m) for m in (core, monomial)} == before
