"""Numerical and plane affine semigroups, their ideals and closures."""

import json
import time
from itertools import product

import pytest

from rrlab.cli import EXIT_OK, main
from rrlab.errors import (PreconditionError, RingMismatchError,
                          ZeroIdealError)
from rrlab.ratliff_rush import (rr_closure, rr_membership_probe,
                                rr_membership_probe_via_reduction, rr_power)
from rrlab.semigroup import (AffineIdeal, AffineSemigroup2D,
                             NumericalSemigroup, SemigroupIdeal, affine_ring)


def test_numerical_semigroup_basics():
    S = NumericalSemigroup([4, 5, 11])
    assert S.contains(0) and S.contains(9) and S.contains(4 + 11)
    assert not S.contains(7)
    members = set(S.members_upto(30))
    # Brute force: all non-negative combinations of 4, 5, 11 up to 30.
    brute = {4 * a + 5 * b + 11 * c
             for a in range(9) for b in range(7) for c in range(3)}
    assert members == {m for m in brute if m <= 30}


def test_redundant_generators_harmless():
    # 9 = 4 + 5 is redundant; same members either way.
    A = NumericalSemigroup([4, 5, 9, 11])
    B = NumericalSemigroup([4, 5, 11])
    assert A.members_upto(40) == B.members_upto(40)
    with pytest.raises(Exception):
        NumericalSemigroup([4, 6])  # gcd != 1


def test_semigroup_ideal_membership_stable_under_bound_doubling():
    S = NumericalSemigroup([4, 5, 11])
    I = SemigroupIdeal.from_gens(S, [4, 5, 11])
    small = set(I.elements_upto(40))
    large = set(I.elements_upto(80))
    assert small == {z for z in large if z <= 40}


def test_semigroup_ideal_operations():
    S = NumericalSemigroup([4, 5, 11])
    I = SemigroupIdeal.from_gens(S, [4, 5, 11])
    I2 = I.power(2)
    assert set(I2.elements_upto(40)) == {
        z for z in range(41)
        if any(g <= z and I.contains(z - g) for g in I.elements_upto(40))}
    # Colon defining property: z in (A : B) iff z + B subset A.
    C = I2.colon(I)
    for z in C.elements_upto(30):
        for b in I.elements_upto(30 - z if 30 - z > 0 else 0):
            assert I2.contains(z + b)
    # Intersection is elementwise.
    J = SemigroupIdeal.from_gens(S, [5])
    M = I2.intersect(J)
    for z in range(40):
        assert M.contains(z) == (I2.contains(z) and J.contains(z))


def test_semigroup_closure_is_exact():
    S = NumericalSemigroup([4, 5, 11])
    I = SemigroupIdeal.from_gens(S, [4, 5, 11])
    res = rr_closure(I)
    assert res.certified
    assert res.value.gens == I.gens  # the maximal ideal is chain-fixed
    sq = rr_power(I, 2)
    assert sq.certified
    assert set(sq.value.gens) == {8, 9, 10, 11}


def _closure_of_two_consecutive(tmp_path, capsys, a):
    """rr_closure of (t^a, t^(a+1)) in <a, a+1> through `rrlab compute`."""
    path = tmp_path / "prog.rr"
    path.write_text(f"semiring S = <{a}, {a + 1}>;\n"
                    f"ideal I = (t^{a}, t^{a + 1});\nrr_closure I;\n")
    start = time.perf_counter()
    code = main(["compute", str(path), "--format", "json"])
    elapsed = time.perf_counter() - start
    assert code == EXIT_OK
    [frag] = json.loads(capsys.readouterr().out)["commands"]
    return frag, elapsed


def test_closure_runs_to_a_reduction_index_past_any_fixed_cap(tmp_path, capsys):
    # The principal-reduction index of (t^100, t^101) is 99: the closure
    # chain runs that far, bounded by the genus, and the answer is exact.
    frag, _ = _closure_of_two_consecutive(tmp_path, capsys, 100)
    assert frag["value"] == "(t^100, t^101)"
    assert frag["status"] == "stabilized-window" and frag["k"] == 99
    assert frag["growth_steps"] == []


def test_closure_chain_of_a_large_semigroup_is_fast(tmp_path, capsys):
    frag, elapsed = _closure_of_two_consecutive(tmp_path, capsys, 50)
    assert frag["value"] == "(t^50, t^51)" and frag["k"] == 49
    assert elapsed < 1.0


def test_semigroup_invariants_from_the_apery_set():
    S = NumericalSemigroup([4, 5, 11])
    assert S.apery == (0, 5, 10, 11)
    assert (S.frobenius, S.conductor, S.genus) == (7, 8, 5)  # gaps 1 2 3 6 7
    T = NumericalSemigroup([1000, 1001])
    assert T.genus == 999 * 1000 // 2 and T.frobenius == 1000 * 1001 - 2001
    assert NumericalSemigroup([1, 5]).conductor == 0


def test_zero_ideal_rejected():
    S = NumericalSemigroup([4, 5, 11])
    with pytest.raises(ZeroIdealError):
        SemigroupIdeal.from_gens(S, [])
    with pytest.raises(Exception):
        SemigroupIdeal.from_gens(S, [7])  # 7 is not in the semigroup


def test_affine_membership_matches_brute_force():
    S = AffineSemigroup2D([(1, 0), (0, 2), (0, 7), (2, 5), (3, 1)])
    # Brute force: dynamic programming over the box [0, 20]^2.
    reach = {(0, 0)}
    frontier = [(0, 0)]
    while frontier:
        p = frontier.pop()
        for g in S.gens:
            q = (p[0] + g[0], p[1] + g[1])
            if q[0] <= 20 and q[1] <= 20 and q not in reach:
                reach.add(q)
                frontier.append(q)
    for p in product(range(21), repeat=2):
        assert S.contains(p) == (p in reach)


def test_affine_ideal_operations():
    S = AffineSemigroup2D([(1, 0), (0, 2), (0, 7), (2, 5), (3, 1)])
    I = AffineIdeal.from_gens(S, [(1, 0), (0, 2)])
    I2 = I.power(2)
    for g in I.gens:
        for h in I.gens:
            assert I2.contains((g[0] + h[0], g[1] + h[1]))
    C = I2.colon(I)
    assert C.contains((2, 5))  # X^2*Y^5 multiplies I into I^2
    assert not I.contains((2, 5))


def test_affine_closure_gains_witness():
    S = AffineSemigroup2D([(1, 0), (0, 2), (0, 7), (2, 5), (3, 1)])
    I = AffineIdeal.from_gens(S, [(1, 0), (0, 2)])
    res = rr_closure(I)
    assert res.certified
    assert res.value.contains((2, 5))
    assert not I.contains((2, 5))


def test_affine_membership_deep_queries():
    # Deep searches once overflowed the interpreter stack.
    S = AffineSemigroup2D([(1, 0), (0, 2)])
    assert not S.contains((3000, 3001))
    assert S.contains((3000, 3000))


def _reachable(gens, box):
    """Every sum of the generators with both coordinates at most box."""
    reach = {(0, 0)}
    frontier = [(0, 0)]
    while frontier:
        p = frontier.pop()
        for g in gens:
            q = (p[0] + g[0], p[1] + g[1])
            if q[0] <= box and q[1] <= box and q not in reach:
                reach.add(q)
                frontier.append(q)
    return reach


def _ring_membership(gens):
    """Membership in the ring affine_ring(gens), read through its unit
    ideal: on one ray the ring is a numerical semigroup read in pairs."""
    S = affine_ring(gens)
    ideal = AffineIdeal if isinstance(S, AffineSemigroup2D) else SemigroupIdeal
    unit = ideal.from_gens(S, [(0, 0)])
    return lambda p: unit.contains(unit.element(p))


def test_affine_membership_on_a_proper_sublattice():
    # The generators span a proper subgroup of Z^2 (index 3, index 2, rank 1).
    # Points off it are rejected without search; all answers must still match
    # brute force.
    for gens in ([(1, 1), (2, 5), (0, 3)], [(1, 0), (0, 2)], [(2, 4), (3, 6)]):
        contains = _ring_membership(gens)
        reach = _reachable(gens, 20)
        for p in product(range(21), repeat=2):
            assert contains(p) == (p in reach)


def test_affine_membership_outside_the_cone():
    # (100, 500) lies in Z^2, the group of the generators, but above the
    # steepest ray (1, 3); it is rejected without searching the box below.
    S = AffineSemigroup2D([(1, 0), (1, 2), (1, 3)])
    assert not S.contains((100, 500))
    assert S.contains((100, 300))


def test_affine_membership_in_narrow_cones():
    # Cones bounded by generators in any order, including a single ray and
    # both axes; all answers must match brute force.
    for gens in ([(1, 0), (1, 2), (1, 3)], [(3, 1), (1, 1), (2, 5)],
                 [(2, 1), (1, 3)], [(0, 1), (2, 1)], [(1, 1), (2, 2)],
                 [(0, 2), (0, 3)], [(4, 1), (5, 1), (1, 0)]):
        contains = _ring_membership(gens)
        reach = _reachable(gens, 20)
        for p in product(range(21), repeat=2):
            assert contains(p) == (p in reach), (gens, p)


def test_plane_semigroup_refuses_generators_on_one_ray():
    for gens in ([(1, 1), (2, 2)], [(0, 2), (0, 3)], [(3, 0)], [(2, 4), (3, 6)]):
        with pytest.raises(PreconditionError, match="one ray"):
            AffineSemigroup2D(gens)


def test_plane_semigroup_refuses_a_negative_coordinate_with_one_message():
    # The parser reads only naturals; the library check names the same rule.
    for gens in ([(1, 0), (1, -1)], [(-1, 2), (0, 1)]):
        with pytest.raises(PreconditionError,
                           match="^generators must be nonzero pairs of "
                                 "naturals$"):
            AffineSemigroup2D(gens)


@pytest.mark.parametrize("I, J", [
    (SemigroupIdeal.from_gens(NumericalSemigroup([2, 3]), [2]),
     SemigroupIdeal.from_gens(NumericalSemigroup([2, 5]), [2])),
    # the same semigroup <2,3> read on two rays
    (SemigroupIdeal.from_gens(affine_ring([(0, 2), (0, 3)]), [(0, 2)]),
     SemigroupIdeal.from_gens(affine_ring([(2, 0), (3, 0)]), [(2, 0)])),
    (AffineIdeal.from_gens(AffineSemigroup2D([(1, 0), (0, 1)]), [(1, 0)]),
     AffineIdeal.from_gens(AffineSemigroup2D([(1, 0), (1, 1), (0, 2)]),
                           [(1, 0)]))], ids=["numerical", "rays", "affine"])
def test_ideals_of_different_semigroups_do_not_combine(I, J):
    for combine in (lambda: I + J, lambda: I * J, lambda: I.colon(J),
                    lambda: I.intersect(J), lambda: I.contains_ideal(J),
                    lambda: I.equals(J)):
        with pytest.raises(RingMismatchError,
                           match="^ideals belong to different semigroups$"):
            combine()


def test_one_ray_ring_is_a_numerical_semigroup_on_its_ray():
    # v is the largest point of the ray that divides every generator
    for gens, multiples, ray in [([(0, 9), (0, 13)], (9, 13), (0, 1)),
                                 ([(0, 2), (0, 4)], (1, 2), (0, 2)),
                                 ([(4, 6), (6, 9)], (2, 3), (2, 3)),
                                 ([(4, 8), (6, 12)], (2, 3), (2, 4))]:
        S = affine_ring(gens)
        assert isinstance(S, NumericalSemigroup)
        assert (S.gens, S.ray) == (multiples, ray)
    assert isinstance(affine_ring([(1, 0), (1, 1)]), AffineSemigroup2D)


def test_membership_probes_refuse_gaps():
    """6 and 7 are gaps of <4,5,11>: no ring element, so neither probe may
    report them as closure members."""
    S = NumericalSemigroup([4, 5, 11])
    I = SemigroupIdeal.from_gens(S, [4, 5, 11])
    J = SemigroupIdeal.from_gens(S, [4])
    for gap in (6, 7):
        with pytest.raises(PreconditionError, match="not in the ring"):
            rr_membership_probe(gap, I)
        with pytest.raises(PreconditionError, match="not in the ring"):
            rr_membership_probe_via_reduction(gap, I, J)
        assert not I.contains(gap)
    A = AffineSemigroup2D([(1, 0), (0, 2), (0, 7), (2, 5), (3, 1)])
    with pytest.raises(PreconditionError, match="not in the ring"):
        rr_membership_probe((1, 5), AffineIdeal.from_gens(A, [(1, 0), (0, 2)]))
