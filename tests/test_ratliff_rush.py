"""Closure chains, membership probes, defect modules and graded probes."""

import random
from itertools import product

import pytest

from rrlab.core import Monomial, RingDescriptor
from rrlab.errors import PreconditionError
from rrlab.groebner import IdealHandle
from rrlab.monomial import MonomialIdeal
from rrlab.parser import parse_polynomial
from rrlab.ratliff_rush import (BoundReached, ClosureConfig, FailsAt, Holds,
                                Member, NotMemberUpTo, StabilizedWindow,
                                depth_zero_witness_search, gr_nzd_probe,
                                is_rr_closed, rr_closure,
                                rr_closure_via_reduction, rr_defect,
                                rr_membership_probe,
                                rr_membership_probe_via_reduction, rr_power,
                                superficial_probe)


def _xy():
    return RingDescriptor(("X", "Y"))


def _mono(*gens):
    return MonomialIdeal.from_gens(_xy(), gens)


def test_config_invariants_enforced():
    with pytest.raises(PreconditionError):
        ClosureConfig(k_max=2, window=3)
    with pytest.raises(PreconditionError):
        ClosureConfig(window=1)
    with pytest.raises(PreconditionError):
        ClosureConfig(n_max=0)


def test_closure_certification_statuses():
    I = _mono((4, 0), (3, 1), (1, 3), (0, 4))
    res = rr_closure(I)
    assert isinstance(res.status, StabilizedWindow)
    assert res.certified
    tight = rr_closure(I, ClosureConfig(k_max=2, window=2))
    assert isinstance(tight.status, BoundReached)
    assert not tight.certified


def test_known_closure_value():
    I = _mono((4, 0), (3, 1), (1, 3), (0, 4))
    res = rr_closure(I)
    assert res.value == _mono((4, 0), (3, 1), (2, 2), (1, 3), (0, 4))
    assert rr_power(I, 2).value == _mono(*((i, 8 - i) for i in range(9)))


def test_closure_contains_power_and_is_monotone():
    rng = random.Random(41)
    R = _xy()
    for _ in range(10):
        gens = {(rng.randint(0, 5), rng.randint(0, 5)) for _ in range(3)}
        gens.discard((0, 0))
        if not gens:
            continue
        I = MonomialIdeal.from_gens(R, sorted(gens))
        for n in (1, 2):
            res = rr_power(I, n)
            assert res.value.contains_ideal(I.power(n))


def test_via_reduction_agrees_with_colon_chain():
    I = _mono((4, 0), (3, 1), (1, 3), (0, 4))
    J = _mono((4, 0), (0, 4))
    for n in (1, 2):
        direct = rr_power(I, n)
        via = rr_closure_via_reduction(I, J, n)
        assert direct.value == via.value
        assert direct.certified and via.certified


def test_via_reduction_rejects_non_reduction():
    I = _mono((4, 0), (3, 1), (1, 3), (0, 4))
    J = _mono((4, 0))  # principal, not a reduction
    with pytest.raises(PreconditionError):
        rr_closure_via_reduction(I, J, 1)


def test_membership_probe_semantics():
    I = _mono((4, 0), (3, 1), (1, 3), (0, 4))
    assert rr_membership_probe((2, 2), I) == Member(1)
    assert rr_membership_probe((1, 1), I) == NotMemberUpTo(12)
    with pytest.raises(PreconditionError):
        rr_membership_probe((4, 0), I)  # already inside


def test_membership_probe_via_reduction_preconditions():
    I = _mono((4, 0), (3, 1), (1, 3), (0, 4))
    J = _mono((4, 0), (0, 4))
    assert isinstance(rr_membership_probe_via_reduction((2, 2), I, J), Member)
    with pytest.raises(PreconditionError):
        rr_membership_probe_via_reduction((2, 2), I, _mono((4, 0)))
    with pytest.raises(PreconditionError):
        rr_membership_probe_via_reduction((4, 0), I, J)


def test_is_rr_closed_witness():
    I = _mono((10, 0), (0, 5), (1, 4), (8, 1))
    v = is_rr_closed(I)
    assert isinstance(v, FailsAt)
    assert v.n == 1 and v.witness.exps == (7, 3)
    closed = _mono((2, 0), (1, 1), (0, 2))
    assert is_rr_closed(closed) == Holds(12)


def test_rr_defect_detects_open_square():
    I = _mono((4, 0), (3, 1), (1, 3), (0, 4))
    D0 = rr_defect(I, 0)
    assert not D0.is_empty()
    assert any(r.exps == (2, 2) for r in D0.representatives)
    assert D0.contains((2, 2))
    assert not D0.contains((4, 0))
    C = _mono((2, 0), (1, 1), (0, 2))
    assert rr_defect(C, 0).is_empty()
    assert rr_defect(C, 1).is_empty()


def test_superficial_probe_needs_room():
    I = _mono((1, 0), (0, 1))
    with pytest.raises(PreconditionError):
        superficial_probe((1, 0), I, ClosureConfig(n_max=3, window=3))
    with pytest.raises(PreconditionError):
        superficial_probe((1, 0), _mono((2, 0), (0, 2)))  # not in the ideal


def test_superficial_probe_holds_and_fails():
    m = _mono((1, 0), (0, 1))
    assert superficial_probe((1, 0), m) == Holds(1)
    # Y^3 is not superficial for (X^3, X*Y^2, Y^3): X^5*Y witnesses the
    # failure of (I^3 : Y^3) cap I = I^2.
    I = _mono((3, 0), (1, 2), (0, 3))
    v = superficial_probe((0, 3), I, ClosureConfig(n_max=6, window=2))
    assert v == FailsAt(3, Monomial(I.ring, (5, 1)))


def test_gr_nzd_probe_degree_checks():
    I = _mono((1, 0), (0, 1))
    assert gr_nzd_probe((1, 0), I, 1) == Holds(8)
    with pytest.raises(PreconditionError):
        gr_nzd_probe((1, 0), I, 2)  # X is not in I^2
    with pytest.raises(PreconditionError):
        gr_nzd_probe((2, 0), I, 1)  # X^2 lies one power deeper


def test_depth_zero_witness_search():
    I = _mono((2, 0), (1, 1), (0, 3))
    assert depth_zero_witness_search(I, ClosureConfig(n_max=3)) == Holds(3)
    clean = _mono((1, 0), (0, 1))
    assert depth_zero_witness_search(clean, ClosureConfig(n_max=3)) == Holds(3)


def test_depth_zero_witnesses():
    cfg = ClosureConfig(n_max=2)
    I = _mono((5, 0), (4, 1), (1, 4), (0, 5))
    assert depth_zero_witness_search(I, cfg) == FailsAt(1, Monomial(I.ring, (3, 7)))
    I = _mono((7, 0), (6, 1), (3, 5), (2, 6))
    assert depth_zero_witness_search(I, cfg) == FailsAt(1, Monomial(I.ring, (7, 9)))


def _box_scan_depth_zero(gens, n_max):
    """The first (n, m), m in lexicographic order over the box
    [0, (n+1)*max exponent]^d, with m in I^n \\ I^{n+1}, x_i*m in I^{n+1}
    for every variable and m*I in I^{n+2}; None when there is none."""
    nvars = len(gens[0])

    def add(a, b):
        return tuple(x + y for x, y in zip(a, b))

    def divides(a, b):
        return all(x <= y for x, y in zip(a, b))

    def inside(m, P):
        return any(divides(p, m) for p in P)

    def power(n):
        P = {(0,) * nvars}
        for _ in range(n):
            P = {add(p, g) for p in P for g in gens}
            P = {p for p in P if not any(q != p and divides(q, p) for q in P)}
        return P

    units = [tuple(int(i == j) for i in range(nvars)) for j in range(nvars)]
    top = max(max(g) for g in gens)
    for n in range(1, n_max + 1):
        In, In1, In2 = power(n), power(n + 1), power(n + 2)
        for m in product(range((n + 1) * top + 1), repeat=nvars):
            if (inside(m, In) and not inside(m, In1)
                    and all(inside(add(m, u), In1) for u in units)
                    and all(inside(add(m, g), In2) for g in gens)):
                return n, m
    return None


def test_depth_zero_witness_search_matches_box_scan():
    rng = random.Random(7)
    outcomes = set()
    for trial in range(60):
        kind = trial % 3
        if kind == 0:
            # (X^a, X^(a-1)*Y^s, X^t*Y^(b-1), Y^b): often depth zero
            a, b = rng.randint(3, 8), rng.randint(3, 8)
            gens = [(a, 0), (a - 1, rng.randint(1, 2)),
                    (rng.randint(1, 2), b - 1), (0, b)]
        else:
            # two or three variables, often not zero-dimensional
            nvars = kind + 1
            top = 5 if nvars == 2 else 3
            gens = [tuple(rng.randint(0, top) for _ in range(nvars))
                    for _ in range(rng.randint(1, 4))]
            gens = [g for g in gens if any(g)] or [(1,) * nvars]
        I = MonomialIdeal.from_gens(RingDescriptor(
            ("X", "Y", "Z")[:len(gens[0])]), gens)
        found = _box_scan_depth_zero(I.gens, 2)
        expected = Holds(2) if found is None else FailsAt(
            found[0], Monomial(I.ring, found[1]))
        assert depth_zero_witness_search(I, ClosureConfig(n_max=2)) == expected, I
        outcomes.add(type(expected))
    assert outcomes == {Holds, FailsAt}


def test_handle_backend_matches_monomial_backend():
    I = _mono((4, 0), (3, 1), (1, 3), (0, 4))
    H = IdealHandle.from_monomial(I)
    a = rr_closure(I).value
    b = rr_closure(H).value.to_monomial_ideal()
    assert a == b


def test_quotient_ring_needs_regular_element():
    base = RingDescriptor(("X", "Z", "U"))
    R = base.with_quotient([parse_polynomial(base, t)
                            for t in ("Z^2", "Z*U", "X*Z - U^3")])
    H = IdealHandle(R, [parse_polynomial(R, v) for v in ("X", "Z", "U")])
    with pytest.raises(PreconditionError):
        rr_closure(H)
    # Z is a zerodivisor, so it cannot serve as the chain element.
    with pytest.raises(PreconditionError):
        rr_closure(H, regular_element=parse_polynomial(R, "Z"))
    res = rr_closure(H, regular_element=parse_polynomial(R, "X"))
    assert res.value.contains(parse_polynomial(R, "X"))


def test_to_dict_round_trippable_shapes():
    I = _mono((4, 0), (3, 1), (1, 3), (0, 4))
    d = rr_closure(I).to_dict()
    assert d["status"] == "stabilized-window"
    assert "value" in d and "k" in d
    assert Member(3).to_dict() == {"verdict": "member", "k": 3}
    assert NotMemberUpTo(6).to_dict() == {"verdict": "not-member-up-to",
                                          "k_max": 6}
