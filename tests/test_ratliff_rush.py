"""Closure chains, membership probes, defect modules and graded probes."""

import random
from itertools import product

import pytest

from rrlab.core import RingDescriptor
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
from rrlab.reductions import EXACT, rr_reduction_number, s_invariant


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
    assert v.n == 1 and v.witness == I.ring.monomial((7, 3))
    closed = _mono((2, 0), (1, 1), (0, 2))
    assert is_rr_closed(closed) == Holds(12)


def test_rr_defect_detects_open_square():
    I = _mono((4, 0), (3, 1), (1, 3), (0, 4))
    D0 = rr_defect(I, 0)
    assert not D0.is_empty()
    assert I.ring.monomial((2, 2)) in D0.representatives
    # X^2*Y^2 represents a nonzero class of the defect module, X^4 none
    assert D0.numerator.contains((2, 2))
    assert not D0.denominator.contains((2, 2))
    assert D0.denominator.contains((4, 0))
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
    assert v == FailsAt(3, I.ring.monomial((5, 1)))


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
    assert depth_zero_witness_search(I, cfg) == FailsAt(1, I.ring.monomial((3, 7)))
    I = _mono((7, 0), (6, 1), (3, 5), (2, 6))
    assert depth_zero_witness_search(I, cfg) == FailsAt(1, I.ring.monomial((7, 9)))


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
            found[0], I.ring.monomial(found[1]))
        assert depth_zero_witness_search(I, ClosureConfig(n_max=2)) == expected, I
        outcomes.add(type(expected))
    assert outcomes == {Holds, FailsAt}


def test_handle_backend_matches_monomial_backend():
    I = _mono((4, 0), (3, 1), (1, 3), (0, 4))
    H = IdealHandle.from_monomial(I)
    a = rr_closure(I).value
    b = rr_closure(H).value.to_monomial_ideal()
    assert a == b


def _ex13_ring():
    base = RingDescriptor(("X", "Z", "U"))
    return base.with_quotient([parse_polynomial(base, t)
                               for t in ("Z^2", "Z*U", "X*Z - U^3")])


def _ex13_ideal(R, regular=None):
    """The maximal ideal of EX-1.3's ring, built with the given regular
    element (None: none declared)."""
    x = None if regular is None else parse_polynomial(R, regular)
    return IdealHandle(R, [parse_polynomial(R, v) for v in ("X", "Z", "U")],
                       regular_element=x)


def test_quotient_ring_needs_regular_element():
    R = _ex13_ring()
    one, x, z = (parse_polynomial(R, t) for t in ("1", "X", "Z"))
    # None declared, Z (a zerodivisor) or X + 1 (outside I): the closure
    # and both probes are refused.
    for bad in (None, "Z", "X + 1"):
        H = _ex13_ideal(R, bad)
        with pytest.raises(PreconditionError):
            rr_closure(H)
        with pytest.raises(PreconditionError):
            rr_membership_probe(one, H)
        with pytest.raises(PreconditionError):
            rr_membership_probe_via_reduction(z, H, H, 2)
    # With X declared all three answer; Z, in the closure of I^2 but not in
    # I^2, is a member.
    H = _ex13_ideal(R, "X")
    assert rr_closure(H).value.contains(x)
    assert rr_membership_probe(one, H) == NotMemberUpTo(12)
    assert rr_membership_probe_via_reduction(z, H, H, 2) == Member(1)


def test_derived_handles_keep_a_regular_element():
    # x for A + B and A : B, which contain A; x_A * x_B for A * B (so x^n
    # for I^n) and A cap B.  Each closure runs, and the closure of I^2
    # agrees with rr_power(I, 2).
    R = _ex13_ring()
    H = _ex13_ideal(R, "X")
    x = parse_polynomial(R, "X")
    derived = {"power": (H.power(2), x * x), "sum": (H + H, x),
               "product": (H * H, x * x), "colon": (H.colon(H), x),
               "intersect": (H.intersect(H), x * x)}
    for name, (D, element) in derived.items():
        assert D.regular_element == element, name
        rr_closure(D)
    assert rr_closure(H.power(2)).value.equals(rr_power(H, 2).value)
    # times and gen_powers carry none
    for D in (H.times(x), H.gen_powers(2)):
        with pytest.raises(PreconditionError, match="regular element"):
            rr_closure(D)


def test_the_unit_handle_carries_one_as_its_regular_element():
    # I^0 is the unit ideal, which contains the non-zerodivisor 1: its
    # closure runs in the quotient ring, and is the unit ideal
    R = _ex13_ring()
    unit = _ex13_ideal(R, "X").power(0)
    assert unit.regular_element == R.one()
    assert rr_closure(unit).value.contains(R.one())


def test_quotient_ring_reduction_invariants():
    # Checked by hand: I = (X, Z, U) and I^3 are closed, the closure of
    # I^2 is I^2 + (Z) (Z * X = U^3 lies in I^3), I^3 = X * (I^2 + (Z)) and
    # I^4 = X * I^3, while the closure of I^2 is not X * I.
    R = _ex13_ring()
    cfg = ClosureConfig(n_max=3)
    J = IdealHandle(R, [parse_polynomial(R, "X")])
    H = _ex13_ideal(R, "X")
    assert s_invariant(H, cfg) == (3, EXACT)
    assert rr_reduction_number(H, J, cfg) == (2, EXACT)
    defect = rr_defect(H, 1, cfg)
    assert defect.representatives == (parse_polynomial(R, "Z"),)
    bare = _ex13_ideal(R)
    for run in (lambda: s_invariant(bare, cfg),
                lambda: rr_reduction_number(bare, J, cfg),
                lambda: rr_defect(bare, 1, cfg)):
        with pytest.raises(PreconditionError, match="regular element"):
            run()


def test_regularity_is_checked_once_per_handle(monkeypatch):
    # The annihilator of the declared element is the colon of the zero
    # handle by it: one elimination for the handle, however many chains
    # and probes run on it.
    calls = []
    raw = IdealHandle.colon_element

    def counted(self, b):
        calls.append(self)
        return raw(self, b)

    monkeypatch.setattr(IdealHandle, "colon_element", counted)
    R = _ex13_ring()
    H = _ex13_ideal(R, "X")
    first = rr_closure(H)
    n_first = len(calls)
    assert rr_closure(H).status == first.status
    assert len(calls) == 2 * n_first - 1
    rr_membership_probe(parse_polynomial(R, "1"), H)
    assert sum(1 for h in calls if not h.gens) == 1


def test_probes_refuse_a_non_regular_ideal():
    # In QQ[X]/(X^2), 1 * (X)^2 = 0 = (X)^3: the union of the chain takes in
    # the whole ring, so the probes refuse I as the closures do.
    base = RingDescriptor(("X",))
    R = base.with_quotient([parse_polynomial(base, "X^2")])
    I = IdealHandle(R, [parse_polynomial(R, "X")])
    one = parse_polynomial(R, "1")
    with pytest.raises(PreconditionError, match="regular element"):
        rr_closure(I)
    with pytest.raises(PreconditionError, match="regular element"):
        rr_membership_probe(one, I)
    with pytest.raises(PreconditionError, match="regular element"):
        rr_membership_probe_via_reduction(one, I, I)


def test_to_dict_round_trippable_shapes():
    I = _mono((4, 0), (3, 1), (1, 3), (0, 4))
    d = rr_closure(I).to_dict()
    assert d["status"] == "stabilized-window"
    assert "value" in d and "k" in d
    assert Member(3).to_dict() == {"verdict": "member", "k": 3}
    assert NotMemberUpTo(6).to_dict() == {"verdict": "not-member-up-to",
                                          "k_max": 6}
    # a witness is given as text whatever its type, a semigroup's int too
    assert FailsAt(2, 11).to_dict() == {"verdict": "fails-at", "n": 2,
                                        "witness": "11"}
    assert FailsAt(2).to_dict()["witness"] is None
    assert ClosureConfig(6, 2).to_dict() == {"k_max": 6, "window": 2,
                                             "n_max": 8}
