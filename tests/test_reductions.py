"""Reduction verdicts, reduction numbers and the closure-power recursion."""

import pytest

from rrlab.core import RingDescriptor
from rrlab.errors import PreconditionError
from rrlab.monomial import MonomialIdeal
from rrlab.ratliff_rush import (ClosureConfig, FailsAt, Holds,
                                rr_closure_via_reduction,
                                rr_membership_probe_via_reduction)
from rrlab.reductions import (BOUNDED, EXACT, is_reduction,
                              prop41_equivalence_check, reduction_number,
                              reduction_report, rr_reduction_number,
                              s_invariant)
from rrlab.semigroup import NumericalSemigroup, SemigroupIdeal

R = RingDescriptor(("X", "Y"))


def _mono(*gens):
    return MonomialIdeal.from_gens(R, gens)


I4 = _mono((4, 0), (3, 1), (1, 3), (0, 4))
J4 = _mono((4, 0), (0, 4))


def test_is_reduction_verdicts():
    assert is_reduction(I4, J4) == Holds(2)
    assert is_reduction(I4, I4) == Holds(0)
    bad = _mono((4, 0))
    assert isinstance(is_reduction(I4, bad), FailsAt)


def test_reduction_number_values():
    assert reduction_number(I4, J4) == 2
    assert reduction_number(I4, I4) == 0
    with pytest.raises(PreconditionError):
        reduction_number(I4, _mono((4, 0)))


def test_bounded_search_reads_n_max_from_the_config():
    # r = 2 for J4, so a bound of 1 finds nothing and the refusal says so
    cfg = ClosureConfig(n_max=1)
    assert I4.reduction_index(J4, 1) is None
    assert I4.reduction_index(J4, 2) == 2
    assert is_reduction(I4, J4, cfg) == FailsAt(1)
    with pytest.raises(PreconditionError,
                       match="J did not verify as a reduction of I within n_max=1"):
        reduction_number(I4, J4, cfg)


def test_non_reduction_refused_once_with_one_message():
    bad = _mono((4, 0))  # (X^4) is not a reduction of I4
    refusals = [lambda: reduction_number(I4, bad),
                lambda: rr_closure_via_reduction(I4, bad, 1),
                lambda: rr_membership_probe_via_reduction((2, 2), I4, bad),
                lambda: prop41_equivalence_check(I4, (4, 0), 0)]
    messages = set()
    for refuse in refusals:
        with pytest.raises(PreconditionError) as exc:
            refuse()
        messages.add(str(exc.value))
    assert messages == {"J did not verify as a reduction of I within n_max=8"}


def test_reduction_defining_identity():
    # J I^r = I^{r+1} at r and not below.
    r = reduction_number(I4, J4)
    assert J4 * I4.power(r) == I4.power(r + 1)
    assert J4 * I4.power(r - 1) != I4.power(r)


def test_rr_reduction_number_and_s_invariant():
    S = NumericalSemigroup([4, 5, 11])
    I = SemigroupIdeal.from_gens(S, [4, 5, 11])
    assert reduction_number(I, I) == 0
    n, status = rr_reduction_number(I, I)
    assert (n, status) == (2, EXACT)
    s, status = s_invariant(I)
    assert (s, status) == (3, EXACT)


def test_report_orders_invariants():
    S = NumericalSemigroup([4, 5, 11])
    I = SemigroupIdeal.from_gens(S, [4, 5, 11])
    rep = reduction_report(I, I)
    assert rep.r == 3 or rep.r == 0  # r is relative to J = I here: 0
    assert rep.rr_r is not None and rep.s is not None
    assert rep.rr_r <= max(rep.r, rep.rr_r)


def test_report_on_monomial_pair():
    rep = reduction_report(I4, J4)
    assert rep.r == 2
    if rep.rr_r is not None and rep.rr_r_status == EXACT:
        assert rep.rr_r <= rep.r


def test_report_json_shape_is_pinned():
    d = reduction_report(I4, J4).to_dict()
    assert list(d.items()) == [
        ("ideal", "(Y^4, X*Y^3, X^3*Y, X^4)"), ("reduction", "(Y^4, X^4)"),
        ("n_max", 8), ("r", 2), ("r_status", EXACT), ("rr_r", 1),
        ("rr_r_status", EXACT), ("s", 2), ("s_status", EXACT)]


def test_prop41_equivalence_known_levels():
    S = NumericalSemigroup([4, 5, 11])
    I = SemigroupIdeal.from_gens(S, [4, 5, 11])
    ok = prop41_equivalence_check(I, 4, 2)
    assert ok.all_true and ok.all_agree
    low = prop41_equivalence_check(I, 4, 1)
    assert low.all_agree and not low.all_true


def test_prop41_preconditions():
    S = NumericalSemigroup([4, 5, 11])
    I = SemigroupIdeal.from_gens(S, [4, 5, 11])
    with pytest.raises(PreconditionError):
        prop41_equivalence_check(I, 11, 1)  # (11) is not a reduction


def test_statuses_reflect_bound():
    tight = ClosureConfig(k_max=2, window=2, n_max=2)
    n, status = s_invariant(I4, tight)
    assert status in (EXACT, BOUNDED)


def _count_rr_power(monkeypatch):
    import rrlab.reductions as red
    calls = []
    real = red.rr_power

    def counting(I, n, *args, **kwargs):
        calls.append(n)
        return real(I, n, *args, **kwargs)

    monkeypatch.setattr(red, "rr_power", counting)
    return calls


def test_report_runs_each_closure_once(monkeypatch):
    calls = _count_rr_power(monkeypatch)
    I = _mono((5, 0), (4, 2), (2, 4), (0, 5))
    J = _mono((5, 0), (0, 5))
    rep = reduction_report(I, J, ClosureConfig(n_max=6))
    assert sorted(calls) == list(range(1, 8))
    assert (rep.r, rep.r_status) == (1, EXACT)
    assert (rep.rr_r, rep.rr_r_status) == (1, EXACT)
    assert (rep.s, rep.s_status) == (0, EXACT)


def test_report_statuses_cover_their_own_powers():
    # Only the chain of I^3 reaches its bound: I^3 is read by rr_r, not by s.
    I = _mono((8, 0), (5, 3), (3, 5), (0, 8))
    J = _mono((8, 0), (0, 8))
    rep = reduction_report(I, J, ClosureConfig(k_max=2, window=2, n_max=2))
    assert (rep.rr_r, rep.rr_r_status) == (None, BOUNDED)
    assert (rep.s, rep.s_status) == (0, EXACT)
