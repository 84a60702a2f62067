"""Acceptance gate: one test and one printed pass/fail line per criterion.

Cheap criteria are recomputed directly against the engine; the heavy
randomized and basis-intensive ones are taken from a single full run of the
built-in corpus, whose total wall time is itself a criterion.
"""

import time

import pytest

from rrlab.core import RingDescriptor
from rrlab.corpus import run_corpus
from rrlab.groebner import IdealHandle
from rrlab.monomial import (MonomialIdeal, PowerLadder,
                            associated_primes_monomial, colon_monomial,
                            integral_closure_monomial, member_of_power,
                            socle_candidates)
from rrlab.parser import parse_polynomial
from rrlab.ratliff_rush import (ClosureConfig, FailsAt, Holds, Member,
                                NotMemberUpTo, is_rr_closed, rr_closure,
                                rr_membership_probe,
                                rr_membership_probe_via_reduction, rr_power)
from rrlab.reductions import (EXACT, is_reduction, prop41_equivalence_check,
                              reduction_number, rr_reduction_number,
                              s_invariant)
from rrlab.semigroup import (AffineIdeal, AffineSemigroup2D,
                             NumericalSemigroup, SemigroupIdeal)

R2 = RingDescriptor(("X", "Y"))


def _mono(*gens):
    return MonomialIdeal.from_gens(R2, gens)


def _line(tag: str, ok: bool, desc: str) -> None:
    print(f"{tag} {'PASS' if ok else 'FAIL'}: {desc}")
    assert ok, f"{tag}: {desc}"


@pytest.fixture(scope="module")
def corpus():
    t0 = time.monotonic()
    report = run_corpus()
    return report, time.monotonic() - t0


def _case(report, cid):
    return next(c for c in report["cases"] if c["id"] == cid)


def _case_ok(report, cid):
    return _case(report, cid)["verdict"] in ("pass", "bounded-pass")


I4 = _mono((4, 0), (3, 1), (1, 3), (0, 4))


def test_ac01_membership_probe_contrast():
    ok = (isinstance(rr_membership_probe((2, 2), I4), Member)
          and rr_membership_probe((2, 2), _mono((3, 0), (0, 3)))
          == NotMemberUpTo(12))
    _line("AC-01", ok, "X^2*Y^2 probes member for the four-generator ideal, "
          "not for (X^3, Y^3) through k = 12")


def test_ac02_integrally_closed_gap():
    I = _mono((4, 0), (3, 1), (2, 2), (0, 4))
    ok = (integral_closure_monomial(I).contains((1, 3))
          and rr_membership_probe((1, 3), I) == NotMemberUpTo(12)
          and is_rr_closed(I) == Holds(12))
    _line("AC-02", ok, "X*Y^3 is integral over (X^4, X^3*Y, X^2*Y^2, Y^4) "
          "but the colon chain never picks it up")


def test_ac03_closure_values():
    deg = lambda d: _mono(*((i, d - i) for i in range(d + 1)))
    ok = (rr_closure(I4).value == deg(4)
          and rr_power(I4, 2).value == deg(8)
          and rr_power(I4, 3).value == deg(12))
    _line("AC-03", ok, "closure of the four-generator ideal and of its "
          "powers n = 2, 3 are full degree-4n ideals")


def test_ac04_quotient_ring_colon():
    t0 = time.monotonic()
    base = RingDescriptor(("X", "Z", "U"))
    ring = base.with_quotient([parse_polynomial(base, t)
                               for t in ("Z^2", "Z*U", "X*Z - U^3")])
    I = IdealHandle(ring, [parse_polynomial(ring, v) for v in ("X", "Z", "U")])
    z = parse_polynomial(ring, "Z")
    ok = I.power(3).colon(I).contains(z) and not I.power(2).contains(z)
    elapsed = time.monotonic() - t0
    _line("AC-04", ok and elapsed < 5.0,
          f"maximal ideal modulo (Z^2, Z*U, X*Z-U^3): Z in I^3 : I but "
          f"Z not in I^2, in {elapsed:.2f}s (< 5s)")


_EX14_GENS = ((0, 22), (4, 18), (7, 15), (8, 14), (11, 11),
              (14, 8), (15, 7), (18, 4), (22, 0))
_EX14_SOCLE = ((3, 21), (6, 17), (7, 14), (10, 13),
               (13, 10), (14, 7), (17, 6), (21, 3))


def test_ac05_large_chain_fixed_ideal():
    t0 = time.monotonic()
    I = MonomialIdeal.from_gens(R2, _EX14_GENS)
    cfg = ClosureConfig(k_max=6, window=3)
    ladder = PowerLadder(I)
    w = (20, 24)
    ok = not member_of_power(w, ladder, 2)
    I3 = ladder.power(3)
    ok = ok and all(I3.contains((w[0] + g[0], w[1] + g[1])) for g in I.gens)
    ok = ok and set(socle_candidates(I)) == set(_EX14_SOCLE)
    ok = ok and all(rr_membership_probe(s, I, cfg) == NotMemberUpTo(6)
                    for s in _EX14_SOCLE)
    ok = ok and is_rr_closed(I, cfg) == Holds(6)
    elapsed = time.monotonic() - t0
    _line("AC-05", ok and elapsed < 30.0,
          f"degree-22 ideal: X^20*Y^24 outside I^2 yet multiplying I into "
          f"I^3; all 8 socle monomials probe non-member, in "
          f"{elapsed:.2f}s (< 30s)")


def test_ac06_powers_via_reduction_chain():
    ok = True
    for n in (3, 5):
        cfg = ClosureConfig(n_max=10) if n == 5 else ClosureConfig()
        m = (n - 1) // 2
        I = _mono((3 * n - 1, 0), (3 * n - 4, 3), (3, 3 * n - 4),
                  (0, 3 * n - 1))
        half = (3 * n - 1) * n // 2
        w = (half, half)
        ok = ok and not member_of_power(w, PowerLadder(I), n)
        J = _mono((3 * n - 1, 0), (0, 3 * n - 1))
        ok = ok and isinstance(is_reduction(I, J, cfg), Holds)
        ok = ok and (rr_membership_probe_via_reduction(w, I, J, n, cfg)
                     == Member(2 * m - 1))
    _line("AC-06", ok, "(X*Y)^{(3n-1)n/2} missed by I^n but certified into "
          "its closure through the reduction chain, n = 3, 5")


def test_ac07_affine_parameter_ideal():
    S = AffineSemigroup2D([(1, 0), (0, 2), (0, 7), (2, 5), (3, 1)])
    I = AffineIdeal.from_gens(S, [(1, 0), (0, 2)])
    I2 = I.power(2)
    ok = (not I.contains((2, 5))
          and all(I2.contains((2 + g[0], 5 + g[1])) for g in I.gens)
          and reduction_number(I, I) == 0)
    rr_r, _status = rr_reduction_number(I, I)
    ok = ok and rr_r is not None and rr_r >= 1
    _line("AC-07", ok, "affine parameter ideal (X, Y^2): X^2*Y^5 escapes I "
          "yet multiplies I into I^2; reduction number 0, closure "
          "reduction number >= 1")


def test_ac08_binomial_colon_membership():
    I = IdealHandle(R2, [parse_polynomial(R2, t) for t in
                         ("X*Y^5", "X^6 - Y^6", "X^4*Y^2 - X^2*Y^4")])
    f = parse_polynomial(R2, "X^3*Y^4")
    ok = I.power(3).colon(I.power(2)).contains(f) and not I.contains(f)
    _line("AC-08", ok, "binomial ideal: X^3*Y^4 in I^3 : I^2 but outside I")


def test_ac09_randomized_depth_and_defect(corpus):
    report, _ = corpus
    ok = _case_ok(report, "PROP-1.9")
    _line("AC-09", ok, "50 sampled zero-dimensional monomial ideals in 2-3 "
          "variables: no small graded socle, all small powers closed")


def test_ac10_failure_witness():
    I = _mono((10, 0), (0, 5), (1, 4), (8, 1))
    v = is_rr_closed(I)
    ok = (isinstance(v, FailsAt) and v.n == 1
          and v.witness == I.ring.monomial((7, 3)))
    _line("AC-10", ok, "closedness check fails at step 1 with witness "
          "X^7*Y^3")


def test_ac11_graded_probes(corpus):
    report, _ = corpus
    ok = _case_ok(report, "PROP-1.11-L3") and _case_ok(report,
                                                       "PROP-1.11-L4")
    _line("AC-11", ok, "graded non-zerodivisor probe holds for X^l while "
          "Y^l and X*Y^(l-1) fail superficiality with the expected "
          "witness families, l = 3, 4")


def test_ac12_quotient_witnesses(corpus):
    report, _ = corpus
    ok = _case_ok(report, "PROP-2.3") and _case_ok(report, "PROP-2.4")
    _line("AC-12", ok, "truncated-ring witnesses: X^(l-1)*Y escapes I+(a) "
          "yet multiplies the right power of I inside, in 2 and 3 "
          "variables")


def test_ac13_shifted_ideal_colon():
    I = _mono((5, 0), (4, 1), (2, 3), (1, 4))  # X * (X^4, X^3*Y, X*Y^3, Y^4)
    ok = (colon_monomial(I.power(2), I).contains((3, 2))
          and not I.contains((3, 2)))
    _line("AC-13", ok, "X^3*Y^2 lies in I^2 : I but outside I for the "
          "X-shifted four-generator ideal")


def test_ac14_borel_and_lex_segment(corpus):
    report, _ = corpus
    ok = _case_ok(report, "EX-3-BOREL")
    _line("AC-14", ok, "strongly stable ideal keeps X^4*Y^9 in I^2 : I "
          "minus I; lex-segment ideal is not integrally closed at X^2*Y^3")


def test_ac15_leading_term_interplay(corpus):
    report, _ = corpus
    ok = _case_ok(report, "EX-3.1") and _case_ok(report, "EX-3.2")
    _line("AC-15", ok, "leading-term ideals match the recorded values and "
          "X^3*Y^4, X^4*Y^4 separate closure from leading-term closure")


def test_ac16_three_variable_family(corpus):
    report, _ = corpus
    ok = _case_ok(report, "EX-3.3-N2") and _case_ok(report, "EX-3.3-N3")
    _line("AC-16", ok, "three-variable family: generator formula, three "
          "associated primes, and the colon by X^n*Y^n giving (X, Y, Z), "
          "n = 2, 3")


def test_ac17_embedded_prime_removed():
    R3 = RingDescriptor(("X", "Y", "Z"))
    I = MonomialIdeal.from_gens(
        R3, [(4, 0, 0), (3, 1, 0), (1, 3, 0), (0, 4, 0), (2, 2, 1)])
    full4 = MonomialIdeal.from_gens(R3, [(i, 4 - i, 0) for i in range(5)])
    res = rr_closure(I)
    ok = (associated_primes_monomial(I) == (("X", "Y"), ("X", "Y", "Z"))
          and res.value == full4
          and associated_primes_monomial(res.value) == (("X", "Y"),))
    _line("AC-17", ok, "embedded prime (X, Y, Z) disappears after closure: "
          "the closure is (X, Y)^4 with a single associated prime")


def test_ac18_prime_bounded_chain(corpus):
    report, _ = corpus
    case = _case(report, "EX-3.5")
    ok = case["verdict"] in ("pass", "bounded-pass")
    _line("AC-18", ok, "prime binomial ideal: the colon chain stays at I "
          "through the configured bound (bounded statement)")


def test_ac19_generator_counts(corpus):
    report, _ = corpus
    ok = _case_ok(report, "EX-3.6-N2") and _case_ok(report, "EX-3.6-N3")
    _line("AC-19", ok, "minimal generator counts 4+n versus 5 before and "
          "after closure, n = 2, 3")


def test_ac20_four_variable_closure(corpus):
    report, _ = corpus
    ok = _case_ok(report, "EX-3.7")
    _line("AC-20", ok, "four-variable ideal closes to the recorded "
          "9-generator value whose socle monomials all probe non-member")


def test_ac21_semigroup_invariants():
    S = NumericalSemigroup([4, 5, 11])
    I = SemigroupIdeal.from_gens(S, [4, 5, 11])
    x4 = SemigroupIdeal.from_gens(S, [4])
    ok = reduction_number(I, x4) == 3
    ok = ok and rr_power(I, 1).value.gens == I.gens
    ok = ok and rr_power(I, 2).value.gens == (8, 9, 10, 11)
    rr_r, rr_status = rr_reduction_number(I, x4)
    ok = ok and (rr_r, rr_status) == (2, EXACT)
    s, s_status = s_invariant(I)
    ok = ok and (s, s_status) == (3, EXACT)
    ok = ok and s <= 3 and rr_r <= 3
    ok = ok and x4.contains_ideal(I.power(3))
    eq2 = prop41_equivalence_check(I, 4, 2)
    eq1 = prop41_equivalence_check(I, 4, 1)
    ok = ok and eq2.all_true and eq2.all_agree
    ok = ok and eq1.all_agree and not eq1.all_true
    _line("AC-21", ok, "<4,5,11>: r = 3, s = 3, closure reduction number 2, "
          "closure of the square is (8,9,10,11), equivalence conditions "
          "agree at levels 1 and 2")


def test_ac22_randomized_reduction_order(corpus):
    report, _ = corpus
    ok = _case_ok(report, "PROP-4.5")
    _line("AC-22", ok, "50 sampled two-variable ideals with reductions "
          "(X^a, Y^b): closure reduction number never exceeds the "
          "reduction number when both are exact")


def test_ac23_oracle_cross_checks():
    # Representative slice of the oracle suites that run in full in the
    # unit tests: combinatorial colon vs basis colon, power membership vs
    # explicit expansion, and both closure chains agreeing.
    import random
    rng = random.Random(2)
    ok = True
    for _ in range(5):
        gens = sorted({(rng.randint(0, 5), rng.randint(0, 5))
                       for _ in range(4)} - {(0, 0)})
        if not gens:
            continue
        A = MonomialIdeal.from_gens(R2, gens)
        B = _mono((rng.randint(1, 3), rng.randint(0, 2)))
        fast = colon_monomial(A, B)
        slow = IdealHandle.from_monomial(A).colon(
            IdealHandle.from_monomial(B)).to_monomial_ideal()
        ok = ok and fast == slow
        ladder = PowerLadder(A)
        explicit = A * A
        ok = ok and all(member_of_power(e, ladder, 2) == explicit.contains(e)
                        for e in ((4, 4), (6, 2), (10, 10), (1, 1)))
    from rrlab.ratliff_rush import rr_closure_via_reduction
    J = _mono((4, 0), (0, 4))
    ok = ok and (rr_closure(I4).value
                 == rr_closure_via_reduction(I4, J, 1).value)
    _line("AC-23", ok, "colon, power-membership and closure-chain oracles "
          "agree (full suites run in the unit tests)")


def test_corpus_runs_clean_within_budget(corpus):
    report, elapsed = corpus
    ok = report["passed"] and not report["resource_cap"] and elapsed < 120.0
    _line("CORPUS", ok, f"{len(report['cases'])} cases, all passing, in "
          f"{elapsed:.1f}s (< 120s)")
