"""Built-in verification corpus: named cases of exact ideal identities.

Each case sets up a ring and some ideals, then checks a list of assertions
(memberships, colon/closure identities, probe verdicts, invariant values).
Assertions whose truth is only established up to a configured bound report
the verdict "bounded-pass" instead of "pass"; everything else is an exact
symbolic identity.  Randomized property cases draw their samples from a
generator seeded per case, so reports are reproducible.
"""

from __future__ import annotations

import fnmatch
import random
import time
from typing import Dict, List, Optional, Tuple

from .core import Record, RingDescriptor, exps_mul
from .errors import InputError, ResourceLimitError
from .groebner import IdealHandle
from .monomial import (MonomialIdeal, associated_primes_monomial, colon_single,
                       in_newton_polyhedron, is_borel_fixed, member_of_power,
                       socle_candidates, variable_ideal)
from .parser import parse_polynomial
from .ratliff_rush import (ClosureConfig, DEFAULT_CONFIG, FailsAt, Holds,
                           Member, NotMemberUpTo, depth_zero_witness_search,
                           gr_nzd_probe, is_rr_closed, rr_closure,
                           rr_closure_via_reduction, rr_defect,
                           rr_membership_probe,
                           rr_membership_probe_via_reduction, rr_power,
                           superficial_probe)
from .reductions import (EXACT, is_reduction, prop41_equivalence_check,
                         reduction_number, reduction_report,
                         rr_reduction_number, s_invariant)
from .semigroup import (AffineIdeal, AffineSemigroup2D, NumericalSemigroup,
                        SemigroupIdeal)

SCHEMA_VERSION = 1


# ---------------------------------------------------------------------------
# case plumbing


class _Recorder:
    """Collects assertion outcomes with per-assertion wall time."""

    def __init__(self):
        self.rows: List[dict] = []
        self._mark = time.perf_counter()

    def check(self, text: str, ok: bool, witness=None, bounded: bool = False):
        now = time.perf_counter()
        millis = int(round((now - self._mark) * 1000))
        self._mark = now
        verdict = ("bounded-pass" if bounded else "pass") if ok else "fail"
        self.rows.append({
            "assertion": text,
            "verdict": verdict,
            "witness": None if witness is None else str(witness),
            "millis": millis,
        })


class CorpusCase(Record):
    """fn(rec, cfg, rng, *args) runs the case."""

    _fields = ("id", "note", "config", "fn", "args")


_CASES: Dict[str, CorpusCase] = {}


def _case(case_id: str, note: str, *args, **cfg_kwargs):
    """Register the decorated function as the case case_id, run with args
    after (rec, cfg, rng): a family of cases stacks one _case per member."""
    config = ClosureConfig(**cfg_kwargs) if cfg_kwargs else DEFAULT_CONFIG

    def deco(fn):
        _CASES[case_id] = CorpusCase(case_id, note, config, fn, args)
        return fn
    return deco


def list_cases() -> List[Tuple[str, str]]:
    return [(cid, _CASES[cid].note) for cid in sorted(_CASES)]


def run_corpus(pattern: str = "", seed: int = 0,
               overrides: Optional[dict] = None) -> dict:
    ids = sorted(_CASES)
    if pattern:
        ids = [i for i in ids if fnmatch.fnmatchcase(i, pattern)]
        if not ids:
            raise InputError(f"no corpus case matches the filter {pattern!r}")
    report = {
        "schema": SCHEMA_VERSION,
        "seed": seed,
        "filter": pattern or "*",
        "cases": [],
    }
    all_ok = True
    hit_cap = False
    for cid in ids:
        case = _CASES[cid]
        cfg = case.config.replace(**(overrides or {}))
        rec = _Recorder()
        rng = random.Random(f"{seed}:{cid}")
        capped = False
        try:
            case.fn(rec, cfg, rng, *case.args)
        except ResourceLimitError as exc:
            capped = True
            rec.rows.append({
                "assertion": "case completes within its resource caps",
                "verdict": "fail",
                "witness": f"resource cap: {exc}",
                "millis": 0,
            })
        verdicts = [r["verdict"] for r in rec.rows]
        if "fail" in verdicts:
            verdict = "fail"
            all_ok = False
        elif "bounded-pass" in verdicts:
            verdict = "bounded-pass"
        else:
            verdict = "pass"
        hit_cap = hit_cap or capped
        report["cases"].append({
            "id": cid,
            "note": case.note,
            "config": cfg.to_dict(),
            "verdict": verdict,
            "resource_cap": capped,
            "assertions": rec.rows,
        })
    report["passed"] = all_ok
    report["resource_cap"] = hit_cap
    return report


# ---------------------------------------------------------------------------
# small builders


def _xy() -> RingDescriptor:
    return RingDescriptor(("X", "Y"))


def _mono(ring: RingDescriptor, *gens) -> MonomialIdeal:
    return MonomialIdeal.from_gens(ring, gens)


def _handle(ring: RingDescriptor, *texts: str) -> IdealHandle:
    return IdealHandle(ring, [parse_polynomial(ring, t) for t in texts])


def _deg4_nonmono(ring: RingDescriptor) -> MonomialIdeal:
    """(X^4, X^3*Y, X*Y^3, Y^4): closed only from the second power on."""
    return _mono(ring, (4, 0), (3, 1), (1, 3), (0, 4))


# ---------------------------------------------------------------------------
# introduction: non-monotonicity of the closure under inclusion


@_case("EX-INTRO-A",
       "X^2*Y^2 joins the closure of (X^4,X^3*Y,X*Y^3,Y^4) but not of the "
       "smaller ideal (X^3,Y^3)")
def _intro_a(rec, cfg, rng):
    R = _xy()
    small = _mono(R, (3, 0), (0, 3))
    big = _deg4_nonmono(R)
    v = rr_membership_probe((2, 2), big, cfg)
    rec.check("probe of X^2*Y^2 against (X^4,X^3*Y,X*Y^3,Y^4) certifies "
              "membership", isinstance(v, Member), witness=v.to_dict())
    w = rr_membership_probe((2, 2), small, cfg)
    rec.check(f"probe of X^2*Y^2 against (X^3,Y^3) finds no step through "
              f"k={cfg.k_max}", w == NotMemberUpTo(cfg.k_max), bounded=True)


@_case("EX-INTRO-B",
       "(X^4,X^3*Y,X^2*Y^2,Y^4) keeps its chain fixed yet is not integrally "
       "closed: X*Y^3 is integral over it")
def _intro_b(rec, cfg, rng):
    R = _xy()
    I = _mono(R, (4, 0), (3, 1), (2, 2), (0, 4))
    rec.check("X*Y^3 lies in the integral closure",
              in_newton_polyhedron((1, 3), I.gens))
    v = rr_membership_probe((1, 3), I, cfg)
    rec.check(f"X*Y^3 never multiplies a chain step inside, k <= {cfg.k_max}",
              v == NotMemberUpTo(cfg.k_max), bounded=True)
    closed = is_rr_closed(I, cfg)
    rec.check(f"colon chain stays at I through k = {cfg.k_max}",
              closed == Holds(cfg.k_max), bounded=True)


@_case("EX-INTRO-C",
       "the closure of (X^4,X^3*Y,X*Y^3,Y^4) is the full fourth power of "
       "(X,Y), and higher closures are the plain powers")
def _intro_c(rec, cfg, rng):
    R = _xy()
    I = _deg4_nonmono(R)
    m4 = variable_ideal(R).power(4)
    res = rr_closure(I, cfg)
    rec.check("closure value equals (X,Y)^4", res.value.gens == m4.gens,
              bounded=not res.certified)
    for n in (2, 3):
        resn = rr_power(I, n, cfg)
        rec.check(f"closure of power {n} equals (X,Y)^{4 * n}",
                  resn.value.gens == variable_ideal(R).power(4 * n).gens,
                  bounded=not resn.certified)


@_case("EX-1.2",
       "the closure chain by generator powers of a reduction agrees with "
       "the full colon chain")
def _remark_cross(rec, cfg, rng):
    R = _xy()
    I = _deg4_nonmono(R)
    J = _mono(R, (4, 0), (0, 4))
    for n in (1, 2):
        a = rr_closure_via_reduction(I, J, n, cfg)
        b = rr_power(I, n, cfg)
        rec.check(f"reduction-chain and colon-chain closures of I^{n} agree",
                  a.value.gens == b.value.gens,
                  bounded=not (a.certified and b.certified))
    K = _mono(R, (3, 0), (0, 3))
    a = rr_closure_via_reduction(K, K, 1, cfg)
    rec.check("self-reduction chain of (X^3,Y^3) returns the ideal itself",
              a.value.gens == K.gens, bounded=not a.certified)


# ---------------------------------------------------------------------------
# closed ideals with non-closed powers


@_case("EX-1.3",
       "maximal ideal of QQ[X,Z,U]/(Z^2, Z*U, X*Z-U^3): prime (hence chain-"
       "fixed) but its square is not closed, witnessed by Z")
def _wang(rec, cfg, rng):
    base = RingDescriptor(("X", "Z", "U"))
    quo = [parse_polynomial(base, t) for t in ("Z^2", "Z*U", "X*Z - U^3")]
    R = base.with_quotient(quo)
    I = IdealHandle(R, [R.variable(v) for v in ("X", "Z", "U")])
    z = R.variable("Z")
    rec.check("Z lies in I^3 : I", I.power(3).colon(I).contains(z))
    rec.check("Z lies outside I^2", not I.power(2).contains(z))


_EX14_GENS = ((0, 22), (4, 18), (7, 15), (8, 14), (11, 11),
              (14, 8), (15, 7), (18, 4), (22, 0))
_EX14_SOCLE = ((3, 21), (6, 17), (7, 14), (10, 13),
               (13, 10), (14, 7), (17, 6), (21, 3))


@_case("EX-1.4",
       "a chain-fixed monomial ideal in two variables whose square is not "
       "closed: X^20*Y^24 multiplies I into I^3 without lying in I^2",
       k_max=6)
def _ex14(rec, cfg, rng):
    R = _xy()
    I = _mono(R, *_EX14_GENS)
    m = (20, 24)
    rec.check("X^20*Y^24 lies outside I^2", not I.power(2).contains(m))
    I3 = I.power(3)
    rec.check("X^20*Y^24 multiplies I into I^3",
              all(I3.contains(exps_mul(m, g)) for g in I.gens))
    socle = socle_candidates(I)
    rec.check("exactly eight socle candidates, as listed",
              set(socle) == set(_EX14_SOCLE), witness=sorted(socle))
    for c in sorted(socle):
        v = rr_membership_probe(c, I, cfg)
        rec.check(f"socle candidate {R.format_exponents(c)} stays outside "
                  f"through k = {cfg.k_max}",
                  v == NotMemberUpTo(cfg.k_max), bounded=True)
    closed = is_rr_closed(I, cfg)
    rec.check(f"colon chain stays at I through k = {cfg.k_max}",
              closed == Holds(cfg.k_max), bounded=True)


@_case("EX-1.5-N3",
       "a non-closed third power detected through its reduction chain (four "
       "generators of degree about 3n, n = 3)", 3)
@_case("EX-1.5-N5",
       "a non-closed fifth power detected through its reduction chain (four "
       "generators of degree about 3n, n = 5)", 5, n_max=10)
def _ex15(rec, cfg, rng, n: int):
    m = (n - 1) // 2
    R = _xy()
    I = _mono(R, (3 * n - 1, 0), (3 * n - 4, 3), (3, 3 * n - 4), (0, 3 * n - 1))
    half = (3 * n - 1) * n // 2
    w = (half, half)
    rec.check(f"(X*Y)^{half} lies outside I^{n}",
              not member_of_power(w, I, n))
    J = _mono(R, (3 * n - 1, 0), (0, 3 * n - 1))
    rec.check("the two extreme generators form a verified reduction",
              isinstance(is_reduction(I, J, cfg), Holds))
    k = 2 * m - 1
    v = rr_membership_probe_via_reduction(w, I, J, n, cfg)
    rec.check(f"reduction-chain probe certifies membership for the power-{n} "
              f"chain at step k = {k}", v == Member(k), witness=v.to_dict())


def _raghavan_setup():
    S = AffineSemigroup2D([(1, 0), (0, 2), (0, 7), (2, 5), (3, 1)])
    I = AffineIdeal.from_gens(S, [(1, 0), (0, 2)])
    return S, I


@_case("EX-1.7",
       "parameter ideal (X, Y^2) of the affine semigroup ring "
       "QQ[X, Y^2, Y^7, X^2*Y^5, X^3*Y]: X^2*Y^5 multiplies I into I^2 "
       "without lying in I")
def _raghavan(rec, cfg, rng):
    S, I = _raghavan_setup()
    rec.check("X^2*Y^5 is a ring element", S.contains((2, 5)))
    rec.check("X*Y^5 is not a ring element", not S.contains((1, 5)))
    rec.check("X^2*Y^5 lies outside I", not I.contains((2, 5)))
    I2 = I.power(2)
    rec.check("X^2*Y^5 multiplies I into I^2",
              all(I2.contains((2 + g[0], 5 + g[1])) for g in I.gens))
    rec.check("X^2*Y^5 lies outside the principal ideal (X)",
              not AffineIdeal.from_gens(S, [(1, 0)]).contains((2, 5)))


@_case("EX-1.8",
       "binomial ideal (X*Y^5, X^6-Y^6, X^4*Y^2-X^2*Y^4): the monomial "
       "X^3*Y^4 lies in I^3 : I^2 but not in I")
def _ex18(rec, cfg, rng):
    R = _xy()
    I = _handle(R, "X*Y^5", "X^6 - Y^6", "X^4*Y^2 - X^2*Y^4")
    f = parse_polynomial(R, "X^3*Y^4")
    rec.check("X^3*Y^4 lies in I^3 : I^2",
              I.power(3).colon(I.power(2)).contains(f))
    rec.check("X^3*Y^4 lies outside I", not I.contains(f))


@_case("PROP-1.9",
       "randomized property: ideals (X_1^a_1, ..., X_d^a_d, X^v) with "
       "a_i > v_i and two nonzero v_i have all small powers closed and no "
       "small graded socle", n_max=4)
def _prop19(rec, cfg, rng):
    for d, count, amax in ((2, 25, 5), (3, 25, 3)):
        names = ("X", "Y", "Z")[:d]
        ring = RingDescriptor(names)
        violation = None
        for _ in range(count):
            alpha = [rng.randint(2, amax) for _ in range(d)]
            while True:
                nu = tuple(rng.randint(0, a - 1) for a in alpha)
                if sum(1 for v in nu if v > 0) >= 2:
                    break
            gens = [tuple(a if j == i else 0 for j in range(d))
                    for i, a in enumerate(alpha)] + [nu]
            I = MonomialIdeal.from_gens(ring, gens)
            probe = depth_zero_witness_search(I, cfg)
            if not isinstance(probe, Holds):
                violation = (I, "graded socle witness", probe.witness)
                break
            for n in range(0, 4):
                defect = rr_defect(I, n, cfg)
                if not defect.is_empty():
                    violation = (I, f"nonempty defect of I^{n + 1}",
                                 defect.representatives)
                    break
            if violation:
                break
        rec.check(f"{count} sampled ideals in {d} variables: no socle "
                  f"witness up to degree {cfg.n_max}, powers 1..4 closed",
                  violation is None, witness=violation, bounded=True)


@_case("EX-1.10",
       "(X^10, Y^5, X*Y^4, X^8*Y) is not chain-fixed: X^7*Y^3 already "
       "enters at the first colon step")
def _ex110(rec, cfg, rng):
    R = _xy()
    I = _mono(R, (10, 0), (0, 5), (1, 4), (8, 1))
    rec.check("X^7*Y^3 lies in I^2 : I",
              I.power(2).colon(I).contains((7, 3)))
    rec.check("X^7*Y^3 lies outside I", not I.contains((7, 3)))
    v = is_rr_closed(I, cfg)
    rec.check("closedness check fails at the first step with witness "
              "X^7*Y^3",
              isinstance(v, FailsAt) and v.n == 1
              and v.witness == R.monomial((7, 3)),
              witness=v.to_dict())


@_case("PROP-1.11-L3",
       "(X^3, X*Y^2, Y^3): graded ring of depth exactly one — X^3 is a "
       "non-zerodivisor while X^2*Y witnesses the socle bound", 3)
@_case("PROP-1.11-L4",
       "(X^4, X*Y^3, Y^4): graded ring of depth exactly one — X^4 is a "
       "non-zerodivisor while X^3*Y witnesses the socle bound", 4)
def _prop111(rec, cfg, rng, l: int):
    R = _xy()
    I = _mono(R, (l, 0), (1, l - 1), (0, l))
    v = gr_nzd_probe((l, 0), I, 1, cfg)
    rec.check(f"X^{l} is a non-zerodivisor on the graded ring through "
              f"degree {cfg.n_max}", v == Holds(cfg.n_max), bounded=True)
    g = (l - 1, 1)
    xl = _mono(R, (l, 0))
    two = I.power(2) + xl
    rec.check(f"X * X^{l - 1}*Y lies in I",
              I.contains(exps_mul((1, 0), g)))
    rec.check(f"Y^{l - 2} * X^{l - 1}*Y lies in I",
              I.contains(exps_mul((0, l - 2), g)))
    rec.check(f"X^{l} * X^{l - 1}*Y lies in I^2 + (X^{l})",
              two.contains(exps_mul((l, 0), g)))
    rec.check(f"X*Y^{l - 1} * X^{l - 1}*Y lies in I^2 + (X^{l})",
              two.contains(exps_mul((1, l - 1), g)))
    rec.check(f"Y^{l * (l - 2)} * X^{l - 1}*Y lies in I^{l - 1} + (X^{l})",
              (I.power(l - 1) + xl).contains(exps_mul((0, l * (l - 2)), g)))
    sup_y = superficial_probe((0, l), I, cfg)
    rec.check(f"Y^{l} fails the superficiality scan",
              isinstance(sup_y, FailsAt), witness=sup_y.to_dict())
    for n in (2, 3):
        w = (2 + l * n - l, l - 2)
        ok = (member_of_power(w, I, n - 1)
              and not member_of_power(w, I, n)
              and member_of_power(exps_mul(w, (0, l)), I, n + 1))
        rec.check(f"witness family for Y^{l} checks at n = {n}", ok,
                  witness=R.format_exponents(w))
    sup_m = superficial_probe((1, l - 1), I, cfg)
    rec.check(f"X*Y^{l - 1} fails the superficiality scan",
              isinstance(sup_m, FailsAt), witness=sup_m.to_dict())
    for n in (2, 3):
        w = (l * n - 1, 1)
        ok = (member_of_power(w, I, n - 1)
              and not member_of_power(w, I, n)
              and member_of_power(exps_mul(w, (1, l - 1)), I, n + 1))
        rec.check(f"witness family for X*Y^{l - 1} checks at n = {n}", ok,
                  witness=R.format_exponents(w))


@_case("PROP-2.3",
       "(X^3, X*Y^2, Y^3) modulo the superficial element X^3: the image of "
       "X^2*Y multiplies I^3 into I^4 without lying in I")
def _prop23(rec, cfg, rng):
    l = 3
    base = _xy()
    R = base.with_quotient([parse_polynomial(base, f"X^{l}")])
    I = _handle(R, f"X^{l}", f"X*Y^{l - 1}", f"Y^{l}")
    g = parse_polynomial(R, f"X^{l - 1}*Y")
    rec.check(f"X^{l - 1}*Y lies outside I + (X^{l})", not I.contains(g))
    low = I.power(2 * l - 3)
    high = I.power(2 * l - 2)
    rec.check(f"X^{l - 1}*Y multiplies I^{2 * l - 3} into "
              f"(X^{l}) + I^{2 * l - 2}",
              all(high.contains(g * h) for h in low.gens))


@_case("PROP-2.4",
       "all degree-3 monomials except X1^2*X2, modulo the superficial "
       "element X1^3: the image of X1^2*X2 multiplies I into I^2 without "
       "lying in I (d = 2 and 3)")
def _prop24(rec, cfg, rng):
    l = 3
    for d in (2, 3):
        names = tuple(f"X{i + 1}" for i in range(d))
        base = RingDescriptor(names)
        skip = (l - 1, 1) + (0,) * (d - 2)
        gens = [e for e in variable_ideal(base).power(l).gens if e != skip]
        M = MonomialIdeal.from_gens(base, gens)
        units = [tuple(1 if j == i else 0 for j in range(d)) for i in range(d)]
        rec.check(f"d={d}: every variable multiplies X1^2*X2 into I",
                  all(M.contains(exps_mul(skip, u)) for u in units))
        xl = MonomialIdeal.from_gens(base, [(l,) + (0,) * (d - 1)])
        rec.check(f"d={d}: X1^2*X2 multiplies I into I^2 + (X1^3)",
                  all((M.power(2) + xl).contains(exps_mul(skip, g))
                      for g in M.gens))
        R = base.with_quotient([parse_polynomial(base, f"X1^{l}")])
        I = IdealHandle(R, [parse_polynomial(R, base.format_exponents(e))
                            for e in gens])
        g = parse_polynomial(R, "X1^2*X2")
        rec.check(f"d={d}: image of X1^2*X2 lies outside I modulo X1^3",
                  not I.contains(g))
        I2 = I.power(2)
        rec.check(f"d={d}: image of X1^2*X2 multiplies I into I^2 modulo "
                  "X1^3", all(I2.contains(g * h) for h in I.gens))


@_case("EX-2.6",
       "X*(X^4, X^3*Y, X*Y^3, Y^4): scaling by a principal ideal keeps the "
       "defect — X^3*Y^2 lies in I^2 : I but not in I")
def _ex26(rec, cfg, rng):
    R = _xy()
    I = _mono(R, (5, 0), (4, 1), (2, 3), (1, 4))
    rec.check("X^3*Y^2 lies in I^2 : I",
              I.power(2).colon(I).contains((3, 2)))
    rec.check("X^3*Y^2 lies outside I", not I.contains((3, 2)))


# ---------------------------------------------------------------------------
# leading terms, exchange-stable ideals, associated primes


@_case("EX-3-BOREL",
       "an exchange-stable ideal with a non-closed chain, and a "
       "lex-segment ideal that is not integrally closed")
def _borel(rec, cfg, rng):
    R = _xy()
    I = _mono(R, (6, 0), (5, 4), (4, 11), (3, 13), (2, 17), (1, 23), (0, 29))
    rec.check("stable under moving one exponent unit from Y to X "
              "(priority X before Y, direction to-larger)",
              is_borel_fixed(I, (0, 1), "to-larger"))
    rec.check("X^4*Y^9 lies in I^2 : I",
              I.power(2).colon(I).contains((4, 9)))
    rec.check("X^4*Y^9 lies outside I", not I.contains((4, 9)))
    B = _mono(R, (4, 0), (3, 1), (2, 4), (1, 5), (0, 7))
    rec.check("lex-segment case: X^2*Y^3 is integral over the ideal",
              in_newton_polyhedron((2, 3), B.gens))
    rec.check("lex-segment case: X^2*Y^3 lies outside the ideal",
              not B.contains((2, 3)))
    rec.check("lex-segment case: (X^2*Y^3)^2 lies in the square",
              member_of_power((4, 6), B, 2))


@_case("EX-3.1",
       "leading terms under graded reverse-lex X > Y: the leading-term "
       "ideal of (X*Y^5, X^6-Y^6, X^4*Y^2-X^2*Y^4) is chain-fixed while "
       "the ideal itself is not; X^3*Y^4 leads the closure value",
       k_max=4, window=2)
def _ex31(rec, cfg, rng):
    R = _xy()
    I = _handle(R, "X*Y^5", "X^6 - Y^6", "X^4*Y^2 - X^2*Y^4")
    L = I.leading_term_ideal()
    rec.check("leading-term ideal is (X*Y^5, X^6, X^4*Y^2, Y^8)",
              set(L.gens) == {(1, 5), (6, 0), (4, 2), (0, 8)},
              witness=str(L))
    resL = rr_closure(L, cfg)
    rec.check("the leading-term ideal's chain stays put",
              resL.value.gens == L.gens, bounded=not resL.certified)
    resI = rr_closure(I, cfg)
    LC = resI.value.leading_term_ideal()
    rec.check("X^3*Y^4 leads the closure value but not the leading-term "
              "ideal's closure",
              LC.contains((3, 4)) and not resL.value.contains((3, 4)),
              bounded=not resI.certified)
    rec.check("leading terms of I sit inside leading terms of the closure "
              "value", LC.contains_ideal(L))


@_case("EX-3.2",
       "(X^7*Y-X^2*Y^5, X^5*Y^2, X^2*Y^5-X*Y^6, Y^7): the leading-term "
       "ideal is not chain-fixed although the ideal is — X^4*Y^4 enters "
       "its first colon step")
def _ex32(rec, cfg, rng):
    R = _xy()
    I = _handle(R, "X^7*Y - X^2*Y^5", "X^5*Y^2", "X^2*Y^5 - X*Y^6", "Y^7")
    L = I.leading_term_ideal()
    rec.check("leading-term ideal is (X^7*Y, X^5*Y^2, X^2*Y^5, Y^7)",
              set(L.gens) == {(7, 1), (5, 2), (2, 5), (0, 7)},
              witness=str(L))
    rec.check("X^4*Y^4 lies in (lt I)^2 : lt I",
              L.power(2).colon(L).contains((4, 4)))
    rec.check("X^4*Y^4 lies outside lt I", not L.contains((4, 4)))


@_case("EX-3.3-N2",
       "intersection ideal in three variables whose closure acquires the "
       "maximal ideal as an associated prime (n = 2)", 2)
@_case("EX-3.3-N3",
       "intersection ideal in three variables whose closure acquires the "
       "maximal ideal as an associated prime (n = 3)", 3)
def _ex33(rec, cfg, rng, n: int):
    R = RingDescriptor(("X", "Y", "Z"))
    J = _mono(R, *[(i, 2 * n - i, 0) for i in range(2 * n + 1) if i != n])
    A = _mono(R, (n, 0, 0), (0, 0, 1))
    B = _mono(R, (0, n, 0), (0, 0, 1))
    I = J.intersect(A).intersect(B)
    formula = _mono(R, *([(i, 2 * n - i, 1) for i in range(2 * n + 1)
                          if i != n]
                         + [(n, n + 1, 0), (n + 1, n, 0)]))
    rec.check(f"n={n}: triple intersection matches the explicit generator "
              "formula", I.gens == formula.gens, witness=str(I))
    rec.check(f"n={n}: intersecting with (X^{n}*Y^{n}, Z) gives the same "
              "ideal",
              I.gens == J.intersect(_mono(R, (n, n, 0), (0, 0, 1))).gens)
    rec.check(f"n={n}: associated primes are (X,Y), (X,Z), (Y,Z)",
              associated_primes_monomial(I)
              == (("X", "Y"), ("X", "Z"), ("Y", "Z")))
    rec.check(f"n={n}: X^{n}*Y^{n}*Z lies in I^2 : I",
              I.power(2).colon(I).contains((n, n, 1)))
    res = rr_closure(I, cfg)
    C = res.value
    rec.check(f"n={n}: X^{n}*Y^{n} stays outside the closure value",
              not C.contains((n, n, 0)), bounded=not res.certified)
    rec.check(f"n={n}: closure value colon X^{n}*Y^{n} is the maximal "
              "ideal — (X,Y,Z) becomes associated",
              colon_single(C, (n, n, 0)).gens == variable_ideal(R).gens,
              bounded=not res.certified)


@_case("EX-3.4",
       "(X^4, X^3*Y, X*Y^3, Y^4, X^2*Y^2*Z): the closure (X,Y)^4 loses the "
       "embedded prime (X,Y,Z)")
def _ex34(rec, cfg, rng):
    R = RingDescriptor(("X", "Y", "Z"))
    I = _mono(R, (4, 0, 0), (3, 1, 0), (1, 3, 0), (0, 4, 0), (2, 2, 1))
    rec.check("associated primes are (X,Y) and (X,Y,Z)",
              associated_primes_monomial(I) == (("X", "Y"), ("X", "Y", "Z")))
    rec.check("X^2*Y^2 lies in I^2 : I",
              I.power(2).colon(I).contains((2, 2, 0)))
    res = rr_closure(I, cfg)
    xy4 = ((4, 0, 0), (3, 1, 0), (2, 2, 0), (1, 3, 0), (0, 4, 0))
    rec.check("closure value equals (X,Y)^4",
              set(res.value.gens) == set(xy4), bounded=not res.certified)
    rec.check("associated primes of the closure value reduce to (X,Y)",
              associated_primes_monomial(res.value) == (("X", "Y"),))


@_case("EX-3.5",
       "the height-two prime (X^3-Y*Z, Y^2-X*Z, Z^2-X^2*Y): colon chain "
       "stays at I through the configured bound", k_max=6, n_max=6)
def _ex35(rec, cfg, rng):
    R = RingDescriptor(("X", "Y", "Z"))
    I = _handle(R, "X^3 - Y*Z", "Y^2 - X*Z", "Z^2 - X^2*Y")
    v = is_rr_closed(I, cfg)
    rec.check(f"colon chain stays at I through k = {cfg.k_max}",
              v == Holds(cfg.k_max), bounded=True)


@_case("EX-3.6-N2",
       "a 6-generated ideal whose closure needs only 5 generators (n = 2)", 2)
@_case("EX-3.6-N3",
       "a 7-generated ideal whose closure needs only 5 generators (n = 3)", 3)
def _ex36(rec, cfg, rng, n: int):
    names = ("X", "Y") + tuple(f"Z{i + 1}" for i in range(n))
    R = RingDescriptor(names)
    d = len(names)
    pad = lambda e: e + (0,) * (d - 2)
    gens = [pad((4, 0)), pad((3, 1)), pad((1, 3)), pad((0, 4))]
    for i in range(n):
        e = [2, 2] + [0] * n
        e[2 + i] = 1
        gens.append(tuple(e))
    I = MonomialIdeal.from_gens(R, gens)
    rec.check(f"n={n}: the ideal has {4 + n} minimal generators",
              len(I.gens) == 4 + n)
    res = rr_closure(I, cfg)
    xy4 = {pad((4, 0)), pad((3, 1)), pad((2, 2)), pad((1, 3)), pad((0, 4))}
    rec.check(f"n={n}: closure value equals (X,Y)^4 with 5 minimal "
              "generators — fewer than the ideal itself",
              set(res.value.gens) == xy4 and len(res.value.gens) == 5,
              bounded=not res.certified)


_EX37_CLOSURE = ((4, 0, 0, 0), (3, 1, 0, 0), (2, 2, 0, 0), (1, 3, 0, 0),
                 (0, 4, 0, 0), (0, 0, 4, 0), (0, 0, 0, 4),
                 (1, 1, 2, 0), (1, 1, 0, 2))
_EX37_SOCLE = ((1, 2, 1, 1), (2, 1, 1, 1), (3, 0, 3, 3), (0, 3, 3, 3))


@_case("EX-3.7",
       "a zero-dimensional 10-generated ideal in four variables whose "
       "closure needs only 9 generators", k_max=8)
def _ex37(rec, cfg, rng):
    R = RingDescriptor(("X", "Y", "U", "V"))
    I = _mono(R, (4, 0, 0, 0), (3, 1, 0, 0), (1, 3, 0, 0), (0, 4, 0, 0),
              (2, 2, 1, 0), (2, 2, 0, 1), (0, 0, 4, 0), (0, 0, 0, 4),
              (1, 1, 2, 0), (1, 1, 0, 2))
    rec.check("the ideal has 10 minimal generators", len(I.gens) == 10)
    res = rr_closure(I, cfg)
    rec.check("closure value has exactly the 9 listed generators",
              set(res.value.gens) == set(_EX37_CLOSURE),
              bounded=not res.certified, witness=str(res.value))
    J = MonomialIdeal.from_gens(R, _EX37_CLOSURE)
    socle = socle_candidates(J)
    rec.check("the closure value has exactly 4 socle candidates",
              set(socle) == set(_EX37_SOCLE), witness=sorted(socle))
    for c in sorted(socle):
        v = rr_membership_probe(c, I, cfg)
        rec.check(f"socle candidate {R.format_exponents(c)} stays outside "
                  f"the chain through k = {cfg.k_max}",
                  v == NotMemberUpTo(cfg.k_max), bounded=True)


# ---------------------------------------------------------------------------
# reduction numbers


@_case("EX-4.3",
       "maximal ideal of the numerical semigroup ring <4,5,11>: reduction "
       "number 3, closure reduction number 2, closedness index 3")
def _ex43(rec, cfg, rng):
    S = NumericalSemigroup([4, 5, 11])
    I = SemigroupIdeal.from_gens(S, [4, 5, 11])
    x4 = SemigroupIdeal.from_gens(S, [4])
    rec.check("reduction number against the principal reduction (t^4) is 3",
              reduction_number(I, x4, cfg) == 3)
    res1 = rr_power(I, 1, cfg)
    rec.check("the ideal itself is chain-fixed", res1.value.gens == I.gens)
    res2 = rr_power(I, 2, cfg)
    rec.check("closure of the square is (t^8, t^9, t^10, t^11)",
              res2.value.gens == (8, 9, 10, 11), witness=str(res2.value))
    rec.check("the square itself is strictly smaller",
              I.power(2).gens != res2.value.gens,
              witness=str(I.power(2)))
    rr_r, rr_status = rr_reduction_number(I, x4, cfg)
    rec.check("closure reduction number is 2, exactly within the bound",
              rr_r == 2 and rr_status == EXACT)
    s, s_status = s_invariant(I, cfg)
    rec.check("closedness index s is 3, exactly within the bound",
              s == 3 and s_status == EXACT)
    rec.check("s <= r and the closure reduction number <= r",
              s <= 3 and rr_r <= 3)
    in_x4 = x4.contains_ideal(I.power(3))
    rec.check("closure reduction number drops below r exactly because I^3 "
              "sits inside (t^4)", in_x4 and rr_r < 3)
    eq2 = prop41_equivalence_check(I, 4, 2, cfg)
    rec.check("equivalence conditions at level 2 all hold and agree",
              eq2.all_true and eq2.all_agree, witness=eq2.to_dict())
    eq1 = prop41_equivalence_check(I, 4, 1, cfg)
    rec.check("equivalence conditions at level 1 all fail and agree",
              (not eq1.cond_b) and (not eq1.cond_de)
              and (not eq1.cokernel_trivial) and eq1.all_agree,
              witness=eq1.to_dict())


@_case("EX-4.4",
       "parameter ideal of an affine semigroup ring with reduction number "
       "0 whose closure reduction number is positive")
def _ex44(rec, cfg, rng):
    S, I = _raghavan_setup()
    rec.check("reduction number of the ideal against itself is 0",
              reduction_number(I, I, cfg) == 0)
    res = rr_closure(I, cfg)
    rec.check("the closure value gains X^2*Y^5",
              res.value.contains((2, 5)) and res.value.gens != I.gens,
              bounded=not res.certified, witness=str(res.value))
    rr_r, rr_status = rr_reduction_number(I, I, cfg)
    rec.check("closure reduction number is at least 1 — larger than the "
              "reduction number 0",
              rr_r is not None and rr_r >= 1,
              bounded=(rr_status != EXACT), witness=f"rr_r={rr_r}")


@_case("PROP-4.5",
       "randomized property: for sampled two-variable zero-dimensional "
       "ideals with verified reductions (X^a, Y^b), the closure reduction "
       "number never exceeds the reduction number", n_max=6)
def _prop45(rec, cfg, rng):
    R = _xy()
    violation = None
    compared = 0
    for _ in range(50):
        a = rng.randint(2, 5)
        b = rng.randint(2, 5)
        extras = []
        for _ in range(rng.randint(1, 3)):
            i = rng.randint(1, a - 1)
            j_min = -((-b * (a - i)) // a)  # ceil(b*(a-i)/a)
            if j_min <= b - 1:
                extras.append((i, rng.randint(j_min, b - 1)))
        if not extras:
            continue
        I = MonomialIdeal.from_gens(R, [(a, 0), (0, b)] + extras)
        J = _mono(R, (a, 0), (0, b))
        rep = reduction_report(I, J, cfg)
        if rep.r is None or rep.rr_r is None:
            continue
        if rep.r_status == EXACT and rep.rr_r_status == EXACT:
            compared += 1
            if rep.rr_r > rep.r:
                violation = (I, rep.to_dict())
                break
    rec.check("50 sampled ideals: closure reduction number <= reduction "
              "number whenever both are exact within the bound",
              violation is None and compared > 0,
              witness=violation or f"compared={compared}", bounded=True)
