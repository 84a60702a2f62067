"""Ascending colon-chain engine with honest certification.

The closure of a regular ideal is the union of the ascending chain
I^{k+1} : I^k.  No terminating criterion exists, so every result carries a
status: StabilizedWindow (the chain repeated for `window` consecutive
steps) or BoundReached (the step cap was hit; the value is only a lower
bound).  Probes likewise return bounded verdicts, never certificates.

The chain ascends, so each step only has to find what lies beyond the
running value.  The monomial colon takes that value as a floor and returns
it unchanged when the step adds nothing; such a step reports itself quiet
(None) and skips the containment test.  Backends whose colon has no floor
compute the full colon and leave the test to the chain driver.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple, Union

from .core import Exponents, Monomial, Polynomial, exps_mul
from .errors import (PreconditionError, UnsupportedOperationError,
                     ZeroIdealError)
from .groebner import IdealHandle
from .monomial import (MonomialIdeal, PowerLadder, colon_monomial,
                       colon_single, intersect_monomial, variable_ideal)

IdealLike = Union[MonomialIdeal, IdealHandle]


# ---------------------------------------------------------------------------
# configuration / results


@dataclass(frozen=True)
class ClosureConfig:
    k_max: int = 12
    window: int = 3
    n_max: int = 8

    def __post_init__(self):
        if not (self.k_max >= self.window >= 2):
            raise PreconditionError("require k_max >= window >= 2")
        if self.n_max < 1:
            raise PreconditionError("n_max must be >= 1")


DEFAULT_CONFIG = ClosureConfig()


@dataclass(frozen=True)
class StabilizedWindow:
    k: int          # step at which the stability window completed
    window: int

    def to_dict(self):
        return {"status": "stabilized-window", "k": self.k, "window": self.window}


@dataclass(frozen=True)
class BoundReached:
    k_max: int

    def to_dict(self):
        return {"status": "bound-reached", "k_max": self.k_max}


@dataclass(frozen=True)
class ClosureResult:
    value: IdealLike
    status: Union[StabilizedWindow, BoundReached]
    growth_steps: Tuple[int, ...]  # chain indices k where the value grew

    @property
    def certified(self) -> bool:
        return isinstance(self.status, StabilizedWindow)

    def to_dict(self):
        d = self.status.to_dict()
        d["growth_steps"] = list(self.growth_steps)
        d["value"] = str(self.value)
        return d


# probe outcomes ------------------------------------------------------------


@dataclass(frozen=True)
class Member:
    k: int  # smallest verified step: m * I^k is inside I^{k+1}

    def to_dict(self):
        return {"verdict": "member", "k": self.k}


@dataclass(frozen=True)
class NotMemberUpTo:
    k_max: int

    def to_dict(self):
        return {"verdict": "not-member-up-to", "k_max": self.k_max}


@dataclass(frozen=True)
class Holds:
    bound: int  # range bound the identity was checked through (or the
                # certified parameter, e.g. the offset c for superficiality)

    def to_dict(self):
        return {"verdict": "holds", "bound": self.bound}


@dataclass(frozen=True)
class FailsAt:
    n: int
    witness: object = None

    def to_dict(self):
        return {"verdict": "fails-at", "n": self.n,
                "witness": None if self.witness is None else str(self.witness)}


# ---------------------------------------------------------------------------
# backend adapters: one calculus over monomial ideals and Groebner handles


class _MonomialAlg:
    def __init__(self, I: MonomialIdeal):
        self.ladder = PowerLadder(I)

    def power(self, I: MonomialIdeal, n: int) -> MonomialIdeal:
        return PowerLadder(I).power(n)

    def colon(self, A, B, floor=None):
        return colon_monomial(A, B, floor)

    def colon_elem(self, A, e: Exponents):
        return colon_single(A, e)

    def equals(self, A, B) -> bool:
        return A.gens == B.gens

    def contains_ideal(self, A, B) -> bool:
        return A.contains_ideal(B)

    def add(self, A, B):
        return A + B

    def intersect(self, A, B):
        return intersect_monomial(A, B)

    def contains(self, I, e: Exponents) -> bool:
        return I.contains(e)

    def gens(self, I) -> Tuple[Exponents, ...]:
        return I.gens

    def mul_elem(self, a: Exponents, b: Exponents) -> Exponents:
        return exps_mul(a, b)

    def elem_power(self, a: Exponents, k: int) -> Exponents:
        return tuple(k * x for x in a)

    def gen_power_ideal(self, J, k: int):
        return MonomialIdeal.from_gens(J.ring, [self.elem_power(g, k) for g in J.gens])

    def witness_outside(self, A, B):
        for g in A.gens:
            if not B.contains(g):
                return Monomial(A.ring, g)
        return None


class _HandleAlg:
    def __init__(self, I: IdealHandle):
        # prefer a low-degree, short generator for single-element colon bounds
        self.probe_gen = min(I.gens, key=lambda g: (g.total_degree(), len(g.terms)))

    def power(self, I: IdealHandle, n: int) -> IdealHandle:
        return I.power(n)

    def colon(self, A, B, floor=None):
        return A.colon(B)

    def colon_elem(self, A, f: Polynomial):
        return A.colon_element(f)

    def equals(self, A, B) -> bool:
        return A.equals(B)

    def contains_ideal(self, A, B) -> bool:
        return A.contains_ideal(B)

    def add(self, A, B):
        return A + B

    def intersect(self, A, B):
        return A.intersect(B)

    def contains(self, I, f: Polynomial) -> bool:
        return I.contains(f)

    def gens(self, I) -> Tuple[Polynomial, ...]:
        return I.gens

    def mul_elem(self, a: Polynomial, b: Polynomial) -> Polynomial:
        return a * b

    def elem_power(self, a: Polynomial, k: int) -> Polynomial:
        return a ** k

    def gen_power_ideal(self, J: IdealHandle, k: int) -> IdealHandle:
        return IdealHandle(J.ring, [g ** k for g in J.gens], J.pair_cap)

    def witness_outside(self, A, B):
        for g in A.gens:
            if not B.contains(g):
                return g
        gb = A.groebner_basis()
        for g in gb.polynomials:
            if not B.contains(g):
                return g
        return None

    def cheap_upper_bound_skip(self, power_ideal, elem_k, acc) -> bool:
        """True when the colon is provably inside acc without computing it.

        The full colon by an ideal containing elem_k is contained in the
        colon by elem_k alone, which is a single elimination.
        """
        ub = power_ideal.colon_element(elem_k)
        return acc.contains_ideal(ub)


def _algebra(I: IdealLike):
    if isinstance(I, MonomialIdeal):
        return _MonomialAlg(I)
    if isinstance(I, IdealHandle):
        return _HandleAlg(I)
    factory = getattr(type(I), "algebra_factory", None)
    if factory is not None:
        return factory(I)
    raise UnsupportedOperationError(f"unsupported ideal type {type(I).__name__}")


def _as_element(m, I: IdealLike):
    """Normalize a probe element to the backend's representation."""
    normalize = getattr(type(I), "normalize_element", None)
    if normalize is not None:
        return normalize(I, m)
    if isinstance(I, MonomialIdeal):
        if isinstance(m, Monomial):
            return m.exps
        if isinstance(m, Polynomial):
            if len(m.terms) != 1:
                raise UnsupportedOperationError(
                    "monomial-ideal probes take a single monomial")
            return next(iter(m.terms))
        if isinstance(m, tuple):
            return m
    else:
        if isinstance(m, Monomial):
            return m.as_polynomial()
        if isinstance(m, Polynomial):
            return m
    raise UnsupportedOperationError(f"cannot probe with {type(m).__name__}")


def _wrap_element(e, I: IdealLike):
    if isinstance(I, MonomialIdeal) and isinstance(e, tuple):
        return Monomial(I.ring, e)
    return e


def _check_regular(I: IdealLike, regular_element) -> None:
    """Closure chains are only meaningful for regular ideals.

    In a domain any nonzero ideal qualifies.  In a quotient ring the caller
    must name an element of I whose annihilator is zero; that claim is
    verified against the quotient relations.
    """
    if not isinstance(I, IdealHandle):
        return  # monomial and semigroup exponent sets are always regular
    if not I.gens:
        raise ZeroIdealError("closure of the zero ideal is undefined")
    if not I.ring.quotient:
        return
    if regular_element is None:
        raise PreconditionError(
            "quotient-ring closure needs a declared regular element of the ideal")
    x = regular_element
    if isinstance(x, Monomial):
        x = x.as_polynomial()
    if not I.contains(x):
        raise PreconditionError("declared regular element is not in the ideal")
    ann = IdealHandle(I.ring, [], I.pair_cap).colon_element(x)
    if not ann.is_zero():
        raise PreconditionError(
            "declared element is a zerodivisor: its annihilator is nonzero")


# ---------------------------------------------------------------------------
# the chain driver


def _run_chain(alg, start, candidate_fn, cfg: ClosureConfig,
               early_stop: bool = True):
    """Union the ascending chain candidate_fn(k, acc), k = 1..k_max.

    candidate_fn returns the k-th chain value, or None for a quiet step,
    one known to add nothing to the running value acc; only other values
    are tested against acc.  Returns (accumulated value, status, growth
    step indices).
    """
    acc = start
    growth: List[int] = []
    quiet = 0
    for k in range(1, cfg.k_max + 1):
        cand = candidate_fn(k, acc)
        if cand is None or alg.contains_ideal(acc, cand):
            quiet += 1
            if early_stop and quiet >= cfg.window:
                return acc, StabilizedWindow(k, cfg.window), tuple(growth)
        else:
            acc = alg.add(acc, cand)
            growth.append(k)
            quiet = 0
    if quiet >= cfg.window:
        return acc, StabilizedWindow(cfg.k_max, cfg.window), tuple(growth)
    return acc, BoundReached(cfg.k_max), tuple(growth)


def _floor_colon(alg, A, B, acc):
    """A : B with acc as the floor, or None when it adds nothing to acc.

    acc lies in A : B on an ascending chain, so (A : B) + acc is the step's
    value either way."""
    cand = alg.colon(A, B, acc)
    return None if cand is acc else cand


def _power_chain_step(alg, I, n: int):
    """Step function for the chain I^{n+k} : I^k."""
    def step(k: int, acc):
        top = alg.power(I, n + k)
        if isinstance(alg, _HandleAlg):
            probe = alg.elem_power(alg.probe_gen, k)
            if alg.cheap_upper_bound_skip(top, probe, acc):
                return None
        return _floor_colon(alg, top, alg.power(I, k), acc)
    return step


# ---------------------------------------------------------------------------
# public operations


def rr_power(I: IdealLike, n: int, cfg: ClosureConfig = DEFAULT_CONFIG,
             regular_element=None) -> ClosureResult:
    """Bounded computation of the closure of I^n via I^{n+k} : I^k."""
    if n < 1:
        raise PreconditionError("power must be >= 1")
    _check_regular(I, regular_element)
    alg = _algebra(I)
    start = alg.power(I, n)
    value, status, growth = _run_chain(alg, start, _power_chain_step(alg, I, n), cfg)
    return ClosureResult(value, status, growth)


def rr_closure(I: IdealLike, cfg: ClosureConfig = DEFAULT_CONFIG,
               regular_element=None) -> ClosureResult:
    return rr_power(I, 1, cfg, regular_element)


def rr_closure_via_reduction(I: IdealLike, J: IdealLike, n: int,
                             cfg: ClosureConfig = DEFAULT_CONFIG,
                             regular_element=None) -> ClosureResult:
    """Closure of I^n via I^{n+k} : (a_1^k, ..., a_d^k) for J = (a_1..a_d).

    J must verify as a reduction of I within cfg.n_max.
    """
    if n < 1:
        raise PreconditionError("power must be >= 1")
    _check_regular(I, regular_element)
    from .reductions import is_reduction
    verdict = is_reduction(I, J, cfg.n_max)
    if not isinstance(verdict, Holds):
        raise PreconditionError(
            f"J did not verify as a reduction of I within n_max={cfg.n_max}")
    alg = _algebra(I)

    def step(k: int, acc):
        top = alg.power(I, n + k)
        if isinstance(alg, _HandleAlg):
            probe = alg.elem_power(alg.gens(J)[0], k)
            if alg.cheap_upper_bound_skip(top, probe, acc):
                return None
        return _floor_colon(alg, top, alg.gen_power_ideal(J, k), acc)

    start = alg.power(I, n)
    value, status, growth = _run_chain(alg, start, step, cfg)
    return ClosureResult(value, status, growth)


def rr_membership_probe(m, I: IdealLike,
                        cfg: ClosureConfig = DEFAULT_CONFIG):
    """Does m multiply some I^k into I^{k+1}?  Member(k) / NotMemberUpTo."""
    alg = _algebra(I)
    e = _as_element(m, I)
    if alg.contains(I, e):
        raise PreconditionError("element already lies in the ideal; probe is vacuous")
    for k in range(1, cfg.k_max + 1):
        top = alg.power(I, k + 1)
        if all(alg.contains(top, alg.mul_elem(e, g))
               for g in alg.gens(alg.power(I, k))):
            return Member(k)
    return NotMemberUpTo(cfg.k_max)


def rr_membership_probe_via_reduction(m, I: IdealLike, J: IdealLike, n: int = 1,
                                      cfg: ClosureConfig = DEFAULT_CONFIG):
    """Does m multiply k-th generator powers of a reduction J into I^{n+k}?

    J must verify as a reduction of I within cfg.n_max.  Member(k) certifies
    m in I^{n+k} : (a_1^k, ..., a_d^k), a superset chain of I^{n+k} : I^k
    with the same union.
    """
    if n < 1:
        raise PreconditionError("power must be >= 1")
    from .reductions import is_reduction
    if not isinstance(is_reduction(I, J, cfg.n_max), Holds):
        raise PreconditionError(
            f"J did not verify as a reduction of I within n_max={cfg.n_max}")
    alg = _algebra(I)
    e = _as_element(m, I)
    if alg.contains(alg.power(I, n), e):
        raise PreconditionError(
            "element already lies in the n-th power; probe is vacuous")
    for k in range(1, cfg.k_max + 1):
        top = alg.power(I, n + k)
        if all(alg.contains(top, alg.mul_elem(e, alg.elem_power(g, k)))
               for g in alg.gens(J)):
            return Member(k)
    return NotMemberUpTo(cfg.k_max)


def is_rr_closed(I: IdealLike, cfg: ClosureConfig = DEFAULT_CONFIG,
                 regular_element=None):
    """Bounded closedness: the full chain is run to k_max (no early stop)."""
    _check_regular(I, regular_element)
    alg = _algebra(I)
    for k in range(1, cfg.k_max + 1):
        cand = _power_chain_step(alg, I, 1)(k, I)
        if cand is not None and not alg.contains_ideal(I, cand):
            w = alg.witness_outside(cand, I)
            return FailsAt(k, _wrap_element(getattr(w, "exps", w), I)
                           if isinstance(I, MonomialIdeal) else w)
    return Holds(cfg.k_max)


class RRDefect:
    """Minimal representatives of (closure of I^{n+1}) cap I^n modulo I^{n+1}.

    Empty exactly when I^{n+1} is closed, up to the chain's status.
    """

    def __init__(self, I: IdealLike, n: int, closure: ClosureResult,
                 numerator: IdealLike, denominator: IdealLike,
                 representatives: Tuple):
        self.ideal = I
        self.n = n
        self.closure = closure
        self._numerator = numerator      # closure-value cap I^n
        self._denominator = denominator  # I^{n+1}
        self.representatives = representatives

    def is_empty(self) -> bool:
        return not self.representatives

    def contains(self, f) -> bool:
        """True when f represents a nonzero class of the defect module."""
        alg = _algebra(self.ideal)
        e = _as_element(f, self.ideal)
        return (alg.contains(self._numerator, e)
                and not alg.contains(self._denominator, e))

    def __iter__(self):
        return iter(self.representatives)

    def __len__(self):
        return len(self.representatives)


def rr_defect(I: IdealLike, n: int, cfg: ClosureConfig = DEFAULT_CONFIG,
              regular_element=None) -> RRDefect:
    if n < 0:
        raise PreconditionError("defect degree must be >= 0")
    _check_regular(I, regular_element)
    alg = _algebra(I)
    closure = rr_power(I, n + 1, cfg, regular_element)
    if n == 0:
        numerator = closure.value
    else:
        numerator = alg.intersect(closure.value, alg.power(I, n))
    denominator = alg.power(I, n + 1)
    reps = tuple(_wrap_element(g, I) if isinstance(I, MonomialIdeal) else g
                 for g in alg.gens(numerator)
                 if not alg.contains(denominator, g))
    return RRDefect(I, n, closure, numerator, denominator, reps)


# ---------------------------------------------------------------------------
# graded-ring probes (monomial ideals)


def depth_zero_witness_search(I: MonomialIdeal,
                              cfg: ClosureConfig = DEFAULT_CONFIG):
    """Look for m in I^n \\ I^{n+1} killed into I^{n+1} by every variable.

    FailsAt(n, m) reports a witness that the associated graded ring has a
    degree-n socle element (depth zero); Holds(n_max) reports none found.

    The m outside I^{n+1} that every variable multiplies into I^{n+1} are
    exactly the minimal generators of I^{n+1} : (X_1, ..., X_d) outside
    I^{n+1}: were m = x_i * m' with m' in that colon, m would lie in
    I^{n+1}.  They are tried in ascending (lexicographic) order.  No
    coordinate of a colon generator exceeds those of I^{n+1}'s generators,
    so all of them lie in the box [0, (n + 1) * max exponent of I]^d, and
    the witness is the first one a scan of that box would meet.
    """
    if not isinstance(I, MonomialIdeal):
        raise UnsupportedOperationError("witness search is monomial-only")
    ladder = PowerLadder(I)
    variables = variable_ideal(I.ring)
    for n in range(1, cfg.n_max + 1):
        In = ladder.power(n)
        In1 = ladder.power(n + 1)
        In2 = ladder.power(n + 2)
        inside = set(In1.gens)
        for m in colon_monomial(In1, variables, In1).gens:
            if m in inside or not In.contains(m):
                continue
            if all(In2.contains(exps_mul(m, g)) for g in I.gens):
                return FailsAt(n, Monomial(I.ring, m))
    return Holds(cfg.n_max)


def gr_nzd_probe(x, I: IdealLike, w: int,
                 cfg: ClosureConfig = DEFAULT_CONFIG):
    """Is the degree-w image of x a non-zerodivisor on the graded ring?

    Checks I^{n+w} : x = I^n for n <= n_max; bounded statement only.
    """
    if w < 1:
        raise PreconditionError("graded degree must be >= 1")
    alg = _algebra(I)
    e = _as_element(x, I)
    if not alg.contains(alg.power(I, w), e):
        raise PreconditionError("element is not in the claimed power of the ideal")
    if alg.contains(alg.power(I, w + 1), e):
        raise PreconditionError("element lies one power deeper than claimed")
    for n in range(1, cfg.n_max + 1):
        top = alg.power(I, n + w)
        C = alg.colon_elem(top, e)
        In = alg.power(I, n)
        if not alg.equals(C, In):
            w_out = alg.witness_outside(C, In)
            return FailsAt(n, _wrap_element(getattr(w_out, "exps", w_out), I)
                           if isinstance(I, MonomialIdeal) else w_out)
    return Holds(cfg.n_max)


def superficial_probe(a, I: IdealLike,
                      cfg: ClosureConfig = DEFAULT_CONFIG):
    """Search for an offset c with (I^n : a) cap I^c = I^{n-1}, c < n <= n_max.

    Holds(c) reports the smallest offset whose identity was verified for at
    least cfg.window consecutive steps (so c <= n_max - window; a larger
    offset would leave too few checkable steps to mean anything).  If every
    such offset fails, FailsAt carries the smallest failing step of the
    c = 1 scan with a witness element of ((I^n : a) cap I^c) outside I^{n-1}.
    """
    alg = _algebra(I)
    e = _as_element(a, I)
    if not alg.contains(I, e):
        raise PreconditionError("candidate superficial element must lie in the ideal")
    if cfg.n_max <= cfg.window:
        raise PreconditionError("superficiality needs n_max > window steps")
    first_failure = None
    for c in range(1, cfg.n_max - cfg.window + 1):
        ok = True
        for n in range(c + 1, cfg.n_max + 1):
            top = alg.power(I, n)
            colon = alg.colon_elem(top, e)
            lhs = alg.intersect(colon, alg.power(I, c))
            rhs = alg.power(I, n - 1)
            if not alg.equals(lhs, rhs):
                ok = False
                if first_failure is None:
                    w_out = alg.witness_outside(lhs, rhs)
                    first_failure = FailsAt(
                        n, _wrap_element(getattr(w_out, "exps", w_out), I)
                        if isinstance(I, MonomialIdeal) else w_out)
                break
        if ok:
            return Holds(c)
    return first_failure if first_failure is not None else FailsAt(cfg.n_max, None)
