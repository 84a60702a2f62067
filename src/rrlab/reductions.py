"""Reduction verification and the filtration invariants r, rr_r, s.

Works uniformly over monomial ideals, Groebner handles and semigroup
exponent-set ideals.  Every invariant is a bounded computation; reports
carry an explicit exact-within-bound / bound-reached status so downstream
claims are never stronger than what was computed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .errors import PreconditionError
from .ratliff_rush import (ClosureConfig, DEFAULT_CONFIG, FailsAt, Holds,
                           rr_power, superficial_probe)

EXACT = "exact-within-bound"
BOUNDED = "bound-reached"


# ---------------------------------------------------------------------------
# backend-neutral helpers


def _eq(A, B) -> bool:
    return A.contains_ideal(B) and B.contains_ideal(A)


def _closures(I, powers, cfg: ClosureConfig):
    """([closure value of I^m for m in powers], status string).

    I^0 is the whole ring, closed by convention; the status is EXACT unless
    some chain reached its bound."""
    values, status = [], EXACT
    for m in powers:
        if m == 0:
            values.append(I.power(0))
            continue
        res = rr_power(I, m, cfg)
        if not res.certified:
            status = BOUNDED
        values.append(res.value)
    return values, status


# ---------------------------------------------------------------------------
# report type


@dataclass(frozen=True)
class ReductionReport:
    I: object
    J: object
    n_max: int
    r: Optional[int]
    r_status: str
    rr_r: Optional[int]
    rr_r_status: str
    s: Optional[int]
    s_status: str

    def to_dict(self):
        return {
            "ideal": str(self.I), "reduction": str(self.J), "n_max": self.n_max,
            "r": self.r, "r_status": self.r_status,
            "rr_r": self.rr_r, "rr_r_status": self.rr_r_status,
            "s": self.s, "s_status": self.s_status,
        }


# ---------------------------------------------------------------------------
# operations


def is_reduction(I, J, n_max: int = 8):
    """Holds(n) at the least n <= n_max with J * I^n = I^{n+1}."""
    if not I.contains_ideal(J):
        raise PreconditionError("J must be contained in I")
    for n in range(n_max + 1):
        if _eq(J * I.power(n), I.power(n + 1)):
            return Holds(n)
    return FailsAt(n_max)


def reduction_number(I, J, n_max: int = 8) -> int:
    verdict = is_reduction(I, J, n_max)
    if not isinstance(verdict, Holds):
        raise PreconditionError(f"J is not a verified reduction of I within {n_max}")
    return verdict.bound


def rr_reduction_number(I, J, cfg: ClosureConfig = DEFAULT_CONFIG):
    """(least n with closure(I^{m+1}) = J * closure(I^m) for n <= m <= n_max,
    status).  None when even n = n_max fails within the bound."""
    if not I.contains_ideal(J):
        raise PreconditionError("J must be contained in I")
    tilde, status = _closures(I, range(cfg.n_max + 2), cfg)
    holds_at = [ _eq(tilde[m + 1], J * tilde[m]) for m in range(cfg.n_max + 1) ]
    n = cfg.n_max + 1
    for m in range(cfg.n_max, -1, -1):
        if holds_at[m]:
            n = m
        else:
            break
    if n > cfg.n_max:
        return None, status
    return n, status


def s_invariant(I, cfg: ClosureConfig = DEFAULT_CONFIG):
    """(least n with closure(I^m) = I^m for n <= m <= n_max, status).

    When every checked power is closed this reports s = 0 (the zeroth power
    is the whole ring, closed by convention)."""
    tilde, status = _closures(I, range(1, cfg.n_max + 1), cfg)
    closed = [True] + [_eq(value, I.power(m))
                       for m, value in enumerate(tilde, start=1)]
    n = cfg.n_max + 1
    for m in range(cfg.n_max, -1, -1):
        if closed[m]:
            n = m
        else:
            break
    if n > cfg.n_max:
        return None, status
    return n, status


def reduction_report(I, J, cfg: ClosureConfig = DEFAULT_CONFIG) -> ReductionReport:
    verdict = is_reduction(I, J, cfg.n_max)
    if isinstance(verdict, Holds):
        r, r_status = verdict.bound, EXACT
    else:
        r, r_status = None, BOUNDED
    rr_r, rr_status = rr_reduction_number(I, J, cfg)
    s, s_status = s_invariant(I, cfg)
    return ReductionReport(I, J, cfg.n_max, r, r_status, rr_r, rr_status, s, s_status)


# ---------------------------------------------------------------------------
# the principal-reduction equivalence checker


@dataclass(frozen=True)
class EquivalenceReport:
    """Evaluation of the equivalent graded-isomorphism conditions at level t.

    cond_b:  I*T_t + T_{t+2} is inside x*T_t + T_{t+2}   (T_m = closure of I^m)
    cond_de: T_{t+1} = x*T_t
    cokernel_trivial: T_{t+1} is inside x*T_t + T_{t+2}
    """

    t: int
    cond_b: bool
    cond_de: bool
    cokernel_trivial: bool
    status: str

    @property
    def all_agree(self) -> bool:
        return self.cond_b == self.cond_de == self.cokernel_trivial

    @property
    def all_true(self) -> bool:
        return self.cond_b and self.cond_de and self.cokernel_trivial

    def to_dict(self):
        return {"t": self.t, "cond_b": self.cond_b, "cond_de": self.cond_de,
                "cokernel_trivial": self.cokernel_trivial, "status": self.status}


def prop41_equivalence_check(I, x, t: int,
                             cfg: ClosureConfig = DEFAULT_CONFIG) -> EquivalenceReport:
    """Check the equivalent conditions for (x) at filtration level t.

    Preconditions: (x) verifies as a reduction of I within n_max, and x
    probes as superficial."""
    if t < 0:
        raise PreconditionError("level t must be >= 0")
    X = I.power(0).times(I.element(x))
    if not isinstance(is_reduction(I, X, cfg.n_max), Holds):
        raise PreconditionError("(x) did not verify as a reduction of I")
    sup = superficial_probe(x, I, cfg)
    if not isinstance(sup, Holds):
        raise PreconditionError("x did not probe as a superficial element")

    (T_t, T_t1, T_t2), status = _closures(I, (t, t + 1, t + 2), cfg)
    x_Tt = X * T_t
    rhs = x_Tt + T_t2
    cond_b = rhs.contains_ideal(I * T_t + T_t2)
    cond_de = _eq(T_t1, x_Tt)
    coker = rhs.contains_ideal(T_t1)
    return EquivalenceReport(t, cond_b, cond_de, coker, status)
