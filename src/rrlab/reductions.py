"""Reduction verification and the filtration invariants r, rr_r, s.

Works uniformly over every ideal type: monomial ideals, Groebner handles,
and the numerical and affine semigroup ideals.  Every invariant is a
bounded computation; reports carry an explicit exact-within-bound /
bound-reached status so downstream claims are never stronger than what was
computed.  is_reduction and reduction_number, the one refusal of a J that
is not a reduction, live in ratliff_rush beside the chain operations that
call them; they are re-exported here.
"""

from __future__ import annotations

from typing import Optional

from .core import Record
from .errors import PreconditionError
from .ratliff_rush import (ClosureConfig, DEFAULT_CONFIG, Holds, _ring_element,
                           is_reduction, reduction_number, rr_power,
                           superficial_probe)

EXACT = "exact-within-bound"
BOUNDED = "bound-reached"


# ---------------------------------------------------------------------------
# backend-neutral helpers


def _closures(I, powers, cfg: ClosureConfig):
    """[(closure value of I^m, certified) for m in powers].

    I^0 is the whole ring, closed by convention."""
    out = []
    for m in powers:
        if m == 0:
            out.append((I.power(0), True))
        else:
            res = rr_power(I, m, cfg)
            out.append((res.value, res.certified))
    return out


def _status(closures) -> str:
    """EXACT unless the chain of some closure reached its bound."""
    return EXACT if all(certified for _, certified in closures) else BOUNDED


def _stable_from(holds) -> Optional[int]:
    """The least n with holds[m] for every m >= n; None when the last fails."""
    n = len(holds)
    while n and holds[n - 1]:
        n -= 1
    return None if n == len(holds) else n


def _rr_reduction_number(J, tilde):
    """rr_reduction_number from the closures of I^0..I^{n_max+1}."""
    holds_at = [tilde[m + 1][0].equals(J * tilde[m][0])
                for m in range(len(tilde) - 1)]
    return _stable_from(holds_at), _status(tilde)


def _s_invariant(I, tilde, n_max: int):
    """s_invariant from the closures of I^0..I^{n_max} (or more)."""
    closed = [True] + [tilde[m][0].equals(I.power(m)) for m in range(1, n_max + 1)]
    return _stable_from(closed), _status(tilde[1:n_max + 1])


# ---------------------------------------------------------------------------
# report type


class ReductionReport(Record):
    _fields = ("ideal", "reduction", "n_max", "r", "r_status", "rr_r",
               "rr_r_status", "s", "s_status")
    _as_text = ("ideal", "reduction")


# ---------------------------------------------------------------------------
# operations


def rr_reduction_number(I, J, cfg: ClosureConfig = DEFAULT_CONFIG):
    """(least n with closure(I^{m+1}) = J * closure(I^m) for n <= m <= n_max,
    status).  None when even n = n_max fails within the bound."""
    if not I.contains_ideal(J):
        raise PreconditionError("J must be contained in I")
    return _rr_reduction_number(J, _closures(I, range(cfg.n_max + 2), cfg))


def s_invariant(I, cfg: ClosureConfig = DEFAULT_CONFIG):
    """(least n with closure(I^m) = I^m for n <= m <= n_max, status).

    When every checked power is closed this reports s = 0 (the zeroth power
    is the whole ring, closed by convention)."""
    return _s_invariant(I, _closures(I, range(cfg.n_max + 1), cfg), cfg.n_max)


def reduction_report(I, J, cfg: ClosureConfig = DEFAULT_CONFIG) -> ReductionReport:
    """r, rr_r and s of I, from one closure of each of I^1..I^{n_max+1}.

    Each status covers only the powers its invariant reads."""
    verdict = is_reduction(I, J, cfg)
    if isinstance(verdict, Holds):
        r, r_status = verdict.bound, EXACT
    else:
        r, r_status = None, BOUNDED
    tilde = _closures(I, range(cfg.n_max + 2), cfg)
    rr_r, rr_status = _rr_reduction_number(J, tilde)
    s, s_status = _s_invariant(I, tilde, cfg.n_max)
    return ReductionReport(I, J, cfg.n_max, r, r_status, rr_r, rr_status, s, s_status)


# ---------------------------------------------------------------------------
# the principal-reduction equivalence checker


class EquivalenceReport(Record):
    """Evaluation of the equivalent graded-isomorphism conditions at level t.

    cond_b:  I*T_t + T_{t+2} is inside x*T_t + T_{t+2}   (T_m = closure of I^m)
    cond_de: T_{t+1} = x*T_t
    cokernel_trivial: T_{t+1} is inside x*T_t + T_{t+2}
    """

    _fields = ("t", "cond_b", "cond_de", "cokernel_trivial", "status")

    @property
    def all_agree(self) -> bool:
        return self.cond_b == self.cond_de == self.cokernel_trivial

    @property
    def all_true(self) -> bool:
        return self.cond_b and self.cond_de and self.cokernel_trivial


def prop41_equivalence_check(I, x, t: int,
                             cfg: ClosureConfig = DEFAULT_CONFIG) -> EquivalenceReport:
    """Check the equivalent conditions for (x) at filtration level t.

    Preconditions: (x) verifies as a reduction of I within n_max, and x
    probes as superficial."""
    if t < 0:
        raise PreconditionError("level t must be >= 0")
    X = I.power(0).times(_ring_element(x, I))
    reduction_number(I, X, cfg)
    sup = superficial_probe(x, I, cfg)
    if not isinstance(sup, Holds):
        raise PreconditionError("x did not probe as a superficial element")

    closures = _closures(I, (t, t + 1, t + 2), cfg)
    (T_t, _), (T_t1, _), (T_t2, _) = closures
    status = _status(closures)
    x_Tt = X * T_t
    rhs = x_Tt + T_t2
    cond_b = rhs.contains_ideal(I * T_t + T_t2)
    cond_de = T_t1.equals(x_Tt)
    coker = rhs.contains_ideal(T_t1)
    return EquivalenceReport(t, cond_b, cond_de, coker, status)
