"""Ascending colon-chain engine with honest certification.

The closure of a regular ideal is the union of the ascending chain
I^{k+1} : I^k.  No terminating criterion exists in general, so every result
carries a status: StabilizedWindow (the chain repeated for `window`
consecutive steps, or ran to a principal-reduction index, past which it is
constant) or BoundReached (the step cap was hit; the value is only a lower
bound).  Probes likewise return bounded verdicts, never certificates.

Every ideal type (MonomialIdeal, IdealHandle, SemigroupIdeal, AffineIdeal)
implements the protocol of core.Ideal, which lists the methods this module
uses; no adapter stands between.

The chain ascends, so each step only has to find what lies beyond the
running value, which it passes to the colon as the floor.  A colon that
comes back as the floor itself marks a quiet step (None), which skips the
containment test.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple, Union

from .core import Monomial, exps_mul
from .errors import PreconditionError, UnsupportedOperationError
from .monomial import MonomialIdeal, variable_ideal


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
    value: object  # an ideal of the input's type
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
# the chain driver


def _run_chain(start, candidate_fn, cfg: ClosureConfig, proved_at=None):
    """Union the ascending chain candidate_fn(k, acc), k = 1, 2, ...

    candidate_fn returns the k-th chain value, or None for a quiet step,
    one known to add nothing to the running value acc; only other values
    are tested against acc.  When the chain is known to be constant from
    step proved_at on, it runs exactly that far; otherwise it stops after
    cfg.window quiet steps in a row, or at cfg.k_max.  Returns
    (accumulated value, status, growth step indices).
    """
    acc = start
    growth: List[int] = []
    quiet = 0
    for k in range(1, (cfg.k_max if proved_at is None else proved_at) + 1):
        cand = candidate_fn(k, acc)
        if cand is None or acc.contains_ideal(cand):
            quiet += 1
            if proved_at is None and quiet >= cfg.window:
                return acc, StabilizedWindow(k, cfg.window), tuple(growth)
        else:
            acc = acc + cand
            growth.append(k)
            quiet = 0
    if proved_at is None:
        return acc, BoundReached(cfg.k_max), tuple(growth)
    return acc, StabilizedWindow(proved_at, cfg.window), tuple(growth)


def _floor_colon(A, B, acc):
    """A : B with acc as the floor, or None when it adds nothing to acc.

    acc lies in A : B on an ascending chain, so (A : B) + acc is the step's
    value either way."""
    cand = A.colon(B, acc)
    return None if cand is acc else cand


def _power_chain_step(I, n: int):
    """Step function for the chain I^{n+k} : I^k."""
    return lambda k, acc: _floor_colon(I.power(n + k), I.power(k), acc)


# ---------------------------------------------------------------------------
# public operations


def rr_power(I, n: int, cfg: ClosureConfig = DEFAULT_CONFIG,
             regular_element=None) -> ClosureResult:
    """Closure of I^n via the chain I^{n+k} : I^k.

    If I^{r+1} = x * I^r for a regular x, cancelling x^{k-r} shows that the
    chain is constant from k = r on, so when I knows such an r the chain
    runs to max(r, 1) and its value is exact.  Otherwise it runs under the
    window and cap of cfg.
    """
    if n < 1:
        raise PreconditionError("power must be >= 1")
    I.check_regular(regular_element)
    r = I.principal_reduction_index()
    value, status, growth = _run_chain(I.power(n), _power_chain_step(I, n), cfg,
                                       None if r is None else max(r, 1))
    return ClosureResult(value, status, growth)


def rr_closure(I, cfg: ClosureConfig = DEFAULT_CONFIG,
               regular_element=None) -> ClosureResult:
    return rr_power(I, 1, cfg, regular_element)


def is_reduction(I, J, n_max: int = 8):
    """Holds(n) at the least n <= n_max with J * I^n = I^{n+1}."""
    if not I.contains_ideal(J):
        raise PreconditionError("J must be contained in I")
    for n in range(n_max + 1):
        if (J * I.power(n)).equals(I.power(n + 1)):
            return Holds(n)
    return FailsAt(n_max)


def _require_reduction(I, J, cfg: ClosureConfig) -> None:
    """Raise unless J verifies as a reduction of I within cfg.n_max."""
    if not isinstance(is_reduction(I, J, cfg.n_max), Holds):
        raise PreconditionError(
            f"J did not verify as a reduction of I within n_max={cfg.n_max}")


def rr_closure_via_reduction(I, J, n: int,
                             cfg: ClosureConfig = DEFAULT_CONFIG,
                             regular_element=None) -> ClosureResult:
    """Closure of I^n via I^{n+k} : (a_1^k, ..., a_d^k) for J = (a_1..a_d).

    J must verify as a reduction of I within cfg.n_max.
    """
    if n < 1:
        raise PreconditionError("power must be >= 1")
    I.check_regular(regular_element)
    _require_reduction(I, J, cfg)

    def step(k: int, acc):
        return _floor_colon(I.power(n + k), J.gen_powers(k), acc)

    value, status, growth = _run_chain(I.power(n), step, cfg)
    return ClosureResult(value, status, growth)


def _probe(e, I, n: int, denominator, cfg: ClosureConfig):
    """Member(k) for the least k <= k_max with e * denominator(k) inside
    I^{n+k}, else NotMemberUpTo(k_max)."""
    principal = I.power(0).times(e)
    for k in range(1, cfg.k_max + 1):
        top = I.power(n + k)
        # one product at a time, so a failing step stops at the first
        # product outside top instead of building all of e * denominator(k)
        if all(top.contains_ideal(principal.times(g))
               for g in denominator(k).gens):
            return Member(k)
    return NotMemberUpTo(cfg.k_max)


def rr_membership_probe(m, I, cfg: ClosureConfig = DEFAULT_CONFIG):
    """Does m multiply some I^k into I^{k+1}?  Member(k) / NotMemberUpTo."""
    e = I.element(m)
    if I.contains(e):
        raise PreconditionError("element already lies in the ideal; probe is vacuous")
    return _probe(e, I, 1, I.power, cfg)


def rr_membership_probe_via_reduction(m, I, J, n: int = 1,
                                      cfg: ClosureConfig = DEFAULT_CONFIG):
    """Does m multiply k-th generator powers of a reduction J into I^{n+k}?

    J must verify as a reduction of I within cfg.n_max.  Member(k) certifies
    m in I^{n+k} : (a_1^k, ..., a_d^k), a superset chain of I^{n+k} : I^k
    with the same union.
    """
    if n < 1:
        raise PreconditionError("power must be >= 1")
    _require_reduction(I, J, cfg)
    e = I.element(m)
    if I.power(n).contains(e):
        raise PreconditionError(
            "element already lies in the n-th power; probe is vacuous")
    return _probe(e, I, n, J.gen_powers, cfg)


def is_rr_closed(I, cfg: ClosureConfig = DEFAULT_CONFIG, regular_element=None):
    """Bounded closedness: the full chain is run to k_max (no early stop)."""
    I.check_regular(regular_element)
    step = _power_chain_step(I, 1)
    for k in range(1, cfg.k_max + 1):
        cand = step(k, I)
        witness = None if cand is None else cand.first_gen_outside(I)
        if witness is not None:
            return FailsAt(k, witness)
    return Holds(cfg.k_max)


class RRDefect:
    """Minimal representatives of (closure of I^{n+1}) cap I^n modulo I^{n+1}.

    Empty exactly when I^{n+1} is closed, up to the chain's status.
    """

    def __init__(self, I, n: int, closure: ClosureResult,
                 numerator, denominator, representatives: Tuple):
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
        e = self.ideal.element(f)
        return self._numerator.contains(e) and not self._denominator.contains(e)

    def __iter__(self):
        return iter(self.representatives)

    def __len__(self):
        return len(self.representatives)


def rr_defect(I, n: int, cfg: ClosureConfig = DEFAULT_CONFIG,
              regular_element=None) -> RRDefect:
    if n < 0:
        raise PreconditionError("defect degree must be >= 0")
    closure = rr_power(I, n + 1, cfg, regular_element)
    numerator = closure.value
    if n > 0:
        numerator = numerator.intersect(I.power(n))
    denominator = I.power(n + 1)
    reps = tuple(numerator.gens_outside(denominator))
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
    variables = variable_ideal(I.ring)
    for n in range(1, cfg.n_max + 1):
        In, In1, In2 = I.power(n), I.power(n + 1), I.power(n + 2)
        inside = set(In1.gens)
        for m in In1.colon(variables, In1).gens:
            if m in inside or not In.contains(m):
                continue
            if all(In2.contains(exps_mul(m, g)) for g in I.gens):
                return FailsAt(n, Monomial(I.ring, m))
    return Holds(cfg.n_max)


def gr_nzd_probe(x, I, w: int, cfg: ClosureConfig = DEFAULT_CONFIG):
    """Is the degree-w image of x a non-zerodivisor on the graded ring?

    Checks I^{n+w} : x = I^n for n <= n_max; bounded statement only.
    """
    if w < 1:
        raise PreconditionError("graded degree must be >= 1")
    e = I.element(x)
    if not I.power(w).contains(e):
        raise PreconditionError("element is not in the claimed power of the ideal")
    if I.power(w + 1).contains(e):
        raise PreconditionError("element lies one power deeper than claimed")
    principal = I.power(0).times(e)
    for n in range(1, cfg.n_max + 1):
        # x lies in I^w, so I^n lies in I^{n+w} : x: the two are equal
        # exactly when no generator of the colon lies outside I^n, and the
        # first one that does is the witness.
        witness = I.power(n + w).colon(principal).first_gen_outside(I.power(n))
        if witness is not None:
            return FailsAt(n, witness)
    return Holds(cfg.n_max)


def superficial_probe(a, I, cfg: ClosureConfig = DEFAULT_CONFIG):
    """Search for an offset c with (I^n : a) cap I^c = I^{n-1}, c < n <= n_max.

    Holds(c) reports the smallest offset whose identity was verified for at
    least cfg.window consecutive steps (so c <= n_max - window; a larger
    offset would leave too few checkable steps to mean anything).  If every
    such offset fails, FailsAt carries the smallest failing step of the
    c = 1 scan with a witness element of ((I^n : a) cap I^c) outside I^{n-1}.
    """
    e = I.element(a)
    if not I.contains(e):
        raise PreconditionError("candidate superficial element must lie in the ideal")
    if cfg.n_max <= cfg.window:
        raise PreconditionError("superficiality needs n_max > window steps")
    principal = I.power(0).times(e)
    first_failure = None
    for c in range(1, cfg.n_max - cfg.window + 1):
        for n in range(c + 1, cfg.n_max + 1):
            lhs = I.power(n).colon(principal).intersect(I.power(c))
            # a lies in I and c <= n - 1, so I^{n-1} lies in lhs: the two
            # are equal exactly when no generator of lhs lies outside it.
            witness = lhs.first_gen_outside(I.power(n - 1))
            if witness is not None:
                if first_failure is None:
                    first_failure = FailsAt(n, witness)
                break
        else:
            return Holds(c)
    # n_max > window, so at least one pass ran, and every pass failed
    return first_failure
