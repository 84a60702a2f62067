"""Ascending colon-chain engine with honest labels.

The closure of a regular ideal (one that contains a non-zerodivisor, see
Ideal.check_regular) is the union of the ascending chain I^{k+1} : I^k.
No terminating criterion exists in general, so every result carries a
status: StabilizedWindow or BoundReached (the step cap was hit; the value
is only a lower bound).  StabilizedWindow covers two stops that
print the same label: a chain that ran to a principal-reduction index (known
for semigroup ideals), past which it is constant, is proved; a chain that
repeated for `window` consecutive steps stopped on a heuristic, and may
still grow later.  A membership probe's Member(k) is a certificate: the
product it checks at step k lies in the power exactly, so m lies in the
closure.  Only NotMemberUpTo is bounded, by the step cap.

Every ideal type (MonomialIdeal, IdealHandle, SemigroupIdeal, AffineIdeal)
implements the protocol of core.Ideal, which lists the methods this module
uses; no adapter stands between.
"""

from __future__ import annotations

from typing import List

from .core import Polynomial, Record, exps_mul
from .errors import PreconditionError, UnsupportedOperationError
from .monomial import MonomialIdeal, variable_ideal


# ---------------------------------------------------------------------------
# configuration / results


class ClosureConfig(Record):
    _fields = ("k_max", "window", "n_max")
    _defaults = {"k_max": 12, "window": 3, "n_max": 8}

    def _validate(self):
        if not (self.k_max >= self.window >= 2):
            raise PreconditionError("require k_max >= window >= 2")
        if self.n_max < 1:
            raise PreconditionError("n_max must be >= 1")


DEFAULT_CONFIG = ClosureConfig()


class StabilizedWindow(Record):
    """k is the step at which the stability window completed."""

    _fields = ("k", "window")
    _tag = ("status", "stabilized-window")


class BoundReached(Record):
    _fields = ("k_max",)
    _tag = ("status", "bound-reached")


class ClosureResult(Record):
    """value: an ideal of the input's type; growth_steps: the steps k where it grew."""

    _fields = ("value", "status", "growth_steps")

    @property
    def certified(self) -> bool:
        return isinstance(self.status, StabilizedWindow)

    def to_dict(self):
        d = self.status.to_dict()
        d["growth_steps"] = list(self.growth_steps)
        d["value"] = str(self.value)
        return d


# probe outcomes ------------------------------------------------------------


class Member(Record):
    """k is the smallest verified step: m * I^k is inside I^{k+1}."""

    _fields = ("k",)
    _tag = ("verdict", "member")


class NotMemberUpTo(Record):
    _fields = ("k_max",)
    _tag = ("verdict", "not-member-up-to")


class Holds(Record):
    """bound is the range bound the identity was checked through (or the
    certified parameter, e.g. the offset c for superficiality)."""

    _fields = ("bound",)
    _tag = ("verdict", "holds")


class FailsAt(Record):
    _fields = ("n", "witness")
    _defaults = {"witness": None}
    _tag = ("verdict", "fails-at")
    _as_text = ("witness",)  # a monomial, polynomial, integer or pair


# ---------------------------------------------------------------------------
# the chain driver


def _chain(I, n: int, denominator, k_max: int):
    """Yield (k, value, grew) for k = 1..k_max, where value is the union of
    I^n and the colons I^{n+j} : denominator(j) for j <= k, and grew says
    whether step k added to it.

    The chain ascends, so each step only has to find what lies beyond the
    running value, which it passes to the colon as the floor.  A colon that
    comes back as the floor itself marks a quiet step, which skips the
    containment test.
    """
    value = I.power(n)
    for k in range(1, k_max + 1):
        cand = I.power(n + k).colon(denominator(k), value)
        grew = cand is not value and not value.contains_ideal(cand)
        if grew:
            value = value + cand
        yield k, value, grew


def _closure(I, n: int, denominator, cfg: ClosureConfig,
             proved_at=None) -> ClosureResult:
    """The value of _chain(I, n, denominator, ...) where it stops.

    When the chain is known to be constant from step proved_at on, it runs
    exactly that far; otherwise it stops after cfg.window quiet steps in a
    row, or at cfg.k_max, where the value is only a lower bound.  The quiet
    run at step k is k less the last growth step.
    """
    growth: List[int] = []
    for k, value, grew in _chain(I, n, denominator,
                                 cfg.k_max if proved_at is None else proved_at):
        if grew:
            growth.append(k)
        elif (proved_at is None
              and k - (growth[-1] if growth else 0) >= cfg.window):
            return ClosureResult(value, StabilizedWindow(k, cfg.window),
                                 tuple(growth))
    status = (BoundReached(cfg.k_max) if proved_at is None
              else StabilizedWindow(proved_at, cfg.window))
    return ClosureResult(value, status, tuple(growth))


# ---------------------------------------------------------------------------
# public operations


def rr_power(I, n: int, cfg: ClosureConfig = DEFAULT_CONFIG) -> ClosureResult:
    """Closure of I^n via the chain I^{n+k} : I^k.

    If I^{r+1} = x * I^r for a regular x, cancelling x^{k-r} shows that the
    chain is constant from k = r on, so when I knows such an r the chain
    runs to max(r, 1) and its value is exact.  Otherwise it runs under the
    window and cap of cfg.
    """
    if n < 1:
        raise PreconditionError("power must be >= 1")
    I.check_regular()
    r = I.principal_reduction_index()
    return _closure(I, n, I.power, cfg, None if r is None else max(r, 1))


def rr_closure(I, cfg: ClosureConfig = DEFAULT_CONFIG) -> ClosureResult:
    return rr_power(I, 1, cfg)


def is_reduction(I, J, cfg: ClosureConfig = DEFAULT_CONFIG):
    """Holds(n) at the least n <= cfg.n_max with J * I^n = I^{n+1}, else
    FailsAt(cfg.n_max)."""
    if not I.contains_ideal(J):
        raise PreconditionError("J must be contained in I")
    n = I.reduction_index(J, cfg.n_max)
    return FailsAt(cfg.n_max) if n is None else Holds(n)


def reduction_number(I, J, cfg: ClosureConfig = DEFAULT_CONFIG) -> int:
    """The least n <= cfg.n_max with J * I^n = I^{n+1}; every operation
    that needs J to be a reduction of I refuses through this one check."""
    verdict = is_reduction(I, J, cfg)
    if not isinstance(verdict, Holds):
        raise PreconditionError(
            f"J did not verify as a reduction of I within n_max={cfg.n_max}")
    return verdict.bound


def rr_closure_via_reduction(I, J, n: int,
                             cfg: ClosureConfig = DEFAULT_CONFIG) -> ClosureResult:
    """Closure of I^n via I^{n+k} : (a_1^k, ..., a_d^k) for J = (a_1..a_d).

    J must verify as a reduction of I within cfg.n_max.
    """
    if n < 1:
        raise PreconditionError("power must be >= 1")
    I.check_regular()
    reduction_number(I, J, cfg)
    return _closure(I, n, J.gen_powers, cfg)


def _probe_element(m, I):
    """m in I's representation, for a probe.  Zero is refused first, the
    same way for every ideal type: it lies in every ideal and every power,
    so no probe of it means anything."""
    if isinstance(m, Polynomial) and m.is_zero():
        raise PreconditionError(
            "the zero element lies in every ideal; probe is vacuous")
    return I.element(m)


def _ring_element(m, I):
    """A membership probe's element, refused unless it lies in I's ring: a
    gap of a semigroup would otherwise read as a closure member."""
    e = _probe_element(m, I)
    if not I.power(0).contains(e):
        raise PreconditionError("element is not in the ring")
    return e


def _probe(e, I, n: int, denominator, cfg: ClosureConfig):
    """Member(k) for the least k <= k_max with e * denominator(k) inside
    I^{n+k}, else NotMemberUpTo(k_max).  I must be regular, as for every
    chain: otherwise the union of the chain means nothing
    (Ideal.check_regular).

    This is membership in the step-k value of _chain, but the probe does
    not read the chain: it tests one product at a time, so a failing step
    stops at the first product outside I^{n+k} instead of computing the
    whole colon.  Reading _chain instead made the corpus cases EX-1.4 and
    EX-3.7, mostly probes, 2 to 6 times slower (2 cores, Python 3.11).
    """
    I.check_regular()
    principal = I.power(0).times(e)
    for k in range(1, cfg.k_max + 1):
        top = I.power(n + k)
        if all(top.contains_ideal(principal.times(g))
               for g in denominator(k).gens):
            return Member(k)
    return NotMemberUpTo(cfg.k_max)


def rr_membership_probe(m, I, cfg: ClosureConfig = DEFAULT_CONFIG):
    """Does m multiply some I^k into I^{k+1}?  Member(k) / NotMemberUpTo."""
    e = _ring_element(m, I)
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
    reduction_number(I, J, cfg)
    e = _ring_element(m, I)
    if I.power(n).contains(e):
        raise PreconditionError(
            "element already lies in the n-th power; probe is vacuous")
    return _probe(e, I, n, J.gen_powers, cfg)


def is_rr_closed(I, cfg: ClosureConfig = DEFAULT_CONFIG):
    """Bounded closedness: the full chain is run to k_max (no early stop)."""
    I.check_regular()
    for k, value, grew in _chain(I, 1, I.power, cfg.k_max):
        if grew:
            return FailsAt(k, value.first_gen_outside(I))
    return Holds(cfg.k_max)


class RRDefect(Record):
    """Minimal representatives of (closure of I^{n+1}) cap I^n modulo I^{n+1}.

    Empty exactly when I^{n+1} is closed, up to the chain's status.
    ``numerator`` is the closure's value cap I^n, ``denominator`` I^{n+1}.
    """

    _fields = ("ideal", "n", "closure", "numerator", "denominator",
               "representatives")

    def is_empty(self) -> bool:
        return not self.representatives


def rr_defect(I, n: int, cfg: ClosureConfig = DEFAULT_CONFIG) -> RRDefect:
    if n < 0:
        raise PreconditionError("defect degree must be >= 0")
    closure = rr_power(I, n + 1, cfg)
    denominator = I.power(n + 1)
    if not closure.growth_steps:
        # the chain never left I^{n+1}, which lies in I^n: nothing to
        # represent
        return RRDefect(I, n, closure, denominator, denominator, ())
    numerator = closure.value
    if n > 0:
        numerator = numerator.intersect(I.power(n))
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
                return FailsAt(n, I.ring.monomial(m))
    return Holds(cfg.n_max)


def gr_nzd_probe(x, I, w: int, cfg: ClosureConfig = DEFAULT_CONFIG):
    """Is the degree-w image of x a non-zerodivisor on the graded ring?

    Checks I^{n+w} : x = I^n for n <= n_max; bounded statement only.
    """
    if w < 1:
        raise PreconditionError("graded degree must be >= 1")
    e = _probe_element(x, I)
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
    e = _probe_element(a, I)
    if not I.contains(e):
        raise PreconditionError("candidate superficial element must lie in the ideal")
    if cfg.n_max <= cfg.window:
        raise PreconditionError("superficiality needs n_max > window steps")
    principal = I.power(0).times(e)
    colons = {}  # n -> I^n : (a), shared by every offset
    first_failure = None
    for c in range(1, cfg.n_max - cfg.window + 1):
        for n in range(c + 1, cfg.n_max + 1):
            if n not in colons:
                colons[n] = I.power(n).colon(principal)
            lhs = colons[n].intersect(I.power(c))
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
