"""Closure chains on semigroup, two-ray affine and polynomial ideals against
a reference chain written here with the plain colon.

The engine passes the running value of a chain to each colon as its floor,
and takes a colon returned as the floor itself for a step that adds
nothing.  The reference passes no floor and tests every colon against the
running value, as tests/test_monomial_oracle.py does for monomial ideals;
the two must agree on the value, the status and the growth steps of
``rr_power`` and ``rr_closure_via_reduction``, and on the verdict and
witness of ``is_rr_closed``.  A semigroup ideal knows its principal-reduction
index r, so its ``rr_power`` chain runs to max(r, 1), and so does the
reference.
"""

import random
from math import gcd

import pytest

from rrlab.core import RingDescriptor
from rrlab.groebner import IdealHandle
from rrlab.parser import parse_polynomial
from rrlab.ratliff_rush import (BoundReached, ClosureConfig, FailsAt, Holds,
                                StabilizedWindow, is_rr_closed,
                                rr_closure_via_reduction, rr_power)
from rrlab.semigroup import (AffineIdeal, AffineSemigroup2D,
                             NumericalSemigroup, SemigroupIdeal)


def _reference_chain(I, n, denominator, cfg, proved_at=None):
    """Union I^{n+k} : denominator(k) into I^n, with no floor, until
    cfg.window consecutive steps add nothing, or through step proved_at."""
    acc, growth, quiet = I.power(n), [], 0
    for k in range(1, (cfg.k_max if proved_at is None else proved_at) + 1):
        cand = I.power(n + k).colon(denominator(k))
        if acc.contains_ideal(cand):
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


def _reference_is_rr_closed(I, cfg):
    for k in range(1, cfg.k_max + 1):
        witness = I.power(1 + k).colon(I.power(k)).first_gen_outside(I)
        if witness is not None:
            return FailsAt(k, witness)
    return Holds(cfg.k_max)


def _check_chains(I, cfg, proved_at=None):
    for n in (1, 2):
        for got, want in (
                (rr_power(I, n, cfg),
                 _reference_chain(I, n, I.power, cfg, proved_at)),
                (rr_closure_via_reduction(I, I, n, cfg),
                 _reference_chain(I, n, I.gen_powers, cfg))):
            value, status, growth = want
            assert got.value.equals(value), (I, n)
            assert (got.status, got.growth_steps) == (status, growth), (I, n)
    assert is_rr_closed(I, cfg) == _reference_is_rr_closed(I, cfg), I


def _sums(gens, bound):
    """The sums of gens (0 included) up to bound."""
    members = {0}
    for z in range(1, bound + 1):
        if any(z - g in members for g in gens):
            members.add(z)
    return sorted(members)


@pytest.mark.parametrize("seed", range(4))
def test_semigroup_chains_match_plain_colon_reference(seed):
    rng = random.Random(seed)
    for _ in range(6):
        gens = [2, 4]
        while gcd(*gens) != 1:
            gens = rng.sample(range(3, 12), rng.randint(2, 3))
        S = NumericalSemigroup(gens)
        pool = [z for z in _sums(gens, 30) if z]
        I = SemigroupIdeal.from_gens(S, rng.sample(pool, rng.randint(1, 3)))
        cfg = ClosureConfig(k_max=6, window=rng.randint(2, 3))
        _check_chains(I, cfg, max(I.principal_reduction_index(), 1))


def _plane_sums(gens, top):
    reach, frontier = {(0, 0)}, [(0, 0)]
    while frontier:
        p = frontier.pop()
        for g in gens:
            q = (p[0] + g[0], p[1] + g[1])
            if max(q) <= top and q not in reach:
                reach.add(q)
                frontier.append(q)
    return sorted(reach - {(0, 0)})


@pytest.mark.parametrize("seed", range(4))
def test_affine_chains_match_plain_colon_reference(seed):
    rng = random.Random(seed)
    # in <(p, 0), (0, p), (1, 1)>, the ideal of (pa, 0), (pa - 1, 1),
    # (1, pb - 1), (0, pb), whose chain often grows
    p, a, b = rng.randint(1, 2), rng.randint(3, 5), rng.randint(3, 5)
    S = AffineSemigroup2D([(p, 0), (0, p), (1, 1)])
    cases = [(S, [(p * a, 0), (p * a - 1, 1), (1, p * b - 1), (0, p * b)])]
    for _ in range(3):
        # (a, 0) and (0, b) span two rays; a third generator is drawn
        gens = [(rng.randint(1, 3), 0), (0, rng.randint(1, 3)),
                (rng.randint(1, 3), rng.randint(1, 3))]
        pool = _plane_sums(gens, 8)
        cases.append((AffineSemigroup2D(gens),
                      rng.sample(pool, rng.randint(1, 3))))
    for S, gens in cases:
        _check_chains(AffineIdeal.from_gens(S, gens),
                      ClosureConfig(k_max=5, window=rng.randint(2, 3)))


@pytest.mark.parametrize("gens", [
    ("X^4", "X^3*Y", "X*Y^3", "Y^4"),
    ("(X + Y)^4", "(X + Y)^3*Y", "(X + Y)*Y^3", "Y^4"),
    ("X^2 - Y^2", "X*Y"),
    ("X^2 + Y^3", "X*Y^2"),
])
def test_handle_chains_match_plain_colon_reference(gens):
    R = RingDescriptor(("X", "Y"))
    I = IdealHandle(R, [parse_polynomial(R, g) for g in gens])
    _check_chains(I, ClosureConfig(k_max=4, window=2))
