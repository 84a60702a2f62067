"""Exact calculus for monomial ideals.

A monomial ideal is stored by its (unique) minimal generator set of
exponent vectors, in ascending order, so structural equality is ideal
equality.  All ops are pure; each ideal keeps a PowerLadder that memoizes
its powers and goes away with it.

The generator-set kernels use integer operations instead of a Python loop
over each pair of tuples.

``minimalize`` works on bitsets.  The distinct candidates are sorted and
numbered; for each coordinate i and value v, one mask holds the candidates
whose i-th exponent is at most v.  The AND of a candidate's masks is the set
of candidates that divide it, so the candidate is minimal exactly when that
AND is its own bit alone.

Colon and intersection pack each exponent vector into one int, a
``core.Packing`` made inside each call, with fields wide enough for the
largest exponent of the operands.  A scan in ascending packed order meets
every divisor of a value before the value itself, and the survivors,
unpacked in that order, come out ``sorted``.

``colon_monomial`` takes an optional floor ideal ``F`` and then returns
``(A : B) + F``.  Monomial ideals form a distributive lattice, so
``(A : B) + F`` is the intersection over B's generators b of
``(A : b) + F``, and ``(F + E1) ∩ (F + E2) = F + (E1 ∩ E2)``.  The call
therefore carries only the extras, the generators outside ``F``: each
candidate set is filtered against ``F`` before it is minimalized (a multiple
of a member of ``F`` is in ``F``, so filtering first keeps the same minimal
extras), and once no extra is left the answer is ``F`` itself.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator, List, Optional, Sequence, Set, Tuple

from .core import (Exponents, Ideal, Monomial, Packing, Polynomial,
                   PowerLadder, RingDescriptor, exps_divides, exps_mul)
from .errors import (PreconditionError, RingMismatchError,
                     UnsupportedOperationError, ZeroIdealError)


def minimalize(exps: Iterable[Exponents]) -> Tuple[Exponents, ...]:
    """Divisibility-pruned canonical generator tuple."""
    cands = sorted(set(exps))
    if len(cands) < 2:
        return tuple(cands)
    # divisors[j]: the mask of candidates that divide candidate j.  The
    # candidates are in lexicographic order, so those whose first exponent
    # is at most v form a prefix; that keeps every mask below its own bit.
    first = [c[0] for c in cands]
    ends = {v: j + 1 for j, v in enumerate(first)}
    divisors = [(1 << ends[v]) - 1 for v in first]
    for i in range(1, len(cands[0])):
        column = [c[i] for c in cands]
        at_most = {}
        for j, v in enumerate(column):
            at_most[v] = at_most.get(v, 0) | (1 << j)
        acc = 0
        for v in sorted(at_most):
            acc |= at_most[v]
            at_most[v] = acc
        for j, v in enumerate(column):
            divisors[j] &= at_most[v]
    return tuple(c for c, m in zip(cands, divisors) if not m & (m - 1))


@dataclass(frozen=True)
class MonomialIdeal(Ideal):
    ring: RingDescriptor
    gens: Tuple[Exponents, ...]

    @staticmethod
    def from_gens(ring: RingDescriptor, gens: Iterable[Exponents]) -> "MonomialIdeal":
        gens = tuple(gens)
        if not gens:
            raise ZeroIdealError("a monomial ideal needs at least one generator")
        for g in gens:
            if len(g) != ring.nvars:
                raise PreconditionError("exponent vector length != number of variables")
        return MonomialIdeal(ring, minimalize(gens))

    def _check(self, other: "MonomialIdeal") -> None:
        if self.ring.variables != other.ring.variables:
            raise RingMismatchError("monomial ideals live in different rings")

    def unit(self) -> "MonomialIdeal":
        return unit_ideal(self.ring)

    # -- membership -------------------------------------------------------

    def contains(self, e: Exponents) -> bool:
        return any(exps_divides(g, e) for g in self.gens)

    def element(self, m) -> Exponents:
        """The exponent vector of a Monomial, a one-term Polynomial or a
        tuple."""
        if isinstance(m, Monomial):
            return m.exps
        if isinstance(m, Polynomial):
            if len(m.terms) != 1:
                raise UnsupportedOperationError(
                    "monomial-ideal probes take a single monomial")
            return next(iter(m.terms))
        if isinstance(m, tuple):
            return m
        raise UnsupportedOperationError(f"cannot probe with {type(m).__name__}")

    def gens_outside(self, other: "MonomialIdeal") -> Iterator[Monomial]:
        return (Monomial(self.ring, g) for g in self.gens
                if not other.contains(g))

    # -- semiring ops ------------------------------------------------------

    def __add__(self, other: "MonomialIdeal") -> "MonomialIdeal":
        self._check(other)
        return MonomialIdeal(self.ring, minimalize(self.gens + other.gens))

    def __mul__(self, other: "MonomialIdeal") -> "MonomialIdeal":
        self._check(other)
        prods = [exps_mul(a, b) for a in self.gens for b in other.gens]
        return MonomialIdeal(self.ring, minimalize(prods))

    def times(self, e: Exponents) -> "MonomialIdeal":
        """The ideal e * I.  Multiplying by e keeps the generators minimal
        and in lexicographic order."""
        return MonomialIdeal(self.ring, tuple(exps_mul(e, g) for g in self.gens))

    def gen_powers(self, k: int) -> "MonomialIdeal":
        return MonomialIdeal.from_gens(
            self.ring, [tuple(k * x for x in g) for g in self.gens])

    def colon(self, other: "MonomialIdeal",
              floor: Optional["MonomialIdeal"] = None) -> "MonomialIdeal":
        return colon_monomial(self, other, floor)

    def intersect(self, other: "MonomialIdeal") -> "MonomialIdeal":
        return intersect_monomial(self, other)

    def num_min_gens(self) -> int:
        return len(self.gens)

    def is_unit(self) -> bool:
        return self.gens == ((0,) * self.ring.nvars,)

    def is_zero_dimensional(self) -> bool:
        """A pure power of every variable is among the generators."""
        pure = set()
        for g in self.gens:
            support = [i for i, e in enumerate(g) if e > 0]
            if len(support) == 1:
                pure.add(support[0])
            elif len(support) == 0:
                return True  # unit ideal
        return len(pure) == self.ring.nvars

    def __str__(self):
        return "(" + ", ".join(self.ring.format_exponents(g) for g in self.gens) + ")"


def unit_ideal(ring: RingDescriptor) -> MonomialIdeal:
    return MonomialIdeal(ring, ((0,) * ring.nvars,))


# ---------------------------------------------------------------------------
# colon / intersection


def _packing(nvars: int, *gen_sets: Tuple[Exponents, ...]) -> Packing:
    """The packing of one call, sized by the operands' largest exponent."""
    top = max((x for gs in gen_sets for g in gs for x in g), default=0)
    return Packing(nvars, top.bit_length() + 1)


def colon_single(A: MonomialIdeal, b: Exponents) -> MonomialIdeal:
    P = _packing(A.ring.nvars, A.gens, (b,))
    As = list(map(P.pack, A.gens))
    return MonomialIdeal(A.ring, tuple(map(P.unpack, P.quotients(As, P.pack(b)))))


def intersect_monomial(A: MonomialIdeal, B: MonomialIdeal) -> MonomialIdeal:
    A._check(B)
    P = _packing(A.ring.nvars, A.gens, B.gens)
    As, Bs = list(map(P.pack, A.gens)), list(map(P.pack, B.gens))
    return MonomialIdeal(A.ring, tuple(map(P.unpack, P.lcms(As, Bs))))


def colon_monomial(A: MonomialIdeal, B: MonomialIdeal,
                   floor: Optional[MonomialIdeal] = None) -> MonomialIdeal:
    """(A : B) = intersection over B's generators of (A : b).

    With a floor ideal, returns (A : B) + floor, working only on the
    generators outside floor (see the module docstring); when (A : B) adds
    nothing to floor, floor itself is returned."""
    A._check(B)
    if not B.gens:
        raise ZeroIdealError("colon by the zero ideal")
    floor_gens: Tuple[Exponents, ...] = ()
    if floor is not None:
        A._check(floor)
        floor_gens = floor.gens
    P = _packing(A.ring.nvars, A.gens, B.gens, floor_gens)
    As, Fs = list(map(P.pack, A.gens)), list(map(P.pack, floor_gens))
    extras = None
    for b in map(P.pack, B.gens):
        part = P.quotients(As, b, Fs)
        extras = part if extras is None else P.lcms(extras, part, Fs)
        if not extras:  # only possible with a floor
            return floor
    if floor is not None:
        extras = P.minimal(Fs + extras)
    return MonomialIdeal(A.ring, tuple(map(P.unpack, extras)))


# ---------------------------------------------------------------------------
# powers


def member_of_power(m: Exponents, ladder: PowerLadder, n: int) -> bool:
    """m in I^n, read off the power the ladder keeps."""
    if n < 1:
        raise PreconditionError("power must be >= 1")
    return ladder.power(n).contains(m)


# ---------------------------------------------------------------------------
# socle candidates / Borel / associated primes


def variable_ideal(ring: RingDescriptor) -> MonomialIdeal:
    gens = []
    for i in range(ring.nvars):
        e = [0] * ring.nvars
        e[i] = 1
        gens.append(tuple(e))
    return MonomialIdeal(ring, tuple(sorted(gens)))


def socle_candidates(I: MonomialIdeal) -> Tuple[Exponents, ...]:
    """Minimal monomials of (I : (X_1,...,X_d)) \\ I.

    These are the only candidate monomial members of the Ratliff-Rush
    closure outside I when I is zero-dimensional.
    """
    if not I.is_zero_dimensional():
        raise PreconditionError("socle candidates need a zero-dimensional ideal")
    C = colon_monomial(I, variable_ideal(I.ring))
    return tuple(g for g in C.gens if not I.contains(g))


def is_borel_fixed(I: MonomialIdeal, priority: Sequence[int], direction: str) -> bool:
    """Closure under single-variable exchanges.

    priority lists variable indices largest first; direction 'to-larger'
    moves one unit of exponent from a variable to each larger variable,
    'to-smaller' to each smaller one.
    """
    if direction not in ("to-larger", "to-smaller"):
        raise PreconditionError("direction must be 'to-larger' or 'to-smaller'")
    prio = list(priority)
    rank = {v: i for i, v in enumerate(prio)}  # smaller rank = larger variable
    for g in I.gens:
        for v, e in enumerate(g):
            if e == 0:
                continue
            for w in range(len(g)):
                if w == v:
                    continue
                larger = rank[w] < rank[v]
                if (direction == "to-larger") != larger:
                    continue
                moved = list(g)
                moved[v] -= 1
                moved[w] += 1
                if not I.contains(tuple(moved)):
                    return False
    return True


def associated_primes_monomial(I: MonomialIdeal) -> Tuple[Tuple[str, ...], ...]:
    """All primes (subsets of variables) of the form (I : m), m | lcm(gens)."""
    if I.is_unit():
        raise ZeroIdealError("the unit ideal has no associated primes")
    lcm = tuple(max(g[i] for g in I.gens) for i in range(I.ring.nvars))
    primes: Set[Tuple[int, ...]] = set()
    for divisor in itertools.product(*(range(e + 1) for e in lcm)):
        if I.contains(divisor):
            continue
        C = colon_monomial(I, MonomialIdeal(I.ring, (divisor,)))
        support = []
        ok = True
        for g in C.gens:
            nz = [i for i, e in enumerate(g) if e > 0]
            if len(nz) != 1 or g[nz[0]] != 1:
                ok = False
                break
            support.append(nz[0])
        if ok and support:
            primes.add(tuple(sorted(support)))
    return tuple(sorted(tuple(I.ring.variables[i] for i in p) for p in primes))


# ---------------------------------------------------------------------------
# integral closure via the Newton polyhedron


def _lp_feasible(rows: List[List[Fraction]], rhs: List[Fraction]) -> bool:
    """Exact phase-1 simplex feasibility for rows * x = rhs, x >= 0."""
    m = len(rows)
    n = len(rows[0]) if m else 0
    # make rhs non-negative
    T = []
    b = []
    for row, r in zip(rows, rhs):
        if r < 0:
            T.append([-v for v in row])
            b.append(-r)
        else:
            T.append(list(row))
            b.append(r)
    # tableau with artificial variables; minimize their sum
    total = n + m
    basis = list(range(n, total))
    tab = [T[i] + [Fraction(1 if j == i else 0) for j in range(m)] + [b[i]]
           for i in range(m)]
    # phase-1 reduced costs: sum of rows over the original columns,
    # zero over the (basic) artificial columns
    cost = [sum((tab[i][j] for i in range(m)), Fraction(0)) if j < n else Fraction(0)
            for j in range(total)]
    cost.append(sum(b, Fraction(0)))
    while True:
        # Bland's rule: first column with positive reduced cost
        pivot_col = next((j for j in range(total) if cost[j] > 0), None)
        if pivot_col is None:
            break
        ratios = [(tab[i][total] / tab[i][pivot_col], basis[i], i)
                  for i in range(m) if tab[i][pivot_col] > 0]
        if not ratios:
            break  # unbounded (cannot happen in phase 1)
        _, _, pivot_row = min(ratios)
        pv = tab[pivot_row][pivot_col]
        tab[pivot_row] = [v / pv for v in tab[pivot_row]]
        for i in range(m):
            if i != pivot_row and tab[i][pivot_col]:
                f = tab[i][pivot_col]
                tab[i] = [a - f * b_ for a, b_ in zip(tab[i], tab[pivot_row])]
        if cost[pivot_col]:
            f = cost[pivot_col]
            cost = [a - f * b_ for a, b_ in zip(cost, tab[pivot_row] + [])]
        basis[pivot_row] = pivot_col
    return cost[total] == 0


def in_newton_polyhedron(e: Exponents, gens: Sequence[Exponents]) -> bool:
    """e in conv(gens) + R_{>=0}^d, by exact rational feasibility.

    Feasibility of: lambda >= 0, slack >= 0, sum lambda = 1,
    sum lambda * g + slack = e.
    """
    d = len(e)
    n = len(gens)
    rows: List[List[Fraction]] = []
    rhs: List[Fraction] = []
    rows.append([Fraction(1)] * n + [Fraction(0)] * d)
    rhs.append(Fraction(1))
    for i in range(d):
        row = [Fraction(g[i]) for g in gens] + \
              [Fraction(1 if j == i else 0) for j in range(d)]
        rows.append(row)
        rhs.append(Fraction(e[i]))
    return _lp_feasible(rows, rhs)


def integral_closure_monomial(I: MonomialIdeal) -> MonomialIdeal:
    """The members of the Newton polyhedron in the box of I's largest
    exponents, minimalized.

    The closure is an ideal, so a point that a member found so far divides
    is a member without a simplex run; the box is scanned in lexicographic
    order, which meets divisors before their multiples."""
    box = [max(g[i] for g in I.gens) for i in range(I.ring.nvars)]
    found = list(I.gens)
    for e in itertools.product(*(range(b + 1) for b in box)):
        if any(exps_divides(g, e) for g in found):
            continue
        if in_newton_polyhedron(e, I.gens):
            found.append(e)
    return MonomialIdeal(I.ring, minimalize(found))

