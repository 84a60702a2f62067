"""Exact ideal calculus in numerical and 2-D affine semigroup rings.

Ideals here are exponent sets: an ideal of F[[t^S]] generated by monomials
is the set E = gens + S.

A numerical semigroup S with least generator m is kept as its Apery set w,
w[r] the least member of S congruent to r mod m (Rosales and
Garcia-Sanchez, *Numerical Semigroups*, 2009, ch. 1), and an ideal E as its
residue-class vector v, v[r] the least member of E congruent to r; z lies
in E exactly when z >= v[z % m].  So E + F and E cap F take the per-residue
min and max, E * F is spanned by the sums of generators, and
(E : F)[r] = max(w[r], max over generators h of F of v[(r + h) % m] - h).
The minimal generators are the v[r] from which no generator of S can be
subtracted inside E, and equal ideals have equal vectors.  No operation
scans the integers below the conductor.  The genus of S is Selmer's sum of
(w[r] - r) / m, and it bounds the principal-reduction index: for x = min E
the sets E^n - n*x ascend from S inside N, each strict step adding a gap.

Plane affine ideals are kept by their minimal generators, which are unique.
"""

from __future__ import annotations

from functools import cached_property
from heapq import heapify, heappop, heappush
from math import gcd
from typing import Iterable, List, Optional, Sequence, Tuple

from .core import Ideal, Record
from .errors import (PreconditionError, ResourceLimitError, ZeroIdealError)

Pair = Tuple[int, int]


# ---------------------------------------------------------------------------
# numerical semigroups


class NumericalSemigroup:
    """Additive submonoid of N with finite complement, by its Apery set."""

    def __init__(self, gens: Sequence[int]):
        gens = tuple(sorted(set(gens)))
        if not gens or any(g <= 0 for g in gens):
            raise PreconditionError("generators must be positive integers")
        if gcd(*gens) != 1:
            raise PreconditionError("generators must be coprime overall")
        self.gens = gens
        m = gens[0]
        self.apery = self.span((0,))
        self.genus = sum((w - r) // m for r, w in enumerate(self.apery))
        self.frobenius = max(self.apery) - m
        self.conductor = self.frobenius + 1

    def span(self, elems: Iterable[int]) -> Tuple[int, ...]:
        """The residue-class vector of elems + S, by Dijkstra on the residues
        mod m with an edge r -> r + g for each other generator g."""
        m = self.gens[0]
        v: List[Optional[int]] = [None] * m
        heap = [(z, z % m) for z in elems]
        heapify(heap)
        while heap:
            z, r = heappop(heap)
            if v[r] is None:
                v[r] = z
                for g in self.gens[1:]:
                    if v[(r + g) % m] is None:
                        heappush(heap, (z + g, (r + g) % m))
        return tuple(v)

    def contains(self, z: int) -> bool:
        if z < 0:
            raise PreconditionError("membership query must be non-negative")
        return z >= self.apery[z % self.gens[0]]

    def members_upto(self, bound: int) -> Tuple[int, ...]:
        return tuple(z for z in range(bound + 1) if self.contains(z))

    def __repr__(self):
        return f"<{','.join(map(str, self.gens))}>"


class SemigroupIdeal(Ideal, Record):
    """Ideal of a numerical semigroup ring, by its residue-class vector."""

    _fields = ("S", "v")

    def __init__(self, S: NumericalSemigroup, v: Tuple[int, ...]):
        object.__setattr__(self, "S", S)
        object.__setattr__(self, "v", v)

    @staticmethod
    def from_gens(S: NumericalSemigroup, gens: Iterable[int]) -> "SemigroupIdeal":
        gens = tuple(gens)
        if not gens:
            raise ZeroIdealError("a semigroup ideal needs at least one generator")
        for g in gens:
            if g < 0 or not S.contains(g):
                raise PreconditionError(f"generator {g} is not in the semigroup")
        return SemigroupIdeal(S, S.span(gens))

    @cached_property
    def gens(self) -> Tuple[int, ...]:
        """The minimal generators, ascending."""
        return tuple(sorted(z for z in self.v
                            if not any(self.contains(z - g) for g in self.S.gens)))

    def _check(self, other: "SemigroupIdeal") -> None:
        if self.S.gens != other.S.gens:
            raise PreconditionError("ideals belong to different semigroups")

    def unit(self) -> "SemigroupIdeal":
        return SemigroupIdeal(self.S, self.S.apery)

    def contains(self, z: int) -> bool:
        return z >= self.v[z % len(self.v)]

    def contains_ideal(self, other: "SemigroupIdeal") -> bool:
        self._check(other)
        return all(a <= b for a, b in zip(self.v, other.v))

    def equals(self, other: "SemigroupIdeal") -> bool:
        """The residue vector is canonical, so equal ideals have equal ones."""
        self._check(other)
        return self.v == other.v

    def elements_upto(self, bound: int) -> Tuple[int, ...]:
        return tuple(z for z in range(bound + 1) if self.contains(z))

    def __add__(self, other: "SemigroupIdeal") -> "SemigroupIdeal":
        self._check(other)
        return SemigroupIdeal(self.S, tuple(map(min, self.v, other.v)))

    def __mul__(self, other: "SemigroupIdeal") -> "SemigroupIdeal":
        self._check(other)
        return SemigroupIdeal(
            self.S, self.S.span({a + b for a in self.gens for b in other.gens}))

    def times(self, z: int) -> "SemigroupIdeal":
        """The ideal t^z * E: every member shifted by z."""
        m = len(self.v)
        return SemigroupIdeal(self.S, tuple(self.v[(r - z) % m] + z
                                            for r in range(m)))

    def gen_powers(self, k: int) -> "SemigroupIdeal":
        return SemigroupIdeal.from_gens(self.S, [k * g for g in self.gens])

    def element(self, m) -> int:
        if isinstance(m, int):
            return m
        raise PreconditionError("semigroup elements are integers (t-exponents)")

    def colon(self, other: "SemigroupIdeal",
              floor: Optional["SemigroupIdeal"] = None) -> "SemigroupIdeal":
        """{z in S : z + gens(other) inside self}, per residue class.

        The floor is not used: the whole colon is returned."""
        self._check(other)
        v, m = self.v, len(self.v)
        return SemigroupIdeal(self.S, tuple(
            max(w, *(v[(r + h) % m] - h for h in other.gens))
            for r, w in enumerate(self.S.apery)))

    def intersect(self, other: "SemigroupIdeal") -> "SemigroupIdeal":
        self._check(other)
        return SemigroupIdeal(self.S, tuple(map(max, self.v, other.v)))

    def __str__(self):
        return "(" + ", ".join(f"t^{g}" for g in self.gens) + ")"

    # exact closure ---------------------------------------------------------

    def principal_reduction_index(self) -> int:
        """Smallest r with E^{r+1} = x + E^r, for x = min E (t^x reduces E).

        E^n - n*x ascends from S inside N and grows at each n < r, each time
        by a gap of S, so r <= genus."""
        x = min(self.v)
        for r in range(self.S.genus):
            if self.power(r + 1).v == self.power(r).times(x).v:
                return r
        return self.S.genus


class AffineSemigroup2D:
    """Submonoid of N^2 generated by finitely many nonzero pairs."""

    def __init__(self, gens: Sequence[Pair]):
        gens = tuple(sorted(set(map(tuple, gens))))
        if not gens or any(len(g) != 2 or g < (0, 0) or g == (0, 0) for g in gens):
            raise PreconditionError("generators must be nonzero pairs of naturals")
        if any(a < 0 or b < 0 for a, b in gens):
            raise PreconditionError("generators must be non-negative")
        self.gens = gens
        self._memo = {(0, 0): True}
        self._lattice = _lattice_basis(gens)
        self._rays = _extreme_rays(gens)

    def contains(self, p: Pair) -> bool:
        p = tuple(p)
        if p[0] < 0 or p[1] < 0:
            raise PreconditionError("membership query must be componentwise >= 0")
        hit = self._memo.get(p)
        if hit is not None:
            return hit
        if not (self._in_cone(p) and self._in_group(p)):
            # A member is a sum of generators, so it lies in the cone they
            # span and in the group they generate.  Checking both first
            # spares the search below, which must visit every point under p
            # before it can answer False.
            return False
        return self._search(p)

    def _in_cone(self, p: Pair) -> bool:
        (a, b), (c, d) = self._rays
        return a * p[1] - b * p[0] >= 0 and p[0] * d - p[1] * c >= 0

    def _in_group(self, p: Pair) -> bool:
        a, b, c = self._lattice
        if a == 0:
            if p[0]:
                return False
            rest = p[1]
        else:
            if p[0] % a:
                return False
            rest = p[1] - (p[0] // a) * b
        return rest % c == 0 if c else rest == 0

    def _search(self, p: Pair) -> bool:
        """Memoized DFS on p minus generators, with an explicit stack of
        [point, index of the next generator to try] frames."""
        memo = self._memo
        gens = self.gens
        stack = [[p, 0]]
        while stack:
            frame = stack[-1]
            (x, y), start = frame
            result = False
            for idx in range(start, len(gens)):
                a, b = gens[idx]
                if a > x or b > y:
                    continue
                known = memo.get((x - a, y - b))
                if known is None:
                    frame[1] = idx  # try this generator again once that is known
                    stack.append([(x - a, y - b), 0])
                    result = None
                    break
                if known:
                    result = True
                    break
            if result is not None:
                memo[(x, y)] = result
                stack.pop()
        return memo[p]

    def __repr__(self):
        return "<" + ", ".join(map(str, self.gens)) + ">"


def _xgcd(a: int, b: int) -> Tuple[int, int, int]:
    """(g, s, t) with g = gcd(a, b) = s*a + t*b, for a, b >= 0."""
    s0, s1, t0, t1 = 1, 0, 0, 1
    while b:
        q = a // b
        a, b = b, a - q * b
        s0, s1 = s1, s0 - q * s1
        t0, t1 = t1, t0 - q * t1
    return a, s0, t0


def _lattice_basis(gens: Sequence[Pair]) -> Tuple[int, int, int]:
    """(a, b, c) such that the subgroup of Z^2 generated by gens is
    Z*(a, b) + Z*(0, c), with a, c >= 0 and b == 0 whenever a == 0."""
    a = b = c = 0
    for x, y in gens:
        g, s, t = _xgcd(a, x)
        if g:
            # unimodular change of basis of {(a, b), (x, y)}:
            # s*(a, b) + t*(x, y) = (g, .), (a*(x, y) - x*(a, b)) / g = (0, .)
            c = gcd(c, (a * y - x * b) // g)
            a, b = g, s * b + t * y
        else:
            c = gcd(c, y)
    return a, b, c


def _extreme_rays(gens: Sequence[Pair]) -> Tuple[Pair, Pair]:
    """The generators of least and greatest angle to the first axis; their
    rays bound the cone that all the generators span."""
    low = high = gens[0]
    for x, y in gens:
        if x * low[1] - y * low[0] > 0:
            low = (x, y)
        if high[0] * y - high[1] * x > 0:
            high = (x, y)
    return low, high


def _affine_minimalize(S: AffineSemigroup2D, cands: Iterable[Pair]) -> Tuple[Pair, ...]:
    cands = sorted(set(map(tuple, cands)), key=lambda p: (p[0] + p[1], p))
    kept: List[Pair] = []
    for g in cands:
        if not any(g[0] >= k[0] and g[1] >= k[1]
                   and S.contains((g[0] - k[0], g[1] - k[1])) for k in kept):
            kept.append(g)
    return tuple(sorted(kept))


class AffineIdeal(Ideal, Record):
    """Monomial ideal of a 2-D affine semigroup ring, by minimal generators."""

    _fields = ("S", "gens")

    def __init__(self, S: AffineSemigroup2D, gens: Tuple[Pair, ...]):
        object.__setattr__(self, "S", S)
        object.__setattr__(self, "gens", gens)

    @staticmethod
    def from_gens(S: AffineSemigroup2D, gens: Iterable[Pair]) -> "AffineIdeal":
        gens = tuple(map(tuple, gens))
        if not gens:
            raise ZeroIdealError("an affine ideal needs at least one generator")
        for g in gens:
            if not S.contains(g):
                raise PreconditionError(f"generator {g} is not in the semigroup")
        return AffineIdeal(S, _affine_minimalize(S, gens))

    def _check(self, other: "AffineIdeal") -> None:
        if self.S.gens != other.S.gens:
            raise PreconditionError("ideals belong to different semigroups")

    def unit(self) -> "AffineIdeal":
        return AffineIdeal(self.S, ((0, 0),))

    def contains(self, p: Pair) -> bool:
        p = tuple(p)
        return any(p[0] >= g[0] and p[1] >= g[1]
                   and self.S.contains((p[0] - g[0], p[1] - g[1]))
                   for g in self.gens)

    def __add__(self, other: "AffineIdeal") -> "AffineIdeal":
        self._check(other)
        return AffineIdeal(self.S, _affine_minimalize(self.S, self.gens + other.gens))

    def __mul__(self, other: "AffineIdeal") -> "AffineIdeal":
        self._check(other)
        sums = [(a[0] + b[0], a[1] + b[1]) for a in self.gens for b in other.gens]
        return AffineIdeal(self.S, _affine_minimalize(self.S, sums))

    def times(self, p: Pair) -> "AffineIdeal":
        """The ideal t^p * I: every generator shifted by p."""
        return AffineIdeal(self.S, tuple((g[0] + p[0], g[1] + p[1])
                                         for g in self.gens))

    def gen_powers(self, k: int) -> "AffineIdeal":
        return AffineIdeal.from_gens(self.S, [(k * a, k * b) for a, b in self.gens])

    def element(self, m) -> Pair:
        if isinstance(m, tuple) and len(m) == 2:
            return m
        raise PreconditionError("affine elements are exponent pairs")

    def colon(self, other: "AffineIdeal",
              floor: Optional["AffineIdeal"] = None) -> "AffineIdeal":
        """Bounded box search for {p in S : p + gens(other) inside self}.

        The floor is not used: the whole colon is returned."""
        self._check(other)
        bx = max(g[0] for g in self.gens) + max(max(s[0] for s in self.S.gens), 1)
        by = max(g[1] for g in self.gens) + max(max(s[1] for s in self.S.gens), 1)
        bx += max(g[0] for g in other.gens)
        by += max(g[1] for g in other.gens)
        found = []
        for x in range(bx + 1):
            for y in range(by + 1):
                p = (x, y)
                if self.S.contains(p) and all(
                        self.contains((x + g[0], y + g[1])) for g in other.gens):
                    found.append(p)
        if not found:
            raise ResourceLimitError("affine colon box exhausted without candidates")
        mins = _affine_minimalize(self.S, found)
        if any(g[0] >= bx or g[1] >= by for g in mins):
            raise ResourceLimitError("affine colon box too small to certify generators")
        return AffineIdeal(self.S, mins)

    def intersect(self, other: "AffineIdeal") -> "AffineIdeal":
        self._check(other)
        bx = max(g[0] for g in self.gens + other.gens) + \
            max(max(s[0] for s in self.S.gens), 1) * 2
        by = max(g[1] for g in self.gens + other.gens) + \
            max(max(s[1] for s in self.S.gens), 1) * 2
        found = [(x, y) for x in range(bx + 1) for y in range(by + 1)
                 if self.contains((x, y)) and other.contains((x, y))]
        if not found:
            raise ResourceLimitError("affine intersection box exhausted")
        mins = _affine_minimalize(self.S, found)
        if any(g[0] >= bx or g[1] >= by for g in mins):
            raise ResourceLimitError("affine intersection box too small to certify")
        return AffineIdeal(self.S, mins)

    def __str__(self):
        return "(" + ", ".join(str(g) for g in self.gens) + ")"


