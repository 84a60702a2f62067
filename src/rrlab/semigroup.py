"""Exact ideal calculus in numerical and 2-D affine semigroup rings.

Ideals here are exponent sets: an ideal of F[[t^S]] generated by monomials
is the set E = gens + S, and every operation (sum, product, colon,
intersection, closure chain) is integer arithmetic on such sets.  Minimal
generator sets are unique, so structural equality is ideal equality.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd
from typing import Iterable, List, Optional, Sequence, Set, Tuple

from .core import Ideal
from .errors import (PreconditionError, ResourceLimitError, ZeroIdealError)
from .ratliff_rush import (ClosureConfig, ClosureResult, DEFAULT_CONFIG,
                           rr_power)

Pair = Tuple[int, int]


# ---------------------------------------------------------------------------
# numerical semigroups


class NumericalSemigroup:
    """Additive submonoid of N with finite complement."""

    def __init__(self, gens: Sequence[int]):
        gens = tuple(sorted(set(gens)))
        if not gens or any(g <= 0 for g in gens):
            raise PreconditionError("generators must be positive integers")
        g = 0
        for a in gens:
            g = gcd(g, a)
        if g != 1:
            raise PreconditionError("generators must be coprime overall")
        self.gens = gens
        self._members = self._sieve()
        self.conductor = self._find_conductor()
        self.gaps = tuple(z for z in range(self.conductor) if z not in self._members)
        self.frobenius = self.conductor - 1 if self.conductor > 0 else -1

    def _sieve(self) -> Set[int]:
        """Sieve members until a full run of min(gens) consecutive ones appears."""
        a = self.gens[0]
        bound = a * max(self.gens) + max(self.gens) + 1  # generous; run found earlier
        members = {0}
        for z in range(1, bound):
            if any(z - g >= 0 and (z - g) in members for g in self.gens):
                members.add(z)
        return members

    def _find_conductor(self) -> int:
        """First point of a run of min(gens) consecutive members: everything
        from there on is a member (add the smallest generator repeatedly)."""
        a = self.gens[0]
        run = 0
        start = 0
        for z in range(max(self._members) + 2):
            if z in self._members:
                if run == 0:
                    start = z
                run += 1
                if run >= a:
                    return start
            else:
                run = 0
        raise ResourceLimitError("sieve bound too small to locate the conductor")

    def contains(self, z: int) -> bool:
        if z < 0:
            raise PreconditionError("membership query must be non-negative")
        return z >= self.conductor or z in self._members

    def members_upto(self, bound: int) -> Tuple[int, ...]:
        return tuple(z for z in range(bound + 1) if self.contains(z))

    def __repr__(self):
        return f"<{','.join(map(str, self.gens))}>"


def _ns_minimalize(S: NumericalSemigroup, cands: Iterable[int]) -> Tuple[int, ...]:
    """Minimal generators: drop g when g - g' lies in S for another candidate."""
    cands = sorted(set(cands))
    kept: List[int] = []
    for g in cands:
        if not any(S.contains(g - k) for k in kept):
            kept.append(g)
    return tuple(kept)


@dataclass(frozen=True)
class SemigroupIdeal(Ideal):
    """Ideal of a numerical semigroup ring, by its unique minimal generators."""

    S: NumericalSemigroup
    gens: Tuple[int, ...]

    @staticmethod
    def from_gens(S: NumericalSemigroup, gens: Iterable[int]) -> "SemigroupIdeal":
        gens = tuple(gens)
        if not gens:
            raise ZeroIdealError("a semigroup ideal needs at least one generator")
        for g in gens:
            if g < 0 or not S.contains(g):
                raise PreconditionError(f"generator {g} is not in the semigroup")
        return SemigroupIdeal(S, _ns_minimalize(S, gens))

    def _check(self, other: "SemigroupIdeal") -> None:
        if self.S.gens != other.S.gens:
            raise PreconditionError("ideals belong to different semigroups")

    def unit(self) -> "SemigroupIdeal":
        return SemigroupIdeal(self.S, (0,))

    def contains(self, z: int) -> bool:
        return any(z - g >= 0 and self.S.contains(z - g) for g in self.gens)

    def min_element(self) -> int:
        return min(self.gens)

    def elements_upto(self, bound: int) -> Tuple[int, ...]:
        return tuple(z for z in range(bound + 1) if self.contains(z))

    def __add__(self, other: "SemigroupIdeal") -> "SemigroupIdeal":
        self._check(other)
        return SemigroupIdeal(self.S, _ns_minimalize(self.S, self.gens + other.gens))

    def __mul__(self, other: "SemigroupIdeal") -> "SemigroupIdeal":
        self._check(other)
        sums = [a + b for a in self.gens for b in other.gens]
        return SemigroupIdeal(self.S, _ns_minimalize(self.S, sums))

    def times(self, z: int) -> "SemigroupIdeal":
        """The ideal t^z * E: every generator shifted by z."""
        return SemigroupIdeal(self.S, tuple(g + z for g in self.gens))

    def gen_powers(self, k: int) -> "SemigroupIdeal":
        return SemigroupIdeal.from_gens(self.S, [k * g for g in self.gens])

    def element(self, m) -> int:
        if isinstance(m, int):
            return m
        raise PreconditionError("semigroup elements are integers (t-exponents)")

    def colon(self, other: "SemigroupIdeal",
              floor: Optional["SemigroupIdeal"] = None) -> "SemigroupIdeal":
        """{z in S : z + gens(other) inside self}, exact by the conductor bound.

        The floor is not used: the whole colon is returned."""
        self._check(other)
        # everything >= min(self) + conductor works, so candidates are bounded
        ub = self.min_element() + self.S.conductor + 1
        found = [z for z in range(ub)
                 if self.S.contains(z) and all(self.contains(z + g) for g in other.gens)]
        if not found:
            raise ResourceLimitError("colon candidate window exhausted")
        return SemigroupIdeal(self.S, _ns_minimalize(self.S, found))

    def intersect(self, other: "SemigroupIdeal") -> "SemigroupIdeal":
        self._check(other)
        ub = max(self.min_element(), other.min_element()) + self.S.conductor + 1
        found = [z for z in range(ub + self.S.conductor + 1)
                 if self.contains(z) and other.contains(z)]
        if not found:
            raise ResourceLimitError("intersection candidate window exhausted")
        return SemigroupIdeal(self.S, _ns_minimalize(self.S, found))

    def __str__(self):
        return "(" + ", ".join(f"t^{g}" for g in self.gens) + ")"

    # exact closure ---------------------------------------------------------

    def principal_reduction_index(self, cap: int = 64) -> int:
        """Smallest r with E^{r+1} = min-element + E^r (exists; t^min reduces E)."""
        x = self.min_element()
        for r in range(cap):
            if self.power(r + 1) == self.power(r).times(x):
                return r
        raise ResourceLimitError("principal reduction index not found within cap")

    def rr_power_result(self, n: int, cfg: ClosureConfig = DEFAULT_CONFIG) -> ClosureResult:
        """Exact closure of E^n: rr_power runs the chain E^{n+k} : E^k to
        the principal-reduction index, past which it is constant."""
        return rr_power(self, n, cfg)


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


@dataclass(frozen=True)
class AffineIdeal(Ideal):
    """Monomial ideal of a 2-D affine semigroup ring, by minimal generators."""

    S: AffineSemigroup2D
    gens: Tuple[Pair, ...]

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


