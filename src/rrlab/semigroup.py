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

A plane affine semigroup on one ray, generated by z_1 * v, ..., z_n * v
with gcd(z) = 1, is the numerical semigroup <z_1, ..., z_n>, its elements
read and printed as the pairs z * v.  Any other one, S, is kept as one
staircase per coset of the lattice L = Zu + Zw, u and w the least
generators on the two extreme rays of the cone of S (Rosales and
Garcia-Sanchez, *Finitely Generated Commutative Monoids*, 1999).  A point p
has (A, B) = (det(p, w), det(u, p)), so p = (A*u + B*w) / d with
d = det(u, w); p lies in the cone when A, B >= 0, its coset is
(A % d, B % d) and its coordinates there are (A // d, B // d).  S is closed
under adding u and w, so in each coset c the members of S, and those of
any ideal E, form a monomial ideal E[c] in these coordinates: p lies in E
exactly when E[c] holds its coordinates.  S meets each of the
[gp(S) : L] <= d cosets.  Every operation is a monomial kernel.  E + F and
E cap F work coset by coset; t^p * E moves E[c] to the coset c + p and
shifts it by ((r + A) // d, (s + B) // d), for c = (r, s) and (A, B) those
of p; (E : F)[c] is S[c] cap the (E[c + f] : that shift of f from c) over
the generators f of F; E * F is the sum of the t^g * F over the generators
g of E.  The minimal generators are the staircase corners p with no p - g
in E for a generator g of S.  Staircases are canonical, so equal ideals
have equal ones.
"""

from __future__ import annotations

from functools import cached_property
from heapq import heapify, heappop, heappush
from math import gcd
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from .core import Exponents, Ideal, Record, RingDescriptor, exps_divides
from .errors import PreconditionError, RingMismatchError, ZeroIdealError
from .monomial import MonomialIdeal, colon_single, intersect_monomial, minimalize

Pair = Tuple[int, int]


# ---------------------------------------------------------------------------
# numerical semigroups


class NumericalSemigroup:
    """Additive submonoid of N with finite complement, by its Apery set."""

    def __init__(self, gens: Sequence[int], ray: Optional[Pair] = None):
        gens = tuple(sorted(set(gens)))
        if not gens or any(g <= 0 for g in gens):
            raise PreconditionError("generators must be positive integers")
        if gcd(*gens) != 1:
            raise PreconditionError("generators must be coprime overall")
        self.gens, self.ray = gens, ray  # a one-ray ring reads z as z * ray
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

    @staticmethod
    def from_gens(S: NumericalSemigroup, gens: Iterable) -> "SemigroupIdeal":
        """The ideal gens + S, for gens elements of the ring (see element)."""
        gens = tuple(gens)
        if not gens:
            raise ZeroIdealError("a semigroup ideal needs at least one generator")
        unit = SemigroupIdeal(S, S.apery)
        for g in gens:
            if not unit.contains(unit.element(g)):
                raise PreconditionError(f"generator {g} is not in the semigroup")
        return SemigroupIdeal(S, S.span(map(unit.element, gens)))

    @cached_property
    def gens(self) -> Tuple[int, ...]:
        """The minimal generators, ascending."""
        return tuple(sorted(z for z in self.v
                            if not any(self.contains(z - g) for g in self.S.gens)))

    def _check(self, other: "SemigroupIdeal") -> None:
        if (self.S.gens, self.S.ray) != (other.S.gens, other.S.ray):
            raise RingMismatchError("ideals belong to different semigroups")

    def unit(self) -> "SemigroupIdeal":
        return SemigroupIdeal(self.S, self.S.apery)

    def _pair(self, z: int):
        """The ring element with exponent z: z, or z * v on a ray v."""
        ray = self.S.ray
        return z if ray is None else (z * ray[0], z * ray[1])

    def gens_outside(self, other: "SemigroupIdeal") -> Iterator:
        return (self._pair(g) for g in self.gens if not other.contains(g))

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
        return SemigroupIdeal(self.S, self.S.span(k * g for g in self.gens))

    def element(self, m) -> int:
        """The exponent of m: m itself, or z for a pair m = z * v on a ray v,
        where a pair off the lattice Zv reads as -1, which no ideal holds."""
        ray = self.S.ray
        if ray is None:
            if isinstance(m, int):
                return m
            raise PreconditionError("semigroup elements are integers (t-exponents)")
        if not (isinstance(m, tuple) and len(m) == 2):
            raise PreconditionError("affine elements are exponent pairs")
        z = (m[0] + m[1]) // (ray[0] + ray[1])
        return z if self._pair(z) == m else -1

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
        show = "t^{}".format if self.S.ray is None else self._pair
        return "(" + ", ".join(str(show(g)) for g in self.gens) + ")"

    # exact closure ---------------------------------------------------------

    def principal_reduction_index(self) -> int:
        """Smallest r with E^{r+1} = x + E^r, for x = min E (t^x reduces E).

        E^n - n*x ascends from S inside N and grows at each n < r, each time
        by a gap of S, so r <= genus."""
        return self.reduction_index(self.unit().times(min(self.v)), self.S.genus)


def _plane_gens(gens: Sequence[Pair]) -> Tuple[Pair, ...]:
    """The distinct generators, sorted, checked to be pairs of naturals."""
    gens = tuple(sorted(set(map(tuple, gens))))
    if not gens or any(len(g) != 2 or min(g) < 0 or g == (0, 0) for g in gens):
        raise PreconditionError("generators must be nonzero pairs of naturals")
    return gens


def affine_ring(gens: Sequence[Pair]):
    """The semigroup of N^2 that gens generate: on one ray, the numerical
    semigroup of the c / g on v = g * p, for gens c * p with p primitive and
    g = gcd(c); else an AffineSemigroup2D."""
    gens = _plane_gens(gens)
    u, w = _extreme_rays(gens)
    if u != w:
        return AffineSemigroup2D(gens)
    (a, b), c = gens[0], [gcd(*q) for q in gens]
    g = gcd(*c)
    return NumericalSemigroup([x // g for x in c], (a // c[0] * g, b // c[0] * g))


class AffineSemigroup2D:
    """Submonoid of N^2 generated by nonzero pairs on two rays or more, as
    one staircase per coset of L = Zu + Zw (see the module docstring)."""

    def __init__(self, gens: Sequence[Pair]):
        self.gens = gens = _plane_gens(gens)
        u, w = _extreme_rays(gens)
        if u == w:
            raise PreconditionError("generators on one ray: see affine_ring")
        self._u, self._w, self._d = u, w, u[0] * w[1] - u[1] * w[0]
        self.ring = RingDescriptor(("u", "w"))
        found = self._close([g for g in gens if g not in (u, w)])
        self.cosets = tuple(sorted(found))
        self._index = {c: i for i, c in enumerate(self.cosets)}
        self.stairs = tuple(MonomialIdeal(self.ring, tuple(sorted(found[c])))
                            for c in self.cosets)

    def _close(self, others: Sequence[Pair]) -> Dict[Pair, List[Exponents]]:
        """S's staircase corners by coset.  A member is a sum q of the
        generators off the rays plus a point of Nu + Nw, so the q generate
        the staircases.  They are taken in order of degree, so no later q
        lies under an earlier corner, and a q over a corner adds nothing,
        nor do the sums made from it; Dickson's lemma bounds the corners."""
        found: Dict[Pair, List[Exponents]] = {}
        heap = [(0, (0, 0))]
        while heap:
            _, q = heappop(heap)
            coset, k = self._split(*self._ab(q))
            corners = found.setdefault(coset, [])
            if not any(exps_divides(c, k) for c in corners):
                corners.append(k)
                for x, y in others:
                    heappush(heap, (q[0] + x + q[1] + y, (q[0] + x, q[1] + y)))
        return found

    def _ab(self, p: Pair) -> Pair:
        """(A, B) = (det(p, w), det(u, p)), so that p = (A*u + B*w) / d."""
        (a, b), (c, e) = self._u, self._w
        return p[0] * e - p[1] * c, a * p[1] - b * p[0]

    def _split(self, A: int, B: int) -> Tuple[Pair, Exponents]:
        """The coset and the staircase coordinates of (A*u + B*w) / d."""
        d = self._d
        return (A % d, B % d), (A // d, B // d)

    def _point(self, coset: Pair, k: Exponents) -> Pair:
        """The point of the coset with the staircase coordinates k."""
        A, B = (self._d * x + r for x, r in zip(k, coset))
        (a, b), (c, e), d = self._u, self._w, self._d
        return (A * a + B * c) // d, (A * b + B * e) // d

    def _moves(self, p: Pair) -> List[Tuple[int, Exponents]]:
        """For each coset c, in order, the index of c + p and the shift of
        the coordinates from c to c + p, its carry included."""
        A, B = self._ab(p)
        moves = [self._split(r + A, s + B) for r, s in self.cosets]
        return [(self._index[c], shift) for c, shift in moves]

    def _holds(self, stairs: Tuple[MonomialIdeal, ...], p: Pair) -> bool:
        """p lies in the ideal with these staircases: in the cone, in a coset
        of S and in that coset's staircase."""
        A, B = self._ab(p)
        if A < 0 or B < 0:
            return False
        coset, k = self._split(A, B)
        i = self._index.get(coset)
        return i is not None and stairs[i].contains(k)

    def contains(self, p: Pair) -> bool:
        p = tuple(p)
        if p[0] < 0 or p[1] < 0:
            raise PreconditionError("membership query must be componentwise >= 0")
        return self._holds(self.stairs, p)

    def __repr__(self):
        return "<" + ", ".join(map(str, self.gens)) + ">"


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


class AffineIdeal(Ideal, Record):
    """Monomial ideal of a 2-D affine semigroup ring, by one staircase per
    coset of S."""

    _fields = ("S", "stairs")

    @staticmethod
    def from_gens(S: AffineSemigroup2D, gens: Iterable[Pair]) -> "AffineIdeal":
        gens = tuple(map(tuple, gens))
        if not gens:
            raise ZeroIdealError("an affine ideal needs at least one generator")
        for g in gens:
            if not S.contains(g):
                raise PreconditionError(f"generator {g} is not in the semigroup")
        unit = AffineIdeal(S, S.stairs)
        return _sum(S, [unit.times(g) for g in gens])

    @cached_property
    def gens(self) -> Tuple[Pair, ...]:
        """The minimal generators: the corners p with no p - g inside, for g
        a generator of S."""
        S = self.S
        corners = (S._point(c, k) for c, T in zip(S.cosets, self.stairs)
                   for k in T.gens)
        return tuple(sorted(p for p in corners if not any(
            self.contains((p[0] - x, p[1] - y)) for x, y in S.gens)))

    def _check(self, other: "AffineIdeal") -> None:
        if self.S.gens != other.S.gens:
            raise RingMismatchError("ideals belong to different semigroups")

    def unit(self) -> "AffineIdeal":
        return AffineIdeal(self.S, self.S.stairs)

    def contains(self, p: Pair) -> bool:
        return self.S._holds(self.stairs, tuple(p))

    def contains_ideal(self, other: "AffineIdeal") -> bool:
        self._check(other)
        return all(map(MonomialIdeal.contains_ideal, self.stairs, other.stairs))

    def equals(self, other: "AffineIdeal") -> bool:
        """Staircases are canonical, so equal ideals have equal ones."""
        self._check(other)
        return self.stairs == other.stairs

    def __add__(self, other: "AffineIdeal") -> "AffineIdeal":
        self._check(other)
        return _sum(self.S, (self, other))

    def __mul__(self, other: "AffineIdeal") -> "AffineIdeal":
        self._check(other)
        return _sum(self.S, [other.times(g) for g in self.gens])

    def times(self, p: Pair) -> "AffineIdeal":
        """The ideal t^p * I: each staircase moved to its coset plus p."""
        if not self.S.contains(p):
            raise PreconditionError(f"{p} is not in the semigroup")
        stairs: List[MonomialIdeal] = list(self.stairs)
        for T, (j, shift) in zip(self.stairs, self.S._moves(p)):
            stairs[j] = T.times(shift)
        return AffineIdeal(self.S, tuple(stairs))

    def gen_powers(self, k: int) -> "AffineIdeal":
        return AffineIdeal.from_gens(self.S, [(k * a, k * b) for a, b in self.gens])

    def element(self, m) -> Pair:
        if isinstance(m, tuple) and len(m) == 2:
            return m
        raise PreconditionError("affine elements are exponent pairs")

    def colon(self, other: "AffineIdeal",
              floor: Optional["AffineIdeal"] = None) -> "AffineIdeal":
        """{p in S : p + gens(other) inside self}, per coset c:
        S[c] cap the (self[c + f] : shift of f from c) over f in gens(other).

        The floor is not used: the whole colon is returned."""
        self._check(other)
        moves = [self.S._moves(f) for f in other.gens]
        stairs = []
        for i, T in enumerate(self.S.stairs):
            for m in moves:
                j, shift = m[i]
                T = intersect_monomial(T, colon_single(self.stairs[j], shift))
            stairs.append(T)
        return AffineIdeal(self.S, tuple(stairs))

    def intersect(self, other: "AffineIdeal") -> "AffineIdeal":
        self._check(other)
        return AffineIdeal(self.S, tuple(map(intersect_monomial, self.stairs,
                                             other.stairs)))

    def __str__(self):
        return "(" + ", ".join(str(g) for g in self.gens) + ")"


def _sum(S: AffineSemigroup2D, ideals: Sequence[AffineIdeal]) -> AffineIdeal:
    """The sum of ideals of S, coset by coset."""
    return AffineIdeal(S, tuple(
        MonomialIdeal(S.ring, minimalize(g for T in column for g in T.gens))
        for column in zip(*(I.stairs for I in ideals))))
