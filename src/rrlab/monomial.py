"""Exact calculus for monomial ideals.

A monomial ideal is stored by its (unique) minimal generator set of
exponent vectors, in ascending order, so structural equality is ideal
equality.  All ops are pure; each ideal keeps its powers on itself, made
once by ``PowerLadder``, and they go away with it.

Every ideal that ``from_gens``, an operation or a kernel returns keeps this
canonical form: its minimal generators, distinct, in ascending
lexicographic order.  (``from_gens`` rejects a negative exponent, which no
packed field can hold.)  So ``equals`` compares generator tuples, and
``contains_ideal`` and ``gens_outside`` ask, for each generator b, whether
some generator a divides it by the guard test of ``core.Packing``, stopping
at the first b outside.

The generator-set kernels work on packed ints instead of a Python loop
over each pair of tuples.  Each exponent vector packs into one int of a
``core.Packing``; ascending packed order is the lexicographic order, so a
scan in that order meets every divisor of a value before the value itself,
and the survivors, unpacked in that order, come out ``sorted``.  A field
width comes from a short ladder: the least power of two, at least 8 bits,
that holds the largest exponent a kernel can form below the guard bit (the
sum of its operands' largest exponents for a product or a colon).  So I^n
and I^{n+1} usually share one width, and the ``Packing`` of each number of
variables and width comes from ``core.shared_packing``, the bounded table
the Buchberger engine shares.  Each ideal keeps on itself, as it keeps
its powers, its largest exponent and its packed generators per width
(``cached_property``s), and an ideal a kernel returns is born with the pack
it was computed in.  A product adds packed generators into a set, a sum
merges the two packs, and both prune in packed form.

Pruning has two paths.  With at most two variables, ``Packing.minimal``
sweeps the staircase: in ascending order a value is minimal exactly when
its last exponent is below that of every earlier value.  With more, the
distinct candidates are sorted and numbered; for each variable i and value
v, one mask holds the candidates whose i-th exponent is at most v.  The AND
of a candidate's masks is the set of candidates that divide it, so the
candidate is minimal exactly when that AND is its own bit alone.  Equal
candidates would each hold the other's bit, so they are merged first.
``minimalize`` packs tuples and prunes the same way.

``colon_monomial`` takes an optional floor ideal ``F`` and then returns
``(A : B) + F``.  Monomial ideals form a distributive lattice, so
``(A : B) + F`` is the intersection over B's generators b of
``(A : b) + F``, and ``(F + E1) ∩ (F + E2) = F + (E1 ∩ E2)``.  The call
therefore carries only the running extras, the generators outside ``F``:
those of ``A : b`` for B's first generator, filtered against ``F`` before
they are minimalized (a multiple of a member of ``F`` is in ``F``, so
filtering first keeps the same minimal extras).  Each later generator b
meets them one extra e at a time, by ``(e) ∩ (A : b) = e·(A : e·b)``: e
stays when e·b lies in A, found by the guard test against A's generators
at the first divisor, and is replaced by the e·q, q a generator of
``A : e·b``, otherwise.  Only a step that replaced some extra minimalizes
again, and once no extra is left the answer is ``F`` itself, the same
object, which the closure chain reads as a quiet step.  No extra exceeds
A's largest exponent, but e·b reaches that plus B's largest exponent, so
the colon's fields are sized for that sum.

``associated_primes_monomial`` localizes: the prime P_s of a set s of
variables is associated to I exactly when ``I_s : P_s != I_s``, with I_s the
ideal I with the variables outside s set to 1.  That is one colon for each
of the 2^d - 1 nonempty sets s at most, whatever the exponents.

``integral_closure_monomial`` and ``in_newton_polyhedron`` read the Newton
polyhedron conv(gens) + R_{>=0}^d through its facets a·x >= b, each a
primitive integer pair with a >= 0 and b > 0, so membership is a few
integer dot products.  Each ideal computes its facets once and keeps them
(``_facets``), from the vertices of {a >= 0 : a·g >= 1 for every generator
g}, each found by integer Cramer on d tight constraints.  The closure is
the set of lattice points of the polyhedron, and its minimal generators lie
in the box of I's largest exponents (lowering an entry above that bound
only lowers a slack).  So for each prefix (e_1, ..., e_{d-1}) in the box,
the least e_d that meets every facet is a ceiling division per facet, and
those points, minimalized, generate the closure; a larger e_d is a
multiple of that point.
"""

from __future__ import annotations

import itertools
import math
import operator
from functools import cached_property
from typing import Iterable, Iterator, List, Optional, Sequence, Tuple

from .core import (Exponents, Ideal, Packing, Polynomial, PowerLadder,
                   Record, RingDescriptor, exps_divides, exps_mul,
                   shared_packing)
from .errors import (PreconditionError, RingMismatchError,
                     UnsupportedOperationError, ZeroIdealError)


# a facet a·x >= b of a Newton polyhedron: a >= 0, b > 0, no common divisor
Facet = Tuple[Tuple[int, ...], int]


def _packing(nvars: int, top: int) -> Packing:
    """The shared packing whose fields hold exponents up to ``top``: the
    least power-of-two width, at least 8 bits, above top's bit length."""
    return shared_packing(nvars, max(8, 1 << top.bit_length().bit_length()))


def _minimal(P: Packing, packed: Iterable[int]) -> List[int]:
    """The divisibility-minimal values among ``packed``, ascending: the
    staircase sweep of ``P.minimal`` with at most two fields, the bitsets of
    the module docstring with more."""
    if len(P.shifts) <= 2:
        return P.minimal(packed)
    cands = sorted(set(packed))
    if len(cands) < 2:
        return cands
    low, (first_shift, *shifts) = P.low, P.shifts
    # divisors[j]: the mask of candidates that divide candidate j.  The
    # candidates ascend, so those whose first field is at most v form a
    # prefix; that keeps every mask below its own bit.
    first = [(c >> first_shift) & low for c in cands]
    ends = {v: j + 1 for j, v in enumerate(first)}
    divisors = [(1 << ends[v]) - 1 for v in first]
    for s in shifts:
        column = [(c >> s) & low for c in cands]
        at_most = {}
        for j, v in enumerate(column):
            at_most[v] = at_most.get(v, 0) | (1 << j)
        acc = 0
        for v in sorted(at_most):
            acc |= at_most[v]
            at_most[v] = acc
        for j, v in enumerate(column):
            divisors[j] &= at_most[v]
    return [c for c, m in zip(cands, divisors) if not m & (m - 1)]


def minimalize(exps: Iterable[Exponents]) -> Tuple[Exponents, ...]:
    """Divisibility-pruned canonical generator tuple."""
    cands = list(exps)
    if not cands:
        return ()
    top = max(itertools.chain.from_iterable(cands), default=0)
    P = _packing(len(cands[0]), top)
    return tuple(map(P.unpack, _minimal(P, map(P.pack, cands))))


class MonomialIdeal(Ideal, Record):
    _fields = ("ring", "gens")

    @staticmethod
    def from_gens(ring: RingDescriptor, gens: Iterable[Exponents]) -> "MonomialIdeal":
        gens = tuple(gens)
        if not gens:
            raise ZeroIdealError("a monomial ideal needs at least one generator")
        for g in gens:
            if len(g) != ring.nvars:
                raise PreconditionError("exponent vector length != number of variables")
            if any(x < 0 for x in g):
                raise PreconditionError("negative exponent")
        return MonomialIdeal(ring, minimalize(gens))

    def _check(self, other: "MonomialIdeal") -> None:
        if self.ring.variables != other.ring.variables:
            raise RingMismatchError("monomial ideals live in different rings")

    def unit(self) -> "MonomialIdeal":
        return MonomialIdeal(self.ring, ((0,) * self.ring.nvars,))

    # -- packed generators, kept on the ideal ------------------------------

    @cached_property
    def _top(self) -> int:
        """The largest exponent of the generators."""
        return max(itertools.chain.from_iterable(self.gens), default=0)

    @cached_property
    def _facets(self) -> List[Facet]:
        """The facets of the Newton polyhedron, from ``newton_facets``."""
        return newton_facets(self.gens)

    @cached_property
    def _packs(self) -> dict:
        """Field width -> the generators packed at that width."""
        return {}

    def _packed(self, P: Packing) -> List[int]:
        """The generators packed by P, ascending; one list per field width
        is kept on the ideal."""
        packs = self._packs
        ps = packs.get(P.width)
        if ps is None:
            ps = packs[P.width] = list(map(P.pack, self.gens))
        return ps

    # -- membership -------------------------------------------------------

    def contains(self, e: Exponents) -> bool:
        return any(exps_divides(g, e) for g in self.gens)

    def element(self, m) -> Exponents:
        """The exponent vector of a one-term Polynomial or a tuple."""
        if isinstance(m, Polynomial):
            if len(m.terms) != 1:
                raise UnsupportedOperationError(
                    "monomial-ideal probes take a single monomial")
            return next(iter(m.terms))
        if isinstance(m, tuple):
            return m
        raise UnsupportedOperationError(f"cannot probe with {type(m).__name__}")

    def _outside(self, other: "MonomialIdeal") -> Iterator[Exponents]:
        """The generators that other does not contain, in order, by the
        packed divisibility test of ``core.Packing``."""
        self._check(other)
        P = _packing(self.ring.nvars, max(self._top, other._top))
        G, Os = P.guards, other._packed(P)
        for g, b in zip(self.gens, self._packed(P)):
            bG = b | G
            for a in Os:
                if (bG - a) & G == G:
                    break
            else:
                yield g

    def contains_ideal(self, other: "MonomialIdeal") -> bool:
        return next(other._outside(self), None) is None

    def equals(self, other: "MonomialIdeal") -> bool:
        """Generator tuples are canonical, so equal ideals have equal ones."""
        self._check(other)
        return self.gens == other.gens

    def gens_outside(self, other: "MonomialIdeal") -> Iterator[Polynomial]:
        return map(self.ring.monomial, self._outside(other))

    # -- semiring ops ------------------------------------------------------

    def __add__(self, other: "MonomialIdeal") -> "MonomialIdeal":
        self._check(other)
        P = _packing(self.ring.nvars, max(self._top, other._top))
        return _from_packed(self.ring, P, _minimal(
            P, self._packed(P) + other._packed(P)))

    def __mul__(self, other: "MonomialIdeal") -> "MonomialIdeal":
        """Packed generators add as exponent vectors do, while the fields
        hold the sum of the two largest exponents."""
        self._check(other)
        P = _packing(self.ring.nvars, self._top + other._top)
        Bs = other._packed(P)
        return _from_packed(self.ring, P, _minimal(
            P, {a + b for a in self._packed(P) for b in Bs}))

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


# ---------------------------------------------------------------------------
# colon / intersection


def _from_packed(ring: RingDescriptor, P: Packing,
                 packed: List[int]) -> MonomialIdeal:
    """The ideal of the ascending packed minimal generators, born with that
    pack kept."""
    I = MonomialIdeal(ring, tuple(map(P.unpack, packed)))
    I.__dict__["_packs"] = {P.width: packed}
    return I


def colon_single(A: MonomialIdeal, b: Exponents) -> MonomialIdeal:
    P = _packing(A.ring.nvars, max(A._top, max(b, default=0)))
    return _from_packed(A.ring, P, P.quotients(A._packed(P), P.pack(b)))


def intersect_monomial(A: MonomialIdeal, B: MonomialIdeal) -> MonomialIdeal:
    A._check(B)
    P = _packing(A.ring.nvars, max(A._top, B._top))
    return _from_packed(A.ring, P, P.lcms(A._packed(P), B._packed(P)))


def colon_monomial(A: MonomialIdeal, B: MonomialIdeal,
                   floor: Optional[MonomialIdeal] = None) -> MonomialIdeal:
    """(A : B) = intersection over B's generators of (A : b).

    With a floor ideal, returns (A : B) + floor, working only on the
    generators outside floor (see the module docstring); when (A : B) adds
    nothing to floor, floor itself is returned."""
    A._check(B)
    if not B.gens:
        raise ZeroIdealError("colon by the zero ideal")
    top = A._top + B._top  # the fields must hold e + b
    if floor is not None:
        A._check(floor)
        top = max(top, floor._top)
    P = _packing(A.ring.nvars, top)
    G = P.guards
    As = A._packed(P)
    Fs = [] if floor is None else floor._packed(P)
    first, *rest = B._packed(P)
    extras = P.quotients(As, first, Fs)
    for b in rest:
        if not extras:
            break
        kept, replaced = [], False
        for e in extras:
            eb = e + b
            ebG = eb | G
            for a in As:
                if (ebG - a) & G == G:
                    kept.append(e)
                    break
            else:
                kept.extend(e + q for q in P.quotients(As, eb))
                replaced = True
        extras = P.minimal(kept, Fs) if replaced else kept
    if not extras:  # only possible with a floor
        return floor
    if floor is not None:
        extras = P.minimal(Fs + extras)
    return _from_packed(A.ring, P, extras)


# ---------------------------------------------------------------------------
# powers


def member_of_power(m: Exponents, ladder: "MonomialIdeal | PowerLadder",
                    n: int) -> bool:
    """m in I^n, read off the power that I keeps; ladder is I or a
    ``PowerLadder`` view of it."""
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
    """The associated primes of I, each the prime P_s generated by a
    nonempty set s of variables.

    Localizing at P_s makes the variables outside s units, so P_s is
    associated to I exactly when it is associated to I_s, the ideal I with
    those variables set to 1; and P_s is the maximal ideal of the variables
    of I_s, so that holds exactly when I_s : P_s != I_s.  One colon per
    nonempty s for which I_s is not the unit ideal."""
    if I.is_unit():
        raise ZeroIdealError("the unit ideal has no associated primes")
    ring, d = I.ring, I.ring.nvars
    primes = []
    for s in itertools.product((0, 1), repeat=d):
        gens_s = [tuple(x * keep for x, keep in zip(g, s)) for g in I.gens]
        if not all(map(any, gens_s)):
            continue  # I_s is the unit ideal, as it is for s empty
        I_s = MonomialIdeal.from_gens(ring, gens_s)
        P_s = MonomialIdeal(ring, tuple(sorted(
            tuple(int(i == j) for i in range(d)) for j in range(d) if s[j])))
        if not I_s.colon(P_s).equals(I_s):
            primes.append(tuple(v for v, keep in zip(ring.variables, s) if keep))
    return tuple(sorted(primes))


# ---------------------------------------------------------------------------
# integral closure via the Newton polyhedron


def _dot(a: Sequence[int], e: Sequence[int]) -> int:
    return sum(map(operator.mul, a, e))


def _det(rows: Sequence[Sequence[int]]) -> int:
    """The determinant of a square integer matrix, by Bareiss's
    fraction-free elimination: every division is exact."""
    A = [list(r) for r in rows]
    n, sign, prev = len(A), 1, 1
    for k in range(n - 1):
        if not A[k][k]:
            p = next((i for i in range(k + 1, n) if A[i][k]), None)
            if p is None:
                return 0
            A[k], A[p], sign = A[p], A[k], -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                A[i][j] = (A[i][j] * A[k][k] - A[i][k] * A[k][j]) // prev
        prev = A[k][k]
    return sign * A[-1][-1]


def _facet(a: Sequence[int], b: int) -> Facet:
    """The facet a·x >= b with its entries divided by their gcd."""
    g = math.gcd(b, *a)
    return tuple(x // g for x in a), b // g


def newton_facets(gens: Sequence[Exponents]) -> List[Facet]:
    """The facets (a, b) of the Newton polyhedron conv(gens) + R_{>=0}^d
    that miss the origin, sorted: a point e >= 0 lies in it exactly when
    a·e >= b for each of them.

    For e >= 0 outside it, some a >= 0 (the polyhedron is closed upwards)
    has a·e below the least a·x over the polyhedron, and that least value is
    positive: scaled to 1, a lies in Q = {a >= 0 : a·g >= 1 for every g}.
    Such an a is a convex combination of vertices of Q plus a point >= 0, so
    some vertex v has v·e <= a·e < 1.  The facets are those vertices, with
    denominators cleared; the unit ideal has none.  Each vertex a of Q
    solves d linearly independent tight constraints, a·g = 1 or a_i = 0,
    and is found by integer Cramer on them; a/det is a vertex when it meets
    every constraint."""
    gens = minimalize(gens)
    d = len(gens[0]) if gens else 0
    rows = [(tuple(g), 1) for g in gens]
    rows += [(tuple(int(i == j) for j in range(d)), 0) for i in range(d)]
    facets = set()
    for chosen in itertools.combinations(rows, d):
        M = [r for r, _ in chosen]
        den = _det(M)
        if not den:
            continue
        a = [_det([r[:j] + (v,) + r[j + 1:] for r, v in chosen])
             for j in range(d)]
        if den < 0:
            den, a = -den, [-x for x in a]
        if min(a) >= 0 and all(_dot(a, g) >= den for g in gens):
            facets.add(_facet(a, den))
    return sorted(facets)


def in_newton_polyhedron(e: Exponents, gens: Sequence[Exponents]) -> bool:
    """e in conv(gens) + R_{>=0}^d, by integer dot products with the
    facets of ``newton_facets``."""
    return (bool(gens) and min(e, default=0) >= 0
            and all(_dot(a, e) >= b for a, b in newton_facets(gens)))


def integral_closure_monomial(I: MonomialIdeal) -> MonomialIdeal:
    """The lattice points of the Newton polyhedron, minimalized: for each
    prefix (e_1, ..., e_{d-1}) in the box of I's largest exponents, the
    least e_d that meets every facet of ``I._facets`` (see the module
    docstring)."""
    *box, _ = (max(g[i] for g in I.gens) for i in range(I.ring.nvars))
    points = []
    for prefix in itertools.product(*(range(b + 1) for b in box)):
        least = 0
        for (*head, last), b in I._facets:
            need = b - _dot(head, prefix)
            if need > 0:
                if not last:
                    break  # no e_d meets this facet
                least = max(least, -(-need // last))
        else:
            points.append(prefix + (least,))
    return MonomialIdeal(I.ring, minimalize(points))
