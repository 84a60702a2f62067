"""Buchberger engine: normal forms, reduced bases, ideal arithmetic.

IdealHandle wraps a generator list plus ring context.  In a quotient ring
R/Q every operation silently adjoins Q, so handles always compute with
polynomial-ring Groebner bases; results are read as cosets.

Inside one engine call a polynomial is a dict from packed monomials to
coefficients.  ``Polynomial`` term dicts are converted only where a call
starts and ends (``_pack`` and ``_unpack``).  A packed monomial is a
``core.Packing`` int: guarded exponent fields, ``w`` bits per variable, and
above them the order key of ``MonomialOrder.int_weights`` for digits of
``w - 1`` bits.  Every exponent is below ``2**(w - 1)``, so that key is
injective and sorts like the order's key tuples.  ``pack(a * b) =
pack(a) + pack(b)``, so multiplying a term by a monomial is one int add,
and no key function runs.  The key sits above the exponent bits, so the
largest packed monomial of a polynomial is its leading term.

Widening.  Two monomials whose fields are below the guard bits add to
fields below ``2**w``, which never carry into the next field or into the
key; the sum is valid exactly when no field reaches its guard bit.  Each
reduction step and each S-polynomial shifts a tail by a monomial ``s``.
It first checks ``(hull + s) & G``, where the hull is the fieldwise max of
the tail's terms; that is clear exactly when every shifted term is.  If
not, it raises ``_Overflow``, and ``_packed`` reruns the whole call with
fields twice as wide.  No result is ever read from an overflowed packing.

Monic reducers.  Every basis element is kept monic, its terms in
descending order, so its leading term comes first.  A reduction step by
a monic ``g`` subtracts ``c * x^s * g``; by ``a * g`` it would subtract
``(c / a) * x^s * (a * g)``, the same polynomial, so normal forms do not
depend on the scaling of the reducers, and no step divides.
``S(f, g) = x^u * f / lc(f) - x^v * g / lc(g)`` does not depend on it
either.  So a raw basis of monic elements is the classic one with each
element scaled by a nonzero constant: the pair criteria read only leading
monomials, and the reduced basis, which is unique, is the same.

Coefficients.  A QQ coefficient is an ``int`` while it is integral and a
``Fraction`` only when it is not, as in ``Polynomial``, so ``_pack`` and
``_unpack`` convert none.  A non-integral rational arises only in ``_quo``,
which divides two ints as a ``Fraction``.  A sum or product of
``Fraction``s can be integral, so ``_quo`` and each remainder term of
``_normal_form`` go through ``_int``, the one normalizer, and ``_monic``
divides by every leading coefficient but the int 1: no basis, normal form
or quotient the engine returns holds an integral ``Fraction``.  F_p
residues pass through unchanged, and ``_monic`` leaves an element whose
leading residue is 1 as it is.

Colons.  A : b is (A cap (b)) / b, one elimination, and A : (b_1, ..., b_d)
intersects those d parts, d - 1 more.  ``IdealHandle.colon`` eliminates only
where a membership test cannot settle a step: when every generator g of the
colon C found so far has g * b in A, C lies in A : b, and b costs only
normal forms against A's basis, which a power on a chain's ``PowerLadder``
computes once.  A colon returns the reduced basis of the colon either way:
the t-free part of an intersection is that basis, and when no intersection
ran C's own reduced basis is returned, so printed generators and witnesses
do not depend on which steps were skipped or on the number of generators.
"""

from __future__ import annotations

import heapq
from bisect import insort
from fractions import Fraction
from itertools import islice
from operator import itemgetter
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from .core import (Exponents, Ideal, Monomial, MonomialOrder, Packing,
                   Polynomial, PrimeFieldElement, RingDescriptor,
                   shared_packing)
from .errors import (PreconditionError, ResourceLimitError,
                     UnsupportedOperationError, ZeroIdealError)
from .monomial import MonomialIdeal

PAIR_CAP = 200_000  # S-pairs one Buchberger run reduces, after the criteria


# ---------------------------------------------------------------------------
# packed engine


class _Overflow(Exception):
    """A packed product reached a guard bit; the call reruns wider."""


def _int(c):
    """c, or its numerator when c is an integral Fraction."""
    return c.numerator if type(c) is Fraction and c.denominator == 1 else c


def _quo(c, d):
    """c / d, exact: two ints divide as a Fraction, and an integral QQ
    quotient is an int."""
    return _int(Fraction(c, d) if type(c) is int and type(d) is int else c / d)


def _pack(pk: Packing, terms: dict) -> dict:
    """The packed polynomial, its terms in descending order."""
    packed = [(pk.pack(e), c) for e, c in terms.items()]
    packed.sort(key=itemgetter(0), reverse=True)
    return dict(packed)


def _unpack(pk: Packing, packed: dict) -> dict:
    return {pk.unpack(m): c for m, c in packed.items()}


def _width(polys: Iterable[dict]) -> int:
    """Field width for polys' exponents: one bit of headroom, then the
    guard."""
    top = max((x for g in polys for e in g for x in e), default=0)
    return top.bit_length() + 2


def _packed(order: MonomialOrder, nvars: int, polys: Sequence[dict],
            run: Callable[[Packing], object], eliminate: bool = False,
            width: int = 0):
    """run(pk) with a packing that holds polys' exponents (and at least
    width bits per field); each overflow reruns it with fields twice as
    wide.  With eliminate, one more variable is packed last, in the lowest
    field, and ordered first."""
    width = max(width, _width(polys))
    while True:
        pk = shared_packing(nvars, width, order, eliminate)
        try:
            return run(pk)
        except _Overflow:
            width *= 2


def _monic(g: dict) -> dict:
    """g divided by its leading coefficient, g itself when that is the int
    1 or an F_p residue 1; g's terms are in descending order."""
    lc = next(iter(g.values()))
    if (lc.residue == 1 if type(lc) is PrimeFieldElement
            else type(lc) is int and lc == 1):
        return g
    return {m: _quo(c, lc) for m, c in g.items()}


def _reducer(g: dict, pk: Packing) -> tuple:
    """(lt, exponent part of lt, hull, tail) of a monic g in descending
    order; the tail pairs each lower term with its negated coefficient."""
    items = iter(g.items())
    lt, _ = next(items)
    tail = tuple((m, -c) for m, c in items)
    hull = 0
    for m, _ in tail:
        hull = pk.lcm(hull, m & pk.mask)
    return lt, lt & pk.mask, hull, tail


def _normal_form(f: dict, reducers: Sequence[tuple], pk: Packing,
                 quotient: Optional[dict] = None) -> dict:
    """Full reduction of the packed f by reducers (see _reducer), sorted
    by leading term; the first reducer whose leading term divides the
    current term is used.  The remainder comes out in descending order.

    The terms wait on a heap of negated monomials, so the largest pops
    first.  A term that cancels leaves its heap entry behind, to be skipped
    when it pops.  With a quotient dict, each step records its multiplier
    and coefficient there; with one reducer g, f = quotient * g + remainder.
    """
    G, mask = pk.guards, pk.mask
    work = dict(f)
    heap = [-m for m in work]
    heapq.heapify(heap)
    pop, push, get = heapq.heappop, heapq.heappush, work.get
    rem: dict = {}
    while heap:
        m = -pop(heap)
        c = work.pop(m, None)
        if c is None:
            continue
        mg = (m & mask) | G
        for lt, ltl, hull, tail in reducers:
            if (mg - ltl) & G == G:
                break
        else:
            rem[m] = _int(c)
            continue
        s = m - lt
        if (hull + s) & G:
            raise _Overflow
        if quotient is not None:
            quotient[s] = c
        for t, nc in tail:
            t += s
            v = get(t)
            if v is None:
                work[t] = c * nc
                push(heap, -t)
            else:
                v += c * nc
                if v:
                    work[t] = v
                else:
                    del work[t]
    return rem


def _spoly(a: tuple, b: tuple, lcm: int, G: int) -> dict:
    """S-polynomial of two monic reducers a, b whose leading terms have the
    packed lcm: the leading terms cancel, so only the tails are shifted."""
    lta, _, hulla, taila = a
    ltb, _, hullb, tailb = b
    sa, sb = lcm - lta, lcm - ltb
    if (hulla + sa) & G or (hullb + sb) & G:
        raise _Overflow
    out = {t + sa: -nc for t, nc in taila}
    get = out.get
    for t, nc in tailb:
        t += sb
        v = get(t)
        if v is None:
            out[t] = nc
        else:
            v += nc
            if v:
                out[t] = v
            else:
                del out[t]
    return out


def _buchberger(gens: Sequence[dict], pk: Packing) -> List[dict]:
    """Raw (unreduced) Groebner basis of the packed gens, each element
    monic and in descending order.

    Elements join the basis one at a time, the inputs first, ascending by
    leading term, through the Gebauer-Moeller update.  When h joins, an
    open pair (i, j) is dropped when lt(h) divides its lcm and that lcm is
    neither lcm(i, h) nor lcm(j, h) (criterion B_k).  Of the new pairs (k, h)
    with k still active, only those whose lcm no other new lcm properly
    divides are kept (criterion M), one per lcm (criterion F), and none
    whose lcm is that of a coprime pair.  The active elements whose leading
    term lt(h) divides make no further pairs.

    Pairs follow the normal strategy: the pair whose lcm of leading terms is
    least in the term order goes first, ties broken by the index pair (i, j).
    Each surviving pair's sort entry is computed once and kept on a heap; the
    dict of open pairs is the truth, and an entry whose pair was dropped is
    skipped when it pops.  The reducer list is kept sorted by leading term.
    """
    guards, mask = pk.guards, pk.mask
    G: List[dict] = []
    red: List[tuple] = []
    lows: List[int] = []
    reducers: List[tuple] = []
    active: List[int] = []
    pairs: Dict[Tuple[int, int], int] = {}
    heap: List[tuple] = []

    def add(h: dict) -> None:
        r = _reducer(h, pk)
        lh, new = r[1], len(G)
        for (i, j), lcm in list(pairs.items()):
            low = lcm & mask
            if ((low | guards) - lh) & guards == guards \
                    and pk.lcm(lows[i], lh) != low and pk.lcm(lows[j], lh) != low:
                del pairs[i, j]
        by_lcm: Dict[int, List[int]] = {}
        for k in active:
            by_lcm.setdefault(pk.lcm(lows[k], lh), []).append(k)
        for low in pk.minimal(by_lcm):
            ks = by_lcm[low]
            if any(low == lows[k] + lh for k in ks):
                continue
            lcm = pk.pack(pk.unpack(low))
            pairs[ks[0], new] = lcm
            heapq.heappush(heap, (lcm, ks[0], new))
        active[:] = [k for k in active
                     if ((lows[k] | guards) - lh) & guards != guards]
        active.append(new)
        G.append(h)
        red.append(r)
        lows.append(lh)
        insort(reducers, r, key=itemgetter(0))

    for g in sorted((_monic(g) for g in gens if g), key=lambda g: next(iter(g))):
        add(g)
    processed = 0
    while heap:
        lcm, i, j = heapq.heappop(heap)
        if pairs.pop((i, j), None) is None:
            continue
        processed += 1
        if processed > PAIR_CAP:
            raise ResourceLimitError(f"Buchberger pair cap {PAIR_CAP} exceeded")
        r = _normal_form(_spoly(red[i], red[j], lcm, guards), reducers, pk)
        if r:
            add(_monic(r))
    return G


def _autoreduce(G: List[dict], pk: Packing) -> List[dict]:
    """Reduced basis of a raw basis of monic elements in descending order:
    minimal leading terms, fully reduced tails, ascending by leading term.

    A term of g's tail is below g's leading term, so g's own leading term
    divides none of the terms its reduction meets.  Reducing the tail by
    the whole minimal basis is therefore the reduction by the others, and
    one reducer list serves every element."""
    # the first element of each leading term, ascending by leading term
    first: Dict[int, dict] = {}
    for g in sorted(G, key=lambda g: next(iter(g))):
        first.setdefault(next(iter(g)) & pk.mask, g)
    keep = set(pk.minimal(first))
    minimal = [g for low, g in first.items() if low in keep]
    reducers = [_reducer(g, pk) for g in minimal]
    reduced = []
    for g, (lt, *_) in zip(minimal, reducers):
        tail = _normal_form(dict(islice(g.items(), 1, None)), reducers, pk)
        reduced.append({lt: g[lt], **tail})
    return reduced


def _reduced_basis(gens: Sequence[dict], order: MonomialOrder, nvars: int,
                   eliminate: bool = False):
    """(packing, reduced basis) of the term dicts gens: the basis packed,
    monic and ascending by leading term."""
    def run(pk: Packing):
        raw = _buchberger([_pack(pk, g) for g in gens], pk)
        return pk, _autoreduce(raw, pk)
    return _packed(order, nvars, gens, run, eliminate)


# ---------------------------------------------------------------------------
# GroebnerBasis / IdealHandle


class GroebnerBasis:
    """A reduced basis: its monic polynomials, ascending by leading term,
    each with its leading term first, and the packed reducers that
    normal_form runs on, rebuilt wider when an input needs it."""

    def __init__(self, ring: RingDescriptor, order: MonomialOrder,
                 pk: Packing, basis: List[dict]):
        self.ring = ring
        self.order = order
        self._polys = [_unpack(pk, g) for g in basis]
        self._packing = pk
        self._reducers = [_reducer(g, pk) for g in basis]

    @property
    def polynomials(self) -> Tuple[Polynomial, ...]:
        return tuple(Polynomial(self.ring, g) for g in self._polys)

    def leading_exponents(self) -> Tuple[Exponents, ...]:
        return tuple(next(iter(g)) for g in self._polys)

    def _reduce(self, f: Polynomial) -> dict:
        self.ring.check_compatible(f.ring)

        def run(pk: Packing) -> dict:
            if pk.width != self._packing.width:
                self._packing = pk
                self._reducers = [_reducer(_pack(pk, g), pk) for g in self._polys]
            return _unpack(pk, _normal_form(_pack(pk, f.terms), self._reducers, pk))
        return _packed(self.order, self.ring.nvars, [f.terms], run,
                       width=self._packing.width)

    def normal_form(self, f: Polynomial) -> Polynomial:
        return Polynomial(self.ring, self._reduce(f))

    def reduces_to_zero(self, f: Polynomial) -> bool:
        return not self._reduce(f)

    def __len__(self):
        return len(self._polys)


class IdealHandle(Ideal):
    """Generators plus ring context; reduced GB cached per order.  In a
    quotient ring the handle is built with the regular element that its
    closure chains need (check_regular); handles derived from it have none."""

    def __init__(self, ring: RingDescriptor, gens: Sequence[Polynomial],
                 regular_element=None):
        gens = [g for g in gens if not g.is_zero()]
        for g in gens:
            ring.check_compatible(g.ring)
        self.ring = ring
        self.gens = tuple(gens)
        self.regular_element = regular_element
        self._regular = False  # check_regular has passed
        self._gb: Dict[object, GroebnerBasis] = {}

    # -- construction helpers ---------------------------------------------

    @staticmethod
    def from_monomial(I: MonomialIdeal) -> "IdealHandle":
        one = I.ring.field.one()
        return IdealHandle(I.ring, [Polynomial(I.ring, {g: one}) for g in I.gens])

    def to_monomial_ideal(self) -> MonomialIdeal:
        if self.ring.quotient:
            raise UnsupportedOperationError("not a plain monomial ideal")
        gb = self.groebner_basis()
        for g in gb._polys:
            if len(g) != 1:
                raise UnsupportedOperationError("ideal is not monomial")
        return MonomialIdeal.from_gens(self.ring, [next(iter(g)) for g in gb._polys])

    # -- Groebner bases -----------------------------------------------------

    def _order_sig(self, order: MonomialOrder):
        return (order.kind, order.resolved_priority(self.ring.nvars))

    def _effective_gens(self) -> List[dict]:
        return [g.terms for g in self.gens + self.ring.quotient]

    def groebner_basis(self, order: Optional[MonomialOrder] = None) -> GroebnerBasis:
        order = order or self.ring.order
        sig = self._order_sig(order)
        gb = self._gb.get(sig)
        if gb is not None:
            return gb
        pk, basis = _reduced_basis(self._effective_gens(), order,
                                   self.ring.nvars)
        gb = GroebnerBasis(self.ring, order, pk, basis)
        self._gb[sig] = gb
        return gb

    # -- predicates ----------------------------------------------------------

    def _check(self, other: "IdealHandle") -> None:
        self.ring.check_compatible(other.ring)

    def contains(self, f: Polynomial) -> bool:
        return self.groebner_basis().reduces_to_zero(f)

    def element(self, m) -> Polynomial:
        if isinstance(m, Monomial):
            return m.as_polynomial()
        if isinstance(m, Polynomial):
            return m
        raise UnsupportedOperationError(f"cannot probe with {type(m).__name__}")

    def check_regular(self) -> None:
        """In a domain any nonzero ideal is regular.  In a quotient ring the
        handle must have been built with a regular element: an element of I
        whose annihilator is zero, verified here against the quotient
        relations by one elimination.  A handle that passes is not checked
        again."""
        if self._regular:
            return
        if not self.gens:
            raise ZeroIdealError("closure of the zero ideal is undefined")
        if self.ring.quotient:
            if self.regular_element is None:
                raise PreconditionError(
                    "quotient-ring closure needs a declared regular element of the ideal")
            x = self.element(self.regular_element)
            if not self.contains(x):
                raise PreconditionError("declared regular element is not in the ideal")
            ann = IdealHandle(self.ring, []).colon_element(x)
            if not ann.is_zero():
                raise PreconditionError(
                    "declared element is a zerodivisor: its annihilator is nonzero")
        self._regular = True

    def is_zero(self) -> bool:
        """Every generator lies in the quotient ideal, whose basis is empty
        in a polynomial ring."""
        gb = IdealHandle(self.ring, []).groebner_basis()
        return all(gb.reduces_to_zero(g) for g in self.gens)

    # -- arithmetic -----------------------------------------------------------

    def unit(self) -> "IdealHandle":
        return IdealHandle(self.ring, [self.ring.one()])

    def __add__(self, other: "IdealHandle") -> "IdealHandle":
        """The generators of both, each one once."""
        self._check(other)
        return IdealHandle(self.ring, list(dict.fromkeys(self.gens + other.gens)))

    def __mul__(self, other: "IdealHandle") -> "IdealHandle":
        """The products of the generators, each one once."""
        self._check(other)
        prods = dict.fromkeys(a * b for a in self.gens for b in other.gens)
        return IdealHandle(self.ring, list(prods))

    def times(self, f: Polynomial) -> "IdealHandle":
        """The ideal f * I."""
        return IdealHandle(self.ring, [f * g for g in self.gens])

    def gen_powers(self, k: int) -> "IdealHandle":
        return IdealHandle(self.ring, [g ** k for g in self.gens])

    def intersect(self, other: "IdealHandle") -> "IdealHandle":
        """Elimination: t*A + (1-t)*B in R[t], keep the t-free basis elements."""
        self._check(other)
        b_side = [g.terms for g in other.gens] + [q.terms for q in self.ring.quotient]
        return self._intersect_raw(b_side)

    def _intersect_raw(self, b_side: List[dict]) -> "IdealHandle":
        """Intersection of (self + quotient) with the plain ideal gen'd by b_side."""
        ring = self.ring

        def up(terms: dict, tdeg: int) -> dict:
            return {e + (tdeg,): c for e, c in terms.items()}

        gens = [up(g, 1) for g in self._effective_gens()]
        gens += [{**up(g, 0), **up({e: -c for e, c in g.items()}, 1)}
                 for g in b_side]
        pk, basis = _reduced_basis(gens, ring.order, ring.nvars, eliminate=True)
        # t is the last variable, in the lowest field, and its exponent
        # comes first in the order: g is t-free when its leading term is
        kept = [Polynomial(ring, {e[:-1]: c for e, c in _unpack(pk, g).items()})
                for g in basis if not next(iter(g)) & pk.low]
        return IdealHandle(ring, kept)

    def colon_element(self, b: Polynomial) -> "IdealHandle":
        """(A(+Q) : b) via (A cap (b)) scaled by 1/b."""
        if b.is_zero():
            raise ZeroIdealError("colon by zero")
        self.ring.check_compatible(b.ring)
        # intersect with the plain principal ideal (b) in the polynomial ring
        # (no quotient adjoined on that side) so every generator is an honest
        # multiple of b; dividing yields the colon modulo the quotient.
        inter = self._intersect_raw([dict(b.terms)])
        quots = [_exact_divide(g, b) for g in inter.gens]
        return IdealHandle(self.ring, quots)

    def colon(self, other: "IdealHandle",
              floor: Optional["IdealHandle"] = None) -> "IdealHandle":
        """The intersection of the colons by each generator of other.

        The running result C starts as the colon by one generator, the
        probe: the generator of least (total degree, term count).  That
        colon contains the whole colon, so when F contains C, F itself is
        returned, a step that adds nothing to F.  A further generator b
        costs an elimination only when C is not already inside A : b, that
        is when some generator g of C has g * b outside A; otherwise C is
        C cap (A : b) and b is skipped.

        Unless F is returned, the result is the reduced basis of the colon
        (Q adjoined), whichever generators were skipped: the t-free part of
        the last intersection is that basis, and a C that no intersection
        made is replaced by its own reduced basis."""
        if not other.gens:
            raise ZeroIdealError("colon by the zero ideal")
        self._check(other)
        probe = min(other.gens, key=lambda g: (g.total_degree(), len(g.terms)))
        result = self.colon_element(probe)
        if floor is not None and floor.contains_ideal(result):
            return floor
        intersected = False
        for b in other.gens:
            if b is probe or all(self.contains(g * b) for g in result.gens):
                continue
            result = result.intersect(self.colon_element(b))
            intersected = True
        if intersected:
            return result
        return IdealHandle(self.ring, list(result.groebner_basis().polynomials))

    def leading_term_ideal(self, order: Optional[MonomialOrder] = None) -> MonomialIdeal:
        if self.ring.quotient:
            raise UnsupportedOperationError(
                "leading term ideals are defined over the polynomial ring only")
        if not self.gens:
            raise ZeroIdealError("zero ideal")
        gb = self.groebner_basis(order)
        return MonomialIdeal.from_gens(self.ring, gb.leading_exponents())

    def __str__(self):
        return "(" + ", ".join(str(g) for g in self.gens) + ")"


def _exact_divide(f: Polynomial, b: Polynomial) -> Polynomial:
    """Quotient f/b for f known to be a multiple of b: the reduction of f
    by b / lc(b) records its multipliers."""
    ring = f.ring

    def run(pk: Packing) -> dict:
        g = _pack(pk, b.terms)
        quot: dict = {}
        if _normal_form(_pack(pk, f.terms), [_reducer(_monic(g), pk)], pk, quot):
            raise PreconditionError("exact division failed: not a multiple")
        lc = next(iter(g.values()))
        return _unpack(pk, {s: _quo(c, lc) for s, c in quot.items()})
    return Polynomial(ring, _packed(ring.order, ring.nvars, [f.terms, b.terms], run))
