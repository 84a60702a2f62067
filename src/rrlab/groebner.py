"""Buchberger engine: normal forms, reduced bases, ideal arithmetic.

IdealHandle wraps a generator list plus ring context.  In a quotient ring
R/Q every operation silently adjoins Q, so handles always compute with
polynomial-ring Groebner bases; results are read as cosets.
"""

from __future__ import annotations

import heapq
from bisect import insort
from typing import Dict, List, Optional, Sequence, Tuple

from .core import (Exponents, Ideal, Monomial, MonomialOrder, Polynomial,
                   RingDescriptor, exps_divides, exps_lcm, exps_mul)
from .errors import (PreconditionError, ResourceLimitError,
                     UnsupportedOperationError, ZeroIdealError)
from .monomial import MonomialIdeal

DEFAULT_PAIR_CAP = 200_000


def _elim_key(base_key):
    """Block order: the last variable first (lex), then base_key on the rest."""
    return lambda exps: (exps[-1], *base_key(exps[:-1]))


# ---------------------------------------------------------------------------
# raw engine on term dicts


def _lt(terms: dict, key) -> Exponents:
    return max(terms, key=key)


def _normal_form(terms: dict, basis: List[Tuple[Exponents, object, dict]], key) -> dict:
    """Full reduction of a term dict by (lt, ltcoef, terms) triples."""
    work = dict(terms)
    remainder: dict = {}
    while work:
        e = max(work, key=key)
        c = work[e]
        for lt, ltc, g in basis:
            if exps_divides(lt, e):
                shift = tuple(a - b for a, b in zip(e, lt))
                factor = c / ltc
                for ge, gc in g.items():
                    t = exps_mul(ge, shift)
                    v = work.get(t, None)
                    nv = -factor * gc if v is None else v - factor * gc
                    if nv:
                        work[t] = nv
                    elif v is not None:
                        del work[t]
                    # nv zero and t absent: nothing to do (t == e handled below)
                work.pop(e, None)
                break
        else:
            remainder[e] = c
            del work[e]
    return remainder


def _prep(polys: Sequence[dict], key) -> List[Tuple[Exponents, object, dict]]:
    """Reducer triples (lt, ltcoef, terms), sorted by leading term (stable, so
    equal leading terms keep their input order; keeps reduction deterministic)."""
    out = []
    for g in polys:
        if g:
            lt = _lt(g, key)
            out.append((lt, g[lt], g))
    out.sort(key=lambda t: key(t[0]))
    return out


def _spoly(f: dict, g: dict, key) -> dict:
    lf, lg = _lt(f, key), _lt(g, key)
    lcm = exps_lcm(lf, lg)
    sf = tuple(a - b for a, b in zip(lcm, lf))
    sg = tuple(a - b for a, b in zip(lcm, lg))
    cf, cg = f[lf], g[lg]
    out: dict = {}
    for e, c in f.items():
        out[exps_mul(e, sf)] = c / cf
    for e, c in g.items():
        t = exps_mul(e, sg)
        v = out.get(t, None)
        nv = -c / cg if v is None else v - c / cg
        if nv:
            out[t] = nv
        elif v is not None:
            del out[t]
    return out


def _buchberger(gens: Sequence[dict], key, pair_cap: int = DEFAULT_PAIR_CAP) -> List[dict]:
    """Raw (unreduced) Groebner basis of gens under the order given by key.

    Pairs follow the normal strategy: the pair whose lcm of leading terms has
    the smallest total degree goes first, ties broken by the term order of
    that lcm and then by the index pair (i, j).  Each pair's sort entry is
    computed once, when the pair is made, and kept on a heap; the set of open
    pairs serves the chain criterion.  The reducer list is sorted once and
    each new remainder is inserted in place.
    """
    G = [dict(g) for g in gens if g]
    if not G:
        return []
    lts = [_lt(g, key) for g in G]

    def entry(i: int, j: int):
        lcm = exps_lcm(lts[i], lts[j])
        return (sum(lcm), key(lcm), i, j)

    heap = [entry(i, j) for j in range(len(G)) for i in range(j)]
    heapq.heapify(heap)
    pairs = {(i, j) for _, _, i, j in heap}
    reducers = _prep(G, key)
    processed = 0
    while heap:
        processed += 1
        if processed > pair_cap:
            raise ResourceLimitError(f"Buchberger pair cap {pair_cap} exceeded")
        _, _, i, j = heapq.heappop(heap)
        pairs.discard((i, j))
        li, lj = lts[i], lts[j]
        lcm = exps_lcm(li, lj)
        # coprime criterion
        if all(a + b == c for a, b, c in zip(li, lj, lcm)):
            continue
        # chain criterion: some k with lt_k | lcm and both other pairs done
        skip = False
        for k in range(len(G)):
            if k in (i, j) or not exps_divides(lts[k], lcm):
                continue
            a = (min(i, k), max(i, k))
            b = (min(j, k), max(j, k))
            if a not in pairs and b not in pairs:
                skip = True
                break
        if skip:
            continue
        s = _spoly(G[i], G[j], key)
        r = _normal_form(s, reducers, key)
        if r:
            lt = _lt(r, key)
            G.append(r)
            lts.append(lt)
            insort(reducers, (lt, r[lt], r), key=lambda t: key(t[0]))
            new = len(G) - 1
            for k in range(new):
                heapq.heappush(heap, entry(k, new))
            pairs.update((k, new) for k in range(new))
    return G


def _autoreduce(G: List[dict], key) -> List[dict]:
    """Reduced basis: minimal leading terms, monic, fully reduced tails."""
    # prune redundant leading terms
    lts = [(_lt(g, key), g) for g in G if g]
    minimal = []
    for lt, g in sorted(lts, key=lambda t: (sum(t[0]), key(t[0]))):
        if not any(exps_divides(m, lt) for m, _ in minimal):
            minimal.append((lt, g))
    polys = [g for _, g in minimal]
    # reduce each by the others
    reduced = []
    for i, g in enumerate(polys):
        others = polys[:i] + polys[i + 1:]
        r = _normal_form(g, _prep(others, key), key)
        if r:
            lc = r[_lt(r, key)]
            reduced.append({e: c / lc for e, c in r.items()})
    reduced.sort(key=lambda g: key(_lt(g, key)))
    return reduced


# ---------------------------------------------------------------------------
# GroebnerBasis / IdealHandle


class GroebnerBasis:
    def __init__(self, ring: RingDescriptor, order: MonomialOrder, polys: List[dict]):
        self.ring = ring
        self.order = order
        self._polys = polys
        self._key = order.key_function(ring.nvars)
        self._prepped = _prep(polys, self._key)

    @property
    def polynomials(self) -> Tuple[Polynomial, ...]:
        return tuple(Polynomial(self.ring, g) for g in self._polys)

    def leading_exponents(self) -> Tuple[Exponents, ...]:
        return tuple(_lt(g, self._key) for g in self._polys)

    def normal_form(self, f: Polynomial) -> Polynomial:
        self.ring.check_compatible(f.ring)
        return Polynomial(self.ring, _normal_form(f.terms, self._prepped, self._key))

    def reduces_to_zero(self, f: Polynomial) -> bool:
        return not _normal_form(f.terms, self._prepped, self._key)

    def __len__(self):
        return len(self._polys)


def normal_form(f: Polynomial, G: GroebnerBasis) -> Polynomial:
    return G.normal_form(f)


class IdealHandle(Ideal):
    """Generators plus ring context; reduced GB cached per order."""

    def __init__(self, ring: RingDescriptor, gens: Sequence[Polynomial],
                 pair_cap: int = DEFAULT_PAIR_CAP):
        gens = [g for g in gens if not g.is_zero()]
        for g in gens:
            ring.check_compatible(g.ring)
        self.ring = ring
        self.gens = tuple(gens)
        self.pair_cap = pair_cap
        self._gb: Dict[object, GroebnerBasis] = {}

    # -- construction helpers ---------------------------------------------

    @staticmethod
    def from_monomial(I: MonomialIdeal) -> "IdealHandle":
        one = I.ring.field.one()
        return IdealHandle(I.ring, [Polynomial(I.ring, {g: one}) for g in I.gens])

    def is_monomial(self) -> bool:
        return all(len(g.terms) == 1 for g in self.gens) and not self.ring.quotient

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
        eff = [dict(g.terms) for g in self.gens]
        eff.extend(dict(q.terms) for q in self.ring.quotient)
        return eff

    def groebner_basis(self, order: Optional[MonomialOrder] = None) -> GroebnerBasis:
        order = order or self.ring.order
        sig = self._order_sig(order)
        gb = self._gb.get(sig)
        if gb is not None:
            return gb
        key = order.key_function(self.ring.nvars)
        raw = _buchberger(self._effective_gens(), key, self.pair_cap)
        gb = GroebnerBasis(self.ring, order, _autoreduce(raw, key))
        self._gb[sig] = gb
        return gb

    # -- predicates ----------------------------------------------------------

    def _check(self, other: "IdealHandle") -> None:
        self.ring.check_compatible(other.ring)

    def contains(self, f: Polynomial) -> bool:
        return self.groebner_basis().reduces_to_zero(f)

    def equals(self, other: "IdealHandle") -> bool:
        self._check(other)
        a = self.groebner_basis()._polys
        b = other.groebner_basis()._polys
        return [sorted(g.items()) for g in a] == [sorted(g.items()) for g in b]

    def element(self, m) -> Polynomial:
        if isinstance(m, Monomial):
            return m.as_polynomial()
        if isinstance(m, Polynomial):
            return m
        raise UnsupportedOperationError(f"cannot probe with {type(m).__name__}")

    def check_regular(self, regular_element=None) -> None:
        """In a domain any nonzero ideal is regular.  In a quotient ring the
        caller must name an element of I whose annihilator is zero; that
        claim is verified against the quotient relations."""
        if not self.gens:
            raise ZeroIdealError("closure of the zero ideal is undefined")
        if not self.ring.quotient:
            return
        if regular_element is None:
            raise PreconditionError(
                "quotient-ring closure needs a declared regular element of the ideal")
        x = self.element(regular_element)
        if not self.contains(x):
            raise PreconditionError("declared regular element is not in the ideal")
        ann = IdealHandle(self.ring, [], self.pair_cap).colon_element(x)
        if not ann.is_zero():
            raise PreconditionError(
                "declared element is a zerodivisor: its annihilator is nonzero")

    def is_zero(self) -> bool:
        if not self.ring.quotient:
            return len(self.groebner_basis()) == 0
        # Zero in the quotient ring: every generator lies in the quotient
        # ideal.
        Q = IdealHandle(self.ring, [], self.pair_cap)
        gb = Q.groebner_basis()
        return all(gb.reduces_to_zero(g) for g in self.gens)

    # -- arithmetic -----------------------------------------------------------

    def unit(self) -> "IdealHandle":
        return IdealHandle(self.ring, [self.ring.one()], self.pair_cap)

    def __add__(self, other: "IdealHandle") -> "IdealHandle":
        self._check(other)
        return IdealHandle(self.ring, self.gens + other.gens, self.pair_cap)

    def __mul__(self, other: "IdealHandle") -> "IdealHandle":
        """The products of the generators, each one once."""
        self._check(other)
        prods = dict.fromkeys(a * b for a in self.gens for b in other.gens)
        return IdealHandle(self.ring, list(prods), self.pair_cap)

    def times(self, f: Polynomial) -> "IdealHandle":
        """The ideal f * I."""
        return IdealHandle(self.ring, [f * g for g in self.gens], self.pair_cap)

    def gen_powers(self, k: int) -> "IdealHandle":
        return IdealHandle(self.ring, [g ** k for g in self.gens], self.pair_cap)

    def intersect(self, other: "IdealHandle") -> "IdealHandle":
        """Elimination: t*A + (1-t)*B in R[t], keep the t-free basis elements."""
        self._check(other)
        b_side = [g.terms for g in other.gens] + [q.terms for q in self.ring.quotient]
        return self._intersect_raw(b_side)

    def _intersect_raw(self, b_side: List[dict]) -> "IdealHandle":
        """Intersection of (self + quotient) with the plain ideal gen'd by b_side."""
        ring = self.ring
        key = _elim_key(ring.order.key_function(ring.nvars))

        def up(terms: dict, tdeg: int) -> dict:
            return {e + (tdeg,): c for e, c in terms.items()}

        gens: List[dict] = []
        a_side = [g.terms for g in self.gens] + [q.terms for q in ring.quotient]
        for g in a_side:
            gens.append(up(g, 1))
        for g in b_side:
            tg = up(g, 1)
            g0 = up(g, 0)
            merged = dict(g0)
            for e, c in tg.items():
                v = merged.get(e, None)
                nv = -c if v is None else v - c
                if nv:
                    merged[e] = nv
                elif v is not None:
                    del merged[e]
            gens.append(merged)
        raw = _buchberger(gens, key, self.pair_cap)
        basis = _autoreduce(raw, key)
        kept = []
        for g in basis:
            if all(e[-1] == 0 for e in g):
                kept.append(Polynomial(ring, {e[:-1]: c for e, c in g.items()}))
        return IdealHandle(ring, kept, self.pair_cap)

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
        return IdealHandle(self.ring, quots, self.pair_cap)

    def colon(self, other: "IdealHandle",
              floor: Optional["IdealHandle"] = None) -> "IdealHandle":
        """The intersection of the colons by each generator of other.

        With a floor F, the colon by the generator b of least (total degree,
        term count) comes first.  It contains the whole colon, so when F
        contains it F itself is returned, a step that adds nothing to F;
        otherwise it is reused as b's part of the intersection."""
        if not other.gens:
            raise ZeroIdealError("colon by the zero ideal")
        self._check(other)
        probe = first = None
        if floor is not None:
            probe = min(other.gens, key=lambda g: (g.total_degree(), len(g.terms)))
            first = self.colon_element(probe)
            if floor.contains_ideal(first):
                return floor
        result: Optional[IdealHandle] = None
        for b in other.gens:
            part = first if b is probe else self.colon_element(b)
            result = part if result is None else result.intersect(part)
        return result

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
    """Quotient f/b for f known to be a multiple of b."""
    key = f.ring.order.key_function(f.ring.nvars)
    work = dict(f.terms)
    lt = _lt(b.terms, key)
    ltc = b.terms[lt]
    quot: dict = {}
    while work:
        e = max(work, key=key)
        if not exps_divides(lt, e):
            raise PreconditionError("exact division failed: not a multiple")
        shift = tuple(a - c for a, c in zip(e, lt))
        factor = work[e] / ltc
        quot[shift] = factor
        for ge, gc in b.terms.items():
            t = exps_mul(ge, shift)
            v = work.get(t, None)
            nv = -factor * gc if v is None else v - factor * gc
            if nv:
                work[t] = nv
            elif v is not None:
                del work[t]
    return Polynomial(f.ring, quot)


# ---------------------------------------------------------------------------
# spec-level operation names


def reduced_groebner_basis(I: IdealHandle, order: Optional[MonomialOrder] = None) -> GroebnerBasis:
    return I.groebner_basis(order)


def leading_term_ideal(I: IdealHandle, order: Optional[MonomialOrder] = None) -> MonomialIdeal:
    return I.leading_term_ideal(order)


def ideal_membership(f: Polynomial, I: IdealHandle) -> bool:
    return I.contains(f)


def ideal_colon(A: IdealHandle, B: IdealHandle) -> IdealHandle:
    return A.colon(B)


def ideal_power(I: IdealHandle, n: int) -> IdealHandle:
    if n < 1:
        raise PreconditionError("power must be >= 1")
    return I.power(n)


def ideal_equal(A: IdealHandle, B: IdealHandle) -> bool:
    return A.equals(B)


def ideal_contains(A: IdealHandle, B: IdealHandle) -> bool:
    return A.contains_ideal(B)
