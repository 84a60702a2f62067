"""Exact scalars, monomials, sparse polynomials, term orders, and the
ideal protocol that every ideal type implements.

Coefficients are exact: rationals (fractions.Fraction) or prime-field
elements.  Exponent vectors are plain tuples of non-negative ints.
Everything here is immutable and safe to share, except that a PowerLadder
adds each power of its ideal once it is first asked for.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain
from operator import mul
from typing import (Iterable, Iterator, List, Mapping, Optional, Sequence,
                    Tuple, Union)

from .errors import PreconditionError, RingMismatchError

Exponents = Tuple[int, ...]


# ---------------------------------------------------------------------------
# coefficient fields


@dataclass(frozen=True)
class PrimeFieldElement:
    residue: int
    modulus: int

    def _check(self, other: "PrimeFieldElement") -> None:
        if self.modulus != other.modulus:
            raise RingMismatchError("prime field moduli differ")

    def __add__(self, other):
        self._check(other)
        return PrimeFieldElement((self.residue + other.residue) % self.modulus, self.modulus)

    def __sub__(self, other):
        self._check(other)
        return PrimeFieldElement((self.residue - other.residue) % self.modulus, self.modulus)

    def __neg__(self):
        return PrimeFieldElement(-self.residue % self.modulus, self.modulus)

    def __mul__(self, other):
        self._check(other)
        return PrimeFieldElement((self.residue * other.residue) % self.modulus, self.modulus)

    def __truediv__(self, other):
        self._check(other)
        if other.residue == 0:
            raise ZeroDivisionError("division by zero in prime field")
        inv = pow(other.residue, -1, self.modulus)
        return PrimeFieldElement((self.residue * inv) % self.modulus, self.modulus)

    def __bool__(self):
        return self.residue != 0

    def __str__(self):
        return str(self.residue)


FieldScalar = Union[Fraction, PrimeFieldElement]


def _is_prime(p: int) -> bool:
    if p < 2:
        return False
    d = 2
    while d * d <= p:
        if p % d == 0:
            return False
        d += 1
    return True


@dataclass(frozen=True)
class Field:
    """Coefficient field: the rationals (p == 0) or F_p for prime p."""

    characteristic: int = 0

    def __post_init__(self):
        if self.characteristic and not _is_prime(self.characteristic):
            raise PreconditionError(f"{self.characteristic} is not prime")

    @property
    def is_rational(self) -> bool:
        return self.characteristic == 0

    def from_int(self, n: int) -> FieldScalar:
        if self.is_rational:
            return Fraction(n)
        return PrimeFieldElement(n % self.characteristic, self.characteristic)

    def zero(self) -> FieldScalar:
        return self.from_int(0)

    def one(self) -> FieldScalar:
        return self.from_int(1)

    def __str__(self):
        return "QQ" if self.is_rational else f"F{self.characteristic}"


QQ = Field(0)


# ---------------------------------------------------------------------------
# term orders

ORDER_KINDS = ("lex", "grlex", "grevlex")


@dataclass(frozen=True)
class MonomialOrder:
    """Total multiplicative order on exponent vectors.

    priority lists variable indices, largest variable first.  key() maps an
    exponent vector to a tuple whose natural ascending order matches the
    monomial order.
    """

    kind: str = "grevlex"
    priority: Optional[Tuple[int, ...]] = None

    def __post_init__(self):
        if self.kind not in ORDER_KINDS:
            raise PreconditionError(f"unknown order kind {self.kind!r}")

    def resolved_priority(self, nvars: int) -> Tuple[int, ...]:
        if self.priority is None:
            return tuple(range(nvars))
        if sorted(self.priority) != list(range(nvars)):
            raise PreconditionError("priority is not a permutation of the variables")
        return self.priority

    def int_weights(self, nvars: int, bits: int,
                    eliminate: bool = False) -> Tuple[int, ...]:
        """Weights c of an int order key ``sum(c_i * e_i)``, additive by
        construction.  With eliminate, one more variable is appended and
        ordered first: the block order that compares its exponent before
        this order on the others (the elimination order of an
        intersection).

        The key reads the key() tuples as numerals in base B = 2**bits.
        With every exponent below B, ``lex = sum(e[prio[p]] * B**(n-1-p))``
        is the base-B numeral of the lex tuple, so it is injective and
        sorts like it.  grlex puts the degree above that numeral,
        ``deg * B**n + lex``; grevlex subtracts the numeral of the
        reversed-priority exponents, ``deg * B**n - sum(e[prio[p]] * B**p)``,
        which lies in ``((deg - 1) * B**n, deg * B**n]``.  Both recover
        (deg, numeral) from the key, so they are injective and compare the
        degree first.  Every key of the n variables then lies in
        ``[0, M)`` with ``M = (n * (B - 1) + 1) * B**n``, and the eliminated
        variable's weight M puts its exponent above all of it.
        """
        prio = self.resolved_priority(nvars)
        B = 1 << bits
        top = B ** nvars
        weights = [0] * nvars
        for p, i in enumerate(prio):
            if self.kind == "lex":
                weights[i] = B ** (nvars - 1 - p)
            elif self.kind == "grlex":
                weights[i] = top + B ** (nvars - 1 - p)
            else:
                weights[i] = top - B ** p
        if eliminate:
            weights.append((nvars * (B - 1) + 1) * top)
        return tuple(weights)

    def key(self, exps: Exponents) -> tuple:
        prio = self.resolved_priority(len(exps))
        if self.kind == "lex":
            return tuple(exps[i] for i in prio)
        if self.kind == "grlex":
            return (sum(exps), *(exps[i] for i in prio))
        # grevlex: among equal degrees, the monomial whose reversed-priority
        # exponents are larger compares smaller.
        return (sum(exps), *(-exps[i] for i in reversed(prio)))

    def compare(self, a: Exponents, b: Exponents) -> int:
        ka, kb = self.key(a), self.key(b)
        return (ka > kb) - (ka < kb)


# ---------------------------------------------------------------------------
# ring descriptor


class RingDescriptor:
    """Variable names, coefficient field, optional quotient generators.

    If quotient generators Q are present, all ideal-level operations are
    interpreted modulo Q (handled by the groebner module).
    """

    def __init__(self, variables: Sequence[str], field: Field = QQ,
                 order: MonomialOrder = MonomialOrder("grevlex"),
                 quotient: Sequence["Polynomial"] = ()):
        variables = tuple(variables)
        if len(set(variables)) != len(variables):
            raise PreconditionError("variable names must be distinct")
        self.variables = variables
        self.field = field
        self.order = order
        self.quotient = tuple(quotient)

    @property
    def nvars(self) -> int:
        return len(self.variables)

    def with_quotient(self, polys: Sequence["Polynomial"]) -> "RingDescriptor":
        return RingDescriptor(self.variables, self.field, self.order, tuple(polys))

    def compatible(self, other: "RingDescriptor") -> bool:
        return (self.variables == other.variables and self.field == other.field
                and self.quotient_keys() == other.quotient_keys())

    def quotient_keys(self):
        return tuple(frozenset(q.terms.items()) for q in self.quotient)

    def check_compatible(self, other: "RingDescriptor") -> None:
        if not self.compatible(other):
            raise RingMismatchError("operands live in different rings")

    def _key(self):
        return (self.variables, self.field, self.order, self.quotient_keys())

    def __eq__(self, other):
        if not isinstance(other, RingDescriptor):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def var_index(self, name: str) -> int:
        try:
            return self.variables.index(name)
        except ValueError:
            raise PreconditionError(f"unknown variable {name!r}") from None

    def variable(self, name: str) -> "Polynomial":
        exps = [0] * self.nvars
        exps[self.var_index(name)] = 1
        return Polynomial(self, {tuple(exps): self.field.one()})

    def constant(self, n: int) -> "Polynomial":
        c = self.field.from_int(n)
        return Polynomial(self, {(0,) * self.nvars: c} if c else {})

    def zero(self) -> "Polynomial":
        return Polynomial(self, {})

    def one(self) -> "Polynomial":
        return self.constant(1)

    def format_exponents(self, exps: Exponents) -> str:
        parts = []
        for name, e in zip(self.variables, exps):
            if e == 1:
                parts.append(name)
            elif e > 1:
                parts.append(f"{name}^{e}")
        return "*".join(parts) if parts else "1"

    def __repr__(self):
        quo = f" / ({', '.join(map(str, self.quotient))})" if self.quotient else ""
        return f"{self.field}[{','.join(self.variables)}]{quo}"


# ---------------------------------------------------------------------------
# monomials


def exps_divides(a: Exponents, b: Exponents) -> bool:
    """a | b componentwise."""
    return all(x <= y for x, y in zip(a, b))


def exps_mul(a: Exponents, b: Exponents) -> Exponents:
    return tuple(x + y for x, y in zip(a, b))


class Packing:
    """Exponent vectors of ``nvars`` variables packed into ints, the one
    format of the monomial-ideal kernels and of the Buchberger engine.

    Each variable gets a field of ``width`` bits, the first variable in the
    highest field.  Every exponent stays below the top bit of its field,
    the guard bit: ``guards`` is the mask of all guard bits, ``low`` that of
    one field's value bits, ``mask`` that of all the fields.  In
    ``(b | G) - a`` a field never borrows from the next, and its guard stays
    set exactly when that field of ``a`` is at most that of ``b``.  So:

    - ``a | b``  iff  ``((b | G) - a) & G == G``;
    - ``max(a - b, 0)``, fieldwise, is ``(a | G) - b`` with the fields whose
      guard was cleared zeroed and the guards dropped; with ``m`` the guards
      that stayed set, ``m - (m >> (width - 1))`` masks their fields' value
      bits;
    - ``lcm(a, b) = b + max(a - b, 0)``, whose fields stay below the guards.

    The first variable is the most significant, so ascending packed order
    is the lexicographic order on the tuples.  That order extends
    divisibility: a proper divisor is lexicographically smaller.

    ``key``, when given, is the weights c of ``MonomialOrder.int_weights``;
    the bits above the fields then hold the order key ``sum(c_i * e_i)``,
    so packed ints compare as the order does.  Both parts are linear, so
    ``pack(a) + pack(b) == pack(a + b)`` while no field of the sum reaches
    its guard bit.  The fieldwise methods read fields only: give them the
    fields of a keyed int, ``p & mask``.
    """

    __slots__ = ("width", "shifts", "low", "guards", "mask", "key")

    def __init__(self, nvars: int, width: int, key: Sequence[int] = ()):
        self.width = width
        self.shifts = tuple(range((nvars - 1) * width, -1, -width))
        self.low = (1 << (width - 1)) - 1
        self.guards = sum(1 << (s + width - 1) for s in self.shifts)
        self.mask = (1 << (nvars * width)) - 1
        self.key = tuple(c << (nvars * width) for c in key)

    def pack(self, e: Exponents) -> int:
        w, p = self.width, 0
        for x in e:
            p = (p << w) | x
        if self.key:
            p += sum(map(mul, self.key, e))
        return p

    def unpack(self, p: int) -> Exponents:
        low = self.low
        return tuple([(p >> s) & low for s in self.shifts])

    def lcm(self, a: int, b: int) -> int:
        G = self.guards
        d = (a | G) - b
        m = d & G
        return b + (d & (m - (m >> (self.width - 1))))

    def minimal(self, packed: Iterable[int],
                floor: Sequence[int] = ()) -> List[int]:
        """The divisibility-minimal values outside the ideal ``floor``
        generates, ascending: a value survives when no floor generator and
        no smaller survivor divides it."""
        G = self.guards
        kept: List[int] = []
        for c in sorted(set(packed)):
            cg = c | G
            for k in chain(floor, kept):
                if (cg - k) & G == G:
                    break
            else:
                kept.append(c)
        return kept

    def quotients(self, As: Sequence[int], b: int,
                  floor: Sequence[int] = ()) -> List[int]:
        """Minimal generators of (A : b) outside floor: the minimal
        max(a - b, 0)."""
        G, s = self.guards, self.width - 1
        out = []
        for a in As:
            d = (a | G) - b
            m = d & G
            out.append(d & (m - (m >> s)))
        return self.minimal(out, floor)

    def lcms(self, As: Sequence[int], Bs: Sequence[int],
             floor: Sequence[int] = ()) -> List[int]:
        """Minimal generators of A ∩ B outside floor: the minimal
        b + max(a - b, 0)."""
        G, s = self.guards, self.width - 1
        out = []
        for a in As:
            aG = a | G
            for b in Bs:
                d = aG - b
                m = d & G
                out.append(b + (d & (m - (m >> s))))
        return self.minimal(out, floor)


@dataclass(frozen=True)
class Monomial:
    ring: RingDescriptor
    exps: Exponents

    def __post_init__(self):
        if len(self.exps) != self.ring.nvars:
            raise PreconditionError("exponent vector length != number of variables")
        if any(e < 0 for e in self.exps):
            raise PreconditionError("negative exponent")

    def as_polynomial(self) -> "Polynomial":
        return Polynomial(self.ring, {self.exps: self.ring.field.one()})

    def __str__(self):
        return self.ring.format_exponents(self.exps)

    def __eq__(self, other):
        return isinstance(other, Monomial) and self.exps == other.exps \
            and self.ring.variables == other.ring.variables

    def __hash__(self):
        return hash((self.ring.variables, self.exps))


# ---------------------------------------------------------------------------
# sparse polynomials


class Polynomial:
    """Sparse polynomial in canonical form: no zero coefficients."""

    __slots__ = ("ring", "terms")

    def __init__(self, ring: RingDescriptor, terms: Mapping[Exponents, FieldScalar]):
        self.ring = ring
        self.terms = {e: c for e, c in terms.items() if c}

    def is_zero(self) -> bool:
        return not self.terms

    def _check(self, other: "Polynomial") -> None:
        self.ring.check_compatible(other.ring)

    def __add__(self, other: "Polynomial") -> "Polynomial":
        self._check(other)
        out = dict(self.terms)
        for e, c in other.terms.items():
            s = out.get(e)
            out[e] = c if s is None else s + c
        return Polynomial(self.ring, out)

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        self._check(other)
        out = dict(self.terms)
        for e, c in other.terms.items():
            s = out.get(e)
            out[e] = -c if s is None else s - c
        return Polynomial(self.ring, out)

    def __neg__(self) -> "Polynomial":
        return Polynomial(self.ring, {e: -c for e, c in self.terms.items()})

    def __mul__(self, other: "Polynomial") -> "Polynomial":
        self._check(other)
        out: dict = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = exps_mul(e1, e2)
                c = c1 * c2
                s = out.get(e)
                out[e] = c if s is None else s + c
        return Polynomial(self.ring, out)

    def __pow__(self, n: int) -> "Polynomial":
        if n < 0:
            raise PreconditionError("negative power")
        result = self.ring.one()
        base = self
        while n:
            if n & 1:
                result = result * base
            n >>= 1
            if n:
                base = base * base
        return result

    def leading_term(self, order: Optional[MonomialOrder] = None):
        """(exponents, coefficient) of the leading term; None for zero."""
        if not self.terms:
            return None
        order = order or self.ring.order
        e = max(self.terms, key=order.key)
        return e, self.terms[e]

    def leading_monomial(self, order: Optional[MonomialOrder] = None) -> Monomial:
        lt = self.leading_term(order)
        if lt is None:
            raise PreconditionError("zero polynomial has no leading monomial")
        return Monomial(self.ring, lt[0])

    def total_degree(self) -> int:
        return max((sum(e) for e in self.terms), default=0)

    def is_monomial(self) -> bool:
        return len(self.terms) == 1 and bool(next(iter(self.terms.values())) == self.ring.field.one())

    def sorted_terms(self, order: Optional[MonomialOrder] = None):
        order = order or self.ring.order
        return sorted(self.terms.items(), key=lambda t: order.key(t[0]), reverse=True)

    def __eq__(self, other):
        return (isinstance(other, Polynomial)
                and self.ring.variables == other.ring.variables
                and self.terms == other.terms)

    def __hash__(self):
        return hash((self.ring.variables, frozenset(self.terms.items())))

    def __str__(self):
        if not self.terms:
            return "0"
        pieces = []
        for i, (e, c) in enumerate(self.sorted_terms()):
            mono = self.ring.format_exponents(e)
            if isinstance(c, Fraction):
                neg = c < 0
                mag = -c if neg else c
            else:
                neg = False
                mag = c
            coef = str(mag)
            if mono == "1":
                body = coef
            elif coef == "1":
                body = mono
            else:
                body = f"{coef}*{mono}"
            if i == 0:
                pieces.append(f"-{body}" if neg else body)
            else:
                pieces.append(f" - {body}" if neg else f" + {body}")
        return "".join(pieces)

    def __repr__(self):
        return f"Polynomial({self})"


# ---------------------------------------------------------------------------
# the ideal protocol


class Ideal:
    """The methods the closure engine calls on every ideal type.

    MonomialIdeal, IdealHandle, SemigroupIdeal and AffineIdeal implement the
    protocol directly, with no adapter between.  Each supplies its
    primitives:

    - ``gens``; ``contains(e)``; ``_check(B)``, which raises unless B lives
      in the same ring; ``unit()``, the unit ideal;
    - ``+``, ``*``, ``intersect(B)``;
    - ``colon(B, floor=None)``: with a floor F it returns an ideal C with
      C + F = (A : B) + F, and F itself only when F contains A : B;
    - ``element(m)``: a probe argument in the ideal's own representation;
    - ``times(e)``, the ideal e * I; ``gen_powers(k)``, (g_1^k, ..., g_d^k).

    This class derives the rest the same way for all of them; a type
    overrides a method only where it knows more.
    """

    def power(self, n: int) -> "Ideal":
        """I^n, with I^0 the unit ideal, built once on I's PowerLadder."""
        return PowerLadder(self).power(n)

    def contains_ideal(self, other: "Ideal") -> bool:
        self._check(other)
        return all(self.contains(g) for g in other.gens)

    def equals(self, other: "Ideal") -> bool:
        return self.contains_ideal(other) and other.contains_ideal(self)

    def gens_outside(self, other: "Ideal") -> Iterator:
        """The generators outside other, as public elements."""
        return (g for g in self.gens if not other.contains(g))

    def first_gen_outside(self, other: "Ideal"):
        return next(self.gens_outside(other), None)

    def principal_reduction_index(self) -> Optional[int]:
        """An r with I^{r+1} = x * I^r for a regular x, or None when none is
        known (see ratliff_rush.rr_power)."""
        return None

    def check_regular(self, regular_element=None) -> None:
        """Raise unless closure chains of I are meaningful: I must be
        regular.  Exponent-set ideals always are."""


class PowerLadder:
    """The powers I^2, I^3, ... of one ideal I, each made once as I^n * I.

    PowerLadder(I) returns the ladder kept on I itself, so it lives exactly
    as long as I does.  It refers to I weakly, so no reference cycle keeps
    it alive; ``base`` is I, or None once I is gone."""

    __slots__ = ("_base", "_powers", "__weakref__")

    def __new__(cls, base: Ideal):
        inst = base.__dict__.get("_ladder")
        if inst is None:
            inst = super().__new__(cls)
            inst._base = weakref.ref(base)
            inst._powers = []  # I^2, I^3, ...
            object.__setattr__(base, "_ladder", inst)  # some ideals are frozen
        return inst

    @property
    def base(self) -> Optional[Ideal]:
        return self._base()

    def power(self, n: int) -> Ideal:
        if n < 0:
            raise PreconditionError("negative power")
        I = self._base()
        if n < 2:
            return I if n else I.unit()
        powers = self._powers
        while len(powers) < n - 1:
            powers.append((powers[-1] if powers else I) * I)
        return powers[n - 2]
