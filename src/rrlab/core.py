"""Exact scalars, term orders, rings, sparse polynomials, and the ideal
protocol that every ideal type implements.

Coefficients are exact: prime-field elements, or rationals held as ints
and, where a division made one, as ``fractions.Fraction``s; equal values
compare, hash and print alike.  Exponent vectors are plain tuples of
non-negative ints.  A ring element is a ``Polynomial``, a monomial one of
one term; the ring's order sorts its terms and the ring prints them.
Everything here is immutable and safe to share, except that an ideal keeps
each of its powers on itself once it is first asked for (``PowerLadder``).
The value types of the whole package derive from Record.
"""

from __future__ import annotations

import functools
from fractions import Fraction
from itertools import chain
from operator import add, attrgetter, le, mul
from typing import (Iterable, Iterator, List, Mapping, Optional, Sequence,
                    Tuple, Union)

from .errors import PreconditionError, RingMismatchError

Exponents = Tuple[int, ...]


# ---------------------------------------------------------------------------
# value objects


class Record:
    """Base of the immutable value types: scalars, orders, rings, the
    exponent-set ideals, tokens and statements, configs, verdicts, reports
    and corpus cases.

    - Fields: ``_fields`` names them in repr order.  Subclasses write no
      ``__init__``: arguments bind to the fields in order, ``_keyword`` ones
      only by keyword, and a field not given takes its ``_defaults`` value;
      an unknown, repeated or missing field, or too many positional
      arguments, raise TypeError.  Then ``_validate()`` raises unless the
      fields make a valid value; here it does nothing.
    - Frozen: assigning or deleting any attribute raises AttributeError.
    - Equal when of the same class with equal compared fields, all of
      ``_fields`` but ``_uncompared``; otherwise ``==`` returns
      NotImplemented.  The hash reads the same fields.
    - repr in the dataclass form ``Name(f=v, ...)``, over all the fields.
    - ``replace(**changes)`` builds the changed copy through ``__init__``,
      so ``_validate`` runs again.
    - ``to_dict()`` is the JSON shape: the class's ``_tag`` pair, when it
      has one (``("verdict", "holds")``), then every field by name.  A
      field named in ``_as_text`` is given as its str, unless it is None.

    A subclass may define its own ``__eq__`` together with ``__hash__``.
    These are plain classes, not ``dataclasses``: a dataclass compiles its
    methods with ``exec`` when its module is imported, and with the import
    of ``dataclasses`` itself that was about 28 ms of every start of
    ``rrlab``.
    """

    _fields: Tuple[str, ...] = ()
    _keyword: Tuple[str, ...] = ()
    _defaults: Mapping[str, object] = {}
    _uncompared: Tuple[str, ...] = ()
    _tag: Optional[Tuple[str, str]] = None
    _as_text: Tuple[str, ...] = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        if "_fields" in cls.__dict__:
            cls._values = attrgetter(
                *[f for f in cls._fields if f not in cls._uncompared])
        cls._arity = None if cls._keyword else len(cls._fields)

    def __init__(self, *args, **kwargs):
        if kwargs or len(args) != self._arity:  # not one argument per field
            args = self._bind(args, kwargs)
        # not through self.__dict__: reading it gives the instance a dict of
        # its own, and makes every later read of a field slower
        for name, value in zip(self._fields, args):
            object.__setattr__(self, name, value)
        self._validate()

    @classmethod
    def _bind(cls, args: tuple, kwargs: dict) -> list:
        positional = [f for f in cls._fields if f not in cls._keyword]
        if len(args) > len(positional):
            raise TypeError(f"{cls.__qualname__}: too many positional arguments")
        given = dict(zip(positional, args))
        for f in kwargs:
            if f not in cls._fields or f in given:
                raise TypeError(f"{cls.__qualname__}: unknown or repeated field {f!r}")
        values = {**cls._defaults, **given, **kwargs}
        if len(values) < len(cls._fields):
            missing = [f for f in cls._fields if f not in values]
            raise TypeError(f"{cls.__qualname__}: missing fields {missing}")
        return [values[f] for f in cls._fields]

    def _validate(self) -> None:
        pass

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self is other or self._values(self) == self._values(other)

    def __hash__(self):
        return hash(self._values(self))

    def __repr__(self):
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{self.__class__.__qualname__}({fields})"

    def replace(self, **changes):
        """This record with the given fields changed, built through
        ``__init__``."""
        kwargs = {f: getattr(self, f) for f in self._fields}
        kwargs.update(changes)
        return self.__class__(**kwargs)

    def to_dict(self) -> dict:
        d = dict([self._tag]) if self._tag else {}
        for f in self._fields:
            value = getattr(self, f)
            d[f] = str(value) if f in self._as_text and value is not None else value
        return d


# ---------------------------------------------------------------------------
# coefficient fields


class PrimeFieldElement(Record):
    _fields = ("residue", "modulus")

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


FieldScalar = Union[int, Fraction, PrimeFieldElement]


# Miller-Rabin with the first 13 primes as bases decides primality exactly
# below PRIME_TEST_BOUND (Sorenson and Webster, 2015).
_PRIME_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
PRIME_TEST_BOUND = 3317044064679887385961981


def _is_prime(n: int) -> bool:
    """Whether n is prime, for n < PRIME_TEST_BOUND."""
    if n < 2:
        return False
    for b in _PRIME_BASES:
        if n % b == 0:
            return n == b
    d, s = n - 1, 0
    while not d & 1:
        d >>= 1
        s += 1
    for b in _PRIME_BASES:
        x = pow(b, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class Field(Record):
    """Coefficient field: the rationals (p == 0, the default) or F_p for a
    prime p below PRIME_TEST_BOUND."""

    _fields = ("characteristic",)
    _defaults = {"characteristic": 0}

    def _validate(self):
        p = self.characteristic
        if p >= PRIME_TEST_BOUND:
            raise PreconditionError(f"characteristic {p} is too large: the "
                                    f"primality test is exact below {PRIME_TEST_BOUND}")
        if p and not _is_prime(p):
            raise PreconditionError(f"{p} is not prime")

    @property
    def is_rational(self) -> bool:
        return self.characteristic == 0

    def from_int(self, n: int) -> FieldScalar:
        if self.is_rational:
            return n
        return PrimeFieldElement(n % self.characteristic, self.characteristic)

    def one(self) -> FieldScalar:
        return self.from_int(1)

    def __str__(self):
        return "QQ" if self.is_rational else f"F{self.characteristic}"


QQ = Field(0)


# ---------------------------------------------------------------------------
# term orders

ORDER_KINDS = ("lex", "grlex", "grevlex")


class MonomialOrder(Record):
    """Total multiplicative order on exponent vectors, written once, as the
    int key of ``int_weights``.

    priority lists variable indices, largest variable first.  With the
    exponents e read in that order: lex compares e, first entry first;
    grlex compares the degree, then e; grevlex compares the degree, and
    among equal degrees the vector whose last differing entry is smaller
    is the larger.
    """

    _fields = ("kind", "priority")
    _defaults = {"kind": "grevlex", "priority": None}

    def _validate(self):
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

        The key reads exponent vectors as numerals in base B = 2**bits.
        With every exponent below B, ``lex = sum(e[prio[p]] * B**(n-1-p))``
        is the base-B numeral of the exponents in priority order, so it is
        injective and sorts like lex.  grlex puts the degree above that
        numeral, ``deg * B**n + lex``; grevlex subtracts the numeral of the
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


# ---------------------------------------------------------------------------
# ring descriptor


class RingDescriptor(Record):
    """Variable names, coefficient field, term order, optional quotient
    generators.

    If quotient generators Q are present, all ideal-level operations are
    interpreted modulo Q (handled by the groebner module).
    """

    _fields = ("variables", "field", "order", "quotient")
    _defaults = {"field": QQ, "order": MonomialOrder("grevlex"), "quotient": ()}

    def _validate(self):
        variables = tuple(self.variables)
        if len(set(variables)) != len(variables):
            raise PreconditionError("variable names must be distinct")
        object.__setattr__(self, "variables", variables)
        object.__setattr__(self, "quotient", tuple(self.quotient))

    @property
    def nvars(self) -> int:
        return len(self.variables)

    def with_quotient(self, polys: Sequence["Polynomial"]) -> "RingDescriptor":
        return self.replace(quotient=polys)

    def compatible(self, other: "RingDescriptor") -> bool:
        """The same ring up to the term order."""
        return self is other or (
            self.variables == other.variables and self.field == other.field
            and self.quotient == other.quotient)

    def check_compatible(self, other: "RingDescriptor") -> None:
        if not self.compatible(other):
            raise RingMismatchError("operands live in different rings")

    def var_index(self, name: str) -> int:
        try:
            return self.variables.index(name)
        except ValueError:
            raise PreconditionError(f"unknown variable {name!r}") from None

    def monomial(self, exps: Exponents) -> "Polynomial":
        """The one-term polynomial with exponents exps and coefficient 1."""
        return Polynomial(self, {tuple(exps): self.field.one()})

    def variable(self, name: str) -> "Polynomial":
        exps = [0] * self.nvars
        exps[self.var_index(name)] = 1
        return self.monomial(exps)

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
# exponent vectors


def exps_divides(a: Exponents, b: Exponents) -> bool:
    """a | b componentwise."""
    return all(map(le, a, b))


def exps_mul(a: Exponents, b: Exponents) -> Exponents:
    return tuple(map(add, a, b))


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
        no smaller survivor divides it.

        With at most two fields this is a staircase sweep over the values
        and the floor generators together, in ascending order.  An earlier
        value's first field is at most the current one's, so it divides the
        current value exactly when its last field is too: a value survives
        when its last field is below that of every earlier value.  Equal
        values meet once, and one that is also a floor generator counts as
        the floor's and is never output.  With more fields, each value is
        tested against the floor and the survivors so far."""
        if len(self.shifts) <= 2:
            floor, low = set(floor), self.low
            kept, least = [], low + 1
            for c in sorted(floor.union(packed)):
                y = c & low
                if y < least:
                    least = y
                    if c not in floor:
                        kept.append(c)
            return kept
        G = self.guards
        kept = []
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

    def lcms(self, As: Sequence[int], Bs: Sequence[int]) -> List[int]:
        """Minimal generators of A ∩ B: the minimal b + max(a - b, 0)."""
        G, s = self.guards, self.width - 1
        out = []
        for a in As:
            aG = a | G
            for b in Bs:
                d = aG - b
                m = d & G
                out.append(b + (d & (m - (m >> s))))
        return self.minimal(out)


@functools.lru_cache(maxsize=32)
def shared_packing(nvars: int, width: int, order: Optional[MonomialOrder] = None,
                   eliminate: bool = False) -> Packing:
    """The packing of ``nvars`` fields of ``width`` bits from the one bounded
    table that the monomial kernels and the Buchberger engine share.  With
    an order, the packing carries its ``int_weights`` key for digits of
    ``width - 1`` bits; with eliminate, it packs one more variable last,
    ordered first."""
    key = () if order is None else order.int_weights(nvars, width - 1, eliminate)
    return Packing(nvars + eliminate, width, key)


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
        return self + (-other)

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

    def total_degree(self) -> int:
        return max((sum(e) for e in self.terms), default=0)

    def sorted_terms(self):
        """The terms, leading term first in the ring's order."""
        top = max((x for e in self.terms for x in e), default=0)
        weights = self.ring.order.int_weights(self.ring.nvars, top.bit_length())
        return sorted(self.terms.items(), reverse=True,
                      key=lambda t: sum(map(mul, weights, t[0])))

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
            neg = type(c) is not PrimeFieldElement and c < 0
            coef = str(-c if neg else c)
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

    This class derives the rest the same way for all of them: ``power``,
    ``contains_ideal``, ``equals``, ``gens_outside``, ``first_gen_outside``
    and ``reduction_index``.  A type overrides a method only where it knows
    more.
    """

    def power(self, n: int) -> "Ideal":
        """I^n, with I^0 the unit ideal, built once and kept on I."""
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

    def reduction_index(self, J: "Ideal", bound: int) -> Optional[int]:
        """The least n <= bound with J * I^n = I^{n+1}, or None.  A
        principal J = (g) is multiplied in as g * I^n, which is cheaper
        than a product of two ideals."""
        self._check(J)
        principal = len(J.gens) == 1
        for n in range(bound + 1):
            In = self.power(n)
            JIn = In.times(J.gens[0]) if principal else J * In
            if JIn.equals(self.power(n + 1)):
                return n
        return None

    def principal_reduction_index(self) -> Optional[int]:
        """An r with I^{r+1} = x * I^r for a regular x, or None when none is
        known (see ratliff_rush.rr_power)."""
        return None

    def check_regular(self) -> None:
        """Raise unless closure chains of I are meaningful: I must contain
        a non-zerodivisor.  Exponent-set ideals always do."""


class PowerLadder:
    """A view of the powers I^2, I^3, ... of one ideal I, each made once as
    I^{n-1} * I and kept on I itself, so they go away with I.  No power
    refers back to I."""

    __slots__ = ("_base",)

    def __init__(self, base: Ideal):
        self._base = base

    def power(self, n: int) -> Ideal:
        if n < 0:
            raise PreconditionError("negative power")
        I = self._base
        if n < 2:
            return I if n else I.unit()
        powers = I.__dict__.setdefault("_powers", [])  # I^2, I^3, ...
        while len(powers) < n - 1:
            powers.append((powers[-1] if powers else I) * I)
        return powers[n - 2]
