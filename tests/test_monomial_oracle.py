"""Monomial kernels checked against brute force on random small ideals.

The oracles share no code with rrlab.monomial:

- ``minimalize`` against the pairwise definition: keep each distinct
  candidate that no other candidate divides;
- ``colon_single``, ``colon_monomial`` and ``intersect_monomial`` against
  enumeration of a box: m lies in A : B iff m*b lies in A for every
  generator b of B, and in A ∩ B iff it lies in both;
- ``colon_monomial`` with a floor F against the same box, where m lies in
  (A : B) + F iff it lies in F or in A : B, and against the plain colon
  plus F; also with exponents near 64 and 128, where the test of a running
  extra e against A reads e * b and needs a field twice as wide;
- the closure chains, whose steps pass the running value as the floor,
  against a reference chain written here with the plain colon;
- the canonical form: every ideal a public operation returns keeps its
  minimal generators, ascending, as the pairwise definition gives them;
- ``contains_ideal``, ``equals``, ``gens_outside`` and
  ``first_gen_outside``, which read the canonical generators, against the
  definitions on tuples: B lies in A iff some generator of A divides each
  generator of B, and A = B iff each lies in the other;
- products, sums and ``PowerLadder`` powers, which add and prune packed
  generators, against the pairwise products and unions of tuples, with
  exponents at the edges of the 8- and 16-bit field widths;
- ``core.Packing.minimal`` with a floor and repeated candidates: its
  two-field staircase sweep, its general path on the same values with a
  third, zero field, and the definition agree.

The box is the product, over the coordinates, of the values that can matter
there: 0, every exponent of A, B, F and the result, and every positive
difference a_i - b_i.  The minimal generators of the true answer and of the
computed one all have their coordinates among these values, so each one is a
point of the box, and two monomial ideals that agree on the box are equal.
With small exponents the box is a subset of the full box [0, top]^d; with
wide ones it stays small.  Skipped when hypothesis is not installed; rrlab
itself does not need it.
"""

from itertools import product

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from rrlab.core import Monomial, Packing, RingDescriptor  # noqa: E402
from rrlab.monomial import (MonomialIdeal, colon_monomial, colon_single,  # noqa: E402
                            integral_closure_monomial, intersect_monomial,
                            minimalize, variable_ideal)
from rrlab.ratliff_rush import (BoundReached, ClosureConfig, FailsAt,  # noqa: E402
                                Holds, StabilizedWindow, is_rr_closed,
                                rr_closure_via_reduction, rr_power)
from rrlab.reductions import is_reduction  # noqa: E402

# Largest exponent drawn per number of variables, so the box stays within
# about 1700 points.  One and two variables reach past the field widths
# 8, 9 and 10 that exponents 127, 128, 255 and 256 need.
TOP = {1: 300, 2: 40, 3: 10, 4: 5, 5: 3}


def _divides(a, b):
    return all(x <= y for x, y in zip(a, b))


def _in(gens, m):
    return any(_divides(g, m) for g in gens)


def _ring(nvars):
    return RingDescriptor([f"x{i}" for i in range(nvars)])


def _box(nvars, A, B, result):
    axes = []
    for i in range(nvars):
        values = {0}
        values.update(g[i] for g in A + B + result)
        values.update(a[i] - b[i] for a in A for b in B if a[i] > b[i])
        axes.append(sorted(values))
    return product(*axes)


def _check_generators(result):
    assert list(result) == sorted(set(result))
    for g in result:
        assert not any(h != g and _divides(h, g) for h in result)


def _check_colon(A, B, result):
    _check_generators(result)
    for m in _box(len(A[0]), A, B, result):
        expected = all(_in(A, tuple(x + y for x, y in zip(m, b))) for b in B)
        assert _in(result, m) == expected, m


def _check_floor_colon(A, B, F):
    """colon_monomial(A, B, floor=F) is (A : B) + F, and F itself exactly
    when A : B adds nothing to F."""
    plain = colon_monomial(A, B)
    got = colon_monomial(A, B, floor=F)
    assert got.gens == (plain + F).gens
    assert (got is F) == F.contains_ideal(plain)
    _check_generators(got.gens)
    for m in _box(len(A.gens[0]), A.gens, B.gens, got.gens + F.gens):
        expected = _in(F.gens, m) or all(
            _in(A.gens, tuple(x + y for x, y in zip(m, b))) for b in B.gens)
        assert _in(got.gens, m) == expected, m


def _check_intersection(A, B, result):
    _check_generators(result)
    for m in _box(len(A[0]), A, B, result):
        assert _in(result, m) == (_in(A, m) and _in(B, m)), m


def _check_all(A_gens, B_gens):
    ring = _ring(len(A_gens[0]))
    A = MonomialIdeal.from_gens(ring, A_gens)
    B = MonomialIdeal.from_gens(ring, B_gens)
    _check_colon(A.gens, B.gens, colon_monomial(A, B).gens)
    _check_intersection(A.gens, B.gens, intersect_monomial(A, B).gens)
    for b in B_gens:
        _check_colon(A.gens, (b,), colon_single(A, b).gens)


@st.composite
def _gen_lists(draw, nvars, max_size):
    exps = st.tuples(*[st.integers(0, TOP[nvars])] * nvars)
    return draw(st.lists(exps, min_size=1, max_size=max_size))


@st.composite
def _pairs(draw):
    nvars = draw(st.integers(1, 5))
    return draw(_gen_lists(nvars, 4)), draw(_gen_lists(nvars, 3))


@st.composite
def _floor_triples(draw):
    """(A, B, F): F random (so usually not inside A : B), the unit ideal,
    A itself, A : B itself, or generated by part of A : B."""
    nvars = draw(st.integers(1, 5))
    ring = _ring(nvars)
    A = MonomialIdeal.from_gens(ring, draw(_gen_lists(nvars, 4)))
    B = MonomialIdeal.from_gens(ring, draw(_gen_lists(nvars, 3)))
    kind = draw(st.sampled_from(["random", "unit", "A", "colon", "part"]))
    if kind == "random":
        F = MonomialIdeal.from_gens(ring, draw(_gen_lists(nvars, 3)))
    elif kind == "unit":
        F = MonomialIdeal.from_gens(ring, [(0,) * nvars])
    elif kind == "A":
        F = A
    else:
        C = colon_monomial(A, B).gens
        part = C if kind == "colon" else draw(
            st.lists(st.sampled_from(C), min_size=1, max_size=len(C)))
        F = MonomialIdeal.from_gens(ring, part)
    return A, B, F


@settings(max_examples=150, deadline=None, database=None, derandomize=True)
@given(st.integers(1, 5).flatmap(lambda n: _gen_lists(n, 12)))
def test_minimalize_matches_pairwise_definition(cands):
    distinct = set(cands)
    expected = sorted(c for c in distinct
                      if not any(d != c and _divides(d, c) for d in distinct))
    assert list(minimalize(cands)) == expected
    assert list(minimalize(iter(cands))) == expected


@settings(max_examples=150, deadline=None, database=None, derandomize=True)
@given(_pairs())
def test_colon_and_intersection_match_box_enumeration(pair):
    _check_all(*pair)


@settings(max_examples=200, deadline=None, database=None, derandomize=True)
@given(_floor_triples())
def test_floor_colon_matches_box_enumeration(triple):
    _check_floor_colon(*triple)


@st.composite
def _doubling_triples(draw):
    """(A, B, F) in three variables with exponents near 64 and 128, where
    the running extra e times a generator b of B needs one more field bit
    than the operands' largest exponent."""
    exps = st.one_of(st.integers(0, 3), st.integers(56, 72),
                     st.integers(120, 136))
    gens = st.lists(st.tuples(exps, exps, exps), min_size=1, max_size=3)
    ring = _ring(3)
    A = MonomialIdeal.from_gens(ring, draw(gens))
    B = MonomialIdeal.from_gens(ring, draw(gens))
    F = MonomialIdeal.from_gens(ring, draw(gens))
    return A, B, F


@settings(max_examples=100, deadline=None, database=None, derandomize=True)
@given(_doubling_triples())
def test_colon_near_doubled_field_width_matches_box_enumeration(triple):
    A, B, F = triple
    _check_colon(A.gens, B.gens, colon_monomial(A, B).gens)
    _check_floor_colon(A, B, F)


# Fixed cases at the edges of the packed field width, w = bit_length(top) + 1:
# tops 127 | 128 and 255 | 256 change w; 0 and 1 are the smallest fields.
EDGE_CASES = [
    # exponents 0, 1, 127, 128, 255, 256 on both sides
    ([(256, 0), (128, 127), (1, 255), (0, 256)], [(127, 1), (1, 128)]),
    ([(255, 0, 1), (127, 128, 0), (0, 1, 256)], [(128, 127, 0), (1, 0, 255)]),
    ([(127, 127), (128, 0)], [(127, 0), (0, 127)]),
    ([(255, 255)], [(255, 0), (0, 255), (128, 128)]),
    # B's exponents need a wider field than A's
    ([(3, 1), (1, 2)], [(256, 0), (0, 255)]),
    ([(2, 5, 1)], [(300, 1, 0), (0, 0, 129)]),
    ([(1, 1, 1, 1, 1)], [(128, 0, 0, 0, 0), (0, 0, 0, 0, 256)]),
    # one variable
    ([(5,)], [(3,)]),
    ([(128,)], [(127,)]),
    ([(255,)], [(256,)]),
    ([(0,)], [(256,)]),
    # single generators and the unit ideal
    ([(0, 0, 0)], [(4, 0, 2)]),
    ([(0, 0)], [(0, 0)]),
    ([(256, 1, 0), (0, 127, 128)], [(256, 1, 0), (0, 127, 128)]),
    ([(7, 3)], [(2, 9)]),
    ([(1, 0), (0, 1)], [(1, 1)]),
]


@pytest.mark.parametrize("A_gens,B_gens", EDGE_CASES)
def test_field_width_edges(A_gens, B_gens):
    _check_all(A_gens, B_gens)
    _check_all(B_gens, A_gens)


def _edge_floors(A_gens, B_gens):
    nvars = len(A_gens[0])
    wide = [tuple(256 if i == j else 0 for i in range(nvars)) for j in range(nvars)]
    return [A_gens, B_gens, [(0,) * nvars], wide, [(128,) * nvars],
            [(1,) * nvars]]


@pytest.mark.parametrize("A_gens,B_gens", EDGE_CASES)
def test_floor_colon_field_width_edges(A_gens, B_gens):
    ring = _ring(len(A_gens[0]))
    A = MonomialIdeal.from_gens(ring, A_gens)
    B = MonomialIdeal.from_gens(ring, B_gens)
    for F_gens in _edge_floors(A_gens, B_gens):
        F = MonomialIdeal.from_gens(ring, F_gens)
        _check_floor_colon(A, B, F)
        _check_floor_colon(B, A, F)


# ---------------------------------------------------------------------------
# closure chains against a reference chain on the plain colon


def _reference_chain(start, colons, cfg):
    """The ascending chain driver, written out: union colons(k) into start
    until cfg.window consecutive steps add nothing."""
    acc, growth, quiet = start, [], 0
    for k in range(1, cfg.k_max + 1):
        cand = colons(k)
        if acc.contains_ideal(cand):
            quiet += 1
            if quiet >= cfg.window:
                return acc.gens, StabilizedWindow(k, cfg.window), tuple(growth)
        else:
            acc = acc + cand
            growth.append(k)
            quiet = 0
    return acc.gens, BoundReached(cfg.k_max), tuple(growth)


def _reference_is_rr_closed(I, cfg):
    for k in range(1, cfg.k_max + 1):
        cand = colon_monomial(I.power(1 + k), I.power(k))
        outside = [g for g in cand.gens if not I.contains(g)]
        if outside:
            return FailsAt(k, Monomial(I.ring, outside[0]))
    return Holds(cfg.k_max)


def _chain_results(result):
    return result.value.gens, result.status, result.growth_steps


@st.composite
def _chain_ideals(draw):
    """Small ideals in two or three variables; in two, also the family
    (X^a, X^(a-1)*Y, X*Y^(b-1), Y^b), whose chains often grow, and whose
    pure powers are a reduction when a = b."""
    nvars = draw(st.integers(2, 3))
    if nvars == 2 and draw(st.booleans()):
        a = draw(st.integers(3, 7))
        b = draw(st.one_of(st.just(a), st.integers(3, 7)))
        gens = [(a, 0), (a - 1, 1), (1, b - 1), (0, b)]
    else:
        top = 6 if nvars == 2 else 3
        exps = st.tuples(*[st.integers(0, top)] * nvars).filter(any)
        gens = draw(st.lists(exps, min_size=1, max_size=4))
    return MonomialIdeal.from_gens(_ring(nvars), gens)


@settings(max_examples=60, deadline=None, database=None, derandomize=True)
@given(_chain_ideals(), st.integers(1, 2), st.integers(2, 3))
def test_chains_match_plain_colon_reference(I, n, window):
    cfg = ClosureConfig(k_max=6, window=window, n_max=4)

    def power_colons(k):
        return colon_monomial(I.power(n + k), I.power(k))

    # the pure powers among I's generators when they form a reduction of
    # I, else I itself, which always does
    pure = [g for g in I.gens if sum(map(bool, g)) == 1]
    J = MonomialIdeal.from_gens(I.ring, pure) if pure else I
    if not isinstance(is_reduction(I, J, cfg), Holds):
        J = I

    def reduction_colons(k):
        return colon_monomial(I.power(n + k), MonomialIdeal.from_gens(
            I.ring, [tuple(k * x for x in g) for g in J.gens]))

    assert _chain_results(rr_power(I, n, cfg)) == _reference_chain(
        I.power(n), power_colons, cfg)
    assert _chain_results(rr_closure_via_reduction(I, J, n, cfg)) == \
        _reference_chain(I.power(n), reduction_colons, cfg)
    assert is_rr_closed(I, cfg) == _reference_is_rr_closed(I, cfg)


# ---------------------------------------------------------------------------
# canonical generators, and the containment and equality read off them


def _canonical(gens):
    """The minimal generators of the ideal gens generate, ascending: the
    distinct ones that no other one divides."""
    distinct = set(gens)
    return tuple(sorted(g for g in distinct
                        if not any(h != g and _divides(h, g) for h in distinct)))


def _mul(a, b):
    return tuple(x + y for x, y in zip(a, b))


def _check_canonical(A, B, F):
    """Every public operation on A, B and F returns its minimal generators,
    ascending; where the generators follow from the operands' alone, they
    are those."""
    ring, e, nvars = A.ring, B.gens[-1], A.ring.nvars
    built = {
        "from_gens": (MonomialIdeal.from_gens(ring, A.gens + B.gens),
                      A.gens + B.gens),
        "+": (A + B, A.gens + B.gens),
        "*": (A * B, [_mul(a, b) for a in A.gens for b in B.gens]),
        "times": (A.times(e), [_mul(e, a) for a in A.gens]),
        "gen_powers": (A.gen_powers(3), [tuple(3 * x for x in a)
                                         for a in A.gens]),
        "unit": (A.unit(), [(0,) * nvars]),
        "power 0": (A.power(0), [(0,) * nvars]),
        "variable_ideal": (variable_ideal(ring),
                           [tuple(int(i == j) for i in range(nvars))
                            for j in range(nvars)]),
    }
    for name, (got, gens) in built.items():
        assert got.gens == _canonical(gens), name
    for name, got in {"colon": A.colon(B), "colon floor": A.colon(B, floor=F),
                      "intersect": A.intersect(B), "power 2": A.power(2),
                      "power 3": B.power(3)}.items():
        assert got.gens == _canonical(got.gens), name


def _check_containment(A, B):
    """contains_ideal, equals, gens_outside and first_gen_outside of A and B,
    both ways round, against the tuple definitions."""
    for X, Y in ((A, B), (B, A)):
        outside = tuple(g for g in X.gens if not _in(Y.gens, g))
        inside = all(_in(X.gens, g) for g in Y.gens)
        around = all(_in(Y.gens, g) for g in X.gens)
        assert X.contains_ideal(Y) == inside
        assert X.equals(Y) == (inside and around)
        got = tuple(X.gens_outside(Y))
        assert all(isinstance(m, Monomial) for m in got)
        assert tuple(m.exps for m in got) == outside
        first = X.first_gen_outside(Y)
        assert (first and first.exps) == (outside[0] if outside else None)


@st.composite
def _related_pairs(draw):
    """(A, B): B random, an equal ideal generated differently, one inside A
    (A * C, A ∩ C, e * A, A with one generator moved up) or one around A
    (A + C)."""
    nvars = draw(st.integers(1, 5))
    ring = _ring(nvars)
    A = MonomialIdeal.from_gens(ring, draw(_gen_lists(nvars, 4)))
    C = MonomialIdeal.from_gens(ring, draw(_gen_lists(nvars, 3)))
    e = draw(st.sampled_from(C.gens))
    kind = draw(st.sampled_from(
        ["random", "equal", "product", "intersect", "times", "moved", "sum"]))
    if kind == "random":
        B = C
    elif kind == "equal":
        B = MonomialIdeal.from_gens(
            ring, list(A.gens) + [_mul(a, e) for a in A.gens])
    elif kind == "product":
        B = A * C
    elif kind == "intersect":
        B = A.intersect(C)
    elif kind == "times":
        B = A.times(e)
    elif kind == "moved":
        i = draw(st.integers(0, len(A.gens) - 1))
        j = draw(st.integers(0, nvars - 1))
        up = tuple(x + (k == j) for k, x in enumerate(A.gens[i]))
        B = MonomialIdeal.from_gens(ring, A.gens[:i] + (up,) + A.gens[i + 1:])
    else:
        B = A + C
    return A, B


@settings(max_examples=150, deadline=None, database=None, derandomize=True)
@given(_floor_triples())
def test_operations_return_canonical_generators(triple):
    _check_canonical(*triple)


@settings(max_examples=40, deadline=None, database=None, derandomize=True)
@given(st.integers(2, 3).flatmap(lambda n: st.lists(
    st.tuples(*[st.integers(0, 4)] * n), min_size=1, max_size=3)))
def test_integral_closure_returns_canonical_generators(gens):
    got = integral_closure_monomial(MonomialIdeal.from_gens(
        _ring(len(gens[0])), gens))
    assert got.gens == _canonical(got.gens)


@settings(max_examples=300, deadline=None, database=None, derandomize=True)
@given(_related_pairs())
def test_containment_and_equality_match_tuple_definitions(pair):
    _check_containment(*pair)


@pytest.mark.parametrize("A_gens,B_gens", EDGE_CASES)
def test_containment_field_width_edges(A_gens, B_gens):
    ring = _ring(len(A_gens[0]))
    A = MonomialIdeal.from_gens(ring, A_gens)
    B = MonomialIdeal.from_gens(ring, B_gens)
    for X, Y in ((A, B), (A, A + B), (A, A.intersect(B)), (A, A * B),
                 (B, colon_monomial(A, B))):
        _check_containment(X, Y)


# ---------------------------------------------------------------------------
# products, sums and powers on packed generators


# Exponents on both sides of the field widths: a width-8 field holds up to
# 127 and a width-16 one up to 32767, and products and powers add them.
WIDTH_EDGES = (0, 1, 2, 7, 8, 15, 16, 63, 64, 127, 128, 255, 256)


@st.composite
def _edge_ideals(draw):
    nvars = draw(st.integers(1, 5))
    exps = st.tuples(*[st.sampled_from(WIDTH_EDGES)] * nvars)
    ring = _ring(nvars)
    A, B = (MonomialIdeal.from_gens(ring, draw(st.lists(exps, min_size=1,
                                                         max_size=size)))
            for size in (4, 3))
    return A, B


def _products(*gen_sets):
    """Every product of one generator from each set, on tuples."""
    return [tuple(map(sum, zip(*gens))) for gens in product(*gen_sets)]


@settings(max_examples=150, deadline=None, database=None, derandomize=True)
@given(_edge_ideals())
def test_products_sums_and_powers_match_pairwise_definitions(pair):
    A, B = pair
    assert (A * B).gens == _canonical(_products(A.gens, B.gens))
    assert (B * A).gens == (A * B).gens
    assert (A + B).gens == _canonical(A.gens + B.gens)
    assert (A + A).gens == A.gens
    for n in range(1, 5):
        assert A.power(n).gens == _canonical(_products(*[A.gens] * n)), n
    # a power made at one width, then summed and multiplied at a wider one
    assert (A.power(3) + B).gens == _canonical(A.power(3).gens + B.gens)
    assert (A.power(2) * B.power(2)).gens == _canonical(
        _products(A.gens, A.gens, B.gens, B.gens))


def _minimal_by_definition(values, floor):
    """The distinct values that no floor member and no other value divides,
    ascending, on tuples."""
    vs = set(values)
    return sorted(v for v in vs if not _in(floor, v)
                  and not any(u != v and _divides(u, v) for u in vs))


@settings(max_examples=300, deadline=None, database=None, derandomize=True)
@given(st.lists(st.tuples(st.integers(0, 6), st.integers(0, 6)), max_size=12),
       st.lists(st.tuples(st.integers(0, 6), st.integers(0, 6)), max_size=4),
       st.sampled_from([4, 8]))
def test_packing_minimal_sweep_general_path_and_definition_agree(
        values, floor, width):
    """Repeated values, and floor members equal to values, are common here:
    the lists draw from 49 points."""
    values = values + values[: len(values) // 2]
    expected = _minimal_by_definition(values, floor)
    two = Packing(2, width)
    swept = two.minimal(map(two.pack, values), [two.pack(f) for f in floor])
    assert [two.unpack(p) for p in swept] == expected
    # the general path, on the same values with a third field held at 0
    three = Packing(3, width)
    general = three.minimal([three.pack(v + (0,)) for v in values],
                            [three.pack(f + (0,)) for f in floor])
    assert [three.unpack(p)[:2] for p in general] == expected


def test_one_ideal_serves_packs_of_two_widths():
    """A is first packed at width 8 (a product and a containment test),
    then a colon by B needs fields for 100 + 100, so width 16; both packs
    stay on A and both answers are right."""
    ring = _ring(2)
    A = MonomialIdeal.from_gens(ring, [(100, 0), (60, 30), (0, 100)])
    B = MonomialIdeal.from_gens(ring, [(0, 100), (1, 1)])
    small = MonomialIdeal.from_gens(ring, [(2, 1), (0, 3)])
    assert (A * small).gens == _canonical(_products(A.gens, small.gens))
    assert A.contains_ideal(A * small)
    colon = colon_monomial(A, B)
    _check_colon(A.gens, B.gens, colon.gens)
    assert (A * small).gens == _canonical(_products(A.gens, small.gens))
    assert sorted(A.__dict__["_packs"]) == [8, 16]
