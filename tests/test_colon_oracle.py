"""IdealHandle.colon against a reference that eliminates for every generator.

The colon by B = (b_1, ..., b_d) skips the elimination for a generator b
when the colon found so far already lies in A : b, and returns the reduced
basis of the colon whichever generators it skipped.  The reference written
here always runs ``colon_element`` for every b_i and folds the parts with
``intersect``, whose t-free basis is the reduced basis of the colon; with a
floor it takes the floor itself when the floor contains the probe's colon.
The two must return the same generator list, not just the same ideal.

The divisors have 2 or 3 generators, and A is built so that skips happen
and do not always happen; the floors lie inside A : B.  The rings are
QQ[X, Y], F_7[X, Y] and the quotient ring of tests/golden/quot.rr.
Derandomized, with no example database; skipped when hypothesis is not
installed.
"""

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from rrlab.core import Field, Polynomial, RingDescriptor  # noqa: E402
from rrlab.groebner import IdealHandle  # noqa: E402
from rrlab.parser import parse_polynomial  # noqa: E402

_QUOTIENT_BASE = RingDescriptor(("X", "Z", "U"))
RINGS = (
    RingDescriptor(("X", "Y")),
    RingDescriptor(("X", "Y"), Field(7)),
    _QUOTIENT_BASE.with_quotient([parse_polynomial(_QUOTIENT_BASE, t)
                                  for t in ("Z^2", "Z*U", "X*Z - U^3")]),
)


@st.composite
def _problems(draw):
    """A ring, B = (b_1, b_2) or (b_1, b_2, b_3) with b_3 drawn afresh or a
    multiple of b_1, A = (l, b_1 * p) with l of degree 1, and picks for a
    floor.  A : b_1 holds p and l, so the colon by the first generator
    often starts with a generator of A, and the others decide a skip."""
    ring = draw(st.sampled_from(RINGS))

    def poly(degree, linear=False):
        exps = st.tuples(*[st.integers(0, degree)] * ring.nvars).filter(
            lambda e: sum(e) <= degree)
        terms = draw(st.dictionaries(exps, st.integers(-3, 3).filter(bool),
                                     min_size=1, max_size=2).filter(
            lambda t: not linear or any(sum(e) for e in t)))
        return Polynomial(ring, {e: ring.field.from_int(c)
                                 for e, c in terms.items()})

    B = [poly(3), poly(3)]
    if draw(st.booleans()):
        B.append(B[0] * poly(3) if draw(st.booleans()) else poly(3))
    A = [poly(1, linear=True), B[0] * poly(3)]
    return ring, A, B, draw(st.lists(st.integers(0, 7), max_size=3))


def _reference(A, B, floor=None):
    """A : B, eliminating for every generator of B; with a floor, the
    floor itself when it contains the colon by the probe, the generator
    of least (total degree, term count)."""
    parts = [A.colon_element(b) for b in B.gens]
    if floor is not None:
        probe = min(range(len(B.gens)), key=lambda i: (
            B.gens[i].total_degree(), len(B.gens[i].terms)))
        if floor.contains_ideal(parts[probe]):
            return floor
    result = parts[0]
    for part in parts[1:]:
        result = result.intersect(part)
    return result


@settings(max_examples=100, deadline=None, database=None, derandomize=True)
@given(_problems())
def test_colon_matches_eliminating_reference(problem):
    ring, a_gens, b_gens, picks = problem
    A, B = IdealHandle(ring, a_gens), IdealHandle(ring, b_gens)
    want = _reference(A, B)
    assert A.colon(B).gens == want.gens
    # a floor inside A : B: A and some generators of the colon
    floor = IdealHandle(ring, list(A.gens) + [
        want.gens[i % len(want.gens)] for i in picks if want.gens])
    got, ref = A.colon(B, floor), _reference(A, B, floor)
    if ref is floor:
        assert got is floor
    else:
        assert got.gens == ref.gens
