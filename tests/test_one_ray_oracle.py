"""One-ray affine rings against numerical semigroups, through `rrlab compute`.

A plane affine semigroup on one ray is a numerical semigroup read in pairs:
with v the largest point of the ray dividing every generator, <z_1*v, ...,
z_n*v> is <z_1, ..., z_n>.  The same ideals declared both ways must give the
same closures, reduction numbers and statuses once the pairs z*v are read
back as t^z.  A second check keeps the two-ray backend beside the others:
m-primary monomial ideals of k[X, Y], the ring of <(1,0), (0,1)>, close to
the same ideal as MonomialIdeal, IdealHandle and AffineIdeal.
"""

import json
import random
import re
from math import gcd

import pytest

from rrlab.cli import EXIT_OK, main
from rrlab.core import RingDescriptor
from rrlab.groebner import IdealHandle
from rrlab.monomial import MonomialIdeal
from rrlab.ratliff_rush import rr_closure
from rrlab.semigroup import AffineIdeal, AffineSemigroup2D

# ray vectors v, three of them not primitive
RAYS = [(0, 1), (1, 0), (1, 1), (1, 2), (0, 2), (3, 3), (2, 4)]
COMMANDS = ("rr_closure I;\nrr_power I 2;\nrr_reduction_number I J;\n"
            "s_invariant I;\n")


def _run(tmp_path, capsys, text):
    path = tmp_path / "prog.rr"
    path.write_text(text)
    assert main(["compute", str(path), "--format", "json"]) == EXIT_OK
    return json.loads(capsys.readouterr().out)["commands"]


def _both_ways(tmp_path, capsys, gens, ideal, ray):
    """The fragments of COMMANDS on the ideal I of <gens>, with J = (t^x)
    for x = min I, declared as a numerical semigroup and on the ray; the
    affine values rewritten in t-exponents."""
    a, b = ray

    def pairs(zs):
        return ", ".join(f"({z * a},{z * b})" for z in zs)

    numerical = _run(tmp_path, capsys, (
        f"semiring S = <{', '.join(map(str, gens))}>;\n"
        f"ideal I = ({', '.join(f't^{z}' for z in ideal)});\n"
        f"ideal J = (t^{min(ideal)});\n" + COMMANDS))
    affine = _run(tmp_path, capsys, (
        f"affine A = <{pairs(gens)}>;\nideal I = ({pairs(ideal)});\n"
        f"ideal J = ({pairs([min(ideal)])});\n" + COMMANDS))
    for frag in affine:
        if isinstance(frag["value"], str):
            frag["value"] = "(" + ", ".join(
                f"t^{(int(x) + int(y)) // (a + b)}" for x, y in
                re.findall(r"\((\d+), (\d+)\)", frag["value"])) + ")"
    return numerical, affine


def test_motivating_ideal_closes_alike_on_the_ray(tmp_path, capsys):
    """The quiet window once stopped the one-ray chain at k = 5, before the
    closure grows at k = 7."""
    numerical, affine = _both_ways(tmp_path, capsys, [9, 13, 16, 19],
                                   [25, 26], (0, 1))
    assert affine == numerical
    closure, _, reduction, _ = affine
    assert closure["value"] == "(t^25, t^26, t^27, t^28, t^29, t^31, t^32)"
    assert (closure["k"], closure["growth_steps"]) == (8, [1, 2, 7])
    assert reduction["value"] == 2


def _random_case(rng):
    """2-4 coprime generators in 3..25, and 1-3 members below 40 of the
    semigroup they generate as the ideal's generators."""
    gens = [4, 6]
    while gcd(*gens) != 1:
        gens = sorted(rng.sample(range(3, 26), rng.randint(2, 4)))
    members = [0]
    for z in range(1, 40):
        if any(z - g in members for g in gens):
            members.append(z)
    k = rng.randint(1, min(3, len(members) - 1))
    return gens, sorted(rng.sample(members[1:], k))


@pytest.mark.parametrize("seed", range(10))
def test_one_ray_ring_agrees_with_its_numerical_semigroup(tmp_path, capsys,
                                                          seed):
    rng = random.Random(seed)
    for i in range(10):
        gens, ideal = _random_case(rng)
        ray = RAYS[(seed * 10 + i) % len(RAYS)]
        numerical, affine = _both_ways(tmp_path, capsys, gens, ideal, ray)
        assert affine == numerical, (gens, ideal, ray)


def _exponent_set(I):
    """The minimal generators of a closure value as exponent pairs."""
    if isinstance(I, IdealHandle):
        I = I.to_monomial_ideal()
    return tuple(sorted(map(tuple, I.gens)))


def test_plane_backends_agree_on_monomial_closures():
    rng = random.Random(0)
    R = RingDescriptor(("X", "Y"))
    S = AffineSemigroup2D([(1, 0), (0, 1)])
    for _ in range(60):
        a, b = rng.randint(1, 6), rng.randint(1, 6)
        gens = [(a, 0), (0, b)] + [(rng.randint(0, a), rng.randint(0, b))
                                   for _ in range(rng.randint(0, 3))]
        gens = [g for g in gens if any(g)]
        ideals = [MonomialIdeal.from_gens(R, gens),
                  IdealHandle.from_monomial(MonomialIdeal.from_gens(R, gens)),
                  AffineIdeal.from_gens(S, gens)]
        closures = [rr_closure(I) for I in ideals]
        first = closures[0]
        for c in closures[1:]:
            assert _exponent_set(c.value) == _exponent_set(first.value), gens
            assert c.status == first.status, gens
