"""One ideal protocol: the Python API and the CLI pick the same closure.

Every ideal type implements the methods the closure engine calls, and
`rr_power` alone decides when a chain can stop exactly, so a closure asked
for through the API and through `rrlab compute` must agree on every ring
kind.
"""

import json
import random
import weakref

import pytest

from rrlab import (DEFAULT_CONFIG, AffineIdeal, AffineSemigroup2D,
                   IdealHandle, MonomialIdeal, NumericalSemigroup,
                   PowerLadder, RingDescriptor, SemigroupIdeal,
                   parse_polynomial, parse_program, rr_closure, rr_power)
from rrlab.cli import Session, main, run_command
from rrlab.monomial import integral_closure_monomial
from rrlab.parser import Command
from test_newton_oracle import closure_by_simplex


def _session_and_commands(text):
    session = Session()
    commands = []
    for st in parse_program(text).statements:
        if isinstance(st, Command):
            commands.append(st)
        else:
            session.declare(st)
    return session, commands


def test_semigroup_closure_takes_the_exact_path(tmp_path, capsys):
    text = "semiring S = <6, 7, 8>;\nideal I = (t^6, t^7, t^16);\nrr_closure I;\n"
    S = NumericalSemigroup([6, 7, 8])
    I = SemigroupIdeal.from_gens(S, [6, 7, 16])
    res = rr_closure(I)
    assert res.value.gens == (6, 7, 8)

    path = tmp_path / "prog.rr"
    path.write_text(text)
    assert main(["compute", str(path), "--format", "json"]) == 0
    [frag] = json.loads(capsys.readouterr().out)["commands"]
    del frag["command"], frag["config"]
    assert frag == res.to_dict()


PROGRAMS = {
    "monomial": "ring R = QQ[X, Y];\nideal I = (X^4, X^3*Y, X*Y^3, Y^4);\n",
    "handle": "ring R = QQ[X, Y];\nideal I = (X^2 - Y^3, X*Y);\n",
    "semiring": "semiring S = <4, 5, 11>;\nideal I = (t^4, t^5, t^11);\n",
    "affine": ("affine A = <(1,0), (0,2), (0,7), (2,5), (3,1)>;\n"
               "ideal I = ((1,0), (0,2));\n"),
}


@pytest.mark.parametrize("kind", sorted(PROGRAMS))
def test_api_and_cli_agree_on_every_ring_kind(kind):
    session, commands = _session_and_commands(
        PROGRAMS[kind] + "rr_closure I;\nrr_power I 2;\n")
    I = session.ideals["I"]
    api = [rr_closure(I, DEFAULT_CONFIG), rr_power(I, 2, DEFAULT_CONFIG)]
    for cmd, res in zip(commands, api):
        frag = run_command(cmd, DEFAULT_CONFIG, session.arguments(cmd))
        del frag["command"], frag["config"]
        assert frag == res.to_dict()


def test_handle_colon_with_a_floor(monkeypatch):
    R = RingDescriptor(("X", "Y"))
    A = IdealHandle(R, [parse_polynomial(R, t)
                        for t in ("X^3", "X^2*Y + Y^3", "Y^4")])
    B = IdealHandle(R, [parse_polynomial(R, t) for t in ("Y", "X")])
    plain = A.colon(B)
    # Y comes first of the two degree-one generators; A : Y contains A : B
    floor = A.colon_element(B.gens[0])
    assert A.colon(B, floor=floor) is floor

    calls = []
    colon_element = IdealHandle.colon_element
    monkeypatch.setattr(IdealHandle, "colon_element",
                        lambda self, b: calls.append(b) or colon_element(self, b))
    # A lies in A : B but not the other way: the colon comes back whole,
    # and the part tried first against the floor is not computed again
    got = A.colon(B, floor=A)
    assert got is not A and got.equals(plain)
    assert sorted(map(str, calls)) == ["X", "Y"]


def test_power_ladder_lives_on_its_ideal():
    R = RingDescriptor(("X", "Y"))
    I = MonomialIdeal.from_gens(R, [(3, 0), (1, 1), (0, 3)])
    assert PowerLadder(I).power(4) is I.power(4)
    ref = weakref.ref(I.power(4))
    assert ref() is not None  # kept by I
    del I
    assert ref() is None  # gone with I, without waiting for the collector


def _fresh_ideal(kind):
    """A new ideal of each type, so that no power of it is cached yet."""
    if kind == "monomial":
        return MonomialIdeal.from_gens(RingDescriptor(("X", "Y")),
                                       [(3, 0), (1, 1), (0, 3)])
    if kind == "handle":
        R = RingDescriptor(("X", "Y"))
        return IdealHandle(R, [parse_polynomial(R, t)
                               for t in ("X^2 - Y^3", "X*Y", "X + Y^2")])
    if kind == "semiring":
        return SemigroupIdeal.from_gens(NumericalSemigroup([4, 5, 11]),
                                        [4, 5, 11])
    S = AffineSemigroup2D([(1, 0), (0, 2), (0, 7), (2, 5), (3, 1)])
    return AffineIdeal.from_gens(S, [(1, 0), (0, 2)])


@pytest.mark.parametrize("kind", sorted(PROGRAMS))
def test_power_is_the_product_built_by_hand(kind):
    I = _fresh_ideal(kind)
    assert I.power(0).gens == I.unit().gens
    by_hand = I
    for n in range(1, 6):
        assert I.power(n).gens == by_hand.gens
        by_hand = by_hand * I


@pytest.mark.parametrize("kind", sorted(PROGRAMS))
def test_each_power_is_built_once(kind, monkeypatch):
    I = _fresh_ideal(kind)
    calls = []
    mul = type(I).__mul__
    monkeypatch.setattr(type(I), "__mul__",
                        lambda self, other: calls.append(1) or mul(self, other))
    fifth = I.power(5)
    I.power(3)
    assert I.power(5) is fifth
    assert len(calls) == 4  # I^2, ..., I^5, one product each


def test_cli_product_of_an_ideal_with_itself_is_its_square(tmp_path, capsys):
    path = tmp_path / "prog.rr"
    path.write_text("ring R = QQ[X, Y];\nideal I = (X + Y, X - Y);\n"
                    "product I I;\npower I 2;\n")
    assert main(["compute", str(path), "--format", "json"]) == 0
    product, power = json.loads(capsys.readouterr().out)["commands"]
    assert product["value"] == power["value"]
    assert power["value"].count(",") == 2  # three distinct generators


MIXED = """ring R = QQ[X, Y];
ideal I = (X^2, X*Y, Y^2);
ideal J = (X^2 + X*Y, Y^2);
ideal K = (X + Y);
colon I J;
colon I K;
colon K I;
intersect I J;
sum I J;
product I J;
is_reduction I J;
reduction_number I J;
rr_reduction_number I J;
rr_via_reduction I J 1;
"""


def test_cli_promotes_mixed_ideal_types(tmp_path, capsys):
    session, commands = _session_and_commands(MIXED)
    assert isinstance(session.ideals["I"], MonomialIdeal)
    assert isinstance(session.ideals["J"], IdealHandle)
    session.ideals["I"] = IdealHandle.from_monomial(session.ideals["I"])
    as_handles = [run_command(cmd, DEFAULT_CONFIG, session.arguments(cmd))
                  for cmd in commands]

    path = tmp_path / "prog.rr"
    path.write_text(MIXED)
    assert main(["compute", str(path), "--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out)["commands"] == as_handles


def test_integral_closure_matches_full_box_scan():
    rng = random.Random(7)
    for _ in range(40):
        nvars = rng.choice((2, 3))
        R = RingDescriptor(("X", "Y", "Z")[:nvars])
        top = 6 if nvars == 2 else 4
        # pure powers of all but maybe one variable, so that most closures
        # gain points, and a few mixed generators
        gens = [tuple(rng.randint(1, top) if j == i else 0
                      for j in range(nvars))
                for i in range(nvars) if rng.random() < 0.85]
        gens += [tuple(rng.randint(0, top) for _ in range(nvars))
                 for _ in range(rng.randint(1, 2))]
        gens = [g for g in gens if any(g)] or [(1,) + (0,) * (nvars - 1)]
        I = MonomialIdeal.from_gens(R, gens)
        assert integral_closure_monomial(I).gens == closure_by_simplex(I).gens
