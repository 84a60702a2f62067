"""`rrlab compute` output pinned byte for byte.

Each program in tests/golden/ runs through `cli.main` in text and in JSON
and must print exactly the `.txt` and `.json` file recorded beside it.
Together the programs run every command of the language, over monomial
and polynomial ideals in QQ[X,Y], a prime field, a quotient ring, mixed
monomial and polynomial operands, a numerical semigroup and affine
semigroups, some on a single ray (numerical semigroups read in pairs, one
of them on a ray vector that is not primitive), with per-command
overrides of the chain settings.
"""

import pathlib

import pytest

from rrlab.cli import EXIT_OK, main
from rrlab.parser import COMMAND_SIGNATURES, Command, parse_program

GOLDEN = pathlib.Path(__file__).resolve().parent / "golden"
PROGRAMS = sorted(p.stem for p in GOLDEN.glob("*.rr"))


@pytest.mark.parametrize("fmt, suffix", [("text", ".txt"), ("json", ".json")])
@pytest.mark.parametrize("name", PROGRAMS)
def test_compute_output_is_pinned(name, fmt, suffix, capsys):
    code = main(["compute", str(GOLDEN / f"{name}.rr"), "--format", fmt])
    captured = capsys.readouterr()
    assert (code, captured.err) == (EXIT_OK, "")
    expected = (GOLDEN / f"{name}{suffix}").read_text(encoding="utf-8")
    assert captured.out == expected


def test_golden_programs_cover_every_command_and_ring_kind():
    commands, overrides, rings = set(), set(), set()
    for name in PROGRAMS:
        text = (GOLDEN / f"{name}.rr").read_text(encoding="utf-8")
        for st in parse_program(text).statements:
            if isinstance(st, Command):
                commands.add(st.name)
                overrides.update(key for key, _ in st.overrides)
            else:
                rings.add(type(st).__name__)
    assert commands == set(COMMAND_SIGNATURES)
    assert overrides == {"k_max", "window", "n_max"}
    assert {"RingDecl", "SemiringDecl", "AffineDecl"} <= rings

