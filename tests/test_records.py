"""The value types: frozen, equal by class and compared fields, hashable,
with dataclass-style reprs; and what importing the CLI costs."""

import importlib
import os
import pathlib
import re
import subprocess
import sys

import pytest

from rrlab.cli import EXIT_USAGE, main
from rrlab.core import (Field, MonomialOrder, PrimeFieldElement, Record,
                        RingDescriptor)
from rrlab.corpus import _CASES, run_corpus
from rrlab.errors import PreconditionError
from rrlab.monomial import MonomialIdeal
from rrlab.parser import RingDecl, SemiringDecl, Token, parse_program
from rrlab.ratliff_rush import (BoundReached, ClosureConfig, ClosureResult,
                                FailsAt, Holds, Member, NotMemberUpTo,
                                RRDefect, StabilizedWindow)
from rrlab.reductions import EquivalenceReport, ReductionReport
from rrlab.semigroup import (AffineIdeal, AffineSemigroup2D,
                             NumericalSemigroup, SemigroupIdeal)

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"

PROGRAM = "ring R = QQ[X,Y]; ideal I = (X^2, Y); rr_closure I k_max = 4;"
SPACED = """
ring   R = QQ[ X , Y ] ;

  ideal I = ( X^2 ,Y ) ;
rr_closure   I   k_max = 4 ;
"""
SEMIGROUP_PROGRAM = "semiring S = <3, 5>; affine A = <(1,0), (0,1)>;"


def _ring():
    return RingDescriptor(["X", "Y"])


def _instances():
    """(record, one of its fields) for each concrete value type."""
    R = _ring()
    I = MonomialIdeal.from_gens(R, [(2, 0), (0, 1)])
    E = SemigroupIdeal.from_gens(NumericalSemigroup([3, 5]), [3])
    A = AffineIdeal.from_gens(AffineSemigroup2D([(1, 0), (0, 1)]), [(1, 0)])
    prog = parse_program(PROGRAM)
    ring_decl, ideal_decl, command = prog.statements
    semiring_decl, affine_decl = parse_program(SEMIGROUP_PROGRAM).statements
    return [
        (PrimeFieldElement(1, 7), "residue"),
        (R, "variables"),
        (Field(7), "characteristic"),
        (MonomialOrder("lex"), "kind"),
        (RRDefect(I, 0, ClosureResult(I, BoundReached(5), ()), I, I, ()),
         "representatives"),
        (I, "gens"),
        (E, "v"),
        (A, "gens"),
        (Token("int", "3", 1, 1), "value"),
        (ring_decl, "name"),
        (ring_decl, "line"),
        (semiring_decl, "gens"),
        (affine_decl, "gens"),
        (ideal_decl, "gens"),
        (command, "overrides"),
        (prog, "statements"),
        (ClosureConfig(), "window"),
        (StabilizedWindow(3, 2), "k"),
        (BoundReached(5), "k_max"),
        (ClosureResult(I, BoundReached(5), ()), "value"),
        (Member(1), "k"),
        (NotMemberUpTo(4), "k_max"),
        (Holds(3), "bound"),
        (FailsAt(3), "witness"),
        (ReductionReport(I, I, 2, 0, "e", 0, "e", 0, "e"), "r"),
        (EquivalenceReport(0, True, True, True, "e"), "cond_b"),
        (_CASES["EX-1.2"], "note"),
    ]


def test_equal_by_class_and_fields():
    assert Holds(3) == Holds(3)
    assert hash(Holds(3)) == hash(Holds(3))
    assert Holds(3) != Holds(4)
    assert Holds(3) != Member(3)
    assert Member(3) != Holds(3)
    assert FailsAt(3) == FailsAt(3, None)
    assert hash(FailsAt(3)) == hash(FailsAt(3, None))
    assert FailsAt(3) != FailsAt(3, "X")
    assert len({Holds(3), Holds(3), Member(3), NotMemberUpTo(3)}) == 3
    assert ClosureConfig(k_max=12) == ClosureConfig()
    for obj, _ in _instances():
        assert obj == obj and hash(obj) == hash(obj)


@pytest.mark.parametrize("obj, name", _instances(),
                         ids=lambda x: x if isinstance(x, str) else
                         type(x).__name__)
def test_fields_are_frozen(obj, name):
    before = getattr(obj, name)
    with pytest.raises(AttributeError):
        setattr(obj, name, 1)
    with pytest.raises(AttributeError):
        delattr(obj, name)
    with pytest.raises(AttributeError):
        obj.not_a_field = 1
    assert getattr(obj, name) is before


def test_reprs_are_pinned():
    assert repr(ClosureConfig()) == "ClosureConfig(k_max=12, window=3, n_max=8)"
    assert repr(FailsAt(3)) == "FailsAt(n=3, witness=None)"
    I = MonomialIdeal.from_gens(_ring(), [(2, 0), (0, 1)])
    assert repr(I) == "MonomialIdeal(ring=QQ[X,Y], gens=((0, 1), (2, 0)))"
    assert [repr(s) for s in parse_program(PROGRAM).statements] == [
        "RingDecl(line=1, col=1, name='R', field_char=0,"
        " variables=('X', 'Y'), quotient=())",
        "IdealDecl(line=1, col=19, name='I',"
        " gens=(('^', ('var', 'X'), 2), ('var', 'Y')))",
        "Command(line=1, col=39, name='rr_closure', args=(('ident', 'I'),),"
        " overrides=(('k_max', 4),))",
    ]


def test_statement_positions_are_not_compared():
    tight = parse_program(PROGRAM)
    spaced = parse_program(SPACED)
    assert tight == spaced and hash(tight) == hash(spaced)
    for a, b in zip(tight.statements, spaced.statements):
        assert a == b and hash(a) == hash(b)
        assert (a.line, a.col) != (b.line, b.col)
    moved = RingDecl("R", 0, ("X", "Y"), (), line=9, col=9)
    assert moved == tight.statements[0] and moved.line == 9
    assert RingDecl("S", 0, ("X", "Y"), ()) != moved


def test_config_validation_runs_on_every_path(tmp_path, capsys):
    with pytest.raises(PreconditionError):
        ClosureConfig(window=1)
    prog = tmp_path / "prog.rr"
    prog.write_text(PROGRAM)
    assert main(["compute", str(prog), "--window", "1"]) == EXIT_USAGE
    assert "k_max >= window >= 2" in capsys.readouterr().err
    prog.write_text(PROGRAM.replace("k_max = 4", "window = 1"))
    assert main(["compute", str(prog)]) == EXIT_USAGE
    with pytest.raises(PreconditionError):
        run_corpus("EX-1.2", overrides={"window": 1})
    assert main(["corpus", "run", "--filter", "EX-1.2",
                 "--window", "1"]) == EXIT_USAGE


def test_replace_rebuilds_through_init():
    assert ClosureConfig().replace(window=2) == ClosureConfig(12, 2, 8)
    with pytest.raises(PreconditionError):
        ClosureConfig().replace(window=1)
    with pytest.raises(TypeError):
        ClosureConfig().replace(depth=1)
    decl = parse_program(PROGRAM).statements[0]
    moved = decl.replace(line=9)
    assert moved == decl and (moved.line, moved.col) == (9, 1)
    assert decl.replace(name="S") != decl


def test_ideal_records_keep_their_caches():
    I = MonomialIdeal.from_gens(_ring(), [(2, 0), (0, 1)])
    assert I.power(3) is I.power(3)
    E = SemigroupIdeal.from_gens(NumericalSemigroup([3, 5]), [3, 5])
    assert E.power(3) is E.power(3)
    assert E.gens is E.gens


def test_importing_the_cli_loads_no_dataclasses():
    env = dict(os.environ, PYTHONPATH=str(SRC))
    probe = ("import sys, rrlab.cli; "
             "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))")
    out = subprocess.run([sys.executable, "-c", probe], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"
    imports = re.compile(r"^\s*(from|import) dataclasses\b", re.M)
    users = [p.name for p in sorted((SRC / "rrlab").glob("*.py"))
             if imports.search(p.read_text(encoding="utf-8"))]
    assert users == []


def test_binding_errors_are_type_errors():
    for make in (lambda: Holds(depth=3),                  # unknown field
                 lambda: Holds(3, depth=3),
                 lambda: Holds(),                         # missing field
                 lambda: StabilizedWindow(3),
                 lambda: ClosureResult(None, window=3),
                 lambda: Holds(3, bound=3),               # given twice
                 lambda: Holds(3, 4),                     # too many positional
                 lambda: FailsAt(3, None, 5),
                 lambda: SemiringDecl(1, 1, "S", (3, 5)),  # positional line
                 lambda: SemiringDecl("S", (3, 5), 1)):
        with pytest.raises(TypeError):
            make()


def test_defaults_fill_missing_fields():
    assert FailsAt(3) == FailsAt(3, None) == FailsAt(n=3)
    assert ClosureConfig() == ClosureConfig(12, 3, 8) == ClosureConfig(window=3)
    assert Field() == Field(0)
    assert MonomialOrder() == MonomialOrder("grevlex", None)
    assert MonomialOrder(priority=(1, 0)).kind == "grevlex"
    decl = SemiringDecl("S", (3, 5))
    assert (decl.line, decl.col) == (0, 0)
    decl = SemiringDecl("S", gens=(3, 5), col=4)
    assert (decl.line, decl.col, decl.gens) == (0, 4, (3, 5))
    assert repr(decl) == "SemiringDecl(line=0, col=4, name='S', gens=(3, 5))"


def test_validate_runs_on_construction_and_on_replace():
    R = _ring()
    checked = [
        (Field(7), lambda: Field(6), {"characteristic": 6}),
        (MonomialOrder("lex"), lambda: MonomialOrder("revlex"),
         {"kind": "revlex"}),
        (R, lambda: RingDescriptor(["X", "X"]), {"variables": ("X", "X")}),
        (ClosureConfig(), lambda: ClosureConfig(4, 5), {"n_max": 0}),
    ]
    for good, make_bad, bad in checked:
        with pytest.raises(PreconditionError):
            make_bad()
        with pytest.raises(PreconditionError):
            good.replace(**bad)
        assert good.replace() == good


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


def test_no_record_type_writes_its_own_init():
    for path in sorted((SRC / "rrlab").glob("[!_]*.py")):
        importlib.import_module(f"rrlab.{path.stem}")
    ours = {cls for cls in _subclasses(Record)
            if cls.__module__.startswith("rrlab.")}
    assert len(ours) >= 25
    assert sorted(cls.__qualname__ for cls in ours
                  if "__init__" in vars(cls)) == []
