"""Input-language lexing, parsing, evaluation and formatting."""

import pytest

from rrlab.cli import EXIT_USAGE, HANDLERS, Session, main, run_program
from rrlab.core import Field, Polynomial, RingDescriptor
from rrlab.errors import (ArityError, LexicalError, PreconditionError,
                          SyntacticError, UnknownIdentifierError)
from rrlab.parser import (format_poly_ast, format_program, parse_polynomial,
                          parse_program)
from rrlab.ratliff_rush import DEFAULT_CONFIG

PROGRAM = """
ring R = QQ[X, Y];
ideal I = (X^4, X^3*Y, X*Y^3, Y^4);
ideal J = (X^4, Y^4);
rr_closure I;
rr_via_reduction I J 2 k_max = 6 window = 2;
membership (X^2*Y^2) I;
"""


def test_parse_and_format_round_trip():
    prog = parse_program(PROGRAM)
    text = format_program(prog)
    again = parse_program(text)
    assert again == prog
    # Formatting is a fixed point after one pass.
    assert format_program(again) == text


def test_declarations_parsed():
    prog = parse_program(PROGRAM)
    kinds = [type(s).__name__ for s in prog.statements]
    assert kinds == ["RingDecl", "IdealDecl", "IdealDecl",
                     "Command", "Command", "Command"]


def test_overrides_attached_to_command():
    prog = parse_program(PROGRAM)
    cmd = prog.statements[4]
    assert cmd.name == "rr_via_reduction"
    assert dict(cmd.overrides) == {"k_max": 6, "window": 2}


def test_semiring_and_affine_declarations():
    prog = parse_program("""
semiring S = <4, 5, 11>;
ideal M = (t^4, t^5, t^11);
rr_closure M;
affine A = <(1,0), (0,2)>;
ideal N = ((1,0), (0,2));
rr_closure N;
""")
    assert len(prog.statements) == 6


def test_quotient_ring_declaration():
    prog = parse_program(
        "ring R = QQ[X, Z, U] / (Z^2, Z*U, X*Z - U^3);\n"
        "ideal I = (X, Z, U);\nis_rr_closed I;\n")
    ring_decl = prog.statements[0]
    assert len(ring_decl.quotient) == 3


def test_lexical_error():
    with pytest.raises(LexicalError) as e:
        parse_program("ring R = QQ[X, Y]; ideal I = (X$Y);")
    assert e.value.line == 1 and e.value.col > 0


@pytest.mark.parametrize("digit", ["\u00b2", "\u0663"])  # '²', Arabic-Indic 3
def test_only_ascii_digits_read_as_integers(digit):
    # str.isdigit holds for both, but int() refuses '²'
    with pytest.raises(LexicalError) as e:
        parse_program(f"ring R = QQ[X]; ideal I = (X^{digit}); gb I;")
    assert (e.value.line, e.value.col) == (1, 30)


def test_syntactic_error():
    with pytest.raises(SyntacticError):
        parse_program("ring R = QQ[X, Y; ideal I = (X);")


def test_arity_error():
    with pytest.raises(ArityError):
        parse_program("ring R = QQ[X, Y];\nideal I = (X);\nrr_closure I I;")


def test_unknown_identifier_error():
    with pytest.raises(UnknownIdentifierError):
        parse_program("ring R = QQ[X, Y];\nrr_closure K;")
    with pytest.raises(UnknownIdentifierError):
        parse_program("ring R = QQ[X, Y];\nideal I = (X*W);")


def test_polynomial_evaluation():
    R = RingDescriptor(("X", "Y"))
    f = parse_polynomial(R, "(X + Y)^2 - 2*X*Y")
    assert f == parse_polynomial(R, "X^2 + Y^2")
    assert parse_polynomial(R, "3") == R.constant(3)
    assert parse_polynomial(R, "X - X").is_zero()


def test_error_positions_point_at_offender():
    try:
        parse_program("ring R = QQ[X, Y];\nideal I = (X^);")
    except SyntacticError as e:
        assert e.line == 2
    else:
        pytest.fail("expected a syntax error")


def test_ideal_errors_carry_the_declaration_position():
    with pytest.raises(UnknownIdentifierError) as e:
        parse_program("ring R = QQ[X];\n\n  ideal I = (Z);")
    assert (e.value.line, e.value.col) == (3, 3)
    with pytest.raises(UnknownIdentifierError) as e:
        parse_program("# no ring yet\n ideal I = (X);")
    assert (e.value.line, e.value.col) == (2, 2)
    assert "(line 2, column 2)" in str(e.value)


def test_element_errors_carry_the_command_position():
    prog = parse_program("ring R = QQ[X];\nideal I = (X);\n"
                         "    membership (1, 2) I;")
    with pytest.raises(ArityError) as e:
        run_program(prog, DEFAULT_CONFIG)
    assert (e.value.line, e.value.col) == (3, 5)
    assert "(line 3, column 5)" in str(e.value)


DECLARED = "ring R = QQ[X, Y];\nideal I = (X, Y);\n"


@pytest.mark.parametrize("text, error, message, at", [
    (DECLARED + "ideal J = (X, Z*Y);", UnknownIdentifierError,
     "unknown variable 'Z'", (3, 1)),
    (DECLARED + "rr_closure I;\n  membership (X + Z) I;", UnknownIdentifierError,
     "unknown variable 'Z'", (4, 3)),
    ("\n ring R = QQ[X, Y] / (X^2 - Z);", UnknownIdentifierError,
     "unknown variable 'Z'", (2, 2)),
    ("semiring S = <2, 3>;\nideal I = (t^2);\nmembership (s^9) I;",
     UnknownIdentifierError, "unknown variable 's'", (3, 1)),
    ("# no ring yet\n ideal I = (X);\nring R = QQ[X];", UnknownIdentifierError,
     "ideal declared before any ring", (2, 2)),
    (DECLARED + "   frobnicate I;", UnknownIdentifierError,
     "unknown command 'frobnicate'", (3, 4)),
    (DECLARED + "rr_closure I;\nrr_power I;", ArityError,
     "rr_power takes 2 argument(s), got 1", (4, 1)),
    (DECLARED + "rr_power I I;", ArityError,
     "rr_power: expected an integer", (3, 1)),
    (DECLARED + "membership I I;", ArityError,
     "membership: expected a parenthesized element", (3, 1)),
    (DECLARED + "colon I\n  J;", UnknownIdentifierError,
     "unknown ideal 'J'", (3, 1)),
], ids=["ideal-variable", "element-variable", "quotient-variable",
        "semiring-variable", "ideal-before-ring", "unknown-command", "arity",
        "integer-kind", "element-kind", "unknown-ideal"])
def test_checks_raise_while_parsing_at_the_statement(text, error, message, at):
    with pytest.raises(error) as e:
        parse_program(text)
    assert e.value.message == message
    assert (e.value.line, e.value.col) == at


@pytest.mark.parametrize("text, message, at", [
    ("ring R = QQ[X, Y,];", "expected 'ident', found ']'", (1, 18)),
    ("ring R = QQ[X, Y;", "expected ']', found ';'", (1, 17)),
    ("ring R = QQ[X, Y] / (X^2,);",
     "expected a polynomial factor, found ')'", (1, 26)),
    ("ring R = QQ[X, Y] / (X^2, Y;", "expected ')', found ';'", (1, 28)),
    ("semiring S = <2, 3,>;", "expected 'int', found '>'", (1, 20)),
    ("semiring S = <2, 3;", "expected '>', found ';'", (1, 19)),
    ("affine A = <(2,0), (0,3),>;", "expected '(', found '>'", (1, 26)),
    ("affine A = <(2,0), (0,3);", "expected '>', found ';'", (1, 25)),
    ("ring R = QQ[X, Y];\nideal I = (X, Y,);",
     "expected a polynomial factor, found ')'", (2, 17)),
    ("ring R = QQ[X, Y];\nideal I = (X, Y;", "expected ')', found ';'", (2, 16)),
], ids=[f"{where}-{how}" for where in ("variables", "quotient", "semiring",
                                       "affine", "ideal")
        for how in ("trailing-comma", "no-closer")])
def test_comma_lists_refuse_a_trailing_comma_and_a_missing_closer(
        text, message, at):
    with pytest.raises(SyntacticError) as e:
        parse_program(text)
    assert e.value.message == message
    assert (e.value.line, e.value.col) == at


def test_a_bad_last_statement_stops_the_program_before_it_runs(
        tmp_path, capsys, monkeypatch):
    ran = []
    monkeypatch.setitem(HANDLERS, "gb", lambda cfg, I: ran.append(I) or {})
    path = tmp_path / "prog.rr"
    path.write_text(DECLARED + "gb I;\nrr_closure I;\nmembership (Z) I;\n")
    assert main(["compute", str(path)]) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "rrlab: unknown variable 'Z' (line 5, column 1)\n"
    assert ran == []


@pytest.mark.parametrize("text, message", [
    ("semiring S = <2, 3>;\nideal I = (t^2);\nrr_closure I;\nideal J = (t*t);\n",
     "semigroup generators are written t^k or as integers (line 4, column 1)"),
    ("semiring S = <2, 3>;\nideal I = (t^2);\nrr_closure I;\nideal J = (t^1);\n",
     "generator 1 is not in the semigroup (line 4, column 1)"),
    ("affine A = <(0,2), (1,1)>;\nideal I = ((0,2));\nrr_closure I;\n"
     "ideal J = ((1,0));\n",
     "generator (1, 0) is not in the semigroup (line 4, column 1)"),
    ("semiring S = <2, 3>;\nideal I = (t^2);\nrr_closure I;\n"
     "membership (1,2) I;\n", "element argument ('pair', (('int', 1), "
     "('int', 2))) does not fit this ring (line 4, column 1)"),
], ids=["shape", "gap", "affine-gap", "element-shape"])
def test_a_bad_semigroup_generator_stops_the_program_before_it_runs(
        tmp_path, capsys, monkeypatch, text, message):
    ran = []
    for name in list(HANDLERS):
        monkeypatch.setitem(HANDLERS, name,
                            lambda *args, name=name: ran.append(name) or {})
    path = tmp_path / "prog.rr"
    path.write_text(text)
    assert main(["compute", str(path)]) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"rrlab: {message}\n"
    assert ran == []


RESOLVED = "ring R = QQ[X, Y];\nideal I = (X^2, Y);\nrr_closure I;\n"


@pytest.mark.parametrize("tail, message", [
    ("membership (1, 2) I;", "element argument ('pair', (('int', 1), "
     "('int', 2))) does not fit this ring (line 4, column 1)"),
    ("ring S = F 4[X];", "4 is not prime (line 4, column 1)"),
    ("rr_closure I window = 1;",
     "require k_max >= window >= 2 (line 4, column 1)"),
    ("ring S = QQ[X, X];", "variable names must be distinct (line 4, column 1)"),
    ("semiring S = <4, 6>;",
     "generators must be coprime overall (line 4, column 1)"),
    ("semiring S = <2, 3>;\nideal J = (t^2);\nsum I J;",
     "this command needs a polynomial-ring ideal (line 6, column 1)"),
], ids=["element-shape", "field", "config", "variables", "semigroup",
        "mixed-ideals"])
@pytest.mark.parametrize("subcommand", ["compute", "gb"])
def test_every_input_error_comes_before_any_command(
        tmp_path, capsys, monkeypatch, subcommand, tail, message):
    ran = []
    for name in list(HANDLERS):
        monkeypatch.setitem(HANDLERS, name,
                            lambda *args, name=name: ran.append(name) or {})
    path = tmp_path / "prog.rr"
    path.write_text(RESOLVED + tail + "\n")
    assert main([subcommand, str(path)]) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"rrlab: {message}\n"
    assert ran == []


def test_polynomial_errors_point_at_the_variable():
    R = RingDescriptor(("X", "Y"))
    with pytest.raises(UnknownIdentifierError,
                       match=r"^unknown variable 'Z' \(line 1, column 9\)$"):
        parse_polynomial(R, "X^2 + Y*Z")


def test_a_generator_may_open_with_a_parenthesized_factor():
    text = "ring R = QQ[X, Y];\nideal I = ((X + Y)^2, Y);\ngb I;\n"
    [gb] = run_program(parse_program(text), DEFAULT_CONFIG)
    assert gb["basis"] == ["Y", "X^2"]
    R = RingDescriptor(("X", "Y"))
    prog = parse_program("ring R = QQ[X, Y];\n"
                         "ideal I = ((X + Y)*X - Y^2, Y, ((X)), (X + Y)^2);\n"
                         "membership ((X + Y)^2 - X) I;\n")
    gens = prog.statements[1].gens
    assert ([parse_polynomial(R, format_poly_ast(g)) for g in gens]
            == [parse_polynomial(R, t) for t in
                ("X^2 + X*Y - Y^2", "Y", "X", "X^2 + 2*X*Y + Y^2")])
    text = format_program(prog)
    assert "ideal I = ((X + Y)*X - Y^2, Y, X, (X + Y)^2);" in text
    again = parse_program(text)
    assert again == prog and format_program(again) == text
    affine = parse_program("affine A = <(1,0), (0,2)>;\n"
                           "ideal N = ((0,2), (1, 0));\nmembership (1,2) N;\n")
    assert affine.statements[1].gens == (("pair", (("int", 0), ("int", 2))),
                                         ("pair", (("int", 1), ("int", 0))))
    assert parse_program(format_program(affine)) == affine


def test_seed_is_not_a_config_key():
    with pytest.raises(SyntacticError, match="unknown config key 'seed'"):
        parse_program("ring R = QQ[X];\nideal I = (X);\nrr_closure I seed=3;")


def _declared_ring(text):
    session = Session()
    [decl] = parse_program(text).statements
    session.declare(decl)
    return session.ring


def test_printed_ring_parses_back():
    for field in (Field(0), Field(7)):
        base = RingDescriptor(("X", "Y"), field)
        quotient = [parse_polynomial(base, "X^3 - Y^2")]
        for ring in (base, base.with_quotient(quotient)):
            again = _declared_ring(f"ring R = {ring!r};")
            assert repr(again) == repr(ring)
            assert again.compatible(ring)


def test_prime_field_spellings():
    for text in ("F 7", "F7"):
        assert _declared_ring(f"ring R = {text}[X, Y];").field == Field(7)
    for text in ("F 6", "F6"):
        with pytest.raises(PreconditionError, match="6 is not prime"):
            _declared_ring(f"ring R = {text}[X, Y];")
    with pytest.raises(SyntacticError, match="unknown field 'Fx7'"):
        parse_program("ring R = Fx7[X, Y];")


def test_characteristic_zero_is_not_a_prime_field():
    for text in ("F 0", "F0", "F 00"):
        with pytest.raises(SyntacticError, match="characteristic 0") as e:
            parse_program(f"ring R =\n  {text}[X];")
        assert (e.value.line, e.value.col) == (2, 3)


LONG_SUM = " + ".join(f"X^{i}*Y" for i in range(1, 5001))


def test_long_chains_parse_and_evaluate():
    R = RingDescriptor(("X", "Y"))
    X, Y = R.variable("X"), R.variable("Y")
    f = parse_polynomial(R, LONG_SUM)
    assert f == Polynomial(R, {(i, 1): R.field.one() for i in range(1, 5001)})
    assert parse_polynomial(R, "*".join(["X"] * 5000)) == X ** 5000
    assert parse_polynomial(R, " - ".join(["X"] * 5000)) == R.constant(-4998) * X
    assert parse_polynomial(R, "X - X + Y + X - Y") == X
    prog = parse_program(f"ring R = QQ[X, Y];\nideal I = ({LONG_SUM});\ngb I;")
    assert len(prog.statements[1].gens[0][1]) == 5000


def test_long_sum_round_trips_through_format():
    prog = parse_program(f"ring R = QQ[X, Y];\nideal I = ({LONG_SUM});\ngb I;")
    text = format_program(prog)
    assert LONG_SUM in text
    again = parse_program(text)
    assert again == prog and format_program(again) == text


@pytest.mark.parametrize("poly", [
    "(X + Y)^2*(X - Y)", "-(X + Y)", "X - (Y - X)", "(X*Y)*X", "X*(-Y)",
    "(X^2)^3", "-X + -Y - --X", "((X))", "2*(3 + X)^4 - Y"])
def test_format_parenthesizes_what_the_grammar_needs(poly):
    prog = parse_program(f"ring R = QQ[X, Y];\nideal I = (({poly}));")
    again = parse_program(format_program(prog))
    assert again.statements[1].gens == prog.statements[1].gens
    R = RingDescriptor(("X", "Y"))
    [ast] = prog.statements[1].gens
    assert parse_polynomial(R, format_poly_ast(ast)) == parse_polynomial(R, poly)


@pytest.mark.parametrize("opening", ["(", "-"])
def test_deep_nesting_is_a_syntax_error(opening):
    R = RingDescriptor(("X",))
    deep = opening * 5000 + "X" + (")" * 5000 if opening == "(" else "")
    with pytest.raises(SyntacticError, match="nest deeper than 50") as e:
        parse_program(f"ring R = QQ[X];\nideal I = ({deep});")
    # at the 51st opening; the generator's own parenthesis is not counted
    assert (e.value.line, e.value.col) == (2, 62 + (opening == "("))
    with pytest.raises(SyntacticError) as e:
        parse_polynomial(R, deep)
    assert (e.value.line, e.value.col) == (1, 51)
    # fifty levels still parse
    ok = opening * 50 + "X" + (")" * 50 if opening == "(" else "")
    assert parse_polynomial(R, ok) == R.variable("X")
