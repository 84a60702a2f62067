"""Command-line entry point: subcommands, formats and exit codes."""

import inspect
import json
import pathlib
import re

import pytest

from rrlab.cli import (EXIT_ASSERTION, EXIT_OK, EXIT_RESOURCE, EXIT_USAGE,
                       HANDLERS, main)
from rrlab.parser import COMMAND_SIGNATURES

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"

PROGRAM = """
ring R = QQ[X, Y];
ideal I = (X^4, X^3*Y, X*Y^3, Y^4);
rr_closure I;
membership (X^2*Y^2) I;
rr_membership (X^2*Y^2) I;
"""


def _write(tmp_path, text, name="prog.rr"):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


def test_compute_text(tmp_path, capsys):
    code = main(["compute", _write(tmp_path, PROGRAM)])
    out = capsys.readouterr().out
    assert code == EXIT_OK
    assert "rr_closure:" in out
    assert "X^2*Y^2" in out
    assert "member: False" in out


def test_compute_json(tmp_path, capsys):
    code = main(["compute", _write(tmp_path, PROGRAM), "--format", "json"])
    assert code == EXIT_OK
    payload = json.loads(capsys.readouterr().out)
    cmds = payload["commands"]
    assert [c["command"] for c in cmds] == ["rr_closure", "membership",
                                            "rr_membership"]
    assert cmds[2]["verdict"] == "member" and cmds[2]["k"] == 1


def test_defect_prints_the_status_of_its_chain(tmp_path, capsys):
    # A capped chain is labelled bound-reached, not read as a closed power.
    prog = ("ring R = QQ[X, Y];\nideal I = (X^4, X^3*Y, X*Y^3, Y^4);\n"
            "rr_defect I 0 k_max = 2 window = 2;\n")
    code = main(["compute", _write(tmp_path, prog)])
    out = capsys.readouterr().out
    assert code == EXIT_OK
    assert out.splitlines()[:3] == ["rr_defect:", "  status: bound-reached",
                                    "  k_max: 2"]


def test_compute_out_file(tmp_path, capsys):
    out = tmp_path / "report.json"
    code = main(["compute", _write(tmp_path, PROGRAM),
                 "--format", "json", "--out", str(out)])
    assert code == EXIT_OK
    assert json.loads(out.read_text())["commands"]


def test_compute_config_flags(tmp_path, capsys):
    code = main(["compute", _write(tmp_path, PROGRAM), "--kmax", "6",
                 "--window", "2", "--format", "json"])
    assert code == EXIT_OK
    payload = json.loads(capsys.readouterr().out)
    assert payload["commands"][0]["config"] == {"k_max": 6, "window": 2,
                                                "n_max": 8}


def test_gb_orders(tmp_path, capsys):
    path = _write(tmp_path, "ring R = QQ[X, Y];\n"
                            "ideal I = (X^2 - Y^3, X*Y - 1);\n")
    assert main(["gb", path, "--order", "lex"]) == EXIT_OK
    lex = capsys.readouterr().out
    assert main(["gb", path, "--order", "lex", "--vars", "Y,X"]) == EXIT_OK
    swapped = capsys.readouterr().out
    assert lex != swapped  # elimination order changes the basis


# the last ideal is a polynomial one though the last ring declared is not,
# and the other way round
GB_POLY_LAST_IDEAL = ("ring R = QQ[X, Y];\nideal I = (X^2 - Y, Y^2);\n"
                      "semiring S = <2, 3>;\n")
GB_SEMIGROUP_LAST_IDEAL = ("semiring S = <2, 3>;\nideal I = (t^2, t^3);\n"
                           "ring R = QQ[X, Y];\n")


@pytest.mark.parametrize("flags", [[], ["--vars", "Y,X"]])
def test_gb_takes_the_ring_of_the_last_ideal(tmp_path, capsys, flags):
    path = _write(tmp_path, GB_POLY_LAST_IDEAL)
    assert main(["gb", path] + flags) == EXIT_OK
    out = capsys.readouterr().out
    assert "basis:" in out and "X^2 - Y" in out and "Y^2" in out
    path = _write(tmp_path, GB_SEMIGROUP_LAST_IDEAL, "semi.rr")
    assert main(["gb", path] + flags) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "this command needs a polynomial-ring ideal" in captured.err


def test_probe_on_non_regular_ideal_exit_code(tmp_path, capsys):
    path = _write(tmp_path, "ring R = QQ[X] / (X^2);\nideal I = (X);\n"
                            "rr_membership (1) I;\n")
    assert main(["compute", path]) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "needs a declared regular element" in captured.err


def test_run_time_refusal_names_its_command(tmp_path, capsys):
    """The first command runs and the second is refused as it runs: exit 2,
    nothing on stdout, and the refusal names the second command's line and
    column."""
    path = _write(tmp_path, "ring R = QQ[X, Y];\n"
                            "ideal I = (X^4, X^3*Y, X*Y^3, Y^4);\n"
                            "ideal J = (X^3);\nrr_closure I;\n"
                            "  rr_via_reduction I J 1;\n")
    assert main(["compute", path]) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "rrlab: J must be contained in I (line 5, column 3)\n")


def test_parse_error_exit_code(tmp_path, capsys):
    path = _write(tmp_path, "ring R = QQ[X Y];\n")
    assert main(["compute", path]) == EXIT_USAGE
    assert "line 1" in capsys.readouterr().err


def test_missing_file_exit_code(capsys):
    assert main(["compute", "/nonexistent/prog.rr"]) == EXIT_USAGE


def test_bad_usage_exit_code(capsys):
    assert main(["frobnicate"]) == EXIT_USAGE


def test_corpus_list(capsys):
    assert main(["corpus", "list"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "EX-1.10:" in out and "EX-4.3:" in out


def test_corpus_run_filter_json(capsys):
    assert main(["corpus", "run", "--filter", "EX-2.6",
                 "--format", "json"]) == EXIT_OK
    report = json.loads(capsys.readouterr().out)
    assert report["schema"] == 1
    assert report["passed"] is True
    (case,) = report["cases"]
    assert case["id"] == "EX-2.6" and case["verdict"] == "pass"
    for a in case["assertions"]:
        assert set(a) == {"assertion", "verdict", "witness", "millis"}


def test_corpus_report_deterministic_modulo_timing(capsys):
    def run():
        assert main(["corpus", "run", "--filter", "EX-INTRO-*",
                     "--seed", "7", "--format", "json"]) == EXIT_OK
        rep = json.loads(capsys.readouterr().out)
        for case in rep["cases"]:
            for a in case["assertions"]:
                a["millis"] = 0
        return rep

    assert run() == run()


def test_corpus_run_text_summary(capsys):
    assert main(["corpus", "run", "--filter", "EX-1.10"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "EX-1.10: pass" in out
    assert "1/1 cases passed" in out


def _latin1_program(tmp_path):
    path = tmp_path / "latin1.rr"
    path.write_bytes("# \xe9\nring R = QQ[X];\n".encode("latin-1"))
    return str(path)


@pytest.mark.parametrize("argv", [
    lambda d: ["compute", str(d)],
    lambda d: ["gb", str(d)],
    lambda d: ["compute", _latin1_program(d)],
    lambda d: ["compute", _write(d, PROGRAM), "--out", str(d)],
], ids=["compute-dir", "gb-dir", "not-utf8", "out-dir"])
def test_unreadable_files_are_usage_errors(tmp_path, capsys, argv):
    code = main(argv(tmp_path))
    err = capsys.readouterr().err
    assert code == EXIT_USAGE
    assert err.startswith("rrlab: ") and "Traceback" not in err


@pytest.mark.parametrize("subcommand", ["compute", "gb"])
def test_non_utf8_program_names_file_line_and_column(tmp_path, capsys,
                                                     subcommand):
    path = tmp_path / "latin1.rr"
    path.write_bytes("ring R = QQ[X];\n# caf\xe9\n".encode("latin-1"))
    assert main([subcommand, str(path)]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert err == (f"rrlab: {path} is not UTF-8: byte 0xe9 cannot be decoded"
                   " (line 2, column 6)\n")


@pytest.mark.parametrize("gen, code", [
    (" + ".join(f"X^{i}*Y" for i in range(1, 5001)), EXIT_OK),
    ("*".join(["X"] * 5000), EXIT_OK),
    ("(" * 5000 + "X" + ")" * 5000, EXIT_USAGE),
    ("-" * 5000 + "X", EXIT_USAGE),
], ids=["long-sum", "long-product", "deep-parentheses", "deep-minus"])
def test_long_and_deep_polynomials_end_without_a_traceback(tmp_path, capsys,
                                                           gen, code):
    path = _write(tmp_path, f"ring R = QQ[X, Y];\nideal I = ({gen});\n"
                            "membership (X*Y) I;\n")
    assert main(["compute", path]) == code
    captured = capsys.readouterr()
    assert "Traceback" not in captured.err
    if code == EXIT_OK:
        assert "member: False" in captured.out
    else:
        assert re.fullmatch(r"rrlab: .* nest deeper than 50 "
                            r"\(line 2, column \d+\)\n", captured.err)


@pytest.mark.parametrize("p, code", [
    ("2305843009213693951", EXIT_OK),  # 2^61 - 1
    ("1000000000000000003", EXIT_OK),
    ("3215031751", EXIT_USAGE),  # a strong pseudoprime to the bases 2, 3, 5, 7
    ("3317044064679887385961981", EXIT_USAGE),  # where the exact test ends
])
def test_large_prime_fields_are_decided_at_once(tmp_path, capsys, p, code):
    path = _write(tmp_path, f"ring R = F {p}[X];\nideal I = (X^2 + 1);\ngb I;\n")
    assert main(["compute", path]) == code
    captured = capsys.readouterr()
    if code == EXIT_OK:
        assert "basis: ['X^2 + 1']" in captured.out
    else:
        assert captured.err.startswith("rrlab: ") and "Traceback" not in captured.err


@pytest.mark.parametrize("ideal", ["(X^2, Y)", "(X^2 + Y, Y^2)"],
                         ids=["monomial", "handle"])
@pytest.mark.parametrize("zero", ["(0)", "0", "(X - X)"])
def test_zero_is_a_member_of_every_ideal(tmp_path, capsys, ideal, zero):
    path = _write(tmp_path, f"ring R = QQ[X, Y];\nideal I = {ideal};\n"
                            f"membership {zero} I;\nmembership (X) I;\n")
    assert main(["compute", path, "--format", "json"]) == EXIT_OK
    cmds = json.loads(capsys.readouterr().out)["commands"]
    assert [c["member"] for c in cmds] == [True, False]


def test_a_zero_generator_leaves_a_monomial_ideal_monomial(tmp_path, capsys):
    commands = "min_gens I;\nintegral_closure I;\nrr_power I 2;\nsocle I;\n"
    outputs = []
    for gens in ("(X^2, 0, Y^3)", "(X^2, Y^3)"):
        path = _write(tmp_path, f"ring R = QQ[X, Y];\nideal I = {gens};\n"
                                + commands)
        assert main(["compute", path]) == EXIT_OK
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]


def test_corpus_filter_that_matches_nothing_is_a_usage_error(capsys):
    assert main(["corpus", "run", "--filter", "NOPE"]) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.err == "rrlab: no corpus case matches the filter 'NOPE'\n"
    assert captured.out == ""


def test_handler_table_matches_the_signatures():
    assert set(HANDLERS) == set(COMMAND_SIGNATURES)
    for name, kinds in COMMAND_SIGNATURES.items():
        # the chain settings, then one value per argument
        params = inspect.signature(HANDLERS[name]).parameters
        assert len(params) == 1 + len(kinds), name


@pytest.mark.parametrize("ring, ideal, element", [
    ("semiring S = <4, 5, 11>;", "(t^4, t^5, t^11)", "(t^7)"),
    ("semiring S = <4, 5, 11>;", "(t^4, t^5, t^11)", "(t^6)"),
    ("affine A = <(1,0), (0,2), (0,7), (2,5), (3,1)>;", "((1,0), (0,2))",
     "(1,5)"),
    ("affine A = <(1,0), (1,1)>;", "((1,0), (1,1))", "(0,3)"),
    ("affine A = <(0,2), (0,3)>;", "((0,2), (0,3))", "(1,2)"),
    ("affine A = <(0,2), (0,4)>;", "((0,2))", "(0,3)"),
], ids=["gap-7", "gap-6", "affine-X*Y^5", "affine-off-cone",
        "one-ray-off-ray", "one-ray-off-lattice"])
def test_membership_probes_refuse_elements_outside_the_ring(
        tmp_path, capsys, ring, ideal, element):
    """A gap of the semigroup, or a point above its cone, is no ring
    element, so no probe of it can answer, nor can prop41 take it as x;
    plain membership still answers False."""
    text = f"{ring}\nideal I = {ideal};\nmembership {element} I;\n"
    assert main(["compute", _write(tmp_path, text)]) == EXIT_OK
    assert "member: False" in capsys.readouterr().out
    for probe in (f"rr_membership {element} I", f"prop41 I {element} 1"):
        path = _write(tmp_path, text + f"{probe};\n")
        assert main(["compute", path]) == EXIT_USAGE
        assert capsys.readouterr().err == (
            "rrlab: element is not in the ring (line 4, column 1)\n")


@pytest.mark.parametrize("generator, shown", [("(1,2)", "(1, 2)"),
                                              ("(0,1)", "(0, 1)")],
                         ids=["off-ray", "gap"])
def test_one_ray_generator_outside_the_ring_is_named(tmp_path, capsys,
                                                     generator, shown):
    path = _write(tmp_path, f"affine A = <(0,2), (0,3)>;\n"
                            f"ideal I = ({generator});\n")
    assert main(["compute", path]) == EXIT_USAGE
    assert capsys.readouterr().err == (
        f"rrlab: generator {shown} is not in the semigroup"
        " (line 2, column 1)\n")


@pytest.mark.parametrize("first", ["affine A = <(0,2), (0,3)>;\n"
                                   "ideal I = ((0,2));",
                                   "semiring S = <2, 3>;\nideal I = (t^2);"],
                         ids=["other-ray", "t-exponents"])
def test_one_ray_ideals_of_different_rings_do_not_combine(tmp_path, capsys,
                                                          first):
    """<(0,2),(0,3)>, <(2,0),(3,0)> and <2,3> are all the numerical
    semigroup <2,3>, read on different rays or as t-exponents."""
    path = _write(tmp_path, f"{first}\naffine B = <(2,0), (3,0)>;\n"
                            "ideal J = ((2,0));\nsum I J;\n")
    assert main(["compute", path]) == EXIT_USAGE
    assert capsys.readouterr().err == (
        "rrlab: ideals belong to different semigroups (line 5, column 1)\n")


@pytest.mark.parametrize("command", ["rr_membership (0) I",
                                     "superficial (0) I", "gr_nzd (0) I 1",
                                     "prop41 I (0) 1"])
@pytest.mark.parametrize("ideal", ["(X^2, Y)", "(X^2 + Y, Y^2)"],
                         ids=["monomial", "handle"])
def test_zero_probe_is_refused_alike_on_every_ideal_type(tmp_path, capsys,
                                                         ideal, command):
    path = _write(tmp_path, f"ring R = QQ[X, Y];\nideal I = {ideal};\n"
                            f"{command};\n")
    assert main(["compute", path]) == EXIT_USAGE
    assert capsys.readouterr().err == (
        "rrlab: the zero element lies in every ideal; probe is vacuous"
        " (line 3, column 1)\n")


def test_readme_lists_every_command():
    text = README.read_text(encoding="utf-8")
    section = text[text.index("## Input language and CLI"):
                   text.index("## The corpus")]
    listed = set(re.findall(r"^\| `(\w+)` \|", section, re.M))
    assert listed == set(COMMAND_SIGNATURES)
