"""Command-line entry point: subcommands, formats and exit codes."""

import json

import pytest

from rrlab.cli import (EXIT_ASSERTION, EXIT_OK, EXIT_RESOURCE, EXIT_USAGE,
                       main)

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
