"""`rrlab compute` on small programs drawn from the input grammar.

Whatever the program, the run ends with exit code 0-3 and never with a
Python traceback.  Each command of the language is drawn in its own test,
over every ring kind: polynomial rings over QQ and F_p, with and without a
quotient, numerical semigroups and plane affine semigroups.  Arguments are
sometimes of the wrong kind, names undeclared and configurations invalid,
so the error paths run too.  Derandomized, with no example database;
skipped when hypothesis is not installed.
"""

import io
import os
import tempfile
from contextlib import redirect_stderr, redirect_stdout

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from rrlab.cli import IDEAL_KINDS, main  # noqa: E402
from rrlab.parser import COMMAND_SIGNATURES  # noqa: E402

VARIABLES = ("X", "Y", "Z")


@st.composite
def monomials(draw, names):
    factors = [f"{v}^{draw(st.integers(1, 3))}" for v in names
               if draw(st.booleans())]
    return "*".join(factors) or str(draw(st.integers(1, 3)))


@st.composite
def polynomials(draw, names):
    terms = draw(st.lists(monomials(names), min_size=1, max_size=2))
    signs = [draw(st.sampled_from((" + ", " - "))) for _ in terms[1:]]
    return terms[0] + "".join(s + t for s, t in zip(signs, terms[1:]))


def _rarely(draw):
    """True about one time in eight (hypothesis favours the first choice)."""
    return draw(st.sampled_from((False,) * 7 + (True,)))


@st.composite
def elements(draw, kind, names, sgens):
    """An element of the ring kind, mostly a sum of the semigroup's
    generators there, now and then anything, or of another kind."""
    if _rarely(draw):
        kind = draw(st.sampled_from(("poly", "ns", "affine")))
    if kind == "poly":
        return draw(polynomials(names or VARIABLES[:1]))
    if kind == sgens[0] and not _rarely(draw):
        parts = draw(st.lists(st.sampled_from(sgens[1]), min_size=1,
                              max_size=2))
        if kind == "ns":
            return f"t^{sum(parts)}"
        return f"{sum(a for a, _ in parts)}, {sum(b for _, b in parts)}"
    if kind == "ns":
        return f"t^{draw(st.integers(0, 12))}"
    return f"{draw(st.integers(0, 4))}, {draw(st.integers(0, 4))}"


@st.composite
def rings(draw):
    """(kind, declaration, variable names, (kind, semigroup generators))."""
    kind = draw(st.sampled_from(("poly", "ns", "affine")))
    if kind == "poly":
        names = VARIABLES[:draw(st.integers(1, 3))]
        field = "F 6" if _rarely(draw) else draw(
            st.sampled_from(("QQ", "QQ", "F 2", "F7")))
        decl = f"ring R = {field}[{', '.join(names)}]"
        if draw(st.integers(0, 3)) == 0:
            decl += f" / ({draw(polynomials(names))})"
        return kind, decl + ";", names, (kind, ())
    if kind == "ns":
        gens = draw(st.lists(st.integers(1, 9), min_size=1, max_size=3))
        if not _rarely(draw):
            gens.append(gens[0] + 1)  # coprime overall
        return (kind, f"semiring S = <{', '.join(map(str, gens))}>;", (),
                (kind, gens))
    pairs = draw(st.lists(st.tuples(st.integers(0, 3), st.integers(0, 3))
                          .filter(any), min_size=1, max_size=3))
    body = ", ".join(f"({a},{b})" for a, b in pairs)
    return kind, f"affine A = <{body}>;", (), (kind, pairs)


@st.composite
def programs(draw, command):
    kind, decl, names, sgens = draw(rings())
    lines = [decl]
    for name in ("I", "J"):
        gens = draw(st.lists(elements(kind, names, sgens), min_size=1,
                             max_size=3))
        lines.append(f"ideal {name} = ({', '.join(f'({g})' for g in gens)});")
    args = []
    for want in COMMAND_SIGNATURES[command]:
        if want in IDEAL_KINDS:
            args.append("K" if _rarely(draw) else draw(st.sampled_from("IJ")))
        elif want == "int":
            args.append(str(draw(st.sampled_from((1, 2, 3, 0)))))
        else:
            args.append(f"({draw(elements(kind, names, sgens))})")
    cfg = (f"k_max={draw(st.integers(2, 4))} window={draw(st.integers(2, 3))} "
           f"n_max={draw(st.integers(1, 4))}")
    lines.append(" ".join([command] + args + [cfg]) + ";")
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("command", sorted(COMMAND_SIGNATURES))
@settings(derandomize=True, database=None, max_examples=16, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_compute_ends_in_an_exit_code(command, data):
    text = data.draw(programs(command), label="program")
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "prog.rr")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        with redirect_stdout(out), redirect_stderr(err):
            code = main(["compute", path, "--format", "json"])
    assert code in (0, 1, 2, 3)
    assert "Traceback" not in out.getvalue() + err.getvalue()
