"""Command-line interface: compute, gb, corpus run, corpus list.

Exit codes: 0 success, 1 assertion failure, 2 usage or input error,
3 resource cap hit.
"""

from __future__ import annotations

import json
import sys
from contextlib import contextmanager
from typing import List, Optional

from .core import ORDER_KINDS, Field, MonomialOrder, Polynomial, QQ, RingDescriptor
from .errors import (ArityError, InputError, RRLabError, ResourceLimitError,
                     UnsupportedOperationError)
from .groebner import IdealHandle
from .monomial import (MonomialIdeal, associated_primes_monomial,
                       integral_closure_monomial, is_borel_fixed,
                       socle_candidates)
from .parser import (COMMAND_SIGNATURES, AffineDecl, Command, IdealDecl,
                     InputProgram, RingDecl, SemiringDecl, eval_pair,
                     eval_poly, eval_t_exponent, parse_program)
from .ratliff_rush import (ClosureConfig, DEFAULT_CONFIG,
                           depth_zero_witness_search, gr_nzd_probe,
                           is_rr_closed, rr_closure, rr_closure_via_reduction,
                           rr_defect, rr_membership_probe, rr_power,
                           superficial_probe)
from .reductions import (is_reduction, prop41_equivalence_check,
                         reduction_number, rr_reduction_number, s_invariant)
from .semigroup import (AffineIdeal, AffineSemigroup2D, NumericalSemigroup,
                        SemigroupIdeal, affine_ring)
from . import corpus as corpus_mod

EXIT_OK = 0
EXIT_ASSERTION = 1
EXIT_USAGE = 2
EXIT_RESOURCE = 3


# ---------------------------------------------------------------------------
# program interpreter


class Session:
    """Holds the declared ring and ideal bindings of one input program."""

    def __init__(self):
        self.kind: Optional[str] = None  # 'poly' | 'ns' | 'affine'
        self.ring = None  # RingDescriptor / NumericalSemigroup / AffineSemigroup2D
        self.ideals = {}

    # -- declarations -------------------------------------------------------

    def declare(self, st) -> None:
        if isinstance(st, RingDecl):
            field = QQ if st.field_char == 0 else Field(st.field_char)
            base = RingDescriptor(st.variables, field)
            if st.quotient:
                base = base.with_quotient(
                    [eval_poly(q, base) for q in st.quotient])
            self.kind, self.ring = "poly", base
        elif isinstance(st, SemiringDecl):
            self.kind, self.ring = "ns", NumericalSemigroup(st.gens)
        elif isinstance(st, AffineDecl):
            self.kind, self.ring = "affine", affine_ring(st.gens)
        elif isinstance(st, IdealDecl):
            self.ideals[st.name] = self._build_ideal(st)
        else:
            raise UnsupportedOperationError(f"cannot declare {st!r}")

    def _build_ideal(self, st: IdealDecl):
        if self.kind == "poly":
            polys = [p for p in (eval_poly(g, self.ring) for g in st.gens)
                     if not p.is_zero()]
            if (polys and not self.ring.quotient
                    and all(len(p.terms) == 1 for p in polys)):
                return MonomialIdeal.from_gens(
                    self.ring, [next(iter(p.terms)) for p in polys])
            return IdealHandle(self.ring, polys)
        if self.kind in ("ns", "affine"):
            read = eval_t_exponent if self.kind == "ns" else eval_pair
            ideal = (AffineIdeal if isinstance(self.ring, AffineSemigroup2D)
                     else SemigroupIdeal)
            return ideal.from_gens(self.ring, [read(g) for g in st.gens])
        raise UnsupportedOperationError("declare a ring before any ideal")

    # -- elements -----------------------------------------------------------

    def element(self, arg):
        """The ring element a command element (kind, value) stands for: a
        polynomial, a t-exponent or an exponent pair."""
        kind, value = arg
        if self.kind == "poly":
            if kind == "poly":
                return eval_poly(value, self.ring)
            if kind == "int":
                return self.ring.constant(value)
        elif self.kind == "ns":
            if kind == "int":
                return value
            if kind == "poly":
                return eval_t_exponent(value)
        elif self.kind == "affine" and kind == "pair":
            return eval_pair(arg)
        raise ArityError(f"element argument {arg!r} does not fit this ring")

    def arguments(self, cmd: Command) -> list:
        """The values of cmd's arguments, each read as its signature's kind
        says: a declared ideal, an integer or an element of the ring.  Two
        ideals of different types (a monomial ideal beside a polynomial
        one) both become handles."""
        kinds = COMMAND_SIGNATURES[cmd.name]
        values = [self.ideals[arg[1]] if kind == "ideal"
                  else arg[1] if kind == "int" else self.element(arg)
                  for kind, arg in zip(kinds, cmd.args)]
        ideals = [i for i, kind in enumerate(kinds) if kind == "ideal"]
        if len({type(values[i]) for i in ideals}) > 1:
            for i in ideals:
                values[i] = _as_handle(values[i])
        return values


def _as_handle(I) -> IdealHandle:
    if isinstance(I, IdealHandle):
        return I
    if isinstance(I, MonomialIdeal):
        return IdealHandle.from_monomial(I)
    raise UnsupportedOperationError(
        "this command needs a polynomial-ring ideal")


def _as_monomial(I) -> MonomialIdeal:
    if isinstance(I, MonomialIdeal):
        return I
    raise UnsupportedOperationError("this command needs a monomial ideal")


def _defect(cfg, I, n):
    D = rr_defect(I, n, cfg)
    return {**D.closure.status.to_dict(), "empty": D.is_empty(),
            "representatives": [str(r) for r in D.representatives]}


def _membership(cfg, m, I):
    # zero lies in every ideal, and a monomial ideal has no exponent vector
    # to probe it with
    return {"member": ((isinstance(m, Polynomial) and m.is_zero())
                       or I.contains(I.element(m)))}


def _is_borel(cfg, I):
    I = _as_monomial(I)
    prio = tuple(range(I.ring.nvars))
    return {d: is_borel_fixed(I, prio, d) for d in ("to-larger", "to-smaller")}


def _socle(cfg, I):
    I = _as_monomial(I)
    return {"candidates": [I.ring.format_exponents(e)
                           for e in socle_candidates(I)]}


def _value_status(pair):
    return dict(zip(("value", "status"), pair))


# command name -> handler(cfg, *argument values) -> report fields; the
# arguments are read by Session.arguments, in COMMAND_SIGNATURES order
HANDLERS = {
    "rr_closure": lambda cfg, I: rr_closure(I, cfg).to_dict(),
    "rr_power": lambda cfg, I, n: rr_power(I, n, cfg).to_dict(),
    "rr_via_reduction":
        lambda cfg, I, J, n: rr_closure_via_reduction(I, J, n, cfg).to_dict(),
    "rr_membership": lambda cfg, m, I: rr_membership_probe(m, I, cfg).to_dict(),
    "is_rr_closed": lambda cfg, I: is_rr_closed(I, cfg).to_dict(),
    "rr_defect": _defect,
    "gb": lambda cfg, I: {"basis": [
        str(p) for p in _as_handle(I).groebner_basis().polynomials]},
    "lt": lambda cfg, I: {"value": str(_as_handle(I).leading_term_ideal())},
    "normal_form": lambda cfg, f, I: {
        "value": str(_as_handle(I).groebner_basis().normal_form(f))},
    "membership": _membership,
    "colon": lambda cfg, A, B: {"value": str(A.colon(B))},
    "intersect": lambda cfg, A, B: {"value": str(A.intersect(B))},
    "sum": lambda cfg, A, B: {"value": str(A + B)},
    "product": lambda cfg, A, B: {"value": str(A * B)},
    "power": lambda cfg, I, n: {"value": str(I.power(n))},
    "min_gens": lambda cfg, I: {"count": len(I.gens), "generators": str(I)},
    "integral_closure": lambda cfg, I: {
        "value": str(integral_closure_monomial(_as_monomial(I)))},
    "ass_primes": lambda cfg, I: {"primes": [
        "(" + ", ".join(p) + ")"
        for p in associated_primes_monomial(_as_monomial(I))]},
    "socle": _socle,
    "is_borel": _is_borel,
    "is_reduction": lambda cfg, I, J: is_reduction(I, J, cfg).to_dict(),
    "reduction_number": lambda cfg, I, J: {"value": reduction_number(I, J, cfg)},
    "rr_reduction_number":
        lambda cfg, I, J: _value_status(rr_reduction_number(I, J, cfg)),
    "s_invariant": lambda cfg, I: _value_status(s_invariant(I, cfg)),
    "superficial": lambda cfg, a, I: superficial_probe(a, I, cfg).to_dict(),
    "gr_nzd": lambda cfg, x, I, w: gr_nzd_probe(x, I, w, cfg).to_dict(),
    "depth_zero": lambda cfg, I:
        depth_zero_witness_search(_as_monomial(I), cfg).to_dict(),
    "prop41":
        lambda cfg, I, x, t: prop41_equivalence_check(I, x, t, cfg).to_dict(),
}


@contextmanager
def located(st):
    """Give an error raised within, which carries no position of its own,
    the line and column of the statement st."""
    try:
        yield
    except RRLabError as exc:
        if exc.line:
            raise
        raise type(exc)(exc.message, st.line, st.col) from None


def resolve(prog: InputProgram, cfg: ClosureConfig):
    """Resolve every statement of prog, in reading order, before any command
    runs: declare its rings and ideals, and give each command its config
    (cfg with the command's overrides) and its argument values.  An error
    is raised here, at its statement's line and column, so no command runs
    unless the whole program resolves.  Returns the session and the
    (command, config, arguments) calls."""
    session = Session()
    calls = []
    for st in prog.statements:
        with located(st):
            if isinstance(st, Command):
                calls.append((st, cfg.replace(**dict(st.overrides)),
                              session.arguments(st)))
            else:
                session.declare(st)
    return session, calls


def run_command(cmd: Command, cfg: ClosureConfig, args: list) -> dict:
    """Run one resolved command on its config and argument values; returns
    a report fragment.  An error it raises names cmd's line and column."""
    out = {"command": cmd.name, "config": cfg.to_dict()}
    with located(cmd):
        out.update(HANDLERS[cmd.name](cfg, *args))
    return out


def run_program(prog: InputProgram, cfg: ClosureConfig) -> List[dict]:
    return [run_command(*call) for call in resolve(prog, cfg)[1]]


# ---------------------------------------------------------------------------
# output


def _command_lines(payload):
    for frag in payload.get("commands", []):
        yield frag["command"] + ":"
        for k, v in frag.items():
            if k not in ("command", "config"):
                yield f"  {k}: {v}"


def _corpus_lines(report):
    mark = {"pass": "ok ", "bounded-pass": "ok~", "fail": "FAIL"}
    for case in report["cases"]:
        yield f"{case['id']}: {case['verdict']}"
        for a in case["assertions"]:
            extra = ""
            if a["verdict"] == "fail" and a["witness"]:
                extra = f"  [{a['witness']}]"
            yield (f"  {mark[a['verdict']]} {a['assertion']}"
                   f" ({a['millis']} ms){extra}")
    total = len(report["cases"])
    failed = sum(1 for c in report["cases"] if c["verdict"] == "fail")
    yield (f"{total - failed}/{total} cases passed"
           + ("" if not failed else f", {failed} failed"))


def _emit(payload, fmt: str, out_path: Optional[str],
          text_lines=_command_lines) -> None:
    if fmt == "json":
        text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    else:
        text = "\n".join(text_lines(payload)) + "\n"
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------------------
# the command line

def _choices(values) -> tuple:
    return "|".join(values), tuple(values)


# An option maps its flag to the name of its value in the usage text and to
# its reader: int, str, or the tuple of the values it may take.
_CONFIG_FLAGS = {field.replace("_", ""): field  # --kmax sets k_max
                 for field in ClosureConfig._fields}
_CONFIG = {flag: (flag.upper(), int) for flag in _CONFIG_FLAGS}
_OUTPUT = {"format": _choices(("text", "json")), "out": ("FILE", str)}

# The words of each command -> the name of its one positional argument (or
# None) and its options.
COMMANDS = {
    ("compute",): ("file", {**_CONFIG, **_OUTPUT}),
    ("gb",): ("file", {"order": _choices(ORDER_KINDS), "vars": ("Y,X", str),
                       **_OUTPUT}),
    ("corpus", "list"): (None, {}),
    ("corpus", "run"): (None, {"filter": ("GLOB", str), "seed": ("S", int),
                               **_CONFIG, **_OUTPUT}),
}


def _usage_line(words, positional, options) -> str:
    parts = ["rrlab", *words] + ([positional.upper()] if positional else [])
    parts += [f"[--{flag} {name}]" for flag, (name, _) in options.items()]
    return " ".join(parts)


USAGE = "".join(_usage_line(words, *spec) + "\n"
                for words, spec in COMMANDS.items())


class UsageError(Exception):
    """A command line that names no command, or that a command does not
    take."""


HELP = ("-h", "--help")


def _is_option(arg: str) -> bool:
    """Whether arg reads as an option, as argparse reads one: a leading
    dash, unless arg is a lone dash or a negative integer."""
    return arg[:1] == "-" and arg != "-" and not arg[1:].isdigit()


def parse_args(argv: List[str]):
    """The words of the command that argv names and the values it gives:
    the positional argument under its name and each option under its flag,
    read by the option's reader.  An option is given as ``--flag value`` or
    ``--flag=value``; the last one given wins.  ``-h`` or ``--help`` where
    a command word or an option may stand gives None for the values."""
    for i, arg in enumerate(argv[:2]):
        if arg in HELP and any(w[:i] == tuple(argv[:i]) for w in COMMANDS):
            return tuple(argv[:i]), None
    for words, (positional, options) in COMMANDS.items():
        if tuple(argv[:len(words)]) == words:
            break
    else:
        raise UsageError(f"unknown command {' '.join(argv[:2])!r}" if argv
                         else "no command given")
    values = {}
    args = iter(argv[len(words):])
    for arg in args:
        if arg in HELP:
            return words, None
        if not _is_option(arg):
            if positional is None or positional in values:
                raise UsageError(f"unexpected argument {arg!r}")
            values[positional] = arg
            continue
        flag, eq, value = arg[2:].partition("=")
        if arg[1] != "-" or flag not in options:
            raise UsageError(f"{' '.join(words)} takes no option "
                             f"{arg.partition('=')[0]}")
        if not eq:
            value = next(args, None)
            if value is None or _is_option(value):
                raise UsageError(f"--{flag} needs a value")
        read = options[flag][1]
        if isinstance(read, tuple):
            if value not in read:
                raise UsageError(f"--{flag} takes {'|'.join(read)}, "
                                 f"not {value!r}")
        elif read is int:
            try:
                value = int(value)
            except ValueError:
                raise UsageError(f"--{flag} takes an integer, "
                                 f"not {value!r}") from None
        values[flag] = value
    if positional is not None and positional not in values:
        raise UsageError(f"{' '.join(words)} needs {positional.upper()}")
    return words, values


def _config_from(values: dict) -> dict:
    """The ClosureConfig fields the command line sets."""
    return {field: values[flag] for flag, field in _CONFIG_FLAGS.items()
            if flag in values}


def _read_program(path: str) -> InputProgram:
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line_start = data.rfind(b"\n", 0, exc.start) + 1
        raise InputError(
            f"{path} is not UTF-8: byte 0x{data[exc.start]:02x} cannot be decoded",
            data.count(b"\n", 0, exc.start) + 1,
            len(data[line_start:exc.start].decode("utf-8")) + 1) from None
    return parse_program(text)


def main(argv: Optional[List[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        words, values = parse_args(argv)
    except UsageError as exc:
        sys.stderr.write(f"rrlab: {exc}\n{USAGE}")
        return EXIT_USAGE
    if values is None:
        sys.stdout.write(USAGE)
        return EXIT_OK
    fmt, out_path = values.get("format", "text"), values.get("out")

    try:
        if words == ("compute",):
            cfg = DEFAULT_CONFIG.replace(**_config_from(values))
            fragments = run_program(_read_program(values["file"]), cfg)
            _emit({"schema": corpus_mod.SCHEMA_VERSION,
                   "commands": fragments}, fmt, out_path)
            return EXIT_OK

        if words == ("gb",):
            prog = _read_program(values["file"])
            session, _ = resolve(prog, DEFAULT_CONFIG)
            ideals = [st.name for st in prog.statements
                      if isinstance(st, IdealDecl)]
            if not ideals:
                sys.stderr.write("rrlab gb: no ideal declared in file\n")
                return EXIT_USAGE
            H = _as_handle(session.ideals[ideals[-1]])
            priority = None
            if values.get("vars"):
                names = [v.strip() for v in values["vars"].split(",")]
                priority = tuple(H.ring.var_index(v) for v in names)
            order = values.get("order", "grevlex")
            basis = H.groebner_basis(MonomialOrder(order, priority))
            _emit({"commands": [{
                "command": "gb",
                "order": order,
                "basis": [str(p) for p in basis.polynomials],
            }]}, fmt, out_path)
            return EXIT_OK

        if words == ("corpus", "list"):
            for cid, note in corpus_mod.list_cases():
                sys.stdout.write(f"{cid}: {note}\n")
            return EXIT_OK

        report = corpus_mod.run_corpus(values.get("filter", ""),
                                       seed=values.get("seed", 0),
                                       overrides=_config_from(values))
        _emit(report, fmt, out_path, _corpus_lines)
        if report["resource_cap"]:
            return EXIT_RESOURCE
        return EXIT_OK if report["passed"] else EXIT_ASSERTION

    except ResourceLimitError as exc:
        sys.stderr.write(f"rrlab: resource cap: {exc}\n")
        return EXIT_RESOURCE
    except (OSError, RRLabError) as exc:
        sys.stderr.write(f"rrlab: {exc}\n")
        return EXIT_USAGE

if __name__ == "__main__":
    sys.exit(main())
