"""Command-line interface: compute, gb, corpus run, corpus list.

Exit codes: 0 success, 1 assertion failure, 2 usage or input error,
3 resource cap hit.
"""

from __future__ import annotations

import argparse
import json
import sys
from contextlib import contextmanager
from dataclasses import replace
from typing import List, Optional

from .core import Field, MonomialOrder, QQ, RingDescriptor
from .errors import (ArityError, InputError, RRLabError, ResourceLimitError,
                     UnsupportedOperationError)
from .groebner import IdealHandle
from .monomial import (MonomialIdeal, associated_primes_monomial,
                       integral_closure_monomial, is_borel_fixed,
                       socle_candidates)
from .parser import (AffineDecl, Command, IdealDecl, InputProgram, RingDecl,
                     SemiringDecl, eval_pair, eval_poly, eval_t_exponent,
                     parse_program)
from .ratliff_rush import (ClosureConfig, DEFAULT_CONFIG,
                           depth_zero_witness_search, gr_nzd_probe,
                           is_rr_closed, rr_closure, rr_closure_via_reduction,
                           rr_defect, rr_membership_probe, rr_power,
                           superficial_probe)
from .reductions import (is_reduction, prop41_equivalence_check,
                         reduction_number, rr_reduction_number, s_invariant)
from .semigroup import (AffineIdeal, AffineSemigroup2D, NumericalSemigroup,
                        SemigroupIdeal)
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
        self.ring = None                 # RingDescriptor / NumericalSemigroup
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
            self.kind, self.ring = "affine", AffineSemigroup2D(st.gens)
        elif isinstance(st, IdealDecl):
            self.ideals[st.name] = self._build_ideal(st)
        else:
            raise UnsupportedOperationError(f"cannot declare {st!r}")

    def _build_ideal(self, st: IdealDecl):
        if self.kind == "poly":
            polys = [eval_poly(g, self.ring) for g in st.gens]
            if not self.ring.quotient and all(len(p.terms) == 1 for p in polys):
                return MonomialIdeal.from_gens(
                    self.ring, [next(iter(p.terms)) for p in polys])
            return IdealHandle(self.ring, polys)
        if self.kind == "ns":
            return SemigroupIdeal.from_gens(
                self.ring, [eval_t_exponent(g) for g in st.gens])
        if self.kind == "affine":
            return AffineIdeal.from_gens(
                self.ring, [eval_pair(g) for g in st.gens])
        raise UnsupportedOperationError("declare a ring before any ideal")

    # -- elements -----------------------------------------------------------

    def element(self, arg):
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
        elif self.kind == "affine":
            if kind == "pair":
                return eval_pair(("pair", value))
        raise ArityError(f"element argument {arg!r} does not fit this ring")

    def ideal(self, arg):
        return self.ideals[arg[1]]

    def ideal_pair(self, a, b):
        """The declared ideals a and b, of one type: when their types differ
        (a monomial ideal beside a polynomial one), both become handles."""
        A, B = self.ideal(a), self.ideal(b)
        if type(A) is not type(B):
            A, B = _as_handle(A), _as_handle(B)
        return A, B


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
    if isinstance(I, IdealHandle) and I.is_monomial() and not I.ring.quotient:
        return I.to_monomial_ideal()
    raise UnsupportedOperationError("this command needs a monomial ideal")


def run_command(session: Session, cmd: Command, cfg: ClosureConfig) -> dict:
    """Execute one command against the session; returns a report fragment."""
    cfg = replace(cfg, **dict(cmd.overrides))
    name = cmd.name
    args = cmd.args
    out = {"command": name,
           "config": {"k_max": cfg.k_max, "window": cfg.window,
                      "n_max": cfg.n_max}}

    if name in ("rr_closure", "is_rr_closed", "rr_defect", "rr_power"):
        I = session.ideal(args[0])
        if name == "rr_closure":
            out.update(rr_closure(I, cfg).to_dict())
        elif name == "rr_power":
            out.update(rr_power(I, args[1][1], cfg).to_dict())
        elif name == "is_rr_closed":
            out.update(is_rr_closed(I, cfg).to_dict())
        else:
            D = rr_defect(I, args[1][1], cfg)
            out["empty"] = D.is_empty()
            out["representatives"] = [str(r) for r in D.representatives]
    elif name == "rr_via_reduction":
        I, J = session.ideal_pair(args[0], args[1])
        out.update(rr_closure_via_reduction(I, J, args[2][1], cfg).to_dict())
    elif name == "rr_membership":
        m, I = session.element(args[0]), session.ideal(args[1])
        out.update(rr_membership_probe(m, I, cfg).to_dict())
    elif name == "gb":
        H = _as_handle(session.ideal(args[0]))
        out["basis"] = [str(p) for p in H.groebner_basis().polynomials]
    elif name == "lt":
        H = _as_handle(session.ideal(args[0]))
        out["value"] = str(H.leading_term_ideal())
    elif name == "normal_form":
        f = session.element(args[0])
        H = _as_handle(session.ideal(args[1]))
        out["value"] = str(H.groebner_basis().normal_form(f))
    elif name == "membership":
        m, I = session.element(args[0]), session.ideal(args[1])
        out["member"] = I.contains(I.element(m))
    elif name in ("colon", "intersect", "sum", "product"):
        A, B = session.ideal_pair(args[0], args[1])
        value = {"colon": A.colon, "intersect": A.intersect,
                 "sum": A.__add__, "product": A.__mul__}[name](B)
        out["value"] = str(value)
    elif name == "power":
        out["value"] = str(session.ideal(args[0]).power(args[1][1]))
    elif name == "min_gens":
        I = session.ideal(args[0])
        gens = I.gens
        out["count"] = len(gens)
        out["generators"] = str(I)
    elif name == "integral_closure":
        out["value"] = str(
            integral_closure_monomial(_as_monomial(session.ideal(args[0]))))
    elif name == "ass_primes":
        primes = associated_primes_monomial(_as_monomial(session.ideal(args[0])))
        out["primes"] = ["(" + ", ".join(p) + ")" for p in primes]
    elif name == "socle":
        I = _as_monomial(session.ideal(args[0]))
        out["candidates"] = [I.ring.format_exponents(e)
                             for e in socle_candidates(I)]
    elif name == "is_borel":
        I = _as_monomial(session.ideal(args[0]))
        prio = tuple(range(I.ring.nvars))
        out["to-larger"] = is_borel_fixed(I, prio, "to-larger")
        out["to-smaller"] = is_borel_fixed(I, prio, "to-smaller")
    elif name == "is_reduction":
        I, J = session.ideal_pair(args[0], args[1])
        out.update(is_reduction(I, J, cfg.n_max).to_dict())
    elif name == "reduction_number":
        I, J = session.ideal_pair(args[0], args[1])
        out["value"] = reduction_number(I, J, cfg.n_max)
    elif name == "rr_reduction_number":
        I, J = session.ideal_pair(args[0], args[1])
        n, status = rr_reduction_number(I, J, cfg)
        out["value"], out["status"] = n, status
    elif name == "s_invariant":
        n, status = s_invariant(session.ideal(args[0]), cfg)
        out["value"], out["status"] = n, status
    elif name == "superficial":
        a, I = session.element(args[0]), session.ideal(args[1])
        out.update(superficial_probe(a, I, cfg).to_dict())
    elif name == "gr_nzd":
        x, I, w = (session.element(args[0]), session.ideal(args[1]),
                   args[2][1])
        out.update(gr_nzd_probe(x, I, w, cfg).to_dict())
    elif name == "depth_zero":
        I = _as_monomial(session.ideal(args[0]))
        out.update(depth_zero_witness_search(I, cfg).to_dict())
    elif name == "prop41":
        I, x, t = (session.ideal(args[0]), session.element(args[1]),
                   args[2][1])
        out.update(prop41_equivalence_check(I, x, t, cfg).to_dict())
    else:
        raise ArityError(f"unknown command {name!r}", cmd.line, cmd.col)
    return out


@contextmanager
def _located(st):
    """Give an input error raised while executing st, which carries no
    position of its own, the line and column of st."""
    try:
        yield
    except InputError as exc:
        if exc.line:
            raise
        raise type(exc)(exc.message, st.line, st.col) from None


def run_program(prog: InputProgram, cfg: ClosureConfig) -> List[dict]:
    session = Session()
    fragments = []
    for st in prog.statements:
        with _located(st):
            if isinstance(st, Command):
                fragments.append(run_command(session, st, cfg))
            else:
                session.declare(st)
    return fragments


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
# argument parsing


def _build_argparser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="rrlab",
        description="Exact closure, reduction and semigroup ideal calculator")
    sub = top.add_subparsers(dest="subcommand", required=True)

    def add_cfg(p):
        p.add_argument("--kmax", type=int, default=None)
        p.add_argument("--window", type=int, default=None)
        p.add_argument("--nmax", type=int, default=None)
        p.add_argument("--format", choices=("text", "json"), default="text")
        p.add_argument("--out", default=None)

    comp = sub.add_parser("compute", help="run an input-language file")
    comp.add_argument("file")
    add_cfg(comp)

    gb = sub.add_parser("gb", help="reduced basis of the last declared ideal")
    gb.add_argument("file")
    gb.add_argument("--order", choices=("lex", "grlex", "grevlex"),
                    default="grevlex")
    gb.add_argument("--vars", default=None,
                    help="comma-separated variable names, largest first")
    gb.add_argument("--format", choices=("text", "json"), default="text")
    gb.add_argument("--out", default=None)

    corp = sub.add_parser("corpus", help="built-in verification corpus")
    corp_sub = corp.add_subparsers(dest="corpus_command", required=True)
    run_p = corp_sub.add_parser("run", help="run corpus cases")
    run_p.add_argument("--filter", default="", help="case id glob")
    run_p.add_argument("--seed", type=int, default=0)
    add_cfg(run_p)
    corp_sub.add_parser("list", help="list corpus case ids")

    return top


def _config_from(ns) -> dict:
    """The ClosureConfig fields the command line sets."""
    flags = {"k_max": ns.kmax, "window": ns.window, "n_max": ns.nmax}
    return {k: v for k, v in flags.items() if v is not None}


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
    parser = _build_argparser()
    try:
        ns = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code else EXIT_OK

    try:
        if ns.subcommand == "compute":
            cfg = replace(DEFAULT_CONFIG, **_config_from(ns))
            fragments = run_program(_read_program(ns.file), cfg)
            _emit({"schema": corpus_mod.SCHEMA_VERSION,
                   "commands": fragments}, ns.format, ns.out)
            return EXIT_OK

        if ns.subcommand == "gb":
            session = Session()
            last = None
            for st in _read_program(ns.file).statements:
                if not isinstance(st, Command):
                    with _located(st):
                        session.declare(st)
                    if isinstance(st, IdealDecl):
                        last = st.name
            if last is None:
                sys.stderr.write("rrlab gb: no ideal declared in file\n")
                return EXIT_USAGE
            if session.kind != "poly":
                sys.stderr.write("rrlab gb: needs a polynomial ring\n")
                return EXIT_USAGE
            priority = None
            if ns.vars:
                names = [v.strip() for v in ns.vars.split(",")]
                priority = tuple(session.ring.var_index(v) for v in names)
            order = MonomialOrder(ns.order, priority)
            H = _as_handle(session.ideals[last])
            basis = H.groebner_basis(order)
            _emit({"commands": [{
                "command": "gb",
                "order": ns.order,
                "basis": [str(p) for p in basis.polynomials],
            }]}, ns.format, ns.out)
            return EXIT_OK

        if ns.subcommand == "corpus":
            if ns.corpus_command == "list":
                for cid, note in corpus_mod.list_cases():
                    sys.stdout.write(f"{cid}: {note}\n")
                return EXIT_OK
            report = corpus_mod.run_corpus(ns.filter, seed=ns.seed,
                                           overrides=_config_from(ns))
            _emit(report, ns.format, ns.out, _corpus_lines)
            if report["resource_cap"]:
                return EXIT_RESOURCE
            return EXIT_OK if report["passed"] else EXIT_ASSERTION

    except ResourceLimitError as exc:
        sys.stderr.write(f"rrlab: resource cap: {exc}\n")
        return EXIT_RESOURCE
    except (OSError, RRLabError) as exc:
        sys.stderr.write(f"rrlab: {exc}\n")
        return EXIT_USAGE
    return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
