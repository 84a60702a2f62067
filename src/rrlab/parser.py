"""Input language: ring/ideal declarations plus one-line commands.

Grammar (semicolon-terminated statements)::

    program   := (ring | semiring | affine | ideal | command ";")*
    ring      := "ring" NAME "=" field "[" vars "]" ("/" "(" polys ")")?
    field     := "QQ" | "F" INT | "F"DIGITS     -- F_p as `F 7` or `F7`
    semiring  := "semiring" NAME "=" "<" ints ">"
    affine    := "affine" NAME "=" "<" pairs ">"
    ideal     := "ideal" NAME "=" "(" gen ("," gen)* ")"
    gen       := "(" poly "," poly ")" | poly     -- exponent pair or polynomial
    command   := OP arg* (NAME "=" INT)*          -- trailing config overrides
    arg       := INT | NAME | gen                 -- a gen that opens with "("

Polynomials use explicit infix: `X^4*Y^2 - X^2*Y^4`; a generator or
element may open with a parenthesized factor, `(X + Y)^2*X - Y`.
Numerical-semigroup generators are written `t^8` or plain integers; affine
generators are pairs `(2,5)`.

Every statement is checked as it is read: a polynomial after a `ring` or
`semiring` may name only its variables (`t`), an ideal needs a ring before
it, and a command must match its ``COMMAND_SIGNATURES`` entry and name
declared ideals.  So the first such error in reading order is reported.
Errors carry (line, column) and are classed as lexical, syntactic, arity,
or unknown-identifier.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from .core import Polynomial, Record, RingDescriptor
from .errors import (ArityError, LexicalError, SyntacticError,
                     UnknownIdentifierError)
from .ratliff_rush import ClosureConfig

SYMBOLS = set(";=[](){}<>/^*+-,")
# ASCII only: str.isdigit also holds for '²', which int() refuses, and for
# the digits of other scripts
DIGITS = set("0123456789")

# parentheses and unary minus signs open at once within a polynomial; each
# costs a few frames of recursion in the parser and in eval_poly
MAX_NESTING = 50


class Token(Record):
    """kind is 'ident', 'int', 'sym' or 'eof'."""

    _fields = ("kind", "value", "line", "col")


def tokenize(text: str) -> List[Token]:
    tokens: List[Token] = []
    line, col = 1, 1
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if ch.isspace():
            i += 1
            col += 1
            continue
        if ch == "#":  # comment to end of line
            while i < n and text[i] != "\n":
                i += 1
            continue
        start_col = col
        if ch in DIGITS:
            j = i
            while j < n and text[j] in DIGITS:
                j += 1
            tokens.append(Token("int", text[i:j], line, start_col))
            col += j - i
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(Token("ident", text[i:j], line, start_col))
            col += j - i
            i = j
            continue
        if ch in SYMBOLS:
            tokens.append(Token("sym", ch, line, start_col))
            i += 1
            col += 1
            continue
        raise LexicalError(f"unexpected character {ch!r}", line, col)
    tokens.append(Token("eof", "", line, col))
    return tokens


# ---------------------------------------------------------------------------
# AST

# ('+', ((sign, term), ...)) with sign '+' or '-', ('*', (factor, ...)),
# ('^', a, int), ('neg', a), ('int', n), ('var', name): a chain of terms or
# factors is one node, so the tree is as deep as the nesting, not the chain.
PolyAST = tuple


class _Statement(Record):
    """A statement: its position, ``line`` and ``col``, binds by keyword
    only (default 0), comes first in the repr and is left out of ``==``."""

    _keyword = ("line", "col")
    _defaults = {"line": 0, "col": 0}
    _uncompared = ("line", "col")


class RingDecl(_Statement):
    """field_char is 0 for the rationals."""

    _fields = ("line", "col", "name", "field_char", "variables", "quotient")


class SemiringDecl(_Statement):
    _fields = ("line", "col", "name", "gens")


class AffineDecl(_Statement):
    _fields = ("line", "col", "name", "gens")


class IdealDecl(_Statement):
    _fields = ("line", "col", "name", "gens")


class Command(_Statement):
    """args are (kind, value) pairs of kind 'int', 'ident', 'poly' or 'pair'."""

    _fields = ("line", "col", "name", "args", "overrides")


class InputProgram(Record):
    _fields = ("statements",)


# command name -> expected argument kinds: 'int' (an integer literal),
# 'elem' (a parenthesized element) or an ideal kind of cli.IDEAL_KINDS
COMMAND_SIGNATURES: Dict[str, Tuple[str, ...]] = {
    "rr_closure": ("regular",),
    "rr_power": ("regular", "int"),
    "rr_via_reduction": ("regular", "ideal", "int"),
    "rr_membership": ("elem", "regular"),
    "is_rr_closed": ("regular",),
    "rr_defect": ("regular", "int"),
    "gb": ("polynomial",),
    "lt": ("polynomial",),
    "normal_form": ("elem", "polynomial"),
    "membership": ("elem", "ideal"),
    "colon": ("ideal", "ideal"),
    "intersect": ("ideal", "ideal"),
    "sum": ("ideal", "ideal"),
    "product": ("ideal", "ideal"),
    "power": ("ideal", "int"),
    "min_gens": ("ideal",),
    "integral_closure": ("monomial",),
    "ass_primes": ("monomial",),
    "socle": ("monomial",),
    "is_borel": ("monomial",),
    "is_reduction": ("ideal", "ideal"),
    "reduction_number": ("ideal", "ideal"),
    "rr_reduction_number": ("regular", "ideal"),
    "s_invariant": ("regular",),
    "superficial": ("elem", "ideal"),
    "gr_nzd": ("elem", "ideal", "int"),
    "depth_zero": ("monomial",),
    "prop41": ("regular", "elem", "int"),
}


class _Parser:
    """Reads and checks a token list.  ``names`` holds the variables a
    polynomial may use, None when any name passes; ``at`` is the statement
    being read, where its checks report, or None to report at the token."""

    def __init__(self, tokens: List[Token], names: Optional[set] = None):
        self.toks = tokens
        self.pos = 0
        self.depth = 0  # parentheses and unary minus signs open
        self.names = names
        self.at: Optional[Token] = None
        self.have_ring = False
        self.ideals: set = set()

    def peek(self) -> Token:
        return self.toks[self.pos]

    def next(self) -> Token:
        t = self.toks[self.pos]
        self.pos += 1
        return t

    def accept(self, kind: str, value: Optional[str] = None) -> Optional[Token]:
        t = self.peek()
        if t.kind == kind and (value is None or t.value == value):
            return self.next()
        return None

    def expect(self, kind: str, value: Optional[str] = None) -> Token:
        t = self.accept(kind, value)
        if t is None:
            got = self.peek()
            want = value if value is not None else kind
            raise SyntacticError(f"expected {want!r}, found {got.value!r}",
                                 got.line, got.col)
        return t

    def items(self, open_: str, item, close: str) -> tuple:
        """open_ item ("," item)* close: the items read, in order."""
        self.expect("sym", open_)
        out = [item()]
        while self.accept("sym", ","):
            out.append(item())
        self.expect("sym", close)
        return tuple(out)

    # -- polynomials --------------------------------------------------------

    def nest(self, t: Token) -> None:
        """Open one more parenthesis or unary minus sign, at t."""
        self.depth += 1
        if self.depth > MAX_NESTING:
            raise SyntacticError(
                f"parentheses and unary minus signs nest deeper than {MAX_NESTING}",
                t.line, t.col)

    # first: a factor already read, which opens the polynomial, term or factor

    def poly(self, first: Optional[PolyAST] = None) -> PolyAST:
        terms = [("+", self.term(first))]
        while True:
            t = self.peek()
            if t.kind != "sym" or t.value not in ("+", "-"):
                break
            self.next()
            terms.append((t.value, self.term()))
        return ("+", tuple(terms)) if len(terms) > 1 else terms[0][1]

    def term(self, first: Optional[PolyAST] = None) -> PolyAST:
        t = self.peek()
        if first is None and self.accept("sym", "-"):
            self.nest(t)
            node = ("neg", self.term())
            self.depth -= 1
            return node
        factors = [self.factor(first)]
        while self.accept("sym", "*"):
            factors.append(self.factor())
        return ("*", tuple(factors)) if len(factors) > 1 else factors[0]

    def factor(self, first: Optional[PolyAST] = None) -> PolyAST:
        t = self.peek()
        if first is not None:
            node: PolyAST = first
        elif t.kind == "int":
            self.next()
            node = ("int", int(t.value))
        elif t.kind == "ident":
            self.next()
            if self.names is not None and t.value not in self.names:
                at = self.at or t
                raise UnknownIdentifierError(f"unknown variable {t.value!r}",
                                             at.line, at.col)
            node = ("var", t.value)
        elif self.accept("sym", "("):
            self.nest(t)
            node = self.poly()
            self.expect("sym", ")")
            self.depth -= 1
        else:
            raise SyntacticError(f"expected a polynomial factor, found {t.value!r}",
                                 t.line, t.col)
        if self.accept("sym", "^"):
            e = self.expect("int")
            node = ("^", node, int(e.value))
        return node

    # -- declarations -------------------------------------------------------

    def ring_decl(self, at: Token) -> RingDecl:
        name = self.expect("ident").value
        self.expect("sym", "=")
        ft = self.expect("ident")
        if ft.value == "QQ":
            char = 0
        elif ft.value == "F":
            char = int(self.expect("int").value)
        elif ft.value[0] == "F" and ft.value[1:].isascii() and ft.value[1:].isdigit():
            char = int(ft.value[1:])  # `F7`, as Field prints it
        else:
            raise SyntacticError(f"unknown field {ft.value!r}", ft.line, ft.col)
        if ft.value != "QQ" and char == 0:
            raise SyntacticError("characteristic 0 is written QQ", ft.line, ft.col)
        variables = self.items("[", lambda: self.expect("ident").value, "]")
        self.names, self.have_ring = set(variables), True
        quotient = self.items("(", self.poly, ")") if self.accept("sym", "/") else ()
        self.expect("sym", ";")
        return RingDecl(name, char, variables, quotient, line=at.line, col=at.col)

    def integer(self) -> int:
        return int(self.expect("int").value)

    def pair(self) -> Tuple[int, int]:
        self.expect("sym", "(")
        a = self.integer()
        self.expect("sym", ",")
        b = self.integer()
        self.expect("sym", ")")
        return (a, b)

    def semigroup_decl(self, at: Token, decl, item, names: Optional[set]):
        """A `semiring` (decl SemiringDecl, item an integer, names {"t"})
        or an `affine` ring (AffineDecl, pairs, None: any name passes)."""
        name = self.expect("ident").value
        self.expect("sym", "=")
        gens = self.items("<", item, ">")
        self.expect("sym", ";")
        self.names, self.have_ring = names, True
        return decl(name, gens, line=at.line, col=at.col)

    def gen(self) -> PolyAST:
        """One ideal generator or command element: a polynomial or an
        affine exponent pair.  A parenthesis that closes without a comma
        holds the first factor of the polynomial."""
        if not self.accept("sym", "("):
            return self.poly()
        node = self.poly()
        if self.accept("sym", ","):
            second = self.poly()
            self.expect("sym", ")")
            return ("pair", (node, second))
        self.expect("sym", ")")
        return self.poly(node)

    def ideal_decl(self, at: Token) -> IdealDecl:
        if not self.have_ring:
            raise UnknownIdentifierError("ideal declared before any ring",
                                         at.line, at.col)
        name = self.expect("ident").value
        self.expect("sym", "=")
        gens = self.items("(", self.gen, ")")
        self.expect("sym", ";")
        self.ideals.add(name)
        return IdealDecl(name, gens, line=at.line, col=at.col)

    # -- commands -----------------------------------------------------------

    def command(self, opname: Token) -> Command:
        name, at = opname.value, (opname.line, opname.col)
        sig = COMMAND_SIGNATURES.get(name)
        if sig is None:
            raise UnknownIdentifierError(f"unknown command {name!r}", *at)
        args: List[Tuple[str, object]] = []
        overrides: List[Tuple[str, int]] = []
        while not self.accept("sym", ";"):
            t = self.peek()
            if t.kind == "int":
                self.next()
                args.append(("int", int(t.value)))
            elif t.kind == "ident":
                self.next()
                if self.accept("sym", "="):
                    v = self.expect("int")
                    if t.value not in ClosureConfig._fields:
                        raise SyntacticError(f"unknown config key {t.value!r}",
                                             t.line, t.col)
                    overrides.append((t.value, int(v.value)))
                else:
                    args.append(("ident", t.value))
            elif t.kind == "sym" and t.value == "(":
                node = self.gen()
                args.append(node if node[0] == "pair" else ("poly", node))
            else:
                raise SyntacticError(f"unexpected token {t.value!r} in command",
                                     t.line, t.col)
        if len(args) != len(sig):
            raise ArityError(
                f"{name} takes {len(sig)} argument(s), got {len(args)}", *at)
        for arg, want in zip(args, sig):
            kind, value = arg
            if want not in ("int", "elem"):  # an ideal kind
                if kind != "ident":
                    raise ArityError(f"{name}: expected an ideal name", *at)
                if value not in self.ideals:
                    raise UnknownIdentifierError(f"unknown ideal {value!r}", *at)
            elif want == "int" and kind != "int":
                raise ArityError(f"{name}: expected an integer", *at)
            elif want == "elem" and kind not in ("poly", "pair", "int"):
                raise ArityError(f"{name}: expected a parenthesized element", *at)
        return Command(name, tuple(args), tuple(overrides),
                       line=opname.line, col=opname.col)

    def program(self) -> InputProgram:
        statements: List[object] = []
        while self.peek().kind != "eof":
            t = self.at = self.next()
            if t.kind != "ident":
                raise SyntacticError(f"expected a statement, found {t.value!r}",
                                     t.line, t.col)
            if t.value == "ring":
                statements.append(self.ring_decl(t))
            elif t.value == "semiring":
                statements.append(
                    self.semigroup_decl(t, SemiringDecl, self.integer, {"t"}))
            elif t.value == "affine":
                statements.append(
                    self.semigroup_decl(t, AffineDecl, self.pair, None))
            elif t.value == "ideal":
                statements.append(self.ideal_decl(t))
            else:
                statements.append(self.command(t))
        return InputProgram(tuple(statements))


def parse_program(text: str) -> InputProgram:
    return _Parser(tokenize(text)).program()


# ---------------------------------------------------------------------------
# evaluation helpers


def eval_poly(ast: PolyAST, ring: RingDescriptor) -> Polynomial:
    op = ast[0]
    if op == "int":
        return ring.constant(ast[1])
    if op == "var":
        return ring.variable(ast[1])
    if op == "neg":
        return -eval_poly(ast[1], ring)
    if op == "+":  # one pass over all the terms
        out: dict = {}
        for sign, term in ast[1]:
            p = eval_poly(term, ring)
            for e, c in (p if sign == "+" else -p).terms.items():
                s = out[e] + c if e in out else c
                if s:
                    out[e] = s
                else:
                    del out[e]
        return Polynomial(ring, out)
    if op == "*":
        factors = iter(ast[1])
        product = eval_poly(next(factors), ring)
        for f in factors:
            product = product * eval_poly(f, ring)
        return product
    if op == "^":
        return eval_poly(ast[1], ring) ** ast[2]
    # the parser makes one other node, a pair; format_poly_ast refuses any
    raise SyntacticError(
        f"exponent pair {format_poly_ast(ast)} is not a polynomial", 0, 0)


def eval_t_exponent(ast: PolyAST) -> int:
    """Evaluate a numerical-semigroup generator: `t^8`, `t`, or an integer."""
    if ast[0] == "int":
        return ast[1]
    if ast == ("var", "t"):
        return 1
    if ast[0] == "^" and ast[1] == ("var", "t"):
        return ast[2]
    raise SyntacticError("semigroup generators are written t^k or as integers", 0, 0)


def eval_pair(ast: PolyAST) -> Tuple[int, int]:
    if ast[0] == "pair":
        a, b = ast[1]
    else:
        raise SyntacticError("expected an exponent pair (a, b)", 0, 0)
    if a[0] != "int" or b[0] != "int":
        raise SyntacticError("exponent pairs must be integers", 0, 0)
    return (a[1], b[1])


def parse_polynomial(ring: RingDescriptor, text: str) -> Polynomial:
    p = _Parser(tokenize(text), set(ring.variables))
    ast = p.poly()
    if p.peek().kind != "eof":
        t = p.peek()
        raise SyntacticError(f"trailing input {t.value!r}", t.line, t.col)
    return eval_poly(ast, ring)


# ---------------------------------------------------------------------------
# formatting (round-trip support)


def format_poly_ast(ast: PolyAST, within: int = 0) -> str:
    """The source text of a node that parses back to it.  A node binds at
    level 0 (a sum), 1 (a product or negation), 2 (a power) or 3; it is
    parenthesized when its level is below ``within``, the least level its
    place in the grammar takes."""
    op = ast[0]
    if op == "int":
        return str(ast[1])
    if op == "var":
        return ast[1]
    if op == "pair":
        a, b = ast[1]
        return f"({format_poly_ast(a)}, {format_poly_ast(b)})"
    if op == "+":
        level = 0
        text = "".join(f" {sign} {format_poly_ast(term, 1)}" if i else
                       format_poly_ast(term, 1)
                       for i, (sign, term) in enumerate(ast[1]))
    elif op == "neg":
        level, text = 1, f"-{format_poly_ast(ast[1], 1)}"
    elif op == "*":
        level, text = 1, "*".join(format_poly_ast(f, 2) for f in ast[1])
    elif op == "^":
        level, text = 2, f"{format_poly_ast(ast[1], 3)}^{ast[2]}"
    else:
        raise SyntacticError(f"bad polynomial node {op!r}", 0, 0)
    return f"({text})" if level < within else text


def format_arg(arg) -> str:
    """The source text of a command argument (kind, value)."""
    kind, value = arg
    if kind == "poly":
        return f"({format_poly_ast(value)})"
    return format_poly_ast(arg) if kind == "pair" else str(value)


def format_program(prog: InputProgram) -> str:
    lines = []
    for st in prog.statements:
        if isinstance(st, RingDecl):
            fld = "QQ" if st.field_char == 0 else f"F {st.field_char}"
            quo = ""
            if st.quotient:
                quo = " / (" + ", ".join(map(format_poly_ast, st.quotient)) + ")"
            lines.append(f"ring {st.name} = {fld}[{','.join(st.variables)}]{quo};")
        elif isinstance(st, SemiringDecl):
            lines.append(f"semiring {st.name} = <{','.join(map(str, st.gens))}>;")
        elif isinstance(st, AffineDecl):
            body = ", ".join(f"({a},{b})" for a, b in st.gens)
            lines.append(f"affine {st.name} = <{body}>;")
        elif isinstance(st, IdealDecl):
            lines.append(f"ideal {st.name} = ("
                         + ", ".join(map(format_poly_ast, st.gens)) + ");")
        elif isinstance(st, Command):
            parts = [st.name, *map(format_arg, st.args)]
            for k, v in st.overrides:
                parts.append(f"{k}={v}")
            lines.append(" ".join(parts) + ";")
    return "\n".join(lines) + "\n"
