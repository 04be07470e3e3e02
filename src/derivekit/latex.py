"""Bidirectional LaTeX conversion for expression trees.

The printer mirrors the rendering style of the generated corpora exactly
(``\\frac`` for quotients, ``\\int ... d<var>``, ``\\frac{d}{d x}`` vs
``\\frac{\\partial}{\\partial x}`` chosen by the number of distinct symbols
in the body, ``\\operatorname`` for multi-letter plain-ASCII function names).
The parser accepts the emitted grammar plus arbitrary whitespace; it is not
a general LaTeX math parser. See docs/latex-grammar.md.
"""
from __future__ import annotations

import re
import string
from fractions import Fraction
from typing import Optional

from .expr import (
    Add,
    AppliedFunction,
    Derivative,
    Equation,
    Expr,
    ExprError,
    Func,
    Integer,
    Integral,
    Mul,
    Pow,
    Rational,
    Symbol,
    add,
    applied,
    derivative,
    div,
    exact_value,
    func,
    integral,
    mul,
    neg,
    pow_,
    symbol_nodes,
)

__all__ = [
    "to_latex",
    "equation_to_latex",
    "parse_latex",
    "parse_equation",
    "count_lexemes",
    "LatexParseError",
    "RenderError",
]


class RenderError(Exception):
    """An expression cannot be rendered (unresolvable name)."""


class LatexParseError(Exception):
    def __init__(self, message: str, pos: int):
        super().__init__(f"{message} (at position {pos})")
        self.pos = pos


# ---------------------------------------------------------------------------
# printer

_SIMPLE_HEAD = re.compile(r"^[A-Za-z]$")


def _is_simple_head(name: str) -> bool:
    # single ASCII letters and \command-decorated glyphs print bare;
    # every other name, a single non-ASCII letter too, gets \operatorname
    return bool(_SIMPLE_HEAD.match(name)) or name.startswith("\\")


def _signed(e: Expr) -> tuple[bool, str]:
    """Render e as (is_negative, latex of |e|)."""
    q = exact_value(e)
    if q is not None:
        return q < 0, _number_str(abs(q))
    if type(e) is Mul:
        return _mul_str(e)
    return False, to_latex(e)


def _number_str(q: int | Fraction) -> str:
    if q.denominator == 1:
        return str(q.numerator)
    return f"\\frac{{{q.numerator}}}{{{q.denominator}}}"


def _mul_operand(f: Expr) -> str:
    s = to_latex(f)
    if type(f) is Add:
        return f"({s})"
    return s


def _mul_str(e: Mul) -> tuple[bool, str]:
    """Render a product as (is_negative, latex of |e|)."""
    coeff = 1
    num_factors: list[Expr] = []
    den_factors: list[tuple[Expr, int | Fraction]] = []
    for f in e.factors:
        q = exact_value(f)
        if q is not None:
            coeff *= q
            continue
        if type(f) is Pow:
            fq = exact_value(f.exp)
            if fq is not None and fq < 0:
                den_factors.append((f.base, -fq))
                continue
        num_factors.append(f)

    def render_run(items: list[str], exprs: list[Optional[Expr]]) -> str:
        # a derivative/integral factor binds everything to its right when
        # parsed back, so it may only appear bare in final position
        out = []
        for j, (s, x) in enumerate(zip(items, exprs)):
            if x is not None and type(x) in (Derivative, Integral) and j < len(items) - 1:
                out.append(f"({s})")
            else:
                out.append(s)
        return " ".join(out)

    negative, coeff = coeff < 0, abs(coeff)
    fraction = bool(den_factors) or coeff.denominator != 1
    if fraction and len(num_factors) == 1 and coeff.numerator == 1:
        # a lone sum in a \frac numerator/denominator needs no parentheses
        num_parts = [to_latex(num_factors[0])]
    else:
        num_parts = [_mul_operand(f) for f in num_factors]
    num_exprs: list[Optional[Expr]] = list(num_factors)
    if fraction and len(den_factors) == 1 and den_factors[0][1] == 1 and coeff.denominator == 1:
        den_parts = [to_latex(den_factors[0][0])]
    else:
        den_parts = [
            _mul_operand(b) if q == 1 else _pow_str(b, q) for b, q in den_factors
        ]
    den_exprs: list[Optional[Expr]] = [b if q == 1 else None for b, q in den_factors]
    if coeff.numerator != 1 or not num_parts:
        num_parts.insert(0, str(coeff.numerator))
        num_exprs.insert(0, None)
    if coeff.denominator != 1:
        den_parts.insert(0, str(coeff.denominator))
        den_exprs.insert(0, None)
    num = render_run(num_parts, num_exprs)
    if den_parts:
        return negative, f"\\frac{{{num}}}{{{render_run(den_parts, den_exprs)}}}"
    return negative, num


def _pow_base_str(base: Expr) -> str:
    if type(base) is Symbol:
        return base.name
    if type(base) is Integer and base.value >= 0:
        return str(base.value)
    return f"({to_latex(base)})"


def _pow_str(base: Expr, exp_q: int | Fraction) -> str:
    if exp_q == 1:
        return to_latex(base)
    return f"{_pow_base_str(base)}^{{{_number_str(exp_q)}}}"


def _body_str(body: Expr) -> str:
    """Derivative/integral body: sums and negative-leading terms take parens."""
    negative, s = _signed(body)
    if type(body) is Add or negative:
        return f"({to_latex(body)})"
    return s


def to_latex(e: Expr) -> str:
    """The LaTeX of e, rendered once per node: nodes are interned, so every
    tree that holds an equal subtree while it lives reuses its text."""
    text = e._tex
    if text is None:
        text = e._tex = _render(e)
    return text


def _render(e: Expr) -> str:
    t = type(e)
    if t is Integer:
        return str(e.value)
    if t is Symbol:
        return e.name
    if t is Add:
        parts: list[str] = []
        for i, term in enumerate(e.terms):
            negative, body = _signed(term)
            if i == 0:
                parts.append(f"- {body}" if negative else body)
            else:
                parts.append(f"- {body}" if negative else f"+ {body}")
        return " ".join(parts)
    if t is Mul or t is Rational:
        negative, body = _signed(e)
        return f"- {body}" if negative else body
    if t is Pow:
        q = exact_value(e.exp)
        if q is not None and q < 0:
            return f"\\frac{{1}}{{{_pow_str(e.base, -q)}}}"
        return f"{_pow_base_str(e.base)}^{{{to_latex(e.exp)}}}"
    if t is Func:
        if e.kind == "exp":
            return f"e^{{{to_latex(e.arg)}}}"
        return f"\\{e.kind}{{({to_latex(e.arg)})}}"
    if t is AppliedFunction:
        if not e.name:
            raise RenderError("empty function name")
        head = e.name if _is_simple_head(e.name) else f"\\operatorname{{{e.name}}}"
        args = ",".join(to_latex(a) for a in e.args)
        return f"{head}{{({args})}}"
    if t is Derivative:
        marker = "d" if len(symbol_nodes(e.body)) <= 1 else "\\partial"
        if e.order == 1:
            head = f"\\frac{{{marker}}}{{{marker} {e.var.name}}}"
        else:
            head = f"\\frac{{{marker}^{{{e.order}}}}}{{{marker} {e.var.name}^{{{e.order}}}}}"
        return f"{head} {_body_str(e.body)}"
    if t is Integral:
        return f"\\int {_body_str(e.body)} d{e.var.name}"
    raise RenderError(f"cannot render {t!r}")


def equation_to_latex(eq: Equation) -> str:
    text = eq._tex
    if text is None:
        text = f"{to_latex(eq.lhs)} = {to_latex(eq.rhs)}"
        eq._tex = text
    return text


# ---------------------------------------------------------------------------
# token estimator

_LEXEME = re.compile(r"\\[A-Za-z]+|[A-Za-z]+|[0-9]+|\S")


def count_lexemes(text: str) -> int:
    """Deterministic token-count proxy: LaTeX commands, identifier runs,
    digit runs, and any other non-space character each count as one lexeme."""
    return len(_LEXEME.findall(text))


# ---------------------------------------------------------------------------
# scanner

_CMD = "CMD"
_LETTER = "LETTER"
_DIGITS = "DIGITS"
_EOF = "EOF"

_PUNCT = {
    "{": "LBRACE",
    "}": "RBRACE",
    "(": "LPAREN",
    ")": "RPAREN",
    "+": "PLUS",
    "-": "MINUS",
    "=": "EQUALS",
    "^": "CARET",
    "_": "UNDERSCORE",
    ",": "COMMA",
}

_DECORATORS = {"mathbf", "hat", "dot", "mathbb", "tilde", "bar", "vec", "boldsymbol"}
_RESERVED_CMDS = {"frac", "int", "partial", "sin", "cos", "log", "operatorname", "prime"}
_GREEK = {
    "alpha", "beta", "gamma", "delta", "epsilon", "zeta", "eta", "theta", "iota",
    "kappa", "lambda", "mu", "nu", "xi", "omicron", "pi", "rho", "sigma", "tau",
    "upsilon", "phi", "chi", "psi", "omega",
    "varepsilon", "vartheta", "varpi", "varrho", "varsigma", "varphi",
    "Gamma", "Delta", "Theta", "Lambda", "Xi", "Pi", "Sigma", "Upsilon",
    "Phi", "Psi", "Omega",
    "ell", "hbar", "nabla", "imath", "jmath",
}

# One match per token: a command, a digit run, or any other single
# non-space character. A lone backslash and a character that is neither
# punctuation nor a letter also match, and are rejected by their kind.
_TOKEN = re.compile(r"\\[A-Za-z]+|[0-9]+|\S")

# the markers of a derivative head, \frac{d}{d x} or \frac{\partial}{\partial x}
_MARKERS = ("d", "\\partial")

# the kinds of single-character tokens; the rest come from _kind
_KINDS = {
    **_PUNCT,
    **dict.fromkeys(string.ascii_letters, _LETTER),
    **dict.fromkeys(string.digits, _DIGITS),
}


def _kind(text: str) -> Optional[str]:
    c = text[0]
    if c == "\\":
        return _CMD if len(text) > 1 else None
    if "0" <= c <= "9":
        return _DIGITS
    return _LETTER if c.isalpha() else None


# Deepest nesting the parser accepts, counted in expr() calls (groups,
# exponents, fraction parts, arguments), derivative heads and chained
# carets (each caret after the first of one factor). Generated
# equations stay far below it; past it the recursion would exhaust Python's
# stack.
MAX_DEPTH = 100


def within_depth(text: str) -> bool:
    """Whether the parser surely stays within MAX_DEPTH levels on `text`:
    each level but a side's first opens at a "{", "(", "^" or "\\int"."""
    return sum(map(text.count, ("{", "(", "^", "\\int"))) < MAX_DEPTH


class _Parser:
    """Recursive descent over one string's tokens, held as parallel `kinds`/
    `texts` lists padded with EOF; positions are computed only for errors."""

    def __init__(self, text: str):
        self.text = text
        texts = _TOKEN.findall(text)
        kinds = [_KINDS.get(t) or _kind(t) for t in texts]
        if None in kinds:
            j = kinds.index(None)
            bad = "stray backslash" if texts[j] == "\\" else f"unexpected character {texts[j]!r}"
            raise LatexParseError(bad, self.pos(j))
        # EOF, then room for the longest look-ahead past it (^{\prime})
        self.kinds = kinds + [_EOF] * 4
        self.texts = texts + [""] * 4
        self.i = 0
        self.depth = 0

    # token helpers -----------------------------------------------------
    def pos(self, j: int) -> int:
        """Character position of token j (the string's length for EOF)."""
        starts = [m.start() for m in _TOKEN.finditer(self.text)]
        return starts[j] if j < len(starts) else len(self.text)

    def next(self) -> int:
        """Consume the current token, unless it is EOF, and return its index."""
        j = self.i
        if self.kinds[j] != _EOF:
            self.i = j + 1
        return j

    def expect(self, kind: str) -> None:
        j = self.i
        if self.kinds[j] != kind:
            raise LatexParseError(f"expected {kind}, found {self.texts[j]!r}", self.pos(j))
        self.i = j + 1

    def fail(self, message: str):
        raise LatexParseError(message, self.pos(self.i))

    def too_deep(self):
        self.fail(f"nesting deeper than {MAX_DEPTH} levels")

    def integer(self, j: int) -> Integer:
        try:
            return Integer(int(self.texts[j]))
        except ValueError:  # more digits than int() converts
            raise LatexParseError("number too long", self.pos(j)) from None

    # grammar -----------------------------------------------------------
    def parse(self, equation: bool):
        """The whole string: `lhs = rhs` if `equation`, else one expression."""
        e = self.expr()
        if equation:
            self.expect("EQUALS")
            self.depth = 0  # chained carets count within their side
            e = Equation(e, self.expr())
        if self.kinds[self.i] != _EOF:
            self.fail(f"trailing input {self.texts[self.i]!r}")
        return e

    def expr(self) -> Expr:
        self.depth += 1
        if self.depth > MAX_DEPTH:
            self.too_deep()
        kinds = self.kinds
        kind = kinds[self.i]  # the first term's sign is optional
        terms = []
        while True:
            if kind == "PLUS" or kind == "MINUS":
                self.i += 1
            t = self.term()
            terms.append(neg(t) if kind == "MINUS" else t)
            kind = kinds[self.i]
            if kind != "PLUS" and kind != "MINUS":
                break
        self.depth -= 1
        return terms[0] if len(terms) == 1 else add(*terms)

    _TERM_STOP = {"PLUS", "MINUS", "EQUALS", "RPAREN", "RBRACE", "COMMA", _EOF}

    def term(self) -> Expr:
        kinds, texts = self.kinds, self.texts
        factors = [self.factor()]
        # a bare 'd' marks the differential of an enclosing integral
        while not (kinds[self.i] in self._TERM_STOP or texts[self.i] == "d"):
            factors.append(self.factor())
        return factors[0] if len(factors) == 1 else mul(*factors)

    def factor(self) -> Expr:
        e = self.primary()
        if self.kinds[self.i] != "CARET":
            return e
        while True:
            self.i += 1
            e = pow_(e, self.exponent())
            if self.kinds[self.i] != "CARET":
                return e
            # x^{a}^{b} nests one power in another: each caret after the
            # first is one level, held for the rest of the side
            self.depth += 1
            if self.depth > MAX_DEPTH:
                self.too_deep()

    def exponent(self) -> Expr:
        j = self.i
        kind = self.kinds[j]
        if kind == "LBRACE":
            self.i = j + 1
            e = self.expr()
            self.expect("RBRACE")
            return e
        if kind == _DIGITS:
            self.i = j + 1
            return self.integer(j)
        raise LatexParseError("expected '{' or digits after '^'", self.pos(j))

    def primary(self) -> Expr:
        j = self.i
        kind, text = self.kinds[j], self.texts[j]
        if kind == _DIGITS:
            self.i = j + 1
            return self.integer(j)
        if kind == "LPAREN":
            self.i = j + 1
            e = self.expr()
            self.expect("RPAREN")
            return e
        if kind == _CMD:
            name = text[1:]
            if name == "frac":
                self.i = j + 1
                return self.frac_rest()
            if name == "int":
                self.i = j + 1
                return self.integral_rest()
            if name in ("sin", "cos", "log"):
                self.i = j + 1
                return func(name, self.function_argument())
            if name == "operatorname":
                self.i = j + 1
                self.expect("LBRACE")
                fname = self.raw_braced_content()
                if not fname:  # the position of the closing brace
                    raise LatexParseError("empty \\operatorname name", self.pos(self.i - 1))
                args = self.application_args()
                if args is None:
                    self.fail("\\operatorname must be applied to arguments")
                return applied(fname, args)
            if name == "partial":
                raise LatexParseError("\\partial outside \\frac", self.pos(j))
            return self.symbol_or_application()
        if kind == _LETTER:
            if text == "e":
                self.i = j + 1
                self.expect("CARET")
                self.expect("LBRACE")
                arg = self.expr()
                self.expect("RBRACE")
                return func("exp", arg)
            if text == "d":
                raise LatexParseError("differential marker 'd' outside an integral", self.pos(j))
            return self.symbol_or_application()
        raise LatexParseError(f"unexpected token {text!r}", self.pos(j))

    def function_argument(self) -> Expr:
        braced = self.kinds[self.i] == "LBRACE"
        if braced:
            self.i += 1
        self.expect("LPAREN")
        e = self.expr()
        self.expect("RPAREN")
        if braced:
            self.expect("RBRACE")
        return e

    def raw_braced_content(self) -> str:
        """Consume tokens up to the matching close brace, returning raw text."""
        depth = 1
        start = self.i
        kinds = self.kinds
        while True:
            j = self.next()
            kind = kinds[j]
            if kind == _EOF:
                raise LatexParseError("unterminated brace group", self.pos(j))
            if kind == "LBRACE":
                depth += 1
            elif kind == "RBRACE":
                depth -= 1
                if depth == 0:
                    return "".join(self.texts[start:j])

    def symbol_or_application(self) -> Expr:
        name = self.atom_name()
        args = self.application_args()
        return Symbol(name) if args is None else applied(name, args)

    def application_args(self) -> Optional[list[Expr]]:
        i = self.i
        if not (self.kinds[i] == "LBRACE" and self.kinds[i + 1] == "LPAREN"):
            return None
        self.i = i + 2
        args = [self.expr()]
        while self.kinds[self.i] == "COMMA":
            self.i += 1
            args.append(self.expr())
        self.expect("RPAREN")
        self.expect("RBRACE")
        return args

    def atom_name(self) -> str:
        j = self.next()
        kind, text = self.kinds[j], self.texts[j]
        if kind == _LETTER:
            base = text
        elif kind == _CMD:
            cmd = text[1:]
            if cmd in _DECORATORS:
                self.expect("LBRACE")
                inner = self.raw_braced_content()
                base = f"{text}{{{inner}}}"
            elif cmd in _GREEK:
                base = text
            elif cmd in _RESERVED_CMDS:
                raise LatexParseError(f"reserved command \\{cmd} cannot name a symbol", self.pos(j))
            else:
                raise LatexParseError(f"unknown command {text!r}", self.pos(j))
        else:
            raise LatexParseError(f"expected a symbol, found {text!r}", self.pos(j))
        return base + self.name_suffixes()

    def name_suffixes(self) -> str:
        kinds, texts = self.kinds, self.texts
        out = []
        while True:
            i = self.i
            kind = kinds[i]
            if kind == "UNDERSCORE":
                self.i = i + 1
                j = self.next()
                k2 = kinds[j]
                if k2 == "LBRACE":
                    out.append("_{" + self.raw_braced_content() + "}")
                elif k2 in (_LETTER, _DIGITS, _CMD):
                    out.append("_" + texts[j])
                else:
                    raise LatexParseError("bad subscript", self.pos(j))
            elif texts[i:i + 2] == ["^", "\\prime"]:
                self.i = i + 2
                out.append("^\\prime")
            elif texts[i:i + 4] == ["^", "{", "\\prime", "}"]:
                self.i = i + 4
                out.append("^{\\prime}")
            else:
                return "".join(out)

    def frac_rest(self) -> Expr:
        self.expect("LBRACE")
        if self.texts[self.i] in _MARKERS:
            return self.derivative_rest()
        num = self.expr()
        self.expect("RBRACE")
        self.expect("LBRACE")
        den = self.expr()
        self.expect("RBRACE")
        return div(num, den)

    def derivative_rest(self) -> Expr:
        # a derivative's body recurses through factor(), not expr()
        self.depth += 1
        if self.depth > MAX_DEPTH:
            self.too_deep()
        self.i += 1  # the marker inside the numerator
        order = 1
        if self.kinds[self.i] == "CARET":
            self.i += 1
            e = self.exponent()
            if type(e) is not Integer or e.value < 1:
                self.fail("derivative order must be a positive integer")
            order = e.value
        self.expect("RBRACE")
        self.expect("LBRACE")
        j = self.next()
        if self.texts[j] not in _MARKERS:
            raise LatexParseError("mismatched derivative denominator", self.pos(j))
        var = Symbol(self.atom_name())
        if self.kinds[self.i] == "CARET":
            self.i += 1
            e = self.exponent()
            if type(e) is not Integer or e.value != order:
                self.fail("derivative orders disagree")
        self.expect("RBRACE")
        body = self.term()
        self.depth -= 1
        return derivative(body, var, order)

    def integral_rest(self) -> Expr:
        body = self.expr()
        j = self.next()
        if self.texts[j] != "d":
            raise LatexParseError("expected differential 'd<var>' closing the integral",
                                  self.pos(j))
        var = Symbol(self.atom_name())
        return integral(body, var)


def _parse(s: str, equation: bool = False):
    parser = _Parser(s)
    try:
        return parser.parse(equation)
    except ExprError as exc:
        # a constructor rejected the construct the last consumed token closed
        raise LatexParseError(str(exc), parser.pos(max(parser.i - 1, 0))) from exc


def _side(s: str, sides: dict[str, Expr]) -> Expr:
    e = sides.get(s)
    if e is None:
        e = sides[s] = _parse(s)
    return e


def parse_latex(s: str, sides: Optional[dict[str, Expr]] = None) -> Expr:
    """Parse a single expression in the emitted grammar (whitespace tolerant).
    With `sides`, a dict from LaTeX text to tree, a text parsed before is
    looked up there instead, and a new one is stored."""
    if sides is None:
        return _parse(s)
    return _side(s, sides)


def parse_equation(s: str, sides: Optional[dict[str, Expr]] = None) -> Equation:
    """Parse `lhs = rhs`. With `sides` (as for parse_latex), each side of a
    text that splits at " = " into exactly two is parsed alone through it:
    tokens never span whitespace, a parse that succeeds never consumes the
    token after its last one, and each side starts at depth 0, so the trees
    are those of the full parse. Anything else, and any side that does not
    parse, takes the full parse, which raises its error at its position."""
    if sides is not None and type(s) is str:
        parts = s.split(" = ")
        if len(parts) == 2:
            try:
                return Equation(_side(parts[0], sides), _side(parts[1], sides))
            except LatexParseError:
                pass
    return _parse(s, equation=True)
