"""Printer/parser tests: golden strings from the derivation corpus style and
round-trip identities."""
import random

import pytest
from hypothesis import example, given, settings, strategies as st

from derivekit.expr import (
    Equation,
    Integer,
    Symbol,
    add,
    applied,
    derivative,
    div,
    func,
    integral,
    mul,
    neg,
    pow_,
    rational,
)
from derivekit.latex import (
    MAX_DEPTH,
    LatexParseError,
    _Parser,
    UnknownLatexCommand,
    count_lexemes,
    equation_to_latex,
    parse_equation,
    parse_latex,
    to_latex,
)
from helpers import tokenize
from test_expr import random_expr

x = Symbol("x")
a = Symbol("a")


GOLDEN = [
    (integral(func("log", Symbol("x^\\prime")), Symbol("x^\\prime")),
     r"\int \log{(x^\prime)} dx^\prime"),
    (Integer(0), "0"),
    (pow_(Symbol("\\hat{X}"), Symbol("t")), r"\hat{X}^{t}"),
    (pow_(Symbol("P_{e}"), Integer(-1)), r"\frac{1}{P_{e}}"),
    (add(mul(Symbol("\\mathbf{s}"), func("log", Symbol("\\mathbf{s}"))),
         neg(Symbol("\\mathbf{s}")), Symbol("\\omega")),
     r"\mathbf{s} \log{(\mathbf{s})} - \mathbf{s} + \omega"),
    (add(div(pow_(Symbol("\\mathbf{J}"), Integer(2)), Integer(2)),
         mul(Symbol("\\mathbf{J}"), Symbol("\\mathbf{v}")), Symbol("f")),
     r"\frac{\mathbf{J}^{2}}{2} + \mathbf{J} \mathbf{v} + f"),
    (add(Symbol("\\chi"), func("exp", Symbol("\\Psi_{\\lambda}"))),
     r"\chi + e^{\Psi_{\lambda}}"),
    (add(Symbol("n"), neg(func("cos", Symbol("\\lambda")))),
     r"n - \cos{(\lambda)}"),
    (add(neg(func("exp", a)), derivative(applied("q", [a]), a)),
     r"- e^{a} + \frac{d}{d a} q{(a)}"),
    (derivative(applied("v_{y}", [Symbol("L")]), Symbol("L"), 2),
     r"\frac{d^{2}}{d L^{2}} \operatorname{v_{y}}{(L)}"),
    (mul(Integer(4), pow_(derivative(func("log", Symbol("\\phi_2")), Symbol("\\phi_2")),
                          Integer(2))),
     r"4 (\frac{d}{d \phi_2} \log{(\phi_2)})^{2}"),
    (rational(-1, 2), r"- \frac{1}{2}"),
    (mul(Integer(-1), integral(func("sin", Symbol("\\lambda")), Symbol("\\lambda")),
         pow_(func("cos", Symbol("\\lambda")), Integer(-1))),
     r"- \frac{\int \sin{(\lambda)} d\lambda}{\cos{(\lambda)}}"),
]


@pytest.mark.parametrize("expr,expected", GOLDEN, ids=[g[1][:34] for g in GOLDEN])
def test_golden_rendering(expr, expected):
    assert to_latex(expr) == expected


@pytest.mark.parametrize("expr,expected", GOLDEN, ids=[g[1][:34] for g in GOLDEN])
def test_golden_round_trip(expr, expected):
    assert parse_latex(expected) == expr


def test_parse_frac_to_power():
    assert parse_latex(r"\frac{1}{P_{e}}") == pow_(Symbol("P_{e}"), Integer(-1))
    assert parse_latex("0") == Integer(0)


def test_partial_rendering_by_symbol_count():
    W, q, B = Symbol("W"), Symbol("q"), Symbol("B")
    body = add(W, neg(applied("y", [W, q, B])), div(q, B))
    assert to_latex(derivative(body, q)) == (
        r"\frac{\partial}{\partial q} (W - y{(W,q,B)} + \frac{q}{B})"
    )
    # single distinct symbol keeps the plain d even through an application,
    # and product bodies stay bare (corpus style)
    assert to_latex(derivative(mul(Integer(2), applied("C", [x])), x)) == (
        r"\frac{d}{d x} 2 C{(x)}"
    )


def test_parse_corpus_style_bare_derivative_product():
    p2 = Symbol("\\phi_2")
    got = parse_latex(r"\frac{d}{d \phi_2} 2 C{(\phi_2)}")
    assert got == derivative(mul(Integer(2), applied("C", [p2])), p2)


def test_operatorname_and_bare_heads():
    assert to_latex(applied("q", [a])) == r"q{(a)}"
    assert to_latex(applied("\\phi", [x])) == r"\phi{(x)}"
    assert to_latex(applied("\\mathbb{I}", [x])) == r"\mathbb{I}{(x)}"
    assert to_latex(applied("\\hat{p}_0", [x, a])) == r"\hat{p}_0{(x,a)}"
    assert to_latex(applied("v_{y}", [x])) == r"\operatorname{v_{y}}{(x)}"
    assert to_latex(applied("f^{\\prime}", [x])) == r"\operatorname{f^{\prime}}{(x)}"


def test_equation_round_trip():
    eq = Equation(func("exp", applied("G", [a])), Integer(1))
    s = equation_to_latex(eq)
    assert s == r"e^{G{(a)}} = 1"
    assert parse_equation(s) == eq


def test_whitespace_tolerance():
    spaced = r"\frac { d } { d P_ { e } } W { (P_ { e } ) } = \frac { 1 } { P_ { e } }"
    pe = Symbol("P_{e}")
    assert parse_equation(spaced) == Equation(
        derivative(applied("W", [pe]), pe), pow_(pe, Integer(-1))
    )


def test_syntax_error_carries_position():
    with pytest.raises(LatexParseError) as err:
        parse_latex(r"x + + y")
    assert err.value.pos == 4
    with pytest.raises(LatexParseError):
        parse_latex(r"\frac{1}{2")


def test_letters_are_any_alphabetic_character():
    # docs/latex-grammar.md: a letter is any one character str.isalpha()
    # accepts; each is its own token; other characters are errors
    assert parse_latex("é") == Symbol("é")
    assert parse_latex("λ x") == mul(Symbol("λ"), x)
    assert parse_latex("ab") == mul(Symbol("a"), Symbol("b"))
    assert to_latex(applied("é", [x])) == r"\operatorname{é}{(x)}"
    assert parse_latex(r"\operatorname{é}{(x)}") == applied("é", [x])
    for text in ("²", "x €"):
        with pytest.raises(LatexParseError, match="unexpected character"):
            parse_latex(text)


def test_constructor_errors_become_parse_errors():
    # the position is that of the token closing the rejected construct
    for text, pos in ((r"x = \frac{1}{0}", 14), ("x = 0^{-1}", 9)):
        with pytest.raises(LatexParseError) as err:
            parse_equation(text)
        assert err.value.pos == pos


def _nested(n: int, opening: str, closing: str) -> str:
    return "x = " + opening * n + "x" + closing * n


@pytest.mark.parametrize("opening,closing", [
    ("x^{", "}"),
    ("(", ")"),
    ("f{(", ")}"),
    (r"\frac{1}{", "}"),
    (r"\sin{(", ")}"),
    (r"\int ", " dx"),
    (r"\frac{d}{d x} ", ""),
])
def test_nesting_depth_limit(opening, closing):
    # one level below the limit parses and prints back; at the limit (and
    # far past it, where recursion would exhaust the stack) it is a parse error
    eq = parse_equation(_nested(MAX_DEPTH - 1, opening, closing))
    assert parse_equation(equation_to_latex(eq)) == eq
    for n in (MAX_DEPTH, 700):
        with pytest.raises(LatexParseError, match="nesting deeper"):
            parse_equation(_nested(n, opening, closing))


def test_huge_numbers_are_parse_errors_or_stay_symbolic():
    with pytest.raises(LatexParseError, match="number too long"):
        parse_latex("1" * 5000)
    # folding this power would take minutes; it stays a power instead
    assert to_latex(parse_latex("9^{99999999}")) == "9^{99999999}"
    assert parse_latex("2^{16}") == Integer(65536)


def test_folded_numbers_stay_printable():
    # a power whose value could pass the int-to-str limit stays a power, and
    # merging two of them merges exponents
    assert to_latex(parse_latex("3^{14000}")) == "3^{14000}"
    assert to_latex(parse_latex("9^{4000} 9^{4000}")) == "9^{8000}"
    # two powers that fold on their own multiply past it: a parse error
    with pytest.raises(LatexParseError, match="number larger than"):
        parse_equation("x = 7^{4000} 5^{4000}")


# grammar fragments (and a few from outside it), so that generated strings
# get past the first token and reach every parser rule
_FRAGMENTS = (
    "x", "y", "f", "e", "d", "0", "1", "9", " ", "=", "+", "-", "^", "_", ",",
    "{", "}", "(", ")", "{(", ")}", "^{", r"\frac", r"\frac{d}{d x}", r"\int",
    r"\partial", r"\sin", r"\log", r"\operatorname", r"\prime", r"\mathbf",
    r"\alpha", r"\sqrt", "\\", "\u00e9", "\u00b2",
)


_TEXTS = st.one_of(st.text(), st.lists(st.sampled_from(_FRAGMENTS)).map("".join))


@given(_TEXTS)
@settings(max_examples=400, deadline=None)
def test_parse_returns_a_tree_or_raises_a_parse_error(text):
    try:
        eq = parse_equation(text)
    except LatexParseError:
        return
    assert isinstance(eq, Equation)


def _outcome(scan):
    try:
        return scan()
    except LatexParseError as exc:
        return type(exc), str(exc), exc.pos


def _scanned(text):
    """The parser's tokens as (kind, text, position) triples up to EOF."""
    parser = _Parser(text)
    end = parser.kinds.index("EOF")
    # EOF, then room for the longest look-ahead (three tokens) past it
    assert parser.kinds[end:] == ["EOF"] * 4 and parser.texts[end:] == [""] * 4
    return [(parser.kinds[j], parser.texts[j], parser.pos(j)) for j in range(end + 1)]


@given(_TEXTS)
@settings(max_examples=400, deadline=None)
@example("\u00e9")
@example("\u00b2")
@example("x = \\ y")
@example("x\t=\ty")
@example(r"\foo{")
def test_scanner_matches_the_reference_tokenizer(text):
    assert _outcome(lambda: _scanned(text)) == _outcome(lambda: tokenize(text))


def test_unknown_command_error():
    with pytest.raises(UnknownLatexCommand):
        parse_latex(r"\sqrt{2}")


def test_differential_marker_outside_integral_rejected():
    with pytest.raises(LatexParseError):
        parse_latex(r"x dx")


def test_non_final_derivative_factor_parenthesized():
    d1 = derivative(applied("f", [x]), x)
    other = integral(applied("g", [a]), a)
    s = to_latex(mul(d1, other))
    assert s.startswith("(")
    assert parse_latex(s) == mul(d1, other)


def test_lexeme_counts():
    assert count_lexemes(r"- e^{a} + \frac{d}{d a} q{(a)} = 0") == 23
    assert count_lexemes("Given $x = 1$") == 6
    assert count_lexemes("") == 0


@given(st.integers(min_value=0, max_value=100_000))
@settings(max_examples=150, deadline=None)
def test_round_trip_random_expressions(seed):
    rng = random.Random(seed)
    e = random_expr(rng)
    assert parse_latex(to_latex(e)) == e


@given(st.integers(min_value=0, max_value=100_000))
@settings(max_examples=60, deadline=None)
def test_round_trip_with_calculus_nodes(seed):
    rng = random.Random(seed)
    body = random_expr(rng, depth=2)
    var = rng.choice([x, Symbol("y")])
    e = integral(body, var) if rng.random() < 0.5 else derivative(body, var, rng.randint(1, 2))
    wrapped = add(e, Symbol("\\mu")) if rng.random() < 0.5 else mul(Integer(3), e)
    assert parse_latex(to_latex(wrapped)) == wrapped


def test_reciprocal_product_round_trip():
    A, G = Symbol("A_{x}"), Symbol("G_{m}")
    e = mul(pow_(A, Integer(-1)), pow_(G, Integer(-1)))
    s = to_latex(e)
    assert s == r"\frac{1}{A_{x} G_{m}}"
    assert parse_latex(s) == e


def test_round_trip_over_generated_equations(small_dataset):
    # generator-driven identity: parse(print(e)) == e over >= 1000 equations
    _, records, _ = small_dataset
    checked = 0
    for record in records:
        for step in record.derivation.steps:
            eq = step.equation
            assert parse_equation(equation_to_latex(eq)) == eq
            checked += 1
            for side in (eq.lhs, eq.rhs):
                assert parse_latex(to_latex(side)) == side
            if step.operand is not None:
                assert parse_latex(to_latex(step.operand)) == step.operand
    assert checked >= 1000  # 180 records x ~6 equations
