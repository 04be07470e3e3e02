"""Printer/parser tests: golden strings from the derivation corpus style and
round-trip identities."""
import random

import pytest
from hypothesis import example, given, settings, strategies as st

from derivekit.expr import (
    FUNCTION_KINDS,
    Add,
    AppliedFunction,
    Equation,
    Integer,
    Mul,
    Symbol,
    add,
    applied,
    derivative,
    div,
    free_symbols,
    func,
    integral,
    mul,
    neg,
    pow_,
    rebuild,
    substitute,
)
from derivekit.latex import (
    MAX_DEPTH,
    LatexParseError,
    RenderError,
    _Parser,
    count_lexemes,
    equation_to_latex,
    parse_equation,
    parse_latex,
    to_latex,
)
from derivekit.perturb import rename_leaves
from helpers import (
    free_symbols_by_walk,
    full_walk,
    or_first,
    rational,
    to_latex_uncached,
    tokenize,
)
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
    # docs/latex-grammar.md: an exponent is a braced expr or a bare digit run
    assert parse_latex("x^2") == parse_latex("x^{2}") == pow_(x, Integer(2))


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
    with pytest.raises(RenderError, match="empty function name"):
        to_latex(applied("", [x]))


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


# malformed input and the error the parser names it with
PARSE_ERRORS = [
    (r"\operatorname{ab}", "must be applied to arguments"),
    (r"\operatorname{ab", "unterminated brace group"),
    (r"\operatorname{}{(x)}", r"empty \\operatorname name \(at position 14\)"),
    (r"\operatorname{ }{(x)}", r"empty \\operatorname name \(at position 15\)"),
    (r"\int x d2", "expected a symbol"),
    ("x_+", "bad subscript"),
    (r"\frac{d^{0}}{d x^{0}} y", "order must be a positive integer"),
    (r"\frac{d}{x} y", "mismatched derivative denominator"),
    (r"\frac{d^{2}}{d x^{3}} y", "derivative orders disagree"),
    (r"\int x", "expected differential"),
    ("x^y", "expected '{' or digits"),
]


@pytest.mark.parametrize("text,message", PARSE_ERRORS, ids=[t for t, _ in PARSE_ERRORS])
def test_parse_errors_name_the_fault(text, message):
    with pytest.raises(LatexParseError, match=message):
        parse_latex(text)


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
    ("", "^{a}"),  # a chain of carets nests one power per caret
])
def test_nesting_depth_limit(opening, closing):
    # one level below the limit parses and prints back; at the limit (and
    # far past it, where recursion would exhaust the stack) it is a parse error
    eq = parse_equation(_nested(MAX_DEPTH - 1, opening, closing))
    assert parse_equation(equation_to_latex(eq)) == eq
    for n in (MAX_DEPTH, 700):
        with pytest.raises(LatexParseError, match="nesting deeper"):
            parse_equation(_nested(n, opening, closing))


def test_chained_carets_in_nested_groups_add_up():
    # 90 groups of five carets each nest 450 powers deep: each group alone
    # is far below the limit, but the chained carets are held for the side
    text = "x"
    for _ in range(90):
        text = "(" + text + ")" + "^{a}" * 5
    with pytest.raises(LatexParseError, match="nesting deeper"):
        parse_latex(text)
    # each side of an equation counts its own chains, as its side memo does
    side = "x" + "^{a}" * 60
    eq = parse_equation(f"{side} = {side}")
    assert parse_equation(equation_to_latex(eq)) == eq


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


def _tower(n: int, opening: str, closing: str) -> str:
    return opening * n + "x" + closing * n


# sides for the memo property: token soup with "=" and " = " in it (inside
# \operatorname{...} too, and so also three-part splits), and towers at
# depths around MAX_DEPTH
_SIDE_TEXTS = st.one_of(
    _TEXTS,
    st.lists(st.sampled_from(_FRAGMENTS + (" = ", r"\operatorname{a = b}", "a=b"))).map("".join),
    st.builds(lambda n, group: _tower(n, *group), st.integers(MAX_DEPTH - 2, MAX_DEPTH + 1),
              st.sampled_from([("x^{", "}"), ("(", ")"), (r"\frac{d}{d x} ", ""),
                               ("", "^{a}"), ("(", ")^{a}^{a}")])),
)


@given(_SIDE_TEXTS, _SIDE_TEXTS)
@settings(max_examples=400, deadline=None)
@example("x", r"\operatorname{a = b}{(x)}")
@example(r"\operatorname{a", r"b}{(x)}")
@example("x=y", "z")
@example("x", "y = z")
@example("x ", "y")
@example(_tower(MAX_DEPTH - 1, "x^{", "}"), _tower(MAX_DEPTH, "x^{", "}"))
@example(_tower(60, "", "^{a}"), _tower(60, "", "^{a}"))
def test_side_memo_matches_the_full_parse(lhs, rhs):
    text = lhs + " = " + rhs
    plain = _outcome(lambda: parse_equation(text))
    sides = {}
    for _ in range(2):  # the second pass finds each side that parsed in the memo
        assert _outcome(lambda: parse_equation(text, sides)) == plain
    for side, tree in sides.items():
        assert tree == parse_latex(side)


def test_unknown_command_error():
    with pytest.raises(LatexParseError, match=r"unknown command '\\\\sqrt'"):
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


# ---------------------------------------------------------------------------
# each node keeps its text and its free symbols: the same strings and names as
# rendering or walking every subtree again

_NAMES = ("x", "y", "\\alpha", "A_{x}", "\\hat{b}")
_SYMBOLS = st.sampled_from(_NAMES).map(Symbol)


_TREES = st.recursive(
    st.one_of(_SYMBOLS, st.integers(-12, 12).map(Integer),
              st.builds(lambda n, d: rational(n, d), st.integers(-9, 9), st.integers(1, 6))),
    lambda inner: st.one_of(
        st.builds(or_first(add), inner, inner),
        st.builds(or_first(lambda p, q: add(p, neg(q))), inner, inner),
        st.builds(or_first(mul), inner, inner),
        st.builds(or_first(div), inner, inner),
        st.builds(or_first(lambda p, k: pow_(p, Integer(k))), inner, st.integers(-3, 3)),
        st.builds(or_first(pow_), inner, inner),
        st.builds(lambda k, p: func(k, p), st.sampled_from(FUNCTION_KINDS), inner),
        st.builds(lambda name, args: applied(name, args),
                  st.sampled_from(("f", "\\chi", "fn", "é")), st.lists(inner, min_size=1,
                                                                     max_size=3)),
        st.builds(lambda p, v, k: derivative(p, v, k), inner, _SYMBOLS, st.integers(1, 2)),
        st.builds(integral, inner, _SYMBOLS),
    ),
    max_leaves=10,
)


def _raw_copy(e):
    """e rebuilt through the node classes, each sum's and product's operands
    reversed and the first of them nested in a product with -1: trees the
    canonical constructors never build, such as a product whose first
    factor prints with a leading minus but whose own sign is plus."""
    kids = [_raw_copy(k) for k in e.children()]
    if type(e) in (Add, Mul):
        kids.reverse()
        kids[0] = Mul((Integer(-1), kids[0]))
    return rebuild(e, kids, raw=True)


def _assert_texts_match(e):
    assert to_latex(e) == to_latex_uncached(e)
    for node in full_walk(e):  # every text a node keeps is its own
        assert node._tex is None or node._tex == to_latex_uncached(node)


@given(_TREES, _TREES)
@example(pow_(Symbol("x"), Integer(-1)), Integer(0))
@settings(max_examples=300, deadline=None)
def test_kept_node_text_equals_a_fresh_render(e, other):
    _assert_texts_match(e)
    assert to_latex(e) == to_latex_uncached(e)  # a second render of the same tree
    # trees that share subtrees already rendered, and one not yet rendered
    for shared in (or_first(add)(e, other), or_first(mul)(other, e),
                   Equation(e, other).swapped().lhs):
        _assert_texts_match(shared)
    for sub in list(full_walk(e))[:4]:  # substituting 0 into 1/x is refused
        _assert_texts_match(or_first(substitute)(e, sub, other))
    _assert_texts_match(_raw_copy(e))
    _assert_texts_match(rename_leaves(e, {"x": "\\nu", "f": "\\psi", "A_{x}": "z"}, {}))


def _assert_free_symbols_match(e):
    assert free_symbols(e) == free_symbols_by_walk(e)
    for node in full_walk(e):  # every tuple a node keeps is its own
        assert node._free is None or node._free == free_symbols_by_walk(node)


@given(_TREES, _TREES)
@example(pow_(Symbol("x"), Integer(-1)), Integer(0))
@settings(max_examples=300, deadline=None)
def test_kept_free_symbols_equal_a_fresh_walk(e, other):
    _assert_free_symbols_match(e)
    for shared in (or_first(add)(e, other), or_first(mul)(other, e)):
        _assert_free_symbols_match(shared)
    for sub in list(full_walk(e))[:4]:  # substituting 0 into 1/x is refused
        _assert_free_symbols_match(or_first(substitute)(e, sub, other))
        _assert_free_symbols_match(or_first(substitute)(other, sub, e))
    _assert_free_symbols_match(_raw_copy(e))
    for mapping in ({"x": "\\nu", "f": "\\psi", "A_{x}": "z"}, {"y": "x", "fn": "f"}):
        memo = {}  # one memo for both trees, as VR shares one across a derivation
        _assert_free_symbols_match(rename_leaves(e, mapping, memo))
        _assert_free_symbols_match(rename_leaves(other, mapping, memo))


def test_an_empty_function_name_raises_each_time_and_keeps_no_text():
    # nodes are shared, so these use names and a number no other code builds
    u, v = Symbol("u_{unrendered}"), Symbol("v_{unrendered}")
    empty = AppliedFunction("", (v,))
    outer = Add((u, Mul((Integer(2**61 - 1), empty))))
    assert all(n._tex is None for n in full_walk(outer))
    for _ in range(2):
        with pytest.raises(RenderError, match="empty function name"):
            to_latex(outer)
    # only the term rendered before the error keeps its text
    assert [n for n in full_walk(outer) if n._tex is not None] == [u]
