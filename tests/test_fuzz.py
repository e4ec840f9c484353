"""Input fuzz guard: every command, run in-process on a mutated corpus file
with a mutated --at value, exits 0, 1 or 2 and raises nothing else; and the
.gcm expression parser gives, on generated expressions, the Form (or the
exception class, message and line) of its reference,
tests/reference_modelfile.py, except where the reference misreads a term.

Mutations delete, duplicate or rewrite lines of a dim-4 or dim-6 corpus file,
among them non-real scalar tokens (`i`, `2i`, `-1/2i`).  Numeric tokens stay
small, so no mutation asks for a model of a larger dimension.  The example
budget is fixed and the run derandomized; GCHODGE_FUZZ_EXAMPLES sets a larger
budget for a longer run outside the tier-1 suite.  The parser comparison,
at about 5 ms an example, draws ten expressions per example of the budget."""

import io
import os
import re
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from datetime import timedelta
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from gchodge.cli import COMMANDS, main
from gchodge.errors import ModelSyntaxError, UnknownGenerator
from gchodge.modelfile import MAX_POWER, _parse_form_expr

from reference_modelfile import parse_form_expr as reference_parse

CORPUS = Path(__file__).resolve().parent.parent / "corpus"
FILES = sorted(CORPUS.glob("*.gcm"))
EXAMPLES = int(os.environ.get("GCHODGE_FUZZ_EXAMPLES", "30"))

TOKENS = ["i", "2i", "-1/2i", "-i", "0", "1", "-1", "2", "3", "1/2", "1/0",
          "e1", "e2", "e4", "e7", "e1^e1", "e1^e2", "e1^e2^e3", "^", "+", "=",
          ",", ";", "t1", "t2", "1 t1", "d", "H", "dim", "[complex x]",
          "[family f]", "kind", "#", ""]
AT_VALUES = ["t1=1/2", "t1=i", "t1=1/0", "t0=1", "t2=1", "t1=2i,t2=-1", "x",
             "t1=", "=1", "t1=1/3i", "t1=-1,t1=1"]


@st.composite
def mutated_model(draw):
    path = draw(st.sampled_from(FILES))
    lines = path.read_text().splitlines()
    for _ in range(draw(st.integers(1, 3))):
        if not lines:
            break
        op = draw(st.sampled_from(["delete", "duplicate", "replace", "insert"]))
        li = draw(st.integers(0, len(lines) - 1))
        if op == "delete":
            del lines[li]
        elif op == "duplicate":
            lines.insert(li, lines[li])
        else:
            toks = lines[li].split(" ")
            ti = draw(st.integers(0, len(toks) - (op == "replace")))
            tok = draw(st.sampled_from(TOKENS))
            if op == "replace":
                toks[ti] = tok
            else:
                toks.insert(ti, tok)
            lines[li] = " ".join(toks)
    return path.name, "\n".join(lines) + "\n"


# mostly no --at, since a malformed one, or any on a command but family, ends
# the command before its file
at_value = st.one_of(st.sampled_from([""] * 8 + AT_VALUES),
                     st.text(alphabet="t0123=,/i- x", max_size=10))


def run_in_process(argv) -> object:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        return main(argv)


@settings(max_examples=EXAMPLES, deadline=timedelta(seconds=30),
          derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(model=mutated_model(), command=st.sampled_from(COMMANDS), at=at_value)
def test_mutated_input_exits_0_1_or_2(model, command, at):
    name, text = model
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / name
        path.write_text(text, encoding="utf-8")
        argv = [command, str(path), "--json"] + (["--at", at] if at else [])
        assert run_in_process(argv) in (0, 1, 2)


# -- the expression parser against its reference ------------------------------

LITERALS = ["i", "-", "0", "1", "-1", "1/2i", "-i", "2i", "3/4", "-0", "1/0",
            "0/5", "00", "7i"]
MALFORMED = ["^", "*", "x", "e", "t", "1/", "/2", "ee1", "e1x", "2.5", "i2",
             "+", "--", "t1^", "^e2", "e-1", "1/2/3", "ii", "e1^^e2", "t^2"]


@st.composite
def factor(draw, dim, nvars):
    """One factor: well formed in most draws, and otherwise malformed, a t0,
    a parameter past nvars or a generator past dim."""
    kind = draw(st.sampled_from(["literal"] * 3 + ["rational", "monomial"] * 2
                                + ["chain"] * 3 + ["malformed"]))
    if kind == "literal" or (kind == "monomial" and not nvars):
        return draw(st.sampled_from(LITERALS))
    if kind == "rational":
        num = draw(st.integers(-99999, 99999))
        den = draw(st.integers(1, 999))
        return f"{num}/{den}{draw(st.sampled_from(['', 'i']))}"
    if kind == "monomial":
        j = draw(st.sampled_from([*range(1, nvars + 1)] * 8 + [0, nvars + 1]))
        k = draw(st.sampled_from(["", "", "^0", "^2", "^12", " ^ 3", "^x"]))
        return f"t{j}{k}"
    if kind == "chain":
        # repeated and out-of-order generators, and a few out of range
        gens = draw(st.lists(st.sampled_from([*range(1, dim + 1)] * 8
                                             + [0, dim + 1]),
                             min_size=1, max_size=4))
        return draw(st.sampled_from(["^", " ^ "])).join(f"e{g}" for g in gens)
    return draw(st.sampled_from(MALFORMED))


@st.composite
def expression(draw):
    """(text, dim, nvars): terms of up to four factors, joined by signs."""
    dim = draw(st.sampled_from([2, 4, 6, 6]))
    nvars = draw(st.sampled_from([0, 1, 2, 2]))
    terms = draw(st.lists(st.lists(factor(dim, nvars), max_size=4),
                          min_size=1, max_size=5))
    text = ""
    for n, term in enumerate(terms):
        if n or draw(st.booleans()):
            text += draw(st.sampled_from([" + ", " - ", "+", "-"]))
        text += draw(st.sampled_from([" ", "*", " * "])).join(term)
    return text, dim, nvars


def parse_outcome(parse, text, dim, nvars):
    """The parsed Form as its blade masks, parameter counts and terms in
    order, or the exception as class, message and line."""
    try:
        f = parse(text, dim, nvars, 7)
    except Exception as e:      # the outcome under test
        return ("raises", type(e).__name__, str(e), getattr(e, "line", None))
    return ("form", f.dim, [(m, p.nvars, list(p.terms.items()))
                            for m, p in f.coeffs.items()])


GEN = re.compile(r"^e(\d+)$")


def first_misread(text):
    """(message, prefix) for the first term, in reading order, that the
    reference misreads, or None: a term with no factor, a dangling sign or a
    lone '*' that the reference reads as -1 or 1, with the text before the
    term; a '+' with no term after it (at the end, or before another '+'),
    which the reference skips, with the text before the '+'; or a term with
    a second blade chain, of which the reference keeps the last, with the
    text before that chain.  A chain starts at each generator not right
    after a '^'."""
    for m in re.finditer(r"-?[^+-]*", text):
        term = m.group().strip()
        # the pattern stops at each '+' and matches nothing there
        if not m.group() and text[m.start():m.start() + 1] == "+" \
                and re.match(r"\s*(\+|$)", text[m.start() + 1:]):
            return "term '+' has no factor", text[:m.start()]
        if not term:
            continue
        start = m.start() + m.group().startswith("-")
        tokens = list(re.finditer(r"\^|[^\s*^]+", text[start:m.end()]))
        if not tokens:
            return f"term {term!r} has no factor", text[:m.start()]
        chains, prev = 0, None
        for tok in tokens:
            if GEN.match(tok.group()) and prev != "^":
                chains += 1
                if chains == 2:
                    return (f"term {term!r} has two blade chains",
                            text[:start + tok.start()])
            prev = tok.group()
    return None


@settings(max_examples=10 * EXAMPLES, derandomize=True, database=None)
@given(case=expression())
# a blade whose sum cancels and comes back last, the misread shapes (a term
# of two blade chains, a dangling sign, a lone '*', a '+' at the end or
# before another '+') and the signs that still parse ('+' first, '+ -')
@example(("1 e1 - 1 e1 + 1 e2 + 1 e1 + t1 - t1 + 2 + t1", 4, 1))
@example(("2 e1^e2 e3^e1", 4, 0))
@example(("e1 * * e2", 4, 0))
@example(("1 e1^e2 -", 4, 0))
@example(("1 e1^e2 + *", 4, 0))
@example(("1 e1^e2 +", 4, 0))
@example(("1 + + 2", 4, 0))
@example(("+ e1 + -1 e2 + - e3", 4, 0))
def test_expression_parser_matches_reference(case):
    """Each generated expression parses to the reference's Form, in its
    order, or raises the reference's exception, except on two departures.
    Where the reference misreads a term (`first_misread`), the parser raises
    a ModelSyntaxError naming the term, unless the text before it already
    raises.  Where the reference reads a `t0` token (as the last parameter,
    or an IndexError with none), the parser rejects it as an unknown
    generator."""
    text, dim, nvars = case
    got = parse_outcome(_parse_form_expr, text, dim, nvars)
    want = parse_outcome(reference_parse, text, dim, nvars)
    misread = first_misread(text)
    if misread:
        message, prefix = misread
        want = parse_outcome(reference_parse, prefix, dim, nvars)
        if want[0] == "form":
            want = ("raises", ModelSyntaxError.__name__,
                    f"{message} (line 7, col 0)", 7)
    if got != want:
        assert "t0" in re.split(r"[\s^*+-]+", text)
        assert got == ("raises", UnknownGenerator.__name__,
                       "parameter 't0': parameters start at t1 (line 7, col 0)",
                       7)


def test_expression_parser_rejects_non_decimal_powers():
    """`t1^²` has a power that is a digit but not a decimal: the reference
    takes it for a power and raises a ValueError from int(), the parser
    leaves the '^' unconsumed and reports it as a token."""
    with pytest.raises(ValueError):
        reference_parse("t1^\u00b2", 2, 1, 7)
    with pytest.raises(ModelSyntaxError, match="unexpected token '\\^'"):
        _parse_form_expr("t1^\u00b2", 2, 1, 7)


def test_expression_parser_bounds_parameter_powers():
    """A parameter's total power in one term may be MAX_POWER (64), however
    it is written, and no more; a power of many digits is refused without
    being converted."""
    assert MAX_POWER == 64
    for text in ("t1^64 e1", "t1^32 t1^32 e1", "t1^00064 e1",
                 " ".join(["t1"] * 64) + " e1", "t1^64 t2^64 e1"):
        f = _parse_form_expr(text, 2, 2, 7)
        assert [list(p.terms) for p in f.coeffs.values()] \
            == [[(64, 64 if "t2" in text else 0)]], text
    for text in ("t1^65", "t1^64 t1", "t1^32 t1^33", "t1^100000000",
                 "t1^" + "9" * 5000, " ".join(["t1"] * 65)):
        with pytest.raises(ModelSyntaxError,
                           match="the power of t1 exceeds the maximum 64"):
            _parse_form_expr(text, 2, 1, 7)
