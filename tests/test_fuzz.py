"""Input fuzz guard: every command, run in-process on a mutated corpus file
with a mutated --at value, exits 0, 1 or 2 and raises nothing else.

Mutations delete, duplicate or rewrite lines of a dim-4 or dim-6 corpus file,
among them non-real scalar tokens (`i`, `2i`, `-1/2i`).  Numeric tokens stay
small, so no mutation asks for a model of a larger dimension.  The example
budget is fixed and the run derandomized; GCHODGE_FUZZ_EXAMPLES sets a larger
budget for a longer run outside the tier-1 suite."""

import io
import os
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from datetime import timedelta
from pathlib import Path

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from gchodge.cli import COMMANDS, main

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
    try:
        with redirect_stdout(out), redirect_stderr(err):
            return main(argv)
    except SystemExit as e:     # the argument parser rejects the call
        return e.code


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
