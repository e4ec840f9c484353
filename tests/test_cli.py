"""Model-file parsing, canonical emission round-trips, CLI exit codes."""

import io
import json
import os
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from gchodge.cli import main
from gchodge.errors import (DimensionOdd, DimensionTooLarge, ModelSyntaxError,
                            UnknownGenerator)
from gchodge.forms import Form
from gchodge.modelfile import MAX_DIM, emit_model, parse_model

CORPUS = Path(__file__).resolve().parent.parent / "corpus"
MODELS = Path(__file__).resolve().parent / "models"
SRC = Path(__file__).resolve().parent.parent / "src"


def _src_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in [env.get("PYTHONPATH")] if p])
    return env


def run_cli(*argv):
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = main(list(argv))
    return code, buf.getvalue()


def test_parse_kt():
    mf = parse_model("dim = 4\nd e4 = 1 e1^e2\nH = 0\n")
    m = mf.model()
    assert m.dim == 4
    assert m.d(Form.blade(4, [4])) == Form.blade(4, [1, 2])
    assert m.H.is_zero()

def test_parse_twisted():
    mf = parse_model("dim = 4\nd e4 = 1 e1^e2\nH = 1 e1^e2^e3\n")
    assert mf.H == Form.blade(4, [1, 2, 3])

def test_parse_dimension_odd():
    with pytest.raises(DimensionOdd):
        parse_model("dim = 3\n")

def test_parse_dimension_limit():
    assert parse_model(f"dim = {MAX_DIM}\n").dim == MAX_DIM == 14
    with pytest.raises(DimensionTooLarge):
        parse_model(f"dim = {MAX_DIM + 2}\n")

def test_parse_unknown_generator():
    with pytest.raises(UnknownGenerator):
        parse_model("dim = 4\nH = 1 e1^e2^e5\n")

def test_parse_errors_carry_position():
    try:
        parse_model("dim = 4\nd e4 = 1 e1^^e2\n")
    except ModelSyntaxError as e:
        assert e.line == 2
    else:
        raise AssertionError("expected a syntax error")

def test_parse_rational_literals():
    mf = parse_model("dim = 4\nH = 0\n\n[symplectic s]\n"
                     "omega = 3/2 e1^e2 + 1 e3^e4\nB = 0\n")
    val, _ = next(b for b in mf.blocks if b.name == "s").data["omega"]
    assert "3/2" in val

def test_emit_parse_roundtrip_corpus():
    for path in sorted(CORPUS.glob("*.gcm")):
        text = path.read_text()
        mf = parse_model(text)
        canon = emit_model(mf)
        mf2 = parse_model(canon)
        assert emit_model(mf2) == canon, path.name
        assert mf2.dim == mf.dim and mf2.H == mf.H
        assert sorted(mf2.structure) == sorted(mf.structure)


def test_exit_code_pass():
    code, out = run_cli("check", str(CORPUS / "kt.gcm"), "--quiet")
    assert code == 0 and "[PASS" in out

def test_exit_code_math_failure():
    code, out = run_cli("ddbar", str(CORPUS / "kt-twisted.gcm"), "--quiet")
    assert code == 1

def test_exit_code_parse_error(tmp_path):
    bad = tmp_path / "bad.gcm"
    bad.write_text("dim = 4\nwhat = ever\n")
    code, out = run_cli("check", str(bad))
    assert code == 2

@pytest.mark.parametrize("command, code, failed", [
    ("ddbar", 1, ["frolicher pages of main", "ddbar lemma for main"]),
    ("hodge", 1, ["hodge report for main"]),
    ("cohomology", 0, []),
    ("check", 0, []),
    ("grading", 0, [])])
def test_iwasawa_fails_the_frolicher_verdicts(command, code, failed):
    """On the Iwasawa manifold, whose Froelicher spectral sequence does not
    degenerate at E_1, `ddbar` fails the Froelicher pages and the del-delbar
    lemma and `hodge` fails its report; the rest pass."""
    got, out = run_cli(command, str(MODELS / "iwasawa.gcm"), "--json")
    doc = json.loads(out)
    assert got == code
    assert [c["name"] for c in doc["checks"]
            if c["verdict"] == "fail"] == failed

def test_json_schema():
    code, out = run_cli("cohomology", str(CORPUS / "torus4-complex.gcm"),
                        "--json")
    doc = json.loads(out)
    assert doc["schema"] == 1
    assert doc["command"] == "cohomology"
    assert all(c["verdict"] in ("pass", "fail", "skipped")
               for c in doc["checks"])

def test_at_flag_family_evaluation():
    code, out = run_cli("family", str(CORPUS / "torus4-symplectic.gcm"),
                        "--at", "t1=1/4", "--quiet")
    assert code == 0 and "at t1=1/4" in out

def test_repeated_main_calls_share_no_state():
    """An `--at` given to one `main` call must not reach the next: the
    second call answers as a fresh process does."""
    f = str(CORPUS / "torus4-kahler.gcm")
    code, _out = run_cli("family", f, "--at", "t1=1", "--quiet")
    assert code == 0
    second = run_cli("check", f, "--json")
    fresh = subprocess.run([sys.executable, "-m", "gchodge", "check", f,
                            "--json"], env=_src_env(), capture_output=True,
                           text=True, timeout=120)
    assert second == (fresh.returncode, fresh.stdout)

def test_hodge_json_filtration_dims():
    code, out = run_cli("hodge", str(CORPUS / "torus4-symplectic.gcm"),
                        "--json")
    assert code == 0
    doc = json.loads(out)
    details = [d for c in doc["checks"] for d in c["details"]
               if d.startswith("filtration dims")]
    assert details and "F^-2=1" in details[0] and "F^0=7" in details[0] \
        and "F^2=8" in details[0]


FAMILY = str(CORPUS / "torus4-symplectic.gcm")
# a complex family, well formed but for its variable count
FAMILY_VARIABLES = (b"dim = 4\nH = 0\n[family f]\nkind = complex\n"
                    b"variables = %s\n"
                    b"I = 0, 1, 0, 0; -1, 0, 0, 0; 0, 0, 0, 1; 0, 0, -1, 0\n")

def test_variable_count_is_bounded_by_max_variables():
    """A family may take MAX_VARIABLES = 8 parameters, and emit and build
    read the count through one check."""
    from gchodge.modelfile import MAX_VARIABLES, build_family
    mf = parse_model((FAMILY_VARIABLES % b"8").decode())
    fam = build_family(mf, mf.blocks[0], mf.model())
    assert fam.nvars == MAX_VARIABLES == 8
    assert "variables = 8" in emit_model(mf)


# a structure block whose omega names a family parameter: bad input to a
# command that builds the block, and unread by one that builds only families
OMEGA_T1 = (b"dim = 4\nH = 0\n\n[symplectic s]\n"
            b"omega = 1 e1^e2 + 1 e3^e4 + 1 t1 e1^e2\n")

@pytest.mark.parametrize("argv, files, code, expect", [
    (["family", FAMILY, "--at", "x"], {}, 2, "syntax-error"),
    (["family", FAMILY, "--at", "t1=1/0"], {}, 2, "syntax-error"),
    (["family", FAMILY, "--at", "tabc=1"], {}, 2, "syntax-error"),
    (["family", FAMILY, "--at", "t0=1"], {}, 2, "syntax-error"),
    (["family", FAMILY, "--at", "t5=1"], {}, 2, "syntax-error"),
    (["family", FAMILY, "--at="], {}, 2, "syntax-error: bad --at entry ''"),
    (["family", FAMILY, "--at", "t\u00b2=1"], {}, 2,
     "syntax-error: bad --at entry 't\u00b2=1'"),
    (["check", "bad.gcm"], {"bad.gcm": b"dim = 4\nH = 0 # \xff\xfe\n"},
     2, "read input"),
    (["check", "m.gcm"], {"m.gcm": b"dim = 4\nH = 0\n[complex c]\n"},
     2, "syntax-error: block 'c' needs 'I'"),
    (["check", "m.gcm"], {"m.gcm": b"dim = 4\nH = 0\n[general g]\n"},
     2, "syntax-error: block 'g' needs 'J'"),
    (["gk", "m.gcm"], {"m.gcm": b"dim = 4\nH = 0\n[symplectic s]\nB = 0\n"},
     2, "syntax-error: block 's' needs 'omega'"),
    (["family", "m.gcm"], {"m.gcm": b"dim = 4\nH = 0\n[family f]\nkind = complex\n"},
     2, "syntax-error: family 'f' needs 'variables'"),
    (["family", "m.gcm"], {"m.gcm": FAMILY_VARIABLES % b"0"}, 2,
     "syntax-error: variable count must be at least 1, got 0 (line 5"),
    (["family", "m.gcm"], {"m.gcm": FAMILY_VARIABLES % b"-2"}, 2,
     "syntax-error: variable count must be at least 1, got -2 (line 5"),
    (["family", "m.gcm"], {"m.gcm": FAMILY_VARIABLES % b"1000000000"}, 2,
     "syntax-error: variable count 1000000000 exceeds the maximum 8 (line 5"),
    (["emit", "m.gcm"], {"m.gcm": FAMILY_VARIABLES % b"1000000000"}, 2,
     "syntax-error: variable count 1000000000 exceeds the maximum 8 (line 5"),
    (["family", "m.gcm"], {"m.gcm": FAMILY_VARIABLES % b"9"}, 2,
     "syntax-error: variable count 9 exceeds the maximum 8 (line 5"),
    (["check", str(CORPUS / "kt.gcm"), "--at", "x"], {}, 2, "syntax-error"),
    (["family", str(CORPUS / "kt.gcm"), "--at", "x"], {}, 2, "syntax-error"),
    (["family", str(CORPUS / "torus4-kahler.gcm"), "--at", "t1=1,t1=2"], {},
     2, "syntax-error: --at gives t1 more than once"),
    (["hodge", str(CORPUS / "torus4-kahler.gcm"), "--at", "t1=1"], {}, 2,
     "syntax-error: --at applies to the family command only, not hodge"),
    (["family", str(CORPUS / "kt.gcm"), "--at", "t1=1"], {}, 2,
     "syntax-error: --at evaluates a family, and the file has no [family] "
     "block"),
    (["check", str(CORPUS / "kt.gcm"), "--samples", "-5"], {}, 2,
     "--samples"),
    (["gk", "m.gcm"], {"m.gcm": b"dim = 4\nH = 0\n[symplectic t]\n"
                                b"omega = 1 e1^e2 + 1 e3^e4\n"
                                b"[gk pair]\nfirst = s\nsecond = t\n"},
     1, "unresolved structure references ['s']"),
    (["gk", "m.gcm"], {"m.gcm": b"dim = 4\nH = 0\n[symplectic bad]\n"
                                b"omega = 1 e1^e2\n[symplectic t]\n"
                                b"omega = 1 e1^e2 + 1 e3^e4\n"
                                b"[gk pair]\nfirst = bad\nsecond = t\n"},
     1, "structure bad: degenerate-omega: omega^n = 0"),
    (["check", ".", "--all"], {"notes.txt": b"dim = 4\nH = 0\n"}, 2,
     "no .gcm files"),
    (["check", "m.gcm"], {"m.gcm": b"dim = 40\nH = 0\n"}, 2,
     "dimension-too-large: dimension 40 exceeds the maximum 14"),
    (["cohomology", "m.gcm"], {"m.gcm": b"dim = 40\nH = 0\n"}, 2,
     "dimension-too-large"),
    (["check", "m.gcm"], {"m.gcm": OMEGA_T1}, 2,
     "unknown-generator: parameter 't1' exceeds variable count 0 (line 5"),
    (["family", "m.gcm"], {"m.gcm": OMEGA_T1}, 0, "== family m.gcm"),
    (["check", "m.gcm"], {"m.gcm": b"dim = 4\nH = 1 t0 e1^e2^e3\n"}, 2,
     "unknown-generator: parameter 't0': parameters start at t1 (line 2"),
    (["family", "m.gcm"], {"m.gcm": b"dim = 4\nH = 0\n[family f]\n"
                                    b"kind = symplectic\nvariables = 1\n"
                                    b"omega = 1 e1^e2 + 1 e3^e4 + "
                                    b"1 t1^100000000 e1^e2\n"},
     2, "syntax-error: term '1 t1^100000000 e1^e2': the power of t1 exceeds "
        "the maximum 64 (line 6"),
    (["check", "m.gcm"], {"m.gcm": b"dim = 4\nH = 1 e1^e2^e3 -\n"}, 2,
     "syntax-error: term '-' has no factor (line 2"),
    (["check", "m.gcm"], {"m.gcm": b"dim = 4\nH = 0\n[symplectic s]\n"
                                   b"omega = 1 e1^e2 + *\n"},
     2, "syntax-error: term '*' has no factor (line 4"),
    (["check", "m.gcm"], {"m.gcm": b"dim = 4\nH = 0\n[symplectic s]\n"
                                   b"omega = 2 e1^e2 e3^e4\n"},
     2, "syntax-error: term '2 e1^e2 e3^e4' has two blade chains (line 4"),
    (["check", "m.gcm"], {"m.gcm": b"dim = 4\nH = 0\n[symplectic s]\n"
                                   b"omega = 1 e1^e2 + 1 e3^e4 +\n"},
     2, "syntax-error: term '+' has no factor (line 4"),
    (["check", "m.gcm"], {"m.gcm": b"dim = 4\nH = 0\n[symplectic s]\n"
                                   b"omega = 1 + + 2 e1^e2\n"},
     2, "syntax-error: term '+' has no factor (line 4"),
], ids=["at-x", "at-zero-denominator", "at-bad-name", "at-t0",
        "at-out-of-range", "at-empty", "at-superscript-digit", "non-utf8",
        "complex-without-I", "general-without-J",
        "gk-symplectic-without-omega", "family-without-variables",
        "family-zero-variables", "family-negative-variables",
        "family-variables-above-8", "emit-variables-above-8",
        "family-9-variables", "check-at-x", "family-without-block-at-x",
        "at-repeated", "hodge-at", "at-without-family", "negative-samples",
        "gk-first-missing", "gk-first-fails-to-build", "all-without-gcm-files",
        "check-dim-40", "cohomology-dim-40", "check-omega-with-t1",
        "family-omega-with-t1", "check-H-with-t0", "family-t1-power-above-64",
        "check-H-dangling-sign", "check-omega-lone-star",
        "check-omega-two-blade-chains", "check-omega-dangling-plus",
        "check-omega-double-plus"])
def test_bad_input_exit_codes(tmp_path, argv, files, code, expect):
    """Bad input exits 2 (a block missing its data, a malformed --at on any
    command, a parameter given twice in --at, any --at on a command but
    family or on a file with no [family] block, an --all directory without
    model files, a dimension above MAX_DIM, whose 2^dim blades no command
    could hold), with a report or
    stderr line and never a traceback; a [gk] block naming
    a structure that does not exist fails its check (exit 1) and names only
    that structure, and one naming a structure that fails to build reports
    that build's error.  An --at value comes from the command line, so its
    report line gives no model-file position.  A command parses only the
    blocks it builds: `family` never reads a [symplectic] block, so a
    parameter in its omega is bad input to `check` alone.  A `t0` names no
    parameter (they start at t1) and is bad input too, as are a digit
    that is not decimal (a superscript) in an --at name, a variable count
    above MAX_VARIABLES, which emit and family refuse before any exponent
    tuple is formed, a parameter's
    power above MAX_POWER in one term, which is refused before any family
    polynomial is formed, a term with no factor (a dangling sign, a '+'
    with no term after it or a lone '*') and a term with two blade
    chains."""
    for name, data in files.items():
        (tmp_path / name).write_bytes(data)
    proc = subprocess.run([sys.executable, "-m", "gchodge.cli", *argv],
                          cwd=tmp_path, env=_src_env(), capture_output=True,
                          text=True, timeout=60)
    out = proc.stdout + proc.stderr
    assert proc.returncode == code, out
    assert "Traceback" not in out
    assert expect in out
    if "--at" in argv:
        assert "(line" not in out

@pytest.mark.parametrize("command", ["check", "cohomology", "grading", "ddbar",
                                     "hodge", "lefschetz", "mhs", "family",
                                     "gcy", "gk", "emit"])
def test_non_real_structure_constants_exit_2(tmp_path, command):
    """`d e4 = i e1^e2` names no real Lie algebra: every command rejects the
    file as input, instead of reporting verdicts on it or failing a later
    check with a misleading twist error."""
    text = (CORPUS / "kt.gcm").read_text()
    assert "d e4 = 1 e1^e2" in text
    bad = tmp_path / "kt-i.gcm"
    bad.write_text(text.replace("d e4 = 1 e1^e2", "d e4 = i e1^e2"))
    code, out = run_cli(command, str(bad), "--json")
    assert code == 2
    checks = json.loads(out)["checks"]
    assert [c["name"] for c in checks] == ["parse input"]
    assert checks[0]["details"][0].startswith("structure-constants-not-real:")

@pytest.mark.parametrize("argv, code", [
    (["emit", str(CORPUS / "kt.gcm")], 0),
    (["emit", str(CORPUS), "--all", "--json"], 0),
    (["check", str(CORPUS / "kt.gcm"), "--at", "x"], 2),
], ids=["single-file", "all", "at-error"])
def test_closed_stdout_ends_without_traceback(argv, code):
    """A reader that goes away before the report is written (`| head -c 0`)
    costs no traceback, and the exit code is still the report's."""
    proc = subprocess.Popen([sys.executable, "-m", "gchodge.cli", *argv],
                            env=_src_env(), stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True)
    proc.stdout.close()   # before the child has got past its imports
    _out, err = proc.communicate(timeout=60)
    assert "Traceback" not in err and "BrokenPipeError" not in err, err
    assert proc.returncode == code


def test_hodge_builds_twisted_cohomology_once(monkeypatch):
    """`hodge` reads the Hodge filtration, the Mukai pairing and the
    Froelicher totals, and `mhs` the weight split, off one reduction of d_H
    over the blades: the only reduction whose labels are blades."""
    from gchodge.linalg import ColumnReduction
    built = []
    init = ColumnReduction.__init__

    def counting_init(self, order, cols, groups):
        built.append((type(self).__name__, order))
        init(self, order, cols, groups)

    monkeypatch.setattr(ColumnReduction, "__init__", counting_init)
    for command, name in (("hodge", "torus6-kahler"), ("mhs", "torus6-complex")):
        built.clear()
        code, _out = run_cli(command, str(CORPUS / f"{name}.gcm"))
        assert code == 0
        assert [kind for kind, order in built if isinstance(order[0], int)] \
            == ["TwistedCohomology"], command


def test_structure_results_computed_once(monkeypatch):
    """A structure's delbar cohomology and del-delbar verdict are computed
    once per command: `hodge` asks for the delbar dimensions twice per
    structure (Froelicher pages and the Hodge report), and `family` checks
    its basepoint once for the command and once per transversality degree."""
    from gchodge import cli, cohomology, families
    calls = {"delbar_cohomology": [], "ddbar_check": []}
    for name in calls:
        fn = getattr(cohomology, name)

        def counting(s, fn=fn, name=name):
            calls[name].append(s)
            return fn(s)

        for mod in (cohomology, families, cli):
            if getattr(mod, name, None) is fn:
                monkeypatch.setattr(mod, name, counting)

    code, _out = run_cli("hodge", str(CORPUS / "torus6-kahler.gcm"))
    assert code == 0
    assert len(calls["delbar_cohomology"]) == 2
    assert len(calls["ddbar_check"]) == 2
    for seen in calls.values():
        assert len({id(s) for s in seen}) == len(seen)

    for seen in calls.values():
        seen.clear()
    code, _out = run_cli("family", str(CORPUS / "torus4-kahler.gcm"))
    assert code == 0
    checked = calls["ddbar_check"]
    assert checked and len({id(s) for s in checked}) == len(checked)


def run_cli_process(*argv):
    return subprocess.run([sys.executable, "-m", "gchodge", *argv],
                          env=_src_env(), capture_output=True, text=True,
                          timeout=120)


@pytest.mark.parametrize("flag", ["-h", "--help"])
def test_help_exits_0(flag):
    proc = run_cli_process("check", flag)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("usage: gchodge") and not proc.stderr
    assert "--at AT" in proc.stdout and "emit" in proc.stdout


KT = str(CORPUS / "kt.gcm")

@pytest.mark.parametrize("argv, reason", [
    (["bogus", KT], "invalid command 'bogus'"),
    (["check"], "the following arguments are required: target"),
    ([], "the following arguments are required: command, target"),
    (["check", KT, "extra"], "unrecognized argument 'extra'"),
    (["check", KT, "--bogus"], "unrecognized argument '--bogus'"),
    (["check", KT, "--js"], "unrecognized argument '--js'"),
    (["check", "--json=1", KT], "unrecognized argument '--json=1'"),
    (["family", KT, "--at"], "argument --at: expected one argument"),
    (["family", KT, "--at", "--json"], "argument --at: expected one argument"),
    (["family", KT, "--at", "t1=1", "--at=t1=2"],
     "argument --at: given more than once"),
], ids=["unknown-command", "one-positional", "no-positional",
        "three-positionals", "bogus-option", "abbreviation", "flag-value",
        "trailing-at", "at-without-value", "at-twice"])
def test_bad_argument_list_exits_2(argv, reason):
    """A bad argument list exits 2 with the usage line and a reason naming
    the token on stderr, and nothing on stdout; options are never
    abbreviated.  Called in process, `main` returns the 2 instead of
    raising SystemExit."""
    proc = run_cli_process(*argv)
    assert proc.returncode == 2
    assert proc.stdout == "" and "Traceback" not in proc.stderr
    assert proc.stderr.startswith("usage: gchodge")
    assert f"gchodge: error: {reason}" in proc.stderr
    err = io.StringIO()
    with redirect_stderr(err):
        assert main(argv) == 2
    assert err.getvalue() == proc.stderr


def test_options_go_anywhere():
    f = str(CORPUS / "torus4-symplectic.gcm")
    want = run_cli("family", f, "--at", "t1=1/4", "--quiet")
    assert want[0] == 0
    assert run_cli("--quiet", "family", "--at=t1=1/4", f) == want
