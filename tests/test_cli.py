"""Model-file parsing, canonical emission round-trips, CLI exit codes."""

import io
import json
import os
import subprocess
import sys
from contextlib import redirect_stdout
from pathlib import Path

import pytest

from gchodge.cli import main
from gchodge.errors import DimensionOdd, ModelSyntaxError, UnknownGenerator
from gchodge.forms import Form
from gchodge.modelfile import emit_model, parse_model

CORPUS = Path(__file__).resolve().parent.parent / "corpus"
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
    val, _ = mf.block("s").data["omega"]
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

@pytest.mark.parametrize("argv, files, code, expect", [
    (["family", FAMILY, "--at", "x"], {}, 2, "syntax-error"),
    (["family", FAMILY, "--at", "t1=1/0"], {}, 2, "syntax-error"),
    (["family", FAMILY, "--at", "tabc=1"], {}, 2, "syntax-error"),
    (["family", FAMILY, "--at", "t0=1"], {}, 2, "syntax-error"),
    (["family", FAMILY, "--at", "t5=1"], {}, 2, "syntax-error"),
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
    (["check", str(CORPUS / "kt.gcm"), "--at", "x"], {}, 2, "syntax-error"),
    (["family", str(CORPUS / "kt.gcm"), "--at", "x"], {}, 2, "syntax-error"),
    (["check", str(CORPUS / "kt.gcm"), "--samples", "-5"], {}, 2,
     "--samples"),
    (["gk", "m.gcm"], {"m.gcm": b"dim = 4\nH = 0\n[symplectic t]\n"
                                b"omega = 1 e1^e2 + 1 e3^e4\n"
                                b"[gk pair]\nfirst = s\nsecond = t\n"},
     1, "unresolved structure references ['s']"),
    (["check", ".", "--all"], {"notes.txt": b"dim = 4\nH = 0\n"}, 2,
     "no .gcm files"),
], ids=["at-x", "at-zero-denominator", "at-bad-name", "at-t0",
        "at-out-of-range", "non-utf8", "complex-without-I",
        "general-without-J", "gk-symplectic-without-omega",
        "family-without-variables", "check-at-x", "family-without-block-at-x",
        "negative-samples", "gk-first-missing", "all-without-gcm-files"])
def test_bad_input_exit_codes(tmp_path, argv, files, code, expect):
    """Bad input exits 2 (a block missing its data, a malformed --at on any
    command, an --all directory without model files), with a report or
    stderr line and never a traceback; a [gk] block naming
    a structure that does not exist fails its check (exit 1) and names only
    that structure.  An --at value comes from the command line, so its
    report line gives no model-file position."""
    for name, data in files.items():
        (tmp_path / name).write_bytes(data)
    proc = subprocess.run([sys.executable, "-m", "gchodge.cli", *argv],
                          cwd=tmp_path, env=_src_env(), capture_output=True,
                          text=True)
    out = proc.stdout + proc.stderr
    assert proc.returncode == code, out
    assert "Traceback" not in out
    assert expect in out
    if "--at" in argv:
        assert "(line" not in out

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
    from gchodge.cohomology import TwistedCohomology
    built = []
    init = TwistedCohomology.__init__

    def counting_init(self, m):
        built.append(m)
        init(self, m)

    monkeypatch.setattr(TwistedCohomology, "__init__", counting_init)
    code, _out = run_cli("hodge", str(CORPUS / "torus6-kahler.gcm"))
    assert code == 0
    assert len(built) == 1


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
