"""Command-line front end: parse .gcm model files, dispatch checks, and emit
deterministic text or JSON reports.

Exit codes: 0 all checks pass, 1 a mathematical check failed, 2 input error.
"""

from __future__ import annotations

import gc
import json
import os
import sys
from pathlib import Path
from types import SimpleNamespace

from .cohomology import (ddbar_check, delbar_dims, frolicher_pages,
                         hodge_filtration, invariant_derham, lefschetz_check,
                         mukai_Q, twisted_cohomology, weight_mhs_check)
from .courant import courant_axiom_suite
from .errors import EngineError, ModelSyntaxError
from .families import (family_validate, gcy_check, graph_epsilon,
                       holomorphy_check, ks_class, symp_filtration_check,
                       transversality_check)
from .forms import Form
from .gkaehler import (algebroid_split_check, bigraded_cohomology, bigrading,
                       delta_split_check, gk_deformation_check, gk_validate)
from .liemodel import once
from .modelfile import build_family, build_structure, emit_model, parse_model
from .scalars import QI

# The objects the imports above create (about 13k: code objects, functions,
# classes, tables) live as long as the process.  Freezing them takes them out
# of the collector's generations, so no collection walks them again; without
# it, a gen-1 collection over them (0.7-0.9 ms) falls either during the
# imports or in the first job of the run, depending on how much they allocate.
gc.freeze()

COMMANDS = ("check", "cohomology", "grading", "ddbar", "hodge", "lefschetz",
            "mhs", "family", "gcy", "gk", "emit")


class Report:
    def __init__(self, command: str, filename: str):
        self.doc = {"schema": 1, "command": command, "file": filename,
                    "checks": []}
        self.failed = False

    def add(self, name: str, verdict: str, details=None):
        if verdict == "fail":
            self.failed = True
        self.doc["checks"].append({
            "name": name, "verdict": verdict,
            "details": list(details) if details else []})

    def render(self, as_json: bool, quiet: bool) -> str:
        if as_json:
            return json.dumps(self.doc, indent=2, sort_keys=False)
        lines = [f"== {self.doc['command']} {self.doc['file']}"]
        for c in self.doc["checks"]:
            lines.append(f"[{c['verdict'].upper():7}] {c['name']}")
            if not quiet:
                lines.extend(f"    {d}" for d in c["details"])
        return "\n".join(lines)


def _structures(mf, model, report, kinds=None):
    out = []
    for b in mf.blocks:
        if b.kind in ("symplectic", "complex", "general"):
            if kinds and b.kind not in kinds:
                continue
            try:
                out.append((b, build_structure(mf, b, model)))
            except ModelSyntaxError:
                raise
            except EngineError as e:
                report.add(f"structure {b.name}", "fail", [f"{e.code}: {e}"])
    return out


def _verdict(ok: bool) -> str:
    return "pass" if ok else "fail"


def cmd_check(mf, model, report, args):
    rep = model.validate()
    report.add("model validity (d^2 = 0, dH = 0)", _verdict(rep.ok), rep.lines())
    if rep.ok:
        ax = courant_axiom_suite(model)
        report.add("courant axiom suite", _verdict(ax.ok), ax.lines())
        for b, s in _structures(mf, model, report):
            resid_ok = set(s.dH_parts) <= {-1, 1}
            report.add(f"structure {b.name} ({b.kind})",
                       _verdict(resid_ok),
                       [f"parity {s.parity}", "spinor present",
                        f"d_H = del + delbar residual zero: {resid_ok}"])


def cmd_cohomology(mf, model, report, args):
    model.require_valid()
    derham = invariant_derham(model)
    betti = [derham.dim(k) for k in range(model.dim + 1)]
    report.add("invariant de Rham Betti numbers", "pass",
               [" ".join(str(b) for b in betti)])
    tw = twisted_cohomology(model)
    report.add("twisted cohomology", "pass",
               [f"even {tw.dim_even}, odd {tw.dim_odd}"])
    for b, s in _structures(mf, model, report):
        dims = delbar_dims(s)
        report.add(f"delbar cohomology of {b.name}", "pass",
                   [", ".join(f"h^{k}={d}" for k, d in sorted(dims.items()))])


def cmd_grading(mf, model, report, args):
    model.require_valid()
    for b, s in _structures(mf, model, report):
        details = [f"parity {s.parity}",
                   "U dims: " + ", ".join(
                       f"{k}:{d}" for k, d in sorted(s.U_dims.items())),
                   f"spinor: {s.spinor!r}"]
        ok = sum(s.U_dims.values()) == 1 << model.dim
        if s.kind == "symplectic":
            c = _measure_wedge_constant(s)
            details.append(f"measured psi/phi wedge constant: {c}")
        report.add(f"grading of {b.name}", _verdict(ok), details)


def _measure_wedge_constant(s):
    """The section-5.1-style constant in psi^{-1}(xi) phi(a) = c phi(xi ^ a)."""
    from .gcs import flat_matrix, symp_phi
    from .courant import clifford_act
    from .linalg import mat_inv
    m = s.model
    dim = m.dim
    Winv = mat_inv(flat_matrix(s.omega))
    sigma = s.omega + s.B.scale(QI(0, 1))
    consts = set()
    for xi in range(1, dim + 1):
        # Y with i_Y omega = -i xi  =>  psi^{-1}(xi) = Y + i sigma(Y)
        ycoords = [Winv[r][xi - 1] * QI(0, -1) for r in range(dim)]
        sigY = sigma.contract_vector(ycoords)
        elem = {r: c for r, c in enumerate(ycoords) if c}
        for k in range(dim):
            c = sigY.coeffs.get(1 << k)
            if c:
                elem[dim + k] = c * QI(0, 1)
        for mask in (0, 1, (1 << dim) - 2):
            a = Form(dim, {mask: QI(1)})
            lhs = clifford_act(elem, symp_phi(s, a))
            rhs = symp_phi(s, Form.blade(dim, [xi]).wedge(a))
            if rhs.is_zero():
                if not lhs.is_zero():
                    return None
                continue
            for bmask, bv in rhs.coeffs.items():
                lv = lhs.coeffs.get(bmask, QI(0))
                consts.add(lv / bv)
                break
    if len(consts) == 1:
        return str(consts.pop())
    return None


def cmd_ddbar(mf, model, report, args):
    model.require_valid()
    for b, s in _structures(mf, model, report):
        frl = frolicher_pages(s)
        report.add(f"frolicher pages of {b.name}",
                   _verdict(frl.degenerates), frl.lines())
        dd = once(s, ddbar_check)
        report.add(f"ddbar lemma for {b.name}", _verdict(dd.holds), dd.lines())


def cmd_hodge(mf, model, report, args):
    model.require_valid()
    for b, s in _structures(mf, model, report):
        rep = hodge_filtration(s)
        equiv = rep.ddbar_holds == (rep.frolicher_degenerates and rep.hodge_ok)
        report.add(f"hodge report for {b.name}",
                   _verdict(rep.hodge_ok and rep.ddbar_holds), rep.lines())
        report.add(f"ddbar <=> degeneration + hodge filtration ({b.name})",
                   _verdict(equiv), [])
        q = mukai_Q(s)
        report.add(f"mukai pairing on cohomology ({b.name})",
                   _verdict(q.descends and q.nondegenerate), q.lines())


def cmd_lefschetz(mf, model, report, args):
    model.require_valid()
    for b, s in _structures(mf, model, report, kinds=("symplectic",)):
        lf = lefschetz_check(s)
        report.add(f"strong Lefschetz for {b.name}", _verdict(lf.ok), lf.lines())
        dd = once(s, ddbar_check)
        report.add(f"lefschetz <=> ddbar ({b.name})",
                   _verdict(lf.ok == dd.holds),
                   [f"lefschetz {lf.ok}, ddbar {dd.holds}"])


def cmd_mhs(mf, model, report, args):
    model.require_valid()
    for b, s in _structures(mf, model, report, kinds=("complex",)):
        rep = weight_mhs_check(s)
        verdict = "skipped" if rep.skipped else _verdict(rep.split_ok)
        report.add(f"mixed Hodge structure for {b.name}", verdict, rep.lines())


def cmd_family(mf, model, report, args):
    if args.at and not any(b.kind == "family" for b in mf.blocks):
        raise ModelSyntaxError("--at evaluates a family, and the file has "
                               "no [family] block")
    model.require_valid()
    for b in mf.blocks:
        if b.kind != "family":
            continue
        try:
            fam = build_family(mf, b, model)
        except ModelSyntaxError:
            raise
        except EngineError as e:
            report.add(f"family {b.name}", "fail", [f"{e.code}: {e}"])
            continue
        fv = family_validate(fam)
        report.add(f"family {b.name} validity", _verdict(fv.ok), fv.lines())
        if not fv.ok:
            continue
        if args.at:
            bad = [j for j in args.at_values if not 1 <= j <= fam.nvars]
            if bad:
                raise ModelSyntaxError(f"--at names t{bad[0]}, but the family "
                                       f"has parameters t1..t{fam.nvars}")
            pt = tuple(args.at_values.get(j + 1, QI(0))
                       for j in range(fam.nvars))
            try:
                s = fam.structure_at(pt)
                report.add(f"family {b.name} at {args.at}", "pass",
                           [f"parity {s.parity}, kind {s.kind}"])
            except EngineError as e:
                report.add(f"family {b.name} at {args.at}", "fail",
                           [f"{e.code}: {e}"])
            continue
        for j in range(fam.nvars):
            try:
                ks = ks_class(fam, j)
                report.add(f"family {b.name} KS class dir t{j + 1}",
                           _verdict(ks.closed and ks.jjandks_ok), ks.lines())
            except EngineError as e:
                report.add(f"family {b.name} KS class dir t{j + 1}", "fail",
                           [f"{e.code}: {e}"])
        for pt in fam.samples:
            try:
                g = graph_epsilon(fam, pt)
                report.add(f"family {b.name} graph at {_fmt_point(pt)}",
                           _verdict(g.roundtrip_ok), g.lines())
            except EngineError as e:
                report.add(f"family {b.name} graph at {_fmt_point(pt)}",
                           "fail", [f"{e.code}: {e}"])
        if fam.nvars == 2:
            h = holomorphy_check(fam)
            report.add(f"family {b.name} holomorphy",
                       _verdict(h.holomorphic), h.lines())
        n = model.dim // 2
        base_dd = once(fam.base_structure(), ddbar_check)
        if base_dd.holds:
            for p in range(-n, n - 1):
                tr = transversality_check(fam, p, 0)
                ok = (tr.skipped is None and tr.transversal
                      and tr.nabla_window_ok and tr.proportional
                      and all(tr.samples_good.values()))
                report.add(f"family {b.name} transversality p={p}",
                           _verdict(ok), tr.lines())
        else:
            report.add(f"family {b.name} transversality", "skipped",
                       ["basepoint fails the del-delbar lemma"])
        if fam.kind == "symplectic":
            for p in range(-n, n + 1):
                sf = symp_filtration_check(fam, p)
                verdict = "skipped" if sf.skipped else _verdict(sf.ok)
                report.add(f"family {b.name} symplectic F^{p} tracking",
                           verdict, sf.lines())


def cmd_gcy(mf, model, report, args):
    from .errors import SpinorNotClosed
    model.require_valid()
    for b, s in _structures(mf, model, report):
        try:
            rep = gcy_check(s)
            ok = (rep.spinor_closed and rep.iso_ok and rep.period_injective
                  and rep.chain_identity_ok)
            report.add(f"gcy check for {b.name}", _verdict(ok), rep.lines())
        except SpinorNotClosed:
            report.add(f"gcy check for {b.name}", "skipped",
                       ["spinor is not d_H-closed: not generalized Calabi-Yau"])
        except EngineError as e:
            report.add(f"gcy check for {b.name}", "fail", [f"{e.code}: {e}"])


def cmd_gk(mf, model, report, args):
    model.require_valid()
    built = {}
    fams = {}
    broken = {}     # structure name -> its build error
    for b in mf.blocks:
        try:
            if b.kind in ("symplectic", "complex", "general"):
                built[b.name] = build_structure(mf, b, model)
            elif b.kind == "family":
                fams[b.name] = build_family(mf, b, model)
        except ModelSyntaxError:
            raise
        except EngineError as e:
            broken[b.name] = f"structure {b.name}: {e.code}: {e}"
    for b in mf.blocks:
        if b.kind != "gk":
            continue
        if "families" in b.data:
            names = [x.strip() for x in b.data["families"][0].split(",")]
            if len(names) != 2 or not all(nm in fams for nm in names):
                report.add(f"gk {b.name}", "fail",
                           ["families reference is unresolved"])
                continue
            try:
                rep = gk_deformation_check(fams[names[0]], fams[names[1]])
                report.add(f"gk deformation {b.name}",
                           _verdict(rep.compatible), rep.lines())
            except EngineError as e:
                report.add(f"gk deformation {b.name}", "fail",
                           [f"{e.code}: {e}"])
            continue
        names = [b.data.get("first", ("", 0))[0].strip(),
                 b.data.get("second", ("", 0))[0].strip()]
        failed = [broken[nm] for nm in names if nm in broken]
        missing = [nm for nm in names if nm not in built and nm not in broken]
        if missing:
            failed.append(f"unresolved structure references {missing}")
        if failed:
            report.add(f"gk {b.name}", "fail", failed)
            continue
        try:
            pair = gk_validate(built[names[0]], built[names[1]])
        except EngineError as e:
            report.add(f"gk pair {b.name}", "fail", [f"{e.code}: {e}"])
            continue
        bg = bigrading(pair)
        report.add(f"gk bigrading {b.name}",
                   _verdict(bg.total_ok and bg.parity_ok and bg.commute_ok
                            and bg.hodge_dims_ok), bg.lines())
        ds = delta_split_check(pair)
        report.add(f"gk d_H split {b.name}",
                   _verdict(ds.residual_ok and ds.matches_delbar1
                            and ds.matches_delbar2 and ds.anticommute_ok),
                   ds.lines())
        bc = bigraded_cohomology(pair)
        report.add(f"gk bigraded cohomology {b.name}",
                   _verdict(bc.total_matches_twisted and bc.blocks_decompose
                            and bc.intersection_ok and bc.marginals_ok),
                   bc.lines())
        dd1 = once(pair.s1, ddbar_check)
        dd2 = once(pair.s2, ddbar_check)
        report.add(f"gk ddbar both structures {b.name}",
                   _verdict(dd1.holds and dd2.holds),
                   [f"J1: {dd1.holds}, J2: {dd2.holds}"])
        try:
            sp1 = algebroid_split_check(pair.s1.L, pair.Lp, pair.Lm)
            sp2 = algebroid_split_check(pair.s2.L, pair.Lp, pair.Lm.conj())
            report.add(f"gk algebroid decompositions {b.name}",
                       _verdict(sp1.ok and sp2.ok),
                       sp1.lines() + sp2.lines())
        except EngineError as e:
            report.add(f"gk algebroid decompositions {b.name}", "fail",
                       [f"{e.code}: {e}"])


def cmd_emit(mf, model, report, args):
    report.add("canonical form", "pass", emit_model(mf).splitlines())


HANDLERS = {
    "check": cmd_check, "cohomology": cmd_cohomology, "grading": cmd_grading,
    "ddbar": cmd_ddbar, "hodge": cmd_hodge, "lefschetz": cmd_lefschetz,
    "mhs": cmd_mhs, "family": cmd_family, "gcy": cmd_gcy, "gk": cmd_gk,
    "emit": cmd_emit,
}


def _parse_at(spec: str) -> dict[int, QI]:
    """The values of a `t1=r[,t2=s...]` spec by parameter number; raises
    ModelSyntaxError for a malformed entry or a parameter given twice."""
    from .modelfile import _parse_scalar
    vals = {}
    for part in spec.split(","):
        key, eq, v = part.partition("=")
        key = key.strip()
        if not (eq and key[:1] == "t" and key[1:].isdecimal()):
            raise ModelSyntaxError(f"bad --at entry {part!r}")
        j = int(key[1:])
        if j in vals:
            raise ModelSyntaxError(f"--at gives t{j} more than once")
        vals[j] = _parse_scalar(v.strip(), None)
    return vals


def _fmt_point(pt) -> str:
    return "(" + ", ".join(str(x) for x in pt) + ")"


def run_file(command: str, path: Path, args) -> tuple[int, str]:
    report = Report(command, path.name)
    try:
        text = path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as e:
        report.add("read input", "fail", [str(e)])
        return 2, report.render(args.json, args.quiet)
    try:
        mf = parse_model(text)
        model = mf.model(name=path.stem)
    except (ModelSyntaxError, EngineError) as e:
        report.add("parse input", "fail", [f"{e.code}: {e}"])
        return 2, report.render(args.json, args.quiet)
    try:
        HANDLERS[command](mf, model, report, args)
    except ModelSyntaxError as e:   # bad input met inside a command
        report.add("parse input", "fail", [f"{e.code}: {e}"])
        return 2, report.render(args.json, args.quiet)
    except EngineError as e:
        report.add("engine", "fail", [f"{e.code}: {e}"])
    return (1 if report.failed else 0), report.render(args.json, args.quiet)


USAGE = ("usage: gchodge [-h] [--json] [--quiet] [--all] [--at AT] "
         "command target")
HELP = f"""{USAGE}

Exact generalized-complex Hodge checks on invariant models

positional arguments:
  command     one of {", ".join(COMMANDS)}
  target      .gcm file (or directory with --all)

options:
  -h, --help  show this help message and exit
  --json      structured output
  --quiet     verdict lines only
  --all       process every .gcm file under the target directory
  --at AT     evaluate families at t1=r[,t2=s...]"""
FLAGS = ("--json", "--quiet", "--all")


def _parse_args(argv: list[str]) -> SimpleNamespace | int:
    """The command line `<command> <target> [--json] [--quiet] [--all]
    [--at VALUE | --at=VALUE]`, options anywhere, as a namespace; or the
    exit code when there is nothing to run: 0 after printing the help for
    -h/--help, 2 after a usage error on stderr."""
    args = SimpleNamespace(json=False, quiet=False, all=False, at=None)
    pos = []
    it = iter(argv)
    for tok in it:
        if tok in ("-h", "--help"):
            print(HELP)
            return 0
        if tok in FLAGS:
            setattr(args, tok[2:], True)
            continue
        if tok == "--at":
            value = next(it, None)
            if value is None or value.startswith("-"):
                return _usage_error("argument --at: expected one argument")
        elif tok.startswith("--at="):
            value = tok[5:]
        elif tok.startswith("-") and tok != "-":
            return _usage_error(f"unrecognized argument {tok!r}")
        else:
            pos.append(tok)
            continue
        if args.at is not None:
            return _usage_error("argument --at: given more than once")
        args.at = value
    if len(pos) < 2:
        missing = ("command, target", "target")[len(pos)]
        return _usage_error(f"the following arguments are required: {missing}")
    if len(pos) > 2:
        return _usage_error(f"unrecognized argument {pos[2]!r}")
    args.command, args.target = pos
    if args.command not in COMMANDS:
        return _usage_error(f"invalid command {args.command!r} (choose from "
                            f"{', '.join(COMMANDS)})")
    return args


def _usage_error(reason: str) -> int:
    print(f"{USAGE}\ngchodge: error: {reason}", file=sys.stderr)
    return 2


def main(argv=None) -> int:
    args = _parse_args(sys.argv[1:] if argv is None else argv)
    if isinstance(args, int):
        return args
    target = Path(args.target)
    try:
        args.at_values = {} if args.at is None else _parse_at(args.at)
        if args.at is not None and args.command != "family":
            raise ModelSyntaxError(
                f"--at applies to the family command only, not {args.command}")
    except ModelSyntaxError as e:
        report = Report(args.command, target.name)
        report.add("parse input", "fail", [f"{e.code}: {e}"])
        return _emit(report.render(args.json, args.quiet), 2)
    if args.all:
        if not target.is_dir():
            print(f"not a directory: {target}", file=sys.stderr)
            return 2
        files = sorted(target.rglob("*.gcm"))
        if not files:
            print(f"no .gcm files under {target}", file=sys.stderr)
            return 2
        code = 0
        chunks = []
        for p in files:
            c, text = run_file(args.command, p, args)
            code = max(code, c)
            chunks.append(text)
        return _emit("\n\n".join(chunks), code)
    code, text = run_file(args.command, target, args)
    return _emit(text, code)


def _emit(text: str, code: int) -> int:
    """Print the report and return its exit code; a reader that closes the
    pipe early (`| head`) ends the output without a traceback."""
    try:
        print(text)
        sys.stdout.flush()
    except BrokenPipeError:
        # as in the Python `signal` docs: send the rest, and the flush at
        # exit, to devnull
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    return code


if __name__ == "__main__":
    sys.exit(main())
