"""The .gcm model-file format: parser, canonical emitter, and builders.

A file holds one model (dimension, structure lines, twist) plus any number of
structure blocks ([symplectic]/[complex]/[general]), [family] blocks, and
[gk] blocks referencing structures or families by name.
"""

from __future__ import annotations

import re
from fractions import Fraction

from .errors import (DimensionOdd, DimensionTooLarge, EngineError,
                     ModelSyntaxError, UnknownGenerator, record)
from .forms import Form, blade_name, popcount
from .liemodel import LieModel
from .poly import ParamPoly, PolyMatrix, form_eval, pmat_eval
from .scalars import I, ONE, QI, format_qi

_NUM = re.compile(r"^(-?\d+)(?:/(\d+))?(i?)$")
_GEN = re.compile(r"^e(\d+)$")
_VEC = re.compile(r"^x(\d+)$")
_VAR = re.compile(r"^t(\d+)(?:\^(\d+))?$")

# the largest dimension a file may declare: the spinor space has 2^dim blades
MAX_DIM = 14
# the largest power of a parameter in one term: families multiply once per unit
MAX_POWER = 64
# the most parameters a family may take: every term carries one exponent per
# parameter
MAX_VARIABLES = 8


@record
class StructBlock:
    kind: str
    name: str
    data: dict
    line: int


@record
class ModelFile:
    dim: int
    structure: list
    H: Form
    blocks: list[StructBlock]

    def model(self, name: str = "") -> LieModel:
        return LieModel(self.dim, self.structure, self.H, name=name)


def _parse_scalar(tok: str, lno: int | None) -> QI:
    m = _NUM.match(tok)
    if not m:
        raise ModelSyntaxError(f"bad rational literal {tok!r}", lno)
    num, den, im = m.groups()
    val = int(num)
    if den is not None:
        d = int(den)
        if not d:
            raise ModelSyntaxError(f"zero denominator in {tok!r}", lno)
        val = Fraction(val, d)
    return QI(0, val) if im else QI(val)


def _parse_form_expr(text: str, dim: int, nvars: int, lno: int) -> Form:
    """Sum of terms, each an optional sign and factors: rational/i literals,
    t-monomials and at most one blade chain e_a^e_b^...; the coefficients
    are ParamPoly.  A term with no factor (a dangling sign, a '+' with no
    term after it or a lone '*'), two blade chains or a parameter's power
    above MAX_POWER is an error.

    One pass: a term is one monomial c t^e on one blade, folded into a dict
    by blade mask and exponent tuple; a sum that cancels drops its entry,
    and one Form is built at the end."""
    acc: dict[int, dict[tuple, QI]] = {}
    chunks = text.replace("-", "+-").split("+")
    for idx, chunk in enumerate(chunks):
        term = chunk.strip()
        if not term:
            # past the first, an empty chunk is a '+' with no term after
            # it, unless a '-' term comes next (`a + -b`)
            if idx and not "".join(chunks[idx + 1:idx + 2]).startswith("-"):
                raise ModelSyntaxError("term '+' has no factor", lno)
            continue
        negative = term[0] == "-"
        factors = term[negative:].replace("^", " ^ ").replace("*", " ").split()
        if not factors:
            raise ModelSyntaxError(f"term {term!r} has no factor", lno)
        n = len(factors)
        c = ONE
        expt = [0] * nvars
        mask, sign = 0, 1       # sign 0: a blade chain repeats a generator
        i = 0
        while i < n:
            tok = factors[i]
            i += 1
            if tok == "i":
                c = c * I
                continue
            gm = _GEN.match(tok)
            if gm:
                if mask:        # every chain sets a bit
                    raise ModelSyntaxError(
                        f"term {term!r} has two blade chains", lno)
                # a blade chain e_a ^ e_b ^ ...: generators in range, then
                # the sign of sorting them, as Form.blade takes it
                idxs = [int(gm.group(1))]
                while i + 1 < n and factors[i] == "^":
                    g2 = _GEN.match(factors[i + 1])
                    if not g2:
                        raise ModelSyntaxError(
                            f"expected generator after '^', got {factors[i + 1]!r}",
                            lno)
                    idxs.append(int(g2.group(1)))
                    i += 2
                for k in idxs:
                    if not 1 <= k <= dim:
                        raise UnknownGenerator(f"generator e{k} exceeds dim {dim}",
                                               lno)
                    bit = 1 << (k - 1)
                    if mask & bit:
                        sign = 0
                    elif (mask >> k).bit_count() & 1:
                        sign = -sign
                    mask |= bit
                continue
            vm = _VAR.match(tok)
            if vm:
                j = int(vm.group(1))
                if not 1 <= j <= nvars:
                    raise UnknownGenerator(
                        f"parameter {tok!r} exceeds variable count {nvars}"
                        if j else f"parameter {tok!r}: parameters start at t1",
                        lno)
                power = "1"
                if i + 1 < n and factors[i] == "^" \
                        and factors[i + 1].isdecimal():
                    power = factors[i + 1].lstrip("0") or "0"
                    i += 2
                expt[j - 1] += int(power) if len(power) < 3 else MAX_POWER + 1
                if expt[j - 1] > MAX_POWER:
                    raise ModelSyntaxError(
                        f"term {term!r}: the power of t{j} exceeds the "
                        f"maximum {MAX_POWER}", lno)
                continue
            if _NUM.match(tok):
                c = c * _parse_scalar(tok, lno)
                continue
            raise ModelSyntaxError(f"unexpected token {tok!r}", lno)
        if not (c and sign):
            continue
        if negative != (sign < 0):
            c = -c
        e = tuple(expt)
        terms = acc.setdefault(mask, {})
        t = terms.get(e)
        t = c if t is None else t + c
        if t:
            terms[e] = t
        else:
            del terms[e]
            if not terms:
                del acc[mask]
    return Form(dim, {m: ParamPoly(nvars, t) for m, t in acc.items()})


def _parse_matrix(text: str, size: int, nvars: int, lno: int) -> PolyMatrix:
    rows = [r for r in text.split(";") if r.strip()]
    if len(rows) != size:
        raise ModelSyntaxError(f"expected {size} matrix rows, got {len(rows)}",
                               lno)
    out = []
    for r in rows:
        entries = [e.strip() for e in r.split(",")]
        if len(entries) != size:
            raise ModelSyntaxError(
                f"expected {size} entries per row, got {len(entries)}", lno)
        row = []
        for e in entries:
            pf = _parse_form_expr(e, 2, nvars, lno)  # scalar-only parse
            for mask in pf.coeffs:
                if mask:
                    raise ModelSyntaxError("matrix entries must be scalars", lno)
            row.append(pf.coeffs.get(0, ParamPoly(nvars)))
        out.append(row)
    return out


def _parse_point(text: str, nvars: int, lno: int) -> tuple:
    parts = [p.strip() for p in text.split(",")]
    if len(parts) != nvars:
        raise ModelSyntaxError(
            f"sample needs {nvars} coordinates, got {len(parts)}", lno)
    return tuple(_parse_scalar(p, lno) for p in parts)


def parse_model(text: str) -> ModelFile:
    dim = None
    structure = []
    H = None
    blocks: list[StructBlock] = []
    current: StructBlock | None = None
    pending_key_lines: dict[str, tuple[str, int]] = {}

    for lno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("["):
            if not line.endswith("]"):
                raise ModelSyntaxError("unterminated block header", lno)
            fields = line[1:-1].split()
            if len(fields) != 2:
                raise ModelSyntaxError(
                    "block header needs a kind and a name", lno)
            kind, name = fields
            if kind not in ("symplectic", "complex", "general", "family", "gk"):
                raise ModelSyntaxError(f"unknown block kind {kind!r}", lno)
            current = StructBlock(kind, name, {}, lno)
            blocks.append(current)
            continue
        if "=" not in line:
            raise ModelSyntaxError("expected 'key = value'", lno)
        key, val = (s.strip() for s in line.split("=", 1))
        if current is None:
            if key == "dim":
                try:
                    dim = int(val)
                except ValueError:
                    raise ModelSyntaxError(f"bad dimension {val!r}", lno) from None
                if dim % 2 or dim <= 0:
                    raise DimensionOdd(f"dimension must be even positive, got {dim}")
                if dim > MAX_DIM:
                    raise DimensionTooLarge(
                        f"dimension {dim} exceeds the maximum {MAX_DIM}")
            elif key.startswith("d "):
                gen = key[2:].strip()
                gm = _GEN.match(gen)
                if not gm or dim is None:
                    raise ModelSyntaxError(f"bad structure line {key!r}", lno)
                k = int(gm.group(1))
                if not 1 <= k <= dim:
                    raise UnknownGenerator(f"generator e{k} exceeds dim {dim}", lno)
                pf = _parse_form_expr(val, dim, 0, lno)
                for mask, poly in pf.coeffs.items():
                    if popcount(mask) != 2:
                        raise ModelSyntaxError(
                            "structure lines need degree-2 right-hand sides", lno)
                    c = poly.terms.get((), QI(0))
                    i = (mask & -mask).bit_length()
                    j = mask.bit_length()
                    structure.append((k, i, j, c))
            elif key == "H":
                if dim is None:
                    raise ModelSyntaxError("H given before dim", lno)
                H = form_eval(_parse_form_expr(val, dim, 0, lno), ())
            else:
                raise ModelSyntaxError(f"unknown top-level key {key!r}", lno)
        else:
            current.data[key] = (val, lno)
    if dim is None:
        raise ModelSyntaxError("missing 'dim = ...'", 0)
    return ModelFile(dim, structure, H if H is not None else Form(dim), blocks)


# -- builders -------------------------------------------------------------------

def build_structure(mf: ModelFile, block: StructBlock, model: LieModel):
    from .gcs import make_complex, make_general, make_symplectic
    dim = mf.dim

    def need(key):
        if key not in block.data:
            raise ModelSyntaxError(f"block {block.name!r} needs {key!r}",
                                   block.line)
        return block.data[key]

    def form_of(key, default=None):
        if default is not None and key not in block.data:
            return default
        val, lno = need(key)
        return form_eval(_parse_form_expr(val, dim, 0, lno), ())

    if block.kind == "symplectic":
        return make_symplectic(model, form_of("omega"), form_of("B", Form(dim)))
    if block.kind == "complex":
        val, lno = need("I")
        It = _parse_matrix(val, dim, 0, lno)
        return make_complex(model, pmat_eval(It, ()))
    if block.kind == "general":
        val, lno = need("J")
        Jt = _parse_matrix(val, 2 * dim, 0, lno)
        return make_general(model, pmat_eval(Jt, ()))
    raise EngineError(f"block {block.name!r} is not a structure block")


def _variable_count(val: str, lno: int) -> int:
    """The `variables` count of a [family] block, 1 to MAX_VARIABLES."""
    try:
        nvars = int(val)
    except ValueError:
        raise ModelSyntaxError(f"bad variable count {val!r}", lno) from None
    if nvars < 1:
        raise ModelSyntaxError(
            f"variable count must be at least 1, got {nvars}", lno)
    if nvars > MAX_VARIABLES:
        raise ModelSyntaxError(f"variable count {nvars} exceeds the maximum "
                               f"{MAX_VARIABLES}", lno)
    return nvars


def build_family(mf: ModelFile, block: StructBlock, model: LieModel):
    from .families import FamilySpec
    if block.kind != "family":
        raise EngineError(f"block {block.name!r} is not a family block")
    dim = mf.dim

    def raw(key, required=True):
        if key not in block.data:
            if required:
                raise ModelSyntaxError(f"family {block.name!r} needs {key!r}",
                                       block.line)
            return None
        return block.data[key]

    kind_val, _ = raw("kind")
    kind = kind_val.strip()
    nvars = _variable_count(*raw("variables"))
    samples = []
    sm = raw("samples", required=False)
    if sm:
        val, lno = sm
        for part in val.split(";"):
            if part.strip():
                samples.append(_parse_point(part, nvars, lno))
    basepoint = None
    bp = raw("basepoint", required=False)
    if bp:
        basepoint = _parse_point(bp[0], nvars, bp[1])
    if kind == "symplectic":
        oval, olno = raw("omega")
        omega_t = _parse_form_expr(oval, dim, nvars, olno)
        Bv = raw("B", required=False)
        B_t = _parse_form_expr(Bv[0], dim, nvars, Bv[1]) if Bv else None
        return FamilySpec(model, "symplectic", nvars, samples=samples,
                          basepoint=basepoint, omega_t=omega_t, B_t=B_t,
                          name=block.name)
    if kind == "complex":
        val, lno = raw("I")
        return FamilySpec(model, "complex", nvars, samples=samples,
                          basepoint=basepoint,
                          It=_parse_matrix(val, dim, nvars, lno),
                          name=block.name)
    if kind == "general":
        val, lno = raw("J")
        return FamilySpec(model, "general", nvars, samples=samples,
                          basepoint=basepoint,
                          Jt=_parse_matrix(val, 2 * dim, nvars, lno),
                          name=block.name)
    raise ModelSyntaxError(f"unknown family kind {kind!r}", block.line)


# -- canonical emission ------------------------------------------------------------

def _emit_scalar(z: QI) -> str:
    return format_qi(z)


def _monomial(e) -> str:
    return " ".join(f"t{j + 1}" + (f"^{k}" if k > 1 else "")
                    for j, k in enumerate(e) if k)


def _emit_poly(p: ParamPoly) -> str:
    if p.is_zero():
        return "0"
    return " + ".join(f"{_emit_scalar(p.terms[e])} {_monomial(e)}".strip()
                      for e in sorted(p.terms, key=lambda e: (sum(e), e)))


def _scalar_pieces(z: QI) -> list[str]:
    """Real and imaginary parts as separate term coefficients, so emitted
    text re-parses term by term."""
    out = []
    if z.re:
        out.append(str(z.re))
    if z.im:
        out.append("i" if z.im == 1 else ("-i" if z.im == -1 else f"{z.im}i"))
    return out


def _emit_form(f: Form) -> str:
    """A form with QI or ParamPoly coefficients; a QI reads as the constant
    term {(): c}."""
    if f.is_zero():
        return "0"
    bits = []
    for mask in f.blades_sorted():
        c = f.coeffs[mask]
        terms = c.terms if isinstance(c, ParamPoly) else {(): c}
        bl = blade_name(mask)
        for e in sorted(terms, key=lambda e: (sum(e), e)):
            mono = _monomial(e)
            for cs in _scalar_pieces(terms[e]):
                bits.append(" ".join(x for x in (cs, mono, bl) if x))
    return " + ".join(bits)


def emit_model(mf: ModelFile) -> str:
    out = [f"dim = {mf.dim}"]
    dgen: dict[int, Form] = {}
    for (k, i, j, c) in mf.structure:
        f = dgen.get(k, Form(mf.dim)) + Form.blade(mf.dim, (i, j), c)
        dgen[k] = f
    for k in sorted(dgen):
        if not dgen[k].is_zero():
            out.append(f"d e{k} = {_emit_form(dgen[k])}")
    out.append(f"H = {_emit_form(mf.H)}")
    for b in mf.blocks:
        out.append("")
        out.append(f"[{b.kind} {b.name}]")
        nvars = _variable_count(*b.data["variables"]) \
            if b.kind == "family" and "variables" in b.data else 0
        for key, (val, lno) in b.data.items():
            if key in ("omega", "B", "H"):
                pf = _parse_form_expr(val, mf.dim, nvars, lno)
                out.append(f"{key} = {_emit_form(pf)}")
            elif key in ("I", "J"):
                size = mf.dim if key == "I" else 2 * mf.dim
                M = _parse_matrix(val, size, nvars, lno)
                rows = "; ".join(", ".join(_emit_poly(p) for p in row)
                                 for row in M)
                out.append(f"{key} = {rows}")
            elif key == "samples":
                pts = [p.strip() for p in val.split(";") if p.strip()]
                canon = "; ".join(
                    ", ".join(_emit_scalar(c)
                              for c in _parse_point(p, nvars or p.count(",") + 1, lno))
                    for p in pts)
                out.append(f"samples = {canon}")
            else:
                out.append(f"{key} = {val}")
    return "\n".join(out) + "\n"
