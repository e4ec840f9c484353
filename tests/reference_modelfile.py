"""The .gcm expression parser the engine has replaced, kept as the reference
that tests compare against.

`parse_form_expr` is the parser as it was before the one-pass rewrite of
`modelfile._parse_form_expr`: it tokenizes the same way, but sends every
literal through `ParamPoly.const`, `Fraction`, `QI` and `ParamPoly.scale`
and adds each term to a copy of the partial sum.  Where it crashes or
misreads, the engine's parser raises a ModelSyntaxError instead: it reads a
`t0` token as the last parameter (an IndexError with no parameters), a
power that is a digit but not a decimal (`t1^²`) raises a ValueError, a
term with no factor (a dangling sign, `1 e1^e2 -`, or a lone `*`) reads as
-1 or 1, and of two blade chains in one term it keeps the last."""

import re
from fractions import Fraction

from gchodge.errors import ModelSyntaxError, UnknownGenerator
from gchodge.forms import Form
from gchodge.poly import ParamPoly
from gchodge.scalars import ONE, QI

_NUM = re.compile(r"^(-?\d+)(?:/(\d+))?(i?)$")
_GEN = re.compile(r"^e(\d+)$")
_VAR = re.compile(r"^t(\d+)(?:\^(\d+))?$")


def _parse_scalar(tok: str, lno: int | None) -> QI:
    m = _NUM.match(tok)
    if not m:
        raise ModelSyntaxError(f"bad rational literal {tok!r}", lno)
    num = int(m.group(1))
    den = int(m.group(2) or 1)
    if den == 0:
        raise ModelSyntaxError(f"zero denominator in {tok!r}", lno)
    val = Fraction(num, den)
    return QI(0, val) if m.group(3) else QI(val)


def parse_form_expr(text: str, dim: int, nvars: int, lno: int) -> Form:
    """Sum of terms; a term multiplies rational/i literals, t-monomials and
    one optional blade chain e_a^e_b^...; the coefficients are ParamPoly."""
    out = Form(dim)
    txt = text.replace("^", " ^ ").replace("-", " + -1 * ").replace("+", " + ")
    for chunk in txt.split("+"):
        chunk = chunk.strip()
        if not chunk:
            continue
        coeff = ParamPoly.const(nvars, ONE)
        blade_mask = None
        blade_sign = 1
        factors = [f for f in chunk.replace("*", " ").split() if f]
        i = 0
        while i < len(factors):
            tok = factors[i]
            if tok == "0" and len(factors) == 1:
                coeff = ParamPoly(nvars)
                i += 1
                continue
            if tok == "i":
                coeff = coeff.scale(QI(0, 1))
                i += 1
                continue
            gm = _GEN.match(tok)
            if gm:
                # consume a blade chain e_a ^ e_b ^ ...
                idxs = [int(gm.group(1))]
                i += 1
                while i + 1 < len(factors) and factors[i] == "^":
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
                bl = Form.blade(dim, idxs)
                if bl.is_zero():
                    blade_mask, blade_sign = None, 0
                else:
                    ((blade_mask, c),) = bl.coeffs.items()
                    blade_sign = 1 if c == ONE else -1
                continue
            vm = _VAR.match(tok)
            if vm and int(vm.group(1)) <= nvars:
                j = int(vm.group(1))
                power = 1
                i += 1
                if i + 1 < len(factors) and factors[i] == "^" \
                        and factors[i + 1].isdigit():
                    power = int(factors[i + 1])
                    i += 2
                for _ in range(power):
                    coeff = coeff * ParamPoly.var(nvars, j - 1)
                continue
            if vm:
                raise UnknownGenerator(
                    f"parameter {tok!r} exceeds variable count {nvars}", lno)
            nm = _NUM.match(tok)
            if nm:
                coeff = coeff.scale(_parse_scalar(tok, lno))
                i += 1
                continue
            raise ModelSyntaxError(f"unexpected token {tok!r}", lno)
        if blade_sign == 0:
            continue
        if blade_sign < 0:
            coeff = coeff.scale(QI(-1))
        mask = blade_mask if blade_mask is not None else 0
        out = out + Form(dim, {mask: coeff})
    return out
