"""Exact multivariate polynomials over Q(i), and matrices with polynomial
coefficients.  These carry the parameter dependence of families;
derivatives are formal, so no approximation enters anywhere.

There is no separate form class: a polynomial section is a `forms.Form`
with ParamPoly coefficients; the maps below act on it blade by blade.
"""

from __future__ import annotations

from .forms import Form, spin_apply
from .linalg import Matrix
from .scalars import ONE, QI

Expt = tuple[int, ...]


class ParamPoly:
    """Polynomial in t_1..t_m with QI coefficients, exponent-tuple keyed.

    A ring element for the sparse helpers of `linalg` and `forms`: it is
    false exactly when zero and adds to a QI from either side, so a vector
    or a SpinOp may hold ParamPoly values."""

    __slots__ = ("nvars", "terms")

    def __init__(self, nvars: int, terms: dict[Expt, QI] | None = None):
        self.nvars = nvars
        self.terms = {e: c for e, c in (terms or {}).items() if c}

    @classmethod
    def const(cls, nvars: int, c) -> "ParamPoly":
        c = c if isinstance(c, QI) else QI(c)
        return cls(nvars, {(0,) * nvars: c} if c else {})

    @classmethod
    def var(cls, nvars: int, j: int) -> "ParamPoly":
        e = [0] * nvars
        e[j] = 1
        return cls(nvars, {tuple(e): ONE})

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    def is_constant(self) -> bool:
        return all(not any(e) for e in self.terms)

    def degree(self) -> int:
        return max((sum(e) for e in self.terms), default=0)

    def __add__(self, other):
        other = self._co(other)
        out = dict(self.terms)
        for e, c in other.terms.items():
            w = out.get(e)
            t = c if w is None else w + c
            if t:
                out[e] = t
            elif w is not None:
                del out[e]
        return ParamPoly(self.nvars, out)

    __radd__ = __add__

    def _co(self, other) -> "ParamPoly":
        if isinstance(other, ParamPoly):
            return other
        return ParamPoly.const(self.nvars, other)

    def __sub__(self, other):
        return self + self._co(other).scale(QI(-1))

    def __neg__(self):
        return self.scale(QI(-1))

    def scale(self, z) -> "ParamPoly":
        z = z if isinstance(z, QI) else QI(z)
        if not z:
            return ParamPoly(self.nvars)
        return ParamPoly(self.nvars, {e: c * z for e, c in self.terms.items()})

    def __mul__(self, other):
        if isinstance(other, (QI, int)):
            return self.scale(other)
        out: dict[Expt, QI] = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                w = out.get(e)
                t = c1 * c2 if w is None else w + c1 * c2
                if t:
                    out[e] = t
                elif w is not None:
                    del out[e]
        return ParamPoly(self.nvars, out)

    __rmul__ = __mul__

    def diff(self, j: int) -> "ParamPoly":
        out: dict[Expt, QI] = {}
        for e, c in self.terms.items():
            if e[j]:
                e2 = list(e)
                e2[j] -= 1
                out[tuple(e2)] = c * e[j]
        return ParamPoly(self.nvars, out)

    def eval(self, point) -> QI:
        out = QI(0)
        for e, c in self.terms.items():
            term = c
            for j, k in enumerate(e):
                for _ in range(k):
                    term = term * point[j]
            out = out + term
        return out

    def conj(self) -> "ParamPoly":
        return ParamPoly(self.nvars, {e: c.conj() for e, c in self.terms.items()})

    def shift(self, point) -> "ParamPoly":
        """Substitute t -> t + point, recentering at the given basepoint."""
        if not any(point):
            return self
        out = ParamPoly(self.nvars)
        for e, c in self.terms.items():
            term = ParamPoly.const(self.nvars, c)
            for j, k in enumerate(e):
                f = ParamPoly.var(self.nvars, j) + ParamPoly.const(self.nvars, point[j])
                for _ in range(k):
                    term = term * f
            out = out + term
        return out

    def __eq__(self, other):
        if not isinstance(other, ParamPoly):
            return NotImplemented
        return self.nvars == other.nvars and self.terms == other.terms

    def __repr__(self):
        if not self.terms:
            return "0"
        bits = []
        for e in sorted(self.terms, key=lambda e: (sum(e), e)):
            mono = "".join(f"t{j + 1}" + (f"^{k}" if k > 1 else "")
                           for j, k in enumerate(e) if k)
            c = str(self.terms[e])
            bits.append(f"{c} {mono}".strip() if mono else c)
        return " + ".join(bits)


# -- forms with ParamPoly coefficients ------------------------------------------

def form_diff(w: Form, j: int) -> Form:
    """The formal derivative d/dt_{j+1}."""
    return Form(w.dim, {m: p.diff(j) for m, p in w.coeffs.items()})


def form_eval(w: Form, point) -> Form:
    """The QI form at a parameter point."""
    return Form(w.dim, {m: p.eval(point) for m, p in w.coeffs.items()})


def form_shift(w: Form, point) -> Form:
    """Substitute t -> t + point, recentering at the given basepoint."""
    return Form(w.dim, {m: p.shift(point) for m, p in w.coeffs.items()})


def monomial_slices(w: Form) -> dict[Expt, Form]:
    """Split into QI forms per exponent tuple."""
    out: dict[Expt, dict[int, QI]] = {}
    for m, p in w.coeffs.items():
        for e, c in p.terms.items():
            out.setdefault(e, {})[m] = c
    return {e: Form(w.dim, d) for e, d in out.items()}


def dH_poly(m, w: Form) -> Form:
    """d_H applied coefficient-wise (the twist is parameter-independent)."""
    return Form(w.dim, spin_apply(m.dH_table, w.coeffs))


# -- polynomial matrices -------------------------------------------------------

PolyMatrix = list[list[ParamPoly]]


def pmat_from_qi(M: Matrix, nvars: int) -> PolyMatrix:
    return [[ParamPoly.const(nvars, x) for x in row] for row in M]


def pmat_eval(M: PolyMatrix, point) -> Matrix:
    return [[p.eval(point) for p in row] for row in M]


def pmat_diff(M: PolyMatrix, j: int) -> PolyMatrix:
    return [[p.diff(j) for p in row] for row in M]


def pmat_vec(M: PolyMatrix, v: list[ParamPoly]) -> list[ParamPoly]:
    nv = v[0].nvars if v else 0
    out = []
    for row in M:
        acc = ParamPoly(nv)
        for p, x in zip(row, v):
            if not p.is_zero() and not x.is_zero():
                acc = acc + p * x
        out.append(acc)
    return out
