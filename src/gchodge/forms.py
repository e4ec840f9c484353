"""Exterior algebra on the invariant complex: blade-bitmask multivectors.

A blade mask m encodes e^{i1} ^ ... ^ e^{ik} with 1-based generator index j
stored in bit j-1, generators always in ascending order.  Mixed-degree sums
are allowed everywhere (spinor-space elements).
"""

from __future__ import annotations

from math import factorial

from .errors import DimensionMismatch, IndexOutOfRange
from .linalg import Vec, vec_axpy
from .scalars import ONE, QI


def popcount(m: int) -> int:
    return bin(m).count("1")


def blade_wedge_sign(a: int, b: int) -> int:
    """Sign of sorting the concatenation of two disjoint ascending blades."""
    s = 0
    bb = b
    while bb:
        j = (bb & -bb).bit_length() - 1
        s += popcount(a >> (j + 1))
        bb &= bb - 1
    return -1 if s & 1 else 1


def insert_sign(mask: int, i: int) -> int:
    """Sign for moving generator bit i past the lower bits of mask."""
    return -1 if popcount(mask & ((1 << i) - 1)) & 1 else 1


def sigma_sign(k: int) -> int:
    # (-1)^{k(k-1)/2} has period 4 in k
    return 1 if k % 4 in (0, 1) else -1


class Form:
    """A multivector with QI coefficients on a 2n-dimensional model."""

    __slots__ = ("dim", "coeffs")

    def __init__(self, dim: int, coeffs: dict[int, QI] | None = None):
        self.dim = dim
        c = {}
        if coeffs:
            top = 1 << dim
            for m, v in coeffs.items():
                if m >= top or m < 0:
                    raise IndexOutOfRange(f"blade mask {m} out of range for dim {dim}")
                if v:
                    c[m] = v
        self.coeffs = c

    # -- constructors ---------------------------------------------------

    @classmethod
    def zero(cls, dim: int) -> "Form":
        return cls(dim)

    @classmethod
    def one(cls, dim: int) -> "Form":
        return cls(dim, {0: ONE})

    @classmethod
    def blade(cls, dim: int, indices, coeff: QI = ONE) -> "Form":
        """Blade from 1-based generator indices, e.g. blade(4, [1, 2])."""
        mask = 0
        sign = 1
        for i in indices:
            if not 1 <= i <= dim:
                raise IndexOutOfRange(f"generator e{i} out of range for dim {dim}")
            bit = 1 << (i - 1)
            if mask & bit:
                return cls(dim)
            # appending on the right: move e^i left past the larger generators
            if popcount(mask >> i) & 1:
                sign = -sign
            mask |= bit
        return cls(dim, {mask: coeff * sign})

    # -- structure ------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.coeffs

    def degrees(self) -> set[int]:
        return {popcount(m) for m in self.coeffs}

    def parity_part(self, parity: int) -> "Form":
        return Form(self.dim, {m: v for m, v in self.coeffs.items() if popcount(m) & 1 == parity})

    def is_homogeneous(self, k: int | None = None) -> bool:
        degs = self.degrees()
        if k is None:
            return len(degs) <= 1
        return degs <= {k}

    # -- linear ops -------------------------------------------------------

    def _check(self, other: "Form"):
        if self.dim != other.dim:
            raise DimensionMismatch(f"form dims differ: {self.dim} vs {other.dim}")

    def __add__(self, other: "Form") -> "Form":
        self._check(other)
        c = dict(self.coeffs)
        for m, v in other.coeffs.items():
            w = c.get(m)
            c[m] = v if w is None else w + v
        return Form(self.dim, c)

    def __sub__(self, other: "Form") -> "Form":
        self._check(other)
        c = dict(self.coeffs)
        for m, v in other.coeffs.items():
            w = c.get(m)
            c[m] = -v if w is None else w - v
        return Form(self.dim, c)

    def __neg__(self) -> "Form":
        return Form(self.dim, {m: -v for m, v in self.coeffs.items()})

    def scale(self, z) -> "Form":
        z = z if isinstance(z, QI) else QI(z)
        if not z:
            return Form(self.dim)
        return Form(self.dim, {m: v * z for m, v in self.coeffs.items()})

    __mul__ = scale
    __rmul__ = scale

    def conj(self) -> "Form":
        return Form(self.dim, {m: v.conj() for m, v in self.coeffs.items()})

    def __eq__(self, other) -> bool:
        if not isinstance(other, Form):
            return NotImplemented
        return self.dim == other.dim and self.coeffs == other.coeffs

    def __hash__(self):
        return hash((self.dim, frozenset(self.coeffs.items())))

    # -- products ---------------------------------------------------------

    def wedge(self, other: "Form") -> "Form":
        self._check(other)
        out: dict[int, QI] = {}
        for ma, va in self.coeffs.items():
            for mb, vb in other.coeffs.items():
                if ma & mb:
                    continue
                s = blade_wedge_sign(ma, mb)
                m = ma | mb
                term = va * vb if s > 0 else -(va * vb)
                w = out.get(m)
                out[m] = term if w is None else w + term
        return Form(self.dim, out)

    def __xor__(self, other: "Form") -> "Form":
        return self.wedge(other)

    def contract_index(self, i: int) -> "Form":
        """Interior product i_{x_i} with the 1-based basis vector x_i."""
        if not 1 <= i <= self.dim:
            raise IndexOutOfRange(f"vector x{i} out of range for dim {self.dim}")
        bit = 1 << (i - 1)
        out: dict[int, QI] = {}
        for m, v in self.coeffs.items():
            if m & bit:
                s = insert_sign(m, i - 1)
                out[m & ~bit] = v * s
        return Form(self.dim, out)

    def contract_vector(self, coeffs) -> "Form":
        """Interior product with sum_i c_i x_i (c_i indexable 0-based)."""
        out = Form(self.dim)
        for i, c in enumerate(coeffs):
            c = c if isinstance(c, QI) else QI(c)
            if c:
                out = out + self.contract_index(i + 1).scale(c)
        return out

    def sigma(self) -> "Form":
        """Degree-wise involution scaling degree k by (-1)^{k(k-1)/2}."""
        return Form(self.dim, {
            m: (v if sigma_sign(popcount(m)) > 0 else -v)
            for m, v in self.coeffs.items()
        })

    def exp(self) -> "Form":
        """Exponential of a form with no degree-0 part (nilpotent, exact)."""
        if 0 in self.coeffs:
            raise ValueError("exp only supported for forms without scalar part")
        out = Form.one(self.dim)
        term = Form.one(self.dim)
        k = 1
        while True:
            term = term.wedge(self)
            if term.is_zero():
                return out
            out = out + term.scale(QI(1) / QI(factorial(k)))
            k += 1

    # -- display ------------------------------------------------------------

    def blades_sorted(self):
        return sorted(self.coeffs, key=lambda m: (popcount(m), m))

    def __repr__(self) -> str:
        from .scalars import format_qi
        if not self.coeffs:
            return "0"
        parts = []
        for m in self.blades_sorted():
            c = format_qi(self.coeffs[m])
            b = blade_name(m)
            if b:
                parts.append(f"{c} {b}" if c != "1" else b)
            else:
                parts.append(c)
        return " + ".join(parts).replace("+ -", "- ")


def blade_name(mask: int) -> str:
    if mask == 0:
        return ""
    return "^".join(f"e{j + 1}" for j in range(mask.bit_length()) if mask >> j & 1)


# -- spinor-space operators ----------------------------------------------------

SpinOp = dict[int, Vec]  # column mask -> sparse image; empty columns omitted


def spin_op(dim: int, f) -> SpinOp:
    """The table of a linear map on forms, one column per basis blade."""
    cols: SpinOp = {}
    for mask in range(1 << dim):
        w = f(Form(dim, {mask: ONE}))
        if w.coeffs:
            cols[mask] = dict(w.coeffs)
    return cols


def spin_apply(op: SpinOp, v: Vec) -> Vec:
    out: Vec = {}
    for j, c in v.items():
        col = op.get(j)
        if col:
            out = vec_axpy(out, c, col)
    return out


def wedge(a: Form, b: Form) -> Form:
    return a.wedge(b)


def contract(x, a: Form) -> Form:
    """Interior product; x is a 1-based index or a coefficient list."""
    if isinstance(x, int):
        return a.contract_index(x)
    return a.contract_vector(x)


def sigma_involution(a: Form) -> Form:
    return a.sigma()


def mukai_pairing(a: Form, b: Form) -> QI:
    """Top coefficient of a ^ sigma(b), with the volume e^{1..2n} set to 1."""
    if a.dim != b.dim:
        raise DimensionMismatch(f"form dims differ: {a.dim} vs {b.dim}")
    top = (1 << a.dim) - 1
    out = QI(0)
    for m, v in a.coeffs.items():
        mc = top ^ m
        w = b.coeffs.get(mc)
        if w is None:
            continue
        s = blade_wedge_sign(m, mc) * sigma_sign(popcount(mc))
        term = v * w
        out = out + (term if s > 0 else -term)
    return out


def mukai_dual(dim: int, v: Vec) -> Vec:
    """The vector u with mukai_pairing(v, b) = sum_k u[k] b[k] for every b:
    u[top ^ m] = +-v[m], the sign being mukai_pairing's."""
    top = (1 << dim) - 1
    out: Vec = {}
    for m, x in v.items():
        mc = top ^ m
        out[mc] = x if blade_wedge_sign(m, mc) * sigma_sign(popcount(mc)) > 0 else -x
    return out
