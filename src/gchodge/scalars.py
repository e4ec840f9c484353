"""Exact Gaussian-rational arithmetic, the coefficient field of the whole engine.

Every scalar is re + im*i with re, im rational (python Fraction).  All
eigenvalues that ever occur downstream lie in {i*k : k integer}, so no field
extension beyond Q(i) is needed anywhere.
"""

from __future__ import annotations

from fractions import Fraction

RationalLike = int | Fraction


class QI:
    """A Gaussian rational, immutable by convention."""

    __slots__ = ("re", "im")

    def __init__(self, re: RationalLike = 0, im: RationalLike = 0):
        self.re = re if type(re) is Fraction else Fraction(re)
        self.im = im if type(im) is Fraction else Fraction(im)

    # -- predicates ---------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.re and not self.im

    def is_real(self) -> bool:
        return not self.im

    def __bool__(self) -> bool:
        return bool(self.re) or bool(self.im)

    # -- arithmetic ---------------------------------------------------------

    @staticmethod
    def _coerce(x) -> "QI":
        if isinstance(x, QI):
            return x
        if isinstance(x, (int, Fraction)):
            return QI(x)
        return NotImplemented

    def __add__(self, other) -> "QI":
        o = QI._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return QI(self.re + o.re, self.im + o.im)

    __radd__ = __add__

    def __sub__(self, other) -> "QI":
        o = QI._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return QI(self.re - o.re, self.im - o.im)

    def __rsub__(self, other) -> "QI":
        o = QI._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return QI(o.re - self.re, o.im - self.im)

    def __neg__(self) -> "QI":
        return QI(-self.re, -self.im)

    def __mul__(self, other) -> "QI":
        o = QI._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return QI(self.re * o.re - self.im * o.im,
                  self.re * o.im + self.im * o.re)

    __rmul__ = __mul__

    def inv(self) -> "QI":
        n = self.re * self.re + self.im * self.im
        if not n:
            raise ZeroDivisionError("inverse of zero Gaussian rational")
        return QI(self.re / n, -self.im / n)

    def __truediv__(self, other) -> "QI":
        o = QI._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return self * o.inv()

    def __rtruediv__(self, other) -> "QI":
        o = QI._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return o * self.inv()

    def conj(self) -> "QI":
        return QI(self.re, -self.im)

    def __pow__(self, k: int) -> "QI":
        if k < 0:
            return self.inv() ** (-k)
        out = ONE
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    # -- identity -----------------------------------------------------------

    def __eq__(self, other) -> bool:
        o = QI._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return self.re == o.re and self.im == o.im

    def __hash__(self):
        return hash((self.re, self.im))

    def __repr__(self) -> str:
        return f"QI({self.re!r}, {self.im!r})"

    def __str__(self) -> str:
        return format_qi(self)


ZERO = QI(0)
ONE = QI(1)
I = QI(0, 1)


def _fmt_frac(x: Fraction) -> str:
    return str(x)


def format_qi(z: QI) -> str:
    """Canonical text form: 0, 3, -1/2, i, -i, 3/2i, 1+i, 1-1/2i."""
    if not z.im:
        return _fmt_frac(z.re)
    if z.im == 1:
        im = "i"
    elif z.im == -1:
        im = "-i"
    else:
        im = _fmt_frac(z.im) + "i"
    if not z.re:
        return im
    if im.startswith("-"):
        return _fmt_frac(z.re) + im
    return _fmt_frac(z.re) + "+" + im
