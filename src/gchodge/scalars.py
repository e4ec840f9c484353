"""Exact Gaussian-rational arithmetic, the coefficient field of the whole engine.

Every scalar is (a + b*i)/d with a, b, d python ints in normal form: d > 0
and gcd(a, b, d) == 1 (zero is (0, 0, 1)).  The form is canonical, so
equality compares the three ints.  Arithmetic works on the ints alone;
`fractions.Fraction` appears only at the boundary: the constructor accepts it
and the `re`/`im` properties return it.  All eigenvalues that ever occur
downstream lie in {i*k : k integer}, so no field extension beyond Q(i) is
needed anywhere.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

RationalLike = int | Fraction


class QI:
    """A Gaussian rational (a + b*i)/d, immutable by convention."""

    __slots__ = ("_a", "_b", "_d")

    def __init__(self, re: RationalLike = 0, im: RationalLike = 0):
        if type(re) is int and type(im) is int:
            self._a, self._b, self._d = re, im, 1
            return
        re, im = Fraction(re), Fraction(im)
        rd, idn = re.denominator, im.denominator
        # Both parts are in lowest terms, so over their lcm the triple is
        # already normal.
        d = rd // gcd(rd, idn) * idn
        self._a = re.numerator * (d // rd)
        self._b = im.numerator * (d // idn)
        self._d = d

    @property
    def re(self) -> Fraction:
        return Fraction(self._a, self._d)

    @property
    def im(self) -> Fraction:
        return Fraction(self._b, self._d)

    # -- predicates ---------------------------------------------------------

    def is_zero(self) -> bool:
        return not self._a and not self._b

    def is_real(self) -> bool:
        return not self._b

    def __bool__(self) -> bool:
        return self._a != 0 or self._b != 0

    # -- arithmetic ---------------------------------------------------------

    @staticmethod
    def _coerce(x) -> "QI":
        if isinstance(x, QI):
            return x
        if isinstance(x, int):
            return _qi(int(x), 0, 1)
        if isinstance(x, Fraction):
            return _qi(x.numerator, 0, x.denominator)
        return NotImplemented

    def __add__(self, other) -> "QI":
        if type(other) is not QI:
            other = QI._coerce(other)
            if other is NotImplemented:
                return NotImplemented
        return _add(self._a, self._b, self._d, other._a, other._b, other._d)

    __radd__ = __add__

    def __sub__(self, other) -> "QI":
        if type(other) is not QI:
            other = QI._coerce(other)
            if other is NotImplemented:
                return NotImplemented
        return _add(self._a, self._b, self._d, -other._a, -other._b, other._d)

    def __rsub__(self, other) -> "QI":
        other = QI._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return _add(other._a, other._b, other._d, -self._a, -self._b, self._d)

    def __neg__(self) -> "QI":
        return _qi(-self._a, -self._b, self._d)

    def __mul__(self, other) -> "QI":
        if type(other) is not QI:
            other = QI._coerce(other)
            if other is NotImplemented:
                return NotImplemented
        a, b, d = self._a, self._b, self._d
        c, e, f = other._a, other._b, other._d
        d *= f
        if not b:
            if not e:                       # real times real
                a *= c
                if d != 1:
                    g = gcd(a, d)
                    if g != 1:
                        a //= g
                        d //= g
                return _qi(a, 0, d)
            a, b = a * c, a * e
        elif not e:
            a, b = a * c, b * c
        else:
            a, b = a * c - b * e, a * e + b * c
        if d != 1:
            g = gcd(a, b, d)
            if g != 1:
                a //= g
                b //= g
                d //= g
        return _qi(a, b, d)

    __rmul__ = __mul__

    def inv(self) -> "QI":
        a, b, d = self._a, self._b, self._d
        if not b:
            if not a:
                raise ZeroDivisionError("inverse of zero Gaussian rational")
            return _qi(d, 0, a) if a > 0 else _qi(-d, 0, -a)
        # 1/((a + bi)/d) = d(a - bi)/(a^2 + b^2)
        n = a * a + b * b
        a, b = d * a, -d * b
        g = gcd(a, b, n)
        if g != 1:
            a //= g
            b //= g
            n //= g
        return _qi(a, b, n)

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
        return _qi(self._a, -self._b, self._d)

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
        if type(other) is not QI:
            other = QI._coerce(other)
            if other is NotImplemented:
                return NotImplemented
        return (self._a == other._a and self._b == other._b
                and self._d == other._d)

    def __hash__(self):
        if not self._b:                     # hash like the rational it is
            return hash(self._a) if self._d == 1 else hash(self.re)
        return hash((self._a, self._b, self._d))

    def __repr__(self) -> str:
        return f"QI({self.re!r}, {self.im!r})"

    def __str__(self) -> str:
        return format_qi(self)


_new = object.__new__


def _qi(a: int, b: int, d: int) -> QI:
    """The QI with the normal-form triple (a, b, d), bypassing __init__."""
    z = _new(QI)
    z._a = a
    z._b = b
    z._d = d
    return z


def _add(a: int, b: int, d: int, c: int, e: int, f: int) -> QI:
    """(a + bi)/d + (c + ei)/f for two normal-form triples.  As for
    fractions: over lcm(d, f) only primes of gcd(d, f) can divide the
    result's three ints, so the final gcd runs against that gcd alone."""
    if d == f:
        if d == 1:
            return _qi(a + c, b + e, 1)
        a += c
        b += e
        g = gcd(a, b, d)
        if g == 1:
            return _qi(a, b, d)
        return _qi(a // g, b // g, d // g)
    g = gcd(d, f)
    if g == 1:
        return _qi(a * f + c * d, b * f + e * d, d * f)
    s, t = d // g, f // g
    a, b = a * t + c * s, b * t + e * s
    g2 = gcd(a, b, g)
    if g2 == 1:
        return _qi(a, b, s * f)
    return _qi(a // g2, b // g2, s * (f // g2))


ZERO = QI(0)
ONE = QI(1)
Half = QI(Fraction(1, 2))
I = QI(0, 1)


def _fmt_rat(n: int, d: int) -> str:
    """n/d in lowest terms, as str(Fraction(n, d)) writes it."""
    g = gcd(n, d)
    if g != 1:
        n //= g
        d //= g
    return str(n) if d == 1 else f"{n}/{d}"


def format_qi(z: QI) -> str:
    """Canonical text form: 0, 3, -1/2, i, -i, 3/2i, 1+i, 1-1/2i."""
    a, b, d = z._a, z._b, z._d
    if not b:
        return _fmt_rat(a, d)
    if b == d:
        im = "i"
    elif b == -d:
        im = "-i"
    else:
        im = _fmt_rat(b, d) + "i"
    if not a:
        return im
    if im.startswith("-"):
        return _fmt_rat(a, d) + im
    return _fmt_rat(a, d) + "+" + im
