"""Exterior algebra and Mukai pairing tests."""

import ast
import json
import random
from fractions import Fraction
from math import gcd
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gchodge.errors import DimensionMismatch
from gchodge.forms import (Form, _mukai_signs, blade_wedge_sign, contract,
                           insert_sign, mukai_dual, mukai_pairing, popcount,
                           sigma_involution, sigma_sign, wedge)
from gchodge.scalars import I, ONE, QI, format_qi


def B(dim, *idx):
    return Form.blade(dim, idx)


def rand_form(dim, rng, max_terms=5):
    c = {}
    for _ in range(rng.randrange(max_terms + 1)):
        m = rng.randrange(1 << dim)
        c[m] = QI(rng.randrange(-3, 4), rng.randrange(-2, 3))
    return Form(dim, c)


# -- scalars ------------------------------------------------------------------

def test_scalar_field_ops():
    a = QI(Fraction(3, 2), Fraction(-1, 3))
    b = QI(Fraction(-2, 5), 1)
    assert (a * b) / b == a
    assert a * a.inv() == ONE
    assert (a + b) - b == a
    assert I * I == QI(-1)
    assert a.conj().conj() == a
    assert (a * b).conj() == a.conj() * b.conj()


@given(st.integers(-9, 9), st.integers(-9, 9), st.integers(-9, 9), st.integers(-9, 9))
@settings(max_examples=60, derandomize=True)
def test_scalar_mul_commutes(a, b, c, d):
    x, y = QI(a, b), QI(c, d)
    assert x * y == y * x
    assert x + y == y + x


# Reference arithmetic: a Gaussian rational as a pair of Fractions (re, im).

def _ref_mul(x, y):
    return (x[0] * y[0] - x[1] * y[1], x[0] * y[1] + x[1] * y[0])

def _ref_inv(x):
    n = x[0] * x[0] + x[1] * x[1]
    return (x[0] / n, -x[1] / n)

def _ref_format(re, im):
    """The formatter of the Fraction-pair kernel, verbatim in behaviour."""
    if not im:
        return str(re)
    im_s = "i" if im == 1 else "-i" if im == -1 else str(im) + "i"
    if not re:
        return im_s
    return str(re) + im_s if im_s.startswith("-") else str(re) + "+" + im_s

def _assert_matches(z, ref):
    """z is the QI of the reference pair: same value, Fraction parts, text,
    canonical internals and hash."""
    assert type(z.re) is Fraction and type(z.im) is Fraction
    assert (z.re, z.im) == ref
    assert format_qi(z) == str(z) == _ref_format(*ref)
    a, b, d = z._a, z._b, z._d
    assert d > 0 and gcd(a, b, d) == 1
    w = QI(*ref)
    assert (w._a, w._b, w._d) == (a, b, d)
    assert z == w and hash(z) == hash(w)
    if not ref[1]:
        assert z == ref[0] and hash(z) == hash(ref[0])
        if ref[0].denominator == 1:
            n = ref[0].numerator
            assert z == n and hash(z) == hash(n) and {n: "x"}.get(z) == "x"
    else:
        assert z != ref[0]


_rationals = st.one_of(
    st.integers(-3, 3).map(Fraction),
    st.builds(Fraction, st.integers(-10 ** 9, 10 ** 9), st.integers(1, 10 ** 6)))
_gaussians = st.tuples(_rationals, _rationals)


@given(_gaussians, _gaussians, st.integers(-3, 3), st.integers(-50, 50))
@settings(max_examples=300, derandomize=True)
def test_scalar_kernel_matches_fraction_pair_reference(x, y, k, n):
    qx, qy = QI(*x), QI(*y)
    _assert_matches(qx, x)
    _assert_matches(qx + qy, (x[0] + y[0], x[1] + y[1]))
    _assert_matches(qx - qy, (x[0] - y[0], x[1] - y[1]))
    _assert_matches(qx * qy, _ref_mul(x, y))
    _assert_matches(-qx, (-x[0], -x[1]))
    _assert_matches(qx.conj(), (x[0], -x[1]))
    _assert_matches(qx + n, (x[0] + n, x[1]))
    _assert_matches(n - qx, (n - x[0], -x[1]))
    _assert_matches(qx * y[0], (x[0] * y[0], x[1] * y[0]))
    _assert_matches(y[1] * qx, (x[0] * y[1], x[1] * y[1]))
    assert (qx == qy) == (x == y)
    if any(y):
        _assert_matches(qy.inv(), _ref_inv(y))
        _assert_matches(qx / qy, _ref_mul(x, _ref_inv(y)))
    else:
        with pytest.raises(ZeroDivisionError):
            qy.inv()
        with pytest.raises(ZeroDivisionError):
            qx / qy
    if any(x) or k >= 0:
        ref = (Fraction(1), Fraction(0))
        for _ in range(abs(k)):
            ref = _ref_mul(ref, x if k > 0 else _ref_inv(x))
        _assert_matches(qx ** k, ref)


def test_scalar_hash_agrees_with_eq():
    assert {1: "x"}.get(QI(1)) == "x"
    assert {Fraction(-3, 4): "y"}.get(QI(Fraction(-3, 4))) == "y"
    assert len({QI(2), 2, Fraction(2), QI(Fraction(4, 2), 0)}) == 1
    assert QI(0, 1) in {I}
    with pytest.raises(ZeroDivisionError):
        QI(0).inv()


BENCH = Path(__file__).resolve().parent.parent / "bench"

def test_scalar_surface_the_benchmark_uses():
    """The benchmark's counting run patches the QI class attributes named in
    bench/tracer.py's Counter.OPS, and its multiply-add probe rebuilds the
    operands of bench/operands.json through QI(re, im) and reads them back
    through re/im.  Both files are only read here."""
    tree = ast.parse((BENCH / "tracer.py").read_text())
    counter = next(n for n in tree.body
                   if isinstance(n, ast.ClassDef) and n.name == "Counter")
    ops = next(ast.literal_eval(n.value) for n in counter.body
               if isinstance(n, ast.Assign)
               and [t.id for t in n.targets] == ["OPS"])
    assert ops and all(callable(vars(QI).get(name)) for name in ops)
    operands = json.loads((BENCH / "operands.json").read_text())
    assert operands
    for rows in operands.values():
        for ar, ai, br, bi in rows[:50]:
            for re, im in ((ar, ai), (br, bi)):
                z = QI(Fraction(re), Fraction(im))
                assert (str(z.re), str(z.im)) == (re, im)


# -- wedge --------------------------------------------------------------------

def test_wedge_basis_product():
    assert wedge(B(4, 1), B(4, 2)) == B(4, 1, 2)

def test_wedge_nilpotent():
    assert wedge(B(4, 1), B(4, 1)).is_zero()

def test_wedge_mixed_square():
    # (e12+e34)^(e12+e34) = 2 e1234, the four-term hand expansion
    a = B(4, 1, 2) + B(4, 3, 4)
    assert wedge(a, a) == B(4, 1, 2, 3, 4).scale(2)

def test_wedge_dim_mismatch():
    with pytest.raises(DimensionMismatch):
        wedge(B(4, 1), B(6, 1))


@given(st.integers(0, 2 ** 6 - 1), st.integers(0, 2 ** 6 - 1))
@settings(max_examples=80, derandomize=True)
def test_wedge_graded_commutative(ma, mb):
    a, b = Form(6, {ma: ONE}), Form(6, {mb: ONE})
    ka, kb = bin(ma).count("1"), bin(mb).count("1")
    sign = -1 if (ka * kb) % 2 else 1
    assert wedge(a, b) == wedge(b, a).scale(sign)


def test_wedge_associative_random():
    rng = random.Random(7)
    for _ in range(20):
        a, b, c = (rand_form(6, rng) for _ in range(3))
        assert wedge(wedge(a, b), c) == wedge(a, wedge(b, c))


# -- contraction --------------------------------------------------------------

def test_contract_leading_factor():
    assert contract(1, B(4, 1, 2)) == B(4, 2)

def test_contract_sign():
    assert contract(2, B(4, 1, 2)) == -B(4, 1)

def test_contract_three_form():
    assert contract(2, B(4, 1, 2, 3)) == -B(4, 1, 3)

def test_contract_antiderivation():
    rng = random.Random(11)
    for dim in (4, 6):
        for _ in range(12):
            a = rand_form(dim, rng)
            b = rand_form(dim, rng)
            for i in (1, dim // 2, dim):
                lhs = contract(i, wedge(a, b))
                rhs = Form(dim)
                for m, v in a.coeffs.items():
                    am = Form(dim, {m: v})
                    sign = -1 if bin(m).count("1") % 2 else 1
                    rhs = rhs + wedge(contract(i, am), b) \
                        + wedge(am, contract(i, b)).scale(sign)
                assert lhs == rhs

def test_contract_squares_to_zero():
    rng = random.Random(3)
    for _ in range(10):
        a = rand_form(6, rng)
        for i in (1, 4, 6):
            assert contract(i, contract(i, a)).is_zero()

def test_contract_vector_combination():
    a = B(4, 1, 2)
    out = contract([QI(1), I, QI(0), QI(0)], a)
    assert out == B(4, 2) + B(4, 1).scale(-I)


# -- sigma ---------------------------------------------------------------------

def test_sigma_low_degrees():
    assert sigma_involution(Form.one(4)) == Form.one(4)
    assert sigma_involution(B(4, 1, 2)) == -B(4, 1, 2)
    assert sigma_involution(B(4, 1, 2, 3, 4)) == B(4, 1, 2, 3, 4)

def test_sigma_involution_property():
    rng = random.Random(5)
    for _ in range(15):
        a = rand_form(6, rng)
        assert sigma_involution(sigma_involution(a)) == a


# -- blade signs ------------------------------------------------------------------

def loop_popcount(m):
    return bin(m).count("1")


def loop_wedge_sign(a, b):
    """Generator by generator: each bit j of b passes the bits of a above j."""
    s = 0
    for j in range(b.bit_length()):
        if b >> j & 1:
            s += loop_popcount(a >> (j + 1))
    return -1 if s & 1 else 1


def test_popcount_and_insert_sign_match_loop_references():
    for m in range(1 << 8):
        assert popcount(m) == loop_popcount(m), m
        for i in range(8):
            want = -1 if loop_popcount(m & ((1 << i) - 1)) & 1 else 1
            assert insert_sign(m, i) == want, (m, i)


def test_blade_wedge_sign_matches_loop_reference_on_every_pair():
    for a in range(1 << 8):
        for b in range(1 << 8):
            assert blade_wedge_sign(a, b) == loop_wedge_sign(a, b), (a, b)


def test_mukai_sign_table_matches_loop_reference():
    for dim in range(1, 9):
        top = (1 << dim) - 1
        signs = _mukai_signs(dim)
        assert len(signs) == 1 << dim
        for m in range(1 << dim):
            mc = top ^ m
            assert signs[m] == loop_wedge_sign(m, mc) \
                * sigma_sign(loop_popcount(mc)), (dim, m)
        assert mukai_dual(dim, {m: QI(m + 1) for m in range(1 << dim)}) == {
            top ^ m: QI(m + 1) * signs[m] for m in range(1 << dim)}


# -- mukai ----------------------------------------------------------------------

def test_mukai_scalar_against_volume():
    assert mukai_pairing(Form.one(4), B(4, 1, 2, 3, 4)) == ONE

def test_mukai_exponentials():
    w = B(4, 1, 2) + B(4, 3, 4)
    ew = Form.one(4) + w.scale(I) - B(4, 1, 2, 3, 4)
    emw = Form.one(4) - w.scale(I) - B(4, 1, 2, 3, 4)
    assert ew == w.scale(I).exp()
    assert mukai_pairing(ew, emw) == QI(-4)

def test_mukai_no_top_part():
    assert mukai_pairing(B(4, 1), B(4, 2)).is_zero()

def test_mukai_bilinear():
    rng = random.Random(13)
    a, b, c = (rand_form(4, rng) for _ in range(3))
    z = QI(2, -3)
    assert mukai_pairing(a + b.scale(z), c) == \
        mukai_pairing(a, c) + z * mukai_pairing(b, c)
