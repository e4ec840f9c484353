"""Pairing, Dorfman bracket, B-shifts, Clifford action, axiom suite; the
bracket and Clifford tables against the Form-level formulas they replace."""

import random

import pytest

from gchodge import courant
from gchodge.courant import (_coords_repr, _generator_tables,
                             algebroid_from_basis, b_shift, b_shift_form,
                             clifford_act, courant_axiom_suite, dorfman,
                             pairing)
from gchodge.errors import DimensionMismatch
from gchodge.forms import Form, insert_sign
from gchodge.liemodel import LieModel
from gchodge.linalg import Vec, vec_add
from gchodge.modelfile import parse_model
from gchodge.scalars import I, ONE, QI, ZERO
from fractions import Fraction

from test_gcs import CORPUS, SCALE8, dense_model_text


ABELIAN = LieModel(4, [])
KT = LieModel(4, [(4, 1, 2, 1)])
KT_TW = LieModel(4, [(4, 1, 2, 1)], Form.blade(4, [1, 2, 3]))


def x(dim: int, i: int, c: QI = ONE) -> Vec:
    """c x_i as E_C coordinates."""
    return {i - 1: c}


def e(dim: int, i: int, c: QI = ONE) -> Vec:
    """c e^i as E_C coordinates."""
    return {dim + i - 1: c}


def tangent(dim: int, u: Vec) -> list[QI]:
    """The vector part of u as a dense coefficient list over x_1..x_dim."""
    return [u.get(i, ZERO) for i in range(dim)]


def cov_form(dim: int, u: Vec) -> Form:
    """The covector part of u as a 1-form."""
    return Form(dim, {1 << (k - dim): c for k, c in u.items() if k >= dim})


def one_form_coords(dim: int, w: Form) -> Vec:
    """The 1-form w as the covector part of an element of E_C."""
    return {dim + mask.bit_length() - 1: c for mask, c in w.coeffs.items()}


def first_failure(rep):
    """(name, witness) of the first failing check of an axiom report."""
    return next(((n, w) for n, ok, w in rep.checks if not ok), None)


def failed_checks(rep):
    """{first word of the check name: witness} over the failing checks."""
    return {n.split()[0]: w for n, ok, w in rep.checks if not ok}


def tabulate(m, bracket):
    """A bracket's structure constants on the coordinate basis, in the layout
    of `LieModel.dorfman_table` ([p][q] = coords of [b_p, b_q], zero entries
    and rows omitted): the `table_of` seam for brackets written on
    elements."""
    basis = basis_elems(m.dim)
    table = {}
    for p, a in enumerate(basis):
        row = {q: col for q, b in enumerate(basis)
               if (col := bracket(m, a, b))}
        if row:
            table[p] = row
    return table


# seeded random elements for the identity tests; the engine samples nothing

def random_elem(dim: int, rng: random.Random) -> Vec:
    """x_1..x_dim, then e^1..e^dim, each with a small random coefficient."""
    out = {}
    for k in range(2 * dim):
        c = QI(rng.randrange(-2, 3), rng.randrange(-1, 2))
        if c:
            out[k] = c
    return out


def random_real_form(dim: int, degree: int, rng: random.Random) -> Form:
    out = Form(dim)
    for m in range(1 << dim):
        if bin(m).count("1") == degree:
            c = rng.randrange(-2, 3)
            if c:
                out = out + Form(dim, {m: QI(c)})
    return out


def test_pairing_values():
    assert pairing(4, x(4, 1), e(4, 1)) == QI(Fraction(1, 2))
    assert pairing(4, x(4, 1), x(4, 2)) == QI(0)
    a = vec_add(x(4, 1), e(4, 1))
    assert pairing(4, a, a) == ONE

def test_dorfman_kt():
    out = dorfman(KT, x(4, 1), x(4, 2))
    assert out == x(4, 4, -ONE)

def test_dorfman_kt_twisted():
    out = dorfman(KT_TW, x(4, 1), x(4, 2))
    assert out == vec_add(x(4, 4, -ONE), e(4, 3, -ONE))

def test_dorfman_abelian():
    a = vec_add(x(4, 1), e(4, 2))
    b = vec_add(x(4, 3), e(4, 4))
    assert dorfman(ABELIAN, a, b) == {}

def test_b_shift_on_elements():
    B = Form.blade(4, [1, 2])
    assert b_shift(B, x(4, 1)) == vec_add(x(4, 1), e(4, 2))
    a = vec_add(x(4, 3), e(4, 1))
    assert b_shift(Form(4), a) == a

def test_b_shift_on_forms():
    B = Form.blade(4, [1, 2])
    assert b_shift_form(B, Form.one(4)) == Form.one(4) + B

def test_b_shift_preserves_pairing():
    rng = random.Random(2)
    for _ in range(10):
        B = random_real_form(4, 2, rng)
        a, b = random_elem(4, rng), random_elem(4, rng)
        assert pairing(4, b_shift(B, a), b_shift(B, b)) == pairing(4, a, b)

def test_clifford_examples():
    a = vec_add(x(4, 1), e(4, 1))
    assert clifford_act(a, Form.one(4)) == Form.blade(4, [1])
    assert clifford_act(x(4, 1), Form.blade(4, [1])) == Form.one(4)

def test_clifford_relation_random():
    rng = random.Random(3)
    for _ in range(20):
        a = random_elem(4, rng)
        w = random_real_form(4, rng.randrange(5), rng)
        assert clifford_act(a, clifford_act(a, w)) == w.scale(pairing(4, a, a))

@pytest.mark.parametrize("bad", [{8: ONE}, {-1: ONE}],
                         ids=["past-end", "negative"])
def test_out_of_range_coordinate_raises(bad):
    # x_i sits at i-1 and e^i at dim+i-1, so a dim-4 element has indices
    # 0..7; index -1 would otherwise read the last generator table silently
    B = Form.blade(4, [1, 2])
    x1 = x(4, 1)
    calls = [lambda: pairing(4, bad, x1), lambda: pairing(4, x1, bad),
             lambda: dorfman(KT, bad, x1), lambda: dorfman(KT, x1, bad),
             lambda: b_shift(B, bad), lambda: clifford_act(bad, Form.one(4)),
             lambda: algebroid_from_basis(KT, [bad])]
    for call in calls:
        with pytest.raises(DimensionMismatch):
            call()

def test_d_H_e_B_conjugation():
    # d_H (e^B w) = e^B d_{H+dB} w on random forms
    rng = random.Random(4)
    for m in (KT, KT_TW):
        for _ in range(8):
            B = random_real_form(4, 2, rng)
            shifted = LieModel(m.dim, m.structure, m.H + m.d(B))
            w = random_real_form(4, rng.randrange(4), rng)
            assert m.d_H(b_shift_form(B, w)) == b_shift_form(B, shifted.d_H(w))

def test_axiom_suite_passes():
    for m in (ABELIAN, KT, KT_TW,
              LieModel(4, [], Form.blade(4, [1, 2, 3])),
              LieModel(6, [(6, 1, 2, 1)], Form.blade(6, [1, 3, 5]))):
        rep = courant_axiom_suite(m)
        assert rep.ok, first_failure(rep)

def test_axiom_suite_detects_term_drop():
    # dropping the -i_Y d xi term breaks skewness (C4) on KT
    def corrupted(m, a, b):
        dxi = m.d(cov_form(m.dim, a)).contract_vector(tangent(m.dim, b))
        return vec_add(dorfman(m, a, b), one_form_coords(m.dim, dxi))
    failed = failed_checks(courant_axiom_suite(
        KT, table_of=lambda m: tabulate(m, corrupted)))
    assert failed == {"C4": "a=(1) x1; b=(1) e4; sum=(1) e2",
                      "B-shift": "B=e1^e4; a=(1) x1; b=(1) x1"}

def test_axiom_suite_detects_twist_drop():
    # dropping i_X i_Y H yields the untwisted Courant algebroid, which passes
    # C1-C5; only the B-shift conjugation check sees the missing twist term.
    def untwisted(m):
        return LieModel(m.dim, m.structure).dorfman_table
    failed = failed_checks(courant_axiom_suite(KT_TW, table_of=untwisted))
    assert failed == {"B-shift": "B=e3^e4; a=(1) x1; b=(1) x2"}


# -- the tables against the Form-level formulas they replace ---------------------

def reference_dorfman(m, a, b):
    """[X+xi, Y+eta]_H = [X,Y] + i_X d eta - i_Y d xi + i_X i_Y H, from Forms,
    as the bracket was computed before the structure-constant table."""
    dim = m.dim
    X, Y = tangent(dim, a), tangent(dim, b)
    deta = m.d(cov_form(dim, b))
    dxi = m.d(cov_form(dim, a))
    one_form = (deta.contract_vector(X)
                - dxi.contract_vector(Y)
                + m.H.contract_vector(Y).contract_vector(X))
    vec = {i: c for i, c in enumerate(m.bracket_vectors(X, Y)) if c}
    return {**vec, **one_form_coords(dim, one_form)}


def reference_clifford(a, w):
    """(X + xi) . w = i_X w + xi ^ w by the former per-bit loop."""
    dim = w.dim
    X, xi = tangent(dim, a), [a.get(dim + i, ZERO) for i in range(dim)]
    out = {}
    for mask, v in w.coeffs.items():
        for i in range(dim):
            bit = 1 << i
            if X[i] and mask & bit:
                t = X[i] * v * insert_sign(mask, i)
                out[mask & ~bit] = out.get(mask & ~bit, QI(0)) + t
            if xi[i] and not mask & bit:
                t = xi[i] * v * insert_sign(mask, i)
                out[mask | bit] = out.get(mask | bit, QI(0)) + t
    return Form(w.dim, out)


def basis_elems(dim):
    """x_1..x_dim, e^1..e^dim: the unit vectors of E_C in index order."""
    return [{p: ONE} for p in range(2 * dim)]


def differential_models():
    """Every valid corpus model, the benchmark's kt8, and one corpus model
    under the benchmark's seeded rational change of basis."""
    texts = [(p.stem, p.read_text()) for p in sorted(CORPUS.glob("*.gcm"))]
    texts += [("kt8", SCALE8["kt8"]),
              ("dense-kt-twisted", dense_model_text("kt-twisted", 3))]
    for name, text in texts:
        m = parse_model(text).model(name=name)
        if m.validate().ok:
            yield m


def test_dorfman_table_matches_form_formula():
    rng = random.Random(17)
    names = []
    for m in differential_models():
        basis = basis_elems(m.dim)
        for p, a in enumerate(basis):
            for q, b in enumerate(basis):
                want = reference_dorfman(m, a, b)
                got = m.dorfman_table.get(p, {}).get(q, {})
                assert got == want, (m.name, p, q)
                assert dorfman(m, a, b) == want
        for _ in range(10):
            a, b = random_elem(m.dim, rng), random_elem(m.dim, rng)
            assert dorfman(m, a, b) == reference_dorfman(m, a, b), m.name
        names.append(m.name)
    assert len(names) == 18 and {"kt8", "dense-kt-twisted"} <= set(names)


def test_clifford_act_matches_bit_loop():
    rng = random.Random(23)
    for dim in (4, 6, 8):
        for _ in range(12):
            a = random_elem(dim, rng)
            w = random_real_form(dim, rng.randrange(dim + 1), rng) \
                + random_real_form(dim, rng.randrange(dim + 1), rng).scale(I)
            assert clifford_act(a, w) == reference_clifford(a, w)


# -- each exact check fails on a deliberately broken copy -------------------------

# 3-step nilpotent: d e5 = e12, d e6 = e15, with a closed twist
NIL6 = LieModel(6, [(5, 1, 2, 1), (6, 1, 5, 1)], Form.blade(6, [2, 3, 4]))
KT8 = parse_model(SCALE8["kt8"]).model(name="kt8")


def sign_flipped(p, q, k):
    """The Dorfman table with entry k of [basis p, basis q] negated."""
    def table_of(m):
        table = {r: dict(row) for r, row in m.dorfman_table.items()}
        table[p][q] = {**table[p][q], k: -table[p][q][k]}
        return table
    return table_of


def test_exact_suite_passes_on_every_differential_model():
    for m in differential_models():
        rep = courant_axiom_suite(m)
        assert rep.ok, (m.name, first_failure(rep))
    assert courant_axiom_suite(NIL6).ok


def test_suite_catches_wrong_sign_in_one_vector_entry():
    # [x1, x2] = -x5 turned into +x5, while [x2, x1] stays +x5
    failed = failed_checks(courant_axiom_suite(NIL6, table_of=sign_flipped(0, 1, 4)))
    assert failed == {"C1": "a=(1) x1; b=(1) x2; c=(1) x1",
                      "C2": "a=(1) x1; b=(1) x2",
                      "C4": "a=(1) x1; b=(1) x2; sum=(2) x5",
                      "C5": "a=(1) x1; b=(1) x2; c=(1) e5; value=1",
                      "B-shift": "B=e1^e5; a=(1) x1; b=(1) x2"}


def test_suite_catches_wrong_sign_in_one_twist_entry():
    # [x2, x3] = i_{x2} i_{x3} e234 = e4 turned into -e4: skew and pairing
    # invariance break, Jacobi and the anchor do not see it
    failed = failed_checks(courant_axiom_suite(NIL6, table_of=sign_flipped(1, 2, 9)))
    assert failed == {"C4": "a=(1) x2; b=(1) x3; sum=(2) e4",
                      "C5": "a=(1) x2; b=(1) x3; c=(1) x4; value=1"}


def broken_generator_tables(monkeypatch):
    """Substitute dim-8 generator tables with e^1 on e2^e4^e7 sign-flipped."""
    broken = [list(t) for t in _generator_tables(8)]
    mask, sign = broken[8][0b01001010]
    broken[8][0b01001010] = (mask, -sign)
    broken = tuple(tuple(t) for t in broken)
    monkeypatch.setattr(courant, "_generator_tables",
                        lambda dim: broken if dim == 8 else _generator_tables(dim))


def test_suite_catches_generator_table_wrong_on_one_blade(monkeypatch):
    # e^1 on e2^e4^e7 with its sign flipped, on a dim-8 model: the 50 random
    # blades of the former sampled suite never reach this entry
    broken_generator_tables(monkeypatch)
    failed = failed_checks(courant_axiom_suite(KT8))
    assert set(failed) == {"Clifford"}
    assert failed["Clifford"] == "a=(1) x1; b=(1) e1; w=e2^e4^e7"


def test_clifford_relation_is_swept_once_per_generator_table(monkeypatch):
    # the real dim-8 tables, swept first, must not answer for the broken ones
    # of the same dimension; each table is swept once
    assert courant_axiom_suite(KT8).ok and courant_axiom_suite(NIL6).ok
    broken_generator_tables(monkeypatch)
    failed = failed_checks(courant_axiom_suite(KT8))
    assert failed == {"Clifford": "a=(1) x1; b=(1) e1; w=e2^e4^e7"}
    sweeps = []
    monkeypatch.setattr(courant, "_anticommutator",
                        lambda *args: sweeps.append(args))
    assert failed_checks(courant_axiom_suite(KT8)) == failed
    assert courant_axiom_suite(NIL6).ok and not sweeps


def test_suite_catches_missing_dB_term():
    # the bracket of the base twist on every model: right on the model itself,
    # but it drops i_X i_Y dB on each B-shifted one
    def base_twist(m):
        return LieModel(m.dim, m.structure, NIL6.H).dorfman_table
    failed = failed_checks(courant_axiom_suite(NIL6, table_of=base_twist))
    assert failed == {"B-shift": "B=e2^e6; a=(1) x1; b=(1) x2"}


def test_witness_names_follow_the_coordinate_layout():
    # the suite's witnesses name basis element p as _coords_repr({p: 1}):
    # x_i at index i-1, e^i at dim+i-1
    for dim in (4, 8):
        names = [_coords_repr(dim, u) for u in basis_elems(dim)]
        assert names == ([f"(1) x{i}" for i in range(1, dim + 1)]
                         + [f"(1) e{i}" for i in range(1, dim + 1)])
