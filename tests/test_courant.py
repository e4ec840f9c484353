"""Pairing, Dorfman bracket, B-shifts, Clifford action, axiom suite; the
bracket and Clifford tables against the Form-level formulas they replace."""

import random

from gchodge import courant
from gchodge.courant import (GenElem, _coords_repr, _generator_tables,
                             b_shift, b_shift_form, clifford_act,
                             courant_axiom_suite, dorfman, pairing)
from gchodge.forms import Form, insert_sign
from gchodge.liemodel import LieModel
from gchodge.modelfile import parse_model
from gchodge.scalars import I, ONE, QI
from fractions import Fraction

from test_gcs import CORPUS, SCALE8, dense_model_text


ABELIAN = LieModel(4, [])
KT = LieModel(4, [(4, 1, 2, 1)])
KT_TW = LieModel(4, [(4, 1, 2, 1)], Form.blade(4, [1, 2, 3]))


def cov_form(a: GenElem) -> Form:
    """The covector part of a as a 1-form."""
    return Form(a.dim, {1 << i: c for i, c in enumerate(a.cov) if c})


def first_failure(rep):
    """(name, witness) of the first failing check of an axiom report."""
    return next(((n, w) for n, ok, w in rep.checks if not ok), None)


def failed_checks(rep):
    """{first word of the check name: witness} over the failing checks."""
    return {n.split()[0]: w for n, ok, w in rep.checks if not ok}


def tabulate(m, bracket):
    """A GenElem-level bracket's structure constants on the coordinate basis,
    in the layout of `LieModel.dorfman_table` ([p][q] = coords of [b_p, b_q],
    zero entries and rows omitted), as the axiom suite built them before it
    took tables: the `table_of` seam for brackets written on elements."""
    basis = basis_elems(m.dim)
    table = {}
    for p, a in enumerate(basis):
        row = {q: col for q, b in enumerate(basis)
               if (col := bracket(m, a, b).to_coords())}
        if row:
            table[p] = row
    return table


# seeded random elements for the identity tests; the engine samples nothing

def random_gen_elem(dim: int, rng: random.Random) -> GenElem:
    def coeffs():
        return [QI(rng.randrange(-2, 3), rng.randrange(-1, 2)) for _ in range(dim)]
    return GenElem(dim, coeffs(), coeffs())


def random_real_form(dim: int, degree: int, rng: random.Random) -> Form:
    out = Form(dim)
    for m in range(1 << dim):
        if bin(m).count("1") == degree:
            c = rng.randrange(-2, 3)
            if c:
                out = out + Form(dim, {m: QI(c)})
    return out


def test_pairing_values():
    assert pairing(GenElem.x(4, 1), GenElem.e(4, 1)) == QI(Fraction(1, 2))
    assert pairing(GenElem.x(4, 1), GenElem.x(4, 2)) == QI(0)
    a = GenElem.x(4, 1) + GenElem.e(4, 1)
    assert pairing(a, a) == ONE

def test_dorfman_kt():
    out = dorfman(KT, GenElem.x(4, 1), GenElem.x(4, 2))
    assert out == -GenElem.x(4, 4)

def test_dorfman_kt_twisted():
    out = dorfman(KT_TW, GenElem.x(4, 1), GenElem.x(4, 2))
    assert out == -GenElem.x(4, 4) - GenElem.e(4, 3)

def test_dorfman_abelian():
    a = GenElem.x(4, 1) + GenElem.e(4, 2)
    b = GenElem.x(4, 3) + GenElem.e(4, 4)
    assert dorfman(ABELIAN, a, b).is_zero()

def test_b_shift_on_elements():
    B = Form.blade(4, [1, 2])
    assert b_shift(B, GenElem.x(4, 1)) == GenElem.x(4, 1) + GenElem.e(4, 2)
    a = GenElem.x(4, 3) + GenElem.e(4, 1)
    assert b_shift(Form(4), a) == a

def test_b_shift_on_forms():
    B = Form.blade(4, [1, 2])
    assert b_shift_form(B, Form.one(4)) == Form.one(4) + B

def test_b_shift_preserves_pairing():
    rng = random.Random(2)
    for _ in range(10):
        B = random_real_form(4, 2, rng)
        a, b = random_gen_elem(4, rng), random_gen_elem(4, rng)
        assert pairing(b_shift(B, a), b_shift(B, b)) == pairing(a, b)

def test_clifford_examples():
    a = GenElem.x(4, 1) + GenElem.e(4, 1)
    assert clifford_act(a, Form.one(4)) == Form.blade(4, [1])
    assert clifford_act(GenElem.x(4, 1), Form.blade(4, [1])) == Form.one(4)

def test_clifford_relation_random():
    rng = random.Random(3)
    for _ in range(20):
        a = random_gen_elem(4, rng)
        w = random_real_form(4, rng.randrange(5), rng)
        assert clifford_act(a, clifford_act(a, w)) == w.scale(pairing(a, a))

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
        good = dorfman(m, a, b)
        dxi = m.d(cov_form(a)).contract_vector(b.vec)
        cov = list(good.cov)
        for mask, v in dxi.coeffs.items():
            i = mask.bit_length() - 1
            cov[i] = cov[i] + v
        return GenElem(m.dim, list(good.vec), cov)
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
    vec = m.bracket_vectors(a.vec, b.vec)
    deta = m.d(cov_form(b))
    dxi = m.d(cov_form(a))
    one_form = (deta.contract_vector(a.vec)
                - dxi.contract_vector(b.vec)
                + m.H.contract_vector(b.vec).contract_vector(a.vec))
    cov = [QI(0)] * m.dim
    for mask, v in one_form.coeffs.items():
        cov[mask.bit_length() - 1] = v
    return GenElem(m.dim, vec, cov)


def reference_clifford(a, w):
    """(X + xi) . w = i_X w + xi ^ w by the former per-bit loop."""
    out = {}
    for mask, v in w.coeffs.items():
        for i in range(a.dim):
            bit = 1 << i
            if a.vec[i] and mask & bit:
                t = a.vec[i] * v * insert_sign(mask, i)
                out[mask & ~bit] = out.get(mask & ~bit, QI(0)) + t
            if a.cov[i] and not mask & bit:
                t = a.cov[i] * v * insert_sign(mask, i)
                out[mask | bit] = out.get(mask | bit, QI(0)) + t
    return Form(w.dim, out)


def basis_elems(dim):
    return ([GenElem.x(dim, i) for i in range(1, dim + 1)]
            + [GenElem.e(dim, i) for i in range(1, dim + 1)])


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
                assert got == want.to_coords(), (m.name, p, q)
                assert dorfman(m, a, b) == want
        for _ in range(10):
            a, b = random_gen_elem(m.dim, rng), random_gen_elem(m.dim, rng)
            assert dorfman(m, a, b) == reference_dorfman(m, a, b), m.name
        names.append(m.name)
    assert len(names) == 18 and {"kt8", "dense-kt-twisted"} <= set(names)


def test_clifford_act_matches_bit_loop():
    rng = random.Random(23)
    for dim in (4, 6, 8):
        for _ in range(12):
            a = random_gen_elem(dim, rng)
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


def test_suite_catches_generator_table_wrong_on_one_blade(monkeypatch):
    # e^1 on e2^e4^e7 with its sign flipped, on a dim-8 model: the 50 random
    # blades of the former sampled suite never reach this entry
    real = _generator_tables(8)
    broken = [list(t) for t in real]
    mask, sign = broken[8][0b01001010]
    broken[8][0b01001010] = (mask, -sign)
    broken = tuple(tuple(t) for t in broken)
    monkeypatch.setattr(courant, "_generator_tables",
                        lambda dim: broken if dim == 8 else _generator_tables(dim))
    failed = failed_checks(courant_axiom_suite(KT8))
    assert set(failed) == {"Clifford"}
    assert failed["Clifford"] == "a=(1) x1; b=(1) e1; w=e2^e4^e7"


def test_suite_catches_missing_dB_term():
    # the bracket of the base twist on every model: right on the model itself,
    # but it drops i_X i_Y dB on each B-shifted one
    def base_twist(m):
        return LieModel(m.dim, m.structure, NIL6.H).dorfman_table
    failed = failed_checks(courant_axiom_suite(NIL6, table_of=base_twist))
    assert failed == {"B-shift": "B=e2^e6; a=(1) x1; b=(1) x2"}


def test_passing_suite_builds_no_gen_elem(monkeypatch):
    # the suite reads bracket tables only; its witnesses name basis elements
    # by index, exactly as the GenElem reprs did
    built = []
    init = GenElem.__init__

    def counting_init(self, *args, **kwargs):
        built.append(args)
        init(self, *args, **kwargs)

    monkeypatch.setattr(GenElem, "__init__", counting_init)
    for m in (KT_TW, KT8):
        rep = courant_axiom_suite(m)
        assert rep.ok, first_failure(rep)
        assert built == [], m
    monkeypatch.undo()
    for dim in (4, 8):
        for p, a in enumerate(basis_elems(dim)):
            assert _coords_repr(dim, {p: ONE}) == repr(a)
