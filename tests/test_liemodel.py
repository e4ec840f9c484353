"""Model validation, CE differential, algebroids, invariant Betti numbers."""

import io
import random
from contextlib import redirect_stdout
from functools import cached_property

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gchodge.cli import main
from gchodge.courant import algebroid_from_basis
from gchodge.errors import (EngineError, JacobiFailure, NotClosedUnderBracket,
                            NotIsotropic, StructureNotReal, TwistNotClosed)
from gchodge.forms import Form, _compose, popcount
from gchodge.liemodel import LieAlgebroid, LieModel, _mask_indices
from gchodge.linalg import _axpy_into
from gchodge.modelfile import parse_model
from gchodge.poly import ParamPoly
from gchodge.scalars import I, ONE, QI

from reference_algebroid import cartan_differential
from test_gcs import (CORPUS, SCALE8, corpus_structures, dense_model_text,
                      spin_op, structures_of)
from test_linalg import KERNEL_EXAMPLES, nonzero_qis


def masks_of_degree(rank, k):
    return [m for m in range(1 << rank) if popcount(m) == k]


def abelian(dim=4, H=None):
    return LieModel(dim, [], H)


def kodaira_thurston(H=None):
    # d e4 = e1^e2
    return LieModel(4, [(4, 1, 2, 1)], H)


def full_tangent_basis(m):
    """x_1..x_dim, the unit vectors at E_C coordinates 0..dim-1."""
    return [{i: ONE} for i in range(m.dim)]


def test_validate_abelian():
    assert abelian().validate().ok

def test_validate_kt():
    assert kodaira_thurston().validate().ok

def test_validity_is_computed_once_per_model(monkeypatch):
    # one hodge run asks for validity on each path that builds a structure
    body = LieModel.__dict__["_validity"].func
    asked, computed = [], []
    def counting(self):
        computed.append(self)
        return body(self)
    once = cached_property(counting)
    once.__set_name__(LieModel, "_validity")
    monkeypatch.setattr(LieModel, "_validity", once)
    validate = LieModel.validate
    monkeypatch.setattr(LieModel, "validate",
                        lambda self: asked.append(self) or validate(self))
    with redirect_stdout(io.StringIO()):
        assert main(["hodge", str(CORPUS / "torus6-kahler.gcm"), "--json"]) == 0
    assert len(asked) > len(computed) == len({id(m) for m in asked}) == 1

def test_validate_jacobi_failure():
    # d e3 = e12, d e4 = e34 gives d^2 e4 = e124 != 0
    m = LieModel(4, [(3, 1, 2, 1), (4, 3, 4, 1)])
    rep = m.validate()
    assert not rep.ok
    assert rep.jacobi_failures and rep.jacobi_failures[0][0] == 4
    with pytest.raises(JacobiFailure):
        rep.raise_on_failure()

def test_non_real_structure_constants_are_rejected():
    # d e4 = i e1^e2 names no real Lie algebra, so the model is refused
    # where it is built, as a non-real twist is
    with pytest.raises(StructureNotReal, match="d e4") as err:
        LieModel(4, [(4, 1, 2, I)])
    assert err.value.code == "structure-constants-not-real"
    assert err.value.details == {"entries": [(4, 1, 2)]}
    with pytest.raises(StructureNotReal):
        LieModel(4, [(4, 1, 2, 1), (3, 1, 2, QI(1, 2))])
    assert LieModel(4, [(4, 1, 2, QI(-3, 0))]).structure[0][3] == QI(-3)

def test_validate_twist_not_closed():
    # non-unimodular d e2 = e12 makes d(e234) = e1234 nonzero
    m = LieModel(4, [(2, 1, 2, 1)], Form.blade(4, [2, 3, 4]))
    rep = m.validate()
    assert not rep.jacobi_failures
    assert not rep.dh_residual.is_zero()
    with pytest.raises(TwistNotClosed):
        rep.raise_on_failure()


def test_ce_differential_kt():
    m = kodaira_thurston()
    assert m.d(Form.blade(4, [4])) == Form.blade(4, [1, 2])
    assert m.d(Form.blade(4, [3, 4])) == -Form.blade(4, [1, 2, 3])

def test_ce_differential_abelian():
    m = abelian()
    rng = random.Random(0)
    for _ in range(5):
        f = Form(4, {rng.randrange(16): QI(rng.randrange(1, 5))})
        assert m.d(f).is_zero()

def test_ce_squares_to_zero():
    rng = random.Random(1)
    models = [kodaira_thurston(),
              LieModel(6, [(6, 1, 2, 1), (5, 1, 3, 1)]),
              LieModel(4, [(3, 1, 2, 1), (4, 1, 3, 1)])]
    for m in models:
        assert m.validate().ok
        for _ in range(8):
            f = Form(m.dim, {rng.randrange(1 << m.dim): QI(rng.randrange(-3, 4), 1)})
            assert m.d(m.d(f)).is_zero()


def reference_d(m, a):
    """The Chevalley-Eilenberg differential as a per-blade antiderivation
    on Forms: d(e^{i1} ^ ... ^ e^{ik}) = sum_p (-1)^(p-1) (d e^{ip}) ^ (the
    blade without e^{ip}), with d e^k summed from the structure entries."""
    dim = m.dim
    dgen = [Form(dim) for _ in range(dim + 1)]
    for k, i, j, c in m.structure:
        dgen[k] = dgen[k] + Form.blade(dim, (i, j), c)
    out = Form(dim)
    for mask, v in a.coeffs.items():
        sign = 1
        rest = mask
        while rest:
            low = rest & -rest
            dg = dgen[low.bit_length()]
            if not dg.is_zero():
                term = dg.wedge(Form(dim, {mask & ~low: ONE}))
                out = out + term.scale(v * sign)
            sign = -sign
            rest &= rest - 1
    return out


def reference_dH(m, a):
    return reference_d(m, a) + m.H.wedge(a)


def table_models():
    """(name, model) for every corpus model that builds, kt8, and the three
    dense6 models of the benchmark at one seed."""
    texts = [(p.stem, p.read_text()) for p in sorted(CORPUS.glob("*.gcm"))]
    texts.append(("kt8", SCALE8["kt8"]))
    texts += [(f"{name}-dense", dense_model_text(name, 5)) for name in
              ("kt-twisted", "torus6-complex", "torus6-symplectic")]
    for name, text in texts:
        try:
            yield name, parse_model(text).model(name=name)
        except EngineError:
            continue


def assert_d_tables_match_reference(name, m):
    """d_table and dH_table against the per-blade reference, d and d_H on
    seeded multi-blade forms, and d o d = d_H o d_H = 0 on the tables of a
    valid model."""
    dim = m.dim
    assert m.d_table == spin_op(dim, lambda w: reference_d(m, w)), name
    assert m.dH_table == spin_op(dim, lambda w: reference_dH(m, w)), name
    rng = random.Random(dim)
    for _ in range(4):
        a = Form(dim, {rng.randrange(1 << dim): QI(rng.randrange(-9, 10),
                                                   rng.randrange(-2, 3))
                       for _ in range(6)})
        assert m.d(a) == reference_d(m, a), name
        assert m.d_H(a) == reference_dH(m, a), name
    if m.validate().ok:
        assert _compose(m.d_table, m.d_table) == {}, name
        assert _compose(m.dH_table, m.dH_table) == {}, name


def test_d_tables_match_the_per_blade_reference():
    models = list(table_models())
    for name, m in models:
        assert_d_tables_match_reference(name, m)
    assert len(models) >= 20
    assert any(not m.H.is_zero() for _name, m in models)


def test_d_of_a_polynomial_form_matches_the_reference():
    m = LieModel(4, [(4, 1, 2, 1)], Form.blade(4, [1, 2, 3]))
    t = ParamPoly.var(2, 0)
    a = Form(4, {0b1000: t, 0b1100: t * t + ParamPoly.const(2, QI(3)),
                 0b0001: ParamPoly.var(2, 1)})
    assert m.d(a) == reference_d(m, a)
    assert m.d_H(a) == reference_dH(m, a)
    assert not m.d_H(a).is_zero()


def test_algebroid_abelian_complex_basis():
    m = abelian()
    # x1 + i x2, x3 + i x4, e1 + i e2, e3 + i e4
    basis = [{0: ONE, 1: I}, {2: ONE, 3: I}, {4: ONE, 5: I}, {6: ONE, 7: I}]
    L = algebroid_from_basis(m, basis)
    for i in range(4):
        for j in range(4):
            assert all(not c for c in L.bracket_table[i][j])

def test_algebroid_kt_not_closed():
    m = kodaira_thurston()
    with pytest.raises(NotClosedUnderBracket):
        algebroid_from_basis(m, [{0: ONE}, {1: ONE}])    # x1, x2

def test_algebroid_not_isotropic():
    m = abelian()
    with pytest.raises(NotIsotropic):
        algebroid_from_basis(m, [{0: ONE}, {4: ONE}])    # x1, e1


def test_algebroid_reduces_its_basis_once(monkeypatch):
    """algebroid_from_basis reduces the basis once, for the bracket table,
    and keeps the reduction on the algebroid: coords_of and cochain_eval
    solve over it without reducing the basis again."""
    from gchodge import liemodel
    calls = []
    real = liemodel.reduce_columns

    def counting(cols):
        calls.append(len(cols))
        return real(cols)

    monkeypatch.setattr(liemodel, "reduce_columns", counting)
    m = kodaira_thurston()
    L = algebroid_from_basis(m, full_tangent_basis(m))
    assert calls == [4]
    rng = random.Random(3)
    for _ in range(5):
        coords = [QI(rng.randrange(-3, 4), rng.randrange(-2, 3))
                  for _ in range(4)]
        elem = {}
        for c, b in zip(coords, L.basis):
            if c:
                _axpy_into(elem, c, b)
        assert L.coords_of(elem) == coords
        assert L.cochain_eval({0b0011: ONE}, [L.basis[0], elem]) == coords[1]
    assert calls == [4]
    with pytest.raises(NotClosedUnderBracket):
        L.coords_of({4: ONE})     # e1 leaves the span of x1..x4


def test_algebroid_differential_kt():
    m = kodaira_thurston()
    L = algebroid_from_basis(m, full_tangent_basis(m))
    # dual cochain e4 has d_L e4 = e1^e2 slot (value 1)
    c = {1 << 3: ONE}
    dc = L.differential(c)
    assert dc == {0b0011: ONE}

def test_algebroid_differential_squares_to_zero():
    m = kodaira_thurston()
    L = algebroid_from_basis(m, full_tangent_basis(m))
    rng = random.Random(5)
    for _ in range(10):
        c = {rng.randrange(16): QI(rng.randrange(-2, 3), rng.randrange(-1, 2))}
        assert L.differential(L.differential(c)) == {}


def test_invariant_betti_numbers():
    kt = kodaira_thurston()
    L = algebroid_from_basis(kt, full_tangent_basis(kt))
    assert [L.cohomology().dim(k) for k in range(5)] == [1, 3, 4, 3, 1]
    ab = abelian()
    La = algebroid_from_basis(ab, full_tangent_basis(ab))
    assert [La.cohomology().dim(k) for k in range(5)] == [1, 4, 6, 4, 1]

def test_conjugation_equivariance():
    m = kodaira_thurston()
    rng = random.Random(9)
    # x1 + i x2, x3 + i x4 is not closed ([x1, x2] = -x4), so use the full
    # tangent basis
    L = algebroid_from_basis(m, full_tangent_basis(m))
    Lc = L.conj()
    for i in range(4):
        for j in range(4):
            assert [c.conj() for c in L.bracket_table[i][j]] == Lc.bracket_table[i][j]


def _differential_by_target(L, c):
    """The Cartan formula evaluated target mask by target mask over every
    mask of the next degree: a reference for `LieAlgebroid.differential`."""
    out = {}
    for target_deg in {popcount(mask) + 1 for mask in c}:
        for mask in masks_of_degree(L.rank, target_deg):
            val = QI(0)
            idxs = _mask_indices(mask)
            for p in range(len(idxs)):
                for q in range(p + 1, len(idxs)):
                    rest = mask & ~(1 << idxs[p]) & ~(1 << idxs[q])
                    br = L.bracket_table[idxs[p]][idxs[q]]
                    sgn_pq = -1 if (p + q) & 1 else 1
                    for mth, coeff in enumerate(br):
                        bit = 1 << mth
                        cm = c.get(rest | bit)
                        if not coeff or rest & bit or not cm:
                            continue
                        ins = popcount(rest & (bit - 1))
                        term = coeff * cm
                        val = val + (term if sgn_pq * (-1) ** ins > 0 else -term)
            if val:
                out[mask] = val
    return out


def test_differential_matches_the_target_by_target_formula():
    structures = [*corpus_structures(),
                  *structures_of(SCALE8["kt8"], "kt8"),
                  *structures_of(dense_model_text("kt-twisted", 1), "kt-dense")]
    rng = random.Random(3)
    algebroids = 0
    for name, s in structures:
        for L in (s.L, s.L.conj()):
            algebroids += 1
            for mask in range(1 << L.rank):
                assert L.differential({mask: ONE}) \
                    == _differential_by_target(L, {mask: ONE}), (name, mask)
            for _ in range(4):
                k = rng.randrange(L.rank)
                c = {mask: QI(rng.randrange(-2, 3), rng.randrange(-1, 2))
                     for mask in masks_of_degree(L.rank, k)
                     if rng.randrange(2)}
                c = {mask: x for mask, x in c.items() if x}
                assert L.differential(c) == _differential_by_target(L, c), name
    assert algebroids >= 30


@st.composite
def bracket_tables(draw):
    """(table, cochains): an antisymmetric bracket table of rank 2..8 with
    a few small Gaussian-rational entries, Jacobi not imposed, and cochains
    of a few masks each, one of them every mask of one degree."""
    rank = draw(st.integers(2, 8))
    table = [[[QI(0)] * rank for _ in range(rank)] for _ in range(rank)]
    pairs = [(i, j) for i in range(rank) for j in range(i + 1, rank)]
    for _ in range(draw(st.integers(0, 2 * rank))):
        i, j = draw(st.sampled_from(pairs))
        m = draw(st.integers(0, rank - 1))
        c = draw(nonzero_qis)
        table[i][j][m], table[j][i][m] = c, -c
    masks = st.integers(0, (1 << rank) - 1)
    cochains = draw(st.lists(st.dictionaries(masks, nonzero_qis, max_size=5),
                             min_size=1, max_size=3))
    k = draw(st.integers(0, rank))
    cochains.append({mask: ONE for mask in masks_of_degree(rank, k)})
    return table, cochains


@settings(max_examples=KERNEL_EXAMPLES, deadline=None, derandomize=True,
          database=None)
@given(case=bracket_tables())
def test_differential_matches_the_cartan_formula_on_random_tables(case):
    """d_L from the chains -c a^i ^ a^j ^ i_{a_m} equals the Cartan formula
    of tests/reference_algebroid.py on any bracket table: both are the
    derivation extending d a(x, y) = -a([x, y]), Jacobi or not."""
    table, cochains = case
    L = LieAlgebroid(abelian(), [{a: ONE} for a in range(len(table))], table)
    assert L.rank == len(table)
    for c in cochains:
        assert L.differential(c) == cartan_differential(table, c)


def dense6_structures():
    """The structures of the three dense6 models, seeds 0, 3 and 7."""
    for seed in (0, 3, 7):
        for name in ("kt-twisted", "torus6-complex", "torus6-symplectic"):
            yield from structures_of(dense_model_text(name, seed),
                                     f"{name}-dense{seed}")


def test_differential_matches_the_cartan_formula_on_corpus_and_dense6():
    """Every corpus and dense6 algebroid and its conjugate, on every mask and
    on random cochains of each degree."""
    rng = random.Random(11)
    algebroids = 0
    for name, s in [*corpus_structures(), *dense6_structures()]:
        for L in (s.L, s.L.conj()):
            algebroids += 1
            for mask in range(1 << L.rank):
                assert L.differential({mask: ONE}) \
                    == cartan_differential(L.bracket_table, {mask: ONE}), \
                    (name, mask)
            for k in range(L.rank):
                c = {mask: QI(rng.randrange(-2, 3), rng.randrange(-1, 2))
                     for mask in masks_of_degree(L.rank, k)}
                c = {mask: x for mask, x in c.items() if x}
                assert L.differential(c) \
                    == cartan_differential(L.bracket_table, c), (name, k)
    assert algebroids >= 50
