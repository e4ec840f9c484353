"""Twisted/delbar cohomology, Froelicher pages, ddbar, filtrations, Lefschetz, MHS."""

from pathlib import Path

import pytest

from gchodge.cohomology import (_preimage_in, ddbar_check, delbar_dims,
                                filtration_subspace, frolicher_pages,
                                hodge_filtration, invariant_derham,
                                lefschetz_check, mukai_Q, twisted_cohomology,
                                weight_mhs_check)
from gchodge.errors import EngineError, WrongType
from gchodge.forms import Form, mukai_pairing
from gchodge.gcs import make_complex, make_symplectic
from gchodge.linalg import Subspace
from gchodge.modelfile import build_structure, parse_model
from gchodge.scalars import I, QI

from test_gcs import (ABELIAN4, ABELIAN6, KT, KT_TW, complex_torus4,
                      kt_symplectic_twisted, std_I, symplectic_torus4,
                      torus_omega)


CORPUS = Path(__file__).resolve().parent.parent / "corpus"


def kt_symplectic_untwisted():
    return make_symplectic(KT, Form.blade(4, [1, 4]) + Form.blade(4, [2, 3]))


# -- twisted cohomology ---------------------------------------------------------

def test_twisted_abelian():
    tw = twisted_cohomology(ABELIAN4)
    assert (tw.dim_even, tw.dim_odd) == (8, 8)

def test_twisted_kt():
    tw = twisted_cohomology(KT)
    assert (tw.dim_even, tw.dim_odd) == (6, 6)

def test_twisted_kt_twisted():
    # H = e123 = d(-e34) is exact, so e^{-e34} conjugates to the untwisted case
    tw = twisted_cohomology(KT_TW)
    assert (tw.dim_even, tw.dim_odd) == (6, 6)

def test_invariant_derham_betti():
    assert [invariant_derham(KT, k).dim for k in range(5)] == [1, 3, 4, 3, 1]
    assert [invariant_derham(ABELIAN4, k).dim for k in range(5)] == [1, 4, 6, 4, 1]


# -- delbar cohomology -----------------------------------------------------------

def test_delbar_dims_complex_torus():
    s = complex_torus4()
    assert delbar_dims(s) == {-2: 1, -1: 4, 0: 6, 1: 4, 2: 1}

def test_delbar_dims_symplectic_torus():
    s = symplectic_torus4()
    assert delbar_dims(s) == {-2: 1, -1: 4, 0: 6, 1: 4, 2: 1}

def test_delbar_dims_kt_symplectic():
    # phi intertwines delbar with untwisted d, so dims are the Betti numbers
    for s in (kt_symplectic_untwisted(), kt_symplectic_twisted()):
        assert delbar_dims(s) == {-2: 1, -1: 3, 0: 4, 1: 3, 2: 1}


# -- froelicher -------------------------------------------------------------------

def test_frolicher_complex_torus():
    rep = frolicher_pages(complex_torus4())
    assert rep.degenerates
    assert rep.delbar_total == rep.twisted_total == 16

def test_frolicher_kt_symplectic():
    rep = frolicher_pages(kt_symplectic_twisted())
    assert rep.degenerates
    assert rep.delbar_total == rep.twisted_total == 12
    assert rep.pages[1] == {-2: 1, -1: 3, 0: 4, 1: 3, 2: 1}


# -- ddbar --------------------------------------------------------------------------

def test_ddbar_complex_torus():
    assert ddbar_check(complex_torus4()).holds

def test_ddbar_symplectic_torus():
    assert ddbar_check(symplectic_torus4()).holds

def test_ddbar_fails_kt():
    rep = ddbar_check(kt_symplectic_twisted())
    assert not rep.holds
    assert rep.witness is not None

def test_ddbar_iff_degeneration_and_hodge():
    structures = [complex_torus4(), symplectic_torus4(),
                  kt_symplectic_untwisted(), kt_symplectic_twisted(),
                  make_complex(ABELIAN6, std_I(6)),
                  make_symplectic(ABELIAN6, torus_omega(6))]
    for s in structures:
        dd = ddbar_check(s)
        rep = hodge_filtration(s)
        assert dd.holds == (rep.frolicher_degenerates and rep.hodge_ok)


# -- hodge filtration ------------------------------------------------------------------

def test_filtration_symplectic_torus():
    s = symplectic_torus4()
    rep = hodge_filtration(s)
    assert rep.filtration_dims == {-2: 1, -1: 4, 0: 7, 1: 8, 2: 8}
    assert rep.hodge_ok
    assert rep.graded_match and all(rep.graded_match.values())
    # F^{-2} is spanned by the spinor class, which is nonzero since
    # (rho, conj rho) = -4
    f = filtration_subspace(s, -2)
    assert f.dim == 1
    assert mukai_pairing(s.spinor, s.spinor.conj()) == QI(-4)

def test_filtration_kt_fails_hodge():
    rep = hodge_filtration(kt_symplectic_twisted())
    assert not rep.hodge_ok
    assert not all(rep.hodge_by_p.values())

def test_filtration_complex_torus():
    rep = hodge_filtration(complex_torus4())
    assert rep.hodge_ok and rep.ddbar_holds
    assert rep.filtration_dims == {-2: 1, -1: 4, 0: 7, 1: 8, 2: 8}


# -- mukai Q -----------------------------------------------------------------------------

def test_mukai_q_symplectic_torus():
    s = symplectic_torus4()
    rep = mukai_Q(s)
    assert rep.descends and rep.nondegenerate and rep.block_orthogonal
    assert rep.measured_dh_sign == 1
    # Q([e^{iw}], [e^{-iw}]) = -4 under vol = e^{1234} -> 1
    assert mukai_pairing(s.spinor, s.spinor.conj()) == QI(-4)

def test_mukai_q_descends_everywhere():
    for s in (complex_torus4(), kt_symplectic_twisted()):
        rep = mukai_Q(s)
        assert rep.descends and rep.nondegenerate

def _corpus_structures():
    for path in sorted(CORPUS.glob("*.gcm")):
        mf = parse_model(path.read_text())
        model = mf.model(name=path.stem)
        if not model.validate().ok:
            continue
        for b in mf.blocks:
            if b.kind in ("symplectic", "complex", "general"):
                try:
                    yield f"{path.stem}:{b.name}", build_structure(mf, b, model)
                except EngineError:
                    continue


def _pairwise_mukai(s):
    """Q and the block-orthogonality verdict from one mukai_pairing per pair
    of forms: the reference for mukai_Q's index-driven products."""
    m = s.model
    tw = twisted_cohomology(m)
    reps = [Form(m.dim, dict(r)) for r in tw.even.reps + tw.odd.reps]
    Q = [[mukai_pairing(a, b) for b in reps] for a in reps]
    zero = Subspace.zero(1 << m.dim)
    blocks = {k: _preimage_in(s.U_subspace(k), m.dH_table, zero).basis()
              for k in range(-s.n, s.n + 1)}
    orth = all(not mukai_pairing(Form(m.dim, dict(a)), Form(m.dim, dict(b)))
               for j in blocks for k in blocks if j + k
               for a in blocks[j] for b in blocks[k])
    return Q, orth


def test_mukai_q_matches_pairwise_reference():
    names = []
    for name, s in _corpus_structures():
        names.append(name)
        rep = mukai_Q(s, samples=2)
        assert (rep.matrix, rep.block_orthogonal) == _pairwise_mukai(s), name
    assert len(names) >= 10
    # a grading relabelled by a shift pairs blocks j, k with j + k != 0, so
    # the orthogonality test has a failing case to agree on
    s = symplectic_torus4()
    s.U = {k - 2: U for k, U in s.U.items()}
    rep = mukai_Q(s, samples=2)
    assert rep.block_orthogonal is False
    assert (rep.matrix, rep.block_orthogonal) == _pairwise_mukai(s)

def test_mukai_q_sign_dim6():
    s = make_symplectic(ABELIAN6, torus_omega(6))
    rep = mukai_Q(s, samples=10)
    assert rep.measured_dh_sign == 1  # paper's n there is dim M = 6, even


# -- lefschetz ----------------------------------------------------------------------------

def test_lefschetz_torus():
    rep = lefschetz_check(symplectic_torus4())
    assert rep.ok and rep.verdicts == {0: True, 1: True, 2: True}

def test_lefschetz_kt_fails_at_k1():
    rep = lefschetz_check(kt_symplectic_untwisted())
    assert not rep.verdicts[1]
    assert rep.verdicts[0]
    # kernel contains [e1]: omega ^ e1 = e123 = -d(e34)
    w = Form.blade(4, [1, 4]) + Form.blade(4, [2, 3])
    assert w.wedge(Form.blade(4, [1])) == Form.blade(4, [1, 2, 3])
    assert KT.d(-Form.blade(4, [3, 4])) == Form.blade(4, [1, 2, 3])
    assert rep.kernel_witness is not None

def test_lefschetz_iff_ddbar():
    for s in (symplectic_torus4(), kt_symplectic_untwisted(),
              kt_symplectic_twisted(), make_symplectic(ABELIAN6, torus_omega(6))):
        assert lefschetz_check(s).ok == ddbar_check(s).holds

def test_lefschetz_wrong_type():
    with pytest.raises(WrongType):
        lefschetz_check(complex_torus4())


# -- mixed Hodge structure -----------------------------------------------------------------

def test_mhs_complex_torus():
    rep = weight_mhs_check(complex_torus4())
    assert rep.skipped is None
    assert rep.split_ok
    assert rep.gr_dims == {0: 1, 1: 4, 2: 6, 3: 4, 4: 1}

def test_mhs_graded_hodge_split_h2():
    # classical Hodge split of H^2 recovered: graded dims 1, 4, 1 across i
    rep = weight_mhs_check(complex_torus4())
    dims = rep.graded_hodge_dims[2]
    assert dims[-1] == 6
    increments = [b - a for a, b in zip([0] + dims, dims)]
    assert [d for d in increments if d] == [1, 4, 1]

def test_mhs_wrong_type():
    with pytest.raises(WrongType):
        weight_mhs_check(symplectic_torus4())
