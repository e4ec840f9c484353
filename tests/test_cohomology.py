"""Twisted/delbar cohomology, Froelicher pages, ddbar, filtrations, Lefschetz, MHS."""

import copy

import pytest

from gchodge.cohomology import (_image_of, _preimage_in, chain_subspace,
                                ddbar_check, delbar_cohomology, delbar_dims,
                                filtration_subspace, frolicher_pages,
                                hodge_filtration, invariant_derham,
                                lefschetz_check, mukai_Q, twisted_cohomology,
                                weight_mhs_check)
from gchodge.errors import NotIntegrable, WrongType
from gchodge.forms import Form, mukai_pairing
from gchodge.gcs import make_complex, make_symplectic
from gchodge.linalg import Echelon, Subspace
from gchodge.scalars import I, ONE, QI

from test_gcs import (ABELIAN4, ABELIAN6, KT, KT_TW, SCALE8, broken_kt,
                      build_main, complex_torus4, corpus_structures,
                      dense_model_text, kt_symplectic_twisted, std_I,
                      structures_of, symplectic_torus4, torus_omega)


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
        assert rep.measured_dh_sign == 1

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


def _dense(rows):
    return [[row.get(j, QI(0)) for j in range(len(rows))] for row in rows]

def test_mukai_q_matches_pairwise_reference():
    names = []
    for name, s in corpus_structures():
        names.append(name)
        rep = mukai_Q(s)
        assert (_dense(rep.rows), rep.block_orthogonal) == _pairwise_mukai(s), name
    assert len(names) >= 10
    # a grading relabelled by a shift pairs blocks j, k with j + k != 0, so
    # the orthogonality test has a failing case to agree on
    s = symplectic_torus4()
    s.U = {k - 2: U for k, U in s.U.items()}
    rep = mukai_Q(s)
    assert rep.block_orthogonal is False
    assert (_dense(rep.rows), rep.block_orthogonal) == _pairwise_mukai(s)

def test_mukai_q_sign_dim6():
    s = make_symplectic(ABELIAN6, torus_omega(6))
    rep = mukai_Q(s)
    assert rep.measured_dh_sign == 1  # paper's n there is dim M = 6, even


# broken copies: each exact verdict of mukai_Q must fail on its own. The
# copies replace the model (and the structure's link to it), so the shared
# module-level models stay intact.

def _with_model(s, **attrs):
    twisted_cohomology(s.model)     # kept on the model, so the copy shares it
    m = copy.copy(s.model)
    vars(m).update(attrs)
    broken = copy.copy(s)
    broken.model = m
    return broken

def _with_even_reps(s, extra):
    tw = copy.copy(twisted_cohomology(s.model))
    tw.even = copy.copy(tw.even)
    tw.even.reps = tw.even.reps + extra
    return _with_model(s, _twisted_cohomology=tw)

def test_mukai_q_descends_fails_on_a_non_closed_representative():
    s = kt_symplectic_twisted()
    e34 = {0b1100: ONE}     # d_H e34 = -e123, so (e4, d_H e34) != 0
    assert KT_TW.d_H(Form(4, e34)) == -Form.blade(4, [1, 2, 3])
    assert not mukai_Q(_with_even_reps(s, [e34])).descends

def test_mukai_q_sign_fails_on_a_flipped_dH_entry():
    s = kt_symplectic_twisted()
    top = (1 << s.model.dim) - 1
    dH = {b: dict(col) for b, col in s.model.dH_table.items()}
    # an entry whose flip is not undone by its mirror (e_b, d_H e_{top^k})
    b, k = next((b, k) for b, col in dH.items() for k in col if top ^ k != b)
    dH[b][k] = -dH[b][k]
    rep = mukai_Q(_with_model(s, dH_table=dH))
    assert rep.measured_dh_sign is None
    assert "measured sign" not in "\n".join(rep.lines())

def test_mukai_q_nondegenerate_fails_on_a_duplicated_representative():
    s = kt_symplectic_twisted()
    rep0 = twisted_cohomology(s.model).even.reps[0]
    rep = mukai_Q(_with_even_reps(s, [dict(rep0)]))
    assert rep.descends and not rep.nondegenerate


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


# -- the Froelicher pages against the intersection formula ------------------------

def reference_frolicher_pages(s):
    """E_r^k = Z / (Z cap denom), the pages as computed before the
    intersection was dropped, asserting that denom lies in Z."""
    n = s.n
    dH = s.model.dH_table

    def flevel(j, m):
        return chain_subspace(s, m - 2 * j)

    def zspace(r, j, m):
        return _preimage_in(flevel(j, m), dH, flevel(j + r, m + 1))

    pages = {}
    for r in range(1, n + 2):
        page = {}
        for k in range(-n, n + 1):
            m = k & 1
            j = (m - k) // 2
            Z = zspace(r, j, m)
            denom = zspace(r - 1, j + 1, m).sum(
                _image_of(zspace(r - 1, j - r + 1, m - 1), dH))
            assert Z.contains_subspace(denom), (r, k)
            page[k] = Z.dim - Z.intersect(denom).dim
        pages[r] = page
    return pages


# the base models of the benchmark's dense6 workload
DENSE6_BASES = ("kt-twisted", "torus6-complex", "torus6-symplectic")


def test_frolicher_pages_match_intersection_formula():
    structures = [*corpus_structures(),
                  *(st for name, text in SCALE8.items()
                    for st in structures_of(text, name)),
                  *(st for name in DENSE6_BASES
                    for st in structures_of(dense_model_text(name, 1),
                                            f"dense-{name}"))]
    for name, s in structures:
        rep = frolicher_pages(s)
        assert rep.pages == reference_frolicher_pages(s), name
        # the sequence starts at H_delbar and converges to H_{d_H}
        assert rep.pages[1] == delbar_dims(s), name
        assert (sum(rep.pages[s.n + 1].values())
                == twisted_cohomology(s.model).total_dim), name
    names = [name for name, _ in structures]
    assert len(names) == 22
    assert {"torus8:main", "kt8:main", "dense-kt-twisted:main",
            "dense-torus6-complex:main",
            "dense-torus6-symplectic:main"} <= set(names)


# the Iwasawa manifold: nilpotent complex, and its Froelicher spectral
# sequence does not degenerate at E_1 (no corpus structure has a nonzero d_r)
IWASAWA = ("dim = 6\nd e5 = -1 e1^e3 + 1 e2^e4\nd e6 = -1 e1^e4 + -1 e2^e3\n"
           "H = 0\n\n[complex main]\n"
           "I = 0, 1, 0, 0, 0, 0; -1, 0, 0, 0, 0, 0; 0, 0, 0, 1, 0, 0; "
           "0, 0, -1, 0, 0, 0; 0, 0, 0, 0, 0, 1; 0, 0, 0, 0, -1, 0\n")


def test_frolicher_iwasawa_does_not_degenerate():
    s = build_main(IWASAWA, "iwasawa")
    rep = frolicher_pages(s)
    e1 = {-3: 1, -2: 5, -1: 11, 0: 14, 1: 11, 2: 5, 3: 1}
    e2 = {-3: 1, -2: 4, -1: 8, 0: 10, 1: 8, 2: 4, 3: 1}
    assert rep.pages == {1: e1, 2: e2, 3: e2, 4: e2}
    assert rep.pages == reference_frolicher_pages(s)
    assert not rep.degenerates
    assert "degenerates at E_1: NO" in rep.lines()[-1]
    assert rep.delbar_total == 48 and rep.twisted_total == 36


def test_frolicher_pages_use_no_subspace_pipeline(monkeypatch):
    # the twisted and delbar totals of the report are kept from their own
    # engines; the pages themselves come from one plain reduction
    s = build_main(IWASAWA, "iwasawa")
    twisted_cohomology(s.model)
    delbar_dims(s)
    built = []

    def counted(name, orig):
        def wrapped(*args, **kwargs):
            built.append(name)
            return orig(*args, **kwargs)
        return wrapped

    monkeypatch.setattr(Echelon, "insert", counted("insert", Echelon.insert))
    monkeypatch.setattr(Subspace, "__init__",
                        counted("Subspace", Subspace.__init__))
    assert not frolicher_pages(s).degenerates
    assert built == []


# -- non-integrable structures ----------------------------------------------------

@pytest.mark.parametrize("engine", [frolicher_pages, delbar_cohomology,
                                    ddbar_check])
def test_bigraded_engines_reject_a_non_integrable_structure(engine):
    broken = broken_kt()
    assert sorted(broken.dH_parts) == [-3, -1, 1, 3]
    with pytest.raises(NotIntegrable, match=r"-3, \+3") as err:
        engine(broken)
    assert err.value.details == {"shifts": [-3, 3]}
