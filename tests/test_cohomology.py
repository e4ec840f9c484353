"""Twisted/delbar cohomology, Froelicher pages, ddbar, filtrations, Lefschetz, MHS."""

import copy
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gchodge.cohomology import (DdbarReport, TwistedCohomology, _hodge_flags,
                                _image_of, _preimage_in, _rank_of_sum,
                                closed_classes, closed_in_chain, ddbar_check,
                                delbar_cohomology, delbar_dims,
                                filtration_subspace, frolicher_pages,
                                graded_coords, hodge_filtration,
                                invariant_derham, lefschetz_check, mukai_Q,
                                twisted_cohomology, weight_mhs_check)
from gchodge.errors import EngineError, NotIntegrable, WrongType
from gchodge.forms import Form, mukai_pairing, popcount, spin_apply
from gchodge.gcs import make_complex, make_general, make_symplectic
from gchodge.liemodel import LieModel, once
from gchodge.linalg import (Echelon, Subspace, kernel_lift, vec_axpy, vec_conj,
                            vec_scale)
from gchodge.modelfile import parse_model
from gchodge.scalars import I, ONE, QI

from reference_linalg import QuotientSpace
from test_linalg import KERNEL_EXAMPLES, contains_subspace, items, nonzero_qis
from test_gcs import (ABELIAN4, ABELIAN6, CORPUS, KT, KT_TW, SCALE8,
                      broken_kt, build_main, complex_torus4, corpus_structures,
                      dense_model_text, kt_symplectic_twisted, one_block_J,
                      std_I, structures_of, symplectic_torus4, torus_omega)


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
    assert [invariant_derham(KT).dim(k) for k in range(5)] == [1, 3, 4, 3, 1]
    assert [invariant_derham(ABELIAN4).dim(k) for k in range(5)] == [1, 4, 6, 4, 1]


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

def reference_ddbar_check(s):
    """The del-delbar verdict as the engine formed A = Im del cap Ker delbar
    and B = Im delbar cap Ker del before it took them as the kernels of
    delbar on Im del and of del on Im delbar: the full-space kernels of del
    and delbar, intersected with the images in the ambient space."""
    full = Subspace.full(1 << s.model.dim)
    del_, delbar = s.dH_parts[-1], s.dH_parts[1]
    im_del = _image_of(full, del_)
    im_dbar = _image_of(full, delbar)
    im_dd = _image_of(im_dbar, del_)
    A = im_del.intersect(_preimage_in(full, delbar))
    B = im_dbar.intersect(_preimage_in(full, del_))
    holds = A == B == im_dd
    witness = next((Form(s.model.dim, v) for big in (A, B)
                    for v in big.basis() if not im_dd.contains(v)), None)
    return DdbarReport(holds, A.dim, B.dim, im_dd.dim, witness)


def assert_ddbar_matches_reference(s, name):
    assert ddbar_check(s) == reference_ddbar_check(s), name


def test_ddbar_matches_the_full_space_kernels():
    """The verdict, the three dims and the witness, on every reference
    structure (corpus, dim 8, the dense dim-6 models of seed 1, Iwasawa) and
    on the dense models of seed 2."""
    structures = [*all_reference_structures(),
                  *(st for name in DENSE6_BASES
                    for st in structures_of(dense_model_text(name, 2),
                                            f"dense2-{name}"))]
    for name, s in structures:
        assert_ddbar_matches_reference(s, name)
    assert {ddbar_check(s).holds for _name, s in structures} == {True, False}


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

def reference_closed_orthogonal(s):
    """The grading blocks pair only across opposite degrees: one
    mukai_pairing per pair of closed forms of U_j and U_k with j + k != 0,
    each U_k's closed forms a kernel of d_H on U_k."""
    m = s.model
    blocks = {k: [Form(m.dim, dict(v)) for v in
                  _preimage_in(s.U_subspace(k), m.dH_table).basis()]
              for k in range(-s.n, s.n + 1)}
    return all(not mukai_pairing(a, b)
               for j in blocks for k in blocks if j + k
               for a in blocks[j] for b in blocks[k])


def reference_flag_orthogonal(s):
    """Q(F^p, F^{-p-2}) = 0 for p = -n..n: one mukai_pairing per pair of
    flag vectors, each lifted to a form through the representatives of its
    parity."""
    m = s.model
    tw = twisted_cohomology(m)
    lifted = {}
    for p in range(-s.n - 2, s.n + 1):
        reps = tw.reps((p + s.n + s.parity) % 2)
        lifted[p] = []
        for v in filtration_subspace(s, p).basis():
            form = {}
            for i, x in v.items():
                form = vec_axpy(form, x, reps[i])
            lifted[p].append(Form(m.dim, form))
    return all(not mukai_pairing(a, b) for p in range(-s.n, s.n + 1)
               for a in lifted[p] for b in lifted[-p - 2])


def _pairwise_mukai(s):
    """Q and both block-orthogonality references from one mukai_pairing per
    pair of forms: the reference for mukai_Q's index-driven products."""
    m = s.model
    tw = twisted_cohomology(m)
    reps = [Form(m.dim, dict(r)) for r in tw.reps(0) + tw.reps(1)]
    Q = [[mukai_pairing(a, b) for b in reps] for a in reps]
    return Q, reference_closed_orthogonal(s), reference_flag_orthogonal(s)


def _dense(rows):
    return [[row.get(j, QI(0)) for j in range(len(rows))] for row in rows]


def mukai_reference_structures():
    return [*corpus_structures(),
            *(st for name in DENSE6_BASES
              for st in structures_of(dense_model_text(name, 1),
                                      f"dense-{name}")),
            ("iwasawa:main", build_main(IWASAWA, "iwasawa"))]


def test_mukai_q_matches_pairwise_reference():
    structures = mukai_reference_structures()
    for name, s in structures:
        rep = mukai_Q(s)
        orth = rep.block_orthogonal
        assert (_dense(rep.rows), orth, orth) == _pairwise_mukai(s), name
    assert len(structures) >= 20


def test_mukai_q_block_test_fails_on_a_flag_that_is_too_large():
    """F^{-1} replaced by every class of its parity, on which Q is
    nondegenerate, so Q(F^{-1}, F^{-1}) != 0: the verdict reads NO, as the
    reference on the same flags does."""
    s = symplectic_torus4()
    flags = dict(once(s, _hodge_flags))
    parity = (-1 + s.n + s.parity) % 2
    flags[-1] = Subspace.full(twisted_cohomology(s.model).dim(parity))
    s._kept[_hodge_flags] = flags
    rep = mukai_Q(s)
    assert rep.block_orthogonal is False
    assert "Q pairs H^j with H^-j only: NO" in rep.lines()
    assert reference_flag_orthogonal(s) is False
    assert rep.descends and rep.nondegenerate


# a quarter of the kernel budget: each example pairs up to 64 dense forms
# two by two for each reference
@settings(max_examples=KERNEL_EXAMPLES // 4, deadline=None, derandomize=True,
          database=None)
@given(one_block_J())
def test_mukai_q_block_test_matches_both_references_on_random_J(dim_J):
    dim, J = dim_J
    s = make_general(LieModel(dim, []), J)
    assert mukai_Q(s).block_orthogonal == reference_closed_orthogonal(s) \
        == reference_flag_orthogonal(s)


def test_mukai_q_takes_no_kernel_after_the_hodge_filtration(monkeypatch):
    """The block test reads the flags and Q's rows that hodge has built, so
    mukai_Q takes no kernel over the spinor space."""
    import gchodge.cohomology as cohomology
    import gchodge.gcs as gcs
    import gchodge.linalg as linalg
    s = kt_symplectic_twisted()
    hodge_filtration(s)
    called = []

    def counted(name, orig):
        def wrapped(*args, **kwargs):
            called.append(name)
            return orig(*args, **kwargs)
        return wrapped

    monkeypatch.setattr(cohomology, "_preimage_in",
                        counted("_preimage_in", cohomology._preimage_in))
    for module in (linalg, gcs):
        monkeypatch.setattr(module, "matrix_kernel",
                            counted("matrix_kernel", linalg.matrix_kernel))
    assert mukai_Q(s).block_orthogonal
    assert called == []


def test_mukai_q_sign_dim6():
    s = make_symplectic(ABELIAN6, torus_omega(6))
    rep = mukai_Q(s)
    assert rep.measured_dh_sign == 1  # paper's n there is dim M = 6, even


# broken copies: each exact verdict of mukai_Q must fail on its own. The
# copies replace the model (and the structure's link to it), so the shared
# module-level models stay intact.

def _with_model(s, **attrs):
    """A copy of the model with attrs replaced; it starts from the results
    kept on the model, twisted cohomology included, in a dict of its own."""
    twisted_cohomology(s.model)
    m = copy.copy(s.model)
    vars(m).update({"_kept": dict(vars(s.model)["_kept"]), **attrs})
    broken = copy.copy(s)
    broken.model = m
    return broken

def _with_even_reps(s, extra):
    """A copy whose twisted cohomology lists the forms of `extra` after its
    even representatives."""
    tw = twisted_cohomology(s.model)
    broken = copy.copy(tw)
    broken.reps = lambda g: tw.reps(g) + (extra if g == 0 else [])
    return _with_model(s, _kept={TwistedCohomology: broken})

def test_mukai_q_descends_fails_on_a_non_closed_representative():
    s = kt_symplectic_twisted()
    e34 = {0b1100: ONE}     # d_H e34 = -e123, so (e4, d_H e34) != 0
    assert KT_TW.d_H(Form(4, e34)) == -Form.blade(4, [1, 2, 3])
    assert not mukai_Q(_with_even_reps(s, [e34])).descends

def test_mukai_q_sign_fails_on_a_flipped_dH_entry():
    s = kt_symplectic_twisted()
    # the Hodge flags come first, as in `hodge`: the flipped d_H is not
    # integrable, and the copy reads the flags kept on s
    once(s, _hodge_flags)
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
    rep0 = twisted_cohomology(s.model).reps(0)[0]
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

def reference_preimage_in(V, op, W):
    """{v in V : op(v) in W} by exact kernel arithmetic: the preimage with
    a target subspace, which only the page reference needs."""
    basis = V.basis()
    ech = W.echelon()
    residuals = [ech.reduce(spin_apply(op, v))[0] for v in basis]
    return Subspace.span(V.ambient, kernel_lift(residuals, basis))


def reference_frolicher_pages(s):
    """E_r^k = Z / (Z cap denom), the pages as computed before the
    intersection was dropped, asserting that denom lies in Z."""
    n = s.n
    dH = s.model.dH_table

    def flevel(j, m):
        return reference_chain_subspace(s, m - 2 * j)

    def zspace(r, j, m):
        return reference_preimage_in(flevel(j, m), dH, flevel(j + r, m + 1))

    pages = {}
    for r in range(1, n + 2):
        page = {}
        for k in range(-n, n + 1):
            m = k & 1
            j = (m - k) // 2
            Z = zspace(r, j, m)
            denom = span_of(zspace(r - 1, j + 1, m),
                            _image_of(zspace(r - 1, j - r + 1, m - 1), dH))
            assert contains_subspace(Z, denom), (r, k)
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


# the Iwasawa manifold of tests/models: nilpotent complex, and its Froelicher
# spectral sequence does not degenerate at E_1 (no corpus structure has a
# nonzero d_r)
IWASAWA = (Path(__file__).resolve().parent / "models"
           / "iwasawa.gcm").read_text()


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


# -- the Hodge and weight filtrations against the subspace pipelines ----------

def span_of(*spaces):
    """The sum of subspaces of one ambient space."""
    return Subspace.span(spaces[0].ambient,
                         [v for sub in spaces for v in sub.basis()])


def reference_chain_subspace(s, p):
    """The U_{<=p} chain of matching parity, the sum of its U_j."""
    return span_of(Subspace.zero(1 << s.model.dim), *(
        s.U_subspace(j) for j in range(-s.n + ((p + s.n) % 2), p + 1, 2)))


def reference_conj_coords(tw, coords, parity=None):
    """Coordinates of the conjugate class, through a representative form."""
    reps = tw.reps(0) + tw.reps(1) if parity is None else tw.reps(parity)
    out = {}
    for idx, c in coords.items():
        out = vec_axpy(out, c, reps[idx])
    return tw.coords(Form(tw.model.dim, out).conj().coeffs, parity)


def reference_filtration_subspace(s, p):
    """F^p H as the classes of the closed forms in the chain."""
    return closed_classes_block(s.model, reference_chain_subspace(s, p),
                                (p + s.n + s.parity) % 2)


def reference_hodge_filtration(s):
    """(filtration, hodge_ok, hodge_by_p, graded_match) by intersections."""
    n = s.n
    tw = twisted_cohomology(s.model)
    dd = ddbar_check(s)
    db = delbar_dims(s)
    filt = {p: reference_filtration_subspace(s, p) for p in range(-n, n + 1)}
    hodge_by_p = {}
    for p in range(-n, n + 1):
        parity = (p + n + s.parity) % 2
        h_dim = tw.dim_even if parity == 0 else tw.dim_odd
        fp = filt[p]
        q = -p - 2
        fq = filt[q] if q in filt else Subspace.zero(h_dim)
        fq_conj = Subspace.span(h_dim, [
            reference_conj_coords(tw, v, parity) for v in fq.basis()])
        hodge_by_p[p] = (fp.dim + fq_conj.dim == h_dim
                         and fp.intersect(fq_conj).dim == 0)
    nesting = all(contains_subspace(filt[p], filt[p - 2])
                  for p in range(-n + 2, n + 1))
    top_even = filt[n].dim == (tw.dim_even if (2 * n + s.parity) % 2 == 0
                               else tw.dim_odd)
    top_odd = filt[n - 1].dim == (tw.dim_even if (2 * n - 1 + s.parity) % 2 == 0
                                  else tw.dim_odd)
    hodge_ok = all(hodge_by_p.values()) and nesting and top_even and top_odd
    graded = None
    if dd.holds:
        graded = {}
        for p in range(-n, n + 1):
            lower = filt[p - 2].dim if p - 2 >= -n else 0
            graded[p] = (filt[p].dim - lower) == db.get(p, 0)
    return filt, hodge_ok, hodge_by_p, graded


def reference_weight_mhs_check(s):
    """(gr_dims, split_ok, split_by_ij, graded_hodge_dims), or the skip
    reason, by one intersection and one quotient per (i, j)."""
    if not ddbar_check(s).holds:
        return "del-delbar lemma fails at this structure"
    m = s.model
    n = s.n
    N = 1 << m.dim
    tw = twisted_cohomology(m)
    H_dim = tw.total_dim
    W = {}
    for j in range(0, 2 * n + 2):
        span = Subspace.span(N, [{b: ONE} for b in range(N) if popcount(b) >= j])
        W[j] = closed_classes(s, span)

    def embed(parity, sub):
        if parity == 0:
            return Subspace.span(H_dim, sub.basis())
        return Subspace.span(H_dim, [
            {kk + tw.dim_even: c for kk, c in v.items()} for v in sub.basis()])

    filt = {p: embed((p + n + s.parity) % 2, reference_filtration_subspace(s, p))
            for p in range(-n, n + 1)}

    def filt_ext(k):
        if k < -n:
            return Subspace.zero(H_dim)
        if k > n:
            return filt[n] if (k - n) % 2 == 0 else filt[n - 1]
        return filt[k]

    Ft = {k: span_of(filt_ext(k), filt_ext(k - 1))
          for k in range(-n - 1, n + 3)}

    def conj_total(sub):
        return Subspace.span(H_dim, [reference_conj_coords(tw, v)
                                     for v in sub.basis()])

    gr_dims, split_by, graded_hodge = {}, {}, {}
    ok = True
    for j in range(0, 2 * n + 1):
        grq = QuotientSpace(H_dim, W[j].basis(), W[j + 1].basis())
        gr_dims[j] = grq.dim
        if grq.dim == 0:
            continue
        dims_along_i = []
        for i in range(-n - 1, n + 2):
            if (i - j) % 2:
                continue
            part = Ft.get(i, Subspace.zero(H_dim)).intersect(W[j])
            img = Subspace.span(grq.dim,
                                [grq.coords(v) or {} for v in part.basis()])
            conj_part = conj_total(Ft.get(-i - 2, Subspace.zero(H_dim))
                                   .intersect(W[j]))
            conj_img = Subspace.span(grq.dim, [grq.coords(v) or {}
                                               for v in conj_part.basis()])
            good = (img.dim + conj_img.dim == grq.dim
                    and img.intersect(conj_img).dim == 0)
            split_by[(i, j)] = good
            ok = ok and good
            dims_along_i.append(img.dim)
        graded_hodge[j] = dims_along_i
    return gr_dims, ok, split_by, graded_hodge


def assert_filtrations_match_reference(s, name, mhs=True):
    rep = hodge_filtration(s)
    filt, hodge_ok, hodge_by_p, graded = reference_hodge_filtration(s)
    for p in range(-s.n - 2, s.n + 3):
        want = filt.get(p) if p in filt else reference_filtration_subspace(s, p)
        assert filtration_subspace(s, p) == want, (name, p)
    assert rep.filtration == filt, name
    assert rep.filtration_dims == {p: f.dim for p, f in filt.items()}, name
    assert (rep.hodge_ok, rep.hodge_by_p, rep.graded_match) \
        == (hodge_ok, hodge_by_p, graded), name
    if mhs and s.kind == "complex":
        rep = weight_mhs_check(s)
        got = (rep.skipped if rep.skipped else
               (rep.gr_dims, rep.split_ok, rep.split_by_ij,
                rep.graded_hodge_dims))
        assert got == reference_weight_mhs_check(s), name


def all_reference_structures():
    return [*corpus_structures(),
            *(st for name, text in SCALE8.items()
              for st in structures_of(text, name)),
            *(st for name in DENSE6_BASES
              for st in structures_of(dense_model_text(name, 1),
                                      f"dense-{name}")),
            ("iwasawa:main", build_main(IWASAWA, "iwasawa"))]


def test_filtrations_match_the_subspace_pipelines():
    structures = all_reference_structures()
    for name, s in structures:
        assert_filtrations_match_reference(s, name)
    kinds = [s.kind for _name, s in structures]
    assert len(structures) == 23 and kinds.count("complex") >= 6
    # the comparison meets both verdicts of the Hodge condition and of the
    # del-delbar lemma (which decides whether the weight split is checked)
    hodge = [hodge_filtration(s) for _name, s in structures]
    assert {r.hodge_ok for r in hodge} == {True, False}
    assert {r.ddbar_holds for r in hodge} == {True, False}


def assert_closed_in_chain_matches_reference(s, name):
    """The closed forms of every chain, from the cycles of the d_H
    reduction, against the kernel of d_H on the chain's subspace."""
    for p in range(-s.n - 2, s.n + 3):
        want = _preimage_in(reference_chain_subspace(s, p), s.model.dH_table)
        assert closed_in_chain(s, p) == want, (name, p)


def test_closed_in_chain_matches_the_kernel_on_the_chain():
    for name, s in all_reference_structures():
        assert_closed_in_chain_matches_reference(s, name)


# -- the graded pieces Gr_F^p = F^p / F^{p-2} ---------------------------------------

def assert_graded_coords_match_the_quotient(s, probes, name):
    """graded_coords at p = -n-2..n+2 against the quotient of the two flags
    (as transversality read Gr_F^p before), key order included, on the
    probes of p's parity, on every basis vector of F^{p-2}, F^p and F^{p+2},
    and on the sums of consecutive ones; returns how often the result was
    None (v leaves F^p), the zero class and a nonzero class."""
    seen = {"none": 0, "zero": 0, "class": 0}
    for p in range(-s.n - 2, s.n + 3):
        Fp, Fpm2 = filtration_subspace(s, p), filtration_subspace(s, p - 2)
        q = QuotientSpace(Fp.ambient, Fp.basis(), Fpm2.basis())
        vecs = [*probes[(p + s.n + s.parity) % 2],
                *(b for j in (p - 2, p, p + 2)
                  for b in filtration_subspace(s, j).basis())]
        vecs += [vec_axpy(a, ONE, b) for a, b in zip(vecs, vecs[1:])]
        for v in vecs:
            got = graded_coords(s, p, v)
            assert items(got) == items(q.coords(v)), (name, p, v)
            seen["none" if got is None else "class" if got else "zero"] += 1
    return seen


@st.composite
def nested_flags(draw):
    """(s, probes): a stand-in structure whose Hodge flags are random, and
    probes of either parity.  Each parity class of p in -n..n holds a chain
    of canonical subspaces of Q(i)^ambient, each F^p spanned by F^{p-2} and
    up to two vectors: sparse ones with multi-digit entries, or multiples of
    a vector of F^{p-2}.  The probes are sparse vectors and combinations of
    two vectors of one flag."""
    n = draw(st.integers(1, 3))
    ambient = draw(st.integers(1, 7))

    def sparse():
        keys = draw(st.lists(st.integers(0, ambient - 1), unique=True,
                             min_size=1, max_size=3))
        return {k: draw(nonzero_qis) for k in keys}

    flags = {}
    for p in range(-n, n + 1):
        below = flags[p - 2].basis() if p - 2 >= -n else []
        new = []
        for _ in range(draw(st.integers(0, 2))):
            if below and draw(st.booleans()):
                new.append(vec_scale(draw(st.sampled_from(below)),
                                     draw(nonzero_qis)))
            else:
                new.append(sparse())
        flags[p] = Subspace.span(ambient, below + new)
    probes = {0: [], 1: []}
    for p, F in flags.items():
        basis = F.basis()
        if basis:
            probes[(p + n) % 2].append(vec_axpy(
                draw(st.sampled_from(basis)), draw(nonzero_qis),
                draw(st.sampled_from(basis))))
    for parity in (0, 1):
        probes[parity] += [sparse() for _ in range(draw(st.integers(0, 2)))]
    # what filtration_subspace reads: the flags kept by `once`, and the
    # dimension of H for the zero flags below -n
    tw = SimpleNamespace(dim=lambda parity: ambient)
    s = SimpleNamespace(n=n, parity=0, _kept={_hodge_flags: flags},
                        model=SimpleNamespace(_kept={TwistedCohomology: tw}))
    return s, probes


@settings(max_examples=KERNEL_EXAMPLES, deadline=None, derandomize=True,
          database=None)
@given(case=nested_flags())
def test_graded_coords_match_the_quotient_on_random_flags(case):
    s, probes = case
    assert_graded_coords_match_the_quotient(s, probes, "random")


def test_graded_coords_match_the_quotient_on_corpus_and_scale8_flags():
    structures = [*corpus_structures(),
                  *(entry for name, text in SCALE8.items()
                    for entry in structures_of(text, name))]
    seen = {"none": 0, "zero": 0, "class": 0}
    for name, s in structures:
        tw = twisted_cohomology(s.model)
        # unit vectors, most of which leave the deeper flags
        probes = {q: [{k: QI(2, -1)} for k in range(0, tw.dim(q), 3)]
                  for q in (0, 1)}
        for key, count in assert_graded_coords_match_the_quotient(
                s, probes, name).items():
            seen[key] += count
    assert len(structures) == 19 and all(seen.values()), seen


def test_conjugation_acts_on_class_coordinates_entrywise():
    # the representatives are real forms, which the Hodge condition and the
    # weight split rely on to conjugate classes coordinate by coordinate
    for name, s in corpus_structures():
        tw = twisted_cohomology(s.model)
        for parity in (0, 1):
            assert all(not x.im for rep in tw.reps(parity)
                       for x in rep.values()), name
            for idx in range(tw.dim(parity)):
                v = {idx: QI(2, 3)}
                assert reference_conj_coords(tw, v, parity) == vec_conj(v)


def test_weight_basis_is_adapted_to_the_weight_filtration():
    """The classes of degree >= j span W^j, the classes of the closed forms
    of degree >= j, and each representative has its own unit coordinate."""
    for path in sorted(CORPUS.glob("*.gcm")):
        try:
            m = parse_model(path.read_text()).model(path.stem)
            tw = twisted_cohomology(m)
        except EngineError:
            continue
        N = 1 << m.dim
        degrees = [popcount(tw.order[e]) for q in (0, 1)
                   for e in tw.classes[q]]
        assert len(degrees) == tw.total_dim, path.stem
        for q in (0, 1):
            block = [popcount(tw.order[e]) for e in tw.classes[q]]
            assert block == sorted(block), (path.stem, q)
            assert all(d % 2 == q for d in block), (path.stem, q)
        for j in range(m.dim + 2):
            span = Subspace.span(N, [{b: ONE} for b in range(N)
                                     if popcount(b) >= j])
            W = closed_classes_total(m, span)
            assert W == Subspace.span(tw.total_dim, [
                {i: ONE} for i, d in enumerate(degrees) if d >= j]), \
                (path.stem, j)
        reps = tw.reps(0) + tw.reps(1)
        assert [tw.coords(r) for r in reps] == [
            {i: ONE} for i in range(tw.total_dim)], path.stem


def closed_classes_total(m, V):
    tw = twisted_cohomology(m)
    closed = _preimage_in(V, m.dH_table).basis()
    return Subspace.span(tw.total_dim, [tw.coords(v) or {} for v in closed])


def closed_classes_block(m, V, parity):
    """The classes of the closed forms in V, in the coordinates of the H
    block of the given parity."""
    tw = twisted_cohomology(m)
    closed = _preimage_in(V, m.dH_table).basis()
    return Subspace.span(tw.dim(parity),
                         [tw.coords(v, parity) or {} for v in closed])


def test_filtrations_use_no_subspace_pipeline(monkeypatch):
    # the cross-check pipelines (twisted and delbar cohomology, del-delbar)
    # are built first; the filtrations themselves come from the reductions
    import gchodge.cohomology as cohomology
    s = complex_torus4()
    twisted_cohomology(s.model)
    delbar_dims(s)
    ddbar_check_kept = once(s, ddbar_check)
    assert ddbar_check_kept.holds
    called = []

    def counted(name, orig):
        def wrapped(*args, **kwargs):
            called.append(name)
            return orig(*args, **kwargs)
        return wrapped

    for name in ("closed_classes", "_preimage_in"):
        monkeypatch.setattr(cohomology, name,
                            counted(name, getattr(cohomology, name)))
    monkeypatch.setattr(Subspace, "intersect",
                        counted("intersect", Subspace.intersect))
    assert hodge_filtration(s).hodge_ok
    assert weight_mhs_check(s).split_ok
    assert called == []


@pytest.mark.parametrize("build", [complex_torus4, lambda: build_main(
    (CORPUS / "torus6-complex.gcm").read_text(), "torus6-complex")],
    ids=["torus4-complex", "torus6-complex"])
def test_hodge_condition_ranks_once_per_conjugate_pair(build, monkeypatch):
    # F^p + conj F^{-p-2} is the conjugate of F^{-p-2} + conj F^p, so the
    # two share one rank, in H and in every Gr_j of the weight filtration
    import gchodge.cohomology as cohomology
    s = build()
    n = s.n
    calls = []

    def counted(*args):
        calls.append(args)
        return _rank_of_sum(*args)

    monkeypatch.setattr(cohomology, "_rank_of_sum", counted)
    rep = hodge_filtration(s)
    assert rep.hodge_ok
    assert len(calls) <= len({frozenset((p, -p - 2))
                              for p in range(-n, n + 1)})
    calls.clear()
    mhs = weight_mhs_check(s)
    assert mhs.split_ok
    assert len(calls) <= len({(frozenset((i, -i - 2)), j)
                              for i, j in mhs.split_by_ij})


def test_delbar_dims_are_symmetric_in_k():
    """h^k_delbar = h^{-k}_delbar: the Mukai pairing pairs U_k with U_{-k}
    and delbar is skew for it, so it pairs H^k_delbar with H^{-k}_delbar.
    The duality does not need the del-delbar lemma, which fails on the three
    Kodaira-Thurston structures of the corpus and on kt8."""
    structures = [*corpus_structures(), *structures_of(SCALE8["kt8"], "kt8")]
    for name, s in structures:
        dims = delbar_dims(s)
        assert dims == {-k: d for k, d in dims.items()}, (name, dims)
    no_ddbar = [name for name, s in structures if not ddbar_check(s).holds]
    assert len(structures) == 18 and len(no_ddbar) == 4
    assert "kt8:main" in no_ddbar
