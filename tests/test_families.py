"""Families: validation, graphs, KS classes, Gauss-Manin, transversality."""

import copy
import hashlib
import io
import json
import random
from contextlib import redirect_stdout
from fractions import Fraction
from functools import cache
from itertools import chain
from pathlib import Path

import pytest

from gchodge.cohomology import (closed_in_chain, graded_coords,
                                twisted_cohomology)
from gchodge.errors import (EngineError, ExtensionFailed, GraphConditionFailed,
                            SectionNotClosed)
from gchodge.families import (FamilySpec, _extend_in_chain, _l_frame,
                              _moving_chain, family_validate, gcy_check,
                              gm_derivative, graph_epsilon, holomorphy_check,
                              ks_class, q_flatness, q_pairing_poly,
                              symp_filtration_check, transversality_check)
from gchodge.forms import Form, mukai_pairing, popcount
from gchodge.gcs import complex_J, make_complex, make_symplectic
from gchodge.linalg import (Subspace, Vec, reduce_columns, solve, vec_add,
                            vec_axpy, vec_conj, vec_scale)
from gchodge.modelfile import build_family, parse_model
from gchodge.poly import (ParamPoly, dH_poly, form_diff, form_eval,
                          form_shift, monomial_slices, pmat_eval, pmat_from_qi)
from gchodge.scalars import I, ONE, QI, ZERO

from test_cohomology import reference_chain_subspace
from test_courant import one_form_coords, tangent, x
from test_gcs import CORPUS, ABELIAN4, KT, KT_TW, std_I, torus_omega

MODELS = Path(__file__).resolve().parent / "models"


def poly_form(f, nvars):
    """f as a polynomial form with constant coefficients."""
    return Form(f.dim,
                {m: ParamPoly.const(nvars, c) for m, c in f.coeffs.items()})


def pmat_mul(A, B):
    """The product of two polynomial matrices."""
    nv = A[0][0].nvars
    return [[sum((A[i][t] * B[t][j] for t in range(len(B))), ParamPoly(nv))
             for j in range(len(B[0]))] for i in range(len(A))]


def extend_section(f, p, rep):
    """A closed basepoint representative in the U_{<=p} chain, extended to
    a closed polynomial section in the moving chain."""
    return _extend_in_chain(f, _moving_chain(f, p), rep)


def poly_two_form(model, nvars, *terms):
    """terms: (poly, form) pairs summed into a polynomial form."""
    out = Form(model.dim)
    for poly, form in terms:
        out = out + poly_form(form, nvars).scale(poly)
    return out


def scaling_family(samples=((QI(Fraction(1, 2)),), (QI(Fraction(-1, 3)),))):
    """sigma(t) = (1+t)(e12+e34) on the torus."""
    w = torus_omega(4)
    nv = 1
    one_plus_t = ParamPoly.const(nv, ONE) + ParamPoly.var(nv, 0)
    return FamilySpec(ABELIAN4, "symplectic", nv, samples=samples,
                      omega_t=poly_two_form(ABELIAN4, nv, (one_plus_t, w)),
                      name="torus-scaling")


def constant_symplectic_family():
    nv = 1
    return FamilySpec(ABELIAN4, "symplectic", nv,
                      samples=[(QI(Fraction(1, 2)),)],
                      omega_t=poly_form(torus_omega(4), nv),
                      name="torus-constant")


def shear_complex_family():
    """I(t) = (1+tN) I0 (1-tN) with a nilpotent shear N (x1 -> x3)."""
    nv = 1
    I0 = std_I(4)
    N = [[QI(0)] * 4 for _ in range(4)]
    N[2][0] = ONE  # x1 -> x3
    t = ParamPoly.var(nv, 0)
    P = [[ParamPoly.const(nv, ONE if i == j else QI(0)) +
          t.scale(N[i][j]) for j in range(4)] for i in range(4)]
    Pinv = [[ParamPoly.const(nv, ONE if i == j else QI(0)) +
             t.scale(-N[i][j]) for j in range(4)] for i in range(4)]
    It = pmat_mul(P, pmat_mul(pmat_from_qi(I0, nv), Pinv))
    return FamilySpec(ABELIAN4, "complex", nv,
                      samples=[(QI(Fraction(1, 3)),)], It=It,
                      name="torus-shear")


def test_family_validate_scaling():
    assert family_validate(scaling_family()).ok

def test_family_validate_degenerate_sample():
    f = scaling_family(samples=[(QI(-1),)])
    rep = family_validate(f)
    assert not rep.ok
    assert rep.failures[0][1].startswith("degenerate-omega")

def test_family_validate_bad_complex():
    # I(t) = I0 + t with t=1 breaking I^2 = -1
    nv = 1
    t = ParamPoly.var(nv, 0)
    It = [[ParamPoly.const(nv, x) for x in row] for row in std_I(4)]
    It[0][0] = It[0][0] + t
    f = FamilySpec(ABELIAN4, "complex", nv, samples=[(ONE,)], It=It)
    rep = family_validate(f)
    assert not rep.ok and rep.failures[0][1].startswith("not-almost-complex")


def test_graph_epsilon_basepoint_zero():
    f = scaling_family()
    rep = graph_epsilon(f, f.basepoint)
    assert not rep.cochain
    assert rep.roundtrip_ok

def test_graph_epsilon_roundtrip_at_samples():
    f = scaling_family()
    for pt in f.samples:
        rep = graph_epsilon(f, pt)
        assert rep.roundtrip_ok
        assert rep.cochain  # genuinely deformed

def test_graph_condition_failure():
    # J(t) = (1-2t) J0 is a valid structure at t=1 where L_t = conj(L_0)
    base = make_symplectic(ABELIAN4, torus_omega(4))
    nv = 1
    t = ParamPoly.var(nv, 0)
    fac = ParamPoly.const(nv, ONE) + t.scale(QI(-2))
    Jt = [[fac.scale(x) for x in row] for row in base.J]
    f = FamilySpec(ABELIAN4, "general", nv, samples=[(ONE,)], Jt=Jt)
    assert family_validate(f).ok
    with pytest.raises(GraphConditionFailed):
        graph_epsilon(f, (ONE,))


def test_ks_class_scaling_is_i_mu_over_2():
    # the paper-pinned value: under psi: H^2(L) = H^2(M, C), class = i mu / 2
    f = scaling_family()
    rep = ks_class(f, 0)
    assert rep.closed and not rep.class_is_zero
    assert rep.jjandks_ok
    base = f.base_structure()
    mu = torus_omega(4)
    sigma0 = mu  # basepoint sigma = omega
    half_i = I * QI(Fraction(1, 2))
    for a in range(1, 5):
        for b in range(a + 1, 5):
            psi_a = vec_add(x(4, a), vec_scale(
                one_form_coords(4, sigma0.contract_index(a)), -I))
            psi_b = vec_add(x(4, b), vec_scale(
                one_form_coords(4, sigma0.contract_index(b)), -I))
            val = base.L.cochain_eval(rep.cochain, [psi_a, psi_b])
            want = half_i * mu.coeffs.get((1 << (a - 1)) | (1 << (b - 1)), QI(0))
            assert val == want

def test_ks_class_constant_family_zero():
    rep = ks_class(constant_symplectic_family(), 0)
    assert rep.class_is_zero and rep.closed and rep.jjandks_ok

def test_ks_class_shear_matches_classical():
    f = shear_complex_family()
    rep = ks_class(f, 0)
    assert rep.closed and rep.jjandks_ok and not rep.class_is_zero
    base = f.base_structure()
    # classical Kodaira-Spencer block: frame P(t) = (1 + i I(t))/2 on T^{0,1}
    from gchodge.poly import pmat_eval
    I0 = std_I(4)
    Idot = pmat_eval([[p.diff(0) for p in row] for row in f.It], f.basepoint)
    # vector-type basis elements of L (pure tangent part)
    vec_idx = [a for a, l in enumerate(base.L.basis) if l and max(l) < 4]
    cov_idx = [a for a, l in enumerate(base.L.basis) if l and min(l) >= 4]
    assert len(vec_idx) == 2 and len(cov_idx) == 2
    # H^2(O)-block: cochain vanishes on pairs of vector-type arguments
    for i in vec_idx:
        for j in vec_idx:
            if i < j:
                assert ((1 << i) | (1 << j)) not in rep.cochain
    # classical graph derivative: mu = P10 . (i/2 Idot) restricted to T^{0,1};
    # the engine's eps on a vector-type l is  (d/dt)(1 + i I(t))/2 l = i/2 Idot l
    for a in vec_idx:
        l = base.L.basis[a]
        img = {}
        for be in range(4):
            img = vec_add(img, vec_scale(vec_conj(base.L.basis[be]),
                                         rep.eps_matrix[be][a]))
        want_vec = [QI(0, Fraction(1, 2)) * sum(
            (Idot[r][c] * l.get(c, ZERO) for c in range(4)), QI(0))
            for r in range(4)]
        assert tangent(4, img) == want_vec
        assert all(k < 4 for k in img)


def test_gm_derivative_constant_section():
    f = scaling_family()
    s = poly_form(Form.one(4) + torus_omega(4), 1)
    coords = gm_derivative(f, s, 0)
    assert not coords

def test_gm_derivative_exponential_section():
    f = scaling_family()
    nv = 1
    sigma_t = f.omega_t.scale(I)
    s = sigma_t.exp()
    coords = gm_derivative(f, s, 0)
    mu = torus_omega(4)
    want_form = mu.scale(I).wedge(mu.scale(I).exp())
    want = twisted_cohomology(f.model).coords(want_form.coeffs)
    assert coords == want and coords

def test_gm_rejects_nonclosed_section():
    f = FamilySpec(KT, "symplectic", 1,
                   omega_t=poly_form(
                       Form.blade(4, [1, 4]) + Form.blade(4, [2, 3]), 1))
    bad = poly_form(Form.blade(4, [4]), 1)
    with pytest.raises(SectionNotClosed) as err:
        gm_derivative(f, bad, 0)
    # d_H e^4 = e^12 on KT, printed as a form with a ParamPoly coefficient
    assert err.value.details["residual"] == "(1) e1^e2"


def test_q_flatness_rejects_nonclosed_section_with_its_residual():
    f = FamilySpec(KT, "symplectic", 1,
                   omega_t=poly_form(
                       Form.blade(4, [1, 4]) + Form.blade(4, [2, 3]), 1))
    good = poly_form(Form.one(4), 1)
    bad = poly_form(Form.blade(4, [4]), 1)
    for s1, s2 in ((bad, good), (good, bad)):
        with pytest.raises(SectionNotClosed) as err:
            q_flatness(f, s1, s2)
        assert err.value.details["residual"] == "(1) e1^e2"

def test_q_flatness_product_rule():
    # e^{i sigma(t)} is closed but not flat; the product rule still holds
    f = scaling_family()
    s1 = f.omega_t.scale(I).exp()
    s2 = s1.conj()
    rep = q_flatness(f, s1, s2)
    assert rep.ok and rep.product_rule_ok
    assert rep.flat == (False, False)
    assert rep.q.eval(f.basepoint) == QI(-4)

def test_q_constant_on_flat_sections():
    # flat sections with genuinely t-dependent representatives: s0 + t d_H(h)
    w = Form.blade(4, [1, 4]) + Form.blade(4, [2, 3])
    f = FamilySpec(KT, "symplectic", 1, samples=[],
                   omega_t=poly_form(w, 1))
    nv = 1
    t = ParamPoly.var(nv, 0)
    rho = w.scale(I).exp()
    pert = poly_form(KT.d_H(Form.blade(4, [4])), nv)
    assert not pert.is_zero()
    s1 = poly_form(rho, nv) + pert.scale(t)
    s2 = poly_form(rho.conj(), nv) + pert.scale(t.scale(QI(-2)))
    rep = q_flatness(f, s1, s2)
    assert rep.flat == (True, True)
    assert rep.ok
    assert rep.q.is_constant() and rep.q.eval((QI(0),)) == QI(-4)


def test_holomorphy_check():
    w = torus_omega(4)
    nv = 2
    t1 = ParamPoly.var(nv, 0)
    t2 = ParamPoly.var(nv, 1)
    holo = t1 + t2.scale(I)
    anti = t1 - t2.scale(I)
    base = ParamPoly.const(nv, ONE)
    f_holo = FamilySpec(ABELIAN4, "symplectic", nv,
                        omega_t=poly_two_form(ABELIAN4, nv, (base, w), (holo, w)))
    f_anti = FamilySpec(ABELIAN4, "symplectic", nv,
                        omega_t=poly_two_form(ABELIAN4, nv, (base, w), (anti, w)))
    f_const = FamilySpec(ABELIAN4, "symplectic", nv,
                         omega_t=poly_two_form(ABELIAN4, nv, (base, w)))
    assert holomorphy_check(f_holo).holomorphic
    assert not holomorphy_check(f_anti).holomorphic
    assert holomorphy_check(f_const).holomorphic  # vacuous


def test_symp_filtration_scaling():
    f = scaling_family(samples=[(QI(Fraction(1, 2)),)])
    for p in (-2, 0, 2):
        rep = symp_filtration_check(f, p)
        assert rep.ok, (p, rep.per_sample)

def test_symp_filtration_skipped_on_kt():
    f = FamilySpec(KT, "symplectic", 1, samples=[],
                   omega_t=poly_form(
                       Form.blade(4, [1, 4]) + Form.blade(4, [2, 3]), 1))
    assert symp_filtration_check(f, 0).skipped


def test_gcy_torus_symplectic():
    s = make_symplectic(ABELIAN4, torus_omega(4))
    rep = gcy_check(s)
    assert rep.spinor_closed and rep.chain_identity_ok
    assert rep.iso_dims == (6, 6) and rep.iso_ok and rep.period_injective

def test_gcy_complex_torus():
    s = make_complex(ABELIAN4, std_I(4))
    rep = gcy_check(s)
    assert rep.iso_ok and rep.period_injective and rep.chain_identity_ok

def test_gcy_twisted_kt():
    s = make_symplectic(KT_TW, Form.blade(4, [1, 4]) + Form.blade(4, [2, 3]),
                        -Form.blade(4, [3, 4]))
    rep = gcy_check(s)
    assert rep.spinor_closed
    assert rep.iso_dims == (4, 4) and rep.iso_ok


def test_extend_section_tracks_moving_filtration():
    f = scaling_family()
    base = f.base_structure()
    s_poly = extend_section(f, -2, base.spinor)
    # the extension of e^{i omega} along sigma(t) = (1+t) omega is e^{i sigma(t)}
    want = f.omega_t.scale(I).exp()
    half = (QI(Fraction(1, 2)),)
    assert form_eval(s_poly, half) == form_eval(want, half)

def test_extension_corrects_by_the_d_H_solve_on_a_non_closed_chain():
    # on kt (d e4 = e12) a chain with basis [e3, e4], moved by T sending
    # e3 -> e3 + t e4 and e4 -> e4 + t e3, is not closed: T e3 leaves
    # d_H = t e12, which the solve over the basis's d_H images cancels with
    # -t T e4
    f = FamilySpec(KT, "general", 1)
    t = ParamPoly.var(1, 0)
    e3, e4 = Form.blade(4, [3]), Form.blade(4, [4])
    partner = {e3.blades_sorted()[0]: e4, e4.blades_sorted()[0]: e3}

    def move(w):
        out = w
        for mask, c in w.coeffs.items():
            out = out + poly_form(partner[mask], 1).scale(c * t)
        return out

    def hand_chain(basis):
        return (move, [w.coeffs for w in basis], reduce_columns(
            KT.d_H(w).coeffs for w in basis)[0])

    s_poly = _extend_in_chain(f, hand_chain([e3, e4]), e3)
    assert s_poly == poly_form(e3, 1).scale(ParamPoly.const(1, ONE) - t * t)
    assert not dH_poly(KT, move(poly_form(e3, 1))).is_zero()
    assert dH_poly(KT, s_poly).is_zero()
    # without e4, d_H of T e3 leaves the image of the chain's d_H
    with pytest.raises(ExtensionFailed, match="leaves the image of d_H"):
        _extend_in_chain(f, hand_chain([e3]), e3)


def test_transversality_scaling_family():
    f = scaling_family(samples=[(QI(Fraction(1, 2)),)])
    for p in (-2, 0):
        rep = transversality_check(f, p, 0)
        assert rep.skipped is None
        assert all(rep.samples_good.values())
        assert rep.transversal and rep.nabla_window_ok
        assert rep.proportional
    rep = transversality_check(f, -2, 0)
    assert rep.constant is not None and rep.constant != QI(0)

def test_transversality_constant_family():
    f = constant_symplectic_family()
    rep = transversality_check(f, -2, 0)
    assert rep.transversal and rep.proportional
    assert all(not v for v in rep.induced)

def test_transversality_complex_shear():
    f = shear_complex_family()
    rep = transversality_check(f, 0, 0)
    assert rep.skipped is None and rep.transversal and rep.nabla_window_ok
    assert rep.proportional

def test_transversality_constant_is_global():
    # one measured constant across models and kinds
    f1 = scaling_family(samples=[])
    f2 = shear_complex_family()
    c1 = transversality_check(f1, -2, 0).constant
    c2 = transversality_check(f1, 0, 0).constant
    c3 = transversality_check(f2, 0, 0).constant
    consts = {str(c) for c in (c1, c2, c3) if c is not None}
    assert len(consts) == 1

def test_transversality_skipped_without_ddbar():
    f = FamilySpec(KT_TW, "symplectic", 1, samples=[],
                   omega_t=poly_form(
                       Form.blade(4, [1, 4]) + Form.blade(4, [2, 3]), 1),
                   B_t=poly_form(-Form.blade(4, [3, 4]), 1))
    rep = transversality_check(f, 0, 0)
    assert rep.skipped is not None


def test_gcy_reports_a_broken_chain_identity():
    s = make_complex(ABELIAN4, std_I(4))
    assert all("chain identity" not in line for line in gcy_check(s).lines())
    # a copy whose delbar is off by the identity breaks delbar(a rho) =
    # (d_L a) rho while every other line of the report still passes
    broken = copy.copy(s)
    broken.delbar = lambda w: s.delbar(w) + w
    rep = gcy_check(broken)
    assert not rep.chain_identity_ok
    assert rep.spinor_closed and rep.iso_ok and rep.period_injective
    assert rep.lines()[-1] == ("chain identity delbar(a rho) = (d_L a) rho "
                               "on every cochain: NO")

def test_gcy_checks_the_chain_identity_beyond_degree_1():
    s = make_complex(ABELIAN4, std_I(4))
    # a copy whose d_L adds e^123 on every degree-2 mask and is right on
    # every other degree; a check on degree-1 cochains alone passes it
    broken = copy.copy(s)
    broken.L = copy.copy(s.L)

    def differential(c):
        out = s.L.differential(c)
        if any(popcount(mask) == 2 for mask in c):
            out = vec_add(out, {0b0111: ONE})
        return out
    broken.L.differential = differential
    assert all(differential({1 << i: ONE}) == s.L.differential({1 << i: ONE})
               for i in range(s.L.rank))
    rep = gcy_check(broken)
    assert not rep.chain_identity_ok
    assert rep.lines()[-1].endswith("on every cochain: NO")


def file_families(path):
    """(name, family) for every [family] block of a model file that builds."""
    mf = parse_model(path.read_text())
    model = mf.model(name=path.stem)
    for b in mf.blocks:
        if b.kind == "family":
            try:
                yield f"{path.stem}:{b.name}", build_family(mf, b, model)
            except EngineError:
                continue


def corpus_families():
    for path in sorted(CORPUS.glob("*.gcm")):
        yield from file_families(path)


# the families of tests/models: four on the 6-torus, three on flat4-kahler,
# and on the 4-torus a `general` one whose KS class is nonzero
FAMILY_MODELS = [MODELS / "torus6-families.gcm",
                 MODELS / "flat4-families.gcm",
                 MODELS / "torus4-bfield.gcm"]


def model_families():
    for path in FAMILY_MODELS:
        yield from file_families(path)


def test_chain_span_built_once_per_family_and_p(monkeypatch, capsys):
    """transversality_check builds the transport of each chain U_{<=p} once
    and extends every representative in it, instead of rebuilding it per
    representative."""
    from gchodge import families
    from gchodge.cli import main as cli_main
    calls = []
    real = families._transport

    def counting(f, p):
        calls.append((f.name, p))
        return real(f, p)

    monkeypatch.setattr(families, "_transport", counting)
    assert cli_main(["family", str(CORPUS / "torus4-symplectic.gcm")]) == 0
    assert "transversality p=0" in capsys.readouterr().out
    assert sorted(calls) == [(f, p) for f in ("holo", "scale")
                             for p in (-2, -1, 0)]


def test_frame_blocks_built_once_per_family(monkeypatch, capsys):
    """The frame blocks of L_t, a polynomial inversion of the frame matrix,
    are built once per family and shared by the graph at every sample and
    the KS class in every direction."""
    from gchodge import families
    from gchodge.cli import main as cli_main
    calls = []
    real = families._frame_graph_blocks

    def counting(f):
        calls.append(f.name)
        return real(f)

    monkeypatch.setattr(families, "_frame_graph_blocks", counting)
    assert cli_main(["family", str(CORPUS / "torus4-symplectic.gcm")]) == 0
    out = capsys.readouterr().out
    assert out.count("graph at t=") == 3 and "KS class (dir t2)" in out
    assert sorted(calls) == ["holo", "scale"]


def test_complex_J_commutes_with_evaluation():
    """complex_J of a matrix of polynomials, evaluated at a point, is
    complex_J of the matrix evaluated there; a complex family's J(t) is
    that J, equal at the basepoint and every sample to the J of the
    structure built there."""
    rng = random.Random(41)

    def rand_poly(nv):
        return ParamPoly(nv, {tuple(rng.randrange(3) for _ in range(nv)):
                              QI(rng.randrange(-4, 5), rng.randrange(-2, 3))
                              for _ in range(rng.randrange(3))})

    for dim in (2, 4, 6):
        nv = rng.randrange(1, 3)
        It = [[rand_poly(nv) for _ in range(dim)] for _ in range(dim)]
        for _ in range(3):
            pt = tuple(QI(Fraction(rng.randrange(-5, 6), rng.randrange(1, 4)))
                       for _ in range(nv))
            assert pmat_eval(complex_J(It), pt) == \
                complex_J(pmat_eval(It, pt)), (dim, pt)
    checked = 0
    for name, f in corpus_families():
        if f.kind != "complex":
            continue
        for pt in [f.basepoint] + f.samples:
            assert pmat_eval(f.J_poly(), pt) == f.structure_at(pt).J, (name, pt)
            checked += 1
    assert checked >= 4


def test_transport_moves_the_chain_onto_the_pointwise_chain():
    """T(0) is the identity on the chain U_{<=p} of the basepoint, and at the
    basepoint and at every sample T moves its basis onto a basis of the
    chain U_{<=p} of the structure built at that point."""
    triples = 0
    kinds = set()
    for name, f in chain(corpus_families(), model_families()):
        n = f.model.dim // 2
        try:
            f.base_structure()
        except EngineError:
            continue
        kinds.add(f.kind)
        for p in range(-n, n + 1):
            move, basis, _d_lows = _moving_chain(f, p)
            moved = [move(poly_form(Form(f.model.dim, w), f.nvars))
                     for w in basis]
            zero = (QI(0),) * f.nvars
            assert [form_eval(m, zero).coeffs for m in moved] == basis
            for pt in [f.basepoint] + f.samples:
                try:
                    s = f.structure_at(pt)
                except EngineError:
                    continue
                at = tuple(a - b for a, b in zip(pt, f.basepoint))
                got = Subspace.span(1 << f.model.dim,
                                    [form_eval(m, at).coeffs for m in moved])
                assert got == reference_chain_subspace(s, p), (name, pt, p)
                triples += 1
    assert triples >= 150 and kinds == {"symplectic", "complex", "general"}


# -- polynomial coefficients in the shared sparse helpers ----------------------------

def reference_q_pairing_poly(a, b, nvars):
    """The Mukai pairing of two polynomial sections, one blade pair at a
    time through mukai_pairing (the former q_pairing_poly)."""
    out = ParamPoly(nvars)
    for ma, pa in a.coeffs.items():
        for mb, pb in b.coeffs.items():
            c = mukai_pairing(Form(a.dim, {ma: ONE}), Form(b.dim, {mb: ONE}))
            if c:
                out = out + (pa * pb).scale(c)
    return out


def seeded_section(dim, nvars, rng, blades):
    """A polynomial section on `blades` random blades, each coefficient a
    polynomial of degree at most 2 in every variable."""
    coeffs = {}
    for mask in rng.sample(range(1 << dim), blades):
        coeffs[mask] = ParamPoly(nvars, {
            tuple(rng.randrange(3) for _ in range(nvars)):
            QI(rng.randrange(-3, 4), rng.randrange(-2, 3)) for _ in range(3)})
    return Form(dim, coeffs)


@pytest.mark.parametrize("dim, nvars", [(4, 1), (4, 2), (6, 1), (6, 2)])
def test_q_pairing_poly_matches_pairwise_reference(dim, nvars):
    rng = random.Random(100 * dim + nvars)
    nonzero = 0
    for _ in range(6):
        a = seeded_section(dim, nvars, rng, (1 << dim) // 2)
        b = seeded_section(dim, nvars, rng, (1 << dim) // 2)
        got = q_pairing_poly(a, b, nvars)
        assert got == reference_q_pairing_poly(a, b, nvars)
        nonzero += bool(got)
    assert nonzero >= 4


@pytest.mark.parametrize("model", [KT, KT_TW], ids=["kt", "kt-twisted"])
def test_dH_poly_is_d_H_on_every_monomial_slice(model):
    rng = random.Random(7)
    for nvars in (1, 2):
        for _ in range(4):
            pf = seeded_section(model.dim, nvars, rng, 8)
            want = {e: model.d_H(w) for e, w in monomial_slices(pf).items()}
            got = monomial_slices(dH_poly(model, pf))
            assert got == {e: w for e, w in want.items() if not w.is_zero()}
            assert got


# -- Form over ParamPoly: the polynomial sections of a family -----------------------

SECTION_SHAPES = [(4, 1), (4, 2), (6, 1), (6, 2)]


def section_points(nvars, rng):
    """A rational and a Gaussian parameter point."""
    rational = tuple(QI(Fraction(rng.randrange(-5, 6), rng.randrange(1, 4)))
                     for _ in range(nvars))
    gaussian = tuple(QI(Fraction(rng.randrange(-3, 4), 2),
                        Fraction(rng.randrange(1, 4), 3))
                     for _ in range(nvars))
    return rational, gaussian


def without_scalar(w):
    return Form(w.dim, {m: p for m, p in w.coeffs.items() if m})


@pytest.mark.parametrize("dim, nvars", SECTION_SHAPES)
def test_evaluation_commutes_with_form_operations(dim, nvars):
    rng = random.Random(31 * dim + nvars)
    wedges = exps = 0
    for _ in range(4):
        a = seeded_section(dim, nvars, rng, (1 << dim) // 4)
        b = seeded_section(dim, nvars, rng, (1 << dim) // 4)
        c = seeded_section(dim, nvars, rng, 1).coeffs.popitem()[1] \
            + ParamPoly.var(nvars, nvars - 1)
        nil = without_scalar(seeded_section(dim, nvars, rng, 8))
        i = rng.randrange(1, dim + 1)
        ab, e = a.wedge(b), nil.exp()
        wedges += not ab.is_zero()
        exps += not nil.wedge(nil).is_zero()
        for pt in section_points(nvars, rng):
            def at(w):
                return form_eval(w, pt)
            assert at(a + b) == at(a) + at(b)
            assert at(a - b) == at(a) - at(b)
            assert at(a.scale(c)) == at(a).scale(c.eval(pt))
            assert at(ab) == at(a).wedge(at(b))
            assert at(a.contract_index(i)) == at(a).contract_index(i)
            assert at(e) == at(nil).exp()
    assert wedges >= 2 and exps >= 1


@pytest.mark.parametrize("dim, nvars", SECTION_SHAPES)
def test_polynomial_maps_of_a_section(dim, nvars):
    rng = random.Random(53 * dim + nvars)
    zero = (QI(0),) * nvars
    for _ in range(4):
        a = seeded_section(dim, nvars, rng, (1 << dim) // 4)
        b = seeded_section(dim, nvars, rng, (1 << dim) // 4)
        # Leibniz over wedge
        for j in range(nvars):
            assert form_diff(a.wedge(b), j) == (
                form_diff(a, j).wedge(b) + a.wedge(form_diff(b, j)))
        # shifting to a point, then evaluating at 0, evaluates at the point
        for pt in section_points(nvars, rng):
            assert form_eval(form_shift(a, pt), zero) == form_eval(a, pt)
        # the monomial slices sum back to the section
        back = Form(dim)
        for e, w in monomial_slices(a).items():
            back = back + poly_form(w, nvars).scale(ParamPoly(nvars, {e: ONE}))
        assert back == a


@pytest.mark.parametrize("dim, nvars", SECTION_SHAPES)
def test_exp_of_a_polynomial_form_stays_polynomial(dim, nvars):
    rng = random.Random(71 * dim + nvars)
    nil = without_scalar(seeded_section(dim, nvars, rng, 4))
    e = nil.exp()
    assert e.coeffs[0] == ParamPoly.const(nvars, ONE)
    assert all(isinstance(p, ParamPoly) for p in e.coeffs.values())


def test_param_poly_is_a_ring_element():
    """What the sparse helpers ask of a coefficient: false exactly when
    zero, and a sum with a QI on either side."""
    p = ParamPoly.var(2, 1) + ParamPoly.const(2, QI(1, 1))
    assert not ParamPoly(2) and p
    assert QI(0) + p == p and p + QI(0) == p
    assert ONE + p == p + ONE == ParamPoly(2, {(0, 1): ONE, (0, 0): QI(2, 1)})


def test_family_command_computes_each_shared_result_once(monkeypatch):
    # `family corpus --all` asks for the same KS classes, de Rham groups and
    # Lefschetz verdicts from several checks: each is computed once
    from gchodge import cli, cohomology, families
    calls = {"ks": [], "derham": [], "lefschetz": []}

    def recording(name, fn):
        def wrapper(*args):
            out = fn(*args)
            calls[name].append((args, out))
            return out
        return wrapper

    ks = recording("ks", families.ks_class)
    derham = recording("derham", cohomology.invariant_derham)
    monkeypatch.setattr(families, "ks_class", ks)
    monkeypatch.setattr(cli, "ks_class", ks)
    monkeypatch.setattr(families, "invariant_derham", derham)
    monkeypatch.setattr(cohomology, "invariant_derham", derham)
    monkeypatch.setattr(families, "lefschetz_check",
                        recording("lefschetz", cohomology.lefschetz_check))
    with redirect_stdout(io.StringIO()):
        cli.main(["family", str(CORPUS), "--all", "--json"])

    def computed(name):
        """(distinct arguments, distinct result objects) over the calls."""
        return (len({args for args, _out in calls[name]}),
                len({id(out) for _args, out in calls[name]}))

    assert computed("ks") == (9, 9)
    # one reduction per model gives the de Rham groups of every degree
    assert computed("derham") == (4, 4)
    # `once` keeps the verdict: the check itself runs once each
    assert len(calls["lefschetz"]) == computed("lefschetz")[0] == 5


def transversality_reports(families):
    """(name, family, direction, p, report or the EngineError it raised) for
    every family, direction and p = -n-2 .. n+2."""
    for name, f in families:
        try:
            f.base_structure()
        except EngineError:
            continue
        n = f.model.dim // 2
        for direction in range(f.nvars):
            for p in range(-n - 2, n + 3):
                try:
                    r = transversality_check(f, p, direction)
                except EngineError as e:
                    r = e
                yield name, f, direction, p, r


def transversality_pins(reports):
    """Each report's vectors with their key order, or the error it raised,
    as text."""
    for name, _f, direction, p, r in reports:
        if isinstance(r, EngineError):
            yield f"{name} {direction} {p} {type(r).__name__}: {r}"
            continue
        vecs = [[list(v.items()) for v in vs]
                for vs in (r.domain, r.induced, r.kappa_action)]
        yield (f"{name} {direction} {p} {r.skipped} {vecs} "
               f"{r.constant} {r.proportional}")


@cache
def corpus_transversality_reports():
    """The reports of the corpus families, shared by the tests."""
    return list(transversality_reports(corpus_families()))


@cache
def model_transversality_reports():
    """The reports of the families of tests/models, shared by the tests."""
    return list(transversality_reports(model_families()))


# the digests of the pins of the corpus families and of the families of
# tests/models, which every solve in transversality_check feeds
TRANSVERSALITY_SHA256 = \
    "745d04118e78ec1ca3ae691be43e1ec960208adc19fe4c2c2f7a494b4f8d0c78"
MODEL_TRANSVERSALITY_SHA256 = \
    "21696e3d10459787bd9daec4f5a01e8bedb60d7fc22a740bb15700ba27538d69"
BFIELD_TRANSVERSALITY_SHA256 = \
    "444d284148bfc0ad26bf24169fefa1a2fc4ca921a098045ac7a4082b3be94320"


def model_pins(stems):
    """The pins of the families of the tests/models files named."""
    return "\n".join(transversality_pins(
        r for r in model_transversality_reports()
        if r[0].split(":")[0] in stems))


def test_transversality_vectors_are_pinned():
    """domain, induced and kappa_action (key order included), constant and
    proportional of every corpus family, direction and p: the solves of
    _extend_in_chain and of the lift into F^{p+2} have no other guard, as
    --json prints only the verdicts and c."""
    text = "\n".join(transversality_pins(corpus_transversality_reports()))
    assert text.count("\n") >= 60
    assert hashlib.sha256(text.encode()).hexdigest() == TRANSVERSALITY_SHA256


def test_model_family_transversality_vectors_are_pinned():
    """The same pins on the dim-6 and flat4-kahler families of tests/models,
    taken before the extension and the lift were carried by formula."""
    text = model_pins({"torus6-families", "flat4-families"})
    assert text.count("\n") >= 80
    assert hashlib.sha256(text.encode()).hexdigest() == \
        MODEL_TRANSVERSALITY_SHA256


def test_bfield_family_transversality_vectors_are_pinned():
    """The same pins on the `general` family of torus4-bfield, whose KS
    class is nonzero, so that its kappa_action is not all zero."""
    ks = ks_class(dict(model_families())["torus4-bfield:bfield"], 0)
    assert ks.closed and not ks.class_is_zero
    text = model_pins({"torus4-bfield"})
    assert text.count("\n") >= 8
    assert any(any(r.kappa_action)
               for name, _f, _d, _p, r in model_transversality_reports()
               if name.startswith("torus4-bfield:")
               and not isinstance(r, EngineError) and not r.skipped)
    assert hashlib.sha256(text.encode()).hexdigest() == \
        BFIELD_TRANSVERSALITY_SHA256


def test_transversality_constant_is_2_and_samples_are_good():
    """Wherever transversality reports a constant, on the corpus families
    and on those of tests/models, it is c = 2; and every sample of a
    report that is not skipped satisfies the del-delbar lemma."""
    consts = 0
    for name, _f, direction, p, r in (corpus_transversality_reports()
                                      + model_transversality_reports()):
        if isinstance(r, EngineError) or r.skipped:
            continue
        assert all(r.samples_good.values()), (name, direction, p)
        if r.constant is not None:
            assert r.constant == QI(2), (name, direction, p)
            consts += 1
    assert consts >= 50


def test_holomorphy_on_the_model_families():
    """B + i omega along one 2-form is holomorphic; omega and B moving
    along different 2-forms is not, at dim 6 and on flat4-kahler."""
    fams = dict(model_families())
    assert holomorphy_check(fams["torus6-families:holo"]).holomorphic
    assert not holomorphy_check(fams["torus6-families:mixed"]).holomorphic
    assert not holomorphy_check(fams["flat4-families:twoparam"]).holomorphic


def test_family_command_on_the_model_families(capsys):
    """`family` exits 1 on the 6-torus and flat4-kahler files of families:
    on the window line at p = 1 of three 6-torus families, and on the
    holomorphy of the families whose omega and B move along different
    2-forms.  It exits 0 on torus4-bfield."""
    from gchodge.cli import main as cli_main
    failed = {}
    for path in FAMILY_MODELS:
        code = cli_main(["family", str(path), "--json"])
        report = json.loads(capsys.readouterr().out)
        failed[path.stem] = [c["name"] for c in report["checks"]
                             if c["verdict"] == "fail"]
        assert code == (1 if failed[path.stem] else 0), path.stem
    assert failed == {
        "torus4-bfield": [],
        "torus6-families": ["family scale transversality p=1",
                            "family holo transversality p=1",
                            "family mixed holomorphy",
                            "family mixed transversality p=1"],
        "flat4-families": ["family twoparam holomorphy"]}


def test_transversality_flags_are_pinned():
    """`nabla F^p inside F^(p+2)` and `proportionality exact` hold on every
    report that is not skipped, and the window line fails exactly where it
    failed before the extension was carried by formula: on symplectic
    families only, from p = 2 at dim 4 and from p = 1 at dim 6 (the `family`
    command runs p = -n .. n - 2)."""
    window_fails = set()
    for name, _f, direction, p, r in (corpus_transversality_reports()
                                      + model_transversality_reports()):
        if isinstance(r, EngineError) or r.skipped:
            continue
        assert r.transversal and r.proportional, (name, direction, p)
        if not r.nabla_window_ok:
            window_fails.add((name, direction, p))
    want = {(name, direction): ps for name, direction, ps in (
        ("flat4-families:scale", 0, [2, 3, 4]),
        ("flat4-families:twoparam", 0, [2, 3, 4]),
        ("flat4-families:twoparam", 1, [2, 4]),
        ("neg-antiholo:antiholo", 0, [2, 3, 4]),
        ("neg-antiholo:antiholo", 1, [2, 3, 4]),
        ("neg-gk-defo:fbad", 0, [2, 3, 4]),
        ("torus4-kahler:fs", 0, [2, 3, 4]),
        ("torus4-symplectic:holo", 0, [2, 3, 4]),
        ("torus4-symplectic:holo", 1, [2, 3, 4]),
        ("torus4-symplectic:scale", 0, [2, 3, 4]),
        ("torus6-families:holo", 0, [1, 2, 3, 4, 5]),
        ("torus6-families:holo", 1, [1, 2, 3, 4, 5]),
        ("torus6-families:mixed", 0, [1, 2, 3, 4, 5]),
        ("torus6-families:mixed", 1, [1, 2, 3, 4, 5]),
        ("torus6-families:scale", 0, [1, 2, 3, 4, 5]))}
    assert window_fails == {(name, direction, p)
                            for (name, direction), ps in want.items()
                            for p in ps}


# -- the KS lift and the symplectic frame against the solves they replaced ---------

def reference_kappa_action(f, p, direction):
    """The KS Clifford action on each closed representative of F^p, lifted
    as transversality_check did before the del-delbar zig-zag: through the
    closed forms of the chain U_{<=p+2}, projected to U_{p+2}, together
    with delbar of U_{p+1}, and read in Gr_F^{p+2}."""
    base = f.base_structure()
    m = f.model
    tw = twisted_cohomology(m)
    parity = (p + base.n + base.parity) % 2
    cochain = ks_class(f, direction).cochain
    closed2 = closed_in_chain(base, p + 2).basis()
    lift_cols = [base.project(p + 2, Form(m.dim, v)).coeffs for v in closed2]
    dbar_cols = [base.delbar(Form(m.dim, v)).coeffs
                 for v in base.U_subspace(p + 1).basis()]
    lows = reduce_columns(lift_cols + dbar_cols)[0]
    out = []
    for r in closed_in_chain(base, p).basis():
        y = base.cliff_cochain(cochain, base.project(p, Form(m.dim, r)))
        sol = solve(lows, y.coeffs)
        assert sol is not None
        w: Vec = {}
        for k, c in sol.items():
            if k < len(closed2):
                w = vec_axpy(w, c, closed2[k])
        kc = graded_coords(base, p + 2, tw.coords(w, parity))
        out.append(kc if kc is not None else {})
    return out


def test_kappa_lift_matches_the_closed_chain_lift():
    """The zig-zag lift gives the classes in Gr_F^{p+2} of the former lift
    through the closed forms of U_{<=p+2}, on every corpus family and every
    family of tests/models, in every direction and at every p."""
    compared = 0
    for name, f, direction, p, r in (corpus_transversality_reports()
                                     + model_transversality_reports()):
        if isinstance(r, EngineError) or r.skipped:
            continue
        assert r.kappa_action == reference_kappa_action(f, p, direction), \
            (name, direction, p)
        compared += bool(r.kappa_action)
    assert compared >= 100


def reference_symplectic_frame(f):
    """The polynomial frame of L_t of a symplectic family as _l_frame built
    it before: x_i - i i_{x_i} sigma(t) for each i, recombined by the
    solve that sends their values at the basepoint to the basis of L."""
    dim = f.model.dim
    nv = f.nvars
    sigma = f.omega_t + f.B_t.scale(I)
    raw = []
    for i in range(dim):
        u = [ParamPoly(nv) for _ in range(2 * dim)]
        u[i] = ParamPoly.const(nv, ONE)
        for mask, c in sigma.contract_index(i + 1).coeffs.items():
            u[dim + mask.bit_length() - 1] = c.scale(QI(0, -1))
        raw.append(u)
    lows = reduce_columns({k: c.eval(f.basepoint) for k, c in enumerate(u)
                           if c.eval(f.basepoint)} for u in raw)[0]
    frame = []
    for l in f.base_structure().L.basis:
        sol = solve(lows, l)
        assert sol is not None
        u = [ParamPoly(nv) for _ in range(2 * dim)]
        for k, c in sol.items():
            for idx in range(2 * dim):
                u[idx] = u[idx] + raw[k][idx].scale(c)
        frame.append(u)
    return frame


def test_symplectic_frame_matches_the_solved_frame():
    """Moving l_a as X_a - i i_{X_a} sigma(t) gives the frame that the
    former solve recombined, on every symplectic family of the corpus and
    of tests/models."""
    checked = 0
    for name, f in chain(corpus_families(), model_families()):
        if f.kind != "symplectic":
            continue
        try:
            frame, lbasis = _l_frame(f)
        except EngineError:
            continue
        assert frame == reference_symplectic_frame(f), name
        assert [{k: c.eval(f.basepoint) for k, c in enumerate(u)
                 if c.eval(f.basepoint)} for u in frame] == lbasis, name
        checked += 1
    assert checked >= 10
