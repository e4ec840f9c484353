"""Families: validation, graphs, KS classes, Gauss-Manin, transversality."""

import copy
import hashlib
import io
import random
from contextlib import redirect_stdout
from fractions import Fraction

import pytest

from gchodge.cohomology import twisted_cohomology
from gchodge.errors import EngineError, GraphConditionFailed, SectionNotClosed
from gchodge.courant import _generator_tables
from gchodge.families import (FamilySpec, _chain_span, _extend_in_chain,
                              _graded_span_poly, family_validate, gcy_check,
                              gm_derivative, graph_epsilon, holomorphy_check,
                              ks_class, q_flatness, q_pairing_poly,
                              symp_filtration_check, transversality_check)
from gchodge.forms import Form, mukai_pairing, popcount
from gchodge.gcs import complex_J, make_complex, make_symplectic
from gchodge.linalg import (Subspace, Vec, mat_inv, vec_add, vec_conj,
                            vec_scale)
from gchodge.modelfile import build_family, parse_model
from gchodge.poly import (ParamPoly, dH_poly, form_diff, form_eval,
                          form_shift, monomial_slices, pmat_eval, pmat_from_qi)
from gchodge.scalars import Half, I, ONE, QI, ZERO

from test_cohomology import reference_chain_subspace
from test_courant import one_form_coords, tangent, x
from test_gcs import (CORPUS, ABELIAN4, KT, KT_TW, dual_frame, std_I,
                      torus_omega)


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
    return _extend_in_chain(f, _chain_span(f, p), rep)


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


# -- the chain spans against the 2n+1-node reference --------------------------------

def _clifford_const(a: Vec, w: Form) -> Form:
    """Clifford action of a constant element on a polynomial form."""
    def term(z):
        return lambda poly, s: poly.scale(z if s > 0 else -z)
    return _gamma_sum(w, {c: term(z) for c, z in a.items()})


def _clifford_poly_elem(col: list[ParamPoly], dim: int, nv: int,
                        w: Form) -> Form:
    """Clifford action of an element with polynomial coordinates."""
    def term(pv):
        return lambda poly, s: poly * pv if s > 0 else (poly * pv).scale(QI(-1))
    return _gamma_sum(w, {c: term(pv) for c, pv in enumerate(col)
                          if not pv.is_zero()})


def _gamma_sum(w: Form, terms: dict) -> Form:
    """sum_c gamma_c(w) over the generator tables of E_C, where terms[c]
    maps a coefficient of w and a table sign to the c-th coordinate times
    both; blade by blade, with x_i before e^i for each i."""
    dim = w.dim
    gamma = _generator_tables(dim)
    order = [(gamma[c], terms[c]) for i in range(dim) for c in (i, dim + i)
             if c in terms]
    out: dict[int, ParamPoly] = {}
    for mask, poly in w.coeffs.items():
        for g, term in order:
            hit = g[mask]
            if hit is None:
                continue
            k, s = hit
            t = term(poly, s)
            out[k] = out[k] + t if k in out else t
    return Form(dim, out)


def _pairing_poly(col: list[ParamPoly], v: Vec, dim: int) -> ParamPoly:
    """<col, v> for polynomial coordinates col: x_i pairs with e^i."""
    out = ParamPoly(col[0].nvars)
    for k, c in v.items():
        out = out + col[(k + dim) % (2 * dim)].scale(c * Half)
    return out


def reference_graded_span_poly(f, p):
    """The chain U_{<=p} spanned as _graded_span_poly did before it used one
    parity class: the full 2n+1-node Vandermonde inverse on 2n powers of the
    polynomial N(t), with its trace rebuilt on every application."""
    m = f.model
    n = m.dim // 2
    nv = f.nvars
    if f.kind == "symplectic":
        return _graded_span_poly(f, p)
    Jp = f.J_poly()
    base = f.base_structure()
    duals = [([Jp[i][a] for i in range(2 * m.dim)], v)
             for a, v in enumerate(dual_frame(m.dim))]

    def N_poly(w):
        out = Form(m.dim)
        trace = ParamPoly(nv)
        for col, v in duals:
            out = out + _clifford_poly_elem(col, m.dim, nv,
                                            _clifford_const(v, w))
            trace = trace + _pairing_poly(col, v, m.dim)
        quarter = QI(Fraction(1, 4))
        return out.scale(quarter) - w.scale(trace.scale(quarter))

    ks_all = list(range(-n, n + 1))
    vand = mat_inv([[QI(0, -k) ** e for k in ks_all]
                    for e in range(len(ks_all))])
    chain_ks = [k for k in range(-n, p + 1) if (p - k) % 2 == 0]
    out = []
    parity = (p + n + base.parity) % 2
    for mask in range(1 << m.dim):
        if popcount(mask) % 2 != parity:
            continue
        powers = [Form(m.dim, {mask: ParamPoly.const(nv, ONE)})]
        for _ in range(2 * n):
            powers.append(N_poly(powers[-1]))
        acc = Form(m.dim)
        for k in chain_ks:
            idx = ks_all.index(k)
            for mdx, pw in enumerate(powers):
                acc = acc + pw.scale(vand[idx][mdx])
        if not acc.is_zero():
            out.append(acc)
    return out


def corpus_families():
    for path in sorted(CORPUS.glob("*.gcm")):
        mf = parse_model(path.read_text())
        model = mf.model(name=path.stem)
        for b in mf.blocks:
            if b.kind == "family":
                try:
                    yield f"{path.stem}:{b.name}", build_family(mf, b, model)
                except EngineError:
                    continue


def test_graded_span_poly_matches_reference_on_corpus():
    pairs = 0
    kinds = set()
    for name, f in corpus_families():
        n = f.model.dim // 2
        try:
            f.base_structure()
        except EngineError:
            continue
        kinds.add(f.kind)
        for p in range(-n, n + 1):
            # ParamPoly equality compares nvars too
            got = [(pf.dim, pf.coeffs) for pf in _graded_span_poly(f, p)]
            want = [(pf.dim, pf.coeffs)
                    for pf in reference_graded_span_poly(f, p)]
            assert got == want, (name, p)
            pairs += 1
    assert pairs >= 30 and kinds >= {"symplectic", "complex"}


def test_chain_span_built_once_per_family_and_p(monkeypatch, capsys):
    """transversality_check spans each chain U_{<=p} once and extends every
    representative in it, instead of respanning it per representative."""
    from gchodge import families
    from gchodge.cli import main as cli_main
    calls = []
    real = families._graded_span_poly

    def counting(f, p):
        calls.append((f.name, p))
        return real(f, p)

    monkeypatch.setattr(families, "_graded_span_poly", counting)
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


def test_graded_span_poly_spans_the_pointwise_chain():
    """At the basepoint and at every sample, the polynomial chain spans
    exactly the chain U_{<=p} of the structure built at that point."""
    triples = 0
    kinds = set()
    for name, f in corpus_families():
        n = f.model.dim // 2
        try:
            f.base_structure()
        except EngineError:
            continue
        kinds.add(f.kind)
        for p in range(-n, n + 1):
            span = _graded_span_poly(f, p)
            for pt in [f.basepoint] + f.samples:
                try:
                    s = f.structure_at(pt)
                except EngineError:
                    continue
                got = Subspace.span(1 << f.model.dim,
                                    [form_eval(pf, pt).coeffs for pf in span])
                assert got == reference_chain_subspace(s, p), (name, pt, p)
                triples += 1
    assert triples >= 80 and kinds >= {"symplectic", "complex"}


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


def transversality_pins():
    """Every corpus family, direction and p = -n-2 .. n+2: the report's
    vectors with their key order, or the error it raised, as text."""
    for name, f in corpus_families():
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
                    yield f"{name} {direction} {p} {type(e).__name__}: {e}"
                    continue
                vecs = [[list(v.items()) for v in vs]
                        for vs in (r.domain, r.induced, r.kappa_action)]
                yield (f"{name} {direction} {p} {r.skipped} {vecs} "
                       f"{r.constant} {r.proportional}")


# the digest of transversality_pins(), which every solve in
# transversality_check feeds
TRANSVERSALITY_SHA256 = \
    "745d04118e78ec1ca3ae691be43e1ec960208adc19fe4c2c2f7a494b4f8d0c78"


def test_transversality_vectors_are_pinned():
    """domain, induced and kappa_action (key order included), constant and
    proportional of every corpus family, direction and p: the solves of
    _extend_in_chain and of the lift into F^{p+2} have no other guard, as
    --json prints only the verdicts and c."""
    text = "\n".join(transversality_pins())
    assert text.count("\n") >= 60
    assert hashlib.sha256(text.encode()).hexdigest() == TRANSVERSALITY_SHA256
