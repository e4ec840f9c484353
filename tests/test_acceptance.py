"""Acceptance suite: one test per criterion, exact equality everywhere.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
verdict lines.
"""

import hashlib
import io
import json
from contextlib import redirect_stdout
from fractions import Fraction
from pathlib import Path

import pytest

from gchodge.cli import main as cli_main
from gchodge.cohomology import (ddbar_check, delbar_dims, frolicher_pages,
                                hodge_filtration, lefschetz_check,
                                twisted_cohomology, weight_mhs_check)
from gchodge.courant import (algebroid_from_basis, b_shift, b_shift_form,
                             courant_axiom_suite, dorfman)
from gchodge.errors import EngineError
from gchodge.families import (FamilySpec, gcy_check, holomorphy_check,
                              ks_class, q_flatness, symp_filtration_check,
                              transversality_check)
from gchodge.forms import Form, mukai_pairing
from gchodge.gcs import make_complex, make_symplectic
from gchodge.gkaehler import (algebroid_split_check, bigraded_cohomology,
                              bigrading, delta_split_check,
                              gk_deformation_check, gk_validate)
from gchodge.liemodel import LieModel
from gchodge.modelfile import build_family, parse_model
from gchodge.poly import ParamPoly, pmat_from_qi
from gchodge.scalars import I, ONE, QI

import random

from gchodge.linalg import vec_add, vec_scale

from test_courant import (cov_form, failed_checks, one_form_coords,
                          random_elem, random_real_form, tabulate, tangent, x)
from test_families import poly_form

CORPUS = Path(__file__).resolve().parent.parent / "corpus"
REFERENCE = Path(__file__).resolve().parent.parent / "bench" / "reference.json"

ABELIAN4 = LieModel(4, [], name="torus4")
ABELIAN6 = LieModel(6, [], name="torus6")
KT = LieModel(4, [(4, 1, 2, 1)], name="kt")
KT_TW = LieModel(4, [(4, 1, 2, 1)], Form.blade(4, [1, 2, 3]), name="kt-tw")
ABELIAN4_TW = LieModel(4, [], Form.blade(4, [1, 2, 3]), name="torus4-tw")
ABELIAN6_TW = LieModel(6, [], Form.blade(6, [1, 3, 5]), name="torus6-tw")

KT_OMEGA = Form.blade(4, [1, 4]) + Form.blade(4, [2, 3])


def verdict(n, ok, text):
    print(f"ACCEPTANCE {n}: {'PASS' if ok else 'FAIL'} - {text}")
    assert ok, f"criterion {n}: {text}"


def torus_omega(dim):
    w = Form(dim)
    for k in range(dim // 2):
        w = w + Form.blade(dim, [2 * k + 1, 2 * k + 2])
    return w


def kahler_I(dim):
    M = [[QI(0)] * dim for _ in range(dim)]
    for k in range(dim // 2):
        M[2 * k + 1][2 * k] = QI(-1)
        M[2 * k][2 * k + 1] = ONE
    return M


def scaling_family(samples=((QI(Fraction(1, 2)),),)):
    w = torus_omega(4)
    nv = 1
    base = ParamPoly.const(nv, ONE)
    t = ParamPoly.var(nv, 0)
    omega_t = poly_form(w, nv) + poly_form(w, nv).scale(t)
    return FamilySpec(ABELIAN4, "symplectic", nv, samples=samples,
                      omega_t=omega_t, name="scale")


def test_criterion_01_courant_axioms_and_faults():
    models = [ABELIAN4, ABELIAN6, KT, KT_TW, ABELIAN4_TW, ABELIAN6_TW]
    ok = all(courant_axiom_suite(m).ok for m in models)

    def drop_dxi(m, a, b):
        dxi = m.d(cov_form(m.dim, a)).contract_vector(tangent(m.dim, b))
        return vec_add(dorfman(m, a, b), one_form_coords(m.dim, dxi))

    def drop_twist(m):
        return LieModel(m.dim, m.structure).dorfman_table

    fault1 = failed_checks(courant_axiom_suite(
        KT, table_of=lambda m: tabulate(m, drop_dxi))) == {
        "C4": "a=(1) x1; b=(1) e4; sum=(1) e2",
        "B-shift": "B=e1^e4; a=(1) x1; b=(1) x1"}
    fault2 = failed_checks(courant_axiom_suite(KT_TW, table_of=drop_twist)) == {
        "B-shift": "B=e3^e4; a=(1) x1; b=(1) x2"}
    verdict(1, ok and fault1 and fault2,
            "C1/C2/C4/C5 pass on 6 models over a basis; "
            "injected bracket faults detected")


def test_criterion_02_b_shift_conjugation():
    rng = random.Random(99)
    ok = True
    for m in (KT, KT_TW, ABELIAN4_TW):
        for _ in range(100):
            B = random_real_form(m.dim, 2, rng)
            shifted = LieModel(m.dim, m.structure, m.H + m.d(B))
            a, b = random_elem(m.dim, rng), random_elem(m.dim, rng)
            if b_shift(B, dorfman(m, a, b)) != \
                    dorfman(shifted, b_shift(B, a), b_shift(B, b)):
                ok = False
            w = random_real_form(m.dim, rng.randrange(m.dim + 1), rng)
            if m.d_H(b_shift_form(B, w)) != b_shift_form(B, shifted.d_H(w)):
                ok = False
    verdict(2, ok, "e^B[a,b]_H = [e^Ba,e^Bb]_{H+dB} and "
            "d_H e^B = e^B d_{H+dB} exact on 100 random inputs per model")


def test_criterion_03_betti_numbers():
    Lkt = algebroid_from_basis(KT, [x(4, i) for i in range(1, 5)])
    kt_betti = [Lkt.cohomology().dim(k) for k in range(5)]
    La = algebroid_from_basis(ABELIAN4, [x(4, i) for i in range(1, 5)])
    ab_betti = [La.cohomology().dim(k) for k in range(5)]
    tw = twisted_cohomology(KT_TW)
    ok = (kt_betti == [1, 3, 4, 3, 1] and ab_betti == [1, 4, 6, 4, 1]
          and (tw.dim_even, tw.dim_odd) == (6, 6))
    verdict(3, ok, f"KT betti {kt_betti}, torus4 betti {ab_betti}, "
            f"twisted KT dims {(tw.dim_even, tw.dim_odd)}")


def test_criterion_04_complex_torus_hodge():
    s = make_complex(ABELIAN4, kahler_I(4))
    dims = delbar_dims(s)
    rep = hodge_filtration(s)
    mhs = weight_mhs_check(s)
    ok = (dims == {-2: 1, -1: 4, 0: 6, 1: 4, 2: 1}
          and rep.ddbar_holds and rep.hodge_ok
          and all(rep.hodge_by_p.values())
          and mhs.skipped is None and mhs.split_ok
          and mhs.gr_dims == {0: 1, 1: 4, 2: 6, 3: 4, 4: 1})
    verdict(4, ok, "complex torus: diamond 1,4,6,4,1; ddbar holds; "
            "F^p + conj(F^{-p-2}) = H for all p; MHS with Gr dims 1,4,6,4,1")


def test_criterion_05_symplectic_torus():
    s = make_symplectic(ABELIAN4, torus_omega(4))
    dims = delbar_dims(s)
    lf = lefschetz_check(s)
    dd = ddbar_check(s)
    fam = scaling_family()
    filt_ok = all(symp_filtration_check(fam, p).ok for p in (-2, 0, 2))
    q = mukai_pairing(s.spinor, s.spinor.conj())
    ok = (dims == {-2: 1, -1: 4, 0: 6, 1: 4, 2: 1}
          and lf.ok and dd.holds and (lf.ok == dd.holds)
          and filt_ok and q == QI(-4))
    verdict(5, ok, "symplectic torus: diamond 1,4,6,4,1; Lefschetz and ddbar "
            "hold and agree; F^p = e^{i sigma}(H^{p+n} + ...) for p in "
            "{-2,0,2}; Q([e^{iw}],[e^{-iw}]) = -4")


def test_criterion_06_kt_degenerates_without_hodge():
    s = make_symplectic(KT_TW, KT_OMEGA, -Form.blade(4, [3, 4]))
    frl = frolicher_pages(s)
    dd = ddbar_check(s)
    lf = lefschetz_check(s)
    s0 = make_symplectic(KT, KT_OMEGA)
    lf0 = lefschetz_check(s0)
    dd0 = ddbar_check(s0)
    witness_ok = (KT.d(-Form.blade(4, [3, 4])) == Form.blade(4, [1, 2, 3])
                  and KT_OMEGA.wedge(Form.blade(4, [1]))
                  == Form.blade(4, [1, 2, 3])
                  and lf0.kernel_witness is not None)
    ok = (frl.degenerates and frl.delbar_total == frl.twisted_total == 12
          and not dd.holds and dd.witness is not None
          and (lf.ok == dd.holds) and (lf0.ok == dd0.holds)
          and witness_ok)
    verdict(6, ok, "twisted symplectic KT: E_1 degeneration with totals "
            "12 = 12, ddbar FAILS with witness, Lefschetz kernel contains "
            "[e1] (omega ^ e1 = e123 = d(-e34)), verdicts agree")


def test_criterion_07_family_ks_and_transversality():
    fam = scaling_family()
    ks = ks_class(fam, 0)
    base = fam.base_structure()
    mu = torus_omega(4)
    half_i = I * QI(Fraction(1, 2))
    psi_ok = True
    for a in range(1, 5):
        for b in range(a + 1, 5):
            psi_a = vec_add(x(4, a), vec_scale(
                one_form_coords(4, mu.contract_index(a)), -I))
            psi_b = vec_add(x(4, b), vec_scale(
                one_form_coords(4, mu.contract_index(b)), -I))
            val = base.L.cochain_eval(ks.cochain, [psi_a, psi_b])
            want = half_i * mu.coeffs.get((1 << (a - 1)) | (1 << (b - 1)), QI(0))
            if val != want:
                psi_ok = False
    trans_ok = True
    consts = set()
    for p in (-2, -1, 0):
        tr = transversality_check(fam, p, 0)
        if not (tr.skipped is None and tr.transversal and tr.nabla_window_ok
                and tr.proportional):
            trans_ok = False
        if tr.constant is not None:
            consts.add(str(tr.constant))
    t = ParamPoly.var(1, 0)
    rho = poly_form(torus_omega(4).scale(I).exp(), 1)  # flat rep
    qrep = q_flatness(fam, rho, rho.conj())
    ok = (ks.closed and ks.jjandks_ok and psi_ok and trans_ok
          and len(consts) == 1 and qrep.ok)
    verdict(7, ok, "scaling family: KS class = i mu/2 under psi; "
            "J_j = 2i eps - 2i conj(eps) exact; Griffiths transversality "
            f"with one measured constant c = {consts}; Q covariantly constant")


def test_criterion_08_holomorphy():
    w = torus_omega(4)
    nv = 2
    t1 = ParamPoly.var(nv, 0)
    t2 = ParamPoly.var(nv, 1)
    base = poly_form(w, nv)

    def fam(sign):
        return FamilySpec(
            ABELIAN4, "symplectic", nv,
            omega_t=base + base.scale(t1),
            B_t=base.scale(t2).scale(QI(sign)))

    holo = holomorphy_check(fam(+1))
    anti = holomorphy_check(fam(-1))
    ok = holo.holomorphic and not anti.holomorphic
    verdict(8, ok, "sigma0 + (t1+i t2) mu is holomorphic "
            "(kappa(d2) = i kappa(d1)); the conjugate family fails")


def test_criterion_09_gcy():
    s = make_symplectic(ABELIAN4, torus_omega(4))
    rep = gcy_check(s)
    ok = (rep.spinor_closed and rep.iso_dims == (6, 6) and rep.iso_ok
          and rep.period_injective)
    verdict(9, ok, "torus e^{i omega}: H^2(L) -> H^0_delbar is an "
            "isomorphism of 6-dimensional spaces; period differential "
            "injective")


def test_criterion_10_kahler_pair():
    s1 = make_complex(ABELIAN4, kahler_I(4))
    s2 = make_symplectic(ABELIAN4, torus_omega(4))
    pair = gk_validate(s1, s2)
    bg = bigrading(pair)
    ds = delta_split_check(pair)
    bc = bigraded_cohomology(pair)
    sp1 = algebroid_split_check(pair.s1.L, pair.Lp, pair.Lm)
    sp2 = algebroid_split_check(pair.s2.L, pair.Lp, pair.Lm.conj())

    nv = 1
    t = ParamPoly.var(nv, 0)
    w = torus_omega(4)
    f1 = FamilySpec(ABELIAN4, "complex", nv, samples=[(QI(Fraction(1, 2)),)],
                    It=pmat_from_qi(kahler_I(4), nv))
    f2 = FamilySpec(ABELIAN4, "symplectic", nv,
                    samples=[(QI(Fraction(1, 2)),)],
                    omega_t=poly_form(w, nv)
                    + poly_form(w, nv).scale(t))
    good = gk_deformation_check(f1, f2)
    mu_bad = Form.blade(4, [1, 3]) - Form.blade(4, [2, 4])
    f2bad = FamilySpec(ABELIAN4, "symplectic", nv,
                       samples=[(QI(Fraction(1, 4)),)],
                       omega_t=poly_form(w, nv)
                       + poly_form(mu_bad, nv).scale(t))
    bad = gk_deformation_check(f1, f2bad)
    ok = (bg.total_ok and sum(bg.dims.values()) == 16 and bg.parity_ok
          and bg.commute_ok
          and ds.residual_ok and ds.matches_delbar1 and ds.matches_delbar2
          and ds.anticommute_ok and ds.strong_anticommute
          and bc.total_matches_twisted and bc.blocks_decompose
          and bc.intersection_ok and bc.marginals_ok
          and sp1.ok and sp2.ok
          and good.compatible and all(good.samples_gk.values())
          and not bad.compatible)
    verdict(10, ok, "Kaehler torus pair: bigraded dims sum to 16; marginals "
            "and intersections exact; delta anticommutators vanish; both "
            "algebroid decomposition identities hold; deformation "
            "compatibility passes (and the engineered family fails)")


def test_criterion_11_good_family_stability():
    checked = 0
    ok = True
    for path in sorted(CORPUS.glob("*.gcm")):
        mf = parse_model(path.read_text())
        try:
            model = mf.model(name=path.stem)
            model.require_valid()
        except EngineError:
            continue
        for b in mf.blocks:
            if b.kind != "family":
                continue
            fam = build_family(mf, b, model)
            try:
                base_dd = ddbar_check(fam.base_structure())
            except EngineError:
                continue
            if not base_dd.holds:
                continue
            for pt in fam.samples:
                try:
                    s_t = fam.structure_at(pt)
                except EngineError:
                    continue  # not a structure at all: outside the family
                checked += 1
                if not ddbar_check(s_t).holds:
                    ok = False
    verdict(11, ok and checked > 0,
            f"ddbar persists at all {checked} valid samples of corpus "
            "families with ddbar basepoints")


def run_corpus_all(command: str) -> str:
    buf = io.StringIO()
    with redirect_stdout(buf):
        cli_main([command, str(CORPUS), "--all", "--json"])
    return buf.getvalue()


def test_criterion_12_determinism():
    commands = ("check", "cohomology", "grading", "ddbar", "hodge",
                "lefschetz", "mhs", "family", "gcy", "gk")
    first = {c: run_corpus_all(c) for c in commands}
    second = {c: run_corpus_all(c) for c in commands}
    ok = all(first[c] == second[c] for c in commands)
    verdict(12, ok, "full corpus reports byte-identical across two runs "
            f"({len(commands)} commands x {len(list(CORPUS.glob('*.gcm')))} files)")
    # each file's report is one blank-line separated chunk of the --all
    # output; its digest is pinned in the benchmark's reference
    ref = json.loads(REFERENCE.read_text())["corpus"]
    pinned = {key for key in ref if key.split()[0] in commands}
    seen, changed = set(), []
    for c in commands:
        for chunk in first[c].rstrip("\n").split("\n\n"):
            key = f"{c} {json.loads(chunk)['file']}"
            seen.add(key)
            digest = hashlib.sha256((chunk + "\n").encode()).hexdigest()
            if digest != ref.get(key, {}).get("sha256"):
                changed.append(key)
    verdict(12, seen == pinned and not changed,
            f"reports match bench/reference.json ({len(seen)} reports; "
            f"changed: {changed or 'none'}; "
            f"unpinned or missing: {sorted(seen ^ pinned) or 'none'})")
