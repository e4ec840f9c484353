"""Generalized Kaehler pairs: validation, bigrading, d_H split, deformations."""

from fractions import Fraction
from pathlib import Path

import pytest

from gchodge.cohomology import ddbar_check
from gchodge.errors import (EngineError, MetricNotPositive, NotADecomposition,
                            NotCommuting)
from gchodge.families import FamilySpec
from gchodge.forms import Form
from gchodge.gcs import make_complex, make_general, make_symplectic
from gchodge.gkaehler import (BIDEGREES, algebroid_split_check,
                              bigraded_cohomology, bigrading, delta_split_check,
                              gk_deformation_check, gk_validate, split_chains)
from gchodge.liemodel import LieAlgebroid, LieModel, chain_apply
from gchodge.linalg import Subspace
from gchodge.modelfile import build_structure, parse_model
from gchodge.poly import ParamPoly, pmat_from_qi
from gchodge.scalars import I, ONE, QI

from reference_algebroid import cartan_differential, split_tables
from test_gcs import (ABELIAN4, CORPUS, grade_blades, nonempty, reference_dH_parts,
                      split_by_blades, std_I, torus_omega)
from test_families import poly_two_form

# flat Kaehler solvable model: d e1 = -e23, d e2 = e13 (isometries of the plane)
FLAT4 = LieModel(4, [(1, 2, 3, -1), (2, 1, 3, 1)], name="flat4")


def kahler_I(dim=4):
    # the orientation pairing with omega = e12 + e34 + ... that makes
    # G = -J1 J2 positive is x_{2k} -> x_{2k-1}, x_{2k-1} -> -x_{2k}
    return [[-x for x in row] for row in std_I(dim)]


def kahler_pair(model=ABELIAN4):
    s1 = make_complex(model, kahler_I(4))
    s2 = make_symplectic(model, torus_omega(4))
    return gk_validate(s1, s2)


def test_gk_validate_torus():
    pair = kahler_pair()
    assert pair.Lp.rank == 2 and pair.Lm.rank == 2

def test_gk_validate_flat4():
    pair = kahler_pair(FLAT4)
    assert pair.Lp.rank == 2 and pair.Lm.rank == 2

def test_gk_rejects_negated_partner():
    s1 = make_complex(ABELIAN4, kahler_I(4))
    J2 = [[-x for x in row] for row in s1.J]
    s2 = make_general(ABELIAN4, J2)
    with pytest.raises(MetricNotPositive):
        gk_validate(s1, s2)

def test_gk_rejects_indefinite_pair():
    s1 = make_complex(ABELIAN4, kahler_I(4))
    s2 = make_symplectic(ABELIAN4,
                         Form.blade(4, [1, 2]) - Form.blade(4, [3, 4]))
    with pytest.raises(MetricNotPositive):
        gk_validate(s1, s2)

def test_gk_rejects_noncommuting():
    s1 = make_complex(ABELIAN4, kahler_I(4))
    s2 = make_symplectic(ABELIAN4,
                         Form.blade(4, [1, 3]) + Form.blade(4, [2, 4]))
    # omega = e13 + e24 anticommutes with the standard I
    with pytest.raises((NotCommuting, MetricNotPositive)):
        gk_validate(s1, s2)


def test_bigrading_dims():
    pair = kahler_pair()
    rep = bigrading(pair)
    assert rep.total_ok and rep.parity_ok and rep.commute_ok and rep.hodge_dims_ok
    assert rep.dims[(-2, 0)] == 1
    assert sum(rep.dims.values()) == 16
    assert all((r + s) % 2 == 0 for r, s in rep.dims)

def test_bigrading_flat4():
    rep = bigrading(kahler_pair(FLAT4))
    assert rep.total_ok and rep.parity_ok and rep.commute_ok and rep.hodge_dims_ok


def test_delta_split_torus_all_zero():
    pair = kahler_pair()
    rep = delta_split_check(pair)
    assert rep.residual_ok and rep.matches_delbar1 and rep.matches_delbar2
    assert rep.anticommute_ok and rep.strong_anticommute

def test_delta_split_flat4():
    # nonzero differentials here; the four components and the d_H^2 = 0
    # bidegree identities are real content, while the diagonal pairs
    # anticommute only in sum
    pair = kahler_pair(FLAT4)
    rep = delta_split_check(pair)
    assert rep.residual_ok and rep.matches_delbar1 and rep.matches_delbar2
    assert rep.anticommute_ok
    assert not rep.strong_anticommute

@pytest.mark.parametrize("name", ["torus4-kahler", "flat4-kahler"])
def test_dH_parts_match_per_blade_reference(name):
    path = Path(__file__).resolve().parent.parent / "corpus" / f"{name}.gcm"
    mf = parse_model(path.read_text())
    model = mf.model(name=name)
    blocks = {b.name: b for b in mf.blocks}
    pair = gk_validate(build_structure(mf, blocks["c"], model),
                       build_structure(mf, blocks["s"], model))
    def decompose2(w):
        return {(r, s): q for r, p in pair.s1.decompose(w).items()
                for s, q in pair.s2.decompose(p).items()}

    want = reference_dH_parts(decompose2, model,
                              lambda k, j: (j[0] - k[0], j[1] - k[1]))
    assert nonempty(pair.dH_parts) == want
    assert set(pair.dH_parts) == set(BIDEGREES.values())
    # U_{r,s} against the per-blade joint split: each blade split by s1's
    # blade parts, then each part by s2's
    joint = {}
    parts2 = grade_blades(pair.s2)
    for parts in grade_blades(pair.s1).values():
        for r, p in parts.items():
            for s, q in split_by_blades(parts2, p).items():
                joint.setdefault((r, s), []).append(q)
    assert pair.U2 == {rs: Subspace.span(16, vs) for rs, vs in joint.items()}

def test_both_structures_satisfy_ddbar():
    for model in (ABELIAN4, FLAT4):
        pair = kahler_pair(model)
        assert ddbar_check(pair.s1).holds
        assert ddbar_check(pair.s2).holds


def test_bigraded_cohomology_torus():
    pair = kahler_pair()
    rep = bigraded_cohomology(pair)
    assert rep.total_matches_twisted
    assert rep.blocks_decompose and rep.intersection_ok and rep.marginals_ok
    assert sum(rep.dims.values()) == 16
    assert rep.dims[(-2, 0)] == 1

def test_bigraded_cohomology_flat4():
    rep = bigraded_cohomology(kahler_pair(FLAT4))
    assert rep.total_matches_twisted
    assert rep.blocks_decompose and rep.intersection_ok and rep.marginals_ok
    assert sum(rep.dims.values()) == 8

@pytest.mark.parametrize("fault", ["overlapping", "missing"])
def test_bigraded_cohomology_rejects_bad_blocks(monkeypatch, fault):
    """Blocks whose classes overlap, or that leave a class of H out, are no
    direct sum of H, and their marginals reproduce neither decomposition:
    the (2, 0) block also gets the class of the (-2, 0) block (the blocks
    still span H), or loses its own."""
    import gchodge.gkaehler as gkaehler
    pair = kahler_pair()
    assert pair.U2_dims[(-2, 0)] == pair.U2_dims[(2, 0)] == 1
    src, dst = pair.U2_subspace(-2, 0), pair.U2_subspace(2, 0)
    closed_classes = gkaehler.closed_classes

    def patched(s, space):
        if space is dst:   # the block only, not s1's U_2 that equals it
            space = Subspace.span(space.ambient, dst.basis() + src.basis()) \
                if fault == "overlapping" else Subspace.zero(space.ambient)
        return closed_classes(s, space)

    monkeypatch.setattr(gkaehler, "closed_classes", patched)
    rep = bigraded_cohomology(pair)
    assert not rep.blocks_decompose
    assert not rep.marginals_ok


def test_algebroid_split_identities():
    pair = kahler_pair()
    rep1 = algebroid_split_check(pair.s1.L, pair.Lp, pair.Lm)
    assert rep1.ok
    rep2 = algebroid_split_check(pair.s2.L, pair.Lp, pair.Lm.conj())
    assert rep2.ok

def test_algebroid_split_identities_flat4():
    pair = kahler_pair(FLAT4)
    rep = algebroid_split_check(pair.s1.L, pair.Lp, pair.Lm)
    assert rep.ok

def test_algebroid_split_rejects_nonclosed():
    # {x1, x2} is not bracket-closed on Kodaira-Thurston: [x1, x2] = -x4
    # leaks into the complementary factor
    kt = LieModel(4, [(4, 1, 2, 1)])
    from gchodge.courant import algebroid_from_basis
    from gchodge.liemodel import LieAlgebroid
    # x_i is the unit vector at coordinate i-1
    L = algebroid_from_basis(kt, [{i: ONE} for i in range(4)])
    with pytest.raises(NotADecomposition):
        a1 = LieAlgebroid(kt, [{0: ONE}, {1: ONE}],
                          [[[QI(0)] * 2] * 2] * 2, name="bad")
        a2 = LieAlgebroid(kt, [{2: ONE}, {3: ONE}],
                          [[[QI(0)] * 2] * 2] * 2, name="rest")
        algebroid_split_check(L, a1, a2)


def corpus_gk_pairs():
    """(name, pair) for every corpus [gk] block of two structures that
    build and form a generalized Kaehler pair."""
    for path in sorted(CORPUS.glob("*.gcm")):
        mf = parse_model(path.read_text())
        model = mf.model(name=path.stem)
        blocks = {b.name: b for b in mf.blocks}
        for b in mf.blocks:
            if b.kind != "gk" or "first" not in b.data:
                continue
            try:
                s1, s2 = (build_structure(mf, blocks[b.data[key][0]], model)
                          for key in ("first", "second"))
                yield f"{path.stem}:{b.name}", gk_validate(s1, s2)
            except EngineError:
                continue


def test_gk_algebroids_match_the_cartan_formula():
    """d_L of L1+ and L1- (and their conjugates) on every mask equals the
    Cartan formula of tests/reference_algebroid.py."""
    pairs = list(corpus_gk_pairs())
    assert len(pairs) >= 3
    for name, pair in pairs:
        for L in (pair.Lp, pair.Lm, pair.Lp.conj(), pair.Lm.conj()):
            for mask in range(1 << L.rank):
                assert L.differential({mask: ONE}) \
                    == cartan_differential(L.bracket_table, {mask: ONE}), \
                    (name, L.name, mask)


def test_split_differentials_match_the_zero_padded_tables():
    """d_A1 and d_A2 of both decompositions the gk command checks (sp1:
    L1 = L1+ + L1-, sp2: L2 = L1+ + conj(L1-)), from the partition of the
    bracket entries, equal the differentials of the zero-padded split
    tables, as algebroids and by the Cartan formula, on every mask."""
    pairs = list(corpus_gk_pairs())
    assert len(pairs) >= 3
    nonzero = 0
    for name, pair in pairs:
        for L, A1, A2 in ((pair.s1.L, pair.Lp, pair.Lm),
                          (pair.s2.L, pair.Lp, pair.Lm.conj())):
            combined, d_A1, d_A2 = split_chains(L, A1, A2)
            tables = split_tables(combined.bracket_table, A1.rank)
            for chains, table in zip((d_A1, d_A2), tables):
                part = LieAlgebroid(L.ambient, combined.basis, table)
                for mask in range(1 << combined.rank):
                    got = chain_apply(chains, {mask: ONE})
                    assert got == part.differential({mask: ONE}) \
                        == cartan_differential(table, {mask: ONE}), \
                        (name, mask)
                    nonzero += bool(got)
    assert nonzero


def constant_complex_family(model=ABELIAN4):
    nv = 1
    return FamilySpec(model, "complex", nv,
                      samples=[(QI(Fraction(1, 2)),)],
                      It=pmat_from_qi(kahler_I(4), nv), name="const-complex")


def scaling_symplectic_family(model=ABELIAN4, mu=None):
    nv = 1
    w = torus_omega(4)
    mu = mu if mu is not None else w
    t = ParamPoly.var(nv, 0)
    return FamilySpec(model, "symplectic", nv,
                      samples=[(QI(Fraction(1, 2)),)],
                      omega_t=poly_two_form(model, nv,
                                            (ParamPoly.const(nv, ONE), w),
                                            (t, mu)),
                      name="scaling-symplectic")


def test_gk_deformation_compatible():
    f1 = constant_complex_family()
    f2 = scaling_symplectic_family()
    rep = gk_deformation_check(f1, f2)
    assert all(rep.samples_gk.values())
    assert rep.compatible

def test_gk_deformation_incompatible():
    # mu with a (2,0)+(0,2) part breaks the conjugation symmetry of rho_2
    mu = Form.blade(4, [1, 3]) - Form.blade(4, [2, 4])
    f1 = constant_complex_family()
    f2 = scaling_symplectic_family(mu=mu)
    rep = gk_deformation_check(f1, f2)
    assert not rep.compatible
    assert not all(rep.samples_gk.values())


def _failing_at_samples(monkeypatch, exc):
    """gk_validate as it is at the basepoint, raising exc at every sample."""
    from gchodge import gkaehler
    real = gkaehler.gk_validate
    calls = []

    def fake(s1, s2):
        calls.append(s1)
        if len(calls) > 1:
            raise exc
        return real(s1, s2)
    monkeypatch.setattr(gkaehler, "gk_validate", fake)
    return calls


def test_gk_deformation_records_an_engine_error_at_a_sample(monkeypatch):
    calls = _failing_at_samples(monkeypatch, NotCommuting("at the sample"))
    rep = gk_deformation_check(constant_complex_family(),
                               scaling_symplectic_family())
    assert len(calls) == 2
    assert list(rep.samples_gk.values()) == [False]
    assert rep.compatible


def test_gk_deformation_lets_a_programming_error_through(monkeypatch):
    """Only an engine error is a verdict on a sample; any other exception is
    a fault of the program and propagates."""
    _failing_at_samples(monkeypatch, TypeError("not a verdict"))
    with pytest.raises(TypeError, match="not a verdict"):
        gk_deformation_check(constant_complex_family(),
                             scaling_symplectic_family())


# -- exact checks over every blade and every cochain mask --------------------------

def test_delta_split_catches_one_blade_the_samples_missed():
    """A broken copy of the bidegree tables whose {delbar+, delbar-} is
    nonzero on one blade only, a blade that the 12 draws of the former
    sampled check (seed 5) never reach; the exact check reports NO."""
    import copy
    import random
    from gchodge.forms import spin_apply
    from gchodge.linalg import vec_add
    pair = kahler_pair()
    rng = random.Random(5)
    drawn = set()
    for _ in range(12):   # the former draws: a blade, then its coefficient
        drawn.add(rng.randrange(1 << pair.model.dim))
        rng.randrange(-2, 3)
    blade = min(set(range(1 << pair.model.dim)) - drawn)
    parts = {bd: dict(t) for bd, t in pair.dH_parts.items()}
    parts[BIDEGREES["delbar+"]][blade] = {0b0011: ONE}
    parts[BIDEGREES["delbar-"]][0b0011] = {0b0111: ONE}
    broken = copy.copy(pair)
    broken.dH_parts = parts

    def anticomm(a, b, v):
        pa, pb = parts[BIDEGREES[a]], parts[BIDEGREES[b]]
        return vec_add(spin_apply(pa, spin_apply(pb, v)),
                       spin_apply(pb, spin_apply(pa, v)))

    assert not any(anticomm("delbar+", "delbar-", {b: ONE}) for b in drawn)
    assert anticomm("delbar+", "delbar-", {blade: ONE})
    rep = delta_split_check(broken)
    assert not rep.anticommute_ok
    assert "bidegree components of d_H^2 = 0 vanish: NO" in rep.lines()
    assert delta_split_check(pair).anticommute_ok


def test_algebroid_split_check_covers_every_cochain_mask(monkeypatch):
    """d_A, d_A1 and d_A2 are tabled over every cochain mask, not only
    those of degree 1."""
    from gchodge import gkaehler
    seen = []
    real = gkaehler.chain_columns

    def recording(chains, masks):
        seen.append(list(masks))
        return real(chains, masks)

    monkeypatch.setattr(gkaehler, "chain_columns", recording)
    pair = kahler_pair(FLAT4)
    assert algebroid_split_check(pair.s1.L, pair.Lp, pair.Lm).ok
    assert seen == [list(range(1 << pair.s1.L.rank))] * 3


def test_algebroid_split_check_sees_a_missing_part(monkeypatch):
    """With d_A2's chains dropped, d_A = d_A1 + d_A2 fails on flat4, whose
    L1- brackets are nonzero, while the other two identities still hold."""
    from gchodge import gkaehler
    real = gkaehler.split_chains

    def without_d_A2(L, A1, A2):
        combined, d_A1, d_A2 = real(L, A1, A2)
        assert d_A2
        return combined, d_A1, []

    monkeypatch.setattr(gkaehler, "split_chains", without_d_A2)
    pair = kahler_pair(FLAT4)
    rep = algebroid_split_check(pair.s1.L, pair.Lp, pair.Lm)
    assert (rep.sum_ok, rep.squares_ok, rep.anticommute_ok) \
        == (False, True, True)
    assert rep.lines()[0] == "d_A = d_A1 + d_A2: FAILS"
