"""Constructors, grading projectors, del/delbar, and the symplectic phi map."""

import importlib.util
import io
import random
from contextlib import redirect_stdout
from fractions import Fraction
from math import comb
from pathlib import Path
from types import SimpleNamespace

import pytest

from gchodge import gcs
from gchodge.cohomology import delbar_dims, twisted_cohomology
from gchodge.courant import _clifford_vec, clifford_act, pairing
from gchodge.errors import (DegenerateOmega, EngineError, NotAlmostComplex,
                            NotIntegrable, NotOrthogonal, SpectrumViolation,
                            TwistWrongType, WrongType)
from gchodge.forms import Form, SpinOp, mukai_pairing, popcount, spin_apply
from gchodge.gcs import (GCStruct, _blocks, _grade_block, _project_blade,
                         _projector_plan, form_of_vec, make_complex,
                         make_general, make_symplectic, symp_delta, symp_phi)
from gchodge.liemodel import LieModel, _mask_indices
from gchodge.linalg import (Subspace, Vec, _axpy_into, kernel_lift, mat_inv,
                            vec_axpy, vec_conj, vec_scale)
from gchodge.modelfile import build_structure, parse_model
from gchodge.scalars import Half, I, ONE, QI

from test_linalg import mat_identity


ABELIAN4 = LieModel(4, [], name="torus4")
ABELIAN6 = LieModel(6, [], name="torus6")
KT = LieModel(4, [(4, 1, 2, 1)], name="kt")
KT_TW = LieModel(4, [(4, 1, 2, 1)], Form.blade(4, [1, 2, 3]), name="kt-tw")


def spin_op(dim: int, f) -> SpinOp:
    """The table of a linear map on forms, one column per basis blade, empty
    columns omitted."""
    cols: SpinOp = {}
    for mask in range(1 << dim):
        w = f(Form(dim, {mask: ONE}))
        if w.coeffs:
            cols[mask] = dict(w.coeffs)
    return cols


def std_I(dim):
    # x1 -> x2, x2 -> -x1, pairs (2k-1, 2k)
    M = [[QI(0)] * dim for _ in range(dim)]
    for k in range(dim // 2):
        M[2 * k + 1][2 * k] = ONE
        M[2 * k][2 * k + 1] = QI(-1)
    return M


def torus_omega(dim):
    w = Form(dim)
    for k in range(dim // 2):
        w = w + Form.blade(dim, [2 * k + 1, 2 * k + 2])
    return w


def complex_torus4():
    return make_complex(ABELIAN4, std_I(4))


def symplectic_torus4():
    return make_symplectic(ABELIAN4, torus_omega(4))


def kt_symplectic_twisted():
    return make_symplectic(KT_TW, Form.blade(4, [1, 4]) + Form.blade(4, [2, 3]),
                           -Form.blade(4, [3, 4]))


def test_make_general_complex_torus():
    s = complex_torus4()
    assert s.parity == 0
    want = Form.blade(4, [1, 3]) + Form.blade(4, [1, 4]).scale(I) \
        + Form.blade(4, [2, 3]).scale(I) - Form.blade(4, [2, 4])
    assert s.spinor == want

def test_make_general_symplectic_spinor():
    s = symplectic_torus4()
    w = torus_omega(4)
    assert s.spinor == w.scale(I).exp()
    assert s.parity == 0

def test_make_general_identity_rejected():
    with pytest.raises(NotAlmostComplex):
        make_general(ABELIAN4, mat_identity(8))

def test_make_general_rejects_a_non_real_J():
    # i Id squares to -1 and is orthogonal, but conj(U_k) = U_{-k}, which
    # the grading is built on, needs a real J
    iId = [[I if i == j else QI(0) for j in range(8)] for i in range(8)]
    with pytest.raises(NotAlmostComplex, match="real"):
        make_general(ABELIAN4, iId)

def test_make_general_rejects_a_J_that_is_not_orthogonal():
    # x1 -> 2 x2, x2 -> -x1/2, e1 -> e2, e2 -> -e1, and the standard rotation
    # on x3, x4, e3, e4: J^2 = -1, but <J x1, J e1> = <2 x2, e2> = 1, not 1/2
    J = [[QI(0)] * 8 for _ in range(8)]
    for col, row, c in ((0, 1, 2), (1, 0, Fraction(-1, 2)), (4, 5, 1),
                        (5, 4, -1), (2, 3, 1), (3, 2, -1), (6, 7, 1),
                        (7, 6, -1)):
        J[row][col] = QI(c)
    with pytest.raises(NotOrthogonal, match=r"^<Ja, Jb> != <a, b>$"):
        make_general(ABELIAN4, J)

def test_spinor_must_be_annihilated_by_L():
    # U_{-2} of the complex structure is not the pure spinor line of the
    # symplectic structure's L
    cx, sp = complex_torus4(), symplectic_torus4()
    with pytest.raises(EngineError, match="annihilated by L"):
        GCStruct(ABELIAN4, cx.J, sp.L)

def test_make_symplectic_twisted_kt():
    s = kt_symplectic_twisted()
    assert s.kind == "symplectic"
    assert KT_TW.d_H(s.spinor).is_zero()

def test_make_symplectic_degenerate():
    with pytest.raises(DegenerateOmega):
        make_symplectic(ABELIAN4, Form.blade(4, [1, 2]))

def test_make_complex_torus_eigenbundle():
    s = complex_torus4()
    # x1 + i x2, x3 + i x4, e1 + i e2, e3 + i e4
    span = [{0: ONE, 1: I}, {2: ONE, 3: I}, {4: ONE, 5: I}, {6: ONE, 7: I}]
    assert Subspace.span(8, s.L.basis) == Subspace.span(8, span)

def test_make_complex_wrong_twist_type_dim6():
    # real (3,0)+(0,3) form on the 6-torus
    z123 = (Form.blade(6, [1]) + Form.blade(6, [2]).scale(I)) \
        .wedge(Form.blade(6, [3]) + Form.blade(6, [4]).scale(I)) \
        .wedge(Form.blade(6, [5]) + Form.blade(6, [6]).scale(I))
    H = z123 + z123.conj()
    m = LieModel(6, [], H)
    with pytest.raises(TwistWrongType):
        make_complex(m, std_I(6))

def test_make_complex_identity_rejected():
    with pytest.raises(NotAlmostComplex):
        make_complex(ABELIAN4, mat_identity(4))

def test_make_complex_not_integrable_on_kt():
    # pairing (x1,x3),(x2,x4) is not integrable on Kodaira-Thurston
    M = [[QI(0)] * 4 for _ in range(4)]
    M[2][0], M[0][2] = ONE, QI(-1)
    M[3][1], M[1][3] = ONE, QI(-1)
    with pytest.raises(NotIntegrable):
        make_complex(KT, M)

def test_kt_standard_complex_structure_is_integrable():
    # the Kodaira surface: standard I on KT is invariantly integrable
    s = make_complex(KT, std_I(4))
    assert s.kind == "complex"


# -- grading -------------------------------------------------------------------

def test_projector_resolution_and_orthogonality():
    for s in (complex_torus4(), symplectic_torus4(), kt_symplectic_twisted()):
        total = sum(s.U_dims.values())
        assert total == 1 << s.model.dim
        rng = random.Random(1)
        for _ in range(6):
            w = Form(4, {rng.randrange(16): QI(rng.randrange(-2, 3), 1)})
            parts = s.decompose(w)
            back = Form(4)
            for k, p in parts.items():
                back = back + p
                # projector idempotence / orthogonality
                again = s.decompose(p)
                assert set(again) <= {k}
            assert back == w

def test_projector_conjugation_symmetry():
    for s in (complex_torus4(), symplectic_torus4()):
        for k in range(-s.n, s.n + 1):
            assert s.U_subspace(k).conj() == s.U_subspace(-k)

def test_complex_torus_projector_values():
    s = complex_torus4()
    spinor_line = s.spinor
    assert s.project(-2, spinor_line) == spinor_line
    assert s.project(-1, Form.blade(4, [1])) == \
        (Form.blade(4, [1]) + Form.blade(4, [2]).scale(I)).scale(QI(Fraction(1, 2)))

def test_symplectic_spinor_spans_bottom():
    s = symplectic_torus4()
    assert s.project(-2, s.spinor) == s.spinor
    assert s.U_dims[-2] == 1

def test_grading_dims_complex_torus():
    s = complex_torus4()
    assert [s.U_dims[k] for k in range(-2, 3)] == [1, 4, 6, 4, 1]

def test_clifford_action_shifts_grading():
    for s in (complex_torus4(), kt_symplectic_twisted()):
        for k in range(-s.n, s.n + 1):
            for v in s.U_subspace(k).basis():
                w = Form(s.model.dim, dict(v))
                for l in s.L.basis:  # L lowers
                    out = s.decompose(clifford_act(l, w))
                    assert set(out) <= {k - 1}
                for l in s.L.basis:  # conj(L) = L* raises
                    out = s.decompose(clifford_act(vec_conj(l), w))
                    assert set(out) <= {k + 1}

def test_mukai_orthogonality_of_grading():
    for s in (complex_torus4(), symplectic_torus4(),
              make_complex(ABELIAN6, std_I(6)),
              make_symplectic(ABELIAN6, torus_omega(6))):
        dim = s.model.dim
        for j in range(-s.n, s.n + 1):
            for k in range(-s.n, s.n + 1):
                pair_on = []
                for u in s.U_subspace(j).basis():
                    for v in s.U_subspace(k).basis():
                        p = mukai_pairing(Form(dim, dict(u)), Form(dim, dict(v)))
                        pair_on.append(p)
                if j + k != 0:
                    assert all(not p for p in pair_on)
        # nondegeneracy on U_j x U_{-j}
        for j in range(-s.n, s.n + 1):
            uj = s.U_subspace(j).basis()
            uk = s.U_subspace(-j).basis()
            if not uj:
                continue
            from gchodge.linalg import mat_det
            G = [[mukai_pairing(Form(dim, dict(a)), Form(dim, dict(b)))
                  for b in uk] for a in uj]
            assert mat_det(G)


# -- the grading against the 2n+1-node reference -------------------------------

CORPUS = Path(__file__).resolve().parent.parent / "corpus"

# the two dim-8 models of the benchmark's scale8 workload
SCALE8 = {
    "torus8": ("dim = 8\nH = 0\n\n[symplectic main]\n"
               "omega = 1 e1^e2 + 1 e3^e4 + 1 e5^e6 + 1 e7^e8\n"),
    "kt8": ("dim = 8\nd e4 = 1 e1^e2\nH = 0\n\n[symplectic main]\n"
            "omega = 1 e1^e4 + 1 e2^e3 + 1 e5^e6 + 1 e7^e8\n"),
}


def structures_of(text, name):
    """(name:block, structure) for every structure block that builds."""
    mf = parse_model(text)
    model = mf.model(name=name)
    if not model.validate().ok:
        return
    for b in mf.blocks:
        if b.kind in ("symplectic", "complex", "general"):
            try:
                yield f"{name}:{b.name}", build_structure(mf, b, model)
            except EngineError:
                continue


def build_main(text, name):
    """The structure of a model file's only block, errors raised."""
    mf = parse_model(text)
    [block] = mf.blocks
    return build_structure(mf, block, mf.model(name=name))


def corpus_structures():
    for path in sorted(CORPUS.glob("*.gcm")):
        yield from structures_of(path.read_text(), path.stem)


def bench_dense():
    """The benchmark's change-of-basis module, bench/dense.py, which never
    calls the engine."""
    spec = importlib.util.spec_from_file_location(
        "bench_dense", CORPUS.parent / "bench" / "dense.py")
    dense = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(dense)
    return dense


def dense_model_text(name, seed):
    """A corpus model under the benchmark's seeded rational change of
    basis."""
    dense = bench_dense()
    text = (CORPUS / f"{name}.gcm").read_text()
    basis = dense.random_basis(dense.parse_model_text(text)["dim"],
                               random.Random(seed))
    return dense.transform_model(text, basis, f"{name}, seed {seed}")


def dual_frame(dim: int) -> list[Vec]:
    """The E_C basis dual to the coordinate basis x_1..x_dim, e^1..e^dim under
    the pairing: 2 e^a for x_a and 2 x_a for e^a."""
    return [{(a + dim) % (2 * dim): QI(2)} for a in range(2 * dim)]


def reference_grading(s):
    """(N, blade parts, U bases, parity, U_dims) by the former algorithm: N
    from Form-level Clifford actions of J's columns, every blade projected
    with all 2n+1 nodes -n..n, and the parity read off the U bases."""
    dim, n = s.model.dim, s.n
    duals = []
    for a, v in enumerate(dual_frame(dim)):
        col = {b: s.J[b][a] for b in range(2 * dim) if s.J[b][a]}
        duals.append((col, v))
    trace = QI(0)
    for Ju, v in duals:
        trace = trace + pairing(dim, Ju, v)
    quarter = QI(Fraction(1, 4))

    def act(w):
        out = Form(dim)
        for Ju, v in duals:
            out = out + clifford_act(Ju, clifford_act(v, w))
        return out.scale(quarter) - w.scale(trace * quarter)

    N = spin_op(dim, act)
    ks = list(range(-n, n + 1))
    minpoly = [ONE]
    for k in ks:
        minpoly = [a * QI(0, k) + b for a, b
                   in zip(minpoly + [QI(0)], [QI(0)] + minpoly)]
    vand_inv = mat_inv([[QI(0, -k) ** m for k in ks] for m in range(len(ks))])
    blade_parts = {}
    u_vecs = {k: [] for k in ks}
    for mask in range(1 << dim):
        powers = [{mask: ONE}]
        for _ in ks:
            powers.append(spin_apply(N, powers[-1]))
        resid = {}
        for c, p in zip(minpoly, powers):
            resid = vec_axpy(resid, c, p)
        assert not resid, mask
        parts = {}
        for idx, k in enumerate(ks):
            comp = {}
            for c, p in zip(vand_inv[idx], powers):
                comp = vec_axpy(comp, c, p)
            if comp:
                parts[k] = comp
                u_vecs[k].append(comp)
        blade_parts[mask] = parts
    U = {k: Subspace.span(1 << dim, u_vecs[k]) for k in ks}
    parities = {(popcount(m) - (k + n)) % 2
                for k in ks for v in U[k].basis() for m in v}
    assert len(parities) == 1
    return (N, blade_parts, {k: U[k].basis() for k in ks}, parities.pop(),
            {k: U[k].dim for k in ks})


def reference_spinor(s):
    """The pure spinor by the former algorithm: the common kernel of the
    Clifford actions of L's basis, lifted over all 2^dim blades one element
    at a time, normalised to 1 at its first blade of lowest degree."""
    cur = [{m: ONE} for m in range(1 << s.model.dim)]
    for l in s.L.basis:
        cur = kernel_lift([_clifford_vec(s.model.dim, l, b) for b in cur], cur)
    [v] = cur
    lead = min(v, key=lambda m: (popcount(m), m))
    return Form(s.model.dim, vec_scale(v, v[lead].inv()))


def grade_blades(s):
    """Every blade's parts {mask: {k: Vec}} by the engine's per-blade kernel:
    _project_blade over all 2^dim blades, each with the plan of its parity
    class."""
    cls = (s.parity - s.n) % 2
    plans = [_projector_plan(s.n, c) for c in (0, 1)]
    return {mask: _project_blade(s.N, mask, plans[(popcount(mask) + cls) % 2])
            for mask in range(1 << s.model.dim)}


def assert_grading_matches_reference(name, s):
    """The grading and the pure spinor against reference_grading and
    reference_spinor, and the per-blade kernel against the reference's blade
    parts on the whole spinor space."""
    N, blade_parts, bases, parity, dims = reference_grading(s)
    assert s.N == N, name
    parts = grade_blades(s)
    assert parts == blade_parts, name
    assert {k: U.basis() for k, U in s.U.items()} == bases, name
    assert list(s.U) == list(range(-s.n, s.n + 1)), name
    assert all(list(p) == sorted(p) for p in parts.values()), name
    assert (s.parity, s.U_dims) == (parity, dims), name
    assert s.spinor == reference_spinor(s), name


def test_grading_matches_reference_on_corpus():
    built = list(corpus_structures())
    for name, s in built:
        assert_grading_matches_reference(name, s)
    assert len(built) >= 15
    assert {s.parity for _, s in built} == {0, 1}


def test_conj_of_every_corpus_U_k_is_the_span_of_the_conjugates():
    for name, s in corpus_structures():
        for k, U in s.U.items():
            want = Subspace.span(U.ambient, [vec_conj(v) for v in U.basis()])
            assert U.conj().basis() == want.basis(), (name, k)


@pytest.mark.parametrize("name", sorted(SCALE8))
def test_grading_matches_reference_at_dim8(name):
    assert_grading_matches_reference(name, build_main(SCALE8[name], name))


def test_repeated_blocks_are_graded_once(monkeypatch):
    # torus8's J is four copies of one 4x4 block: the first is graded and the
    # other three take its U_k bases, relabelled onto their own blades
    calls = []
    monkeypatch.setattr(gcs, "_grade_block",
                        lambda *args: calls.append(args) or _grade_block(*args))
    s = build_main(SCALE8["torus8"], "torus8")
    assert len(_blocks(s.J, 8)) == 4 and len(calls) == 1
    assert_grading_matches_reference("torus8", s)


def test_grading_matches_reference_on_dense_model():
    s = build_main(dense_model_text("torus6-complex", 1), "dense")
    assert any(len(col) > 1 for col in s.N.values())
    assert_grading_matches_reference("dense", s)


def test_blade_outside_its_parity_class_raises_naming_it():
    # a real rotation of blades 5 and 6, with eigenvalues -i and i (k = 1 and
    # -1), and 0 elsewhere: both lie outside the class {-2, 0, 2} of n = 2,
    # cls = 0
    plan = _projector_plan(2, 0)
    N = {5: {6: ONE}, 6: {5: -ONE}}
    assert _project_blade(N, 3, plan) == {0: {3: ONE}}
    with pytest.raises(SpectrumViolation, match=r"on blade 5\b") as exc:
        _project_blade(N, 5, plan)
    assert exc.value.details == {"blade": 5}
    # the same eigenvalues are in range for the other class: blade 5 is half
    # the -i eigenvector 5 + i 6 plus half its conjugate
    assert _project_blade(N, 5, _projector_plan(2, 1)) == {
        -1: {5: Half, 6: -Half * I}, 1: {5: Half, 6: Half * I}}


def test_block_violation_names_the_blade_on_the_model():
    # the rotation above, on the blades of generators 3..6: blade 1 << 2 has
    # the eigenvalue 0, outside the odd class {-i, i}
    N = {5 << 2: {6 << 2: ONE}, 6 << 2: {5 << 2: -ONE}}
    with pytest.raises(SpectrumViolation, match=r"on blade 4\b") as exc:
        _grade_block(N, 2, [mask << 2 for mask in range(16)], 1 << 6)
    assert exc.value.details == {"blade": 4}


def test_blocks_of_J():
    kt = dict(corpus_structures())["kt:main"]
    assert _blocks(kt.J, 4) == [[0, 3], [1, 2]]
    kt8 = build_main(SCALE8["kt8"], "kt8")
    assert [len(b) for b in _blocks(kt8.J, 8)] == [2, 2, 2, 2]
    dense = build_main(dense_model_text("torus6-complex", 1), "dense")
    assert _blocks(dense.J, 6) == [list(range(6))]


def test_one_block_kt8_grades_as_its_four_blocks():
    # kt8 under f^i = e^i +- e^{i+1} with unit steps: its J is one block, so
    # the one-factor product is pitted against kt8's four-factor one
    kt8 = build_main(SCALE8["kt8"], "kt8")
    dense = bench_dense()
    basis = dense.identity(8)
    for i in range(7):
        basis[i][i + 1] = Fraction((-1) ** i)
    text = dense.transform_model(SCALE8["kt8"], basis, "kt8, unit steps")
    s = build_main(text, "kt8-one-block")
    assert len(_blocks(s.J, 8)) == 1 and len(_blocks(kt8.J, 8)) == 4
    assert (s.parity, s.U_dims) == (kt8.parity, kt8.U_dims)
    assert delbar_dims(s) == delbar_dims(kt8)
    tw, tw8 = twisted_cohomology(s.model), twisted_cohomology(kt8.model)
    assert (tw.dim_even, tw.dim_odd) == (tw8.dim_even, tw8.dim_odd)


def split_by_blades(blade_parts, v):
    """v split along per-blade graded parts {mask: {degree: Vec}}; only the
    nonzero parts are kept."""
    parts = {}
    for mask, c in v.items():
        for k, p in blade_parts[mask].items():
            _axpy_into(parts.setdefault(k, {}), c, p)
    return {k: p for k, p in parts.items() if p}


def test_decompose_matches_per_blade_split():
    built = [*corpus_structures(), ("kt8", build_main(SCALE8["kt8"], "kt8"))]
    rng = random.Random(3)
    for name, s in built:
        dim, parts = s.model.dim, grade_blades(s)
        forms = [s.spinor, Form(dim, {m: ONE for m in range(1 << dim)})]
        for _ in range(3):
            forms.append(Form(dim, {rng.randrange(1 << dim): QI(
                rng.randrange(-2, 3), rng.randrange(-2, 3)) for _ in range(5)}))
        for w in forms:
            want = {k: form_of_vec(dim, v) for k, v
                    in split_by_blades(parts, w.coeffs).items()}
            assert s.decompose(w) == want, name


def test_dim10_symplectic_torus_grading():
    s = make_symplectic(LieModel(10, [], name="torus10"), torus_omega(10))
    assert s.U_dims == {k: comb(10, k + 5) for k in range(-5, 6)}
    assert s.U_subspace(-5).dim == 1
    assert s.project(-5, s.spinor) == s.spinor


# -- del / delbar ----------------------------------------------------------------

def split_dH(s, w):
    """(del w, delbar w, residual) read off the structure's d_H tables."""
    parts = {k: Form(w.dim, spin_apply(t, w.coeffs))
             for k, t in s.dH_parts.items()}
    res = Form(w.dim)
    for k, p in parts.items():
        if k not in (-1, 1):
            res = res + p
    return parts[-1], parts[1], res

def reference_dH_parts(decompose, model, shift):
    """The per-blade derivation the tables replace: decompose each blade,
    apply d_H to each graded part on Forms, decompose again, and bucket the
    pieces by shift(k, j); empty columns and tables are dropped."""
    dim = model.dim
    out = {}
    for mask in range(1 << dim):
        for k, comp in decompose(Form(dim, {mask: ONE})).items():
            for j, piece in decompose(model.d_H(comp)).items():
                cols = out.setdefault(shift(k, j), {})
                cols[mask] = cols.get(mask, Form(dim)) + piece
    tables = {key: {m: dict(f.coeffs) for m, f in cols.items() if f.coeffs}
              for key, cols in out.items()}
    return {key: t for key, t in tables.items() if t}

def reference_shift_tables(blade_parts, op, shift):
    """op split along the grading given by per-blade parts: {shift(k, j):
    table of the part of op taking degree k to degree j}, empty columns and
    tables dropped."""
    tables = {}
    for mask, parts in blade_parts.items():
        cols = {}
        for k, p in parts.items():
            for j, q in split_by_blades(blade_parts, spin_apply(op, p)).items():
                _axpy_into(cols.setdefault(shift(k, j), {}), ONE, q)
        for key, col in cols.items():
            if col:
                tables.setdefault(key, {})[mask] = col
    return tables

def assert_dH_parts_match_shift_tables(name, s):
    want = reference_shift_tables(grade_blades(s), s.model.dH_table,
                                  lambda k, j: j - k)
    assert s.dH_parts == {-1: {}, 1: {}, **want}, name

def nonempty(parts):
    return {key: t for key, t in parts.items() if t}

def test_dH_parts_match_per_blade_reference():
    for s in (complex_torus4(), symplectic_torus4(), kt_symplectic_twisted()):
        want = reference_dH_parts(s.decompose, s.model, lambda k, j: j - k)
        assert nonempty(s.dH_parts) == want
        assert set(s.dH_parts) == {-1, 1}

def test_dH_parts_match_reference_shift_tables():
    built = [*corpus_structures(), ("kt8", build_main(SCALE8["kt8"], "kt8")),
             *structures_of(dense_model_text("torus6-complex", 1), "dense1"),
             *structures_of(dense_model_text("kt-twisted", 2), "dense2"),
             ("broken_kt", broken_kt())]
    for name, s in built:
        assert_dH_parts_match_shift_tables(name, s)
    assert len(built) >= 19

def test_dH_parts_outside_the_quartic_raise():
    # a 5-form acting by wedge has grading shifts of +-5 on the symplectic
    # 6-torus, outside the spectrum of d_H
    s = make_symplectic(ABELIAN6, torus_omega(6))
    five = Form.blade(6, [1, 2, 3, 4, 5])
    s.model = SimpleNamespace(dim=6, dH_table=spin_op(6, five.wedge))
    with pytest.raises(SpectrumViolation, match="-3i, -i, i, 3i"):
        s.dH_parts

def test_dH_parts_of_a_torus_build_no_N_table():
    # d_H = 0 on a torus: nothing to split, so no spinorial table is built
    for s in (complex_torus4(), symplectic_torus4(),
              build_main(SCALE8["torus8"], "torus8")):
        assert s.dH_parts == {-1: {}, 1: {}}
        assert "N" not in vars(s)
    s = kt_symplectic_twisted()
    assert s.dH_parts[1] or s.dH_parts[-1]
    assert "N" in vars(s)

def test_del_and_delbar_abelian_zero():
    s = complex_torus4()
    rng = random.Random(7)
    for _ in range(5):
        w = Form(4, {rng.randrange(16): QI(1, rng.randrange(-1, 2))})
        lo, hi, res = split_dH(s, w)
        assert lo.is_zero() and hi.is_zero() and res.is_zero()

def test_del_and_delbar_residual_vanishes_kt():
    s = kt_symplectic_twisted()
    for mask in range(16):
        w = Form(4, {mask: ONE})
        lo, hi, res = split_dH(s, w)
        assert res.is_zero()
        assert lo + hi == s.model.d_H(w)

def test_del_and_delbar_identities():
    s = kt_symplectic_twisted()
    for mask in range(16):
        w = Form(4, {mask: ONE})
        assert s.partial(s.partial(w)).is_zero()
        assert s.delbar(s.delbar(w)).is_zero()
        assert (s.partial(s.delbar(w)) + s.delbar(s.partial(w))).is_zero()

def broken_kt():
    # drop the twist to break integrability of the B-shifted symplectic J
    s = kt_symplectic_twisted()
    broken = GCStruct.__new__(GCStruct)
    broken.__dict__.update(s.__dict__)
    broken.model = KT  # same J, wrong Dorfman twist -> d_H loses a component
    return broken

def test_almost_structure_residual_nonzero():
    broken = broken_kt()
    bad = False
    for mask in range(16):
        _lo, _hi, res = split_dH(broken, Form(4, {mask: ONE}))
        if not res.is_zero():
            bad = True
    assert bad

def test_broken_dH_parts_match_reference():
    broken = broken_kt()
    want = reference_dH_parts(broken.decompose, KT, lambda k, j: j - k)
    assert nonempty(broken.dH_parts) == want
    assert set(want) - {-1, 1}


# -- symplectic phi / delta --------------------------------------------------------

def test_phi_basics():
    s = symplectic_torus4()
    assert symp_phi(s, Form.one(4)) == s.spinor
    assert s.delbar(symp_phi(s, Form.blade(4, [1]))).is_zero()

def test_phi_grades():
    for s in (symplectic_torus4(), kt_symplectic_twisted()):
        for k in range(5):
            for mask in range(16):
                if popcount(mask) != k:
                    continue
                img = symp_phi(s, Form(4, {mask: ONE}))
                parts = s.decompose(img)
                assert set(parts) <= {k - 2}
    # bijectivity per degree: dims match
    s = symplectic_torus4()
    from gchodge.linalg import Subspace
    for k in range(5):
        vecs = [dict(symp_phi(s, Form(4, {m: ONE})).coeffs)
                for m in range(16) if popcount(m) == k]
        assert Subspace.span(16, vecs).dim == len(vecs)

def test_phi_intertwines_kt():
    s = kt_symplectic_twisted()
    m = s.model
    half_i = ONE / (2 * I)
    for mask in range(16):
        a = Form(4, {mask: ONE})
        assert s.delbar(symp_phi(s, a)) == symp_phi(s, m.d(a))
        assert s.partial(symp_phi(s, a)) == symp_phi(s, symp_delta(s, a)).scale(-half_i)

def test_phi_kt_example():
    s = kt_symplectic_twisted()
    assert s.delbar(symp_phi(s, Form.blade(4, [4]))) == \
        symp_phi(s, Form.blade(4, [1, 2]))

def test_phi_wrong_type():
    with pytest.raises(WrongType):
        symp_phi(complex_torus4(), Form.one(4))


# -- cochain Clifford action -----------------------------------------------------

def reference_cliff_cochain(s, c, w):
    """The cochain Clifford action mask by mask, through the half-normalized
    identification L* = conj(L), ascending factors acting right-to-left (the
    engine's action before it read the table)."""
    out = Form(s.model.dim)
    for mask, coeff in c.items():
        term = w.coeffs
        for i in reversed(_mask_indices(mask)):
            term = _clifford_vec(s.model.dim, s.dual_basis[i], term)
        out = out + Form(s.model.dim, term).scale(coeff)
    return out


def test_cliff_table_matches_cliff_cochain():
    """Every column of the table, and the action of a cochain of several
    masks, equal the per-mask reference."""
    rng = random.Random(23)
    checked = 0
    for name, s in corpus_structures():
        table = s.cliff_table(s.spinor)
        assert sorted(table) == list(range(1 << s.L.rank)), name
        for mask, col in table.items():
            assert Form(s.model.dim, col) == \
                reference_cliff_cochain(s, {mask: ONE}, s.spinor), (name, mask)
        for w in (s.spinor, s.spinor.conj()):
            c = {mask: QI(rng.randrange(-3, 4), rng.randrange(-2, 3))
                 for mask in rng.sample(range(1 << s.L.rank), 4)}
            assert s.cliff_cochain(c, w) == reference_cliff_cochain(s, c, w), \
                (name, c)
        checked += 1
    assert checked >= 10


def test_cliff_cochain_builds_only_the_masks_it_applies(monkeypatch):
    """On random cochains, including 2-cochains as the KS action applies,
    the action equals the full table applied to the cochain, and it builds
    one column per nonzero mask of the cochain and lowest-bit-stripped
    prefix of one, no other."""
    rng = random.Random(41)
    calls = []
    real = gcs._clifford_vec

    def counting(*args):
        calls.append(args)
        return real(*args)

    checked = 0
    for name, s in corpus_structures():
        rank = s.L.rank
        for w in (s.spinor, s.spinor.conj()):
            table = s.cliff_table(w)
            for size, masks in ((2, [m for m in range(1 << rank)
                                     if popcount(m) == 2]),
                                (3, range(1 << rank))):
                chosen = rng.sample(list(masks), min(size, len(masks)))
                c = {m: QI(rng.randrange(1, 4), rng.randrange(-2, 3))
                     for m in chosen}
                prefixes = set()
                for m in c:
                    while m:
                        prefixes.add(m)
                        m &= m - 1
                monkeypatch.setattr(gcs, "_clifford_vec", counting)
                calls.clear()
                got = s.cliff_cochain(c, w)
                monkeypatch.setattr(gcs, "_clifford_vec", real)
                assert got == Form(s.model.dim, spin_apply(table, c)), \
                    (name, c)
                assert len(calls) == len(prefixes), (name, c)
        checked += 1
    assert checked >= 10


def test_dual_basis_is_formed_by_the_cochain_action_only(monkeypatch):
    """A structure inverts L's pairing matrix for its dual basis on first
    use: hodge never forms it, and gcy, whose chain identity takes the
    cochain Clifford action, does."""
    from gchodge.cli import main as cli_main
    formed = []
    real = GCStruct.__dict__["dual_basis"].func

    def counting(self):
        formed.append(self.kind)
        return real(self)

    monkeypatch.setattr(GCStruct, "dual_basis", property(counting))
    with redirect_stdout(io.StringIO()):
        assert cli_main(["hodge", str(CORPUS / "torus6-kahler.gcm")]) == 0
    assert formed == []
    with redirect_stdout(io.StringIO()):
        cli_main(["gcy", str(CORPUS / "torus4-kahler.gcm")])
    assert formed
