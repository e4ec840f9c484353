"""Polynomial families of generalized complex structures over rational
parameters: validation, deformation graphs, generalized Kodaira-Spencer
classes, Gauss-Manin derivatives, Griffiths transversality, period-map
holomorphy, symplectic filtration tracking, and Calabi-Yau period data.

The twist is fixed across the family (trivialized product normal form), so
every derivative here is a formal polynomial derivative and stays exact.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .cohomology import (_preimage_in, chain_subspace, closed_classes,
                         ddbar_check, delbar_cohomology, filtration_subspace,
                         invariant_derham, lefschetz_check, once_per_structure,
                         twisted_cohomology)
from .courant import GenElem, pairing
from .errors import (EngineError, ExtensionFailed, GraphConditionFailed,
                     NoInvariantSpinor, NotClosed, SectionNotClosed,
                     SpinorNotClosed, WrongType)
from .forms import Form, mukai_pairing, popcount, spin_apply
from .gcs import (GCStruct, Half, dual_frame, flat_matrix, form_of_vec,
                  make_complex, make_general, make_symplectic)
from .liemodel import LieModel
from .linalg import (Echelon, Matrix, QuotientSpace, Subspace, Vec, mat_add,
                     mat_det, mat_inv, mat_mul, mat_vec, solve_columns,
                     vec_axpy, vec_scale)
from .poly import (ParamPoly, PolyForm, PolyMatrix, dH_poly, pmat_diff,
                   pmat_eval, pmat_from_qi, pmat_vec)
from .scalars import I, ONE, QI


class FamilySpec:
    """A polynomial family over t_1..t_m with the model and twist fixed.

    kind 'general' stores a polynomial J(t); 'symplectic' stores polynomial
    omega(t), B(t) (J(t) is rational in t there, so the generating data is
    kept instead); 'complex' stores a polynomial I(t).
    """

    def __init__(self, model: LieModel, kind: str, nvars: int,
                 samples=(), basepoint=None, name: str = "",
                 Jt: PolyMatrix | None = None,
                 omega_t: PolyForm | None = None, B_t: PolyForm | None = None,
                 It: PolyMatrix | None = None):
        self.model = model
        self.kind = kind
        self.nvars = nvars
        self.name = name
        self.basepoint = tuple(basepoint) if basepoint is not None \
            else tuple(QI(0) for _ in range(nvars))
        self.samples = [tuple(s) for s in samples]
        self.Jt = Jt
        self.omega_t = omega_t
        self.B_t = B_t if B_t is not None else (
            PolyForm(model.dim, nvars) if kind == "symplectic" else None)
        self.It = It
        self._cache: dict[tuple, GCStruct] = {}

    # -- evaluation ---------------------------------------------------------

    def structure_at(self, pt) -> GCStruct:
        pt = tuple(pt)
        if pt not in self._cache:
            if self.kind == "general":
                s = make_general(self.model, pmat_eval(self.Jt, pt))
            elif self.kind == "symplectic":
                s = make_symplectic(self.model, self.omega_t.eval(pt),
                                    self.B_t.eval(pt))
            elif self.kind == "complex":
                s = make_complex(self.model, pmat_eval(self.It, pt))
            else:
                raise WrongType(f"unknown family kind {self.kind!r}")
            self._cache[pt] = s
        return self._cache[pt]

    def base_structure(self) -> GCStruct:
        return self.structure_at(self.basepoint)

    def J_poly(self) -> PolyMatrix | None:
        """Polynomial J(t) when it exists (general and complex kinds)."""
        if self.kind == "general":
            return self.Jt
        if self.kind == "complex":
            dim = self.model.dim
            nv = self.nvars
            out = [[ParamPoly(nv) for _ in range(2 * dim)] for _ in range(2 * dim)]
            for i in range(dim):
                for j in range(dim):
                    out[i][j] = self.It[i][j].scale(QI(-1))
                    out[dim + i][dim + j] = self.It[j][i]
            return out
        return None

    def J_dot(self, j: int) -> Matrix:
        """Entrywise derivative of J(t) at the basepoint, all kinds."""
        if self.kind in ("general", "complex"):
            return pmat_eval(pmat_diff(self.J_poly(), j), self.basepoint)
        # symplectic: J = [[bB, -b], [w + BbB, -Bb]] with b = w^{-1}
        dim = self.model.dim
        W = flat_matrix(self.omega_t.eval(self.basepoint))
        Wd = flat_matrix(self.omega_t.diff(j).eval(self.basepoint))
        Bm = flat_matrix(self.B_t.eval(self.basepoint))
        Bd = flat_matrix(self.B_t.diff(j).eval(self.basepoint))
        b = mat_inv(W)
        bd = [[-x for x in row] for row in mat_mul(b, mat_mul(Wd, b))]
        out = [[QI(0)] * (2 * dim) for _ in range(2 * dim)]
        blk11 = mat_add(mat_mul(bd, Bm), mat_mul(b, Bd))
        blk12 = [[-x for x in row] for row in bd]
        blk21 = mat_add(mat_add(Wd, mat_mul(Bd, mat_mul(b, Bm))),
                        mat_add(mat_mul(Bm, mat_mul(bd, Bm)),
                                mat_mul(Bm, mat_mul(b, Bd))))
        blk22 = [[-x for x in row]
                 for row in mat_add(mat_mul(Bd, b), mat_mul(Bm, bd))]
        for i in range(dim):
            for jj in range(dim):
                out[i][jj] = blk11[i][jj]
                out[i][dim + jj] = blk12[i][jj]
                out[dim + i][jj] = blk21[i][jj]
                out[dim + i][dim + jj] = blk22[i][jj]
        return out


# -- validation ------------------------------------------------------------------

@dataclass
class FamilyReport:
    ok: bool
    failures: list[tuple[tuple, str]]

    def lines(self):
        if self.ok:
            return ["family valid at basepoint and all samples"]
        return [f"family INVALID at t={pt}: {msg}" for pt, msg in self.failures]


def family_validate(f: FamilySpec) -> FamilyReport:
    failures = []
    for pt in [f.basepoint] + f.samples:
        try:
            f.structure_at(pt)
        except EngineError as e:
            failures.append((pt, f"{e.code}: {e}"))
    return FamilyReport(not failures, failures)


# -- the polynomial frame of L_t ----------------------------------------------------

def _l_frame(f: FamilySpec):
    """Polynomial vectors u_a(t) in E_C coordinates with u_a(basepoint) = l_a,
    spanning L_t near the basepoint."""
    base = f.base_structure()
    dim = f.model.dim
    nv = f.nvars
    lbasis = base.L.basis
    if f.kind in ("general", "complex"):
        Jp = f.J_poly()
        frame = []
        for l in lbasis:
            coords = [ParamPoly.const(nv, c) for c in list(l.vec) + list(l.cov)]
            Jl = pmat_vec(Jp, coords)
            u = [(c - Jl_i.scale(I)).scale(Half) for c, Jl_i in zip(coords, Jl)]
            frame.append(u)
        return frame, lbasis
    # symplectic: L_t is the graph {X - i sigma(t) X}
    sigma = f.omega_t + f.B_t.scale(I)
    raw = []
    for i in range(dim):
        u = [ParamPoly(nv) for _ in range(2 * dim)]
        u[i] = ParamPoly.const(nv, ONE)
        ix = sigma.contract_index(i + 1)
        for mask, p in ix.coeffs.items():
            u[dim + mask.bit_length() - 1] = p.scale(QI(0, -1))
        raw.append(u)
    # recombine constantly so the frame hits the canonical basis at basepoint
    raw_at_base = [[p.eval(f.basepoint) for p in u] for u in raw]
    cols = [{k: c for k, c in enumerate(u) if c} for u in raw_at_base]
    frame = []
    for l in lbasis:
        sol = solve_columns(cols, l.to_coords())
        if sol is None:
            raise EngineError("symplectic frame does not span L at basepoint")
        u = [ParamPoly(nv) for _ in range(2 * dim)]
        for k, c in sol.items():
            for idx in range(2 * dim):
                if not raw[k][idx].is_zero():
                    u[idx] = u[idx] + raw[k][idx].scale(c)
        frame.append(u)
    return frame, lbasis


def _frame_matrix(frame: list[GenElem]) -> Matrix:
    """Columns: the frame elements, then their conjugates, in E_C coordinates."""
    M = [[QI(0)] * (2 * len(frame)) for _ in range(2 * frame[0].dim)]
    for a, u in enumerate(frame + [u.conj() for u in frame]):
        for k, c in u.to_coords().items():
            M[k][a] = c
    return M


def _frame_graph_blocks(f: FamilySpec):
    """Polynomial matrices A(t), B(t): frame coordinates in the L0 + conj(L0)
    basis.  A(base) = Id, B(base) = 0."""
    frame, lbasis = _l_frame(f)
    rank = len(lbasis)
    Minv = pmat_from_qi(mat_inv(_frame_matrix(lbasis)), f.nvars)
    A = [[None] * rank for _ in range(rank)]
    B = [[None] * rank for _ in range(rank)]
    for a, u in enumerate(frame):
        coords = pmat_vec(Minv, u)
        for b in range(rank):
            A[b][a] = coords[b]
            B[b][a] = coords[rank + b]
    return A, B, lbasis


# -- deformation graphs and Kodaira-Spencer classes -----------------------------------

@dataclass
class GraphReport:
    point: tuple
    eps_matrix: Matrix          # conj(L0)-coordinates of eps(l_a)
    cochain: dict[int, QI]      # wedge^2 L0* cochain
    roundtrip_ok: bool

    def lines(self):
        return [f"graph at t={self.point}: "
                f"{'round-trip ok' if self.roundtrip_ok else 'ROUND-TRIP FAILED'}"]


def _eps_map(eps: Matrix, lbar: list[GenElem]):
    """b -> eps(l_b) = sum_a eps[a][b] conj(l_a), given lbar = conj(l)."""
    def eps_apply(b: int) -> GenElem:
        out = GenElem(lbar[b].dim)
        for a, lb in enumerate(lbar):
            if eps[a][b]:
                out = out + lb.scale(eps[a][b])
        return out
    return eps_apply


def _eps_cochain(lbasis, eps_apply) -> dict[int, QI]:
    """Cochain eps(a, b) = <l_a, eps(l_b)>, the sign pinned so the symplectic
    scaling family yields the class i*mu/2."""
    rank = len(lbasis)
    out: dict[int, QI] = {}
    for a in range(rank):
        for b in range(a + 1, rank):
            val = pairing(lbasis[a], eps_apply(b))
            back = pairing(lbasis[b], eps_apply(a))
            if back != -val:
                raise EngineError("deformation graph is not isotropic-skew")
            if val:
                out[(1 << a) | (1 << b)] = val
    return out


def graph_epsilon(f: FamilySpec, pt) -> GraphReport:
    pt = tuple(pt)
    s_t = f.structure_at(pt)
    A, B, lbasis = _frame_graph_blocks(f)
    rank = len(lbasis)
    Ae = [[A[i][j].eval(pt) for j in range(rank)] for i in range(rank)]
    Be = [[B[i][j].eval(pt) for j in range(rank)] for i in range(rank)]
    if not mat_det(Ae):
        raise GraphConditionFailed(
            f"L_t meets conj(L_0) at t={pt}: graph condition fails", point=pt)
    eps = mat_mul(Be, mat_inv(Ae))
    eps_apply = _eps_map(eps, [l.conj() for l in lbasis])
    cochain = _eps_cochain(lbasis, eps_apply)
    # round-trip: reassemble J from the graph and compare with J(t)
    dim2 = 2 * f.model.dim
    M2 = _frame_matrix([l + eps_apply(a) for a, l in enumerate(lbasis)])
    if not mat_det(M2):
        raise GraphConditionFailed("deformed eigenbundle is degenerate", point=pt)
    D = [[QI(0)] * dim2 for _ in range(dim2)]
    for a in range(rank):
        D[a][a] = ONE
    P = mat_mul(M2, mat_mul(D, mat_inv(M2)))
    J_rec = [[(2 * P[i][j] - (ONE if i == j else QI(0))) * I for j in range(dim2)]
             for i in range(dim2)]
    roundtrip = J_rec == s_t.J
    return GraphReport(pt, eps, cochain, roundtrip)


@dataclass
class KSReport:
    direction: int
    eps_matrix: Matrix
    cochain: dict[int, QI]
    closed: bool
    class_coords: Vec
    class_is_zero: bool
    jjandks_ok: bool
    h2: QuotientSpace

    def lines(self):
        return [f"KS class (dir t{self.direction + 1}): "
                f"{'closed' if self.closed else 'NOT CLOSED'}, "
                f"{'zero' if self.class_is_zero else 'nonzero'}, "
                f"J_j = 2i eps - 2i conj(eps): "
                f"{'exact' if self.jjandks_ok else 'FAILS'}"]


def ks_class(f: FamilySpec, direction: int) -> KSReport:
    base = f.base_structure()
    A, B, lbasis = _frame_graph_blocks(f)
    rank = len(lbasis)
    pt = f.basepoint
    A0 = [[A[i][j].eval(pt) for j in range(rank)] for i in range(rank)]
    B0 = [[B[i][j].eval(pt) for j in range(rank)] for i in range(rank)]
    if A0 != [[ONE if i == j else QI(0) for j in range(rank)] for i in range(rank)] \
            or any(any(x for x in row) for row in B0):
        raise EngineError("frame is not normalized at the basepoint")
    eps = [[B[i][j].diff(direction).eval(pt) for j in range(rank)]
           for i in range(rank)]
    eps_apply = _eps_map(eps, [l.conj() for l in lbasis])
    cochain = _eps_cochain(lbasis, eps_apply)
    dc = base.L.differential(cochain)
    closed = not dc
    if not closed:
        raise NotClosed("linearized Maurer-Cartan fails: d_L(eps_dot) != 0",
                        residual=dc)
    h2 = base.L.cohomology(2)
    coords = h2.coords(cochain)
    # Eq: J_j = 2i eps - 2i conj(eps), as endomorphisms of E_C
    dim2 = 2 * f.model.dim
    Minv = mat_inv(_frame_matrix(lbasis))
    E = [[QI(0)] * dim2 for _ in range(dim2)]
    for col in range(dim2):
        unit = GenElem.from_coords(f.model.dim, {col: ONE})
        coeffs = mat_vec(Minv, list(unit.vec) + list(unit.cov))
        img = GenElem(f.model.dim)
        for a in range(rank):
            if coeffs[a]:
                img = img + eps_apply(a).scale(coeffs[a])
        for k, c in img.to_coords().items():
            E[k][col] = c
    Jd = f.J_dot(direction)
    two_i = 2 * I
    ok = all(
        Jd[i][j] == two_i * E[i][j] - two_i * E[i][j].conj()
        for i in range(dim2) for j in range(dim2))
    return KSReport(direction, eps, cochain, closed, coords or {},
                    not coords, ok, h2)


# -- Gauss-Manin derivative and Q-flatness ----------------------------------------------

def gm_derivative(f: FamilySpec, section: PolyForm, direction: int) -> Vec:
    """Class of the formal parameter derivative of a fiberwise-closed
    polynomial section, at the basepoint, in twisted-cohomology coordinates."""
    resid = dH_poly(f.model, section)
    if not resid.is_zero():
        raise SectionNotClosed("section family is not d_H-closed",
                               residual=repr(resid))
    ds = section.diff(direction).eval(f.basepoint)
    coords = twisted_cohomology(f.model).coords(ds)
    if coords is None:
        raise EngineError("derivative of a closed section is not closed")
    return coords


def q_pairing_poly(a: PolyForm, b: PolyForm) -> ParamPoly:
    """Mukai pairing of two polynomial sections as a polynomial in t."""
    out = ParamPoly(a.nvars)
    for ma, pa in a.coeffs.items():
        for mb, pb in b.coeffs.items():
            c = mukai_pairing(Form(a.dim, {ma: ONE}), Form(b.dim, {mb: ONE}))
            if c:
                out = out + (pa * pb).scale(c)
    return out


@dataclass
class QFlatReport:
    q: ParamPoly
    product_rule_ok: bool
    flat: tuple[bool, bool]
    constant_given_flat: bool

    @property
    def ok(self) -> bool:
        return self.product_rule_ok and self.constant_given_flat

    def lines(self):
        return [f"Q(s1(t), s2(t)) = {self.q!r}",
                f"d/dt Q = Q(nabla s1, s2) + Q(s1, nabla s2): "
                f"{'holds' if self.product_rule_ok else 'FAILS'}",
                f"flat sections: {self.flat}",
                "Q constant on flat sections: "
                f"{'yes' if self.constant_given_flat else 'NO'}"]


def _section_is_flat(f: FamilySpec, s: PolyForm) -> bool:
    """Gauss-Manin flat: every parameter derivative is d_H-exact, identically
    in t (solved monomial-by-monomial)."""
    cols = list(f.model.dH_table.values())
    for j in range(f.nvars):
        ds = s.diff(j)
        for _e, slice_form in ds.monomial_slices().items():
            if solve_columns(cols, dict(slice_form.coeffs)) is None:
                return False
    return True


def q_flatness(f: FamilySpec, s1: PolyForm, s2: PolyForm) -> QFlatReport:
    """Covariant constancy of Q: the product rule holds for all closed
    sections, and Q is a constant polynomial whenever both sections are
    Gauss-Manin flat."""
    for s in (s1, s2):
        if not dH_poly(f.model, s).is_zero():
            raise SectionNotClosed("section family is not d_H-closed")
    q = q_pairing_poly(s1, s2)
    rule = all(
        q.diff(j) == q_pairing_poly(s1.diff(j), s2)
        + q_pairing_poly(s1, s2.diff(j))
        for j in range(f.nvars))
    flat = (_section_is_flat(f, s1), _section_is_flat(f, s2))
    const_ok = q.is_constant() if all(flat) else True
    return QFlatReport(q, rule, flat, const_ok)


# -- holomorphy ----------------------------------------------------------------------------

@dataclass
class HolomorphyReport:
    holomorphic: bool
    residual: Vec

    def lines(self):
        return [f"period-map holomorphy (kappa(i X) = i kappa(X)): "
                f"{'holds' if self.holomorphic else 'FAILS'}"]


def holomorphy_check(f: FamilySpec) -> HolomorphyReport:
    if f.nvars != 2:
        raise WrongType("holomorphy check needs a 2-parameter family (t1 + i t2)")
    k1 = ks_class(f, 0)
    k2 = ks_class(f, 1)
    want = vec_scale(k1.class_coords, I)
    resid = vec_axpy(dict(k2.class_coords), QI(-1), want)
    return HolomorphyReport(not resid, resid)


# -- symplectic filtration tracking ----------------------------------------------------------

@dataclass
class SympFiltrationReport:
    skipped: str | None
    per_sample: dict[tuple, bool]

    @property
    def ok(self) -> bool:
        return self.skipped is None and all(self.per_sample.values())

    def lines(self):
        if self.skipped:
            return [f"symplectic filtration check skipped: {self.skipped}"]
        return [f"F^p at t={pt}: {'matches' if ok else 'MISMATCH'}"
                for pt, ok in self.per_sample.items()]


def symp_filtration_check(f: FamilySpec, p: int) -> SympFiltrationReport:
    if f.kind != "symplectic":
        raise WrongType("filtration tracking requires a symplectic family")
    base = f.base_structure()
    if not lefschetz_check(base).ok:
        return SympFiltrationReport("strong Lefschetz fails at basepoint", {})
    m = f.model
    n = base.n
    tw = twisted_cohomology(m)
    parity = (p + n + base.parity) % 2
    h_dim = tw.dim_even if parity == 0 else tw.dim_odd
    derham = {k: invariant_derham(m, k) for k in range(0, 2 * n + 1)}
    per = {}
    for pt in [f.basepoint] + f.samples:
        s_t = f.structure_at(pt)
        lhs = filtration_subspace(s_t, p)
        rho_t = (f.omega_t.eval(pt).scale(I) - f.B_t.eval(pt)).exp()
        vecs = []
        for k in range(p + n, -1, -2):
            if k > 2 * n:
                continue
            for r in derham[k].reps:
                w = rho_t.wedge(form_of_vec(m.dim, r))
                c = tw.parity_coords(w, parity)
                vecs.append(c if c is not None else {})
        rhs = Subspace.span(h_dim, vecs)
        per[pt] = lhs == rhs
    return SympFiltrationReport(None, per)


# -- generalized Calabi-Yau --------------------------------------------------------------------

@dataclass
class GCYReport:
    spinor_closed: bool
    iso_dims: tuple[int, int]
    iso_ok: bool
    period_injective: bool
    chain_identity_ok: bool

    def lines(self):
        a, b = self.iso_dims
        return [f"spinor d_H-closed: {'yes' if self.spinor_closed else 'NO'}",
                f"H^2(L) -> H^(2-n)_delbar: dims {a} -> {b}, "
                f"{'isomorphism' if self.iso_ok else 'NOT an isomorphism'}",
                f"period differential injective: "
                f"{'yes' if self.period_injective else 'NO'}"]


def gcy_check(s: GCStruct) -> GCYReport:
    if s.spinor is None:
        raise NoInvariantSpinor("no invariant pure spinor for this structure")
    rho = s.spinor
    if not s.model.d_H(rho).is_zero():
        raise SpinorNotClosed("pure spinor is not d_H-closed")
    h2 = s.L.cohomology(2)
    db = once_per_structure(s, delbar_cohomology)
    target = db[2 - s.n]
    # chain identity: delbar(a rho) = (d_L a) rho for random low-degree cochains
    chain_ok = True
    for mask in range(1 << s.L.rank):
        if popcount(mask) != 1:
            continue
        c = {mask: ONE}
        lhs = s.delbar(s.cliff_cochain(c, rho))
        rhs = s.cliff_cochain(s.L.differential(c), rho)
        if lhs != rhs:
            chain_ok = False
    cols = []
    for rep in h2.reps:
        w = s.cliff_cochain(rep, rho)
        coords = target.coords(dict(w.coeffs))
        if coords is None:
            raise EngineError("image of an H^2(L) class is not delbar-closed")
        cols.append(coords)
    rank = Subspace.span(max(target.dim, 1), cols).dim
    iso = rank == h2.dim == target.dim
    injective = rank == h2.dim
    return GCYReport(True, (h2.dim, target.dim), iso, injective, chain_ok)


# -- Griffiths transversality -------------------------------------------------------------------

@dataclass
class TransversalityReport:
    skipped: str | None
    samples_good: dict[tuple, bool]
    transversal: bool
    nabla_window_ok: bool
    induced: list[Vec]
    kappa_action: list[Vec]
    domain: list[Vec]
    constant: QI | None
    proportional: bool

    def lines(self):
        if self.skipped:
            return [f"transversality skipped: {self.skipped}"]
        out = [f"good family at samples: "
               f"{'yes' if all(self.samples_good.values()) else 'NO'}",
               f"nabla F^p inside F^(p+2): {'yes' if self.transversal else 'NO'}",
               f"nabla components within p-2..p+2: "
               f"{'yes' if self.nabla_window_ok else 'NO'}"]
        if self.constant is not None:
            out.append(f"induced map = c * (KS Clifford action), c = {self.constant}")
        out.append("proportionality exact: "
                   f"{'yes' if self.proportional else 'NO'}")
        return out


def _graded_span_poly(f: FamilySpec, p: int) -> list[PolyForm]:
    """Polynomial forms spanning the chain U_{<=p} of parity p at each t."""
    m = f.model
    n = m.dim // 2
    nv = f.nvars
    if f.kind == "symplectic":
        rho_t = (f.omega_t.scale(I) - f.B_t).exp()
        out = []
        for mask in range(1 << m.dim):
            d = popcount(mask)
            if d <= p + n and (d - (p + n)) % 2 == 0:
                out.append(rho_t.wedge(PolyForm(
                    m.dim, nv, {mask: ParamPoly.const(nv, ONE)})))
        return out
    # polynomial J: chain projector via Vandermonde in the polynomial N(t)
    Jp = f.J_poly()
    base = f.base_structure()
    duals = [([Jp[i][a] for i in range(2 * m.dim)], v)
             for a, v in enumerate(dual_frame(m.dim))]

    def N_poly(w: PolyForm) -> PolyForm:
        out = PolyForm(m.dim, nv)
        trace = ParamPoly(nv)
        for col, v in duals:
            cv = _clifford_poly_elem(col, m.dim, nv,
                                     _clifford_const(v, w))
            out = out + cv
            trace = trace + _pairing_poly(col, v, m.dim)
        quarter = QI(Fraction(1, 4))
        return out.scale(quarter) - w.scale_poly(trace.scale(quarter))

    chain_ks = [k for k in range(-n, p + 1) if (p - k) % 2 == 0]
    vand = base._vand_inv
    ks_all = base._ks
    out = []
    parity = (p + n + base.parity) % 2
    for mask in range(1 << m.dim):
        if popcount(mask) % 2 != parity:
            continue
        w0 = PolyForm(m.dim, nv, {mask: ParamPoly.const(nv, ONE)})
        powers = [w0]
        for _ in range(2 * n):
            powers.append(N_poly(powers[-1]))
        acc = PolyForm(m.dim, nv)
        for k in chain_ks:
            idx = ks_all.index(k)
            for mdx, pw in enumerate(powers):
                acc = acc + pw.scale(vand[idx][mdx])
        if not acc.is_zero():
            out.append(acc)
    return out


def _clifford_const(a: GenElem, w: PolyForm) -> PolyForm:
    """Clifford action of a constant element on a polynomial form."""
    from .forms import insert_sign
    out: dict[int, ParamPoly] = {}
    for mask, poly in w.coeffs.items():
        for i in range(a.dim):
            bit = 1 << i
            if a.vec[i] and (mask & bit):
                s = insert_sign(mask, i)
                c = a.vec[i] if s > 0 else -a.vec[i]
                k = mask & ~bit
                t = poly.scale(c)
                out[k] = out[k] + t if k in out else t
            if a.cov[i] and not (mask & bit):
                s = insert_sign(mask, i)
                c = a.cov[i] if s > 0 else -a.cov[i]
                k = mask | bit
                t = poly.scale(c)
                out[k] = out[k] + t if k in out else t
    return PolyForm(w.dim, w.nvars, out)


def _clifford_poly_elem(col: list[ParamPoly], dim: int, nv: int,
                        w: PolyForm) -> PolyForm:
    """Clifford action of an element with polynomial coordinates."""
    from .forms import insert_sign
    out: dict[int, ParamPoly] = {}
    for mask, poly in w.coeffs.items():
        for i in range(dim):
            bit = 1 << i
            pv = col[i]
            if not pv.is_zero() and (mask & bit):
                s = insert_sign(mask, i)
                t = poly * pv
                if s < 0:
                    t = t.scale(QI(-1))
                k = mask & ~bit
                out[k] = out[k] + t if k in out else t
            pc = col[dim + i]
            if not pc.is_zero() and not (mask & bit):
                s = insert_sign(mask, i)
                t = poly * pc
                if s < 0:
                    t = t.scale(QI(-1))
                k = mask | bit
                out[k] = out[k] + t if k in out else t
    return PolyForm(dim, nv, out)


def _pairing_poly(col: list[ParamPoly], v: GenElem, dim: int) -> ParamPoly:
    out = ParamPoly(col[0].nvars)
    for i in range(dim):
        if v.vec[i]:
            out = out + col[dim + i].scale(v.vec[i] * Half)
        if v.cov[i]:
            out = out + col[i].scale(v.cov[i] * Half)
    return out


def extend_section(f: FamilySpec, p: int, rep: Form, cap: int | None = None):
    """Extend a closed basepoint representative in the U_{<=p} chain to a
    closed polynomial section staying in the moving chain; degree-by-degree."""
    m = f.model
    span = [pf.shift(f.basepoint) for pf in _graded_span_poly(f, p)]
    v0 = [pf.eval((QI(0),) * f.nvars) for pf in span]
    v0_cols = [dict(w.coeffs) for w in v0]
    dv0_cols = [spin_apply(m.dH_table, w.coeffs) for w in v0]
    sol = solve_columns(v0_cols, dict(rep.coeffs))
    if sol is None:
        raise ExtensionFailed("representative is not in the chain at basepoint")
    nv = f.nvars
    s_poly = PolyForm(m.dim, nv)
    for k, c in sol.items():
        s_poly = s_poly + span[k].scale(c)
    cap = cap if cap is not None else max(
        (pf.max_degree() for pf in span), default=0) + m.dim + 4
    while True:
        resid = dH_poly(m, s_poly)
        if resid.is_zero():
            break
        slices = resid.monomial_slices()
        low = min(slices, key=lambda e: (sum(e), e))
        if sum(low) > cap:
            raise ExtensionFailed(
                f"no polynomial extension found below degree {cap}")
        target = slices[low].scale(QI(-1))
        csol = solve_columns(dv0_cols, dict(target.coeffs))
        if csol is None:
            raise ExtensionFailed(
                "residual leaves the image of d_H on the chain at "
                f"degree {low}")
        mono = ParamPoly(nv, {low: ONE})
        for k, c in csol.items():
            s_poly = s_poly + span[k].scale_poly(mono.scale(c))
    return s_poly


def transversality_check(f: FamilySpec, p: int, direction: int) -> TransversalityReport:
    base = f.base_structure()
    n = base.n
    dd0 = once_per_structure(base, ddbar_check)
    if not dd0.holds:
        return TransversalityReport(
            "basepoint does not satisfy the del-delbar lemma",
            {}, False, False, [], [], [], None, False)
    samples_good = {}
    for pt in f.samples:
        samples_good[pt] = once_per_structure(
            f.structure_at(pt), ddbar_check).holds
    m = f.model
    tw = twisted_cohomology(m)
    parity = (p + n + base.parity) % 2
    parity2 = parity  # p+2 has the same parity chain
    h_dim = tw.dim_even if parity == 0 else tw.dim_odd
    Fp = filtration_subspace(base, p)
    Fpm2 = filtration_subspace(base, p - 2) if p - 2 >= -n \
        else Subspace.zero(h_dim)
    Fpp2 = filtration_subspace(base, p + 2) if p + 2 <= n \
        else filtration_subspace(base, n if (n - p) % 2 == 0 else n - 1)
    Qdom = QuotientSpace(h_dim, [dict(v) for v in Fp.basis()],
                         [dict(v) for v in Fpm2.basis()])
    Qtar = QuotientSpace(h_dim, [dict(v) for v in Fpp2.basis()],
                         [dict(v) for v in Fp.basis()])

    # closed representatives spanning F^p at the basepoint
    sigma = chain_subspace(base, p)
    reps = [form_of_vec(m.dim, v)
            for v in _preimage_in(sigma, m.dH_table,
                                  Subspace.zero(1 << m.dim)).basis()]

    ks = ks_class(f, direction)
    # target-side solver data: lift a delbar-class in U_{p+2} to a closed
    # form in the chain U_{<=p+2}
    chain2 = sigma.sum(base.U_subspace(p + 2))
    closed2 = _preimage_in(chain2, m.dH_table, Subspace.zero(1 << m.dim))
    closed2_forms = [form_of_vec(m.dim, v) for v in closed2.basis()]
    lift_cols = [dict(base.project(p + 2, w).coeffs) for w in closed2_forms]
    dbar_cols = [spin_apply(base.dH_parts[1], v)
                 for v in base.U_subspace(p + 1).basis()]
    n_closed2 = len(lift_cols)

    win = base.U_subspace(p - 2).sum(base.U_subspace(p)).sum(
        base.U_subspace(p + 2))
    win_coords = closed_classes(base, win, parity)

    induced = []
    kactions = []
    domain = []
    transversal = True
    window_ok = True
    for r in reps:
        s_poly = extend_section(f, p, r)
        ds = s_poly.diff(direction).eval((QI(0),) * f.nvars)
        coords = tw.parity_coords(ds, parity)
        if coords is None:
            raise EngineError("derivative of the extension is not closed")
        if not Fpp2.contains(coords):
            transversal = False
        if not win_coords.contains(coords):
            window_ok = False
        dom = Qdom.coords(tw.parity_coords(r, parity))
        tarc = Qtar.coords(coords)
        if dom is None or tarc is None:
            raise EngineError("class bookkeeping failure in transversality")
        domain.append(dom)
        induced.append(tarc)
        # kappa Clifford action on the leading graded piece
        x = base.project(p, r)
        y = base.cliff_cochain(ks.cochain, x)
        sol = solve_columns(lift_cols + dbar_cols, dict(y.coeffs))
        if sol is None:
            raise EngineError("KS action does not lift to the filtration")
        w = Form(m.dim)
        for k, c in sol.items():
            if k < n_closed2:
                w = w + closed2_forms[k].scale(c)
        kc = Qtar.coords(tw.parity_coords(w, parity2))
        kactions.append(kc if kc is not None else {})

    # fit: induced = c * kappa_action as linear maps on the domain quotient
    const = None
    proportional = True
    ech = Echelon(track=True)
    recorded: list[int] = []
    for i, dom in enumerate(domain):
        r_vec, combo = ech.insert(dom, tag=i)
        if r_vec:
            recorded.append(i)
        else:
            # dependent: linearity demands the same relation among images
            ti: Vec = {}
            ki: Vec = {}
            for j, c in combo.items():
                if j == i:
                    continue
                ti = vec_axpy(ti, -c, induced[j])
                ki = vec_axpy(ki, -c, kactions[j])
            if ti != induced[i] or ki != kactions[i]:
                proportional = False
    for i in recorded:
        ti, ki = induced[i], kactions[i]
        if not ki:
            if ti:
                proportional = False
            continue
        key = next(iter(ki))
        c = ti.get(key, QI(0)) / ki[key]
        if const is None:
            const = c
        if vec_axpy(dict(ti), -const, ki):
            proportional = False
    return TransversalityReport(None, samples_good, transversal, window_ok,
                                induced, kactions, domain, const, proportional)
