"""Polynomial families of generalized complex structures over rational
parameters: validation, deformation graphs, generalized Kodaira-Spencer
classes, Gauss-Manin derivatives, Griffiths transversality, period-map
holomorphy, symplectic filtration tracking, and Calabi-Yau period data.

The twist is fixed across the family (trivialized product normal form), so
every derivative here is a formal polynomial derivative and stays exact.

A family applies the operators of a single structure, with ParamPoly values
in place of QI: the moving chain U_{<=p}(t) is the table of N built from the
polynomial J(t) by `gcs._spinorial_N`, powered and projected with the same
`_powers`, `_combine` and projector plan as `GCStruct`'s grading, J(t) of a
complex family is `gcs.complex_J` of I(t), d_H acts on sections through the
model's d_H table, and the Mukai pairing of sections is `forms.mukai_pairing`.
Griffiths transversality reads the base structure's closed forms in U_{<=p}
and U_{<=p+2} off the same d_H reduction as its Hodge filtration
(`cohomology.closed_in_chain`), and the classes in Gr_F^p and Gr_F^{p+2} off
its Hodge flags (`cohomology.graded_coords`).

Polynomial sections are `Form`s with ParamPoly coefficients: they wedge,
contract and exponentiate through `Form` itself, and `poly` supplies their
derivative, evaluation, shift and monomial slices.
"""

from __future__ import annotations

from dataclasses import dataclass

from .cohomology import (closed_classes, closed_in_chain, ddbar_check,
                         delbar_coords, delbar_dims, filtration_subspace,
                         graded_coords, invariant_derham, lefschetz_check,
                         twisted_cohomology)
from .courant import pairing
from .errors import (EngineError, ExtensionFailed, GraphConditionFailed,
                     NotClosed, SectionNotClosed, SpinorNotClosed, WrongType)
from .forms import Form, mukai_pairing, popcount, spin_apply
from .gcs import (GCStruct, _combine, _powers, _projector_plan,
                  _spinorial_N, complex_J, flat_matrix, form_of_vec,
                  make_complex, make_general, make_symplectic)
from .liemodel import LieModel, once
from .linalg import (Matrix, Subspace, Vec, _axpy_into, mat_add, mat_det,
                     mat_inv, mat_mul, reduce_columns, solve, vec_add,
                     vec_axpy, vec_conj, vec_scale)
from .poly import (ParamPoly, PolyMatrix, dH_poly, form_diff, form_eval,
                   form_shift, monomial_slices, pmat_diff, pmat_eval,
                   pmat_from_qi, pmat_vec)
from .scalars import Half, I, ONE, QI, ZERO


class FamilySpec:
    """A polynomial family over t_1..t_m with the model and twist fixed.

    kind 'general' stores a polynomial J(t); 'symplectic' stores polynomial
    omega(t), B(t) (J(t) is rational in t there, so the generating data is
    kept instead); 'complex' stores a polynomial I(t).
    """

    def __init__(self, model: LieModel, kind: str, nvars: int,
                 samples=(), basepoint=None, name: str = "",
                 Jt: PolyMatrix | None = None,
                 omega_t: Form | None = None, B_t: Form | None = None,
                 It: PolyMatrix | None = None):
        self.model = model
        self.kind = kind
        self.nvars = nvars
        self.name = name
        self.basepoint = tuple(basepoint) if basepoint is not None \
            else tuple(QI(0) for _ in range(nvars))
        self.samples = [tuple(s) for s in samples]
        self.Jt = Jt
        self.omega_t = omega_t if omega_t is not None else Form(model.dim)
        self.B_t = B_t if B_t is not None else Form(model.dim)
        self.It = It
        self._cache: dict[tuple, GCStruct] = {}
        self._ks: dict[int, KSReport] = {}   # ks_class by direction

    # -- evaluation ---------------------------------------------------------

    def structure_at(self, pt) -> GCStruct:
        pt = tuple(pt)
        if pt not in self._cache:
            if self.kind == "general":
                s = make_general(self.model, pmat_eval(self.Jt, pt))
            elif self.kind == "symplectic":
                s = make_symplectic(self.model, form_eval(self.omega_t, pt),
                                    form_eval(self.B_t, pt))
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
            return complex_J(self.It)
        return None

    def J_dot(self, j: int) -> Matrix:
        """Entrywise derivative of J(t) at the basepoint, all kinds."""
        if self.kind in ("general", "complex"):
            return pmat_eval(pmat_diff(self.J_poly(), j), self.basepoint)
        # symplectic: J = [[bB, -b], [w + BbB, -Bb]] with b = w^{-1}
        dim = self.model.dim
        bp = self.basepoint
        W = flat_matrix(form_eval(self.omega_t, bp))
        Wd = flat_matrix(form_eval(form_diff(self.omega_t, j), bp))
        Bm = flat_matrix(form_eval(self.B_t, bp))
        Bd = flat_matrix(form_eval(form_diff(self.B_t, j), bp))
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
            coords = [ParamPoly.const(nv, l.get(k, ZERO))
                      for k in range(2 * dim)]
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
    lows = reduce_columns(cols)[0]
    frame = []
    for l in lbasis:
        sol = solve(lows, l)
        if sol is None:
            raise EngineError("symplectic frame does not span L at basepoint")
        u = [ParamPoly(nv) for _ in range(2 * dim)]
        for k, c in sol.items():
            for idx in range(2 * dim):
                if not raw[k][idx].is_zero():
                    u[idx] = u[idx] + raw[k][idx].scale(c)
        frame.append(u)
    return frame, lbasis


def _frame_matrix(dim: int, frame: list[Vec]) -> Matrix:
    """Columns: the frame elements, then their conjugates, in E_C coordinates."""
    M = [[QI(0)] * (2 * len(frame)) for _ in range(2 * dim)]
    for a, u in enumerate(frame + [vec_conj(u) for u in frame]):
        for k, c in u.items():
            M[k][a] = c
    return M


def _frame_graph_blocks(f: FamilySpec):
    """Polynomial matrices A(t), B(t): frame coordinates in the L0 + conj(L0)
    basis.  A(base) = Id, B(base) = 0."""
    frame, lbasis = _l_frame(f)
    rank = len(lbasis)
    Minv = pmat_from_qi(mat_inv(_frame_matrix(f.model.dim, lbasis)), f.nvars)
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


def _eps_map(eps: Matrix, lbar: list[Vec]):
    """b -> eps(l_b) = sum_a eps[a][b] conj(l_a), given lbar = conj(l)."""
    def eps_apply(b: int) -> Vec:
        out: Vec = {}
        for a, lb in enumerate(lbar):
            if eps[a][b]:
                _axpy_into(out, eps[a][b], lb)
        return out
    return eps_apply


def _eps_cochain(dim: int, lbasis, eps_apply) -> dict[int, QI]:
    """Cochain eps(a, b) = <l_a, eps(l_b)>, the sign pinned so the symplectic
    scaling family yields the class i*mu/2."""
    rank = len(lbasis)
    out: dict[int, QI] = {}
    for a in range(rank):
        for b in range(a + 1, rank):
            val = pairing(dim, lbasis[a], eps_apply(b))
            back = pairing(dim, lbasis[b], eps_apply(a))
            if back != -val:
                raise EngineError("deformation graph is not isotropic-skew")
            if val:
                out[(1 << a) | (1 << b)] = val
    return out


def graph_epsilon(f: FamilySpec, pt) -> GraphReport:
    pt = tuple(pt)
    s_t = f.structure_at(pt)
    A, B, lbasis = once(f, _frame_graph_blocks)
    rank = len(lbasis)
    Ae = [[A[i][j].eval(pt) for j in range(rank)] for i in range(rank)]
    Be = [[B[i][j].eval(pt) for j in range(rank)] for i in range(rank)]
    if not mat_det(Ae):
        raise GraphConditionFailed(
            f"L_t meets conj(L_0) at t={pt}: graph condition fails", point=pt)
    eps = mat_mul(Be, mat_inv(Ae))
    dim = f.model.dim
    eps_apply = _eps_map(eps, [vec_conj(l) for l in lbasis])
    cochain = _eps_cochain(dim, lbasis, eps_apply)
    # round-trip: reassemble J from the graph and compare with J(t)
    dim2 = 2 * dim
    M2 = _frame_matrix(dim, [vec_add(l, eps_apply(a))
                             for a, l in enumerate(lbasis)])
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

    def lines(self):
        return [f"KS class (dir t{self.direction + 1}): "
                f"{'closed' if self.closed else 'NOT CLOSED'}, "
                f"{'zero' if self.class_is_zero else 'nonzero'}, "
                f"J_j = 2i eps - 2i conj(eps): "
                f"{'exact' if self.jjandks_ok else 'FAILS'}"]


def ks_class(f: FamilySpec, direction: int) -> KSReport:
    """The generalized Kodaira-Spencer class of the family in one direction
    at the basepoint, computed once per direction and kept on the family."""
    if direction in f._ks:
        return f._ks[direction]
    base = f.base_structure()
    A, B, lbasis = once(f, _frame_graph_blocks)
    rank = len(lbasis)
    pt = f.basepoint
    A0 = [[A[i][j].eval(pt) for j in range(rank)] for i in range(rank)]
    B0 = [[B[i][j].eval(pt) for j in range(rank)] for i in range(rank)]
    if A0 != [[ONE if i == j else QI(0) for j in range(rank)] for i in range(rank)] \
            or any(any(x for x in row) for row in B0):
        raise EngineError("frame is not normalized at the basepoint")
    eps = [[B[i][j].diff(direction).eval(pt) for j in range(rank)]
           for i in range(rank)]
    dim = f.model.dim
    eps_apply = _eps_map(eps, [vec_conj(l) for l in lbasis])
    cochain = _eps_cochain(dim, lbasis, eps_apply)
    dc = base.L.differential(cochain)
    closed = not dc
    if not closed:
        raise NotClosed("linearized Maurer-Cartan fails: d_L(eps_dot) != 0",
                        residual=dc)
    coords = base.L.cohomology().coords(cochain, 2)
    # Eq: J_j = 2i eps - 2i conj(eps), as endomorphisms of E_C
    # E sends the basis vector col to sum_a Minv[a][col] eps(l_a)
    dim2 = 2 * dim
    Minv = mat_inv(_frame_matrix(dim, lbasis))
    eps_l = [eps_apply(a) for a in range(rank)]
    E = [[QI(0)] * dim2 for _ in range(dim2)]
    for col in range(dim2):
        img: Vec = {}
        for a in range(rank):
            if Minv[a][col]:
                _axpy_into(img, Minv[a][col], eps_l[a])
        for k, c in img.items():
            E[k][col] = c
    Jd = f.J_dot(direction)
    two_i = 2 * I
    ok = all(
        Jd[i][j] == two_i * E[i][j] - two_i * E[i][j].conj()
        for i in range(dim2) for j in range(dim2))
    f._ks[direction] = KSReport(direction, eps, cochain, closed, coords or {},
                                not coords, ok)
    return f._ks[direction]


# -- Gauss-Manin derivative and Q-flatness ----------------------------------------------

def _require_closed(m: LieModel, section: Form) -> None:
    resid = dH_poly(m, section)
    if not resid.is_zero():
        raise SectionNotClosed("section family is not d_H-closed",
                               residual=repr(resid))


def gm_derivative(f: FamilySpec, section: Form, direction: int) -> Vec:
    """Class of the formal parameter derivative of a fiberwise-closed
    polynomial section, at the basepoint, in twisted-cohomology coordinates."""
    _require_closed(f.model, section)
    ds = form_eval(form_diff(section, direction), f.basepoint)
    coords = twisted_cohomology(f.model).coords(ds.coeffs)
    if coords is None:
        raise EngineError("derivative of a closed section is not closed")
    return coords


def q_pairing_poly(a: Form, b: Form, nvars: int) -> ParamPoly:
    """Mukai pairing of two polynomial sections as a polynomial in
    t_1..t_nvars (a QI zero when no blades meet, hence the sum)."""
    return ParamPoly(nvars) + mukai_pairing(a, b)


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


def _section_is_flat(f: FamilySpec, s: Form) -> bool:
    """Gauss-Manin flat: every parameter derivative is d_H-exact, identically
    in t (tested monomial-by-monomial)."""
    exact = Subspace.span(1 << f.model.dim, f.model.dH_table.values())
    return all(exact.contains(slice_form.coeffs)
               for j in range(f.nvars)
               for slice_form in monomial_slices(form_diff(s, j)).values())


def q_flatness(f: FamilySpec, s1: Form, s2: Form) -> QFlatReport:
    """Covariant constancy of Q: the product rule holds for all closed
    sections, and Q is a constant polynomial whenever both sections are
    Gauss-Manin flat."""
    for s in (s1, s2):
        _require_closed(f.model, s)
    nv = f.nvars
    q = q_pairing_poly(s1, s2, nv)
    rule = all(
        q.diff(j) == q_pairing_poly(form_diff(s1, j), s2, nv)
        + q_pairing_poly(s1, form_diff(s2, j), nv)
        for j in range(nv))
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
    if not once(base, lefschetz_check).ok:
        return SympFiltrationReport("strong Lefschetz fails at basepoint", {})
    m = f.model
    n = base.n
    tw = twisted_cohomology(m)
    parity = (p + n + base.parity) % 2
    derham = invariant_derham(m)
    reps = {k: derham.reps(k) for k in range(p + n, -1, -2) if k <= 2 * n}
    per = {}
    for pt in [f.basepoint] + f.samples:
        s_t = f.structure_at(pt)
        lhs = filtration_subspace(s_t, p)
        vecs = []
        for k_reps in reps.values():
            for r in k_reps:
                w = s_t.spinor.wedge(form_of_vec(m.dim, r))
                c = tw.coords(w.coeffs, parity)
                vecs.append(c if c is not None else {})
        rhs = Subspace.span(tw.dim(parity), vecs)
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
        out = [f"spinor d_H-closed: {'yes' if self.spinor_closed else 'NO'}",
               f"H^2(L) -> H^(2-n)_delbar: dims {a} -> {b}, "
               f"{'isomorphism' if self.iso_ok else 'NOT an isomorphism'}",
               f"period differential injective: "
               f"{'yes' if self.period_injective else 'NO'}"]
        if not self.chain_identity_ok:
            # printed only on failure, so passing reports keep their lines
            out.append("chain identity delbar(a rho) = (d_L a) rho "
                       "on every cochain: NO")
        return out


def gcy_check(s: GCStruct) -> GCYReport:
    """A generalized Calabi-Yau structure: the pure spinor rho is d_H-closed,
    a -> a.rho is a chain map (wedge L*, d_L) -> (U, delbar), checked on
    every cochain mask, and it maps H^2(L) isomorphically onto
    H^(2-n)_delbar."""
    rho = s.spinor
    if not s.model.d_H(rho).is_zero():
        raise SpinorNotClosed("pure spinor is not d_H-closed")
    dim = s.model.dim
    h_L = s.L.cohomology()
    k = 2 - s.n
    act = s.cliff_table(rho)
    # chain identity delbar(a rho) = (d_L a) rho: both sides are linear in
    # a, so checking every nonzero mask proves it on every cochain
    chain_ok = all(
        s.delbar(Form(dim, act[mask]))
        == Form(dim, spin_apply(act, s.L.differential({mask: ONE})))
        for mask in range(1, 1 << s.L.rank))
    cols = []
    for rep in h_L.reps(2):
        coords = delbar_coords(s, k, spin_apply(act, rep))
        if coords is None:
            raise EngineError("image of an H^2(L) class is not delbar-closed")
        cols.append(coords)
    target = delbar_dims(s)[k]
    rank = Subspace.span(max(target, 1), cols).dim
    iso = rank == h_L.dim(2) == target
    injective = rank == h_L.dim(2)
    return GCYReport(True, (h_L.dim(2), target), iso, injective, chain_ok)


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


def _graded_span_poly(f: FamilySpec, p: int) -> list[Form]:
    """Polynomial forms spanning the chain U_{<=p} of parity p at each t."""
    m = f.model
    n = m.dim // 2
    one = ParamPoly.const(f.nvars, ONE)
    if f.kind == "symplectic":
        rho_t = (f.omega_t.scale(I) - f.B_t).exp()
        out = []
        for mask in range(1 << m.dim):
            d = popcount(mask)
            if d <= p + n and (d - (p + n)) % 2 == 0:
                out.append(rho_t.wedge(Form(m.dim, {mask: one})))
        return out
    # polynomial J(t): the same N table as a fixed structure's, with
    # polynomial entries, and the sum of the chain's Lagrange projector rows
    # from the nodes of p's parity class applied to its powers
    N = _spinorial_N(m.dim, f.J_poly())
    ks, _, vand_inv = _projector_plan(n, p % 2)
    chain = [sum(col, QI(0)) for col in
             zip(*(row for k, row in zip(ks, vand_inv) if k <= p))]
    out = []
    parity = (p + n + f.base_structure().parity) % 2
    for mask in range(1 << m.dim):
        if popcount(mask) % 2 != parity:
            continue
        acc = _combine(chain, _powers(N, {mask: one}, len(ks) - 1))
        if acc:
            out.append(Form(m.dim, acc))
    return out


def _chain_span(f: FamilySpec, p: int) -> tuple:
    """(span, at_base, d_at_base) for the chain U_{<=p}: its polynomial
    spanning forms shifted to the basepoint, and the lows of the column
    reductions of their values and of their d_H images there, over which
    coefficients in the span are solved; one per (family, p), shared by
    every representative extended in that chain."""
    m = f.model
    span = [form_shift(pf, f.basepoint) for pf in _graded_span_poly(f, p)]
    v0 = [form_eval(pf, (QI(0),) * f.nvars) for pf in span]
    return (span, reduce_columns(w.coeffs for w in v0)[0],
            reduce_columns(spin_apply(m.dH_table, w.coeffs)
                           for w in v0)[0])


def _extend_in_chain(f: FamilySpec, chain: tuple, rep: Form) -> Form:
    """Extend a closed basepoint representative in the chain to a closed
    polynomial section staying in the moving chain, degree by degree."""
    m = f.model
    span, at_base, d_at_base = chain
    sol = solve(at_base, rep.coeffs)
    if sol is None:
        raise ExtensionFailed("representative is not in the chain at basepoint")
    s_poly = Form(m.dim)
    for k, c in sol.items():
        s_poly = s_poly + span[k].scale(c)
    cap = max((p.degree() for pf in span for p in pf.coeffs.values()),
              default=0) + m.dim + 4
    while True:
        resid = dH_poly(m, s_poly)
        if resid.is_zero():
            break
        slices = monomial_slices(resid)
        low = min(slices, key=lambda e: (sum(e), e))
        if sum(low) > cap:
            raise ExtensionFailed(
                f"no polynomial extension found below degree {cap}")
        target = slices[low].scale(QI(-1))
        csol = solve(d_at_base, target.coeffs)
        if csol is None:
            raise ExtensionFailed(
                "residual leaves the image of d_H on the chain at "
                f"degree {low}")
        mono = ParamPoly(f.nvars, {low: ONE})
        for k, c in csol.items():
            s_poly = s_poly + span[k].scale(mono.scale(c))
    return s_poly


def transversality_check(f: FamilySpec, p: int, direction: int) -> TransversalityReport:
    base = f.base_structure()
    n = base.n
    dd0 = once(base, ddbar_check)
    if not dd0.holds:
        return TransversalityReport(
            "basepoint does not satisfy the del-delbar lemma",
            {}, False, False, [], [], [], None, False)
    samples_good = {}
    for pt in f.samples:
        samples_good[pt] = once(f.structure_at(pt), ddbar_check).holds
    m = f.model
    tw = twisted_cohomology(m)
    parity = (p + n + base.parity) % 2

    # closed representatives spanning F^p at the basepoint
    reps = [form_of_vec(m.dim, v) for v in closed_in_chain(base, p).basis()]

    ks = ks_class(f, direction)
    # target-side solver data: lift a delbar-class in U_{p+2} to a closed
    # form in the chain U_{<=p+2}
    closed2_forms = [form_of_vec(m.dim, v)
                     for v in closed_in_chain(base, p + 2).basis()]
    lift_cols = [dict(base.project(p + 2, w).coeffs) for w in closed2_forms]
    dbar_cols = [spin_apply(base.dH_parts[1], v)
                 for v in base.U_subspace(p + 1).basis()]
    n_closed2 = len(lift_cols)
    lift_lows = reduce_columns(lift_cols + dbar_cols)[0]

    win = Subspace.span(1 << m.dim, [v for j in (p - 2, p, p + 2)
                                     for v in base.U_subspace(j).basis()])
    win_coords = closed_classes(base, win, parity)

    induced = []
    kactions = []
    domain = []
    transversal = True
    window_ok = True
    chain = _chain_span(f, p) if reps else None
    for r in reps:
        s_poly = _extend_in_chain(f, chain, r)
        ds = form_eval(form_diff(s_poly, direction), (QI(0),) * f.nvars)
        coords = tw.coords(ds.coeffs, parity)
        if coords is None:
            raise EngineError("derivative of the extension is not closed")
        tarc = graded_coords(base, p + 2, coords)
        if tarc is None:
            transversal = False
        if not win_coords.contains(coords):
            window_ok = False
        dom = graded_coords(base, p, tw.coords(r.coeffs, parity))
        if dom is None or tarc is None:
            raise EngineError("class bookkeeping failure in transversality")
        domain.append(dom)
        induced.append(tarc)
        # kappa Clifford action on the leading graded piece
        x = base.project(p, r)
        y = base.cliff_cochain(ks.cochain, x)
        sol = solve(lift_lows, y.coeffs)
        if sol is None:
            raise EngineError("KS action does not lift to the filtration")
        w = Form(m.dim)
        for k, c in sol.items():
            if k < n_closed2:
                w = w + closed2_forms[k].scale(c)
        kc = graded_coords(base, p + 2, tw.coords(w.coeffs, parity))
        kactions.append(kc if kc is not None else {})

    # fit: induced = c * kappa_action as linear maps on the domain quotient
    const = None
    proportional = True
    relations = reduce_columns(domain)[1]
    for i, rel in relations.items():
        # dependent: linearity demands the same relation among images
        ti: Vec = {}
        ki: Vec = {}
        for j, c in rel.items():
            if j == i:
                continue
            ti = vec_axpy(ti, -c, induced[j])
            ki = vec_axpy(ki, -c, kactions[j])
        if ti != induced[i] or ki != kactions[i]:
            proportional = False
    for i in range(len(domain)):
        if i in relations:
            continue
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
