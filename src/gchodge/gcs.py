"""Generalized complex structures on a model: constructors, eigenbundle,
pure spinors, the U_k grading via the spinorial action of J, del/delbar,
and the symplectic phi/delta machinery.

The grading operator N is the image of J under so(E) = wedge^2 E inside the
Clifford algebra, built as a table from the generator tables of E_C's
coordinate basis (each sends a blade to at most one signed blade); U_k is
its -ik eigenspace, realized exactly by Lagrange interpolation over the
forced spectrum {-in, ..., in}.  N preserves form parity, so a blade of
degree d has parts only in the U_k with k = d - n - parity (mod 2): each
blade is projected with the n + 1 or n nodes of its own parity class, and
N must satisfy that class's minimal polynomial on it.

J is real (and so are H and the structure constants), so N is real and
complex conjugation maps U_k onto U_{-k}: a blade's part in U_{-k} is the
conjugate of its part in U_k, and U_{-k} = conj U_k, so only k >= 0 is
computed.  The pure spinor is the basis vector of the line U_{-n}, checked
to be annihilated by every element of L's basis.

N is the sum of one operator per block of J, the finest partition of the
generators (x_i and e^i as one index) that J does not couple, so U_k is the
sum over sum k_b = k of the wedge products of the blocks' U_{k_b}
(Gualtieri's product structures), each block graded on its own blades.  A
blade is the wedge of its blocks' blades up to the sign of sorting them
(forms.blade_wedge_sign), which the products carry where blocks interleave,
as kt's {1, 4} and {2, 3} do; one span per U_k makes them canonical.  A J of
one block is the product of one factor, and no structure keeps a per-blade
table.

The part D_s of d_H shifting the grading by s in {-3, -1, 1, 3} (d_H has
Clifford degree 1 and 3) has [N, D_s] = -is D_s.  With C = [N, d_H], an
integrable structure has [N, C] = -d_H, del = (d_H - iC)/2 and
delbar = (d_H + iC)/2 (Cavalcanti's d^J = [d, J]); otherwise the four parts
come by Lagrange over the nodes -is, after checking
(ad_N^2 + 1)(ad_N^2 + 9) d_H = 0.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache, cached_property
from math import factorial

from .courant import _clifford_vec, algebroid_from_basis, pairing
from .errors import (BMismatch, DegenerateOmega, EngineError, NotAlmostComplex,
                     NotClosedUnderBracket, NotIntegrable, NotIsotropic,
                     NotOrthogonal, OmegaNotClosed, SpectrumViolation,
                     TwistWrongType, WrongType)
from .forms import (Form, SpinOp, _compose, _generator_tables, _table_combine,
                    blade_wedge_sign, popcount, spin_apply)
from .liemodel import LieAlgebroid, LieModel, _mask_indices
from .linalg import (Matrix, Subspace, Vec, _acc, _axpy_into, mat_inv,
                     mat_mul, matrix_kernel, vec_conj, vec_scale)
from .scalars import Half, I, ONE, QI, ZERO


# -- E_C matrix plumbing -------------------------------------------------------

def pairing_gram(dim: int) -> Matrix:
    n2 = 2 * dim
    P = [[QI(0)] * n2 for _ in range(n2)]
    for i in range(dim):
        P[i][dim + i] = Half
        P[dim + i][i] = Half
    return P


def flat_matrix(two_form: Form) -> Matrix:
    """Matrix of X -> i_X w in the coordinate bases (columns are images)."""
    dim = two_form.dim
    M = [[QI(0)] * dim for _ in range(dim)]
    for i in range(dim):
        for mask, v in two_form.contract_index(i + 1).coeffs.items():
            M[mask.bit_length() - 1][i] = v
    return M


# -- graded splitting -------------------------------------------------------------

def form_of_vec(dim: int, v: Vec) -> Form:
    return Form(dim, dict(v))


# -- the spinorial action of J and its eigenprojections ----------------------------

def _spinorial_N(dim: int, J: Matrix) -> SpinOp:
    """The table of N = 1/2 sum_{a,b} J[b][a] g_b g_s(a) - tr(J)/4, the image
    of J in the Clifford algebra: g_c is the c-th generator table and s(a)
    the index of the generator dual to the a-th one under the pairing.  The
    entries of J may be ParamPoly, for a family's J(t)."""
    gamma = _generator_tables(dim)
    # per column a of J: the generator applied first, then each nonzero
    # 1/2 J[b][a] with its generator, x_i before e^i for each i
    terms = [(gamma[(a + dim) % (2 * dim)],
              [(gamma[b], J[b][a] * Half) for i in range(dim)
               for b in (i, dim + i) if J[b][a]])
             for a in range(2 * dim)]
    trace = sum((J[a][a] for a in range(2 * dim)), QI(0))
    shift = -trace * QI(Fraction(1, 4))
    N: SpinOp = {}
    for mask in range(1 << dim):
        col: Vec = {}
        for first, second in terms:
            hit = first[mask]
            if hit is None:
                continue
            m1, s1 = hit
            for gb, c in second:
                hit = gb[m1]
                if hit is not None:
                    _acc(col, hit[0], c if s1 * hit[1] > 0 else -c)
        if shift:
            _acc(col, mask, shift)
        if col:
            N[mask] = col
    return N


@cache
def _projector_plan(n: int, cls: int) -> tuple:
    """(ks, minpoly, vand_inv) for the parity class ks = {k in -n..n : k = cls
    mod 2}: minpoly is prod (x + ik) over ks, lowest coefficient first, and
    row j of vand_inv holds the Lagrange coefficients of N^0, N^1, ... that
    project onto U_{ks[j]} a vector whose spectrum lies in {-ik : k in ks}."""
    ks = tuple(k for k in range(-n, n + 1) if (k - cls) % 2 == 0)
    minpoly = [ONE]
    for k in ks:
        minpoly = [a * QI(0, k) + b for a, b
                   in zip(minpoly + [QI(0)], [QI(0)] + minpoly)]
    V = [[QI(0, -k) ** m for k in ks] for m in range(len(ks))]
    return ks, tuple(minpoly), tuple(tuple(row) for row in mat_inv(V))


def _powers(N: SpinOp, start: Vec, count: int) -> list[Vec]:
    """start and its images under N^1..N^count."""
    powers: list[Vec] = [start]
    for _ in range(count):
        powers.append(spin_apply(N, powers[-1]))
    return powers


def _combine(coeffs, vecs: list[Vec]) -> Vec:
    """sum_j coeffs[j] vecs[j], over the shorter of the two."""
    out: Vec = {}
    for c, v in zip(coeffs, vecs):
        if c:
            _axpy_into(out, c, v)
    return out


def _ad_split(N: SpinOp, D: SpinOp) -> dict[int, SpinOp]:
    """The nonzero parts D_s of D that shift the grading by s: N is -ik on
    U_k, so D_s is the -is eigenpart of ad_N = N∘ - ∘N.  The Lagrange nodes
    are s = +-1 when ad_N^2 D = -D, else s = +-1, +-3, the spectrum of an
    operator of Clifford degree 1 and 3 such as d_H."""
    powers = [D]
    for n in (1, 3):
        ks, minpoly, vand_inv = _projector_plan(n, 1)
        while len(powers) <= len(ks):
            powers.append(_table_combine((ONE, -ONE), (
                _compose(N, powers[-1]), _compose(powers[-1], N))))
        if not _table_combine(minpoly, powers):
            return {s: t for s, row in zip(ks, vand_inv)
                    if (t := _table_combine(row, powers))}
    raise SpectrumViolation(
        "ad_N violates the forced spectrum {-3i, -i, i, 3i} on d_H")


def _project_blade(N: SpinOp, mask: int, plan: tuple) -> dict[int, Vec]:
    """The nonzero parts {k: Vec} of a blade in the U_k of one parity class.
    N must satisfy the class's minimal polynomial on the blade, or its
    spectrum there leaves the class and the projections would be wrong.
    N is real and the nodes are symmetric, so the Lagrange rows are combined
    for k >= 0 only and part_{-k} = conj(part_k)."""
    ks, minpoly, vand_inv = plan
    powers = _powers(N, {mask: ONE}, len(ks))
    if _combine(minpoly, powers):
        raise SpectrumViolation(
            "spinorial operator violates the forced spectrum of the parity "
            f"class {{{', '.join(f'{-k}i' for k in ks)}}} on blade {mask}",
            blade=mask)
    upper = {k: _combine(row, powers)
             for k, row in zip(ks, vand_inv) if k >= 0}
    parts: dict[int, Vec] = {}
    total: Vec = {}
    for k in ks:
        comp = upper[k] if k >= 0 else vec_conj(upper[-k])
        if comp:
            parts[k] = comp
            _axpy_into(total, ONE, comp)
    if total != {mask: ONE}:
        raise SpectrumViolation("eigenprojections do not resolve identity",
                                blade=mask)
    return parts


def _grade_block(N: SpinOp, n: int, masks, ambient: int) -> tuple[int, dict]:
    """(cls, {k: U_k for 0 <= k <= n}) for the blades `masks`, which N
    preserves and which include blade 0.  N preserves form parity, so a blade
    of degree d has parts only in the U_k with k = d + cls (mod 2), where
    blade 0 fixes cls as the class whose minimal polynomial kills it; one pass
    of N-powers per blade, with the nodes of its class only, gives both the
    spectrum check and the blade's parts, whose k >= 0 ones join the spans
    as they come."""
    head = _powers(N, {0: ONE}, n + 1)
    cls = next((c for c in (0, 1)
                if not _combine(_projector_plan(n, c)[1], head)), None)
    if cls is None:
        raise SpectrumViolation(
            "spinorial operator violates the forced spectrum "
            f"{{-i{n}..i{n}}} on blade 0", blade=0)
    plans = [_projector_plan(n, c) for c in (0, 1)]
    u_vecs: dict[int, list[Vec]] = {k: [] for k in range(n + 1)}
    for mask in masks:
        parts = _project_blade(N, mask, plans[(popcount(mask) + cls) % 2])
        for k, comp in parts.items():
            if k >= 0:
                u_vecs[k].append(comp)
    return cls, {k: Subspace.span(ambient, vecs) for k, vecs in u_vecs.items()}


def _blocks(J: Matrix, dim: int) -> list[list[int]]:
    """The finest partition of the generator indices 0..dim-1 that J does not
    couple: union-find over J's nonzero entries, with x_i and e^i both taken
    as index i.  Each block is ascending; blocks come by their least index."""
    block_of = [{i} for i in range(dim)]
    for b, row in enumerate(J):
        for a, x in enumerate(row):
            if x and block_of[a % dim] is not block_of[b % dim]:
                merged = block_of[a % dim] | block_of[b % dim]
                for i in merged:
                    block_of[i] = merged
    return sorted({min(s): sorted(s) for s in block_of}.values())


def _wedge_disjoint(u: Vec, v: Vec) -> Vec:
    """u ^ v for forms on disjoint sets of generators."""
    return {a | b: x * y if blade_wedge_sign(a, b) > 0 else -(x * y)
            for a, x in u.items() for b, y in v.items()}


def _product_grading(J: Matrix, dim: int, blocks: list) -> tuple[int, dict]:
    """(cls, {k: U_k for k >= 0}) of the product of J's blocks, cls summing
    the blocks' classes.  A block's N, built on its own blades, is relabelled
    onto the model's, which keep the order of generators, so a block whose
    matrix repeats an earlier block's takes that block's U_k bases with their
    blades relabelled, and is not graded again; partial products that the
    blocks still to come cannot raise to k >= 0 are skipped."""
    cls, prods, rest = 0, {0: [{0: ONE}]}, dim // 2
    graded: dict[tuple, tuple] = {}     # block matrix -> (cb, masks, bases)
    for block in blocks:
        m, nb = len(block), len(block) // 2
        idx = block + [dim + i for i in block]
        masks = [sum(1 << block[j] for j in range(m) if mask >> j & 1)
                 for mask in range(1 << m)]
        Jb = tuple(tuple(J[r][c] for c in idx) for r in idx)
        if Jb not in graded:
            Nb = _spinorial_N(m, Jb)
            cb, upper = _grade_block(
                {masks[a]: {masks[b]: x for b, x in col.items()}
                 for a, col in Nb.items()}, nb, masks, 1 << dim)
            graded[Jb] = cb, masks, {
                kb: (upper[kb] if kb >= 0 else upper[-kb].conj())._basis
                for kb in range(-nb, nb + 1)}
        cb, first, bases = graded[Jb]
        relabel = dict(zip(first, masks)) if first is not masks else None
        cls, rest = cls + cb, rest - nb
        nxt: dict[int, list[Vec]] = {}
        for kb in range(-nb, nb + 1):
            basis = bases[kb] if relabel is None else [
                {relabel[a]: x for a, x in v.items()} for v in bases[kb]]
            for k, vecs in prods.items():
                if k + kb + rest >= 0:
                    nxt.setdefault(k + kb, []).extend(
                        _wedge_disjoint(u, v) for u in vecs for v in basis)
        prods = nxt
    return cls % 2, {k: Subspace.span(1 << dim, prods.get(k, ()))
                     for k in range(dim // 2 + 1)}


class GCStruct:
    """Validated generalized complex structure with exact grading machinery."""

    def __init__(self, model: LieModel, J: Matrix, L: LieAlgebroid,
                 kind: str = "general"):
        self.model = model
        self.J = J
        self.L = L
        self.kind = kind
        self.n = model.dim // 2
        self.omega = None      # symplectic data
        self.B = None
        self.beta = None       # bivector coefficients {(i,j): QI}, i<j 0-based
        self.Imat = None       # complex-type data
        self._build_grading()
        self._extract_spinor()

    # -- grading -------------------------------------------------------------

    def _build_grading(self):
        dim, n = self.model.dim, self.n
        cls, upper = _product_grading(self.J, dim, _blocks(self.J, dim))
        self.parity = (n + cls) % 2
        # N is real, so U_{-k} = conj U_k
        ks = range(-n, n + 1)
        self.U = {k: upper[k] if k >= 0 else upper[-k].conj() for k in ks}
        self.U_dims = {k: self.U[k].dim for k in ks}

    @cached_property
    def dual_basis(self) -> list[Vec]:
        """The pairing-normalized dual basis of L inside conj(L):
        <lam^a, l_b> = delta/2; formed on first use, by the cochain Clifford
        action only."""
        lbar = [vec_conj(b) for b in self.L.basis]
        G = [[pairing(self.model.dim, lb, l) for l in self.L.basis]
             for lb in lbar]
        out: list[Vec] = []
        for row in mat_inv(G):
            elem: Vec = {}
            for g, lb in enumerate(lbar):
                c = row[g] * Half
                if c:
                    _axpy_into(elem, c, lb)
            out.append(elem)
        return out

    @cached_property
    def N(self) -> SpinOp:
        """The table of J's spinorial action on every blade."""
        return _spinorial_N(self.model.dim, self.J)

    # -- public grading API ----------------------------------------------------

    def decompose(self, w: Form) -> dict[int, Form]:
        """w's nonzero parts in the U_k, by Lagrange over w's own N-powers:
        the even and the odd blades of w each lie in one parity class."""
        parts: dict[int, Form] = {}
        for p in (0, 1):
            start = w.parity_part(p).coeffs
            ks, minpoly, vand_inv = _projector_plan(
                self.n, (p + self.n + self.parity) % 2)
            powers = _powers(self.N, start, len(ks))
            if _combine(minpoly, powers):
                raise SpectrumViolation(
                    "spinorial operator violates the forced spectrum of the "
                    f"parity class on the degree-{p} (mod 2) part of a form")
            parts.update((k, form_of_vec(w.dim, comp)) for k, row
                         in zip(ks, vand_inv) if (comp := _combine(row, powers)))
        return parts

    def project(self, k: int, w: Form) -> Form:
        return self.decompose(w).get(k, Form(w.dim))

    def U_subspace(self, k: int) -> Subspace:
        return self.U.get(k, Subspace.zero(1 << self.model.dim))

    @cached_property
    def dH_parts(self) -> dict[int, SpinOp]:
        """d_H split by grading shift: -1 is del and +1 is delbar (always
        present, possibly empty); any other key means that d_H leaves
        U_{k-1} + U_{k+1}, so the structure is not integrable.  A zero d_H
        (a torus) splits into nothing without building N."""
        dH = self.model.dH_table
        return {-1: {}, 1: {}, **(_ad_split(self.N, dH) if dH else {})}

    def partial(self, w: Form) -> Form:
        return Form(w.dim, spin_apply(self.dH_parts[-1], w.coeffs))

    def delbar(self, w: Form) -> Form:
        return Form(w.dim, spin_apply(self.dH_parts[1], w.coeffs))

    # -- spinor -----------------------------------------------------------------

    def _extract_spinor(self):
        """The pure spinor spans U_{-n}; it is normalised to 1 at its first
        blade of lowest degree."""
        line = self.U[-self.n].basis()
        if len(line) != 1 or any(_clifford_vec(self.model.dim, l, line[0])
                                 for l in self.L.basis):
            raise EngineError("U_{-n} is not a line annihilated by L")
        v = line[0]
        lead = min(v, key=lambda m: (popcount(m), m))
        self.spinor = form_of_vec(self.model.dim, vec_scale(v, v[lead].inv()))

    # -- cochain Clifford action -------------------------------------------------

    def cliff_cochain(self, c: dict[int, QI], w: Form) -> Form:
        """Clifford action of a wedge^k L* cochain through the half-normalized
        identification L* = conj(L), read off the columns of `cliff_table(w)`
        at c's masks."""
        return Form(self.model.dim, spin_apply(self._cliff_columns(w, c), c))

    def cliff_table(self, w: Form) -> SpinOp:
        """The table of a -> a.w on every cochain mask."""
        return self._cliff_columns(w, range(1 << self.L.rank))

    def _cliff_columns(self, w: Form, masks) -> SpinOp:
        """The columns of a -> a.w at masks, in ascending order when masks
        ascend: ascending factors act right-to-left, so each column is built
        from the column of the mask without its lowest index, which acts
        last, and only those prefixes are built."""
        out: SpinOp = {0: dict(w.coeffs)}
        for mask in masks:
            todo = []
            while mask not in out:
                todo.append(mask)
                mask &= mask - 1
            for m in reversed(todo):
                low = (m & -m).bit_length() - 1
                out[m] = _clifford_vec(self.model.dim, self.dual_basis[low],
                                       out[m & (m - 1)])
        return out

    def __repr__(self):
        return (f"GCStruct(kind={self.kind}, model={self.model.name!r}, "
                f"parity={self.parity})")


# -- constructors ---------------------------------------------------------------

def _validate_J(m: LieModel, J: Matrix) -> list[Vec]:
    """J's sparse columns, once J is checked real, J^2 = -1 column by column,
    and <Ja, Jb> = <a, b> on every basis pair: 1/2 for x_i with e^i, else 0."""
    n4 = 2 * m.dim
    if len(J) != n4 or any(len(r) != n4 for r in J):
        raise NotAlmostComplex(f"J must be {n4}x{n4}")
    for row in J:
        for x in row:
            if not x.is_real():
                raise NotAlmostComplex("J must have real (rational) entries")
    cols = [{i: J[i][j] for i in range(n4) if J[i][j]} for j in range(n4)]
    for j, col in enumerate(cols):
        sq: Vec = {}
        for i, x in col.items():
            _axpy_into(sq, x, cols[i])
        if sq != {j: -ONE}:
            raise NotAlmostComplex("J^2 != -1")
    for a in range(n4):
        for b in range(a, n4):
            if pairing(m.dim, cols[a], cols[b]) != (
                    Half if b - a == m.dim else ZERO):
                raise NotOrthogonal("<Ja, Jb> != <a, b>")
    return cols


def make_general(m: LieModel, J: Matrix, kind: str = "general") -> GCStruct:
    m.require_valid()
    J = [[x if isinstance(x, QI) else QI(x) for x in row] for row in J]
    kernel = matrix_kernel([{**col, j: col.get(j, ZERO) - I}   # J - i
                            for j, col in enumerate(_validate_J(m, J))])
    if len(kernel) != m.dim:
        raise NotAlmostComplex(
            f"+i eigenspace has dim {len(kernel)}, expected {m.dim}")
    try:
        L = algebroid_from_basis(m, kernel, name="L")
    except NotClosedUnderBracket as e:
        raise NotIntegrable(f"+i eigenbundle not Dorfman-closed: {e}",
                            **e.details) from e
    except NotIsotropic as e:  # cannot happen for orthogonal J; keep the guard
        raise NotIntegrable(str(e)) from e
    return GCStruct(m, J, L, kind=kind)


def make_symplectic(m: LieModel, omega: Form, B: Form | None = None) -> GCStruct:
    m.require_valid()
    B = B if B is not None else Form(m.dim)
    for f, nm in ((omega, "omega"), (B, "B")):
        if not f.is_zero() and not f.is_homogeneous(2):
            raise WrongType(f"{nm} must be a 2-form")
        if any(v.im for v in f.coeffs.values()):
            raise WrongType(f"{nm} must be real")
    n = m.dim // 2
    top = omega
    for _ in range(n - 1):
        top = top.wedge(omega)
    if top.is_zero():
        raise DegenerateOmega("omega^n = 0")
    if not m.d(omega).is_zero():
        raise OmegaNotClosed(f"d omega = {m.d(omega)!r}")
    if m.d(B) != m.H:
        raise BMismatch(f"dB = {m.d(B)!r} but H = {m.H!r}")

    dim = m.dim
    Mw = flat_matrix(omega)
    try:
        Mb = mat_inv(Mw)
    except ZeroDivisionError:
        raise DegenerateOmega("omega is not invertible") from None
    MB = flat_matrix(B)

    # J0 of omega, then e^{B} and e^{-B} on E_C: x -> x + i_x B, x - i_x B
    J0 = [[QI(0)] * (2 * dim) for _ in range(2 * dim)]
    EB, EBi = ([[ONE if r == c else ZERO for c in range(2 * dim)]
                for r in range(2 * dim)] for _ in range(2))
    for i in range(dim):
        for j in range(dim):
            J0[i][dim + j], J0[dim + i][j] = -Mb[i][j], Mw[i][j]
            EB[dim + i][j], EBi[dim + i][j] = MB[i][j], -MB[i][j]
    J = mat_mul(EB, mat_mul(J0, EBi))

    s = make_general(m, J, kind="symplectic")
    s.omega = omega
    s.B = B
    s.beta = {(i, j): Mb[i][j] for i in range(dim) for j in range(i + 1, dim)
              if Mb[i][j]}
    rho = (omega.scale(I) - B).exp()
    if s.spinor != rho:
        raise EngineError("symplectic spinor mismatch against e^{-B+i omega}")
    if not m.d_H(rho).is_zero():
        raise EngineError("symplectic spinor is not d_H-closed")
    return s


def make_complex(m: LieModel, Imat: Matrix) -> GCStruct:
    m.require_valid()
    dim = m.dim
    Imat = [[x if isinstance(x, QI) else QI(x) for x in row] for row in Imat]
    if len(Imat) != dim or any(len(r) != dim for r in Imat):
        raise NotAlmostComplex(f"I must be {dim}x{dim}")
    I2 = mat_mul(Imat, Imat)
    if I2 != [[QI(-1) if i == j else QI(0) for j in range(dim)] for i in range(dim)]:
        raise NotAlmostComplex("I^2 != -1")
    h30, h03 = _three_zero_parts(m.H, Imat)
    if not h30.is_zero() or not h03.is_zero():
        raise TwistWrongType(
            "twist has a (3,0)+(0,3) component",
            part30=repr(h30), part03=repr(h03))
    s = make_general(m, complex_J(Imat), kind="complex")
    s.Imat = Imat
    return s


def complex_J(Imat: Matrix) -> Matrix:
    """J = diag(-I, I^T) of a complex structure I: -I on vectors, I^T on
    covectors.  The entries may be ParamPoly, for a family's I(t); the zero
    is taken from them, as `Form.exp` takes its one."""
    dim = len(Imat)
    zero = Imat[0][0] * 0
    J = [[zero] * (2 * dim) for _ in range(2 * dim)]
    for i in range(dim):
        for j in range(dim):
            J[i][j] = -Imat[i][j]
            J[dim + i][dim + j] = Imat[j][i]
    return J


def _three_zero_parts(H: Form, Imat: Matrix):
    """(3,0) and (0,3) components of a 3-form w.r.t. the complex structure."""
    dim = H.dim
    if H.is_zero():
        return Form(dim), Form(dim)
    # generator e^i splits via the +-i eigenprojectors (1 -+ i I*)/2 of I on
    # covectors
    out = []
    for z in (-I, I):
        p = [Form(dim, {1 << j: ((ONE if i == j else QI(0)) + z * Imat[j][i])
                        * Half for j in range(dim)}) for i in range(dim)]
        part = Form(dim)
        for mask, v in H.coeffs.items():
            a, b, c = _mask_indices(mask)
            part = part + p[a].wedge(p[b]).wedge(p[c]).scale(v)
        out.append(part)
    return tuple(out)


# -- symplectic phi / delta machinery ---------------------------------------------

def _beta_contract(s: GCStruct, a: Form) -> Form:
    out = Form(a.dim)
    for (i, j), c in s.beta.items():
        out = out + a.contract_index(j + 1).contract_index(i + 1).scale(c)
    return out


def beta_exp(s: GCStruct, a: Form, factor: QI) -> Form:
    """exp(factor * beta-contraction) applied to a; nilpotent, exact."""
    out = a
    term = a
    k = 1
    while True:
        term = _beta_contract(s, term)
        if term.is_zero():
            return out
        coeff = factor ** k * QI(Fraction(1, factorial(k)))
        out = out + term.scale(coeff)
        k += 1


def symp_phi(s: GCStruct, a: Form) -> Form:
    """phi(a) = e^{-B+i omega} ^ e^{beta/2i} a, mapping degree k onto U_{k-n}."""
    if s.kind != "symplectic":
        raise WrongType("phi requires a symplectic-type structure")
    inner = beta_exp(s, a, ONE / (2 * I))
    return s.spinor.wedge(inner)


def symp_delta(s: GCStruct, a: Form) -> Form:
    """delta = [beta, d] = beta d - d beta (untwisted d)."""
    if s.kind != "symplectic":
        raise WrongType("delta requires a symplectic-type structure")
    m = s.model
    return _beta_contract(s, m.d(a)) - m.d(_beta_contract(s, a))
