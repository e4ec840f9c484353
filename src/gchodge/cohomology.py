"""Exact cohomology engines on the invariant spinor space: twisted and delbar
cohomology, the generalized Froelicher spectral sequence, the del-delbar lemma,
Hodge filtrations, the Mukai pairing on cohomology, strong Lefschetz, and the
complex-type mixed Hodge structure.

Everything is rank arithmetic over Q(i); there is no harmonic theory anywhere.
Every kernel over image is read off one ordered column reduction R = D V
that keeps its column operations (`linalg.ColumnReduction`, the loop that
every kernel and solve also runs), kept once per model, structure or
algebroid:
- d_H over the blades by descending (degree, mask) gives H: its essential
  cycles of each parity represent a basis of H whose classes from degree j
  on span the weight filtration W^j; d over the blades gives the invariant
  de Rham cohomology, delbar over the U_k bases by descending k the delbar
  cohomology, and d_L and delbar+ the cohomology of an algebroid and the
  bigraded cohomology of a generalized Kaehler pair;
- d_H in the basis made of the U_k bases by ascending k, which is not
  triangular and gives no class coordinates: its persistence pairs give the
  Froelicher pages, and the cycles V_c of its zero columns give the Hodge
  filtration: F^p H is spanned by the classes born in the U_{<=p} chain, so
  each F^p is read from one echelon per parity that grows with p, whose
  rows with pivots of degree j give the image of F~^i cap W^j in Gr_j; the
  cycles in that chain span its closed forms, which Griffiths
  transversality takes as representatives and lifts (`closed_in_chain`),
  and the nested F^{p-2} in F^p give the graded pieces Gr_F^p, whose
  coordinates are entries at pivots (`graded_coords`).
A direct sum A + B = H is one rank: dim(A + B) = dim A + dim B = dim H;
so is the bigraded direct sum of a generalized Kaehler pair.  The Mukai
pairing's block test is Q(F^p, F^{-p-2}) = 0, read off Q's rows on the
representatives and the Hodge flags, with no kernel of its own (`mukai_Q`).
The delbar cohomology is a reduction of its own and the del-delbar verdict
keeps its own subspace pipeline (the images of del, delbar and del delbar,
and the kernels of delbar on Im del and of del on Im delbar), so that
E_1 = H_delbar and "del-delbar <=> degeneration + Hodge filtration" stay
cross-checks and are not true by construction.  The bigraded engines reject
a structure whose d_H has parts beyond del and delbar.
"""

from __future__ import annotations

from bisect import bisect_left

from .errors import EngineError, NotIntegrable, WrongType, record
from .forms import (Form, SpinOp, blades_by_degree, mukai_dual, popcount,
                    spin_apply)
from .gcs import GCStruct, form_of_vec
from .liemodel import LieModel, once
from .linalg import (ColumnReduction, Echelon, Subspace, Vec, _axpy_into,
                     kernel_lift, vec_conj)
from .scalars import ONE


# -- twisted cohomology --------------------------------------------------------

class TwistedCohomology(ColumnReduction):
    """Z2-graded cohomology of d_H on the 2^{2n}-dimensional spinor space,
    from one reduction of d_H over the blades by descending (degree, mask),
    its classes grouped by parity: d_H maps even blades to odd ones, so each
    essential cycle has one parity.  The classes of a parity run by
    ascending (degree, mask) of their leading blades, and d_H raises the
    degree, so the forms of degree >= j are a prefix of the numbering and
    the classes from the first of degree j on span the weight filtration
    W^j within that parity.  The representatives are real, as d_H is."""

    def __init__(self, m: LieModel):
        m.require_valid()
        order = blades_by_degree(m.dim)
        dH = m.dH_table
        super().__init__(order, [dH.get(b, {}) for b in order],
                         [popcount(b) & 1 for b in order])
        self.model = m
        self.dim_even = self.dim(0)
        self.dim_odd = self.dim(1)
        self.total_dim = self.dim_even + self.dim_odd


def twisted_cohomology(m: LieModel) -> TwistedCohomology:
    """The twisted cohomology of a valid model, built once per model."""
    return once(m, TwistedCohomology)


# -- delbar cohomology -----------------------------------------------------------

def _preimage_in(V: Subspace, op: SpinOp) -> Subspace:
    """{v in V : op(v) = 0} computed by exact kernel arithmetic; the lift
    through V's canonical basis is already canonical (`kernel_lift`)."""
    basis = V.basis()
    return Subspace(V.ambient, kernel_lift(
        [spin_apply(op, v) for v in basis], basis))


def _image_of(V: Subspace, op: SpinOp) -> Subspace:
    return Subspace.span(V.ambient, [spin_apply(op, v) for v in V.basis()])


def _integrable_parts(s: GCStruct) -> tuple[SpinOp, SpinOp]:
    """(del, delbar), the parts of d_H that shift the grading by -1 and +1;
    raises NotIntegrable when d_H has parts of any other shift, which the
    bigraded engines would otherwise silently drop."""
    extra = sorted(set(s.dH_parts) - {-1, 1})
    if extra:
        raise NotIntegrable(
            "d_H shifts the grading by "
            f"{', '.join(f'{j:+d}' for j in extra)} besides del and delbar",
            shifts=extra)
    return s.dH_parts[-1], s.dH_parts[1]


def _block_reduction(bases: dict, parts) -> tuple[ColumnReduction,
                                                  list[Vec]]:
    """(reduction, vectors): the reduction of an operator over the canonical
    bases of the blocks of a grading, bases[j] for block j, numbered block
    by block in the order of `bases`, each basis vector labelled (j, its
    pivot) and grouped by j; and the basis vectors in that numbering.
    `parts(j)` lists (op, j') for each part of the operator, which maps
    block j into block j'; a vector of a block has as coordinates its own
    entries at the block's pivots."""
    by_pivot = {j: {min(v): v for v in basis} for j, basis in bases.items()}
    order, vecs, cols = [], [], []
    for j, basis in by_pivot.items():
        for p, v in basis.items():
            order.append((j, p))
            vecs.append(v)
            col: Vec = {}
            for op, t in parts(j):
                piv = by_pivot.get(t, ())
                for b, c in spin_apply(op, v).items():
                    if b in piv:
                        col[t, b] = c
            cols.append(col)
    return ColumnReduction(order, cols, [j for j, _p in order]), vecs


def delbar_cohomology(s: GCStruct) -> ColumnReduction:
    """H^k_delbar for k = -n..n: one reduction of delbar over the canonical
    U_k bases by descending k, in which delbar is triangular, as it raises
    k; it shares nothing with the d_H reductions, so that E_1 = H_delbar
    stays a cross-check."""
    n = s.n
    _del, delbar = _integrable_parts(s)
    return _block_reduction(
        {k: s.U_subspace(k).basis() for k in range(n, -n - 1, -1)},
        lambda k: ((delbar, k + 1),))[0]


def delbar_dims(s: GCStruct) -> dict[int, int]:
    db = once(s, delbar_cohomology)
    return {k: db.dim(k) for k in range(-s.n, s.n + 1)}


def delbar_coords(s: GCStruct, k: int, v: Vec) -> Vec | None:
    """Coordinates of the class of v in H^k_delbar, or None when v is not a
    delbar-closed vector of U_k; in U_k's canonical basis, v's coordinate
    at a basis vector is its entry at that vector's pivot."""
    resid, used = s.U_subspace(k).echelon().reduce(v)
    if resid:
        return None
    return once(s, delbar_cohomology).coords(
        {(k, p): c for p, c in used.items()}, k)


# -- generalized Froelicher spectral sequence --------------------------------------

@record
class FrolicherReport:
    pages: dict[int, dict[int, int]]       # r -> {k: dim E_r^k}
    degenerates: bool
    delbar_total: int
    twisted_total: int

    def lines(self):
        out = []
        for r in sorted(self.pages):
            row = ", ".join(f"E^{k}={d}" for k, d in sorted(self.pages[r].items()))
            out.append(f"page E_{r}: {row}")
        out.append(f"degenerates at E_1: {'yes' if self.degenerates else 'NO'}"
                   f" (delbar total {self.delbar_total},"
                   f" twisted total {self.twisted_total})")
        return out


class _DHReduction:
    """The column reduction of d_H in the U-adapted basis, numbered by
    ascending (k, index) over the canonical U_k bases; `k_of[c]` is the k
    of number c.  `pairs` holds (k, k_low) for every nonzero column of R,
    `lows` the rows that are the low of one, and `cycles[k]` maps every
    zero column c in U_k to V_c in those numbers.  The V_c of a prefix's
    zero columns are a basis of its closed forms (Zomorodian and Carlsson
    2005); a cycle is formed as a form on first use only.  del lowers k, so
    the order is not triangular and the reduction gives no class
    coordinates.  (A plain class, not a `record`: nothing compares or
    prints it.)"""

    def __init__(self, bases: dict[int, list[Vec]], red: ColumnReduction,
                 vecs: list[Vec]):
        self.bases = bases
        self.k_of = k_of = red.groups
        self.lows = red.lows
        # V_c of a pair's column is nonzero at c and zero past it
        self.pairs = [(k_of[max(ops)], k_of[low])
                      for low, (_r, ops) in red.lows.items()]
        self.cycles: dict[int, dict[int, Vec]] = {k: {} for k in bases}
        for c, ops in red.cycles.items():
            self.cycles[k_of[c]][c] = ops
        self._vecs = vecs
        self._forms: dict[int, Vec] = {}

    def cycle(self, c: int) -> Vec:
        """V_c of the zero column c, as a form."""
        form = self._forms.get(c)
        if form is None:
            form = self._forms[c] = {}
            for r, x in self.cycles[self.k_of[c]][c].items():
                _axpy_into(form, x, self._vecs[r])
        return form

    def born(self, k: int) -> list[Vec]:
        """The cycles in U_k whose class is born there: those of the zero
        columns that are no low (with R's column of that low, such a column
        leaves a cycle of the prefix before it)."""
        return [self.cycle(c) for c in self.cycles[k] if c not in self.lows]


def _reduce_d_H(s: GCStruct) -> _DHReduction:
    """Ascending (k, index) puts the deepest filtration level of each total
    degree first, and the matching-parity chain U_{<=p} is a prefix of it
    (the two parities never meet in one column)."""
    n = s.n
    del_, delbar = _integrable_parts(s)
    bases = {k: s.U[k].basis() for k in range(-n, n + 1)}
    red, vecs = _block_reduction(
        bases, lambda k: ((del_, k - 1), (delbar, k + 1)))
    return _DHReduction(bases, red, vecs)


def closed_in_chain(s: GCStruct, p: int) -> Subspace:
    """The d_H-closed forms in the U_{<=p} chain of matching parity, a
    prefix of the reduction's order for its parity: the span of the cycles
    of the chain's zero columns."""
    red = once(s, _reduce_d_H)
    return Subspace.span(1 << s.model.dim, [
        red.cycle(c) for k in range(p, -s.n - 1, -2)
        for c in red.cycles.get(k, ())])


def frolicher_pages(s: GCStruct) -> FrolicherReport:
    """Pages of the bigraded complex W^{p,q} = U_{p-q}, folded along the
    2-periodicity in (p,q); E_1^k = H^k_delbar, differentials shift k by 1-2r.

    The pages come from the persistence pairs of one column reduction of d_H
    (Edelsbrunner, Letscher and Zomorodian 2002; Basu and Parida 2017) in
    the basis made of the canonical U_k bases.  Ascending (k, index) puts
    the deepest filtration level of each total degree first.  A pair from
    U_k to a low in U_k' is killed by d_r with r = (k - k' + 1)/2; E_r^k is
    dim U_k less the pairs with r' < r that have an end in U_k."""
    n = s.n
    red = once(s, _reduce_d_H)
    rmax = n + 1
    pages = {r: {k: len(b) for k, b in red.bases.items()}
             for r in range(1, rmax + 1)}
    for k, k_low in red.pairs:
        for r in range((k - k_low + 1) // 2 + 1, rmax + 1):
            pages[r][k] -= 1
            pages[r][k_low] -= 1
    tw = twisted_cohomology(s.model)
    dtot = sum(delbar_dims(s).values())
    degenerates = pages[1] == pages[rmax]
    return FrolicherReport(pages, degenerates, dtot, tw.total_dim)


# -- del-delbar lemma ---------------------------------------------------------------

@record
class DdbarReport:
    holds: bool
    im_del_cap_ker_delbar: int
    im_delbar_cap_ker_del: int
    im_deldelbar: int
    witness: Form | None

    def lines(self):
        if self.holds:
            return ["del-delbar lemma: holds"]
        return [f"del-delbar lemma: FAILS "
                f"(dims {self.im_del_cap_ker_delbar}/"
                f"{self.im_delbar_cap_ker_del}/{self.im_deldelbar})",
                f"witness: {self.witness!r}"]


def ddbar_check(s: GCStruct) -> DdbarReport:
    """Im(del) cap Ker(delbar) = Im(delbar) cap Ker(del) = Im(del delbar)."""
    N = 1 << s.model.dim
    full = Subspace.full(N)
    del_, delbar = _integrable_parts(s)
    im_del = _image_of(full, del_)
    im_dbar = _image_of(full, delbar)
    im_dd = _image_of(im_dbar, del_)
    # Im del cap Ker delbar and Im delbar cap Ker del, as the kernels of
    # delbar on Im del and of del on Im delbar
    A = _preimage_in(im_del, delbar)
    B = _preimage_in(im_dbar, del_)
    holds = A == B == im_dd
    witness = None
    if not holds:
        for big in (A, B):
            for v in big.basis():
                if not im_dd.contains(v):
                    witness = form_of_vec(s.model.dim, v)
                    break
            if witness:
                break
    return DdbarReport(holds, A.dim, B.dim, im_dd.dim, witness)


# -- Hodge filtration -----------------------------------------------------------------

@record
class HodgeReport:
    twisted_dims: tuple[int, int]
    delbar_dims: dict[int, int]
    frolicher_degenerates: bool
    ddbar_holds: bool
    filtration: dict[int, Subspace]
    filtration_dims: dict[int, int]
    hodge_ok: bool
    hodge_by_p: dict[int, bool]
    graded_match: dict[int, bool] | None   # dim F^p - dim F^{p-2} == h^p_delbar

    def lines(self):
        ev, od = self.twisted_dims
        out = [f"twisted dims: even {ev}, odd {od}",
               "delbar dims: " + ", ".join(
                   f"h^{k}={d}" for k, d in sorted(self.delbar_dims.items())),
               f"frolicher degenerates: {'yes' if self.frolicher_degenerates else 'NO'}",
               f"ddbar: {'holds' if self.ddbar_holds else 'FAILS'}",
               "filtration dims: " + ", ".join(
                   f"F^{p}={d}" for p, d in sorted(self.filtration_dims.items())),
               f"hodge filtration condition: {'holds' if self.hodge_ok else 'FAILS'}"]
        if self.graded_match is not None:
            ok = all(self.graded_match.values())
            out.append(f"graded pieces match delbar dims: {'yes' if ok else 'NO'}")
        return out


def closed_classes(s: GCStruct, V: Subspace) -> Subspace:
    """Classes of the d_H-closed forms in V, in total coordinates."""
    tw = twisted_cohomology(s.model)
    closed = _preimage_in(V, s.model.dH_table).basis()
    return Subspace.span(tw.total_dim, [tw.coords(v) or {} for v in closed])


def _hodge_flags(s: GCStruct) -> dict[int, Subspace]:
    """F^p H for p = -n..n, each in the coordinates of its parity's block
    of H: the span of the classes born in the U_{<=p} chain of matching
    parity, read off one echelon per parity that grows with p.  Its
    dimension is the number of zero columns of R in that chain less the
    lows there, and the two counts must agree."""
    n = s.n
    red = once(s, _reduce_d_H)
    tw = twisted_cohomology(s.model)
    echs = (Echelon(), Echelon())
    flags = {}
    for p in range(-n, n + 1):
        parity = (p + n + s.parity) % 2
        for form in red.born(p):
            coords = tw.coords(form, parity)
            if coords is None:
                raise EngineError("a cycle of the d_H reduction is not closed")
            echs[p % 2].insert(coords)
        flags[p] = Subspace(tw.dim(parity), echs[p % 2].basis())
        count = (sum(len(red.cycles[k]) for k in range(p, -n - 1, -2))
                 - sum(1 for c in red.lows if _in_chain(red.k_of[c], p)))
        if flags[p].dim != count:
            raise EngineError(f"dim F^{p} H is {flags[p].dim} by span but "
                              f"{count} by the column reduction")
    return flags


def _in_chain(k: int, p: int) -> bool:
    return k <= p and (p - k) % 2 == 0


def filtration_subspace(s: GCStruct, p: int) -> Subspace:
    """F^p H: classes representable in the U_{<=p} chain of matching parity."""
    n = s.n
    if p > n:
        p = n if (p - n) % 2 == 0 else n - 1
    if p >= -n:
        return once(s, _hodge_flags)[p]
    tw = twisted_cohomology(s.model)
    return Subspace.zero(tw.dim((p + n + s.parity) % 2))


def graded_coords(s: GCStruct, p: int, v: Vec) -> Vec | None:
    """Coordinates of v + F^{p-2} in Gr_F^p = F^p / F^{p-2}, or None when v
    leaves F^p; v is in the class coordinates of p's parity.  F^{p-2} lies
    in F^p and both are fully reduced, so the pivots of F^{p-2} are among
    those of F^p, and the rows of F^p at the other pivots, which vanish at
    every pivot of F^p but their own, represent a basis of Gr_F^p by
    ascending pivot: the coordinate at such a row is the entry at its pivot
    of v's residual mod F^{p-2}."""
    top = filtration_subspace(s, p)
    if not top.contains(v):
        return None
    lower = filtration_subspace(s, p - 2)
    resid, _ = lower.echelon().reduce(v)
    low = {min(row) for row in lower._basis}
    graded = [q for q in (min(row) for row in top._basis) if q not in low]
    return {i: resid[q] for i, q in enumerate(graded) if q in resid}


def _rank_of_sum(basis: list[Vec], vecs: list[Vec]) -> int:
    """dim(span(basis) + span(vecs)), for a basis in fully reduced form."""
    ech = Echelon.of_basis(basis)
    return len(basis) + sum(1 for v in vecs if ech.insert(v)[0])


def hodge_filtration(s: GCStruct) -> HodgeReport:
    """The Hodge filtration of H and the Hodge condition H = F^p + conj
    F^{-p-2}, direct, for every p: one rank per pair {p, -p-2}, since the
    sum is direct exactly when dim(F^p + conj F^q) = dim F^p + dim F^q =
    dim H, and F^q + conj F^p is its conjugate.  The class representatives
    are real forms (d_H is real), so conjugation acts on class coordinates
    entrywise.  F^{p-2} lies in F^p by construction."""
    n = s.n
    tw = twisted_cohomology(s.model)
    dd = once(s, ddbar_check)
    frl = frolicher_pages(s)
    db = delbar_dims(s)
    filt = once(s, _hodge_flags)
    hodge_by_p = {}
    for p in range(-n, n + 1):
        if -p - 2 in hodge_by_p:
            hodge_by_p[p] = hodge_by_p[-p - 2]
            continue
        h_dim = tw.dim((p + n + s.parity) % 2)
        fp = filt[p]
        fq = filtration_subspace(s, -p - 2)
        hodge_by_p[p] = (fp.dim + fq.dim == h_dim and _rank_of_sum(
            fp._basis, [vec_conj(v) for v in fq._basis]) == h_dim)
    top_even = filt[n].dim == tw.dim((2 * n + s.parity) % 2)
    top_odd = filt[n - 1].dim == tw.dim((2 * n - 1 + s.parity) % 2)
    hodge_ok = all(hodge_by_p.values()) and top_even and top_odd
    graded = None
    if dd.holds:
        graded = {}
        for p in range(-n, n + 1):
            lower = filtration_subspace(s, p - 2).dim
            graded[p] = (filt[p].dim - lower) == db.get(p, 0)
    return HodgeReport(
        twisted_dims=(tw.dim_even, tw.dim_odd),
        delbar_dims=db,
        frolicher_degenerates=frl.degenerates,
        ddbar_holds=dd.holds,
        filtration=dict(filt),
        filtration_dims={p: f.dim for p, f in filt.items()},
        hodge_ok=hodge_ok,
        hodge_by_p=hodge_by_p,
        graded_match=graded,
    )


# -- Mukai pairing on cohomology --------------------------------------------------------

@record
class MukaiQReport:
    rows: list[Vec]    # row i holds the nonzero Q(rep_i, rep_j) by j
    descends: bool
    nondegenerate: bool
    block_orthogonal: bool | None
    measured_dh_sign: int | None

    def lines(self):
        out = [f"Q descends to cohomology: {'yes' if self.descends else 'NO'}",
               f"Q nondegenerate: {'yes' if self.nondegenerate else 'NO'}"]
        if self.block_orthogonal is not None:
            out.append("Q pairs H^j with H^-j only: "
                       f"{'yes' if self.block_orthogonal else 'NO'}")
        if self.measured_dh_sign is not None:
            out.append("measured sign in (d_H w, g) = s (w, d_H g): "
                       f"s = {self.measured_dh_sign:+d}")
        return out


def _mukai_rows(duals: list[Vec], right: list[Vec]) -> list[Vec]:
    """Row i holds the nonzero sums over k of duals[i][k] right[j][k] by j,
    formed against a coordinate index over `right`, so that only nonzero
    products are computed: the Mukai pairings (a, right[j]) when duals[i] is
    the Mukai dual of a form a."""
    index: dict[int, Vec] = {}
    for j, b in enumerate(right):
        for k, y in b.items():
            index.setdefault(k, {})[j] = y
    rows = []
    for a in duals:
        row: Vec = {}
        for k, x in a.items():
            if k in index:
                _axpy_into(row, x, index[k])
        rows.append(row)
    return rows


def mukai_Q(s: GCStruct) -> MukaiQReport:
    """The Mukai pairing Q on the canonical representatives of H_{d_H},
    with every verdict exact over the blade basis (Q is bilinear):
    Q descends when (d_H e_b, rep) = (rep, d_H e_b) = 0 for every blade b
    and representative; it is nondegenerate when its rows have full rank;
    the sign s in (d_H w, g) = s (w, d_H g) is the first of +1, -1 that
    holds on every pair of blades, or None when neither does.
    "Q pairs H^j with H^-j only" is Q(F^p, F^{-p-2}) = 0 for p = -n..-1,
    read off Q's rows and the Hodge flags.  Q pairs U_a only with U_{-a},
    and F^p, F^{-p-2} have representatives in the U_{<=p}, U_{<=-p-2}
    chains, so it fails only through an engine defect; under the del-delbar
    lemma F^p is the sum of the H^k, k <= p, and as Q is real it says that
    Q pairs H^j with H^-j only."""
    m = s.model
    tw = twisted_cohomology(m)
    even = tw.reps(0)
    reps = even + tw.reps(1)
    N = 1 << m.dim
    dH = m.dH_table
    exact = [dH.get(b, {}) for b in range(N)]
    rep_duals = [mukai_dual(m.dim, r) for r in reps]
    exact_duals = [mukai_dual(m.dim, e) for e in exact]
    rows = _mukai_rows(rep_duals, reps)
    descends = not any(_mukai_rows(exact_duals, reps)) \
        and not any(_mukai_rows(rep_duals, exact))
    nondeg = Subspace.span(len(reps), rows).dim == len(reps)

    def flag(p: int) -> list[Vec]:
        # F^p's basis in the numbering of reps, the odd block after the even
        off = len(even) if (p + s.n + s.parity) % 2 else 0
        return [{off + i: x for i, x in v.items()}
                for v in filtration_subspace(s, p)._basis]

    # Q b for each b of F^{-p-2}, paired with each a of F^p: Q(a, b)
    orth = not any(any(_mukai_rows(_mukai_rows(flag(-p - 2), rows), flag(p)))
                   for p in range(-s.n, 0))

    # measured sign in the integration-by-parts identity, on blade pairs
    blades = [{b: ONE} for b in range(N)]
    lhs = _mukai_rows(exact_duals, blades)
    rhs = _mukai_rows([mukai_dual(m.dim, b) for b in blades], exact)
    neg = [{j: -c for j, c in row.items()} for row in rhs]
    sign = 1 if lhs == rhs else -1 if lhs == neg else None
    return MukaiQReport(rows, descends, nondeg, orth, sign)


# -- strong Lefschetz ----------------------------------------------------------------------

def invariant_derham(m: LieModel) -> ColumnReduction:
    """Untwisted invariant de Rham cohomology in every degree, grouped by
    degree, from one reduction of d over the blades by descending (degree,
    mask); built once per model."""
    return once(m, _reduce_d)


def _reduce_d(m: LieModel) -> ColumnReduction:
    order = blades_by_degree(m.dim)
    d = m.d_table
    return ColumnReduction(order, [d.get(b, {}) for b in order],
                           [popcount(b) for b in order])


@record
class LefschetzReport:
    verdicts: dict[int, bool]
    kernel_witness: Form | None

    @property
    def ok(self) -> bool:
        return all(self.verdicts.values())

    def lines(self):
        out = [f"omega^(n-{k}): H^{k} -> H^(2n-{k}) "
               f"{'iso' if ok else 'NOT iso'}"
               for k, ok in sorted(self.verdicts.items())]
        if self.kernel_witness is not None:
            out.append(f"lefschetz kernel witness: {self.kernel_witness!r}")
        return out


def lefschetz_check(s: GCStruct) -> LefschetzReport:
    if s.kind != "symplectic":
        raise WrongType("strong Lefschetz requires a symplectic-type structure")
    m = s.model
    n = s.n
    derham = invariant_derham(m)
    verdicts = {}
    witness = None
    for k in range(n + 1):
        reps = derham.reps(k)
        dual = derham.dim(2 * n - k)
        power = Form.one(m.dim)
        for _ in range(n - k):
            power = power.wedge(s.omega)
        cols = []
        for r in reps:
            img = power.wedge(form_of_vec(m.dim, r))
            cols.append(derham.coords(img.coeffs, 2 * n - k) or {})
        rank = Subspace.span(max(dual, 1), cols).dim
        ok = rank == len(reps) == dual
        verdicts[k] = ok
        if not ok and witness is None:
            kernel = kernel_lift(cols, reps)
            if kernel:
                witness = form_of_vec(m.dim, kernel[0])
    return LefschetzReport(verdicts, witness)


# -- complex-type mixed Hodge structure ----------------------------------------------------

@record
class MHSReport:
    skipped: str | None
    gr_dims: dict[int, int] | None
    split_ok: bool
    split_by_ij: dict[tuple[int, int], bool] | None
    graded_hodge_dims: dict[int, list[int]] | None

    def lines(self):
        if self.skipped:
            return [f"mixed Hodge structure: skipped ({self.skipped})"]
        out = ["Gr^j dims: " + ", ".join(
            f"{j}:{d}" for j, d in sorted(self.gr_dims.items())),
            f"MHS split condition: {'holds' if self.split_ok else 'FAILS'}"]
        return out


def weight_mhs_check(s: GCStruct) -> MHSReport:
    """The weight filtration W^j (classes with representatives of form degree
    >= j) and the wrapped Hodge filtration F~^i = F^i + F^{i-1} induce a
    Hodge split on every Gr_j = W^j / W^{j+1}.  A class coordinate of
    either parity is adapted to W (`TwistedCohomology`): W^j is the
    coordinates from the first of degree j on, and Gr_j's are those of
    degree j.  Gr_j lies in the parity of j, where F~^i is one F^p, p in
    {i, i-1}, so the rows of F^p's echelon with pivots in Gr_j's coordinates
    give the image of F~^i cap W^j in Gr_j.  The split at (i, j) is one rank
    of those rows and the conjugates of F~^{-i-2}'s, taken once per pair
    {i, -i-2}, whose two sums are conjugate."""
    if s.kind != "complex":
        raise WrongType("weight filtration check requires a complex-type structure")
    dd = once(s, ddbar_check)
    if not dd.holds:
        return MHSReport("del-delbar lemma fails at this structure",
                         None, False, None, None)
    n = s.n
    tw = twisted_cohomology(s.model)
    # the degree of each class of either parity, ascending
    degrees = [[popcount(tw.order[e]) for e in tw.classes[q]] for q in (0, 1)]
    pivots: dict[int, list[int]] = {}

    def graded_rows(i: int, j: int) -> list[Vec]:
        p = i if (i + n + s.parity - j) % 2 == 0 else i - 1
        rows = filtration_subspace(s, p)._basis
        if p not in pivots:
            pivots[p] = [min(row) for row in rows]
        lo, hi = (bisect_left(degrees[j % 2], d) for d in (j, j + 1))
        first, end = (bisect_left(pivots[p], c) for c in (lo, hi))
        return [{c: x for c, x in row.items() if c < hi}
                for row in rows[first:end]]

    gr_dims = {}
    split_by = {}
    graded_hodge: dict[int, list[int]] = {}
    ok = True
    for j in range(0, 2 * n + 1):
        gr_dims[j] = gr_dim = degrees[j % 2].count(j)
        if gr_dim == 0:
            continue
        dims_along_i = []
        # within weight j the U-grading steps by 2, so the Hodge condition
        # lives at indices i of the same parity as j
        for i in range(-n - 1, n + 2):
            if (i - j) % 2:
                continue
            img = graded_rows(i, j)
            if (-i - 2, j) in split_by:
                good = split_by[(-i - 2, j)]
            else:
                conj_img = [vec_conj(v) for v in graded_rows(-i - 2, j)]
                good = (len(img) + len(conj_img) == gr_dim
                        and _rank_of_sum(img, conj_img) == gr_dim)
            split_by[(i, j)] = good
            ok = ok and good
            dims_along_i.append(len(img))
        graded_hodge[j] = dims_along_i
    return MHSReport(None, gr_dims, ok, split_by, graded_hodge)
