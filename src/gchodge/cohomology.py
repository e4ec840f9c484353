"""Exact cohomology engines on the invariant spinor space: twisted and delbar
cohomology, the generalized Froelicher spectral sequence, the del-delbar lemma,
Hodge filtrations, the Mukai pairing on cohomology, strong Lefschetz, and the
complex-type mixed Hodge structure.

Everything is rank arithmetic over Q(i); there is no harmonic theory anywhere.
The filtrations of H come from adapted bases, each read off one ordered
column reduction R = D V of d_H that tracks its column operations:
- in the basis made of the U_k bases, its persistence pairs give the
  Froelicher pages, and the cycles V_c of its zero columns give the Hodge
  filtration: F^p H is spanned by the classes born in the U_{<=p} chain, so
  each F^p is read from one echelon per parity that grows with p; the
  cycles in that chain span its closed forms, which Griffiths
  transversality takes as representatives and lifts (`closed_in_chain`);
- over the blades by descending degree, its essential cycles are a basis of
  H whose prefixes are the weight filtration W^j, and in those coordinates
  F~^i cap W^j and its image in Gr_j are rows of one echelon of F~^i.
A direct sum A + B = H is one rank: dim(A + B) = dim A + dim B = dim H;
so is the bigraded direct sum of a generalized Kaehler pair.
The delbar cohomology and the del-delbar verdict keep their own subspace
pipelines, so that E_1 = H_delbar and "del-delbar <=> degeneration + Hodge
filtration" stay cross-checks and are not true by construction.  The
bigraded engines reject a structure whose d_H has parts beyond del and
delbar.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb

from .errors import EngineError, NotIntegrable, WrongType
from .forms import Form, SpinOp, mukai_dual, popcount, spin_apply
from .gcs import GCStruct, form_of_vec
from .liemodel import LieModel
from .linalg import (Echelon, QuotientSpace, Subspace, Vec, _axpy_into,
                     kernel_lift, vec_conj, vec_scale)
from .scalars import ONE


# -- twisted cohomology --------------------------------------------------------

class TwistedCohomology:
    """Z2-graded cohomology of d_H on the 2^{2n}-dimensional spinor space,
    with canonical representatives and exact class coordinates."""

    def __init__(self, m: LieModel):
        self.model = m
        dim = m.dim
        N = 1 << dim
        self._N = N
        dH = m.dH_table
        evens = [b for b in range(N) if popcount(b) % 2 == 0]
        odds = [b for b in range(N) if popcount(b) % 2 == 1]
        self.even = self._quotient(dH, evens, odds)
        self.odd = self._quotient(dH, odds, evens)
        self.dim_even = self.even.dim
        self.dim_odd = self.odd.dim
        self.total_dim = self.dim_even + self.dim_odd

    def _quotient(self, dH: SpinOp, blades, other) -> QuotientSpace:
        return QuotientSpace.of_map(
            self._N, [{b: ONE} for b in blades],
            [dH.get(b, {}) for b in blades], [dH.get(b, {}) for b in other])

    def parity_coords(self, w: Form, parity: int) -> Vec | None:
        q = self.even if parity == 0 else self.odd
        return q.coords(dict(w.coeffs))

    def coords(self, w: Form) -> Vec | None:
        """Total coordinates: even block first, odd block shifted."""
        ce = self.even.coords(dict(w.parity_part(0).coeffs))
        co = self.odd.coords(dict(w.parity_part(1).coeffs))
        if ce is None or co is None:
            return None
        out = dict(ce)
        for k, v in co.items():
            out[self.dim_even + k] = v
        return out


def twisted_cohomology(m: LieModel) -> TwistedCohomology:
    """The twisted cohomology of a valid model, built once and kept on the
    model (models are immutable)."""
    tw = getattr(m, "_twisted_cohomology", None)
    if tw is None:
        m.require_valid()
        tw = m._twisted_cohomology = TwistedCohomology(m)
    return tw


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


def delbar_cohomology(s: GCStruct) -> dict[int, QuotientSpace]:
    """H^k_delbar for k = -n..n, as quotients inside the spinor space."""
    n = s.n
    _del, delbar = _integrable_parts(s)
    out = {}
    for k in range(-n, n + 1):
        basis = s.U_subspace(k).basis()
        out[k] = QuotientSpace.of_map(
            1 << s.model.dim, basis, [spin_apply(delbar, v) for v in basis],
            [spin_apply(delbar, v) for v in s.U_subspace(k - 1).basis()])
    return out


def delbar_dims(s: GCStruct) -> dict[int, int]:
    return {k: q.dim for k, q in
            once_per_structure(s, delbar_cohomology).items()}


def once_per_structure(s: GCStruct, compute):
    """compute(s), run once per structure and kept on it (a structure does
    not change once built): the delbar cohomology and the del-delbar verdict
    are shared by every check that asks for them."""
    kept = vars(s).setdefault("_kept", {})
    if compute not in kept:
        kept[compute] = compute(s)
    return kept[compute]


# -- generalized Froelicher spectral sequence --------------------------------------

@dataclass
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


def _column_reduction(cols: list[Vec]) -> tuple[dict[int, tuple[Vec, Vec]],
                                                list[tuple[int, Vec]]]:
    """The ordered column reduction R = D V of the square matrix D whose
    column c is cols[c] (Edelsbrunner, Letscher and Zomorodian 2002; Basu
    and Parida 2017): each column in turn is reduced by earlier ones until
    its low, its largest nonzero row, is the low of no earlier column, and
    the column operations are kept in V.  Returns {low: (R_c, V_c)}, both
    scaled to 1 at the low, and [(c, V_c)] for the zero columns of R, where
    V_c is 1 at c.  V_c is zero past c and R_c past its low, so both lie in
    every prefix of the numbering that holds c, or the low."""
    lows: dict[int, tuple[Vec, Vec]] = {}
    zeros: list[tuple[int, Vec]] = []
    for c, col in enumerate(cols):
        ops: Vec = {c: ONE}
        while col:
            low = max(col)
            piv = lows.get(low)
            if piv is None:
                inv = col[low].inv()
                lows[low] = (vec_scale(col, inv), vec_scale(ops, inv))
                break
            x = -col[low]
            _axpy_into(col, x, piv[0])
            _axpy_into(ops, x, piv[1])
        else:
            zeros.append((c, ops))
    return lows, zeros


class _DHReduction:
    """The column reduction of d_H in the U-adapted basis, numbered by
    ascending (k, index) over the canonical U_k bases; `k_of[c]` is the k
    of number c.  `pairs` holds (k, k_low) for every nonzero column of R,
    `lows` the rows that are the low of one, and `cycles[k]` maps every
    zero column c in U_k to V_c in those numbers.  The V_c of a prefix's
    zero columns are a basis of its closed forms (Zomorodian and Carlsson
    2005); a cycle is formed as a form on first use only.  (A plain class,
    not a dataclass, so that importing the module builds nothing more.)"""

    def __init__(self, bases: dict[int, list[Vec]],
                 pairs: list[tuple[int, int]], k_of: list[int],
                 vecs: list[Vec], cycles: dict[int, dict[int, Vec]],
                 lows: set[int]):
        self.bases = bases
        self.pairs = pairs
        self.k_of = k_of
        self.cycles = cycles
        self.lows = lows
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
    # U_k's basis is fully reduced, so a vector of U_k has as coordinates its
    # own entries at U_k's pivots; row ids ascend with (k, index)
    bases = {k: s.U[k].basis() for k in range(-n, n + 1)}
    row_of: dict[int, dict[int, int]] = {}
    k_of: list[int] = []            # row id -> k
    vecs: list[Vec] = []            # row id -> basis vector
    for k, basis in bases.items():
        row_of[k] = {min(v): len(k_of) + i for i, v in enumerate(basis)}
        k_of += [k] * len(basis)
        vecs += basis

    def coords(j: int, w: Vec) -> Vec:
        rows = row_of.get(j, {})
        return {rows[b]: c for b, c in w.items() if b in rows}

    cols = []
    for c, u in enumerate(vecs):
        col = coords(k_of[c] - 1, spin_apply(del_, u))
        col.update(coords(k_of[c] + 1, spin_apply(delbar, u)))
        cols.append(col)
    lows, zeros = _column_reduction(cols)
    # V_c of a pair's column is nonzero at c and zero past it
    pairs = [(k_of[max(ops)], k_of[low]) for low, (_r, ops) in lows.items()]
    cycles: dict[int, dict[int, Vec]] = {k: {} for k in bases}
    for c, ops in zeros:
        cycles[k_of[c]][c] = ops
    return _DHReduction(bases, pairs, k_of, vecs, cycles, set(lows))


def closed_in_chain(s: GCStruct, p: int) -> Subspace:
    """The d_H-closed forms in the U_{<=p} chain of matching parity, a
    prefix of the reduction's order for its parity: the span of the cycles
    of the chain's zero columns."""
    red = once_per_structure(s, _reduce_d_H)
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
    red = once_per_structure(s, _reduce_d_H)
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

@dataclass
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
    ker_del = _preimage_in(full, del_)
    ker_dbar = _preimage_in(full, delbar)
    im_del = _image_of(full, del_)
    im_dbar = _image_of(full, delbar)
    im_dd = _image_of(im_dbar, del_)
    A = im_del.intersect(ker_dbar)
    B = im_dbar.intersect(ker_del)
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

@dataclass
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


def closed_classes(s: GCStruct, V: Subspace,
                   parity: int | None = None) -> Subspace:
    """Classes of the d_H-closed forms in V: coordinates in the H block of
    the given parity, or total coordinates when parity is None."""
    dim = s.model.dim
    tw = twisted_cohomology(s.model)
    closed = _preimage_in(V, s.model.dH_table).basis()
    if parity is None:
        return Subspace.span(tw.total_dim, [
            tw.coords(form_of_vec(dim, v)) or {} for v in closed])
    return Subspace.span(tw.dim_even if parity == 0 else tw.dim_odd, [
        tw.parity_coords(form_of_vec(dim, v), parity) or {} for v in closed])


def _hodge_flags(s: GCStruct) -> dict[int, Subspace]:
    """F^p H for p = -n..n, each in the coordinates of its parity's block
    of H: the span of the classes born in the U_{<=p} chain of matching
    parity, read off one echelon per parity that grows with p.  Its
    dimension is the number of zero columns of R in that chain less the
    lows there, and the two counts must agree."""
    n = s.n
    red = once_per_structure(s, _reduce_d_H)
    tw = twisted_cohomology(s.model)
    echs = (Echelon(), Echelon())
    flags = {}
    for p in range(-n, n + 1):
        parity = (p + n + s.parity) % 2
        q = tw.even if parity == 0 else tw.odd
        for form in red.born(p):
            coords = q.coords(form)
            if coords is None:
                raise EngineError("a cycle of the d_H reduction is not closed")
            echs[p % 2].insert(coords)
        flags[p] = Subspace(q.dim, echs[p % 2].basis())
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
        return once_per_structure(s, _hodge_flags)[p]
    tw = twisted_cohomology(s.model)
    return Subspace.zero(tw.dim_even if (p + n + s.parity) % 2 == 0
                         else tw.dim_odd)


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
    dd = once_per_structure(s, ddbar_check)
    frl = frolicher_pages(s)
    db = delbar_dims(s)
    filt = once_per_structure(s, _hodge_flags)
    hodge_by_p = {}
    for p in range(-n, n + 1):
        if -p - 2 in hodge_by_p:
            hodge_by_p[p] = hodge_by_p[-p - 2]
            continue
        parity = (p + n + s.parity) % 2
        h_dim = tw.dim_even if parity == 0 else tw.dim_odd
        fp = filt[p]
        fq = filt.get(-p - 2, Subspace.zero(h_dim))
        hodge_by_p[p] = (fp.dim + fq.dim == h_dim and _rank_of_sum(
            fp._basis, [vec_conj(v) for v in fq._basis]) == h_dim)
    top_even = filt[n].dim == (tw.dim_even if (2 * n + s.parity) % 2 == 0
                               else tw.dim_odd)
    top_odd = filt[n - 1].dim == (tw.dim_even if (2 * n - 1 + s.parity) % 2 == 0
                                  else tw.dim_odd)
    hodge_ok = all(hodge_by_p.values()) and top_even and top_odd
    graded = None
    if dd.holds:
        graded = {}
        for p in range(-n, n + 1):
            lower = filt[p - 2].dim if p - 2 >= -n else 0
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

@dataclass
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


def _mukai_rows(dim: int, left: list[Vec], right: list[Vec]) -> list[Vec]:
    """Row i holds the nonzero Mukai pairings (left[i], right[j]) by j,
    formed from the Mukai dual of left[i] against a coordinate index over
    `right`, so that only nonzero products are computed."""
    index: dict[int, Vec] = {}
    for j, b in enumerate(right):
        for k, y in b.items():
            index.setdefault(k, {})[j] = y
    out = []
    for a in left:
        row: Vec = {}
        for k, x in mukai_dual(dim, a).items():
            if k in index:
                _axpy_into(row, x, index[k])
        out.append(row)
    return out


def mukai_Q(s: GCStruct) -> MukaiQReport:
    """The Mukai pairing Q on the canonical representatives of H_{d_H},
    with every verdict exact over the blade basis (Q is bilinear):
    Q descends when (d_H e_b, rep) = (rep, d_H e_b) = 0 for every blade b
    and representative; it is nondegenerate when its rows have full rank;
    the sign s in (d_H w, g) = s (w, d_H g) is the first of +1, -1 that
    holds on every pair of blades, or None when neither does."""
    m = s.model
    tw = twisted_cohomology(m)
    reps = tw.even.reps + tw.odd.reps
    rows = _mukai_rows(m.dim, reps, reps)
    N = 1 << m.dim
    dH = m.dH_table
    exact = [dH.get(b, {}) for b in range(N)]
    descends = not any(_mukai_rows(m.dim, exact, reps)) \
        and not any(_mukai_rows(m.dim, reps, exact))
    nondeg = Subspace.span(len(reps), rows).dim == len(reps)

    # the grading blocks pair only across opposite degrees
    n = s.n
    closed, degree = [], []
    for k in range(-n, n + 1):
        for v in _preimage_in(s.U_subspace(k), dH).basis():
            closed.append(v)
            degree.append(k)
    orth = all(degree[i] + degree[j] == 0
               for i, row in enumerate(_mukai_rows(m.dim, closed, closed))
               for j in row)

    # measured sign in the integration-by-parts identity, on blade pairs
    blades = [{b: ONE} for b in range(N)]
    lhs = _mukai_rows(m.dim, exact, blades)
    rhs = _mukai_rows(m.dim, blades, exact)
    neg = [{j: -c for j, c in row.items()} for row in rhs]
    sign = 1 if lhs == rhs else -1 if lhs == neg else None
    return MukaiQReport(rows, descends, nondeg, orth, sign)


# -- strong Lefschetz ----------------------------------------------------------------------

def invariant_derham(m: LieModel, k: int) -> QuotientSpace:
    """Untwisted invariant de Rham cohomology in degree k, built once per
    degree and kept on the model (models are immutable)."""
    kept = vars(m).setdefault("_invariant_derham", {})
    if k not in kept:
        N = 1 << m.dim
        d = m.d_table
        blades_k = [b for b in range(N) if popcount(b) == k]
        kept[k] = QuotientSpace.of_map(
            N, [{b: ONE} for b in blades_k], [d.get(b, {}) for b in blades_k],
            [d.get(b, {}) for b in range(N) if popcount(b) == k - 1])
    return kept[k]


@dataclass
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
    verdicts = {}
    witness = None
    for k in range(n + 1):
        hk = invariant_derham(m, k)
        h2nk = invariant_derham(m, 2 * n - k)
        power = Form.one(m.dim)
        for _ in range(n - k):
            power = power.wedge(s.omega)
        cols = []
        for r in hk.reps:
            img = power.wedge(form_of_vec(m.dim, r))
            cols.append(h2nk.coords(dict(img.coeffs)) or {})
        rank = Subspace.span(max(h2nk.dim, 1), cols).dim
        ok = rank == hk.dim == h2nk.dim
        verdicts[k] = ok
        if not ok and witness is None:
            kernel = kernel_lift(cols, hk.reps)
            if kernel:
                witness = form_of_vec(m.dim, kernel[0])
    return LefschetzReport(verdicts, witness)


# -- complex-type mixed Hodge structure ----------------------------------------------------

@dataclass
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


class _WeightBasis:
    """A basis of H adapted to the weight filtration W^j (classes with
    representatives of form degree >= j), from the column reduction of d_H
    over the blades numbered by descending (degree, mask), in which the
    forms of degree >= j are a prefix.  d_H raises the degree, so every
    low is a zero column, and the V_e of the other zero columns e (the
    essential ones) have classes that are a basis of H whose first members
    span W^j.  A class coordinate is numbered by `N - 1 - e`, the blade's
    place in ascending (degree, mask), so W^j is the coordinates from
    `start[j]` on, and `gr_dims[j]` of them have degree j.  The V_e are
    real, as d_H is."""

    def __init__(self, number: list[int], lows: dict[int, tuple[Vec, Vec]],
                 essential: dict[int, Vec], start: list[int],
                 gr_dims: list[int]):
        self.number = number            # blade mask -> e
        self.lows = lows
        self.essential = essential      # e -> V_e
        self.start = start
        self.gr_dims = gr_dims

    def coords(self, w: Vec) -> Vec:
        """Class coordinates of a closed form: its largest number is
        cleared in turn by the V_e or the R column with that leading
        number, as each of them is 1 there and zero past it."""
        from heapq import heapify, heappop, heappush   # no import-time cost
        x = {self.number[b]: c for b, c in w.items()}
        heap = [-e for e in x]
        heapify(heap)
        out: Vec = {}
        top = len(self.number) - 1
        while heap:
            e = -heappop(heap)
            c = x.get(e)
            if c is None:
                continue
            if e in self.essential:
                out[top - e] = c
                vec = self.essential[e]
            elif e in self.lows:
                vec = self.lows[e][0]
            else:
                raise EngineError("the form is not d_H-closed")
            _axpy_into(x, -c, vec)
            for f in vec:
                if f in x:
                    heappush(heap, -f)
        return out


def _weight_basis(m: LieModel) -> _WeightBasis:
    """Built once and kept on the model (models are immutable)."""
    wb = getattr(m, "_weight_basis", None)
    if wb is None:
        N = 1 << m.dim
        order = sorted(range(N), key=lambda b: (-popcount(b), b))
        number = [0] * N
        for e, b in enumerate(order):
            number[b] = e
        dH = m.dH_table
        lows, zeros = _column_reduction(
            [{number[b]: c for b, c in dH.get(mask, {}).items()}
             for mask in order])
        essential = {e: ops for e, ops in zeros if e not in lows}
        if len(essential) + len(lows) != len(zeros):
            raise EngineError(
                "a low of the weight reduction is no zero column")
        start = [sum(comb(m.dim, d) for d in range(j))
                 for j in range(m.dim + 2)]
        gr_dims = [0] * (m.dim + 1)
        for e in essential:
            gr_dims[popcount(order[e])] += 1
        wb = m._weight_basis = _WeightBasis(number, lows, essential, start,
                                            gr_dims)
    return wb


def weight_mhs_check(s: GCStruct) -> MHSReport:
    """The weight filtration W^j (classes with representatives of form degree
    >= j) and the wrapped Hodge filtration F~^i = F^i + F^{i-1} induce a
    Hodge split on every Gr_j = W^j / W^{j+1}.  In coordinates adapted to W
    (`_WeightBasis`), F~^i is the span of the classes born in U_{<=i},
    kept as one echelon that grows with i; its rows with pivots in Gr_j's
    coordinates give the image of F~^i cap W^j in Gr_j.  The split at (i, j)
    is one rank of those rows and the conjugates of F~^{-i-2}'s, taken once
    per pair {i, -i-2}, whose two sums are conjugate."""
    if s.kind != "complex":
        raise WrongType("weight filtration check requires a complex-type structure")
    dd = once_per_structure(s, ddbar_check)
    if not dd.holds:
        return MHSReport("del-delbar lemma fails at this structure",
                         None, False, None, None)
    n = s.n
    wb = _weight_basis(s.model)
    red = once_per_structure(s, _reduce_d_H)

    # rows of the echelon of F~^i, for i = -n..n; below -n it is zero and
    # from n on all of H
    ech = Echelon()
    flag: dict[int, list[tuple[int, Vec]]] = {}
    for i in range(-n, n + 1):
        for form in red.born(i):
            ech.insert(wb.coords(form))
        flag[i] = [(p, row) for p, row, _c in ech.rows]

    def graded_rows(i: int, j: int) -> list[Vec]:
        lo, hi = wb.start[j], wb.start[j + 1]
        rows = flag[min(i, n)] if i >= -n else []
        return [{c: x for c, x in row.items() if c < hi}
                for p, row in rows if lo <= p < hi]

    gr_dims = {}
    split_by = {}
    graded_hodge: dict[int, list[int]] = {}
    ok = True
    for j in range(0, 2 * n + 1):
        gr_dims[j] = gr_dim = wb.gr_dims[j]
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
