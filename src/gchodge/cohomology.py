"""Exact cohomology engines on the invariant spinor space: twisted and delbar
cohomology, the generalized Froelicher spectral sequence, the del-delbar lemma,
Hodge filtrations, the Mukai pairing on cohomology, strong Lefschetz, and the
complex-type mixed Hodge structure.

Everything is rank arithmetic over Q(i); there is no harmonic theory anywhere.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .courant import random_real_form
from .errors import WrongType
from .forms import (Form, SpinOp, mukai_dual, mukai_pairing, popcount,
                    spin_apply)
from .gcs import GCStruct, form_of_vec
from .liemodel import LieModel
from .linalg import (QuotientSpace, Subspace, Vec, kernel_lift, mat_det,
                     vec_axpy)
from .scalars import ONE, QI, ZERO


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

    def rep_form(self, coords: Vec, parity: int | None = None) -> Form:
        """A representative of the class with the given coordinates."""
        out: Vec = {}
        for idx, c in coords.items():
            if parity is None:
                rep = (self.even.reps[idx] if idx < self.dim_even
                       else self.odd.reps[idx - self.dim_even])
            else:
                rep = (self.even if parity == 0 else self.odd).reps[idx]
            out = vec_axpy(out, c, rep)
        return form_of_vec(self.model.dim, out)

    def conj_coords(self, coords: Vec, parity: int | None = None) -> Vec:
        return (self.coords(self.rep_form(coords).conj()) if parity is None
                else self.parity_coords(self.rep_form(coords, parity).conj(), parity))


def twisted_cohomology(m: LieModel) -> TwistedCohomology:
    """The twisted cohomology of a valid model, built once and kept on the
    model (models are immutable)."""
    tw = getattr(m, "_twisted_cohomology", None)
    if tw is None:
        m.require_valid()
        tw = m._twisted_cohomology = TwistedCohomology(m)
    return tw


# -- delbar cohomology -----------------------------------------------------------

def _preimage_in(V: Subspace, op: SpinOp, W: Subspace) -> Subspace:
    """{v in V : op(v) in W} computed by exact kernel arithmetic."""
    basis = V.basis()
    ech = W.echelon()
    residuals = [ech.reduce(spin_apply(op, v))[0] for v in basis]
    return Subspace.span(V.ambient, kernel_lift(residuals, basis))


def _image_of(V: Subspace, op: SpinOp) -> Subspace:
    return Subspace.span(V.ambient, [spin_apply(op, v) for v in V.basis()])


def delbar_cohomology(s: GCStruct) -> dict[int, QuotientSpace]:
    """H^k_delbar for k = -n..n, as quotients inside the spinor space."""
    n = s.n
    delbar = s.dH_parts[1]
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


def frolicher_pages(s: GCStruct) -> FrolicherReport:
    """Pages of the bigraded complex W^{p,q} = U_{p-q}, folded along the
    2-periodicity in (p,q); E_1^k = H^k_delbar, differentials shift k by 1-2r."""
    n = s.n
    dH = s.model.dH_table
    _fcache: dict[tuple[int, int], Subspace] = {}
    _zcache: dict[tuple[int, int, int], Subspace] = {}

    def flevel(j: int, m: int) -> Subspace:
        # F^j on the total degree m: U_k with k <= m-2j, k = m mod 2
        key = (m - 2 * j, m & 1)
        if key not in _fcache:
            _fcache[key] = chain_subspace(s, m - 2 * j)
        return _fcache[key]

    def zspace(r: int, j: int, m: int) -> Subspace:
        key = (r, m - 2 * j, m & 1)
        if key not in _zcache:
            _zcache[key] = _preimage_in(flevel(j, m), dH, flevel(j + r, m + 1))
        return _zcache[key]

    pages: dict[int, dict[int, int]] = {}
    rmax = n + 1
    for r in range(1, rmax + 1):
        page = {}
        for k in range(-n, n + 1):
            m = k & 1
            j = (m - k) // 2
            Z = zspace(r, j, m)
            denom = zspace(r - 1, j + 1, m).sum(
                _image_of(zspace(r - 1, j - r + 1, m - 1), dH))
            page[k] = Z.dim - Z.intersect(denom).dim
        pages[r] = page
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
    zero = Subspace.zero(N)
    del_, delbar = s.dH_parts[-1], s.dH_parts[1]
    ker_del = _preimage_in(full, del_, zero)
    ker_dbar = _preimage_in(full, delbar, zero)
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


def chain_subspace(s: GCStruct, p: int) -> Subspace:
    """The U_{<=p} chain of matching parity: the sum of U_j, j <= p, j = p mod 2."""
    out = Subspace.zero(1 << s.model.dim)
    for j in range(-s.n + ((p + s.n) % 2), p + 1, 2):
        out = out.sum(s.U_subspace(j))
    return out


def closed_classes(s: GCStruct, V: Subspace,
                   parity: int | None = None) -> Subspace:
    """Classes of the d_H-closed forms in V: coordinates in the H block of
    the given parity, or total coordinates when parity is None."""
    dim = s.model.dim
    tw = twisted_cohomology(s.model)
    closed = _preimage_in(V, s.model.dH_table, Subspace.zero(1 << dim)).basis()
    if parity is None:
        return Subspace.span(tw.total_dim, [
            tw.coords(form_of_vec(dim, v)) or {} for v in closed])
    return Subspace.span(tw.dim_even if parity == 0 else tw.dim_odd, [
        tw.parity_coords(form_of_vec(dim, v), parity) or {} for v in closed])


def filtration_subspace(s: GCStruct, p: int) -> Subspace:
    """F^p H: classes representable in the U_{<=p} chain of matching parity."""
    return closed_classes(s, chain_subspace(s, p), (p + s.n + s.parity) % 2)


def hodge_filtration(s: GCStruct) -> HodgeReport:
    n = s.n
    tw = twisted_cohomology(s.model)
    dd = once_per_structure(s, ddbar_check)
    frl = frolicher_pages(s)
    db = delbar_dims(s)
    filt = {p: filtration_subspace(s, p) for p in range(-n, n + 1)}
    hodge_by_p = {}
    for p in range(-n, n + 1):
        parity = (p + n + s.parity) % 2
        h_dim = tw.dim_even if parity == 0 else tw.dim_odd
        fp = filt[p]
        q = -p - 2
        fq = filt[q] if q in filt else Subspace.zero(h_dim)
        fq_conj = Subspace.span(h_dim, [
            tw.conj_coords(v, parity) for v in fq.basis()])
        hodge_by_p[p] = (fp.dim + fq_conj.dim == h_dim
                         and fp.intersect(fq_conj).dim == 0)
    # nesting and top equalities are structural; verify and fold into hodge_ok
    nesting = all(filt[p].contains_subspace(filt[p - 2])
                  for p in range(-n + 2, n + 1))
    top_even = filt[n].dim == (tw.dim_even if (2 * n + s.parity) % 2 == 0
                               else tw.dim_odd)
    top_odd = filt[n - 1].dim == (tw.dim_even if (2 * n - 1 + s.parity) % 2 == 0
                                  else tw.dim_odd)
    hodge_ok = all(hodge_by_p.values()) and nesting and top_even and top_odd
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
        filtration=filt,
        filtration_dims={p: f.dim for p, f in filt.items()},
        hodge_ok=hodge_ok,
        hodge_by_p=hodge_by_p,
        graded_match=graded,
    )


# -- Mukai pairing on cohomology --------------------------------------------------------

@dataclass
class MukaiQReport:
    matrix: list[list[QI]]
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
    index: dict[int, list[tuple[int, QI]]] = {}
    for j, b in enumerate(right):
        for k, y in b.items():
            index.setdefault(k, []).append((j, y))
    out = []
    for a in left:
        row: Vec = {}
        for k, x in mukai_dual(dim, a).items():
            for j, y in index.get(k, ()):
                t = row.get(j)
                row[j] = x * y if t is None else t + x * y
        out.append({j: c for j, c in row.items() if c})
    return out


def mukai_Q(s: GCStruct, samples: int = 20, seed: int = 11) -> MukaiQReport:
    m = s.model
    tw = twisted_cohomology(m)
    vecs = tw.even.reps + tw.odd.reps
    Q = [[row.get(j, ZERO) for j in range(len(vecs))]
         for row in _mukai_rows(m.dim, vecs, vecs)]
    reps = [form_of_vec(m.dim, r) for r in vecs]
    rng = random.Random(seed)
    descends = True
    for _ in range(samples):
        pert = m.d_H(random_real_form(m.dim, rng.randrange(m.dim + 1), rng))
        a = rng.randrange(len(reps)) if reps else 0
        b = rng.randrange(len(reps)) if reps else 0
        if reps and mukai_pairing(reps[a] + pert, reps[b]) != Q[a][b]:
            descends = False
            break
        if reps and mukai_pairing(reps[a], reps[b] + pert) != Q[a][b]:
            descends = False
            break
    nondeg = bool(mat_det(Q)) if reps else True

    # the grading blocks pair only across opposite degrees
    n = s.n
    zero = Subspace.zero(1 << m.dim)
    closed, degree = [], []
    for k in range(-n, n + 1):
        for v in _preimage_in(s.U_subspace(k), m.dH_table, zero).basis():
            closed.append(v)
            degree.append(k)
    orth = all(degree[i] + degree[j] == 0
               for i, row in enumerate(_mukai_rows(m.dim, closed, closed))
               for j in row)

    # measured sign in the integration-by-parts identity
    sign = None
    for cand in (1, -1):
        ok = True
        for _ in range(samples):
            w = random_real_form(m.dim, rng.randrange(m.dim + 1), rng)
            g = random_real_form(m.dim, rng.randrange(m.dim + 1), rng)
            lhs = mukai_pairing(m.d_H(w), g)
            rhs = mukai_pairing(w, m.d_H(g))
            if lhs != (rhs if cand == 1 else -rhs):
                ok = False
                break
        if ok:
            sign = cand
            break
    return MukaiQReport(Q, descends, nondeg, orth, sign)


# -- strong Lefschetz ----------------------------------------------------------------------

def invariant_derham(m: LieModel, k: int) -> QuotientSpace:
    """Untwisted invariant de Rham cohomology in degree k."""
    N = 1 << m.dim
    d = m.d_table
    blades_k = [b for b in range(N) if popcount(b) == k]
    return QuotientSpace.of_map(
        N, [{b: ONE} for b in blades_k], [d.get(b, {}) for b in blades_k],
        [d.get(b, {}) for b in range(N) if popcount(b) == k - 1])


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


def weight_mhs_check(s: GCStruct) -> MHSReport:
    if s.kind != "complex":
        raise WrongType("weight filtration check requires a complex-type structure")
    dd = once_per_structure(s, ddbar_check)
    if not dd.holds:
        return MHSReport("del-delbar lemma fails at this structure",
                         None, False, None, None)
    m = s.model
    n = s.n
    N = 1 << m.dim
    tw = twisted_cohomology(m)
    H_dim = tw.total_dim

    # W^j: classes with representatives of form-degree >= j
    W: dict[int, Subspace] = {}
    for j in range(0, 2 * n + 2):
        span = Subspace.span(N, [{b: ONE} for b in range(N) if popcount(b) >= j])
        W[j] = closed_classes(s, span)

    # wrapped filtration F~^k = F^k + F^{k-1} in total coordinates
    def embed(parity: int, sub: Subspace) -> Subspace:
        if parity == 0:
            return Subspace.span(H_dim, sub.basis())
        return Subspace.span(H_dim, [
            {kk + tw.dim_even: c for kk, c in v.items()} for v in sub.basis()])

    filt = {}
    for p in range(-n, n + 1):
        parity = (p + n + s.parity) % 2
        filt[p] = embed(parity, filtration_subspace(s, p))

    def filt_ext(k: int) -> Subspace:
        # extend each parity chain by zero below and by its own top above
        if k < -n:
            return Subspace.zero(H_dim)
        if k > n:
            return filt[n] if (k - n) % 2 == 0 else filt[n - 1]
        return filt[k]

    Ft = {k: filt_ext(k).sum(filt_ext(k - 1)) for k in range(-n - 1, n + 3)}

    def conj_total(sub: Subspace) -> Subspace:
        return Subspace.span(H_dim, [tw.conj_coords(v) for v in sub.basis()])

    gr_dims = {}
    split_by = {}
    graded_hodge: dict[int, list[int]] = {}
    ok = True
    for j in range(0, 2 * n + 1):
        grq = QuotientSpace(H_dim, W[j].basis(), W[j + 1].basis())
        gr_dims[j] = grq.dim
        if grq.dim == 0:
            continue
        dims_along_i = []
        # within weight j the U-grading steps by 2, so the Hodge condition
        # lives at indices i of the same parity as j
        for i in range(-n - 1, n + 2):
            if (i - j) % 2:
                continue
            part = Ft.get(i, Subspace.zero(H_dim)).intersect(W[j])
            img = Subspace.span(grq.dim,
                                [grq.coords(v) or {} for v in part.basis()])
            conj_part = conj_total(Ft.get(-i - 2, Subspace.zero(H_dim))
                                   .intersect(W[j]))
            conj_img = Subspace.span(grq.dim,
                                     [grq.coords(v) or {} for v in conj_part.basis()])
            good = (img.dim + conj_img.dim == grq.dim
                    and img.intersect(conj_img).dim == 0)
            split_by[(i, j)] = good
            ok = ok and good
            dims_along_i.append(img.dim)
        graded_hodge[j] = dims_along_i
    return MHSReport(None, gr_dims, ok, split_by, graded_hodge)
