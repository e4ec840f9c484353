"""Generalized Kaehler pairs: commuting-structure validation, the generalized
metric, the L1+/L1- splitting, the U_{r,s} bigrading, the four components of
d_H, bigraded cohomology, Lie algebroid decompositions, and deformation
compatibility.

The Kaehler identities live here only through their exact cohomological
consequences; no adjoint operators or metrics on spinors are constructed.
"""

from __future__ import annotations

from functools import cached_property
from math import comb

from .cohomology import _block_reduction, closed_classes, twisted_cohomology
from .courant import algebroid_from_basis
from .errors import (EngineError, MetricNotPositive, NotADecomposition,
                     NotClosedUnderBracket, NotCommuting, NotIsotropic,
                     SplitNotIntegrable, record)
from .families import FamilySpec, ks_class
from .forms import SpinOp, _compose, _table_combine
from .gcs import GCStruct, _ad_split, form_of_vec, pairing_gram
from .liemodel import LieAlgebroid, bracket_chains, chain_columns
from .linalg import Subspace, Vec, mat_det, mat_mul, vec_add, vec_conj
from .scalars import ONE, QI


class GKPair:
    """Validated generalized Kaehler pair with the simultaneous bigrading."""

    def __init__(self, s1: GCStruct, s2: GCStruct, G, Lp: LieAlgebroid,
                 Lm: LieAlgebroid):
        self.s1 = s1
        self.s2 = s2
        self.model = s1.model
        self.G = G
        self.Lp = Lp   # L1+ = L1 cap L2
        self.Lm = Lm   # L1- = L1 cap conj(L2)
        self.n = s1.n
        dim = self.model.dim
        # s2's projectors are polynomials in N2, which commutes with N1, so
        # they split each U1_r into its intersections with the U2_s
        u_vecs: dict[tuple[int, int], list[Vec]] = {}
        for r, U in s1.U.items():
            for v in U._basis:
                for s, part in s2.decompose(form_of_vec(dim, v)).items():
                    u_vecs.setdefault((r, s), []).append(part.coeffs)
        self.U2 = {rs: Subspace.span(1 << dim, vs) for rs, vs in u_vecs.items()}
        self.U2_dims = {rs: sp.dim for rs, sp in self.U2.items() if sp.dim}

    def U2_subspace(self, r: int, s: int) -> Subspace:
        return self.U2.get((r, s), Subspace.zero(1 << self.model.dim))

    @cached_property
    def dH_parts(self) -> dict[tuple[int, int], SpinOp]:
        """d_H split by bidegree shift: the four BIDEGREES (always present,
        possibly empty), and any other key only for an invalid pair.  Each
        part of s1's split is split again under ad_{N2}, which commutes with
        ad_{N1}."""
        parts = {bd: {} for bd in BIDEGREES.values()}
        for r, part in self.s1.dH_parts.items():
            for s, t in _ad_split(self.s2.N, part).items():
                parts[(r, s)] = t
        return parts


def gk_validate(s1: GCStruct, s2: GCStruct) -> GKPair:
    if s1.model is not s2.model and s1.model.structure != s2.model.structure:
        raise NotCommuting("structures live on different models")
    J1, J2 = s1.J, s2.J
    if mat_mul(J1, J2) != mat_mul(J2, J1):
        raise NotCommuting("J1 J2 != J2 J1")
    n4 = len(J1)
    G = [[-x for x in row] for row in mat_mul(J1, J2)]
    P = pairing_gram(s1.model.dim)
    GT = [list(col) for col in zip(*G)]
    S = mat_mul(GT, P)
    for i in range(n4):
        for j in range(n4):
            if S[i][j] != S[j][i]:
                raise MetricNotPositive("<G.,.> is not symmetric")
    # exact Sylvester criterion
    for k in range(1, n4 + 1):
        minor = [[S[i][j] for j in range(k)] for i in range(k)]
        d = mat_det(minor)
        if not d.is_real() or d.re <= 0:
            raise MetricNotPositive(
                f"leading principal minor {k} is {d}", order=k)
    dim = s1.model.dim
    L1 = Subspace.span(2 * dim, s1.L.basis)
    L2 = Subspace.span(2 * dim, s2.L.basis)
    L2c = L2.conj()
    plus = L1.intersect(L2)
    minus = L1.intersect(L2c)
    if plus.dim + minus.dim != dim:
        raise MetricNotPositive(
            f"eigenbundle split has dims {plus.dim}+{minus.dim} != {dim}")
    try:
        Lp = algebroid_from_basis(s1.model, plus.basis(), name="L1+")
        Lm = algebroid_from_basis(s1.model, minus.basis(), name="L1-")
    except (NotClosedUnderBracket, NotIsotropic) as e:
        raise SplitNotIntegrable(str(e), **e.details) from e
    return GKPair(s1, s2, G, Lp, Lm)


# -- bigrading --------------------------------------------------------------------

@record
class BigradingReport:
    dims: dict[tuple[int, int], int]
    total_ok: bool
    parity_ok: bool
    commute_ok: bool
    hodge_dims_ok: bool

    def lines(self):
        row = ", ".join(f"U_({r},{s})={d}" for (r, s), d in sorted(self.dims.items()))
        return [f"bigrading dims: {row}",
                f"sum = 2^dim: {'yes' if self.total_ok else 'NO'}; "
                f"r+s parity: {'ok' if self.parity_ok else 'VIOLATED'}; "
                f"projectors commute: {'yes' if self.commute_ok else 'NO'}; "
                f"binomial dims: {'ok' if self.hodge_dims_ok else 'NO'}"]


def bigrading(pair: GKPair) -> BigradingReport:
    dims = dict(pair.U2_dims)
    total = sum(dims.values())
    n = pair.n
    dim = pair.model.dim
    parity_ok = all((r + s - n) % 2 == 0 for r, s in dims)
    hodge_ok = True
    for (r, s), d in dims.items():
        p = (r + s + n) // 2
        q = (r - s + n) // 2
        if not (0 <= p <= n and 0 <= q <= n) or d != comb(n, p) * comb(n, q):
            hodge_ok = False
    # the projectors of each structure are polynomials in its N
    commute_ok = (_compose(pair.s1.N, pair.s2.N)
                  == _compose(pair.s2.N, pair.s1.N))
    return BigradingReport(dims, total == 1 << dim, parity_ok, commute_ok,
                           hodge_ok)


# -- the four components of d_H ------------------------------------------------------

BIDEGREES = {"delta+": (-1, -1), "delta-": (-1, 1),
             "delbar+": (1, 1), "delbar-": (1, -1)}
_PLUS = (ONE, ONE)  # coefficients of a sum of two tables


@record
class DeltaReport:
    residual_ok: bool
    matches_delbar1: bool
    matches_delbar2: bool
    anticommute_ok: bool        # the nine bidegree components of d_H^2 = 0
    strong_anticommute: bool    # every pair anticommutes individually

    def lines(self):
        return [f"d_H splits into the four bidegrees: "
                f"{'yes' if self.residual_ok else 'NO'}",
                f"delbar_1 = delbar+ + delbar-: "
                f"{'yes' if self.matches_delbar1 else 'NO'}",
                f"delbar_2 = delbar+ + delta-: "
                f"{'yes' if self.matches_delbar2 else 'NO'}",
                f"bidegree components of d_H^2 = 0 vanish: "
                f"{'yes' if self.anticommute_ok else 'NO'}",
                f"all pairs anticommute individually: "
                f"{'yes' if self.strong_anticommute else 'no (only forced sums)'}"]


def delta_split_check(pair: GKPair) -> DeltaReport:
    """Verify the four-component split and the bidegree expansion of
    d_H^2 = 0 on every blade, from the composed bidegree tables.  The (0,0)
    component forces only the SUM {delta+, delbar+} + {delta-, delbar-} = 0;
    individual vanishing of those two diagonal pairs is an analytic Kaehler
    identity, reported separately."""
    ops = {nm: pair.dH_parts[bd] for nm, bd in BIDEGREES.items()}
    residual_ok = set(pair.dH_parts) <= set(BIDEGREES.values())
    m1 = (_table_combine(_PLUS, (ops["delbar+"], ops["delbar-"]))
          == pair.s1.dH_parts[1])
    m2 = (_table_combine(_PLUS, (ops["delbar+"], ops["delta-"]))
          == pair.s2.dH_parts[1])

    def anticomm(a: str, b: str) -> SpinOp:
        return _table_combine(_PLUS, (_compose(ops[a], ops[b]),
                                      _compose(ops[b], ops[a])))

    forced_pairs = [("delta+", "delta-"), ("delta+", "delbar-"),
                    ("delta-", "delbar+"), ("delbar+", "delbar-")]
    diagonal = anticomm("delta+", "delbar+")
    anti_ok = (not any(_compose(ops[nm], ops[nm]) for nm in ops)
               and not any(anticomm(a, b) for a, b in forced_pairs)
               and not _table_combine(
                   _PLUS, (diagonal, anticomm("delta-", "delbar-"))))
    return DeltaReport(residual_ok, m1, m2, anti_ok, not diagonal)


# -- bigraded cohomology ----------------------------------------------------------------

@record
class BigradedCohomologyReport:
    dims: dict[tuple[int, int], int]
    total_matches_twisted: bool
    blocks_decompose: bool
    intersection_ok: bool
    marginals_ok: bool

    def lines(self):
        row = ", ".join(f"H^({r},{s})={d}"
                        for (r, s), d in sorted(self.dims.items()) if d)
        return [f"bigraded cohomology: {row}",
                f"sum equals twisted total: "
                f"{'yes' if self.total_matches_twisted else 'NO'}",
                f"H^(r,s) = H^r_1 cap H^s_2 as subspaces: "
                f"{'yes' if self.intersection_ok else 'NO'}",
                f"marginal sums reproduce both decompositions: "
                f"{'yes' if self.marginals_ok else 'NO'}"]


def bigraded_cohomology(pair: GKPair) -> BigradedCohomologyReport:
    """The dims of the delbar+ cohomology H^(r,s), from one reduction of
    delbar+ over the canonical U_(r,s) bases by descending (r, s), in which
    it is triangular, as it raises (r, s) by (1, 1); the classes of the
    closed forms of each U_(r,s), inside H, give the other verdicts."""
    m = pair.model
    n = pair.n
    delbar_plus = pair.dH_parts[BIDEGREES["delbar+"]]
    red, _vecs = _block_reduction(
        {rs: pair.U2[rs].basis() for rs in sorted(pair.U2_dims, reverse=True)},
        lambda rs: ((delbar_plus, (rs[0] + 1, rs[1] + 1)),))
    dims = {rs: red.dim(rs) for rs in pair.U2_dims}
    tw = twisted_cohomology(m)
    total_ok = sum(dims.values()) == tw.total_dim

    # blocks inside twisted cohomology
    def block_coords(space: Subspace) -> Subspace:
        return closed_classes(pair.s1, space)

    blocks = {rs: block_coords(pair.U2_subspace(*rs)) for rs in pair.U2_dims}
    b1 = {k: block_coords(pair.s1.U_subspace(k)) for k in range(-n, n + 1)}
    b2 = {k: block_coords(pair.s2.U_subspace(k)) for k in range(-n, n + 1)}
    inter_ok = all(blocks[(r, s)] == b1[r].intersect(b2[s])
                   for (r, s) in blocks)

    def span_of(keys) -> Subspace:
        return Subspace.span(tw.total_dim,
                             [v for rs in keys for v in blocks[rs]._basis])

    # the sum is direct and all of H when the rank of all block bases is
    # both the sum of the block dims and dim H
    decomp_ok = (sum(b.dim for b in blocks.values())
                 == span_of(blocks).dim == tw.total_dim)
    marg_ok = all(span_of([rs for rs in blocks if rs[0] == k]) == b1[k]
                  and span_of([rs for rs in blocks if rs[1] == k]) == b2[k]
                  for k in range(-n, n + 1))
    # block dims agree with the delbar+ cohomology dims
    dims_ok = all(blocks[rs].dim == d for rs, d in dims.items())
    return BigradedCohomologyReport(dims, total_ok and dims_ok, decomp_ok,
                                    inter_ok, marg_ok)


# -- Lie algebroid decompositions ----------------------------------------------------------

@record
class SplitCheckReport:
    sum_ok: bool
    squares_ok: bool
    anticommute_ok: bool

    @property
    def ok(self) -> bool:
        return self.sum_ok and self.squares_ok and self.anticommute_ok

    def lines(self):
        return [f"d_A = d_A1 + d_A2: {'holds' if self.sum_ok else 'FAILS'}",
                f"d_A1^2 = d_A2^2 = 0: {'holds' if self.squares_ok else 'FAILS'}",
                f"d_A1 d_A2 + d_A2 d_A1 = 0: "
                f"{'holds' if self.anticommute_ok else 'FAILS'}"]


def split_chains(L: LieAlgebroid, A1: LieAlgebroid,
                 A2: LieAlgebroid) -> tuple[LieAlgebroid, list, list]:
    """(A, d_A1, d_A2) for a decomposition A = A1 + A2 of the algebroid L,
    A on the bases of A1 and A2: of A's bracket entries (i, j, m, c), i < j,
    d_A1 takes those with an even number of i, j, m in A2, d_A2 the rest."""
    ambient = 2 * L.ambient.dim
    if (Subspace.span(ambient, L.basis)
            != Subspace.span(ambient, A1.basis + A2.basis)
            or A1.rank + A2.rank != L.rank):
        raise NotADecomposition("A1 + A2 does not decompose L")
    try:
        combined = algebroid_from_basis(L.ambient, A1.basis + A2.basis,
                                        name=f"{A1.name}+{A2.name}")
    except (NotClosedUnderBracket, NotIsotropic) as e:
        raise NotADecomposition(str(e)) from e
    r1 = A1.rank
    parts: tuple[list, list] = ([], [])
    for entry in combined.bracket_entries:
        i, j, m, _c = entry
        if j < r1 <= m:
            raise NotADecomposition("[A1, A1] leaks into A2")
        if m < r1 <= i:
            raise NotADecomposition("[A2, A2] leaks into A1")
        parts[((i >= r1) + (j >= r1) + (m >= r1)) & 1].append(entry)
    return (combined,
            *(bracket_chains(combined.rank, part) for part in parts))


def algebroid_split_check(L: LieAlgebroid, A1: LieAlgebroid,
                          A2: LieAlgebroid) -> SplitCheckReport:
    """Verify the bigraded differential identities for a decomposition
    A = A1 + A2 of the algebroid L, from the tables of d_A, d_A1 and d_A2
    over every cochain mask."""
    combined, d_A1, d_A2 = split_chains(L, A1, A2)
    masks = range(1 << combined.rank)
    d, d1, d2 = (chain_columns(chains, masks)
                 for chains in (combined.chains, d_A1, d_A2))
    return SplitCheckReport(
        d == _table_combine(_PLUS, (d1, d2)),
        not (_compose(d1, d1) or _compose(d2, d2)),
        not _table_combine(_PLUS, (_compose(d1, d2), _compose(d2, d1))))


# -- deformation compatibility ----------------------------------------------------------------

@record
class GKDeformationReport:
    samples_gk: dict[tuple, bool]
    plus_ok: bool
    minus_ok: bool
    plus_residual: Vec
    minus_residual: Vec

    @property
    def compatible(self) -> bool:
        return self.plus_ok and self.minus_ok

    def lines(self):
        return [f"pi_1+(rho_1) = pi_2+(rho_2): "
                f"{'holds' if self.plus_ok else 'FAILS'}",
                f"pi_1-(rho_1) = conj(pi_2-)(rho_2): "
                f"{'holds' if self.minus_ok else 'FAILS'}"]


def _restrict_cochain(src: LieAlgebroid, cochain: dict[int, QI],
                      sub_basis) -> dict[int, QI]:
    out: dict[int, QI] = {}
    r = len(sub_basis)
    for a in range(r):
        for b in range(a + 1, r):
            v = src.cochain_eval(cochain, [sub_basis[a], sub_basis[b]])
            if v:
                out[(1 << a) | (1 << b)] = v
    return out


def gk_deformation_check(f1: FamilySpec,
                         f2: FamilySpec) -> GKDeformationReport:
    """Prop-style compatibility of the two Kodaira-Spencer classes of a
    deformation of a generalized Kaehler pair, along t1."""
    s1 = f1.base_structure()
    s2 = f2.base_structure()
    pair = gk_validate(s1, s2)
    samples_gk = {}
    for pt in sorted({*f1.samples, *f2.samples}, key=str):
        try:
            gk_validate(f1.structure_at(pt), f2.structure_at(pt))
            samples_gk[pt] = True
        except EngineError:
            samples_gk[pt] = False
    k1 = ks_class(f1, 0)
    k2 = ks_class(f2, 0)
    plus_basis = pair.Lp.basis
    minus_basis = pair.Lm.basis
    c1p = _restrict_cochain(s1.L, k1.cochain, plus_basis)
    c2p = _restrict_cochain(s2.L, k2.cochain, plus_basis)
    plus_resid = vec_add(c1p, {k: -v for k, v in c2p.items()})
    pr = pair.Lp.cohomology().coords(plus_resid, 2)
    plus_ok = pr is not None and not pr
    c1m = _restrict_cochain(s1.L, k1.cochain, minus_basis)
    conj_minus = [vec_conj(b) for b in minus_basis]
    c2m_conj = _restrict_cochain(s2.L, k2.cochain, conj_minus)
    c2m = {k: v.conj() for k, v in c2m_conj.items()}
    minus_resid = vec_add(c1m, {k: -v for k, v in c2m.items()})
    mr = pair.Lm.cohomology().coords(minus_resid, 2)
    minus_ok = mr is not None and not mr
    return GKDeformationReport(samples_gk, plus_ok, minus_ok,
                               pr or {}, mr or {})
