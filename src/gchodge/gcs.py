"""Generalized complex structures on a model: constructors, eigenbundle,
pure spinors, the U_k grading via the spinorial action of J, del/delbar,
and the symplectic phi/delta machinery.

The grading operator N is the image of J under so(E) = wedge^2 E inside the
Clifford algebra, built as a table from the generator tables of E_C's
coordinate basis (each sends a blade to at most one signed blade); U_k is
its -ik eigenspace over the forced spectrum {-in, ..., in}.  N preserves
form parity, so U_k is ker(N + ik) on the blades of degree k + n + parity
(mod 2).  J is real, so N is real and U_{-k} = conj U_k: only k >= 0 is
computed, and N satisfies a parity class's minimal polynomial on its blades
exactly when the dims of its nodes' kernels add up to their number.  Lagrange
interpolation over N's powers splits a form into its parts (`decompose`).
The pure spinor, the basis vector of the line U_{-n}, is checked to be
annihilated by every element of L's basis.

N is the sum of one operator per block of J, the finest partition of the
generators (x_i and e^i as one index) that J does not couple, so U_k is the
sum over sum k_b = k of the wedge products of the blocks' U_{k_b}
(Gualtieri's product structures), each block graded on its own blades, with
the sign of sorting blades (forms.blade_wedge_sign) where blocks interleave,
as kt's {1, 4} and {2, 3} do.  The wedges of two canonical bases on disjoint
generators, each scaled by +-1 to be 1 at its pivot, are canonical: their
pivots are the wedges of the factors' pivots, and each is zero at the
others.  So a U_k fed by one split (k_1, ..., k_b) needs no echelon, only
the splits that meet in one U_k are reduced together, and no structure
keeps a per-blade table.

The part D_s of d_H shifting the grading by s in {-3, -1, 1, 3} (d_H has
Clifford degree 1 and 3) has [N, D_s] = -is D_s.  With C = [N, d_H], an
integrable structure has [N, C] = -d_H, del = (d_H - iC)/2 and
delbar = (d_H + iC)/2 (Cavalcanti's d^J = [d, J]); otherwise the four parts
come by Lagrange over the nodes -is, after checking
(ad_N^2 + 1)(ad_N^2 + 9) d_H = 0.

What J alone determines, whatever the model or the twist, is computed once
per distinct J in a process, keyed by the dimension and the (a, b, d)
triples of J's entries, and shared by every structure on an equal J: J's
checks and the +i eigenspace (`_eigenbundle`), and the parity, the U_k and
the pure spinor (`_graded`).  The model's validity, the Dorfman closure of
L, N, dH_parts and the symplectic and complex checks stay per structure.  A
dim-8 entry holds about 0.14 MB, a dim-12 one about 3 MB; an --all run keeps
the entries of every file it reads.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache, cached_property
from math import factorial, gcd

from .courant import _clifford_vec, algebroid_from_basis, pairing
from .errors import (BMismatch, DegenerateOmega, EngineError, NotAlmostComplex,
                     NotClosedUnderBracket, NotIntegrable, NotIsotropic,
                     NotOrthogonal, OmegaNotClosed, SpectrumViolation,
                     TwistWrongType, WrongType)
from .forms import (Form, SpinOp, _above, _compose, _generator_tables,
                    _table_combine, popcount, spin_apply)
from .liemodel import LieAlgebroid, LieModel, _mask_indices
from .linalg import (Echelon, Matrix, Subspace, Vec, _acc, _axpy_into,
                     mat_add, mat_inv, mat_mul, matrix_kernel, vec_conj,
                     vec_scale)
from .scalars import Half, I, ONE, QI, ZERO, _new, _qi


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
    entries of J may be ParamPoly, for a family's J(t).

    On a blade, the generator of index i that can act is x_i where the blade
    holds i and e^i where not.  For i != j the term acting on i first and
    the one acting on j first reach the same blade with opposite signs, as
    distinct generators anticommute, so each entry off the diagonal is one
    difference of two entries of J, formed once per pair i < j and per
    which of them the blade holds.  The terms on one index return the
    blade: 1/2 J[i][i] where it lacks i, 1/2 J[dim+i][dim+i] where it holds
    it, summed bit by bit."""
    gamma = _generator_tables(dim)
    n2 = 2 * dim
    pairs = []
    for j in range(dim):
        for i in range(j):
            cases = []
            for held in range(4):
                ti = i if held & 1 else dim + i
                tj = j if held & 2 else dim + j
                # g_tj g_ti comes from the column a = s(ti) of J, row tj
                c = (J[tj][(ti + dim) % n2] - J[ti][(tj + dim) % n2]) * Half
                cases.append((gamma[ti], gamma[tj], c, -c) if c else None)
            if any(cases):
                pairs.append((1 << i, 1 << j, cases))
    lack = [J[i][i] * Half for i in range(dim)]
    step = [J[dim + i][dim + i] * Half - lack[i] for i in range(dim)]
    trace = sum((J[a][a] for a in range(n2)), QI(0))
    diag = [sum(lack, QI(0)) - trace * QI(Fraction(1, 4))]
    N: SpinOp = {}
    for mask in range(1 << dim):
        if mask:
            low = mask & -mask
            diag.append(diag[mask ^ low] + step[low.bit_length() - 1])
        col: Vec = {mask: diag[mask]} if diag[mask] else {}
        for bi, bj, cases in pairs:
            case = cases[(1 if mask & bi else 0) | (2 if mask & bj else 0)]
            if case is not None:
                gi, gj, c, nc = case
                m1, s1 = gi[mask]
                m2, s2 = gj[m1]
                col[m2] = c if s1 == s2 else nc
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
    """The nonzero parts {k: Vec} of a blade in the U_k of one parity class,
    which sum to the blade as the Lagrange rows sum to 1.  N must satisfy the
    class's minimal polynomial on the blade, or the projections would be
    wrong.  N is real and the nodes are symmetric, so the rows are combined
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
    return {k: comp for k in ks
            if (comp := upper[k] if k >= 0 else vec_conj(upper[-k]))}


def _grade_block(N: SpinOp, n: int, masks, ambient: int) -> tuple[int, dict]:
    """(cls, {k: U_k for 0 <= k <= n}) for the ascending blades `masks`, which
    N preserves and which include blade 0, whose class's minimal polynomial
    fixes cls: U_k is ker(N + ik) on the blades of degree k + cls (mod 2).
    When the dims, those of k != 0 taken twice, fall short of a class's size,
    the blades are projected one by one to name the first it does not kill."""
    head = _powers(N, {0: ONE}, n + 1)
    cls = next((c for c in (0, 1)
                if not _combine(_projector_plan(n, c)[1], head)), None)
    if cls is None:
        raise SpectrumViolation(
            "spinorial operator violates the forced spectrum "
            f"{{-i{n}..i{n}}} on blade 0", blade=0)
    classes = [[mask for mask in masks if popcount(mask) % 2 == p] for p in (0, 1)]
    size, upper = [0, 0], {}
    for k in range(n + 1):
        part = classes[(k + cls) % 2]
        cols = [dict(N.get(mask, ())) for mask in part]
        for mask, col in zip(part, cols):
            _acc(col, mask, QI(0, k))
        upper[k] = Subspace(ambient, [{part[j]: x for j, x in v.items()}
                                      for v in matrix_kernel(cols)])
        size[(k + cls) % 2] += upper[k].dim * (2 if k else 1)
    if size != [len(part) for part in classes]:
        for mask in masks:
            _project_blade(N, mask, _projector_plan(
                n, (popcount(mask) + cls) % 2))
        raise SpectrumViolation(
            "spinorial operator does not keep the span of the block's blades")
    return cls, upper


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


def _wedge_disjoint(us: list[Vec], vs: list[Vec]) -> list[Vec]:
    """u ^ v for each u in us and v in vs, canonical bases on disjoint sets
    of generators, times the sign that makes it 1 at its pivot, the wedge of
    theirs: it is zero at the wedge of any other pair of their pivots.  Each
    entry is formed on the (a, b, d) triples with its blade sign folded in."""
    vs = [(min(v), [(b, y._a, y._b, y._d) for b, y in v.items()]) for v in vs]
    out = []
    for u in us:
        xs = [(a, _above(a), x._a, x._b, x._d) for a, x in u.items()]
        lead = _above(min(u))
        for pivot, ys in vs:
            flip = (lead & pivot).bit_count()
            w: Vec = {}
            for a, above, c, e, f in xs:
                for b, ya, yb, d in ys:
                    if not yb:
                        p, q = c * ya, e * ya
                    elif not e:
                        p, q = c * ya, c * yb
                    else:
                        p, q = c * ya - e * yb, c * yb + e * ya
                    if ((above & b).bit_count() + flip) & 1:
                        p, q = -p, -q
                    d *= f
                    if d != 1:
                        g = gcd(p, q, d)
                        if g != 1:
                            p, q, d = p // g, q // g, d // g
                    t = _new(QI)
                    t._a, t._b, t._d = p, q, d
                    w[a | b] = t
            out.append(w)
    return out


def _canonical(groups: list[list[Vec]]) -> list[Vec]:
    """The canonical basis of the span of independent groups of canonical
    vectors: one group sorted by pivot, or the other groups inserted into
    the largest one's echelon."""
    if len(groups) == 1:
        return sorted(groups[0], key=min)
    groups = sorted(groups, key=len, reverse=True)
    ech = Echelon.of_basis(groups[0])
    for group in groups[1:]:
        for v in group:
            ech.insert(v)
    return ech.basis()


def _product_grading(J: Matrix, dim: int, blocks: list) -> tuple[int, dict]:
    """(cls, {k: U_k for k >= 0}) of the product of J's blocks, cls summing
    the blocks' classes.  A block's N, built on its own blades, is relabelled
    onto the model's, which keep the order of generators, so a block whose
    matrix repeats an earlier block's takes that block's U_k bases with their
    blades relabelled, and is not graded again.

    The product starts from the first block's canonical bases.  With each
    next block, each split k = k' + k_b is a group, the wedges of the bases
    of the partial U_k' and the block's U_{k_b} (`_wedge_disjoint`), which
    is canonical: a partial U_k fed by one group is that group sorted by
    pivot, and the groups that meet in one are independent, as the blocks'
    gradings are, and are reduced together, so that the next wedges start
    from sparse canonical bases.  Partial products that the blocks still to
    come cannot raise to k >= 0 are skipped."""
    cls, prods, rest = 0, None, dim // 2
    graded: dict[tuple, tuple] = {}     # block key -> (cb, masks, bases)
    for block in blocks:
        m, nb = len(block), len(block) // 2
        idx = block + [dim + i for i in block]
        masks = [sum(1 << block[j] for j in range(m) if mask >> j & 1)
                 for mask in range(1 << m)]
        rows = [[J[r][c] for c in idx] for r in idx]
        # the block's matrix, keyed by its triples as _J_key keys J
        Jb = tuple((x._a, x._b, x._d) for row in rows for x in row)
        if Jb not in graded:
            Nb = _spinorial_N(m, rows)
            cb, upper = _grade_block(
                {masks[a]: {masks[b]: x for b, x in col.items()}
                 for a, col in Nb.items()}, nb, masks, 1 << dim)
            graded[Jb] = cb, masks, {
                kb: (upper[kb] if kb >= 0 else upper[-kb].conj())._basis
                for kb in range(-nb, nb + 1)}
        cb, first, bases = graded[Jb]
        relabel = dict(zip(first, masks)) if first is not masks else None
        cls, rest = cls + cb, rest - nb
        groups: dict[int, list[list[Vec]]] = {}
        for kb in range(-nb, nb + 1):
            basis = bases[kb] if relabel is None else [
                {relabel[a]: x for a, x in v.items()} for v in bases[kb]]
            if not basis:
                continue
            if prods is None:
                if kb + rest >= 0:
                    groups[kb] = [basis]
                continue
            for k, vecs in prods.items():
                if k + kb + rest >= 0:
                    groups.setdefault(k + kb, []).append(
                        _wedge_disjoint(vecs, basis))
        prods = {k: _canonical(gs) for k, gs in groups.items()}
    return cls % 2, {k: Subspace(1 << dim, prods.get(k, []))
                     for k in range(dim // 2 + 1)}


class GCStruct:
    """Validated generalized complex structure with exact grading machinery."""

    def __init__(self, model: LieModel, J: Matrix, L: LieAlgebroid,
                 kind: str, key: tuple):
        """key is J's `_J_key`, under which its grading and spinor are kept."""
        self.model = model
        self.J = J
        self.L = L
        self.kind = kind
        self.n = model.dim // 2
        self.omega = None      # symplectic data
        self.B = None
        self.beta = None       # bivector coefficients {(i,j): QI}, i<j 0-based
        self.Imat = None       # complex-type data
        self.parity, self.U, self.U_dims, self.spinor = _graded(key)

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

def _minus_one_root_columns(M: Matrix, name: str) -> list[Vec]:
    """M's sparse columns, once M^2 = -1 is checked column by column: M is
    a square root of -1, as an almost complex J or I must be."""
    n = len(M)
    cols = [{i: M[i][j] for i in range(n) if M[i][j]} for j in range(n)]
    for j, col in enumerate(cols):
        sq: Vec = {}
        for i, x in col.items():
            _axpy_into(sq, x, cols[i])
        if sq != {j: -ONE}:
            raise NotAlmostComplex(f"{name}^2 != -1")
    return cols


def _validate_J(dim: int, J: Matrix) -> list[Vec]:
    """J's sparse columns, once J is checked real, J^2 = -1 column by column,
    and <Ja, Jb> = <a, b> on every basis pair: 1/2 for x_i with e^i, else 0."""
    n4 = 2 * dim
    if len(J) != n4 or any(len(r) != n4 for r in J):
        raise NotAlmostComplex(f"J must be {n4}x{n4}")
    for row in J:
        for x in row:
            if not x.is_real():
                raise NotAlmostComplex("J must have real (rational) entries")
    cols = _minus_one_root_columns(J, "J")
    for a in range(n4):
        for b in range(a, n4):
            if pairing(dim, cols[a], cols[b]) != (
                    Half if b - a == dim else ZERO):
                raise NotOrthogonal("<Ja, Jb> != <a, b>")
    return cols


def _J_key(dim: int, J: Matrix) -> tuple:
    """(dim, J's rows of normal-form (a, b, d) triples): equal for equal J,
    and hashed without building a Fraction."""
    return dim, tuple(tuple((x._a, x._b, x._d) for x in row) for row in J)


def _J_of(key: tuple) -> Matrix:
    return [[_qi(*t) for t in row] for row in key[1]]


@cache
def _eigenbundle(key: tuple) -> list[Vec]:
    """The basis of the +i eigenspace, ker(J - i), of a validated J."""
    dim = key[0]
    cols = _validate_J(dim, _J_of(key))
    kernel = matrix_kernel([{**col, j: col.get(j, ZERO) - I}   # J - i
                            for j, col in enumerate(cols)])
    if len(kernel) != dim:
        raise NotAlmostComplex(
            f"+i eigenspace has dim {len(kernel)}, expected {dim}")
    return kernel


@cache
def _graded(key: tuple) -> tuple:
    """(parity, {k: U_k}, {k: dim U_k}, pure spinor) of J.  N is real, so
    U_{-k} = conj U_k.  The pure spinor spans U_{-n}, is annihilated by the
    +i eigenspace, and is normalised to 1 at its first blade of lowest
    degree."""
    dim, J = key[0], _J_of(key)
    n = dim // 2
    cls, upper = _product_grading(J, dim, _blocks(J, dim))
    U = {k: upper[k] if k >= 0 else upper[-k].conj() for k in range(-n, n + 1)}
    line = U[-n].basis()
    if len(line) != 1 or any(_clifford_vec(dim, l, line[0])
                             for l in _eigenbundle(key)):
        raise EngineError("U_{-n} is not a line annihilated by L")
    v = line[0]
    lead = min(v, key=lambda m: (popcount(m), m))
    return ((n + cls) % 2, U, {k: u.dim for k, u in U.items()},
            form_of_vec(dim, vec_scale(v, v[lead].inv())))


def make_general(m: LieModel, J: Matrix, kind: str = "general") -> GCStruct:
    """The structure of J on m, checked in the same order whether what J
    alone fixes is new or shared; a J that fails is not kept."""
    m.require_valid()
    J = [[x if isinstance(x, QI) else QI(x) for x in row] for row in J]
    key = _J_key(m.dim, J)
    kernel = _eigenbundle(key)
    try:
        L = algebroid_from_basis(m, kernel, name="L")
    except NotClosedUnderBracket as e:
        raise NotIntegrable(f"+i eigenbundle not Dorfman-closed: {e}",
                            **e.details) from e
    except NotIsotropic as e:  # cannot happen for orthogonal J; keep the guard
        raise NotIntegrable(str(e)) from e
    return GCStruct(m, J, L, kind, key)


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
    # J = e^B J0 e^{-B} with J0 = [[0, -b], [Mw, 0]], b = Mw^{-1}, and
    # e^{+-B}: x -> x +- i_x B on E_C, is [[b MB, -b], [Mw + MB b MB, -MB b]]
    MB = flat_matrix(B)
    if B.is_zero():
        bB = MBb = MB
        lower = Mw
    else:
        bB, MBb = mat_mul(Mb, MB), mat_mul(MB, Mb)
        lower = mat_add(Mw, mat_mul(MB, bB))
    J = ([bB[i] + [-x for x in Mb[i]] for i in range(dim)]
         + [lower[i] + [-x for x in MBb[i]] for i in range(dim)])

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
    _minus_one_root_columns(Imat, "I")
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
