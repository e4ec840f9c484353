"""The generalized tangent space E_C = g + g*: pairing, H-twisted Dorfman
bracket on invariant sections, B-shifts, Clifford action, and the axiom suite.

An element of E_C is a sparse coordinate vector {index: QI} on the basis
x_1..x_dim, e^1..e^dim, in the layout of `LieModel.dorfman_table`: x_i at
index i-1 and e^i at index dim+i-1.  Each public function raises
DimensionMismatch on a coordinate outside range(2*dim).

Both operators are tables on this basis.  The bracket is the bilinear
extension of `LieModel.dorfman_table`, one structure-constant vector per pair
of basis elements; the Clifford action is sum_c a_c gamma_c over per-dim
generator tables, each sending a blade to at most one signed blade.

On invariant sections the Lie derivative collapses to L_X eta = i_X d eta and
d of a constant vanishes, so C3 trivializes and C4/C5 take their homogeneous
forms; the suite records this rather than silently skipping.  Every identity
it checks is multilinear, so it is checked over the basis (and every blade),
which proves it for all invariant sections: nothing is sampled.  The Clifford
relation reads the generator tables alone, so it is swept once per table, and
a substituted table is swept afresh; C1 and C5 visit only the triples that
read a nonzero bracket entry, every other triple being 0 = 0.

The suite takes the bracket as a table: `table_of(model)` gives the
structure constants (by default `model.dorfman_table`), and the B-shift check
compares e^B of each table entry with the entry of the shifted pair in the
table of the shifted twist H + dB.  Witnesses name basis elements by index.
"""

from __future__ import annotations

from functools import cache
from operator import attrgetter

from .errors import DimensionMismatch
from .forms import Form, _generator_tables, blade_name
from .liemodel import LieAlgebroid, LieModel
from .linalg import Vec, _acc, _axpy_into, solve, vec_add
from .scalars import Half, ONE, QI, ZERO


def _coords_repr(dim: int, u: Vec) -> str:
    """The repr of the element of E_C with sparse coordinates u."""
    return " + ".join(f"({u[k]}) {'x' if k < dim else 'e'}{k % dim + 1}"
                      for k in sorted(u)) or "0"


def _check_coords(dim: int, *vecs: Vec) -> None:
    """Raise DimensionMismatch unless every coordinate is in range(2*dim)."""
    n = 2 * dim
    for u in vecs:
        for k in u:
            if not 0 <= k < n:
                raise DimensionMismatch(
                    f"coordinate {k} is outside E_C of dim {dim}")


def pairing(dim: int, u: Vec, v: Vec) -> QI:
    """<X+xi, Y+eta> = (xi(Y) + eta(X)) / 2."""
    _check_coords(dim, u, v)
    s = ZERO
    for k, x in u.items():
        y = v.get(k + dim if k < dim else k - dim)
        if y is not None:
            s = s + x * y
    return s * Half if s else s


def dorfman(m: LieModel, u: Vec, v: Vec) -> Vec:
    """[X+xi, Y+eta]_H = [X,Y] + i_X d eta - i_Y d xi + i_X i_Y H, as the
    bilinear extension of the model's structure-constant table."""
    _check_coords(m.dim, u, v)
    return _bracket_coords(m.dorfman_table, u, v)


def _bracket_coords(table: dict, u: Vec, v: Vec) -> Vec:
    """sum_{p,q} u_p v_q table[p][q] over sparse E_C coordinates, for a
    structure-constant table with zero entries and rows omitted."""
    out: Vec = {}
    for p, x in u.items():
        row = table.get(p)
        if row:
            for q, y in v.items():
                col = row.get(q)
                if col:
                    _axpy_into(out, x * y, col)
    return out


def b_shift(B: Form, u: Vec) -> Vec:
    """e^B (X + xi) = X + xi + i_X B."""
    if not B.is_zero() and not B.is_homogeneous(2):
        raise DimensionMismatch("B-shift requires a homogeneous 2-form")
    dim = B.dim
    _check_coords(dim, u)
    out = dict(u)
    ixB = B.contract_vector([u.get(i, ZERO) for i in range(dim)])
    for mask, v in ixB.coeffs.items():
        _acc(out, dim + mask.bit_length() - 1, v)
    return out


def b_shift_form(B: Form, w: Form) -> Form:
    """Multiplication by e^B = 1 + B + B^B/2 + ..."""
    if not B.is_zero() and not B.is_homogeneous(2):
        raise DimensionMismatch("B-shift requires a homogeneous 2-form")
    return B.exp().wedge(w) if not B.is_zero() else w


def clifford_act(u: Vec, w: Form) -> Form:
    """(X + xi) . w = i_X w + xi ^ w."""
    _check_coords(w.dim, u)
    return Form(w.dim, _clifford_vec(w.dim, u, w.coeffs))


def _clifford_vec(dim: int, u: Vec, v: Vec) -> Vec:
    """sum_c u_c gamma_c(v) over the generator tables, blade by blade."""
    gamma = _generator_tables(dim)
    terms = [(gamma[c], z) for c, z in u.items()]
    out: Vec = {}
    for mask, x in v.items():
        for g, z in terms:
            hit = g[mask]
            if hit is not None:
                t = z * x
                _acc(out, hit[0], t if hit[1] > 0 else -t)
    return out


def algebroid_from_basis(m: LieModel, basis, name: str = "") -> LieAlgebroid:
    """Build the complex Lie algebroid spanned by `basis`, verifying
    independence, isotropy, and Dorfman closure."""
    from .errors import NotClosedUnderBracket, NotIsotropic
    basis = list(basis)
    rank = len(basis)
    # the table is filled below, once the basis is checked; the reduction of
    # the basis is kept on the algebroid for its coordinate solves
    table = [[None] * rank for _ in range(rank)]
    L = LieAlgebroid(m, basis, table, name=name)
    lows = L.span_lows()
    if len(lows) != rank:
        raise DimensionMismatch("algebroid basis is linearly dependent")
    for i, a in enumerate(basis):
        for j in range(i, len(basis)):
            p = pairing(m.dim, a, basis[j])
            if p:
                raise NotIsotropic(
                    f"<basis[{i}], basis[{j}]> = {p}", pair=(i, j), value=str(p))
    for i in range(rank):
        for j in range(rank):
            br = _bracket_coords(m.dorfman_table, basis[i], basis[j])
            sol = solve(lows, br)
            if sol is None:
                br = _coords_repr(m.dim, br)
                raise NotClosedUnderBracket(
                    f"[basis[{i}], basis[{j}]] leaves the span: {br}",
                    pair=(i, j), residual=br)
            table[i][j] = [sol.get(t, ZERO) for t in range(rank)]
    return L


# -- axiom suite ---------------------------------------------------------------

class AxiomReport:
    def __init__(self):
        self.checks: list[tuple[str, bool, str]] = []

    def record(self, name: str, ok: bool, witness: str = ""):
        self.checks.append((name, ok, witness))

    @property
    def ok(self) -> bool:
        return all(ok for _n, ok, _w in self.checks)

    def lines(self):
        out = []
        for n, ok, w in self.checks:
            s = "pass" if ok else "FAIL"
            out.append(f"{n}: {s}" + (f" witness: {w}" if w and not ok else ""))
        return out


def _shift_coords(dim: int, i: int, j: int, u: Vec) -> Vec:
    """e^B u for the basis 2-form B = e^{i+1} ^ e^{j+1}, i < j: i_X B is
    X_i e^{j+1} - X_j e^{i+1}."""
    out = dict(u)
    if i in u:
        _acc(out, dim + j, u[i])
    if j in u:
        _acc(out, dim + i, -u[j])
    return out


def _anticommutator(ga: tuple, gb: tuple, mask: int) -> dict[int, int]:
    """gamma_a gamma_b + gamma_b gamma_a on one blade, with integer signs."""
    out: dict[int, int] = {}
    for first, second in ((gb, ga), (ga, gb)):
        hit = first[mask]
        hit2 = second[hit[0]] if hit is not None else None
        if hit2 is not None:
            t = out.get(hit2[0], 0) + hit[1] * hit2[1]
            if t:
                out[hit2[0]] = t
            else:
                del out[hit2[0]]
    return out


@cache
def _clifford_witness(gamma: tuple) -> str:
    """The first basis pair a <= b and blade w with a.b.w + b.a.w != 2<a,b> w
    over the generator tables `gamma`, or "".  The result depends on the
    tables alone, so it is kept per table: a substituted table is swept
    afresh, on every blade."""
    dim = len(gamma) // 2
    # polarised: a.b.w + b.a.w = 2<a,b> w, and 2<a,b> is 1 on x_i, e^i
    return next((f"a={_coords_repr(dim, {a: ONE})}; b={_coords_repr(dim, {b: ONE})}"
                 f"; w={blade_name(mask) or '1'}"
                 for a in range(2 * dim) for b in range(a, 2 * dim)
                 for mask in range(1 << dim)
                 if _anticommutator(gamma[a], gamma[b], mask)
                 != ({mask: 1} if b - a == dim else {})), "")


def courant_axiom_suite(m: LieModel,
                        table_of=attrgetter("dorfman_table")) -> AxiomReport:
    """Exact check of C1, C2, C4, C5 (invariant form), the Clifford relation
    and the B-shift conjugation identity that pins the bracket to the model
    twist.  The bracket under test is `table_of(model)`, a structure-constant
    table in the layout of `LieModel.dorfman_table`, read for `m` and for each
    B-shifted model, and every check compares sparse coordinate vectors.
    Each identity is multilinear, so it is checked on all basis pairs or
    triples (times every blade for the Clifford relation, swept once per
    generator table), which proves it for all invariant sections.  A witness
    names the basis elements of the first failure."""
    dim = m.dim
    ids = range(2 * dim)
    names = [_coords_repr(dim, {p: ONE}) for p in ids]
    table = table_of(m)
    T = [[table.get(p, {}).get(q, {}) for q in ids] for p in ids]

    def br(u: Vec, v: Vec) -> Vec:
        return _bracket_coords(table, u, v)

    def first(witnesses) -> str:
        return next(witnesses, "")

    # a triple reading only zero entries of the table is 0 = 0 in C1 and C5
    nonzero = [[q for q in ids if T[p][q]] for p in ids]
    w1 = first(
        f"a={names[a]}; b={names[b]}; c={names[c]}"
        for a in ids for b in ids
        for c in (ids if T[a][b] else sorted({*nonzero[a], *nonzero[b]}))
        if br({a: ONE}, T[b][c])
        != vec_add(br(T[a][b], {c: ONE}), br({b: ONE}, T[a][c])))
    # the anchor of basis element p is x_p for p < dim and 0 otherwise
    anchor = [[ONE if k == p else ZERO for k in range(dim)] for p in ids]
    w2 = first(
        f"a={names[a]}; b={names[b]}"
        for a in ids for b in ids
        if [T[a][b].get(k, ZERO) for k in range(dim)]
        != m.bracket_vectors(anchor[a], anchor[b]))
    w4 = first(
        f"a={names[a]}; b={names[b]}; sum={_coords_repr(dim, s)}"
        for a in ids for b in range(a, 2 * dim)
        for s in [vec_add(T[a][b], T[b][a])] if s)
    # 2<[a,b],c> + 2<b,[a,c]>: the pairing of x_i with e^i, undivided
    dual = [(p + dim) % (2 * dim) for p in ids]
    w5 = first(
        f"a={names[a]}; b={names[b]}; c={names[c]}; value={s / 2}"
        for a in ids for b in ids for c in (ids if T[a][b] else nonzero[a])
        for s in [T[a][b].get(dual[c], ZERO) + T[a][c].get(dual[b], ZERO)]
        if s)
    wcl = _clifford_witness(_generator_tables(dim))
    rep = AxiomReport()
    rep.record("C1 Leibniz/Jacobi", not w1, w1)
    rep.record("C2 anchor-bracket", not w2, w2)
    rep.record("C4 skew (invariant: d<a,b> = 0)", not w4, w4)
    rep.record("C5 pairing invariance (invariant: rho(a) kills constants)",
               not w5, w5)
    rep.record("Clifford relation a.a.w = <a,a> w", not wcl, wcl)

    # B-shift conjugation: e^B [a,b]_H = [e^B a, e^B b]_{H+dB}; this is what
    # ties the bracket to the specific twist (C1-C5 cannot see H alone).  The
    # bracket of two forms is 0, so the defect is linear in B and the basis
    # 2-forms e^{ij} suffice.
    def shift_defects(i: int, j: int):
        B = Form(dim, {(1 << i) | (1 << j): ONE})
        Ts = table_of(LieModel(dim, m.structure, m.H + m.d(B)))
        shifted = [_shift_coords(dim, i, j, {p: ONE}) for p in ids]
        for a in ids:
            for b in ids:
                if (_shift_coords(dim, i, j, T[a][b])
                        != _bracket_coords(Ts, shifted[a], shifted[b])):
                    yield f"B={B!r}; a={names[a]}; b={names[b]}"

    bs_w = first(w for i in range(dim) for j in range(i + 1, dim)
                 for w in shift_defects(i, j))
    rep.record("B-shift conjugation e^B[a,b]_H = [e^Ba,e^Bb]_{H+dB}",
               not bs_w, bs_w)
    return rep
