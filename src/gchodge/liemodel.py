"""Invariant geometric models: a 2n-dim Lie algebra with a closed 3-form twist,
its Chevalley-Eilenberg complex, and complex Lie algebroids inside E_C = g + g*.

Structure data lists d e^k directly: an entry (k, i, j, c) contributes
c * e^i ^ e^j to d e^k, equivalently <e^k, [x_i, x_j]> = -c.

d comes from the structure constants: d = sum_k (d e^k) ^ i_{x_k}, two
antiderivations agreeing on generators, so each entry (k, i, j, c) is a chain
of three generator-table lookups per blade, as is each term of H and each
bracket entry of an algebroid.  One routine, `chain_columns`, gives d, d_H,
d_L and the split differentials of an algebroid decomposition, on a
cochain's own blades or as tables over every blade.

Models are immutable, so each operator table and the validity report are
computed once per model, on first use; `once` keeps what is derived from a
model, a structure or an algebroid, such as its cohomology, on it.
"""

from __future__ import annotations

from functools import cached_property

from .errors import (DimensionMismatch, DimensionOdd, JacobiFailure,
                     NotClosedUnderBracket, StructureNotReal, TwistNotClosed)
from .forms import (Form, SpinOp, _generator_tables, blades_by_degree,
                    insert_sign, popcount, spin_apply)
from .linalg import (ColumnReduction, Lows, Vec, _acc, mat_det,
                     reduce_columns, solve, vec_conj)
from .scalars import ONE, QI


def chain_columns(chains, masks) -> SpinOp:
    """The sum of the chains on each blade in masks, empty columns omitted:
    a chain (tables, c, -c) is the term c t_last ... t_first of generator
    tables (`forms._generator_tables`), each a blade to one signed blade."""
    cols: SpinOp = {}
    for mask in masks:
        col: Vec = {}
        for tables, c, minus_c in chains:
            m, sign = mask, 1
            for t in tables:
                hit = t[m]
                if hit is None:
                    break
                m, s = hit
                sign *= s
            else:
                _acc(col, m, c if sign > 0 else minus_c)
        if col:
            cols[mask] = col
    return cols


def chain_apply(chains, v: Vec) -> Vec:
    """The sum of the chains applied to v, built on v's own blades."""
    return spin_apply(chain_columns(chains, v), v)


def bracket_chains(rank: int, entries) -> list:
    """d on the cochains of a rank-`rank` algebroid from bracket entries
    (i, j, m, c), c the a_m-component of [a_i, a_j]: as d a^m(a_i, a_j) =
    -a^m([a_i, a_j]), each entry is the chain -c a^i ^ a^j ^ i_{a_m}."""
    g = _generator_tables(rank)
    return [((g[m], g[rank + j], g[rank + i]), -c, c)
            for (i, j, m, c) in entries]


class LieModel:
    """2n-dimensional Lie algebra with structure constants and twist H."""

    def __init__(self, dim: int, structure, H: Form | None = None, name: str = ""):
        if dim % 2:
            raise DimensionOdd(f"model dimension must be even, got {dim}")
        self.dim = dim
        self.name = name
        self.structure = tuple((int(k), int(i), int(j), c if isinstance(c, QI) else QI(c))
                               for (k, i, j, c) in structure)
        self.H = H if H is not None else Form(dim)
        if self.H.dim != dim:
            raise DimensionMismatch("twist form lives on a different dimension")
        if not self.H.is_zero() and not self.H.is_homogeneous(3):
            raise TwistNotClosed("twist must be a pure 3-form", degree=sorted(self.H.degrees()))
        if any(v.im for v in self.H.coeffs.values()):
            raise TwistNotClosed("twist 3-form must be real")
        complex_entries = [(k, i, j) for (k, i, j, c) in self.structure if c.im]
        if complex_entries:
            k, i, j = complex_entries[0]
            raise StructureNotReal(
                f"structure constants must be real: d e{k} has a non-real "
                f"coefficient of e{i}^e{j}", entries=complex_entries)

    # -- differentials --------------------------------------------------------

    def _chains(self, twisted: bool) -> list:
        """c e^i ^ e^j ^ i_{x_k} per entry of d, and c e^p ^ e^q ^ e^r ^ per
        term of H when twisted."""
        dim = self.dim
        g = _generator_tables(dim)
        chains = [((g[k - 1], g[dim + j - 1], g[dim + i - 1]), c, -c)
                  for (k, i, j, c) in self.structure]
        if twisted:
            chains += [(tuple(g[dim + p] for p in reversed(_mask_indices(h))),
                        c, -c) for h, c in self.H.coeffs.items()]
        return chains

    def d(self, a: Form) -> Form:
        """Chevalley-Eilenberg differential, a degree-1 antiderivation."""
        return Form(self.dim, chain_apply(self._chains(False), a.coeffs))

    def d_H(self, a: Form) -> Form:
        return Form(self.dim, chain_apply(self._chains(True), a.coeffs))

    @cached_property
    def d_table(self) -> SpinOp:
        return chain_columns(self._chains(False), range(1 << self.dim))

    @cached_property
    def dH_table(self) -> SpinOp:
        return chain_columns(self._chains(True), range(1 << self.dim))

    @cached_property
    def dorfman_table(self) -> dict[int, dict[int, Vec]]:
        """The H-twisted Dorfman bracket on the basis x_1..x_dim, e^1..e^dim of
        E_C (x_i at i-1, e^i at dim+i-1): entry [p][q] is the sparse coordinate
        vector of the bracket of basis elements p and q, zero entries and
        rows omitted.  With <e^k, [x_i, x_j]_g> = -c for each structure entry
        (k, i, j, c):
        [x_i, x_j] = [x_i, x_j]_g + i_{x_i} i_{x_j} H,
        [x_i, e^k] = i_{x_i} d e^k, [e^k, x_j] = -i_{x_j} d e^k, [e^k, e^l] = 0."""
        dim = self.dim
        table: dict[int, dict[int, Vec]] = {}

        def add(p: int, q: int, k: int, v: QI):
            _acc(table.setdefault(p, {}).setdefault(q, {}), k, v)

        for (k, i, j, c) in self.structure:
            add(i - 1, j - 1, k - 1, -c)
            add(j - 1, i - 1, k - 1, c)
        for mask, h in self.H.coeffs.items():
            for j in _mask_indices(mask):
                inner = mask & ~(1 << j)
                for i in _mask_indices(inner):
                    (l,) = _mask_indices(inner & ~(1 << i))
                    s = insert_sign(mask, j) * insert_sign(inner, i)
                    add(i, j, dim + l, h if s > 0 else -h)
        for k in range(1, dim + 1):
            for mask, v in self.d(Form.blade(dim, [k])).coeffs.items():
                for i in _mask_indices(mask):
                    (l,) = _mask_indices(mask & ~(1 << i))
                    t = v if insert_sign(mask, i) > 0 else -v
                    add(i, dim + k - 1, dim + l, t)
                    add(dim + k - 1, i, dim + l, -t)
        return {p: {q: col for q, col in row.items() if col}
                for p, row in table.items() if any(row.values())}

    def bracket_vectors(self, xi, yj):
        """Lie bracket of constant vector fields, coefficient lists (0-based)."""
        out = [QI(0)] * self.dim
        for (k, i, j, c) in self.structure:
            # <e^k,[x_i,x_j]> = -c
            t = xi[i - 1] * yj[j - 1] - xi[j - 1] * yj[i - 1]
            if t:
                out[k - 1] = out[k - 1] - c * t
        return out

    def validate(self) -> "ModelReport":
        """Check d^2 = 0 on generators and d H = 0."""
        return self._validity

    @cached_property
    def _validity(self) -> "ModelReport":
        jacobi = []
        for k in range(1, self.dim + 1):
            r = self.d(self.d(Form.blade(self.dim, [k])))
            if not r.is_zero():
                jacobi.append((k, r))
        dh = self.d(self.H)
        return ModelReport(self, jacobi, dh)

    def require_valid(self):
        rep = self.validate()
        rep.raise_on_failure()
        return rep

    def __repr__(self):
        return f"LieModel(dim={self.dim}, name={self.name!r})"


class ModelReport:
    def __init__(self, model: LieModel, jacobi_failures, dh_residual: Form):
        self.model = model
        self.jacobi_failures = jacobi_failures
        self.dh_residual = dh_residual

    @property
    def ok(self) -> bool:
        return not self.jacobi_failures and self.dh_residual.is_zero()

    def raise_on_failure(self):
        if self.jacobi_failures:
            ks = [k for k, _r in self.jacobi_failures]
            raise JacobiFailure(f"d^2 e{ks} != 0", generators=ks)
        if not self.dh_residual.is_zero():
            raise TwistNotClosed(f"dH = {self.dh_residual!r}")

    def lines(self):
        out = []
        for k, r in self.jacobi_failures:
            out.append(f"jacobi: d^2 e{k} = {r!r}")
        if not self.dh_residual.is_zero():
            out.append(f"twist: dH = {self.dh_residual!r}")
        if not out:
            out.append("model valid: d^2 = 0, dH = 0")
        return out


def validate_model(m: LieModel) -> ModelReport:
    return m.validate()


# -- Lie algebroids -----------------------------------------------------------

class LieAlgebroid:
    """Bracket-closed isotropic subbundle of E_C with precomputed tables.

    Cochains of degree k are dicts {mask over basis indices: QI} with full
    antisymmetry implicit in the ascending mask convention.
    """

    def __init__(self, ambient: LieModel, basis, bracket_table, name: str = ""):
        self.ambient = ambient
        self.basis = list(basis)          # E_C coordinate vectors
        self.rank = len(self.basis)
        self.bracket_table = bracket_table  # [i][j] -> list of QI over basis
        self.name = name

    # -- cochain complex ----------------------------------------------------

    @cached_property
    def bracket_entries(self) -> list[tuple[int, int, int, QI]]:
        """(i, j, m, c), i < j, for each a_m-component c != 0 of [a_i, a_j]."""
        return [(i, j, m, c) for i in range(self.rank)
                for j in range(i + 1, self.rank)
                for m, c in enumerate(self.bracket_table[i][j]) if c]

    @cached_property
    def chains(self) -> list:
        return bracket_chains(self.rank, self.bracket_entries)

    def differential(self, c: dict[int, QI]) -> dict[int, QI]:
        """d_L on invariant cochains, where the anchor terms of the Cartan
        formula vanish: d a^m = -sum_{i<j} c a^i ^ a^j, extended as the
        derivation sum_m (d a^m) ^ i_{a_m}."""
        return chain_apply(self.chains, c)

    def cohomology(self) -> ColumnReduction:
        """H(L) in every degree, grouped by degree, from one reduction of d_L
        over the cochain masks by descending (degree, mask); kept on the
        algebroid."""
        return once(self, _reduce_d_L)

    def conj(self) -> "LieAlgebroid":
        from .courant import algebroid_from_basis
        return algebroid_from_basis(self.ambient,
                                    [vec_conj(b) for b in self.basis],
                                    name=f"conj({self.name})")

    def span_lows(self) -> Lows:
        """The lows of the column reduction of the basis, over which span
        elements are solved; kept on the algebroid."""
        return once(self, _reduce_basis)

    def coords_of(self, elem) -> list[QI]:
        """Coordinates of an E_C element in this algebroid's basis."""
        sol = solve(self.span_lows(), elem)
        if sol is None:
            raise NotClosedUnderBracket("element is not in the algebroid span")
        return [sol.get(a, QI(0)) for a in range(self.rank)]

    def cochain_eval(self, c: dict[int, QI], elems) -> QI:
        """Evaluate an alternating cochain on arbitrary span elements."""
        coords = [self.coords_of(e) for e in elems]
        k = len(elems)
        out = QI(0)
        for mask, val in c.items():
            idxs = _mask_indices(mask)
            if len(idxs) != k:
                continue
            sub = [[coords[col][row] for col in range(k)] for row in idxs]
            d = mat_det(sub)
            if d:
                out = out + val * d
        return out


def _reduce_basis(L: LieAlgebroid) -> Lows:
    return reduce_columns(L.basis)[0]


def _reduce_d_L(L: LieAlgebroid) -> ColumnReduction:
    order = blades_by_degree(L.rank)
    return ColumnReduction(order, [L.differential({b: ONE}) for b in order],
                           [popcount(b) for b in order])


def once(obj, compute):
    """compute(obj), run once per object and kept on it: a model, a
    structure or an algebroid does not change once built, so what is
    derived from it is shared by every check that asks for it."""
    kept = vars(obj).setdefault("_kept", {})
    if compute not in kept:
        kept[compute] = compute(obj)
    return kept[compute]


def _mask_indices(mask: int):
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask &= mask - 1
    return out
