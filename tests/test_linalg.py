"""Subspace arithmetic: canonical echelon bases, lattice ops, quotients."""

import random

import pytest

from gchodge.errors import DimensionMismatch
from gchodge.linalg import (Echelon, QuotientSpace, Subspace, mat_det,
                            mat_identity, mat_inv, mat_mul, matrix_kernel,
                            solve_columns, vec_axpy, vec_scale)
from gchodge.scalars import I, QI


def v(*pairs):
    return {k: (c if isinstance(c, QI) else QI(c)) for k, c in pairs if c}


def rand_vec(ambient, rng):
    out = {}
    for k in rng.sample(range(ambient), 3):
        c = rng.randrange(-3, 4)
        if c:
            out[k] = QI(c)
    return out


def test_intersect_disjoint_lines():
    a = Subspace.span(4, [v((0, 1))])
    b = Subspace.span(4, [v((1, 1))])
    assert a.intersect(b).dim == 0

def test_sum_spans_plane():
    a = Subspace.span(4, [v((0, 1))])
    b = Subspace.span(4, [v((0, 1), (1, 1))])
    s = a.sum(b)
    assert s == Subspace.span(4, [v((0, 1)), v((1, 1))])

def test_echelon_of_canonical_basis_equals_reinsertion():
    rng = random.Random(17)
    for _ in range(20):
        S = Subspace.span(7, [rand_vec(7, rng) for _ in range(rng.randrange(5))])
        ech = Echelon()
        for b in S.basis():
            r, _ = ech.insert(b)
            assert r == b   # a canonical basis row reduces to itself
        assert Echelon.of_basis(S.basis()).rows == ech.rows

def test_ambient_mismatch():
    with pytest.raises(DimensionMismatch):
        Subspace.span(4, []).sum(Subspace.span(6, []))

def test_echelon_canonicality():
    rng = random.Random(0)
    for _ in range(25):
        vecs = [rand_vec(8, rng) for _ in range(4)]
        a = Subspace.span(8, vecs)
        # random invertible recombination spans the same space
        mixed = []
        for _ in range(6):
            w = {}
            for u in vecs:
                w = vec_axpy(w, QI(rng.randrange(-2, 3), rng.randrange(-1, 2)), u)
            mixed.append(w)
        b = Subspace.span(8, mixed + vecs)
        assert a == b
        assert a.basis() == b.basis()

def test_intersection_modular_law():
    rng = random.Random(1)
    for _ in range(10):
        a = Subspace.span(6, [rand_vec(6, rng) for _ in range(2)])
        b = Subspace.span(6, [rand_vec(6, rng) for _ in range(2)])
        m = a.intersect(b)
        assert a.contains_subspace(m) and b.contains_subspace(m)
        assert a.sum(b).dim == a.dim + b.dim - m.dim

def test_quotient_reps():
    big = Subspace.span(4, [v((0, 1)), v((1, 1)), v((2, 1))])
    small = Subspace.span(4, [v((0, 1), (1, 1))])
    reps = big.quotient_reps(small)
    assert len(reps) == 2
    q = Subspace.span(4, reps)
    assert big == q.sum(small)

def test_kernel_and_solve():
    cols = [v((0, 1)), v((1, 1)), v((0, 1), (1, 1))]
    ker = matrix_kernel(cols)
    assert len(ker) == 1
    assert ker[0] == v((0, 1), (1, 1), (2, -1))
    sol = solve_columns(cols, v((0, 2), (1, 3)))
    assert sol is not None
    total = {}
    for j, c in sol.items():
        total = vec_axpy(total, c, cols[j])
    assert total == v((0, 2), (1, 3))
    assert solve_columns([v((0, 1))], v((1, 1))) is None

def test_quotient_space_coords():
    cycles = [v((0, 1)), v((1, 1)), v((0, 1), (2, 1))]
    bounds = [v((0, 1))]
    q = QuotientSpace(4, cycles, bounds)
    assert q.dim == 2
    assert q.class_is_zero(v((0, 5)))
    c = q.coords(v((1, 2), (0, 7)))
    assert c is not None and len(c) == 1
    assert q.coords(v((3, 1))) is None  # not a cycle

def test_conj_subspace():
    a = Subspace.span(4, [v((0, I), (1, 1))])
    assert a.conj() == Subspace.span(4, [v((0, -I), (1, 1))])

def test_dense_inverse():
    rng = random.Random(2)
    for n in (2, 4):
        for _ in range(6):
            m = [[QI(rng.randrange(-3, 4), rng.randrange(-1, 2)) for _ in range(n)]
                 for _ in range(n)]
            if not mat_det(m):
                continue
            assert mat_mul(m, mat_inv(m)) == mat_identity(n)


# -- the list-scan echelon, kept as the reference for the pivot-indexed one -----

class ListEchelon:
    """Rows in a pivot-sorted list; every reduction and back-substitution
    visits every row, and every insert re-sorts the rows."""

    def __init__(self, track=False):
        self.rows = []  # (pivot, vec, combo)
        self.track = track
        self._n_inserted = 0

    def _reduce(self, v, combo):
        v = dict(v)
        for piv, row, rc in self.rows:
            c = v.get(piv)
            if c:
                v = vec_axpy(v, -c, row)
                if combo is not None and rc is not None:
                    combo = vec_axpy(combo, -c, rc)
        return v, combo

    def insert(self, v, tag=None):
        if tag is None:
            tag = self._n_inserted
        self._n_inserted += 1
        combo = {tag: QI(1)} if self.track else None
        v, combo = self._reduce(v, combo)
        if not v:
            return {}, combo
        piv = min(v)
        c = v[piv]
        if c != QI(1):
            inv = c.inv()
            v = vec_scale(v, inv)
            if combo is not None:
                combo = vec_scale(combo, inv)
        new_rows = []
        for p, row, rc in self.rows:
            x = row.get(piv)
            if x:
                row = vec_axpy(row, -x, v)
                if rc is not None and combo is not None:
                    rc = vec_axpy(rc, -x, combo)
            new_rows.append((p, row, rc))
        new_rows.append((piv, v, combo))
        new_rows.sort(key=lambda t: t[0])
        self.rows = new_rows
        return v, combo

    def reduce(self, v):
        """(residual, {row position: coefficient})"""
        v = dict(v)
        used = {}
        for idx, (piv, row, _rc) in enumerate(self.rows):
            c = v.get(piv)
            if c:
                v = vec_axpy(v, -c, row)
                used[idx] = c
        return v, used

    def basis(self):
        return [row for _p, row, _c in self.rows]


def list_matrix_kernel(cols):
    ech = ListEchelon(track=True)
    combos = []
    for j, col in enumerate(cols):
        r, combo = ech.insert(col, tag=j)
        if not r:
            combos.append(combo)
    norm = ListEchelon()
    for c in combos:
        norm.insert(c)
    return norm.basis()


def list_solve_columns(cols, target):
    ech = ListEchelon(track=True)
    for j, col in enumerate(cols):
        ech.insert(col, tag=j)
    r, used = ech.reduce(target)
    if r:
        return None
    out = {}
    for idx, c in used.items():
        out = vec_axpy(out, c, ech.rows[idx][2])
    return out


def list_quotient_coords(cycles, boundaries, v):
    bound = ListEchelon()
    for b in boundaries:
        bound.insert(b)
    bound_pivots = {p for p, _v, _c in bound.rows}
    full = ListEchelon()
    for b in bound.basis():
        full.insert(b)
    for z in cycles:
        full.insert(z)
    reps = [(p, row) for p, row, _c in full.rows if p not in bound_pivots]
    r, _ = bound.reduce(v)
    out = {}
    for i, (piv, rep) in enumerate(reps):
        c = r.get(piv)
        if c:
            r = vec_axpy(r, -c, rep)
            out[i] = c
    return None if r else out


def items(v):
    """A vector with its key order, which reports depend on."""
    return None if v is None else list(v.items())


def rand_qi(rng, height):
    den = rng.randrange(1, height + 1)
    return QI(rng.randrange(-height, height + 1), rng.randrange(-1, 2)) / QI(den)


def rand_family(rng, ambient):
    """Sparse and dense vectors, some of them combinations of earlier ones
    (dependent inserts), some zero."""
    vecs = []
    for _ in range(rng.randrange(1, 14)):
        kind = rng.random()
        if vecs and kind < 0.3:
            w = {}
            for u in rng.sample(vecs, min(len(vecs), 3)):
                w = vec_axpy(w, rand_qi(rng, 3), u)
            vecs.append(w)
        elif kind < 0.35:
            vecs.append({})
        else:
            k = rng.randrange(1, ambient + 1)
            keys = rng.sample(range(ambient), k)
            vecs.append({i: c for i in keys if (c := rand_qi(rng, 4))})
    return vecs


def test_pivot_indexed_echelon_matches_list_scan_reference():
    rng = random.Random(20260518)
    for trial in range(120):
        ambient = rng.randrange(1, 13)
        vecs = rand_family(rng, ambient)
        track = trial % 2 == 0
        new, ref = Echelon(track=track), ListEchelon(track=track)
        for j, vec in enumerate(vecs):
            tag = rng.choice([None, 100 + j])
            got, want = new.insert(vec, tag), ref.insert(vec, tag)
            assert items(got[0]) == items(want[0])
            assert items(got[1]) == items(want[1])
        assert [items(b) for b in new.basis()] == [items(b) for b in ref.basis()]
        assert [(p, items(r), items(c)) for p, r, c in new.rows] == \
            [(p, items(r), items(c)) for p, r, c in ref.rows]
        probes = rand_family(rng, ambient)
        for probe in probes:
            (res, used), (rres, rused) = new.reduce(probe), ref.reduce(probe)
            assert items(res) == items(rres)
            pivots = [p for p, _r, _c in ref.rows]
            assert items(used) == [(pivots[i], c) for i, c in rused.items()]
        assert [items(k) for k in matrix_kernel(vecs)] == \
            [items(k) for k in list_matrix_kernel(vecs)]
        for target in probes + vecs[:2]:
            assert items(solve_columns(vecs, target)) == \
                items(list_solve_columns(vecs, target))
        # cycles/boundaries: boundaries inside the cycles
        bounds = [vec_axpy({}, rand_qi(rng, 2), u)
                  for u in rng.sample(vecs, rng.randrange(len(vecs) + 1))]
        q = QuotientSpace(ambient, vecs, bounds)
        for target in probes + vecs + bounds:
            assert items(q.coords(target)) == \
                items(list_quotient_coords(vecs, bounds, target))


def test_echelon_of_basis_then_insert_matches_reference():
    """An echelon made from a canonical basis builds its holder index on the
    first insert and then back-substitutes like a reinserted one."""
    rng = random.Random(5)
    for _ in range(100):
        ambient = rng.randrange(2, 11)
        S = Subspace.span(ambient, rand_family(rng, ambient))
        before = [items(b) for b in S.basis()]
        ech, ref = S.echelon(), ListEchelon()
        for b in S.basis():
            ref.insert(b)
        for vec in rand_family(rng, ambient):
            assert items(ech.insert(vec)[0]) == items(ref.insert(vec)[0])
        assert [items(b) for b in ech.basis()] == [items(b) for b in ref.basis()]
        assert [items(b) for b in S.basis()] == before  # rows are not shared
