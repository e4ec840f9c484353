"""Subspace arithmetic: canonical echelon bases, lattice ops, quotients."""

import random

import pytest

from gchodge.errors import DimensionMismatch
from gchodge.linalg import (Echelon, QuotientSpace, Subspace, mat_det,
                            mat_identity, mat_inv, mat_mul, matrix_kernel,
                            solve_columns, vec_axpy)
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
