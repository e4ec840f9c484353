"""Subspace arithmetic: canonical echelon bases, lattice ops, quotients, the
fused multiply-accumulate kernel, the kernel paths that skip a second
normalisation, and the kernels and solves of the ordered column reduction
against the tracked echelon they replaced."""

import os
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gchodge.cohomology import _preimage_in
from gchodge.errors import DimensionMismatch
from gchodge.forms import spin_apply
from gchodge.linalg import (Echelon, Subspace, _axpy_into, kernel_lift,
                            mat_det, mat_inv, mat_mul, matrix_kernel,
                            reduce_columns, solve, vec_axpy, vec_conj,
                            vec_scale)
from gchodge.poly import ParamPoly
from gchodge.scalars import I, QI

from reference_linalg import (QuotientSpace, TrackedEchelon,
                              dependent_combos, tracked_intersect,
                              tracked_kernel_lift, tracked_matrix_kernel,
                              tracked_solve)

# the kernel property tests' budget; GCHODGE_KERNEL_EXAMPLES sets a larger one
# for a longer run outside the tier-1 suite
KERNEL_EXAMPLES = int(os.environ.get("GCHODGE_KERNEL_EXAMPLES", "200"))


# helpers that only the tests use

def mat_identity(n):
    return [[QI(1) if i == j else QI(0) for j in range(n)] for i in range(n)]


def contains_subspace(big, small):
    ech = big.echelon()
    return all(ech.contains(w) for w in small.basis())


def echelon_rows(ech):
    """(pivot, vec) for every row of an Echelon, by ascending pivot."""
    return [(p, ech._rows[p]) for p in sorted(ech._rows)]


def quotient_reps(big, sub):
    """Canonical representatives of big/sub (sub must lie in big): the rows
    that big's basis adds to sub's echelon."""
    ech = sub.echelon()
    sub_pivots = set(ech._rows)
    for w in big.basis():
        ech.insert(w)
    return [row for p, row in echelon_rows(ech) if p not in sub_pivots]


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

def test_echelon_of_canonical_basis_equals_reinsertion():
    rng = random.Random(17)
    for _ in range(20):
        S = Subspace.span(7, [rand_vec(7, rng) for _ in range(rng.randrange(5))])
        ech = Echelon()
        for b in S.basis():
            r, _ = ech.insert(b)
            assert r == b   # a canonical basis row reduces to itself
        assert echelon_rows(Echelon.of_basis(S.basis())) == echelon_rows(ech)

def test_ambient_mismatch():
    with pytest.raises(DimensionMismatch):
        Subspace.span(4, []).intersect(Subspace.span(6, []))

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
        assert contains_subspace(a, m) and contains_subspace(b, m)
        assert Subspace.span(6, a.basis() + b.basis()).dim \
            == a.dim + b.dim - m.dim

def test_quotient_reps():
    big = Subspace.span(4, [v((0, 1)), v((1, 1)), v((2, 1))])
    small = Subspace.span(4, [v((0, 1), (1, 1))])
    reps = quotient_reps(big, small)
    assert len(reps) == 2
    q = Subspace.span(4, reps)
    assert big == Subspace.span(4, q.basis() + small.basis())

def test_kernel_and_solve():
    cols = [v((0, 1)), v((1, 1)), v((0, 1), (1, 1))]
    ker = matrix_kernel(cols)
    assert len(ker) == 1
    assert ker[0] == v((0, 1), (1, 1), (2, -1))
    sol = solve(reduce_columns(cols)[0], v((0, 2), (1, 3)))
    assert sol is not None
    total = {}
    for j, c in sol.items():
        total = vec_axpy(total, c, cols[j])
    assert total == v((0, 2), (1, 3))
    assert solve(reduce_columns([v((0, 1))])[0], v((1, 1))) is None

def test_quotient_space_coords():
    cycles = [v((0, 1)), v((1, 1)), v((0, 1), (2, 1))]
    bounds = [v((0, 1))]
    q = QuotientSpace(4, cycles, bounds)
    assert q.dim == 2
    assert q.coords(v((0, 5))) == {}     # a boundary: the zero class
    c = q.coords(v((1, 2), (0, 7)))
    assert c is not None and len(c) == 1
    assert q.coords(v((3, 1))) is None  # not a cycle

def test_conj_subspace():
    a = Subspace.span(4, [v((0, I), (1, 1))])
    assert a.conj() == Subspace.span(4, [v((0, -I), (1, 1))])
    # complex entries off the pivots survive the full reduction, so conj()
    # must agree with a fresh echelonization of the conjugated vectors
    vecs = [v((0, QI(1, 2)), (2, QI(3, -1)), (3, I)),
            v((1, QI(0, 2)), (2, QI(1, 1)), (4, QI(-1, 5))),
            v((0, 1), (1, 1), (3, QI(2, 1)), (4, 7))]
    b = Subspace.span(5, vecs)
    assert b.dim == 3
    assert any(not x.is_real() for w in b.basis() for k, x in w.items()
               if k != min(w))
    want = Subspace.span(5, [vec_conj(w) for w in vecs])
    assert b.conj().basis() == want.basis()
    assert b.conj().conj() == b

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
        # the engine's echelon, and the tracked one kept as the reference
        new, ref = Echelon(), ListEchelon()
        tracked, tref = TrackedEchelon(), ListEchelon(track=True)
        for j, vec in enumerate(vecs):
            got, want = new.insert(vec), ref.insert(vec)
            assert items(got[0]) == items(want[0])
            tag = rng.choice([None, 100 + j])
            got, want = tracked.insert(vec, tag), tref.insert(vec, tag)
            assert items(got[0]) == items(want[0])
            assert items(got[1]) == items(want[1])
        assert [items(b) for b in new.basis()] == [items(b) for b in ref.basis()]
        assert [(p, items(r)) for p, r in echelon_rows(new)] == \
            [(p, items(r)) for p, r, _c in ref.rows]
        assert [(p, items(r), items(c)) for p, r, c in tracked.rows()] == \
            [(p, items(r), items(c)) for p, r, c in tref.rows]
        probes = rand_family(rng, ambient)
        for probe in probes:
            (res, used), (rres, rused) = new.reduce(probe), ref.reduce(probe)
            assert items(res) == items(rres)
            pivots = [p for p, _r, _c in ref.rows]
            assert items(used) == [(pivots[i], c) for i, c in rused.items()]
        # the reduction's kernel and solves, as values: its key order is its
        # own
        assert matrix_kernel(vecs) == list_matrix_kernel(vecs)
        lows = reduce_columns(vecs)[0]
        for target in probes + vecs[:2]:
            assert solve(lows, target) == list_solve_columns(vecs, target)
            assert items(tracked_solve(vecs, target)) == \
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


def test_echelon_holder_index_matches_rows():
    """After every insert the holder index maps each coordinate to the
    pivots of exactly the rows nonzero there, also in an echelon made from a
    canonical basis, whose index the first insert builds."""
    rng = random.Random(31)
    checked = 0
    for trial in range(150):
        ambient = rng.randrange(1, 12)
        if trial % 3 == 0:
            ech = Subspace.span(ambient, rand_family(rng, ambient)).echelon()
        else:
            ech = Echelon()
        for vec in rand_family(rng, ambient):
            ech.insert(vec)
            if ech._holders is None:
                continue
            rebuilt = {}
            for p, row in ech._rows.items():
                for k in row:
                    rebuilt.setdefault(k, set()).add(p)
            assert {k: ps for k, ps in ech._holders.items() if ps} == rebuilt
            checked += 1
    assert checked > 500


# -- the fused multiply-accumulate kernel --------------------------------------

def reference_axpy_into(u, z, v):
    """u += z*v entry by entry through the QI and ParamPoly operators."""
    for k, x in v.items():
        y = u.get(k)
        if y is None:
            u[k] = x * z
        else:
            t = y + x * z
            if t:
                u[k] = t
            else:
                del u[k]


ints = st.one_of(st.integers(-3, 3), st.integers(-10**20, 10**20))
dens = st.one_of(st.just(1), st.integers(1, 12), st.integers(1, 10**15))


@st.composite
def qis(draw):
    """Real, imaginary and complex Gaussian rationals, d == 1 and d > 1."""
    kind = draw(st.sampled_from(["real", "imaginary", "complex"]))
    d = draw(dens)
    a = 0 if kind == "imaginary" else draw(ints)
    b = 0 if kind == "real" else draw(ints)
    return QI(Fraction(a, d), Fraction(b, d))


nonzero_qis = qis().filter(bool)
polys = st.dictionaries(st.tuples(st.integers(0, 2)), nonzero_qis,
                        min_size=1, max_size=3).map(lambda t: ParamPoly(1, t))


@st.composite
def axpy_cases(draw):
    """(u, z, v): v's keys partly shared with u, some shared entries set to
    cancel, and on some draws ParamPoly values among the QIs of u, v and z."""
    value = st.one_of(nonzero_qis, polys) if draw(st.booleans()) \
        else nonzero_qis
    z = draw(value)
    keys = draw(st.lists(st.integers(0, 9), unique=True, max_size=8))
    v = {k: draw(value) for k in keys}
    u = {}
    for k in draw(st.permutations(range(10)))[:draw(st.integers(0, 10))]:
        if k in v and draw(st.booleans()):
            u[k] = -(v[k] * z)
        else:
            u[k] = draw(value)
    return u, z, v


@settings(max_examples=KERNEL_EXAMPLES, deadline=None, derandomize=True,
          database=None)
@given(case=axpy_cases())
@example(case=({0: ParamPoly(1, {(1,): QI(2)}), 1: QI(3)}, QI(1, 2),
               {1: QI(Fraction(1, 2)), 0: QI(5)}))
def test_axpy_into_matches_entrywise_reference(case):
    u, z, v = case
    want = dict(u)
    reference_axpy_into(want, z, v)
    _axpy_into(u, z, v)
    assert list(u.items()) == list(want.items())


# -- one normalisation per kernel result -----------------------------------------

@st.composite
def lift_cases(draw):
    """(V, op, W): V and W subspaces of Q(i)^n, each
    spanned by sparse vectors with multi-digit entries, some of them
    combinations of earlier ones; op a sparse map Q(i)^n -> Q(i)^m as a
    SpinOp, some columns multiples of earlier ones or absent."""
    n = draw(st.integers(1, 7))

    def family(size):
        vecs = []
        for _ in range(size):
            if vecs and draw(st.booleans()):
                i, j = draw(st.integers(0, len(vecs) - 1)), \
                    draw(st.integers(0, len(vecs) - 1))
                vecs.append(vec_axpy(vecs[i], draw(nonzero_qis), vecs[j]))
            else:
                keys = draw(st.lists(st.integers(0, n - 1), unique=True,
                                     min_size=1, max_size=3))
                vecs.append({k: draw(nonzero_qis) for k in keys})
        return vecs

    V = Subspace.span(n, family(draw(st.integers(1, n + 1))))
    W = Subspace.span(n, family(draw(st.integers(0, n))))
    m = draw(st.integers(1, 6))
    op = {}
    for col in range(n):
        kind = draw(st.sampled_from(["new", "multiple", "absent"]))
        if kind == "multiple" and op:
            src = op[draw(st.sampled_from(sorted(op)))]
            op[col] = vec_scale(src, draw(nonzero_qis))
        elif kind != "absent":
            keys = draw(st.lists(st.integers(0, m - 1), unique=True,
                                 min_size=1, max_size=2))
            op[col] = {k: draw(nonzero_qis) for k in keys}
    return V, op, W


@settings(max_examples=KERNEL_EXAMPLES, deadline=None, derandomize=True,
          database=None)
@given(case=lift_cases())
def test_canonical_lift_paths_match_their_normalised_forms(case):
    """_preimage_in keeps the lift through V's canonical basis as it is;
    Subspace.intersect lifts the reduction's cycles without
    normalising them: each equals the path that normalises once more."""
    V, op, W = case
    basis = V.basis()
    images = [spin_apply(op, b) for b in basis]
    lift = kernel_lift(images, basis)
    got = _preimage_in(V, op)
    want = Subspace.span(V.ambient, lift)
    assert [items(b) for b in got.basis()] == [items(b) for b in want.basis()]

    zeros = [{} for _ in W.basis()]
    assert V.intersect(W) == Subspace.span(V.ambient, kernel_lift(
        basis + W.basis(), basis + zeros))


# -- the ordered column reduction against the tracked echelon ----------------------

@st.composite
def column_sets(draw):
    """(ambient, cols, basis, targets): sparse columns with multi-digit
    entries, many of them zero, multiples or combinations of earlier ones;
    a vector for each column to lift along; and targets, some combinations
    of the columns and some arbitrary (mostly outside their span)."""
    n = draw(st.integers(1, 7))

    def sparse(ambient):
        keys = draw(st.lists(st.integers(0, ambient - 1), unique=True,
                             min_size=1, max_size=3))
        return {k: draw(nonzero_qis) for k in keys}

    def combination(vecs):
        w = {}
        for u in draw(st.lists(st.sampled_from(vecs), min_size=1,
                               max_size=3)):
            _axpy_into(w, draw(nonzero_qis), u)
        return w

    cols = []
    for _ in range(draw(st.integers(1, 9))):
        kind = draw(st.sampled_from(["new", "combination", "zero"]))
        if kind == "combination" and cols:
            cols.append(combination(cols))
        elif kind == "zero":
            cols.append({})
        else:
            cols.append(sparse(n))
    m = draw(st.integers(1, 6))
    basis = [sparse(m) for _ in cols]
    targets = [combination(cols) if draw(st.booleans()) else sparse(n)
               for _ in range(draw(st.integers(1, 4)))]
    return n, cols, basis, targets


@settings(max_examples=KERNEL_EXAMPLES, deadline=None, derandomize=True,
          database=None)
@given(case=column_sets())
def test_reduction_matches_the_tracked_echelon_reference(case):
    """Each dependent column's relation (the cycle of its zero column),
    matrix_kernel, kernel_lift, Subspace.intersect and solve, None outside
    the span included, equal the tracked echelon's, as values: a column has
    a nonzero reduced column exactly when the tracked echelon makes it a new
    row, so both express through the same greedily independent columns."""
    n, cols, basis, targets = case
    lows, cycles = reduce_columns(cols)
    assert cycles == dependent_combos(cols)
    assert matrix_kernel(cols) == tracked_matrix_kernel(cols)
    assert kernel_lift(cols, basis) == tracked_kernel_lift(cols, basis)
    for target in targets + cols:
        assert solve(lows, target) == tracked_solve(cols, target)
    half = len(cols) // 2
    a = Subspace.span(n, cols[:half] + targets[1:])
    b = Subspace.span(n, cols[half:] + targets[:1])
    assert a.intersect(b) == tracked_intersect(a, b)


# half the kernel budget: drawing the shuffles costs more than the kernels
@settings(max_examples=KERNEL_EXAMPLES // 2, deadline=None, derandomize=True,
          database=None)
@given(case=column_sets(), data=st.data())
def test_matrix_kernel_is_the_same_for_shuffled_rows(case, data):
    """matrix_kernel reads the kernel off the fully reduced echelon of the
    map's rows, which no order of inserting them changes: renumbering the
    rows and shuffling each column's entries, which reorders the rows of
    each length, leaves the kernel as it is."""
    n, cols, _, _ = case
    perm = data.draw(st.permutations(range(n)))
    shuffled = [{perm[i]: x for i, x in data.draw(st.permutations(
        list(col.items())))} for col in cols]
    assert matrix_kernel(shuffled) == matrix_kernel(cols)
