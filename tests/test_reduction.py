"""Every kernel over image the engine reads off one ordered column reduction
(`linalg.ColumnReduction`), against two references that share no code with
that reduction:

- the subspace pipelines it replaced (`reference_*`): per degree, the
  kernel lifted through the degree's basis and a joint echelon of cycles
  and boundaries (`QuotientSpace`), for the twisted, de Rham, delbar,
  algebroid and bigraded cohomology, the Hodge filtration F^p and the
  classes of the closed forms of a subspace;
- a rank oracle over the prime field F_p, p = 998244353, with i sent to a
  square root of -1 there: dim H = dim C - rank(D out of C) - rank(D into
  C), each rank by its own elimination, which shares no code with
  `Echelon`.  A rank over F_p is at most the rank over Q(i), and equal
  unless p divides the denominators or minors involved, which for these
  small models it does not.

The comparisons run on the corpus, the two scale8 models of the benchmark
and three seeds of its dense6 models; tests/test_dim10.py runs them on the
dim-10 and dim-12 models with GCHODGE_DIM10=1."""

import random

import pytest

from gchodge.cohomology import (_preimage_in, closed_classes, delbar_coords,
                                delbar_dims, filtration_subspace,
                                invariant_derham, twisted_cohomology)
from gchodge.errors import EngineError
from gchodge.forms import popcount, spin_apply
from gchodge.gkaehler import BIDEGREES, bigraded_cohomology, gk_validate
from gchodge.linalg import ColumnReduction, Subspace, kernel_lift, vec_axpy
from gchodge.modelfile import build_structure, parse_model
from gchodge.scalars import ONE, QI

from reference_linalg import QuotientSpace
from test_cohomology import (DENSE6_BASES, closed_classes_block,
                             reference_chain_subspace)
from test_gcs import (CORPUS, SCALE8, corpus_structures, dense_model_text,
                      structures_of)

DENSE6_SEEDS = (0, 7, 31)


# -- the subspace pipelines --------------------------------------------------

def reference_quotient(ambient, basis, images, boundaries):
    """ker/im at one spot of a complex, as the engine computed it before one
    reduction replaced it: the cycles are the combinations of `basis` whose
    `images` cancel, and zero boundaries are skipped."""
    return QuotientSpace(ambient, kernel_lift(images, basis),
                         [b for b in boundaries if b])


def reference_blade_dims(dim, table, group, before):
    """{g: dim} of the cohomology of a blade operator at each group of
    blades (a degree, a parity), group g receiving the operator from group
    before(g)."""
    N = 1 << dim
    blades = {}
    for b in range(N):
        blades.setdefault(group(b), []).append(b)
    return {g: reference_quotient(
        N, [{b: ONE} for b in bs], [table.get(b, {}) for b in bs],
        [table.get(b, {}) for b in blades.get(before(g), ())]).dim
        for g, bs in blades.items()}


def reference_twisted_dims(m):
    dims = reference_blade_dims(m.dim, m.dH_table, lambda b: popcount(b) & 1,
                                lambda q: 1 - q)
    return dims[0], dims[1]


def reference_betti(m):
    dims = reference_blade_dims(m.dim, m.d_table, popcount, lambda k: k - 1)
    return [dims[k] for k in range(m.dim + 1)]


def reference_algebroid_dims(L):
    table = {b: L.differential({b: ONE}) for b in range(1 << L.rank)}
    dims = reference_blade_dims(L.rank, table, popcount, lambda k: k - 1)
    return [dims[k] for k in range(L.rank + 1)]


def reference_graded_dims(blocks, op, before, ambient):
    """{j: dim} of the cohomology of op on the blocks of a grading, block j
    (a Subspace) receiving op from block before(j)."""
    out = {}
    for j, block in blocks.items():
        basis = block.basis()
        prev = blocks.get(before(j), Subspace.zero(ambient)).basis()
        out[j] = reference_quotient(
            ambient, basis, [spin_apply(op, v) for v in basis],
            [spin_apply(op, v) for v in prev]).dim
    return out


def reference_delbar_dims(s):
    N = 1 << s.model.dim
    return reference_graded_dims(
        {k: s.U_subspace(k) for k in range(-s.n, s.n + 1)}, s.dH_parts[1],
        lambda k: k - 1, N)


def reference_bigraded_dims(pair):
    N = 1 << pair.model.dim
    return reference_graded_dims(
        {rs: pair.U2[rs] for rs in pair.U2_dims},
        pair.dH_parts[BIDEGREES["delbar+"]],
        lambda rs: (rs[0] - 1, rs[1] - 1), N)


def exact_forms(m):
    N = 1 << m.dim
    return [col for col in (m.dH_table.get(b, {}) for b in range(N)) if col]


def reference_class_dim(s, V):
    """dim of the classes of the d_H-closed forms in V: the closed forms
    and all exact forms, less the exact ones."""
    m = s.model
    return QuotientSpace(1 << m.dim, _preimage_in(V, m.dH_table).basis(),
                         exact_forms(m)).dim


def reference_filtration_dims(s):
    """{p: dim F^p H}: the classes of the closed forms of the U_{<=p}
    chain."""
    return {p: reference_class_dim(s, reference_chain_subspace(s, p))
            for p in range(-s.n - 2, s.n + 3)}


def assert_dims_match_reference(name, s):
    """Every dimension the reductions report for a structure, its model and
    its algebroid, against the subspace pipelines."""
    m = s.model
    tw = twisted_cohomology(m)
    assert (tw.dim_even, tw.dim_odd) == reference_twisted_dims(m), name
    derham = invariant_derham(m)
    assert [derham.dim(k) for k in range(m.dim + 1)] \
        == reference_betti(m), name
    assert delbar_dims(s) == reference_delbar_dims(s), name
    L = s.L.cohomology()
    assert [L.dim(k) for k in range(s.L.rank + 1)] \
        == reference_algebroid_dims(s.L), name
    assert {p: filtration_subspace(s, p).dim
            for p in range(-s.n - 2, s.n + 3)} \
        == reference_filtration_dims(s), name
    for k in range(-s.n, s.n + 1):
        U = s.U_subspace(k)
        want = reference_class_dim(s, U)
        assert closed_classes(s, U).dim == want, (name, k)
        assert closed_classes_block(
            m, U, (k + s.n + s.parity) % 2).dim == want, (name, k)


# -- the rank oracle over F_p ---------------------------------------------------

P = 998244353
I_P = pow(3, (P - 1) // 4, P)      # 3 generates F_p^*, so I_P^2 = -1


def mod_p(x: QI) -> int:
    re, im = x.re, x.im
    return (re.numerator * pow(re.denominator, -1, P)
            + I_P * im.numerator * pow(im.denominator, -1, P)) % P


def rank_p(vecs) -> int:
    """The rank over F_p of sparse Q(i) vectors: each is reduced by the
    stored rows at its smallest coordinate until it is zero or starts a
    row of its own."""
    rows = {}
    for v in vecs:
        w = {k: mod_p(x) for k, x in v.items()}
        w = {k: x for k, x in w.items() if x}
        while w:
            lead = min(w)
            row = rows.get(lead)
            if row is None:
                rows[lead] = w
                break
            c = w[lead] * pow(row[lead], -1, P)
            for k, x in row.items():
                y = (w.get(k, 0) - c * x) % P
                if y:
                    w[k] = y
                else:
                    w.pop(k, None)
    return len(rows)


def oracle_complex_dims(blocks, op, after):
    """{j: dim H_j} of op on the blocks of a grading, blocks[j] the vectors
    of a basis of block j, which op maps into block after(j)."""
    ranks = {j: rank_p([spin_apply(op, v) for v in vecs])
             for j, vecs in blocks.items()}
    into = {j: 0 for j in blocks}
    for j in blocks:
        if after(j) in into:
            into[after(j)] += ranks[j]
    return {j: len(vecs) - ranks[j] - into[j] for j, vecs in blocks.items()}


def oracle_blade_dims(rank, table, group, after):
    blocks = {}
    for b in range(1 << rank):
        blocks.setdefault(group(b), []).append({b: ONE})
    return oracle_complex_dims(blocks, table, after)


def assert_dims_match_oracle(name, s):
    m = s.model
    tw = twisted_cohomology(m)
    by_parity = oracle_blade_dims(m.dim, m.dH_table,
                                  lambda b: popcount(b) & 1, lambda q: 1 - q)
    assert (tw.dim_even, tw.dim_odd) == (by_parity[0], by_parity[1]), name
    derham = invariant_derham(m)
    betti = oracle_blade_dims(m.dim, m.d_table, popcount, lambda k: k + 1)
    assert {k: derham.dim(k) for k in betti} == betti, name
    assert delbar_dims(s) == oracle_complex_dims(
        {k: s.U_subspace(k).basis() for k in range(-s.n, s.n + 1)},
        s.dH_parts[1], lambda k: k + 1), name
    L = s.L
    table = {b: L.differential({b: ONE}) for b in range(1 << L.rank)}
    want = oracle_blade_dims(L.rank, table, popcount, lambda k: k + 1)
    assert {k: L.cohomology().dim(k) for k in want} == want, name


def assert_bigraded_dims_match(name, pair):
    dims = bigraded_cohomology(pair).dims
    assert dims == reference_bigraded_dims(pair), name
    assert dims == oracle_complex_dims(
        {rs: pair.U2[rs].basis() for rs in pair.U2_dims},
        pair.dH_parts[BIDEGREES["delbar+"]],
        lambda rs: (rs[0] + 1, rs[1] + 1)), name


# -- the structures -----------------------------------------------------------------

def scale8_structures():
    return [st for name, text in SCALE8.items()
            for st in structures_of(text, name)]


def dense6_structures():
    return [st for seed in DENSE6_SEEDS for name in DENSE6_BASES
            for st in structures_of(dense_model_text(name, seed),
                                    f"dense-{name}-{seed}")]


def corpus_pairs():
    """(file:block, pair) for every generalized Kaehler pair of the corpus
    that validates."""
    for path in sorted(CORPUS.glob("*.gcm")):
        mf = parse_model(path.read_text())
        model = mf.model(name=path.stem)
        if not model.validate().ok:
            continue
        blocks = {b.name: b for b in mf.blocks}
        for b in mf.blocks:
            if b.kind != "gk" or "first" not in b.data:
                continue
            try:
                pair = gk_validate(*(
                    build_structure(mf, blocks[b.data[key][0].strip()], model)
                    for key in ("first", "second")))
            except (EngineError, KeyError):
                continue
            yield f"{path.stem}:{b.name}", pair


def test_dims_match_the_subspace_pipelines():
    structures = [*corpus_structures(), *scale8_structures(),
                  *dense6_structures()]
    for name, s in structures:
        assert_dims_match_reference(name, s)
    assert len(structures) == 28


def test_dims_match_the_rank_oracle_mod_p():
    structures = [*corpus_structures(), *scale8_structures()]
    for name, s in structures:
        assert_dims_match_oracle(name, s)
    assert len(structures) == 19


def test_bigraded_dims_match_both_references():
    pairs = list(corpus_pairs())
    for name, pair in pairs:
        assert_bigraded_dims_match(name, pair)
    assert [name for name, _pair in pairs] == [
        "flat4-kahler:pair", "torus4-kahler:pair", "torus6-kahler:pair"]


def test_the_oracle_sees_a_rank_drop():
    # the oracle tells dependent vectors from independent ones, with i sent
    # to a square root of -1
    assert rank_p([{0: ONE, 1: QI(2)}, {0: QI(3), 1: QI(6)}]) == 1
    assert rank_p([{0: ONE, 1: QI(2)}, {0: QI(3), 1: QI(7)}]) == 2
    assert rank_p([{0: ONE, 1: QI(0, 1)}, {0: QI(0, 1), 1: QI(-1)}]) == 1
    assert mod_p(QI(0, 1)) ** 2 % P == P - 1


# -- the reduction on random complexes ------------------------------------------

def random_complex(rng, size):
    """(order, labelled columns, groups, columns, pairs): a triangular
    operator D with D^2 = 0 on `size` coordinates, D = T D0 T^-1 for D0
    sending each column c of a random set of pairs (low, c), low < c, to
    its low and T upper triangular with a unit diagonal, so D maps each
    coordinate only to earlier ones.  The labels are strings, so nothing
    relies on them being numbers, and the groups are drawn at random, as
    the reduction reads only the group of a class's leading label."""
    free = list(range(size))
    rng.shuffle(free)
    pairs = []
    while len(free) >= 2 and rng.random() < 0.7:
        a, b = sorted((free.pop(), free.pop()))
        pairs.append((a, b))
    coeffs = [QI(c) for c in (1, -1, 2, -3)] + [QI(1, 1), QI(0, 1)]

    def upper(i):
        """column i of T (or of its inverse), a unit at i."""
        return {i: ONE, **{j: rng.choice(coeffs) for j in range(i)
                           if rng.random() < 0.3}}

    T = [upper(i) for i in range(size)]
    # T^-1 column by column: solve T x = e_c by back substitution
    Tinv = []
    for c in range(size):
        x = {}
        r = {c: ONE}
        for i in range(size - 1, -1, -1):
            if i in r:
                x[i] = r[i]
                r = vec_axpy(r, -r[i], T[i])
        Tinv.append(x)
    D0 = {c: {low: ONE} for low, c in pairs}

    def apply(M, v):
        out = {}
        for j, c in v.items():
            out = vec_axpy(out, c, M[j] if isinstance(M, list)
                           else M.get(j, {}))
        return out

    cols = [apply(T, apply(D0, Tinv[c])) for c in range(size)]
    order = [f"b{c}" for c in range(size)]
    named = [{f"b{r}": x for r, x in col.items()} for col in cols]
    groups = [rng.randrange(2) for _ in range(size)]
    return order, named, groups, cols, pairs


@pytest.mark.parametrize("seed", range(40))
def test_reduction_matches_the_quotient_on_random_complexes(seed):
    rng = random.Random(seed)
    size = rng.randrange(1, 12)
    order, named, groups, cols, pairs = random_complex(rng, size)
    red = ColumnReduction(order, named, groups)
    cycles = kernel_lift(cols, [{c: ONE} for c in range(size)])
    q = QuotientSpace(size, cycles, [v for v in cols if v])
    assert q.dim == size - 2 * len(pairs)
    assert red.dim(0) + red.dim(1) == q.dim
    assert red.dim(2) == 0 and red.reps(2) == []
    reps = red.reps(0) + red.reps(1)

    def numbered(v):
        return {int(b[1:]): x for b, x in v.items()}

    def named_vec(v):
        return {f"b{c}": x for c, x in v.items()}

    # each representative is closed, and its class is its own unit vector
    for i, r in enumerate(reps):
        image = {}
        for c, x in numbered(r).items():
            image = vec_axpy(image, x, cols[c])
        assert image == {}
        assert red.coords(r) == {i: ONE}
    # the classes of the representatives are a basis of the quotient
    assert Subspace.span(max(q.dim, 1), [q.coords(numbered(r))
                                         for r in reps]).dim == q.dim
    # coordinates are linear, zero on boundaries, None off the cycles
    probes = [*cycles, *cols, *({c: ONE} for c in range(size))]
    for v in probes:
        got, want = red.coords(named_vec(v)), q.coords(v)
        assert (got is None) == (want is None)
        if want is not None:
            rebuilt = {}
            for i, x in got.items():
                rebuilt = vec_axpy(rebuilt, x, numbered(reps[i]))
            assert q.coords(vec_axpy(v, QI(-1), rebuilt)) == {}
    # with a group, a vector of the other group has no coordinates there
    for g in (0, 1):
        for i, r in enumerate(red.reps(g)):
            assert red.coords(r, g) == {i: ONE}
            assert red.coords(r, 1 - g) is None


def test_delbar_coords_reject_a_vector_outside_U_k():
    # delbar vanishes on U_n, so its vectors are closed; U_{n-1}'s lie
    # outside U_n
    for name, s in corpus_structures():
        n = s.n
        top = s.U_subspace(n).basis()
        assert [delbar_coords(s, n, v) is not None for v in top] \
            == [True] * len(top), name
        assert Subspace.span(max(delbar_dims(s)[n], 1), [
            delbar_coords(s, n, v) for v in top]).dim == delbar_dims(s)[n]
        for v in s.U_subspace(n - 1).basis():
            assert delbar_coords(s, n, v) is None, name
