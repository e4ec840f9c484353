"""Gradings the engine has replaced, kept as the references that tests
compare against.

`reference_product_grading` is the product of J's blocks as the engine formed
it before it carried each split as its own canonical group: every wedge of
the blocks' bases on disjoint generators, unscaled, collected by total k
from the unit form on, and one span over all of them per U_k.

`reference_spinorial_N` is the table of N as the engine built it before it
precomputed each term's signed coefficient: every hit accumulated through
`linalg._acc`."""

from fractions import Fraction

from gchodge.forms import _generator_tables, blade_wedge_sign
from gchodge.gcs import _grade_block, _spinorial_N
from gchodge.linalg import Subspace, Vec, _acc
from gchodge.scalars import Half, ONE, QI


def reference_spinorial_N(dim, J):
    """N = 1/2 sum_{a,b} J[b][a] g_b g_s(a) - tr(J)/4, column by column."""
    gamma = _generator_tables(dim)
    terms = [(gamma[(a + dim) % (2 * dim)],
              [(gamma[b], J[b][a] * Half) for i in range(dim)
               for b in (i, dim + i) if J[b][a]])
             for a in range(2 * dim)]
    trace = sum((J[a][a] for a in range(2 * dim)), QI(0))
    shift = -trace * QI(Fraction(1, 4))
    N = {}
    for mask in range(1 << dim):
        col: Vec = {}
        for first, second in terms:
            hit = first[mask]
            if hit is None:
                continue
            m1, s1 = hit
            for gb, c in second:
                hit = gb[m1]
                if hit is not None:
                    _acc(col, hit[0], c if s1 * hit[1] > 0 else -c)
        if shift:
            _acc(col, mask, shift)
        if col:
            N[mask] = col
    return N


def _wedge(u: Vec, v: Vec) -> Vec:
    return {a | b: x * y if blade_wedge_sign(a, b) > 0 else -(x * y)
            for a, x in u.items() for b, y in v.items()}


def reference_product_grading(J, dim, blocks):
    """(cls, {k: U_k for k >= 0}) of the product of J's blocks, each block
    graded by the engine's `_grade_block` on the N of `_spinorial_N`, and
    each U_k one span of every unreduced wedge that reaches it."""
    cls, prods, rest = 0, {0: [{0: ONE}]}, dim // 2
    for block in blocks:
        m, nb = len(block), len(block) // 2
        idx = block + [dim + i for i in block]
        masks = [sum(1 << block[j] for j in range(m) if mask >> j & 1)
                 for mask in range(1 << m)]
        Nb = _spinorial_N(m, [[J[r][c] for c in idx] for r in idx])
        cb, upper = _grade_block(
            {masks[a]: {masks[b]: x for b, x in col.items()}
             for a, col in Nb.items()}, nb, masks, 1 << dim)
        cls, rest = cls + cb, rest - nb
        nxt = {}
        for kb in range(-nb, nb + 1):
            basis = (upper[kb] if kb >= 0 else upper[-kb].conj()).basis()
            for k, vecs in prods.items():
                if k + kb + rest >= 0:
                    nxt.setdefault(k + kb, []).extend(
                        _wedge(u, v) for u in vecs for v in basis)
        prods = nxt
    return cls % 2, {k: Subspace.span(1 << dim, prods.get(k, ()))
                     for k in range(dim // 2 + 1)}
