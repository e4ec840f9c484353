"""The algebroid differentials the engine has replaced, kept as the reference
that tests compare against.

`cartan_differential` is `LieAlgebroid.differential` as it was before d_L
came from the generator-table chains of `liemodel.chain_columns`: the Cartan
formula on invariant cochains, with its own sign bookkeeping, summed from
the masks of the cochain.  `split_tables` gives the zero-padded bracket
tables whose Cartan differentials were d_A1 and d_A2 in
`gkaehler.algebroid_split_check`, before those came from a partition of the
bracket entries."""

from gchodge.forms import popcount
from gchodge.liemodel import _mask_indices
from gchodge.linalg import _acc
from gchodge.scalars import QI


def brackets_into(table) -> list[list[tuple[int, int, QI]]]:
    """[m] -> every (i, j, c), i < j, with c the a_m-component of
    [a_i, a_j] nonzero."""
    rank = len(table)
    out: list[list[tuple[int, int, QI]]] = [[] for _ in range(rank)]
    for i in range(rank):
        for j in range(i + 1, rank):
            for m, coeff in enumerate(table[i][j]):
                if coeff:
                    out[m].append((i, j, coeff))
    return out


def cartan_differential(table, c: dict[int, QI]) -> dict[int, QI]:
    """Cartan formula on invariant cochains of the bracket table `table`:
    (dc)(a_0..a_k) = sum_{p<q} (-1)^{p+q} c([a_p,a_q], ..hat p..hat q..),
    summed from the masks of c: the term of mask S at its index m meets
    each pair (i, j) bracketing into a_m at the mask S - m + i + j."""
    into = brackets_into(table)
    out: dict[int, QI] = {}
    for S, cS in c.items():
        for m in _mask_indices(S):
            rest = S & ~(1 << m)
            # c's argument order puts the bracket first: ins transpositions
            ins = popcount(rest & ((1 << m) - 1))
            for i, j, coeff in into[m]:
                pair = (1 << i) | (1 << j)
                if rest & pair:
                    continue
                T = rest | pair
                pq = popcount(T & ((1 << i) - 1)) + popcount(T & ((1 << j) - 1))
                term = coeff * cS
                _acc(out, T, -term if (pq + ins) & 1 else term)
    return out


def split_tables(full, r1: int):
    """(t1, t2): the bracket table of A = A1 + A2, A1 the first r1 basis
    elements, split so that t1 keeps [A1, A1], the A2-components of the
    mixed brackets and nothing of [A2, A2], and t2 the rest; the other
    entries are zero."""
    rank = len(full)
    t1 = [[None] * rank for _ in range(rank)]
    t2 = [[None] * rank for _ in range(rank)]
    zero_row = [QI(0)] * rank
    for i in range(rank):
        for j in range(rank):
            br = full[i][j]
            both1 = i < r1 and j < r1
            both2 = i >= r1 and j >= r1
            if both1:
                t1[i][j] = list(br)
                t2[i][j] = list(zero_row)
            elif both2:
                t1[i][j] = list(zero_row)
                t2[i][j] = list(br)
            else:
                t1[i][j] = [QI(0)] * r1 + list(br[r1:])
                t2[i][j] = list(br[:r1]) + [QI(0)] * (rank - r1)
    return t1, t2
