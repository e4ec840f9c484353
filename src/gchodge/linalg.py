"""Exact linear algebra over Q(i): sparse vectors, canonical subspaces, and
the kernel over the image of an operator.

Vectors are dicts {coordinate index: QI} with zero entries absent.  A Subspace
is stored in fully reduced column-echelon form (pivots ascending, pivot entry
1, pivot coordinate eliminated from every other basis vector), so equal
subspaces have literally identical bases.  Each result is normalised once:
`Subspace.span`, `matrix_kernel` and `kernel_lift` (through a canonical basis)
return canonical bases; `Subspace.intersect` lifts the tracked echelon's
kernel as it comes, since it normalises the meet anyway.

Every kernel over image of an operator (a cohomology) is read off one ordered
column reduction, `ColumnReduction`: its essential cycles represent the
classes, and one pass over a vector gives its class coordinates.

`Echelon`, the one elimination kernel, keys its rows by pivot and keeps an
index of the rows holding each coordinate: a reduction visits only the
pivots among the vector's own coordinates, and an insert back-substitutes
only into the rows that hold its new pivot, so the work follows the nonzeros
met, not the rank.

Every sparse accumulation `u += z*v` (reductions, back-substitution, lifts,
the Mukai rows) runs through one fused kernel, `_axpy_into`, which forms
each Q(i) entry on its integer triple and normalizes it once.
"""

from __future__ import annotations

from bisect import insort
from collections import defaultdict
from functools import cached_property
from math import gcd

from .errors import DimensionMismatch, EngineError
from .scalars import ONE, QI, _new, _qi

Vec = dict[int, QI]


# -- sparse vector helpers ----------------------------------------------------

def vec_add(u: Vec, v: Vec) -> Vec:
    out = dict(u)
    _axpy_into(out, ONE, v)
    return out

def vec_scale(v: Vec, z: QI) -> Vec:
    if not z:
        return {}
    return {k: x * z for k, x in v.items()}

def vec_axpy(u: Vec, z: QI, v: Vec) -> Vec:
    """u + z*v without building an intermediate."""
    out = dict(u)
    if z:
        _axpy_into(out, z, v)
    return out

def _axpy_into(u: Vec, z: QI, v: Vec) -> None:
    """u += z*v in place, for a nonzero z; keys end in vec_axpy's order.

    The one multiply-accumulate kernel.  Where z, x = v[k] and u[k] are all
    QI, x*z + u[k] is formed on the (a, b, d) triples and normalized once;
    any other value (a ParamPoly) goes through its ring operators."""
    if type(z) is not QI:
        for k, x in v.items():
            _acc(u, k, x * z)
        return
    za, zb, zd = z._a, z._b, z._d
    get = u.get
    for k, x in v.items():
        y = get(k)
        if type(x) is not QI or (y is not None and type(y) is not QI):
            _acc(u, k, x * z)
            continue
        c, e, d = x._a, x._b, x._d * zd
        if not zb:
            a, b = c * za, e * za
        elif not e:
            a, b = c * za, c * zb
        else:
            a, b = c * za - e * zb, c * zb + e * za
        if y is not None:
            f = y._d
            if d == f:
                a += y._a
                b += y._b
            else:
                a, b, d = a * f + y._a * d, b * f + y._b * d, d * f
            if not a and not b:
                del u[k]
                continue
        if d != 1:
            g = gcd(a, b, d)
            if g != 1:
                a //= g
                b //= g
                d //= g
        t = _new(QI)
        t._a = a
        t._b = b
        t._d = d
        u[k] = t

def _acc(d: Vec, k: int, v: QI) -> None:
    """d[k] += v in place, dropping the key when the sum is zero."""
    w = d.get(k)
    t = v if w is None else w + v
    if t:
        d[k] = t
    elif w is not None:
        del d[k]

def vec_conj(v: Vec) -> Vec:
    return {k: x.conj() for k, x in v.items()}

def vec_pivot(v: Vec) -> int:
    return min(v)


# -- reduced echelon accumulator ---------------------------------------------

class Echelon:
    """Incremental fully reduced echelon basis with optional combination
    tracking.

    Rows are keyed by pivot: each row is 1 at its pivot and zero at every
    other pivot.  Reducing a vector is therefore one pass over the pivots
    among its own coordinates, in ascending order, each subtracting its row
    with the vector's original coefficient there.  A holder index maps each
    coordinate to the pivots of the rows nonzero at it, so an insert
    back-substitutes its new pivot into exactly the rows that hold it.  The
    rows are sorted by pivot only when they are read (`basis`).

    Tracked mode records, for every stored row, the coefficients expressing it
    in terms of the inserted vectors (by insertion tag), which yields kernels
    and coordinate solves.
    """

    def __init__(self, track: bool = False):
        # pivot -> (vec, combo); coordinate -> pivots of the rows nonzero there
        self._rows: dict[int, tuple[Vec, Vec | None]] = {}
        self._holders: dict[int, set[int]] | None = defaultdict(set)
        self.track = track
        self._n_inserted = 0

    @classmethod
    def of_basis(cls, basis: list[Vec]) -> "Echelon":
        """Untracked echelon whose rows are `basis`, which must already be in
        fully reduced form (a Subspace basis): inserting it would leave every
        row unchanged.  The holder index is built by the first insert, since
        most such echelons only reduce."""
        ech = cls()
        ech._rows = {vec_pivot(v): (v, None) for v in basis}
        ech._holders = None
        return ech

    @classmethod
    def of_columns(cls, cols: list[Vec]) -> "Echelon":
        """Tracked echelon of `cols`, tagged by position, for `solve`."""
        ech = cls(track=True)
        for j, v in enumerate(cols):
            ech.insert(v, tag=j)
        return ech

    def dim(self) -> int:
        return len(self._rows)

    def _reduce(self, v: Vec, combo: Vec | None,
                used: Vec | None = None) -> Vec:
        """The residual of v, reducing combo in place alongside; `used`, when
        given, receives the coefficient of each row in v by ascending pivot,
        which is v's own entry there."""
        rows = self._rows
        pivots = [k for k in v if k in rows]
        pivots.sort()
        v = dict(v)
        for p in pivots:
            c = v[p]
            if used is not None:
                used[p] = c
            row, rc = rows[p]
            c = _qi(-c._a, -c._b, c._d)
            _axpy_into(v, c, row)
            if combo is not None:
                _axpy_into(combo, c, rc)
        return v

    def insert(self, v: Vec, tag: int | None = None):
        """Insert v; returns (residual, combo) after reduction.

        Residual empty means v was dependent; combo (tracked mode) expresses
        the residual as inserted[tags] coefficients, including tag itself.
        """
        if tag is None:
            tag = self._n_inserted
        self._n_inserted += 1
        combo = {tag: ONE} if self.track else None
        v = self._reduce(v, combo)
        if not v:
            return {}, combo
        piv = vec_pivot(v)
        c = v[piv]
        if c._b or c._a != c._d:    # c != 1 in normal form
            inv = c.inv()
            v = vec_scale(v, inv)
            if combo is not None:
                combo = vec_scale(combo, inv)
        holders = self._holders
        if holders is None:
            holders = self._holders = defaultdict(set)
            for p, (row, _rc) in self._rows.items():
                for k in row:
                    holders[k].add(p)
        # back-substitute into the rows that hold piv, keeping the basis fully
        # reduced; only the coordinates of v change in them (as vec_axpy
        # would, on a copy: a row may be a Subspace's basis vector)
        for p in holders.pop(piv, ()):
            row, rc = self._rows[p]
            nx = row[piv]
            nx = _qi(-nx._a, -nx._b, nx._d)
            row = dict(row)
            _axpy_into(row, nx, v)
            for k in v:
                if k in row:
                    holders[k].add(p)
                else:
                    holders[k].discard(p)
            if rc is not None:
                rc = vec_axpy(rc, nx, combo)
            self._rows[p] = (row, rc)
        self._rows[piv] = (v, combo)
        for k in v:
            holders[k].add(piv)
        return v, combo

    def reduce(self, v: Vec) -> tuple[Vec, Vec]:
        """Reduce v without inserting; returns (residual, row-coefficients).

        The second entry maps the pivot of each basis row to the coefficient
        with which that row occurs in v - residual.
        """
        used: Vec = {}
        return self._reduce(v, None, used), used

    def solve(self, v: Vec) -> Vec | None:
        """Tracked mode: coefficients x, by insertion tag, with
        sum x_t inserted[t] = v, or None when v leaves the span."""
        r, used = self.reduce(v)
        if r:
            return None
        out: Vec = {}
        for p, c in used.items():
            _axpy_into(out, c, self._rows[p][1])
        return out

    def contains(self, v: Vec) -> bool:
        r, _ = self.reduce(v)
        return not r

    def basis(self) -> list[Vec]:
        return [self._rows[p][0] for p in sorted(self._rows)]


# -- subspaces ---------------------------------------------------------------

class Subspace:
    """Canonical column space inside Q(i)^ambient."""

    __slots__ = ("ambient", "_basis")

    def __init__(self, ambient: int, basis: list[Vec]):
        self.ambient = ambient
        self._basis = basis  # already canonical; use span() from outside

    @classmethod
    def span(cls, ambient: int, vecs) -> "Subspace":
        ech = Echelon()
        for v in vecs:
            ech.insert(v)
        return cls(ambient, ech.basis())

    @classmethod
    def zero(cls, ambient: int) -> "Subspace":
        return cls(ambient, [])

    @classmethod
    def full(cls, ambient: int) -> "Subspace":
        return cls(ambient, [{k: ONE} for k in range(ambient)])

    @property
    def dim(self) -> int:
        return len(self._basis)

    def basis(self) -> list[Vec]:
        return [dict(v) for v in self._basis]

    def _check(self, other: "Subspace"):
        if self.ambient != other.ambient:
            raise DimensionMismatch(
                f"ambient dims differ: {self.ambient} vs {other.ambient}")

    def echelon(self) -> Echelon:
        return Echelon.of_basis(self._basis)

    def contains(self, v: Vec) -> bool:
        return self.echelon().contains(v)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Subspace):
            return NotImplemented
        return self.ambient == other.ambient and self._basis == other._basis

    def __hash__(self):
        return hash((self.ambient, tuple(frozenset(v.items()) for v in self._basis)))

    def intersect(self, other: "Subspace") -> "Subspace":
        self._check(other)
        # each kernel vector (x, y) of (x, y) -> sum x_j a_j + sum y_k b_k
        # gives the meet vector sum x_j a_j: the kernel lifted along (a, 0),
        # the tracked echelon's as it comes, since span normalises it
        zeros = [{} for _ in other._basis]
        return Subspace.span(self.ambient, _lift(
            _dependent_combos(self._basis + other._basis),
            self._basis + zeros))

    def conj(self) -> "Subspace":
        """Entrywise conjugation keeps pivots and pivot entries 1 and zeros
        at the other pivots, so the conjugate basis is already canonical."""
        return Subspace(self.ambient, [vec_conj(v) for v in self._basis])


def _dependent_combos(cols: list[Vec]) -> list[Vec]:
    """A kernel basis of the map sending the j-th unit vector to cols[j]: the
    tracked echelon's combination of each dependent column, not canonical."""
    ech = Echelon(track=True)
    combos = []
    for j, v in enumerate(cols):
        r, combo = ech.insert(v, tag=j)
        if not r:
            combos.append(combo)
    return combos


def matrix_kernel(cols: list[Vec]) -> list[Vec]:
    """Kernel of the map sending the j-th unit vector to cols[j].

    Returns canonical coefficient vectors (dicts over column indices).
    """
    return Subspace.span(len(cols), _dependent_combos(cols))._basis


def kernel_lift(images: list[Vec], basis: list[Vec]) -> list[Vec]:
    """Kernel of the map sending basis[j] to images[j], as combinations of
    the basis vectors, one per canonical kernel vector of the images.
    Canonical through a canonical basis: a lifted vector's pivot is its
    combination's leading basis vector's, so pivots ascend, and it is 1
    there and 0 at the other lifted pivots, as the combinations are."""
    return _lift(matrix_kernel(images), basis)


def _lift(combos: list[Vec], basis: list[Vec]) -> list[Vec]:
    """sum_j combo[j] basis[j] for each combination."""
    out = []
    for combo in combos:
        v: Vec = {}
        for j, c in combo.items():
            _axpy_into(v, c, basis[j])
        out.append(v)
    return out


def solve_columns(cols: list[Vec], target: Vec) -> Vec | None:
    """Coefficients x with sum x_j cols[j] = target, or None."""
    return Echelon.of_columns(cols).solve(target)


# -- kernel over image by one ordered column reduction ---------------------------

class ColumnReduction:
    """The ordered column reduction R = D V of an operator D, from which its
    kernel over its image is read (Edelsbrunner, Letscher and Zomorodian
    2002; Zomorodian and Carlsson 2005).

    D's columns are numbered by `order`, a list of coordinate labels: cols[c]
    is the column of label order[c], keyed by labels, and groups[c] the
    group of that label (a degree, a parity, a block of a grading).  Each
    column in turn is reduced by earlier ones until its low, its largest
    nonzero number, is the low of no earlier column, and the column
    operations are kept in V.  `lows` maps each low to (R_c, V_c) and
    `cycles` each zero column c of R to V_c, in numbers, each scaled to 1 at
    the low or at c; V_c is zero past c and R_c past its low, so both lie in
    every prefix of the numbering that holds c, or the low.

    When D maps each label only to labels numbered before it (d by
    descending degree) and D^2 = 0, every low is a zero column, and the V_e
    of the other zero columns e, the essential cycles, represent a basis of
    ker D / im D: `classes[g]` lists those of group g by descending number,
    and class coordinates run over the groups in ascending order and within
    each along that list.  Nothing past the reduction is formed before it is
    read, so a reduction in another order can share the object for its
    lows and cycles alone.
    """

    def __init__(self, order: list, cols: list[Vec], groups: list):
        self.order = order
        self.groups = groups
        self.number = number = {b: c for c, b in enumerate(order)}
        lows: dict[int, tuple[Vec, Vec]] = {}
        cycles: dict[int, Vec] = {}
        for c, col in enumerate(cols):
            col = {number[b]: x for b, x in col.items()}
            ops: Vec = {c: ONE}
            while col:
                low = max(col)
                piv = lows.get(low)
                if piv is None:
                    inv = col[low].inv()
                    lows[low] = (vec_scale(col, inv), vec_scale(ops, inv))
                    break
                x = -col[low]
                _axpy_into(col, x, piv[0])
                _axpy_into(ops, x, piv[1])
            else:
                cycles[c] = ops
        self.lows = lows
        self.cycles = cycles

    @cached_property
    def classes(self) -> dict:
        """group -> the numbers of its essential cycles, descending; every
        group of a label is present.  Raises EngineError when a low is no
        zero column, as only a D with D^2 = 0 in a triangular order
        ensures."""
        if not self.lows.keys() <= self.cycles.keys():
            raise EngineError("a low of the column reduction is no zero column")
        out: dict = {g: [] for g in sorted(set(self.groups))}
        for e in sorted(self.cycles, reverse=True):
            if e not in self.lows:
                out[self.groups[e]].append(e)
        return out

    @cached_property
    def _position(self) -> dict[int, int]:
        """essential number -> its class coordinate over all groups."""
        return {e: i for i, e in enumerate(
            e for es in self.classes.values() for e in es)}

    def dim(self, g) -> int:
        return len(self.classes.get(g, ()))

    def reps(self, g) -> list[Vec]:
        """The essential cycles of group g keyed by labels, in coordinate
        order: representatives of a basis of its classes."""
        order = self.order
        return [{order[f]: x for f, x in self.cycles[e].items()}
                for e in self.classes.get(g, ())]

    def coords(self, v: Vec, g=None) -> Vec | None:
        """Class coordinates of v, keyed by labels: its largest number is
        cleared in turn by the essential cycle or the R column with that
        leading number, as each is 1 there and zero past it.  None when v is
        not closed; with a group g, also when v has a part outside g, and
        the coordinates are those within g."""
        number, groups, lows = self.number, self.groups, self.lows
        position = self._position
        x = {number[b]: c for b, c in v.items()}
        pending = sorted(x)         # numbers to clear, the largest last
        out: Vec = {}
        while pending:
            e = pending.pop()
            c = x.get(e)
            if c is None:
                continue
            if g is not None and groups[e] != g:
                return None
            i = position.get(e)
            if i is not None:
                out[i] = c
                vec = self.cycles[e]
            elif e in lows:
                vec = lows[e][0]
            else:
                return None
            _axpy_into(x, -c, vec)
            for f in vec:
                if f in x:
                    insort(pending, f)
        if g is None or not out:
            return out
        start = position[self.classes[g][0]]
        return {i - start: c for i, c in out.items()}


# -- dense matrices (small, over QI) -----------------------------------------

Matrix = list[list[QI]]


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    n, k, m = len(a), len(b), len(b[0])
    out = [[QI(0)] * m for _ in range(n)]
    for i in range(n):
        ai = a[i]
        oi = out[i]
        for t in range(k):
            c = ai[t]
            if not c:
                continue
            bt = b[t]
            for j in range(m):
                if bt[j]:
                    oi[j] = oi[j] + c * bt[j]
    return out

def mat_add(a: Matrix, b: Matrix) -> Matrix:
    return [[x + y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]

def mat_inv(a: Matrix) -> Matrix:
    """Gauss-Jordan inverse; raises ZeroDivisionError if singular."""
    n = len(a)
    work = [list(row) + [QI(1) if i == j else QI(0) for j in range(n)]
            for i, row in enumerate(a)]
    for col in range(n):
        piv = next((r for r in range(col, n) if work[r][col]), None)
        if piv is None:
            raise ZeroDivisionError("singular matrix")
        work[col], work[piv] = work[piv], work[col]
        inv = work[col][col].inv()
        work[col] = [x * inv for x in work[col]]
        for r in range(n):
            if r != col and work[r][col]:
                c = work[r][col]
                work[r] = [x - c * y for x, y in zip(work[r], work[col])]
    return [row[n:] for row in work]


def mat_det(a: Matrix) -> QI:
    n = len(a)
    work = [list(row) for row in a]
    det = QI(1)
    for col in range(n):
        piv = next((r for r in range(col, n) if work[r][col]), None)
        if piv is None:
            return QI(0)
        if piv != col:
            work[col], work[piv] = work[piv], work[col]
            det = -det
        det = det * work[col][col]
        inv = work[col][col].inv()
        for r in range(col + 1, n):
            if work[r][col]:
                c = work[r][col] * inv
                work[r] = [x - c * y for x, y in zip(work[r], work[col])]
    return det
