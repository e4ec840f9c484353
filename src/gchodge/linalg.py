"""Exact linear algebra over Q(i): sparse vectors, canonical subspaces, quotients.

Vectors are dicts {coordinate index: QI} with zero entries absent.  A Subspace
is stored in fully reduced column-echelon form (pivots ascending, pivot entry
1, pivot coordinate eliminated from every other basis vector), so equal
subspaces have literally identical bases.  Each result is normalised once:
`Subspace.span`, `matrix_kernel` and `kernel_lift` (through a canonical basis)
return canonical bases; `kernel_lift(..., canonical=False)` returns the
tracked echelon's kernel as it comes, for a caller that normalises it anyway
(`Subspace.intersect`, `QuotientSpace.of_map`).

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

from collections import defaultdict
from math import gcd

from .errors import DimensionMismatch
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
    rows are sorted by pivot only when they are read (`rows`, `basis`).

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

    @property
    def rows(self) -> list[tuple[int, Vec, Vec | None]]:
        """(pivot, vec, combo) for every row, by ascending pivot."""
        return [(p, *self._rows[p]) for p in sorted(self._rows)]

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
        # gives the meet vector sum x_j a_j: the kernel lifted along (a, 0)
        zeros = [{} for _ in other._basis]
        return Subspace.span(self.ambient, kernel_lift(
            self._basis + other._basis, self._basis + zeros, canonical=False))

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


def kernel_lift(images: list[Vec], basis: list[Vec], *,
                canonical: bool = True) -> list[Vec]:
    """Kernel of the map sending basis[j] to images[j], as combinations of
    the basis vectors, one per canonical kernel vector of the images (with
    canonical=False, one per dependent combination of the tracked echelon,
    for a caller that normalises the result).  Canonical through a canonical
    basis: a lifted vector's pivot is its combination's leading basis
    vector's, so pivots ascend, and it is 1 there and 0 at the other lifted
    pivots, as the combinations are."""
    out = []
    for combo in (matrix_kernel(images) if canonical
                  else _dependent_combos(images)):
        v: Vec = {}
        for j, c in combo.items():
            _axpy_into(v, c, basis[j])
        out.append(v)
    return out


def solve_columns(cols: list[Vec], target: Vec) -> Vec | None:
    """Coefficients x with sum x_j cols[j] = target, or None."""
    return Echelon.of_columns(cols).solve(target)


class QuotientSpace:
    """Exact quotient cycles/boundaries with canonical representatives.

    In the fully reduced joint echelon the rows at non-boundary pivots have
    zero entries at every boundary pivot, so they form a canonical complement
    of the boundaries; reducing a vector against the boundary echelon alone
    strips its boundary part exactly, and rep coefficients sit at rep pivots.
    """

    def __init__(self, ambient: int, cycles: list[Vec], boundaries: list[Vec]):
        self.ambient = ambient
        self._bound = Echelon()
        for b in boundaries:
            self._bound.insert(b)
        full = Echelon.of_basis(self._bound.basis())
        for z in cycles:
            full.insert(z)
        self.reps: list[Vec] = []
        self._rep_index: dict[int, int] = {}   # rep pivot -> position in reps
        for p, row, _c in full.rows:
            if p not in self._bound._rows:
                self._rep_index[p] = len(self.reps)
                self.reps.append(row)

    @classmethod
    def of_map(cls, ambient: int, basis: list[Vec], images: list[Vec],
               boundaries) -> "QuotientSpace":
        """ker/im at one spot of a complex: the cycles are the combinations of
        `basis` whose `images` cancel; zero boundaries are skipped."""
        return cls(ambient, kernel_lift(images, basis, canonical=False),
                   [b for b in boundaries if b])

    @property
    def dim(self) -> int:
        return len(self.reps)

    def coords(self, v: Vec) -> Vec | None:
        """Coordinates of [v] in the representative basis; None if v is not
        in cycles + boundaries."""
        r, _ = self._bound.reduce(v)
        index = self._rep_index
        out: Vec = {}
        # reps are zero at each other's pivots: one ascending pass, as in
        # Echelon.reduce
        for p in sorted(k for k in r if k in index):
            i = index[p]
            out[i] = c = r[p]
            _axpy_into(r, -c, self.reps[i])
        if r:
            return None
        return out

    def class_is_zero(self, v: Vec) -> bool:
        c = self.coords(v)
        return c is not None and not c


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
