"""Exact linear algebra over Q(i): sparse vectors, canonical subspaces, quotients.

Vectors are dicts {coordinate index: QI} with zero entries absent.  A Subspace
is stored in fully reduced column-echelon form (pivots ascending, pivot entry
1, pivot coordinate eliminated from every other basis vector), so equal
subspaces have literally identical bases.
"""

from __future__ import annotations

from .errors import DimensionMismatch
from .scalars import ONE, QI

Vec = dict[int, QI]


# -- sparse vector helpers ----------------------------------------------------

def vec_add(u: Vec, v: Vec) -> Vec:
    out = dict(u)
    for k, x in v.items():
        y = out.get(k)
        if y is None:
            out[k] = x
        else:
            z = y + x
            if z:
                out[k] = z
            else:
                del out[k]
    return out

def vec_scale(v: Vec, z: QI) -> Vec:
    if not z:
        return {}
    return {k: x * z for k, x in v.items()}

def vec_axpy(u: Vec, z: QI, v: Vec) -> Vec:
    """u + z*v without building an intermediate."""
    if not z:
        return dict(u)
    out = dict(u)
    for k, x in v.items():
        y = out.get(k)
        t = x * z if y is None else y + x * z
        if t:
            out[k] = t
        elif y is not None:
            del out[k]
    return out

def vec_conj(v: Vec) -> Vec:
    return {k: x.conj() for k, x in v.items()}

def vec_pivot(v: Vec) -> int:
    return min(v)


# -- reduced echelon accumulator ---------------------------------------------

class Echelon:
    """Incremental reduced echelon basis with optional combination tracking.

    Tracked mode records, for every stored row, the coefficients expressing it
    in terms of the inserted vectors (by insertion tag), which yields kernels
    and coordinate solves.
    """

    def __init__(self, track: bool = False):
        self.rows: list[tuple[int, Vec, Vec | None]] = []  # (pivot, vec, combo)
        self.track = track
        self._n_inserted = 0

    @classmethod
    def of_basis(cls, basis: list[Vec]) -> "Echelon":
        """Untracked echelon whose rows are `basis`, which must already be in
        fully reduced form (a Subspace basis): inserting it would leave every
        row unchanged."""
        ech = cls()
        ech.rows = [(vec_pivot(v), v, None) for v in basis]
        return ech

    def dim(self) -> int:
        return len(self.rows)

    def _reduce(self, v: Vec, combo: Vec | None) -> tuple[Vec, Vec | None]:
        v = dict(v)
        for piv, row, rc in self.rows:
            c = v.get(piv)
            if c:
                v = vec_axpy(v, -c, row)
                if combo is not None and rc is not None:
                    combo = vec_axpy(combo, -c, rc)
        return v, combo

    def insert(self, v: Vec, tag: int | None = None):
        """Insert v; returns (residual, combo) after reduction.

        Residual empty means v was dependent; combo (tracked mode) expresses
        the residual as inserted[tags] coefficients, including tag itself.
        """
        if tag is None:
            tag = self._n_inserted
        self._n_inserted += 1
        combo = {tag: ONE} if self.track else None
        v, combo = self._reduce(v, combo)
        if not v:
            return {}, combo
        piv = vec_pivot(v)
        c = v[piv]
        if c != ONE:
            inv = c.inv()
            v = vec_scale(v, inv)
            if combo is not None:
                combo = vec_scale(combo, inv)
        # back-substitute into existing rows to keep the basis fully reduced
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

    def reduce(self, v: Vec) -> tuple[Vec, Vec]:
        """Reduce v without inserting; returns (residual, row-coefficients).

        The second entry maps row index (position in self.rows) to the
        coefficient with which that basis row occurs in v - residual.
        """
        v = dict(v)
        used: Vec = {}
        for idx, (piv, row, _rc) in enumerate(self.rows):
            c = v.get(piv)
            if c:
                v = vec_axpy(v, -c, row)
                used[idx] = c
        return v, used

    def contains(self, v: Vec) -> bool:
        r, _ = self.reduce(v)
        return not r

    def basis(self) -> list[Vec]:
        return [row for _p, row, _c in self.rows]


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

    def contains_subspace(self, other: "Subspace") -> bool:
        self._check(other)
        ech = self.echelon()
        return all(ech.contains(v) for v in other._basis)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Subspace):
            return NotImplemented
        return self.ambient == other.ambient and self._basis == other._basis

    def __hash__(self):
        return hash((self.ambient, tuple(frozenset(v.items()) for v in self._basis)))

    def sum(self, other: "Subspace") -> "Subspace":
        self._check(other)
        return Subspace.span(self.ambient, self._basis + other._basis)

    def intersect(self, other: "Subspace") -> "Subspace":
        self._check(other)
        # each kernel vector (x, y) of (x, y) -> sum x_j a_j + sum y_k b_k
        # gives the meet vector sum x_j a_j: the kernel lifted along (a, 0)
        zeros = [{} for _ in other._basis]
        return Subspace.span(self.ambient, kernel_lift(
            self._basis + other._basis, self._basis + zeros))

    def quotient_reps(self, sub: "Subspace") -> list[Vec]:
        """Canonical representatives of self/sub (sub must lie in self)."""
        self._check(sub)
        ech = sub.echelon()
        sub_pivots = {p for p, _v, _c in ech.rows}
        for v in self._basis:
            ech.insert(v)
        return [row for p, row, _c in ech.rows if p not in sub_pivots]

    def conj(self) -> "Subspace":
        return Subspace.span(self.ambient, [vec_conj(v) for v in self._basis])


def matrix_kernel(cols: list[Vec]) -> list[Vec]:
    """Kernel of the map sending the j-th unit vector to cols[j].

    Returns canonical coefficient vectors (dicts over column indices).
    """
    ech = Echelon(track=True)
    combos = []
    for j, v in enumerate(cols):
        r, combo = ech.insert(v, tag=j)
        if not r:
            combos.append(combo)
    norm = Echelon()
    for c in combos:
        norm.insert(c)
    return norm.basis()


def kernel_lift(images: list[Vec], basis: list[Vec]) -> list[Vec]:
    """Kernel of the map sending basis[j] to images[j], as combinations of
    the basis vectors (one per canonical kernel vector of the images)."""
    out = []
    for combo in matrix_kernel(images):
        v: Vec = {}
        for j, c in combo.items():
            v = vec_axpy(v, c, basis[j])
        out.append(v)
    return out


def solve_columns(cols: list[Vec], target: Vec) -> Vec | None:
    """Coefficients x with sum x_j cols[j] = target, or None."""
    ech = Echelon(track=True)
    for j, v in enumerate(cols):
        ech.insert(v, tag=j)
    r, used = ech.reduce(target)
    if r:
        return None
    out: Vec = {}
    for idx, c in used.items():
        combo = ech.rows[idx][2]
        out = vec_axpy(out, c, combo)
    return out


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
        bound_pivots = {p for p, _v, _c in self._bound.rows}
        full = Echelon.of_basis(self._bound.basis())
        for z in cycles:
            full.insert(z)
        self.reps: list[Vec] = []
        self._rep_pivots: list[int] = []
        for p, row, _c in full.rows:
            if p not in bound_pivots:
                self.reps.append(row)
                self._rep_pivots.append(p)

    @classmethod
    def of_map(cls, ambient: int, basis: list[Vec], images: list[Vec],
               boundaries) -> "QuotientSpace":
        """ker/im at one spot of a complex: the cycles are the combinations of
        `basis` whose `images` cancel; zero boundaries are skipped."""
        return cls(ambient, kernel_lift(images, basis),
                   [b for b in boundaries if b])

    @property
    def dim(self) -> int:
        return len(self.reps)

    def coords(self, v: Vec) -> Vec | None:
        """Coordinates of [v] in the representative basis; None if v is not
        in cycles + boundaries."""
        r, _ = self._bound.reduce(v)
        out: Vec = {}
        for i, (piv, rep) in enumerate(zip(self._rep_pivots, self.reps)):
            c = r.get(piv)
            if c:
                r = vec_axpy(r, -c, rep)
                out[i] = c
        if r:
            return None
        return out

    def class_is_zero(self, v: Vec) -> bool:
        c = self.coords(v)
        return c is not None and not c


# -- dense matrices (small, over QI) -----------------------------------------

Matrix = list[list[QI]]


def mat_identity(n: int) -> Matrix:
    return [[QI(1) if i == j else QI(0) for j in range(n)] for i in range(n)]

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

def mat_vec(a: Matrix, v: list[QI]) -> list[QI]:
    return [sum((row[j] * v[j] for j in range(len(v)) if v[j]), QI(0)) for row in a]

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
