"""Eliminations the engine has replaced, kept as the references that tests
compare against.

`QuotientSpace` is the quotient of two given subspaces, as the engine
computed the graded pieces of the Hodge filtration before it read them off
the nested Hodge flags (`cohomology.graded_coords`), and as its cohomology
engines computed kernel over image before one ordered column reduction
replaced them.

`TrackedEchelon` is the echelon that records each row's combination of the
inserted vectors, as the engine computed its kernels, lifts, intersections
and solves before it read them off the ordered column reduction
(`linalg.reduce_columns`)."""

from collections import defaultdict

from gchodge.linalg import (Echelon, Subspace, Vec, _axpy_into, _lift,
                            vec_axpy, vec_pivot, vec_scale)
from gchodge.scalars import ONE, _qi


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
        bound_rows = self._bound.basis()
        bound_pivots = {min(row) for row in bound_rows}
        full = Echelon.of_basis(bound_rows)
        for z in cycles:
            full.insert(z)
        self.reps: list[Vec] = []
        self._rep_index: dict[int, int] = {}   # rep pivot -> position in reps
        for row in full.basis():
            p = min(row)
            if p not in bound_pivots:
                self._rep_index[p] = len(self.reps)
                self.reps.append(row)

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


class TrackedEchelon:
    """Incremental fully reduced echelon basis that records, for every
    stored row, the coefficients expressing it in terms of the inserted
    vectors (by insertion tag), which yields kernels and coordinate solves.
    Rows are keyed by pivot, with a holder index of the rows nonzero at each
    coordinate, as in the engine's `Echelon`."""

    def __init__(self):
        # pivot -> (vec, combo); coordinate -> pivots of the rows nonzero there
        self._rows: dict[int, tuple[Vec, Vec]] = {}
        self._holders: dict[int, set[int]] = defaultdict(set)
        self._n_inserted = 0

    @classmethod
    def of_columns(cls, cols: list[Vec]) -> "TrackedEchelon":
        """The echelon of `cols`, tagged by position, for `solve`."""
        ech = cls()
        for j, v in enumerate(cols):
            ech.insert(v, tag=j)
        return ech

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

        Residual empty means v was dependent; combo expresses the residual
        as inserted[tags] coefficients, including tag itself.
        """
        if tag is None:
            tag = self._n_inserted
        self._n_inserted += 1
        combo = {tag: ONE}
        v = self._reduce(v, combo)
        if not v:
            return {}, combo
        piv = vec_pivot(v)
        c = v[piv]
        if c._b or c._a != c._d:    # c != 1 in normal form
            inv = c.inv()
            v = vec_scale(v, inv)
            combo = vec_scale(combo, inv)
        holders = self._holders
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
            self._rows[p] = (row, vec_axpy(rc, nx, combo))
        self._rows[piv] = (v, combo)
        for k in v:
            holders[k].add(piv)
        return v, combo

    def reduce(self, v: Vec) -> tuple[Vec, Vec]:
        """(residual, {pivot: coefficient of that row in v - residual})"""
        used: Vec = {}
        return self._reduce(v, None, used), used

    def solve(self, v: Vec) -> Vec | None:
        """Coefficients x, by insertion tag, with sum x_t inserted[t] = v,
        or None when v leaves the span."""
        r, used = self.reduce(v)
        if r:
            return None
        out: Vec = {}
        for p, c in used.items():
            _axpy_into(out, c, self._rows[p][1])
        return out

    def rows(self) -> list[tuple[int, Vec, Vec]]:
        """(pivot, vec, combo) for every row, by ascending pivot."""
        return [(p, *self._rows[p]) for p in sorted(self._rows)]


def dependent_combos(cols: list[Vec]) -> dict[int, Vec]:
    """Each dependent column's tracked combination, by column: a kernel
    basis of the map sending the j-th unit vector to cols[j]."""
    ech = TrackedEchelon()
    combos = {}
    for j, v in enumerate(cols):
        r, combo = ech.insert(v, tag=j)
        if not r:
            combos[j] = combo
    return combos


def tracked_matrix_kernel(cols: list[Vec]) -> list[Vec]:
    return Subspace.span(len(cols), dependent_combos(cols).values())._basis


def tracked_kernel_lift(images: list[Vec], basis: list[Vec]) -> list[Vec]:
    return _lift(tracked_matrix_kernel(images), basis)


def tracked_intersect(a: Subspace, b: Subspace) -> Subspace:
    zeros = [{} for _ in b.basis()]
    return Subspace.span(a.ambient, _lift(
        dependent_combos(a.basis() + b.basis()).values(), a.basis() + zeros))


def tracked_solve(cols: list[Vec], target: Vec) -> Vec | None:
    return TrackedEchelon.of_columns(cols).solve(target)
