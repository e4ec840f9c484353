"""The quotient of two given subspaces, as the engine computed the graded
pieces of the Hodge filtration before it read them off the nested Hodge
flags (`cohomology.graded_coords`), and as its cohomology engines computed
kernel over image before one ordered column reduction replaced them.  Kept
as the reference that tests compare against."""

from gchodge.linalg import Echelon, Vec, _axpy_into


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
