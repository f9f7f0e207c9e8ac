"""Finite pseudometric spaces, their metric backends, and the entourage
algebra.

Every continuous object handled by this package is represented by a finite
sample. A Space is n points with a symmetric, non-negative distance
function (a pseudometric: distinct points at distance zero are allowed),
held by the metric backend of its geometry. Entourages are relations on
point indices, either explicit pair sets or lazily evaluated radius
relations {(x, y) | d(x, y) < r}.

Each geometry has one backend class, and this module is the only one that
knows a space's geometry or whether its self-distances are 0: the others
call the backend. A backend computes blocks of distances, the pairs of a
radius relation, the mesh of sets and each point's distance to the outside
of its set; it writes the space's JSON form and, on grids and trees, its
neighbour graph. The base class Metric measures by scanning blocks of
distances, and small sets by flat blocks of index pairs. Grids find radius
pairs through a lattice stencil; clouds find them, and the nearest point
outside a small set, by one walk ring by ring through one cell list,
whose cells are ranked on each axis so that empty stretches cost nothing;
and grids and trees measure sets, and polar samples their mesh, by
kernels of their own (see EuclideanMetric, GridMetric, TreeMetric and
PolarMetric).
Every backend hands out radius pairs in ascending key order i * n + j, so
a relation's CSR matrix is assembled as they arrive.

A pair set is stored as its n x n boolean CSR matrix, so the relation
algebra is sparse matrix algebra: union is A + B, inverse A^T, composition
A @ B, inclusion reads A > B, the image of a set is A @ mask, and transport
along a map with graph matrix G is G^T A G (push) or G A G^T (pull).
"""

from __future__ import annotations

import functools
import math
from types import MappingProxyType
from typing import Iterable, Optional, Sequence

import numpy as np
from scipy import sparse

from .errors import InvalidInputError, ResourceLimitError

METRIC_TOL = 1e-9
RADIUS_TOL = 1e-12
PAIR_CAP = 10**7
# the most points a grid sample may hold, checked before any is built
POINT_CAP = 10**7
# a cloud's cell list buckets at most this many axes, and a cloud hands out
# radius pairs in chunks of at most this many
_CELL_AXES = 3
_PAIR_CHUNK = 1 << 17
# a grid's lattice stencil measures blocks of at most this many candidates,
# small enough that the few float blocks it holds stay in cache
_STENCIL_CHUNK = 1 << 15
# a scan of every distance computes whole rows, as many as fit in this many
# entries: larger blocks slow the tree table's broadcast lookups
_SCAN_BLOCK = 1 << 12
# set-by-set scans compute blocks of at most this many entries
_COVER_BLOCK = 1 << 21
# blocks of points measured against every point hold at most this many entries
_ENTRY_BLOCK = 1 << 16
# blocks of index pairs hold at most this many pairs: a pair takes about 50
# bytes in the few arrays of a block, which then stay small
_PAIR_BLOCK = 1 << 14
# a row of at most this many points has its (entry, point) pairs laid out
# flat; a larger row is measured in a block of its own, which costs less per
# pair than a gather does
_PAIR_ROW = 32
# a cloud's cell list aims at this many points per cell, and the
# nearest-outside walk hands an entry to the scan once its next ring holds
# more than 1/_RING_SHARE of the points (in cells or in candidates)
_CELL_POINTS = 2
_RING_SHARE = 8


class Space:
    """A finite pseudometric space: n points and the metric backend of its
    geometry (one of the Metric subclasses below), built by one of the
    constructors. Instances are immutable and safe to share. Every distance
    comes from the backend's one dist_block kernel.
    """

    def __init__(self, backend: "Metric"):
        self.backend = backend
        self.n = backend.n

    @property
    def kind(self) -> str:
        """The geometry's name, as space documents spell it."""
        return self.backend.kind

    @property
    def meta(self):
        """A read-only view of the backend's fields by name, such as the
        coords and step of a grid, for readers outside the package."""
        return MappingProxyType(vars(self.backend))

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_matrix(cls, matrix, validate: bool = True) -> "Space":
        d = np.asarray(matrix, dtype=float)
        if d.ndim != 2 or d.shape[0] != d.shape[1]:
            raise InvalidInputError("distance matrix must be square")
        if validate:
            _validate_pseudometric(d)
        return cls(MatrixMetric(d))

    @classmethod
    def grid(cls, dim: int, mins: Sequence[float], maxs: Sequence[float], step: float) -> "Space":
        if dim < 1 or step <= 0:
            raise InvalidInputError("grid needs dim >= 1 and step > 0")
        mins = [float(x) for x in mins]
        maxs = [float(x) for x in maxs]
        if len(mins) != dim or len(maxs) != dim:
            raise InvalidInputError("min/max vectors must have length dim")
        spans = [(hi - lo) / step + 1e-9 for lo, hi in zip(mins, maxs)]
        if not all(map(math.isfinite, mins + maxs + spans)):
            raise InvalidInputError("grid bounds and their distance in steps must be finite")
        counts = [math.floor(q) + 1 for q in spans]
        if min(counts) < 1:
            raise InvalidInputError("empty grid axis")
        if math.prod(counts) > POINT_CAP:
            raise ResourceLimitError(f"grid of {math.prod(counts)} points would exceed "
                                     f"the {POINT_CAP} point cap")
        axes = [np.array([lo + k * step for k in range(count)])
                for lo, count in zip(mins, counts)]
        mesh = np.meshgrid(*axes, indexing="ij")
        coords = np.stack([m.ravel() for m in mesh], axis=1)
        return cls(GridMetric(coords, step, tuple(a.size for a in axes)))

    @classmethod
    def line(cls, lo: float, hi: float, step: float) -> "Space":
        return cls.grid(1, [lo], [hi], step)

    @classmethod
    def tree(cls, edges: Sequence[tuple[int, int]]) -> "Space":
        try:
            arr = np.array(edges, dtype=np.int64).reshape(-1, 2)
        except (OverflowError, TypeError, ValueError):
            raise InvalidInputError("tree edges must be pairs of int64 vertices") from None
        if arr.size and arr.min() < 0:
            raise InvalidInputError("tree vertices must be non-negative")
        n = int(arr.max()) + 1 if arr.size else 1
        if len(arr) != n - 1:
            raise InvalidInputError("edge count must be n-1 for a tree")
        if np.any(arr[:, 0] == arr[:, 1]):
            raise InvalidInputError("tree edge cannot be a loop")
        return cls(TreeMetric(arr, n))

    @classmethod
    def hyperbolic_polar(cls, kappa: float, points: Sequence[tuple[float, float]]) -> "Space":
        if kappa >= 0:
            raise InvalidInputError("hyperbolic backing requires kappa < 0")
        pts = [(float(r), float(phi)) for r, phi in points]
        if any(r < 0 for r, _ in pts):
            raise InvalidInputError("radial coordinates must be non-negative")
        return cls(PolarMetric(float(kappa), np.array([p[0] for p in pts]),
                               np.array([p[1] for p in pts])))

    @classmethod
    def cloud(cls, coords) -> "Space":
        """Euclidean point cloud; rows of coords are the sample points."""
        arr = np.asarray(coords, dtype=float)
        if arr.ndim != 2:
            raise InvalidInputError("cloud coordinates must be a 2-d array")
        return cls(EuclideanMetric(arr))

    @classmethod
    def discrete(cls, n: int) -> "Space":
        return cls(DiscreteMetric(max(int(n), 0)))

    @classmethod
    def product(cls, a: "Space", b: "Space") -> "Space":
        """Product sample with the sum metric d((x,y),(x',y')) = d(x,x') + d(y,y')."""
        if a.n * b.n > POINT_CAP:
            raise ResourceLimitError(f"a product of {a.n} x {b.n} = {a.n * b.n} points would "
                                     f"exceed the {POINT_CAP} point cap")
        return cls(ProductMetric(a, b))

    # -- distances ---------------------------------------------------------

    def dist_block(self, rows, cols) -> np.ndarray:
        """The distance submatrix d(rows[a], cols[b]), from the backend's
        one kernel; every other distance is read through it."""
        return self.backend.dist_block(np.asarray(rows, dtype=np.int64),
                                       np.asarray(cols, dtype=np.int64))

    def dist_row(self, i: int) -> np.ndarray:
        return self.dist_block([i], np.arange(self.n))[0]

    def dist(self, i: int, j: int) -> float:
        return float(self.dist_block([i], [j])[0, 0])

    def pair_distances(self, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
        """The distances d(rows[e], cols[e]) for index arrays whose rows do
        not decrease, such as the entries of a CSR matrix in order, read
        from blocks of whole distance rows of at most _ENTRY_BLOCK entries."""
        d = np.empty(rows.size)
        starts = rows[_run_heads(rows)]
        step = max(1, _ENTRY_BLOCK // max(self.n, 1))
        for at in range(0, starts.size, step):
            chunk = starts[at:at + step]
            lo, hi = np.searchsorted(rows, [chunk[0], chunk[-1] + 1])
            block = self.dist_block(chunk, np.arange(self.n))
            d[lo:hi] = block[np.searchsorted(chunk, rows[lo:hi]), cols[lo:hi]]
        return d

    def diameter(self) -> float:
        """The largest distance: the largest of the row maxima, taken in
        row order with Python's max, so a NaN row maximum counts only in
        row 0. An empty space raises ValueError."""
        every = np.arange(self.n, dtype=np.int64)
        step = max(1, _SCAN_BLOCK // max(self.n, 1))
        maxima = [self.dist_block(every[at:at + step], every).max(axis=1)
                  for at in range(0, self.n, step)]
        return max(np.concatenate([np.empty(0)] + maxima).tolist())

    def is_metric_backed(self) -> bool:
        return self.kind != "discrete"

    def __repr__(self):
        return f"Space(kind={self.kind!r}, n={self.n})"


# ---------------------------------------------------------------------------
# Metric backends
# ---------------------------------------------------------------------------


class Metric:
    """The distances of one geometry on the points 0..n-1 and the kernels
    that use them. A subclass sets n and kind and gives dist_block; the
    other kernels default to scans over blocks of distances."""

    kind = ""
    # whether dist_block computes d(x, x) as exactly 0.0 for every point x
    zero_self_distance = False

    def dist_block(self, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
        """The float distances d(rows[a], cols[b]) for int64 index arrays."""
        raise NotImplementedError

    # mesh and outside_distances reduce blocks by max and min only, so a
    # backend may reduce an increasing function of its distances and invert
    # the reduced values (a float or an array of them)
    def _key_block(self, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
        return self.dist_block(rows, cols)

    def _key_pairs(self, p: np.ndarray, q: np.ndarray) -> np.ndarray:
        """The keys of the index pairs (p[e], q[e]), each with the bits that
        _key_block gives it."""
        raise NotImplementedError

    @staticmethod
    def _from_key(value):
        return value

    def radius_pairs(self, within, reach: float, cap: float):
        """Yield (rows, cols) index arrays of the pairs whose distances pass
        the predicate within, a bounded block at a time, in ascending order
        of the keys rows * n + cols over all blocks. Such a pair is closer
        than reach on each coordinate axis, which a backend may use to
        propose candidates; this scan of every distance does not. A backend
        that must hold pairs before it can yield them in key order raises
        the pair cap error once it holds more than cap."""
        every = np.arange(self.n, dtype=np.int64)
        step = max(1, _SCAN_BLOCK // max(self.n, 1))
        for at in range(0, self.n, step):
            hits = np.flatnonzero(within(self.dist_block(every[at:at + step], every)))
            yield at + hits // self.n, hits % self.n

    def mesh(self, m: sparse.csr_matrix, rows: np.ndarray) -> float:
        """The largest diameter of the given rows of the incidence matrix m
        (0 for fewer than two points): each member against its own set's
        members (see _sweep)."""
        sizes = np.diff(m.indptr)
        rows = rows[sizes[rows] > 1]
        rows, points = np.repeat(rows, sizes[rows]), _row_indices(m, rows)
        reach = self._sweep(rows, points, m, False, np.maximum)
        return float(self._from_key(reach.max(initial=0.0)))

    def outside_distances(self, queries: sparse.csr_matrix,
                          sets: sparse.csr_matrix) -> np.ndarray:
        """For each entry (k, x) of queries, in CSR order, the least d(x, y)
        over the y outside row k of sets (+inf if none), both boolean CSR
        matrices with sorted indices. At x outside row k that counts d(x, x),
        known where it is 0: there only members are measured."""
        keys = _entry_keys(queries)
        at = _sorted_isin(keys, _entry_keys(sets)) if self.zero_self_distance else slice(None)
        out = np.zeros(keys.size)
        out[at] = self._from_key(self._nearest_outside(*np.divmod(keys[at], self.n), sets))
        return out

    def _nearest_outside(self, rows: np.ndarray, points: np.ndarray,
                         sets: sparse.csr_matrix) -> np.ndarray:
        """The least key from points[e] to the points outside row rows[e] of
        sets, for entries in ascending row order (see _sweep)."""
        return self._sweep(rows, points, sets, True)

    def _sweep(self, rows: np.ndarray, points: np.ndarray, sets: sparse.csr_matrix,
               outside: bool, reduce=np.minimum) -> np.ndarray:
        """For entries grouped by row, the keys from points[e] to the points
        outside row rows[e] of sets (outside) or in it, reduced by the ufunc
        reduce, +inf where there are none. Which points an entry is measured
        against depends on the size of its row:
        - outside a set of at most half the points: every point, in blocks
          of _ENTRY_BLOCK keys shared by many sets' entries, each entry's own
          set masked (its complement is at least as large, and this makes no
          call per set);
        - inside a row of at most _PAIR_ROW points: the row's points, as
          flat (entry, point) pairs measured by _key_pairs, _PAIR_BLOCK
          pairs a block, and reduced per entry by reduce.reduceat;
        - any other row is taken row by row against its complement or its
          points, _COVER_BLOCK keys a block."""
        sizes = np.diff(sets.indptr)
        every = np.arange(self.n, dtype=np.int64)
        out = np.full(rows.size, np.inf)
        count = sizes[rows]
        small = 2 * count <= self.n if outside else count <= _PAIR_ROW
        small, alone = np.flatnonzero(small), np.flatnonzero(~small)
        if outside:
            step = max(1, _ENTRY_BLOCK // max(self.n, 1))
            for at in range(0, small.size, step):
                part = small[at:at + step]
                d = self._key_block(points[part], every)
                d[np.repeat(np.arange(part.size), count[part]),
                  _row_indices(sets, rows[part])] = np.inf
                out[part] = d.min(axis=1)
        else:
            small = small[count[small] > 0]
            for block in _blocks(count[small], _PAIR_BLOCK):
                part = small[block]
                c = count[part]
                keys = self._key_pairs(np.repeat(points[part], c), _row_indices(sets, rows[part]))
                out[part] = reduce.reduceat(keys, np.cumsum(c) - c)
        starts = np.flatnonzero(np.diff(rows[alone], prepend=-1))
        for a, b in zip(starts.tolist(), starts[1:].tolist() + [alone.size]):
            cand = _row(sets, rows[alone[a]])
            if outside:
                # a row holding every point has no outside: +inf
                if cand.size == self.n:
                    continue
                cand = np.setdiff1d(every, cand, assume_unique=True)
            if not cand.size:
                continue
            chunk = max(1, _COVER_BLOCK // cand.size)
            for at in range(a, b, chunk):
                part = alone[at:min(at + chunk, b)]
                out[part] = reduce.reduce(self._key_block(points[part], cand), axis=1)
        return out

    def adjacency(self) -> sparse.csr_matrix:
        """The n x n int32 CSR matrix with a 1 at (x, y) for each pair of
        neighbours; only grids and trees have one."""
        raise InvalidInputError(f"a {self.kind} space has no neighbour graph")

    def to_json(self) -> dict:
        """The space document that jsonio.load_space reads back."""
        raise InvalidInputError(f"space kind {self.kind!r} has no JSON form")


class MatrixMetric(Metric):
    """An explicit distance matrix. Its diagonal is validated only to
    METRIC_TOL, so self-distances are not taken to be zero."""

    kind = "matrix"

    def __init__(self, matrix: np.ndarray):
        self.matrix = matrix
        self.n = matrix.shape[0]

    def dist_block(self, rows, cols):
        return self.matrix[np.ix_(rows, cols)]

    def _key_pairs(self, p, q):
        return self.matrix[p, q]

    def to_json(self) -> dict:
        return {"kind": "matrix", "dist": self.matrix.tolist()}


class EuclideanMetric(Metric):
    """A point cloud in R^dim, one row of coords per point. Every distance
    is the square root of _squared_distances, or of _key_pairs, which does
    its arithmetic pair by pair on per-axis coordinate columns, so it has
    the same bits whichever kernel computes it; the mesh and Lebesgue scans
    reduce the squared distances and take one square root at the end, which
    gives the same float, since fl(x^2) is increasing and sqrt(fl(x^2)) = x
    for doubles in range."""

    kind = "cloud"
    zero_self_distance = True
    # the lattice step, which only a grid has
    step = None

    def __init__(self, coords: np.ndarray):
        # stored axis by axis, so that each axis is one contiguous column
        # for the gathers of _key_pairs
        self.coords = np.asfortranarray(coords)
        self.dim = coords.shape[1]
        self.n = coords.shape[0]

    def _key_block(self, rows, cols):
        return _squared_distances(self.coords[rows][:, None, :], self.coords[cols][None, :, :])

    def _key_pairs(self, p, q):
        # the arithmetic of _squared_distances, axis by axis in axis order
        total = np.zeros(p.size)
        for column in self.coords.T:
            t = column.take(p)
            t -= column.take(q)
            t *= t
            total += t
        return total

    _from_key = staticmethod(np.sqrt)

    def dist_block(self, rows, cols):
        return np.sqrt(self._key_block(rows, cols))

    def radius_pairs(self, within, reach: float, cap: float):
        """Each point walks the rings of a cell list (see _walk) until the
        bound beyond them fails within, and each candidate is kept by the
        distance dist_block computes, so the pairs are exactly those of the
        scan. The list is the cached one where reach lies between half its
        side and its side, else one of side reach, or of half that side for
        a shorter reach (the 3**3 cells around a point of a 3-d cloud hold
        about 54 points at the cached side). Such a list has at most
        2**_CELL_AXES times the cells of the cached one, as each of its cells
        meets at most two of the cached list's on an axis. A cell is at
        least reach wide, so a walk seldom needs a second ring, and none of
        its points is handed to the scan: their first ring holds fewer
        candidates than the scan would measure. The walk hands out pairs in
        no useful order, so the kept pairs are held as keys and sorted
        once. A cloud without a cell list, or whose points fall in one cell
        of side reach, is scanned whole."""
        n, cells = self.n, self._cell_list
        if cells is not None and not cells.side / 2 <= reach <= cells.side:
            cells = _CellList.build(self.coords, max(reach, cells.side / 2))
        if cells is None:
            yield from super().radius_pairs(within, reach, cap)
            return
        keys, total = [np.empty(0, dtype=np.int64)], 0

        def measure(own, cand):
            nonlocal total
            keep = within(np.sqrt(self._key_pairs(cand, own)))
            keys.append(own[keep] * n + cand[keep])
            total += keys[-1].size
            if total > cap:
                raise _pair_cap_error(cap)

        every = np.arange(n, dtype=np.int64)
        self._walk(cells, every, every, measure, lambda part, bound: ~within(np.sqrt(bound)), 0)
        keys = np.sort(np.concatenate(keys))
        for at in range(0, keys.size, _PAIR_CHUNK):
            yield np.divmod(keys[at:at + _PAIR_CHUNK], n)

    def _nearest_outside(self, rows, points, sets):
        """An entry whose set holds at most half the points walks the cell
        list (see _walk), skipping the members of its own set and keeping
        its least key, until the bound beyond its rings is at least that
        key. Larger sets, the entries the walk hands to the scan, and every
        entry of a cloud whose points fall in a single cell or whose extent
        overflows are measured by the scan."""
        small = 2 * np.diff(sets.indptr)[rows] <= self.n
        if self._cell_list is None or not small.any():
            return super()._nearest_outside(rows, points, sets)
        n, held = self.n, _entry_keys(sets)
        best = np.full(rows.size, np.inf)

        def measure(own, cand):
            # entries come in row order, so a block's sets hold one run of
            # the keys
            mine = held[sets.indptr[rows[own[0]]]:sets.indptr[rows[own[-1]] + 1]]
            keep = ~_sorted_isin(rows[own] * n + cand, mine)
            own, cand = own[keep], cand[keep]
            heads = np.flatnonzero(_run_heads(own))
            near = np.minimum.reduceat(self._key_pairs(points[own], cand), heads)
            best[own[heads]] = np.minimum(best[own[heads]], near)

        scan = self._walk(self._cell_list, points, np.flatnonzero(small), measure,
                          lambda part, bound: bound >= best[part], _RING_SHARE)
        scan = np.union1d(scan, np.flatnonzero(~small))
        if scan.size:
            best[scan] = super()._nearest_outside(rows[scan], points[scan], sets)
        return best

    @functools.cached_property
    def _cell_list(self) -> Optional["_CellList"]:
        return _CellList.build(self.coords)

    def _walk(self, cells, points, todo, measure, done, share):
        """Walk the cell list around points[e] for the ascending entries e
        of todo, all in lockstep: first through the cells at most one cell
        away from the entry's own on each kept axis, then through ring after
        ring of the cells one further away. Each block of at most
        _PAIR_BLOCK (entry, candidate point) pairs, grouped by entry in
        ascending order, goes to measure(own, cand). After the cells within
        reach of their own, the entries part are done where done(part,
        bound) holds for the bound of _CellList.beyond, which no key of a
        point further out is below. Returns, in ascending order, the entries
        whose next ring would take more than 1/share of the points, in cells
        or in candidates, for the caller to measure by the scan (none for
        share 0)."""
        n, scan, reach = self.n, [], 1
        while todo.size:
            steps = _ring(reach, cells.axes.size)
            if steps.shape[0] * share > n:
                scan.append(todo)
                break
            chunk = max(1, _ENTRY_BLOCK // steps.shape[0])
            left = []
            for at in range(0, todo.size, chunk):
                part = todo[at:at + chunk]
                home = cells.cell[points[part]]
                first, count = cells.visit(home, steps)
                per = count.sum(axis=1)
                wide = per * share > n
                scan.append(part[wide])
                count[wide], per[wide] = 0, 0
                for block in _blocks(per, _PAIR_BLOCK):
                    own = np.repeat(part[block], per[block])
                    if own.size:
                        measure(own, cells.order[_spans(first[block].ravel(),
                                                        count[block].ravel())])
                bound = cells.beyond(self.coords, points[part], home, reach)
                left.append(part[~wide & ~done(part, bound)])
            todo = np.concatenate(left)
            reach += 1
        return np.sort(np.concatenate([np.empty(0, dtype=np.int64)] + scan))

    def to_json(self) -> dict:
        return {"kind": "cloud", "points": self.coords.tolist()}


class GridMetric(EuclideanMetric):
    """An axis-aligned lattice of the given step, its points in C order over
    the axis counts in shape, so that lattice neighbours along axis a are
    stride_a = prod(shape[a + 1:]) indices apart, and a point's index is
    lexicographic in its per-axis indices.

    Radius pairs come from a lattice stencil rather than the cloud's cell
    list: each point is measured against the points a box of index steps
    away (see radius_pairs).

    A member's distance to the outside of its set, and the mesh, measure
    against lattice boundaries only, and still equal a scan of every
    distance bit for bit. A grid coordinate is monotone in its axis index,
    and the computed distance sums per-axis terms fl(fl(x_a - y_a)^2), each
    monotone in the index distance along its axis. So stepping a point
    outside a set one lattice step towards a member x never lengthens its
    distance to x; the walk meets the set, so some outside point next to a
    member (the outer boundary) is nearest to x. And stepping a member away
    from another member never shortens their distance while it stays in the
    set; it stops at a member with a lattice neighbour outside the set or
    off the grid (the inner boundary), so some pair of inner-boundary points
    spans the diameter.
    """

    kind = "grid"

    def __init__(self, coords: np.ndarray, step: float, shape: tuple[int, ...]):
        super().__init__(coords)
        self.step = step
        self.shape = shape

    def _strides(self) -> np.ndarray:
        return np.array([math.prod(self.shape[a + 1:]) for a in range(self.dim)],
                        dtype=np.int64)

    def _stencil(self, size: int, steps_at):
        """Walk the stencil of size step vectors that steps_at(lo, hi)
        returns, an int64 (hi - lo) x dim array of per-axis index steps
        each, in lexicographic order: every grid point i against i + delta .
        strides for each step delta. Yields (rows, offsets, moves, inside)
        for a block of rows and a slice of the steps: the offsets delta .
        strides, per axis a the pair (k, t) of each row's axis-a index k and
        the candidates' t = k + delta_a (rows x steps), and whether each
        candidate lies on the grid. Blocks of whole rows are taken while the
        stencil fits in _STENCIL_CHUNK entries; a wider stencil is taken a
        slice at a time, one row at a time, so no array holds more than
        _STENCIL_CHUNK candidates."""
        width = min(size, _STENCIL_CHUNK)
        block = max(1, _STENCIL_CHUNK // size)
        strides = self._strides()
        whole = steps_at(0, size) if size <= width else None
        for r0 in range(0, self.n, block):
            rows = np.arange(r0, min(r0 + block, self.n), dtype=np.int64)
            at_axis = [rows // stride % count for stride, count in zip(strides, self.shape)]
            for s0 in range(0, size, width):
                steps = whole if whole is not None else steps_at(s0, min(s0 + width, size))
                inside = np.ones((rows.size, steps.shape[0]), dtype=bool)
                moves = []
                for a, (k, count) in enumerate(zip(at_axis, self.shape)):
                    t = k[:, None] + steps[:, a]
                    # a negative axis index wraps past every count as uint64
                    inside &= t.view(np.uint64) < count
                    moves.append((k, t))
                yield rows, steps @ strides, moves, inside

    def radius_pairs(self, within, reach: float, cap: float):
        """The lattice stencil: per axis a, K_a = max_k (top_k - k), where
        top_k is the last index whose axis value is at most fl(w_k + reach),
        one searchsorted over the axis values w, which are non-decreasing in
        the index (w_k = fl(lo + fl(k * step)), both roundings monotone).
        A pair inside the relation is closer than reach on axis a; if its
        second point lies t >= 0 steps past the first, at index k + t, then
        w_{k+t} < w_k + reach exactly, so w_{k+t} <= fl(w_k + reach) by
        monotone rounding, k + t <= top_k and t <= K_a; t < 0 is the same
        with the two points swapped. So every pair of the relation is a
        candidate of the box prod_a [-K_a, K_a], enumerated in C order
        (lexicographic). A candidate on the grid is kept by the arithmetic
        of within(sqrt(_key_pairs(j, i))), the test of the cell list, run
        axis by axis on the axis values, which are the coordinates
        themselves, so the relation is bit-identical."""
        strides = self._strides()
        axes = [self.coords[:count * stride:stride, a]
                for a, (count, stride) in enumerate(zip(self.shape, strides))]
        bounds = np.array([(np.searchsorted(w, w + reach, side="right") - 1
                            - np.arange(w.size)).max() for w in axes])
        box = tuple(2 * bounds + 1)

        def steps_at(lo, hi):
            return np.stack(np.unravel_index(np.arange(lo, hi), box), axis=1) - bounds

        for rows, offsets, moves, inside in self._stencil(math.prod(box), steps_at):
            total = np.zeros(inside.shape)
            for w, (k, t) in zip(axes, moves):
                d = w.take(t, mode="clip")
                d -= w[k][:, None]
                d *= d
                total += d
            yield _kept(rows, offsets, inside & within(np.sqrt(total)))

    def adjacency(self) -> sparse.csr_matrix:
        """Two grid points are neighbours when one lattice step apart on one
        axis: the stencil of the unit steps, -e_0, ..., -e_{dim-1}, e_{dim-1},
        ..., e_0 in lexicographic order."""
        unit = np.eye(self.dim, dtype=np.int64)
        steps = np.concatenate([-unit, unit[::-1]])
        pairs = (_kept(rows, offsets, inside) for rows, offsets, _, inside
                 in self._stencil(steps.shape[0], lambda lo, hi: steps[lo:hi]))
        return _key_ordered_csr(pairs, self.n, math.inf, np.int32)

    def mesh(self, m, rows) -> float:
        # T = M A counts the members of each set next to each point; a point
        # off the grid's faces has full lattice neighbours, and the one point
        # of a one-point grid is its own boundary
        t = sparse.csr_matrix(m, dtype=np.int32) @ self.adjacency()
        full = 2 * sum(count > 1 for count in self.shape)
        return super().mesh(m > (t == full) if full else m, rows)

    def _nearest_outside(self, rows, points, sets):
        outer = _outer_boundary(sets, self.adjacency())
        return self._sweep(rows, points, outer, False)

    def to_json(self) -> dict:
        return {"kind": "grid", "dim": self.dim,
                "min": self.coords.min(axis=0).tolist(),
                "max": self.coords.max(axis=0).tolist(),
                "step": self.step}


class TreeMetric(Metric):
    """The path metric of a tree with unit edges on the vertices 0..n-1,
    read from a TreeTable built once, which also checks that the edges form
    a tree.

    The mesh takes a double sweep per set: the member b farthest from the
    set's first member, then the member farthest from b. That is exact for
    any vertex set of a tree (Corneil, Dragan, Habib & Paul, Discrete
    Applied Mathematics 113, 2001), as a tree metric is 0-hyperbolic. The
    Lebesgue number uses the outer boundary: with unit edges, a shortest
    path from a member to its nearest non-member runs through members only
    and leaves the set across the outer boundary, so one breadth-first
    search of all sets at once, inward from their outer boundaries, finds
    every member's distance to the outside. The tree is connected, so only
    a set holding every vertex has no outer boundary.
    """

    kind = "tree"
    zero_self_distance = True

    def __init__(self, edges: np.ndarray, n: int):
        self.edges = edges
        self.n = n
        # the Euler tour reaches every vertex exactly when the n-1 edges form
        # a connected graph, which is then a tree
        self.table = TreeTable(self.adjacency())

    def dist_block(self, rows, cols):
        return self.table.dist(rows[:, None], cols[None, :]).astype(float)

    def _key_pairs(self, p, q):
        return self.table.dist(p, q).astype(float)

    def adjacency(self) -> sparse.csr_matrix:
        """The two ends of a tree edge are neighbours."""
        heads, tails = self.edges.T
        return sparse.csr_matrix((np.ones(2 * heads.size, dtype=np.int32),
                                  (np.concatenate([heads, tails]),
                                   np.concatenate([tails, heads]))), shape=(self.n, self.n))

    def mesh(self, m, rows) -> float:
        sizes = np.diff(m.indptr)[rows]
        rows, sizes = rows[sizes > 1], sizes[sizes > 1]
        if not rows.size:
            return 0.0
        members = _row_indices(m, rows)
        starts = np.cumsum(sizes) - sizes
        owner = np.repeat(np.arange(rows.size), sizes)
        ends = members[starts]
        for _ in range(2):
            d = self.table.dist(ends[owner], members)
            far = np.maximum.reduceat(d, starts)
            hits = np.flatnonzero(d == far[owner])
            ends = members[hits[np.searchsorted(hits, starts)]]
        return float(far.max())

    def _nearest_outside(self, rows, points, sets):
        adj = self.adjacency()
        depth = _depths_inside(sets, _outer_boundary(sets, adj), adj)
        at = np.searchsorted(_entry_keys(sets), rows * self.n + points)
        return np.where(np.diff(sets.indptr)[rows] == self.n, np.inf, depth[at])

    def to_json(self) -> dict:
        return {"kind": "tree", "edges": self.edges.tolist()}


class PolarMetric(Metric):
    """Points (r[i], phi[i]) in polar coordinates about a basepoint of the
    hyperbolic plane of curvature kappa < 0, measured by hyperbolic_distance.
    Its law of cosines rounds, so self-distances are not taken to be zero."""

    kind = "hyperbolic_polar"

    def __init__(self, kappa: float, r: np.ndarray, phi: np.ndarray):
        self.kappa = kappa
        self.r = r
        self.phi = phi
        self.n = r.size

    def dist_block(self, rows, cols):
        return hyperbolic_distance(self.kappa, self.r[rows][:, None], self.phi[rows][:, None],
                                   self.r[cols][None, :], self.phi[cols][None, :])

    def _key_pairs(self, p, q):
        return hyperbolic_distance(self.kappa, self.r[p], self.phi[p], self.r[q], self.phi[q])

    def mesh(self, m, rows) -> float:
        """Exact on the sample: the largest distance that hyperbolic_distance
        computes between two points of a set, each row of a set taken
        against the whole set.

        Rows are visited in descending radius, and the rest of a set is
        skipped once a row cannot raise the running maximum. The exact bound
        d <= r_x + r_y does not serve, since a computed distance can exceed
        it through rounding; the bound must hold for the computed values.
        With s = sqrt(-kappa), c = cosh(s r) and h = sinh(s r), every
        ch = c_x c_y - h_x h_y cos(dphi) computed in row x is at most
        fl(fl(c_x c_max) + fl(h_x h_max)), c_max and h_max the set's largest
        values: the computed cosine lies in [-1, 1], h >= 0, and IEEE
        rounding is monotone. A relative slack of 2^-40 covers the few ulps
        by which cosh and sinh may differ between numpy's scalar and array
        paths, and the rounding of arccosh. The bound depends on the
        law-of-cosines form of hyperbolic_distance and must be derived anew
        if that formula changes.
        """
        s = math.sqrt(-self.kappa)
        c, h = np.cosh(self.r * s), np.sinh(self.r * s)
        worst = 0.0
        for k in rows:
            idx = _row(m, k)
            if idx.size < 2:
                continue
            rs, ps = self.r[idx], self.phi[idx]
            ch = c[idx] * c[idx].max() + h[idx] * h[idx].max()
            reach = np.arccosh(np.maximum(ch * (1 + 2.0 ** -40), 1.0)) / s
            for t in np.argsort(-reach, kind="stable"):
                if reach[t] <= worst:
                    break
                d = hyperbolic_distance(self.kappa, rs[t], ps[t], rs, ps)
                worst = max(worst, float(d.max()))
        return worst

    def to_json(self) -> dict:
        return {"kind": "hyperbolic_polar", "kappa": self.kappa,
                "points": np.column_stack([self.r, self.phi]).tolist()}


class DiscreteMetric(Metric):
    """The 0/1 metric on n points, a bare index carrier for relation-only
    computations (e.g. block quotients)."""

    kind = "discrete"
    zero_self_distance = True

    def __init__(self, n: int):
        self.n = n

    def dist_block(self, rows, cols):
        return (rows[:, None] != cols[None, :]).astype(float)

    def _key_pairs(self, p, q):
        return (p != q).astype(float)


class ProductMetric(Metric):
    """The sum metric on left x right, the point (x, y) at index
    x * right.n + y. Self-distances are sums of the factors' and are not
    taken to be zero."""

    kind = "product"

    def __init__(self, left: Space, right: Space):
        self.left = left
        self.right = right
        self.n = left.n * right.n

    def dist_block(self, rows, cols):
        b = self.right.n
        return (self.left.dist_block(rows // b, cols // b)
                + self.right.dist_block(rows % b, cols % b))

    def _key_pairs(self, p, q):
        b = self.right.n
        left, right = self.left.backend, self.right.backend
        return (left._from_key(left._key_pairs(p // b, q // b))
                + right._from_key(right._key_pairs(p % b, q % b)))


def _squared_distances(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """The squared euclidean distances between the coordinate rows (last
    axis) of x and y, broadcast against each other.

    The one float recipe of every grid and cloud distance: the squared
    differences are summed axis by axis in axis order, so a distance has the
    same bits whichever kernel computes it. For fewer than 8 axes numpy's
    np.linalg.norm(x - y, axis=-1) sums in the same order. The Gram form
    |x|^2 + |y|^2 - 2<x, y> is never formed: it cancels away from the
    origin.
    """
    total = np.zeros(np.broadcast_shapes(x.shape[:-1], y.shape[:-1]))
    for a in range(x.shape[-1]):
        t = x[..., a] - y[..., a]
        t *= t
        total += t
    return total


def _kept(rows: np.ndarray, offsets: np.ndarray, keep: np.ndarray):
    """The pairs (rows[a], rows[a] + offsets[s]) at the true entries (a, s)
    of the rows x offsets mask keep, in row-major order."""
    flat = np.flatnonzero(keep)
    i = rows[flat // offsets.size]
    return i, i + offsets[flat % offsets.size]


def _validate_pseudometric(d: np.ndarray) -> None:
    n = d.shape[0]
    # every comparison below is False at NaN
    if np.isnan(d).any():
        raise InvalidInputError("NaN distances")
    if np.any(d < -METRIC_TOL):
        raise InvalidInputError("negative distances")
    if np.any(np.abs(np.diag(d)) > METRIC_TOL):
        raise InvalidInputError("nonzero self-distance")
    if np.any(np.abs(d - d.T) > METRIC_TOL):
        raise InvalidInputError("distance matrix not symmetric")
    # full triangle check is cubic; only run it on small spaces
    if n <= 300:
        for k in range(n):
            if np.any(d > d[:, [k]] + d[[k], :] + METRIC_TOL):
                raise InvalidInputError("triangle inequality violated")


def _row(m: sparse.csr_matrix, k: int) -> np.ndarray:
    return m.indices[m.indptr[k]:m.indptr[k + 1]]


def _row_indices(m: sparse.csr_matrix, rows: np.ndarray) -> np.ndarray:
    """The column indices of the given rows of m, concatenated in the order
    given: one numpy gather, no sparse matrix built."""
    starts = m.indptr[rows]
    return m.indices[_spans(starts, m.indptr[rows + 1] - starts)]


def _spans(first: np.ndarray, count: np.ndarray) -> np.ndarray:
    """first[i], first[i] + 1, ..., first[i] + count[i] - 1 for each i, in
    order."""
    ends = np.cumsum(count, dtype=first.dtype)
    at = np.repeat(first - ends + count, count)
    at += np.arange(at.size, dtype=at.dtype)
    return at


def _blocks(weights: np.ndarray, limit: int):
    """Yield slices of consecutive items whose weights sum to at most limit,
    an item heavier than limit in a slice of its own."""
    ends = np.cumsum(weights)
    at = 0
    while at < weights.size:
        stop = int(np.searchsorted(ends, ends[at] - weights[at] + limit, side="right"))
        stop = max(stop, at + 1)
        yield slice(at, stop)
        at = stop


# On sorted int64 keys a scan or a binary search suffices where np.unique and
# np.isin would hash them (numpy 2.4).
def _run_heads(keys: np.ndarray) -> np.ndarray:
    """Whether each key differs from the key before it (the first always
    does): the first of each run of equal keys, the distinct keys of an
    ascending array."""
    head = np.ones(keys.size, dtype=bool)
    head[1:] = keys[1:] != keys[:-1]
    return head


def _sorted_isin(keys: np.ndarray, table: np.ndarray) -> np.ndarray:
    """Whether each key is in table, an ascending array, by binary search."""
    at = np.searchsorted(table, keys)
    found = at < table.size
    found[found] = table[at[found]] == keys[found]
    return found


def _entry_keys(m: sparse.csr_matrix) -> np.ndarray:
    """k * n + x for each stored entry (k, x) of m, n its column count, in
    CSR order: ascending when the indices are sorted."""
    rows = np.repeat(np.arange(m.shape[0], dtype=np.int64), np.diff(m.indptr))
    return rows * m.shape[1] + m.indices


def _outer_boundary(m: sparse.csr_matrix, adj: sparse.csr_matrix) -> sparse.csr_matrix:
    """The outer boundary of each set of the incidence matrix m: the points
    outside it next to one of its members."""
    return (sparse.csr_matrix(m, dtype=np.int32) @ adj).astype(bool) > m


def _depths_inside(m: sparse.csr_matrix, outer: sparse.csr_matrix,
                   adj: sparse.csr_matrix) -> np.ndarray:
    """For each entry (k, x) of M, in CSR order, the graph distance from x
    to the nearest point outside set k: a breadth-first search over the
    entries, whose level t + 1 are the entries next to level t within their
    set, starting from the outer boundaries at level 0. An entry the search
    never reaches (a set with no outer boundary) stays 0."""
    n = m.shape[1]
    keys = _entry_keys(m)
    depth = np.zeros(keys.size, dtype=np.int64)
    frontier = _entry_keys(outer)
    degree = np.diff(adj.indptr)
    level = 0
    while frontier.size:
        level += 1
        sets, points = np.divmod(frontier, n)
        step = np.repeat(sets, degree[points]) * n + _row_indices(adj, points)
        at = np.minimum(np.searchsorted(keys, step), keys.size - 1)
        at = np.unique(at[(keys[at] == step) & (depth[at] == 0)])
        depth[at] = level
        frontier = keys[at]
    return depth


class TreeTable:
    """Exact path distances of a unit-edge tree through lowest common
    ancestors (Bender & Farach-Colton, "The LCA Problem Revisited", LATIN
    2000).

    One iterative depth-first search from vertex 0 records each vertex's
    depth and the Euler tour: the depths met while walking round the tree,
    2n - 1 of them, with first[v] the position of v's first visit. The
    shallowest entry between first[u] and first[v] is the depth of the
    lowest common ancestor of u and v, so d(u, v) = depth[u] + depth[v] -
    2 * that minimum. A sparse table of the minima over the 2^k tour
    entries from each position, built on the first query, gives it with two
    lookups. A vertex the search never reaches raises InvalidInputError.
    """

    def __init__(self, adj: sparse.csr_matrix):
        n = adj.shape[0]
        ends, nbrs = adj.indptr.tolist(), adj.indices.tolist()
        nxt = ends[:-1]
        depth = [-1] * n
        first = [0] * n
        depth[0] = 0
        tour = [0]
        stack = [0]
        while stack:
            v = stack[-1]
            at = nxt[v]
            if at < ends[v + 1]:
                nxt[v] = at + 1
                w = nbrs[at]
                if depth[w] < 0:
                    depth[w] = depth[v] + 1
                    first[w] = len(tour)
                    tour.append(depth[w])
                    stack.append(w)
            else:
                stack.pop()
                if stack:
                    tour.append(depth[stack[-1]])
        if min(depth) < 0:
            raise InvalidInputError("tree edges do not form a connected tree")
        self.depth = np.array(depth, dtype=np.int64)
        self.first = np.array(first, dtype=np.int64)
        self._tour = np.array(tour, dtype=np.int32)
        self._table = None

    def _minima(self) -> np.ndarray:
        """The flattened K x m sparse table: entry k * m + i is the least
        tour depth over positions i .. i + 2^k - 1 wherever those exist."""
        if self._table is None:
            m = self._tour.size
            table = np.empty((m.bit_length(), m), dtype=np.int32)
            table[0] = self._tour
            for k in range(1, table.shape[0]):
                h = 1 << (k - 1)
                np.minimum(table[k - 1, :m - h], table[k - 1, h:], out=table[k, :m - h])
                table[k, m - h:] = table[k - 1, m - h:]
            self._table = table.ravel()
        return self._table

    def dist(self, u, v) -> np.ndarray:
        """The int64 distances d(u, v) for vertex indices u and v broadcast
        against each other."""
        table = self._minima()
        a, b = self.first[u], self.first[v]
        lo = np.minimum(a, b)
        span = np.abs(a - b) + 1
        # floor(log2(span)), exact for integers below 2^53
        k = np.frexp(span)[1] - 1
        at = lo + k * np.int64(self._tour.size)
        low = np.minimum(table[at], table[at + span - (1 << k)])
        return self.depth[u] + self.depth[v] - 2 * low


def hyperbolic_distance(kappa: float, r1, phi1, r2, phi2):
    """Distance in the hyperbolic plane of curvature kappa < 0, polar coordinates.

    Uses the law of cosines, cosh d = cosh r1 cosh r2 - sinh r1 sinh r2 cos dphi,
    after rescaling lengths by sqrt(-kappa).
    """
    s = math.sqrt(-kappa)
    a = np.asarray(r1, dtype=float) * s
    b = np.asarray(r2, dtype=float) * s
    dphi = np.asarray(phi1, dtype=float) - np.asarray(phi2, dtype=float)
    ch = np.cosh(a) * np.cosh(b) - np.sinh(a) * np.sinh(b) * np.cos(dphi)
    return np.arccosh(np.maximum(ch, 1.0)) / s


# ---------------------------------------------------------------------------
# Entourages
# ---------------------------------------------------------------------------


class Entourage:
    """A relation on the indices of a Space.

    Two kinds:
      - "pairs": an explicit set of index pairs, stored only as the n x n
        boolean CSR matrix with a True at (i, j) for each pair, in canonical
        form (sorted column indices, no duplicates, no explicit zeros).
        Row-major CSR order is ascending order of the keys i * n + j, so
        pairs() lists and first_pair_outside() picks pairs in key order, as
        when the keys themselves were stored. Pair sets handed in by
        users are symmetric-closed by default; operation outputs
        (composition, transport) are raw.
      - "radius": the relation {(x, y) | d(x, y) < r} evaluated lazily,
        materialized on demand with a documented cap of 10**7 pairs. The
        strict inequality is implemented as d < r - 1e-12; a closed variant
        (d <= r + 1e-12) is available for constructions that need it. On a
        grid, materialize measures each point against a lattice stencil,
        the index steps that can stay within r on every axis; on a cloud
        each point walks a cell list on the first three axes ring by ring,
        from its own cell out, until the nearest coordinate of any point
        further out is beyond r. Each candidate is measured exactly as
        dist_block does, so the relation is bit-identical to a scan of
        every distance; other backends scan blocks of distances. The
        backend yields the pairs in key order and materialize writes the
        canonical CSR matrix from them directly: indptr from each chunk's
        row counts, int32 indices where n allows.
    """

    def __init__(self, space: Space, kind: str, m: Optional[sparse.csr_matrix] = None,
                 r: Optional[float] = None, closed: bool = False):
        self.space = space
        self.kind = kind
        self._m = m
        self.r = r
        self.closed = closed
        self._symmetric = self._reflexive = None

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_matrix(cls, space: Space, m) -> "Entourage":
        """The pairs relation holding (i, j) wherever the n x n matrix m has
        a non-zero entry."""
        m = sparse.csr_matrix(m, dtype=bool)
        if m.shape != (space.n, space.n):
            raise InvalidInputError("relation matrix must be n x n over its space")
        m.sum_duplicates()
        m.eliminate_zeros()
        return cls(space, "pairs", m=m)

    @classmethod
    def from_pairs(cls, space: Space, pairs: Iterable[tuple[int, int]],
                   symmetrize: bool = True) -> "Entourage":
        n = space.n
        arr = np.array([(int(i), int(j)) for i, j in pairs], dtype=np.int64).reshape(-1, 2)
        if arr.size and (arr.min() < 0 or arr.max() >= n):
            raise InvalidInputError("pair index out of range")
        if symmetrize:
            arr = np.concatenate([arr, arr[:, ::-1]])
        return cls.from_matrix(space, _bool_matrix(arr[:, 0], arr[:, 1], (n, n)))

    @classmethod
    def radius(cls, space: Space, r: float, closed: bool = False) -> "Entourage":
        if r < 0:
            raise InvalidInputError("radius must be non-negative")
        if not space.is_metric_backed():
            raise InvalidInputError("radius entourage needs a metric-backed space")
        return cls(space, "radius", r=float(r), closed=closed)

    @classmethod
    def diagonal(cls, space: Space) -> "Entourage":
        return cls.from_matrix(space, sparse.identity(space.n, dtype=bool, format="csr"))

    # -- basics ------------------------------------------------------------

    def _within(self, d):
        """Whether distances d fall inside this radius relation."""
        if self.closed:
            return d <= self.r + RADIUS_TOL
        return d < self.r - RADIUS_TOL

    def matrix(self) -> sparse.csr_matrix:
        """The n x n boolean CSR matrix with a True at (i, j) for each pair,
        in canonical form; shared, so callers must not modify it.

        A radius relation is materialized first, under the pair cap.
        """
        return self.materialize()._m

    def keys(self) -> np.ndarray:
        """The pairs as ascending int64 keys i * n + j."""
        return _entry_keys(self.matrix())

    # certbench/tracer.py reads `ret._keys.size` to count the pairs that
    # materialize, compose and cover_entourage return; keep this read-only
    # view for it.
    @property
    def _keys(self) -> np.ndarray:
        return self.keys()

    def _radius_pairs(self, cap: float):
        """The (rows, cols) chunks of this radius relation in key order, from
        the space's backend."""
        # every pair inside the relation is closer than reach on each axis,
        # with room for the rounding of the distance itself
        reach = (self.r + RADIUS_TOL) * (1 + 1e-9) + 1e-12
        return self.space.backend.radius_pairs(self._within, reach, cap)

    def materialize(self, cap: int = PAIR_CAP) -> "Entourage":
        """This relation as a pairs relation; a radius relation of more than
        cap pairs raises ResourceLimitError, which is checked chunk by chunk
        so the pairs of an over-cap relation are never all held. The
        backend hands out the pairs in key order, so the canonical CSR
        matrix is assembled from the chunks as they come."""
        if self.kind == "pairs":
            return self
        return Entourage(self.space, "pairs",
                         m=_key_ordered_csr(self._radius_pairs(cap), self.space.n, cap, bool))

    def pairs(self) -> list[tuple[int, int]]:
        m = self.matrix().tocoo()
        return list(zip(m.row.tolist(), m.col.tolist()))

    def _outside(self, other: "Entourage") -> sparse.csr_matrix:
        """The pairs of self that other lacks, as a CSR matrix. A radius
        relation on the right is tested by distance and never materialized."""
        a = self.matrix()
        if other.kind == "pairs":
            return a > other.matrix()
        d = self.space.pair_distances(*np.divmod(_entry_keys(a), a.shape[1]))
        out = sparse.csr_matrix((~other._within(d), a.indices, a.indptr),
                                shape=a.shape, copy=True)
        out.eliminate_zeros()
        return out

    def is_subset_of(self, other: "Entourage") -> bool:
        if other.kind == "radius" and self.kind == "radius":
            if self.space is other.space and not self.closed and not other.closed:
                return self.r <= other.r
        return self._outside(other).nnz == 0

    def first_pair_outside(self, other: "Entourage") -> Optional[tuple[int, int]]:
        """The pair of self with the smallest key i * n + j that other
        lacks, or None."""
        out = self._outside(other)
        if out.nnz == 0:
            return None
        i = int(np.flatnonzero(np.diff(out.indptr))[0])
        return (i, int(out.indices[out.indptr[i]:out.indptr[i + 1]].min()))

    def is_symmetric(self) -> bool:
        # kept once found, as a relation never changes; both matrices are
        # canonical (a transpose comes out with sorted indices), so they hold
        # the same pairs exactly when their index arrays agree
        if self._symmetric is None:
            m = self.matrix()
            t = m.T.tocsr()
            self._symmetric = (np.array_equal(m.indptr, t.indptr)
                               and np.array_equal(m.indices, t.indices))
        return self._symmetric

    def contains_diagonal(self) -> bool:
        if self._reflexive is None:
            self._reflexive = bool(self.matrix().diagonal().all())
        return self._reflexive

    # -- algebra -----------------------------------------------------------

    def inverse(self) -> "Entourage":
        return Entourage.from_matrix(self.space, self.matrix().T)

    def union(self, other: "Entourage") -> "Entourage":
        _check_same_space(self, other)
        return Entourage.from_matrix(self.space, self.matrix() + other.matrix())

    def compose(self, other: "Entourage", cap: int = PAIR_CAP) -> "Entourage":
        """The relation {(x, z) | exists y with (x, y) in self, (y, z) in other}.

        Output is raw: no symmetric closure is applied.
        """
        _check_same_space(self, other)
        prod = self.matrix() @ other.matrix()
        if prod.nnz > cap:
            raise ResourceLimitError(f"composition would exceed the {cap} pair cap")
        return Entourage.from_matrix(self.space, prod)

    def image(self, indices: Iterable[int]) -> frozenset[int]:
        """E[A] = {x | (x, a) in E for some a in A}."""
        a = sorted(set(int(i) for i in indices))
        if not a:
            return frozenset()
        mask = np.zeros(self.space.n, dtype=bool)
        mask[a] = True
        return frozenset(np.flatnonzero(self.matrix() @ mask).tolist())

    def __repr__(self):
        if self.kind == "radius":
            op = "<=" if self.closed else "<"
            return f"Entourage(radius d {op} {self.r}, n={self.space.n})"
        return f"Entourage(pairs, {self._m.nnz} pairs, n={self.space.n})"


def _pair_cap_error(cap) -> ResourceLimitError:
    return ResourceLimitError(f"radius entourage would exceed the {cap} pair cap")


def _key_ordered_csr(pairs, n: int, cap: float, dtype) -> sparse.csr_matrix:
    """The n x n CSR matrix of dtype with a one at each pair of the
    (rows, cols) chunks that pairs yields in ascending key order rows * n +
    cols, across chunks too, so its column indices come out sorted and
    unique: each chunk adds its row counts to indptr and keeps its columns,
    as int32 where n allows, and no COO form or canonicalizing copy is
    made. A chunk that brings the count past cap raises the pair cap error
    before it is kept."""
    index = np.int32 if n < 2 ** 31 else np.int64
    counts = np.zeros(n + 1, dtype=np.int64)
    cols, total = [np.empty(0, dtype=index)], 0
    for i, j in pairs:
        total += j.size
        if total > cap:
            raise _pair_cap_error(cap)
        if j.size:
            counts[i[0] + 1:i[-1] + 2] += np.bincount(i - i[0])
            cols.append(j.astype(index))
    indices = np.concatenate(cols)
    del cols
    # scipy stores indptr, and indices with it, as int32 when the count fits
    m = sparse.csr_matrix((np.ones(total, dtype=dtype), indices, np.cumsum(counts, out=counts)),
                          shape=(n, n))
    m.has_canonical_format = True
    return m


def _bool_matrix(rows, cols, shape) -> sparse.csr_matrix:
    """The boolean CSR matrix with a True at each (rows[k], cols[k])."""
    return sparse.csr_matrix((np.ones(len(rows), dtype=bool), (rows, cols)), shape=shape)


class _CellList:
    """The points of a cloud bucketed into cells on its first _CELL_AXES
    axes, for walks ring by ring of cells (Bentley, Weide & Yao, "Optimal
    expected-time algorithms for closest-point problems", ACM TOMS 6, 1980).

    On kept axis a, point x lies in the cell numbered by the rank of
    floor(fl(x_a - lo_a) / side) among the values the points take. The
    rank is non-decreasing in x_a, as every rounding is monotone, and an
    empty stretch of the axis takes no rank, so a far outlier costs one
    cell more rather than millions. An axis on which all points agree, or
    whose extent is less than a side, is left out.

    The side is given, or else makes the cells over the cloud's bounding
    box hold about _CELL_POINTS points each, so no kept axis is cut into
    more than n / _CELL_POINTS cells and the cells number at most 2**3 * n
    / _CELL_POINTS. Points on a curve, a surface or in clusters crowd the
    few cells they meet, so that side is halved while the occupied cells
    hold more than twice _CELL_POINTS points on average, the cells stay
    fewer than 8n and halving still splits a cell (it does not once each
    distinct value has a cell of its own on every kept axis).

    Fields: axes, the kept axes; side; cell, each point's cell on each of
    them; shape and strides of the cell grid; order, the points by cell id,
    cell c holding order[starts[c]:starts[c + 1]], and one empty cell past
    the grid; and per kept axis, upper[a][c], the least value of axis a
    over the points in cells c and up (+inf past the grid), and lower[a][c +
    1], the largest over the cells c and down (-inf below 0).
    """

    @classmethod
    def build(cls, coords: np.ndarray, side: Optional[float] = None) -> Optional["_CellList"]:
        """The cell list of the given side, or of the side from the point
        density; None where the points fall in one cell, the extent of an
        axis overflows, or the side underflows among subnormal extents."""
        x = coords[:, :_CELL_AXES]
        n = x.shape[0]
        span = np.ptp(x, axis=0) if n else np.zeros(0)
        if not np.isfinite(span).all():
            return None
        axes, crowd = np.flatnonzero(span > 0), side is None
        if crowd:
            while axes.size:
                side = math.exp((np.log(span[axes]).sum() + math.log(_CELL_POINTS / n))
                                / axes.size)
                if np.all(span[axes] >= side):
                    break
                axes = axes[span[axes] >= side]
        else:
            axes = axes[span[axes] >= side]
        return cls(x[:, axes], axes, side, crowd) if axes.size and side > 0 else None

    def __init__(self, x: np.ndarray, axes: np.ndarray, side: float, crowd: bool):
        n = x.shape[0]
        self.axes = axes
        by = np.argsort(x, axis=0)
        w = np.take_along_axis(x, by, axis=0)
        distinct = w[1:] != w[:-1]
        while True:
            self.side = side
            q = np.floor((w - w[0]) / side)
            # where each axis, in sorted order, enters a new cell
            new = q[1:] != q[:-1]
            rank = np.cumsum(np.concatenate([np.zeros((1, axes.size), dtype=np.int64), new]),
                             axis=0)
            self.cell = np.empty_like(rank)
            np.put_along_axis(self.cell, by, rank, axis=0)
            self.shape = rank[-1] + 1
            self.strides = np.cumprod(np.append(1, self.shape[:0:-1]))[::-1]
            cid = self.cell @ self.strides
            total = math.prod(self.shape.tolist())
            counts = np.bincount(cid, minlength=total + 1)
            if (not crowd or n <= 2 * _CELL_POINTS * np.count_nonzero(counts)
                    or total << axes.size > 8 * n or not side / 2 > 0
                    or np.array_equal(new, distinct)):
                break
            side /= 2
        # stable, so a cell lists its points in index order, which keeps the
        # binary searches of a walk's keys local
        self.order = np.argsort(cid, kind="stable")
        self.starts = np.concatenate(([0], np.cumsum(counts)))
        self.upper, self.lower = [], []
        for a in range(axes.size):
            head = np.flatnonzero(np.concatenate(([True], new[:, a])))
            self.upper.append(np.append(w[head, a], np.inf))
            self.lower.append(np.concatenate(([-np.inf], w[np.append(head[1:], n) - 1, a])))

    def visit(self, home: np.ndarray, steps: np.ndarray):
        """For cells home (entries x kept axes) and cell steps (steps x kept
        axes), the start in order and the count of the points of each cell
        home + step (entries x steps), 0 points off the grid."""
        cid = np.zeros((home.shape[0], steps.shape[0]), dtype=np.int64)
        on = np.ones(cid.shape, dtype=bool)
        for a, (size, stride) in enumerate(zip(self.shape.tolist(), self.strides.tolist())):
            c = home[:, a, None] + steps[:, a]
            on &= c.view(np.uint64) < size
            c *= stride
            cid += c
        cid[~on] = self.starts.size - 2
        first = self.starts[cid]
        return first, self.starts[cid + 1] - first

    def beyond(self, coords: np.ndarray, points: np.ndarray, home: np.ndarray,
               reach: int) -> np.ndarray:
        """For each point, a lower bound on its key to every point more than
        reach cells from home on some kept axis.

        Such a point y lies in a cell past home_a + reach, or before
        home_a - reach, on a kept axis a. If past, y_a >= u = upper[a][home_a
        + reach + 1] > x_a, as cells do not decrease in the coordinate; so
        fl(y_a - x_a) >= fl(u - x_a) >= 0 and fl(fl(y_a - x_a)^2) >=
        fl(fl(u - x_a)^2), every rounding being monotone, and the same below
        with lower. A key sums such per-axis terms, all >= 0, from 0, and a
        rounded sum of non-negative terms is at least each of them. The
        bound is the least of these terms over the kept axes, each computed
        from two sample coordinates exactly as a key computes them, so it
        needs no rounding margin; where no point lies further out it is
        +inf."""
        bound = np.full(points.size, np.inf)
        for a, axis in enumerate(self.axes):
            x = coords[:, axis].take(points)
            above = self.upper[a][np.minimum(home[:, a] + reach + 1, self.shape[a])] - x
            below = x - self.lower[a][np.maximum(home[:, a] - reach, 0)]
            bound = np.minimum(bound, np.minimum(above * above, below * below))
        return bound


def _ring(reach: int, k: int) -> np.ndarray:
    """The steps of k cell indices from a cell to the cells reach away on
    some axis and at most reach on every axis; for reach 1, also the step
    0 to the cell itself."""
    box = np.stack(np.unravel_index(np.arange((2 * reach + 1) ** k), (2 * reach + 1,) * k),
                   axis=1) - reach
    return box if reach == 1 else box[np.abs(box).max(axis=1) == reach]


def _check_same_space(a: Entourage, b: Entourage) -> None:
    if a.space is not b.space:
        raise InvalidInputError("entourages live over different spaces")


# ---------------------------------------------------------------------------
# Point maps
# ---------------------------------------------------------------------------


class PointMap:
    """A total map between the index sets of two spaces."""

    def __init__(self, source: Space, target: Space, table: Sequence[int]):
        tab = np.asarray(list(table), dtype=np.int64)
        if tab.size != source.n:
            raise InvalidInputError("map table must cover every source index")
        if tab.size and (tab.min() < 0 or tab.max() >= target.n):
            raise InvalidInputError("map table hits an out-of-range target index")
        self.source = source
        self.target = target
        self.table = tab

    @classmethod
    def identity(cls, space: Space) -> "PointMap":
        return cls(space, space, np.arange(space.n))

    def __call__(self, i: int) -> int:
        return int(self.table[i])


def transport(f: PointMap, e: Entourage, direction: str) -> Entourage:
    """Push an entourage forward along f x f, or pull one back.

    push: (f x f)(E) over the target space; pull: (f x f)^{-1}(E) over the
    source space. Outputs are raw pair sets. With G the source x target
    graph matrix of f, push is G^T E G and pull is G E G^T.
    """
    graph = _bool_matrix(np.arange(f.source.n), f.table, (f.source.n, f.target.n))
    if direction == "push":
        if e.space is not f.source:
            raise InvalidInputError("push needs an entourage over the source space")
        return Entourage.from_matrix(f.target, graph.T @ e.matrix() @ graph)
    if direction == "pull":
        if e.space is not f.target:
            raise InvalidInputError("pull needs an entourage over the target space")
        return Entourage.from_matrix(f.source, graph @ e.matrix() @ graph.T)
    raise InvalidInputError("direction must be 'push' or 'pull'")
