"""Finite pseudometric spaces, word metrics, and the entourage algebra.

Every continuous object handled by this package is represented by a finite
sample. A Space is an ordered list of points with a symmetric, non-negative
distance function (a pseudometric: distinct points at distance zero are
allowed). Entourages are relations on point indices, either explicit pair
sets or lazily evaluated radius relations {(x, y) | d(x, y) < r}.

A pair set is stored as its n x n boolean CSR matrix, so the relation
algebra is sparse matrix algebra: union is A + B, inverse A^T, composition
A @ B, inclusion reads A > B, the image of a set is A @ mask, and transport
along a map with graph matrix G is G^T A G (push) or G A G^T (pull).

A radius relation on a grid or cloud sample is materialized through a cell
list, in time linear in the points plus the candidate pairs it proposes;
other backings scan one full distance row per point.
"""

from __future__ import annotations

import math
from typing import Iterable, Optional, Sequence

import numpy as np
from scipy import sparse

from .errors import InvalidInputError, ResourceLimitError

METRIC_TOL = 1e-9
RADIUS_TOL = 1e-12
PAIR_CAP = 10**7
# the cell list of a grid or cloud buckets at most this many axes, and hands
# out candidate pairs in chunks of at most this many
_CELL_AXES = 3
_PAIR_CHUNK = 1 << 17


class Space:
    """A finite pseudometric space.

    Backings:
      - "matrix": explicit symmetric distance matrix
      - "grid": an axis-aligned lattice sample of R^d with euclidean distance
      - "tree": vertices of a tree with unit edge lengths and path distance
      - "hyperbolic_polar": polar coordinates (r, phi) about a basepoint in
        the hyperbolic plane of curvature kappa < 0
      - "discrete": the 0/1 metric, used as a bare index carrier for
        relation-only computations (e.g. block quotients)

    Instances are immutable and safe to share.
    """

    def __init__(self, kind: str, points: list, dist_fn, meta: Optional[dict] = None):
        self.kind = kind
        self.points = points
        self.n = len(points)
        self._dist_fn = dist_fn
        self.meta = meta or {}
        self._row_cache: dict[int, np.ndarray] = {}

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_matrix(cls, matrix, validate: bool = True) -> "Space":
        d = np.asarray(matrix, dtype=float)
        if d.ndim != 2 or d.shape[0] != d.shape[1]:
            raise InvalidInputError("distance matrix must be square")
        if validate:
            _validate_pseudometric(d)
        space = cls("matrix", list(range(d.shape[0])), None, {"matrix": d})
        return space

    @classmethod
    def grid(cls, dim: int, mins: Sequence[float], maxs: Sequence[float], step: float) -> "Space":
        if dim < 1 or step <= 0:
            raise InvalidInputError("grid needs dim >= 1 and step > 0")
        mins = [float(x) for x in mins]
        maxs = [float(x) for x in maxs]
        if len(mins) != dim or len(maxs) != dim:
            raise InvalidInputError("min/max vectors must have length dim")
        axes = []
        for lo, hi in zip(mins, maxs):
            count = int(math.floor((hi - lo) / step + 1e-9)) + 1
            if count < 1:
                raise InvalidInputError("empty grid axis")
            axes.append(np.array([lo + k * step for k in range(count)]))
        mesh = np.meshgrid(*axes, indexing="ij")
        coords = np.stack([m.ravel() for m in mesh], axis=1)
        points = [tuple(row) for row in coords]
        return cls("grid", points, None, {"coords": coords, "step": step, "dim": dim})

    @classmethod
    def line(cls, lo: float, hi: float, step: float) -> "Space":
        return cls.grid(1, [lo], [hi], step)

    @classmethod
    def tree(cls, edges: Sequence[tuple[int, int]]) -> "Space":
        if not edges:
            n = 1
            adj: list[list[int]] = [[]]
        else:
            n = max(max(i, j) for i, j in edges) + 1
            adj = [[] for _ in range(n)]
            for i, j in edges:
                if i == j:
                    raise InvalidInputError("tree edge cannot be a loop")
                adj[i].append(j)
                adj[j].append(i)
        if len(edges) != n - 1:
            raise InvalidInputError("edge count must be n-1 for a tree")
        space = cls("tree", list(range(n)), None, {"adj": adj, "edges": [tuple(e) for e in edges]})
        # connectivity check doubles as a cycle check given the edge count
        if n > 1:
            seen = _bfs_depths(adj, 0)
            if np.any(seen < 0):
                raise InvalidInputError("tree edges do not form a connected tree")
        return space

    @classmethod
    def hyperbolic_polar(cls, kappa: float, points: Sequence[tuple[float, float]]) -> "Space":
        if kappa >= 0:
            raise InvalidInputError("hyperbolic backing requires kappa < 0")
        pts = [(float(r), float(phi)) for r, phi in points]
        if any(r < 0 for r, _ in pts):
            raise InvalidInputError("radial coordinates must be non-negative")
        rr = np.array([p[0] for p in pts])
        ph = np.array([p[1] for p in pts])
        return cls("hyperbolic_polar", pts, None, {"kappa": float(kappa), "r": rr, "phi": ph})

    @classmethod
    def cloud(cls, coords) -> "Space":
        """Euclidean point cloud; rows of coords are the sample points."""
        arr = np.asarray(coords, dtype=float)
        if arr.ndim != 2:
            raise InvalidInputError("cloud coordinates must be a 2-d array")
        points = [tuple(row) for row in arr]
        return cls("cloud", points, None, {"coords": arr, "dim": arr.shape[1]})

    @classmethod
    def discrete(cls, n: int) -> "Space":
        return cls("discrete", list(range(n)), None, {})

    @classmethod
    def product(cls, a: "Space", b: "Space") -> "Space":
        """Product sample with the sum metric d((x,y),(x',y')) = d(x,x') + d(y,y')."""
        points = [(i, j) for i in range(a.n) for j in range(b.n)]
        return cls("product", points, None, {"left": a, "right": b})

    # -- distances ---------------------------------------------------------

    def dist_row(self, i: int) -> np.ndarray:
        row = self._row_cache.get(i)
        if row is not None:
            return row
        if self.kind == "matrix":
            row = self.meta["matrix"][i]
        elif self.kind in ("grid", "cloud"):
            coords = self.meta["coords"]
            row = np.linalg.norm(coords - coords[i], axis=1)
        elif self.kind == "tree":
            row = _bfs_depths(self.meta["adj"], i).astype(float)
        elif self.kind == "hyperbolic_polar":
            row = hyperbolic_distance(
                self.meta["kappa"], self.meta["r"][i], self.meta["phi"][i],
                self.meta["r"], self.meta["phi"])
        elif self.kind == "discrete":
            row = np.ones(self.n)
            row[i] = 0.0
        elif self.kind == "product":
            a, b = self.meta["left"], self.meta["right"]
            ia, ib = self.points[i]
            row = (np.repeat(a.dist_row(ia), b.n) + np.tile(b.dist_row(ib), a.n))
        else:
            raise InvalidInputError(f"unknown backing {self.kind}")
        if self.n <= 4096:
            self._row_cache[i] = row
        return row

    def dist(self, i: int, j: int) -> float:
        return float(self.dist_row(i)[j])

    def dist_block(self, rows, cols, squared: bool = False) -> np.ndarray:
        """Distance submatrix, vectorized per backing.

        With squared=True euclidean backings skip the square root (callers
        reducing with min/max can take it after the reduction).
        """
        rows = np.asarray(rows, dtype=np.int64)
        cols = np.asarray(cols, dtype=np.int64)
        if self.kind in ("grid", "cloud"):
            coords = self.meta["coords"]
            sq = self.meta.get("sqnorm")
            if sq is None:
                sq = np.einsum("ij,ij->i", coords, coords)
                self.meta["sqnorm"] = sq
            gram = coords[rows] @ coords[cols].T
            d2 = sq[rows][:, None] + sq[cols][None, :] - 2.0 * gram
            np.maximum(d2, 0.0, out=d2)
            return d2 if squared else np.sqrt(d2)
        if self.kind == "matrix":
            block = self.meta["matrix"][np.ix_(rows, cols)]
        elif self.kind == "hyperbolic_polar":
            r, p = self.meta["r"], self.meta["phi"]
            block = hyperbolic_distance(
                self.meta["kappa"], r[rows][:, None], p[rows][:, None],
                r[cols][None, :], p[cols][None, :])
        else:
            block = np.stack([self.dist_row(int(i))[cols] for i in rows])
        return block ** 2 if squared else block

    def diameter(self) -> float:
        return max(float(self.dist_row(i).max()) for i in range(self.n))

    def is_metric_backed(self) -> bool:
        return self.kind != "discrete"

    def __repr__(self):
        return f"Space(kind={self.kind!r}, n={self.n})"


def _validate_pseudometric(d: np.ndarray) -> None:
    n = d.shape[0]
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


def _bfs_depths(adj: list[list[int]], root: int) -> np.ndarray:
    depths = np.full(len(adj), -1, dtype=np.int64)
    depths[root] = 0
    frontier = [root]
    while frontier:
        nxt = []
        for v in frontier:
            for w in adj[v]:
                if depths[w] < 0:
                    depths[w] = depths[v] + 1
                    nxt.append(w)
        frontier = nxt
    return depths


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
        (d <= r + 1e-12) is available for constructions that need it. On
        grid and cloud samples, materialize buckets the points into cells of
        side just over r on the first three axes and measures only pairs in
        neighbouring cells, each exactly as dist_row does, so the relation
        is bit-identical to a scan of every distance row.
    """

    def __init__(self, space: Space, kind: str, m: Optional[sparse.csr_matrix] = None,
                 r: Optional[float] = None, closed: bool = False):
        self.space = space
        self.kind = kind
        self._m = m
        self.r = r
        self.closed = closed
        self._power_cache: dict[int, "Entourage"] = {}

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
    def from_keys(cls, space: Space, keys: np.ndarray) -> "Entourage":
        keys = np.asarray(keys, dtype=np.int64)
        n = space.n
        return cls.from_matrix(space, _bool_matrix(keys // n, keys % n, (n, n)))

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

    def _radius_hits(self, i: int) -> np.ndarray:
        return np.nonzero(self._within(self.space.dist_row(i)))[0]

    def matrix(self) -> sparse.csr_matrix:
        """The n x n boolean CSR matrix with a True at (i, j) for each pair,
        in canonical form; shared, so callers must not modify it.

        A radius relation is materialized first, under the pair cap.
        """
        return self.materialize()._m

    def keys(self) -> np.ndarray:
        """The pairs as ascending int64 keys i * n + j."""
        m = self.matrix()
        n = self.space.n
        return np.repeat(np.arange(n, dtype=np.int64), np.diff(m.indptr)) * n + m.indices

    # certbench/tracer.py reads `ret._keys.size` to count the pairs that
    # materialize, compose and cover_entourage return; keep this read-only
    # view for it.
    @property
    def _keys(self) -> np.ndarray:
        return self.keys()

    def _radius_pairs(self):
        """Yield the pairs of this radius relation as (rows, cols) index
        arrays, a bounded chunk at a time.

        On grid and cloud samples a cell list proposes the candidates and
        each is kept by the distance dist_row computes, the same float
        operations in the same order, so the pairs are exactly those of the
        row scan. Other backings, and coordinates or radii too large for
        cells, scan one distance row per point.
        """
        sp = self.space
        # every pair inside the relation is closer than reach on each axis,
        # with room for the rounding of the distance itself
        reach = (self.r + RADIUS_TOL) * (1 + 1e-9) + 1e-12
        if sp.kind in ("grid", "cloud"):
            coords = sp.meta["coords"]
            if (coords.size and np.isfinite(reach)
                    and np.isfinite(np.ptp(coords[:, :_CELL_AXES], axis=0)).all()):
                for i, j in _cell_candidates(coords[:, :_CELL_AXES], reach):
                    keep = self._within(np.linalg.norm(coords[j] - coords[i], axis=1))
                    yield i[keep], j[keep]
                return
        for i in range(sp.n):
            hits = self._radius_hits(i)
            yield np.full(hits.size, i, dtype=np.int64), hits

    def materialize(self, cap: int = PAIR_CAP) -> "Entourage":
        """This relation as a pairs relation; a radius relation of more than
        cap pairs raises ResourceLimitError, which is checked chunk by chunk
        so the pairs of an over-cap relation are never all held."""
        if self.kind == "pairs":
            return self
        rows = [np.empty(0, dtype=np.int64)]
        cols = [np.empty(0, dtype=np.int64)]
        total = 0
        for i, j in self._radius_pairs():
            total += j.size
            if total > cap:
                raise ResourceLimitError(
                    f"radius entourage would exceed the {cap} pair cap")
            rows.append(i)
            cols.append(j)
        n = self.space.n
        return Entourage.from_matrix(self.space, _bool_matrix(
            np.concatenate(rows), np.concatenate(cols), (n, n)))

    def pair_count(self) -> int:
        return int(self.matrix().nnz)

    def pairs(self) -> list[tuple[int, int]]:
        m = self.matrix().tocoo()
        return list(zip(m.row.tolist(), m.col.tolist()))

    def contains_pair(self, i: int, j: int) -> bool:
        if self.kind == "radius":
            return bool(self._within(self.space.dist(i, j)))
        return bool(self._m[i, j])

    def _outside(self, other: "Entourage") -> sparse.csr_matrix:
        """The pairs of self that other lacks, as a CSR matrix. A radius
        relation on the right is tested by distance and never materialized."""
        a = self.matrix()
        if other.kind == "pairs":
            return a > other.matrix()
        d = np.empty(a.nnz)
        for i in np.flatnonzero(np.diff(a.indptr)):
            at = slice(a.indptr[i], a.indptr[i + 1])
            d[at] = self.space.dist_row(int(i))[a.indices[at]]
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
        if self.kind == "radius":
            return True
        return (self._m != self._m.T).nnz == 0

    def contains_diagonal(self) -> bool:
        if self.kind == "radius":
            return self.closed or self.r > RADIUS_TOL
        return bool(self._m.diagonal().all())

    # -- algebra -----------------------------------------------------------

    def inverse(self) -> "Entourage":
        if self.kind == "radius":
            return self
        return Entourage.from_matrix(self.space, self._m.T)

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

    def power(self, k: int, cap: int = PAIR_CAP) -> "Entourage":
        """k-fold composition with itself; k = 0 gives the diagonal.

        Powers are memoized per entourage instance since the colorize and
        interior machinery reuses them heavily.
        """
        if k < 0:
            raise InvalidInputError("power must be >= 0")
        if k == 0:
            return Entourage.diagonal(self.space)
        if k == 1:
            return self
        cached = self._power_cache.get(k)
        if cached is None:
            cached = self.power(k - 1, cap).compose(self, cap)
            self._power_cache[k] = cached
        return cached

    def image(self, indices: Iterable[int]) -> frozenset[int]:
        """E[A] = {x | (x, a) in E for some a in A}."""
        a = sorted(set(int(i) for i in indices))
        if not a:
            return frozenset()
        if self.kind == "radius":
            out: set[int] = set()
            for i in a:
                out.update(int(x) for x in self._radius_hits(i))
            return frozenset(out)
        mask = np.zeros(self.space.n, dtype=bool)
        mask[a] = True
        return frozenset(np.flatnonzero(self._m @ mask).tolist())

    def __repr__(self):
        if self.kind == "radius":
            op = "<=" if self.closed else "<"
            return f"Entourage(radius d {op} {self.r}, n={self.space.n})"
        return f"Entourage(pairs, {self._m.nnz} pairs, n={self.space.n})"


def _bool_matrix(rows, cols, shape) -> sparse.csr_matrix:
    """The boolean CSR matrix with a True at each (rows[k], cols[k])."""
    return sparse.csr_matrix((np.ones(len(rows), dtype=bool), (rows, cols)), shape=shape)


def _axis_cells(x: np.ndarray, reach: float) -> tuple[np.ndarray, np.ndarray]:
    """Bucket one coordinate axis into cells of side at least reach.

    Returns each point's cell rank and, for each rank but the last, whether
    the next rank is the adjacent cell. The cell floor((x - min) / side) is
    monotone in x, so checking the farthest value within reach of each value
    shows that no two values less than reach apart are more than one cell
    apart. Rounding can break that only at many millions of cells across,
    and the side is then doubled until it holds.
    """
    w, inv = np.unique(x, return_inverse=True)
    top = np.searchsorted(w, w + reach, side="right") - 1
    side = reach
    while True:
        q = np.floor((w - w[0]) / side)
        if np.all(q[top] - q <= 1):
            break
        side *= 2
    cells, rank = np.unique(q, return_inverse=True)
    return rank[inv], np.diff(cells) == 1


def _cell_candidates(coords: np.ndarray, reach: float):
    """Yield candidate pairs (rows, cols), at most _PAIR_CHUNK at a time:
    each ordered pair of points that lie in the same or adjacent cells on
    every axis of coords, once. That includes every pair closer than reach
    on every axis (fixed-radius near neighbours by bucketing: Bentley,
    Stanat & Williams, IPL 1977).

    A cell is a tuple of axis ranks. The ranks are folded into one cell id
    an axis at a time, re-ranking the occupied prefixes after each axis, so
    no key exceeds n**2 and the neighbours of a cell are found by
    searchsorted.
    """
    axes = [_axis_cells(coords[:, a], reach) for a in range(coords.shape[1])]
    prefixes = []
    key = np.zeros(coords.shape[0], dtype=np.int64)
    for rank, adjacent in axes:
        occupied, key = np.unique(key * (adjacent.size + 1) + rank, return_inverse=True)
        prefixes.append(occupied)
    order = np.argsort(key)
    ncells = prefixes[-1].size
    start = np.searchsorted(key[order], np.arange(ncells + 1))
    size = np.diff(start)
    first = order[start[:-1]]
    links = [(rank[first], np.append(adjacent, False), np.insert(adjacent, 0, False),
              adjacent.size + 1, occupied)
             for (rank, adjacent), occupied in zip(axes, prefixes)]
    block = max(1, _PAIR_CHUNK // 3 ** len(axes))
    for c0 in range(0, ncells, block):
        cells = np.arange(c0, min(c0 + block, ncells))
        nbrs = [(np.zeros(cells.size, dtype=np.int64), np.ones(cells.size, dtype=bool))]
        for cell_rank, up, down, width, occupied in links:
            r = cell_rank[cells]
            steps = ((r - 1, down[r]), (r, True), (r + 1, up[r]))
            nxt = []
            for prefix, ok in nbrs:
                for r2, linked in steps:
                    k2 = prefix * width + r2
                    pos = np.searchsorted(occupied, k2)
                    found = occupied[np.minimum(pos, occupied.size - 1)] == k2
                    nxt.append((pos, ok & linked & found))
            nbrs = nxt
        src = np.concatenate([cells[ok] for _, ok in nbrs])
        dst = np.concatenate([pos[ok] for pos, ok in nbrs])
        count = size[src] * size[dst]
        end = np.cumsum(count)
        for t0 in range(0, int(end[-1]), _PAIR_CHUNK):
            t = np.arange(t0, min(t0 + _PAIR_CHUNK, int(end[-1])), dtype=np.int64)
            e = np.searchsorted(end, t, side="right")
            within = t - (end[e] - count[e])
            width = size[dst[e]]
            yield (order[start[src[e]] + within // width],
                   order[start[dst[e]] + within % width])


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


def uniformity_modulus(f: PointMap, radii: Sequence[float],
                       g: Optional[PointMap] = None) -> dict:
    """Expansion table r -> s(r) of a map between metric-backed spaces.

    s(r) is the largest target distance over source pairs at distance <= r.
    When a second map g over the same source is supplied, also reports
    closeness(f, g) = max_x d(f(x), g(x)).
    """
    if not radii:
        raise InvalidInputError("radii list must be non-empty")
    if not (f.source.is_metric_backed() and f.target.is_metric_backed()):
        raise InvalidInputError("uniformity modulus needs metric-backed spaces")
    radii = sorted(float(r) for r in radii)
    out = {r: 0.0 for r in radii}
    for i in range(f.source.n):
        src = f.source.dist_row(i)
        tgt = f.target.dist_row(f(i))[f.table]
        for r in radii:
            mask = src <= r + RADIUS_TOL
            if np.any(mask):
                out[r] = max(out[r], float(tgt[mask].max()))
    result = {"s": out}
    if g is not None:
        if g.source is not f.source:
            raise InvalidInputError("closeness needs maps over the same source")
        close = 0.0
        for i in range(f.source.n):
            close = max(close, f.target.dist(f(i), g(i)))
        result["closeness"] = close
    return result


# ---------------------------------------------------------------------------
# Word metrics
# ---------------------------------------------------------------------------


def _reduce_word(word: tuple[int, ...]) -> tuple[int, ...]:
    out: list[int] = []
    for letter in word:
        if out and out[-1] == -letter:
            out.pop()
        else:
            out.append(letter)
    return tuple(out)


def _group_ops(group: str, rank: int):
    """Returns (identity, multiply, invert) for the supported group models."""
    if group == "zn":
        ident = (0,) * rank

        def mul(a, b):
            return tuple(x + y for x, y in zip(a, b))

        def inv(a):
            return tuple(-x for x in a)

    elif group == "free":
        ident = ()

        def mul(a, b):
            return _reduce_word(a + b)

        def inv(a):
            return tuple(-x for x in reversed(a))

    else:
        raise InvalidInputError("group model must be 'zn' or 'free'")
    return ident, mul, inv


def word_lengths(generators, radius: int, group: str, rank: int) -> dict:
    """BFS word-length table over the Cayley graph, out to the given radius."""
    ident, mul, inv = _group_ops(group, rank)
    gens = set()
    for g in generators:
        g = tuple(g)
        if group == "free":
            g = _reduce_word(g)
        gens.add(g)
        gens.add(inv(g))
    gens.discard(ident)
    if not gens:
        raise InvalidInputError("generator set is empty after symmetrization")
    lengths = {ident: 0}
    frontier = [ident]
    for depth in range(1, radius + 1):
        nxt = []
        for el in frontier:
            for g in sorted(gens):
                new = mul(el, g)
                if new not in lengths:
                    lengths[new] = depth
                    nxt.append(new)
        frontier = nxt
        if not frontier:
            break
    return lengths


def word_metric_ball(generators, radius: int, group: str = "zn",
                     rank: Optional[int] = None) -> Space:
    """The ball of the given radius about the identity, as a matrix Space.

    The group model is Z^rank or the free group of the given rank, both with
    explicit normal forms; distances are word lengths d(g, h) = |g^{-1} h|
    computed from a BFS table out to radius 2r. A generator set that fails
    to generate simply yields a smaller ball; that is not an error.
    """
    if radius < 0:
        raise InvalidInputError("radius must be >= 0")
    gen_list = [tuple(g) for g in generators]
    if not gen_list:
        raise InvalidInputError("generator set must be non-empty")
    if rank is None:
        if group == "zn":
            rank = len(gen_list[0])
        else:
            rank = max((abs(l) for g in gen_list for l in g), default=1)
    ident, mul, inv = _group_ops(group, rank)
    table = word_lengths(gen_list, 2 * radius, group, rank)
    ball = sorted(el for el, ln in table.items() if ln <= radius)
    n = len(ball)
    d = np.zeros((n, n))
    for i, g in enumerate(ball):
        gi = inv(g)
        for j in range(i + 1, n):
            diff = mul(gi, ball[j])
            d[i, j] = d[j, i] = table[diff]
    space = Space.from_matrix(d, validate=False)
    space.meta["elements"] = ball
    space.meta["group"] = group
    return space
