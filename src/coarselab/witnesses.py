"""Concrete cover generators and the combinatorial lower-bound certificate.

Upper-bound witnesses: shifted cube covers of grid samples, parity covers of
trees, band covers of sampled rays and their products, and open-star covers
of simplicial complexes. The lower-bound side triangulates a simplex placed
inside the positive cone, labels it admissibly from a given cover, and
extracts a sample point that provably lies in n+1 distinct covering sets.
"""

from __future__ import annotations

import math
from itertools import combinations, permutations
from typing import Iterable, Optional, Sequence

import numpy as np
from scipy import sparse

from .certificates import at_least, at_most, certify, claim, count_at_most, holds
from .covers import (Cover, first_container, lebesgue_number, mesh,
                     multiplicity)
from .errors import (ContractViolationError, InternalCheckError, InvalidInputError,
                     ResourceLimitError)
from .spaces import (POINT_CAP, RADIUS_TOL, Entourage, EuclideanMetric, GridMetric, Space,
                     TreeMetric, _Rows, _csr, _row_indices)

FLOAT_TOL = 1e-9


# ---------------------------------------------------------------------------
# Cube covers
# ---------------------------------------------------------------------------


def cube_cover(space: Space, n: int, a: float):
    """Cover a grid or cloud sample of R^n by n+1 families of shifted open
    cubes with edge a.

    Family i consists of the cubes centered at a*(z + i/(n+1)*(1,...,1)) for
    integer z. The families tile, the cover has multiplicity n+1, Lebesgue
    number at least a/(2(n+1)) minus one grid step, and mesh at most
    a*sqrt(n) plus one grid step.
    """
    if not isinstance(space.backend, EuclideanMetric):
        raise InvalidInputError("cube cover needs a coordinate-backed space")
    coords = space.backend.coords
    if coords.shape[1] != n:
        raise InvalidInputError("space dimension does not match n")
    if a <= 0:
        raise InvalidInputError("edge length must be positive")
    step = space.backend.step
    if step is None:
        step = _min_positive_gap(coords)
    if step > a / (2 * (n + 1)) + FLOAT_TOL:
        raise InvalidInputError(
            f"grid step {step} too coarse; need step <= a/(2(n+1)) = {a / (2 * (n + 1))}")

    sets, families = _cube_sets(coords, n, a)
    out = Cover(space, sets, families, canonicalize=False)
    return out, certify([
        count_at_most("cube_cover.multiplicity", multiplicity(out), n + 1),
        at_least("cube_cover.lebesgue", lebesgue_number(out), a / (2 * (n + 1)) - step),
        at_most("cube_cover.mesh", mesh(out), a * math.sqrt(n) + step),
    ])


def _cube_sets(coords: np.ndarray, n: int, a: float) -> tuple[sparse.csr_matrix, list]:
    """The incidence matrix and families of cube_cover: family i, in
    lexicographic order of the integer cube index z, the points strictly
    inside the cube a*(z + i/(n+1)*(1,...,1)) of edge a, each row in
    ascending order."""
    members, starts, families = [], [], []
    count = filled = 0
    for i in range(n + 1):
        offset = a * i / (n + 1)
        u = (coords - offset) / a
        z = np.round(u)
        inside = np.flatnonzero(np.all(np.abs(u - z) < 0.5 - RADIUS_TOL, axis=1))
        # lexsort is stable and its last key leads: equal cubes keep their
        # points in ascending order
        order = np.lexsort(z[inside].T[::-1])
        group, keys = inside[order], z[inside[order]]
        cuts = np.flatnonzero(np.any(keys[1:] != keys[:-1], axis=1)) + 1
        firsts = np.concatenate([[0], cuts]) if group.size else cuts
        families.append(list(range(count, count + firsts.size)))
        count += firsts.size
        starts.append(filled + firsts)
        filled += group.size
        members.append(group)
    indices = np.concatenate(members)
    indptr = np.append(np.concatenate(starts), filled)
    return sparse.csr_matrix((np.ones(indices.size, dtype=bool), indices, indptr),
                             shape=(count, len(coords))), families


def _min_positive_gap(coords: np.ndarray) -> float:
    vals = np.unique(coords.ravel())
    gaps = np.diff(vals)
    gaps = gaps[gaps > FLOAT_TOL]
    return float(gaps.min()) if gaps.size else 1.0


# ---------------------------------------------------------------------------
# Tree covers
# ---------------------------------------------------------------------------


def tree_cover(space: Space, L: float, root: int = 0):
    """Two-family cover of a unit-edge tree by L-neighborhoods of geodesic
    equivalence classes.

    L' is the smallest natural number bigger than 2L. Vertices are graded by
    f(x) = floor(d(root, x) / L'); two vertices of the same grade are
    equivalent when their root geodesics agree at parameter L'*(f - 1/2).
    The classes of even grade form one family, odd grades the other.
    Non-equivalent classes of the same parity sit at distance >= L'.

    Depths come from the tree's distance table, each vertex's parent is its
    neighbour one step nearer the root, and the ancestors that key the
    classes are reached by parent steps taken by all vertices at once. The
    sets, in order of their keys (grade, ancestor), are the classes grown
    by ceil(L) - 1 sparse products with I + A, A the adjacency matrix.
    """
    if not isinstance(space.backend, TreeMetric):
        raise InvalidInputError("tree cover needs a tree-backed space")
    if L <= 0:
        raise InvalidInputError("L must be positive")
    n = space.n
    if not 0 <= root < n:
        raise InvalidInputError(f"root {root} is not a vertex of the {n}-vertex tree")
    lp = int(math.floor(2 * L)) + 1
    adj = space.backend.adjacency()
    depth = space.backend.table.dist(root, np.arange(n))
    heads = np.repeat(np.arange(n), np.diff(adj.indptr))
    up = depth[adj.indices] < depth[heads]
    parent = np.full(n, -1, dtype=np.int64)
    parent[heads[up]] = adj.indices[up]

    grade = depth // lp
    # grade 0 keys on the root itself, at depth 0
    target = np.where(grade > 0, np.ceil(lp * (grade - 0.5) - FLOAT_TOL), 0).astype(np.int64)
    anc = np.arange(n)
    climbing = np.flatnonzero(depth > target)
    while climbing.size:
        anc[climbing] = parent[anc[climbing]]
        climbing = climbing[depth[anc[climbing]] > target[climbing]]
    keys, label = np.unique(grade * n + anc, return_inverse=True)
    parity = keys // n % 2
    balls = _csr(_Rows(np.concatenate(([0], np.cumsum(np.bincount(label)))),
                       np.argsort(label, kind="stable")), n)
    step = sparse.identity(n, dtype=bool, format="csr") + sparse.csr_matrix(adj, dtype=bool)
    for _ in range(int(math.ceil(L)) - 1):  # d(x, class) < L on integer distances
        balls = balls @ step
    families = [np.flatnonzero(parity == p).tolist() for p in (0, 1)]

    out = Cover(space, balls, families, canonicalize=False)
    return out, certify([
        count_at_most("tree_cover.multiplicity", multiplicity(out), 2),
        at_most("tree_cover.mesh", mesh(out), 3 * lp + 2 * L),
        at_least("tree_cover.class_separation", _class_separation(adj, label, parity), lp),
    ])


def _class_separation(adj: sparse.csr_matrix, label: np.ndarray, parity: np.ndarray) -> float:
    """The least distance between two vertices of distinct classes of the
    same parity, or +inf if no parity has two classes.

    One breadth-first search per parity grows all of its classes at once, a
    level at a time, each vertex taking the label of the first class to
    reach it. The least distance between two differently labelled sources
    is then min d(u) + 1 + d(v) over the edges (u, v) whose ends carry
    different labels, d the distance to the nearest source: every such edge
    joins two sources through a path of that length, and on a shortest path
    between two closest sources of different classes the labels change
    across some edge whose two ends are no farther from those sources.
    """
    n = label.size
    degree = np.diff(adj.indptr)
    heads = np.repeat(np.arange(n), degree)
    best = math.inf
    for p in (0, 1):
        lab = np.where(parity[label] == p, label, -1)
        dist = np.where(lab >= 0, 0, -1)
        frontier = np.flatnonzero(lab >= 0)
        level = 0
        while frontier.size:
            level += 1
            nbrs = _row_indices(adj, frontier)
            src = np.repeat(frontier, degree[frontier])
            fresh = lab[nbrs] < 0
            frontier, first = np.unique(nbrs[fresh], return_index=True)
            lab[frontier] = lab[src[fresh][first]]
            dist[frontier] = level
        cross = (lab[heads] != lab[adj.indices]) & (lab[heads] >= 0)
        if cross.any():
            best = min(best, float((dist[heads] + dist[adj.indices])[cross].min() + 1))
    return best


# ---------------------------------------------------------------------------
# Ray band covers
# ---------------------------------------------------------------------------


def _interval_rows(lo: np.ndarray, hi: np.ndarray, columns: int) -> sparse.csr_matrix:
    """The boolean CSR matrix whose row i holds the columns lo[i] .. hi[i],
    none when hi[i] = lo[i] - 1."""
    indptr = np.zeros(lo.size + 1, dtype=np.int64)
    np.cumsum(hi - lo + 1, out=indptr[1:])
    indices = np.arange(indptr[-1]) - np.repeat(indptr[:-1] - lo, np.diff(indptr))
    return sparse.csr_matrix((np.ones(indices.size, dtype=bool), indices, indptr),
                             shape=(lo.size, columns))


def _kron_power(a: sparse.csr_matrix, k: int) -> sparse.csr_matrix:
    """The Kronecker product of k >= 1 copies of a, in itertools.product order."""
    return a if k == 1 else sparse.kron(_kron_power(a, k - 1), a, format="csr")


class IntervalRelation:
    """A symmetric relation on a sorted 1-d sample, closed under the
    order-interval completion: with (x, y) related, every pair lying between
    them is related too. Stored as per-index reach [lo[i], hi[i]]."""

    def __init__(self, lo: np.ndarray, hi: np.ndarray):
        self.lo = lo
        self.hi = hi

    @classmethod
    def from_entourage(cls, e: Entourage, extra_steps: int) -> "IntervalRelation":
        """The interval completion of e and of the steps up to extra_steps.
        hi[x] is the greatest b over the pairs {a <= b} with a <= x <= b: a
        prefix maximum of each b scattered at its a, where the pairs with
        b < x stay below the start hi[x] >= x. lo is the mirror image."""
        n = e.space.n
        idx = np.arange(n)
        m = e.csr
        rows = np.repeat(idx, np.diff(m.indptr))
        a, b = np.minimum(rows, m.indices), np.maximum(rows, m.indices)
        lo = np.maximum(idx - extra_steps, 0)
        hi = np.minimum(idx + extra_steps, n - 1)
        np.minimum.at(lo, b, a)
        np.maximum.at(hi, a, b)
        return cls(np.minimum.accumulate(lo[::-1])[::-1], np.maximum.accumulate(hi))

    def composed(self, k: int) -> "IntervalRelation":
        """The k-fold composition of the relation with itself, k >= 0, as
        reaches lo_k = lo[lo_{k-1}] and hi_k = hi[hi_{k-1}]: k array lookups.

        Each row [lo[i], hi[i]] holds i, and lo and hi are non-decreasing:
        from_entourage starts from i -+ extra_steps, clipped, which is both,
        only widens rows, and ends on a suffix minimum and a prefix maximum.
        Row i of the k-th power is the union of the rows [lo[j], hi[j]] over
        j in row i of the (k-1)-th. Each of those rows holds its j, so the
        rows of consecutive j meet or abut, and the union runs from the
        least lo[j] to the greatest hi[j], which monotonicity puts at the
        ends of [lo_{k-1}[i], hi_{k-1}[i]].
        """
        lo, hi = np.arange(self.lo.size), np.arange(self.hi.size)
        for _ in range(k):
            lo, hi = self.lo[lo], self.hi[hi]
        return IntervalRelation(lo, hi)

    def to_entourage(self, space: Space) -> Entourage:
        """Row i holds the columns lo[i] .. hi[i]."""
        rows = _interval_rows(self.lo, self.hi, space.n)
        return Entourage(space, "pairs", _Rows(rows.indptr, rows.indices))


def ray_cell_cover(n: int, e: Entourage):
    """Cover the sampled positive cone R_+^n by n+1 families of band products.

    The driving relation is the interval completion of E augmented by the
    closed unit relation; its iterated images of {0} produce prefixes K_i of
    the sample, and the bands U_i = K_i \\ K_{i-n} multiply up into covering
    sets whose index tuples share a residue class mod n+1. Each family is
    disjoint for the n-fold product of the completed relation, and the cover
    spread is bounded by its (3n+6)-th power.

    Each set is a box, one band [bot_i, top_i] per axis. With B the bands x
    points indicator, a family's sets are the non-empty rows of the n-fold
    Kronecker power of its bands' rows of B. Boxes touch when their bands
    touch on every axis, as read from T = (B R B^T) > 0, R the completed
    relation; so a family's first touching pair in combinations order is
    the first entry above the diagonal of the Kronecker power of T on its
    bands. Every non-empty band is an axis band of some set, so the spread
    holds when each lies in the row of the (3n+6)-th power at its bottom.

    For n = 0 the construction degenerates to the partition of the ray into
    consecutive bands K_i \\ K_{i-1}, reported as a single family.
    """
    if n < 0:
        raise InvalidInputError("n must be >= 0")
    line = e.space
    if not isinstance(line.backend, GridMetric) or line.backend.dim != 1:
        raise InvalidInputError("ray cover needs a 1-d grid sample")
    coords = line.backend.coords[:, 0]
    if coords[0] < -FLOAT_TOL:
        raise InvalidInputError("ray sample must start at 0")
    step = line.backend.step
    unit_steps = int(math.floor(1.0 / step + FLOAT_TOL))
    if unit_steps < 1:
        raise InvalidInputError("sample step must be <= 1")
    rel = IntervalRelation.from_entourage(e.materialize(), unit_steps)

    m = line.n
    # kappa_{i+1} = reach of K_i = [0, kappa_i], hi being non-decreasing
    kappas = [int(rel.hi[0])]
    while kappas[-1] < m - 1:
        nxt = int(rel.hi[kappas[-1]])
        if nxt <= kappas[-1]:
            raise ResourceLimitError("sample region is not reached by iterated bands")
        kappas.append(nxt)
    # the residue argument may pick a band index up to n-1 past the top of
    # the sample; saturated copies keep those bands non-empty
    width = max(n, 1)
    top = np.array(kappas + [kappas[-1]] * width)
    bot = np.concatenate([np.zeros(width, dtype=np.int64), top[:-width] + 1])
    bands = _interval_rows(bot, top, m)

    if n <= 1:
        prod_space = line
    else:
        prod_space = Space.grid(n, [0.0] * n, [float(coords[-1])] * n, step)
        if prod_space.n != m ** n:
            raise InvalidInputError("product sample does not match axis sample")

    fam_bands = [np.flatnonzero(np.arange(top.size) % (n + 1) == r) for r in range(n + 1)]
    boxes = [_kron_power(bands[fb], width) for fb in fam_bands]
    kept = [np.flatnonzero(np.diff(b.indptr)) for b in boxes]
    ends = np.cumsum([0] + [k.size for k in kept]).tolist()
    families = [range(a, b) for a, b in zip(ends, ends[1:])]

    out = Cover(prod_space, sparse.vstack([b[k] for b, k in zip(boxes, kept)]), families,
                require_covering=False, canonicalize=False)
    missing = out.uncovered_points()
    claims = [holds("ray_cover.covers", not missing, missing[:3] if missing else None)]
    if n >= 1:
        touch = bands @ rel.to_entourage(line).matrix() @ bands.T
        dw = _first_touching_boxes(touch, fam_bands, kept, width, bot)
        full = bot <= top
        ok = bool(np.all(top[full] <= rel.composed(3 * n + 6).hi[bot[full]]))
        claims += [holds("ray_cover.families_disjoint", dw is None, dw),
                   claim("ray_cover.spread_bound", f"power {3 * n + 6}", ok, ok)]
    claims.append(count_at_most("ray_cover.multiplicity", multiplicity(out), n + 1))
    return out, certify(claims)


def _first_touching_boxes(touch: sparse.csr_matrix, fam_bands: list, kept: list,
                          width: int, bot: np.ndarray):
    """The first same-family pair of boxes, family by family and in
    combinations order, whose bands touch on every axis: (set a, set b,
    (per-axis band minima of a, of b)), or None. kept holds each family's
    non-empty boxes in product order; sets are numbered family by family."""
    start = 0
    for fb, k in zip(fam_bands, kept):
        t = sparse.triu(_kron_power(touch[fb][:, fb], width), k=1, format="coo")
        if t.nnz:
            first = np.lexsort((t.col, t.row))[0]
            pair = np.array([t.row[first], t.col[first]])
            sa, sb = (start + np.searchsorted(k, pair)).tolist()
            mins = bot[fb][np.array(np.unravel_index(pair, (fb.size,) * width))]
            return (sa, sb, (mins[:, 0].tolist(), mins[:, 1].tolist()))
        start += k.size
    return None


# ---------------------------------------------------------------------------
# Simplicial complexes and star covers
# ---------------------------------------------------------------------------


def star_lebesgue_bound(k: int) -> float:
    """The guaranteed Lebesgue number of a star cover at stability k."""
    if k < 1:
        raise InvalidInputError("stability must be >= 1")
    return 1.0 / math.sqrt(2 * k * (k + 1))


class SimplicialComplex:
    """A finite simplicial complex with explicit vertex coordinates.

    The closure of the given maximal simplices is computed eagerly. The
    geometric realization uses the affine (ambient euclidean) metric.
    """

    def __init__(self, coordinates, maximal: Sequence[Iterable[int]]):
        self.coords = np.asarray(coordinates, dtype=float)
        if self.coords.ndim != 2:
            raise InvalidInputError("coordinates must be a 2-d array")
        self.maximal = [tuple(sorted(set(int(v) for v in s))) for s in maximal]
        if not self.maximal:
            raise InvalidInputError("a complex needs at least one maximal simplex")
        for s in self.maximal:
            if not s or s[0] < 0 or s[-1] >= self.coords.shape[0]:
                raise InvalidInputError("maximal simplex has bad vertex index")
        faces: set[tuple[int, ...]] = set()
        for s in self.maximal:
            for size in range(1, len(s) + 1):
                faces.update(combinations(s, size))
        self.simplices = sorted(faces, key=lambda f: (len(f), f))
        self.dimension = max(len(s) for s in self.maximal) - 1

    def simplices_of_dim(self, d: int) -> list[tuple[int, ...]]:
        return [s for s in self.simplices if len(s) == d + 1]

    def pairwise_stability(self) -> int:
        """Largest k with two distinct k-simplices sharing a (k-1)-face."""
        best = 0
        for d in range(1, self.dimension + 1):
            cells = self.simplices_of_dim(d)
            shared = False
            facet_owner: dict[tuple, int] = {}
            for ci, cell in enumerate(cells):
                for facet in combinations(cell, d):
                    if facet in facet_owner and facet_owner[facet] != ci:
                        shared = True
                        break
                    facet_owner[facet] = ci
                if shared:
                    break
            if shared:
                best = d
        return best

    def sample(self, resolution: int = 12):
        """Barycentric lattice sample of the realization.

        Returns (space, carriers): a cloud Space over deduplicated sample
        points and, per point, the frozenset of vertices of its carrier (the
        unique simplex whose relative interior holds the point).
        """
        seen: dict[tuple, int] = {}
        coords: list[np.ndarray] = []
        carriers: list[frozenset[int]] = []
        for cell in self.maximal:
            verts = self.coords[list(cell)]
            k = len(cell)
            for combo in _compositions(resolution, k):
                pt = (np.array(combo, dtype=float) / resolution) @ verts
                key = tuple(np.round(pt, 9))
                carrier = frozenset(v for v, c in zip(cell, combo) if c > 0)
                if key in seen:
                    continue
                seen[key] = len(coords)
                coords.append(pt)
                carriers.append(carrier)
        space = Space.cloud(np.array(coords))
        return space, carriers


def _compositions(total: int, parts: int):
    """All tuples of non-negative ints of the given length summing to total."""
    if parts == 1:
        yield (total,)
        return
    for head in range(total + 1):
        for rest in _compositions(total - head, parts - 1):
            yield (head,) + rest


def star_cover(complex_: SimplicialComplex, stability: int, resolution: int = 12):
    """Open-star cover of the sampled realization.

    The declared stability is verified by scanning simplex pairs; a single
    top-dimensional cell also realizes the binding center-to-face distance
    of its own dimension, so stability == dimension is accepted for
    complexes with exactly one top cell even without a sharing pair.
    Guarantees: mesh <= 2, multiplicity = dim+1, discrete Lebesgue >=
    1/sqrt(2k(k+1)).
    """
    observed = complex_.pairwise_stability()
    top_cells = complex_.simplices_of_dim(complex_.dimension)
    degenerate_ok = (stability == complex_.dimension and len(top_cells) == 1)
    if stability != observed and not degenerate_ok:
        witness = None
        if observed > 0:
            witness = _stability_witness(complex_, observed)
        raise ContractViolationError(
            f"declared stability {stability} but simplex-pair scan gives {observed}",
            witness=witness)

    space, carriers = complex_.sample(resolution)
    vertex_ids = sorted({v for s in complex_.maximal for v in s})
    sets = []
    for v in vertex_ids:
        sets.append(tuple(i for i, car in enumerate(carriers) if v in car))
    out = Cover(space, sets, require_covering=True, canonicalize=False)
    msh, mult = mesh(out), multiplicity(out)
    return out, certify([
        at_most("star_cover.mesh", msh, 2),
        claim("star_cover.multiplicity", complex_.dimension + 1, mult,
              mult == complex_.dimension + 1),
        at_least("star_cover.lebesgue", lebesgue_number(out), star_lebesgue_bound(stability)),
    ])


def _stability_witness(complex_: SimplicialComplex, k: int):
    cells = complex_.simplices_of_dim(k)
    for a, b in combinations(cells, 2):
        if len(set(a) & set(b)) == k:
            return (a, b)
    return None


# ---------------------------------------------------------------------------
# Simplex grids and fully-labeled cells
# ---------------------------------------------------------------------------


class SimplexGrid:
    """Freudenthal's staircase subdivision of a geometric n-simplex at
    resolution m ("Simplizialzerlegungen von beschraenkter Flachheit",
    Ann. Math. 43, 1942), with an admissible vertex labeling.

    `vertices` is the int64 array (V, n+1) of integer barycentric
    coordinates b, each row summing to m, and `points` the float array of
    their positions. In the monotone chart y_i = b_i + ... + b_n
    (i = 1..n) the vertices are the lattice points m >= y_1 >= ... >= y_n
    >= 0, and a cell is a base point plus one permutation of the n unit
    steps that stays in the chart. Vertex ids number the points by first
    appearance in the walk over base points (lexicographic), permutations
    (lexicographic) and steps; `cells` is the int64 array (C, n+1) of each
    cell's vertex ids, ascending along a row, rows in lexicographic order.

    A labeling is admissible when every vertex lying in a face of the big
    simplex is labeled by one of that face's corners, i.e. the label index
    sits in the support of the barycentric coordinates. It may be assigned
    as a dict vertex id -> label or as a sequence, and is kept as an int64
    array.

    The vertex count C(m+n, n) and the walk's V n! (n+1) chain points are
    checked against POINT_CAP before anything is built.
    """

    def __init__(self, corners, resolution: int, labeling=None):
        self.corners = np.asarray(corners, dtype=float)
        self.n = self.corners.shape[0] - 1
        if resolution < 1:
            raise InvalidInputError("resolution must be >= 1")
        self.resolution = resolution
        _check_grid_size(resolution, self.n)
        self.vertices, self.cells = _staircase(resolution, self.n)
        # one batched product: (1, n+1) @ (n+1, d) per vertex rounds exactly
        # as the vector-matrix product b @ corners, where a plain B @ corners
        # may differ in the last bit
        self.points = np.matmul(self.vertices[:, None, :] / resolution, self.corners)[:, 0]
        self.labeling = labeling
        if labeling is not None:
            self.check_admissible()

    @property
    def labeling(self) -> Optional[np.ndarray]:
        return self._labels

    @labeling.setter
    def labeling(self, lab) -> None:
        if lab is not None:
            if isinstance(lab, dict):
                lab = [lab.get(v) for v in range(len(lab))]
            lab = np.asarray(lab)
            if lab.shape != (len(self.vertices),) or lab.dtype.kind not in "iu":
                raise InvalidInputError("labeling must assign a label to every vertex")
            lab = lab.astype(np.int64)
        self._labels = lab

    def support(self, vid: int) -> frozenset[int]:
        return frozenset(np.flatnonzero(self.vertices[vid] > 0).tolist())

    def check_admissible(self) -> None:
        lab = self.labeling
        if lab is None:
            raise InvalidInputError("labeling must assign a label to every vertex")
        ok = (lab >= 0) & (lab <= self.n)
        ok[ok] = self.vertices[ok, lab[ok]] > 0
        if not ok.all():
            vid = int(np.argmin(ok))
            raise InvalidInputError(
                f"labeling not admissible at vertex {vid}: "
                f"label {lab[vid]} outside support {sorted(self.support(vid))}")

    def cell_mesh(self) -> float:
        """The largest distance between two vertices of one cell."""
        pts = self.points[self.cells]
        i, j = np.triu_indices(self.n + 1, 1)
        return float(np.linalg.norm(pts[:, j] - pts[:, i], axis=-1).max(initial=0.0))

    def fully_labeled_cells(self) -> np.ndarray:
        """The cells whose n+1 labels are 0..n, as rows of vertex ids."""
        lab = self.labeling
        if lab is None:
            raise InvalidInputError("no labeling attached")
        hit = np.all(np.sort(lab[self.cells], axis=1) == np.arange(self.n + 1), axis=1)
        return self.cells[hit]


def _check_grid_size(m: int, n: int) -> None:
    """Reject a grid whose vertices or walk would pass POINT_CAP."""
    vertices = math.comb(m + n, n)
    if vertices > POINT_CAP:
        raise ResourceLimitError(
            f"a simplex grid of dimension {n} at resolution {m} has {vertices} vertices, "
            f"beyond the {POINT_CAP} point cap")
    walk = vertices * math.factorial(n) * (n + 1)
    if walk > POINT_CAP:
        raise ResourceLimitError(
            f"a simplex grid of dimension {n} at resolution {m} walks {walk} chain points, "
            f"beyond the {POINT_CAP} point cap")


def _staircase(m: int, n: int) -> tuple[np.ndarray, np.ndarray]:
    """(vertices, cells) of the staircase subdivision, as in SimplexGrid."""
    if n == 0:
        return np.array([[m]], dtype=np.int64), np.zeros((1, 1), dtype=np.int64)
    # the monotone lattice points, lexicographic: extend each prefix ending
    # in v by every value 0..v
    y = np.arange(m + 1, dtype=np.int64)[:, None]
    for _ in range(1, n):
        counts = y[:, -1] + 1
        starts = np.repeat(np.cumsum(counts) - counts, counts)
        y = np.column_stack([np.repeat(y, counts, axis=0),
                             np.arange(starts.size, dtype=np.int64) - starts])
    bary = -np.diff(np.column_stack([np.full(len(y), m), y, np.zeros(len(y), np.int64)]),
                    axis=1)
    # partial step sums of each permutation, (n!, n+1, n)
    perms = np.array(list(permutations(range(n))), dtype=np.int64)
    steps = np.zeros((len(perms), n + 1, n), dtype=np.int64)
    for t in range(n):
        steps[:, t + 1] = steps[:, t]
        steps[np.arange(len(perms)), t + 1, perms[:, t]] += 1
    # y + s stays in the chart iff b_0 >= s_1 and b_i >= s_{i+1} - s_i: the
    # chain from base y by permutation p does iff b[:n] >= need[p]
    need = np.diff(steps, axis=2, prepend=0).max(axis=1)
    ok = np.all(bary[:, None, :n] >= need[None], axis=2)
    # a point's mixed-radix key is linear in y, so chain keys are sums
    radix = (m + 1) ** np.arange(n - 1, -1, -1, dtype=np.int64)
    keys = y @ radix
    base, perm = np.nonzero(ok)
    walk = np.searchsorted(keys, keys[base][:, None] + (steps @ radix)[perm])
    seen, first = np.unique(walk, return_index=True)
    order = seen[np.argsort(first)]
    vid = np.empty(len(y), dtype=np.int64)
    vid[order] = np.arange(order.size)
    # each (base, permutation) pair is a distinct cell: its base is the
    # smallest point and its steps order the rest
    cells = np.sort(vid[walk], axis=1)
    return bary[order], cells[np.lexsort(cells.T[::-1])]


def sperner_find(grid: SimplexGrid) -> dict:
    """Exhaustively locate a fully-labeled cell of an admissibly labeled grid.

    Existence is guaranteed for admissible labelings; the count of fully
    labeled cells is reported as well (it is odd for every admissible
    labeling, which the test suite checks).
    """
    grid.check_admissible()
    hits = grid.fully_labeled_cells()
    if not len(hits):
        raise InternalCheckError("no fully-labeled cell found for an admissible labeling")
    return {"cell": tuple(hits[0].tolist()), "count": len(hits),
            "labels": grid.labeling[hits[0]].tolist()}


def nearest_corner_labeling(grid: SimplexGrid) -> list[int]:
    """Label each subdivision vertex by its heaviest barycentric coordinate,
    the lowest index on ties."""
    return np.argmax(grid.vertices, axis=1).tolist()


def random_admissible_labeling(grid: SimplexGrid, rng) -> list[int]:
    """Each vertex draws, in vertex order, a uniform corner of its support."""
    support = np.cumsum(grid.vertices > 0, axis=1)
    picks = np.array([rng.randint(0, k - 1) for k in support[:, -1].tolist()],
                     dtype=np.int64)
    return np.argmax(support > picks[:, None], axis=1).tolist()


# ---------------------------------------------------------------------------
# Lower-bound certificate on the positive cone
# ---------------------------------------------------------------------------


def pn_sample(n: int, xmax: float, step: float) -> Space:
    """Sample of the slab {x_n > 0, x_i <= x_n} inside [0, xmax]^n, in
    lexicographic order."""
    if abs(round(1.0 / step) - 1.0 / step) > FLOAT_TOL:
        raise InvalidInputError("step must divide 1")
    vals = np.arange(0.0, xmax + step / 2, step)
    pts = np.stack(np.meshgrid(*[vals] * n, indexing="ij"), axis=-1).reshape(-1, n)
    keep = (pts[:, -1] > FLOAT_TOL) & np.all(pts[:, :-1] <= pts[:, -1:] + FLOAT_TOL, axis=1)
    return Space.cloud(pts[keep])


def simplex_lower_bound_check(cover: Cover, n: int) -> dict:
    """Certificate that a uniformly bounded cover of the sampled positive
    cone with unit appetite has multiplicity at least n+1.

    Pipeline: project the cover spread onto the axes, push the unit chain of
    images out of the origin to find a level r that no covering set can span,
    place a simplex with corners on the sample, label a fine staircase
    subdivision admissibly from the cover, locate a fully-labeled cell, and
    return a sample point lying in n+1 covering sets drawn from n+1 distinct
    label classes. The returned membership list is re-verified from the raw
    cover data.
    """
    space = cover.space
    if not isinstance(space.backend, EuclideanMetric):
        raise InvalidInputError("needs a coordinate-backed sample")
    coords = space.backend.coords
    if coords.shape[1] != n:
        raise InvalidInputError("sample dimension does not match n")
    step = _min_positive_gap(coords)
    if abs(round(1.0 / step) - 1.0 / step) > FLOAT_TOL:
        raise InvalidInputError("sample step must divide 1")

    # deep-set table: for each sample point, the first set swallowing its
    # closed unit ball; a point without one shows the unit appetite fails
    unit = Entourage.radius(space, 1.0, closed=True)
    deep = first_container(unit.matrix().T, cover.incidence())
    if np.any(deep < 0):
        aw = int(np.argmax(deep < 0))
        raise ContractViolationError(
            f"cover lacks unit appetite at sample point {aw}", witness=aw)

    # axis relations from the cover spread: the chain of images of 0. Two
    # points are spread-related when a set holds both, so the image of vals
    # on an axis is every axis value of the sets holding a value in vals,
    # read from each set's members without forming the spread's pairs
    inc = cover.incidence()
    lattice = np.round(coords / step).astype(np.int64)
    holder = np.repeat(np.arange(inc.shape[0]), np.diff(inc.indptr))

    def image(ax: int, vals: np.ndarray) -> np.ndarray:
        """{a : (a, b) in the spread's axis-ax relation, b in vals}"""
        values = lattice[inc.indices, ax]
        hit = np.zeros(inc.shape[0], dtype=bool)
        hit[holder[np.isin(values, vals)]] = True
        return np.unique(values[hit[holder]])

    unit_lat = int(round(1.0 / step))
    chain = np.zeros(1, dtype=np.int64)
    for ax in range(n - 1):
        chain = np.union1d(image(ax, chain), [0])
    chain = np.unique(chain[:, None] + np.arange(-unit_lat, unit_lat + 1))
    chain = chain[chain >= 0]
    top = int(np.union1d(image(n - 1, chain), chain).max())
    r_lat = max(top + 1, unit_lat + 1)
    r = r_lat * step
    if r > coords[:, -1].max() + FLOAT_TOL:
        raise ContractViolationError(
            "cover is not uniformly bounded relative to the sampled region: "
            f"the level r = {r} does not fit", witness=r)

    corners = np.zeros((n + 1, n))
    for j in range(n):
        corners[j, j:] = r
    corners[n, n - 1] = 1.0

    # face label of every set: the first face level it misses, -1 if none
    on_face = np.column_stack([pred(coords) for pred in _face_predicates(n, r)])
    meets = (inc @ on_face.astype(np.int32)) > 0
    face = np.where(meets.all(axis=1), -1, np.argmin(meets, axis=1))

    def spanning(si: int) -> InternalCheckError:
        return InternalCheckError(
            f"covering set {si} meets every face level; this contradicts "
            "the spanning bound")

    in_simplex = (inc @ _in_simplex_mask(coords, corners).astype(np.int32)) > 0
    if np.any(in_simplex & (face < 0)):
        raise spanning(int(np.argmax(in_simplex & (face < 0))))

    # each vertex is labeled by the face label of the deep set of its anchor
    # sample point; that set may sit partly outside the simplex, and it still
    # gets a face label by the same spanning argument
    grid = _subdivide_to_mesh(corners, target=0.45)
    anchor = _snap_to_sample(grid.points, grid.vertices > 0, n, r, step, coords)
    vertex_set = deep[np.maximum(anchor, 0)]
    bad = (anchor < 0) | (face[vertex_set] < 0)
    if np.any(bad):
        vid = int(np.argmax(bad))
        if anchor[vid] < 0:
            raise InternalCheckError(f"no sample anchor near subdivision vertex {vid}")
        raise spanning(int(vertex_set[vid]))
    grid.labeling = face[vertex_set]

    found = sperner_find(grid)
    cell = list(found["cell"])
    cell_sets = np.unique(vertex_set[cell]).tolist()
    if len(cell_sets) != n + 1:
        raise InternalCheckError("fully-labeled cell does not span n+1 distinct sets")

    bary = np.mean(grid.points[cell], axis=0)
    witness_point = _search_common_point(coords, inc, cell_sets, bary)
    if witness_point is None:
        raise InternalCheckError("no sample point realizes the n+1-fold overlap")

    # independent re-verification from the incidence column of the point
    containing = np.flatnonzero(inc[:, witness_point].toarray()[:, 0]).tolist()
    if len(containing) < n + 1:
        raise InternalCheckError("certificate failed the raw recount")

    return {
        "point": int(witness_point),
        "sets": cell_sets,
        "all_containing_sets": containing,
        "r": r,
        "corners": corners.tolist(),
        "cell": cell,
        "fully_labeled_count": found["count"],
    }


def _face_predicates(n: int, r: float):
    """Vectorized face-level predicates, index i matching the face opposite
    corner i. They relax the exact faces just enough that a covering set
    meeting every level is forced to span past the level r, which the image
    chain of the spread rules out.

    With coordinates x_1..x_n (0-indexed columns 0..n-1):
      level 0:    x_1 = 0            (n = 1: 0 <= x_1 <= 1)
      level j:    x_j = x_{j+1}      for j = 1..n-2
      level n-1:  0 <= x_n - x_{n-1} <= 1
      level n:    x_n = r
    """
    if n == 1:
        return [
            lambda pts: (pts[:, 0] >= -FLOAT_TOL) & (pts[:, 0] <= 1 + FLOAT_TOL),
            lambda pts: np.abs(pts[:, 0] - r) <= FLOAT_TOL,
        ]
    preds = [lambda pts: np.abs(pts[:, 0]) <= FLOAT_TOL]
    for j in range(1, n - 1):
        preds.append(lambda pts, j=j: np.abs(pts[:, j - 1] - pts[:, j]) <= FLOAT_TOL)
    preds.append(lambda pts: (pts[:, n - 1] - pts[:, n - 2] >= -FLOAT_TOL)
                 & (pts[:, n - 1] - pts[:, n - 2] <= 1 + FLOAT_TOL))
    preds.append(lambda pts: np.abs(pts[:, n - 1] - r) <= FLOAT_TOL)
    return preds


def _in_simplex_mask(coords: np.ndarray, corners: np.ndarray) -> np.ndarray:
    """Membership of sample points in the closed simplex: barycentric
    coordinates of all points from one least-squares solve."""
    A = np.vstack([corners.T, np.ones(corners.shape[0])])
    b = np.vstack([coords.T, np.ones(coords.shape[0])])
    lam = np.linalg.lstsq(A, b, rcond=None)[0]
    return (np.linalg.norm(A @ lam - b, axis=0) < 1e-7) & np.all(lam > -1e-9, axis=0)


def _subdivide_to_mesh(corners: np.ndarray, target: float) -> SimplexGrid:
    diam = 0.0
    for i in range(corners.shape[0]):
        diam = max(diam, float(np.linalg.norm(corners - corners[i], axis=1).max()))
    res = max(2, int(math.ceil(diam * max(1, corners.shape[1]) / target)))
    grid = SimplexGrid(corners, res)
    while grid.cell_mesh() > target and res < 4000:
        res = int(res * 1.5) + 1
        grid = SimplexGrid(corners, res)
    return grid


def _snap_to_sample(v: np.ndarray, support: np.ndarray, n: int, r: float,
                    step: float, coords: np.ndarray) -> np.ndarray:
    """Round subdivision vertices (rows of v, with boolean barycentric
    supports) to feasible sample points that still sit on every face level
    the vertex sits on: the index of each vertex's sample point, or -1 when
    the rounded point is no sample point or lies farther than 1 away."""
    x = np.round(v / step) * step
    # restore exact face memberships broken by rounding
    if n >= 2:
        x[~support[:, 0], 0] = 0.0
        for j in range(1, n - 1):
            off = ~support[:, j]
            x[off, j - 1] = x[off, j]
        off = ~support[:, n - 1]
        diff = x[off, n - 1] - x[off, n - 2]
        x[off, n - 1] = x[off, n - 2] + np.minimum(np.maximum(diff, 0.0), 1.0)
        x[~support[:, n], n - 1] = r
    else:
        off = ~support[:, 0]
        x[off, 0] = np.minimum(np.maximum(x[off, 0], step), 1.0)
        x[~support[:, 1], 0] = r
    # feasibility: inside the cone, positive last coordinate
    x[:, n - 1] = np.maximum(x[:, n - 1], step)
    for i in range(n - 1):
        x[:, i] = np.minimum(np.maximum(x[:, i], 0.0), x[:, n - 1])
    got = _row_lookup(np.round(coords, 9), np.round(x, 9))
    # |x - v| as np.linalg.norm takes it for one vector: sqrt of a dot product
    d = x - v
    near = np.sqrt(np.matmul(d[:, None, :], d[:, :, None])[:, 0, 0]) <= 1.0
    return np.where(near, got, -1)


def _row_lookup(table: np.ndarray, queries: np.ndarray) -> np.ndarray:
    """For each query row, the last table row equal to it (== on floats, so
    -0.0 matches 0.0), or -1: one sort of the table and query rows."""
    _, group = np.unique(np.vstack([table, queries]), axis=0, return_inverse=True)
    group = group.reshape(-1)
    last = np.full(group.max() + 1, -1, dtype=np.int64)
    np.maximum.at(last, group[:len(table)], np.arange(len(table)))
    return last[group[len(table):]]


def _search_common_point(coords: np.ndarray, inc: sparse.csr_matrix, wanted: list[int],
                         center: np.ndarray) -> Optional[int]:
    """The point of all the wanted sets nearest to center, the lowest index
    on ties, or None when they share no point."""
    counts = np.asarray(inc[wanted].sum(axis=0)).ravel()
    cands = np.flatnonzero(counts == len(wanted))
    if cands.size == 0:
        return None
    d = np.linalg.norm(coords[cands] - center, axis=1)
    return int(cands[int(np.argmin(d))])
