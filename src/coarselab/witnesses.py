"""Concrete cover generators and the combinatorial lower-bound certificate.

Upper-bound witnesses: shifted cube covers of grid samples, parity covers of
trees, band covers of sampled rays and their products, and open-star covers
of simplicial complexes. The lower-bound side triangulates a simplex placed
inside the positive cone, labels it admissibly from a given cover, and
extracts a sample point that provably lies in n+1 distinct covering sets.
"""

from __future__ import annotations

import math
from itertools import combinations, permutations, product as iproduct
from typing import Iterable, Optional, Sequence

import numpy as np
from scipy import sparse

from .covers import Cover, cover_entourage, first_container, lebesgue_number, mesh, multiplicity
from .errors import (ContractViolationError, InternalCheckError, InvalidInputError,
                     ResourceLimitError)
from .spaces import Entourage, Space, RADIUS_TOL
from .transforms import ColoredCover, _claim, _ensure

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
    if space.kind not in ("grid", "cloud"):
        raise InvalidInputError("cube cover needs a coordinate-backed space")
    coords = space.meta["coords"]
    if coords.shape[1] != n:
        raise InvalidInputError("space dimension does not match n")
    if a <= 0:
        raise InvalidInputError("edge length must be positive")
    step = space.meta.get("step")
    if step is None:
        step = _min_positive_gap(coords)
    if step > a / (2 * (n + 1)) + FLOAT_TOL:
        raise InvalidInputError(
            f"grid step {step} too coarse; need step <= a/(2(n+1)) = {a / (2 * (n + 1))}")

    sets: list[tuple[int, ...]] = []
    families: list[list[int]] = []
    for i in range(n + 1):
        offset = a * i / (n + 1)
        u = (coords - offset) / a
        z = np.round(u)
        inside = np.all(np.abs(u - z) < 0.5 - RADIUS_TOL, axis=1)
        fam: list[int] = []
        buckets: dict[tuple, list[int]] = {}
        for idx in np.nonzero(inside)[0]:
            buckets.setdefault(tuple(int(v) for v in z[idx]), []).append(int(idx))
        for key in sorted(buckets):
            fam.append(len(sets))
            sets.append(tuple(buckets[key]))
        families.append(fam)

    out = ColoredCover(space, sets, families, Entourage.diagonal(space),
                       require_covering=True, canonicalize=False)
    guarantees = []
    mult = multiplicity(out)
    guarantees.append(_claim("cube_cover.multiplicity", n + 1, mult, mult <= n + 1))
    leb = lebesgue_number(out)
    lb = a / (2 * (n + 1)) - step
    guarantees.append(_claim("cube_cover.lebesgue", f">= {lb}", leb, leb >= lb - FLOAT_TOL))
    msh = mesh(out)
    mb = a * math.sqrt(n) + step
    guarantees.append(_claim("cube_cover.mesh", f"<= {mb}", msh, msh <= mb + FLOAT_TOL))
    _ensure(guarantees)
    return out, guarantees


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
    """
    if space.kind != "tree":
        raise InvalidInputError("tree cover needs a tree-backed space")
    if L <= 0:
        raise InvalidInputError("L must be positive")
    adj = space.meta["adj"]
    n = space.n
    lp = int(math.floor(2 * L)) + 1
    depth, parent = _bfs_tree(adj, root)

    def ancestor(v: int, target_depth: int) -> int:
        while depth[v] > target_depth:
            v = parent[v]
        return v

    keys: dict[int, tuple] = {}
    for v in range(n):
        grade = depth[v] // lp
        if grade == 0:
            keys[v] = (0, root)
        else:
            tau = lp * (grade - 0.5)
            keys[v] = (grade, ancestor(v, int(math.ceil(tau - FLOAT_TOL))))
    classes: dict[tuple, list[int]] = {}
    for v, key in sorted(keys.items()):
        classes.setdefault(key, []).append(v)

    hop = int(math.ceil(L)) - 1  # d(x, class) < L on integer distances
    sets: list[tuple[int, ...]] = []
    families: list[list[int]] = [[], []]
    class_list = sorted(classes)
    for key in class_list:
        members = classes[key]
        grown = _bfs_ball(adj, members, hop)
        families[key[0] % 2].append(len(sets))
        sets.append(tuple(sorted(grown)))

    out = ColoredCover(space, sets, families, Entourage.diagonal(space),
                       require_covering=True, canonicalize=False)
    guarantees = []
    mult = multiplicity(out)
    guarantees.append(_claim("tree_cover.multiplicity", 2, mult, mult <= 2))
    msh = mesh(out)
    bound = 3 * lp + 2 * L
    guarantees.append(_claim("tree_cover.mesh", f"<= {bound}", msh, msh <= bound + FLOAT_TOL))
    sep = _class_separation(space, classes, class_list)
    guarantees.append(_claim("tree_cover.class_separation", f">= {lp}", sep,
                             sep >= lp - FLOAT_TOL))
    _ensure(guarantees)
    return out, guarantees


def _bfs_tree(adj, root):
    n = len(adj)
    depth = np.full(n, -1, dtype=np.int64)
    parent = np.full(n, -1, dtype=np.int64)
    depth[root] = 0
    frontier = [root]
    while frontier:
        nxt = []
        for v in frontier:
            for w in adj[v]:
                if depth[w] < 0:
                    depth[w] = depth[v] + 1
                    parent[w] = v
                    nxt.append(w)
        frontier = nxt
    return depth, parent


def _bfs_ball(adj, sources: Iterable[int], hops: int) -> set[int]:
    seen = set(sources)
    frontier = list(seen)
    for _ in range(hops):
        nxt = []
        for v in frontier:
            for w in adj[v]:
                if w not in seen:
                    seen.add(w)
                    nxt.append(w)
        frontier = nxt
    return seen


def _class_separation(space: Space, classes: dict, class_list: list) -> float:
    """Min distance between distinct same-parity classes, exhaustively."""
    best = math.inf
    by_parity: dict[int, list] = {0: [], 1: []}
    for key in class_list:
        by_parity[key[0] % 2].append(key)
    for _, group in sorted(by_parity.items()):
        for ka, kb in combinations(group, 2):
            mem_b = np.array(classes[kb], dtype=np.int64)
            for v in classes[ka]:
                best = min(best, float(space.dist_row(v)[mem_b].min()))
    return best


# ---------------------------------------------------------------------------
# Ray band covers
# ---------------------------------------------------------------------------


class IntervalRelation:
    """A symmetric relation on a sorted 1-d sample, closed under the
    order-interval completion: with (x, y) related, every pair lying between
    them is related too. Stored as per-index reach [lo[i], hi[i]]."""

    def __init__(self, lo: np.ndarray, hi: np.ndarray):
        self.lo = lo
        self.hi = hi

    @classmethod
    def from_entourage(cls, e: Entourage, extra_steps: int) -> "IntervalRelation":
        n = e.space.n
        idx = np.arange(n)
        lo = np.maximum(idx - extra_steps, 0)
        hi = np.minimum(idx + extra_steps, n - 1)
        for i, j in e.pairs():
            a, b = (i, j) if i <= j else (j, i)
            lo[a:b + 1] = np.minimum(lo[a:b + 1], a)
            hi[a:b + 1] = np.maximum(hi[a:b + 1], b)
        return cls(lo, hi)

    def to_entourage(self, space: Space) -> Entourage:
        """Row i holds the columns lo[i] .. hi[i]."""
        n = space.n
        indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(self.hi - self.lo + 1, out=indptr[1:])
        indices = np.arange(indptr[-1]) - np.repeat(indptr[:-1] - self.lo, np.diff(indptr))
        return Entourage.from_matrix(space, sparse.csr_matrix(
            (np.ones(indices.size, dtype=bool), indices, indptr), shape=(n, n)))


def ray_cell_cover(n: int, e: Entourage, bound: float):
    """Cover the sampled positive cone R_+^n by n+1 families of band products.

    The driving relation is the interval completion of E augmented by the
    closed unit relation; its iterated images of {0} produce prefixes K_i of
    the sample, and the bands U_i = K_i \\ K_{i-n} multiply up into covering
    sets whose index tuples share a residue class mod n+1. Each family is
    disjoint for the n-fold product of the completed relation, and the cover
    spread is bounded by its (3n+6)-th power.

    For n = 0 the construction degenerates to the partition of the ray into
    consecutive bands K_i \\ K_{i-1}, reported as a single family.
    """
    if n < 0:
        raise InvalidInputError("n must be >= 0")
    line = e.space
    if line.kind != "grid" or line.meta["dim"] != 1:
        raise InvalidInputError("ray cover needs a 1-d grid sample")
    coords = line.meta["coords"][:, 0]
    if coords[0] < -FLOAT_TOL:
        raise InvalidInputError("ray sample must start at 0")
    step = line.meta["step"]
    unit_steps = int(math.floor(1.0 / step + FLOAT_TOL))
    if unit_steps < 1:
        raise InvalidInputError("sample step must be <= 1")
    rel = IntervalRelation.from_entourage(e.materialize(), unit_steps)

    m = line.n
    # prefix reach: kappa_{i+1} = max reach over K_i = [0, kappa_i]
    pref_hi = np.maximum.accumulate(rel.hi)
    kappas = [int(rel.hi[0])]
    while kappas[-1] < m - 1:
        nxt = int(pref_hi[kappas[-1]])
        if nxt <= kappas[-1]:
            raise ResourceLimitError("sample region is not reached by iterated bands")
        kappas.append(nxt)
    # the residue argument may pick a band index up to n-1 past the top of
    # the sample; saturated copies keep those bands non-empty
    kappas.extend([kappas[-1]] * max(n, 1))
    width = max(n, 1)

    def band(i: int) -> range:
        top = kappas[i] if i >= 0 else -1
        bot = kappas[i - width] if i - width >= 0 else -1
        return range(bot + 1, top + 1)

    bands = [band(i) for i in range(len(kappas))]

    if n <= 1:
        prod_space = line
        strides = [1]
    else:
        prod_space = Space.grid(n, [0.0] * n, [float(coords[-1])] * n, step)
        if prod_space.n != m ** n:
            raise InvalidInputError("product sample does not match axis sample")
        strides = [m ** (n - 1 - k) for k in range(n)]

    families: list[list[int]] = []
    sets: list[tuple[int, ...]] = []
    n_fam = n + 1 if n >= 1 else 1
    factors = max(n, 1)
    for r in range(n_fam):
        fam: list[int] = []
        idx_choices = [i for i in range(len(bands)) if i % (n + 1) == r] if n >= 1 \
            else list(range(len(bands)))
        for combo in iproduct(*[idx_choices] * factors):
            members: list[int] = []
            pieces = [bands[i] for i in combo]
            if any(len(p) == 0 for p in pieces):
                continue
            for tup in iproduct(*pieces):
                members.append(sum(t * s for t, s in zip(tup, strides)))
            fam.append(len(sets))
            sets.append(tuple(sorted(members)))
        families.append(fam)

    rel_ent = rel.to_entourage(line)
    out = ColoredCover(prod_space, sets, families, rel_ent,
                       require_covering=False, canonicalize=False)
    guarantees = []
    missing = out.uncovered_points()
    guarantees.append(_claim("ray_cover.covers", True, not missing, not missing,
                             missing[:3] if missing else None))
    if n >= 1:
        dw = _ray_family_witness(out, rel, strides, m)
        guarantees.append(_claim("ray_cover.families_disjoint", True, dw is None,
                                 dw is None, dw))
        power = rel_ent.power(3 * n + 6)
        ok = _ray_spread_ok(out, power, strides, m)
        guarantees.append(_claim("ray_cover.spread_bound", f"power {3 * n + 6}", ok, ok))
    mult = multiplicity(out)
    guarantees.append(_claim("ray_cover.multiplicity", n_fam, mult, mult <= n_fam))
    _ensure(guarantees)
    return out, guarantees


def _factor_indices(flat: int, strides: list[int], m: int) -> list[int]:
    out = []
    for s in strides:
        out.append(flat // s % m)
    return out


def _ray_family_witness(cover: ColoredCover, rel: IntervalRelation,
                        strides: list[int], m: int):
    """Check family disjointness against the factor-wise completed relation."""
    for fam in cover.families:
        for sa, sb in combinations(fam, 2):
            a0 = _factor_indices(cover.sets[sa][0], strides, m)
            b0 = _factor_indices(cover.sets[sb][0], strides, m)
            # straddling requires every factor pair to be related; factor
            # bands are intervals so corner representatives suffice,
            # but verify honestly over all factor pairs of extremes
            if _bands_touch(cover.sets[sa], cover.sets[sb], rel, strides, m):
                return (sa, sb, (a0, b0))
    return None


def _bands_touch(set_a, set_b, rel: IntervalRelation, strides, m) -> bool:
    fa = np.array([_factor_indices(p, strides, m) for p in set_a])
    fb = np.array([_factor_indices(p, strides, m) for p in set_b])
    for k in range(len(strides)):
        amin, amax = fa[:, k].min(), fa[:, k].max()
        bmin, bmax = fb[:, k].min(), fb[:, k].max()
        touched = False
        for u in range(amin, amax + 1):
            if not (rel.hi[u] < bmin or rel.lo[u] > bmax):
                touched = True
                break
        if not touched:
            return False
    return True


def _ray_spread_ok(cover: ColoredCover, factor_power: Entourage,
                   strides, m) -> bool:
    for s in cover.sets:
        fa = np.array([_factor_indices(p, strides, m) for p in s])
        for k in range(len(strides)):
            lo, hi = int(fa[:, k].min()), int(fa[:, k].max())
            if not factor_power.contains_pair(lo, hi):
                return False
    return True


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
        for s in self.maximal:
            if not s or s[-1] >= self.coords.shape[0]:
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
    guarantees = []
    msh = mesh(out)
    guarantees.append(_claim("star_cover.mesh", "<= 2", msh, msh <= 2 + FLOAT_TOL))
    mult = multiplicity(out)
    guarantees.append(_claim("star_cover.multiplicity", complex_.dimension + 1, mult,
                             mult == complex_.dimension + 1))
    leb = lebesgue_number(out)
    lam = star_lebesgue_bound(stability)
    guarantees.append(_claim("star_cover.lebesgue", f">= {lam}", leb,
                             leb >= lam - FLOAT_TOL))
    _ensure(guarantees)
    return out, guarantees


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
    """A staircase subdivision of a geometric n-simplex at a given resolution,
    with an admissible vertex labeling.

    Vertices carry integer barycentric coordinates summing to the resolution.
    A labeling is admissible when every vertex lying in a face of the big
    simplex is labeled by one of that face's corners, i.e. the label index
    sits in the support of the barycentric coordinates.
    """

    def __init__(self, corners, resolution: int,
                 labeling: Optional[dict[int, int]] = None):
        self.corners = np.asarray(corners, dtype=float)
        self.n = self.corners.shape[0] - 1
        if resolution < 1:
            raise InvalidInputError("resolution must be >= 1")
        self.resolution = resolution
        self.vertices: list[tuple[int, ...]] = []
        self._vid: dict[tuple[int, ...], int] = {}
        self.cells: list[tuple[int, ...]] = []
        self._build()
        self.labeling = labeling
        if labeling is not None:
            self.check_admissible()

    # staircase cells through the monotone-coordinate chart: a lattice point
    # is y = (y_1 >= ... >= y_n), a cell is a base point plus a permutation
    # of unit steps that stays monotone
    def _build(self):
        m, n = self.resolution, self.n
        if n == 0:
            self.vertices = [(m,)]
            self._vid[(m,)] = 0
            self.cells = [(0,)]
            return

        def y_to_bary(y: tuple[int, ...]) -> tuple[int, ...]:
            prev = m
            out = []
            for val in y:
                out.append(prev - val)
                prev = val
            out.append(prev)
            return tuple(out)

        def valid(y) -> bool:
            prev = m
            for val in y:
                if val > prev or val < 0:
                    return False
                prev = val
            return True

        def vid(y) -> int:
            b = y_to_bary(y)
            got = self._vid.get(b)
            if got is None:
                got = len(self.vertices)
                self._vid[b] = got
                self.vertices.append(b)
            return got

        lattice = [y for y in iproduct(range(m + 1), repeat=n) if valid(y)]
        for y in lattice:
            for perm in permutations(range(n)):
                chain = [tuple(y)]
                ok = True
                cur = list(y)
                for axis in perm:
                    cur[axis] += 1
                    if not valid(cur):
                        ok = False
                        break
                    chain.append(tuple(cur))
                if ok:
                    self.cells.append(tuple(vid(y2) for y2 in chain))
        self.cells = sorted(set(tuple(sorted(c)) for c in self.cells))
        self.cells = [c for c in self.cells if len(set(c)) == self.n + 1]

    def vertex_point(self, vid: int) -> np.ndarray:
        b = np.array(self.vertices[vid], dtype=float) / self.resolution
        return b @ self.corners

    def support(self, vid: int) -> frozenset[int]:
        return frozenset(i for i, c in enumerate(self.vertices[vid]) if c > 0)

    def check_admissible(self) -> None:
        lab = self.labeling
        if lab is None or len(lab) != len(self.vertices):
            raise InvalidInputError("labeling must assign a label to every vertex")
        for vid in range(len(self.vertices)):
            if lab[vid] not in self.support(vid):
                raise InvalidInputError(
                    f"labeling not admissible at vertex {vid}: "
                    f"label {lab[vid]} outside support {sorted(self.support(vid))}")

    def cell_mesh(self) -> float:
        """The largest distance between two vertices of one cell."""
        verts = np.array([self.vertex_point(v) for v in range(len(self.vertices))])
        pts = verts[np.array(self.cells)]
        i, j = np.triu_indices(self.n + 1, 1)
        return float(np.linalg.norm(pts[:, j] - pts[:, i], axis=-1).max(initial=0.0))

    def fully_labeled_cells(self) -> list[tuple[int, ...]]:
        lab = self.labeling
        if lab is None:
            raise InvalidInputError("no labeling attached")
        out = []
        want = set(range(self.n + 1))
        for cell in self.cells:
            if {lab[v] for v in cell} == want:
                out.append(cell)
        return out


def sperner_find(grid: SimplexGrid) -> dict:
    """Exhaustively locate a fully-labeled cell of an admissibly labeled grid.

    Existence is guaranteed for admissible labelings; the count of fully
    labeled cells is reported as well (it is odd for every admissible
    labeling, which the test suite checks).
    """
    grid.check_admissible()
    hits = grid.fully_labeled_cells()
    if not hits:
        raise InternalCheckError("no fully-labeled cell found for an admissible labeling")
    return {"cell": hits[0], "count": len(hits),
            "labels": [grid.labeling[v] for v in hits[0]]}


def nearest_corner_labeling(grid: SimplexGrid) -> dict[int, int]:
    """Label each subdivision vertex by its heaviest barycentric coordinate."""
    lab = {}
    for vid, b in enumerate(grid.vertices):
        best = max(range(len(b)), key=lambda i: (b[i], -i))
        lab[vid] = best
    return lab


def constant_interior_labeling(grid: SimplexGrid, label: int = 0) -> dict[int, int]:
    """Interior vertices all get one label; face vertices take their lowest
    admissible corner."""
    lab = {}
    for vid in range(len(grid.vertices)):
        sup = grid.support(vid)
        lab[vid] = label if len(sup) == grid.n + 1 else min(sup)
    return lab


def random_admissible_labeling(grid: SimplexGrid, rng) -> dict[int, int]:
    lab = {}
    for vid in range(len(grid.vertices)):
        sup = sorted(grid.support(vid))
        lab[vid] = sup[rng.randint(0, len(sup) - 1)]
    return lab


# ---------------------------------------------------------------------------
# Lower-bound certificate on the positive cone
# ---------------------------------------------------------------------------


def pn_sample(n: int, xmax: float, step: float) -> Space:
    """Sample of the slab {x_n > 0, x_i <= x_n} inside [0, xmax]^n."""
    if abs(round(1.0 / step) - 1.0 / step) > FLOAT_TOL:
        raise InvalidInputError("step must divide 1")
    vals = np.arange(0.0, xmax + step / 2, step)
    pts = []
    for tup in iproduct(vals, repeat=n):
        x = np.array(tup)
        if x[-1] > FLOAT_TOL and np.all(x[:-1] <= x[-1] + FLOAT_TOL):
            pts.append(x)
    return Space.cloud(np.array(pts))


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
    if space.kind not in ("cloud", "grid"):
        raise InvalidInputError("needs a coordinate-backed sample")
    coords = space.meta["coords"]
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

    # axis relations from the cover spread
    spread = cover_entourage(cover).matrix().tocoo()
    rows, cols = spread.row, spread.col
    lattice = np.round(coords / step).astype(np.int64)
    width = int(lattice.max()) + 1

    axis_rel: list[set[tuple[int, int]]] = []
    for ax in range(n):
        pr = lattice[rows, ax]
        pc = lattice[cols, ax]
        axis_rel.append(set(zip(pr.tolist(), pc.tolist())))

    def rel_image(rel: set, vals: set) -> set:
        return {a for a, b in rel if b in vals}

    unit_lat = int(round(1.0 / step))
    chain = {0}
    for ax in range(n - 1):
        chain = rel_image(axis_rel[ax], chain)
        chain.add(0)
    chain = {v + d for v in chain for d in range(-unit_lat, unit_lat + 1) if v + d >= 0}
    chain = rel_image(axis_rel[n - 1], chain) | chain
    top = max(chain) if chain else 0
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

    faces = _face_predicates(n, r)
    simplex_pts = _in_simplex_mask(coords, corners)

    def face_label(si: int) -> int:
        """The first face level that covering set si misses."""
        pts = coords[list(cover.sets[si])]
        for i, pred in enumerate(faces):
            if not np.any(pred(pts)):
                return i
        raise InternalCheckError(
            f"covering set {si} meets every face level; this contradicts "
            "the spanning bound")

    assignment = {si: face_label(si) for si, s in enumerate(cover.sets)
                  if np.any(simplex_pts[list(s)])}

    coord_index = {tuple(np.round(c, 9)): i for i, c in enumerate(coords)}

    grid = _subdivide_to_mesh(corners, target=0.45)
    labeling: dict[int, int] = {}
    anchors: dict[int, int] = {}
    for vid in range(len(grid.vertices)):
        v = grid.vertex_point(vid)
        sup = grid.support(vid)
        anchor = _snap_to_sample(v, sup, n, r, step, coord_index)
        if anchor is None:
            raise InternalCheckError(f"no sample anchor near subdivision vertex {vid}")
        si = int(deep[anchor])
        if si not in assignment:
            # the anchor's deep set may sit partly outside the simplex; it
            # still gets a face label by the same spanning argument
            assignment[si] = face_label(si)
        anchors[vid] = si
        labeling[vid] = assignment[si]
    grid.labeling = labeling
    grid.check_admissible()

    found = sperner_find(grid)
    cell = found["cell"]
    cell_sets = sorted({anchors[v] for v in cell})
    if len(cell_sets) != n + 1:
        raise InternalCheckError("fully-labeled cell does not span n+1 distinct sets")

    bary = np.mean([grid.vertex_point(v) for v in cell], axis=0)
    witness_point = _search_common_point(coords, cover.sets, cell_sets, bary)
    if witness_point is None:
        raise InternalCheckError("no sample point realizes the n+1-fold overlap")

    # independent re-verification from raw cover data
    containing = [si for si in range(len(cover.sets))
                  if witness_point in set(cover.sets[si])]
    if len(containing) < n + 1:
        raise InternalCheckError("certificate failed the raw recount")

    return {
        "point": int(witness_point),
        "sets": [int(s) for s in cell_sets],
        "all_containing_sets": containing,
        "r": r,
        "corners": corners.tolist(),
        "cell": [int(v) for v in cell],
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
    """Membership of sample points in the closed simplex, via least squares
    on barycentric coordinates."""
    n = corners.shape[1]
    A = np.vstack([corners.T, np.ones(corners.shape[0])])
    mask = np.zeros(coords.shape[0], dtype=bool)
    for i, x in enumerate(coords):
        b = np.concatenate([x, [1.0]])
        lam, res, *_ = np.linalg.lstsq(A, b, rcond=None)
        recon = A @ lam
        if np.linalg.norm(recon - b) < 1e-7 and np.all(lam > -1e-9):
            mask[i] = True
    return mask


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


def _snap_to_sample(v: np.ndarray, support: frozenset[int], n: int, r: float,
                    step: float, coord_index: dict) -> Optional[int]:
    """Round a subdivision vertex to a feasible sample point that still sits
    on every face level the vertex sits on."""
    x = np.round(v / step) * step
    # restore exact face memberships broken by rounding
    if n >= 2:
        if 0 not in support:
            x[0] = 0.0
        for j in range(1, n - 1):
            if j not in support:
                x[j - 1] = x[j]
        if (n - 1) not in support:
            diff = x[n - 1] - x[n - 2]
            x[n - 1] = x[n - 2] + min(max(diff, 0.0), 1.0)
        if n not in support:
            x[n - 1] = r
    else:
        if 0 not in support:
            x[0] = min(max(x[0], step), 1.0)
        if 1 not in support:
            x[0] = r
    # feasibility: inside the cone, positive last coordinate
    x[n - 1] = max(x[n - 1], step)
    for i in range(n - 1):
        x[i] = min(max(x[i], 0.0), x[n - 1])
    got = coord_index.get(tuple(np.round(x, 9)))
    if got is not None and np.linalg.norm(x - v) <= 1.0:
        return got
    return None


def _search_common_point(coords: np.ndarray, sets: Sequence[tuple[int, ...]],
                         wanted: list[int], center: np.ndarray) -> Optional[int]:
    common = set(sets[wanted[0]]).intersection(*(sets[si] for si in wanted[1:]))
    cands = np.array(sorted(common), dtype=np.int64)
    if cands.size == 0:
        return None
    d = np.linalg.norm(coords[cands] - center, axis=1)
    return int(cands[int(np.argmin(d))])
