"""Cover-to-cover constructions behind the dimension bounds.

Four constructions live here:

  colorize        split a low-multiplicity cover with enough appetite into
                  L-disjoint color families (multiplicity route -> family route)
  expand          fatten L^2-disjoint families into a cover with appetite L
                  (family route -> appetite route)
  merge_union     combine covers of two overlapping pieces into one cover of
                  the union with the same family count
  product_refine  refine the product of two covers so the family count drops
                  from (n+1)(m+1) to n+m+1

Each returns (result, guarantees) where guarantees is a list of verified
claim records; callers can embed them in reports unchanged.

Every step works on incidence matrices (rows are sets, columns points), a
whole level of sets at a time: intersections are one product of a combos x
sets indicator with the sets, interiors one product with the relation,
fattening one product with its transpose, products of cuts one Kronecker
product, and the attach step of merge_union one product of an attach
matrix with the A-sets.

No power of L, no cover spread M^T M and no composite relation is formed
to certify a construction; each hypothesis is an inclusion decided from M
and L themselves:

  interiors    int_{L^k}(U) is k erosions by L (see interior)
  appetite     L^k(x) fits in a set exactly when x lies in the set's
               L^k-interior, so the k-fold eroded sets decide it
  disjointness two sets of a family are R-disjoint exactly when the forward
               image R[U] = {y | (x, y) in R, x in U} misses V; for R a
               chain of L and of the spreads delta = M^T M + I that image is
               a chain of fattenings, rows @ L and rows + (rows @ M^T) @ M
  spreads      M^T M lies inside N^T N when every row of M lies in a row
               of N, one first_container call; a set that fails it is
               tested pair by pair against the bound's rows at its points

Only a failing family builds the relation's pairs, for its witness.
"""

from __future__ import annotations

from itertools import combinations

import numpy as np
from scipy import sparse

from .certificates import certify, claim, count_at_most, holds
from .covers import (Cover, _distinct_rows, appetite_witness,
                     cover_entourage, first_container, multiplicity)
from .errors import ContractViolationError, InvalidInputError, ResourceLimitError
from .spaces import (PAIR_CAP, Entourage, PointMap, ProductMetric, Space, _bool_matrix,
                     _row_indices, transport)


class ColoredCover(Cover):
    """A Cover with mandatory families plus the entourage witnessing their
    L-disjointness: for distinct sets A, B in one family, (A x B) visits L
    nowhere."""

    def __init__(self, space, sets, families, disjointness_entourage: Entourage,
                 require_covering: bool = True, canonicalize: bool = True):
        if families is None:
            raise InvalidInputError("a colored cover needs families")
        super().__init__(space, sets, families, require_covering=require_covering,
                         canonicalize=canonicalize)
        self.disjointness_entourage = disjointness_entourage


def _family_owners(cover: Cover):
    """For each family in turn, owner[x] = the set of the family holding x,
    or -1 (the sets of a family are disjoint)."""
    m = cover.incidence()
    for fam in cover.families:
        fam = np.asarray(fam, dtype=np.int64)
        owner = np.full(cover.space.n, -1, dtype=np.int64)
        owner[_row_indices(m, fam)] = np.repeat(fam, np.diff(m.indptr)[fam])
        yield owner


def _pair_arrays(entourage: Entourage) -> tuple[np.ndarray, np.ndarray]:
    """The pairs (rows, cols) of a relation, in key order."""
    m = entourage.matrix()
    return np.repeat(np.arange(m.shape[0]), np.diff(m.indptr)), m.indices


def family_disjoint_witness(cover: Cover, entourage: Entourage):
    """None if every family of the cover is entourage-disjoint, else a
    witness (set_index_a, set_index_b, (x, y))."""
    if cover.families is None:
        raise InvalidInputError("cover has no families")
    return _first_joining_pair(entourage, _family_owners(cover))


def _first_joining_pair(entourage: Entourage, owners):
    """The first pair (x, y) of the relation, in key order and owner array
    by owner array, whose ends have distinct owners: (owner of x, owner of
    y, (x, y)), or None."""
    rows, cols = _pair_arrays(entourage)
    for owner in owners:
        a, b = owner[rows], owner[cols]
        bad = (a >= 0) & (b >= 0) & (a != b)
        if np.any(bad):
            k = int(np.nonzero(bad)[0][0])
            return (int(a[k]), int(b[k]), (int(rows[k]), int(cols[k])))
    return None


def _touching_witness(cover: Cover, images: sparse.csr_matrix, relation):
    """family_disjoint_witness(cover, R) for the relation R whose forward
    images of the sets are the rows of images: row k is R[set k] = {y | (x,
    y) in R for some x in set k}.

    A family is R-disjoint exactly when no set's image meets another set of
    the family. Only the first family that fails searches the pairs of R,
    built by relation(), for its witness; the families before it hold no
    joining pair, so the witness is the one the full pair search finds.
    """
    if cover.families is None:
        raise InvalidInputError("cover has no families")
    for fam, owner in zip(cover.families, _family_owners(cover)):
        fam = np.asarray(fam, dtype=np.int64)
        hit = owner[_row_indices(images, fam)]
        mine = np.repeat(fam, np.diff(images.indptr)[fam])
        if np.any((hit >= 0) & (hit != mine)):
            return _first_joining_pair(relation(), [owner])
    return None


def _entries(m: sparse.csr_matrix, keep: np.ndarray) -> sparse.csr_matrix:
    """The boolean matrix of the stored entries of m where keep holds."""
    out = sparse.csr_matrix((keep, m.indices, m.indptr), shape=m.shape)
    out.eliminate_zeros()
    return out


def interior(cuts: sparse.spmatrix, entourage: Entourage, times: int = 1) -> sparse.csr_matrix:
    """The E^times-interiors {x | E^times(x) is contained in the row} of
    every row of the rows x points matrix cuts, as one boolean matrix of
    the same shape; times = 0 gives the rows themselves.

    E(x) = {y | (y, x) in E}. x lies in row k's E-interior when the count
    (cuts @ E)[k, x] of its E-neighbours in the row equals its column
    degree in E; points with empty E(x) are vacuously interior to every row.

    No power of E is formed. (E∘E)(x) is the union of E(z) over z in E(x),
    so x lies in int_{E∘E}(U) exactly when E(x) lies in int_E(U), that is
    when x lies in int_E(int_E(U)); this holds for any relation, an empty
    E(x) included. So the E^k-interior is k erosions by E, the chain rule
    for erosion by a dilated structuring element (Haralick, Sternberg &
    Zhuang, IEEE PAMI 9(4), 1987).
    """
    inside = sparse.csr_matrix(cuts, dtype=bool)
    if not cuts.shape[0] or not times:
        return inside
    e = sparse.csr_matrix(entourage.matrix(), dtype=np.int32)
    degree = np.bincount(e.indices, minlength=e.shape[1])
    free = np.flatnonzero(degree == 0)
    k = inside.shape[0]
    for _ in range(times):
        counts = sparse.csr_matrix(inside, dtype=np.int32) @ e
        inside = _entries(counts, counts.data == degree[counts.indices])
        if free.size:
            everywhere = sparse.csr_matrix(
                (np.ones(k * free.size, dtype=bool), np.tile(free, k),
                 np.arange(k + 1) * free.size), shape=inside.shape)
            inside = (inside + everywhere).tocsr()
    return inside


def _appetite_gap(inner: sparse.csr_matrix, entourage: Entourage, times: int):
    """appetite_witness for E^times without forming it, given the
    E^times-interiors inner of the covering sets: None if every non-empty
    E^times(x) fits inside a covering set, else the first failing x.

    E^times(x) lies in a set exactly when x lies in the set's interior.
    E^times(x) is non-empty when some walk of times steps in E ends at x:
    the points such walks reach, one forward step of E at a time.
    """
    e = entourage.matrix()
    reached = np.ones(e.shape[0], dtype=bool)
    for _ in range(times):
        step = np.zeros_like(reached)
        step[_row_indices(e, np.flatnonzero(reached))] = True
        reached = step
    reached[inner.indices] = False
    return int(np.argmax(reached)) if reached.any() else None


def _spread_image(rows: sparse.spmatrix, m: sparse.csr_matrix) -> sparse.csr_matrix:
    """The forward images of the rows under delta = M^T M + I, the spread of
    the cover with incidence m and the diagonal: each row grown by every
    set that it meets."""
    return (rows + (rows @ m.T) @ m).tocsr()


def _spread_inside(sets: sparse.csr_matrix, containers: sparse.spmatrix, bound_image) -> bool:
    """Whether W x W lies inside a relation B for every row W of sets, given
    rows N of containers with N^T N inside B.

    A set inside some row of N passes: its pairs are pairs of N^T N. Any
    other set W is tested pair by pair: W must lie inside B[x] = {y | (x, y)
    in B} for every x in W, where bound_image maps unit rows to their
    forward images under B. Only the points of such sets are imaged.
    """
    sizes = np.diff(sets.indptr)
    rest = np.flatnonzero((first_container(sets, containers) < 0) & (sizes > 0))
    if not rest.size:
        return True
    w = sets[rest]
    points = np.unique(w.indices)
    reach = bound_image(_bool_matrix(np.arange(points.size), points,
                                     (points.size, sets.shape[1])))
    # overlap[i, j] = |B[points[i]] & W_j|; W_j fits in B[x] when it is |W_j|
    overlap = (sparse.csr_matrix(reach, dtype=np.int32)
               @ sparse.csr_matrix(w.T, dtype=np.int32)).tocsr()
    fits = _entries(overlap, overlap.data == sizes[rest][overlap.indices])
    members = w[:, points].T
    return bool(np.all(np.asarray(fits.multiply(members).sum(axis=0)).ravel() == sizes[rest]))


def _require_symmetric_with_diagonal(entourage: Entourage, name: str) -> None:
    entourage = entourage.materialize()
    if not entourage.is_symmetric():
        raise InvalidInputError(f"{name} must be symmetric")
    if not entourage.contains_diagonal():
        raise InvalidInputError(f"{name} must contain the diagonal")


# ---------------------------------------------------------------------------
# expand
# ---------------------------------------------------------------------------


def expand(cover: ColoredCover, entourage: Entourage):
    """Fatten every set to L[U], preserving families.

    Requires each family of the input to be (L∘L)-disjoint; then the output
    families stay disjoint, the output has appetite L, and its spread is
    bounded by L ∘ (input spread) ∘ L^{-1}.
    """
    L = entourage.materialize()
    _require_symmetric_with_diagonal(L, "expansion entourage")
    m, lm = cover.incidence(), L.matrix()
    # L is symmetric, so the fattened sets L[U] are also the forward images
    # of the sets under L, and their images under L are those under L∘L
    new_sets = m @ lm.T
    w = _touching_witness(cover, new_sets @ lm, lambda: L.compose(L))
    if w is not None:
        raise ContractViolationError(
            f"input family is not L^2-disjoint: sets {w[0]}, {w[1]} via pair {w[2]}",
            witness=w)
    out = ColoredCover(cover.space, new_sets, cover.families, L,
                       require_covering=True, canonicalize=False)
    overlap = out.family_overlap_witness()
    aw = appetite_witness(out, L)
    return out, certify([
        holds("expand.families_disjoint", overlap is None, overlap),
        holds("expand.appetite", aw is None, aw),
        holds("expand.spread_bound", _expand_spread_ok(out.incidence(), m, lm, new_sets)),
    ])


def _expand_spread_ok(out: sparse.csr_matrix, m: sparse.csr_matrix, lm: sparse.csr_matrix,
                      fattened: sparse.csr_matrix) -> bool:
    """Whether the spread of the sets out lies inside L ∘ (M^T M) ∘ L^{-1},
    M the input incidence. That bound is N^T N for the fattened input sets
    N = M L^T, and it maps rows forward to rows L M^T M L^T."""
    return _spread_inside(out, fattened, lambda rows: ((rows @ lm) @ m.T) @ m @ lm.T)


# ---------------------------------------------------------------------------
# colorize
# ---------------------------------------------------------------------------


def _distinct_contents(cover: Cover) -> sparse.csr_matrix:
    """The distinct non-empty rows of the incidence matrix, in row order."""
    m = cover.incidence()
    rows = _distinct_rows(m)
    return m[rows[np.diff(m.indptr)[rows] > 0]]


def _unique_rows(a: np.ndarray) -> np.ndarray:
    """The distinct rows of a 2-d integer array, in lexicographic order."""
    a = a[np.lexsort(a.T[::-1])]
    keep = np.ones(len(a), dtype=bool)
    keep[1:] = np.any(a[1:] != a[:-1], axis=1)
    return a[keep]


def _shared_point_tuples(sets: sparse.csr_matrix, size: int) -> np.ndarray:
    """All size-subsets of the rows of sets that share at least one point,
    as the ascending rows of a (combos x size) array in lexicographic order.

    The sets holding a point form its column of sets, read point by point
    from the CSC form of sets, in ascending order. Identical point
    patterns are merged first; the size-subsets of the remaining patterns
    with at least size sets are then taken all at once for each pattern
    length.
    """
    by_point = sets.tocsc()
    holders, starts, counts = by_point.indices, by_point.indptr[:-1], np.diff(by_point.indptr)
    found = [np.empty((0, size), dtype=np.int64)]
    for length in np.unique(counts[counts >= size]):
        patterns = _unique_rows(holders[starts[counts == length][:, None] + np.arange(length)])
        pick = np.array(list(combinations(range(length), size)), dtype=np.int64)
        found.append(patterns[:, pick].reshape(-1, size))
    return _unique_rows(np.concatenate(found))


def _intersections(sets: sparse.csr_matrix, size: int) -> sparse.csr_matrix:
    """The intersections of the shared-point size-tuples of the rows of
    sets, one row each in tuple order: with K the combos x sets indicator,
    the entries of K @ sets that count size. Each is non-empty since its
    sets share a point."""
    combos = _shared_point_tuples(sets, size)
    if not combos.size:
        return sparse.csr_matrix((0, sets.shape[1]), dtype=bool)
    k = sparse.csr_matrix(
        (np.ones(combos.size, dtype=np.int32), combos.ravel(),
         np.arange(0, combos.size + 1, size)), shape=(combos.shape[0], sets.shape[0]))
    counts = k @ sparse.csr_matrix(sets, dtype=np.int32)
    return _entries(counts, counts.data == size)


def _shield_and_trim(levels: list) -> tuple[sparse.csr_matrix, list[list[int]]]:
    """Each level's cores minus the points of the next level's cores, empty
    rows dropped, stacked level by level: the sets, and one family per
    level but the last (which only shields)."""
    kept, families, count = [], [], 0
    for cores, deeper in zip(levels, levels[1:]):
        free = np.ones(cores.shape[1], dtype=bool)
        free[deeper.indices] = False
        trimmed = _entries(cores, free[cores.indices])
        trimmed = trimmed[np.flatnonzero(np.diff(trimmed.indptr))]
        families.append(list(range(count, count + trimmed.shape[0])))
        count += trimmed.shape[0]
        kept.append(trimmed)
    return sparse.vstack(kept, format="csr"), families


def colorize(cover: Cover, entourage: Entourage, n: int):
    """Rebuild a multiplicity-(n+1) cover with appetite L^{n+1} as n+1
    L-disjoint families.

    Family i collects the deep interiors of i-fold intersections, minus the
    deeper interiors already claimed by (i+1)-fold intersections; the output
    refines the input and still covers the space.
    """
    L = entourage.materialize()
    _require_symmetric_with_diagonal(L, "colorize entourage")
    mult = multiplicity(cover)
    if mult > n + 1:
        raise ContractViolationError(
            f"multiplicity {mult} exceeds n+1 = {n + 1}", witness=mult)
    if L.space is not cover.space:
        raise InvalidInputError("entourage must live over the cover's space")
    # the deepest interiors, those of the sets themselves under L^{n+1},
    # also decide the appetite
    base = _distinct_contents(cover)
    levels = [interior(_intersections(base, 1), L, n + 1)]
    aw = _appetite_gap(levels[0], L, n + 1)
    if aw is not None:
        raise ContractViolationError(
            f"cover lacks appetite L^{n + 1}; uncovered ball at point {aw}", witness=aw)
    levels += [interior(_intersections(base, depth), L, n + 2 - depth)
               for depth in range(2, n + 3)]
    sets, families = _shield_and_trim(levels)

    out = ColoredCover(cover.space, sets, families, L,
                       require_covering=False, canonicalize=False)
    missing = out.uncovered_points()
    dw = family_disjoint_witness(out, L)
    return out, certify([
        holds("colorize.covers", not missing, missing[:3] if missing else None),
        claim("colorize.family_count", n + 1, len(out.families), len(out.families) == n + 1),
        holds("colorize.families_L_disjoint", dw is None, dw),
        holds("colorize.refines_input", _refines(out, cover)),
    ])


def _refines(fine: Cover, coarse: Cover) -> bool:
    """Every non-empty set of fine lies inside some set of coarse."""
    queries = fine.incidence()
    found = first_container(queries, coarse.incidence()) >= 0
    return bool(np.all(found | (np.diff(queries.indptr) == 0)))


# ---------------------------------------------------------------------------
# merge_union
# ---------------------------------------------------------------------------


def _attach(cover_a: Cover, cover_b: Cover, L: Entourage) -> tuple[sparse.csr_matrix, list]:
    """merge_union's sets and families: per family, each B-set grown by the
    A-sets of that family it touches through L, then the A-sets touched by
    none. Raises ContractViolationError for the first A-set, in order of
    first contact, that touches two B-sets."""
    ma, mb = cover_a.incidence(), cover_b.incidence()
    na, nb = ma.shape[0], mb.shape[0]
    lrows, lcols = _pair_arrays(L)
    # L-pairs from an A-set into a B-set of the same family attach that
    # A-set to the B-set; the hits run family by family, in pair order
    hit_a, hit_b = [np.empty(0, dtype=np.int64)], [np.empty(0, dtype=np.int64)]
    for owner_a, owner_b in zip(_family_owners(cover_a), _family_owners(cover_b)):
        pa, pb = owner_a[lrows], owner_b[lcols]
        hit = (pa >= 0) & (pb >= 0)
        hit_a.append(pa[hit])
        hit_b.append(pb[hit])
    pa, pb = np.concatenate(hit_a), np.concatenate(hit_b)
    links = np.unique(pa * nb + pb)
    link_a, link_b = links // nb, links % nb
    touches = np.bincount(link_a, minlength=na)
    if np.any(touches > 1):
        ais, first = np.unique(pa, return_index=True)
        twice = touches[ais] > 1
        ai = int(ais[twice][np.argmin(first[twice])])
        bis = link_b[link_a == ai].tolist()
        raise ContractViolationError(
            f"A-set {ai} meets two B-sets {bis} in one family; "
            "the disjointness preconditions have drifted",
            witness=(ai, bis))
    # the (B sets x A sets) attach matrix grows each B-set by its A-sets
    attach = sparse.csr_matrix((np.ones(links.size, dtype=bool), (link_b, link_a)),
                               shape=(nb, na))
    grown = sparse.vstack([attach @ ma + mb, ma], format="csr")
    picks = [np.empty(0, dtype=np.int64)]
    families: list[list[int]] = []
    count = 0
    for fam_a, fam_b in zip(cover_a.families, cover_b.families):
        fa = np.asarray(fam_a, dtype=np.int64)
        pick = np.concatenate([np.asarray(fam_b, dtype=np.int64), nb + fa[touches[fa] == 0]])
        families.append(list(range(count, count + pick.size)))
        count += pick.size
        picks.append(pick)
    return grown[np.concatenate(picks)], families


def merge_union(cover_a: ColoredCover, cover_b: ColoredCover, entourage: Entourage):
    """Combine family-matched covers of two pieces A and B of one ambient
    space into a single cover of A ∪ B.

    Every B-set absorbs the A-sets of the same family that it touches
    through L; untouched A-sets survive unchanged. Preconditions: the A
    families are L-disjoint and the B families are (L∘D_A∘L∘D_A∘L)-disjoint,
    where D_A is the spread of cover A. Under those preconditions each A-set
    touches at most one B-set per family; two touches are reported as a
    contract violation instead of being resolved silently.
    """
    if cover_a.space is not cover_b.space:
        raise InvalidInputError("merge_union needs covers over one ambient space")
    if cover_a.families is None or cover_b.families is None:
        raise InvalidInputError("both covers must carry families")
    if len(cover_a.families) != len(cover_b.families):
        raise InvalidInputError("family counts differ; pad the smaller cover first")
    L = entourage.materialize()
    _require_symmetric_with_diagonal(L, "merge entourage")

    wa = family_disjoint_witness(cover_a, L)
    if wa is not None:
        raise ContractViolationError(
            f"cover A families not L-disjoint: {wa}", witness=wa)
    ma, mb, lm = cover_a.incidence(), cover_b.incidence(), L.matrix()
    # the B-sets fattened by L, then by D_A: the containers of the spread
    # bound, and, fattened by L, D_A and L again, the images of the B-sets
    # under L∘D_A∘L∘D_A∘L
    grown_b = _spread_image(mb @ lm, ma)
    wb = _touching_witness(cover_b, _spread_image(grown_b @ lm, ma) @ lm,
                           lambda: _strong_relation(cover_a, L))
    if wb is not None:
        raise ContractViolationError(
            f"cover B families not (L∘D_A∘L∘D_A∘L)-disjoint: {wb}", witness=wb)

    sets, families = _attach(cover_a, cover_b, L)
    out = ColoredCover(cover_a.space, sets, families, L,
                       require_covering=False, canonicalize=False)
    covered = np.zeros(cover_a.space.n, dtype=bool)
    covered[out.incidence().indices] = True
    cov_ok = bool(covered[cover_a.incidence().indices].all()
                  and covered[cover_b.incidence().indices].all())
    dw = family_disjoint_witness(out, L)
    return out, certify([
        holds("merge_union.covers_union", cov_ok),
        holds("merge_union.families_L_disjoint", dw is None, dw),
        claim("merge_union.family_count", max(len(cover_a.families), len(cover_b.families)),
              len(out.families), len(out.families) == len(cover_a.families)),
        holds("merge_union.spread_bound",
              _merge_spread_ok(ma, mb, out.incidence(), lm, grown_b)),
    ])


def _strong_relation(cover_a: Cover, L: Entourage) -> Entourage:
    """L∘D_A∘L∘D_A∘L as pairs, D_A the spread of cover A plus the diagonal:
    built only to find the witness of a family that fails."""
    delta_a = cover_entourage(cover_a).union(Entourage.diagonal(cover_a.space))
    return L.compose(delta_a).compose(L).compose(delta_a).compose(L)


def _merge_spread_ok(ma: sparse.csr_matrix, mb: sparse.csr_matrix, out: sparse.csr_matrix,
                     lm: sparse.csr_matrix, grown_b: sparse.csr_matrix) -> bool:
    """Whether the spread of the sets out lies inside the bound
    D_A∘L∘D_B∘L∘D_A ∪ M_A^T M_A, D the spreads plus the diagonal.

    grown_b, the B-sets fattened by L and then by D_A, holds N_V x N_V
    inside D_A∘L∘D_B∘L∘D_A for each B-set V (two points of V are D_B
    related), and the A-sets hold M_A^T M_A; so these rows stacked on M_A
    are the containers.
    """
    def bound_image(rows):
        chain = _spread_image(_spread_image(_spread_image(rows, ma) @ lm, mb) @ lm, ma)
        return chain + (rows @ ma.T) @ ma

    return _spread_inside(out, sparse.vstack([grown_b, ma], format="csr"), bound_image)


# ---------------------------------------------------------------------------
# product_refine
# ---------------------------------------------------------------------------


def make_product_entourage(product_space: Space, ex: Entourage, ey: Entourage) -> Entourage:
    """The relation {((x,y),(x',y')) | (x,x') in ex and (y,y') in ey}: the
    Kronecker product of the two relation matrices, since the point (x, y)
    has index x * |Y| + y."""
    if not isinstance(product_space.backend, ProductMetric):
        raise InvalidInputError("needs a product space")
    mx, my = ex.matrix(), ey.matrix()
    if mx.nnz * my.nnz > PAIR_CAP:
        raise ResourceLimitError(f"a product relation of {mx.nnz} x {my.nnz} = "
                                 f"{mx.nnz * my.nnz} pairs would exceed the {PAIR_CAP} pair cap")
    return Entourage.from_matrix(product_space, sparse.kron(mx, my))


def _projection_maps(product_space: Space) -> tuple[PointMap, PointMap]:
    a, b = product_space.backend.left, product_space.backend.right
    idx = np.arange(product_space.n)
    px = PointMap(product_space, a, idx // b.n)
    py = PointMap(product_space, b, idx % b.n)
    return px, py


def product_refine(cover_x: Cover, cover_y: Cover, entourage: Entourage,
                   n: int, m: int):
    """Cover the product sample with n+m+1 E-disjoint families.

    Inputs: a multiplicity-(n+1) cover of X with appetite E_X^{n+m+1} and a
    multiplicity-(m+1) cover of Y with appetite E_Y^{n+m+1}, where E_X, E_Y
    are the symmetrized factor projections of E. Mixed intersections of k
    sets (at least one from each factor) supply the candidate sets; family k
    keeps their E^{n+m+3-k}-interiors minus what deeper intersections claim.
    """
    prod = entourage.space
    if not isinstance(prod.backend, ProductMetric):
        raise InvalidInputError("the entourage must live over a product space")
    if prod.backend.left is not cover_x.space or prod.backend.right is not cover_y.space:
        raise InvalidInputError("product factors do not match the covers")
    E = entourage.materialize()
    _require_symmetric_with_diagonal(E, "product entourage")
    px, py = _projection_maps(prod)
    ex = transport(px, E, "push")
    ex = ex.union(ex.inverse()).union(Entourage.diagonal(cover_x.space))
    ey = transport(py, E, "push")
    ey = ey.union(ey.inverse()).union(Entourage.diagonal(cover_y.space))

    total = n + m + 1
    bases = []
    for cov, bound, which, ent in ((cover_x, n, "X", ex), (cover_y, m, "Y", ey)):
        mult = multiplicity(cov)
        if mult > bound + 1:
            raise ContractViolationError(
                f"cover of {which} has multiplicity {mult} > {bound + 1}",
                witness=(which, mult))
        bases.append(_distinct_contents(cov))
        aw = _appetite_gap(interior(bases[-1], ent, total), ent, total)
        if aw is not None:
            raise ContractViolationError(
                f"cover of {which} lacks appetite for the {total}-th power; "
                f"witness point {aw}", witness=(which, aw))

    sx, sy = bases
    # the factor intersections of p X-sets and of q Y-sets, p, q <= total + 1,
    # stacked by p and by q; the candidate sets at total depth k = p + q are
    # the Kronecker products of the rows of the p block and of the q block,
    # X-cut major
    cuts_x = [_intersections(sx, p) for p in range(1, total + 2)]
    cuts_y = [_intersections(sy, q) for q in range(1, total + 2)]
    at_x = np.cumsum([0] + [c.shape[0] for c in cuts_x])
    at_y = np.cumsum([0] + [c.shape[0] for c in cuts_y])
    cells = sparse.kron(sparse.vstack(cuts_x), sparse.vstack(cuts_y), format="csr")
    levels = []
    for k in range(2, total + 3):
        rows = [(np.arange(at_x[p - 1], at_x[p])[:, None] * at_y[-1]
                 + np.arange(at_y[k - p - 1], at_y[k - p])).ravel() for p in range(1, k)]
        levels.append(interior(cells[np.concatenate(rows)], E, total + 2 - k))
    sets, families = _shield_and_trim(levels)

    out = ColoredCover(prod, sets, families, E,
                       require_covering=False, canonicalize=False)
    missing = out.uncovered_points()
    dw = family_disjoint_witness(out, E)
    return out, certify([
        holds("product_refine.covers", not missing, missing[:3] if missing else None),
        claim("product_refine.family_count", total, len(out.families),
              len(out.families) == total),
        holds("product_refine.families_E_disjoint", dw is None, dw),
        count_at_most("product_refine.multiplicity", multiplicity(out), total),
    ])
