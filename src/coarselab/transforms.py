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

Each returns (result, guarantees): result is a plain Cover whose families
are the colors, and guarantees is a list of verified claim records; callers
can embed them in reports unchanged. A family's disjointness is certified
against the relation passed in, not stored with the cover.

Every step works on incidence matrices (rows are sets, columns points), a
whole level of sets at a time: intersections are one product of a combos x
sets indicator with the sets, an erosion one product with the relation,
fattening one product with it, and products of cuts one Kronecker product.
merge_union certifies on CSR index arrays (indptr, indices) instead, where
scipy's fixed cost per call would outweigh the work: a forward image
gathers the relation's rows at each entry, a spread gathers the sets that
each entry lies in from the cover's family owners, and each (row, point)
pair is kept once (_pattern); only an image of more than _PAIR_BLOCK pairs
is one product. Its attach step grows each B-set by the members of its
A-sets, and it builds a scipy matrix only for the output cover and the
container test.

No power of L, no cover spread M^T M and no composite relation is formed
to certify a construction; each hypothesis is an inclusion decided from M
and L themselves:

  interiors    int_{L^k}(U) is k erosions by L, and erosion distributes over
               intersection (see interior), so colorize erodes the sets once
  appetite     L^k(x) fits in a set exactly when x lies in the set's
               L^k-interior, so the k-fold eroded sets decide it
  disjointness two sets of a family are R-disjoint exactly when the forward
               image R[U] = {y | (x, y) in R, x in U} misses V; for R a
               chain of L and of the spreads delta = M^T M + I that image is
               a chain of fattenings by L and of spreads, each row grown by
               every set that it meets
  spreads      M^T M lies inside N^T N when every row of M lies in a row
               of N, one first_container call; a set that fails it is
               tested pair by pair against the bound's rows at its points

Only a failing family builds the relation's pairs, for its witness.
"""

from __future__ import annotations

from itertools import combinations
from typing import NamedTuple

import numpy as np
from scipy import sparse

from .certificates import certify, claim, count_at_most, holds
from .covers import Cover, appetite_witness, cover_entourage, first_container, multiplicity
from .errors import ContractViolationError, InvalidInputError, ResourceLimitError
from .spaces import (_PAIR_BLOCK, PAIR_CAP, Entourage, PointMap, ProductMetric, Space,
                     _bool_matrix, _row_indices, _run_heads, _sorted_isin, transport)


class ColoredCover(Cover):
    """Cover(space, sets, families, ...) under its old name, which took a
    disjointness relation that nothing read as its fourth argument; kept,
    ignoring it, for certbench's merge items. A class rather than a function,
    so that tracing the public functions of this module adds no span."""

    def __init__(self, space, sets, families, _relation, **options):
        super().__init__(space, sets, families, **options)


def _pair_arrays(entourage: Entourage) -> tuple[np.ndarray, np.ndarray]:
    """The pairs (rows, cols) of a relation, in key order."""
    m = entourage.matrix()
    return np.repeat(np.arange(m.shape[0], dtype=m.indices.dtype), np.diff(m.indptr)), m.indices


def family_disjoint_witness(cover: Cover, entourage: Entourage):
    """None if every family of the cover is entourage-disjoint, else a
    witness (set_index_a, set_index_b, (x, y)): the first pair of the
    relation, in key order and family by family, joining two sets of one
    family."""
    owners = cover.family_owners()
    rows, cols = _pair_arrays(entourage)
    for owner in owners:
        a, b = owner[rows], owner[cols]
        bad = (a >= 0) & (b >= 0) & (a != b)
        if np.any(bad):
            k = int(np.nonzero(bad)[0][0])
            return (int(a[k]), int(b[k]), (int(rows[k]), int(cols[k])))
    return None


def _touching_witness(cover: Cover, images, relation):
    """family_disjoint_witness(cover, R) for the relation R whose forward
    images of the sets are the rows of images, a CSR matrix or pattern: row
    k is R[set k] = {y | (x, y) in R for some x in set k}.

    A family is R-disjoint exactly when no set's image meets another set of
    the family. Only once a family fails are the pairs of R built, by
    relation(), and searched for the witness.
    """
    for fam, owner in zip(cover.families, cover.family_owners()):
        fam = np.asarray(fam, dtype=np.int64)
        hit = owner[_row_indices(images, fam)]
        mine = np.repeat(fam, np.diff(images.indptr)[fam])
        if np.any((hit >= 0) & (hit != mine)):
            return family_disjoint_witness(cover, relation())
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
    Zhuang, IEEE PAMI 9(4), 1987). And x lies in int_E(U ∩ V) exactly
    when E(x) lies in U and in V: erosion distributes over intersection.
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
            inside = inside + _bool_matrix(np.repeat(np.arange(k), free.size),
                                           np.tile(free, k), inside.shape)
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


class _Rows(NamedTuple):
    """A rows x points boolean pattern as CSR index arrays, each row's
    indices distinct (and ascending, from _pattern); read like a CSR matrix
    (_row_indices)."""
    indptr: np.ndarray
    indices: np.ndarray


# _pattern marks its pairs in a rows x points boolean array when that array
# has at most this many entries a pair, and sorts their keys otherwise
_MARK_SHARE = 4


def _row_keys(indptr: np.ndarray, n: int) -> np.ndarray:
    """k * n for each entry of row k of a CSR pattern with this indptr."""
    return np.repeat(np.arange(indptr.size - 1, dtype=np.int64) * n, np.diff(indptr))


def _pattern(keys: np.ndarray, count: int, n: int) -> _Rows:
    """The count x n pattern holding the pairs with keys row * n + point,
    each pair once."""
    if count * n <= _MARK_SHARE * keys.size:
        mark = np.zeros(count * n, dtype=bool)
        mark[keys] = True
        keys = np.flatnonzero(mark)
    else:
        keys = np.sort(keys)
        keys = keys[_run_heads(keys)]
    return _Rows(np.searchsorted(keys, np.arange(count + 1, dtype=np.int64) * n), keys % n)


def _image(rows, m: sparse.csr_matrix) -> _Rows:
    """The forward images of the rows (a CSR pattern) under the relation
    with matrix m: row k becomes {y | (x, y) in m for some x in row k}.
    Past _PAIR_BLOCK gathered pairs scipy's product, in C, is the faster;
    its rows are left in its own order, which no reader of an image needs."""
    count, n = rows.indptr.size - 1, m.shape[1]
    reach = np.diff(m.indptr)[rows.indices]
    if reach.sum() > _PAIR_BLOCK:
        out = _csr(rows, m.shape[0]) @ m
        return _Rows(out.indptr, out.indices)
    return _pattern(np.repeat(_row_keys(rows.indptr, n), reach) + _row_indices(m, rows.indices),
                    count, n)


def _spread(rows, cover: Cover) -> _Rows:
    """The forward images of the rows (a CSR pattern) under D = M^T M + I,
    the spread of the cover plus the diagonal: each row grown by every set
    that it meets. Every set lies in one family, so the sets a row meets are
    read from the family owners, one gather over all families."""
    m, count = cover.incidence(), rows.indptr.size - 1
    k, n = m.shape
    own = np.repeat(np.arange(count, dtype=np.int64), np.diff(rows.indptr))
    met = cover.family_owners()[:, rows.indices]
    hit = met >= 0
    links = _pattern(np.broadcast_to(own * k, met.shape)[hit] + met[hit], count, k)
    gathered = (np.repeat(_row_keys(links.indptr, n), np.diff(m.indptr)[links.indices])
                + _row_indices(m, links.indices))
    return _pattern(np.concatenate([own * n + rows.indices, gathered]), count, n)


def _stacked(top, bottom) -> _Rows:
    """The rows of the CSR pattern top followed by those of bottom."""
    return _Rows(np.concatenate([top.indptr, top.indptr[-1] + bottom.indptr[1:]]),
                 np.concatenate([top.indices, bottom.indices]))


def _csr(rows, n: int) -> sparse.csr_matrix:
    """The boolean CSR matrix of a CSR pattern over n points, its index
    arrays cast up front to the dtype scipy would pick for them, which
    spares it a scan of their contents."""
    dtype = np.int32 if max(n, rows.indices.size) < 2 ** 31 else np.int64
    return sparse.csr_matrix((np.ones(rows.indices.size, dtype=bool), rows.indices.astype(dtype),
                              rows.indptr.astype(dtype)), shape=(rows.indptr.size - 1, n))


def _spread_inside(sets: sparse.csr_matrix, containers: sparse.csr_matrix, bound_image) -> bool:
    """Whether W x W lies inside a relation B for every row W of sets, given
    rows N of containers with N^T N inside B.

    A set inside some row of N passes: its pairs are pairs of N^T N. Any
    other set W is tested pair by pair: W must lie inside B[x] = {y | (x, y)
    in B} for every x in W, where bound_image maps ascending points to a
    CSR pattern of their forward images under B. Only the points of such
    sets are imaged.
    """
    sizes = np.diff(sets.indptr)
    rest = np.flatnonzero((first_container(sets, containers) < 0) & (sizes > 0))
    if not rest.size:
        return True
    n = sets.shape[1]
    members = _row_indices(sets, rest)
    owner = np.repeat(rest, sizes[rest])
    points = np.sort(members)
    points = points[_run_heads(points)]
    reach = bound_image(points)
    # W fits in B[x] when |B[x] & W| = |W|, counted per entry (W, x)
    at = np.searchsorted(points, members)
    span = np.diff(reach.indptr)[at]
    found = _sorted_isin(np.repeat(owner, span) * np.int64(n) + _row_indices(reach, at),
                         owner * np.int64(n) + members)
    count = np.bincount(np.repeat(np.arange(members.size), span)[found], minlength=members.size)
    return bool(np.all(count == sizes[owner]))


def _require_symmetric_with_diagonal(entourage: Entourage, name: str) -> None:
    if not entourage.is_symmetric():
        raise InvalidInputError(f"{name} must be symmetric")
    if not entourage.contains_diagonal():
        raise InvalidInputError(f"{name} must contain the diagonal")


# ---------------------------------------------------------------------------
# expand
# ---------------------------------------------------------------------------


def expand(cover: Cover, entourage: Entourage):
    """Fatten every set to L[U], preserving families.

    Requires each family of the input to be (L∘L)-disjoint; then the output
    families stay disjoint, the output has appetite L, and its spread is
    bounded by L ∘ (input spread) ∘ L^{-1}.
    """
    if cover.families is None:
        raise InvalidInputError("expand needs a cover with families")
    if entourage.space is not cover.space:
        raise InvalidInputError("entourage must live over the cover's space")
    L = entourage.materialize()
    _require_symmetric_with_diagonal(L, "expansion entourage")
    m, lm = cover.incidence(), L.matrix()
    # L is symmetric, so the fattened sets L[U] are the forward images
    # m @ L of the sets, and their images under L are those under L∘L
    new_sets = m @ lm
    w = _touching_witness(cover, new_sets @ lm, lambda: L.compose(L))
    if w is not None:
        raise ContractViolationError(
            f"input family is not L^2-disjoint: sets {w[0]}, {w[1]} via pair {w[2]}",
            witness=w)
    out = Cover(cover.space, new_sets, cover.families, canonicalize=False)
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
    N = M L^T = M L (L is symmetric), mapping rows forward to rows L M^T M L."""
    return _spread_inside(out, fattened, lambda points: (
        (_bool_matrix(np.arange(points.size), points, (points.size, m.shape[1])) @ lm) @ m.T)
        @ m @ lm)


# ---------------------------------------------------------------------------
# colorize
# ---------------------------------------------------------------------------


def _distinct_contents(cover: Cover) -> sparse.csr_matrix:
    """The distinct non-empty rows of the incidence matrix, in row order."""
    m, rows = cover.incidence(), cover.distinct_rows()
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
    level but the last (which only shields), as one CSR matrix."""
    cols, sizes, families, count = [], [np.zeros(1, dtype=np.int64)], [], 0
    for cores, deeper in zip(levels, levels[1:]):
        free = np.ones(cores.shape[1], dtype=bool)
        free[deeper.indices] = False
        keep = free[cores.indices]
        kept = np.diff(np.concatenate(([0], np.cumsum(keep)))[cores.indptr])
        cols.append(cores.indices[keep])
        sizes.append(kept[kept > 0])
        families.append(list(range(count, count + sizes[-1].size)))
        count += sizes[-1].size
    indptr = np.cumsum(np.concatenate(sizes))
    return sparse.csr_matrix((np.ones(indptr[-1], dtype=bool), np.concatenate(cols), indptr),
                             shape=(count, levels[0].shape[1])), families


def colorize(cover: Cover, entourage: Entourage, n: int):
    """Rebuild a multiplicity-(n+1) cover with appetite L^{n+1} as n+1
    L-disjoint families.

    Family i collects the deep interiors of i-fold intersections, minus the
    deeper interiors already claimed by (i+1)-fold intersections; the output
    refines the input and still covers the space. The L^{n+2-d}-interiors
    of d-fold intersections are the intersections of the sets eroded
    n+2-d times (see interior), so one chain of n+1 erosions serves all; L
    holds the diagonal, so no point is interior to every set vacuously.
    """
    L = entourage.materialize()
    _require_symmetric_with_diagonal(L, "colorize entourage")
    mult = multiplicity(cover)
    if mult > n + 1:
        raise ContractViolationError(
            f"multiplicity {mult} exceeds n+1 = {n + 1}", witness=mult)
    if L.space is not cover.space:
        raise InvalidInputError("entourage must live over the cover's space")
    # eroded[k] holds the L^k-interiors of the sets; the deepest, k = n+1,
    # are level 1 and also decide the appetite
    eroded = [_distinct_contents(cover)]
    for _ in range(n + 1):
        eroded.append(interior(eroded[-1], L))
    aw = _appetite_gap(eroded[-1], L, n + 1)
    if aw is not None:
        raise ContractViolationError(
            f"cover lacks appetite L^{n + 1}; uncovered ball at point {aw}", witness=aw)
    # level d: the d-fold intersections of the sets eroded n+2-d times; a
    # tuple meeting only before erosion has an empty interior, trimmed anyway,
    # and no point lies in n+2 sets, so level n+2, which only shields, is empty
    sets, families = _shield_and_trim(
        [eroded[-1]] + [_intersections(eroded[n + 2 - depth], depth)
                        for depth in range(2, n + 2)] + [eroded[0][:0]])
    del eroded  # not held through the pair scans of the certificate

    out = Cover(cover.space, sets, families, require_covering=False, canonicalize=False)
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


def _attach(cover_a: Cover, cover_b: Cover, L: Entourage,
            near_b) -> tuple[sparse.csr_matrix, list]:
    """merge_union's sets and families: per family, each B-set grown by the
    A-sets of that family it touches through L, then the A-sets touched by
    none. near_b is the CSR pattern of the points x with (x, y) in L for
    some y in each B-set. Raises ContractViolationError for the first
    A-set, in order of first contact, that touches two B-sets."""
    ma, mb = cover_a.incidence(), cover_b.incidence()
    na, nb = ma.shape[0], mb.shape[0]
    family = np.zeros(nb, dtype=np.int64)
    for f, fam in enumerate(cover_b.families):
        family[list(fam)] = f
    # the A-set of a B-set's family at each point near it attaches to it
    b = np.repeat(np.arange(nb, dtype=np.int64), np.diff(near_b.indptr))
    a = cover_a.family_owners()[family[b], near_b.indices]
    near = a >= 0
    links = np.sort(a[near] * np.int64(nb) + b[near])
    links = links[_run_heads(links)]
    link_a, link_b = links // nb, links % nb
    touches = np.bincount(link_a, minlength=na)
    if np.any(touches > 1):
        # first contact: the L-pairs from an A-set into a B-set of the same
        # family, family by family, in pair order
        lrows, lcols = _pair_arrays(L)
        pa, pb = cover_a.family_owners()[:, lrows], cover_b.family_owners()[:, lcols]
        ais, first = np.unique(pa[(pa >= 0) & (pb >= 0)], return_index=True)
        twice = touches[ais] > 1
        ai = int(ais[twice][np.argmin(first[twice])])
        bis = link_b[link_a == ai].tolist()
        raise ContractViolationError(
            f"A-set {ai} meets two B-sets {bis} in one family; "
            "the disjointness preconditions have drifted",
            witness=(ai, bis))
    # each B-set grown by the members of its A-sets, followed by the A-sets
    n = ma.shape[1]
    grown = _stacked(_pattern(np.concatenate([
        _row_keys(mb.indptr, n) + mb.indices,
        np.repeat(link_b * n, np.diff(ma.indptr)[link_a]) + _row_indices(ma, link_a)]), nb, n), ma)
    picks = [np.empty(0, dtype=np.int64)]
    families: list[list[int]] = []
    count = 0
    for fam_a, fam_b in zip(cover_a.families, cover_b.families):
        fa = np.asarray(fam_a, dtype=np.int64)
        pick = np.concatenate([np.asarray(fam_b, dtype=np.int64), nb + fa[touches[fa] == 0]])
        families.append(list(range(count, count + pick.size)))
        count += pick.size
        picks.append(pick)
    pick = np.concatenate(picks)
    indptr = np.zeros(pick.size + 1, dtype=np.int64)
    np.cumsum(np.diff(grown.indptr)[pick], out=indptr[1:])
    return _csr(_Rows(indptr, _row_indices(grown, pick)), n), families


def merge_union(cover_a: Cover, cover_b: Cover, entourage: Entourage):
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
    if entourage.space is not cover_a.space:
        raise InvalidInputError("entourage must live over the cover's space")
    if cover_a.families is None or cover_b.families is None:
        raise InvalidInputError("union needs covers with families")
    if len(cover_a.families) != len(cover_b.families):
        raise InvalidInputError("family counts differ; pad the smaller cover first")
    L = entourage.materialize()
    _require_symmetric_with_diagonal(L, "merge entourage")

    wa = family_disjoint_witness(cover_a, L)
    if wa is not None:
        raise ContractViolationError(
            f"cover A families not L-disjoint: {wa}", witness=wa)
    lm = L.matrix()
    # the B-sets fattened by L, then by D_A: the containers of the spread
    # bound, and, fattened by L, D_A and L again, the images of the B-sets
    # under L∘D_A∘L∘D_A∘L
    near_b = _image(cover_b.incidence(), lm)
    grown_b = _spread(near_b, cover_a)
    wb = _touching_witness(cover_b, _image(_spread(_image(grown_b, lm), cover_a), lm),
                           lambda: _strong_relation(cover_a, L))
    if wb is not None:
        raise ContractViolationError(
            f"cover B families not (L∘D_A∘L∘D_A∘L)-disjoint: {wb}", witness=wb)

    # L is symmetric, so the points L-related to a B-set are its L-image
    sets, families = _attach(cover_a, cover_b, L, near_b)
    out = Cover(cover_a.space, sets, families, require_covering=False, canonicalize=False)
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
              _merge_spread_ok(cover_a, cover_b, out.incidence(), lm, grown_b)),
    ])


def _strong_relation(cover_a: Cover, L: Entourage) -> Entourage:
    """L∘D_A∘L∘D_A∘L as pairs, D_A the spread of cover A plus the diagonal:
    built only to find the witness of a family that fails."""
    delta_a = cover_entourage(cover_a).union(Entourage.diagonal(cover_a.space))
    return L.compose(delta_a).compose(L).compose(delta_a).compose(L)


def _merge_spread_ok(cover_a: Cover, cover_b: Cover, out: sparse.csr_matrix,
                     lm: sparse.csr_matrix, grown_b: _Rows) -> bool:
    """Whether the spread of the sets out lies inside the bound
    D_A∘L∘D_B∘L∘D_A ∪ M_A^T M_A, D the spreads plus the diagonal.

    grown_b, the B-sets fattened by L and then by D_A, holds N_V x N_V
    inside D_A∘L∘D_B∘L∘D_A for each B-set V (two points of V are D_B
    related), and the A-sets hold M_A^T M_A; so these rows stacked on M_A
    are the containers. L and the D hold the diagonal, so the chain
    D_A∘L∘D_B∘L∘D_A already holds M_A^T M_A and is the whole bound.
    """
    ma = cover_a.incidence()

    def bound_image(points):
        unit = _Rows(np.arange(points.size + 1), points)
        return _spread(_image(_spread(_image(_spread(unit, cover_a), lm), cover_b), lm), cover_a)

    return _spread_inside(out, _csr(_stacked(grown_b, ma), ma.shape[1]), bound_image)


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

    out = Cover(prod, sets, families, require_covering=False, canonicalize=False)
    missing = out.uncovered_points()
    dw = family_disjoint_witness(out, E)
    return out, certify([
        holds("product_refine.covers", not missing, missing[:3] if missing else None),
        claim("product_refine.family_count", total, len(out.families),
              len(out.families) == total),
        holds("product_refine.families_E_disjoint", dw is None, dw),
        count_at_most("product_refine.multiplicity", multiplicity(out), total),
    ])
