"""Covers of finite sampled spaces and their quality metrics.

A Cover is a family of index sets over a Space, optionally partitioned into
color classes ("families") of pairwise disjoint sets; it is the one cover
type, colored or not. It is stored as one sets x points boolean CSR
incidence matrix M, and every set-wise question is a reduction over M or a
sparse product with it: which points no set holds (column counts of zero),
which sets are empty (row sizes), the multiplicity (column sums over the
distinct rows, found once per cover), the owner of each point within a
family (one gather of the family's rows). The four metrics that the
dimension machinery hinges on:

  multiplicity   largest number of sets sharing a point
  mesh           largest diameter of a covering set
  lebesgue       discrete Lebesgue number (see lebesgue_number)
  appetite       every E(x) fits inside a single covering set

The discrete Lebesgue number uses non-strict containment of sampled balls
and is a lower-bound estimator of the continuum Lebesgue number whenever
the sample is a fine net of the continuum space.

Mesh and Lebesgue number reduce set diameters and distances to the outside
of sets, measured by the space's metric backend (spaces.Metric), the one
place that knows its geometry: the mesh is pruned by per-member bounds
where the backend has them, a grid takes full boxes in closed form, and a
tree takes double sweeps and an inward breadth-first search.

first_container is the one set-containment test ("which covering set holds
this set") behind appetite, refinement checks, the lower bound's deep-set
table and the corona band cover.
"""

from __future__ import annotations

import math
from collections.abc import Sized
from functools import cmp_to_key
from itertools import chain
from typing import Iterable, Optional, Sequence

import numpy as np
from scipy import sparse

from .errors import InvalidInputError, ResourceLimitError
from .spaces import PAIR_CAP, Entourage, Space, _Rows, _csr, _row_indices, _transposed


class Cover:
    """A family of point-index sets covering a Space, stored as one sets x
    points boolean CSR incidence matrix M: row k holds set k, with sorted
    column indices, no duplicates and no explicit zeros.

    The constructor takes a sequence of index iterables or a sparse matrix
    and builds M once. With canonicalize on, the rows are put in
    lexicographic order of their index tuples (a prefix sorts first, an
    empty set before everything, ties stable) and the families are remapped
    through that rank, so serialization is deterministic; that sort also
    yields the distinct rows, which any other cover sorts for once, on
    first use. Empty sets are allowed (transform outputs produce them
    naturally) and are flagged in stats reports rather than rejected.
    """

    def __init__(self, space: Space, sets: Sequence[Iterable[int]] | sparse.spmatrix,
                 families: Optional[Sequence[Iterable[int]]] = None,
                 require_covering: bool = True, canonicalize: bool = True):
        m = _incidence_matrix(sets, space.n)
        k = m.shape[0]
        fams = None
        if families is not None:
            partition = "families must partition distinct set indices"
            try:
                fams = [np.fromiter(fam, dtype=np.int64) for fam in families]
            except OverflowError:
                raise InvalidInputError(partition) from None
            used = np.concatenate([np.empty(0, dtype=np.int64)] + fams)
            if used.size and (used.min() < 0 or used.max() >= k or np.bincount(used).max() > 1):
                raise InvalidInputError(partition)
            if used.size != k:
                raise InvalidInputError("families must mention every set exactly once")
        self._sets = self._owners = self._distinct = None
        if canonicalize:
            order, repeat = _lex_order(m)
            if np.any(order != np.arange(k)):
                m = m[order]
            # equal rows are adjacent in that order, so the first of each run
            # is the first row with its contents
            self._distinct = np.flatnonzero(~repeat)
            if fams is not None:
                rank = np.empty(k, dtype=np.int64)
                rank[order] = np.arange(k)
                fams = [np.sort(rank[fam]) for fam in fams]
        self.space = space
        self._m = m
        self.families = None if fams is None else tuple(tuple(f.tolist()) for f in fams)
        if require_covering:
            missing = self.uncovered_points()
            if missing:
                raise InvalidInputError(
                    f"not a cover: point {missing[0]} belongs to no set")
        if self.families is not None:
            bad = self.family_overlap_witness()
            if bad is not None:
                raise InvalidInputError(
                    f"family sets must be disjoint; sets {bad[0]} and {bad[1]} share point {bad[2]}")

    # -- structure ---------------------------------------------------------

    def incidence(self) -> sparse.csr_matrix:
        """The sets x points boolean CSR matrix M; row k holds set k. Shared,
        so callers must not modify it."""
        return self._m

    @property
    def sets(self) -> tuple[tuple[int, ...], ...]:
        """The sets as sorted tuples of indices, built from M on first
        access; a read-only view for serialization and set-wise readers."""
        if self._sets is None:
            flat = self._m.indices.tolist()
            ptr = self._m.indptr.tolist()
            self._sets = tuple(tuple(flat[a:b]) for a, b in zip(ptr, ptr[1:]))
        return self._sets

    def distinct_rows(self) -> np.ndarray:
        """The rows of M whose contents no earlier row has, in row order;
        taken from the canonicalizing sort or from one _lex_order on first
        use, and shared, so callers must not modify it."""
        if self._distinct is None:
            order, repeat = _lex_order(self._m)
            self._distinct = np.sort(order[~repeat])
        return self._distinct

    def family_owners(self) -> np.ndarray:
        """Row f, owner[x], is the set of family f holding x, or -1; built
        once and shared, so callers must not modify it."""
        if self.families is None:
            raise InvalidInputError("cover has no families")
        if self._owners is None:
            sizes = np.diff(self._m.indptr)
            self._owners = np.full((len(self.families), self.space.n), -1,
                                   dtype=np.int32 if sizes.size < 2 ** 31 else np.int64)
            for owner, fam in zip(self._owners, self.families):
                fam = np.asarray(fam, dtype=np.int64)
                owner[_row_indices(self._m, fam)] = np.repeat(fam, sizes[fam])
        return self._owners

    def uncovered_points(self) -> list[int]:
        seen = np.zeros(self.space.n, dtype=bool)
        seen[self._m.indices] = True
        return np.flatnonzero(~seen).tolist()

    def family_overlap_witness(self):
        """None if the sets of each family are disjoint, else (first set,
        second set, point) for the first point met twice while walking each
        family's sets in order and each set's points in ascending order."""
        if self.families is None:
            return None
        m = self._m
        for fam in self.families:
            fam = np.asarray(fam, dtype=np.int64)
            points = _row_indices(m, fam)
            seen = np.zeros(self.space.n, dtype=bool)
            seen[points] = True
            if np.count_nonzero(seen) == points.size:
                continue
            steps = np.arange(points.size)
            first = np.full(self.space.n, points.size)
            np.minimum.at(first, points, steps)
            j = np.flatnonzero(first[points] != steps)[0]
            owner = np.repeat(fam, np.diff(m.indptr)[fam])
            return (int(owner[first[points[j]]]), int(owner[j]), int(points[j]))
        return None

    def empty_set_indices(self) -> list[int]:
        return np.flatnonzero(np.diff(self._m.indptr) == 0).tolist()

    def __repr__(self):
        fam = f", families={len(self.families)}" if self.families is not None else ""
        return f"Cover({self._m.shape[0]} sets over n={self.space.n}{fam})"


def _incidence_matrix(sets, n: int) -> sparse.csr_matrix:
    """The canonical boolean CSR matrix of a sequence of index iterables or
    of a sparse matrix with one column per point."""
    if sparse.issparse(sets):
        m = sparse.csr_matrix(sets, dtype=bool)
        if m.shape[1] != n:
            raise InvalidInputError("cover incidence needs one column per point")
        m.sum_duplicates()
        m.eliminate_zeros()
        return m
    rows = [s if isinstance(s, Sized) else list(s) for s in sets]
    indptr = np.zeros(len(rows) + 1, dtype=np.int64)
    np.cumsum(np.fromiter(map(len, rows), dtype=np.int64, count=len(rows)), out=indptr[1:])
    try:
        indices = np.fromiter(chain.from_iterable(rows), dtype=np.int64, count=int(indptr[-1]))
    except OverflowError:
        raise InvalidInputError("cover set index out of range") from None
    if indices.size and (indices.min() < 0 or indices.max() >= n):
        raise InvalidInputError("cover set index out of range")
    m = _csr(_Rows(indptr, indices), n)
    m.sum_duplicates()
    return m


# _lex_order packs up to _LEX_WIDTH columns into one sort key per round,
# which bounds its scratch arrays at that many int64s a row, and runs at most
# _LEX_ROUNDS vectorized rounds; rows still tied after them share a long
# prefix and are finished by comparison.
_LEX_WIDTH = 4
_LEX_ROUNDS = 8


def _lex_order(m: sparse.csr_matrix) -> tuple[np.ndarray, np.ndarray]:
    """(order, repeat): the stable order of m's rows as tuples of their
    column indices (a prefix sorts before its extensions, so an empty row
    sorts first), and whether each row of that order equals the one before.

    An MSD refinement: the rows are sorted by their first few columns, then
    only the groups that still tie are sorted by their next few, a round at
    a time, so the work stays O(nnz). Each round packs as many columns into
    one int64 key as fit, column c as digit c + 1 and 0 once a row has
    ended; a tied group whose rows end inside the window holds equal rows.
    """
    k, n = m.shape
    indptr, indices = m.indptr, m.indices
    sizes = np.diff(indptr)
    order = np.arange(k)
    repeat = np.zeros(k, dtype=bool)
    if not m.nnz:
        repeat[1:] = True
        return order, repeat
    width = 1
    while width < _LEX_WIDTH and (n + 1) ** (width + 1) < 2 ** 62:
        width += 1
    digits = (n + 1) ** np.arange(width - 1, -1, -1, dtype=np.int64)
    pos = np.arange(k)  # positions in order still tied with a neighbour
    start = np.zeros(k, dtype=np.int64)  # the first position of their group
    for t in range(0, _LEX_ROUNDS * width, width):
        if not pos.size:
            return order, repeat
        rows = order[pos]
        window = t + np.arange(width)
        inside = window < sizes[rows][:, None]
        at = np.minimum(indptr[rows][:, None] + window, m.nnz - 1)
        key = np.where(inside, indices[at] + 1, 0) @ digits
        sub = np.lexsort((key, start))
        order[pos] = rows = rows[sub]
        key, start = key[sub], start[sub]
        new = np.ones(pos.size, dtype=bool)
        new[1:] = (start[1:] != start[:-1]) | (key[1:] != key[:-1])
        ended = sizes[rows] < t + width
        repeat[pos[~new & ended]] = True
        run = np.cumsum(new) - 1
        tied = (np.bincount(run)[run] > 1) & ~ended
        start = np.maximum.accumulate(np.where(new, pos, 0))[tied]
        pos = pos[tied]

    def row(r):
        return indices[indptr[r]:indptr[r + 1]]

    def compare(a, b):
        x, y = row(a), row(b)
        common = min(x.size, y.size)
        diff = np.flatnonzero(x[:common] != y[:common])
        if diff.size:
            return -1 if x[diff[0]] < y[diff[0]] else 1
        return (x.size > y.size) - (x.size < y.size)

    for group in np.split(pos, np.flatnonzero(np.diff(start)) + 1):
        if group.size:
            ranked = sorted(order[group].tolist(), key=cmp_to_key(compare))
            order[group] = ranked
            repeat[group[1:]] = [compare(a, b) == 0 for a, b in zip(ranked, ranked[1:])]
    return order, repeat


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------


def multiplicity(cover: Cover) -> int:
    """Largest number of covering sets containing a common point: the
    largest column sum over the distinct rows of the incidence matrix, so
    duplicated set contents count once."""
    counts = np.bincount(_row_indices(cover.incidence(), cover.distinct_rows()),
                         minlength=cover.space.n)
    return int(counts.max()) if cover.space.n else 0


def mesh(cover: Cover) -> float:
    """Largest diameter of a covering set; empty sets contribute 0. Each
    distinct set is measured once, by the space's backend."""
    if not cover.space.is_metric_backed():
        raise InvalidInputError("mesh needs a metric-backed space")
    return cover.space.backend.mesh(cover.incidence(), cover.distinct_rows())


def lebesgue_number(cover: Cover) -> float:
    """Discrete Lebesgue number.

    For each point x take the best covering set: the largest distance from x
    to a sample point outside that set; the Lebesgue number is the minimum
    of these over x. If some set contains every sample point the result is
    +inf. On a fine sample this lower-bounds the continuum Lebesgue number,
    never overshoots it by more than the sample spacing. A point no set
    holds counts 0.
    """
    if not cover.space.is_metric_backed():
        raise InvalidInputError("lebesgue number needs a metric-backed space")
    m = cover.incidence()
    best = np.zeros(cover.space.n)
    np.maximum.at(best, m.indices, cover.space.backend.outside_distances(m, m))
    return float(best.min(initial=math.inf))


def first_container(queries: sparse.spmatrix, sets: sparse.spmatrix) -> np.ndarray:
    """For each query row, the lowest index of a row of sets containing it,
    or -1 if there is none.

    Both arguments are boolean CSR matrices over the same columns. An empty
    query counts as contained in row 0 whenever a set exists. One sparse
    product gives the overlap counts |query & set|; a set contains the query
    exactly when its overlap equals the query's size.
    """
    n_sets = sets.shape[0]
    queries = sparse.csr_matrix(queries, dtype=np.int32)
    overlap = queries @ sparse.csr_matrix(sets.T, dtype=np.int32)
    size = np.diff(queries.indptr)
    row = np.repeat(np.arange(queries.shape[0]), np.diff(overlap.indptr))
    hit = overlap.data == size[row]
    first = np.where(size == 0, 0, n_sets).astype(np.int64)
    np.minimum.at(first, row[hit], overlap.indices[hit])
    return np.where(first < n_sets, first, -1)


def has_appetite(cover: Cover, entourage: Entourage) -> bool:
    return appetite_witness(cover, entourage) is None


def appetite_witness(cover: Cover, entourage: Entourage) -> Optional[int]:
    """None if every E(x) fits inside some covering set, else the first
    failing x. Points with an empty E(x) never fail. A radius entourage is
    materialized under the pair cap."""
    if entourage.space is not cover.space:
        raise InvalidInputError("entourage must live over the cover's space")
    balls = _csr(_transposed(entourage.csr, cover.space.n), cover.space.n)
    bad = (first_container(balls, cover.incidence()) < 0) & (np.diff(balls.indptr) > 0)
    return int(np.argmax(bad)) if bad.any() else None


def cover_entourage(cover: Cover, cap: int = PAIR_CAP) -> Entourage:
    """The union of U x U over all covering sets, as a pairs entourage:
    M^T M for the sets x points incidence matrix M.

    Uniform boundedness against a bound D is the predicate
    cover_entourage(C).is_subset_of(D).
    """
    m = cover.incidence()
    sizes = np.diff(m.indptr).astype(np.int64)
    total = int((sizes ** 2).sum())
    if total > cap:  # a duplicated set adds no pairs
        total = int((sizes[cover.distinct_rows()] ** 2).sum())
    if total > cap:
        raise ResourceLimitError(
            f"cover entourage would exceed the {cap} pair cap ({total} pairs)")
    return Entourage.from_matrix(cover.space, m.T @ m)


def stats(cover: Cover, entourage: Optional[Entourage] = None) -> dict:
    """The summary emitted by the `cover stats` CLI subcommand."""
    out = {
        "multiplicity": multiplicity(cover),
        "sets": cover.incidence().shape[0],
        "empty_sets": len(cover.empty_set_indices()),
    }
    if cover.space.is_metric_backed():
        out["mesh"] = mesh(cover)
        leb = lebesgue_number(cover)
        out["lebesgue"] = "inf" if math.isinf(leb) else leb
    if entourage is not None:
        out["appetite"] = has_appetite(cover, entourage)
    return out
