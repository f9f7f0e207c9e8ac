"""Covers of finite sampled spaces and their quality metrics.

A Cover is a family of index sets over a Space, optionally partitioned into
color classes ("families") of pairwise disjoint sets. The four metrics that
the dimension machinery hinges on:

  multiplicity   largest number of sets sharing a point
  mesh           largest diameter of a covering set
  lebesgue       discrete Lebesgue number (see lebesgue_number)
  appetite       every E(x) fits inside a single covering set

The discrete Lebesgue number uses non-strict containment of sampled balls
and is a lower-bound estimator of the continuum Lebesgue number whenever
the sample is a fine net of the continuum space.

On a grid both the Lebesgue number and the mesh measure distances against
lattice boundaries only, and still equal a scan of every distance row bit
for bit. A grid coordinate is monotone in its axis index, and the computed
distance sums per-axis terms fl(fl(x_a - y_a)^2), each monotone in the
index distance along its axis. So stepping a point outside a set one
lattice step towards a member x never lengthens its distance to x; the
walk meets the set, so some outside point next to a member (the outer
boundary) is nearest to x. And stepping a member away from another member
never shortens their distance while it stays in the set; it stops at a
member with a lattice neighbour outside the set or off the grid (the inner
boundary), so some pair of inner-boundary points spans the diameter.

first_container is the one set-containment test ("which covering set holds
this set") behind appetite, refinement checks, the lower bound's deep-set
table and the corona band cover.
"""

from __future__ import annotations

import math
from itertools import chain
from typing import Iterable, Optional, Sequence

import numpy as np
from scipy import sparse

from .errors import InvalidInputError, ResourceLimitError
from .spaces import Entourage, Space, PAIR_CAP


class Cover:
    """A family of point-index sets covering a Space.

    Sets are stored as sorted, deduplicated index tuples; the set list is
    canonicalized lexicographically so serialization is deterministic.
    Empty sets are allowed (transform outputs produce them naturally) and
    are flagged in stats reports rather than rejected.
    """

    def __init__(self, space: Space, sets: Sequence[Iterable[int]],
                 families: Optional[Sequence[Iterable[int]]] = None,
                 require_covering: bool = True, canonicalize: bool = True):
        cleaned = [tuple(sorted(set(int(i) for i in s))) for s in sets]
        for s in cleaned:
            if s and (s[0] < 0 or s[-1] >= space.n):
                raise InvalidInputError("cover set index out of range")
        fams = None
        if families is not None:
            fams = [tuple(int(i) for i in fam) for fam in families]
            used = sorted(i for fam in fams for i in fam)
            if used != sorted(set(used)) or (used and (used[0] < 0 or used[-1] >= len(cleaned))):
                raise InvalidInputError("families must partition distinct set indices")
            if len(used) != len(cleaned):
                raise InvalidInputError("families must mention every set exactly once")
        if canonicalize:
            order = sorted(range(len(cleaned)), key=lambda k: cleaned[k])
            rank = {old: new for new, old in enumerate(order)}
            cleaned = [cleaned[k] for k in order]
            if fams is not None:
                fams = [tuple(sorted(rank[i] for i in fam)) for fam in fams]
        self.space = space
        self.sets = tuple(cleaned)
        self.families = tuple(fams) if fams is not None else None
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

    def uncovered_points(self) -> list[int]:
        seen = np.zeros(self.space.n, dtype=bool)
        for s in self.sets:
            seen[list(s)] = True
        return [int(i) for i in np.nonzero(~seen)[0]]

    def family_overlap_witness(self):
        if self.families is None:
            return None
        for fam in self.families:
            hit = {}
            for si in fam:
                for p in self.sets[si]:
                    if p in hit:
                        return (hit[p], si, p)
                    hit[p] = si
        return None

    def incidence(self) -> sparse.csr_matrix:
        """The sets x points boolean CSR matrix; row k holds set k."""
        indptr = np.zeros(len(self.sets) + 1, dtype=np.int64)
        np.cumsum([len(s) for s in self.sets], out=indptr[1:])
        indices = np.fromiter(chain.from_iterable(self.sets), dtype=np.int64,
                              count=int(indptr[-1]))
        return sparse.csr_matrix((np.ones(indices.size, dtype=bool), indices, indptr),
                                 shape=(len(self.sets), self.space.n))

    def empty_set_indices(self) -> list[int]:
        return [k for k, s in enumerate(self.sets) if not s]

    def __repr__(self):
        fam = f", families={len(self.families)}" if self.families is not None else ""
        return f"Cover({len(self.sets)} sets over n={self.space.n}{fam})"


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------


def multiplicity(cover: Cover) -> int:
    """Largest number of covering sets containing a common point.

    Duplicated set contents count once because sets are deduplicated by
    content at construction.
    """
    unique_sets = set(cover.sets)
    counts = np.zeros(cover.space.n, dtype=np.int64)
    for s in unique_sets:
        if s:
            counts[list(s)] += 1
    return int(counts.max()) if cover.space.n else 0


def _lattice_counts(cover: Cover) -> tuple[sparse.csr_matrix, sparse.csr_matrix, int]:
    """(M, T, full) for a cover of a grid: M the incidence matrix, T = M A
    with A the n x n lattice-neighbour matrix, so T[k, x] counts the members
    of set k next to point x, and full the number of lattice neighbours of
    a point off the grid's faces (two per axis of more than one point)."""
    shape = cover.space.meta["shape"]
    n = cover.space.n
    idx = np.arange(n, dtype=np.int64)
    heads, tails = [], []
    stride = 1
    for count in reversed(shape):
        lo = idx[(idx // stride) % count < count - 1]
        heads += [lo, lo + stride]
        tails += [lo + stride, lo]
        stride *= count
    heads, tails = np.concatenate(heads), np.concatenate(tails)
    adj = sparse.csr_matrix((np.ones(heads.size, dtype=np.int32), (heads, tails)),
                            shape=(n, n))
    m = cover.incidence()
    full = 2 * sum(count > 1 for count in shape)
    return m, sparse.csr_matrix(m, dtype=np.int32) @ adj, full


def _row(m: sparse.csr_matrix, k: int) -> np.ndarray:
    return m.indices[m.indptr[k]:m.indptr[k + 1]]


def mesh(cover: Cover) -> float:
    """Largest diameter of a covering set; empty sets contribute 0.

    On a grid each distinct set is measured on its inner boundary only: the
    members with a lattice neighbour outside the set or off the grid (see
    the module docstring for why that is exact).
    """
    if not cover.space.is_metric_backed():
        raise InvalidInputError("mesh needs a metric-backed space")
    distinct = {s: k for k, s in enumerate(cover.sets)}
    if cover.space.kind != "grid":
        return max((set_diameter(cover.space, s) for s in distinct), default=0.0)
    m, t, full = _lattice_counts(cover)
    # the one point of a one-point grid is its own boundary
    inner = m > (t == full) if full else m
    return max((set_diameter(cover.space, _row(inner, k)) for k in distinct.values()),
               default=0.0)


def set_diameter(space: Space, s: Sequence[int]) -> float:
    idx = np.unique(np.asarray(s, dtype=np.int64))
    if idx.size < 2:
        return 0.0
    worst = 0.0
    chunk = max(1, (1 << 21) // max(idx.size, 1))
    for at in range(0, idx.size, chunk):
        block = space.dist_block(idx[at:at + chunk], idx, squared=True)
        worst = max(worst, float(block.max()))
    return math.sqrt(worst)


def lebesgue_number(cover: Cover) -> float:
    """Discrete Lebesgue number.

    For each point x take the best covering set: the largest distance from x
    to a sample point outside that set; the Lebesgue number is the minimum
    of these over x. If some set contains every sample point the result is
    +inf. On a fine sample this lower-bounds the continuum Lebesgue number,
    never overshoots it by more than the sample spacing.

    On a grid the points outside a set are taken from its outer boundary
    only: the non-members next to a member (see the module docstring).
    """
    if not cover.space.is_metric_backed():
        raise InvalidInputError("lebesgue number needs a metric-backed space")
    n = cover.space.n
    if n == 0 or any(len(s) == n for s in cover.sets):
        return math.inf
    outer = None
    if cover.space.kind == "grid":
        m, t, _ = _lattice_counts(cover)
        outer = t.astype(bool) > m
    best = np.zeros(n)
    for k, s in enumerate(cover.sets):
        if not s:
            continue
        members = np.array(s, dtype=np.int64)
        if outer is None:
            outside = np.ones(n, dtype=bool)
            outside[members] = False
            comp = np.flatnonzero(outside)
        else:
            comp = _row(outer, k)
        chunk = max(1, (1 << 21) // max(comp.size, 1))
        for at in range(0, members.size, chunk):
            rows = members[at:at + chunk]
            d = cover.space.dist_block(rows, comp, squared=True).min(axis=1)
            np.maximum.at(best, rows, d)
    return math.sqrt(float(best.min()))


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
    balls = entourage.matrix().T.tocsr()
    bad = (first_container(balls, cover.incidence()) < 0) & (np.diff(balls.indptr) > 0)
    return int(np.argmax(bad)) if bad.any() else None


def cover_entourage(cover: Cover, cap: int = PAIR_CAP) -> Entourage:
    """The union of U x U over all covering sets, as a pairs entourage:
    M^T M for the sets x points incidence matrix M.

    Uniform boundedness against a bound D is the predicate
    cover_entourage(C).is_subset_of(D).
    """
    total = sum(len(s) ** 2 for s in set(cover.sets))
    if total > cap:
        raise ResourceLimitError(
            f"cover entourage would exceed the {cap} pair cap ({total} pairs)")
    m = cover.incidence()
    return Entourage.from_matrix(cover.space, m.T @ m)


def stats(cover: Cover, entourage: Optional[Entourage] = None) -> dict:
    """The summary emitted by the `cover stats` CLI subcommand."""
    out = {
        "multiplicity": multiplicity(cover),
        "sets": len(cover.sets),
        "empty_sets": len(cover.empty_set_indices()),
    }
    if cover.space.is_metric_backed():
        out["mesh"] = mesh(cover)
        leb = lebesgue_number(cover)
        out["lebesgue"] = "inf" if math.isinf(leb) else leb
    if entourage is not None:
        out["appetite"] = has_appetite(cover, entourage)
    return out
