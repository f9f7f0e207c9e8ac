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


def mesh(cover: Cover) -> float:
    """Largest diameter of a covering set; empty sets contribute 0."""
    if not cover.space.is_metric_backed():
        raise InvalidInputError("mesh needs a metric-backed space")
    return max((set_diameter(cover.space, s) for s in set(cover.sets)),
               default=0.0)


def set_diameter(space: Space, s: Iterable[int]) -> float:
    idx = np.array(sorted(set(int(i) for i in s)), dtype=np.int64)
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
    """
    if not cover.space.is_metric_backed():
        raise InvalidInputError("lebesgue number needs a metric-backed space")
    n = cover.space.n
    if n == 0 or any(len(s) == n for s in cover.sets):
        return math.inf
    best = np.zeros(n)
    for s in cover.sets:
        if not s:
            continue
        members = np.array(s, dtype=np.int64)
        outside = np.ones(n, dtype=bool)
        outside[members] = False
        comp = np.nonzero(outside)[0]
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
