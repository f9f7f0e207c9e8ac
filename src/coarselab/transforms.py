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
"""

from __future__ import annotations

from itertools import combinations
from typing import Iterable

import numpy as np
from scipy import sparse

from .covers import Cover, appetite_witness, cover_entourage, first_container, multiplicity
from .errors import ContractViolationError, InvalidInputError
from .spaces import Entourage, PointMap, Space, transport


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

    def verify_disjointness(self) -> None:
        w = family_disjoint_witness(self, self.disjointness_entourage)
        if w is not None:
            raise ContractViolationError(
                f"family sets {w[0]} and {w[1]} are joined by pair {w[2]}", witness=w)


def family_disjoint_witness(cover: Cover, entourage: Entourage):
    """None if every family of the cover is entourage-disjoint, else a
    witness (set_index_a, set_index_b, (x, y))."""
    if cover.families is None:
        raise InvalidInputError("cover has no families")
    n = cover.space.n
    pairs = entourage.matrix().tocoo()
    rows, cols = pairs.row, pairs.col
    for fam in cover.families:
        owner = np.full(n, -1, dtype=np.int64)
        for si in fam:
            owner[list(cover.sets[si])] = si
        a, b = owner[rows], owner[cols]
        bad = (a >= 0) & (b >= 0) & (a != b)
        if np.any(bad):
            k = int(np.nonzero(bad)[0][0])
            return (int(a[k]), int(b[k]), (int(rows[k]), int(cols[k])))
    return None


def interior(indices: Iterable[int], entourage: Entourage) -> frozenset[int]:
    """The E-interior {x | E(x) is contained in the given set}.

    E(x) = {y | (y, x) in E}; points with empty E(x) are vacuously interior.
    """
    outside = np.ones(entourage.space.n, dtype=bool)
    outside[[int(i) for i in indices]] = False
    excluded = entourage.matrix().T @ outside
    return frozenset(np.flatnonzero(~excluded).tolist())


def _require_symmetric_with_diagonal(entourage: Entourage, name: str) -> None:
    if not entourage.materialize().is_symmetric():
        raise InvalidInputError(f"{name} must be symmetric")
    if not entourage.contains_diagonal():
        raise InvalidInputError(f"{name} must contain the diagonal")


def _claim(name: str, claimed, measured, passed: bool, witness=None) -> dict:
    out = {"id": name, "claimed": claimed, "measured": measured, "pass": bool(passed)}
    if witness is not None:
        out["witness"] = witness
    return out


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
    l2 = L.compose(L)
    w = family_disjoint_witness(cover, l2)
    if w is not None:
        raise ContractViolationError(
            f"input family is not L^2-disjoint: sets {w[0]}, {w[1]} via pair {w[2]}",
            witness=w)
    new_sets = [sorted(L.image(s)) for s in cover.sets]
    out = ColoredCover(cover.space, new_sets, cover.families, L,
                       require_covering=True, canonicalize=False)
    guarantees = []
    overlap = out.family_overlap_witness()
    guarantees.append(_claim("expand.families_disjoint", True, overlap is None,
                             overlap is None, overlap))
    aw = appetite_witness(out, L)
    guarantees.append(_claim("expand.appetite", True, aw is None, aw is None, aw))
    bound = L.compose(cover_entourage(cover)).compose(L.inverse())
    spread_ok = cover_entourage(out).is_subset_of(bound)
    guarantees.append(_claim("expand.spread_bound", True, spread_ok, spread_ok))
    _ensure(guarantees)
    return out, guarantees


# ---------------------------------------------------------------------------
# colorize
# ---------------------------------------------------------------------------


def _distinct_contents(cover: Cover) -> list[tuple[int, ...]]:
    seen = set()
    out = []
    for s in cover.sets:
        if s and s not in seen:
            seen.add(s)
            out.append(s)
    return out


def _shared_point_tuples(sets: list[tuple[int, ...]], size: int, n: int) -> list[tuple[int, ...]]:
    """All size-subsets of distinct sets that share at least one point.

    Enumerated through the point-to-set incidence lists; intersections of
    sets with no common point are empty and contribute nothing downstream.
    """
    incidence: list[list[int]] = [[] for _ in range(n)]
    for si, s in enumerate(sets):
        for p in s:
            incidence[p].append(si)
    found = set()
    for lst in incidence:
        if len(lst) >= size:
            for combo in combinations(lst, size):
                found.add(combo)
    return sorted(found)


def _intersections(sets: list[tuple[int, ...]], size: int, n: int) -> list[set[int]]:
    """The intersections of the shared-point size-tuples of sets, in tuple
    order; each is non-empty since its sets share a point."""
    return [set(sets[combo[0]]).intersection(*(sets[si] for si in combo[1:]))
            for combo in _shared_point_tuples(sets, size, n)]


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
    aw = appetite_witness(cover, L.power(n + 1))
    if aw is not None:
        raise ContractViolationError(
            f"cover lacks appetite L^{n + 1}; uncovered ball at point {aw}", witness=aw)

    base = _distinct_contents(cover)
    space_n = cover.space.n
    interiors: dict[int, list[frozenset[int]]] = {}
    unions: dict[int, np.ndarray] = {}
    for depth in range(1, n + 3):
        power = L.power(n + 2 - depth)
        mask_union = np.zeros(space_n, dtype=bool)
        level = []
        for cut in _intersections(base, depth, space_n):
            core = interior(cut, power)
            if core:
                level.append(core)
                mask_union[list(core)] = True
        interiors[depth] = level
        unions[depth] = mask_union

    sets: list[tuple[int, ...]] = []
    families: list[list[int]] = []
    for depth in range(1, n + 2):
        fam = []
        shield = unions.get(depth + 1, np.zeros(space_n, dtype=bool))
        for core in interiors.get(depth, []):
            trimmed = tuple(sorted(p for p in core if not shield[p]))
            if trimmed:
                fam.append(len(sets))
                sets.append(trimmed)
        families.append(fam)

    out = ColoredCover(cover.space, sets, families, L,
                       require_covering=False, canonicalize=False)
    guarantees = []
    missing = out.uncovered_points()
    guarantees.append(_claim("colorize.covers", True, not missing, not missing,
                             missing[:3] if missing else None))
    guarantees.append(_claim("colorize.family_count", n + 1, len(out.families),
                             len(out.families) == n + 1))
    dw = family_disjoint_witness(out, L)
    guarantees.append(_claim("colorize.families_L_disjoint", True, dw is None,
                             dw is None, dw))
    refit = _refines(out, cover)
    guarantees.append(_claim("colorize.refines_input", True, refit, refit))
    _ensure(guarantees)
    return out, guarantees


def _refines(fine: Cover, coarse: Cover) -> bool:
    """Every non-empty set of fine lies inside some set of coarse."""
    queries = fine.incidence()
    found = first_container(queries, coarse.incidence()) >= 0
    return bool(np.all(found | (np.diff(queries.indptr) == 0)))


# ---------------------------------------------------------------------------
# merge_union
# ---------------------------------------------------------------------------


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
    delta_a = cover_entourage(cover_a).union(Entourage.diagonal(cover_a.space))
    strong = L.compose(delta_a).compose(L).compose(delta_a).compose(L)
    wb = family_disjoint_witness(cover_b, strong)
    if wb is not None:
        raise ContractViolationError(
            f"cover B families not (L∘D_A∘L∘D_A∘L)-disjoint: {wb}", witness=wb)

    n = cover_a.space.n
    lpairs = L.matrix().tocoo()
    lrows, lcols = lpairs.row, lpairs.col
    sets: list[tuple[int, ...]] = []
    families: list[list[int]] = []
    for fam_a, fam_b in zip(cover_a.families, cover_b.families):
        fam_out: list[int] = []
        owner_a = np.full(n, -1, dtype=np.int64)
        for si in fam_a:
            owner_a[list(cover_a.sets[si])] = si
        owner_b = np.full(n, -1, dtype=np.int64)
        for si in fam_b:
            owner_b[list(cover_b.sets[si])] = si
        # L-pairs from an A-set into a B-set attach that A-set to the B-set
        pa, pb = owner_a[lrows], owner_b[lcols]
        hit = (pa >= 0) & (pb >= 0)
        attach: dict[int, set[int]] = {si: set() for si in fam_b}
        touched_by: dict[int, set[int]] = {}
        for ai, bi in zip(pa[hit], pb[hit]):
            attach[int(bi)].add(int(ai))
            touched_by.setdefault(int(ai), set()).add(int(bi))
        for ai, bis in touched_by.items():
            if len(bis) > 1:
                raise ContractViolationError(
                    f"A-set {ai} meets two B-sets {sorted(bis)} in one family; "
                    "the disjointness preconditions have drifted",
                    witness=(ai, sorted(bis)))
        for bi in fam_b:
            merged = set(cover_b.sets[bi])
            for ai in attach[bi]:
                merged |= set(cover_a.sets[ai])
            fam_out.append(len(sets))
            sets.append(tuple(sorted(merged)))
        attached_as = set(touched_by.keys())
        for ai in fam_a:
            if ai not in attached_as:
                fam_out.append(len(sets))
                sets.append(cover_a.sets[ai])
        families.append(fam_out)

    out = ColoredCover(cover_a.space, sets, families, L,
                       require_covering=False, canonicalize=False)
    guarantees = []
    covered = np.zeros(n, dtype=bool)
    for s in out.sets:
        covered[list(s)] = True
    target = np.zeros(n, dtype=bool)
    for s in cover_a.sets + cover_b.sets:
        target[list(s)] = True
    cov_ok = bool(np.all(covered[target]))
    guarantees.append(_claim("merge_union.covers_union", True, cov_ok, cov_ok))
    dw = family_disjoint_witness(out, L)
    guarantees.append(_claim("merge_union.families_L_disjoint", True, dw is None,
                             dw is None, dw))
    guarantees.append(_claim("merge_union.family_count",
                             max(len(cover_a.families), len(cover_b.families)),
                             len(out.families),
                             len(out.families) == len(cover_a.families)))
    delta_b = cover_entourage(cover_b).union(Entourage.diagonal(cover_b.space))
    bound = delta_a.compose(L).compose(delta_b).compose(L).compose(delta_a)
    bound = bound.union(cover_entourage(cover_a))
    spread_ok = cover_entourage(out).is_subset_of(bound)
    guarantees.append(_claim("merge_union.spread_bound", True, spread_ok, spread_ok))
    _ensure(guarantees)
    return out, guarantees


# ---------------------------------------------------------------------------
# product_refine
# ---------------------------------------------------------------------------


def make_product_entourage(product_space: Space, ex: Entourage, ey: Entourage) -> Entourage:
    """The relation {((x,y),(x',y')) | (x,x') in ex and (y,y') in ey}: the
    Kronecker product of the two relation matrices, since the point (x, y)
    has index x * |Y| + y."""
    if product_space.kind != "product":
        raise InvalidInputError("needs a product space")
    return Entourage.from_matrix(product_space, sparse.kron(ex.matrix(), ey.matrix()))


def _projection_maps(product_space: Space) -> tuple[PointMap, PointMap]:
    a: Space = product_space.meta["left"]
    b: Space = product_space.meta["right"]
    px = PointMap(product_space, a, [p[0] for p in product_space.points])
    py = PointMap(product_space, b, [p[1] for p in product_space.points])
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
    if prod.kind != "product":
        raise InvalidInputError("the entourage must live over a product space")
    if prod.meta["left"] is not cover_x.space or prod.meta["right"] is not cover_y.space:
        raise InvalidInputError("product factors do not match the covers")
    E = entourage.materialize()
    _require_symmetric_with_diagonal(E, "product entourage")
    px, py = _projection_maps(prod)
    ex = transport(px, E, "push")
    ex = ex.union(ex.inverse()).union(Entourage.diagonal(cover_x.space))
    ey = transport(py, E, "push")
    ey = ey.union(ey.inverse()).union(Entourage.diagonal(cover_y.space))

    total = n + m + 1
    for cov, bound, which, ent in ((cover_x, n, "X", ex), (cover_y, m, "Y", ey)):
        mult = multiplicity(cov)
        if mult > bound + 1:
            raise ContractViolationError(
                f"cover of {which} has multiplicity {mult} > {bound + 1}",
                witness=(which, mult))
        aw = appetite_witness(cov, ent.power(total))
        if aw is not None:
            raise ContractViolationError(
                f"cover of {which} lacks appetite for the {total}-th power; "
                f"witness point {aw}", witness=(which, aw))

    sx = _distinct_contents(cover_x)
    sy = _distinct_contents(cover_y)
    nx, ny = cover_x.space.n, cover_y.space.n
    n_prod = prod.n

    def prod_mask(xs: Iterable[int], ys: Iterable[int]) -> np.ndarray:
        mask = np.zeros(n_prod, dtype=bool)
        ys_arr = np.array(sorted(ys), dtype=np.int64)
        for x in xs:
            mask[x * ny + ys_arr] = True
        return mask

    # the factor intersections of p X-sets and of q Y-sets, p, q <= total + 1;
    # their products are the candidate sets at total depth k = p + q
    cuts_x = {p: _intersections(sx, p, nx) for p in range(1, total + 2)}
    cuts_y = {q: _intersections(sy, q, ny) for q in range(1, total + 2)}
    levels: dict[int, list[frozenset[int]]] = {}
    shield: dict[int, np.ndarray] = {}
    for k in range(2, total + 3):
        power = E.power(total + 2 - k)
        union_mask = np.zeros(n_prod, dtype=bool)
        out_level = []
        for p in range(1, k):
            for cut_x in cuts_x[p]:
                for cut_y in cuts_y[k - p]:
                    cell = np.nonzero(prod_mask(cut_x, cut_y))[0]
                    core = interior(cell, power)
                    if core:
                        out_level.append(core)
                        union_mask[list(core)] = True
        levels[k] = out_level
        shield[k] = union_mask

    sets: list[tuple[int, ...]] = []
    families: list[list[int]] = []
    for k in range(2, total + 2):
        fam = []
        blocker = shield.get(k + 1, np.zeros(n_prod, dtype=bool))
        for core in levels.get(k, []):
            trimmed = tuple(sorted(p for p in core if not blocker[p]))
            if trimmed:
                fam.append(len(sets))
                sets.append(trimmed)
        families.append(fam)

    out = ColoredCover(prod, sets, families, E,
                       require_covering=False, canonicalize=False)
    guarantees = []
    missing = out.uncovered_points()
    guarantees.append(_claim("product_refine.covers", True, not missing,
                             not missing, missing[:3] if missing else None))
    guarantees.append(_claim("product_refine.family_count", total,
                             len(out.families), len(out.families) == total))
    dw = family_disjoint_witness(out, E)
    guarantees.append(_claim("product_refine.families_E_disjoint", True,
                             dw is None, dw is None, dw))
    mult = multiplicity(out)
    guarantees.append(_claim("product_refine.multiplicity", total, mult,
                             mult <= total))
    _ensure(guarantees)
    return out, guarantees


def _ensure(guarantees: list[dict]) -> None:
    for g in guarantees:
        if not g["pass"]:
            raise ContractViolationError(
                f"guarantee {g['id']} failed", witness=g)
