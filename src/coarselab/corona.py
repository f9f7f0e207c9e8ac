"""Sampled metrisable compactifications and boundary-controlled machinery.

A CompactificationModel samples a compact metric space hX split into an
interior sample X and a boundary (corona) sample, and carries the filtration
X_i = {x in X | d(x, corona) >= 1/i}. The two canonical maps

    f(xbar, n) = the point of X_n nearest to the boundary point xbar
    g(x) = (nearest boundary point, the unique i with x in X_i \\ X_{i-1})

are mutually inverse up to the explicit bound d(f(g(x)), x) <= 2/(i-1),
which the test suite verifies point by point.

check_cc_entourage measures, for a relation E over the interior sample, the
tail widths rho_i = max{d(x, y) | (x,y) in E, (x,y) not in X_i^2}; on a
finite sample a genuine limit cannot be tested, so the verdict compares the
tail against a declared decay schedule and always returns the raw sequence.

corona_dim_cover realizes the band construction that covers corona x N with
multiplicity n+1 while keeping appetite for any relation controlled by a
given decay sequence delta and a window relation on N.

Everything here runs as array code. A model computes one interior x corona
distance block; the filtration levels, the widths, f (an argmin over the
rows of the nested X_n) and g (an argmin along each row) all read it. The
tail widths are one running maximum over the related pairs. The band cover
is assembled as sparse incidence rows, each a schedule set crossed with
level bands, of which a layer has at most n(n+1), n the number of families.
Its appetite is certified from one margin per segment, a run of a set's
entries at one corona point over levels that share one slice (see
_band_appetite_failures), without materializing a ball, and its spreads by
the corona backend's mesh of the set projections; the margins and pair
distances come from the backend too, so no block is computed here but the
model's own and those of roundtrip_bounds.
"""

from __future__ import annotations

import math
from typing import Optional, Sequence

import numpy as np
from scipy import sparse

from .certificates import certify, count_at_most, holds
from .covers import Cover, first_container, multiplicity
from .errors import ContractViolationError, InvalidInputError, ResourceLimitError
from .spaces import PAIR_CAP, POINT_CAP, Entourage, Space

TOL = 1e-9


class CompactificationModel:
    """The interior and corona samples of a compactification, with the one
    interior x corona distance block that the filtration, the widths and
    the maps f and g all read.

    The block holds the values dist_row gives, bit for bit on every backing
    but the hyperbolic one, whose block broadcasts the law of cosines. It is
    capped at PAIR_CAP entries, checked before it is computed.
    """

    def __init__(self, ambient: Space, interior: Sequence[int], corona: Sequence[int],
                 depth: Optional[int] = None):
        interior = sorted(set(int(i) for i in interior))
        corona = sorted(set(int(i) for i in corona))
        if set(interior) & set(corona):
            raise InvalidInputError("interior and corona must be disjoint")
        if sorted(interior + corona) != list(range(ambient.n)):
            raise InvalidInputError("interior and corona must exhaust the sample")
        if not corona or not interior:
            raise InvalidInputError("need non-empty interior and corona samples")
        if len(interior) * len(corona) > PAIR_CAP:
            raise ResourceLimitError(
                f"the interior x corona distance block would exceed the {PAIR_CAP} entry "
                f"cap ({len(interior)} x {len(corona)})")
        self.ambient = ambient
        self.interior = interior
        self.corona = corona
        self._interior_arr = np.array(interior, dtype=np.int64)
        self._block = ambient.dist_block(self._interior_arr, np.array(corona, dtype=np.int64))
        self._corona_dist = self._block.min(axis=1)
        if np.any(np.isnan(self._corona_dist)):
            raise InvalidInputError("interior to corona distances must be numbers")
        if np.any(self._corona_dist <= TOL):
            raise InvalidInputError("an interior sample point touches the corona")
        self._levels = np.maximum(1, np.ceil(1.0 / self._corona_dist - TOL)).astype(np.int64)
        if depth is None:
            depth = int(math.ceil(1.0 / self._corona_dist.min())) + 1
        self.depth = depth

    def filtration_index(self, interior_pos: int) -> int:
        """The unique i >= 1 with the point in X_i \\ X_{i-1}."""
        return int(self._levels[interior_pos])

    def filtration_set(self, i: int) -> list[int]:
        """X_i as positions into the interior list."""
        return self._inside(i).tolist()

    def _inside(self, i: int) -> np.ndarray:
        if i <= 0:
            return np.empty(0, dtype=np.int64)
        return np.flatnonzero(self._corona_dist >= 1.0 / i - TOL)

    def _nearest(self, n: int) -> Optional[np.ndarray]:
        """For each corona point, the position in the interior list of its
        nearest point of X_n, ties to the lowest index; None if X_n is
        empty."""
        inside = self._inside(n)
        if not inside.size:
            return None
        # the rows ascend, so argmin's first minimum is the lowest index
        return inside[self._block[inside].argmin(axis=0)]

    def f_table(self, n: int) -> list[int]:
        """f(c, n) for every corona point c, in corona order."""
        near = self._nearest(n)
        if near is None:
            raise InvalidInputError(f"X_{n} is empty on this sample")
        return self._interior_arr[near].tolist()

    def widths(self) -> list[float]:
        """a_i = max over corona points of d(X_i, corona point), per level."""
        cols = np.arange(len(self.corona))
        out = []
        for i in range(self.depth + 1):
            near = self._nearest(i)
            out.append(math.inf if near is None else float(self._block[near, cols].max()))
        return out


def map_f(model: CompactificationModel, corona_index: int, n: int) -> int:
    """The interior sample point of X_n nearest to the given corona point;
    ties break to the lowest index."""
    table = model.f_table(n)
    if corona_index >= len(table):
        raise InvalidInputError("corona index out of range")
    return table[corona_index]


def map_g(model: CompactificationModel, interior_index: int) -> tuple[int, int]:
    """(corona position, filtration level) for an interior sample point;
    the corona point minimizes the ambient distance, ties to lowest index."""
    pos = int(np.searchsorted(model._interior_arr, interior_index))
    if pos == len(model.interior) or model.interior[pos] != interior_index:
        raise InvalidInputError("not an interior sample point")
    return (int(np.argmin(model._block[pos])), model.filtration_index(pos))


def roundtrip_bounds(model: CompactificationModel) -> dict:
    """Verify d(f(g(x)), x) <= 2/(i-1) for all interior x with i >= 2, and
    the band bounds on g(f(xbar, k)) wherever the width sequence allows.

    g of every interior point is one argmin over the rows of the distance
    block. d(x, f(g(x))) is taken a level at a time, from the block of the
    level's points against f(., level); together these blocks are no larger
    than the model's own.
    """
    levels = model._levels
    g_corona = model._block.argmin(axis=1)
    d = np.empty(levels.size)
    for level in np.unique(levels).tolist():
        here = np.flatnonzero(levels == level)
        block = model.ambient.dist_block(model._interior_arr[here], model.f_table(level))
        d[here] = block[np.arange(here.size), g_corona[here]]
    deep = np.flatnonzero(levels >= 2)
    bound = 2.0 / (levels[deep] - 1)
    over = d[deep] > bound + TOL
    fg_failures = [(model.interior[p], int(levels[p]), float(d[p]), b)
                   for p, b in zip(deep[over].tolist(), bound[over].tolist())]
    worst_ratio = max([0.0] + (d[deep] / bound).tolist())

    widths = model.widths()
    gf_failures = []
    checked = 0
    for k in range(1, model.depth + 1):
        near = model._nearest(k)
        if near is None:
            continue
        a_k = widths[k]
        n_k = None
        if a_k < 1.0:
            n_k = int(math.floor(1.0 / a_k - TOL)) if a_k > 0 else model.depth
        k_tilde = levels[near]
        checked += k_tilde.size
        above = k_tilde > k
        below = k_tilde < n_k + 1 if n_k is not None else np.zeros(k_tilde.size, dtype=bool)
        for ci in np.flatnonzero(above | below).tolist():
            if above[ci]:
                gf_failures.append((ci, k, int(k_tilde[ci]), "above"))
            if below[ci]:
                gf_failures.append((ci, k, int(k_tilde[ci]), f"below n_k+1 = {n_k + 1}"))
    return {
        "fg_failures": fg_failures,
        "gf_failures": gf_failures,
        "gf_checked": checked,
        "fg_worst_ratio": worst_ratio,
    }


def check_cc_entourage(model: CompactificationModel, entourage: Entourage,
                       schedule_constant: Optional[float] = None,
                       schedule_power: float = 1.0) -> dict:
    """Tail widths of a relation over the interior sample.

    rho_i = max{d(x, y) | (x, y) related, (x, y) outside X_i^2}. The verdict
    compares the second half of the sequence against C / i^p; when no
    constant is supplied, C is fitted as twice the largest i^p * rho_i seen
    on the first half (an honest finite-sample proxy for "tends to zero").
    The raw sequence is always returned.
    """
    m, n = entourage.csr, entourage.space.n
    pos = np.full(max(model.ambient.n, n), -1, dtype=np.int64)
    pos[model._interior_arr] = np.arange(len(model.interior))
    rows = np.repeat(np.arange(n), np.diff(m.indptr))
    keep = (pos[rows] >= 0) & (pos[m.indices] >= 0)
    rows, cols = rows[keep], m.indices[keep]
    d = model.ambient.pair_distances(rows, cols)
    # past the level where the filtration swallows the whole interior
    # sample, every tail width is trivially zero; stop just before it
    full = np.flatnonzero(
        model._corona_dist.min() >= 1.0 / np.arange(1, model.depth + 1) - TOL)
    exhaust = int(full[0]) + 1 if full.size else model.depth
    depth_eval = max(2, exhaust - 1)
    # a pair lies outside X_i^2 when its endpoint nearer the corona does, so
    # rho_i is a running maximum over the pairs in order of that distance
    # (fmax skips NaN as the comparison d > rho does)
    near = np.minimum(model._corona_dist[pos[rows]], model._corona_dist[pos[cols]])
    order = np.argsort(near, kind="stable")
    running = np.fmax.accumulate(np.concatenate(([0.0], d[order])))
    cuts = 1.0 / np.arange(1, depth_eval + 1) - TOL
    rho = running[np.searchsorted(near[order], cuts)].tolist()
    prefix = max(1, depth_eval // 4)
    if schedule_constant is None:
        schedule_constant = 2.0 * max(
            (level + 1) ** schedule_power * r
            for level, r in enumerate(rho[:prefix]))
        schedule_constant = max(schedule_constant, TOL)
    tail_from = max(prefix + 1, depth_eval // 2 + 1)
    controlled = all(
        rho[level - 1] <= schedule_constant / level ** schedule_power + TOL
        for level in range(tail_from, depth_eval + 1))
    return {
        "rho": rho,
        "depth": depth_eval,
        "controlled": bool(controlled),
        "schedule_constant": schedule_constant,
        "schedule_power": schedule_power,
    }


# ---------------------------------------------------------------------------
# The band cover of corona x N
# ---------------------------------------------------------------------------


class CoronaCoverSchedule:
    """Per-scale colored covers of the corona sample.

    cover_at(k) must return a cover of the corona sample with mesh <= 1/k
    made of n_families disjoint families; lebesgue_at(k) a positive lower
    bound on its Lebesgue number. Both are checked as each scale is built;
    corona_dim_cover asks for each scale once.
    """

    def __init__(self, corona_space: Space, n_families: int, builder,
                 lebesgue_fn):
        self.corona_space = corona_space
        self.n_families = n_families
        self._builder = builder
        self._lebesgue_fn = lebesgue_fn

    def cover_at(self, k: int) -> Cover:
        got = self._builder(k)
        if got.families is None or len(got.families) != self.n_families:
            raise ContractViolationError(
                f"schedule cover at scale {k} must carry {self.n_families} families")
        return got

    def lebesgue_at(self, k: int) -> float:
        val = float(self._lebesgue_fn(k))
        if val <= 0:
            raise ContractViolationError(f"schedule Lebesgue bound at {k} not positive")
        return val


def check_band_points(schedule: CoronaCoverSchedule, depth: int) -> None:
    """Reject a band cover whose carrier corona x {0..depth} would pass
    POINT_CAP, before anything of that size is built."""
    points = schedule.corona_space.n * (depth + 1)
    if points > POINT_CAP:
        raise ResourceLimitError(
            f"a band cover of {schedule.corona_space.n} corona points to depth {depth} has "
            f"{points} product points, beyond the {POINT_CAP} point cap")


def corona_dim_cover(schedule: CoronaCoverSchedule, deltas: Sequence[float],
                     window: Entourage, depth: int):
    """Build the multiplicity-(n+1) cover of corona x {0..depth}.

    deltas is a non-increasing sequence tending to zero controlling how fast
    related boundary points approach each other along the window; the window
    relation on the level sample drives the prefix sets K_k. Output sets are
    products of schedule sets with level bands; the certificate reports the
    level bookkeeping d_m (non-increasing), the projection band widths, and
    the verified multiplicity and appetite.
    """
    levels = window.space
    if depth < 0:
        raise InvalidInputError("depth must be non-negative")
    check_band_points(schedule, depth)
    if levels.n < depth + 1:
        raise InvalidInputError("window relation sample is smaller than the depth")
    deltas = [float(d) for d in deltas]
    if len(deltas) < depth + 1:
        raise InvalidInputError("need a delta for every level up to the depth")
    if any(deltas[i] < deltas[i + 1] - TOL for i in range(len(deltas) - 1)):
        raise InvalidInputError("delta sequence must be non-increasing")

    n_fam = schedule.n_families
    corona = schedule.corona_space

    # prefix sets K_k of the level sample driven by the window relation: a
    # level is in K_k once k reaches its hop count, and never if the walk
    # did not reach it
    win = window.union(Entourage.diagonal(levels))
    win = win.union(win.inverse())
    hops, walked = _window_hops(win.csr, depth)
    reach = np.where(hops <= walked, hops, np.iinfo(np.int64).max)

    # scale chain l_i: strictly increasing, with 1/l_{i+1} below the
    # Lebesgue bound of the cover at scale l_i
    scales = [1]

    def ensure_scale(idx: int) -> None:
        while len(scales) <= idx:
            leb = schedule.lebesgue_at(scales[-1])
            scales.append(max(scales[-1] + 1, int(math.ceil(1.0 / leb))))

    # cut points k_i: beyond K_{k_i - 2}, every delta drops below 1/l_{i+2};
    # the extra index step (i+2 rather than i+1) is what lets every related
    # ball at a level in the band (k_{i-1}, k_i] fit inside a set of the
    # scale-l_i cover
    cuts: dict[int, int] = {-2: 0}
    level_deltas = np.asarray(deltas[:depth + 1])
    i = -1
    while True:
        ensure_scale(i + 2)
        thr = _k_threshold(level_deltas, scales[i + 2], reach, depth)
        if thr is None:
            raise ContractViolationError(
                f"delta sequence never drops below 1/{scales[i + 2]} inside "
                "the window; deepen the window or relax the schedule",
                witness=scales[i + 2])
        k_i = max(cuts[i - 1] + 2 * n_fam + 1, thr)
        cuts[i] = k_i
        if i >= 1 and k_i >= reach[depth:].min():
            break
        i += 1
    i_max = max(cuts)
    ensure_scale(i_max + 1)

    covers = {j: schedule.cover_at(scales[j]) for j in range(i_max + 2)}
    # the color 1..n of every set: one more than the index of its family
    colors = {j: _colors(cover) for j, cover in covers.items()}

    # transfer maps between consecutive scales: first coarse set containing
    # the fine set (guaranteed by the Lebesgue chain)
    phi: dict[int, np.ndarray] = {}
    for j in range(1, i_max + 2):
        fine, coarse = covers[j], covers[j - 1]
        table = first_container(fine.incidence(), coarse.incidence())
        if np.any(table < 0):
            raise ContractViolationError(
                f"scale chain broke: a set of scale {scales[j]} fits in no set "
                f"of scale {scales[j - 1]}", witness=(j, fine.sets[int(np.argmin(table))]))
        phi[j] = table

    # the product carrier: corona position * (depth+1) + level
    width = depth + 1
    product = Space.discrete(corona.n * width)
    reach = reach[:width]

    def bands(k):
        """The masks of K_k over the levels 0..depth, for an int or an array
        of ints k."""
        return reach <= np.asarray(k)[..., None]

    # layer 0 is one set: every base set V crossed with K(k_0 + 2*color(V))
    base = covers[0].incidence()
    cols, _ = _band_rows(base, np.repeat(colors[0] - 1, np.diff(base.indptr)),
                         bands(cuts[0] + 2 * np.arange(1, n_fam + 1)))
    union = np.unique(cols)
    rows, sizes = [union], [np.array([union.size])]

    # layer i >= 1 contributes, per fine set V of scale l_i: V crossed with
    # the band (k_{i-1} + 2*color(parent) - 2, k_i], plus the union of the
    # next-scale sets refining V crossed with (k_i, k_i + 2*color(V)]. Those
    # sets lie inside V, and the second band starts where the first ends,
    # so a point of V in one of them takes the levels (k_{i-1} +
    # 2*color(parent) - 2, k_i + 2*color(V)]: one of n * (n + 1) bands
    shift = 2 * np.arange(n_fam + 1)
    for j in range(1, i_max + 1):
        fine, finer = covers[j].incidence(), covers[j + 1].incidence()
        k_lo, k_hi = cuts[j - 1], cuts[j]
        owner = np.repeat(np.arange(fine.shape[0]), np.diff(fine.indptr))
        keys = owner * corona.n + fine.indices
        refined = np.zeros(keys.size, dtype=bool)
        refined[np.searchsorted(keys, np.repeat(phi[j + 1], np.diff(finer.indptr)) * corona.n
                                + finer.indices)] = True
        band = ((colors[j - 1][phi[j]][owner] - 1) * (n_fam + 1)
                + np.where(refined, colors[j][owner], 0))
        masks = bands(k_hi + shift)[None] & ~bands(k_lo + shift[:-1])[:, None]
        cols, count = _band_rows(fine, band, masks.reshape(-1, width))
        rows.append(cols)
        sizes.append(count[count > 0])

    sizes = np.concatenate(sizes)
    out = Cover(product, sparse.csr_matrix(
        (np.ones(int(sizes.sum()), dtype=bool), np.concatenate(rows),
         np.concatenate(([0], np.cumsum(sizes)))), shape=(sizes.size, product.n)),
        require_covering=False, canonicalize=False)
    missing = out.uncovered_points()
    mult = multiplicity(out)
    appetite_fail = _band_appetite_witness(out, schedule, deltas, win, width, depth)
    d_m, proj_ok = _band_bookkeeping(out, schedule, scales, cuts, bands, width)
    guarantees = certify([
        holds("dim_cover.covers", not missing, missing[:3] if missing else None),
        count_at_most("dim_cover.multiplicity", mult, n_fam + 1),
        holds("dim_cover.appetite", appetite_fail is None, appetite_fail),
        holds("dim_cover.projection_bands", proj_ok),
        holds("dim_cover.d_sequence_non_increasing",
              all(d_m[m] >= d_m[m + 1] - TOL for m in range(len(d_m) - 1))),
    ])
    certificate = {
        "d_sequence": d_m,
        "cuts": {str(k): v for k, v in sorted(cuts.items())},
        "scales": scales[:i_max + 2],
        "layers": i_max,
    }
    return out, guarantees, certificate


def _window_hops(step, depth: int) -> tuple[np.ndarray, int]:
    """(hops, walked): the prefix set K_k holds the levels v with hops[v] <=
    min(k, walked), the levels within k steps of level 0 under the
    symmetric relation step (diagonal included, as CSR arrays), found by one
    breadth-first walk over its rows. The walk stops at the last level, or
    where it stops growing, which must be past depth; hops is n at a level
    never reached.
    A level sample has a few window partners per level, so the walk is a
    Python loop over the rows, one visit per entry."""
    n = step.indptr.size - 1
    indptr, indices = step.indptr.tolist(), step.indices.tolist()
    hops = [n] * n
    hops[0] = 0
    frontier, walked = [0], 0
    while hops[-1] > walked:
        reached = []
        for u in frontier:
            for v in indices[indptr[u]:indptr[u + 1]]:
                if hops[v] == n:
                    hops[v] = walked + 1
                    reached.append(v)
        if not reached:
            last = max(v for v, h in enumerate(hops) if h <= walked)
            if last < depth:
                raise ContractViolationError(
                    "window relation never reaches the requested depth", witness=last)
            break
        walked += 1
        frontier = reached
    return np.array(hops), walked


def _colors(cover: Cover) -> np.ndarray:
    color = np.zeros(cover.incidence().shape[0], dtype=np.int64)
    for fi, fam in enumerate(cover.families):
        color[list(fam)] = fi + 1
    return color


def _band_rows(sets: sparse.csr_matrix, band: np.ndarray,
               masks: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(cols, count): each entry e = (r, c) of sets crossed with the levels
    m of row band[e] of masks, as product points c * width + m (width the
    masks' columns), in entry order and ascending levels, so ascending
    within each row of sets; and how many each row of sets holds. Their
    total is checked against PAIR_CAP before they are laid out."""
    width = masks.shape[1]
    per = masks.sum(axis=1)
    reps = per[band]
    total = int(reps.sum())
    if total > PAIR_CAP:
        raise ResourceLimitError(
            f"the level bands hold {total} product entries, beyond the {PAIR_CAP} pair cap")
    level = np.nonzero(masks)[1]
    # entry e's levels start at level[cumsum(per)[band[e]] - per[band[e]]]
    # and its output at cumsum(reps)[e] - reps[e]
    start = np.repeat(np.cumsum(per)[band] - per[band] - np.cumsum(reps) + reps, reps)
    cols = np.repeat(sets.indices.astype(np.int64) * width, reps)
    cols += level[start + np.arange(total)]
    return cols, np.diff(np.concatenate(([0], np.cumsum(reps)))[sets.indptr])


def _k_threshold(deltas: np.ndarray, scale: int, reach: np.ndarray, depth: int) -> Optional[int]:
    """Smallest k in 1..depth+4 such that every level m <= depth outside
    K(k-2) has delta_m below 1/scale; None when no such k exists.

    Level m is in K(k-2) when k - 2 >= reach[m]. So k is 1 when every delta
    is below, and otherwise max(2, H + 2), H the largest reach of a level
    whose delta is not; there is no k when that level is never reached (its
    reach the int64 maximum) or H + 2 > depth + 4."""
    wide = reach[:depth + 1][~(deltas < 1.0 / scale - TOL)]
    if not wide.size:
        return 1
    k = max(2, int(wide.max()) + 2)
    return k if k <= depth + 4 else None


def _band_appetite_witness(cover: Cover, schedule: CoronaCoverSchedule,
                           deltas, win: Entourage, width: int, depth: int):
    """Exhaustive appetite scan against the relation reconstructed from the
    deltas and the window: (x,a) ~ (y,b) iff (a,b) in the window and
    d(x, y) < delta_{max(a,b)-1}. Returns the failing (x, m) with the
    smallest x * width + m, or None."""
    failed = _band_appetite_failures(cover, schedule, deltas, win, width, depth)
    return divmod(int(np.argmax(failed)), width) if failed.any() else None


def _band_appetite_failures(cover: Cover, schedule: CoronaCoverSchedule,
                            deltas, win: Entourage, width: int, depth: int) -> np.ndarray:
    """Whether the ball of each product point x * width + m, m <= depth,
    fits inside no set holding the point (so an uncovered point fails).

    No ball is built. The ball of (x, m) at a window partner b <= depth is
    {y | d(x, y) < cut - TOL}, cut = delta_{max(m,b)-1} (+inf at m = b = 0).
    It fits in the slice S_b = {y | (y, b) in S} of a set S exactly when
    out(x, S_b) = min{d(x, y) | y not in S_b} is at least cut - TOL (out is
    +inf when S_b is the whole corona): the same float comparisons as
    testing the ball point by point. (x, m) passes when some set S holding
    it (its column of the incidence matrix, at most the multiplicity many)
    passes at every partner.

    A set's entries at one corona point are adjacent in its row, in
    ascending level. A segment is a maximal run of them over consecutive
    levels at which the set's slice stays the same; the slice changes only
    where some point's run of levels starts or ends. Every entry of a
    segment has the segment's margin out(x, S_b), so the margins are one
    outside_distances call whose queries are the slices themselves, one
    member per segment, and no member is searched for. An entry whose
    partners all lie in its segment passes exactly when that margin is at
    least the largest cut of its level. Only an entry with a partner
    outside its segment looks that partner up: the margin of the segment
    holding x at level b or, where S_b lacks x, out(x, S_b) from one more
    call, whose queries hold no member, made only where it can decide a
    point. On a 244-point band of the corona-band benchmark, 26,742
    entries form 1,672 segments, and 2,640 entries look partners up, of
    which 1,624 fall outside their slices; none of those can decide a
    point, so the band makes the one call.
    """
    corona = schedule.corona_space
    nc = corona.n
    m = cover.incidence()
    k, cols = m.shape
    owner = np.repeat(np.arange(k, dtype=np.int64), np.diff(m.indptr))
    key = owner * cols + m.indices
    level = m.indices % width
    # an entry starts a run of levels unless it follows its set's entry at
    # the same point and the level before
    start = np.ones(key.size, dtype=bool)
    start[1:] = (np.diff(key) != 1) | (level[1:] == 0)
    end = np.ones(key.size, dtype=bool)
    end[:-1] = start[1:]
    # row r * width + b is the slice of set r at level b; it differs from
    # the row before at level 0, where a run starts and past where one ends
    row = owner * width + level
    change = np.zeros(k * width + 1, dtype=bool)
    change[::width] = True
    change[row[start]] = True
    change[row[end] + 1] = True
    heads = np.flatnonzero(start | change[row])
    size = np.diff(heads, append=key.size)
    # the slices that start at a change, each a row holding its segments'
    # points (in entry order within a slice, so in point order)
    starts = np.flatnonzero(change[:-1])
    slice_of = np.searchsorted(starts, row[heads])
    order = np.argsort(slice_of, kind="stable")
    slices = sparse.csr_matrix(
        (np.ones(heads.size, dtype=bool), m.indices[heads][order] // width,
         np.concatenate(([0], np.cumsum(np.bincount(slice_of, minlength=starts.size))))),
        shape=(starts.size, nc))
    margin = np.empty(heads.size)
    margin[order] = corona.backend.outside_distances(slices, slices)

    # the window partners b <= depth of every level m <= depth, with cuts
    # win is symmetric, so its rows are its columns
    near = win.csr
    span = near.indptr[:depth + 2]
    plevel = np.repeat(np.arange(depth + 1), np.diff(span))
    partner = near.indices[:span[-1]].astype(np.int64)
    kept = partner <= depth
    plevel, partner = plevel[kept], partner[kept]
    top = np.maximum(plevel, partner)
    deltas = np.asarray(deltas, dtype=float)
    cut = np.where(top >= 1, deltas[top - 1], np.inf) - TOL
    # per level: its partner count, lowest and highest partner, largest cut
    count = np.bincount(plevel, minlength=width)
    lowest, highest, largest = np.full(width, width), np.full(width, -1), np.full(width, -np.inf)
    np.minimum.at(lowest, plevel, partner)
    np.maximum.at(highest, plevel, partner)
    np.maximum.at(largest, plevel, cut)

    # an entry whose partners all lie in its segment passes on its margin;
    # the others look the entry of each partner up by its key
    own = np.repeat(margin, size)
    seg_lo = np.repeat(level[heads], size)
    inside = (seg_lo <= lowest[level]) & (highest[level] < seg_lo + np.repeat(size, size))
    ok = own >= largest[level]
    out = np.flatnonzero(~inside)
    per = count[level[out]]
    begin = np.cumsum(per) - per
    e = np.repeat(out, per)
    slot = np.arange(e.size) + np.repeat(np.cumsum(count)[level[out]] - per - begin, per)
    b = partner[slot]
    want = key[e] + (b - level[e])
    j = np.minimum(np.searchsorted(key, want), key.size - 1)
    held = key[j] == want
    good = held & (own[j] >= cut[slot])
    ok[out] = np.logical_and.reduceat(good, begin)
    passed = np.zeros(nc * width, dtype=bool)
    passed[m.indices[ok]] = True
    # where S_b lacks x, out(x, S_b) counts d(x, x) and is the backend's to
    # give: it is asked only for entries whose other partners pass and whose
    # point has not passed through another set
    retry = out[np.logical_and.reduceat(good | ~held, begin)]
    retry = retry[~passed[m.indices[retry]]]
    wanted = np.zeros(key.size, dtype=bool)
    wanted[retry] = True
    ask = np.flatnonzero(~held & wanted[e])
    if ask.size:
        at = np.searchsorted(starts, owner[e[ask]] * width + b[ask], side="right") - 1
        pairs, back = np.unique(at * nc + m.indices[e[ask]] // width, return_inverse=True)
        queries = sparse.csr_matrix((np.ones(pairs.size, dtype=bool), np.divmod(pairs, nc)),
                                    shape=slices.shape)
        good[ask] = corona.backend.outside_distances(queries, slices)[back] >= cut[slot[ask]]
        passed[m.indices[out[np.logical_and.reduceat(good, begin)]]] = True
    return ~passed & (np.arange(nc * width) % width <= depth)


def _band_bookkeeping(cover: Cover, schedule: CoronaCoverSchedule, scales,
                      cuts, bands, width: int):
    """The per-level diameters d_m and a check that every covering set's
    corona spread stays below the declared diameter at its top level.

    The head value is the corona diameter, at least 1 (whatever sits inside
    the first two cut bands is only constrained by compactness); past the
    second cut the levels in band (k_{i-1}, k_i] carry d_m = 1/l_{i-2},
    which tends to the declared floor.

    A spread is the diameter of a set's corona projection, as the backend's
    mesh counts it (0 for fewer than two points). A set's entries at one
    corona point are adjacent in its row and ascend in level, so the first
    of each such group gives the projection and the last the top levels.
    The sets sharing a bound are checked by one mesh of their projections:
    the largest spread is within the bound exactly when every spread is.
    """
    corona = schedule.corona_space
    m = cover.incidence()
    k = m.shape[0]
    owner = np.repeat(np.arange(k), np.diff(m.indptr))
    point, level = np.divmod(m.indices.astype(np.int64), width)
    new = np.ones(m.nnz + 1, dtype=bool)
    new[1:-1] = (np.diff(owner) != 0) | (np.diff(point) != 0)
    first, last = np.flatnonzero(new[:-1]), np.flatnonzero(new[1:])
    projections = sparse.csr_matrix(
        (np.ones(first.size, dtype=bool), point[first], np.searchsorted(first, m.indptr)),
        shape=(k, corona.n))
    diameter = corona.diameter()
    head = max(1.0, diameter)

    ordered = sorted(i for i in cuts if i >= 0)
    layer = np.full(width, ordered[-1])
    for i in reversed(ordered):
        layer[bands(cuts[i])] = i
    d_m = np.where(layer <= 1, head, 1.0 / np.array(scales)[np.maximum(layer - 2, 0)])
    top = np.full(k, -1)
    np.maximum.at(top, owner[last], level[last])
    bound = d_m[top]
    # no projection spreads wider than the corona, so a bound of at least
    # its diameter (the head's, at least) holds without a mesh
    proj_ok = not any(corona.backend.mesh(projections, np.flatnonzero(bound == b)) > b + TOL
                      for b in np.unique(bound).tolist() if not b >= diameter)
    return d_m.tolist(), proj_ok
