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
"""

from __future__ import annotations

import math
from typing import Optional, Sequence

import numpy as np
from scipy import sparse

from .covers import Cover, first_container, multiplicity
from .errors import ContractViolationError, InvalidInputError
from .spaces import Entourage, Space
from .transforms import _claim, _ensure

TOL = 1e-9


class CompactificationModel:
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
        self.ambient = ambient
        self.interior = interior
        self.corona = corona
        self._interior_arr = np.array(interior, dtype=np.int64)
        corona_arr = np.array(corona, dtype=np.int64)
        self._corona_dist = np.array(
            [float(ambient.dist_row(i)[corona_arr].min()) for i in interior])
        if np.any(self._corona_dist <= TOL):
            raise InvalidInputError("an interior sample point touches the corona")
        if depth is None:
            depth = int(math.ceil(1.0 / self._corona_dist.min())) + 1
        self.depth = depth

    def filtration_index(self, interior_pos: int) -> int:
        """The unique i >= 1 with the point in X_i \\ X_{i-1}."""
        d = self._corona_dist[interior_pos]
        i = max(1, int(math.ceil(1.0 / d - TOL)))
        return i

    def filtration_set(self, i: int) -> list[int]:
        """X_i as positions into the interior list."""
        if i <= 0:
            return []
        return np.flatnonzero(self._corona_dist >= 1.0 / i - TOL).tolist()

    def widths(self) -> list[float]:
        """a_i = max over corona points of d(X_i, corona point), per level."""
        out = []
        for i in range(self.depth + 1):
            xi = [self.interior[p] for p in self.filtration_set(i)]
            if not xi:
                out.append(math.inf)
                continue
            xi_arr = np.array(xi, dtype=np.int64)
            worst = 0.0
            for c in self.corona:
                worst = max(worst, float(self.ambient.dist_row(c)[xi_arr].min()))
            out.append(worst)
        return out


def map_f(model: CompactificationModel, corona_index: int, n: int) -> int:
    """The interior sample point of X_n nearest to the given corona point;
    ties break to the lowest index."""
    xn = model.filtration_set(n)
    if not xn:
        raise InvalidInputError(f"X_{n} is empty on this sample")
    c = model.corona[corona_index] if corona_index < len(model.corona) else None
    if c is None:
        raise InvalidInputError("corona index out of range")
    row = model.ambient.dist_row(c)
    # candidates ascend, so argmin's first minimum is the lowest index
    cand = model._interior_arr[xn]
    return int(cand[np.argmin(row[cand])])


def map_g(model: CompactificationModel, interior_index: int) -> tuple[int, int]:
    """(corona position, filtration level) for an interior sample point;
    the corona point minimizes the ambient distance, ties to lowest index."""
    if interior_index not in model.interior:
        raise InvalidInputError("not an interior sample point")
    pos = model.interior.index(interior_index)
    level = model.filtration_index(pos)
    row = model.ambient.dist_row(interior_index)
    return (int(np.argmin(row[model.corona])), int(level))


def roundtrip_bounds(model: CompactificationModel) -> dict:
    """Verify d(f(g(x)), x) <= 2/(i-1) for all interior x with i >= 2, and
    the band bounds on g(f(xbar, k)) wherever the width sequence allows."""
    worst_ratio = 0.0
    fg_failures = []
    for pos, x in enumerate(model.interior):
        ci, level = map_g(model, x)
        y = map_f(model, ci, level)
        d = model.ambient.dist(x, y)
        if level >= 2:
            bound = 2.0 / (level - 1)
            if d > bound + TOL:
                fg_failures.append((x, level, d, bound))
            if bound > 0:
                worst_ratio = max(worst_ratio, d / bound)

    widths = model.widths()
    gf_failures = []
    checked = 0
    for k in range(1, model.depth + 1):
        if not model.filtration_set(k):
            continue
        a_k = widths[k] if k < len(widths) else math.inf
        n_k = None
        if a_k < 1.0:
            n_k = int(math.floor(1.0 / a_k - TOL)) if a_k > 0 else model.depth
        for ci in range(len(model.corona)):
            y = map_f(model, ci, k)
            pos = model.interior.index(y)
            k_tilde = model.filtration_index(pos)
            checked += 1
            if k_tilde > k:
                gf_failures.append((ci, k, k_tilde, "above"))
            if n_k is not None and k_tilde < n_k + 1:
                gf_failures.append((ci, k, k_tilde, f"below n_k+1 = {n_k + 1}"))
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
    interior_set = set(model.interior)
    pairs = [(i, j) for i, j in entourage.materialize().pairs()
             if i in interior_set and j in interior_set]
    pos_of = {x: p for p, x in enumerate(model.interior)}
    # past the level where the filtration swallows the whole interior
    # sample, every tail width is trivially zero; stop just before it
    exhaust = model.depth
    for level in range(1, model.depth + 1):
        if len(model.filtration_set(level)) == len(model.interior):
            exhaust = level
            break
    depth_eval = max(2, exhaust - 1)
    rho = []
    for level in range(1, depth_eval + 1):
        cut = 1.0 / level - TOL
        worst = 0.0
        for i, j in pairs:
            if model._corona_dist[pos_of[i]] < cut or model._corona_dist[pos_of[j]] < cut:
                d = model.ambient.dist(i, j)
                if d > worst:
                    worst = d
        rho.append(worst)
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
    bound on its Lebesgue number. Both are verified lazily as requested
    scales are built.
    """

    def __init__(self, corona_space: Space, n_families: int, builder,
                 lebesgue_fn):
        self.corona_space = corona_space
        self.n_families = n_families
        self._builder = builder
        self._lebesgue_fn = lebesgue_fn
        self._cache: dict[int, Cover] = {}

    def cover_at(self, k: int) -> Cover:
        got = self._cache.get(k)
        if got is None:
            got = self._builder(k)
            if got.families is None or len(got.families) != self.n_families:
                raise ContractViolationError(
                    f"schedule cover at scale {k} must carry {self.n_families} families")
            self._cache[k] = got
        return got

    def lebesgue_at(self, k: int) -> float:
        val = float(self._lebesgue_fn(k))
        if val <= 0:
            raise ContractViolationError(f"schedule Lebesgue bound at {k} not positive")
        return val


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
    if levels.n < depth + 1:
        raise InvalidInputError("window relation sample is smaller than the depth")
    deltas = [float(d) for d in deltas]
    if len(deltas) < depth + 1:
        raise InvalidInputError("need a delta for every level up to the depth")
    if any(deltas[i] < deltas[i + 1] - TOL for i in range(len(deltas) - 1)):
        raise InvalidInputError("delta sequence must be non-increasing")

    n_fam = schedule.n_families
    corona = schedule.corona_space

    # prefix sets K_k of the level sample driven by the window relation
    win = window.union(Entourage.diagonal(levels))
    win = win.union(win.inverse())
    prefixes: list[set[int]] = [{0}]
    while True:
        nxt = set(prefixes[-1]) | set(win.image(prefixes[-1]))
        if nxt == prefixes[-1]:
            if max(prefixes[-1]) < depth:
                raise ContractViolationError(
                    "window relation never reaches the requested depth",
                    witness=max(prefixes[-1]))
            break
        prefixes.append(nxt)
        if max(nxt) >= levels.n - 1:
            break

    def K(k: int) -> set[int]:
        if k < 0:
            return set()
        if k < len(prefixes):
            return prefixes[k]
        return prefixes[-1]

    # scale chain l_i: strictly increasing, with 1/l_{i+1} below the
    # Lebesgue bound of the cover at scale l_i
    scales = [1]

    def ensure_scale(idx: int) -> bool:
        while len(scales) <= idx:
            leb = schedule.lebesgue_at(scales[-1])
            scales.append(max(scales[-1] + 1, int(math.ceil(1.0 / leb))))
        return True

    # cut points k_i: beyond K_{k_i - 2}, every delta drops below 1/l_{i+2};
    # the extra index step (i+2 rather than i+1) is what lets every related
    # ball at a level in the band (k_{i-1}, k_i] fit inside a set of the
    # scale-l_i cover
    cuts: dict[int, int] = {-2: 0}
    i = -1
    while True:
        ensure_scale(i + 2)
        thr = _k_threshold(deltas, scales[i + 2], K, depth)
        if thr is None:
            raise ContractViolationError(
                f"delta sequence never drops below 1/{scales[i + 2]} inside "
                "the window; deepen the window or relax the schedule",
                witness=scales[i + 2])
        k_i = max(cuts[i - 1] + 2 * n_fam + 1, thr)
        cuts[i] = k_i
        if i >= 1 and max(K(k_i)) >= depth:
            break
        i += 1
    i_max = max(cuts)
    ensure_scale(i_max + 1)

    covers = {j: schedule.cover_at(scales[j]) for j in range(i_max + 2)}

    # transfer maps between consecutive scales: first coarse set containing
    # the fine set (guaranteed by the Lebesgue chain)
    phi: dict[int, list[int]] = {}
    for j in range(1, i_max + 2):
        fine, coarse = covers[j], covers[j - 1]
        table = first_container(fine.incidence(), coarse.incidence())
        if np.any(table < 0):
            raise ContractViolationError(
                f"scale chain broke: a set of scale {scales[j]} fits in no set "
                f"of scale {scales[j - 1]}", witness=(j, fine.sets[int(np.argmin(table))]))
        phi[j] = table.tolist()

    def family_of(cover: Cover, set_index: int) -> int:
        for fi, fam in enumerate(cover.families):
            if set_index in fam:
                return fi + 1  # colors run 1..n
        raise InvalidInputError("set missing from families")

    # the product carrier: corona position * (depth+1) + level
    width = depth + 1
    product = Space.discrete(corona.n * width)

    def prod_set(cset, band) -> list[int]:
        out = []
        band = [m for m in band if m <= depth]
        for c in cset:
            for m in band:
                out.append(c * width + m)
        return out

    sets: list[tuple[int, ...]] = []
    origins: list[dict] = []

    base_cover = covers[0]
    u0: set[int] = set()
    for si, cset in enumerate(base_cover.sets):
        j_v = family_of(base_cover, si)
        u0.update(prod_set(cset, sorted(K(cuts[0] + 2 * j_v))))
    sets.append(tuple(sorted(u0)))
    origins.append({"layer": 0})

    # layer i >= 1 contributes, per fine set V of scale l_i: V crossed with
    # the band (k_{i-1} + 2*color(parent) - 2, k_i], plus the union of the
    # next-scale sets refining V crossed with (k_i, k_i + 2*color(V)]
    for j in range(1, i_max + 1):
        fine, coarse = covers[j], covers[j - 1]
        k_lo, k_hi = cuts[j - 1], cuts[j]
        children: list[list[int]] = [[] for _ in fine.sets]
        for wi, p in enumerate(phi[j + 1]):
            children[p].append(wi)
        for si, w in enumerate(fine.sets):
            j_w = family_of(fine, si)
            parent = phi[j][si]
            j_parent = family_of(coarse, parent)
            a_band = sorted(K(k_hi) - K(k_lo + 2 * j_parent - 2))
            b_band = sorted(K(k_hi + 2 * j_w) - K(k_hi))
            piece = set(prod_set(w, a_band))
            for wi in children[si]:
                piece.update(prod_set(covers[j + 1].sets[wi], b_band))
            if piece:
                sets.append(tuple(sorted(piece)))
                origins.append({"layer": j, "set": si})

    out = Cover(product, sets, require_covering=False, canonicalize=False)
    guarantees = []
    missing = out.uncovered_points()
    guarantees.append(_claim("dim_cover.covers", True, not missing, not missing,
                             missing[:3] if missing else None))
    mult = multiplicity(out)
    guarantees.append(_claim("dim_cover.multiplicity", n_fam + 1, mult,
                             mult <= n_fam + 1))

    appetite_fail = _band_appetite_witness(out, schedule, deltas, win, width, depth)
    guarantees.append(_claim("dim_cover.appetite", True, appetite_fail is None,
                             appetite_fail is None, appetite_fail))

    d_m, proj_ok = _band_bookkeeping(out, schedule, scales, cuts, K, width, depth)
    guarantees.append(_claim("dim_cover.projection_bands", True, proj_ok, proj_ok))
    non_inc = all(d_m[m] >= d_m[m + 1] - TOL for m in range(len(d_m) - 1))
    guarantees.append(_claim("dim_cover.d_sequence_non_increasing", True, non_inc, non_inc))
    _ensure(guarantees)
    certificate = {
        "d_sequence": d_m,
        "cuts": {str(k): v for k, v in sorted(cuts.items())},
        "scales": scales[:i_max + 2],
        "layers": i_max,
    }
    return out, guarantees, certificate


def _k_threshold(deltas, scale, K, depth) -> Optional[int]:
    """Smallest k such that every level outside K(k-2) has delta below
    1/scale; None when no such k exists inside the window."""
    bound = 1.0 / scale
    for k in range(1, depth + 5):
        inside = K(k - 2)
        if all(deltas[m] < bound - TOL for m in range(depth + 1) if m not in inside):
            return k
    return None


def _band_appetite_witness(cover: Cover, schedule: CoronaCoverSchedule,
                           deltas, win: Entourage, width: int, depth: int):
    """Exhaustive appetite scan against the relation reconstructed from the
    deltas and the window: (x,a) ~ (y,b) iff (a,b) in the window and
    d(x, y) < delta_{max(a,b)-1}. Returns the failing (x, m) with the
    smallest x * width + m, or None.

    The ball of (x, m) must fit inside a set incident to (x, m). Checking
    all sets instead is equivalent: a non-empty ball holds its centre
    already, since each member (y, b) has d(x, y) < delta_{max(m,b)-1} <=
    delta_{m-1} as the deltas are non-increasing. Each query still gets its
    centre added, so that an empty ball at an uncovered point fails as
    before and the tolerance on non-increase cannot matter.

    The balls are built one level m at a time, over the columns of m's
    window partners only, so memory holds one level's balls at a time.
    """
    corona = schedule.corona_space
    nc = corona.n
    dist = np.array([corona.dist_row(c) for c in range(nc)]).reshape(nc, nc)
    sets = cover.incidence().tocsc()
    first = None
    for m in range(depth + 1):
        partners = [b for b in sorted(win.image([m])) if b <= depth]
        balls = np.empty((nc, nc, len(partners)), dtype=bool)
        for t, b in enumerate(partners):
            cut = deltas[max(m, b) - 1] if max(m, b) >= 1 else math.inf
            balls[:, :, t] = dist < cut - TOL
        balls[np.arange(nc), np.arange(nc), partners.index(m)] = True
        cols = (np.arange(nc)[:, None] * width + np.array(partners)[None, :]).ravel()
        hits = first_container(sparse.csr_matrix(balls.reshape(nc, -1)), sets[:, cols])
        failed = np.nonzero(hits < 0)[0]
        if failed.size and (first is None or failed[0] * width + m < first):
            first = int(failed[0]) * width + m
    return None if first is None else divmod(first, width)


def _band_bookkeeping(cover: Cover, schedule: CoronaCoverSchedule, scales,
                      cuts, K, width: int, depth: int):
    """The per-level diameters d_m and a check that every covering set's
    corona spread stays below the declared diameter at its top level.

    The head value is the corona diameter (whatever sits inside the first
    two cut bands is only constrained by compactness); past the second cut
    the levels in band (k_{i-1}, k_i] carry d_m = 1/l_{i-2}, which tends to
    the declared floor.
    """
    corona = schedule.corona_space
    head = max(1.0, max(float(corona.dist_row(c).max()) for c in range(corona.n)))
    ordered = sorted(k for k in cuts if k >= 0)
    d_m = []
    for m in range(depth + 1):
        layer = None
        for i in ordered:
            if m in K(cuts[i]):
                layer = i
                break
        if layer is None:
            layer = ordered[-1]
        d_m.append(head if layer <= 1 else 1.0 / scales[layer - 2])
    proj_ok = True
    for s in cover.sets:
        top = max(p % width for p in s)
        cs = sorted({p // width for p in s})
        spread = 0.0
        cs_arr = np.array(cs, dtype=np.int64)
        for c in cs:
            spread = max(spread, float(corona.dist_row(c)[cs_arr].max()))
        if spread > d_m[top] + TOL:
            proj_ok = False
    return d_m, proj_ok
