"""Deterministic fixture builders shared by the CLI pipelines and the test
suite: interval and disk compactification models, circle arc schedules,
and randomized cover families with prescribed multiplicity and appetite.
All randomness flows through the splitmix generator."""

from __future__ import annotations

import math

import numpy as np
from scipy import sparse

from .corona import CompactificationModel, CoronaCoverSchedule
from .covers import Cover, lebesgue_number
from .errors import ResourceLimitError
from .prng import SplitMix64
from .spaces import PAIR_CAP, POINT_CAP, Entourage, Space


def unit_interval_model(step: float = 1.0 / 400) -> CompactificationModel:
    """[0, 1] sampled uniformly; the corona is the right endpoint."""
    n = int(round(1.0 / step)) + 1
    coords = np.arange(n)[:, None] * step
    sp = Space.cloud(coords)
    return CompactificationModel(sp, list(range(n - 1)), [n - 1])


def disk_model(radial: int = 20, angular: int = 36) -> CompactificationModel:
    """The closed unit disk in polar sampling; the corona is the boundary."""
    pts = [(0.0, 0.0)]
    for i in range(1, radial + 1):
        r = i / radial
        for j in range(angular):
            a = 2 * math.pi * j / angular
            pts.append((r * math.cos(a), r * math.sin(a)))
    coords = np.array(pts)
    sp = Space.cloud(coords)
    rr = np.linalg.norm(coords, axis=1)
    corona = [i for i in range(sp.n) if rr[i] > 1 - 1e-9]
    interior = [i for i in range(sp.n) if rr[i] <= 1 - 1e-9]
    return CompactificationModel(sp, interior, corona)


def circle_space(n_points: int = 720) -> Space:
    pts = [(math.cos(2 * math.pi * j / n_points),
            math.sin(2 * math.pi * j / n_points)) for j in range(n_points)]
    return Space.cloud(np.array(pts))


def point_schedule() -> CoronaCoverSchedule:
    """The one-point corona, covered at every scale by its one point."""
    space = Space.cloud(np.zeros((1, 2)))
    return CoronaCoverSchedule(
        space, 1,
        lambda k: Cover(space, [[0]], [[0]], canonicalize=False),
        lambda k: 1.0)


def _chord(angle: float) -> float:
    return 2 * math.sin(min(angle / 2, math.pi / 2))


def arc_count(overlap: float, k: int) -> int:
    """The fewest arcs m (even, at least 4) of the circle arc schedule at
    scale k: the first m whose chord 2 sin(min(2pi/m * 2 overlap, pi) / 2)
    is at most 1/k. More than POINT_CAP arcs is a resource-limit error.

    For overlap >= 0 this is a bisection over the even m. The angle
    a(m) = 2pi/m * 2 overlap does not grow with m, as rounding is monotone.
    The chord can only pass 1/k <= 1 where a(m)/2 is at most about pi/6,
    and there sin grows by a relative 0.9 of its argument. Two even
    m < m' <= POINT_CAP differ in a(m)/2 by a relative 2/m' >= 2e-7, far
    beyond the ulp that sin may be off. So m' passes whenever m does, and
    the bisection finds the m that stepping m by 2 finds. A negative
    overlap wraps the sine, which has no such order, so there m is stepped
    by 2 as it always was, still only up to the cap.
    """
    reach = 2 * overlap  # full arc width in spacing units

    def fine(m: int) -> bool:
        return _chord(2 * math.pi / m * reach) <= 1.0 / k

    if reach < 0:
        m = next((m for m in range(4, POINT_CAP + 1, 2) if fine(m)), POINT_CAP + 2)
    else:
        lo, hi = 2, POINT_CAP // 2 + 1  # m = 2 * lo; past the cap counts as fine
        while lo < hi:
            mid = (lo + hi) // 2
            lo, hi = (lo, mid) if fine(2 * mid) else (mid + 1, hi)
        m = 2 * lo
    if m > POINT_CAP:
        raise ResourceLimitError(
            f"the circle schedule at scale {k} needs more than {POINT_CAP} arcs "
            f"(overlap {overlap!r})")
    return m


def circle_arc_schedule(space: Space, overlap: float = 0.95) -> CoronaCoverSchedule:
    """Two-family arc covers of a circle sample with mesh <= 1/k and arc
    half-width overlap * spacing; the declared Lebesgue bound is the chord
    of the angular margin beyond the nearest arc center.

    Arc j of m is centred at c = j * sigma, sigma = 2pi/m, and holds the
    points p whose angle a_p = p * h, h = 2pi/n, passes
    |(a_p - c + pi) mod 2pi - pi| <= limit = overlap * sigma - 1e-12. Only
    the points of a window are tested: p from floor((c - r)/h) - 1 to
    ceil((c + r)/h) + 1, taken mod n and at most n of them, where r is
    limit clamped to [-pi, pi].

    The margin: the quotients are below 2n, so rounding moves them by far
    less than 1, and every point outside a window of fewer than n points
    lies more than h beyond c - r and c + r, both ways round the circle.
    For n <= POINT_CAP, h is at least 6e-7, while the computed test value
    is off from the exact circular distance by a few ulps of 2pi. So no
    point outside a window passes, and a window capped at n holds every
    point. The work is one test per window point, the arcs' members plus
    about four points an arc, and the window total is checked against
    PAIR_CAP before the windows are laid out.
    """
    n = space.n
    angles = np.arange(n) * (2 * math.pi / n)

    def build(k: int) -> Cover:
        m = arc_count(overlap, k)
        sigma = 2 * math.pi / m
        limit = overlap * sigma - 1e-12
        reach = min(max(limit, -math.pi), math.pi)
        step = 2 * math.pi / n
        centers = np.arange(m) * sigma
        first = np.floor((centers - reach) / step).astype(np.int64) - 1
        count = np.clip(np.ceil((centers + reach) / step).astype(np.int64) + 2 - first, 0, n)
        total = int(count.sum())
        if total > PAIR_CAP:
            raise ResourceLimitError(
                f"the {m} arc windows of the circle schedule at scale {k} hold {total} "
                f"points, beyond the {PAIR_CAP} pair cap")
        arc = np.repeat(np.arange(m), count)
        point = np.arange(total) + np.repeat(first - (np.cumsum(count) - count), count)
        point %= n
        hit = np.abs((angles[point] - centers[arc] + math.pi) % (2 * math.pi) - math.pi) <= limit
        arcs, points = np.divmod(np.sort(arc[hit] * n + point[hit]), n)
        indptr = np.concatenate(([0], np.cumsum(np.bincount(arcs, minlength=m))))
        incidence = sparse.csr_matrix((np.ones(points.size, dtype=bool), points, indptr),
                                      shape=(m, n))
        return Cover(space, incidence, [range(0, m, 2), range(1, m, 2)], canonicalize=False)

    def lebesgue(k: int) -> float:
        sigma = 2 * math.pi / arc_count(overlap, k)
        return 0.98 * _chord((overlap - 0.5) * sigma)

    return CoronaCoverSchedule(space, 2, build, lebesgue)


def shift_window(depth: int, slack: int = 10):
    """The one-step neighbor relation on the level sample {0..depth+slack}."""
    levels = Space.line(0, depth + slack, 1.0)
    return Entourage.from_pairs(levels, [(i, i + 1) for i in range(depth + slack)])


def power_decay_deltas(depth: int, c: float = 4.0, power: float = 1.5,
                       slack: int = 10) -> list[float]:
    return [c / (m + 1) ** power for m in range(depth + slack + 1)]


def randomized_grid_cover(rng: SplitMix64, n: int, max_points: int = 400):
    """A randomized cover of a 1-d or 2-d grid sample with multiplicity
    n+1 and appetite for the (n+1)-th power of L = the closed step relation.

    Returns (cover, L). Built from shifted open cubes with a random edge and
    a random offset, restricted to a random window; the edge is sized so
    that (n+1)-step chains stay inside single cubes.
    """
    from .witnesses import cube_cover

    step = 1.0 if n == 2 else 0.5
    side = {1: 120, 2: 19}[n]
    span = side * step
    # chains of n+1 unit steps span (n+1)*step, so the cube Lebesgue number
    # a/(2(n+1)) must exceed that strictly
    a = step * rng.randint(2 * (n + 1) ** 2 + 1, 3 * (n + 1) ** 2)
    offset = rng.randint(0, 3) * step
    space = Space.grid(n, [offset] * n, [offset + span] * n, step)
    cover, _ = cube_cover(space, n, a)
    L = Entourage.radius(space, step + 1e-6).materialize()
    return Cover(space, cover.incidence()), L


def randomized_partition_cover(rng: SplitMix64, points: int = 300):
    """A partition of a random finite metric space (multiplicity 1) plus an
    L small enough that every L-ball stays inside its own cell."""
    coords = np.array([[rng.uniform() * 40, rng.uniform() * 40]
                       for _ in range(points)])
    space = Space.cloud(coords)
    n_cells = rng.randint(4, 9)
    centers = [rng.randint(0, points - 1) for _ in range(n_cells)]
    owner = np.argmin(np.stack([space.dist_row(c) for c in centers]), axis=0)
    sets = [sorted(int(i) for i in np.nonzero(owner == k)[0])
            for k in range(n_cells)]
    sets = [s for s in sets if s]
    cover = Cover(space, sets)
    # the Lebesgue number of a partition is the least distance between
    # points of different cells, so smaller balls never straddle two cells
    r = max(lebesgue_number(cover) * 0.9, 1e-3)
    return cover, Entourage.radius(space, r)


def two_piece_union_fixture(rng: SplitMix64):
    """Colored covers of two halves of an integer line sample meeting the
    merge preconditions; returns (cover_a, cover_b, L)."""
    hi = 80 + rng.randint(0, 40)
    split = hi // 2 + rng.randint(-5, 5)
    sp = Space.line(0, hi, 1.0)
    width = rng.randint(3, 5)
    a_sets, fam_a = [], [[], []]
    i = 0
    while i <= split:
        fam_a[(i // width) % 2].append(len(a_sets))
        a_sets.append(list(range(i, min(i + width, split + 1))))
        i += width
    mid = (split + hi) // 2
    b_sets = [list(range(split, mid + 1)), list(range(mid + 1, hi + 1))]
    fam_b = [[0], [1]]
    ca = Cover(sp, a_sets, fam_a, require_covering=False, canonicalize=False)
    cb = Cover(sp, b_sets, fam_b, require_covering=False, canonicalize=False)
    L = Entourage.radius(sp, 1.0, closed=True).materialize()
    return ca, cb, L
