"""Deterministic fixture builders shared by the CLI pipelines and the test
suite: interval and disk compactification models, circle arc schedules,
random trees, and randomized cover families with prescribed multiplicity
and appetite. All randomness flows through the splitmix generator."""

from __future__ import annotations

import math

import numpy as np
from scipy import sparse

from .corona import CompactificationModel, CoronaCoverSchedule
from .covers import Cover
from .prng import SplitMix64
from .spaces import Entourage, Space
from .transforms import ColoredCover

# circle_arc_schedule measures angular distances in blocks of at most this
# many arcs x points entries
_ARC_BLOCK = 1 << 16


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
        lambda k: ColoredCover(space, [[0]], [[0]], Entourage.diagonal(space),
                               canonicalize=False),
        lambda k: 1.0)


def circle_arc_schedule(space: Space, overlap: float = 0.95) -> CoronaCoverSchedule:
    """Two-family arc covers of a circle sample with mesh <= 1/k and arc
    half-width overlap * spacing; the declared Lebesgue bound is the chord
    of the angular margin beyond the nearest arc center."""
    n = space.n
    angles = np.arange(n) * (2 * math.pi / n)
    reach = 2 * overlap  # full arc width in spacing units

    def chord(angle: float) -> float:
        return 2 * math.sin(min(angle / 2, math.pi / 2))

    def arc_count(k: int) -> int:
        m = 4
        while chord(2 * math.pi / m * reach) > 1.0 / k:
            m += 2
        return m

    def build(k: int) -> Cover:
        m = arc_count(k)
        sigma = 2 * math.pi / m
        limit = overlap * sigma - 1e-12
        # arc j is centred at j * sigma
        step = max(1, _ARC_BLOCK // max(n, 1))
        arcs, points = [], []
        for lo in range(0, m, step):
            centers = np.arange(lo, min(lo + step, m))[:, None] * sigma
            d = np.abs((angles - centers + math.pi) % (2 * math.pi) - math.pi)
            arc, point = np.nonzero(d <= limit)
            arcs.append(arc + lo)
            points.append(point)
        arcs, points = np.concatenate(arcs), np.concatenate(points)
        indptr = np.concatenate(([0], np.cumsum(np.bincount(arcs, minlength=m))))
        incidence = sparse.csr_matrix((np.ones(points.size, dtype=bool), points, indptr),
                                      shape=(m, n))
        return ColoredCover(space, incidence, [range(0, m, 2), range(1, m, 2)],
                            Entourage.diagonal(space), require_covering=True,
                            canonicalize=False)

    def lebesgue(k: int) -> float:
        sigma = 2 * math.pi / arc_count(k)
        return 0.98 * chord((overlap - 0.5) * sigma)

    return CoronaCoverSchedule(space, 2, build, lebesgue)


def shift_window(depth: int, slack: int = 10):
    """The one-step neighbor relation on the level sample {0..depth+slack}."""
    levels = Space.line(0, depth + slack, 1.0)
    return Entourage.from_pairs(levels, [(i, i + 1) for i in range(depth + slack)])


def power_decay_deltas(depth: int, c: float = 4.0, power: float = 1.5,
                       slack: int = 10) -> list[float]:
    return [c / (m + 1) ** power for m in range(depth + slack + 1)]


def random_tree_space(rng: SplitMix64, n: int) -> Space:
    edges = [(rng.randint(0, v - 1), v) for v in range(1, n)]
    return Space.tree(edges)


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
    # the largest radius whose balls never straddle two cells
    best = math.inf
    for k, s in enumerate(sets):
        others = [i for i in range(points) if owner[i] != owner[s[0]]]
        if not others:
            continue
        arr = np.array(others)
        for i in s:
            best = min(best, float(space.dist_row(i)[arr].min()))
    r = max(best * 0.9, 1e-3)
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
    ca = ColoredCover(sp, a_sets, fam_a, Entourage.diagonal(sp),
                      require_covering=False, canonicalize=False)
    cb = ColoredCover(sp, b_sets, fam_b, Entourage.diagonal(sp),
                      require_covering=False, canonicalize=False)
    L = Entourage.radius(sp, 1.0, closed=True).materialize()
    return ca, cb, L
