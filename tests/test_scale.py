"""Scale: a 10^5-point grid certifies the whole chain cube -> colorize ->
expand -> stats. Interiors, appetite, disjointness and spreads are decided
from the incidence matrices and L, so no power of L, no cover spread and no
composite relation is formed, and none can stop the chain at the pair cap.
The radius relation L itself is assembled straight into CSR, holding at
most twice its arrays. The ray band cover of the cone is built and
certified from band tables at about 10^5 product points. A circle arc
schedule tests only each arc's window of points, so its cover of 10^5
points at scale 1000 (11,940 arcs) holds a small multiple of its incidence
arrays, where the arcs x points scan measured 1.2 * 10^9 angles. A uniform
cloud of about 2 * 10^4 points certifies cube -> colorize -> stats with its
Lebesgue numbers found in the cell list, never against every point. A
union of two pieces of a 10^5-point line is certified on the index arrays
of its B-sets' images and spreads (about 0.03 s on a 2-core VM)."""

import tracemalloc

import numpy as np
import pytest

from coarselab import covers, transforms
from coarselab.covers import Cover
from coarselab.fixtures import circle_arc_schedule, circle_space
from coarselab.spaces import Entourage, EuclideanMetric, Space
from coarselab.transforms import colorize, expand, merge_union
from coarselab.witnesses import cube_cover, ray_cell_cover


def test_grid_chain_at_ten_to_the_fifth_points(monkeypatch):
    def formed(*args, **kwargs):
        raise AssertionError("a derived relation was formed")

    monkeypatch.setattr(transforms, "cover_entourage", formed)
    monkeypatch.setattr(Entourage, "compose", formed)
    grid = Space.grid(2, [0.0, 0.0], [316.0, 316.0], 1.0)
    assert grid.n == 100_489
    L = Entourage.radius(grid, 1.000001).materialize()
    cube, cert_cube = cube_cover(grid, 2, 24.0)
    colored, cert_colorize = colorize(cube, L, 2)
    out, cert_expand = expand(colored, L)
    stats = covers.stats(out, L)
    for cert in (cert_cube, cert_colorize, cert_expand):
        assert cert and all(g["pass"] for g in cert)
    assert [g["id"] for g in cert_expand] == [
        "expand.families_disjoint", "expand.appetite", "expand.spread_bound"]
    assert stats["multiplicity"] <= 3 and stats["appetite"] is True
    assert stats["lebesgue"] == pytest.approx(2 ** 0.5)


def test_cloud_chain_at_two_times_ten_to_the_fourth_points(monkeypatch):
    # the Lebesgue numbers come from the cell list and the meshes from
    # member pairs and per-set blocks: no block of members against every
    # point is measured
    every_point = EuclideanMetric._key_block

    def key_block(self, rows, cols):
        assert cols.size < self.n, "a block against every point was measured"
        return every_point(self, rows, cols)

    monkeypatch.setattr(EuclideanMetric, "_key_block", key_block)
    rng = np.random.default_rng(7)
    cloud = Space.cloud(rng.uniform(0.0, 141.0, (19_881, 2)))
    L = Entourage.radius(cloud, 1.5).materialize()
    cube, cert_cube = cube_cover(cloud, 2, 24.0)
    colored, cert_colorize = colorize(cube, L, 2)
    stats = covers.stats(colored, L)
    for cert in (cert_cube, cert_colorize):
        assert cert and all(g["pass"] for g in cert)
    assert stats["multiplicity"] <= 3 and stats["lebesgue"] > 0


def test_grid_materialize_holds_at_most_twice_its_result():
    grid = Space.grid(2, [0.0, 0.0], [316.0, 316.0], 1.0)
    e = Entourage.radius(grid, 1.000001)
    tracemalloc.start()
    try:
        m = e.materialize().matrix()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert m.nnz == grid.n + 4 * 317 * 316
    assert peak <= 2 * (m.indices.nbytes + m.indptr.nbytes + m.data.nbytes)


@pytest.mark.parametrize("n,top,points", [(2, 316.0, 100_489), (3, 46.0, 103_823)])
def test_ray_cover_at_ten_to_the_fifth_points(n, top, points):
    line = Space.grid(1, [0.0], [top], 1.0)
    cov, cert = ray_cell_cover(n, Entourage.radius(line, 2.0))
    assert cov.space.n == points and cov.uncovered_points() == []
    assert len(cov.families) == n + 1 and covers.multiplicity(cov) <= n + 1
    assert [g["id"] for g in cert] == [
        "ray_cover.covers", "ray_cover.families_disjoint", "ray_cover.spread_bound",
        "ray_cover.multiplicity"]
    assert all(g["pass"] for g in cert)


def test_circle_arc_schedule_at_ten_to_the_fifth_points():
    schedule = circle_arc_schedule(circle_space(10 ** 5))
    tracemalloc.start()
    try:
        m = schedule.cover_at(1000).incidence()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert m.shape == (11_940, 10 ** 5) and np.all(np.diff(m.indptr) > 0)
    assert peak <= 16 * (m.indices.nbytes + m.indptr.nbytes + m.data.nbytes)


def test_two_piece_union_at_ten_to_the_fifth_points():
    # A: blocks of width 4 over the left half, two families in turn; B: the
    # right half in two sets, one per family, the first in the family of the
    # A-set that it meets at the split
    sp = Space.line(0, 99_999, 1.0)
    split, mid = 49_999, 74_999
    a_sets = [range(lo, min(lo + 4, split + 1)) for lo in range(0, split + 1, 4)]
    ca = Cover(sp, a_sets, [list(range(0, len(a_sets), 2)), list(range(1, len(a_sets), 2))],
               require_covering=False, canonicalize=False)
    cb = Cover(sp, [range(split, mid + 1), range(mid + 1, 100_000)], [[1], [0]],
               require_covering=False, canonicalize=False)
    out, cert = merge_union(ca, cb, Entourage.radius(sp, 1.0, closed=True).materialize())
    assert [g["id"] for g in cert] == [
        "merge_union.covers_union", "merge_union.families_L_disjoint",
        "merge_union.family_count", "merge_union.spread_bound"]
    assert all(g["pass"] for g in cert)
    assert out.uncovered_points() == [] and len(out.families) == 2
    # the first B-set absorbed the A-set it meets at the split, and only it
    assert out.incidence().shape[0] == len(a_sets) + 1
    grown = [s for s in out.sets if split in s and split - 3 in s]
    assert grown == [tuple(range(split - 3, mid + 1))]
