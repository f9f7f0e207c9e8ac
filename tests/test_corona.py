import math
import re
from functools import lru_cache
from unittest import mock

import numpy as np
import pytest
from scipy import sparse
from hypothesis import given, settings
from hypothesis import strategies as st

from coarselab import corona as corona_module
from coarselab import fixtures
from coarselab.corona import (TOL, CompactificationModel, CoronaCoverSchedule,
                              _band_appetite_failures, _band_appetite_witness, _k_threshold,
                              _window_hops, check_cc_entourage, corona_dim_cover, map_f, map_g,
                              roundtrip_bounds)
from coarselab.covers import Cover, multiplicity
from coarselab.errors import ContractViolationError, InvalidInputError, ResourceLimitError
from coarselab.fixtures import arc_count, circle_arc_schedule
from coarselab.spaces import POINT_CAP, Entourage, Space
from oracles import (arc_count_loop, arc_cover_loop, band_appetite_failures,
                     band_appetite_failures_keys, band_appetite_failures_runs,
                     band_appetite_scan, band_bookkeeping_loop, check_cc_entourage_loop,
                     corona_dist_loop, distinct_rows_lex, distinct_rows_runs,
                     filtration_index_loop, filtration_set_loop, k_threshold_masks, map_f_loop,
                     map_g_loop, roundtrip_bounds_loop, slice_margins_loop, widths_loop,
                     window_prefixes_loop)


def unit_interval_model(step=1.0 / 400):
    """hX = [0,1] sampled; the corona is the right endpoint."""
    n = int(round(1.0 / step)) + 1
    coords = np.arange(n)[:, None] * step
    sp = Space.cloud(coords)
    corona = [n - 1]
    interior = [i for i in range(n) if i != n - 1]
    return CompactificationModel(sp, interior, corona)


def disk_model(radial=20, angular=36):
    """hX = closed unit disk; the corona is the boundary circle sample."""
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


class TestModelAndMaps:
    def test_filtration_monotone_and_exhaustive(self):
        m = unit_interval_model(1.0 / 50)
        prev: set = set()
        for i in range(1, m.depth + 1):
            cur = set(m.filtration_set(i))
            assert prev <= cur
            prev = cur
        assert prev == set(range(len(m.interior)))

    def test_map_f_on_interval(self):
        m = unit_interval_model(1.0 / 400)
        # X_10 = {x <= 0.9}; nearest point of X_10 to the corona point 1.0
        y = map_f(m, 0, 10)
        assert m.ambient.meta["coords"][y][0] == pytest.approx(0.9, abs=1e-9)

    def test_map_f_empty_level_rejected(self):
        # every interior point sits within 0.5 of the corona, so X_1 is empty
        coords = np.arange(0.5, 1.0 + 1e-9, 0.025)[:, None]
        sp = Space.cloud(coords)
        m = CompactificationModel(sp, list(range(sp.n - 1)), [sp.n - 1])
        with pytest.raises(InvalidInputError):
            map_f(m, 0, 1)

    def test_map_g_on_interval(self):
        m = unit_interval_model(1.0 / 400)
        x = next(i for i in m.interior
                 if m.ambient.meta["coords"][i][0] == pytest.approx(0.9, abs=1e-9))
        ci, level = map_g(m, x)
        assert level == 10
        assert ci == 0

    def test_deep_interior_lands_in_level_one(self):
        m = unit_interval_model(1.0 / 50)
        ci, level = map_g(m, 0)  # the left endpoint, far from the corona
        assert level == 1

    def test_roundtrip_bounds_interval(self):
        m = unit_interval_model(1.0 / 200)
        out = roundtrip_bounds(m)
        assert not out["fg_failures"]
        assert not out["gf_failures"]
        assert out["gf_checked"] > 0

    def test_roundtrip_bounds_disk(self):
        m = disk_model()
        out = roundtrip_bounds(m)
        assert not out["fg_failures"]
        assert not out["gf_failures"]

    def test_maps_match_the_loops_on_the_disk(self):
        # the disk centre is equidistant from every corona point, and ties
        # must still break to the lowest index
        m = disk_model()
        for i in range(m.depth + 1):
            assert m.filtration_set(i) == filtration_set_loop(m, i)
        for x in m.interior:
            assert map_g(m, x) == (map_g_loop(m, x), m.filtration_index(m.interior.index(x)))
        for n in range(1, m.depth + 1):
            if m.filtration_set(n):
                for ci in range(len(m.corona)):
                    assert map_f(m, ci, n) == map_f_loop(m, ci, n)

    def test_radial_nearest_point_on_disk(self):
        m = disk_model()
        ci = 0
        y = map_f(m, ci, 5)
        c = np.array(m.ambient.meta["coords"][m.corona[ci]])
        got = np.array(m.ambient.meta["coords"][y])
        # nearest X_5 point to a boundary point sits radially inward
        assert np.linalg.norm(got) == pytest.approx(1 - 1 / 5, abs=0.06)
        assert np.dot(got, c) > 0


@st.composite
def models(draw):
    """Interval and disk models at random resolutions, and random point
    clouds whose corona points sit among the interior ones, sometimes with
    a depth below the deepest level."""
    kind = draw(st.sampled_from(["interval", "disk", "cloud"]))
    if kind == "interval":
        return unit_interval_model(1.0 / draw(st.integers(10, 300)))
    if kind == "disk":
        return disk_model(draw(st.integers(2, 12)), draw(st.integers(3, 24)))
    pts = draw(st.lists(st.tuples(st.integers(0, 12), st.integers(0, 12)),
                        min_size=3, max_size=40, unique=True))
    on = draw(st.lists(st.booleans(), min_size=len(pts), max_size=len(pts)).filter(
        lambda f: any(f) and not all(f)))
    return CompactificationModel(Space.cloud(np.array(pts) / 12.0),
                                 [i for i, f in enumerate(on) if not f],
                                 [i for i, f in enumerate(on) if f],
                                 draw(st.none() | st.integers(1, 8)))


class TestModelAgainstTheLoops:
    @given(model=models())
    @settings(max_examples=40, deadline=None)
    def test_block_maps_and_bounds_match_the_loops(self, model):
        assert np.array_equal(model._corona_dist, corona_dist_loop(model))
        assert model.widths() == widths_loop(model)
        for pos, x in enumerate(model.interior):
            assert map_g(model, x) == (map_g_loop(model, x), filtration_index_loop(model, pos))
        for n in range(1, model.depth + 1):
            if filtration_set_loop(model, n):
                want = [map_f_loop(model, ci, n) for ci in range(len(model.corona))]
                assert model.f_table(n) == want
                assert map_f(model, len(model.corona) - 1, n) == want[-1]
        assert roundtrip_bounds(model) == roundtrip_bounds_loop(model)

    @given(model=models(), data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_tail_widths_match_the_loop(self, model, data):
        if data.draw(st.booleans()):
            ent = Entourage.radius(model.ambient, data.draw(st.floats(0.01, 0.8)),
                                   closed=data.draw(st.booleans()))
        else:
            point = st.integers(0, model.ambient.n - 1)
            ent = Entourage.from_pairs(model.ambient,
                                       data.draw(st.lists(st.tuples(point, point), max_size=60)))
        constant = data.draw(st.none() | st.floats(0.1, 4.0))
        power = data.draw(st.sampled_from([0.5, 1.0, 2.0]))
        assert (check_cc_entourage(model, ent, constant, power)
                == check_cc_entourage_loop(model, ent, constant, power))

    def test_distance_block_is_capped_before_it_is_built(self):
        space = Space.discrete(6400)
        with pytest.raises(ResourceLimitError):
            CompactificationModel(space, range(3200), range(3200, 6400))


class TestBoundaryControl:
    def test_diagonal_is_controlled(self):
        m = unit_interval_model(1.0 / 100)
        sub = [i for i in m.interior]
        diag = Entourage.from_pairs(m.ambient, [(i, i) for i in sub])
        out = check_cc_entourage(m, diag)
        assert out["controlled"]
        assert max(out["rho"]) == 0.0

    def test_fixed_radius_not_controlled(self):
        m = unit_interval_model(1.0 / 100)
        pts = [m.ambient.meta["coords"][i][0] for i in range(m.ambient.n)]
        pairs = [(i, j) for i in m.interior for j in m.interior
                 if abs(pts[i] - pts[j]) < 0.3]
        e = Entourage.from_pairs(m.ambient, pairs)
        out = check_cc_entourage(m, e)
        assert not out["controlled"]
        assert out["rho"][-1] >= 0.3 - 0.02

    def test_shrinking_relation_is_controlled(self):
        m = unit_interval_model(1.0 / 100)
        pts = [m.ambient.meta["coords"][i][0] for i in range(m.ambient.n)]
        pairs = [(i, j) for i in m.interior for j in m.interior
                 if abs(pts[i] - pts[j]) <= 0.5 * (1 - max(pts[i], pts[j])) + 1e-12]
        e = Entourage.from_pairs(m.ambient, pairs)
        out = check_cc_entourage(m, e)
        assert out["controlled"]
        for i, r in enumerate(out["rho"], start=1):
            assert r <= 0.5 / i + 1e-9

    def test_pair_exactly_at_the_cut_is_inside(self):
        # point 0 sits at distance 1/2 - TOL from the corona point 2, which
        # is exactly the level-2 cut, so the pair (0, 1) lies in X_2^2
        near = 1.0 / 2 - 1e-9
        sp = Space.from_matrix([[0.0, 0.7, near], [0.7, 0.0, 1.0], [near, 1.0, 0.0]])
        m = CompactificationModel(sp, [0, 1], [2])
        ent = Entourage.from_pairs(sp, [(0, 1)])
        assert check_cc_entourage(m, ent)["rho"] == [0.7, 0.0]
        assert check_cc_entourage(m, ent) == check_cc_entourage_loop(m, ent)

    def test_monotone_in_relation(self):
        m = unit_interval_model(1.0 / 100)
        pts = [m.ambient.meta["coords"][i][0] for i in range(m.ambient.n)]
        pairs = [(i, j) for i in m.interior for j in m.interior
                 if abs(pts[i] - pts[j]) <= 0.5 * (1 - max(pts[i], pts[j])) + 1e-12]
        small = [(i, j) for (i, j) in pairs if abs(pts[i] - pts[j]) < 0.05]
        big = check_cc_entourage(m, Entourage.from_pairs(m.ambient, pairs))
        lit = check_cc_entourage(
            m, Entourage.from_pairs(m.ambient, small),
            schedule_constant=big["schedule_constant"])
        assert big["controlled"] and lit["controlled"]


class TestArcSchedule:
    def assert_matches_the_loop(self, n, overlap, k):
        space = circle_space(n)
        sets, fams = arc_cover_loop(n, overlap, k)
        try:
            want = Cover(space, sets, fams, require_covering=True, canonicalize=False)
        except InvalidInputError as err:
            with pytest.raises(InvalidInputError, match=re.escape(str(err))):
                circle_arc_schedule(space, overlap).cover_at(k)
            return
        got = circle_arc_schedule(space, overlap).cover_at(k)
        assert got.sets == want.sets and got.families == want.families

    @given(n=st.integers(8, 720), overlap=st.floats(0.55, 1.2), k=st.integers(1, 96))
    @settings(max_examples=30, deadline=None)
    def test_arc_covers_match_the_loop(self, n, overlap, k):
        self.assert_matches_the_loop(n, overlap, k)

    @given(n=st.integers(1, 7), overlap=st.floats(0.01, 3.7), k=st.integers(1, 1000))
    @settings(max_examples=60, deadline=None)
    def test_few_points_and_wrapping_windows_match_the_loop(self, n, overlap, k):
        # a window reaches a point beyond its arc on each side, so on a few
        # points it can wrap round to every point and be capped at n
        self.assert_matches_the_loop(n, overlap, k)

    @pytest.mark.parametrize("n,overlap,k", [
        (1, 0.95, 1), (2, 2.0, 1), (3, 3.7, 1), (5, 0.5, 1000), (16, 0.95, 1000),
        (720, 0.95, 1000), (97, 1.0, 1000)])
    def test_edge_cases_match_the_loop(self, n, overlap, k):
        self.assert_matches_the_loop(n, overlap, k)

    @given(overlap=st.one_of(st.floats(-1.0, 1.0), st.floats(1.0, 1e3)),
           k=st.integers(1, 10 ** 4))
    @settings(max_examples=200, deadline=None)
    def test_arc_count_bisection_matches_the_loop(self, overlap, k):
        def fine(m):
            angle = 2 * math.pi / m * (2 * overlap)
            return 2 * math.sin(min(angle / 2, math.pi / 2)) <= 1.0 / k

        try:
            got = arc_count(overlap, k)
        except ResourceLimitError:
            # stepping by 2 would pass the cap
            assert not fine(POINT_CAP)
            return
        if got <= 20_000:
            assert got == arc_count_loop(overlap, k)
        else:
            # the loop's first passing m, without its 10^4 steps
            assert fine(got) and not fine(got - 2)

    def test_huge_overlap_is_a_resource_limit(self):
        with pytest.raises(ResourceLimitError, match="more than 10000000 arcs"):
            circle_arc_schedule(circle_space(40), 1e300).cover_at(1)

    def test_windows_are_capped_before_they_are_laid_out(self, monkeypatch):
        # a window holds its arc's members and at most five more points
        space = circle_space(720)
        m = circle_arc_schedule(space, 0.95).cover_at(20).incidence()
        monkeypatch.setattr(fixtures, "PAIR_CAP", m.nnz)
        with pytest.raises(ResourceLimitError, match="beyond the .* pair cap"):
            circle_arc_schedule(space, 0.95).cover_at(20)
        monkeypatch.setattr(fixtures, "PAIR_CAP", m.nnz + 5 * m.shape[0])
        assert (circle_arc_schedule(space, 0.95).cover_at(20).incidence() != m).nnz == 0


def circle_space(n_points=720):
    pts = [(math.cos(2 * math.pi * j / n_points), math.sin(2 * math.pi * j / n_points))
           for j in range(n_points)]
    return Space.cloud(np.array(pts))


def arc_cover_builder(space: Space):
    """Covers of the circle sample by two alternating arc families with
    mesh <= 1/k and near-maximal overlap, arc half-width 0.95 spacing."""
    n = space.n
    angles = np.arange(n) * (2 * math.pi / n)

    def chord(angle):
        return 2 * math.sin(min(angle / 2, math.pi / 2))

    def arc_count(k: int) -> int:
        m = 4
        while chord(2 * math.pi / m * 1.9) > 1.0 / k:
            m += 2
        return m

    def build(k: int) -> Cover:
        m = arc_count(k)
        sigma = 2 * math.pi / m
        half = 0.95 * sigma
        sets, fams = [], [[], []]
        for j in range(m):
            center = j * sigma
            d = np.abs((angles - center + math.pi) % (2 * math.pi) - math.pi)
            members = [int(p) for p in np.nonzero(d <= half - 1e-12)[0]]
            fams[j % 2].append(len(sets))
            sets.append(members)
        return Cover(space, sets, fams, require_covering=True, canonicalize=False)

    def lebesgue(k: int) -> float:
        # every angle lies within sigma/2 of a center whose arc reaches
        # 0.45 sigma beyond it; convert that angular margin to a chord
        sigma = 2 * math.pi / arc_count(k)
        return 0.98 * chord(0.45 * sigma)

    return build, lebesgue


class TestDimCover:
    def test_point_corona_bands(self):
        pt = Space.cloud(np.zeros((1, 2)))

        def build(k):
            return Cover(pt, [[0]], [[0]], canonicalize=False)

        sched = CoronaCoverSchedule(pt, 1, build, lambda k: 1.0)
        depth = 60
        levels = Space.line(0, depth + 10, 1.0)
        shift = Entourage.from_pairs(levels, [(i, i + 1) for i in range(depth + 10)])
        deltas = [1.0 / (m + 1) for m in range(depth + 11)]
        cov, cert, info = corona_dim_cover(sched, deltas, shift, depth)
        assert multiplicity(cov) <= 2
        assert cov.uncovered_points() == []
        assert all(g["pass"] for g in cert)

    @given(n=st.integers(1, 40), pairs=st.lists(st.tuples(st.integers(0, 39),
                                                         st.integers(0, 39)), max_size=60),
           data=st.data())
    @settings(max_examples=200, deadline=None)
    def test_prefix_walk_matches_the_mat_vec_loop(self, n, pairs, data):
        # chains, jumps, a level cut off from level 0 and isolated levels
        levels = Space.line(0, n - 1, 1.0)
        win = Entourage.from_pairs(levels, [(a, b) for a, b in pairs if max(a, b) < n])
        win = win.union(Entourage.diagonal(levels))
        step = win.union(win.inverse()).matrix()
        depth = data.draw(st.integers(0, n - 1))
        try:
            want = window_prefixes_loop(step, depth)
        except ContractViolationError as err:
            with pytest.raises(ContractViolationError) as got:
                _window_hops(step, depth)
            assert got.value.witness == err.witness
            return
        hops, walked = _window_hops(step, depth)
        assert walked == len(want) - 1
        assert np.array_equal(hops[None, :] <= np.arange(walked + 1)[:, None], want)

    @given(data=st.data())
    @settings(max_examples=300, deadline=None)
    def test_threshold_matches_the_prefix_masks(self, data):
        # hop counts up to the walk's length, and n at levels never reached
        n = data.draw(st.integers(1, 30))
        depth = data.draw(st.integers(0, n - 1))
        walked = data.draw(st.integers(0, n - 1))
        hops = np.array(data.draw(st.lists(st.sampled_from(list(range(walked + 1)) + [n]),
                                           min_size=n, max_size=n)))
        values = st.sampled_from([0.0, TOL / 2, 0.1, 0.25, 0.5, 1.0, 3.0])
        deltas = sorted(data.draw(st.lists(values, min_size=depth + 1, max_size=depth + 1)),
                        reverse=True)
        scale = data.draw(st.integers(1, 12))

        def K(k):
            k = np.asarray(k)
            return (hops <= np.clip(k, 0, walked)[..., None]) & (k >= 0)[..., None]

        reach = np.where(hops <= walked, hops, np.iinfo(np.int64).max)
        assert (_k_threshold(np.asarray(deltas), scale, reach, depth)
                == k_threshold_masks(deltas, scale, K, depth))

    def test_circle_corona_depth_200(self):
        space = circle_space(720)
        build, leb = arc_cover_builder(space)
        sched = CoronaCoverSchedule(space, 2, build, leb)
        depth = 200
        levels = Space.line(0, depth + 10, 1.0)
        shift = Entourage.from_pairs(levels, [(i, i + 1) for i in range(depth + 10)])
        deltas = [4.0 / (m + 1) ** 1.5 for m in range(depth + 11)]
        cov, cert, info = corona_dim_cover(sched, deltas, shift, depth)
        assert multiplicity(cov) <= 3
        assert cov.uncovered_points() == []
        assert all(g["pass"] for g in cert)
        d = info["d_sequence"]
        assert all(d[i] >= d[i + 1] - 1e-12 for i in range(len(d) - 1))
        assert d[-1] < d[0]


@lru_cache(maxsize=None)
def small_band():
    """A certified band cover of a 48-point circle to depth 30, with the
    remaining arguments of the band appetite scan."""
    depth = 30
    space = circle_space(48)
    build, leb = arc_cover_builder(space)
    sched = CoronaCoverSchedule(space, 2, build, leb)
    levels = Space.line(0, depth + 10, 1.0)
    shift = Entourage.from_pairs(levels, [(i, i + 1) for i in range(depth + 10)])
    deltas = [4.0 / (m + 1) ** 1.5 for m in range(depth + 11)]
    cov, _, _ = corona_dim_cover(sched, deltas, shift, depth)
    win = shift.union(Entourage.diagonal(levels))
    win = win.union(win.inverse())
    return cov, (sched, deltas, win, depth + 1, depth)


class TestBandAppetite:
    def test_certified_band_passes_both_scans(self):
        cov, args = small_band()
        assert _band_appetite_witness(cov, *args) is None
        assert band_appetite_scan(cov, *args) is None

    @given(data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_removed_point_gives_the_old_witness(self, data):
        cov, args = small_band()
        si = data.draw(st.integers(0, len(cov.sets) - 1))
        drop = data.draw(st.sampled_from(cov.sets[si]))
        sets = [tuple(p for p in s if p != drop) if k == si else s
                for k, s in enumerate(cov.sets)]
        broken = Cover(cov.space, sets, require_covering=False, canonicalize=False)
        assert _band_appetite_witness(broken, *args) == band_appetite_scan(broken, *args)

    def test_removed_point_fails(self):
        cov, args = small_band()
        sets = [s[1:] if k == 0 else s for k, s in enumerate(cov.sets)]
        broken = Cover(cov.space, sets, require_covering=False, canonicalize=False)
        got = _band_appetite_witness(broken, *args)
        assert got is not None and got == band_appetite_scan(broken, *args)

    @given(band=st.data())
    @settings(max_examples=200, deadline=None)
    def test_key_runs_match_the_per_key_lookup(self, band):
        cover, args = band.draw(random_bands())
        assert np.array_equal(_band_appetite_failures(cover, *args),
                              band_appetite_failures_keys(cover, *args))

    def test_circle_band_key_runs_match_the_per_key_lookup(self):
        cov, args = small_band()
        for sets in (cov.sets, [s[1:] if k == 0 else s for k, s in enumerate(cov.sets)]):
            broken = Cover(cov.space, sets, require_covering=False, canonicalize=False)
            assert np.array_equal(_band_appetite_failures(broken, *args),
                                  band_appetite_failures_keys(broken, *args))

    @given(band=st.data())
    @settings(max_examples=200, deadline=None)
    def test_random_bands_match_the_scan(self, band):
        cover, args = band.draw(random_bands())
        width = args[3]
        failed = [divmod(int(p), width)
                  for p in np.flatnonzero(_band_appetite_failures(cover, *args))]
        assert failed == list(band_appetite_failures(cover, *args))
        assert _band_appetite_witness(cover, *args) == band_appetite_scan(cover, *args)


def segments_loop(cover, width):
    """The segments of a band cover, counted set by set: an entry (x, b)
    of a set starts one unless the set holds (x, b - 1) and its slices at
    b - 1 and b are equal."""
    count = 0
    for s in cover.sets:
        held = set(s)
        slices = [frozenset(p // width for p in s if p % width == b) for b in range(width)]
        count += sum(1 for p in s if not (p % width and p - 1 in held
                                          and slices[p % width - 1] == slices[p % width]))
    return count


class TestBandSegments:
    @given(band=st.data())
    @settings(max_examples=200, deadline=None)
    def test_deep_bands_match_the_references(self, band):
        cover, args = band.draw(deep_bands())
        got = _band_appetite_failures(cover, *args)
        assert np.array_equal(got, band_appetite_failures_keys(cover, *args))
        assert np.array_equal(got, band_appetite_failures_runs(cover, *args))
        width = args[3]
        assert ([divmod(int(p), width) for p in np.flatnonzero(got)]
                == list(band_appetite_failures(cover, *args)))
        assert _band_appetite_witness(cover, *args) == band_appetite_scan(cover, *args)

    def test_one_margin_per_segment(self):
        """The margins are one outside_distances call whose queries are the
        sets it measures, one member per segment; a point looked up outside
        its slice takes one more call, which queries no member, and a
        certified band has none that could decide a point."""
        cov, args = small_band()
        backend = args[0].corona_space.backend
        real, calls = backend.outside_distances, []

        def record(queries, sets):
            calls.append((queries is sets, queries.nnz, queries.multiply(sets).nnz))
            return real(queries, sets)

        with mock.patch.object(backend, "outside_distances", record):
            assert not _band_appetite_failures(cov, *args).any()
        segments = segments_loop(cov, args[3])
        assert calls == [(True, segments, segments)]
        sets = [s[1:] if k == 0 else s for k, s in enumerate(cov.sets)]
        broken = Cover(cov.space, sets, require_covering=False, canonicalize=False)
        calls.clear()
        with mock.patch.object(backend, "outside_distances", record):
            assert _band_appetite_failures(broken, *args).any()
        assert calls[0][0] and [(same, members) for same, _, members in calls[1:]] == [(False, 0)]


@st.composite
def csr_with_runs(draw):
    """Boolean CSR matrices whose rows are drawn from a few distinct rows,
    the empty row possibly among them, in runs of equal rows, and with
    equal rows apart from each other."""
    n = draw(st.integers(1, 6))
    pool = draw(st.lists(st.frozensets(st.integers(0, n - 1)), min_size=1, max_size=5))
    runs = draw(st.lists(st.tuples(st.integers(0, len(pool) - 1), st.integers(1, 4)),
                         max_size=12))
    rows = [sorted(pool[i]) for i, length in runs for _ in range(length)]
    indptr = np.cumsum([0] + [len(r) for r in rows])
    indices = np.array([p for r in rows for p in r], dtype=np.int32)
    return sparse.csr_matrix((np.ones(indices.size, dtype=bool), indices, indptr),
                             shape=(len(rows), n))


class TestDistinctRows:
    @given(m=csr_with_runs())
    @settings(max_examples=300, deadline=None)
    def test_runs_match_the_full_lex_order(self, m):
        ids, rows = distinct_rows_runs(m)
        want_ids, want_rows = distinct_rows_lex(m)
        assert np.array_equal(ids, want_ids)
        assert np.array_equal(rows.indptr, want_rows.indptr)
        assert np.array_equal(rows.indices, want_rows.indices)
        assert rows.shape == want_rows.shape


@st.composite
def coronas(draw, kinds=("cloud", "matrix", "polar"), most=9):
    """Small coronas of the kinds the band certificate meets: clouds with
    duplicate points, distance matrices with a nonzero diagonal, and polar
    samples, whose computed self-distances need not be 0."""
    nc = draw(st.integers(1, most))
    kind = draw(st.sampled_from(kinds))
    if kind == "cloud":
        coords = draw(st.lists(st.tuples(st.integers(0, 2), st.integers(0, 2)),
                               min_size=nc, max_size=nc))
        return Space.cloud(np.array(coords, dtype=float) / 2)
    if kind == "matrix":
        entries = draw(st.lists(st.sampled_from([0.0, TOL / 2, 0.3, 0.6, 1.2]),
                                min_size=nc * nc, max_size=nc * nc))
        d = np.triu(np.array(entries).reshape(nc, nc))
        return Space.from_matrix(d + np.triu(d, 1).T, validate=False)
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    return Space.hyperbolic_polar(-1.0, zip(rng.uniform(0, 12, nc), rng.uniform(0, 7, nc)))


class TestSliceMargins:
    @given(data=st.data(), corona=coronas())
    @settings(max_examples=300, deadline=None)
    def test_kernel_matches_the_member_loop(self, data, corona):
        """The backend's nearest-outside distances at the pairs the corona
        module once measured equal its own block loop, bit for bit."""
        nc = corona.n
        slices = data.draw(st.lists(st.lists(st.integers(0, nc - 1), max_size=nc),
                                    min_size=1, max_size=6))
        members = Cover(corona, slices, require_covering=False).incidence()
        queries, want = slice_margins_loop(corona, members)
        assert np.array_equal(corona.backend.outside_distances(queries, members), want)


class TestBandSpreads:
    def spy(self, *args):
        """The arguments and result of each _band_bookkeeping call made by
        corona_dim_cover on args."""
        calls = []

        def record(*a):
            calls.append((a, real(*a)))
            return calls[-1][1]

        real = corona_module._band_bookkeeping
        with mock.patch.object(corona_module, "_band_bookkeeping", record):
            corona_dim_cover(*args)
        return calls

    @pytest.mark.parametrize("points,depth", [(48, 200), (224, 60), (256, 120)])
    def test_grouped_mesh_matches_the_spread_loop(self, points, depth):
        space = circle_space(points)
        build, leb = arc_cover_builder(space)
        levels = Space.line(0, depth + 10, 1.0)
        shift = Entourage.from_pairs(levels, [(i, i + 1) for i in range(depth + 10)])
        deltas = [4.0 / (m + 1) ** 1.5 for m in range(depth + 11)]
        [(args, got)] = self.spy(CoronaCoverSchedule(space, 2, build, leb), deltas, shift,
                                 depth)
        assert got == band_bookkeeping_loop(*args) and got[1]
        cover, schedule, scales, cuts, bands, width = args
        # bounds fifty times tighter fail, and fail alike
        tight = (cover, schedule, [50 * s for s in scales], cuts, bands, width)
        failed = corona_module._band_bookkeeping(*tight)
        assert failed == band_bookkeeping_loop(*tight) and not failed[1]

    def test_one_point_projection_spreads_zero(self):
        # a one-point corona whose self-distance is 5: mesh counts a
        # one-point projection 0, where the old spread took d(x, x) = 5 and
        # failed every band bound below it
        pt = Space.from_matrix([[5.0]], validate=False)
        sched = CoronaCoverSchedule(
            pt, 1, lambda k: Cover(pt, [[0]], [[0]], canonicalize=False), lambda k: 1.0)
        depth = 20
        levels = Space.line(0, depth + 10, 1.0)
        shift = Entourage.from_pairs(levels, [(i, i + 1) for i in range(depth + 10)])
        deltas = [1.0 / (m + 1) for m in range(depth + 11)]
        [(args, (d_m, proj_ok))] = self.spy(sched, deltas, shift, depth)
        assert d_m[0] == 5.0 and min(d_m) < 5.0
        assert proj_ok
        assert band_bookkeeping_loop(*args) == (d_m, False)


@st.composite
def random_bands(draw):
    """Random covers of small corona x level products: coronas with
    duplicate points, or distance matrices with a nonzero diagonal; deltas
    at or below TOL; random symmetric windows, with or without the
    diagonal; uncovered points, empty level slices, levels past the depth."""
    corona = draw(coronas(("cloud", "matrix"), 6))
    nc = corona.n
    depth = draw(st.integers(0, 5))
    width = depth + 1 + draw(st.integers(0, 1))
    n_levels = depth + 1 + draw(st.integers(0, 2))
    levels = Space.line(0, n_levels - 1, 1.0)
    level = st.integers(0, n_levels - 1)
    win = Entourage.from_pairs(levels, draw(st.lists(st.tuples(level, level),
                                                     max_size=3 * n_levels)))
    win = win.union(win.inverse())
    deltas = draw(st.lists(st.sampled_from([0.0, TOL / 2, TOL, 2 * TOL, 0.25, 0.5, 1.0, 3.0]),
                           min_size=depth + 1, max_size=depth + 1))
    n = nc * width
    # a partition of the points with some dropped, plus a few random sets
    owner = draw(st.lists(st.integers(-1, 3), min_size=n, max_size=n))
    sets = [[p for p in range(n) if owner[p] == k] for k in range(4)]
    sets += draw(st.lists(st.lists(st.integers(0, n - 1), max_size=n), max_size=3))
    cover = Cover(Space.discrete(n), sets, require_covering=False, canonicalize=False)
    return cover, (CoronaCoverSchedule(corona, 1, None, None), deltas, win, width, depth)


@st.composite
def deep_bands(draw):
    """Band-like covers of small corona x level products to depth 40: each
    set a union of a few products of a corona set with a level interval,
    as the band cover's sets are, so that segments span many levels and
    window partners fall on both sides of their ends. Clouds with duplicate
    points or distance matrices with a nonzero diagonal; the shift window
    with random extra pairs; non-increasing deltas; some points dropped."""
    corona = draw(coronas(("cloud", "matrix"), 6))
    nc = corona.n
    depth = draw(st.integers(0, 40))
    width = depth + 1
    levels = Space.line(0, depth + 2, 1.0)
    level = st.integers(0, depth + 2)
    pairs = [(i, i + 1) for i in range(depth + 2)]
    pairs += draw(st.lists(st.tuples(level, level), max_size=4))
    win = Entourage.from_pairs(levels, pairs).union(Entourage.diagonal(levels))
    win = win.union(win.inverse())
    deltas = sorted(draw(st.lists(st.sampled_from([0.0, TOL / 2, TOL, 0.25, 0.5, 0.75, 1.0, 3.0]),
                                  min_size=depth + 1, max_size=depth + 1)), reverse=True)
    points = st.frozensets(st.integers(0, nc - 1), min_size=1)
    interval = st.tuples(st.integers(0, depth), st.integers(0, depth)).map(sorted)
    products = st.lists(st.tuples(points, interval), min_size=1, max_size=3)
    sets = [sorted({c * width + m for members, (lo, hi) in union for c in members
                    for m in range(lo, hi + 1)})
            for union in draw(st.lists(products, min_size=1, max_size=8))]
    dropped = draw(st.frozensets(st.integers(0, nc * width - 1), max_size=3))
    sets = [[p for p in s if p not in dropped] for s in sets]
    cover = Cover(Space.discrete(nc * width), sets, require_covering=False, canonicalize=False)
    return cover, (CoronaCoverSchedule(corona, 1, None, None), deltas, win, width, depth)
