import math
import tracemalloc
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import event, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from coarselab.covers import (Cover, has_appetite, lebesgue_number, mesh,
                              multiplicity)
from coarselab.errors import ContractViolationError, InvalidInputError, ResourceLimitError
from coarselab.prng import SplitMix64
from coarselab.spaces import Entourage, Space
from coarselab.witnesses import (IntervalRelation, _cube_sets, _first_touching_boxes,
                                 _in_simplex_mask, _interval_rows, _kron_power, _snap_to_sample,
                                 _subdivide_to_mesh, SimplexGrid, SimplicialComplex,
                                 cube_cover,
                                 nearest_corner_labeling, pn_sample,
                                 random_admissible_labeling, ray_cell_cover,
                                 simplex_lower_bound_check, sperner_find,
                                 star_cover, star_lebesgue_bound, tree_cover,
                                 _class_separation)
import oracles


class TestCubeCover:
    def test_plane_reference_numbers(self):
        grid = Space.grid(2, [0, 0], [20, 20], 0.5)
        cov, cert = cube_cover(grid, 2, 6.0)
        assert multiplicity(cov) == 3
        assert lebesgue_number(cov) >= 1.0 - 1e-9
        # strictly-open cubes sampled at step h have diagonal (a-2h)*sqrt(2)
        assert (6 - 2 * 0.5) * math.sqrt(2) - 1e-9 <= mesh(cov) <= 6 * math.sqrt(2) + 0.5
        assert all(g["pass"] for g in cert)

    def test_line_alternating_intervals(self):
        line = Space.line(0, 12, 0.25)
        cov, _ = cube_cover(line, 1, 2.0)
        assert multiplicity(cov) == 2
        assert len(cov.families) == 2

    def test_grid_too_coarse_rejected(self):
        grid = Space.grid(2, [0, 0], [20, 20], 2.0)
        with pytest.raises(InvalidInputError):
            cube_cover(grid, 2, 6.0)

    @given(data=st.data(), n=st.integers(1, 3),
           h=st.sampled_from([0.25, 0.3, 0.5, 1.0]), a=st.sampled_from([0.7, 1.0, 2.5, 6.0]),
           offset=st.sampled_from([0.0, -7.5, 1e6]))
    @settings(max_examples=150, deadline=None)
    def test_cube_sets_match_the_loop(self, data, n, h, a, offset):
        # lattice points of step h hit cube faces; rows repeat and run in
        # any order, and negative keys sort before positive ones
        k = data.draw(arrays(np.int64, (data.draw(st.integers(0, 40)), n),
                             elements=st.integers(-30, 30)))
        coords = offset + k * h
        sets, families = _cube_sets(coords, n, a)
        want_sets, want_families = oracles.cube_sets_loop(coords, n, a)
        assert [tuple(sets[k].indices.tolist()) for k in range(sets.shape[0])] == want_sets
        assert families == want_families


def random_tree(rng, n):
    edges = []
    for v in range(1, n):
        edges.append((rng.randint(0, v - 1), v))
    return Space.tree(edges)


class TestTreeCover:
    def test_path_classes(self):
        path = Space.tree([(i, i + 1) for i in range(19)])
        cov, cert = tree_cover(path, 2.0, root=0)
        # L' = 5; grade-0 class is {0..4}, then intervals keyed by the
        # half-way ancestor
        assert multiplicity(cov) <= 2
        assert mesh(cov) <= 3 * 5 + 2 * 2 + 1e-9
        assert all(g["pass"] for g in cert)

    def test_single_vertex(self):
        sp = Space.tree([])
        cov, _ = tree_cover(sp, 1.0)
        assert [set(s) for s in cov.sets] == [{0}]
        assert multiplicity(cov) == 1

    def test_three_star(self):
        edges = []
        nxt = 1
        for _ in range(3):
            prev = 0
            for _ in range(10):
                edges.append((prev, nxt))
                prev = nxt
                nxt += 1
        star = Space.tree(edges)
        cov, cert = tree_cover(star, 1.0, root=0)
        assert multiplicity(cov) <= 2
        assert all(g["pass"] for g in cert)

    def test_random_trees(self):
        rng = SplitMix64(5)
        for trial in range(5):
            t = random_tree(rng, 150 + 50 * trial)
            L = [1.0, 1.5, 2.0][trial % 3]
            cov, cert = tree_cover(t, L)
            lp = int(math.floor(2 * L)) + 1
            assert multiplicity(cov) <= 2
            assert mesh(cov) <= 3 * lp + 2 * L + 1e-9
            assert all(g["pass"] for g in cert)

    def test_non_tree_rejected(self):
        line = Space.line(0, 5, 1.0)
        with pytest.raises(InvalidInputError):
            tree_cover(line, 1.0)


@st.composite
def tree_edges(draw):
    """A random tree as a shuffled edge list: random recursive, deep (each
    vertex hangs from one of the previous three), a path or a star, built
    on relabelled vertices so that vertex 0 need not be where it started,
    each edge in random orientation."""
    shape = draw(st.sampled_from(["recursive", "deep", "path", "star"]))
    n = draw(st.integers(1, 48))
    parents = {"recursive": lambda v: (0, v - 1), "deep": lambda v: (max(0, v - 3), v - 1),
               "path": lambda v: (v - 1, v - 1), "star": lambda v: (0, 0)}[shape]
    label = draw(st.permutations(range(n)))
    edges = []
    for v in range(1, n):
        u = draw(st.integers(*parents(v)))
        edges.append((label[u], label[v]) if draw(st.booleans()) else (label[v], label[u]))
    return draw(st.permutations(edges))


class TestTreeKernelsOracle:
    """Euler-tour distances, the double-sweep mesh, the inward Lebesgue
    search, the labelled class separation and the array tree cover against
    one breadth-first search per distance row."""

    @given(edges=tree_edges(), picks=st.lists(st.integers(0, 10 ** 6), max_size=16))
    @example(edges=[], picks=[0, 0, 0])
    @example(edges=[(1, 0)], picks=[1, 0, 1, 1])
    @settings(max_examples=120, deadline=None)
    def test_distances_match_the_bfs_rows(self, edges, picks):
        tree = Space.tree(edges)
        rows = oracles.tree_distance_rows(tree)
        picks = [p % tree.n for p in picks]
        r, c = picks[::2], picks[1::2]
        want = rows[np.ix_(r, c)]
        assert np.array_equal(tree.dist_block(r, c), want)
        assert all(np.array_equal(tree.dist_row(i), rows[i]) for i in r)

    @given(edges=tree_edges(), seed=st.integers(0, 2 ** 32 - 1))
    @example(edges=[], seed=0)
    @example(edges=[(1, 0)], seed=3)
    @settings(max_examples=120, deadline=None)
    def test_mesh_and_lebesgue_of_any_cover_match_the_rows(self, edges, seed):
        # sets drawn vertex by vertex, so most are disconnected; each vertex
        # has a home set, and now and then one set takes everything
        tree = Space.tree(edges)
        rows = oracles.tree_distance_rows(tree)
        # the BFS distances as a matrix space, measured by the generic code
        flat = Space.from_matrix(rows, validate=False)
        rng = np.random.default_rng(seed)
        k = int(rng.integers(1, 6))
        masks = rng.random((k, tree.n)) < rng.random()
        masks[rng.integers(0, k, tree.n), np.arange(tree.n)] = True
        if rng.random() < 0.1:
            masks[0] = True
        cov = Cover(tree, [np.flatnonzero(m) for m in masks])
        assert mesh(cov) == max(oracles.tree_set_diameter_rows(rows, s) for s in cov.sets)
        assert mesh(cov) == mesh(Cover(flat, cov.incidence()))
        assert lebesgue_number(cov) == lebesgue_number(Cover(flat, cov.incidence()))

    @given(edges=tree_edges(), seed=st.integers(0, 2 ** 32 - 1))
    @example(edges=[], seed=0)
    @example(edges=[(1, 0)], seed=5)
    @settings(max_examples=120, deadline=None)
    def test_class_separation_of_any_labelling_matches_the_loop(self, edges, seed):
        tree = Space.tree(edges)
        rows = oracles.tree_distance_rows(tree)
        rng = np.random.default_rng(seed)
        count = int(rng.integers(1, 7))
        label = rng.integers(0, count, tree.n)
        parity = rng.integers(0, 2, count)
        classes = {(int(parity[c]), c): np.flatnonzero(label == c).tolist()
                   for c in range(count) if np.any(label == c)}
        want = oracles.class_separation_loop(rows, classes, sorted(classes))
        assert _class_separation(tree.backend.adjacency(), label, parity) == want

    @given(edges=tree_edges(), root=st.integers(0, 10 ** 6),
           L=st.sampled_from([0.4, 1.0, 1.5, 2.0, 2.5, 3.2]))
    @example(edges=[], root=0, L=1.0)
    @example(edges=[(1, 0)], root=1, L=0.4)
    @settings(max_examples=120, deadline=None)
    def test_tree_cover_matches_the_loop(self, edges, root, L):
        tree = Space.tree(edges)
        root %= tree.n
        cov, cert = tree_cover(tree, L, root)
        sets, families, classes, class_list = oracles.tree_cover_loop(tree, L, root)
        assert cov.sets == tuple(sets)
        assert cov.families == tuple(tuple(f) for f in families)
        rows = oracles.tree_distance_rows(tree)
        want_mesh = max(oracles.tree_set_diameter_rows(rows, s) for s in sets)
        want_sep = oracles.class_separation_loop(rows, classes, class_list)
        assert [g["measured"] for g in cert] == [multiplicity(cov), want_mesh, want_sep]
        lp = int(math.floor(2 * L)) + 1
        assert [g["claimed"] for g in cert] == [2, f"<= {3 * lp + 2 * L}", f">= {lp}"]
        assert all(g["pass"] for g in cert)


def _outcome(build, n, e):
    """The sets, families and certificate of a ray cover, or the record of
    the guarantee that failed."""
    try:
        cov, cert = build(n, e)
    except ContractViolationError as err:
        return "fails", err.witness
    return "certified", cov.space.n, cov.sets, cov.families, cert


class TestRayCellCover:
    def test_interval_relation_rows_run_from_lo_to_hi(self):
        line = Space.line(0, 9, 1.0)
        e = Entourage.from_pairs(line, [(1, 4), (7, 8)])
        rel = IntervalRelation.from_entourage(e, 1)
        assert rel.to_entourage(line).pairs() == [
            (i, j) for i in range(10) for j in range(rel.lo[i], rel.hi[i] + 1)]

    @given(data=st.data(), m=st.integers(1, 25), k=st.integers(0, 7))
    @settings(max_examples=100, deadline=None)
    def test_interval_power_is_the_materialized_power(self, data, m, k):
        line = Space.line(0, m - 1, 1.0)
        pairs = data.draw(st.lists(st.tuples(st.integers(0, m - 1), st.integers(0, m - 1)),
                                   max_size=m))
        rel = IntervalRelation.from_entourage(Entourage.from_pairs(line, pairs),
                                              data.draw(st.integers(0, 2)))
        assert np.all(np.diff(rel.lo) >= 0) and np.all(np.diff(rel.hi) >= 0)
        want = oracles.relation_power(rel.to_entourage(line), k)
        assert rel.composed(k).to_entourage(line).pairs() == want.pairs()

    def test_one_factor_bands(self):
        line = Space.grid(1, [0], [30], 0.5)
        e = Entourage.from_pairs(line, [])
        cov, cert = ray_cell_cover(1, e)
        assert len(cov.families) == 2
        assert cov.uncovered_points() == []
        assert all(g["pass"] for g in cert)

    def test_two_factor_multiplicity(self):
        line = Space.grid(1, [0], [30], 1.0)
        e = Entourage.from_pairs(line, [(0, 2), (5, 8)])
        cov, cert = ray_cell_cover(2, e)
        assert multiplicity(cov) <= 3
        assert cov.uncovered_points() == []
        assert all(g["pass"] for g in cert)

    def test_degenerate_partition(self):
        line = Space.grid(1, [0], [20], 1.0)
        e = Entourage.from_pairs(line, [])
        cov, cert = ray_cell_cover(0, e)
        assert multiplicity(cov) == 1
        assert cov.uncovered_points() == []

    @given(data=st.data(), m=st.integers(1, 30), symmetrize=st.booleans(),
           extra=st.integers(0, 3))
    @settings(max_examples=150, deadline=None)
    def test_interval_completion_matches_the_slice_loop(self, data, m, symmetrize, extra):
        line = Space.line(0, m - 1, 1.0)
        pairs = data.draw(st.lists(st.tuples(st.integers(0, m - 1), st.integers(0, m - 1)),
                                   max_size=2 * m))
        e = Entourage.from_pairs(line, pairs, symmetrize=symmetrize)
        rel = IntervalRelation.from_entourage(e, extra)
        lo, hi = oracles.interval_relation_loop(e, extra)
        assert rel.lo.tolist() == lo.tolist() and rel.hi.tolist() == hi.tolist()
        assert rel.lo.dtype == lo.dtype and rel.hi.dtype == hi.dtype

    @given(data=st.data(), n=st.integers(0, 3), closed=st.booleans(),
           step=st.sampled_from([1.0, 0.5, 0.25, 0.3, 0.1]))
    @settings(max_examples=150, deadline=None)
    def test_ray_cover_matches_the_loop(self, data, n, closed, step):
        # radius relations of any reach, open and closed, and now and then
        # an explicit pair set, on axes up to 61, 61, 25 and 10 points; now
        # and then the spread is checked against a power too low to hold
        points = data.draw(st.integers(1, {0: 61, 1: 61, 2: 25, 3: 10}[n]))
        line = Space.grid(1, [0.0], [(points - 1) * step], step)
        if data.draw(st.integers(0, 4)):
            r = data.draw(st.sampled_from([0.0, step, 1.0, 1.5, 2.0]) | st.floats(0.0, 4.0))
            e = Entourage.radius(line, r, closed=closed)
        else:
            e = Entourage.from_pairs(line, data.draw(st.lists(
                st.tuples(st.integers(0, line.n - 1), st.integers(0, line.n - 1)), max_size=6)))
        power = data.draw(st.none() | st.integers(0, 2))
        composed = IntervalRelation.composed
        with mock.patch.object(IntervalRelation, "composed", lambda rel, k: composed(
                rel, k if power is None else power)):
            got, want = _outcome(ray_cell_cover, n, e), _outcome(oracles.ray_cell_cover_loop, n, e)
        event("spread fails" if want[0] == "fails" else "certified")
        assert got == want

    def test_family_witness_takes_the_first_pair_in_combinations_order(self):
        # bands 0-3 at points 5, 0, 1 and 9 of one family: 5 reaches 9 and
        # 0 reaches 1, so boxes (0, 3) and (1, 2) touch, and (0, 3) comes
        # first, though (1, 2) has the lesser second box
        line = Space.line(0, 9, 1.0)
        rel = IntervalRelation.from_entourage(Entourage.from_pairs(line, [(5, 9), (0, 1)]), 0)
        bot = top = np.array([5, 0, 1, 9])
        bands = _interval_rows(bot, top, 10)
        touch = bands @ rel.to_entourage(line).matrix() @ bands.T
        got = _first_touching_boxes(touch, [np.arange(4)], [np.arange(4)], 1, bot)
        cover = SimpleNamespace(sets=[(5,), (0,), (1,), (9,)], families=[[0, 1, 2, 3]])
        assert got == oracles.ray_family_witness_loop(cover, rel, [1], 10) == (0, 3, ([5], [9]))

    @given(data=st.data(), width=st.integers(1, 3))
    @settings(max_examples=200, deadline=None)
    def test_family_witness_matches_the_set_pair_loop(self, data, width):
        # a valid ray cover never has touching boxes in one family, so
        # random bands and relations drive the witness here: bands may be
        # empty, overlap or repeat, and families take any of them
        m = data.draw(st.integers(1, {1: 12, 2: 8, 3: 5}[width]))
        k = data.draw(st.integers(1, 6))
        bot = np.array(data.draw(st.lists(st.integers(0, m - 1), min_size=k, max_size=k)))
        size = np.array(data.draw(st.lists(st.integers(0, 3), min_size=k, max_size=k)))
        top = np.minimum(bot + size - 1, m - 1)
        label = np.array(data.draw(st.lists(st.integers(0, 2), min_size=k, max_size=k)))
        fam_bands = [fb for fb in (np.flatnonzero(label == f) for f in range(3)) if fb.size]
        line = Space.line(0, m - 1, 1.0)
        pairs = data.draw(st.lists(st.tuples(st.integers(0, m - 1), st.integers(0, m - 1)),
                                   max_size=m))
        rel = IntervalRelation.from_entourage(Entourage.from_pairs(line, pairs),
                                              data.draw(st.integers(0, 2)))
        bands = _interval_rows(bot, top, m)
        touch = bands @ rel.to_entourage(line).matrix() @ bands.T
        boxes = [_kron_power(bands[fb], width) for fb in fam_bands]
        kept = [np.flatnonzero(np.diff(b.indptr)) for b in boxes]
        sets = [tuple(b[int(i)].indices.tolist()) for b, kb in zip(boxes, kept) for i in kb]
        ends = np.cumsum([0] + [kb.size for kb in kept]).tolist()
        cover = SimpleNamespace(sets=sets, families=[list(range(a, b))
                                                     for a, b in zip(ends, ends[1:])])
        want = oracles.ray_family_witness_loop(cover, rel, [m ** (width - 1 - a)
                                                            for a in range(width)], m)
        event("touching" if want else "apart")
        assert _first_touching_boxes(touch, fam_bands, kept, width, bot) == want


class TestStarCover:
    def test_single_edge(self):
        k = SimplicialComplex([[0.0], [1.0]], [(0, 1)])
        cov, cert = star_cover(k, 1, resolution=12)
        assert len(cov.sets) == 2
        assert lebesgue_number(cov) == pytest.approx(0.5, abs=1e-9)
        assert all(g["pass"] for g in cert)

    def test_flat_rhombus_stability_two(self):
        s3 = math.sqrt(3) / 2
        coords = [[0.0, 0.0], [1.0, 0.0], [0.5, s3], [0.5, -s3]]
        k = SimplicialComplex(coords, [(0, 1, 2), (0, 1, 3)])
        assert k.pairwise_stability() == 2
        cov, cert = star_cover(k, 2, resolution=12)
        assert multiplicity(cov) == 3
        assert lebesgue_number(cov) == pytest.approx(1 / math.sqrt(12), abs=1e-6)

    def test_single_triangle_degenerate_stability(self):
        s3 = math.sqrt(3) / 2
        k = SimplicialComplex([[0.0, 0.0], [1.0, 0.0], [0.5, s3]], [(0, 1, 2)])
        cov, cert = star_cover(k, 2, resolution=12)
        assert multiplicity(cov) == 3
        assert lebesgue_number(cov) == pytest.approx(1 / math.sqrt(12), abs=1e-6)

    def test_wrong_stability_claim_rejected(self):
        s3 = math.sqrt(3) / 2
        coords = [[0.0, 0.0], [1.0, 0.0], [0.5, s3], [0.5, -s3]]
        k = SimplicialComplex(coords, [(0, 1, 2), (0, 1, 3)])
        with pytest.raises(ContractViolationError):
            star_cover(k, 1, resolution=6)

    def test_subdivided_path_stability_one(self):
        # a subdivided segment: unit edges sharing interior vertices
        k = SimplicialComplex([[0.0], [1.0], [2.0], [3.0]],
                              [(0, 1), (1, 2), (2, 3)])
        assert k.pairwise_stability() == 1
        cov, _ = star_cover(k, 1, resolution=12)
        assert lebesgue_number(cov) == pytest.approx(0.5, abs=1e-9)

    def test_lambda_values(self):
        assert star_lebesgue_bound(1) == pytest.approx(0.5)
        assert star_lebesgue_bound(2) == pytest.approx(1 / math.sqrt(12))


class TestSperner:
    def unit_corners(self, n):
        c = np.zeros((n + 1, n))
        for i in range(n):
            c[i + 1, i] = 1.0
        return c

    def test_forced_edge_n1(self):
        grid = SimplexGrid(self.unit_corners(1), 2)
        # vertices: bary (2,0), (1,1), (0,2); label them 0, 1, 1
        lab = {}
        for vid, b in enumerate(grid.vertices):
            lab[vid] = 0 if b[0] == 2 else 1
        grid.labeling = lab
        found = sperner_find(grid)
        assert found["count"] % 2 == 1

    def test_nearest_corner_labeling_odd_counts(self):
        for n in (1, 2):
            for depth in (2, 3, 4, 5):
                grid = SimplexGrid(self.unit_corners(n), depth)
                grid.labeling = nearest_corner_labeling(grid)
                found = sperner_find(grid)
                assert found["count"] % 2 == 1

    def test_constant_interior_labeling(self):
        grid = SimplexGrid(self.unit_corners(2), 5)
        grid.labeling = oracles.constant_interior_labeling_loop(grid, 0)
        found = sperner_find(grid)
        assert found["count"] % 2 == 1

    def test_random_admissible_labelings_odd(self):
        rng = SplitMix64(42)
        for trial in range(12):
            n = 1 + trial % 2
            grid = SimplexGrid(self.unit_corners(n), 3 + trial % 4)
            grid.labeling = random_admissible_labeling(grid, rng)
            found = sperner_find(grid)
            assert found["count"] % 2 == 1
            assert sorted(found["labels"]) == list(range(n + 1))

    def test_inadmissible_rejected(self):
        grid = SimplexGrid(self.unit_corners(2), 3)
        lab = {vid: 0 for vid in range(len(grid.vertices))}
        grid.labeling = lab
        with pytest.raises(InvalidInputError):
            sperner_find(grid)

    def test_cell_count_matches_resolution(self):
        grid = SimplexGrid(self.unit_corners(2), 4)
        assert len(grid.cells) == 16

    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("resolution", [1, 2, 3, 7, 12])
    def test_cell_mesh_matches_the_loop(self, n, resolution):
        skew = np.random.default_rng(n * 100 + resolution).normal(size=(n + 1, n))
        for corners in (self.unit_corners(n) * 4.5, skew * 3.0 + 50.0):
            grid = SimplexGrid(corners, resolution)
            assert grid.cell_mesh() == oracles.cell_mesh_loop(grid.cells, lambda v: grid.points[v])


def lower_bound_corners(n, r):
    """The simplex of the lower bound at level r."""
    c = np.zeros((n + 1, n))
    for j in range(n):
        c[j, j:] = r
    c[n, n - 1] = 1.0
    return c


def same_outcome(new, old):
    """Run both; they must return equal values or raise the same error."""
    try:
        want = old()
    except Exception as err:  # noqa: BLE001 - the type is compared below
        with pytest.raises(type(err)) as got:
            new()
        assert str(got.value) == str(err)
        return None
    assert new() == want
    return want


class TestSimplexArrayKernels:
    """The array grid build, labelings, snap, simplex mask and certificate
    against the vertex-by-vertex loops in oracles, exact equality."""

    @given(data=st.data(), n=st.integers(1, 3), seed=st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=80, deadline=None)
    def test_grid_matches_the_walk(self, data, n, seed):
        m = data.draw(st.integers(1, {1: 60, 2: 16, 3: 7}[n]))
        corners = data.draw(st.one_of(
            arrays(np.float64, (n + 1, n), elements=st.floats(-60, 60, width=32)),
            st.integers(2, 40).map(lambda k: lower_bound_corners(n, k / 4))))
        grid, loop = SimplexGrid(corners, m), oracles.SimplexGridLoop(corners, m)
        assert list(map(tuple, grid.vertices.tolist())) == loop.vertices
        assert list(map(tuple, grid.cells.tolist())) == loop.cells
        pts = np.array([loop.vertex_point(v) for v in range(len(loop.vertices))])
        assert grid.points.tobytes() == pts.tobytes()
        assert [grid.support(v) for v in range(len(loop.vertices))] == \
            [loop.support(v) for v in range(len(loop.vertices))]
        for new, old in (
                (nearest_corner_labeling(grid), oracles.nearest_corner_labeling_loop(loop)),
                (random_admissible_labeling(grid, SplitMix64(seed)),
                 oracles.random_admissible_labeling_loop(loop, SplitMix64(seed)))):
            assert new == [old[v] for v in range(len(old))]
            grid.labeling = old
            assert list(map(tuple, grid.fully_labeled_cells().tolist())) == \
                oracles.fully_labeled_cells_loop(loop, old)

    @given(data=st.data(), n=st.integers(1, 3))
    @settings(max_examples=60, deadline=None)
    def test_admissibility_matches_the_support_test(self, data, n):
        grid = SimplexGrid(lower_bound_corners(n, 3.0), data.draw(st.integers(1, 6)))
        labels = data.draw(st.lists(st.integers(-1, n + 1), min_size=len(grid.vertices),
                                    max_size=len(grid.vertices)))
        grid.labeling = dict(enumerate(labels))
        bad = [v for v, lab in enumerate(labels) if lab not in grid.support(v)]
        if not bad:
            grid.check_admissible()
            return
        v = bad[0]
        with pytest.raises(InvalidInputError) as err:
            grid.check_admissible()
        assert str(err.value) == (f"labeling not admissible at vertex {v}: label {labels[v]} "
                                  f"outside support {sorted(grid.support(v))}")

    @given(data=st.data(), n=st.integers(1, 3), q=st.sampled_from([1, 2, 4]))
    @settings(max_examples=80, deadline=None)
    def test_snap_and_mask_match_the_loops(self, data, n, q):
        # lower-bound simplices on a lattice of step 1/q: vertices land on
        # half steps (r = 15, m = 92 puts one at 7.5 steps); sample points
        # go missing or repeat
        step = 1.0 / q
        r = data.draw(st.integers(q + 1, {1: 24, 2: 12, 3: 5}[n] * q)) * step
        coords = pn_sample(n, r + data.draw(st.sampled_from([0.0, 1.0])), step).meta["coords"]
        keep = data.draw(arrays(np.bool_, len(coords), elements=st.booleans()
                                | st.just(True)))
        repeat = data.draw(st.lists(st.integers(0, len(coords) - 1), max_size=8))
        coords = np.vstack([coords[keep], coords[repeat], coords[repeat][:, ::-1]])
        corners = lower_bound_corners(n, r)
        m = data.draw(st.integers(1, {1: 120, 2: 40, 3: 10}[n]))
        grid, loop = SimplexGrid(corners, m), oracles.SimplexGridLoop(corners, m)
        index = {tuple(np.round(c, 9)): i for i, c in enumerate(coords)}
        want = [oracles.snap_to_sample_loop(loop.vertex_point(v), loop.support(v), n, r, step,
                                            index) for v in range(len(loop.vertices))]
        got = _snap_to_sample(grid.points, grid.vertices > 0, n, r, step, coords)
        assert got.tolist() == [-1 if a is None else a for a in want]
        probe = np.vstack([coords, data.draw(arrays(np.float64, (8, n),
                                                    elements=st.floats(-2, r + 2)))])
        assert np.array_equal(_in_simplex_mask(probe, corners),
                              oracles.in_simplex_mask_loop(probe, corners))

    @given(n=st.integers(1, 3), q=st.sampled_from([1, 2, 3, 4]), data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_pn_sample_matches_the_loop(self, n, q, data):
        step = 1.0 / q
        xmax = data.draw(st.integers(1, {1: 40, 2: 16, 3: 6}[n] * q)) * step \
            + data.draw(st.sampled_from([0.0, 0.3 * step, -1e-12]))
        got, want = pn_sample(n, xmax, step).meta["coords"], \
            oracles.pn_sample_loop(n, xmax, step).meta["coords"]
        assert got.shape == want.shape and np.array_equal(got, want)

    def test_snap_on_half_steps(self):
        # r = 15, m = 92: b_0 = 23 puts x_0 = 3.75 on 7.5 steps of 0.5, and
        # rounding there must match the vertex-by-vertex snap
        grid = SimplexGrid(lower_bound_corners(2, 15.0), 92)
        assert np.any(grid.points[grid.vertices[:, 0] == 23, 0] / 0.5 == 7.5)
        coords = pn_sample(2, 16.0, 0.5).meta["coords"]
        index = {tuple(np.round(c, 9)): i for i, c in enumerate(coords)}
        want = [oracles.snap_to_sample_loop(grid.points[v], grid.support(v), 2, 15.0, 0.5, index)
                for v in range(len(grid.vertices))]
        got = _snap_to_sample(grid.points, grid.vertices > 0, 2, 15.0, 0.5, coords)
        assert got.tolist() == [-1 if a is None else a for a in want]

    @given(data=st.data(), n=st.integers(1, 2))
    @settings(max_examples=25, deadline=None)
    def test_certificate_matches_the_loop(self, data, n):
        step = data.draw(st.sampled_from([0.5] if n == 2 else [0.25, 0.5, 1.0]))
        space = pn_sample(n, data.draw(st.sampled_from([12.0, 16.0, 20.0])), step)
        if n == 1:
            coords = space.meta["coords"][:, 0]
            width = data.draw(st.sampled_from([3.0, 4.0, 6.0]))
            overlap = data.draw(st.sampled_from([1.5, 2.0, 2.5]))
            sets, lo = [], 0.0
            while lo <= coords.max():
                mask = (coords >= lo - overlap - 1e-9) & (coords <= lo + width + 1e-9)
                sets.append(np.flatnonzero(mask).tolist())
                lo += width
        else:
            sets = list(cube_cover(space, 2, data.draw(st.sampled_from([6.0, 7.0, 8.0, 9.0])))[0]
                        .sets)
        # drop a few points from a few sets: appetite or the cover may fail
        for k in data.draw(st.lists(st.integers(0, len(sets) - 1), max_size=2)):
            sets[k] = [p for p in sets[k] if data.draw(st.integers(0, 9)) > 0]
        try:
            cover = Cover(space, sets)
        except InvalidInputError:
            return
        cert = same_outcome(lambda: simplex_lower_bound_check(cover, n),
                            lambda: oracles.simplex_lower_bound_loop(cover, n))
        event("certified" if cert else "rejected")

    @pytest.mark.parametrize("n, xmax, step, a, overlap", [
        (1, 30.0, 0.5, 4.0, 1.5), (1, 40.0, 0.5, 6.0, 2.0), (2, 16.0, 0.5, 8.0, None),
        (2, 20.0, 0.5, 7.0, None), (2, 24.0, 0.5, 9.0, None), (2, 16.0, 0.25, 8.0, None)])
    def test_certificate_matches_the_loop_on_working_covers(self, n, xmax, step, a, overlap):
        space = pn_sample(n, xmax, step)
        if n == 1:
            cover = TestLowerBound().band_cover(space, width=a, overlap=overlap)
        else:
            cover = Cover(space, cube_cover(space, 2, a)[0].sets)
        cert = same_outcome(lambda: simplex_lower_bound_check(cover, n),
                            lambda: oracles.simplex_lower_bound_loop(cover, n))
        assert len(cert["all_containing_sets"]) >= n + 1

    def test_grid_over_the_point_cap_allocates_nothing(self):
        unit = TestSperner().unit_corners
        for corners, m, count in ((unit(2), 10 ** 6, "500001500001 vertices"),
                                  (unit(2), 1825, "10008306 chain points"),
                                  (unit(11), 1, "5748019200 chain points")):
            tracemalloc.start()
            try:
                with pytest.raises(ResourceLimitError, match=f"{count}, beyond the {10 ** 7}"):
                    SimplexGrid(corners, m)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 2 ** 20

    def test_subdivision_over_the_point_cap(self):
        with pytest.raises(ResourceLimitError, match="point cap"):
            _subdivide_to_mesh(lower_bound_corners(2, 5000.0), target=0.45)


class TestLowerBound:
    def band_cover(self, space, width=4.0, overlap=1.5):
        """1-d overlapping interval cover of a positive-axis sample."""
        coords = space.meta["coords"][:, 0]
        sets = []
        lo = 0.0
        while lo <= coords.max():
            mask = (coords >= lo - overlap - 1e-9) & (coords <= lo + width + 1e-9)
            sets.append([int(i) for i in np.nonzero(mask)[0]])
            lo += width
        return Cover(space, sets)

    def test_n1_interval_cover(self):
        space = pn_sample(1, 30.0, 0.5)
        cov = self.band_cover(space)
        cert = simplex_lower_bound_check(cov, 1)
        assert len(cert["sets"]) == 2
        assert len(cert["all_containing_sets"]) >= 2
        assert cert["fully_labeled_count"] % 2 == 1

    def test_n2_cube_cover(self):
        space = pn_sample(2, 16.0, 0.5)
        cov_colored, _ = cube_cover(space, 2, 8.0)
        cov = Cover(space, cov_colored.sets)
        cert = simplex_lower_bound_check(cov, 2)
        assert len(cert["sets"]) == 3
        assert len(cert["all_containing_sets"]) >= 3

    def test_certificate_recount_from_raw_data(self):
        space = pn_sample(2, 16.0, 0.5)
        cov_colored, _ = cube_cover(space, 2, 8.0)
        cov = Cover(space, cov_colored.sets)
        cert = simplex_lower_bound_check(cov, 2)
        point = cert["point"]
        containing = [si for si, s in enumerate(cov.sets) if point in set(s)]
        assert set(cert["sets"]) <= set(containing)
        assert len(containing) >= 3

    def test_no_appetite_rejected(self):
        space = pn_sample(1, 20.0, 0.5)
        coords = space.meta["coords"][:, 0]
        sets = []
        lo = 0.0
        while lo <= coords.max():
            mask = (coords >= lo - 1e-9) & (coords < lo + 2.0 - 1e-9)
            sets.append([int(i) for i in np.nonzero(mask)[0]])
            lo += 2.0
        cov = Cover(space, sets)
        with pytest.raises(ContractViolationError):
            simplex_lower_bound_check(cov, 1)

    def test_spanning_set_rejected(self):
        # one set runs the whole sampled ray: the level r cannot fit
        space = pn_sample(1, 12.0, 0.5)
        allpts = [list(range(space.n))]
        cov = Cover(space, allpts)
        with pytest.raises(ContractViolationError):
            simplex_lower_bound_check(cov, 1)
