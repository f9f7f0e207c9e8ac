import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from coarselab.covers import (Cover, has_appetite, lebesgue_number, mesh,
                              multiplicity)
from coarselab.errors import ContractViolationError, InvalidInputError
from coarselab.prng import SplitMix64
from coarselab.spaces import Entourage, Space
from coarselab.witnesses import (IntervalRelation, _cube_sets, SimplexGrid, SimplicialComplex,
                                 constant_interior_labeling, cube_cover,
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
        assert np.array_equal(tree.dist_block(r, c, squared=True), want ** 2)
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
        assert _class_separation(tree.adjacency(), label, parity) == want

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


class TestRayCellCover:
    def test_interval_relation_rows_run_from_lo_to_hi(self):
        line = Space.line(0, 9, 1.0)
        e = Entourage.from_pairs(line, [(1, 4), (7, 8)])
        rel = IntervalRelation.from_entourage(e, 1)
        assert rel.to_entourage(line).pairs() == [
            (i, j) for i in range(10) for j in range(rel.lo[i], rel.hi[i] + 1)]

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
        grid.labeling = constant_interior_labeling(grid, 0)
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
            assert grid.cell_mesh() == oracles.cell_mesh_loop(grid)


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
