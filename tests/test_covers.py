import math
from itertools import combinations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy import sparse

from coarselab import covers
from coarselab.covers import (Cover, appetite_witness, cover_entourage, first_container,
                              has_appetite, lebesgue_number, mesh, multiplicity, stats)
from coarselab.errors import InvalidInputError, ResourceLimitError
from coarselab.spaces import Entourage, Space
from coarselab.transforms import _distinct_contents
from coarselab.witnesses import cube_cover
import oracles
from oracles import appetite_witness_loop, first_container_brute


def brute_multiplicity(cover):
    """Oracle: max size of a subfamily of distinct sets with a common point."""
    distinct = sorted(set(cover.sets))
    best = 0
    for k in range(1, min(len(distinct), 10) + 1):
        for combo in combinations(range(len(distinct)), k):
            common = set(distinct[combo[0]])
            for i in combo[1:]:
                common &= set(distinct[i])
            if common:
                best = max(best, k)
    return best


def first_rows(sets):
    """Oracle: the index of the first set with each content, in set order."""
    return [k for k, s in enumerate(sets) if s not in sets[:k]]


class TestMultiplicity:
    def test_singleton_partition(self):
        sp = Space.line(0, 9, 1.0)
        c = Cover(sp, [[i] for i in range(10)])
        assert multiplicity(c) == 1

    def test_cube_cover_on_plane_is_three(self):
        grid = Space.grid(2, [0, 0], [20, 20], 0.5)
        cov, _ = cube_cover(grid, 2, 6.0)
        assert multiplicity(cov) == 3

    def test_matches_brute_force_oracle(self):
        rng = np.random.default_rng(11)
        sp = Space.line(0, 49, 1.0)
        for _ in range(5):
            sets = []
            for _ in range(rng.integers(3, 9)):
                size = rng.integers(1, 20)
                sets.append(sorted(set(int(x) for x in rng.integers(0, 50, size))))
            sets.append(list(range(50)))  # keep it covering
            c = Cover(sp, sets)
            assert multiplicity(c) == brute_multiplicity(c)

    def test_duplicate_sets_count_once(self):
        sp = Space.line(0, 3, 1.0)
        c = Cover(sp, [[0, 1, 2, 3], [0, 1, 2, 3], [2, 3]])
        assert multiplicity(c) == 2


class TestMesh:
    def test_singletons_have_zero_mesh(self):
        sp = Space.line(0, 9, 1.0)
        assert mesh(Cover(sp, [[i] for i in range(10)])) == 0.0

    def test_cube_cover_mesh_is_diagonal(self):
        grid = Space.grid(2, [0, 0], [20, 20], 0.5)
        cov, _ = cube_cover(grid, 2, 6.0)
        assert mesh(cov) <= 6 * math.sqrt(2) + 0.5 + 1e-9

    def test_mesh_equals_smallest_radius_bound(self):
        sp = Space.line(0, 9, 1.0)
        c = Cover(sp, [[0, 1, 2], [2, 3, 4, 5, 6, 7, 8, 9]])
        m = mesh(c)
        ce = cover_entourage(c)
        assert ce.is_subset_of(Entourage.radius(sp, m, closed=True))
        assert not ce.is_subset_of(Entourage.radius(sp, m * 0.99))


class TestLebesgue:
    def test_whole_space_gives_infinity(self):
        sp = Space.line(0, 9, 1.0)
        assert lebesgue_number(Cover(sp, [list(range(10))])) == math.inf

    def test_cube_cover_bound(self):
        grid = Space.grid(2, [0, 0], [20, 20], 0.5)
        cov, _ = cube_cover(grid, 2, 6.0)
        assert lebesgue_number(cov) >= 6 / (2 * 3) - 1e-9

    def test_lebesgue_implies_appetite(self):
        sp = Space.line(0, 20, 0.5)
        c = Cover(sp, [list(range(0, 25)), list(range(18, 41))])
        L = lebesgue_number(c)
        assert has_appetite(c, Entourage.radius(sp, L))


@st.composite
def grid_cover(draw):
    """A grid of dim 1-3 (axes of one point included) at a step and offset
    from the given lists, and a random family of sets on it: scattered
    subsets and lattice boxes, maybe an empty set and the whole space, and
    maybe points left uncovered."""
    dim = draw(st.integers(1, 3))
    step = draw(st.sampled_from([0.3, 0.5, 1.0, 2.5]))
    offset = draw(st.sampled_from([0.0, -7.5, 1e6, 1e15]))
    counts = draw(st.lists(st.integers(1, (12, 7, 5)[dim - 1]), min_size=dim, max_size=dim))
    sp = Space.grid(dim, [offset] * dim, [offset + (c - 1) * step for c in counts], step)
    shape = sp.meta["shape"]
    sets = []
    for _ in range(draw(st.integers(1, 5))):
        if draw(st.booleans()):
            sets.append(np.flatnonzero(draw(arrays(bool, sp.n))).tolist())
        else:
            lo = [draw(st.integers(0, c - 1)) for c in shape]
            hi = [draw(st.integers(a, c - 1)) for a, c in zip(lo, shape)]
            box = np.ix_(*[np.arange(a, b + 1) for a, b in zip(lo, hi)])
            sets.append(np.arange(sp.n).reshape(shape)[box].ravel().tolist())
    if draw(st.booleans()):
        sets.append([])
    if draw(st.booleans()):
        sets.append(list(range(sp.n)))
    return Cover(sp, sets, require_covering=False)


def halves(kind, step, offset):
    """Two halves, split at x = 1.5 after the offset, of the 2-d lattice of
    the given step on [0, 3]^2 shifted by the offset, as a grid or a cloud."""
    sp = Space.grid(2, [offset] * 2, [offset + 3] * 2, step)
    if kind == "cloud":
        sp = Space.cloud(sp.meta["coords"])
    left = sp.meta["coords"][:, 0] < offset + 1.5 + step / 2
    return Cover(sp, [np.flatnonzero(left).tolist(), np.flatnonzero(~left).tolist()])


class TestLatticeBoundaries:
    """The boundary-only Lebesgue number and mesh against a scan of every
    distance row, and against the dense Gram-form loops they replaced."""

    @given(cover=grid_cover())
    @example(cover=Cover(Space.grid(2, [0, 0], [2, 4], 1.0), [[0], list(range(1, 15))]))
    @settings(max_examples=200, deadline=None)
    def test_matches_distance_rows(self, cover):
        leb, msh = lebesgue_number(cover), mesh(cover)
        assert leb == oracles.lebesgue_number_rows(cover)
        assert msh == oracles.mesh_rows(cover)
        coords = cover.space.meta["coords"]
        if np.array_equal(coords, np.round(coords)) and np.abs(coords).max() <= 2**20:
            assert leb == oracles.lebesgue_number_loop(cover)
            assert msh == oracles.mesh_loop(cover)

    def test_cube_cover_matches_the_dense_loops(self):
        grid = Space.grid(2, [3, 3], [40, 25], 1.0)
        cov, _ = cube_cover(grid, 2, 21.0)
        assert lebesgue_number(cov) == oracles.lebesgue_number_loop(cov)
        assert mesh(cov) == oracles.mesh_loop(cov)


class TestFarFromOrigin:
    """Distances of points far from the origin: the Gram form cancelled,
    0.29974 or 0.25 for a 0.3 gap and 0.0 for a 0.5 gap."""

    @pytest.mark.parametrize("kind", ["grid", "cloud"])
    @pytest.mark.parametrize("offset", [1e6, 1e7])
    def test_lebesgue_of_a_step_0_3_lattice(self, kind, offset):
        c = halves(kind, 0.3, offset)
        assert lebesgue_number(c) == oracles.lebesgue_number_rows(c)
        assert lebesgue_number(c) == pytest.approx(0.3, abs=1e-8)

    @pytest.mark.parametrize("kind", ["grid", "cloud"])
    def test_mesh_and_lebesgue_of_a_step_0_5_lattice(self, kind):
        c = halves(kind, 0.5, 1e8)
        assert mesh(c) == oracles.mesh_rows(c)
        assert mesh(c) == pytest.approx(math.hypot(1.5, 3.0), abs=1e-8)
        assert lebesgue_number(c) == pytest.approx(0.5, abs=1e-8)


class TestAppetite:
    def test_diagonal_appetite_is_covering(self):
        sp = Space.line(0, 9, 1.0)
        c = Cover(sp, [[i, (i + 1) % 10] for i in range(10)])
        assert has_appetite(c, Entourage.diagonal(sp))

    def test_singletons_fail_radius_appetite(self):
        sp = Space.line(0, 9, 1.0)
        c = Cover(sp, [[i] for i in range(10)])
        assert not has_appetite(c, Entourage.radius(sp, 1.5))
        assert appetite_witness(c, Entourage.radius(sp, 1.5)) is not None

    def test_cube_cover_has_unit_appetite(self):
        grid = Space.grid(2, [0, 0], [20, 20], 0.5)
        cov, _ = cube_cover(grid, 2, 6.0)
        assert has_appetite(cov, Entourage.radius(grid, 1.0))


class TestFirstContainer:
    @given(data=st.data(), cols=st.integers(0, 8))
    @settings(max_examples=150, deadline=None)
    def test_matches_brute_force(self, data, cols):
        # zero-row shapes and all-False rows give empty queries and empty sets
        queries = data.draw(arrays(bool, (data.draw(st.integers(0, 6)), cols)))
        sets = data.draw(arrays(bool, (data.draw(st.integers(0, 6)), cols)))
        got = first_container(sparse.csr_matrix(queries), sparse.csr_matrix(sets))
        assert got.tolist() == first_container_brute(queries, sets)

    def test_incidence_rows_are_the_sets(self):
        sp = Space.line(0, 6, 1.0)
        c = Cover(sp, [[0, 1, 2], [], [2, 3, 4, 5, 6]])
        inc = c.incidence()
        assert inc.dtype == bool and inc.shape == (3, 7)
        assert [tuple(inc[k].indices.tolist()) for k in range(3)] == list(c.sets)


@st.composite
def cover_and_relation(draw):
    """A small line sample, any family of sets on it (covering or not, with
    empty sets allowed) and a pair or radius relation."""
    n = draw(st.integers(1, 12))
    sp = Space.line(0, n - 1, 1.0)
    sets = draw(st.lists(st.lists(st.integers(0, n - 1), max_size=n), max_size=6))
    cover = Cover(sp, sets, require_covering=False)
    if draw(st.booleans()):
        pairs = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                              max_size=3 * n))
        rel = Entourage.from_pairs(sp, pairs, symmetrize=draw(st.booleans()))
    else:
        rel = Entourage.radius(sp, draw(st.sampled_from([0.0, 0.5, 1.0, 1.5, 2.0, 3.0])),
                               closed=draw(st.booleans()))
    return cover, rel


class TestAppetiteOracle:
    @given(case=cover_and_relation())
    @settings(max_examples=200, deadline=None)
    def test_witness_matches_loop(self, case):
        cover, rel = case
        assert appetite_witness(cover, rel) == appetite_witness_loop(cover, rel)

    def test_failing_witness_matches_loop(self):
        sp = Space.line(0, 19, 1.0)
        c = Cover(sp, [list(range(0, 8)), list(range(6, 14)), list(range(13, 20))])
        e = Entourage.radius(sp, 2.5)
        assert appetite_witness(c, e) == appetite_witness_loop(c, e) == 6


class TestCoverEntourage:
    def test_pair_cap_is_a_resource_limit(self):
        sp = Space.line(0, 9, 1.0)
        c = Cover(sp, [list(range(6)), list(range(4, 10))])
        assert cover_entourage(c, cap=72).matrix().nnz == 68
        with pytest.raises(ResourceLimitError):
            cover_entourage(c, cap=71)

    def test_singleton_cover_gives_diagonal(self):
        sp = Space.line(0, 9, 1.0)
        c = Cover(sp, [[i] for i in range(10)])
        ce = cover_entourage(c)
        assert np.array_equal(ce.keys(), Entourage.diagonal(sp).keys())

    def test_single_set_gives_square(self):
        sp = Space.line(0, 4, 1.0)
        c = Cover(sp, [[0, 1, 2, 3, 4]])
        assert cover_entourage(c).matrix().nnz == 25

    def test_cube_cover_entourage_inside_mesh_ball(self):
        grid = Space.grid(2, [0, 0], [12, 12], 0.5)
        cov, _ = cube_cover(grid, 2, 6.0)
        ce = cover_entourage(cov)
        assert ce.is_subset_of(Entourage.radius(grid, 6 * math.sqrt(2) + 0.01))


class TestCoverValidation:
    def test_non_covering_rejected(self):
        sp = Space.line(0, 9, 1.0)
        with pytest.raises(InvalidInputError):
            Cover(sp, [[0, 1, 2]])

    def test_family_overlap_rejected(self):
        sp = Space.line(0, 3, 1.0)
        with pytest.raises(InvalidInputError):
            Cover(sp, [[0, 1], [1, 2, 3]], families=[[0, 1]])

    def test_families_bound_multiplicity(self):
        sp = Space.line(0, 9, 1.0)
        sets = [[0, 1, 2, 3, 4], [6, 7, 8, 9], [3, 4, 5, 6]]
        c = Cover(sp, sets, families=[[0, 1], [2]])
        assert multiplicity(c) <= 2

    def test_stats_shape(self):
        sp = Space.line(0, 9, 1.0)
        c = Cover(sp, [[i] for i in range(10)])
        out = stats(c, Entourage.diagonal(sp))
        assert out["multiplicity"] == 1 and out["appetite"] is True


ROW_TYPES = (list, tuple, set, np.array, iter)


@st.composite
def raw_cover(draw):
    """Sets and families as a caller may hand them in: unsorted rows with
    repeats, of mixed iterable types, with empty sets, a duplicated set, a
    whole-space set and uncovered points; families in any order, and
    possibly overlapping."""
    n = draw(st.integers(1, 10))
    sets = draw(st.lists(st.lists(st.integers(0, n - 1), max_size=2 * n), max_size=7))
    if draw(st.booleans()):
        sets.insert(draw(st.integers(0, len(sets))), list(range(n))[::-1])
    if sets and draw(st.booleans()):
        sets.append(draw(st.permutations(sets[draw(st.integers(0, len(sets) - 1))])))
    families = None
    if draw(st.booleans()):
        labels = draw(st.lists(st.integers(0, 2), min_size=len(sets), max_size=len(sets)))
        order = draw(st.permutations(range(len(sets))))
        families = [[k for k in order if labels[k] == f] for f in range(3)]
        # a family list that misses a set, repeats one or names a stranger
        families[0] += draw(st.sampled_from([[], [], [], [0], [len(sets)], [-1]]))
    if sets and draw(st.integers(0, 9)) == 0:
        sets[-1] = sets[-1] + [draw(st.sampled_from([-1, n]))]
    rows = [draw(st.sampled_from(ROW_TYPES))(s) for s in sets]
    return n, sets, rows, families


class TestIncidenceOracle:
    @given(case=raw_cover(), canonicalize=st.booleans())
    @settings(max_examples=300, deadline=None)
    def test_constructor_matches_the_tuples(self, case, canonicalize):
        n, sets, rows, families = case
        sp = Space.discrete(n)
        try:
            want_sets, want_fams = oracles.cover_tuples(sets, families, n, canonicalize)
        except ValueError as err:
            with pytest.raises(InvalidInputError, match=str(err)):
                Cover(sp, rows, families, require_covering=False, canonicalize=canonicalize)
            return
        overlap = oracles.family_overlap_loop(want_sets, want_fams)
        if overlap is not None:
            with pytest.raises(InvalidInputError) as err:
                Cover(sp, rows, families, require_covering=False, canonicalize=canonicalize)
            assert str(err.value) == (f"family sets must be disjoint; sets {overlap[0]} and "
                                      f"{overlap[1]} share point {overlap[2]}")
            return
        c = Cover(sp, rows, families, require_covering=False, canonicalize=canonicalize)
        assert c.sets == want_sets and c.families == want_fams
        assert all(type(p) is int for s in c.sets for p in s)
        again = Cover(sp, c.incidence(), c.families, require_covering=False,
                      canonicalize=canonicalize)
        assert again.sets == want_sets and again.families == want_fams
        assert c.uncovered_points() == [p for p in range(n)
                                        if not any(p in s for s in want_sets)]
        assert c.empty_set_indices() == [k for k, s in enumerate(want_sets) if not s]
        assert multiplicity(c) == oracles.multiplicity_loop(want_sets, n)
        firsts = first_rows(want_sets)
        assert c.distinct_rows().tolist() == again.distinct_rows().tolist() == firsts

    @pytest.mark.parametrize("families", [[[0], [2 ** 70]], [[-2 ** 70, 0], [1]],
                                          [[0, 1], [np.uint64(2 ** 64 - 1)]]])
    def test_family_entry_beyond_int64(self, families):
        sets = [[0], [1]]
        message = "families must partition distinct set indices"
        with pytest.raises(ValueError, match=message):
            oracles.cover_tuples(sets, families, 2)
        with pytest.raises(InvalidInputError, match=f"^{message}$"):
            Cover(Space.discrete(2), sets, families)

    @given(prefix=st.integers(0, 40), tails=st.lists(
        st.lists(st.integers(40, 60), max_size=4), min_size=1, max_size=6))
    @settings(max_examples=60, deadline=None)
    def test_long_shared_prefixes_on_a_large_space(self, prefix, tails):
        # n = 10^6 packs three columns into a sort key, so prefixes of 24 or
        # more columns outlast the vectorized rounds
        sets = [list(range(prefix)) + t for t in tails] + [list(range(prefix))]
        c = Cover(Space.discrete(10**6), sets, require_covering=False)
        assert c.sets == oracles.cover_tuples(sets, None, 10**6)[0]
        assert multiplicity(c) == oracles.multiplicity_loop(c.sets, 10**6)
        raw = Cover(c.space, sets, require_covering=False, canonicalize=False)
        for d in (c, raw):
            assert d.distinct_rows().tolist() == first_rows(d.sets)

    @pytest.mark.parametrize("canonicalize, ordered_by_constructor", [(True, 1), (False, 0)])
    def test_rows_are_ordered_once(self, monkeypatch, canonicalize, ordered_by_constructor):
        calls = []
        lex_order = covers._lex_order
        monkeypatch.setattr(covers, "_lex_order", lambda m: calls.append(m) or lex_order(m))
        sp = Space.line(0, 9, 1.0)
        c = Cover(sp, [[3, 4, 5], [0, 1, 2, 3], [6, 7, 8, 9], [0, 1, 2, 3]],
                  canonicalize=canonicalize)
        assert len(calls) == ordered_by_constructor
        # 57 pairs counted with the repeat, 41 without: the cap makes
        # cover_entourage count the distinct rows
        cover_entourage(c, cap=50)
        for reader in (multiplicity, mesh, _distinct_contents):
            reader(c)
        assert len(calls) == 1

    def test_sets_view_is_cached_and_read_only(self):
        c = Cover(Space.line(0, 3, 1.0), [[3, 2], [0, 1, 1]])
        assert c.sets == ((0, 1), (2, 3)) and c.sets is c.sets
        with pytest.raises(AttributeError):
            c.sets = ()

    def test_incidence_input_keeps_its_rows(self):
        sp = Space.line(0, 4, 1.0)
        m = sparse.csr_matrix(np.array([[0, 2, 0, 0, 1], [1, 1, 0, 0, 0], [0, 0, 3, 1, 0]]))
        c = Cover(sp, m, canonicalize=False)
        assert c.sets == ((1, 4), (0, 1), (2, 3)) and c.incidence().dtype == bool
        with pytest.raises(InvalidInputError):
            Cover(sp, m[:, :4])
