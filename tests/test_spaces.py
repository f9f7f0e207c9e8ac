import math
import os
import subprocess
import sys
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import coarselab
from coarselab import spaces
from coarselab.covers import Cover, cover_entourage, lebesgue_number, mesh
from coarselab.errors import InvalidInputError, ResourceLimitError
from coarselab.spaces import PAIR_CAP, POINT_CAP, Entourage, PointMap, Space, transport
from coarselab.transforms import make_product_entourage
import oracles


def small_relation(n_points=20):
    return st.lists(
        st.tuples(st.integers(0, n_points - 1), st.integers(0, n_points - 1)),
        max_size=25)


class TestEntourageAlgebra:
    def setup_method(self):
        self.line = Space.line(0, 29, 1.0)

    def test_compose_single_chain_raw(self):
        e = Entourage.from_pairs(self.line, [(0, 1)], symmetrize=False)
        f = Entourage.from_pairs(self.line, [(1, 2)], symmetrize=False)
        assert e.compose(f).pairs() == [(0, 2)]

    def test_diagonal_is_identity(self):
        e = Entourage.from_pairs(self.line, [(3, 7), (2, 9)])
        d = Entourage.diagonal(self.line)
        assert sorted(d.compose(e).pairs()) == sorted(e.pairs())
        assert sorted(e.compose(d).pairs()) == sorted(e.pairs())

    def test_union_composition_distributes(self):
        # (E1 u E2)(F1 u F2) = E1F1 u E1F2 u E2F1 u E2F2 on random relations
        rng = np.random.default_rng(7)
        n = 20
        sp = Space.line(0, n - 1, 1.0)

        def rand_rel():
            k = rng.integers(1, 15)
            pairs = [(int(a), int(b)) for a, b in rng.integers(0, n, size=(k, 2))]
            return Entourage.from_pairs(sp, pairs, symmetrize=False)

        for _ in range(10):
            e1, e2, f1, f2 = rand_rel(), rand_rel(), rand_rel(), rand_rel()
            lhs = e1.union(e2).compose(f1.union(f2))
            rhs = (e1.compose(f1).union(e1.compose(f2))
                   .union(e2.compose(f1)).union(e2.compose(f2)))
            assert np.array_equal(lhs.keys(), rhs.keys())

    @given(pairs=small_relation())
    @settings(max_examples=60, deadline=None)
    def test_inverse_involution(self, pairs):
        sp = Space.line(0, 19, 1.0)
        e = Entourage.from_pairs(sp, pairs, symmetrize=False)
        assert np.array_equal(e.inverse().inverse().keys(), e.keys())

    @given(pairs=small_relation(), a=st.lists(st.integers(0, 19), max_size=8),
           b=st.lists(st.integers(0, 19), max_size=8))
    @settings(max_examples=60, deadline=None)
    def test_image_distributes_over_union(self, pairs, a, b):
        sp = Space.line(0, 19, 1.0)
        e = Entourage.from_pairs(sp, pairs, symmetrize=False)
        assert e.image(set(a) | set(b)) == (e.image(a) | e.image(b))

    @given(p1=small_relation(), p2=small_relation(), p3=small_relation())
    @settings(max_examples=40, deadline=None)
    def test_composition_associative(self, p1, p2, p3):
        sp = Space.line(0, 19, 1.0)
        e1 = Entourage.from_pairs(sp, p1, symmetrize=False)
        e2 = Entourage.from_pairs(sp, p2, symmetrize=False)
        e3 = Entourage.from_pairs(sp, p3, symmetrize=False)
        lhs = e1.compose(e2).compose(e3)
        rhs = e1.compose(e2.compose(e3))
        assert np.array_equal(lhs.keys(), rhs.keys())

    @given(p1=small_relation(), p2=small_relation(),
           a=st.lists(st.integers(0, 19), max_size=8))
    @settings(max_examples=40, deadline=None)
    def test_image_of_composition(self, p1, p2, a):
        sp = Space.line(0, 19, 1.0)
        e1 = Entourage.from_pairs(sp, p1, symmetrize=False)
        e2 = Entourage.from_pairs(sp, p2, symmetrize=False)
        assert e1.compose(e2).image(a) == e1.image(e2.image(a))

    def test_image_of_empty_set(self):
        e = Entourage.from_pairs(self.line, [(0, 1)])
        assert e.image([]) == frozenset()

    def test_radius_ball_and_strictness(self):
        e = Entourage.radius(self.line, 2.0)
        assert e.image([5]) == frozenset({4, 5, 6})
        closed = Entourage.radius(self.line, 2.0, closed=True)
        assert closed.image([5]) == frozenset({3, 4, 5, 6, 7})

    def test_triangle_composition_of_radius(self):
        grid = Space.grid(2, [0, 0], [9, 9], 1.0)
        dr = Entourage.radius(grid, 1.5)
        ds = Entourage.radius(grid, 2.0)
        dt = Entourage.radius(grid, 3.5)
        assert dr.materialize().compose(ds.materialize()).is_subset_of(dt)

    def test_materialization_cap(self):
        grid = Space.grid(2, [0, 0], [70, 70], 1.0)
        with pytest.raises(ResourceLimitError):
            Entourage.radius(grid, 1000.0).materialize(cap=10**5)

    def test_mismatched_spaces_rejected(self):
        other = Space.line(0, 5, 1.0)
        e = Entourage.from_pairs(self.line, [(0, 1)])
        f = Entourage.from_pairs(other, [(0, 1)])
        with pytest.raises(InvalidInputError):
            e.compose(f)

    def test_compose_counts_every_path_multiplicity(self):
        # 256 paths join each pair; the product must not drop them
        sp = Space.discrete(256)
        full = Entourage.from_matrix(sp, np.ones((256, 256), dtype=bool))
        assert full.compose(full).matrix().nnz == 256 * 256

    def test_compose_of_closed_radius_relations(self):
        line = Space.line(0, 600, 1)
        half = Entourage.radius(line, 128, closed=True).materialize()
        whole = Entourage.radius(line, 256, closed=True).materialize()
        assert np.array_equal(half.compose(half).keys(), whole.keys())

    @given(pairs=small_relation())
    @settings(max_examples=40, deadline=None)
    def test_matrix_matches_pairs(self, pairs):
        sp = Space.line(0, 19, 1.0)
        e = Entourage.from_pairs(sp, pairs, symmetrize=False)
        m = e.matrix().tocoo()
        assert m.dtype == bool
        assert sorted(zip(m.row.tolist(), m.col.tolist())) == e.pairs()


def relation_pairs(n):
    return st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=40)


def keys_of(pairs, n):
    return np.unique(np.array([i * n + j for i, j in pairs], dtype=np.int64))


class TestAlgebraOracle:
    """The CSR relation algebra against the sorted-key algebra it replaced."""

    @given(data=st.data(), n=st.integers(1, 20))
    @settings(max_examples=80, deadline=None)
    def test_pair_algebra_matches_keys(self, data, n):
        sp = Space.discrete(n)
        pa, pb = data.draw(relation_pairs(n)), data.draw(relation_pairs(n))
        a = Entourage.from_pairs(sp, pa, symmetrize=False)
        b = Entourage.from_pairs(sp, pb, symmetrize=False)
        ka, kb = keys_of(pa, n), keys_of(pb, n)
        assert np.array_equal(a.keys(), ka)
        assert a.pairs() == [(int(k // n), int(k % n)) for k in ka]
        assert np.array_equal(a.union(b).keys(), oracles.union_keys(ka, kb))
        assert np.array_equal(a.inverse().keys(), oracles.inverse_keys(ka, n))
        assert np.array_equal(a.compose(b).keys(), oracles.compose_keys(ka, kb, n))
        assert a.is_symmetric() == np.array_equal(oracles.inverse_keys(ka, n), ka)
        assert a.union(a.inverse()).is_symmetric()
        assert a.contains_diagonal() == all(
            oracles.contains_key(ka, i * n + i) for i in range(n))
        for x, y, kx, ky in ((a, b, ka, kb), (b, a, kb, ka)):
            want = oracles.first_pair_outside_keys(
                kx, n, lambda i, j: oracles.contains_key(ky, i * n + j))
            assert x.first_pair_outside(y) == want
            assert x.is_subset_of(y) == (want is None)
        cols = data.draw(st.lists(st.integers(0, n - 1), max_size=6))
        assert a.image(cols) == frozenset(int(k // n) for k in ka if k % n in cols)

    @given(data=st.data(), n=st.integers(1, 20), r=st.floats(0, 6),
           closed=st.booleans())
    @settings(max_examples=60, deadline=None)
    def test_subset_of_radius_matches_keys(self, data, n, r, closed):
        sp = Space.line(0, n - 1, 1.0)
        pairs = data.draw(relation_pairs(n))
        e = Entourage.from_pairs(sp, pairs, symmetrize=False)
        ball = Entourage.radius(sp, r, closed=closed)

        def contains(i, j):
            d = sp.dist(i, j)
            return d <= r + 1e-12 if closed else d < r - 1e-12

        want = oracles.first_pair_outside_keys(keys_of(pairs, n), n, contains)
        assert e.first_pair_outside(ball) == want
        assert e.is_subset_of(ball) == (want is None)

    @given(data=st.data(), n_src=st.integers(1, 20), n_tgt=st.integers(1, 20))
    @settings(max_examples=60, deadline=None)
    def test_transport_matches_keys(self, data, n_src, n_tgt):
        src, tgt = Space.discrete(n_src), Space.discrete(n_tgt)
        table = np.array(data.draw(st.lists(st.integers(0, n_tgt - 1),
                                            min_size=n_src, max_size=n_src)))
        f = PointMap(src, tgt, table)
        ps, pt = data.draw(relation_pairs(n_src)), data.draw(relation_pairs(n_tgt))
        pushed = transport(f, Entourage.from_pairs(src, ps, symmetrize=False), "push")
        pulled = transport(f, Entourage.from_pairs(tgt, pt, symmetrize=False), "pull")
        assert pushed.space is tgt and pulled.space is src
        assert np.array_equal(pushed.keys(),
                              oracles.push_keys(keys_of(ps, n_src), table, n_src, n_tgt))
        assert np.array_equal(pulled.keys(),
                              oracles.pull_keys(keys_of(pt, n_tgt), table, n_src, n_tgt))

    @given(data=st.data(), na=st.integers(1, 6), nb=st.integers(1, 6))
    @settings(max_examples=60, deadline=None)
    def test_product_matches_keys(self, data, na, nb):
        a, b = Space.discrete(na), Space.discrete(nb)
        pa, pb = data.draw(relation_pairs(na)), data.draw(relation_pairs(nb))
        e = make_product_entourage(Space.product(a, b),
                                   Entourage.from_pairs(a, pa, symmetrize=False),
                                   Entourage.from_pairs(b, pb, symmetrize=False))
        assert np.array_equal(e.keys(),
                              oracles.product_keys(keys_of(pa, na), na, keys_of(pb, nb), nb))

    @given(data=st.data(), n=st.integers(1, 20))
    @settings(max_examples=60, deadline=None)
    def test_cover_entourage_matches_keys(self, data, n):
        sp = Space.discrete(n)
        sets = data.draw(st.lists(st.lists(st.integers(0, n - 1), max_size=8), max_size=6))
        cover = Cover(sp, sets, require_covering=False)
        assert np.array_equal(cover_entourage(cover).keys(),
                              oracles.cover_entourage_keys(cover))


# (r, x0, a, b): a and b lie within r of each other, but with x0 the smallest
# value, floor((x - x0) / reach) rounds them into cells two apart, so the
# cell side must be doubled
ROUNDING_STRADDLES = [
    (0.3, -67827920.36698191, 60671667.46237432, 60671667.76237432),
    (0.001, -540904.7639361742, 348370.8477316526, 348370.8487316526),
    (7.77, -88221818760951.34, 79797892336991.8, 79797892336999.56),
    (1e-13, -25007.80277018577, 6569.09987358589, 6569.099873585891),
]


@st.composite
def lattice_clouds(draw):
    """Offset lattice points, with duplicates and pairs exactly one step
    apart, plus some free points."""
    dim = draw(st.integers(1, 5))
    step = draw(st.sampled_from([1.0, 0.25, 0.1, 3.0]))
    offset = draw(st.sampled_from([0.0, -7.5, 1e6, -3.3e9]))
    cells = draw(st.lists(st.lists(st.integers(-3, 3), min_size=dim, max_size=dim),
                          min_size=1, max_size=25))
    free = draw(st.lists(st.lists(st.floats(-4, 4), min_size=dim, max_size=dim), max_size=5))
    coords = offset + step * np.array(cells + free, dtype=float)
    return Space.cloud(coords), step


@st.composite
def lattice_grids(draw):
    dim = draw(st.integers(1, 3))
    step = draw(st.sampled_from([0.5, 0.3, 2.5, 0.1]))
    mins = draw(st.lists(st.sampled_from([0.0, -1.7, 1e4]), min_size=dim, max_size=dim))
    counts = draw(st.lists(st.integers(1, 6), min_size=dim, max_size=dim))
    maxs = [lo + (c - 1) * step for lo, c in zip(mins, counts)]
    return Space.grid(dim, mins, maxs, step), step


class TestMaterializeOracle:
    """The cell-list materialize against one full distance row per point."""

    def check(self, sp, r):
        for closed in (False, True):
            e = Entourage.radius(sp, r, closed=closed)
            assert np.array_equal(e.materialize().keys(), oracles.materialize_rows_loop(e))

    @given(data=st.data(), sample=st.one_of(lattice_clouds(), lattice_grids()))
    @settings(max_examples=150, deadline=None)
    def test_radius_relation_matches_rows(self, data, sample):
        sp, step = sample
        beyond = 2 * float(np.ptp(sp.meta["coords"], axis=0).sum()) + 1
        r = data.draw(st.sampled_from(
            [0.0, 1e-13, step, step - 1e-12, step + 1e-12, 2 * step, beyond]))
        self.check(sp, r)

    @pytest.mark.parametrize("r,x0,a,b", ROUNDING_STRADDLES)
    def test_rounding_straddles_across_cells(self, r, x0, a, b):
        self.check(Space.cloud([[x0], [a], [b]]), r)
        self.check(Space.cloud([[x0, 0.0], [a, 1.0], [b, 1.0]]), r)

    @pytest.mark.parametrize("coords,r", [
        ([[0.0], [np.inf], [np.nan], [1.0]], 2.0),
        ([[0.0, 1.0], [1.0, np.inf], [2.0, 0.0]], np.inf),
        ([[0.0], [1e308], [-1e308], [1e308]], 1.0),
        ([[0.0, 0.0, 0.0, np.inf], [0.0, 0.0, 0.0, 1.0], [0.5, 0.0, 0.0, 1.0]], 1.0),
    ])
    @pytest.mark.filterwarnings("ignore:overflow encountered", "ignore:invalid value encountered")
    def test_non_finite_coordinates_and_radii(self, coords, r):
        self.check(Space.cloud(coords), r)

    def test_empty_cloud(self):
        self.check(Space.cloud(np.zeros((0, 2))), 1.0)
        self.check(Space.cloud(np.zeros((4, 0))), 1.0)

    @pytest.mark.parametrize("sp", [Space.grid(2, [0, 0], [9, 9], 0.5),
                                    Space.tree([(i, i + 1) for i in range(60)])],
                             ids=["grid", "tree"])
    def test_cap_is_exact(self, sp):
        e = Entourage.radius(sp, 1.2)
        count = e.materialize().matrix().nnz
        assert e.materialize(cap=count).matrix().nnz == count
        assert oracles.materialize_rows_loop(e, cap=count).size == count
        message = rf"^radius entourage would exceed the {count - 1} pair cap$"
        for build in (e.materialize, lambda cap: oracles.materialize_rows_loop(e, cap)):
            with pytest.raises(ResourceLimitError, match=message):
                build(cap=count - 1)

    def test_over_cap_stops_before_all_candidates(self):
        n = 3000
        sp = Space.cloud(np.random.default_rng(3).uniform(0, 10, (n, 2)))
        e = Entourage.radius(sp, 100.0)
        tracemalloc.start()
        try:
            with pytest.raises(ResourceLimitError):
                e.materialize(cap=10**5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # one int64 index array over all n**2 candidates would take 72 MB
        assert peak < n * n * 8 // 2

    def test_large_grid_unit_neighbours(self):
        s = 317
        grid = Space.grid(2, [0, 0], [s - 1, s - 1], 1.0)
        e = Entourage.radius(grid, 1.000001).materialize()
        assert e.matrix().nnz == grid.n + 4 * s * (s - 1)

    def test_no_scipy_spatial_import(self):
        # scipy.spatial costs about 13 MB of resident memory per process
        code = ("import sys, coarselab.cli\n"
                "from coarselab.spaces import Entourage, Space\n"
                "Entourage.radius(Space.grid(2, [0, 0], [30, 30], 1.0), 2.5).materialize()\n"
                "print('scipy.spatial' in sys.modules)\n")
        src = os.path.dirname(os.path.dirname(coarselab.__file__))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                             text=True, check=True, timeout=120)
        assert out.stdout.strip() == "False"

    def test_no_csgraph_import(self):
        # scipy.sparse.csgraph pulls in scipy.sparse.linalg, about 9 MB of
        # resident memory per process
        code = ("import sys, coarselab.cli\n"
                "from coarselab.covers import lebesgue_number\n"
                "from coarselab.spaces import Space\n"
                "from coarselab.witnesses import tree_cover\n"
                "cover, _ = tree_cover(Space.tree([(v // 2, v) for v in range(1, 200)]), 1.5)\n"
                "lebesgue_number(cover)\n"
                "print(sorted(m for m in ('scipy.sparse.csgraph', 'scipy.spatial')"
                " if m in sys.modules))\n")
        src = os.path.dirname(os.path.dirname(coarselab.__file__))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                             text=True, check=True, timeout=120)
        assert out.stdout.strip() == "[]"


@st.composite
def stencil_grids(draw):
    """Grids of one to three axes, far from the origin or not, with steps
    from 1e-7 up; at 1e9 a step of 1e-7 is below one ulp, so axis values
    repeat."""
    dim = draw(st.integers(1, 3))
    step = draw(st.sampled_from([1.0, 0.5, 1 / 3, 0.1, 2.5, 1e-3, 1e-7]))
    mins = draw(st.lists(st.sampled_from([0.0, -1.7, 1e4, 1e6, -1e9]),
                         min_size=dim, max_size=dim))
    counts = draw(st.lists(st.integers(1, {1: 40, 2: 12, 3: 6}[dim]),
                           min_size=dim, max_size=dim))
    maxs = [lo + (c - 1) * step for lo, c in zip(mins, counts)]
    return Space.grid(dim, mins, maxs, step), step


def streamed_keys(e):
    """The keys of the chunks that e's backend yields, in the order given."""
    n = e.space.n
    return np.concatenate([np.empty(0, dtype=np.int64)]
                          + [i * n + j for i, j in e._radius_pairs(PAIR_CAP)])


class TestGridStencilOracle:
    """The grid's lattice stencil against one full distance row per point
    and against the cloud cell list run on the grid's coordinates."""

    @given(data=st.data(), sample=stencil_grids(), closed=st.booleans(),
           chunk=st.sampled_from([None, 1, 4, 50]))
    @settings(max_examples=200, deadline=None)
    def test_grid_relation_matches_rows_and_cells(self, data, sample, closed, chunk):
        sp, step = sample
        coords = sp.meta["coords"]
        beyond = 2 * float(np.ptp(coords, axis=0).sum()) + 1
        r = data.draw(st.sampled_from([0.0, 1e-13, step, step - 1e-12, step + 1e-12,
                                       math.sqrt(2) * step, 2.5 * step, beyond]))
        e = Entourage.radius(sp, r, closed=closed)
        # a small chunk slices the stencil, or takes few rows per block
        with mock.patch.object(spaces, "_STENCIL_CHUNK", chunk or spaces._STENCIL_CHUNK):
            m = e.materialize().matrix()
        keys = e.materialize().keys()
        assert m.indices.dtype == m.indptr.dtype == np.int32
        assert np.array_equal(keys, oracles.materialize_rows_loop(e))
        cells = Entourage.radius(Space.cloud(coords), r, closed=closed).materialize()
        assert np.array_equal(keys, cells.keys())

    @given(sample=stencil_grids())
    @settings(max_examples=60, deadline=None)
    def test_adjacency_matches_lattice_edges(self, sample):
        sp, _ = sample
        got, want = sp.backend.adjacency(), oracles.grid_adjacency_loop(sp)
        want.sum_duplicates()
        for field in ("indptr", "indices", "data"):
            assert getattr(got, field).dtype == getattr(want, field).dtype
            assert np.array_equal(getattr(got, field), getattr(want, field))

    @pytest.mark.parametrize("sp", [
        Space.grid(2, [0.0, -1.0], [3.0, 1.0], 0.5),
        Space.cloud(np.random.default_rng(5).uniform(0, 4, (40, 2))),
        Space.cloud([[0.0, 0.0], [np.inf, 1.0], [1.0, 1.0], [0.5, np.nan], [2.0, 0.0]]),
        Space.tree([(v // 2, v) for v in range(1, 30)]),
        Space.from_matrix(np.abs(np.subtract.outer(np.arange(12.0), np.arange(12.0)))),
        Space.hyperbolic_polar(-1.0, [(0.3 * k, 0.7 * k) for k in range(15)]),
        Space.product(Space.line(0, 4, 1.0), Space.tree([(0, 1), (1, 2), (1, 3)])),
    ], ids=["grid", "cloud", "cloud-non-finite", "tree", "matrix", "polar", "product"])
    @pytest.mark.filterwarnings("ignore:invalid value encountered")
    def test_every_backend_streams_ascending_keys(self, sp):
        with mock.patch.multiple(spaces, _PAIR_CHUNK=7, _STENCIL_CHUNK=5, _SCAN_BLOCK=16):
            for r in (0.0, 1.2, 3.0):
                e = Entourage.radius(sp, r)
                keys = streamed_keys(e)
                assert np.all(np.diff(keys) > 0)
                assert np.array_equal(keys, oracles.materialize_rows_loop(e))

    def test_grid_over_cap_stops_before_all_candidates(self):
        line = Space.line(0, 99_999, 1.0)
        e = Entourage.radius(line, 1e9)
        tracemalloc.start()
        try:
            with pytest.raises(ResourceLimitError,
                               match=r"^radius entourage would exceed the 100000 pair cap$"):
                e.materialize(cap=10**5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # each row has a stencil of 2 * 10**5 - 1 steps, so the candidates of
        # all rows would take 160 GB as int64 indices; the run holds the row
        # counts (0.8 MB), the kept columns (0.4 MB) and one stencil block
        assert peak < 8 * 2**20


@st.composite
def geometries(draw, product=True):
    """A small space of each geometry, and products of two of them."""
    kinds = ["matrix", "cloud", "grid", "tree", "hyperbolic_polar", "discrete"]
    kind = draw(st.sampled_from(kinds + ["product"] * product))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    n = draw(st.integers(1, 9))
    if kind == "matrix":
        pts = rng.uniform(-5, 5, (n, 2))
        return Space.from_matrix(np.abs(pts[:, None, :] - pts[None, :, :]).sum(axis=2))
    if kind == "cloud":
        offset = draw(st.sampled_from([0.0, -7.5, 1e6]))
        return Space.cloud(offset + rng.uniform(-5, 5, (draw(st.integers(0, 9)),
                                                         draw(st.integers(1, 3)))))
    if kind == "grid":
        step = draw(st.sampled_from([0.3, 1.0, 2.5]))
        counts = draw(st.lists(st.integers(1, 4), min_size=1, max_size=2))
        return Space.grid(len(counts), [0.0] * len(counts),
                          [(c - 1) * step for c in counts], step)
    if kind == "tree":
        return Space.tree([(int(rng.integers(0, v)), v) for v in range(1, n)])
    if kind == "hyperbolic_polar":
        return Space.hyperbolic_polar(draw(st.sampled_from([-1.0, -0.25, -4.0])),
                                      zip(rng.uniform(0, 12, n), rng.uniform(0, 7, n)))
    if kind == "discrete":
        return Space.discrete(draw(st.integers(0, 6)))
    return Space.product(draw(geometries(product=False)), draw(geometries(product=False)))


class TestMetricBackendOracle:
    """Each geometry's backend against the per-kind branches of dist_row
    and dist_block that it replaced, bit for bit."""

    @given(data=st.data(), sp=geometries())
    @settings(max_examples=200, deadline=None)
    def test_distances_match_the_per_kind_code(self, data, sp):
        index = st.lists(st.integers(0, max(sp.n - 1, 0)), max_size=8 if sp.n else 0)
        rows = np.array(data.draw(index), dtype=np.int64)
        cols = np.array(data.draw(index), dtype=np.int64)
        block = sp.dist_block(rows, cols)
        assert block.dtype == np.float64
        assert np.array_equal(block, oracles.dist_block_by_kind(sp, rows, cols))
        for i in range(sp.n):
            assert np.array_equal(sp.dist_row(i), oracles.dist_row_by_kind(sp, i))
        for i, j in zip(rows, cols):
            assert sp.dist(i, j) == oracles.dist_row_by_kind(sp, i)[j]
        if sp.n:
            assert sp.diameter() == oracles.diameter_rows(sp)
        if sp.is_metric_backed():
            near = [float(d) + e for d in block.ravel()[:3] for e in (0.0, -1e-12, 1e-12)]
            r = data.draw(st.sampled_from([0.0, 1.0, 50.0] + near))
            for closed in (False, True):
                e = Entourage.radius(sp, max(r, 0.0), closed=closed)
                assert np.array_equal(e.materialize().keys(), oracles.materialize_rows_loop(e))

    @given(data=st.data(), sp=geometries())
    @settings(max_examples=200, deadline=None)
    def test_key_pairs_match_the_key_block(self, data, sp):
        # the base mesh, radius_pairs and the cloud walk measure pairs by
        # _key_pairs where the scans they replace read _key_block
        index = st.lists(st.integers(0, max(sp.n - 1, 0)), max_size=8 if sp.n else 0)
        rows = np.array(data.draw(index), dtype=np.int64)
        cols = np.array(data.draw(index), dtype=np.int64)
        block = sp.backend._key_block(rows, cols)
        pairs = sp.backend._key_pairs(np.repeat(rows, cols.size), np.tile(cols, rows.size))
        assert pairs.dtype == block.dtype == np.float64
        assert pairs.tobytes() == np.ascontiguousarray(block).tobytes()


class TestOutsideDistances:
    """The nearest-outside kernel and the mesh of every backend against one
    distance row per queried entry or member, bit for bit, on both sides of
    their set-size choices."""

    @given(data=st.data(), sp=geometries(), block=st.sampled_from([None, 1, 5]),
           pairs=st.sampled_from([None, 0, 10 ** 6]))
    @settings(max_examples=300, deadline=None)
    @pytest.mark.filterwarnings("ignore:invalid value encountered")
    def test_matches_distance_rows(self, data, sp, block, pairs):
        n = sp.n
        point = st.integers(0, max(n - 1, 0))
        # scattered sets of either size, an empty set and a whole-space set
        sets = data.draw(st.lists(st.lists(point, max_size=2 * n if n else 0), max_size=4))
        sets += [[], list(range(n))]
        sets = data.draw(st.permutations(sets))
        m = Cover(sp, sets, require_covering=False, canonicalize=False).incidence()
        # members, points outside their set and the whole of some rows
        queries = data.draw(st.lists(st.lists(point, max_size=n), min_size=len(sets),
                                     max_size=len(sets)) if n else st.just([[]] * len(sets)))
        queries = [range(n) if data.draw(st.integers(0, 3)) == 0 else q for q in queries]
        q = Cover(sp, queries, require_covering=False, canonicalize=False).incidence()
        with mock.patch.multiple(spaces, _ENTRY_BLOCK=block or spaces._ENTRY_BLOCK,
                                 _PAIR_ROW=spaces._PAIR_ROW if pairs is None else pairs):
            got = sp.backend.outside_distances(q, m)
            want = oracles.outside_distances_rows(sp, q, m)
            assert got.dtype == np.float64
            assert np.array_equal(got, want, equal_nan=True)
            if sp.is_metric_backed() and n:
                cover = Cover(sp, [s for s in sets if len(set(s)) < n], require_covering=False)
                assert lebesgue_number(cover) == oracles.lebesgue_scan(sp, cover.incidence())
                # one-point sets count 0, where a distance row counts d(x, x)
                cover = Cover(sp, [s for s in sets if len(set(s)) > 1], require_covering=False)
                assert mesh(cover) == oracles.mesh_rows(cover)


@st.composite
def clouds(draw):
    """Clouds of 0-400 points in 1-5 or 9 dimensions, far from the origin
    or not: scattered, on a lattice (ties on cell faces), on a lattice of
    subnormal steps (a cell side that underflows), duplicated, collinear or
    all one point."""
    n = draw(st.integers(0, 400))
    dim = draw(st.sampled_from([1, 2, 3, 4, 5, 9]))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    shape = draw(st.sampled_from(["uniform", "lattice", "subnormal", "duplicates",
                                  "collinear", "one"]))
    x = rng.uniform(-5, 5, (n, dim))
    if shape == "lattice":
        x = np.round(x)
    elif shape == "subnormal":
        x = np.round(x) * 5e-324
    elif shape == "duplicates":
        x = x[rng.integers(0, max(n // 4, 1), n)]
    elif shape == "collinear":
        x = rng.uniform(-5, 5, (n, 1)) * rng.uniform(-1, 1, dim) + x[:1]
    elif shape == "one":
        x[:] = x[:1]
    return Space.cloud(draw(st.sampled_from([0.0, 1e6, 1e15])) + x)


class TestCloudKernels:
    """A cloud's cell-list nearest-outside kernel and the member-pair mesh
    against one distance row per entry or member and against the shared
    and per-set block sweep they replaced, bit for bit: with the scan
    hand-off and the pair rows patched to both sides, on sets of every
    size, boxes whose deep members need ring after ring, an empty set and
    the whole cloud."""

    @given(data=st.data(), sp=clouds(), share=st.sampled_from([None, 0]),
           pairs=st.sampled_from([None, 0, 10 ** 6]))
    @settings(max_examples=200, deadline=None)
    def test_matches_distance_rows_and_the_block_sweep(self, data, sp, share, pairs):
        n = sp.n
        x = sp.meta["coords"]
        point = st.integers(0, max(n - 1, 0))
        sets = data.draw(st.lists(st.lists(point, max_size=n // 3 if n else 0), max_size=3))
        for _ in range(data.draw(st.integers(0, 2)) if n else 0):
            lo = x[data.draw(point)]
            width = data.draw(st.sampled_from([0.5, 2.0, 6.0]))
            sets.append(np.flatnonzero(np.all(np.abs(x - lo) <= width, axis=1)).tolist())
        sets = data.draw(st.permutations(sets + [[], list(range(n))]))
        m = Cover(sp, sets, require_covering=False, canonicalize=False).incidence()
        patch = {"_RING_SHARE": spaces._RING_SHARE if share is None else share,
                 "_PAIR_ROW": spaces._PAIR_ROW if pairs is None else pairs}
        with mock.patch.multiple(spaces, **patch):
            got = sp.backend.outside_distances(m, m)
            spread = sp.backend.mesh(m, np.arange(m.shape[0]))
        assert np.array_equal(got, oracles.outside_distances_rows(sp, m, m))
        assert np.array_equal(got, oracles.outside_distances_blocks(sp, m, m))
        kept = [s for s in sets if len(set(s)) > 1]
        cover = Cover(sp, kept, require_covering=False)
        assert spread == oracles.mesh_rows(cover) == oracles.mesh_blocks(sp, m)

    @given(data=st.data(), sp=clouds(), closed=st.booleans())
    @settings(max_examples=100, deadline=None)
    def test_radius_pairs_over_many_rings(self, data, sp, closed):
        """Radius pairs walked ring after ring through the density list, the
        list of the radius's own side patched away, against one distance
        row per point."""
        e = Entourage.radius(sp, data.draw(st.sampled_from([0.3, 1.0, 2.5, 7.0])), closed=closed)
        build = spaces._CellList.build.__func__
        density = classmethod(lambda cls, coords, side=None: build(cls, coords))
        with mock.patch.object(spaces._CellList, "build", density):
            got = e.materialize().keys()
        assert np.array_equal(got, oracles.materialize_rows_loop(e))


class TestFarOutlier:
    """A uniform cloud plus one point a million units away. The cell list
    gives the outlier one cell of its own on each axis rather than
    crowding the cloud into one cell, so neither cloud kernel reaches the
    scan of every distance."""

    def setup_method(self):
        x = np.random.default_rng(11).uniform(0, 50, (2500, 2))
        self.sp = Space.cloud(np.vstack([x, [[1e6, 1e6]]]))
        # squares of side 6, the outlier's alone
        _, cell = np.unique(np.floor(self.sp.meta["coords"] / 6), axis=0, return_inverse=True)
        self.cover = Cover(self.sp, [np.flatnonzero(cell == c).tolist()
                                     for c in range(cell.max() + 1)])

    @staticmethod
    def refuse(*args, **kwargs):
        raise AssertionError("scan of every distance")

    def walks_alone(self):
        """A patch under which the cell-list walk may hand no point to the
        scan."""
        walk = spaces.EuclideanMetric._walk

        def alone(*args):
            scan = walk(*args)
            if scan.size:
                raise AssertionError("scan of every distance")
            return scan

        return mock.patch.object(spaces.EuclideanMetric, "_walk", alone)

    def test_radius_relation_without_the_scan(self):
        e = Entourage.radius(self.sp, 1.5)
        with self.walks_alone(), mock.patch.object(spaces.Metric, "radius_pairs", self.refuse):
            got = e.materialize().keys()
        assert np.array_equal(got, oracles.materialize_rows_loop(e))

    def test_lebesgue_number_without_the_scan(self):
        sweep = spaces.Metric._sweep

        def inside_only(self, rows, points, sets, outside, reduce=np.minimum):
            if outside:
                raise AssertionError("scan of every distance")
            return sweep(self, rows, points, sets, outside, reduce)

        with self.walks_alone(), mock.patch.object(spaces.Metric, "_sweep", inside_only):
            got = lebesgue_number(self.cover)
        assert got == oracles.lebesgue_scan(self.sp, self.cover.incidence()) > 0


class TestSortedKeys:
    @given(keys=st.lists(st.integers(-3, 40)), table=st.lists(st.integers(-3, 40)))
    @settings(max_examples=200, deadline=None)
    def test_run_heads_and_binary_search_match_numpy(self, keys, table):
        keys = np.sort(np.array(keys, dtype=np.int64))
        table = np.unique(np.array(table, dtype=np.int64))
        assert np.array_equal(keys[spaces._run_heads(keys)], np.unique(keys))
        assert np.array_equal(spaces._sorted_isin(keys, table), np.isin(keys, table))


class TestDistBlock:
    @given(data=st.data(), dim=st.integers(1, 9), n=st.integers(1, 12),
           offset=st.sampled_from([0.0, -7.5, 1e6, 1e8, 1e15]))
    @settings(max_examples=150, deadline=None)
    def test_entries_are_distance_rows(self, data, dim, n, offset):
        # the Gram form |x|^2 + |y|^2 - 2<x, y> cancelled away from the
        # origin and changed with the block's shape
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        sp = Space.cloud(offset + rng.uniform(-50, 50, (n, dim)))
        index = st.lists(st.integers(0, n - 1), max_size=8)
        rows = np.array(data.draw(index), dtype=np.int64)
        cols = np.array(data.draw(index), dtype=np.int64)
        want = np.array([[sp.dist_row(i)[j] for j in cols] for i in rows]).reshape(
            rows.size, cols.size)
        assert np.array_equal(sp.dist_block(rows, cols), want)
        part = data.draw(arrays(bool, cols.size))
        assert np.array_equal(sp.dist_block(rows, cols[part]), want[:, part])

    def test_grid_points_run_in_c_order(self):
        g = Space.grid(3, [0, 0, 0], [2, 0, 1], 1.0)
        assert g.n == 6 and g.meta["shape"] == (3, 1, 2) and g.meta["step"] == 1.0
        assert g.meta["coords"].tolist() == [[0.0, 0.0, 0.0], [0.0, 0.0, 1.0],
                                             [1.0, 0.0, 0.0], [1.0, 0.0, 1.0],
                                             [2.0, 0.0, 0.0], [2.0, 0.0, 1.0]]
        c = Space.cloud([[0.5, 1.0], [2.0, -1.0]])
        assert c.n == 2 and c.meta["coords"].tolist() == [[0.5, 1.0], [2.0, -1.0]]
        assert c.backend.step is None


class TestTracerHook:
    # certbench/tracer.py counts the pairs that materialize, compose and
    # cover_entourage return through `_keys.size`
    def test_keys_attribute_counts_pairs(self):
        line = Space.line(0, 29, 1.0)
        ball = Entourage.radius(line, 2.5).materialize()
        spread = cover_entourage(Cover(line, [range(0, 12), range(10, 30)]))
        for e in (ball, ball.compose(ball), spread):
            assert e._keys.size == e.matrix().nnz > 0


class TestTransport:
    def test_push_identity(self):
        sp = Space.line(0, 9, 1.0)
        e = Entourage.from_pairs(sp, [(1, 5), (2, 3)])
        pushed = transport(PointMap.identity(sp), e, "push")
        assert np.array_equal(pushed.keys(), e.keys())

    def test_push_constant_collapses_to_diagonal_point(self):
        src = Space.line(0, 9, 1.0)
        tgt = Space.line(0, 4, 1.0)
        const = PointMap(src, tgt, [2] * 10)
        e = Entourage.from_pairs(src, [(0, 9), (3, 4)])
        assert transport(const, e, "push").pairs() == [(2, 2)]

    def test_pull_back_of_inclusion_is_restriction(self):
        big = Space.line(0, 19, 1.0)
        sub_idx = list(range(5, 13))
        small = Space.line(5, 12, 1.0)
        incl = PointMap(small, big, sub_idx)
        e = Entourage.radius(big, 2.5)
        pulled = transport(incl, e, "pull")
        # brute-force restriction oracle
        expected = set()
        for i, gi in enumerate(sub_idx):
            for j, gj in enumerate(sub_idx):
                if big.dist(gi, gj) < 2.5 - 1e-12:
                    expected.add((i, j))
        assert set(pulled.pairs()) == expected

    def test_pull_after_push_contains_original_for_injective(self):
        src = Space.line(0, 9, 1.0)
        tgt = Space.line(0, 19, 1.0)
        f = PointMap(src, tgt, [2 * i for i in range(10)])
        e = Entourage.from_pairs(src, [(0, 3), (4, 7)])
        round_trip = transport(f, transport(f, e, "push"), "pull")
        assert e.is_subset_of(round_trip)

    def test_pull_after_push_equals_original_for_bijective(self):
        src = Space.line(0, 9, 1.0)
        tgt = Space.line(0, 9, 1.0)
        perm = [(3 * i + 1) % 10 for i in range(10)]
        f = PointMap(src, tgt, perm)
        e = Entourage.from_pairs(src, [(0, 3), (4, 7), (2, 2)])
        round_trip = transport(f, transport(f, e, "push"), "pull")
        assert np.array_equal(round_trip.keys(), e.keys())


class TestSpaceValidation:
    def test_pseudometric_allows_zero_distance_pairs(self):
        d = np.zeros((3, 3))
        d[0, 2] = d[2, 0] = 1.0
        d[1, 2] = d[2, 1] = 1.0
        sp = Space.from_matrix(d)
        assert sp.dist(0, 1) == 0.0

    def test_triangle_violation_rejected(self):
        d = np.array([[0, 1, 5], [1, 0, 1], [5, 1, 0]], dtype=float)
        with pytest.raises(InvalidInputError):
            Space.from_matrix(d)

    @pytest.mark.parametrize("d", [[[0.0, math.nan], [math.nan, 0.0]], [[math.nan]],
                                   [[0.0, 1.0, 1.0], [1.0, 0.0, math.nan], [1.0, math.nan, 0.0]]])
    def test_nan_distances_rejected(self, d):
        # every comparison of the checks below is False at NaN
        with pytest.raises(InvalidInputError, match="NaN"):
            Space.from_matrix(d)

    def test_tree_space_distances(self):
        sp = Space.tree([(0, 1), (1, 2), (1, 3)])
        assert sp.dist(2, 3) == 2.0 and sp.dist(0, 2) == 2.0

    def test_cycle_rejected(self):
        with pytest.raises(InvalidInputError):
            Space.tree([(0, 1), (1, 2), (2, 0)])

    @pytest.mark.parametrize("edges", [[(-1, 1), (0, 2)], [(0, -3)], [(0, 1), (1, 2 ** 70)],
                                       [(0, 1, 2)], [(0, 10 ** 12)]],
                             ids=["aliased", "negative", "beyond-int64", "triple", "sparse"])
    def test_malformed_tree_edges_rejected(self, edges):
        with pytest.raises(InvalidInputError):
            Space.tree(edges)

    def test_deep_path_tree(self):
        # the distance table is built without recursion
        n = 10 ** 5
        sp = Space.tree([(i + 1, i) for i in range(n - 1)])
        assert sp.dist(0, n - 1) == n - 1
        assert np.array_equal(sp.dist_block([n - 1], [0, n // 2, n - 1]),
                              [[n - 1, n - 1 - n // 2, 0]])

    def test_grid_point_cap_is_checked_before_allocation(self):
        tracemalloc.start()
        try:
            with pytest.raises(ResourceLimitError, match=f"{10 ** 12} points .* {POINT_CAP}"):
                Space.grid(3, [0.0] * 3, [9999.0] * 3, 1.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    @pytest.mark.parametrize("bounds", [([0.0], [math.inf]), ([math.nan], [1.0]),
                                        ([-1e308], [1e308])])
    def test_grid_bounds_must_be_finite(self, bounds):
        with pytest.raises(InvalidInputError):
            Space.grid(1, *bounds, 1.0)

    def test_hyperbolic_distance_law(self):
        sp = Space.hyperbolic_polar(-1.0, [(1.0, 0.0), (1.0, math.pi)])
        assert sp.dist(0, 1) == pytest.approx(2.0, abs=1e-9)

    @given(coords=arrays(np.float64, (5, 3), elements=st.floats(-1e12, 1e12)),
           edges=st.lists(st.integers(0, 10), min_size=6, max_size=6))
    @settings(max_examples=30, deadline=None)
    def test_zero_self_distance_backings(self, coords, edges):
        tree = Space.tree([(edges[v - 1] % v, v) for v in range(1, 7)])
        spaces = [Space.cloud(coords), Space.grid(2, [coords[0, 0]] * 2,
                                                  [coords[0, 0] + 3.0] * 2, 1.5),
                  tree, Space.discrete(4)]
        assert all(sp.backend.zero_self_distance for sp in spaces)
        others = [Space.from_matrix(np.zeros((2, 2))), Space.hyperbolic_polar(-1.0, [(1.0, 0.0)]),
                  Space.product(tree, tree)]
        assert not any(sp.backend.zero_self_distance for sp in others)
        for sp in spaces:
            assert all(sp.dist_row(i)[i] == 0.0 for i in range(sp.n))
