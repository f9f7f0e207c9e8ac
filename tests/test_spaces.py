import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coarselab.covers import Cover, cover_entourage
from coarselab.errors import InvalidInputError, ResourceLimitError
from coarselab.spaces import (Entourage, PointMap, Space, transport, uniformity_modulus,
                              word_metric_ball)
from coarselab.transforms import make_product_entourage
import oracles


def small_relation(n_points=20):
    return st.lists(
        st.tuples(st.integers(0, n_points - 1), st.integers(0, n_points - 1)),
        max_size=25)


class TestWordMetric:
    def test_z2_standard_generators_is_l1(self):
        sp = word_metric_ball([(1, 0), (0, 1)], 7, group="zn")
        els = sp.meta["elements"]
        d = sp.dist(els.index((0, 0)), els.index((3, 4)))
        assert d == 7

    def test_generator_change_is_bilipschitz(self):
        # BFS oracle over both generating sets: lambda = 2 works
        a = word_metric_ball([(1, 0), (0, 1)], 8, group="zn")
        b = word_metric_ball([(1, 0), (1, 1)], 8, group="zn")
        common = sorted(set(a.meta["elements"]) & set(b.meta["elements"]))
        ia = {e: a.meta["elements"].index(e) for e in common}
        ib = {e: b.meta["elements"].index(e) for e in common}
        for e in common:
            for f in common:
                assert a.dist(ia[e], ia[f]) <= 2 * b.dist(ib[e], ib[f]) + 1e-9

    def test_free_group_ball_size(self):
        sp = word_metric_ball([(1,), (2,)], 3, group="free")
        assert sp.n == 1 + 4 + 12 + 36

    def test_partial_ball_is_fine(self):
        sp = word_metric_ball([(2, 0), (0, 2)], 3, group="zn")
        assert (1, 1) not in sp.meta["elements"]

    def test_empty_generators_rejected(self):
        with pytest.raises(InvalidInputError):
            word_metric_ball([], 3, group="zn")


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
        full = Entourage.from_keys(sp, np.arange(256 * 256))
        assert full.compose(full).pair_count() == 256 * 256

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


class TestTracerHook:
    # certbench/tracer.py counts the pairs that materialize, compose and
    # cover_entourage return through `_keys.size`
    def test_keys_attribute_counts_pairs(self):
        line = Space.line(0, 29, 1.0)
        ball = Entourage.radius(line, 2.5).materialize()
        spread = cover_entourage(Cover(line, [range(0, 12), range(10, 30)]))
        for e in (ball, ball.compose(ball), spread):
            assert e._keys.size == e.pair_count() > 0


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


class TestUniformityModulus:
    def test_identity_modulus(self):
        sp = Space.line(0, 10, 1.0)
        out = uniformity_modulus(PointMap.identity(sp), [1, 2, 5])
        assert out["s"][1.0] == 1.0 and out["s"][5.0] == 5.0

    def test_doubling_map(self):
        src = Space.line(0, 10, 1.0)
        tgt = Space.line(0, 20, 1.0)
        double = PointMap(src, tgt, [2 * i for i in range(11)])
        out = uniformity_modulus(double, [1.0])
        assert out["s"][1.0] == 2.0

    def test_floor_map_bound(self):
        src = Space.line(0, 10, 0.25)
        tgt = Space.line(0, 10, 1.0)
        table = [int(math.floor(v[0] + 1e-9)) for v in src.points]
        fl = PointMap(src, tgt, table)
        for r in (1.0, 2.5, 4.0):
            out = uniformity_modulus(fl, [r])
            assert out["s"][r] <= r + 1.0 + 1e-9

    def test_closeness(self):
        sp = Space.line(0, 10, 1.0)
        f = PointMap.identity(sp)
        g = PointMap(sp, sp, [min(10, i + 2) for i in range(11)])
        out = uniformity_modulus(f, [1.0], g=g)
        assert out["closeness"] == 2.0

    def test_empty_radii_rejected(self):
        sp = Space.line(0, 10, 1.0)
        with pytest.raises(InvalidInputError):
            uniformity_modulus(PointMap.identity(sp), [])


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

    def test_tree_space_distances(self):
        sp = Space.tree([(0, 1), (1, 2), (1, 3)])
        assert sp.dist(2, 3) == 2.0 and sp.dist(0, 2) == 2.0

    def test_cycle_rejected(self):
        with pytest.raises(InvalidInputError):
            Space.tree([(0, 1), (1, 2), (2, 0)])

    def test_hyperbolic_distance_law(self):
        sp = Space.hyperbolic_polar(-1.0, [(1.0, 0.0), (1.0, math.pi)])
        assert sp.dist(0, 1) == pytest.approx(2.0, abs=1e-9)
