import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from coarselab.covers import (Cover, appetite_witness, has_appetite, multiplicity)
from coarselab.errors import ContractViolationError, InvalidInputError
from coarselab.prng import SplitMix64
from coarselab.spaces import Entourage, Space
from coarselab.transforms import (ColoredCover, _attach, _distinct_contents, _intersections,
                                  _shared_point_tuples, _shield_and_trim, colorize, expand,
                                  family_disjoint_witness, interior,
                                  make_product_entourage, merge_union,
                                  product_refine)
from coarselab.witnesses import cube_cover


def interior_of(indices, e):
    """The E-interior of one set, through the batched interior."""
    row = Cover(e.space, [list(indices)], require_covering=False).incidence()
    return frozenset(interior(row, e).indices.tolist())


class TestInterior:
    def test_whole_space_stays_whole(self):
        sp = Space.line(0, 10, 1.0)
        e = Entourage.radius(sp, 3.0)
        assert interior_of(range(11), e) == frozenset(range(11))

    def test_diagonal_interior_is_the_set(self):
        sp = Space.line(0, 10, 1.0)
        d = Entourage.diagonal(sp)
        assert interior_of([2, 3, 4], d) == frozenset({2, 3, 4})

    def test_interval_shrinks_by_radius(self):
        sp = Space.line(0, 20, 1.0)
        e = Entourage.radius(sp, 2.5, closed=False)
        got = interior_of(range(0, 11), e)
        # ball around index i is {i-2..i+2}; inside [0,10] needs i <= 8,
        # and the left edge keeps 0..2 since the sample stops at 0
        assert got == frozenset(range(0, 9))


def blocks_cover(sp, width, gap_sets):
    """Partition an integer line sample into blocks of the given width."""
    sets = []
    i = 0
    while i < sp.n:
        sets.append(list(range(i, min(i + width, sp.n))))
        i += width
    fams = gap_sets(len(sets))
    return ColoredCover(sp, sets, fams, Entourage.diagonal(sp),
                        canonicalize=False)


class TestExpand:
    def test_diagonal_expand_is_identity(self):
        sp = Space.line(0, 9, 1.0)
        c = ColoredCover(sp, [[i] for i in range(10)], [list(range(10))],
                         Entourage.diagonal(sp))
        out, cert = expand(c, Entourage.diagonal(sp))
        assert [set(s) for s in out.sets] == [set(s) for s in c.sets]
        assert all(g["pass"] for g in cert)

    def test_block_expand_gets_appetite(self):
        sp = Space.line(0, 40, 1.0)
        c = blocks_cover(sp, 4, lambda k: [[i for i in range(k) if i % 2 == 0],
                                           [i for i in range(k) if i % 2 == 1]])
        L = Entourage.radius(sp, 1.0, closed=True).materialize()
        out, cert = expand(c, L)
        assert has_appetite(out, L)
        assert all(g["pass"] for g in cert)

    def test_violated_precondition_reports_witness(self):
        sp = Space.line(0, 10, 1.0)
        c = blocks_cover(sp, 2, lambda k: [list(range(k))])
        L = Entourage.radius(sp, 1.5, closed=True).materialize()
        with pytest.raises(ContractViolationError) as err:
            expand(c, L)
        assert err.value.witness is not None


class TestColorize:
    def test_single_set_cover_n0(self):
        sp = Space.line(0, 9, 1.0)
        c = Cover(sp, [list(range(10))])
        L = Entourage.radius(sp, 1.0, closed=True).materialize()
        out, cert = colorize(c, L, 0)
        assert len(out.families) == 1
        assert out.uncovered_points() == []

    def test_cube_cover_on_plane(self):
        grid = Space.grid(2, [0, 0], [18, 18], 0.5)
        cov, _ = cube_cover(grid, 2, 10.0)
        flat = Cover(grid, cov.sets)
        L = Entourage.radius(grid, 0.6).materialize()
        out, cert = colorize(flat, L, 2)
        assert len(out.families) == 3
        assert family_disjoint_witness(out, L) is None
        assert out.uncovered_points() == []
        assert all(g["pass"] for g in cert)

    def test_two_overlapping_intervals(self):
        sp = Space.line(0, 30, 1.0)
        c = Cover(sp, [list(range(0, 20)), list(range(12, 31))])
        L = Entourage.radius(sp, 1.0, closed=True).materialize()
        out, cert = colorize(c, L, 1)
        assert len(out.families) == 2
        assert family_disjoint_witness(out, L) is None

    def test_missing_appetite_raises(self):
        sp = Space.line(0, 30, 1.0)
        c = Cover(sp, [[i, i + 1] for i in range(30)])
        L = Entourage.radius(sp, 2.0, closed=True).materialize()
        with pytest.raises(ContractViolationError):
            colorize(c, L, 1)

    def test_refinement_property(self):
        sp = Space.line(0, 40, 1.0)
        c = Cover(sp, [list(range(0, 25)), list(range(15, 41))])
        L = Entourage.radius(sp, 1.0, closed=True).materialize()
        out, _ = colorize(c, L, 1)
        originals = [set(s) for s in c.sets]
        for s in out.sets:
            assert any(set(s) <= o for o in originals)

    @pytest.mark.parametrize("n", [1, 2])
    def test_roundtrip_lebesgue_bookkeeping(self, n):
        # colorize at scale L/(n+1), then expand at L/(2n+2): the result
        # keeps a discrete Lebesgue number of at least L/(2n+2)
        from coarselab.covers import lebesgue_number
        L = 2.0
        a = 2 * (n + 1) * L
        step = 0.5
        grid = Space.grid(n, [0.0] * n, [2 * a] * n, step)
        base, _ = cube_cover(grid, n, a)
        assert lebesgue_number(base) >= L - 1e-9
        K = Entourage.radius(grid, L / (n + 1)).materialize()
        colored, _ = colorize(Cover(grid, base.sets), K, n)
        K_half = Entourage.radius(grid, L / (2 * n + 2)).materialize()
        refit = ColoredCover(grid, colored.sets, colored.families, K_half,
                             require_covering=False, canonicalize=False)
        out, _ = expand(refit, K_half)
        assert has_appetite(out, K_half)
        assert lebesgue_number(out) >= L / (2 * n + 2) - 1e-9


class TestMergeUnion:
    def make_pieces(self, split=50, hi=100):
        # A covers [0, split] with width-4 blocks, families by parity; B
        # covers [split, hi] with two wide blocks, one per family, so the
        # strong disjointness precondition holds vacuously
        sp = Space.line(0, hi, 1.0)
        a_sets, fam_a = [], [[], []]
        i = 0
        while i <= split:
            fam_a[(i // 4) % 2].append(len(a_sets))
            a_sets.append([j for j in range(i, min(i + 4, split + 1))])
            i += 4
        mid = (split + hi) // 2
        b_sets = [list(range(split, mid + 1)), list(range(mid + 1, hi + 1))]
        fam_b = [[0], [1]]
        return sp, a_sets, fam_a, b_sets, fam_b

    def test_two_piece_line(self):
        sp, a_sets, fam_a, b_sets, fam_b = self.make_pieces()
        ca = ColoredCover(sp, a_sets, fam_a, Entourage.diagonal(sp),
                          require_covering=False, canonicalize=False)
        cb = ColoredCover(sp, b_sets, fam_b, Entourage.diagonal(sp),
                          require_covering=False, canonicalize=False)
        L = Entourage.radius(sp, 1.0, closed=True).materialize()
        out, cert = merge_union(ca, cb, L)
        assert all(g["pass"] for g in cert)
        covered = set()
        for s in out.sets:
            covered.update(s)
        assert covered == set(range(0, 101))

    def test_family_count_mismatch_rejected(self):
        sp, a_sets, fam_a, b_sets, fam_b = self.make_pieces()
        ca = ColoredCover(sp, a_sets, fam_a,
                          Entourage.diagonal(sp), require_covering=False,
                          canonicalize=False)
        cb = ColoredCover(sp, b_sets, [[0, 1], [], []],
                          Entourage.diagonal(sp), require_covering=False,
                          canonicalize=False)
        L = Entourage.radius(sp, 1.0, closed=True).materialize()
        with pytest.raises(InvalidInputError):
            merge_union(ca, cb, L)

    def test_empty_b_piece_returns_a(self):
        sp = Space.line(0, 20, 1.0)
        a_sets = [[i for i in range(0, 21) if i % 2 == 0],
                  [i for i in range(0, 21) if i % 2 == 1]]
        # families must be unit-disjoint: split evens/odds further apart
        a_sets = [list(range(0, 9)), list(range(12, 21)), list(range(9, 12))]
        ca = ColoredCover(sp, a_sets, [[0, 1], [2]], Entourage.diagonal(sp),
                          canonicalize=False)
        cb = ColoredCover(sp, [[], []], [[0], [1]], Entourage.diagonal(sp),
                          require_covering=False, canonicalize=False)
        L = Entourage.radius(sp, 1.0, closed=True).materialize()
        out, cert = merge_union(ca, cb, L)
        got = sorted(tuple(s) for s in out.sets if s)
        want = sorted(tuple(s) for s in ca.sets)
        assert got == want


class TestProductRefine:
    def line_cover(self, sp, spacing=8, reach=7):
        # intervals [8i - reach + 1, 8i + reach] overlap enough that every
        # +-3 ball sits deep inside one of them, with multiplicity 2
        sets = []
        i = 0
        while i * spacing < sp.n + reach:
            lo = max(0, i * spacing - reach + 1)
            hi = min(sp.n - 1, i * spacing + reach)
            if lo <= hi:
                sets.append(list(range(lo, hi + 1)))
            i += 1
        return Cover(sp, sets)

    def test_two_lines(self):
        x = Space.line(0, 19, 1.0)
        y = Space.line(0, 19, 1.0)
        prod = Space.product(x, y)
        cx = self.line_cover(x)
        cy = self.line_cover(y)
        ex = Entourage.radius(x, 1.0, closed=True).materialize()
        ey = Entourage.radius(y, 1.0, closed=True).materialize()
        e = make_product_entourage(prod, ex, ey)
        out, cert = product_refine(cx, cy, e, 1, 1)
        assert len(out.families) == 3
        assert multiplicity(out) <= 3
        assert all(g["pass"] for g in cert)

    def test_multiplicity_beats_naive_product(self):
        x = Space.line(0, 19, 1.0)
        y = Space.line(0, 19, 1.0)
        prod = Space.product(x, y)
        cx = self.line_cover(x)
        cy = self.line_cover(y)
        naive = (multiplicity(cx)) * (multiplicity(cy))
        ex = Entourage.radius(x, 1.0, closed=True).materialize()
        ey = Entourage.radius(y, 1.0, closed=True).materialize()
        e = make_product_entourage(prod, ex, ey)
        out, _ = product_refine(cx, cy, e, 1, 1)
        assert multiplicity(out) <= 3 < naive

    def test_brute_force_multiplicity_oracle(self):
        x = Space.line(0, 14, 1.0)
        y = Space.line(0, 14, 1.0)
        prod = Space.product(x, y)
        cx = self.line_cover(x)
        cy = self.line_cover(y)
        ex = Entourage.radius(x, 1.0, closed=True).materialize()
        ey = Entourage.radius(y, 1.0, closed=True).materialize()
        e = make_product_entourage(prod, ex, ey)
        out, _ = product_refine(cx, cy, e, 1, 1)
        counts = np.zeros(prod.n, dtype=int)
        for s in set(out.sets):
            counts[list(s)] += 1
        assert counts.max() == multiplicity(out)


def rows_of(m):
    return [tuple(sorted(m[k].indices.tolist())) for k in range(m.shape[0])]


def as_matrix(sets, n):
    return Cover(Space.discrete(n), [sorted(s) for s in sets], require_covering=False,
                 canonicalize=False).incidence()


@st.composite
def sets_and_relation(draw, max_n=10):
    """Any sets over a small space and any pair relation on it, which may
    leave columns of degree 0."""
    n = draw(st.integers(1, max_n))
    sets = draw(st.lists(st.lists(st.integers(0, n - 1), max_size=n), max_size=7))
    pairs = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                          max_size=3 * n))
    rel = Entourage.from_pairs(Space.discrete(n), pairs, symmetrize=draw(st.booleans()))
    return n, sets, rel


@st.composite
def colored_sets(draw, n):
    """Sets and families over range(n) with disjoint sets in each family (a
    set may be empty), in shuffled set order."""
    sets, families = [], []
    for _ in range(draw(st.integers(1, 3))):
        labels = draw(st.lists(st.integers(-1, 3), min_size=n, max_size=n))
        fam = []
        for lab in range(draw(st.integers(1, 4))):
            fam.append(len(sets))
            sets.append([p for p in range(n) if labels[p] == lab])
        families.append(fam)
    order = draw(st.permutations(range(len(sets))))
    rank = {old: new for new, old in enumerate(order)}
    return [sets[k] for k in order], [[rank[k] for k in fam] for fam in families]


class TestSparseConstructionsOracle:
    @given(case=sets_and_relation())
    @settings(max_examples=200, deadline=None)
    def test_batched_interior_matches_the_loop(self, case):
        n, sets, rel = case
        got = interior(as_matrix(sets, n), rel)
        assert got.shape == (len(sets), n)
        assert [frozenset(r) for r in rows_of(got)] == [oracles.interior_loop(s, rel)
                                                        for s in sets]

    @given(case=sets_and_relation(), size=st.integers(1, 4))
    @settings(max_examples=200, deadline=None)
    def test_shared_point_tuples_and_intersections_match_the_loops(self, case, size):
        n, sets, _ = case
        base = _distinct_contents(Cover(Space.discrete(n), sets, require_covering=False,
                                        canonicalize=False))
        distinct = rows_of(base)
        assert [tuple(c) for c in _shared_point_tuples(base, size).tolist()] == \
            oracles.shared_point_tuples_loop(distinct, size, n)
        assert [set(r) for r in rows_of(_intersections(base, size))] == \
            oracles.intersections_loop(distinct, size, n)

    @given(data=st.data(), n=st.integers(1, 10))
    @settings(max_examples=200, deadline=None)
    def test_shield_and_trim_matches_the_loop(self, data, n):
        levels = data.draw(st.lists(st.lists(st.frozensets(st.integers(0, n - 1)), max_size=4),
                                    min_size=2, max_size=4))
        sets, families = _shield_and_trim([as_matrix(level, n) for level in levels])
        assert (rows_of(sets), families) == oracles.shield_and_trim_loop(levels, n)

    @given(data=st.data(), n=st.integers(1, 10))
    @settings(max_examples=200, deadline=None)
    def test_family_disjoint_witness_matches_the_loop(self, data, n):
        sets, families = data.draw(colored_sets(n))
        sp = Space.discrete(n)
        cover = Cover(sp, sets, families, require_covering=False, canonicalize=False)
        pairs = data.draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                                   max_size=2 * n))
        rel = Entourage.from_pairs(sp, pairs, symmetrize=data.draw(st.booleans()))
        assert family_disjoint_witness(cover, rel) == \
            oracles.family_disjoint_loop(cover.sets, cover.families, n, rel)

    @given(data=st.data(), n=st.integers(1, 10))
    @settings(max_examples=300, deadline=None)
    def test_attach_step_matches_the_loop(self, data, n):
        sets_a, fams_a = data.draw(colored_sets(n))
        sets_b, fams_b = data.draw(colored_sets(n))
        fams = min(len(fams_a), len(fams_b))
        keep_a = sorted(k for fam in fams_a[:fams] for k in fam)
        keep_b = sorted(k for fam in fams_b[:fams] for k in fam)
        sp = Space.discrete(n)
        ca = Cover(sp, [sets_a[k] for k in keep_a],
                   [[keep_a.index(k) for k in fam] for fam in fams_a[:fams]],
                   require_covering=False, canonicalize=False)
        cb = Cover(sp, [sets_b[k] for k in keep_b],
                   [[keep_b.index(k) for k in fam] for fam in fams_b[:fams]],
                   require_covering=False, canonicalize=False)
        pairs = data.draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                                   max_size=2 * n))
        rel = Entourage.from_pairs(sp, pairs)
        want = oracles.merge_attach_loop(ca.sets, ca.families, cb.sets, cb.families, n, rel)
        if want[0] == "conflict":
            with pytest.raises(ContractViolationError) as err:
                _attach(ca, cb, rel)
            assert err.value.witness == want[1]
            return
        sets, families = _attach(ca, cb, rel)
        assert (rows_of(sets), families) == want
